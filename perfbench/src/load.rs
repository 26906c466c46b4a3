//! Open-loop load generators and their phase summaries.
//!
//! Every request is timed from its **due** time, so a stall that delays
//! later sends shows up in their latency; how late the generator itself ran
//! is reported beside it.

use crate::stats::{percentile, Quantiles};
use crate::trace::Tracer;
use ofscil::prelude::{PendingResponse, ServeClient, ServeRequest, ServeResponse, WireClient};
use ofscil::wire::BoundAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Infer,
    Learn,
}

/// One request of a schedule: when it is due (ns from the phase start),
/// its kind, its tenant, and an index the workload maps to the request body.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub due_ns: u64,
    pub kind: Kind,
    pub tenant: usize,
    pub item: usize,
}

/// What a request was answered with, reduced to what the checks read: a
/// run holds one per request, and the harness's memory should not swamp
/// the program's in `peak_rss_mb`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    Prediction {
        class: usize,
    },
    /// `class` is the one class written, `None` unless exactly one was.
    Learned {
        class: Option<usize>,
        total: usize,
    },
    Other,
}

impl From<&ServeResponse> for Answer {
    fn from(response: &ServeResponse) -> Answer {
        match response {
            ServeResponse::Prediction { class, .. } => Answer::Prediction { class: *class },
            ServeResponse::Learned {
                classes,
                total_classes,
            } => Answer::Learned {
                class: (classes.len() == 1).then(|| classes[0]),
                total: *total_classes,
            },
            _ => Answer::Other,
        }
    }
}

/// What happened to one request.
#[derive(Debug)]
pub struct Outcome {
    pub planned: Planned,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub response: Result<Answer, String>,
}

impl Outcome {
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns.saturating_sub(self.planned.due_ns)) as f64 / 1e6
    }
}

/// Sleeps until `due` (a thread cannot wake early, so it never runs ahead
/// of schedule).
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        std::thread::sleep(due - now);
    }
}

fn since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Drives an in-process runtime: the calling thread submits each request at
/// its due time without waiting, one collector thread waits for replies in
/// submission order. Submission stops once `max_in_flight` requests are
/// waiting, so fewer outcomes than planned requests means the runtime fell
/// that far behind. Spans (`span_name`, request id `first_id + i`) are
/// recorded when the tracer is on.
pub fn serve_open_loop(
    client: &ServeClient,
    plan: &[Planned],
    max_in_flight: usize,
    make: impl Fn(&Planned) -> ServeRequest,
    tracer: &Tracer,
    span_name: &'static str,
    first_id: u64,
) -> Vec<Outcome> {
    let (tx, rx) = mpsc::channel();
    let answered = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let answered = &answered;
        let collector = scope.spawn(move || {
            // Sized up front: doubling growth would make the peak RSS jump
            // with how the request count falls against powers of two.
            let mut outcomes = Vec::with_capacity(plan.len());
            for (i, planned, sent_ns, trace_start, pending, t0) in rx {
                let pending: PendingResponse = pending;
                let response = pending
                    .wait()
                    .map(|r| Answer::from(&r))
                    .map_err(|e| e.to_string());
                let done_ns = since(t0);
                answered.fetch_add(1, Ordering::Relaxed);
                tracer.record(
                    span_name,
                    first_id + i as u64,
                    None,
                    trace_start,
                    tracer.now_ns(),
                );
                outcomes.push(Outcome {
                    planned,
                    sent_ns,
                    done_ns,
                    response,
                });
            }
            outcomes
        });
        let t0 = Instant::now();
        for (i, planned) in plan.iter().enumerate() {
            wait_until(t0 + Duration::from_nanos(planned.due_ns));
            if i - answered.load(Ordering::Relaxed) >= max_in_flight {
                break;
            }
            let request = make(planned);
            let trace_start = tracer.now_ns();
            let sent_ns = since(t0);
            let pending = client.submit(request);
            tx.send((i, *planned, sent_ns, trace_start, pending, t0))
                .expect("collector alive");
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    })
}

/// Drives a socket endpoint from `senders` threads, one connection each.
/// Request `i` of the plan goes to sender `i % senders`, which sends it at
/// its due time (or at once when already late) and waits for the reply, so
/// at most `senders` requests are in flight.
pub fn wire_open_loop(
    addr: &BoundAddr,
    senders: usize,
    plan: &[Planned],
    make: &(dyn Fn(&Planned) -> ServeRequest + Sync),
    tracer: &Tracer,
    span_name: &'static str,
    first_id: u64,
) -> Result<Vec<Outcome>, String> {
    let mut clients = Vec::with_capacity(senders);
    for _ in 0..senders {
        clients.push(WireClient::connect(addr).map_err(|e| format!("connect: {e}"))?);
    }
    let t0 = Instant::now();
    let outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(sender, mut client)| {
                scope.spawn(move || {
                    let mut mine = Vec::with_capacity(plan.len() / senders + 1);
                    for (i, planned) in plan.iter().enumerate().skip(sender).step_by(senders) {
                        wait_until(t0 + Duration::from_nanos(planned.due_ns));
                        let request = make(planned);
                        let trace_start = tracer.now_ns();
                        let sent_ns = since(t0);
                        let response = client
                            .call(request)
                            .map(|r| Answer::from(&r))
                            .map_err(|e| e.to_string());
                        let done_ns = since(t0);
                        tracer.record(
                            span_name,
                            first_id + i as u64,
                            None,
                            trace_start,
                            tracer.now_ns(),
                        );
                        mine.push((
                            i,
                            Outcome {
                                planned: *planned,
                                sent_ns,
                                done_ns,
                                response,
                            },
                        ));
                    }
                    mine
                })
            })
            .collect();
        let mut all: Vec<(usize, Outcome)> = Vec::with_capacity(plan.len());
        for handle in handles {
            all.extend(handle.join().expect("sender thread panicked"));
        }
        all.sort_by_key(|(i, _)| *i);
        all.into_iter().map(|(_, o)| o).collect()
    });
    Ok(outcomes)
}

/// One closed-loop phase: requests sent back to back until `seconds` have
/// passed (at least `min` of them). Each is due when it is sent.
pub fn closed_loop(
    client: &ServeClient,
    seconds: f64,
    min: usize,
    first: usize,
    kind: Kind,
    tracer: &Tracer,
    make: impl Fn(usize) -> ServeRequest,
) -> Vec<Outcome> {
    let t0 = Instant::now();
    let mut outcomes = Vec::new();
    while outcomes.len() < min || t0.elapsed().as_secs_f64() < seconds {
        let item = first + outcomes.len();
        let request = make(item);
        let due_ns = t0.elapsed().as_nanos() as u64;
        let (response, done_ns) = tracer.span("load.request", item as u64, None, |_| {
            let response = client
                .call(request)
                .map(|r| Answer::from(&r))
                .map_err(|e| e.to_string());
            (response, t0.elapsed().as_nanos() as u64)
        });
        let planned = Planned {
            due_ns,
            kind,
            tenant: 0,
            item,
        };
        outcomes.push(Outcome {
            planned,
            sent_ns: due_ns,
            done_ns,
            response,
        });
    }
    outcomes
}

/// Summary of one phase.
#[derive(Debug, Clone)]
pub struct Phase {
    pub infer: Option<Quantiles>,
    pub learn: Option<Quantiles>,
    pub attempted: usize,
    pub failed: usize,
    /// Requests actually sent per second of the phase's send window.
    pub offered_rps: f64,
    pub lateness_p99_ms: f64,
    pub lateness_max_ms: f64,
    /// Median latency of the last fifth of the phase (by due time): above
    /// the limit means the backlog was still growing when the phase ended.
    pub tail_median_ms: f64,
}

/// Latency quantiles (ms) of one request kind in each of `windows` equal
/// slices of a phase (by due time). Slices with fewer than 20 requests of
/// that kind are skipped; when every slice is that small the whole phase
/// is the one slice.
pub fn window_quantiles(outcomes: &[Outcome], kind: Kind, windows: usize) -> Vec<Quantiles> {
    let Some(span) = outcomes.iter().map(|o| o.planned.due_ns + 1).max() else {
        return Vec::new();
    };
    let mut slices = vec![Vec::new(); windows];
    for o in outcomes.iter().filter(|o| o.planned.kind == kind) {
        let w = (o.planned.due_ns as u128 * windows as u128 / span as u128) as usize;
        slices[w].push(o.latency_ms());
    }
    let per: Vec<Quantiles> = slices
        .iter()
        .filter(|s| s.len() >= 20)
        .filter_map(|s| Quantiles::of(s))
        .collect();
    if per.is_empty() {
        return Quantiles::of(&slices.concat()).into_iter().collect();
    }
    per
}

/// Median over slices of each slice's p50 and p90. A burst of machine
/// noise then moves one slice, not the reported figure.
pub fn median_p50_p90(slices: &[Quantiles]) -> Option<(f64, f64)> {
    if slices.is_empty() {
        return None;
    }
    let p50: Vec<f64> = slices.iter().map(|q| q.p50).collect();
    let p90: Vec<f64> = slices.iter().map(|q| q.p90).collect();
    Some((crate::stats::median(&p50), crate::stats::median(&p90)))
}

/// [`median_p50_p90`] over the [`window_quantiles`] of one phase.
pub fn windowed(outcomes: &[Outcome], kind: Kind, windows: usize) -> Option<(f64, f64)> {
    median_p50_p90(&window_quantiles(outcomes, kind, windows))
}

impl Phase {
    pub fn of(outcomes: &[Outcome], seconds: f64) -> Phase {
        let lat = |kind| -> Vec<f64> {
            outcomes
                .iter()
                .filter(|o| o.planned.kind == kind)
                .map(Outcome::latency_ms)
                .collect()
        };
        let mut late: Vec<f64> = outcomes
            .iter()
            .map(|o| o.sent_ns.saturating_sub(o.planned.due_ns) as f64 / 1e6)
            .collect();
        late.sort_by(f64::total_cmp);
        let tail: Vec<f64> = outcomes[outcomes.len() - outcomes.len() / 5..]
            .iter()
            .map(Outcome::latency_ms)
            .collect();
        let last_sent = outcomes.iter().map(|o| o.sent_ns).max().unwrap_or(0) as f64 / 1e9;
        Phase {
            infer: Quantiles::of(&lat(Kind::Infer)),
            learn: Quantiles::of(&lat(Kind::Learn)),
            attempted: outcomes.len(),
            failed: outcomes.iter().filter(|o| o.response.is_err()).count(),
            offered_rps: outcomes.len() as f64 / last_sent.max(seconds),
            lateness_p99_ms: if late.is_empty() {
                0.0
            } else {
                percentile(&late, 99.0)
            },
            lateness_max_ms: late.last().copied().unwrap_or(0.0),
            tail_median_ms: if tail.is_empty() {
                0.0
            } else {
                crate::stats::median(&tail)
            },
        }
    }

    /// Whether the phase meets a p90 latency limit for every request kind
    /// (the median over `windows` slices of each slice's p90, as reported),
    /// with no failure and no growing backlog.
    pub fn meets(&self, outcomes: &[Outcome], windows: usize, limit_ms: f64) -> bool {
        self.failed == 0
            && self.tail_median_ms <= limit_ms
            && [Kind::Infer, Kind::Learn]
                .into_iter()
                .filter_map(|kind| windowed(outcomes, kind, windows))
                .all(|(_, p90)| p90 <= limit_ms)
    }
}
