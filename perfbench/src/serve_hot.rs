//! `serve_hot`: one in-process `ServeRuntime` (default config) with one
//! micro-backbone tenant, driven by open-loop Poisson infers at 4000 rps
//! from one generator thread and one collector thread. Latency limit: p90
//! at most 1 ms.
//!
//! The only workload where one deployment sees enough concurrent infers to
//! coalesce them and to saturate its worker; it bypasses wire, router,
//! store and obs.

use crate::load::{
    closed_loop, median_p50_p90, serve_open_loop, window_quantiles, windowed, Answer, Kind,
    Outcome, Phase, Planned,
};
use crate::probe::{self, Captured, ModelSpec};
use crate::report::{peak_rss_mb, Info, Metrics};
use crate::stats::{coarse_search, ladder, ladder_result, median, poisson_schedule, Probe};
use crate::trace::Tracer;
use crate::{Args, Counts};
use ofscil::prelude::*;
use std::time::Instant;

const TENANT: &str = "hot";
const SPEC: ModelSpec = ModelSpec {
    kind: BackboneKind::Micro,
    side: 8,
    d_p: 32,
};
const CLASSES: usize = 100;
const SHOTS: usize = 5;
const RATE: f64 = 4000.0;
const LIMIT_MS: f64 = 1.0;
const SETUPS: usize = 3;
const POOL: usize = 256;
/// Slices of each round's fixed-rate segment; the reported quantiles are
/// medians over every round's slices.
const WINDOWS: usize = 4;
/// Slices of each `slo_rps` probe.
const PROBE_WINDOWS: usize = 5;
/// Rounds the measured part of a run is split into (see [`measure`]).
const ROUNDS: usize = 12;
/// Ratio between neighbouring rungs of the `slo_rps` ladder.
const SLO_STEP: f64 = 1.08;
/// Infers an `slo_rps` probe lets wait at once before it stops and fails:
/// a probe that far behind is far past the limit, and stopping there keeps
/// an overloaded probe's queue, and with it `peak_rss_mb`, the same from
/// run to run.
const PROBE_IN_FLIGHT: usize = 128;

struct Inputs {
    model_seed: u64,
    support: Vec<Batch>,
    pool: Vec<Tensor>,
}

fn inputs(seed: u64) -> Result<Inputs, String> {
    let config = SyntheticConfig {
        image_size: SPEC.side,
        num_classes: CLASSES,
        ..Default::default()
    };
    let data = SyntheticCifar::new(config, seed);
    let support = (0..CLASSES)
        .map(|class| crate::support_batch(&data, class, 0, SHOTS))
        .collect::<Result<Vec<_>, _>>()?;
    let mut rng = SeedRng::new(seed ^ 0x6007);
    let pool = (0..POOL)
        .map(|k| {
            data.render(rng.below(CLASSES), 1000 + k, 1)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Inputs {
        model_seed: seed.wrapping_mul(7919).wrapping_add(1),
        support,
        pool,
    })
}

fn plan(rate: f64, seconds: f64, rng: &mut SeedRng) -> Vec<Planned> {
    poisson_schedule(rate, seconds, rng)
        .into_iter()
        .map(|due_ns| Planned {
            due_ns,
            kind: Kind::Infer,
            tenant: 0,
            item: rng.below(POOL),
        })
        .collect()
}

pub fn run(
    args: &Args,
    tracer: &Tracer,
    m: &mut Metrics,
    info: &mut Info,
) -> Result<Counts, String> {
    let inputs = inputs(args.seed)?;
    let mut setup_s = Vec::new();
    let mut counts = Counts::default();
    for round in 0..SETUPS {
        let start = Instant::now();
        let registry = LearnerRegistry::new();
        SPEC.register(&registry, TENANT, inputs.model_seed)?;
        let last = round + 1 == SETUPS;
        ServeRuntime::run(
            &registry,
            &ServeConfig::default(),
            |client| -> Result<(), String> {
                let (spent_before, _) = registry.energy_state(TENANT).map_err(|e| e.to_string())?;
                for (class, batch) in inputs.support.iter().enumerate() {
                    let response = client
                        .call(ServeRequest::LearnOnline {
                            deployment: TENANT.into(),
                            batch: batch.clone(),
                        })
                        .map_err(|e| format!("learn {class}: {e}"))?;
                    crate::check_learned(&Answer::from(&response), class)?;
                }
                let (spent_after, _) = registry.energy_state(TENANT).map_err(|e| e.to_string())?;
                m.set(
                    "mj_per_class",
                    (spent_after - spent_before) / CLASSES as f64,
                );
                let mut rng = SeedRng::new(args.seed ^ 0x3a3a);
                let warm = plan(RATE, 0.1, &mut rng);
                let warm_out = serve_open_loop(
                    client,
                    &warm,
                    usize::MAX,
                    |p| infer(&inputs, p),
                    &Tracer::new(false),
                    "load.request",
                    0,
                );
                counts.add(&warm_out);
                setup_s.push(start.elapsed().as_secs_f64());
                if last {
                    measure(
                        args,
                        &inputs,
                        &registry,
                        client,
                        tracer,
                        m,
                        info,
                        &mut counts,
                    )?;
                }
                Ok(())
            },
        )
        .map_err(|e| e.to_string())??;
    }
    m.set("setup_s", median(&setup_s));
    m.set("peak_rss_mb", peak_rss_mb());
    Ok(counts)
}

fn infer(inputs: &Inputs, planned: &Planned) -> ServeRequest {
    ServeRequest::Infer {
        deployment: TENANT.into(),
        image: inputs.pool[planned.item].clone(),
    }
}

/// Every served class of a pool image whose index is a multiple of 16 must
/// equal `OFscilModel::predict` on the frozen explicit memory.
fn check_predictions(
    registry: &LearnerRegistry,
    inputs: &Inputs,
    outcomes: &[Outcome],
) -> Result<(), String> {
    for outcome in outcomes {
        let served = match &outcome.response {
            Ok(Answer::Prediction { class }) => *class,
            other => return Err(format!("infer answered {other:?}")),
        };
        if outcome.planned.item % 16 != 0 {
            continue;
        }
        let image =
            Tensor::stack(&[&inputs.pool[outcome.planned.item]]).map_err(|e| e.to_string())?;
        let direct = registry
            .with_model(TENANT, |model| model.predict(&image))
            .map_err(|e| e.to_string())?
            .map_err(|e| e.to_string())?;
        if direct[0] != served {
            return Err(format!(
                "served class {served} but predict gives {}",
                direct[0]
            ));
        }
    }
    Ok(())
}

/// Closed-loop re-learns of the base classes from their own support sets
/// (`learn_p50_ms`, `learn_p90_ms`). Re-learning a class from the same
/// samples must leave the explicit memory bit-identical.
fn relearn(
    inputs: &Inputs,
    registry: &LearnerRegistry,
    client: &ServeClient,
    seconds: f64,
    first: usize,
) -> Result<Vec<Outcome>, String> {
    let before = registry.snapshot(TENANT).map_err(|e| e.to_string())?;
    let learns = closed_loop(
        client,
        seconds,
        20,
        first,
        Kind::Learn,
        &Tracer::new(false),
        |i| ServeRequest::LearnOnline {
            deployment: TENANT.into(),
            batch: inputs.support[i % CLASSES].clone(),
        },
    );
    for o in &learns {
        let answer = o.response.as_ref().map_err(|e| e.clone())?;
        let total = crate::check_learned(answer, o.planned.item % CLASSES)?;
        if total != CLASSES {
            return Err(format!("re-learn left {total} classes"));
        }
    }
    if registry.snapshot(TENANT).map_err(|e| e.to_string())? != before {
        return Err("re-learning identical support changed the explicit memory".into());
    }
    Ok(learns)
}

/// The measured part of a run, in `ROUNDS` short rounds so that every
/// figure samples the whole run: the machine's speed drifts in blocks of a
/// few seconds, and a figure taken from one contiguous block would carry
/// whichever state that block hit. Each round runs a fixed-rate segment
/// (plus a traced one in traced runs), a slice of re-learns, and one pass
/// over the `slo_rps` ladder; a rung passes when the median of its rounds'
/// p90 meets the limit.
#[allow(clippy::too_many_arguments)]
fn measure(
    args: &Args,
    inputs: &Inputs,
    registry: &LearnerRegistry,
    client: &ServeClient,
    tracer: &Tracer,
    m: &mut Metrics,
    info: &mut Info,
    counts: &mut Counts,
) -> Result<(), String> {
    let seconds = args.seconds as f64;
    let mut rng = SeedRng::new(args.seed);
    let untraced = Tracer::new(false);
    let energy = || {
        registry
            .energy_state(TENANT)
            .map(|(spent, _)| spent)
            .map_err(|e| e.to_string())
    };
    let run = |plan: &[Planned], max_in_flight: usize, tracer: &Tracer, first_id: u64| {
        serve_open_loop(
            client,
            plan,
            max_in_flight,
            |p| infer(inputs, p),
            tracer,
            "load.request",
            first_id,
        )
    };
    let rounds = ROUNDS as f64;

    // Coarse stage: ×1.5 steps from the fixed rate until a probe fails
    // twice in a row (a slow spell of the machine can fail one probe below
    // the knee, and would then cut the ladder short). The ladder reaches
    // ×1.59, past the first failing coarse rate.
    let rungs = if args.trace {
        Vec::new()
    } else {
        let coarse_s = 0.02 * seconds;
        let (lo, coarse) = coarse_search(RATE, 250.0, 1.5, 8, |rate| {
            (0..2).any(|_| {
                let probe = plan(rate, coarse_s, &mut rng);
                let out = run(&probe, PROBE_IN_FLIGHT, &untraced, 0);
                counts.add(&out);
                out.len() == probe.len()
                    && Phase::of(&out, coarse_s).meets(&out, PROBE_WINDOWS, LIMIT_MS)
            })
        });
        crate::report_probes(info, "slo_coarse", &coarse);
        ladder(lo, SLO_STEP, 6)
    };
    let rung_s = 0.33 * seconds / rounds / rungs.len().max(1) as f64;
    let fixed_s = if args.trace { 0.3 } else { 0.45 } * seconds / rounds;

    let mut fixed = Vec::new();
    let mut traced = Vec::new();
    let mut traced_plan = Vec::new();
    let mut learns = Vec::new();
    let mut rung_rounds: Vec<Vec<Phase>> = vec![Vec::new(); rungs.len()];
    let mut rung_p90: Vec<Vec<f64>> = vec![Vec::new(); rungs.len()];
    let (mut spent, mut served) = (0.0, 0);
    let mut traced_id = 0;
    let mut learned = 0;
    for round in 0..ROUNDS {
        let segment = plan(RATE, fixed_s, &mut rng);
        let before = energy()?;
        let out = run(&segment, usize::MAX, &untraced, 0);
        spent += energy()? - before;
        served += out.len();
        counts.add(&out);
        check_predictions(registry, inputs, &out)?;
        crate::report_phase(info, &format!("fixed{round}"), &Phase::of(&out, fixed_s));
        fixed.extend(window_quantiles(&out, Kind::Infer, WINDOWS));

        if args.trace {
            // The same fixed rate with spans on: the difference is the
            // tracing overhead.
            let segment = plan(RATE, fixed_s, &mut rng);
            let out = run(&segment, usize::MAX, tracer, traced_id);
                traced_id += out.len() as u64;
            counts.add(&out);
            check_predictions(registry, inputs, &out)?;
            crate::report_phase(info, &format!("traced{round}"), &Phase::of(&out, fixed_s));
            traced.extend(window_quantiles(&out, Kind::Infer, WINDOWS));
            if traced_plan.is_empty() {
                traced_plan = segment;
            }
        }

        let out = relearn(inputs, registry, client, 0.12 * seconds / rounds, learned)?;
        counts.add(&out);
        learned += out.len();
        learns.extend(window_quantiles(&out, Kind::Learn, 2));

        for (j, &rate) in rungs.iter().enumerate() {
            let probe = plan(rate, rung_s, &mut rng);
            let out = run(&probe, PROBE_IN_FLIGHT, &untraced, 0);
            counts.add(&out);
            let phase = Phase::of(&out, rung_s);
            rung_p90[j].push(match windowed(&out, Kind::Infer, PROBE_WINDOWS) {
                Some((_, p90)) if out.len() == probe.len() => p90,
                _ => f64::INFINITY,
            });
            rung_rounds[j].push(phase);
        }
    }
    let (p50, p90) = median_p50_p90(&fixed).ok_or("no infers")?;
    m.set("infer_p50_ms", p50);
    m.set("infer_p90_ms", p90);
    m.set("mj_per_infer", spent / served as f64);
    let (p50, p90) = median_p50_p90(&learns).ok_or("no learns")?;
    m.set("learn_p50_ms", p50);
    m.set("learn_p90_ms", p90);
    info.num("learn_count", learned as f64);

    if !args.trace {
        let pass: Vec<bool> = rung_rounds
            .iter()
            .zip(&rung_p90)
            .map(|(phases, p90)| {
                let tails: Vec<f64> = phases.iter().map(|p| p.tail_median_ms).collect();
                phases.iter().all(|p| p.failed == 0)
                    && median(p90) <= LIMIT_MS
                    && median(&tails) <= LIMIT_MS
            })
            .collect();
        let probes: Vec<Probe> = rungs
            .iter()
            .zip(&pass)
            .map(|(&rate, &pass)| Probe { rate, pass })
            .collect();
        crate::report_probes(info, "slo_ladder", &probes);
        m.set("slo_rps", ladder_result(&rungs, &pass, SLO_STEP));
        return Ok(());
    }
    let (untraced_p50, _) = median_p50_p90(&fixed).ok_or("no infers")?;
    let (traced_p50, _) = median_p50_p90(&traced).ok_or("no traced infers")?;
    crate::set_overhead(m, untraced_p50, traced_p50);

    let largest_batch = registry
        .stats(TENANT)
        .map_err(|e| e.to_string())?
        .largest_batch;
    let cap = Captured {
        tenant: TENANT.into(),
        model_seed: inputs.model_seed,
        infers: traced_plan
            .iter()
            .take(64)
            .map(|p| inputs.pool[p.item].clone())
            .collect(),
        learns: inputs.support.iter().take(8).cloned().collect(),
        batch_n: largest_batch.max(2),
    };
    probe::probe_single_tenant(&SPEC, &cap, registry, tracer, traced_id, m)
}
