//! `paper_session`: one `ServeRuntime` tenant built as the paper describes
//! (MobileNetV2 ×1, 32×32 inputs, d_p = 256, default `SyntheticCifar`). One
//! client runs a closed loop: single-class 5-shot `LearnOnline` calls, then
//! `Infer` calls, each sent when the previous one answered.
//!
//! Kernel-bound (a forward pass takes tens of milliseconds), so tensor and
//! nn work dominate and serving overhead vanishes; the only workload where
//! `mj_per_class` is the paper's headline number. With one waiting caller
//! there is no queue, so `slo_rps` here is the rate that caller achieves:
//! infers completed per second of infer time.
//!
//! The session runs in `ROUNDS` rounds of learns then infers, so every
//! figure samples the whole run rather than one block of it.

use crate::load::{closed_loop, median_p50_p90, window_quantiles, Answer, Kind, Outcome, Phase};
use crate::probe::{self, Captured, ModelSpec};
use crate::report::{peak_rss_mb, Info, Metrics};
use crate::stats::{median, Quantiles};
use crate::trace::Tracer;
use crate::{Args, Counts};
use ofscil::prelude::*;
use std::time::Instant;

const TENANT: &str = "paper";
const SPEC: ModelSpec = ModelSpec {
    kind: BackboneKind::MobileNetV2,
    side: 32,
    d_p: 256,
};
const SHOTS: usize = 5;
/// The class every setup learns to warm up (the session learns 0, 1, ...).
const WARM_CLASS: usize = 99;
const SETUPS: usize = 3;
const ROUNDS: usize = 3;
/// Queries are fresh renders of this many classes (learned or not: the
/// check compares against a replay, not against labels).
const QUERY_CLASSES: usize = 16;

fn model_seed(seed: u64) -> u64 {
    seed.wrapping_mul(7919).wrapping_add(7)
}

pub fn run(
    args: &Args,
    tracer: &Tracer,
    m: &mut Metrics,
    info: &mut Info,
) -> Result<Counts, String> {
    let data = SyntheticCifar::new(SyntheticConfig::default(), args.seed);
    let support = |class: usize| crate::support_batch(&data, class, 0, SHOTS);
    let query = |item: usize| {
        data.render(item % QUERY_CLASSES, 100 + item, 1)
            .map_err(|e| e.to_string())
    };
    let warm_batch = support(WARM_CLASS)?;
    let mut setup_s = Vec::new();
    // Set-up `round` builds its model and warm-up data from seed
    // `args.seed + SETUPS - 1 - round`, so the measured (last) session uses
    // `args.seed` and the first-learn debits compare sessions that differ
    // only in their seed.
    let setup_seed = |round: usize| args.seed.wrapping_add((SETUPS - 1 - round) as u64);
    let mut first_debits: Vec<f64> = Vec::new();
    let mut debits: Vec<f64> = Vec::new();
    let mut counts = Counts::default();
    for round in 0..SETUPS {
        let start = Instant::now();
        let last = round + 1 == SETUPS;
        let seed = setup_seed(round);
        let warm = if last {
            warm_batch.clone()
        } else {
            let data = SyntheticCifar::new(SyntheticConfig::default(), seed);
            crate::support_batch(&data, WARM_CLASS, 0, SHOTS)?
        };
        let registry = LearnerRegistry::new();
        SPEC.register(&registry, TENANT, model_seed(seed))?;
        ServeRuntime::run(
            &registry,
            &ServeConfig::default(),
            |client| -> Result<(), String> {
                let spent = || {
                    registry
                        .energy_state(TENANT)
                        .map(|(s, _)| s)
                        .map_err(|e| e.to_string())
                };
                // A fresh meter reads exactly 0, so after the first learn it
                // holds that learn's debit bit for bit.
                let response = client
                    .call(ServeRequest::LearnOnline {
                        deployment: TENANT.into(),
                        batch: warm,
                    })
                    .map_err(|e| e.to_string())?;
                crate::check_learned(&Answer::from(&response), WARM_CLASS)?;
                first_debits.push(spent()?);
                let image = data.render(WARM_CLASS, 100, 1).map_err(|e| e.to_string())?;
                client
                    .call(ServeRequest::Infer {
                        deployment: TENANT.into(),
                        image,
                    })
                    .map_err(|e| e.to_string())?;
                setup_s.push(start.elapsed().as_secs_f64());
                if !last {
                    return Ok(());
                }

                let seconds = args.seconds as f64;
                let rounds = ROUNDS as f64;
                let learn_s = if args.trace { 0.25 } else { 0.3 } * seconds / rounds;
                let infer_s = if args.trace { 0.25 } else { 0.6 } * seconds / rounds;
                let make = |item: usize| -> ServeRequest {
                    ServeRequest::Infer {
                        deployment: TENANT.into(),
                        image: query(item).expect("render of a valid class"),
                    }
                };
                let mut sessions: Vec<(Vec<Outcome>, Vec<Outcome>)> = Vec::new();
                let mut infer_windows = Vec::new();
                let mut traced_windows = Vec::new();
                let (mut learned, mut inferred, mut traced_count) = (0, 0, 0);
                let (mut infer_mj, mut infer_time) = (0.0, 0.0);
                for round in 0..ROUNDS {
                    // Learns of the next classes, one at a time, each debit
                    // read off the meter.
                    let mut learns = Vec::new();
                    let t0 = Instant::now();
                    while learns.is_empty() || t0.elapsed().as_secs_f64() < learn_s {
                        let class = learned + learns.len();
                        let batch = support(class)?;
                        let before = spent()?;
                        let out = closed_loop(
                            client,
                            0.0,
                            1,
                            class,
                            Kind::Learn,
                            &Tracer::new(false),
                            |_| ServeRequest::LearnOnline {
                                deployment: TENANT.into(),
                                batch: batch.clone(),
                            },
                        );
                        debits.push(spent()? - before);
                        learns.extend(out);
                    }
                    learned += learns.len();
                    counts.add(&learns);
                    for o in &learns {
                        let answer = o.response.as_ref().map_err(|e| e.clone())?;
                        crate::check_learned(answer, o.planned.item)?;
                    }

                    let before = spent()?;
                    let t_infer = Instant::now();
                    let untraced = Tracer::new(false);
                    let infers =
                        closed_loop(client, infer_s, 5, inferred, Kind::Infer, &untraced, make);
                    infer_time += t_infer.elapsed().as_secs_f64();
                    infer_mj += spent()? - before;
                    inferred += infers.len();
                    counts.add(&infers);
                    infer_windows.extend(window_quantiles(&infers, Kind::Infer, 4));
                    crate::report_phase(
                        info,
                        &format!("infer{round}"),
                        &Phase::of(&infers, infer_s),
                    );

                    if args.trace {
                        let first = 1_000_000 + traced_count;
                        let traced =
                            closed_loop(client, infer_s, 5, first, Kind::Infer, tracer, make);
                        traced_count += traced.len();
                        counts.add(&traced);
                        traced_windows.extend(window_quantiles(&traced, Kind::Infer, 4));
                    }
                    sessions.push((learns, infers));
                }

                let learn_ms: Vec<f64> = sessions
                    .iter()
                    .flat_map(|(learns, _)| learns.iter().map(Outcome::latency_ms))
                    .collect();
                let learn_q = Quantiles::of(&learn_ms).ok_or("no learns")?;
                let (infer_p50, infer_p90) = median_p50_p90(&infer_windows).ok_or("no infers")?;
                info.num("learn_count", learn_q.count as f64);
                m.set("learn_p50_ms", learn_q.p50);
                m.set("learn_p90_ms", learn_q.p90);
                m.set("infer_p50_ms", infer_p50);
                m.set("infer_p90_ms", infer_p90);
                m.set("slo_rps", inferred as f64 / infer_time);
                m.set("mj_per_infer", infer_mj / inferred as f64);
                check_replay(
                    args.seed,
                    &registry,
                    &warm_batch,
                    &support,
                    &query,
                    &sessions,
                )?;

                if args.trace {
                    let (traced_p50, _) =
                        median_p50_p90(&traced_windows).ok_or("no traced infers")?;
                    crate::set_overhead(m, infer_p50, traced_p50);
                    let cap = Captured {
                        tenant: TENANT.into(),
                        model_seed: model_seed(args.seed),
                        infers: (0..5).map(query).collect::<Result<_, _>>()?,
                        learns: (0..2).map(support).collect::<Result<_, _>>()?,
                        batch_n: SHOTS,
                    };
                    probe::probe_single_tenant(&SPEC, &cap, &registry, tracer, 2_000_000, m)?;
                }
                Ok(())
            },
        )
        .map_err(|e| e.to_string())??;
    }
    // The first learn of every fresh session must debit bit-identical
    // energy whatever the seed, and every later learn the same up to the
    // meter's float accumulation (read back as a difference of running
    // totals).
    let per_class = first_debits[0];
    if first_debits
        .iter()
        .any(|d| d.to_bits() != per_class.to_bits())
    {
        return Err(format!(
            "first-learn debits differ between sessions: {first_debits:?}"
        ));
    }
    if let Some(d) = debits.iter().find(|d| (*d / per_class - 1.0).abs() > 1e-9) {
        return Err(format!("a learn debited {d} mJ, the first {per_class} mJ"));
    }
    m.set("mj_per_class", per_class);
    info.text(
        "mj_per_class_bits",
        &format!("{:#018x}", per_class.to_bits()),
    );
    m.set("setup_s", median(&setup_s));
    m.set("peak_rss_mb", peak_rss_mb());
    Ok(counts)
}

/// Served predictions must equal a direct-model replay: the same model
/// seed, the same learns in the same order, with `predict` on every eighth
/// infer's image at the point of the session where it was served. The
/// served explicit memory must equal the replay's at the end.
fn check_replay(
    seed: u64,
    registry: &LearnerRegistry,
    warm_batch: &Batch,
    support: &dyn Fn(usize) -> Result<Batch, String>,
    query: &dyn Fn(usize) -> Result<Tensor, String>,
    rounds: &[(Vec<Outcome>, Vec<Outcome>)],
) -> Result<(), String> {
    let mut direct = SPEC.build(model_seed(seed));
    direct
        .learn_classes_online(warm_batch)
        .map_err(|e| e.to_string())?;
    for (learns, infers) in rounds {
        for o in learns {
            direct
                .learn_classes_online(&support(o.planned.item)?)
                .map_err(|e| e.to_string())?;
        }
        for o in infers.iter().step_by(8) {
            let class = match &o.response {
                Ok(Answer::Prediction { class }) => *class,
                other => return Err(format!("infer answered {other:?}")),
            };
            let image = Tensor::stack(&[&query(o.planned.item)?]).map_err(|e| e.to_string())?;
            let replayed = direct.predict(&image).map_err(|e| e.to_string())?[0];
            if replayed != class {
                return Err(format!(
                    "infer {} served class {class}, replay predicts {replayed}",
                    o.planned.item
                ));
            }
        }
    }
    let served = registry.snapshot(TENANT).map_err(|e| e.to_string())?;
    if served != encode_explicit_memory(direct.em()) {
        return Err("served explicit memory differs from the direct replay".into());
    }
    Ok(())
}
