//! `cluster_mixed`: a `RouterServer` over two durable, observed shards
//! (`ShardProcess::spawn_durable_observed`, each with its own `Store` under
//! the working directory and its own `Obs`). 16 micro tenants start with 60
//! base classes each; Zipf(1.0) tenant popularity; 80% `Infer`, 20%
//! `LearnOnline` of one new class × 5 shots, drawn from the remaining 40
//! classes and re-learned after 100, so every explicit memory stays at
//! 60–100 classes. Two sender threads, one connection each, on a Poisson
//! schedule totalling 200 rps: every 64th learn of a tenant checkpoints
//! inline and stalls the learn path for tens of milliseconds on a real
//! disk, which at higher rates decides the tail (see the benchmark's
//! README). Latency limit: p90 at most 2 ms for both kinds.
//!
//! This is the deployed path with reads beside writes: with at most two
//! requests in flight coalescing does nothing, while wire, router, WAL
//! journaling and obs sinks do most of the non-model work.

use crate::load::{windowed, wire_open_loop, Answer, Kind, Outcome, Phase, Planned};
use crate::probe::{self, Captured, ModelSpec, Stack};
use crate::report::{peak_rss_mb, Info, Metrics};
use crate::stats::{coarse_search, ladder, ladder_result, median, poisson_schedule, Probe};
use crate::trace::Tracer;
use crate::{Args, Counts};
use ofscil::prelude::*;
use ofscil::router::harness::ShardProcess;
use ofscil_simbench::samplers::Zipfian;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const SPEC: ModelSpec = ModelSpec {
    kind: BackboneKind::Micro,
    side: 8,
    d_p: 32,
};
const TENANTS: usize = 16;
const SHARDS: usize = 2;
const BASE: usize = 60;
const CLASSES: usize = 100;
const SHOTS: usize = 5;
/// Support-set variants per new class: the k-th re-learn of a class uses
/// variant `k % VARIANTS`.
const VARIANTS: usize = 3;
const RATE: f64 = 200.0;
const LEARN_SHARE: f32 = 0.2;
const LIMIT_MS: f64 = 2.0;
const SETUPS: usize = 3;
const POOL: usize = 256;
/// Slices of a fixed-rate phase whose quantiles are reported as medians.
const WINDOWS: usize = 8;
/// Slices of each `slo_rps` probe.
const PROBE_WINDOWS: usize = 5;
/// Ratio between neighbouring rungs of the `slo_rps` ladder.
const SLO_STEP: f64 = 1.08;

fn tenant_name(t: usize) -> String {
    format!("tenant-{t:02}")
}

struct Inputs {
    seed: u64,
    base: Batch,
    /// `(class - BASE) * VARIANTS + variant` → support batch.
    support: Vec<Batch>,
    pool: Vec<Tensor>,
}

impl Inputs {
    fn model_seed(&self, tenant: usize) -> u64 {
        self.seed
            .wrapping_mul(7919)
            .wrapping_add(100 + tenant as u64)
    }
}

fn inputs(seed: u64) -> Result<Inputs, String> {
    let config = SyntheticConfig {
        image_size: SPEC.side,
        num_classes: CLASSES,
        ..Default::default()
    };
    let data = SyntheticCifar::new(config, seed);
    let mut base_images = Vec::new();
    let mut labels = Vec::new();
    for c in 0..BASE {
        for s in 0..SHOTS {
            base_images.push(data.render(c, s, 0).map_err(|e| e.to_string())?);
            labels.push(c);
        }
    }
    let refs: Vec<&Tensor> = base_images.iter().collect();
    let base = Batch {
        images: Tensor::stack(&refs).map_err(|e| e.to_string())?,
        labels,
    };
    let mut support = Vec::new();
    for class in BASE..CLASSES {
        for variant in 0..VARIANTS {
            support.push(crate::support_batch(
                &data,
                class,
                10 * (variant + 1),
                SHOTS,
            )?);
        }
    }
    let mut rng = SeedRng::new(seed ^ 0x6007);
    let pool = (0..POOL)
        .map(|k| {
            data.render(rng.below(CLASSES), 1000 + k, 1)
                .map_err(|e| e.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Inputs {
        seed,
        base,
        support,
        pool,
    })
}

/// The request stream: a pure function of the seed and of how many
/// requests were drawn before (per-tenant learn counters persist across
/// phases so classes keep cycling).
struct Generator {
    rng: SeedRng,
    zipf: Zipfian,
    learned: [usize; TENANTS],
}

impl Generator {
    fn new(seed: u64) -> Generator {
        Generator {
            rng: SeedRng::new(seed),
            zipf: Zipfian::new(TENANTS, 1.0),
            learned: [0; TENANTS],
        }
    }

    fn next_learn(&mut self, tenant: usize) -> usize {
        let k = self.learned[tenant];
        self.learned[tenant] += 1;
        let class_offset = k % (CLASSES - BASE);
        let variant = (k / (CLASSES - BASE)) % VARIANTS;
        class_offset * VARIANTS + variant
    }

    fn plan(&mut self, rate: f64, seconds: f64) -> Vec<Planned> {
        poisson_schedule(rate, seconds, &mut self.rng)
            .into_iter()
            .map(|due_ns| {
                let tenant = self.zipf.sample(&mut self.rng);
                if self.rng.uniform() < LEARN_SHARE {
                    Planned {
                        due_ns,
                        kind: Kind::Learn,
                        tenant,
                        item: self.next_learn(tenant),
                    }
                } else {
                    Planned {
                        due_ns,
                        kind: Kind::Infer,
                        tenant,
                        item: self.rng.below(POOL),
                    }
                }
            })
            .collect()
    }
}

fn request(inputs: &Inputs, p: &Planned) -> ServeRequest {
    let deployment = tenant_name(p.tenant);
    match p.kind {
        Kind::Infer => ServeRequest::Infer {
            deployment,
            image: inputs.pool[p.item].clone(),
        },
        Kind::Learn => ServeRequest::LearnOnline {
            deployment,
            batch: inputs.support[p.item].clone(),
        },
    }
}

/// Every infer answered with a prediction, every learn with exactly its
/// class and a memory of 61–100 classes.
fn check_outcomes(outcomes: &[Outcome]) -> Result<(), String> {
    for o in outcomes {
        let Ok(response) = &o.response else { continue };
        match o.planned.kind {
            Kind::Infer => {
                if !matches!(response, Answer::Prediction { .. }) {
                    return Err(format!("infer answered {response:?}"));
                }
            }
            Kind::Learn => {
                let total = crate::check_learned(response, BASE + o.planned.item / VARIANTS)?;
                if !(BASE < total && total <= CLASSES) {
                    return Err(format!("explicit memory holds {total} classes"));
                }
            }
        }
    }
    Ok(())
}

/// One booted cluster: shard registries, directories and processes.
struct Cluster {
    registries: Vec<Arc<LearnerRegistry>>,
    dirs: Vec<PathBuf>,
    shards: Vec<ShardProcess>,
}

fn boot(inputs: &Inputs, root: &Path) -> Result<Cluster, String> {
    let mut cluster = Cluster {
        registries: Vec::new(),
        dirs: Vec::new(),
        shards: Vec::new(),
    };
    for j in 0..SHARDS {
        let registry = Arc::new(LearnerRegistry::new());
        for t in 0..TENANTS {
            let name = tenant_name(t);
            SPEC.register(&registry, &name, inputs.model_seed(t))?;
            registry
                .with_model(&name, |model| model.learn_classes_online(&inputs.base))
                .map_err(|e| e.to_string())?
                .map_err(|e| e.to_string())?;
        }
        let dir = root.join(format!("shard{j}"));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).map_err(|e| e.to_string())?;
        store.bootstrap(&registry).map_err(|e| e.to_string())?;
        let shard = ShardProcess::spawn_durable_observed(
            Arc::clone(&registry),
            WireConfig::tcp_loopback(),
            Some(store),
            Some(Obs::new(ObsConfig::default())),
        )
        .map_err(|e| e.to_string())?;
        cluster.registries.push(registry);
        cluster.dirs.push(dir);
        cluster.shards.push(shard);
    }
    Ok(cluster)
}

fn call(client: &mut WireClient, request: ServeRequest) -> Result<ServeResponse, String> {
    client.call(request).map_err(|e| e.to_string())
}

fn total_spent(admin: &mut WireClient) -> Result<f64, String> {
    let mut spent = 0.0;
    for t in 0..TENANTS {
        match call(
            admin,
            ServeRequest::Stats {
                deployment: tenant_name(t),
            },
        )? {
            ServeResponse::Stats(stats) => spent += stats.energy_spent_mj,
            other => return Err(format!("stats answered {other:?}")),
        }
    }
    Ok(spent)
}

pub fn run(
    args: &Args,
    tracer: &Tracer,
    m: &mut Metrics,
    info: &mut Info,
) -> Result<Counts, String> {
    let inputs = inputs(args.seed)?;
    let senders = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    info.num("senders", senders as f64);
    let root = crate::out_dir().join(format!("cluster-{}", std::process::id()));
    let mut setup_s = Vec::new();
    let mut counts = Counts::default();
    let mut gen = Generator::new(args.seed);
    let names: Vec<String> = (0..TENANTS).map(tenant_name).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let result = (|| -> Result<(), String> {
        for round in 0..SETUPS {
            let start = Instant::now();
            let cluster = boot(&inputs, &root.join(format!("round{round}")))?;
            let config = RouterConfig::tcp_loopback(
                cluster.shards.iter().map(|s| s.addr().clone()).collect(),
            )
            .with_deployments(&name_refs);
            let last = round + 1 == SETUPS;
            let served =
                RouterServer::run(&config, |router| -> Result<Vec<(usize, Vec<u8>)>, String> {
                    let mut admin =
                        WireClient::connect(router.addr()).map_err(|e| e.to_string())?;
                    // One lone learn prices a class: every learn is 5 shots on
                    // the same backbone, so every learn costs the same.
                    let before = total_spent(&mut admin)?;
                    let item = gen.next_learn(0);
                    let response = call(
                        &mut admin,
                        ServeRequest::LearnOnline {
                            deployment: tenant_name(0),
                            batch: inputs.support[item].clone(),
                        },
                    )?;
                    crate::check_learned(&Answer::from(&response), BASE + item / VARIANTS)?;
                    let mj_per_class = total_spent(&mut admin)? - before;
                    m.set("mj_per_class", mj_per_class);
                    let warm = gen.plan(RATE, 0.3);
                    let warm_out = wire_open_loop(
                        router.addr(),
                        senders,
                        &warm,
                        &|p| request(&inputs, p),
                        &Tracer::new(false),
                        "load.request",
                        0,
                    )?;
                    counts.add(&warm_out);
                    check_outcomes(&warm_out)?;
                    setup_s.push(start.elapsed().as_secs_f64());
                    if !last {
                        return Ok(Vec::new());
                    }
                    measure(
                        args,
                        &inputs,
                        &cluster,
                        router,
                        &mut gen,
                        senders,
                        mj_per_class,
                        tracer,
                        m,
                        info,
                        &mut counts,
                    )?;
                    // The snapshots the router serves, with each tenant's owner.
                    (0..TENANTS)
                        .map(|t| {
                            let owner = router
                                .shard_for(&tenant_name(t))
                                .map_err(|e| e.to_string())?;
                            match call(
                                &mut admin,
                                ServeRequest::Snapshot {
                                    deployment: tenant_name(t),
                                },
                            )? {
                                ServeResponse::Snapshot { bytes } => Ok((owner, bytes)),
                                other => Err(format!("snapshot answered {other:?}")),
                            }
                        })
                        .collect()
                })
                .map_err(|e| e.to_string())??;
            let Cluster { dirs, shards, .. } = cluster;
            for shard in shards {
                shard.stop();
            }
            if last {
                check_recovery(&inputs, &dirs, &served, m)?;
            }
            for dir in &dirs {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&root);
    result?;
    m.set("setup_s", median(&setup_s));
    m.set("peak_rss_mb", peak_rss_mb());
    Ok(counts)
}

/// Each tenant's router-served snapshot must equal a `Store::recover` of
/// its owner shard's directory, bit-exactly. Also times the recoveries
/// (`store.recover_ms`, the median over shard directories).
fn check_recovery(
    inputs: &Inputs,
    dirs: &[PathBuf],
    served: &[(usize, Vec<u8>)],
    m: &mut Metrics,
) -> Result<(), String> {
    let mut recover_ms = Vec::new();
    for (j, dir) in dirs.iter().enumerate() {
        let registry = LearnerRegistry::new();
        for t in 0..TENANTS {
            SPEC.register(&registry, &tenant_name(t), inputs.model_seed(t))?;
        }
        let start = Instant::now();
        let store = Store::open(dir).map_err(|e| e.to_string())?;
        store.recover(&registry).map_err(|e| e.to_string())?;
        recover_ms.push(start.elapsed().as_secs_f64() * 1e3);
        for (t, (owner, bytes)) in served.iter().enumerate() {
            if *owner != j {
                continue;
            }
            let recovered = registry
                .snapshot(&tenant_name(t))
                .map_err(|e| e.to_string())?;
            if &recovered != bytes {
                return Err(format!(
                    "{} recovered from shard {j} differs from the served snapshot",
                    tenant_name(t)
                ));
            }
        }
    }
    if served.len() != TENANTS {
        return Err("missing served snapshots".into());
    }
    m.set("store.recover_ms", median(&recover_ms));
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn measure(
    args: &Args,
    inputs: &Inputs,
    cluster: &Cluster,
    router: &RouterHandle<'_>,
    gen: &mut Generator,
    senders: usize,
    mj_per_class: f64,
    tracer: &Tracer,
    m: &mut Metrics,
    info: &mut Info,
    counts: &mut Counts,
) -> Result<(), String> {
    let seconds = args.seconds as f64;
    let untraced = Tracer::new(false);
    let mut admin = WireClient::connect(router.addr()).map_err(|e| e.to_string())?;
    let make = |p: &Planned| request(inputs, p);
    let fixed_s = if args.trace {
        0.3 * seconds
    } else {
        0.4 * seconds
    };
    let fixed = gen.plan(RATE, fixed_s);
    let before = total_spent(&mut admin)?;
    let outcomes = wire_open_loop(
        router.addr(),
        senders,
        &fixed,
        &make,
        &untraced,
        "load.request",
        0,
    )?;
    let spent = total_spent(&mut admin)? - before;
    counts.add(&outcomes);
    check_outcomes(&outcomes)?;
    let phase = Phase::of(&outcomes, fixed_s);
    crate::report_phase(info, "fixed", &phase);
    let (infer, learn) = (
        phase.infer.ok_or("no infers")?,
        phase.learn.ok_or("no learns")?,
    );
    for (kind, p50_name, p90_name) in [
        (Kind::Infer, "infer_p50_ms", "infer_p90_ms"),
        (Kind::Learn, "learn_p50_ms", "learn_p90_ms"),
    ] {
        let (p50, p90) = windowed(&outcomes, kind, WINDOWS).ok_or("too few requests per window")?;
        m.set(p50_name, p50);
        m.set(p90_name, p90);
    }
    m.set(
        "mj_per_infer",
        (spent - learn.count as f64 * mj_per_class) / infer.count as f64,
    );

    if !args.trace {
        // Coarse ×1.5 steps from the fixed rate, then one pass over a
        // ladder of rungs `SLO_STEP` apart.
        let probe_s = 0.6 * seconds / 12.0;
        let mut failure = None;
        let mut probe = |rate: f64| {
            let plan = gen.plan(rate, probe_s);
            match wire_open_loop(
                router.addr(),
                senders,
                &plan,
                &make,
                &untraced,
                "load.request",
                0,
            ) {
                Ok(outcomes) => {
                    counts.add(&outcomes);
                    if let Err(e) = check_outcomes(&outcomes) {
                        failure.get_or_insert(e);
                    }
                    Phase::of(&outcomes, probe_s).meets(&outcomes, PROBE_WINDOWS, LIMIT_MS)
                }
                Err(e) => {
                    failure.get_or_insert(e);
                    false
                }
            }
        };
        let (lo, coarse) = coarse_search(RATE, 25.0, 1.5, 5, &mut probe);
        let rungs = ladder(lo, SLO_STEP, 6);
        let pass: Vec<bool> = rungs.iter().map(|&rate| probe(rate)).collect();
        if let Some(e) = failure {
            return Err(e);
        }
        m.set("slo_rps", ladder_result(&rungs, &pass, SLO_STEP));
        crate::report_probes(info, "slo_coarse", &coarse);
        let probes: Vec<Probe> = rungs
            .iter()
            .zip(&pass)
            .map(|(&rate, &pass)| Probe { rate, pass })
            .collect();
        crate::report_probes(info, "slo_ladder", &probes);
        return Ok(());
    }

    let traced_plan = gen.plan(RATE, fixed_s);
    let traced = wire_open_loop(
        router.addr(),
        senders,
        &traced_plan,
        &make,
        tracer,
        "load.request",
        0,
    )?;
    counts.add(&traced);
    check_outcomes(&traced)?;
    let traced_phase = Phase::of(&traced, fixed_s);
    crate::report_phase(info, "traced", &traced_phase);
    let untraced_p50 = phase.infer.ok_or("no infers")?.p50;
    let traced_p50 = traced_phase.infer.ok_or("no traced infers")?.p50;
    crate::set_overhead(m, untraced_p50, traced_p50);

    let slices = router.cluster_stats();
    let all: Vec<&DeploymentStats> = slices.iter().flat_map(|s| &s.deployments).collect();
    let sum = |f: &dyn Fn(&DeploymentStats) -> u64| all.iter().map(|d| f(d)).sum::<u64>() as f64;
    m.set(
        "serve.mean_batch",
        sum(&|d| d.infer_requests) / sum(&|d| d.infer_batches).max(1.0),
    );
    m.set(
        "serve.largest_batch",
        all.iter().map(|d| d.largest_batch).max().unwrap_or(0) as f64,
    );
    m.set("serve.refused", sum(&|d| d.rejected()));
    let durable =
        |f: &dyn Fn(&DurabilityStats) -> u64| sum(&|d| d.durability.as_ref().map_or(0, f));
    let share: Vec<f64> = slices
        .iter()
        .map(|s| {
            s.deployments
                .iter()
                .map(|d| d.infer_requests + d.learn_requests)
                .sum::<u64>() as f64
        })
        .collect();
    m.set(
        "router.max_shard_share",
        share.iter().cloned().fold(0.0, f64::max) / share.iter().sum::<f64>(),
    );
    m.set(
        "obs.events",
        slices.iter().map(|s| s.obs_events).sum::<u64>() as f64,
    );
    m.set(
        "obs.dropped",
        slices.iter().map(|s| s.obs_dropped).sum::<u64>() as f64,
    );

    let hot = tenant_name(0);
    let owner = router.shard_for(&hot).map_err(|e| e.to_string())?;
    let cap = Captured {
        tenant: hot,
        model_seed: inputs.model_seed(0),
        infers: traced_plan
            .iter()
            .filter(|p| p.kind == Kind::Infer)
            .take(64)
            .map(|p| inputs.pool[p.item].clone())
            .collect(),
        learns: traced_plan
            .iter()
            .filter(|p| p.kind == Kind::Learn)
            .take(8)
            .map(|p| inputs.support[p.item].clone())
            .collect(),
        batch_n: SHOTS,
    };
    let stack = Stack {
        router,
        shard: cluster.shards[owner].addr().clone(),
        registry: &cluster.registries[owner],
    };
    let scratch = cluster.dirs[owner].with_file_name("probe-scratch");
    probe::probe_layers(
        &stack,
        &SPEC,
        &cap,
        &scratch,
        tracer,
        traced.len() as u64,
        m,
    )?;
    // The deployed store's own figures replace the scratch store's.
    m.set(
        "store.wal_bytes_per_learn",
        durable(&|d| d.wal_bytes) / durable(&|d| d.wal_records).max(1.0),
    );
    m.set("store.compactions", durable(&|d| d.compactions));
    probe::gap9_metrics(&SPEC, inputs.model_seed(0), m)
}
