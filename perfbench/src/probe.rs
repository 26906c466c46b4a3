//! The traced run's probe phase: a workload's captured inputs are replayed
//! one at a time into each layer's entry point, top (router) to bottom
//! (tensor), with one span per call and a shared request id, so a layer's
//! self time is its span minus the span of the layer beneath it.

use crate::report::Metrics;
use crate::stats::median;
use crate::trace::{median_self_us, median_us, Tracer};
use ofscil::gap9::{deploy_backbone, Gap9Executor};
use ofscil::nn::models::{mobilenet_v2, MobileNetVariant};
use ofscil::prelude::*;
use ofscil::router::harness::ShardProcess;
use ofscil::wire::codec::{decode_response, encode_request, encode_response};
use ofscil::wire::frame::parse_frame;
use ofscil::wire::{WireRequest, WireResponse, DEFAULT_MAX_PAYLOAD};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// How a workload's tenants are built: the same spec and seed always give
/// the same weights, so any process can rebuild a tenant bit-exactly.
#[derive(Debug, Clone, Copy)]
pub struct ModelSpec {
    pub kind: BackboneKind,
    pub side: usize,
    pub d_p: usize,
}

impl ModelSpec {
    pub fn build(&self, seed: u64) -> OFscilModel {
        OFscilModel::new(self.kind, self.d_p, &mut SeedRng::new(seed))
    }

    pub fn register(
        &self,
        registry: &LearnerRegistry,
        name: &str,
        seed: u64,
    ) -> Result<(), String> {
        registry
            .register(
                DeploymentSpec::new(name, (self.side, self.side)),
                self.build(seed),
            )
            .map_err(|e| format!("register {name}: {e}"))
    }
}

/// Inputs a workload captured for replay.
pub struct Captured {
    pub tenant: String,
    pub model_seed: u64,
    pub infers: Vec<Tensor>,
    pub learns: Vec<Batch>,
    /// Batch size of the `nn.backbone_bN_us` probe.
    pub batch_n: usize,
}

/// The entry points of one serving stack.
pub struct Stack<'a, 'r> {
    pub router: &'a RouterHandle<'r>,
    /// The wire address of the shard that owns the probed tenant.
    pub shard: BoundAddr,
    /// That shard's registry.
    pub registry: &'a LearnerRegistry,
}

fn elapsed_us(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / 1e3
}

/// Median time of one call to `f`, in µs, over enough repetitions to fill
/// about `budget_us` (at least 16).
fn repeat_median_us(budget_us: f64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    let first = elapsed_us(start).max(0.01);
    let reps = ((budget_us / first) as usize).clamp(16, 5000);
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            elapsed_us(start)
        })
        .collect();
    median(&times)
}

/// `core.extract` (`nn.backbone_b1` then `core.fcr` beneath it) and
/// `core.classify` on one image, under the deployment's model lock.
fn core_classify(
    model: &mut OFscilModel,
    batch: &Tensor,
    tracer: &Tracer,
    id: u64,
    root: u64,
) -> Result<usize, String> {
    let theta_p = tracer.span(
        "core.extract",
        id,
        Some(root),
        |extract| -> Result<Tensor, String> {
            let theta_a = tracer
                .span("nn.backbone_b1", id, Some(extract), |_| {
                    model.backbone_mut().forward(batch, Mode::Eval)
                })
                .map_err(|e| e.to_string())?;
            tracer
                .span("core.fcr", id, Some(extract), |_| {
                    model.fcr_mut().forward(&theta_a, Mode::Eval)
                })
                .map_err(|e| e.to_string())
        },
    )?;
    let (class, _) = tracer
        .span("core.classify", id, Some(root), |_| {
            model.em().classify(theta_p.as_slice())
        })
        .map_err(|e| e.to_string())?;
    Ok(class)
}

fn predicted(response: &ServeResponse) -> Result<usize, String> {
    match response {
        ServeResponse::Prediction { class, .. } => Ok(*class),
        other => Err(format!("expected a prediction, got {other:?}")),
    }
}

/// Replays every captured input through router, wire, serve, core, nn and
/// tensor, plus the store's journal / checkpoint / recovery on a scratch
/// store in `scratch_dir`, and sets the per-layer call and self times.
#[allow(clippy::too_many_arguments)]
pub fn probe_layers(
    stack: &Stack<'_, '_>,
    spec: &ModelSpec,
    cap: &Captured,
    scratch_dir: &Path,
    tracer: &Tracer,
    first_id: u64,
    m: &mut Metrics,
) -> Result<(), String> {
    let tenant = cap.tenant.as_str();
    let mut router = WireClient::connect(stack.router.addr()).map_err(|e| e.to_string())?;
    let mut shard = WireClient::connect(&stack.shard).map_err(|e| e.to_string())?;
    let mut encode_us = Vec::new();
    let mut decode_us = Vec::new();
    let mut req_bytes = 0.0;
    let mut resp_bytes = 0.0;
    let serve_config = ServeConfig::default();
    ServeRuntime::run(
        stack.registry,
        &serve_config,
        |client| -> Result<(), String> {
            for (i, image) in cap.infers.iter().enumerate() {
                let id = first_id + i as u64;
                let request = ServeRequest::Infer {
                    deployment: tenant.into(),
                    image: image.clone(),
                };
                let batch = Tensor::stack(&[image]).map_err(|e| e.to_string())?;
                let root = tracer.begin("probe.request", id, None);
                let mut served = Vec::with_capacity(3);
                let mut via_core = None;
                // Rotating the order cancels the advantage of going second
                // (warm caches, threads just woken) from the self times.
                for step in 0..4 {
                    match (i + step) % 4 {
                        0 => served.push(tracer.span("router.call", id, Some(root), |_| {
                            router
                                .call(request.clone())
                                .map_err(|e| format!("router probe: {e}"))
                        })),
                        1 => served.push(tracer.span("wire.call", id, Some(root), |_| {
                            shard
                                .call(request.clone())
                                .map_err(|e| format!("wire probe: {e}"))
                        })),
                        2 => served.push(tracer.span("serve.call", id, Some(root), |_| {
                            client
                                .call(request.clone())
                                .map_err(|e| format!("serve probe: {e}"))
                        })),
                        _ => {
                            via_core = Some(
                                stack
                                    .registry
                                    .with_model(tenant, |model| {
                                        core_classify(model, &batch, tracer, id, root)
                                    })
                                    .map_err(|e| e.to_string())??,
                            )
                        }
                    }
                }
                tracer.end(root);
                let via_core = via_core.ok_or("core probe skipped")?;
                let served = served.into_iter().collect::<Result<Vec<_>, String>>()?;
                for response in &served {
                    if predicted(response)? != via_core {
                        return Err(format!(
                            "layers disagree on request {id}: {response:?} vs core {via_core}"
                        ));
                    }
                }
                let served = served.into_iter().next().ok_or("no served response")?;

                let wire_request = WireRequest::Serve(request);
                let frame = encode_request(&wire_request);
                req_bytes = frame.len() as f64;
                encode_us.push(repeat_median_us(200.0, || {
                    std::hint::black_box(encode_request(std::hint::black_box(&wire_request)));
                }));
                let response = encode_response(&WireResponse::Serve(served));
                resp_bytes = response.len() as f64;
                let (kind, payload) =
                    parse_frame(&response, DEFAULT_MAX_PAYLOAD).map_err(|e| e.to_string())?;
                decode_us.push(repeat_median_us(200.0, || {
                    std::hint::black_box(
                        decode_response(kind, std::hint::black_box(payload)).is_ok(),
                    );
                }));
            }
            Ok(())
        },
    )
    .map_err(|e| e.to_string())??;

    let spans = tracer.spans();
    let need = |name: &str| median_us(&spans, name).ok_or_else(|| format!("no {name} spans"));
    m.set("router.call_us", need("router.call")?);
    m.set("wire.call_us", need("wire.call")?);
    m.set("serve.call_us", need("serve.call")?);
    m.set("core.extract_us", need("core.extract")?);
    m.set("core.fcr_us", need("core.fcr")?);
    m.set("core.classify_us", need("core.classify")?);
    let b1 = need("nn.backbone_b1")?;
    m.set("nn.backbone_b1_us", b1);
    let self_of =
        |outer: &str| median_self_us(&spans, outer).ok_or_else(|| format!("no {outer} self time"));
    m.set("router.self_us", self_of("router.call")?);
    m.set("wire.self_us", self_of("wire.call")?);
    m.set("serve.self_us", self_of("serve.call")?);
    m.set("wire.encode_us", median(&encode_us));
    m.set("wire.decode_us", median(&decode_us));
    m.set("wire.req_bytes", req_bytes);
    m.set("wire.resp_bytes", resp_bytes);

    let start = Instant::now();
    let timeline = stack.router.obs_query(&ObsQuery::all());
    m.set("obs.query_ms", elapsed_us(start) / 1e3);
    std::hint::black_box(timeline.events.len());

    // nn: one batch of `batch_n` captured images, and the kernel rate.
    let mut model = spec.build(cap.model_seed);
    let n = cap.batch_n.max(1);
    let images: Vec<&Tensor> = cap.infers.iter().cycle().take(n).collect();
    let batch = Tensor::stack(&images).map_err(|e| e.to_string())?;
    let mut bn = Vec::new();
    for rep in 0..3 {
        let span = tracer.begin("nn.backbone_bN", first_id + rep, None);
        model
            .backbone_mut()
            .forward(&batch, Mode::Eval)
            .map_err(|e| e.to_string())?;
        tracer.end(span);
        bn.push(tracer.duration_us(span));
    }
    let bn = median(&bn);
    m.set("nn.backbone_bN_us", bn);
    m.set("nn.batch_amortization", n as f64 * b1 / bn);
    let macs = model.backbone().macs(spec.side, spec.side) as f64;
    m.set("nn.backbone_gmacs", macs / (b1 * 1e3));

    // tensor: the FCR-shaped product of one sample, [1, d_a] × [d_a, d_p].
    let d_a = model.backbone().feature_dim;
    let mut rng = SeedRng::new(cap.model_seed ^ 0x5eed);
    let lhs = Tensor::from_vec((0..d_a).map(|_| rng.normal()).collect(), &[1, d_a])
        .map_err(|e| e.to_string())?;
    let rhs = Tensor::from_vec(
        (0..d_a * spec.d_p).map(|_| rng.normal()).collect(),
        &[d_a, spec.d_p],
    )
    .map_err(|e| e.to_string())?;
    let matmul_us = repeat_median_us(20_000.0, || {
        std::hint::black_box(lhs.matmul(std::hint::black_box(&rhs)).is_ok());
    });
    m.set("tensor.matmul_us", matmul_us);
    m.set(
        "tensor.matmul_gmacs",
        (d_a * spec.d_p) as f64 / (matmul_us * 1e3),
    );

    probe_learns(spec, cap, &mut model, scratch_dir, tracer, first_id, m)
}

/// `core.learn_us` on a standalone model, then the resulting commits
/// journaled into a scratch store: `store.journal_us`, `store.checkpoint_ms`
/// and `store.recover_ms` (reopen + recover of that directory).
fn probe_learns(
    spec: &ModelSpec,
    cap: &Captured,
    model: &mut OFscilModel,
    scratch_dir: &Path,
    tracer: &Tracer,
    first_id: u64,
    m: &mut Metrics,
) -> Result<(), String> {
    let tenant = cap.tenant.as_str();
    let _ = std::fs::remove_dir_all(scratch_dir);
    let registry = LearnerRegistry::new();
    spec.register(&registry, tenant, cap.model_seed)?;
    let store = Store::open(scratch_dir).map_err(|e| e.to_string())?;
    store.bootstrap(&registry).map_err(|e| e.to_string())?;
    let mut learn_us = Vec::new();
    let mut journal_us = Vec::new();
    for (j, batch) in cap.learns.iter().enumerate() {
        let id = first_id + j as u64;
        let span = tracer.begin("core.learn", id, None);
        model
            .learn_classes_online(batch)
            .map_err(|e| e.to_string())?;
        tracer.end(span);
        learn_us.push(tracer.duration_us(span));
        let mut classes = batch.labels.clone();
        classes.sort_unstable();
        classes.dedup();
        let updates = classes
            .iter()
            .map(|&c| {
                model
                    .em()
                    .prototype(c)
                    .map(|p| (c, p.to_vec()))
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let commit = LearnCommit {
            deployment: tenant.into(),
            seq: j as u64 + 1,
            updates,
            total_classes: model.em().num_classes(),
        };
        let start = Instant::now();
        store.journal_learn(&commit, 0.0, None)?;
        journal_us.push(elapsed_us(start));
    }
    if learn_us.is_empty() {
        return Err("no learns captured".into());
    }
    m.set("core.learn_us", median(&learn_us));
    m.set("store.journal_us", median(&journal_us));
    let wal = store
        .durability_stats(tenant)
        .ok_or("scratch store lost its tenant")?;
    m.set(
        "store.wal_bytes_per_learn",
        wal.wal_bytes as f64 / wal.wal_records.max(1) as f64,
    );
    let compactions = store.maintenance().map_err(|e| e.to_string())?;
    m.set("store.compactions", compactions as f64);
    let start = Instant::now();
    store.checkpoint(tenant).map_err(|e| e.to_string())?;
    m.set("store.checkpoint_ms", elapsed_us(start) / 1e3);
    drop(store);
    let recovered = LearnerRegistry::new();
    spec.register(&recovered, tenant, cap.model_seed)?;
    let start = Instant::now();
    let store = Store::open(scratch_dir).map_err(|e| e.to_string())?;
    store.recover(&recovered).map_err(|e| e.to_string())?;
    m.set("store.recover_ms", elapsed_us(start) / 1e3);
    let classes = recovered.stats(tenant).map_err(|e| e.to_string())?.classes;
    if classes != model.em().num_classes() {
        return Err(format!(
            "scratch store recovered {classes} classes, model has {}",
            model.em().num_classes()
        ));
    }
    drop(store);
    let _ = std::fs::remove_dir_all(scratch_dir);
    Ok(())
}

/// The probe phase of a workload that serves one tenant in process: the
/// tenant's serving counters, then [`probe_layers`] through a one-shard
/// durable, observed cluster over a copy of the tenant's state (the
/// workload itself runs no wire, router, store or obs), then the GAP9
/// model's figures.
pub fn probe_single_tenant(
    spec: &ModelSpec,
    cap: &Captured,
    registry: &LearnerRegistry,
    tracer: &Tracer,
    first_id: u64,
    m: &mut Metrics,
) -> Result<(), String> {
    let stats = registry.stats(&cap.tenant).map_err(|e| e.to_string())?;
    m.set("serve.mean_batch", stats.mean_batch());
    m.set("serve.largest_batch", stats.largest_batch as f64);
    m.set("serve.refused", stats.rejected() as f64);
    m.set("router.max_shard_share", 1.0);
    let export = registry
        .export_deployment(&cap.tenant)
        .map_err(|e| e.to_string())?;
    let copy = Arc::new(LearnerRegistry::new());
    spec.register(&copy, &cap.tenant, cap.model_seed)?;
    copy.import_deployment(&export).map_err(|e| e.to_string())?;
    let dir = crate::out_dir().join(format!("probe-{}", std::process::id()));
    let result = probe_cluster(copy, cap, &dir, |stack, obs| {
        probe_layers(stack, spec, cap, &dir.join("scratch"), tracer, first_id, m)?;
        let counters = obs.counters();
        m.set("obs.events", counters.appended as f64);
        m.set("obs.dropped", counters.dropped as f64);
        Ok(())
    });
    let _ = std::fs::remove_dir_all(&dir);
    result?;
    gap9_metrics(spec, cap.model_seed, m)
}

/// Runs `body` against a one-shard cluster (durable store in `dir`, obs
/// attached) over `registry`, and stops the shard afterwards.
fn probe_cluster(
    registry: Arc<LearnerRegistry>,
    cap: &Captured,
    dir: &Path,
    body: impl FnOnce(&Stack<'_, '_>, &Obs) -> Result<(), String>,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = Store::open(dir).map_err(|e| e.to_string())?;
    store.bootstrap(&registry).map_err(|e| e.to_string())?;
    let obs = Obs::new(ObsConfig::default());
    let shard = ShardProcess::spawn_durable_observed(
        Arc::clone(&registry),
        WireConfig::tcp_loopback(),
        Some(store),
        Some(obs.clone()),
    )
    .map_err(|e| e.to_string())?;
    let config = RouterConfig::tcp_loopback(vec![shard.addr().clone()])
        .with_deployments(&[cap.tenant.as_str()]);
    let result = RouterServer::run(&config, |router| {
        let stack = Stack {
            router,
            shard: shard.addr().clone(),
            registry: &registry,
        };
        body(&stack, &obs)
    })
    .map_err(|e| e.to_string())
    .and_then(|r| r);
    shard.stop();
    result
}

/// GAP9 model metrics for a workload's backbone at its input size, and the
/// model's mean relative error against the paper's Table IV energies.
pub fn gap9_metrics(spec: &ModelSpec, seed: u64, m: &mut Metrics) -> Result<(), String> {
    let executor = Gap9Executor::default();
    let model = spec.build(seed);
    let workload = deploy_backbone(model.backbone(), spec.side, spec.side);
    let d_a = model.backbone().feature_dim;
    let em = executor
        .em_update(&workload, d_a, spec.d_p, 5, 8)
        .map_err(|e| e.to_string())?;
    let bb = executor
        .backbone_inference(&workload, 8)
        .map_err(|e| e.to_string())?;
    m.set("gap9.em_update_mj", em.energy_mj);
    m.set("gap9.bb_infer_mj", bb.energy_mj);
    m.set("gap9.table4_err_pct", table4_error_pct(&executor)?);
    Ok(())
}

/// Mean |relative error| (%) of the modelled energies against the paper's
/// Table IV rows (FCR, and BB inference / EM update / FCR finetune for the
/// three MobileNetV2 stride profiles).
fn table4_error_pct(executor: &Gap9Executor) -> Result<f64, String> {
    const PAPER: [(f64, f64, f64); 3] = [
        (2.12, 11.35, 310.35),
        (2.40, 12.75, 311.75),
        (4.40, 22.75, 321.75),
    ];
    let err = |model: f64, paper: f64| (model / paper - 1.0).abs();
    let mut errors = vec![err(
        executor
            .fcr_inference(1280, 256, 8)
            .map_err(|e| e.to_string())?
            .energy_mj,
        0.15,
    )];
    let mut rng = SeedRng::new(0);
    for (variant, (bb, em, ft)) in [
        MobileNetVariant::X1,
        MobileNetVariant::X2,
        MobileNetVariant::X4,
    ]
    .into_iter()
    .zip(PAPER)
    {
        let workload = deploy_backbone(&mobilenet_v2(variant, &mut rng), 32, 32);
        let e = |r: Result<OperationCost, ofscil::gap9::Gap9Error>| {
            r.map(|c| c.energy_mj).map_err(|e| e.to_string())
        };
        errors.push(err(e(executor.backbone_inference(&workload, 8))?, bb));
        errors.push(err(e(executor.em_update(&workload, 1280, 256, 5, 8))?, em));
        errors.push(err(
            e(executor.fcr_finetune(&workload.name, 1280, 256, 60, 100, 8))?,
            ft,
        ));
    }
    Ok(100.0 * errors.iter().sum::<f64>() / errors.len() as f64)
}
