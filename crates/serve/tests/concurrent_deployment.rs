//! One deployment served by two workers at once must answer exactly like a
//! sequential replay of the same requests on a private copy of the model.
//!
//! Infer batches share the model as readers and may run side by side;
//! `LearnOnline`, `Snapshot` and `Stats` are barriers. So every prediction
//! must observe exactly the learns admitted before it, every snapshot the
//! exact explicit memory at its admission point, and every stats read the
//! exact counts of the work admitted before it — bit for bit, whatever
//! order the workers happened to finish in.

use ofscil_core::OFscilModel;
use ofscil_data::Batch;
use ofscil_nn::models::BackboneKind;
use ofscil_serve::{
    encode_explicit_memory, DeploymentSpec, LearnerRegistry, ServeConfig, ServeRequest,
    ServeResponse, ServeRuntime,
};
use ofscil_tensor::{SeedRng, Tensor};

const SIDE: usize = 8;
const PROJECTION: usize = 16;
const NAME: &str = "hot";

enum Op {
    Infer(Tensor),
    Learn(Batch),
    Snapshot,
    Stats,
}

fn image(rng: &mut SeedRng) -> Tensor {
    let data = (0..3 * SIDE * SIDE).map(|_| rng.normal()).collect();
    Tensor::from_vec(data, &[3, SIDE, SIDE]).unwrap()
}

fn support(rng: &mut SeedRng, classes: &[usize], shots: usize) -> Batch {
    let images: Vec<Tensor> = (0..classes.len() * shots).map(|_| image(rng)).collect();
    let refs: Vec<&Tensor> = images.iter().collect();
    Batch {
        images: Tensor::stack(&refs).unwrap(),
        labels: classes.iter().flat_map(|&c| std::iter::repeat(c).take(shots)).collect(),
    }
}

/// A seeded request script: a first learn so infers have classes to match,
/// then mostly infers with learns, snapshots and stats reads in between.
fn script(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = SeedRng::new(seed);
    let mut ops = vec![Op::Learn(support(&mut rng, &[0, 1, 2], 2))];
    let mut next_class = 3;
    for _ in 0..len {
        ops.push(match rng.below(16) {
            0 => {
                next_class += 1;
                Op::Learn(support(&mut rng, &[next_class - 1], 3))
            }
            1 => Op::Snapshot,
            2 => Op::Stats,
            _ => Op::Infer(image(&mut rng)),
        });
    }
    ops
}

fn model(seed: u64) -> OFscilModel {
    OFscilModel::new(BackboneKind::Micro, PROJECTION, &mut SeedRng::new(seed))
}

/// What a request must be answered with.
#[derive(Debug, PartialEq)]
enum Expected {
    Prediction { class: usize, similarity_bits: u32 },
    Learned { classes: Vec<usize>, total_classes: usize },
    Snapshot(Vec<u8>),
    Stats { classes: usize, infer_requests: u64, learn_requests: u64 },
}

impl Expected {
    fn of(response: &ServeResponse) -> Expected {
        match response {
            ServeResponse::Prediction { class, similarity, .. } => {
                Expected::Prediction { class: *class, similarity_bits: similarity.to_bits() }
            }
            ServeResponse::Learned { classes, total_classes } => {
                Expected::Learned { classes: classes.clone(), total_classes: *total_classes }
            }
            ServeResponse::Snapshot { bytes } => Expected::Snapshot(bytes.clone()),
            ServeResponse::Stats(stats) => Expected::Stats {
                classes: stats.classes,
                infer_requests: stats.infer_requests,
                learn_requests: stats.learn_requests,
            },
            other => panic!("unexpected response {other:?}"),
        }
    }
}

/// Replays the script one request at a time, in admission order, on a
/// private model: the answers, and the explicit memory it ends with.
fn replay(ops: &[Op], seed: u64) -> (Vec<Expected>, Vec<u8>) {
    let mut model = model(seed);
    let (mut infers, mut learns) = (0u64, 0u64);
    let answers = ops
        .iter()
        .map(|op| match op {
            Op::Infer(image) => {
                infers += 1;
                let theta_p = model.infer_features(&Tensor::stack(&[image]).unwrap()).unwrap();
                let (class, similarity) = model.em().classify(theta_p.as_slice()).unwrap();
                Expected::Prediction { class, similarity_bits: similarity.to_bits() }
            }
            Op::Learn(batch) => {
                learns += 1;
                model.learn_classes_online(batch).unwrap();
                let mut classes = batch.labels.clone();
                classes.dedup();
                Expected::Learned { classes, total_classes: model.em().num_classes() }
            }
            Op::Snapshot => Expected::Snapshot(encode_explicit_memory(model.em())),
            Op::Stats => Expected::Stats {
                classes: model.em().num_classes(),
                infer_requests: infers,
                learn_requests: learns,
            },
        })
        .collect();
    (answers, encode_explicit_memory(model.em()))
}

fn request(op: &Op) -> ServeRequest {
    let deployment = NAME.to_string();
    match op {
        Op::Infer(image) => ServeRequest::Infer { deployment, image: image.clone() },
        Op::Learn(batch) => ServeRequest::LearnOnline { deployment, batch: batch.clone() },
        Op::Snapshot => ServeRequest::Snapshot { deployment },
        Op::Stats => ServeRequest::Stats { deployment },
    }
}

#[test]
fn two_workers_on_one_deployment_match_a_sequential_replay() {
    for seed in 0..3u64 {
        let ops = script(100 + seed, 240);
        let (expected, final_memory) = replay(&ops, seed);

        let registry = LearnerRegistry::new();
        registry.register(DeploymentSpec::new(NAME, (SIDE, SIDE)), model(seed)).unwrap();
        let config = ServeConfig::default().with_workers(2).with_max_batch(4);
        let served: Vec<Expected> = ServeRuntime::run(&registry, &config, |client| {
            // Submit everything before waiting on anything, so infers pile
            // up behind barriers and coalesce into batches the two workers
            // race on.
            let pending: Vec<_> = ops.iter().map(|op| client.submit(request(op))).collect();
            pending.into_iter().map(|p| Expected::of(&p.wait().unwrap())).collect()
        })
        .unwrap();

        assert_eq!(served.len(), expected.len());
        for (i, (served, expected)) in served.iter().zip(&expected).enumerate() {
            assert_eq!(served, expected, "seed {seed}, request {i}");
        }
        assert_eq!(registry.snapshot(NAME).unwrap(), final_memory, "seed {seed}");
        let infers = ops.iter().filter(|op| matches!(op, Op::Infer(_))).count();
        assert_eq!(registry.stats(NAME).unwrap().infer_requests, infers as u64);
    }
}
