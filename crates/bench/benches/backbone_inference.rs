//! Criterion bench: forward-pass latency of the feature extractors used by
//! the accuracy experiments (micro backbone, FCR projection) and of a single
//! MobileNetV2 inverted-residual stage.

use criterion::{criterion_group, criterion_main, Criterion};
use ofscil::nn::blocks::InvertedResidual;
use ofscil::nn::models::micro_backbone;
use ofscil::prelude::*;
use std::hint::black_box;

fn bench_micro_backbone(c: &mut Criterion) {
    let mut rng = SeedRng::new(0);
    let backbone = micro_backbone(&mut rng);
    let image = Tensor::ones(&[1, 3, 16, 16]);
    c.bench_function("micro_backbone_forward_16x16", |b| {
        b.iter(|| {
            let out = backbone.infer(black_box(&image)).unwrap();
            black_box(out)
        })
    });

    let batch = Tensor::ones(&[8, 3, 16, 16]);
    c.bench_function("micro_backbone_forward_batch8", |b| {
        b.iter(|| {
            let out = backbone.infer(black_box(&batch)).unwrap();
            black_box(out)
        })
    });
}

fn bench_fcr(c: &mut Criterion) {
    let mut rng = SeedRng::new(1);
    let fcr = Fcr::new(1280, 256, &mut rng);
    let features = Tensor::ones(&[1, 1280]);
    c.bench_function("fcr_projection_1280_to_256", |b| {
        b.iter(|| {
            let out = fcr.infer(black_box(&features)).unwrap();
            black_box(out)
        })
    });
}

fn bench_inverted_residual(c: &mut Criterion) {
    let mut rng = SeedRng::new(2);
    let block = InvertedResidual::new(32, 32, 1, 6, &mut rng);
    let input = Tensor::ones(&[1, 32, 16, 16]);
    c.bench_function("inverted_residual_32ch_16x16", |b| {
        b.iter(|| {
            let out = block.infer(black_box(&input)).unwrap();
            black_box(out)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_micro_backbone, bench_fcr, bench_inverted_residual
}
criterion_main!(benches);
