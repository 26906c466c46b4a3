//! Bit-exactness of the read-only inference path.
//!
//! Each constant below is the FNV-1a hash of the output (dims, then every
//! `f32` bit pattern) that the previous eval implementation — the
//! `forward(&mut self, input, Mode::Eval)` pass, before inference became the
//! separate `Layer::infer` — produced for the same seeded weights,
//! batch-norm statistics and inputs. `Layer::infer` must reproduce them bit
//! for bit: splitting eval from training moved code, not arithmetic.

use ofscil_nn::models::{micro_backbone, mobilenet_v2, resnet12, Backbone, MobileNetVariant};
use ofscil_nn::{Layer, Mode};
use ofscil_tensor::{SeedRng, Tensor};

fn fnv1a(out: &Tensor) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let dims = out.dims().iter().flat_map(|&d| (d as u64).to_le_bytes());
    let bits = out.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes());
    for byte in dims.chain(bits) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Moves every batch-norm statistic and affine parameter off its identity
/// initialisation, so the eval path's use of them is actually exercised.
fn perturb_batchnorm(net: &mut dyn Layer, seed: u64) {
    let mut rng = SeedRng::new(seed);
    net.visit_params(&mut |p| {
        let name = p.name().to_string();
        for v in p.value.as_mut_slice() {
            match name.as_str() {
                "running_var" => *v = rng.uniform_range(0.5, 1.5),
                "running_mean" | "beta" => *v = rng.uniform_range(-0.2, 0.2),
                "gamma" => *v = rng.uniform_range(0.8, 1.2),
                _ => {}
            }
        }
    });
}

fn images(batch: usize, side: usize, seed: u64) -> Tensor {
    let mut rng = SeedRng::new(seed);
    let data = (0..batch * 3 * side * side).map(|_| rng.normal()).collect();
    Tensor::from_vec(data, &[batch, 3, side, side]).unwrap()
}

/// Checks batch sizes 1 and 5 against the recorded hashes, through both
/// `Backbone::infer` and the mode-selected `Backbone::forward(Mode::Eval)`.
fn check(mut bb: Backbone, side: usize, seed: u64, expected: [u64; 2]) {
    perturb_batchnorm(&mut bb.net, seed);
    for (batch, (input_seed, want)) in
        [1, 5].into_iter().zip([(seed + 1, expected[0]), (seed + 2, expected[1])])
    {
        let x = images(batch, side, input_seed);
        let got = fnv1a(&bb.infer(&x).unwrap());
        assert_eq!(got, want, "{} batch {batch}: {got:#018x} != {want:#018x}", bb.name);
        let via_mode = fnv1a(&bb.forward(&x, Mode::Eval).unwrap());
        assert_eq!(via_mode, want, "{} batch {batch} via Mode::Eval", bb.name);
    }
}

#[test]
fn micro_infer_is_bit_exact() {
    check(
        micro_backbone(&mut SeedRng::new(11)),
        16,
        100,
        [0x26ed_3a01_6c9e_ad55, 0x4bb5_24e9_3c20_2d68],
    );
}

#[test]
fn mobilenet_v2_x1_infer_is_bit_exact() {
    let bb = mobilenet_v2(MobileNetVariant::X1, &mut SeedRng::new(12));
    check(bb, 32, 200, [0xd2ee_1b7c_0dc8_3c03, 0x1db8_2d1c_2e47_4e28]);
}

#[test]
fn resnet12_infer_is_bit_exact() {
    check(resnet12(&mut SeedRng::new(13)), 16, 300, [0x21cf_8ea5_5315_32c5, 0xa9b5_40f2_6e49_120e]);
}
