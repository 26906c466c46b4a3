//! Depthwise 2-D convolution (channel multiplier 1), the core of the
//! MobileNetV2 inverted-residual block.

use crate::{Layer, NnError, Parameter, Result};
use ofscil_tensor::{col2im, im2col, Conv2dGeometry, Init, Initializer, SeedRng, Tensor};

/// Depthwise convolution: every input channel is convolved with its own
/// `k x k` kernel; channel count is preserved.
///
/// * input: `[batch, channels, h, w]`
/// * weight: `[channels, k * k]`
/// * output: `[batch, channels, h', w']`
#[derive(Debug)]
pub struct DepthwiseConv2d {
    channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    weight: Parameter,
    bias: Option<Parameter>,
    cached_input: Option<Tensor>,
}

impl DepthwiseConv2d {
    /// Creates a depthwise convolution with Kaiming-normal initialised weights.
    pub fn new(
        channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        bias: bool,
        rng: &mut SeedRng,
    ) -> Self {
        let fan_in = kernel * kernel;
        let mut init = Initializer::new(rng.fork(0xd00d));
        let weight = Parameter::new(
            "weight",
            init.tensor(&[channels, fan_in], Init::KaimingNormal { fan_in }),
        );
        let bias = bias.then(|| Parameter::new("bias", Tensor::zeros(&[channels])));
        DepthwiseConv2d { channels, kernel, stride, padding, weight, bias, cached_input: None }
    }

    /// The convolution geometry for a given input height/width.
    pub fn geometry(&self, in_h: usize, in_w: usize) -> Conv2dGeometry {
        Conv2dGeometry::new(in_h, in_w, self.kernel, self.stride, self.padding)
    }

    /// Stride of the convolution.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Mutable access to the weight matrix (`[channels, k * k]`).
    pub fn weight_mut(&mut self) -> &mut Tensor {
        &mut self.weight.value
    }

    fn check_input(&self, dims: &[usize]) -> Result<(usize, usize, usize)> {
        if dims.len() != 4 || dims[1] != self.channels {
            return Err(NnError::BadInput {
                layer: self.name(),
                expected: format!("[batch, {}, h, w]", self.channels),
                actual: dims.to_vec(),
            });
        }
        Ok((dims[0], dims[2], dims[3]))
    }
}

impl Layer for DepthwiseConv2d {
    fn name(&self) -> String {
        format!("dwconv2d({}, k{}, s{})", self.channels, self.kernel, self.stride)
    }

    fn infer(&self, input: &Tensor) -> Result<Tensor> {
        let (batch, in_h, in_w) = self.check_input(input.dims())?;
        let geom = self.geometry(in_h, in_w);
        geom.validate()?;
        let (out_h, out_w) = (geom.out_h(), geom.out_w());
        let in_plane = in_h * in_w;
        let out_plane = out_h * out_w;
        let mut out = vec![0.0f32; batch * self.channels * out_plane];

        for b in 0..batch {
            for c in 0..self.channels {
                let offset = (b * self.channels + c) * in_plane;
                let channel = Tensor::from_vec(
                    input.as_slice()[offset..offset + in_plane].to_vec(),
                    &[1, in_h, in_w],
                )?;
                let cols = im2col(&channel, 1, &geom)?;
                let kernel = Tensor::from_vec(
                    self.weight.value.row(c)?.to_vec(),
                    &[1, self.kernel * self.kernel],
                )?;
                let result = kernel.matmul(&cols)?;
                let dst_off = (b * self.channels + c) * out_plane;
                let bias_v = self.bias.as_ref().map_or(0.0, |bias| bias.value.as_slice()[c]);
                for (dst, src) in out[dst_off..dst_off + out_plane]
                    .iter_mut()
                    .zip(result.as_slice())
                {
                    *dst = src + bias_v;
                }
            }
        }
        Tensor::from_vec(out, &[batch, self.channels, out_h, out_w]).map_err(NnError::from)
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let out = self.infer(input)?;
        self.cached_input = Some(input.clone());
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let input = self
            .cached_input
            .take()
            .ok_or_else(|| NnError::NoForwardCache(self.name()))?;
        let (batch, in_h, in_w) = self.check_input(input.dims())?;
        let geom = self.geometry(in_h, in_w);
        let (out_h, out_w) = (geom.out_h(), geom.out_w());
        if grad_output.dims() != [batch, self.channels, out_h, out_w] {
            return Err(NnError::BadInput {
                layer: self.name(),
                expected: format!("[{batch}, {}, {out_h}, {out_w}]", self.channels),
                actual: grad_output.dims().to_vec(),
            });
        }
        let in_plane = in_h * in_w;
        let out_plane = out_h * out_w;
        let mut grad_input = vec![0.0f32; batch * self.channels * in_plane];
        let mut grad_weight = Tensor::zeros(self.weight.value.dims());
        let mut grad_bias = vec![0.0f32; self.channels];

        for b in 0..batch {
            for (c, bias_slot) in grad_bias.iter_mut().enumerate() {
                let offset = (b * self.channels + c) * in_plane;
                let channel = Tensor::from_vec(
                    input.as_slice()[offset..offset + in_plane].to_vec(),
                    &[1, in_h, in_w],
                )?;
                let cols = im2col(&channel, 1, &geom)?;
                let g_off = (b * self.channels + c) * out_plane;
                let grad_y = Tensor::from_vec(
                    grad_output.as_slice()[g_off..g_off + out_plane].to_vec(),
                    &[1, out_plane],
                )?;
                // dW_c += grad_y · colsᵀ   (1 x k²)
                let gw = grad_y.matmul(&cols.transpose()?)?;
                for (dst, src) in grad_weight
                    .as_mut_slice()
                    [c * self.kernel * self.kernel..(c + 1) * self.kernel * self.kernel]
                    .iter_mut()
                    .zip(gw.as_slice())
                {
                    *dst += src;
                }
                *bias_slot += grad_y.sum();
                // dx_c = col2im(w_cᵀ · grad_y)
                let kernel = Tensor::from_vec(
                    self.weight.value.row(c)?.to_vec(),
                    &[1, self.kernel * self.kernel],
                )?;
                let grad_cols = kernel.transpose()?.matmul(&grad_y)?;
                let grad_img = col2im(&grad_cols, 1, &geom)?;
                for (dst, src) in grad_input[offset..offset + in_plane]
                    .iter_mut()
                    .zip(grad_img.as_slice())
                {
                    *dst += src;
                }
            }
        }
        self.weight.accumulate_grad(&grad_weight);
        if let Some(bias) = &mut self.bias {
            bias.accumulate_grad(&Tensor::from_slice(&grad_bias));
        }
        Tensor::from_vec(grad_input, input.dims()).map_err(NnError::from)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Parameter)) {
        visitor(&mut self.weight);
        if let Some(bias) = &mut self.bias {
            visitor(bias);
        }
    }

    fn output_dims(&self, input: &[usize]) -> Result<Vec<usize>> {
        let (batch, in_h, in_w) = self.check_input(input)?;
        let geom = self.geometry(in_h, in_w);
        geom.validate()?;
        Ok(vec![batch, self.channels, geom.out_h(), geom.out_w()])
    }

    fn macs(&self, input: &[usize]) -> u64 {
        if input.len() != 3 {
            return 0;
        }
        let geom = self.geometry(input[1], input[2]);
        (self.channels * self.kernel * self.kernel) as u64 * geom.out_pixels() as u64
    }

    fn weight_count(&self) -> u64 {
        let bias = if self.bias.is_some() { self.channels } else { 0 };
        (self.channels * self.kernel * self.kernel + bias) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_preserves_channels() {
        let mut rng = SeedRng::new(0);
        let dw = DepthwiseConv2d::new(4, 3, 2, 1, true, &mut rng);
        let x = Tensor::ones(&[2, 4, 8, 8]);
        let y = dw.infer(&x).unwrap();
        assert_eq!(y.dims(), &[2, 4, 4, 4]);
        assert!(dw.infer(&Tensor::ones(&[2, 3, 8, 8])).is_err());
    }

    #[test]
    fn channels_are_independent() {
        // Zero the kernel for channel 1; its output must be exactly zero while
        // channel 0 stays non-zero.
        let mut rng = SeedRng::new(1);
        let mut dw = DepthwiseConv2d::new(2, 3, 1, 1, false, &mut rng);
        for x in dw.weight_mut().as_mut_slice()[9..18].iter_mut() {
            *x = 0.0;
        }
        dw.weight_mut().as_mut_slice()[..9].copy_from_slice(&[1.0; 9]);
        let x = Tensor::ones(&[1, 2, 4, 4]);
        let y = dw.infer(&x).unwrap();
        let ch0: f32 = y.as_slice()[..16].iter().sum();
        let ch1: f32 = y.as_slice()[16..].iter().sum();
        assert!(ch0 > 0.0);
        assert_eq!(ch1, 0.0);
    }

    #[test]
    fn gradient_check() {
        let mut rng = SeedRng::new(3);
        let mut dw = DepthwiseConv2d::new(2, 3, 1, 1, true, &mut rng);
        let x = Tensor::from_vec(
            (0..2 * 2 * 5 * 5).map(|i| ((i % 5) as f32 - 2.0) * 0.4).collect(),
            &[2, 2, 5, 5],
        )
        .unwrap();
        let y = dw.forward(&x).unwrap();
        let grad_in = dw.backward(&Tensor::ones(y.dims())).unwrap();
        let analytic_w = dw.weight.grad.clone();

        let eps = 1e-2;
        for &idx in &[0usize, 13, 49, 80] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let lp = dw.infer(&xp).unwrap().sum();
            let lm = dw.infer(&xm).unwrap().sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - grad_in.as_slice()[idx]).abs() < 0.05);
        }
        for &idx in &[0usize, 10, 17] {
            let orig = dw.weight.value.as_slice()[idx];
            dw.weight.value.as_mut_slice()[idx] = orig + eps;
            let lp = dw.infer(&x).unwrap().sum();
            dw.weight.value.as_mut_slice()[idx] = orig - eps;
            let lm = dw.infer(&x).unwrap().sum();
            dw.weight.value.as_mut_slice()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - analytic_w.as_slice()[idx]).abs() < 0.05);
        }
    }

    #[test]
    fn macs_and_params() {
        let mut rng = SeedRng::new(0);
        let mut dw = DepthwiseConv2d::new(32, 3, 1, 1, false, &mut rng);
        assert_eq!(dw.macs(&[32, 16, 16]), 32 * 9 * 256);
        assert_eq!(dw.param_count(), 32 * 9);
    }
}
