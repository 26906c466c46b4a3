//! The `Layer` trait: explicit forward/backward with parameter visitation.

use crate::{Parameter, Result};
use ofscil_tensor::Tensor;

/// Execution mode for the model-level entry points that pick training or
/// inference at run time ([`crate::models::Backbone::forward`]): `Train`
/// runs [`Layer::forward`], `Eval` runs [`Layer::infer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Training: activations are cached for the backward pass and
    /// batch-normalisation uses batch statistics.
    Train,
    /// Inference: no caching, running statistics are used.
    Eval,
}

impl Mode {
    /// Returns `true` in training mode.
    pub fn is_train(self) -> bool {
        matches!(self, Mode::Train)
    }
}

/// A differentiable network component.
///
/// Inference and training are separate paths. [`Layer::infer`] is the only
/// eval implementation: it reads the layer and never writes it, so one
/// frozen network can serve many threads at once (hence `Sync`).
/// [`Layer::forward`] is the training pass: it uses batch statistics where
/// the layer has them and caches whatever the next `backward` consumes; that
/// `backward` accumulates parameter gradients and returns the gradient with
/// respect to the layer input.
///
/// Containers ([`crate::layers::Sequential`], the residual blocks) implement
/// the same trait, so whole backbones are just `Layer`s.
pub trait Layer: Send + Sync {
    /// Human-readable layer name (used in error messages and profiling).
    fn name(&self) -> String;

    /// Runs the layer on `input` for inference: no caching, running
    /// statistics, no mutation.
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape is incompatible with the layer.
    fn infer(&self, input: &Tensor) -> Result<Tensor>;

    /// Runs the layer on `input` for training, caching what the next
    /// [`Layer::backward`] needs (batch-normalisation uses, and updates its
    /// running statistics from, the batch statistics).
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape is incompatible with the layer.
    fn forward(&mut self, input: &Tensor) -> Result<Tensor>;

    /// Propagates `grad_output` back through the layer, accumulating parameter
    /// gradients and returning the gradient with respect to the input.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::NoForwardCache`] when called before a
    /// training forward pass.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor>;

    /// Visits every parameter of the layer (and sub-layers) in a fixed,
    /// deterministic order.
    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Parameter));

    /// Computes the output dimensions for a given input shape without running
    /// the layer.
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape is incompatible with the layer.
    fn output_dims(&self, input: &[usize]) -> Result<Vec<usize>>;

    /// Number of multiply-accumulate operations for one sample with the given
    /// (batch-less) input dimensions. Defaults to zero for parameter-free
    /// layers.
    fn macs(&self, _input: &[usize]) -> u64 {
        0
    }

    /// Number of weight parameters that must be resident on a device to run
    /// this layer (excludes optimizer state); zero for parameter-free layers.
    /// Unlike [`Layer::param_count`] this is callable without mutable access,
    /// which the deployment cost models rely on.
    fn weight_count(&self) -> u64 {
        0
    }

    /// Zeroes every parameter gradient.
    fn zero_grads(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total number of trainable scalar parameters.
    fn param_count(&mut self) -> u64 {
        let mut count = 0u64;
        self.visit_params(&mut |p| {
            if p.trainable {
                count += p.len() as u64;
            }
        });
        count
    }

    /// Freezes (or unfreezes) every parameter of the layer.
    fn set_trainable(&mut self, trainable: bool) {
        self.visit_params(&mut |p| p.trainable = trainable);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_is_train() {
        assert!(Mode::Train.is_train());
        assert!(!Mode::Eval.is_train());
    }

    #[test]
    fn layer_trait_is_object_safe() {
        fn _takes_dyn(_l: &mut dyn Layer) {}
    }
}
