//! Sequential model composition.

use crate::layers::{self, Layer, LayerExec, LinearRef, Plain};
use dk_linalg::{Tensor, Workspace, WorkspaceStats};

/// A feed-forward stack of [`Layer`]s.
///
/// # Example
///
/// ```
/// use dk_nn::layers::{Layer, Dense, Relu};
/// use dk_nn::Sequential;
/// use dk_linalg::Tensor;
///
/// let mut m = Sequential::new(vec![
///     Layer::Dense(Dense::new(4, 8, 1)),
///     Layer::Relu(Relu::new()),
///     Layer::Dense(Dense::new(8, 2, 2)),
/// ]);
/// let y = m.forward(&Tensor::zeros(&[3, 4]), false);
/// assert_eq!(y.shape(), &[3, 2]);
/// ```
#[derive(Debug)]
pub struct Sequential {
    layers: Vec<Layer>,
    name: String,
    /// The model's buffer pool: activations, gradients, caches and
    /// kernel scratch cycle through it, so a warm steady-state
    /// forward/backward performs zero heap allocations. One workspace
    /// per execution lane — cloning a model gives the clone a fresh,
    /// empty pool.
    ws: Workspace,
}

impl Clone for Sequential {
    fn clone(&self) -> Self {
        Self { layers: self.layers.clone(), name: self.name.clone(), ws: Workspace::new() }
    }
}

impl Sequential {
    /// Creates a model from a layer stack.
    pub fn new(layers: Vec<Layer>) -> Self {
        Self { layers, name: "model".to_string(), ws: Workspace::new() }
    }

    /// Creates a named model (the name shows up in reports).
    pub fn named(name: impl Into<String>, layers: Vec<Layer>) -> Self {
        Self { layers, name: name.into(), ws: Workspace::new() }
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The layer stack.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layer stack, for callers that drive
    /// top-level layers one at a time (the SGX-only baseline charges
    /// enclave memory per layer).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Makes this model a copy of `src` for another execution lane.
    /// When the two share an architecture, the parameters and BatchNorm
    /// running statistics are copied in place and this model keeps its
    /// buffer pool and every tensor's allocation; otherwise the layer
    /// stack is cloned. Either way the forward and backward passes of
    /// both models then compute the same bits.
    pub fn copy_state_from(&mut self, src: &Sequential) {
        if !layers::copy_layers(&mut self.layers, &src.layers) {
            self.layers = src.layers.clone();
        }
        self.name.clone_from(&src.name);
    }

    /// Full forward pass. Every intermediate activation is recycled
    /// through the model-owned [`Workspace`]; after one warm-up step a
    /// steady-state forward performs zero heap allocations (asserted by
    /// the `alloc_regression` test). Recycle the returned tensor with
    /// [`Sequential::give_back`] to keep the steady state closed.
    pub fn forward(&mut self, x: &Tensor<f32>, train: bool) -> Tensor<f32> {
        let Self { layers, ws, .. } = self;
        let Ok(out) = layers::chain_forward(layers, x, train, &mut 0, &mut Plain(ws));
        out.unwrap_or_else(|| x.clone())
    }

    /// Forward pass on behalf of `exec`: the walk (order, ordinals,
    /// recycling — see [`crate::layers`]) is this crate's, what happens
    /// at an offloaded layer is the executor's. Intermediates cycle
    /// through [`LayerExec::workspace`], not the model's own pool.
    /// Fails with the first error an offloaded layer returns.
    pub fn forward_with<E: LayerExec>(
        &mut self,
        x: &Tensor<f32>,
        train: bool,
        exec: &mut E,
    ) -> Result<Tensor<f32>, E::Error> {
        let out = layers::chain_forward(&mut self.layers, x, train, &mut 0, exec)?;
        Ok(out.unwrap_or_else(|| x.clone()))
    }

    /// Full backward pass from the loss gradient; accumulates parameter
    /// gradients and returns the input gradient (recycle it with
    /// [`Sequential::give_back`]).
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(&mut self, dloss: &Tensor<f32>) -> Tensor<f32> {
        let Self { layers, ws, .. } = self;
        let mut next = layers::linear_count(layers);
        let Ok(out) = layers::chain_backward(layers, dloss, &mut next, &mut Plain(ws));
        out.unwrap_or_else(|| dloss.clone())
    }

    /// Backward pass on behalf of `exec`, the exact reverse of
    /// [`Sequential::forward_with`]: each offloaded layer is handed the
    /// ordinal it had forward. Fails with the first error an offloaded
    /// layer returns; panics if a non-linear layer never ran forward.
    pub fn backward_with<E: LayerExec>(
        &mut self,
        dloss: &Tensor<f32>,
        exec: &mut E,
    ) -> Result<Tensor<f32>, E::Error> {
        let mut next = layers::linear_count(&self.layers);
        let out = layers::chain_backward(&mut self.layers, dloss, &mut next, exec)?;
        Ok(out.unwrap_or_else(|| dloss.clone()))
    }

    /// Returns a tensor produced by this model (an output of
    /// [`Sequential::forward`] / [`Sequential::backward`]) to the
    /// buffer pool. Without this, each step leaks one output buffer
    /// out of the pool and the steady state keeps allocating.
    pub fn give_back(&mut self, t: Tensor<f32>) {
        self.ws.give_tensor(t);
    }

    /// Allocation counters of the model's buffer pool.
    pub fn workspace_stats(&self) -> WorkspaceStats {
        self.ws.stats()
    }

    /// Visits every `(parameter, gradient)` pair in a fixed order.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor<f32>, &mut Tensor<f32>)) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }

    /// Visits every *leaf* layer in the walk's forward order,
    /// descending into [`crate::layers::Residual`] blocks (main path
    /// first, then shortcut).
    pub fn visit_leaf_layers_mut(&mut self, f: &mut dyn FnMut(&mut Layer)) {
        layers::visit_leaves_mut(&mut self.layers, f);
    }

    /// Visits every offloaded (bilinear) layer with the ordinal the walk
    /// gives it, in forward order, stopping at the first error `f`
    /// returns — what a per-model precomputation (a step plan, blinding
    /// factors) keys its entries by.
    pub fn try_visit_linear<E>(
        &self,
        mut f: impl FnMut(usize, LinearRef<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        layers::try_visit_linear(&self.layers, &mut 0, &mut f)
    }

    /// Flattens all accumulated gradients into one vector, in
    /// [`Sequential::visit_params`] order (Algorithm 2 sharding operates
    /// on this layout).
    pub fn grad_vector(&mut self) -> Vec<f32> {
        let mut flat = Vec::new();
        self.grad_vector_into(&mut flat);
        flat
    }

    /// [`Sequential::grad_vector`] appended to a caller's buffer.
    pub fn grad_vector_into(&mut self, flat: &mut Vec<f32>) {
        self.visit_params(&mut |_, g| flat.extend_from_slice(g.as_slice()));
    }

    /// Installs a flat gradient vector produced by
    /// [`Sequential::grad_vector`] (or an aggregate of several) back
    /// into the per-parameter gradient buffers.
    ///
    /// # Panics
    ///
    /// Panics if the vector length does not match the parameter arity.
    pub fn set_grad_vector(&mut self, flat: &[f32]) {
        let mut off = 0;
        self.visit_params(&mut |_, g| {
            let n = g.len();
            g.as_mut_slice().copy_from_slice(&flat[off..off + n]);
            off += n;
        });
        assert_eq!(off, flat.len(), "gradient vector arity changed");
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| {
            for v in g.as_mut_slice() {
                *v = 0.0;
            }
        });
    }

    /// Total number of trainable scalars.
    pub fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p, _| n += p.len());
        n
    }

    /// Snapshots all parameters (for update-equivalence tests).
    pub fn snapshot_params(&mut self) -> Vec<Tensor<f32>> {
        let mut out = Vec::new();
        self.visit_params(&mut |p, _| out.push(p.clone()));
        out
    }

    /// Largest absolute difference between this model's parameters and a
    /// snapshot taken earlier.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot arity does not match.
    pub fn max_param_diff(&mut self, snapshot: &[Tensor<f32>]) -> f32 {
        let mut i = 0;
        let mut worst = 0.0f32;
        self.visit_params(&mut |p, _| {
            worst = worst.max(p.max_abs_diff(&snapshot[i]));
            i += 1;
        });
        assert_eq!(i, snapshot.len(), "snapshot arity mismatch");
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};

    fn toy() -> Sequential {
        Sequential::new(vec![
            Layer::Dense(Dense::new(3, 5, 1)),
            Layer::Relu(Relu::new()),
            Layer::Dense(Dense::new(5, 2, 2)),
        ])
    }

    #[test]
    fn forward_shapes() {
        let mut m = toy();
        let y = m.forward(&Tensor::zeros(&[4, 3]), true);
        assert_eq!(y.shape(), &[4, 2]);
    }

    #[test]
    fn param_count() {
        let mut m = toy();
        // (5*3+5) + (2*5+2) = 20 + 12 = 32
        assert_eq!(m.num_params(), 32);
    }

    #[test]
    fn zero_grad_clears() {
        let mut m = toy();
        let y = m.forward(&Tensor::ones(&[1, 3]), true);
        m.backward(&Tensor::ones(y.shape()));
        let mut nonzero = 0;
        m.visit_params(&mut |_, g| nonzero += g.as_slice().iter().filter(|v| **v != 0.0).count());
        assert!(nonzero > 0);
        m.zero_grad();
        let mut after = 0;
        m.visit_params(&mut |_, g| after += g.as_slice().iter().filter(|v| **v != 0.0).count());
        assert_eq!(after, 0);
    }

    #[test]
    fn full_model_numerical_gradient() {
        let mut m = toy();
        let x = Tensor::from_fn(&[2, 3], |i| (i as f32) * 0.4 - 1.0);
        let y = m.forward(&x, true);
        let dx = m.backward(&Tensor::ones(y.shape()));
        let eps = 1e-2;
        for p in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[p] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[p] -= eps;
            let lp = m.forward(&xp, true).sum();
            let lm = m.forward(&xm, true).sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!((num - dx.as_slice()[p]).abs() < 1e-2, "p={p}");
        }
    }

    /// A copy made in place computes what a clone computes, keeps its
    /// pool, and an architecture change falls back to a clone.
    #[test]
    fn copy_state_from_matches_a_clone() {
        let x = Tensor::from_fn(&[2, 3, 8, 8], |i| ((i % 13) as f32 - 6.0) * 0.05);
        let mut src = crate::arch::mini_resnet(8, 4, 3);
        src.visit_params(&mut |p, _| p.as_mut_slice()[0] += 0.25);
        let _ = src.forward(&x, true);
        let mut lane = crate::arch::mini_resnet(8, 4, 9);
        for _ in 0..2 {
            let warm = lane.forward(&x, false);
            lane.give_back(warm);
        }
        let misses = lane.workspace_stats().misses;
        lane.copy_state_from(&src);
        let want = src.clone().forward(&x, false);
        let got = lane.forward(&x, false);
        assert_eq!(got.as_slice(), want.as_slice());
        assert_eq!(lane.workspace_stats().misses, misses, "the lane kept its warm pool");
        let mut other = toy();
        other.copy_state_from(&src);
        assert_eq!(other.forward(&x, false).as_slice(), want.as_slice());
    }

    #[test]
    fn snapshot_diff() {
        let mut m = toy();
        let snap = m.snapshot_params();
        assert_eq!(m.max_param_diff(&snap), 0.0);
        // Perturb one weight.
        m.visit_params(&mut |p, _| {
            p.as_mut_slice()[0] += 0.5;
        });
        assert!(m.max_param_diff(&snap) >= 0.5);
    }
}
