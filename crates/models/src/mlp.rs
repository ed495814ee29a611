//! Multi-layer perceptron towers.

use dt_autograd::{Graph, ParamId, Params, Var};
use dt_tensor::SplitMix64;

struct Layer {
    w: ParamId,
    b: ParamId,
}

/// A fully-connected tower: `in → hidden… → out` with tanh hidden
/// layers and a linear output (apply a sigmoid outside when a
/// probability is needed).
pub struct Mlp {
    layers: Vec<Layer>,
    sizes: Vec<usize>,
}

impl Mlp {
    /// Builds a tower with the given layer sizes, e.g. `[16, 8, 1]` for a
    /// 16-input, one-hidden-layer scorer. Weights use Xavier init; the
    /// layers are registered into `params` under `name.<k>`.
    ///
    /// # Panics
    /// Panics when fewer than two sizes are given.
    pub fn new(params: &mut Params, name: &str, sizes: &[usize], rng: &mut SplitMix64) -> Self {
        assert!(sizes.len() >= 2, "Mlp: need at least input and output size");
        let layers = sizes
            .windows(2)
            .enumerate()
            .map(|(k, w)| Layer {
                w: params.add(
                    format!("{name}.w{k}"),
                    dt_tensor::xavier_uniform(w[0], w[1], rng),
                ),
                b: params.add(format!("{name}.b{k}"), dt_tensor::Tensor::zeros(1, w[1])),
            })
            .collect();
        Self {
            layers,
            sizes: sizes.to_vec(),
        }
    }

    /// Input width.
    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.sizes[0]
    }

    /// Output width.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        // lint: allow(r3): `sizes` is validated non-empty in the constructor
        *self.sizes.last().expect("non-empty by construction")
    }

    /// Total scalar parameter count of the tower.
    #[must_use]
    pub fn n_parameters(&self) -> usize {
        self.sizes.windows(2).map(|w| w[0] * w[1] + w[1]).sum()
    }

    /// Differentiable forward pass on a `n × in_dim` batch.
    pub fn forward(&self, g: &mut Graph, params: &Params, x: Var) -> Var {
        assert_eq!(
            g.value(x).cols(),
            self.in_dim(),
            "Mlp::forward: input width mismatch"
        );
        let mut h = x;
        let last = self.layers.len() - 1;
        for (k, layer) in self.layers.iter().enumerate() {
            let w = g.param(params, layer.w);
            let b = g.param(params, layer.b);
            let z = g.matmul(h, w);
            h = g.add_row_broadcast(z, b);
            if k < last {
                h = g.tanh(h);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_optim::{Adam, Optimizer};
    use dt_tensor::{SplitMix64, Tensor};

    #[test]
    fn parameter_count() {
        let mut rng = SplitMix64(3);
        let mut params = Params::new();
        let mlp = Mlp::new(&mut params, "t", &[4, 8, 1], &mut rng);
        // 4·8 + 8 + 8·1 + 1 = 49
        assert_eq!(mlp.n_parameters(), 49);
        assert_eq!(params.n_scalars(), 49);
        assert_eq!(mlp.in_dim(), 4);
        assert_eq!(mlp.out_dim(), 1);
    }

    #[test]
    fn forward_shape() {
        let mut rng = SplitMix64(3);
        let mut params = Params::new();
        let mlp = Mlp::new(&mut params, "t", &[3, 5, 2], &mut rng);
        let mut g = Graph::new();
        let x = g.constant(Tensor::ones(7, 3));
        let y = mlp.forward(&mut g, &params, x);
        assert_eq!(g.value(y).rows(), 7);
        assert_eq!(g.value(y).cols(), 2);
    }

    #[test]
    fn learns_xor() {
        // XOR needs the hidden layer — a strong end-to-end check of the
        // whole autograd + optimizer + MLP stack.
        let mut rng = SplitMix64(9);
        let mut params = Params::new();
        let mlp = Mlp::new(&mut params, "xor", &[2, 8, 1], &mut rng);
        let x = Tensor::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let y = Tensor::col_vec(&[0.0, 1.0, 1.0, 0.0]);
        let mut opt = Adam::new(0.05);
        for _ in 0..800 {
            let mut g = Graph::new();
            let xv = g.constant(x.clone());
            let logits = mlp.forward(&mut g, &params, xv);
            let yv = g.constant(y.clone());
            let loss = g.bce_mean(logits, yv);
            opt.minimize(g, loss, &mut params);
        }
        let mut g = Graph::new();
        let xv = g.constant(x);
        let logits = mlp.forward(&mut g, &params, xv);
        let p = g.sigmoid(logits);
        let out = g.value(p).data().to_vec();
        assert!(out[0] < 0.2 && out[3] < 0.2, "{out:?}");
        assert!(out[1] > 0.8 && out[2] > 0.8, "{out:?}");
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_input_width_panics() {
        let mut rng = SplitMix64(3);
        let mut params = Params::new();
        let mlp = Mlp::new(&mut params, "t", &[3, 1], &mut rng);
        let mut g = Graph::new();
        let x = g.constant(Tensor::ones(1, 2));
        let _ = mlp.forward(&mut g, &params, x);
    }
}
