//! Training-step report: the DT-IPS step with and without its full-table
//! penalties, for `BENCH_train_step.json`.
//!
//! One step records the losses the trainers record over `M×K` embedding
//! tables, on one tape, and hands it to [`Optimizer::minimize`] (backward,
//! one Adam step, zeroed gradients):
//!
//! * the rating loss on a `B` observed batch, as `DtRecommender::fit` and
//!   `IpsRecommender` record it: `sigmoid` → `squared_error` →
//!   `weighted_mean`, weighted by the clipped inverse propensities, read
//!   off the propensity tables before the tape is built and mounted as a
//!   constant, so no gradient reaches the propensity tables through them;
//! * the propensity loss, `bce_mean` over a `4B` uniform batch.
//!
//! Two arms:
//!
//! * **ips** — the two losses alone. Every gradient is row-sparse, so the
//!   step is batch-bound;
//! * **dt** — the same step plus the two penalties `DtRecommender::fit`
//!   adds on every DT-IPS step, over the whole rating tables through
//!   `slice_cols` (see [`dt_penalties`]). Their gradients are dense, so
//!   this is the step the paper actually trains: `O(M·K²)` per step.
//!
//! Alongside wall times the report carries `allocs_per_step`: the per-step
//! count of buffers drawn from the global allocator, read off the
//! [`dt_tensor::pool::stats`] counters (every tape/kernel buffer routes
//! through the pooled constructors). The timer, alloc probe and generator
//! are the shared [`crate::report`] harness.

use std::path::Path;
use std::rc::Rc;

use dt_autograd::{Graph, ParamId, Params, Var};
use dt_optim::{Adam, Optimizer};
use dt_tensor::Tensor;

use crate::report::{fresh_allocs_per, time_ms, XorShift};

/// Penalty weights of the `dt` arm (`β`, `γ`), as the repository
/// benchmark's DT-IPS step sets them.
const DT_BETA: f64 = 1e-2;
const DT_GAMMA: f64 = 1e-2;

/// Primary-block width of a `k`-wide disentangled table: three quarters,
/// the 12-of-16 split of the repository benchmark's DT model.
fn primary_dim(k: usize) -> usize {
    k * 3 / 4
}

/// The two embedding-backed models a DT-IPS step trains: a rating MF and a
/// propensity MF, each `M×K` per side, sharing one parameter store so a
/// single optimizer sweep covers the whole step (per-model stores only
/// change bookkeeping).
struct DtIpsModel {
    params: Params,
    user: ParamId,
    item: ParamId,
    p_user: ParamId,
    p_item: ParamId,
}

impl DtIpsModel {
    fn new(m: usize, k: usize, seed: u64) -> Self {
        let mut rng = XorShift::new(seed);
        let table = |rows: usize, cols: usize, rng: &mut XorShift| {
            let data = (0..rows * cols).map(|_| 0.1 * rng.unit()).collect();
            Tensor::from_vec(rows, cols, data)
        };
        let mut params = Params::new();
        let user = params.add("user_emb", table(m, k, &mut rng));
        let item = params.add("item_emb", table(m, k, &mut rng));
        let p_user = params.add("p_user_emb", table(m, k, &mut rng));
        let p_item = params.add("p_item_emb", table(m, k, &mut rng));
        Self {
            params,
            user,
            item,
            p_user,
            p_item,
        }
    }
}

/// One step's worth of index lists and targets. The index lists are
/// `Rc`-shared exactly as the trainers share them, so the tape clones
/// pointers, not vectors.
struct StepBatch {
    users: Rc<Vec<usize>>,
    items: Rc<Vec<usize>>,
    labels: Tensor,
    ub_users: Rc<Vec<usize>>,
    ub_items: Rc<Vec<usize>>,
    obs: Tensor,
}

fn make_batches(m: usize, b: usize, count: usize, seed: u64) -> Vec<StepBatch> {
    let mut rng = XorShift::new(seed);
    let draw = |n: usize, rng: &mut XorShift| -> (Rc<Vec<usize>>, Rc<Vec<usize>>, Tensor) {
        let users = Rc::new((0..n).map(|_| rng.index(m)).collect::<Vec<_>>());
        let items = Rc::new((0..n).map(|_| rng.index(m)).collect::<Vec<_>>());
        let y = (0..n).map(|_| f64::from(rng.next_u64() & 1 == 0)).collect();
        (users, items, Tensor::from_vec(n, 1, y))
    };
    (0..count)
        .map(|_| {
            let (users, items, labels) = draw(b, &mut rng);
            let (ub_users, ub_items, obs) = draw(4 * b, &mut rng);
            StepBatch {
                users,
                items,
                labels,
                ub_users,
                ub_items,
                obs,
            }
        })
        .collect()
}

/// Clipped inverse-propensity weights from the current propensity tables
/// (plain inference reads — no tape), as every IPS trainer computes them.
fn ips_weights(params: &Params, p_user: ParamId, p_item: ParamId, b: &StepBatch) -> Tensor {
    let pu = params.value(p_user);
    let pi = params.value(p_item);
    let data = b
        .users
        .iter()
        .zip(b.items.iter())
        .map(|(&u, &i)| {
            let dot: f64 = pu.row(u).iter().zip(pi.row(i)).map(|(a, b)| a * b).sum();
            let p = 1.0 / (1.0 + (-dot).exp());
            1.0 / p.clamp(0.05, 1.0)
        })
        .collect();
    // alloc-ok: B×1 weight column assembled from the collect above; sized by the batch and freed with it
    Tensor::from_vec(b.users.len(), 1, data)
}

/// `DisentangledMf`'s two full-table penalties over the rating tables
/// `P = user_emb` and `Q = item_emb`, split into primary and auxiliary
/// blocks at [`primary_dim`], at the paper's normalisation:
/// `β·(‖P′ᵀP″‖²_F/M + ‖Q′ᵀQ″‖²_F/N) + γ·(‖P′Q′ᵀ‖²_F + ‖P″Q″ᵀ‖²_F)/(M·N)`.
/// Each loss mounts the tables and slices them, as the model does.
fn dt_penalties(g: &mut Graph, model: &DtIpsModel) -> Var {
    let params = &model.params;
    let (m, k) = {
        let p = params.value(model.user);
        (p.rows() as f64, p.cols())
    };
    let n = params.value(model.item).rows() as f64;
    let a = primary_dim(k);
    let blocks = |g: &mut Graph| {
        let p = g.param(params, model.user);
        let q = g.param(params, model.item);
        (
            g.slice_cols(p, 0, a),
            g.slice_cols(p, a, k),
            g.slice_cols(q, 0, a),
            g.slice_cols(q, a, k),
        )
    };
    let (p_prim, p_aux, q_prim, q_aux) = blocks(g);
    let dp0 = g.disentangle_penalty(p_prim, p_aux);
    let dp = g.mul_scalar(dp0, 1.0 / m);
    let dq0 = g.disentangle_penalty(q_prim, q_aux);
    let dq = g.mul_scalar(dq0, 1.0 / n);
    let dis = g.add(dp, dq);
    let dis_w = g.mul_scalar(dis, DT_BETA);
    let (p_prim, p_aux, q_prim, q_aux) = blocks(g);
    let r1 = g.cross_gram_penalty(p_prim, q_prim);
    let r2 = g.cross_gram_penalty(p_aux, q_aux);
    let sum = g.add(r1, r2);
    let reg = g.mul_scalar(sum, 1.0 / (m * n));
    let reg_w = g.mul_scalar(reg, DT_GAMMA);
    g.add(dis_w, reg_w)
}

/// A reusable training loop at one `(M, K, B)` scale: fresh model, fresh
/// optimizer, a rotating pool of pre-drawn batches, one arm.
pub struct TrainBench {
    model: DtIpsModel,
    opt: Adam,
    /// The `dt` arm: add [`dt_penalties`] to the loss.
    penalties: bool,
    batches: Vec<StepBatch>,
    next: usize,
}

impl TrainBench {
    /// The `ips` arm: the rating and propensity losses alone.
    #[must_use]
    pub fn ips(m: usize, k: usize, b: usize) -> Self {
        Self::new(m, k, b, false)
    }

    /// The `dt` arm: the `ips` step plus the DT penalties over the full
    /// rating tables.
    #[must_use]
    pub fn dt(m: usize, k: usize, b: usize) -> Self {
        Self::new(m, k, b, true)
    }

    fn new(m: usize, k: usize, b: usize, penalties: bool) -> Self {
        Self {
            model: DtIpsModel::new(m, k, 0x9E37_79B9_7F4A_7C15 ^ m as u64),
            opt: Adam::new(0.01),
            penalties,
            batches: make_batches(m, b, 8, 0xD6E8_FEB8_7F4A_7C15 ^ m as u64),
            next: 0,
        }
    }

    /// Runs one DT-IPS training step: the IPS-weighted squared error on
    /// the observed batch plus the propensity BCE on the uniform batch
    /// (plus the DT penalties in the `dt` arm), minimised in one Adam step.
    pub fn step(&mut self) {
        let batch = &self.batches[self.next % self.batches.len()];
        self.next += 1;
        let model = &mut self.model;
        let w = ips_weights(&model.params, model.p_user, model.p_item, batch);

        let mut g = Graph::new();
        let ut = g.param(&model.params, model.user);
        let eu = g.gather(ut, Rc::clone(&batch.users));
        let it = g.param(&model.params, model.item);
        let ei = g.gather(it, Rc::clone(&batch.items));
        let logits = g.row_dot(eu, ei);
        let pred = g.sigmoid(logits);
        let y = g.constant(batch.labels.clone());
        let err = g.squared_error(pred, y);
        let wv = g.constant(w);
        let rating = g.weighted_mean(wv, err);

        let put = g.param(&model.params, model.p_user);
        let pu = g.gather(put, Rc::clone(&batch.ub_users));
        let pit = g.param(&model.params, model.p_item);
        let pi = g.gather(pit, Rc::clone(&batch.ub_items));
        let prop_logits = g.row_dot(pu, pi);
        let obs = g.constant(batch.obs.clone());
        let prop = g.bce_mean(prop_logits, obs);

        let mut loss = g.add(rating, prop);
        if self.penalties {
            let penalties = dt_penalties(&mut g, model);
            loss = g.add(loss, penalties);
        }
        self.opt.minimize(g, loss, &mut model.params);
    }

    /// All parameter tensors are finite (test hook).
    #[must_use]
    pub fn all_finite(&self) -> bool {
        self.model.params.all_finite()
    }

    /// Sum of all parameter elements (bit-identity test hook).
    #[must_use]
    pub fn param_checksum(&self) -> f64 {
        [
            self.model.user,
            self.model.item,
            self.model.p_user,
            self.model.p_item,
        ]
        .iter()
        .map(|&id| self.model.params.value(id).sum())
        .sum()
    }
}

/// One table-height measurement. Times are the best-of-N per-step averages;
/// alloc counts are exact per-step [`dt_tensor::pool::stats`] deltas.
pub struct StepMeasurement {
    pub m: usize,
    pub k: usize,
    pub batch: usize,
    pub ips_ms: f64,
    pub dt_ms: f64,
    pub ips_allocs_per_step: f64,
    pub dt_allocs_per_step: f64,
}

impl StepMeasurement {
    /// What the full-table penalties cost: the `dt` step over the `ips` one.
    fn dt_over_ips(&self) -> f64 {
        self.dt_ms / self.ips_ms.max(1e-9)
    }
}

/// Warm-up: optimizer state, page faults, and one full rotation of the
/// pre-drawn batches so every recurring tape shape is parked in the pool
/// and the pooled arm measures steady state.
fn warm_up(bench: &mut TrainBench) {
    for _ in 0..bench.batches.len() {
        bench.step();
    }
}

/// Best-of-`reps` average step time in milliseconds over `steps`-step runs.
fn time_steps(bench: &mut TrainBench, reps: usize, steps: usize) -> f64 {
    warm_up(bench);
    let steps = steps.max(1);
    time_ms(reps, || {
        for _ in 0..steps {
            bench.step();
        }
    }) / steps as f64
}

/// Average fresh allocations per step over `steps` post-warm-up steps.
fn allocs_per_step(bench: &mut TrainBench, steps: usize) -> f64 {
    warm_up(bench);
    fresh_allocs_per(steps, |_| bench.step())
}

/// The sweep over table heights `ms` at embedding width `k` and batch `b`
/// (propensity batch `4b`). The artefact runs the paper-class scales:
/// `K = 64`, `B = 128`, `M ∈ {10⁴, 10⁵, 10⁶}` rows per side.
#[must_use]
pub fn run_measurements(ms: &[usize], k: usize, b: usize) -> Vec<StepMeasurement> {
    ms.iter()
        .map(|&m| {
            // The penalties make the dt step O(M·K²): scale its step count
            // down so it stays tractable at M = 10⁶, never to a single
            // cold run. The ips step is batch-bound and cheap at every M,
            // so it always gets a full 20-step sample.
            let dt_steps = (200_000 / m).clamp(1, 20);
            let ips_steps = 20;
            let reps = if m >= 1_000_000 { 2 } else { 3 };
            // Each arm's model is 4·M·K doubles; drop one bench before
            // building the next so the arms never run under the memory
            // pressure of a neighbour's live tables.
            let mut ips = TrainBench::ips(m, k, b);
            let ips_ms = time_steps(&mut ips, reps, ips_steps);
            let ips_allocs_per_step = allocs_per_step(&mut ips, ips_steps);
            drop(ips);
            let mut dt = TrainBench::dt(m, k, b);
            let dt_ms = time_steps(&mut dt, reps, dt_steps);
            let dt_allocs_per_step = allocs_per_step(&mut dt, dt_steps);
            StepMeasurement {
                m,
                k,
                batch: b,
                ips_ms,
                dt_ms,
                ips_allocs_per_step,
                dt_allocs_per_step,
            }
        })
        .collect()
}

/// Renders the report as JSON (schema `dt-bench/train_step/v4`).
#[must_use]
pub fn render_report(results: &[StepMeasurement]) -> String {
    let header = crate::report::bench_header(
        "dt-bench/train_step/v4",
        "best-of-N per-step wall times for one DT-IPS training step over \
         M x K tables, recorded on one tape as the trainers record it and \
         minimised in one Adam step (Optimizer::minimize): the IPS-weighted \
         squared error sigmoid -> squared_error -> weighted_mean on a B \
         observed batch, weighted by the clipped inverse propensities (a \
         constant), plus bce_mean on a 4B uniform batch. ips = those two \
         losses (row-sparse gradients, lazy Adam; batch-bound); dt = ips + \
         the DT penalties over the whole rating tables through slice_cols, \
         beta * disentangle / M + gamma * regulariser / (M * N) with beta = \
         gamma = 0.01 and a 3K/4 primary block (the step DtRecommender::fit \
         trains; dense gradients, O(M * K^2)). dt_over_ips = dt_ms / ips_ms. \
         allocs_per_step counts buffers drawn from the global allocator per \
         step (dt_tensor::pool::stats).",
        Some(dt_parallel::num_threads()),
    );
    crate::report::with_results(header, results, |r| {
        format!(
            "\"m\": {}, \"k\": {}, \"batch\": {}, \
             \"ips_ms\": {:.3}, \"dt_ms\": {:.3}, \"dt_over_ips\": {:.1}, \
             \"ips_allocs_per_step\": {:.1}, \"dt_allocs_per_step\": {:.1}",
            r.m,
            r.k,
            r.batch,
            r.ips_ms,
            r.dt_ms,
            r.dt_over_ips(),
            r.ips_allocs_per_step,
            r.dt_allocs_per_step,
        )
    })
}

/// Runs the sweep and writes the report to `path`: the artefact's
/// scales, or with `smoke` the unit tests' `M = 64`, `K = 4`, `B = 8`.
///
/// # Errors
/// Propagates the underlying file-write error.
pub fn write(path: &Path, smoke: bool) -> std::io::Result<()> {
    let results = if smoke {
        run_measurements(&[64], 4, 8)
    } else {
        run_measurements(&[10_000, 100_000, 1_000_000], 64, 128)
    };
    crate::report::write_report(path, &render_report(&results), &results, |r| {
        format!(
            "train_step M={:7} K={} B={}  ips {:8.3} ms  dt {:10.3} ms  \
             dt/ips {:7.1}x  allocs {:3.1} (dt {:3.1})",
            r.m,
            r.k,
            r.batch,
            r.ips_ms,
            r.dt_ms,
            r.dt_over_ips(),
            r.ips_allocs_per_step,
            r.dt_allocs_per_step,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_tensor::pool;

    #[test]
    fn all_arms_train_and_stay_finite() {
        let _pool = crate::stats_lock();
        for (arm, mut tb) in [
            ("ips", TrainBench::ips(64, 4, 8)),
            ("dt", TrainBench::dt(64, 4, 8)),
        ] {
            for _ in 0..20 {
                tb.step();
            }
            assert!(tb.all_finite(), "arm={arm}");
        }
    }

    #[test]
    fn sparse_and_pooled_steps_are_bit_identical() {
        let _pool = crate::stats_lock();
        // The same ips step with the buffer pool off (every buffer fresh
        // from the allocator) and on: the pool changes where bytes live,
        // never what is computed.
        let mut fresh = TrainBench::ips(64, 4, 8);
        let mut pooled = TrainBench::ips(64, 4, 8);
        for step in 0..12 {
            pool::with_disabled(|| fresh.step());
            pooled.step();
            let (a, b) = (fresh.param_checksum(), pooled.param_checksum());
            assert!(
                a.to_bits() == b.to_bits(),
                "step {step}: pool off {a:?} != pool on {b:?}"
            );
        }
    }

    #[test]
    fn pooled_steps_are_bit_identical_across_thread_widths() {
        let _pool = crate::stats_lock();
        // Shapes large enough that the gathered blocks cross the parallel
        // kernel thresholds, so the width sweep exercises real fan-out.
        let run = |pooled: bool| -> Vec<u64> {
            let mut tb = TrainBench::ips(4096, 32, 512);
            (0..3)
                .map(|_| {
                    if pooled {
                        tb.step();
                    } else {
                        pool::with_disabled(|| tb.step());
                    }
                    tb.param_checksum().to_bits()
                })
                .collect()
        };
        let base = dt_parallel::with_thread_limit(1, || run(true));
        for width in [1usize, 2, 8] {
            let fresh = dt_parallel::with_thread_limit(width, || run(false));
            let pooled = dt_parallel::with_thread_limit(width, || run(true));
            assert_eq!(base, fresh, "fresh-alloc step drifted at width {width}");
            assert_eq!(base, pooled, "pooled step drifted at width {width}");
        }
    }

    #[test]
    fn dt_steps_are_bit_identical_across_thread_widths() {
        let _pool = crate::stats_lock();
        // Tall enough that the Grams cross the reduction-chunk boundary and
        // every kernel of the penalty sweep fans out.
        let run = || -> Vec<u64> {
            let mut tb = TrainBench::dt(1537, 16, 64);
            (0..3)
                .map(|_| {
                    tb.step();
                    tb.param_checksum().to_bits()
                })
                .collect()
        };
        let base = dt_parallel::with_thread_limit(1, run);
        for width in [2usize, 8] {
            assert_eq!(
                base,
                dt_parallel::with_thread_limit(width, run),
                "width {width}"
            );
        }
    }

    #[test]
    fn dt_penalties_train_the_rating_tables_densely() {
        let _pool = crate::stats_lock();
        let mut ips = TrainBench::ips(64, 4, 8);
        let mut dt = TrainBench::dt(64, 4, 8);
        ips.step();
        dt.step();
        // Same inputs, different objective; the penalties reach rows no
        // batch touched.
        assert_ne!(
            ips.param_checksum().to_bits(),
            dt.param_checksum().to_bits()
        );
        let (user, item) = (dt.model.user, dt.model.item);
        let untouched = |tb: &TrainBench, id: ParamId| {
            let init = DtIpsModel::new(64, 4, 0x9E37_79B9_7F4A_7C15 ^ 64);
            (0..64)
                .filter(|&r| tb.model.params.value(id).row(r) == init.params.value(id).row(r))
                .count()
        };
        assert_eq!(untouched(&dt, user) + untouched(&dt, item), 0);
        assert!(untouched(&ips, user) + untouched(&ips, item) > 0);
    }

    #[test]
    fn dt_arm_draws_no_fresh_buffers_after_warmup() {
        let _pool = crate::stats_lock();
        let mut dt = TrainBench::dt(64, 4, 8);
        assert_eq!(allocs_per_step(&mut dt, 6), 0.0);
    }

    #[test]
    fn pooled_arm_reuses_buffers_after_warmup() {
        let _pool = crate::stats_lock();
        // The ips step reuses every tape and kernel buffer once the
        // warm-up has parked each recurring shape in the pool.
        let mut ips = TrainBench::ips(64, 4, 8);
        assert_eq!(allocs_per_step(&mut ips, 6), 0.0);
    }

    #[test]
    fn ips_weights_are_clipped_inverse_propensities() {
        let _pool = crate::stats_lock();
        let model = DtIpsModel::new(16, 3, 7);
        let batches = make_batches(16, 4, 1, 9);
        let w = ips_weights(&model.params, model.p_user, model.p_item, &batches[0]);
        assert_eq!((w.rows(), w.cols()), (4, 1));
        for r in 0..4 {
            let v = w.get(r, 0);
            assert!((1.0..=20.0).contains(&v), "weight {v} outside [1, 1/0.05]");
        }
    }

    #[test]
    fn report_shape_is_valid() {
        let m = StepMeasurement {
            m: 100_000,
            k: 64,
            batch: 128,
            ips_ms: 2.0,
            dt_ms: 40.0,
            ips_allocs_per_step: 0.0,
            dt_allocs_per_step: 0.0,
        };
        let json = render_report(&[m]);
        assert!(json.contains("\"schema\": \"dt-bench/train_step/v4\""));
        assert!(json.contains("\"ips_ms\": 2.000"));
        assert!(json.contains("\"dt_ms\": 40.000"));
        assert!(json.contains("\"dt_over_ips\": 20.0"));
        assert!(json.contains("\"ips_allocs_per_step\": 0.0"));
        assert!(json.contains("\"dt_allocs_per_step\": 0.0"));
        assert!(json.contains("\"git_rev\": \""));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn report_host_threads_is_validated() {
        let json = render_report(&[]);
        let host = json
            .lines()
            .find_map(|l| l.trim().strip_prefix("\"host_threads\": "))
            .and_then(|v| v.trim_end_matches(',').parse::<usize>().ok())
            .expect("host_threads field present and numeric");
        assert!(host >= 1);
        assert_eq!(host, crate::report::host_threads());
    }
}
