//! AdaGrad-scaled Hogwild SGD.
//!
//! The original CuMF_SGD ships both vanilla SGD and AdaGrad kernels; the
//! HCC-MF paper trains with a fixed γ (Table 3), but per-parameter adaptive
//! steps `η_t = η₀ / √(Σ g²+ε)` remove the learning-rate tuning burden and
//! converge faster in the skewed-popularity regime (hot items see many
//! updates and get small steps; cold ones keep large steps). Provided as an
//! [`UpdateRule`] with its own accumulator state, so it runs on the same
//! stripe and tiled sweeps as plain SGD.

use crate::factors::SharedFactors;
use crate::hogwild::{HogwildConfig, UpdateRule};
use crate::kernel::dot;
use hcc_sparse::Rating;
use std::sync::atomic::Ordering;

/// Per-parameter squared-gradient accumulators.
#[derive(Debug, Clone)]
pub struct AdaGradState {
    accum_p: SharedFactors,
    accum_q: SharedFactors,
}

impl AdaGradState {
    /// Zeroed accumulators for `m × k` user and `n × k` item factors.
    pub fn new(m: usize, n: usize, k: usize) -> AdaGradState {
        AdaGradState {
            accum_p: SharedFactors::zeros(m, k),
            accum_q: SharedFactors::zeros(n, k),
        }
    }

    /// Mean accumulated squared gradient over `P` (diagnostic; grows
    /// monotonically with updates).
    pub fn mean_accum_p(&self) -> f64 {
        let snap = self.accum_p.snapshot();
        let s = snap.as_slice();
        if s.is_empty() {
            return 0.0;
        }
        s.iter().map(|&v| v as f64).sum::<f64>() / s.len() as f64
    }
}

/// The AdaGrad update rule: the shared factor step scaled per parameter by
/// its accumulated squared gradient. Runs on the generic Hogwild sweep
/// ([`rule_epoch`](crate::hogwild::rule_epoch)); the L2 weights come from
/// the sweep's [`HogwildConfig`] and its learning rate is ignored in favour
/// of `eta0`.
#[derive(Debug, Clone)]
pub struct AdaGrad {
    eta0: f32,
    epsilon: f32,
    state: AdaGradState,
}

impl AdaGrad {
    /// Rule with base step `eta0` (AdaGrad tolerates much larger values than
    /// plain SGD's γ; 0.05–0.1 is typical) and stabilizer `epsilon` inside
    /// the square root, accumulating into `state`.
    ///
    /// # Panics
    /// Panics unless `eta0` and `epsilon` are finite and positive.
    pub fn new(eta0: f32, epsilon: f32, state: AdaGradState) -> AdaGrad {
        assert!(
            eta0.is_finite() && eta0 > 0.0,
            "eta0 must be finite and > 0"
        );
        assert!(epsilon.is_finite() && epsilon > 0.0, "epsilon must be > 0");
        AdaGrad {
            eta0,
            epsilon,
            state,
        }
    }
}

impl UpdateRule for AdaGrad {
    fn scratch_len(&self, k: usize) -> usize {
        2 * k
    }

    #[inline]
    fn step(
        &self,
        p: &SharedFactors,
        q: &SharedFactors,
        e: Rating,
        config: &HogwildConfig,
        scratch: &mut [f32],
    ) -> f32 {
        let k = p.k();
        debug_assert_eq!(scratch.len(), 2 * k);
        let (u, i) = (e.u as usize, e.i as usize);
        let (pl, ql) = scratch.split_at_mut(k);
        p.load_row_into(u, pl);
        q.load_row_into(i, ql);
        let p_cells = p.row_cells(u);
        let q_cells = q.row_cells(i);
        let ap_cells = self.state.accum_p.row_cells(u);
        let aq_cells = self.state.accum_q.row_cells(i);
        let err = e.r - dot(pl, ql);
        for j in 0..k {
            let gp = err * ql[j] - config.lambda_p * pl[j];
            let gq = err * pl[j] - config.lambda_q * ql[j];
            // ordering: Relaxed throughout this step — Hogwild cells (factor
            // and AdaGrad accumulator alike) carry no cross-cell ordering;
            // racing read-modify-write interleavings lose increments at
            // worst, which the asynchronous-SGD convergence argument
            // tolerates.
            let ap = f32::from_bits(ap_cells[j].load(Ordering::Relaxed)) + gp * gp;
            let aq = f32::from_bits(aq_cells[j].load(Ordering::Relaxed)) + gq * gq;
            ap_cells[j].store(ap.to_bits(), Ordering::Relaxed);
            aq_cells[j].store(aq.to_bits(), Ordering::Relaxed);
            let p_new = pl[j] + self.eta0 * gp / (ap + self.epsilon).sqrt();
            let q_new = ql[j] + self.eta0 * gq / (aq + self.epsilon).sqrt();
            // ordering: Relaxed — see the step-level note above.
            p_cells[j].store(p_new.to_bits(), Ordering::Relaxed);
            q_cells[j].store(q_new.to_bits(), Ordering::Relaxed);
        }
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hogwild::{hogwild_epoch, rule_epoch};
    use crate::loss::rmse;
    use crate::FactorMatrix;
    use hcc_sparse::{GenConfig, SyntheticDataset};

    fn setup() -> (SyntheticDataset, SharedFactors, SharedFactors, AdaGrad) {
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 200,
            cols: 100,
            nnz: 5_000,
            noise: 0.0,
            ..GenConfig::default()
        });
        let p = SharedFactors::from_matrix(&FactorMatrix::random(200, 8, 11));
        let q = SharedFactors::from_matrix(&FactorMatrix::random(100, 8, 12));
        let rule = AdaGrad::new(0.05, 1e-8, AdaGradState::new(200, 100, 8));
        (ds, p, q, rule)
    }

    #[test]
    fn adagrad_step_matches_hand_computed_gradient() {
        // k=2, p=[1,2], q=[3,4], r=12, η₀=0.1, ε=1e-8, λp=0.01, λq=0.02.
        // Step 1: e = 1, g_p = [2.99, 3.98], g_q = [0.94, 1.92]; fresh
        // accumulators make each move ≈ η₀·sign(g): p=[1.1,2.1], q=[3.1,4.1].
        // Step 2: e = 12 − 12.02 = −0.02, g_p0 = −0.02·3.1 − 0.011 = −0.073,
        // a_p0 = 2.99² + 0.073² = 8.945429, p0 = 1.1 − 0.1·0.073/√a_p0.
        let p = SharedFactors::from_matrix(&FactorMatrix::from_vec(1, 2, vec![1.0, 2.0]));
        let q = SharedFactors::from_matrix(&FactorMatrix::from_vec(1, 2, vec![3.0, 4.0]));
        let rule = AdaGrad::new(0.1, 1e-8, AdaGradState::new(1, 1, 2));
        let config = HogwildConfig {
            lambda_q: 0.02,
            ..HogwildConfig::with_threads(1, 0.01)
        };
        let mut scratch = vec![0f32; rule.scratch_len(2)];
        let rating = Rating::new(0, 0, 12.0);
        let close = |m: &SharedFactors, want: [f32; 2]| {
            for (got, want) in m.snapshot().as_slice().iter().zip(want) {
                assert!((got - want).abs() < 1e-5, "{got} vs {want}");
            }
        };
        let e = rule.step(&p, &q, rating, &config, &mut scratch);
        assert!((e - 1.0).abs() < 1e-6);
        close(&p, [1.1, 2.1]);
        close(&q, [3.1, 4.1]);
        let e = rule.step(&p, &q, rating, &config, &mut scratch);
        assert!((e + 0.02).abs() < 1e-5, "e {e}");
        close(&p, [1.097_559_3, 2.097_413]);
        close(&q, [3.091_099_3, 4.093_555]);
        // Mean of a_p = (8.945429 + 15.851009) / 2.
        assert!((rule.state.mean_accum_p() - 12.398_219).abs() < 1e-4);
    }

    #[test]
    fn adagrad_converges() {
        let (ds, p, q, rule) = setup();
        let (entries, cfg) = (ds.matrix.entries(), HogwildConfig::with_threads(2, 0.01));
        let before = rmse(entries, &p.snapshot(), &q.snapshot());
        for _ in 0..15 {
            rule_epoch(entries, &p, &q, &rule, &cfg);
        }
        let after = rmse(entries, &p.snapshot(), &q.snapshot());
        assert!(after < before * 0.5, "{before} -> {after}");
    }

    #[test]
    fn adagrad_beats_plain_sgd_in_few_epochs() {
        // With the same (aggressive) base step, plain SGD oscillates where
        // AdaGrad's per-parameter damping keeps progress steady.
        let (ds, p, q, _) = setup();
        let (entries, cfg) = (ds.matrix.entries(), HogwildConfig::with_threads(1, 0.01));
        let rule = AdaGrad::new(0.1, 1e-8, AdaGradState::new(200, 100, 8));
        for _ in 0..5 {
            rule_epoch(entries, &p, &q, &rule, &cfg);
        }
        let ada = rmse(entries, &p.snapshot(), &q.snapshot());

        let p2 = SharedFactors::from_matrix(&FactorMatrix::random(200, 8, 11));
        let q2 = SharedFactors::from_matrix(&FactorMatrix::random(100, 8, 12));
        let hw = HogwildConfig {
            learning_rate: 0.1,
            ..cfg
        };
        for _ in 0..5 {
            hogwild_epoch(entries, &p2, &q2, &hw);
        }
        let sgd = rmse(entries, &p2.snapshot(), &q2.snapshot());
        assert!(ada < sgd, "adagrad {ada} vs sgd {sgd}");
    }

    #[test]
    fn accumulators_grow_monotonically() {
        let (ds, p, q, rule) = setup();
        let cfg = HogwildConfig::with_threads(1, 0.01);
        let mut last = 0.0;
        for _ in 0..3 {
            rule_epoch(ds.matrix.entries(), &p, &q, &rule, &cfg);
            let now = rule.state.mean_accum_p();
            assert!(now > last, "accumulator did not grow: {now} <= {last}");
            last = now;
        }
    }

    #[test]
    fn empty_entries_noop() {
        let (_, p, q, rule) = setup();
        let cfg = HogwildConfig::with_threads(1, 0.01);
        assert_eq!(rule_epoch(&[], &p, &q, &rule, &cfg), 0.0);
        assert_eq!(rule.state.mean_accum_p(), 0.0);
    }
}
