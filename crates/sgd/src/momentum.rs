//! Momentum (heavy-ball) Hogwild SGD.
//!
//! The third member of the optimizer family next to plain SGD and
//! [`adagrad`](crate::adagrad): velocity buffers smooth the Hogwild
//! gradient noise, `v ← β·v + g`, `θ ← θ + γ·v`. Useful on noisy
//! skewed-popularity data where plain SGD's per-entry steps jitter.
//! Provided as an [`UpdateRule`], so it runs on the same stripe and tiled
//! sweeps as plain SGD.

use crate::factors::SharedFactors;
use crate::hogwild::{HogwildConfig, UpdateRule};
use crate::kernel::dot;
use hcc_sparse::Rating;
use std::sync::atomic::Ordering;

/// Velocity buffers for `P` and `Q`.
#[derive(Debug, Clone)]
pub struct MomentumState {
    velocity_p: SharedFactors,
    velocity_q: SharedFactors,
}

impl MomentumState {
    /// Zeroed velocities for `m × k` user and `n × k` item factors.
    pub fn new(m: usize, n: usize, k: usize) -> MomentumState {
        MomentumState {
            velocity_p: SharedFactors::zeros(m, k),
            velocity_q: SharedFactors::zeros(n, k),
        }
    }
}

/// The heavy-ball momentum update rule at the sweep's learning rate γ.
/// Runs on the generic Hogwild sweep
/// ([`rule_epoch`](crate::hogwild::rule_epoch)).
#[derive(Debug, Clone)]
pub struct Momentum {
    beta: f32,
    state: MomentumState,
}

impl Momentum {
    /// Rule with momentum coefficient `beta`, keeping its velocities in
    /// `state`.
    ///
    /// # Panics
    /// Panics if `beta` is outside `[0, 1)`.
    pub fn new(beta: f32, state: MomentumState) -> Momentum {
        assert!((0.0..1.0).contains(&beta), "beta must be in [0, 1)");
        Momentum { beta, state }
    }
}

impl UpdateRule for Momentum {
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
        let vp_cells = self.state.velocity_p.row_cells(u);
        let vq_cells = self.state.velocity_q.row_cells(i);
        let err = e.r - dot(pl, ql);
        for j in 0..k {
            let gp = err * ql[j] - config.lambda_p * pl[j];
            let gq = err * pl[j] - config.lambda_q * ql[j];
            // ordering: Relaxed throughout — Hogwild factor and velocity
            // cells: per-cell atomicity only, racing interleavings are
            // tolerated by the asynchronous-SGD convergence argument.
            let vp = self.beta * f32::from_bits(vp_cells[j].load(Ordering::Relaxed)) + gp;
            let vq = self.beta * f32::from_bits(vq_cells[j].load(Ordering::Relaxed)) + gq;
            vp_cells[j].store(vp.to_bits(), Ordering::Relaxed);
            vq_cells[j].store(vq.to_bits(), Ordering::Relaxed);
            p_cells[j].store(
                (pl[j] + config.learning_rate * vp).to_bits(),
                Ordering::Relaxed,
            );
            q_cells[j].store(
                (ql[j] + config.learning_rate * vq).to_bits(),
                Ordering::Relaxed,
            );
        }
        err
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hogwild::{hogwild_epoch, rule_epoch, Schedule};
    use crate::loss::rmse;
    use crate::FactorMatrix;
    use hcc_sparse::{GenConfig, SyntheticDataset};

    fn setup() -> (SyntheticDataset, SharedFactors, SharedFactors, Momentum) {
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 200,
            cols: 100,
            nnz: 5_000,
            noise: 0.0,
            ..GenConfig::default()
        });
        let p = SharedFactors::from_matrix(&FactorMatrix::random(200, 8, 21));
        let q = SharedFactors::from_matrix(&FactorMatrix::random(100, 8, 22));
        let rule = Momentum::new(0.9, MomentumState::new(200, 100, 8));
        (ds, p, q, rule)
    }

    #[test]
    fn momentum_step_matches_hand_computed_gradient() {
        // k=2, p=[1,2], q=[3,4], r=12, γ=0.1, β=0.5, λp=0.01, λq=0.02.
        // Step 1 (zero velocity) is the plain SGD step: v_p = g_p =
        // [2.99, 3.98], v_q = [0.94, 1.92], p=[1.299,2.398], q=[3.094,4.192].
        // Step 2: e = 12 − 14.071522 = −2.071522,
        // v_p0 = 0.5·2.99 + (e·3.094 − 0.01·1.299) = −4.927279,
        // p0 = 1.299 + 0.1·v_p0 = 0.806272.
        let p = SharedFactors::from_matrix(&FactorMatrix::from_vec(1, 2, vec![1.0, 2.0]));
        let q = SharedFactors::from_matrix(&FactorMatrix::from_vec(1, 2, vec![3.0, 4.0]));
        let rule = Momentum::new(0.5, MomentumState::new(1, 1, 2));
        let config = HogwildConfig {
            learning_rate: 0.1,
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
        close(&p, [1.299, 2.398]);
        close(&q, [3.094, 4.192]);
        close(&rule.state.velocity_p, [2.99, 3.98]);
        let e = rule.step(&p, &q, rating, &config, &mut scratch);
        assert!((e + 2.071_522).abs() < 1e-5, "e {e}");
        close(&p, [0.806_272_1, 1.726_22]);
        close(&q, [2.865_721_3, 3.782_865]);
        close(&rule.state.velocity_q, [-2.282_787, -4.091_35]);
    }

    #[test]
    fn momentum_converges() {
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
    fn zero_beta_equals_plain_sgd() {
        // β = 0 degenerates to plain SGD (single thread, same order).
        let (ds, p, q, _) = setup();
        let entries = &ds.matrix.entries()[..200];
        let config = HogwildConfig {
            threads: 1,
            learning_rate: 0.01,
            lambda_p: 0.02,
            lambda_q: 0.03,
            schedule: Schedule::Stripe,
        };
        let rule = Momentum::new(0.0, MomentumState::new(200, 100, 8));
        rule_epoch(entries, &p, &q, &rule, &config);

        let p2 = SharedFactors::from_matrix(&FactorMatrix::random(200, 8, 21));
        let q2 = SharedFactors::from_matrix(&FactorMatrix::random(100, 8, 22));
        hogwild_epoch(entries, &p2, &q2, &config);
        let a = p.snapshot();
        let b = p2.snapshot();
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn invalid_beta_panics() {
        Momentum::new(1.0, MomentumState::new(200, 100, 8));
    }

    #[test]
    fn empty_entries_noop() {
        let (_, p, q, rule) = setup();
        let cfg = HogwildConfig::with_threads(1, 0.01);
        assert_eq!(rule_epoch(&[], &p, &q, &rule, &cfg), 0.0);
    }
}
