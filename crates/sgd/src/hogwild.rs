//! Hogwild-style asynchronous parallel SGD over an entry shard.
//!
//! This is the compute engine inside each HCC-MF CPU worker (framework step
//! ⑥): `threads` OS threads sweep the shard, updating the shared local factor
//! matrices without locks. Races on hot rows are benign per Hogwild's
//! analysis (sparse data ⇒ rare conflicts ⇒ convergence holds), which is
//! exactly the argument the paper leans on in §2.1 and §4.2.
//!
//! One sweep serves every optimizer: an [`UpdateRule`] is the per-rating
//! step (plain [`Sgd`], [`AdaGrad`](crate::adagrad::AdaGrad),
//! [`Momentum`](crate::momentum::Momentum)) plus its per-row state, and
//! [`rule_epoch`] / [`rule_epoch_tiled`] run it under either schedule.
//!
//! Two schedules decide *which* entries a thread sweeps:
//!
//! * [`Schedule::Stripe`] — thread `t` handles `entries[t], entries[t +
//!   threads], …` in shuffled arrival order. Maximally decorrelated, but at
//!   `k = 128` every update touches two ~512 B factor rows at effectively
//!   random addresses, so both rows miss L2 almost every step.
//! * [`Schedule::Tiled`] — the shard is pre-bucketed into L2-sized
//!   `u_block × i_block` tiles ([`hcc_sparse::TileGrid`]) and threads claim
//!   whole tiles from a shared atomic cursor. All factor rows a tile touches
//!   fit in cache, so each row is reused for every rating in the tile.
//!   Convergence is unaffected: order within a tile stays shuffled, and
//!   Hogwild tolerates any visiting order.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::factors::SharedFactors;
use crate::kernel::sgd_step_shared;
use hcc_sparse::{Rating, TileGrid};

/// Which entry-to-thread assignment [`rule_epoch`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Interleaved striping over the shuffled entry list (the classic
    /// Hogwild layout; the seed's only behaviour).
    #[default]
    Stripe,
    /// Cache-tiled: threads claim whole L2-sized tiles of the rating matrix.
    Tiled,
}

impl Schedule {
    /// CLI-facing name (`stripe` | `tiled`).
    pub fn name(self) -> &'static str {
        match self {
            Schedule::Stripe => "stripe",
            Schedule::Tiled => "tiled",
        }
    }
}

impl std::str::FromStr for Schedule {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "stripe" => Ok(Schedule::Stripe),
            "tiled" => Ok(Schedule::Tiled),
            other => Err(format!(
                "unknown schedule '{other}' (expected 'stripe' or 'tiled')"
            )),
        }
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Configuration for one Hogwild epoch.
#[derive(Debug, Clone, Copy)]
pub struct HogwildConfig {
    /// Worker threads to spawn (1 = serial, still through the shared path).
    pub threads: usize,
    /// Learning rate γ for this epoch.
    pub learning_rate: f32,
    /// L2 regularization on `P` (λ1).
    pub lambda_p: f32,
    /// L2 regularization on `Q` (λ2).
    pub lambda_q: f32,
    /// Entry-to-thread assignment.
    pub schedule: Schedule,
}

impl HogwildConfig {
    /// Config with the paper's defaults (γ = 0.005, striped) and a given
    /// thread count.
    pub fn with_threads(threads: usize, lambda: f32) -> Self {
        HogwildConfig {
            threads,
            learning_rate: 0.005,
            lambda_p: lambda,
            lambda_q: lambda,
            schedule: Schedule::Stripe,
        }
    }
}

/// One per-rating update on shared `P`/`Q` rows, plus whatever per-row
/// state the rule keeps. The generic sweeps ([`rule_epoch`],
/// [`rule_epoch_tiled`]) call [`step`](UpdateRule::step) once per rating on
/// every Hogwild thread at once, so a rule's state must tolerate the same
/// benign races as the factor rows themselves.
pub trait UpdateRule: Sync {
    /// f32 lanes of per-thread scratch one step needs at latent dimension
    /// `k` (the sweep allocates them once per thread).
    fn scratch_len(&self, _k: usize) -> usize {
        0
    }

    /// Updates `P` row `e.u` and `Q` row `e.i` towards rating `e.r` and
    /// returns the error `r − p·q` measured *before* the update. `config`
    /// carries the epoch's learning rate and L2 weights.
    fn step(
        &self,
        p: &SharedFactors,
        q: &SharedFactors,
        e: Rating,
        config: &HogwildConfig,
        scratch: &mut [f32],
    ) -> f32;
}

/// Plain SGD: the fused SIMD step of [`sgd_step_shared`] at
/// `config.learning_rate`. Keeps no state.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sgd;

impl UpdateRule for Sgd {
    #[inline]
    fn step(
        &self,
        p: &SharedFactors,
        q: &SharedFactors,
        e: Rating,
        config: &HogwildConfig,
        _scratch: &mut [f32],
    ) -> f32 {
        sgd_step_shared(
            p,
            q,
            e.u as usize,
            e.i as usize,
            e.r,
            config.learning_rate,
            config.lambda_p,
            config.lambda_q,
        )
    }
}

/// Runs one asynchronous plain-SGD epoch over `entries`, updating `p` and
/// `q` in place: [`rule_epoch`] with the [`Sgd`] rule.
///
/// # Panics
/// Panics if `config.threads == 0` or if an entry indexes outside `p`/`q`.
pub fn hogwild_epoch(
    entries: &[Rating],
    p: &SharedFactors,
    q: &SharedFactors,
    config: &HogwildConfig,
) -> f64 {
    rule_epoch(entries, p, q, &Sgd, config)
}

/// Plain-SGD epoch over a pre-built [`TileGrid`]: [`rule_epoch_tiled`] with
/// the [`Sgd`] rule.
///
/// # Panics
/// Panics if `config.threads == 0` or if a tile entry indexes outside `p`/`q`.
pub fn hogwild_epoch_tiled(
    grid: &TileGrid,
    p: &SharedFactors,
    q: &SharedFactors,
    config: &HogwildConfig,
) -> f64 {
    rule_epoch_tiled(grid, p, q, &Sgd, config)
}

/// Runs one asynchronous epoch of `rule` over `entries`, updating `p` and
/// `q` (and the rule's state) in place.
///
/// With [`Schedule::Stripe`], entries are processed in stripes: thread `t`
/// handles `entries[t], entries[t + threads], …`. Striping (rather than
/// chunking) interleaves hot head-of-file rows across threads, which matters
/// after the preprocessing shuffle has already randomized order. With
/// [`Schedule::Tiled`], a [`TileGrid`] is built for the shard (one `O(nnz)`
/// counting sort) and threads claim whole tiles; callers that run many epochs
/// over the same shard should build the grid once and use
/// [`rule_epoch_tiled`] instead.
///
/// Returns the summed squared prediction error observed during the sweep
/// (errors are measured *before* each update, so this is a running training
/// loss, not a post-epoch loss).
///
/// # Panics
/// Panics if `config.threads == 0` or if an entry indexes outside `p`/`q`.
pub fn rule_epoch<R: UpdateRule + ?Sized>(
    entries: &[Rating],
    p: &SharedFactors,
    q: &SharedFactors,
    rule: &R,
    config: &HogwildConfig,
) -> f64 {
    assert!(config.threads > 0, "thread count must be non-zero");
    let k = p.k();
    assert_eq!(q.k(), k, "P and Q must share latent dimension");

    if entries.is_empty() {
        return 0.0;
    }

    match config.schedule {
        Schedule::Stripe => {
            let threads = config.threads.min(entries.len());
            on_threads(threads, |t| {
                sweep_stripe(entries, t, threads, p, q, rule, config)
            })
        }
        Schedule::Tiled => {
            let grid = TileGrid::with_default_budget(entries, p.rows(), q.rows(), k);
            rule_epoch_tiled(&grid, p, q, rule, config)
        }
    }
}

/// Tile-scheduled epoch of `rule` over a pre-built [`TileGrid`]; the fast
/// path when the same shard is swept many times (training loops,
/// benchmarks), since the per-epoch counting sort in [`rule_epoch`] is
/// skipped. `config.schedule` is not consulted.
///
/// Threads claim tiles from a shared atomic cursor, so tile load imbalance
/// (Zipf-skewed shards concentrate mass in few tiles) self-levels the way
/// work stealing does.
///
/// # Panics
/// Panics if `config.threads == 0` or if a tile entry indexes outside `p`/`q`.
pub fn rule_epoch_tiled<R: UpdateRule + ?Sized>(
    grid: &TileGrid,
    p: &SharedFactors,
    q: &SharedFactors,
    rule: &R,
    config: &HogwildConfig,
) -> f64 {
    assert!(config.threads > 0, "thread count must be non-zero");
    let k = p.k();
    assert_eq!(q.k(), k, "P and Q must share latent dimension");

    if grid.is_empty() {
        return 0.0;
    }

    let threads = config.threads.min(grid.num_tiles());
    let cursor = AtomicUsize::new(0);
    on_threads(threads, |_| sweep_tiles(grid, &cursor, p, q, rule, config))
}

/// Runs `sweep(t)` for every thread index `t < threads` (inline when
/// `threads == 1`, else on scoped threads) and sums the returned losses.
fn on_threads(threads: usize, sweep: impl Fn(usize) -> f64 + Sync) -> f64 {
    if threads == 1 {
        return sweep(0);
    }
    std::thread::scope(|scope| {
        let sweep = &sweep;
        let handles: Vec<_> = (0..threads)
            .map(|t| scope.spawn(move || sweep(t)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .sum()
    })
}

fn sweep_stripe<R: UpdateRule + ?Sized>(
    entries: &[Rating],
    offset: usize,
    stride: usize,
    p: &SharedFactors,
    q: &SharedFactors,
    rule: &R,
    config: &HogwildConfig,
) -> f64 {
    let mut scratch = vec![0f32; rule.scratch_len(p.k())];
    let mut sq_err = 0.0f64;
    let mut idx = offset;
    while idx < entries.len() {
        let err = rule.step(p, q, entries[idx], config, &mut scratch);
        sq_err += (err as f64) * (err as f64);
        idx += stride;
    }
    sq_err
}

fn sweep_tiles<R: UpdateRule + ?Sized>(
    grid: &TileGrid,
    cursor: &AtomicUsize,
    p: &SharedFactors,
    q: &SharedFactors,
    rule: &R,
    config: &HogwildConfig,
) -> f64 {
    let mut scratch = vec![0f32; rule.scratch_len(p.k())];
    let mut sq_err = 0.0f64;
    loop {
        // ordering: Relaxed — work-stealing tile cursor: the RMW's own
        // atomicity already hands each tile index to exactly one worker;
        // tile entries are immutable shared data published by the spawn
        // edge, so no extra ordering is needed.
        let t = cursor.fetch_add(1, Ordering::Relaxed);
        if t >= grid.num_tiles() {
            return sq_err;
        }
        for &e in grid.tile(t) {
            let err = rule.step(p, q, e, config, &mut scratch);
            sq_err += (err as f64) * (err as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adagrad::{AdaGrad, AdaGradState};
    use crate::factors::FactorMatrix;
    use crate::loss::rmse;
    use crate::momentum::{Momentum, MomentumState};
    use hcc_sparse::{GenConfig, SyntheticDataset};

    fn setup(k: usize) -> (SyntheticDataset, SharedFactors, SharedFactors) {
        let ds = SyntheticDataset::generate(GenConfig {
            rows: 200,
            cols: 100,
            nnz: 5_000,
            noise: 0.0,
            ..GenConfig::default()
        });
        let p = SharedFactors::from_matrix(&FactorMatrix::random(200, k, 11));
        let q = SharedFactors::from_matrix(&FactorMatrix::random(100, k, 12));
        (ds, p, q)
    }

    fn cfg(threads: usize, schedule: Schedule) -> HogwildConfig {
        HogwildConfig {
            threads,
            learning_rate: 0.02,
            lambda_p: 0.01,
            lambda_q: 0.01,
            schedule,
        }
    }

    #[test]
    fn single_thread_epoch_reduces_rmse() {
        let (ds, p, q) = setup(8);
        let cfg = cfg(1, Schedule::Stripe);
        let before = rmse(ds.matrix.entries(), &p.snapshot(), &q.snapshot());
        for _ in 0..15 {
            hogwild_epoch(ds.matrix.entries(), &p, &q, &cfg);
        }
        let after = rmse(ds.matrix.entries(), &p.snapshot(), &q.snapshot());
        assert!(after < before * 0.5, "rmse {before} -> {after}");
    }

    #[test]
    fn multi_thread_epoch_converges_too() {
        let (ds, p, q) = setup(8);
        let cfg = cfg(4, Schedule::Stripe);
        let before = rmse(ds.matrix.entries(), &p.snapshot(), &q.snapshot());
        for _ in 0..15 {
            hogwild_epoch(ds.matrix.entries(), &p, &q, &cfg);
        }
        let after = rmse(ds.matrix.entries(), &p.snapshot(), &q.snapshot());
        assert!(after < before * 0.5, "rmse {before} -> {after}");
    }

    #[test]
    fn tiled_schedule_reaches_same_rmse_band_as_striping() {
        // Convergence parity: same data, same inits, 15 epochs each way.
        let (ds, p_s, q_s) = setup(8);
        let (_, p_t, q_t) = setup(8);
        for _ in 0..15 {
            hogwild_epoch(ds.matrix.entries(), &p_s, &q_s, &cfg(4, Schedule::Stripe));
            hogwild_epoch(ds.matrix.entries(), &p_t, &q_t, &cfg(4, Schedule::Tiled));
        }
        let rmse_stripe = rmse(ds.matrix.entries(), &p_s.snapshot(), &q_s.snapshot());
        let rmse_tiled = rmse(ds.matrix.entries(), &p_t.snapshot(), &q_t.snapshot());
        // Both must have converged hard, and land in the same band (±25%).
        assert!(
            rmse_stripe < 0.5,
            "stripe failed to converge: {rmse_stripe}"
        );
        assert!(rmse_tiled < 0.5, "tiled failed to converge: {rmse_tiled}");
        let ratio = rmse_tiled / rmse_stripe;
        assert!(
            (0.75..1.34).contains(&ratio),
            "rmse band mismatch: {rmse_stripe} vs {rmse_tiled}"
        );
    }

    type MakeRule = fn(usize) -> Box<dyn UpdateRule>;

    /// Every rule, as a factory of fresh instances at dimension `k` (state
    /// sized for [`setup`]'s 200 × 100 factors): two calls give two rules
    /// that start out equal.
    fn rules() -> [(&'static str, MakeRule); 3] {
        [
            ("sgd", |_| Box::new(Sgd)),
            ("adagrad", |k| {
                Box::new(AdaGrad::new(0.05, 1e-8, AdaGradState::new(200, 100, k)))
            }),
            ("momentum", |k| {
                Box::new(Momentum::new(0.9, MomentumState::new(200, 100, k)))
            }),
        ]
    }

    #[test]
    fn tiled_epoch_over_prebuilt_grid_matches_adhoc() {
        // rule_epoch(Tiled) and rule_epoch_tiled over the same grid must do
        // the same updates (single thread => deterministic order).
        for (name, make_rule) in rules() {
            let (ds, p_a, q_a) = setup(8);
            let (_, p_b, q_b) = setup(8);
            let config = cfg(1, Schedule::Tiled);
            let loss_a = rule_epoch(ds.matrix.entries(), &p_a, &q_a, &*make_rule(8), &config);
            let grid =
                TileGrid::with_default_budget(ds.matrix.entries(), p_b.rows(), q_b.rows(), p_b.k());
            let loss_b = rule_epoch_tiled(&grid, &p_b, &q_b, &*make_rule(8), &config);
            assert_eq!(loss_a, loss_b, "{name}");
            assert_eq!(p_a.snapshot(), p_b.snapshot(), "{name}");
            assert_eq!(q_a.snapshot(), q_b.snapshot(), "{name}");
        }
    }

    #[test]
    fn empty_shard_is_noop() {
        let (_, p, q) = setup(4);
        let snap = p.snapshot();
        let cfg = HogwildConfig::with_threads(4, 0.01);
        let loss = hogwild_epoch(&[], &p, &q, &cfg);
        assert_eq!(loss, 0.0);
        assert_eq!(p.snapshot(), snap);
        let grid = TileGrid::with_default_budget(&[], p.rows(), q.rows(), p.k());
        assert_eq!(hogwild_epoch_tiled(&grid, &p, &q, &cfg), 0.0);
        assert_eq!(p.snapshot(), snap);
    }

    #[test]
    fn more_threads_than_entries_is_fine() {
        let (ds, p, q) = setup(4);
        let few = &ds.matrix.entries()[..3];
        let cfg = HogwildConfig::with_threads(16, 0.01);
        let loss = hogwild_epoch(few, &p, &q, &cfg);
        assert!(loss.is_finite());
        let tiled = HogwildConfig {
            schedule: Schedule::Tiled,
            ..cfg
        };
        let loss = hogwild_epoch(few, &p, &q, &tiled);
        assert!(loss.is_finite());
    }

    #[test]
    fn returned_loss_is_sum_of_squared_errors_single_thread() {
        // Replay must hit the same backend as the epoch for exact equality.
        let _guard = crate::simd::test_lock();
        for (name, make_rule) in rules() {
            for schedule in [Schedule::Stripe, Schedule::Tiled] {
                let (ds, p, q) = setup(4);
                let entries = &ds.matrix.entries()[..10];
                let p2 = SharedFactors::from_matrix(&p.snapshot());
                let q2 = SharedFactors::from_matrix(&q.snapshot());
                let cfg = HogwildConfig {
                    threads: 1,
                    learning_rate: 0.01,
                    lambda_p: 0.0,
                    lambda_q: 0.0,
                    schedule,
                };
                let got = rule_epoch(entries, &p, &q, &*make_rule(4), &cfg);
                // Expected running loss from an independent serial replay
                // of the schedule's visiting order.
                let order: Vec<Rating> = match schedule {
                    Schedule::Stripe => entries.to_vec(),
                    Schedule::Tiled => {
                        let grid = TileGrid::with_default_budget(entries, p2.rows(), q2.rows(), 4);
                        (0..grid.num_tiles())
                            .flat_map(|t| grid.tile(t).to_vec())
                            .collect()
                    }
                };
                let replay = make_rule(4);
                let mut scratch = vec![0f32; replay.scratch_len(4)];
                let mut want = 0.0f64;
                for e in order {
                    let err = replay.step(&p2, &q2, e, &cfg, &mut scratch);
                    want += (err as f64) * (err as f64);
                }
                assert!((got - want).abs() < 1e-9, "{name}/{schedule}");
                assert_eq!(p.snapshot(), p2.snapshot(), "{name}/{schedule}");
                assert_eq!(q.snapshot(), q2.snapshot(), "{name}/{schedule}");
            }
        }
    }

    #[test]
    fn schedule_parses_and_displays() {
        assert_eq!("stripe".parse::<Schedule>().unwrap(), Schedule::Stripe);
        assert_eq!("tiled".parse::<Schedule>().unwrap(), Schedule::Tiled);
        assert!("diagonal".parse::<Schedule>().is_err());
        assert_eq!(Schedule::Tiled.to_string(), "tiled");
        assert_eq!(Schedule::default(), Schedule::Stripe);
    }

    #[test]
    #[should_panic(expected = "thread count")]
    fn zero_threads_panics() {
        let (ds, p, q) = setup(4);
        let cfg = HogwildConfig {
            threads: 0,
            learning_rate: 0.01,
            lambda_p: 0.0,
            lambda_q: 0.0,
            schedule: Schedule::Stripe,
        };
        hogwild_epoch(ds.matrix.entries(), &p, &q, &cfg);
    }
}
