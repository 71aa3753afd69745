//! Worker-side state and the per-epoch compute sweep.
//!
//! A worker owns a contiguous row range of `P` outright (row grid, §3.3),
//! keeps a private copy of `Q`, and sweeps its shard with Hogwild SGD. Shard
//! entries are stored with row indices already rebased to the worker's range
//! so the hot loop indexes `local_p` directly.

use crate::config::{Optimizer, WorkerSpec};
use hcc_sgd::{
    rule_epoch, AdaGrad, AdaGradState, HogwildConfig, Momentum, MomentumState, Schedule, Sgd,
    SharedFactors,
};
use hcc_sparse::Rating;
use std::ops::Range;
use std::time::Instant;

/// Entries per throttle slice: small enough that a throttled worker's sleep
/// injection tracks its target rate closely, large enough to amortize the
/// per-call thread spawn.
const THROTTLE_CHUNK: usize = 65_536;

/// The update rule a worker sweeps its shard with, holding the rule's
/// per-row state (reset on repartition, which re-creates worker states).
pub(crate) enum Rule {
    Sgd,
    AdaGrad(AdaGrad),
    Momentum(Momentum),
}

impl Rule {
    /// The rule for `optimizer`, with state for `rows` local `P` rows and
    /// `n` `Q` rows at dimension `k`.
    pub fn new(optimizer: Optimizer, rows: usize, n: usize, k: usize) -> Rule {
        match optimizer {
            Optimizer::Sgd => Rule::Sgd,
            Optimizer::AdaGrad { eta0, epsilon } => {
                Rule::AdaGrad(AdaGrad::new(eta0, epsilon, AdaGradState::new(rows, n, k)))
            }
            Optimizer::Momentum { beta } => {
                Rule::Momentum(Momentum::new(beta, MomentumState::new(rows, n, k)))
            }
        }
    }
}

/// One worker's in-memory state.
pub(crate) struct WorkerState {
    /// Static description.
    pub spec: WorkerSpec,
    /// Shard entries; `u` is rebased by `row_range.start`.
    pub entries: Vec<Rating>,
    /// Entry buckets per pipeline stream (column-chunked; empty when the
    /// async path is off). `stream_buckets[s]` holds the entries whose
    /// column falls in stream `s`'s chunk of `Q`.
    pub stream_buckets: Vec<Vec<Rating>>,
    /// Owned global `P` rows.
    pub row_range: Range<u32>,
    /// Local `P` slice, `row_range.len() × k`.
    pub local_p: SharedFactors,
    /// Local `Q` copy, `n × k`.
    pub local_q: SharedFactors,
    /// The update rule and its state.
    pub rule: Rule,
    /// Entry-to-thread schedule of the Hogwild sweep.
    pub schedule: Schedule,
}

impl WorkerState {
    /// Runs one Hogwild epoch of the worker's update rule over the shard (or
    /// one stream bucket), honouring the throttle.
    pub fn compute(&self, entries: &[Rating], lr: f32, lambda_p: f32, lambda_q: f32) {
        let config = HogwildConfig {
            threads: self.spec.threads,
            learning_rate: lr,
            lambda_p,
            lambda_q,
            schedule: self.schedule,
        };
        let (p, q) = (&self.local_p, &self.local_q);
        let run = |chunk: &[Rating]| match &self.rule {
            Rule::Sgd => rule_epoch(chunk, p, q, &Sgd, &config),
            Rule::AdaGrad(rule) => rule_epoch(chunk, p, q, rule, &config),
            Rule::Momentum(rule) => rule_epoch(chunk, p, q, rule, &config),
        };
        if self.spec.speed_factor >= 1.0 {
            run(entries);
        } else {
            for chunk in entries.chunks(THROTTLE_CHUNK) {
                let t0 = Instant::now();
                run(chunk);
                let elapsed = t0.elapsed();
                let penalty =
                    elapsed.mul_f64((1.0 - self.spec.speed_factor) / self.spec.speed_factor);
                std::thread::sleep(penalty);
            }
        }
    }

    /// Number of rows this worker owns.
    pub fn rows(&self) -> usize {
        (self.row_range.end - self.row_range.start) as usize
    }

    /// Applies a [`FaultKind`](crate::fault::FaultKind) hook to this
    /// worker's outgoing push buffer (the CorruptPush fault): NaN-poisons
    /// the planned positions so the server's integrity check has something
    /// real to catch. Out-of-range positions are ignored.
    pub fn poison_push(&self, staging: &mut [f32], positions: &[usize]) {
        for &i in positions {
            if let Some(v) = staging.get_mut(i) {
                *v = f32::NAN;
            }
        }
    }
}

/// Rebases shard entries to a worker-local row origin.
pub(crate) fn rebase_entries(entries: &[Rating], row_lo: u32) -> Vec<Rating> {
    entries
        .iter()
        .map(|e| {
            debug_assert!(e.u >= row_lo, "entry row below shard range");
            Rating::new(e.u - row_lo, e.i, e.r)
        })
        .collect()
}

/// Buckets rebased entries by pipeline stream: stream `s` owns columns
/// `[s·n/streams, (s+1)·n/streams)`.
pub(crate) fn bucket_by_stream(entries: &[Rating], n: u32, streams: usize) -> Vec<Vec<Rating>> {
    assert!(streams >= 1);
    let chunk = n.div_ceil(streams as u32).max(1);
    let mut buckets: Vec<Vec<Rating>> = vec![Vec::new(); streams];
    for &e in entries {
        let s = ((e.i / chunk) as usize).min(streams - 1);
        buckets[s].push(e);
    }
    buckets
}

/// Column range of stream `s` (matching [`bucket_by_stream`]).
pub(crate) fn stream_col_range(n: u32, streams: usize, s: usize) -> Range<u32> {
    let chunk = n.div_ceil(streams as u32).max(1);
    let lo = (s as u32 * chunk).min(n);
    let hi = if s + 1 == streams {
        n
    } else {
        ((s as u32 + 1) * chunk).min(n)
    };
    lo..hi
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcc_sgd::FactorMatrix;

    fn make_state(speed: f64, entries: Vec<Rating>) -> WorkerState {
        WorkerState {
            spec: WorkerSpec::cpu(2).throttled(speed),
            entries,
            stream_buckets: Vec::new(),
            row_range: 0..10,
            local_p: SharedFactors::from_matrix(&FactorMatrix::random(10, 4, 1)),
            local_q: SharedFactors::from_matrix(&FactorMatrix::random(8, 4, 2)),
            rule: Rule::Sgd,
            schedule: Schedule::Stripe,
        }
    }

    fn entries(count: usize) -> Vec<Rating> {
        (0..count)
            .map(|j| Rating::new((j % 10) as u32, (j % 8) as u32, 3.0))
            .collect()
    }

    #[test]
    fn compute_updates_factors() {
        let state = make_state(1.0, entries(500));
        let before = state.local_q.snapshot();
        state.compute(&state.entries, 0.05, 0.0, 0.0);
        assert_ne!(state.local_q.snapshot(), before);
    }

    #[test]
    fn throttled_worker_is_slower() {
        let work = entries(200_000);
        let fast = make_state(1.0, work.clone());
        let slow = make_state(0.25, work);
        let timed = |state: &WorkerState| {
            let t0 = Instant::now();
            state.compute(&state.entries, 0.01, 0.0, 0.0);
            t0.elapsed()
        };
        let t_fast = timed(&fast);
        let t_slow = timed(&slow);
        // Target is 4×; accept ≥ 2× to keep the test robust on loaded CI.
        assert!(
            t_slow > t_fast * 2,
            "throttle ineffective: fast {t_fast:?} slow {t_slow:?}"
        );
    }

    #[test]
    fn rebase_shifts_rows() {
        let shard = vec![Rating::new(5, 1, 1.0), Rating::new(9, 2, 2.0)];
        let rebased = rebase_entries(&shard, 5);
        assert_eq!(rebased[0].u, 0);
        assert_eq!(rebased[1].u, 4);
        assert_eq!(rebased[1].i, 2);
    }

    #[test]
    fn stream_buckets_partition_by_column() {
        let all = entries(100);
        let buckets = bucket_by_stream(&all, 8, 3);
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), 100);
        for (s, bucket) in buckets.iter().enumerate() {
            let range = stream_col_range(8, 3, s);
            for e in bucket {
                assert!(range.contains(&e.i), "col {} outside {:?}", e.i, range);
            }
        }
    }

    #[test]
    fn stream_ranges_tile_the_columns() {
        for (n, streams) in [(8u32, 3usize), (10, 4), (5, 5), (3, 8), (100, 1)] {
            let mut covered = 0u32;
            for s in 0..streams {
                let r = stream_col_range(n, streams, s);
                assert_eq!(r.start, covered.min(n));
                covered = r.end.max(covered);
            }
            assert_eq!(covered, n, "n={n} streams={streams}");
        }
    }

    #[test]
    fn rows_counts_range() {
        let state = make_state(1.0, vec![]);
        assert_eq!(state.rows(), 10);
    }

    #[test]
    fn poison_push_hits_planned_cells_only() {
        let state = make_state(1.0, vec![]);
        let mut buf = vec![1.0f32; 8];
        state.poison_push(&mut buf, &[2, 5, 99]); // 99 out of range: ignored
        for (i, v) in buf.iter().enumerate() {
            if i == 2 || i == 5 {
                assert!(v.is_nan());
            } else {
                assert_eq!(*v, 1.0);
            }
        }
    }
}
