//! The serving workload: top-k queries through the admission pipeline, in
//! an open loop for latency and a closed window for throughput.
//!
//! The load generator is two threads: a submitter and a collector that
//! waits on tickets.

use crate::gen::Rng;
use crate::outcome::Outcome;
use crate::spec::{CAPACITY, MAX_BATCH, OPEN_RATE, ORACLE_SAMPLE, SERVE_SHARDS, TOPK, WINDOW};
use crate::stats::{median, percentile, Summary};
use crate::trace::Tracer;
use hcc_serve::{
    naive_top_k, AdmissionConfig, AdmissionPipeline, Precision, ServeEngine, ServeError, Ticket,
};
use hcc_sgd::FactorMatrix;
use hcc_sparse::{CooMatrix, CsrMatrix};
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups measured per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Open + closed rounds per run; `throughput_per_s` is their median.
const ROUNDS: usize = 8;
/// Closed-loop warm-up before measuring.
const WARMUP: Duration = Duration::from_millis(300);

/// The served model's inputs: factors, and the ratings that give the
/// seen-item filter.
pub struct ServeInputs {
    /// User factors.
    pub p: FactorMatrix,
    /// Item factors.
    pub q: FactorMatrix,
    /// Seen ratings.
    pub seen: CooMatrix,
    /// `seen` as CSR, for the oracle.
    pub seen_csr: CsrMatrix,
}

impl ServeInputs {
    /// Bundles factors with their seen-item ratings.
    pub fn new(p: FactorMatrix, q: FactorMatrix, seen: CooMatrix) -> ServeInputs {
        let seen_csr = CsrMatrix::from(&seen);
        ServeInputs {
            p,
            q,
            seen,
            seen_csr,
        }
    }

    /// Loads generated factors and ratings from `dir`.
    pub fn load(dir: &Path) -> Result<ServeInputs, String> {
        let read = |name: &str| {
            crate::gen::read_factors(&dir.join(name))
                .map(|(rows, k, data)| FactorMatrix::from_vec(rows, k, data))
                .map_err(|e| format!("{name}: {e}"))
        };
        let (p, q) = (read("p.bin")?, read("q.bin")?);
        let seen = crate::train::read_matrix(&dir.join("train.bin"))?;
        Ok(ServeInputs::new(p, q, seen))
    }

    /// Answer length the engine owes `user`: `TOPK` unless fewer items are
    /// unseen.
    pub fn expected_len(&self, user: u32) -> usize {
        let unseen = self.q.rows() - self.seen_csr.row_len(user);
        TOPK.min(unseen)
    }

    /// `n` query users drawn uniformly from `seed`.
    pub fn query_users(&self, seed: u64, n: usize) -> Vec<u32> {
        let mut rng = Rng::new(seed ^ 0x9e4e_5eed);
        (0..n).map(|_| rng.below(self.p.rows()) as u32).collect()
    }
}

/// Loads the checkpoint into a served model and starts the admission
/// pipeline in front of it — the serving set-up.
pub fn start(ckpt: &Path, seen: &CooMatrix) -> Result<AdmissionPipeline, String> {
    let model = hcc_mf::load_served_model_with(ckpt, Some(seen), SERVE_SHARDS, Precision::F32)
        .map_err(|e| format!("load_served_model_with: {e}"))?;
    let engine = Arc::new(ServeEngine::new(model));
    Ok(AdmissionPipeline::new(
        engine,
        AdmissionConfig {
            capacity: CAPACITY,
            max_batch: MAX_BATCH,
        },
    ))
}

/// Whether an answer is well formed: the owed length, distinct items,
/// finite non-increasing scores.
fn well_formed(ans: &[(u32, f32)], want_len: usize) -> bool {
    let mut items: Vec<u32> = ans.iter().map(|a| a.0).collect();
    items.sort_unstable();
    items.dedup();
    ans.len() == want_len
        && items.len() == ans.len()
        && ans.iter().all(|a| a.1.is_finite())
        && ans.windows(2).all(|w| w[0].1 >= w[1].1)
}

/// Relative score tolerance of the oracle comparison.
const SCORE_EPS: f32 = 1e-4;

fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= SCORE_EPS * (1.0 + b.abs())
}

/// Tie-tolerant rank equivalence with the naive oracle: rank by rank the
/// scores agree, and every returned item is unseen and truly has the score
/// it was returned with. Items of equal score may come in either order,
/// and either of two tied items may take the last place.
pub fn matches_oracle(inputs: &ServeInputs, user: u32, got: &[(u32, f32)]) -> bool {
    let want = naive_top_k(&inputs.p, &inputs.q, Some(&inputs.seen_csr), user, TOPK);
    let seen = inputs.seen_csr.row(user).0;
    let p_u = inputs.p.row(user as usize);
    well_formed(got, want.len())
        && got.iter().zip(&want).all(|(g, w)| close(g.1, w.1))
        && got.iter().all(|&(i, s)| {
            (i as usize) < inputs.q.rows()
                && !seen.contains(&i)
                && close(hcc_sgd::kernel::dot(p_u, inputs.q.row(i as usize)), s)
        })
}

/// What one load phase observed.
#[derive(Debug, Default)]
pub struct PhaseStats {
    /// Queries attempted.
    pub attempted: u64,
    /// Sheds, typed errors and malformed answers.
    pub failed: u64,
    /// Answered queries.
    pub answered: u64,
    /// Per-query latency, µs (open loop: from the due time).
    pub latency_us: Vec<f64>,
    /// How late the submitter sent each query, µs (open loop).
    pub late_us: Vec<f64>,
    /// Wall time from the first submit to the last answer, seconds.
    pub elapsed_s: f64,
}

/// Work handed from the submitter to the collector.
struct Sent {
    ticket: Result<Ticket, ServeError>,
    user: u32,
    due: Instant,
    span: Option<usize>,
}

/// Waits on tickets in order, checking and timing each answer.
fn collect(
    rx: mpsc::Receiver<Sent>,
    inputs: &ServeInputs,
    tracer: Option<(&Tracer, usize)>,
) -> PhaseStats {
    let mut st = PhaseStats::default();
    for sent in rx {
        let ok = match sent.ticket {
            Ok(t) => match t.wait() {
                Ok(ans) => well_formed(&ans, inputs.expected_len(sent.user)),
                Err(_) => false,
            },
            Err(_) => false,
        };
        let done = Instant::now();
        if let (Some((tr, phase)), Some(id)) = (tracer, sent.span) {
            tr.record_as(id, "serve.query", Some(phase), sent.due, done);
        }
        if ok {
            st.answered += 1;
            st.latency_us
                .push(done.saturating_duration_since(sent.due).as_secs_f64() * 1e6);
        } else {
            st.failed += 1;
        }
    }
    st
}

/// Open loop: query `i` is due at `i / rate` seconds; the submitter sleeps
/// until then and sends whether or not earlier queries were answered. Each
/// query is timed from its due time, so a stall charges every query it
/// delays. With a tracer and a parent span, each query gets a span (due →
/// answer) under the parent, with the submit call as its child.
pub fn open_loop(
    pipe: &AdmissionPipeline,
    inputs: &ServeInputs,
    users: &[u32],
    rate: f64,
    dur: Duration,
    tracer: Option<(&Tracer, usize)>,
) -> PhaseStats {
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut late = Vec::new();
    let t0 = Instant::now() + Duration::from_millis(1);
    let mut st = std::thread::scope(|s| {
        let collector = s.spawn(|| collect(rx, inputs, tracer));
        let mut i = 0usize;
        loop {
            let due = t0 + Duration::from_secs_f64(i as f64 / rate);
            if due >= t0 + dur {
                break;
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent_at = Instant::now();
            late.push(sent_at.saturating_duration_since(due).as_secs_f64() * 1e6);
            let user = users[i % users.len()];
            let ticket = pipe.submit(user, TOPK);
            let span = tracer.map(|(tr, _)| {
                let id = tr.reserve();
                tr.record("admission.submit", Some(id), sent_at, Instant::now());
                id
            });
            if tx
                .send(Sent {
                    ticket,
                    user,
                    due,
                    span,
                })
                .is_err()
            {
                break;
            }
            i += 1;
        }
        drop(tx);
        let mut st = collector
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e));
        st.attempted = i as u64;
        st
    });
    st.elapsed_s = t0.elapsed().as_secs_f64();
    st.late_us = late;
    st
}

/// Closed loop: one client keeps `WINDOW` queries in flight, sending the
/// next as soon as a slot frees. `WINDOW < CAPACITY`, so nothing sheds.
pub fn closed_loop(
    pipe: &AdmissionPipeline,
    inputs: &ServeInputs,
    users: &[u32],
    dur: Duration,
) -> PhaseStats {
    // The channel holds the window: the submitter blocks once WINDOW
    // tickets are waiting for the collector.
    let (tx, rx) = mpsc::sync_channel::<Sent>(WINDOW);
    let t0 = Instant::now();
    let mut st = std::thread::scope(|s| {
        let collector = s.spawn(|| collect(rx, inputs, None));
        let mut i = 0usize;
        while t0.elapsed() < dur {
            let user = users[i % users.len()];
            let sent = Sent {
                ticket: pipe.submit(user, TOPK),
                user,
                due: Instant::now(),
                span: None,
            };
            if tx.send(sent).is_err() {
                break;
            }
            i += 1;
        }
        drop(tx);
        let mut st = collector
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e));
        st.attempted = i as u64;
        st
    });
    st.elapsed_s = t0.elapsed().as_secs_f64();
    st
}

/// Checks the pipeline's answers for a fixed sample of users against the
/// naive oracle; returns `(attempted, failed)`.
pub fn oracle_check(pipe: &AdmissionPipeline, inputs: &ServeInputs, seed: u64) -> (u64, u64) {
    let users = inputs.query_users(seed ^ 0x04ac_1e00, ORACLE_SAMPLE);
    let failed = users
        .iter()
        .filter(|&&u| !matches!(pipe.top_k(u, TOPK), Ok(ans) if matches_oracle(inputs, u, &ans)))
        .count();
    (users.len() as u64, failed as u64)
}

/// The untraced run: measured set-ups, a warm-up, then rounds that each
/// run an open loop for latency and a closed window for throughput, then
/// the oracle check. Alternating the phases in rounds spreads a passing
/// host stall over both metrics instead of one.
pub fn run(
    seed: u64,
    seconds: f64,
    input: &Path,
    scratch: &Path,
    out: &mut Outcome,
) -> Result<Option<f64>, String> {
    let inputs = ServeInputs::load(input)?;
    let ckpt = scratch.join("serve-topk.ckpt");
    hcc_mf::save_model(&ckpt, &inputs.p, &inputs.q).map_err(|e| format!("save_model: {e}"))?;

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut pipe = None;
    for _ in 0..SETUPS {
        drop(pipe.take());
        let t0 = Instant::now();
        pipe = Some(start(&ckpt, &inputs.seen)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let pipe = pipe.ok_or("no set-up ran")?;
    out.metric("setup_s", "s", median(&setup_s));

    let mut users = inputs.query_users(seed, 1 << 16);
    let warm = closed_loop(&pipe, &inputs, &users, WARMUP);
    out.phase("warmup", warm.attempted, warm.failed);
    let round = seconds / ROUNDS as f64;
    let (mut latency, mut late, mut qps) = (vec![], vec![], vec![]);
    let (mut open_n, mut open_failed, mut closed_n, mut closed_failed) = (0, 0, 0, 0);
    for _ in 0..ROUNDS {
        let open = open_loop(
            &pipe,
            &inputs,
            &users,
            OPEN_RATE,
            Duration::from_secs_f64(round * 0.6),
            None,
        );
        let closed = closed_loop(&pipe, &inputs, &users, Duration::from_secs_f64(round * 0.4));
        latency.extend(open.latency_us);
        late.extend(open.late_us);
        qps.push(closed.answered as f64 / closed.elapsed_s);
        (open_n, open_failed) = (open_n + open.attempted, open_failed + open.failed);
        (closed_n, closed_failed) = (closed_n + closed.attempted, closed_failed + closed.failed);
        let shift = users.len() / ROUNDS;
        users.rotate_left(shift);
    }
    let (checked, wrong) = oracle_check(&pipe, &inputs, seed);
    let shed = pipe.stats().shed;
    drop(pipe);

    out.phase("open_loop", open_n, open_failed);
    out.phase("closed_loop", closed_n, closed_failed);
    out.phase("oracle_check", checked, wrong);
    out.metric("throughput_per_s", "1/s", median(&qps));
    out.metric(
        "latency_p50_ms",
        "ms",
        percentile(&latency, 50.0).map(|s| Summary {
            value: s.value * 1e-3,
            ..s
        }),
    );
    if let Some(p99) = percentile(&latency, 99.0) {
        out.note(
            "serve_p99_us",
            format!("{:.1} (n={})", p99.value, p99.samples),
        );
    }
    out.note("open_rate_qps", OPEN_RATE);
    out.note("closed_window", WINDOW);
    out.note("closed_answered", closed_n - closed_failed);
    out.note("shed", shed);
    Ok(percentile(&late, 99.0).map(|s| s.value))
}
