//! The training workloads: repeated `HccMf::train` calls on generated
//! ratings, each one checked.

use crate::outcome::Outcome;
use crate::spec::{Spec, Workload};
use crate::stats::median;
use hcc_mf::{
    HccConfig, HccMf, HccReport, PartitionMode, SupervisorConfig, TransferStrategy, TransportKind,
    WorkerSpec,
};
use hcc_sgd::{FactorMatrix, LearningRate, Schedule};
use hcc_sparse::{CooMatrix, Rating};
use std::path::Path;
use std::time::{Duration, Instant};

/// Training calls a run makes at least, however long they take.
const MIN_CALLS: u64 = 3;

/// The training inputs of one workload and seed.
pub struct TrainInputs {
    /// Training ratings.
    pub train: CooMatrix,
    /// Held-out ratings.
    pub test: Vec<Rating>,
    /// RMSE on `test` of the untrained initial factors.
    pub init_rmse: f64,
    /// RMSE on `test` of the global-mean predictor.
    pub mean_rmse: f64,
}

/// Reads a generated ratings file as the program's matrix type.
pub fn read_matrix(path: &Path) -> Result<CooMatrix, String> {
    let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    let (rows, cols, t) = crate::gen::read_triples(path).map_err(|e| fail(&e))?;
    let entries = t
        .into_iter()
        .map(|(u, i, r)| Rating::new(u, i, r))
        .collect();
    CooMatrix::new(rows, cols, entries).map_err(|e| fail(&e))
}

impl TrainInputs {
    /// Loads the generated ratings from `dir`.
    pub fn load(dir: &Path, spec: &Spec, seed: u64) -> Result<TrainInputs, String> {
        let train = read_matrix(&dir.join("train.bin"))?;
        let test = read_matrix(&dir.join("test.bin"))?.into_entries();
        // The same initial factors `HccMf::train` draws for a row grid.
        let (m, n) = (train.rows() as usize, train.cols() as usize);
        let p0 = FactorMatrix::random(m, spec.k, seed);
        let q0 = FactorMatrix::random(n, spec.k, seed ^ 0x9e37_79b9);
        let init_rmse = hcc_sgd::rmse(&test, &p0, &q0);
        let mean = train.mean_rating();
        let mean_rmse = (test
            .iter()
            .map(|e| (f64::from(e.r) - mean).powi(2))
            .sum::<f64>()
            / test.len().max(1) as f64)
            .sqrt();
        Ok(TrainInputs {
            train,
            test,
            init_rmse,
            mean_rmse,
        })
    }
}

/// The workload's training configuration. Checkpoints (train-wire) go to
/// `scratch`.
pub fn config(spec: &Spec, seed: u64, scratch: &Path) -> Result<HccConfig, String> {
    let mut b = HccConfig::builder()
        .k(spec.k)
        .epochs(spec.epochs)
        .learning_rate(LearningRate::Constant(spec.lr))
        .workers(vec![WorkerSpec::cpu(1), WorkerSpec::cpu(1)])
        .partition(PartitionMode::Dp1)
        .strategy(TransferStrategy::QOnly)
        .schedule(Schedule::Tiled)
        .seed(seed);
    b = if spec.wire {
        b.transport(TransportKind::Tcp)
            .server_shards(2)
            .fault_tolerance(SupervisorConfig::default())
            .checkpoint(scratch.join("train-wire.ckpt"), 5)
    } else {
        b.transport(TransportKind::Shared)
    };
    b.try_build().map_err(|e| format!("config: {e}"))
}

/// One checked training call.
pub struct Call {
    /// Wall time of the `train` call, seconds.
    pub train_s: f64,
    /// Σ of the report's epoch times, seconds.
    pub epochs_s: f64,
    /// RMSE on the held-out ratings.
    pub test_rmse: f64,
    /// The report.
    pub report: HccReport,
    /// Failed checks (empty when the call is correct).
    pub problems: Vec<String>,
}

impl Call {
    /// Updates per second over the epochs (paper Eq. 8).
    pub fn updates_per_s(&self) -> f64 {
        self.report.total_updates as f64 / self.epochs_s
    }

    /// Time the call spent outside its epochs, seconds.
    pub fn setup_s(&self) -> f64 {
        self.train_s - self.epochs_s
    }
}

/// Runs and checks one training call. `Err` is a typed training error.
pub fn call(cfg: &HccConfig, inputs: &TrainInputs) -> Result<Call, String> {
    let t0 = Instant::now();
    let report = HccMf::new(cfg.clone())
        .train(&inputs.train)
        .map_err(|e| format!("train: {e}"))?;
    let train_s = t0.elapsed().as_secs_f64();
    let epochs_s = report.epoch_times.iter().map(Duration::as_secs_f64).sum();
    let test_rmse = hcc_sgd::rmse(&inputs.test, &report.p, &report.q);

    let mut problems = Vec::new();
    let want = inputs.train.nnz() as u64 * cfg.epochs as u64;
    if report.total_updates != want {
        problems.push(format!(
            "total_updates {} != nnz x epochs {want}",
            report.total_updates
        ));
    }
    if report.epoch_times.len() != cfg.epochs {
        problems.push(format!(
            "{} epochs ran, {} configured",
            report.epoch_times.len(),
            cfg.epochs
        ));
    }
    let finite = |m: &FactorMatrix| m.as_slice().iter().all(|v| v.is_finite());
    if !finite(&report.p) || !finite(&report.q) {
        problems.push("non-finite factor".into());
    }
    if test_rmse.is_nan() || test_rmse >= inputs.init_rmse {
        problems.push(format!(
            "test_rmse {test_rmse:.4} not below the initial factors' {:.4}",
            inputs.init_rmse
        ));
    }
    Ok(Call {
        train_s,
        epochs_s,
        test_rmse,
        report,
        problems,
    })
}

/// The untraced run: `seconds / call_s` training calls (at least
/// [`MIN_CALLS`]), reported as medians over the calls.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    input: &Path,
    scratch: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let spec = workload.spec();
    let cfg = config(&spec, seed, scratch)?;
    let inputs = TrainInputs::load(input, &spec, seed)?;
    out.note("train_nnz", inputs.train.nnz());
    out.note("test_nnz", inputs.test.len());
    out.note("init_rmse", format!("{:.4}", inputs.init_rmse));
    out.note("mean_predictor_rmse", format!("{:.4}", inputs.mean_rmse));

    let calls = ((seconds / spec.call_s).round() as u64).max(MIN_CALLS);
    let (mut train_s, mut setup_s, mut ups, mut rmse) = (vec![], vec![], vec![], vec![]);
    let mut failed = 0u64;
    for n in 1..=calls {
        match call(&cfg, &inputs) {
            Ok(c) if c.problems.is_empty() => {
                train_s.push(c.train_s);
                setup_s.push(c.setup_s());
                ups.push(c.updates_per_s());
                rmse.push(c.test_rmse);
            }
            Ok(c) => {
                failed += 1;
                for p in c.problems {
                    out.problem(format!("call {n}: {p}"));
                }
            }
            Err(e) => {
                failed += 1;
                out.problem(format!("call {n}: {e}"));
            }
        }
    }
    out.phase("train_calls", calls, failed);
    out.metric("setup_s", "s", median(&setup_s));
    out.metric("throughput_per_s", "1/s", median(&ups));
    out.metric(
        "latency_p50_ms",
        "ms",
        median(&train_s).map(|m| crate::stats::Summary {
            value: m.value * 1e3,
            ..m
        }),
    );
    if let Some(m) = median(&rmse) {
        out.note("test_rmse", format!("{:.4} (n={})", m.value, m.samples));
    }
    Ok(())
}
