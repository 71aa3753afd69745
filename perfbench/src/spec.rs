//! The benchmark's workloads: their data shapes and fixed settings.

/// Top-k list length of every serving query.
pub const TOPK: usize = 10;
/// Item shards of the served model (one scan worker each).
pub const SERVE_SHARDS: usize = 2;
/// Admission queue capacity; a submit beyond it sheds.
pub const CAPACITY: usize = 1024;
/// Largest micro-batch the admission dispatcher forms.
pub const MAX_BATCH: usize = 64;
/// Open-loop arrival rate, queries per second (below capacity).
pub const OPEN_RATE: f64 = 5_000.0;
/// Closed-loop window: queries one client keeps in flight (< `CAPACITY`).
pub const WINDOW: usize = 256;
/// Users whose answers are checked against the naive oracle.
pub const ORACLE_SAMPLE: usize = 32;
/// Share of ratings held out for `test_rmse`.
pub const TEST_SHARE: f64 = 0.05;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's configuration: compute bound, shared-memory COMM.
    TrainCompute,
    /// The networked configuration: TCP, sharded server, supervision.
    TrainWire,
    /// Top-k queries through the admission queue.
    ServeTopk,
}

/// Data shape and training settings of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Users (rows).
    pub users: u32,
    /// Items (columns).
    pub items: u32,
    /// Target number of ratings before the held-out split.
    pub ratings: usize,
    /// Zipf exponent of user activity.
    pub user_skew: f64,
    /// Zipf exponent of item popularity.
    pub item_skew: f64,
    /// Latent dimension.
    pub k: usize,
    /// Epochs of one training call.
    pub epochs: usize,
    /// Constant learning rate.
    pub lr: f32,
    /// TCP transport, two server shards, supervision and checkpoints.
    pub wire: bool,
    /// Typical wall time of one training call on a 2-core x86-64 host,
    /// seconds. A run makes `--seconds / call_s` calls (at least three), a
    /// count fixed by the command line, so every run does the same work.
    pub call_s: f64,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::TrainCompute,
        Workload::TrainWire,
        Workload::ServeTopk,
    ];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name as the command line and the results use it.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainCompute => "train-compute",
            Workload::TrainWire => "train-wire",
            Workload::ServeTopk => "serve-topk",
        }
    }

    /// Whether the untraced run trains (otherwise it serves).
    pub fn trains(self) -> bool {
        self != Workload::ServeTopk
    }

    /// Data shape and training settings. `serve-topk` serves a model of
    /// `train-compute`'s shape; its ratings are the seen-item filter, and
    /// its traced run trains briefly on them to measure the training
    /// layers.
    pub fn spec(self) -> Spec {
        let compute = Spec {
            users: 100_000,
            items: 20_000,
            ratings: 4_000_000,
            user_skew: 0.5,
            item_skew: 0.8,
            k: 64,
            epochs: 10,
            lr: 0.02,
            wire: false,
            call_s: 2.2,
        };
        match self {
            Workload::TrainCompute => compute,
            Workload::TrainWire => Spec {
                users: 200_000,
                items: 150_000,
                ratings: 1_000_000,
                user_skew: 0.5,
                item_skew: 0.8,
                k: 32,
                epochs: 10,
                lr: 0.02,
                wire: true,
                call_s: 6.5,
            },
            Workload::ServeTopk => Spec {
                epochs: 2,
                ..compute
            },
        }
    }
}
