//! The training orchestrator: preprocessing, partition planning, and the
//! `pull → compute → push → sync` epoch loop of Fig. 4.

use crate::checkpoint::{load_checkpoint, save_checkpoint, ResumeState, TrainingMeta};
use crate::config::{HccConfig, PartitionMode, TransportKind, WorkerSpec};
use crate::error::HccError;
use crate::fault::FaultKind;
use crate::report::{HccReport, WorkerEpochStats};
use crate::server::{merge_weighted, merge_weights, region_layout, RegionLayout, ShardedServer};
use crate::supervisor::{Supervisor, WorkerHealth};
use crate::worker::{bucket_by_stream, rebase_entries, stream_col_range, Rule, WorkerState};
use hcc_comm::socket::NetEventKind;
use hcc_comm::{
    Backoff, ChaosTransport, CommError, CommP, CommShared, CommSocket, Precision, TransferStrategy,
    Transport,
};
use hcc_partition::{
    dp0, dp1_step, dp2, replan_survivors, ShardRouter, StrategyChoice, WorkerClass,
};
use hcc_sgd::{rmse_parallel, FactorMatrix, SharedFactors};
use hcc_sparse::{Axis, CooMatrix, GridPartition};
use hcc_telemetry::{Dir, Event, NetCause, Phase, Telemetry};
use parking_lot::Mutex;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The HCC-MF framework entry point.
#[derive(Debug, Clone)]
pub struct HccMf {
    config: HccConfig,
}

impl HccMf {
    /// Wraps a validated configuration.
    pub fn new(config: HccConfig) -> HccMf {
        HccMf { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &HccConfig {
        &self.config
    }

    /// Trains factor matrices for `matrix`, returning the report.
    pub fn train(&self, matrix: &CooMatrix) -> Result<HccReport, HccError> {
        self.config.validate()?;
        if matrix.nnz() == 0 {
            return Err(HccError::BadInput("matrix has no observed entries".into()));
        }
        if self.config.streams > 1 {
            if self.config.transport != TransportKind::Shared {
                return Err(HccError::BadConfig(
                    "asynchronous computing-transmission requires the shared COMM".into(),
                ));
            }
            if self.config.strategy == TransferStrategy::FullPq {
                return Err(HccError::BadConfig(
                    "asynchronous computing-transmission requires Q-only transfers".into(),
                ));
            }
        }

        // Preprocessing (Fig. 4 steps ①–③): pick the grid axis by the longer
        // dimension; internally we always row-grid, transposing when needed
        // (the "Transmit P only" switch of Strategy 1).
        let transposed = Axis::for_matrix(matrix.rows(), matrix.cols()) == Axis::Col;
        let mut work = if transposed {
            matrix.clone().transpose()
        } else {
            matrix.clone()
        };
        if self.config.shuffle {
            let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
            work.shuffle(&mut rng);
        }

        // Resume: restore factors and loop state from a v2 checkpoint.
        let resume = match &self.config.resume {
            Some(path) => Some(validate_resume(
                load_checkpoint(path)?,
                &self.config,
                &work,
                transposed,
            )?),
            None => None,
        };

        let mut session = Session::create(&self.config, work)?;
        if let Some(state) = resume {
            session.apply_resume(state)?;
        }
        session.run(transposed)?;
        let report = session.into_report(transposed);
        if let (Some(path), Some(timeline)) = (&self.config.telemetry_path, &report.timeline) {
            std::fs::write(path, hcc_telemetry::jsonl::to_jsonl(timeline))
                .map_err(|e| HccError::Io(format!("writing telemetry {}: {e}", path.display())))?;
        }
        Ok(report)
    }
}

/// Stable strategy identifier for telemetry headers (distinct from the
/// paper-table labels of [`TransferStrategy::label`]).
fn strategy_wire_name(s: TransferStrategy) -> &'static str {
    match s {
        TransferStrategy::FullPq => "full-pq",
        TransferStrategy::QOnly => "q-only",
        TransferStrategy::HalfQ => "half-q",
    }
}

/// Checks a loaded checkpoint against the run it is asked to continue.
fn validate_resume(
    state: ResumeState,
    config: &HccConfig,
    work: &CooMatrix,
    transposed: bool,
) -> Result<ResumeState, HccError> {
    let (m, n) = (work.rows() as usize, work.cols() as usize);
    if state.p.rows() != m || state.q.rows() != n || state.p.k() != config.k {
        return Err(HccError::BadConfig(format!(
            "resume checkpoint is {}x{} at k = {}, this run needs {m}x{n} at k = {}",
            state.p.rows(),
            state.q.rows(),
            state.p.k(),
            config.k
        )));
    }
    if state.meta.transposed != transposed {
        return Err(HccError::BadConfig(
            "resume checkpoint orientation does not match this matrix".into(),
        ));
    }
    if state.meta.seed != config.seed {
        return Err(HccError::BadConfig(format!(
            "resume checkpoint was trained with seed {}, config has seed {} \
             (resumed epochs would not reproduce the original run)",
            state.meta.seed, config.seed
        )));
    }
    if state.meta.epoch >= config.epochs {
        return Err(HccError::BadConfig(format!(
            "resume checkpoint already completed epoch {} >= configured epochs {}",
            state.meta.epoch, config.epochs
        )));
    }
    Ok(state)
}

/// Extracts a printable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".into()
    }
}

/// Maps a transport error to its telemetry cause tag.
fn net_cause(err: CommError) -> NetCause {
    match err {
        CommError::Timeout => NetCause::Timeout,
        CommError::Corrupt => NetCause::Corrupt,
        CommError::Disconnected => NetCause::Disconnected,
        CommError::PartitionedLink => NetCause::Partitioned,
    }
}

/// Keeps the elements of `items` whose index is flagged alive.
fn filter_alive<T: Clone>(items: &[T], alive: &[bool]) -> Vec<T> {
    items
        .iter()
        .zip(alive)
        .filter(|(_, &a)| a)
        .map(|(v, _)| v.clone())
        .collect()
}

/// Supervised collect of worker `w`'s push: a bounded-timeout ladder with
/// backoff that gives up early on a dead or partitioned worker. Returns
/// whether a push arrived in `dst`.
fn collect_with_deadline(
    transport: &dyn Transport,
    sup: &Supervisor,
    w: usize,
    dst: &mut [f32],
    telemetry: &Telemetry,
    epoch: u32,
    worker_id: u32,
) -> bool {
    // Jitter-free `Backoff` reproduces the historical
    // `timeout → timeout·factor → …` ladder bit-for-bit.
    let mut ladder = Backoff::new(sup.cfg.heartbeat_timeout, sup.cfg.retry_backoff.max(1.0));
    for _attempt in 0..sup.cfg.collect_retries.max(1) {
        if sup.board.is_dead(w) {
            return false;
        }
        let timeout = ladder.next_delay();
        match transport.collect_timeout(w, dst, timeout) {
            Ok(()) => return true,
            // A corrupt frame degrades to a dropped one: wait out the next
            // ladder step in case a retransmit (or a slow worker) still
            // delivers a clean push.
            Err(err @ (CommError::Timeout | CommError::Corrupt)) => {
                telemetry.record(
                    telemetry.server_lane(),
                    Event::NetRetry {
                        epoch,
                        worker: worker_id,
                        cause: net_cause(err),
                        delay_us: timeout.as_micros() as u64,
                        bytes: 0,
                    },
                );
            }
            Err(CommError::Disconnected) => return false,
            // A partitioned worker keeps computing and beating its
            // heartbeat, so classification alone would call it a straggler
            // forever; declare the link dead so the survivors re-plan.
            Err(CommError::PartitionedLink) => {
                sup.board.mark_dead(w);
                return false;
            }
        }
    }
    false
}

/// Result of one executed (not yet accepted) epoch.
struct EpochOutcome {
    stats: Vec<WorkerEpochStats>,
    sync_time: Duration,
    /// `missed[w]`: the server got no valid push from worker `w` this epoch.
    missed: Vec<bool>,
}

/// Everything a training run owns.
struct Session<'a> {
    config: &'a HccConfig,
    work: CooMatrix,
    m: usize,
    n: usize,
    k: usize,
    global_p: FactorMatrix,
    global_q: Vec<f32>,
    fractions: Vec<f64>,
    classes: Vec<WorkerClass>,
    /// Worker specs currently in the fleet (shrinks when workers die).
    specs: Vec<WorkerSpec>,
    /// Original config index of each current worker — fault plans and
    /// display names keep addressing the machine a worker started as.
    orig_ids: Vec<usize>,
    workers: Vec<WorkerState>,
    layout: RegionLayout,
    /// The server↔worker transport, inside the deterministic
    /// network-chaos wrapper when `config.net_chaos` is set (the wrapper
    /// forwards wire-byte accounting and net events to the inner one).
    transport: Arc<dyn Transport>,
    /// The shared COMM again, as the concrete type whose ranged operations
    /// Strategy 3 needs. Set exactly when `streams > 1`, which `train()`
    /// admits only on the shared transport.
    pipelined: Option<Arc<CommShared>>,
    // Fault tolerance.
    supervisor: Option<Supervisor>,
    /// Last-good `(P, Q)` for divergence rollback.
    snapshot: Option<(FactorMatrix, Vec<f32>)>,
    start_epoch: usize,
    /// Cumulative learning-rate backoff from divergence rollbacks.
    lr_scale: f64,
    health_history: Vec<Vec<WorkerHealth>>,
    // Accumulated report data.
    rmse_history: Vec<f64>,
    epoch_times: Vec<Duration>,
    worker_stats: Vec<Vec<WorkerEpochStats>>,
    sync_times: Vec<Duration>,
    partition_history: Vec<Vec<f64>>,
    strategy_used: StrategyChoice,
    total_updates: u64,
    /// Observability handle; disabled (a no-op behind one branch) unless
    /// `config.telemetry_path` is set. Lanes are indexed by *starting-fleet*
    /// worker id plus the server lane, so a shrinking fleet keeps stable
    /// attribution via `orig_ids`.
    telemetry: Telemetry,
}

impl<'a> Session<'a> {
    fn create(config: &'a HccConfig, work: CooMatrix) -> Result<Session<'a>, HccError> {
        let m = work.rows() as usize;
        let n = work.cols() as usize;
        let k = config.k;
        let (global_p, global_q) = match &config.warm_start {
            Some((p0, q0)) => {
                // Warm-start factors arrive in input orientation; `work` may
                // be transposed, in which case P and Q swap roles.
                let (p0, q0) = if m == p0.rows() && n == q0.rows() {
                    (p0.clone(), q0.clone())
                } else if m == q0.rows() && n == p0.rows() {
                    (q0.clone(), p0.clone())
                } else {
                    return Err(HccError::BadConfig(format!(
                        "warm-start dimensions {}x{} don't match matrix {m}x{n}",
                        p0.rows(),
                        q0.rows()
                    )));
                };
                (p0, q0.into_vec())
            }
            None => (
                FactorMatrix::random(m, k, config.seed),
                FactorMatrix::random(n, k, config.seed ^ 0x9e37_79b9).into_vec(),
            ),
        };
        let classes: Vec<WorkerClass> = config
            .workers
            .iter()
            .map(|w| {
                if w.is_gpu {
                    WorkerClass::Gpu
                } else {
                    WorkerClass::Cpu
                }
            })
            .collect();

        let fractions = initial_fractions(config, &work)?;
        let worker_count = config.workers.len();
        let telemetry = if config.telemetry_path.is_some() {
            Telemetry::enabled(
                hcc_telemetry::Header {
                    workers: worker_count as u32,
                    k: k as u32,
                    nnz: work.nnz() as u64,
                    strategy: strategy_wire_name(config.strategy).to_string(),
                    streams: config.streams as u32,
                    backend: hcc_sgd::simd::dispatch_tag().to_string(),
                    schedule: config.schedule.name().to_string(),
                },
                hcc_telemetry::DEFAULT_LANE_CAPACITY,
            )
        } else {
            Telemetry::disabled()
        };

        let mut session = Session {
            config,
            work,
            m,
            n,
            k,
            global_p,
            global_q,
            fractions: fractions.clone(),
            classes,
            specs: config.workers.clone(),
            orig_ids: (0..worker_count).collect(),
            workers: Vec::new(),
            supervisor: config
                .fault_tolerance
                .clone()
                .map(|cfg| Supervisor::new(cfg, worker_count)),
            snapshot: None,
            start_epoch: 0,
            lr_scale: 1.0,
            health_history: Vec::new(),
            layout: region_layout(config.strategy, m, n, k, m),
            transport: Arc::new(CommShared::new(1, 1, 1, Precision::Fp32)),
            pipelined: None,
            rmse_history: Vec::new(),
            epoch_times: Vec::new(),
            worker_stats: Vec::new(),
            sync_times: Vec::new(),
            partition_history: Vec::new(),
            strategy_used: match config.partition {
                PartitionMode::Uniform | PartitionMode::Dp0 => StrategyChoice::Dp0,
                PartitionMode::Dp1 => StrategyChoice::Dp1,
                PartitionMode::Dp2 => StrategyChoice::Dp2,
                PartitionMode::Auto => StrategyChoice::Dp1, // revised during adaptation
            },
            total_updates: 0,
            telemetry,
        };
        session.rebuild_workers(fractions)?;
        Ok(session)
    }

    /// (Re)builds worker states and the transport for a partition vector.
    /// Worker-held `P` rows are flushed into `global_p` first so no training
    /// progress is lost across repartitions. Fallible because the socket
    /// transport binds an OS resource.
    fn rebuild_workers(&mut self, fractions: Vec<f64>) -> Result<(), HccError> {
        self.flush_local_p();
        let grid = GridPartition::build(&self.work, Axis::Row, &fractions);
        let k = self.k;
        let mut workers = Vec::with_capacity(self.specs.len());
        let mut max_rows = 0usize;
        for (w, spec) in self.specs.iter().enumerate() {
            let range = grid.range(w);
            max_rows = max_rows.max((range.end - range.start) as usize);
            let entries = rebase_entries(grid.shard(w), range.start);
            let stream_buckets = if self.config.streams > 1 {
                bucket_by_stream(&entries, self.n as u32, self.config.streams)
            } else {
                Vec::new()
            };
            let rows = (range.end - range.start) as usize;
            let local_p = SharedFactors::zeros(rows.max(1), k);
            if rows > 0 {
                let packed: Vec<f32> = (range.start as usize..range.end as usize)
                    .flat_map(|r| self.global_p.row(r).iter().copied())
                    .collect();
                local_p.copy_rows_from_slice(0, rows, &packed);
            }
            let local_q = SharedFactors::zeros(self.n, k);
            workers.push(WorkerState {
                spec: spec.clone(),
                entries,
                stream_buckets,
                row_range: range,
                local_p,
                local_q,
                rule: Rule::new(self.config.optimizer, rows.max(1), self.n, k),
                schedule: self.config.schedule,
            });
        }
        self.layout = region_layout(self.config.strategy, self.m, self.n, k, max_rows);
        let precision = if self.config.strategy.is_compressed() {
            Precision::Fp16
        } else {
            Precision::Fp32
        };
        let transport: Arc<dyn Transport> = if self.config.server_shards > 1 {
            // Node-sharded parameter server: the synchronized region is
            // tiled by contiguous row range across N shard endpoints of
            // the configured transport kind. The sharded wire is always
            // Fp32 — row-delta shipping replaces fp16 compression, and
            // delta framing (count + indices as f32) must stay exact.
            let shards = self.config.server_shards;
            let rows = self.layout.pull_len / k;
            let router = ShardRouter::uniform(rows, shards);
            let mut inners: Vec<Arc<dyn Transport>> = Vec::with_capacity(shards);
            for s in 0..shards {
                let pull = router.range(s).len() * k;
                let push = ShardedServer::shard_push_len(&router, s, k);
                let inner: Arc<dyn Transport> = match self.config.transport {
                    TransportKind::Shared => {
                        Arc::new(CommShared::new(workers.len(), pull, push, Precision::Fp32))
                    }
                    TransportKind::CommP => Arc::new(CommP::new(workers.len(), Precision::Fp32)),
                    TransportKind::Socket | TransportKind::Tcp => {
                        let cfg = hcc_comm::SocketConfig {
                            delta_push: true,
                            ..hcc_comm::SocketConfig::default()
                        };
                        let sock = if self.config.transport == TransportKind::Tcp {
                            CommSocket::with_config_tcp(
                                workers.len(),
                                pull,
                                push,
                                Precision::Fp32,
                                cfg,
                            )
                        } else {
                            CommSocket::with_config(workers.len(), pull, push, Precision::Fp32, cfg)
                        }
                        .map_err(|e| HccError::Comm(format!("binding shard {s} transport: {e}")))?;
                        Arc::new(sock)
                    }
                };
                inners.push(inner);
            }
            Arc::new(ShardedServer::new(
                router,
                k,
                self.layout.pull_len,
                Precision::Fp32,
                inners,
            ))
        } else {
            match self.config.transport {
                TransportKind::Shared => {
                    let comm = Arc::new(CommShared::new(
                        workers.len(),
                        self.layout.pull_len,
                        self.layout.push_len,
                        precision,
                    ));
                    self.pipelined = (self.config.streams > 1).then(|| Arc::clone(&comm));
                    comm
                }
                TransportKind::CommP => Arc::new(CommP::new(workers.len(), precision)),
                TransportKind::Socket => Arc::new(
                    CommSocket::new(
                        workers.len(),
                        self.layout.pull_len,
                        self.layout.push_len,
                        precision,
                    )
                    .map_err(|e| HccError::Comm(format!("binding socket transport: {e}")))?,
                ),
                TransportKind::Tcp => Arc::new(
                    CommSocket::new_tcp(
                        workers.len(),
                        self.layout.pull_len,
                        self.layout.push_len,
                        precision,
                    )
                    .map_err(|e| HccError::Comm(format!("binding tcp transport: {e}")))?,
                ),
            }
        };
        self.transport = match &self.config.net_chaos {
            None => transport,
            Some(plan) => {
                // The plan addresses workers by *starting-fleet* id; remap its
                // partition to the current fleet index, dropping it once that
                // worker has been removed (its link is already gone).
                let mut plan = plan.clone();
                if let Some(part) = plan.partition {
                    plan.partition =
                        self.orig_ids
                            .iter()
                            .position(|&id| id == part.worker)
                            .map(|w| hcc_comm::Partition {
                                worker: w,
                                from_epoch: part.from_epoch,
                            });
                }
                Arc::new(ChaosTransport::new(transport, plan))
            }
        };
        self.workers = workers;
        self.fractions = fractions;
        Ok(())
    }

    /// Restores factors and loop state from a validated v2 checkpoint.
    fn apply_resume(&mut self, state: ResumeState) -> Result<(), HccError> {
        self.global_p = state.p;
        self.global_q = state.q.into_vec();
        self.start_epoch = state.meta.epoch;
        self.lr_scale = state.meta.lr_scale as f64;
        if let Some(sup) = self.supervisor.as_mut() {
            sup.set_lr_scale(self.lr_scale);
        }
        // Worker states were seeded from the random init; re-copy the
        // restored rows. Clearing first stops rebuild flushing stale P.
        self.workers.clear();
        self.rebuild_workers(self.fractions.clone())
    }

    /// Writes every worker's `P` rows back into the global matrix.
    fn flush_local_p(&mut self) {
        for state in &self.workers {
            let lo = state.row_range.start as usize;
            let rows = state.rows();
            if rows == 0 {
                continue;
            }
            let packed = state.local_p.snapshot_rows(0, rows);
            for r in 0..rows {
                self.global_p
                    .row_mut(lo + r)
                    .copy_from_slice(&packed[r * self.k..(r + 1) * self.k]);
            }
        }
    }

    fn run(&mut self, transposed: bool) -> Result<(), HccError> {
        if self.supervisor.is_some() {
            // Baseline for the divergence guard + rollback snapshot.
            let baseline = self.evaluate();
            if let Some(sup) = self.supervisor.as_mut() {
                sup.observe_baseline(baseline);
            }
            self.snapshot = Some((self.global_p.clone(), self.global_q.clone()));
        }

        let mut epoch = self.start_epoch;
        while epoch < self.config.epochs {
            let lr = (f64::from(self.config.learning_rate.at(epoch)) * self.lr_scale) as f32;
            // Wire-byte baseline for this attempt (counters reset whenever
            // the transport is rebuilt, e.g. on rollback or repartition).
            let wire_base = self.transport.wire_bytes_by_dir();
            let epoch_start = Instant::now();
            // An unsupervised worker panic would otherwise abort the process
            // at the scope join: surface it typed instead.
            let caught = catch_unwind(AssertUnwindSafe(|| match self.pipelined.clone() {
                Some(comm) => self.run_epoch_async(&comm, lr, epoch),
                None => self.run_epoch_lockstep(lr, epoch),
            }));
            let outcome = match caught {
                Ok(outcome) => outcome,
                Err(payload) => {
                    return Err(HccError::WorkerLost(format!(
                        "worker thread panicked during epoch {epoch}: {}",
                        panic_message(payload.as_ref())
                    )))
                }
            };
            let elapsed = epoch_start.elapsed();

            // Divergence guard: NaN or explosion → rollback + LR backoff,
            // bounded by the supervisor's budget.
            let mut loss = None;
            if self.supervisor.is_some() {
                let l = self.evaluate();
                if let Some(sup) = self.supervisor.as_mut() {
                    if sup.is_diverged(l) {
                        let Some(scale) = sup.rollback() else {
                            return Err(HccError::Diverged {
                                epoch,
                                rollbacks: sup.rollbacks_used() as usize,
                            });
                        };
                        self.lr_scale = scale;
                        self.telemetry.record(
                            self.telemetry.server_lane(),
                            Event::Rollback {
                                epoch: epoch as u32,
                                lr_scale: scale,
                            },
                        );
                        let (p, q) = self
                            .snapshot
                            .clone()
                            .expect("snapshot precedes first epoch");
                        self.global_p = p;
                        self.global_q = q;
                        // Clear first: the diverged local factors must
                        // not be flushed over the restored snapshot.
                        self.workers.clear();
                        self.rebuild_workers(self.fractions.clone())?;
                        continue; // retry the same epoch at reduced LR
                    }
                    sup.accept(l);
                }
                loss = Some(l);
            }

            // The epoch is accepted: record it.
            if self.telemetry.is_enabled() {
                let lane = self.telemetry.server_lane();
                let (pull_now, push_now) = self.transport.wire_bytes_by_dir();
                self.telemetry.bytes(
                    epoch as u32,
                    Dir::Pull,
                    pull_now.saturating_sub(wire_base.0),
                );
                self.telemetry.bytes(
                    epoch as u32,
                    Dir::Push,
                    push_now.saturating_sub(wire_base.1),
                );
                self.telemetry.record(
                    lane,
                    Event::EpochEnd {
                        epoch: epoch as u32,
                        wall_us: elapsed.as_micros() as u64,
                    },
                );
            }
            // Drain the transport's resilience events every epoch (bounding
            // their buffer) and attribute them to this epoch on the server
            // lane via the workers' starting-fleet ids.
            let events = self.transport.drain_net_events();
            if self.telemetry.is_enabled() {
                let lane = self.telemetry.server_lane();
                for ev in events {
                    let worker = self.orig_ids.get(ev.worker).copied().unwrap_or(ev.worker);
                    let event = match ev.kind {
                        NetEventKind::Retry { cause, bytes } => Event::NetRetry {
                            epoch: epoch as u32,
                            worker: worker as u32,
                            cause: net_cause(cause),
                            delay_us: ev.delay_us,
                            bytes,
                        },
                        NetEventKind::Reconnect { attempt } => Event::Reconnect {
                            epoch: epoch as u32,
                            worker: worker as u32,
                            attempt,
                            delay_us: ev.delay_us,
                        },
                    };
                    self.telemetry.record(lane, event);
                }
            }
            self.epoch_times.push(elapsed);
            self.total_updates += outcome.stats.iter().map(|s| s.updates).sum::<u64>();
            self.sync_times.push(outcome.sync_time);
            self.partition_history.push(self.fractions.clone());
            if self.config.track_rmse {
                let rmse = match loss {
                    Some(l) => l,
                    None => self.evaluate(),
                };
                self.rmse_history.push(rmse);
            }

            // Health classification and survivor re-planning, then a fresh
            // rollback snapshot of the accepted state.
            if self.supervisor.is_some() {
                self.handle_health(&outcome, epoch)?;
                self.snapshot = Some((self.global_p.clone(), self.global_q.clone()));
            }
            self.worker_stats.push(outcome.stats);

            self.checkpoint_if_due(epoch, transposed)?;
            if self.config.track_rmse && self.should_stop_early() {
                break;
            }
            self.adapt(epoch)?;
            epoch += 1;
        }
        self.flush_local_p();
        Ok(())
    }

    /// Periodic crash-safe checkpoint (after epoch `epoch` is accepted).
    fn checkpoint_if_due(&mut self, epoch: usize, transposed: bool) -> Result<(), HccError> {
        let (Some(every), Some(path)) = (
            self.config.checkpoint_every,
            self.config.checkpoint_path.as_ref(),
        ) else {
            return Ok(());
        };
        if (epoch + 1) % every != 0 {
            return Ok(());
        }
        let t0 = Instant::now();
        self.flush_local_p();
        let q = FactorMatrix::from_vec(self.n, self.k, self.global_q.clone());
        let meta = TrainingMeta {
            epoch: epoch + 1,
            seed: self.config.seed,
            lr_scale: self.lr_scale as f32,
            transposed,
        };
        let result = save_checkpoint(path, &self.global_p, &q, &meta);
        self.telemetry.record(
            self.telemetry.server_lane(),
            Event::Checkpoint {
                epoch: epoch as u32,
                dur_us: t0.elapsed().as_micros() as u64,
            },
        );
        result
    }

    /// Classifies worker health after an accepted epoch; removes dead
    /// workers and re-plans the partition over the survivors.
    fn handle_health(&mut self, outcome: &EpochOutcome, epoch: usize) -> Result<(), HccError> {
        let compute: Vec<f64> = outcome
            .stats
            .iter()
            .map(|s| s.compute.as_secs_f64())
            .collect();
        let Some(sup) = self.supervisor.as_ref() else {
            return Ok(());
        };
        let beat: Vec<bool> = (0..self.workers.len())
            .map(|w| sup.board.has_beat(w, epoch))
            .collect();
        let health = sup.classify(&compute, &outcome.missed, &beat);
        if self.telemetry.is_enabled() {
            let lane = self.telemetry.server_lane();
            for (w, h) in health.iter().enumerate() {
                let worker = self.orig_ids[w] as u32;
                match h {
                    WorkerHealth::Straggler => self.telemetry.record(
                        lane,
                        Event::Straggler {
                            epoch: epoch as u32,
                            worker,
                        },
                    ),
                    WorkerHealth::Dead => self.telemetry.record(
                        lane,
                        Event::WorkerLost {
                            epoch: epoch as u32,
                            worker,
                        },
                    ),
                    _ => {}
                }
            }
        }
        self.health_history.push(health.clone());
        let alive: Vec<bool> = health.iter().map(|h| *h != WorkerHealth::Dead).collect();
        if alive.iter().all(|&a| a) {
            return Ok(());
        }
        let survivors = alive.iter().filter(|&&a| a).count();
        if survivors == 0 {
            return Err(HccError::WorkerLost(format!(
                "all {} workers died by epoch {epoch}",
                alive.len()
            )));
        }
        let fractions = replan_survivors(&self.fractions, &compute, &alive);
        self.specs = filter_alive(&self.specs, &alive);
        self.orig_ids = filter_alive(&self.orig_ids, &alive);
        self.classes = filter_alive(&self.classes, &alive);
        self.rebuild_workers(fractions)?;
        if let Some(sup) = self.supervisor.as_mut() {
            sup.board.resize(survivors);
        }
        Ok(())
    }

    /// Synchronous epoch (Fig. 4): publish, parallel worker
    /// pull/compute/push, then a server collect+merge that overlaps the
    /// still-running workers (the DP2 hiding effect).
    ///
    /// The collect policy follows `self.supervisor`. Off: one blocking
    /// collect per worker, and every push is merged as it arrives. On:
    /// heartbeats, per-worker panic capture, deterministic fault injection,
    /// bounded-timeout collects with backoff, and a non-finite integrity
    /// scan. Missing or poisoned pushes are left out of the merge and the
    /// remaining weights renormalized; when every push is lost the previous
    /// global `Q` is kept. When no fault fires, both policies merge the same
    /// pushes in the same order, so their factors are bit-identical.
    fn run_epoch_lockstep(&mut self, lr: f32, epoch: usize) -> EpochOutcome {
        let k = self.k;
        let n = self.n;
        let layout = self.layout;
        let strategy = self.config.strategy;
        let transport = self.transport.as_ref();
        let telemetry = &self.telemetry;
        let epoch_u32 = epoch as u32;
        let sup = self.supervisor.as_ref();
        let plan = self.config.fault_plan.as_ref();
        let orig_ids = &self.orig_ids;

        // Every worker's pull is timed from here, so its pull → compute →
        // push chain starts with the epoch: the publish and any wait for a
        // CPU before the worker thread runs (more workers than cores) count
        // as pull time instead of time no phase accounts for.
        let publish_us = telemetry.now_us();
        let published = Instant::now();

        // Publish: [P | Q] under FullPq, [Q] otherwise.
        let mut pull_staging = vec![0f32; layout.pull_len];
        if strategy == TransferStrategy::FullPq {
            pull_staging[..self.m * k].copy_from_slice(self.global_p.as_slice());
        }
        pull_staging[layout.pull_q_offset..layout.pull_q_offset + n * k]
            .copy_from_slice(&self.global_q);
        transport.publish(&pull_staging);

        let weights = merge_weights(
            &self
                .workers
                .iter()
                .map(|w| w.entries.len())
                .collect::<Vec<_>>(),
        );
        let lambda_p = self.config.lambda_p;
        let lambda_q = self.config.lambda_q;

        let stats: Mutex<Vec<WorkerEpochStats>> =
            Mutex::new(vec![WorkerEpochStats::default(); self.workers.len()]);
        let mut q_acc = vec![0f32; n * k];
        let mut p_updates: Vec<(usize, Vec<f32>)> = Vec::new();
        let mut sync_time = Duration::ZERO;
        let mut missed = vec![false; self.workers.len()];
        let mut accepted_weight = 0f32;

        std::thread::scope(|scope| {
            for (w, state) in self.workers.iter().enumerate() {
                let stats = &stats;
                scope.spawn(move || {
                    let body = || {
                        let fault = plan.and_then(|p| p.at(orig_ids[w], epoch));
                        if fault == Some(FaultKind::Crash) {
                            return None; // no heartbeat, no push: dead
                        }
                        let lane = orig_ids[w] as u32;
                        // Fresh scoped thread each epoch: the previous epoch's
                        // scope join orders this writer after the last one.
                        telemetry.adopt_lane(lane);
                        let mut staging = vec![0f32; layout.pull_len.max(layout.push_len)];

                        // Pull (timed from the publish, see `published`).
                        transport.pull(w, &mut staging[..layout.pull_len]);
                        state.local_q.copy_rows_from_slice(
                            0,
                            n,
                            &staging[layout.pull_q_offset..layout.pull_q_offset + n * k],
                        );
                        if strategy == TransferStrategy::FullPq && state.rows() > 0 {
                            let lo = state.row_range.start as usize;
                            state.local_p.copy_rows_from_slice(
                                0,
                                state.rows(),
                                &staging[lo * k..(lo + state.rows()) * k],
                            );
                        }
                        let pull = published.elapsed();
                        telemetry.phase(lane, epoch_u32, lane, Phase::Pull, publish_us, pull);

                        // Compute (an injected stall counts as compute time,
                        // so the supervisor's straggler rule sees it).
                        let start = telemetry.now_us();
                        let t0 = Instant::now();
                        if let Some(FaultKind::Stall { millis }) = fault {
                            std::thread::sleep(Duration::from_millis(millis));
                        }
                        state.compute(&state.entries, lr, lambda_p, lambda_q);
                        let compute = t0.elapsed();
                        telemetry.phase(lane, epoch_u32, lane, Phase::Comp, start, compute);
                        if let Some(sup) = sup {
                            sup.board.beat(w, epoch);
                        }

                        // Push.
                        let start = telemetry.now_us();
                        let t0 = Instant::now();
                        let rows = state.rows();
                        let push_len = if strategy == TransferStrategy::FullPq {
                            let p_rows = state.local_p.snapshot_rows(0, rows);
                            staging[..rows * k].copy_from_slice(&p_rows);
                            let q = state.local_q.snapshot_rows(0, n);
                            staging[layout.push_q_offset..layout.push_q_offset + n * k]
                                .copy_from_slice(&q);
                            layout.push_q_offset + n * k
                        } else {
                            let q = state.local_q.snapshot_rows(0, n);
                            staging[..n * k].copy_from_slice(&q);
                            n * k
                        };
                        if let (Some(FaultKind::CorruptPush), Some(plan)) = (fault, plan) {
                            let positions = plan.corrupt_positions(orig_ids[w], epoch, push_len);
                            state.poison_push(&mut staging[..push_len], &positions);
                        }
                        if fault != Some(FaultKind::DropPush) {
                            transport.push(w, &staging[..push_len]);
                        }
                        let push = t0.elapsed();
                        telemetry.phase(lane, epoch_u32, lane, Phase::Push, start, push);

                        Some(WorkerEpochStats {
                            pull,
                            compute,
                            push,
                            updates: state.entries.len() as u64,
                        })
                    };
                    match sup {
                        // A crashed or panicking worker is marked dead, so
                        // the server stops waiting for it.
                        Some(sup) => match catch_unwind(AssertUnwindSafe(body)) {
                            Ok(Some(s)) => stats.lock()[w] = s,
                            Ok(None) | Err(_) => sup.board.mark_dead(w),
                        },
                        // Unsupervised, a panic leaves the scope and run()
                        // reports it as a typed error.
                        None => {
                            if let Some(s) = body() {
                                stats.lock()[w] = s;
                            }
                        }
                    }
                });
            }

            let server_lane = telemetry.server_lane();
            let mut collect_staging = vec![0f32; layout.push_len];
            #[allow(clippy::needless_range_loop)] // w indexes several arrays
            for w in 0..self.workers.len() {
                let got = match sup {
                    None => {
                        transport.collect(w, &mut collect_staging);
                        true
                    }
                    Some(sup) => collect_with_deadline(
                        transport,
                        sup,
                        w,
                        &mut collect_staging,
                        telemetry,
                        epoch_u32,
                        orig_ids[w] as u32,
                    ),
                };
                if !got {
                    missed[w] = true;
                    continue;
                }
                let start = telemetry.now_us();
                let t0 = Instant::now();
                let q_part = &collect_staging[layout.push_q_offset..layout.push_q_offset + n * k];
                if sup.is_some() && q_part.iter().any(|v| !v.is_finite()) {
                    missed[w] = true; // poisoned push: discard the shard
                } else {
                    merge_weighted(&mut q_acc, q_part, weights[w]);
                    accepted_weight += weights[w];
                    if strategy == TransferStrategy::FullPq {
                        let rows = self.workers[w].rows();
                        p_updates.push((w, collect_staging[..rows * k].to_vec()));
                    }
                }
                let merged = t0.elapsed();
                sync_time += merged;
                // Sync spans live on the server lane but carry the merged
                // worker's id, so per-worker epoch sums include their share.
                telemetry.phase(
                    server_lane,
                    epoch_u32,
                    orig_ids[w] as u32,
                    Phase::Sync,
                    start,
                    merged,
                );
            }
        });

        if accepted_weight > 0.0 {
            if missed.iter().any(|&m| m) {
                // Renormalize over the accepted pushes so missing shards
                // don't shrink Q toward zero.
                let inv = 1.0 / accepted_weight;
                for v in q_acc.iter_mut() {
                    *v *= inv;
                }
            }
            self.global_q.copy_from_slice(&q_acc);
        }
        for (w, p_rows) in p_updates {
            let lo = self.workers[w].row_range.start as usize;
            let rows = self.workers[w].rows();
            for r in 0..rows {
                self.global_p
                    .row_mut(lo + r)
                    .copy_from_slice(&p_rows[r * k..(r + 1) * k]);
            }
        }
        EpochOutcome {
            stats: stats.into_inner(),
            sync_time,
            missed,
        }
    }

    /// Asynchronous epoch (Strategy 3): each worker pipelines
    /// `pull(s) → compute(s) → push(s)` over column chunks of `Q`; the
    /// server merges chunks as they arrive.
    fn run_epoch_async(&mut self, comm: &CommShared, lr: f32, epoch: usize) -> EpochOutcome {
        let telemetry = &self.telemetry;
        let epoch_u32 = epoch as u32;
        let orig_ids = &self.orig_ids;
        let k = self.k;
        let n = self.n;
        let streams = self.config.streams;
        let lambda_p = self.config.lambda_p;
        let lambda_q = self.config.lambda_q;
        let weights = merge_weights(
            &self
                .workers
                .iter()
                .map(|w| w.entries.len())
                .collect::<Vec<_>>(),
        );

        // Publish the whole Q once; workers pull it chunk-wise.
        comm.publish_at(0, &self.global_q);

        let stats: Mutex<Vec<WorkerEpochStats>> =
            Mutex::new(vec![WorkerEpochStats::default(); self.workers.len()]);
        let mut sync_time = Duration::ZERO;
        let global_q = &mut self.global_q;
        let total_chunks = self.workers.len() * streams;

        std::thread::scope(|scope| {
            for (w, state) in self.workers.iter().enumerate() {
                let stats = &stats;
                scope.spawn(move || {
                    let lane = orig_ids[w] as u32;
                    // Writer handoff (see the lock-step epoch).
                    telemetry.adopt_lane(lane);
                    let start = telemetry.now_us();
                    let pipe_stats = hcc_comm::run_pipeline(
                        streams,
                        streams,
                        // Pull stage: read this chunk's Q columns.
                        |s| {
                            let range = stream_col_range(n as u32, streams, s);
                            let lo = range.start as usize;
                            let hi = range.end as usize;
                            let mut buf = vec![0f32; (hi - lo) * k];
                            comm.pull_at(lo * k, &mut buf);
                            state.local_q.copy_rows_from_slice(lo, hi, &buf);
                        },
                        // Compute stage: train the entries touching them.
                        |s, ()| {
                            state.compute(&state.stream_buckets[s], lr, lambda_p, lambda_q);
                        },
                        // Push stage: write the chunk back.
                        |s, ()| {
                            let range = stream_col_range(n as u32, streams, s);
                            let lo = range.start as usize;
                            let hi = range.end as usize;
                            let buf = state.local_q.snapshot_rows(lo, hi);
                            comm.push_chunk(w, lo * k, &buf);
                        },
                    );
                    // The pipeline interleaves the three stages, so only
                    // per-stage busy totals exist; record them as three
                    // spans sharing the pipeline's start time.
                    telemetry.phase(
                        lane,
                        epoch_u32,
                        lane,
                        Phase::Pull,
                        start,
                        pipe_stats.pull_busy,
                    );
                    telemetry.phase(
                        lane,
                        epoch_u32,
                        lane,
                        Phase::Comp,
                        start,
                        pipe_stats.compute_busy,
                    );
                    telemetry.phase(
                        lane,
                        epoch_u32,
                        lane,
                        Phase::Push,
                        start,
                        pipe_stats.push_busy,
                    );
                    stats.lock()[w] = WorkerEpochStats {
                        pull: pipe_stats.pull_busy,
                        compute: pipe_stats.compute_busy,
                        push: pipe_stats.push_busy,
                        updates: state.entries.len() as u64,
                    };
                });
            }

            // Server: merge chunks as they arrive (incremental multiply-add;
            // §4.2 notes the async path trades exactness for speed).
            let server_lane = telemetry.server_lane();
            let mut staging = vec![0f32; n * k];
            for _ in 0..total_chunks {
                let tag = comm.collect_chunk(&mut staging);
                let start = telemetry.now_us();
                let t0 = Instant::now();
                crate::server::merge_incremental(
                    &mut global_q[tag.offset..tag.offset + tag.len],
                    &staging[..tag.len],
                    weights[tag.worker],
                );
                let merged = t0.elapsed();
                sync_time += merged;
                telemetry.phase(
                    server_lane,
                    epoch_u32,
                    orig_ids[tag.worker] as u32,
                    Phase::Sync,
                    start,
                    merged,
                );
            }
        });

        let stats = stats.into_inner();
        let missed = vec![false; stats.len()];
        EpochOutcome {
            stats,
            sync_time,
            missed,
        }
    }

    /// Early-stopping check: the best RMSE of the last `patience` epochs
    /// must beat the best before them by the configured relative margin.
    fn should_stop_early(&self) -> bool {
        let Some(rule) = &self.config.early_stop else {
            return false;
        };
        let h = &self.rmse_history;
        if h.len() <= rule.patience {
            return false;
        }
        let split = h.len() - rule.patience;
        let prev_best = h[..split].iter().cloned().fold(f64::INFINITY, f64::min);
        let recent_best = h[split..].iter().cloned().fold(f64::INFINITY, f64::min);
        recent_best > prev_best * (1.0 - rule.min_rel_improvement)
    }

    /// Training-set RMSE with the current factors (worker-held `P` rows are
    /// read directly; they never travel for evaluation).
    fn evaluate(&mut self) -> f64 {
        self.flush_local_p();
        let q = FactorMatrix::from_vec(self.n, self.k, self.global_q.clone());
        rmse_parallel(self.work.entries(), &self.global_p, &q)
    }

    /// Post-epoch partition adaptation (Algorithm 1 / Eq. 7).
    fn adapt(&mut self, epoch: usize) -> Result<(), HccError> {
        let mode = self.config.partition;
        if !matches!(
            mode,
            PartitionMode::Dp1 | PartitionMode::Dp2 | PartitionMode::Auto
        ) {
            return Ok(());
        }
        if epoch + 1 >= self.config.epochs || epoch >= self.config.adapt_epochs {
            return Ok(());
        }
        let Some(stats) = self.worker_stats.last() else {
            return Ok(());
        };
        if stats.len() != self.fractions.len() {
            // The fleet shrank this epoch (supervisor removed dead workers);
            // last epoch's timings no longer line up with the partition.
            return Ok(());
        }
        let t: Vec<f64> = stats
            .iter()
            .map(|s| s.compute.as_secs_f64().max(1e-9))
            .collect();

        let last_adapt_epoch = epoch + 1 == self.config.adapt_epochs;
        if last_adapt_epoch && matches!(mode, PartitionMode::Dp2 | PartitionMode::Auto) {
            let sync_total = self
                .sync_times
                .last()
                .copied()
                .unwrap_or_default()
                .as_secs_f64();
            let sync_per_worker = sync_total / self.workers.len() as f64;
            let max_t = t.iter().cloned().fold(0.0f64, f64::max);
            let ratio = if sync_total > 0.0 {
                max_t / sync_total
            } else {
                f64::INFINITY
            };
            let want_dp2 = mode == PartitionMode::Dp2
                || (mode == PartitionMode::Auto && ratio < hcc_partition::CostModel::LAMBDA);
            if want_dp2 {
                let next = dp2(&self.fractions, &t, sync_per_worker);
                self.strategy_used = StrategyChoice::Dp2;
                return self.rebuild_workers(next);
            }
            self.strategy_used = StrategyChoice::Dp1;
        }

        if let Some(next) = dp1_step(&self.fractions, &t, &self.classes, 0.1) {
            self.rebuild_workers(next)?;
        }
        Ok(())
    }

    fn into_report(mut self, transposed: bool) -> HccReport {
        self.flush_local_p();
        let q = FactorMatrix::from_vec(self.n, self.k, std::mem::take(&mut self.global_q));
        let p = std::mem::replace(&mut self.global_p, FactorMatrix::zeros(1, 1));
        let (p, q) = if transposed { (q, p) } else { (p, q) };
        let timeline = std::mem::replace(&mut self.telemetry, Telemetry::disabled()).finish();
        HccReport {
            p,
            q,
            rmse_history: self.rmse_history,
            epoch_times: self.epoch_times,
            worker_stats: self.worker_stats,
            sync_times: self.sync_times,
            partition_history: self.partition_history,
            strategy_used: self.strategy_used,
            total_updates: self.total_updates,
            wire_bytes: self.transport.wire_bytes(),
            transposed,
            health_history: self.health_history,
            rollbacks: self
                .supervisor
                .as_ref()
                .map_or(0, |s| s.rollbacks_used() as usize),
            start_epoch: self.start_epoch,
            timeline,
        }
    }
}

/// Initial partition: uniform, or DP0 from a calibration run measuring each
/// worker's standalone rate on a sample of the data.
fn initial_fractions(config: &HccConfig, work: &CooMatrix) -> Result<Vec<f64>, HccError> {
    let p = config.workers.len();
    if config.partition == PartitionMode::Uniform {
        return Ok(vec![1.0 / p as f64; p]);
    }
    // Calibration: each worker sweeps the same sample; standalone time per
    // entry × nnz estimates T_i_e (Eq. 6's input).
    let sample_len = work.nnz().min(50_000);
    let sample = &work.entries()[..sample_len];
    let k = config.k;
    let m = work.rows() as usize;
    let n = work.cols() as usize;
    let mut standalone = Vec::with_capacity(p);
    for spec in &config.workers {
        let state = WorkerState {
            spec: spec.clone(),
            entries: Vec::new(),
            stream_buckets: Vec::new(),
            row_range: 0..work.rows(),
            local_p: SharedFactors::zeros(m, k),
            local_q: SharedFactors::zeros(n, k),
            rule: Rule::Sgd,
            schedule: config.schedule,
        };
        // Warm-up pass (thread spawn, page faults), then the measured pass.
        state.compute(&sample[..sample_len.min(4_096)], 0.0, 0.0, 0.0);
        let t0 = Instant::now();
        state.compute(sample, 0.0, 0.0, 0.0);
        let elapsed = t0.elapsed();
        let per_entry = elapsed.as_secs_f64() / sample_len as f64;
        standalone.push((per_entry * work.nnz() as f64).max(1e-12));
    }
    Ok(dp0(&standalone))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkerSpec;
    use hcc_sgd::LearningRate;
    use hcc_sparse::{GenConfig, SyntheticDataset};

    fn dataset(rows: u32, cols: u32, nnz: usize) -> SyntheticDataset {
        SyntheticDataset::generate(GenConfig {
            rows,
            cols,
            nnz,
            noise: 0.0,
            ..GenConfig::default()
        })
    }

    fn base_config() -> crate::config::HccConfigBuilder {
        HccConfig::builder()
            .k(8)
            .epochs(12)
            .learning_rate(LearningRate::Constant(0.02))
            .lambda(0.01)
            .workers(vec![WorkerSpec::cpu(2), WorkerSpec::cpu(2)])
            .adapt_epochs(2)
            .track_rmse(true)
    }

    #[test]
    fn trains_and_converges_q_only() {
        let ds = dataset(300, 150, 8_000);
        let report = HccMf::new(base_config().build()).train(&ds.matrix).unwrap();
        let hist = &report.rmse_history;
        assert_eq!(hist.len(), 12);
        assert!(
            hist.last().unwrap() < &(hist[0] * 0.6),
            "no convergence: {} -> {}",
            hist[0],
            hist.last().unwrap()
        );
        assert_eq!(report.p.rows(), 300);
        assert_eq!(report.q.rows(), 150);
        assert!(report.wire_bytes > 0);
        assert!(!report.transposed);
    }

    #[test]
    fn trains_full_pq() {
        let ds = dataset(200, 100, 5_000);
        let cfg = base_config().strategy(TransferStrategy::FullPq).build();
        let report = HccMf::new(cfg).train(&ds.matrix).unwrap();
        assert!(report.rmse_history.last().unwrap() < &report.rmse_history[0]);
    }

    #[test]
    fn trains_half_q() {
        let ds = dataset(200, 100, 5_000);
        let cfg = base_config().strategy(TransferStrategy::HalfQ).build();
        let report = HccMf::new(cfg).train(&ds.matrix).unwrap();
        assert!(report.rmse_history.last().unwrap() < &report.rmse_history[0]);
        // FP16 wire: fewer bytes than FP32 would use.
        assert!(report.wire_bytes > 0);
    }

    #[test]
    fn wide_matrix_is_transposed_internally() {
        let ds = dataset(100, 400, 5_000);
        let report = HccMf::new(base_config().build()).train(&ds.matrix).unwrap();
        assert!(report.transposed);
        // Factors come back in input orientation.
        assert_eq!(report.p.rows(), 100);
        assert_eq!(report.q.rows(), 400);
        assert!(report.rmse_history.last().unwrap() < &report.rmse_history[0]);
    }

    #[test]
    fn comm_p_transport_trains_too() {
        let ds = dataset(150, 80, 3_000);
        let cfg = base_config().transport(TransportKind::CommP).build();
        let report = HccMf::new(cfg).train(&ds.matrix).unwrap();
        assert!(report.rmse_history.last().unwrap() < &report.rmse_history[0]);
    }

    #[test]
    fn async_streams_train() {
        let ds = dataset(200, 120, 6_000);
        let cfg = base_config().streams(3).build();
        let report = HccMf::new(cfg).train(&ds.matrix).unwrap();
        assert!(
            report.rmse_history.last().unwrap() < &(report.rmse_history[0] * 0.7),
            "async no convergence: {:?}",
            report.rmse_history
        );
    }

    #[test]
    fn async_rejects_full_pq_and_comm_p() {
        let ds = dataset(50, 30, 500);
        let cfg = base_config()
            .streams(2)
            .strategy(TransferStrategy::FullPq)
            .build();
        assert!(HccMf::new(cfg).train(&ds.matrix).is_err());
        let cfg = base_config()
            .streams(2)
            .transport(TransportKind::CommP)
            .build();
        assert!(HccMf::new(cfg).train(&ds.matrix).is_err());
    }

    #[test]
    fn empty_matrix_rejected() {
        let m = CooMatrix::new(5, 5, vec![]).unwrap();
        assert!(HccMf::new(base_config().build()).train(&m).is_err());
    }

    #[test]
    fn heterogeneous_workers_rebalance() {
        let ds = dataset(400, 150, 20_000);
        let cfg = base_config()
            .epochs(6)
            .adapt_epochs(3)
            .workers(vec![
                WorkerSpec::cpu(1).throttled(0.5),
                WorkerSpec::gpu_sim(4),
            ])
            .build();
        let report = HccMf::new(cfg).train(&ds.matrix).unwrap();
        let final_x = report.final_partition().unwrap();
        // The fast 4-thread "GPU" must hold more data than the throttled CPU.
        assert!(
            final_x[1] > final_x[0],
            "no rebalance: {final_x:?}, history {:?}",
            report.partition_history
        );
        assert!(report.rmse_history.last().unwrap() < &report.rmse_history[0]);
    }

    #[test]
    fn uniform_mode_never_repartitions() {
        let ds = dataset(200, 100, 4_000);
        let cfg = base_config()
            .partition(PartitionMode::Uniform)
            .epochs(4)
            .build();
        let report = HccMf::new(cfg).train(&ds.matrix).unwrap();
        for x in &report.partition_history {
            assert!(x.iter().all(|&v| (v - 0.5).abs() < 1e-12));
        }
        assert_eq!(report.strategy_used, StrategyChoice::Dp0);
    }

    #[test]
    fn dp2_mode_staggers_partition() {
        let ds = dataset(300, 150, 10_000);
        let cfg = base_config()
            .partition(PartitionMode::Dp2)
            .epochs(5)
            .adapt_epochs(2)
            .workers(vec![WorkerSpec::cpu(2), WorkerSpec::cpu(2)])
            .build();
        let report = HccMf::new(cfg).train(&ds.matrix).unwrap();
        assert_eq!(report.strategy_used, StrategyChoice::Dp2);
        // After the DP2 step, shares should differ (staggered).
        let final_x = report.final_partition().unwrap();
        assert!((final_x[0] - final_x[1]).abs() > 1e-6, "{final_x:?}");
    }

    #[test]
    fn report_accounting_is_consistent() {
        let ds = dataset(150, 80, 3_000);
        let cfg = base_config().epochs(3).build();
        let report = HccMf::new(cfg).train(&ds.matrix).unwrap();
        assert_eq!(report.epoch_times.len(), 3);
        assert_eq!(report.worker_stats.len(), 3);
        assert_eq!(report.sync_times.len(), 3);
        assert_eq!(report.partition_history.len(), 3);
        // Every entry is swept once per epoch.
        assert_eq!(report.total_updates, 3_000 * 3);
        assert!(report.computing_power() > 0.0);
    }
}
