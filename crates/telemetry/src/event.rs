//! Typed event taxonomy mirroring the paper's epoch time-cost model.
//!
//! Eqs. 1–4 decompose one epoch into per-worker pull, compute, and push
//! terms plus the server's synchronization term; the event types here carry
//! exactly those quantities (as [`Phase`] spans), the per-direction wire
//! volume the communication strategies trade against (as [`Event::Bytes`]),
//! and the fault-tolerance layer's disruptions (straggler, rollback,
//! worker-lost, checkpoint) whose overhead the model does *not* predict —
//! so a timeline shows both what the model covers and what it misses.

/// One phase of the `pull → compute → push → sync` epoch loop (Fig. 4),
/// i.e. the term of Eq. 1/2 a span contributes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// `t_pull`: reading the published feature matrix (in the lock-step
    /// epoch timed from the publish, so a wait for a CPU counts here).
    Pull,
    /// `t_comp`: the Hogwild SGD sweep.
    Comp,
    /// `t_push`: submitting updated factors.
    Push,
    /// `t_sync`: the server merging one worker's push (Eq. 3 term).
    Sync,
    /// A serving-side top-k query (outside the Eq. 1–4 training model;
    /// recorded by `hcc-serve` for per-query latency percentiles).
    Query,
}

impl Phase {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Pull => "pull",
            Phase::Comp => "comp",
            Phase::Push => "push",
            Phase::Sync => "sync",
            Phase::Query => "query",
        }
    }

    /// Inverse of [`name`](Phase::name).
    pub fn from_name(s: &str) -> Option<Phase> {
        Some(match s {
            "pull" => Phase::Pull,
            "comp" => Phase::Comp,
            "push" => Phase::Push,
            "sync" => Phase::Sync,
            "query" => Phase::Query,
            _ => return None,
        })
    }
}

/// Wire direction for byte counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Server → worker (publish/pull region traffic).
    Pull,
    /// Worker → server (push/collect traffic).
    Push,
}

impl Dir {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Dir::Pull => "pull",
            Dir::Push => "push",
        }
    }

    /// Inverse of [`name`](Dir::name).
    pub fn from_name(s: &str) -> Option<Dir> {
        Some(match s {
            "pull" => Dir::Pull,
            "push" => Dir::Push,
            _ => return None,
        })
    }
}

/// Why a network RPC had to be retried (the transport-level cause the
/// socket COMM reports; shared-memory transports never emit these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetCause {
    /// The per-RPC deadline expired with no reply.
    Timeout,
    /// The reply (or the request, as nacked by the server) failed its
    /// CRC-32 integrity check.
    Corrupt,
    /// The peer hung up mid-exchange.
    Disconnected,
    /// The link is partitioned: reconnect attempts are exhausted.
    Partitioned,
}

impl NetCause {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            NetCause::Timeout => "timeout",
            NetCause::Corrupt => "corrupt",
            NetCause::Disconnected => "disconnected",
            NetCause::Partitioned => "partitioned",
        }
    }

    /// Inverse of [`name`](NetCause::name).
    pub fn from_name(s: &str) -> Option<NetCause> {
        Some(match s {
            "timeout" => NetCause::Timeout,
            "corrupt" => NetCause::Corrupt,
            "disconnected" => NetCause::Disconnected,
            "partitioned" => NetCause::Partitioned,
            _ => return None,
        })
    }
}

/// One telemetry event. All timestamps are microseconds since the
/// [`Telemetry`](crate::Telemetry) handle was created (a single monotonic
/// origin, so spans from different workers interleave on one time axis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A timed phase span of worker `worker` during `epoch`.
    Phase {
        /// Training epoch the span belongs to.
        epoch: u32,
        /// Worker index (or the server id, `Header::workers`, for sync
        /// spans attributed to a worker's merge).
        worker: u32,
        /// Which cost-model term this time belongs to.
        phase: Phase,
        /// Span start, µs since the telemetry origin.
        start_us: u64,
        /// Span duration in µs.
        dur_us: u64,
    },
    /// Bytes that crossed the wire in one direction during `epoch`
    /// (aggregate across workers; attributed to the server lane).
    Bytes {
        /// Training epoch.
        epoch: u32,
        /// Direction of travel.
        dir: Dir,
        /// Bytes on the wire (post-compression, i.e. FP16 counts half).
        bytes: u64,
    },
    /// The supervisor flagged `worker` as a straggler after `epoch`.
    Straggler {
        /// Epoch after which the classification ran.
        epoch: u32,
        /// Straggling worker (starting-fleet index, stable as the fleet
        /// shrinks).
        worker: u32,
    },
    /// The supervisor declared `worker` dead after `epoch`.
    WorkerLost {
        /// Epoch after which the classification ran.
        epoch: u32,
        /// Dead worker (starting-fleet index).
        worker: u32,
    },
    /// The divergence guard rolled the model back during `epoch`.
    Rollback {
        /// Epoch that diverged and will be retried.
        epoch: u32,
        /// Cumulative learning-rate scale after the backoff.
        lr_scale: f64,
    },
    /// A crash-safe checkpoint was written after `epoch`.
    Checkpoint {
        /// Epoch the checkpoint covers (epochs completed).
        epoch: u32,
        /// Time spent flushing + writing, µs.
        dur_us: u64,
    },
    /// Epoch `epoch` was accepted; `wall_us` is its wall-clock time.
    EpochEnd {
        /// Accepted epoch.
        epoch: u32,
        /// Wall-clock duration of the epoch's execution, µs.
        wall_us: u64,
    },
    /// A network RPC was retried during `epoch` (socket transport only).
    NetRetry {
        /// Training epoch the retry happened in.
        epoch: u32,
        /// Worker whose link retried (starting-fleet index).
        worker: u32,
        /// What went wrong with the previous attempt.
        cause: NetCause,
        /// Backoff delay applied before the retry, µs.
        delay_us: u64,
        /// Bytes re-sent by the retry (cumulates into the epoch's
        /// retransmit total in [`summary::epoch_breakdown`](crate::summary::epoch_breakdown)).
        bytes: u64,
    },
    /// A worker's connection to the server was re-established after a
    /// failure (socket transport only).
    Reconnect {
        /// Training epoch the reconnect happened in.
        epoch: u32,
        /// Worker whose link reconnected (starting-fleet index).
        worker: u32,
        /// Which dial attempt succeeded (1-based; 0 is the eager dial).
        attempt: u32,
        /// Backoff delay that preceded the successful dial, µs.
        delay_us: u64,
    },
    /// Admission-queue state sampled by the serving dispatcher after it
    /// drained one micro-batch (serving-side; outside the Eq. 1–4 training
    /// model, so `epoch` is always 0 — kept for the uniform accessor).
    Admission {
        /// Always 0 for serving events.
        epoch: u32,
        /// Queries still waiting in the queue after the drain.
        depth: u64,
        /// Queries shed since the pipeline started (cumulative).
        shed: u64,
        /// Queries admitted into the drained micro-batch.
        admitted: u64,
    },
}

impl Event {
    /// The epoch this event belongs to.
    pub fn epoch(&self) -> u32 {
        match *self {
            Event::Phase { epoch, .. }
            | Event::Bytes { epoch, .. }
            | Event::Straggler { epoch, .. }
            | Event::WorkerLost { epoch, .. }
            | Event::Rollback { epoch, .. }
            | Event::Checkpoint { epoch, .. }
            | Event::EpochEnd { epoch, .. }
            | Event::NetRetry { epoch, .. }
            | Event::Reconnect { epoch, .. }
            | Event::Admission { epoch, .. } => epoch,
        }
    }
}

/// Static run description emitted as the first JSONL line. Identifies the
/// configuration the timeline was captured under, including the kernel
/// dispatch tag so perf numbers are attributable to a code path.
#[derive(Debug, Clone, PartialEq)]
pub struct Header {
    /// Workers at the start of the run.
    pub workers: u32,
    /// Latent dimension `k`.
    pub k: u32,
    /// Observed ratings being swept per epoch.
    pub nnz: u64,
    /// Communication strategy name (`q-only`, `full-pq`, `half-q`).
    pub strategy: String,
    /// Asynchronous pipeline streams (1 = synchronous path).
    pub streams: u32,
    /// Kernel dispatch tag (e.g. `avx2+fma+f16c`, `scalar`).
    pub backend: String,
    /// Hogwild schedule name (`stripe`, `tiled`).
    pub schedule: String,
}

/// A finished run's telemetry: header, the drained per-lane events merged
/// into one chronologically ordered stream, and the drop counter.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Run description.
    pub header: Header,
    /// All recorded events, sorted by start time.
    pub events: Vec<Event>,
    /// Events discarded because a ring buffer was full.
    pub dropped: u64,
}

impl Timeline {
    /// The server lane's worker id (`workers` indexes past the last worker).
    pub fn server_id(&self) -> u32 {
        self.header.workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_and_dir_names_roundtrip() {
        for p in [
            Phase::Pull,
            Phase::Comp,
            Phase::Push,
            Phase::Sync,
            Phase::Query,
        ] {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        for d in [Dir::Pull, Dir::Push] {
            assert_eq!(Dir::from_name(d.name()), Some(d));
        }
        for c in [
            NetCause::Timeout,
            NetCause::Corrupt,
            NetCause::Disconnected,
            NetCause::Partitioned,
        ] {
            assert_eq!(NetCause::from_name(c.name()), Some(c));
        }
        assert_eq!(Phase::from_name("bogus"), None);
        assert_eq!(Dir::from_name("bogus"), None);
        assert_eq!(NetCause::from_name("bogus"), None);
    }

    #[test]
    fn event_epoch_accessor() {
        assert_eq!(
            Event::Rollback {
                epoch: 7,
                lr_scale: 0.5
            }
            .epoch(),
            7
        );
        assert_eq!(
            Event::Bytes {
                epoch: 3,
                dir: Dir::Pull,
                bytes: 10
            }
            .epoch(),
            3
        );
        assert_eq!(
            Event::NetRetry {
                epoch: 5,
                worker: 1,
                cause: NetCause::Corrupt,
                delay_us: 250,
                bytes: 64
            }
            .epoch(),
            5
        );
        assert_eq!(
            Event::Reconnect {
                epoch: 6,
                worker: 0,
                attempt: 2,
                delay_us: 10
            }
            .epoch(),
            6
        );
    }
}
