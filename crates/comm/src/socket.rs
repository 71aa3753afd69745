//! `CommSocket`: the [`Transport`] trait over a real socket.
//!
//! The shared-memory transports assume server and workers share an address
//! space; this one speaks the [`crate::frame`] RPC protocol over a real
//! socket — a Unix domain socket by default ([`CommSocket::new`]) or a
//! loopback TCP listener ([`CommSocket::new_tcp`]), the multi-node wire.
//! Both speak the same `HCF1` frames through the same deadline / retry /
//! reconnect / dedup machinery; the only difference is how the stream is
//! dialed.
//!
//! Resilience model:
//!
//! * **Deadlines** — every RPC sets a read/write timeout on the stream; a
//!   silent peer costs at most `SocketConfig::rpc_timeout` per attempt.
//! * **Bounded retries** — an RPC that times out or draws a corrupt
//!   response is re-sent up to `rpc_retries` times; resent bytes are
//!   accounted as retransmissions.
//! * **Reconnect with jittered backoff** — a broken stream is re-dialed
//!   through a seeded [`Backoff`]; exhausting the attempt budget marks the
//!   link partitioned.
//! * **Idempotent pushes** — each push carries a per-worker sequence
//!   number in the frame's `epoch` field; the server applies a given
//!   `(worker, seq, chunk)` key at most once, so a retry whose original
//!   did land never double-applies. Duplicates are still acknowledged
//!   (the ack, not the apply, is what the retry needs).
//!
//! Failures degrade instead of propagating: a push that cannot be
//! delivered is dropped after the retry budget, and the supervisor sees it
//! as a missing collect — the same path a crashed worker takes.

use crate::backoff::Backoff;
use crate::frame::{Frame, FrameRef, FrameView, RpcKind, HEADER_LEN};
use crate::transport::{CommError, Precision, Transport};
use parking_lot::{Condvar, Mutex, RwLock};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where a [`CommSocket`] listens: a Unix socket path or a TCP address.
#[derive(Debug, Clone)]
enum SockAddr {
    Unix(PathBuf),
    Tcp(SocketAddr),
}

/// A listener over either socket family.
enum SockListener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl SockListener {
    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match self {
            SockListener::Unix(l) => l.set_nonblocking(nonblocking),
            SockListener::Tcp(l) => l.set_nonblocking(nonblocking),
        }
    }

    fn accept(&self) -> std::io::Result<SockStream> {
        match self {
            SockListener::Unix(l) => l.accept().map(|(s, _)| SockStream::Unix(s)),
            SockListener::Tcp(l) => {
                let (s, _) = l.accept()?;
                // The server's replies are latency-bound too: its acks and
                // the sub-MSS tail of a pull reply must not wait on Nagle.
                s.set_nodelay(true)?;
                Ok(SockStream::Tcp(s))
            }
        }
    }
}

/// A connected stream over either socket family. Both std types expose the
/// same blocking/timeout surface, so the RPC machinery is family-blind.
enum SockStream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl SockStream {
    fn connect(addr: &SockAddr) -> std::io::Result<SockStream> {
        match addr {
            SockAddr::Unix(path) => UnixStream::connect(path).map(SockStream::Unix),
            SockAddr::Tcp(sa) => {
                let s = TcpStream::connect(sa)?;
                // Request/response RPCs are latency-bound: never batch the
                // small request frames behind Nagle.
                s.set_nodelay(true)?;
                Ok(SockStream::Tcp(s))
            }
        }
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        match self {
            SockStream::Unix(s) => s.set_nonblocking(nonblocking),
            SockStream::Tcp(s) => s.set_nonblocking(nonblocking),
        }
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            SockStream::Unix(s) => s.set_read_timeout(t),
            SockStream::Tcp(s) => s.set_read_timeout(t),
        }
    }

    fn set_write_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            SockStream::Unix(s) => s.set_write_timeout(t),
            SockStream::Tcp(s) => s.set_write_timeout(t),
        }
    }
}

impl Read for SockStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            SockStream::Unix(s) => s.read(buf),
            SockStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for SockStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            SockStream::Unix(s) => s.write(buf),
            SockStream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            SockStream::Unix(s) => s.flush(),
            SockStream::Tcp(s) => s.flush(),
        }
    }
}

/// Push acknowledged and applied (or deduplicated).
const STATUS_OK: u32 = 0;
/// Push arrived but failed its integrity check: sender must retry.
const STATUS_CORRUPT: u32 = 1;

/// Monotonic counter so concurrent transports in one process get distinct
/// socket paths.
static SOCKET_ID: AtomicU64 = AtomicU64::new(0);

/// Tuning knobs for [`CommSocket`]'s resilience machinery.
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// Per-attempt RPC deadline (read and write).
    pub rpc_timeout: Duration,
    /// How many times one RPC may be attempted before giving up.
    pub rpc_retries: usize,
    /// How many re-dials a broken stream gets before the link counts as
    /// partitioned.
    pub reconnect_attempts: usize,
    /// First reconnect/retry delay.
    pub backoff_initial: Duration,
    /// Exponential growth factor for the backoff ladder.
    pub backoff_factor: f64,
    /// Jitter fraction (±) applied to every backoff delay.
    pub backoff_jitter: f64,
    /// Upper bound on any single backoff delay.
    pub backoff_max: Duration,
    /// Seed for the deterministic jitter stream (mixed with the worker id).
    pub seed: u64,
    /// Tag pushes as [`RpcKind::DeltaPush`]: the payload is a row-delta in
    /// the [`crate::delta`] layout rather than a full buffer. The server
    /// treats both kinds identically (same dedup/ack path) — the tag lets
    /// the *collector* know the buffer needs delta decoding.
    pub delta_push: bool,
}

impl Default for SocketConfig {
    fn default() -> SocketConfig {
        SocketConfig {
            rpc_timeout: Duration::from_millis(500),
            rpc_retries: 3,
            reconnect_attempts: 3,
            backoff_initial: Duration::from_millis(5),
            backoff_factor: 2.0,
            backoff_jitter: 0.25,
            backoff_max: Duration::from_millis(200),
            seed: 0x5EED,
            delta_push: false,
        }
    }
}

/// Cumulative resilience counters (monotonic over the transport's life).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Bytes sent again because a prior attempt timed out or was refused.
    pub retrans_bytes: u64,
    /// Pushes the server recognized as duplicates and did not re-apply.
    pub dedup_hits: u64,
    /// Successful re-dials of a broken stream.
    pub reconnects: u64,
}

/// What a drained network event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetEventKind {
    /// An RPC attempt failed and will be retried after `delay`.
    Retry {
        /// Why the attempt failed.
        cause: CommError,
        /// Bytes that will be re-sent.
        bytes: u64,
    },
    /// A broken stream was successfully re-dialed.
    Reconnect {
        /// 1-based attempt number that succeeded.
        attempt: u32,
    },
}

/// One resilience event, drained by the training loop for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetEvent {
    /// Worker whose link produced the event.
    pub worker: usize,
    /// Retry or reconnect.
    pub kind: NetEventKind,
    /// Backoff delay that preceded (retry) or followed (reconnect) the
    /// event, in microseconds.
    pub delay_us: u64,
}

// ---------------------------------------------------------------------------
// Server state
// ---------------------------------------------------------------------------

struct SlotData {
    buf: Vec<f32>,
    /// Elements of `buf` the last push actually wrote. Delta pushes are
    /// variable-length, so a collect must not read stale tail elements
    /// from an earlier, longer push.
    len: usize,
    ready: bool,
    /// Idempotency key of the last applied push: `(seq, chunk)`.
    last_applied: Option<(u32, u32)>,
}

struct PushSlot {
    data: Mutex<SlotData>,
    cv: Condvar,
}

struct ServerState {
    precision: Precision,
    published: RwLock<Vec<f32>>,
    slots: Vec<PushSlot>,
    pull_bytes: AtomicU64,
    push_bytes: AtomicU64,
    dedup_hits: AtomicU64,
    shutdown: AtomicBool,
}

impl ServerState {
    /// Handles one accepted connection until EOF or an unrecoverable
    /// framing error.
    fn serve_conn(&self, mut stream: SockStream) {
        let mut header = [0u8; HEADER_LEN];
        loop {
            // ordering: Relaxed — shutdown flag; the dummy wake-up connect
            // in Drop provides the actual hand-off.
            if self.shutdown.load(Ordering::Relaxed) {
                return;
            }
            if stream.read_exact(&mut header).is_err() {
                return; // EOF / reset: the client will re-dial.
            }
            let body_len = match Frame::body_len(&header) {
                Ok(n) => n,
                // Corrupt header: frame boundaries are lost, so the only
                // safe recovery is dropping the connection.
                Err(_) => return,
            };
            let mut buf = vec![0u8; HEADER_LEN + body_len];
            buf[..HEADER_LEN].copy_from_slice(&header);
            if stream.read_exact(&mut buf[HEADER_LEN..]).is_err() {
                return;
            }
            let frame = match FrameView::parse(&buf[..]) {
                Ok(f) => f,
                Err(_) => {
                    // Framing held but the body failed its CRC: nack so
                    // the sender retries the same sequence number.
                    let worker = u16::from_le_bytes([header[6], header[7]]);
                    let epoch = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
                    let nack = Frame::control(RpcKind::Sync, worker, epoch, STATUS_CORRUPT);
                    if stream.write_all(&nack.encode()).is_err() {
                        return;
                    }
                    continue;
                }
            };
            match frame.kind {
                RpcKind::Pull => {
                    // Encoded straight from the published region under its
                    // read guard; the guard drops before the socket write.
                    let bytes = FrameRef {
                        kind: RpcKind::Pull,
                        precision: self.precision,
                        worker: frame.worker,
                        epoch: frame.epoch,
                        chunk: 0,
                        payload: &self.published.read(),
                    }
                    .encode();
                    // ordering: Relaxed — wire-byte statistic.
                    self.pull_bytes
                        .fetch_add(bytes.len() as u64, Ordering::Relaxed);
                    if stream.write_all(&bytes).is_err() {
                        return;
                    }
                }
                // DeltaPush differs from Push only in what the payload
                // *means* (a row-delta vs a full buffer); on the server it
                // is plain bytes into the slot, same dedup, same ack.
                RpcKind::Push | RpcKind::DeltaPush => {
                    // ordering: Relaxed — wire-byte statistic.
                    self.push_bytes
                        .fetch_add(buf.len() as u64, Ordering::Relaxed);
                    let w = frame.worker as usize;
                    if w >= self.slots.len() {
                        return; // malformed peer: drop the connection.
                    }
                    let key = (frame.epoch, frame.chunk);
                    let slot = &self.slots[w];
                    {
                        let mut data = slot.data.lock();
                        if data.last_applied == Some(key) {
                            // Idempotent dedup: the original already
                            // applied; only the ack was lost.
                            // ordering: Relaxed — statistic.
                            self.dedup_hits.fetch_add(1, Ordering::Relaxed);
                        } else {
                            // The CRC already held, so the payload decodes
                            // straight into the slot; one longer than the
                            // slot is a malformed peer: drop the connection.
                            let n = frame.payload_len();
                            let Some(dst) = data.buf.get_mut(..n) else {
                                return;
                            };
                            if frame.decode_payload(dst).is_err() {
                                return;
                            }
                            data.len = n;
                            data.ready = true;
                            data.last_applied = Some(key);
                            slot.cv.notify_all();
                        }
                    }
                    let ack = Frame::control(RpcKind::Sync, frame.worker, frame.epoch, STATUS_OK);
                    if stream.write_all(&ack.encode()).is_err() {
                        return;
                    }
                }
                RpcKind::Sync => {
                    // Clients never send Sync; ignore.
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Client state
// ---------------------------------------------------------------------------

struct WorkerConn {
    stream: Option<SockStream>,
    /// Per-worker push sequence number (the idempotency key's coarse
    /// half; one push per supervised epoch makes it the epoch counter).
    push_seq: u32,
}

// ---------------------------------------------------------------------------
// CommSocket
// ---------------------------------------------------------------------------

/// A [`Transport`] over a Unix domain socket or loopback TCP with
/// deadlines, bounded retries, jittered reconnect backoff, and idempotent
/// pushes. See the module docs for the resilience model.
pub struct CommSocket {
    addr: SockAddr,
    cfg: SocketConfig,
    precision: Precision,
    state: Arc<ServerState>,
    conns: Vec<Mutex<WorkerConn>>,
    events: Mutex<Vec<NetEvent>>,
    retrans_bytes: AtomicU64,
    reconnects: AtomicU64,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    conn_handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl CommSocket {
    /// Binds a fresh loopback socket and starts the accept loop, with
    /// default resilience tuning.
    pub fn new(
        workers: usize,
        pull_len: usize,
        push_len: usize,
        precision: Precision,
    ) -> std::io::Result<CommSocket> {
        Self::with_config(
            workers,
            pull_len,
            push_len,
            precision,
            SocketConfig::default(),
        )
    }

    /// [`CommSocket::new`] with explicit [`SocketConfig`] tuning.
    pub fn with_config(
        workers: usize,
        pull_len: usize,
        push_len: usize,
        precision: Precision,
        cfg: SocketConfig,
    ) -> std::io::Result<CommSocket> {
        // ordering: Relaxed — the counter only needs uniqueness, not
        // synchronization with other memory.
        let id = SOCKET_ID.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("hcc-comm-{}-{}.sock", std::process::id(), id));
        let _ = std::fs::remove_file(&path);
        let listener = SockListener::Unix(UnixListener::bind(&path)?);
        Self::start(
            SockAddr::Unix(path),
            listener,
            workers,
            pull_len,
            push_len,
            precision,
            cfg,
        )
    }

    /// Binds a loopback TCP listener (an OS-assigned port on 127.0.0.1)
    /// instead of a Unix socket — the multi-node wire — with default
    /// resilience tuning.
    pub fn new_tcp(
        workers: usize,
        pull_len: usize,
        push_len: usize,
        precision: Precision,
    ) -> std::io::Result<CommSocket> {
        Self::with_config_tcp(
            workers,
            pull_len,
            push_len,
            precision,
            SocketConfig::default(),
        )
    }

    /// [`CommSocket::new_tcp`] with explicit [`SocketConfig`] tuning.
    pub fn with_config_tcp(
        workers: usize,
        pull_len: usize,
        push_len: usize,
        precision: Precision,
        cfg: SocketConfig,
    ) -> std::io::Result<CommSocket> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = SockAddr::Tcp(listener.local_addr()?);
        Self::start(
            addr,
            SockListener::Tcp(listener),
            workers,
            pull_len,
            push_len,
            precision,
            cfg,
        )
    }

    /// Shared tail of the constructors: spins up server state and the
    /// accept loop over an already-bound listener.
    fn start(
        addr: SockAddr,
        listener: SockListener,
        workers: usize,
        pull_len: usize,
        push_len: usize,
        precision: Precision,
        cfg: SocketConfig,
    ) -> std::io::Result<CommSocket> {
        let state = Arc::new(ServerState {
            precision,
            published: RwLock::new(vec![0f32; pull_len]),
            slots: (0..workers)
                .map(|_| PushSlot {
                    data: Mutex::new(SlotData {
                        buf: vec![0f32; push_len],
                        len: push_len,
                        ready: false,
                        last_applied: None,
                    }),
                    cv: Condvar::new(),
                })
                .collect(),
            pull_bytes: AtomicU64::new(0),
            push_bytes: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let conn_handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        // Nonblocking accept loop: polling lets Drop stop the thread by
        // flag alone, with no wake-up connection that could itself fail
        // (e.g. when a test tears the socket file away mid-run).
        listener.set_nonblocking(true)?;
        let accept_state = state.clone();
        let accept_conns = conn_handles.clone();
        let accept_handle = std::thread::spawn(move || loop {
            // ordering: Relaxed — shutdown flag; the poll loop re-checks
            // within milliseconds, no data is protected by it.
            if accept_state.shutdown.load(Ordering::Relaxed) {
                return;
            }
            match listener.accept() {
                Ok(stream) => {
                    // Accepted sockets must block: serve_conn reads frames
                    // with plain read_exact.
                    if stream.set_nonblocking(false).is_err() {
                        continue;
                    }
                    let st = accept_state.clone();
                    let h = std::thread::spawn(move || st.serve_conn(stream));
                    accept_conns.lock().push(h);
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        });
        Ok(CommSocket {
            addr,
            cfg,
            precision,
            state,
            conns: (0..workers)
                .map(|_| {
                    Mutex::new(WorkerConn {
                        stream: None,
                        push_seq: 0,
                    })
                })
                .collect(),
            events: Mutex::new(Vec::new()),
            retrans_bytes: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            accept_handle: Some(accept_handle),
            conn_handles,
        })
    }

    /// Filesystem path of the listening socket (for diagnostics); `None`
    /// for a TCP transport.
    pub fn socket_path(&self) -> Option<&std::path::Path> {
        match &self.addr {
            SockAddr::Unix(path) => Some(path),
            SockAddr::Tcp(_) => None,
        }
    }

    /// TCP address of the listening socket; `None` for a Unix transport.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match &self.addr {
            SockAddr::Unix(_) => None,
            SockAddr::Tcp(sa) => Some(*sa),
        }
    }

    /// Cumulative resilience counters.
    pub fn net_stats(&self) -> NetStats {
        NetStats {
            // ordering: Relaxed — statistics read for reports.
            retrans_bytes: self.retrans_bytes.load(Ordering::Relaxed),
            // ordering: Relaxed — statistic (see above).
            dedup_hits: self.state.dedup_hits.load(Ordering::Relaxed),
            // ordering: Relaxed — statistic (see above).
            reconnects: self.reconnects.load(Ordering::Relaxed),
        }
    }

    fn record_event(&self, ev: NetEvent) {
        self.events.lock().push(ev);
    }

    fn backoff_for(&self, worker: usize) -> Backoff {
        Backoff::new(self.cfg.backoff_initial, self.cfg.backoff_factor)
            .with_max(self.cfg.backoff_max)
            .with_jitter(
                self.cfg.seed ^ ((worker as u64) << 17),
                self.cfg.backoff_jitter,
            )
    }

    /// Ensures `conn` holds a live stream, re-dialing with backoff.
    /// Returns `false` when the attempt budget is exhausted (the link is
    /// partitioned for now).
    fn ensure_connected(&self, worker: usize, conn: &mut WorkerConn) -> bool {
        if conn.stream.is_some() {
            return true;
        }
        let mut backoff = self.backoff_for(worker);
        for attempt in 0..self.cfg.reconnect_attempts.max(1) {
            let delay = if attempt == 0 {
                Duration::ZERO // first dial is eager
            } else {
                backoff.next_delay()
            };
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            if let Ok(stream) = SockStream::connect(&self.addr) {
                conn.stream = Some(stream);
                if attempt > 0 {
                    // ordering: Relaxed — statistic.
                    self.reconnects.fetch_add(1, Ordering::Relaxed);
                    self.record_event(NetEvent {
                        worker,
                        kind: NetEventKind::Reconnect {
                            attempt: attempt as u32,
                        },
                        delay_us: delay.as_micros() as u64,
                    });
                }
                return true;
            }
        }
        false
    }

    /// One framed request/response exchange with the deadline applied.
    /// The reply comes back validated but still in its wire buffer.
    fn exchange(
        stream: &mut SockStream,
        request: &[u8],
        timeout: Duration,
    ) -> std::io::Result<Result<FrameView<Vec<u8>>, CommError>> {
        let deadline = timeout.max(Duration::from_millis(1));
        stream.set_write_timeout(Some(deadline))?;
        stream.set_read_timeout(Some(deadline))?;
        stream.write_all(request)?;
        let mut header = [0u8; HEADER_LEN];
        stream.read_exact(&mut header)?;
        let body_len = match Frame::body_len(&header) {
            Ok(n) => n,
            Err(_) => return Ok(Err(CommError::Corrupt)),
        };
        let mut buf = vec![0u8; HEADER_LEN + body_len];
        buf[..HEADER_LEN].copy_from_slice(&header);
        stream.read_exact(&mut buf[HEADER_LEN..])?;
        Ok(FrameView::parse(buf).map_err(|_| CommError::Corrupt))
    }

    /// Runs one RPC — `request` is an encoded frame — with the full
    /// resilience stack: deadline per attempt, bounded retries,
    /// reconnect-on-breakage. Returns the validated response frame or the
    /// terminal error.
    fn rpc(&self, worker: usize, request: &[u8]) -> Result<FrameView<Vec<u8>>, CommError> {
        let mut conn = self.conns[worker].lock();
        let mut backoff = self.backoff_for(worker);
        let mut last_err = CommError::Timeout;
        for attempt in 0..self.cfg.rpc_retries.max(1) {
            if attempt > 0 {
                let delay = backoff.next_delay();
                // ordering: Relaxed — statistic.
                self.retrans_bytes
                    .fetch_add(request.len() as u64, Ordering::Relaxed);
                self.record_event(NetEvent {
                    worker,
                    kind: NetEventKind::Retry {
                        cause: last_err,
                        bytes: request.len() as u64,
                    },
                    delay_us: delay.as_micros() as u64,
                });
                std::thread::sleep(delay);
            }
            if !self.ensure_connected(worker, &mut conn) {
                return Err(CommError::PartitionedLink);
            }
            let Some(stream) = conn.stream.as_mut() else {
                return Err(CommError::PartitionedLink);
            };
            match Self::exchange(stream, request, self.cfg.rpc_timeout) {
                Ok(Ok(frame)) => {
                    if frame.kind == RpcKind::Sync && frame.chunk == STATUS_CORRUPT {
                        last_err = CommError::Corrupt; // server nack: retry
                        continue;
                    }
                    return Ok(frame);
                }
                Ok(Err(err)) => {
                    // Corrupt response: the stream may be mid-frame, so
                    // re-dial before retrying.
                    last_err = err;
                    conn.stream = None;
                }
                Err(io) => {
                    last_err = if io.kind() == std::io::ErrorKind::WouldBlock
                        || io.kind() == std::io::ErrorKind::TimedOut
                    {
                        CommError::Timeout
                    } else {
                        CommError::Disconnected
                    };
                    conn.stream = None;
                }
            }
        }
        Err(last_err)
    }

    /// Pulls the published region straight from the reply's wire buffer
    /// into `dst`. A reply that is not a Pull, or whose payload length is
    /// not `dst.len()`, is [`CommError::Corrupt`]; on any error `dst` is
    /// left untouched.
    fn pull_into(&self, worker: usize, dst: &mut [f32]) -> Result<(), CommError> {
        let request = Frame::control(RpcKind::Pull, worker as u16, 0, 0).encode();
        let reply = self.rpc(worker, &request)?;
        if reply.kind != RpcKind::Pull {
            return Err(CommError::Corrupt);
        }
        reply.decode_payload(dst).map_err(|_| CommError::Corrupt)
    }

    /// Sends `src` as push number `seq`, encoded straight from the slice.
    fn send_push(&self, worker: usize, seq: u32, src: &[f32]) -> Result<(), CommError> {
        let kind = if self.cfg.delta_push {
            RpcKind::DeltaPush
        } else {
            RpcKind::Push
        };
        let request = FrameRef {
            kind,
            precision: self.precision,
            worker: worker as u16,
            epoch: seq,
            chunk: 0,
            payload: src,
        }
        .encode();
        self.rpc(worker, &request).map(drop)
    }
}

impl Transport for CommSocket {
    fn publish(&self, src: &[f32]) {
        let mut guard = self.state.published.write();
        let n = src.len().min(guard.len());
        guard[..n].copy_from_slice(&src[..n]);
    }

    fn pull(&self, worker: usize, dst: &mut [f32]) {
        // On failure dst keeps its previous contents; the worker's next
        // push will be stale and the supervisor handles the fallout.
        let _ = self.pull_into(worker, dst);
    }

    fn push(&self, worker: usize, src: &[f32]) {
        let seq = {
            let mut conn = self.conns[worker].lock();
            conn.push_seq = conn.push_seq.wrapping_add(1);
            conn.push_seq
        };
        // A push that exhausts its budget is dropped; the server-side
        // collect times out and the supervisor classifies the worker.
        let _ = self.send_push(worker, seq, src);
    }

    fn push_duplicate(&self, worker: usize, src: &[f32]) {
        // Re-send under the *current* sequence number — a wire duplicate
        // of the last push. The server's (worker, seq, chunk) dedup must
        // acknowledge it without re-applying.
        let seq = self.conns[worker].lock().push_seq;
        let _ = self.send_push(worker, seq, src);
    }

    fn collect(&self, worker: usize, dst: &mut [f32]) {
        let slot = &self.state.slots[worker];
        let mut data = slot.data.lock();
        while !data.ready {
            slot.cv.wait(&mut data);
        }
        data.ready = false;
        let n = data.len.min(data.buf.len()).min(dst.len());
        dst[..n].copy_from_slice(&data.buf[..n]);
    }

    fn collect_timeout(
        &self,
        worker: usize,
        dst: &mut [f32],
        timeout: Duration,
    ) -> Result<(), CommError> {
        let slot = &self.state.slots[worker];
        let deadline = Instant::now() + timeout;
        let mut data = slot.data.lock();
        while !data.ready {
            let now = Instant::now();
            if now >= deadline {
                return Err(CommError::Timeout);
            }
            // Spurious wakeups re-enter the loop with the original deadline.
            slot.cv.wait_for(&mut data, deadline - now);
        }
        data.ready = false;
        let n = data.len.min(data.buf.len()).min(dst.len());
        dst[..n].copy_from_slice(&data.buf[..n]);
        Ok(())
    }

    fn wire_bytes(&self) -> u64 {
        let (pull, push) = self.wire_bytes_by_dir();
        pull + push
    }

    fn wire_bytes_by_dir(&self) -> (u64, u64) {
        // ordering: Relaxed — statistics read for end-of-run reports.
        (
            self.state.pull_bytes.load(Ordering::Relaxed),
            // ordering: Relaxed — statistic (see above).
            self.state.push_bytes.load(Ordering::Relaxed),
        )
    }

    fn workers(&self) -> usize {
        self.conns.len()
    }

    fn drain_net_events(&self) -> Vec<NetEvent> {
        std::mem::take(&mut *self.events.lock())
    }
}

impl Drop for CommSocket {
    fn drop(&mut self) {
        // ordering: Relaxed — the accept loop polls the flag; visibility
        // within one poll interval is all that is needed.
        self.state.shutdown.store(true, Ordering::Relaxed);
        // Close all client streams so per-connection server threads see
        // EOF and exit.
        for conn in &self.conns {
            conn.lock().stream = None;
        }
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        let handles = std::mem::take(&mut *self.conn_handles.lock());
        for h in handles {
            let _ = h.join();
        }
        if let SockAddr::Unix(path) = &self.addr {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn socket(workers: usize, len: usize) -> CommSocket {
        CommSocket::new(workers, len, len, Precision::Fp32).unwrap()
    }

    #[test]
    fn socket_roundtrip_all_workers() {
        let t = socket(3, 64);
        let data: Vec<f32> = (0..64).map(|j| j as f32 * 0.5).collect();
        t.publish(&data);
        for w in 0..3 {
            let mut pulled = vec![0f32; 64];
            t.pull(w, &mut pulled);
            assert_eq!(pulled, data, "worker {w} pull mismatch");
            let local: Vec<f32> = pulled.iter().map(|v| v + 1.0).collect();
            t.push(w, &local);
            let mut collected = vec![0f32; 64];
            t.collect(w, &mut collected);
            assert_eq!(collected, local, "worker {w} collect mismatch");
        }
        assert_eq!(t.workers(), 3);
    }

    #[test]
    fn socket_fp16_wire_roundtrip() {
        let t = CommSocket::new(1, 32, 32, Precision::Fp16).unwrap();
        let data: Vec<f32> = (0..32).map(|j| 0.01 * j as f32 + 0.1).collect();
        t.publish(&data);
        let mut pulled = vec![0f32; 32];
        t.pull(0, &mut pulled);
        for (a, b) in data.iter().zip(&pulled) {
            assert!((a - b).abs() <= a.abs() / 1024.0 + 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn socket_collect_timeout_without_push() {
        let t = socket(1, 4);
        let mut dst = vec![0f32; 4];
        assert_eq!(
            t.collect_timeout(0, &mut dst, Duration::from_millis(20)),
            Err(CommError::Timeout)
        );
    }

    #[test]
    fn socket_collect_timeout_sees_push() {
        let t = Arc::new(socket(1, 4));
        let t2 = t.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            t2.push(0, &[5.0; 4]);
        });
        let mut dst = vec![0f32; 4];
        t.collect_timeout(0, &mut dst, Duration::from_secs(5))
            .unwrap();
        assert_eq!(dst, vec![5.0; 4]);
        h.join().unwrap();
    }

    #[test]
    fn duplicate_sequence_numbers_apply_once() {
        let t = socket(1, 4);
        // Hand-roll two pushes with the same seq (a retry whose original
        // landed): the second must dedup, not re-apply.
        let frame = Frame {
            kind: RpcKind::Push,
            precision: Precision::Fp32,
            worker: 0,
            epoch: 42,
            chunk: 0,
            payload: vec![1.0, 2.0, 3.0, 4.0],
        };
        assert_eq!(t.rpc(0, &frame.encode()).unwrap().chunk, STATUS_OK);
        let mut dst = vec![0f32; 4];
        t.collect_timeout(0, &mut dst, Duration::from_secs(1))
            .unwrap();
        assert_eq!(dst, vec![1.0, 2.0, 3.0, 4.0]);

        // Duplicate: acked but not re-applied, so collect times out.
        assert_eq!(t.rpc(0, &frame.encode()).unwrap().chunk, STATUS_OK);
        assert_eq!(t.net_stats().dedup_hits, 1);
        assert_eq!(
            t.collect_timeout(0, &mut dst, Duration::from_millis(30)),
            Err(CommError::Timeout)
        );

        // A fresh sequence number applies again.
        let next = Frame {
            epoch: 43,
            payload: vec![9.0; 4],
            ..frame
        };
        assert_eq!(t.rpc(0, &next.encode()).unwrap().chunk, STATUS_OK);
        t.collect_timeout(0, &mut dst, Duration::from_secs(1))
            .unwrap();
        assert_eq!(dst, vec![9.0; 4]);
        assert_eq!(t.net_stats().dedup_hits, 1);
    }

    #[test]
    fn wire_bytes_split_sums_to_total() {
        let t = socket(2, 16);
        t.publish(&[1.0f32; 16]);
        let mut buf = vec![0f32; 16];
        t.pull(0, &mut buf);
        t.push(1, &[2.0f32; 16]);
        t.collect(1, &mut buf);
        let (pull, push) = t.wire_bytes_by_dir();
        assert!(pull > 0 && push > 0);
        assert_eq!(pull + push, t.wire_bytes());
    }

    #[test]
    fn corrupt_frame_on_the_wire_is_nacked_and_retried() {
        let t = socket(1, 4);
        // Send a deliberately CRC-broken push by hand, then a clean RPC
        // through the normal path: the transport's own retry machinery
        // must survive the nack.
        {
            let mut conn = t.conns[0].lock();
            assert!(t.ensure_connected(0, &mut conn));
            let stream = conn.stream.as_mut().unwrap();
            let mut bytes = Frame {
                kind: RpcKind::Push,
                precision: Precision::Fp32,
                worker: 0,
                epoch: 7,
                chunk: 0,
                payload: vec![1.0; 4],
            }
            .encode();
            let mid = HEADER_LEN + 2;
            bytes[mid] ^= 0xFF; // corrupt the payload, CRC now mismatches
            let reply = CommSocket::exchange(stream, &bytes, Duration::from_secs(1))
                .unwrap()
                .unwrap();
            assert_eq!(reply.kind, RpcKind::Sync);
            assert_eq!(reply.chunk, STATUS_CORRUPT);
        }
        // The nacked push was never applied.
        let mut dst = vec![0f32; 4];
        assert_eq!(
            t.collect_timeout(0, &mut dst, Duration::from_millis(20)),
            Err(CommError::Timeout)
        );
        // A clean push still works on the same connection.
        t.push(0, &[3.0; 4]);
        t.collect_timeout(0, &mut dst, Duration::from_secs(1))
            .unwrap();
        assert_eq!(dst, vec![3.0; 4]);
    }

    /// Serves `replies` in order on a fresh Unix socket, one per request,
    /// accepting a new connection whenever the client drops the current one.
    fn canned_server(replies: Vec<Vec<u8>>) -> (PathBuf, std::thread::JoinHandle<()>) {
        let id = SOCKET_ID.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "hcc-comm-canned-{}-{}.sock",
            std::process::id(),
            id
        ));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        let handle = std::thread::spawn(move || {
            let mut replies = replies.into_iter().peekable();
            while replies.peek().is_some() {
                let (mut stream, _) = listener.accept().unwrap();
                let mut header = [0u8; HEADER_LEN];
                while stream.read_exact(&mut header).is_ok() {
                    let mut body = vec![0u8; Frame::body_len(&header).unwrap()];
                    stream.read_exact(&mut body).unwrap();
                    let Some(reply) = replies.next() else {
                        return;
                    };
                    let _ = stream.write_all(&reply);
                }
            }
        });
        (path, handle)
    }

    /// A one-worker transport whose client dials `path` instead of its own
    /// server.
    fn client_of(path: PathBuf, cfg: SocketConfig) -> CommSocket {
        let mut t = CommSocket::with_config(1, 4, 4, Precision::Fp32, cfg).unwrap();
        if let SockAddr::Unix(own) = std::mem::replace(&mut t.addr, SockAddr::Unix(path)) {
            let _ = std::fs::remove_file(own);
        }
        t
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn corrupt_pull_reply_leaves_dst_untouched() {
        let mut reply = Frame {
            kind: RpcKind::Pull,
            precision: Precision::Fp32,
            worker: 0,
            epoch: 0,
            chunk: 0,
            payload: vec![1.0, 2.0, 3.0, 4.0],
        }
        .encode();
        reply[HEADER_LEN + 6] ^= 0x40; // payload bit: the CRC now fails
        let cfg = SocketConfig {
            rpc_retries: 2,
            backoff_initial: Duration::from_millis(1),
            ..SocketConfig::default()
        };
        let (path, server) = canned_server(vec![reply.clone(), reply]);
        let t = client_of(path, cfg);
        let mut dst = [-0.0f32, f32::NAN, 5.5, f32::MIN_POSITIVE];
        let before = bits(&dst);
        assert_eq!(t.pull_into(0, &mut dst), Err(CommError::Corrupt));
        assert_eq!(bits(&dst), before, "a corrupt reply must not touch dst");
        drop(t);
        server.join().unwrap();
    }

    #[test]
    fn mismatched_pull_reply_is_corrupt_not_a_partial_copy() {
        let wrong_kind = Frame {
            kind: RpcKind::Push,
            precision: Precision::Fp32,
            worker: 0,
            epoch: 0,
            chunk: 0,
            payload: vec![1.0; 4],
        }
        .encode();
        let wrong_len = Frame {
            kind: RpcKind::Pull,
            payload: vec![2.0; 3],
            ..Frame::control(RpcKind::Pull, 0, 0, 0)
        }
        .encode();
        let (path, server) = canned_server(vec![wrong_kind, wrong_len]);
        let t = client_of(path, SocketConfig::default());
        let mut dst = [9.0f32; 4];
        assert_eq!(t.pull_into(0, &mut dst), Err(CommError::Corrupt));
        assert_eq!(dst, [9.0; 4]);
        assert_eq!(t.pull_into(0, &mut dst), Err(CommError::Corrupt));
        assert_eq!(dst, [9.0; 4]);
        drop(t);
        server.join().unwrap();

        // Against the real server: a region of 8 pulled into 4 slots.
        let t = CommSocket::new(1, 8, 8, Precision::Fp32).unwrap();
        t.publish(&[1.0; 8]);
        let mut dst = [0.5f32; 4];
        assert_eq!(t.pull_into(0, &mut dst), Err(CommError::Corrupt));
        assert_eq!(dst, [0.5; 4]);
    }

    #[test]
    fn corrupt_or_oversized_push_leaves_slot_untouched() {
        let t = socket(1, 4);
        t.push(0, &[1.0, -2.0, 3.0, -4.0]);
        let snapshot = |t: &CommSocket| {
            let d = t.state.slots[0].data.lock();
            (bits(&d.buf), d.len, d.ready, d.last_applied)
        };
        let before = snapshot(&t);
        assert_eq!(before.3, Some((1, 0)));

        let mut bytes = Frame {
            kind: RpcKind::Push,
            precision: Precision::Fp32,
            worker: 0,
            epoch: 2,
            chunk: 0,
            payload: vec![9.0; 4],
        }
        .encode();
        bytes[HEADER_LEN + 5] ^= 0x10;
        {
            let mut conn = t.conns[0].lock();
            let stream = conn.stream.as_mut().unwrap();
            let reply = CommSocket::exchange(stream, &bytes, Duration::from_secs(1))
                .unwrap()
                .unwrap();
            assert_eq!(reply.chunk, STATUS_CORRUPT);
        }
        assert_eq!(
            snapshot(&t),
            before,
            "a corrupt push must not touch the slot"
        );

        // A push longer than the slot is a malformed peer: never applied,
        // not even in part.
        let long = Frame {
            epoch: 3,
            payload: vec![7.0; 5],
            ..Frame::control(RpcKind::Push, 0, 0, 0)
        }
        .encode();
        assert!(t.rpc(0, &long).is_err());
        assert_eq!(snapshot(&t), before);
    }

    #[test]
    fn accepted_tcp_streams_disable_nagle() {
        let tcp = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = tcp.local_addr().unwrap();
        let listener = SockListener::Tcp(tcp);
        let _client = TcpStream::connect(addr).unwrap();
        match listener.accept().unwrap() {
            SockStream::Tcp(s) => assert!(s.nodelay().unwrap()),
            SockStream::Unix(_) => panic!("a TCP listener accepted a Unix stream"),
        }
    }

    #[test]
    fn reconnect_after_stream_breakage() {
        let t = socket(1, 4);
        t.publish(&[1.0, 2.0, 3.0, 4.0]);
        let mut dst = vec![0f32; 4];
        t.pull(0, &mut dst);
        assert_eq!(dst, vec![1.0, 2.0, 3.0, 4.0]);
        // Break the stream under the transport's feet.
        t.conns[0].lock().stream = None;
        t.pull(0, &mut dst);
        assert_eq!(dst, vec![1.0, 2.0, 3.0, 4.0], "re-dial served the pull");
    }

    #[test]
    fn partitioned_link_reported_when_server_gone() {
        let cfg = SocketConfig {
            rpc_timeout: Duration::from_millis(30),
            rpc_retries: 2,
            reconnect_attempts: 2,
            backoff_initial: Duration::from_millis(1),
            backoff_max: Duration::from_millis(2),
            ..SocketConfig::default()
        };
        let t = CommSocket::with_config(1, 4, 4, Precision::Fp32, cfg).unwrap();
        // Tear the listener down by stealing its socket file.
        std::fs::remove_file(t.socket_path().unwrap()).unwrap();
        let req = Frame::control(RpcKind::Pull, 0, 0, 0);
        let err = t.rpc(0, &req.encode()).unwrap_err();
        assert_eq!(err, CommError::PartitionedLink);
    }

    #[test]
    fn tcp_roundtrip_all_workers() {
        let t = CommSocket::new_tcp(3, 64, 64, Precision::Fp32).unwrap();
        assert!(t.socket_path().is_none());
        let addr = t.tcp_addr().unwrap();
        assert!(addr.ip().is_loopback());
        let data: Vec<f32> = (0..64).map(|j| j as f32 * 0.25).collect();
        t.publish(&data);
        for w in 0..3 {
            let mut pulled = vec![0f32; 64];
            t.pull(w, &mut pulled);
            assert_eq!(pulled, data, "worker {w} pull mismatch over tcp");
            let local: Vec<f32> = pulled.iter().map(|v| v - 1.0).collect();
            t.push(w, &local);
            let mut collected = vec![0f32; 64];
            t.collect(w, &mut collected);
            assert_eq!(collected, local, "worker {w} collect mismatch over tcp");
        }
    }

    #[test]
    fn tcp_reconnect_and_dedup_match_unix_path() {
        let t = CommSocket::new_tcp(1, 4, 4, Precision::Fp32).unwrap();
        t.publish(&[1.0, 2.0, 3.0, 4.0]);
        let mut dst = vec![0f32; 4];
        t.pull(0, &mut dst);
        assert_eq!(dst, vec![1.0, 2.0, 3.0, 4.0]);
        // Break the stream under the transport's feet: the re-dial path
        // must be family-blind.
        t.conns[0].lock().stream = None;
        t.pull(0, &mut dst);
        assert_eq!(dst, vec![1.0, 2.0, 3.0, 4.0], "tcp re-dial served the pull");
        // Same-seq duplicate dedups over TCP exactly as over UDS.
        let frame = Frame {
            kind: RpcKind::Push,
            precision: Precision::Fp32,
            worker: 0,
            epoch: 9,
            chunk: 0,
            payload: vec![7.0; 4],
        };
        assert_eq!(t.rpc(0, &frame.encode()).unwrap().chunk, STATUS_OK);
        assert_eq!(t.rpc(0, &frame.encode()).unwrap().chunk, STATUS_OK);
        assert_eq!(t.net_stats().dedup_hits, 1);
    }

    #[test]
    fn delta_push_mode_ships_variable_length_payloads() {
        let cfg = SocketConfig {
            delta_push: true,
            ..SocketConfig::default()
        };
        // Slot sized for a worst-case delta over 4 rows of k=2.
        let staging = crate::delta::max_delta_len(4, 2);
        let t = CommSocket::with_config(1, 8, staging, Precision::Fp32, cfg).unwrap();
        let base = vec![0f32; 8];
        let mut cur = base.clone();
        cur[2] = 5.0; // row 1
        cur[7] = -3.0; // row 3
        let delta = crate::delta::encode_delta(&base, &cur, 2);
        t.push(0, &delta);
        // Collect must yield exactly the pushed delta, not a stale tail of
        // the staging-sized slot.
        let mut got = vec![f32::NAN; staging];
        t.collect(0, &mut got);
        assert_eq!(&got[..delta.len()], &delta[..]);
        let mut dst = base.clone();
        assert_eq!(crate::delta::apply_delta(&got, 2, &mut dst), Ok(2));
        assert_eq!(dst, cur);

        // A shorter follow-up delta must not expose the longer one's tail.
        let mut cur2 = cur.clone();
        cur2[0] = 1.0; // row 0 only
        let delta2 = crate::delta::encode_delta(&cur, &cur2, 2);
        assert!(delta2.len() < delta.len());
        t.push(0, &delta2);
        let mut got2 = vec![f32::NAN; staging];
        t.collect(0, &mut got2);
        let mut dst2 = cur.clone();
        assert_eq!(crate::delta::apply_delta(&got2, 2, &mut dst2), Ok(1));
        assert_eq!(dst2, cur2);
    }

    #[test]
    fn net_events_drain_once() {
        let t = socket(1, 4);
        t.record_event(NetEvent {
            worker: 0,
            kind: NetEventKind::Retry {
                cause: CommError::Timeout,
                bytes: 10,
            },
            delay_us: 5,
        });
        assert_eq!(t.drain_net_events().len(), 1);
        assert!(t.drain_net_events().is_empty());
    }

    #[test]
    fn concurrent_workers_roundtrip() {
        let t = Arc::new(socket(4, 16));
        let data: Vec<f32> = (0..16).map(|j| j as f32).collect();
        t.publish(&data);
        std::thread::scope(|scope| {
            for w in 0..4 {
                let t = t.clone();
                let data = data.clone();
                scope.spawn(move || {
                    let mut dst = vec![0f32; 16];
                    t.pull(w, &mut dst);
                    assert_eq!(dst, data);
                    let local: Vec<f32> = dst.iter().map(|v| v * 2.0).collect();
                    t.push(w, &local);
                });
            }
            let t2 = t.clone();
            scope.spawn(move || {
                for w in 0..4 {
                    let mut got = vec![0f32; 16];
                    t2.collect(w, &mut got);
                    assert_eq!(got[3], 6.0);
                }
            });
        });
    }
}
