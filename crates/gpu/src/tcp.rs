//! TCP transport: a [`GpuExec`] backend whose workers are remote
//! processes speaking the [`crate::wire`] protocol.
//!
//! The fleet is described by a small text manifest (one `worker
//! host:port` line per remote worker plus optional knobs) and behaves
//! exactly like the in-process backends from the session's point of
//! view: same jobs, same per-worker FIFO ordering, same typed faults.
//! A worker that drops its connection mid-batch surfaces as
//! [`GpuError::WorkerLost`]; one that exceeds the I/O deadline surfaces
//! as [`GpuError::Timeout`]; the session quarantines either and repairs
//! the batch in the TEE.
//!
//! ## Reconnect with replay
//!
//! Backward `*Stored` jobs depend on state the worker accumulated
//! during the forward pass (the stored encodings). A remote worker
//! process keeps that state per *connection*, so a reconnect would
//! silently lose it. The fleet therefore keeps a replay cache of every
//! live `Store` it issued; when a send finds the connection dead it
//! dials again, re-handshakes, and replays the cached stores before the
//! job goes out. Encodings themselves are derived deterministically
//! from the session seed (PR 4), so the replayed bytes are identical to
//! the originals — the rejoining worker cannot tell it ever died.

use crate::error::GpuError;
use crate::exec::{GpuExec, WorkerResult};
use crate::job::LinearJob;
use crate::wire::{self, WireMsg};
use crate::worker::{GpuWorker, WorkerId};
use crate::{Behavior, LatencyModel};
use dk_field::F25;
use dk_linalg::{Tensor, Workspace};
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Text description of a remote worker fleet.
///
/// ```text
/// # two worker processes, two workers each
/// worker 127.0.0.1:7501
/// worker 127.0.0.1:7501
/// worker 127.0.0.1:7502
/// worker 127.0.0.1:7502
/// seed 42
/// latency 50000 25
/// io_timeout_ms 2000
/// connect_timeout_ms 1000
/// redial_backoff_ms 10
/// redial_backoff_max_ms 2000
/// ```
///
/// Repeating an address is how one process hosts several logical
/// workers: each `worker` line becomes its own connection (and its own
/// server-side [`GpuWorker`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetManifest {
    /// One `host:port` per logical worker, in worker-id order.
    pub workers: Vec<String>,
    /// Seed forwarded to remote workers in the `Hello` handshake.
    pub seed: u64,
    /// Modeled latency `(base_ns, ns_per_kmac)` applied by every remote
    /// worker; `None` for no modeled delay.
    pub latency: Option<(u64, u64)>,
    /// Per-reply read deadline; a straggler past this is a
    /// [`GpuError::Timeout`]. `0` disables the deadline.
    pub io_timeout_ms: u64,
    /// Dial deadline for (re)connects.
    pub connect_timeout_ms: u64,
    /// First redial-backoff window after a failed dial; each further
    /// consecutive failure doubles it (plus derived jitter). `0`
    /// disables backoff and retries every dial immediately.
    pub redial_backoff_ms: u64,
    /// Ceiling on the redial-backoff window.
    pub redial_backoff_max_ms: u64,
}

impl Default for FleetManifest {
    fn default() -> Self {
        Self {
            workers: Vec::new(),
            seed: 0x5EED,
            latency: None,
            io_timeout_ms: 5_000,
            connect_timeout_ms: 1_000,
            redial_backoff_ms: 10,
            redial_backoff_max_ms: 2_000,
        }
    }
}

impl FleetManifest {
    /// Parses the manifest text format (see the type docs).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed line.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut m = FleetManifest::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut tok = line.split_whitespace();
            let key = tok.next().unwrap_or("");
            let mut arg = |name: &str| {
                tok.next()
                    .ok_or_else(|| format!("line {}: {key} missing {name}", lineno + 1))
            };
            let parse_u64 = |s: &str, what: &str| {
                s.parse::<u64>()
                    .map_err(|_| format!("line {}: bad {what} `{s}`", lineno + 1))
            };
            match key {
                "worker" => m.workers.push(arg("address")?.to_string()),
                "seed" => m.seed = parse_u64(arg("value")?, "seed")?,
                "latency" => {
                    let base = parse_u64(arg("base_ns")?, "base_ns")?;
                    let per = parse_u64(arg("ns_per_kmac")?, "ns_per_kmac")?;
                    m.latency = Some((base, per));
                }
                "io_timeout_ms" => m.io_timeout_ms = parse_u64(arg("value")?, "timeout")?,
                "connect_timeout_ms" => {
                    m.connect_timeout_ms = parse_u64(arg("value")?, "timeout")?;
                }
                "redial_backoff_ms" => {
                    m.redial_backoff_ms = parse_u64(arg("value")?, "backoff")?;
                }
                "redial_backoff_max_ms" => {
                    m.redial_backoff_max_ms = parse_u64(arg("value")?, "backoff")?;
                }
                other => return Err(format!("line {}: unknown directive `{other}`", lineno + 1)),
            }
            if let Some(extra) = tok.next() {
                return Err(format!("line {}: trailing token `{extra}`", lineno + 1));
            }
        }
        if m.workers.is_empty() {
            return Err("manifest declares no workers".to_string());
        }
        Ok(m)
    }
}

/// SplitMix64 — the jitter hash. Deterministic, so two fleets built
/// from the same manifest back off on the same schedule (no wall-clock
/// randomness anywhere in the transport).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The redial-backoff window for one failure streak: `base * 2^(n-1)`
/// capped at `max`, plus jitter derived from `(seed, worker, n)` —
/// up to half the window, so workers sharing a manifest seed still
/// desynchronize their dial storms.
fn backoff_window(base: Duration, max: Duration, seed: u64, worker: u64, failures: u32) -> Duration {
    let exp = failures.saturating_sub(1).min(16);
    let delay = base.saturating_mul(1 << exp).min(max);
    let jitter_ms = if delay.as_millis() > 1 {
        splitmix64(seed ^ worker.rotate_left(17) ^ u64::from(failures))
            % (delay.as_millis() as u64 / 2 + 1)
    } else {
        0
    };
    (delay + Duration::from_millis(jitter_ms)).min(max)
}

/// Dial-suppression state for one remote worker: consecutive dial
/// failures widen an exponential window during which further dial
/// attempts fail immediately (without touching the network), so a dead
/// worker costs the dispatcher one cheap error instead of a
/// `connect_timeout` stall per job.
struct Backoff {
    /// First window; `ZERO` disables suppression entirely.
    base: Duration,
    /// Window ceiling.
    max: Duration,
    /// Consecutive failed dials (reset by any successful handshake).
    failures: u32,
    /// Dials before this instant are suppressed.
    until: Option<Instant>,
    /// `dk_fleet_redial_backoff`: windows armed, fleet-wide.
    armed_total: dk_obs::Counter,
}

impl Backoff {
    /// Time left in the current suppression window, if any.
    fn suppressed_for(&self, now: Instant) -> Option<Duration> {
        let until = self.until?;
        (now < until).then(|| until - now)
    }

    /// Records a failed dial and arms (or widens) the window.
    fn arm(&mut self, seed: u64, worker: u64, now: Instant) {
        self.failures = self.failures.saturating_add(1);
        if self.base.is_zero() {
            return;
        }
        let window = backoff_window(self.base, self.max, seed, worker, self.failures);
        self.until = Some(now + window);
        self.armed_total.inc();
    }

    /// A successful handshake clears the streak and the window.
    fn reset(&mut self) {
        self.failures = 0;
        self.until = None;
    }
}

/// TEE-side handle to one remote worker: its dial target, the live
/// connection (if any), and the replay cache of stored encodings.
struct RemoteWorker {
    id: WorkerId,
    addr: String,
    seed: u64,
    latency: (u64, u64),
    io_timeout: Option<Duration>,
    connect_timeout: Duration,
    conn: Option<TcpStream>,
    /// The encoded frame [`RemoteWorker::send_frame`] writes: one
    /// buffer per connection, reused for every outgoing message.
    frame: Vec<u8>,
    /// The payload [`RemoteWorker::recv`] reads each reply into.
    payload: Vec<u8>,
    /// Live `Store`s in issue order, replayed on reconnect.
    replay: Vec<(u64, Tensor<F25>)>,
    reconnects: u64,
    backoff: Backoff,
    /// Per-worker health accounting (frames, bytes, redials).
    health: dk_obs::WorkerHandle,
    frames_total: dk_obs::Counter,
    bytes_total: dk_obs::Counter,
    redials_total: dk_obs::Counter,
}

impl std::fmt::Debug for RemoteWorker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteWorker")
            .field("id", &self.id)
            .field("addr", &self.addr)
            .field("connected", &self.conn.is_some())
            .field("reconnects", &self.reconnects)
            .finish()
    }
}

impl RemoteWorker {
    /// One wire frame of `n` bytes moved on this worker's connection.
    fn count_frame(&self, n: usize) {
        self.health.framed(n as u64);
        self.frames_total.inc();
        self.bytes_total.add(n as u64);
    }

    fn lost(&self, e: &io::Error) -> GpuError {
        if e.kind() == io::ErrorKind::InvalidData {
            GpuError::Protocol { detail: format!("{}: {e}", self.id) }
        } else {
            GpuError::lost(self.id, e.to_string())
        }
    }

    /// Dials, handshakes, and replays the store cache — unless the
    /// worker's failure streak has it inside a backoff window, in which
    /// case the dial is suppressed without touching the network. On
    /// success the connection is installed and the streak resets; any
    /// failure leaves `conn` empty and widens the window.
    fn reconnect(&mut self) -> Result<(), GpuError> {
        let now = Instant::now();
        if let Some(remaining) = self.backoff.suppressed_for(now) {
            return Err(GpuError::lost(
                self.id,
                format!(
                    "redial suppressed for {}ms (backoff after {} consecutive dial failures)",
                    remaining.as_millis(),
                    self.backoff.failures
                ),
            ));
        }
        match self.dial_and_replay() {
            Ok(()) => {
                self.backoff.reset();
                if self.reconnects > 0 {
                    // The first successful dial is just "connecting";
                    // every later one is a redial after a loss.
                    self.health.reconnected();
                    self.redials_total.inc();
                }
                self.reconnects += 1;
                Ok(())
            }
            Err(e) => {
                self.backoff.arm(self.seed, self.id.0 as u64, now);
                Err(e)
            }
        }
    }

    /// The raw dial + handshake + store-replay sequence.
    fn dial_and_replay(&mut self) -> Result<(), GpuError> {
        let addr = self
            .addr
            .to_socket_addrs()
            .map_err(|e| self.lost(&e))?
            .next()
            .ok_or_else(|| GpuError::lost(self.id, format!("{} resolves to nothing", self.addr)))?;
        let stream = TcpStream::connect_timeout(&addr, self.connect_timeout)
            .map_err(|e| self.lost(&e))?;
        stream.set_nodelay(true).map_err(|e| self.lost(&e))?;
        stream.set_read_timeout(self.io_timeout).map_err(|e| self.lost(&e))?;
        let mut stream = stream;
        let hello_bytes = wire::write_msg_counted(
            &mut stream,
            &WireMsg::Hello { worker_id: self.id.0 as u64, seed: self.seed, latency: self.latency },
        )
        .map_err(|e| self.lost(&e))?;
        self.count_frame(hello_bytes);
        match wire::read_msg(&mut stream).map_err(|e| self.lost(&e))? {
            WireMsg::HelloAck => {}
            other => {
                return Err(GpuError::Protocol {
                    detail: format!("{}: expected HelloAck, got {other:?}", self.id),
                })
            }
        }
        // Reconstruct the worker's forward state: replay every live
        // stored encoding in original issue order.
        let mut frame = Vec::new();
        for (ctx_id, tensor) in &self.replay {
            wire::encode_store(&mut frame, *ctx_id, tensor);
            stream.write_all(&frame).map_err(|e| self.lost(&e))?;
            self.count_frame(frame.len());
        }
        self.conn = Some(stream);
        Ok(())
    }

    /// Sends the frame in `self.frame`, dialing (with replay) if there
    /// is no live connection, and redialing once if a stale connection
    /// fails mid-write. One `write_all` per frame: with `TCP_NODELAY`
    /// set, header and payload leave in the same segment.
    fn send_frame(&mut self) -> Result<(), GpuError> {
        let had_conn = self.conn.is_some();
        if !had_conn {
            self.reconnect()?;
        }
        let attempt = |this: &mut Self| -> io::Result<()> {
            // `reconnect` installed a stream, or failed above.
            match this.conn.as_mut() {
                Some(stream) => stream.write_all(&this.frame),
                None => Err(io::ErrorKind::NotConnected.into()),
            }
        };
        let mut written = attempt(self);
        if written.is_err() && had_conn {
            // The cached connection died since we last used it; one
            // fresh dial gets its own chance.
            self.conn = None;
            self.reconnect()?;
            written = attempt(self);
        }
        match written {
            Ok(()) => {
                self.count_frame(self.frame.len());
                Ok(())
            }
            Err(e) => {
                self.conn = None;
                Err(self.lost(&e))
            }
        }
    }

    fn send(&mut self, msg: &WireMsg) -> Result<(), GpuError> {
        wire::encode_msg(&mut self.frame, msg);
        self.send_frame()
    }

    /// Sends a `Run` for a borrowed job (no clone of its tensors).
    fn send_run(&mut self, job: &LinearJob) -> Result<(), GpuError> {
        wire::encode_run(&mut self.frame, job);
        self.send_frame()
    }

    /// Reads one reply frame, its tensors drawn from `ws`; faults tear
    /// the connection down so the next send starts from a clean dial.
    fn recv(&mut self, ws: &mut Workspace) -> Result<WireMsg, GpuError> {
        let Some(stream) = self.conn.as_mut() else {
            return Err(GpuError::lost(self.id, "no connection"));
        };
        match wire::read_msg_into(stream, &mut self.payload, ws) {
            Ok((msg, n)) => {
                self.count_frame(n);
                Ok(msg)
            }
            Err(e) => {
                self.conn = None;
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) {
                    Err(GpuError::Timeout {
                        worker: self.id,
                        waited_ms: self.io_timeout.map_or(0, |t| t.as_millis() as u64),
                    })
                } else {
                    Err(self.lost(&e))
                }
            }
        }
    }

    /// Reads the Output/Fail reply to a `Run` already sent.
    fn run_reply(&mut self, ws: &mut Workspace) -> WorkerResult {
        match self.recv(ws)? {
            WireMsg::Output { tensor } => Ok(tensor),
            WireMsg::Fail { message } => Err(GpuError::Remote { worker: self.id, message }),
            other => {
                self.conn = None;
                let detail = format!("{}: expected Output/Fail, got {other:?}", self.id);
                wire::recycle_msg(other, ws);
                Err(GpuError::Protocol { detail })
            }
        }
    }
}

/// A [`GpuExec`] backend over remote worker processes (see module
/// docs). Build from a [`FleetManifest`]; connections are dialed
/// lazily, on first use, and redialed transparently (with store
/// replay) after a loss.
#[derive(Debug)]
pub struct TcpFleet {
    workers: Vec<RemoteWorker>,
    /// The TEE end's pool: `Output` tensors are decoded into it and
    /// [`GpuExec::recycle_outputs`] gives them back.
    ws: Workspace,
}

impl TcpFleet {
    /// Builds the fleet handle. No connections are made yet.
    pub fn from_manifest(m: &FleetManifest) -> Self {
        let io_timeout = (m.io_timeout_ms > 0).then(|| Duration::from_millis(m.io_timeout_ms));
        let reg = dk_obs::global();
        let frames_total = reg.counter("dk_tcp_frames_total");
        let bytes_total = reg.counter("dk_tcp_bytes_total");
        let redials_total = reg.counter("dk_tcp_redials_total");
        let backoff_total = reg.counter("dk_fleet_redial_backoff");
        let workers = m
            .workers
            .iter()
            .enumerate()
            .map(|(i, addr)| RemoteWorker {
                id: WorkerId(i),
                addr: addr.clone(),
                seed: m.seed,
                latency: m.latency.unwrap_or((0, 0)),
                io_timeout,
                connect_timeout: Duration::from_millis(m.connect_timeout_ms.max(1)),
                conn: None,
                frame: Vec::new(),
                payload: Vec::new(),
                replay: Vec::new(),
                reconnects: 0,
                backoff: Backoff {
                    base: Duration::from_millis(m.redial_backoff_ms),
                    max: Duration::from_millis(m.redial_backoff_max_ms.max(m.redial_backoff_ms)),
                    failures: 0,
                    until: None,
                    armed_total: backoff_total.clone(),
                },
                health: dk_obs::fleet().worker(i),
                frames_total: frames_total.clone(),
                bytes_total: bytes_total.clone(),
                redials_total: redials_total.clone(),
            })
            .collect();
        Self { workers, ws: Workspace::new() }
    }

    /// Total reconnect count across the fleet (each successful dial
    /// after the first one per worker counts once).
    pub fn reconnects(&self) -> u64 {
        self.workers.iter().map(|w| w.reconnects.saturating_sub(1)).sum()
    }

    /// Drops one worker's live connection without telling the remote
    /// side — fault injection for reconnect tests (the next use redials
    /// and replays).
    pub fn sever_connection(&mut self, id: WorkerId) {
        self.workers[id.0].conn = None;
    }

    /// Best-effort `Shutdown` to every worker process (idempotent; a
    /// process hosting several workers exits on the first one).
    pub fn shutdown(&mut self) {
        for w in &mut self.workers {
            let _ = w.send(&WireMsg::Shutdown);
            w.conn = None;
        }
    }
}

impl GpuExec for TcpFleet {
    fn num_workers(&self) -> usize {
        self.workers.len()
    }

    fn execute(&mut self, tag: u64, jobs: &[LinearJob]) -> Result<Vec<WorkerResult>, GpuError> {
        let mut out = Vec::with_capacity(jobs.len());
        self.execute_round_into(tag, jobs, &[], &[], &mut out)?;
        Ok(out)
    }

    fn execute_into(
        &mut self,
        tag: u64,
        jobs: &[LinearJob],
        out: &mut Vec<WorkerResult>,
    ) -> Result<(), GpuError> {
        self.execute_round_into(tag, jobs, &[], &[], out)
    }

    /// The one native dispatch: sends are pipelined across workers, and
    /// a connection carries one job at a time.
    fn execute_round_into(
        &mut self,
        _tag: u64,
        jobs: &[LinearJob],
        withheld: &[WorkerId],
        extra: &[(WorkerId, &LinearJob)],
        out: &mut Vec<WorkerResult>,
    ) -> Result<(), GpuError> {
        if jobs.len() > self.workers.len() {
            return Err(GpuError::Oversubscribed { jobs: jobs.len(), workers: self.workers.len() });
        }
        let slot = |s| crate::exec::round_slot(jobs, withheld, extra, s);
        let slots = jobs.len() + extra.len();
        // Writes the job of slot `s`; `Ok` (holding an empty shell)
        // marks "sent, reply pending".
        let send = |workers: &mut [RemoteWorker], s: usize| match slot(s) {
            (w, Some(job)) => workers[w.0].send_run(job).map(|()| Tensor::default()),
            (worker, None) => Err(GpuError::Withheld { worker }),
        };
        // Phase 1: every worker's first job goes out before any reply is
        // awaited, so the whole fleet starts computing at once.
        let first = out.len();
        for s in 0..slots {
            let (w, _) = slot(s);
            let queued = (0..s).any(|t| matches!(slot(t), (v, Some(_)) if v == w));
            out.push(if queued { Ok(Tensor::default()) } else { send(&mut self.workers, s) });
        }
        // Phase 2: collect replies in slot order. A worker's next job is
        // written once the reply before it has been read: with a second
        // job in flight the TEE could block writing it while the worker
        // blocks writing its reply, both socket buffers full.
        for s in 0..slots {
            let (w, job) = slot(s);
            if job.is_none() {
                continue;
            }
            if out[first + s].is_ok() {
                out[first + s] = self.workers[w.0].run_reply(&mut self.ws);
            }
            if let Some(next) =
                (s + 1..slots).find(|&t| matches!(slot(t), (v, Some(_)) if v == w))
            {
                out[first + next] = send(&mut self.workers, next);
            }
        }
        Ok(())
    }

    fn recycle_outputs(&mut self, outputs: &mut Vec<Tensor<F25>>) {
        for t in outputs.drain(..) {
            self.ws.give_tensor(t);
        }
    }

    fn execute_on(&mut self, id: WorkerId, job: &LinearJob) -> WorkerResult {
        let w = &mut self.workers[id.0];
        w.send_run(job)?;
        w.run_reply(&mut self.ws)
    }

    fn store_encodings(&mut self, ctx_id: u64, encodings: Vec<Tensor<F25>>) {
        self.store_encodings_sparse(ctx_id, encodings, &[]);
    }

    fn store_encodings_sparse(
        &mut self,
        ctx_id: u64,
        encodings: Vec<Tensor<F25>>,
        withheld: &[WorkerId],
    ) {
        assert!(encodings.len() <= self.workers.len(), "more encodings than workers");
        for (w, enc) in self.workers.iter_mut().zip(encodings) {
            if withheld.contains(&w.id) {
                continue;
            }
            // Best-effort: an unreachable worker gets the encoding via
            // replay when (if) it comes back.
            wire::encode_store(&mut w.frame, ctx_id, &enc);
            let _ = w.send_frame();
            w.replay.push((ctx_id, enc));
        }
    }

    fn release_contexts(&mut self, ctx_ids: &[u64]) {
        for w in &mut self.workers {
            w.replay.retain(|(c, _)| !ctx_ids.contains(c));
            for &c in ctx_ids {
                let _ = w.send(&WireMsg::Release { ctx_id: c });
            }
        }
    }
}

/// What one served connection did before it ended — the raw material
/// for the `dk_gpu_worker` binary's structured stderr log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnSummary {
    /// Peer address as reported by the socket (may be unknown).
    pub peer: String,
    /// Logical worker id from the `Hello`, if the handshake completed.
    pub worker: Option<u64>,
    /// Wire frames moved (read + written) on this connection.
    pub frames: u64,
    /// `Run` jobs executed.
    pub jobs: u64,
    /// Why the connection ended: `shutdown`, `peer-closed`,
    /// `write-failed`, `bad-hello`, or `protocol`.
    pub exit: &'static str,
}

impl ConnSummary {
    /// Did the peer ask the whole process to shut down?
    pub fn is_shutdown(&self) -> bool {
        self.exit == "shutdown"
    }
}

/// Serves worker connections on `listener` until some connection
/// receives `Shutdown`. Each accepted connection hosts one logical
/// [`GpuWorker`] (identity from its `Hello`); connections are served
/// concurrently, one thread each. This is the loop behind the
/// `dk_gpu_worker` binary; tests run it on an ephemeral port.
///
/// # Errors
///
/// Propagates accept errors from the listener.
pub fn serve_fleet_worker(listener: TcpListener) -> io::Result<()> {
    serve_fleet_worker_impl(listener, false)
}

/// Like [`serve_fleet_worker`], but logs one structured `key=value`
/// line to stderr per connection event (accepted / closed, with worker
/// id, peer address, connection ordinal per worker — redials — frames
/// and jobs served, and the exit reason). Used by the `dk_gpu_worker`
/// binary so multi-process fleet runs are debuggable.
///
/// # Errors
///
/// Propagates accept errors from the listener.
pub fn serve_fleet_worker_verbose(listener: TcpListener) -> io::Result<()> {
    serve_fleet_worker_impl(listener, true)
}

fn serve_fleet_worker_impl(listener: TcpListener, verbose: bool) -> io::Result<()> {
    let stop = Arc::new(AtomicBool::new(false));
    let local = listener.local_addr()?;
    // worker id → connections accepted so far (conn ordinal > 1 means
    // the TEE redialed us after a connection loss).
    let conn_counts: Arc<std::sync::Mutex<std::collections::HashMap<u64, u64>>> =
        Arc::new(std::sync::Mutex::new(std::collections::HashMap::new()));
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = conn?;
        let stop = Arc::clone(&stop);
        let conn_counts = Arc::clone(&conn_counts);
        std::thread::spawn(move || {
            let summary = serve_connection(stream);
            if verbose && !(summary.worker.is_none() && summary.frames <= 1) {
                // Skip the wake-up probe connections the shutdown path
                // makes; log everything that spoke the protocol.
                let conn_ordinal = summary.worker.map(|w| {
                    let mut counts = conn_counts.lock().unwrap_or_else(|e| e.into_inner());
                    let c = counts.entry(w).or_insert(0);
                    *c += 1;
                    *c
                });
                eprintln!(
                    "[dk_gpu_worker] listen={local} event=conn_closed worker={} peer={} conn={} redials={} frames={} jobs={} exit={}",
                    summary.worker.map_or_else(|| "-".to_string(), |w| w.to_string()),
                    summary.peer,
                    conn_ordinal.unwrap_or(0),
                    conn_ordinal.map_or(0, |c| c.saturating_sub(1)),
                    summary.frames,
                    summary.jobs,
                    summary.exit
                );
            }
            if summary.is_shutdown() {
                stop.store(true, Ordering::SeqCst);
                // Unblock the accept loop so it can observe the flag.
                let _ = TcpStream::connect(local);
            }
        });
    }
    Ok(())
}

/// Serves one worker connection to completion.
fn serve_connection(mut stream: TcpStream) -> ConnSummary {
    let peer = stream.peer_addr().map_or_else(|_| "unknown".to_string(), |a| a.to_string());
    let mut summary = ConnSummary { peer, worker: None, frames: 0, jobs: 0, exit: "peer-closed" };
    let _ = stream.set_nodelay(true);
    let hello = match wire::read_msg_counted(&mut stream) {
        Ok((m, _)) => {
            summary.frames += 1;
            m
        }
        Err(_) => return summary,
    };
    let WireMsg::Hello { worker_id, seed, latency } = hello else {
        // A wake-up probe from the shutdown path lands here (no Hello);
        // also covers confused peers.
        summary.exit = if matches!(hello, WireMsg::Shutdown) { "shutdown" } else { "bad-hello" };
        return summary;
    };
    summary.worker = Some(worker_id);
    let mut worker = GpuWorker::new(WorkerId(worker_id as usize), Behavior::Honest, seed);
    if latency != (0, 0) {
        worker.set_latency(Some(LatencyModel { base_ns: latency.0, ns_per_kmac: latency.1 }));
    }
    if wire::write_msg(&mut stream, &WireMsg::HelloAck).is_err() {
        summary.exit = "write-failed";
        return summary;
    }
    summary.frames += 1;
    // The connection's own buffers (see `wire`'s Buffers section): the
    // payload each frame is read into, the frame each reply is encoded
    // into, and the pool decoded operands come out of and go back to.
    let (mut payload, mut frame, mut ws) = (Vec::new(), Vec::new(), Workspace::new());
    loop {
        match wire::read_msg_into(&mut stream, &mut payload, &mut ws) {
            Ok((WireMsg::Run { job }, _)) => {
                summary.frames += 1;
                summary.jobs += 1;
                // A replay gap is a typed wire fault the TEE can
                // attribute, not a process abort.
                let reply = match worker.try_execute(&job) {
                    Ok(tensor) => WireMsg::Output { tensor },
                    Err(GpuError::Remote { message, .. }) => WireMsg::Fail { message },
                    Err(other) => WireMsg::Fail { message: other.to_string() },
                };
                job.recycle_decoded_into(&mut ws);
                wire::encode_msg(&mut frame, &reply);
                if let WireMsg::Output { tensor } = reply {
                    worker.recycle_output(tensor);
                }
                if stream.write_all(&frame).is_err() {
                    summary.exit = "write-failed";
                    return summary;
                }
                summary.frames += 1;
            }
            Ok((WireMsg::Store { ctx_id, tensor }, _)) => {
                summary.frames += 1;
                worker.store_encoding(ctx_id, tensor);
            }
            Ok((WireMsg::Release { ctx_id }, _)) => {
                summary.frames += 1;
                if let Some(t) = worker.take_encoding(ctx_id) {
                    ws.give_tensor(t);
                }
            }
            Ok((WireMsg::Shutdown, _)) => {
                summary.frames += 1;
                summary.exit = "shutdown";
                return summary;
            }
            Ok((other, _)) => {
                summary.frames += 1;
                let _ = wire::write_msg(
                    &mut stream,
                    &WireMsg::Fail { message: format!("unexpected message {other:?}") },
                );
                summary.exit = "protocol";
                return summary;
            }
            Err(_) => return summary, // peer went away; this worker's state dies with it
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_parses_every_directive() {
        let m = FleetManifest::parse(
            "# fleet\nworker 127.0.0.1:7501   # first\nworker 127.0.0.1:7502\nseed 42\nlatency 50000 25\nio_timeout_ms 2000\nconnect_timeout_ms 77\nredial_backoff_ms 5\nredial_backoff_max_ms 500\n",
        )
        .unwrap();
        assert_eq!(m.workers, vec!["127.0.0.1:7501", "127.0.0.1:7502"]);
        assert_eq!(m.seed, 42);
        assert_eq!(m.latency, Some((50_000, 25)));
        assert_eq!(m.io_timeout_ms, 2_000);
        assert_eq!(m.connect_timeout_ms, 77);
        assert_eq!(m.redial_backoff_ms, 5);
        assert_eq!(m.redial_backoff_max_ms, 500);
    }

    #[test]
    fn manifest_rejects_garbage() {
        assert!(FleetManifest::parse("").is_err()); // no workers
        assert!(FleetManifest::parse("worker\n").is_err()); // missing addr
        assert!(FleetManifest::parse("worker a:1\nseed banana\n").is_err());
        assert!(FleetManifest::parse("worker a:1\nwat 3\n").is_err());
        assert!(FleetManifest::parse("worker a:1 extra\n").is_err());
    }

    #[test]
    fn unreachable_fleet_reports_loss_not_panic() {
        // Port 1 on localhost refuses connections.
        let m = FleetManifest {
            workers: vec!["127.0.0.1:1".into()],
            connect_timeout_ms: 200,
            ..FleetManifest::default()
        };
        let mut fleet = TcpFleet::from_manifest(&m);
        let job = LinearJob::DenseForward {
            weights: std::sync::Arc::new(Tensor::from_fn(&[1, 2], |i| F25::new(i as u64 + 1))),
            x: Tensor::from_fn(&[1, 2], |i| F25::new(i as u64 + 1)),
        };
        let results = crate::GpuExec::execute(&mut fleet, 0, std::slice::from_ref(&job)).unwrap();
        assert!(matches!(&results[0], Err(GpuError::WorkerLost { worker: WorkerId(0), .. })));
    }

    #[test]
    fn backoff_window_is_derived_bounded_and_monotone() {
        let base = Duration::from_millis(10);
        let max = Duration::from_millis(500);
        // Derived, not wall-clock-random: same inputs, same window.
        let a = backoff_window(base, max, 42, 3, 4);
        let b = backoff_window(base, max, 42, 3, 4);
        assert_eq!(a, b);
        // Different workers jitter apart somewhere along the streak
        // (individual collisions are possible; identical schedules are
        // not).
        assert!(
            (1..10).any(|f| backoff_window(base, max, 42, 0, f)
                != backoff_window(base, max, 42, 1, f)),
            "workers 0 and 1 share an entire backoff schedule"
        );
        for failures in 1..40 {
            let w = backoff_window(base, max, 42, 0, failures);
            assert!(w >= base, "window below base at streak {failures}");
            assert!(w <= max, "window above cap at streak {failures}");
        }
        // The exponential part actually grows before the cap bites.
        assert!(backoff_window(base, max, 42, 0, 5) > backoff_window(base, max, 42, 0, 1));
        // Huge streaks cannot overflow the shift.
        assert_eq!(backoff_window(base, max, 42, 0, u32::MAX), max);
    }

    #[test]
    fn dead_worker_backs_off_instead_of_spinning() {
        dk_obs::enable(); // counters are no-ops while disabled
        let m = FleetManifest {
            workers: vec!["127.0.0.1:1".into()],
            connect_timeout_ms: 200,
            redial_backoff_ms: 10_000, // one failure arms a long window
            redial_backoff_max_ms: 60_000,
            ..FleetManifest::default()
        };
        let mut fleet = TcpFleet::from_manifest(&m);
        let armed_before = dk_obs::global().counter("dk_fleet_redial_backoff").value();
        let job = LinearJob::DenseForward {
            weights: std::sync::Arc::new(Tensor::from_fn(&[1, 2], |i| F25::new(i as u64 + 1))),
            x: Tensor::from_fn(&[1, 2], |i| F25::new(i as u64 + 1)),
        };
        // First use really dials (and fails).
        let err = crate::GpuExec::execute_on(&mut fleet, WorkerId(0), &job).unwrap_err();
        assert!(matches!(err, GpuError::WorkerLost { worker: WorkerId(0), .. }));
        assert_eq!(
            dk_obs::global().counter("dk_fleet_redial_backoff").value(),
            armed_before + 1,
            "the failed dial arms one backoff window"
        );
        // Inside the window the dial is suppressed: still a typed loss,
        // but instant — no connect_timeout stall, no network traffic.
        let start = Instant::now();
        let err = crate::GpuExec::execute_on(&mut fleet, WorkerId(0), &job).unwrap_err();
        assert!(start.elapsed() < Duration::from_millis(150), "suppressed dial must be instant");
        match err {
            GpuError::WorkerLost { worker, detail } => {
                assert_eq!(worker, WorkerId(0));
                assert!(detail.contains("suppressed"), "got: {detail}");
            }
            other => panic!("expected WorkerLost, got {other:?}"),
        }
        assert_eq!(
            dk_obs::global().counter("dk_fleet_redial_backoff").value(),
            armed_before + 1,
            "a suppressed dial is not a new failure"
        );
    }

    #[test]
    fn successful_dial_resets_the_failure_streak() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || serve_fleet_worker(listener));
        let m = FleetManifest {
            workers: vec![addr.to_string()],
            redial_backoff_ms: 10_000,
            redial_backoff_max_ms: 60_000,
            ..FleetManifest::default()
        };
        let mut fleet = TcpFleet::from_manifest(&m);
        // Fake a prior failure streak, as if the worker had been down.
        fleet.workers[0].backoff.failures = 7;
        let job = LinearJob::DenseForward {
            weights: std::sync::Arc::new(Tensor::from_fn(&[1, 2], |i| F25::new(i as u64 + 1))),
            x: Tensor::from_fn(&[1, 2], |i| F25::new(i as u64 + 1)),
        };
        crate::GpuExec::execute_on(&mut fleet, WorkerId(0), &job).unwrap();
        assert_eq!(fleet.workers[0].backoff.failures, 0, "success clears the streak");
        assert!(fleet.workers[0].backoff.until.is_none());
        fleet.shutdown();
        server.join().unwrap().unwrap();
    }
}
