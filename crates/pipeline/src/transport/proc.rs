//! The multi-**process** transport backend: rank workers connected by
//! Unix-domain sockets.
//!
//! [`super::run_ranks`] puts ranks on OS threads; this module puts them in
//! separate OS processes — the shape the paper's setting actually has
//! (Megatron-style PP/DP workers), where quantized gradients must cross a
//! real byte stream. The rank-facing surface is unchanged: a worker gets an
//! [`Endpoint`] over a [`SocketFabric`] and runs the *same* generic
//! collective/p2p/DP-loop code as the threaded backend, bit for bit.
//!
//! # Launch protocol
//!
//! [`run_ranks_proc`] (wrapped by [`proc_reduce_scatter`],
//! [`proc_all_reduce`], [`proc_pipeline_relay`] and
//! [`proc_data_parallel_train`]) spawns `R` workers by **re-executing the
//! current binary** (`std::env::current_exe`) with `SNIP_RANK_*`
//! environment variables naming the fabric directory, the worker's rank and
//! the world size. Any binary that launches a process fabric must therefore
//! call [`worker_boot`] **first thing in `main`**: in a worker process it
//! never returns (it runs the assigned task and exits), in the parent it is
//! a no-op. A worker whose `main` forgot the call refuses to launch a
//! nested fabric, so the mistake surfaces as an error instead of a fork
//! bomb.
//!
//! The handshake, all over Unix sockets in a private temp directory:
//!
//! 1. the parent binds a control listener and spawns the workers;
//! 2. each worker binds its own mesh listener, connects to the control
//!    socket and reports `READY{rank}`;
//! 3. once every rank is ready the parent sends each worker `START` with
//!    its task spec (codec + seeds + its own payload — peers' data never
//!    crosses, unlike the threaded closures that share an address space);
//! 4. workers build the full socket mesh (connect to lower ranks, accept
//!    from higher ranks, each stream prefixed by a 4-byte rank hello), run
//!    the task, and report `RESULT` (payload + their side of the per-link
//!    counters) or `ERROR`;
//! 5. the parent merges both sides of every link's counters — they must
//!    agree exactly — and reaps the workers.
//!
//! Frames on mesh streams carry [`snip_quant::wire`]'s stream envelope —
//! a length prefix plus a CRC32 of the body, so in-flight corruption is a
//! typed [`snip_quant::StreamError::Crc`] at decode instead of a silently
//! damaged gradient — and are reassembled from arbitrarily chunked reads
//! by a dedicated reader thread per link, which also keeps every socket
//! drained so ring steps can never deadlock on full kernel buffers.
//!
//! # Abort semantics
//!
//! There is no abort message. A worker that panics or exits closes its
//! sockets (its fabric's `Drop` shuts them down explicitly, and process
//! exit closes whatever remains); peers see EOF after the buffered frames —
//! [`TransportError::PeerClosed`] — and the failure cascades through the
//! mesh exactly as it does on threads. The parent reports the root cause
//! from the failing worker's `ERROR` message.

use super::chaos::{ChaosFabric, ChaosPlan};
use super::fabric::{is_cascade_error, Fabric, TransportError, DEFAULT_RECV_DEADLINE};
use super::{dp_train_loop, pipeline_relay, Endpoint, TransportStats};
use crate::collective::{CollectiveResult, QuantizePolicy, Wire};
use serde::{Deserialize, Serialize};
use snip_core::{Trainer, TrainerConfig};
use snip_quant::{
    crc32, stream_envelope, stream_frame, StreamDecoder, STREAM_ENVELOPE_BYTES,
    STREAM_MAX_FRAME_BYTES,
};
use snip_tensor::rng::Rng;
use std::io::{ErrorKind, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::time::{Duration, Instant, SystemTime};

const ENV_WORKER: &str = "SNIP_RANK_WORKER";
const ENV_DIR: &str = "SNIP_RANK_DIR";
const ENV_RANK: &str = "SNIP_RANK_ID";
const ENV_WORLD: &str = "SNIP_RANK_WORLD";
/// Chaos-harness hook: a worker whose rank matches this variable's value
/// exits before reporting READY, simulating a rank that dies during spawn.
/// Public so the chaos harness can set it; unset in normal operation.
pub const ENV_EXIT_BEFORE_READY: &str = "SNIP_CHAOS_EXIT_BEFORE_READY";

/// How long the parent waits for workers to connect and report ready.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(120);
/// How long the parent waits for a worker's result (covers debug-build DP
/// training loops).
const RESULT_TIMEOUT: Duration = Duration::from_secs(600);
/// How long a worker waits for mesh peers to dial in.
const MESH_TIMEOUT: Duration = Duration::from_secs(120);

// Control-plane message tags.
const MSG_READY: u8 = 1;
const MSG_START: u8 = 2;
const MSG_RESULT: u8 = 3;
const MSG_ERROR: u8 = 4;

// Task kinds.
const TASK_REDUCE_SCATTER: u8 = 0;
const TASK_ALL_REDUCE: u8 = 1;
const TASK_RELAY: u8 = 2;
const TASK_DP_TRAIN: u8 = 3;

/// Everything that can go wrong launching or running a process fabric.
#[derive(Clone, Debug, PartialEq)]
pub enum ProcError {
    /// Spawning or handshaking with the workers failed.
    Launch(String),
    /// A worker reported a task failure (transport error, panic, bad spec).
    Worker {
        /// The failing rank.
        rank: usize,
        /// Its error report.
        message: String,
    },
    /// A worker's control message was malformed.
    Protocol(String),
    /// The sender-side and receiver-side counters of a link disagree —
    /// bytes were lost or double-counted somewhere, which the equivalence
    /// contract forbids.
    AccountingMismatch {
        /// Sending rank of the inconsistent link.
        src: usize,
        /// Receiving rank of the inconsistent link.
        dst: usize,
    },
}

impl std::fmt::Display for ProcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcError::Launch(m) => write!(f, "launching rank workers failed: {m}"),
            ProcError::Worker { rank, message } => write!(f, "rank {rank} failed: {message}"),
            ProcError::Protocol(m) => write!(f, "malformed worker message: {m}"),
            ProcError::AccountingMismatch { src, dst } => write!(
                f,
                "link {src} → {dst}: sender and receiver counters disagree"
            ),
        }
    }
}

impl std::error::Error for ProcError {}

// ---------------------------------------------------------------------------
// Control-plane framing: length-prefixed messages over a Unix stream.
// ---------------------------------------------------------------------------

fn ctrl_send(stream: &mut UnixStream, body: &[u8]) -> std::io::Result<()> {
    stream.write_all(&stream_frame(body))
}

fn ctrl_recv(stream: &mut UnixStream) -> std::io::Result<Vec<u8>> {
    let mut envelope = [0u8; STREAM_ENVELOPE_BYTES];
    stream.read_exact(&mut envelope)?;
    let len = u32::from_le_bytes(envelope[..4].try_into().expect("4 bytes")) as usize;
    if len > STREAM_MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("control frame length {len} exceeds the sanity bound"),
        ));
    }
    let expect = u32::from_le_bytes(envelope[4..].try_into().expect("4 bytes"));
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    let got = crc32(&body);
    if got != expect {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("control frame crc mismatch: envelope says {expect:#010x}, body hashes to {got:#010x}"),
        ));
    }
    Ok(body)
}

// ---------------------------------------------------------------------------
// Little-endian buffer helpers for the task/result payloads.
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(format!(
                "message truncated: need {n} more bytes at offset {}",
                self.at
            ));
        };
        let slice = &self.buf[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f32s(&mut self) -> Result<Vec<f32>, String> {
        let n = self.u32()? as usize;
        let raw = self.take(4 * n)?;
        Ok((0..n)
            .map(|i| f32::from_le_bytes(raw[4 * i..4 * i + 4].try_into().expect("4")))
            .collect())
    }

    fn f64s(&mut self) -> Result<Vec<f64>, String> {
        let n = self.u32()? as usize;
        let raw = self.take(8 * n)?;
        Ok((0..n)
            .map(|i| f64::from_le_bytes(raw[8 * i..8 * i + 8].try_into().expect("8")))
            .collect())
    }

    fn u64s(&mut self, n: usize) -> Result<Vec<u64>, String> {
        let raw = self.take(8 * n)?;
        Ok((0..n)
            .map(|i| u64::from_le_bytes(raw[8 * i..8 * i + 8].try_into().expect("8")))
            .collect())
    }

    fn done(&self) -> Result<(), String> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "message has {} trailing bytes",
                self.buf.len() - self.at
            ))
        }
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f32s(buf: &mut Vec<u8>, vs: &[f32]) {
    put_u32(buf, vs.len() as u32);
    for v in vs {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

fn put_f64s(buf: &mut Vec<u8>, vs: &[f64]) {
    put_u32(buf, vs.len() as u32);
    for v in vs {
        buf.extend_from_slice(&v.to_le_bytes());
    }
}

// ---------------------------------------------------------------------------
// Task specs.
// ---------------------------------------------------------------------------

/// The structured half of a task spec; ships as JSON inside the binary
/// spec so codec configuration reuses the crate's serde derives.
#[derive(Serialize, Deserialize)]
struct TaskMeta {
    wire: Wire,
    policy: QuantizePolicy,
    steps: u64,
    comm_seed: u64,
    trainer: Option<TrainerConfig>,
    /// When present, the worker wraps its socket fabric in a
    /// [`ChaosFabric`] driven by this plan (and applies the plan's recv
    /// deadline) — the launcher's handle for injecting deterministic
    /// faults into a live process mesh. Defaults to `None` so specs from
    /// older launchers still decode.
    #[serde(default)]
    chaos: Option<ChaosPlan>,
}

struct TaskSpec {
    kind: u8,
    meta: TaskMeta,
    seed: u64,
    payload: Vec<f32>,
}

impl TaskSpec {
    fn encode(&self) -> Vec<u8> {
        let json = serde_json::to_vec(&self.meta).expect("task meta serializes");
        let mut buf = Vec::with_capacity(13 + json.len() + 4 * self.payload.len());
        buf.push(self.kind);
        put_u32(&mut buf, json.len() as u32);
        buf.extend_from_slice(&json);
        put_u64(&mut buf, self.seed);
        put_f32s(&mut buf, &self.payload);
        buf
    }

    fn decode(bytes: &[u8]) -> Result<TaskSpec, String> {
        let mut c = Cursor::new(bytes);
        let kind = c.u8()?;
        let json_len = c.u32()? as usize;
        let json = c.take(json_len)?;
        let meta: TaskMeta =
            serde_json::from_slice(json).map_err(|e| format!("task meta json: {e:?}"))?;
        let seed = c.u64()?;
        let payload = c.f32s()?;
        c.done()?;
        Ok(TaskSpec {
            kind,
            meta,
            seed,
            payload,
        })
    }
}

// ---------------------------------------------------------------------------
// The socket fabric.
// ---------------------------------------------------------------------------

/// What a link's reader thread hands the owning rank: a reassembled frame
/// or the typed defect that ended the stream.
type LinkFrame = Result<Vec<u8>, TransportError>;

/// The process backend of [`Fabric`]: one Unix-domain socket per rank pair,
/// length-prefixed frames, a reader thread per link reassembling frames
/// from arbitrarily chunked reads (and keeping the socket drained, so bulk
/// ring steps cannot deadlock on full kernel buffers).
///
/// Sends are **buffered**: `send_frame` appends the envelope and frame to
/// the link's outbox, and the outbox goes out in one `write_all` before any
/// blocking `recv_frame`, on [`Fabric::flush`] (which a public p2p
/// [`Endpoint::send`] calls before returning), and in `Drop` ahead of the
/// shutdown — so a ring hop's frames cost one write per link, and frames a
/// chaos kill strands in the outbox are still delivered. A hop-major ring
/// posts one hop before receiving, so an outbox never holds more than one
/// hop's frames. A failed write surfaces as [`TransportError::PeerClosed`]
/// / [`TransportError::Io`] naming the destination at that flush point;
/// `Drop` cannot return it, so it only counts it in the `transport.*`
/// failure counters.
pub struct SocketFabric {
    rank: usize,
    world: usize,
    writers: Vec<Option<UnixStream>>,
    /// `outboxes[dst]`: enveloped frames queued for `dst`, not yet written.
    outboxes: Vec<Vec<u8>>,
    inboxes: Vec<Option<Receiver<LinkFrame>>>,
    /// Longest a `recv_frame` waits before reporting a stalled peer.
    deadline: Duration,
}

fn mesh_sock(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("m{rank}"))
}

fn io_err(rank: usize, e: &std::io::Error) -> TransportError {
    TransportError::Io {
        rank,
        message: e.to_string(),
    }
}

impl SocketFabric {
    /// Builds this rank's side of the full socket mesh: dial every lower
    /// rank's listener (announcing our rank in a 4-byte hello), accept one
    /// stream from every higher rank, then hand each stream's read half to
    /// a reader thread.
    fn connect(
        listener: UnixListener,
        dir: &Path,
        rank: usize,
        world: usize,
    ) -> Result<SocketFabric, String> {
        let mut streams: Vec<Option<UnixStream>> = (0..world).map(|_| None).collect();
        for (peer, slot) in streams.iter_mut().enumerate().take(rank) {
            let path = mesh_sock(dir, peer);
            let mut stream = connect_retry(&path, MESH_TIMEOUT)
                .map_err(|e| format!("dialing rank {peer}: {e}"))?;
            stream
                .write_all(&(rank as u32).to_le_bytes())
                .map_err(|e| format!("hello to rank {peer}: {e}"))?;
            *slot = Some(stream);
        }
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("mesh listener: {e}"))?;
        let deadline = Instant::now() + MESH_TIMEOUT;
        for _ in rank + 1..world {
            let mut stream = accept_deadline(&listener, deadline)
                .map_err(|e| format!("accepting a higher rank: {e}"))?;
            let mut hello = [0u8; 4];
            stream
                .read_exact(&mut hello)
                .map_err(|e| format!("reading a mesh hello: {e}"))?;
            let peer = u32::from_le_bytes(hello) as usize;
            if peer <= rank || peer >= world || streams[peer].is_some() {
                return Err(format!("invalid mesh hello from rank {peer}"));
            }
            streams[peer] = Some(stream);
        }
        Self::from_streams(rank, streams).map_err(|e| format!("starting link readers: {e}"))
    }

    /// Wraps one connected stream per peer (`None` for this rank itself)
    /// in a fabric, handing each stream's read half to a reader thread.
    fn from_streams(rank: usize, streams: Vec<Option<UnixStream>>) -> std::io::Result<Self> {
        let world = streams.len();
        let mut inboxes: Vec<Option<Receiver<LinkFrame>>> = (0..world).map(|_| None).collect();
        for (peer, slot) in streams.iter().enumerate() {
            let Some(stream) = slot else { continue };
            let read_half = stream.try_clone()?;
            let (tx, rx) = channel();
            std::thread::spawn(move || reader_loop(read_half, peer, tx));
            inboxes[peer] = Some(rx);
        }
        Ok(SocketFabric {
            rank,
            world,
            writers: streams,
            outboxes: vec![Vec::new(); world],
            inboxes,
            deadline: DEFAULT_RECV_DEADLINE,
        })
    }

    /// Writes `dst`'s outbox in one `write_all`. The outbox is emptied
    /// whether or not the write succeeds, so a failure is reported once.
    fn flush_link(&mut self, dst: usize) -> Result<(), TransportError> {
        let outbox = &mut self.outboxes[dst];
        if outbox.is_empty() {
            return Ok(());
        }
        let writer = self.writers[dst]
            .as_mut()
            .expect("frames are only queued on open links");
        let written = writer.write_all(outbox);
        outbox.clear();
        written.map_err(|e| match e.kind() {
            ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted => {
                TransportError::PeerClosed { rank: dst }
            }
            _ => io_err(dst, &e),
        })
    }
}

/// An in-process full mesh of `world` socket fabrics, one per rank, joined
/// by `UnixStream::pair` instead of a launcher handshake: the socket
/// backend's framing, outboxes and reader threads, driven from threads.
///
/// # Errors
///
/// The OS error if a socket pair or a reader's stream clone fails.
pub fn socket_pair_mesh(world: usize) -> std::io::Result<Vec<SocketFabric>> {
    let mut streams: Vec<Vec<Option<UnixStream>>> = (0..world)
        .map(|_| (0..world).map(|_| None).collect())
        .collect();
    let pairs = (0..world).flat_map(|a| (a + 1..world).map(move |b| (a, b)));
    for (a, b) in pairs {
        let (sa, sb) = UnixStream::pair()?;
        streams[a][b] = Some(sa);
        streams[b][a] = Some(sb);
    }
    streams
        .into_iter()
        .enumerate()
        .map(|(rank, row)| SocketFabric::from_streams(rank, row))
        .collect()
}

/// One link's read side: reassemble length-prefixed frames from whatever
/// chunks the socket delivers and forward them (or a typed error) to the
/// owning rank. Exits on EOF or error; clean EOF after a frame boundary
/// just drops the channel, which the owner observes as `PeerClosed`.
fn reader_loop(mut stream: UnixStream, peer: usize, tx: std::sync::mpsc::Sender<LinkFrame>) {
    let mut decoder = StreamDecoder::new();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => {
                if let Err(error) = decoder.finish() {
                    let _ = tx.send(Err(TransportError::Stream { src: peer, error }));
                }
                return;
            }
            Ok(n) => {
                decoder.feed(&buf[..n]);
                loop {
                    match decoder.next_frame() {
                        Ok(Some(frame)) => {
                            if tx.send(Ok(frame)).is_err() {
                                return; // owner gone; stop draining
                            }
                        }
                        Ok(None) => break,
                        Err(error) => {
                            let _ = tx.send(Err(TransportError::Stream { src: peer, error }));
                            return;
                        }
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => {
                let _ = tx.send(Err(io_err(peer, &e)));
                return;
            }
        }
    }
}

impl Fabric for SocketFabric {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world(&self) -> usize {
        self.world
    }

    fn send_frame(&mut self, dst: usize, frame: Vec<u8>) -> Result<u64, TransportError> {
        if self.writers.get(dst).and_then(Option::as_ref).is_none() {
            return Err(TransportError::PeerClosed { rank: dst });
        }
        let outbox = &mut self.outboxes[dst];
        outbox.extend_from_slice(&stream_envelope(&frame));
        outbox.extend_from_slice(&frame);
        Ok((STREAM_ENVELOPE_BYTES + frame.len()) as u64)
    }

    fn recv_frame(&mut self, src: usize) -> Result<(Vec<u8>, u64), TransportError> {
        // Peers may be waiting on our queued frames before they send the
        // one we are about to block on.
        self.flush()?;
        let Some(inbox) = self.inboxes.get(src).and_then(Option::as_ref) else {
            return Err(TransportError::PeerClosed { rank: src });
        };
        let start = Instant::now();
        match inbox.recv_timeout(self.deadline) {
            Ok(Ok(frame)) => {
                let wire = (STREAM_ENVELOPE_BYTES + frame.len()) as u64;
                Ok((frame, wire))
            }
            Ok(Err(e)) => Err(e),
            Err(RecvTimeoutError::Timeout) => Err(TransportError::Timeout {
                src,
                elapsed: start.elapsed(),
            }),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::PeerClosed { rank: src }),
        }
    }

    /// Writes every link's outbox, returning the first failure after
    /// attempting them all (so one dead peer does not hold back frames the
    /// live ones are waiting for).
    fn flush(&mut self) -> Result<(), TransportError> {
        let mut first = Ok(());
        for dst in 0..self.world {
            let flushed = self.flush_link(dst);
            if first.is_ok() {
                first = flushed;
            }
        }
        first
    }

    fn set_recv_deadline(&mut self, deadline: Duration) {
        self.deadline = deadline;
    }
}

impl Drop for SocketFabric {
    fn drop(&mut self) {
        // Deliver what is still queued (a chaos kill drops the fabric
        // mid-hop; frames already "sent" must still arrive). Nobody is left
        // to return a failure to, so it is only counted.
        for dst in 0..self.world {
            if let Err(e) = self.flush_link(dst) {
                super::note_transport_failure(&e);
            }
        }
        // Force EOF at every peer even while our reader threads still hold
        // clones of the streams — dropping the fabric *is* the abort
        // signal.
        for writer in self.writers.iter().flatten() {
            let _ = writer.shutdown(Shutdown::Both);
        }
    }
}

fn connect_retry(path: &Path, timeout: Duration) -> std::io::Result<UnixStream> {
    let deadline = Instant::now() + timeout;
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return Ok(s),
            Err(e) => {
                let retriable = matches!(
                    e.kind(),
                    ErrorKind::NotFound | ErrorKind::ConnectionRefused | ErrorKind::WouldBlock
                );
                if !retriable || Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

fn accept_deadline(listener: &UnixListener, deadline: Instant) -> std::io::Result<UnixStream> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                return Ok(stream);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(std::io::Error::new(
                        ErrorKind::TimedOut,
                        "timed out waiting for a connection",
                    ));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Accepts one control connection during the READY handshake, failing fast
/// with [`ProcError::Worker`] if a worker whose READY is still outstanding
/// (no control stream yet in `ctrls`) has already exited.
fn accept_ready(
    listener: &UnixListener,
    deadline: Instant,
    guard: &mut WorkerGuard,
    ctrls: &[Option<UnixStream>],
) -> Result<UnixStream, ProcError> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .map_err(|e| ProcError::Launch(format!("control stream: {e}")))?;
                return Ok(stream);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                for (rank, child) in guard.children.iter_mut().enumerate() {
                    if ctrls[rank].is_some() {
                        continue;
                    }
                    if let Ok(Some(status)) = child.try_wait() {
                        return Err(ProcError::Worker {
                            rank,
                            message: format!("worker exited with {status} before reporting READY"),
                        });
                    }
                }
                if Instant::now() >= deadline {
                    return Err(ProcError::Launch(
                        "timed out waiting for workers to report ready — does the \
                         launching binary's main() call transport::proc::worker_boot() \
                         first?"
                            .into(),
                    ));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => {
                return Err(ProcError::Launch(format!(
                    "waiting for workers to report ready: {e}"
                )))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Worker side.
// ---------------------------------------------------------------------------

/// The worker entry point. **Call this first thing in `main`** of any
/// binary that launches a process fabric (tests and experiment binaries
/// alike). In a spawned rank worker it runs the assigned task and exits the
/// process; in every other process it returns immediately.
pub fn worker_boot() {
    if std::env::var_os(ENV_WORKER).is_none() {
        return;
    }
    let code = match worker_run() {
        Ok(()) => 0,
        Err(message) => {
            eprintln!("snip rank worker failed: {message}");
            101
        }
    };
    std::process::exit(code);
}

fn env_usize(key: &str) -> Result<usize, String> {
    std::env::var(key)
        .map_err(|_| format!("{key} not set"))?
        .parse::<usize>()
        .map_err(|e| format!("{key}: {e}"))
}

fn worker_run() -> Result<(), String> {
    let dir = PathBuf::from(std::env::var(ENV_DIR).map_err(|_| format!("{ENV_DIR} not set"))?);
    let rank = env_usize(ENV_RANK)?;
    let world = env_usize(ENV_WORLD)?;
    if rank >= world {
        return Err(format!("rank {rank} out of range for world {world}"));
    }
    // Chaos-harness hook: die before the READY handshake, exercising the
    // launcher's fail-fast path for a worker that never comes up. Workers
    // inherit the launcher's environment, so a test sets this around one
    // launch.
    if std::env::var(ENV_EXIT_BEFORE_READY).ok().as_deref() == Some(&rank.to_string()) {
        std::process::exit(17);
    }
    let listener = UnixListener::bind(mesh_sock(&dir, rank))
        .map_err(|e| format!("binding the mesh listener: {e}"))?;
    let mut ctrl = connect_retry(&dir.join("c"), HANDSHAKE_TIMEOUT)
        .map_err(|e| format!("dialing the control socket: {e}"))?;
    ctrl.set_read_timeout(Some(RESULT_TIMEOUT))
        .map_err(|e| format!("control stream: {e}"))?;
    let mut ready = vec![MSG_READY];
    put_u32(&mut ready, rank as u32);
    ctrl_send(&mut ctrl, &ready).map_err(|e| format!("sending READY: {e}"))?;

    let start = ctrl_recv(&mut ctrl).map_err(|e| format!("waiting for START: {e}"))?;
    let mut c = Cursor::new(&start);
    if c.u8()? != MSG_START {
        return Err("expected a START message".into());
    }
    let spec = TaskSpec::decode(c.take(start.len() - 1)?)?;

    let fabric = SocketFabric::connect(listener, &dir, rank, world)?;
    match spec.meta.chaos.clone() {
        Some(plan) => {
            let mut chaos = ChaosFabric::new(fabric, plan.clone());
            if let Some(micros) = plan.recv_deadline_micros {
                chaos.set_recv_deadline(Duration::from_micros(micros));
            }
            worker_execute(Endpoint::new(chaos), &spec, &mut ctrl, rank)
        }
        None => worker_execute(Endpoint::new(fabric), &spec, &mut ctrl, rank),
    }
}

/// Runs the assigned task over an already-connected endpoint (bare socket
/// fabric or chaos-wrapped) and reports the outcome on the control stream.
fn worker_execute<F: Fabric>(
    mut ep: Endpoint<F>,
    spec: &TaskSpec,
    ctrl: &mut UnixStream,
    rank: usize,
) -> Result<(), String> {
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_task(&mut ep, spec)));
    let report = match outcome {
        Ok(Ok(result)) => {
            let stats = ep.stats();
            let mut msg = vec![MSG_RESULT];
            encode_stats(&mut msg, &stats, rank);
            msg.extend_from_slice(&result);
            msg
        }
        Ok(Err(message)) => {
            let mut msg = vec![MSG_ERROR];
            msg.extend_from_slice(message.as_bytes());
            msg
        }
        Err(panic) => {
            let text = panic
                .downcast_ref::<&str>()
                .copied()
                .map(String::from)
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic".into());
            let mut msg = vec![MSG_ERROR];
            msg.extend_from_slice(format!("task panicked: {text}").as_bytes());
            msg
        }
    };
    // Drop the endpoint (closing the mesh) only after the report is staged:
    // peers may still be draining our buffered frames.
    ctrl_send(ctrl, &report).map_err(|e| format!("sending the result: {e}"))?;
    drop(ep);
    if report[0] == MSG_ERROR {
        return Err(String::from_utf8_lossy(&report[1..]).into_owned());
    }
    Ok(())
}

/// Runs the task a worker was assigned; the returned bytes are the
/// task-specific result payload.
fn run_task<F: Fabric>(ep: &mut Endpoint<F>, spec: &TaskSpec) -> Result<Vec<u8>, String> {
    let meta = &spec.meta;
    let terr = |e: TransportError| format!("transport: {e}");
    match spec.kind {
        TASK_REDUCE_SCATTER => {
            let mut rng = Rng::seed_from(spec.seed);
            let chunk = ep
                .ring_reduce_scatter(&spec.payload, &meta.wire, meta.policy, &mut rng)
                .map_err(terr)?;
            let mut out = Vec::new();
            put_u32(&mut out, chunk.lo as u32);
            put_u32(&mut out, chunk.hi as u32);
            put_u64(&mut out, rng.next_u64());
            put_f32s(&mut out, &chunk.data);
            Ok(out)
        }
        TASK_ALL_REDUCE => {
            let mut rng = Rng::seed_from(spec.seed);
            let full = ep
                .ring_all_reduce(&spec.payload, &meta.wire, meta.policy, &mut rng)
                .map_err(terr)?;
            let mut out = Vec::new();
            put_u64(&mut out, rng.next_u64());
            put_f32s(&mut out, &full);
            Ok(out)
        }
        TASK_RELAY => {
            let mut rng = Rng::seed_from(spec.seed);
            let received = pipeline_relay(ep, &spec.payload, &meta.wire, &mut rng).map_err(terr)?;
            let mut out = Vec::new();
            put_u64(&mut out, rng.next_u64());
            put_f32s(&mut out, &received);
            Ok(out)
        }
        TASK_DP_TRAIN => {
            let cfg = meta
                .trainer
                .clone()
                .ok_or_else(|| "dp-train task without a trainer config".to_string())?;
            let mut trainer = Trainer::new(cfg).map_err(|e| format!("trainer config: {e}"))?;
            let losses = dp_train_loop(
                ep,
                &mut trainer,
                meta.steps,
                &meta.wire,
                meta.policy,
                meta.comm_seed,
            );
            let mut params = Vec::new();
            trainer.model.visit_params_mut(&mut |p| {
                params.extend_from_slice(p.value().as_slice());
            });
            let mut out = Vec::new();
            put_f64s(&mut out, &losses);
            put_f32s(&mut out, &params);
            Ok(out)
        }
        other => Err(format!("unknown task kind {other}")),
    }
}

/// Serializes this rank's side of the link counters: its tx row (what it
/// sent to each dst) and its rx column (what it received from each src).
fn encode_stats(buf: &mut Vec<u8>, stats: &TransportStats, rank: usize) {
    let world = stats.world();
    put_u32(buf, world as u32);
    for dst in 0..world {
        put_u64(buf, stats.payload[rank * world + dst]);
        put_u64(buf, stats.envelope[rank * world + dst]);
        put_u64(buf, stats.frames[rank * world + dst]);
    }
    for src in 0..world {
        put_u64(buf, stats.rx_payload[src * world + rank]);
        put_u64(buf, stats.rx_envelope[src * world + rank]);
        put_u64(buf, stats.rx_frames[src * world + rank]);
    }
}

// ---------------------------------------------------------------------------
// Parent side.
// ---------------------------------------------------------------------------

/// Kills and reaps the spawned workers unless the launch completed.
struct WorkerGuard {
    children: Vec<Child>,
    armed: bool,
}

impl WorkerGuard {
    fn finish(mut self) -> Result<(), ProcError> {
        self.armed = false;
        for (rank, child) in self.children.iter_mut().enumerate() {
            let status = child
                .wait()
                .map_err(|e| ProcError::Launch(format!("reaping rank {rank}: {e}")))?;
            if !status.success() {
                return Err(ProcError::Worker {
                    rank,
                    message: format!("worker exited with {status}"),
                });
            }
        }
        Ok(())
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Removes the fabric's socket directory when the launch scope ends.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn fabric_dir() -> Result<PathBuf, ProcError> {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nonce = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.subsec_nanos())
        .unwrap_or(0);
    let dir = std::env::temp_dir().join(format!(
        "snip-fab-{}-{}-{nonce:x}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir)
        .map_err(|e| ProcError::Launch(format!("creating {}: {e}", dir.display())))?;
    Ok(dir)
}

/// Spawns `specs.len()` rank workers by re-executing the current binary,
/// hands worker `r` its spec, and collects each worker's result payload
/// plus the merged, cross-checked traffic counters.
///
/// The calling binary's `main` must invoke [`worker_boot`] before anything
/// else — see the module docs for the full protocol.
///
/// # Errors
///
/// [`ProcError`] on spawn/handshake failures, worker task failures (with
/// the root cause from the failing rank), malformed control messages, or a
/// per-link accounting mismatch between sender and receiver.
pub fn run_ranks_proc(specs: Vec<Vec<u8>>) -> Result<(Vec<Vec<u8>>, TransportStats), ProcError> {
    if std::env::var_os(ENV_WORKER).is_some() {
        return Err(ProcError::Launch(
            "this process is itself a rank worker whose main() never called \
             transport::proc::worker_boot(); refusing to launch a nested fabric"
                .into(),
        ));
    }
    let world = specs.len();
    assert!(world > 0, "need at least one rank");
    let dir = fabric_dir()?;
    let _dir_guard = DirGuard(dir.clone());
    let listener = UnixListener::bind(dir.join("c"))
        .map_err(|e| ProcError::Launch(format!("binding the control socket: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| ProcError::Launch(format!("control socket: {e}")))?;
    let exe = std::env::current_exe()
        .map_err(|e| ProcError::Launch(format!("resolving current_exe: {e}")))?;
    let children: Vec<Child> = (0..world)
        .map(|rank| {
            Command::new(&exe)
                .env(ENV_WORKER, "1")
                .env(ENV_DIR, &dir)
                .env(ENV_RANK, rank.to_string())
                .env(ENV_WORLD, world.to_string())
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| ProcError::Launch(format!("spawning rank {rank}: {e}")))
        })
        .collect::<Result<_, _>>()?;
    let mut guard = WorkerGuard {
        children,
        armed: true,
    };

    // Handshake: accept one control connection per rank, identified by its
    // READY message. Between accept polls, check whether any worker whose
    // READY is still outstanding has already died — a rank that exits
    // before reporting in fails the launch *now*, with a typed error naming
    // it, instead of stalling the parent until the handshake deadline.
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    let mut ctrls: Vec<Option<UnixStream>> = (0..world).map(|_| None).collect();
    for _ in 0..world {
        let mut stream = accept_ready(&listener, deadline, &mut guard, &ctrls)?;
        stream
            .set_read_timeout(Some(RESULT_TIMEOUT))
            .map_err(|e| ProcError::Launch(format!("control stream: {e}")))?;
        let ready =
            ctrl_recv(&mut stream).map_err(|e| ProcError::Launch(format!("reading READY: {e}")))?;
        let parse = |bytes: &[u8]| -> Result<usize, String> {
            let mut c = Cursor::new(bytes);
            if c.u8()? != MSG_READY {
                return Err("expected READY".into());
            }
            let rank = c.u32()? as usize;
            c.done()?;
            Ok(rank)
        };
        let rank = parse(&ready).map_err(ProcError::Protocol)?;
        if rank >= world || ctrls[rank].is_some() {
            return Err(ProcError::Protocol(format!("duplicate or bad rank {rank}")));
        }
        ctrls[rank] = Some(stream);
    }
    let mut ctrls: Vec<UnixStream> = ctrls.into_iter().map(|s| s.expect("all ready")).collect();

    // Everyone is listening: release the specs.
    for (rank, (ctrl, spec)) in ctrls.iter_mut().zip(&specs).enumerate() {
        let mut msg = vec![MSG_START];
        msg.extend_from_slice(spec);
        ctrl_send(ctrl, &msg)
            .map_err(|e| ProcError::Launch(format!("sending START to rank {rank}: {e}")))?;
    }

    // Collect every rank's report before judging the run, so a failure is
    // attributed to its root cause: one dead rank makes every peer blocked
    // on it fail with a secondary "closed its link mid-collective" cascade.
    let mut results: Vec<Vec<u8>> = Vec::with_capacity(world);
    let mut errors: Vec<(usize, String)> = Vec::new();
    let mut merged = merged_stats_shell(world);
    for (rank, ctrl) in ctrls.iter_mut().enumerate() {
        let msg = match ctrl_recv(ctrl) {
            Ok(msg) => msg,
            Err(e) => {
                errors.push((rank, format!("control stream: {e}")));
                continue;
            }
        };
        let mut c = Cursor::new(&msg);
        match c.u8().map_err(ProcError::Protocol)? {
            MSG_RESULT => {
                merge_stats(&mut merged, &mut c, rank).map_err(ProcError::Protocol)?;
                results.push(c.take(msg.len() - c.at).expect("rest").to_vec());
            }
            MSG_ERROR => {
                errors.push((rank, String::from_utf8_lossy(&msg[1..]).into_owned()));
            }
            other => {
                return Err(ProcError::Protocol(format!(
                    "unexpected control tag {other} from rank {rank}"
                )));
            }
        }
    }
    if !errors.is_empty() {
        // Workers never publish telemetry (their registries die with them),
        // so the launcher classifies their failure reports into the
        // transport failure counters here.
        for (_, message) in &errors {
            super::note_failure_message(message);
        }
        // Root-cause attribution: the first *primary* fault. Everything
        // matching the cascade shapes (`PeerClosed` at a rank waiting on
        // the dead one, a timeout induced by a stalled neighbour) is a
        // consequence of the primary, not a cause; if the primary never
        // reported (e.g. a kill so abrupt even its ERROR was lost), fall
        // back to the first cascade.
        let root = errors
            .iter()
            .position(|(_, m)| !is_cascade_error(m))
            .unwrap_or(0);
        let (rank, message) = errors.swap_remove(root);
        return Err(ProcError::Worker { rank, message });
    }
    guard.finish()?;

    // Both sides of every socket must have accounted the identical volume.
    for src in 0..world {
        for dst in 0..world {
            let i = src * world + dst;
            if merged.payload[i] != merged.rx_payload[i]
                || merged.envelope[i] != merged.rx_envelope[i]
                || merged.frames[i] != merged.rx_frames[i]
            {
                return Err(ProcError::AccountingMismatch { src, dst });
            }
        }
    }
    // Workers never publish telemetry themselves: their per-link counters
    // arrive through the RESULT handshake and are exported here, once,
    // after the cross-check — so the socket fabric reports through the same
    // path as the threaded mesh.
    super::publish_transport_stats(&merged);
    Ok((results, merged))
}

fn merged_stats_shell(world: usize) -> TransportStats {
    TransportStats {
        world,
        payload: vec![0; world * world],
        envelope: vec![0; world * world],
        frames: vec![0; world * world],
        rx_payload: vec![0; world * world],
        rx_envelope: vec![0; world * world],
        rx_frames: vec![0; world * world],
    }
}

/// Folds one worker's stats report (its tx row and rx column) into the
/// merged matrices.
fn merge_stats(merged: &mut TransportStats, c: &mut Cursor<'_>, rank: usize) -> Result<(), String> {
    let world = merged.world;
    let reported = c.u32()? as usize;
    if reported != world {
        return Err(format!(
            "rank {rank} reported world {reported}, expected {world}"
        ));
    }
    let tx = c.u64s(3 * world)?;
    let rx = c.u64s(3 * world)?;
    for dst in 0..world {
        merged.payload[rank * world + dst] += tx[3 * dst];
        merged.envelope[rank * world + dst] += tx[3 * dst + 1];
        merged.frames[rank * world + dst] += tx[3 * dst + 2];
    }
    for src in 0..world {
        merged.rx_payload[src * world + rank] += rx[3 * src];
        merged.rx_envelope[src * world + rank] += rx[3 * src + 1];
        merged.rx_frames[src * world + rank] += rx[3 * src + 2];
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Public task wrappers.
// ---------------------------------------------------------------------------

/// A collective's outcome over the process fabric.
#[derive(Clone, Debug)]
pub struct ProcCollective {
    /// Per-rank reduced payloads, in the in-proc simulator's shape
    /// (`bytes_on_wire` comes from the *measured* payload counters).
    pub result: CollectiveResult,
    /// Each rank's `rng.next_u64()` drawn after the collective — pins that
    /// the per-rank RNG streams advanced exactly as the oracle's did.
    pub rng_fingerprints: Vec<u64>,
    /// Merged two-sided traffic counters.
    pub stats: TransportStats,
}

/// A pipeline relay's outcome over the process fabric.
#[derive(Clone, Debug)]
pub struct ProcRelay {
    /// What each rank received (rank 0's entry is empty).
    pub received: Vec<Vec<f32>>,
    /// Each rank's post-relay RNG fingerprint.
    pub rng_fingerprints: Vec<u64>,
    /// Merged two-sided traffic counters.
    pub stats: TransportStats,
}

/// A data-parallel training run's outcome over the process fabric.
#[derive(Clone, Debug)]
pub struct ProcDpTrain {
    /// Per-rank, per-step losses.
    pub losses: Vec<Vec<f64>>,
    /// Each rank's final model parameters, flattened in visit order — the
    /// bit-exact witness that every rank holds the same trained model the
    /// threaded run produces.
    pub params: Vec<Vec<f32>>,
    /// Merged two-sided traffic counters.
    pub stats: TransportStats,
}

fn collective_specs(
    kind: u8,
    grads: &[Vec<f32>],
    wire: &Wire,
    policy: QuantizePolicy,
    seeds: &[u64],
    chaos: Option<&ChaosPlan>,
) -> Vec<Vec<u8>> {
    assert_eq!(seeds.len(), grads.len(), "need one seed per rank");
    grads
        .iter()
        .zip(seeds)
        .map(|(grad, &seed)| {
            TaskSpec {
                kind,
                meta: TaskMeta {
                    wire: *wire,
                    policy,
                    steps: 0,
                    comm_seed: 0,
                    trainer: None,
                    chaos: chaos.cloned(),
                },
                seed,
                payload: grad.clone(),
            }
            .encode()
        })
        .collect()
}

/// Ring reduce-scatter over the process fabric: one worker process per
/// rank, gradients and seeds shipped to each worker, results and counters
/// shipped back. Must be bit-identical to [`super::threaded_reduce_scatter`]
/// and the in-proc ranked oracle for the same inputs and seeds.
///
/// # Errors
///
/// Any [`ProcError`] from the launch or the workers.
///
/// # Panics
///
/// Panics if `grads` is empty or `seeds.len()` differs.
pub fn proc_reduce_scatter(
    grads: &[Vec<f32>],
    wire: &Wire,
    policy: QuantizePolicy,
    seeds: &[u64],
) -> Result<ProcCollective, ProcError> {
    proc_reduce_scatter_chaos(grads, wire, policy, seeds, None)
}

/// [`proc_reduce_scatter`] with an optional chaos plan every worker applies
/// to its fabric. With `None` (or [`ChaosPlan::none`]) the run is
/// bit-identical to the undecorated launch.
///
/// # Errors
///
/// Any [`ProcError`] from the launch or the workers — including the typed
/// fault a chaos schedule injects.
///
/// # Panics
///
/// Panics if `grads` is empty or `seeds.len()` differs.
pub fn proc_reduce_scatter_chaos(
    grads: &[Vec<f32>],
    wire: &Wire,
    policy: QuantizePolicy,
    seeds: &[u64],
    chaos: Option<&ChaosPlan>,
) -> Result<ProcCollective, ProcError> {
    let specs = collective_specs(TASK_REDUCE_SCATTER, grads, wire, policy, seeds, chaos);
    let (raw, stats) = run_ranks_proc(specs)?;
    let mut per_rank = Vec::with_capacity(raw.len());
    let mut owned = Vec::with_capacity(raw.len());
    let mut fingerprints = Vec::with_capacity(raw.len());
    for (rank, bytes) in raw.iter().enumerate() {
        let parse = |c: &mut Cursor<'_>| -> Result<_, String> {
            let lo = c.u32()? as usize;
            let hi = c.u32()? as usize;
            let fp = c.u64()?;
            let data = c.f32s()?;
            c.done()?;
            Ok((lo, hi, fp, data))
        };
        let (lo, hi, fp, data) = parse(&mut Cursor::new(bytes))
            .map_err(|e| ProcError::Protocol(format!("rank {rank} result: {e}")))?;
        owned.push((lo, hi));
        fingerprints.push(fp);
        per_rank.push(data);
    }
    Ok(ProcCollective {
        result: CollectiveResult {
            per_rank,
            owned,
            bytes_on_wire: stats.total_payload_bytes(),
        },
        rng_fingerprints: fingerprints,
        stats,
    })
}

/// Ring all-reduce over the process fabric; see [`proc_reduce_scatter`].
///
/// # Errors
///
/// Any [`ProcError`] from the launch or the workers.
///
/// # Panics
///
/// Panics if `grads` is empty or `seeds.len()` differs.
pub fn proc_all_reduce(
    grads: &[Vec<f32>],
    wire: &Wire,
    policy: QuantizePolicy,
    seeds: &[u64],
) -> Result<ProcCollective, ProcError> {
    proc_all_reduce_chaos(grads, wire, policy, seeds, None)
}

/// [`proc_all_reduce`] with an optional chaos plan every worker applies to
/// its fabric; see [`proc_reduce_scatter_chaos`].
///
/// # Errors
///
/// Any [`ProcError`] from the launch or the workers — including the typed
/// fault a chaos schedule injects.
///
/// # Panics
///
/// Panics if `grads` is empty or `seeds.len()` differs.
pub fn proc_all_reduce_chaos(
    grads: &[Vec<f32>],
    wire: &Wire,
    policy: QuantizePolicy,
    seeds: &[u64],
    chaos: Option<&ChaosPlan>,
) -> Result<ProcCollective, ProcError> {
    let n = grads.first().map_or(0, Vec::len);
    let specs = collective_specs(TASK_ALL_REDUCE, grads, wire, policy, seeds, chaos);
    let (raw, stats) = run_ranks_proc(specs)?;
    let mut per_rank = Vec::with_capacity(raw.len());
    let mut fingerprints = Vec::with_capacity(raw.len());
    for (rank, bytes) in raw.iter().enumerate() {
        let parse = |c: &mut Cursor<'_>| -> Result<_, String> {
            let fp = c.u64()?;
            let data = c.f32s()?;
            c.done()?;
            Ok((fp, data))
        };
        let (fp, data) = parse(&mut Cursor::new(bytes))
            .map_err(|e| ProcError::Protocol(format!("rank {rank} result: {e}")))?;
        fingerprints.push(fp);
        per_rank.push(data);
    }
    Ok(ProcCollective {
        result: CollectiveResult {
            owned: vec![(0, n); raw.len()],
            per_rank,
            bytes_on_wire: stats.total_payload_bytes(),
        },
        rng_fingerprints: fingerprints,
        stats,
    })
}

/// Pipeline p2p relay over the process fabric; the stage code is
/// [`super::pipeline_relay`], shared verbatim with the threaded backend.
///
/// # Errors
///
/// Any [`ProcError`] from the launch or the workers.
///
/// # Panics
///
/// Panics if `seeds` is empty.
pub fn proc_pipeline_relay(
    payload: &[f32],
    wire: &Wire,
    seeds: &[u64],
) -> Result<ProcRelay, ProcError> {
    assert!(!seeds.is_empty(), "no ranks");
    let specs: Vec<Vec<u8>> = seeds
        .iter()
        .enumerate()
        .map(|(rank, &seed)| {
            TaskSpec {
                kind: TASK_RELAY,
                meta: TaskMeta {
                    wire: *wire,
                    policy: QuantizePolicy::EveryHop,
                    steps: 0,
                    comm_seed: 0,
                    trainer: None,
                    chaos: None,
                },
                seed,
                // Only the head of the pipeline owns the payload.
                payload: if rank == 0 {
                    payload.to_vec()
                } else {
                    Vec::new()
                },
            }
            .encode()
        })
        .collect();
    let (raw, stats) = run_ranks_proc(specs)?;
    let mut received = Vec::with_capacity(raw.len());
    let mut fingerprints = Vec::with_capacity(raw.len());
    for (rank, bytes) in raw.iter().enumerate() {
        let parse = |c: &mut Cursor<'_>| -> Result<_, String> {
            let fp = c.u64()?;
            let data = c.f32s()?;
            c.done()?;
            Ok((fp, data))
        };
        let (fp, data) = parse(&mut Cursor::new(bytes))
            .map_err(|e| ProcError::Protocol(format!("rank {rank} result: {e}")))?;
        fingerprints.push(fp);
        received.push(data);
    }
    Ok(ProcRelay {
        received,
        rng_fingerprints: fingerprints,
        stats,
    })
}

/// Synchronous data-parallel training over the process fabric: each worker
/// builds its own [`Trainer`] from its config and runs the same grad-hook
/// loop as [`super::data_parallel_train`] (wire randomness re-derived per
/// rank and per step from `comm_seed` and the absolute step index, forked
/// per gradient tensor), so the
/// two backends produce bit-identical losses and final parameters for the
/// same configs.
///
/// # Errors
///
/// Any [`ProcError`] from the launch or the workers.
///
/// # Panics
///
/// Panics if `cfgs` is empty.
pub fn proc_data_parallel_train(
    cfgs: &[TrainerConfig],
    steps: u64,
    wire: &Wire,
    policy: QuantizePolicy,
    comm_seed: u64,
) -> Result<ProcDpTrain, ProcError> {
    assert!(!cfgs.is_empty(), "no ranks");
    let dp_span = snip_obs::span("proc_data_parallel_train");
    let specs: Vec<Vec<u8>> = cfgs
        .iter()
        .map(|cfg| {
            TaskSpec {
                kind: TASK_DP_TRAIN,
                meta: TaskMeta {
                    wire: *wire,
                    policy,
                    steps,
                    comm_seed,
                    trainer: Some(cfg.clone()),
                    chaos: None,
                },
                seed: 0,
                payload: Vec::new(),
            }
            .encode()
        })
        .collect();
    let (raw, stats) = run_ranks_proc(specs)?;
    let mut losses = Vec::with_capacity(raw.len());
    let mut params = Vec::with_capacity(raw.len());
    for (rank, bytes) in raw.iter().enumerate() {
        let parse = |c: &mut Cursor<'_>| -> Result<_, String> {
            let l = c.f64s()?;
            let p = c.f32s()?;
            c.done()?;
            Ok((l, p))
        };
        let (l, p) = parse(&mut Cursor::new(bytes))
            .map_err(|e| ProcError::Protocol(format!("rank {rank} result: {e}")))?;
        losses.push(l);
        params.push(p);
    }
    // Close the span before flushing so the run itself appears in the trace.
    drop(dp_span);
    // Artifact boundary for the process fabric, mirroring
    // `data_parallel_train`: only the parent writes — workers exited after
    // the RESULT handshake and never call flush.
    if let Err(e) = snip_obs::flush() {
        eprintln!("snip: failed writing telemetry artifacts: {e}");
    }
    Ok(ProcDpTrain {
        losses,
        params,
        stats,
    })
}
