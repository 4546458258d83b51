//! Real multi-rank transport: ranks exchanging **serialized byte frames**
//! over pluggable fabrics.
//!
//! [`crate::collective`] simulates low-precision collectives in-process —
//! every rank's state lives in one address space and payloads are handed
//! around as `Vec<f32>`. This module is the real thing, twice over: the
//! rank-facing surface is [`Endpoint`], generic over a byte-level
//! [`Fabric`] backend, and everything that crosses a rank boundary is a
//! byte frame — packed codes, scales and codec metadata serialized through
//! [`snip_quant::wire`], BF16 payloads as raw `u16`s, exact payloads as raw
//! `f32`s. No `f32` slice is ever shared.
//!
//! Two fabrics ship:
//!
//! * [`ChannelFabric`] — `R` ranks on `R` OS threads, one mpsc channel per
//!   directed link ([`run_ranks`] builds the mesh and drives the rank
//!   closures).
//! * [`proc::SocketFabric`] — `R` ranks in `R` worker **processes**
//!   connected by Unix-domain sockets carrying length-prefixed frames
//!   ([`proc::run_ranks_proc`] spawns the workers by re-executing the
//!   current binary; see the [`proc`] module docs for the handshake).
//!
//! The in-proc simulator is kept as the **oracle**: both fabrics' ring
//! reduce-scatter / all-gather are bit-identical to
//! [`crate::collective::ring_reduce_scatter_ranked`] (same reduced
//! gradients, same per-rank RNG streams), and the measured per-link payload
//! counters equal [`crate::comm::codec_wire_bytes`] exactly for every codec
//! — including ragged tails. That equivalence is what makes the analytic
//! accounting trustworthy, and it is pinned by the loopback tests in
//! `tests/transport_threads.rs` and `tests/transport_proc.rs` (run under
//! `--release` in CI as well, where timing and buffering bugs actually
//! surface).
//!
//! # Frames and accounting
//!
//! Frame layout lives in [`frame`]; decode failures are typed
//! ([`FrameError`]), so a corrupt peer surfaces as an error, not a panic
//! with a byte dump. Counters distinguish **payload** bytes — the accounted
//! wire volume (`4n` / `2n` / [`snip_quant::PackedTensor::wire_bytes`]) —
//! from **envelope** bytes (tags, frame headers and, on socket fabrics, the
//! stream length prefix): per-message metadata a real NIC would also move
//! but that the analytic model deliberately excludes, exactly like decode
//! tables and rotation seeds. Both are measured, on **both sides of every
//! link** — each rank counts what it sent *and* what it received, and the
//! two views must agree ([`TransportStats::two_sided`]); only payload must
//! match the analytic numbers.
//!
//! # Abort semantics
//!
//! There is no in-band abort message. A dying rank closes its links
//! (dropping channel senders, closing sockets), peers observe
//! [`TransportError::PeerClosed`] once in-flight frames drain, and the
//! failure cascades along whichever links ranks are blocked on — the mesh
//! fails fast instead of deadlocking, on threads and processes alike.

pub mod chaos;
pub mod fabric;
pub mod frame;
#[cfg(unix)]
pub mod proc;

pub use chaos::{
    chaos_all_reduce, chaos_reduce_scatter, data_parallel_train_chaos,
    data_parallel_train_with_recovery, ChaosFabric, ChaosPlan, Fault,
};
pub use fabric::{
    channel_mesh, is_cascade_error, ChannelFabric, Fabric, TransportError, DEFAULT_RECV_DEADLINE,
};
pub use frame::FrameError;

use crate::collective::{chunk_bounds, CollectiveResult, QuantizePolicy, Wire};
use frame::{decode_frame, encode_frame};
use snip_core::Trainer;
use snip_nn::Model;
use snip_tensor::rng::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Shared per-link counters. Sender ranks write the `tx_*` matrices,
/// receiver ranks the `rx_*` matrices; both are indexed `src * world + dst`.
pub(crate) struct LinkCounters {
    world: usize,
    tx_payload: Vec<AtomicU64>,
    tx_envelope: Vec<AtomicU64>,
    tx_frames: Vec<AtomicU64>,
    rx_payload: Vec<AtomicU64>,
    rx_envelope: Vec<AtomicU64>,
    rx_frames: Vec<AtomicU64>,
}

impl LinkCounters {
    pub(crate) fn new(world: usize) -> Self {
        let zeros = || (0..world * world).map(|_| AtomicU64::new(0)).collect();
        LinkCounters {
            world,
            tx_payload: zeros(),
            tx_envelope: zeros(),
            tx_frames: zeros(),
            rx_payload: zeros(),
            rx_envelope: zeros(),
            rx_frames: zeros(),
        }
    }

    fn record_tx(&self, src: usize, dst: usize, payload: u64, envelope: u64) {
        let i = src * self.world + dst;
        self.tx_payload[i].fetch_add(payload, Ordering::Relaxed);
        self.tx_envelope[i].fetch_add(envelope, Ordering::Relaxed);
        self.tx_frames[i].fetch_add(1, Ordering::Relaxed);
    }

    fn record_rx(&self, src: usize, dst: usize, payload: u64, envelope: u64) {
        let i = src * self.world + dst;
        self.rx_payload[i].fetch_add(payload, Ordering::Relaxed);
        self.rx_envelope[i].fetch_add(envelope, Ordering::Relaxed);
        self.rx_frames[i].fetch_add(1, Ordering::Relaxed);
    }
}

/// Measured traffic of one transport run: per-link payload bytes (the
/// quantity that must equal the analytic [`crate::comm::codec_wire_bytes`]),
/// plus envelope bytes and frame counts for honesty about what the channel
/// actually carried. Every link is counted on **both** sides — by its
/// sender and by its receiver — and the two views must agree
/// ([`TransportStats::two_sided`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransportStats {
    world: usize,
    payload: Vec<u64>,
    envelope: Vec<u64>,
    frames: Vec<u64>,
    rx_payload: Vec<u64>,
    rx_envelope: Vec<u64>,
    rx_frames: Vec<u64>,
}

impl TransportStats {
    fn snapshot(c: &LinkCounters) -> Self {
        let read = |v: &[AtomicU64]| v.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        TransportStats {
            world: c.world,
            payload: read(&c.tx_payload),
            envelope: read(&c.tx_envelope),
            frames: read(&c.tx_frames),
            rx_payload: read(&c.rx_payload),
            rx_envelope: read(&c.rx_envelope),
            rx_frames: read(&c.rx_frames),
        }
    }

    /// Number of ranks.
    pub fn world(&self) -> usize {
        self.world
    }

    /// Payload bytes moved from `src` to `dst`, as counted by the sender.
    pub fn link_payload_bytes(&self, src: usize, dst: usize) -> u64 {
        self.payload[src * self.world + dst]
    }

    /// Payload bytes moved from `src` to `dst`, as counted by the
    /// **receiver** — must equal [`TransportStats::link_payload_bytes`] for
    /// a completed run.
    pub fn link_rx_payload_bytes(&self, src: usize, dst: usize) -> u64 {
        self.rx_payload[src * self.world + dst]
    }

    /// Frames moved from `src` to `dst`, as counted by the sender.
    pub fn link_frames(&self, src: usize, dst: usize) -> u64 {
        self.frames[src * self.world + dst]
    }

    /// Total payload bytes across all links (sender side) — comparable 1:1
    /// with the in-proc simulator's `bytes_on_wire`.
    pub fn total_payload_bytes(&self) -> u64 {
        self.payload.iter().sum()
    }

    /// Total envelope bytes (tags, length fields, packed frame headers,
    /// and — on socket fabrics — stream length prefixes).
    pub fn total_envelope_bytes(&self) -> u64 {
        self.envelope.iter().sum()
    }

    /// Total frames across all links (sender side).
    pub fn total_frames(&self) -> u64 {
        self.frames.iter().sum()
    }

    /// Whether every link's sender-side and receiver-side counters agree —
    /// payload, envelope and frame counts alike. True for every completed
    /// run: both ends of each link account the identical volume.
    pub fn two_sided(&self) -> bool {
        self.payload == self.rx_payload
            && self.envelope == self.rx_envelope
            && self.frames == self.rx_frames
    }
}

/// Bumps the failure counter matching a typed transport error —
/// `transport.{peer_closed,frame_error,timeout,killed,io_error}` — under
/// the usual zero-bit contract (one relaxed load when telemetry is off).
/// [`Endpoint::send`] / [`Endpoint::recv`] call it on every error path,
/// so the telemetry report counts faults exactly where ranks observe
/// them.
pub(crate) fn note_transport_failure(error: &TransportError) {
    if !snip_obs::enabled() {
        return;
    }
    let name = match error {
        TransportError::PeerClosed { .. } => "transport.peer_closed",
        TransportError::Frame { .. } | TransportError::Stream { .. } => "transport.frame_error",
        TransportError::Timeout { .. } => "transport.timeout",
        TransportError::Killed { .. } => "transport.killed",
        TransportError::Io { .. } => "transport.io_error",
    };
    snip_obs::counter_add(name, 1);
}

/// [`note_transport_failure`] for failures that only survive as display
/// strings — worker processes report errors over the control socket as
/// text, so the launcher classifies them by the typed errors' own
/// `Display` wording.
pub(crate) fn note_failure_message(message: &str) {
    if !snip_obs::enabled() {
        return;
    }
    let name = if message.contains("mid-collective") || message.contains("PeerClosed") {
        "transport.peer_closed"
    } else if message.contains("damaged stream") || message.contains("corrupt frame") {
        "transport.frame_error"
    } else if message.contains("timed out after") {
        "transport.timeout"
    } else if message.contains("chaos schedule") {
        "transport.killed"
    } else {
        "transport.io_error"
    };
    snip_obs::counter_add(name, 1);
}

/// Exports a measured [`TransportStats`] snapshot into the `snip-obs`
/// registry: bumps the global `transport.{payload_bytes,envelope_bytes,
/// frames}` counters and replaces the report's `"transport"` section with
/// this run's totals. Both mesh drivers call it — [`run_ranks`] for the
/// threaded [`ChannelFabric`], and [`proc::run_ranks_proc`] for the socket
/// fabric after the RESULT handshake has merged every worker's per-link
/// counters — so the two transports report through one path. One relaxed
/// atomic load when collection is off; reads only, so the run's numeric
/// results are untouched either way.
pub fn publish_transport_stats(stats: &TransportStats) {
    if !snip_obs::enabled() {
        return;
    }
    let (payload, envelope, frames) = (
        stats.total_payload_bytes(),
        stats.total_envelope_bytes(),
        stats.total_frames(),
    );
    snip_obs::counter_add("transport.payload_bytes", payload);
    snip_obs::counter_add("transport.envelope_bytes", envelope);
    snip_obs::counter_add("transport.frames", frames);
    use serde::Content;
    // Failure counters accumulate globally (across every rank thread and
    // every run in the process), so the report's transport section shows
    // the run's cumulative fault picture next to its traffic.
    let failures = Content::Map(
        [
            ("peer_closed", "transport.peer_closed"),
            ("frame_error", "transport.frame_error"),
            ("timeout", "transport.timeout"),
            ("killed", "transport.killed"),
            ("io_error", "transport.io_error"),
            ("retries", "transport.retries"),
        ]
        .iter()
        .map(|(key, counter)| {
            (
                String::from(*key),
                Content::U64(snip_obs::counter_value(counter)),
            )
        })
        .collect(),
    );
    snip_obs::report::set_section(
        "transport",
        Content::Map(vec![
            ("world".into(), Content::U64(stats.world() as u64)),
            ("payload_bytes".into(), Content::U64(payload)),
            ("envelope_bytes".into(), Content::U64(envelope)),
            ("frames".into(), Content::U64(frames)),
            ("two_sided".into(), Content::Bool(stats.two_sided())),
            ("failures".into(), failures),
        ]),
    );
}

/// One rank's connection into the mesh: frame semantics (quantize, encode,
/// account) over a byte-moving [`Fabric`] backend.
pub struct Endpoint<F: Fabric> {
    fabric: F,
    counters: Arc<LinkCounters>,
}

/// The chunk a rank owns after a transport reduce-scatter.
#[derive(Clone, Debug, PartialEq)]
pub struct RankChunk {
    /// First owned element (inclusive).
    pub lo: usize,
    /// Last owned element (exclusive).
    pub hi: usize,
    /// The fully reduced values of `[lo, hi)`.
    pub data: Vec<f32>,
}

impl<F: Fabric> Endpoint<F> {
    /// Wraps a fabric in a fresh endpoint with its own counters. (The
    /// threaded mesh instead shares one counter set across its rank
    /// endpoints, via the crate-internal constructor.)
    pub fn new(fabric: F) -> Self {
        let counters = Arc::new(LinkCounters::new(fabric.world()));
        Endpoint { fabric, counters }
    }

    pub(crate) fn with_counters(fabric: F, counters: Arc<LinkCounters>) -> Self {
        Endpoint { fabric, counters }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.fabric.rank()
    }

    /// Number of ranks in the mesh.
    pub fn world(&self) -> usize {
        self.fabric.world()
    }

    /// Snapshot of this endpoint's measured traffic.
    pub fn stats(&self) -> TransportStats {
        TransportStats::snapshot(&self.counters)
    }

    /// Bounds how long a blocking receive waits for a stalled peer before
    /// failing with [`TransportError::Timeout`]
    /// ([`fabric::DEFAULT_RECV_DEADLINE`] until changed).
    pub fn set_recv_deadline(&mut self, deadline: Duration) {
        self.fabric.set_recv_deadline(deadline);
    }

    /// Point-to-point send (pipeline p2p): quantizes `payload` through the
    /// wire's codec, serializes, and ships the frame to `dst` — written to
    /// the link before this returns, even on a fabric that queues sends.
    /// Returns the payload bytes moved (counted on the `self → dst` link).
    ///
    /// # Errors
    ///
    /// [`TransportError::PeerClosed`] if `dst`'s link is gone, or the
    /// backend's I/O failure.
    pub fn send(
        &mut self,
        dst: usize,
        payload: &[f32],
        wire: &Wire,
        rng: &mut Rng,
    ) -> Result<u64, TransportError> {
        let bytes = self.post(dst, payload, wire, rng)?;
        self.fabric.flush().inspect_err(note_transport_failure)?;
        Ok(bytes)
    }

    /// Encodes one frame and hands it to the fabric, which may queue it
    /// until the next flush point (see [`Fabric::send_frame`]).
    fn post(
        &mut self,
        dst: usize,
        payload: &[f32],
        wire: &Wire,
        rng: &mut Rng,
    ) -> Result<u64, TransportError> {
        let (frame, bytes) = encode_frame(wire, payload, rng);
        let wire_len = self
            .fabric
            .send_frame(dst, frame)
            .inspect_err(note_transport_failure)?;
        self.counters
            .record_tx(self.rank(), dst, bytes, wire_len - bytes);
        Ok(bytes)
    }

    /// Point-to-point receive: blocks for the next frame from `src` and
    /// decodes it.
    ///
    /// # Errors
    ///
    /// [`TransportError::PeerClosed`] if `src` died mid-collective,
    /// [`TransportError::Frame`] / [`TransportError::Stream`] if it
    /// delivered damaged bytes.
    pub fn recv(&mut self, src: usize) -> Result<Vec<f32>, TransportError> {
        let (frame, wire_len) = self
            .fabric
            .recv_frame(src)
            .inspect_err(note_transport_failure)?;
        let (payload, bytes) = decode_frame(&frame).map_err(|error| {
            let e = TransportError::Frame { src, error };
            note_transport_failure(&e);
            e
        })?;
        self.counters
            .record_rx(src, self.rank(), bytes, wire_len - bytes);
        Ok(payload)
    }

    /// Receives the next frame from `src` as a ring chunk of `expect`
    /// elements; a frame of any other length is a typed
    /// [`FrameError::Elements`] error.
    fn recv_chunk(&mut self, src: usize, expect: usize) -> Result<Vec<f32>, TransportError> {
        let payload = self.recv(src)?;
        if payload.len() != expect {
            let e = TransportError::Frame {
                src,
                error: FrameError::Elements {
                    expect,
                    got: payload.len(),
                },
            };
            note_transport_failure(&e);
            return Err(e);
        }
        Ok(payload)
    }

    /// Ring reduce-scatter over serialized frames. Bit-identical to
    /// [`crate::collective::ring_reduce_scatter_ranked`] run with each
    /// rank's RNG stream: after `world − 1` hops this rank owns the fully
    /// reduced chunk `(rank + 1) % world`. The one-tensor case of
    /// [`Endpoint::ring_reduce_scatter_many`].
    ///
    /// # Errors
    ///
    /// Any [`TransportError`] surfaced by the fabric mid-ring.
    pub fn ring_reduce_scatter(
        &mut self,
        grad: &[f32],
        wire: &Wire,
        policy: QuantizePolicy,
        rng: &mut Rng,
    ) -> Result<RankChunk, TransportError> {
        let mut local = grad.to_vec();
        let mut chunks = self.ring_reduce_scatter_many(
            &mut local,
            &[grad.len()],
            wire,
            policy,
            std::slice::from_mut(rng),
        )?;
        Ok(chunks.pop().expect("one tensor in, one chunk out"))
    }

    /// Hop-major ring reduce-scatter of several tensors at once. Tensor `t`
    /// occupies the next `lens[t]` elements of `flat` (laid end to end) and
    /// draws its wire randomness from `rngs[t]` alone, so each tensor's
    /// chunk — and the state its stream is left in — is bit-identical to
    /// [`Endpoint::ring_reduce_scatter`] run on that tensor with that
    /// stream. At every hop the rank posts its frame for *every* tensor
    /// before receiving any, so a `T`-tensor collective waits on `world −
    /// 1` round trips instead of `T × (world − 1)`. `flat` is the
    /// accumulation buffer: on return it holds each tensor's reduced owned
    /// chunk in place (and partial sums elsewhere). Returns one
    /// [`RankChunk`] per tensor, bounds relative to that tensor.
    ///
    /// # Errors
    ///
    /// Any [`TransportError`] surfaced by the fabric mid-ring.
    ///
    /// # Panics
    ///
    /// Panics if `lens` does not sum to `flat.len()` or `rngs.len()`
    /// differs from `lens.len()`.
    pub fn ring_reduce_scatter_many(
        &mut self,
        flat: &mut [f32],
        lens: &[usize],
        wire: &Wire,
        policy: QuantizePolicy,
        rngs: &mut [Rng],
    ) -> Result<Vec<RankChunk>, TransportError> {
        let layout = RingLayout::new(flat.len(), lens, rngs.len(), self.world());
        self.ring_hops(flat, &layout, wire, policy, rngs, Phase::ReduceScatter)?;
        let own = (self.rank() + 1) % self.world();
        Ok(layout
            .tensors
            .iter()
            .map(|(off, chunks)| {
                let (lo, hi) = chunks[own];
                RankChunk {
                    lo: lo - off,
                    hi: hi - off,
                    data: flat[lo..hi].to_vec(),
                }
            })
            .collect())
    }

    /// Ring all-gather of the reduce-scatter result: every rank ends with
    /// the full `n`-element reduced vector. Bit-identical to
    /// [`crate::collective::ring_all_gather_ranked`].
    ///
    /// # Errors
    ///
    /// Any [`TransportError`] surfaced by the fabric mid-ring.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is not this rank's chunk of an `n`-element vector.
    pub fn ring_all_gather(
        &mut self,
        chunk: &RankChunk,
        n: usize,
        wire: &Wire,
        policy: QuantizePolicy,
        rng: &mut Rng,
    ) -> Result<Vec<f32>, TransportError> {
        let layout = RingLayout::new(n, &[n], 1, self.world());
        let (lo, hi) = layout.tensors[0].1[(self.rank() + 1) % self.world()];
        let mut full = vec![0.0f32; n];
        full[lo..hi].copy_from_slice(&chunk.data);
        let rngs = std::slice::from_mut(rng);
        self.ring_hops(&mut full, &layout, wire, policy, rngs, Phase::AllGather)?;
        Ok(full)
    }

    /// Ring all-reduce: reduce-scatter followed by all-gather. Returns this
    /// rank's copy of the reduced vector. The one-tensor case of
    /// [`Endpoint::ring_all_reduce_many`].
    ///
    /// # Errors
    ///
    /// Any [`TransportError`] surfaced by the fabric mid-ring.
    pub fn ring_all_reduce(
        &mut self,
        grad: &[f32],
        wire: &Wire,
        policy: QuantizePolicy,
        rng: &mut Rng,
    ) -> Result<Vec<f32>, TransportError> {
        let mut full = grad.to_vec();
        self.ring_all_reduce_many(
            &mut full,
            &[grad.len()],
            wire,
            policy,
            std::slice::from_mut(rng),
        )?;
        Ok(full)
    }

    /// Hop-major ring all-reduce of several tensors laid end to end in
    /// `flat`, reduced **in place**: on return every tensor's segment holds
    /// this rank's copy of its reduced vector, bit-identical to
    /// [`Endpoint::ring_all_reduce`] run on that tensor with `rngs[t]` (see
    /// [`Endpoint::ring_reduce_scatter_many`] for the schedule). Every rank
    /// sends `lens.len() × 2(world − 1)` frames, one per tensor per hop.
    ///
    /// # Errors
    ///
    /// Any [`TransportError`] surfaced by the fabric mid-ring.
    ///
    /// # Panics
    ///
    /// Panics if `lens` does not sum to `flat.len()` or `rngs.len()`
    /// differs from `lens.len()`.
    pub fn ring_all_reduce_many(
        &mut self,
        flat: &mut [f32],
        lens: &[usize],
        wire: &Wire,
        policy: QuantizePolicy,
        rngs: &mut [Rng],
    ) -> Result<(), TransportError> {
        let layout = RingLayout::new(flat.len(), lens, rngs.len(), self.world());
        self.ring_hops(flat, &layout, wire, policy, rngs, Phase::ReduceScatter)?;
        self.ring_hops(flat, &layout, wire, policy, rngs, Phase::AllGather)
    }

    /// `world − 1` hop-major ring hops over every tensor of `layout`. At
    /// hop `s` the rank posts chunk `rank + lead − s` of each tensor to the
    /// next rank, then takes chunk `rank + lead − 1 − s` of each from the
    /// previous one — `lead` 0 for the reduce-scatter, which adds arrivals
    /// into place, and 1 for the all-gather, which stores them (`flat` must
    /// already hold each tensor's owned chunk `rank + 1`). Hops run at
    /// `wire` under [`QuantizePolicy::EveryHop`]; under
    /// [`QuantizePolicy::FinalOnly`] they run exact and the reduce-scatter
    /// quantizes each owned chunk once at the end.
    fn ring_hops(
        &mut self,
        flat: &mut [f32],
        layout: &RingLayout,
        wire: &Wire,
        policy: QuantizePolicy,
        rngs: &mut [Rng],
        phase: Phase,
    ) -> Result<(), TransportError> {
        let (r, w) = (self.rank(), self.world());
        let (next, prev) = ((r + 1) % w, (r + w - 1) % w);
        let lead = usize::from(phase == Phase::AllGather);
        let hop_wire = if policy == QuantizePolicy::EveryHop {
            *wire
        } else {
            Wire::exact()
        };
        for s in 0..w - 1 {
            let c = (r + lead + w - s) % w;
            for ((_, chunks), rng) in layout.tensors.iter().zip(rngs.iter_mut()) {
                let (lo, hi) = chunks[c];
                self.post(next, &flat[lo..hi], &hop_wire, rng)?;
            }
            let cp = (prev + lead + w - s) % w;
            for (_, chunks) in &layout.tensors {
                let (lo, hi) = chunks[cp];
                let got = self.recv_chunk(prev, hi - lo)?;
                let held = &mut flat[lo..hi];
                match phase {
                    Phase::ReduceScatter => {
                        for (acc, v) in held.iter_mut().zip(&got) {
                            *acc += v;
                        }
                    }
                    Phase::AllGather => held.copy_from_slice(&got),
                }
            }
        }
        if phase == Phase::ReduceScatter && policy == QuantizePolicy::FinalOnly {
            let own = (r + 1) % w;
            for ((_, chunks), rng) in layout.tensors.iter().zip(rngs.iter_mut()) {
                let (lo, hi) = chunks[own];
                let mut data = flat[lo..hi].to_vec();
                wire.quantize(&mut data, rng);
                flat[lo..hi].copy_from_slice(&data);
            }
        }
        Ok(())
    }
}

/// Which half of a ring all-reduce [`Endpoint::ring_hops`] runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    ReduceScatter,
    AllGather,
}

/// Where each tensor of a hop-major collective lives in its flat buffer:
/// `tensors[t] = (offset, chunks)`, with `chunks[c]` the absolute range of
/// the tensor's ring chunk `c` ([`chunk_bounds`] shifted by the offset).
struct RingLayout {
    tensors: Vec<(usize, Vec<(usize, usize)>)>,
}

impl RingLayout {
    fn new(flat_len: usize, lens: &[usize], streams: usize, world: usize) -> Self {
        assert_eq!(
            lens.iter().sum::<usize>(),
            flat_len,
            "tensor lengths must tile the flat buffer"
        );
        assert_eq!(streams, lens.len(), "need one RNG stream per tensor");
        let mut off = 0;
        let tensors = lens
            .iter()
            .map(|&n| {
                let chunks = chunk_bounds(n, world)
                    .into_iter()
                    .map(|(lo, hi)| (off + lo, off + hi))
                    .collect();
                let entry = (off, chunks);
                off += n;
                entry
            })
            .collect();
        RingLayout { tensors }
    }
}

/// A pipeline-parallel relay over p2p send/recv: rank 0 ships `payload`
/// through `wire` to rank 1, every middle rank forwards what it received to
/// the next stage (re-quantizing with its own RNG, as a real pipeline hop
/// does), and each rank returns what it received (rank 0 returns an empty
/// vector). Generic over the fabric, so the threaded and process backends
/// run the identical stage code.
///
/// # Errors
///
/// Any [`TransportError`] surfaced by the fabric mid-relay.
pub fn pipeline_relay<F: Fabric>(
    ep: &mut Endpoint<F>,
    payload: &[f32],
    wire: &Wire,
    rng: &mut Rng,
) -> Result<Vec<f32>, TransportError> {
    let (r, w) = (ep.rank(), ep.world());
    if r == 0 {
        if w > 1 {
            ep.send(1, payload, wire, rng)?;
        }
        return Ok(Vec::new());
    }
    let received = ep.recv(r - 1)?;
    if r + 1 < w {
        ep.send(r + 1, &received, wire, rng)?;
    }
    Ok(received)
}

/// Derives the wire RNG one rank uses for one training step, keyed by the
/// trainer's **absolute** step index. Restarting a per-step stream (rather
/// than running one stream across the whole loop) is what makes failure
/// recovery exact: a rank that rolls a faulted step back and retries it
/// replays the identical wire bytes an unfaulted run would have sent at
/// that step, wherever in the run the retry happens. Each gradient tensor
/// then draws from its own fork of this stream — tensor `t` (in
/// `visit_params_mut` order) from `step_comm_rng(..).fork(t)`, see
/// [`all_reduce_grads`] — so no tensor's wire bits depend on the order the
/// hop-major all-reduce quantizes the others in.
pub(crate) fn step_comm_rng(comm_seed: u64, rank: usize, step: u64) -> Rng {
    Rng::seed_from(
        comm_seed
            ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ step.wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

/// One data-parallel gradient sync, shared by both DP loops: gathers every
/// parameter gradient in `visit_params_mut` order into one flat buffer,
/// all-reduces them together ([`Endpoint::ring_all_reduce_many`], tensor
/// `t` on stream `step_rng.clone().fork(t)`), and writes each reduced value
/// back scaled by `1 / world`.
pub(crate) fn all_reduce_grads<F: Fabric>(
    ep: &mut Endpoint<F>,
    model: &mut Model,
    wire: &Wire,
    policy: QuantizePolicy,
    step_rng: &Rng,
) -> Result<(), TransportError> {
    let mut lens = Vec::new();
    model.visit_params_mut(&mut |p| lens.push(p.grad().len()));
    let mut flat = Vec::with_capacity(lens.iter().sum());
    model.visit_params_mut(&mut |p| flat.extend_from_slice(p.grad().as_slice()));
    let mut rngs: Vec<Rng> = (0..lens.len() as u64)
        .map(|t| step_rng.clone().fork(t))
        .collect();
    ep.ring_all_reduce_many(&mut flat, &lens, wire, policy, &mut rngs)?;
    let inv_world = 1.0 / ep.world() as f32;
    let mut reduced = flat.iter();
    model.visit_params_mut(&mut |p| {
        for (g, v) in p.grad_mut().as_mut_slice().iter_mut().zip(&mut reduced) {
            *g = v * inv_world;
        }
    });
    Ok(())
}

/// One rank's synchronous data-parallel training loop: `steps` steps of
/// `trainer`, each all-reducing every parameter gradient through `wire` in
/// one hop-major collective ([`all_reduce_grads`], then averaging) before
/// clipping and the optimizer update. Shared by the threaded and process DP
/// paths so both run the identical step code. Wire randomness is
/// re-derived every step from `(comm_seed, rank, absolute step index)` and
/// forked once per gradient tensor — see [`step_comm_rng`] — so the chaos
/// recovery path ([`chaos::data_parallel_train_with_recovery`]) can replay
/// a failed step bit-exactly.
///
/// # Panics
///
/// Panics if the all-reduce fails mid-step (a dead peer is unrecoverable
/// for synchronous DP without the chaos module's retry driver; the panic
/// is the abort signal that closes this rank's links in turn).
pub(crate) fn dp_train_loop<F: Fabric>(
    ep: &mut Endpoint<F>,
    trainer: &mut Trainer,
    steps: u64,
    wire: &Wire,
    policy: QuantizePolicy,
    comm_seed: u64,
) -> Vec<f64> {
    let mut losses = Vec::with_capacity(steps as usize);
    for _ in 0..steps {
        let step_rng = step_comm_rng(comm_seed, ep.rank(), trainer.step_count());
        let out = trainer.train_step_output_with_grad_hook(&mut |model| {
            all_reduce_grads(ep, model, wire, policy, &step_rng)
                .expect("data-parallel all-reduce failed");
        });
        losses.push(out.loss);
    }
    losses
}

/// Builds a `world`-rank threaded mesh and runs `f` once per rank, each on
/// its own OS thread with its own [`Endpoint`] over a [`ChannelFabric`].
/// Returns the per-rank results in rank order plus the measured traffic.
///
/// # Panics
///
/// Panics if `world` is zero or any rank thread panics. A panicking rank's
/// endpoint is dropped during unwind, which closes its links; peers blocked
/// mid-collective observe [`TransportError::PeerClosed`] and fail fast
/// instead of deadlocking on a hop that will never arrive. The propagated
/// panic is the root cause, not a bystander's cascade panic.
pub fn run_ranks<T, F>(world: usize, f: F) -> (Vec<T>, TransportStats)
where
    T: Send,
    F: Fn(&mut Endpoint<ChannelFabric>) -> T + Send + Sync,
{
    let counters = Arc::new(LinkCounters::new(world));
    let endpoints: Vec<Endpoint<ChannelFabric>> = channel_mesh(world)
        .into_iter()
        .map(|fab| Endpoint::with_counters(fab, Arc::clone(&counters)))
        .collect();
    drive_endpoints(endpoints, counters, f)
}

/// The shared mesh driver behind [`run_ranks`] and
/// [`chaos::chaos_run_ranks`]: runs `f` once per endpoint, each on its own
/// scoped OS thread, joins them all, propagates the root-cause panic (the
/// first whose message is not an [`is_cascade_error`] cascade of somebody
/// else's failure), then snapshots and publishes the shared counters.
pub(crate) fn drive_endpoints<Fb, T, F>(
    endpoints: Vec<Endpoint<Fb>>,
    counters: Arc<LinkCounters>,
    f: F,
) -> (Vec<T>, TransportStats)
where
    Fb: Fabric + Send,
    T: Send,
    F: Fn(&mut Endpoint<Fb>) -> T + Send + Sync,
{
    let world = endpoints.len();
    let results = std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|mut ep| scope.spawn(move || f(&mut ep)))
            .collect();
        let mut outputs = Vec::with_capacity(world);
        let mut panics: Vec<Box<dyn std::any::Any + Send>> = Vec::new();
        for h in handles {
            match h.join() {
                Ok(v) => outputs.push(v),
                Err(payload) => panics.push(payload),
            }
        }
        if !panics.is_empty() {
            // Resume the root cause, not a bystander's cascade panic: one
            // rank's real failure makes every peer blocked on it panic with
            // a secondary PeerClosed unwrap.
            let is_cascade = |p: &Box<dyn std::any::Any + Send>| {
                let text = p
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| p.downcast_ref::<&str>().copied());
                text.is_some_and(is_cascade_error)
            };
            let root = panics.iter().position(|p| !is_cascade(p)).unwrap_or(0);
            std::panic::resume_unwind(panics.swap_remove(root));
        }
        outputs
    });
    let stats = TransportStats::snapshot(&counters);
    publish_transport_stats(&stats);
    (results, stats)
}

/// Runs a full threaded reduce-scatter with one gradient vector and one RNG
/// stream per rank, assembling the per-rank results into the same
/// [`CollectiveResult`] shape the in-proc simulator returns (with
/// `bytes_on_wire` taken from the *measured* payload counters).
///
/// # Panics
///
/// Panics if `grads` is empty, lengths disagree, `rngs.len()` differs, or
/// the collective fails mid-ring.
pub fn threaded_reduce_scatter(
    grads: &[Vec<f32>],
    wire: &Wire,
    policy: QuantizePolicy,
    rngs: &[Rng],
) -> (CollectiveResult, TransportStats) {
    check_world(grads, rngs);
    let (chunks, stats) = run_ranks(grads.len(), |ep| {
        let mut rng = rngs[ep.rank()].clone();
        ep.ring_reduce_scatter(&grads[ep.rank()], wire, policy, &mut rng)
            .expect("threaded reduce-scatter failed")
    });
    let result = CollectiveResult {
        owned: chunks.iter().map(|c| (c.lo, c.hi)).collect(),
        per_rank: chunks.into_iter().map(|c| c.data).collect(),
        bytes_on_wire: stats.total_payload_bytes(),
    };
    (result, stats)
}

/// [`threaded_reduce_scatter`] followed by the all-gather: every rank ends
/// with the full reduced vector.
///
/// # Panics
///
/// Panics if `grads` is empty, lengths disagree, `rngs.len()` differs, or
/// the collective fails mid-ring.
pub fn threaded_all_reduce(
    grads: &[Vec<f32>],
    wire: &Wire,
    policy: QuantizePolicy,
    rngs: &[Rng],
) -> (CollectiveResult, TransportStats) {
    check_world(grads, rngs);
    let n = grads[0].len();
    let (full, stats) = run_ranks(grads.len(), |ep| {
        let mut rng = rngs[ep.rank()].clone();
        ep.ring_all_reduce(&grads[ep.rank()], wire, policy, &mut rng)
            .expect("threaded all-reduce failed")
    });
    let result = CollectiveResult {
        per_rank: full,
        owned: vec![(0, n); grads.len()],
        bytes_on_wire: stats.total_payload_bytes(),
    };
    (result, stats)
}

/// Runs [`pipeline_relay`] over the threaded mesh: rank 0 ships `payload`
/// stage to stage through `wire`. Returns each rank's received payload
/// (rank 0's entry is empty) and the measured traffic.
///
/// # Panics
///
/// Panics if `seeds` is empty or the relay fails mid-hop.
pub fn threaded_pipeline_relay(
    payload: &[f32],
    wire: &Wire,
    seeds: &[u64],
) -> (Vec<Vec<f32>>, TransportStats) {
    assert!(!seeds.is_empty(), "no ranks");
    run_ranks(seeds.len(), |ep| {
        let mut rng = Rng::seed_from(seeds[ep.rank()]);
        pipeline_relay(ep, payload, wire, &mut rng).expect("threaded pipeline relay failed")
    })
}

pub(crate) fn check_world(grads: &[Vec<f32>], rngs: &[Rng]) {
    assert!(!grads.is_empty(), "no ranks");
    let n = grads[0].len();
    assert!(
        grads.iter().all(|g| g.len() == n),
        "ranks disagree on gradient length"
    );
    assert_eq!(rngs.len(), grads.len(), "need one RNG stream per rank");
}

/// Synchronous data-parallel training over the threaded transport: each
/// trainer runs on its own rank thread, and every step all-reduces every
/// parameter gradient through `wire` (then averages), so the optimizer on
/// each rank updates from the same reduced gradient a ZeRO-style DP run
/// would see. Returns the trainers (advanced `steps` steps), each rank's
/// per-step losses, and the measured traffic.
///
/// Wire randomness is derived per rank *and per step* from `comm_seed` and
/// the absolute step index (`step_comm_rng`), then forked once per
/// gradient tensor — identical to
/// [`proc::proc_data_parallel_train`], which must reproduce this run bit
/// for bit, and to the chaos recovery driver, whose retried steps must
/// replay this run's exact wire streams.
///
/// # Panics
///
/// Panics if `trainers` is empty or a rank thread panics.
pub fn data_parallel_train(
    trainers: Vec<Trainer>,
    steps: u64,
    wire: &Wire,
    policy: QuantizePolicy,
    comm_seed: u64,
) -> (Vec<Trainer>, Vec<Vec<f64>>, TransportStats) {
    assert!(!trainers.is_empty(), "no ranks");
    let dp_span = snip_obs::span("data_parallel_train");
    let world = trainers.len();
    let slots: Vec<std::sync::Mutex<Option<Trainer>>> = trainers
        .into_iter()
        .map(|t| std::sync::Mutex::new(Some(t)))
        .collect();
    let (losses, stats) = run_ranks(world, |ep| {
        let mut trainer = slots[ep.rank()]
            .lock()
            .expect("trainer slot")
            .take()
            .expect("each rank takes its trainer once");
        let losses = dp_train_loop(ep, &mut trainer, steps, wire, policy, comm_seed);
        *slots[ep.rank()].lock().expect("trainer slot") = Some(trainer);
        losses
    });
    let trainers = slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot").expect("trainer returned"))
        .collect();
    // Close the span before flushing so the run itself appears in the trace.
    drop(dp_span);
    // End of a training run is the artifact boundary: write the trace and
    // `RUN_REPORT.json` if `SNIP_TRACE` named a path (no-op otherwise).
    if let Err(e) = snip_obs::flush() {
        eprintln!("snip: failed writing telemetry artifacts: {e}");
    }
    (trainers, losses, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::{exact_sum, ring_reduce_scatter_ranked};
    use snip_quant::PackedQuantize;

    fn make_grads(ranks: usize, n: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = Rng::seed_from(seed);
        (0..ranks)
            .map(|_| (0..n).map(|_| rng.next_f32() * 2.0 - 1.0).collect())
            .collect()
    }

    #[test]
    fn frames_round_trip_every_wire_kind() {
        let payload: Vec<f32> = (0..37).map(|i| (i as f32 - 15.0) * 0.23).collect();
        for wire in [Wire::exact(), Wire::bf16(), Wire::fp4(16), Wire::mxfp4()] {
            let mut enc_rng = Rng::seed_from(11);
            let mut ref_rng = Rng::seed_from(11);
            let (frame, bytes) = encode_frame(&wire, &payload, &mut enc_rng);
            let mut reference = payload.clone();
            let measured = wire.transmit(&mut reference, &mut ref_rng);
            assert_eq!(bytes, measured, "{}", wire.label());
            let (decoded, rx_bytes) = decode_frame(&frame).expect("valid frame");
            assert_eq!(rx_bytes, bytes, "{}: both sides count alike", wire.label());
            assert_eq!(decoded.len(), payload.len(), "{}", wire.label());
            for (a, b) in decoded.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "{}: {a} vs {b}", wire.label());
            }
        }
    }

    #[test]
    fn threaded_reduce_scatter_matches_ranked_oracle_bit_for_bit() {
        for wire in [Wire::exact(), Wire::bf16(), Wire::fp4(16), Wire::fp8(16)] {
            for policy in [QuantizePolicy::EveryHop, QuantizePolicy::FinalOnly] {
                let grads = make_grads(4, 53, 3);
                let rngs: Vec<Rng> = (0..4).map(|r| Rng::seed_from(40 + r)).collect();
                let (threaded, _) = threaded_reduce_scatter(&grads, &wire, policy, &rngs);
                let mut oracle_rngs = rngs.clone();
                let oracle = ring_reduce_scatter_ranked(&grads, &wire, policy, &mut oracle_rngs);
                assert_eq!(threaded.owned, oracle.owned, "{}", wire.label());
                assert_eq!(
                    threaded.bytes_on_wire,
                    oracle.bytes_on_wire,
                    "{}",
                    wire.label()
                );
                for (t, o) in threaded.per_rank.iter().zip(&oracle.per_rank) {
                    for (a, b) in t.iter().zip(o) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{} {policy:?}", wire.label());
                    }
                }
            }
        }
    }

    #[test]
    fn dp_gradient_sync_forks_one_wire_stream_per_tensor() {
        // Tensor t of rank r must reduce exactly as the per-tensor oracle
        // does on stream step_comm_rng(comm_seed, r, step).fork(t), then
        // scale by 1 / world — under a stochastic wire, where the streams
        // actually matter.
        let (world, comm_seed, step, wire) = (2, 0x51, 7, Wire::fp4(16));
        let cfg = snip_nn::ModelConfig::tiny_test();
        let models: Vec<Model> = (0..world as u64)
            .map(|r| {
                let mut model = Model::new(cfg.clone(), 3).expect("model");
                let mut g = Rng::seed_from(100 + r);
                model.visit_params_mut(&mut |p| {
                    g.fill_uniform(p.grad_mut().as_mut_slice(), -1.0, 1.0);
                });
                model
            })
            .collect();
        let grads_of = |model: &Model| {
            let mut model = model.clone();
            let mut grads = Vec::new();
            model.visit_params_mut(&mut |p| grads.push(p.grad().as_slice().to_vec()));
            grads
        };
        let inputs: Vec<Vec<Vec<f32>>> = models.iter().map(grads_of).collect();
        let (synced, _) = run_ranks(world, |ep| {
            let mut model = models[ep.rank()].clone();
            let step_rng = step_comm_rng(comm_seed, ep.rank(), step);
            all_reduce_grads(ep, &mut model, &wire, QuantizePolicy::EveryHop, &step_rng)
                .expect("gradient sync");
            grads_of(&model)
        });
        assert!(inputs[0].len() > 1, "several tensors");
        for t in 0..inputs[0].len() {
            let grads: Vec<Vec<f32>> = inputs.iter().map(|g| g[t].clone()).collect();
            let mut rngs: Vec<Rng> = (0..world)
                .map(|r| step_comm_rng(comm_seed, r, step).fork(t as u64))
                .collect();
            let oracle = crate::collective::ring_all_reduce_ranked(
                &grads,
                &wire,
                QuantizePolicy::EveryHop,
                &mut rngs,
            );
            for (r, reduced) in oracle.per_rank.iter().enumerate() {
                for (a, b) in synced[r][t].iter().zip(reduced) {
                    assert_eq!(a.to_bits(), (b * 0.5).to_bits(), "rank {r} tensor {t}");
                }
            }
        }
    }

    #[test]
    fn per_link_counters_cover_only_ring_neighbours_and_agree_both_sides() {
        let grads = make_grads(4, 64, 7);
        let rngs: Vec<Rng> = (0..4).map(Rng::seed_from).collect();
        let (_, stats) =
            threaded_reduce_scatter(&grads, &Wire::fp8(16), QuantizePolicy::EveryHop, &rngs);
        for src in 0..4 {
            for dst in 0..4 {
                let bytes = stats.link_payload_bytes(src, dst);
                if dst == (src + 1) % 4 {
                    // 3 hops × 16 elements × (1 B code + f32 scale per tile).
                    assert_eq!(bytes, 3 * (16 + 4), "{src}->{dst}");
                    assert_eq!(stats.link_frames(src, dst), 3);
                } else {
                    assert_eq!(bytes, 0, "{src}->{dst} should be silent");
                }
                assert_eq!(
                    stats.link_rx_payload_bytes(src, dst),
                    bytes,
                    "{src}->{dst}: receiver must count what the sender counted"
                );
            }
        }
        assert!(stats.two_sided(), "tx and rx views must agree");
        assert!(
            stats.total_envelope_bytes() > 0,
            "envelopes are measured too"
        );
    }

    #[test]
    fn p2p_send_recv_round_trips_packed_payloads() {
        let payload: Vec<f32> = (0..29).map(|i| i as f32 * 0.4 - 5.0).collect();
        let expect = {
            let mut reference = payload.clone();
            Wire::fp4(8).quantize(&mut reference, &mut Rng::seed_from(1));
            reference
        };
        let (outputs, stats) = run_ranks(2, |ep| {
            if ep.rank() == 0 {
                let mut rng = Rng::seed_from(1);
                ep.send(1, &payload, &Wire::fp4(8), &mut rng).unwrap();
                Vec::new()
            } else {
                ep.recv(0).unwrap()
            }
        });
        for (a, b) in outputs[1].iter().zip(&expect) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            stats.link_payload_bytes(0, 1),
            Wire::fp4(8)
                .codec()
                .unwrap()
                .packed_wire_bytes(1, 29)
                .unwrap()
        );
        assert_eq!(stats.link_payload_bytes(1, 0), 0);
    }

    #[test]
    fn per_link_channels_keep_sources_apart() {
        // Rank 2 receives from 0 and 1 in the *opposite* order they were
        // sent; per-link FIFO channels must keep the streams apart.
        let (outputs, _) = run_ranks(3, |ep| {
            let mut rng = Rng::seed_from(9);
            match ep.rank() {
                0 => {
                    ep.send(2, &[1.0, 2.0], &Wire::exact(), &mut rng).unwrap();
                    ep.send(2, &[3.0], &Wire::exact(), &mut rng).unwrap();
                    Vec::new()
                }
                1 => {
                    ep.send(2, &[9.0], &Wire::exact(), &mut rng).unwrap();
                    Vec::new()
                }
                _ => {
                    let b = ep.recv(1).unwrap();
                    let a1 = ep.recv(0).unwrap();
                    let a2 = ep.recv(0).unwrap();
                    vec![b, a1, a2]
                }
            }
        });
        assert_eq!(outputs[2], vec![vec![9.0], vec![1.0, 2.0], vec![3.0]]);
    }

    #[test]
    fn all_reduce_reaches_the_exact_sum_on_exact_wires() {
        let grads = make_grads(5, 41, 13);
        let exact = exact_sum(&grads);
        let rngs: Vec<Rng> = (0..5).map(Rng::seed_from).collect();
        let (result, _) =
            threaded_all_reduce(&grads, &Wire::exact(), QuantizePolicy::EveryHop, &rngs);
        for rank in &result.per_rank {
            for (got, want) in rank.iter().zip(&exact) {
                assert!((got - want).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn panicking_rank_aborts_the_mesh_instead_of_deadlocking() {
        // Rank 1 dies before sending; ranks 0 and 2 are blocked waiting on
        // it. Its links close during unwind, so peers observe PeerClosed
        // and fail fast — the whole call panics (propagated by run_ranks)
        // rather than hanging forever.
        let result = std::panic::catch_unwind(|| {
            run_ranks(3, |ep| {
                let mut rng = Rng::seed_from(1);
                if ep.rank() == 1 {
                    panic!("rank 1 exploded");
                }
                ep.send((ep.rank() + 1) % 3, &[1.0], &Wire::exact(), &mut rng)
                    .unwrap();
                ep.recv(1).unwrap()
            })
        });
        // The propagated panic is the root cause, not a peer's cascade.
        let payload = result.expect_err("panic must propagate, not deadlock");
        let text = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            text.contains("rank 1 exploded"),
            "got panic payload {text:?}"
        );
    }

    #[test]
    fn dead_peer_surfaces_as_a_typed_peer_closed_error() {
        let (outcomes, _) = run_ranks(2, |ep| {
            if ep.rank() == 0 {
                // Rank 0 exits immediately, closing its links.
                Ok(Vec::new())
            } else {
                ep.recv(0)
            }
        });
        assert_eq!(outcomes[0], Ok(Vec::new()));
        assert_eq!(outcomes[1], Err(TransportError::PeerClosed { rank: 0 }));
    }

    #[test]
    fn in_flight_frames_drain_before_peer_closed() {
        // A rank that sends and exits must still deliver: closure is only
        // observed after the buffered frames are consumed (socket-EOF
        // semantics on channels).
        let (outputs, _) = run_ranks(2, |ep| {
            let mut rng = Rng::seed_from(2);
            if ep.rank() == 0 {
                ep.send(1, &[4.0, 5.0], &Wire::exact(), &mut rng).unwrap();
                (Vec::new(), None)
            } else {
                let got = ep.recv(0).unwrap();
                let after = ep.recv(0);
                (got, Some(after))
            }
        });
        assert_eq!(outputs[1].0, vec![4.0, 5.0]);
        assert_eq!(
            outputs[1].1,
            Some(Err(TransportError::PeerClosed { rank: 0 }))
        );
    }

    #[test]
    fn single_rank_transport_is_a_no_op() {
        let grads = make_grads(1, 16, 17);
        let rngs = vec![Rng::seed_from(0)];
        let (rs, stats) =
            threaded_reduce_scatter(&grads, &Wire::fp4(8), QuantizePolicy::EveryHop, &rngs);
        assert_eq!(rs.bytes_on_wire, 0);
        assert_eq!(stats.total_frames(), 0);
        assert_eq!(rs.per_rank[0], grads[0]);
    }

    #[test]
    fn pipeline_relay_forwards_stage_to_stage() {
        let payload: Vec<f32> = (0..21).map(|i| i as f32 * 0.3 - 2.0).collect();
        let (received, stats) = threaded_pipeline_relay(&payload, &Wire::exact(), &[1, 2, 3]);
        assert!(received[0].is_empty());
        assert_eq!(received[1], payload);
        assert_eq!(received[2], payload);
        assert_eq!(stats.link_frames(0, 1), 1);
        assert_eq!(stats.link_frames(1, 2), 1);
        assert_eq!(stats.link_frames(2, 0), 0);
        assert!(stats.two_sided());
    }
}
