//! Byte-level rank fabrics — the transport's backend extension point.
//!
//! [`super::Endpoint`] owns everything *semantic* about rank communication:
//! payload quantization, frame encode/decode, ring schedules, payload vs
//! envelope accounting. What it delegates is the *mechanical* part — moving
//! an opaque byte frame from one rank to another — and that is the
//! [`Fabric`] trait: a full mesh of per-link FIFO byte channels.
//!
//! **To add a transport backend, implement [`Fabric`]** and hand the
//! implementation to [`super::Endpoint::new`]. Two backends ship today:
//!
//! * [`ChannelFabric`] — ranks on OS threads in one process, one mpsc
//!   channel per directed link ([`channel_mesh`] builds the full mesh).
//! * [`super::proc::SocketFabric`] — ranks in separate OS processes, one
//!   Unix-domain socket per rank pair carrying length-prefixed frames.
//!
//! Both share one failure model: **a closed link is the abort signal**.
//! There is no in-band abort broadcast — when a rank dies, its fabric is
//! dropped, which closes every link it owns (channel senders disconnect,
//! sockets deliver EOF after their buffered frames), and each peer blocked
//! on that rank observes [`TransportError::PeerClosed`]. The error cascades
//! along whatever links ranks are actually waiting on, so the whole mesh
//! fails fast instead of deadlocking — the same semantics TCP gives a real
//! collective runtime for free.

use super::frame::FrameError;
use snip_quant::StreamError;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// Default bound on how long a `recv_frame` waits for a stalled peer before
/// failing with [`TransportError::Timeout`]. Generous enough for any
/// in-repo collective; small enough that a wedged rank becomes a diagnosed
/// error instead of an indefinite hang.
pub const DEFAULT_RECV_DEADLINE: Duration = Duration::from_secs(120);

/// A transport-level failure observed by one rank.
#[derive(Clone, Debug, PartialEq)]
pub enum TransportError {
    /// A peer's link closed mid-collective (the peer panicked, exited, or
    /// dropped its endpoint). This is the abort-propagation signal.
    PeerClosed {
        /// The peer whose link closed.
        rank: usize,
    },
    /// A peer delivered a structurally invalid payload frame.
    Frame {
        /// The sending peer.
        src: usize,
        /// What was wrong with the frame.
        error: FrameError,
    },
    /// A peer's byte stream itself was damaged (bad length prefix, stream
    /// cut mid-frame, checksum mismatch).
    Stream {
        /// The sending peer.
        src: usize,
        /// The stream-layer defect.
        error: StreamError,
    },
    /// No frame arrived from a peer within the recv deadline — the peer is
    /// alive (its link is open) but stalled. Distinct from
    /// [`TransportError::PeerClosed`]: the link did *not* close.
    Timeout {
        /// The peer the rank was waiting on.
        src: usize,
        /// How long the rank actually waited.
        elapsed: Duration,
    },
    /// This rank was killed by its chaos schedule (fault injection only —
    /// real deployments observe the *peer-side* [`TransportError::PeerClosed`]
    /// cascade instead).
    Killed {
        /// The rank that was killed.
        rank: usize,
    },
    /// An OS-level I/O failure on a link.
    Io {
        /// The peer on the failing link.
        rank: usize,
        /// Stringified `std::io::Error`.
        message: String,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::PeerClosed { rank } => {
                write!(f, "rank {rank} closed its link mid-collective")
            }
            TransportError::Frame { src, error } => {
                write!(f, "corrupt frame from rank {src}: {error}")
            }
            TransportError::Stream { src, error } => {
                write!(f, "damaged stream from rank {src}: {error}")
            }
            TransportError::Timeout { src, elapsed } => {
                write!(
                    f,
                    "timed out after {:.3}s waiting for a frame from rank {src}",
                    elapsed.as_secs_f64()
                )
            }
            TransportError::Killed { rank } => {
                write!(f, "rank {rank} was killed by its chaos schedule")
            }
            TransportError::Io { rank, message } => {
                write!(f, "i/o failure on the link to rank {rank}: {message}")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// `true` when an error's message marks it as a *secondary* failure — the
/// cascade a primary fault (kill, corruption, panic) induces at the ranks
/// that were merely waiting on the faulted one. Launchers use this for
/// root-cause attribution: report the first non-cascade error, because the
/// `PeerClosed`/`Timeout` storm around it is a consequence, not a cause.
pub fn is_cascade_error(message: &str) -> bool {
    message.contains("mid-collective")
        || message.contains("PeerClosed")
        || message.contains("timed out after")
}

/// A full mesh of per-link FIFO byte channels connecting `world` ranks.
///
/// Implementations guarantee: frames from `src` to `dst` arrive complete,
/// uncorrupted (or surface a typed error) and in send order; distinct links
/// never interleave their frames; and dropping a rank's fabric closes all
/// of its links, which peers observe as [`TransportError::PeerClosed`]
/// after draining any frames already in flight.
pub trait Fabric {
    /// This rank's id.
    fn rank(&self) -> usize;

    /// Number of ranks in the mesh.
    fn world(&self) -> usize;

    /// Ships one frame to `dst`. Returns the total wire bytes moved — the
    /// frame plus any per-frame transport overhead (e.g. a stream length
    /// prefix), so callers can account envelope bytes honestly per backend.
    ///
    /// A backend may queue the frame instead of writing it at once, as long
    /// as it writes everything queued before blocking in
    /// [`Fabric::recv_frame`], on [`Fabric::flush`], and when dropped — so
    /// a ring hop can post all its frames and then receive without either
    /// side waiting on bytes still sitting in a queue.
    fn send_frame(&mut self, dst: usize, frame: Vec<u8>) -> Result<u64, TransportError>;

    /// Blocks for the next frame from `src` (per-link FIFO). Returns the
    /// frame and the wire bytes it occupied. Waits at most the recv
    /// deadline ([`DEFAULT_RECV_DEADLINE`] unless lowered via
    /// [`Fabric::set_recv_deadline`]) before failing with
    /// [`TransportError::Timeout`].
    fn recv_frame(&mut self, src: usize) -> Result<(Vec<u8>, u64), TransportError>;

    /// Writes every frame [`Fabric::send_frame`] has queued. A no-op for
    /// backends that send eagerly (the default); the socket fabric writes
    /// its per-link outboxes here.
    fn flush(&mut self) -> Result<(), TransportError> {
        Ok(())
    }

    /// Bounds how long [`Fabric::recv_frame`] waits for a stalled peer.
    /// The default implementation is a no-op for backends that cannot
    /// block indefinitely; both shipped backends (channels, sockets)
    /// override it.
    fn set_recv_deadline(&mut self, _deadline: Duration) {}
}

/// The in-process backend: ranks on OS threads, one unbounded mpsc channel
/// per directed link. The channel *is* the link — when a rank's fabric
/// drops, its `Sender`s disconnect and every peer's pending `recv` on those
/// links fails with [`TransportError::PeerClosed`] once buffered frames are
/// drained, exactly mirroring socket EOF semantics.
pub struct ChannelFabric {
    rank: usize,
    world: usize,
    /// `senders[dst]` — this rank's exclusive sending half of link
    /// `rank → dst`.
    senders: Vec<Sender<Vec<u8>>>,
    /// `receivers[src]` — the receiving half of link `src → rank`.
    receivers: Vec<Receiver<Vec<u8>>>,
    /// Longest a `recv_frame` waits before reporting a stalled peer.
    deadline: Duration,
}

/// Builds the `world × world` channel mesh, returning one fabric per rank
/// (in rank order).
///
/// # Panics
///
/// Panics if `world` is zero.
pub fn channel_mesh(world: usize) -> Vec<ChannelFabric> {
    assert!(world > 0, "need at least one rank");
    // links[src][dst] starts as the (sender, receiver) pair of that link.
    let mut txs: Vec<Vec<Option<Sender<Vec<u8>>>>> = (0..world)
        .map(|_| (0..world).map(|_| None).collect())
        .collect();
    let mut rxs: Vec<Vec<Option<Receiver<Vec<u8>>>>> = (0..world)
        .map(|_| (0..world).map(|_| None).collect())
        .collect();
    for src in 0..world {
        for dst in 0..world {
            let (tx, rx) = channel();
            txs[src][dst] = Some(tx);
            rxs[dst][src] = Some(rx);
        }
    }
    txs.into_iter()
        .zip(rxs)
        .enumerate()
        .map(|(rank, (senders, receivers))| ChannelFabric {
            rank,
            world,
            senders: senders.into_iter().map(|s| s.expect("filled")).collect(),
            receivers: receivers.into_iter().map(|r| r.expect("filled")).collect(),
            deadline: DEFAULT_RECV_DEADLINE,
        })
        .collect()
}

impl Fabric for ChannelFabric {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world(&self) -> usize {
        self.world
    }

    fn send_frame(&mut self, dst: usize, frame: Vec<u8>) -> Result<u64, TransportError> {
        let wire = frame.len() as u64;
        self.senders[dst]
            .send(frame)
            .map_err(|_| TransportError::PeerClosed { rank: dst })?;
        Ok(wire)
    }

    fn recv_frame(&mut self, src: usize) -> Result<(Vec<u8>, u64), TransportError> {
        let start = Instant::now();
        let frame = self.receivers[src]
            .recv_timeout(self.deadline)
            .map_err(|e| match e {
                RecvTimeoutError::Timeout => TransportError::Timeout {
                    src,
                    elapsed: start.elapsed(),
                },
                RecvTimeoutError::Disconnected => TransportError::PeerClosed { rank: src },
            })?;
        let wire = frame.len() as u64;
        Ok((frame, wire))
    }

    fn set_recv_deadline(&mut self, deadline: Duration) {
        self.deadline = deadline;
    }
}
