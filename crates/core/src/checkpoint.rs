//! The binary checkpoint container behind [`Trainer::save`] and
//! [`Trainer::load`].
//!
//! A checkpoint is a sequence of frames, each in the CRC32 stream envelope
//! the socket transport uses (`[u32 len][u32 crc32(body)][body]`, see
//! [`snip_quant::wire::stream_frame`]):
//!
//! | frame | body |
//! |---|---|
//! | 0 | header — [`MAGIC`], `u32` [`VERSION`], `u64` step, `u32` frame count — then the *manifest* |
//! | 1.. | one bulk buffer each, as raw little-endian bytes |
//!
//! The manifest is the serde JSON of the trainer with every bulk buffer
//! moved out (shapes, formats, RNG and stream state stay). The bulk buffers
//! are every parameter's value and gradient (f32) and AdamW's stored
//! moments (dense f32, or packed FP8 codes then f32 tile scales), in the
//! order of the trainer's single bulk visitor; that order is defined once
//! and shared by save and load, so a field added to the trainer later
//! rides in the manifest by default and is never silently dropped.
//!
//! Writes are atomic: the container goes to [`temp_path`] in the target's
//! directory, is fsynced, renamed over the target, and the directory is
//! fsynced — a crash at any point leaves either the previous checkpoint or
//! the new one. Reads never panic and never allocate past the file's
//! size: every length prefix is bounded by the bytes that remain, and
//! every failure is a typed [`CheckpointError`].
//!
//! [`Trainer::save`]: crate::trainer::Trainer::save
//! [`Trainer::load`]: crate::trainer::Trainer::load

use snip_quant::wire::{
    split_stream_frame, stream_envelope, StreamError, STREAM_ENVELOPE_BYTES,
    STREAM_MAX_FRAME_BYTES, STREAM_PREFIX_BYTES,
};
use snip_tensor::{BulkBuf, BulkSlot};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// The first bytes of frame 0's body.
pub const MAGIC: [u8; 8] = *b"SNIPCKPT";

/// Container version; bumped whenever the layout or the bulk order
/// changes. A file of any other version is a [`CheckpointError::Format`].
pub const VERSION: u32 = 1;

/// Frame 0's fixed header: magic, version, step, frame count.
pub const HEADER_BYTES: usize = MAGIC.len() + 4 + 8 + 4;

/// Everything that can go wrong saving or loading a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read, written, synced or renamed.
    Io(std::io::Error),
    /// Not a checkpoint of this format: the magic is missing (e.g. a JSON
    /// checkpoint from an older build) or the version is unsupported.
    Format(String),
    /// The file ends inside frame `frame`, or before it starts.
    Truncated {
        /// Index of the first frame that is incomplete.
        frame: usize,
    },
    /// Frame `frame`'s body does not hash to the CRC32 in its envelope.
    Crc {
        /// Index of the damaged frame.
        frame: usize,
    },
    /// The frames disagree with the manifest: a frame count or buffer
    /// length other than the manifest's shapes imply, or trailing bytes.
    Layout(String),
    /// The manifest does not parse as a trainer, or disagrees with the
    /// header.
    Manifest(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o: {e}"),
            CheckpointError::Format(m) => write!(f, "not a checkpoint: {m}"),
            CheckpointError::Truncated { frame } => {
                write!(f, "checkpoint truncated in frame {frame}")
            }
            CheckpointError::Crc { frame } => write!(f, "checkpoint frame {frame} fails its crc"),
            CheckpointError::Layout(m) => write!(f, "checkpoint layout: {m}"),
            CheckpointError::Manifest(m) => write!(f, "checkpoint manifest: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Where a save to `path` stages the container before renaming it into
/// place: `path` with `.tmp` appended, in the same directory (so the
/// rename never crosses a filesystem).
pub fn temp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Moves a lent buffer out as its little-endian bytes, leaving it empty.
pub(crate) fn take_le_bytes(slot: BulkSlot<'_>) -> Vec<u8> {
    match slot.buf {
        BulkBuf::F32(v) => {
            let v = std::mem::take(v);
            let mut out = vec![0u8; v.len() * 4];
            for (o, x) in out.chunks_exact_mut(4).zip(&v) {
                o.copy_from_slice(&x.to_le_bytes());
            }
            out
        }
        BulkBuf::U8(v) => std::mem::take(v),
    }
}

/// Writes a container of `manifest` and `bulk` frames to `path`
/// atomically (tmp → fsync → rename → fsync the directory). On error the
/// staged file is removed and whatever was at `path` is untouched.
pub(crate) fn write(
    path: &Path,
    step: u64,
    manifest: &[u8],
    bulk: &[Vec<u8>],
) -> Result<(), CheckpointError> {
    let frames = u32::try_from(1 + bulk.len())
        .map_err(|_| CheckpointError::Layout("too many bulk buffers".into()))?;
    let mut frame0 = Vec::with_capacity(HEADER_BYTES + manifest.len());
    frame0.extend_from_slice(&MAGIC);
    frame0.extend_from_slice(&VERSION.to_le_bytes());
    frame0.extend_from_slice(&step.to_le_bytes());
    frame0.extend_from_slice(&frames.to_le_bytes());
    frame0.extend_from_slice(manifest);
    let bodies = std::iter::once(&frame0).chain(bulk);
    if let Some(big) = bodies.clone().find(|b| b.len() > STREAM_MAX_FRAME_BYTES) {
        return Err(CheckpointError::Layout(format!(
            "a {}-byte buffer exceeds the frame bound",
            big.len()
        )));
    }
    let tmp = temp_path(path);
    let staged = (|| {
        let mut file = File::create(&tmp)?;
        for body in bodies {
            file.write_all(&stream_envelope(body))?;
            file.write_all(body)?;
        }
        file.sync_all()
    })();
    if let Err(e) = staged {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    // Make the rename itself durable.
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// A verified frame 0 plus a cursor over the bulk frames of a container
/// held in memory.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
    /// Index of the next frame to read.
    frame: usize,
    /// Step the header records.
    pub step: u64,
    /// Frame count the header records (frame 0 included).
    pub frames: u32,
    /// The manifest JSON.
    pub manifest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Checks the magic, verifies frame 0 and parses its header.
    pub fn open(bytes: &'a [u8]) -> Result<Self, CheckpointError> {
        // Judge the magic before the envelope, so a file that is not a
        // checkpoint at all reads as one rather than as damage.
        match bytes.get(STREAM_ENVELOPE_BYTES..STREAM_ENVELOPE_BYTES + MAGIC.len()) {
            None => return Err(CheckpointError::Truncated { frame: 0 }),
            Some(m) if m != MAGIC => {
                return Err(CheckpointError::Format(format!(
                    "magic {m:02x?} is not {MAGIC:02x?}"
                )))
            }
            Some(_) => {}
        }
        let mut r = Reader {
            bytes,
            at: 0,
            frame: 0,
            step: 0,
            frames: 0,
            manifest: &[],
        };
        let body = r.next_frame()?;
        if body.len() < HEADER_BYTES {
            return Err(CheckpointError::Format(format!(
                "frame 0 holds {} bytes, shorter than the {HEADER_BYTES}-byte header",
                body.len()
            )));
        }
        let word = |at: usize| u32::from_le_bytes(body[at..at + 4].try_into().expect("4 bytes"));
        let version = word(8);
        if version != VERSION {
            return Err(CheckpointError::Format(format!(
                "version {version}, this build reads version {VERSION}"
            )));
        }
        r.step = u64::from_le_bytes(body[12..20].try_into().expect("8 bytes"));
        r.frames = word(20);
        r.manifest = &body[HEADER_BYTES..];
        r.walk()?;
        Ok(r)
    }

    /// Walks the envelopes of the declared bulk frames without hashing
    /// them: a file cut short fails here, naming the first frame it cannot
    /// hold, and bytes past the last declared frame are a layout error —
    /// before any bulk byte is hashed, parsed or allocated for.
    fn walk(&self) -> Result<(), CheckpointError> {
        let mut at = self.at;
        for frame in 1..self.frames as usize {
            let rest = self.bytes.len() - at;
            let len = self
                .bytes
                .get(at..at + STREAM_PREFIX_BYTES)
                .map(|p| u32::from_le_bytes(p.try_into().expect("4 bytes")) as usize);
            match len {
                Some(len)
                    if rest >= STREAM_ENVELOPE_BYTES && rest - STREAM_ENVELOPE_BYTES >= len =>
                {
                    at += STREAM_ENVELOPE_BYTES + len;
                }
                _ => return Err(CheckpointError::Truncated { frame }),
            }
        }
        let rest = self.bytes.len() - at;
        if rest > 0 {
            return Err(CheckpointError::Layout(format!(
                "{rest} bytes follow the {} declared frames",
                self.frames
            )));
        }
        Ok(())
    }

    /// The next frame's verified body.
    fn next_frame(&mut self) -> Result<&'a [u8], CheckpointError> {
        let frame = self.frame;
        match split_stream_frame(&self.bytes[self.at..]) {
            Ok((body, used)) => {
                self.at += used;
                self.frame += 1;
                Ok(body)
            }
            Err(StreamError::Crc { .. }) => Err(CheckpointError::Crc { frame }),
            // A length past the end of the file — however large — is a
            // frame the file cannot hold.
            Err(StreamError::Truncated { .. } | StreamError::Oversize { .. }) => {
                Err(CheckpointError::Truncated { frame })
            }
        }
    }

    /// Fills a hollow buffer from the next frame, whose length must be
    /// exactly the slot's shape-implied length.
    pub fn fill(&mut self, slot: BulkSlot<'_>) -> Result<(), CheckpointError> {
        let frame = self.frame;
        let want = slot.len.and_then(|n| n.checked_mul(slot.elem_bytes()));
        let body = self.next_frame()?;
        if want != Some(body.len()) {
            return Err(CheckpointError::Layout(format!(
                "frame {frame} holds {} bytes, the manifest implies {}",
                body.len(),
                want.map_or("an invalid shape".into(), |n| format!("{n}"))
            )));
        }
        match slot.buf {
            BulkBuf::F32(v) => {
                v.clear();
                v.extend(
                    body.chunks_exact(4)
                        .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes"))),
                );
            }
            BulkBuf::U8(v) => {
                v.clear();
                v.extend_from_slice(body);
            }
        }
        Ok(())
    }
}
