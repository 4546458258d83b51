//! Seeded fault injection against the binary trainer checkpoint.
//!
//! A checkpoint on disk can be cut short by a crash or a full disk, have
//! bytes flipped by bad media, or be a file of another format entirely.
//! These checks damage a real checkpoint — the shape the `fp4-resume`
//! benchmark resumes: hidden 256, two blocks, uniform FP4, packed-FP8
//! AdamW moments — and pin the loader's contract from the
//! `snip_core::checkpoint` docs:
//!
//! 1. **Typed failure, never `Ok`, never a panic** — a truncation at every
//!    frame boundary ±1 and at seeded offsets is `Truncated` naming the
//!    frame it cuts; a seeded byte flip is `Crc` naming the damaged frame
//!    (`Format` when it lands in the magic; a lying length prefix instead
//!    fails the envelope walk that runs before any hashing); a wrong magic
//!    or version is `Format`; frames that disagree with the manifest are
//!    `Layout`; a manifest that does not parse is `Manifest`.
//! 2. **Atomic saves** — a save that fails returns `Io` and leaves the
//!    previous checkpoint loadable, bit-exact.
//!
//! As in the transport chaos harness, every draw is a splitmix64 hash of
//! a fixed seed and a counter, so a failing case replays exactly, and
//! every check self-times.

use snip_core::checkpoint::{temp_path, HEADER_BYTES, MAGIC, VERSION};
use snip_core::{CheckpointError, Scheme, Trainer, TrainerConfig};
use snip_nn::ModelConfig;
use snip_optim::{AdamWConfig, LrSchedule, MomentPrecision};
use snip_quant::{split_stream_frame, stream_frame, Precision, STREAM_ENVELOPE_BYTES};
use std::fs::OpenOptions;
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Seeded truncation offsets and byte flips per run.
const SEEDED_CASES: u64 = 48;
const SEED: u64 = 0xC4EC_4B01;

/// splitmix64 finalizer over `(seed, index)`.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs one check under a wall-clock budget.
fn timed(name: &str, budget: Duration, f: impl FnOnce()) {
    let start = Instant::now();
    f();
    let elapsed = start.elapsed();
    assert!(
        elapsed < budget,
        "{name}: took {elapsed:?}, budget {budget:?}"
    );
    println!("ok - {name} ({elapsed:?})");
}

/// The `fp4-resume` benchmark's trainer: BF16 steps, then uniform FP4,
/// with packed-FP8 moments, so every kind of bulk buffer is populated.
fn fp4_resume_trainer() -> Trainer {
    let cfg = TrainerConfig {
        model: ModelConfig {
            name: "fp4-resume-w256".into(),
            vocab_size: 512,
            hidden: 256,
            n_layers: 2,
            n_heads: 4,
            ffn_hidden: 704,
            max_seq: 128,
            rope_theta: 10_000.0,
            quant_group: 128,
        },
        adamw: AdamWConfig {
            lr: 1e-3,
            moments: MomentPrecision::PackedFp8,
            ..Default::default()
        },
        schedule: LrSchedule::Constant { lr: 1e-3 },
        batch_size: 2,
        seq_len: 128,
        grad_clip: Some(1.0),
        data_seed: 11,
        init_seed: 12,
        language: Default::default(),
    };
    let mut t = Trainer::new(cfg).expect("valid config");
    let _ = t.train_step();
    let n = t.config().model.n_linear_layers();
    t.apply_scheme(&Scheme::uniform(Precision::Fp4, n));
    let _ = t.train_step();
    t
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snip_ckpt_faults_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

/// Byte offset where each frame starts, plus the file length at the end.
fn frame_starts(bytes: &[u8]) -> Vec<usize> {
    let mut starts = vec![0];
    let mut at = 0;
    while at < bytes.len() {
        let (_, used) = split_stream_frame(&bytes[at..]).expect("intact checkpoint");
        at += used;
        starts.push(at);
    }
    starts
}

/// Index of the frame containing byte `offset` (a cut exactly at a frame
/// start leaves that frame missing, so it is the one named).
fn frame_of(starts: &[usize], offset: usize) -> usize {
    starts
        .iter()
        .rposition(|&s| s <= offset)
        .expect("offset 0 starts frame 0")
}

/// The checkpoint every check damages, saved once per test binary.
fn reference() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let dir = test_dir("reference");
        let path = dir.join("trainer.ckpt");
        fp4_resume_trainer().save(&path).expect("save");
        let bytes = std::fs::read(&path).expect("read back");
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    })
}

/// A private copy of the reference checkpoint and its frame map.
struct Saved {
    dir: PathBuf,
    path: PathBuf,
    bytes: &'static [u8],
    starts: Vec<usize>,
}

fn saved(name: &str) -> Saved {
    let dir = test_dir(name);
    let path = dir.join("trainer.ckpt");
    let bytes = reference();
    std::fs::write(&path, bytes).expect("copy the reference");
    Saved {
        dir,
        path,
        bytes,
        starts: frame_starts(bytes),
    }
}

/// A typed error the loader must return.
#[derive(Debug, PartialEq)]
enum Want {
    Format,
    Truncated(usize),
    Crc(usize),
    Layout,
    Manifest,
}

impl Want {
    fn matches(&self, e: &CheckpointError) -> bool {
        match (self, e) {
            (Want::Format, CheckpointError::Format(_))
            | (Want::Layout, CheckpointError::Layout(_))
            | (Want::Manifest, CheckpointError::Manifest(_)) => true,
            (Want::Truncated(f), CheckpointError::Truncated { frame }) => f == frame,
            (Want::Crc(f), CheckpointError::Crc { frame }) => f == frame,
            _ => false,
        }
    }
}

/// Loads `path`, which must fail exactly as `want` says — not `Ok`, not
/// another error, not a panic.
fn expect_err(path: &Path, case: &str, want: Want) {
    match std::panic::catch_unwind(|| Trainer::load(path)) {
        Err(_) => panic!("{case}: load panicked"),
        Ok(Ok(_)) => panic!("{case}: damaged checkpoint loaded Ok"),
        Ok(Err(e)) => assert!(want.matches(&e), "{case}: want {want:?}, got {e:?}"),
    }
}

#[test]
fn truncation_at_every_frame_boundary_and_seeded_offsets_is_typed() {
    let s = saved("truncate");
    let len = s.bytes.len();
    // Frame 0, every parameter's value and grad, four packed-moment
    // buffers per parameter.
    assert!(s.starts.len() > 100, "{} frames", s.starts.len() - 1);
    let mut cuts: Vec<usize> = s
        .starts
        .iter()
        .flat_map(|&b| [b.saturating_sub(1), b, b + 1])
        .chain((0..SEEDED_CASES).map(|i| (mix(SEED, i) % len as u64) as usize))
        .filter(|&c| c < len)
        .collect();
    // Shrink one copy in place, longest cut first: no rewrite per case.
    cuts.sort_unstable_by(|a, b| b.cmp(a));
    cuts.dedup();
    timed("truncation sweep", Duration::from_secs(120), || {
        let file = OpenOptions::new().write(true).open(&s.path).unwrap();
        for &cut in &cuts {
            file.set_len(cut as u64).unwrap();
            let want = Want::Truncated(frame_of(&s.starts, cut));
            expect_err(&s.path, &format!("cut at byte {cut} of {len}"), want);
        }
    });
    println!("{} truncation cases", cuts.len());
    let _ = std::fs::remove_dir_all(&s.dir);
}

/// What the loader must report for `damaged`, the reference with the byte
/// at `at` flipped.
fn flip_outcome(s: &Saved, damaged: &[u8], at: usize) -> Want {
    let frame = frame_of(&s.starts, at);
    let rel = at - s.starts[frame];
    let magic = STREAM_ENVELOPE_BYTES..STREAM_ENVELOPE_BYTES + MAGIC.len();
    if magic.contains(&at) {
        return Want::Format;
    }
    if rel >= 4 {
        // Body or CRC field: the frame fails its checksum.
        return Want::Crc(frame);
    }
    let prefix =
        |pos: usize| u32::from_le_bytes(damaged[pos..pos + 4].try_into().unwrap()) as usize;
    let len = damaged.len();
    if frame == 0 {
        return if STREAM_ENVELOPE_BYTES + prefix(0) > len {
            Want::Truncated(0)
        } else {
            Want::Crc(0)
        };
    }
    // A bulk frame's length prefix lies: the envelope walk (which runs
    // before any hashing) meets the first declared frame that no longer
    // fits, or bytes left over after the last one; only a lie the walk
    // cannot see reaches that frame's CRC.
    let mut pos = s.starts[1];
    for f in 1..s.starts.len() - 1 {
        if len - pos < STREAM_ENVELOPE_BYTES || len - pos - STREAM_ENVELOPE_BYTES < prefix(pos) {
            return Want::Truncated(f);
        }
        pos += STREAM_ENVELOPE_BYTES + prefix(pos);
    }
    if pos != len {
        return Want::Layout;
    }
    Want::Crc(frame)
}

#[test]
fn seeded_byte_flips_are_typed() {
    let s = saved("flip");
    let len = s.bytes.len();
    let mut prefix_flips = 0;
    timed("byte-flip sweep", Duration::from_secs(120), || {
        let mut file = OpenOptions::new().write(true).open(&s.path).unwrap();
        let mut damaged = s.bytes.to_vec();
        for i in 0..SEEDED_CASES {
            let draw = mix(SEED ^ 0xF11F, i);
            // The first draws hit frame 0 (envelope, magic, header,
            // manifest), the next ones a bulk frame's length prefix, the
            // rest anywhere in the file.
            let at = match i {
                0..=7 => (draw % s.starts[1] as u64) as usize,
                8..=11 => {
                    let f = 1 + (draw % (s.starts.len() - 2) as u64) as usize;
                    s.starts[f] + (draw >> 32) as usize % 4
                }
                _ => (draw % len as u64) as usize,
            };
            let mask = (draw >> 56) as u8 | 1;
            damaged[at] ^= mask;
            let want = flip_outcome(&s, &damaged, at);
            let frame = frame_of(&s.starts, at);
            prefix_flips += usize::from(at - s.starts[frame] < 4);
            file.seek(SeekFrom::Start(at as u64)).unwrap();
            file.write_all(&damaged[at..=at]).unwrap();
            let case = format!("flip {mask:#04x} at byte {at} (frame {frame})");
            expect_err(&s.path, &case, want);
            damaged[at] ^= mask;
            file.seek(SeekFrom::Start(at as u64)).unwrap();
            file.write_all(&damaged[at..=at]).unwrap();
        }
    });
    assert!(prefix_flips >= 4, "the sweep must exercise length prefixes");
    // Every flip was undone: the file loads again.
    Trainer::load(&s.path).expect("restored file loads");
    let _ = std::fs::remove_dir_all(&s.dir);
}

/// The reference with frame 0 rebuilt (with a valid CRC) from `edit`
/// applied to its body.
fn with_frame0(s: &Saved, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let (body, used) = split_stream_frame(s.bytes).unwrap();
    let mut body = body.to_vec();
    edit(&mut body);
    let mut out = stream_frame(&body);
    out.extend_from_slice(&s.bytes[used..]);
    out
}

#[test]
fn well_framed_but_wrong_files_are_typed() {
    let s = saved("wrong");
    let probe = s.dir.join("probe.ckpt");
    let check = |bytes: &[u8], case: &str, want: Want| {
        std::fs::write(&probe, bytes).unwrap();
        expect_err(&probe, case, want);
    };
    let frames = (s.starts.len() - 1) as u32;
    let set_frames = |n: u32| move |b: &mut Vec<u8>| b[20..24].copy_from_slice(&n.to_le_bytes());
    timed("wrong-file cases", Duration::from_secs(120), || {
        // Format: the JSON checkpoints older builds wrote, a foreign
        // magic, a future version, a header cut short.
        let mut tiny = Trainer::new(TrainerConfig::tiny()).unwrap();
        let _ = tiny.train(2);
        check(
            &serde_json::to_vec(&tiny).unwrap(),
            "JSON checkpoint",
            Want::Format,
        );
        check(
            &stream_frame(b"NOTACKPT....0000"),
            "foreign magic",
            Want::Format,
        );
        let v2 = with_frame0(&s, |b| {
            b[8..12].copy_from_slice(&(VERSION + 1).to_le_bytes())
        });
        check(&v2, "next version", Want::Format);
        let short = with_frame0(&s, |b| b.truncate(HEADER_BYTES - 1));
        check(&short, "frame 0 shorter than the header", Want::Format);

        // A header promising a frame the file lacks reads as a cut.
        let more = with_frame0(&s, set_frames(frames + 1));
        check(&more, "frame count + 1", Want::Truncated(frames as usize));

        // Layout: bytes or frames past the declared ones, a frame count
        // the manifest does not imply, a bulk frame of the wrong length.
        let fewer = with_frame0(&s, set_frames(frames - 1));
        check(&fewer, "frame count - 1", Want::Layout);
        let mut trailing = s.bytes.to_vec();
        trailing.extend_from_slice(&[0, 0, 0]);
        check(&trailing, "trailing bytes", Want::Layout);
        let mut extra = s.bytes.to_vec();
        extra.extend_from_slice(&stream_frame(&[1, 2, 3, 4]));
        check(&extra, "trailing frame", Want::Layout);
        let last = *s.starts.iter().rev().nth(1).unwrap();
        let mut dropped = with_frame0(&s, set_frames(frames - 1));
        dropped.truncate(dropped.len() - (s.bytes.len() - last));
        check(&dropped, "last frame dropped, count adjusted", Want::Layout);
        // Frames 1 and 2 are the embedding's value and grad (same length);
        // frame 3 is the first norm gain, a different length.
        let mut swapped = s.bytes[..s.starts[1]].to_vec();
        swapped.extend_from_slice(&s.bytes[s.starts[3]..s.starts[4]]);
        swapped.extend_from_slice(&s.bytes[s.starts[2]..s.starts[3]]);
        swapped.extend_from_slice(&s.bytes[s.starts[1]..s.starts[2]]);
        swapped.extend_from_slice(&s.bytes[s.starts[4]..]);
        check(&swapped, "frames reordered", Want::Layout);

        // Manifest: a cut manifest, and a header step the manifest
        // contradicts.
        let cut = with_frame0(&s, |b| {
            let keep = HEADER_BYTES + (b.len() - HEADER_BYTES) / 2;
            b.truncate(keep)
        });
        check(&cut, "half a manifest", Want::Manifest);
        let step = with_frame0(&s, |b| b[12..20].copy_from_slice(&99u64.to_le_bytes()));
        check(&step, "header step disagrees", Want::Manifest);
    });
    let _ = std::fs::remove_dir_all(&s.dir);
}

#[test]
fn failed_save_returns_io_and_keeps_the_previous_checkpoint() {
    let s = saved("atomic");
    let path = &s.path;
    let resaved = s.dir.join("resaved.ckpt");
    timed("failed save", Duration::from_secs(120), || {
        let mut t = Trainer::load(path).expect("reference loads");
        let _ = t.train_step();
        // A directory squatting on the staging path makes the next save
        // fail before a byte reaches `path`.
        std::fs::create_dir(temp_path(path)).unwrap();
        match t.save(path) {
            Err(CheckpointError::Io(_)) => {}
            other => panic!("save onto a blocked staging path: want Io, got {other:?}"),
        }
        assert!(
            std::fs::read(path).unwrap() == s.bytes,
            "previous checkpoint bytes changed"
        );
        // Still loadable, bit-exact: saving the loaded state reproduces
        // the previous checkpoint byte for byte.
        let back = Trainer::load(path).expect("previous checkpoint still loads");
        back.save(&resaved).unwrap();
        assert!(
            std::fs::read(&resaved).unwrap() == s.bytes,
            "previous checkpoint no longer bit-exact"
        );
        // Once the path is clear, saving works again.
        std::fs::remove_dir(temp_path(path)).unwrap();
        t.save(path).expect("save after unblocking");
        assert_eq!(Trainer::load(path).unwrap().step_count(), t.step_count());
        assert!(!temp_path(path).exists(), "staging file left behind");
    });
    let _ = std::fs::remove_dir_all(&s.dir);
}
