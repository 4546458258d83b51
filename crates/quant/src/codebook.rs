//! Codebooks: the bridge between number formats and packed storage.
//!
//! A subbyte format has at most 2⁸ representable values, so a packed tensor
//! stores each element as an index — a **code** — into the format's value
//! table. Codes are sign-magnitude: the top bit of the code space is the
//! sign, the low bits index the sorted non-negative value list. Code 0 is
//! always +0, so zero-initialized packed storage decodes to zero.
//!
//! ```text
//!   FP4 E2M1 (CodeWidth::U4):
//!     code  0..=7  → {0, 0.5, 1, 1.5, 2, 3, 4, 6}
//!     code  8..=15 → {-0, -0.5, -1, -1.5, -2, -3, -4, -6}
//!   FP8 / INT8 (CodeWidth::U8): same shape with a 128-entry half.
//! ```
//!
//! [`Codebook::encode`] maps a value that is *already on the format grid*
//! (the output of `quantize_nearest`/`quantize_stochastic`) to its code;
//! the decode table it emits reproduces that value bit-for-bit, which is
//! what makes the packed pipeline exactly equivalent to fake quantization.

use crate::format::{FloatFormat, FormatKind};
use crate::granularity::{self, Granularity};
use crate::int::IntFormat;
use snip_tensor::rng::Rng;
use snip_tensor::{CodeWidth, QTensor, Tensor};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

#[cfg(target_arch = "x86_64")]
mod simd_x86_512;
#[cfg(target_arch = "x86_64")]
pub(crate) use simd_x86_512::Avx512;

/// No AVX-512 on this architecture: [`Avx512::active`] never yields a
/// token, so the kernel entry points are unreachable.
#[cfg(not(target_arch = "x86_64"))]
#[derive(Clone, Copy, Debug)]
pub(crate) enum Avx512 {}

#[cfg(not(target_arch = "x86_64"))]
impl Avx512 {
    pub(crate) fn active() -> Option<Avx512> {
        None
    }

    pub(crate) fn max_abs(self, _: &[f32], _: f32) -> f32 {
        match self {}
    }

    pub(crate) fn threshold_u4(
        self,
        _: &[f32],
        _: f32,
        _: &[u32; 8],
        _: bool,
        _: u8,
        _: &mut [u8],
    ) -> usize {
        match self {}
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn float_codes(
        self,
        _: &[f32],
        _: Option<&[f32]>,
        _: f32,
        _: FloatFormat,
        _: u8,
        _: u8,
        _: CodeWidth,
        _: &mut [u8],
    ) -> usize {
        match self {}
    }
}

/// Identity of a decode table in the shared per-format registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum LutKey {
    Float(FormatKind),
    Int(u32),
}

/// Decode tables, one per format, shared by every tensor of that format.
static LUT_REGISTRY: OnceLock<Mutex<HashMap<LutKey, Arc<[f32]>>>> = OnceLock::new();

/// Direct-map encode tables (bits → code), one per format, shared like the
/// decode tables.
static ENC_REGISTRY: OnceLock<Mutex<HashMap<LutKey, Arc<[u8]>>>> = OnceLock::new();

/// Fused nearest-rounding threshold tables, one per format, shared like the
/// decode tables.
static NEAREST_REGISTRY: OnceLock<Mutex<HashMap<LutKey, Arc<NearestTable>>>> = OnceLock::new();

/// Byte → value-pair decode tables for 4-bit formats (two decoded elements
/// per packed byte; see [`QTensor::pair_table`]), one per format, shared
/// like the decode tables.
static PAIR_REGISTRY: OnceLock<Mutex<HashMap<LutKey, Arc<[f32]>>>> = OnceLock::new();

/// Precomputed rounding boundaries for the fused nearest-quantize+encode
/// path: `thresholds[i]` is the f32 bit pattern above (or at) which a
/// scaled magnitude rounds to non-negative value `i + 1` rather than `i`.
/// Positive-float bit patterns order like the floats themselves, so the hot
/// loop is pure integer compares.
#[derive(Debug)]
struct NearestTable {
    thresholds: Vec<u32>,
    /// Whether the format's rounding preserves the sign of an exact ±0
    /// input (integer grids do; the float formats collapse −0.0 to +0.0).
    signed_zero: bool,
}

/// Sentinel in the encode table for keys no grid value occupies. Valid
/// magnitude indices are `< 128`, so `0xFF` can never collide with one.
const ENC_EMPTY: u8 = u8::MAX;

/// A sign-magnitude code table for one subbyte format.
#[derive(Clone, Debug, PartialEq)]
pub struct Codebook {
    /// Non-negative representable values, ascending, starting at 0.
    nonneg: Vec<f32>,
    width: CodeWidth,
    key: LutKey,
    /// Right-shift applied to a value's f32 bit pattern to form its encode
    /// key: keeps the exponent and exactly the mantissa bits any grid value
    /// uses, so distinct grid values get distinct keys.
    enc_shift: u32,
    /// Direct map from shifted magnitude bits to the non-negative value
    /// index ([`ENC_EMPTY`] where no grid value lands). Interned per format.
    enc_table: Arc<[u8]>,
}

impl Codebook {
    /// Builds the codebook of a floating-point format, or `None` if the
    /// format is wider than 8 bits (BF16 is not packable).
    pub fn for_float(fmt: FloatFormat) -> Option<Codebook> {
        if fmt.bits() > 8 {
            return None;
        }
        Some(Codebook::from_nonneg(
            fmt.enumerate_non_negative(),
            LutKey::Float(fmt.kind()),
        ))
    }

    /// Builds the codebook of a symmetric integer format, or `None` if the
    /// format is wider than 8 bits.
    pub fn for_int(fmt: IntFormat) -> Option<Codebook> {
        if fmt.bits() > 8 {
            return None;
        }
        let qmax = fmt.qmax() as i64;
        Some(Codebook::from_nonneg(
            (0..=qmax).map(|i| i as f32).collect(),
            LutKey::Int(fmt.bits()),
        ))
    }

    fn from_nonneg(nonneg: Vec<f32>, key: LutKey) -> Codebook {
        assert!(
            !nonneg.is_empty() && nonneg[0] == 0.0,
            "table must start at 0"
        );
        assert!(
            nonneg.windows(2).all(|w| w[0] < w[1]),
            "table must be strictly ascending"
        );
        let width = if nonneg.len() <= 8 {
            CodeWidth::U4
        } else {
            assert!(
                nonneg.len() <= 128,
                "format has {} non-negative values; codes would not fit a byte",
                nonneg.len()
            );
            CodeWidth::U8
        };
        let enc_shift = Self::enc_shift_for(&nonneg);
        let enc_table = {
            let registry = ENC_REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
            let mut map = registry.lock().expect("encode registry poisoned");
            map.entry(key)
                .or_insert_with(|| Self::build_enc_table(&nonneg, enc_shift).into())
                .clone()
        };
        Codebook {
            nonneg,
            width,
            key,
            enc_shift,
            enc_table,
        }
    }

    /// The bit-pattern shift under which every grid value keeps all of its
    /// significant mantissa bits (and its full exponent), so the shifted
    /// bits of distinct grid values are distinct.
    fn enc_shift_for(nonneg: &[f32]) -> u32 {
        let mut needed = 0u32;
        for &v in nonneg {
            let mantissa = v.to_bits() & 0x7F_FFFF;
            if mantissa != 0 {
                needed = needed.max(23 - mantissa.trailing_zeros());
            }
        }
        23 - needed
    }

    fn build_enc_table(nonneg: &[f32], shift: u32) -> Vec<u8> {
        let max_key = (nonneg.last().expect("non-empty table").to_bits() >> shift) as usize;
        let mut table = vec![ENC_EMPTY; max_key + 1];
        for (i, &v) in nonneg.iter().enumerate() {
            // Zero occupies key 0 like any other grid value (no nonzero
            // value can collide: a normal float's bits shifted by ≤ 23 are
            // nonzero), so the hot encode path needs no zero special-case.
            let k = (v.to_bits() >> shift) as usize;
            debug_assert_eq!(table[k], ENC_EMPTY, "encode keys must be distinct");
            table[k] = i as u8;
        }
        table
    }

    /// The packed storage width codes of this book need.
    pub fn width(&self) -> CodeWidth {
        self.width
    }

    /// Number of distinct non-negative values (codes actually in use are
    /// `0..values()` and `half..half + values()`).
    pub fn values(&self) -> usize {
        self.nonneg.len()
    }

    /// The decode table: `lut[code] = value`. Unused codes decode to 0.
    ///
    /// Tables are interned per format, so every packed tensor of one format
    /// shares a single allocation — decode tables are format metadata and
    /// cost nothing per tensor.
    ///
    /// The table's length and layout are a contract with the SIMD decode
    /// kernels in `snip-tensor`: exactly 16 entries for 4-bit formats (the
    /// AVX2 path holds `lut[0..8]` and `lut[8..16]` in two vector registers
    /// and selects between them on code bit 3 — which is the sign bit of
    /// this sign-magnitude code space, so the split falls on the
    /// positive/negative halves) and exactly 256 for byte-wide formats
    /// (gathered directly). `build_lut`'s mirrored-halves layout is what
    /// makes the 4-bit split legal.
    pub fn lut(&self) -> Arc<[f32]> {
        let registry = LUT_REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = registry.lock().expect("lut registry poisoned");
        map.entry(self.key)
            .or_insert_with(|| self.build_lut().into())
            .clone()
    }

    /// The byte → value-pair expansion of this format's decode table (the
    /// branch-free 4-bit decode path reads it; empty for byte-wide codes).
    /// Interned per format like [`Codebook::lut`]: a pair table is format
    /// metadata, so every packed tensor of one format shares a single
    /// 2 KiB allocation.
    pub fn pair_lut(&self) -> Arc<[f32]> {
        let registry = PAIR_REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = registry.lock().expect("pair registry poisoned");
        map.entry(self.key)
            .or_insert_with(|| QTensor::pair_table(&self.lut()).into())
            .clone()
    }

    fn build_lut(&self) -> Vec<f32> {
        let len = self.width.lut_len();
        let half = len / 2;
        let mut lut = vec![0.0f32; len];
        for (i, &v) in self.nonneg.iter().enumerate() {
            lut[i] = v;
            lut[half + i] = -v;
        }
        lut
    }

    /// Quantizes `t` into packed storage: per scale group, compute
    /// `scale = grid_max / max|group|`, then write each element's code
    /// straight into the packed byte buffer. Elements are visited in
    /// [`Granularity::for_each_group`] order — the same element order (and
    /// the same stochastic-draw order) as the fake-quantization path, which
    /// is what keeps the two bit-identical.
    ///
    /// `quantize` maps an already-scaled value onto the format grid,
    /// consuming `rng` only for stochastic rounding.
    pub fn pack(
        &self,
        t: &Tensor,
        granularity: Granularity,
        grid_max: f32,
        rng: &mut Rng,
        quantize: impl Fn(f32, &mut Rng) -> f32,
    ) -> QTensor {
        self.pack_with(t, granularity, rng, Self::max_abs_scale(grid_max), quantize)
    }

    /// [`Codebook::pack`] for **stochastic rounding** of a float format
    /// under the standard max-abs scale recipe: scan, scale and SR-encode
    /// in one sweep. Where [`Codebook::pack`] quantizes each element to its
    /// grid *value* and then searches the code table
    /// (`encode(quantize_stochastic(...))`), this path computes the code
    /// index directly from the element's exponent and stochastically
    /// rounded mantissa (`FloatFormat::stochastic_code`) — no grid-value
    /// reconstruction, no encode-table lookup.
    ///
    /// The RNG contract is the oracle's exactly: **one `next_f32()` draw
    /// per element, unconditionally** (drawn before any zero/NaN/saturation
    /// short-circuit, just as the two-step path evaluates the draw as a
    /// call argument), in [`Granularity::for_each_group`] row-major-within-
    /// group order. Each row segment's draws are taken into a buffer before
    /// it is encoded, so the 16-lane AVX-512 encode (when the thread
    /// dispatches to it) reads the same draws as the scalar code function.
    /// Codes and the final RNG position are therefore bit-identical to the
    /// two-step path and to fake quantization on every backend tier
    /// (property-tested in `tests/packed_equivalence.rs` and
    /// `tests/encode_simd.rs`).
    ///
    /// `fmt` must be the float format this codebook was built from
    /// (`Codebook::for_float(fmt)`) — the index arithmetic assumes this
    /// table *is* `fmt.enumerate_non_negative()`.
    pub fn pack_stochastic(
        &self,
        t: &Tensor,
        granularity: Granularity,
        fmt: FloatFormat,
        rng: &mut Rng,
    ) -> QTensor {
        debug_assert_eq!(
            self.key,
            LutKey::Float(fmt.kind()),
            "pack_stochastic: codebook was not built from {fmt}"
        );
        let half = (self.width.lut_len() / 2) as u8;
        let top = (self.values() - 1) as u8;
        let width = self.width;
        let avx = Avx512::active();
        let mut draws = Vec::new();
        self.pack_impl(
            t,
            granularity,
            avx,
            Self::max_abs_scale(fmt.max_value()),
            |seg, cstart, s, out| {
                // The segment's draws, in element order, before any encode:
                // whichever kernel encodes, the stream advances exactly as
                // the oracle's one-draw-per-element walk does.
                draws.clear();
                draws.extend(seg.iter().map(|_| rng.next_f32()));
                encode_seg(
                    width,
                    seg,
                    cstart,
                    out,
                    |i, o| {
                        avx.map_or(0, |k| {
                            k.float_codes(&seg[i..], Some(&draws[i..]), s, fmt, half, top, width, o)
                        })
                    },
                    &mut |i, v| fmt.stochastic_code(v * s, draws[i], half, top),
                )
            },
        )
    }

    /// [`Codebook::pack_nearest`] specialized to the float format this
    /// codebook was built from. Byte-wide formats (FP8-class, 127 rounding
    /// boundaries) skip the threshold table's per-element binary search and
    /// compute the code arithmetically from the element's exponent
    /// (`FloatFormat::nearest_code`), exactly like the stochastic path;
    /// subbyte formats keep the threshold count (≤ 8 boundaries). Both run
    /// as scalar code at the SSE2 baseline (~7.5 ns per element) and as
    /// 16-lane kernels when the thread dispatches to AVX-512.
    /// Bit-identical to `encode(quantize_nearest(..))` either way (pinned
    /// by the packed ↔ fake equivalence suites and, per backend tier, by
    /// `tests/encode_simd.rs`).
    pub fn pack_nearest_float(
        &self,
        t: &Tensor,
        granularity: Granularity,
        fmt: FloatFormat,
    ) -> QTensor {
        debug_assert_eq!(
            self.key,
            LutKey::Float(fmt.kind()),
            "pack_nearest_float: codebook was not built from {fmt}"
        );
        match self.width {
            CodeWidth::U4 => self.pack_nearest(t, granularity, fmt.max_value(), |scaled| {
                fmt.quantize_nearest(scaled)
            }),
            width @ CodeWidth::U8 => {
                let half = (width.lut_len() / 2) as u8;
                let top = (self.values() - 1) as u8;
                let avx = Avx512::active();
                self.pack_impl(
                    t,
                    granularity,
                    avx,
                    Self::max_abs_scale(fmt.max_value()),
                    |seg, cstart, s, out| {
                        encode_seg(
                            width,
                            seg,
                            cstart,
                            out,
                            |i, o| {
                                avx.map_or(0, |k| {
                                    k.float_codes(&seg[i..], None, s, fmt, half, top, width, o)
                                })
                            },
                            &mut |_, v| fmt.nearest_code(v * s, half, top),
                        )
                    },
                )
            }
        }
    }

    /// [`Codebook::pack`] for **nearest rounding** under the standard
    /// max-abs scale recipe: the fused quantize+encode fast path of
    /// [`Codebook::pack_nearest_with`], no RNG needed.
    pub fn pack_nearest(
        &self,
        t: &Tensor,
        granularity: Granularity,
        grid_max: f32,
        quantize: impl Fn(f32) -> f32,
    ) -> QTensor {
        self.pack_nearest_with(t, granularity, Self::max_abs_scale(grid_max), quantize)
    }

    /// The one definition of the standard max-abs scale recipe:
    /// `scale = grid_max / max|group|` to encode, its reciprocal to decode
    /// — shared by every packing entry point so the expression cannot
    /// drift between quantizers.
    fn max_abs_scale(grid_max: f32) -> impl Fn(f32) -> (f32, f32) {
        move |max_abs| {
            let scale = Granularity::group_scale(grid_max, max_abs);
            (scale, 1.0 / scale)
        }
    }

    /// [`Codebook::pack`] with caller-supplied scaling: `scale_of` maps a
    /// group's max-abs to `(encode_multiplier, decode_multiplier)`. The
    /// standard max-abs recipe uses `(scale, 1/scale)`; MX-style quantizers
    /// use `(1/s, s)` with a power-of-two `s` so the *decode* side is the
    /// exact E8M0 scale. Both multipliers must reproduce the corresponding
    /// fake-quantization expressions bit-for-bit.
    ///
    /// The group-max scan and the code encode are fused per tile: both
    /// work on the tile's contiguous row segments as slices, so the scan
    /// reads each segment once from memory (bounds-check-free iteration)
    /// and the encode immediately re-reads it cache-hot, writing 4-bit
    /// codes **pairwise** — one whole-byte store per two elements instead
    /// of a read-modify-write per nibble. Element order (and therefore
    /// stochastic-draw order) is unchanged — row-major within each group —
    /// so the fake-quant bit-identity contract is untouched. `quantize` is
    /// an arbitrary closure, so this path always encodes with scalar code.
    pub fn pack_with(
        &self,
        t: &Tensor,
        granularity: Granularity,
        rng: &mut Rng,
        scale_of: impl Fn(f32) -> (f32, f32),
        quantize: impl Fn(f32, &mut Rng) -> f32,
    ) -> QTensor {
        let width = self.width;
        let avx = Avx512::active();
        self.pack_impl(t, granularity, avx, scale_of, |seg, cstart, s, out| {
            encode_seg(width, seg, cstart, out, |_, _| 0, &mut |_, v| {
                self.encode(quantize(v * s, rng))
            })
        })
    }

    /// The deterministic fast path: [`Codebook::pack_with`] for **nearest
    /// rounding**, with the quantize→encode pair fused into one integer
    /// threshold count per element. `quantize` is the format's
    /// round-to-nearest function (scaled value → grid value); it is probed
    /// once per format to build an interned table of rounding-boundary bit
    /// patterns (each adjacent-value midpoint, nudged by one ULP when the
    /// format rounds that tie downward), and the hot loop never calls it —
    /// an element's code is `sign + #(thresholds ≤ |bits|)`, no division,
    /// no float compare, no grid-value table lookup. Bit-identical to the
    /// `quantize`+`encode` composition by construction (nearest rounding to
    /// a finite grid is monotone with midpoint boundaries), which the
    /// format × granularity equivalence property tests pin.
    ///
    /// The probe must depend only on this codebook's format (thresholds are
    /// interned per format, like the decode tables).
    pub fn pack_nearest_with(
        &self,
        t: &Tensor,
        granularity: Granularity,
        scale_of: impl Fn(f32) -> (f32, f32),
        quantize: impl Fn(f32) -> f32,
    ) -> QTensor {
        let table = self.nearest_table(&quantize);
        let width = self.width;
        let half = (width.lut_len() / 2) as u8;
        let avx = Avx512::active();
        // The vector count runs on 4-bit tables (≤ 7 boundaries, padded to
        // 8 with boundaries no magnitude reaches); byte-wide tables keep
        // the scalar binary search.
        let vector = avx.filter(|_| width == CodeWidth::U4).map(|k| {
            let mut th = [u32::MAX; 8];
            th[..table.thresholds.len()].copy_from_slice(&table.thresholds);
            (k, th)
        });
        self.pack_impl(t, granularity, avx, scale_of, |seg, cstart, s, out| {
            encode_seg(
                width,
                seg,
                cstart,
                out,
                |i, o| {
                    vector.as_ref().map_or(0, |(k, th)| {
                        k.threshold_u4(&seg[i..], s, th, table.signed_zero, half, o)
                    })
                },
                &mut |_, v| Self::nearest_code((v * s).to_bits(), half, &table),
            )
        })
    }

    /// The one group walk of every packing path: per scale group, scan the
    /// group's contiguous row segments for the max-abs
    /// ([`granularity::group_max_abs_of`]), derive the scales, then hand
    /// each row segment to `encode_seg(seg, cstart, enc_scale, row)`, which
    /// writes the segment's codes into `row`, its row of packed storage —
    /// the scan and encode are fused per tile, so a tile is read from
    /// memory once and re-read cache-hot. Segments are visited row-major
    /// within each group, the same order (and the same stochastic-draw
    /// order) as fake quantization.
    fn pack_impl(
        &self,
        t: &Tensor,
        granularity: Granularity,
        avx: Option<Avx512>,
        scale_of: impl Fn(f32) -> (f32, f32),
        mut encode_seg: impl FnMut(&[f32], usize, f32, &mut [u8]),
    ) -> QTensor {
        let (rows, cols) = t.shape();
        let layout = granularity.layout();
        let width = self.width();
        let row_bytes = width.row_bytes(cols);
        let mut data = vec![0u8; rows * row_bytes];
        let mut scales = Vec::with_capacity(layout.group_count(rows, cols));
        granularity.for_each_group(rows, cols, |rr, cr| {
            let max_abs = granularity::group_max_abs_of(t, rr.clone(), cr.clone(), avx);
            let (enc_scale, dec_scale) = scale_of(max_abs);
            scales.push(dec_scale);
            for r in rr {
                let out = &mut data[r * row_bytes..(r + 1) * row_bytes];
                encode_seg(&t.row(r)[cr.clone()], cr.start, enc_scale, out);
            }
        });
        QTensor::from_parts_with_pair(
            rows,
            cols,
            width,
            self.lut(),
            self.pair_lut(),
            layout,
            scales,
            data,
        )
    }

    /// The interned threshold table for this format's nearest rounding,
    /// built (once) by probing `quantize` at each adjacent-value midpoint.
    fn nearest_table(&self, quantize: &impl Fn(f32) -> f32) -> Arc<NearestTable> {
        let registry = NEAREST_REGISTRY.get_or_init(|| Mutex::new(HashMap::new()));
        let mut map = registry.lock().expect("nearest registry poisoned");
        map.entry(self.key)
            .or_insert_with(|| {
                let mut thresholds = Vec::with_capacity(self.nonneg.len().saturating_sub(1));
                for w in self.nonneg.windows(2) {
                    // Adjacent grid values are multiples of one shared
                    // quantum, so their midpoint is exact in f32.
                    let m = (w[0] + w[1]) / 2.0;
                    // Ask the format which side an exact tie rounds to; a
                    // downward tie makes the boundary strict, i.e. one ULP
                    // above the midpoint in bit-pattern space.
                    let tie_up = quantize(m).to_bits() == w[1].to_bits();
                    thresholds.push(m.to_bits() + u32::from(!tie_up));
                }
                let signed_zero = quantize(-0.0).is_sign_negative();
                Arc::new(NearestTable {
                    thresholds,
                    signed_zero,
                })
            })
            .clone()
    }

    /// The fused nearest-rounding encode: maps a scaled value's raw bits to
    /// its sign-magnitude code by counting rounding boundaries at or below
    /// its magnitude — a short count for subbyte tables (the scalar
    /// reference of the AVX-512 `threshold_u4` kernel); byte-wide tables
    /// use a short branchless binary search. NaN quantizes to +0 in every
    /// format; saturation falls out of the count (a magnitude above every
    /// boundary gets the top code).
    #[inline]
    fn nearest_code(bits: u32, half: u8, table: &NearestTable) -> u8 {
        let neg = (bits >> 31) as u8;
        let a = bits & 0x7FFF_FFFF;
        if a > 0x7F80_0000 {
            return 0; // NaN
        }
        if a == 0 {
            return if table.signed_zero { neg * half } else { 0 };
        }
        let th = &table.thresholds[..];
        let mag = if th.len() <= 8 {
            let mut mag = 0u8;
            for &t in th {
                mag += u8::from(a >= t);
            }
            mag
        } else {
            let mut lo = 0usize;
            let mut len = th.len();
            while len > 0 {
                let step = len / 2;
                let mid = lo + step;
                if a >= th[mid] {
                    lo = mid + 1;
                    len -= step + 1;
                } else {
                    len = step;
                }
            }
            lo as u8
        };
        neg * half + mag
    }

    /// Encodes a value that lies on the format grid, via the direct-map
    /// table: one shift and one load per element, with a **branchless**
    /// sign-bit fold (the per-element binary search this replaces was the
    /// packed path's encode bottleneck, and the data-dependent sign branch
    /// was the next one — gradient signs are coin flips the predictor
    /// cannot learn). Signed zeros round-trip bitwise: zero occupies key 0
    /// of the table, so `-0.0` folds to code `half` like any negative.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `q` is not a representable value; release builds
    /// fall back to the nearest table entry.
    #[inline]
    pub fn encode(&self, q: f32) -> u8 {
        let half = (self.width.lut_len() / 2) as u8;
        let bits = q.to_bits();
        let sign = ((bits >> 31) as u8) * half;
        let key = ((bits & 0x7FFF_FFFF) >> self.enc_shift) as usize;
        if let Some(&idx) = self.enc_table.get(key) {
            if idx != ENC_EMPTY {
                debug_assert_eq!(
                    self.nonneg[idx as usize].to_bits(),
                    bits & 0x7FFF_FFFF,
                    "{q} is not on the format grid"
                );
                return sign + idx;
            }
        }
        self.encode_binary_search(q)
    }

    /// The reference encode path: per-element binary search over the sorted
    /// value table. [`Codebook::encode`] must agree with it code-for-code on
    /// every grid value (property-tested); it also serves as the fallback
    /// for off-grid inputs, where it picks the nearest table entry.
    pub fn encode_binary_search(&self, q: f32) -> u8 {
        let half = (self.width.lut_len() / 2) as u8;
        let sign = if q.is_sign_negative() { half } else { 0 };
        if q == 0.0 {
            // Signed zeros round-trip bitwise: lut[half] is -0.0.
            return sign;
        }
        let a = q.abs();
        let idx = match self
            .nonneg
            .binary_search_by(|v| v.partial_cmp(&a).expect("table values are finite"))
        {
            Ok(i) => i,
            Err(i) => {
                debug_assert!(false, "{a} is not on the format grid");
                // Nearest neighbour as a safe fallback.
                if i == 0 {
                    0
                } else if i >= self.nonneg.len() {
                    self.nonneg.len() - 1
                } else if a - self.nonneg[i - 1] <= self.nonneg[i] - a {
                    i - 1
                } else {
                    i
                }
            }
        };
        sign + idx as u8
    }
}

/// Encodes one row segment of a scale group — columns `cstart..cstart +
/// seg.len()` of a row whose packed bytes are `out` — with a vector body
/// and the scalar reference around it. `body(i, bytes)` encodes a whole
/// number of 16-element chunks of `seg[i..]` (a byte-aligned column, its
/// first byte at `bytes[0]`) and returns how many elements it covered —
/// zero when no vector kernel runs. `code(i, v)`, the scalar reference
/// for element `i`, covers an odd head nibble and everything after the
/// body (through [`encode_seg_u4`] or the byte loop), in element order.
fn encode_seg(
    width: CodeWidth,
    seg: &[f32],
    cstart: usize,
    out: &mut [u8],
    body: impl FnOnce(usize, &mut [u8]) -> usize,
    code: &mut impl FnMut(usize, f32) -> u8,
) {
    // A 4-bit body must start on a byte boundary.
    let mut i = 0;
    if width == CodeWidth::U4 && cstart % 2 == 1 && !seg.is_empty() {
        out[cstart / 2] |= code(0, seg[0]) << 4;
        i = 1;
    }
    i += body(i, &mut out[width.row_bytes(cstart + i)..]);
    let mut j = i;
    let mut next = |v: f32| {
        let c = code(j, v);
        j += 1;
        c
    };
    match width {
        CodeWidth::U4 => encode_seg_u4(&seg[i..], cstart + i, out, &mut next),
        CodeWidth::U8 => {
            for (&v, o) in seg[i..].iter().zip(&mut out[cstart + i..]) {
                *o = next(v);
            }
        }
    }
}

/// Encodes one row segment of a scale group into 4-bit packed storage: an
/// optional unaligned head nibble, then two elements per whole-byte store,
/// then an optional tail nibble. Nibble ORs are only used at the (rare)
/// unaligned edges; the zeroed buffer and single visit per element keep
/// them correct across adjacent groups.
fn encode_seg_u4(seg: &[f32], cstart: usize, out: &mut [u8], enc: &mut impl FnMut(f32) -> u8) {
    let mut it = seg.iter();
    let mut byte_i = cstart / 2;
    if cstart % 2 == 1 {
        if let Some(&v) = it.next() {
            out[byte_i] |= enc(v) << 4;
            byte_i += 1;
        }
    }
    let pairs = it.as_slice().chunks_exact(2);
    let tail = pairs.remainder();
    for pair in pairs {
        let lo = enc(pair[0]);
        let hi = enc(pair[1]);
        out[byte_i] = lo | (hi << 4);
        byte_i += 1;
    }
    if let Some(&v) = tail.first() {
        out[byte_i] |= enc(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp4_codebook_is_the_mx_table() {
        let cb = Codebook::for_float(FloatFormat::e2m1()).unwrap();
        assert_eq!(cb.width(), CodeWidth::U4);
        assert_eq!(cb.values(), 8);
        let lut = cb.lut();
        assert_eq!(&lut[0..8], &[0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]);
        assert_eq!(lut[9], -0.5);
        assert_eq!(lut[15], -6.0);
    }

    #[test]
    fn fp8_codebooks_fit_a_byte() {
        for fmt in [
            FloatFormat::e4m3(),
            FloatFormat::e5m2(),
            FloatFormat::e3m4(),
        ] {
            let cb = Codebook::for_float(fmt).unwrap();
            assert_eq!(cb.width(), CodeWidth::U8, "{fmt}");
            assert!(cb.values() <= 128, "{fmt}: {}", cb.values());
        }
    }

    #[test]
    fn bf16_is_not_packable() {
        assert!(Codebook::for_float(FloatFormat::bf16()).is_none());
        assert!(Codebook::for_int(IntFormat::new(16)).is_none());
    }

    #[test]
    fn int_codebooks() {
        let cb = Codebook::for_int(IntFormat::int4()).unwrap();
        assert_eq!(cb.width(), CodeWidth::U4);
        assert_eq!(cb.values(), 8);
        let cb8 = Codebook::for_int(IntFormat::int8()).unwrap();
        assert_eq!(cb8.width(), CodeWidth::U8);
        assert_eq!(cb8.values(), 128);
    }

    #[test]
    fn encode_decode_round_trips_every_representable_value() {
        for fmt in [
            FloatFormat::e2m1(),
            FloatFormat::e4m3(),
            FloatFormat::e5m2(),
            FloatFormat::e3m4(),
        ] {
            let cb = Codebook::for_float(fmt).unwrap();
            let lut = cb.lut();
            for v in fmt.enumerate_non_negative() {
                assert_eq!(
                    lut[cb.encode(v) as usize].to_bits(),
                    v.to_bits(),
                    "{fmt}: {v}"
                );
                if v != 0.0 {
                    let n = -v;
                    assert_eq!(
                        lut[cb.encode(n) as usize].to_bits(),
                        n.to_bits(),
                        "{fmt}: {n}"
                    );
                }
            }
        }
    }

    /// The fused nearest-rounding path must agree with the two-step
    /// quantize→encode oracle on the hardest inputs: exact rounding-tie
    /// midpoints (both signs), every grid value, signed zeros, NaN and
    /// infinities. Continuous random data (the property tests) essentially
    /// never lands on a tie, so this pins the boundary semantics directly.
    #[test]
    fn fused_nearest_path_matches_oracle_on_exact_ties() {
        use crate::int::IntQuantizer;
        use crate::quantizer::{Quantizer, Rounding};

        fn tie_inputs(nonneg: &[f32], grid_max: f32) -> Vec<f32> {
            let mut vals = vec![grid_max]; // pins the group scale at exactly 1
            for w in nonneg.windows(2) {
                let m = (w[0] + w[1]) / 2.0;
                vals.push(m);
                vals.push(-m);
            }
            vals.extend_from_slice(nonneg);
            vals.extend(nonneg.iter().map(|v| -v));
            vals.extend([0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY]);
            vals
        }

        for fmt in [
            FloatFormat::e2m1(),
            FloatFormat::e4m3(),
            FloatFormat::e5m2(),
            FloatFormat::e3m4(),
        ] {
            let nonneg = fmt.enumerate_non_negative();
            let vals = tie_inputs(&nonneg, fmt.max_value());
            let t = Tensor::from_vec(1, vals.len(), vals);
            let q = Quantizer::new(fmt, Granularity::Tensorwise, Rounding::Nearest);
            let mut r1 = Rng::seed_from(0);
            let mut r2 = Rng::seed_from(0);
            let fake = q.fake_quantize(&t, &mut r1);
            let packed = q.quantize_packed(&t, &mut r2).expect("packable");
            for (i, (a, b)) in fake
                .as_slice()
                .iter()
                .zip(packed.dequantize().as_slice())
                .enumerate()
            {
                assert_eq!(a.to_bits(), b.to_bits(), "{fmt}: element {i}: {a} vs {b}");
            }
        }

        for bits in [3u32, 4, 8] {
            let ifmt = IntFormat::new(bits);
            let nonneg: Vec<f32> = (0..=ifmt.qmax() as i64).map(|i| i as f32).collect();
            let vals = tie_inputs(&nonneg, ifmt.qmax());
            let t = Tensor::from_vec(1, vals.len(), vals);
            let q = IntQuantizer::new(ifmt, Granularity::Tensorwise, Rounding::Nearest);
            let mut r1 = Rng::seed_from(0);
            let mut r2 = Rng::seed_from(0);
            let fake = q.fake_quantize(&t, &mut r1);
            let packed = q.quantize_packed(&t, &mut r2).expect("packable");
            for (i, (a, b)) in fake
                .as_slice()
                .iter()
                .zip(packed.dequantize().as_slice())
                .enumerate()
            {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "int{bits}: element {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn direct_map_encode_matches_binary_search_on_every_grid_value() {
        let books: Vec<Codebook> = [
            FloatFormat::e2m1(),
            FloatFormat::e4m3(),
            FloatFormat::e5m2(),
            FloatFormat::e3m4(),
        ]
        .into_iter()
        .map(|f| Codebook::for_float(f).unwrap())
        .chain(
            [IntFormat::int4(), IntFormat::int8(), IntFormat::new(3)]
                .into_iter()
                .map(|f| Codebook::for_int(f).unwrap()),
        )
        .collect();
        for cb in &books {
            let lut = cb.lut();
            for code in 0..cb.values() {
                let v = lut[code];
                assert_eq!(cb.encode(v), cb.encode_binary_search(v));
                assert_eq!(cb.encode(-v), cb.encode_binary_search(-v));
            }
        }
    }

    /// The SIMD decode kernels rely on every decode table being exactly
    /// `lut_len` long with mirrored sign-magnitude halves (`lut[half + i]
    /// == -lut[i]` bitwise): the AVX2 4-bit path splits the 16-entry table
    /// into two 8-entry permute registers selected by code bit 3, and the
    /// byte-wide gather indexes all 256 entries unconditionally. Pin the
    /// layout for every format we ship.
    #[test]
    fn decode_tables_satisfy_the_simd_layout_contract() {
        let books: Vec<Codebook> = [
            FloatFormat::e2m1(),
            FloatFormat::e4m3(),
            FloatFormat::e5m2(),
            FloatFormat::e3m4(),
        ]
        .into_iter()
        .map(|f| Codebook::for_float(f).unwrap())
        .chain(
            [IntFormat::int4(), IntFormat::int8(), IntFormat::new(3)]
                .into_iter()
                .map(|f| Codebook::for_int(f).unwrap()),
        )
        .collect();
        for cb in &books {
            let lut = cb.lut();
            assert_eq!(lut.len(), cb.width().lut_len());
            let half = lut.len() / 2;
            for i in 0..half {
                if i < cb.values() {
                    assert_eq!(
                        lut[half + i].to_bits(),
                        (-lut[i]).to_bits(),
                        "halves must mirror at index {i}"
                    );
                } else {
                    // Unused codes decode to +0 in both halves.
                    assert_eq!(lut[i].to_bits(), 0);
                    assert_eq!(lut[half + i].to_bits(), 0);
                }
            }
            match cb.width() {
                CodeWidth::U4 => assert_eq!(cb.pair_lut().len(), 512),
                CodeWidth::U8 => assert!(cb.pair_lut().is_empty()),
            }
        }
    }

    #[test]
    fn signed_zeros_round_trip_bitwise() {
        let cb = Codebook::for_float(FloatFormat::e2m1()).unwrap();
        let lut = cb.lut();
        assert_eq!(cb.encode(0.0), 0);
        assert_eq!(lut[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(cb.encode(-0.0), 8);
        assert_eq!(lut[8].to_bits(), (-0.0f32).to_bits());
    }
}
