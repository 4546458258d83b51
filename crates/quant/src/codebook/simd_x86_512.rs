//! AVX-512 encode kernels: 16-lane forms of the packing paths' scalar code
//! functions — the group max-abs scan, the threshold-count nearest encode
//! (`Codebook::nearest_code`), and the exponent-arithmetic nearest and
//! stochastic encodes (`FloatFormat::nearest_code` /
//! `FloatFormat::stochastic_code`) — writing 4-bit or byte codes straight
//! into packed storage.
//!
//! Every kernel is compiled with `#[target_feature(enable = "avx512f")]`
//! and reached only through an [`Avx512`] token, which exists only while
//! the calling thread's dispatch (`snip_tensor::simd::active_backend`)
//! selects the AVX-512 tier — so forced tiers and `SNIP_SIMD` caps govern
//! encode exactly as they govern GEMM. Foundation instructions suffice.
//!
//! # Why this is bit-identical to the scalar code functions
//!
//! Each lane owns one element and performs the scalar function's IEEE-754
//! operations in the same order: `v * enc_scale`; then either the
//! threshold count on the magnitude bits, or `a * 2^(m − e_eff)` with the
//! power of two assembled from exponent bits exactly as `exp2i` does;
//! then the 2^23 magic add-then-subtract (ties-to-even) or the
//! truncate-compare-increment of stochastic rounding. No FMA, no
//! reassociation. Special values are masks, not branches: NaN → code 0,
//! ±0 → code 0 unless the table keeps signed zeros (integer grids),
//! `|x| ≥ max` → the signed top code.
//!
//! The max-abs scan computes `max_ps(|v|, acc)` with the element as the
//! *first* operand: x86 `max` returns its second operand when either input
//! is NaN, so a NaN element never wins — the semantics of `f32::max`. The
//! horizontal max at the end is exact, because max is order-free on
//! non-NaN values.
//!
//! Kernels cover whole 16-element chunks from a byte-aligned column and
//! return how many elements they encoded; the caller's scalar reference
//! encodes an odd head nibble and the tail.

use crate::format::FloatFormat;
use snip_tensor::simd::{self, Backend};
use snip_tensor::CodeWidth;
use std::arch::x86_64::*;

/// Elements per vector register.
const LANES: usize = 16;

/// Proof that the calling thread's dispatch selects the AVX-512 tier (and
/// therefore that `avx512f` was runtime-detected): the kernels' safe entry
/// points take it by value. Obtain one per packing call, outside the loops.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Avx512(());

impl Avx512 {
    /// The token, if this thread dispatches to AVX-512 right now.
    pub(crate) fn active() -> Option<Avx512> {
        (simd::active_backend() == Backend::Avx512).then_some(Avx512(()))
    }

    /// `seg.iter().fold(acc, |m, v| m.max(v.abs()))`, 16 lanes at a time.
    pub(crate) fn max_abs(self, seg: &[f32], acc: f32) -> f32 {
        // SAFETY: the token proves avx512f was detected.
        unsafe { max_abs(seg, acc) }
    }

    /// Threshold-count nearest encode of the leading 16-element chunks of
    /// `seg` into 4-bit codes, `out[0]` holding the first two elements.
    /// `th` is the table's thresholds padded to 8 with `u32::MAX`;
    /// `signed_zero` keeps the sign of an exact ±0 (integer grids).
    pub(crate) fn threshold_u4(
        self,
        seg: &[f32],
        enc_scale: f32,
        th: &[u32; 8],
        signed_zero: bool,
        half: u8,
        out: &mut [u8],
    ) -> usize {
        // SAFETY: the token proves avx512f was detected.
        unsafe { threshold_u4(seg, enc_scale, th, signed_zero, half, out) }
    }

    /// Exponent-arithmetic encode of the leading 16-element chunks of
    /// `seg`: nearest rounding when `draws` is `None`, stochastic rounding
    /// against `draws[i]` for element `i` otherwise. `out[0]` holds the
    /// first element's code (4-bit formats: the first two elements').
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn float_codes(
        self,
        seg: &[f32],
        draws: Option<&[f32]>,
        enc_scale: f32,
        fmt: FloatFormat,
        half: u8,
        top: u8,
        width: CodeWidth,
        out: &mut [u8],
    ) -> usize {
        let p = FloatParams {
            man: fmt.man_bits() as i32,
            emin: fmt.emin(),
            max: fmt.max_value(),
            half,
            top,
            width,
        };
        // SAFETY: the token proves avx512f was detected; `draws`, when
        // present, covers `seg` (asserted inside).
        unsafe {
            match draws {
                None => float_codes::<false>(seg, &[], enc_scale, &p, out),
                Some(u) => float_codes::<true>(seg, u, enc_scale, &p, out),
            }
        }
    }
}

/// The format constants the exponent-arithmetic kernels broadcast.
struct FloatParams {
    man: i32,
    emin: i32,
    max: f32,
    half: u8,
    top: u8,
    width: CodeWidth,
}

/// `|v|` of the 16 elements at `p` (sign bit cleared, NaN stays NaN).
///
/// # Safety
///
/// The CPU must support `avx512f`, and `p` must be valid for reading 16
/// `f32`s.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn load_abs(p: *const f32) -> __m512 {
    let abs = _mm512_set1_epi32(0x7FFF_FFFF);
    _mm512_castsi512_ps(_mm512_and_si512(
        _mm512_castps_si512(_mm512_loadu_ps(p)),
        abs,
    ))
}

/// # Safety
///
/// The CPU must support `avx512f`.
#[target_feature(enable = "avx512f")]
unsafe fn max_abs(seg: &[f32], acc: f32) -> f32 {
    // Four independent accumulators hide the max latency; splitting is
    // legal because max is order-free on the non-NaN values they hold.
    let mut m = [_mm512_set1_ps(acc); 4];
    let quads = seg.chunks_exact(4 * LANES);
    let rest = quads.remainder();
    for q in quads {
        for (j, mj) in m.iter_mut().enumerate() {
            *mj = _mm512_max_ps(load_abs(q.as_ptr().add(j * LANES)), *mj);
        }
    }
    let chunks = rest.chunks_exact(LANES);
    let tail = chunks.remainder();
    for c in chunks {
        m[0] = _mm512_max_ps(load_abs(c.as_ptr()), m[0]);
    }
    let m01 = _mm512_max_ps(m[0], m[1]);
    let m23 = _mm512_max_ps(m[2], m[3]);
    let mut acc = _mm512_reduce_max_ps(_mm512_max_ps(m01, m23));
    for &v in tail {
        acc = acc.max(v.abs());
    }
    acc
}

/// Packs 16 lanes of 4-bit codes (element `2i` in the low nibble of byte
/// `i`) into 8 bytes at `dst`: on 64-bit lanes `code | code >> 28` folds
/// each odd element's nibble above its even neighbour, then `vpmovqb`
/// keeps the low byte of every 64-bit lane.
///
/// # Safety
///
/// The CPU must support `avx512f`, and `dst` must be valid for writing 8
/// bytes.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn store_u4(codes: __m512i, dst: *mut u8) {
    let pairs = _mm512_or_si512(codes, _mm512_srli_epi64::<28>(codes));
    _mm_storel_epi64(dst.cast(), _mm512_cvtepi64_epi8(pairs));
}

/// Stores 16 lanes of byte codes at `dst` (`vpmovdb`).
///
/// # Safety
///
/// The CPU must support `avx512f`, and `dst` must be valid for writing 16
/// bytes.
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn store_u8(codes: __m512i, dst: *mut u8) {
    _mm_storeu_si128(dst.cast(), _mm512_cvtepi32_epi8(codes));
}

/// # Safety
///
/// The CPU must support `avx512f`. Slice lengths are checked here.
#[target_feature(enable = "avx512f")]
unsafe fn threshold_u4(
    seg: &[f32],
    enc_scale: f32,
    th: &[u32; 8],
    signed_zero: bool,
    half: u8,
    out: &mut [u8],
) -> usize {
    let n = seg.len() / LANES * LANES;
    assert!(out.len() >= n / 2, "threshold_u4: output too short");
    let scale = _mm512_set1_ps(enc_scale);
    let abs = _mm512_set1_epi32(0x7FFF_FFFF);
    let inf = _mm512_set1_epi32(0x7F80_0000);
    let one = _mm512_set1_epi32(1);
    let vhalf = _mm512_set1_epi32(i32::from(half));
    let mut t = [_mm512_setzero_si512(); 8];
    for (tv, &b) in t.iter_mut().zip(th) {
        *tv = _mm512_set1_epi32(b as i32);
    }
    for i in (0..n).step_by(LANES) {
        let bits = _mm512_castps_si512(_mm512_mul_ps(_mm512_loadu_ps(seg.as_ptr().add(i)), scale));
        let a = _mm512_and_si512(bits, abs);
        // Unsigned compares: the `u32::MAX` padding never counts.
        let mut count = _mm512_setzero_si512();
        for &tv in &t {
            count = _mm512_mask_add_epi32(count, _mm512_cmpge_epu32_mask(a, tv), count, one);
        }
        let sign = _mm512_and_si512(_mm512_srai_epi32::<31>(bits), vhalf);
        let mut keep = _mm512_cmple_epu32_mask(a, inf); // NaN → 0
        if !signed_zero {
            keep &= _mm512_test_epi32_mask(a, a); // ±0 → 0
        }
        let codes = _mm512_maskz_mov_epi32(keep, _mm512_add_epi32(count, sign));
        store_u4(codes, out.as_mut_ptr().add(i / 2));
    }
    n
}

/// # Safety
///
/// The CPU must support `avx512f`. Slice lengths are checked here.
#[target_feature(enable = "avx512f")]
unsafe fn float_codes<const SR: bool>(
    seg: &[f32],
    draws: &[f32],
    enc_scale: f32,
    p: &FloatParams,
    out: &mut [u8],
) -> usize {
    let n = seg.len() / LANES * LANES;
    assert!(!SR || draws.len() >= n, "float_codes: one draw per element");
    let out_len = match p.width {
        CodeWidth::U4 => n / 2,
        CodeWidth::U8 => n,
    };
    assert!(out.len() >= out_len, "float_codes: output too short");
    let scale = _mm512_set1_ps(enc_scale);
    let abs = _mm512_set1_epi32(0x7FFF_FFFF);
    let inf = _mm512_set1_epi32(0x7F80_0000);
    let one = _mm512_set1_epi32(1);
    let bias = _mm512_set1_epi32(127);
    let man = _mm512_set1_epi32(p.man);
    let emin = _mm512_set1_epi32(p.emin);
    let max = _mm512_set1_ps(p.max);
    let vhalf = _mm512_set1_epi32(i32::from(p.half));
    let vtop = _mm512_set1_epi32(i32::from(p.top));
    let magic = _mm512_set1_ps(8_388_608.0); // 2^23
    for i in (0..n).step_by(LANES) {
        let bits = _mm512_castps_si512(_mm512_mul_ps(_mm512_loadu_ps(seg.as_ptr().add(i)), scale));
        let a_bits = _mm512_and_si512(bits, abs);
        let a = _mm512_castsi512_ps(a_bits);
        // e_eff = max(exponent field − 127, emin); then 2^(m − e_eff)
        // assembled as exponent bits, exactly as `exp2i` does in range.
        let e_eff = _mm512_max_epi32(
            _mm512_sub_epi32(_mm512_srli_epi32::<23>(a_bits), bias),
            emin,
        );
        let pow = _mm512_slli_epi32::<23>(_mm512_add_epi32(_mm512_sub_epi32(man, e_eff), bias));
        let r = _mm512_mul_ps(a, _mm512_castsi512_ps(pow));
        let k = if SR {
            let ki = _mm512_cvttps_epi32(r);
            let frac = _mm512_sub_ps(r, _mm512_cvtepi32_ps(ki));
            let u = _mm512_loadu_ps(draws.as_ptr().add(i));
            _mm512_mask_add_epi32(ki, _mm512_cmp_ps_mask::<_CMP_GT_OQ>(frac, u), ki, one)
        } else {
            _mm512_cvttps_epi32(_mm512_sub_ps(_mm512_add_ps(r, magic), magic))
        };
        let idx = _mm512_add_epi32(_mm512_sllv_epi32(_mm512_sub_epi32(e_eff, emin), man), k);
        let sign = _mm512_and_si512(_mm512_srai_epi32::<31>(bits), vhalf);
        let saturated = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(a, max);
        let codes = _mm512_mask_mov_epi32(
            _mm512_add_epi32(sign, idx),
            saturated,
            _mm512_add_epi32(sign, vtop),
        );
        // ±0 and NaN → code 0.
        let keep = _mm512_test_epi32_mask(a_bits, a_bits) & _mm512_cmple_epu32_mask(a_bits, inf);
        let codes = _mm512_maskz_mov_epi32(keep, codes);
        match p.width {
            CodeWidth::U4 => store_u4(codes, out.as_mut_ptr().add(i / 2)),
            CodeWidth::U8 => store_u8(codes, out.as_mut_ptr().add(i)),
        }
    }
    n
}
