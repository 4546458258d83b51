//! Quantize-encode dispatch equivalence: every SIMD tier this process can
//! run encodes **bit-identically** to the forced-scalar encode, and the
//! dispatched fast paths match the two-step `Codebook::pack` oracle
//! (`encode(quantize(v · scale))`, element by element).
//!
//! "Identical" means the packed code bytes, the scale bits and the RNG
//! stream position afterwards (the next draw), for FP4 E2M1, the FP8
//! formats E4M3 / E5M2 / E3M4 and INT4 (whose nearest path keeps the sign
//! of an exact ±0), under both rounding modes and all five granularities.
//! Shapes are ragged: odd tile and block widths put scale groups at odd
//! column starts (a 4-bit segment then begins mid-byte), and row and
//! segment lengths leave lane tails shorter than the 16-lane vector width.
//! Inputs mix NaN, ±Inf, ±0, f32 subnormals, exact rounding ties,
//! saturating magnitudes and ordinary values; a group that holds an
//! infinity scales by exactly 1, so its ties reach the encoder exactly.
//!
//! The suite passes under default dispatch, `SNIP_SIMD=0`, `SNIP_SIMD=avx2`
//! and with the `simd` feature compiled out — the sweep domain is
//! [`simd::available_backends`], which shrinks to what the process runs.

use proptest::prelude::*;
use snip_quant::format::FloatFormat;
use snip_quant::granularity::Granularity;
use snip_quant::int::{IntFormat, IntQuantizer};
use snip_quant::{Codebook, Quantizer, Rounding};
use snip_tensor::rng::Rng;
use snip_tensor::{simd, QTensor, Tensor};

const FLOATS: [FloatFormat; 4] = [
    FloatFormat::e2m1(),
    FloatFormat::e4m3(),
    FloatFormat::e5m2(),
    FloatFormat::e3m4(),
];

/// All five granularities, with odd group widths so groups start at odd
/// columns and end in sub-vector tails.
const GRANULARITIES: [Granularity; 5] = [
    Granularity::Tensorwise,
    Granularity::Rowwise,
    Granularity::Columnwise,
    Granularity::Block { nb: 19 },
    Granularity::Tile { nb: 37 },
];

const ROUNDINGS: [Rounding; 2] = [Rounding::Nearest, Rounding::Stochastic];

/// One element drawn from a mix of ordinary values and every special
/// class the encoders mask: `grid` is the format's non-negative value
/// list (for exact values and ties), `max` its largest magnitude.
fn mixed_element(rng: &mut Rng, grid: &[f32], max: f32, spread: f32) -> f32 {
    let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
    let pick = |rng: &mut Rng, n: usize| (rng.next_u64() % n as u64) as usize;
    match rng.next_u64() % 20 {
        0 => f32::NAN,
        1 => sign * f32::INFINITY,
        2 => sign * 0.0,
        // f32 subnormals.
        3 => sign * f32::from_bits(1 + (rng.next_u64() % 0x7F_FFFF) as u32),
        // Exact grid values and exact rounding ties between neighbours.
        4 => sign * grid[pick(rng, grid.len())],
        5 | 6 => {
            let i = pick(rng, grid.len() - 1);
            sign * (grid[i] + grid[i + 1]) / 2.0
        }
        // Saturating magnitudes.
        7 => sign * max * (1.0 + 8.0 * rng.next_f32()),
        // Around the smallest grid step, where subnormal codes live.
        8 => sign * grid[1] * 2.0 * rng.next_f32(),
        _ => sign * spread * rng.next_f32(),
    }
}

/// A `rows × cols` tensor of [`mixed_element`]s; `spread` varies the
/// ordinary values' magnitude over six decades between cases.
fn mixed_tensor(rows: usize, cols: usize, grid: &[f32], max: f32, seed: u64) -> Tensor {
    let mut rng = Rng::seed_from(seed);
    let spread = 10f32.powf(rng.next_f32() * 6.0 - 3.0);
    let data = (0..rows * cols)
        .map(|_| mixed_element(&mut rng, grid, max, spread))
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// A packing result plus the RNG's next draw afterwards.
struct Packed {
    q: QTensor,
    next_draw: u64,
}

fn run(seed: u64, f: impl FnOnce(&mut Rng) -> QTensor) -> Packed {
    let mut rng = Rng::seed_from(seed);
    let q = f(&mut rng);
    Packed {
        q,
        next_draw: rng.next_u64(),
    }
}

fn assert_same(got: &Packed, want: &Packed, ctx: &str) {
    assert_eq!(got.q.shape(), want.q.shape(), "{ctx}: shape");
    assert_eq!(
        got.q.packed_data(),
        want.q.packed_data(),
        "{ctx}: packed code bytes"
    );
    assert_eq!(got.q.scales().len(), want.q.scales().len(), "{ctx}: scales");
    for (i, (a, b)) in got.q.scales().iter().zip(want.q.scales()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: scale {i}: {a} vs {b}");
    }
    assert_eq!(got.next_draw, want.next_draw, "{ctx}: rng stream diverged");
}

/// Every available tier against forced scalar, then the default dispatch
/// against the two-step oracle.
fn check(
    ctx: &str,
    seed: u64,
    fast: impl Fn(&mut Rng) -> QTensor,
    oracle: impl Fn(&mut Rng) -> QTensor,
) {
    let scalar = simd::with_forced_scalar(|| run(seed, &fast));
    for backend in simd::available_backends() {
        let got = simd::with_forced_backend(backend, || run(seed, &fast));
        assert_same(&got, &scalar, &format!("{ctx} @ {}", backend.name()));
    }
    assert_same(
        &run(seed, &fast),
        &run(seed, &oracle),
        &format!("{ctx} vs oracle"),
    );
}

fn check_float(fmt: FloatFormat, g: Granularity, r: Rounding, t: &Tensor, seed: u64) {
    let cb = Codebook::for_float(fmt).expect("packable");
    let q = Quantizer::new(fmt, g, r);
    check(
        &format!("{fmt} {g} {r:?} {:?}", t.shape()),
        seed,
        |rng| q.quantize_packed(t, rng).expect("packable"),
        |rng| {
            cb.pack(t, g, fmt.max_value(), rng, |scaled, rng| match r {
                Rounding::Nearest => fmt.quantize_nearest(scaled),
                Rounding::Stochastic => fmt.quantize_stochastic(scaled, rng.next_f32()),
            })
        },
    );
}

fn check_int4(g: Granularity, r: Rounding, t: &Tensor, seed: u64) {
    let fmt = IntFormat::int4();
    let cb = Codebook::for_int(fmt).expect("packable");
    let q = IntQuantizer::new(fmt, g, r);
    check(
        &format!("int4 {g} {r:?} {:?}", t.shape()),
        seed,
        |rng| q.quantize_packed(t, rng).expect("packable"),
        |rng| {
            cb.pack(t, g, fmt.qmax(), rng, |scaled, rng| match r {
                Rounding::Nearest => fmt.quantize_nearest(scaled),
                Rounding::Stochastic => fmt.quantize_stochastic(scaled, rng.next_f32()),
            })
        },
    );
}

fn int4_grid() -> Vec<f32> {
    (0..=IntFormat::int4().qmax() as i32)
        .map(|i| i as f32)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Float formats: every tier equals forced scalar, and the fast path
    /// equals the oracle, over ragged shapes and mixed special inputs.
    #[test]
    fn float_encode_matches_scalar_and_oracle(
        rows in 1usize..6,
        cols in 1usize..120,
        seed in 0u64..1_000_000,
    ) {
        for fmt in FLOATS {
            let t = mixed_tensor(rows, cols, &fmt.enumerate_non_negative(), fmt.max_value(), seed);
            for g in GRANULARITIES {
                for r in ROUNDINGS {
                    check_float(fmt, g, r, &t, seed ^ 0x5EED);
                }
            }
        }
    }

    /// INT4: the threshold path with signed zeros kept.
    #[test]
    fn int4_encode_matches_scalar_and_oracle(
        rows in 1usize..6,
        cols in 1usize..120,
        seed in 0u64..1_000_000,
    ) {
        let grid = int4_grid();
        let t = mixed_tensor(rows, cols, &grid, 7.0, seed);
        for g in GRANULARITIES {
            for r in ROUNDINGS {
                check_int4(g, r, &t, seed ^ 0x1D4);
            }
        }
    }

    /// `Granularity::group_max_abs` (the scan every packing path shares)
    /// is bit-identical on every tier — NaN never wins, infinities do.
    #[test]
    fn group_max_abs_matches_scalar(
        rows in 1usize..6,
        cols in 1usize..150,
        seed in 0u64..1_000_000,
    ) {
        let fmt = FloatFormat::e4m3();
        let t = mixed_tensor(rows, cols, &fmt.enumerate_non_negative(), fmt.max_value(), seed);
        for g in GRANULARITIES {
            let want = simd::with_forced_scalar(|| g.group_max_abs(&t));
            for backend in simd::available_backends() {
                let got = simd::with_forced_backend(backend, || g.group_max_abs(&t));
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(&got), bits(&want), "{} @ {}", g, backend.name());
            }
        }
    }
}

/// Every lane-tail length and both column parities, deterministically:
/// one row per segment length `1..=48`, tiled so segments begin at even
/// and odd columns.
#[test]
fn every_tail_length_and_column_parity() {
    for len in 1..=48usize {
        for nb in [len, len + 1] {
            let cols = 3 * nb + 1;
            for fmt in FLOATS {
                let t = mixed_tensor(
                    2,
                    cols,
                    &fmt.enumerate_non_negative(),
                    fmt.max_value(),
                    len as u64,
                );
                for r in ROUNDINGS {
                    check_float(fmt, Granularity::Tile { nb }, r, &t, 7);
                }
            }
            let t = mixed_tensor(2, cols, &int4_grid(), 7.0, len as u64);
            check_int4(Granularity::Tile { nb }, Rounding::Nearest, &t, 7);
        }
    }
}

/// A group holding an infinity scales by exactly 1, so exact grid values
/// and exact ties reach the encoders unscaled — on every tier.
#[test]
fn exact_ties_under_unit_scale() {
    for fmt in FLOATS {
        let grid = fmt.enumerate_non_negative();
        let mut vals = vec![f32::INFINITY];
        for w in grid.windows(2) {
            let m = (w[0] + w[1]) / 2.0;
            vals.extend([w[0], -w[1], m, -m]);
        }
        vals.extend([0.0, -0.0, f32::NAN, f32::NEG_INFINITY, fmt.max_value()]);
        let t = Tensor::from_vec(1, vals.len(), vals);
        for g in [Granularity::Tensorwise, Granularity::Rowwise] {
            for r in ROUNDINGS {
                for seed in [0u64, 1, 0xDEAD] {
                    check_float(fmt, g, r, &t, seed);
                }
            }
        }
    }
}
