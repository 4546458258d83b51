//! The perf-trajectory runner: times quantize (fake vs packed, per rounding
//! mode), decode, all six GEMM orientations and an end-to-end training step
//! at model-realistic shapes, each kernel against its frozen PR-4
//! predecessor (`snip_bench::legacy`), plus per-backend GEMM and quantize
//! matrices with the dispatch pinned to each compiled SIMD tier in turn,
//! and writes machine-readable `BENCH_gemm.json` at the repo root.
//!
//! ```text
//! cargo run --release -p snip-bench --bin bench_gemm            # full run
//! cargo run --release -p snip-bench --bin bench_gemm -- --smoke # CI smoke
//! cargo run --release -p snip-bench --bin bench_gemm -- --check # validate
//! ```
//!
//! `--check` re-reads the JSON (same `--out` resolution) and fails unless
//! every section is present with finite, positive timings and speedups —
//! the CI gate that keeps the trajectory from silently rotting. Before any
//! kernel is timed, its legacy and current results are asserted
//! bit-identical on the benched operands (and every backend tier's against
//! forced scalar), so a recorded speedup can never compare different math.

use serde::{Deserialize, Serialize};
use snip_bench::legacy;
use snip_quant::{Precision, Quantizer, TensorRole};
use snip_tensor::matmul::{matmul, matmul_nt, matmul_tn, SMALL_GEMM_MACS};
use snip_tensor::packed::{qgemm, qgemm_nt, qgemm_tn};
use snip_tensor::{pool, rng::Rng, simd, QOperandRef, QTensor, Tensor};
use std::time::Instant;

/// One before/after kernel measurement.
#[derive(Debug, Serialize, Deserialize)]
struct KernelRow {
    kernel: String,
    /// `m x k x n` of the GEMM as called (or `rows x cols` for decode).
    shape: String,
    baseline_ms: f64,
    current_ms: f64,
    speedup: f64,
    /// Current-kernel throughput (`2·m·k·n` flops / `current_ms`); absent
    /// for decode rows, whose work is not flop-shaped.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    gflops: Option<f64>,
}

/// The machine context a run's numbers depend on — recorded so trajectories
/// from different boxes (or the same box with SIMD toggled) stay comparable.
#[derive(Debug, Serialize, Deserialize)]
struct Machine {
    arch: String,
    cpu_features: Vec<String>,
    /// Whether the `simd` cargo feature was compiled in.
    simd_compiled: bool,
    /// The backend runtime dispatch actually selected ("avx2"/"neon"/"scalar").
    simd_backend: String,
    /// f32 lanes per vector register for the selected backend (1 = scalar).
    simd_lanes: usize,
    /// Worker-pool parallelism the run used (`SNIP_THREADS` or the machine).
    threads: usize,
}

/// One point of the small-GEMM sweep: the same shape through the default
/// dispatch (fast path below the cutoff) and the forced generic path.
#[derive(Debug, Serialize, Deserialize)]
struct SmallGemmRow {
    shape: String,
    macs: usize,
    /// Whether default dispatch takes the fast path at this size.
    fast_path: bool,
    default_ms: f64,
    generic_ms: f64,
    speedup: f64,
}

/// One cell of the per-backend GEMM matrix: the same kernel and shape timed
/// with the dispatch pinned to one compiled tier via
/// [`simd::with_forced_backend`]. Results across backends are asserted
/// bit-identical before any timing, so the matrix only ever compares
/// identical math.
#[derive(Debug, Serialize, Deserialize)]
struct BackendRow {
    backend: String,
    kernel: String,
    shape: String,
    current_ms: f64,
    gflops: f64,
}

/// One cell of the per-backend quantize matrix: one packing path (format ×
/// rounding) timed with the dispatch pinned to one compiled tier. Before
/// timing, every tier's packed codes, scale bits and next RNG draw are
/// asserted identical to the forced-scalar encode's.
#[derive(Debug, Serialize, Deserialize)]
struct BackendQuantizeRow {
    backend: String,
    name: String,
    shape: String,
    rounding: String,
    packed_ms: f64,
    ns_per_elem: f64,
}

/// One quantize measurement: the fused packed path against the fake-quant
/// (dequantized `Tensor` output) path over the same input and rounding mode.
/// `ratio` is `packed_ms / fake_ms` — the packed path also *packs* codes, so
/// staying near 1.0 means the fused sweep adds no second pass.
#[derive(Debug, Serialize, Deserialize)]
struct QuantizeRow {
    name: String,
    shape: String,
    rounding: String,
    fake_ms: f64,
    packed_ms: f64,
    ratio: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct TrainStep {
    steps: u64,
    ms_per_step: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct Report {
    schema: u64,
    generated_by: String,
    smoke: bool,
    machine: Machine,
    gemm: Vec<KernelRow>,
    backend_gemm: Vec<BackendRow>,
    decode: Vec<KernelRow>,
    quantize: Vec<QuantizeRow>,
    backend_quantize: Vec<BackendQuantizeRow>,
    small_gemm: Vec<SmallGemmRow>,
    train_step: TrainStep,
}

/// The report layout version `--check` accepts.
const SCHEMA: u64 = 4;

/// The packing paths the per-backend quantize matrix times, per tier.
const QUANTIZE_PATHS: [(Precision, snip_quant::Rounding); 4] = [
    (Precision::Fp4, snip_quant::Rounding::Nearest),
    (Precision::Fp4, snip_quant::Rounding::Stochastic),
    (Precision::Fp8, snip_quant::Rounding::Nearest),
    (Precision::Fp8, snip_quant::Rounding::Stochastic),
];

/// The six GEMM kernels every report must carry.
const KERNELS: [&str; 6] = [
    "matmul",
    "matmul_nt",
    "matmul_tn",
    "qgemm",
    "qgemm_nt",
    "qgemm_tn",
];

fn default_out_path() -> std::path::PathBuf {
    // crates/bench → repo root.
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_gemm.json")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(std::path::PathBuf::from)
        .unwrap_or_else(default_out_path);

    if check {
        match check_report(&out) {
            Ok(summary) => println!("BENCH_gemm.json OK: {summary}"),
            Err(e) => {
                eprintln!("BENCH_gemm.json check FAILED: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let report = run(smoke);
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out, pretty(&json)).expect("write BENCH_gemm.json");
    println!("wrote {}", out.display());
    print_summary(&report);
}

/// Timing loop: one warm-up call, then `reps` timed calls, best (minimum)
/// wall-clock per call in milliseconds. Minimum-of-reps is the standard
/// low-noise estimator for deterministic CPU kernels.
fn time_best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape mismatch");
    for (a, b) in got.as_slice().iter().zip(want.as_slice()) {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: legacy and current kernels disagree — refusing to time different math"
        );
    }
}

fn pack(t: &Tensor, role: TensorRole, rng: &mut Rng) -> QTensor {
    let q: Quantizer = Precision::Fp4.quantizer_with_group(role, 128);
    q.quantize_packed(t, rng).expect("FP4 is packable")
}

fn run(smoke: bool) -> Report {
    // Model-realistic linear-layer dimensions: `tokens × d_out × d_in` for
    // an attention-ish and an MLP-ish layer (the three GEMM orientations
    // of one layer are derived from the same triple, like `snip-nn` does).
    let shapes: &[(usize, usize, usize)] = if smoke {
        &[(64, 160, 128)]
    } else {
        &[(256, 768, 768), (256, 2048, 768)]
    };
    let reps = if smoke { 2 } else { 5 };
    let machine = Machine {
        arch: std::env::consts::ARCH.to_string(),
        cpu_features: simd::detected_features()
            .iter()
            .map(|s| s.to_string())
            .collect(),
        simd_compiled: simd::compiled(),
        simd_backend: simd::backend().to_string(),
        simd_lanes: simd::lane_width(),
        threads: pool::size(),
    };
    let mut rng = Rng::seed_from(0xBE7C);

    let mut gemm = Vec::new();
    let mut decode = Vec::new();
    let mut quantize = Vec::new();
    let mut backend_quantize = Vec::new();
    let mut seen_act_shapes = std::collections::HashSet::new();

    for &(tokens, d_out, d_in) in shapes {
        let x = Tensor::randn(tokens, d_in, 1.0, &mut rng); // activations
        let w = Tensor::randn(d_out, d_in, 0.05, &mut rng); // weight (out×in)
        let dy = Tensor::randn(tokens, d_out, 1.0, &mut rng); // output grad
        let qx = pack(&x, TensorRole::Input, &mut rng);
        let qw = pack(&w, TensorRole::Weight, &mut rng);
        let qdy = pack(&dy, TensorRole::OutputGrad, &mut rng);
        // Dense views of the packed operands, so dense and packed kernels
        // compute the same product.
        let (dx_, dw_, ddy_) = (qx.dequantize(), qw.dequantize(), qdy.dequantize());

        // forward Y = X·Wᵀ (nt), input grad dX = dY·W (nn),
        // weight grad dW = dYᵀ·X (tn).
        type GemmCall<'a> = Box<dyn Fn() -> Tensor + 'a>;
        let rows: [(&str, String, GemmCall<'_>, GemmCall<'_>); 6] = [
            (
                "matmul",
                format!("{tokens}x{d_out}x{d_in}"),
                Box::new(|| legacy::matmul(&ddy_, &dw_)),
                Box::new(|| matmul(&ddy_, &dw_)),
            ),
            (
                "matmul_nt",
                format!("{tokens}x{d_in}x{d_out}"),
                Box::new(|| legacy::matmul_nt(&dx_, &dw_)),
                Box::new(|| matmul_nt(&dx_, &dw_)),
            ),
            (
                "matmul_tn",
                format!("{d_out}x{tokens}x{d_in}"),
                Box::new(|| legacy::matmul_tn(&ddy_, &dx_)),
                Box::new(|| matmul_tn(&ddy_, &dx_)),
            ),
            (
                "qgemm",
                format!("{tokens}x{d_out}x{d_in}"),
                Box::new(|| legacy::qgemm(QOperandRef::from(&qdy), QOperandRef::from(&qw))),
                Box::new(|| qgemm(QOperandRef::from(&qdy), QOperandRef::from(&qw))),
            ),
            (
                "qgemm_nt",
                format!("{tokens}x{d_in}x{d_out}"),
                Box::new(|| legacy::qgemm_nt(QOperandRef::from(&qx), QOperandRef::from(&qw))),
                Box::new(|| qgemm_nt(QOperandRef::from(&qx), QOperandRef::from(&qw))),
            ),
            (
                "qgemm_tn",
                format!("{d_out}x{tokens}x{d_in}"),
                Box::new(|| legacy::qgemm_tn(QOperandRef::from(&qdy), QOperandRef::from(&qx))),
                Box::new(|| qgemm_tn(QOperandRef::from(&qdy), QOperandRef::from(&qx))),
            ),
        ];

        // Every orientation of one layer triple does the same 2·m·k·n flops.
        let flops = 2.0 * (tokens * d_out * d_in) as f64;
        for (kernel, shape, baseline, current) in rows {
            assert_bits_eq(&current(), &baseline(), kernel);
            let baseline_ms = time_best_ms(reps, &*baseline);
            let current_ms = time_best_ms(reps, &*current);
            gemm.push(KernelRow {
                kernel: kernel.to_string(),
                shape,
                baseline_ms,
                current_ms,
                speedup: baseline_ms / current_ms,
                gflops: Some(flops / (current_ms * 1e6)),
            });
        }

        // Decode and quantize depend only on the activation shape, which
        // several GEMM triples can share — measure each distinct shape once.
        let act_shape = format!("{tokens}x{d_in}");
        if !seen_act_shapes.insert(act_shape.clone()) {
            continue;
        }

        // Decode: branchy per-element predecessor vs the pair-table path.
        for (fmt, q) in [("fp4", &qx), ("fp8", &pack_fp8(&x, &mut rng))] {
            let d_new = q.dequantize();
            assert_bits_eq(&d_new, &legacy::dequantize(q), "decode");
            let baseline_ms = time_best_ms(reps, || legacy::dequantize(q));
            let current_ms = time_best_ms(reps, || q.dequantize());
            decode.push(KernelRow {
                kernel: format!("decode_{fmt}"),
                shape: format!("{tokens}x{d_in}"),
                baseline_ms,
                current_ms,
                speedup: baseline_ms / current_ms,
                gflops: None,
            });
        }

        // Quantize: packed path vs fake-quant path, per rounding mode. The
        // packed path does strictly more work (it emits codes, not just the
        // dequantized grid), so `ratio` near 1.0 shows the single-pass fused
        // sweep — for stochastic rounding in particular, that the SR encode
        // costs no second pass over the data.
        for (p, rounding) in QUANTIZE_PATHS {
            let quantizer = p
                .quantizer_with_group(TensorRole::Input, 128)
                .with_rounding(rounding);
            let mut frng = Rng::seed_from(11);
            let fake_ms = time_best_ms(reps, || quantizer.fake_quantize(&x, &mut frng));
            let mut qrng = Rng::seed_from(11);
            let packed_ms = time_best_ms(reps, || {
                quantizer.quantize_packed(&x, &mut qrng).expect("packable")
            });
            quantize.push(QuantizeRow {
                name: format!("quantize_{p}"),
                shape: format!("{tokens}x{d_in}"),
                rounding: format!("{rounding:?}").to_lowercase(),
                fake_ms,
                packed_ms,
                ratio: packed_ms / fake_ms,
            });
        }
        backend_quantize.extend(backend_quantize_sweep(&x, reps));
    }

    let backend_gemm = backend_gemm_sweep(shapes, reps, &mut rng);

    let small_gemm = small_gemm_sweep(smoke, &mut rng);

    // End-to-end training step on the shared bench fixture.
    let steps: u64 = if smoke { 2 } else { 8 };
    let mut trainer = snip_bench::fixtures::bench_trainer();
    let t0 = Instant::now();
    let _ = trainer.train(steps);
    let ms_per_step = t0.elapsed().as_secs_f64() * 1e3 / steps as f64;

    Report {
        schema: SCHEMA,
        generated_by: "bench_gemm".to_string(),
        smoke,
        machine,
        gemm,
        backend_gemm,
        decode,
        quantize,
        backend_quantize,
        small_gemm,
        train_step: TrainStep { steps, ms_per_step },
    }
}

/// Times the dense and packed forward kernels at each full shape with the
/// dispatch pinned to every compiled backend tier in turn. Before timing,
/// every tier's result is asserted bit-identical to the scalar tier's, so a
/// backend row can never record a kernel that drifted. This is the
/// per-backend evidence for the SIMD trajectory: scalar → 8-lane AVX2 →
/// 16-lane AVX-512 on the same box, same binary, same operands.
fn backend_gemm_sweep(
    shapes: &[(usize, usize, usize)],
    reps: usize,
    rng: &mut Rng,
) -> Vec<BackendRow> {
    let mut out = Vec::new();
    for &(tokens, d_out, d_in) in shapes {
        let dy = Tensor::randn(tokens, d_out, 1.0, rng);
        let w = Tensor::randn(d_out, d_in, 0.05, rng);
        let qdy = pack(&dy, TensorRole::OutputGrad, rng);
        let qw = pack(&w, TensorRole::Weight, rng);
        let dw_ = qw.dequantize();

        type Call<'a> = Box<dyn Fn() -> Tensor + 'a>;
        let kernels: [(&str, Call<'_>); 2] = [
            ("matmul", Box::new(|| matmul(&dy, &dw_))),
            (
                "qgemm",
                Box::new(|| qgemm(QOperandRef::from(&qdy), QOperandRef::from(&qw))),
            ),
        ];
        let flops = 2.0 * (tokens * d_out * d_in) as f64;
        for (kernel, call) in kernels {
            let reference = simd::with_forced_scalar(&*call);
            for backend in simd::available_backends() {
                let result = simd::with_forced_backend(backend, &*call);
                assert_bits_eq(
                    &result,
                    &reference,
                    &format!("{kernel} @ {}", backend.name()),
                );
                let current_ms = simd::with_forced_backend(backend, || time_best_ms(reps, &*call));
                out.push(BackendRow {
                    backend: backend.name().to_string(),
                    kernel: kernel.to_string(),
                    shape: format!("{tokens}x{d_out}x{d_in}"),
                    current_ms,
                    gflops: flops / (current_ms * 1e6),
                });
            }
        }
    }
    out
}

/// Times every packing path of [`QUANTIZE_PATHS`] on `x` with the dispatch
/// pinned to every compiled backend tier in turn — the quantize-encode
/// counterpart of [`backend_gemm_sweep`]. Before timing, each tier's packed
/// codes, scale bits and next RNG draw are asserted identical to the
/// forced-scalar encode's from the same seed, so the matrix only ever
/// compares identical math.
fn backend_quantize_sweep(x: &Tensor, reps: usize) -> Vec<BackendQuantizeRow> {
    let (rows, cols) = x.shape();
    let mut out = Vec::new();
    for (p, rounding) in QUANTIZE_PATHS {
        let quantizer = p
            .quantizer_with_group(TensorRole::Input, 128)
            .with_rounding(rounding);
        let pack_seeded = || {
            let mut rng = Rng::seed_from(11);
            let q = quantizer.quantize_packed(x, &mut rng).expect("packable");
            (q, rng.next_u64())
        };
        let (want, want_draw) = simd::with_forced_scalar(pack_seeded);
        for backend in simd::available_backends() {
            let what = format!("quantize_{p} {rounding:?} @ {}", backend.name());
            let (got, got_draw) = simd::with_forced_backend(backend, pack_seeded);
            assert_eq!(
                got.packed_data(),
                want.packed_data(),
                "{what}: codes differ"
            );
            let bits = |q: &QTensor| q.scales().iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{what}: scales differ");
            assert_eq!(got_draw, want_draw, "{what}: rng stream differs");
            let mut rng = Rng::seed_from(11);
            let packed_ms = simd::with_forced_backend(backend, || {
                time_best_ms(reps, || quantizer.quantize_packed(x, &mut rng))
            });
            out.push(BackendQuantizeRow {
                backend: backend.name().to_string(),
                name: format!("quantize_{p}"),
                shape: format!("{rows}x{cols}"),
                rounding: format!("{rounding:?}").to_lowercase(),
                packed_ms,
                ns_per_elem: packed_ms * 1e6 / (rows * cols) as f64,
            });
        }
    }
    out
}

/// Times shapes straddling [`SMALL_GEMM_MACS`] through default dispatch
/// (fast path below the cutoff) and through `pool::with_threads(1)`, which
/// forces the generic blocked path. The speedup column is what justifies —
/// and tunes — the cutoff: it should be comfortably above 1 on the fast-path
/// side and near 1 just past the boundary. Results are bit-identical by
/// construction (asserted here before timing, pinned in
/// `tests/pool_determinism.rs`).
///
/// Re-swept after the 16-lane AVX-512 kernel landed: the faster microkernel
/// shrinks per-call compute, which could in principle move the crossover up
/// (fixed dispatch overhead amortized over less work). Measured on the bench
/// box the sweep stays ~1.0x on both sides of the boundary, so the cutoff
/// keeps its `1 << 16` value; the extra shapes just under and over the
/// boundary (including a ragged-K one) keep the boundary itself in evidence.
fn small_gemm_sweep(smoke: bool, rng: &mut Rng) -> Vec<SmallGemmRow> {
    let shapes: &[(usize, usize, usize)] = if smoke {
        &[(16, 16, 16), (64, 64, 16)]
    } else {
        &[
            (8, 8, 8),
            (16, 16, 16),
            (32, 32, 16),
            (32, 32, 32),
            (48, 48, 28), // 64512 MACs: just under the cutoff, ragged for 16 lanes
            (64, 63, 16), // 64512 MACs: just under the cutoff, ragged K
            (64, 64, 16), // exactly the cutoff: generic path
            (64, 64, 32),
            (64, 64, 64),
        ]
    };
    // Tiny kernels finish in microseconds; many reps keep the minimum stable.
    let reps = if smoke { 20 } else { 200 };
    let mut out = Vec::new();
    for &(m, k, n) in shapes {
        let a = Tensor::randn(m, k, 1.0, rng);
        let b = Tensor::randn(k, n, 1.0, rng);
        let default_result = matmul(&a, &b);
        let generic_result = pool::with_threads(1, || matmul(&a, &b));
        assert_bits_eq(&default_result, &generic_result, "small_gemm");
        let default_ms = time_best_ms(reps, || matmul(&a, &b));
        let generic_ms = time_best_ms(reps, || pool::with_threads(1, || matmul(&a, &b)));
        let macs = m * k * n;
        out.push(SmallGemmRow {
            shape: format!("{m}x{k}x{n}"),
            macs,
            fast_path: macs < SMALL_GEMM_MACS,
            default_ms,
            generic_ms,
            speedup: generic_ms / default_ms,
        });
    }
    out
}

fn pack_fp8(t: &Tensor, rng: &mut Rng) -> QTensor {
    Precision::Fp8
        .quantizer_with_group(TensorRole::Input, 128)
        .quantize_packed(t, rng)
        .expect("FP8 is packable")
}

fn check_report(path: &std::path::Path) -> Result<String, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let report: Report =
        serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    if report.schema != SCHEMA {
        return Err(format!("unknown schema {}", report.schema));
    }
    let mach = &report.machine;
    if mach.arch.is_empty() || mach.simd_backend.is_empty() {
        return Err("machine section is missing arch/simd_backend".to_string());
    }
    if mach.simd_lanes == 0 || mach.threads == 0 {
        return Err(format!(
            "machine: simd_lanes = {}, threads = {}",
            mach.simd_lanes, mach.threads
        ));
    }
    for kernel in KERNELS {
        if !report.gemm.iter().any(|r| r.kernel == kernel) {
            return Err(format!("gemm section is missing kernel `{kernel}`"));
        }
    }
    for r in &report.gemm {
        match r.gflops {
            Some(g) if g.is_finite() && g > 0.0 => {}
            other => return Err(format!("{} {}: gflops = {other:?}", r.kernel, r.shape)),
        }
    }
    if report.backend_gemm.is_empty() {
        return Err("backend_gemm section is empty".to_string());
    }
    // Every backend in the matrix must cover the same kernels, the machine's
    // selected backend must appear, and a scalar baseline must be present
    // (it is compiled unconditionally, so its absence means a broken sweep).
    let backends: std::collections::BTreeSet<&str> = report
        .backend_gemm
        .iter()
        .map(|r| r.backend.as_str())
        .collect();
    if !backends.contains("scalar") {
        return Err("backend_gemm is missing the scalar tier".to_string());
    }
    if !backends.contains(mach.simd_backend.as_str()) {
        return Err(format!(
            "backend_gemm is missing the dispatched backend `{}`",
            mach.simd_backend
        ));
    }
    for backend in &backends {
        for kernel in ["matmul", "qgemm"] {
            if !report
                .backend_gemm
                .iter()
                .any(|r| r.backend == *backend && r.kernel == kernel)
            {
                return Err(format!("backend_gemm: `{backend}` is missing `{kernel}`"));
            }
        }
    }
    for r in &report.backend_gemm {
        for (what, v) in [("current_ms", r.current_ms), ("gflops", r.gflops)] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!(
                    "backend_gemm {} {} {}: {what} = {v}",
                    r.backend, r.kernel, r.shape
                ));
            }
        }
    }
    if report.decode.is_empty() {
        return Err("decode section is empty".to_string());
    }
    if report.quantize.is_empty() {
        return Err("quantize section is empty".to_string());
    }
    for rounding in ["nearest", "stochastic"] {
        if !report.quantize.iter().any(|r| r.rounding == rounding) {
            return Err(format!("quantize section has no `{rounding}` rows"));
        }
    }
    for r in report.gemm.iter().chain(&report.decode) {
        for (what, v) in [
            ("baseline_ms", r.baseline_ms),
            ("current_ms", r.current_ms),
            ("speedup", r.speedup),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("{} {}: {what} = {v}", r.kernel, r.shape));
            }
        }
    }
    // The quantize matrix: same tier coverage rules as the GEMM matrix, and
    // every tier times every packing path.
    let q_backends: std::collections::BTreeSet<&str> = report
        .backend_quantize
        .iter()
        .map(|r| r.backend.as_str())
        .collect();
    for required in ["scalar", mach.simd_backend.as_str()] {
        if !q_backends.contains(required) {
            return Err(format!("backend_quantize is missing the `{required}` tier"));
        }
    }
    for backend in &q_backends {
        for (p, rounding) in QUANTIZE_PATHS {
            let (name, rounding) = (
                format!("quantize_{p}"),
                format!("{rounding:?}").to_lowercase(),
            );
            if !report
                .backend_quantize
                .iter()
                .any(|r| r.backend == *backend && r.name == name && r.rounding == rounding)
            {
                return Err(format!(
                    "backend_quantize: `{backend}` is missing `{name}` ({rounding})"
                ));
            }
        }
    }
    for r in &report.backend_quantize {
        for (what, v) in [("packed_ms", r.packed_ms), ("ns_per_elem", r.ns_per_elem)] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!(
                    "backend_quantize {} {} {}: {what} = {v}",
                    r.backend, r.name, r.rounding
                ));
            }
        }
    }
    for r in &report.quantize {
        for (what, v) in [
            ("fake_ms", r.fake_ms),
            ("packed_ms", r.packed_ms),
            ("ratio", r.ratio),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("{} {}: {what} = {v}", r.name, r.rounding));
            }
        }
    }
    if report.small_gemm.is_empty() {
        return Err("small_gemm section is empty".to_string());
    }
    for r in &report.small_gemm {
        for (what, v) in [
            ("default_ms", r.default_ms),
            ("generic_ms", r.generic_ms),
            ("speedup", r.speedup),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("small_gemm {}: {what} = {v}", r.shape));
            }
        }
    }
    let ts = &report.train_step;
    if ts.steps == 0 || !ts.ms_per_step.is_finite() || ts.ms_per_step <= 0.0 {
        return Err(format!(
            "train_step: steps = {}, ms_per_step = {}",
            ts.steps, ts.ms_per_step
        ));
    }
    Ok(format!(
        "{} gemm rows, {} backend rows ({}), {} decode rows, {} quantize rows, \
         {} backend quantize rows, {} small-gemm rows, {:.2} ms/train-step, {} simd on {} threads",
        report.gemm.len(),
        report.backend_gemm.len(),
        backends.iter().copied().collect::<Vec<_>>().join("/"),
        report.decode.len(),
        report.quantize.len(),
        report.backend_quantize.len(),
        report.small_gemm.len(),
        ts.ms_per_step,
        mach.simd_backend,
        mach.threads
    ))
}

fn print_summary(report: &Report) {
    let mach = &report.machine;
    println!(
        "{} [{}], simd = {} ({} lanes, compiled = {}), threads = {}, smoke = {}",
        mach.arch,
        mach.cpu_features.join(","),
        mach.simd_backend,
        mach.simd_lanes,
        mach.simd_compiled,
        mach.threads,
        report.smoke
    );
    for r in report.gemm.iter().chain(&report.decode) {
        let gflops = r
            .gflops
            .map(|g| format!("  {g:>6.2} GFLOP/s"))
            .unwrap_or_default();
        println!(
            "  {:>12} {:>14}  {:>9.3} ms → {:>9.3} ms   {:>5.2}x{gflops}",
            r.kernel, r.shape, r.baseline_ms, r.current_ms, r.speedup
        );
    }
    for r in &report.backend_gemm {
        println!(
            "  {:>12} {:>14}  {:>9.3} ms   {:>6.2} GFLOP/s  [{}]",
            r.kernel, r.shape, r.current_ms, r.gflops, r.backend
        );
    }
    for r in &report.quantize {
        println!(
            "  {:>12} {:>14}  {:>9.3} ms fake → {:>9.3} ms packed  {:>5.2}x  ({})",
            r.name, r.shape, r.fake_ms, r.packed_ms, r.ratio, r.rounding
        );
    }
    for r in &report.backend_quantize {
        println!(
            "  {:>12} {:>14}  {:>9.3} ms   {:>6.2} ns/elem  [{}] ({})",
            r.name, r.shape, r.packed_ms, r.ns_per_elem, r.backend, r.rounding
        );
    }
    for r in &report.small_gemm {
        println!(
            "  {:>12} {:>14}  {:>9.4} ms generic → {:>9.4} ms default  {:>5.2}x  (fast_path = {})",
            "small_gemm", r.shape, r.generic_ms, r.default_ms, r.speedup, r.fast_path
        );
    }
    println!(
        "  {:>12} {:>14}  {:>9.3} ms/step",
        "train_step", "-", report.train_step.ms_per_step
    );
}

/// Minimal pretty-printer: the vendored `serde_json` emits compact JSON;
/// a trailing newline keeps the artifact diff-friendly.
fn pretty(json: &str) -> String {
    let mut out = String::with_capacity(json.len() * 2);
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escape = false;
    for ch in json.chars() {
        if in_str {
            out.push(ch);
            if escape {
                escape = false;
            } else if ch == '\\' {
                escape = true;
            } else if ch == '"' {
                in_str = false;
            }
            continue;
        }
        match ch {
            '"' => {
                in_str = true;
                out.push(ch);
            }
            '{' | '[' => {
                depth += 1;
                out.push(ch);
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
                out.push(ch);
            }
            ',' => {
                out.push(ch);
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
            }
            ':' => {
                out.push(ch);
                out.push(' ');
            }
            _ => out.push(ch),
        }
    }
    out.push('\n');
    out
}
