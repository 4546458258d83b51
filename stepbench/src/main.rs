//! Step-level training benchmark for the SNIP workspace.
//!
//! ```text
//! bash stepbench/run.sh \
//!     --workload <fp4-resume|dp2-proc|snip-adapt> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end metrics
//! with telemetry off; `--trace 1` runs the workload untraced and then
//! traced for the same number of steps and prints the per-layer metrics.
//! The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it are
//! a readable table with units and sample counts, and the full record is
//! written to `.stepbench/<workload>-s<seed>-t<trace>.json` (plus the Chrome
//! trace of a traced run). See `stepbench/README.md` for the workloads and
//! the metric map.

mod adapt;
mod dp;
mod fp4;
mod layers;
mod report;

use report::Report;
use std::path::PathBuf;

/// The benchmark's scratch directory, relative to the working directory
/// (checkpoints, fabric sockets, result artifacts).
pub const WORK_DIR: &str = ".stepbench";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// How a workload occupies the machine. Every workload runs one pool
/// thread per rank: on a shared 2-vCPU host a 2-thread pool made the
/// FP4 step no faster (CPU time ≈ wall time) and tied every step to steal
/// on the second vCPU, which spread `step_ms_p90` by 40% across runs.
struct Layout {
    ranks: usize,
    pool_threads: usize,
    engine_workers: usize,
}

fn layout(workload: &str) -> Option<Layout> {
    let (ranks, pool_threads, engine_workers) = match workload {
        "fp4-resume" => (1, 1, 0),
        "dp2-proc" => (2, 1, 0),
        "snip-adapt" => (1, 1, 1),
        _ => return None,
    };
    Some(Layout {
        ranks,
        pool_threads,
        engine_workers,
    })
}

fn fail(msg: &str) -> ! {
    eprintln!("stepbench: {msg}");
    std::process::exit(2);
}

fn main() {
    // A rank worker re-executes this binary: it runs its task and exits
    // here, before anything below touches the thread pool.
    snip_pipeline::transport::proc::worker_boot();

    let args = parse_args().unwrap_or_else(|e| fail(&e));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let Some(lay) = layout(&args.workload) else {
        fail(&format!(
            "unknown workload {:?} (fp4-resume, dp2-proc, snip-adapt)",
            args.workload
        ));
    };
    let need = lay.ranks * lay.pool_threads + lay.engine_workers;
    if need > nproc {
        fail(&format!(
            "{} needs {} ranks x {} pool threads + {} engine worker(s) = {need} cores; this machine has {nproc}",
            args.workload, lay.ranks, lay.pool_threads, lay.engine_workers
        ));
    }
    // Pin the pool width before first use (rank workers inherit it), keep
    // telemetry off unless a traced pass turns it on, and keep fabric
    // sockets inside the working directory.
    std::env::set_var("SNIP_THREADS", lay.pool_threads.to_string());
    std::env::remove_var("SNIP_TRACE");
    let tmp = PathBuf::from(WORK_DIR).join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        fail(&format!("creating {}: {e}", tmp.display()));
    }
    std::env::set_var("TMPDIR", &tmp);
    snip_obs::set_enabled(false);
    let pool = snip_tensor::pool::size();
    if pool != lay.pool_threads {
        fail(&format!(
            "pool has {pool} threads, wanted {}",
            lay.pool_threads
        ));
    }

    let mut report = Report::default();
    report.note("workload", &args.workload);
    report.note("seed", args.seed);
    report.note(
        "machine",
        format!(
            "nproc={nproc} simd={} pool={pool} ranks={} engine_workers={}",
            snip_tensor::simd::backend(),
            lay.ranks,
            lay.engine_workers
        ),
    );
    match args.workload.as_str() {
        "fp4-resume" => fp4::run(&mut report, &args),
        "dp2-proc" => dp::run(&mut report, &args),
        _ => adapt::run(&mut report, &args),
    }
    let artifact = PathBuf::from(WORK_DIR).join(format!(
        "{}-s{}-t{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&artifact, report.artifact_json()) {
        eprintln!("stepbench: writing {}: {e}", artifact.display());
    }
    if args.trace {
        let path =
            PathBuf::from(WORK_DIR).join(format!("{}-s{}-trace.json", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, snip_obs::trace::chrome_trace_json()) {
            eprintln!("stepbench: writing {}: {e}", path.display());
        }
    }
    report.print();
}

/// A run's step budget: a time window (that still reaches `min_steps`), or
/// an exact step count (the traced pass replays the untraced pass's count).
#[derive(Clone, Copy)]
pub enum Budget {
    Seconds { secs: f64, min_steps: usize },
    Steps(usize),
}

impl Budget {
    /// Whether to stop before taking step number `done` (0-based), given
    /// the elapsed and still-to-spend time in seconds.
    pub fn done(&self, done: usize, elapsed: f64, reserve: f64) -> bool {
        match *self {
            Budget::Seconds { secs, min_steps } => done >= min_steps && elapsed + reserve >= secs,
            Budget::Steps(n) => done >= n,
        }
    }
}

/// End-to-end numbers every workload reports. Times are wall-clock as
/// measured; `window_net` and `setup_net` (from [`Report::clocks`]) take
/// the hypervisor's stolen share out of the window's and the set-ups' times.
pub struct EndToEnd {
    pub tokens: f64,
    pub window_s: f64,
    pub window_net: f64,
    pub step_ms: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub setup_net: f64,
    pub final_loss: f64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    pub fn report(&self, report: &mut Report) {
        use report::{median, quantile, tail_quantile};
        let n = self.step_ms.len();
        let step_ms: Vec<f64> = self.step_ms.iter().map(|s| s * self.window_net).collect();
        report.metric(
            "tokens_per_s",
            "tokens/s",
            self.tokens / (self.window_s * self.window_net),
            n,
        );
        report.metric("step_ms_p50", "ms", median(&step_ms), n);
        report.metric("step_ms_p90", "ms", quantile(&step_ms, tail_quantile(n)), n);
        report.note("step_ms_tail_quantile", tail_quantile(n));
        report.metric(
            "setup_s",
            "s",
            median(&self.setup_s) * self.setup_net,
            self.setup_s.len(),
        );
        report.metric("final_loss", "nats", self.final_loss, 10);
        report.metric("peak_rss_mb", "MiB", self.peak_rss_mb, 1);
    }
}

/// Mean of the 10 losses ending at step `k` (the fixed point at which
/// every run of a workload reads its loss).
pub fn final_loss(losses: &[f64], k: usize) -> f64 {
    let end = k.min(losses.len());
    report::mean(&losses[end.saturating_sub(10)..end])
}

/// The traced run's zero-bit and overhead checks: the traced pass must
/// reproduce the untraced pass's losses bit for bit over `compare` steps.
pub fn trace_checks(
    report: &mut Report,
    untraced: &[f64],
    traced: &[f64],
    compare: usize,
    untraced_tps: f64,
    traced_tps: f64,
) {
    let n = compare.min(untraced.len()).min(traced.len());
    let same = n > 0
        && untraced[..n]
            .iter()
            .zip(&traced[..n])
            .all(|(a, b)| a.to_bits() == b.to_bits());
    report.op(same, || {
        format!("traced losses differ from untraced over the first {n} steps (zero-bit contract)")
    });
    report.note("zero_bit_steps_compared", n);
    report.metric(
        "obs.trace_overhead_frac",
        "frac",
        untraced_tps / traced_tps - 1.0,
        2,
    );
}
