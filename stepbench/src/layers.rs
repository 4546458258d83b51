//! Per-layer attribution, measured from the benchmark's side of the public
//! API: spans around each training step (step index as the span id) split
//! at the gradient hook, the program's own `StepOutput` timings and
//! `snip_obs` counters, and — for layers a workload's timed loop never
//! calls — one direct call into that layer on the workload's own model.

use crate::report::{median, ms, Report};
use snip_core::{analyze, measure, FlopModel, OptionSet, SnipConfig, Trainer, TrainerConfig};
use snip_data::{BatchStream, LanguageConfig, SyntheticLanguage};
use snip_ilp::{solve, Choice, McKnapsack, SolveOptions};
use snip_nn::{LayerId, Model, StepOutput};
use snip_pipeline::collective::{chunk_bounds, QuantizePolicy, Wire};
use snip_pipeline::comm::codec_wire_bytes;
use snip_pipeline::transport::data_parallel_train;
use snip_pipeline::transport::proc::{proc_data_parallel_train, ProcDpTrain};
use snip_tensor::rng::Rng;
use std::path::Path;
use std::time::{Duration, Instant};

/// One traced training step, split at the layer boundaries the benchmark
/// can see. Times in ns.
#[derive(Clone, Debug, Default)]
pub struct StepSpan {
    /// The step index — the id shared by the step's spans.
    pub step: u64,
    pub wall: u64,
    /// Step start to grad-hook entry: batch draw, forward and backward.
    pub fwd_bwd: u64,
    /// Inside the grad hook (the all-reduce on DP ranks; empty otherwise).
    pub hook: u64,
    /// Hook exit to step return: clipping and the AdamW update.
    pub optim: u64,
    pub gemm: u64,
    pub quant: u64,
    pub gemm_calls: u64,
    pub quant_calls: u64,
    pub btile_hits: u64,
    pub btile_builds: u64,
    pub cache_bytes: usize,
}

/// Runs one training step with `hook` as the gradient hook. With
/// collection on it also returns the step's layer split and emits the
/// benchmark-side spans into the trace.
pub fn step(
    trainer: &mut Trainer,
    hook: &mut dyn FnMut(&mut Model),
) -> (StepOutput, Option<StepSpan>) {
    if !snip_obs::enabled() {
        return (trainer.train_step_output_with_grad_hook(hook), None);
    }
    let counters = |names: [&str; 4]| names.map(snip_obs::counter_value);
    let names = [
        "gemm.calls",
        "quant.calls",
        "gemm.btile.cache_hits",
        "gemm.btile.scratch_builds",
    ];
    let before = counters(names);
    let step_index = trainer.step_count();
    let t0 = snip_obs::trace::now_ns();
    let (mut entry, mut exit) = (0u64, 0u64);
    let out = trainer.train_step_output_with_grad_hook(&mut |model| {
        entry = snip_obs::trace::now_ns();
        hook(model);
        exit = snip_obs::trace::now_ns();
    });
    let t1 = snip_obs::trace::now_ns();
    let after = counters(names);
    snip_obs::trace::record_event("bench.step", t0, t1 - t0);
    snip_obs::trace::record_event("bench.fwd_bwd", t0, entry - t0);
    snip_obs::trace::record_event("bench.grad_hook", entry, exit - entry);
    snip_obs::trace::record_event("bench.optim", exit, t1 - exit);
    let span = StepSpan {
        step: step_index,
        wall: t1 - t0,
        fwd_bwd: entry - t0,
        hook: exit - entry,
        optim: t1 - exit,
        gemm: out.gemm_ns,
        quant: out.quantize_ns,
        gemm_calls: after[0] - before[0],
        quant_calls: after[1] - before[1],
        btile_hits: after[2] - before[2],
        btile_builds: after[3] - before[3],
        cache_bytes: out.linear_cache_bytes,
    };
    (out, Some(span))
}

/// Mean cost of drawing one batch, timed on a mirror of the trainer's data
/// stream (same language, seed and shape) so the trainer is not disturbed.
pub fn batch_ms(cfg: &TrainerConfig, draws: usize) -> f64 {
    let language = SyntheticLanguage::new(
        LanguageConfig {
            vocab: cfg.model.vocab_size,
            ..cfg.language.clone()
        },
        cfg.data_seed,
    );
    let mut stream = BatchStream::new(language, cfg.data_seed, cfg.batch_size, cfg.seq_len);
    let t = Instant::now();
    for _ in 0..draws {
        std::hint::black_box(stream.next_batch());
    }
    ms(t.elapsed()) / draws.max(1) as f64
}

/// Analytic FLOPs of the quantizable linears' three GEMMs for one step.
pub fn linear_flops(cfg: &TrainerConfig) -> f64 {
    let tokens = cfg.batch_size * cfg.seq_len;
    LayerId::enumerate(cfg.model.n_layers)
        .iter()
        .map(|id| id.training_flops(&cfg.model, tokens) as f64)
        .sum()
}

/// The step-level layer metrics from traced steps. `exposed_comm_ms` is
/// added to the step's layer sum (DP wire time the ranks' compute does not
/// hide); `wall_ms` is the step wall-clock the layers must add up to.
pub fn report_step_layers(
    report: &mut Report,
    tag: &str,
    cfg: &TrainerConfig,
    spans: &[StepSpan],
    data_ms: f64,
    exposed_comm_ms: f64,
    wall_ms: f64,
) {
    let n = spans.len().max(1) as f64;
    let per_step = |f: fn(&StepSpan) -> u64| spans.iter().map(|s| f(s) as f64).sum::<f64>() / n;
    let gemm_ms = per_step(|s| s.gemm) / 1e6;
    let quant_ms = per_step(|s| s.quant) / 1e6;
    let fwd_bwd_ms = per_step(|s| s.fwd_bwd) / 1e6;
    let hook_ms = per_step(|s| s.hook) / 1e6;
    let optim_ms = per_step(|s| s.optim) / 1e6;
    let other_ms = fwd_bwd_ms - data_ms - gemm_ms - quant_ms;
    let step_ms = per_step(|s| s.wall) / 1e6;
    let hits = per_step(|s| s.btile_hits);
    let builds = per_step(|s| s.btile_builds);
    let samples = spans.len();
    report.metric("tensor.gemm_ms_per_step", "ms", gemm_ms, samples);
    report.metric(
        "tensor.gemm_gflops",
        "GFLOP/s",
        linear_flops(cfg) / (gemm_ms * 1e6),
        samples,
    );
    report.metric(
        "tensor.btile_hit_frac",
        "frac",
        if hits + builds > 0.0 {
            hits / (hits + builds)
        } else {
            0.0
        },
        samples,
    );
    report.metric(
        "tensor.gemm_calls_per_step",
        "count",
        per_step(|s| s.gemm_calls),
        samples,
    );
    report.metric("quant.ms_per_step", "ms", quant_ms, samples);
    report.metric("quant.step_frac", "frac", quant_ms / step_ms, samples);
    report.metric(
        "quant.calls_per_step",
        "count",
        per_step(|s| s.quant_calls),
        samples,
    );
    report.metric("nn.fwd_bwd_ms", "ms", fwd_bwd_ms, samples);
    report.metric("nn.other_ms", "ms", other_ms, samples);
    report.metric(
        "nn.linear_cache_mb",
        "MiB",
        spans.iter().map(|s| s.cache_bytes).max().unwrap_or(0) as f64 / (1 << 20) as f64,
        samples,
    );
    report.metric("optim.update_ms", "ms", optim_ms, samples);
    report.metric("data.batch_ms", "ms", data_ms, samples);
    write_spans(
        spans,
        &Path::new(crate::WORK_DIR).join(format!("{tag}-spans.tsv")),
    );
    // The attribution check: data + GEMM + quantize + the rest of the
    // forward/backward + the update (+ exposed comm on DP) must add up to
    // the step's measured wall-clock within 10%.
    let layer_sum = data_ms + gemm_ms + quant_ms + other_ms + optim_ms + hook_ms + exposed_comm_ms;
    let rel = (layer_sum - wall_ms).abs() / wall_ms;
    report.note(
        "layer_sum_ms",
        format!(
            "{layer_sum:.3} vs step wall {wall_ms:.3} (traced step {step_ms:.3}, {:.2}% apart)",
            rel * 100.0
        ),
    );
    report.op(rel <= 0.10 && other_ms >= 0.0, || {
        format!("per-layer times {layer_sum:.3} ms do not add up to the step's {wall_ms:.3} ms")
    });
}

/// Writes the per-step span table (one row per step, keyed by the step
/// index) beside the run's other artifacts.
fn write_spans(spans: &[StepSpan], path: &Path) {
    let mut tsv = String::from(
        "step\twall_ns\tfwd_bwd_ns\thook_ns\toptim_ns\tgemm_ns\tquant_ns\tgemm_calls\tquant_calls\n",
    );
    for s in spans {
        tsv.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            s.step,
            s.wall,
            s.fwd_bwd,
            s.hook,
            s.optim,
            s.gemm,
            s.quant,
            s.gemm_calls,
            s.quant_calls
        ));
    }
    if let Err(e) = std::fs::write(path, tsv) {
        eprintln!("stepbench: writing {}: {e}", path.display());
    }
}

/// The checkpoint layer on a workload whose loop never checkpoints: saves
/// the trainer to `path`, reloads it, checks the reload is the same state,
/// and reports the `core.ckpt_*` metrics.
pub fn ckpt_probe(report: &mut Report, trainer: &mut Trainer, path: &Path) {
    let t = Instant::now();
    let saved = trainer.save(path);
    let save_ms = ms(t.elapsed());
    report.op(saved.is_ok(), || {
        format!("checkpoint save failed: {saved:?}")
    });
    let mb = std::fs::metadata(path).map_or(0.0, |m| m.len() as f64 / (1 << 20) as f64);
    let t = Instant::now();
    let loaded = Trainer::load(path);
    let load_ms = ms(t.elapsed());
    let same = match loaded {
        Ok(mut back) => {
            back.step_count() == trainer.step_count()
                && crate::report::param_fingerprint(&mut back.model)
                    == crate::report::param_fingerprint(&mut trainer.model)
        }
        Err(_) => false,
    };
    report.op(same, || {
        "checkpoint reload differs from the saved trainer".into()
    });
    let _ = std::fs::remove_file(path);
    report.metric("core.ckpt_load_ms", "ms", load_ms, 1);
    report.metric("core.ckpt_save_ms", "ms", save_ms, 1);
    report.metric("core.ckpt_mb", "MiB", mb, 1);
}

/// One SNIP update's Steps 1–5 run directly: `probe::measure`,
/// `divergence::analyze`, and `snip_ilp::solve` on the instance
/// `decide_scheme` builds.
pub struct UpdateProbe {
    pub probe_ms: f64,
    pub analyze_ms: f64,
    pub solve_ms: f64,
    pub nodes: u64,
    pub proven_optimal: bool,
    pub objective: f64,
}

///
/// Uses `snip-adapt`'s engine settings (FP8/FP4 options, its ILP policy,
/// the default probe noise).
pub fn update_probes(
    report: &mut Report,
    trainer: &mut Trainer,
    rng: &mut Rng,
    count: usize,
) -> Vec<UpdateProbe> {
    let policy = crate::adapt::policy();
    let options = OptionSet::fp8_fp4();
    let epsilon = SnipConfig::default().probe_epsilon;
    let model_cfg = trainer.config().model.clone();
    let flops = FlopModel::new(&model_cfg);
    (0..count)
        .map(|_| {
            let batch = trainer.peek_batch();
            let t = Instant::now();
            let m = measure(&mut trainer.model, &trainer.optimizer, &batch, rng, epsilon);
            let probe_ms = ms(t.elapsed());
            let t = Instant::now();
            let a = analyze(&m, &model_cfg, &options, &flops);
            let analyze_ms = ms(t.elapsed());
            let groups: Vec<Vec<Choice>> = a
                .quality
                .iter()
                .zip(&a.efficiency)
                .map(|(q, e)| q.iter().zip(e).map(|(&q, &e)| Choice::new(q, e)).collect())
                .collect();
            let problem = McKnapsack::new(groups, policy.target_fp4);
            let opts = SolveOptions {
                time_limit: Duration::from_millis(policy.time_limit_ms),
            };
            let t = Instant::now();
            let solved = solve(&problem, &opts);
            let solve_ms = ms(t.elapsed());
            report.op(solved.is_ok(), || format!("ILP solve failed: {solved:?}"));
            let (nodes, proven_optimal, objective) = solved
                .map(|s| (s.nodes, s.proven_optimal, s.objective))
                .unwrap_or((0, false, 0.0));
            UpdateProbe {
                probe_ms,
                analyze_ms,
                solve_ms,
                nodes,
                proven_optimal,
                objective,
            }
        })
        .collect()
}

/// Reports the controller metrics. `natural` holds what the workload's own
/// engine loop measured (probe time per update, stall per update, update
/// latency); without an engine the direct probes stand in, with a zero-lag
/// stall (Steps 4–5 block training for their full length).
pub fn report_controller(
    report: &mut Report,
    probes: &[UpdateProbe],
    natural: Option<(&[f64], &[f64], &[f64])>,
    step_ms: f64,
) {
    let col = |f: fn(&UpdateProbe) -> f64| probes.iter().map(f).collect::<Vec<_>>();
    let direct_probe = col(|p| p.probe_ms);
    let analyze_ms = col(|p| p.analyze_ms);
    let solve_ms = col(|p| p.solve_ms);
    let zero_lag_stall: Vec<f64> = probes.iter().map(|p| p.analyze_ms + p.solve_ms).collect();
    let zero_lag_update: Vec<f64> = probes
        .iter()
        .map(|p| (p.probe_ms + p.analyze_ms + p.solve_ms) / 1e3)
        .collect();
    let (probe_ms, stall_ms, update_s) = match natural {
        Some((probe, stall, update)) => (probe.to_vec(), stall.to_vec(), update.to_vec()),
        None => (direct_probe, zero_lag_stall, zero_lag_update),
    };
    let n = probes.len();
    report.metric("core.probe_ms", "ms", median(&probe_ms), probe_ms.len());
    report.metric(
        "core.probe_step_ratio",
        "steps",
        median(&probe_ms) / step_ms,
        probe_ms.len(),
    );
    report.metric("core.analyze_ms", "ms", median(&analyze_ms), n);
    report.metric(
        "core.stall_ms_per_update",
        "ms",
        median(&stall_ms),
        stall_ms.len(),
    );
    report.metric("core.snip_update_s", "s", median(&update_s), update_s.len());
    report.metric("ilp.solve_ms", "ms", median(&solve_ms), n);
    report.metric(
        "ilp.nodes",
        "count",
        median(&probes.iter().map(|p| p.nodes as f64).collect::<Vec<_>>()),
        n,
    );
    report.metric(
        "ilp.proven_optimal_frac",
        "frac",
        probes.iter().filter(|p| p.proven_optimal).count() as f64 / n.max(1) as f64,
        n,
    );
    report.metric(
        "ilp.objective",
        "quality",
        median(&probes.iter().map(|p| p.objective).collect::<Vec<_>>()),
        n,
    );
}

/// What one process-DP launch moved, per step.
pub struct LaunchTraffic {
    pub frames: f64,
    pub payload: f64,
    pub envelope: f64,
    pub replica_drift: f64,
}

/// Payload bytes one DP step must move by the `comm::codec_wire_bytes`
/// accounting: every parameter tensor is ring all-reduced, and in a ring of
/// `w` ranks each chunk crosses `w − 1` links in the reduce-scatter and
/// `w − 1` in the all-gather.
pub fn expected_payload_per_step(model: &mut Model, wire: &Wire, world: usize) -> u64 {
    let codec = wire
        .codec()
        .expect("the benchmark's wires are packed codecs");
    let mut total = 0u64;
    model.visit_params_mut(&mut |p| {
        let n = p.value().len();
        for (lo, hi) in chunk_bounds(n, world) {
            total += 2 * (world as u64 - 1) * codec_wire_bytes(codec, 1, hi - lo, wire.bits());
        }
    });
    total
}

/// Checks one process-DP launch's outputs: finite losses, both sides of
/// every link agreeing, and the payload equal to the analytic accounting.
/// Returns the traffic per step and the replicas' drift.
pub fn check_dp_launch(
    report: &mut Report,
    run: &ProcDpTrain,
    steps: u64,
    expected_per_step: u64,
) -> LaunchTraffic {
    let finite = run.losses.iter().flatten().all(|l| l.is_finite());
    report.op(finite, || "a DP rank reported a non-finite loss".into());
    let shapes = run.params.windows(2).all(|w| w[0].len() == w[1].len());
    report.op(shapes, || {
        "DP ranks ended with different parameter counts".into()
    });
    report.op(run.stats.two_sided(), || {
        "DP link counters disagree between sender and receiver".into()
    });
    let payload = run.stats.total_payload_bytes();
    report.op(payload == expected_per_step * steps, || {
        format!(
            "DP payload {payload} B != codec_wire_bytes accounting {} B",
            expected_per_step * steps
        )
    });
    let s = steps.max(1) as f64;
    LaunchTraffic {
        frames: run.stats.total_frames() as f64 / s,
        payload: payload as f64 / s,
        envelope: run.stats.total_envelope_bytes() as f64 / s,
        replica_drift: replica_drift(&run.params),
    }
}

/// Largest parameter difference between any rank and rank 0, relative to
/// rank 0's largest magnitude. Under `QuantizePolicy::EveryHop` with a lossy
/// wire each rank keeps its own reduced chunk unquantized while its peers
/// receive the wire-decoded copy, so replicas drift apart by design; the
/// benchmark measures how far.
fn replica_drift(params: &[Vec<f32>]) -> f64 {
    let Some(base) = params.first() else {
        return 0.0;
    };
    let scale = base
        .iter()
        .fold(0.0f32, |m, v| m.max(v.abs()))
        .max(f32::MIN_POSITIVE);
    let diff = params[1..]
        .iter()
        .flat_map(|p| p.iter().zip(base).map(|(a, b)| (a - b).abs()))
        .fold(0.0f32, f32::max);
    f64::from(diff / scale)
}

/// One timed process-DP launch of `cfgs` for `steps` steps.
pub fn dp_launch(
    report: &mut Report,
    cfgs: &[TrainerConfig],
    steps: u64,
    wire: &Wire,
    comm_seed: u64,
) -> Option<(f64, ProcDpTrain)> {
    let t = Instant::now();
    let run = proc_data_parallel_train(cfgs, steps, wire, QuantizePolicy::EveryHop, comm_seed);
    let wall = ms(t.elapsed());
    report.op(run.is_ok(), || {
        format!("process DP launch failed: {:?}", run.as_ref().err())
    });
    run.ok().map(|r| (wall, r))
}

/// Reports the pipeline metrics from a launch time, one launch's traffic
/// and the exposed communication per step.
pub fn report_pipeline(
    report: &mut Report,
    launch_ms: &[f64],
    traffic: &LaunchTraffic,
    exposed_comm_ms: f64,
    samples: usize,
) {
    report.metric(
        "pipeline.launch_ms",
        "ms",
        median(launch_ms),
        launch_ms.len(),
    );
    report.metric("pipeline.frames_per_step", "count", traffic.frames, samples);
    report.metric(
        "pipeline.payload_bytes_per_step",
        "B",
        traffic.payload,
        samples,
    );
    report.metric(
        "pipeline.envelope_frac",
        "frac",
        traffic.envelope / (traffic.payload + traffic.envelope).max(1.0),
        samples,
    );
    report.metric(
        "pipeline.exposed_comm_ms_per_step",
        "ms",
        exposed_comm_ms,
        samples,
    );
    report.metric(
        "pipeline.replica_drift",
        "frac",
        traffic.replica_drift,
        samples,
    );
}

/// The process-DP outcome must equal the threaded backend's bit for bit:
/// per-rank losses and per-rank final parameters (the transports' shared
/// contract). Runs the threaded reference untimed.
pub fn check_against_threads(
    report: &mut Report,
    cfgs: &[TrainerConfig],
    run: &ProcDpTrain,
    steps: u64,
    wire: &Wire,
    comm_seed: u64,
) {
    let trainers: Result<Vec<Trainer>, String> =
        cfgs.iter().map(|c| Trainer::new(c.clone())).collect();
    let Ok(trainers) = trainers else {
        report.op(false, || "trainer config rejected".into());
        return;
    };
    let (mut trained, losses, _) =
        data_parallel_train(trainers, steps, wire, QuantizePolicy::EveryHop, comm_seed);
    report.op(losses == run.losses, || {
        "process DP losses differ from the threaded run".into()
    });
    let same = trained.iter_mut().zip(&run.params).all(|(t, p)| {
        let mut flat = Vec::with_capacity(p.len());
        t.model
            .visit_params_mut(&mut |param| flat.extend_from_slice(param.value().as_slice()));
        flat.len() == p.len() && flat.iter().zip(p).all(|(a, b)| a.to_bits() == b.to_bits())
    });
    report.op(same, || {
        "process DP parameters differ from the threaded run".into()
    });
}

/// The pipeline layer for a single-rank workload: its own trainer config
/// run as 2-rank process DP (BF16 compute, FP8 wire, one pool thread per
/// rank) for a few steps, against the same config stepped alone on one
/// thread.
pub fn pipeline_probe(report: &mut Report, cfg: &TrainerConfig, comm_seed: u64, steps: u64) {
    let cfgs: Vec<TrainerConfig> = (0..2u64)
        .map(|r| TrainerConfig {
            data_seed: cfg.data_seed.wrapping_add(r),
            ..cfg.clone()
        })
        .collect();
    let wire = Wire::fp8(16);
    let mut model = match Model::new(cfg.model.clone(), cfg.init_seed) {
        Ok(m) => m,
        Err(e) => {
            report.op(false, || format!("model config: {e}"));
            return;
        }
    };
    let expected = expected_payload_per_step(&mut model, &wire, 2);
    let launches: Vec<f64> = (0..3)
        .filter_map(|_| dp_launch(report, &cfgs, 0, &wire, comm_seed).map(|(w, _)| w))
        .collect();
    let Some((wall, run)) = dp_launch(report, &cfgs, steps, &wire, comm_seed) else {
        return;
    };
    let traffic = check_dp_launch(report, &run, steps, expected);
    let dp_step_ms = (wall - median(&launches)) / steps as f64;
    let solo_ms = solo_step_ms(report, &cfgs[0], steps);
    report_pipeline(
        report,
        &launches,
        &traffic,
        dp_step_ms - solo_ms,
        steps as usize,
    );
}

/// Median wall time of `steps` steps of a fresh trainer for `cfg` (the
/// untraced per-rank compute a DP step would hide its comm behind).
pub fn solo_step_ms(report: &mut Report, cfg: &TrainerConfig, steps: u64) -> f64 {
    let Ok(mut t) = Trainer::new(cfg.clone()) else {
        report.op(false, || "trainer config rejected".into());
        return 0.0;
    };
    let times: Vec<f64> = (0..steps)
        .map(|_| {
            let s = Instant::now();
            let loss = t.train_step();
            report.op(loss.is_finite(), || "non-finite solo loss".into());
            ms(s.elapsed())
        })
        .collect();
    median(&times)
}
