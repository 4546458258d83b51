//! `snip-adapt`: one rank trains the 22-block TinyLlama stand-in under the
//! SNIP engine (FP8/FP4 options, `target_fp4` 0.75, flat ILP) on a
//! fixed-lag schedule: `submit` every `PERIOD` steps, and exactly `LAG`
//! steps later `collect_blocking` + `apply_scheme`, so every scheme lands
//! at a deterministic step.

use crate::layers::{self, StepSpan};
use crate::report::{derive_seed, median, ms, peak_rss_mb, Report, Stamp};
use crate::{final_loss, trace_checks, Args, Budget, EndToEnd, WORK_DIR};
use snip_core::{
    FlopModel, OptionSet, PolicyConfig, SnipConfig, SnipEngine, Trainer, TrainerConfig,
};
use snip_nn::ModelConfig;
use snip_optim::{AdamWConfig, LrSchedule};
use snip_quant::LinearPrecision;
use snip_tensor::rng::Rng;
use std::path::PathBuf;
use std::time::Instant;

/// Steps between `submit`s.
const PERIOD: u64 = 25;
/// Steps from `submit` to the landing step.
const LAG: u64 = 5;
/// The FP4 FLOP share every scheme must reach.
pub const TARGET_FP4: f64 = 0.75;
/// ILP wall-clock budget. The paper's 30 s does not fit a run; at this
/// size the flat solve needs 1–15 s to prove optimality, so the budget
/// binds on most updates and the solver's quality shows in
/// `ilp.proven_optimal_frac` / `ilp.objective`, its cost in the stall.
pub const ILP_LIMIT_MS: u64 = 1_000;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 9;
const FINAL_STEP: usize = 150;

pub fn config(seed: u64) -> TrainerConfig {
    TrainerConfig {
        model: ModelConfig::tinyllama_1b_sim(),
        adamw: AdamWConfig {
            lr: 2e-3,
            ..Default::default()
        },
        schedule: LrSchedule::Constant { lr: 2e-3 },
        batch_size: 4,
        seq_len: 64,
        grad_clip: Some(1.0),
        data_seed: derive_seed(seed, 1),
        init_seed: derive_seed(seed, 2),
        language: Default::default(),
    }
}

pub fn policy() -> PolicyConfig {
    PolicyConfig {
        target_fp4: TARGET_FP4,
        time_limit_ms: ILP_LIMIT_MS,
        ..Default::default()
    }
}

fn new_engine(cfg: &TrainerConfig) -> SnipEngine {
    SnipEngine::new(
        SnipConfig {
            policy: policy(),
            options: OptionSet::fp8_fp4(),
            update_period: PERIOD,
            ..Default::default()
        },
        cfg.model.clone(),
    )
}

fn setup(report: &mut Report, cfg: &TrainerConfig) -> Option<(Trainer, SnipEngine, f64)> {
    let t = Instant::now();
    let built = Trainer::new(cfg.clone());
    report.op(built.is_ok(), || "trainer config rejected".into());
    let mut trainer = built.ok()?;
    let engine = new_engine(cfg);
    let loss = trainer.train_step();
    report.op(loss.is_finite(), || "non-finite warm-up loss".into());
    Some((trainer, engine, t.elapsed().as_secs_f64()))
}

#[derive(Default)]
struct Window {
    losses: Vec<f64>,
    step_ms: Vec<f64>,
    spans: Vec<StepSpan>,
    secs: f64,
    /// Share of `secs` the vCPUs ran (see `Report::clocks`).
    net: f64,
    /// Per update: probe time on the training thread (ms), time blocked
    /// in `collect_blocking` (ms), and submit-to-ready latency (s).
    probe_ms: Vec<f64>,
    stall_ms: Vec<f64>,
    update_s: Vec<f64>,
    /// Each landed scheme with the step index it landed at.
    landed: Vec<(u64, Vec<LinearPrecision>)>,
    last_fp4_frac: f64,
}

struct Pending {
    due: u64,
    submitted: Instant,
    ready: Option<(Result<snip_core::Scheme, String>, Instant)>,
}

fn window(
    report: &mut Report,
    trainer: &mut Trainer,
    engine: &SnipEngine,
    budget: Budget,
    seed: u64,
) -> Window {
    let flops = FlopModel::new(&trainer.config().model);
    let mut probe_rng = Rng::seed_from(derive_seed(seed, 4));
    let mut w = Window::default();
    let mut pending: Option<Pending> = None;
    let start = Instant::now();
    let stamp = crate::report::Stamp::now();
    loop {
        let idle = pending.is_none();
        if idle && budget.done(w.losses.len(), start.elapsed().as_secs_f64(), 0.0) {
            break;
        }
        let step = trainer.step_count();
        if idle && step.is_multiple_of(PERIOD) {
            let batch = trainer.peek_batch();
            let submitted = Instant::now();
            engine.submit(
                &mut trainer.model,
                &trainer.optimizer,
                &batch,
                &mut probe_rng,
                format!("snip@step{step}"),
            );
            w.probe_ms.push(ms(submitted.elapsed()));
            pending = Some(Pending {
                due: step + LAG,
                submitted,
                ready: None,
            });
        }
        if let Some(p) = pending.as_mut() {
            if p.ready.is_none() {
                p.ready = engine.try_collect().map(|r| (r, Instant::now()));
            }
            if step == p.due {
                let mut stall = 0.0;
                if p.ready.is_none() {
                    let t = Instant::now();
                    let r = engine
                        .collect_blocking()
                        .unwrap_or_else(|| Err("engine worker is gone".into()));
                    stall = ms(t.elapsed());
                    p.ready = Some((r, Instant::now()));
                }
                let (result, ready) = p.ready.take().expect("set above");
                w.stall_ms.push(stall);
                w.update_s
                    .push(ready.duration_since(p.submitted).as_secs_f64());
                match result {
                    Ok(scheme) => {
                        let frac = flops.scheme_fp4_fraction(scheme.assignments());
                        report.op(frac >= TARGET_FP4 - 1e-9, || {
                            format!("scheme at step {step} reaches FP4 share {frac} < {TARGET_FP4}")
                        });
                        trainer.apply_scheme(&scheme);
                        let landed = trainer.step_count();
                        report.op(
                            landed == p.due && trainer.model.scheme() == scheme.assignments(),
                            || format!("scheme due at step {} landed at {landed}", p.due),
                        );
                        w.landed.push((landed, scheme.assignments().to_vec()));
                        w.last_fp4_frac = frac;
                    }
                    Err(e) => report.op(false, || format!("SNIP update failed: {e}")),
                }
                pending = None;
            }
        }
        let t = Instant::now();
        let (o, span) = layers::step(trainer, &mut |_| {});
        w.step_ms.push(ms(t.elapsed()));
        report.op(o.loss.is_finite(), || {
            format!("non-finite loss at step {step}")
        });
        w.losses.push(o.loss);
        w.spans.extend(span);
    }
    w.secs = start.elapsed().as_secs_f64();
    w.net = report.clocks("window", &stamp);
    w
}

fn report_updates(report: &mut Report, w: &Window) {
    report.note(
        "updates",
        format!(
            "{} landed; probe {:.1} ms, stall {:.1} ms, submit-to-ready {:.3} s (medians); last FP4 share {:.4}",
            w.landed.len(),
            median(&w.probe_ms),
            median(&w.stall_ms),
            median(&w.update_s),
            w.last_fp4_frac
        ),
    );
}

pub fn run(report: &mut Report, args: &Args) {
    let cfg = config(args.seed);
    let tokens_per_step = (cfg.batch_size * cfg.seq_len) as f64;
    let stamp = Stamp::now();
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        built = None;
        if let Some((t, e, secs)) = setup(report, &cfg) {
            setup_s.push(secs);
            built = Some((t, e));
        }
    }
    let setup_net = report.clocks("setup", &stamp);
    let Some((mut trainer, engine)) = built else {
        return;
    };
    // Untimed: a first SNIP update, so every timed step runs a SNIP scheme
    // (BF16 warm-up steps would form a second, twice-as-fast mode that the
    // step-time median straddles).
    let batch = trainer.peek_batch();
    let mut rng = Rng::seed_from(derive_seed(args.seed, 6));
    let first = engine.generate_scheme_sync(
        &mut trainer.model,
        &trainer.optimizer,
        &batch,
        &mut rng,
        "snip@setup",
    );
    match first {
        Ok(scheme) => {
            let frac = FlopModel::new(&cfg.model).scheme_fp4_fraction(scheme.assignments());
            report.op(frac >= TARGET_FP4 - 1e-9, || {
                format!("first scheme reaches FP4 share {frac} < {TARGET_FP4}")
            });
            trainer.apply_scheme(&scheme);
        }
        Err(e) => report.op(false, || format!("first SNIP update failed: {e}")),
    }
    let start = trainer.clone();
    let budget = Budget::Seconds {
        secs: if args.trace {
            args.seconds / 2.0
        } else {
            args.seconds
        },
        min_steps: FINAL_STEP,
    };
    let plain = window(report, &mut trainer, &engine, budget, args.seed);
    report_updates(report, &plain);
    report.op(!plain.landed.is_empty(), || {
        "no SNIP update landed in the window".into()
    });
    if !args.trace {
        EndToEnd {
            tokens: plain.losses.len() as f64 * tokens_per_step,
            window_s: plain.secs,
            window_net: plain.net,
            step_ms: plain.step_ms,
            setup_s,
            setup_net,
            final_loss: final_loss(&plain.losses, FINAL_STEP),
            peak_rss_mb: peak_rss_mb(0),
        }
        .report(report);
        return;
    }

    // Traced run: the same starting state with a fresh engine, stepped the
    // same number of times with collection on. The ILP's wall-clock budget
    // may pick a different incumbent per pass, so the zero-bit comparison
    // covers the steps before the first landing whose scheme differs.
    drop((trainer, engine));
    let mut trainer = start;
    let engine = new_engine(&cfg);
    let traced = {
        let _on = snip_obs::enabled_scope(true);
        window(
            report,
            &mut trainer,
            &engine,
            Budget::Steps(plain.losses.len()),
            args.seed,
        )
    };
    drop(engine);
    let compare = plain
        .landed
        .iter()
        .zip(&traced.landed)
        .find(|(a, b)| a != b)
        .map_or(traced.losses.len(), |(a, _)| (a.0 - 1) as usize);
    let tps = |w: &Window| w.losses.len() as f64 * tokens_per_step / (w.secs * w.net);
    trace_checks(
        report,
        &plain.losses,
        &traced.losses,
        compare,
        tps(&plain),
        tps(&traced),
    );

    let data_ms = layers::batch_ms(&cfg, traced.losses.len());
    let wall_ms = crate::report::mean(&traced.step_ms);
    layers::report_step_layers(
        report,
        &format!("snip-adapt-s{}", args.seed),
        &cfg,
        &traced.spans,
        data_ms,
        0.0,
        wall_ms,
    );
    report.metric(
        "optim.moment_mb",
        "MiB",
        trainer.optimizer.moment_state_bytes() as f64 / (1 << 20) as f64,
        1,
    );
    let ckpt = PathBuf::from(WORK_DIR).join(format!("snip-adapt-s{}.json", args.seed));
    layers::ckpt_probe(report, &mut trainer, &ckpt);
    report.metric(
        "core.fp4_flop_frac",
        "frac",
        plain.last_fp4_frac,
        plain.landed.len(),
    );
    let mut rng = Rng::seed_from(derive_seed(args.seed, 5));
    let probes = layers::update_probes(report, &mut trainer, &mut rng, 2);
    layers::report_controller(
        report,
        &probes,
        Some((&plain.probe_ms, &plain.stall_ms, &plain.update_s)),
        median(&plain.step_ms),
    );
    layers::pipeline_probe(report, &cfg, derive_seed(args.seed, 3), 3);
}
