//! `fp4-resume`: one rank resumes a BF16 checkpoint under uniform FP4 and
//! trains at the GEMM-bench width, saving a checkpoint inside the timed
//! window (the paper's resume-from-checkpoint protocol, §6.1).

use crate::layers::{self, StepSpan};
use crate::report::{derive_seed, median, ms, param_fingerprint, peak_rss_mb, Report, Stamp};
use crate::{final_loss, trace_checks, Args, Budget, EndToEnd, WORK_DIR};
use snip_core::{FlopModel, Scheme, Trainer, TrainerConfig};
use snip_nn::ModelConfig;
use snip_optim::{AdamWConfig, LrSchedule, MomentPrecision};
use snip_quant::Precision;
use snip_tensor::rng::Rng;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// BF16 steps taken before the checkpoint is written.
const PRETRAIN_STEPS: u64 = 4;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// `final_loss` is read over the 10 steps ending here.
const FINAL_STEP: usize = 40;

pub fn config(seed: u64) -> TrainerConfig {
    TrainerConfig {
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
        data_seed: derive_seed(seed, 1),
        init_seed: derive_seed(seed, 2),
        language: Default::default(),
    }
}

fn fp4_scheme(t: &Trainer) -> Scheme {
    Scheme::uniform(Precision::Fp4, t.config().model.n_linear_layers())
}

/// Loads the checkpoint, applies FP4 and takes the warm-up step. Returns
/// the trainer, the setup time, the load time and the warm-up step's loss
/// and parameter fingerprint.
fn setup(report: &mut Report, path: &Path) -> Option<(Trainer, f64, f64, f64, u64)> {
    let t = Instant::now();
    let loaded = Trainer::load(path);
    let load_ms = ms(t.elapsed());
    report.op(loaded.is_ok(), || {
        format!("checkpoint load failed: {:?}", loaded.as_ref().err())
    });
    let mut trainer = loaded.ok()?;
    trainer.apply_scheme(&fp4_scheme(&trainer));
    let loss = trainer.train_step();
    let setup_s = t.elapsed().as_secs_f64();
    let fp = param_fingerprint(&mut trainer.model);
    Some((trainer, setup_s, load_ms, loss, fp))
}

struct Window {
    losses: Vec<f64>,
    step_ms: Vec<f64>,
    spans: Vec<StepSpan>,
    save_ms: f64,
    secs: f64,
    /// Share of `secs` the vCPUs ran (see `Report::clocks`).
    net: f64,
}

/// Trains within `budget`, then saves a checkpoint; the save is inside the
/// window (`save_est_s` reserves time for it).
fn window(
    report: &mut Report,
    trainer: &mut Trainer,
    budget: Budget,
    save_est_s: f64,
    out: &Path,
) -> Window {
    let mut w = Window {
        losses: Vec::new(),
        step_ms: Vec::new(),
        spans: Vec::new(),
        save_ms: 0.0,
        secs: 0.0,
        net: 1.0,
    };
    let start = Instant::now();
    let stamp = crate::report::Stamp::now();
    while !budget.done(w.losses.len(), start.elapsed().as_secs_f64(), save_est_s) {
        let t = Instant::now();
        let (o, span) = layers::step(trainer, &mut |_| {});
        w.step_ms.push(ms(t.elapsed()));
        report.op(o.loss.is_finite(), || {
            format!("non-finite loss at step {}", trainer.step_count())
        });
        w.losses.push(o.loss);
        w.spans.extend(span);
    }
    let t = Instant::now();
    let saved = trainer.save(out);
    w.save_ms = ms(t.elapsed());
    report.op(saved.is_ok(), || {
        format!("in-window checkpoint save failed: {saved:?}")
    });
    w.secs = start.elapsed().as_secs_f64();
    w.net = report.clocks("window", &stamp);
    w
}

pub fn run(report: &mut Report, args: &Args) {
    let cfg = config(args.seed);
    let tokens_per_step = (cfg.batch_size * cfg.seq_len) as f64;
    let ckpt = PathBuf::from(WORK_DIR).join(format!("fp4-resume-s{}.json", args.seed));
    let out = PathBuf::from(WORK_DIR).join(format!("fp4-resume-s{}-out.json", args.seed));

    // Untimed: write the BF16 checkpoint, and take the writer's own first
    // FP4 step as the reference every resumed trainer must match.
    let Ok(mut writer) = Trainer::new(cfg.clone()) else {
        report.op(false, || "trainer config rejected".into());
        return;
    };
    for _ in 0..PRETRAIN_STEPS {
        let loss = writer.train_step();
        report.op(loss.is_finite(), || {
            "non-finite BF16 pretraining loss".into()
        });
    }
    let t = Instant::now();
    let saved = writer.save(&ckpt);
    let save_est_s = t.elapsed().as_secs_f64();
    report.op(saved.is_ok(), || {
        format!("checkpoint write failed: {saved:?}")
    });
    writer.apply_scheme(&fp4_scheme(&writer));
    let ref_loss = writer.train_step();
    let ref_fp = param_fingerprint(&mut writer.model);
    drop(writer);

    let stamp = Stamp::now();
    let mut setup_s = Vec::new();
    let mut load_ms = Vec::new();
    let mut resumed = None;
    for _ in 0..SETUPS {
        resumed = None; // free the previous trainer before the next load
        let Some((t, secs, load, loss, fp)) = setup(report, &ckpt) else {
            continue;
        };
        report.op(loss.to_bits() == ref_loss.to_bits() && fp == ref_fp, || {
            format!("resumed first step {loss} differs from the writer's {ref_loss}")
        });
        setup_s.push(secs);
        load_ms.push(load);
        resumed = Some(t);
    }
    let setup_net = report.clocks("setup", &stamp);
    let Some(mut trainer) = resumed else { return };

    if !args.trace {
        let budget = Budget::Seconds {
            secs: args.seconds,
            min_steps: FINAL_STEP,
        };
        let w = window(report, &mut trainer, budget, save_est_s, &out);
        let _ = std::fs::remove_file(&out);
        let _ = std::fs::remove_file(&ckpt);
        report.note("ckpt_save_ms", w.save_ms);
        EndToEnd {
            tokens: w.losses.len() as f64 * tokens_per_step,
            window_s: w.secs,
            window_net: w.net,
            step_ms: w.step_ms,
            setup_s,
            setup_net,
            final_loss: final_loss(&w.losses, FINAL_STEP),
            peak_rss_mb: peak_rss_mb(0),
        }
        .report(report);
        return;
    }

    // Traced run: an untraced pass over half the window, then a fresh
    // resume stepped the same number of times with collection on.
    let budget = Budget::Seconds {
        secs: args.seconds / 2.0,
        min_steps: FINAL_STEP,
    };
    let plain = window(report, &mut trainer, budget, save_est_s, &out);
    drop(trainer);
    let Some((mut trainer, ..)) = setup(report, &ckpt) else {
        return;
    };
    let traced = {
        let _on = snip_obs::enabled_scope(true);
        window(
            report,
            &mut trainer,
            Budget::Steps(plain.losses.len()),
            save_est_s,
            &out,
        )
    };
    let ckpt_mb = std::fs::metadata(&out).map_or(0.0, |m| m.len() as f64 / (1 << 20) as f64);
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_file(&ckpt);
    let tps = |w: &Window| w.losses.len() as f64 * tokens_per_step / (w.secs * w.net);
    trace_checks(
        report,
        &plain.losses,
        &traced.losses,
        traced.losses.len(),
        tps(&plain),
        tps(&traced),
    );

    let data_ms = layers::batch_ms(&cfg, traced.losses.len());
    let wall_ms = crate::report::mean(&traced.step_ms);
    layers::report_step_layers(
        report,
        &format!("fp4-resume-s{}", args.seed),
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
    report.metric("core.ckpt_load_ms", "ms", median(&load_ms), load_ms.len());
    report.metric("core.ckpt_save_ms", "ms", traced.save_ms, 1);
    report.metric("core.ckpt_mb", "MiB", ckpt_mb, 1);
    let flops = FlopModel::new(&cfg.model);
    report.metric(
        "core.fp4_flop_frac",
        "frac",
        flops.scheme_fp4_fraction(fp4_scheme(&trainer).assignments()),
        1,
    );
    // Layers this workload's loop does not call, measured once on its own
    // model: a SNIP update, and the config run as 2-rank process DP.
    let mut rng = Rng::seed_from(derive_seed(args.seed, 4));
    let probes = layers::update_probes(report, &mut trainer, &mut rng, 2);
    layers::report_controller(report, &probes, None, median(&traced.step_ms));
    layers::pipeline_probe(report, &cfg, derive_seed(args.seed, 3), 2);
}
