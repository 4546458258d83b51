//! `dp2-proc`: two rank processes over the socket fabric
//! (`proc::proc_data_parallel_train`), one pool thread each, BF16 compute
//! and an FP8 wire quantized at every ring hop. Each launch trains
//! `STEPS_PER_LAUNCH` steps from the config; a step's time is the launch's
//! wall minus the median empty launch, over its step count.

use crate::layers::{self, LaunchTraffic};
use crate::report::{derive_seed, median, ms, peak_rss_mb, Report, Stamp};
use crate::{final_loss, trace_checks, Args, Budget, EndToEnd, WORK_DIR};
use snip_core::{FlopModel, Trainer, TrainerConfig};
use snip_nn::{Model, ModelConfig};
use snip_optim::{AdamWConfig, LrSchedule};
use snip_pipeline::collective::Wire;
use snip_tensor::rng::Rng;
use std::path::PathBuf;
use std::time::Instant;

const WORLD: usize = 2;
const STEPS_PER_LAUNCH: u64 = 16;
/// Empty launches per run; `setup_s` is their median.
const SETUPS: usize = 9;

pub fn rank_configs(seed: u64) -> Vec<TrainerConfig> {
    (0..WORLD as u64)
        .map(|r| TrainerConfig {
            model: ModelConfig::tinyllama_1b_sim(),
            adamw: AdamWConfig {
                lr: 2e-3,
                ..Default::default()
            },
            schedule: LrSchedule::Constant { lr: 2e-3 },
            batch_size: 4,
            seq_len: 64,
            grad_clip: Some(1.0),
            data_seed: derive_seed(seed, 1).wrapping_add(r),
            init_seed: derive_seed(seed, 2),
            language: Default::default(),
        })
        .collect()
}

struct Window {
    /// Per launch: per-step time (ms) and the ranks' mean final loss.
    step_ms: Vec<f64>,
    final_loss: Vec<f64>,
    launches: usize,
    traffic: Option<LaunchTraffic>,
    first: Option<snip_pipeline::transport::proc::ProcDpTrain>,
    secs: f64,
    /// Share of `secs` the vCPUs ran (see `Report::clocks`).
    net: f64,
}

fn window(
    report: &mut Report,
    cfgs: &[TrainerConfig],
    wire: &Wire,
    comm_seed: u64,
    expected: u64,
    empty_ms: f64,
    budget: Budget,
) -> Window {
    let mut w = Window {
        step_ms: Vec::new(),
        final_loss: Vec::new(),
        launches: 0,
        traffic: None,
        first: None,
        secs: 0.0,
        net: 1.0,
    };
    let mut first: Option<snip_pipeline::transport::proc::ProcDpTrain> = None;
    let start = Instant::now();
    let stamp = crate::report::Stamp::now();
    while !budget.done(w.launches, start.elapsed().as_secs_f64(), 0.0) {
        w.launches += 1;
        let Some((wall, run)) = layers::dp_launch(report, cfgs, STEPS_PER_LAUNCH, wire, comm_seed)
        else {
            continue;
        };
        w.traffic = Some(layers::check_dp_launch(
            report,
            &run,
            STEPS_PER_LAUNCH,
            expected,
        ));
        // Every launch trains the same configs: the outcome must repeat.
        w.step_ms.push((wall - empty_ms) / STEPS_PER_LAUNCH as f64);
        let per_rank: Vec<f64> = run.losses.iter().map(|l| final_loss(l, l.len())).collect();
        w.final_loss.push(crate::report::mean(&per_rank));
        match &first {
            None => first = Some(run),
            Some(f) => report.op(f.losses == run.losses && f.params == run.params, || {
                "a repeated DP launch produced a different outcome".into()
            }),
        }
    }
    w.first = first;
    w.secs = start.elapsed().as_secs_f64();
    w.net = report.clocks("window", &stamp);
    w
}

pub fn run(report: &mut Report, args: &Args) {
    let cfgs = rank_configs(args.seed);
    let comm_seed = derive_seed(args.seed, 3);
    let wire = Wire::fp8(16);
    let tokens_per_launch =
        (WORLD * cfgs[0].batch_size * cfgs[0].seq_len) as f64 * STEPS_PER_LAUNCH as f64;
    let expected = match Model::new(cfgs[0].model.clone(), cfgs[0].init_seed) {
        Ok(mut m) => layers::expected_payload_per_step(&mut m, &wire, WORLD),
        Err(e) => {
            report.op(false, || format!("model config: {e}"));
            return;
        }
    };
    let stamp = Stamp::now();
    let setup_ms: Vec<f64> = (0..SETUPS)
        .filter_map(|_| {
            let (wall, run) = layers::dp_launch(report, &cfgs, 0, &wire, comm_seed)?;
            layers::check_dp_launch(report, &run, 0, expected);
            Some(wall)
        })
        .collect();
    let setup_net = report.clocks("setup", &stamp);
    if setup_ms.is_empty() {
        return;
    }
    let empty_ms = median(&setup_ms);
    let budget = |secs: f64| Budget::Seconds { secs, min_steps: 1 };
    if !args.trace {
        let w = window(
            report,
            &cfgs,
            &wire,
            comm_seed,
            expected,
            empty_ms,
            budget(args.seconds),
        );
        if let Some(first) = &w.first {
            layers::check_against_threads(report, &cfgs, first, STEPS_PER_LAUNCH, &wire, comm_seed);
        }
        EndToEnd {
            tokens: w.launches as f64 * tokens_per_launch,
            window_s: w.secs,
            window_net: w.net,
            step_ms: w.step_ms,
            setup_s: setup_ms.iter().map(|m| m / 1e3).collect(),
            setup_net,
            final_loss: median(&w.final_loss),
            peak_rss_mb: peak_rss_mb(WORLD),
        }
        .report(report);
        return;
    }

    // Traced run: the same launches with the parent's collection on (the
    // workers never trace), then rank 0's config stepped alone on one
    // thread with spans for the compute layers.
    let plain = window(
        report,
        &cfgs,
        &wire,
        comm_seed,
        expected,
        empty_ms,
        budget(args.seconds / 3.0),
    );
    let traced = {
        let _on = snip_obs::enabled_scope(true);
        window(
            report,
            &cfgs,
            &wire,
            comm_seed,
            expected,
            empty_ms,
            Budget::Steps(plain.launches),
        )
    };
    let tps = |w: &Window| w.launches as f64 * tokens_per_launch / (w.secs * w.net);
    trace_checks(
        report,
        &plain.final_loss,
        &traced.final_loss,
        plain.final_loss.len(),
        tps(&plain),
        tps(&traced),
    );

    let Ok(mut solo) = Trainer::new(cfgs[0].clone()) else {
        return;
    };
    let mut spans = Vec::new();
    let mut solo_ms = Vec::new();
    {
        let _on = snip_obs::enabled_scope(true);
        for _ in 0..2 * STEPS_PER_LAUNCH {
            let t = Instant::now();
            let (o, span) = layers::step(&mut solo, &mut |_| {});
            solo_ms.push(ms(t.elapsed()));
            report.op(o.loss.is_finite(), || "non-finite solo loss".into());
            spans.extend(span);
        }
    }
    let dp_step_ms = median(&plain.step_ms);
    let exposed = dp_step_ms - crate::report::mean(&solo_ms);
    let data_ms = layers::batch_ms(&cfgs[0], spans.len());
    layers::report_step_layers(
        report,
        &format!("dp2-proc-s{}", args.seed),
        &cfgs[0],
        &spans,
        data_ms,
        exposed,
        dp_step_ms,
    );
    report.metric(
        "optim.moment_mb",
        "MiB",
        solo.optimizer.moment_state_bytes() as f64 / (1 << 20) as f64,
        1,
    );
    if let Some(traffic) = &plain.traffic {
        layers::report_pipeline(report, &setup_ms, traffic, exposed, plain.launches);
    }
    let ckpt = PathBuf::from(WORK_DIR).join(format!("dp2-proc-s{}.json", args.seed));
    layers::ckpt_probe(report, &mut solo, &ckpt);
    let flops = FlopModel::new(&cfgs[0].model);
    report.metric(
        "core.fp4_flop_frac",
        "frac",
        flops.scheme_fp4_fraction(&solo.model.scheme()),
        1,
    );
    let mut rng = Rng::seed_from(derive_seed(args.seed, 4));
    let probes = layers::update_probes(report, &mut solo, &mut rng, 2);
    layers::report_controller(report, &probes, None, median(&solo_ms));
}
