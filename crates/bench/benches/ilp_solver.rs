//! ILP solve time on model-shaped instances (§6.1 solves under a 30 s
//! limit and "usually takes a few seconds").
//!
//! Efficiencies come from `FlopModel`, so every block repeats the same
//! attention (`hidden × hidden`) and FFN (`hidden × ffn`) shares, and the
//! target is 0.75 as in the `snip-adapt` step benchmark. The LP relaxation
//! is then fractional and the solver branches; the class fold keeps that
//! to a few dozen nodes. On a 2-vCPU Xeon host, FP8/FP4 instances solve
//! in ~0.4 ms (154 layers) to ~4 ms (560 layers), and the 8-option mixed
//! set at 154 layers in ~4 ms; most of that is the fold.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snip_core::{FlopModel, OptionSet};
use snip_ilp::{contiguous_stages, solve, solve_grouped, Choice, McKnapsack, SolveOptions};
use snip_nn::ModelConfig;
use snip_tensor::rng::Rng;

const TARGET: f64 = 0.75;

/// One group per linear layer of `cfg`, one option per entry of `options`:
/// FLOP-model efficiency, and a random quality loss that grows with the
/// option's FP4 share.
fn instance(cfg: &ModelConfig, options: &OptionSet, seed: u64) -> McKnapsack {
    let flops = FlopModel::new(cfg);
    let mut rng = Rng::seed_from(seed);
    let groups = (0..flops.n_layers())
        .map(|i| {
            options
                .options()
                .iter()
                .map(|&o| {
                    let q = rng.next_f64() * (o.fp4_gemm_fraction() + 0.01);
                    Choice::new(q, flops.efficiency(i, o))
                })
                .collect()
        })
        .collect();
    McKnapsack::new(groups, TARGET)
}

fn bench_model_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("ilp_layers");
    // 154 = tinyllama (22×7), 224 = 7B (32×7), 560 = 70B (80×7).
    for cfg in [
        ModelConfig::tinyllama_1b_sim(),
        ModelConfig::openllama_7b_sim(),
        ModelConfig::llama_70b_sim(),
    ] {
        let p = instance(&cfg, &OptionSet::fp8_fp4(), 7);
        group.bench_with_input(BenchmarkId::from_parameter(p.groups.len()), &p, |b, p| {
            b.iter(|| solve(p, &SolveOptions::default()).unwrap())
        });
    }
    group.finish();
}

fn bench_option_counts(c: &mut Criterion) {
    let mut group = c.benchmark_group("ilp_options");
    let cfg = ModelConfig::tinyllama_1b_sim();
    for options in [OptionSet::fp8_fp4(), OptionSet::mixed()] {
        let p = instance(&cfg, &options, 9);
        group.bench_with_input(BenchmarkId::from_parameter(options.len()), &p, |b, p| {
            b.iter(|| solve(p, &SolveOptions::default()).unwrap())
        });
    }
    group.finish();
}

fn bench_grouped(c: &mut Criterion) {
    let cfg = ModelConfig::tinyllama_1b_sim();
    let p = instance(&cfg, &OptionSet::fp8_fp4(), 11);
    let stages = contiguous_stages(p.groups.len(), 4);
    // Each stage owes the target share of its own FLOPs.
    let flops = FlopModel::new(&cfg);
    let mut targets = vec![0.0f64; 4];
    for (i, &s) in stages.iter().enumerate() {
        targets[s] += TARGET * flops.fraction(i);
    }
    c.bench_function("ilp_grouped_4stages", |b| {
        b.iter(|| solve_grouped(&p, &stages, &targets, &SolveOptions::default()).unwrap())
    });
}

criterion_group!(
    benches,
    bench_model_sizes,
    bench_option_counts,
    bench_grouped
);
criterion_main!(benches);
