//! The solver on instances whose decision groups repeat a few efficiency
//! vectors — the shape real models give it, since every transformer block
//! repeats the same layer shapes. Checks the class fold against the
//! exhaustive reference, its determinism, and its node counts on
//! model-shaped instances.

use proptest::prelude::*;
use snip_ilp::{
    solve, solve_bruteforce, solve_grouped, Choice, McKnapsack, SolveError, SolveOptions,
};
use snip_tensor::rng::Rng;

/// A small instance drawn from `seed`: 1–3 efficiency classes, each with
/// 1–4 options (efficiencies on a coarse grid, so a group can list the
/// same efficiency twice), and 1–8 groups, each a member of a random
/// class. Qualities come from a coarse grid half the time, so ties occur.
fn classed_instance(seed: u64) -> McKnapsack {
    let mut rng = Rng::seed_from(seed);
    // Dyadic units keep every sum exact; the other one makes sums depend on
    // the order of addition.
    let unit = [0.125, 1.0 / 154.0][rng.below(2)];
    let classes: Vec<Vec<f64>> = (0..1 + rng.below(3))
        .map(|_| {
            (0..1 + rng.below(4))
                .map(|_| rng.below(9) as f64 * unit)
                .collect()
        })
        .collect();
    let coarse = rng.below(2) == 0;
    let groups: Vec<Vec<Choice>> = (0..1 + rng.below(8))
        .map(|_| {
            classes[rng.below(classes.len())]
                .iter()
                .map(|&e| {
                    let q = if coarse {
                        rng.below(4) as f64 * 0.25
                    } else {
                        rng.next_f64()
                    };
                    Choice::new(q, e)
                })
                .collect()
        })
        .collect();
    let reach = McKnapsack::new(groups.clone(), 0.0).max_efficiency();
    // Up to 10% past the reachable maximum, so some instances are infeasible.
    McKnapsack::new(groups, rng.next_f64() * 1.1 * reach)
}

/// Objectives equal within 1e-9 relative.
fn same_objective(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-9 * (1.0 + want.abs())
}

/// Exhaustive reference for the per-stage constraint: every assignment,
/// each stage's efficiency summed in group order.
fn grouped_bruteforce(p: &McKnapsack, stage_of: &[usize], targets: &[f64]) -> Option<f64> {
    let mut picks = vec![0usize; p.groups.len()];
    let mut best: Option<f64> = None;
    loop {
        let mut stage_e = vec![0.0; targets.len()];
        for (i, &j) in picks.iter().enumerate() {
            stage_e[stage_of[i]] += p.groups[i][j].efficiency;
        }
        if stage_e.iter().zip(targets).all(|(e, t)| e + 1e-12 >= *t) {
            let q = p.evaluate(&picks).0;
            if best.is_none_or(|b| q < b) {
                best = Some(q);
            }
        }
        let mut i = 0;
        loop {
            if i == picks.len() {
                return best;
            }
            picks[i] += 1;
            if picks[i] < p.groups[i].len() {
                break;
            }
            picks[i] = 0;
            i += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn matches_bruteforce_on_classed_instances(seed in 0u64..u64::MAX) {
        let p = classed_instance(seed);
        match (solve(&p, &SolveOptions::default()), solve_bruteforce(&p)) {
            (Ok(got), Ok(want)) => {
                prop_assert!(
                    same_objective(got.objective, want.objective),
                    "seed {seed}: objective {} vs exhaustive {}", got.objective, want.objective
                );
                prop_assert!(got.efficiency + 1e-9 >= p.target, "target missed: {got:?}");
                prop_assert!(got.proven_optimal);
            }
            (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
            (got, want) => panic!("seed {seed}: {got:?} vs exhaustive {want:?}"),
        }
    }

    #[test]
    fn solving_twice_gives_identical_picks(seed in 0u64..u64::MAX) {
        let p = classed_instance(seed);
        let opts = SolveOptions::default();
        prop_assert_eq!(solve(&p, &opts), solve(&p, &opts));
    }

    #[test]
    fn grouped_classes_span_stages(seed in 0u64..u64::MAX) {
        let p = classed_instance(seed);
        let mut rng = Rng::seed_from(seed ^ 0x5eed);
        let n_stages = 1 + rng.below(3);
        let stage_of: Vec<usize> = (0..p.groups.len()).map(|_| rng.below(n_stages)).collect();
        // Each stage asks for a random share of what its own groups can reach.
        let targets: Vec<f64> = (0..n_stages)
            .map(|k| {
                let reach: f64 = (0..p.groups.len())
                    .filter(|&i| stage_of[i] == k)
                    .map(|i| p.groups[i].iter().map(|c| c.efficiency).fold(f64::MIN, f64::max))
                    .sum();
                rng.next_f64() * reach
            })
            .collect();
        let got = solve_grouped(&p, &stage_of, &targets, &SolveOptions::default());
        match (got, grouped_bruteforce(&p, &stage_of, &targets)) {
            (Ok(got), Some(want)) => {
                prop_assert!(
                    same_objective(got.objective, want),
                    "seed {seed}: objective {} vs exhaustive {want}", got.objective
                );
                prop_assert!(got.proven_optimal);
                for (k, t) in targets.iter().enumerate() {
                    let e: f64 = (0..p.groups.len())
                        .filter(|&i| stage_of[i] == k)
                        .map(|i| p.groups[i][got.picks[i]].efficiency)
                        .sum();
                    prop_assert!(e + 1e-9 >= *t, "seed {seed}: stage {k} reaches {e} < {t}");
                }
            }
            (got, want) => panic!("seed {seed}: {got:?} vs exhaustive {want:?}"),
        }
    }
}

/// A model-shaped FP8/FP4 instance: `blocks` transformer blocks of four
/// `hidden × hidden` attention projections and three `hidden × ffn` FFN
/// projections. Each layer's FP4 option saves its share of the linear
/// FLOPs, computed as the FLOP model does (integer FLOPs over the integer
/// total); qualities are uniform random, FP8's a hundredth of FP4's scale.
fn model_shaped(blocks: usize, hidden: u64, ffn: u64, seed: u64) -> McKnapsack {
    let shapes = [hidden * hidden; 4]
        .into_iter()
        .chain([hidden * ffn; 3])
        .collect::<Vec<_>>();
    let total: u64 = shapes.iter().sum::<u64>() * blocks as u64;
    let mut rng = Rng::seed_from(seed);
    let groups = (0..blocks)
        .flat_map(|_| shapes.clone())
        .map(|flops| {
            vec![
                Choice::new(rng.next_f64() * 0.01, 0.0),
                Choice::new(rng.next_f64(), flops as f64 / total as f64),
            ]
        })
        .collect();
    McKnapsack::new(groups, 0.75)
}

fn assert_proven_in_few_nodes(p: &McKnapsack) {
    let s = solve(p, &SolveOptions::default()).unwrap();
    assert!(s.proven_optimal, "not proven: {s:?}");
    assert!(s.nodes < 1_000, "{} nodes", s.nodes);
    assert!(s.efficiency + 1e-9 >= p.target);
}

#[test]
fn tinyllama_shaped_instance_proves_in_few_nodes() {
    // 22 blocks: 88 attention layers share one efficiency, 66 FFN layers
    // the other.
    for seed in 1..=3 {
        assert_proven_in_few_nodes(&model_shaped(22, 32, 88, seed));
    }
}

#[test]
fn llama70b_shaped_instance_proves_in_few_nodes() {
    // 80 blocks, 560 groups.
    for seed in 1..=3 {
        assert_proven_in_few_nodes(&model_shaped(80, 24, 64, seed));
    }
}
