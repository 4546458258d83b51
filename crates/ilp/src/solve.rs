//! Exact branch-and-bound solver for the multiple-choice knapsack ILP.
//!
//! The paper solves its ILP with `scipy.optimize.milp` (HiGHS) under a 30 s
//! time limit, noting it "usually takes a few seconds" (§6.1). This solver is
//! specialized to the one problem shape SNIP produces — multiple-choice
//! knapsack — and is exact:
//!
//! 0. **Class fold**: groups whose efficiency vectors are bit-identical
//!    (every repeat of a layer shape across transformer blocks) form a
//!    class, and each class is folded into one group by an exact min-plus
//!    merge. Members are added in index order; each merged entry is keyed
//!    by its exact f64 efficiency sum and keeps the lowest quality sum
//!    (the earlier entry on a tie); the entries are dominance-pruned
//!    (step 1) after every member and store a backpointer, so a pick of the
//!    folded group unfolds to one option per member. The fold is exact:
//!    in any feasible solution, replacing a class's choices by the
//!    lowest-quality choices of at least the same total efficiency keeps it
//!    feasible and its objective no higher. (The merge would be exact for
//!    any set of groups; identical efficiencies are what keep its entry
//!    count near the number of distinct efficiency sums.) A class of one
//!    group folds to that group's own frontier, and a 154-layer model
//!    folds to two groups (attention and FFN shapes), so the search below
//!    never wades through swaps of interchangeable layers. The fold costs
//!    the class's entry count times its options per member (~0.4 ms at
//!    154 FP8/FP4 layers); it counts against the time limit but is not
//!    cut short by it.
//! 1. **Dominance pruning**: within each group, an option is dropped if
//!    another option has at least its efficiency at no more quality loss
//!    (some optimal solution always avoids dominated options).
//! 2. **LP relaxation bound**: the classic MCKP relaxation — start every
//!    group at its cheapest option and buy efficiency increments along each
//!    group's lower convex hull in order of marginal rate `Δq/Δe` — gives a
//!    lower bound with at most one fractional group.
//! 3. **Branch & bound**: branch on the fractional group; rounding the
//!    fractional increment up gives feasible incumbents for free. Children
//!    are visited outward from the fractional increment, and a direction
//!    stops at its first pruned hull option: a child's bound is at least a
//!    convex function of its option's efficiency that it equals on the
//!    hull, so every option further out is pruned too.
//!
//! Objective and efficiency of the returned picks are recomputed on the
//! original instance ([`McKnapsack::evaluate`]).

use crate::problem::McKnapsack;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Solver options.
#[derive(Clone, Copy, Debug)]
pub struct SolveOptions {
    /// Wall-clock budget; on expiry the best incumbent is returned with
    /// `proven_optimal = false`. Matches the paper's 30 s limit by default.
    pub time_limit: Duration,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            time_limit: Duration::from_secs(30),
        }
    }
}

/// A solved assignment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Solution {
    /// Picked option index per group (original indices of the instance).
    pub picks: Vec<usize>,
    /// Total quality loss of the assignment.
    pub objective: f64,
    /// Total efficiency of the assignment.
    pub efficiency: f64,
    /// Branch-and-bound nodes explored.
    pub nodes: u64,
    /// Whether optimality was proven before the time limit.
    pub proven_optimal: bool,
}

/// Solver failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// Malformed instance (empty group, non-finite values, …).
    Invalid(String),
    /// No assignment can reach the efficiency target.
    Infeasible,
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Invalid(msg) => write!(f, "invalid instance: {msg}"),
            SolveError::Infeasible => write!(f, "efficiency target unreachable"),
        }
    }
}

impl std::error::Error for SolveError {}

/// A frontier point: original option index plus its values.
#[derive(Clone, Copy, Debug)]
struct Point {
    orig: usize,
    e: f64,
    q: f64,
}

/// Per-group preprocessed data.
#[derive(Clone, Debug)]
struct Group {
    /// Non-dominated options, efficiency ascending (quality ascending too).
    frontier: Vec<Point>,
    /// Indices into `frontier` forming the lower convex hull.
    hull: Vec<usize>,
}

/// Dominance pruning: drops every point that another point matches or
/// beats in efficiency at no more quality loss, and returns the rest
/// efficiency ascending (quality then strictly ascending). Of exact
/// duplicates the one with the lower `orig` stays.
fn pareto(mut points: Vec<Point>) -> Vec<Point> {
    // Efficiency descending, quality ascending, `orig` ascending: the sweep
    // meets the point it keeps for each efficiency first.
    points.sort_by(|a, b| {
        b.e.partial_cmp(&a.e)
            .unwrap()
            .then(a.q.partial_cmp(&b.q).unwrap())
            .then(a.orig.cmp(&b.orig))
    });
    let mut best_q = f64::INFINITY;
    points.retain(|p| {
        let keep = p.q < best_q;
        if keep {
            best_q = p.q;
        }
        keep
    });
    points.reverse();
    points
}

/// Adds the lower convex hull to a dominance-pruned frontier.
fn preprocess(frontier: Vec<Point>) -> Group {
    // Lower convex hull over (e, q): marginal rates must be non-decreasing.
    let mut hull: Vec<usize> = Vec::with_capacity(frontier.len());
    for i in 0..frontier.len() {
        while hull.len() >= 2 {
            let a = frontier[hull[hull.len() - 2]];
            let b = frontier[hull[hull.len() - 1]];
            let c = frontier[i];
            // Keep b only if rate(a→b) ≤ rate(a→c) (cross-product form).
            let keep = (b.q - a.q) * (c.e - a.e) <= (c.q - a.q) * (b.e - a.e);
            if keep {
                break;
            }
            hull.pop();
        }
        hull.push(i);
    }
    Group { frontier, hull }
}

/// Decision groups with bit-identical efficiency vectors, folded into one
/// group whose options are the class's non-dominated combined choices.
struct Class {
    /// Original group indices, ascending.
    members: Vec<usize>,
    /// `back[k][p]` = (entry of the fold over `members[..k]`, option of
    /// `members[k]`) that entry `p` of the fold over `members[..=k]` was
    /// built from.
    back: Vec<Vec<(usize, usize)>>,
}

impl Class {
    /// Writes the original option of every member for entry `p` of the
    /// full fold into `picks`.
    fn unfold(&self, mut p: usize, picks: &mut [usize]) {
        for (k, &i) in self.members.iter().enumerate().rev() {
            let (prev, j) = self.back[k][p];
            picks[i] = j;
            p = prev;
        }
    }
}

/// Step 0: partitions the groups into classes of bit-identical efficiency
/// vectors (ordered by first member) and folds each class by an exact
/// min-plus merge. Returns each class with its folded group.
fn fold(problem: &McKnapsack) -> Vec<(Class, Group)> {
    let mut class_of: HashMap<Vec<u64>, usize> = HashMap::new();
    let mut classes: Vec<Vec<usize>> = Vec::new();
    for (i, g) in problem.groups.iter().enumerate() {
        let key = g.iter().map(|c| c.efficiency.to_bits()).collect();
        let c = *class_of.entry(key).or_insert_with(|| {
            classes.push(Vec::new());
            classes.len() - 1
        });
        classes[c].push(i);
    }
    classes
        .into_iter()
        .map(|members| {
            // Entries of the fold so far; `orig` indexes `back`'s last level.
            let mut level = vec![Point {
                orig: 0,
                e: 0.0,
                q: 0.0,
            }];
            let mut back = Vec::with_capacity(members.len());
            for &i in &members {
                let options = pareto(
                    problem.groups[i]
                        .iter()
                        .enumerate()
                        .map(|(j, c)| Point {
                            orig: j,
                            e: c.efficiency,
                            q: c.quality,
                        })
                        .collect(),
                );
                // Candidate `p·n + o` extends entry `p` by option `o`; built
                // option by option, so the sort sees `n` ascending runs.
                let n = options.len();
                let mut candidates = Vec::with_capacity(level.len() * n);
                for (o, b) in options.iter().enumerate() {
                    candidates.extend(level.iter().enumerate().map(|(p, a)| Point {
                        orig: p * n + o,
                        e: a.e + b.e,
                        q: a.q + b.q,
                    }));
                }
                level = pareto(candidates);
                back.push(
                    level
                        .iter()
                        .map(|pt| (pt.orig / n, options[pt.orig % n].orig))
                        .collect(),
                );
                for (p, pt) in level.iter_mut().enumerate() {
                    pt.orig = p;
                }
            }
            (Class { members, back }, preprocess(level))
        })
        .collect()
}

/// One efficiency-buying increment on a group's hull.
#[derive(Clone, Copy, Debug)]
struct Increment {
    group: usize,
    /// Hull position reached by taking this increment.
    hull_pos: usize,
    de: f64,
    dq: f64,
    /// Marginal rate `Δq/Δe`, never below the group's previous increment's.
    rate: f64,
}

struct Searcher<'a> {
    groups: &'a [Group],
    target: f64,
    deadline: Instant,
    nodes: u64,
    timed_out: bool,
    /// Best incumbent: (objective, picks as frontier indices).
    best: Option<(f64, Vec<usize>)>,
}

/// Result of the LP relaxation at a node.
enum LpOutcome {
    /// Relaxation infeasible → prune.
    Infeasible,
    /// Bound plus the fractional group (if any) and the integral rounding
    /// (frontier index per group; the fractional increment rounds up, so it
    /// meets the target).
    Bound {
        bound: f64,
        fractional_group: Option<usize>,
        rounded: Vec<usize>,
    },
}

impl<'a> Searcher<'a> {
    /// LP relaxation with some groups fixed (`fixed[i] = Some(frontier idx)`).
    fn lp(&self, fixed: &[Option<usize>]) -> LpOutcome {
        let mut base_q = 0.0;
        let mut base_e = 0.0;
        let mut rounded: Vec<usize> = vec![0; self.groups.len()];
        let mut increments: Vec<Increment> = Vec::new();
        for (i, g) in self.groups.iter().enumerate() {
            if let Some(f) = fixed[i] {
                base_q += g.frontier[f].q;
                base_e += g.frontier[f].e;
                rounded[i] = f;
            } else {
                // Base = cheapest-quality point = first frontier point.
                base_q += g.frontier[0].q;
                base_e += g.frontier[0].e;
                rounded[i] = 0;
                // Rates rise along the hull; the running max keeps rounding
                // noise on collinear points from reordering a group's own
                // increments (the sort below is stable).
                let mut rate = f64::NEG_INFINITY;
                for w in g.hull.windows(2) {
                    let a = g.frontier[w[0]];
                    let b = g.frontier[w[1]];
                    let (de, dq) = (b.e - a.e, b.q - a.q);
                    rate = rate.max(dq / de.max(1e-300));
                    increments.push(Increment {
                        group: i,
                        hull_pos: w[1],
                        de,
                        dq,
                        rate,
                    });
                }
            }
        }
        let mut needed = self.target - base_e;
        if needed <= 1e-12 {
            return LpOutcome::Bound {
                bound: base_q,
                fractional_group: None,
                rounded,
            };
        }
        increments.sort_by(|x, y| x.rate.total_cmp(&y.rate));
        let mut bound = base_q;
        for inc in &increments {
            if inc.de <= 0.0 {
                continue;
            }
            if inc.de >= needed {
                // Fractional take.
                bound += inc.dq * (needed / inc.de);
                rounded[inc.group] = inc.hull_pos; // round up → feasible
                return LpOutcome::Bound {
                    bound,
                    fractional_group: Some(inc.group),
                    rounded,
                };
            }
            bound += inc.dq;
            needed -= inc.de;
            rounded[inc.group] = inc.hull_pos;
        }
        if needed <= 1e-12 {
            return LpOutcome::Bound {
                bound,
                fractional_group: None,
                rounded,
            };
        }
        LpOutcome::Infeasible
    }

    fn objective_of(&self, picks: &[usize]) -> (f64, f64) {
        let mut q = 0.0;
        let mut e = 0.0;
        for (g, &p) in self.groups.iter().zip(picks) {
            q += g.frontier[p].q;
            e += g.frontier[p].e;
        }
        (q, e)
    }

    fn offer(&mut self, picks: &[usize]) {
        let (q, e) = self.objective_of(picks);
        if e + 1e-12 < self.target {
            return;
        }
        match &self.best {
            Some((bq, _)) if *bq <= q => {}
            _ => self.best = Some((q, picks.to_vec())),
        }
    }

    /// Explores the subtree under `fixed`. Returns whether its LP bound
    /// could still beat the incumbent, i.e. whether the node was not
    /// pruned on entry.
    fn search(&mut self, fixed: &mut Vec<Option<usize>>) -> bool {
        self.nodes += 1;
        if self.nodes.is_multiple_of(64) && Instant::now() > self.deadline {
            self.timed_out = true;
        }
        if self.timed_out {
            return false;
        }
        match self.lp(fixed) {
            LpOutcome::Infeasible => false,
            LpOutcome::Bound {
                bound,
                fractional_group,
                rounded,
            } => {
                if let Some((bq, _)) = &self.best {
                    if bound >= *bq - 1e-12 {
                        return false; // prune: cannot beat incumbent
                    }
                }
                self.offer(&rounded);
                let Some(gf) = fractional_group else {
                    // LP integral → `rounded` is optimal for this subtree.
                    return true;
                };
                // Branch on the fractional group's options, walking outward
                // from its fractional hull increment `a → b`. A child's bound
                // is at least W(e) = hull(e) + LP(rest | e), which is convex
                // in the option's efficiency e with its minimum inside
                // [e_a, e_b], and equals W(e) at hull points. So once a hull
                // child is pruned, every option further out would be too.
                let g = &self.groups[gf];
                let hull = &g.hull;
                let a = hull[hull.binary_search(&rounded[gf]).expect("hull point") - 1];
                let up: Vec<usize> = (a + 1..g.frontier.len()).collect();
                for walk in [up, (0..=a).rev().collect()] {
                    for opt in walk {
                        fixed[gf] = Some(opt);
                        let open = self.search(fixed);
                        if self.timed_out || (!open && hull.binary_search(&opt).is_ok()) {
                            break;
                        }
                    }
                }
                fixed[gf] = None;
                true
            }
        }
    }
}

/// Solves the instance exactly (up to the time limit).
///
/// # Errors
///
/// [`SolveError::Invalid`] for malformed instances, [`SolveError::Infeasible`]
/// when no assignment reaches the target.
///
/// # Example
///
/// ```
/// use snip_ilp::{Choice, McKnapsack, solve, SolveOptions};
/// let p = McKnapsack::new(
///     vec![
///         vec![Choice::new(0.0, 0.0), Choice::new(5.0, 1.0)],
///         vec![Choice::new(0.0, 0.0), Choice::new(1.0, 1.0)],
///     ],
///     1.0,
/// );
/// let s = solve(&p, &SolveOptions::default()).unwrap();
/// assert_eq!(s.picks, vec![0, 1]); // buy efficiency from the cheap group
/// ```
pub fn solve(problem: &McKnapsack, opts: &SolveOptions) -> Result<Solution, SolveError> {
    problem.validate().map_err(SolveError::Invalid)?;
    if !problem.is_feasible() {
        return Err(SolveError::Infeasible);
    }
    let deadline = Instant::now() + opts.time_limit;
    let (classes, groups): (Vec<Class>, Vec<Group>) = fold(problem).into_iter().unzip();
    let mut searcher = Searcher {
        groups: &groups,
        target: problem.target,
        deadline,
        nodes: 0,
        timed_out: false,
        best: None,
    };
    let mut fixed: Vec<Option<usize>> = vec![None; groups.len()];
    searcher.search(&mut fixed);
    let (obj, picks_frontier) = searcher.best.ok_or(SolveError::Infeasible)?;
    let mut picks = vec![0; problem.groups.len()];
    for ((class, group), &p) in classes.iter().zip(&groups).zip(&picks_frontier) {
        class.unfold(group.frontier[p].orig, &mut picks);
    }
    let (q, e) = problem.evaluate(&picks);
    debug_assert!((q - obj).abs() < 1e-9 * (1.0 + obj.abs()));
    Ok(Solution {
        picks,
        objective: q,
        efficiency: e,
        nodes: searcher.nodes,
        proven_optimal: !searcher.timed_out,
    })
}

/// Exhaustive reference solver for testing (cartesian product of options).
///
/// # Panics
///
/// Panics if the search space exceeds ~10⁷ assignments.
pub fn solve_bruteforce(problem: &McKnapsack) -> Result<Solution, SolveError> {
    problem.validate().map_err(SolveError::Invalid)?;
    let space: f64 = problem.groups.iter().map(|g| g.len() as f64).product();
    assert!(space <= 1e7, "brute force space too large ({space})");
    let m = problem.groups.len();
    let mut picks = vec![0usize; m];
    let mut best: Option<(f64, Vec<usize>)> = None;
    let mut nodes = 0u64;
    loop {
        nodes += 1;
        let (q, e) = problem.evaluate(&picks);
        if e + 1e-12 >= problem.target {
            match &best {
                Some((bq, _)) if *bq <= q => {}
                _ => best = Some((q, picks.clone())),
            }
        }
        // Odometer increment.
        let mut i = 0;
        loop {
            if i == m {
                let (q, e) = match &best {
                    Some((_, p)) => problem.evaluate(p),
                    None => return Err(SolveError::Infeasible),
                };
                return Ok(Solution {
                    picks: best.unwrap().1,
                    objective: q,
                    efficiency: e,
                    nodes,
                    proven_optimal: true,
                });
            }
            picks[i] += 1;
            if picks[i] < problem.groups[i].len() {
                break;
            }
            picks[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Choice;

    fn opts() -> SolveOptions {
        SolveOptions::default()
    }

    #[test]
    fn picks_cheapest_efficiency_source() {
        let p = McKnapsack::new(
            vec![
                vec![Choice::new(0.0, 0.0), Choice::new(5.0, 1.0)],
                vec![Choice::new(0.0, 0.0), Choice::new(1.0, 1.0)],
                vec![Choice::new(0.0, 0.0), Choice::new(3.0, 1.0)],
            ],
            2.0,
        );
        let s = solve(&p, &opts()).unwrap();
        assert_eq!(s.picks, vec![0, 1, 1]);
        assert_eq!(s.objective, 4.0);
        assert!(s.proven_optimal);
    }

    #[test]
    fn zero_target_takes_all_bases() {
        let p = McKnapsack::new(
            vec![
                vec![Choice::new(0.1, 0.0), Choice::new(5.0, 1.0)],
                vec![Choice::new(0.2, 0.0), Choice::new(1.0, 1.0)],
            ],
            0.0,
        );
        let s = solve(&p, &opts()).unwrap();
        assert_eq!(s.picks, vec![0, 0]);
        assert!((s.objective - 0.3).abs() < 1e-12);
    }

    #[test]
    fn full_target_takes_all_upgrades() {
        let p = McKnapsack::new(
            vec![
                vec![Choice::new(0.0, 0.0), Choice::new(5.0, 1.0)],
                vec![Choice::new(0.0, 0.0), Choice::new(1.0, 1.0)],
            ],
            2.0,
        );
        let s = solve(&p, &opts()).unwrap();
        assert_eq!(s.picks, vec![1, 1]);
    }

    #[test]
    fn infeasible_target_errors() {
        let p = McKnapsack::new(vec![vec![Choice::new(0.0, 0.5)]], 1.0);
        assert_eq!(solve(&p, &opts()), Err(SolveError::Infeasible));
    }

    #[test]
    fn dominated_options_never_picked() {
        // Option 1 dominates option 2 (more efficiency, less quality loss).
        let p = McKnapsack::new(
            vec![vec![
                Choice::new(0.0, 0.0),
                Choice::new(1.0, 1.0),
                Choice::new(2.0, 0.9),
            ]],
            0.5,
        );
        let s = solve(&p, &opts()).unwrap();
        assert_eq!(s.picks, vec![1]);
    }

    #[test]
    fn non_convex_option_reachable() {
        // A point off the lower hull can still be the unique optimum; the
        // solver must find it by branching. Single group, target 0.6:
        // options: (q=0, e=0), (q=10, e=1.0), and off-hull (q=6, e=0.7).
        let p = McKnapsack::new(
            vec![vec![
                Choice::new(0.0, 0.0),
                Choice::new(10.0, 1.0),
                Choice::new(6.0, 0.7),
            ]],
            0.6,
        );
        let s = solve(&p, &opts()).unwrap();
        assert_eq!(s.picks, vec![2]);
        assert_eq!(s.objective, 6.0);
    }

    #[test]
    fn matches_bruteforce_on_random_instances() {
        use snip_tensor::rng::Rng;
        let mut rng = Rng::seed_from(1234);
        for trial in 0..60 {
            let m = 1 + rng.below(6);
            let groups: Vec<Vec<Choice>> = (0..m)
                .map(|_| {
                    let n = 1 + rng.below(4);
                    (0..n)
                        .map(|_| Choice::new(rng.next_f64() * 10.0, rng.next_f64()))
                        .collect()
                })
                .collect();
            let p = McKnapsack::new(groups, rng.next_f64() * m as f64 * 0.7);
            let exact = solve(&p, &opts());
            let brute = solve_bruteforce(&p);
            match (exact, brute) {
                (Ok(a), Ok(b)) => {
                    assert!(
                        (a.objective - b.objective).abs() < 1e-9 * (1.0 + b.objective.abs()),
                        "trial {trial}: bb {} vs brute {}",
                        a.objective,
                        b.objective
                    );
                    assert!(a.efficiency + 1e-9 >= p.target);
                }
                (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
                (a, b) => panic!("trial {trial}: divergent results {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn large_instance_solves_quickly() {
        // The SNIP shape: 560 layers × 2 options (the 70B model).
        use snip_tensor::rng::Rng;
        let mut rng = Rng::seed_from(7);
        let groups: Vec<Vec<Choice>> = (0..560)
            .map(|_| {
                vec![
                    Choice::new(rng.next_f64() * 0.01, 0.0),
                    Choice::new(rng.next_f64(), 1.0 / 560.0),
                ]
            })
            .collect();
        let p = McKnapsack::new(groups, 0.5);
        let t0 = std::time::Instant::now();
        let s = solve(&p, &opts()).unwrap();
        assert!(s.proven_optimal);
        assert!(s.efficiency + 1e-9 >= 0.5);
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn time_limit_returns_incumbent() {
        use snip_tensor::rng::Rng;
        let mut rng = Rng::seed_from(8);
        let groups: Vec<Vec<Choice>> = (0..200)
            .map(|_| {
                (0..6)
                    .map(|_| Choice::new(rng.next_f64(), rng.next_f64()))
                    .collect()
            })
            .collect();
        let p = McKnapsack::new(groups, 60.0);
        let s = solve(
            &p,
            &SolveOptions {
                time_limit: Duration::from_millis(1),
            },
        );
        // Either solved fast or returned a feasible incumbent.
        if let Ok(s) = s {
            assert!(s.efficiency + 1e-9 >= 60.0);
        }
    }
}
