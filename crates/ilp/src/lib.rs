//! # snip-ilp
//!
//! Exact Integer-Linear-Programming solver for SNIP's precision policy
//! (paper §5.2–§5.3).
//!
//! SNIP maps layer-wise precision selection to a **multiple-choice knapsack**:
//! each layer is a decision group, each precision assignment an option with a
//! quality loss `q` and an efficiency saving `e`; exactly one option per
//! layer must be picked while the total efficiency meets a target. The
//! solver is an exact branch-and-bound with LP-relaxation bounds
//! ([`solve()`]) and a pipeline-stage-aware grouped variant ([`solve_grouped`])
//! implementing the paper's per-stage constraint (Eq. 5).
//!
//! Before branching, [`solve()`] folds every class of groups with
//! bit-identical efficiency vectors into one group by an exact min-plus
//! merge (see [`solve`](mod@solve)). A real model repeats the same layer
//! shapes in every block, so its instance folds to a handful of groups —
//! two (attention, FFN) for the 154-layer TinyLlama stand-in — and the
//! search proves optimality in a few dozen nodes instead of exploring
//! swaps among interchangeable layers. The fold is exact: replacing a
//! class's choices in any feasible solution by the lowest-quality choices
//! of at least the same total efficiency keeps it feasible and its
//! objective no higher. [`solve_grouped`] calls [`solve()`] per stage, so
//! each stage folds on its own.
//!
//! # Example
//!
//! ```
//! use snip_ilp::{Choice, McKnapsack, solve, SolveOptions};
//!
//! // Two layers, each choosing between FP8 (no saving, no loss) and FP4
//! // (full saving, some loss). Layer 0 is the cheaper one to quantize.
//! let problem = McKnapsack::new(
//!     vec![
//!         vec![Choice::new(0.01, 0.0), Choice::new(0.02, 0.5)],
//!         vec![Choice::new(0.01, 0.0), Choice::new(0.90, 0.5)],
//!     ],
//!     0.5,
//! );
//! let solution = solve(&problem, &SolveOptions::default()).unwrap();
//! assert_eq!(solution.picks, vec![1, 0]);
//! ```

pub mod balanced;
pub mod grouped;
pub mod problem;
pub mod solve;

pub use balanced::{imbalance_fraction, solve_time_balanced, stage_times, time_balanced_targets};
pub use grouped::{contiguous_stages, solve_grouped};
pub use problem::{Choice, McKnapsack};
pub use solve::{solve, solve_bruteforce, Solution, SolveError, SolveOptions};
