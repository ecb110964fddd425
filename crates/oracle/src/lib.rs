//! Brute-force ground-truth oracles for differential verification.
//!
//! The paper's headline claim is *accuracy*: Algorithm 1's stage DTS and the
//! Section 5 error-rate pipeline must agree with ground truth. Every other
//! crate implements the *clever* version of its computation (lazy best-first
//! path enumeration, per-SCC linear solves, canonical-form SSTA); this crate
//! implements the *obvious* version — exhaustive DFS over every path, direct
//! probability propagation over a concrete trace, dense Monte Carlo over
//! sampled chips — and the test suites diff the two. The oracles are
//! deliberately simple enough to audit by eye; they share no enumeration or
//! solver code with the implementations they check.
//!
//! Layout:
//!
//! * [`gen`] — seeded random generators (small netlists, activation sets,
//!   canonical slack sets, variation configurations, programs) used by the
//!   property suites of every layer.
//! * [`exact`] — the exact law of the error count (the Poisson-binomial
//!   DP) and the Kolmogorov distance: the ground truth the Chen–Stein and
//!   Stein bounds of `terse_stats::stein` are checked against.
//! * [`exhaustive`] — the gate-level oracle: enumerate *all* paths of an
//!   endpoint by DFS, filter by activation, and reproduce Algorithm 1's
//!   candidate ranking from the full path set.
//! * [`paths`] — the activated-subgraph dynamic program: the most
//!   critical activated path of every endpoint in one pass — the reference
//!   for the restricted search's first path on netlists too deep for the
//!   DFS (the pipeline).
//! * [`grid`] — the one-cell-per-chip Monte Carlo grids, per chip and
//!   marginalized: every cell runs the program alone, queries the model per
//!   retired instruction and draws with `next_f64() < p` — the references
//!   the trace-replay grids of `terse_sim::monte_carlo` are diffed against.
//! * [`mc`] — probability-chain oracles: exact dynamic propagation of the
//!   Bernoulli error chain over a concrete trace, plus its Monte Carlo
//!   counterpart, for checking `errmodel`'s marginal solver.
//! * [`prescreen`] — the pre-screen's references: the unpruned model
//!   (training with no `PrunePlan` attached) and the certificate check,
//!   which recomputes every pair pruned training skips, asserts its
//!   k-sigma bound and returns the slacks pruned training must reproduce.
//! * [`sim`] — the full-scan gate-level simulator: every gate evaluated
//!   every cycle — the reference the event-driven
//!   `terse_netlist::sim::Simulator` is diffed against.
//! * [`statmin`] — the greedy most-correlated-pair-first statistical min
//!   that rescans every pair on every round: the reference the
//!   incremental-matrix greedy of `terse_sta::statmin` is diffed against,
//!   and the dense Monte Carlo min that measures the fold's Clark error.
//!
//! The slow exhaustive suites are `#[ignore]`d; run them with
//! `cargo test -p oracle -- --ignored` (CI runs them on a schedule).

pub mod exact;
pub mod exhaustive;
pub mod gen;
pub mod grid;
pub mod mc;
pub mod paths;
pub mod prescreen;
pub mod sim;
pub mod statmin;
