//! Monte Carlo error-injection baseline.
//!
//! The paper *cannot* verify its Poisson/Normal approximations by Monte
//! Carlo ("our baseline simulator is too slow to handle large input
//! datasets") and falls back on Stein-method bounds. Our simulator is fast
//! enough on scaled-down programs, so this module provides the ground
//! truth the analytic estimator is validated against in tests and in the
//! `ablation_mc` experiment: sample manufactured chips × program inputs,
//! execute, draw per-instruction timing errors from the instruction error
//! model, apply the correction scheme's dynamic effect, and count.

//! # Parallel execution & determinism
//!
//! The `(chip, input)` grid is embarrassingly parallel, so every entry point
//! fans out over it with `rayon`. Each cell draws its Bernoulli variates from
//! a private counter-based RNG stream derived from `(cfg.seed, chip index,
//! input index)` via [`Xoshiro256::seed_stream`] and [`cell_stream`], so
//! the count matrix is **bitwise identical for every thread count**
//! (including one) and for repeated runs — the schedule never touches the
//! random stream. The thread count is whatever `rayon` pool is installed by
//! the caller (`FrameworkBuilder::threads` upstream, or the machine
//! default).
//!
//! # Slack classes and lane groups
//!
//! [`error_counts`] is [`error_counts_with`] without a checkpoint or a
//! budget; both run one packed grid that works in three steps per call:
//!
//! 1. **Collect.** Each input runs once (in parallel across inputs) and
//!    records the distinct [`InstErrorModel::SlackKey`]s its trajectory
//!    queries, for both bus states a lane can be in: the normal bus and the
//!    scheme's post-error bus. A timing-error draw never feeds back into
//!    architectural state, so the trajectory — and hence this key set — is
//!    the same on every chip.
//! 2. **Resolve.** Each distinct key is resolved to its chip-independent
//!    slack once per call, and bitwise-equal slacks are interned into dense
//!    *slack classes*. A loop body re-queries the same few classes on every
//!    iteration.
//! 3. **Tabulate and replay.** Per lane group of [`LANE_GROUP`] = 64 chips,
//!    a `class × lane` table of chip-conditional error probabilities is
//!    filled once and shared by every input. Each `(group, input)` cell then
//!    re-executes the machine, looks up each retired instruction's class,
//!    and draws once per live lane from that lane's own `(cfg.seed, chip,
//!    input)` stream.
//!
//! Only two per-instruction states can differ between lanes — whether the
//! *previous* instruction erred (bus flushed by the correction scheme) or
//! not (bus advanced normally) — so one machine step serves all 64 lanes
//! with at most two class lookups. The table entries are the very `f64`s
//! [`InstErrorModel::error_probability`] returns, and lane `l` of group `g`
//! draws exactly the sequence chip `64·g + l` would draw alone, so the count
//! matrix equals the one-cell-per-chip reference bit for bit at any thread
//! count, any lane occupancy (ragged final group included), and across
//! checkpoint resumes that cut through a lane group.
//!
//! # Checkpoint and resume
//!
//! [`error_counts_with`] runs the grid as a resumable sweep over its cells
//! ([`crate::sweep`]): stored cells are skipped, at most a budget of pending
//! cells is computed, and the checkpoint is removed once the grid is
//! complete. The budget and every count are in cells, but a batch is cut in
//! whole `(lane group, input)` tasks: the checkpoint's `every_n` counts
//! tasks — program executions — per flush, and each task runs every pending
//! lane of its group in one execution. This module keeps only the
//! `TERSEMC1` payload codec and its context hash; the file protocol (the
//! `TERSEFR1` envelope, `.bak`/`.corrupt` generations, the durable writer)
//! is `terse_analyze::integrity`'s, shared with the estimate's `TERSECP1`.

use crate::correction::CorrectionScheme;
use crate::features::{extract, BusState, InstFeatures};
use crate::machine::Machine;
use crate::sweep::{Checkpoint, CheckpointFormat, Sweep};
use crate::Result;
use rayon::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::Hash;
use terse_isa::Program;
use terse_sta::variation::ChipSample;
use terse_sta::CanonicalRv;
use terse_stats::rng::Xoshiro256;

/// Chips evaluated per packed lane group (one program execution serves one
/// group; see the module docs).
pub const LANE_GROUP: usize = 64;

/// An instruction error model queried by the Monte Carlo engine.
///
/// Implemented by the DTA crate's trained model. A dynamic instance's
/// timing slack is a canonical-form Gaussian that depends on the instance
/// (static instruction, previously retired instruction, features) but not
/// on the chip; its error probability on one chip conditions that slack on
/// the chip's shared process-variation draw. The model exposes the slack
/// through a small [`InstErrorModel::SlackKey`] so the grid can resolve
/// each distinct slack once per call and share it across chips, inputs and
/// loop iterations.
pub trait InstErrorModel {
    /// The chip-independent part of a query that determines its slack.
    /// Two queries with equal keys must resolve to bitwise-equal slacks.
    type SlackKey: Copy + Eq + Hash + Send + Sync;

    /// The slack key of the dynamic instance of static instruction `index`
    /// (previously retired instruction `prev_index`, if any) with these
    /// features.
    fn slack_key(
        &self,
        prev_index: Option<u32>,
        index: u32,
        features: &InstFeatures,
    ) -> Self::SlackKey;

    /// The slack distribution of a key; `None` when the instruction has no
    /// timing exposure (it never errs).
    fn slack(&self, key: Self::SlackKey) -> Option<CanonicalRv>;

    /// Probability that the dynamic instance fails on this chip: its slack
    /// conditioned on the chip's shared variation draw, the independent
    /// residual staying Gaussian.
    fn error_probability(
        &self,
        prev_index: Option<u32>,
        index: u32,
        features: &InstFeatures,
        chip: &ChipSample,
    ) -> f64 {
        chip_probability(
            self.slack(self.slack_key(prev_index, index, features))
                .as_ref(),
            chip,
        )
    }

    /// Probability with process variation marginalized out per instruction
    /// — the independence treatment the paper's analytic pipeline uses
    /// (each indicator is Bernoulli with the *unconditional* probability,
    /// ignoring that one chip's variation draw is shared by every
    /// instruction it executes).
    fn marginal_probability(
        &self,
        prev_index: Option<u32>,
        index: u32,
        features: &InstFeatures,
    ) -> f64 {
        self.slack(self.slack_key(prev_index, index, features))
            .map_or(0.0, |s| s.prob_negative())
    }
}

/// `Pr(slack < 0 | chip)`: the one formula behind both
/// [`InstErrorModel::error_probability`] and the grid's class tables, so
/// the two agree bit for bit.
fn chip_probability(slack: Option<&CanonicalRv>, chip: &ChipSample) -> f64 {
    slack.map_or(0.0, |s| s.prob_negative_given(chip.shared_draw()))
}

/// Configuration of a Monte Carlo run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonteCarloConfig {
    /// Dynamic instruction budget per execution.
    pub budget: u64,
    /// Data memory words.
    pub dmem_words: usize,
    /// Bernoulli-draw seed.
    pub seed: u64,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            budget: 10_000_000,
            dmem_words: 1 << 16,
            seed: 0x4D43, // "MC"
        }
    }
}

/// The RNG stream of grid cell `(chip, input)` under `cfg.seed`
/// (chip-major, stable across grid shapes that share a chip count). Every
/// grid evaluation — packed, checkpointed, or a one-cell-per-chip
/// reference — draws cell `(chip, input)`'s variates from
/// `Xoshiro256::seed_stream(cfg.seed, cell_stream(chip, input))`.
pub fn cell_stream(chip: usize, input: usize) -> u64 {
    ((chip as u64) << 32) | input as u64
}

/// Executes the program once, drawing per-instruction error indicators from
/// `prob` with `rng` — the per-cell loop of the marginalized grid.
fn run_cell<F, P>(
    program: &Program,
    cfg: MonteCarloConfig,
    scheme: CorrectionScheme,
    input: usize,
    init: &F,
    rng: &mut Xoshiro256,
    prob: P,
) -> Result<u64>
where
    F: Fn(usize, &mut Machine),
    P: Fn(Option<u32>, u32, &InstFeatures) -> f64,
{
    failpoints::fail_point!("sim::mc_cell", |_| Err(
        crate::SimError::InstructionBudgetExhausted { budget: 0 }
    ));
    let mut machine = Machine::new(program, cfg.dmem_words);
    init(input, &mut machine);
    let mut errors = 0u64;
    // Program starts from a flushed processor state (the paper's
    // `p^in = 1` convention).
    let mut bus = BusState::flushed();
    let mut executed = 0u64;
    let mut prev_index: Option<u32> = None;
    while !machine.halted() {
        if executed >= cfg.budget {
            return Err(crate::SimError::InstructionBudgetExhausted { budget: cfg.budget });
        }
        let r = machine.step(program)?;
        executed += 1;
        let f = extract(&r, bus);
        let p = prob(prev_index, r.index, &f);
        prev_index = Some(r.index);
        if rng.next_f64() < p {
            errors += 1;
            bus = scheme.post_error_bus_state();
        } else {
            bus.advance(&r);
        }
    }
    Ok(errors)
}

/// Step 1 of the runner: executes input `input` once and returns the
/// distinct slack keys its trajectory queries under either bus state, in
/// first-query order.
fn collect_keys<M, F>(
    program: &Program,
    model: &M,
    cfg: MonteCarloConfig,
    scheme: CorrectionScheme,
    input: usize,
    init: &F,
) -> Result<Vec<M::SlackKey>>
where
    M: InstErrorModel,
    F: Fn(usize, &mut Machine),
{
    let mut machine = Machine::new(program, cfg.dmem_words);
    init(input, &mut machine);
    let err_bus = scheme.post_error_bus_state();
    let mut bus = BusState::flushed();
    let mut seen = HashSet::new();
    let mut keys = Vec::new();
    let mut executed = 0u64;
    let mut prev_index: Option<u32> = None;
    while !machine.halted() {
        if executed >= cfg.budget {
            return Err(crate::SimError::InstructionBudgetExhausted { budget: cfg.budget });
        }
        let r = machine.step(program)?;
        executed += 1;
        for b in [bus, err_bus] {
            let k = model.slack_key(prev_index, r.index, &extract(&r, b));
            if seen.insert(k) {
                keys.push(k);
            }
        }
        prev_index = Some(r.index);
        bus.advance(&r);
    }
    Ok(keys)
}

/// The bit pattern of a slack: bitwise-equal slacks share a class.
fn slack_bits(s: Option<&CanonicalRv>) -> Option<(u64, u64, Vec<u64>)> {
    s.map(|s| {
        (
            s.mean().to_bits(),
            s.indep().to_bits(),
            s.coeffs().iter().map(|c| c.to_bits()).collect(),
        )
    })
}

/// The slack classes of one grid call (steps 1–2 of the runner).
struct SlackClasses<K> {
    /// Slack key → dense class id.
    class_of: HashMap<K, usize>,
    /// One slack per class.
    slacks: Vec<Option<CanonicalRv>>,
}

impl<K: Copy + Eq + Hash + Send + Sync> SlackClasses<K> {
    /// Collects the keys of `inputs` (in parallel), resolves each distinct
    /// key once and interns equal slacks. Class ids follow first-query
    /// order over ascending inputs, so they do not depend on the thread
    /// count.
    fn build<M, F>(
        program: &Program,
        model: &M,
        inputs: &[usize],
        scheme: CorrectionScheme,
        init: &F,
        cfg: MonteCarloConfig,
    ) -> Result<Self>
    where
        M: InstErrorModel<SlackKey = K> + Sync,
        F: Fn(usize, &mut Machine) + Sync,
    {
        let per_input: Vec<Vec<K>> = inputs
            .par_iter()
            .map(|&i| collect_keys(program, model, cfg, scheme, i, init))
            .collect::<Result<_>>()?;
        let mut seen = HashSet::new();
        let call_keys: Vec<K> = per_input
            .into_iter()
            .flatten()
            .filter(|&k| seen.insert(k))
            .collect();
        let resolved: Vec<Option<CanonicalRv>> =
            call_keys.par_iter().map(|&k| model.slack(k)).collect();
        let mut interned: HashMap<Option<(u64, u64, Vec<u64>)>, usize> = HashMap::new();
        let mut slacks = Vec::new();
        let mut class_of = HashMap::with_capacity(call_keys.len());
        for (k, s) in call_keys.into_iter().zip(resolved) {
            let class = *interned.entry(slack_bits(s.as_ref())).or_insert_with(|| {
                slacks.push(s);
                slacks.len() - 1
            });
            class_of.insert(k, class);
        }
        Ok(SlackClasses { class_of, slacks })
    }

    /// The class of a key the collection step saw.
    ///
    /// A miss means a cell's trajectory left the one its input's collection
    /// run took — a dataset writer or model that is not a pure function of
    /// its arguments.
    fn class(&self, key: K, input: usize) -> Result<usize> {
        self.class_of
            .get(&key)
            .copied()
            .ok_or(crate::SimError::ReplayDiverged { input })
    }

    /// Step 3's table for one lane group: entry `class · 64 + lane` is the
    /// chip-conditional error probability of that class on chip `lane`
    /// (lanes past a ragged group's end stay 0).
    fn table(&self, group_chips: &[ChipSample]) -> Vec<f64> {
        let mut table = vec![0.0; self.slacks.len() * LANE_GROUP];
        for (row, slack) in table.chunks_mut(LANE_GROUP).zip(&self.slacks) {
            for (p, chip) in row.iter_mut().zip(group_chips) {
                *p = chip_probability(slack.as_ref(), chip);
            }
        }
        table
    }
}

/// Distinct-query statistics of one grid call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlackClassStats {
    /// Distinct slack keys the inputs' trajectories query (both bus
    /// states).
    pub queries: usize,
    /// Distinct slack distributions those keys resolve to — the rows of
    /// each lane group's probability table.
    pub classes: usize,
}

/// Runs steps 1–2 of the grid for `inputs` inputs and reports how many
/// distinct queries and slack classes an [`error_counts`] call with the
/// same arguments tabulates.
///
/// # Errors
///
/// Propagates machine errors (the lowest-indexed failing input wins).
pub fn slack_class_stats<M, F>(
    program: &Program,
    model: &M,
    inputs: usize,
    scheme: CorrectionScheme,
    init: F,
    cfg: MonteCarloConfig,
) -> Result<SlackClassStats>
where
    M: InstErrorModel + Sync,
    F: Fn(usize, &mut Machine) + Sync,
{
    let all: Vec<usize> = (0..inputs).collect();
    let c = SlackClasses::build(program, model, &all, scheme, &init, cfg)?;
    Ok(SlackClassStats {
        queries: c.class_of.len(),
        classes: c.slacks.len(),
    })
}

/// One `(lane group, input)` cell of the packed grid: `live` selects the
/// lanes to compute (bit `l` = chip `64·group + l`).
type Task = ((usize, usize), u64);

/// Packs grid cells (`chip · inputs + input`) into lane-group tasks in
/// ascending `(group, input)` order. A resumed checkpoint may cut through a
/// group, leaving a partial live mask — exactness is unaffected because
/// every lane draws from its own absolute `(chip, input)` stream.
fn pack_tasks(cells: &[usize], inputs: usize) -> Vec<Task> {
    let mut groups: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for &cell in cells {
        let (c, i) = (cell / inputs, cell % inputs);
        *groups.entry((c / LANE_GROUP, i)).or_insert(0) |= 1u64 << (c % LANE_GROUP);
    }
    groups.into_iter().collect()
}

/// Hands each live lane's count of `results` (one entry per task, as
/// [`PackedGrid::run`] returns them) to `f(chip, input, count)`.
fn for_each_count(tasks: &[Task], results: &[Vec<u64>], mut f: impl FnMut(usize, usize, u64)) {
    for (&((g, i), live), lane_counts) in tasks.iter().zip(results) {
        for (lane, &e) in lane_counts.iter().enumerate() {
            if live >> lane & 1 == 1 {
                f(g * LANE_GROUP + lane, i, e);
            }
        }
    }
}

/// The grid runner behind [`error_counts_with`]: slack classes and
/// per-group tables are built once per call for every task the call may run
/// (see the module docs), then [`PackedGrid::run`] executes any subset of
/// those tasks.
struct PackedGrid<'a, M: InstErrorModel, F> {
    program: &'a Program,
    model: &'a M,
    scheme: CorrectionScheme,
    init: &'a F,
    cfg: MonteCarloConfig,
    classes: SlackClasses<M::SlackKey>,
    /// Per lane group touched by the call: its `class × lane` table.
    tables: BTreeMap<usize, Vec<f64>>,
}

impl<'a, M, F> PackedGrid<'a, M, F>
where
    M: InstErrorModel + Sync,
    F: Fn(usize, &mut Machine) + Sync,
{
    fn new(
        program: &'a Program,
        model: &'a M,
        chips: &[ChipSample],
        scheme: CorrectionScheme,
        init: &'a F,
        cfg: MonteCarloConfig,
        tasks: &[Task],
    ) -> Result<Self> {
        let inputs: Vec<usize> = tasks
            .iter()
            .map(|&((_, i), _)| i)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let groups: Vec<usize> = tasks
            .iter()
            .map(|&((g, _), _)| g)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let classes = SlackClasses::build(program, model, &inputs, scheme, init, cfg)?;
        let filled: Vec<Vec<f64>> = groups
            .par_iter()
            .map(|&g| classes.table(group_of(chips, g)))
            .collect();
        Ok(PackedGrid {
            program,
            model,
            scheme,
            init,
            cfg,
            classes,
            tables: groups.into_iter().zip(filled).collect(),
        })
    }

    /// Runs `tasks` in parallel; returns per-task, per-lane error counts
    /// (dead lanes read 0). The lowest-indexed failing task's error wins.
    fn run(&self, tasks: &[Task]) -> Result<Vec<Vec<u64>>> {
        tasks
            .par_iter()
            .map(|&((g, i), live)| self.run_task(g, i, live))
            .collect()
    }

    /// Executes the program once for one `(group, input)` cell, replaying
    /// every live lane's draws against the group's table.
    fn run_task(&self, group: usize, input: usize, live: u64) -> Result<Vec<u64>> {
        failpoints::fail_point!("sim::mc_cell", |_| Err(
            crate::SimError::InstructionBudgetExhausted { budget: 0 }
        ));
        // `new` tabulated every group its task list names, and `run` only
        // takes tasks from that list.
        let table = &self.tables[&group];
        let mut machine = Machine::new(self.program, self.cfg.dmem_words);
        (self.init)(input, &mut machine);
        let chip_base = group * LANE_GROUP;
        let mut rngs: Vec<(usize, Xoshiro256)> = (0..LANE_GROUP)
            .filter(|&l| live >> l & 1 == 1)
            .map(|l| {
                let stream = cell_stream(chip_base + l, input);
                (l, Xoshiro256::seed_stream(self.cfg.seed, stream))
            })
            .collect();
        let mut errors = vec![0u64; LANE_GROUP];
        // Every lane starts from the flushed processor state (`p^in = 1`).
        let mut bus = BusState::flushed();
        // The bus state a correction event leaves behind — per-scheme constant,
        // so the lanes' bus states form a two-point set at every instruction:
        // `bus.advance` is memoryless in the prior state, hence non-erred lanes
        // all share `advance(r_prev)` and erred lanes all share this one.
        let err_bus = self.scheme.post_error_bus_state();
        // Lanes whose previous instruction erred: their feature toggles are
        // measured against the post-correction bus instead.
        let mut err_mask = 0u64;
        let mut executed = 0u64;
        let mut prev_index: Option<u32> = None;
        // Class ids index `classes.slacks`, and every table holds one row
        // per slack.
        let row = |class: usize| &table[class * LANE_GROUP..(class + 1) * LANE_GROUP];
        while !machine.halted() {
            if executed >= self.cfg.budget {
                return Err(crate::SimError::InstructionBudgetExhausted {
                    budget: self.cfg.budget,
                });
            }
            let r = machine.step(self.program)?;
            executed += 1;
            let k_n = self.model.slack_key(prev_index, r.index, &extract(&r, bus));
            let p_n = row(self.classes.class(k_n, input)?);
            let p_e = if err_mask != 0 {
                let k_e = self
                    .model
                    .slack_key(prev_index, r.index, &extract(&r, err_bus));
                if k_e == k_n {
                    p_n
                } else {
                    row(self.classes.class(k_e, input)?)
                }
            } else {
                p_n
            };
            let mut new_mask = 0u64;
            for (l, rng) in &mut rngs {
                let p = if err_mask >> *l & 1 == 1 {
                    p_e[*l]
                } else {
                    p_n[*l]
                };
                if rng.next_f64() < p {
                    new_mask |= 1 << *l;
                    errors[*l] += 1;
                }
            }
            err_mask = new_mask;
            prev_index = Some(r.index);
            bus.advance(&r);
        }
        Ok(errors)
    }
}

/// The chips of lane group `g` (shorter than [`LANE_GROUP`] for a ragged
/// final group).
fn group_of(chips: &[ChipSample], g: usize) -> &[ChipSample] {
    &chips[g * LANE_GROUP..((g + 1) * LANE_GROUP).min(chips.len())]
}

/// Mean live-lane occupancy of the packed grid for a given chip count: 1.0
/// when `chips` is a multiple of [`LANE_GROUP`], lower when the final
/// ragged group leaves lanes idle.
pub fn lane_occupancy(chips: usize) -> f64 {
    if chips == 0 {
        1.0
    } else {
        chips as f64 / (chips.div_ceil(LANE_GROUP) * LANE_GROUP) as f64
    }
}

/// Runs the `chips × inputs` grid and returns the error count matrix
/// `counts[chip][input]`: slack classes are resolved once, each lane group
/// tabulates its chip probabilities once, and one execution per
/// `(lane group, input)` serves 64 chips (see the module docs for why this
/// is exact). Cell `(c, i)` is bitwise identical to executing chip `c`
/// alone on input `i` with [`InstErrorModel::error_probability`] and the
/// RNG stream `(cfg.seed, c, i)`, at any thread count.
///
/// `init(input_index, machine)` prepares the input dataset; it must be a
/// pure function of its arguments and callable concurrently (`Fn + Sync`),
/// which every dataset writer is.
///
/// # Errors
///
/// Propagates machine errors (the lowest-indexed failing input wins,
/// deterministically).
pub fn error_counts<M, F>(
    program: &Program,
    model: &M,
    chips: &[ChipSample],
    inputs: usize,
    scheme: CorrectionScheme,
    init: F,
    cfg: MonteCarloConfig,
) -> Result<Vec<Vec<u64>>>
where
    M: InstErrorModel + Sync,
    F: Fn(usize, &mut Machine) + Sync,
{
    error_counts_with(program, model, chips, inputs, scheme, init, cfg, None, None)
}

/// Like [`error_counts`] but with process variation *marginalized* per
/// instruction (the analytic pipeline's independence assumption): no chips
/// are drawn; each dynamic instruction errs independently with its
/// unconditional probability. Comparing this against the per-chip variant
/// isolates the effect of chip-shared variation, which the paper's
/// dependency-neighborhood bounds do not cover.
///
/// Returns `reps × inputs` error counts.
///
/// # Errors
///
/// Propagates machine errors.
pub fn error_counts_marginalized<M, F>(
    program: &Program,
    model: &M,
    reps: usize,
    inputs: usize,
    scheme: CorrectionScheme,
    init: F,
    cfg: MonteCarloConfig,
) -> Result<Vec<u64>>
where
    M: InstErrorModel + Sync,
    F: Fn(usize, &mut Machine) + Sync,
{
    if inputs == 0 {
        return Ok(Vec::new());
    }
    // A distinct master seed keeps the marginalized streams disjoint from
    // the per-chip grid's even when rep/input indices coincide.
    let master = cfg.seed ^ 0x4D41_5247;
    (0..reps * inputs)
        .into_par_iter()
        .map(|cell| {
            let (r, i) = (cell / inputs, cell % inputs);
            let mut rng = Xoshiro256::seed_stream(master, cell_stream(r, i));
            run_cell(program, cfg, scheme, i, &init, &mut rng, |prev, idx, f| {
                model.marginal_probability(prev, idx, f)
            })
        })
        .collect()
}

/// Summarizes a count matrix into the empirical error-count distribution
/// (all chip×input cells pooled, equal weights).
pub fn pooled_counts(counts: &[Vec<u64>]) -> Vec<u64> {
    counts.iter().flatten().copied().collect()
}

// ---------------------------------------------------------------------------
// Checkpoint / resume for the (chip, input) grid
// ---------------------------------------------------------------------------

/// The `TERSEMC1` payload: completed grid cells (`chip · inputs + input`)
/// and their counts, all little-endian `u64`s.
///
/// ```text
/// magic      8 bytes  b"TERSEMC1"
/// context    u64      mc_context_hash of the run
/// cells      u64      chips × inputs
/// entries    u64      number of (cell, count) pairs that follow
/// entry*     u64 cell, u64 count
/// ```
struct McImage {
    context: u64,
    cells: usize,
}

/// The 64-bit hash of the run parameters that determine every cell count;
/// a resumed checkpoint must match, or its counts belong to another run.
///
/// It is FNV-1a in shape (offset basis `0xcbf2_9ce4_8422_2325`, xor then
/// multiply per byte) but multiplies by `0x1000_0000_01b3`, sixteen times
/// the FNV prime `0x100_0000_01b3`. The multiplier must not change: every
/// `TERSEMC1` checkpoint already on disk carries this hash, and a different
/// one would orphan them all.
fn mc_context_hash(cfg: MonteCarloConfig, chips: usize, inputs: usize, program_len: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [
        cfg.seed,
        cfg.budget,
        cfg.dmem_words as u64,
        chips as u64,
        inputs as u64,
        program_len as u64,
    ] {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

impl CheckpointFormat for McImage {
    type Unit = u64;
    const MAGIC: [u8; 8] = *b"TERSEMC1";

    fn units(&self) -> usize {
        self.cells
    }

    fn encode(&self, done: &[Option<u64>]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32 + 16 * done.len());
        buf.extend_from_slice(&Self::MAGIC);
        buf.extend_from_slice(&self.context.to_le_bytes());
        buf.extend_from_slice(&(done.len() as u64).to_le_bytes());
        let entries = done.iter().filter(|d| d.is_some()).count() as u64;
        buf.extend_from_slice(&entries.to_le_bytes());
        for (cell, d) in done.iter().enumerate() {
            if let Some(count) = d {
                buf.extend_from_slice(&(cell as u64).to_le_bytes());
                buf.extend_from_slice(&count.to_le_bytes());
            }
        }
        buf
    }

    fn parse(&self, bytes: &[u8]) -> std::result::Result<Vec<Option<u64>>, String> {
        let mut done = vec![None; self.cells];
        let word = |i: usize| -> std::result::Result<u64, String> {
            let at = 8 + 8 * i;
            bytes
                .get(at..at + 8)
                .and_then(|s| <[u8; 8]>::try_from(s).ok())
                .map(u64::from_le_bytes)
                .ok_or_else(|| "truncated checkpoint file".to_owned())
        };
        if !bytes.starts_with(&Self::MAGIC) {
            return Err("bad checkpoint magic".into());
        }
        if word(0)? != self.context {
            return Err("checkpoint belongs to a different run".into());
        }
        if word(1)? != self.cells as u64 {
            return Err("checkpoint grid size mismatch".into());
        }
        let entries = word(2)? as usize;
        for k in 0..entries {
            let cell = word(3 + 2 * k)? as usize;
            let count = word(4 + 2 * k)?;
            if cell >= self.cells {
                return Err("checkpoint cell index out of range".into());
            }
            done[cell] = Some(count);
        }
        Ok(done)
    }
}

/// [`error_counts`] as a resumable sweep over the grid's cells: cells
/// already in the `TERSEMC1` checkpoint are skipped, at most `cell_budget`
/// pending cells are computed (`0` is treated as 1), and the file is removed
/// once the grid is complete (see [`crate::sweep`]). The sweep's work item
/// is one `(lane group, input)` task with all of its pending cells, so a
/// flush follows every `every_n` tasks (program executions), not cells.
/// Without a checkpoint or a budget this is [`error_counts`].
///
/// One [`PackedGrid`] is built over the cells this call computes, so its
/// slack classes and lane-group tables are shared by every batch. Each
/// cell's count depends only on `(cfg.seed, chip, input)`, so the returned
/// matrix is bitwise identical to an uninterrupted [`error_counts`] call
/// however the grid was sliced.
///
/// # Errors
///
/// Propagates machine errors; [`crate::SimError::Checkpoint`] for an
/// unreadable or mismatched checkpoint; [`crate::SimError::Interrupted`]
/// when the budget leaves cells pending.
// Mirrors `error_counts`' signature, plus the checkpoint and the budget.
#[allow(clippy::too_many_arguments)]
pub fn error_counts_with<M, F>(
    program: &Program,
    model: &M,
    chips: &[ChipSample],
    inputs: usize,
    scheme: CorrectionScheme,
    init: F,
    cfg: MonteCarloConfig,
    ckpt: Option<&Checkpoint>,
    cell_budget: Option<usize>,
) -> Result<Vec<Vec<u64>>>
where
    M: InstErrorModel + Sync,
    F: Fn(usize, &mut Machine) + Sync,
{
    if inputs == 0 {
        return Ok(vec![Vec::new(); chips.len()]);
    }
    let format = McImage {
        context: mc_context_hash(cfg, chips.len(), inputs, program.len()),
        cells: chips.len() * inputs,
    };
    let sweep = Sweep::start(&format, ckpt, cell_budget)?;
    let tasks = pack_tasks(sweep.units(), inputs);
    let grid = PackedGrid::new(program, model, chips, scheme, &init, cfg, &tasks)?;
    // One work item per `(group, input)` task, numbered in `pack_tasks`'
    // order: a batch runs whole tasks, each one execution for every
    // pending lane of its group.
    let task_of = |cell: usize| cell / inputs / LANE_GROUP * inputs + cell % inputs;
    let done = sweep.run(task_of, |batch| {
        let tasks = pack_tasks(batch, inputs);
        let mut counts = Vec::with_capacity(batch.len());
        for_each_count(&tasks, &grid.run(&tasks)?, |c, i, e| {
            counts.push((c * inputs + i, e));
        });
        Ok::<_, crate::SimError>(counts)
    })?;
    Ok(done.chunks(inputs).map(<[u64]>::to_vec).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use terse_analyze::integrity;
    use terse_isa::assemble;
    use terse_sta::delay::DelayLibrary;
    use terse_sta::variation::{VariationConfig, VariationModel};

    /// Shared-variable count of the test chip population (slack
    /// sensitivities must span the same space as a chip's draw).
    fn shared_vars() -> usize {
        static VARS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        *VARS.get_or_init(|| chips(1)[0].shared_draw().len())
    }

    /// A toy model: instructions with a carry chain fail more often the
    /// longer it is; everything else never fails.
    struct ToyModel;
    impl InstErrorModel for ToyModel {
        type SlackKey = u8;
        fn slack_key(&self, _prev: Option<u32>, _index: u32, f: &InstFeatures) -> u8 {
            f.carry_chain
        }
        fn slack(&self, carry: u8) -> Option<CanonicalRv> {
            (carry > 0).then(|| {
                CanonicalRv::with_sensitivities(
                    8.0 - f64::from(carry),
                    vec![0.0; shared_vars()],
                    4.0,
                )
            })
        }
    }

    fn chips(n: usize) -> Vec<ChipSample> {
        // Any netlist works for drawing chip samples; use a minimal one.
        let mut b = terse_netlist::NetlistBuilder::new(1);
        let x = b.input("x", 0).unwrap();
        let g = b.gate(terse_netlist::GateKind::Not, &[x], 0).unwrap();
        let ff = b
            .flip_flop("q", terse_netlist::EndpointClass::Data, 0)
            .unwrap();
        b.connect_ff_input(ff, g).unwrap();
        let n_ = b.finish().unwrap();
        let lib = DelayLibrary::normalized_45nm();
        let model = VariationModel::new(&n_, &lib, VariationConfig::default()).unwrap();
        let mut rng = Xoshiro256::seed_from_u64(77);
        (0..n).map(|_| model.sample_chip(&mut rng)).collect()
    }

    #[test]
    fn zero_probability_model_counts_zero() {
        struct Never;
        impl InstErrorModel for Never {
            type SlackKey = ();
            fn slack_key(&self, _: Option<u32>, _: u32, _: &InstFeatures) {}
            fn slack(&self, _: ()) -> Option<CanonicalRv> {
                None
            }
        }
        let p = assemble("addi r1, r0, 3\nadd r2, r1, r1\nhalt\n").unwrap();
        let counts = error_counts(
            &p,
            &Never,
            &chips(2),
            3,
            CorrectionScheme::paper_default(),
            |_, _| {},
            MonteCarloConfig::default(),
        )
        .unwrap();
        assert_eq!(counts.len(), 2);
        assert!(counts.iter().flatten().all(|&c| c == 0));
    }

    #[test]
    fn error_rate_tracks_model_probability() {
        // A loop of adds with full carries: p = carry_chain/64 per add.
        let p = assemble(
            r"
                li   r1, 0xFFFF
                addi r2, r0, 200
            loop:
                add  r3, r1, r1      # carry chain > 0
                addi r2, r2, -1
                bne  r2, r0, loop
                halt
        ",
        )
        .unwrap();
        let counts = error_counts(
            &p,
            &ToyModel,
            &chips(8),
            4,
            CorrectionScheme::paper_default(),
            |_, _| {},
            MonteCarloConfig::default(),
        )
        .unwrap();
        let pooled = pooled_counts(&counts);
        assert_eq!(pooled.len(), 32);
        let mean = pooled.iter().sum::<u64>() as f64 / pooled.len() as f64;
        // Errors happen (the adds carry) but not on every instruction.
        assert!(mean > 1.0, "mean = {mean}");
        assert!(mean < 600.0);
    }

    /// Unique checkpoint path per test (avoids collisions under the
    /// parallel test harness).
    fn ckpt_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("terse_mc_ckpt_{tag}_{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    /// Flushes `done` as one `TERSEMC1` generation through the shared
    /// writer, as a sweep does after a batch.
    fn mc_store(ck: &Checkpoint, context: u64, done: &[Option<u64>]) {
        let image = McImage {
            context,
            cells: done.len(),
        };
        integrity::store_checkpoint(ck.path(), &image.encode(done)).unwrap();
    }

    #[test]
    fn checkpointed_matches_plain_and_cleans_up() {
        let p = assemble("li r1, 0xFFFF\nadd r2, r1, r1\nadd r3, r2, r1\nhalt\n").unwrap();
        let cs = chips(3);
        let cfg = MonteCarloConfig::default();
        let plain = error_counts(
            &p,
            &ToyModel,
            &cs,
            4,
            CorrectionScheme::paper_default(),
            |_, _| {},
            cfg,
        )
        .unwrap();
        let ck = Checkpoint::new(ckpt_path("fresh"), 5);
        let resumed = error_counts_with(
            &p,
            &ToyModel,
            &cs,
            4,
            CorrectionScheme::paper_default(),
            |_, _| {},
            cfg,
            Some(&ck),
            None,
        )
        .unwrap();
        assert_eq!(plain, resumed, "checkpointed run must be bitwise identical");
        assert!(!ck.path().exists(), "finished run removes its checkpoint");
    }

    #[test]
    fn resume_from_partial_checkpoint_is_bitwise_identical() {
        let p = assemble("li r1, 0xFFFF\nadd r2, r1, r1\nhalt\n").unwrap();
        let cs = chips(4);
        let (inputs, cfg) = (3, MonteCarloConfig::default());
        let plain = error_counts(
            &p,
            &ToyModel,
            &cs,
            inputs,
            CorrectionScheme::paper_default(),
            |_, _| {},
            cfg,
        )
        .unwrap();
        // Simulate a killed run: persist only the first half of the grid.
        let total = cs.len() * inputs;
        let context = mc_context_hash(cfg, cs.len(), inputs, p.len());
        let mut done: Vec<Option<u64>> = vec![None; total];
        for cell in 0..total / 2 {
            done[cell] = Some(plain[cell / inputs][cell % inputs]);
        }
        let ck = Checkpoint::new(ckpt_path("partial"), 2);
        mc_store(&ck, context, &done);
        let resumed = error_counts_with(
            &p,
            &ToyModel,
            &cs,
            inputs,
            CorrectionScheme::paper_default(),
            |_, _| {},
            cfg,
            Some(&ck),
            None,
        )
        .unwrap();
        assert_eq!(plain, resumed, "resume must reproduce the full run");
        assert!(!ck.path().exists());
    }

    #[test]
    fn cell_budget_interrupts_and_resumes_bitwise_identical() {
        let p = assemble("li r1, 0xFFFF\nadd r2, r1, r1\nhalt\n").unwrap();
        let cs = chips(4);
        let (inputs, cfg) = (3, MonteCarloConfig::default());
        let plain = error_counts(
            &p,
            &ToyModel,
            &cs,
            inputs,
            CorrectionScheme::paper_default(),
            |_, _| {},
            cfg,
        )
        .unwrap();
        let total = cs.len() * inputs;
        let path = ckpt_path("budget");
        // Slice the grid into budget-limited calls: each one must stop with
        // a typed interruption, leave its progress in the checkpoint, and
        // the final call must finish and clean up.
        let budget = 5;
        let mut completed = 0;
        let ck = Checkpoint::new(&path, 2);
        loop {
            match error_counts_with(
                &p,
                &ToyModel,
                &cs,
                inputs,
                CorrectionScheme::paper_default(),
                |_, _| {},
                cfg,
                Some(&ck),
                Some(budget),
            ) {
                Ok(counts) => {
                    assert_eq!(plain, counts, "sliced run must equal the plain run");
                    assert!(!ck.path().exists(), "finished run removes its checkpoint");
                    break;
                }
                Err(crate::SimError::Interrupted {
                    completed: c,
                    total: t,
                }) => {
                    assert_eq!(t, total);
                    assert_eq!(
                        c,
                        (completed + budget).min(total),
                        "a slice computes its budget"
                    );
                    assert!(c < total, "an interrupted slice cannot be the full grid");
                    completed = c;
                    assert!(
                        ck.path().exists(),
                        "interrupted slice persists its checkpoint"
                    );
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(
            completed > 0,
            "at least one slice must have been interrupted"
        );
    }

    /// A bus-sensitive model: the slack depends on the toggle features, so
    /// the post-error (flushed-bus) feature path of the lane group runner is
    /// genuinely exercised — a lane that erred draws from a different
    /// probability than its neighbours on the next instruction.
    struct ToggleModel;
    impl InstErrorModel for ToggleModel {
        type SlackKey = (u8, u8);
        fn slack_key(&self, _prev: Option<u32>, _index: u32, f: &InstFeatures) -> (u8, u8) {
            (f.toggle_a.saturating_add(f.toggle_b), f.carry_chain)
        }
        fn slack(&self, (toggles, carry): (u8, u8)) -> Option<CanonicalRv> {
            // A shared-component sensitivity so lanes disagree even on
            // equal features.
            let mut coeffs = vec![0.0; shared_vars()];
            if let Some(c) = coeffs.first_mut() {
                *c = 3.0;
            }
            let mean = 40.0 - f64::from(toggles) - f64::from(carry) / 2.0;
            Some(CanonicalRv::with_sensitivities(mean, coeffs, 6.0))
        }
    }

    /// One execution per `(chip, input)` cell with per-instance
    /// [`InstErrorModel::error_probability`] calls — no classes, no tables.
    fn per_chip_counts<M: InstErrorModel>(
        p: &Program,
        model: &M,
        cs: &[ChipSample],
        inputs: usize,
        scheme: CorrectionScheme,
        cfg: MonteCarloConfig,
    ) -> Vec<Vec<u64>> {
        (0..cs.len())
            .map(|c| {
                (0..inputs)
                    .map(|i| {
                        let mut rng = Xoshiro256::seed_stream(cfg.seed, cell_stream(c, i));
                        run_cell(p, cfg, scheme, i, &|_, _| {}, &mut rng, |prev, idx, f| {
                            model.error_probability(prev, idx, f, &cs[c])
                        })
                        .unwrap()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn packed_grid_matches_scalar_grid_bitwise() {
        // 70 chips: one full lane group plus a ragged 6-lane tail.
        let p = assemble(
            r"
                li   r1, 0xFFFF
                addi r2, r0, 60
            loop:
                add  r3, r1, r1
                addi r2, r2, -1
                bne  r2, r0, loop
                halt
        ",
        )
        .unwrap();
        let cs = chips(70);
        let cfg = MonteCarloConfig::default();
        let scheme = CorrectionScheme::paper_default();
        let scalar = per_chip_counts(&p, &ToggleModel, &cs, 2, scheme, cfg);
        let packed = error_counts(&p, &ToggleModel, &cs, 2, scheme, |_, _| {}, cfg).unwrap();
        assert_eq!(scalar, packed, "lane packing must be bitwise exact");
        // The run is long enough that errors actually occur.
        assert!(packed.iter().flatten().sum::<u64>() > 0);
    }

    /// Program executions per checkpointed grid, counted through `init`
    /// (each execution calls it once): one key-collection run per input,
    /// then one replay per `(lane group, input)` task, whatever the flush
    /// interval.
    #[test]
    fn checkpointed_grid_runs_one_execution_per_lane_group_task() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let p = assemble("li r1, 0xFFFF\nadd r2, r1, r1\nadd r3, r2, r2\nhalt\n").unwrap();
        let (scheme, cfg) = (
            CorrectionScheme::paper_default(),
            MonteCarloConfig::default(),
        );
        let executions = |n: usize, inputs: usize, every_n: usize| {
            let cs = chips(n);
            let plain =
                error_counts(&p, &ToggleModel, &cs, inputs, scheme, |_, _| {}, cfg).unwrap();
            let runs = AtomicUsize::new(0);
            let ck = Checkpoint::new(ckpt_path(&format!("execs-{n}-{every_n}")), every_n);
            let counted = error_counts_with(
                &p,
                &ToggleModel,
                &cs,
                inputs,
                scheme,
                |_, _| {
                    runs.fetch_add(1, Ordering::Relaxed);
                },
                cfg,
                Some(&ck),
                None,
            )
            .unwrap();
            assert_eq!(
                plain, counted,
                "the count matrix does not depend on batching"
            );
            assert!(!ck.path().exists());
            runs.into_inner()
        };
        assert_eq!(executions(64, 2, 4), 2 + 2);
        assert_eq!(executions(70, 3, 1), 3 + 6);
    }

    #[test]
    fn impure_dataset_writer_is_a_typed_replay_error() {
        // The first execution (the key collection run) sees a zero operand;
        // every replay sees 0xFFFF, whose carry chain is a slack key the
        // collection never met.
        let p = assemble("ld r1, r0, 0\naddi r2, r1, 1\nhalt\n").unwrap();
        let runs = std::sync::atomic::AtomicUsize::new(0);
        let init = |_: usize, m: &mut Machine| {
            let first = runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed) == 0;
            m.store(0, if first { 0 } else { 0xFFFF }).unwrap();
        };
        let err = error_counts(
            &p,
            &ToyModel,
            &chips(2),
            1,
            CorrectionScheme::paper_default(),
            init,
            MonteCarloConfig::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, crate::SimError::ReplayDiverged { input: 0 }),
            "{err}"
        );
    }

    #[test]
    fn lane_occupancy_reflects_ragged_tail() {
        assert_eq!(lane_occupancy(0), 1.0);
        assert_eq!(lane_occupancy(LANE_GROUP), 1.0);
        assert_eq!(lane_occupancy(2 * LANE_GROUP), 1.0);
        assert!((lane_occupancy(LANE_GROUP / 2) - 0.5).abs() < 1e-12);
        let o = lane_occupancy(70);
        assert!((o - 70.0 / 128.0).abs() < 1e-12);
    }

    #[test]
    fn resume_mid_lane_group_is_bitwise_identical() {
        // A checkpoint that cuts *through* a lane group: scattered cells of
        // group 0 are already done, so the resumed run executes the group
        // with a non-contiguous live mask — and must still reproduce the
        // uninterrupted packed run exactly.
        let p = assemble("li r1, 0xFFFF\nadd r2, r1, r1\nadd r3, r2, r2\nhalt\n").unwrap();
        let cs = chips(7);
        let (inputs, cfg) = (3, MonteCarloConfig::default());
        let scheme = CorrectionScheme::paper_default();
        let plain = error_counts(&p, &ToggleModel, &cs, inputs, scheme, |_, _| {}, cfg).unwrap();
        let total = cs.len() * inputs;
        let context = mc_context_hash(cfg, cs.len(), inputs, p.len());
        let mut done: Vec<Option<u64>> = vec![None; total];
        for cell in [0usize, 2, 5, 9, 11, 16] {
            done[cell] = Some(plain[cell / inputs][cell % inputs]);
        }
        let ck = Checkpoint::new(ckpt_path("midgroup"), 4);
        mc_store(&ck, context, &done);
        let resumed = error_counts_with(
            &p,
            &ToggleModel,
            &cs,
            inputs,
            scheme,
            |_, _| {},
            cfg,
            Some(&ck),
            None,
        )
        .unwrap();
        assert_eq!(plain, resumed, "mid-group resume must be bitwise exact");
        assert!(!ck.path().exists());
    }

    #[test]
    fn mismatched_checkpoint_is_a_typed_error() {
        let p = assemble("li r1, 1\nhalt\n").unwrap();
        let cs = chips(2);
        let cfg = MonteCarloConfig::default();
        let ck = Checkpoint::new(ckpt_path("mismatch"), 4);
        // A checkpoint written under a different seed must be rejected.
        let other = MonteCarloConfig {
            seed: cfg.seed ^ 1,
            ..cfg
        };
        let context = mc_context_hash(other, cs.len(), 2, p.len());
        mc_store(&ck, context, &[None; 4]);
        let err = error_counts_with(
            &p,
            &ToyModel,
            &cs,
            2,
            CorrectionScheme::paper_default(),
            |_, _| {},
            cfg,
            Some(&ck),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, crate::SimError::Checkpoint(_)), "{err}");
        let _ = std::fs::remove_file(ck.path());
    }

    #[test]
    fn corrupt_checkpoint_is_never_loaded_and_resume_stays_bitwise() {
        let p = assemble("li r1, 0xFFF\nadd r2, r1, r1\nhalt\n").unwrap();
        let cs = chips(3);
        let inputs = 2;
        let cfg = MonteCarloConfig::default();
        let scheme = CorrectionScheme::paper_default();
        let plain = error_counts(&p, &ToggleModel, &cs, inputs, scheme, |_, _| {}, cfg).unwrap();
        let total = cs.len() * inputs;
        let context = mc_context_hash(cfg, cs.len(), inputs, p.len());
        // Two generations on disk: a half-done image, then a fuller one.
        let mut done: Vec<Option<u64>> = vec![None; total];
        done[0] = Some(plain[0][0]);
        let ck = Checkpoint::new(ckpt_path("corrupt"), 4);
        mc_store(&ck, context, &done);
        done[1] = Some(plain[0][1]);
        mc_store(&ck, context, &done);
        let bak = integrity::suffixed(ck.path(), integrity::BAK_SUFFIX);
        assert!(bak.exists());
        // Flip a payload bit in the primary: the CRC must catch it, the
        // loader must fall back to the .bak generation — never parse the
        // damaged image — and the final counts must still be bitwise
        // identical to the uninterrupted run.
        let mut bytes = std::fs::read(ck.path()).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x08;
        std::fs::write(ck.path(), &bytes).unwrap();
        let resumed = error_counts_with(
            &p,
            &ToggleModel,
            &cs,
            inputs,
            scheme,
            |_, _| {},
            cfg,
            Some(&ck),
            None,
        )
        .unwrap();
        assert_eq!(plain, resumed, "fallback resume must be bitwise exact");
        let evidence = integrity::suffixed(ck.path(), integrity::CORRUPT_SUFFIX);
        assert!(evidence.exists(), "evidence of the damaged image is kept");
        assert!(!ck.path().exists() && !bak.exists());
        std::fs::remove_file(&evidence).unwrap();
    }

    /// A budget of 0 is treated as 1: every call makes progress, so a
    /// caller that requeues on `Interrupted` always finishes.
    #[test]
    fn zero_cell_budget_still_makes_progress() {
        let p = assemble("li r1, 0xFFFF\nadd r2, r1, r1\nhalt\n").unwrap();
        let cs = chips(2);
        let (inputs, cfg) = (2, MonteCarloConfig::default());
        let scheme = CorrectionScheme::paper_default();
        let plain = error_counts(&p, &ToggleModel, &cs, inputs, scheme, |_, _| {}, cfg).unwrap();
        let ck = Checkpoint::new(ckpt_path("zero-budget"), 3);
        let mut completed = 0;
        let sliced = loop {
            match error_counts_with(
                &p,
                &ToggleModel,
                &cs,
                inputs,
                scheme,
                |_, _| {},
                cfg,
                Some(&ck),
                Some(0),
            ) {
                Ok(counts) => break counts,
                Err(crate::SimError::Interrupted { completed: c, .. }) => {
                    assert_eq!(c, completed + 1, "each call computes one cell");
                    completed = c;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        };
        assert_eq!(completed, cs.len() * inputs - 1);
        assert_eq!(plain, sliced);
        assert!(!ck.path().exists());
    }

    /// `TERSEMC1` images already on disk must keep resuming, so the image
    /// bytes and the context hash are pinned to the values the code wrote
    /// before the file protocol was shared with `TERSECP1`.
    #[test]
    fn tersemc1_image_and_context_hash_are_byte_stable() {
        let ctx = mc_context_hash(MonteCarloConfig::default(), 3, 2, 4);
        assert_eq!(ctx, 0x1e0e_879f_33b4_6727, "got {ctx:#018x}");
        // A 3-chip × 2-input grid with one stored cell.
        let ck = Checkpoint::new(ckpt_path("pinned"), 1);
        let mut done = vec![None; 6];
        done[3] = Some(17);
        mc_store(&ck, ctx, &done);
        let bytes = std::fs::read(ck.path()).unwrap();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in &bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        assert_eq!(
            (bytes.len(), h),
            (72, 0x9b60_60c0_8289_120f),
            "got {h:#018x}"
        );
        std::fs::remove_file(ck.path()).unwrap();
    }

    #[test]
    fn deterministic_given_seed() {
        let p = assemble("li r1, 0xFFF\nadd r2, r1, r1\nhalt\n").unwrap();
        let cfg = MonteCarloConfig {
            seed: 5,
            ..MonteCarloConfig::default()
        };
        let c1 = error_counts(
            &p,
            &ToyModel,
            &chips(3),
            2,
            CorrectionScheme::paper_default(),
            |_, _| {},
            cfg,
        )
        .unwrap();
        let c2 = error_counts(
            &p,
            &ToyModel,
            &chips(3),
            2,
            CorrectionScheme::paper_default(),
            |_, _| {},
            cfg,
        )
        .unwrap();
        assert_eq!(c1, c2);
    }
}
