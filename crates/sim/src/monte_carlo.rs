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
//! # Slack-class traces and lane groups
//!
//! [`error_counts`] is [`error_counts_with`] without a checkpoint or a
//! budget; both, and [`error_counts_marginalized`], run one packed grid
//! that works in three steps per call:
//!
//! 1. **Record.** Each input the call touches runs once (in parallel across
//!    inputs). At every retired instruction it records the
//!    [`InstErrorModel::SlackKey`] queried under each of the two bus states
//!    a lane can be in: the normal bus and the scheme's post-error bus. A
//!    timing-error draw never feeds back into architectural state, so this
//!    trajectory is the same on every chip.
//! 2. **Resolve.** Each distinct key is resolved to its chip-independent
//!    slack once per call, and bitwise-equal slacks are interned into dense
//!    *slack classes*. Each input's trajectory becomes a *trace* of
//!    `[normal class, post-error class]` pairs, 8 bytes per retired
//!    instruction.
//! 3. **Tabulate and replay.** Per lane group of [`LANE_GROUP`] = 64 chips,
//!    a `class × lane` table of Bernoulli thresholds is filled once and
//!    shared by every input. The fill is lane-major: a class's
//!    conditional means for all 64 chips accumulate at once over the
//!    group's transposed shared draws. [`std_normal_cdf_threshold`] then
//!    skips the `erfc` wherever the mean lies deep enough in a Normal tail
//!    to fix the threshold (about 98 % of the entries on `typeset`). Each
//!    `(group, input)` task then replays its input's trace, with no
//!    machine, no feature extraction and no hashing. It steps a 64-lane
//!    [`Xoshiro256x64`] whose lane `l` is chip `64·g + l`'s own
//!    `(cfg.seed, chip, input)` stream. The replay kernel is one body
//!    compiled into three tiers: the build's portable target (SSE2 on
//!    x86-64), AVX2, and AVX-512F+VL. Each task runs the widest tier the
//!    CPU reports at run time; the tiers run the same integer
//!    operations, so they are bitwise equal.
//!
//! Only two per-instruction states can differ between lanes: whether the
//! *previous* instruction erred (bus flushed by the correction scheme) or
//! not (bus advanced normally). So a step reads at most two table rows,
//! and each lane picks its threshold with an all-ones/zero error flag,
//! adds its hit to its count and sets its next flag from the hit, all
//! without a branch. A table entry equals [`bernoulli_threshold`] of the
//! very `f64` [`InstErrorModel::error_probability`] returns, and
//! `u >> 11 < T` holds exactly when `next_f64() < p` does. Lane `l` of
//! group `g` draws the sequence chip `64·g + l` would draw alone, so the
//! count matrix equals the one-cell-per-chip reference bit for bit at any
//! thread count, any lane occupancy (ragged final group included), and
//! across checkpoint resumes that cut through a lane group.
//!
//! # Checkpoint and resume
//!
//! [`error_counts_with`] runs the grid as a resumable sweep over its cells
//! ([`crate::sweep`]): stored cells are skipped, at most a budget of pending
//! cells is computed, and the checkpoint is removed once the grid is
//! complete. The budget and every count are in cells, but a batch is cut in
//! whole `(lane group, input)` tasks: the checkpoint's `every_n` counts
//! tasks (trace replays) per flush, and each task replays every pending
//! lane of its group at once. This module keeps only the
//! `TERSEMC1` payload codec and its context hash; the file protocol (the
//! `TERSEFR1` envelope, `.bak`/`.corrupt` generations, the durable writer)
//! is `terse_analyze::integrity`'s, shared with the estimate's `TERSECP1`.

use crate::correction::CorrectionScheme;
use crate::features::{extract, BusState, InstFeatures};
use crate::machine::Machine;
use crate::sweep::{Checkpoint, CheckpointFormat, Sweep};
use crate::Result;
use rayon::prelude::*;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::Hash;
use terse_isa::Program;
use terse_sta::variation::ChipSample;
use terse_sta::CanonicalRv;
use terse_stats::rng::{bernoulli_threshold, std_normal_cdf_threshold, Xoshiro256, Xoshiro256x64};

/// Chips evaluated per packed lane group (one trace replay serves one
/// group; see the module docs).
pub const LANE_GROUP: usize = Xoshiro256x64::LANES;

/// An instruction error model queried by the Monte Carlo engine.
///
/// Implemented by the DTA crate's trained model. A dynamic instance's
/// timing slack is a canonical-form Gaussian that depends on the instance
/// (static instruction, previously retired instruction, features) but not
/// on the chip; its error probability on one chip conditions that slack on
/// the chip's shared process-variation draw. The model exposes the slack
/// through a small [`InstErrorModel::SlackKey`] so the grid can resolve
/// each distinct slack once per call and share it across chips, inputs and
/// loop iterations. The grid reads only the slack, so the two provided
/// probability methods are the contract it reproduces.
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
        unconditional_probability(
            self.slack(self.slack_key(prev_index, index, features))
                .as_ref(),
        )
    }
}

/// `Pr(slack < 0 | chip)`: the formula behind
/// [`InstErrorModel::error_probability`], and the reference the grid's chip
/// tables reproduce bit for bit after [`bernoulli_threshold`] (see
/// [`SlackTraces::chip_table`]).
fn chip_probability(slack: Option<&CanonicalRv>, chip: &ChipSample) -> f64 {
    slack.map_or(0.0, |s| s.prob_negative_given(chip.shared_draw()))
}

/// The [`bernoulli_threshold`] of [`chip_probability`] from the slack's
/// conditional mean `m` on the chip and its independent residual `indep`,
/// as [`CanonicalRv::prob_negative_given`] goes on from `m`: a step at 0
/// when `indep` is 0, else the Normal tail at `−m / indep` through
/// [`std_normal_cdf_threshold`].
fn conditional_threshold(m: f64, indep: f64) -> u64 {
    if indep == 0.0 {
        bernoulli_threshold(if m < 0.0 { 1.0 } else { 0.0 })
    } else {
        std_normal_cdf_threshold(-m / indep)
    }
}

/// `Pr(slack < 0)`: the one formula behind both
/// [`InstErrorModel::marginal_probability`] and the marginalized grid's
/// table.
fn unconditional_probability(slack: Option<&CanonicalRv>) -> f64 {
    slack.map_or(0.0, CanonicalRv::prob_negative)
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

/// A trace: per retired instruction, the `[normal bus, post-error bus]`
/// slack classes it queries.
type Trace = Vec<[u32; 2]>;

/// A `u32` trace entry for the `n`-th distinct key or class.
fn trace_id(n: usize) -> Result<u32> {
    u32::try_from(n).map_err(|_| crate::SimError::SlackClassOverflow)
}

/// The id of `value` in `seen` (first-seen order), assigning the next one
/// to a new value.
fn intern<T: Eq + Hash>(seen: &mut HashMap<T, u32>, value: T) -> Result<(u32, bool)> {
    let n = seen.len();
    match seen.entry(value) {
        Entry::Occupied(e) => Ok((*e.get(), false)),
        Entry::Vacant(e) => Ok((*e.insert(trace_id(n)?), true)),
    }
}

/// Step 1 of the grid for one input: executes it once and returns the
/// distinct slack keys its trajectory queries under either bus state, in
/// first-query order, and its trace over indices into those keys.
fn record<M, F>(
    program: &Program,
    model: &M,
    cfg: MonteCarloConfig,
    scheme: CorrectionScheme,
    input: usize,
    init: &F,
) -> Result<(Vec<M::SlackKey>, Trace)>
where
    M: InstErrorModel,
    F: Fn(usize, &mut Machine),
{
    let mut machine = Machine::new(program, cfg.dmem_words);
    init(input, &mut machine);
    let err_bus = scheme.post_error_bus_state();
    // The program starts from a flushed processor state (the paper's
    // `p^in = 1` convention).
    let mut bus = BusState::flushed();
    let mut key_ids = HashMap::new();
    let mut keys = Vec::new();
    let mut trace = Vec::new();
    let mut executed = 0u64;
    let mut prev_index: Option<u32> = None;
    let mut id_of = |k: M::SlackKey| -> Result<u32> {
        let (id, new) = intern(&mut key_ids, k)?;
        if new {
            keys.push(k);
        }
        Ok(id)
    };
    while !machine.halted() {
        if executed >= cfg.budget {
            return Err(crate::SimError::InstructionBudgetExhausted { budget: cfg.budget });
        }
        let r = machine.step(program)?;
        executed += 1;
        let k_n = model.slack_key(prev_index, r.index, &extract(&r, bus));
        let k_e = model.slack_key(prev_index, r.index, &extract(&r, err_bus));
        let n = id_of(k_n)?;
        let e = if k_e == k_n { n } else { id_of(k_e)? };
        trace.push([n, e]);
        prev_index = Some(r.index);
        bus.advance(&r);
    }
    Ok((keys, trace))
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

/// A `class × lane` table of [`bernoulli_threshold`]s: lane `l` of a
/// class's row errs when its draw's top 53 bits fall below entry `l`.
type Table = Vec<[u64; LANE_GROUP]>;

/// Steps 1–2 of one grid call: the trace of every input the call touches,
/// over dense slack classes.
struct SlackTraces {
    /// The inputs the call touches, ascending.
    inputs: Vec<usize>,
    /// `traces[k]` is the trace of input `inputs[k]`.
    traces: Vec<Trace>,
    /// One slack per class.
    slacks: Vec<Option<CanonicalRv>>,
}

impl SlackTraces {
    /// Records `inputs` (ascending; in parallel), resolves each distinct key
    /// once and interns equal slacks. Class ids follow first-query order
    /// over ascending inputs, so they do not depend on the thread count.
    fn record<M, F>(
        program: &Program,
        model: &M,
        inputs: Vec<usize>,
        scheme: CorrectionScheme,
        init: &F,
        cfg: MonteCarloConfig,
    ) -> Result<Self>
    where
        M: InstErrorModel + Sync,
        F: Fn(usize, &mut Machine) + Sync,
    {
        let recorded: Vec<(Vec<M::SlackKey>, Trace)> = inputs
            .par_iter()
            .map(|&i| record(program, model, cfg, scheme, i, init))
            .collect::<Result<_>>()?;
        // Per input, its local key ids → call-wide key ids.
        let mut call_ids = HashMap::new();
        let mut call_keys = Vec::new();
        let mut to_call = Vec::with_capacity(recorded.len());
        for (input_keys, _) in &recorded {
            let mut ids = Vec::with_capacity(input_keys.len());
            for &k in input_keys {
                let (id, new) = intern(&mut call_ids, k)?;
                if new {
                    call_keys.push(k);
                }
                ids.push(id);
            }
            to_call.push(ids);
        }
        let resolved: Vec<Option<CanonicalRv>> =
            call_keys.par_iter().map(|&k| model.slack(k)).collect();
        let mut interned = HashMap::new();
        let mut slacks = Vec::new();
        let mut class_of_key = Vec::with_capacity(resolved.len());
        for s in resolved {
            let (class, new) = intern(&mut interned, slack_bits(s.as_ref()))?;
            if new {
                slacks.push(s);
            }
            class_of_key.push(class);
        }
        // Key ids are dense, so each index below is in range.
        let traces = recorded
            .into_iter()
            .zip(to_call)
            .map(|((_, mut trace), input_to_call)| {
                let class: Vec<u32> = input_to_call
                    .iter()
                    .map(|&id| class_of_key[id as usize])
                    .collect();
                for id in trace.iter_mut().flatten() {
                    *id = class[*id as usize];
                }
                trace
            })
            .collect();
        Ok(SlackTraces {
            inputs,
            traces,
            slacks,
        })
    }

    /// The trace of input `input`, which must be one the call touches.
    fn trace(&self, input: usize) -> &[[u32; 2]] {
        &self.traces[self.inputs.partition_point(|&i| i < input)]
    }

    /// Step 3's table for one lane group: lane `l` of a class's row holds
    /// `bernoulli_threshold(chip_probability(slack, chip l))` (lanes past a
    /// ragged group's end stay 0).
    ///
    /// The fill is lane-major. The group's shared draws are transposed once
    /// to variable-major, and each class's conditional means for all 64
    /// lanes accumulate together, variables outside and lanes inside, so
    /// the loop vectorises. Per lane the additions run in
    /// [`CanonicalRv::prob_negative_given`]'s order, from its `f64` sum's
    /// start value, then add the mean: each conditional mean is bitwise the
    /// reference's. [`conditional_threshold`] then skips the `erfc` on the
    /// Normal-tail bands.
    fn chip_table(&self, group_chips: &[ChipSample]) -> Table {
        let vars = group_chips.first().map_or(0, |c| c.shared_draw().len());
        // `draws[v][l]` is chip `l`'s draw of shared variable `v`.
        let mut draws = vec![[0.0; LANE_GROUP]; vars];
        for (l, chip) in group_chips.iter().enumerate() {
            assert_eq!(chip.shared_draw().len(), vars, "chips of one population");
            for (v, &x) in chip.shared_draw().iter().enumerate() {
                draws[v][l] = x;
            }
        }
        // The start value of the fold behind `Sum for f64`.
        let fold_start: f64 = std::iter::empty::<f64>().sum();
        self.slacks
            .iter()
            .map(|slack| {
                let mut row = [0; LANE_GROUP];
                let Some(s) = slack else { return row };
                assert_eq!(s.coeffs().len(), vars, "slack over the chips' variables");
                let mut dot = [fold_start; LANE_GROUP];
                for (&a, xs) in s.coeffs().iter().zip(&draws) {
                    for (d, &x) in dot.iter_mut().zip(xs) {
                        *d += a * x;
                    }
                }
                for (t, &d) in row.iter_mut().zip(&dot).take(group_chips.len()) {
                    *t = conditional_threshold(s.mean() + d, s.indep());
                }
                row
            })
            .collect()
    }

    /// The marginalized grid's table: every lane of a class's row holds the
    /// threshold of the class's unconditional error probability.
    fn marginal_table(&self) -> Table {
        self.slacks
            .iter()
            .map(|slack| {
                [bernoulli_threshold(unconditional_probability(slack.as_ref())); LANE_GROUP]
            })
            .collect()
    }
}

/// One `(lane group, input)` cell of the packed grid: `live` selects the
/// lanes to compute (bit `l` = chip `64·group + l`).
type Task = ((usize, usize), u64);

/// Packs grid cells (`chip · inputs + input`) into lane-group tasks in
/// ascending `(group, input)` order. A resumed checkpoint may cut through a
/// group, leaving a partial live mask — exactness is unaffected because
/// every lane draws from its own absolute `(chip, input)` stream.
fn pack_tasks(cells: impl IntoIterator<Item = usize>, inputs: usize) -> Vec<Task> {
    let mut groups: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for cell in cells {
        let (c, i) = (cell / inputs, cell % inputs);
        *groups.entry((c / LANE_GROUP, i)).or_insert(0) |= 1u64 << (c % LANE_GROUP);
    }
    groups.into_iter().collect()
}

/// The distinct lane groups and the distinct inputs of `tasks`, ascending.
fn groups_and_inputs(tasks: &[Task]) -> (Vec<usize>, Vec<usize>) {
    let groups: BTreeSet<usize> = tasks.iter().map(|&((g, _), _)| g).collect();
    let inputs: BTreeSet<usize> = tasks.iter().map(|&((_, i), _)| i).collect();
    (groups.into_iter().collect(), inputs.into_iter().collect())
}

/// Hands each live lane's count of `results` (one entry per task, as
/// [`PackedGrid::run`] returns them) to `f(chip, input, count)`.
fn for_each_count(
    tasks: &[Task],
    results: &[[u64; LANE_GROUP]],
    mut f: impl FnMut(usize, usize, u64),
) {
    for (&((g, i), live), lane_counts) in tasks.iter().zip(results) {
        for (lane, &e) in lane_counts.iter().enumerate() {
            if live >> lane & 1 == 1 {
                f(g * LANE_GROUP + lane, i, e);
            }
        }
    }
}

/// The 64-lane generator of task `(group, input)` under master seed `seed`:
/// live lane `l` continues `seed_stream(seed, cell_stream(64·group + l,
/// input))`, and dead lanes are parked.
fn lane_streams(seed: u64, group: usize, input: usize, live: u64) -> Xoshiro256x64 {
    Xoshiro256x64::from_lanes(|l| {
        (live >> l & 1 == 1)
            .then(|| Xoshiro256::seed_stream(seed, cell_stream(group * LANE_GROUP + l, input)))
    })
}

/// Replays one trace against one table: at every step each lane draws
/// once and errs when its draw's top 53 bits fall below its threshold —
/// the normal-bus class's, or the post-error class's if the lane's
/// previous instruction erred. Returns every lane's error count.
///
/// The hit is the borrow of `(u >> 11) − T`: both operands are at most
/// `2^53`, so the difference's sign bit is set exactly when `u >> 11 < T`,
/// and a shift reads it without the 64-bit compare the baseline x86-64
/// vector unit lacks.
///
/// This is the one kernel body. It compiles as is into the portable tier
/// and, inlined, into each feature-enabled copy [`replay_widest`] picks
/// from; every copy runs the same integer operations, so all tiers are
/// bitwise equal.
#[inline(always)]
fn replay(
    trace: &[[u32; 2]],
    table: &[[u64; LANE_GROUP]],
    lanes: &mut Xoshiro256x64,
) -> [u64; LANE_GROUP] {
    let mut counts = [0u64; LANE_GROUP];
    // All ones on lanes whose previous instruction erred. Every lane starts
    // from the flushed processor state, which the trace's first normal-bus
    // class already describes.
    let mut erred = [0u64; LANE_GROUP];
    for &[normal, post_error] in trace {
        // Trace entries are class ids, and a table has one row per class.
        let (normal, post_error) = (&table[normal as usize], &table[post_error as usize]);
        lanes.step(|l, draw| {
            let threshold = (normal[l] & !erred[l]) | (post_error[l] & erred[l]);
            let hit = (draw >> 11).wrapping_sub(threshold) >> 63;
            counts[l] += hit;
            erred[l] = hit.wrapping_neg();
        });
    }
    counts
}

/// [`replay`] on the widest instruction-set tier the running CPU reports.
/// The baseline x86-64 target is SSE2, which steps 2 lanes per vector
/// instruction and has neither a 64-bit rotate nor a wide multiply; AVX2
/// steps 4 lanes and AVX-512 steps 8 with a native rotate. Other CPUs and
/// architectures run the portable body. The standard library caches the
/// feature detection, so each call costs a few loads.
fn replay_widest(
    trace: &[[u32; 2]],
    table: &[[u64; LANE_GROUP]],
    lanes: &mut Xoshiro256x64,
) -> [u64; LANE_GROUP] {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            // SAFETY: AVX-512F and AVX-512VL were just detected on the
            // running CPU, the features `replay_avx512` is compiled for.
            return unsafe { replay_avx512(trace, table, lanes) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was just detected on the running CPU, the only
            // feature `replay_avx2` is compiled for.
            return unsafe { replay_avx2(trace, table, lanes) };
        }
    }
    replay(trace, table, lanes)
}

/// [`replay`] compiled for AVX2.
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn replay_avx2(
    trace: &[[u32; 2]],
    table: &[[u64; LANE_GROUP]],
    lanes: &mut Xoshiro256x64,
) -> [u64; LANE_GROUP] {
    replay(trace, table, lanes)
}

/// [`replay`] compiled for AVX-512F and AVX-512VL.
///
/// # Safety
///
/// The running CPU must support AVX-512F and AVX-512VL.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vl")]
fn replay_avx512(
    trace: &[[u32; 2]],
    table: &[[u64; LANE_GROUP]],
    lanes: &mut Xoshiro256x64,
) -> [u64; LANE_GROUP] {
    replay(trace, table, lanes)
}

/// The grid runner behind [`error_counts_with`] and
/// [`error_counts_marginalized`]: traces and per-group tables are built
/// once per call for every task the call may run (see the module docs),
/// then [`PackedGrid::run`] replays any subset of those tasks.
struct PackedGrid {
    /// Master seed of every lane's stream.
    seed: u64,
    traces: SlackTraces,
    /// Per lane group the call touches: its table.
    tables: BTreeMap<usize, Table>,
}

impl PackedGrid {
    /// The per-chip grid over `tasks`: lane `l` of group `g` is chip
    /// `64·g + l`, its table row the class's probability on that chip.
    fn per_chip<M, F>(
        program: &Program,
        model: &M,
        chips: &[ChipSample],
        scheme: CorrectionScheme,
        init: &F,
        cfg: MonteCarloConfig,
        tasks: &[Task],
    ) -> Result<Self>
    where
        M: InstErrorModel + Sync,
        F: Fn(usize, &mut Machine) + Sync,
    {
        let (groups, inputs) = groups_and_inputs(tasks);
        let traces = SlackTraces::record(program, model, inputs, scheme, init, cfg)?;
        let filled: Vec<Table> = groups
            .par_iter()
            .map(|&g| traces.chip_table(group_of(chips, g)))
            .collect();
        Ok(PackedGrid {
            seed: cfg.seed,
            traces,
            tables: groups.into_iter().zip(filled).collect(),
        })
    }

    /// Runs `tasks` in parallel; returns per-task, per-lane error counts
    /// (dead lanes read 0). The lowest-indexed failing task's error wins.
    fn run(&self, tasks: &[Task]) -> Result<Vec<[u64; LANE_GROUP]>> {
        tasks
            .par_iter()
            .map(|&((g, i), live)| self.run_task(g, i, live))
            .collect()
    }

    /// Replays input `input`'s trace for the live lanes of lane group
    /// `group`.
    fn run_task(&self, group: usize, input: usize, live: u64) -> Result<[u64; LANE_GROUP]> {
        failpoints::fail_point!("sim::mc_cell", |_| Err(
            crate::SimError::InstructionBudgetExhausted { budget: 0 }
        ));
        let mut lanes = lane_streams(self.seed, group, input, live);
        // The constructors tabulate every group their task list names, and
        // `run` only takes tasks from that list.
        let mut counts = replay_widest(self.traces.trace(input), &self.tables[&group], &mut lanes);
        for (l, count) in counts.iter_mut().enumerate() {
            if live >> l & 1 == 0 {
                *count = 0;
            }
        }
        Ok(counts)
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
/// `counts[chip][input]`: each input runs once, slack classes are resolved
/// once, each lane group tabulates its chip thresholds once, and one trace
/// replay per `(lane group, input)` serves 64 chips (see the module docs
/// for why this is exact). Cell `(c, i)` is bitwise identical to executing
/// chip `c` alone on input `i` with [`InstErrorModel::error_probability`]
/// and the RNG stream `(cfg.seed, c, i)`, at any thread count.
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
/// Returns `reps × inputs` error counts, rep-major. It runs the per-chip
/// grid's traces and lane kernel with reps in place of chips: every lane
/// of a class's table row holds the class's unconditional threshold, and
/// rep `r` on input `i` draws from `seed_stream(cfg.seed ^ 0x4D41_5247,
/// cell_stream(r, i))`.
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
    let tasks = pack_tasks(0..reps * inputs, inputs);
    let (groups, inputs_run) = groups_and_inputs(&tasks);
    let traces = SlackTraces::record(program, model, inputs_run, scheme, &init, cfg)?;
    let table = traces.marginal_table();
    let grid = PackedGrid {
        // A distinct master seed keeps the marginalized streams disjoint
        // from the per-chip grid's even when rep/input indices coincide.
        seed: cfg.seed ^ 0x4D41_5247,
        traces,
        tables: groups.into_iter().map(|g| (g, table.clone())).collect(),
    };
    let mut counts = vec![0; reps * inputs];
    for_each_count(&tasks, &grid.run(&tasks)?, |r, i, e| {
        counts[r * inputs + i] = e;
    });
    Ok(counts)
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
/// flush follows every `every_n` tasks (trace replays), not cells.
/// Without a checkpoint or a budget this is [`error_counts`].
///
/// One packed grid is built over the cells this call computes, so each
/// touched input runs once per call, and its trace and the lane-group
/// tables are shared by every batch. Each
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
    let tasks = pack_tasks(sweep.units().iter().copied(), inputs);
    let grid = PackedGrid::per_chip(program, model, chips, scheme, &init, cfg, &tasks)?;
    // One work item per `(group, input)` task, numbered in `pack_tasks`'
    // order: a batch runs whole tasks, each one trace replay for every
    // pending lane of its group.
    let task_of = |cell: usize| cell / inputs / LANE_GROUP * inputs + cell % inputs;
    let done = sweep.run(task_of, |batch| {
        let tasks = pack_tasks(batch.iter().copied(), inputs);
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
    /// [`InstErrorModel::error_probability`] calls and scalar `f64` draws —
    /// no traces, no classes, no tables, no lanes.
    fn per_chip_counts<M: InstErrorModel>(
        p: &Program,
        model: &M,
        cs: &[ChipSample],
        inputs: usize,
        scheme: CorrectionScheme,
        cfg: MonteCarloConfig,
    ) -> Vec<Vec<u64>> {
        let cell = |chip: &ChipSample, rng: &mut Xoshiro256| {
            let mut machine = Machine::new(p, cfg.dmem_words);
            let mut bus = BusState::flushed();
            let (mut prev, mut errors) = (None, 0u64);
            while !machine.halted() {
                let r = machine.step(p).unwrap();
                let prob = model.error_probability(prev, r.index, &extract(&r, bus), chip);
                prev = Some(r.index);
                if rng.next_f64() < prob {
                    errors += 1;
                    bus = scheme.post_error_bus_state();
                } else {
                    bus.advance(&r);
                }
            }
            errors
        };
        (0..cs.len())
            .map(|c| {
                (0..inputs)
                    .map(|i| {
                        cell(
                            &cs[c],
                            &mut Xoshiro256::seed_stream(cfg.seed, cell_stream(c, i)),
                        )
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
    /// (each execution calls it once): one recording run per input per
    /// call, whatever the flush interval — tasks replay traces.
    #[test]
    fn checkpointed_grid_runs_each_input_once_per_call() {
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
        for every_n in [1, 2, 4, 1000] {
            assert_eq!(executions(64, 2, every_n), 2, "64 x 2, every_n {every_n}");
            assert_eq!(executions(70, 3, every_n), 3, "70 x 3, every_n {every_n}");
        }
    }

    /// Every live lane of a task's generator draws its cell's own stream,
    /// for full and ragged live masks alike.
    #[test]
    fn lane_streams_reproduce_cell_streams() {
        let ragged = (1u64 << 6) - 1;
        let scattered = 0xA5A5_0F0F_0000_8001;
        for (group, input, live) in [(0, 0, u64::MAX), (1, 2, ragged), (3, 1, scattered)] {
            let mut lanes = lane_streams(0x5EED, group, input, live);
            let mut scalar: Vec<Xoshiro256> = (0..LANE_GROUP)
                .map(|l| {
                    Xoshiro256::seed_stream(0x5EED, cell_stream(group * LANE_GROUP + l, input))
                })
                .collect();
            for step in 0..100 {
                lanes.step(|l, draw| {
                    let want = scalar[l].next_u64();
                    if live >> l & 1 == 1 {
                        assert_eq!(draw, want, "group {group}, lane {l}, step {step}");
                    }
                });
            }
        }
    }

    /// `chip_table` equals a per-entry `bernoulli_threshold(chip_probability)`
    /// loop bit for bit, for a full lane group and a ragged one. The classes
    /// put entries in every band of `std_normal_cdf_threshold` and in every
    /// gap between them, and include the `indep == 0` step.
    #[test]
    fn chip_table_matches_per_entry_reference() {
        let vars = shared_vars();
        let sqrt2 = std::f64::consts::SQRT_2;
        // A class whose conditional mean sits near `w · indep · √2` (the
        // `erfc` argument `w`), spread over the chips by `spread` in `w`.
        let class = |w: f64, indep: f64, spread: f64| {
            let a = spread * indep * sqrt2 / (vars as f64).sqrt();
            Some(CanonicalRv::with_sensitivities(
                w * indep * sqrt2,
                (0..vars).map(|v| if v % 2 == 0 { a } else { -a }).collect(),
                indep,
            ))
        };
        let mut slacks = vec![None];
        for w in [
            -40.0, -6.0, -3.0, 0.0, 4.0, 6.0, 15.0, 27.0, 27.25, 27.5, 40.0,
        ] {
            for (indep, spread) in [(1.0, 1e-3), (0.3, 1e-12), (2.5, 0.5)] {
                slacks.push(class(w, indep, spread));
            }
        }
        for mean in [-1.0, -0.0, 0.0, 1.0, f64::NAN, f64::INFINITY] {
            slacks.push(Some(CanonicalRv::with_sensitivities(
                mean,
                vec![0.0; vars],
                0.0,
            )));
            slacks.push(Some(CanonicalRv::with_sensitivities(
                mean,
                vec![0.0; vars],
                1.0,
            )));
        }
        let traces = SlackTraces {
            inputs: Vec::new(),
            traces: Vec::new(),
            slacks,
        };
        let cs = chips(LANE_GROUP + 6);
        for g in [0, 1] {
            let group = group_of(&cs, g);
            let table = traces.chip_table(group);
            // Entries per region of `w`: the three bands and the two gaps.
            let mut regions = [0usize; 5];
            for (row, slack) in table.iter().zip(&traces.slacks) {
                for (l, &t) in row.iter().enumerate() {
                    let Some(chip) = group.get(l) else {
                        assert_eq!(t, 0, "group {g}: lane {l} is past the group's end");
                        continue;
                    };
                    let want = bernoulli_threshold(chip_probability(slack.as_ref(), chip));
                    assert_eq!(t, want, "group {g}, lane {l}, slack {slack:?}");
                    if let Some(s) = slack
                        .as_ref()
                        .filter(|s| s.indep() > 0.0 && s.mean().is_finite())
                    {
                        let m = s.mean()
                            + s.coeffs()
                                .iter()
                                .zip(chip.shared_draw())
                                .map(|(a, x)| a * x)
                                .sum::<f64>();
                        let w = m / s.indep() * std::f64::consts::FRAC_1_SQRT_2;
                        let region = [w > -6.0, w >= 6.0, w > 27.0, w >= 27.5]
                            .iter()
                            .filter(|&&above| above)
                            .count();
                        regions[region] += 1;
                    }
                }
            }
            assert!(regions.iter().all(|&n| n > 0), "group {g}: {regions:?}");
        }
    }

    /// Dead lanes run with the live ones but report 0, even on a class that
    /// errs on every draw.
    #[test]
    fn dead_lanes_report_zero() {
        let p = assemble("li r1, 0xFFFF\nadd r2, r1, r1\nadd r3, r2, r1\nhalt\n").unwrap();
        let live = 0x0000_0000_F0F0_0001;
        let tasks = [((0, 0), live)];
        let mut grid = PackedGrid::per_chip(
            &p,
            &ToyModel,
            &chips(LANE_GROUP),
            CorrectionScheme::paper_default(),
            &|_, _: &mut Machine| {},
            MonteCarloConfig::default(),
            &tasks,
        )
        .unwrap();
        for row in grid.tables.values_mut().flatten() {
            *row = [bernoulli_threshold(1.0); LANE_GROUP];
        }
        let steps = grid.traces.trace(0).len() as u64;
        let counts = grid.run(&tasks).unwrap();
        for (l, &c) in counts[0].iter().enumerate() {
            let want = if live >> l & 1 == 1 { steps } else { 0 };
            assert_eq!(c, want, "lane {l}");
        }
    }

    /// Every kernel tier the running CPU supports, and the dispatcher that
    /// picks among them, returns the portable body's counts and leaves its lane states, bit for bit: random traces
    /// over tables mixing the edge thresholds 0, 1 and `2^53` with random
    /// ones, under full, ragged and scattered live masks, and on an empty
    /// trace.
    #[test]
    fn kernel_tiers_match_portable_body_bitwise() {
        type Kernel =
            fn(&[[u32; 2]], &[[u64; LANE_GROUP]], &mut Xoshiro256x64) -> [u64; LANE_GROUP];
        #[allow(unused_mut)]
        let mut tiers: Vec<(&str, Kernel)> = vec![("widest", replay_widest)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                tiers.push(("avx2", |trace, table, lanes| {
                    // SAFETY: AVX2 was detected on the running CPU above.
                    unsafe { replay_avx2(trace, table, lanes) }
                }));
            }
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vl")
            {
                tiers.push(("avx512", |trace, table, lanes| {
                    // SAFETY: AVX-512F and AVX-512VL were detected on the
                    // running CPU above.
                    unsafe { replay_avx512(trace, table, lanes) }
                }));
            }
        }
        let mut rng = Xoshiro256::seed_from_u64(0x71E5);
        let full = 1u64 << 53;
        let masks = [u64::MAX, (1u64 << 6) - 1, 0xA5A5_0F0F_0000_8001, 1 << 63, 0];
        for (case, len) in [0, 1, 7, 64, 1000].into_iter().enumerate() {
            let classes = 1 + rng.next_below(12) as usize;
            let table: Table = (0..classes)
                .map(|_| {
                    std::array::from_fn(|_| match rng.next_below(6) {
                        0 => 0,
                        1 => 1,
                        2 => full,
                        3 => full - 1,
                        4 => rng.next_below(full >> 6),
                        _ => rng.next_below(full + 1),
                    })
                })
                .collect();
            let trace: Vec<[u32; 2]> = (0..len)
                .map(|_| {
                    let mut class = || rng.next_below(classes as u64) as u32;
                    [class(), class()]
                })
                .collect();
            for (m, &live) in masks.iter().enumerate() {
                let mut want_lanes = lane_streams(0x5EED, case, m, live);
                let want = replay(&trace, &table, &mut want_lanes);
                for &(name, kernel) in &tiers {
                    let mut lanes = lane_streams(0x5EED, case, m, live);
                    let got = kernel(&trace, &table, &mut lanes);
                    assert_eq!(got, want, "{name}, trace length {len}, mask {live:#x}");
                    assert!(lanes == want_lanes, "{name}: lane states diverge");
                }
            }
        }
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
