//! The one-cell-per-chip Monte Carlo reference grids.
//!
//! `terse_sim::monte_carlo::error_counts` runs each input once, records
//! its trajectory as a trace of slack classes, and replays that trace for
//! 64 chips at a time against per-group tables of integer thresholds.
//! [`error_counts_scalar`] does none of that: every `(chip, input)` cell
//! executes the program on its own, asks the model for
//! [`InstErrorModel::error_probability`] at every retired instruction and
//! draws with `next_f64() < p`. It shares only the documented RNG stream
//! contract (`seed_stream(cfg.seed, cell_stream(chip, input))`) with the
//! packed grid, so the two agree bit for bit exactly when the traces, the
//! class interning, the thresholds and the lanes are exact.
//! [`error_counts_marginalized_scalar`] is the same per-cell loop for
//! `error_counts_marginalized`, with
//! [`InstErrorModel::marginal_probability`] and the marginalized master
//! seed.

use rayon::prelude::*;
use terse_isa::Program;
use terse_sim::correction::CorrectionScheme;
use terse_sim::features::{extract, BusState, InstFeatures};
use terse_sim::machine::Machine;
use terse_sim::monte_carlo::{cell_stream, InstErrorModel, MonteCarloConfig};
use terse_sim::SimError;
use terse_sta::variation::ChipSample;
use terse_stats::rng::Xoshiro256;

/// One execution of input `input` on one chip, whose per-instance error
/// probability is `prob(prev, index, features)`: the cell's error count.
fn run_cell<F, P>(
    program: &Program,
    input: usize,
    scheme: CorrectionScheme,
    init: &F,
    cfg: MonteCarloConfig,
    rng: &mut Xoshiro256,
    prob: P,
) -> Result<u64, SimError>
where
    F: Fn(usize, &mut Machine),
    P: Fn(Option<u32>, u32, &InstFeatures) -> f64,
{
    let mut machine = Machine::new(program, cfg.dmem_words);
    init(input, &mut machine);
    // The program starts from a flushed processor state.
    let mut bus = BusState::flushed();
    let mut prev: Option<u32> = None;
    let (mut executed, mut errors) = (0u64, 0u64);
    while !machine.halted() {
        if executed >= cfg.budget {
            return Err(SimError::InstructionBudgetExhausted { budget: cfg.budget });
        }
        let r = machine.step(program)?;
        executed += 1;
        let p = prob(prev, r.index, &extract(&r, bus));
        prev = Some(r.index);
        if rng.next_f64() < p {
            errors += 1;
            bus = scheme.post_error_bus_state();
        } else {
            bus.advance(&r);
        }
    }
    Ok(errors)
}

/// The error count matrix `counts[chip][input]`, one program execution per
/// cell (in parallel across cells; the result does not depend on the
/// thread count).
///
/// # Errors
///
/// Propagates machine errors (the lowest-indexed failing cell wins).
pub fn error_counts_scalar<M, F>(
    program: &Program,
    model: &M,
    chips: &[ChipSample],
    inputs: usize,
    scheme: CorrectionScheme,
    init: F,
    cfg: MonteCarloConfig,
) -> Result<Vec<Vec<u64>>, SimError>
where
    M: InstErrorModel + Sync,
    F: Fn(usize, &mut Machine) + Sync,
{
    if inputs == 0 {
        return Ok(vec![Vec::new(); chips.len()]);
    }
    let flat: Vec<u64> = (0..chips.len() * inputs)
        .into_par_iter()
        .map(|cell| {
            let (c, i) = (cell / inputs, cell % inputs);
            let mut rng = Xoshiro256::seed_stream(cfg.seed, cell_stream(c, i));
            run_cell(program, i, scheme, &init, cfg, &mut rng, |prev, idx, f| {
                model.error_probability(prev, idx, f, &chips[c])
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(flat.chunks(inputs).map(<[u64]>::to_vec).collect())
}

/// The marginalized count vector (`reps × inputs`, rep-major), one program
/// execution per `(rep, input)` cell drawing from
/// `seed_stream(cfg.seed ^ 0x4D41_5247, cell_stream(rep, input))`.
///
/// # Errors
///
/// Propagates machine errors (the lowest-indexed failing cell wins).
pub fn error_counts_marginalized_scalar<M, F>(
    program: &Program,
    model: &M,
    reps: usize,
    inputs: usize,
    scheme: CorrectionScheme,
    init: F,
    cfg: MonteCarloConfig,
) -> Result<Vec<u64>, SimError>
where
    M: InstErrorModel + Sync,
    F: Fn(usize, &mut Machine) + Sync,
{
    if inputs == 0 {
        return Ok(Vec::new());
    }
    let master = cfg.seed ^ 0x4D41_5247;
    (0..reps * inputs)
        .into_par_iter()
        .map(|cell| {
            let (r, i) = (cell / inputs, cell % inputs);
            let mut rng = Xoshiro256::seed_stream(master, cell_stream(r, i));
            run_cell(program, i, scheme, &init, cfg, &mut rng, |prev, idx, f| {
                model.marginal_probability(prev, idx, f)
            })
        })
        .collect()
}
