//! The marginal-probability solver (Section 4.2: Eqs. 1 and 2, Tarjan,
//! per-SCC linear systems).
//!
//! All probabilities are data-variation random variables carried as sample
//! vectors; the equations are linear *per sample*, so the solver runs the
//! whole Tarjan + linear-system pipeline once per sample slot and
//! re-assembles [`SampleRv`]s at the end.
//!
//! The paper's flushed-start convention (`p^in = 1` at program entry) falls
//! out naturally here: every block's incoming activation mass that is not
//! explained by profiled edges (exactly 1 execution for the entry block —
//! the initial entry from a flushed machine) is assigned to a *virtual
//! predecessor* whose output error probability is 1.

use crate::tarjan::condensation_order;
use crate::{ErrModelError, Result};
use std::collections::HashMap;
use terse_isa::BlockId;
use terse_stats::{Matrix, SampleRv};

/// The inputs to the marginal solver.
#[derive(Debug, Clone)]
pub struct MarginalProblem {
    /// Per block, per instruction: `p^c` (conditional on correct previous
    /// instruction), one sample slot per input dataset.
    pub cond_correct: Vec<Vec<SampleRv>>,
    /// Per block, per instruction: `p^e` (conditional on errant previous
    /// instruction).
    pub cond_error: Vec<Vec<SampleRv>>,
    /// Per-sample dynamic edge traversal counts.
    pub edge_counts: HashMap<(BlockId, BlockId), Vec<f64>>,
    /// Per block, per sample: execution counts `e_i`.
    pub block_counts: Vec<Vec<f64>>,
}

/// The solved marginal probabilities.
#[derive(Debug, Clone)]
pub struct MarginalSolution {
    /// Per block, per instruction: marginal error probability `p_{i_k}`.
    pub marginal: Vec<Vec<SampleRv>>,
    /// Per block: input error probability `p_i^in`.
    pub input: Vec<SampleRv>,
    /// Per block: output error probability `p_i^out` (= `p_{i,n_i}`).
    pub output: Vec<SampleRv>,
}

impl MarginalProblem {
    fn validate(&self) -> Result<usize> {
        let m = self.cond_correct.len();
        if self.cond_error.len() != m {
            return Err(ErrModelError::DimensionMismatch {
                context: "cond_error blocks",
                expected: m,
                got: self.cond_error.len(),
            });
        }
        if self.block_counts.len() != m {
            return Err(ErrModelError::DimensionMismatch {
                context: "block_counts",
                expected: m,
                got: self.block_counts.len(),
            });
        }
        let samples = self.block_counts.first().map(Vec::len).unwrap_or(0).max(1);
        for (i, (cc, ce)) in self.cond_correct.iter().zip(&self.cond_error).enumerate() {
            if cc.len() != ce.len() {
                return Err(ErrModelError::DimensionMismatch {
                    context: "per-block conditional lengths",
                    expected: cc.len(),
                    got: ce.len(),
                });
            }
            for rv in cc.iter().chain(ce.iter()) {
                if rv.len() != samples {
                    return Err(ErrModelError::DimensionMismatch {
                        context: "sample slots",
                        expected: samples,
                        got: rv.len(),
                    });
                }
                // NaN compares false everywhere, so the range test below
                // would let it through — reject non-finite values explicitly.
                for &x in rv.samples() {
                    if !x.is_finite() {
                        return Err(ErrModelError::NonFinite {
                            context: "conditional probabilities",
                            value: x,
                        });
                    }
                }
                if rv.min() < -1e-12 || rv.max() > 1.0 + 1e-12 {
                    return Err(ErrModelError::InvalidProbability {
                        value: if rv.min() < 0.0 { rv.min() } else { rv.max() },
                    });
                }
            }
            if self.block_counts[i].len() != samples {
                return Err(ErrModelError::DimensionMismatch {
                    context: "block_counts samples",
                    expected: samples,
                    got: self.block_counts[i].len(),
                });
            }
            for &c in &self.block_counts[i] {
                if !c.is_finite() {
                    return Err(ErrModelError::NonFinite {
                        context: "block_counts",
                        value: c,
                    });
                }
            }
        }
        // terse-analyze: allow(AZ002): per-item length validation; order-free.
        for counts in self.edge_counts.values() {
            if counts.len() != samples {
                return Err(ErrModelError::DimensionMismatch {
                    context: "edge_counts samples",
                    expected: samples,
                    got: counts.len(),
                });
            }
            for &c in counts {
                if !c.is_finite() {
                    return Err(ErrModelError::NonFinite {
                        context: "edge_counts",
                        value: c,
                    });
                }
            }
        }
        Ok(samples)
    }
}

/// Solves Eqs. 1 and 2 for the whole CFG, per sample, using Tarjan's SCCs
/// and one LU solve per cyclic component.
///
/// # Errors
///
/// Returns dimension/probability validation errors,
/// [`ErrModelError::NonFinite`] for a NaN/±∞ conditional or count, and
/// [`ErrModelError::SingularSystem`] if a component's system is singular
/// (requires `|Π(p^e − p^c)| = 1` around a cycle — degenerate inputs).
pub fn solve_marginals(problem: &MarginalProblem) -> Result<MarginalSolution> {
    failpoints::fail_point!("errmodel::solve", |_| Err(ErrModelError::SingularSystem {
        component: 0
    }));
    let samples = problem.validate()?;
    let m = problem.cond_correct.len();
    // Union adjacency for the condensation (an edge exists if any sample
    // traversed it).
    let succs = |v: usize| -> Vec<usize> {
        let mut out: Vec<usize> = problem
            .edge_counts
            .iter()
            .filter(|((from, _), counts)| from.index() == v && counts.iter().any(|&c| c > 0.0))
            .map(|((_, to), _)| to.index())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    };
    let comps = condensation_order(m, succs);
    // Incoming edges per block.
    let mut preds: Vec<Vec<(usize, &Vec<f64>)>> = vec![Vec::new(); m];
    // terse-analyze: allow(AZ002): each preds[i] is sorted right below.
    for ((from, to), counts) in &problem.edge_counts {
        preds[to.index()].push((from.index(), counts));
    }
    for p in &mut preds {
        p.sort_by_key(|&(j, _)| j);
    }
    // Component id per block (for in-SCC tests).
    let mut comp_of = vec![usize::MAX; m];
    for (ci, c) in comps.iter().enumerate() {
        for b in c {
            comp_of[b.index()] = ci;
        }
    }

    let mut marginal_acc: Vec<Vec<Vec<f64>>> = problem
        .cond_correct
        .iter()
        .map(|cc| vec![vec![0.0; samples]; cc.len()])
        .collect();
    let mut input_acc: Vec<Vec<f64>> = vec![vec![0.0; samples]; m];
    let mut output_acc: Vec<Vec<f64>> = vec![vec![0.0; samples]; m];

    for s in 0..samples {
        // Per-block affine transfer (A_i, C_i): p_out = A·p_in + C.
        let mut slope = vec![1.0f64; m];
        let mut inter = vec![0.0f64; m];
        for i in 0..m {
            let (mut a, mut c) = (1.0, 0.0);
            for k in 0..problem.cond_correct[i].len() {
                let pc = problem.cond_correct[i][k].samples()[s];
                let pe = problem.cond_error[i][k].samples()[s];
                let d = pe - pc;
                a *= d;
                c = d * c + pc;
            }
            slope[i] = a;
            inter[i] = c;
        }
        // Edge weights a_ij for this sample: count / block executions, with
        // the unexplained remainder assigned to the virtual flushed entry
        // (whose error probability is 1).
        let weight = |i: usize| -> (f64, Vec<(usize, f64)>) {
            let denom = problem.block_counts[i][s];
            if denom <= 0.0 {
                return (0.0, Vec::new());
            }
            let mut known = 0.0;
            let mut ws = Vec::new();
            for &(j, counts) in &preds[i] {
                let c = counts[s];
                if c > 0.0 {
                    ws.push((j, c / denom));
                    known += c;
                }
            }
            let virt = ((denom - known) / denom).max(0.0);
            (virt, ws)
        };
        let mut out_prob = vec![0.0f64; m];
        let mut in_prob = vec![0.0f64; m];
        let mut solved = vec![false; m];
        for comp in &comps {
            let members: Vec<usize> = comp
                .iter()
                .map(|b| b.index())
                .filter(|&i| problem.block_counts[i][s] > 0.0)
                .collect();
            if members.is_empty() {
                continue;
            }
            let has_internal_edge = members.iter().any(|&i| {
                preds[i]
                    .iter()
                    .any(|&(j, counts)| comp_of[j] == comp_of[i] && counts[s] > 0.0)
            });
            if !has_internal_edge {
                // Acyclic within the component: direct evaluation.
                for &i in &members {
                    let (virt, ws) = weight(i);
                    let mut pin = virt; // virtual predecessor errs w.p. 1
                    for (j, w) in ws {
                        pin += w * out_prob[j];
                    }
                    in_prob[i] = pin.clamp(0.0, 1.0);
                    out_prob[i] = (slope[i] * in_prob[i] + inter[i]).clamp(0.0, 1.0);
                    solved[i] = true;
                }
                continue;
            }
            // Cyclic component: x_i − A_i Σ_{j∈comp} a_ij x_j
            //                  = A_i (virt + Σ_{j∉comp} a_ij out_j) + C_i.
            let n = members.len();
            let pos: HashMap<usize, usize> =
                members.iter().enumerate().map(|(k, &i)| (i, k)).collect();
            let mut mat = Matrix::identity(n)?;
            let mut rhs = vec![0.0f64; n];
            for (row, &i) in members.iter().enumerate() {
                let (virt, ws) = weight(i);
                let mut known_term = virt;
                for (j, w) in ws {
                    match pos.get(&j) {
                        Some(&col) if comp_of[j] == comp_of[i] => {
                            mat[(row, col)] -= slope[i] * w;
                        }
                        _ => {
                            known_term += w * out_prob[j];
                        }
                    }
                }
                rhs[row] = slope[i] * known_term + inter[i];
            }
            let x = mat.solve(&rhs).map_err(|_| ErrModelError::SingularSystem {
                // `members` is non-empty (checked above), so `min` exists.
                component: members.iter().copied().min().unwrap_or(0),
            })?;
            for (row, &i) in members.iter().enumerate() {
                out_prob[i] = x[row].clamp(0.0, 1.0);
                solved[i] = true;
            }
            // Recover p_in from the solved outputs.
            for &i in &members {
                let (virt, ws) = weight(i);
                let mut pin = virt;
                for (j, w) in ws {
                    pin += w * out_prob[j];
                }
                in_prob[i] = pin.clamp(0.0, 1.0);
            }
        }
        // Per-instruction marginals via the Eq. 1 recurrence.
        for i in 0..m {
            if problem.block_counts[i][s] <= 0.0 {
                continue;
            }
            let mut p_prev = in_prob[i];
            for k in 0..problem.cond_correct[i].len() {
                let pc = problem.cond_correct[i][k].samples()[s];
                let pe = problem.cond_error[i][k].samples()[s];
                let p = (pe * p_prev + pc * (1.0 - p_prev)).clamp(0.0, 1.0);
                marginal_acc[i][k][s] = p;
                p_prev = p;
            }
            input_acc[i][s] = in_prob[i];
            output_acc[i][s] = p_prev;
        }
    }
    let to_rv = |v: Vec<f64>| SampleRv::new(v).map_err(ErrModelError::from);
    Ok(MarginalSolution {
        marginal: marginal_acc
            .into_iter()
            .map(|blk| blk.into_iter().map(to_rv).collect::<Result<Vec<_>>>())
            .collect::<Result<Vec<_>>>()?,
        input: input_acc
            .into_iter()
            .map(to_rv)
            .collect::<Result<Vec<_>>>()?,
        output: output_acc
            .into_iter()
            .map(to_rv)
            .collect::<Result<Vec<_>>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use terse_stats::rng::Xoshiro256;

    fn rv1(x: f64) -> SampleRv {
        SampleRv::constant(x, 1)
    }

    /// Single block executed once from a flushed start.
    #[test]
    fn straight_line_hand_computed() {
        // Entry block with 2 instructions, executed once; no edges.
        let problem = MarginalProblem {
            cond_correct: vec![vec![rv1(0.01), rv1(0.02)]],
            cond_error: vec![vec![rv1(0.05), rv1(0.08)]],
            edge_counts: HashMap::new(),
            block_counts: vec![vec![1.0]],
        };
        let sol = solve_marginals(&problem).unwrap();
        // Flushed start: p_in = 1 → p_1 = p^e_1 = 0.05.
        assert!((sol.input[0].samples()[0] - 1.0).abs() < 1e-12);
        let p1 = sol.marginal[0][0].samples()[0];
        assert!((p1 - 0.05).abs() < 1e-12);
        // p_2 = 0.08·0.05 + 0.02·0.95 = 0.023.
        let p2 = sol.marginal[0][1].samples()[0];
        assert!((p2 - 0.023).abs() < 1e-12);
        assert!((sol.output[0].samples()[0] - p2).abs() < 1e-15);
    }

    #[test]
    fn equal_conditionals_collapse() {
        // p^e = p^c everywhere ⇒ marginal = p^c regardless of structure.
        let mut edge_counts = HashMap::new();
        edge_counts.insert((BlockId(0), BlockId(1)), vec![1.0]);
        edge_counts.insert((BlockId(1), BlockId(1)), vec![9.0]);
        let problem = MarginalProblem {
            cond_correct: vec![vec![rv1(0.01)], vec![rv1(0.03)]],
            cond_error: vec![vec![rv1(0.01)], vec![rv1(0.03)]],
            edge_counts,
            block_counts: vec![vec![1.0], vec![10.0]],
        };
        let sol = solve_marginals(&problem).unwrap();
        assert!((sol.marginal[0][0].samples()[0] - 0.01).abs() < 1e-12);
        assert!((sol.marginal[1][0].samples()[0] - 0.03).abs() < 1e-12);
    }

    #[test]
    fn self_loop_fixed_point() {
        // Block 1 loops on itself 9/10 of the time; verify against direct
        // fixed-point iteration of Eqs. 1–2.
        let (pc0, pe0) = (0.02, 0.10);
        let (pc1, pe1) = (0.01, 0.20);
        let mut edge_counts = HashMap::new();
        edge_counts.insert((BlockId(0), BlockId(1)), vec![1.0]);
        edge_counts.insert((BlockId(1), BlockId(1)), vec![9.0]);
        let problem = MarginalProblem {
            cond_correct: vec![vec![rv1(pc0)], vec![rv1(pc1)]],
            cond_error: vec![vec![rv1(pe0)], vec![rv1(pe1)]],
            edge_counts,
            block_counts: vec![vec![1.0], vec![10.0]],
        };
        let sol = solve_marginals(&problem).unwrap();
        // Fixed-point iteration.
        let out0 = pe0 * 1.0 + pc0 * 0.0; // entry: p_in = 1
        let mut x1 = 0.0f64;
        for _ in 0..200 {
            let pin1 = 0.1 * out0 + 0.9 * x1;
            x1 = pe1 * pin1 + pc1 * (1.0 - pin1);
        }
        assert!(
            (sol.output[1].samples()[0] - x1).abs() < 1e-10,
            "solver {} vs fixed point {x1}",
            sol.output[1].samples()[0]
        );
    }

    #[test]
    fn multi_block_cycle_against_iteration() {
        // 0 → 1 → 2 → 1 (cycle between 1 and 2), 2 → 3.
        let mut edge_counts = HashMap::new();
        edge_counts.insert((BlockId(0), BlockId(1)), vec![1.0]);
        edge_counts.insert((BlockId(2), BlockId(1)), vec![4.0]);
        edge_counts.insert((BlockId(1), BlockId(2)), vec![5.0]);
        edge_counts.insert((BlockId(2), BlockId(3)), vec![1.0]);
        let pcs = [0.01, 0.02, 0.03, 0.004];
        let pes = [0.3, 0.15, 0.22, 0.4];
        let problem = MarginalProblem {
            cond_correct: pcs.iter().map(|&p| vec![rv1(p)]).collect(),
            cond_error: pes.iter().map(|&p| vec![rv1(p)]).collect(),
            edge_counts,
            block_counts: vec![vec![1.0], vec![5.0], vec![5.0], vec![1.0]],
        };
        let sol = solve_marginals(&problem).unwrap();
        // Gauss–Seidel iteration of the same equations.
        let trans = |pc: f64, pe: f64, pin: f64| pe * pin + pc * (1.0 - pin);
        let out0 = trans(pcs[0], pes[0], 1.0);
        let (mut x1, mut x2) = (0.0f64, 0.0f64);
        for _ in 0..500 {
            let pin1 = 0.2 * out0 + 0.8 * x2;
            x1 = trans(pcs[1], pes[1], pin1);
            let pin2 = 1.0 * x1;
            x2 = trans(pcs[2], pes[2], pin2);
        }
        assert!((sol.output[1].samples()[0] - x1).abs() < 1e-9);
        assert!((sol.output[2].samples()[0] - x2).abs() < 1e-9);
        // Block 3: p_in = out of block 2 (only incoming edge).
        assert!((sol.input[3].samples()[0] - x2).abs() < 1e-9);
    }

    #[test]
    fn monte_carlo_chain_validation() {
        // Simulate the actual Bernoulli error chain over a concrete
        // execution trace and compare empirical marginals.
        let (pc0, pe0) = (0.05, 0.30);
        let (pc1, pe1) = (0.02, 0.25);
        let loops = 50usize;
        let mut edge_counts = HashMap::new();
        edge_counts.insert((BlockId(0), BlockId(1)), vec![1.0]);
        edge_counts.insert((BlockId(1), BlockId(1)), vec![(loops - 1) as f64]);
        let problem = MarginalProblem {
            cond_correct: vec![vec![rv1(pc0)], vec![rv1(pc1)]],
            cond_error: vec![vec![rv1(pe0)], vec![rv1(pe1)]],
            edge_counts,
            block_counts: vec![vec![1.0], vec![loops as f64]],
        };
        let sol = solve_marginals(&problem).unwrap();
        // MC: execute B0 once then B1 `loops` times, per trial.
        let mut rng = Xoshiro256::seed_from_u64(99);
        let trials = 200_000usize;
        let mut err1_count = 0u64;
        for _ in 0..trials {
            let mut prev_err = true; // flushed start
            let flip = |prev: bool, pc: f64, pe: f64, rng: &mut Xoshiro256| {
                rng.next_f64() < if prev { pe } else { pc }
            };
            prev_err = flip(prev_err, pc0, pe0, &mut rng);
            for _ in 0..loops {
                prev_err = flip(prev_err, pc1, pe1, &mut rng);
                if prev_err {
                    err1_count += 1;
                }
            }
        }
        let empirical = err1_count as f64 / (trials * loops) as f64;
        let solved = sol.marginal[1][0].samples()[0];
        assert!(
            (empirical - solved).abs() < 0.002,
            "empirical {empirical} vs solved {solved}"
        );
    }

    #[test]
    fn data_variation_samples_solved_independently() {
        // Two samples with different conditional probabilities.
        let problem = MarginalProblem {
            cond_correct: vec![vec![SampleRv::new(vec![0.01, 0.10]).unwrap()]],
            cond_error: vec![vec![SampleRv::new(vec![0.02, 0.50]).unwrap()]],
            edge_counts: HashMap::new(),
            block_counts: vec![vec![1.0, 1.0]],
        };
        let sol = solve_marginals(&problem).unwrap();
        // Flushed entry ⇒ marginal = p^e per sample.
        assert_eq!(sol.marginal[0][0].samples(), &[0.02, 0.50]);
    }

    #[test]
    fn unexecuted_blocks_are_zero() {
        let mut edge_counts = HashMap::new();
        edge_counts.insert((BlockId(0), BlockId(1)), vec![1.0]);
        // Block 2 never executes.
        let problem = MarginalProblem {
            cond_correct: vec![vec![rv1(0.1)], vec![rv1(0.1)], vec![rv1(0.1)]],
            cond_error: vec![vec![rv1(0.2)], vec![rv1(0.2)], vec![rv1(0.2)]],
            edge_counts,
            block_counts: vec![vec![1.0], vec![1.0], vec![0.0]],
        };
        let sol = solve_marginals(&problem).unwrap();
        assert_eq!(sol.marginal[2][0].samples()[0], 0.0);
        assert_eq!(sol.output[2].samples()[0], 0.0);
    }

    #[test]
    fn validation_errors() {
        // Mismatched conditional lengths.
        let bad = MarginalProblem {
            cond_correct: vec![vec![rv1(0.1), rv1(0.1)]],
            cond_error: vec![vec![rv1(0.1)]],
            edge_counts: HashMap::new(),
            block_counts: vec![vec![1.0]],
        };
        assert!(solve_marginals(&bad).is_err());
        // Probability out of range.
        let bad2 = MarginalProblem {
            cond_correct: vec![vec![rv1(1.5)]],
            cond_error: vec![vec![rv1(0.1)]],
            edge_counts: HashMap::new(),
            block_counts: vec![vec![1.0]],
        };
        assert!(matches!(
            solve_marginals(&bad2),
            Err(ErrModelError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn nan_and_inf_are_rejected() {
        for poison in [f64::NAN, f64::INFINITY] {
            let bad = MarginalProblem {
                cond_correct: vec![vec![SampleRv::constant(poison, 1)]],
                cond_error: vec![vec![rv1(0.1)]],
                edge_counts: HashMap::new(),
                block_counts: vec![vec![1.0]],
            };
            assert!(matches!(
                solve_marginals(&bad),
                Err(ErrModelError::NonFinite { .. })
            ));
        }
        // Non-finite counts are rejected too.
        let mut edge_counts = HashMap::new();
        edge_counts.insert((BlockId(0), BlockId(0)), vec![f64::NAN]);
        let bad = MarginalProblem {
            cond_correct: vec![vec![rv1(0.1)]],
            cond_error: vec![vec![rv1(0.2)]],
            edge_counts,
            block_counts: vec![vec![1.0]],
        };
        assert!(matches!(
            solve_marginals(&bad),
            Err(ErrModelError::NonFinite { .. })
        ));
    }

    #[test]
    fn out_of_range_conditionals_are_rejected() {
        // Either conditional outside [0, 1] (beyond rounding slack) is an
        // input error, not something the solver clamps.
        for (pc, pe) in [(1.5, 0.1), (0.1, -0.5)] {
            let bad = MarginalProblem {
                cond_correct: vec![vec![rv1(pc)]],
                cond_error: vec![vec![rv1(pe)]],
                edge_counts: HashMap::new(),
                block_counts: vec![vec![1.0]],
            };
            assert!(matches!(
                solve_marginals(&bad),
                Err(ErrModelError::InvalidProbability { .. })
            ));
        }
    }

    #[test]
    fn singular_system_is_a_typed_error() {
        // A block looping on itself with `p^e = 1`, `p^c = 0` yields the 1×1
        // system `(1 − 1)·x = 0` — singular, with a continuum of solutions.
        let mut edge_counts = HashMap::new();
        edge_counts.insert((BlockId(0), BlockId(0)), vec![10.0]);
        let problem = MarginalProblem {
            cond_correct: vec![vec![rv1(0.0)]],
            cond_error: vec![vec![rv1(1.0)]],
            edge_counts,
            block_counts: vec![vec![10.0]],
        };
        assert!(matches!(
            solve_marginals(&problem),
            Err(ErrModelError::SingularSystem { component: 0 })
        ));
    }

    #[test]
    fn probabilities_stay_in_unit_interval() {
        // Random stress: arbitrary small CFGs with random probabilities.
        let mut rng = Xoshiro256::seed_from_u64(7);
        for _ in 0..50 {
            let m = 4usize;
            let mut edge_counts = HashMap::new();
            let mut block_counts = vec![vec![0.0f64]; m];
            block_counts[0][0] = 1.0;
            for _ in 0..6 {
                let a = rng.next_below(m as u64) as u32;
                let b = rng.next_below(m as u64) as u32;
                let c = (rng.next_below(20) + 1) as f64;
                *edge_counts
                    .entry((BlockId(a), BlockId(b)))
                    .or_insert(vec![0.0])
                    .first_mut()
                    .unwrap() += c;
                block_counts[b as usize][0] += c;
            }
            let problem = MarginalProblem {
                cond_correct: (0..m)
                    .map(|_| vec![SampleRv::constant(rng.next_f64() * 0.5, 1)])
                    .collect(),
                cond_error: (0..m)
                    .map(|_| vec![SampleRv::constant(rng.next_f64() * 0.5 + 0.3, 1)])
                    .collect(),
                edge_counts,
                block_counts,
            };
            let sol = solve_marginals(&problem).unwrap();
            for blk in &sol.marginal {
                for rv in blk {
                    assert!(rv.min() >= 0.0 && rv.max() <= 1.0);
                }
            }
        }
    }
}
