//! Three-valued (0 / 1 / unknown) constant propagation over a netlist.
//!
//! The DTA error-immunity pre-screen needs to know which gates can
//! *never toggle* given what is statically known about the values the
//! sequential elements and primary inputs can take: a gate whose output
//! is the same known constant on every cycle launches no transition, so
//! every path through it is dead for dynamic timing purposes.
//!
//! [`stable_values`] computes a sound per-gate abstraction of the set
//! of values each gate can carry across **all** cycles of any
//! execution, given per-gate constraints on flip-flop/input values. It
//! runs a Kleene iteration of the one-cycle abstract transformer:
//!
//! ```text
//! Q⁰(ff)    = Zero ⊔ C(ff)          (reset state joins the constraint)
//! Qᵏ⁺¹(ff)  = Q⁰(ff) ⊔ Dᵏ(ff)       (a cycle may also capture D)
//! ```
//!
//! where `Dᵏ` is the three-valued combinational evaluation under `Qᵏ`.
//! The chain is increasing on a finite lattice, so it terminates; at
//! the fixpoint, induction over cycles shows `Q` covers every reachable
//! value (cycle 0 is the all-zero reset; each later cycle either holds
//! a constrained/forced value or captures the D input, both covered).

use crate::gate::{GateId, GateKind};
use crate::netlist::Netlist;

/// Three-valued abstraction of a wire: constant-0, constant-1, or
/// possibly varying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tri {
    /// The wire is 0 on every cycle under consideration.
    Zero,
    /// The wire is 1 on every cycle under consideration.
    One,
    /// The wire may take either value (or is unconstrained).
    Unknown,
}

impl Tri {
    /// Lattice join: agreeing constants stay, anything else is unknown.
    pub fn join(self, other: Tri) -> Tri {
        if self == other {
            self
        } else {
            Tri::Unknown
        }
    }

    /// Whether the value is a known constant.
    pub fn is_known(self) -> bool {
        self != Tri::Unknown
    }

    /// Constant from a boolean.
    pub fn of(b: bool) -> Tri {
        if b {
            Tri::One
        } else {
            Tri::Zero
        }
    }

    fn not(self) -> Tri {
        match self {
            Tri::Zero => Tri::One,
            Tri::One => Tri::Zero,
            Tri::Unknown => Tri::Unknown,
        }
    }

    fn and(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::Zero, _) | (_, Tri::Zero) => Tri::Zero,
            (Tri::One, Tri::One) => Tri::One,
            _ => Tri::Unknown,
        }
    }

    fn or(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::One, _) | (_, Tri::One) => Tri::One,
            (Tri::Zero, Tri::Zero) => Tri::Zero,
            _ => Tri::Unknown,
        }
    }

    fn xor(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::Unknown, _) | (_, Tri::Unknown) => Tri::Unknown,
            (a, b) => Tri::of(a != b),
        }
    }
}

/// One three-valued combinational evaluation pass in topological order.
///
/// `assumptions` gives the abstract value of every sequential element
/// and primary input (`FlipFlop` / `Input` gates; other entries are
/// ignored). Returns the abstract value of every gate: combinational
/// outputs are derived, `Tie` gates are their constant, flip-flops and
/// inputs echo their assumption.
fn eval_with(netlist: &Netlist, assumptions: &[Tri]) -> Vec<Tri> {
    let n = netlist.gate_count();
    let mut vals = vec![Tri::Unknown; n];
    // `topo_order` lists only combinational gates; seed the sequential
    // elements, primary inputs and constant ties first.
    for g in netlist.gate_ids() {
        match netlist.kind(g) {
            GateKind::Input | GateKind::FlipFlop => {
                vals[g.index()] = assumptions.get(g.index()).copied().unwrap_or(Tri::Unknown);
            }
            GateKind::Tie(b) => vals[g.index()] = Tri::of(b),
            _ => {}
        }
    }
    let at = |vals: &[Tri], id: GateId| vals[id.index()];
    for &g in netlist.topo_order() {
        let fanin = netlist.fanin(g);
        let v = match netlist.kind(g) {
            GateKind::Input | GateKind::FlipFlop => vals[g.index()],
            GateKind::Tie(b) => Tri::of(b),
            GateKind::Buf => at(&vals, fanin[0]),
            GateKind::Not => at(&vals, fanin[0]).not(),
            GateKind::And => at(&vals, fanin[0]).and(at(&vals, fanin[1])),
            GateKind::Or => at(&vals, fanin[0]).or(at(&vals, fanin[1])),
            GateKind::Nand => at(&vals, fanin[0]).and(at(&vals, fanin[1])).not(),
            GateKind::Nor => at(&vals, fanin[0]).or(at(&vals, fanin[1])).not(),
            GateKind::Xor => at(&vals, fanin[0]).xor(at(&vals, fanin[1])),
            GateKind::Xnor => at(&vals, fanin[0]).xor(at(&vals, fanin[1])).not(),
            GateKind::Mux => {
                // fanin = [sel, a, b], output = sel ? b : a
                let sel = at(&vals, fanin[0]);
                let a = at(&vals, fanin[1]);
                let b = at(&vals, fanin[2]);
                match sel {
                    Tri::Zero => a,
                    Tri::One => b,
                    Tri::Unknown => {
                        if a == b {
                            a
                        } else {
                            Tri::Unknown
                        }
                    }
                }
            }
        };
        vals[g.index()] = v;
    }
    vals
}

/// Sound all-cycle abstraction of every gate's value set.
///
/// `constraint[g]` (length `gate_count`) describes external driving of
/// gate `g`:
///
/// * `FlipFlop` — `Some(c)`: on cycles where the testbench forces the
///   flip-flop, the forced value is covered by `c`; `None`: never
///   forced. Either way the reset state (zero) and D-capture on
///   unforced cycles are added by this function.
/// * `Input` — `Some(c)`: every externally driven value is covered by
///   `c` (the pre-drive default of zero is joined in); `None`: driven
///   by an unknown source, i.e. `Unknown`.
///
/// Entries for combinational gates are ignored.
pub fn stable_values(netlist: &Netlist, constraint: &[Option<Tri>]) -> Vec<Tri> {
    let mut c = ValueConstraints::new(netlist.gate_count());
    let k = constraint.len().min(c.cover.len());
    c.cover[..k].copy_from_slice(&constraint[..k]);
    stable_values_with(netlist, &c)
}

/// Constraints for [`stable_values_with`], split by strength.
///
/// `cover[g]` has the [`stable_values`] semantics: it bounds the values
/// a testbench *forces/drives* onto the element, and the reset state
/// plus D-capture on unforced cycles are joined in by the fixpoint.
///
/// `pinned[g] = Some(t)` is a caller-supplied **invariant**: the caller
/// asserts — on external grounds the bit-level abstraction cannot see,
/// e.g. an arithmetic bound on the program counter — that gate `g`
/// holds values covered by `t` on *every* cycle, captures included. A
/// pinned element takes no capture join (the reset/undriven zero is
/// still joined in, so `t` need not cover it explicitly). An unsound
/// pin yields unsound results; pin only what is externally proven.
/// `pinned` takes precedence over `cover` for the same gate.
#[derive(Debug, Clone)]
pub struct ValueConstraints {
    /// Forced/driven-value cover per gate (see [`stable_values`]).
    pub cover: Vec<Option<Tri>>,
    /// Caller-asserted all-cycle invariants per gate.
    pub pinned: Vec<Option<Tri>>,
}

impl ValueConstraints {
    /// No constraints on any of `n` gates.
    pub fn new(n: usize) -> Self {
        ValueConstraints {
            cover: vec![None; n],
            pinned: vec![None; n],
        }
    }
}

/// [`stable_values`] with pinned invariants (see [`ValueConstraints`]).
pub fn stable_values_with(netlist: &Netlist, constraints: &ValueConstraints) -> Vec<Tri> {
    let n = netlist.gate_count();
    let mut q = vec![Tri::Unknown; n];
    let mut is_pinned = vec![false; n];
    for g in netlist.gate_ids() {
        let gi = g.index();
        let pin = constraints.pinned.get(gi).copied().unwrap_or(None);
        let c = constraints.cover.get(gi).copied().unwrap_or(None);
        q[gi] = match netlist.kind(g) {
            GateKind::FlipFlop => {
                if let Some(p) = pin {
                    is_pinned[gi] = true;
                    Tri::Zero.join(p)
                } else {
                    // Reset state is all-zero, so Zero is always in a
                    // flip-flop's value set; capture is added
                    // iteratively.
                    c.map_or(Tri::Zero, |c| Tri::Zero.join(c))
                }
            }
            GateKind::Input => {
                if let Some(p) = pin {
                    is_pinned[gi] = true;
                    Tri::Zero.join(p)
                } else {
                    c.map_or(Tri::Unknown, |c| Tri::Zero.join(c))
                }
            }
            _ => Tri::Unknown,
        };
    }
    loop {
        let d = eval_with(netlist, &q);
        let mut changed = false;
        for g in netlist.gate_ids() {
            let gi = g.index();
            if is_pinned[gi] || !matches!(netlist.kind(g), GateKind::FlipFlop) {
                continue;
            }
            if let Ok(src) = netlist.ff_input(g) {
                let next = q[gi].join(d[src.index()]);
                if next != q[gi] {
                    q[gi] = next;
                    changed = true;
                }
            }
        }
        if !changed {
            return eval_with(netlist, &q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::netlist::EndpointClass;

    #[test]
    fn tri_algebra() {
        assert_eq!(Tri::Zero.and(Tri::Unknown), Tri::Zero);
        assert_eq!(Tri::One.or(Tri::Unknown), Tri::One);
        assert_eq!(Tri::One.xor(Tri::One), Tri::Zero);
        assert_eq!(Tri::Unknown.xor(Tri::Zero), Tri::Unknown);
        assert_eq!(Tri::Zero.join(Tri::Zero), Tri::Zero);
        assert_eq!(Tri::Zero.join(Tri::One), Tri::Unknown);
    }

    fn two_input_net() -> (Netlist, GateId, GateId, GateId, GateId, GateId) {
        // in0, in1 -> a = in0 & in1, x = a ^ in0, ff captures x.
        let mut b = NetlistBuilder::new(1);
        let i0 = b.input("in0", 0).expect("input");
        let i1 = b.input("in1", 0).expect("input");
        let a = b.gate(GateKind::And, &[i0, i1], 0).expect("and");
        let x = b.gate(GateKind::Xor, &[a, i0], 0).expect("xor");
        let ff = b.flip_flop("q", EndpointClass::Data, 0).expect("flip-flop");
        b.connect_ff_input(ff, x).expect("connect");
        (b.finish().expect("valid netlist"), i0, i1, a, x, ff)
    }

    #[test]
    fn combinational_masking_through_and() {
        // in1 pinned to zero makes the AND constant even though in0
        // varies; the XOR still sees in0.
        let (nl, _i0, i1, a, x, _ff) = two_input_net();
        let mut c = vec![None; nl.gate_count()];
        c[i1.index()] = Some(Tri::Zero);
        let vals = stable_values(&nl, &c);
        assert_eq!(vals[a.index()], Tri::Zero, "AND with constant-0 input");
        assert_eq!(vals[x.index()], Tri::Unknown, "XOR still sees in0");
    }

    #[test]
    fn unconstrained_ff_reaches_unknown_via_capture() {
        // A flip-flop fed by varying logic must not be reported
        // constant just because reset is zero.
        let (nl, _i0, _i1, _a, _x, ff) = two_input_net();
        let c = vec![None; nl.gate_count()];
        let vals = stable_values(&nl, &c);
        assert_eq!(vals[ff.index()], Tri::Unknown);
    }

    #[test]
    fn pinned_invariant_skips_capture_join() {
        // The flip-flop's D input varies, so the plain fixpoint widens
        // it to Unknown; a caller-asserted pin holds it at the claimed
        // invariant regardless.
        let (nl, _i0, _i1, _a, _x, ff) = two_input_net();
        let mut c = ValueConstraints::new(nl.gate_count());
        c.pinned[ff.index()] = Some(Tri::Zero);
        let vals = stable_values_with(&nl, &c);
        assert_eq!(vals[ff.index()], Tri::Zero);
        // Cover-only constraint on the same gate still widens.
        let mut c2 = ValueConstraints::new(nl.gate_count());
        c2.cover[ff.index()] = Some(Tri::Zero);
        let vals2 = stable_values_with(&nl, &c2);
        assert_eq!(vals2[ff.index()], Tri::Unknown);
    }

    #[test]
    fn zero_driven_ff_stays_zero() {
        // Both inputs zero force the whole cone (and the capture) to a
        // constant: x = (0 & 0) ^ 0 = 0, matching the reset state.
        let (nl, i0, i1, _a, x, ff) = two_input_net();
        let mut c = vec![None; nl.gate_count()];
        c[i0.index()] = Some(Tri::Zero);
        c[i1.index()] = Some(Tri::Zero);
        let vals = stable_values(&nl, &c);
        assert_eq!(vals[x.index()], Tri::Zero);
        assert_eq!(vals[ff.index()], Tri::Zero);
    }
}
