//! The full-scan gate-level simulation reference.
//!
//! `terse_netlist::sim::Simulator` propagates events: after the first cycle
//! it re-evaluates only gates downstream of a toggle and forwards D-pin
//! values incrementally. [`FullScan`] is the obvious version it must agree
//! with: every cycle it updates every source at the clock edge, evaluates
//! every combinational gate in topological order, and re-captures every
//! flip-flop's D pin. It reads the netlist only through its public API and
//! shares no propagation code with the simulator under test.

use terse_netlist::{BitSet, GateId, GateKind, Netlist};

/// A full-scan simulator over a [`Netlist`], all nets initially low (tie
/// cells at their constant).
#[derive(Debug, Clone)]
pub struct FullScan<'n> {
    netlist: &'n Netlist,
    values: Vec<bool>,
    /// Captured D values waiting to appear on Q at the next edge.
    ff_next: Vec<bool>,
    /// Driven input values and forced Q overrides, consumed at the next edge.
    forced: Vec<Option<bool>>,
    evaluated: u64,
}

impl<'n> FullScan<'n> {
    /// A reference simulator at cycle 0.
    pub fn new(netlist: &'n Netlist) -> Self {
        let values = netlist
            .gate_ids()
            .map(|g| matches!(netlist.kind(g), GateKind::Tie(true)))
            .collect();
        let n = netlist.gate_count();
        FullScan {
            netlist,
            values,
            ff_next: vec![false; n],
            forced: vec![None; n],
            evaluated: 0,
        }
    }

    /// Drives a primary input from the next step on.
    pub fn set_input(&mut self, id: GateId, value: bool) {
        assert_eq!(self.netlist.kind(id), GateKind::Input, "not an input port");
        self.forced[id.index()] = Some(value);
    }

    /// Forces a flip-flop's Q for the next step, overriding its capture.
    pub fn force_ff(&mut self, id: GateId, value: bool) {
        assert_eq!(self.netlist.kind(id), GateKind::FlipFlop, "not a flip-flop");
        self.forced[id.index()] = Some(value);
    }

    /// Current output value of a gate.
    pub fn value(&self, id: GateId) -> bool {
        self.values[id.index()]
    }

    /// Combinational gate evaluations so far: every gate, every cycle.
    pub fn gates_evaluated(&self) -> u64 {
        self.evaluated
    }

    /// Advances one clock cycle and returns every gate whose output changed.
    pub fn step(&mut self) -> BitSet {
        let nl = self.netlist;
        let mut activated = BitSet::new(nl.gate_count());
        let mut set = |values: &mut [bool], g: GateId, v: bool| {
            if values[g.index()] != v {
                values[g.index()] = v;
                activated.insert(g.index());
            }
        };
        // Clock edge: Q takes the forced or captured value; inputs keep
        // their last driven value unless driven again.
        for g in nl.gate_ids() {
            let v = match nl.kind(g) {
                GateKind::FlipFlop => self.forced[g.index()]
                    .take()
                    .unwrap_or(self.ff_next[g.index()]),
                GateKind::Input => match self.forced[g.index()].take() {
                    Some(v) => v,
                    None => continue,
                },
                _ => continue,
            };
            set(&mut self.values, g, v);
        }
        for &g in nl.topo_order() {
            let inputs: Vec<bool> = nl.fanin(g).iter().map(|f| self.values[f.index()]).collect();
            self.evaluated += 1;
            let v = nl.kind(g).eval(&inputs);
            set(&mut self.values, g, v);
        }
        for g in nl.gate_ids() {
            if nl.kind(g) == GateKind::FlipFlop {
                let d = nl
                    .ff_input(g)
                    .expect("validated netlists drive every D pin");
                self.ff_next[g.index()] = self.values[d.index()];
            }
        }
        activated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use terse_netlist::builder::NetlistBuilder;
    use terse_netlist::sim::Simulator;
    use terse_netlist::EndpointClass;

    /// Steps both simulators and checks the activation sets and every gate
    /// value.
    fn step_both(full: &mut FullScan<'_>, event: &mut Simulator<'_>, n: &Netlist, cycle: usize) {
        let af = full.step();
        let ae = event.step();
        assert_eq!(af, ae, "activation sets diverged at cycle {cycle}");
        for g in n.gate_ids() {
            assert_eq!(
                full.value(g),
                event.value(g),
                "value of {g:?} diverged at cycle {cycle}"
            );
        }
    }

    /// A 4-bit input bus feeding two flip-flops, one of which (`c`) also
    /// steers the logic; `sel_gate` builds the gate that combines `c` with
    /// the input terms.
    fn banked(sel_gate: impl Fn(&mut NetlistBuilder, GateId, GateId, GateId) -> GateId) -> Netlist {
        let mut b = NetlistBuilder::new(1);
        let xs = b.input_bus("x", 4, 0).unwrap();
        let ff = b.flip_flop("q", EndpointClass::Data, 0).unwrap();
        let ctl = b.flip_flop("c", EndpointClass::Control, 0).unwrap();
        let x01 = b.gate(GateKind::Nand, &[xs[0], xs[1]], 0).unwrap();
        let x23 = b.gate(GateKind::Xor, &[xs[2], xs[3]], 0).unwrap();
        let sel = sel_gate(&mut b, ctl, x01, x23);
        let out = b.gate(GateKind::And, &[sel, x23], 0).unwrap();
        b.connect_ff_input(ff, out).unwrap();
        b.connect_ff_input(ctl, x01).unwrap();
        b.finish().unwrap()
    }

    /// Drives both simulators with 64 cycles of LCG stimulus from `seed`:
    /// the `x` bus every cycle and a forced `q` on some cycles.
    fn drive(n: &Netlist, seed: u64) {
        let xs = n.bus("x").unwrap();
        let ff = n.bus("q").unwrap()[0];
        let mut full = FullScan::new(n);
        let mut event = Simulator::new(n);
        let mut state = seed;
        for cycle in 0..64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let v = state >> 33;
            for (i, &x) in xs.iter().enumerate() {
                full.set_input(x, v >> i & 1 == 1);
            }
            event.set_input_bus("x", v & 0xF).unwrap();
            if v & 0x10 != 0 {
                full.force_ff(ff, v & 0x20 != 0);
                event.force_ff(ff, v & 0x20 != 0);
            }
            step_both(&mut full, &mut event, n, cycle);
        }
        assert!(event.gates_evaluated() < full.gates_evaluated());
    }

    /// 2-bit counter: q0 toggles every cycle, q1 toggles when q0 is 1.
    #[test]
    fn event_driven_matches_full_scan_on_counter() {
        let mut b = NetlistBuilder::new(1);
        let q0 = b.flip_flop("q0", EndpointClass::Control, 0).unwrap();
        let q1 = b.flip_flop("q1", EndpointClass::Control, 0).unwrap();
        let n0 = b.gate(GateKind::Not, &[q0], 0).unwrap();
        let t1 = b.gate(GateKind::Xor, &[q1, q0], 0).unwrap();
        b.connect_ff_input(q0, n0).unwrap();
        b.connect_ff_input(q1, t1).unwrap();
        let n = b.finish().unwrap();
        let mut full = FullScan::new(&n);
        let mut event = Simulator::new(&n);
        for cycle in 0..16 {
            step_both(&mut full, &mut event, &n, cycle);
        }
        // Event-driven does no more evaluation work than the full scan.
        assert!(event.gates_evaluated() <= full.gates_evaluated());
    }

    /// Driven inputs and forced flip-flops through an OR of the control bank.
    #[test]
    fn event_driven_matches_full_scan_with_inputs_and_forcing() {
        let n = banked(|b, ctl, x01, _| b.gate(GateKind::Or, &[x01, ctl], 0).unwrap());
        drive(&n, 0x1234_5678);
    }

    /// The event-driven strategy, the only one the simulator has, agrees
    /// with the reference under the same stimulus shape through a mux the
    /// control bank selects, so forced and captured state picks which input
    /// term propagates.
    #[test]
    fn all_strategies_agree_under_random_stimulus() {
        let n = banked(|b, ctl, x01, x23| b.gate(GateKind::Mux, &[ctl, x01, x23], 0).unwrap());
        drive(&n, 0x0DDB_1A5E);
    }
}
