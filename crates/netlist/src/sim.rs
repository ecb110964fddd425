//! Cycle-accurate boolean simulation with toggle tracking — the VCD
//! substitute.
//!
//! The paper obtains `VCD(t)` (the set of gates activated in cycle `t`,
//! Definition 3.2) from a gate-level simulation of the synthesized netlist.
//! [`Simulator`] does exactly that on our netlist: each [`Simulator::step`]
//! advances one clock cycle — flip-flop outputs update, combinational logic
//! propagates in topological order, and every gate whose output value changed
//! relative to the previous cycle is recorded as activated.

use crate::activity::ActivityTrace;
use crate::bitset::BitSet;
use crate::gate::{GateId, GateKind};
use crate::netlist::Netlist;

/// A cycle-accurate simulator over a [`Netlist`].
///
/// Primary inputs are driven with [`Simulator::set_input`]; flip-flops
/// normally capture their D input at each clock edge but can be *forced*
/// (co-simulation drives pipeline banks directly from architectural state).
///
/// # Example
/// ```
/// use terse_netlist::builder::NetlistBuilder;
/// use terse_netlist::gate::GateKind;
/// use terse_netlist::netlist::EndpointClass;
/// use terse_netlist::sim::Simulator;
///
/// # fn main() -> Result<(), terse_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new(1);
/// let a = b.input("a", 0)?;
/// let q = b.flip_flop("q", EndpointClass::Data, 0)?;
/// let g = b.gate(GateKind::Not, &[a], 0)?;
/// b.connect_ff_input(q, g)?;
/// let n = b.finish()?;
///
/// let mut sim = Simulator::new(&n);
/// sim.set_input(a, true);
/// let act = sim.step();
/// assert!(!sim.value(g));            // NOT(1) = 0... and a toggled 0→1
/// assert!(act.contains(a.index()));  // the input toggled, so it activated
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Simulator<'n> {
    netlist: &'n Netlist,
    /// Current output value of every gate.
    values: Vec<bool>,
    /// Captured D values waiting to appear on Q at the next edge.
    ff_next: Vec<bool>,
    /// Pending forced Q overrides (consumed at the next edge).
    forced: Vec<Option<bool>>,
    cycle: u64,
    /// Topological position of each combinational gate (`u32::MAX` for
    /// sources and flip-flops, which never appear on the worklist).
    topo_pos: Vec<u32>,
    /// Dirty bitmap over topological positions — the event worklist. Bits
    /// are drained in ascending position order (lowest set bit first), and
    /// event insertions always land at strictly larger positions, so each
    /// gate is evaluated at most once per cycle.
    dirty_pos: Vec<u64>,
    /// Sequential elements updated at the clock edge (flip-flops and
    /// primary inputs), precomputed so the edge does not scan every gate.
    seq: Vec<GateId>,
    /// Flip-flops only, for D-pin recapture.
    ffs: Vec<GateId>,
    /// Whether a full combinational propagation has run at least once, so
    /// `values`/`ff_next` are consistent and incremental steps are sound.
    settled: bool,
    /// Cumulative number of combinational gate evaluations performed.
    evaluated: u64,
}

impl<'n> Simulator<'n> {
    /// Creates a simulator with all nets initially low.
    pub fn new(netlist: &'n Netlist) -> Self {
        let n = netlist.gate_count();
        let mut topo_pos = vec![u32::MAX; n];
        for (pos, &g) in netlist.topo_order().iter().enumerate() {
            // terse-analyze: allow(AZ005): topo position < gate count, which fits u32.
            topo_pos[g.index()] = pos as u32;
        }
        let seq: Vec<GateId> = netlist
            .gate_ids()
            .filter(|&g| matches!(netlist.kind(g), GateKind::FlipFlop | GateKind::Input))
            .collect();
        let ffs: Vec<GateId> = seq
            .iter()
            .copied()
            .filter(|&g| netlist.kind(g) == GateKind::FlipFlop)
            .collect();
        let mut sim = Simulator {
            netlist,
            values: vec![false; n],
            ff_next: vec![false; n],
            forced: vec![None; n],
            cycle: 0,
            topo_pos,
            dirty_pos: vec![0u64; netlist.topo_order().len().div_ceil(64)],
            seq,
            ffs,
            settled: false,
            evaluated: 0,
        };
        // Constants drive their value from time zero.
        for id in netlist.gate_ids() {
            if let GateKind::Tie(v) = netlist.kind(id) {
                sim.values[id.index()] = v;
            }
        }
        sim
    }

    /// Cumulative number of combinational gate evaluations across all steps
    /// — the work metric event-driven propagation reduces.
    pub fn gates_evaluated(&self) -> u64 {
        self.evaluated
    }

    /// The netlist under simulation.
    pub fn netlist(&self) -> &'n Netlist {
        self.netlist
    }

    /// Number of clock cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Current output value of a gate.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn value(&self, id: GateId) -> bool {
        self.values[id.index()]
    }

    /// Reads a named bus as an integer (LSB first).
    ///
    /// # Errors
    ///
    /// Returns [`crate::NetlistError::UnknownName`] for unknown buses.
    pub fn bus_value(&self, name: &str) -> crate::Result<u64> {
        let ids = self.netlist.bus(name)?;
        let mut v = 0u64;
        for (i, &g) in ids.iter().enumerate().take(64) {
            if self.value(g) {
                v |= 1 << i;
            }
        }
        Ok(v)
    }

    /// Drives a primary input. Takes effect at the next [`Simulator::step`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is not an [`GateKind::Input`] gate.
    pub fn set_input(&mut self, id: GateId, value: bool) {
        assert_eq!(
            self.netlist.kind(id),
            GateKind::Input,
            "set_input requires an input port"
        );
        self.forced[id.index()] = Some(value);
    }

    /// Drives a named input bus from an integer (LSB first).
    ///
    /// # Errors
    ///
    /// Returns [`crate::NetlistError::UnknownName`] for unknown buses.
    ///
    /// # Panics
    ///
    /// Panics if any bus bit is not an input port.
    pub fn set_input_bus(&mut self, name: &str, value: u64) -> crate::Result<()> {
        let ids: Vec<GateId> = self.netlist.bus(name)?.to_vec();
        for (i, g) in ids.into_iter().enumerate() {
            self.set_input(g, (value >> i.min(63)) & 1 == 1 && i < 64);
        }
        Ok(())
    }

    /// Forces a flip-flop's Q output for the next cycle (overrides capture).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a flip-flop.
    pub fn force_ff(&mut self, id: GateId, value: bool) {
        assert_eq!(
            self.netlist.kind(id),
            GateKind::FlipFlop,
            "force_ff requires a flip-flop"
        );
        self.forced[id.index()] = Some(value);
    }

    /// Forces a named flip-flop bank from an integer (LSB first).
    ///
    /// # Errors
    ///
    /// Returns [`crate::NetlistError::UnknownName`] for unknown buses.
    ///
    /// # Panics
    ///
    /// Panics if any bus bit is not a flip-flop.
    pub fn force_ff_bus(&mut self, name: &str, value: u64) -> crate::Result<()> {
        let ids: Vec<GateId> = self.netlist.bus(name)?.to_vec();
        for (i, g) in ids.into_iter().enumerate() {
            self.force_ff(g, i < 64 && (value >> i) & 1 == 1);
        }
        Ok(())
    }

    /// Clock edge: flip-flop Q outputs update (captured D or forced), primary
    /// inputs take their driven values. Toggled sources are recorded in
    /// `activated` and returned for dirty-marking.
    fn clock_edge(&mut self, activated: &mut BitSet) -> Vec<GateId> {
        let mut toggled = Vec::new();
        for k in 0..self.seq.len() {
            let id = self.seq[k];
            let i = id.index();
            let new = if self.netlist.kind(id) == GateKind::FlipFlop {
                self.forced[i].take().unwrap_or(self.ff_next[i])
            } else {
                match self.forced[i].take() {
                    Some(v) => v,
                    None => continue,
                }
            };
            if new != self.values[i] {
                activated.insert(i);
                toggled.push(id);
            }
            self.values[i] = new;
        }
        toggled
    }

    /// Re-captures every flip-flop's D pin.
    /// (`Netlist::validate` rejects unconnected flip-flops, so every entry in
    /// `ffs` has a driver.)
    fn capture_all(&mut self) {
        for k in 0..self.ffs.len() {
            let i = self.ffs[k].index();
            if let Some(d) = self.netlist.ff_input[i] {
                self.ff_next[i] = self.values[d.index()];
            }
        }
    }

    /// Marks the combinational fanout of a toggled gate dirty and forwards
    /// the new value to any flip-flop D pin the gate drives. This is the
    /// event propagation rule: value changes travel only along real edges.
    fn touch_fanout(&mut self, g: GateId) {
        let nl = self.netlist;
        let v = self.values[g.index()];
        for &f in nl.fanout(g) {
            let fi = f.index();
            let pos = self.topo_pos[fi];
            if pos != u32::MAX {
                self.dirty_pos[(pos >> 6) as usize] |= 1 << (pos & 63);
            } else if nl.ff_input[fi] == Some(g) {
                // D-input edge: maintain the captured value incrementally.
                self.ff_next[fi] = v;
            }
        }
    }

    /// Advances one clock cycle and returns the activation set `VCD(t)`:
    /// every gate (including endpoints) whose output changed this cycle.
    ///
    /// Propagation is event-driven. The very first step performs one full
    /// sweep (the all-low initial state is not a fixed point of the netlist
    /// functions — e.g. `NAND(0,0) = 1` — and full-scan semantics record
    /// that settlement as cycle-1 activity); afterwards only gates
    /// downstream of an actual toggle are re-evaluated, which yields the
    /// same activation sets as re-evaluating every gate every cycle: a gate
    /// none of whose fan-ins changed cannot change output. The full-scan
    /// reference lives in the oracle crate's differential suites.
    pub fn step(&mut self) -> BitSet {
        let n = self.netlist.gate_count();
        let mut activated = BitSet::new(n);
        let toggled = self.clock_edge(&mut activated);
        let first = !self.settled;
        let topo_len = self.netlist.topo_order().len();
        if first {
            for w in &mut self.dirty_pos {
                *w = u64::MAX;
            }
            let tail = topo_len % 64;
            if tail != 0 {
                if let Some(last) = self.dirty_pos.last_mut() {
                    *last = (1u64 << tail) - 1;
                }
            }
        } else {
            for g in toggled {
                self.touch_fanout(g);
            }
        }
        // Drain the dirty bitmap in increasing topological position (lowest
        // set bit of the lowest non-zero word). Event insertions land at
        // strictly larger positions than the gate being evaluated — same
        // word, higher bit, or a later word — so re-reading the current word
        // after each evaluation sees them and each gate runs at most once per
        // cycle, after all its fan-ins settled.
        let mut inbuf = [false; 3];
        let mut wi = 0;
        while wi < self.dirty_pos.len() {
            let w = self.dirty_pos[wi];
            if w == 0 {
                wi += 1;
                continue;
            }
            self.dirty_pos[wi] = w & (w - 1); // clear the lowest set bit
            let pos = (wi << 6) + w.trailing_zeros() as usize;
            let g = self.netlist.topo_order()[pos];
            let gi = g.index();
            let fanin = self.netlist.fanin(g);
            for (slot, f) in inbuf.iter_mut().zip(fanin) {
                *slot = self.values[f.index()];
            }
            self.evaluated += 1;
            let new = self.netlist.kind(g).eval(&inbuf[..fanin.len()]);
            if new != self.values[gi] {
                activated.insert(gi);
                self.values[gi] = new;
                self.touch_fanout(g);
            }
        }
        if first {
            // Establish the `ff_next == values[D]` invariant that incremental
            // D-edge forwarding maintains from now on.
            self.capture_all();
            self.settled = true;
        }
        self.cycle += 1;
        activated
    }

    /// Runs `cycles` steps, collecting the activity trace.
    pub fn run(&mut self, cycles: usize) -> ActivityTrace {
        let mut trace = ActivityTrace::new(self.netlist.gate_count());
        for _ in 0..cycles {
            let act = self.step();
            trace.push(act);
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;
    use crate::netlist::EndpointClass;

    /// 2-bit counter: q0 toggles every cycle, q1 toggles when q0 is 1.
    fn counter() -> Netlist {
        let mut b = NetlistBuilder::new(1);
        let q0 = b.flip_flop("q0", EndpointClass::Control, 0).unwrap();
        let q1 = b.flip_flop("q1", EndpointClass::Control, 0).unwrap();
        let n0 = b.gate(GateKind::Not, &[q0], 0).unwrap();
        let t1 = b.gate(GateKind::Xor, &[q1, q0], 0).unwrap();
        b.connect_ff_input(q0, n0).unwrap();
        b.connect_ff_input(q1, t1).unwrap();
        b.name_bus("count", &[q0, q1]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn counter_counts() {
        let n = counter();
        let mut sim = Simulator::new(&n);
        let mut seen = Vec::new();
        for _ in 0..5 {
            sim.step();
            seen.push(sim.bus_value("count").unwrap());
        }
        // Cycle 1: Q still 00 (capture of initial comb values happens at the
        // end of cycle 0's step); sequence settles into 0,1,2,3,0...
        assert_eq!(seen, vec![0, 1, 2, 3, 0]);
    }

    #[test]
    fn activation_reflects_toggles() {
        let n = counter();
        let mut sim = Simulator::new(&n);
        let q0 = n.bus("q0").unwrap()[0];
        let q1 = n.bus("q1").unwrap()[0];
        sim.step(); // count 0 -> comb set up
        let a2 = sim.step(); // count becomes 1: q0 toggles, q1 stays
        assert!(a2.contains(q0.index()));
        assert!(!a2.contains(q1.index()));
        let a3 = sim.step(); // count becomes 2: both toggle
        assert!(a3.contains(q0.index()));
        assert!(a3.contains(q1.index()));
    }

    #[test]
    fn forcing_overrides_capture() {
        let n = counter();
        let mut sim = Simulator::new(&n);
        let q0 = n.bus("q0").unwrap()[0];
        sim.step();
        sim.force_ff(q0, false); // hold q0 at 0 regardless of its D pin
        sim.step();
        assert!(!sim.value(q0));
    }

    #[test]
    fn input_driving() {
        let mut b = NetlistBuilder::new(1);
        let xs = b.input_bus("x", 8, 0).unwrap();
        let ff = b.flip_flop("q", EndpointClass::Data, 0).unwrap();
        b.connect_ff_input(ff, xs[0]).unwrap();
        let n = b.finish().unwrap();
        let mut sim = Simulator::new(&n);
        sim.set_input_bus("x", 0xA5).unwrap();
        sim.step();
        assert_eq!(sim.bus_value("x").unwrap(), 0xA5);
        // Unchanged inputs do not activate on the next cycle.
        let act = sim.step();
        for &g in n.bus("x").unwrap() {
            assert!(!act.contains(g.index()));
        }
    }

    #[test]
    fn run_collects_trace() {
        let n = counter();
        let mut sim = Simulator::new(&n);
        let trace = sim.run(8);
        assert_eq!(trace.len(), 8);
        assert_eq!(sim.cycle(), 8);
        // q0 toggles every cycle from cycle 1 onward.
        let q0 = n.bus("q0").unwrap()[0];
        let toggles = (1..8)
            .filter(|&t| trace.cycle(t).contains(q0.index()))
            .count();
        assert_eq!(toggles, 7);
    }

    #[test]
    fn first_event_step_settles_constants() {
        // NAND of all-low inputs is 1: full-scan semantics record that
        // settlement toggle in cycle 1, so the event-driven step must too.
        let mut b = NetlistBuilder::new(1);
        let x = b.input("x", 0).unwrap();
        let one = b.tie(true, 0).unwrap();
        let g = b.gate(GateKind::Nand, &[x, one], 0).unwrap();
        let ff = b.flip_flop("q", EndpointClass::Control, 0).unwrap();
        b.connect_ff_input(ff, g).unwrap();
        let n = b.finish().unwrap();
        let mut sim = Simulator::new(&n);
        let first = sim.step();
        assert!(first.contains(g.index()), "settlement toggle in cycle 1");
        assert!(!first.contains(ff.index()));
        let second = sim.step();
        assert!(second.contains(ff.index()), "Q captures the settled D");
        assert!(!second.contains(g.index()));
        for _ in 0..2 {
            assert!(sim.step().is_empty(), "a settled netlist is quiescent");
        }
        assert!(sim.value(ff)); // captured NAND(0,1)=1 through the tie path
    }

    #[test]
    fn tie_cells_hold_value() {
        let mut b = NetlistBuilder::new(1);
        let one = b.tie(true, 0).unwrap();
        let ff = b.flip_flop("q", EndpointClass::Control, 0).unwrap();
        b.connect_ff_input(ff, one).unwrap();
        let n = b.finish().unwrap();
        let mut sim = Simulator::new(&n);
        assert!(sim.value(one));
        sim.step();
        sim.step();
        assert!(sim.value(ff)); // captured the constant
    }
}
