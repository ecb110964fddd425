//! The netlist graph `N`: gates, nets (fanin/fanout edges), endpoints and
//! pipeline stages — the object the paper's Algorithm 1 analyzes.

use crate::bitset::BitSet;
use crate::gate::{GateId, GateKind};
use crate::{NetlistError, Result};
use std::collections::HashMap;

/// Classification of a flip-flop endpoint, per the paper's Section 4:
/// *data endpoints* "hold the operands and results of instructions, including
/// condition codes and intermediate results like load/store addresses";
/// *control endpoints* are the rest (fetch/decode state, control signals…).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EndpointClass {
    /// Fetch/decode/control-signal endpoints, characterized per basic block
    /// at gate level (Section 4, "Control Network DTS Characterization").
    Control,
    /// Operand/result endpoints, modeled with the trained datapath timing
    /// model (Section 4, "Datapath DTS Characterization").
    Data,
}

/// A 2-D placement coordinate in normalized die units `[0, 1]²`, consumed by
/// the spatial-correlation model of the SSTA crate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate in `[0, 1]`.
    pub x: f32,
    /// Vertical coordinate in `[0, 1]`.
    pub y: f32,
}

#[derive(Debug, Clone)]
pub(crate) struct GateData {
    pub kind: GateKind,
    pub fanin: Vec<GateId>,
    pub stage: u16,
    pub pos: Point,
    /// For flip-flops: which pipeline stage's logic this endpoint captures
    /// (i.e. membership in `E(N, s)`), and the endpoint class.
    pub endpoint: Option<EndpointClass>,
}

/// An immutable, validated gate-level netlist.
///
/// Construct with [`crate::NetlistBuilder`]. The netlist knows, for every
/// gate: its boolean function, fanin, fanout, pipeline stage, placement, and
/// (for flip-flops) its endpoint class — everything Algorithm 1 and the SSTA
/// layer need.
#[derive(Debug, Clone)]
pub struct Netlist {
    pub(crate) gates: Vec<GateData>,
    pub(crate) fanout: Vec<Vec<GateId>>,
    /// Combinational gates in topological order (sources excluded).
    pub(crate) topo: Vec<GateId>,
    pub(crate) stage_count: usize,
    /// Flip-flops by capture stage.
    pub(crate) endpoints_by_stage: Vec<Vec<GateId>>,
    pub(crate) names: HashMap<String, Vec<GateId>>,
    /// D-input driver of each flip-flop (indexed by gate id; `None` for
    /// non-FF gates).
    pub(crate) ff_input: Vec<Option<GateId>>,
}

impl Netlist {
    /// Number of gates (including ports and flip-flops).
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of pipeline stages `S(N)`.
    pub fn stage_count(&self) -> usize {
        self.stage_count
    }

    /// The gate kind.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn kind(&self, id: GateId) -> GateKind {
        self.gates[id.index()].kind
    }

    /// The fanin (driver gates) of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn fanin(&self, id: GateId) -> &[GateId] {
        &self.gates[id.index()].fanin
    }

    /// The fanout (driven gates) of `id`. For a flip-flop this is the logic
    /// its Q output drives; the D-input edge appears as the FF being in the
    /// driver's fanout.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn fanout(&self, id: GateId) -> &[GateId] {
        &self.fanout[id.index()]
    }

    /// The pipeline stage this gate's logic belongs to.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn stage(&self, id: GateId) -> usize {
        self.gates[id.index()].stage as usize
    }

    /// Placement coordinate of the gate.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn position(&self, id: GateId) -> Point {
        self.gates[id.index()].pos
    }

    /// The endpoint class of a flip-flop, or `None` for combinational gates
    /// and ports.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn endpoint_class(&self, id: GateId) -> Option<EndpointClass> {
        self.gates[id.index()].endpoint
    }

    /// The set of endpoints `E(N, s)` capturing stage `s` logic.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadStage`] if `s` is out of range.
    pub fn endpoints(&self, s: usize) -> Result<&[GateId]> {
        self.endpoints_by_stage
            .get(s)
            .map(Vec::as_slice)
            .ok_or(NetlistError::BadStage {
                stage: s,
                stages: self.stage_count,
            })
    }

    /// All flip-flop endpoints of every stage.
    pub fn all_endpoints(&self) -> impl Iterator<Item = GateId> + '_ {
        self.endpoints_by_stage.iter().flatten().copied()
    }

    /// The D-input driver of a flip-flop.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownGate`] if `id` is not a flip-flop.
    pub fn ff_input(&self, id: GateId) -> Result<GateId> {
        self.ff_input
            .get(id.index())
            .copied()
            .flatten()
            .ok_or(NetlistError::UnknownGate { id: id.0 })
    }

    /// Looks up a named bus (a vector of gate ids registered by the builder,
    /// LSB first).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownName`] if the name is unregistered.
    pub fn bus(&self, name: &str) -> Result<&[GateId]> {
        self.names
            .get(name)
            .map(Vec::as_slice)
            .ok_or_else(|| NetlistError::UnknownName {
                name: name.to_owned(),
            })
    }

    /// Combinational gates in topological (fanin-before-fanout) order.
    pub fn topo_order(&self) -> &[GateId] {
        &self.topo
    }

    /// Iterates over every gate id.
    pub fn gate_ids(&self) -> impl Iterator<Item = GateId> {
        // terse-analyze: allow(AZ005): gate count fits u32 (ids are u32 indices).
        (0..self.gates.len() as u32).map(GateId)
    }

    /// For each stage `s`, the *fan-in cone* of its endpoints: the D-input
    /// drivers of every endpoint in `E(N, s)` plus their transitive
    /// combinational fanin, including the sequential sources (flip-flops,
    /// inputs, ties) that launch into the stage. Capture endpoints themselves
    /// are only members if they also source logic of the same stage.
    ///
    /// Every path Algorithm 1 can enumerate for stage `s` consists solely of
    /// cone gates, so the stage-`s` DTS depends on a cycle's activation set
    /// `VCD(t)` only through `VCD(t) ∧ cone(s)` — this is what makes masked
    /// activation signatures an exact memoization key for stage DTS.
    pub fn stage_cones(&self) -> Vec<BitSet> {
        let n = self.gates.len();
        (0..self.stage_count)
            .map(|s| {
                let mut cone = BitSet::new(n);
                let mut stack: Vec<GateId> = Vec::new();
                for &e in &self.endpoints_by_stage[s] {
                    if let Some(d) = self.ff_input[e.index()] {
                        stack.push(d);
                    }
                }
                while let Some(g) = stack.pop() {
                    let gi = g.index();
                    if cone.contains(gi) {
                        continue;
                    }
                    cone.insert(gi);
                    // Sequential elements and ports launch paths; do not
                    // traverse through them into earlier stages.
                    if !matches!(
                        self.kind(g),
                        GateKind::FlipFlop | GateKind::Input | GateKind::Tie(_)
                    ) {
                        stack.extend_from_slice(self.fanin(g));
                    }
                }
                cone
            })
            .collect()
    }

    /// Logic depth (maximum number of combinational gates on any
    /// source-to-endpoint path), per stage. Tests use it to check the
    /// pipeline builder's stage structure.
    #[cfg(test)]
    pub(crate) fn logic_depth_by_stage(&self) -> Vec<usize> {
        let mut depth = vec![0usize; self.gates.len()];
        let mut per_stage = vec![0usize; self.stage_count.max(1)];
        for &g in &self.topo {
            let gi = g.index();
            let d = self.gates[gi]
                .fanin
                .iter()
                .map(|f| depth[f.index()])
                .max()
                .unwrap_or(0)
                + 1;
            depth[gi] = d;
            let s = self.gates[gi].stage as usize;
            if s < per_stage.len() {
                per_stage[s] = per_stage[s].max(d);
            }
        }
        per_stage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    fn tiny() -> Netlist {
        // in -> and(in, ff) -> ff
        let mut b = NetlistBuilder::new(1);
        let input = b.input("in", 0).unwrap();
        let ff = b.flip_flop("state", EndpointClass::Control, 0).unwrap();
        let and = b.gate(GateKind::And, &[input, ff], 0).unwrap();
        b.connect_ff_input(ff, and).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn structure_queries() {
        let n = tiny();
        assert_eq!(n.gate_count(), 3);
        assert_eq!(n.stage_count(), 1);
        let ff = n.bus("state").unwrap()[0];
        assert_eq!(n.kind(ff), GateKind::FlipFlop);
        assert_eq!(n.endpoint_class(ff), Some(EndpointClass::Control));
        let and = n.ff_input(ff).unwrap();
        assert_eq!(n.kind(and), GateKind::And);
        assert_eq!(n.fanin(and).len(), 2);
        // The AND is in the fanout of both its drivers.
        let input = n.bus("in").unwrap()[0];
        assert!(n.fanout(input).contains(&and));
        assert!(n.fanout(ff).contains(&and));
        // FF appears in the fanout of its D driver.
        assert!(n.fanout(and).contains(&ff));
    }

    #[test]
    fn endpoints_by_stage() {
        let n = tiny();
        let eps = n.endpoints(0).unwrap();
        assert_eq!(eps.len(), 1);
        assert!(n.endpoints(1).is_err());
        assert_eq!(n.all_endpoints().count(), 1);
    }

    #[test]
    fn unknown_bus_is_error() {
        let n = tiny();
        assert!(n.bus("nope").is_err());
    }

    #[test]
    fn topo_contains_only_comb() {
        let n = tiny();
        assert_eq!(n.topo_order().len(), 1); // just the AND
    }

    #[test]
    fn stage_cones_cover_drivers_and_sources() {
        let n = tiny();
        let cones = n.stage_cones();
        assert_eq!(cones.len(), 1);
        let input = n.bus("in").unwrap()[0];
        let ff = n.bus("state").unwrap()[0];
        let and = n.ff_input(ff).unwrap();
        // Cone = the endpoint's D driver plus its sources — here the AND,
        // the primary input, and the FF itself (it sources the AND).
        assert!(cones[0].contains(and.index()));
        assert!(cones[0].contains(input.index()));
        assert!(cones[0].contains(ff.index()));
        assert_eq!(cones[0].count(), 3);
    }

    #[test]
    fn logic_depth_per_stage() {
        let n = tiny();
        assert_eq!(n.logic_depth_by_stage(), vec![1]);
    }
}
