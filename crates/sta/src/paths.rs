//! Timing paths and critical-path enumeration — the `CP(P_i)` primitive of
//! the paper's Algorithm 1.
//!
//! A path (Definition 3.1) starts at an endpoint (flip-flop/port), traverses
//! combinational gates, and ends at a gate connected to a capturing endpoint.
//! Algorithm 1 pops paths of an endpoint in decreasing criticality until it
//! finds one whose gates are all activated. Materializing all paths is
//! exponential, so [`PathEnumerator`] enumerates them *lazily* in exact
//! decreasing nominal-delay order: a best-first search over path suffixes,
//! expanded backward from the endpoint, using the longest upstream arrival
//! as an admissible bound (this is the classical K-most-critical-paths
//! construction).

use crate::analysis::Sta;
use crate::canonical::CanonicalRv;
use crate::variation::VariationModel;
use crate::{Result, StaError};
use std::collections::BinaryHeap;
use terse_netlist::{BitSet, GateId, GateKind};

/// A combinational timing path from a launching endpoint to a capturing
/// endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// The launching endpoint (the "first gate" of Definition 3.1).
    pub source: GateId,
    /// The combinational gates in source→endpoint order.
    pub gates: Vec<GateId>,
    /// The capturing endpoint this path's last gate is connected to.
    pub endpoint: GateId,
}

impl Path {
    /// All gates whose activation Definition 3.3 requires: the source
    /// endpoint plus the combinational gates (the capturing endpoint is
    /// *connected to* the path, not part of it).
    pub fn required_gates(&self) -> impl Iterator<Item = GateId> + '_ {
        std::iter::once(self.source).chain(self.gates.iter().copied())
    }

    /// Whether all required gates are in the activation set `vcd` —
    /// Definition 3.3's "a path is activated iff all of its gates are".
    pub fn is_activated(&self, vcd: &BitSet) -> bool {
        self.required_gates().all(|g| vcd.contains(g.index()))
    }

    /// Nominal path delay: clock-to-Q + Σ gate delays + setup.
    pub fn delay_nominal(&self, sta: &Sta<'_>) -> f64 {
        sta.clk_to_q() + self.gates.iter().map(|&g| sta.delay(g)).sum::<f64>() + sta.setup()
    }

    /// Nominal slack under clock period `t_clk` (the paper's `SL`).
    pub fn slack_nominal(&self, sta: &Sta<'_>, t_clk: f64) -> f64 {
        t_clk - self.delay_nominal(sta)
    }

    /// Statistical path delay in canonical form: the *exact* sum of the
    /// gate-delay canonical forms (no max approximation on a single path),
    /// plus the deterministic clock-to-Q and setup.
    pub fn delay_rv(&self, model: &VariationModel, clk_to_q: f64, setup: f64) -> CanonicalRv {
        let mut acc = model.constant(clk_to_q + setup);
        for &g in &self.gates {
            acc.add_assign(model.gate_delay(g));
        }
        acc
    }

    /// Statistical slack under period `t_clk`: `t_clk − delay`.
    pub fn slack_rv(
        &self,
        model: &VariationModel,
        clk_to_q: f64,
        setup: f64,
        t_clk: f64,
    ) -> CanonicalRv {
        self.delay_rv(model, clk_to_q, setup)
            .negate()
            .add_scalar(t_clk)
    }

    /// Number of combinational gates on the path.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the path has no combinational gates (a direct FF→FF wire).
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }
}

/// A heap entry: a partial path suffix reaching back to `head`, with an
/// admissible upper bound on the delay of any completion.
#[derive(Debug, Clone)]
struct Suffix {
    bound: f64,
    head: GateId,
    /// Index into the node arena for suffix reconstruction.
    node: usize,
}

impl PartialEq for Suffix {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Suffix {}
impl PartialOrd for Suffix {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Suffix {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.bound.total_cmp(&other.bound)
    }
}

/// Lazy enumeration of the paths ending at one endpoint in exact decreasing
/// nominal-delay order.
///
/// # Example
/// ```
/// use terse_sta::{DelayLibrary, Sta, PathEnumerator};
/// use terse_netlist::pipeline::{PipelineConfig, PipelineNetlist};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = PipelineNetlist::build(PipelineConfig::small())?;
/// let lib = DelayLibrary::normalized_45nm();
/// let sta = Sta::new(p.netlist(), &lib);
/// let endpoint = p.netlist().endpoints(3)?[0];
/// let mut paths = PathEnumerator::new(&sta, endpoint)?;
/// let first = paths.next().expect("endpoint has paths");
/// let second = paths.next().expect("more than one path");
/// assert!(first.delay_nominal(&sta) >= second.delay_nominal(&sta));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PathEnumerator<'s, 'n> {
    sta: &'s Sta<'n>,
    endpoint: GateId,
    heap: BinaryHeap<Suffix>,
    /// Arena of (gate, parent) links for reconstructing suffixes.
    nodes: Vec<(GateId, Option<usize>)>,
    /// Optional activation restriction: expand only activated gates.
    restrict: Option<BitSet>,
}

impl<'s, 'n> PathEnumerator<'s, 'n> {
    /// Starts enumeration of paths capturing at `endpoint`.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::NotAnEndpoint`] if `endpoint` is not a flip-flop.
    pub fn new(sta: &'s Sta<'n>, endpoint: GateId) -> Result<Self> {
        Self::build(sta, endpoint, None)
    }

    /// Starts enumeration restricted to the activated subgraph `vcd`
    /// (yields only activated paths, still in decreasing delay order).
    ///
    /// # Errors
    ///
    /// Returns [`StaError::NotAnEndpoint`] if `endpoint` is not a flip-flop.
    pub fn restricted(sta: &'s Sta<'n>, endpoint: GateId, vcd: &BitSet) -> Result<Self> {
        Self::build(sta, endpoint, Some(vcd.clone()))
    }

    fn build(sta: &'s Sta<'n>, endpoint: GateId, restrict: Option<BitSet>) -> Result<Self> {
        let netlist = sta.netlist();
        if netlist.kind(endpoint) != GateKind::FlipFlop {
            return Err(StaError::NotAnEndpoint {
                id: endpoint.index() as u32,
            });
        }
        let driver = netlist
            .ff_input(endpoint)
            .map_err(|_| StaError::NotAnEndpoint {
                id: endpoint.index() as u32,
            })?;
        let mut e = PathEnumerator {
            sta,
            endpoint,
            heap: BinaryHeap::new(),
            nodes: Vec::new(),
            restrict,
        };
        e.push_suffix(driver, None, sta.setup());
        Ok(e)
    }

    fn allowed(&self, g: GateId) -> bool {
        self.restrict.as_ref().is_none_or(|r| r.contains(g.index()))
    }

    /// Pushes the suffix obtained by prepending `head` (with `suffix_delay`
    /// being the delay of everything after and including previous head plus
    /// setup).
    fn push_suffix(&mut self, head: GateId, parent: Option<usize>, tail_delay: f64) {
        if !self.allowed(head) {
            return;
        }
        let node = self.nodes.len();
        self.nodes.push((head, parent));
        // Bound: best possible completion = longest arrival at head's output
        // + delay of the recorded tail (which excludes head's own delay only
        // for endpoint heads — arrival already includes gate delays).
        let bound = self.sta.arrival(head) + tail_delay;
        self.heap.push(Suffix { bound, head, node });
    }

    /// Reconstructs the gate list from a node chain (head exclusive).
    fn materialize(&self, mut node: usize) -> (GateId, Vec<GateId>) {
        let mut gates = Vec::new();
        let head = self.nodes[node].0;
        loop {
            let (g, parent) = self.nodes[node];
            gates.push(g);
            match parent {
                Some(p) => node = p,
                None => break,
            }
        }
        (head, gates)
    }

    /// Tail delay of a node chain: Σ delays of all gates in the suffix that
    /// are combinational, plus setup.
    fn tail_delay(&self, node: usize) -> f64 {
        let mut d = self.sta.setup();
        let mut cur = Some(node);
        while let Some(c) = cur {
            let (g, parent) = self.nodes[c];
            d += self.sta.delay(g);
            cur = parent;
        }
        d
    }
}

impl Iterator for PathEnumerator<'_, '_> {
    type Item = Path;

    fn next(&mut self) -> Option<Path> {
        while let Some(Suffix { head, node, .. }) = self.heap.pop() {
            let netlist = self.sta.netlist();
            if netlist.kind(head).is_endpoint() {
                // Complete path: head is the launching endpoint.
                let (source, mut gates) = self.materialize(node);
                debug_assert_eq!(source, head);
                gates.remove(0); // drop the source endpoint from the gate list
                return Some(Path {
                    source: head,
                    gates,
                    endpoint: self.endpoint,
                });
            }
            // Expand backward through each fanin.
            let tail = self.tail_delay(node);
            let fanin: Vec<GateId> = netlist.fanin(head).to_vec();
            for f in fanin {
                self.push_suffix(f, Some(node), tail);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::DelayLibrary;
    use terse_netlist::builder::NetlistBuilder;
    use terse_netlist::netlist::EndpointClass;

    /// Diamond: src -> {short: buf, long: inv→inv} -> or -> dst
    /// (exactly two source-to-endpoint paths).
    fn diamond() -> (terse_netlist::Netlist, GateId, GateId) {
        let mut b = NetlistBuilder::new(1);
        let src = b.flip_flop("src", EndpointClass::Data, 0).unwrap();
        let short = b.gate(GateKind::Buf, &[src], 0).unwrap();
        let x1 = b.gate(GateKind::Not, &[src], 0).unwrap();
        let x2 = b.gate(GateKind::Not, &[x1], 0).unwrap();
        let or = b.gate(GateKind::Or, &[short, x2], 0).unwrap();
        let dst = b.flip_flop("dst", EndpointClass::Data, 0).unwrap();
        b.connect_ff_input(dst, or).unwrap();
        b.connect_ff_input(src, or).unwrap();
        let n = b.finish().unwrap();
        let src = n.bus("src").unwrap()[0];
        let dst = n.bus("dst").unwrap()[0];
        (n, src, dst)
    }

    #[test]
    fn paths_enumerate_in_decreasing_order() {
        let (n, _src, dst) = diamond();
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(&n, &lib);
        let paths: Vec<Path> = PathEnumerator::new(&sta, dst).unwrap().collect();
        // Two distinct routes: via xor-chain (long) and via buf (short).
        assert_eq!(paths.len(), 2);
        let d0 = paths[0].delay_nominal(&sta);
        let d1 = paths[1].delay_nominal(&sta);
        assert!(d0 >= d1);
        // The long path goes through both xors.
        assert_eq!(paths[0].gates.len(), 3);
        assert_eq!(paths[1].gates.len(), 2);
        // Path delay matches block-based arrival for the most critical one.
        let want = sta.endpoint_arrival(dst).unwrap();
        assert!((d0 - want).abs() < 1e-9);
    }

    #[test]
    fn enumeration_brute_force_cross_check() {
        // On a random DAG, the enumerator must produce exactly the set of
        // all paths, sorted by delay.
        let mut b = NetlistBuilder::new(1);
        let src = b.flip_flop("src", EndpointClass::Data, 0).unwrap();
        let mut pool = vec![src];
        let mut state = 12345u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..30 {
            let a = pool[(rnd() % pool.len() as u64) as usize];
            let c = pool[(rnd() % pool.len() as u64) as usize];
            let kinds = [GateKind::And, GateKind::Or, GateKind::Xor, GateKind::Nand];
            let g = b.gate(kinds[(rnd() % 4) as usize], &[a, c], 0).unwrap();
            pool.push(g);
        }
        let last = *pool.last().unwrap();
        let dst = b.flip_flop("dst", EndpointClass::Data, 0).unwrap();
        b.connect_ff_input(dst, last).unwrap();
        b.connect_ff_input(src, last).unwrap();
        let n = b.finish().unwrap();
        let dst = n.bus("dst").unwrap()[0];
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(&n, &lib);

        // Brute force: DFS all paths from the driver backwards.
        fn dfs(
            n: &terse_netlist::Netlist,
            g: GateId,
            suffix: &mut Vec<GateId>,
            out: &mut Vec<Vec<GateId>>,
        ) {
            if n.kind(g).is_endpoint() {
                let mut p = suffix.clone();
                p.reverse();
                out.push(p);
                return;
            }
            suffix.push(g);
            for &f in n.fanin(g) {
                dfs(n, f, suffix, out);
            }
            suffix.pop();
        }
        let mut all = Vec::new();
        dfs(&n, n.ff_input(dst).unwrap(), &mut Vec::new(), &mut all);
        let mut brute: Vec<f64> = all
            .iter()
            .map(|gs| sta.clk_to_q() + gs.iter().map(|&g| sta.delay(g)).sum::<f64>() + sta.setup())
            .collect();
        brute.sort_by(|a, b| b.total_cmp(a));

        let enumerated: Vec<f64> = PathEnumerator::new(&sta, dst)
            .unwrap()
            .map(|p| p.delay_nominal(&sta))
            .collect();
        assert_eq!(enumerated.len(), brute.len());
        for (e, w) in enumerated.iter().zip(&brute) {
            assert!((e - w).abs() < 1e-9, "enumerated {e} want {w}");
        }
    }

    #[test]
    fn activation_restriction_skips_inactive_paths() {
        let (n, src, dst) = diamond();
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(&n, &lib);
        // Activate only the short route: src, buf, or.
        let all: Vec<Path> = PathEnumerator::new(&sta, dst).unwrap().collect();
        let short = &all[1];
        let mut vcd = BitSet::new(n.gate_count());
        vcd.insert(src.index());
        for g in &short.gates {
            vcd.insert(g.index());
        }
        let got: Vec<Path> = PathEnumerator::restricted(&sta, dst, &vcd)
            .unwrap()
            .collect();
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0], short);
        assert!(short.is_activated(&vcd));
        assert!(!all[0].is_activated(&vcd));
    }

    #[test]
    fn statistical_path_slack() {
        use crate::variation::{VariationConfig, VariationModel};
        let (n, _src, dst) = diamond();
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(&n, &lib);
        let model = VariationModel::new(&n, &lib, VariationConfig::default()).unwrap();
        let p = PathEnumerator::new(&sta, dst).unwrap().next().unwrap();
        let rv = p.delay_rv(&model, lib.clk_to_q, lib.setup);
        assert!((rv.mean() - p.delay_nominal(&sta)).abs() < 1e-9);
        assert!(rv.sd() > 0.0);
        let slack = p.slack_rv(&model, lib.clk_to_q, lib.setup, 200.0);
        assert!((slack.mean() - (200.0 - rv.mean())).abs() < 1e-9);
        assert_eq!(slack.sd(), rv.sd());
    }

    #[test]
    fn non_endpoint_rejected() {
        let (n, _src, dst) = diamond();
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(&n, &lib);
        let driver = n.ff_input(dst).unwrap();
        assert!(PathEnumerator::new(&sta, driver).is_err());
        let vcd = BitSet::new(n.gate_count());
        assert!(PathEnumerator::restricted(&sta, driver, &vcd).is_err());
    }
}
