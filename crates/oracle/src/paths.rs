//! The activated-subgraph dynamic program: the reference for the first
//! path of the restricted search.
//!
//! Algorithm 1's production search (`terse_sta::paths::PathEnumerator::
//! restricted`, as the DTA engine runs it) yields an endpoint's activated
//! paths lazily in decreasing delay order; its first path is the most
//! critical activated one. This module finds that path a second way — one
//! `O(gates + edges)` longest-arrival pass over the activated subgraph,
//! then a backtrack per endpoint — so the restricted search can be checked
//! on netlists too deep for [`crate::exhaustive`]'s DFS, such as the
//! pipeline. The DP itself is checked against the DFS on small netlists.

use terse_netlist::{BitSet, GateId, GateKind};
use terse_sta::analysis::Sta;
use terse_sta::paths::Path;
use terse_sta::{Result, StaError};

/// The per-cycle activated-subgraph dynamic program, shared across all
/// endpoints: one `O(V + E)` pass computes the longest activated arrival at
/// every gate, after which each endpoint's most critical activated path is
/// a backtrack.
#[derive(Debug, Clone)]
pub struct ActivatedDp {
    act_arr: Vec<f64>,
    pred: Vec<Option<GateId>>,
}

impl ActivatedDp {
    /// Runs the DP over the activated subgraph `vcd`.
    pub fn new(sta: &Sta<'_>, vcd: &BitSet) -> Self {
        let netlist = sta.netlist();
        let n = netlist.gate_count();
        let mut act_arr = vec![f64::NEG_INFINITY; n];
        let mut pred: Vec<Option<GateId>> = vec![None; n];
        for g in netlist.gate_ids() {
            if netlist.kind(g).is_endpoint()
                && !matches!(netlist.kind(g), GateKind::Tie(_))
                && vcd.contains(g.index())
            {
                act_arr[g.index()] = sta.clk_to_q();
            }
        }
        for &g in netlist.topo_order() {
            let gi = g.index();
            if !vcd.contains(gi) {
                continue;
            }
            let mut best = f64::NEG_INFINITY;
            let mut best_f = None;
            for &f in netlist.fanin(g) {
                let a = act_arr[f.index()];
                if a > best {
                    best = a;
                    best_f = Some(f);
                }
            }
            if let Some(f) = best_f {
                if best > f64::NEG_INFINITY {
                    act_arr[gi] = best + sta.delay(g);
                    pred[gi] = Some(f);
                }
            }
        }
        ActivatedDp { act_arr, pred }
    }

    /// The most critical activated path capturing at `endpoint`, if any.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::NotAnEndpoint`] if `endpoint` is not a flip-flop.
    // Invariant: the DP stores a predecessor for every gate it assigns an
    // activated arrival to, so walking back from an activated endpoint
    // always reaches a source before `pred` runs out.
    pub fn path_to(&self, sta: &Sta<'_>, endpoint: GateId) -> Result<Option<Path>> {
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
        if self.act_arr[driver.index()] == f64::NEG_INFINITY {
            return Ok(None);
        }
        let mut gates = Vec::new();
        let mut cur = driver;
        loop {
            if netlist.kind(cur).is_endpoint() {
                gates.reverse();
                return Ok(Some(Path {
                    source: cur,
                    gates,
                    endpoint,
                }));
            }
            gates.push(cur);
            cur = self.pred[cur.index()].expect("activated arrival implies a predecessor chain");
        }
    }
}

/// The most critical (longest-delay) **activated** path capturing at
/// `endpoint`, or `None` if no activated path reaches it.
///
/// Dynamic programming over the activated subgraph: `O(gates + edges)` per
/// call, independent of how many non-activated paths are more critical.
///
/// # Errors
///
/// Returns [`StaError::NotAnEndpoint`] if `endpoint` is not a flip-flop.
pub fn longest_activated_path(
    sta: &Sta<'_>,
    endpoint: GateId,
    vcd: &BitSet,
) -> Result<Option<Path>> {
    ActivatedDp::new(sta, vcd).path_to(sta, endpoint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use terse_netlist::builder::NetlistBuilder;
    use terse_netlist::netlist::EndpointClass;
    use terse_sta::delay::DelayLibrary;
    use terse_sta::paths::PathEnumerator;

    /// Diamond: src -> {short: buf, long: inv→inv} -> or -> dst
    /// (exactly two source-to-endpoint paths).
    fn diamond() -> (terse_netlist::Netlist, GateId) {
        let mut b = NetlistBuilder::new(1);
        let src = b.flip_flop("src", EndpointClass::Data, 0).unwrap();
        let short = b.gate(GateKind::Buf, &[src], 0).unwrap();
        let x1 = b.gate(GateKind::Not, &[src], 0).unwrap();
        let x2 = b.gate(GateKind::Not, &[x1], 0).unwrap();
        let or = b.gate(GateKind::Or, &[short, x2], 0).unwrap();
        let dst = b.flip_flop("dst", EndpointClass::Data, 0).unwrap();
        b.connect_ff_input(dst, or).unwrap();
        b.connect_ff_input(src, or).unwrap();
        (b.finish().unwrap(), dst)
    }

    #[test]
    fn longest_activated_matches_restricted_enumeration() {
        let (n, dst) = diamond();
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(&n, &lib);
        // Activate everything.
        let mut vcd = BitSet::new(n.gate_count());
        for g in n.gate_ids() {
            vcd.insert(g.index());
        }
        let fast = longest_activated_path(&sta, dst, &vcd).unwrap().unwrap();
        let slow = PathEnumerator::restricted(&sta, dst, &vcd)
            .unwrap()
            .next()
            .unwrap();
        assert!((fast.delay_nominal(&sta) - slow.delay_nominal(&sta)).abs() < 1e-9);
        // Nothing activated → no path.
        let empty = BitSet::new(n.gate_count());
        assert!(longest_activated_path(&sta, dst, &empty).unwrap().is_none());
    }

    #[test]
    fn non_endpoint_rejected() {
        let (n, dst) = diamond();
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(&n, &lib);
        let driver = n.ff_input(dst).unwrap();
        let vcd = BitSet::new(n.gate_count());
        assert!(longest_activated_path(&sta, driver, &vcd).is_err());
    }
}
