//! The exhaustive gate-level oracle: enumerate *every* path of an endpoint
//! by plain DFS, filter by activation, and reproduce Algorithm 1's candidate
//! ranking and stage DTS from the full path set.
//!
//! This is the computation `terse-sta`'s lazy best-first enumerator, the
//! activated-subgraph DP of [`crate::paths`], and `terse-dta`'s engine all
//! avoid doing — which
//! is exactly what makes it a ground truth to diff them against. Costs are
//! exponential in netlist depth; callers keep netlists small (the [`crate::gen`]
//! generators stay well under twenty gates).

use terse_dta::EndpointFilter;
use terse_netlist::{BitSet, GateId, Netlist};
use terse_sta::analysis::Sta;
use terse_sta::delay::DelayLibrary;
use terse_sta::paths::Path;
use terse_sta::statmin::statistical_min;
use terse_sta::variation::{VariationConfig, VariationModel};
use terse_sta::CanonicalRv;

/// How many of the most critical activated paths the oracle keeps per
/// endpoint before the percentile re-ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidatePolicy {
    /// Every activated path.
    All,
    /// The `k` most critical activated paths — `Top(terse_dta::engine::
    /// CANDIDATES)` is what the engine keeps.
    Top(usize),
}

/// Every path capturing at `endpoint`, enumerated by depth-first search
/// backward from the endpoint's D driver. Order is DFS order (arbitrary
/// with respect to delay); sort by [`Path::delay_nominal`] as needed.
///
/// # Panics
///
/// Panics if `endpoint` is not a connected flip-flop.
pub fn all_paths(netlist: &Netlist, endpoint: GateId) -> Vec<Path> {
    fn dfs(
        n: &Netlist,
        g: GateId,
        suffix: &mut Vec<GateId>,
        endpoint: GateId,
        out: &mut Vec<Path>,
    ) {
        if n.kind(g).is_endpoint() {
            let mut gates = suffix.clone();
            gates.reverse();
            out.push(Path {
                source: g,
                gates,
                endpoint,
            });
            return;
        }
        suffix.push(g);
        for &f in n.fanin(g) {
            dfs(n, f, suffix, endpoint, out);
        }
        suffix.pop();
    }
    let driver = netlist.ff_input(endpoint).expect("endpoint has a D driver");
    let mut out = Vec::new();
    dfs(netlist, driver, &mut Vec::new(), endpoint, &mut out);
    out
}

/// The activated subset of [`all_paths`], sorted by decreasing nominal delay
/// (ties keep DFS order — callers that need tie-free comparisons should
/// check [`has_delay_ties`] first).
pub fn activated_paths(
    netlist: &Netlist,
    sta: &Sta<'_>,
    endpoint: GateId,
    vcd: &BitSet,
) -> Vec<Path> {
    let mut paths: Vec<Path> = all_paths(netlist, endpoint)
        .into_iter()
        .filter(|p| p.is_activated(vcd))
        .collect();
    paths.sort_by(|a, b| b.delay_nominal(sta).total_cmp(&a.delay_nominal(sta)));
    paths
}

/// The delay of the most critical activated path of `endpoint`, if any —
/// the scalar every path search must agree on exactly.
pub fn most_critical_activated_delay(
    netlist: &Netlist,
    sta: &Sta<'_>,
    endpoint: GateId,
    vcd: &BitSet,
) -> Option<f64> {
    all_paths(netlist, endpoint)
        .into_iter()
        .filter(|p| p.is_activated(vcd))
        .map(|p| p.delay_nominal(sta))
        .max_by(f64::total_cmp)
}

/// Whether any two *distinct* activated paths of `endpoint` have nominal
/// delays within `tol` of each other. Near ties make "the most critical
/// path" ambiguous: implementations may legitimately pick different winners
/// with different slack RVs, so exact-agreement differential tests skip
/// tied cases (delay-level comparisons stay valid regardless).
pub fn has_delay_ties(
    netlist: &Netlist,
    sta: &Sta<'_>,
    endpoint: GateId,
    vcd: &BitSet,
    tol: f64,
) -> bool {
    let paths = activated_paths(netlist, sta, endpoint, vcd);
    paths
        .windows(2)
        .any(|w| (w[0].delay_nominal(sta) - w[1].delay_nominal(sta)).abs() < tol)
}

/// The exhaustive reference for Algorithm 1: owns its own STA and variation
/// model (built from the same inputs as the engine under test) and computes
/// stage DTS from the *complete* activated path set of every endpoint.
#[derive(Debug)]
pub struct ExhaustiveOracle<'n> {
    netlist: &'n Netlist,
    sta: Sta<'n>,
    model: VariationModel,
    lib: DelayLibrary,
    t_clk: f64,
}

impl<'n> ExhaustiveOracle<'n> {
    /// Builds the oracle.
    ///
    /// # Panics
    ///
    /// Panics on an invalid variation configuration (generator bug).
    pub fn new(
        netlist: &'n Netlist,
        lib: DelayLibrary,
        variation: VariationConfig,
        t_clk: f64,
    ) -> Self {
        let sta = Sta::new(netlist, &lib);
        let model = VariationModel::new(netlist, &lib, variation).expect("valid variation config");
        ExhaustiveOracle {
            netlist,
            sta,
            model,
            lib,
            t_clk,
        }
    }

    /// The oracle's STA view (for delay-level comparisons).
    pub fn sta(&self) -> &Sta<'n> {
        &self.sta
    }

    /// The oracle's variation model.
    pub fn model(&self) -> &VariationModel {
        &self.model
    }

    /// The slack RV of one path at the oracle's operating point.
    pub fn slack_rv(&self, p: &Path) -> CanonicalRv {
        p.slack_rv(&self.model, self.lib.clk_to_q, self.lib.setup, self.t_clk)
    }

    /// Algorithm 1's per-endpoint `AP` contribution, computed from the full
    /// activated path set: evaluate every candidate's slack RV, then keep
    /// the candidates most critical at the 1st and the 99th percentile (the
    /// Section 3 two-pass rule). Empty when no path is activated.
    pub fn endpoint_ap_slacks(
        &self,
        endpoint: GateId,
        vcd: &BitSet,
        policy: CandidatePolicy,
    ) -> Vec<CanonicalRv> {
        let cands = activated_paths(self.netlist, &self.sta, endpoint, vcd);
        let cands: &[Path] = match policy {
            CandidatePolicy::All => &cands,
            CandidatePolicy::Top(k) => &cands[..cands.len().min(k)],
        };
        if cands.is_empty() {
            return Vec::new();
        }
        let slacks: Vec<CanonicalRv> = cands.iter().map(|p| self.slack_rv(p)).collect();
        let pick = |pct: f64| -> usize {
            slacks
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.percentile(pct).total_cmp(&b.percentile(pct)))
                .map(|(i, _)| i)
                .expect("non-empty candidate set")
        };
        let lo = pick(0.01);
        let hi = pick(0.99);
        let mut out = vec![slacks[lo].clone()];
        if hi != lo {
            out.push(slacks[hi].clone());
        }
        out
    }

    /// The exhaustive stage DTS: assemble `AP` over the admitted endpoints
    /// (in endpoint order, like the engine) and take the statistical min.
    pub fn stage_dts(
        &self,
        s: usize,
        vcd: &BitSet,
        filter: EndpointFilter,
        policy: CandidatePolicy,
    ) -> Option<CanonicalRv> {
        let ap = self.stage_ap_slacks(s, vcd, filter, policy);
        if ap.is_empty() {
            return None;
        }
        Some(statistical_min(&ap).expect("non-empty AP"))
    }

    /// The assembled `AP` slack set of a stage — the exact operand list the
    /// statistical min runs on (exposed so tests can also diff it against
    /// [`crate::statmin::monte_carlo_min`]).
    pub fn stage_ap_slacks(
        &self,
        s: usize,
        vcd: &BitSet,
        filter: EndpointFilter,
        policy: CandidatePolicy,
    ) -> Vec<CanonicalRv> {
        let endpoints = self.netlist.endpoints(s).expect("stage in range");
        let mut ap = Vec::new();
        for &e in endpoints {
            let class = self
                .netlist
                .endpoint_class(e)
                .expect("stage endpoints are flip-flops");
            let admitted = match filter {
                EndpointFilter::All => true,
                EndpointFilter::Control => class == terse_netlist::EndpointClass::Control,
                EndpointFilter::Data => class == terse_netlist::EndpointClass::Data,
            };
            if admitted {
                ap.extend(self.endpoint_ap_slacks(e, vcd, policy));
            }
        }
        ap
    }

    /// Whether any admitted endpoint of stage `s` has near-tied activated
    /// path delays (see [`has_delay_ties`]).
    pub fn stage_has_ties(&self, s: usize, vcd: &BitSet, tol: f64) -> bool {
        self.netlist
            .endpoints(s)
            .expect("stage in range")
            .iter()
            .any(|&e| has_delay_ties(self.netlist, &self.sta, e, vcd, tol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn all_paths_counts_fanin_products() {
        // A two-level diamond has exactly fanin-product many paths.
        let n = gen::random_netlist(3, 8);
        let e = n.endpoints(0).unwrap()[2]; // a capture FF
        let paths = all_paths(&n, e);
        assert!(!paths.is_empty());
        // Every enumerated path ends at the endpoint's driver and starts at
        // an endpoint gate.
        let driver = n.ff_input(e).unwrap();
        for p in &paths {
            assert!(n.kind(p.source).is_endpoint());
            if let Some(&last) = p.gates.last() {
                assert_eq!(last, driver);
            } else {
                assert_eq!(p.source, driver);
            }
        }
    }

    #[test]
    fn full_activation_matches_static_sta() {
        let n = gen::random_netlist(11, 12);
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(&n, &lib);
        let mut vcd = BitSet::new(n.gate_count());
        for g in n.gate_ids() {
            vcd.insert(g.index());
        }
        for &e in n.endpoints(0).unwrap() {
            let brute = most_critical_activated_delay(&n, &sta, e, &vcd).unwrap();
            let block = sta.endpoint_arrival(e).unwrap();
            assert!((brute - block).abs() < 1e-9, "brute {brute} vs STA {block}");
        }
    }

    #[test]
    fn empty_activation_has_no_paths() {
        let n = gen::random_netlist(5, 6);
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(&n, &lib);
        let vcd = BitSet::new(n.gate_count());
        for &e in n.endpoints(0).unwrap() {
            assert!(most_critical_activated_delay(&n, &sta, e, &vcd).is_none());
            assert!(activated_paths(&n, &sta, e, &vcd).is_empty());
        }
    }
}
