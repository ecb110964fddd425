//! Block-based timing analysis: arrival times, endpoint slacks, critical
//! stages — in both deterministic (STA) and statistical (SSTA) modes.

use crate::canonical::CanonicalRv;
use crate::delay::DelayLibrary;
use crate::variation::VariationModel;
use crate::{Result, StaError};
use terse_netlist::{GateId, GateKind, Netlist, Tri};

/// Deterministic static timing analysis of a netlist.
///
/// Arrival times are longest-path delays from any launching endpoint
/// (flip-flop Q / primary input, which contribute the clock-to-Q delay) to
/// each gate output; an endpoint's *data arrival* is the arrival at its D
/// driver, and its slack under period `T` is `T − arrival − t_setup`.
#[derive(Debug, Clone)]
pub struct Sta<'n> {
    netlist: &'n Netlist,
    delays: Vec<f64>,
    arrival: Vec<f64>,
    clk_to_q: f64,
    setup: f64,
}

impl<'n> Sta<'n> {
    /// Runs STA over the netlist with the given delay library.
    pub fn new(netlist: &'n Netlist, lib: &DelayLibrary) -> Self {
        let delays = lib.annotate(netlist);
        let mut arrival = vec![0.0f64; netlist.gate_count()];
        for g in netlist.gate_ids() {
            match netlist.kind(g) {
                GateKind::FlipFlop | GateKind::Input => arrival[g.index()] = lib.clk_to_q,
                GateKind::Tie(_) => arrival[g.index()] = 0.0,
                _ => {}
            }
        }
        for &g in netlist.topo_order() {
            let gi = g.index();
            let max_in = netlist
                .fanin(g)
                .iter()
                .map(|f| arrival[f.index()])
                .fold(0.0f64, f64::max);
            arrival[gi] = max_in + delays[gi];
        }
        Sta {
            netlist,
            delays,
            arrival,
            clk_to_q: lib.clk_to_q,
            setup: lib.setup,
        }
    }

    /// The analyzed netlist.
    pub fn netlist(&self) -> &'n Netlist {
        self.netlist
    }

    /// Nominal delay of a gate.
    pub fn delay(&self, g: GateId) -> f64 {
        self.delays[g.index()]
    }

    /// All annotated nominal delays (indexed by gate id).
    pub fn delays(&self) -> &[f64] {
        &self.delays
    }

    /// Clock-to-Q delay used at path sources.
    pub fn clk_to_q(&self) -> f64 {
        self.clk_to_q
    }

    /// Setup time used at path endpoints.
    pub fn setup(&self) -> f64 {
        self.setup
    }

    /// Longest arrival time at a gate's output.
    pub fn arrival(&self, g: GateId) -> f64 {
        self.arrival[g.index()]
    }

    /// Data arrival at an endpoint (arrival at its D driver plus setup).
    ///
    /// # Errors
    ///
    /// Returns [`StaError::NotAnEndpoint`] if `e` is not a flip-flop.
    pub fn endpoint_arrival(&self, e: GateId) -> Result<f64> {
        let d = self
            .netlist
            .ff_input(e)
            .map_err(|_| StaError::NotAnEndpoint {
                id: e.index() as u32,
            })?;
        Ok(self.arrival[d.index()] + self.setup)
    }

    /// Slack of an endpoint under clock period `t_clk`.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::NotAnEndpoint`] if `e` is not a flip-flop.
    pub fn endpoint_slack(&self, e: GateId, t_clk: f64) -> Result<f64> {
        Ok(t_clk - self.endpoint_arrival(e)?)
    }

    /// Longest-path arrivals restricted to gates that can actually
    /// toggle.
    ///
    /// `vals[g]` is a sound three-valued abstraction of the values gate
    /// `g` can carry on every cycle under consideration (see
    /// `terse_netlist::consts::stable_values`). A gate whose value is a
    /// known constant neither launches nor propagates a transition, so
    /// every path through it is timing-dead; a `Mux` whose select is a
    /// known constant propagates transitions only from the selected
    /// branch (and the select itself), even though its output varies.
    /// The returned per-gate arrival is `f64::NEG_INFINITY` for wires
    /// that can never carry a transition: constant gates, `Tie`
    /// constants, and combinational gates whose entire live fanin is
    /// dead. An endpoint whose D driver reports `NEG_INFINITY` is
    /// immune at *any* clock period; finite values upper-bound the
    /// nominal delay of every *activatable* path, which is the bound
    /// the DTA pre-screen certificates scale.
    pub fn masked_arrival(&self, vals: &[Tri]) -> Vec<f64> {
        let nl = self.netlist;
        let quiet =
            |gi: usize| -> bool { vals.get(gi).copied().unwrap_or(Tri::Unknown).is_known() };
        let mut arr = vec![f64::NEG_INFINITY; nl.gate_count()];
        for g in nl.gate_ids() {
            let gi = g.index();
            if quiet(gi) {
                continue;
            }
            match nl.kind(g) {
                GateKind::FlipFlop | GateKind::Input => arr[gi] = self.clk_to_q,
                // A tie never transitions regardless of masking.
                GateKind::Tie(_) => {}
                _ => {}
            }
        }
        for &g in nl.topo_order() {
            let gi = g.index();
            if quiet(gi)
                || matches!(
                    nl.kind(g),
                    GateKind::FlipFlop | GateKind::Input | GateKind::Tie(_)
                )
            {
                continue;
            }
            let fanin = nl.fanin(g);
            // fanin of a Mux = [sel, a, b], output = sel ? b : a. With
            // a constant select only the chosen branch can drive an
            // output transition; the constant select's own arrival is
            // already NEG_INFINITY.
            let max_in = match nl.kind(g) {
                GateKind::Mux => {
                    let chosen = match vals.get(fanin[0].index()).copied() {
                        Some(Tri::Zero) => arr[fanin[1].index()],
                        Some(Tri::One) => arr[fanin[2].index()],
                        _ => f64::max(arr[fanin[1].index()], arr[fanin[2].index()]),
                    };
                    f64::max(arr[fanin[0].index()], chosen)
                }
                _ => fanin
                    .iter()
                    .map(|f| arr[f.index()])
                    .fold(f64::NEG_INFINITY, f64::max),
            };
            // No live fanin -> the gate output cannot toggle either.
            arr[gi] = if max_in == f64::NEG_INFINITY {
                f64::NEG_INFINITY
            } else {
                max_in + self.delays[gi]
            };
        }
        arr
    }

    /// Data arrival at an endpoint under a quiet-gate mask: the masked
    /// arrival at its D driver plus setup, or `NEG_INFINITY` when no
    /// transition can ever reach the endpoint.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::NotAnEndpoint`] if `e` is not a flip-flop.
    pub fn masked_endpoint_arrival(&self, e: GateId, masked: &[f64]) -> Result<f64> {
        let d = self
            .netlist
            .ff_input(e)
            .map_err(|_| StaError::NotAnEndpoint {
                id: e.index() as u32,
            })?;
        let a = masked[d.index()];
        if a == f64::NEG_INFINITY {
            Ok(f64::NEG_INFINITY)
        } else {
            Ok(a + self.setup)
        }
    }

    /// The worst (largest) data arrival over all endpoints of a stage —
    /// the stage's critical-path delay.
    ///
    /// # Panics
    ///
    /// Panics if the stage has no endpoints (valid pipeline netlists always
    /// have some).
    // Invariant: `Netlist::validate` guarantees in-range stages have
    // flip-flop endpoints, so both expects are unreachable post-validation.
    #[allow(clippy::expect_used)]
    pub fn stage_critical_delay(&self, stage: usize) -> f64 {
        self.netlist
            .endpoints(stage)
            .expect("stage in range")
            .iter()
            .map(|&e| self.endpoint_arrival(e).expect("endpoint"))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Index of the stage with the largest critical-path delay.
    // Invariant: validated netlists have ≥ 1 stage, so `max_by` is `Some`.
    #[allow(clippy::expect_used)]
    pub fn critical_stage(&self) -> usize {
        (0..self.netlist.stage_count())
            .max_by(|&a, &b| {
                self.stage_critical_delay(a)
                    .total_cmp(&self.stage_critical_delay(b))
            })
            .expect("netlists have at least one stage")
    }

    /// The minimum clock period at which every endpoint meets timing — the
    /// period PrimeTime-style STA would sign off.
    pub fn min_period(&self) -> f64 {
        (0..self.netlist.stage_count())
            .map(|s| self.stage_critical_delay(s))
            .fold(0.0f64, f64::max)
    }
}

/// Statistical (SSTA) block-based analysis: arrivals in canonical form,
/// statistical-max at reconvergence.
#[derive(Debug, Clone)]
pub struct StatisticalSta<'n> {
    netlist: &'n Netlist,
    arrival: Vec<CanonicalRv>,
    setup: f64,
}

impl<'n> StatisticalSta<'n> {
    /// Runs SSTA using a variation model (which embeds the delay library's
    /// nominal values).
    pub fn new(netlist: &'n Netlist, lib: &DelayLibrary, model: &VariationModel) -> Self {
        let mut arrival: Vec<CanonicalRv> =
            (0..netlist.gate_count()).map(|_| model.zero()).collect();
        for g in netlist.gate_ids() {
            match netlist.kind(g) {
                GateKind::FlipFlop | GateKind::Input => {
                    arrival[g.index()] = model.constant(lib.clk_to_q);
                }
                _ => {}
            }
        }
        for &g in netlist.topo_order() {
            let gi = g.index();
            let fanin = netlist.fanin(g);
            let mut acc: Option<CanonicalRv> = None;
            for f in fanin {
                let a = &arrival[f.index()];
                acc = Some(match acc {
                    None => a.clone(),
                    Some(cur) => cur.stat_max(a).0,
                });
            }
            let mut a = acc.unwrap_or_else(|| model.zero());
            a.add_assign(model.gate_delay(g));
            arrival[gi] = a;
        }
        StatisticalSta {
            netlist,
            arrival,
            setup: lib.setup,
        }
    }

    /// Statistical arrival at a gate output.
    pub fn arrival(&self, g: GateId) -> &CanonicalRv {
        &self.arrival[g.index()]
    }

    /// Statistical data arrival (incl. setup) at an endpoint.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::NotAnEndpoint`] if `e` is not a flip-flop.
    pub fn endpoint_arrival(&self, e: GateId) -> Result<CanonicalRv> {
        let d = self
            .netlist
            .ff_input(e)
            .map_err(|_| StaError::NotAnEndpoint {
                id: e.index() as u32,
            })?;
        Ok(self.arrival[d.index()].add_scalar(self.setup))
    }

    /// Statistical slack of an endpoint under period `t_clk`.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::NotAnEndpoint`] if `e` is not a flip-flop.
    pub fn endpoint_slack(&self, e: GateId, t_clk: f64) -> Result<CanonicalRv> {
        Ok(self.endpoint_arrival(e)?.negate().add_scalar(t_clk))
    }

    /// The statistical critical-path delay of a stage (statistical max over
    /// its endpoints' arrivals).
    ///
    /// # Panics
    ///
    /// Panics if the stage has no endpoints.
    // Invariant: `Netlist::validate` guarantees in-range stages have
    // flip-flop endpoints, so the accumulator is always populated.
    #[allow(clippy::expect_used)]
    pub fn stage_critical_delay(&self, stage: usize) -> CanonicalRv {
        let mut acc: Option<CanonicalRv> = None;
        for &e in self.netlist.endpoints(stage).expect("stage in range") {
            let a = self.endpoint_arrival(e).expect("endpoint");
            acc = Some(match acc {
                None => a,
                Some(cur) => cur.stat_max(&a).0,
            });
        }
        acc.expect("stage has endpoints")
    }

    /// The period at which the whole design meets timing with probability
    /// `yield_target` — the SSTA sign-off period (the paper signs off at
    /// the 0.99-ish percentile with guardbands).
    // Invariant: validated netlists have ≥ 1 stage, so the accumulator is
    // always populated.
    #[allow(clippy::expect_used)]
    pub fn period_at_yield(&self, yield_target: f64) -> f64 {
        let mut acc: Option<CanonicalRv> = None;
        for s in 0..self.netlist.stage_count() {
            let d = self.stage_critical_delay(s);
            acc = Some(match acc {
                None => d,
                Some(cur) => cur.stat_max(&d).0,
            });
        }
        acc.expect("stages exist").percentile(yield_target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variation::VariationConfig;
    use terse_netlist::builder::NetlistBuilder;
    use terse_netlist::netlist::EndpointClass;
    use terse_netlist::pipeline::{PipelineConfig, PipelineNetlist};

    /// src_ff -> inv -> and(inv, src_ff) -> dst_ff  (2 levels of logic)
    fn chain() -> terse_netlist::Netlist {
        let mut b = NetlistBuilder::new(1);
        let src = b.flip_flop("src", EndpointClass::Data, 0).unwrap();
        let inv = b.gate(GateKind::Not, &[src], 0).unwrap();
        let and = b.gate(GateKind::And, &[inv, src], 0).unwrap();
        let dst = b.flip_flop("dst", EndpointClass::Data, 0).unwrap();
        b.connect_ff_input(dst, and).unwrap();
        b.connect_ff_input(src, and).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn arrival_times_hand_computed() {
        let n = chain();
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(&n, &lib);
        let inv = n.bus("src").map(|_| ()).ok().and(None::<GateId>);
        let _ = inv;
        let src = n.bus("src").unwrap()[0];
        let dst = n.bus("dst").unwrap()[0];
        // src drives inv and and (fanout 2 -> inv has load 0 extra? src's
        // fanout is 2 but FF delay is 0; inv fanout 1).
        // arrival(inv) = clk_to_q + 8; arrival(and) = max(arr(inv), clk2q) + and_delay.
        let and = n.ff_input(dst).unwrap();
        let and_delay = sta.delay(and);
        // `and` drives two FFs → fanout 2 → 14 + 1.5.
        assert!((and_delay - 15.5).abs() < 1e-12);
        let want_arr_and = (45.0 + 8.0) + 15.5;
        assert!((sta.arrival(and) - want_arr_and).abs() < 1e-12);
        let want_ep = want_arr_and + 25.0;
        assert!((sta.endpoint_arrival(dst).unwrap() - want_ep).abs() < 1e-12);
        assert!((sta.endpoint_arrival(src).unwrap() - want_ep).abs() < 1e-12);
        // Slack at T = 100: 100 − 93.5 = 6.5.
        assert!((sta.endpoint_slack(dst, 100.0).unwrap() - (100.0 - want_ep)).abs() < 1e-12);
        assert!((sta.min_period() - want_ep).abs() < 1e-12);
    }

    #[test]
    fn non_endpoint_rejected() {
        let n = chain();
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(&n, &lib);
        let dst = n.bus("dst").unwrap()[0];
        let and = n.ff_input(dst).unwrap();
        assert!(sta.endpoint_arrival(and).is_err());
    }

    #[test]
    fn masked_arrival_all_unknown_matches_plain_sta() {
        let n = chain();
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(&n, &lib);
        let vals = vec![Tri::Unknown; n.gate_count()];
        let masked = sta.masked_arrival(&vals);
        let dst = n.bus("dst").unwrap()[0];
        let got = sta.masked_endpoint_arrival(dst, &masked).unwrap();
        assert!((got - sta.endpoint_arrival(dst).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn masked_arrival_drops_constant_cones_and_dead_mux_branches() {
        // sel, a: primary inputs; deep = Not(Not(Not(a))); ff captures
        // mux(sel, a, deep) = sel ? deep : a.
        let mut b = NetlistBuilder::new(1);
        let sel = b.input("sel", 0).unwrap();
        let a = b.input("a", 0).unwrap();
        let mut deep = a;
        for _ in 0..3 {
            deep = b.gate(GateKind::Not, &[deep], 0).unwrap();
        }
        let m = b.gate(GateKind::Mux, &[sel, a, deep], 0).unwrap();
        let ff = b.flip_flop("q", EndpointClass::Data, 0).unwrap();
        b.connect_ff_input(ff, m).unwrap();
        let n = b.finish().unwrap();
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(&n, &lib);

        // Unknown select: the deep branch dominates the masked arrival.
        let free = sta.masked_arrival(&vec![Tri::Unknown; n.gate_count()]);
        let ep_free = sta.masked_endpoint_arrival(ff, &free).unwrap();
        assert!((ep_free - sta.endpoint_arrival(ff).unwrap()).abs() < 1e-12);

        // Constant-zero select: only the shallow branch can propagate a
        // transition, even though the mux output still varies with `a`.
        let mut c = vec![None; n.gate_count()];
        c[sel.index()] = Some(Tri::Zero);
        let vals = terse_netlist::stable_values(&n, &c);
        assert_eq!(vals[m.index()], Tri::Unknown, "output still varies");
        let masked = sta.masked_arrival(&vals);
        let ep_masked = sta.masked_endpoint_arrival(ff, &masked).unwrap();
        assert!(
            ep_masked < ep_free,
            "dead branch must be pruned: {ep_masked} vs {ep_free}"
        );

        // Constant input upstream of everything: nothing toggles, so no
        // transition ever reaches the endpoint.
        let mut c2 = vec![None; n.gate_count()];
        c2[sel.index()] = Some(Tri::Zero);
        c2[a.index()] = Some(Tri::Zero);
        let vals2 = terse_netlist::stable_values(&n, &c2);
        let masked2 = sta.masked_arrival(&vals2);
        assert_eq!(
            sta.masked_endpoint_arrival(ff, &masked2).unwrap(),
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn pipeline_critical_stage_is_ex_or_id() {
        // At the full 32-bit width the EX adder dominates; in the narrow
        // test pipeline the ID qualifier chains (whose depth scales slower
        // than the datapath) can take over. Either way the critical stage
        // is one of the two deep ones.
        let p = PipelineNetlist::build(PipelineConfig::small()).unwrap();
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(p.netlist(), &lib);
        assert!(matches!(sta.critical_stage(), 1 | 3));
        assert!(sta.min_period() > 0.0);
        // The default-width pipeline is EX-critical.
        let full = PipelineNetlist::build(PipelineConfig::default()).unwrap();
        let sta_full = Sta::new(full.netlist(), &lib);
        assert_eq!(sta_full.critical_stage(), 3);
    }

    #[test]
    fn ssta_mean_tracks_sta_and_adds_spread() {
        let p = PipelineNetlist::build(PipelineConfig::small()).unwrap();
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(p.netlist(), &lib);
        let model = VariationModel::new(p.netlist(), &lib, VariationConfig::default()).unwrap();
        let ssta = StatisticalSta::new(p.netlist(), &lib, &model);
        let det = sta.stage_critical_delay(3);
        let stat = ssta.stage_critical_delay(3);
        // Statistical mean ≥ deterministic (max of RVs exceeds max of means)
        // but within a few sigma.
        assert!(stat.mean() >= det - 1e-9, "{} vs {det}", stat.mean());
        assert!(stat.mean() < det * 1.10);
        assert!(stat.sd() > 0.0);
        // Sign-off at 99% exceeds the mean.
        let p99 = ssta.period_at_yield(0.99);
        assert!(p99 > stat.mean());
    }

    #[test]
    fn ssta_with_disabled_variation_equals_sta() {
        let p = PipelineNetlist::build(PipelineConfig::small()).unwrap();
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(p.netlist(), &lib);
        let model = VariationModel::new(p.netlist(), &lib, VariationConfig::disabled()).unwrap();
        let ssta = StatisticalSta::new(p.netlist(), &lib, &model);
        for s in 0..6 {
            let det = sta.stage_critical_delay(s);
            let stat = ssta.stage_critical_delay(s);
            assert!(
                (stat.mean() - det).abs() < 1e-9,
                "stage {s}: {} vs {det}",
                stat.mean()
            );
            assert_eq!(stat.sd(), 0.0);
        }
    }

    #[test]
    fn slack_decreases_with_frequency() {
        let p = PipelineNetlist::build(PipelineConfig::small()).unwrap();
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(p.netlist(), &lib);
        let e = p.netlist().endpoints(3).unwrap()[0];
        let s1 = sta.endpoint_slack(e, 800.0).unwrap();
        let s2 = sta.endpoint_slack(e, 700.0).unwrap();
        assert!(s2 < s1);
        assert!((s1 - s2 - 100.0).abs() < 1e-12);
    }
}
