//! Algorithms 1 and 2: stage and instruction dynamic timing slack.

use crate::cache::{CacheKey, DtsCache};
use crate::prescreen::PrunePlan;
use crate::{DtaError, Result};
use rayon::prelude::*;
use std::sync::Arc;
use terse_netlist::signature;
use terse_netlist::{BitSet, EndpointClass, Netlist};
use terse_sim::cosim::CoSimTrace;
use terse_sta::analysis::Sta;
use terse_sta::delay::{DelayLibrary, TimingConstraints};
use terse_sta::paths::{Path, PathEnumerator};
use terse_sta::statmin::statistical_min;
use terse_sta::variation::{VariationConfig, VariationModel};
use terse_sta::CanonicalRv;

/// Which endpoints Algorithm 1 considers (the paper splits the analysis:
/// gate-level characterization on control endpoints, the trained model on
/// data endpoints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EndpointFilter {
    /// Every flip-flop endpoint.
    #[default]
    All,
    /// Control endpoints only (Section 4 control-network characterization).
    Control,
    /// Data endpoints only (datapath model training).
    Data,
}

impl EndpointFilter {
    fn accepts(self, class: EndpointClass) -> bool {
        match self {
            EndpointFilter::All => true,
            EndpointFilter::Control => class == EndpointClass::Control,
            EndpointFilter::Data => class == EndpointClass::Data,
        }
    }
}

/// Activated candidate paths retained per endpoint. Algorithm 1 searches
/// *within* the activated subgraph — finding first the same most-critical
/// activated path the paper's literal path-peeling loop finds, without
/// examining non-activated paths — and keeps this many of the most critical
/// activated paths so the SSTA percentile re-ranking (Section 3's two-pass
/// rule) can pick both the 1st- and 99th-percentile winners.
pub const CANDIDATES: usize = 4;

/// The dynamic-timing-slack engine over one netlist: owns the STA results,
/// the variation model and the operating point.
pub struct DtsEngine<'n> {
    netlist: &'n Netlist,
    sta: Sta<'n>,
    model: VariationModel,
    lib: DelayLibrary,
    t_clk: f64,
    cache: Option<CacheBinding>,
    plan: Option<Arc<PrunePlan>>,
}

/// A memo cache attached to an engine, with the per-stage fan-in cone masks
/// that restrict activation signatures to the bits a stage can observe.
struct CacheBinding {
    cache: Arc<DtsCache>,
    cones: Vec<BitSet>,
}

impl std::fmt::Debug for DtsEngine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DtsEngine")
            .field("t_clk", &self.t_clk)
            .finish()
    }
}

impl<'n> DtsEngine<'n> {
    /// Builds the engine: runs STA, instantiates the variation model.
    ///
    /// # Errors
    ///
    /// Propagates invalid variation configurations.
    pub fn new(
        netlist: &'n Netlist,
        lib: DelayLibrary,
        variation: VariationConfig,
        constraints: TimingConstraints,
    ) -> Result<Self> {
        let sta = Sta::new(netlist, &lib);
        let model = VariationModel::new(netlist, &lib, variation)?;
        Ok(DtsEngine {
            netlist,
            sta,
            model,
            lib,
            t_clk: constraints.clock_period,
            cache: None,
            plan: None,
        })
    }

    /// Attaches a static error-immunity pre-screening plan (see
    /// [`crate::prescreen`]). The plan is consulted by [`Self::inst_dts_for`]
    /// only when its certificates cover this engine's clock period
    /// ([`PrunePlan::applies_at`]); it may be shared across engines over
    /// the same netlist.
    pub fn set_prune_plan(&mut self, plan: Arc<PrunePlan>) {
        self.plan = Some(plan);
    }

    /// The attached pre-screening plan, if any.
    pub fn prune_plan(&self) -> Option<&Arc<PrunePlan>> {
        self.plan.as_ref()
    }

    /// Attaches a stage-DTS memo cache. The cache may be shared across
    /// engines over the *same* netlist (results are keyed on everything an
    /// engine instance can vary: stage, endpoint filter, masked activation
    /// set and clock period); per-stage fan-in cone masks are computed once
    /// here.
    pub fn set_cache(&mut self, cache: Arc<DtsCache>) {
        let cones = self.netlist.stage_cones();
        self.cache = Some(CacheBinding { cache, cones });
    }

    /// The attached memo cache, if any.
    pub fn cache(&self) -> Option<&Arc<DtsCache>> {
        self.cache.as_ref().map(|b| &b.cache)
    }

    /// The netlist under analysis.
    pub fn netlist(&self) -> &'n Netlist {
        self.netlist
    }

    /// The deterministic STA results.
    pub fn sta(&self) -> &Sta<'n> {
        &self.sta
    }

    /// The variation model.
    pub fn variation(&self) -> &VariationModel {
        &self.model
    }

    /// The delay library.
    pub fn library(&self) -> &DelayLibrary {
        &self.lib
    }

    /// The clock period under analysis.
    pub fn clock_period(&self) -> f64 {
        self.t_clk
    }

    /// The Section 3 two-pass percentile ranking for one endpoint: take the
    /// [`CANDIDATES`] most critical activated paths capturing at `e` under
    /// activation set `vcd`, evaluate their slacks in parallel, then keep
    /// the candidates most critical at the 1st and 99th percentiles.
    ///
    /// Returns an empty set for endpoints with no activated path.
    fn endpoint_ap_slacks(
        &self,
        e: terse_netlist::GateId,
        vcd: &BitSet,
    ) -> Result<Vec<CanonicalRv>> {
        let cands: Vec<Path> = PathEnumerator::restricted(&self.sta, e, vcd)?
            .take(CANDIDATES)
            .collect();
        if cands.is_empty() {
            return Ok(Vec::new());
        }
        // Candidate slack evaluation (canonical-form arithmetic over every
        // variation variable) dominates the ranking; fan it out.
        let slacks: Vec<CanonicalRv> = cands
            .par_iter()
            .map(|p| p.slack_rv(&self.model, self.lib.clk_to_q, self.lib.setup, self.t_clk))
            .collect();
        // Two-pass percentile ranking (Section 3): keep the candidate
        // most critical at the 1st percentile and at the 99th.
        let pick = |pct: f64| -> usize {
            // `cands` (hence `slacks`) is non-empty — the empty case returned
            // above — so `min_by` is always `Some`; 0 is never actually used.
            slacks
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.percentile(pct).total_cmp(&b.percentile(pct)))
                .map(|(i, _)| i)
                .unwrap_or(0)
        };
        let lo = pick(0.01);
        let hi = pick(0.99);
        let mut out = vec![slacks[lo].clone()];
        if hi != lo {
            out.push(slacks[hi].clone());
        }
        Ok(out)
    }

    /// **Algorithm 1 (SSTA form)** — `DTS(N, s, t)`: the statistical
    /// minimum of the slacks of the most critical activated paths of stage
    /// `s` under the activation set `vcd` (= `VCD(t)`), over the endpoints
    /// admitted by `filter`. Returns `None` when no admitted endpoint has
    /// an activated path (an idle stage has no DTS that cycle).
    ///
    /// In SSTA the most critical path is ambiguous near ties, so per the
    /// paper the candidate set `AP` is assembled from both a worst-case
    /// (1st-percentile) and a best-case (99th-percentile) ranking before
    /// the statistical min.
    ///
    /// Endpoints are analyzed in parallel; the candidate set is assembled
    /// in endpoint order and reduced by a serial statistical min, so the
    /// result is identical for every thread count.
    ///
    /// # Errors
    ///
    /// Propagates netlist/STA errors (out-of-range stage).
    pub fn stage_dts(
        &self,
        s: usize,
        vcd: &BitSet,
        filter: EndpointFilter,
    ) -> Result<Option<CanonicalRv>> {
        // Memoized front door: a stage's DTS depends on the activation set
        // only through `vcd ∧ cone(s)`, so the masked set (exact) plus its
        // signature (fast, via the shared `terse_netlist::signature`
        // helpers) form a sound cache identity.
        if let Some(binding) = &self.cache {
            if let Some(cone) = binding.cones.get(s) {
                if cone.capacity() == vcd.capacity() {
                    let sig = binding
                        .cache
                        .truncate(signature::masked_toggle_signature(vcd, cone));
                    let masked = vcd.masked(cone);
                    let key = CacheKey {
                        stage: s,
                        filter,
                        t_clk_bits: self.t_clk.to_bits(),
                        signature: sig,
                    };
                    if let Some(dts) = binding.cache.lookup(&key, &masked) {
                        return Ok(dts);
                    }
                    let (ap, dts) = self.stage_dts_uncached(s, vcd, filter)?;
                    binding.cache.store(key, masked, &ap, dts.clone());
                    return Ok(dts);
                }
            }
        }
        Ok(self.stage_dts_uncached(s, vcd, filter)?.1)
    }

    /// The uncached Algorithm 1 body; returns the candidate set `AP` along
    /// with its statistical minimum so the cache can retain both.
    fn stage_dts_uncached(
        &self,
        s: usize,
        vcd: &BitSet,
        filter: EndpointFilter,
    ) -> Result<(Vec<CanonicalRv>, Option<CanonicalRv>)> {
        let endpoints = self
            .netlist
            .endpoints(s)
            .map_err(|e| DtaError::Sim(e.to_string()))?;
        let mut admitted: Vec<terse_netlist::GateId> = Vec::with_capacity(endpoints.len());
        for &e in endpoints {
            let class = self.netlist.endpoint_class(e).ok_or_else(|| {
                DtaError::Sim(format!("stage endpoint {} is not a flip-flop", e.index()))
            })?;
            if filter.accepts(class) {
                admitted.push(e);
            }
        }
        let per_endpoint: Vec<Vec<CanonicalRv>> = admitted
            .par_iter()
            .map(|&e| self.endpoint_ap_slacks(e, vcd))
            .collect::<Result<_>>()?;
        let ap_slacks: Vec<CanonicalRv> = per_endpoint.into_iter().flatten().collect();
        if ap_slacks.is_empty() {
            return Ok((ap_slacks, None));
        }
        let dts = statistical_min(&ap_slacks)?;
        Ok((ap_slacks, Some(dts)))
    }

    /// **Algorithm 2** — `InstDTS(N, t)`: the DTS of the instruction fed at
    /// cycle `k` of a co-simulation trace is
    /// `min_{s} DTS(N, s, k + s)` — the instruction occupies stage `s` at
    /// cycle `k + s` on the ideal in-order pipeline.
    ///
    /// # Errors
    ///
    /// Propagates per-stage errors.
    pub fn inst_dts(
        &self,
        trace: &CoSimTrace,
        k: usize,
        filter: EndpointFilter,
    ) -> Result<Option<CanonicalRv>> {
        self.inst_dts_for(trace, k, filter, None)
    }

    /// [`Self::inst_dts`] with pre-screening: when a [`PrunePlan`] is
    /// attached and its certificates cover this engine's clock period,
    /// `(instruction, stage)` pairs the plan proves immune are skipped and
    /// left out of the statistical min. `program_index` tags the
    /// instruction in the plan's program; pass `None` for traces not built
    /// from that program (restricts proofs to the value-free level).
    ///
    /// # Errors
    ///
    /// Propagates per-stage errors.
    pub fn inst_dts_for(
        &self,
        trace: &CoSimTrace,
        k: usize,
        filter: EndpointFilter,
        program_index: Option<u32>,
    ) -> Result<Option<CanonicalRv>> {
        let plan = self.plan.as_deref().filter(|p| p.applies_at(self.t_clk));
        let mut per_stage: Vec<CanonicalRv> = Vec::with_capacity(self.netlist.stage_count());
        for s in 0..self.netlist.stage_count() {
            let t = k + s;
            if t >= trace.activity.len() {
                break;
            }
            if let Some(p) = plan {
                let immune = p.immune(s, filter, program_index);
                p.record(immune);
                if immune {
                    continue;
                }
            }
            if let Some(dts) = self.stage_dts(s, trace.activity.cycle(t), filter)? {
                per_stage.push(dts);
            }
        }
        if per_stage.is_empty() {
            return Ok(None);
        }
        Ok(Some(statistical_min(&per_stage)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use terse_isa::assemble;
    use terse_netlist::pipeline::{PipelineConfig, PipelineNetlist};
    use terse_sim::cosim::CoSim;
    use terse_sim::machine::Machine;

    fn pipeline() -> PipelineNetlist {
        PipelineNetlist::build(PipelineConfig::default()).unwrap()
    }

    fn engine(p: &PipelineNetlist) -> DtsEngine<'_> {
        engine_scaled(p, 1.0)
    }

    /// An engine overclocked 1.15× like the paper, with the period further
    /// scaled by `scale`.
    fn engine_scaled(p: &PipelineNetlist, scale: f64) -> DtsEngine<'_> {
        let lib = DelayLibrary::normalized_45nm();
        let sta = Sta::new(p.netlist(), &lib);
        let t = sta.min_period() / 1.15 * scale;
        DtsEngine::new(
            p.netlist(),
            lib,
            VariationConfig::default(),
            TimingConstraints::with_period(t),
        )
        .unwrap()
    }

    fn trace(p: &PipelineNetlist, src: &str) -> CoSimTrace {
        let prog = assemble(src).unwrap();
        let mut m = Machine::new(&prog, 64);
        CoSim::run_program(p, &prog, &mut m, 1000).unwrap()
    }

    #[test]
    fn stage_dts_none_when_idle() {
        let p = pipeline();
        let eng = engine(&p);
        let empty = BitSet::new(p.netlist().gate_count());
        for s in 0..6 {
            assert!(eng
                .stage_dts(s, &empty, EndpointFilter::All)
                .unwrap()
                .is_none());
        }
    }

    #[test]
    fn instruction_dts_depends_on_operands() {
        let p = pipeline();
        let eng = engine(&p);
        // Long-carry add vs no-carry add.
        let t_long = trace(&p, "li r1, 0x7FFFFFFF\nli r2, 1\nadd r3, r1, r2\nhalt\n");
        let t_short = trace(&p, "li r1, 0\nli r2, 0\nadd r3, r1, r2\nhalt\n");
        // The add is the 5th fed instruction (index 4) in both.
        let d_long = eng
            .inst_dts(&t_long, 4, EndpointFilter::All)
            .unwrap()
            .expect("active");
        let d_short = eng
            .inst_dts(&t_short, 4, EndpointFilter::All)
            .unwrap()
            .expect("active");
        assert!(
            d_long.mean() < d_short.mean(),
            "long-carry DTS {} should be tighter than {}",
            d_long.mean(),
            d_short.mean()
        );
    }

    #[test]
    fn inst_dts_is_min_over_stages() {
        let p = pipeline();
        let eng = engine(&p);
        let t = trace(&p, "li r1, 0xABCD\nadd r2, r1, r1\nhalt\n");
        let k = 2;
        let inst = eng
            .inst_dts(&t, k, EndpointFilter::All)
            .unwrap()
            .expect("active");
        for s in 0..6 {
            if let Some(stage) = eng
                .stage_dts(s, t.activity.cycle(k + s), EndpointFilter::All)
                .unwrap()
            {
                assert!(
                    inst.mean() <= stage.mean() + 1e-9,
                    "stage {s}: inst {} vs stage {}",
                    inst.mean(),
                    stage.mean()
                );
            }
        }
    }

    #[test]
    fn control_filter_excludes_datapath_criticality() {
        let p = pipeline();
        let eng = engine(&p);
        // A long multiply makes the *data* endpoints critical; control DTS
        // should be looser.
        let t = trace(&p, "li r1, 0xFFFF\nmul r2, r1, r1\nhalt\n");
        let vcd = t.activity.cycle(2 + 3);
        let all = eng
            .stage_dts(3, vcd, EndpointFilter::All)
            .unwrap()
            .expect("active");
        // EX is datapath-dominated; its control endpoints may be entirely
        // idle (None) or, when active, must be no tighter than the overall
        // stage DTS.
        if let Some(ctl) = eng.stage_dts(3, vcd, EndpointFilter::Control).unwrap() {
            assert!(ctl.mean() >= all.mean() - 1e-9)
        }
    }

    fn assert_rv_bitwise_eq(a: &Option<CanonicalRv>, b: &Option<CanonicalRv>, ctx: &str) {
        match (a, b) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.mean().to_bits(), b.mean().to_bits(), "mean {ctx}");
                assert_eq!(a.indep().to_bits(), b.indep().to_bits(), "indep {ctx}");
                let (ca, cb) = (a.coeffs(), b.coeffs());
                assert_eq!(ca.len(), cb.len(), "coeff len {ctx}");
                for (x, y) in ca.iter().zip(cb) {
                    assert_eq!(x.to_bits(), y.to_bits(), "coeff {ctx}");
                }
            }
            _ => panic!("presence mismatch {ctx}: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn cached_stage_dts_is_bitwise_identical() {
        let p = pipeline();
        let t = trace(
            &p,
            "li r1, 0xF0F0\nli r2, 0x0F0F\nadd r3, r1, r2\nxor r4, r3, r1\nhalt\n",
        );
        let plain = engine(&p);
        let mut cached = engine(&p);
        cached.set_cache(Arc::new(crate::cache::DtsCache::new(64)));
        // Sweep twice so the second pass is all warm hits.
        for pass in 0..2 {
            for k in 0..t.activity.len().min(12) {
                for s in 0..p.netlist().stage_count() {
                    let vcd = t.activity.cycle(k);
                    let a = plain.stage_dts(s, vcd, EndpointFilter::All).unwrap();
                    let b = cached.stage_dts(s, vcd, EndpointFilter::All).unwrap();
                    assert_rv_bitwise_eq(&a, &b, &format!("pass {pass} k{k} s{s}"));
                }
            }
        }
        let stats = cached.cache().unwrap().stats();
        assert!(stats.hits > 0, "second pass must hit");
        assert!(stats.misses > 0);
    }

    #[test]
    fn cache_counters_track_hits_and_misses() {
        let p = pipeline();
        let t = trace(&p, "li r1, 3\nadd r2, r1, r1\nhalt\n");
        let mut eng = engine(&p);
        eng.set_cache(Arc::new(crate::cache::DtsCache::new(16)));
        let vcd = t.activity.cycle(3);
        eng.stage_dts(2, vcd, EndpointFilter::All).unwrap();
        let after_first = eng.cache().unwrap().stats();
        assert_eq!((after_first.hits, after_first.misses), (0, 1));
        eng.stage_dts(2, vcd, EndpointFilter::All).unwrap();
        let after_second = eng.cache().unwrap().stats();
        assert_eq!((after_second.hits, after_second.misses), (1, 1));
        assert_eq!(after_second.entries, 1);
        // A different filter is a different key: miss, new entry.
        eng.stage_dts(2, vcd, EndpointFilter::Control).unwrap();
        assert_eq!(eng.cache().unwrap().stats().entries, 2);
    }

    #[test]
    fn cache_keys_on_clock_period() {
        let p = pipeline();
        let t = trace(&p, "li r1, 0xFFFF\nadd r2, r1, r1\nhalt\n");
        // Two engines at different periods share one cache.
        let cache = Arc::new(crate::cache::DtsCache::new(16));
        let mut eng = engine(&p);
        eng.set_cache(Arc::clone(&cache));
        let mut fast = engine_scaled(&p, 0.9);
        fast.set_cache(Arc::clone(&cache));
        let vcd = t.activity.cycle(3);
        let base = eng.stage_dts(2, vcd, EndpointFilter::All).unwrap();
        let faster = fast.stage_dts(2, vcd, EndpointFilter::All).unwrap();
        if let (Some(b), Some(f)) = (&base, &faster) {
            assert!(
                f.mean() < b.mean(),
                "stale cache entry served across periods"
            );
        }
        // The original period must hit the original entry.
        let again = eng.stage_dts(2, vcd, EndpointFilter::All).unwrap();
        assert_rv_bitwise_eq(&base, &again, "period round-trip");
        assert!(eng.cache().unwrap().stats().hits >= 1);
    }

    #[test]
    fn dts_tightens_with_overclocking() {
        let p = pipeline();
        let t = trace(&p, "li r1, 0xFFFFFF\nadd r2, r1, r1\nhalt\n");
        let base = engine(&p)
            .inst_dts(&t, 2, EndpointFilter::All)
            .unwrap()
            .unwrap()
            .mean();
        let tighter = engine_scaled(&p, 0.9)
            .inst_dts(&t, 2, EndpointFilter::All)
            .unwrap()
            .unwrap()
            .mean();
        assert!(tighter < base);
    }
}
