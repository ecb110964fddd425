//! The end-to-end estimation framework.
//!
//! [`Framework`] owns the synthetic pipeline and the analysis configuration;
//! [`Framework::run`] executes the paper's full flow on a [`Workload`]:
//!
//! 1. **Simulation** — profile the program once per input draw (block
//!    executions `e_i`, edge activations, per-instruction features in the
//!    normal and post-correction previous states).
//! 2. **Training** — characterize the control network per (block, edge) at
//!    gate level, and train the datapath timing model (cached across
//!    workloads; it depends only on the pipeline and operating point).
//! 3. **Estimation** — conditional probabilities `p^c`/`p^e` per static
//!    instruction per input draw; marginals via Tarjan + per-SCC linear
//!    systems (Eqs. 1–2); λ (Eq. 10); the Stein and Chen–Stein bounds
//!    (Eqs. 7–9, 11–13); and the Eq. 14 mixture CDF with bound envelopes.

//! # Parallel execution & reproducibility
//!
//! Every hot loop here — per-sample profiling, per-chip sampling, the
//! per-block conditional-probability sweep in [`Framework::estimate`] — fans
//! out with `rayon` under a scoped thread pool whose size is set by
//! [`FrameworkBuilder::threads`] (`0` = machine default). Results are
//! bitwise identical for every thread count: each parallel unit owns a
//! counter-based RNG stream (`Xoshiro256::seed_stream`) keyed by its index,
//! outputs are placed by index, and floating-point reductions fold in index
//! order.

use crate::checkpoint::{self, BlockProbs, EstimateImage};
use crate::operating::{OperatingConfig, OperatingPoint};
use crate::perf::TsPerformanceModel;
use crate::report::{ErrorRateEstimate, Report, RunTimings};
use crate::{Result, TerseError};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use terse_analyze::{analyze_cfg, analyze_netlist, analyze_stage_slacks, AnalysisReport};
use terse_dta::cache::{DtsCache, DtsCacheStats};
use terse_dta::control::{characterize_control_with, training_inputs};
use terse_dta::datapath::DatapathModel;
use terse_dta::engine::DtsEngine;
use terse_dta::instmodel::InstructionErrorModel;
use terse_dta::prescreen::{build_plan, PrescreenStats, PrunePlan};
use terse_errmodel::marginal::{solve_marginals, MarginalProblem};
use terse_isa::{assemble, BasicBlock, BlockId, Cfg, Program};
use terse_netlist::pipeline::{PipelineConfig, PipelineNetlist};
use terse_sim::correction::CorrectionScheme;
use terse_sim::cosim::CosimStats;
use terse_sim::features::InstFeatures;
use terse_sim::machine::Machine;
use terse_sim::profile::{ProfileResult, Profiler};
use terse_sim::sweep::{Checkpoint, Sweep};
use terse_sta::delay::{DelayLibrary, TimingConstraints};
use terse_sta::variation::{ChipSample, VariationConfig, VariationModel};
use terse_stats::kahan::KahanSum;
use terse_stats::stein::{
    chen_stein_program_bound, stein_normal_bound, BlockChain, CentralMoments,
};
use terse_stats::{Normal, PoissonNormalMixture, SampleRv};

/// A program plus its input datasets (the data-variation dimension).
/// An input-dataset initializer (runs before execution, typically writing
/// the data memory).
pub type InputInit = Box<dyn Fn(&mut Machine) + Send + Sync>;

/// A program plus its input datasets (the data-variation dimension) and an
/// optional dynamic-instruction scaling target.
pub struct Workload {
    name: String,
    program: Program,
    inputs: Vec<InputInit>,
    target_instructions: Option<u64>,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("instructions", &self.program.len())
            .field("inputs", &self.inputs.len())
            .field("target_instructions", &self.target_instructions)
            .finish()
    }
}

impl Workload {
    /// A workload from an assembled program with a single (embedded) input.
    pub fn new(name: impl Into<String>, program: Program) -> Self {
        Workload {
            name: name.into(),
            program,
            inputs: Vec::new(),
            target_instructions: None,
        }
    }

    /// Assembles source text into a workload.
    ///
    /// # Errors
    ///
    /// Propagates assembler errors.
    pub fn from_asm(name: impl Into<String>, src: &str) -> Result<Self> {
        Ok(Workload::new(name, assemble(src)?))
    }

    /// Adds an input-dataset initializer (run before execution; typically
    /// writes the data memory).
    pub fn push_input(&mut self, init: impl Fn(&mut Machine) + Send + Sync + 'static) {
        self.inputs.push(Box::new(init));
    }

    /// Builder-style input addition.
    pub fn with_input(mut self, init: impl Fn(&mut Machine) + Send + Sync + 'static) -> Self {
        self.push_input(init);
        self
    }

    /// Scales the estimate to this many dynamic instructions (the paper's
    /// Table 2 instruction counts) instead of the simulated count.
    pub fn with_target_instructions(mut self, n: u64) -> Self {
        self.target_instructions = Some(n);
        self
    }

    /// The workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Number of explicit input datasets (0 = the embedded data segment
    /// only).
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// The scaling target, if any.
    pub fn target_instructions(&self) -> Option<u64> {
        self.target_instructions
    }

    /// Applies input `idx` (modulo the available inputs) to a machine.
    pub fn init_input(&self, idx: usize, machine: &mut Machine) {
        if !self.inputs.is_empty() {
            (self.inputs[idx % self.inputs.len()])(machine);
        }
    }
}

/// Builder for [`Framework`].
#[derive(Debug, Clone)]
pub struct FrameworkBuilder {
    pipeline: PipelineConfig,
    variation: VariationConfig,
    operating: OperatingConfig,
    samples: usize,
    profiler: Profiler,
    threads: usize,
    dta_cache_entries: usize,
}

impl Default for FrameworkBuilder {
    fn default() -> Self {
        FrameworkBuilder {
            pipeline: PipelineConfig::default(),
            variation: VariationConfig::default(),
            // The calibrated overclock puts error rates in the paper's
            // 0.1–1 % band on the synthetic pipeline (see
            // `OperatingConfig::calibrated`).
            operating: OperatingConfig::calibrated(),
            samples: 8,
            profiler: Profiler::default(),
            threads: 0,
            // The stage-DTS memo is exact (bit-verified toggle sets), so it
            // is on by default; see `FrameworkBuilder::dta_cache`.
            dta_cache_entries: 1024,
        }
    }
}

impl FrameworkBuilder {
    /// Sets the pipeline configuration.
    pub fn pipeline(mut self, cfg: PipelineConfig) -> Self {
        self.pipeline = cfg;
        self
    }

    /// Sets the process-variation configuration.
    pub fn variation(mut self, cfg: VariationConfig) -> Self {
        self.variation = cfg;
        self
    }

    /// Sets the operating-point derivation parameters.
    pub fn operating(mut self, cfg: OperatingConfig) -> Self {
        self.operating = cfg;
        self
    }

    /// Sets the number of data-variation sample slots (input draws).
    pub fn samples(mut self, n: usize) -> Self {
        self.samples = n.max(1);
        self
    }

    /// Sets the profiler configuration (budget, memory, reservoir size).
    pub fn profiler(mut self, profiler: Profiler) -> Self {
        self.profiler = profiler;
        self
    }

    /// Sets the worker-thread count for the framework's parallel phases
    /// (`0` = the machine's available parallelism). Thread count never
    /// changes results — see the module docs.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Sets the capacity (entries) of the shared stage-DTS memo cache
    /// attached to every [`Framework::engine`] — `0` disables caching.
    ///
    /// The cache memoizes Algorithm 1's per-stage result keyed on the
    /// stage's *masked activation signature* and verifies hits bit-for-bit
    /// against the stored toggle set, so results are bitwise identical with
    /// the cache on or off at any capacity; only wall-clock changes.
    pub fn dta_cache(mut self, entries: usize) -> Self {
        self.dta_cache_entries = entries;
        self
    }

    /// Builds the framework (constructs the pipeline netlist and derives
    /// the operating point).
    ///
    /// # Errors
    ///
    /// Propagates netlist construction and operating-point errors.
    pub fn build(self) -> Result<Framework> {
        let pipeline = PipelineNetlist::build(self.pipeline)?;
        let lib = DelayLibrary::normalized_45nm();
        let operating =
            OperatingPoint::derive(pipeline.netlist(), &lib, self.variation, self.operating)?;
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(self.threads)
            .build()
            .map_err(|e| TerseError::Config(format!("thread pool: {e}")))?;
        Ok(Framework {
            pipeline,
            lib,
            variation: self.variation,
            operating,
            samples: self.samples,
            profiler: self.profiler,
            threads: self.threads,
            dts_cache: (self.dta_cache_entries > 0)
                .then(|| Arc::new(DtsCache::new(self.dta_cache_entries))),
            pool,
            datapath_cache: OnceLock::new(),
            cosim_stats: Mutex::new(CosimStats::default()),
            prescreen_stats: Mutex::new(PrescreenStats::default()),
        })
    }
}

/// The estimation framework: pipeline + configuration + trained caches.
#[derive(Debug)]
pub struct Framework {
    pipeline: PipelineNetlist,
    lib: DelayLibrary,
    variation: VariationConfig,
    operating: OperatingPoint,
    samples: usize,
    profiler: Profiler,
    threads: usize,
    /// Shared stage-DTS memo, attached to every engine this framework
    /// hands out (`None` = caching disabled).
    dts_cache: Option<Arc<DtsCache>>,
    pool: rayon::ThreadPool,
    datapath_cache: OnceLock<DatapathModel>,
    /// Accumulated co-simulation work counters across every training run
    /// this framework has performed.
    cosim_stats: Mutex<CosimStats>,
    /// Pre-screening pair counters accumulated across every training run.
    prescreen_stats: Mutex<PrescreenStats>,
}

impl Framework {
    /// Starts a builder with the paper's defaults.
    pub fn builder() -> FrameworkBuilder {
        FrameworkBuilder::default()
    }

    /// The synthetic pipeline.
    pub fn pipeline(&self) -> &PipelineNetlist {
        &self.pipeline
    }

    /// The derived operating point.
    pub fn operating_point(&self) -> &OperatingPoint {
        &self.operating
    }

    /// The correction scheme: the paper's replay at half frequency.
    pub fn correction(&self) -> CorrectionScheme {
        CorrectionScheme::paper_default()
    }

    /// Number of data-variation samples per run.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// The configured worker-thread count (`0` = machine default).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Static analysis of every input IR this run would consume: the
    /// pipeline netlist (structure), the workload's CFG (partition,
    /// leaders, edges, reachability), and the per-stage endpoint slack
    /// RVs at the working period (finiteness, basis, variance, and the
    /// static DTS interval bound). Returns the full report; [`run`]
    /// consults it and refuses to start when the report contains errors.
    ///
    /// [`run`]: Framework::run
    ///
    /// # Errors
    ///
    /// Propagates construction failures of the variation model or the
    /// statistical timing engine (not analysis findings — those are
    /// returned inside the report).
    pub fn preflight(&self, w: &Workload) -> Result<AnalysisReport> {
        let netlist = self.pipeline.netlist();
        let mut report = AnalysisReport::new();
        analyze_netlist(netlist, &mut report);
        let cfg = Cfg::from_program(w.program());
        analyze_cfg(w.program(), &cfg, &mut report);
        analyze_stage_slacks(
            netlist,
            &self.lib,
            self.variation,
            self.operating.working_period,
            &mut report,
        )?;
        Ok(report)
    }

    /// Runs the netlist structural passes over an arbitrary netlist and
    /// returns the report if it holds no errors.
    ///
    /// # Errors
    ///
    /// [`TerseError::Preflight`] if the report contains errors.
    pub fn preflight_netlist(netlist: &terse_netlist::Netlist) -> Result<AnalysisReport> {
        let mut report = AnalysisReport::new();
        analyze_netlist(netlist, &mut report);
        if report.has_errors() {
            return Err(TerseError::Preflight(preflight_message(&report)));
        }
        Ok(report)
    }

    /// The TS performance model at this operating point.
    pub fn performance_model(&self) -> TsPerformanceModel {
        TsPerformanceModel {
            overclock: self.operating.config.overclock,
            penalty_cycles: self.correction().penalty_cycles() as f64,
        }
    }

    /// A fresh DTA engine at the working period (cheap: one STA pass), with
    /// the framework's shared stage-DTS memo cache attached (if enabled).
    ///
    /// # Errors
    ///
    /// Propagates variation-model errors.
    pub fn engine(&self) -> Result<DtsEngine<'_>> {
        let mut engine = DtsEngine::new(
            self.pipeline.netlist(),
            self.lib.clone(),
            self.variation,
            TimingConstraints::with_period(self.operating.working_period),
        )?;
        if let Some(cache) = &self.dts_cache {
            engine.set_cache(Arc::clone(cache));
        }
        Ok(engine)
    }

    /// Snapshot of the shared stage-DTS cache counters (hits, misses,
    /// evictions, collisions, interner size), or `None` when caching is
    /// disabled. Counters accumulate across every engine the framework has
    /// handed out.
    pub fn dta_cache_stats(&self) -> Option<DtsCacheStats> {
        self.dts_cache.as_ref().map(|c| c.stats())
    }

    /// Accumulated pre-screening pair counters across every
    /// [`Framework::train_model`] call so far.
    pub fn prescreen_stats(&self) -> PrescreenStats {
        match self.prescreen_stats.lock() {
            Ok(g) => *g,
            Err(p) => *p.into_inner(),
        }
    }

    /// The static error-immunity plan [`Framework::train_model`] attaches
    /// to its engine for `program`: certificates proven at the working
    /// period (see [`terse_dta::prescreen`]).
    ///
    /// # Errors
    ///
    /// Propagates netlist and STA errors.
    pub fn prune_plan(&self, program: &Program) -> Result<PrunePlan> {
        Ok(build_plan(
            self.pipeline.netlist(),
            &self.lib,
            &self.variation,
            self.operating.working_period,
            program,
        )?)
    }

    /// Draws manufactured-chip samples (for Monte Carlo validation).
    ///
    /// # Errors
    ///
    /// Propagates variation-model errors.
    pub fn sample_chips(&self, n: usize, seed: u64) -> Result<Vec<ChipSample>> {
        let model = VariationModel::new(self.pipeline.netlist(), &self.lib, self.variation)
            .map_err(TerseError::Sta)?;
        // Chip `i` owns RNG stream `(seed, i)`, so the drawn population is
        // identical for every thread count.
        Ok(self.pool.install(|| {
            (0..n)
                .into_par_iter()
                .map(|i| {
                    let mut rng = terse_stats::rng::Xoshiro256::seed_stream(seed, i as u64);
                    model.sample_chip(&mut rng)
                })
                .collect()
        }))
    }

    /// Profiles a workload — in parallel across data-variation samples: one
    /// [`ProfileResult`] per sample, each from its own profiler seed.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn profile_workload(&self, w: &Workload, cfg: &Cfg) -> Result<Vec<ProfileResult>> {
        self.pool.install(|| {
            (0..self.samples)
                .into_par_iter()
                .map(|s| {
                    let mut prof = self.profiler;
                    prof.seed = self.profiler.seed.wrapping_add(s as u64);
                    prof.profile(w.program(), cfg, |m| w.init_input(s, m))
                        .map_err(TerseError::from)
                })
                .collect()
        })
    }

    /// Trains the per-workload instruction error model (control table per
    /// profiled edge + the cached datapath model), on the framework's pool:
    /// [`FrameworkBuilder::threads`] bounds its fan-out. The engine carries
    /// the workload's [`Framework::prune_plan`], so `(instruction, stage)`
    /// pairs it proves immune are skipped.
    ///
    /// # Errors
    ///
    /// Propagates DTA errors.
    pub fn train_model(
        &self,
        w: &Workload,
        cfg: &Cfg,
        profiles: &[ProfileResult],
    ) -> Result<InstructionErrorModel> {
        // Training fans out over control edges and datapath directed
        // sequences, so it runs on the framework's pool like every other
        // stage; the DTA calls inside each unit then run inline.
        self.pool.install(|| {
            let mut engine = self.engine()?;
            let plan = Arc::new(self.prune_plan(w.program())?);
            engine.set_prune_plan(Arc::clone(&plan));
            let (char_edges, hints) = training_inputs(cfg, w.program(), profiles);
            let hint_fn = move |i: u32| hints[i as usize];
            let mut stats = CosimStats::default();
            let control = characterize_control_with(
                &self.pipeline,
                w.program(),
                cfg,
                &engine,
                &char_edges,
                &hint_fn,
                &mut stats,
            )?;
            let datapath = self.datapath(&engine, &mut stats)?;
            match self.cosim_stats.lock() {
                Ok(mut g) => g.merge(stats),
                Err(p) => p.into_inner().merge(stats),
            }
            let s = plan.stats();
            let mut g = match self.prescreen_stats.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            g.pairs_total += s.pairs_total;
            g.pairs_pruned += s.pairs_pruned;
            Ok(InstructionErrorModel::new(cfg, control, datapath))
        })
    }

    fn datapath(&self, engine: &DtsEngine<'_>, stats: &mut CosimStats) -> Result<DatapathModel> {
        if let Some(m) = self.datapath_cache.get() {
            return Ok(m.clone());
        }
        let m = DatapathModel::train_with(&self.pipeline, engine, stats)?;
        let _ = self.datapath_cache.set(m.clone());
        Ok(m)
    }

    /// Accumulated co-simulation work counters across every
    /// [`Framework::train_model`] call so far (cycles and gate
    /// evaluations).
    pub fn cosim_stats(&self) -> CosimStats {
        match self.cosim_stats.lock() {
            Ok(g) => *g,
            Err(p) => *p.into_inner(),
        }
    }

    /// Computes the error-rate estimate from profiles and a trained model
    /// (the Section 5 statistical pipeline) in one uncheckpointed sweep.
    ///
    /// # Errors
    ///
    /// Propagates marginal-solver and bound errors.
    pub fn estimate(
        &self,
        w: &Workload,
        cfg: &Cfg,
        profiles: &[ProfileResult],
        model: &InstructionErrorModel,
    ) -> Result<ErrorRateEstimate> {
        self.estimate_with(w, cfg, profiles, model, None, None)
    }

    /// [`Framework::estimate`] as a resumable sweep over the basic blocks
    /// (see `terse_sim::sweep`): blocks already in the `TERSECP1`
    /// checkpoint are skipped, at most `block_budget` pending blocks are
    /// computed (`0` is treated as 1), in parallel batches of the
    /// checkpoint's `every_n` with a flush after each, and the file is
    /// removed once the sweep completes. Each block's tables are a pure
    /// function of the run, so the estimate is bitwise identical to an
    /// uninterrupted run however the sweep was cut. A job server sharing
    /// one framework across queued jobs passes each job its own checkpoint.
    ///
    /// # Errors
    ///
    /// As [`Framework::estimate`]; [`TerseError::Checkpoint`] for an
    /// unreadable checkpoint or one written by a different configuration;
    /// [`TerseError::Interrupted`] when the budget leaves blocks pending.
    pub fn estimate_with(
        &self,
        w: &Workload,
        cfg: &Cfg,
        profiles: &[ProfileResult],
        model: &InstructionErrorModel,
        ckpt: Option<&Checkpoint>,
        block_budget: Option<usize>,
    ) -> Result<ErrorRateEstimate> {
        failpoints::fail_point!("terse::estimate", |_| Err(TerseError::Config(
            "injected estimation fault".into()
        )));
        let s_count = profiles.len().max(1);
        let m = cfg.len();
        // --- Conditional probabilities p^c / p^e per instruction/sample ---
        // One parallel unit per basic block. Each block carries a private
        // memo of `model.error_probability_rv` keyed by (edge context,
        // static instruction, feature vector): identical feature vectors
        // recur across samples and across the normal/post-correction
        // states, and every hit skips a canonical-form evaluation.
        let block_probs = |blk: &BasicBlock| -> Result<BlockProbs> {
            let contexts: Vec<Vec<(Option<BlockId>, f64)>> =
                profiles.iter().map(|p| edge_contexts(p, blk.id)).collect();
            let mut memo: HashMap<(Option<BlockId>, u32, InstFeatures), f64> = HashMap::new();
            let mut cc_blk = Vec::with_capacity(blk.len());
            let mut ce_blk = Vec::with_capacity(blk.len());
            for idx in blk.range() {
                let mut cc = vec![0.0f64; s_count];
                let mut ce = vec![0.0f64; s_count];
                for (s, prof) in profiles.iter().enumerate() {
                    cc[s] = memoized_mean_prob(
                        model,
                        &mut memo,
                        &contexts[s],
                        idx as u32,
                        &prof.features_normal[idx],
                    );
                    ce[s] = memoized_mean_prob(
                        model,
                        &mut memo,
                        &contexts[s],
                        idx as u32,
                        &prof.features_corrected[idx],
                    );
                }
                cc_blk.push(SampleRv::new(cc).map_err(TerseError::Stats)?);
                ce_blk.push(SampleRv::new(ce).map_err(TerseError::Stats)?);
            }
            Ok(BlockProbs {
                cc: cc_blk,
                ce: ce_blk,
            })
        };
        let format = EstimateImage {
            context: checkpoint::context_hash(
                cfg,
                profiles,
                &self.profiler,
                self.operating.signoff_period,
                self.operating.working_period,
            ),
            blocks: m,
            s_count,
        };
        let blocks = cfg.blocks();
        let per_block = Sweep::start(&format, ckpt, block_budget)?.run(
            |block| block,
            |batch| {
                self.pool.install(|| {
                    batch
                        .par_iter()
                        .map(|&i| block_probs(&blocks[i]).map(|r| (i, r)))
                        .collect::<Result<Vec<_>>>()
                })
            },
        )?;
        let mut cond_correct = Vec::with_capacity(m);
        let mut cond_error = Vec::with_capacity(m);
        for blk_probs in per_block {
            cond_correct.push(blk_probs.cc);
            cond_error.push(blk_probs.ce);
        }
        // --- Marginals (Eqs. 1–2, Tarjan, per-SCC systems) ----------------
        let mut edge_counts: HashMap<(BlockId, BlockId), Vec<f64>> = HashMap::new();
        for (s, prof) in profiles.iter().enumerate() {
            // terse-analyze: allow(AZ002): keyed writes into a map; order-free.
            for (&e, &c) in &prof.edge_counts {
                edge_counts.entry(e).or_insert_with(|| vec![0.0; s_count])[s] = c as f64;
            }
        }
        let block_counts: Vec<Vec<f64>> = (0..m)
            .map(|i| profiles.iter().map(|p| p.block_counts[i] as f64).collect())
            .collect();
        // The problem owns the conditional tables and counts; later phases
        // read them back through it (no clones).
        let problem = MarginalProblem {
            cond_correct,
            cond_error,
            edge_counts,
            block_counts,
        };
        let sol = solve_marginals(&problem)?;
        let (cond_error, block_counts) = (&problem.cond_error, &problem.block_counts);
        // --- λ (Eq. 10) and the Stein moments ----------------------------
        let scale: Vec<f64> = profiles
            .iter()
            .map(|p| match w.target_instructions() {
                Some(t) if p.total_instructions > 0 => t as f64 / p.total_instructions as f64,
                _ => 1.0,
            })
            .collect();
        let mut lambda_slots = vec![KahanSum::new(); s_count];
        // Two valid readings of Theorem 5.2's variable set (the paper's
        // Eq. 6 explicitly permits replicating each instruction's indicator
        // `e_i` times): (a) one weighted variable `e_i·p_{i_k}` per static
        // instruction, (b) `e_i` identical replicas of `p_{i_k}`. Both give
        // Kolmogorov bounds with D = 2; we report the tighter.
        let mut moments_weighted: Vec<CentralMoments> = Vec::new();
        let mut moments_replica: Vec<CentralMoments> = Vec::new();
        for i in 0..m {
            for k in 0..sol.marginal[i].len() {
                let p_rv = &sol.marginal[i][k];
                let x = SampleRv::from_fn(s_count, |s| {
                    scale[s] * block_counts[i][s] * p_rv.samples()[s]
                });
                for (slot, &v) in lambda_slots.iter_mut().zip(x.samples()) {
                    slot.add(v);
                }
                moments_weighted.push(CentralMoments {
                    var: x.variance(),
                    abs3: x.abs_central_moment(3),
                    m4: x.central_moment(4),
                });
                let e_mean: f64 = (0..s_count)
                    .map(|s| scale[s] * block_counts[i][s])
                    .sum::<f64>()
                    / s_count as f64;
                moments_replica.push(CentralMoments {
                    var: e_mean * p_rv.variance(),
                    abs3: e_mean * p_rv.abs_central_moment(3),
                    m4: e_mean * p_rv.central_moment(4),
                });
            }
        }
        let lambda = SampleRv::new(lambda_slots.iter().map(KahanSum::value).collect())
            .map_err(TerseError::Stats)?;
        let lam_sd = lambda.sd();
        let dk_lambda = if lam_sd > 0.0 {
            let a = stein_normal_bound(&moments_weighted, lam_sd, 2)
                .map_err(TerseError::Stats)?
                .kolmogorov;
            let b = stein_normal_bound(&moments_replica, lam_sd, 2)
                .map_err(TerseError::Stats)?
                .kolmogorov;
            a.min(b)
        } else {
            0.0
        };
        // --- Chen–Stein (Eqs. 7–9) ----------------------------------------
        let mut b12 = vec![0.0f64; s_count];
        for s in 0..s_count {
            let chains: Vec<BlockChain> = (0..m)
                .filter(|&i| block_counts[i][s] > 0.0)
                .map(|i| BlockChain {
                    executions: scale[s] * block_counts[i][s],
                    p_in: sol.input[i].samples()[s],
                    marginal: sol.marginal[i].iter().map(|rv| rv.samples()[s]).collect(),
                    cond_error: cond_error[i].iter().map(|rv| rv.samples()[s]).collect(),
                })
                .collect();
            if chains.is_empty() {
                continue;
            }
            let bound = chen_stein_program_bound(&chains).map_err(TerseError::Stats)?;
            b12[s] = bound.b1 + bound.b2;
        }
        let b12rv = SampleRv::new(b12).map_err(TerseError::Stats)?;
        let b12_worst = b12rv.worst_case(6.0);
        let lam_mean = lambda.mean().max(0.0);
        let dk_count = (b12_worst / lam_mean.max(1.0)).min(1.0);
        // --- Eq. 14 mixture ------------------------------------------------
        let normal = Normal::new(lam_mean, lam_sd).map_err(TerseError::Stats)?;
        let mixture = PoissonNormalMixture::new(normal).map_err(TerseError::Stats)?;
        let total_instructions = profiles
            .iter()
            .zip(&scale)
            .map(|(p, &k)| p.total_instructions as f64 * k)
            .sum::<f64>()
            / s_count as f64;
        Ok(ErrorRateEstimate {
            lambda,
            lambda_normal: normal,
            mixture,
            total_instructions,
            dk_lambda,
            dk_count,
            chen_stein_b12_worst: b12_worst,
        })
    }

    /// Runs the full flow on a workload, with Table-2-style timing split.
    ///
    /// # Errors
    ///
    /// [`TerseError::Preflight`] if [`Framework::preflight`] reports errors
    /// (nothing is profiled or trained then); otherwise propagates every
    /// phase's errors.
    pub fn run(&self, w: &Workload) -> Result<Report> {
        let pre = self.preflight(w)?;
        if pre.has_errors() {
            return Err(TerseError::Preflight(preflight_message(&pre)));
        }
        let cfg = Cfg::from_program(w.program());
        // terse-analyze: allow(AZ003): wall-clock telemetry only; never feeds results.
        let t0 = Instant::now();
        let profiles = self.profile_workload(w, &cfg)?;
        let simulation_s = t0.elapsed().as_secs_f64();
        // terse-analyze: allow(AZ003): wall-clock telemetry only; never feeds results.
        let t1 = Instant::now();
        let model = self.train_model(w, &cfg, &profiles)?;
        let training_s = t1.elapsed().as_secs_f64();
        // terse-analyze: allow(AZ003): wall-clock telemetry only; never feeds results.
        let t2 = Instant::now();
        let estimate = self.estimate(w, &cfg, &profiles, &model)?;
        let estimation_s = t2.elapsed().as_secs_f64();
        let timings = RunTimings {
            training_s,
            simulation_s,
            estimation_s,
        };
        Ok(self.report(w, &cfg, estimate, timings))
    }

    /// Assembles the Table 2 report of one run of `w`: its estimate and
    /// phase timings, plus this framework's performance model and counters.
    pub fn report(
        &self,
        w: &Workload,
        cfg: &Cfg,
        estimate: ErrorRateEstimate,
        timings: RunTimings,
    ) -> Report {
        Report {
            name: w.name().to_owned(),
            dynamic_instructions: estimate.total_instructions,
            estimate,
            timings,
            static_instructions: w.program().len(),
            basic_blocks: cfg.len(),
            perf: self.performance_model(),
            dta_cache: self.dta_cache_stats(),
            prescreen: Some(self.prescreen_stats()),
        }
    }
}

/// Context-weighted mean error probability of one static instruction's
/// dynamic feature population (the `prob` kernel of Eq. 2), with a memo in
/// front of the model's canonical-form evaluation.
fn memoized_mean_prob(
    model: &InstructionErrorModel,
    memo: &mut HashMap<(Option<BlockId>, u32, InstFeatures), f64>,
    contexts: &[(Option<BlockId>, f64)],
    idx: u32,
    feats: &[InstFeatures],
) -> f64 {
    if feats.is_empty() || contexts.is_empty() {
        return 0.0;
    }
    let mut acc = 0.0;
    for &(edge, wgt) in contexts {
        let mut mean = KahanSum::new();
        for f in feats {
            let p = *memo
                .entry((edge, idx, *f))
                .or_insert_with(|| model.error_probability_rv(edge, idx, f));
            mean.add(p);
        }
        acc += wgt * mean.value() / feats.len() as f64;
    }
    acc.clamp(0.0, 1.0)
}

/// The incoming-edge contexts of a block in one profile, with activation
/// weights (Eq. 2's `p^a`), including the virtual flushed-entry context.
fn edge_contexts(prof: &ProfileResult, block: BlockId) -> Vec<(Option<BlockId>, f64)> {
    let denom = prof.block_counts[block.index()] as f64;
    if denom <= 0.0 {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut known = 0.0;
    // terse-analyze: allow(AZ002): `out` is sorted before use below.
    for (&(from, to), &c) in &prof.edge_counts {
        if to == block && c > 0 {
            out.push((Some(from), c as f64 / denom));
            known += c as f64;
        }
    }
    let virt = ((denom - known) / denom).max(0.0);
    if virt > 0.0 {
        out.push((None, virt));
    }
    out.sort_by_key(|a| a.0);
    out
}

/// One-line summary of a gating preflight report: counts plus the first
/// error diagnostic.
fn preflight_message(report: &AnalysisReport) -> String {
    let first = report
        .diagnostics()
        .iter()
        .find(|d| d.severity == terse_analyze::Severity::Error)
        .map(|d| d.to_string())
        .unwrap_or_default();
    format!(
        "{} error(s), {} warning(s); first: {first}",
        report.error_count(),
        report.warning_count()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_framework() -> Framework {
        Framework::builder()
            .samples(2)
            .profiler(Profiler {
                max_feature_samples: 8,
                budget: 100_000,
                dmem_words: 4096,
                seed: 1,
            })
            .build()
            .unwrap()
    }

    #[test]
    fn preflight_netlist_rejects_cycle_under_strict() {
        use terse_netlist::builder::NetlistBuilder;
        use terse_netlist::netlist::EndpointClass;
        use terse_netlist::GateKind;
        let mut b = NetlistBuilder::new(1);
        let src = b.flip_flop("src", EndpointClass::Data, 0).unwrap();
        let g1 = b.gate(GateKind::Buf, &[src], 0).unwrap();
        let g2 = b.gate(GateKind::Buf, &[g1], 0).unwrap();
        b.rewire_fanin(g1, &[g2]).unwrap();
        b.connect_ff_input(src, g2).unwrap();
        let n = b.finish_unchecked();
        // The combinational loop is a typed error, not a panic.
        let err = Framework::preflight_netlist(&n).unwrap_err();
        assert!(matches!(err, TerseError::Preflight(_)), "{err}");
        assert!(err.to_string().contains("NL001"), "{err}");
        let mut rep = AnalysisReport::new();
        analyze_netlist(&n, &mut rep);
        assert!(rep.has_code("NL001"));
    }

    #[test]
    fn preflight_passes_valid_run_inputs() {
        let f = small_framework();
        let w = Workload::from_asm("p", "addi r1, r0, 1\nadd r2, r1, r1\nhalt\n").unwrap();
        let rep = f.preflight(&w).unwrap();
        assert!(!rep.has_errors(), "{}", rep.render_text());
    }

    #[test]
    fn run_refuses_preflight_errors_before_profiling() {
        // No `halt`: the last block falls off the end of the program.
        let f = small_framework();
        let w = Workload::from_asm("nohalt", "addi r1, r0, 1\nadd r2, r1, r1\n").unwrap();
        let err = f.run(&w).unwrap_err();
        assert!(matches!(err, TerseError::Preflight(_)), "{err}");
        assert!(err.to_string().contains("CF003"), "{err}");
        assert_eq!(f.cosim_stats(), CosimStats::default());
    }

    #[test]
    fn builder_defaults_are_coherent() {
        let f = small_framework();
        assert_eq!(f.samples(), 2);
        let op = f.operating_point();
        assert!(op.working_period < op.signoff_period);
        let perf = f.performance_model();
        assert!((perf.overclock - 1.33).abs() < 1e-12);
        assert!((perf.penalty_cycles - 24.0).abs() < 1e-12);
    }

    #[test]
    fn end_to_end_small_workload() {
        let f = small_framework();
        let w = Workload::from_asm(
            "loop8",
            r"
                addi r1, r0, 8
                li   r2, 0xABCDEF
            loop:
                add  r3, r3, r2
                addi r1, r1, -1
                bne  r1, r0, loop
                halt
        ",
        )
        .unwrap();
        let report = f.run(&w).unwrap();
        let rate = report.estimate.mean_error_rate();
        assert!((0.0..=1.0).contains(&rate), "rate = {rate}");
        assert!(report.basic_blocks >= 3);
        assert!(report.dynamic_instructions > 10.0);
        // CDF endpoints behave.
        let lo = report.estimate.rate_cdf(0.0).unwrap();
        let hi = report.estimate.rate_cdf(1.0).unwrap();
        assert!(lo.nominal <= hi.nominal);
        assert!((hi.nominal - 1.0).abs() < 1e-6);
    }

    #[test]
    fn scaling_changes_counts_not_rate() {
        let f = small_framework();
        let src = r"
            addi r1, r0, 6
        loop:
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        ";
        let w_raw = Workload::from_asm("raw", src).unwrap();
        let w_scaled = Workload::from_asm("scaled", src)
            .unwrap()
            .with_target_instructions(1_000_000);
        let r_raw = f.run(&w_raw).unwrap();
        let r_scaled = f.run(&w_scaled).unwrap();
        assert!((r_scaled.dynamic_instructions - 1e6).abs() < 1.0);
        let rr = r_raw.estimate.mean_error_rate();
        let rs = r_scaled.estimate.mean_error_rate();
        assert!(
            (rr - rs).abs() < 1e-9 + rr * 0.01,
            "raw {rr} vs scaled {rs}"
        );
        assert!(r_scaled.estimate.lambda.mean() > r_raw.estimate.lambda.mean());
    }

    #[test]
    fn inputs_create_data_variation() {
        let f = small_framework();
        let src = r"
            ld r1, r0, 0
        loop:
            add r2, r2, r1
            addi r1, r1, -1
            bne r1, r0, loop
            halt
        ";
        let w = Workload::from_asm("var", src)
            .unwrap()
            .with_input(|m| m.store(0, 5).unwrap())
            .with_input(|m| m.store(0, 11).unwrap());
        let report = f.run(&w).unwrap();
        // The two inputs run different iteration counts → λ varies.
        assert!(report.estimate.lambda.sd() >= 0.0);
        let cdf = report.estimate.rate_cdf(report.estimate.mean_error_rate());
        assert!(cdf.is_ok());
    }

    fn ckpt_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("terse-est-{tag}-{}.ckpt", std::process::id()))
    }

    fn loop_workload() -> Workload {
        Workload::from_asm(
            "ckpt",
            r"
                addi r1, r0, 5
                li   r2, 0x1234
            loop:
                add  r3, r3, r2
                addi r1, r1, -1
                bne  r1, r0, loop
                halt
        ",
        )
        .unwrap()
    }

    fn assert_estimates_bitwise_equal(
        a: &crate::report::ErrorRateEstimate,
        b: &crate::report::ErrorRateEstimate,
    ) {
        assert_eq!(
            a.lambda
                .samples()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            b.lambda
                .samples()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
        assert_eq!(a.dk_lambda.to_bits(), b.dk_lambda.to_bits());
        assert_eq!(a.dk_count.to_bits(), b.dk_count.to_bits());
        assert_eq!(
            a.total_instructions.to_bits(),
            b.total_instructions.to_bits()
        );
        assert_eq!(
            a.chen_stein_b12_worst.to_bits(),
            b.chen_stein_b12_worst.to_bits()
        );
    }

    /// [`Framework::run`]'s profile → train → estimate flow, with the
    /// estimate sweep checkpointed to `ckpt` under `block_budget`.
    fn run_checkpointed(
        f: &Framework,
        w: &Workload,
        ckpt: &Checkpoint,
        block_budget: Option<usize>,
    ) -> Result<ErrorRateEstimate> {
        let cfg = Cfg::from_program(w.program());
        let profiles = f.profile_workload(w, &cfg)?;
        let model = f.train_model(w, &cfg, &profiles)?;
        f.estimate_with(w, &cfg, &profiles, &model, Some(ckpt), block_budget)
    }

    #[test]
    fn checkpointed_estimate_matches_plain_and_cleans_up() {
        let w = loop_workload();
        let plain = small_framework().run(&w).unwrap();
        let path = ckpt_path("match");
        let ck =
            run_checkpointed(&small_framework(), &w, &Checkpoint::new(&path, 1), None).unwrap();
        assert_estimates_bitwise_equal(&plain.estimate, &ck);
        assert!(!path.exists(), "checkpoint removed on completion");
    }

    #[test]
    fn interrupted_estimate_resumes_bitwise_identically() {
        let w = loop_workload();
        let plain = small_framework().run(&w).unwrap();
        let path = ckpt_path("resume");
        let ckpt = Checkpoint::new(&path, 1);
        let prof = Profiler {
            max_feature_samples: 8,
            budget: 100_000,
            dmem_words: 4096,
            seed: 1,
        };
        // First run: budget of 2 blocks → flush + Interrupted.
        let err = run_checkpointed(&small_framework(), &w, &ckpt, Some(2)).unwrap_err();
        match err {
            TerseError::Interrupted { completed, total } => {
                assert_eq!(completed, 2);
                assert!(total > completed);
            }
            other => panic!("expected Interrupted, got {other}"),
        }
        assert!(path.exists(), "partial checkpoint persisted");
        // Second run with a different thread count: resumes and matches
        // the uninterrupted result bitwise.
        let f2 = Framework::builder()
            .samples(2)
            .profiler(prof)
            .threads(1)
            .build()
            .unwrap();
        let resumed = run_checkpointed(&f2, &w, &ckpt, None).unwrap();
        assert_estimates_bitwise_equal(&plain.estimate, &resumed);
        assert!(!path.exists());
    }

    /// A budget of 0 is treated as 1: a caller that requeues on
    /// `Interrupted` always finishes, one block per call.
    #[test]
    fn zero_block_budget_still_makes_progress() {
        let w = loop_workload();
        let plain = small_framework().run(&w).unwrap();
        let path = ckpt_path("zero-budget");
        let ckpt = Checkpoint::new(&path, 1);
        let f = small_framework();
        let mut completed = 0;
        let resumed = loop {
            match run_checkpointed(&f, &w, &ckpt, Some(0)) {
                Ok(est) => break est,
                Err(TerseError::Interrupted { completed: c, .. }) => {
                    assert_eq!(c, completed + 1, "each call computes one block");
                    completed = c;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        };
        assert!(completed > 0, "the sweep was sliced");
        assert_estimates_bitwise_equal(&plain.estimate, &resumed);
        assert!(!path.exists(), "checkpoint removed on completion");
    }

    /// Kill a *cached* run mid-sweep, resume it in a fresh process-alike
    /// framework whose memo cache starts cold, and demand bit equality with
    /// an uninterrupted *uncached* reference: checkpoint contents must never
    /// depend on cache state, and a cold resume must not re-derive different
    /// numbers.
    #[test]
    fn cached_interrupted_run_resumes_bitwise_identical_to_uncached() {
        let w = loop_workload();
        let prof = Profiler {
            max_feature_samples: 8,
            budget: 100_000,
            dmem_words: 4096,
            seed: 1,
        };
        let plain = Framework::builder()
            .samples(2)
            .profiler(prof)
            .dta_cache(0)
            .build()
            .unwrap()
            .run(&w)
            .unwrap();
        let path = ckpt_path("cache-resume");
        let ckpt = Checkpoint::new(&path, 1);
        let cached = || {
            Framework::builder()
                .samples(2)
                .profiler(prof)
                .dta_cache(256)
                .build()
                .unwrap()
        };
        assert!(matches!(
            run_checkpointed(&cached(), &w, &ckpt, Some(2)),
            Err(TerseError::Interrupted { .. })
        ));
        assert!(path.exists(), "partial checkpoint persisted");
        let f2 = cached();
        let fresh = f2.dta_cache_stats().expect("cache enabled");
        assert_eq!(
            (fresh.hits, fresh.misses, fresh.entries),
            (0, 0, 0),
            "resume must start from a cold cache"
        );
        let resumed = run_checkpointed(&f2, &w, &ckpt, None).unwrap();
        assert_estimates_bitwise_equal(&plain.estimate, &resumed);
        assert!(!path.exists(), "checkpoint removed on completion");
    }

    #[test]
    fn stale_checkpoint_is_rejected() {
        let w = loop_workload();
        let path = ckpt_path("stale");
        let ckpt = Checkpoint::new(&path, 1);
        let prof = Profiler {
            max_feature_samples: 8,
            budget: 100_000,
            dmem_words: 4096,
            seed: 1,
        };
        // Interrupt a run to leave a checkpoint behind.
        assert!(matches!(
            run_checkpointed(&small_framework(), &w, &ckpt, Some(1)),
            Err(TerseError::Interrupted { .. })
        ));
        // A differently-configured run (different profiler seed → different
        // profiles) must refuse the file rather than mix results.
        let f2 = Framework::builder()
            .samples(2)
            .profiler(Profiler { seed: 99, ..prof })
            .build()
            .unwrap();
        assert!(matches!(
            run_checkpointed(&f2, &w, &ckpt, None),
            Err(TerseError::Checkpoint(_))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dta_cache_counters_surface_in_report() {
        let f = small_framework();
        let report = f.run(&loop_workload()).unwrap();
        let stats = report.dta_cache.expect("cache on by default");
        // Training sweeps repeated activation sets, so the memo must both
        // miss (first sight) and hit (repeats).
        assert!(stats.misses > 0, "stats = {stats:?}");
        assert!(stats.hits > 0, "stats = {stats:?}");
        assert!(stats.entries > 0 && stats.entries <= stats.capacity);
        assert!(stats.hit_rate() > 0.0);
        let summary = report.perf_summary();
        assert!(summary.contains("hits"), "{summary}");
        assert!(summary.contains("evictions"), "{summary}");
        // Framework-level snapshot agrees with the report.
        assert_eq!(f.dta_cache_stats(), Some(stats));
    }

    #[test]
    fn cached_run_is_bitwise_identical_to_uncached() {
        let prof = Profiler {
            max_feature_samples: 8,
            budget: 100_000,
            dmem_words: 4096,
            seed: 1,
        };
        let w = loop_workload();
        let cached = small_framework().run(&w).unwrap();
        let uncached_f = Framework::builder()
            .samples(2)
            .profiler(prof)
            .dta_cache(0)
            .build()
            .unwrap();
        let uncached = uncached_f.run(&w).unwrap();
        assert!(uncached.dta_cache.is_none());
        assert_estimates_bitwise_equal(&cached.estimate, &uncached.estimate);
        // A thrashing single-entry cache must not change results either.
        let tiny_f = Framework::builder()
            .samples(2)
            .profiler(prof)
            .dta_cache(1)
            .build()
            .unwrap();
        let tiny = tiny_f.run(&w).unwrap();
        assert_estimates_bitwise_equal(&cached.estimate, &tiny.estimate);
        assert!(tiny.dta_cache.unwrap().evictions > 0);
    }

    #[test]
    fn run_reports_training_cosim_counters() {
        let w = loop_workload();
        let f = small_framework();
        let report = f.run(&w).unwrap();
        let stats = f.cosim_stats();
        assert!(stats.cycles > 0, "stats = {stats:?}");
        assert!(stats.gates_evaluated > 0, "stats = {stats:?}");
        // Training always prunes; the run reports the framework's counters.
        let pre = report.prescreen.expect("run fills prescreen counters");
        assert_eq!(pre, f.prescreen_stats());
        assert!(
            pre.pairs_pruned > 0 && pre.pairs_pruned < pre.pairs_total,
            "{pre:?}"
        );
        let summary = report.perf_summary();
        assert!(summary.contains("prescreen:"), "{summary}");
    }

    #[test]
    fn edge_contexts_weights_sum_to_one() {
        let f = small_framework();
        let w = Workload::from_asm(
            "ctx",
            "addi r1, r0, 3\nloop: addi r1, r1, -1\nbne r1, r0, loop\nhalt\n",
        )
        .unwrap();
        let cfg = Cfg::from_program(w.program());
        let profiles = f.profile_workload(&w, &cfg).unwrap();
        for b in cfg.blocks() {
            let ctx = edge_contexts(&profiles[0], b.id);
            if profiles[0].block_counts[b.id.index()] > 0 {
                let total: f64 = ctx.iter().map(|&(_, w)| w).sum();
                assert!((total - 1.0).abs() < 1e-12, "block {}: {total}", b.id);
            }
        }
    }
}
