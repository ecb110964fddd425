//! The `TERSECP1` payload of [`Framework::estimate_with`]'s per-block
//! conditional-probability sweep.
//!
//! The estimate computes one unit of work per basic block (the `p^c`/`p^e`
//! [`SampleRv`] tables of Eq. 2). Each unit is a pure function of the CFG,
//! the profiles, the trained model, and the operating point — no RNG is
//! consumed — so a sweep can be interrupted after any subset of blocks and
//! resumed *bitwise identically*. The batching, budget and flush schedule
//! are `terse_sim::sweep`'s; the file protocol (the `TERSEFR1` envelope,
//! the `.bak` and `.corrupt` generations, the durable tmp+sync+rename
//! writer, legacy bare images) is `terse_analyze::integrity`'s. This module
//! keeps only the payload codec and the context hash.
//!
//! The payload is deliberately tiny and serde-free (the workspace is fully
//! offline):
//!
//! ```text
//! magic      8 bytes  b"TERSECP1"
//! context    u64 LE   FNV-1a hash of the run context (see below)
//! blocks     u64 LE   total basic blocks in the sweep
//! s_count    u64 LE   data-variation samples per SampleRv
//! entries    u64 LE   number of completed block entries that follow
//! entry*     u64 LE   block index
//!            u64 LE   instructions in the block (n_inst)
//!            u64 LE × n_inst·s_count   p^c samples (f64 bit patterns)
//!            u64 LE × n_inst·s_count   p^e samples (f64 bit patterns)
//! ```
//!
//! The context hash covers the CFG shape, the profiled execution counts,
//! the profiler configuration, and the operating-point periods; a checkpoint
//! written by a different run is rejected with [`TerseError::Checkpoint`]
//! rather than silently mixed in. `f64` values round-trip through their
//! IEEE-754 bit patterns, preserving bitwise identity across save/resume.
//!
//! [`Framework::estimate_with`]: crate::Framework::estimate_with
//! [`SampleRv`]: terse_stats::SampleRv
//! [`TerseError::Checkpoint`]: crate::TerseError::Checkpoint

use terse_isa::Cfg;
use terse_sim::sweep::CheckpointFormat;
use terse_sim::{ProfileResult, Profiler};
use terse_stats::SampleRv;

/// One completed block's conditional-probability tables: `p^c` and `p^e`
/// per instruction.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BlockProbs {
    /// `p^c` (previous instruction correct), one [`SampleRv`] per
    /// instruction.
    pub cc: Vec<SampleRv>,
    /// `p^e` (previous instruction erred), one [`SampleRv`] per
    /// instruction.
    pub ce: Vec<SampleRv>,
}

fn fnv_mix(hash: &mut u64, value: u64) {
    for b in value.to_le_bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// FNV-1a hash of everything the per-block sweep's output depends on: the
/// CFG shape, the profiled execution counts, the profiler configuration
/// (its reservoir seed selects the sampled feature vectors), and the
/// operating-point periods (which pin the trained model's timing regime).
pub(crate) fn context_hash(
    cfg: &Cfg,
    profiles: &[ProfileResult],
    profiler: &Profiler,
    signoff_period: f64,
    working_period: f64,
) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv_mix(&mut h, cfg.len() as u64);
    for blk in cfg.blocks() {
        fnv_mix(&mut h, u64::from(blk.start));
        fnv_mix(&mut h, u64::from(blk.end));
    }
    fnv_mix(&mut h, profiles.len() as u64);
    for p in profiles {
        fnv_mix(&mut h, p.total_instructions);
        for &c in &p.block_counts {
            fnv_mix(&mut h, c);
        }
    }
    fnv_mix(&mut h, profiler.seed);
    fnv_mix(&mut h, profiler.budget);
    fnv_mix(&mut h, profiler.dmem_words as u64);
    fnv_mix(&mut h, profiler.max_feature_samples as u64);
    // Retired phase-sampling digest slot: exact runs always folded `0`
    // here, so keeping the constant keeps their images resumable, while an
    // image from a former sampled run (non-zero digest) can never match.
    fnv_mix(&mut h, 0);
    fnv_mix(&mut h, signoff_period.to_bits());
    fnv_mix(&mut h, working_period.to_bits());
    h
}

/// The `TERSECP1` image of one estimate sweep: its run context and shape.
pub(crate) struct EstimateImage {
    /// [`context_hash`] of the run.
    pub context: u64,
    /// Basic blocks in the sweep.
    pub blocks: usize,
    /// Data-variation samples per [`SampleRv`].
    pub s_count: usize,
}

impl CheckpointFormat for EstimateImage {
    type Unit = BlockProbs;
    const MAGIC: [u8; 8] = *b"TERSECP1";

    fn units(&self) -> usize {
        self.blocks
    }

    fn encode(&self, slots: &[Option<BlockProbs>]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&Self::MAGIC);
        out.extend_from_slice(&self.context.to_le_bytes());
        out.extend_from_slice(&(slots.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.s_count as u64).to_le_bytes());
        let entries = slots.iter().filter(|s| s.is_some()).count() as u64;
        out.extend_from_slice(&entries.to_le_bytes());
        for (idx, slot) in slots.iter().enumerate() {
            let Some(bp) = slot else { continue };
            out.extend_from_slice(&(idx as u64).to_le_bytes());
            out.extend_from_slice(&(bp.cc.len() as u64).to_le_bytes());
            for rvs in [&bp.cc, &bp.ce] {
                for rv in rvs {
                    for &v in rv.samples() {
                        out.extend_from_slice(&v.to_bits().to_le_bytes());
                    }
                }
            }
        }
        out
    }

    fn parse(&self, bytes: &[u8]) -> Result<Vec<Option<BlockProbs>>, String> {
        let (context, total_blocks, s_count) = (self.context, self.blocks, self.s_count);
        let mut pos = 0usize;
        let mut take8 = |what: &str| -> Result<[u8; 8], String> {
            let end = pos
                .checked_add(8)
                .filter(|&e| e <= bytes.len())
                .ok_or_else(|| format!("truncated checkpoint while reading {what}"))?;
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[pos..end]);
            pos = end;
            Ok(buf)
        };
        if take8("magic")? != Self::MAGIC {
            return Err("not a TERSE estimate checkpoint (bad magic)".into());
        }
        let file_ctx = u64::from_le_bytes(take8("context hash")?);
        if file_ctx != context {
            return Err(format!(
                "checkpoint context {file_ctx:#018x} does not match this run \
                 ({context:#018x}); delete the file or restore the original \
                 configuration"
            ));
        }
        let file_blocks = u64::from_le_bytes(take8("block count")?);
        if file_blocks != total_blocks as u64 {
            return Err(format!(
                "checkpoint covers {file_blocks} blocks, run has {total_blocks}"
            ));
        }
        let file_s = u64::from_le_bytes(take8("sample count")?);
        if file_s != s_count as u64 {
            return Err(format!(
                "checkpoint has {file_s} samples per rv, run has {s_count}"
            ));
        }
        let entries = u64::from_le_bytes(take8("entry count")?);
        if entries > total_blocks as u64 {
            return Err(format!(
                "checkpoint claims {entries} entries for {total_blocks} blocks"
            ));
        }
        let mut slots: Vec<Option<BlockProbs>> = vec![None; total_blocks];
        for _ in 0..entries {
            let idx = u64::from_le_bytes(take8("block index")?) as usize;
            if idx >= total_blocks {
                return Err(format!("block index {idx} out of range"));
            }
            let n_inst = u64::from_le_bytes(take8("instruction count")?) as usize;
            let mut read_table = |what: &str| -> Result<Vec<SampleRv>, String> {
                let mut table = Vec::with_capacity(n_inst);
                for _ in 0..n_inst {
                    let mut samples = Vec::with_capacity(s_count);
                    for _ in 0..s_count {
                        samples.push(f64::from_bits(u64::from_le_bytes(take8(what)?)));
                    }
                    table.push(
                        SampleRv::new(samples)
                            .map_err(|e| format!("corrupt {what} samples: {e}"))?,
                    );
                }
                Ok(table)
            };
            let cc = read_table("p^c")?;
            let ce = read_table("p^e")?;
            if slots[idx].is_some() {
                return Err(format!("duplicate entry for block {idx}"));
            }
            slots[idx] = Some(BlockProbs { cc, ce });
        }
        Ok(slots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::{Path, PathBuf};
    use terse_analyze::integrity;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("terse-ckpt-{tag}-{}.bin", std::process::id()))
    }

    fn rv(samples: &[f64]) -> SampleRv {
        SampleRv::new(samples.to_vec()).unwrap()
    }

    fn bp(cc: Vec<SampleRv>, ce: Vec<SampleRv>) -> BlockProbs {
        BlockProbs { cc, ce }
    }

    fn image(context: u64, blocks: usize, s_count: usize) -> EstimateImage {
        EstimateImage {
            context,
            blocks,
            s_count,
        }
    }

    /// Flushes `slots` as one `TERSECP1` generation through the shared
    /// writer, as a sweep does after a batch.
    fn store(path: &Path, context: u64, slots: &[Option<BlockProbs>], s_count: usize) {
        let payload = image(context, slots.len(), s_count).encode(slots);
        integrity::store_checkpoint(path, &payload).unwrap();
    }

    /// Loads a `TERSECP1` checkpoint through the shared reader, as a sweep
    /// does on start (`None` slots = fresh start).
    fn load(
        path: &Path,
        context: u64,
        blocks: usize,
        s_count: usize,
    ) -> Result<Vec<Option<BlockProbs>>, String> {
        let format = image(context, blocks, s_count);
        let loaded = integrity::load_checkpoint(path, &EstimateImage::MAGIC, |b| format.parse(b))?;
        Ok(loaded.unwrap_or_else(|| vec![None; blocks]))
    }

    #[test]
    fn roundtrip_preserves_bits_exactly() {
        let path = tmp_path("roundtrip");
        let slots = vec![
            Some(bp(
                vec![rv(&[0.1, 0.2]), rv(&[1.0 / 3.0, f64::MIN_POSITIVE])],
                vec![rv(&[0.9, 0.25]), rv(&[0.0, 1.0])],
            )),
            None,
            Some(bp(vec![rv(&[0.5, 0.5])], vec![rv(&[0.125, 2.5e-17])])),
        ];
        store(&path, 42, &slots, 2);
        let loaded = load(&path, 42, 3, 2).unwrap();
        assert_eq!(loaded.len(), 3);
        assert!(loaded[1].is_none());
        assert_eq!(slots, loaded, "SampleRv equality is bitwise on samples");
        integrity::finish_checkpoint(&path).unwrap();
        assert!(!path.exists());
        // Removing again is fine.
        integrity::finish_checkpoint(&path).unwrap();
    }

    /// A fixed three-block CFG, one profile and a profiler configuration:
    /// the inputs of [`context_hash`] for the pinned-hash tests below.
    fn pinned_context() -> (Cfg, ProfileResult, Profiler) {
        let program =
            terse_isa::assemble("addi r1, r0, 3\nloop: addi r1, r1, -1\nbne r1, r0, loop\nhalt\n")
                .unwrap();
        let cfg = Cfg::from_program(&program);
        assert_eq!(cfg.len(), 3);
        let n = program.len();
        let profile = ProfileResult {
            block_counts: vec![1, 4, 7],
            edge_counts: [((terse_isa::BlockId(0), terse_isa::BlockId(1)), 1)].into(),
            total_instructions: 11,
            features_normal: vec![Vec::new(); n],
            features_corrected: vec![Vec::new(); n],
            operand_reps: vec![None; n],
        };
        let profiler = Profiler {
            max_feature_samples: 8,
            budget: 100_000,
            dmem_words: 4096,
            seed: 1,
        };
        (cfg, profile, profiler)
    }

    /// Exact-run images written before phase sampling was removed must
    /// still resume, so the exact context hash is pinned to the value the
    /// earlier code computed for the same inputs.
    #[test]
    fn exact_context_hash_is_byte_stable() {
        let (cfg, profile, profiler) = pinned_context();
        let ctx = context_hash(&cfg, &[profile], &profiler, 1.0, 0.75);
        assert_eq!(ctx, 0xe5de_0b0a_00d6_0ea4, "got {ctx:#018x}");
    }

    /// `TERSECP1` images already on disk must keep resuming, so the framed
    /// image of two blocks with two samples each is pinned to the bytes the
    /// code wrote before the file protocol was shared with `TERSEMC1`.
    #[test]
    fn tersecp1_image_is_byte_stable() {
        let (cfg, profile, profiler) = pinned_context();
        let ctx = context_hash(&cfg, &[profile], &profiler, 1.0, 0.75);
        let slots = vec![
            Some(bp(vec![rv(&[0.1, 0.2])], vec![rv(&[0.3, 0.4])])),
            Some(bp(
                vec![rv(&[0.5, 1.0 / 3.0]), rv(&[0.0, 1.0])],
                vec![rv(&[0.25, 2.5e-17]), rv(&[0.75, f64::MIN_POSITIVE])],
            )),
        ];
        let path = tmp_path("pinned");
        store(&path, ctx, &slots, 2);
        let bytes = fs::read(&path).unwrap();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in &bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        assert_eq!(
            (bytes.len(), h),
            (192, 0x2227_147a_ae36_366c),
            "got {h:#018x}"
        );
        fs::remove_file(&path).unwrap();
    }

    /// A former phase-sampled run folded a non-zero sampling digest into its
    /// context and wrote a third δ table per entry. Such an image must be
    /// refused at the context check, before any entry is parsed.
    #[test]
    fn former_sampled_image_is_rejected_unparsed() {
        let (cfg, profile, profiler) = pinned_context();
        let exact = context_hash(&cfg, &[profile], &profiler, 1.0, 0.75);
        // The earlier `context_hash` for the same inputs with sampling digest
        // 0x9e37_79b9_7f4a_7c15 folded in.
        let sampled_ctx: u64 = 0xfe9a_733d_cc83_3725;
        assert_ne!(sampled_ctx, exact);
        let path = tmp_path("former-sampled");
        let mut image = Vec::new();
        image.extend_from_slice(&EstimateImage::MAGIC);
        for word in [sampled_ctx, 3, 1, 1, 0, 1] {
            image.extend_from_slice(&word.to_le_bytes());
        }
        // p^c, p^e and δ for the block's single instruction.
        for v in [0.25f64, 0.5, 0.125] {
            image.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        fs::write(&path, terse_analyze::frame(&image)).unwrap();
        match load(&path, exact, 3, 1) {
            Err(msg) => assert!(msg.contains("context"), "{msg}"),
            other => panic!("expected a context mismatch, got {other:?}"),
        }
        // A verified image from another run is refused, not treated as damage.
        assert!(path.exists());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mismatches_are_typed_errors() {
        let path = tmp_path("mismatch");
        let slots = vec![Some(bp(vec![rv(&[0.5])], vec![rv(&[0.25])]))];
        store(&path, 7, &slots, 1);
        let ckpt = terse_sim::Checkpoint::new(&path, 1);
        let resume = |context, blocks, s_count| {
            let format = image(context, blocks, s_count);
            match terse_sim::sweep::Sweep::start(&format, Some(&ckpt), None) {
                Ok(_) => None,
                Err(e) => Some(crate::TerseError::from(e)),
            }
        };
        // The matching run resumes.
        assert!(resume(7, 1, 1).is_none());
        // Wrong context hash.
        assert!(matches!(
            resume(8, 1, 1),
            Some(crate::TerseError::Checkpoint(_))
        ));
        // Wrong grid shape.
        assert!(matches!(
            resume(7, 2, 1),
            Some(crate::TerseError::Checkpoint(_))
        ));
        assert!(matches!(
            resume(7, 1, 3),
            Some(crate::TerseError::Checkpoint(_))
        ));
        fs::remove_file(&path).unwrap();
    }
}
