//! Hand-rolled binary checkpointing of [`Framework::estimate`]'s per-block
//! conditional-probability sweep.
//!
//! [`Framework::estimate`] computes one unit of work per basic block (the
//! `p^c`/`p^e` [`SampleRv`] tables of Eq. 2). Each unit is a pure function
//! of the CFG, the profiles, the trained model, and the operating point —
//! no RNG is consumed — so a sweep can be interrupted after any prefix of
//! blocks and resumed *bitwise identically*: the remaining blocks produce
//! exactly the values they would have produced in an uninterrupted run.
//!
//! The on-disk format is deliberately tiny and serde-free (the workspace is
//! fully offline):
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
//! rather than silently mixed in. Writes are atomic (temp file + rename), so a crash mid-write leaves
//! the previous checkpoint intact. `f64` values round-trip through their
//! IEEE-754 bit patterns, preserving bitwise identity across save/resume.
//!
//! Since DESIGN.md §17 the image above is wrapped in the workspace-wide
//! `TERSEFR1` integrity envelope (`terse_analyze::integrity`): every flush
//! is CRC32-stamped, and every load verifies the checksum before parsing a
//! byte. Damage — truncation by a full disk, bit rot, external tampering —
//! is therefore *detected*, never loaded: the loader sets the damaged file
//! aside as `<name>.corrupt` evidence and falls back to the previous good
//! image (`<name>.bak`, refreshed on each flush) or, failing that, to a
//! fresh start. Both fallbacks are bit-exact because a checkpoint is a
//! pure recomputation cache. Legacy unframed images remain loadable.
//!
//! [`Framework::estimate`]: crate::Framework::estimate
//! [`SampleRv`]: terse_stats::SampleRv

use crate::{Result, TerseError};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use terse_isa::Cfg;
use terse_sim::{ProfileResult, Profiler};
use terse_stats::SampleRv;

/// Checkpoint configuration for [`Framework::estimate`]'s per-block sweep
/// (set via [`FrameworkBuilder::checkpoint`]).
///
/// [`Framework::estimate`]: crate::Framework::estimate
/// [`FrameworkBuilder::checkpoint`]: crate::FrameworkBuilder::checkpoint
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EstimateCheckpoint {
    path: PathBuf,
    every_n: usize,
}

impl EstimateCheckpoint {
    /// A checkpoint at `path`, flushed after every `every_n` completed
    /// blocks (`0` is treated as `1`).
    pub fn new(path: impl Into<PathBuf>, every_n: usize) -> Self {
        EstimateCheckpoint {
            path: path.into(),
            every_n: every_n.max(1),
        }
    }

    /// The checkpoint file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Blocks per checkpoint flush.
    pub fn every_n(&self) -> usize {
        self.every_n
    }
}

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

const MAGIC: &[u8; 8] = b"TERSECP1";

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

fn ck_err(message: impl Into<String>) -> TerseError {
    TerseError::Checkpoint(message.into())
}

/// `path` with `suffix` appended to the full file name (`est-0.ckpt` +
/// `.bak` → `est-0.ckpt.bak`).
pub(crate) fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    PathBuf::from(name)
}

/// Loads a checkpoint into per-block slots (`None` = not yet computed).
///
/// A missing file is a fresh start. A CRC-damaged or torn image is set
/// aside as `.corrupt` evidence and the previous good image (`.bak`) is
/// loaded instead — or a fresh start if there is none; either way the
/// resumed run recomputes exactly what the damaged image would have
/// cached, so the result is unchanged. A *verified* image that does not
/// match this run (context hash, grid shape) is a typed error — a
/// checkpoint from a different run is never mixed in.
pub(crate) fn load(
    path: &Path,
    context: u64,
    total_blocks: usize,
    s_count: usize,
) -> Result<Vec<Option<BlockProbs>>> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(vec![None; total_blocks]);
        }
        Err(e) => return Err(ck_err(format!("read {}: {e}", path.display()))),
    };
    match terse_analyze::unframe(&bytes) {
        Ok(payload) => parse_image(payload, context, total_blocks, s_count),
        // Pre-framing image: parse the bare bytes (its own magic still
        // guards against foreign files). Bytes with neither frame nor
        // magic (zero-length files from ENOSPC, torn non-atomic writes)
        // are damage, not legacy.
        Err(terse_analyze::FrameError::NotFramed)
            if bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == *MAGIC =>
        {
            parse_image(&bytes, context, total_blocks, s_count)
        }
        Err(_damage) => {
            // Detected corruption: preserve the evidence, never parse it.
            let _ = fs::rename(path, sibling(path, ".corrupt"));
            let bak = sibling(path, ".bak");
            if let Ok(bak_bytes) = fs::read(&bak) {
                if let Ok(payload) = terse_analyze::unframe(&bak_bytes) {
                    if let Ok(slots) = parse_image(payload, context, total_blocks, s_count) {
                        return Ok(slots);
                    }
                }
            }
            Ok(vec![None; total_blocks])
        }
    }
}

/// Parses a verified (or legacy bare) `TERSECP1` image.
fn parse_image(
    bytes: &[u8],
    context: u64,
    total_blocks: usize,
    s_count: usize,
) -> Result<Vec<Option<BlockProbs>>> {
    let mut pos = 0usize;
    let mut take8 = |what: &str| -> Result<[u8; 8]> {
        let end = pos
            .checked_add(8)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| ck_err(format!("truncated checkpoint while reading {what}")))?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&bytes[pos..end]);
        pos = end;
        Ok(buf)
    };
    if take8("magic")? != *MAGIC {
        return Err(ck_err("not a TERSE estimate checkpoint (bad magic)"));
    }
    let file_ctx = u64::from_le_bytes(take8("context hash")?);
    if file_ctx != context {
        return Err(ck_err(format!(
            "checkpoint context {file_ctx:#018x} does not match this run \
             ({context:#018x}); delete the file or restore the original \
             configuration"
        )));
    }
    let file_blocks = u64::from_le_bytes(take8("block count")?);
    if file_blocks != total_blocks as u64 {
        return Err(ck_err(format!(
            "checkpoint covers {file_blocks} blocks, run has {total_blocks}"
        )));
    }
    let file_s = u64::from_le_bytes(take8("sample count")?);
    if file_s != s_count as u64 {
        return Err(ck_err(format!(
            "checkpoint has {file_s} samples per rv, run has {s_count}"
        )));
    }
    let entries = u64::from_le_bytes(take8("entry count")?);
    if entries > total_blocks as u64 {
        return Err(ck_err(format!(
            "checkpoint claims {entries} entries for {total_blocks} blocks"
        )));
    }
    let mut slots: Vec<Option<BlockProbs>> = vec![None; total_blocks];
    for _ in 0..entries {
        let idx = u64::from_le_bytes(take8("block index")?) as usize;
        if idx >= total_blocks {
            return Err(ck_err(format!("block index {idx} out of range")));
        }
        let n_inst = u64::from_le_bytes(take8("instruction count")?) as usize;
        let mut read_table = |what: &str| -> Result<Vec<SampleRv>> {
            let mut table = Vec::with_capacity(n_inst);
            for _ in 0..n_inst {
                let mut samples = Vec::with_capacity(s_count);
                for _ in 0..s_count {
                    samples.push(f64::from_bits(u64::from_le_bytes(take8(what)?)));
                }
                table.push(
                    SampleRv::new(samples)
                        .map_err(|e| ck_err(format!("corrupt {what} samples: {e}")))?,
                );
            }
            Ok(table)
        };
        let cc = read_table("p^c")?;
        let ce = read_table("p^e")?;
        if slots[idx].is_some() {
            return Err(ck_err(format!("duplicate entry for block {idx}")));
        }
        slots[idx] = Some(BlockProbs { cc, ce });
    }
    Ok(slots)
}

/// Atomically writes the completed slots to `path` (temp file + rename),
/// wrapped in the `TERSEFR1` integrity envelope. The previous image is
/// preserved as `.bak` so a later load can fall back past a damaged
/// primary.
pub(crate) fn store(
    path: &Path,
    context: u64,
    slots: &[Option<BlockProbs>],
    s_count: usize,
) -> Result<()> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&context.to_le_bytes());
    out.extend_from_slice(&(slots.len() as u64).to_le_bytes());
    out.extend_from_slice(&(s_count as u64).to_le_bytes());
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
    let image = terse_analyze::frame(&out);
    let tmp = path.with_extension("tmp");
    let mut f =
        fs::File::create(&tmp).map_err(|e| ck_err(format!("create {}: {e}", tmp.display())))?;
    f.write_all(&image)
        .map_err(|e| ck_err(format!("write {}: {e}", tmp.display())))?;
    f.sync_all()
        .map_err(|e| ck_err(format!("sync {}: {e}", tmp.display())))?;
    drop(f);
    // Keep the outgoing image as the fallback generation. Best-effort: a
    // failed copy only narrows fallback to a fresh start, and a torn copy
    // is caught by its CRC.
    if path.exists() {
        let _ = fs::copy(path, sibling(path, ".bak"));
    }
    fs::rename(&tmp, path).map_err(|e| {
        ck_err(format!(
            "rename {} -> {}: {e}",
            tmp.display(),
            path.display()
        ))
    })?;
    Ok(())
}

/// Removes a completed checkpoint and its `.bak` generation (a missing
/// file is fine — e.g. the run never flushed before finishing).
/// `.corrupt` evidence files are deliberately left for diagnosis.
pub(crate) fn finish(path: &Path) -> Result<()> {
    let _ = fs::remove_file(sibling(path, ".bak"));
    match fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(ck_err(format!("remove {}: {e}", path.display()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("terse-ckpt-{tag}-{}.bin", std::process::id()))
    }

    fn rv(samples: &[f64]) -> SampleRv {
        SampleRv::new(samples.to_vec()).unwrap()
    }

    fn bp(cc: Vec<SampleRv>, ce: Vec<SampleRv>) -> BlockProbs {
        BlockProbs { cc, ce }
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
        store(&path, 42, &slots, 2).unwrap();
        let loaded = load(&path, 42, 3, 2).unwrap();
        assert_eq!(loaded.len(), 3);
        assert!(loaded[1].is_none());
        assert_eq!(slots, loaded, "SampleRv equality is bitwise on samples");
        finish(&path).unwrap();
        assert!(!path.exists());
        // Removing again is fine.
        finish(&path).unwrap();
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
        image.extend_from_slice(MAGIC);
        for word in [sampled_ctx, 3, 1, 1, 0, 1] {
            image.extend_from_slice(&word.to_le_bytes());
        }
        // p^c, p^e and δ for the block's single instruction.
        for v in [0.25f64, 0.5, 0.125] {
            image.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        fs::write(&path, terse_analyze::frame(&image)).unwrap();
        match load(&path, exact, 3, 1) {
            Err(TerseError::Checkpoint(msg)) => {
                assert!(msg.contains("context"), "{msg}");
            }
            other => panic!("expected a context mismatch, got {other:?}"),
        }
        // A verified image from another run is refused, not treated as damage.
        assert!(path.exists() && !sibling(&path, ".corrupt").exists());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mismatches_are_typed_errors() {
        let path = tmp_path("mismatch");
        let slots = vec![Some(bp(vec![rv(&[0.5])], vec![rv(&[0.25])]))];
        store(&path, 7, &slots, 1).unwrap();
        // Wrong context hash.
        assert!(matches!(
            load(&path, 8, 1, 1),
            Err(TerseError::Checkpoint(_))
        ));
        // Wrong grid shape.
        assert!(matches!(
            load(&path, 7, 2, 1),
            Err(TerseError::Checkpoint(_))
        ));
        assert!(matches!(
            load(&path, 7, 1, 3),
            Err(TerseError::Checkpoint(_))
        ));
        // Garbage bytes (no TERSEFR1 envelope, no TERSECP1 magic) are
        // indistinguishable from a torn write: damage, not a foreign
        // image — set aside as `.corrupt` and restarted fresh.
        for garbage in [b"not a checkpoint at all".as_slice(), b"".as_slice()] {
            fs::write(&path, garbage).unwrap();
            assert_eq!(load(&path, 7, 1, 1).unwrap(), vec![None]);
            assert!(sibling(&path, ".corrupt").exists(), "evidence preserved");
            let _ = fs::remove_file(sibling(&path, ".corrupt"));
        }
        let _ = fs::remove_file(&path);
        let _ = fs::remove_file(sibling(&path, ".bak"));
    }

    #[test]
    fn missing_file_is_a_fresh_start() {
        let path = tmp_path("missing");
        let slots = load(&path, 1, 4, 2).unwrap();
        assert_eq!(slots, vec![None, None, None, None]);
    }

    #[test]
    fn damaged_image_falls_back_to_the_previous_generation() {
        let path = tmp_path("fallback");
        let _ = fs::remove_file(sibling(&path, ".bak"));
        let _ = fs::remove_file(sibling(&path, ".corrupt"));
        let gen1 = vec![Some(bp(vec![rv(&[0.5])], vec![rv(&[0.25])]))];
        store(&path, 7, &gen1, 1).unwrap();
        // Second flush: the first image becomes `.bak`.
        store(&path, 7, &gen1, 1).unwrap();
        assert!(sibling(&path, ".bak").exists());
        // Flip a payload bit in the primary: the CRC catches it, the
        // loader sets the evidence aside and serves the `.bak` image.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x20;
        fs::write(&path, &bytes).unwrap();
        let slots = load(&path, 7, 1, 1).unwrap();
        assert_eq!(slots.len(), 1);
        let entry = slots[0].as_ref().expect("fallback restored the entry");
        assert_eq!(entry.cc[0].samples(), &[0.5]);
        assert_eq!(entry.ce[0].samples(), &[0.25]);
        assert!(
            sibling(&path, ".corrupt").exists(),
            "evidence file preserved"
        );
        assert!(!path.exists(), "damaged primary was set aside");
        fs::remove_file(sibling(&path, ".bak")).unwrap();
        fs::remove_file(sibling(&path, ".corrupt")).unwrap();
    }

    #[test]
    fn damaged_image_without_backup_is_a_fresh_start() {
        let path = tmp_path("fresh");
        let _ = fs::remove_file(sibling(&path, ".bak"));
        let _ = fs::remove_file(sibling(&path, ".corrupt"));
        let slots = vec![Some(bp(vec![rv(&[0.5])], vec![rv(&[0.25])]))];
        store(&path, 7, &slots, 1).unwrap();
        // Truncate the framed image mid-payload: torn, no .bak to serve.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        let loaded = load(&path, 7, 1, 1).unwrap();
        assert_eq!(loaded, vec![None], "fresh start, never a torn parse");
        assert!(sibling(&path, ".corrupt").exists());
        fs::remove_file(sibling(&path, ".corrupt")).unwrap();
    }

    #[test]
    fn legacy_bare_images_remain_loadable() {
        let path = tmp_path("legacy");
        let slots = vec![Some(bp(vec![rv(&[0.5])], vec![rv(&[0.25])]))];
        store(&path, 7, &slots, 1).unwrap();
        // Strip the envelope, leaving the bare TERSECP1 image on disk.
        let framed = fs::read(&path).unwrap();
        let payload = terse_analyze::unframe(&framed).unwrap().to_vec();
        fs::write(&path, &payload).unwrap();
        let loaded = load(&path, 7, 1, 1).unwrap();
        assert!(loaded[0].is_some());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn finish_removes_the_backup_generation_too() {
        let path = tmp_path("finish_bak");
        let slots = vec![Some(bp(vec![rv(&[0.5])], vec![rv(&[0.25])]))];
        store(&path, 7, &slots, 1).unwrap();
        store(&path, 7, &slots, 1).unwrap();
        assert!(sibling(&path, ".bak").exists());
        finish(&path).unwrap();
        assert!(!path.exists() && !sibling(&path, ".bak").exists());
    }
}
