//! Artifact integrity: CRC32 checksums and the versioned `TERSEFR1`
//! envelope that wraps every durable binary artifact of the job server.
//!
//! The serving layer (DESIGN.md §17) persists three kinds of binary or
//! semi-binary artifacts: `TERSECP1` estimate checkpoints, `TERSEMC1`
//! Monte Carlo checkpoints, and `report.json` (digest-stamped via a
//! `report.json.crc32` sidecar). Torn writes are already excluded by the
//! store's tmp+rename protocol *for crashes of our own process* — but not
//! for bit rot, truncation by a full disk, or corruption introduced by
//! anything else that touches the store. The envelope makes every such
//! case **detectable on load**:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"TERSEFR1"
//! 8       4     version (u32 LE, currently 1)
//! 12      8     payload length (u64 LE)
//! 20      4     CRC32 (IEEE) of the payload (u32 LE)
//! 24      n     payload (e.g. a complete TERSECP1 image)
//! ```
//!
//! [`unframe`] distinguishes the three outcomes callers dispatch on:
//! a valid frame (payload returned), a file that predates framing
//! ([`FrameError::NotFramed`] — legacy artifacts stay loadable), and a
//! damaged frame ([`FrameError::Torn`] / [`FrameError::Corrupt`] — the
//! payload is **never** returned, so a corrupt checkpoint can never be
//! loaded).
//!
//! # The checkpoint file protocol
//!
//! Both checkpoint formats share one file protocol; each format supplies
//! only its payload encoder and parser.
//!
//! * **Read** ([`load_checkpoint`]): a missing file is a fresh start. A
//!   verified frame, or a bare legacy image that carries the format's own
//!   magic, is parsed; a parse error there (another run's context, another
//!   grid shape) is the caller's typed error, and the file stays where it
//!   is. Anything else is damage: the image is moved aside as
//!   `<name>`[`CORRUPT_SUFFIX`] evidence and the previous good generation
//!   `<name>`[`BAK_SUFFIX`] is served instead, or a fresh start if that
//!   fails too. Both fallbacks are bit-exact, because checkpoints are pure
//!   recomputation caches.
//! * **Write** ([`store_checkpoint`]): the framed image goes to
//!   `<name>`[`TMP_SUFFIX`], is synced to disk, the outgoing image is
//!   copied to `<name>.bak`, and the tmp file is renamed into place. A
//!   crash at any point leaves an intact primary or an intact `.bak`.
//! * **Finish** ([`finish_checkpoint`]): the file and its `.bak` are
//!   removed; `.corrupt` evidence is left for diagnosis.
//!
//! The three suffixes are the store scrubber's vocabulary too (JS009 and
//! JS011 in [`job_pass`](crate::job_pass)), so this module is the one
//! place that names them.
//!
//! This module lives in `terse-analyze` — the lowest common dependency of
//! `terse` (core), `terse-sim`, and `terse-serve` — for the same reason
//! [`valid_transition`](crate::valid_transition) does: one implementation,
//! shared by the writers, the loaders, and the store scrubber.

use std::fmt;
use std::fs;
use std::io::{ErrorKind, Write as _};
use std::path::{Path, PathBuf};

/// Magic prefix of a framed artifact.
pub const FRAME_MAGIC: [u8; 8] = *b"TERSEFR1";
/// Current frame format version.
pub const FRAME_VERSION: u32 = 1;
/// Size of the fixed frame header preceding the payload.
pub const FRAME_HEADER_LEN: usize = 24;

/// CRC32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) lookup table,
/// built at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `data` — the same polynomial as zip/png/ethernet, so
/// externally produced checksums of store artifacts can be compared
/// directly.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// CRC32 of `data` as fixed-width lowercase hex — the digest form stamped
/// into `report.json.crc32` sidecars.
pub fn crc32_hex(data: &[u8]) -> String {
    format!("{:08x}", crc32(data))
}

/// Why a byte image failed to unframe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The image does not start with [`FRAME_MAGIC`] — either a legacy
    /// (pre-framing) artifact or something else entirely. The caller
    /// decides whether bare payloads are acceptable.
    NotFramed,
    /// The header declares a different length than the image carries —
    /// a truncated (torn) or padded file.
    Torn {
        /// Payload bytes the header promised.
        declared: usize,
        /// Payload bytes actually present.
        actual: usize,
    },
    /// The frame version is newer than this build understands.
    UnknownVersion(u32),
    /// The payload does not match its stored checksum: bit rot, a torn
    /// overwrite, or deliberate corruption.
    Corrupt {
        /// Checksum recorded in the header.
        stored: u32,
        /// Checksum recomputed over the payload.
        computed: u32,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::NotFramed => write!(f, "image is not TERSEFR1-framed"),
            FrameError::Torn { declared, actual } => write!(
                f,
                "torn frame: header declares {declared} payload byte(s), image carries {actual}"
            ),
            FrameError::UnknownVersion(v) => {
                write!(
                    f,
                    "unknown frame version {v} (this build reads version {FRAME_VERSION})"
                )
            }
            FrameError::Corrupt { stored, computed } => write!(
                f,
                "payload checksum mismatch: stored {stored:08x}, computed {computed:08x}"
            ),
        }
    }
}

/// Wraps `payload` in a `TERSEFR1` frame.
///
/// Fail point `integrity::frame_corrupt` (chaos suite): when triggered,
/// one payload byte is flipped *after* the checksum is computed, so the
/// artifact written to disk is corrupt in exactly the way a bit flip
/// would make it — and must be caught by [`unframe`] on the next load.
/// An optional numeric payload selects the byte index to flip.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&FRAME_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    if failpoints::ENABLED {
        if let Some(arg) = failpoints::eval("integrity::frame_corrupt") {
            if payload.is_empty() {
                // Nothing to flip in the payload: damage the checksum field.
                out[FRAME_HEADER_LEN - 1] ^= 0x01;
            } else {
                let idx = arg.parse::<usize>().unwrap_or(0).min(payload.len() - 1);
                out[FRAME_HEADER_LEN + idx] ^= 0x01;
            }
        }
    }
    out
}

/// Validates a `TERSEFR1` frame and returns the payload slice.
///
/// # Errors
///
/// [`FrameError::NotFramed`] for images without the magic (legacy bare
/// payloads — the caller chooses whether to accept them),
/// [`FrameError::Torn`] / [`FrameError::UnknownVersion`] /
/// [`FrameError::Corrupt`] for damaged frames. A payload is returned
/// **only** when its checksum verifies.
pub fn unframe(image: &[u8]) -> Result<&[u8], FrameError> {
    if image.len() < FRAME_MAGIC.len() || image[..FRAME_MAGIC.len()] != FRAME_MAGIC {
        return Err(FrameError::NotFramed);
    }
    if image.len() < FRAME_HEADER_LEN {
        return Err(FrameError::Torn {
            declared: 0,
            actual: image.len().saturating_sub(FRAME_MAGIC.len()),
        });
    }
    let mut u32buf = [0u8; 4];
    let mut u64buf = [0u8; 8];
    u32buf.copy_from_slice(&image[8..12]);
    let version = u32::from_le_bytes(u32buf);
    if version != FRAME_VERSION {
        return Err(FrameError::UnknownVersion(version));
    }
    u64buf.copy_from_slice(&image[12..20]);
    let declared = u64::from_le_bytes(u64buf) as usize;
    u32buf.copy_from_slice(&image[20..24]);
    let stored = u32::from_le_bytes(u32buf);
    let payload = &image[FRAME_HEADER_LEN..];
    if payload.len() != declared {
        return Err(FrameError::Torn {
            declared,
            actual: payload.len(),
        });
    }
    let computed = crc32(payload);
    if computed != stored {
        return Err(FrameError::Corrupt { stored, computed });
    }
    Ok(payload)
}

/// Suffix of a checkpoint's previous good generation, refreshed on every
/// flush.
pub const BAK_SUFFIX: &str = ".bak";
/// Suffix of a damaged checkpoint image a loader set aside as evidence.
pub const CORRUPT_SUFFIX: &str = ".corrupt";
/// Suffix of a checkpoint writer's staging file; never read.
pub const TMP_SUFFIX: &str = ".tmp";

/// `path` with `suffix` appended to its full file name (`est-0.ckpt` +
/// [`BAK_SUFFIX`] → `est-0.ckpt.bak`).
pub fn suffixed(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(suffix);
    PathBuf::from(name)
}

/// Reads the newest intact generation of the checkpoint at `path` and
/// parses its payload; `Ok(None)` is a fresh start (see the module docs).
///
/// `legacy_magic` is the first eight bytes of the format's bare payload: an
/// unframed image that starts with it predates framing and is parsed as
/// is. Bytes with neither frame nor magic (a zero-length file from ENOSPC,
/// a torn non-atomic write) are damage, not legacy.
///
/// # Errors
///
/// A read failure other than a missing file, or `parse`'s error for a
/// verified (or legacy) image. Damage is never an error.
pub fn load_checkpoint<T>(
    path: &Path,
    legacy_magic: &[u8; 8],
    parse: impl Fn(&[u8]) -> Result<T, String>,
) -> Result<Option<T>, String> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    match unframe(&bytes) {
        Ok(payload) => parse(payload).map(Some),
        Err(FrameError::NotFramed) if bytes.starts_with(legacy_magic) => parse(&bytes).map(Some),
        Err(_damage) => {
            // Detected corruption: preserve the evidence, never parse it.
            let _ = fs::rename(path, suffixed(path, CORRUPT_SUFFIX));
            let previous = fs::read(suffixed(path, BAK_SUFFIX)).ok().and_then(|bak| {
                let payload = unframe(&bak).ok()?;
                parse(payload).ok()
            });
            Ok(previous)
        }
    }
}

/// Durably writes `payload` as the checkpoint at `path`: frames it, writes
/// and syncs `<path>.tmp`, keeps the outgoing image as `<path>.bak`, then
/// renames the tmp file into place.
///
/// # Errors
///
/// A failure to create, write, sync or rename the tmp file. The `.bak`
/// copy is best-effort: a failed copy only narrows a later fallback to a
/// fresh start, and a torn copy is caught by its CRC.
pub fn store_checkpoint(path: &Path, payload: &[u8]) -> Result<(), String> {
    let image = frame(payload);
    let tmp = suffixed(path, TMP_SUFFIX);
    let mut f = fs::File::create(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    f.write_all(&image)
        .map_err(|e| format!("write {}: {e}", tmp.display()))?;
    f.sync_all()
        .map_err(|e| format!("sync {}: {e}", tmp.display()))?;
    drop(f);
    if path.exists() {
        let _ = fs::copy(path, suffixed(path, BAK_SUFFIX));
    }
    fs::rename(&tmp, path)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))
}

/// Removes a finished checkpoint and its `.bak` generation. A missing file
/// is fine (the sweep may never have flushed); `.corrupt` evidence is left
/// for diagnosis.
///
/// # Errors
///
/// A failure to remove the primary image other than its absence.
pub fn finish_checkpoint(path: &Path) -> Result<(), String> {
    let _ = fs::remove_file(suffixed(path, BAK_SUFFIX));
    match fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("remove {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_ieee_check_vector() {
        // The canonical CRC32 check value: crc32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_hex(b"123456789"), "cbf43926");
    }

    #[test]
    fn frame_roundtrips_all_payload_shapes() {
        for payload in [&b""[..], &b"x"[..], &[0u8; 1024][..], b"TERSECP1 inner"] {
            let image = frame(payload);
            assert_eq!(image.len(), FRAME_HEADER_LEN + payload.len());
            assert_eq!(unframe(&image), Ok(payload));
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let image = frame(b"some checkpoint payload");
        for byte in 0..image.len() {
            for bit in 0..8u8 {
                let mut damaged = image.clone();
                damaged[byte] ^= 1 << bit;
                assert!(
                    unframe(&damaged).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn truncation_and_extension_are_torn() {
        let image = frame(b"payload bytes");
        for cut in FRAME_HEADER_LEN..image.len() {
            match unframe(&image[..cut]) {
                Err(FrameError::Torn { .. }) => {}
                other => panic!("truncation to {cut} gave {other:?}"),
            }
        }
        let mut extended = image.clone();
        extended.push(0);
        assert!(matches!(unframe(&extended), Err(FrameError::Torn { .. })));
        // Cutting into the header is also torn (magic still present).
        assert!(matches!(
            unframe(&image[..10]),
            Err(FrameError::Torn { .. })
        ));
    }

    #[test]
    fn bare_payloads_and_foreign_files_are_not_framed() {
        assert_eq!(
            unframe(b"TERSECP1 legacy image"),
            Err(FrameError::NotFramed)
        );
        assert_eq!(unframe(b""), Err(FrameError::NotFramed));
        assert_eq!(unframe(b"short"), Err(FrameError::NotFramed));
    }

    #[test]
    fn future_versions_are_rejected_not_misread() {
        let mut image = frame(b"payload");
        image[8..12].copy_from_slice(&2u32.to_le_bytes());
        assert_eq!(unframe(&image), Err(FrameError::UnknownVersion(2)));
    }

    #[test]
    fn display_forms_are_informative() {
        let s = FrameError::Corrupt {
            stored: 0xDEAD_BEEF,
            computed: 1,
        }
        .to_string();
        assert!(s.contains("deadbeef"), "{s}");
        assert!(FrameError::NotFramed.to_string().contains("TERSEFR1"));
    }

    // --- The checkpoint file protocol, over both payload formats ---------

    /// One checkpoint payload format as the protocol sees it: its magic and
    /// a well-formed bare image bound to a run context.
    struct Format {
        name: &'static str,
        magic: [u8; 8],
        image: fn(u64) -> Vec<u8>,
    }

    fn words(magic: &[u8; 8], words: &[u64]) -> Vec<u8> {
        let mut out = magic.to_vec();
        for w in words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// `TERSECP1`: context, 2 blocks, 2 samples, one entry (block 0, one
    /// instruction, its p^c and p^e samples).
    fn cp1_image(context: u64) -> Vec<u8> {
        let samples = [0.1f64, 0.2, 0.3, 0.4].map(f64::to_bits);
        let mut fields = vec![context, 2, 2, 1, 0, 1];
        fields.extend(samples);
        words(b"TERSECP1", &fields)
    }

    /// `TERSEMC1`: context, a 3 × 2 grid, one entry (cell 3, count 17).
    fn mc1_image(context: u64) -> Vec<u8> {
        words(b"TERSEMC1", &[context, 6, 1, 3, 17])
    }

    const FORMATS: [Format; 2] = [
        Format {
            name: "cp1",
            magic: *b"TERSECP1",
            image: cp1_image,
        },
        Format {
            name: "mc1",
            magic: *b"TERSEMC1",
            image: mc1_image,
        },
    ];

    const CONTEXT: u64 = 0x5EED_C0DE;

    impl Format {
        /// A fresh path for one test case, with no generation files left
        /// over from an earlier run.
        fn path(&self, tag: &str) -> PathBuf {
            let path = std::env::temp_dir().join(format!(
                "terse-integrity-{tag}-{}-{}.ckpt",
                self.name,
                std::process::id()
            ));
            clean(&path);
            path
        }

        /// The format's parser as far as the protocol is concerned: its
        /// magic, then its run context (the image is returned whole).
        fn load(&self, path: &Path) -> Result<Option<Vec<u8>>, String> {
            load_checkpoint(path, &self.magic, |bytes| {
                if !bytes.starts_with(&self.magic) {
                    return Err("bad magic".into());
                }
                if bytes.get(8..16) != Some(&CONTEXT.to_le_bytes()[..]) {
                    return Err("checkpoint context does not match this run".into());
                }
                Ok(bytes.to_vec())
            })
        }

        fn store(&self, path: &Path) -> Vec<u8> {
            let image = (self.image)(CONTEXT);
            store_checkpoint(path, &image).unwrap();
            image
        }
    }

    /// Removes a checkpoint and every generation file beside it.
    fn clean(path: &Path) {
        for suffix in ["", BAK_SUFFIX, CORRUPT_SUFFIX, TMP_SUFFIX] {
            let _ = fs::remove_file(suffixed(path, suffix));
        }
    }

    #[test]
    fn stored_images_are_framed_and_roundtrip() {
        for f in &FORMATS {
            let path = f.path("roundtrip");
            let image = f.store(&path);
            let bytes = fs::read(&path).unwrap();
            assert_eq!(unframe(&bytes), Ok(&image[..]), "{}", f.name);
            assert_eq!(f.load(&path), Ok(Some(image)), "{}", f.name);
            assert!(!suffixed(&path, TMP_SUFFIX).exists(), "{}", f.name);
            clean(&path);
        }
    }

    #[test]
    fn missing_file_is_a_fresh_start() {
        for f in &FORMATS {
            let path = f.path("missing");
            assert_eq!(f.load(&path), Ok(None), "{}", f.name);
        }
    }

    #[test]
    fn damaged_image_falls_back_to_the_previous_generation() {
        for f in &FORMATS {
            let path = f.path("fallback");
            let image = f.store(&path);
            // Second flush: the first image becomes `.bak`.
            f.store(&path);
            assert!(suffixed(&path, BAK_SUFFIX).exists(), "{}", f.name);
            // Flip a payload bit in the primary: the CRC catches it, the
            // loader sets the evidence aside and serves the `.bak` image.
            let mut bytes = fs::read(&path).unwrap();
            let last = bytes.len() - 1;
            bytes[last] ^= 0x20;
            fs::write(&path, &bytes).unwrap();
            assert_eq!(f.load(&path), Ok(Some(image)), "{}", f.name);
            assert!(
                suffixed(&path, CORRUPT_SUFFIX).exists(),
                "{}: evidence file preserved",
                f.name
            );
            assert!(!path.exists(), "{}: damaged primary set aside", f.name);
            clean(&path);
        }
    }

    #[test]
    fn damaged_image_without_backup_is_a_fresh_start() {
        for f in &FORMATS {
            let path = f.path("fresh");
            f.store(&path);
            // Truncate the framed image mid-payload: torn, no .bak to serve.
            let bytes = fs::read(&path).unwrap();
            fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
            assert_eq!(f.load(&path), Ok(None), "{}: never a torn parse", f.name);
            assert!(suffixed(&path, CORRUPT_SUFFIX).exists(), "{}", f.name);
            clean(&path);
        }
    }

    #[test]
    fn garbage_and_zero_length_images_are_set_aside_as_corrupt() {
        // Bytes with neither frame nor magic are indistinguishable from a
        // torn write: damage, not a foreign image — set aside as `.corrupt`
        // and restarted fresh, never parsed, never a hard error.
        for f in &FORMATS {
            for garbage in [b"not a checkpoint at all".as_slice(), b"".as_slice()] {
                let path = f.path("garbage");
                fs::write(&path, garbage).unwrap();
                assert_eq!(f.load(&path), Ok(None), "{}", f.name);
                assert!(
                    suffixed(&path, CORRUPT_SUFFIX).exists(),
                    "{}: evidence preserved",
                    f.name
                );
                clean(&path);
            }
        }
    }

    #[test]
    fn legacy_bare_images_remain_loadable() {
        for f in &FORMATS {
            let path = f.path("legacy");
            let image = (f.image)(CONTEXT);
            fs::write(&path, &image).unwrap();
            assert_eq!(f.load(&path), Ok(Some(image)), "{}", f.name);
            // Only the format's own magic marks a bare image as legacy.
            let other = FORMATS.iter().find(|o| o.name != f.name).unwrap();
            assert_eq!(other.load(&path), Ok(None), "{}", f.name);
            clean(&path);
        }
    }

    #[test]
    fn verified_image_of_another_run_is_an_error_and_stays_in_place() {
        for f in &FORMATS {
            let path = f.path("other-run");
            store_checkpoint(&path, &(f.image)(CONTEXT ^ 1)).unwrap();
            let err = f.load(&path).unwrap_err();
            assert!(err.contains("context"), "{}: {err}", f.name);
            assert!(path.exists(), "{}: not moved aside", f.name);
            assert!(!suffixed(&path, CORRUPT_SUFFIX).exists(), "{}", f.name);
            clean(&path);
        }
    }

    #[test]
    fn finish_removes_the_backup_generation_too() {
        for f in &FORMATS {
            let path = f.path("finish");
            f.store(&path);
            f.store(&path);
            fs::write(suffixed(&path, CORRUPT_SUFFIX), b"evidence").unwrap();
            assert!(suffixed(&path, BAK_SUFFIX).exists(), "{}", f.name);
            finish_checkpoint(&path).unwrap();
            assert!(!path.exists() && !suffixed(&path, BAK_SUFFIX).exists());
            assert!(
                suffixed(&path, CORRUPT_SUFFIX).exists(),
                "{}: evidence is left for diagnosis",
                f.name
            );
            // Finishing a sweep that never flushed is fine.
            finish_checkpoint(&path).unwrap();
            clean(&path);
        }
    }
}
