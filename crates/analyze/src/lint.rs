//! Custom codebase lints over the workspace's own Rust sources.
//!
//! The build environment is fully offline (no registry, hence no `syn`),
//! so the driver is a hand-rolled scanner: a whole-file masking pass
//! blanks string literals and comments while preserving line structure,
//! and line-level pattern rules run over the masked text with brace-depth
//! tracking for `#[cfg(test)]` regions and `#[allow(...)]` scopes. That
//! is deliberately cruder than a type-aware lint — the rules are written
//! so that false *negatives* are possible but false positives are cheap
//! to silence with an audited marker comment:
//!
//! ```text
//! // terse-analyze: allow(AZ002): iteration order is erased by the sort below.
//! ```
//!
//! A marker on a line (or the line above) suppresses that code there.
//! Clippy's `#[allow(clippy::unwrap_used)]` / `expect_used` attributes are
//! honoured for the panic rule, so the PR 3 audit trail keeps working.
//!
//! Rules (all `Error` severity — the CI job is a deny gate):
//!
//! | code  | meaning | scope |
//! |-------|---------|-------|
//! | AZ001 | panicking API (`.unwrap()`, `.expect(…)`, `panic!`, `todo!`, `unreachable!`, `unimplemented!`) | library crates (not `oracle`/`bench`) |
//! | AZ002 | iteration over a `HashMap`/`HashSet` (nondeterministic order on paths feeding the index-ordered parallel merges) | all crates |
//! | AZ003 | wall-clock or entropy-seeded randomness (`Instant::now`, `SystemTime::now`, `thread_rng`, `from_entropy`, …) | library crates (not `bench`) |
//! | AZ004 | registered fail point with no fault-injection test referencing it (see [`lint_fail_point_coverage`]) | all crates |
//! | AZ005 | lossy `as` cast to a ≤32-bit integer type with no bounding evidence on the line (mask, `min`/`clamp`, bit-count, `wrapping_*`, index-newtype round-trip) | hot value-path crates (`netlist`/`dta`/`sim`) |

use crate::{AnalysisReport, Severity};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Which rules apply to one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuleSet {
    /// AZ001 — forbid panicking APIs.
    pub panic: bool,
    /// AZ002 — forbid hash-order iteration.
    pub hash_iter: bool,
    /// AZ003 — forbid wall-clock / entropy randomness.
    pub entropy: bool,
    /// AZ005 — forbid unproven lossy `as` integer casts.
    pub cast: bool,
}

impl RuleSet {
    /// Every rule on.
    pub fn all() -> Self {
        RuleSet {
            panic: true,
            hash_iter: true,
            entropy: true,
            cast: true,
        }
    }

    /// The rule set for a workspace crate, by crate directory name.
    /// `oracle` (test-fixture generators, allowed to assert) and `bench`
    /// (measures wall-clock by design) get reduced sets, mirroring the
    /// clippy no-panic gate's crate list. The cast rule covers only the
    /// hot value-path crates, where a silently truncated index or
    /// reinterpreted immediate corrupts λ rather than a report.
    pub fn for_crate(crate_dir: &str) -> Self {
        RuleSet {
            panic: !matches!(crate_dir, "oracle" | "bench"),
            hash_iter: true,
            entropy: crate_dir != "bench",
            cast: matches!(crate_dir, "netlist" | "dta" | "sim"),
        }
    }
}

/// Masks string literals, char literals and comments out of Rust source,
/// preserving byte positions of everything structural (newlines, braces,
/// punctuation). The masked text is what the pattern rules scan, so a
/// `.unwrap()` inside a doc comment or a format string never matches.
pub fn mask_source(src: &str) -> String {
    let b = src.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(b.len());
    let mut i = 0usize;
    let n = b.len();
    let blank = |out: &mut Vec<u8>, from: usize, to: usize, b: &[u8]| {
        for &c in &b[from..to] {
            out.push(if c == b'\n' { b'\n' } else { b' ' });
        }
    };
    while i < n {
        let c = b[i];
        match c {
            b'/' if i + 1 < n && b[i + 1] == b'/' => {
                // Line comment (incl. doc comments): blank to end of line.
                let end = memchr_newline(b, i);
                blank(&mut out, i, end, b);
                i = end;
            }
            b'/' if i + 1 < n && b[i + 1] == b'*' => {
                // Block comment; Rust block comments nest.
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < n && depth > 0 {
                    if j + 1 < n && b[j] == b'/' && b[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if j + 1 < n && b[j] == b'*' && b[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, i, j, b);
                i = j;
            }
            b'"' => {
                // Ordinary string literal with escapes.
                out.push(b'"');
                let mut j = i + 1;
                while j < n {
                    if b[j] == b'\\' && j + 1 < n {
                        // A `\<newline>` continuation must keep its
                        // newline or every later line number shifts.
                        out.push(b' ');
                        out.push(if b[j + 1] == b'\n' { b'\n' } else { b' ' });
                        j += 2;
                    } else if b[j] == b'"' {
                        break;
                    } else {
                        out.push(if b[j] == b'\n' { b'\n' } else { b' ' });
                        j += 1;
                    }
                }
                if j < n {
                    out.push(b'"');
                    j += 1;
                }
                i = j;
            }
            b'r' | b'b' if is_raw_string_start(b, i) => {
                // Raw (byte) string: r"…", r#"…"#, br##"…"##.
                let mut j = i + 1;
                if b[j] == b'r' {
                    j += 1; // the `br` case
                }
                let mut hashes = 0usize;
                while j < n && b[j] == b'#' {
                    hashes += 1;
                    j += 1;
                }
                // b[j] is the opening quote.
                let mut k = j + 1;
                while k < n {
                    if b[k] == b'"'
                        && b[k + 1..].len() >= hashes
                        && b[k + 1..k + 1 + hashes].iter().all(|&h| h == b'#')
                    {
                        k += 1 + hashes;
                        break;
                    }
                    k += 1;
                }
                blank(&mut out, i, k.min(n), b);
                i = k.min(n);
            }
            b'\'' => {
                // Char literal vs lifetime. A char literal closes within a
                // few bytes; a lifetime has no closing quote.
                if let Some(end) = char_literal_end(b, i) {
                    blank(&mut out, i, end, b);
                    i = end;
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn memchr_newline(b: &[u8], from: usize) -> usize {
    b[from..]
        .iter()
        .position(|&c| c == b'\n')
        .map_or(b.len(), |p| from + p)
}

/// Whether position `i` starts a raw string literal (`r"`, `r#`, `br"`,
/// `br#`) rather than an identifier like `radius` or a plain `b"…"`
/// (handled by the `"` arm via its prefix byte being pushed as code).
fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    // Must not be preceded by an identifier character (`for r in …`,
    // `attr` etc. are identifiers containing r).
    if i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_') {
        return false;
    }
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
        if j >= b.len() || b[j] != b'r' {
            return false;
        }
    }
    if b[j] != b'r' {
        return false;
    }
    j += 1;
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

/// If `i` (at a `'`) opens a char literal, its past-the-end offset.
fn char_literal_end(b: &[u8], i: usize) -> Option<usize> {
    let n = b.len();
    if i + 2 < n && b[i + 1] == b'\\' {
        // Escaped char: find the closing quote within a small window
        // (\n, \', \u{1F600}).
        let mut j = i + 2;
        let limit = (i + 12).min(n);
        while j < limit {
            if b[j] == b'\'' {
                return Some(j + 1);
            }
            j += 1;
        }
        return None;
    }
    // Unescaped char literal: `'x'` (possibly multi-byte UTF-8).
    let mut j = i + 1;
    let mut seen = 0usize;
    while j < n && seen < 5 {
        if b[j] == b'\'' {
            return (seen > 0).then_some(j + 1);
        }
        // Count a UTF-8 scalar as one.
        if b[j] & 0xC0 != 0x80 {
            seen += 1;
        }
        j += 1;
    }
    None
}

/// The identifiers one source file binds to a `HashMap`/`HashSet`, split by
/// how far the name reaches.
#[derive(Debug, Default)]
pub struct HashNames {
    /// Fields and parameters. A field is read through its struct from any
    /// file, so the union over the workspace forms the shared AZ002 table.
    pub shared: BTreeSet<String>,
    /// `let` bindings, which AZ002 applies only within their own file.
    pub local: BTreeSet<String>,
}

/// Collects identifiers declared with a `HashMap`/`HashSet` type in one
/// masked source file: fields and params into [`HashNames::shared`], lets
/// into [`HashNames::local`].
pub fn collect_hash_names(masked: &str) -> HashNames {
    let mut names = HashNames::default();
    for line in masked.lines() {
        // `name: HashMap<…>` / `name: &HashSet<…>` (field, param, let).
        for ty in ["HashMap<", "HashSet<"] {
            let mut from = 0usize;
            while let Some(p) = line[from..].find(ty) {
                let abs = from + p;
                if let Some(name) = ident_before_decl(line, abs) {
                    if let_binding_name(&line[..abs]).as_ref() == Some(&name) {
                        names.local.insert(name);
                    } else {
                        names.shared.insert(name);
                    }
                }
                from = abs + ty.len();
            }
        }
        // `let [mut] name = HashMap::new()` / `with_capacity` /
        // `…collect::<HashMap…>()`.
        let ctor = [
            "HashMap::",
            "HashSet::",
            "collect::<HashMap",
            "collect::<HashSet",
        ]
        .iter()
        .any(|p| line.contains(p));
        if ctor {
            if let Some(name) = let_binding_name(line) {
                names.local.insert(name);
            }
        }
    }
    names
}

/// The identifier bound by `let [mut] NAME = …` on this line, if any.
fn let_binding_name(line: &str) -> Option<String> {
    let mut from = 0usize;
    let let_pos = loop {
        let p = line[from..].find("let ")?;
        let abs = from + p;
        let bounded = abs == 0 || {
            let prev = line.as_bytes()[abs - 1];
            !prev.is_ascii_alphanumeric() && prev != b'_'
        };
        if bounded {
            break abs;
        }
        from = abs + 4;
    };
    let rest = line[let_pos + 4..].trim_start();
    let rest = rest.strip_prefix("mut ").map_or(rest, str::trim_start);
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty() && !name.starts_with(|c: char| c.is_ascii_digit())).then_some(name)
}

/// For a `…NAME: HashMap<` declaration, the identifier before the colon.
fn ident_before_decl(line: &str, type_pos: usize) -> Option<String> {
    let head = &line[..type_pos];
    let head = head.trim_end();
    // Strip reference/mut sigils between the colon and the type.
    let head = head
        .trim_end_matches("&mut")
        .trim_end_matches('&')
        .trim_end();
    let head = head.strip_suffix(':')?;
    let head = head.trim_end();
    let name: String = head
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    (!name.is_empty() && !name.starts_with(|c: char| c.is_ascii_digit())).then_some(name)
}

/// The identifier that is the receiver of a method call ending at byte
/// `dot` (the position of the `.`): the last path segment, e.g.
/// `prof.edge_counts` → `edge_counts`.
fn receiver_ident(line: &str, dot: usize) -> Option<String> {
    let head = &line[..dot];
    let name: String = head
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    (!name.is_empty()).then_some(name)
}

const PANIC_MACROS: [&str; 4] = ["panic!(", "unreachable!(", "todo!(", "unimplemented!("];
const HASH_ITER_METHODS: [&str; 9] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
];
const ENTROPY_PATTERNS: [&str; 6] = [
    "Instant::now",
    "SystemTime::now",
    "thread_rng",
    "from_entropy",
    "rand::random",
    "getrandom",
];
/// Cast targets AZ005 treats as narrowing: an `as` cast into one of
/// these from `usize`/`u64` drops bits, and from the opposite-signedness
/// type silently reinterprets the sign bit.
const NARROW_CAST_TYPES: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];
/// Line-local evidence that a cast operand is already bounded (or that
/// the cast is a lossless round-trip), suppressing AZ005: explicit
/// masking, clamping, bit-counting (results ≤ 64), `wrapping_*` modular
/// intent, and the u32-backed index newtypes' `.index()` accessor.
const BOUNDED_CAST_EVIDENCE: [&str; 9] = [
    ".min(",
    ".clamp(",
    "wrapping_",
    "count_ones()",
    "leading_zeros()",
    "trailing_zeros()",
    "& 0x",
    "& 31",
    ".index() as",
];

/// Lints one file's source, appending findings to `report`. `label` is
/// the path shown in diagnostics; `shared_hash_names` is the workspace-wide
/// AZ002 identifier table (the union of [`HashNames::shared`]), to which
/// this file's own `let`-bound names are added.
pub fn lint_file(
    label: &str,
    source: &str,
    rules: RuleSet,
    shared_hash_names: &BTreeSet<String>,
    report: &mut AnalysisReport,
) {
    let masked = mask_source(source);
    let local_hash_names = collect_hash_names(&masked).local;
    let is_hash_name =
        |name: &str| shared_hash_names.contains(name) || local_hash_names.contains(name);
    let raw_lines: Vec<&str> = source.lines().collect();
    let masked_lines: Vec<&str> = masked.lines().collect();

    // Marker table: `// terse-analyze: allow(AZxxx)` on line i covers
    // lines i and i+1.
    let marker_on = |lineno: usize, code: &str| -> bool {
        let covers = |l: usize| {
            raw_lines
                .get(l)
                .is_some_and(|raw| raw.contains("terse-analyze: allow(") && raw.contains(code))
        };
        covers(lineno) || (lineno > 0 && covers(lineno - 1))
    };

    let mut depth: i64 = 0;
    // `#[cfg(test)]` item skipping.
    let mut cfg_test_pending = false;
    let mut test_skip_floor: Option<i64> = None;
    // `#[allow(clippy::unwrap_used/expect_used)]` scopes for AZ001.
    let mut allow_panic_floor: Option<i64> = None;
    let mut allow_panic_entered = false;
    let mut file_wide_allow_panic = false;

    for (lineno, mline) in masked_lines.iter().enumerate() {
        let opens = mline.bytes().filter(|&c| c == b'{').count() as i64;
        let closes = mline.bytes().filter(|&c| c == b'}').count() as i64;
        let depth_before = depth;
        depth += opens - closes;

        // Crate-level allow (vendored-shim idiom).
        if mline.contains("#![allow(")
            && (mline.contains("unwrap_used") || mline.contains("expect_used"))
        {
            file_wide_allow_panic = true;
        }

        // Leave a skipped test region once depth returns to its floor.
        if let Some(floor) = test_skip_floor {
            if depth <= floor {
                test_skip_floor = None;
            }
            continue;
        }
        if cfg_test_pending {
            if opens > 0 {
                cfg_test_pending = false;
                if depth > depth_before {
                    // Item body opened on this line; skip until it closes.
                    test_skip_floor = Some(depth_before);
                }
                continue;
            } else if mline.contains(';') {
                // Attribute on a braceless item (`use`, `type`).
                cfg_test_pending = false;
            } else if mline.trim().is_empty() || mline.trim_start().starts_with('#') {
                // Blank line or further attributes between the cfg and
                // the item: keep waiting.
            } else if !mline.trim().is_empty() {
                // Item header without `{` yet (multi-line signature):
                // keep waiting for the body.
            }
        }
        if mline.contains("#[cfg(test)]") {
            cfg_test_pending = true;
            continue;
        }

        // AZ001 allow-attribute scope tracking.
        if let Some(floor) = allow_panic_floor {
            if allow_panic_entered && depth <= floor {
                allow_panic_floor = None;
                allow_panic_entered = false;
            } else if !allow_panic_entered && depth > floor {
                allow_panic_entered = true;
                if depth <= floor {
                    allow_panic_floor = None;
                    allow_panic_entered = false;
                }
            }
        }
        if mline.contains("#[allow(")
            && (mline.contains("unwrap_used") || mline.contains("expect_used"))
        {
            allow_panic_floor = Some(depth_before);
            allow_panic_entered = depth > depth_before;
        }

        let entity = format!("{label}:{}", lineno + 1);

        // --- AZ001: panicking APIs -----------------------------------
        if rules.panic
            && !file_wide_allow_panic
            && allow_panic_floor.is_none()
            && !marker_on(lineno, "AZ001")
        {
            let mut hit: Option<String> = None;
            if mline.contains(".unwrap()") {
                hit = Some(".unwrap()".to_string());
            }
            for m in PANIC_MACROS {
                if mline.contains(m) {
                    hit = Some(m.to_string());
                }
            }
            if mline.contains(".expect(") {
                hit = Some(".expect(…)".to_string());
            }
            if let Some(what) = hit {
                report.push(
                    "AZ001",
                    Severity::Error,
                    entity.clone(),
                    format!("panicking API `{what}` in library code"),
                    "return a typed error, or add #[allow(clippy::…_used)] \
                     with an invariant comment",
                );
            }
        }

        // --- AZ002: hash-order iteration -----------------------------
        if rules.hash_iter && !marker_on(lineno, "AZ002") {
            let mut flagged: BTreeSet<String> = BTreeSet::new();
            for m in HASH_ITER_METHODS {
                let mut from = 0usize;
                while let Some(p) = mline[from..].find(m) {
                    let abs = from + p;
                    if let Some(name) = receiver_ident(mline, abs) {
                        if is_hash_name(&name) {
                            flagged.insert(format!("{name}{m}"));
                        }
                    }
                    from = abs + m.len();
                }
            }
            // `for pat in [&[mut]] path.to.NAME {`
            if let Some(for_pos) = find_for_keyword(mline) {
                if let Some(in_pos) = mline[for_pos..].find(" in ") {
                    let expr_start = for_pos + in_pos + 4;
                    let expr_end = mline[expr_start..]
                        .find('{')
                        .map_or(mline.len(), |p| expr_start + p);
                    let expr = mline[expr_start..expr_end].trim();
                    let expr = expr
                        .strip_prefix("&mut ")
                        .or_else(|| expr.strip_prefix('&'))
                        .unwrap_or(expr);
                    // Ranges (`0..n`) and calls yield fresh iterators, not
                    // hash-table iteration over the named binding.
                    if !expr.contains('(') && !expr.contains("..") {
                        let last = expr.rsplit('.').next().unwrap_or(expr).trim();
                        if is_hash_name(last) {
                            flagged.insert(format!("for … in {expr}"));
                        }
                    }
                }
            }
            for what in flagged {
                report.push(
                    "AZ002",
                    Severity::Error,
                    entity.clone(),
                    format!(
                        "iteration over a hash container (`{what}`) has nondeterministic order"
                    ),
                    "sort the items (or use an index-ordered structure); if order \
                     provably cannot leak, add `// terse-analyze: allow(AZ002): why`",
                );
            }
        }

        // --- AZ003: wall-clock / entropy -----------------------------
        if rules.entropy && !marker_on(lineno, "AZ003") {
            for m in ENTROPY_PATTERNS {
                if mline.contains(m) {
                    report.push(
                        "AZ003",
                        Severity::Error,
                        entity.clone(),
                        format!("`{m}` in library code breaks run-to-run determinism"),
                        "thread a seed/config through instead; if the value never \
                         affects results, add `// terse-analyze: allow(AZ003): why`",
                    );
                }
            }
        }

        // --- AZ005: lossy integer casts ------------------------------
        if rules.cast
            && !marker_on(lineno, "AZ005")
            && !BOUNDED_CAST_EVIDENCE.iter().any(|p| mline.contains(p))
        {
            let mut flagged: BTreeSet<String> = BTreeSet::new();
            let mut from = 0usize;
            while let Some(p) = mline[from..].find(" as ") {
                let abs = from + p;
                from = abs + 4;
                let rest = &mline[abs + 4..];
                let ty: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric())
                    .collect();
                // Word-bound the type name so `u32x4` or `u8_tag` never match.
                if !rest[ty.len()..].starts_with('_') && NARROW_CAST_TYPES.contains(&ty.as_str()) {
                    flagged.insert(ty);
                }
            }
            for ty in flagged {
                report.push(
                    "AZ005",
                    Severity::Error,
                    entity.clone(),
                    format!("`as {ty}` can silently truncate or reinterpret on the hot value path"),
                    "use cast_signed()/cast_unsigned() for two's-complement \
                     reinterpretation, bound the operand on the same line \
                     (mask/min/clamp), or add `// terse-analyze: allow(AZ005): why`",
                );
            }
        }
    }
}

/// Start offset of a `for` keyword on the line (word-bounded), if any.
fn find_for_keyword(line: &str) -> Option<usize> {
    let mut from = 0usize;
    while let Some(p) = line[from..].find("for ") {
        let abs = from + p;
        let bounded = abs == 0
            || !line.as_bytes()[abs - 1].is_ascii_alphanumeric()
                && line.as_bytes()[abs - 1] != b'_';
        if bounded {
            return Some(abs);
        }
        from = abs + 4;
    }
    None
}

/// Recursively collects `.rs` files under `dir`, sorted for determinism.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut children: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    children.sort();
    for p in children {
        if p.is_dir() {
            rust_files(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Extracts fail-point names declared in one file's **raw** source.
///
/// Declarations are the invocation sites themselves — a macro call or an
/// `eval` call whose first argument is a string literal. The name lives
/// inside that literal, so this scan runs on raw text, not the masked
/// text the other rules use. A candidate only counts when it looks like
/// a registered point: it contains `::` and is made of lowercase
/// identifier characters and colons. Test-side `cfg("…", "…")`
/// configuration calls are deliberately not scanned — configuring a
/// point in a test is a *reference*, not a declaration.
fn scan_fail_point_names(raw: &str, out: &mut BTreeSet<String>) {
    for marker in ["fail_point!(", "eval("] {
        let mut from = 0usize;
        while let Some(p) = raw[from..].find(marker) {
            let abs = from + p;
            from = abs + marker.len();
            // Word-bound the marker so e.g. `reeval(` does not match.
            if abs > 0 {
                let before = raw.as_bytes()[abs - 1];
                if before.is_ascii_alphanumeric() || before == b'_' {
                    continue;
                }
            }
            let rest = raw[from..].trim_start();
            let Some(body) = rest.strip_prefix('"') else {
                continue;
            };
            let Some(end) = body.find('"') else { continue };
            let name = &body[..end];
            let plausible = name.contains("::")
                && !name.is_empty()
                && name.bytes().all(|c| {
                    c.is_ascii_lowercase() || c.is_ascii_digit() || c == b'_' || c == b':'
                });
            if plausible {
                out.insert(name.to_owned());
            }
        }
    }
}

/// Builds the workspace fail-point inventory: every fail-point name
/// declared under `crates/*/src`, mapped to the number of test files
/// (under `<root>/tests` and `crates/*/tests`) that mention it.
///
/// This is the shared backend for the AZ004 coverage lint and the
/// `terse-analyze failpoints` listing command.
///
/// # Errors
///
/// Propagates filesystem errors (unreadable directories or files).
pub fn fail_point_inventory(root: &Path) -> io::Result<BTreeMap<String, usize>> {
    let crates = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut names = BTreeSet::new();
    let mut test_paths: Vec<PathBuf> = Vec::new();
    let workspace_tests = root.join("tests");
    if workspace_tests.is_dir() {
        rust_files(&workspace_tests, &mut test_paths)?;
    }
    for dir in &crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            let mut paths = Vec::new();
            rust_files(&src, &mut paths)?;
            for p in paths {
                scan_fail_point_names(&fs::read_to_string(&p)?, &mut names);
            }
        }
        let tests = dir.join("tests");
        if tests.is_dir() {
            rust_files(&tests, &mut test_paths)?;
        }
    }

    let mut test_texts = Vec::with_capacity(test_paths.len());
    for p in &test_paths {
        test_texts.push(fs::read_to_string(p)?);
    }
    let mut inventory = BTreeMap::new();
    // terse-analyze: allow(AZ002): a BTreeSet iterates in sorted order.
    for name in names {
        let refs = test_texts
            .iter()
            .filter(|t| t.contains(name.as_str()))
            .count();
        inventory.insert(name, refs);
    }
    Ok(inventory)
}

/// AZ004 — every registered fail point must be exercised by at least one
/// fault-injection test. An injectable fault nobody injects is a
/// recovery path that has never run; this keeps the failure schedule
/// space and the test suite in lockstep. Returns the number of fail
/// points inspected.
///
/// # Errors
///
/// Propagates filesystem errors (unreadable directories or files).
pub fn lint_fail_point_coverage(root: &Path, report: &mut AnalysisReport) -> io::Result<usize> {
    let inventory = fail_point_inventory(root)?;
    let n = inventory.len();
    for (name, refs) in &inventory {
        if *refs == 0 {
            report.push(
                "AZ004",
                Severity::Error,
                name.clone(),
                "fail point is never referenced by a fault-injection test",
                "add a test under tests/ or crates/*/tests that configures \
                 this point and asserts the recovery behaviour",
            );
        }
    }
    Ok(n)
}

/// Lints every workspace crate's `src/` tree under `root` (the directory
/// containing `crates/`). Returns the number of files scanned.
///
/// # Errors
///
/// Propagates filesystem errors (unreadable directories or files).
pub fn lint_workspace(root: &Path, report: &mut AnalysisReport) -> io::Result<usize> {
    let crates = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    // Phase 1: the workspace-wide hash-identifier table (fields and params;
    // `lint_file` adds each file's own `let` bindings).
    let mut files: Vec<(PathBuf, String, RuleSet)> = Vec::new();
    let mut hash_names = BTreeSet::new();
    for dir in &crate_dirs {
        let crate_name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let src = dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        rust_files(&src, &mut paths)?;
        let rules = RuleSet::for_crate(&crate_name);
        for p in paths {
            let text = fs::read_to_string(&p)?;
            hash_names.extend(collect_hash_names(&mask_source(&text)).shared);
            files.push((p, text, rules));
        }
    }

    // Phase 2: the rules.
    let count = files.len();
    for (path, text, rules) in files {
        let label = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .into_owned();
        lint_file(&label, &text, rules, &hash_names, report);
    }

    // Phase 3: cross-file fail-point coverage (AZ004).
    lint_fail_point_coverage(root, report)?;
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_src(src: &str, rules: RuleSet) -> AnalysisReport {
        let mut r = AnalysisReport::new();
        let names = collect_hash_names(&mask_source(src)).shared;
        lint_file("test.rs", src, rules, &names, &mut r);
        r
    }

    #[test]
    fn fail_point_scanner_extracts_plausible_names() {
        // Markers are assembled at runtime so this file's own raw source
        // never declares the demo points to the workspace-wide scan.
        let fp = ["fail_point", "!("].concat();
        let ev = ["ev", "al("].concat();
        let src = format!(
            "{fp}\"demo::alpha\", |_| Err(x));\n\
             if let Some(p) = failpoints::{ev}\"demo::beta\") {{}}\n\
             failpoints::cfg(\"demo::gamma\", \"off\");\n\
             reeval(\"demo::delta\");\n\
             {fp}\"Not A Point\");\n"
        );
        let mut names = BTreeSet::new();
        scan_fail_point_names(&src, &mut names);
        assert!(names.contains("demo::alpha"), "{names:?}");
        assert!(names.contains("demo::beta"), "{names:?}");
        assert!(
            !names.contains("demo::gamma"),
            "cfg is a reference, not a declaration"
        );
        assert!(
            !names.contains("demo::delta"),
            "marker must be word-bounded"
        );
        assert_eq!(names.len(), 2, "{names:?}");
    }

    #[test]
    fn fail_point_inventory_counts_test_references() {
        let mut root = std::env::temp_dir();
        root.push(format!("terse_az004_{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let src_dir = root.join("crates/demo/src");
        let test_dir = root.join("tests");
        fs::create_dir_all(&src_dir).unwrap();
        fs::create_dir_all(&test_dir).unwrap();
        let fp = ["fail_point", "!("].concat();
        fs::write(
            src_dir.join("lib.rs"),
            format!("{fp}\"demo::covered\", |_| ());\n{fp}\"demo::orphan\", |_| ());\n"),
        )
        .unwrap();
        fs::write(
            test_dir.join("faults.rs"),
            "fn t() { failpoints::cfg(\"demo::covered\", \"return\"); }\n",
        )
        .unwrap();

        let inv = fail_point_inventory(&root).unwrap();
        assert_eq!(inv.get("demo::covered"), Some(&1));
        assert_eq!(inv.get("demo::orphan"), Some(&0));

        let mut r = AnalysisReport::new();
        let n = lint_fail_point_coverage(&root, &mut r).unwrap();
        assert_eq!(n, 2);
        assert!(r.has_code("AZ004"));
        assert_eq!(r.error_count(), 1, "only the orphan point is flagged");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn masking_strings_and_comments() {
        let src = "let a = \"x.unwrap()\"; // b.unwrap()\nlet c = 1; /* d.unwrap() */";
        let m = mask_source(src);
        assert!(!m.contains("unwrap"), "{m}");
        assert_eq!(m.lines().count(), src.lines().count());
    }

    #[test]
    fn masking_raw_strings_and_chars() {
        let src = "let a = r#\"x.unwrap()\"#;\nlet b = 'x';\nlet c: &'static str = \"\";";
        let m = mask_source(src);
        assert!(!m.contains("unwrap"), "{m}");
        assert!(m.contains("&'static str"), "lifetimes survive: {m}");
    }

    #[test]
    fn flags_unwrap_and_expect() {
        let r = lint_src("fn f() { x.unwrap(); }", RuleSet::all());
        assert!(r.has_code("AZ001"));
        let r = lint_src("fn f() { x.expect(\"msg\"); }", RuleSet::all());
        assert!(r.has_code("AZ001"));
        let r = lint_src("fn f() { x.unwrap_or(0); }", RuleSet::all());
        assert!(!r.has_code("AZ001"), "unwrap_or is fine");
    }

    #[test]
    fn expect_with_closure_is_flagged() {
        let r = lint_src("fn f() { let m = d.expect(|x| x * x); }", RuleSet::all());
        assert!(r.has_code("AZ001"), "{}", r.render_text());
    }

    #[test]
    fn allow_attribute_suppresses_panic_rule() {
        let src = "\
// Invariant: cannot fail.
#[allow(clippy::expect_used)]
fn f() {
    x.expect(\"cannot fail\");
}
fn g() {
    y.expect(\"boom\");
}
";
        let r = lint_src(src, RuleSet::all());
        let hits: Vec<_> = r
            .diagnostics()
            .iter()
            .filter(|d| d.code == "AZ001")
            .collect();
        assert_eq!(hits.len(), 1, "{}", r.render_text());
        assert!(hits[0].entity.ends_with(":7"), "{}", hits[0].entity);
    }

    #[test]
    fn cfg_test_region_is_skipped() {
        let src = "\
fn f() {}
#[cfg(test)]
mod tests {
    fn t() {
        x.unwrap();
    }
}
fn g() { y.unwrap(); }
";
        let r = lint_src(src, RuleSet::all());
        let hits: Vec<_> = r
            .diagnostics()
            .iter()
            .filter(|d| d.code == "AZ001")
            .collect();
        assert_eq!(hits.len(), 1, "{}", r.render_text());
        assert!(hits[0].entity.ends_with(":8"), "{}", hits[0].entity);
    }

    #[test]
    fn hash_iteration_is_flagged_and_marker_suppresses() {
        let src = "\
struct S { edge_counts: HashMap<u32, u64> }
fn f(s: &S) {
    for (k, v) in &s.edge_counts {
    }
    let keys: Vec<_> = s.edge_counts.keys().collect();
    // terse-analyze: allow(AZ002): sorted immediately below.
    let mut ks: Vec<_> = s.edge_counts.keys().collect();
}
";
        let r = lint_src(src, RuleSet::all());
        let hits: Vec<_> = r
            .diagnostics()
            .iter()
            .filter(|d| d.code == "AZ002")
            .collect();
        assert_eq!(hits.len(), 2, "{}", r.render_text());
    }

    #[test]
    fn vec_iteration_is_not_flagged() {
        let src = "fn f(v: &Vec<u32>) { for x in v.iter() {} }";
        let r = lint_src(src, RuleSet::all());
        assert!(!r.has_code("AZ002"), "{}", r.render_text());
    }

    #[test]
    fn entropy_is_flagged_per_ruleset() {
        let src = "fn f() { let t = Instant::now(); }";
        assert!(lint_src(src, RuleSet::all()).has_code("AZ003"));
        assert!(!lint_src(src, RuleSet::for_crate("bench")).has_code("AZ003"));
    }

    #[test]
    fn lossy_cast_flagged_evidence_and_marker_escape() {
        let hot = RuleSet::for_crate("dta");
        assert!(hot.cast);
        assert!(lint_src("fn f(x: usize) -> u32 { x as u32 }", hot).has_code("AZ005"));
        assert!(lint_src("fn f(x: u32) -> i32 { x as i32 }", hot).has_code("AZ005"));
        // Line-local bounding evidence suppresses the finding.
        assert!(!lint_src("fn f(x: usize) -> u32 { x.min(9) as u32 }", hot).has_code("AZ005"));
        assert!(!lint_src("fn f(x: u64) -> u8 { (x & 0xFF) as u8 }", hot).has_code("AZ005"));
        assert!(!lint_src("fn f(x: u64) -> u8 { x.count_ones() as u8 }", hot).has_code("AZ005"));
        assert!(!lint_src("fn f(g: GateId) -> u32 { g.index() as u32 }", hot).has_code("AZ005"));
        // The audited marker escape hatch works like the other rules.
        let marked = "fn f(x: usize) -> u32 {\n\
                      \x20   // terse-analyze: allow(AZ005): caller bounds x below 2^32.\n\
                      \x20   x as u32\n}";
        assert!(!lint_src(marked, hot).has_code("AZ005"));
    }

    #[test]
    fn widening_casts_and_cold_crates_are_not_flagged() {
        let hot = RuleSet::for_crate("sim");
        assert!(!lint_src("fn f(x: u32) -> u64 { x as u64 }", hot).has_code("AZ005"));
        assert!(!lint_src("fn f(x: u32) -> usize { x as usize }", hot).has_code("AZ005"));
        assert!(!lint_src("fn f(x: u32) -> f64 { x as f64 }", hot).has_code("AZ005"));
        let cold = RuleSet::for_crate("core");
        assert!(!cold.cast);
        assert!(!lint_src("fn f(x: usize) -> u32 { x as u32 }", cold).has_code("AZ005"));
    }

    #[test]
    fn hash_names_collection() {
        let m = mask_source(
            "struct S { table: HashMap<K, V>, names: HashMap<String, Vec<GateId>> }\n\
             fn f() { let mut seen = HashSet::new(); let v: Vec<u32> = vec![]; }",
        );
        let names = collect_hash_names(&m);
        assert!(names.shared.contains("table") && names.shared.contains("names"));
        assert!(names.local.contains("seen") && !names.shared.contains("seen"));
        assert!(!names.shared.contains("v") && !names.local.contains("v"));
        let m = mask_source(
            "fn f(by_id: &HashMap<u32, u64>) { let seen: HashSet<u32> = HashSet::new(); }",
        );
        let names = collect_hash_names(&m);
        assert!(names.shared.contains("by_id") && !names.local.contains("by_id"));
        assert!(names.local.contains("seen") && !names.shared.contains("seen"));
    }

    /// AZ002 findings per file of a throwaway workspace with the given
    /// `crates/demo/src` files.
    fn az002_by_file(files: &[(&str, &str)]) -> BTreeMap<String, usize> {
        let mut root = std::env::temp_dir();
        root.push(format!("terse_az002_{}_{}", std::process::id(), files[0].0));
        let _ = fs::remove_dir_all(&root);
        let src = root.join("crates/demo/src");
        fs::create_dir_all(&src).unwrap();
        for (name, text) in files {
            fs::write(src.join(name), text).unwrap();
        }
        let mut r = AnalysisReport::new();
        lint_workspace(&root, &mut r).unwrap();
        let _ = fs::remove_dir_all(&root);
        let mut hits = BTreeMap::new();
        for d in r.diagnostics().iter().filter(|d| d.code == "AZ002") {
            let file = d.entity.rsplit_once(':').map_or(&*d.entity, |(f, _)| f);
            *hits.entry(file.to_owned()).or_insert(0) += 1;
        }
        hits
    }

    /// A `let`-bound map names nothing outside its file: a `Vec` of the
    /// same name elsewhere iterates freely.
    #[test]
    fn let_bound_hash_names_stay_in_their_file() {
        let hits = az002_by_file(&[
            (
                "local_a.rs",
                "fn f() { let mut ids = HashMap::new(); ids.insert(1, 2); }\n",
            ),
            (
                "local_b.rs",
                "fn g(xs: &[u32]) { let ids: Vec<u32> = xs.to_vec();\n    for i in ids {}\n}\n",
            ),
        ]);
        assert!(hits.is_empty(), "{hits:?}");
    }

    /// In its own file a `let`-bound map is still one.
    #[test]
    fn let_bound_hash_map_iteration_fires_in_its_file() {
        let hits = az002_by_file(&[(
            "same_file.rs",
            "fn f() {\n    let mut ids = HashMap::new();\n    for (k, v) in &ids {}\n}\n",
        )]);
        assert_eq!(
            hits.get("crates/demo/src/same_file.rs"),
            Some(&1),
            "{hits:?}"
        );
    }

    /// A field's name is shared across files: iterating it through its
    /// struct elsewhere still fires.
    #[test]
    fn field_hash_map_iteration_fires_in_another_file() {
        let hits = az002_by_file(&[
            (
                "field_a.rs",
                "pub struct Profile { pub edge_counts: HashMap<u32, u64> }\n",
            ),
            (
                "field_b.rs",
                "fn g(p: &Profile) {\n    for (e, n) in &p.edge_counts {}\n}\n",
            ),
        ]);
        assert_eq!(hits.get("crates/demo/src/field_b.rs"), Some(&1), "{hits:?}");
        assert_eq!(hits.len(), 1, "{hits:?}");
    }
}
