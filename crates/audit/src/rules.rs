//! The audit rules and the per-file scanner.
//!
//! Every rule works on the token stream produced by [`crate::lexer`], so a
//! hazard spelled inside a comment, string or raw string can never fire.
//! Structural rules additionally consult the item tree recovered by
//! [`crate::items`], which attributes each violation to its enclosing
//! `module::Type::fn` item for the per-item ratchet.
//!
//! Rules are scoped per crate (a wall-clock read is fine in `pm-bench`,
//! fatal in `pm-sim`) and individual lines can be waived with a pragma:
//!
//! ```text
//! // pm-audit: allow(panic-surface): guarded by is_complete() above
//! let row = self.pivots[i].as_ref().expect("complete");
//! ```
//!
//! A pragma suppresses the named rule(s) on its own line and on the line
//! directly below it, so both trailing and line-above styles work. The
//! reason after the closing `)` is **mandatory**: a pragma without one is
//! inert and raises a `waiver-hygiene` violation. A pragma may also carry
//! an expiry that turns it into a hard failure once the workspace's PR
//! count (lines starting `- PR` in CHANGES.md) reaches `n`:
//!
//! ```text
//! // pm-audit: allow(hot-loop-alloc, expires: PR9999): until the scratch
//! // buffer lands
//! ```

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::items::{self, ItemKind, QualItem};
use crate::lexer::{lex, Token, TokenKind};

/// Crates whose `unsafe-code` count may be nonzero in the baseline.
///
/// pm-simd is the workspace's one sanctioned `unsafe` boundary: its SIMD
/// kernels need raw loads/stores and target-feature intrinsics, every
/// kernel is differentially proptested against the safe scalar reference,
/// and `#![forbid(unsafe_code)]` stays in force everywhere else. The
/// baseline parser rejects an `unsafe-code` allowance for any crate not
/// listed here, so the waiver cannot silently widen.
pub const UNSAFE_WAIVED_CRATES: &[&str] = &["pm-simd"];

/// Declared hot-path entry points for the `hot-loop-alloc` rule:
/// (crate, fn name). Allocation-shaped calls in any fn reachable within
/// [`HOT_LOOP_HOPS`] intra-crate call-graph hops of one of these must be
/// waived or baselined.
pub const HOT_PATH_ENTRIES: &[(&str, &str)] = &[
    // The RSE codec kernels: per-packet encode and decode work.
    ("pm-rse", "parity"),
    ("pm-rse", "decode"),
    ("pm-rse", "add_share"),
    ("pm-rse", "finish"),
    // The mux drive loop: one turn per poll wakeup.
    ("pm-mux", "turn"),
];

/// Call-graph radius for [`HOT_PATH_ENTRIES`] (entry itself is hop 0).
pub const HOT_LOOP_HOPS: u32 = 2;

/// Every rule the auditor knows, in reporting order.
pub const ALL_RULES: &[Rule] = &[
    Rule::DeterminismTime,
    Rule::DeterminismHashIter,
    Rule::RngEntropy,
    Rule::PanicSurface,
    Rule::UnsafeCode,
    Rule::UnsafeSafetyContract,
    Rule::TargetFeatureConsistency,
    Rule::LossyCast,
    Rule::HotLoopAlloc,
    Rule::WaiverHygiene,
];

/// One audit rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock reads (`Instant::now`, `SystemTime`) outside the
    /// allowlisted wall-clock domains (pm-core runtime, pm-obs stopwatch,
    /// pm-bench). Simulated time is the only clock deterministic code may
    /// read.
    DeterminismTime,
    /// `HashMap`/`HashSet` in deterministic protocol/simulation state
    /// (pm-core, pm-sim, pm-loss): iteration order is randomized per
    /// process, so replay and the parallel==serial contract break. Use
    /// `BTreeMap`/`BTreeSet`.
    DeterminismHashIter,
    /// Entropy-seeded randomness (`thread_rng`, `from_entropy`, `OsRng`,
    /// `rand::random`): every RNG must derive from an explicit seed.
    RngEntropy,
    /// Panic paths in codec/protocol hot code (pm-gf, pm-rse, pm-core):
    /// `unwrap`/`expect`, panicking macros and direct indexing.
    PanicSurface,
    /// Any `unsafe` token anywhere in the workspace. Fires in every crate
    /// — including [`UNSAFE_WAIVED_CRATES`] — so the count stays visible;
    /// the waiver only permits a baseline allowance for those crates.
    UnsafeCode,
    /// In [`UNSAFE_WAIVED_CRATES`]: every `unsafe fn` must carry a
    /// `# Safety` doc section and every `unsafe {}` block a `// SAFETY:`
    /// comment on or directly above its line. Ratchets to zero — unsafe
    /// code is waived, *undocumented* unsafe code is not.
    UnsafeSafetyContract,
    /// A fn body using `_mm256_*` (AVX2) or `vqtbl*` (NEON) intrinsics
    /// must be annotated `#[target_feature(enable = "…")]`, otherwise the
    /// compiler silently emits scalar code (or UB via mismatched ABI) for
    /// the kernel the vtable was supposed to accelerate.
    TargetFeatureConsistency,
    /// Possibly-truncating `as` casts to narrow integer types in the
    /// wire/codec crates (pm-net, pm-gf, pm-rse), where a silently
    /// dropped high byte is a protocol bug. Masked (`& 0xff`) and
    /// modulo-bounded (`% 256`) casts are recognized as guarded.
    LossyCast,
    /// Allocation-shaped calls (`Vec::new`, `to_vec`, `clone`, `collect`,
    /// `format!`, …) reachable within [`HOT_LOOP_HOPS`] intra-crate
    /// call-graph hops of a declared [`HOT_PATH_ENTRIES`] fn.
    HotLoopAlloc,
    /// Malformed waiver pragmas: a missing/empty reason, an unknown rule
    /// name inside `allow(…)`, or an `expires: PR<n>` bound the workspace
    /// has already passed. Never suppressible; baseline stays zero.
    WaiverHygiene,
}

impl Rule {
    /// Stable kebab-case name used in reports, baselines and pragmas.
    pub fn name(&self) -> &'static str {
        match self {
            Rule::DeterminismTime => "determinism-time",
            Rule::DeterminismHashIter => "determinism-hash-iter",
            Rule::RngEntropy => "rng-entropy",
            Rule::PanicSurface => "panic-surface",
            Rule::UnsafeCode => "unsafe-code",
            Rule::UnsafeSafetyContract => "unsafe-safety-contract",
            Rule::TargetFeatureConsistency => "target-feature-consistency",
            Rule::LossyCast => "lossy-cast",
            Rule::HotLoopAlloc => "hot-loop-alloc",
            Rule::WaiverHygiene => "waiver-hygiene",
        }
    }

    /// Parse a pragma/baseline rule name.
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }

    /// Crates the rule applies to (`None` = every scanned crate).
    fn crates(&self) -> Option<&'static [&'static str]> {
        match self {
            Rule::DeterminismHashIter => Some(&["pm-core", "pm-sim", "pm-loss"]),
            Rule::PanicSurface => Some(&["pm-gf", "pm-rse", "pm-core"]),
            Rule::UnsafeSafetyContract => Some(UNSAFE_WAIVED_CRATES),
            Rule::LossyCast => Some(&["pm-net", "pm-gf", "pm-rse"]),
            Rule::HotLoopAlloc => Some(&["pm-rse", "pm-mux"]),
            _ => None,
        }
    }

    /// Crates exempt from the rule even when `crates()` is `None`.
    fn exempt_crates(&self) -> &'static [&'static str] {
        match self {
            // Benchmarks measure wall-clock time by design, and the
            // auditor itself never runs inside a simulation.
            Rule::DeterminismTime => &["pm-bench", "pm-audit"],
            _ => &[],
        }
    }

    /// File-path suffixes exempt from the rule: the explicitly allowlisted
    /// wall-clock domains.
    fn exempt_files(&self) -> &'static [&'static str] {
        match self {
            Rule::DeterminismTime => &[
                // The threaded protocol runtime paces real packets.
                "core/src/runtime.rs",
                // The pm-obs stopwatch/span-timer machinery is the one
                // sanctioned wall-clock source for instrumentation.
                "obs/src/metrics.rs",
                "obs/src/recorder.rs",
            ],
            _ => &[],
        }
    }

    /// Does the rule apply to `crate_name` / `rel_path`?
    pub fn applies(&self, crate_name: &str, rel_path: &str) -> bool {
        if let Some(crates) = self.crates() {
            if !crates.contains(&crate_name) {
                return false;
            }
        }
        if self.exempt_crates().contains(&crate_name) {
            return false;
        }
        let unix_path = rel_path.replace('\\', "/");
        !self
            .exempt_files()
            .iter()
            .any(|suffix| unix_path.ends_with(suffix))
    }
}

/// One rule hit at one source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// Cargo package name of the containing crate.
    pub crate_name: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Qualified enclosing item (`module::Type::fn`), the baseline's
    /// attribution key; `(file)` for file-scope hits in a crate root.
    pub item: String,
    /// Human-readable description of the hit.
    pub message: String,
}

/// Per-fn record feeding the intra-crate call graph for `hot-loop-alloc`.
/// Collected per file, resolved crate-wide by [`check_hot_loops`].
#[derive(Debug)]
pub struct HotFn {
    /// Cargo package name.
    pub crate_name: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Qualified item path (attribution key).
    pub qual: String,
    /// Leaf fn name — the call-graph vertex label.
    pub name: String,
    /// Names this fn's body calls (`ident(` and `.ident(` shapes).
    pub calls: BTreeSet<String>,
    /// Allocation-shaped calls in the body: (line, description).
    pub allocs: Vec<(u32, String)>,
    /// Lines waived for `hot-loop-alloc` by pragmas in this file.
    pub waived: BTreeSet<u32>,
}

/// Everything one file contributes to the workspace audit.
#[derive(Debug, Default)]
pub struct FileAnalysis {
    /// Per-file violations (all rules except `hot-loop-alloc`, which
    /// needs the crate-wide graph).
    pub violations: Vec<Violation>,
    /// Call-graph records, populated only in `hot-loop-alloc` crates.
    pub hot_fns: Vec<HotFn>,
}

/// Files compiled only under `#[cfg(test)]` at their inclusion site, so
/// the in-file scanner cannot see the gate.
const TEST_ONLY_FILE_SUFFIXES: &[&str] = &["src/proptests.rs"];

/// Scan one source file and return every unsuppressed violation.
/// Convenience wrapper over [`analyze_file`] with a zero PR count (so
/// pragma expiry never fires).
pub fn scan_file(crate_name: &str, rel_path: &str, src: &str) -> Vec<Violation> {
    analyze_file(crate_name, rel_path, src, 0).violations
}

/// Scan one source file: violations plus call-graph records.
/// `pr_count` is the workspace PR count used for pragma expiry.
pub fn analyze_file(crate_name: &str, rel_path: &str, src: &str, pr_count: u64) -> FileAnalysis {
    let unix_path = rel_path.replace('\\', "/");
    if TEST_ONLY_FILE_SUFFIXES
        .iter()
        .any(|s| unix_path.ends_with(s))
    {
        return FileAnalysis::default();
    }
    let tokens = lex(src);
    let pragmas = collect_pragmas(&tokens, pr_count);
    let code = non_test_significant_tokens(&tokens);
    let file_mod = items::module_path(rel_path);
    let tree = items::parse(&tokens);
    let flat = items::flatten(&tree, &file_mod);

    let mut out = Vec::new();

    // Waiver hygiene first: never suppressible, so a broken pragma cannot
    // waive itself.
    if Rule::WaiverHygiene.applies(crate_name, rel_path) {
        for (line, byte, message) in &pragmas.hygiene {
            out.push(Violation {
                rule: Rule::WaiverHygiene,
                crate_name: crate_name.to_string(),
                file: rel_path.to_string(),
                line: *line,
                item: items::item_key_at(&flat, &file_mod, *byte),
                message: message.clone(),
            });
        }
    }

    {
        let suppressed = &pragmas.suppressed;
        let flat_ref = &flat;
        let file_mod_ref = &file_mod;
        let mut push = |rule: Rule, line: u32, byte: usize, message: String| {
            if !rule.applies(crate_name, rel_path) {
                return;
            }
            if let Some(lines) = suppressed.get(&rule) {
                if lines.contains(&line) {
                    return;
                }
            }
            out.push(Violation {
                rule,
                crate_name: crate_name.to_string(),
                file: rel_path.to_string(),
                line,
                item: items::item_key_at(flat_ref, file_mod_ref, byte),
                message,
            });
        };

        token_pattern_rules(&code, &mut push);
        lossy_cast_rule(crate_name, rel_path, &code, &mut push);
        unsafe_safety_contract_rule(crate_name, rel_path, &tokens, &flat, &mut push);
        target_feature_rule(crate_name, rel_path, &tokens, &flat, &mut push);
    }

    let hot_fns = if Rule::HotLoopAlloc.applies(crate_name, rel_path) {
        let waived = pragmas
            .suppressed
            .get(&Rule::HotLoopAlloc)
            .cloned()
            .unwrap_or_default();
        extract_hot_fns(crate_name, rel_path, &tokens, &flat, &waived)
    } else {
        Vec::new()
    };

    FileAnalysis {
        violations: out,
        hot_fns,
    }
}

/// The original token-pattern rules (determinism, rng, panic, unsafe).
fn token_pattern_rules(code: &[Token<'_>], push: &mut impl FnMut(Rule, u32, usize, String)) {
    for (i, tok) in code.iter().enumerate() {
        let prev = i.checked_sub(1).map(|j| code[j]);
        let next = code.get(i + 1).copied();
        let next2 = code.get(i + 2).copied();
        match (tok.kind, tok.text) {
            (TokenKind::Ident, "Instant")
                if is_punct(next, ":")
                    && is_punct(next2, ":")
                    && matches!(code.get(i + 3), Some(t) if t.text == "now") =>
            {
                push(
                    Rule::DeterminismTime,
                    tok.line,
                    tok.start,
                    "wall-clock read: Instant::now()".into(),
                );
            }
            (TokenKind::Ident, "SystemTime") => {
                push(
                    Rule::DeterminismTime,
                    tok.line,
                    tok.start,
                    "wall-clock type: SystemTime".into(),
                );
            }
            (TokenKind::Ident, "HashMap" | "HashSet" | "hash_map" | "hash_set") => {
                push(
                    Rule::DeterminismHashIter,
                    tok.line,
                    tok.start,
                    format!(
                        "{} in deterministic state (iteration order is per-process random); \
                         use BTreeMap/BTreeSet",
                        tok.text
                    ),
                );
            }
            (TokenKind::Ident, "thread_rng" | "from_entropy" | "ThreadRng" | "OsRng") => {
                push(
                    Rule::RngEntropy,
                    tok.line,
                    tok.start,
                    format!("entropy-seeded randomness: {}", tok.text),
                );
            }
            (TokenKind::Ident, "random")
                if is_punct(prev, ":")
                    && i >= 3
                    && code[i - 2].text == ":"
                    && code[i - 3].text == "rand" =>
            {
                push(
                    Rule::RngEntropy,
                    tok.line,
                    tok.start,
                    "entropy-seeded randomness: rand::random".into(),
                );
            }
            (TokenKind::Ident, "unwrap" | "expect" | "unwrap_err" | "expect_err")
                if is_punct(prev, ".") =>
            {
                push(
                    Rule::PanicSurface,
                    tok.line,
                    tok.start,
                    format!(".{}() panics on the error path", tok.text),
                );
            }
            (TokenKind::Ident, "panic" | "unreachable" | "todo" | "unimplemented")
                if is_punct(next, "!") =>
            {
                push(
                    Rule::PanicSurface,
                    tok.line,
                    tok.start,
                    format!("panicking macro: {}!", tok.text),
                );
            }
            (TokenKind::Punct, "[") if indexing_context(prev) => {
                push(
                    Rule::PanicSurface,
                    tok.line,
                    tok.start,
                    "direct indexing/slicing can panic on out-of-range".into(),
                );
            }
            (TokenKind::Ident, "unsafe") => {
                push(Rule::UnsafeCode, tok.line, tok.start, "unsafe code".into());
            }
            _ => {}
        }
    }
}

/// Integer types whose `as` casts can drop high bits, and the largest
/// value they hold.
fn cast_target_max(name: &str) -> Option<u128> {
    match name {
        "u8" => Some(0xff),
        "i8" => Some(0x7f),
        "u16" => Some(0xffff),
        "i16" => Some(0x7fff),
        "u32" => Some(0xffff_ffff),
        "i32" => Some(0x7fff_ffff),
        _ => None,
    }
}

/// Evaluate an integer literal token (`0xff`, `1_000u32`, …).
fn literal_value(text: &str) -> Option<u128> {
    let t = text.replace('_', "");
    let mut t = t.as_str();
    for suffix in [
        "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
    ] {
        if let Some(stripped) = t.strip_suffix(suffix) {
            t = stripped;
            break;
        }
    }
    let (digits, radix) = if let Some(h) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        (h, 16)
    } else if let Some(o) = t.strip_prefix("0o") {
        (o, 8)
    } else if let Some(b) = t.strip_prefix("0b") {
        (b, 2)
    } else {
        (t, 10)
    };
    u128::from_str_radix(digits, radix).ok()
}

/// How far back the lossy-cast guard scanner looks for a mask/modulo.
const CAST_GUARD_WINDOW: usize = 12;

/// Is the cast at `code[as_idx]` visibly bounded: a literal source that
/// fits, or an `& mask` / `% modulus` within the guard window (stopping
/// at statement boundaries) whose bound fits the target?
fn cast_is_guarded(code: &[Token<'_>], as_idx: usize, max: u128) -> bool {
    // Literal source: `0xff as u8`.
    if let Some(prev) = as_idx.checked_sub(1).map(|j| code[j]) {
        if prev.kind == TokenKind::Number {
            if let Some(v) = literal_value(prev.text) {
                if v <= max {
                    return true;
                }
            }
        }
    }
    let lo = as_idx.saturating_sub(CAST_GUARD_WINDOW);
    for j in (lo..as_idx).rev() {
        let t = code[j];
        if t.kind == TokenKind::Punct && matches!(t.text, ";" | "{" | "}") {
            break;
        }
        let (op, operand) = match (t.kind, t.text) {
            // `x & 0xff` / `x % 256`: operator then literal.
            (TokenKind::Punct, "&" | "%") => {
                let Some(n) = code.get(j + 1) else { continue };
                (t.text, *n)
            }
            // `0xff & x`: literal then operator.
            (TokenKind::Number, _) => {
                let Some(op_tok) = code.get(j + 1) else {
                    continue;
                };
                if !(op_tok.kind == TokenKind::Punct && matches!(op_tok.text, "&" | "%")) {
                    continue;
                }
                (op_tok.text, t)
            }
            _ => continue,
        };
        if operand.kind != TokenKind::Number {
            continue;
        }
        let Some(v) = literal_value(operand.text) else {
            continue;
        };
        let bound = match op {
            "&" => v,
            // `x % m` yields at most m - 1.
            _ => v.saturating_sub(1),
        };
        if bound <= max {
            return true;
        }
    }
    false
}

/// `lossy-cast`: possibly-truncating `as` casts to narrow integers.
fn lossy_cast_rule(
    crate_name: &str,
    rel_path: &str,
    code: &[Token<'_>],
    push: &mut impl FnMut(Rule, u32, usize, String),
) {
    if !Rule::LossyCast.applies(crate_name, rel_path) {
        return;
    }
    for (i, tok) in code.iter().enumerate() {
        if !(tok.kind == TokenKind::Ident && tok.text == "as") {
            continue;
        }
        let Some(target) = code.get(i + 1) else {
            continue;
        };
        if target.kind != TokenKind::Ident {
            continue;
        }
        let Some(max) = cast_target_max(target.text) else {
            continue;
        };
        if cast_is_guarded(code, i, max) {
            continue;
        }
        push(
            Rule::LossyCast,
            tok.line,
            tok.start,
            format!(
                "possibly truncating `as {}` cast (mask the value, or use try_from)",
                target.text
            ),
        );
    }
}

/// Lines "covered" by a `SAFETY` comment: every line of a comment run
/// containing `SAFETY`, plus the line directly below the run (where the
/// `unsafe` keyword of the documented block sits).
fn safety_covered_lines(tokens: &[Token<'_>]) -> BTreeSet<u32> {
    let mut covered = BTreeSet::new();
    let mut i = 0;
    while i < tokens.len() {
        if !matches!(
            tokens[i].kind,
            TokenKind::LineComment | TokenKind::BlockComment
        ) {
            i += 1;
            continue;
        }
        // A run of consecutive comment tokens.
        let start = i;
        let mut has_safety = false;
        let mut last_line = tokens[i].line;
        while i < tokens.len()
            && matches!(
                tokens[i].kind,
                TokenKind::LineComment | TokenKind::BlockComment
            )
        {
            if tokens[i].text.contains("SAFETY") {
                has_safety = true;
            }
            let newlines = tokens[i].text.matches('\n').count() as u32;
            last_line = tokens[i].line + newlines;
            i += 1;
        }
        if has_safety {
            for line in tokens[start].line..=last_line + 1 {
                covered.insert(line);
            }
        }
    }
    covered
}

/// `unsafe-safety-contract`: `unsafe fn`s need `# Safety` docs, `unsafe
/// {}` blocks need `// SAFETY:` comments.
fn unsafe_safety_contract_rule(
    crate_name: &str,
    rel_path: &str,
    tokens: &[Token<'_>],
    flat: &[QualItem],
    push: &mut impl FnMut(Rule, u32, usize, String),
) {
    if !Rule::UnsafeSafetyContract.applies(crate_name, rel_path) {
        return;
    }
    for item in flat {
        if item.kind == ItemKind::Fn && item.is_unsafe_fn && !item.is_test && !item.has_safety_doc {
            push(
                Rule::UnsafeSafetyContract,
                item.line,
                item.byte_span.start,
                format!("unsafe fn `{}` has no `# Safety` doc section", item.name),
            );
        }
    }
    let covered = safety_covered_lines(tokens);
    for (i, tok) in tokens.iter().enumerate() {
        if !(tok.kind == TokenKind::Ident && tok.text == "unsafe") {
            continue;
        }
        let next_sig = tokens[i + 1..].iter().find(|t| t.is_significant());
        if !matches!(next_sig, Some(t) if t.kind == TokenKind::Punct && t.text == "{") {
            continue; // `unsafe fn` / `unsafe impl`, handled above.
        }
        if items::item_at(flat, tok.start)
            .map(|q| q.is_test)
            .unwrap_or(false)
        {
            continue;
        }
        if !covered.contains(&tok.line) {
            push(
                Rule::UnsafeSafetyContract,
                tok.line,
                tok.start,
                "`unsafe {` block has no `// SAFETY:` comment".into(),
            );
        }
    }
}

/// `target-feature-consistency`: intrinsics imply the matching
/// `#[target_feature(enable = …)]` on the containing fn.
fn target_feature_rule(
    crate_name: &str,
    rel_path: &str,
    tokens: &[Token<'_>],
    flat: &[QualItem],
    push: &mut impl FnMut(Rule, u32, usize, String),
) {
    if !Rule::TargetFeatureConsistency.applies(crate_name, rel_path) {
        return;
    }
    for item in flat {
        if item.kind != ItemKind::Fn || item.is_test {
            continue;
        }
        let Some(body) = item.body.clone() else {
            continue;
        };
        let mut needed: BTreeSet<&str> = BTreeSet::new();
        for tok in &tokens[body] {
            if tok.kind != TokenKind::Ident {
                continue;
            }
            if tok.text.starts_with("_mm256_") {
                needed.insert("avx2");
            } else if tok.text.starts_with("vqtbl") {
                needed.insert("neon");
            }
        }
        for feature in needed {
            if item.target_features.iter().any(|f| f == feature) {
                continue;
            }
            push(
                Rule::TargetFeatureConsistency,
                item.line,
                item.byte_span.start,
                format!(
                    "fn `{}` uses {feature} intrinsics but is not \
                     #[target_feature(enable = \"{feature}\")]",
                    item.name
                ),
            );
        }
    }
}

/// Keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "as", "in", "let", "fn", "move", "ref", "mut",
    "else", "unsafe", "box", "await", "yield", "dyn", "impl", "where", "pub", "use", "crate",
];

/// Paths whose `::new`-style constructors allocate.
const ALLOC_TYPES: &[&str] = &["Vec", "String", "Box", "VecDeque", "BTreeMap", "BTreeSet"];

/// Method names that allocate.
const ALLOC_METHODS: &[&str] = &["to_vec", "to_owned", "to_string", "clone"];

/// Extract per-fn call/alloc records for the hot-loop call graph.
fn extract_hot_fns(
    crate_name: &str,
    rel_path: &str,
    tokens: &[Token<'_>],
    flat: &[QualItem],
    waived: &BTreeSet<u32>,
) -> Vec<HotFn> {
    let mut out = Vec::new();
    for item in flat {
        if item.kind != ItemKind::Fn || item.is_test {
            continue;
        }
        let Some(body) = item.body.clone() else {
            continue;
        };
        let sig: Vec<Token<'_>> = tokens[body]
            .iter()
            .copied()
            .filter(Token::is_significant)
            .collect();
        let mut calls = BTreeSet::new();
        let mut allocs = Vec::new();
        for (i, tok) in sig.iter().enumerate() {
            if tok.kind != TokenKind::Ident {
                continue;
            }
            let prev = i.checked_sub(1).map(|j| sig[j]);
            let next = sig.get(i + 1).copied();
            if is_punct(next, "(")
                && !CALL_KEYWORDS.contains(&tok.text)
                && !matches!(prev, Some(p) if p.text == "fn")
            {
                calls.insert(tok.text.to_string());
            }
            if ALLOC_METHODS.contains(&tok.text) && is_punct(prev, ".") && is_punct(next, "(") {
                allocs.push((tok.line, format!("`.{}()`", tok.text)));
            } else if tok.text == "collect" && is_punct(prev, ".") {
                allocs.push((tok.line, "`.collect()`".to_string()));
            } else if matches!(tok.text, "format" | "vec") && is_punct(next, "!") {
                allocs.push((tok.line, format!("`{}!`", tok.text)));
            } else if ALLOC_TYPES.contains(&tok.text)
                && is_punct(next, ":")
                && is_punct(sig.get(i + 2).copied(), ":")
                && matches!(
                    sig.get(i + 3),
                    Some(t) if matches!(t.text, "new" | "with_capacity" | "from")
                )
            {
                let ctor = sig.get(i + 3).map(|t| t.text).unwrap_or("new");
                allocs.push((tok.line, format!("`{}::{ctor}`", tok.text)));
            }
        }
        out.push(HotFn {
            crate_name: crate_name.to_string(),
            file: rel_path.to_string(),
            qual: item.qual.clone(),
            name: item.name.clone(),
            calls,
            allocs,
            waived: waived.clone(),
        });
    }
    out
}

/// Phase 2 of the workspace audit: BFS the per-crate call graph from
/// [`HOT_PATH_ENTRIES`] and flag allocation-shaped calls within
/// [`HOT_LOOP_HOPS`] hops. Pragma waivers collected per file apply.
pub fn check_hot_loops(hot_fns: &[HotFn]) -> Vec<Violation> {
    let mut by_crate: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in hot_fns.iter().enumerate() {
        by_crate.entry(f.crate_name.as_str()).or_default().push(i);
    }
    let mut out = Vec::new();
    for (crate_name, idxs) in by_crate {
        let entries: Vec<&str> = HOT_PATH_ENTRIES
            .iter()
            .filter(|(c, _)| *c == crate_name)
            .map(|(_, n)| *n)
            .collect();
        if entries.is_empty() {
            continue;
        }
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for &i in &idxs {
            by_name.entry(hot_fns[i].name.as_str()).or_default().push(i);
        }
        // BFS: fn index → (hops from entry, entry name). First reach wins,
        // which is also the shortest since the queue is breadth-first.
        let mut reached: BTreeMap<usize, (u32, &str)> = BTreeMap::new();
        let mut queue: VecDeque<(usize, u32, &str)> = VecDeque::new();
        for entry in &entries {
            for &i in by_name.get(entry).into_iter().flatten() {
                if let std::collections::btree_map::Entry::Vacant(slot) = reached.entry(i) {
                    slot.insert((0, entry));
                    queue.push_back((i, 0, entry));
                }
            }
        }
        while let Some((i, dist, entry)) = queue.pop_front() {
            if dist >= HOT_LOOP_HOPS {
                continue;
            }
            for callee in &hot_fns[i].calls {
                for &j in by_name.get(callee.as_str()).into_iter().flatten() {
                    if let std::collections::btree_map::Entry::Vacant(slot) = reached.entry(j) {
                        slot.insert((dist + 1, entry));
                        queue.push_back((j, dist + 1, entry));
                    }
                }
            }
        }
        for (&i, &(dist, entry)) in &reached {
            let f = &hot_fns[i];
            for (line, what) in &f.allocs {
                if f.waived.contains(line) {
                    continue;
                }
                out.push(Violation {
                    rule: Rule::HotLoopAlloc,
                    crate_name: f.crate_name.clone(),
                    file: f.file.clone(),
                    line: *line,
                    item: f.qual.clone(),
                    message: format!(
                        "allocation-shaped call {what} within {dist} hops of hot-path entry \
                         `{entry}`"
                    ),
                });
            }
        }
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// `expr[` is indexing when the previous significant token ends an
/// expression: an identifier (that is not a keyword), a closing bracket or
/// a literal. `#[attr]`, `![inner]`, types like `[u8; 4]` and macro calls
/// like `vec![…]` all have non-expression predecessors.
fn indexing_context(prev: Option<Token<'_>>) -> bool {
    const KEYWORDS: &[&str] = &[
        "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn", "for",
        "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref", "return",
        "static", "struct", "trait", "type", "unsafe", "use", "where", "while", "box", "await",
        "yield",
    ];
    match prev {
        Some(t) => match t.kind {
            TokenKind::Ident => !KEYWORDS.contains(&t.text),
            TokenKind::Punct => matches!(t.text, ")" | "]"),
            TokenKind::Number => true,
            _ => false,
        },
        None => false,
    }
}

fn is_punct(tok: Option<Token<'_>>, text: &str) -> bool {
    matches!(tok, Some(t) if t.kind == TokenKind::Punct && t.text == text)
}

/// Parsed waiver pragmas: suppressed lines per rule, plus hygiene
/// violations `(line, byte, message)` for malformed or expired pragmas.
struct PragmaScan {
    suppressed: BTreeMap<Rule, BTreeSet<u32>>,
    hygiene: Vec<(u32, usize, String)>,
}

/// Collect waiver pragmas: a `pm-audit` comment naming
/// `allow(rule-a, rule-b)`, an optional `expires: PR<n>` entry, and a
/// mandatory `: why` reason after the closing paren. A valid pragma
/// suppresses the named rules on its own line and the line below; an
/// invalid one (missing reason, unknown rule, bad or passed expiry)
/// suppresses nothing and is reported instead.
fn collect_pragmas(tokens: &[Token<'_>], pr_count: u64) -> PragmaScan {
    let mut scan = PragmaScan {
        suppressed: BTreeMap::new(),
        hygiene: Vec::new(),
    };
    for tok in tokens {
        if !matches!(tok.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let Some(idx) = tok.text.find("pm-audit:") else {
            continue;
        };
        let rest = &tok.text[idx + "pm-audit:".len()..];
        let Some(open) = rest.find("allow(") else {
            continue;
        };
        let mut problems: Vec<String> = Vec::new();
        let mut rules: Vec<Rule> = Vec::new();
        let body_start = open + "allow(".len();
        let close = match rest[open..].find(')') {
            Some(c) => open + c,
            None => {
                scan.hygiene.push((
                    tok.line,
                    tok.start,
                    "waiver pragma has an unclosed allow(".to_string(),
                ));
                continue;
            }
        };
        for entry in rest[body_start..close].split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            if let Some(expiry) = entry.strip_prefix("expires") {
                let spec = expiry.trim_start().strip_prefix(':').map(str::trim);
                match spec
                    .and_then(|s| s.strip_prefix("PR"))
                    .and_then(|n| n.parse::<u64>().ok())
                {
                    Some(n) if pr_count >= n => problems.push(format!(
                        "waiver expired: `expires: PR{n}` but CHANGES.md already records \
                         {pr_count} PRs — fix the violation or renew the waiver"
                    )),
                    Some(_) => {}
                    None => problems.push(format!(
                        "bad expiry {entry:?} in waiver pragma (want `expires: PR<n>`)"
                    )),
                }
            } else {
                match Rule::from_name(entry) {
                    Some(rule) => rules.push(rule),
                    None => problems.push(format!("unknown rule {entry:?} in waiver pragma")),
                }
            }
        }
        let after = rest[close + 1..].trim_start();
        let has_reason = after
            .strip_prefix(':')
            .map(|r| !r.trim().is_empty())
            .unwrap_or(false);
        if !has_reason {
            problems.push("waiver pragma has no reason (want `allow(rule): why`)".to_string());
        }
        if problems.is_empty() {
            for rule in rules {
                let lines = scan.suppressed.entry(rule).or_default();
                lines.insert(tok.line);
                lines.insert(tok.line + 1);
            }
        } else {
            for message in problems {
                scan.hygiene.push((tok.line, tok.start, message));
            }
        }
    }
    scan
}

/// Strip test-only regions and return only the significant tokens.
///
/// Recognized gates: a file-level `#![cfg(test)]` (whole file is test
/// code) and item-level `#[cfg(test)]` / `#[test]` attributes (the
/// attributed item — through its closing brace or terminating semicolon —
/// is skipped, including any stacked attributes in between).
fn non_test_significant_tokens<'a>(tokens: &'a [Token<'a>]) -> Vec<Token<'a>> {
    let sig: Vec<Token<'a>> = tokens
        .iter()
        .copied()
        .filter(Token::is_significant)
        .collect();
    let mut out = Vec::with_capacity(sig.len());
    let mut i = 0;
    while i < sig.len() {
        if is_punct(sig.get(i).copied(), "#") {
            let inner = is_punct(sig.get(i + 1).copied(), "!");
            let attr_start = if inner { i + 2 } else { i + 1 };
            if is_punct(sig.get(attr_start).copied(), "[") {
                let (is_test_gate, attr_end) = parse_attribute(&sig, attr_start);
                if is_test_gate {
                    if inner {
                        // `#![cfg(test)]`: the whole remaining file is
                        // test-only.
                        return out;
                    }
                    i = skip_attributed_item(&sig, attr_end);
                    continue;
                }
                // Non-test attribute: emit nothing for it, move past.
                i = attr_end;
                continue;
            }
        }
        out.push(sig[i]);
        i += 1;
    }
    out
}

/// Parse the attribute starting at the `[` at `open`. Returns whether it
/// gates test code and the index just past the matching `]`.
fn parse_attribute<'a>(sig: &[Token<'a>], open: usize) -> (bool, usize) {
    let mut depth = 0usize;
    let mut saw_cfg = false;
    let mut saw_test = false;
    let mut i = open;
    while i < sig.len() {
        let t = sig[i];
        match (t.kind, t.text) {
            (TokenKind::Punct, "[") => depth += 1,
            (TokenKind::Punct, "]") => {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            (TokenKind::Ident, "cfg") => saw_cfg = true,
            (TokenKind::Ident, "test") => saw_test = true,
            _ => {}
        }
        i += 1;
    }
    // `#[test]` (bare) or `#[cfg(test)]` / `#[cfg(any(test, …))]`.
    let bare_test = saw_test && !saw_cfg && i == open + 3;
    (bare_test || (saw_cfg && saw_test), i)
}

/// Skip the item following a test attribute: any further attributes, then
/// tokens until the first top-level `;` or the close of the first brace
/// block.
fn skip_attributed_item<'a>(sig: &[Token<'a>], mut i: usize) -> usize {
    // Stacked attributes after the test gate.
    while is_punct(sig.get(i).copied(), "#") {
        let attr_start = if is_punct(sig.get(i + 1).copied(), "!") {
            i + 2
        } else {
            i + 1
        };
        if !is_punct(sig.get(attr_start).copied(), "[") {
            break;
        }
        let (_, end) = parse_attribute(sig, attr_start);
        i = end;
    }
    let mut depth = 0usize;
    while i < sig.len() {
        match (sig[i].kind, sig[i].text) {
            (TokenKind::Punct, "{") => depth += 1,
            (TokenKind::Punct, "}") => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            (TokenKind::Punct, ";") if depth == 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Vec<Violation> {
        scan_file("pm-core", "crates/core/src/x.rs", src)
    }

    fn rules_of(vs: &[Violation]) -> Vec<Rule> {
        vs.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn hazards_in_comments_and_strings_never_fire() {
        let src = r###"
            // Instant::now() HashMap unwrap() unsafe thread_rng
            /* SystemTime /* nested unsafe */ still */
            fn f() {
                let s = "Instant::now() unsafe HashMap";
                let r = r#"thread_rng() .unwrap() panic!"#;
            }
        "###;
        assert!(scan(src).is_empty(), "{:?}", scan(src));
    }

    #[test]
    fn determinism_time_fires_in_code() {
        let vs = scan("fn f() { let t = Instant::now(); }");
        assert_eq!(rules_of(&vs), vec![Rule::DeterminismTime]);
        let vs = scan("use std::time::SystemTime;");
        assert_eq!(rules_of(&vs), vec![Rule::DeterminismTime]);
    }

    #[test]
    fn hash_iter_scoped_to_deterministic_crates() {
        let src = "use std::collections::HashMap;";
        assert_eq!(scan(src).len(), 1);
        assert!(scan_file("pm-obs", "crates/obs/src/x.rs", src).is_empty());
    }

    #[test]
    fn rng_entropy_fires() {
        let vs = scan("fn f() { let mut r = thread_rng(); let x: u8 = rand::random(); }");
        assert_eq!(vs.len(), 2);
        // Seeded RNG calls named `random` on a bound rng are fine.
        assert!(scan("fn f(r: &mut R) { let x: f64 = r.random(); }").is_empty());
    }

    #[test]
    fn panic_surface_unwrap_expect_macros_indexing() {
        let vs = scan("fn f(v: Vec<u8>) { v.last().unwrap(); v.first().expect(\"x\"); }");
        assert_eq!(vs.len(), 2);
        let vs = scan("fn f() { panic!(\"boom\"); unreachable!(); }");
        assert_eq!(vs.len(), 2);
        let vs = scan("fn f(v: &[u8], i: usize) -> u8 { v[i] }");
        assert_eq!(rules_of(&vs), vec![Rule::PanicSurface]);
        // unwrap_or is not a panic path; attributes and types are not
        // indexing.
        assert!(scan("fn f(v: Vec<u8>) { v.first().copied().unwrap_or(0); }").is_empty());
        assert!(scan("#[derive(Debug)] struct S { b: [u8; 4] }").is_empty());
        assert!(scan("fn f() { let v = vec![1, 2]; }").is_empty());
    }

    #[test]
    fn panic_surface_scoped_out_of_sim() {
        let src = "fn f(v: &[u8]) -> u8 { v[0] }";
        assert!(scan_file("pm-sim", "crates/sim/src/x.rs", src).is_empty());
    }

    #[test]
    fn unsafe_fires_everywhere() {
        let src = "unsafe fn f() {}";
        for (krate, path) in [("pm-obs", "crates/obs/src/x.rs"), ("pm-sim", "s.rs")] {
            let vs = scan_file(krate, path, src);
            assert_eq!(rules_of(&vs), vec![Rule::UnsafeCode], "{krate}");
        }
    }

    #[test]
    fn violations_carry_item_attribution() {
        let src = "impl Widget {\n    fn poke(v: &Vec<u8>) { v.last().unwrap(); }\n}\n";
        let vs = scan_file("pm-core", "crates/core/src/gadget.rs", src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].item, "gadget::Widget::poke");
        // File-scope hits attribute to the module path.
        let vs = scan_file(
            "pm-core",
            "crates/core/src/gadget.rs",
            "use std::time::SystemTime;",
        );
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].item, "gadget");
    }

    #[test]
    fn pragma_suppresses_same_and_next_line() {
        let trailing =
            "fn f(v: Vec<u8>) { v.last().unwrap(); } // pm-audit: allow(panic-surface): fixture";
        assert!(scan(trailing).is_empty());
        let above = "fn f(v: Vec<u8>) {\n    // pm-audit: allow(panic-surface): invariant\n    v.last().unwrap();\n}";
        assert!(scan(above).is_empty());
        // The pragma names only one rule; others still fire.
        let other =
            "// pm-audit: allow(unsafe-code): fixture\nfn f(v: Vec<u8>) { v.last().unwrap(); }";
        assert_eq!(scan(other).len(), 1);
    }

    #[test]
    fn reasonless_pragma_is_inert_and_flagged() {
        let src = "fn f(v: Vec<u8>) { v.last().unwrap(); } // pm-audit: allow(panic-surface)";
        let vs = scan(src);
        assert_eq!(
            rules_of(&vs),
            vec![Rule::WaiverHygiene, Rule::PanicSurface],
            "{vs:?}"
        );
        // Whitespace-only reasons count as missing.
        let ws = "fn f(v: Vec<u8>) { v.last().unwrap(); } // pm-audit: allow(panic-surface):   ";
        assert_eq!(scan(ws).len(), 2);
    }

    #[test]
    fn unknown_rule_in_pragma_is_flagged() {
        let src = "fn f() {} // pm-audit: allow(no-such-rule): because";
        let vs = scan(src);
        assert_eq!(rules_of(&vs), vec![Rule::WaiverHygiene]);
        assert!(vs[0].message.contains("no-such-rule"), "{vs:?}");
    }

    #[test]
    fn pragma_expiry_enforced_by_pr_count() {
        let src = "fn f(v: Vec<u8>) {\n    // pm-audit: allow(panic-surface, expires: PR12): temp\n    v.last().unwrap();\n}";
        // Before PR 12: waiver holds.
        let before = analyze_file("pm-core", "crates/core/src/x.rs", src, 11);
        assert!(before.violations.is_empty(), "{:?}", before.violations);
        // At PR 12: waiver is expired — inert and flagged.
        let after = analyze_file("pm-core", "crates/core/src/x.rs", src, 12);
        assert_eq!(
            rules_of(&after.violations),
            vec![Rule::WaiverHygiene, Rule::PanicSurface],
            "{:?}",
            after.violations
        );
        // A malformed expiry is flagged even before the bound.
        let bad = "fn f() {} // pm-audit: allow(panic-surface, expires: 12): temp";
        let vs = scan(bad);
        assert_eq!(rules_of(&vs), vec![Rule::WaiverHygiene]);
    }

    #[test]
    fn unsafe_safety_contract_fires_only_in_waived_crates() {
        let undocumented_fn = "pub unsafe fn f() {}";
        let vs = scan_file("pm-simd", "crates/simd/src/x.rs", undocumented_fn);
        assert!(
            rules_of(&vs).contains(&Rule::UnsafeSafetyContract),
            "{vs:?}"
        );
        // Same source outside the waived crates: only unsafe-code fires.
        let vs = scan_file("pm-obs", "crates/obs/src/x.rs", undocumented_fn);
        assert_eq!(rules_of(&vs), vec![Rule::UnsafeCode]);
    }

    #[test]
    fn unsafe_safety_contract_accepts_documented_sites() {
        let documented = "/// Kernel.\n///\n/// # Safety\n/// Caller checks AVX2.\npub unsafe fn f() {}\n\
                          fn g() {\n    // SAFETY: length asserted above.\n    unsafe { core() }\n}";
        let vs = scan_file("pm-simd", "crates/simd/src/x.rs", documented);
        assert!(
            !rules_of(&vs).contains(&Rule::UnsafeSafetyContract),
            "{vs:?}"
        );
        let undocumented_block = "fn g() {\n    unsafe { core() }\n}";
        let vs = scan_file("pm-simd", "crates/simd/src/x.rs", undocumented_block);
        assert!(
            rules_of(&vs).contains(&Rule::UnsafeSafetyContract),
            "{vs:?}"
        );
        // Multi-line SAFETY comment runs cover the block below them.
        let multi = "fn g() {\n    // SAFETY: the wrapper asserted every\n    // source length equals n.\n    unsafe { core() }\n}";
        let vs = scan_file("pm-simd", "crates/simd/src/x.rs", multi);
        assert!(
            !rules_of(&vs).contains(&Rule::UnsafeSafetyContract),
            "{vs:?}"
        );
    }

    #[test]
    fn target_feature_consistency() {
        let bad = "fn kern(a: __m256i, b: __m256i) -> __m256i { _mm256_xor_si256(a, b) }";
        let vs = scan_file("pm-simd", "crates/simd/src/x.rs", bad);
        assert!(
            rules_of(&vs).contains(&Rule::TargetFeatureConsistency),
            "{vs:?}"
        );
        let good = "#[target_feature(enable = \"avx2\")]\nfn kern(a: __m256i, b: __m256i) -> __m256i { _mm256_xor_si256(a, b) }";
        let vs = scan_file("pm-simd", "crates/simd/src/x.rs", good);
        assert!(
            !rules_of(&vs).contains(&Rule::TargetFeatureConsistency),
            "{vs:?}"
        );
        let neon = "fn kern(t: uint8x16_t, v: uint8x16_t) -> uint8x16_t { vqtbl1q_u8(t, v) }";
        let vs = scan_file("pm-obs", "crates/obs/src/x.rs", neon);
        assert!(
            rules_of(&vs).contains(&Rule::TargetFeatureConsistency),
            "neon rule applies workspace-wide: {vs:?}"
        );
    }

    #[test]
    fn lossy_cast_flags_unguarded_narrowing() {
        let vs = scan_file(
            "pm-net",
            "crates/net/src/x.rs",
            "fn f(x: u32) -> u8 { x as u8 }",
        );
        assert_eq!(rules_of(&vs), vec![Rule::LossyCast]);
        let vs = scan_file(
            "pm-net",
            "crates/net/src/x.rs",
            "fn f(x: usize) -> u16 { x as u16 }",
        );
        assert_eq!(rules_of(&vs), vec![Rule::LossyCast]);
        // Widening or same-width casts and usize casts don't fire.
        assert!(scan_file(
            "pm-net",
            "crates/net/src/x.rs",
            "fn f(x: u8) -> u64 { x as u64 }\nfn g(x: u8) -> usize { x as usize }"
        )
        .is_empty());
        // Out of scope crates don't fire.
        assert!(scan_file(
            "pm-obs",
            "crates/obs/src/x.rs",
            "fn f(x: u32) -> u8 { x as u8 }"
        )
        .is_empty());
    }

    #[test]
    fn lossy_cast_recognizes_guards() {
        for guarded in [
            "fn f(x: u32) -> u8 { (x & 0xff) as u8 }",
            "fn f(x: u32) -> u8 { (x & 0x0f) as u8 }",
            "fn f(x: u32) -> u8 { (0xff & x) as u8 }",
            "fn f(x: u32) -> u8 { (x % 256) as u8 }",
            "fn f() -> u8 { 255 as u8 }",
            "fn f(x: u32) -> u16 { (x & 0xffff) as u16 }",
        ] {
            assert!(
                scan_file("pm-net", "crates/net/src/x.rs", guarded).is_empty(),
                "{guarded}"
            );
        }
        // A mask wider than the target is not a guard.
        let wide_mask = "fn f(x: u32) -> u8 { (x & 0xfff) as u8 }";
        assert_eq!(
            scan_file("pm-net", "crates/net/src/x.rs", wide_mask).len(),
            1
        );
        // A guard in the previous statement does not leak through `;`.
        let stale = "fn f(x: u32, y: u32) -> u8 { let m = x & 0xff; y as u8 }";
        assert_eq!(scan_file("pm-net", "crates/net/src/x.rs", stale).len(), 1);
    }

    #[test]
    fn hot_loop_alloc_walks_the_call_graph() {
        let src = "fn parity(n: usize) { let out = vec![0u8; n]; helper(); }\n\
                   fn helper() { mid(); }\n\
                   fn mid() { let v = Vec::new(); }\n\
                   fn far() { let v = Vec::new(); }\n\
                   fn cold() { deep(); }\n\
                   fn deep() { let s = String::new(); }";
        let analysis = analyze_file("pm-rse", "crates/rse/src/x.rs", src, 0);
        let vs = check_hot_loops(&analysis.hot_fns);
        let items: Vec<&str> = vs.iter().map(|v| v.item.as_str()).collect();
        // parity (hop 0) and mid (hop 2, via helper) are flagged; far is
        // unreachable and deep is 1 hop past cold, which no entry reaches.
        assert_eq!(items, vec!["x::parity", "x::mid"], "{vs:?}");
        assert!(vs.iter().any(|v| v.message.contains("`vec!`")), "{vs:?}");
    }

    #[test]
    fn hot_loop_alloc_respects_waivers_and_scope() {
        let waived = "fn parity(n: usize) {\n    // pm-audit: allow(hot-loop-alloc): output buffer, api-mandated\n    let out = vec![0u8; n];\n}";
        let analysis = analyze_file("pm-rse", "crates/rse/src/x.rs", waived, 0);
        assert!(check_hot_loops(&analysis.hot_fns).is_empty());
        // Crates with no declared entries are never flagged.
        let src = "fn parity(n: usize) { let out = vec![0u8; n]; }";
        let analysis = analyze_file("pm-gf", "crates/gf/src/x.rs", src, 0);
        assert!(analysis.hot_fns.is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = r#"
            fn prod(v: Vec<u8>) -> usize { v.len() }
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { Vec::<u8>::new().last().unwrap(); }
            }
        "#;
        assert!(scan(src).is_empty());
        let gated_fn = "#[cfg(test)]\nfn helper(v: Vec<u8>) { v.last().unwrap(); }";
        assert!(scan(gated_fn).is_empty());
        let whole_file = "#![cfg(test)]\nfn f(v: Vec<u8>) { v.last().unwrap(); }";
        assert!(scan(whole_file).is_empty());
        // Structural rules honor the same gates.
        let test_unsafe = "#[cfg(test)]\nfn t() { unsafe { core() } }";
        let vs = scan_file("pm-simd", "crates/simd/src/x.rs", test_unsafe);
        assert!(
            !rules_of(&vs).contains(&Rule::UnsafeSafetyContract),
            "{vs:?}"
        );
    }

    #[test]
    fn non_test_attributes_do_not_hide_code() {
        let src = "#[derive(Debug)]\nstruct S;\nfn f(v: Vec<u8>) { v.last().unwrap(); }";
        assert_eq!(scan(src).len(), 1);
        let cfg_feature = "#[cfg(feature = \"x\")]\nfn f(v: Vec<u8>) { v.last().unwrap(); }";
        assert_eq!(scan(cfg_feature).len(), 1);
    }

    #[test]
    fn allowlisted_files_are_exempt() {
        let src = "fn f() { let t = Instant::now(); }";
        assert!(scan_file("pm-core", "crates/core/src/runtime.rs", src).is_empty());
        assert!(scan_file("pm-obs", "crates/obs/src/metrics.rs", src).is_empty());
        assert!(scan_file("pm-bench", "crates/bench/src/fig01.rs", src).is_empty());
        assert_eq!(scan_file("pm-net", "crates/net/src/udp.rs", src).len(), 1);
    }

    #[test]
    fn proptests_files_are_skipped() {
        let vs = scan_file(
            "pm-gf",
            "crates/gf/src/proptests.rs",
            "fn f(v: Vec<u8>) { v.last().unwrap(); }",
        );
        assert!(vs.is_empty());
    }
}
