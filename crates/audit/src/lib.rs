#![forbid(unsafe_code)]
//! # pm-audit — workspace invariant auditor
//!
//! A zero-dependency static-analysis pass over every workspace `src/`
//! file, enforcing the contracts the rest of the stack only states in
//! prose:
//!
//! | rule | invariant |
//! |---|---|
//! | `determinism-time` | no wall-clock reads outside the allowlisted runtime/stopwatch/bench domains |
//! | `determinism-hash-iter` | no `HashMap`/`HashSet` in pm-core/pm-sim/pm-loss deterministic state |
//! | `rng-entropy` | every RNG is explicitly seeded — no `thread_rng`/`from_entropy`/`rand::random` |
//! | `panic-surface` | `unwrap`/`expect`/panicking macros/indexing in pm-gf/pm-rse/pm-core are ratcheted down |
//! | `unsafe-code` | no `unsafe` outside the waived pm-simd kernel boundary ([`rules::UNSAFE_WAIVED_CRATES`]) |
//! | `unsafe-safety-contract` | every pm-simd `unsafe fn` carries `# Safety` docs, every `unsafe {}` block a `// SAFETY:` comment |
//! | `target-feature-consistency` | fn bodies using `_mm256_*`/`vqtbl*` intrinsics are `#[target_feature]`-annotated |
//! | `lossy-cast` | no unguarded truncating `as` casts in pm-net/pm-gf/pm-rse wire and codec code |
//! | `hot-loop-alloc` | no allocation-shaped calls within [`rules::HOT_LOOP_HOPS`] call-graph hops of [`rules::HOT_PATH_ENTRIES`] |
//! | `waiver-hygiene` | pragmas carry reasons; `expires: PR<n>` bounds hard-fail once passed |
//!
//! Violations are attributed to their enclosing item by the structural
//! parser ([`items`]) and counted per (rule, crate, item) against the
//! committed `audit-baseline.json`: any increase fails the gate (exit 1),
//! any decrease is reported so the baseline can be shrunk (or rewritten
//! with `--update-baseline`). Individual lines are waived with reasoned
//! `allow(<rule>)` pragma comments (see [`rules`]); the lexer ([`lexer`]) is
//! comment/string/raw-string aware, so hazards spelled in documentation
//! or literals never fire.
//!
//! Vendored stand-ins under `vendor/` model *external* crates and are out
//! of contract, so they are not scanned.

pub mod baseline;
pub mod items;
pub mod lexer;
pub mod rules;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use baseline::{json_string, Counts, Delta};
use rules::Violation;

/// Everything one audit run produced.
#[derive(Debug)]
pub struct AuditReport {
    /// Every unsuppressed violation, in deterministic (path, line) order.
    pub violations: Vec<Violation>,
    /// Per-rule, per-crate, per-item tallies of `violations`.
    pub counts: Counts,
    /// Files scanned (workspace-relative), for the report footer.
    pub files_scanned: usize,
}

/// Outcome of gating an [`AuditReport`] against a baseline.
#[derive(Debug)]
pub struct GateOutcome {
    /// (rule, crate, item) buckets over baseline — any entry fails the
    /// gate.
    pub regressions: Vec<Delta>,
    /// (rule, crate, item) buckets under baseline — shrink the baseline.
    pub improvements: Vec<Delta>,
}

impl GateOutcome {
    /// True when no count exceeds its baseline.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Scan the workspace rooted at `root`: `<root>/src` plus every
/// `<root>/crates/*/src`, in sorted order.
///
/// # Errors
/// I/O problems walking or reading the tree.
pub fn audit_workspace(root: &Path) -> Result<AuditReport, String> {
    let mut files: Vec<(String, PathBuf)> = Vec::new(); // (crate name, dir)
    let root_src = root.join("src");
    if root_src.is_dir() {
        files.push((package_name(root), root_src));
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&crates_dir)
            .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.join("src").is_dir())
            .collect();
        entries.sort();
        for dir in entries {
            files.push((package_name(&dir), dir.join("src")));
        }
    }
    if files.is_empty() {
        return Err(format!(
            "{}: no src/ or crates/*/src directories found",
            root.display()
        ));
    }

    let pr_count = workspace_pr_count(root);
    let mut violations = Vec::new();
    let mut hot_fns = Vec::new();
    let mut files_scanned = 0usize;
    for (crate_name, src_dir) in files {
        let mut rs_files = Vec::new();
        collect_rs_files(&src_dir, &mut rs_files)?;
        rs_files.sort();
        for path in rs_files {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files_scanned += 1;
            let analysis = rules::analyze_file(&crate_name, &rel, &text, pr_count);
            violations.extend(analysis.violations);
            hot_fns.extend(analysis.hot_fns);
        }
    }
    // Phase 2: rules needing the crate-wide call graph.
    violations.extend(rules::check_hot_loops(&hot_fns));
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    let counts = baseline::tally(&violations);
    Ok(AuditReport {
        violations,
        counts,
        files_scanned,
    })
}

/// Gate a report against baseline counts.
pub fn gate(report: &AuditReport, baseline_counts: &Counts) -> GateOutcome {
    let (regressions, improvements) = baseline::compare(&report.counts, baseline_counts);
    GateOutcome {
        regressions,
        improvements,
    }
}

/// The workspace PR count pragma expiry is checked against: the number of
/// `- PR`-prefixed entries in `<root>/CHANGES.md` (0 when absent, so
/// expiry never fires in scratch workspaces without a changelog).
fn workspace_pr_count(root: &Path) -> u64 {
    std::fs::read_to_string(root.join("CHANGES.md"))
        .map(|text| {
            text.lines()
                .filter(|l| l.trim_start().starts_with("- PR"))
                .count() as u64
        })
        .unwrap_or(0)
}

/// Best-effort `name = "…"` from a crate dir's Cargo.toml; falls back to
/// `pm-<dirname>`.
fn package_name(dir: &Path) -> String {
    if let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) {
        for line in manifest.lines() {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    let v = rest.trim().trim_matches('"');
                    if !v.is_empty() {
                        return v.to_string();
                    }
                }
            }
        }
    }
    let dirname = dir
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "unknown".into());
    format!("pm-{dirname}")
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().map(|e| e == "rs").unwrap_or(false) {
            out.push(path);
        }
    }
    Ok(())
}

/// Human-readable report: violations, per-rule summary, gate verdict.
pub fn render_text(report: &AuditReport, outcome: &GateOutcome) -> String {
    let mut s = String::new();
    for v in &report.violations {
        let _ = writeln!(s, "{}:{}: {}: {}", v.file, v.line, v.rule.name(), v.message);
    }
    if !report.violations.is_empty() {
        s.push('\n');
    }
    let _ = writeln!(
        s,
        "pm-audit: {} files scanned, {} violations",
        report.files_scanned,
        report.violations.len()
    );
    for (rule, crates) in &report.counts {
        let total: u64 = crates
            .values()
            .map(|items| items.values().sum::<u64>())
            .sum();
        let per_crate: Vec<String> = crates
            .iter()
            .map(|(c, items)| format!("{c}: {}", items.values().sum::<u64>()))
            .collect();
        let _ = writeln!(s, "  {rule}: {total} ({})", per_crate.join(", "));
    }
    for d in &outcome.improvements {
        let _ = writeln!(
            s,
            "improvable: {} in {} [{}] is {} but baseline allows {} — shrink the baseline \
             (or run --update-baseline)",
            d.rule, d.crate_name, d.item, d.current, d.baseline
        );
    }
    for d in &outcome.regressions {
        let _ = writeln!(
            s,
            "REGRESSION: {} in {} [{}]: {} > baseline {}",
            d.rule, d.crate_name, d.item, d.current, d.baseline
        );
    }
    let _ = writeln!(
        s,
        "gate: {}",
        if outcome.passed() { "PASS" } else { "FAIL" }
    );
    s
}

/// Machine-readable report (one JSON object).
pub fn render_json(report: &AuditReport, outcome: &GateOutcome) -> String {
    let mut s = String::from("{\n  \"violations\": [\n");
    for (i, v) in report.violations.iter().enumerate() {
        let comma = if i + 1 < report.violations.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            s,
            "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"crate\": {}, \"item\": {}, \
             \"message\": {}}}{comma}",
            json_string(&v.file),
            v.line,
            json_string(v.rule.name()),
            json_string(&v.crate_name),
            json_string(&v.item),
            json_string(&v.message)
        );
    }
    s.push_str("  ],\n  \"counts\": ");
    let counts_json = baseline::to_json(&report.counts);
    s.push_str(&indent_tail(counts_json.trim_end(), "  "));
    let _ = writeln!(s, ",\n  \"files_scanned\": {},", report.files_scanned);
    let _ = writeln!(
        s,
        "  \"regressions\": {},",
        deltas_json(&outcome.regressions)
    );
    let _ = writeln!(
        s,
        "  \"improvements\": {},",
        deltas_json(&outcome.improvements)
    );
    let _ = writeln!(s, "  \"pass\": {}", outcome.passed());
    s.push_str("}\n");
    s
}

fn deltas_json(deltas: &[Delta]) -> String {
    let items: Vec<String> = deltas
        .iter()
        .map(|d| {
            format!(
                "{{\"rule\": {}, \"crate\": {}, \"item\": {}, \"baseline\": {}, \"current\": {}}}",
                json_string(&d.rule),
                json_string(&d.crate_name),
                json_string(&d.item),
                d.baseline,
                d.current
            )
        })
        .collect();
    format!("[{}]", items.join(", "))
}

fn indent_tail(block: &str, pad: &str) -> String {
    let mut lines = block.lines();
    let first = lines.next().unwrap_or("");
    let mut out = String::from(first);
    for line in lines {
        out.push('\n');
        out.push_str(pad);
        out.push_str(line);
    }
    out
}
