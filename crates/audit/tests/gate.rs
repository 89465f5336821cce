//! End-to-end gate tests for pm-audit.
//!
//! The load-bearing one is the *negative* self-test: a workspace seeded
//! with a fresh violation must FAIL the gate against a baseline that does
//! not allow it — proving the CI job is a real tripwire, not a no-op.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use pm_audit::baseline::{self, Counts};
use pm_audit::{audit_workspace, gate};

/// A unique scratch workspace under the system temp dir. Uses the process
/// id plus a caller tag for uniqueness — no wall clock involved.
struct ScratchWorkspace {
    root: PathBuf,
}

impl ScratchWorkspace {
    fn new(tag: &str, lib_rs: &str) -> Self {
        Self::for_crate(tag, "seeded", lib_rs)
    }

    /// Like [`ScratchWorkspace::new`] but with a chosen package name, so
    /// crate-scoped rules (pm-simd, pm-net, pm-rse, …) can be exercised.
    fn for_crate(tag: &str, crate_name: &str, lib_rs: &str) -> Self {
        let root = std::env::temp_dir().join(format!("pm-audit-gate-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("src")).unwrap();
        fs::write(
            root.join("Cargo.toml"),
            format!("[package]\nname = \"{crate_name}\"\nversion = \"0.0.0\"\n"),
        )
        .unwrap();
        fs::write(root.join("src/lib.rs"), lib_rs).unwrap();
        ScratchWorkspace { root }
    }

    /// Give the scratch workspace a changelog with `pr_count` PR entries,
    /// which drives `expires: PR<n>` pragma expiry.
    fn write_changelog(&self, pr_count: usize) {
        let mut text = String::from("# Changes\n\n");
        for i in 1..=pr_count {
            text.push_str(&format!("- PR {i}: entry\n"));
        }
        fs::write(self.root.join("CHANGES.md"), text).unwrap();
    }

    /// Run the pm-audit binary against this workspace with `baseline`
    /// (workspace-relative), returning (exit code, stdout).
    fn run_binary(&self, baseline: &str, extra: &[&str]) -> (Option<i32>, String) {
        let out = Command::new(env!("CARGO_BIN_EXE_pm-audit"))
            .args(["--root"])
            .arg(&self.root)
            .args(["--baseline"])
            .arg(self.root.join(baseline))
            .args(extra)
            .output()
            .unwrap();
        (
            out.status.code(),
            format!(
                "{}{}",
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            ),
        )
    }
}

impl Drop for ScratchWorkspace {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn seeded_violation_fails_the_gate() {
    let ws = ScratchWorkspace::new(
        "seeded",
        "pub fn f() -> std::time::Instant { std::time::Instant::now() }\n",
    );
    let report = audit_workspace(&ws.root).unwrap();
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    assert_eq!(report.violations[0].rule.name(), "determinism-time");
    let outcome = gate(&report, &Counts::new());
    assert!(
        !outcome.passed(),
        "seeded violation must fail an empty baseline"
    );
    assert_eq!(outcome.regressions.len(), 1);
    assert_eq!(outcome.regressions[0].current, 1);
    assert_eq!(outcome.regressions[0].baseline, 0);
}

#[test]
fn seeded_violation_fails_via_the_binary_exit_code() {
    let ws = ScratchWorkspace::new(
        "binary",
        "pub fn f() -> std::time::Instant { std::time::Instant::now() }\n",
    );
    let empty_baseline = ws.root.join("baseline.json");
    fs::write(&empty_baseline, "{\n}\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_pm-audit"))
        .args(["--root"])
        .arg(&ws.root)
        .args(["--baseline"])
        .arg(&empty_baseline)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSION"), "{stdout}");
    assert!(stdout.contains("gate: FAIL"), "{stdout}");
}

#[test]
fn baselined_violation_passes_and_fixing_it_reports_improvement() {
    let ws = ScratchWorkspace::new(
        "ratchet",
        "pub fn f() -> std::time::Instant { std::time::Instant::now() }\n",
    );
    let report = audit_workspace(&ws.root).unwrap();
    // Commit today's count as the baseline: the gate passes.
    let allowed = report.counts.clone();
    assert!(gate(&report, &allowed).passed());
    // Fix the violation: the gate still passes and reports the headroom.
    fs::write(ws.root.join("src/lib.rs"), "pub fn f() {}\n").unwrap();
    let fixed = audit_workspace(&ws.root).unwrap();
    let outcome = gate(&fixed, &allowed);
    assert!(outcome.passed());
    assert_eq!(outcome.improvements.len(), 1);
    assert_eq!(outcome.improvements[0].current, 0);
    assert_eq!(outcome.improvements[0].baseline, 1);
}

#[test]
fn suppression_pragma_waives_the_seeded_violation() {
    let ws = ScratchWorkspace::new(
        "pragma",
        "// pm-audit: allow(determinism-time): gate test fixture\n\
         pub fn f() -> std::time::Instant { std::time::Instant::now() }\n",
    );
    let report = audit_workspace(&ws.root).unwrap();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    assert!(gate(&report, &Counts::new()).passed());
}

#[test]
fn baseline_json_roundtrips_through_the_writer_and_parser() {
    let ws = ScratchWorkspace::new(
        "roundtrip",
        "pub fn f() -> std::time::Instant { std::time::Instant::now() }\n",
    );
    let report = audit_workspace(&ws.root).unwrap();
    let json = baseline::to_json(&report.counts);
    let parsed = baseline::parse(&json).unwrap();
    assert_eq!(parsed, report.counts);
}

// --- negative self-tests for the structural rules: each seeds one
// --- violation and proves the binary exits 1 naming the rule.

#[test]
fn seeded_unsafe_contract_violation_fails_via_binary() {
    // An undocumented `unsafe fn` containing an uncommented `unsafe {}`
    // block, in the one crate where unsafe is allowed at all.
    let ws = ScratchWorkspace::for_crate(
        "contract",
        "pm-simd",
        "pub unsafe fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
    );
    // A baseline generously allowing the raw unsafe-code count, but not
    // the missing contracts.
    fs::write(
        ws.root.join("baseline.json"),
        "{\"unsafe-code\": {\"pm-simd\": {\"f\": 99}}}\n",
    )
    .unwrap();
    let (code, out) = ws.run_binary("baseline.json", &[]);
    assert_eq!(code, Some(1), "{out}");
    assert!(out.contains("unsafe-safety-contract"), "{out}");
    assert!(out.contains("gate: FAIL"), "{out}");
}

#[test]
fn seeded_target_feature_violation_fails_via_binary() {
    let ws = ScratchWorkspace::for_crate(
        "feature",
        "pm-simd",
        "fn f(a: Reg, b: Reg) -> Reg { _mm256_xor_si256(a, b) }\n",
    );
    fs::write(ws.root.join("baseline.json"), "{}\n").unwrap();
    let (code, out) = ws.run_binary("baseline.json", &[]);
    assert_eq!(code, Some(1), "{out}");
    assert!(out.contains("target-feature-consistency"), "{out}");
}

#[test]
fn seeded_lossy_cast_violation_fails_via_binary() {
    let ws =
        ScratchWorkspace::for_crate("cast", "pm-net", "pub fn f(x: usize) -> u16 { x as u16 }\n");
    fs::write(ws.root.join("baseline.json"), "{}\n").unwrap();
    let (code, out) = ws.run_binary("baseline.json", &[]);
    assert_eq!(code, Some(1), "{out}");
    assert!(out.contains("lossy-cast"), "{out}");
}

#[test]
fn seeded_hot_loop_alloc_violation_fails_via_binary() {
    // `parity` is a declared pm-rse hot-path entry; an allocation two
    // call-graph hops below it must still be caught.
    let ws = ScratchWorkspace::for_crate(
        "hotloop",
        "pm-rse",
        "pub fn parity(n: usize) -> Vec<u8> { mid(n) }\n\
         fn mid(n: usize) -> Vec<u8> { leaf(n) }\n\
         fn leaf(n: usize) -> Vec<u8> { vec![0u8; n] }\n",
    );
    fs::write(ws.root.join("baseline.json"), "{}\n").unwrap();
    let (code, out) = ws.run_binary("baseline.json", &[]);
    assert_eq!(code, Some(1), "{out}");
    assert!(out.contains("hot-loop-alloc"), "{out}");
    assert!(out.contains("hops of hot-path entry"), "{out}");
}

#[test]
fn update_baseline_tightens_and_round_trips() {
    let ws = ScratchWorkspace::new(
        "update",
        "pub fn f() -> std::time::Instant { std::time::Instant::now() }\n",
    );
    // Start from a baseline looser than the code: a higher count for `f`
    // and an allowance for an item that no longer exists.
    fs::write(
        ws.root.join("baseline.json"),
        "{\"determinism-time\": {\"seeded\": {\"f\": 3, \"gone\": 1}}}\n",
    )
    .unwrap();
    let (code, out) = ws.run_binary("baseline.json", &["--update-baseline"]);
    assert_eq!(code, Some(0), "{out}");
    let rewritten = fs::read_to_string(ws.root.join("baseline.json")).unwrap();
    // The rewrite holds what the code measures today, per item.
    assert!(rewritten.contains("\"f\": 1"), "{rewritten}");
    assert!(!rewritten.contains("gone"), "{rewritten}");
    let parsed = baseline::parse(&rewritten).unwrap();
    let report = audit_workspace(&ws.root).unwrap();
    assert_eq!(parsed, report.counts, "rewritten baseline round-trips");
    // A plain re-run against the rewritten file still gates green.
    let (code, out) = ws.run_binary("baseline.json", &[]);
    assert_eq!(code, Some(0), "{out}");
}

#[test]
fn reasonless_pragma_is_inert_and_flagged() {
    let ws = ScratchWorkspace::new(
        "noreason",
        "// pm-audit: allow(determinism-time):   \n\
         pub fn f() -> std::time::Instant { std::time::Instant::now() }\n",
    );
    let report = audit_workspace(&ws.root).unwrap();
    let rules: Vec<&str> = report.violations.iter().map(|v| v.rule.name()).collect();
    assert!(rules.contains(&"waiver-hygiene"), "{rules:?}");
    assert!(
        rules.contains(&"determinism-time"),
        "reasonless pragma must not suppress: {rules:?}"
    );
}

#[test]
fn expired_pragma_hard_fails_once_the_pr_count_passes() {
    let src = "// pm-audit: allow(determinism-time, expires: PR3): migration window\n\
               pub fn f() -> std::time::Instant { std::time::Instant::now() }\n";
    // Before the bound: the waiver holds.
    let ws = ScratchWorkspace::new("expiry", src);
    ws.write_changelog(2);
    let report = audit_workspace(&ws.root).unwrap();
    assert!(report.violations.is_empty(), "{:?}", report.violations);
    // At the bound: the pragma is expired — inert and itself a violation.
    ws.write_changelog(3);
    let report = audit_workspace(&ws.root).unwrap();
    let rules: Vec<&str> = report.violations.iter().map(|v| v.rule.name()).collect();
    assert!(rules.contains(&"waiver-hygiene"), "{rules:?}");
    assert!(rules.contains(&"determinism-time"), "{rules:?}");
}

#[test]
fn violations_are_attributed_to_items() {
    let ws = ScratchWorkspace::new(
        "items",
        "mod inner {\n\
             pub fn ticking() -> std::time::Instant { std::time::Instant::now() }\n\
         }\n",
    );
    let report = audit_workspace(&ws.root).unwrap();
    assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
    assert_eq!(report.violations[0].item, "inner::ticking");
}

#[test]
fn full_workspace_audit_is_fast() {
    let root = repo_root();
    let start = std::time::Instant::now();
    let report = audit_workspace(&root).unwrap();
    let elapsed = start.elapsed();
    assert!(report.files_scanned > 50, "sanity: real workspace scanned");
    assert!(
        elapsed < std::time::Duration::from_secs(5),
        "full-workspace audit took {elapsed:?}, budget is 5 s"
    );
}

#[test]
fn workspace_self_audit_respects_the_committed_baseline() {
    let root = repo_root();
    let baseline_path = root.join("audit-baseline.json");
    let text = fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
        panic!(
            "audit-baseline.json must be committed at the workspace root \
             ({}): {e}",
            baseline_path.display()
        )
    });
    let allowed = baseline::parse(&text).unwrap();
    let report = audit_workspace(&root).unwrap();
    let outcome = gate(&report, &allowed);
    assert!(
        outcome.passed(),
        "workspace regressed its audit baseline:\n{}",
        outcome
            .regressions
            .iter()
            .map(|d| format!(
                "  {} in {}: {} > baseline {}",
                d.rule, d.crate_name, d.current, d.baseline
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
}
