//! The ratchet baseline: committed per-rule, per-crate, per-item
//! violation counts.
//!
//! `audit-baseline.json` maps rule name → crate name → item path →
//! count. The gate fails when any tracked bucket *exceeds* its baseline
//! entry (a missing entry means zero), and reports shrunken counts so a
//! cleanup PR can tighten the file — the ratchet only ever moves down.
//!
//! The crate is zero-dependency, so the tiny JSON subset the baseline
//! needs is parsed and printed by hand.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::rules::{Rule, Violation, UNSAFE_WAIVED_CRATES};

/// item path → violation count.
pub type ItemCounts = BTreeMap<String, u64>;

/// rule name → crate name → item path → violation count.
pub type Counts = BTreeMap<String, BTreeMap<String, ItemCounts>>;

/// Aggregate raw violations into baseline-shaped counts.
pub fn tally(violations: &[Violation]) -> Counts {
    let mut counts: Counts = BTreeMap::new();
    for v in violations {
        *counts
            .entry(v.rule.name().to_string())
            .or_default()
            .entry(v.crate_name.clone())
            .or_default()
            .entry(v.item.clone())
            .or_default() += 1;
    }
    counts
}

/// One (rule, crate, item) bucket whose current count differs from the
/// baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    /// Rule name.
    pub rule: String,
    /// Crate name.
    pub crate_name: String,
    /// Item path.
    pub item: String,
    /// Committed baseline count.
    pub baseline: u64,
    /// Count found in this run.
    pub current: u64,
}

/// Compare current counts against the baseline. Returns
/// `(regressions, improvements)`: regressions fail the gate, improvements
/// are invitations to shrink the baseline.
///
/// Every item in either map is compared individually, so a violation
/// *moving* between items is visible even when the total is unchanged.
pub fn compare(current: &Counts, baseline: &Counts) -> (Vec<Delta>, Vec<Delta>) {
    let mut regressions = Vec::new();
    let mut improvements = Vec::new();
    let empty_crates = BTreeMap::new();
    let empty_items = ItemCounts::new();
    let mut crate_keys: Vec<(&String, &String)> = Vec::new();
    for (rule, crates) in current.iter().chain(baseline.iter()) {
        for crate_name in crates.keys() {
            if !crate_keys.contains(&(rule, crate_name)) {
                crate_keys.push((rule, crate_name));
            }
        }
    }
    crate_keys.sort();
    for (rule, crate_name) in crate_keys {
        let cur = current
            .get(rule)
            .unwrap_or(&empty_crates)
            .get(crate_name)
            .unwrap_or(&empty_items);
        let base = baseline
            .get(rule)
            .unwrap_or(&empty_crates)
            .get(crate_name)
            .unwrap_or(&empty_items);
        let mut items: Vec<&String> = cur.keys().chain(base.keys()).collect();
        items.sort();
        items.dedup();
        for item in items {
            let delta = Delta {
                rule: rule.clone(),
                crate_name: crate_name.clone(),
                item: item.clone(),
                baseline: *base.get(item).unwrap_or(&0),
                current: *cur.get(item).unwrap_or(&0),
            };
            if delta.current > delta.baseline {
                regressions.push(delta);
            } else if delta.current < delta.baseline {
                improvements.push(delta);
            }
        }
    }
    (regressions, improvements)
}

/// Render counts as deterministic, human-diffable JSON.
pub fn to_json(counts: &Counts) -> String {
    let mut s = String::from("{\n");
    let rules: Vec<_> = counts
        .iter()
        .map(|(rule, crates)| {
            let crates: Vec<_> = crates.iter().filter(|(_, i)| !i.is_empty()).collect();
            (rule, crates)
        })
        .filter(|(_, crates)| !crates.is_empty())
        .collect();
    for (ri, (rule, crates)) in rules.iter().enumerate() {
        let _ = writeln!(s, "  {}: {{", json_string(rule));
        for (ci, (crate_name, items)) in crates.iter().enumerate() {
            let _ = writeln!(s, "    {}: {{", json_string(crate_name));
            for (ii, (item, count)) in items.iter().enumerate() {
                let comma = if ii + 1 < items.len() { "," } else { "" };
                let _ = writeln!(s, "      {}: {count}{comma}", json_string(item));
            }
            let comma = if ci + 1 < crates.len() { "," } else { "" };
            let _ = writeln!(s, "    }}{comma}");
        }
        let comma = if ri + 1 < rules.len() { "," } else { "" };
        let _ = writeln!(s, "  }}{comma}");
    }
    s.push_str("}\n");
    s
}

/// `s` as a JSON string literal — the one escaper of the crate (the
/// baseline writer here, the `--json` report in `lib.rs`).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parse a baseline file: rule → crate → item → count, nothing else (a
/// bare count at crate level — the retired crate-wide format — is a
/// positioned syntax error). Unknown rule names are rejected so a typo
/// cannot silently allowlist anything, and a nonzero `unsafe-code`
/// allowance is only accepted for crates in [`UNSAFE_WAIVED_CRATES`] —
/// the unsafe boundary cannot be widened by editing the baseline alone.
///
/// # Errors
/// A human-readable description of the first syntax or schema problem.
pub fn parse(text: &str) -> Result<Counts, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let mut counts = Counts::new();
    p.object(
        |p, rule, counts: &mut Counts| {
            if Rule::from_name(&rule).is_none() {
                return Err(format!("unknown rule {rule:?} in baseline"));
            }
            let mut crates = BTreeMap::new();
            p.object(
                |p, crate_name, crates: &mut BTreeMap<String, ItemCounts>| {
                    let mut items = ItemCounts::new();
                    p.object(
                        |p, item, items: &mut ItemCounts| {
                            let n = p.integer()?;
                            items.insert(item, n);
                            Ok(())
                        },
                        &mut items,
                    )?;
                    crates.insert(crate_name, items);
                    Ok(())
                },
                &mut crates,
            )?;
            counts.insert(rule, crates);
            Ok(())
        },
        &mut counts,
    )?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    if let Some(crates) = counts.get(Rule::UnsafeCode.name()) {
        for (crate_name, items) in crates {
            let total: u64 = items.values().sum();
            if total > 0 && !UNSAFE_WAIVED_CRATES.contains(&crate_name.as_str()) {
                return Err(format!(
                    "baseline allows {total} unsafe-code violations in {crate_name}, but only \
                     {UNSAFE_WAIVED_CRATES:?} may hold unsafe code"
                ));
            }
        }
    }
    Ok(counts)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .map(|b| b.is_ascii_whitespace())
            .unwrap_or(false)
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.bytes.get(self.pos).map(|&c| c as char)
            ))
        }
    }

    /// Parse `{ "key": <value>, … }`, calling `field` per key.
    fn object<T>(
        &mut self,
        mut field: impl FnMut(&mut Self, String, &mut T) -> Result<(), String>,
        acc: &mut T,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            field(self, key, acc)?;
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        self.pos,
                        other.map(|&c| c as char)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string in baseline".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        other => {
                            return Err(format!(
                                "unsupported escape {:?} at byte {}",
                                other.map(|&c| c as char),
                                self.pos
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    // Baselines hold ASCII names; pass other bytes through.
                    out.push(b as char);
                    self.pos += 1;
                }
            }
        }
    }

    fn integer(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .map(u8::is_ascii_digit)
            .unwrap_or(false)
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected a count at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad count at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(entries: &[(&str, &str, &str, u64)]) -> Counts {
        let mut c = Counts::new();
        for &(rule, krate, item, n) in entries {
            c.entry(rule.into())
                .or_default()
                .entry(krate.into())
                .or_default()
                .insert(item.into(), n);
        }
        c
    }

    #[test]
    fn json_roundtrip_is_identity() {
        let c = counts(&[
            ("panic-surface", "pm-gf", "field::Gf::div", 12),
            ("panic-surface", "pm-gf", "(file)", 2),
            ("panic-surface", "pm-rse", "decoder::RseDecoder::decode", 3),
            ("unsafe-code", "pm-simd", "avx2::xor", 1),
        ]);
        let parsed = parse(&to_json(&c)).unwrap();
        assert_eq!(parsed, c);
    }

    #[test]
    fn empty_baseline_parses() {
        assert_eq!(parse("{}").unwrap(), Counts::new());
        assert_eq!(parse(" {\n} ").unwrap(), Counts::new());
    }

    #[test]
    fn unknown_rule_rejected() {
        let err = parse(r#"{"no-such-rule": {"pm-gf": {"f": 1}}}"#).unwrap_err();
        assert!(err.contains("unknown rule"), "{err}");
    }

    #[test]
    fn unsafe_allowance_only_for_waived_crates() {
        // The sanctioned boundary may carry a nonzero allowance…
        assert!(parse(r#"{"unsafe-code": {"pm-simd": {"avx2::xor": 2}}}"#).is_ok());
        // …a zero entry anywhere is harmless…
        assert!(parse(r#"{"unsafe-code": {"pm-core": {"lib::f": 0}}}"#).is_ok());
        // …but a nonzero allowance outside the waiver list is rejected.
        let err = parse(r#"{"unsafe-code": {"pm-core": {"lib::f": 1}}}"#).unwrap_err();
        assert!(
            err.contains("pm-core") && err.contains("unsafe-code"),
            "{err}"
        );
    }

    #[test]
    fn syntax_errors_are_diagnosed() {
        for bad in [
            "",
            "{",
            r#"{"panic-surface""#,
            r#"{"panic-surface": {"x": }}"#,
            r#"{"panic-surface": {"x": {"item": }}}"#,
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        // The retired crate-wide format — a bare count where the item map
        // belongs — is a syntax error at the count's position.
        let err = parse(r#"{"panic-surface": {"pm-gf": 84}}"#).unwrap_err();
        assert!(err.contains("expected '{' at byte 28"), "{err}");
    }

    #[test]
    fn compare_classifies_per_item_deltas() {
        let base = counts(&[
            ("panic-surface", "pm-gf", "field::div", 5),
            ("unsafe-code", "pm-simd", "avx2::xor", 2),
        ]);
        let cur = counts(&[
            ("panic-surface", "pm-gf", "field::div", 7),
            ("rng-entropy", "pm-sim", "run", 1),
        ]);
        let (regressions, improvements) = compare(&cur, &base);
        assert_eq!(
            regressions,
            vec![
                Delta {
                    rule: "panic-surface".into(),
                    crate_name: "pm-gf".into(),
                    item: "field::div".into(),
                    baseline: 5,
                    current: 7,
                },
                Delta {
                    rule: "rng-entropy".into(),
                    crate_name: "pm-sim".into(),
                    item: "run".into(),
                    baseline: 0,
                    current: 1,
                },
            ]
        );
        assert_eq!(improvements.len(), 1);
        assert_eq!(improvements[0].rule, "unsafe-code");
        assert_eq!(improvements[0].current, 0);
    }

    #[test]
    fn moved_violations_are_visible_despite_equal_totals() {
        let base = counts(&[("panic-surface", "pm-gf", "field::div", 1)]);
        let cur = counts(&[("panic-surface", "pm-gf", "field::mul", 1)]);
        let (regressions, improvements) = compare(&cur, &base);
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert_eq!(regressions[0].item, "field::mul");
        assert_eq!(improvements.len(), 1);
        assert_eq!(improvements[0].item, "field::div");
    }

    #[test]
    fn equal_counts_pass() {
        let c = counts(&[("panic-surface", "pm-gf", "field::div", 5)]);
        let (regressions, improvements) = compare(&c, &c);
        assert!(regressions.is_empty() && improvements.is_empty());
    }
}
