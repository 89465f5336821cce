//! Shared figure plumbing: series containers, output formats, and the
//! standard parameter grids of the paper's plots.

use serde::{Serialize, Value};

/// How much compute to spend. `Quick` keeps every figure under ~1 s for
//  tests/CI; `Full` uses the paper's grids (R to 10^6 analytical, 2^17
/// simulated) for EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quality {
    /// Small grids for smoke tests.
    Quick,
    /// Paper-scale grids.
    Full,
}

/// One labelled curve.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (matches the paper's legends where possible).
    pub label: String,
    /// `(x, y)` samples.
    pub points: Vec<(f64, f64)>,
}

// The vendored serde has no derive macro (no proc-macro crates offline),
// so the JSON tree is built by hand.
impl Serialize for Series {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("label".into(), self.label.to_value()),
            ("points".into(), self.points.to_value()),
        ])
    }
}

impl Series {
    /// Build from a label and points.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }

    /// The `y` at the largest `x` (the "right edge" of the curve, where
    /// the paper's conclusions usually live).
    pub fn last_y(&self) -> Option<f64> {
        self.points.last().map(|&(_, y)| y)
    }

    /// Linear-interpolated `y` at `x` (points must be x-sorted).
    pub fn y_at(&self, x: f64) -> Option<f64> {
        let pts = &self.points;
        if pts.is_empty() {
            return None;
        }
        if x <= pts[0].0 {
            return Some(pts[0].1);
        }
        for w in pts.windows(2) {
            let ((x0, y0), (x1, y1)) = (w[0], w[1]);
            if x <= x1 {
                let t = if x1 > x0 { (x - x0) / (x1 - x0) } else { 0.0 };
                return Some(y0 + t * (y1 - y0));
            }
        }
        Some(pts[pts.len() - 1].1)
    }
}

/// One reproduced figure.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Identifier, e.g. `"fig5"`.
    pub id: String,
    /// Paper caption, abbreviated.
    pub title: String,
    /// X axis label.
    pub x_label: String,
    /// Y axis label.
    pub y_label: String,
    /// X axis is logarithmic in the paper.
    pub log_x: bool,
    /// The curves.
    pub series: Vec<Series>,
    /// Reproduction notes (parameters, substitutions).
    pub notes: Vec<String>,
}

impl Serialize for Figure {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("id".into(), self.id.to_value()),
            ("title".into(), self.title.to_value()),
            ("x_label".into(), self.x_label.to_value()),
            ("y_label".into(), self.y_label.to_value()),
            ("log_x".into(), self.log_x.to_value()),
            ("series".into(), self.series.to_value()),
            ("notes".into(), self.notes.to_value()),
        ])
    }
}

impl Figure {
    /// Find a series by its label.
    pub fn series_named(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Render as an aligned text table (x column + one column per series).
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}", self.id, self.title);
        for n in &self.notes {
            let _ = writeln!(out, "#   {n}");
        }
        let _ = write!(out, "{:>14}", self.x_label);
        for s in &self.series {
            let _ = write!(out, "{:>22}", s.label);
        }
        let _ = writeln!(out);
        // Union of x values across series, sorted.
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.0))
            .collect();
        xs.sort_by(|a, b| a.total_cmp(b));
        xs.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        for x in xs {
            let _ = write!(out, "{x:>14.6}");
            for s in &self.series {
                match s.points.iter().find(|p| (p.0 - x).abs() < 1e-12) {
                    Some(&(_, y)) => {
                        let _ = write!(out, "{y:>22.4}");
                    }
                    None => {
                        let _ = write!(out, "{:>22}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Render as CSV (long format: series,x,y).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("series,x,y\n");
        for s in &self.series {
            for &(x, y) in &s.points {
                out.push_str(&format!("{},{x},{y}\n", s.label.replace(',', ";")));
            }
        }
        out
    }

    /// Serialize to pretty JSON.
    ///
    /// # Panics
    /// Never (the structure contains only serializable primitives).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("figure serializes")
    }
}

/// Receiver-count grid `10^0 .. 10^max_exp10`, a few points per decade —
/// the x-axis of most analytical figures.
pub fn receiver_grid(quality: Quality) -> Vec<u64> {
    let max_exp = match quality {
        Quality::Quick => 3,
        Quality::Full => 6,
    };
    let mut out = Vec::new();
    for e in 0..=max_exp {
        let base = 10u64.pow(e);
        out.push(base);
        if e < max_exp {
            out.push(base * 3); // ~half-decade point
        }
    }
    out
}

/// Power-of-two receiver grid for tree simulations (`R = 2^d`), to the
/// paper's `2^17` at full quality.
pub fn pow2_grid(quality: Quality) -> Vec<u64> {
    let max_d = match quality {
        Quality::Quick => 6,
        Quality::Full => 17,
    };
    (0..=max_d).map(|d| 1u64 << d).collect()
}

/// Simulation trial budget.
pub fn sim_trials(quality: Quality) -> usize {
    match quality {
        Quality::Quick => 120,
        Quality::Full => 3000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Figure {
        Figure {
            id: "figX".into(),
            title: "demo".into(),
            x_label: "R".into(),
            y_label: "E[M]".into(),
            log_x: true,
            series: vec![
                Series::new("a", vec![(1.0, 1.0), (10.0, 2.0)]),
                Series::new("b", vec![(1.0, 3.0)]),
            ],
            notes: vec!["note".into()],
        }
    }

    #[test]
    fn table_includes_all_series_and_gaps() {
        let t = demo().to_table();
        assert!(t.contains("figX"));
        assert!(t.contains('a') && t.contains('b'));
        assert!(t.contains('-'), "missing y rendered as dash");
    }

    #[test]
    fn csv_long_format() {
        let c = demo().to_csv();
        assert!(c.starts_with("series,x,y\n"));
        assert_eq!(c.lines().count(), 1 + 3);
    }

    #[test]
    fn json_roundtrips_through_serde() {
        let j = demo().to_json();
        let v: serde_json::Value = serde_json::from_str(&j).unwrap();
        assert_eq!(v["id"], "figX");
        assert_eq!(v["series"][0]["points"][1][1], 2.0);
    }

    #[test]
    fn interpolation() {
        let s = Series::new("s", vec![(1.0, 1.0), (3.0, 3.0)]);
        assert_eq!(s.y_at(2.0), Some(2.0));
        assert_eq!(s.y_at(0.0), Some(1.0));
        assert_eq!(s.y_at(9.0), Some(3.0));
        assert_eq!(s.last_y(), Some(3.0));
        assert_eq!(Series::new("e", vec![]).y_at(1.0), None);
    }

    #[test]
    fn grids() {
        assert_eq!(receiver_grid(Quality::Quick).first(), Some(&1));
        assert_eq!(*receiver_grid(Quality::Full).last().unwrap(), 1_000_000);
        assert_eq!(*pow2_grid(Quality::Quick).last().unwrap(), 64);
        assert_eq!(*pow2_grid(Quality::Full).last().unwrap(), 1 << 17);
        assert!(sim_trials(Quality::Full) > sim_trials(Quality::Quick));
    }
}
