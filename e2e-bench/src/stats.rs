//! Order statistics over small samples: the median and quartiles every
//! metric is reported with, and the percentile helper that refuses a tail
//! the sample cannot support.

/// Median and quartiles of a sample, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them, so
/// the spreads printed here are the ones the driver computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    /// Interquartile distance as a share of the median (0 when the median
    /// is 0: a constant-zero metric has no spread).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `j/4` by the exclusive method: rank `j(n+1)/4`, linearly
/// interpolated between its neighbours -- extrapolated from the outermost
/// pair when the rank falls outside the sample, exactly as Python does.
fn exclusive_quartile(sorted: &[f64], j: usize) -> f64 {
    let n = sorted.len();
    let pos = j * (n + 1);
    let idx = (pos / 4).clamp(1, n - 1);
    let delta = pos as f64 - (idx * 4) as f64;
    (sorted[idx - 1] * (4.0 - delta) + sorted[idx] * delta) / 4.0
}

/// Quartiles of `values`; `None` for an empty sample. A single sample is
/// its own median with zero spread.
pub fn quartiles(values: &[f64]) -> Option<Quartiles> {
    let s = sorted(values);
    match s.len() {
        0 => None,
        1 => Some(Quartiles {
            q1: s[0],
            median: s[0],
            q3: s[0],
            n: 1,
        }),
        n => Some(Quartiles {
            q1: exclusive_quartile(&s, 1),
            median: exclusive_quartile(&s, 2),
            q3: exclusive_quartile(&s, 3),
            n,
        }),
    }
}

/// Median of `values` (0 for an empty sample, which no caller produces:
/// every run makes at least one repetition).
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |q| q.median)
}

/// Samples a percentile must leave beyond itself to be reported.
pub const MIN_BEYOND: usize = 10;

/// The `pct`-th percentile (nearest rank) of `values`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it -- a tail read off
/// fewer samples is one slow run, not a percentile.
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    if n == 0 || !(0.0..100.0).contains(&pct) {
        return None;
    }
    let rank = nearest_rank(n, pct);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(s[rank - 1])
}

fn nearest_rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile with no sample-count guard: for per-layer
/// distributions with thousands of samples (mux turn durations).
pub fn percentile_unguarded(values: &mut [f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[nearest_rank(values.len(), pct) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v).unwrap();
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        assert!(quartiles(&[]).is_none());
        assert_eq!(quartiles(&[4.0]).unwrap().spread(), 0.0);
    }

    #[test]
    fn percentile_refuses_a_tail_with_fewer_than_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200 leaves exactly 10 beyond.
        assert_eq!(percentile(&v, 95.0), Some(190.0));
        // One sample fewer leaves 9 beyond: refused.
        assert_eq!(percentile(&v[..199], 95.0), None);
        // p99 of 200 leaves 2 beyond: refused; p50 is fine.
        assert_eq!(percentile(&v, 99.0), None);
        assert_eq!(percentile(&v, 50.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&v, 100.0), None);
    }
}
