//! Figure 1 — coding and decoding rates [packets/s] vs redundancy `h/k`.
//!
//! The paper measured Rizzo's coder on a Pentium 133 with 1 KB packets.
//! We *measure our own codec* the same way (wall-clock encode/decode of
//! 1 KB-packet groups) — absolute rates reflect this machine, but the
//! figure's law, rate inversely proportional to `h * k`, is
//! hardware-independent and is what the shape check asserts.

use std::time::Instant;

use pm_rse::{CodeSpec, RseDecoder, RseEncoder};

use crate::common::{Figure, Quality, Series};

/// Packet size of the paper's measurement.
const PACKET: usize = 1024;

fn group(k: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| {
            (0..PACKET)
                .map(|b| ((i * 31 + b * 7) % 256) as u8)
                .collect()
        })
        .collect()
}

/// Measure encode rate in *data packets per second* while producing `h`
/// parities per group of `k` one call each, as the paper's coder does:
/// every parity is its own pass over the group, so the rate follows the
/// Fig. 1 law `1 / (h * k)`.
pub fn measure_encode_rate(k: usize, h: usize, min_groups: usize) -> f64 {
    let spec = CodeSpec::new(k, h).expect("valid spec");
    let enc = RseEncoder::new(spec).expect("encoder");
    let data = group(k);
    encode_rate(k, min_groups, || {
        for j in 0..h {
            std::hint::black_box(enc.parity(j, std::hint::black_box(&data)).unwrap());
        }
    })
}

/// Measure encode rate in *data packets per second* while producing the
/// `h` parities per group of `k` as one round, as protocol NP's sender
/// does: the kernel reads the group once per eight parities, so at small
/// `h` the rate falls more slowly than `1 / h`.
pub fn measure_round_rate(k: usize, h: usize, min_groups: usize) -> f64 {
    let spec = CodeSpec::new(k, h).expect("valid spec");
    let enc = RseEncoder::new(spec).expect("encoder");
    let data = group(k);
    encode_rate(k, min_groups, || {
        std::hint::black_box(enc.encode_round(0, h, std::hint::black_box(&data)).unwrap());
    })
}

/// Data packets per second of `encode`, one call per group of `k`, after
/// one warm-up call.
fn encode_rate(k: usize, min_groups: usize, mut encode: impl FnMut()) -> f64 {
    encode();
    let start = Instant::now();
    let mut groups = 0usize;
    while groups < min_groups || start.elapsed().as_millis() < 30 {
        encode();
        groups += 1;
    }
    (groups * k) as f64 / start.elapsed().as_secs_f64()
}

/// Measure decode rate in data packets per second given `h` of each group
/// of `k` are lost and reconstructed from parities.
pub fn measure_decode_rate(k: usize, h: usize, min_groups: usize) -> f64 {
    let spec = CodeSpec::new(k, h).expect("valid spec");
    let enc = RseEncoder::new(spec).expect("encoder");
    let dec = RseDecoder::from_encoder(&enc);
    let data = group(k);
    let parities = enc.encode_all(&data).unwrap();
    // Lose the first h data packets; decode from the rest + all parities.
    let shares: Vec<(usize, &[u8])> = data
        .iter()
        .enumerate()
        .skip(h)
        .map(|(i, d)| (i, d.as_slice()))
        .chain(
            parities
                .iter()
                .enumerate()
                .map(|(j, p)| (k + j, p.as_slice())),
        )
        .collect();
    let _ = dec.decode(&shares).unwrap();
    let start = Instant::now();
    let mut groups = 0usize;
    while groups < min_groups || start.elapsed().as_millis() < 30 {
        std::hint::black_box(dec.decode(std::hint::black_box(&shares)).unwrap());
        groups += 1;
    }
    (groups * k) as f64 / start.elapsed().as_secs_f64()
}

/// The median of `rates`.
fn median(rates: &[f64]) -> f64 {
    let mut sorted = rates.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// Generate Figure 1. At full quality each point is the median of nine
/// 30-ms windows, and the windows are interleaved: every pass times
/// every point once, so a stretch of slow host (preemption, a frequency
/// step) lands on all points alike rather than bending one series. A
/// quick figure times one window per point.
pub fn generate(quality: Quality) -> Figure {
    // (groups per window at least, windows per point)
    let (min_groups, windows_per_point) = match quality {
        Quality::Quick => (2, 1),
        Quality::Full => (20, 9),
    };
    let ks = [7usize, 20, 100];
    let redundancies = [0.1f64, 0.2, 0.4, 0.6, 0.8, 1.0];
    let mut points: Vec<(usize, usize)> = ks
        .iter()
        .flat_map(|&k| {
            redundancies
                .iter()
                .map(move |&rho| (k, ((rho * k as f64).round() as usize).max(1)))
        })
        .filter(|&(k, h)| k + h <= 255)
        .collect();
    // Two redundancies can round to one h (k = 7 at 10 % and 20 %).
    points.dedup();
    let measures: [fn(usize, usize, usize) -> f64; 3] =
        [measure_encode_rate, measure_round_rate, measure_decode_rate];
    // windows[point][measure]: one rate per pass.
    let mut windows = vec![<[Vec<f64>; 3]>::default(); points.len()];
    for _ in 0..windows_per_point {
        for (&(k, h), rates) in points.iter().zip(&mut windows) {
            for (measure, rates) in measures.iter().zip(rates) {
                rates.push(measure(k, h, min_groups));
            }
        }
    }
    let mut series = Vec::new();
    for &k in &ks {
        let rows = points.iter().zip(&windows).filter(|((pk, _), _)| *pk == k);
        for (m, name) in ["encode", "encode round", "decode"].iter().enumerate() {
            // x in percent, like the paper.
            let pts = rows
                .clone()
                .map(|(&(_, h), rates)| (100.0 * h as f64 / k as f64, median(&rates[m])));
            series.push(Series::new(format!("{name} k={k}"), pts.collect()));
        }
    }
    Figure {
        id: "fig1".into(),
        title: "RSE coding/decoding rate vs redundancy (measured on this machine)".into(),
        x_label: "redundancy %".into(),
        y_label: "rate [packets/s]".into(),
        log_x: false,
        series,
        notes: vec![
            format!("packet size {PACKET} bytes, GF(2^8), systematic Vandermonde codec"),
            "paper hardware: Pentium 133; shape check: rate ∝ 1/(h·k)".into(),
            "encode: one parity per call, like the paper's coder; encode round: all h in one call, as protocol NP sends them".into(),
            format!("each point: the median of {windows_per_point} interleaved 30-ms windows"),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The median, by ratio, of nine interleaved pairs of 30-ms windows.
    /// The host's speed drifts under these tests (one window can read half
    /// or twice its neighbours); the two windows of a pair share the drift,
    /// so their ratio compares the codec's rates, not the host's.
    fn median_pair(a: impl Fn() -> f64, b: impl Fn() -> f64) -> (f64, f64) {
        let mut pairs: Vec<(f64, f64)> = (0..9).map(|_| (a(), b())).collect();
        pairs.sort_by(|p, q| (p.0 / p.1).total_cmp(&(q.0 / q.1)));
        pairs[4]
    }

    #[test]
    fn rate_inverse_in_h() {
        let _cores = crate::tests::cores_alone();
        // Doubling h should roughly halve the encode rate (the Fig. 1 law).
        let (r1, r4) = median_pair(
            || measure_encode_rate(7, 1, 5),
            || measure_encode_rate(7, 4, 5),
        );
        let ratio = r1 / r4;
        assert!(
            (2.0..8.0).contains(&ratio),
            "expected ~4x, got {ratio} ({r1} vs {r4})"
        );
    }

    #[test]
    fn rate_decreases_with_k_at_fixed_redundancy() {
        let _cores = crate::tests::cores_alone();
        // 50% redundancy: k=20/h=10 does ~2.8x the per-packet work of
        // k=7/h=4 (h scales with k).
        let (r7, r20) = median_pair(
            || measure_encode_rate(7, 4, 5),
            || measure_encode_rate(20, 10, 5),
        );
        assert!(r7 > r20, "k=7 rate {r7} should exceed k=20 rate {r20}");
    }

    #[test]
    fn decode_within_factor_of_encode() {
        let _cores = crate::tests::cores_alone();
        // The paper's decode points sit near the encode points.
        let (e, d) = median_pair(
            || measure_encode_rate(7, 2, 5),
            || measure_decode_rate(7, 2, 5),
        );
        let ratio = e / d;
        assert!((0.2..5.0).contains(&ratio), "encode {e} vs decode {d}");
    }
}
