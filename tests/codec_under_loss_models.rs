//! Codec x loss-model integration: drive the RSE codec with loss patterns
//! drawn from every `pm-loss` process and check the FEC-block recovery
//! logic holds exactly where the math says it should.

use parity_multicast::loss::{GilbertLoss, IndependentLoss, LossModel, TreeLoss};
use parity_multicast::rse::{CodeSpec, GroupDecoder, RseDecoder, RseEncoder};

fn group(k: usize, len: usize, tag: u8) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| {
            (0..len)
                .map(|b| (i as u8) ^ (b as u8).wrapping_mul(37) ^ tag)
                .collect()
        })
        .collect()
}

/// Send one FEC block through a loss pattern; return whether receiver 0
/// recovered the group and how many packets it took.
fn transmit_block<M: LossModel>(
    model: &mut M,
    data: &[Vec<u8>],
    parities: &[Vec<u8>],
    dec: &RseDecoder,
    t0: f64,
    delta: f64,
) -> (bool, usize) {
    let spec = dec.spec();
    let mut gd = GroupDecoder::new(*spec);
    let mut received = 0usize;
    let mut scratch = Vec::new();
    for (slot, payload) in data.iter().chain(parities.iter()).enumerate() {
        let lost = model.sample_one(t0 + slot as f64 * delta, 0, &mut scratch);
        if !lost && !gd.is_decodable() {
            gd.insert(slot, payload.clone().into())
                .expect("valid insert");
            received += 1;
        }
    }
    if gd.is_decodable() {
        let out = gd.reconstruct(dec).expect("decodable group reconstructs");
        for (i, d) in data.iter().enumerate() {
            assert_eq!(out[i].as_ref(), &d[..], "reconstruction mismatch at {i}");
        }
        (true, received)
    } else {
        (false, received)
    }
}

#[test]
fn recovery_rate_matches_block_math_independent_loss() {
    // P(block decodable) = P(Bin(n, p) <= h); verify empirically via the
    // full codec path.
    let (k, h, p) = (7usize, 2usize, 0.15);
    let spec = CodeSpec::new(k, h).unwrap();
    let enc = RseEncoder::new(spec).unwrap();
    let dec = RseDecoder::from_encoder(&enc);
    let data = group(k, 64, 1);
    let parities = enc.encode_all(&data).unwrap();
    let mut model = IndependentLoss::new(1, p, 42);
    let trials = 20_000;
    let mut ok = 0;
    for t in 0..trials {
        let (recovered, _) = transmit_block(&mut model, &data, &parities, &dec, t as f64, 0.001);
        if recovered {
            ok += 1;
        }
    }
    let rate = ok as f64 / trials as f64;
    // Analytic: sum_{j<=h} C(9,j) p^j (1-p)^(9-j).
    let n = k + h;
    let analytic: f64 = (0..=h)
        .map(|j| {
            let c = (0..j).fold(1.0, |acc, i| acc * (n - i) as f64 / (i + 1) as f64);
            c * p.powi(j as i32) * (1.0 - p).powi((n - j) as i32)
        })
        .sum();
    assert!(
        (rate - analytic).abs() < 0.02,
        "block recovery rate {rate} vs analytic {analytic}"
    );
}

#[test]
fn burst_loss_hurts_recovery_at_same_p() {
    // Same marginal p, bursty losses concentrate inside blocks => more
    // unrecoverable blocks (why the paper's Fig. 15 goes wrong for
    // layered FEC).
    let (k, h, p) = (7usize, 1usize, 0.05);
    let spec = CodeSpec::new(k, h).unwrap();
    let enc = RseEncoder::new(spec).unwrap();
    let dec = RseDecoder::from_encoder(&enc);
    let data = group(k, 32, 2);
    let parities = enc.encode_all(&data).unwrap();
    let delta = 0.04;
    let trials = 30_000;
    let mut fail_iid = 0;
    let mut fail_burst = 0;
    let mut iid = IndependentLoss::new(1, p, 7);
    let mut burst = GilbertLoss::new(1, p, 3.0, delta, 7);
    for t in 0..trials {
        let t0 = t as f64 * (k + h) as f64 * delta;
        if !transmit_block(&mut iid, &data, &parities, &dec, t0, delta).0 {
            fail_iid += 1;
        }
        if !transmit_block(&mut burst, &data, &parities, &dec, t0, delta).0 {
            fail_burst += 1;
        }
    }
    // With h = 1 and mean burst 3 the analytic failure ratio is ~1.7x;
    // require a clear margin above parity.
    assert!(
        fail_burst as f64 > fail_iid as f64 * 1.4,
        "bursty failures {fail_burst} should clearly exceed iid failures {fail_iid}"
    );
}

#[test]
fn interleaving_restores_burst_recovery() {
    // Spreading a block across an interleaving window (transmitting its
    // packets delta * depth apart) restores most of the iid recovery rate.
    let (k, h, p) = (7usize, 1usize, 0.05);
    let spec = CodeSpec::new(k, h).unwrap();
    let enc = RseEncoder::new(spec).unwrap();
    let dec = RseDecoder::from_encoder(&enc);
    let data = group(k, 32, 3);
    let parities = enc.encode_all(&data).unwrap();
    let delta = 0.04;
    let trials = 30_000;
    let mut fail_plain = 0;
    let mut fail_interleaved = 0;
    let mut burst_a = GilbertLoss::new(1, p, 3.0, delta, 9);
    let mut burst_b = GilbertLoss::new(1, p, 3.0, delta, 9);
    let depth = 8.0; // effective spacing when 8 blocks interleave
    for t in 0..trials {
        let t0 = t as f64 * (k + h) as f64 * delta * depth;
        if !transmit_block(&mut burst_a, &data, &parities, &dec, t0, delta).0 {
            fail_plain += 1;
        }
        if !transmit_block(&mut burst_b, &data, &parities, &dec, t0, delta * depth).0 {
            fail_interleaved += 1;
        }
    }
    // Spreading by 8x packet spacing decorrelates the chain (s * spacing
    // ~ 3.5), pushing failures back to ~the iid level — about 60% of the
    // back-to-back count for these parameters.
    assert!(
        (fail_interleaved as f64) < fail_plain as f64 * 0.75,
        "interleaved failures {fail_interleaved} vs plain {fail_plain}"
    );
}

#[test]
fn shared_tree_loss_block_recovery() {
    // Under FBT loss all packets of one transmission share the tree draw
    // per packet; run blocks across 8 receivers and check that whenever
    // ANY receiver gets >= k packets it reconstructs the identical group.
    let (k, h) = (5usize, 3usize);
    let spec = CodeSpec::new(k, h).unwrap();
    let enc = RseEncoder::new(spec).unwrap();
    let dec = RseDecoder::from_encoder(&enc);
    let data = group(k, 24, 4);
    let parities = enc.encode_all(&data).unwrap();
    let mut tree = TreeLoss::full_binary(3, 0.2, 11);
    let r = tree.receivers();
    let mut any_decoded = 0;
    for t in 0..2000 {
        let mut gds: Vec<GroupDecoder> = (0..r).map(|_| GroupDecoder::new(spec)).collect();
        for (slot, payload) in data.iter().chain(parities.iter()).enumerate() {
            let pattern = tree.sample_vec(t as f64 + slot as f64 * 0.001);
            for (rc, lost) in pattern.iter().enumerate() {
                if !lost && !gds[rc].is_decodable() {
                    gds[rc].insert(slot, payload.clone().into()).unwrap();
                }
            }
        }
        for gd in &gds {
            if gd.is_decodable() {
                any_decoded += 1;
                let out = gd.reconstruct(&dec).unwrap();
                for (i, d) in data.iter().enumerate() {
                    assert_eq!(out[i].as_ref(), &d[..]);
                }
            }
        }
    }
    assert!(
        any_decoded > 0,
        "some receivers must decode at p = 0.2 with 3 parities"
    );
}
