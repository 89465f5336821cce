//! Criterion benchmarks of the RSE codec — the measured basis of Fig. 1.
//!
//! Throughput is reported in bytes of *data* processed, so `thrpt` lines
//! convert directly to the paper's packets/second at 1 KB packets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use pm_gf::Gf256;
use pm_rse::{CodeSpec, GroupDecoder, RseDecoder, RseEncoder};

const PACKET: usize = 1024;

fn group_data_sized(k: usize, packet: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| {
            (0..packet)
                .map(|b| ((i * 37 + b * 11) % 256) as u8)
                .collect()
        })
        .collect()
}

fn group_data(k: usize) -> Vec<Vec<u8>> {
    group_data_sized(k, PACKET)
}

fn bench_encode(c: &mut Criterion) {
    let mut g = c.benchmark_group("encode");
    for &(k, h) in &[
        (7usize, 1usize),
        (7, 3),
        (20, 2),
        (20, 10),
        (100, 7),
        (100, 20),
    ] {
        let enc = RseEncoder::new(CodeSpec::new(k, h).unwrap()).unwrap();
        let data = group_data(k);
        g.throughput(Throughput::Bytes((k * PACKET) as u64));
        g.bench_with_input(
            BenchmarkId::new(format!("k={k}"), format!("h={h}")),
            &h,
            |b, _| {
                b.iter(|| enc.encode_all(std::hint::black_box(&data)).unwrap());
            },
        );
    }
    g.finish();
}

fn bench_encode_kernels(c: &mut Criterion) {
    // Cached shared-table kernels vs the seed's per-call-row kernel on the
    // same k=20, h=10, P=1024 encode workload. The "uncached_seed" variant
    // rebuilds a 256-entry multiplication row on the stack for every
    // (parity, packet) coefficient application — exactly what the encoder
    // did before the shared 64 KB table, from the field's log/exp tables as
    // the seed built it — so the ratio of these two lines is the
    // cached-vs-uncached speedup quoted in CHANGES.md.
    fn mul_add_uncached(c: Gf256, src: &[u8], dst: &mut [u8]) {
        let Some(lc) = c.log() else { return };
        if c == Gf256::ONE {
            dst.iter_mut().zip(src).for_each(|(d, s)| *d ^= s);
            return;
        }
        // c·x = alpha^(log c + log x), for every byte x but 0.
        let (log, exp) = pm_gf::gf256::log_exp();
        let mut row = [0u8; 256];
        for (p, &lx) in row.iter_mut().zip(log).skip(1) {
            *p = exp[usize::from(lc) + usize::from(lx)];
        }
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= row[usize::from(*s)];
        }
    }

    let (k, h) = (20usize, 10usize);
    let enc = RseEncoder::new(CodeSpec::new(k, h).unwrap()).unwrap();
    let data = group_data(k);
    let coeffs: Vec<Vec<Gf256>> = (0..h)
        .map(|j| (0..k).map(|i| enc.parity_coeff(j, i).unwrap()).collect())
        .collect();

    let mut g = c.benchmark_group("encode_kernels_k20_h10");
    g.throughput(Throughput::Bytes((k * PACKET) as u64));
    g.bench_function("cached", |b| {
        b.iter(|| enc.encode_all(std::hint::black_box(&data)).unwrap());
    });
    g.bench_function("uncached_seed", |b| {
        b.iter(|| {
            let data = std::hint::black_box(&data);
            let mut parities = Vec::with_capacity(h);
            for row in &coeffs {
                let mut out = vec![0u8; PACKET];
                for (cf, d) in row.iter().zip(data) {
                    mul_add_uncached(*cf, d, &mut out);
                }
                parities.push(out);
            }
            parities
        });
    });
    g.finish();
}

fn bench_backend_curves(c: &mut Criterion) {
    // Scalar-vs-SIMD encode/decode curves for BENCH_codec.json: every
    // backend this host can run, pinned explicitly via `with_kernels` so
    // one process measures them all, at the paper's workhorse geometries
    // across small/default/jumbo packets.
    use pm_simd::{kernels_for, Backend};

    let backends: Vec<&'static pm_simd::Kernels> =
        [Backend::Scalar, Backend::Avx2, Backend::Gfni, Backend::Neon]
            .into_iter()
            .filter_map(kernels_for)
            .collect();
    for &(k, h) in &[(20usize, 10usize), (7, 1)] {
        for &packet in &[256usize, 1024, 8192] {
            let data = group_data_sized(k, packet);
            let mut g = c.benchmark_group(format!("encode_backend/k{k}_h{h}_p{packet}"));
            g.throughput(Throughput::Bytes((k * packet) as u64));
            for kern in &backends {
                let enc = RseEncoder::with_kernels(CodeSpec::new(k, h).unwrap(), kern);
                g.bench_function(kern.backend().name(), |b| {
                    b.iter(|| enc.encode_all(std::hint::black_box(&data)).unwrap());
                });
            }
            g.finish();

            let lost = h.min(k);
            let mut g = c.benchmark_group(format!("decode_backend/k{k}_h{h}_p{packet}"));
            g.throughput(Throughput::Bytes((k * packet) as u64));
            for kern in &backends {
                let enc = RseEncoder::with_kernels(CodeSpec::new(k, h).unwrap(), kern);
                let dec = RseDecoder::from_encoder(&enc);
                let parities = enc.encode_all(&data).unwrap();
                let shares: Vec<(usize, &[u8])> = data
                    .iter()
                    .enumerate()
                    .skip(lost)
                    .map(|(i, d)| (i, d.as_slice()))
                    .chain(
                        parities
                            .iter()
                            .enumerate()
                            .map(|(j, p)| (k + j, p.as_slice())),
                    )
                    .collect();
                g.bench_function(kern.backend().name(), |b| {
                    b.iter(|| dec.decode(std::hint::black_box(&shares)).unwrap());
                });
            }
            g.finish();
        }
    }
}

fn bench_single_parity(c: &mut Criterion) {
    // Protocol NP's hot path: produce exactly one fresh parity on NAK.
    let mut g = c.benchmark_group("single_parity");
    for &k in &[7usize, 20, 100] {
        let enc = RseEncoder::new(CodeSpec::new(k, 8).unwrap()).unwrap();
        let data = group_data(k);
        g.throughput(Throughput::Bytes((k * PACKET) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| enc.parity(3, std::hint::black_box(&data)).unwrap());
        });
    }
    g.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut g = c.benchmark_group("decode");
    for &(k, lost) in &[(7usize, 1usize), (7, 3), (20, 5), (100, 7)] {
        let enc = RseEncoder::new(CodeSpec::new(k, lost).unwrap()).unwrap();
        let dec = RseDecoder::from_encoder(&enc);
        let data = group_data(k);
        let parities = enc.encode_all(&data).unwrap();
        let shares: Vec<(usize, &[u8])> = data
            .iter()
            .enumerate()
            .skip(lost)
            .map(|(i, d)| (i, d.as_slice()))
            .chain(
                parities
                    .iter()
                    .enumerate()
                    .map(|(j, p)| (k + j, p.as_slice())),
            )
            .collect();
        g.throughput(Throughput::Bytes((k * PACKET) as u64));
        g.bench_with_input(
            BenchmarkId::new(format!("k={k}"), format!("lost={lost}")),
            &lost,
            |b, _| {
                b.iter(|| dec.decode(std::hint::black_box(&shares)).unwrap());
            },
        );
    }
    g.finish();
}

fn bench_decode_repeat_pattern(c: &mut Criterion) {
    // A receiver stuck behind one lossy link sees the same loss pattern
    // group after group. A decoder keeps nothing between decodes, so this
    // costs what `decode_cold_pattern` does at its geometry: the l x k
    // decode rows written down, then the kernel pass.
    let (k, lost) = (20usize, 5usize);
    let enc = RseEncoder::new(CodeSpec::new(k, lost).unwrap()).unwrap();
    let dec = RseDecoder::from_encoder(&enc);
    let data = group_data(k);
    let parities = enc.encode_all(&data).unwrap();
    let shares: Vec<(usize, &[u8])> = data
        .iter()
        .enumerate()
        .skip(lost)
        .map(|(i, d)| (i, d.as_slice()))
        .chain(
            parities
                .iter()
                .enumerate()
                .map(|(j, p)| (k + j, p.as_slice())),
        )
        .collect();
    assert_eq!(dec.decode(&shares).unwrap(), data); // nothing is kept for the repeats
    c.bench_function("decode_repeat_pattern_k20_lost5", |b| {
        b.iter(|| dec.decode(std::hint::black_box(&shares)).unwrap());
    });
}

fn bench_codec_construct(c: &mut Criterion) {
    // What every NP sender (encoder) and every NP receiver that sees a loss
    // (decoder) pays once per geometry, at the e2e workloads' three
    // geometries: k with the maximum parity count, n = 255.
    let mut g = c.benchmark_group("codec_construct");
    for &(k, h) in &[(7usize, 248usize), (20, 235), (100, 155)] {
        let spec = CodeSpec::new(k, h).unwrap();
        let id = format!("k{k}_h{h}");
        g.bench_function(BenchmarkId::new("encoder", &id), |b| {
            b.iter(|| RseEncoder::new(std::hint::black_box(spec)).unwrap());
        });
        g.bench_function(BenchmarkId::new("decoder", &id), |b| {
            b.iter(|| RseDecoder::new(std::hint::black_box(spec)).unwrap());
        });
    }
    g.finish();
}

fn bench_decode_cold_pattern(c: &mut Criterion) {
    // A decode per loss pattern, cycling 64 patterns: the closed-form
    // decode rows plus the kernel pass, the cost a receiver under
    // independent loss pays per group. `k100_l10` is the `mem_codec_k100`
    // geometry (k=100, about ten losses a group, P=1024); `k100_l50` is
    // where writing the rows down rather than solving for them shows most.
    let (k, h) = (100usize, 155usize);
    let enc = RseEncoder::new(CodeSpec::new(k, h).unwrap()).unwrap();
    let dec = RseDecoder::from_encoder(&enc);
    let data = group_data(k);
    let mut g = c.benchmark_group("decode_cold_pattern");
    g.throughput(Throughput::Bytes((k * PACKET) as u64));
    for lost in [10usize, 50] {
        let parities = enc.parities(lost, &data).unwrap();
        let patterns: Vec<Vec<(usize, &[u8])>> = (0..64usize)
            .map(|p| {
                let gone = |i: &usize| (0..lost).any(|t| (p + 7 * t) % k == *i);
                (0..k)
                    .filter(|i| !gone(i))
                    .map(|i| (i, data[i].as_slice()))
                    .chain(
                        parities
                            .iter()
                            .enumerate()
                            .map(|(j, p)| (k + j, p.as_slice())),
                    )
                    .collect()
            })
            .collect();
        let mut next = 0usize;
        g.bench_function(format!("k{k}_l{lost}"), |b| {
            b.iter(|| {
                next = (next + 1) % patterns.len();
                dec.decode(std::hint::black_box(&patterns[next])).unwrap()
            });
        });
    }
    g.finish();
}

fn bench_group_accumulate(c: &mut Criterion) {
    // What a receiver pays per loss-free transmission group around the
    // payload itself: a `GroupDecoder` made, its k data packets inserted
    // (reference-count bumps), the systematic fast path taken, everything
    // dropped. NP runs h = 255 - k, so anything in there that is sized by
    // the block rather than by what arrived shows at k = 7; no e2e replay
    // row isolates it.
    let mut g = c.benchmark_group("group_accumulate");
    for &(k, h) in &[(7usize, 248usize), (100, 155)] {
        let spec = CodeSpec::new(k, h).unwrap();
        // The packets as the accumulator's own shared-storage type (which
        // this crate does not otherwise name): one group's worth, taken back
        // out of a first accumulator.
        let mut first = GroupDecoder::new(spec);
        for (i, packet) in group_data(k).into_iter().enumerate() {
            first.insert(i, packet.into()).unwrap();
        }
        let data = first.data_if_complete().unwrap();
        g.bench_function(format!("k{k}_n{}", k + h), |b| {
            b.iter(|| {
                let mut group = GroupDecoder::new(std::hint::black_box(spec));
                for (i, packet) in data.iter().enumerate() {
                    group.insert(i, packet.clone()).unwrap();
                }
                group.data_if_complete().unwrap()
            });
        });
    }
    g.finish();
}

fn bench_decode_fast_path(c: &mut Criterion) {
    // All data received: decoding must be near-free (systematic code).
    let enc = RseEncoder::new(CodeSpec::new(20, 10).unwrap()).unwrap();
    let dec = RseDecoder::from_encoder(&enc);
    let data = group_data(20);
    let shares: Vec<(usize, &[u8])> = data
        .iter()
        .enumerate()
        .map(|(i, d)| (i, d.as_slice()))
        .collect();
    c.bench_function("decode_fast_path_k20", |b| {
        b.iter(|| dec.decode(std::hint::black_box(&shares)).unwrap());
    });
}

criterion_group!(
    benches,
    bench_encode,
    bench_encode_kernels,
    bench_backend_curves,
    bench_single_parity,
    bench_decode,
    bench_decode_repeat_pattern,
    bench_codec_construct,
    bench_decode_cold_pattern,
    bench_group_accumulate,
    bench_decode_fast_path
);
criterion_main!(benches);
