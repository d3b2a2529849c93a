//! SIMD-lane benchmarks: bulk mixer and MD5 hashing, per lane per input
//! size, with `Throughput::Elements` so the report pins elements/s for the
//! speedup claims (scalar vs AVX2).
//!
//! The AVX2 arm is skipped on a host that cannot execute it, mirroring
//! tarcrush's `is_x86_feature_detected!`-gated bench arms.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pet_hash::simd::{self, Lane};
use std::hint::black_box;

const SIZES: &[usize] = &[1_000, 100_000, 1_000_000];

fn lanes() -> Vec<Lane> {
    [Lane::Scalar, Lane::Avx2]
        .into_iter()
        .filter(|l| l.is_supported())
        .collect()
}

/// Bulk mixer hashing: `out[i] = truncate(mix2(seed, keys[i]), 32)`.
fn bench_mix_bulk(c: &mut Criterion) {
    let mut group = c.benchmark_group("simd_mix_bulk");
    for &n in SIZES {
        let keys: Vec<u64> = (0..n as u64).collect();
        let mut out = vec![0u64; n];
        group.throughput(Throughput::Elements(n as u64));
        for lane in lanes() {
            group.bench_with_input(BenchmarkId::new(lane.as_str(), n), &keys, |b, keys| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed = seed.wrapping_add(1);
                    simd::mix2_bulk_into(lane, seed, keys, 32, &mut out);
                    black_box(out[0])
                });
            });
        }
    }
    group.finish();
}

/// Bulk MD5 hashing: 8 independent single-block digests per AVX2 iteration.
fn bench_md5_bulk(c: &mut Criterion) {
    let mut group = c.benchmark_group("simd_md5_bulk");
    group.sample_size(20);
    for &n in SIZES {
        let keys: Vec<u64> = (0..n as u64).collect();
        let mut out = vec![0u64; n];
        group.throughput(Throughput::Elements(n as u64));
        for lane in lanes() {
            group.bench_with_input(BenchmarkId::new(lane.as_str(), n), &keys, |b, keys| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed = seed.wrapping_add(1);
                    simd::md5_bulk_into(lane, seed, keys, 32, &mut out);
                    black_box(out[0])
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_mix_bulk, bench_md5_bulk);
criterion_main!(benches);
