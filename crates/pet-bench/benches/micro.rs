//! Micro-benchmarks of the protocol hot paths: hash families, geometric
//! hashing, roster construction, prefix-count queries, whole kernel runs
//! and the code sort.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pet_core::bits::BitString;
use pet_core::config::PetConfig;
use pet_core::front::Estimator;
use pet_core::kernel::CodeBank;
use pet_core::oracle::{CodeRoster, ResponderOracle, RoundStart};
use pet_core::reader::run_round;
use pet_hash::bulk::{hash_codes_into, radix_sort_codes, RadixScratch};
use pet_hash::family::{AnyFamily, HashFamily, HashKind};
use pet_hash::{GeometricHasher, MixFamily};
use pet_phy::channel::PerfectChannel;
use pet_phy::Air;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;

fn bench_hash_families(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash_family");
    group.throughput(Throughput::Elements(1));
    for kind in [HashKind::Mix, HashKind::Md5, HashKind::Sha1] {
        let fam = AnyFamily::new(kind);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{kind:?}")),
            &fam,
            |b, fam| {
                let mut id = 0u64;
                b.iter(|| {
                    id = id.wrapping_add(1);
                    black_box(fam.hash_bits(7, id, 32))
                });
            },
        );
    }
    group.finish();
}

fn bench_geometric(c: &mut Criterion) {
    let geo = GeometricHasher::new(MixFamily::new(), 32);
    c.bench_function("geometric_slot", |b| {
        let mut id = 0u64;
        b.iter(|| {
            id = id.wrapping_add(1);
            black_box(geo.slot(11, id))
        });
    });
}

fn bench_roster(c: &mut Criterion) {
    let config = PetConfig::paper_default();
    let mut group = c.benchmark_group("roster");
    group.sample_size(20);
    for &n in &[10_000u64, 100_000, 1_000_000] {
        let keys: Vec<u64> = (0..n).collect();
        group.throughput(Throughput::Elements(n));
        group.bench_with_input(BenchmarkId::new("build", n), &keys, |b, keys| {
            b.iter(|| black_box(CodeRoster::new(keys, &config, AnyFamily::default())));
        });
    }
    // Query latency on the largest roster.
    let keys: Vec<u64> = (0..1_000_000u64).collect();
    let mut roster = CodeRoster::new(&keys, &config, AnyFamily::default());
    let mut rng = StdRng::seed_from_u64(5);
    let path = BitString::random(32, &mut rng);
    roster.begin_round(&RoundStart { path, seed: None });
    group.bench_function("count_prefix_1M", |b| {
        let mut len = 0u32;
        b.iter(|| {
            len = len % 32 + 1;
            black_box(roster.responders(len))
        });
    });
    group.finish();
}

/// Rounds at paper scales, slot-by-slot oracle reader vs the kernel as the
/// driver runs it: whole 64-round runs through `Estimator::try_run_bank`
/// over a bank whose prefix index an earlier, longer run built, as in the
/// ledger's kernel arms and a cached server bank.
fn bench_round_location(c: &mut Criterion) {
    let config = PetConfig::paper_default();
    let rounds = 64u64;
    let mut group = c.benchmark_group("round_location");
    group.throughput(Throughput::Elements(rounds));
    for &n in &[1_000u64, 100_000, 1_000_000] {
        let keys: Vec<u64> = (0..n).collect();
        let mut roster = CodeRoster::new(&keys, &config, AnyFamily::default());
        let codes = roster.codes().to_vec();
        group.bench_function(BenchmarkId::new("oracle", n), |b| {
            let mut air = Air::new(PerfectChannel);
            let mut rng = StdRng::seed_from_u64(9);
            b.iter(|| {
                for _ in 0..rounds {
                    black_box(run_round(&config, &mut roster, &mut air, &mut rng));
                }
            });
        });
        let estimator = Estimator::new(config);
        let mut bank = CodeBank::passive_shared(Arc::new(codes));
        let mut rng = StdRng::seed_from_u64(9);
        // A run of n / 32 rounds repays the prefix index, which the bank
        // keeps for every later run.
        let indexing_run = u32::try_from(n.div_ceil(32)).expect("fits");
        estimator.run_bank(&mut bank, indexing_run, &mut rng);
        assert!(bank.prefix_index().is_some());
        group.bench_function(BenchmarkId::new("kernel", n), |b| {
            b.iter(|| black_box(estimator.run_bank(&mut bank, rounds as u32, &mut rng)));
        });
    }
    group.finish();
}

/// The radix sort against `sort_unstable` on hashed 32-bit codes at a
/// monitor burst's 2,500, the served 10⁴ and 10⁵, with warm buffers. Each
/// iteration copies the unsorted codes in first, in both arms.
fn bench_code_sort(c: &mut Criterion) {
    let config = PetConfig::paper_default();
    let mut group = c.benchmark_group("code_sort");
    for &n in &[2_500u64, 10_000, 100_000] {
        let keys: Vec<u64> = (0..n).collect();
        let mut codes = Vec::new();
        hash_codes_into(&AnyFamily::default(), 7, &keys, config.height(), &mut codes);
        let mut work = codes.clone();
        let mut scratch = RadixScratch::new();
        group.throughput(Throughput::Elements(n));
        group.bench_function(BenchmarkId::new("radix", n), |b| {
            b.iter(|| {
                work.clear();
                work.extend_from_slice(&codes);
                radix_sort_codes(&mut work, config.height(), &mut scratch);
                black_box(work[0])
            });
        });
        group.bench_function(BenchmarkId::new("sort_unstable", n), |b| {
            b.iter(|| {
                work.clear();
                work.extend_from_slice(&codes);
                work.sort_unstable();
                black_box(work[0])
            });
        });
    }
    group.finish();
}

fn bench_firmware(c: &mut Criterion) {
    use pet_firmware::TagChip;
    use pet_phy::command::CommandFrame;
    let start = CommandFrame::round_start(0xDEAD_BEEF, 32, None);
    let query = CommandFrame::query_mid(17);
    let mut chip = TagChip::new(0xCAFE_F00D);
    chip.on_frame(start.bits());
    c.bench_function("firmware_on_frame_query", |b| {
        b.iter(|| black_box(chip.on_frame(query.bits())));
    });
}

criterion_group!(
    benches,
    bench_hash_families,
    bench_geometric,
    bench_roster,
    bench_round_location,
    bench_code_sort,
    bench_firmware
);
criterion_main!(benches);
