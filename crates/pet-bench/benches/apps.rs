//! Application-layer benches: missing-tag detection power curve and the
//! adaptive-session ablation, plus timing of one calibrated audit (an
//! estimate judged by its reference test).

use criterion::{criterion_group, criterion_main, Criterion};
use pet_sim::experiments::{ablations, detection};
use std::hint::black_box;

fn bench_apps(c: &mut Criterion) {
    let rows = detection::run(&detection::DetectionParams {
        expected: 10_000,
        missing_fractions: vec![0.0, 0.05, 0.10],
        alpha: 0.05,
        epsilon: 0.10,
        delta: 0.10,
        runs: 60,
        seed: 0xBE47,
    });
    println!("\nDetection power (reduced): θ, measured, predicted");
    for r in &rows {
        println!(
            "  {:>5.1}% {:>7.1}% {:>7.1}%",
            r.missing_fraction * 100.0,
            r.alarm_rate * 100.0,
            r.predicted_rate * 100.0
        );
    }
    let adaptive = ablations::adaptive_stopping(10_000, 0.10, 0.05, 40, 0xBE48);
    println!("Adaptive stopping (reduced): mode, mean rounds, coverage");
    for r in &adaptive {
        println!(
            "  {:<16} {:>8.1} {:>7.1}%",
            r.mode,
            r.mean_rounds,
            r.coverage * 100.0
        );
    }

    let mut group = c.benchmark_group("apps");
    group.sample_size(20);
    group.bench_function("monitor_check_10k", |b| {
        use pet_core::config::PetConfig;
        use pet_core::front::Estimator;
        use pet_core::monitor::ReferenceTest;
        use pet_stats::accuracy::Accuracy;
        use pet_tags::population::TagPopulation;
        use rand::{rngs::StdRng, SeedableRng};
        let config = PetConfig::builder()
            .accuracy(Accuracy::new(0.10, 0.10).unwrap())
            .build()
            .unwrap();
        let test = ReferenceTest::new(10_000.0, config.height()).unwrap();
        let estimator = Estimator::new(config);
        let population = TagPopulation::sequential(9_200);
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| {
            let report = estimator.estimate_population(&population, &mut rng);
            black_box(test.p_value(report.mean_prefix_len, report.rounds) < 0.01)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_apps);
criterion_main!(benches);
