//! Quickstart: estimate the size of a tag population with PET.
//!
//! ```sh
//! cargo run --release --example quickstart [tag-count] [epsilon] [delta]
//! ```
//!
//! Defaults reproduce the paper's running example: 50,000 tags, ±5% at 99%
//! confidence, answered in ~23k slots instead of the ~50k+ an identification
//! protocol would need just to *read* that many tags once.

use pet::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args
        .next()
        .map(|a| a.parse().expect("tag-count must be an integer"))
        .unwrap_or(50_000);
    let epsilon: f64 = args
        .next()
        .map(|a| a.parse().expect("epsilon must be a float"))
        .unwrap_or(0.05);
    let delta: f64 = args
        .next()
        .map(|a| a.parse().expect("delta must be a float"))
        .unwrap_or(0.01);

    let accuracy = Accuracy::new(epsilon, delta).expect("epsilon/delta must lie in (0,1)");
    let config = PetConfig::builder()
        .accuracy(accuracy)
        .zero_probe(true)
        .build()
        .expect("valid configuration");

    println!("PET quickstart");
    println!("  population          : {n} tags (passive, preloaded 32-bit codes)");
    println!(
        "  accuracy target     : ±{:.0}% with {:.0}% confidence",
        epsilon * 100.0,
        (1.0 - delta) * 100.0
    );
    println!(
        "  scheduled rounds    : {} (Eq. 20), 5 slots each",
        config.rounds()
    );

    let mut rng = StdRng::seed_from_u64(0xD0C5);
    let population = TagPopulation::sequential(n);
    // The one front door: runs on the batched kernel, bit-for-bit equal
    // to the slot-by-slot oracle reader.
    let estimator = Estimator::new(config);
    let report = estimator.estimate_population(&population, &mut rng);

    let (lo, hi) = accuracy.interval(n as f64);
    let within = report.estimate >= lo && report.estimate <= hi;
    println!();
    println!("  estimate            : {:.0}", report.estimate);
    println!("  true count          : {n}");
    println!(
        "  relative error      : {:+.2}%",
        (report.estimate / n as f64 - 1.0) * 100.0
    );
    println!(
        "  inside [{lo:.0}, {hi:.0}]? {}",
        if within {
            "yes"
        } else {
            "no (expected for ≤δ of runs)"
        }
    );
    println!(
        "  air cost            : {} slots, {} command bits",
        report.metrics.slots, report.metrics.command_bits
    );
    println!(
        "  est. air time (Gen2): {:.2} s",
        TimeModel::gen2().elapsed(&report.metrics).as_secs_f64()
    );
}
