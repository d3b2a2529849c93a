//! Reader command overhead under the three §4.6.2 encodings, and what it
//! means in Gen2 air time.
//!
//! The slot count is identical in all three modes — only the bits the
//! reader broadcasts per query change: the full 32-bit mask, the 5-bit
//! prefix length, or a single feedback bit (tags mirror the binary-search
//! registers locally, costing them 2×5 bits of working memory).
//!
//! ```sh
//! cargo run --release --example command_overhead
//! ```

use pet::prelude::*;

fn main() {
    let n = 10_000;
    let accuracy = Accuracy::new(0.05, 0.01).expect("valid accuracy");
    let encodings = [
        ("32-bit mask", CommandEncoding::FullMask),
        ("5-bit mid", CommandEncoding::PrefixLength),
        ("1-bit feedback", CommandEncoding::FeedbackBit),
    ];

    println!("PET command overhead, {n} tags, ε=5% δ=1%\n");
    println!(
        "{:<16} {:>8} {:>10} {:>14} {:>12} {:>12}",
        "encoding", "rounds", "slots", "command bits", "bits/round", "air time"
    );

    for (label, encoding) in encodings {
        let config = PetConfig::builder()
            .accuracy(accuracy)
            .encoding(encoding)
            .build()
            .expect("valid config");
        let keys: Vec<u64> = (0..n as u64).collect();
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        let report = Estimator::new(config).estimate_keys_rounds(&keys, config.rounds(), &mut rng);
        let time = TimeModel::gen2().elapsed(&report.metrics);
        println!(
            "{:<16} {:>8} {:>10} {:>14} {:>12.1} {:>10.2} s",
            label,
            report.rounds,
            report.metrics.slots,
            report.metrics.command_bits,
            report.metrics.command_bits as f64 / f64::from(report.rounds),
            time.as_secs_f64()
        );
    }

    println!(
        "\nEvery round also broadcasts the 32-bit estimating path once; \
         the feedback mode shrinks the per-query overhead 32× at the cost \
         of 10 bits of tag working state."
    );
}
