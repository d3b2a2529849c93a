//! The `fig4-trial` workload: one thread calling
//! `pet_sim::experiments::fig4::pet_trial` for successive trial seeds.
//! It bypasses `run_trials`, whose worker threads on a two-CPU host would
//! measure the scheduler rather than the trial.

use crate::check::{positive_estimate, Sample};
use crate::layers::{self, trial_sample, Pass, Wire, BLOCK, MAX_REPLAY};
use crate::replay;
use crate::report::{end_to_end, Outcome, Phase};
use crate::serve::SETUPS;
use crate::trace::Tracer;
use crate::workload::{trial_seed, warmup_trial_seed, Workload, TRIAL_ROUNDS, TRIAL_TAGS};
use pet_sim::cache::RosterCache;
use pet_sim::experiments::fig4::pet_trial;
use std::hint::black_box;
use std::time::Instant;

fn one_trial(seed: u64) -> f64 {
    black_box(pet_trial(
        black_box(TRIAL_TAGS),
        black_box(TRIAL_ROUNDS),
        black_box(seed),
    ))
}

/// Runs trials for `seconds`; returns the phase and every estimate, each
/// checked finite and positive.
fn trials(seed: u64, seconds: f64, out: &mut Outcome) -> (Phase, Vec<f64>) {
    let mut phase = Phase::begin(seconds);
    let mut estimates = Vec::new();
    while phase.running() {
        let ts = trial_seed(seed, out.attempted);
        out.attempted += 1;
        let began = Instant::now();
        let estimate = one_trial(ts);
        phase.record(began, Instant::now());
        if let Err(e) = positive_estimate(estimate) {
            out.failed += 1;
            out.fail(format!("trial {}: {e}", out.attempted - 1));
        }
        estimates.push(estimate);
    }
    phase.finish();
    (phase, estimates)
}

/// An end-to-end run.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let workload = Workload::Fig4Trial;
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUPS);
    for setup in 0..SETUPS {
        let began = Instant::now();
        for j in 0..workload.warmup() {
            positive_estimate(one_trial(warmup_trial_seed(seed, setup, j)))?;
        }
        setups.push(began.elapsed().as_secs_f64());
    }
    let (phase, estimates) = trials(seed, seconds, &mut out);
    // Trial outputs carry no slot counts: replay the checked prefix
    // through the layers, bit for bit, and read them from the kernel.
    let prefix: Vec<Sample> = estimates
        .iter()
        .take(workload.checked_prefix())
        .map(|&e| trial_sample(e))
        .collect();
    let (slots, mismatches) = replay_prefix(seed, &prefix)?;
    for i in mismatches {
        out.fail(format!("replay of trial {i} differs from pet_trial"));
    }
    end_to_end(&mut out, workload, &phase, &setups, &prefix, slots)?;
    Ok(out)
}

/// Replays `prefix`'s trials through the layers on two threads, once the
/// timed phase is over. Returns the mean slots per trial and the indices
/// whose estimate differs from `pet_trial`'s.
fn replay_prefix(seed: u64, prefix: &[Sample]) -> Result<(f64, Vec<usize>), String> {
    let run = |from: usize, part: &[Sample]| -> Result<(u64, Vec<usize>), String> {
        let mut off = Tracer::new(false);
        let (mut slots, mut mismatches) = (0u64, Vec::new());
        for (j, want) in part.iter().enumerate() {
            let op = (from + j) as u64;
            let ts = trial_seed(seed, op);
            let k = replay::trial(
                &mut off,
                op,
                RosterCache::global(),
                TRIAL_TAGS,
                TRIAL_ROUNDS,
                ts,
            )?;
            if k.estimate.to_bits() != want.estimate.to_bits() {
                mismatches.push(from + j);
            }
            slots += k.slots;
        }
        Ok((slots, mismatches))
    };
    let half = prefix.len() / 2;
    let (low, high) = std::thread::scope(|s| {
        let high = s.spawn(|| run(half, &prefix[half..]));
        let low = run(0, &prefix[..half]);
        (low, high.join().expect("replay thread panicked"))
    });
    let (low_slots, mut mismatches) = low?;
    let (high_slots, high_mismatches) = high?;
    mismatches.extend(high_mismatches);
    Ok((
        (low_slots + high_slots) as f64 / prefix.len().max(1) as f64,
        mismatches,
    ))
}

/// A traced run. Trials go in blocks of [`BLOCK`], each block run three
/// times over — `pet_trial` as the reference, the untraced replay, the
/// traced replay — so all three see the same machine state.
pub fn traced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let workload = Workload::Fig4Trial;
    let mut out = Outcome::default();
    for j in 0..workload.warmup() {
        positive_estimate(one_trial(warmup_trial_seed(seed, 0, j)))?;
    }
    let mut untraced = Pass::new(workload, seed, false)?;
    let mut traced = Pass::new(workload, seed, true)?;
    let mut phase = Phase::begin(seconds);
    while phase.running() && (out.attempted as usize) < MAX_REPLAY {
        let first = out.attempted as usize;
        let mut wants = Vec::with_capacity(BLOCK);
        for i in first..first + BLOCK {
            wants.push([trial_sample(positive_estimate(one_trial(trial_seed(
                seed, i as u64,
            )))?)]);
        }
        out.attempted += BLOCK as u64;
        for pass in [&mut untraced, &mut traced] {
            for (k, want) in wants.iter().enumerate() {
                pass.op(first + k, want, &mut out)?;
            }
        }
    }
    phase.finish();
    layers::metrics(&mut out, &Wire::default(), &untraced, &traced);
    out.note("steal_share", phase.steal);
    layers::write_spans(&mut out, workload, seed, &traced);
    Ok(out)
}
