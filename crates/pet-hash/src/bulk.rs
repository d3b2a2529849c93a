//! Bulk code generation: chunked parallel hashing and an LSB radix sort.
//!
//! Active-mode PET re-derives every tag's code each round (`prc ← H(s,
//! tagID)` with a fresh `s`), so a paper-scale sweep hashes and sorts the
//! same arrays millions of times. This module replaces the per-trial
//! `map(hash) → sort_unstable` pair with:
//!
//! - [`hash_codes_into`] / [`hash_codes_par`]: hash a key slice into a
//!   reusable output buffer. Both route through one shared chooser that
//!   picks the fill strategy (sequential vs contiguous-chunk fan-out) and
//!   always dispatches the per-chunk work through the family's bulk
//!   kernel ([`HashFamily::hash_bits_bulk`]), so small batches get the
//!   [`crate::simd`] lane dispatch even when threading is not worth it.
//!   Output order is the key order regardless of strategy.
//! - [`radix_sort_codes`]: least-significant-digit radix sort for `u64`
//!   codes known to fit in `key_bits` bits — PET codes are right-aligned
//!   `height`-bit values, so a 32-bit tree needs 4 byte passes instead of
//!   the comparison sort's ~`n log n` branchy swaps. All per-pass digit
//!   histograms are built in a *single* read pass over the input, and the
//!   counting buffers live in a reusable [`RadixScratch`] so per-round
//!   active-mode sorts allocate nothing.
//!
//! Both are exact drop-ins: the resulting sorted array is identical to the
//! `sort_unstable` result (u64 sorting is total, so stability is moot).

use crate::family::HashFamily;
use std::num::NonZeroUsize;

/// Below this many keys, threading overhead outweighs the win.
const PAR_THRESHOLD: usize = 1 << 15;

/// Below this many elements, `sort_unstable` beats radix setup cost.
const RADIX_THRESHOLD: usize = 128;

/// Maximum radix passes a 64-bit key can need (8 bits per pass).
const MAX_PASSES: usize = 8;

/// How a bulk fill should run, decided once by [`choose_threads`].
///
/// The historical bug this encodes away: `hash_codes_into` used to call
/// the sequential body directly while `hash_codes_par` had its own
/// threshold check, so the two entry points could drift (and the
/// sequential one bypassed lane dispatch entirely). Now both feed their
/// thread budget into the same chooser and share one fill body.
fn choose_threads(keys: usize, thread_cap: usize) -> usize {
    if keys < PAR_THRESHOLD {
        return 1;
    }
    thread_cap.min(available_threads()).max(1)
}

/// Hashes `keys` under `(family, seed)` truncated to `bits`, writing into
/// `out` (cleared and refilled; capacity is reused across rounds).
///
/// Runs on the calling thread only — used inside trial workers that
/// already saturate the cores — but still dispatches through the family's
/// SIMD bulk kernel.
pub fn hash_codes_into<F: HashFamily>(
    family: &F,
    seed: u64,
    keys: &[u64],
    bits: u32,
    out: &mut Vec<u64>,
) {
    let _span = pet_obs::span("hash.bulk_hash");
    debug_assert_eq!(choose_threads(keys.len(), 1), 1);
    fill_chunk(family, seed, keys, bits, out);
}

/// Like [`hash_codes_into`], but fans contiguous chunks across threads for
/// large populations (same `choose_threads` chooser, unbounded cap).
/// Output is byte-identical to the sequential path.
pub fn hash_codes_par<F: HashFamily + Sync>(
    family: &F,
    seed: u64,
    keys: &[u64],
    bits: u32,
    out: &mut Vec<u64>,
) {
    let _span = pet_obs::span("hash.bulk_hash");
    let threads = choose_threads(keys.len(), usize::MAX);
    if threads < 2 {
        fill_chunk(family, seed, keys, bits, out);
        return;
    }
    out.clear();
    out.resize(keys.len(), 0);
    let chunk = keys.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (key_chunk, out_chunk) in keys.chunks(chunk).zip(out.chunks_mut(chunk)) {
            scope.spawn(move || {
                family.hash_bits_bulk(seed, key_chunk, bits, out_chunk);
            });
        }
    });
}

/// Single-threaded fill body shared by both entry points and by each
/// spawned chunk: clears, resizes, and dispatches through the family's
/// SIMD bulk kernel. The span is emitted by the public entry points so
/// `hash.bulk_hash` never nests (nesting would double-count).
fn fill_chunk<F: HashFamily>(family: &F, seed: u64, keys: &[u64], bits: u32, out: &mut Vec<u64>) {
    out.clear();
    out.resize(keys.len(), 0);
    family.hash_bits_bulk(seed, keys, bits, out);
}

fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Reusable buffers for [`radix_sort_codes`]: the ping-pong array plus the
/// per-pass digit histograms.
///
/// Active-mode banks and the roster cache keep one of these per fill path
/// and hand it back every round, so steady-state sorting performs no
/// allocation at all (the old signature reused only the ping-pong `Vec`
/// and rebuilt the counting arrays per call).
#[derive(Debug, Clone, Default)]
pub struct RadixScratch {
    /// Ping-pong buffer; contents after a sort are unspecified.
    buf: Vec<u64>,
    /// One 256-bucket histogram per potential byte pass.
    counts: Vec<[usize; 256]>,
}

impl RadixScratch {
    /// Creates an empty scratch; buffers grow on first use and are kept.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Sorts `codes` ascending, exploiting that every value fits in `key_bits`
/// bits (1..=64). Ping-pongs between `codes` and `scratch`'s buffer, and
/// builds the digit histograms of **all** passes in one read sweep before
/// any element moves (one cache-friendly pass instead of one per digit).
///
/// # Panics
///
/// Panics if `key_bits` is 0 or greater than 64.
pub fn radix_sort_codes(codes: &mut Vec<u64>, key_bits: u32, scratch: &mut RadixScratch) {
    assert!((1..=64).contains(&key_bits), "key_bits must be in 1..=64");
    let _span = pet_obs::span("hash.radix_sort");
    if codes.len() < RADIX_THRESHOLD {
        codes.sort_unstable();
        return;
    }
    let passes = key_bits.div_ceil(8) as usize;
    scratch.buf.clear();
    scratch.buf.resize(codes.len(), 0);
    if scratch.counts.len() < MAX_PASSES {
        scratch.counts.resize(MAX_PASSES, [0usize; 256]);
    }
    let counts = &mut scratch.counts[..passes];
    for c in counts.iter_mut() {
        c.fill(0);
    }
    // Single histogram sweep covering every pass.
    for &v in codes.iter() {
        for (pass, c) in counts.iter_mut().enumerate() {
            c[((v >> (pass * 8)) & 0xFF) as usize] += 1;
        }
    }

    let mut src: &mut Vec<u64> = codes;
    let mut dst: &mut Vec<u64> = &mut scratch.buf;
    let mut flipped = false;
    for (pass, count) in counts.iter().enumerate() {
        // A pass where every element lands in one bucket is the identity.
        if count.contains(&src.len()) {
            continue;
        }
        let shift = (pass * 8) as u32;
        let mut offsets = [0usize; 256];
        let mut running = 0;
        for (o, &c) in offsets.iter_mut().zip(count) {
            *o = running;
            running += c;
        }
        for &v in src.iter() {
            let digit = ((v >> shift) & 0xFF) as usize;
            dst[offsets[digit]] = v;
            offsets[digit] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
        flipped = !flipped;
    }
    if flipped {
        // `src` points at what was the scratch buffer; move the result home.
        dst.copy_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{AnyFamily, HashKind};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn radix_matches_sort_unstable() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut scratch = RadixScratch::new();
        for bits in [1u32, 7, 8, 9, 16, 31, 32, 33, 63, 64] {
            for n in [0usize, 1, 5, 127, 128, 1000, 4096] {
                let mask = if bits == 64 {
                    u64::MAX
                } else {
                    (1u64 << bits) - 1
                };
                let mut a: Vec<u64> = (0..n).map(|_| rng.random::<u64>() & mask).collect();
                let mut b = a.clone();
                // Scratch is deliberately shared across shapes: reuse must
                // never leak state between sorts.
                radix_sort_codes(&mut a, bits, &mut scratch);
                b.sort_unstable();
                assert_eq!(a, b, "bits = {bits}, n = {n}");
            }
        }
    }

    #[test]
    fn radix_handles_presorted_and_constant_input() {
        let mut scratch = RadixScratch::new();
        let mut sorted: Vec<u64> = (0..500).collect();
        let expect = sorted.clone();
        radix_sort_codes(&mut sorted, 32, &mut scratch);
        assert_eq!(sorted, expect);

        let mut same = vec![42u64; 300];
        radix_sort_codes(&mut same, 16, &mut scratch);
        assert!(same.iter().all(|&v| v == 42));
    }

    #[test]
    fn parallel_hash_matches_sequential() {
        let fam = AnyFamily::new(HashKind::Mix);
        let keys: Vec<u64> = (0..(PAR_THRESHOLD as u64 + 3_000)).collect();
        let mut seq = Vec::new();
        let mut par = Vec::new();
        hash_codes_into(&fam, 0xBEEF, &keys, 32, &mut seq);
        hash_codes_par(&fam, 0xBEEF, &keys, 32, &mut par);
        assert_eq!(seq, par);
        // Small inputs take the sequential path but share the API.
        hash_codes_par(&fam, 7, &keys[..100], 32, &mut par);
        hash_codes_into(&fam, 7, &keys[..100], 32, &mut seq);
        assert_eq!(seq, par);
    }

    /// Both entry points must agree with the definitional per-key scalar
    /// loop for every family — the chooser can alter strategy, never
    /// values.
    #[test]
    fn bulk_fill_matches_per_key_hashing() {
        use crate::family::HashFamily;
        let mut rng = StdRng::seed_from_u64(3);
        for kind in [HashKind::Mix, HashKind::Md5, HashKind::Sha1] {
            let fam = AnyFamily::new(kind);
            let keys: Vec<u64> = (0..257).map(|_| rng.random()).collect();
            let mut out = Vec::new();
            hash_codes_into(&fam, 0xF00D, &keys, 32, &mut out);
            for (&k, &o) in keys.iter().zip(&out) {
                assert_eq!(o, fam.hash_bits(0xF00D, k, 32), "{kind:?}");
            }
        }
    }
}
