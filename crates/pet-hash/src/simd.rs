//! Runtime-dispatched SIMD lane for the bulk hashing hot loops.
//!
//! Active-mode PET re-derives every tag's code each round (`prc ← H(s,
//! tagID)`), so paper-scale sweeps run the `(seed, id) → truncated code`
//! mapping millions of times per second. This module vectorizes that
//! mapping on AVX2 behind a one-time runtime feature detection
//! (`is_x86_feature_detected!`), with the portable scalar loop as both the
//! specification and the fallback:
//!
//! - **Multi-lane bulk hashing** ([`mix2_bulk_into`], [`md5_bulk_into`]):
//!   4 independent keys per iteration for the SplitMix/Murmur mixer
//!   (64-bit lanes), 8 independent single-block MD5 compressions in 32-bit
//!   lanes — MD5 is vectorized *across* messages, not within a block, so
//!   each lane is the RFC 1321 digest verbatim. Each code is truncated to
//!   its `bits` most significant bits (`hash >> (64 - bits)`, §4.5) in the
//!   same pass.
//!
//! Searching sorted codes is not here: std's `slice::partition_point`
//! beat a binary-narrowing plus SIMD-sweep hybrid at every size measured,
//! and the estimation kernel now locates most of a round through a prefix
//! table (`pet_core::kernel::PrefixIndex`). Nor is there a 128-bit lane:
//! every host this project is measured on runs AVX2, so a narrower lane
//! had no measured benefit, and an x86-64 CPU without AVX2 hashes on the
//! scalar lane.
//!
//! # Equivalence contract
//!
//! The AVX2 lane is **bit-for-bit equal** to the scalar path — pinned the
//! same way kernel-vs-oracle equivalence is: proptest differential fuzz in
//! `tests/simd_equivalence.rs` and this module's unit tests, plus a
//! fixed-seed golden estimate run under both `PET_FORCE_LANE` settings by
//! `scripts/ci.sh`. A lane may only change *cost*, never a code, count, or
//! estimate.
//!
//! # Lane selection
//!
//! [`active_lane`] picks the widest lane the CPU supports, detected once
//! and cached. `PET_FORCE_LANE=scalar|avx2` overrides the choice for
//! reproducibility and CI (forcing a lane the host cannot run panics
//! rather than silently degrading); [`detected_lane`] reports the raw
//! hardware capability regardless of the override, so CI can fail when an
//! AVX2-capable host silently lands on scalar.
//!
//! # Safety argument
//!
//! The `unsafe` here is confined to `#[target_feature(enable = ...)]`
//! functions and the intrinsics they call. Every such function is reached
//! only through a [`Lane`] value, and a `Lane` is only constructed after
//! `is_x86_feature_detected!` has confirmed the feature (or by the forced
//! override, which re-checks support and panics otherwise) — so the CPU is
//! guaranteed to implement every instruction the compiler emits. No
//! pointer arithmetic beyond `chunks_exact`, no transmutes of lifetimes,
//! no aliasing: loads/stores go through `loadu`/`storeu` on slice-derived
//! pointers whose bounds the chunking has already established. Adding a
//! lane means adding one more `unsafe` leaf per primitive plus a `Lane`
//! variant; the dispatch, tail handling, and tests are lane-agnostic.
#![allow(unsafe_code)]
// The `unsafe {}` blocks inside the `#[target_feature]` kernels are
// required by the workspace MSRV (1.75); toolchains with target_feature
// 1.1 (≥1.86) treat same-feature intrinsic calls as safe and would
// otherwise warn the blocks are unused.
#![allow(unused_unsafe)]

use crate::md5;
use crate::mix;
use std::sync::OnceLock;

/// An instruction-set lane for the bulk primitives.
///
/// Ordered from narrowest to widest; `Ord` follows lane width so
/// `min`/`max` pick sensible fallbacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lane {
    /// Portable scalar code, available everywhere.
    Scalar,
    /// 256-bit AVX2 vectors.
    Avx2,
}

impl Lane {
    /// The lane's canonical lowercase name (`scalar`, `avx2`),
    /// as accepted by `PET_FORCE_LANE` and reported by `pet lane`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Lane::Scalar => "scalar",
            Lane::Avx2 => "avx2",
        }
    }

    /// Parses a lane name as used by `PET_FORCE_LANE`.
    ///
    /// # Errors
    ///
    /// Returns the offending string if it names no known lane.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(Lane::Scalar),
            "avx2" => Ok(Lane::Avx2),
            other => Err(other.to_owned()),
        }
    }

    /// Whether the running CPU can execute this lane.
    #[must_use]
    pub fn is_supported(self) -> bool {
        match self {
            Lane::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Lane::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

impl std::fmt::Display for Lane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The widest lane the hardware supports, detected once and cached.
///
/// Ignores `PET_FORCE_LANE`: this is the *capability* report, used by CI
/// to detect an AVX2 host whose dispatch silently fell back to scalar.
#[must_use]
pub fn detected_lane() -> Lane {
    static DETECTED: OnceLock<Lane> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        if Lane::Avx2.is_supported() {
            Lane::Avx2
        } else {
            Lane::Scalar
        }
    })
}

/// The lane every bulk primitive dispatches through, detected (or forced
/// via `PET_FORCE_LANE`) once per process and cached.
///
/// # Panics
///
/// Panics if `PET_FORCE_LANE` names an unknown lane or one the CPU cannot
/// execute — a forced lane must never silently degrade, or the "forced
/// scalar vs forced SIMD" CI comparison would compare scalar to scalar.
#[must_use]
pub fn active_lane() -> Lane {
    static ACTIVE: OnceLock<Lane> = OnceLock::new();
    *ACTIVE.get_or_init(|| match std::env::var("PET_FORCE_LANE") {
        Ok(name) => {
            let lane = Lane::parse(&name)
                .unwrap_or_else(|bad| panic!("PET_FORCE_LANE={bad:?}: expected scalar or avx2"));
            assert!(
                lane.is_supported(),
                "PET_FORCE_LANE={lane} is not supported by this CPU (detected: {})",
                detected_lane()
            );
            lane
        }
        Err(_) => detected_lane(),
    })
}

// ---------------------------------------------------------------------------
// Bulk mixer hashing: out[i] = truncate(mix2(seed, keys[i]), bits)
// ---------------------------------------------------------------------------

/// Hashes `keys` with the SplitMix/Murmur [`mix::mix2`] family under
/// `seed`, truncated to `bits`, into `out`, using the given `lane`.
///
/// Bit-for-bit equal to the scalar `mix::truncate(mix::mix2(seed, k),
/// bits)` loop for every lane.
///
/// # Panics
///
/// Panics if `out.len() != keys.len()`, if `bits` is outside `1..=64`, or
/// if `lane` is unsupported on this CPU.
pub fn mix2_bulk_into(lane: Lane, seed: u64, keys: &[u64], bits: u32, out: &mut [u64]) {
    assert_eq!(keys.len(), out.len(), "output buffer must match key count");
    assert!(
        (1..=64).contains(&bits),
        "bits must be in 1..=64, got {bits}"
    );
    match lane {
        Lane::Scalar => mix2_bulk_scalar(seed, keys, bits, out),
        #[cfg(target_arch = "x86_64")]
        Lane::Avx2 => {
            assert!(lane.is_supported(), "avx2 lane unsupported on this CPU");
            // SAFETY: avx2 support was just verified at runtime.
            unsafe { x86::mix2_bulk_avx2(seed, keys, bits, out) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => panic!("lane {lane} unsupported on this architecture"),
    }
}

fn mix2_bulk_scalar(seed: u64, keys: &[u64], bits: u32, out: &mut [u64]) {
    for (o, &k) in out.iter_mut().zip(keys) {
        *o = mix::truncate(mix::mix2(seed, k), bits);
    }
}

// ---------------------------------------------------------------------------
// Bulk MD5 hashing: out[i] = truncate(md5_family(seed, keys[i]), bits)
// ---------------------------------------------------------------------------

/// Hashes `keys` with the MD5 family (`MD5(seed_le ‖ id_le)`, first 8
/// digest bytes as a little-endian `u64`) truncated to `bits`, into `out`.
///
/// The AVX2 lane runs 8 independent single-block MD5 compressions side by
/// side in 32-bit lanes; each lane's digest is the RFC 1321 output
/// verbatim, pinned against the streaming scalar implementation.
///
/// # Panics
///
/// Panics if `out.len() != keys.len()`, if `bits` is outside `1..=64`, or
/// if `lane` is unsupported on this CPU.
pub fn md5_bulk_into(lane: Lane, seed: u64, keys: &[u64], bits: u32, out: &mut [u64]) {
    assert_eq!(keys.len(), out.len(), "output buffer must match key count");
    assert!(
        (1..=64).contains(&bits),
        "bits must be in 1..=64, got {bits}"
    );
    match lane {
        Lane::Scalar => md5_bulk_scalar(seed, keys, bits, out),
        #[cfg(target_arch = "x86_64")]
        Lane::Avx2 => {
            assert!(lane.is_supported(), "avx2 lane unsupported on this CPU");
            // SAFETY: avx2 support was just verified at runtime.
            unsafe { x86::md5_bulk_avx2(seed, keys, bits, out) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => panic!("lane {lane} unsupported on this architecture"),
    }
}

fn md5_bulk_scalar(seed: u64, keys: &[u64], bits: u32, out: &mut [u64]) {
    for (o, &k) in out.iter_mut().zip(keys) {
        let mut h = md5::Md5::new();
        h.update(&seed.to_le_bytes());
        h.update(&k.to_le_bytes());
        let digest = h.finalize();
        let word = u64::from_le_bytes(digest[..8].try_into().expect("digest is 16 bytes"));
        *o = mix::truncate(word, bits);
    }
}

// ---------------------------------------------------------------------------
// x86_64 kernels
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::mix;
    use std::arch::x86_64::*;

    /// MD5 per-step rotate amounts (RFC 1321 §3.4), shared with the scalar
    /// implementation's table.
    const S: [u32; 64] = [
        7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
        5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
        4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
        6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
    ];

    /// MD5 sine-derived additive constants.
    const K: [u32; 64] = [
        0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613,
        0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193,
        0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d,
        0x02441453, 0xd8a1e681, 0xe7d3fbc8, 0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed,
        0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122,
        0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
        0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665, 0xf4292244,
        0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
        0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb,
        0xeb86d391,
    ];

    /// MD5 initial state.
    const IV: [u32; 4] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];

    /// Message-schedule index per step (RFC 1321 §3.4's `g`).
    const fn md5_g(i: usize) -> usize {
        match i / 16 {
            0 => i,
            1 => (5 * i + 1) % 16,
            2 => (3 * i + 5) % 16,
            _ => (7 * i) % 16,
        }
    }

    // --- AVX2: mix2 over 4 × u64 lanes -----------------------------------

    /// `x * y` per 64-bit lane, with only the 32×32→64 multiplier AVX2
    /// has: `lo(x)·lo(y) + ((lo(x)·hi(y) + hi(x)·lo(y)) << 32)`, which is
    /// exactly wrapping 64-bit multiplication.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul64_avx2(x: __m256i, y: __m256i) -> __m256i {
        // SAFETY: caller guarantees avx2.
        unsafe {
            let lo_lo = _mm256_mul_epu32(x, y);
            let x_hi = _mm256_srli_epi64(x, 32);
            let y_hi = _mm256_srli_epi64(y, 32);
            let cross = _mm256_add_epi64(_mm256_mul_epu32(x_hi, y), _mm256_mul_epu32(x, y_hi));
            _mm256_add_epi64(lo_lo, _mm256_slli_epi64(cross, 32))
        }
    }

    /// SplitMix64 finalizer per 64-bit lane (matches `mix::splitmix64`).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn splitmix64_avx2(x: __m256i) -> __m256i {
        // SAFETY: caller guarantees avx2.
        unsafe {
            let mut x = _mm256_add_epi64(x, _mm256_set1_epi64x(0x9e3779b97f4a7c15u64 as i64));
            x = mul64_avx2(
                _mm256_xor_si256(x, _mm256_srli_epi64(x, 30)),
                _mm256_set1_epi64x(0xbf58476d1ce4e5b9u64 as i64),
            );
            x = mul64_avx2(
                _mm256_xor_si256(x, _mm256_srli_epi64(x, 27)),
                _mm256_set1_epi64x(0x94d049bb133111ebu64 as i64),
            );
            _mm256_xor_si256(x, _mm256_srli_epi64(x, 31))
        }
    }

    /// Murmur3 fmix64 per 64-bit lane (matches `mix::murmur3_fmix64`).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn murmur3_avx2(x: __m256i) -> __m256i {
        // SAFETY: caller guarantees avx2.
        unsafe {
            let mut x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
            x = mul64_avx2(x, _mm256_set1_epi64x(0xff51afd7ed558ccdu64 as i64));
            x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
            x = mul64_avx2(x, _mm256_set1_epi64x(0xc4ceb9fe1a85ec53u64 as i64));
            _mm256_xor_si256(x, _mm256_srli_epi64(x, 33))
        }
    }

    /// AVX2 `mix2` + truncate over 4 keys per iteration.
    ///
    /// # Safety
    ///
    /// Caller must have verified `is_x86_feature_detected!("avx2")`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn mix2_bulk_avx2(seed: u64, keys: &[u64], bits: u32, out: &mut [u64]) {
        let hs = mix::splitmix64(seed);
        // SAFETY: avx2 guaranteed by caller; loads/stores use unaligned
        // intrinsics on in-bounds chunk pointers.
        unsafe {
            let hs_v = _mm256_set1_epi64x(hs as i64);
            let shift = _mm_cvtsi32_si128((64 - bits) as i32);
            let chunks = keys.chunks_exact(4);
            let tail = chunks.remainder();
            for (key_chunk, out_chunk) in chunks.zip(out.chunks_exact_mut(4)) {
                let k = _mm256_loadu_si256(key_chunk.as_ptr().cast());
                let mixed = splitmix64_avx2(_mm256_xor_si256(hs_v, murmur3_avx2(k)));
                let code = if bits == 64 {
                    mixed
                } else {
                    _mm256_srl_epi64(mixed, shift)
                };
                _mm256_storeu_si256(out_chunk.as_mut_ptr().cast(), code);
            }
            let done = keys.len() - tail.len();
            super::mix2_bulk_scalar(seed, tail, bits, &mut out[done..]);
        }
    }

    // --- AVX2: 8-message MD5 ----------------------------------------------

    /// One step's `F` function per 32-bit lane for the given round.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn md5_f_avx2(round: usize, b: __m256i, c: __m256i, d: __m256i) -> __m256i {
        // SAFETY: caller guarantees avx2.
        unsafe {
            let ones = _mm256_set1_epi32(-1);
            match round {
                // (b & c) | (!b & d)
                0 => _mm256_or_si256(
                    _mm256_and_si256(b, c),
                    _mm256_andnot_si256(b, d), // andnot = !b & d
                ),
                // (d & b) | (!d & c)
                1 => _mm256_or_si256(_mm256_and_si256(d, b), _mm256_andnot_si256(d, c)),
                // b ^ c ^ d
                2 => _mm256_xor_si256(b, _mm256_xor_si256(c, d)),
                // c ^ (b | !d)
                _ => _mm256_xor_si256(c, _mm256_or_si256(b, _mm256_xor_si256(d, ones))),
            }
        }
    }

    /// Rotate each 32-bit lane left by the compile-known-per-step `s`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn rotl32_avx2(x: __m256i, s: u32) -> __m256i {
        // SAFETY: caller guarantees avx2.
        unsafe {
            // MD5's rotate amounts are all in 4..=23, so both shifts are
            // well-defined (no 0/32 edge).
            _mm256_or_si256(
                _mm256_sll_epi32(x, _mm_cvtsi32_si128(s as i32)),
                _mm256_srl_epi32(x, _mm_cvtsi32_si128((32 - s) as i32)),
            )
        }
    }

    /// 8 independent single-block MD5 compressions of `MD5(seed ‖ id)`
    /// messages, one message per 32-bit lane.
    ///
    /// # Safety
    ///
    /// Caller must have verified `is_x86_feature_detected!("avx2")`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn md5_bulk_avx2(seed: u64, keys: &[u64], bits: u32, out: &mut [u64]) {
        // SAFETY: avx2 guaranteed by caller; all vector lane extraction
        // goes through set/extract intrinsics on in-bounds chunks.
        unsafe {
            let chunks = keys.chunks_exact(8);
            let tail = chunks.remainder();
            // The 16-byte message `seed_le ‖ id_le` padded per RFC 1321:
            // words 0..2 are the seed (identical across lanes), words 2..4
            // the per-lane id, word 4 the 0x80 pad byte, word 14 the
            // 128-bit... message length in bits (16 bytes → 128).
            let mut m = [_mm256_setzero_si256(); 16];
            m[0] = _mm256_set1_epi32(seed as u32 as i32);
            m[1] = _mm256_set1_epi32((seed >> 32) as u32 as i32);
            m[4] = _mm256_set1_epi32(0x80);
            m[14] = _mm256_set1_epi32(128);
            for (key_chunk, out_chunk) in chunks.zip(out.chunks_exact_mut(8)) {
                let lane32 = |f: &dyn Fn(u64) -> u32| {
                    _mm256_set_epi32(
                        f(key_chunk[7]) as i32,
                        f(key_chunk[6]) as i32,
                        f(key_chunk[5]) as i32,
                        f(key_chunk[4]) as i32,
                        f(key_chunk[3]) as i32,
                        f(key_chunk[2]) as i32,
                        f(key_chunk[1]) as i32,
                        f(key_chunk[0]) as i32,
                    )
                };
                m[2] = lane32(&|k| k as u32);
                m[3] = lane32(&|k| (k >> 32) as u32);

                let mut a = _mm256_set1_epi32(IV[0] as i32);
                let mut b = _mm256_set1_epi32(IV[1] as i32);
                let mut c = _mm256_set1_epi32(IV[2] as i32);
                let mut d = _mm256_set1_epi32(IV[3] as i32);
                for i in 0..64 {
                    let f = md5_f_avx2(i / 16, b, c, d);
                    let sum = _mm256_add_epi32(
                        _mm256_add_epi32(a, f),
                        _mm256_add_epi32(_mm256_set1_epi32(K[i] as i32), m[md5_g(i)]),
                    );
                    let rotated = rotl32_avx2(sum, S[i]);
                    let nb = _mm256_add_epi32(b, rotated);
                    a = d;
                    d = c;
                    c = b;
                    b = nb;
                }
                let a = _mm256_add_epi32(a, _mm256_set1_epi32(IV[0] as i32));
                let b = _mm256_add_epi32(b, _mm256_set1_epi32(IV[1] as i32));
                // digest[0..8] little-endian = state word A then B, so the
                // u64 the family reads is `A | (B << 32)` per lane.
                let mut a_words = [0u32; 8];
                let mut b_words = [0u32; 8];
                _mm256_storeu_si256(a_words.as_mut_ptr().cast(), a);
                _mm256_storeu_si256(b_words.as_mut_ptr().cast(), b);
                for ((o, &aw), &bw) in out_chunk.iter_mut().zip(&a_words).zip(&b_words) {
                    *o = mix::truncate(u64::from(aw) | (u64::from(bw) << 32), bits);
                }
            }
            let done = keys.len() - tail.len();
            super::md5_bulk_scalar(seed, tail, bits, &mut out[done..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::{HashFamily, Md5Family, MixFamily};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn available_lanes() -> Vec<Lane> {
        [Lane::Scalar, Lane::Avx2]
            .into_iter()
            .filter(|l| l.is_supported())
            .collect()
    }

    #[test]
    fn lane_parse_round_trips() {
        for lane in [Lane::Scalar, Lane::Avx2] {
            assert_eq!(Lane::parse(lane.as_str()), Ok(lane));
            assert_eq!(Lane::parse(&lane.as_str().to_uppercase()), Ok(lane));
        }
        for unknown in ["avx512", "sse2"] {
            assert_eq!(Lane::parse(unknown), Err(unknown.to_owned()));
        }
    }

    #[test]
    fn active_lane_is_supported_and_stable() {
        let lane = active_lane();
        assert!(lane.is_supported());
        assert_eq!(lane, active_lane(), "cached detection must be stable");
        assert!(lane <= detected_lane());
    }

    #[test]
    fn mix2_lanes_match_scalar_family() {
        let fam = MixFamily::new();
        let mut rng = StdRng::seed_from_u64(7);
        for lane in available_lanes() {
            for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 33, 1000] {
                for bits in [1u32, 17, 32, 63, 64] {
                    let seed: u64 = rng.random();
                    let keys: Vec<u64> = (0..n as u64).map(|_| rng.random()).collect();
                    let mut out = vec![0u64; n];
                    mix2_bulk_into(lane, seed, &keys, bits, &mut out);
                    for (&k, &o) in keys.iter().zip(&out) {
                        assert_eq!(o, fam.hash_bits(seed, k, bits), "lane {lane} n {n}");
                    }
                }
            }
        }
    }

    #[test]
    fn md5_lanes_match_scalar_family() {
        let fam = Md5Family::new();
        let mut rng = StdRng::seed_from_u64(11);
        for lane in available_lanes() {
            for n in [0usize, 1, 3, 4, 5, 8, 9, 16, 17, 100] {
                for bits in [1u32, 32, 64] {
                    let seed: u64 = rng.random();
                    let keys: Vec<u64> = (0..n as u64).map(|_| rng.random()).collect();
                    let mut out = vec![0u64; n];
                    md5_bulk_into(lane, seed, &keys, bits, &mut out);
                    for (&k, &o) in keys.iter().zip(&out) {
                        assert_eq!(o, fam.hash_bits(seed, k, bits), "lane {lane} n {n}");
                    }
                }
            }
        }
    }
}
