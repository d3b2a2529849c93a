//! Hashing substrate for the PET RFID-estimation reproduction.
//!
//! The PET paper (§4.5) proposes that tag codes be produced by "a group of
//! off-the-shelf uniformly distributed hash functions … including
//! Message-Digest algorithm 5 (MD5) and Secure Hash Algorithm (SHA-1)",
//! truncated to 32 bits. This crate provides those primitives from scratch
//! (no external crypto dependencies), plus the cheaper mixers the simulator
//! uses in hot loops and the geometric-distribution hashing required by the
//! LoF baseline.
//!
//! # Overview
//!
//! - [`md5`] / [`sha1`]: the digest algorithms named by the paper, with
//!   streaming implementations validated against the RFC test vectors.
//! - [`mix`]: statistically strong 64-bit finalizers (SplitMix64,
//!   Murmur3-style) for hot simulation paths.
//! - [`family`]: [`family::HashFamily`], seeded families of uniform hash
//!   functions mapping `(seed, tag id) → k-bit code`, the operation PET's
//!   Algorithm 2 writes as `H(s, tagID)`.
//! - [`tash`]: the Tash analog on-tag hash realization (arXiv 1707.08883)
//!   — selective-reading bits with a measured non-uniformity knob.
//! - [`geometric`]: geometric-distribution hashing (`P(value = i) = 2^-(i+1)`)
//!   used by the LoF lottery-frame baseline.
//! - [`simd`]: bulk code hashing (mixer and MD5 families) on a
//!   runtime-detected AVX2 lane with a portable scalar fallback —
//!   bit-for-bit equal to the scalar path, selectable with
//!   `PET_FORCE_LANE=scalar|avx2`.
//!
//! # Example
//!
//! ```
//! use pet_hash::family::{HashFamily, Md5Family};
//!
//! let family = Md5Family::new();
//! // A 32-bit PET code for tag 42 under round seed 7.
//! let code = family.hash_bits(7, 42, 32);
//! assert!(code <= u32::MAX as u64);
//! // The same (seed, id) pair always yields the same code.
//! assert_eq!(code, family.hash_bits(7, 42, 32));
//! ```

// `deny`, not `forbid`: the `simd` module opts back in for its
// `#[target_feature]` kernels (see its module-level safety argument);
// every other module stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bulk;
pub mod family;
pub mod geometric;
pub mod md5;
pub mod mix;
pub mod sha1;
pub mod simd;
pub mod tash;

pub use family::{HashFamily, Md5Family, MixFamily, Sha1Family};
pub use geometric::GeometricHasher;
pub use simd::Lane;
