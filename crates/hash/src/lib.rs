//! # intersect-hash
//!
//! The hashing substrate for the `intersect` project: every hash-function
//! family the protocols of Brody et al. (PODC 2014) draw from their shared
//! random string, implemented with compact transmittable seeds so the
//! constructive private-coin variants can pay for them in counted bits.
//!
//! * [`prime`] — exact Miller–Rabin primality and seeded prime sampling.
//! * [`pairwise`] — Carter–Wegman pairwise-independent functions
//!   (the `h` of Fact 2.2, described by `O(log n)` bits).
//! * [`reduce`] — the mod-random-prime universe reduction (\[FKS84\])
//!   that shrinks `[n]` to `Õ(k² log n)` and makes private-coin seeds cost
//!   `O(log k + log log n)` bits; it is this crate's only use of \[FKS84\].
//! * [`tabulation`] — simple tabulation hashing, the fast local family for
//!   shared-coin bulk hashing (min-wise sketches).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod pairwise;
pub mod prime;
pub mod reduce;
pub mod tabulation;
