//! A stable, process-independent 128-bit structural hash.
//!
//! Values reach a [`StableHasher`] through `std::hash::Hash` (derived
//! on the Maril and IR types a cache key covers), which decides which
//! words a value writes: slices and strings with their length, enum
//! variants with their discriminant. std's own `DefaultHasher` is
//! seeded per process, so its keys could never be written to disk;
//! [`StableHasher`] is a defined, seedless function of the written
//! words alone: two lanes of SplitMix64-style mixing over 8-byte
//! chunks, seeded with distinct constants, with every byte string
//! prefixed by its length so field boundaries are part of the hash
//! (`("ab","c")` ≠ `("a","bc")`).
//!
//! The key of a value therefore depends on the `Hash` derives of the
//! toolchain that built the binary (std does not promise that they
//! never change) and on the target's byte order (std hashes integer
//! slices as their native bytes). A disk store is only reused by
//! binaries that agree on both; any other build reads it as misses.

use std::fmt;
use std::hash::Hasher;

/// A 128-bit content hash, the address of one cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub [u64; 2]);

impl CacheKey {
    /// Renders as 32 lowercase hex digits (high lane first).
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.0[0], self.0[1])
    }

    /// Parses the [`CacheKey::to_hex`] form. `None` on any deviation.
    pub fn from_hex(s: &str) -> Option<CacheKey> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(CacheKey([hi, lo]))
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// SplitMix64's finalizer: a full-avalanche 64-bit permutation. The
/// single implementation lives in `marion-rng`; on-disk cache keys are
/// a defined function of exactly this permutation, so sharing one copy
/// (rather than a drifting duplicate) is a correctness property.
use marion_rng::mix64;

/// The incremental hasher producing a [`CacheKey`].
///
/// Cloneable: hash the expensive shared prefix (the machine
/// description) once, clone, and finish each per-function key from the
/// clone.
#[derive(Debug, Clone)]
pub struct StableHasher {
    a: u64,
    b: u64,
}

impl Default for StableHasher {
    fn default() -> StableHasher {
        StableHasher::new()
    }
}

impl StableHasher {
    /// A fresh hasher with fixed seeds.
    pub fn new() -> StableHasher {
        StableHasher {
            a: 0x243F_6A88_85A3_08D3, // pi
            b: 0xB7E1_5162_8AED_2A6A, // e
        }
    }

    /// Absorb a byte string, length-prefixed.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// Absorb a string, length-prefixed.
    #[inline]
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Finalize into a key. The hasher may keep absorbing afterwards;
    /// `finish` is a snapshot, not a terminator.
    pub fn finish(&self) -> CacheKey {
        // One extra round per lane, cross-feeding, so short inputs
        // still avalanche into both lanes.
        let a = mix64(self.a ^ self.b.rotate_left(17));
        let b = mix64(self.b ^ self.a.rotate_left(41));
        CacheKey([a, b])
    }
}

/// The integer widths the hashed types use widen to one 64-bit word
/// (signed ones through `Hasher`'s defaults, which cast to the unsigned
/// type of their width), so a key does not depend on the target's word
/// size.
impl Hasher for StableHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.write_bytes(bytes);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(v.into());
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v.into());
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.a = mix64(self.a ^ v);
        self.b = mix64(self.b ^ v.rotate_left(32) ^ 0x5851_F42D_4C95_7F2D);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// The first lane of [`StableHasher::finish`]'s key.
    #[inline]
    fn finish(&self) -> u64 {
        StableHasher::finish(self).0[0]
    }
}
