//! One fixed, non-keyed hasher for maps keyed by simulator ids.
//!
//! std's default `RandomState` runs SipHash-1-3 under a per-process random
//! key: it resists hash flooding by untrusted keys. The keys here are
//! [`JobId`](crate::ids::JobId)s, [`AppId`](crate::ids::AppId)s, stage
//! ids and small tuples of them, all made by the simulator itself, so
//! that resistance buys nothing, while SipHash is a large share of a
//! scheduling decision's time. [`FxHasher`] is the multiplicative scheme
//! of rustc's `FxHash`: each word is folded in with one rotate, one xor
//! and one multiply.
//!
//! The hasher has no key, so a map's iteration order is the same in
//! every process. No output may depend on that order anyway (DESIGN.md
//! §2): it still changes with the insertion history and the capacity.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash multiplier (`π` scaled to 64 bits, made odd).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash word hasher: `h = (h.rotate_left(5) ^ word) * SEED` per
/// word written.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            // The tail's length rides in its word's top bits, so a short
            // tail of zeros still differs from a shorter one.
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word) ^ ((rest.len() as u64) << 59));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Builds [`FxHasher`]s: the `S` parameter of [`FxHashMap`] and
/// [`FxHashSet`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` under [`FxHasher`]. Construct with `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` under [`FxHasher`]. Construct with `FxHashSet::default()`.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(x: impl Hash) -> u64 {
        FxBuildHasher::default().hash_one(x)
    }

    #[test]
    fn hashes_are_fixed_across_processes() {
        // No per-process key: the same value always hashes alike, and a
        // single word is one multiply.
        assert_eq!(hash_of(1u64), SEED);
        assert_eq!(hash_of(crate::ids::JobId(7)), 7u64.wrapping_mul(SEED));
        assert_eq!(hash_of((3u32, 4u64)), hash_of((3u32, 4u64)));
        assert_ne!(hash_of((3u32, 4u64)), hash_of((4u32, 3u64)));
    }

    #[test]
    fn byte_writes_tell_lengths_and_tails_apart() {
        let bytes = |b: &[u8]| {
            let mut h = FxHasher::default();
            h.write(b);
            h.finish()
        };
        assert_ne!(bytes(&[0]), bytes(&[0, 0]));
        assert_ne!(bytes(&[1, 2, 3]), bytes(&[1, 2, 4]));
        assert_ne!(bytes(&[0; 8]), bytes(&[0; 9]));
    }
}
