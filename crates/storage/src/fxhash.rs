//! A fast, dependency-free hasher for in-memory index keys.
//!
//! The storage layer hashes every inserted row once for duplicate
//! elimination and once per maintained index; with the std `SipHash`
//! default that hashing dominates insert cost.  This is the FxHash
//! algorithm used by rustc (a multiply-rotate word hash): not
//! collision-resistant against adversaries, which is fine for rows of
//! interned symbols and small integers, and several times faster than
//! SipHash on short keys.
//!
//! # The finalizer
//!
//! The multiply-rotate rounds push entropy *upwards*: the low `k` bits of
//! the state depend only on the low `k` bits of the words fed in.  The
//! storage layer's narrow index keys are two raw `ValId` words packed
//! into one `u64`, and a one-column key pads the low word with
//! `0xFFFF_FFFF` — so the low 32 bits of the raw state are the *same
//! constant for every key of the index*.  `std`'s table picks its bucket
//! from the low bits, which put every one-column key into one probe
//! group: a lookup walked its whole shard.  [`FxHasher::finish`]
//! therefore folds the state through one widening multiply (high half
//! xor low half), after which every output bit depends on every state
//! bit and callers may carve bucket, tag and shard bits out of any part
//! of the word.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The finalizer's multiplier (the 64-bit golden-ratio constant; odd).
const FOLD: u64 = 0x9e_37_79_b9_7f_4a_7c_15;

/// The FxHash state.
#[derive(Clone, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let full = u128::from(self.hash) * u128::from(FOLD);
        (full as u64) ^ ((full >> 64) as u64)
    }
}

/// `BuildHasher` for [`FxHasher`]-keyed maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&vec![1, 2, 3]), hash_of(&vec![1, 2, 3]));
        assert_eq!(hash_of(&"abc"), hash_of(&"abc"));
    }

    #[test]
    fn different_values_hash_differently() {
        // Not guaranteed in general, but these must differ for a usable hash.
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&vec![1, 2]), hash_of(&vec![2, 1]));
        assert_ne!(hash_of(&"ab"), hash_of(&"ba"));
    }

    #[test]
    fn vec_and_slice_hash_agree() {
        // Relation::contains hashes a borrowed slice against keys inserted
        // as owned Vecs; std's Borrow contract requires these to agree.
        let v = vec![3u64, 1, 4, 1, 5];
        assert_eq!(hash_of(&v), hash_of(&v.as_slice()));
    }
}
