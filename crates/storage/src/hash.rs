//! Fast non-cryptographic hashing for hot hash maps.
//!
//! Join-attribute lookups and whole-row membership checks dominate the
//! framework's inner loops, so all internal maps use the Fx algorithm
//! (the multiply-xor hash popularized by rustc / Firefox) instead of the
//! standard library's SipHash. HashDoS resistance is irrelevant here —
//! keys come from our own data generator or the user's own relations.

use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A `HashMap` keyed by the Fx hasher.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` keyed by the Fx hasher.
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hash state: `hash = (hash.rotate_left(5) ^ word) * SEED` per word.
#[derive(Debug, Clone, Copy, Default)]
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
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf) ^ rem.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Fx-hashes a sequence of values in place. Equal to
/// [`hash_cells`](crate::column::hash_cells) over the same values
/// viewed as cells — the key-encoding hash of
/// [`HashIndex`](crate::index::HashIndex) — so equal value sequences
/// hash equal regardless of where the values are read from.
#[inline]
pub fn hash_values<'a>(values: impl IntoIterator<Item = &'a Value>) -> u64 {
    let mut hasher = FxHasher::default();
    for v in values {
        v.hash(&mut hasher);
    }
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_input() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write(b"hello world, this is a row");
        b.write(b"hello world, this is a row");
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn different_inputs_differ() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write(b"tuple-a");
        b.write(b"tuple-b");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn length_extension_distinguished() {
        // A trailing partial chunk must not collide with its zero-padded
        // sibling.
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write(&[1, 2, 3]);
        b.write(&[1, 2, 3, 0]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<String, i32> = FxHashMap::default();
        m.insert("x".into(), 1);
        m.insert("y".into(), 2);
        assert_eq!(m.get("x"), Some(&1));

        let mut s: FxHashSet<u64> = FxHashSet::default();
        for i in 0..1000 {
            s.insert(i * 7919);
        }
        assert_eq!(s.len(), 1000);
        assert!(s.contains(&(13 * 7919)));
    }

    #[test]
    fn integer_keys_spread() {
        // Sanity check: sequential keys land in mostly distinct hashes.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            let mut h = FxHasher::default();
            h.write_u64(i);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 10_000);
    }
}
