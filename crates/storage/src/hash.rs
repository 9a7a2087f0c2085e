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

/// The 64-bit golden-ratio multiplier that spreads an Fx hash before
/// [`IdTable`] takes its tag. Fx's last step is a multiply, and a
/// product's low bits depend only on its factors' low bits, so keys
/// that differ in their high-order bytes (`Customer#000000001`, …)
/// share low hash bits and would crowd into runs of neighbouring slots
/// if indexed by them.
const SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;

/// A vacant [`IdTable`] slot: code `u32::MAX`, which no entry carries.
const VACANT: u64 = u64::MAX;

/// The crate's one open-addressing table: a hash → dense `u32` code
/// dictionary whose caller owns the keys and confirms equality.
/// [`StrPool`](crate::column::StrPool) interns strings through it and
/// [`HashIndex`](crate::index::HashIndex) encodes generic keys through
/// it; neither stores a key here.
///
/// One `Vec<u64>` of slots, each `tag << 32 | code`, with power-of-two
/// capacity, linear probing and load ≤ ½. The tag is the high 32 bits
/// of `hash · SPREAD`, and a key's home slot is the tag's top bits, so
/// a lookup compares a tag before it asks the caller's `eq`, and the
/// table doubles by re-placing slots from their tags without reading a
/// key again. Codes are whatever the caller inserts — callers insert
/// `0, 1, 2, …` in first-seen order. Capacity is a pure function of
/// the entry count: [`with_capacity_for`](Self::with_capacity_for)`(n)`
/// and `n` inserts into an empty table both end at
/// `(2n).next_power_of_two()` slots.
#[derive(Debug, Clone, Default)]
pub(crate) struct IdTable {
    slots: Vec<u64>,
    len: usize,
}

impl IdTable {
    /// An empty table with room for `n` entries before it grows.
    pub(crate) fn with_capacity_for(n: usize) -> Self {
        let cap = if n == 0 {
            0
        } else {
            (n * 2).next_power_of_two()
        };
        Self {
            slots: vec![VACANT; cap],
            len: 0,
        }
    }

    #[inline]
    fn tag(hash: u64) -> u32 {
        (hash.wrapping_mul(SPREAD) >> 32) as u32
    }

    /// The home slot of `tag`: its top `log2(capacity)` bits.
    #[inline]
    fn home(&self, tag: u32) -> usize {
        ((tag as u64 * self.slots.len() as u64) >> 32) as usize
    }

    /// The code whose slot carries `tag` and satisfies `eq`, or the
    /// vacant slot that ends the probe (slot 0 of a table with none).
    #[inline]
    fn find(&self, tag: u32, eq: impl Fn(u32) -> bool) -> Result<u32, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(tag);
        loop {
            let slot = self.slots[i];
            if slot == VACANT {
                return Err(i);
            }
            if (slot >> 32) as u32 == tag && eq(slot as u32) {
                return Ok(slot as u32);
            }
            i = (i + 1) & mask;
        }
    }

    /// The code of the entry matching `hash` and `eq`, if present.
    #[inline]
    pub(crate) fn lookup(&self, hash: u64, eq: impl Fn(u32) -> bool) -> Option<u32> {
        self.find(Self::tag(hash), eq).ok()
    }

    /// The code of the entry matching `hash` and `eq`, inserting
    /// `next` on a miss (the table grows first when the insert would
    /// take it past half full). Returns the resident or inserted code.
    #[inline]
    pub(crate) fn lookup_or_insert(
        &mut self,
        hash: u64,
        next: u32,
        eq: impl Fn(u32) -> bool,
    ) -> u32 {
        debug_assert!(next != u32::MAX, "code u32::MAX marks a vacant slot");
        let tag = Self::tag(hash);
        let mut vacant = match self.find(tag, eq) {
            Ok(code) => return code,
            Err(i) => i,
        };
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
            vacant = self.vacant_slot(tag);
        }
        self.slots[vacant] = (tag as u64) << 32 | next as u64;
        self.len += 1;
        next
    }

    /// The first vacant slot on `tag`'s probe path.
    #[inline]
    fn vacant_slot(&self, tag: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(tag);
        while self.slots[i] != VACANT {
            i = (i + 1) & mask;
        }
        i
    }

    /// Doubles the capacity, re-placing every slot from its tag.
    #[cold]
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(2);
        let old = std::mem::replace(&mut self.slots, vec![VACANT; cap]);
        for slot in old.into_iter().filter(|&s| s != VACANT) {
            let i = self.vacant_slot((slot >> 32) as u32);
            self.slots[i] = slot;
        }
    }

    /// Resident bytes: the slot array's capacity.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u64>()
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

    /// An `IdTable` over `u64` keys, as `StrPool` drives one over
    /// strings: codes in first-seen order, `keys[code]` the key.
    fn intern(table: &mut IdTable, keys: &mut Vec<u64>, key: u64) -> u32 {
        let mut h = FxHasher::default();
        h.write_u64(key);
        let next = keys.len() as u32;
        let code = table.lookup_or_insert(h.finish(), next, |c| keys[c as usize] == key);
        if code == next {
            keys.push(key);
        }
        code
    }

    fn find(table: &IdTable, keys: &[u64], key: u64) -> Option<u32> {
        let mut h = FxHasher::default();
        h.write_u64(key);
        table.lookup(h.finish(), |c| keys[c as usize] == key)
    }

    /// Interning `n` keys one by one ends at the capacity
    /// `with_capacity_for(n)` reserves, so a pool's footprint does not
    /// depend on how it was filled.
    #[test]
    fn id_table_grows_to_its_reserved_capacity() {
        let mut table = IdTable::default();
        let mut keys = Vec::new();
        assert_eq!(table.memory_bytes(), 0);
        assert_eq!(find(&table, &keys, 7), None);
        for n in 1..=300u64 {
            intern(&mut table, &mut keys, n << 40);
            // A repeat never grows the table.
            intern(&mut table, &mut keys, n << 40);
            let reserved = IdTable::with_capacity_for(n as usize);
            assert_eq!(table.memory_bytes(), reserved.memory_bytes(), "n = {n}");
            assert_eq!(table.len, n as usize);
        }
    }

    /// Across every growth step, re-placed slots keep their codes: each
    /// key is found at its first-seen code and absent keys miss.
    #[test]
    fn id_table_finds_every_code_after_each_growth() {
        let mut table = IdTable::default();
        let mut keys = Vec::new();
        for i in 0..200u64 {
            // Keys that differ only in their high-order bytes.
            let key = i.reverse_bits();
            assert_eq!(intern(&mut table, &mut keys, key), i as u32);
            for code in 0..keys.len() as u32 {
                let k = keys[code as usize];
                assert_eq!(find(&table, &keys, k), Some(code));
                assert_eq!(intern(&mut table, &mut keys, k), code);
            }
            assert_eq!(find(&table, &keys, (i + 1).reverse_bits()), None);
            assert_eq!(find(&table, &keys, u64::MAX), None);
        }
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
