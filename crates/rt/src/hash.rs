//! Zero-dependency fast hashing for the formal-side hot paths.
//!
//! `std`'s default `SipHash` is keyed per `HashMap` instance and costs
//! tens of nanoseconds per small key — both properties the state-space
//! engines cannot afford: reachability interns millions of markings, and
//! the determinism contract wants the same hashes in every process. This
//! module provides:
//!
//! * [`FxHasher`]: the rustc `FxHash` multiply-rotate hasher — a fixed
//!   (unkeyed) 64-bit function, ~1 ns per word, deterministic across
//!   processes and platforms;
//! * [`FxHashMap`] / [`FxHashSet`]: drop-in aliases for `std`
//!   collections built on it;
//! * [`IdTable`]: an id-interner — an open-addressed table storing only
//!   a hash tag and an id in eight bytes per slot, where `id` indexes
//!   the caller's arena. Keys live **once** (in the arena), not cloned
//!   into the map; lookups compare against the arena through a
//!   caller-supplied closure. This
//!   is the raw-table pattern `hashbrown` exposes on nightly, sized down
//!   to exactly what BFS interning needs.
//!
//! None of this is for adversarial input: these are fixed-function
//! hashes for trusted, in-process state exploration.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The multiplier from rustc's `FxHash` (a Fibonacci-style odd constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A fast, fixed-function (unkeyed) 64-bit hasher.
///
/// The same input hashes to the same value in every process on every
/// platform, which the golden interner tests pin. Not DoS-resistant by
/// design — see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Hashes one value with [`FxHasher`] (deterministic across processes).
pub fn fx_hash_one<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// Vacant-slot sentinel: ids must stay below `u32::MAX`, which every
/// explorer guarantees by rejecting `max_states > u32::MAX` up front.
const EMPTY: u32 = u32::MAX;

/// A vacant slot: any tag, the sentinel id.
const VACANT: u64 = EMPTY as u64;

/// An id-interner: hash → arena-index table that never stores keys.
///
/// The caller keeps the keys in an arena (`Vec<K>`) and registers each
/// key's arena index here under its hash. Lookups re-derive equality by
/// comparing the candidate against `arena[id]` via a closure, so keys
/// exist exactly once in memory — the pattern that de-duplicates the
/// `HashMap<Marking, StateId>` + `Vec<Marking>` double storage of the
/// pre-interner explorers.
///
/// Each slot is one `u64`: the high 32 bits of the key's hash as a tag
/// (which also picks the home slot) and the id. The table grows to stay
/// at most half full, where linear probing averages under two probes per
/// lookup. Slots never affect ids: ids are whatever the caller inserts.
///
/// ```
/// use a4a_rt::hash::{fx_hash_one, IdTable};
///
/// let mut arena: Vec<String> = Vec::new();
/// let mut table = IdTable::new();
/// for word in ["a", "b", "a"] {
///     let h = fx_hash_one(word);
///     let id = match table.get(h, |id| arena[id as usize] == word) {
///         Some(id) => id,
///         None => {
///             let id = arena.len() as u32;
///             arena.push(word.to_string());
///             table.insert(h, id);
///             id
///         }
///     };
///     let _ = id;
/// }
/// assert_eq!(arena, vec!["a".to_string(), "b".to_string()]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IdTable {
    /// Power-of-two slot array of `tag << 32 | id`; `id == EMPTY` is
    /// vacant.
    entries: Vec<u64>,
    len: usize,
}

impl IdTable {
    /// An empty table (allocates on first insert).
    pub fn new() -> IdTable {
        IdTable::default()
    }

    /// An empty table pre-sized for about `capacity` ids.
    pub fn with_capacity(capacity: usize) -> IdTable {
        let mut t = IdTable::default();
        if capacity > 0 {
            t.grow_to(slots_for(capacity));
        }
        t
    }

    /// Number of interned ids.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up the id registered under `hash` whose arena entry matches,
    /// probing with `eq(id)` for each candidate with the same tag.
    #[inline]
    pub fn get(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.entries.is_empty() {
            return None;
        }
        let tag = tag(hash);
        let mask = self.entries.len() - 1;
        let mut idx = slot(tag, mask);
        loop {
            let entry = self.entries[idx];
            let id = entry as u32;
            if id == EMPTY {
                return None;
            }
            if (entry >> 32) as u32 == tag && eq(id) {
                return Some(id);
            }
            idx = (idx + 1) & mask;
        }
    }

    /// Registers `id` under `hash`. The caller must have checked with
    /// [`IdTable::get`] that no equal key is present (double insertion
    /// leaves both ids reachable, first-inserted wins on lookup).
    ///
    /// # Panics
    ///
    /// Panics if `id` is `u32::MAX` (reserved as the vacant sentinel).
    pub fn insert(&mut self, hash: u64, id: u32) {
        assert!(id != EMPTY, "id u32::MAX is reserved");
        // Keep load at most 1/2.
        if (self.len + 1) * 2 > self.entries.len() {
            let want = (self.entries.len() * 2).max(8);
            self.grow_to(want);
        }
        self.place(u64::from(tag(hash)) << 32 | u64::from(id));
        self.len += 1;
    }

    /// Drops every id but keeps the allocation — the per-call reuse hook
    /// for benchmark loops and repeated explorations.
    pub fn clear(&mut self) {
        self.entries.fill(VACANT);
        self.len = 0;
    }

    /// Stores `entry` in the first vacant slot from its home slot on.
    fn place(&mut self, entry: u64) {
        let mask = self.entries.len() - 1;
        let mut idx = slot((entry >> 32) as u32, mask);
        while self.entries[idx] as u32 != EMPTY {
            idx = (idx + 1) & mask;
        }
        self.entries[idx] = entry;
    }

    fn grow_to(&mut self, slots: usize) {
        debug_assert!(slots.is_power_of_two());
        let old = std::mem::replace(&mut self.entries, vec![VACANT; slots]);
        for entry in old {
            if entry as u32 != EMPTY {
                self.place(entry);
            }
        }
    }
}

/// The tag of `hash`: its high half. FxHash ends in a multiply, so only
/// its high bits mix the whole input (the low bits of a packed
/// marking's hash see only its first places).
#[inline]
fn tag(hash: u64) -> u32 {
    (hash >> 32) as u32
}

/// The home slot of `tag` in a table of `mask + 1` slots: the tag's bits
/// from bit 6 up, so tables of up to 2^26 slots take their home from the
/// top 26 bits of the hash.
#[inline]
fn slot(tag: u32, mask: usize) -> usize {
    tag.rotate_right(6) as usize & mask
}

/// Smallest power-of-two slot count keeping `ids` at most 1/2 load.
fn slots_for(ids: usize) -> usize {
    (ids * 2).next_power_of_two().max(8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fx_hash_is_stable() {
        // Golden values: the function is fixed across processes and
        // platforms, so these must never change.
        assert_eq!(fx_hash_one(&0u64), 0);
        assert_eq!(fx_hash_one(&1u64), 0x51_7c_c1_b7_27_22_0a_95);
        assert_eq!(fx_hash_one("abc"), fx_hash_one("abc"));
        assert_ne!(fx_hash_one("abc"), fx_hash_one("abd"));
    }

    #[test]
    fn fx_write_bytes_matches_words() {
        let mut a = FxHasher::default();
        a.write(&0x0102_0304_0506_0708u64.to_le_bytes());
        let mut b = FxHasher::default();
        b.write_u64(0x0102_0304_0506_0708);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn fx_map_round_trips() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        for i in 0..100u32 {
            m.insert(format!("k{i}"), i);
        }
        assert_eq!(m["k42"], 42);
        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.insert(7);
        assert!(s.contains(&7));
    }

    #[test]
    fn id_table_interns() {
        let mut arena: Vec<u64> = Vec::new();
        let mut table = IdTable::new();
        let keys = [5u64, 9, 5, 13, 9, 5];
        let mut ids = Vec::new();
        for k in keys {
            let h = fx_hash_one(&k);
            let id = match table.get(h, |id| arena[id as usize] == k) {
                Some(id) => id,
                None => {
                    let id = arena.len() as u32;
                    arena.push(k);
                    table.insert(h, id);
                    id
                }
            };
            ids.push(id);
        }
        assert_eq!(arena, vec![5, 9, 13]);
        assert_eq!(ids, vec![0, 1, 0, 2, 1, 0]);
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn id_table_survives_growth() {
        let mut arena: Vec<usize> = Vec::new();
        let mut table = IdTable::with_capacity(4);
        for k in 0..10_000usize {
            let h = fx_hash_one(&k);
            assert!(table.get(h, |id| arena[id as usize] == k).is_none());
            arena.push(k);
            table.insert(h, (arena.len() - 1) as u32);
        }
        for k in 0..10_000usize {
            let h = fx_hash_one(&k);
            assert_eq!(
                table.get(h, |id| arena[id as usize] == k),
                Some(k as u32),
                "lost {k} after growth"
            );
        }
        assert_eq!(table.len(), 10_000);
    }

    #[test]
    fn id_table_clear_keeps_capacity() {
        let mut table = IdTable::new();
        table.insert(fx_hash_one(&1u8), 0);
        table.clear();
        assert!(table.is_empty());
        assert_eq!(table.get(fx_hash_one(&1u8), |_| true), None);
        table.insert(fx_hash_one(&2u8), 0);
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn slots_spread_keys_that_differ_only_in_high_bits() {
        // Keys like a packed marking whose low places never change: the
        // low hash bits coincide, so the slot must come from the high
        // ones or every key lands in one probe run.
        let mut table = IdTable::new();
        for k in 0..4096u64 {
            table.insert(fx_hash_one(&(k << 32)), k as u32);
        }
        let mut longest = 0;
        let mut run = 0;
        for &entry in &table.entries {
            run = if entry as u32 == EMPTY { 0 } else { run + 1 };
            longest = longest.max(run);
        }
        assert!(longest <= 16, "longest occupied probe run {longest}");
    }

    #[test]
    fn colliding_hashes_resolved_by_eq() {
        // Force two arena entries under the same hash: `eq` must
        // disambiguate.
        let arena = ["x", "y"];
        let mut table = IdTable::new();
        table.insert(42, 0);
        table.insert(42, 1);
        assert_eq!(table.get(42, |id| arena[id as usize] == "y"), Some(1));
        assert_eq!(table.get(42, |id| arena[id as usize] == "x"), Some(0));
        assert_eq!(table.get(42, |_| false), None);
    }
}
