//! An id-keyed table for per-request state on the hot path.
//!
//! Tracers, the sanitizer's conservation ledger and the devices' return
//! routing each keep a small record per in-flight request, looked up at
//! every stage boundary and never walked in key order. [`IdTable`] holds
//! such records in one flat slot array: open addressing with linear
//! probing, a load factor of at most three quarters, and backward-shift
//! deletion (no tombstones, so long runs never degrade lookups).
//!
//! The table is deterministic by construction. Its hash is a fixed
//! multiplicative (Fibonacci) hash of the `u64` id, so the slot layout
//! depends only on the sequence of operations, never on process state.
//! It also exposes no slot-order iteration: the one bulk view,
//! [`sorted_ids`](IdTable::sorted_ids), returns ids in ascending order,
//! exactly as a `BTreeMap`'s keys would come out.
//!
//! ```
//! use sim_engine::IdTable;
//!
//! let mut t = IdTable::new();
//! assert_eq!(t.insert(7, "a"), None);
//! assert_eq!(t.insert(3, "b"), None);
//! assert_eq!(t.insert(7, "c"), Some("a"));
//! *t.get_mut(3).expect("present") = "d";
//! assert_eq!(t.sorted_ids(), vec![3, 7]);
//! assert_eq!(t.remove(3), Some("d"));
//! assert_eq!(t.len(), 1);
//! ```

/// 2^64 / φ, the Fibonacci hashing multiplier: consecutive ids land far
/// apart, and ids that differ only in high bits (origin prefixes) still
/// spread, because the slot index is taken from the product's top bits.
const FIB_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Slots allocated by the first insert.
const MIN_SLOTS: usize = 16;

/// A map from `u64` ids to `V`, for per-request state that is looked up
/// by id and never iterated. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct IdTable<V> {
    /// Power-of-two slot array (empty until the first insert).
    slots: Vec<Option<(u64, V)>>,
    len: usize,
    /// `64 - log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
}

impl<V> IdTable<V> {
    /// An empty table (allocation-free until the first insert).
    pub const fn new() -> Self {
        IdTable {
            slots: Vec::new(),
            len: 0,
            shift: 64,
        }
    }

    /// Entries held.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table holds no entry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `value` under `id`, returning the value it replaced.
    #[inline]
    pub fn insert(&mut self, id: u64, value: V) -> Option<V> {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let i = self.probe(id);
        match &mut self.slots[i] {
            Some((_, v)) => Some(std::mem::replace(v, value)),
            empty => {
                *empty = Some((id, value));
                self.len += 1;
                None
            }
        }
    }

    /// The value under `id`, if any.
    #[inline]
    pub fn get_mut(&mut self, id: u64) -> Option<&mut V> {
        if self.len == 0 {
            return None;
        }
        let i = self.probe(id);
        self.slots[i].as_mut().map(|(_, v)| v)
    }

    /// Removes and returns the value under `id`, if any.
    #[inline]
    pub fn remove(&mut self, id: u64) -> Option<V> {
        if self.len == 0 {
            return None;
        }
        let mut hole = self.probe(id);
        let (_, value) = self.slots[hole].take()?;
        self.len -= 1;
        // Backward shift: pull each later entry of the run back into the
        // hole when the hole lies on its probe path (between its home
        // slot and where it sits), so every run stays gap-free.
        let mask = self.slots.len() - 1;
        let mut j = (hole + 1) & mask;
        while let Some((k, _)) = &self.slots[j] {
            let home = self.home(*k);
            if j.wrapping_sub(home) & mask >= j.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[j].take();
                hole = j;
            }
            j = (j + 1) & mask;
        }
        Some(value)
    }

    /// Removes every entry, keeping the allocation.
    pub fn clear(&mut self) {
        self.slots.fill_with(|| None);
        self.len = 0;
    }

    /// Every id held, ascending (diagnostics; allocates and sorts).
    pub fn sorted_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.slots.iter().flatten().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids
    }

    /// The slot `id` hashes to.
    #[inline]
    fn home(&self, id: u64) -> usize {
        // The shifted product has at most log2(slots) bits.
        (id.wrapping_mul(FIB_MULT) >> self.shift) as usize
    }

    /// The slot holding `id`, or the empty slot that ends its probe run.
    /// Needs a non-empty slot array with at least one empty slot, which
    /// the three-quarter load factor guarantees.
    #[inline]
    fn probe(&self, id: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(id);
        while let Some((k, _)) = &self.slots[i] {
            if *k == id {
                break;
            }
            i = (i + 1) & mask;
        }
        i
    }

    /// Doubles the slot array and re-places every entry.
    #[cold]
    fn grow(&mut self) {
        let slots = (self.slots.len() * 2).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.slots, (0..slots).map(|_| None).collect());
        self.shift = 64 - slots.trailing_zeros();
        for (id, value) in old.into_iter().flatten() {
            let i = self.probe(id);
            self.slots[i] = Some((id, value));
        }
    }
}

impl<V> Default for IdTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_table_is_empty_and_unallocated() {
        let mut t: IdTable<u32> = IdTable::new();
        assert!(t.is_empty());
        assert_eq!(t.slots.capacity(), 0);
        assert_eq!(t.get_mut(0), None);
        assert_eq!(t.remove(u64::MAX), None);
        assert!(t.sorted_ids().is_empty());
    }

    #[test]
    fn load_factor_stays_at_most_three_quarters() {
        let mut t = IdTable::new();
        for id in 0..1_000u64 {
            t.insert(id << 48 | id, ());
            assert!(t.len() * 4 <= t.slots.len() * 3);
        }
        assert_eq!(t.len(), 1_000);
    }

    #[test]
    fn runs_wrap_past_the_last_slot_and_shift_back_across_it() {
        let key = |t: &IdTable<u64>, i: usize| t.slots[i].as_ref().map(|(k, _)| *k);
        let mut t = IdTable::new();
        t.insert(0, 0u64);
        t.remove(0);
        let last = t.slots.len() - 1;
        let ids: Vec<u64> = (1..).filter(|&id| t.home(id) == last).take(3).collect();
        for &id in &ids {
            t.insert(id, id);
        }
        // The run that starts in the last slot spills into slots 0 and 1.
        assert_eq!(key(&t, last), Some(ids[0]));
        assert_eq!(key(&t, 0), Some(ids[1]));
        assert_eq!(key(&t, 1), Some(ids[2]));
        // Removing its head shifts both wrapped entries back across the end.
        assert_eq!(t.remove(ids[0]), Some(ids[0]));
        assert_eq!(key(&t, last), Some(ids[1]));
        assert_eq!(key(&t, 0), Some(ids[2]));
        assert_eq!(key(&t, 1), None);
    }
}
