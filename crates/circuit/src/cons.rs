//! The hash-cons table behind every circuit construction pass: the word
//! builder (sequential and parallel), the word optimizer's CSE, the bit
//! lowering and bit optimizer, and the provenance DAG.
//!
//! The table is *index-only*: a slot holds a wire id and a 7-bit hash
//! tag, never the gate itself. The gate already lives in the caller's
//! arena (a `Vec<Gate>`, or the paged struct-of-arrays columns of the
//! parallel cores), so a lookup compares the probe key against the arena
//! record of each candidate whose tag matches, and a resize recomputes
//! each id's hash from its record. A slot costs 5 bytes, where holding the
//! key would cost 20 (a packed `u128` key beside the id) or about 25 (a
//! `HashMap<Gate, WireId>` bucket).
//!
//! [`ConsTable`] is the single-threaded table; [`SharedConsTable`] shards
//! the same table behind 256 mutexes for the parallel cores. Both are
//! insert-only open-addressing tables with linear probing, doubled at 3/4
//! load. Gate hashes come from [`hash_fields`] (provenance nodes, whose
//! child lists have no fixed width, use SipHash): the slot index uses the
//! low bits, the shard index bits 48–55 and the tag the top 7 bits, so
//! the three stay independent.

use std::sync::{Mutex, MutexGuard};

/// Splitmix64 finalizer.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The hash of a gate given as its `(kind, a, b, c)` fields — the same
/// split both the word and the bit encodings use. Equal gates hash
/// equally; distinct gates may collide, which costs one extra comparison
/// against the arena, never a wrong answer.
#[inline]
pub(crate) fn hash_fields(kind: u8, a: u32, b: u32, c: u32) -> u64 {
    let ab = ((a as u64) << 32 | b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    mix(ab ^ ((c as u64) << 8 | kind as u64))
}

/// The tag stored for hash `h`: its top 7 bits with the high bit set, so
/// no occupied slot reads as the empty tag `0`.
#[inline]
fn tag(h: u64) -> u8 {
    0x80 | (h >> 57) as u8
}

/// Smallest non-empty table.
const MIN_SLOTS: usize = 16;

/// A vacant slot returned by [`ConsTable::find`]: where the probed key
/// goes if the caller inserts it. Valid until the table next changes.
pub(crate) struct Vacant(usize);

/// The single-threaded index-only hash-cons (see the module docs).
#[derive(Clone, Debug, Default)]
pub(crate) struct ConsTable {
    /// Per slot: `0` when empty, else [`tag`] of the entry's hash.
    tags: Vec<u8>,
    /// Per slot: the interned wire id (meaningless when the tag is `0`).
    ids: Vec<u32>,
    len: usize,
}

impl ConsTable {
    pub(crate) fn new() -> ConsTable {
        ConsTable::default()
    }

    /// Makes room for one more entry. When the insert would pass 3/4
    /// load the slot arrays double, and every stored id is re-placed
    /// under `hash_of(id)` — the hash of its arena record, which must
    /// equal the hash it was inserted with.
    pub(crate) fn reserve_one(&mut self, hash_of: impl Fn(u32) -> u64) {
        if (self.len + 1) * 4 <= self.tags.len() * 3 {
            return;
        }
        let slots = (self.tags.len() * 2).max(MIN_SLOTS);
        let old_tags = std::mem::replace(&mut self.tags, vec![0; slots]);
        let old_ids = std::mem::replace(&mut self.ids, vec![0; slots]);
        for (t, id) in old_tags.into_iter().zip(old_ids) {
            if t != 0 {
                let h = hash_of(id);
                let mut i = h as usize & (slots - 1);
                while self.tags[i] != 0 {
                    i = (i + 1) & (slots - 1);
                }
                self.tags[i] = tag(h);
                self.ids[i] = id;
            }
        }
    }

    /// Looks up the key with hash `h`: `Ok(id)` for the entry whose
    /// record `is_key` accepts, else the vacant slot where the key
    /// belongs. Call [`ConsTable::reserve_one`] first when the caller may
    /// insert, so the returned slot exists.
    pub(crate) fn find(&self, h: u64, is_key: impl Fn(u32) -> bool) -> Result<u32, Vacant> {
        if self.tags.is_empty() {
            return Err(Vacant(usize::MAX));
        }
        let mask = self.tags.len() - 1;
        let t = tag(h);
        let mut i = h as usize & mask;
        loop {
            match self.tags[i] {
                0 => return Err(Vacant(i)),
                x if x == t && is_key(self.ids[i]) => return Ok(self.ids[i]),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Records `id` (whose key hashes to `h`) in the slot `find` returned.
    pub(crate) fn insert(&mut self, at: Vacant, h: u64, id: u32) {
        debug_assert_eq!(self.tags[at.0], 0, "slot taken since find");
        self.tags[at.0] = tag(h);
        self.ids[at.0] = id;
        self.len += 1;
    }

    /// Entries interned so far (test/diagnostic use).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Heap bytes held by the slot arrays.
    pub(crate) fn bytes(&self) -> usize {
        self.tags.capacity() + self.ids.capacity() * std::mem::size_of::<u32>()
    }
}

/// Number of shards (a power of two). 256 keeps lock contention
/// negligible at 8–16 workers while the per-shard mutexes stay cheap.
const NUM_SHARDS: usize = 256;

/// One shard: a [`ConsTable`] plus its lookup counters.
#[derive(Default)]
struct Shard {
    table: ConsTable,
    /// Lookups that found an existing entry (the hash-cons doing its job).
    hits: u64,
    /// Lookups that created a new entry.
    misses: u64,
}

fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard
        .lock()
        .expect("cons shard poisoned: a builder panicked while interning")
}

/// The concurrent hash-cons of the parallel cores: [`ConsTable`]s sharded
/// by hash. The arena is the caller's paged columns, written by `create`
/// under the shard lock before the id is published, so any thread that
/// finds an id also sees its record.
pub(crate) struct SharedConsTable {
    shards: Box<[Mutex<Shard>]>,
}

impl SharedConsTable {
    pub(crate) fn new() -> SharedConsTable {
        SharedConsTable {
            shards: (0..NUM_SHARDS).map(|_| Mutex::default()).collect(),
        }
    }

    /// Looks up the key with hash `h` (`is_key` compares a candidate's
    /// record with it; `hash_of` rehashes records when the shard grows).
    /// If absent, runs `create` *under the shard lock* to allocate the
    /// wire and write its record, then publishes the id. Returns the id
    /// and whether this call created it.
    pub(crate) fn intern_with(
        &self,
        h: u64,
        is_key: impl Fn(u32) -> bool,
        hash_of: impl Fn(u32) -> u64,
        create: impl FnOnce() -> u32,
    ) -> (u32, bool) {
        let mut s = lock(&self.shards[(h >> 48) as usize & (NUM_SHARDS - 1)]);
        s.table.reserve_one(hash_of);
        match s.table.find(h, is_key) {
            Ok(id) => {
                s.hits += 1;
                (id, false)
            }
            Err(at) => {
                s.misses += 1;
                let id = create();
                s.table.insert(at, h, id);
                (id, true)
            }
        }
    }

    /// `(hits, misses)` summed over all shards since construction. The
    /// hit rate `hits / (hits + misses)` is the online-CSE effectiveness
    /// the observability layer exports.
    pub(crate) fn hit_stats(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(h, m), s| {
            let s = lock(s);
            (h + s.hits, m + s.misses)
        })
    }

    /// Heap bytes held by every shard's slot arrays.
    pub(crate) fn bytes(&self) -> usize {
        self.shards.iter().map(|s| lock(s).table.bytes()).sum()
    }

    /// Total interned entries (test/diagnostic use).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).table.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Interns `key` into a table whose arena is `keys` (id = position).
    fn intern(t: &mut ConsTable, keys: &mut Vec<u64>, key: u64, h: u64) -> (u32, bool) {
        t.reserve_one(|id| keys[id as usize] % 7);
        match t.find(h, |id| keys[id as usize] == key) {
            Ok(id) => (id, false),
            Err(at) => {
                keys.push(key);
                let id = (keys.len() - 1) as u32;
                t.insert(at, h, id);
                (id, true)
            }
        }
    }

    #[test]
    fn colliding_hashes_still_tell_keys_apart() {
        // Hash = key % 7: heavy collisions, resolved by the arena compare.
        let mut t = ConsTable::new();
        let mut keys = Vec::new();
        for k in 0..1000u64 {
            let (id, created) = intern(&mut t, &mut keys, k, k % 7);
            assert!(created);
            assert_eq!(id as u64, k);
        }
        for k in 0..1000u64 {
            assert_eq!(intern(&mut t, &mut keys, k, k % 7), (k as u32, false));
        }
        assert_eq!(t.len(), 1000);
        assert_eq!(keys.len(), 1000);
    }

    #[test]
    fn growth_keeps_every_entry_and_the_load_bound() {
        let h = |k: u64| hash_fields(3, k as u32, (k >> 32) as u32, 0);
        let mut t = ConsTable::new();
        // An empty table answers every lookup with a miss.
        assert!(t.find(h(1), |_| true).is_err());
        let mut keys = Vec::new();
        for k in 0..50_000u64 {
            t.reserve_one(|id| h(keys[id as usize]));
            let Err(at) = t.find(h(k), |id| keys[id as usize] == k) else {
                panic!("key {k} found before insertion");
            };
            keys.push(k);
            t.insert(at, h(k), k as u32);
            assert!(t.len() * 4 <= t.tags.len() * 3);
        }
        for k in 0..50_000u64 {
            assert_eq!(
                t.find(h(k), |id| keys[id as usize] == k).ok(),
                Some(k as u32)
            );
        }
        // 5 bytes per slot: a 7-bit tag byte and a 4-byte id.
        assert_eq!(t.bytes(), t.tags.len() * 5);
    }

    #[test]
    fn shared_table_dedups_under_contention() {
        let t = SharedConsTable::new();
        let next = AtomicU32::new(0);
        // The arena: id → key, written by `create` under the shard lock.
        let arena: Vec<AtomicU32> = (0..4096).map(|_| AtomicU32::new(0)).collect();
        let h = |k: u32| hash_fields(1, k, 0, 0);
        // 8 workers × 4k keys with heavy overlap: every key must map to
        // exactly one id, and the id set must be dense.
        qec_par::Pool::new(8).run_chunks(8 * 4096, 64, |r| {
            for i in r {
                let key = (i % 4096) as u32;
                t.intern_with(
                    h(key),
                    |id| arena[id as usize].load(Ordering::Relaxed) == key,
                    |id| h(arena[id as usize].load(Ordering::Relaxed)),
                    || {
                        let id = next.fetch_add(1, Ordering::Relaxed);
                        arena[id as usize].store(key, Ordering::Relaxed);
                        id
                    },
                );
            }
        });
        assert_eq!(t.len(), 4096);
        assert_eq!(next.load(Ordering::Relaxed), 4096);
        assert_eq!(t.hit_stats(), (7 * 4096, 4096));
        // Re-interning returns stable ids.
        let (id, created) = t.intern_with(
            h(17),
            |id| arena[id as usize].load(Ordering::Relaxed) == 17,
            |id| h(arena[id as usize].load(Ordering::Relaxed)),
            || unreachable!("17 is interned"),
        );
        assert!(!created);
        assert_eq!(arena[id as usize].load(Ordering::Relaxed), 17);
        assert!(t.bytes() >= 4096 * 5);
    }
}
