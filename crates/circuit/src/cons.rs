//! The hash-cons table behind every circuit construction pass: the word
//! builder, the word optimizer's CSE, the bit lowering and bit
//! optimizer, and the provenance DAG.
//!
//! The table is *index-only*: a slot holds a wire id and a 7-bit hash
//! tag, never the gate itself. The gate already lives in the caller's
//! arena (a `Vec<Gate>` or `Vec<BGate>`), so a lookup compares the
//! probe key against the arena record of each candidate whose tag
//! matches, and a resize recomputes each id's hash from its record, visiting the ids in
//! ascending order so the arena is read front to back. A slot costs 5
//! bytes, where holding the key would cost 20 (a packed `u128` key
//! beside the id) or about 25 (a `HashMap<Gate, WireId>` bucket).
//!
//! [`ConsTable`] is an insert-only open-addressing table with linear
//! probing, doubled at 3/4 load. Gate hashes come from [`hash_fields`]
//! (provenance nodes, whose child lists have no fixed width, use
//! SipHash): the slot index uses the low bits and the tag the top 7
//! bits, so the two stay independent.

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

/// The index-only hash-cons (see the module docs).
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
    /// equal the hash it was inserted with. The ids are re-placed in
    /// ascending order, so `hash_of` walks the arena forward instead of
    /// reading it at random.
    pub(crate) fn reserve_one(&mut self, hash_of: impl Fn(u32) -> u64) {
        if (self.len + 1) * 4 <= self.tags.len() * 3 {
            return;
        }
        let slots = (self.tags.len() * 2).max(MIN_SLOTS);
        let old_tags = std::mem::replace(&mut self.tags, vec![0; slots]);
        let mut ids = std::mem::replace(&mut self.ids, vec![0; slots]);
        let mut n = 0;
        for (i, &t) in old_tags.iter().enumerate() {
            if t != 0 {
                ids[n] = ids[i];
                n += 1;
            }
        }
        ids.truncate(n);
        let budget = old_tags.len();
        drop(old_tags);
        sort_distinct(&mut ids, budget);
        for id in ids {
            let h = hash_of(id);
            let mut i = h as usize & (slots - 1);
            while self.tags[i] != 0 {
                i = (i + 1) & (slots - 1);
            }
            self.tags[i] = tag(h);
            self.ids[i] = id;
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

/// Sorts distinct `ids` ascending with at most `budget` bytes of
/// scratch. Ids that fill enough of their range are marked in a bitmap
/// over it and read back in order, in linear time; sparser ones are
/// sorted in place.
fn sort_distinct(ids: &mut [u32], budget: usize) {
    let (Some(&lo), Some(&hi)) = (ids.iter().min(), ids.iter().max()) else {
        return;
    };
    let span = (hi - lo) as usize + 1;
    if span.div_ceil(8) > budget {
        ids.sort_unstable();
        return;
    }
    let mut bits = vec![0u64; span.div_ceil(64)];
    for &x in ids.iter() {
        let k = (x - lo) as usize;
        bits[k / 64] |= 1 << (k % 64);
    }
    let mut out = ids.iter_mut();
    for (w, &word) in bits.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            let slot = out.next().expect("ids are distinct");
            *slot = lo + (w * 64) as u32 + word.trailing_zeros();
            word &= word - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

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
    fn growth_rehashes_sparse_ids_in_ascending_order() {
        // Only every `stride`-th id is interned, so the largest id is
        // `stride` times the entry count. Stride 7 keeps the ids within
        // the bitmap's budget; stride 4099 is sparse enough to be sorted.
        let h = |id: u32| hash_fields(2, id, 0, 0);
        for stride in [7u32, 4099] {
            let mut t = ConsTable::new();
            let rehashed = RefCell::new(Vec::new());
            let mut resizes = 0;
            for k in 0..20_000u32 {
                let id = k * stride;
                t.reserve_one(|x| {
                    rehashed.borrow_mut().push(x);
                    h(x)
                });
                let seen = rehashed.take();
                if !seen.is_empty() {
                    resizes += 1;
                    assert_eq!(seen.len(), k as usize, "stride {stride}");
                    assert!(
                        seen.windows(2).all(|p| p[0] < p[1]),
                        "stride {stride}: a resize read the arena out of id order"
                    );
                    assert!(seen.iter().zip(0..).all(|(&x, j)| x == j * stride));
                }
                let Err(at) = t.find(h(id), |x| x == id) else {
                    panic!("id {id} found before insertion");
                };
                t.insert(at, h(id), id);
            }
            assert!(resizes >= 10, "stride {stride}: {resizes} doublings");
            for k in 0..20_000u32 {
                let id = k * stride;
                assert_eq!(t.find(h(id), |x| x == id).ok(), Some(id));
            }
            assert!(t.find(h(1), |x| x == 1).is_err());
            // The slot count depends on the entry count alone: 20k
            // entries at ≤ 3/4 load take 2^15 five-byte slots.
            assert_eq!(t.bytes(), 163_840, "stride {stride}");
        }
    }
}
