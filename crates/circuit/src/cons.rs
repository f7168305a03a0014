//! The hash-cons behind every gate store: the word builder, the word
//! optimizer's CSE, and the bit lowering and bit optimizer all intern
//! through one [`ConsIndex`]. The provenance DAG, whose nodes have no
//! fixed arity, keeps a plain [`ConsTable`].
//!
//! Both structures are *index-only*: they hold wire ids, never gates. The
//! gate already lives in the caller's arena (the word level's packed
//! records or a `Vec<BGate>`, indexed by wire id, seen through
//! [`ConsArena`]), so a lookup compares the probe key against the arena
//! records of its candidates.
//!
//! [`ConsIndex`] files each interned gate under its *youngest operand*,
//! the largest of its operand ids. A gate can only equal an earlier gate
//! with the same youngest operand, so per wire `y` a singly linked list
//! (`head[y]`, then `next[..]`, newest first) holds every candidate. A
//! lookup walks one list and compares arena records. Circuit builds
//! consume what they just made, so the walked wires and records are
//! recent and cache-hot, and the lists never rehash. A list stops
//! growing at [`HUB_USERS`] entries: later users of such a *hub* wire,
//! and the operand-free keys (constants), go to the *rest* table, a
//! [`ConsTable`]. So no lookup walks more than [`HUB_USERS`] entries.
//!
//! [`ConsTable`] is an insert-only open-addressing table with linear
//! probing, doubled at 3/4 load. A slot holds a wire id and a 7-bit hash
//! tag (5 bytes), and a resize recomputes each id's hash from its arena
//! record, visiting the ids in ascending order so the arena is read
//! front to back. Gate hashes come from [`hash_fields`] (provenance
//! nodes use SipHash): the slot index uses the low bits and the tag the
//! top 7 bits, so the two stay independent.

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

/// The index-only open-addressing hash-cons (see the module docs).
#[derive(Clone, Debug, Default)]
pub(crate) struct ConsTable {
    /// Per slot: `0` when empty, else [`tag`] of the entry's hash.
    tags: Vec<u8>,
    /// Per slot: the interned wire id (meaningless when the tag is `0`).
    ids: Vec<u32>,
    len: usize,
}

impl ConsTable {
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

/// The longest a [`ConsIndex`] use list grows: a wire's first
/// `HUB_USERS` interned users are listed under it, and later ones go to
/// the rest table. It bounds every lookup's walk, so a wire thousands of
/// gates use (a select bit, a shared key column) costs each lookup at
/// most this many record compares and one table probe.
pub const HUB_USERS: usize = 32;

/// The end of a use list.
const NIL: u32 = u32::MAX;

/// A gate record a [`ConsIndex`] interns. The caller's arena holds the
/// records, indexed by wire id; every operand of a record is an earlier
/// wire.
pub trait ConsKey: Copy + Eq {
    /// The largest operand id, or `None` for an operand-free record.
    fn youngest(&self) -> Option<u32>;
    /// The record's hash. Equal records hash equally.
    fn cons_hash(&self) -> u64;
}

/// The records a [`ConsIndex`] compares keys against, by wire id: a slice
/// of keys, or a packed store that reads a key out of its arrays.
pub trait ConsArena {
    /// The record type, which is also the probe key.
    type Key: ConsKey;
    /// The record of wire `w`.
    fn record(&self, w: u32) -> Self::Key;
}

impl<K: ConsKey> ConsArena for [K] {
    type Key = K;
    #[inline]
    fn record(&self, w: u32) -> K {
        self[w as usize]
    }
}

impl<K: ConsKey> ConsArena for Vec<K> {
    type Key = K;
    #[inline]
    fn record(&self, w: u32) -> K {
        self[w as usize]
    }
}

/// Where a missed key goes, returned by [`ConsIndex::find`] and consumed
/// by [`ConsIndex::insert`]. Valid until the index next changes.
#[must_use = "a miss is only recorded by `ConsIndex::insert`"]
pub struct Miss(Place);

enum Place {
    /// The head of the use list of this youngest operand.
    List(u32),
    /// The rest table's vacant slot, the key's hash, and whether the key
    /// spills from a full use list (rather than having no operands).
    Rest(Vacant, u64, bool),
}

/// Wires per chunk of [`ConsIndex`] links (32 KiB of links).
const CHUNK: usize = 1 << 12;

/// One wire's use-list words (see [`ConsIndex`]'s `links`).
#[derive(Clone, Copy, Debug)]
struct Link {
    head: u32,
    next: u32,
}

const UNLINKED: Link = Link {
    head: NIL,
    next: NIL,
};

/// The outcome of one use-list walk.
enum Walk {
    Hit(u32),
    /// Not listed, and the list of this youngest operand has room.
    Open(u32),
    /// Not listed, and the list is full: look in the rest table.
    Full,
}

/// The hash-cons over a gate arena: per-wire use lists keyed by
/// youngest operand, plus a rest table for operand-free keys and the
/// users of hub wires (see the module docs).
///
/// Interning is two calls around the caller's push:
///
/// ```text
/// match index.find(&arena, key) {
///     Ok(w) => w,
///     Err(miss) => { let w = push(key); index.insert(miss, w); w }
/// }
/// ```
///
/// `find` returns the one earlier interned record equal to `key`, so the
/// wire ids a store hands out do not depend on how the index is laid out.
#[derive(Clone, Debug, Default)]
pub struct ConsIndex {
    /// Per wire `w`, in chunks of [`CHUNK`] wires: the `head` of the use
    /// list of `w` (the newest interned gate whose youngest operand is
    /// `w`), and the `next` gate after `w` in the list `w` is filed in.
    /// Chunks are allocated once and never moved, so a growing index
    /// neither copies its links nor leaves freed blocks behind.
    links: Vec<Box<[Link; CHUNK]>>,
    /// Operand-free keys and hub spills.
    rest: ConsTable,
    hits: u64,
    misses: u64,
    spills: u64,
    longest_walk: usize,
}

impl ConsIndex {
    /// An empty index.
    pub fn new() -> ConsIndex {
        ConsIndex::default()
    }

    /// Looks `key` up among the records of `arena` interned so far:
    /// `Ok(id)` for the equal one, else where `key` goes once the
    /// caller has pushed it.
    #[inline]
    pub fn find<A: ConsArena + ?Sized>(&mut self, arena: &A, key: A::Key) -> Result<u32, Miss> {
        let walk = match key.youngest() {
            Some(y) => self.walk(arena, key, y),
            None => Walk::Full,
        };
        let found = match walk {
            Walk::Hit(w) => Ok(w),
            Walk::Open(y) => Err(Place::List(y)),
            Walk::Full => {
                let h = key.cons_hash();
                self.rest.reserve_one(|w| arena.record(w).cons_hash());
                self.rest
                    .find(h, |w| arena.record(w) == key)
                    .map_err(|at| Place::Rest(at, h, key.youngest().is_some()))
            }
        };
        match found {
            Ok(w) => {
                self.hits += 1;
                Ok(w)
            }
            Err(place) => {
                self.misses += 1;
                Err(Miss(place))
            }
        }
    }

    /// Walks the use list of `y` for `key`, newest first.
    #[inline]
    fn walk<A: ConsArena + ?Sized>(&mut self, arena: &A, key: A::Key, y: u32) -> Walk {
        let mut w = self
            .links
            .get(y as usize / CHUNK)
            .map_or(NIL, |c| c[y as usize % CHUNK].head);
        let mut steps = 0;
        while w != NIL {
            steps += 1;
            if arena.record(w) == key {
                self.longest_walk = self.longest_walk.max(steps);
                return Walk::Hit(w);
            }
            w = self.link(w).next;
        }
        debug_assert!(
            steps <= HUB_USERS,
            "use list of wire {y} holds {steps} > {HUB_USERS} gates"
        );
        self.longest_walk = self.longest_walk.max(steps);
        if steps < HUB_USERS {
            Walk::Open(y)
        } else {
            Walk::Full
        }
    }

    /// Records the wire `id` the caller pushed for the key `find` missed.
    /// `id` must be newer than every wire interned before.
    pub fn insert(&mut self, miss: Miss, id: u32) {
        match miss.0 {
            Place::List(y) => {
                debug_assert!(id > y, "gate {id} does not follow its operand {y}");
                while self.links.len() <= id as usize / CHUNK {
                    let chunk = vec![UNLINKED; CHUNK].into_boxed_slice();
                    self.links.push(chunk.try_into().expect("one chunk"));
                }
                let newest = self.link(y).head;
                let l = self.link_mut(id);
                debug_assert_eq!(l.next, NIL, "wire {id} interned twice");
                l.next = newest;
                self.link_mut(y).head = id;
            }
            Place::Rest(at, h, spill) => {
                self.rest.insert(at, h, id);
                self.spills += u64::from(spill);
            }
        }
    }

    #[inline]
    fn link(&self, w: u32) -> &Link {
        &self.links[w as usize / CHUNK][w as usize % CHUNK]
    }

    #[inline]
    fn link_mut(&mut self, w: u32) -> &mut Link {
        &mut self.links[w as usize / CHUNK][w as usize % CHUNK]
    }

    /// Lookups answered by an interned record.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that missed (each followed by an insert).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Interned keys filed in the rest table because their youngest
    /// operand's use list was full.
    pub fn spills(&self) -> u64 {
        self.spills
    }

    /// The most use-list entries one lookup has compared.
    pub fn longest_walk(&self) -> usize {
        self.longest_walk
    }

    /// Heap bytes held by the use lists and the rest table, by capacity.
    pub fn bytes(&self) -> usize {
        self.links.len() * CHUNK * std::mem::size_of::<Link>()
            + self.links.capacity() * std::mem::size_of::<Box<[Link; CHUNK]>>()
            + self.rest.bytes()
    }

    /// Adds this index's counters to `rec` as `{pass}.cons_hits`,
    /// `.cons_misses`, `.cons_spills` and the `.cons_bytes` gauge.
    pub(crate) fn flush(&self, rec: &qec_obs::Recorder, pass: &str) {
        if !rec.is_enabled() {
            return;
        }
        rec.add(&format!("{pass}.cons_hits"), self.hits);
        rec.add(&format!("{pass}.cons_misses"), self.misses);
        rec.add(&format!("{pass}.cons_spills"), self.spills);
        rec.gauge_max(&format!("{pass}.cons_bytes"), self.bytes() as u64);
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
        let mut t = ConsTable::default();
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
        let mut t = ConsTable::default();
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
            let mut t = ConsTable::default();
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
