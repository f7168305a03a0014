//! The cons index against a reference `HashMap`: random word and bit gate
//! streams go through [`ConsIndex`] and through a `HashMap<key, wire>`,
//! and both must answer every lookup with the same wire, hit or miss.
//! The streams mix operand-free keys (constants, which live in the rest
//! table), commutative duplicates, uninterned pushes (inputs, asserts),
//! and a hub wire with more than [`HUB_USERS`] distinct users, so lists
//! fill up and later users spill to the rest table.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use qec_circuit::lower::BGate;
use qec_circuit::{ConsIndex, ConsKey, Gate, HUB_USERS};

/// One random step: kind selector plus operand seeds.
type Step = (u8, u32, u32, u32);

/// Inputs pushed before the stream starts; the hub is the wire right
/// after them, so every input can pair with it as the older operand.
const INPUTS: u32 = 40;
const HUB: u32 = INPUTS;

/// The arena, the index and the reference, driven in step.
struct Store<K> {
    arena: Vec<K>,
    index: ConsIndex,
    reference: HashMap<K, u32>,
    hits: u64,
    misses: u64,
}

impl<K: ConsKey + Hash> Store<K> {
    fn new(inputs: impl IntoIterator<Item = K>) -> Store<K> {
        Store {
            arena: inputs.into_iter().collect(),
            index: ConsIndex::new(),
            reference: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Appends a record without interning it (an input or an assert).
    fn push_raw(&mut self, key: K) -> u32 {
        self.arena.push(key);
        (self.arena.len() - 1) as u32
    }

    /// Interns `key` in both and checks they agree.
    fn intern(&mut self, key: K) -> Result<u32, TestCaseError> {
        let want = self.reference.get(&key).copied();
        let got = match self.index.find(&self.arena, key) {
            Ok(w) => Some(w),
            Err(miss) => {
                prop_assert!(want.is_none(), "index missed the interned wire {want:?}");
                let w = self.push_raw(key);
                self.index.insert(miss, w);
                self.reference.insert(key, w);
                self.misses += 1;
                return Ok(w);
            }
        };
        prop_assert_eq!(got, want, "index and reference disagree");
        self.hits += 1;
        Ok(got.unwrap())
    }

    /// The index's own counters match the reference run, and no walk
    /// passed the hub cap.
    fn check_counters(&self, hub_users: usize) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.index.hits(), self.hits);
        prop_assert_eq!(self.index.misses(), self.misses);
        prop_assert!(self.index.longest_walk() <= HUB_USERS);
        if hub_users > HUB_USERS {
            prop_assert!(self.index.spills() >= (hub_users - HUB_USERS) as u64);
        }
        Ok(())
    }
}

/// A word gate as a cons key. The word level interns packed records;
/// this key holds the decoded [`Gate`], so the index is checked against
/// the same gate streams without reaching into the crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct W(Gate);

impl ConsKey for W {
    fn youngest(&self) -> Option<u32> {
        match self.0 {
            Gate::Input(_) | Gate::Const(_) => None,
            Gate::Not(a) | Gate::AssertZero(a) => Some(a),
            Gate::Add(a, b)
            | Gate::Sub(a, b)
            | Gate::Mul(a, b)
            | Gate::Eq(a, b)
            | Gate::Lt(a, b)
            | Gate::And(a, b)
            | Gate::Or(a, b)
            | Gate::Xor(a, b) => Some(a.max(b)),
            Gate::Mux(s, a, b) => Some(s.max(a).max(b)),
        }
    }

    fn cons_hash(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.0.hash(&mut h);
        h.finish()
    }
}

/// Sorts the operands of commutative word gates, as the word builder
/// and optimizer do before interning.
fn canon(g: Gate) -> Gate {
    match g {
        Gate::Add(a, b) if a > b => Gate::Add(b, a),
        Gate::Mul(a, b) if a > b => Gate::Mul(b, a),
        Gate::Eq(a, b) if a > b => Gate::Eq(b, a),
        Gate::And(a, b) if a > b => Gate::And(b, a),
        Gate::Or(a, b) if a > b => Gate::Or(b, a),
        Gate::Xor(a, b) if a > b => Gate::Xor(b, a),
        g => g,
    }
}

/// Picks the operands of one step: a hub user pairs the hub with an
/// input (so the hub is the youngest operand); otherwise both operands
/// lean toward recent wires, where duplicates are likeliest.
fn operands(len: u32, sel: u8, x: u32, y: u32, z: u32) -> (u32, u32, u32) {
    if sel.is_multiple_of(3) {
        return (x % INPUTS, HUB, y % INPUTS);
    }
    let recent = |s: u32| {
        let window = len.min(if s & 1 == 0 { 16 } else { len });
        len - 1 - (s >> 1) % window
    };
    (recent(x), recent(y), recent(z))
}

/// Number of distinct interned keys whose youngest operand is the hub.
fn hub_users<K: ConsKey>(reference: &HashMap<K, u32>) -> usize {
    reference
        .keys()
        .filter(|k| k.youngest() == Some(HUB))
        .count()
}

fn run_word(steps: &[Step]) -> Result<(), TestCaseError> {
    let mut st = Store::new((0..INPUTS as usize).map(|i| W(Gate::Input(i))));
    let hub = st.intern(W(Gate::Not(0)))?;
    prop_assert_eq!(hub, HUB);
    let mut issued: Vec<Gate> = Vec::new();
    for &(kind, x, y, z) in steps {
        let len = st.arena.len() as u32;
        let (a, b, s) = operands(len, kind >> 4, x, y, z);
        let key = match kind % 16 {
            0 => Gate::Add(b, a),
            1 => Gate::Sub(a, b),
            2 => Gate::Mul(a, b),
            3 => Gate::Eq(b, a),
            4 => Gate::Lt(a, b),
            5 => Gate::And(a, b),
            6 => Gate::Or(b, a),
            7 => Gate::Xor(a, b),
            8 => Gate::Not(b),
            9 => Gate::Mux(s, a, b),
            // A few constants, so most repeat.
            10 | 11 => Gate::Const(u64::from(x % 8)),
            // An earlier key with its operands swapped: a commutative
            // duplicate after `canon`, a new key for `Sub` / `Lt`.
            12 | 13 if !issued.is_empty() => match issued[x as usize % issued.len()] {
                Gate::Add(p, q) => Gate::Add(q, p),
                Gate::Xor(p, q) => Gate::Xor(q, p),
                Gate::Sub(p, q) => Gate::Sub(q, p),
                Gate::Lt(p, q) => Gate::Lt(q, p),
                g => g,
            },
            14 => {
                st.push_raw(W(Gate::AssertZero(a)));
                continue;
            }
            _ => Gate::Add(a, a),
        };
        let key = canon(key);
        issued.push(key);
        st.intern(W(key))?;
    }
    st.check_counters(hub_users(&st.reference))
}

fn run_bit(steps: &[Step]) -> Result<(), TestCaseError> {
    let mut st = Store::new((0..INPUTS).map(BGate::Input));
    let hub = st.intern(BGate::Not(0))?;
    prop_assert_eq!(hub, HUB);
    let mut issued: Vec<BGate> = Vec::new();
    for &(kind, x, y, z) in steps {
        let len = st.arena.len() as u32;
        let (a, b, _) = operands(len, kind >> 4, x, y, z);
        let (lo, hi) = (a.min(b), a.max(b));
        let key = match kind % 8 {
            0 | 1 => BGate::Xor(lo, hi),
            2 | 3 => BGate::And(lo, hi),
            4 => BGate::Not(b),
            5 => BGate::Const(x & 1 == 1),
            6 if !issued.is_empty() => issued[x as usize % issued.len()],
            _ => {
                st.push_raw(BGate::AssertFalse(a));
                continue;
            }
        };
        issued.push(key);
        st.intern(key)?;
    }
    st.check_counters(hub_users(&st.reference))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Word gate streams: the index agrees with the reference map.
    #[test]
    fn word_streams_match_a_hash_map(
        steps in prop::collection::vec(any::<Step>(), 1..700),
    ) {
        run_word(&steps)?;
    }

    /// Bit gate streams: the index agrees with the reference map.
    #[test]
    fn bit_streams_match_a_hash_map(
        steps in prop::collection::vec(any::<Step>(), 1..700),
    ) {
        run_bit(&steps)?;
    }
}

/// One wire is the youngest operand of 100k distinct gates. Its use list
/// stops at `HUB_USERS` entries and the rest spill to the table, so no
/// lookup, hit or miss, compares more than `HUB_USERS` list entries.
#[test]
fn a_hub_wire_never_walks_past_the_cap() {
    const USERS: u32 = 100_000;
    let mut arena: Vec<W> = (0..USERS as usize).map(|i| W(Gate::Input(i))).collect();
    arena.push(W(Gate::Not(0)));
    let hub = USERS;
    let mut index = ConsIndex::new();
    for pass in 0..2 {
        for x in 0..USERS {
            let key = W(Gate::Add(x, hub));
            match index.find(&arena, key) {
                Ok(w) => {
                    assert_eq!(pass, 1, "{key:?} found before it was interned");
                    assert_eq!(arena[w as usize], key);
                }
                Err(miss) => {
                    assert_eq!(pass, 0, "{key:?} lost after it was interned");
                    arena.push(key);
                    index.insert(miss, (arena.len() - 1) as u32);
                }
            }
        }
    }
    assert_eq!(index.longest_walk(), HUB_USERS);
    assert_eq!(index.misses(), u64::from(USERS));
    assert_eq!(index.hits(), u64::from(USERS));
    assert_eq!(index.spills(), u64::from(USERS) - HUB_USERS as u64);
}
