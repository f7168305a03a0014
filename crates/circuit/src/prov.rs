//! Provenance circuits: hash-consed `⊕`/`⊗` DAGs over tuple leaves —
//! the factorised output mode for Datalog fixpoints.
//!
//! A [`ProvCircuit`] is the free-semiring analogue of the word circuit:
//! leaves are input-tuple identities, internal nodes are n-ary `⊕` and
//! `⊗`. Nodes are interned (hash-consed), so re-derivations collapse
//! structurally, and `⊕` deduplicates its children — sound for the
//! *idempotent* semirings the fixpoint compiler supports (Boolean and
//! the tropicals), where `x ⊕ x = x`. The DAG node count is the
//! factorised representation size measured against the Berkholz-style
//! bounds in X24; [`ProvCircuit::monomials`] counts the flat polynomial
//! expansion it avoids.

use std::hash::{DefaultHasher, Hash, Hasher};

use crate::cons::ConsTable;

/// Index of a node in a [`ProvCircuit`].
pub type ProvId = u32;

/// Flattening cap for nested `Plus`/`Times` children. Inlining an
/// associative child's list is what canonicalizes `⊗(⊗(a,b),c)` and
/// `⊗(a,⊗(b,c))` to one node, but inlining a *shared* child duplicates
/// its list — repeated squaring (`d ← d⊗d`) would double the flat
/// vector per level, rebuilding exactly the exponential expansion the
/// DAG exists to avoid. Past the cap a node keeps its children nested
/// (still identity-cleaned and sorted), trading canonical flatness for
/// linear memory. Fixpoint provenance stays far under the cap (child
/// widths track rule-body and derivation counts), so real workloads
/// flatten identically.
const FLATTEN_CAP: usize = 1024;

/// One provenance gate.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum ProvNode {
    /// The `⊕`-identity: the annotation of an absent tuple.
    Zero,
    /// The `⊗`-identity: the annotation of an unannotated atom.
    One,
    /// An input tuple, by caller-assigned id.
    Leaf(u32),
    /// n-ary `⊕` (children sorted, deduplicated, `Zero`-free).
    Plus(Vec<ProvId>),
    /// n-ary `⊗` (children sorted, `One`-free).
    Times(Vec<ProvId>),
}

/// The cons-table hash of a node: SipHash with fixed keys, so a node's
/// hash is the same whenever the table recomputes it.
fn node_hash(n: &ProvNode) -> u64 {
    let mut h = DefaultHasher::new();
    n.hash(&mut h);
    h.finish()
}

/// A hash-consed provenance DAG. `Zero` and `One` are pre-interned as
/// ids 0 and 1.
#[derive(Clone, Debug, Default)]
pub struct ProvCircuit {
    nodes: Vec<ProvNode>,
    /// The index-only cons table over `nodes`: each node, child list
    /// included, is stored once.
    cons: ConsTable,
}

impl ProvCircuit {
    /// An empty circuit (holding just the two identities).
    pub fn new() -> Self {
        let mut pc = ProvCircuit::default();
        pc.intern(ProvNode::Zero);
        pc.intern(ProvNode::One);
        pc
    }

    fn intern(&mut self, n: ProvNode) -> ProvId {
        let h = node_hash(&n);
        let nodes = &self.nodes;
        self.cons.reserve_one(|id| node_hash(&nodes[id as usize]));
        match self.cons.find(h, |id| nodes[id as usize] == n) {
            Ok(id) => id,
            Err(at) => {
                let id = self.nodes.len() as ProvId;
                self.nodes.push(n);
                self.cons.insert(at, h, id);
                id
            }
        }
    }

    /// The `⊕`-identity.
    pub fn zero(&self) -> ProvId {
        0
    }

    /// The `⊗`-identity.
    pub fn one(&self) -> ProvId {
        1
    }

    /// Interns an input-tuple leaf.
    pub fn leaf(&mut self, id: u32) -> ProvId {
        self.intern(ProvNode::Leaf(id))
    }

    /// Interns `⊕(children)`: drops `Zero`s, flattens nested `Plus` (up
    /// to 1024 children), sorts, and deduplicates (idempotence).
    /// Empty → `Zero`, singleton → the child itself.
    pub fn plus(&mut self, children: impl IntoIterator<Item = ProvId>) -> ProvId {
        let kept: Vec<ProvId> = children
            .into_iter()
            .filter(|&c| !matches!(self.nodes[c as usize], ProvNode::Zero))
            .collect();
        let mut flat: Vec<ProvId> = Vec::new();
        let mut overflow = false;
        for &c in &kept {
            match &self.nodes[c as usize] {
                ProvNode::Plus(inner) if flat.len() + inner.len() <= FLATTEN_CAP => {
                    flat.extend_from_slice(inner)
                }
                ProvNode::Plus(_) => {
                    overflow = true;
                    break;
                }
                _ => flat.push(c),
            }
        }
        let mut flat = if overflow { kept } else { flat };
        flat.sort_unstable();
        flat.dedup();
        match flat.len() {
            0 => self.zero(),
            1 => flat[0],
            _ => self.intern(ProvNode::Plus(flat)),
        }
    }

    /// Interns `⊗(children)`: drops `One`s, annihilates on `Zero`,
    /// flattens nested `Times` (up to 1024 children), and sorts
    /// (commutativity). Empty → `One`, singleton → the child itself.
    pub fn times(&mut self, children: impl IntoIterator<Item = ProvId>) -> ProvId {
        let mut kept: Vec<ProvId> = Vec::new();
        for c in children {
            match &self.nodes[c as usize] {
                ProvNode::Zero => return self.zero(),
                ProvNode::One => {}
                _ => kept.push(c),
            }
        }
        let mut flat: Vec<ProvId> = Vec::new();
        let mut overflow = false;
        for &c in &kept {
            match &self.nodes[c as usize] {
                ProvNode::Times(inner) if flat.len() + inner.len() <= FLATTEN_CAP => {
                    flat.extend_from_slice(inner)
                }
                ProvNode::Times(_) => {
                    overflow = true;
                    break;
                }
                _ => flat.push(c),
            }
        }
        let mut flat = if overflow { kept } else { flat };
        flat.sort_unstable();
        match flat.len() {
            0 => self.one(),
            1 => flat[0],
            _ => self.intern(ProvNode::Times(flat)),
        }
    }

    /// Total interned nodes (including the identities).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether only the identities exist.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 2
    }

    /// The node table, topologically ordered (children precede parents).
    pub fn nodes(&self) -> &[ProvNode] {
        &self.nodes
    }

    /// Number of DAG nodes reachable from `roots` (the factorised
    /// representation size of those polynomials).
    pub fn dag_size(&self, roots: &[ProvId]) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<ProvId> = roots.to_vec();
        let mut count = 0;
        while let Some(id) = stack.pop() {
            if seen[id as usize] {
                continue;
            }
            seen[id as usize] = true;
            count += 1;
            match &self.nodes[id as usize] {
                ProvNode::Plus(cs) | ProvNode::Times(cs) => stack.extend_from_slice(cs),
                _ => {}
            }
        }
        count
    }

    /// Number of monomials in the flat polynomial expansion of `root`
    /// (`Zero` → 0, leaves/`One` → 1, `⊕` sums, `⊗` multiplies), or
    /// `None` once the count exceeds `cap` — the blow-up the factorised
    /// form avoids.
    pub fn monomials(&self, root: ProvId, cap: u64) -> Option<u64> {
        // bottom-up over the (topologically ordered) node table
        let mut counts: Vec<Option<u64>> = Vec::with_capacity(self.nodes.len());
        for n in &self.nodes {
            let c = match n {
                ProvNode::Zero => Some(0),
                ProvNode::One | ProvNode::Leaf(_) => Some(1),
                ProvNode::Plus(cs) => cs.iter().try_fold(0u64, |acc, &c| {
                    counts[c as usize].and_then(|v| acc.checked_add(v))
                }),
                ProvNode::Times(cs) => cs.iter().try_fold(1u64, |acc, &c| {
                    counts[c as usize].and_then(|v| acc.checked_mul(v))
                }),
            };
            counts.push(c.filter(|&v| v <= cap));
        }
        counts[root as usize]
    }

    /// Evaluates every node under a concrete semiring given by its two
    /// identities, `⊕`, `⊗`, and per-leaf values; returns one value per
    /// node (index by [`ProvId`]). Validation hook: evaluating a
    /// fixpoint's provenance must reproduce the annotations the word
    /// evaluator computed.
    pub fn eval(
        &self,
        zero: u64,
        one: u64,
        plus: impl Fn(u64, u64) -> u64,
        times: impl Fn(u64, u64) -> u64,
        leaf: impl Fn(u32) -> u64,
    ) -> Vec<u64> {
        let mut vals: Vec<u64> = Vec::with_capacity(self.nodes.len());
        for n in &self.nodes {
            let v = match n {
                ProvNode::Zero => zero,
                ProvNode::One => one,
                ProvNode::Leaf(t) => leaf(*t),
                ProvNode::Plus(cs) => cs.iter().map(|&c| vals[c as usize]).fold(zero, &plus),
                ProvNode::Times(cs) => cs.iter().map(|&c| vals[c as usize]).fold(one, &times),
            };
            vals.push(v);
        }
        vals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consing_collapses_rederivations() {
        let mut pc = ProvCircuit::new();
        let (a, b, c) = (pc.leaf(0), pc.leaf(1), pc.leaf(2));
        let ab = pc.times([a, b]);
        let ab2 = pc.times([b, a]); // commutativity → same node
        assert_eq!(ab, ab2);
        let s1 = pc.plus([ab, c]);
        let s2 = pc.plus([c, ab, ab]); // idempotence → same node
        assert_eq!(s1, s2);
        let before = pc.len();
        let _ = pc.plus([ab, c]);
        assert_eq!(pc.len(), before, "re-derivation added no node");
    }

    #[test]
    fn identities_simplify() {
        let mut pc = ProvCircuit::new();
        let a = pc.leaf(7);
        let zero = pc.zero();
        let one = pc.one();
        assert_eq!(pc.plus([zero, a]), a);
        assert_eq!(pc.times([one, a]), a);
        assert_eq!(pc.times([zero, a]), zero);
        assert_eq!(pc.plus([]), zero);
        assert_eq!(pc.times([]), one);
    }

    #[test]
    fn eval_and_monomials() {
        // (l0 ⊗ l1) ⊕ l2 under (ℕ, +, ×) with leaf i ↦ i + 2
        let mut pc = ProvCircuit::new();
        let (a, b, c) = (pc.leaf(0), pc.leaf(1), pc.leaf(2));
        let ab = pc.times([a, b]);
        let s = pc.plus([ab, c]);
        let vals = pc.eval(0, 1, |x, y| x + y, |x, y| x * y, |t| u64::from(t) + 2);
        assert_eq!(vals[s as usize], 2 * 3 + 4);
        assert_eq!(pc.monomials(s, 1000), Some(2));
        // and a deep shared chain expands multiplicatively
        let mut deep = pc.plus([a, b]);
        for _ in 0..40 {
            deep = pc.times([deep, deep]);
        }
        assert_eq!(
            pc.monomials(deep, 1_000_000),
            None,
            "flat count overflows the cap"
        );
        assert!(pc.dag_size(&[deep]) < 50, "factorised form stays tiny");
    }
}
