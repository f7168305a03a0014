//! Synthetic workload generators.
//!
//! The paper has no empirical section, so reproduction workloads are
//! synthetic by necessity. These generators produce the instance families
//! used throughout `EXPERIMENTS.md`: uniform random relations, relations
//! with a hard degree cap, Zipf-skewed relations (stress the heavy/light
//! split and decomposition circuits), and the classical AGM worst case for
//! the triangle query (output size `N^{3/2}`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Relation, Var};

/// Uniform random binary/k-ary relation with `n` distinct tuples over
/// domain `[0, domain)`, deterministic in `seed`.
pub fn random_relation_with_domain(schema: Vec<Var>, n: usize, domain: u64, seed: u64) -> Relation {
    assert!(domain > 0, "empty domain");
    let arity = schema.len();
    let capacity = (domain as u128).saturating_pow(arity as u32);
    assert!(
        (n as u128) <= capacity,
        "cannot draw {n} distinct tuples of arity {arity} from domain {domain}"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows: Vec<Vec<u64>> = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::with_capacity(n * 2);
    while rows.len() < n {
        let row: Vec<u64> = (0..arity).map(|_| rng.gen_range(0..domain)).collect();
        if seen.insert(row.clone()) {
            rows.push(row);
        }
    }
    Relation::from_rows(schema, rows)
}

/// Uniform random relation with domain sized `2n` (mild collision rate).
pub fn random_relation(schema: Vec<Var>, n: usize, seed: u64) -> Relation {
    random_relation_with_domain(schema, n, (2 * n).max(4) as u64, seed)
}

/// Random binary relation `R(a, b)` with `n` tuples where no `a`-value has
/// degree above `max_degree`.
pub fn random_degree_bounded(a: Var, b: Var, n: usize, max_degree: usize, seed: u64) -> Relation {
    assert!(max_degree >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let groups = n.div_ceil(max_degree);
    let mut rows = Vec::with_capacity(n);
    let mut made = 0usize;
    for g in 0..groups {
        let deg = if g + 1 == groups {
            n - made
        } else {
            max_degree
        };
        // distinct b-values within the group: sample without replacement
        // from a window comfortably larger than the degree
        let window = (4 * max_degree) as u64;
        let mut picked = std::collections::HashSet::new();
        while picked.len() < deg {
            picked.insert(rng.gen_range(0..window));
        }
        for bv in picked {
            rows.push(vec![g as u64, bv]);
        }
        made += deg;
    }
    Relation::from_rows(vec![a, b], rows)
}

/// Zipf-skewed binary relation: `a`-values drawn with probability
/// `∝ 1/rank^s`, `b`-values uniform. Produces the skew that makes the
/// heavy/light split (Fig. 1) and PANDA's decomposition (Alg. 2) earn
/// their keep.
pub fn zipf_relation(a: Var, b: Var, n: usize, s: f64, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    let ranks = (n / 2).max(2);
    // Cumulative Zipf weights.
    let mut cdf = Vec::with_capacity(ranks);
    let mut total = 0.0f64;
    for r in 1..=ranks {
        total += 1.0 / (r as f64).powf(s);
        cdf.push(total);
    }
    let domain = (4 * n).max(8) as u64;
    let mut rows = std::collections::HashSet::with_capacity(n * 2);
    let mut attempts = 0usize;
    while rows.len() < n && attempts < 100 * n + 1000 {
        attempts += 1;
        let u: f64 = rng.gen_range(0.0..total);
        let rank = cdf.partition_point(|&c| c < u);
        let bv = rng.gen_range(0..domain);
        rows.insert(vec![rank as u64, bv]);
    }
    Relation::from_rows(vec![a, b], rows.into_iter().collect())
}

/// The AGM worst case for the triangle query: each of `R_AB`, `R_BC`,
/// `R_AC` is the complete bipartite relation `[√N] × [√N]`, so each has
/// `≈ N` tuples and the triangle output has `≈ N^{3/2}` tuples.
///
/// Returns `(R_AB, R_BC, R_AC)` over variables `(a, b, c)`.
pub fn agm_worst_case_triangle(a: Var, b: Var, c: Var, n: usize) -> (Relation, Relation, Relation) {
    let side = (n as f64).sqrt().floor() as u64;
    let side = side.max(1);
    let grid: Vec<Vec<u64>> = (0..side)
        .flat_map(|x| (0..side).map(move |y| vec![x, y]))
        .collect();
    (
        Relation::from_rows(vec![a, b], grid.clone()),
        Relation::from_rows(vec![b, c], grid.clone()),
        Relation::from_rows(vec![a, c], grid),
    )
}

/// The AGM worst case for the even `k`-cycle: every vertex ranges over
/// `[√N]` and each edge relation is the complete `[√N] × [√N]` grid, so
/// every relation has `≈ N` tuples and the output is the full vertex
/// grid of `≈ N^{k/2}` tuples — matching `ρ* = k/2`.
///
/// Returns one relation per cycle edge `E_i(x_i, x_{i+1 mod k})`.
///
/// # Panics
/// Panics unless `k` is even and `≥ 4`.
pub fn agm_worst_case_even_cycle(k: usize, n: usize) -> Vec<Relation> {
    assert!(k >= 4 && k.is_multiple_of(2), "even cycles only");
    let side = ((n as f64).sqrt().floor() as u64).max(1);
    // every vertex takes values in [side]; each edge is the full grid
    let grid: Vec<Vec<u64>> = (0..side)
        .flat_map(|x| (0..side).map(move |y| vec![x, y]))
        .collect();
    (0..k)
        .map(|i| {
            let a = Var(i as u32);
            let b = Var(((i + 1) % k) as u32);
            // from_rows sorts the schema; rows follow the given order (a, b)
            Relation::from_rows(vec![a, b], grid.clone())
        })
        .collect()
}

/// The Loomis–Whitney worst case: every variable ranges over
/// `[N^{1/(n-1)}]` and each of the `n` relations (arity `n-1`) is the full
/// cross product, so each relation has `≈ N` tuples and the output is the
/// full `n`-dimensional grid of `≈ N^{n/(n-1)}` tuples — matching
/// `ρ* = n/(n-1)`.
///
/// Returns one relation per atom of `qec-query`'s `loomis_whitney(n)`,
/// in atom order (`R_i` omits variable `i`).
pub fn agm_worst_case_loomis_whitney(n: usize, target: usize) -> Vec<Relation> {
    assert!(n >= 3);
    let side = ((target as f64).powf(1.0 / (n as f64 - 1.0)).floor() as u64).max(1);
    (0..n)
        .map(|skip| {
            let schema: Vec<Var> = (0..n)
                .filter(|&v| v != skip)
                .map(|v| Var(v as u32))
                .collect();
            let arity = schema.len();
            let mut rows = vec![vec![0u64; arity]];
            for col in 0..arity {
                rows = rows
                    .into_iter()
                    .flat_map(|r| {
                        (0..side).map(move |v| {
                            let mut t = r.clone();
                            t[col] = v;
                            t
                        })
                    })
                    .collect();
            }
            Relation::from_rows(schema, rows)
        })
        .collect()
}

/// `[2^lo, 2^hi]` as a vector of powers of two — the standard sweep for
/// scaling experiments.
pub fn powers_of_two(lo: u32, hi: u32) -> Vec<usize> {
    (lo..=hi).map(|e| 1usize << e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarSet;

    #[test]
    fn random_relation_is_deterministic_and_sized() {
        let r1 = random_relation(vec![Var(0), Var(1)], 100, 7);
        let r2 = random_relation(vec![Var(0), Var(1)], 100, 7);
        let r3 = random_relation(vec![Var(0), Var(1)], 100, 8);
        assert_eq!(r1, r2);
        assert_ne!(r1, r3);
        assert_eq!(r1.len(), 100);
        assert_eq!(r1.arity(), 2);
    }

    #[test]
    #[should_panic(expected = "distinct tuples")]
    fn impossible_cardinality_rejected() {
        let _ = random_relation_with_domain(vec![Var(0)], 10, 5, 0);
    }

    #[test]
    fn degree_bounded_respects_cap() {
        let r = random_degree_bounded(Var(0), Var(1), 1000, 8, 3);
        assert_eq!(r.len(), 1000);
        assert!(r.degree(VarSet::singleton(Var(0))) <= 8);
    }

    #[test]
    fn zipf_is_skewed() {
        let r = zipf_relation(Var(0), Var(1), 2000, 1.2, 11);
        assert!(r.len() >= 1000, "zipf generator should reach most of n");
        // the hottest a-value should be much hotter than the degree cap of
        // a uniform relation with the same size
        let deg = r.degree(VarSet::singleton(Var(0)));
        assert!(deg > 20, "expected heavy skew, got max degree {deg}");
    }

    #[test]
    fn agm_triangle_output_is_n_to_1_5() {
        let (ab, bc, ac) = agm_worst_case_triangle(Var(0), Var(1), Var(2), 64);
        assert_eq!(ab.len(), 64);
        let out = ab.natural_join(&bc).natural_join(&ac);
        assert_eq!(out.len(), 512); // 8^3 = (√64)^3 = 64^{1.5}
    }

    #[test]
    fn even_cycle_worst_case_output() {
        let rels = agm_worst_case_even_cycle(4, 16);
        assert_eq!(rels.len(), 4);
        assert_eq!(rels[0].len(), 16);
        let out = rels
            .iter()
            .skip(1)
            .fold(rels[0].clone(), |acc, r| acc.natural_join(r));
        assert_eq!(out.len(), 256); // 16^{4/2} = N^2
    }

    #[test]
    fn loomis_whitney_worst_case_output() {
        let rels = agm_worst_case_loomis_whitney(3, 16);
        assert_eq!(rels.len(), 3);
        assert_eq!(rels[0].len(), 16);
        let out = rels
            .iter()
            .skip(1)
            .fold(rels[0].clone(), |acc, r| acc.natural_join(r));
        assert_eq!(out.len(), 64); // (√16)^3 = N^{3/2}
    }

    #[test]
    fn powers() {
        assert_eq!(powers_of_two(3, 6), vec![8, 16, 32, 64]);
    }
}
