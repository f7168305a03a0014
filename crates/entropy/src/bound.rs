//! The degree-aware polymatroid bound `LOGDAPB` (Sec. 3.2).

use qec_bignum::{Int, Rat};
use qec_lp::{LpBuilder, LpOutcome, Relation as LpRel};
use qec_relation::{DcSet, VarSet};

use crate::Term;

/// `⌈log₂ n⌉` for `n ≥ 1`.
///
/// # Panics
/// Panics if `n == 0` (a relation bound of zero is not a meaningful
/// constraint — the instance would be empty).
pub fn ceil_log2(n: u64) -> u32 {
    assert!(n > 0, "log of zero bound");
    if n == 1 {
        0
    } else {
        64 - (n - 1).leading_zeros()
    }
}

/// Errors from bound computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BoundError {
    /// The target set is not bounded by the constraints (some variable in
    /// the target is not covered by any constraint chain): `h(B)` can grow
    /// without limit, so no finite circuit exists.
    Unbounded,
    /// A degree constraint mentions variables outside `[n]`.
    VariableOutOfRange,
    /// The query has more variables than the LP is built for: it has a
    /// column per variable subset, `2^n - 1` of them.
    TooManyVariables {
        /// Variables the query has.
        num_vars: u32,
        /// The most the LP accepts, [`MAX_BOUND_VARS`].
        max: u32,
    },
    /// The underlying LP solver failed (iteration limit, or an outcome
    /// that contradicts the dual LP's structure).
    Solver(qec_lp::LpError),
}

impl std::fmt::Display for BoundError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundError::Unbounded => {
                write!(
                    f,
                    "polymatroid bound is unbounded: constraints do not cover the target"
                )
            }
            BoundError::VariableOutOfRange => {
                write!(f, "degree constraint mentions a variable outside the query")
            }
            BoundError::TooManyVariables { num_vars, max } => write!(
                f,
                "polymatroid LP over {num_vars} variables: it is exponential in n, at most {max} are accepted"
            ),
            BoundError::Solver(e) => write!(f, "polymatroid LP failed: {e}"),
        }
    }
}

impl std::error::Error for BoundError {}

/// The computed bound and its dual certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bound {
    /// `LOGDAPB` (in log₂ units): `max { h(B) : h ∈ Γ_n ∩ HDC }`.
    pub log_value: Rat,
    /// Shannon-flow coefficients `δ_{Y|X}` per degree constraint (aligned
    /// with `DcSet::iter` order). By strong duality
    /// `Σ δ·n_{Y|X} = LOGDAPB` (Theorem 1).
    pub delta: Vec<Rat>,
    /// The optimal polymatroid `h` itself (witness of tightness), indexed
    /// by `mask - 1` over non-empty subsets of `[n]`.
    pub witness: Vec<Rat>,
    /// Number of variables the witness is indexed over.
    pub num_vars: u32,
}

impl Bound {
    /// `DAPB` rounded up to the next power of two, as an exact integer:
    /// `2^{⌈LOGDAPB⌉}`. This is the worst-case output-size budget used to
    /// size circuits (`|Q(D)| ≤ DAPB ≤ dapb_pow2`).
    pub fn dapb_pow2(&self) -> Int {
        let e = self.log_value.ceil();
        let e = e.to_i64().expect("bound exponent fits in i64").max(0);
        Int::pow2(e as u32)
    }

    /// Witness value `h(S)`.
    pub fn h(&self, s: VarSet) -> Rat {
        if s.is_empty() {
            Rat::zero()
        } else {
            self.witness[(s.0 - 1) as usize].clone()
        }
    }

    /// The Shannon-flow starting vector `δ` as `(term, weight)` pairs,
    /// skipping zero weights.
    pub fn delta_terms(&self, dc: &DcSet) -> Vec<(Term, Rat)> {
        dc.iter()
            .zip(self.delta.iter())
            .filter(|(_, w)| w.is_positive())
            .map(|(c, w)| (Term { on: c.on, of: c.of }, w.clone()))
            .collect()
    }
}

/// The most variables [`polymatroid_bound`] accepts: its LP has a
/// column per non-empty variable subset.
pub const MAX_BOUND_VARS: u32 = 16;

/// Solves `max { h(B) : h ∈ Γ_n ∩ HDC }` exactly (Sec. 3.2).
///
/// `Γ_n` is encoded by its elemental description: submodularity
/// `h(S∪i) + h(S∪j) ≥ h(S∪ij) + h(S)` for all `i < j`, `S ⊆ [n]∖{i,j}`,
/// plus monotonicity at the top `h([n]) ≥ h([n]∖i)`; `h(∅) = 0` is
/// implicit (the empty set has no LP variable). Degree constraints
/// contribute `h(Y) - h(X) ≤ ⌈log₂ N_{Y|X}⌉`. More than
/// [`MAX_BOUND_VARS`] variables is [`BoundError::TooManyVariables`].
pub fn polymatroid_bound(num_vars: u32, dc: &DcSet, target: VarSet) -> Result<Bound, BoundError> {
    if num_vars > MAX_BOUND_VARS {
        return Err(BoundError::TooManyVariables {
            num_vars,
            max: MAX_BOUND_VARS,
        });
    }
    let n = num_vars;
    let all = VarSet::full(n);
    if !dc.vars().is_subset(all) {
        return Err(BoundError::VariableOutOfRange);
    }
    assert!(target.is_subset(all), "target outside [n]");
    if target.is_empty() {
        return Ok(Bound {
            log_value: Rat::zero(),
            delta: vec![Rat::zero(); dc.len()],
            witness: vec![Rat::zero(); (1usize << n) - 1],
            num_vars: n,
        });
    }

    let num_sets = (1usize << n) - 1; // non-empty subsets; row index = mask-1
    let ridx = |s: VarSet| -> usize {
        debug_assert!(!s.is_empty());
        (s.0 - 1) as usize
    };

    // We solve the *dual* program: the primal has a row per elemental
    // inequality (Θ(n²·2ⁿ)) but only 2ⁿ-1 variables, so the dual's
    // tableau — one row per subset, one variable per inequality — is far
    // smaller for the exact simplex. Duality also matches the theory: the
    // dual optimum *is* the Shannon-flow coefficient vector δ (Thm 1),
    // and the dual's row multipliers recover the witness polymatroid.
    //
    //   min Σ_c y_c·n_c
    //   s.t. ∀ S ≠ ∅:  Σ_c y_c·D_c[S] − Σ_k z_k·E_k[S] ≥ [S = target]
    //        y, z ≥ 0
    //
    // where D_c = e_Y − e_X for the degree constraint (X, Y) and E_k
    // ranges over elemental submodularity/monotonicity expressions
    // (E_k·h ≥ 0 for every polymatroid h).

    // Column layout: DC multipliers first (their primal values are δ).
    struct Col {
        coeffs: Vec<(usize, Rat)>, // (subset row, coefficient)
        cost: Rat,
    }
    let mut cols: Vec<Col> = Vec::new();
    for c in dc.iter() {
        let mut coeffs = vec![(ridx(c.of), Rat::one())];
        if !c.on.is_empty() {
            coeffs.push((ridx(c.on), -Rat::one()));
        }
        cols.push(Col {
            coeffs,
            cost: Rat::from(i64::from(ceil_log2(c.bound))),
        });
    }
    let num_dc = cols.len();
    // Elemental submodularity: h(S∪i) + h(S∪j) − h(S∪ij) − h(S) ≥ 0.
    for i in all.iter() {
        for j in all.iter() {
            if j.0 <= i.0 {
                continue;
            }
            let rest = all.minus(VarSet::singleton(i)).minus(VarSet::singleton(j));
            for s in rest.subsets() {
                let si = s.with(i);
                let sj = s.with(j);
                let sij = si.with(j);
                let mut coeffs = vec![(ridx(si), -Rat::one()), (ridx(sj), -Rat::one())];
                coeffs.push((ridx(sij), Rat::one()));
                if !s.is_empty() {
                    coeffs.push((ridx(s), Rat::one()));
                }
                cols.push(Col {
                    coeffs,
                    cost: Rat::zero(),
                });
            }
        }
    }
    // Elemental monotonicity at the top: h([n]) − h([n]∖i) ≥ 0.
    for i in all.iter() {
        let below = all.minus(VarSet::singleton(i));
        let mut coeffs = vec![(ridx(all), -Rat::one())];
        if !below.is_empty() {
            coeffs.push((ridx(below), Rat::one()));
        }
        cols.push(Col {
            coeffs,
            cost: Rat::zero(),
        });
    }

    let mut lp = LpBuilder::minimize(cols.len());
    for (ci, col) in cols.iter().enumerate() {
        if !col.cost.is_zero() {
            lp.obj(ci, col.cost.clone());
        }
    }
    // one Ge row per non-empty subset
    let mut row_coeffs: Vec<Vec<(usize, Rat)>> = vec![Vec::new(); num_sets];
    for (ci, col) in cols.iter().enumerate() {
        for (row, coeff) in &col.coeffs {
            row_coeffs[*row].push((ci, coeff.clone()));
        }
    }
    for (row, coeffs) in row_coeffs.into_iter().enumerate() {
        let rhs = if row == ridx(target) {
            Rat::one()
        } else {
            Rat::zero()
        };
        lp.constraint(coeffs, LpRel::Ge, rhs);
    }

    match lp.solve().map_err(BoundError::Solver)? {
        LpOutcome::Optimal(sol) => {
            let delta = sol.primal[..num_dc].to_vec();
            Ok(Bound {
                log_value: sol.value,
                delta,
                witness: sol.dual,
                num_vars: n,
            })
        }
        // the dual is infeasible exactly when the primal is unbounded
        LpOutcome::Infeasible => Err(BoundError::Unbounded),
        // The dual objective is bounded below by 0, so an unbounded
        // outcome can only be a solver defect — report it, don't abort.
        LpOutcome::Unbounded => Err(BoundError::Solver(qec_lp::LpError::Unbounded)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec_bignum::rat;
    use qec_relation::{DegreeConstraint, Var};

    fn vs(bits: &[u32]) -> VarSet {
        bits.iter().map(|&i| Var(i)).collect()
    }

    fn triangle_cards(log_n: u64) -> DcSet {
        let n = 1u64 << log_n;
        DcSet::from_vec(vec![
            DegreeConstraint::cardinality(vs(&[0, 1]), n),
            DegreeConstraint::cardinality(vs(&[1, 2]), n),
            DegreeConstraint::cardinality(vs(&[0, 2]), n),
        ])
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1 << 20), 20);
        assert_eq!(ceil_log2((1 << 20) + 1), 21);
        assert_eq!(ceil_log2(u64::MAX), 64);
    }

    #[test]
    fn triangle_agm_bound() {
        // LOGDAPB = 1.5 log N; δ = (1/2, 1/2, 1/2) — the paper's
        // inequality (2) after normalization.
        let dc = triangle_cards(10);
        let b = polymatroid_bound(3, &dc, VarSet::full(3)).unwrap();
        assert_eq!(b.log_value, rat(15, 1));
        let total: Rat = b.delta.iter().fold(Rat::zero(), |acc, d| &acc + d);
        // Σ δ·n = LOGDAPB with all n = 10 ⇒ Σ δ = 3/2
        assert_eq!(total, rat(3, 2));
        assert_eq!(b.dapb_pow2(), qec_bignum::Int::pow2(15));
    }

    #[test]
    fn triangle_with_degree_constraint() {
        // cards 2^10 each, deg(BC|B) ≤ 2^d: LOGDAPB = min(10 + d, 15).
        for (d, expect) in [(2u64, 12i64), (4, 14), (5, 15), (8, 15)] {
            let mut dc = triangle_cards(10);
            dc.add(DegreeConstraint::degree(vs(&[1]), vs(&[1, 2]), 1 << d));
            let b = polymatroid_bound(3, &dc, VarSet::full(3)).unwrap();
            assert_eq!(b.log_value, rat(expect, 1), "d = {d}");
            // Theorem 1: Σ δ·n = LOGDAPB
            let mut dual_val = Rat::zero();
            for (c, delta) in dc.iter().zip(b.delta.iter()) {
                dual_val = &dual_val + &(delta * &Rat::from(i64::from(ceil_log2(c.bound))));
            }
            assert_eq!(dual_val, b.log_value, "duality at d = {d}");
        }
    }

    #[test]
    fn functional_dependency_collapses_bound() {
        // R(A,B) with |R| ≤ 2^10 and FD A→AB, S(B,C) with |S| ≤ 2^10 and
        // FD B→BC: h(ABC) ≤ h(AB) + h(BC|B) ≤ 10 + 0 = 10.
        let dc = DcSet::from_vec(vec![
            DegreeConstraint::cardinality(vs(&[0, 1]), 1 << 10),
            DegreeConstraint::cardinality(vs(&[1, 2]), 1 << 10),
            DegreeConstraint::fd(vs(&[1]), vs(&[1, 2])),
        ]);
        let b = polymatroid_bound(3, &dc, VarSet::full(3)).unwrap();
        assert_eq!(b.log_value, rat(10, 1));
    }

    #[test]
    fn four_cycle_bound_is_two_log_n() {
        let n = 1u64 << 8;
        let dc = DcSet::from_vec(vec![
            DegreeConstraint::cardinality(vs(&[0, 1]), n),
            DegreeConstraint::cardinality(vs(&[1, 2]), n),
            DegreeConstraint::cardinality(vs(&[2, 3]), n),
            DegreeConstraint::cardinality(vs(&[0, 3]), n),
        ]);
        let b = polymatroid_bound(4, &dc, VarSet::full(4)).unwrap();
        assert_eq!(b.log_value, rat(16, 1));
    }

    #[test]
    fn bag_target_uses_subset_constraints() {
        let dc = triangle_cards(10);
        let b = polymatroid_bound(3, &dc, vs(&[0, 1])).unwrap();
        assert_eq!(b.log_value, rat(10, 1));
    }

    #[test]
    fn empty_target_is_zero() {
        let dc = triangle_cards(4);
        let b = polymatroid_bound(3, &dc, VarSet::EMPTY).unwrap();
        assert_eq!(b.log_value, Rat::zero());
    }

    #[test]
    fn uncovered_target_is_unbounded() {
        // no constraint mentions C
        let dc = DcSet::from_vec(vec![DegreeConstraint::cardinality(vs(&[0, 1]), 16)]);
        assert_eq!(
            polymatroid_bound(3, &dc, VarSet::full(3)).unwrap_err(),
            BoundError::Unbounded
        );
    }

    #[test]
    fn degree_only_constraint_chain() {
        // |R_A| ≤ 2^5, deg(AB|A) ≤ 2^3, deg(BC|B) ≤ 2^2:
        // h(ABC) ≤ 5 + 3 + 2 = 10.
        let dc = DcSet::from_vec(vec![
            DegreeConstraint::cardinality(vs(&[0]), 1 << 5),
            DegreeConstraint::degree(vs(&[0]), vs(&[0, 1]), 1 << 3),
            DegreeConstraint::degree(vs(&[1]), vs(&[1, 2]), 1 << 2),
        ]);
        let b = polymatroid_bound(3, &dc, VarSet::full(3)).unwrap();
        assert_eq!(b.log_value, rat(10, 1));
    }

    #[test]
    fn witness_is_a_polymatroid() {
        let dc = triangle_cards(6);
        let b = polymatroid_bound(3, &dc, VarSet::full(3)).unwrap();
        let all = VarSet::full(3);
        // spot-check monotonicity and submodularity of the witness
        for s in all.subsets() {
            for t in all.subsets() {
                if s.is_subset(t) {
                    assert!(b.h(s) <= b.h(t), "monotone at {s} ⊆ {t}");
                }
                let lhs = &b.h(s) + &b.h(t);
                let rhs = &b.h(s.union(t)) + &b.h(s.intersect(t));
                assert!(lhs >= rhs, "submodular at {s}, {t}");
            }
        }
    }
}
