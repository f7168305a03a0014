//! Polymatroid bounds, Shannon-flow inequalities, and proof sequences
//! (Secs. 3.2–3.4 of the paper).
//!
//! Pipeline:
//!
//! 1. [`polymatroid_bound`] solves the exact LP
//!    `max { h(B) : h ∈ Γ_n ∩ HDC }` over the cone of polymatroids
//!    (elemental monotonicity + submodularity constraints) intersected with
//!    the degree constraints, returning `LOGDAPB` and — by strong duality —
//!    the coefficient vector `δ` of a Shannon-flow inequality
//!    `⟨δ, h⟩ ≥ h(B)` with `Σ δ_{Y|X}·n_{Y|X} = LOGDAPB` (Theorem 1).
//! 2. [`prove_bound`] turns the inequality into an explicit **proof
//!    sequence** (Theorem 2): an ordered list of weighted monotonicity /
//!    submodularity / composition / decomposition steps whose intermediate
//!    coefficient vectors stay non-negative. The constructor searches
//!    variable orders and solves a small flow LP per order (the
//!    *chain-cover* construction described in `DESIGN.md`); for
//!    cardinality-only constraints the first order always succeeds and the
//!    proved inequality is exactly the (weighted) AGM bound.
//! 3. [`validate`] independently checks any proof sequence, so the
//!    downstream PANDA-C compiler never consumes an unsound certificate.
//!
//! Log scale: degree bounds `N` enter as `⌈log₂ N⌉` (exactly representable;
//! rounding up only weakens constraints, which preserves soundness of the
//! upper bound and costs at most a factor 2 per constraint — inside the
//! paper's `Õ(·)`).

mod bound;
mod chain;
mod proof;

pub use bound::{ceil_log2, polymatroid_bound, Bound, BoundError, MAX_BOUND_VARS};
pub use chain::{prove_bound, prove_bound_opts, with_implied_degrees, ChainProofError, ProveOpts};
pub use proof::{validate, ProofError, ProofStep, ShannonFlowProof, Term, WeightedStep};
