//! The paper's primary contribution: relational circuits with bounded
//! wires, the PANDA-C compiler (Sec. 4.4, Alg. 1), Yannakakis-C and
//! output-sensitive circuits (Sec. 6, Algs. 8–11), and the semiring
//! join-aggregate extension (Sec. 7).
//!
//! Pipeline:
//!
//! ```text
//! CQ + degree constraints
//!   │  qec-entropy: polymatroid bound + proof sequence (Thms 1–2)
//!   ▼
//! PANDA-C (this crate)            — a *relational circuit*: Õ(1) gates,
//!   │                               wires bounded by (cardinality, degree)
//!   │                               parameters; cost Õ(N + DAPB) (Thm 3)
//!   ▼
//! lowering (qec-circuit)          — a word-level oblivious circuit of
//!   │                               size Õ(N + DAPB), depth Õ(1) (Thm 4)
//!   ▼
//! bit lowering (qec-circuit)      — AND/XOR/NOT gates for MPC/garbling
//! ```
//!
//! [`plan`] is the one planner: it keeps whichever of PANDA-C and the
//! classical circuit ([`naive_circuit`]) has the smaller
//! [`predicted_gates`], the word-gate count its lowering is predicted to
//! emit, read off node capacities without lowering anything.
//!
//! For non-full queries, [`OutputSensitive`] implements the two-family
//! construction of Sec. 6: one circuit computing `OUT = |Q(D)|`
//! (Alg. 11), and, parameterized by `OUT`, a Yannakakis-C circuit
//! (Algs. 8–9) of size `Õ(N + 2^{da-fhtw} + OUT)` (Thm 5).

mod cost;
mod naive;
mod panda;
mod plan;
mod rc;
mod semiring;
mod yannakakis;

pub use cost::{paper_cost, predicted_gates};
pub use naive::{naive_circuit, triangle_heavy_light};
pub use panda::{compile_fcq, CompileError, PandaCircuit};
pub use plan::{plan, Construction, Plan, MAX_PANDA_C_VARS};
pub use rc::{LoweredCircuit, MapBinOp, NodeId, RcError, RcNode, RcOp, RcPred, RelationalCircuit};
pub use semiring::{AggregateQuery, Semiring};
pub use yannakakis::{da_fhtw, OutputSensitive, YannakakisError};
