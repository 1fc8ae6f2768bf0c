//! convalid — the read-optimized configuration-validation engine.
//!
//! The paper's end product is a dependency table that tools consult to
//! catch misconfigurations. This crate turns the compiled
//! [`confdep::ConstraintSet`] into a *service*: answer "validate this
//! configuration", "explain the violated dependency", and "repair this
//! configuration" at production query rates.
//!
//! The serving shape is build-once, read-many:
//!
//! * [`ValidationPlan`] is compiled once at startup from the constraint
//!   set — an inverted index from each constraint's subject
//!   `(component, registry parameter)` slot to its position, plus
//!   per-constraint documentation verdicts. The constraints themselves
//!   already carry their pre-resolved [`confdep::Predicate`], lowered
//!   once by confdep, so the hot path does no string matching and runs
//!   the same evaluator as every other consumer. The plan is immutable
//!   and shared behind an `Arc`; queries take no locks against it.
//! * [`ValidationEngine`] serves queries over the plan. The *indexed*
//!   path evaluates only the constraints whose parameters the query
//!   actually touches (everything else is `NotApplicable` by
//!   construction); the *naive* path — every query walks all compiled
//!   constraints — is retained as the equivalence baseline.
//! * [`ShardedMemo`] memoizes whole verdict vectors by the query's
//!   state fingerprint across N mutex-striped shards with
//!   hit/miss/eviction counters; repeated configurations are answered
//!   without evaluating anything.
//! * [`ValidationEngine::validate_many`] fans a batch out over
//!   `conpool::parallel_map`, preserving input order.
//! * [`ValidationEngine::explain`] reports each violated constraint's
//!   interned signature, taxonomy kind, and manual-corpus
//!   [`confdep::DocVerdict`]; [`ValidationEngine::repair`] reuses
//!   [`confdep::Solver`]'s propagation/repair machinery to propose a
//!   minimal satisfying assignment.
//!
//! All three paths (indexed, memoized, batched) return verdicts
//! bit-identical to evaluating every constraint directly with
//! [`confdep::Constraint::evaluate`] — the property `repro_service` and
//! `tests/validation_engine.rs` enforce.
//!
//! The engine is ecosystem-agnostic: [`ValidationPlan::compile_for`]
//! builds a plan for any registered [`ecosys::Ecosystem`] (doc
//! verdicts from that ecosystem's manual corpus, repair in its solver
//! scope), and [`ConfigQuery::tagged`] / [`ConfigQuery::from_cli_for`]
//! fold the ecosystem name into the state key and fingerprint, so memo
//! entries can never collide across ecosystems. The cross-ecosystem agreement
//! constraints ([`ecosys::cross_fs_constraints`]) compile into the
//! same plan machinery — "must agree" control pairs violate when the
//! two mount components set a shared parameter to different values.

pub mod engine;
pub mod memo;
pub mod plan;
pub mod query;

pub use engine::{
    EngineOptions, EngineStats, EvalStrategy, Explanation, RepairChange, RepairProposal,
    ValidationEngine, ValidationOutcome,
};
pub use memo::{MemoOptions, MemoStats, ShardedMemo};
pub use plan::ValidationPlan;
pub use query::ConfigQuery;
