//! confdep — multi-level configuration-dependency extraction for file
//! systems.
//!
//! This is the core library of the reproduction of *Understanding
//! Configuration Dependencies of File Systems* (HotStorage '22). It
//! combines:
//!
//! * the **taxonomy** of multi-level configuration dependencies the
//!   paper derives in §3 (Self Dependency, Cross-Parameter Dependency,
//!   Cross-Component Dependency, with their sub-categories) —
//!   [`model::Dependency`];
//! * the **source models** of the six Ext4-ecosystem components
//!   (`mke2fs`, `mount`, `ext4`, `e4defrag`, `resize2fs`, `e2fsck`),
//!   written in the CIR language and transcribing the real components'
//!   configuration handling — [`models`];
//! * the **extractor** (§4.1): taint analysis over each component plus
//!   the *shared-metadata bridge* that connects parameters across
//!   components — [`extract`];
//! * the **ground truth** used to score false positives, and the
//!   **evaluation** that regenerates Table 5 — [`ground_truth`],
//!   [`eval`];
//! * JSON **reports** ("the extracted dependencies are stored in JSON
//!   files") — [`report`].
//!
//! # Examples
//!
//! ```
//! use confdep::{extract_component, models};
//!
//! let deps = extract_component(models::MKE2FS)?;
//! assert!(deps.iter().any(|d| d.is_self_dependency()));
//! # Ok::<(), confdep::ConfdepError>(())
//! ```

pub mod cache;
pub mod constraint;
pub mod eval;
pub mod extract;
pub mod ground_truth;
pub mod model;
pub mod models;
pub mod report;
pub mod scenario;
pub mod solve;

pub use cache::{AnalysisCache, CacheStats};
pub use constraint::{
    Constraint, ConstraintSet, DocVerdict, PairMode, Predicate, Shape, Slot, Verdict,
};
pub use eval::{CategoryCounts, Evaluation, ScenarioOutcome};
pub use extract::{
    analyze_component, extract_component, extract_scenario, extract_scenario_full,
    extract_scenario_parallel, extract_scenario_threaded, extract_scenario_with_cache,
    AnalyzedComponent, ExtractOptions, ScenarioExtraction,
};
pub use ground_truth::{is_false_positive, is_true_dependency, FALSE_POSITIVE_SIGNATURES};
pub use model::{dedup, DepKind, Dependency, Endpoint, ParamRef};
pub use report::DependencyReport;
pub use scenario::{paper_scenarios, Scenario};
pub use solve::{Polarity, SolvedConfig, Solver, SolverScope};

use std::error::Error;
use std::fmt;

/// Errors from the extraction pipeline.
#[derive(Debug)]
pub enum ConfdepError {
    /// A component model failed to compile.
    Cir(cir::CirError),
    /// Serialization failure.
    Json(serde_json::Error),
    /// I/O failure writing a report.
    Io(std::io::Error),
}

impl fmt::Display for ConfdepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfdepError::Cir(e) => write!(f, "model compilation failed: {e}"),
            ConfdepError::Json(e) => write!(f, "json error: {e}"),
            ConfdepError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl Error for ConfdepError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ConfdepError::Cir(e) => Some(e),
            ConfdepError::Json(e) => Some(e),
            ConfdepError::Io(e) => Some(e),
        }
    }
}

impl From<cir::CirError> for ConfdepError {
    fn from(e: cir::CirError) -> Self {
        ConfdepError::Cir(e)
    }
}

impl From<serde_json::Error> for ConfdepError {
    fn from(e: serde_json::Error) -> Self {
        ConfdepError::Json(e)
    }
}

impl From<std::io::Error> for ConfdepError {
    fn from(e: std::io::Error) -> Self {
        ConfdepError::Io(e)
    }
}
