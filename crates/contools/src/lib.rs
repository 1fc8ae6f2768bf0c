//! The three applications of extracted configuration dependencies
//! (§4.2–4.3 of the paper):
//!
//! * **ConDocCk** ([`condocck`]) — checks the consistency between the
//!   manuals and the code-derived dependencies; reproduces the paper's
//!   **12 inaccurate-documentation** findings.
//! * **ConHandleCk** ([`conhandleck`]) — intentionally violates
//!   dependencies against the *real* simulated ecosystem and checks the
//!   handling; reproduces the paper's **1 bad configuration handling**
//!   case (the Figure 1 `resize2fs` corruption).
//! * **ConBugCk** ([`conbugck`]) — dependency-aware configuration
//!   generation for test suites: manipulates configurations *without*
//!   violating the extracted dependencies, so test runs get past shallow
//!   validation and exercise deep code under many configuration states.

pub mod conbugck;
pub mod condocck;
pub mod conhandleck;
pub mod f2fs;
pub mod fuzz;

pub use conbugck::{
    campaign, coverage, execute, execute_with_policy, generate_naive, ConBugCk, ConfigCampaign,
    CoverageStats, GeneratedConfig, RunDepth,
};
pub use condocck::{ext4_kernel_doc, run_condocck, run_condocck_for, DocIssue, DocIssueKind};
pub use conhandleck::{
    run_conhandleck, run_conhandleck_f2fs, standard_f2fs_image, standard_image, Handling,
    ViolationCase, ViolationOutcome,
};
pub use f2fs::execute_f2fs;
pub use fuzz::{
    fuzz_campaign, fuzz_campaign_with, FuzzOptions, FuzzOutcome, FuzzReport, Harness,
    PolarityCoverage, Strategy,
};
