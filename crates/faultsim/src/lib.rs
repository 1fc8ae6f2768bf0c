//! faultsim — exhaustive single-fault I/O injection campaigns with
//! error-policy conformance checking.
//!
//! crashsim answers "what survives a crash at write k?"; faultsim
//! answers the complementary robustness question the paper's
//! configuration-dependency lens raises: **does the configured error
//! policy actually govern what happens when an I/O fails?** Real ext4
//! exposes `errors={continue,remount-ro,panic}` and its handling code
//! depends on it — ConHandleCk-style bugs are precisely the cases where
//! the configured reaction and the implemented reaction diverge.
//!
//! The pipeline:
//!
//! 1. [`FaultWorkload::setup`] builds a pristine image with durable
//!    files; [`probe_universe`] runs the workload fault-free over a
//!    [`blockdev::RecordingDevice`] to learn every I/O point.
//! 2. [`enumerate_schedules`] turns the I/O universe into single-fault
//!    schedules — failed/torn writes, device-gone, failed reads,
//!    failed flushes, silent read corruption — under sampling caps.
//! 3. [`run_campaign`] re-executes the workload once per schedule under
//!    a [`blockdev::FaultyDevice`] (in parallel via
//!    [`conpool::parallel_map`]), observes the runtime reaction, then
//!    pushes the post-fault image through forced fsck + remount +
//!    durable-data audit, memoised by image digest in the caller's
//!    [`blockdev::VerdictStore`] (in memory, or on disk so verdicts
//!    carry across processes).
//! 4. Every schedule gets a [`Verdict`]; [`conformance_sweep`] reduces
//!    the full 3 × 2 × 2 configuration grid to a [`ConformanceRow`]
//!    table answering "was the policy honoured?" per configuration.
//!
//! [`CampaignReport::canonical_signature`] is byte-identical across
//! worker-thread counts; only cache hit/miss *statistics* depend on
//! scheduling and live outside the signature.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod report;
mod workload;

pub use campaign::{
    conformance_row, conformance_sweep, enumerate_schedules, probe_universe, run_campaign,
    sample_points, CampaignOptions, IoUniverse, RecoveryOutcome,
};
pub use report::{
    format_conformance_table, CampaignReport, CampaignStats, ConformanceRow, FaultOutcome,
    FaultSpec, Verdict, VerdictCounts,
};
pub use workload::{CampaignConfig, FaultWorkload};
