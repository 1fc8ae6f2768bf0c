//! Property-based fault-tolerance tests: every single-fault schedule a
//! campaign enumerates must end in a classified verdict — never a Rust
//! panic, never a policy violation — for random configurations, random
//! durable-file sets and random sampling caps. A degraded
//! (`errors=remount-ro`) mount must keep serving durable reads and
//! rejecting writes; faultsim encodes both contracts as
//! `PolicyViolation`, so "zero violations" is the property.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use confdep_suite::blockdev::VerdictStore;
use confdep_suite::ext4sim::errors_policy;
use confdep_suite::faultsim::{
    run_campaign, CampaignConfig, CampaignOptions, CampaignReport, FaultWorkload, Verdict,
};

fn any_config() -> impl Strategy<Value = CampaignConfig> {
    (0u8..3, 0u8..2, 0u8..2).prop_map(|(e, journal, write_back)| CampaignConfig {
        errors: match e {
            0 => errors_policy::CONTINUE,
            1 => errors_policy::REMOUNT_RO,
            _ => errors_policy::PANIC,
        },
        journal: journal == 1,
        write_back: write_back == 1,
    })
}

/// 1–3 durable files with arbitrary fill bytes and sizes spanning the
/// empty, sub-block and multi-block cases.
fn durable_files() -> impl Strategy<Value = Vec<(String, Vec<u8>)>> {
    prop::collection::vec((0u8..255, 0usize..2200), 1..4).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (byte, len))| (format!("keep{i}"), vec![byte; len]))
            .collect()
    })
}

/// Small random sampling caps, so each case explores a different slice
/// of the fault-schedule space.
fn small_caps() -> impl Strategy<Value = CampaignOptions> {
    (1usize..4, 1usize..4, 1usize..3, 1usize..3, 1usize..4).prop_map(
        |(write_points, read_points, flush_points, corrupt_points, threads)| CampaignOptions {
            threads,
            write_points,
            read_points,
            flush_points,
            corrupt_points,
            verdict_cache: true,
        },
    )
}

/// Runs one campaign inside a `catch_unwind` harness so a panic in the
/// engine itself becomes a test failure that names the configuration
/// instead of poisoning the proptest runner.
fn campaign_guarded(
    workload: &FaultWorkload,
    opts: &CampaignOptions,
) -> Result<CampaignReport, String> {
    let store = VerdictStore::in_memory(opts.verdict_cache);
    catch_unwind(AssertUnwindSafe(|| run_campaign(workload, opts, &store)))
        .map_err(|_| format!("campaign engine panicked for {}", workload.name))?
        .map_err(|e| format!("probe pass failed for {}: {e}", workload.name))
}

proptest! {
    // each case re-executes the workload once per sampled fault
    // schedule, so a handful of cases already covers hundreds of
    // faulted runs across the configuration grid
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn every_schedule_gets_a_verdict_and_no_policy_breaks(
        config in any_config(),
        files in durable_files(),
        opts in small_caps(),
    ) {
        let mut workload = FaultWorkload::standard(config);
        workload.durable_files = files;
        let report = campaign_guarded(&workload, &opts)
            .map_err(TestCaseError::fail)?;
        prop_assert!(report.stats.faults_explored > 0);
        prop_assert_eq!(report.outcomes.len(), report.stats.faults_explored);
        for o in &report.outcomes {
            prop_assert!(
                o.verdict != Verdict::Panic,
                "{:?} ended in a panic verdict: {}",
                o.fault,
                o.detail
            );
            prop_assert!(
                o.verdict != Verdict::PolicyViolation,
                "{:?} violated errors={}: {}",
                o.fault,
                workload.config.errors_str(),
                o.detail
            );
        }
    }

    #[test]
    // journal=true pins a guaranteed trigger: the commit flush of the
    // workload's final sync is a metadata-path failure, so FailFlush(0)
    // always trips errors=remount-ro (no-journal configs can sample
    // only data-block writes and legitimately never degrade)
    fn remount_ro_serves_durable_reads_wherever_it_degrades(
        write_back in 0u8..2,
        files in durable_files(),
    ) {
        let config = CampaignConfig {
            errors: errors_policy::REMOUNT_RO,
            journal: true,
            write_back: write_back == 1,
        };
        let mut workload = FaultWorkload::standard(config);
        workload.durable_files = files;
        let opts = CampaignOptions {
            threads: 2,
            write_points: 5,
            read_points: 2,
            flush_points: 2,
            corrupt_points: 1,
            verdict_cache: true,
        };
        let report = campaign_guarded(&workload, &opts)
            .map_err(TestCaseError::fail)?;
        // a degraded mount that dropped a durable read or accepted a
        // write would have been classified PolicyViolation, so the two
        // read-only contracts reduce to "every degraded run stayed a
        // DegradedReadOnly (or legitimately worse-on-recovery) verdict"
        let counts = report.counts();
        prop_assert_eq!(counts.policy_violation, 0, "{:?}", report.outcomes);
        prop_assert_eq!(counts.panic, 0);
        // with write faults sampled across the whole trace, at least
        // one schedule must actually trip the policy
        prop_assert!(
            report.outcomes.iter().any(|o| o.detail.contains("degraded=y")),
            "no schedule degraded the mount: {:?}",
            report.outcomes
        );
    }
}

/// Deterministic anchor: the full grid with tiny caps classifies every
/// schedule, zero panics, zero violations — independent of proptest's
/// RNG, so a regression here bisects cleanly.
#[test]
fn full_grid_smoke_is_clean() {
    let opts = CampaignOptions {
        threads: 2,
        write_points: 3,
        read_points: 2,
        flush_points: 1,
        corrupt_points: 1,
        verdict_cache: true,
    };
    let store = VerdictStore::in_memory(true);
    for config in CampaignConfig::full_grid() {
        let workload = FaultWorkload::standard(config);
        let report = run_campaign(&workload, &opts, &store).expect("probe pass");
        let counts = report.counts();
        assert_eq!(counts.panic, 0, "{}: {:?}", workload.name, report.outcomes);
        assert_eq!(
            counts.policy_violation, 0,
            "{}: {:?}",
            workload.name, report.outcomes
        );
        assert_eq!(report.outcomes.len(), report.stats.faults_explored);
    }
    // the shared digest store must earn its keep across the sweep
    assert!(store.hits() > 0, "no digest-cache hits across the grid");
}
