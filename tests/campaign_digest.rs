//! Golden digests of the campaign drivers.
//!
//! Crash exploration, the fault-injection sweep, the solver fuzz loop
//! and the ConBugCk campaign all dedup their items, consult a verdict
//! store and fan out on the worker pool. This file runs each of them
//! on fixed inputs at one worker thread and folds the results — the
//! canonical outcome signatures plus every counter that does not depend
//! on timing or scheduling — into one FNV-1a digest per campaign kind.
//! A change to how the campaigns dedup, cache or merge moves a digest.
//! Each campaign is then rerun at two worker threads, and its
//! signature must not change.

use std::sync::Arc;

use confdep_suite::blockdev::VerdictStore;
use confdep_suite::contools::conbugck::{campaign, generate_naive, ConBugCk};
use confdep_suite::contools::fuzz::{fuzz_campaign_with, FuzzOptions, Harness, Strategy};
use confdep_suite::contools::ConfigCampaign;
use confdep_suite::crashsim::{
    explore, generated_corpus, journaled_write_workload, CrashReport, ExploreOptions, Workload,
};
use confdep_suite::ecosys;
use confdep_suite::faultsim::{conformance_sweep, CampaignOptions, CampaignReport};

const CRASHSIM_DIGEST: u64 = 0xc6bb_f480_3e2e_ea00;
const FAULTSIM_DIGEST: u64 = 0xe89e_870f_6f41_8c0a;
const FUZZ_DIGEST: u64 = 0x4471_b695_ff0a_9fc5;
const CONBUGCK_DIGEST: u64 = 0x9c05_7720_4bce_4889;

/// An independent FNV-1a over text lines.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn line(&mut self, text: &str) {
        for b in text.bytes().chain(std::iter::once(b'\n')) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn check(name: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{name} campaign digest moved: got {got:#018x}, pinned {want:#018x}");
}

// ---------------------------------------------------------------------
// crashsim
// ---------------------------------------------------------------------

fn crash_inputs() -> Vec<Workload> {
    let files = vec![("alpha".to_string(), vec![1u8; 700]), ("beta".to_string(), vec![2u8; 300])];
    let mut inputs = vec![journaled_write_workload(&files).expect("built-in workload")];
    inputs.extend(generated_corpus(5, 2, 6, 3).expect("generated corpus"));
    inputs
}

/// The engine configurations pinned per workload, as `(label, options)`;
/// the last two share one in-memory store (a cold run, then a warm one).
fn crash_runs(threads: usize) -> Vec<(&'static str, ExploreOptions)> {
    let store = Arc::new(VerdictStore::in_memory(true));
    let por = ExploreOptions::corpus().with_threads(threads);
    vec![
        ("baseline", ExploreOptions::sequential_baseline()),
        (
            "rolling",
            ExploreOptions { verdict_cache: false, ..ExploreOptions::default() }
                .with_threads(threads),
        ),
        ("rolling+dedup", ExploreOptions::default().with_threads(threads)),
        ("por", por.clone()),
        ("por cold", por.clone().with_store(Arc::clone(&store))),
        ("por warm", por.with_store(store)),
    ]
}

fn fold_crash(h: &mut Fnv, label: &str, r: &CrashReport) {
    let s = &r.stats;
    h.line(&format!(
        "{} {label}: points={} classified={} cache_hits={} por_classes={} pruned={} \
         store_hits={} store_misses={} blocks_replayed={}",
        r.workload,
        s.crash_points,
        s.images_classified,
        s.cache_hits,
        s.por_classes,
        s.schedules_pruned,
        s.store_hits,
        s.store_misses,
        s.blocks_replayed
    ));
    for line in r.canonical_signature() {
        h.line(&line);
    }
}

#[test]
fn crashsim_campaigns_match_golden_digest() {
    let mut h = Fnv::new();
    for w in crash_inputs() {
        let mut serial = Vec::new();
        for (label, opts) in crash_runs(1) {
            let report = explore(&w, &opts).expect("explores");
            fold_crash(&mut h, label, &report);
            serial.push(report);
        }
        for ((label, opts), one) in crash_runs(2).iter().zip(&serial) {
            let two = explore(&w, opts).expect("explores");
            assert_eq!(
                one.canonical_signature(),
                two.canonical_signature(),
                "{} {label}: 2 workers changed the outcomes",
                w.name
            );
        }
    }
    check("crashsim", h.0, CRASHSIM_DIGEST);
}

// ---------------------------------------------------------------------
// faultsim
// ---------------------------------------------------------------------

/// The caps of `full_grid_smoke_is_clean` in `tests/fault_tolerance.rs`.
fn fault_caps(threads: usize) -> CampaignOptions {
    CampaignOptions {
        threads,
        write_points: 3,
        read_points: 2,
        flush_points: 1,
        corrupt_points: 1,
        verdict_cache: true,
    }
}

fn sweep(threads: usize) -> Vec<CampaignReport> {
    conformance_sweep(&fault_caps(threads)).expect("probe passes").1
}

#[test]
fn faultsim_sweep_matches_golden_digest() {
    let serial = sweep(1);
    assert_eq!(serial.len(), 12, "the full configuration grid");
    let mut h = Fnv::new();
    for r in &serial {
        h.line(&format!(
            "{}: hits={} misses={}",
            r.workload, r.stats.digest_cache_hits, r.stats.digest_cache_misses
        ));
        for line in r.canonical_signature() {
            h.line(&line);
        }
    }
    for (one, two) in serial.iter().zip(sweep(2)) {
        assert_eq!(one.canonical_signature(), two.canonical_signature(), "{}", one.workload);
    }
    check("faultsim", h.0, FAULTSIM_DIGEST);
}

// ---------------------------------------------------------------------
// fuzz loop
// ---------------------------------------------------------------------

#[test]
fn fuzz_campaigns_match_golden_digest() {
    let mut h = Fnv::new();
    for (eco, harness) in [(ecosys::ext4(), Harness::ext4()), (ecosys::f2fs(), Harness::f2fs())] {
        let set = eco.constraints().expect("extraction");
        let opts = |threads| FuzzOptions {
            seed: 2022,
            rounds: 2,
            batch: 16,
            threads,
            strategy: Strategy::Solver,
            store_path: None,
        };
        let r = fuzz_campaign_with(&set, &opts(1), &harness).report;
        h.line(&format!(
            "{}: digest={:#x} generated={} unique={} fresh={} covered={}/{}",
            harness.name,
            r.verdict_digest,
            r.generated,
            r.unique_verdicts,
            r.executed_fresh,
            r.coverage_covered,
            r.coverage_universe
        ));
        let two = fuzz_campaign_with(&set, &opts(2), &harness).report;
        assert!(r.same_verdicts(&two), "{}: 2 workers changed the verdicts", harness.name);
    }
    check("fuzz", h.0, FUZZ_DIGEST);
}

// ---------------------------------------------------------------------
// ConBugCk
// ---------------------------------------------------------------------

fn fold_tally(h: &mut Fnv, label: &str, c: &ConfigCampaign) {
    h.line(&format!(
        "{label}: total={} cli={} format={} mount={} deep={} executed={}",
        c.total, c.rejected_cli, c.rejected_format, c.rejected_mount, c.deep, c.executed
    ));
}

#[test]
fn conbugck_campaigns_match_golden_digest() {
    let aware = ConBugCk::new(42).expect("models compile").generate(40);
    let naive = generate_naive(42, 40);
    let mut h = Fnv::new();
    for (label, configs) in [("aware", &aware), ("naive", &naive)] {
        let one = campaign(configs, 1);
        fold_tally(&mut h, label, &one);
        assert_eq!(one, campaign(configs, 2), "{label}: 2 workers changed the tally");
    }
    check("conbugck", h.0, CONBUGCK_DIGEST);
}
