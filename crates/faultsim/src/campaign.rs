//! The campaign engine: trace → enumerate → re-execute → classify.
//!
//! A campaign (one [`FaultWorkload`] under one [`CampaignConfig`]) runs
//! in four phases:
//!
//! 1. **Probe.** The workload executes once, fault-free, over a
//!    [`blockdev::RecordingDevice`] wrapped in a no-fault
//!    [`blockdev::FaultyDevice`]. That yields the I/O-point universe:
//!    write, read and flush counts plus the set of blocks the workload
//!    touches.
//! 2. **Enumerate.** Every I/O point becomes up to one fault of each
//!    class — `FailWrite`/`TornWrite`/`DeviceGone` per write point,
//!    `FailRead` per read point, `FailFlush` per flush point,
//!    `CorruptRead` per written block — subject to per-class sampling
//!    caps that keep the endpoints (mirroring crashsim's
//!    `prefix_points`).
//! 3. **Re-execute.** The pristine base image is built once per
//!    campaign as a [`blockdev::CowDevice`]. Each schedule runs the
//!    workload on a copy-on-write fork of it (a snapshot copies block
//!    pointers, not data) under a [`blockdev::FaultyDevice`], inside a
//!    `catch_unwind` harness, and records how the file system reacted
//!    (typed error class, degraded/halted state, contract probes on a
//!    degraded mount). A schedule pays only for the blocks it writes.
//! 4. **Classify.** The post-fault fork's identity is its incremental
//!    [`blockdev::ImageDigest`], kept current on every write, so no
//!    schedule rescans the image. Recovery — forced `e2fsck -y`, a
//!    read-only remount, a durable-data audit — runs on the fork itself
//!    and is memoised by that digest in the caller's [`VerdictStore`],
//!    shared across the whole campaign (and across configurations in a
//!    conformance sweep; a store opened on a file carries verdicts
//!    across processes). Every standard workload shares one
//!    durable-file contract, so the key is the digest alone. The
//!    runtime observation and the recovery outcome combine into a
//!    [`Verdict`].
//!
//! Schedules run concurrently via [`conpool::parallel_map`] rather than
//! the campaign driver [`conpool::map_unique`]: a schedule's
//! fingerprint is its post-fault image, which exists only after the
//! schedule ran, so repeats can only be caught at classification. The
//! outcome list (and therefore [`CampaignReport::canonical_signature`])
//! is byte-identical across thread counts because results merge in
//! enumeration order and only store *hit counts* — reported separately
//! in [`CampaignStats`] — depend on scheduling.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use blockdev::{
    BlockDevice, CowDevice, FaultPlan, FaultyDevice, IoEvent, MemDevice, RecordingDevice,
    SharedDevice, VerdictStore,
};
use e2fstools::{E2fsck, FsckMode};
use ext4sim::{errors_policy, Ext4Fs, FsError, InodeNo, MountOptions, ROOT_INODE};

use crate::report::{
    CampaignReport, CampaignStats, ConformanceRow, FaultOutcome, FaultSpec, Verdict,
};
use crate::workload::{CampaignConfig, FaultWorkload};

/// Exploration knobs.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Worker threads, each running whole schedules: the faulted
    /// workload, its digest and (on a store miss) recovery
    /// classification (see [`conpool::effective_threads`]).
    pub threads: usize,
    /// Cap on sampled write points *per write-fault class*.
    pub write_points: usize,
    /// Cap on sampled read points.
    pub read_points: usize,
    /// Cap on sampled flush points.
    pub flush_points: usize,
    /// Cap on sampled corrupt-read target blocks.
    pub corrupt_points: usize,
    /// Memoise recovery classification by post-fault image digest in
    /// [`conformance_sweep`]'s store.
    pub verdict_cache: bool,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            threads: 1,
            write_points: 24,
            read_points: 16,
            flush_points: 8,
            corrupt_points: 8,
            verdict_cache: true,
        }
    }
}

impl CampaignOptions {
    /// A tiny configuration for smoke tests.
    pub fn smoke() -> Self {
        CampaignOptions {
            threads: 2,
            write_points: 6,
            read_points: 4,
            flush_points: 2,
            corrupt_points: 2,
            verdict_cache: true,
        }
    }
}

/// What one fault-free probe pass observed.
#[derive(Debug, Clone)]
pub struct IoUniverse {
    /// Total writes (mount through unmount).
    pub writes: u64,
    /// Total reads.
    pub reads: u64,
    /// Total flushes.
    pub flushes: u64,
    /// Distinct blocks written, ascending.
    pub written_blocks: Vec<u64>,
    /// Device block size.
    pub block_size: u32,
}

/// How the file system behaved during one faulted execution.
#[derive(Debug, Clone, Default)]
struct RunObs {
    mount_failed: bool,
    /// Short class of the first error the run surfaced (None = no error).
    err: Option<&'static str>,
    /// The typed `errors=panic` reaction was observed.
    policy_panicked: bool,
    /// The mount degraded to read-only (`errors=remount-ro`).
    degraded: bool,
    /// Contract probe: a write on the degraded mount was rejected with
    /// the dedicated typed error.
    degraded_write_rejected: Option<bool>,
    /// Contract probe: every durable file was still readable, with the
    /// right bytes, on the degraded mount.
    degraded_read_served: Option<bool>,
}

/// Recovery classification of one post-fault image (the memoised part).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RecoveryOutcome {
    /// A Rust panic escaped e2fsck or the remount. Always a bug.
    pub panicked: bool,
    /// The repaired image mounted read-only.
    pub mountable: bool,
    /// Every durable file readable with the expected content.
    pub data_ok: bool,
    /// Final e2fsck exit code (-1 when fsck itself errored).
    pub fsck_exit: i32,
}

/// Evenly samples up to `cap` of the points `0..n`, always keeping the
/// first and last (the same endpoint-preserving rule as crashsim's
/// `prefix_points`).
pub fn sample_points(n: u64, cap: usize) -> Vec<u64> {
    if n == 0 || cap == 0 {
        return Vec::new();
    }
    if n <= cap as u64 {
        return (0..n).collect();
    }
    if cap == 1 {
        return vec![0];
    }
    let mut pts: Vec<u64> =
        (0..cap as u64).map(|i| i * (n - 1) / (cap as u64 - 1)).collect();
    pts.dedup();
    pts
}

/// Runs the workload once, fault-free, and returns its I/O universe.
///
/// # Errors
///
/// Propagates any error of the fault-free pass — the workload must run
/// clean before fault schedules mean anything.
pub fn probe_universe(workload: &FaultWorkload, base: &MemDevice) -> Result<IoUniverse, FsError> {
    let recorder = RecordingDevice::new(base.clone());
    let faulty = FaultyDevice::new(recorder, FaultPlan::new());
    let cfg = &workload.config;
    let mut fs = Ext4Fs::mount_with_policy(faulty, &cfg.mount_options(), cfg.cache_policy())?;
    workload.run_op(&mut fs)?;
    let faulty = fs.unmount()?;
    let (writes, reads, flushes) = (faulty.writes(), faulty.reads(), faulty.flushes());
    let (dev, trace) = faulty.into_inner().into_parts();
    let written_blocks: BTreeSet<u64> = trace
        .events()
        .iter()
        .filter_map(|e| match e {
            IoEvent::Write { block, .. } => Some(*block),
            IoEvent::Flush => None,
        })
        .collect();
    Ok(IoUniverse {
        writes,
        reads,
        flushes,
        written_blocks: written_blocks.into_iter().collect(),
        block_size: dev.block_size(),
    })
}

/// Enumerates the single-fault schedules for `universe` under the
/// sampling caps of `opts`, in a fixed deterministic order.
pub fn enumerate_schedules(universe: &IoUniverse, opts: &CampaignOptions) -> Vec<FaultSpec> {
    let mut specs = Vec::new();
    for i in sample_points(universe.writes, opts.write_points) {
        specs.push(FaultSpec::FailWrite(i));
    }
    let torn = (universe.block_size / 2) as usize;
    for i in sample_points(universe.writes, opts.write_points) {
        specs.push(FaultSpec::TornWrite { nth: i, bytes: torn });
    }
    for i in sample_points(universe.writes, opts.write_points) {
        specs.push(FaultSpec::DeviceGone(i));
    }
    for i in sample_points(universe.reads, opts.read_points) {
        specs.push(FaultSpec::FailRead(i));
    }
    for i in sample_points(universe.flushes, opts.flush_points) {
        specs.push(FaultSpec::FailFlush(i));
    }
    let blocks = &universe.written_blocks;
    for i in sample_points(blocks.len() as u64, opts.corrupt_points) {
        specs.push(FaultSpec::CorruptRead { block: blocks[i as usize], offset: 0, value: 0xA5 });
    }
    specs
}

fn err_class(e: &FsError) -> &'static str {
    match e {
        FsError::Device(_) => "device-error",
        FsError::PolicyPanic(_) => "policy-panic",
        FsError::DegradedReadOnly => "degraded-ro",
        FsError::ReadOnlyFs => "read-only",
        FsError::MountRejected { .. } => "mount-rejected",
        FsError::Corrupt(_) => "corrupt",
        FsError::NoSpace => "no-space",
        FsError::BadMagic { .. } => "bad-magic",
        _ => "fs-error",
    }
}

/// Executes the workload under `plan` and observes the reaction. Runs
/// inside the caller's `catch_unwind` harness.
fn observe_run(
    workload: &FaultWorkload,
    medium: SharedDevice<CowDevice>,
    plan: FaultPlan,
) -> RunObs {
    let cfg = &workload.config;
    let faulty = FaultyDevice::new(medium, plan);
    let mut obs = RunObs::default();
    let mut fs = match Ext4Fs::mount_with_policy(faulty, &cfg.mount_options(), cfg.cache_policy())
    {
        Ok(fs) => fs,
        Err(e) => {
            obs.mount_failed = true;
            obs.err = Some(err_class(&e));
            return obs;
        }
    };
    if let Err(e) = workload.run_op(&mut fs) {
        obs.err = Some(err_class(&e));
    }
    obs.policy_panicked = fs.has_panicked();
    obs.degraded = fs.is_degraded();
    if obs.degraded {
        // contract probes: a degraded mount must reject writes with the
        // dedicated typed error and keep serving durable reads
        obs.degraded_write_rejected = Some(matches!(
            fs.create_file(ROOT_INODE, "probe_w"),
            Err(FsError::DegradedReadOnly)
        ));
        let served = workload.durable_files.iter().all(|(name, content)| {
            match fs.lookup(ROOT_INODE, name) {
                Ok(Some(entry)) => fs
                    .read_file_to_vec(InodeNo(entry.inode))
                    .map(|data| &data == content)
                    .unwrap_or(false),
                _ => false,
            }
        });
        obs.degraded_read_served = Some(served);
    }
    if let Err(e) = fs.unmount() {
        if obs.err.is_none() {
            obs.err = Some(err_class(&e));
        }
    }
    obs
}

/// Pushes a post-fault image through the full recovery stack: forced
/// `e2fsck -y` (twice if the first pass left errors), a read-only
/// remount, and a durable-data audit. The image's identity must already
/// have been taken: repair writes no longer maintain its digest.
fn classify_recovery(mut image: CowDevice, durable: &[(String, Vec<u8>)]) -> RecoveryOutcome {
    image.stop_digest_tracking();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut exit;
        let dev = match E2fsck::with_mode(FsckMode::Fix).forced().run(image) {
            Ok((dev, res)) => {
                exit = res.exit_code;
                if exit >= 4 {
                    // a second forced pass, as the real recovery playbook
                    // (and crashsim) do when errors were left uncorrected
                    match E2fsck::with_mode(FsckMode::Fix).forced().run(dev) {
                        Ok((dev, res)) => {
                            exit = res.exit_code;
                            dev
                        }
                        Err(_) => {
                            return RecoveryOutcome {
                                panicked: false,
                                mountable: false,
                                data_ok: false,
                                fsck_exit: -1,
                            }
                        }
                    }
                } else {
                    dev
                }
            }
            Err(_) => {
                return RecoveryOutcome {
                    panicked: false,
                    mountable: false,
                    data_ok: false,
                    fsck_exit: -1,
                }
            }
        };
        let fs = match Ext4Fs::mount(dev, &MountOptions::read_only()) {
            Ok(fs) => fs,
            Err(_) => {
                return RecoveryOutcome {
                    panicked: false,
                    mountable: false,
                    data_ok: false,
                    fsck_exit: exit,
                }
            }
        };
        let data_ok = durable.iter().all(|(name, content)| match fs.lookup(ROOT_INODE, name) {
            Ok(Some(entry)) => fs
                .read_file_to_vec(InodeNo(entry.inode))
                .map(|data| &data == content)
                .unwrap_or(false),
            _ => false,
        });
        RecoveryOutcome { panicked: false, mountable: true, data_ok, fsck_exit: exit }
    }));
    result.unwrap_or(RecoveryOutcome {
        panicked: true,
        mountable: false,
        data_ok: false,
        fsck_exit: -1,
    })
}

/// Combines the runtime observation and the recovery outcome into a
/// verdict plus a deterministic evidence string.
fn combine(
    spec: &FaultSpec,
    obs: &RunObs,
    rec: &RecoveryOutcome,
    policy: u16,
) -> (Verdict, String) {
    let detail = format!(
        "mount={} op={} degraded={} policy-panic={} fsck={} recovered={}",
        if obs.mount_failed { "err" } else { "ok" },
        obs.err.unwrap_or("ok"),
        if obs.degraded { "y" } else { "n" },
        if obs.policy_panicked { "y" } else { "n" },
        rec.fsck_exit,
        if !rec.mountable {
            "unmountable"
        } else if !rec.data_ok {
            "data-missing"
        } else {
            "ok"
        },
    );
    if rec.panicked {
        return (Verdict::Panic, format!("{detail} [recovery panicked]"));
    }
    let saw_policy_panic = obs.policy_panicked || obs.err == Some("policy-panic");
    if saw_policy_panic && policy != errors_policy::PANIC {
        return (Verdict::PolicyViolation, format!("{detail} [panic policy fired unconfigured]"));
    }
    if obs.degraded && policy != errors_policy::REMOUNT_RO {
        return (Verdict::PolicyViolation, format!("{detail} [degraded unconfigured]"));
    }
    if obs.degraded {
        if obs.degraded_write_rejected == Some(false) {
            return (
                Verdict::PolicyViolation,
                format!("{detail} [degraded mount accepted a write]"),
            );
        }
        // single-shot write faults exhaust before the read probe, so a
        // failed probe there is the fs's fault, not the device's
        if spec.is_single_shot_write() && obs.degraded_read_served == Some(false) {
            return (
                Verdict::PolicyViolation,
                format!("{detail} [degraded mount lost durable reads]"),
            );
        }
    }
    if !rec.mountable || !rec.data_ok {
        return (Verdict::DataLoss, detail);
    }
    if obs.degraded {
        return (Verdict::DegradedReadOnly, detail);
    }
    (Verdict::CleanError, detail)
}

/// Runs the workload under `spec` on a copy-on-write fork of `base` and
/// returns the observation with the post-fault fork, or `None` when a
/// Rust panic escaped the workload.
fn run_on_fork(
    workload: &FaultWorkload,
    base: &CowDevice,
    spec: &FaultSpec,
) -> Option<(RunObs, CowDevice)> {
    let medium = SharedDevice::new(base.snapshot());
    let plan = FaultPlan::new().with(spec.to_fault());
    let obs =
        catch_unwind(AssertUnwindSafe(|| observe_run(workload, medium.clone(), plan))).ok()?;
    let fork = medium.try_into_inner().expect("the run's device handle died with its mount");
    Some((obs, fork))
}

fn run_one(
    workload: &FaultWorkload,
    base: &CowDevice,
    spec: &FaultSpec,
    store: &VerdictStore<RecoveryOutcome>,
) -> FaultOutcome {
    let Some((obs, fork)) = run_on_fork(workload, base, spec) else {
        return FaultOutcome {
            fault: spec.clone(),
            verdict: Verdict::Panic,
            detail: "rust panic escaped the workload".to_string(),
        };
    };
    let digest = fork.digest().expect("a fresh fork tracks its digest");
    debug_assert_eq!(
        blockdev::digest_device(&fork).ok(),
        Some(digest),
        "the fork's incremental digest must match a full rescan ({spec:?})"
    );
    let rec =
        store.get_or_compute((digest, 0), || classify_recovery(fork, &workload.durable_files));
    let (verdict, detail) = combine(spec, &obs, &rec, workload.config.errors);
    FaultOutcome { fault: spec.clone(), verdict, detail }
}

/// Runs a full campaign: probe, enumerate, re-execute every schedule
/// (in parallel), classify through `store`, and aggregate.
///
/// # Errors
///
/// Propagates failures of the fault-free probe pass; faulted executions
/// never error out of the campaign — every schedule ends in a verdict.
pub fn run_campaign(
    workload: &FaultWorkload,
    opts: &CampaignOptions,
    store: &VerdictStore<RecoveryOutcome>,
) -> Result<CampaignReport, FsError> {
    let setup = workload.setup()?;
    let universe = probe_universe(workload, &setup)?;
    let base = CowDevice::from_device(&setup)?;
    drop(setup);
    let specs = enumerate_schedules(&universe, opts);
    let hits_before = store.hits();
    let misses_before = store.misses();
    let outcomes = conpool::parallel_map(specs, opts.threads, |_, spec| {
        run_one(workload, &base, &spec, store)
    });
    let stats = CampaignStats {
        trace_writes: universe.writes as usize,
        trace_reads: universe.reads as usize,
        trace_flushes: universe.flushes as usize,
        faults_explored: outcomes.len(),
        digest_cache_hits: store.hits() - hits_before,
        digest_cache_misses: store.misses() - misses_before,
    };
    Ok(CampaignReport {
        workload: workload.name.clone(),
        config: workload.config.clone(),
        outcomes,
        stats,
    })
}

/// Runs the standard workload over the full configuration grid (3
/// `errors=` policies × journal on/off × write-back/write-through) and
/// reduces each campaign to a conformance row. One in-memory
/// [`VerdictStore`] (disabled unless [`CampaignOptions::verdict_cache`])
/// is shared across the sweep.
///
/// # Errors
///
/// Propagates a probe-pass failure of any configuration.
pub fn conformance_sweep(
    opts: &CampaignOptions,
) -> Result<(Vec<ConformanceRow>, Vec<CampaignReport>), FsError> {
    let store = VerdictStore::in_memory(opts.verdict_cache);
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for config in CampaignConfig::full_grid() {
        let workload = FaultWorkload::standard(config.clone());
        let report = run_campaign(&workload, opts, &store)?;
        rows.push(conformance_row(&report));
        reports.push(report);
    }
    Ok((rows, reports))
}

/// Reduces one campaign report to its conformance-table row.
pub fn conformance_row(report: &CampaignReport) -> ConformanceRow {
    let counts = report.counts();
    let policy_fired = report
        .outcomes
        .iter()
        .filter(|o| o.detail.contains("degraded=y") || o.detail.contains("policy-panic=y"))
        .count();
    ConformanceRow {
        errors: report.config.errors_str().to_string(),
        journal: report.config.journal,
        write_back: report.config.write_back,
        faults: report.outcomes.len(),
        counts,
        policy_fired,
        honoured: report.policy_honoured(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn persistent_store_warms_a_rerun_campaign() {
        let path =
            std::env::temp_dir().join(format!("faultsim_campaign_{}.vstore", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let w = FaultWorkload::standard(CampaignConfig::default());
        // one worker, so no two threads classify the same image at once
        // and every miss is one appended verdict
        let opts = CampaignOptions { threads: 1, ..CampaignOptions::smoke() };
        let cold = run_campaign(&w, &opts, &VerdictStore::open(&path)).unwrap();
        assert!(cold.stats.digest_cache_misses > 0);
        // a fresh process: every recovery verdict comes back from disk
        let store = VerdictStore::open(&path);
        assert_eq!(store.preloaded(), cold.stats.digest_cache_misses);
        let warm = run_campaign(&w, &opts, &store).unwrap();
        assert_eq!(warm.stats.digest_cache_misses, 0, "warm rerun re-classified an image");
        assert_eq!(warm.canonical_signature(), cold.canonical_signature());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fork_digest_is_the_post_fault_image_identity() {
        for journal in [true, false] {
            let config = CampaignConfig { journal, ..CampaignConfig::default() };
            let w = FaultWorkload::standard(config);
            let setup = w.setup().unwrap();
            let universe = probe_universe(&w, &setup).unwrap();
            let base = CowDevice::from_device(&setup).unwrap();
            let base_digest = base.digest().unwrap();
            assert_eq!(base_digest, blockdev::digest_device(&setup).unwrap());
            let specs = enumerate_schedules(&universe, &CampaignOptions::smoke());
            assert!(!specs.is_empty());
            for spec in &specs {
                let (_, fork) = run_on_fork(&w, &base, spec).unwrap();
                assert_eq!(
                    fork.digest(),
                    Some(blockdev::digest_device(&fork).unwrap()),
                    "journal={journal} {spec:?}"
                );
                // the fork's writes never reach the shared base
                assert_eq!(
                    blockdev::digest_device(&base).unwrap(),
                    base_digest,
                    "journal={journal} {spec:?}"
                );
            }
        }
    }

    #[test]
    fn sample_points_keeps_endpoints_and_cap() {
        assert_eq!(sample_points(0, 5), Vec::<u64>::new());
        assert_eq!(sample_points(5, 0), Vec::<u64>::new());
        assert_eq!(sample_points(3, 5), vec![0, 1, 2]);
        let s = sample_points(100, 5);
        assert_eq!(s.len(), 5);
        assert_eq!(s[0], 0);
        assert_eq!(*s.last().unwrap(), 99);
        assert_eq!(sample_points(100, 1), vec![0]);
    }

    #[test]
    fn probe_finds_a_nonempty_universe() {
        let w = FaultWorkload::standard(CampaignConfig::default());
        let base = w.setup().unwrap();
        let u = probe_universe(&w, &base).unwrap();
        assert!(u.writes > 10, "writes={}", u.writes);
        assert!(u.reads > 10, "reads={}", u.reads);
        assert!(u.flushes >= 1, "flushes={}", u.flushes);
        assert!(!u.written_blocks.is_empty());
    }

    #[test]
    fn enumerate_respects_caps_and_order() {
        let u = IoUniverse {
            writes: 100,
            reads: 50,
            flushes: 3,
            written_blocks: vec![1, 2, 3, 4, 5],
            block_size: 1024,
        };
        let opts = CampaignOptions {
            write_points: 4,
            read_points: 2,
            flush_points: 8,
            corrupt_points: 2,
            ..CampaignOptions::default()
        };
        let specs = enumerate_schedules(&u, &opts);
        // 4 FailWrite + 4 TornWrite + 4 DeviceGone + 2 FailRead
        // + 3 FailFlush (uncapped: only 3 exist) + 2 CorruptRead
        assert_eq!(specs.len(), 4 + 4 + 4 + 2 + 3 + 2);
        assert!(matches!(specs[0], FaultSpec::FailWrite(0)));
        assert!(matches!(specs.last().unwrap(), FaultSpec::CorruptRead { .. }));
    }

    #[test]
    fn campaign_classifies_every_schedule_without_panics() {
        let w = FaultWorkload::standard(CampaignConfig::default());
        let store = VerdictStore::in_memory(true);
        let report = run_campaign(&w, &CampaignOptions::smoke(), &store).unwrap();
        assert!(report.stats.faults_explored > 0);
        assert_eq!(report.outcomes.len(), report.stats.faults_explored);
        let counts = report.counts();
        assert_eq!(counts.panic, 0, "{:?}", report);
        assert_eq!(counts.policy_violation, 0, "{:?}", report);
    }

    #[test]
    fn remount_ro_config_degrades_somewhere() {
        let config = CampaignConfig {
            errors: errors_policy::REMOUNT_RO,
            ..CampaignConfig::default()
        };
        let w = FaultWorkload::standard(config);
        let store = VerdictStore::in_memory(true);
        let report = run_campaign(&w, &CampaignOptions::smoke(), &store).unwrap();
        let counts = report.counts();
        assert_eq!(counts.policy_violation, 0, "{:?}", report);
        assert_eq!(counts.panic, 0);
        assert!(
            counts.degraded_read_only > 0,
            "no schedule degraded the mount: {:?}",
            report.counts()
        );
    }

    #[test]
    fn reports_are_identical_across_thread_counts() {
        let w = FaultWorkload::standard(CampaignConfig::default());
        let mut opts = CampaignOptions::smoke();
        opts.threads = 1;
        let r1 = run_campaign(&w, &opts, &VerdictStore::in_memory(true)).unwrap();
        opts.threads = 4;
        let r4 = run_campaign(&w, &opts, &VerdictStore::in_memory(true)).unwrap();
        assert_eq!(r1.canonical_signature(), r4.canonical_signature());
    }

    #[test]
    fn verdict_cache_hits_on_repeated_images() {
        let w = FaultWorkload::standard(CampaignConfig::default());
        let store = VerdictStore::in_memory(true);
        let _ = run_campaign(&w, &CampaignOptions::smoke(), &store).unwrap();
        // running the identical campaign again must answer everything
        // from the digest store
        let before = store.misses();
        let _ = run_campaign(&w, &CampaignOptions::smoke(), &store).unwrap();
        assert_eq!(store.misses(), before, "second identical run re-classified images");
        assert!(store.hits() > 0);
    }
}
