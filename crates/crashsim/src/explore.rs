//! Crash-point enumeration, image materialisation and classification.
//!
//! For a recorded trace of `W` writes the explorer considers:
//!
//! * every **write prefix** — power fails after exactly `k` writes,
//!   `k = 0..=W`;
//! * a **torn** variant of each prefix's final write — the interrupted
//!   write persisted only its first half;
//! * **volatile-cache** variants — writes issued after the last flush
//!   barrier are dropped, except the most recent one, which the cache
//!   evicted out of order. This is the scenario the journal's flush
//!   barriers exist to prevent: a commit record persisting before the
//!   data it seals.
//!
//! Each image is judged with the real (simulated) recovery stack:
//! `e2fsck -n -f`, then `e2fsck -y -f` with a backup-superblock
//! fallback, then a read-only mount and a durable-data audit.
//!
//! # Engine
//!
//! Materialisation is **incremental** by default: one rolling
//! [`CowDevice`] advances write-by-write (O(W) block writes for the
//! whole trace) and every crash point freezes a copy-on-write
//! [`CowDevice::snapshot`] instead of replaying its prefix from
//! scratch (O(W²) in total). Every engine then resolves its crash
//! points through one step on the campaign driver,
//! [`conpool::map_unique`]: points are keyed by image content digest
//! plus the applicable durability expectations
//! ([`ExploreOptions::verdict_cache`]), so torn and reordered variants
//! that collapse to byte-identical images reach the recovery stack
//! once; each class representative is answered from the persistent
//! store ([`ExploreOptions::store`]) or classified on the worker pool
//! ([`ExploreOptions::threads`]), and the merge is in enumeration
//! order. The legacy full-replay engine survives as
//! [`ExploreOptions::sequential_baseline`] — the benchmark's reference
//! point — and produces an identical report.

use std::collections::HashMap;
use std::sync::Arc;

use blockdev::{
    block_contribution, digest_device, fnv1a, BlockDevice, CowDevice, DeviceError, ImageDigest,
    IoEvent, IoStats, MemDevice, StatsDevice, VerdictStore, FNV_OFFSET_BASIS,
};
use conpool::{effective_threads, map_unique};
use e2fstools::{E2fsck, FsckMode};
use ext4sim::{Ext4Fs, InodeNo, MountOptions};

use crate::report::{CrashKind, CrashOutcome, CrashReport, ExploreStats, OutcomeCore, Verdict};
use crate::workloads::Workload;

/// Which crash models to enumerate, how densely, and how the engine
/// materialises and classifies the images.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Add a torn variant of each explored prefix's final write.
    pub torn_writes: bool,
    /// Add out-of-order volatile-cache variants.
    pub volatile_cache: bool,
    /// Cap on the number of prefix points (evenly sampled, always
    /// including the empty and the complete prefix). `None` explores
    /// every prefix; caps below 2 are clamped to 2, since the two
    /// endpoints are always kept.
    pub max_prefix_points: Option<usize>,
    /// Classification worker threads: `1` runs inline and sequential,
    /// `0` uses one worker per available core.
    pub threads: usize,
    /// Memoise classification verdicts by image content digest, so
    /// byte-identical crash images are classified once.
    pub verdict_cache: bool,
    /// Materialise images with the rolling copy-on-write engine (O(W)
    /// block writes in total). `false` falls back to the legacy
    /// full-prefix replay (O(W²) block writes), kept as the benchmark
    /// baseline and for equivalence testing.
    pub incremental: bool,
    /// Also enumerate *interior* volatile-cache reorderings
    /// ([`CrashKind::ReorderedWrite`]): at every explored crash point,
    /// each post-barrier write may be the one the cache evicted out of
    /// order — not just the most recent one. This multiplies the
    /// schedule count per flush epoch (≈ n²/2 schedules for n writes)
    /// and is what the partial-order reduction collapses back down.
    pub deep_reorder: bool,
    /// Plan schedules with the partial-order reduction: image digests
    /// are computed directly from the recorded trace (every write
    /// carries its pre-image, and the digest is a commutative per-block
    /// sum), schedules whose digest + durability contract match an
    /// already-planned representative are pruned before any
    /// materialisation, and only class representatives are ever built
    /// and classified.
    pub por: bool,
    /// Persistent cross-run verdict store shared with faultsim
    /// ([`VerdictStore`]); verdicts found here skip materialisation and
    /// classification entirely, and fresh verdicts are written back.
    pub store: Option<Arc<VerdictStore<OutcomeCore>>>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            torn_writes: true,
            volatile_cache: true,
            max_prefix_points: None,
            threads: 1,
            verdict_cache: true,
            incremental: true,
            deep_reorder: false,
            por: false,
            store: None,
        }
    }
}

impl ExploreOptions {
    /// A cheaper configuration for large traces: at most `points`
    /// prefixes, with both extra crash models still on.
    pub fn sampled(points: usize) -> Self {
        ExploreOptions { max_prefix_points: Some(points), ..ExploreOptions::default() }
    }

    /// Classifies on `threads` workers (0 = one per available core).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The pre-optimisation engine: single-threaded, no verdict cache,
    /// and every image replayed in full from the pre-workload state.
    /// The benchmark measures the rolling engine against this.
    pub fn sequential_baseline() -> Self {
        ExploreOptions {
            threads: 1,
            verdict_cache: false,
            incremental: false,
            ..ExploreOptions::default()
        }
    }

    /// The corpus-scale configuration: deep reordering enumerated,
    /// partial-order reduction on, one classification worker per core.
    /// Attach a persistent store with [`ExploreOptions::with_store`].
    pub fn corpus() -> Self {
        ExploreOptions { deep_reorder: true, por: true, threads: 0, ..ExploreOptions::default() }
    }

    /// Attaches a persistent cross-run verdict store.
    #[must_use]
    pub fn with_store(mut self, store: Arc<VerdictStore<OutcomeCore>>) -> Self {
        self.store = Some(store);
        self
    }
}

/// Explores every enumerated crash point of `workload` and classifies
/// each post-crash image.
///
/// The report's outcome list is independent of the engine
/// configuration: parallel, cached and incremental runs produce the
/// same outcomes in the same order as the sequential replay baseline.
/// Only [`CrashReport::stats`] reflects the engine used.
///
/// # Errors
///
/// Propagates device errors from materialising crash images (out of
/// range writes in a malformed trace; not produced by the built-in
/// workloads).
pub fn explore(workload: &Workload, opts: &ExploreOptions) -> Result<CrashReport, DeviceError> {
    let threads = effective_threads(opts.threads);
    let mut stats = ExploreStats {
        flushes_observed: workload.trace.flush_count(),
        threads,
        ..ExploreStats::default()
    };
    let outcomes = if opts.por {
        explore_por(workload, opts, threads, &mut stats)?
    } else if opts.incremental {
        let jobs = materialize_incremental(workload, opts, &mut stats)?;
        classify_all(jobs, workload, opts, threads, &mut stats)?
    } else {
        let jobs = materialize_replay(workload, opts, &mut stats)?;
        classify_all(jobs, workload, opts, threads, &mut stats)?
    };
    stats.crash_points = outcomes.len();
    Ok(CrashReport {
        workload: workload.name.clone(),
        writes: workload.trace.write_count(),
        flushes: workload.trace.flush_count(),
        outcomes,
        stats,
    })
}

/// The prefix lengths to explore: all of `0..=writes`, or an even
/// sample of at most `cap` of them that keeps both endpoints (`cap` is
/// clamped to 2, the endpoints themselves).
fn prefix_points(writes: usize, cap: Option<usize>) -> Vec<usize> {
    match cap {
        Some(max) => {
            let max = max.max(2);
            if writes + 1 > max {
                let mut ks: Vec<usize> = (0..max).map(|i| i * writes / (max - 1)).collect();
                ks.dedup();
                ks
            } else {
                (0..=writes).collect()
            }
        }
        None => (0..=writes).collect(),
    }
}

/// `durable[k]` = writes guaranteed durable when power fails just after
/// write `k` (the write count at the last preceding flush barrier).
fn durable_counts(workload: &Workload) -> Vec<usize> {
    let mut out = vec![0usize; workload.trace.write_count() + 1];
    let mut seen = 0usize;
    let mut durable = 0usize;
    for event in workload.trace.events() {
        match event {
            IoEvent::Flush => durable = seen,
            IoEvent::Write { .. } => {
                seen += 1;
                out[seen] = durable;
            }
        }
    }
    out
}

/// The `n`-th write of the trace (1-based): `(block, data, pre)`.
fn nth_write(workload: &Workload, n: usize) -> (u64, &[u8], &[u8]) {
    let mut seen = 0usize;
    for event in workload.trace.events() {
        if let IoEvent::Write { block, data, pre } = event {
            seen += 1;
            if seen == n {
                return (*block, data, pre);
            }
        }
    }
    panic!("trace has no write #{n}");
}

/// The first-half-persisted image of write `n`: the recorded pre-image
/// with the new data's first `persisted` bytes laid over it.
fn torn_bytes(data: &[u8], pre: &[u8], persisted: usize) -> Vec<u8> {
    let mut torn = pre.to_vec();
    torn[..persisted].copy_from_slice(&data[..persisted]);
    torn
}

// ---------------------------------------------------------------------
// materialisation
// ---------------------------------------------------------------------

/// Folds one materialisation device's I/O counters into the run stats.
fn absorb_io(stats: &mut ExploreStats, io: IoStats) {
    stats.blocks_replayed += io.writes;
    stats.blocks_read += io.reads;
    stats.bulk_reads += io.bulk_reads;
    stats.bulk_writes += io.bulk_writes;
    stats.vec_allocs += io.vec_allocs;
}

/// Incremental engine: one rolling CoW device advances write-by-write;
/// each crash point freezes a snapshot (plus at most one extra block
/// write for torn/volatile variants). Total cost is O(W) block writes
/// for the whole enumeration.
fn materialize_incremental(
    workload: &Workload,
    opts: &ExploreOptions,
    stats: &mut ExploreStats,
) -> Result<Vec<(CrashKind, CowDevice)>, DeviceError> {
    let writes = workload.trace.write_count();
    let points = prefix_points(writes, opts.max_prefix_points);
    let mut next_point = points.iter().copied().peekable();
    let mut jobs: Vec<(CrashKind, CowDevice)> = Vec::new();

    let mut rolling = StatsDevice::new(CowDevice::from_device(&workload.pre)?);
    let pre_snap = rolling.inner().snapshot();
    // the state at the last flush barrier: the base every volatile-cache
    // variant is built on
    let mut durable_snap: Option<CowDevice> = None;
    let mut durable = 0usize;
    let mut done = 0usize;
    // writes issued since the last flush barrier, for deep reordering:
    // any of them may be the out-of-order straggler
    let mut epoch_writes: Vec<(usize, u64, &[u8])> = Vec::new();

    if next_point.peek() == Some(&0) {
        next_point.next();
        jobs.push((CrashKind::Prefix { writes: 0 }, rolling.inner().snapshot()));
    }
    for event in workload.trace.events() {
        match event {
            IoEvent::Flush => {
                durable = done;
                durable_snap = Some(rolling.inner().snapshot());
                epoch_writes.clear();
            }
            IoEvent::Write { block, data, pre } => {
                let k = done + 1;
                let explored = next_point.peek() == Some(&k);
                // the torn variant needs the k-1 state: snapshot before
                // the rolling device absorbs write k
                let mut torn_job = None;
                if explored && opts.torn_writes {
                    let persisted = data.len() / 2;
                    let mut dev = StatsDevice::new(rolling.inner().snapshot());
                    dev.write_block(*block, &torn_bytes(data, pre, persisted))?;
                    absorb_io(stats, dev.stats());
                    torn_job =
                        Some((CrashKind::TornWrite { write: k, persisted }, dev.into_inner()));
                }
                rolling.write_block(*block, data)?;
                epoch_writes.push((k, *block, data.as_slice()));
                done = k;
                if explored {
                    next_point.next();
                    jobs.push((CrashKind::Prefix { writes: k }, rolling.inner().snapshot()));
                    if let Some(job) = torn_job {
                        jobs.push(job);
                    }
                    let base = durable_snap.as_ref().unwrap_or(&pre_snap);
                    // deep reordering: every *interior* post-barrier
                    // write may be the straggler the cache evicted
                    if opts.deep_reorder {
                        for &(s, s_block, s_data) in &epoch_writes {
                            if s <= durable || s >= k {
                                continue;
                            }
                            let mut dev = StatsDevice::new(base.snapshot());
                            dev.write_block(s_block, s_data)?;
                            absorb_io(stats, dev.stats());
                            jobs.push((
                                CrashKind::ReorderedWrite { durable, straggler: s, crashed_at: k },
                                dev.into_inner(),
                            ));
                        }
                    }
                    // only interesting when the straggler actually jumps
                    // a queue: with durable == k-1 the image equals the
                    // plain prefix
                    if opts.volatile_cache && durable + 1 < k {
                        let mut dev = StatsDevice::new(base.snapshot());
                        dev.write_block(*block, data)?;
                        absorb_io(stats, dev.stats());
                        jobs.push((
                            CrashKind::VolatileCache { durable, straggler: k },
                            dev.into_inner(),
                        ));
                    }
                }
            }
        }
    }
    absorb_io(stats, rolling.stats());
    Ok(jobs)
}

/// Legacy engine: every image is replayed in full from the pre-workload
/// state — O(k) block writes per crash point, O(W²) in total. Kept as
/// the benchmark baseline and the equivalence-test reference.
fn materialize_replay(
    workload: &Workload,
    opts: &ExploreOptions,
    stats: &mut ExploreStats,
) -> Result<Vec<(CrashKind, MemDevice)>, DeviceError> {
    let writes = workload.trace.write_count();
    let durable = durable_counts(workload);
    let mut jobs: Vec<(CrashKind, MemDevice)> = Vec::new();
    let replay = |prefix: usize,
                  straggler: Option<(u64, Vec<u8>)>,
                  stats: &mut ExploreStats|
     -> Result<MemDevice, DeviceError> {
        let mut dev = StatsDevice::new(workload.pre.clone());
        workload.trace.apply_prefix(&mut dev, prefix)?;
        if let Some((block, data)) = straggler {
            dev.write_block(block, &data)?;
        }
        absorb_io(stats, dev.stats());
        Ok(dev.into_inner())
    };
    for k in prefix_points(writes, opts.max_prefix_points) {
        jobs.push((CrashKind::Prefix { writes: k }, replay(k, None, stats)?));
        if k == 0 {
            continue;
        }
        if opts.torn_writes {
            let (block, data, pre) = nth_write(workload, k);
            let persisted = data.len() / 2;
            jobs.push((
                CrashKind::TornWrite { write: k, persisted },
                replay(k - 1, Some((block, torn_bytes(data, pre, persisted))), stats)?,
            ));
        }
        if opts.deep_reorder {
            for s in durable[k] + 1..k {
                let (block, data, _) = nth_write(workload, s);
                jobs.push((
                    CrashKind::ReorderedWrite { durable: durable[k], straggler: s, crashed_at: k },
                    replay(durable[k], Some((block, data.to_vec())), stats)?,
                ));
            }
        }
        if opts.volatile_cache && durable[k] + 1 < k {
            let (block, data, _) = nth_write(workload, k);
            jobs.push((
                CrashKind::VolatileCache { durable: durable[k], straggler: k },
                replay(durable[k], Some((block, data.to_vec())), stats)?,
            ));
        }
    }
    Ok(jobs)
}

// ---------------------------------------------------------------------
// classification
// ---------------------------------------------------------------------

/// A crash image with a content identity — what the verdict cache and
/// the classification pool operate on.
trait CrashImage: BlockDevice + Clone + Send {
    fn content_digest(&self) -> ImageDigest;
    /// Called once the image's identity has been taken and only repair
    /// writes remain; lets the device drop bookkeeping it no longer
    /// needs (digest upkeep on [`CowDevice`]).
    fn freeze_identity(&mut self) {}
}

impl CrashImage for CowDevice {
    fn content_digest(&self) -> ImageDigest {
        self.digest().expect("materialized crash images track their digest")
    }

    fn freeze_identity(&mut self) {
        self.stop_digest_tracking();
    }
}

impl CrashImage for MemDevice {
    fn content_digest(&self) -> ImageDigest {
        digest_device(self).expect("in-range scan of an in-memory device")
    }
}

/// Indices of the durability expectations covered by a crash point
/// guaranteeing `guaranteed` writes. Classification depends on the
/// crash kind *only* through this set, so it is the second half of the
/// verdict-cache key: byte-identical images under the same applicable
/// set always share a verdict.
fn applicable_expectations(workload: &Workload, guaranteed: usize) -> Vec<u16> {
    workload
        .expectations
        .iter()
        .enumerate()
        .filter(|(_, e)| e.durable_after <= guaranteed)
        .map(|(i, _)| i as u16)
        .collect()
}

/// The context half of a persistent-store key: a crash image's verdict
/// depends on the image bytes *and* on what recovery is asked to check —
/// block size, backup-superblock candidates, and the exact contents of
/// the applicable durability expectations. Hashing them into the key
/// keeps verdicts from leaking between unrelated workloads that happen
/// to share an image digest.
fn store_extra(workload: &Workload, applicable: &[u16]) -> u64 {
    let mut h = fnv1a(FNV_OFFSET_BASIS, &workload.block_size.to_le_bytes());
    for &b in &workload.backup_superblocks {
        h = fnv1a(h, &b.to_le_bytes());
    }
    for &i in applicable {
        let e = &workload.expectations[i as usize];
        h = fnv1a(h, e.file.as_bytes());
        h = fnv1a(h, &[0]);
        h = fnv1a(h, &e.content);
        h = fnv1a(h, &[0xff]);
    }
    h
}

/// A crash point awaiting its verdict: how it was reached, its identity
/// (image digest plus applicable expectations; `None` when neither the
/// digest cache nor the store needs it), and what the engine classifies
/// it from.
type Point<J> = (CrashKind, Option<(ImageDigest, Vec<u16>)>, J);

/// Resolves crash points to outcomes on the campaign driver. With
/// `dedup`, points sharing an identity form one class and only its
/// first point is resolved. Each resolved point is answered from the
/// persistent store when it holds the verdict, else `classify`d (and
/// the fresh verdict written back). Every point then takes its class's
/// verdict, in enumeration order.
fn resolve<J: Send>(
    points: Vec<Point<J>>,
    dedup: bool,
    workload: &Workload,
    opts: &ExploreOptions,
    threads: usize,
    stats: &mut ExploreStats,
    classify: impl Fn(CrashKind, J) -> Result<(OutcomeCore, IoStats), DeviceError> + Sync,
) -> Result<Vec<CrashOutcome>, DeviceError> {
    let kinds: Vec<CrashKind> = points.iter().map(|p| p.0).collect();
    let store = opts.store.as_deref();
    let (classes, slots) = map_unique(
        points,
        threads,
        |(_, identity, _)| if dedup { identity.clone() } else { None },
        |(kind, identity, job)| -> Result<(OutcomeCore, Option<IoStats>), DeviceError> {
            let store = store.zip(identity).map(|(store, (digest, applicable))| {
                (store, (digest, store_extra(workload, &applicable)))
            });
            if let Some(hit) = store.and_then(|(store, key)| store.lookup(key)) {
                return Ok((hit, None));
            }
            let (core, io) = classify(kind, job)?;
            if let Some((store, key)) = store {
                store.insert(key, core.clone());
            }
            Ok((core, Some(io)))
        },
    );
    let classes = classes.into_iter().collect::<Result<Vec<_>, _>>()?;
    stats.cache_hits += kinds.len() - classes.len();
    for io in classes.iter().filter_map(|&(_, io)| io) {
        stats.images_classified += 1;
        absorb_io(stats, io);
    }
    if opts.store.is_some() {
        stats.store_hits += classes.len() - stats.images_classified;
        stats.store_misses += stats.images_classified;
    }
    Ok(kinds
        .into_iter()
        .zip(slots)
        .map(|(kind, slot)| classes[slot].0.clone().into_outcome(kind))
        .collect())
}

/// Classifies materialised images, keyed by content digest whenever the
/// digest cache or the persistent store needs an identity.
fn classify_all<D: CrashImage>(
    jobs: Vec<(CrashKind, D)>,
    workload: &Workload,
    opts: &ExploreOptions,
    threads: usize,
    stats: &mut ExploreStats,
) -> Result<Vec<CrashOutcome>, DeviceError> {
    let want_identity = opts.verdict_cache || opts.store.is_some();
    let points = jobs
        .into_iter()
        .map(|(kind, image)| {
            let identity = want_identity.then(|| {
                (
                    image.content_digest(),
                    applicable_expectations(workload, kind.guaranteed_writes()),
                )
            });
            (kind, identity, image)
        })
        .collect();
    resolve(points, opts.verdict_cache, workload, opts, threads, stats, |kind, mut image| {
        image.freeze_identity();
        Ok((classify_image(image, workload, kind.guaranteed_writes()), IoStats::default()))
    })
}

// ---------------------------------------------------------------------
// partial-order reduction
// ---------------------------------------------------------------------

/// Plans the full crash-schedule enumeration straight from the recorded
/// trace, attaching to every schedule the exact content digest of the
/// image it would materialise — without materialising anything.
///
/// This is what makes the partial-order reduction sound rather than
/// heuristic: every [`IoEvent::Write`] records both its data and the
/// block's pre-image, and [`ImageDigest`] is a *commutative* per-block
/// sum, so the digest of any schedule's image is computable by rolling
/// contribution replacement. Two schedules whose writes commute (they
/// touch distinct blocks with no flush barrier ordering them) sum to
/// the same digest by construction — the digest itself is the canonical
/// class representative.
fn plan_schedules(
    workload: &Workload,
    opts: &ExploreOptions,
) -> Result<Vec<(CrashKind, ImageDigest)>, DeviceError> {
    let writes = workload.trace.write_count();
    let points = prefix_points(writes, opts.max_prefix_points);
    let mut next_point = points.iter().copied().peekable();
    let mut plan: Vec<(CrashKind, ImageDigest)> = Vec::new();

    // rolling digest of the strict write-prefix image
    let mut cur = digest_device(&workload.pre)?;
    // digest of the image at the last flush barrier
    let mut durable_digest = cur;
    // per-block contribution *at the barrier* for blocks written since:
    // recorded at each block's first post-barrier write, when its
    // pre-image still is the barrier-time content
    let mut barrier_contribution: HashMap<u64, blockdev::BlockContribution> = HashMap::new();
    // writes issued since the barrier: (write number, block, new contribution)
    let mut epoch_writes: Vec<(usize, u64, blockdev::BlockContribution)> = Vec::new();
    let mut durable = 0usize;
    let mut done = 0usize;

    if next_point.peek() == Some(&0) {
        next_point.next();
        plan.push((CrashKind::Prefix { writes: 0 }, cur));
    }
    for event in workload.trace.events() {
        match event {
            IoEvent::Flush => {
                durable = done;
                durable_digest = cur;
                barrier_contribution.clear();
                epoch_writes.clear();
            }
            IoEvent::Write { block, data, pre } => {
                let k = done + 1;
                let old = block_contribution(*block, pre);
                let new = block_contribution(*block, data);
                let explored = next_point.peek() == Some(&k);
                let torn = if explored && opts.torn_writes {
                    let persisted = data.len() / 2;
                    let mut d = cur;
                    d.replace(old, block_contribution(*block, &torn_bytes(data, pre, persisted)));
                    Some((persisted, d))
                } else {
                    None
                };
                barrier_contribution.entry(*block).or_insert(old);
                cur.replace(old, new);
                epoch_writes.push((k, *block, new));
                done = k;
                if explored {
                    next_point.next();
                    plan.push((CrashKind::Prefix { writes: k }, cur));
                    if let Some((persisted, d)) = torn {
                        plan.push((CrashKind::TornWrite { write: k, persisted }, d));
                    }
                    // straggler images: the barrier-time image with one
                    // post-barrier write applied on top
                    let straggler_digest = |s_block: u64, s_new: blockdev::BlockContribution| {
                        let mut d = durable_digest;
                        let at_barrier = barrier_contribution
                            .get(&s_block)
                            .copied()
                            .unwrap_or_else(|| panic!("straggler block {s_block} untracked"));
                        d.replace(at_barrier, s_new);
                        d
                    };
                    if opts.deep_reorder {
                        for &(s, s_block, s_new) in &epoch_writes {
                            if s <= durable || s >= k {
                                continue;
                            }
                            plan.push((
                                CrashKind::ReorderedWrite { durable, straggler: s, crashed_at: k },
                                straggler_digest(s_block, s_new),
                            ));
                        }
                    }
                    if opts.volatile_cache && durable + 1 < k {
                        plan.push((
                            CrashKind::VolatileCache { durable, straggler: k },
                            straggler_digest(*block, new),
                        ));
                    }
                }
            }
        }
    }
    Ok(plan)
}

/// The replay recipe for one planned schedule: the write prefix to
/// apply and the optional out-of-order straggler on top.
fn replay_recipe(workload: &Workload, kind: CrashKind) -> (usize, Option<(u64, Vec<u8>)>) {
    match kind {
        CrashKind::Prefix { writes } => (writes, None),
        CrashKind::TornWrite { write, persisted } => {
            let (block, data, pre) = nth_write(workload, write);
            (write - 1, Some((block, torn_bytes(data, pre, persisted))))
        }
        CrashKind::VolatileCache { durable, straggler }
        | CrashKind::ReorderedWrite { durable, straggler, .. } => {
            let (block, data, _) = nth_write(workload, straggler);
            (durable, Some((block, data.to_vec())))
        }
    }
}

/// The partial-order-reduction engine: plans every schedule's digest
/// from the trace, prunes schedules whose (digest, durability contract)
/// class already has a representative, answers classes from the
/// persistent store where possible, and only materialises + classifies
/// the remaining class representatives.
fn explore_por(
    workload: &Workload,
    opts: &ExploreOptions,
    threads: usize,
    stats: &mut ExploreStats,
) -> Result<Vec<CrashOutcome>, DeviceError> {
    let points = plan_schedules(workload, opts)?
        .into_iter()
        .map(|(kind, digest)| {
            let applicable = applicable_expectations(workload, kind.guaranteed_writes());
            (kind, Some((digest, applicable)), digest)
        })
        .collect();
    // a fully store-warm run never calls `classify`, so it never
    // touches the device layer at all
    let outcomes = resolve(points, true, workload, opts, threads, stats, |kind, digest| {
        let (prefix, straggler) = replay_recipe(workload, kind);
        let mut dev = StatsDevice::new(workload.pre.clone());
        workload.trace.apply_prefix(&mut dev, prefix)?;
        if let Some((block, data)) = straggler {
            dev.write_block(block, &data)?;
        }
        let io = dev.stats();
        let image = dev.into_inner();
        debug_assert_eq!(
            digest_device(&image)?,
            digest,
            "trace-planned digest must match the materialised image ({kind:?})"
        );
        let _ = digest;
        Ok((classify_image(image, workload, kind.guaranteed_writes()), io))
    })?;
    stats.schedules_pruned = stats.cache_hits;
    stats.por_classes = outcomes.len() - stats.schedules_pruned;
    Ok(outcomes)
}

/// Result of the read-only remount plus durable-data audit.
enum DataCheck {
    Ok,
    Missing(String),
    Unmountable(String),
}

fn check_mount_and_data<D: BlockDevice>(
    dev: D,
    workload: &Workload,
    guaranteed: usize,
) -> DataCheck {
    let fs = match Ext4Fs::mount(dev, &MountOptions::read_only()) {
        Ok(fs) => fs,
        Err(e) => return DataCheck::Unmountable(e.to_string()),
    };
    let root = fs.root_inode();
    for exp in &workload.expectations {
        if exp.durable_after > guaranteed {
            continue; // not yet covered by a flush at this crash point
        }
        match fs.lookup(root, &exp.file) {
            Ok(Some(entry)) => match fs.read_file_to_vec(InodeNo(entry.inode)) {
                Ok(data) if data == exp.content => {}
                Ok(_) => {
                    return DataCheck::Missing(format!("durable file '{}' content differs", exp.file))
                }
                Err(e) => {
                    return DataCheck::Missing(format!("durable file '{}' unreadable: {e}", exp.file))
                }
            },
            Ok(None) => return DataCheck::Missing(format!("durable file '{}' missing", exp.file)),
            Err(e) => {
                return DataCheck::Missing(format!("lookup of durable file '{}' failed: {e}", exp.file))
            }
        }
    }
    DataCheck::Ok
}

fn core(
    verdict: Verdict,
    fsck_exit: Option<i32>,
    fixes: usize,
    used_backup_superblock: bool,
    detail: String,
) -> OutcomeCore {
    OutcomeCore { verdict, fsck_exit, fixes, used_backup_superblock, detail }
}

/// Classifies one materialised crash image. Takes the image by value:
/// the `-n` probe lends it out and gets it back untouched, and each
/// repair attempt makes at most one copy (a cheap CoW snapshot on the
/// incremental engine).
fn classify_image<D: BlockDevice + Clone>(
    img: D,
    workload: &Workload,
    guaranteed: usize,
) -> OutcomeCore {
    // an untouched copy left over from the probe, consumed by the first
    // repair attempt so the probe and that attempt share one copy
    let mut spare: Option<D> = None;

    // 1. already consistent? `e2fsck -n -f` must find nothing AND the
    // image must mount with its durable data intact
    match E2fsck::with_mode(FsckMode::Check).forced().run(img.clone()) {
        Ok((dev, res)) if res.exit_code == 0 => {
            match check_mount_and_data(dev, workload, guaranteed) {
                DataCheck::Ok => {
                    return core(
                        Verdict::Consistent,
                        Some(0),
                        0,
                        false,
                        "clean without repair".to_string(),
                    )
                }
                DataCheck::Missing(what) => {
                    return core(
                        Verdict::DataLoss,
                        Some(0),
                        0,
                        false,
                        format!("image checks clean but {what}"),
                    )
                }
                // clean yet unmountable: fall through to the repair path
                DataCheck::Unmountable(_) => {}
            }
        }
        // `-n` leaves the image untouched, so the returned device is
        // still pristine — reuse it instead of cloning again
        Ok((dev, _)) => spare = Some(dev),
        Err(_) => {}
    }

    // 2. repair: primary superblock first, then each backup candidate
    let mut attempts: Vec<Option<u64>> = vec![None];
    attempts.extend(workload.backup_superblocks.iter().map(|&b| Some(b)));
    let mut last_failure = "image not recognisable as a file system".to_string();
    for attempt in attempts {
        let mut fsck = E2fsck::with_mode(FsckMode::Fix).forced();
        if let Some(block) = attempt {
            fsck = fsck.with_backup_superblock(block, workload.block_size);
        }
        let target = spare.take().unwrap_or_else(|| img.clone());
        let (dev, res) = match fsck.run(target) {
            Ok(pair) => pair,
            Err(e) => {
                last_failure = e.to_string();
                continue;
            }
        };
        let mut fixes = res.fixes.len();
        let mut exit = res.exit_code;
        let mut dev = dev;
        if exit == 4 {
            // structural repairs can expose counter drift; give the
            // tool the customary second pass
            match E2fsck::with_mode(FsckMode::Fix).forced().run(dev) {
                Ok((d, second)) => {
                    fixes += second.fixes.len();
                    exit = second.exit_code;
                    dev = d;
                }
                Err(e) => {
                    last_failure = e.to_string();
                    continue;
                }
            }
        }
        if exit == 4 {
            last_failure = "errors left uncorrected after two fsck passes".to_string();
            continue;
        }
        // verify the repair took
        let (dev, verify) = match E2fsck::with_mode(FsckMode::Check).forced().run(dev) {
            Ok(pair) => pair,
            Err(e) => {
                last_failure = e.to_string();
                continue;
            }
        };
        if verify.exit_code != 0 {
            last_failure = "repaired image still fails a forced check".to_string();
            continue;
        }
        let used_backup = attempt.is_some();
        let via = match attempt {
            Some(block) => format!(" via backup superblock at block {block}"),
            None => String::new(),
        };
        match check_mount_and_data(dev, workload, guaranteed) {
            DataCheck::Ok => {
                return core(
                    Verdict::Repairable,
                    Some(exit),
                    fixes,
                    used_backup,
                    format!("repaired with {fixes} fix(es){via}"),
                )
            }
            DataCheck::Missing(what) => {
                return core(
                    Verdict::DataLoss,
                    Some(exit),
                    fixes,
                    used_backup,
                    format!("repaired{via}, but {what}"),
                )
            }
            DataCheck::Unmountable(e) => {
                last_failure = format!("repaired image does not mount: {e}");
                continue;
            }
        }
    }

    core(Verdict::Unrecoverable, None, 0, false, last_failure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{figure1_resize_workload, journaled_write_workload, Workload};
    use blockdev::RecordingDevice;
    use contest_helpers::*;

    // small helpers shared by the tests below
    mod contest_helpers {
        use super::*;
        use e2fstools::Mke2fs;

        /// A clean sparse_super image (backups in group 1 and 3).
        pub fn clean_image() -> MemDevice {
            let m = Mke2fs::from_args(&["-b", "1024", "/dev/t", "12288"]).unwrap();
            m.run(MemDevice::new(1024, 16384)).unwrap().0
        }
    }

    #[test]
    fn prefix_points_sampling_keeps_endpoints() {
        assert_eq!(prefix_points(4, None), vec![0, 1, 2, 3, 4]);
        assert_eq!(prefix_points(4, Some(10)), vec![0, 1, 2, 3, 4]);
        let sampled = prefix_points(100, Some(5));
        assert_eq!(sampled.first(), Some(&0));
        assert_eq!(sampled.last(), Some(&100));
        assert_eq!(sampled.len(), 5);
    }

    #[test]
    fn prefix_points_tiny_caps_clamp_to_endpoints() {
        // caps below 2 cannot honour "at most `points`" and keep both
        // endpoints; they clamp to exactly the endpoints
        assert_eq!(prefix_points(100, Some(0)), vec![0, 100]);
        assert_eq!(prefix_points(100, Some(1)), vec![0, 100]);
        assert_eq!(prefix_points(100, Some(2)), vec![0, 100]);
        // degenerate traces still honour the bound
        assert_eq!(prefix_points(0, Some(0)), vec![0]);
        assert_eq!(prefix_points(1, Some(1)), vec![0, 1]);
    }

    #[test]
    fn durable_counts_track_flush_barriers() {
        let mut rec = RecordingDevice::new(MemDevice::new(512, 8));
        rec.write_block(0, &[1u8; 512]).unwrap();
        rec.write_block(1, &[2u8; 512]).unwrap();
        rec.flush().unwrap();
        rec.write_block(2, &[3u8; 512]).unwrap();
        let (_, trace) = rec.into_parts();
        let w = Workload {
            name: "t".to_string(),
            pre: MemDevice::new(512, 8),
            trace,
            block_size: 512,
            expectations: Vec::new(),
            backup_superblocks: Vec::new(),
        };
        assert_eq!(durable_counts(&w), vec![0, 0, 0, 2]);
    }

    #[test]
    fn garbage_trace_on_blank_device_is_unrecoverable() {
        let mut rec = RecordingDevice::new(MemDevice::new(1024, 64));
        rec.write_block(0, &[0xFFu8; 1024]).unwrap();
        let (_, trace) = rec.into_parts();
        let w = Workload {
            name: "garbage".to_string(),
            pre: MemDevice::new(1024, 64),
            trace,
            block_size: 1024,
            expectations: Vec::new(),
            backup_superblocks: Vec::new(),
        };
        let report = explore(&w, &ExploreOptions::default()).unwrap();
        assert!(report.outcomes.iter().all(|o| o.verdict == Verdict::Unrecoverable));
    }

    #[test]
    fn overwritten_primary_superblock_recovers_from_backup() {
        // the traced "workload" wipes block 1 (the primary superblock)
        let pre = clean_image();
        let mut rec = RecordingDevice::new(pre.clone());
        rec.write_block(1, &vec![0u8; 1024]).unwrap();
        let (_, trace) = rec.into_parts();
        let w = Workload {
            name: "sb-wipe".to_string(),
            pre,
            trace,
            block_size: 1024,
            expectations: Vec::new(),
            backup_superblocks: vec![8193],
        };
        let report = explore(&w, &ExploreOptions::default()).unwrap();
        // prefix 1 = superblock gone; must come back via block 8193
        let wiped = report
            .outcomes
            .iter()
            .find(|o| matches!(o.kind, CrashKind::Prefix { writes: 1 }))
            .expect("prefix 1 explored");
        assert_eq!(wiped.verdict, Verdict::Repairable, "{}", wiped.detail);
        assert!(wiped.used_backup_superblock, "{}", wiped.detail);
    }

    #[test]
    fn journaled_prefixes_never_lose_the_file_system() {
        let files = vec![("steady".to_string(), vec![7u8; 600])];
        let w = journaled_write_workload(&files).unwrap();
        let report = explore(&w, &ExploreOptions::default()).unwrap();
        assert!(report.writes > 0);
        for o in &report.outcomes {
            assert!(
                o.verdict <= Verdict::Repairable,
                "{:?} -> {:?}: {}",
                o.kind,
                o.verdict,
                o.detail
            );
        }
    }

    #[test]
    fn defrag_crashes_never_lose_durable_data() {
        // regression: the defragmenter must (a) publish the new block
        // mapping only after the copied data, with a flush barrier in
        // between, and (b) free the old blocks only after the publish —
        // otherwise prefix, torn and volatile-cache crash points all
        // surface the pre-existing files with wrong contents
        let w = crate::workloads::defrag_workload().unwrap();
        let report = explore(&w, &ExploreOptions::default()).unwrap();
        let counts = report.counts();
        assert_eq!(counts.data_loss, 0, "{:?}", counts);
        assert_eq!(counts.unrecoverable, 0, "{:?}", counts);
    }

    #[test]
    fn figure1_resize_has_corrupting_crash_points() {
        let w = figure1_resize_workload().unwrap();
        let report = explore(&w, &ExploreOptions::sampled(9)).unwrap();
        assert!(report.corrupting() >= 1, "counts: {:?}", report.counts());
        // the *completed* resize is itself corrupt (the Figure 1 bug):
        let full = report
            .outcomes
            .iter()
            .find(|o| matches!(o.kind, CrashKind::Prefix { writes } if writes == report.writes))
            .expect("complete prefix explored");
        assert_ne!(full.verdict, Verdict::Consistent, "{}", full.detail);
    }

    #[test]
    fn engines_threads_and_cache_agree_exactly() {
        let files = vec![
            ("alpha".to_string(), vec![1u8; 700]),
            ("beta".to_string(), vec![2u8; 300]),
        ];
        let w = journaled_write_workload(&files).unwrap();
        let baseline = explore(&w, &ExploreOptions::sequential_baseline()).unwrap();
        let rolling = explore(
            &w,
            &ExploreOptions { threads: 1, verdict_cache: false, ..ExploreOptions::default() },
        )
        .unwrap();
        let cached_parallel =
            explore(&w, &ExploreOptions::default().with_threads(4)).unwrap();
        // identical outcome lists, in the same enumeration order
        let debug = |r: &CrashReport| {
            r.outcomes.iter().map(|o| format!("{o:?}")).collect::<Vec<_>>()
        };
        assert_eq!(debug(&baseline), debug(&rolling));
        assert_eq!(debug(&baseline), debug(&cached_parallel));
        // the rolling engine replays O(W) blocks where the baseline
        // replays O(W²)
        assert!(
            rolling.stats.blocks_replayed < baseline.stats.blocks_replayed,
            "rolling {} vs baseline {}",
            rolling.stats.blocks_replayed,
            baseline.stats.blocks_replayed
        );
        // journalled traces collapse many torn variants onto their
        // prefix images, so the cache must fire without changing a
        // single verdict
        assert!(cached_parallel.stats.cache_hits > 0, "{:?}", cached_parallel.stats);
        assert_eq!(
            cached_parallel.stats.images_classified + cached_parallel.stats.cache_hits,
            cached_parallel.outcomes.len()
        );
        assert_eq!(baseline.stats.cache_hits, 0);
        assert_eq!(cached_parallel.stats.threads, 4);
    }

    #[test]
    fn por_engine_matches_exhaustive_and_prunes() {
        let files = vec![
            ("alpha".to_string(), vec![1u8; 700]),
            ("beta".to_string(), vec![2u8; 300]),
        ];
        let w = journaled_write_workload(&files).unwrap();
        let deep = ExploreOptions { deep_reorder: true, ..ExploreOptions::default() };
        let exhaustive = explore(&w, &deep).unwrap();
        let por = explore(&w, &ExploreOptions { por: true, ..deep.clone() }).unwrap();
        // all three deep-reorder engines agree outcome-for-outcome, in
        // enumeration order
        let debug = |r: &CrashReport| {
            r.outcomes.iter().map(|o| format!("{o:?}")).collect::<Vec<_>>()
        };
        let baseline = explore(
            &w,
            &ExploreOptions { deep_reorder: true, ..ExploreOptions::sequential_baseline() },
        )
        .unwrap();
        assert_eq!(debug(&baseline), debug(&exhaustive));
        assert_eq!(debug(&exhaustive), debug(&por));
        // deep reordering enumerates interior stragglers
        assert!(
            exhaustive.outcomes.iter().any(|o| matches!(o.kind, CrashKind::ReorderedWrite { .. })),
            "deep reorder enumerated no interior stragglers"
        );
        // ... and POR collapses them without changing a verdict
        assert!(por.stats.schedules_pruned > 0, "{:?}", por.stats);
        assert_eq!(
            por.stats.por_classes + por.stats.schedules_pruned,
            por.outcomes.len(),
            "{:?}",
            por.stats
        );
        assert_eq!(por.stats.images_classified, por.stats.por_classes);
        assert_eq!(exhaustive.stats.schedules_pruned, 0);
        assert_eq!(exhaustive.stats.por_classes, 0);
    }

    #[test]
    fn store_warm_run_replays_nothing() {
        let files = vec![("alpha".to_string(), vec![1u8; 700])];
        let w = journaled_write_workload(&files).unwrap();
        let store = std::sync::Arc::new(VerdictStore::in_memory(true));
        let opts = ExploreOptions::corpus().with_threads(1).with_store(store.clone());
        let cold = explore(&w, &opts).unwrap();
        assert!(cold.stats.images_classified > 0);
        assert_eq!(cold.stats.store_hits, 0);
        assert_eq!(cold.stats.store_misses, cold.stats.por_classes);
        let warm = explore(&w, &opts).unwrap();
        assert_eq!(warm.stats.images_classified, 0, "warm run classified an image");
        assert_eq!(warm.stats.blocks_replayed, 0, "warm run touched the device layer");
        assert_eq!(warm.stats.store_hits, warm.stats.por_classes);
        assert_eq!(cold.canonical_signature(), warm.canonical_signature());
        assert_eq!(store.len(), cold.stats.por_classes);
    }
}
