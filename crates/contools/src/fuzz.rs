//! Coverage-guided constraint fuzzing — ConBugCk at corpus scale.
//!
//! The original ConBugCk generator ([`crate::conbugck`]) draws from
//! hard-coded value tables and measures success as its deep-code rate.
//! The fuzz campaign here turns that into a feedback loop driven by the
//! constraint layer itself:
//!
//! * **Coverage** is per-constraint *polarity* coverage: for every
//!   compiled constraint the campaign wants a configuration that
//!   satisfies it, one that violates it, and (for finite value ranges)
//!   one that sits exactly on a bound. The achievable universe comes
//!   from [`Solver::targets`].
//! * **Seeding**: each round starts by asking the solver for a witness
//!   of every still-uncovered `(constraint, polarity)` target, so the
//!   solver-guided strategy reaches full polarity coverage by
//!   construction.
//! * **Mutation**: deep-reaching or coverage-contributing states enter
//!   a bounded corpus; later rounds mutate corpus members through the
//!   solver's boundary-derived value pools (range bounds ± 1, registry
//!   enum members, feature toggles) instead of the legacy tables.
//! * **Memoization**: candidates already given a verdict in an earlier
//!   round are dropped, each round's batch runs on the campaign driver
//!   [`conpool::map_unique`] keyed by [`Harness::state_id`], and
//!   verdicts are memoized in a [`VerdictStore`] keyed by the canonical
//!   state key — a persistent store makes campaigns incremental across
//!   processes (a warm rerun executes nothing and reproduces the cold
//!   verdicts bit for bit).
//!
//! Each distinct state runs the full mkfs → mount → workload → fsck
//! pipeline once, on the shared worker pool.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::Instant;

use blockdev::{fnv1a, store_context, ImageDigest, VerdictStore, FNV_OFFSET_BASIS};
use confdep::solve::{Polarity, SolvedConfig, Solver, SolverScope};
use confdep::{ConstraintSet, Verdict};
use e2fstools::typed::{TypedConfig, TypedValue};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::conbugck::{execute, ConBugCk, GeneratedConfig, RunDepth};

/// Store context tag: campaign semantics version. Bump on any change to
/// the executor or the state-key format.
const STORE_CONTEXT: &str = "conbugck/fuzz/v1";

/// Everything ecosystem-specific the fuzz loop needs: how a
/// [`GeneratedConfig`] is typed, executed, bred, and which solver scope
/// renders candidates. The campaign itself — seeding, dedup, the
/// verdict store, coverage accounting — is ecosystem-agnostic and runs
/// unchanged over any harness.
///
/// All fields are plain function pointers so a harness is a `'static`
/// value with no captured state; [`Harness::ext4`] reproduces the
/// original single-ecosystem campaign bit for bit (same store context,
/// same state fingerprints, same RNG consumption).
pub struct Harness {
    /// Ecosystem label (`"ext4"`, `"f2fs"`).
    pub name: &'static str,
    /// Verdict-store context tag; distinct per ecosystem so memoized
    /// verdicts can never cross substrates.
    pub store_context: &'static str,
    /// The solver scope generating and rendering candidates.
    pub scope: fn() -> SolverScope,
    /// The lenient typed views of a candidate's two invocation halves.
    pub typed: fn(&GeneratedConfig) -> (TypedConfig, TypedConfig),
    /// The end-to-end executor (format → mount → workload → check).
    pub execute: fn(&GeneratedConfig) -> RunDepth,
    /// Whether a config may join the mutation corpus (cost gate).
    pub cheap_parent: fn(&GeneratedConfig) -> bool,
    /// One mutation step over the solver's value pools.
    pub mutate: fn(&Solver<'_>, &mut StdRng, &GeneratedConfig) -> GeneratedConfig,
}

impl Harness {
    /// The Ext4 harness — the original ConBugCk fuzz campaign.
    pub fn ext4() -> Self {
        Harness {
            name: "ext4",
            store_context: STORE_CONTEXT,
            scope: SolverScope::ext4,
            typed: ext4_typed,
            execute,
            cheap_parent,
            mutate,
        }
    }

    /// The F2FS harness (see [`crate::f2fs`]).
    pub fn f2fs() -> Self {
        crate::f2fs::harness()
    }

    /// Canonical whole-configuration state key under this harness's
    /// typed views — the store/memoization identity. Equals
    /// [`GeneratedConfig::state_key`] for the ext4 harness.
    pub fn state_key(&self, cfg: &GeneratedConfig) -> String {
        let (create, mount) = (self.typed)(cfg);
        format!("{}|{}", create.canonical_key(), mount.canonical_key())
    }

    /// FNV-1a fingerprint of [`Harness::state_key`]. Byte-identical to
    /// [`GeneratedConfig::state_id`] for the ext4 harness, so existing
    /// persistent stores stay warm across the refactor.
    pub fn state_id(&self, cfg: &GeneratedConfig) -> u64 {
        fnv1a(FNV_OFFSET_BASIS, self.state_key(cfg).as_bytes())
    }
}

fn ext4_typed(cfg: &GeneratedConfig) -> (TypedConfig, TypedConfig) {
    cfg.typed()
}

/// Corpus cap: the mutation pool keeps at most this many states.
const CORPUS_CAP: usize = 64;

/// How candidate configurations are produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    /// Solver-seeded rounds for uncovered polarities plus pool-driven
    /// mutation of the corpus.
    Solver,
    /// The legacy dependency-aware generator (hard-coded tables).
    Aware,
    /// The naive random generator.
    Naive,
}

impl Strategy {
    /// Short lowercase label (`solver`/`aware`/`naive`).
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Solver => "solver",
            Strategy::Aware => "aware",
            Strategy::Naive => "naive",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// RNG seed — the whole candidate stream is deterministic in it.
    pub seed: u64,
    /// Number of generation rounds.
    pub rounds: usize,
    /// Candidates per round.
    pub batch: usize,
    /// Worker threads for the execution fan-out (0 = one per core).
    pub threads: usize,
    /// Candidate generation strategy.
    pub strategy: Strategy,
    /// Persistent verdict store path; `None` runs in-memory.
    pub store_path: Option<PathBuf>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 42,
            rounds: 4,
            batch: 32,
            threads: 1,
            strategy: Strategy::Solver,
            store_path: None,
        }
    }
}

/// Per-constraint polarity coverage over the solver's achievable
/// universe.
///
/// Targets are tracked by constraint *position*, not signature, so the
/// per-config observation pass allocates nothing; the solver's
/// witnesses are computed once at construction and reused for seeding.
#[derive(Debug, Clone)]
pub struct PolarityCoverage {
    /// `(constraint position, polarity)` → seed witness; iteration
    /// order is universe (extraction × polarity) order.
    witnesses: BTreeMap<(usize, Polarity), SolvedConfig>,
    covered: BTreeSet<(usize, Polarity)>,
}

impl PolarityCoverage {
    /// An empty tracker over the solver's achievable target universe.
    pub fn new(solver: &Solver<'_>) -> Self {
        PolarityCoverage {
            witnesses: solver
                .witness_targets()
                .into_iter()
                .map(|(i, p, solved)| ((i, p), solved))
                .collect(),
            covered: BTreeSet::new(),
        }
    }

    /// Records every polarity the configuration state witnesses.
    /// Returns `true` when at least one uncovered target became covered
    /// (the state contributed coverage). A no-op once the universe is
    /// saturated.
    pub fn observe(&mut self, solver: &Solver<'_>, config: &GeneratedConfig) -> bool {
        let (mkfs, mount) = config.typed();
        self.observe_views(solver, &mkfs, &mount)
    }

    /// [`PolarityCoverage::observe`] over already-computed typed views —
    /// the harness-agnostic entry point ([`fuzz_campaign_with`] types
    /// candidates through its [`Harness`], not through the ext4 lenient
    /// parsers baked into [`GeneratedConfig::typed`]).
    pub fn observe_views(
        &mut self,
        solver: &Solver<'_>,
        mkfs: &TypedConfig,
        mount: &TypedConfig,
    ) -> bool {
        if self.complete() {
            return false;
        }
        let mut contributed = false;
        for (i, c) in solver.constraints().constraints().iter().enumerate() {
            match c.evaluate(&[mkfs, mount]) {
                Verdict::Satisfied => {
                    contributed |= self.cover((i, Polarity::Satisfy));
                    let boundary = (i, Polarity::Boundary);
                    if self.witnesses.contains_key(&boundary)
                        && !self.covered.contains(&boundary)
                        && solver.hits(c, Polarity::Boundary, mkfs, mount)
                    {
                        self.covered.insert(boundary);
                        contributed = true;
                    }
                }
                Verdict::Violated => contributed |= self.cover((i, Polarity::Violate)),
                Verdict::NotApplicable => {}
            }
        }
        contributed
    }

    /// Marks one in-universe target covered; `true` when newly covered.
    fn cover(&mut self, target: (usize, Polarity)) -> bool {
        self.witnesses.contains_key(&target) && self.covered.insert(target)
    }

    /// Whether every achievable target has been witnessed.
    pub fn complete(&self) -> bool {
        self.covered.len() == self.witnesses.len()
    }

    /// The uncovered targets' seed witnesses, in universe order.
    fn uncovered_witnesses(&self) -> Vec<&SolvedConfig> {
        self.witnesses
            .iter()
            .filter(|(target, _)| !self.covered.contains(target))
            .map(|(_, solved)| solved)
            .collect()
    }

    /// The targets not yet witnessed as `(signature, polarity)`, in
    /// universe order.
    pub fn uncovered(&self, solver: &Solver<'_>) -> Vec<(String, Polarity)> {
        let constraints = solver.constraints().constraints();
        self.witnesses
            .keys()
            .filter(|t| !self.covered.contains(t))
            .map(|&(i, p)| (constraints[i].signature().to_string(), p))
            .collect()
    }

    /// Covered target count.
    pub fn covered(&self) -> usize {
        self.covered.len()
    }

    /// Universe size.
    pub fn universe(&self) -> usize {
        self.witnesses.len()
    }

    /// Covered fraction in `[0, 1]` (1.0 for an empty universe).
    pub fn fraction(&self) -> f64 {
        if self.witnesses.is_empty() {
            return 1.0;
        }
        self.covered.len() as f64 / self.witnesses.len() as f64
    }
}

/// The serialisable result summary of one fuzz campaign.
///
/// Every field except `wall_ms` is deterministic in `(strategy, seed,
/// rounds, batch)` — the warm-vs-cold store equivalence check compares
/// reports with `wall_ms` (and the store traffic counters) masked off.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FuzzReport {
    /// Generation strategy label.
    pub strategy: String,
    /// RNG seed.
    pub seed: u64,
    /// Rounds run.
    pub rounds: usize,
    /// Candidates per round.
    pub batch: usize,
    /// Worker threads requested.
    pub threads: usize,
    /// Candidates generated across all rounds (pre-dedup).
    pub generated: usize,
    /// Distinct states given verdicts (post-dedup).
    pub unique_verdicts: usize,
    /// Distinct states actually executed this process (store misses);
    /// `unique_verdicts - executed_fresh` verdicts came from the store.
    pub executed_fresh: usize,
    /// Distinct states that reached deep code.
    pub deep: usize,
    /// Distinct states rejected at CLI validation.
    pub rejected_cli: usize,
    /// Distinct states rejected at format time.
    pub rejected_format: usize,
    /// Distinct states whose mount was rejected.
    pub rejected_mount: usize,
    /// Covered polarity targets.
    pub coverage_covered: usize,
    /// Achievable polarity-target universe size.
    pub coverage_universe: usize,
    /// `coverage_covered / coverage_universe`.
    pub coverage_fraction: f64,
    /// Store hits (verdicts served from memory or the log).
    pub store_hits: usize,
    /// Store misses (verdicts computed).
    pub store_misses: usize,
    /// Verdicts preloaded from a persistent log at open.
    pub store_preloaded: usize,
    /// What happened when the store was opened: persistence, cold-start
    /// reason, preloaded/dropped records.
    pub store_open: blockdev::StoreOpenReport,
    /// FNV-1a digest over the sorted `(state_id, verdict)` pairs — two
    /// campaigns with equal digests produced bit-identical verdicts.
    pub verdict_digest: u64,
    /// Wall-clock milliseconds (not deterministic).
    pub wall_ms: u64,
}

impl FuzzReport {
    /// Unique verdicts per wall-clock second.
    pub fn verdicts_per_sec(&self) -> f64 {
        if self.wall_ms == 0 {
            return self.unique_verdicts as f64 * 1000.0;
        }
        self.unique_verdicts as f64 * 1000.0 / self.wall_ms as f64
    }

    /// Whether two campaigns produced the same verdicts over the same
    /// states — everything except wall time and store traffic.
    pub fn same_verdicts(&self, other: &FuzzReport) -> bool {
        self.strategy == other.strategy
            && self.generated == other.generated
            && self.unique_verdicts == other.unique_verdicts
            && self.deep == other.deep
            && self.rejected_cli == other.rejected_cli
            && self.rejected_format == other.rejected_format
            && self.rejected_mount == other.rejected_mount
            && self.coverage_covered == other.coverage_covered
            && self.verdict_digest == other.verdict_digest
    }
}

/// The full campaign outcome: the summary report plus the verdict map
/// itself (state fingerprint → run depth), for exact equivalence
/// checks.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// Summary report.
    pub report: FuzzReport,
    /// Verdict per distinct state.
    pub verdicts: BTreeMap<u64, RunDepth>,
}

/// Runs one fuzz campaign over the compiled constraint set — the
/// original ext4 entry point, now a thin wrapper over
/// [`fuzz_campaign_with`] and [`Harness::ext4`].
pub fn fuzz_campaign(set: &ConstraintSet, opts: &FuzzOptions) -> FuzzOutcome {
    fuzz_campaign_with(set, opts, &Harness::ext4())
}

/// Runs one fuzz campaign over the compiled constraint set of the
/// ecosystem the harness drives. The `Aware`/`Naive` strategies draw
/// from the legacy ext4 value tables regardless of the harness (they
/// exist as ablation baselines); cross-ecosystem campaigns should use
/// [`Strategy::Solver`], which generates from the harness's scope.
pub fn fuzz_campaign_with(
    set: &ConstraintSet,
    opts: &FuzzOptions,
    harness: &Harness,
) -> FuzzOutcome {
    let solver = Solver::with_scope(set, (harness.scope)());
    let mut coverage = PolarityCoverage::new(&solver);
    let store: VerdictStore<RunDepth> = match &opts.store_path {
        Some(path) => VerdictStore::open(path),
        None => VerdictStore::in_memory(true),
    };
    let ctx = store_context(harness.store_context);
    let start = Instant::now();

    let mut verdicts: BTreeMap<u64, RunDepth> = BTreeMap::new();
    let mut corpus: Vec<GeneratedConfig> = Vec::new();
    let mut corpus_ids: BTreeSet<u64> = BTreeSet::new();
    let mut generated = 0usize;
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut aware = match opts.strategy {
        Strategy::Aware => Some(ConBugCk::new(opts.seed).expect("constraint extraction succeeds")),
        _ => None,
    };

    for round in 0..opts.rounds {
        let batch: Vec<GeneratedConfig> = match opts.strategy {
            Strategy::Solver => {
                solver_round(&solver, &coverage, &corpus, &mut rng, opts.batch, round, harness)
            }
            Strategy::Aware => {
                aware.as_mut().expect("aware generator initialised").generate(opts.batch)
            }
            Strategy::Naive => {
                crate::conbugck::generate_naive(opts.seed.wrapping_add(round as u64), opts.batch)
            }
        };
        generated += batch.len();

        // drop states an earlier round gave a verdict; the driver
        // collapses repeats within the batch, so the executor never
        // sees the same state twice
        let fresh: Vec<(u64, GeneratedConfig)> = batch
            .into_iter()
            .map(|cfg| (harness.state_id(&cfg), cfg))
            .filter(|(id, _)| !verdicts.contains_key(id))
            .collect();
        let (results, _) = conpool::map_unique(
            fresh,
            opts.threads,
            |&(id, _)| Some(id),
            |(id, cfg)| {
                let key = (ImageDigest::of_bytes(harness.state_key(&cfg).as_bytes()), ctx);
                let depth = store.get_or_compute(key, || (harness.execute)(&cfg));
                (id, cfg, depth)
            },
        );

        for (id, cfg, depth) in results {
            verdicts.insert(id, depth);
            let (create, mount) = (harness.typed)(&cfg);
            let contributed = coverage.observe_views(&solver, &create, &mount);
            // mutants inherit every value they don't touch, so an
            // expensive parent spawns expensive descendants for the
            // rest of the campaign — only cheap configs breed
            if (depth == RunDepth::Deep || contributed)
                && (harness.cheap_parent)(&cfg)
                && corpus.len() < CORPUS_CAP
                && corpus_ids.insert(id)
            {
                corpus.push(cfg);
            }
        }
    }

    let wall_ms = start.elapsed().as_millis() as u64;
    let mut tally = [0usize; 4];
    for depth in verdicts.values() {
        let slot = match depth {
            RunDepth::RejectedCli => 0,
            RunDepth::RejectedFormat => 1,
            RunDepth::RejectedMount => 2,
            RunDepth::Deep => 3,
        };
        tally[slot] += 1;
    }
    let report = FuzzReport {
        strategy: opts.strategy.label().to_string(),
        seed: opts.seed,
        rounds: opts.rounds,
        batch: opts.batch,
        threads: opts.threads,
        generated,
        unique_verdicts: verdicts.len(),
        executed_fresh: store.misses(),
        deep: tally[3],
        rejected_cli: tally[0],
        rejected_format: tally[1],
        rejected_mount: tally[2],
        coverage_covered: coverage.covered(),
        coverage_universe: coverage.universe(),
        coverage_fraction: coverage.fraction(),
        store_hits: store.hits(),
        store_misses: store.misses(),
        store_preloaded: store.preloaded(),
        store_open: store.open_report().clone(),
        verdict_digest: verdict_digest(&verdicts),
        wall_ms,
    };
    FuzzOutcome { report, verdicts }
}

/// FNV-1a digest over the sorted `(state_id, verdict)` pairs.
fn verdict_digest(verdicts: &BTreeMap<u64, RunDepth>) -> u64 {
    verdicts.iter().fold(FNV_OFFSET_BASIS, |h, (id, depth)| {
        let tag = match depth {
            RunDepth::RejectedCli => 1u8,
            RunDepth::RejectedFormat => 2,
            RunDepth::RejectedMount => 3,
            RunDepth::Deep => 4,
        };
        fnv1a(fnv1a(h, &id.to_le_bytes()), &[tag])
    })
}

/// One solver-strategy generation round: the cached witnesses of every
/// still-uncovered polarity target first, then pool-driven mutants of
/// the corpus up to the batch size.
fn solver_round(
    solver: &Solver<'_>,
    coverage: &PolarityCoverage,
    corpus: &[GeneratedConfig],
    rng: &mut StdRng,
    batch: usize,
    round: usize,
    harness: &Harness,
) -> Vec<GeneratedConfig> {
    let mut out: Vec<GeneratedConfig> = Vec::new();
    for solved in coverage.uncovered_witnesses() {
        if let Some(cfg) = to_generated(solver, solved) {
            out.push(cfg);
        }
    }
    if round == 0 && out.is_empty() && corpus.is_empty() {
        // degenerate universe: fall back to the base skeleton so the
        // mutation loop has something to chew on
        if let Some(first) = solver.constraints().constraints().first() {
            if let Some(solved) = solver.solve(first, Polarity::Satisfy) {
                out.extend(to_generated(solver, &solved));
            }
        }
    }
    while out.len() < batch {
        let parent = if corpus.is_empty() {
            match out.first() {
                Some(p) => p.clone(),
                None => break,
            }
        } else {
            corpus[rng.gen_range(0..corpus.len())].clone()
        };
        out.push((harness.mutate)(solver, rng, &parent));
    }
    out
}

/// Converts a solved assignment to the generator's config shape,
/// rendering through the solver's own scope.
pub(crate) fn to_generated(solver: &Solver<'_>, solved: &SolvedConfig) -> Option<GeneratedConfig> {
    let (mkfs_args, mount_opts) = solved.render_with(solver.scope())?;
    Some(GeneratedConfig { mkfs_args, mount_opts })
}

/// The harness formats a fixed 12288-block device, so per-run cost
/// scales with the bytes the simulator touches before it can reject a
/// config. Mutation keeps pool values whose probe is cheap relative to
/// the one verdict it yields: journals that could actually fit the
/// device, and block sizes that either keep the image small or are
/// rejected before any image work. The solver's boundary witnesses
/// already probe every bound once, so dropping the expensive middle
/// ground from the mutation mix loses no coverage.
const DEVICE_BLOCKS: i64 = 12288;
const CHEAP_BLOCKSIZE: i64 = 4096;

fn cheap_values(pool: Vec<i64>, keep: impl Fn(i64) -> bool) -> Vec<i64> {
    let kept: Vec<i64> = pool.iter().copied().filter(|&v| keep(v)).collect();
    if kept.is_empty() { pool } else { kept }
}

/// Whether a config may join the mutation corpus. Descendants inherit
/// every value the mutator doesn't touch, so one oversized journal or
/// block size in a parent taxes every mutant bred from it.
fn cheap_parent(cfg: &GeneratedConfig) -> bool {
    let (mkfs, _) = cfg.typed();
    if let Some(TypedValue::Int(j)) = mkfs.get("journal_size") {
        if *j > DEVICE_BLOCKS {
            return false;
        }
    }
    if let Some(TypedValue::Int(b)) = mkfs.get("blocksize") {
        if *b > CHEAP_BLOCKSIZE && *b < 8 * CHEAP_BLOCKSIZE {
            return false;
        }
    }
    true
}

/// Mutates one corpus member through the solver's value pools: range
/// and boundary integers (bounds ± 1 included, so out-of-range probes
/// arise naturally), feature toggles, enum members — the replacement
/// for the legacy hard-coded tables.
fn mutate(solver: &Solver<'_>, rng: &mut StdRng, parent: &GeneratedConfig) -> GeneratedConfig {
    let (mkfs, mount) = parent.typed();
    let mut solved = SolvedConfig { mkfs, mount };
    // parents come from renders of typed states, but the round trip can
    // in principle produce values the renderer refuses — keep the
    // parent in that case
    let ops = 1 + rng.gen_range(0..2);
    for _ in 0..ops {
        match rng.gen_range(0..6) {
            0 => {
                // large in-range block sizes pay full image cost; the
                // very large ones are refused before the image exists
                let pool = cheap_values(solver.int_pool("mke2fs", "blocksize"), |v| {
                    v <= CHEAP_BLOCKSIZE || v >= 8 * CHEAP_BLOCKSIZE
                });
                solved.mkfs.set_int("blocksize", pool[rng.gen_range(0..pool.len())]);
            }
            1 => {
                let pool = solver.int_pool("mke2fs", "reserved_percent");
                solved.mkfs.set_int("reserved_percent", pool[rng.gen_range(0..pool.len())]);
            }
            2 => {
                let features = solver.feature_pool("mke2fs");
                if !features.is_empty() {
                    let f = &features[rng.gen_range(0..features.len())];
                    let flipped = match solved.mkfs.get(f) {
                        Some(TypedValue::Bool(b)) => !*b,
                        _ => true,
                    };
                    solved.mkfs.set_bool(f, flipped);
                }
            }
            3 => {
                // a journal bigger than the device burns milliseconds
                // of simulated journal writes before the format fails
                let pool = cheap_values(solver.int_pool("mke2fs", "journal_size"), |v| {
                    v <= DEVICE_BLOCKS
                });
                solved.mkfs.set_int("journal_size", pool[rng.gen_range(0..pool.len())]);
                solved.mkfs.set_bool("has_journal", true);
            }
            4 => {
                let param = if rng.gen_bool(0.5) { "data" } else { "errors" };
                let members = solver.enum_pool("mount", param);
                if !members.is_empty() {
                    let v = &members[rng.gen_range(0..members.len())];
                    solved.mount.set_str(param, v);
                }
            }
            _ => {
                let pool = solver.int_pool("mount", "commit");
                solved.mount.set_int("commit", pool[rng.gen_range(0..pool.len())]);
            }
        }
    }
    to_generated(solver, &solved).unwrap_or_else(|| parent.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use confdep::{extract_scenario, models, ExtractOptions};

    fn compiled() -> ConstraintSet {
        ConstraintSet::compile(
            extract_scenario(&models::all(), ExtractOptions::default()).unwrap(),
        )
    }

    #[test]
    fn solver_campaign_reaches_full_polarity_coverage() {
        let set = compiled();
        let outcome = fuzz_campaign(
            &set,
            &FuzzOptions { rounds: 2, batch: 16, ..FuzzOptions::default() },
        );
        let r = &outcome.report;
        assert_eq!(r.coverage_covered, r.coverage_universe, "uncovered targets remain");
        assert!((r.coverage_fraction - 1.0).abs() < f64::EPSILON);
        assert!(r.coverage_universe >= 60, "universe {}", r.coverage_universe);
        assert_eq!(r.unique_verdicts, outcome.verdicts.len());
    }

    #[test]
    fn campaigns_are_deterministic_in_the_seed() {
        let set = compiled();
        let opts = FuzzOptions { rounds: 3, batch: 12, ..FuzzOptions::default() };
        let a = fuzz_campaign(&set, &opts);
        let b = fuzz_campaign(&set, &opts);
        assert_eq!(a.verdicts, b.verdicts);
        assert!(a.report.same_verdicts(&b.report));
    }

    #[test]
    fn thread_count_does_not_change_verdicts() {
        let set = compiled();
        let base = FuzzOptions { rounds: 2, batch: 16, ..FuzzOptions::default() };
        let seq = fuzz_campaign(&set, &base);
        let par = fuzz_campaign(&set, &FuzzOptions { threads: 4, ..base });
        assert_eq!(seq.verdicts, par.verdicts);
        assert_eq!(seq.report.verdict_digest, par.report.verdict_digest);
    }

    #[test]
    fn aware_and_naive_strategies_run_under_the_same_loop() {
        let set = compiled();
        for strategy in [Strategy::Aware, Strategy::Naive] {
            let outcome = fuzz_campaign(
                &set,
                &FuzzOptions { strategy, rounds: 2, batch: 10, ..FuzzOptions::default() },
            );
            let r = &outcome.report;
            assert_eq!(r.strategy, strategy.label());
            assert!(r.unique_verdicts > 0);
            assert!(r.unique_verdicts <= r.generated);
            // the table-driven generators cannot reach every polarity
            assert!(r.coverage_covered < r.coverage_universe, "{strategy} covered everything");
        }
    }

    #[test]
    fn ext4_harness_state_identity_matches_generated_config() {
        // the refactor's compatibility pin: the harness's generic state
        // key/fingerprint must be byte-identical to the hard-coded ext4
        // ones, so existing persistent stores stay warm
        let h = Harness::ext4();
        let mut gen = ConBugCk::new(11).expect("models compile");
        for cfg in gen.generate(32) {
            assert_eq!(h.state_key(&cfg), cfg.state_key());
            assert_eq!(h.state_id(&cfg), cfg.state_id());
        }
    }

    #[test]
    fn warm_store_reruns_execute_nothing_and_match_exactly() {
        let dir = std::env::temp_dir().join(format!("fuzz-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("verdicts.vstr");
        let _ = std::fs::remove_file(&path);
        let set = compiled();
        let opts = FuzzOptions {
            rounds: 2,
            batch: 12,
            store_path: Some(path.clone()),
            ..FuzzOptions::default()
        };
        let cold = fuzz_campaign(&set, &opts);
        assert!(cold.report.executed_fresh > 0);
        let warm = fuzz_campaign(&set, &opts);
        assert_eq!(warm.report.executed_fresh, 0, "warm rerun executed configs");
        assert_eq!(warm.verdicts, cold.verdicts);
        assert!(warm.report.same_verdicts(&cold.report));
        assert!(warm.report.store_preloaded >= cold.report.unique_verdicts);
        let _ = std::fs::remove_file(&path);
    }
}
