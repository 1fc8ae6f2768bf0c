//! `campaign`: configuration testing on the simulators.
//!
//! One round runs three legs:
//!
//! * a solver fuzz campaign per ecosystem through
//!   [`fuzz_campaign_with`] with [`Harness::ext4`] and
//!   [`Harness::f2fs`], each on a persistent [`VerdictStore`] in a fresh
//!   file, so every verdict executes and is appended. The harnesses'
//!   `execute` wraps the public executors to time each configuration;
//! * crash exploration with partial-order reduction
//!   ([`ExploreOptions::corpus`]) over a seeded
//!   [`crashsim::generated_corpus`];
//! * the [`faultsim::conformance_sweep`] over the 12-config grid.
//!
//! A request is one fuzzed configuration; its latency is the executor
//! call.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use blockdev::VerdictStore;
use confdep::ConstraintSet;
use contools::{
    fuzz_campaign_with, FuzzOptions, FuzzReport, GeneratedConfig, Harness, RunDepth, Strategy,
};
use crashsim::{explore, ExploreOptions};
use faultsim::{conformance_sweep, CampaignOptions};

use crate::{constraints, p50_us, stats, total_ms, trace, Config, Metric, Tally, Workload};

/// Fuzz rounds and candidates per round, per ecosystem.
const FUZZ_ROUNDS: usize = 64;
const FUZZ_BATCH: usize = 256;
/// Crash corpus: workloads, file operations each, group-commit size.
const CRASH_WORKLOADS: usize = 4;
const CRASH_OPS: usize = 48;
const CRASH_BATCH: u32 = 4;
/// Fault sweep sampling: half the default points per fault class.
const FAULT_POINTS: CampaignOptions = CampaignOptions {
    threads: 1,
    write_points: 12,
    read_points: 8,
    flush_points: 4,
    corrupt_points: 4,
    verdict_cache: true,
};
/// Polarity targets each ecosystem's solver universe holds.
const EXT4_TARGETS: usize = 88;
const F2FS_TARGETS: usize = 106;

/// Executor timings (nanoseconds) of the running fuzz campaign, and
/// the span the timed executions belong to.
static EXEC_NS: Mutex<Vec<u64>> = Mutex::new(Vec::new());
static FUZZ_SPAN: AtomicU64 = AtomicU64::new(0);

fn timed(
    name: &'static str,
    run: fn(&GeneratedConfig) -> RunDepth,
    cfg: &GeneratedConfig,
) -> RunDepth {
    let start = Instant::now();
    let span = trace::span_under(name, FUZZ_SPAN.load(Ordering::Relaxed));
    let depth = run(cfg);
    drop(span);
    trace::flush_thread();
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    EXEC_NS.lock().expect("executor timings poisoned").push(ns);
    depth
}

fn execute_ext4(cfg: &GeneratedConfig) -> RunDepth {
    timed("contools.execute_ext4", contools::execute, cfg)
}

fn execute_f2fs(cfg: &GeneratedConfig) -> RunDepth {
    timed("contools.execute_f2fs", contools::execute_f2fs, cfg)
}

/// One fuzz campaign's measurements.
struct FuzzLeg {
    eco: &'static str,
    report: FuzzReport,
    wall_s: f64,
    /// Executor seconds, summed over the workers.
    exec_s: f64,
    /// Records the reopened store preloaded.
    appended: usize,
}

/// One round's crash-exploration leg, summed over the corpus.
#[derive(Default)]
struct CrashLeg {
    /// Schedules enumerated, pruned ones included.
    schedules: usize,
    classes: usize,
    classified: usize,
    replayed: u64,
    secs: f64,
}

/// One round's fault sweep.
#[derive(Default)]
struct FaultLeg {
    schedules: usize,
    digest_hits: usize,
    digest_misses: usize,
    secs: f64,
}

/// The `campaign` workload.
pub struct Campaign {
    seed: u64,
    threads: usize,
    sets: Vec<(&'static str, ConstraintSet)>,
    corpus: Vec<crashsim::Workload>,
    scratch: PathBuf,
    fuzz: Vec<FuzzLeg>,
    crash: Vec<CrashLeg>,
    fault: Vec<FaultLeg>,
}

impl Campaign {
    fn harness(eco: &str) -> Harness {
        if eco == "ext4" {
            Harness {
                execute: execute_ext4,
                ..Harness::ext4()
            }
        } else {
            Harness {
                execute: execute_f2fs,
                ..Harness::f2fs()
            }
        }
    }

    /// One fuzz campaign; round `r` fuzzes from seed `seed + r`, so a
    /// run pools several candidate streams.
    fn fuzz_leg(&self, eco: &'static str, set: &ConstraintSet, round: usize) -> FuzzLeg {
        let path = self.scratch.join(format!("fuzz-{eco}.vstr"));
        let _ = std::fs::remove_file(&path);
        let opts = FuzzOptions {
            seed: self.seed.wrapping_add(round as u64),
            rounds: FUZZ_ROUNDS,
            batch: FUZZ_BATCH,
            threads: self.threads,
            strategy: Strategy::Solver,
            store_path: Some(path.clone()),
        };
        EXEC_NS.lock().expect("executor timings poisoned").clear();
        let start = Instant::now();
        let span = trace::span("contools.fuzz");
        FUZZ_SPAN.store(span.id(), Ordering::Relaxed);
        let outcome = fuzz_campaign_with(set, &opts, &Self::harness(eco));
        drop(span);
        let wall_s = stats::secs(start);
        let exec_ns: u64 = EXEC_NS
            .lock()
            .expect("executor timings poisoned")
            .iter()
            .sum();
        let appended = {
            let _span = trace::span("blockdev.store_open");
            VerdictStore::<RunDepth>::open(&path).preloaded()
        };
        let _ = std::fs::remove_file(&path);
        FuzzLeg {
            eco,
            report: outcome.report,
            wall_s,
            exec_s: exec_ns as f64 / 1e9,
            appended,
        }
    }

    /// The verdict digests of round 0's fuzz campaigns, one per
    /// ecosystem (for the determinism test).
    pub fn verdict_digests(&self) -> Vec<(&'static str, u64)> {
        self.sets
            .iter()
            .map(|(eco, set)| (*eco, self.fuzz_leg(eco, set, 0).report.verdict_digest))
            .collect()
    }

    fn crash_leg(&self, tally: &mut Tally) -> CrashLeg {
        let start = Instant::now();
        let mut leg = CrashLeg::default();
        for w in &self.corpus {
            let _span = trace::span("crashsim.explore");
            match explore(w, &ExploreOptions::corpus().with_threads(self.threads)) {
                Ok(report) => {
                    let s = &report.stats;
                    leg.schedules += s.por_classes + s.schedules_pruned;
                    leg.classes += s.por_classes;
                    leg.classified += s.images_classified;
                    leg.replayed += s.blocks_replayed;
                    tally.attempted += (s.por_classes + s.schedules_pruned) as u64;
                }
                Err(e) => tally.check(false, || format!("explore {} failed: {e}", w.name)),
            }
        }
        leg.secs = stats::secs(start);
        leg
    }

    fn fault_leg(&self, tally: &mut Tally) -> FaultLeg {
        let start = Instant::now();
        let sweep = {
            let _span = trace::span("faultsim.sweep");
            conformance_sweep(&CampaignOptions {
                threads: self.threads,
                ..FAULT_POINTS
            })
        };
        let mut leg = FaultLeg {
            secs: stats::secs(start),
            ..FaultLeg::default()
        };
        match sweep {
            Ok((rows, reports)) => {
                let bad: usize = rows
                    .iter()
                    .map(|r| r.counts.panic + r.counts.policy_violation)
                    .sum();
                leg.schedules = rows.iter().map(|r| r.faults).sum();
                leg.digest_hits = reports.iter().map(|r| r.stats.digest_cache_hits).sum();
                leg.digest_misses = reports.iter().map(|r| r.stats.digest_cache_misses).sum();
                tally.attempted += leg.schedules as u64;
                if rows.len() != 12 || bad > 0 {
                    tally.failed += bad as u64 + u64::from(rows.len() != 12);
                    tally.problems.push(format!(
                        "fault sweep: {} configs, {bad} panic or policy-violation verdicts",
                        rows.len()
                    ));
                }
            }
            Err(e) => tally.check(false, || format!("fault sweep failed: {e}")),
        }
        leg
    }
}

impl Workload for Campaign {
    const NAME: &'static str = "campaign";

    fn setup(cfg: &Config) -> Self {
        let sets = [ecosys::ext4(), ecosys::f2fs()]
            .into_iter()
            .map(|eco| (eco.name, constraints(&eco, cfg.threads)))
            .collect();
        let corpus = crashsim::generated_corpus(cfg.seed, CRASH_WORKLOADS, CRASH_OPS, CRASH_BATCH)
            .expect("the crash corpus records");
        Campaign {
            seed: cfg.seed,
            threads: cfg.threads,
            sets,
            corpus,
            scratch: cfg.scratch.clone(),
            fuzz: Vec::new(),
            crash: Vec::new(),
            fault: Vec::new(),
        }
    }

    fn round(&mut self, round: usize, tally: &mut Tally) {
        let start = Instant::now();
        let round_span = trace::span("campaign.round");
        for (eco, set) in &self.sets {
            let leg = self.fuzz_leg(eco, set, round);
            let universe = if *eco == "ext4" {
                EXT4_TARGETS
            } else {
                F2FS_TARGETS
            };
            let r = &leg.report;
            tally.requests += r.unique_verdicts as u64;
            tally.request_s += leg.wall_s;
            tally
                .latencies_ns
                .extend(EXEC_NS.lock().expect("executor timings poisoned").drain(..));
            tally.attempted += r.unique_verdicts as u64;
            let missed = universe.saturating_sub(r.coverage_covered) as u64
                + u64::from(r.coverage_universe != universe);
            if missed > 0 {
                tally.failed += missed;
                tally.problems.push(format!(
                    "{eco} polarity coverage {}/{} (expected {universe}/{universe})",
                    r.coverage_covered, r.coverage_universe
                ));
            }
            if leg.appended != r.executed_fresh {
                tally.failed += 1;
                tally.problems.push(format!(
                    "{eco} store holds {} records after {} fresh executions",
                    leg.appended, r.executed_fresh
                ));
            }
            self.fuzz.push(leg);
        }
        let crash = self.crash_leg(tally);
        self.crash.push(crash);
        let fault = self.fault_leg(tally);
        self.fault.push(fault);
        drop(round_span);
        tally.rounds_s.push(stats::secs(start));
    }

    fn finish(&mut self, tally: &mut Tally) -> Vec<Metric> {
        for (eco, set) in &self.sets {
            if let Some(leg) = self.fuzz.iter().find(|l| l.eco == *eco) {
                tally.notes.push(format!(
                    "{eco}: {} constraints, round-0 verdict digest {:016x}, coverage {}/{}",
                    set.len(),
                    leg.report.verdict_digest,
                    leg.report.coverage_covered,
                    leg.report.coverage_universe
                ));
            }
        }
        let crash_rate: Vec<f64> = self
            .crash
            .iter()
            .map(|l| stats::ratio(l.schedules as f64, l.secs))
            .collect();
        let fault_rate: Vec<f64> = self
            .fault
            .iter()
            .map(|l| stats::ratio(l.schedules as f64, l.secs))
            .collect();
        let fuzz_s: Vec<f64> = self.fuzz.iter().map(|l| l.wall_s).collect();
        let crash_s: Vec<f64> = self.crash.iter().map(|l| l.secs).collect();
        let fault_s: Vec<f64> = self.fault.iter().map(|l| l.secs).collect();
        vec![
            Metric::new(
                "campaign.configs_per_s",
                stats::ratio(tally.requests as f64, tally.request_s),
                "1/s",
            ),
            Metric::new(
                "campaign.crash_schedules_per_s",
                stats::median(&crash_rate),
                "1/s",
            ),
            Metric::new(
                "campaign.fault_schedules_per_s",
                stats::median(&fault_rate),
                "1/s",
            ),
            Metric::new("campaign.fuzz_s", stats::median(&fuzz_s), "s"),
            Metric::new("campaign.crash_s", stats::median(&crash_s), "s"),
            Metric::new("campaign.fault_s", stats::median(&fault_s), "s"),
        ]
    }

    fn layer_metrics(&self, spans: &[trace::Span]) -> Vec<Metric> {
        let sum = |f: fn(&FuzzLeg) -> f64| self.fuzz.iter().map(f).sum::<f64>();
        let workers = self.threads as f64;
        // executions run on `threads` workers: the wall time they cover
        // is their sum over the worker count
        let overhead_ms: Vec<f64> = self
            .fuzz
            .iter()
            .map(|l| (l.wall_s - l.exec_s / workers) * 1e3)
            .collect();
        let appended: Vec<f64> = self.fuzz.iter().map(|l| l.appended as f64).collect();
        let rounds = self.crash.len().max(1) as f64;
        let traced_rounds = trace::durations(spans, "campaign.round").len().max(1) as f64;
        let crash = |f: fn(&CrashLeg) -> f64| self.crash.iter().map(f).sum::<f64>();
        let fault = |f: fn(&FaultLeg) -> f64| self.fault.iter().map(f).sum::<f64>();
        let hits = fault(|l| l.digest_hits as f64);
        vec![
            Metric::new(
                "contools.execute_ext4_us",
                p50_us(spans, "contools.execute_ext4"),
                "us",
            ),
            Metric::new(
                "contools.execute_f2fs_us",
                p50_us(spans, "contools.execute_f2fs"),
                "us",
            ),
            Metric::new(
                "contools.fuzz_overhead_ms",
                stats::median(&overhead_ms),
                "ms",
            ),
            Metric::new(
                "contools.fuzz_unique_ratio",
                stats::ratio(
                    sum(|l| l.report.unique_verdicts as f64),
                    sum(|l| l.report.generated as f64),
                ),
                "ratio",
            ),
            Metric::new(
                "conpool.util",
                stats::ratio(sum(|l| l.exec_s), workers * sum(|l| l.wall_s)),
                "ratio",
            ),
            Metric::new(
                "blockdev.store_open_ms",
                p50_us(spans, "blockdev.store_open") / 1e3,
                "ms",
            ),
            Metric::new("blockdev.store_appends", stats::median(&appended), "count"),
            Metric::new(
                "crashsim.explore_ms",
                total_ms(spans, "crashsim.explore") / traced_rounds,
                "ms",
            ),
            Metric::new(
                "crashsim.prune_ratio",
                stats::ratio(crash(|l| l.classes as f64), crash(|l| l.schedules as f64)),
                "ratio",
            ),
            Metric::new(
                "crashsim.images_classified",
                crash(|l| l.classified as f64) / rounds,
                "count",
            ),
            Metric::new(
                "crashsim.schedules_per_s",
                stats::ratio(crash(|l| l.schedules as f64), crash(|l| l.secs)),
                "1/s",
            ),
            Metric::new(
                "blockdev.blocks_replayed",
                crash(|l| l.replayed as f64) / rounds,
                "count",
            ),
            Metric::new(
                "faultsim.sweep_ms",
                total_ms(spans, "faultsim.sweep") / traced_rounds,
                "ms",
            ),
            Metric::new(
                "faultsim.digest_hit_ratio",
                stats::ratio(hits, hits + fault(|l| l.digest_misses as f64)),
                "ratio",
            ),
            Metric::new(
                "faultsim.schedules_per_s",
                stats::ratio(fault(|l| l.schedules as f64), fault(|l| l.secs)),
                "1/s",
            ),
        ]
    }

    fn threads(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("campaign.fuzz", self.threads),
            ("campaign.crash", self.threads),
            ("campaign.fault", self.threads),
            ("campaign.extract_setup", self.threads),
        ]
    }
}
