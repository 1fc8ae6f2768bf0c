//! Fault-injection conformance campaigns over the configuration grid.
//!
//! Sweeps the standard mixed-metadata workload through every enumerated
//! single-fault schedule under all 12 configurations (3 `errors=`
//! policies × journal on/off × write-back/write-through cache), prints
//! the ConHandleCk-style conformance table to stderr, and emits the
//! classified results as JSON on stdout.
//!
//! # Benchmark mode
//!
//! `repro_faultsim --bench` races three engine configurations over the
//! same sweep —
//!
//! * `single`: one thread, no verdict cache;
//! * `parallel`: the classification worker pool, no cache;
//! * `parallel_cached`: the pool plus image-digest recovery memoisation
//!   shared across all 12 configurations —
//!
//! verifies all three produce identical reports (canonical signatures),
//! asserts zero `Panic` verdicts and full policy conformance, and
//! writes the timings to `BENCH_faultsim.json` (`--out PATH` to
//! redirect). `--smoke` shrinks the sampling caps for CI gates;
//! `--threads N` pins the worker count (default: one per core; a count
//! above the host's cores is lowered to it). The JSON's `host` object
//! records the cores, `rustc -V`, the git revision and any such clamp.

use std::time::Instant;

use faultsim::{
    conformance_sweep, format_conformance_table, CampaignOptions, CampaignReport,
    ConformanceRow, VerdictCounts,
};
use serde::Serialize;

/// Sampling caps for the two run sizes.
fn base_options(smoke: bool) -> CampaignOptions {
    if smoke {
        CampaignOptions::smoke()
    } else {
        CampaignOptions::default()
    }
}

/// One engine configuration's measured sweep.
#[derive(Serialize)]
struct BenchConfig {
    wall_ms: f64,
    faults_explored: usize,
    cache_hits: usize,
    cache_misses: usize,
    threads: usize,
}

/// Runs the full-grid sweep `reps` times with `opts`, keeping the
/// fastest wall time (the sweep is deterministic, so the reports are
/// identical across repetitions).
fn measure(
    opts: &CampaignOptions,
    reps: usize,
) -> (BenchConfig, Vec<ConformanceRow>, Vec<CampaignReport>) {
    let mut best: Option<(f64, Vec<ConformanceRow>, Vec<CampaignReport>)> = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let (rows, reports) = conformance_sweep(opts).unwrap_or_else(|e| {
            eprintln!("conformance sweep failed: {e}");
            std::process::exit(1);
        });
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        if best.as_ref().is_none_or(|(b, _, _)| wall_ms < *b) {
            best = Some((wall_ms, rows, reports));
        }
    }
    let (wall_ms, rows, reports) = best.expect("at least one repetition ran");
    let cfg = BenchConfig {
        wall_ms,
        faults_explored: reports.iter().map(|r| r.stats.faults_explored).sum(),
        cache_hits: reports.iter().map(|r| r.stats.digest_cache_hits).sum(),
        cache_misses: reports.iter().map(|r| r.stats.digest_cache_misses).sum(),
        threads: conpool::effective_threads(opts.threads),
    };
    (cfg, rows, reports)
}

/// Order-independent signature of a whole sweep: every report's
/// canonical signature, concatenated in grid order.
fn sweep_signature(reports: &[CampaignReport]) -> Vec<String> {
    reports.iter().flat_map(CampaignReport::canonical_signature).collect()
}

fn total_counts(rows: &[ConformanceRow]) -> VerdictCounts {
    let mut total = VerdictCounts::default();
    for r in rows {
        total.clean_error += r.counts.clean_error;
        total.degraded_read_only += r.counts.degraded_read_only;
        total.data_loss += r.counts.data_loss;
        total.policy_violation += r.counts.policy_violation;
        total.panic += r.counts.panic;
    }
    total
}

#[derive(Serialize)]
struct BenchTotals {
    single_wall_ms: f64,
    parallel_wall_ms: f64,
    parallel_cached_wall_ms: f64,
    faults_explored: usize,
    cache_hits: usize,
    cache_misses: usize,
    wall_speedup_parallel: f64,
    wall_speedup_cached: f64,
}

#[derive(Serialize)]
struct BenchSummary {
    description: String,
    host: bench::Host,
    smoke: bool,
    configs: usize,
    single: BenchConfig,
    parallel: BenchConfig,
    parallel_cached: BenchConfig,
    rows: Vec<ConformanceRow>,
    counts: VerdictCounts,
    totals: BenchTotals,
    all_reports_identical: bool,
    zero_panics: bool,
    all_policies_honoured: bool,
}

fn run_bench(smoke: bool, threads: usize, out: &str) {
    let host = bench::Host::probe(threads);
    if host.threads_clamped {
        eprintln!("--threads {threads} exceeds the host's {} cores; using them all", host.cores);
    }
    let threads = host.threads;
    let reps = if smoke { 1 } else { 2 };
    let single_opts = CampaignOptions {
        threads: 1,
        verdict_cache: false,
        ..base_options(smoke)
    };
    let parallel_opts = CampaignOptions {
        threads,
        verdict_cache: false,
        ..base_options(smoke)
    };
    let cached_opts = CampaignOptions { threads, verdict_cache: true, ..base_options(smoke) };

    eprintln!("sweeping the 12-configuration grid (single-threaded, uncached)...");
    let (single, _, single_reports) = measure(&single_opts, reps);
    eprintln!(
        "  {:.1} ms / {} faults",
        single.wall_ms, single.faults_explored
    );
    eprintln!("sweeping with the worker pool ({threads} threads, uncached)...");
    let (parallel, _, parallel_reports) = measure(&parallel_opts, reps);
    eprintln!("  {:.1} ms", parallel.wall_ms);
    eprintln!("sweeping with the worker pool + shared digest cache...");
    let (parallel_cached, rows, cached_reports) = measure(&cached_opts, reps);
    eprintln!(
        "  {:.1} ms, {} cache hits / {} misses",
        parallel_cached.wall_ms, parallel_cached.cache_hits, parallel_cached.cache_misses
    );

    let identical = sweep_signature(&single_reports) == sweep_signature(&parallel_reports)
        && sweep_signature(&single_reports) == sweep_signature(&cached_reports);
    let counts = total_counts(&rows);
    let zero_panics = counts.panic == 0;
    let honoured = rows.iter().all(|r| r.honoured);

    eprint!("{}", format_conformance_table(&rows));
    eprintln!(
        "reports identical across engines: {identical} | zero panics: {zero_panics} | \
         all policies honoured: {honoured}"
    );

    let totals = BenchTotals {
        single_wall_ms: single.wall_ms,
        parallel_wall_ms: parallel.wall_ms,
        parallel_cached_wall_ms: parallel_cached.wall_ms,
        faults_explored: single.faults_explored,
        cache_hits: parallel_cached.cache_hits,
        cache_misses: parallel_cached.cache_misses,
        wall_speedup_parallel: single.wall_ms / parallel.wall_ms.max(f64::EPSILON),
        wall_speedup_cached: single.wall_ms / parallel_cached.wall_ms.max(f64::EPSILON),
    };
    let summary = BenchSummary {
        description: "fault-injection campaign benchmark: single-threaded uncached sweep vs \
                      the classification worker pool, without and with image-digest recovery \
                      memoisation shared across the configuration grid"
            .to_string(),
        host,
        smoke,
        configs: rows.len(),
        single,
        parallel,
        parallel_cached,
        rows,
        counts,
        totals,
        all_reports_identical: identical,
        zero_panics,
        all_policies_honoured: honoured,
    };
    let json = serde_json::to_string_pretty(&summary).unwrap_or_else(|e| {
        eprintln!("serialisation failed: {e}");
        std::process::exit(1);
    });
    if let Err(e) = std::fs::write(out, json + "\n") {
        eprintln!("writing {out} failed: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out}");
    if !identical {
        eprintln!("ERROR: engine configurations disagreed on at least one report");
        std::process::exit(1);
    }
    if !zero_panics {
        eprintln!("ERROR: at least one fault schedule ended in a panic verdict");
        std::process::exit(1);
    }
    if !honoured {
        eprintln!("ERROR: at least one configuration violated its errors= policy");
        std::process::exit(1);
    }
}

/// Per-campaign entry of the repro-mode JSON.
#[derive(Serialize)]
struct Entry {
    workload: String,
    config: faultsim::CampaignConfig,
    faults_explored: usize,
    counts: VerdictCounts,
    outcomes: Vec<faultsim::FaultOutcome>,
}

#[derive(Serialize)]
struct Summary {
    description: String,
    rows: Vec<ConformanceRow>,
    entries: Vec<Entry>,
}

fn run_repro(threads: usize) {
    let opts = CampaignOptions { threads, ..CampaignOptions::default() };
    let (rows, reports) = conformance_sweep(&opts).unwrap_or_else(|e| {
        eprintln!("conformance sweep failed: {e}");
        std::process::exit(1);
    });
    eprint!("{}", format_conformance_table(&rows));
    let entries = reports
        .into_iter()
        .map(|r| Entry {
            workload: r.workload.clone(),
            config: r.config.clone(),
            faults_explored: r.stats.faults_explored,
            counts: r.counts(),
            outcomes: r.outcomes,
        })
        .collect();
    let summary = Summary {
        description: "single-fault injection campaigns over the errors= policy × journal × \
                      cache-policy configuration grid, every schedule classified through the \
                      full recovery stack"
            .to_string(),
        rows,
        entries,
    };
    match serde_json::to_string_pretty(&summary) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("serialisation failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut bench = false;
    let mut smoke = false;
    let mut threads = 0usize; // 0 = one worker per core
    let mut out = "BENCH_faultsim.json".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--bench" => bench = true,
            "--smoke" => smoke = true,
            "--threads" => {
                i += 1;
                threads = args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--threads needs a number");
                    std::process::exit(2);
                });
            }
            "--out" => {
                i += 1;
                out = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: repro_faultsim [--bench [--smoke] [--threads N] [--out PATH]]");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if bench {
        run_bench(smoke, threads, &out);
    } else {
        run_repro(threads);
    }
}
