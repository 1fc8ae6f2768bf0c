//! `confdep` — the command-line front end to the reproduction (the
//! "practical open source tool" of the paper's future-work section).
//!
//! ```text
//! confdep extract [--ecosystem E] [--inter] [--no-bridge] [--json FILE]
//! confdep evaluate
//! confdep check-docs [--ecosystem E]
//! confdep check-handling [--ecosystem E]
//! confdep fuzz [--ecosystem E] [--count N] [--seed S] [--threads N] [--solver]
//!              [--store PATH] [--json]
//! confdep validate [--ecosystem E] '<create args> | <mount opts>' [--batch FILE]
//!                  [--threads N] [--json] [--explain] [--repair] [--naive]
//! confdep study
//! confdep component <name> [args...]
//! confdep cross-fs [--check '<ext4 mount opts> | <f2fs mount opts>']
//! ```

use std::process::ExitCode;

use std::path::PathBuf;

use confdep_suite::blockdev::MemDevice;
use confdep_suite::confdep::{
    extract_scenario_full, DependencyReport, Evaluation, ExtractOptions, Solver,
};
use confdep_suite::contools::conbugck::{campaign, generate_naive, ConBugCk};
use confdep_suite::contools::fuzz::{
    fuzz_campaign_with, FuzzOptions, FuzzReport, Harness, PolarityCoverage, Strategy,
};
use confdep_suite::contools::{
    run_condocck_for, run_conhandleck, run_conhandleck_f2fs, standard_f2fs_image, standard_image,
    Handling,
};
use confdep_suite::convalid::{
    ConfigQuery, EngineOptions, EngineStats, Explanation, RepairProposal, ValidationEngine,
    ValidationPlan,
};
use confdep_suite::ecosys;
use serde::Serialize;

fn usage() -> ExitCode {
    eprintln!(
        "usage: confdep <command> [options]\n\
         \n\
         commands:\n\
           extract         extract the multi-level configuration dependencies\n\
             --ecosystem E   ecosystem to analyze: ext4 (default) or f2fs\n\
             --inter         enable the inter-procedural taint extension\n\
             --no-bridge     disable the shared-metadata bridge (no CCDs)\n\
             --json FILE     write the dependencies to a JSON report\n\
             --threads N     analysis workers (default: one per core)\n\
           evaluate        run the Table 5 evaluation against the ground truth\n\
           check-docs      ConDocCk: report undocumented dependencies\n\
             --ecosystem E   manual corpus to check (default ext4)\n\
           check-handling  ConHandleCk: inject dependency violations\n\
             --ecosystem E   ecosystem to inject into (default ext4)\n\
           fuzz            ConBugCk: dependency-aware configuration testing\n\
             --ecosystem E   ecosystem to fuzz; non-ext4 runs the solver\n\
                             campaign only (the aware/naive arms are the\n\
                             paper's ext4 ablation baselines)\n\
             --count N       configurations per strategy (default 40)\n\
             --seed S        RNG seed (default 2022)\n\
             --solver        also run the solver-guided coverage campaign\n\
             --store PATH    persistent verdict store for the solver campaign\n\
             --json          emit the results as a JSON report\n\
           validate        validate whole configurations against the dependency table\n\
             '<create args> | <mount opts>'  one query (quote the pipe)\n\
             --ecosystem E   dependency table to serve (default ext4);\n\
                             queries get namespaced `E#` state keys\n\
             --batch FILE    one query per line (same format; # comments)\n\
             --threads N     batch worker threads (default: one per core)\n\
             --json          emit the results as a JSON report\n\
             --explain       explain each violated dependency (doc verdict, evidence)\n\
             --repair        propose a minimal satisfying assignment\n\
             --naive         evaluate all constraints per query (no index, no memo)\n\
           study           print the empirical-study summaries (Tables 1-4)\n\
           component       run one component through the unified dispatch\n\
             <name> [args...]  bare names resolve across every registered\n\
                               ecosystem when unambiguous (`mke2fs`,\n\
                               `resize.f2fs`); namespace with `eco:name`\n\
                               otherwise, e.g. `f2fs:mkfs -O encrypt`\n\
           cross-fs        list the cross-ecosystem shared-mount-parameter CCDs\n\
             --check '<ext4 mount opts> | <f2fs mount opts>'\n\
                             validate a side-by-side deployment's agreement"
    );
    ExitCode::from(2)
}

/// One legacy-generator arm of the `fuzz` report: campaign depth plus
/// the static polarity coverage its configurations witness.
#[derive(Serialize)]
struct FuzzCliArm {
    deep: usize,
    total: usize,
    deep_rate: f64,
    coverage_covered: usize,
    coverage_universe: usize,
    coverage_fraction: f64,
}

/// One query's row in the `validate` report.
#[derive(Serialize)]
struct ValidateRow {
    /// Canonical state key of the query.
    query: String,
    ok: bool,
    /// Constraints evaluated for this answer (0 on a memo hit).
    evaluated: usize,
    memo_hit: bool,
    satisfied: usize,
    /// Signatures of the violated constraints.
    violations: Vec<String>,
    explanations: Option<Vec<Explanation>>,
    repair: Option<RepairProposal>,
}

/// The `validate --json` report shape.
#[derive(Serialize)]
struct ValidateCliReport {
    queries: usize,
    ok: usize,
    violating: usize,
    threads: usize,
    strategy: String,
    engine: EngineStats,
    results: Vec<ValidateRow>,
}

/// The `fuzz --json` report shape.
#[derive(Serialize)]
struct FuzzCliReport {
    count: usize,
    seed: u64,
    threads: usize,
    aware: FuzzCliArm,
    naive: FuzzCliArm,
    solver: Option<FuzzReport>,
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn value(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

/// Resolves the `--ecosystem` flag (default: ext4, the paper's study
/// subject) against the multi-ecosystem registry.
fn ecosystem_arg(args: &[String]) -> Result<ecosys::Ecosystem, ExitCode> {
    match value(args, "--ecosystem") {
        None => Ok(ecosys::ext4()),
        Some(name) => ecosys::by_name(&name).ok_or_else(|| {
            let known: Vec<_> = ecosys::all().iter().map(|e| e.name).collect();
            eprintln!("unknown ecosystem: {name} (expected one of {})", known.join(", "));
            ExitCode::from(2)
        }),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { return usage() };
    match command.as_str() {
        "extract" => {
            let eco = match ecosystem_arg(&args) {
                Ok(eco) => eco,
                Err(code) => return code,
            };
            let options = ExtractOptions {
                interprocedural: flag(&args, "--inter"),
                disable_bridge: flag(&args, "--no-bridge"),
            };
            // 0 = one analysis worker per core
            let threads: usize =
                value(&args, "--threads").and_then(|v| v.parse().ok()).unwrap_or(0);
            let extraction = match extract_scenario_full(&eco.models(), options, threads) {
                Ok(x) => x,
                Err(e) => {
                    eprintln!("extraction failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let truncated: usize = extraction
                .components
                .iter()
                .map(|c| c.taint.truncated_conditions)
                .sum();
            if truncated > 0 {
                eprintln!(
                    "warning: {truncated} branch condition(s) exceeded the \
                     decomposition depth cap; some dependencies may be missing"
                );
            }
            let deps = extraction.deps;
            for d in &deps {
                println!("{d}");
            }
            let by = |cat: &str| deps.iter().filter(|d| d.kind.category() == cat).count();
            println!(
                "\n{} dependencies (SD {}, CPD {}, CCD {})",
                deps.len(),
                by("SD"),
                by("CPD"),
                by("CCD")
            );
            if let Some(path) = value(&args, "--json") {
                let label = format!("{}-ecosystem", eco.name);
                let report = DependencyReport::new(&label, options.interprocedural, deps);
                if let Err(e) = report.save(&path) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("JSON report written to {path}");
            }
            ExitCode::SUCCESS
        }
        "evaluate" => match Evaluation::run(ExtractOptions::default()) {
            Ok(eval) => {
                for s in &eval.scenarios {
                    println!(
                        "{:<44} SD {:>2}/{} CPD {:>2}/{} CCD {:>2}/{}",
                        s.label,
                        s.sd.extracted,
                        s.sd.false_positives,
                        s.cpd.extracted,
                        s.cpd.false_positives,
                        s.ccd.extracted,
                        s.ccd.false_positives
                    );
                }
                println!(
                    "{:<44} SD {:>2}/{} CPD {:>2}/{} CCD {:>2}/{}",
                    "Total Unique",
                    eval.unique.sd.extracted,
                    eval.unique.sd.false_positives,
                    eval.unique.cpd.extracted,
                    eval.unique.cpd.false_positives,
                    eval.unique.ccd.extracted,
                    eval.unique.ccd.false_positives
                );
                println!(
                    "overall: {} dependencies, {} FP ({:.1}%)",
                    eval.unique.total(),
                    eval.unique.total_fp(),
                    100.0 * eval.overall_fp_rate()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("evaluation failed: {e}");
                ExitCode::FAILURE
            }
        },
        "check-docs" => match ecosystem_arg(&args).map(|eco| run_condocck_for(&eco)) {
            Err(code) => code,
            Ok(Ok(issues)) => {
                for (i, issue) in issues.iter().enumerate() {
                    println!("{:2}. [{}] {}", i + 1, issue.manual, issue.dependency);
                }
                println!("\n{} documentation issues", issues.len());
                if issues.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE }
            }
            Ok(Err(e)) => {
                eprintln!("ConDocCk failed: {e}");
                ExitCode::FAILURE
            }
        },
        "check-handling" => {
            let eco = match ecosystem_arg(&args) {
                Ok(eco) => eco,
                Err(code) => return code,
            };
            let outcomes =
                if eco.name == "f2fs" { run_conhandleck_f2fs() } else { run_conhandleck() };
            let mut bad = 0;
            for o in &outcomes {
                let verdict = match &o.handling {
                    Handling::Graceful { .. } => "graceful",
                    Handling::Accepted => "accepted",
                    Handling::BadHandling { .. } => {
                        bad += 1;
                        "BAD HANDLING"
                    }
                };
                println!("case {:2} [{verdict:>12}] {}", o.case.id, o.case.description);
            }
            println!("\n{} cases, {} bad handling", outcomes.len(), bad);
            if bad == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE }
        }
        "fuzz" => {
            let count: usize =
                value(&args, "--count").and_then(|v| v.parse().ok()).unwrap_or(40);
            let seed: u64 = value(&args, "--seed").and_then(|v| v.parse().ok()).unwrap_or(2022);
            // 0 = one worker per core; the campaign's tallies are
            // deterministic regardless of the worker count
            let threads: usize =
                value(&args, "--threads").and_then(|v| v.parse().ok()).unwrap_or(0);
            let with_solver = flag(&args, "--solver");
            let as_json = flag(&args, "--json");
            let store_path = value(&args, "--store").map(PathBuf::from);
            let eco = match ecosystem_arg(&args) {
                Ok(eco) => eco,
                Err(code) => return code,
            };
            let set = match eco.constraints() {
                Ok(set) => set,
                Err(e) => {
                    eprintln!("extraction failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let solver_opts = FuzzOptions {
                seed,
                rounds: 4,
                batch: count.div_ceil(4).max(1),
                threads,
                strategy: Strategy::Solver,
                store_path,
            };
            if eco.name != "ext4" {
                // the aware/naive arms are the paper's ext4 ablation
                // baselines; other ecosystems run the solver-guided
                // campaign, which generates from the ecosystem's scope
                let harness =
                    if eco.name == "f2fs" { Harness::f2fs() } else { Harness::ext4() };
                let report = fuzz_campaign_with(&set, &solver_opts, &harness).report;
                if as_json {
                    match serde_json::to_string_pretty(&report) {
                        Ok(json) => println!("{json}"),
                        Err(e) => {
                            eprintln!("JSON encoding failed: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                } else {
                    println!(
                        "solver-guided ({}): {}/{} deep, polarity coverage {}/{} ({:.0}%), \
                         {} fresh executions in {} ms",
                        eco.name,
                        report.deep,
                        report.unique_verdicts,
                        report.coverage_covered,
                        report.coverage_universe,
                        100.0 * report.coverage_fraction,
                        report.executed_fresh,
                        report.wall_ms
                    );
                }
                return ExitCode::SUCCESS;
            }
            let mut gen = match ConBugCk::new(seed) {
                Ok(g) => g,
                Err(e) => {
                    eprintln!("generator failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let solver = Solver::new(&set);
            let aware_cfgs = gen.generate(count);
            let naive_cfgs = generate_naive(seed, count);
            let aware = campaign(&aware_cfgs, threads);
            let naive = campaign(&naive_cfgs, threads);
            let arm = |cfgs: &[confdep_suite::contools::GeneratedConfig],
                       campaign: &confdep_suite::contools::ConfigCampaign| {
                let mut cov = PolarityCoverage::new(&solver);
                for cfg in cfgs {
                    cov.observe(&solver, cfg);
                }
                FuzzCliArm {
                    deep: campaign.deep,
                    total: campaign.total,
                    deep_rate: campaign.deep_rate(),
                    coverage_covered: cov.covered(),
                    coverage_universe: cov.universe(),
                    coverage_fraction: cov.fraction(),
                }
            };
            let report = FuzzCliReport {
                count,
                seed,
                threads,
                aware: arm(&aware_cfgs, &aware),
                naive: arm(&naive_cfgs, &naive),
                solver: with_solver
                    .then(|| fuzz_campaign_with(&set, &solver_opts, &Harness::ext4()).report),
            };
            if as_json {
                match serde_json::to_string_pretty(&report) {
                    Ok(json) => println!("{json}"),
                    Err(e) => {
                        eprintln!("JSON encoding failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                return ExitCode::SUCCESS;
            }
            println!(
                "dependency-aware: {}/{} deep ({:.0}%), polarity coverage {}/{}",
                report.aware.deep,
                report.aware.total,
                100.0 * report.aware.deep_rate,
                report.aware.coverage_covered,
                report.aware.coverage_universe
            );
            println!(
                "naive random    : {}/{} deep ({:.0}%), polarity coverage {}/{}",
                report.naive.deep,
                report.naive.total,
                100.0 * report.naive.deep_rate,
                report.naive.coverage_covered,
                report.naive.coverage_universe
            );
            if let Some(s) = &report.solver {
                println!(
                    "solver-guided   : {}/{} deep, polarity coverage {}/{} ({:.0}%), \
                     {} unique verdicts ({} fresh) in {} ms",
                    s.deep,
                    s.unique_verdicts,
                    s.coverage_covered,
                    s.coverage_universe,
                    100.0 * s.coverage_fraction,
                    s.unique_verdicts,
                    s.executed_fresh,
                    s.wall_ms
                );
            }
            ExitCode::SUCCESS
        }
        "validate" => {
            let as_json = flag(&args, "--json");
            let with_explain = flag(&args, "--explain");
            let with_repair = flag(&args, "--repair");
            let naive = flag(&args, "--naive");
            let threads: usize =
                value(&args, "--threads").and_then(|v| v.parse().ok()).unwrap_or(0);
            let batch_path = value(&args, "--batch");
            let eco = match ecosystem_arg(&args) {
                Ok(eco) => eco,
                Err(code) => return code,
            };
            // an explicit --ecosystem tags queries with namespaced
            // `eco#` state keys; the bare spelling keeps the historical
            // untagged ext4 identity (and wire format) byte-identical
            let tagged = value(&args, "--ecosystem").is_some();
            let parse = |line: &str| {
                if tagged {
                    ConfigQuery::parse_line_for(&eco, line)
                } else {
                    ConfigQuery::parse_line(line)
                }
            };
            // everything that is not a recognised option is query text
            let mut words: Vec<String> = Vec::new();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--batch" | "--threads" | "--ecosystem" => {
                        it.next();
                    }
                    "--json" | "--explain" | "--repair" | "--naive" => {}
                    _ => words.push(a.clone()),
                }
            }
            let queries: Vec<ConfigQuery> = match &batch_path {
                Some(path) => match std::fs::read_to_string(path) {
                    Ok(text) => text.lines().filter_map(&parse).collect(),
                    Err(e) => {
                        eprintln!("cannot read {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                None => {
                    let line = words.join(" ");
                    match parse(&line) {
                        Some(q) => vec![q],
                        None => {
                            eprintln!(
                                "usage: confdep validate [--ecosystem E] \
                                 '<create args> | <mount opts>' \
                                 [--batch FILE] [--threads N] [--json] [--explain] \
                                 [--repair] [--naive]"
                            );
                            return ExitCode::from(2);
                        }
                    }
                }
            };
            if queries.is_empty() {
                eprintln!("no queries parsed");
                return ExitCode::from(2);
            }
            let set = match eco.constraints() {
                Ok(set) => set,
                Err(e) => {
                    eprintln!("extraction failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let plan = std::sync::Arc::new(ValidationPlan::compile_for(set, eco));
            let options = if naive { EngineOptions::naive() } else { EngineOptions::serving() };
            let engine = ValidationEngine::new(plan, options);
            let outcomes = engine.validate_many(&queries, threads);
            let constraints = engine.plan().constraints().constraints();
            let results: Vec<ValidateRow> = queries
                .iter()
                .zip(&outcomes)
                .map(|(q, out)| ValidateRow {
                    query: q.state_key(),
                    ok: out.ok(),
                    evaluated: out.evaluated,
                    memo_hit: out.memo_hit,
                    satisfied: out.satisfied(),
                    violations: out
                        .violations()
                        .into_iter()
                        .map(|i| constraints[i].signature().to_string())
                        .collect(),
                    explanations: (with_explain && !out.ok()).then(|| engine.explain(q)),
                    repair: (with_repair && !out.ok()).then(|| engine.repair(q)),
                })
                .collect();
            let violating = results.iter().filter(|r| !r.ok).count();
            let report = ValidateCliReport {
                queries: results.len(),
                ok: results.len() - violating,
                violating,
                threads,
                strategy: if naive { "naive".to_string() } else { "indexed+memo".to_string() },
                engine: engine.stats(),
                results,
            };
            if as_json {
                match serde_json::to_string_pretty(&report) {
                    Ok(json) => println!("{json}"),
                    Err(e) => {
                        eprintln!("JSON encoding failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            } else {
                for (i, row) in report.results.iter().enumerate() {
                    if row.ok {
                        println!(
                            "query {:3}: OK ({} satisfied, {} evaluated{})",
                            i + 1,
                            row.satisfied,
                            row.evaluated,
                            if row.memo_hit { ", memo hit" } else { "" }
                        );
                    } else {
                        println!(
                            "query {:3}: {} violation(s) [{}]",
                            i + 1,
                            row.violations.len(),
                            row.query
                        );
                        for sig in &row.violations {
                            println!("           - {sig}");
                        }
                    }
                    if let Some(explanations) = &row.explanations {
                        for e in explanations {
                            println!("           explain: {} (doc: {:?})", e.dependency, e.doc);
                            for ev in &e.evidence {
                                println!("                    evidence: {ev}");
                            }
                        }
                    }
                    if let Some(repair) = &row.repair {
                        for change in &repair.changes {
                            println!(
                                "           repair: {}:{} {}",
                                change.component, change.param, change.action
                            );
                        }
                        for cfg in &repair.configs {
                            println!("           repaired: {}", cfg.canonical_key());
                        }
                        println!(
                            "           repaired config validates clean: {}",
                            repair.clean
                        );
                    }
                }
                let stats = report.engine;
                println!(
                    "\n{} queries: {} ok, {} violating | {:.1} constraints evaluated per \
                     query (of {})",
                    report.queries,
                    report.ok,
                    report.violating,
                    stats.evaluated_per_query(),
                    engine.plan().len()
                );
                if let Some(memo) = stats.memo {
                    println!(
                        "memo: {} hits, {} misses ({:.0}% hit rate), {} entries in {} shards",
                        memo.hits,
                        memo.misses,
                        100.0 * memo.hit_rate(),
                        memo.entries,
                        memo.shards
                    );
                }
            }
            if violating == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE }
        }
        "study" => {
            let t3 = study::classify_corpus();
            println!(
                "bug study : {} bugs | SD {:.1}% CPD {:.1}% CCD {:.1}%",
                t3.total.bugs,
                t3.total.sd_pct(),
                t3.total.cpd_pct(),
                t3.total.ccd_pct()
            );
            println!(
                "taxonomy  : {} critical dependencies, {}/7 sub-categories observed",
                study::total_critical_deps(),
                study::observed_sub_categories()
            );
            for row in study::coverage_table() {
                println!(
                    "coverage  : {:<14} {:<10} {:>3} of >{} ({:.1}%)",
                    row.suite,
                    row.target,
                    row.used,
                    row.total - 1,
                    row.pct()
                );
            }
            println!("catalog   : {} file systems with multi-stage configuration", study::fs_catalog().len());
            ExitCode::SUCCESS
        }
        "component" => {
            let Some(name) = args.get(1) else {
                eprintln!("usage: confdep component <name> [args...]");
                return ExitCode::from(2);
            };
            let Some((eco, comp)) = ecosys::resolve(name) else {
                let known: Vec<String> = ecosys::all()
                    .iter()
                    .flat_map(|e| {
                        e.components()
                            .iter()
                            .map(|c| format!("{}:{}", e.name, c.name()))
                            .collect::<Vec<_>>()
                    })
                    .collect();
                eprintln!(
                    "unknown or ambiguous component: {name} (expected one of {})",
                    known.join(", ")
                );
                return ExitCode::from(2);
            };
            let rest: Vec<&str> = args[2..].iter().map(String::as_str).collect();
            let cfg = match comp.parse_config(&rest) {
                Ok(cfg) => cfg,
                Err(e) => {
                    eprintln!("{name}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("config: {}", cfg.canonical_key());
            // a create-stage component starts from a blank device (mke2fs
            // gets 16 MiB sized to the configured block size); every other
            // component operates on its ecosystem's freshly formatted
            // standard image
            let dev = if comp.name() == "mke2fs" {
                let bs = cfg.get_int("blocksize").unwrap_or(1024).clamp(1024, 65536) as u32;
                MemDevice::new(bs, (16 << 20) / u64::from(bs))
            } else if comp.name() == eco.create_component {
                MemDevice::new(4096, 8192)
            } else if eco.name == "f2fs" {
                standard_f2fs_image(&[])
            } else {
                standard_image("")
            };
            match comp.run(&rest, dev) {
                Ok(out) => {
                    println!("{}", out.summary);
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{name}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "cross-fs" => {
            let ccds = ecosys::cross_fs_ccds();
            for d in &ccds {
                println!("{d}");
            }
            println!(
                "\n{} cross-ecosystem dependencies over shared mount parameters: {}",
                ccds.len(),
                ecosys::shared_mount_params().join(", ")
            );
            let Some(spec) = value(&args, "--check") else { return ExitCode::SUCCESS };
            let Some((ext4_opts, f2fs_opts)) = spec.split_once('|') else {
                eprintln!("--check expects '<ext4 mount opts> | <f2fs mount opts>'");
                return ExitCode::from(2);
            };
            let ext4_cfg = (ecosys::ext4().solver_scope().parse_mount)(ext4_opts.trim());
            let f2fs_cfg = (ecosys::f2fs().solver_scope().parse_mount)(f2fs_opts.trim());
            let plan = std::sync::Arc::new(ValidationPlan::compile_for(
                ecosys::cross_fs_constraints(),
                ecosys::ext4(),
            ));
            let engine = ValidationEngine::new(plan, EngineOptions::serving());
            let query = ConfigQuery::new(vec![ext4_cfg, f2fs_cfg]);
            let outcome = engine.validate(&query);
            if outcome.ok() {
                println!(
                    "agreement: OK ({} shared-parameter constraint(s) checked, none violated)",
                    outcome.satisfied()
                );
                ExitCode::SUCCESS
            } else {
                for e in engine.explain(&query) {
                    println!("disagreement: {}", e.dependency);
                    for ev in &e.evidence {
                        println!("              evidence: {ev}");
                    }
                }
                println!("\n{} agreement violation(s)", outcome.violations().len());
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}
