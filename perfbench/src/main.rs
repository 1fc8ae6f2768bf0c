//! The pipeline benchmark's command.
//!
//! ```text
//! perfbench --workload serve|campaign|extract --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the named workload is set up several times (the
//! median is `setup_s`), then runs rounds for `S` seconds untraced; the
//! end-to-end metrics follow. With `--trace 1` all three workloads run,
//! each alternating untraced and traced rounds, and the per-layer
//! metrics come from the spans of the traced rounds; the named
//! workload's round-time gap between the two is the tracing overhead.
//!
//! Human-readable lines go first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! The same result, with the host block, is written under
//! `.perfbench_out/`, and a traced run also writes its spans there.
//! Exits 1 when an output check failed and 2 on bad arguments.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use perfbench::campaign::Campaign;
use perfbench::extract::Extract;
use perfbench::serve::Serve;
use perfbench::{stats, trace, Config, Metric, Tally, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest timed rounds per untraced run.
const MIN_ROUNDS: usize = 2;

const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} needs {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("whole seconds"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !["serve", "campaign", "extract"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be serve, campaign or extract, got {:?}",
            args.workload
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(args)
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The host block: cores, toolchain, revision, seed and leg threads.
fn host_json(args: &Args, cores: usize, legs: &[(&'static str, usize)]) -> String {
    let rustc = command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string());
    // only a checkout that is itself a git work tree has a revision
    let revision = Path::new(".git")
        .exists()
        .then(|| command_output("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".to_string());
    let threads: Vec<String> = legs
        .iter()
        .map(|(leg, n)| format!("{}: {n}", json_str(leg)))
        .collect();
    format!(
        "{{\"cores\": {cores}, \"rustc\": {}, \"revision\": {}, \"workload\": {}, \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"threads\": {{{}}}}}",
        json_str(&rustc),
        json_str(&revision),
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        threads.join(", ")
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// One aligned `name value unit` line per metric.
fn metric_lines(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| format!("  {:<34} {:>16.4} {}\n", m.name, m.value, m.unit))
        .collect()
}

/// What an untraced run measured.
struct Untraced {
    end_to_end: Vec<Metric>,
    named: Vec<Metric>,
    tally: Tally,
    threads: Vec<(&'static str, usize)>,
}

/// Untraced run: `SETUP_REPS` timed set-ups, one untimed warm-up
/// round, then rounds for `seconds`.
fn run_untraced<W: Workload>(cfg: &Config, seconds: u64) -> Untraced {
    let mut setups = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        drop(workload.take());
        let start = Instant::now();
        workload = Some(W::setup(cfg));
        setups.push(stats::secs(start));
    }
    let mut w = workload.expect("at least one set-up ran");
    // one untimed round first, so caches and allocations are warm; its
    // output checks still count
    let mut tally = Tally::default();
    w.round(0, &mut tally);
    tally.discard_timings();
    let mut round = 1;
    while round <= MIN_ROUNDS || tally.rounds_s.iter().sum::<f64>() < seconds as f64 {
        w.round(round, &mut tally);
        round += 1;
    }
    let mut named = w.finish(&mut tally);
    let end_to_end = vec![
        Metric::new("setup_s", stats::median(&setups), "s"),
        Metric::new("wall_s", stats::median(&tally.rounds_s), "s"),
        Metric::new("peak_rss_mb", stats::peak_rss_mb(), "MB"),
        Metric::new(
            "ops_per_s",
            stats::ratio(tally.requests as f64, tally.request_s),
            "1/s",
        ),
        Metric::new("p50_us", stats::median(&tally.latencies_ns) / 1e3, "us"),
        Metric::new(
            "p99_us",
            stats::quantile(&tally.latencies_ns, 0.99) / 1e3,
            "us",
        ),
    ];
    named.push(Metric::new(
        &format!("{}.rounds", W::NAME),
        tally.rounds_s.len() as f64,
        "count",
    ));
    named.push(Metric::new(
        &format!("{}.requests", W::NAME),
        tally.requests as f64,
        "count",
    ));
    named.push(Metric::new(
        &format!("{}.fail_ratio", W::NAME),
        stats::ratio(tally.failed as f64, tally.attempted as f64),
        "ratio",
    ));
    Untraced {
        end_to_end,
        named,
        tally,
        threads: w.threads(),
    }
}

/// One workload's share of the traced run.
struct TracedPart {
    name: &'static str,
    metrics: Vec<Metric>,
    untraced_s: f64,
    traced_s: f64,
    table: Vec<(String, f64, f64)>,
    threads: Vec<(&'static str, usize)>,
}

/// How the traced run drives one workload: at least `min_rounds` rounds
/// and `budget` seconds of them, every `traced_every`-th round traced.
struct TracePlan {
    min_rounds: usize,
    budget: f64,
    traced_every: usize,
}

/// Traced run of one workload: a traced set-up, untraced rounds with
/// every `traced_every`-th one traced, a traced probe, then the
/// per-layer metrics from its spans.
fn run_traced<W: Workload>(
    cfg: &Config,
    plan: &TracePlan,
    tally: &mut Tally,
) -> (TracedPart, Vec<trace::Span>) {
    let first_span = trace::mark();
    trace::set_enabled(true);
    let mut w = {
        let _span = trace::span("bench.setup");
        W::setup(cfg)
    };
    trace::set_enabled(false);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut round = 0;
    while round < plan.min_rounds || untraced.iter().chain(&traced).sum::<f64>() < plan.budget {
        let on = round % plan.traced_every == plan.traced_every - 1;
        trace::set_enabled(on);
        let start = Instant::now();
        w.round(round, tally);
        let took = stats::secs(start);
        trace::set_enabled(false);
        if on {
            traced.push(took)
        } else {
            untraced.push(took)
        }
        round += 1;
    }
    trace::set_enabled(true);
    {
        let _span = trace::span("bench.probe");
        w.probe();
    }
    trace::set_enabled(false);
    w.finish(tally);
    let spans: Vec<trace::Span> = trace::snapshot()
        .into_iter()
        .filter(|s| s.id >= first_span)
        .collect();
    let metrics = w.layer_metrics(&spans);

    // self time per span name over the traced rounds' span trees
    let round_name = format!("{}.round", W::NAME);
    let mut in_rounds = Vec::new();
    for root in spans.iter().filter(|s| s.name == round_name) {
        in_rounds.extend(trace::subtree(&spans, root.id));
    }
    let by_name = trace::self_time_by_name(&in_rounds);
    let total: u64 = by_name.values().sum();
    let n = traced.len().max(1) as f64;
    let table = by_name
        .into_iter()
        .map(|(name, ns)| {
            (
                name.to_string(),
                ns as f64 / 1e9 / n,
                stats::ratio(ns as f64, total as f64),
            )
        })
        .collect();
    let part = TracedPart {
        name: W::NAME,
        metrics,
        untraced_s: stats::median(&untraced),
        traced_s: stats::median(&traced),
        table,
        threads: w.threads(),
    };
    (part, spans)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload serve|campaign|extract --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let scratch = PathBuf::from(OUT_DIR).join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let cfg = Config {
        seed: args.seed,
        threads: cores,
        scratch: scratch.clone(),
    };

    let (metrics, tally, legs, extra) = if args.trace {
        let mut tally = Tally::default();
        // serve runs for the full time so its memo fills and evicts,
        // tracing one round in eight to keep the span log small
        let serve_plan = TracePlan {
            min_rounds: 16,
            budget: args.seconds as f64,
            traced_every: 8,
        };
        let pair = TracePlan {
            min_rounds: 2,
            budget: 0.0,
            traced_every: 2,
        };
        let (serve, mut spans) = run_traced::<Serve>(&cfg, &serve_plan, &mut tally);
        let (campaign, s2) = run_traced::<Campaign>(&cfg, &pair, &mut tally);
        let (extract, s3) = run_traced::<Extract>(&cfg, &pair, &mut tally);
        spans.extend(s2);
        spans.extend(s3);
        let parts = [serve, campaign, extract];
        let mut report = String::new();
        let mut metrics = Vec::new();
        let mut legs = Vec::new();
        for p in &parts {
            let _ = writeln!(
                report,
                "{}: round untraced {:.4} s, traced {:.4} s, tracing overhead {:+.4} s",
                p.name,
                p.untraced_s,
                p.traced_s,
                p.traced_s - p.untraced_s
            );
            let _ = writeln!(
                report,
                "  {:<28} {:>12} {:>8}",
                "span (layer.call)", "self s/round", "share"
            );
            for (name, s, share) in &p.table {
                let _ = writeln!(report, "  {name:<28} {s:>12.4} {:>7.1}%", 100.0 * share);
            }
            metrics.extend(p.metrics.iter().cloned());
            legs.extend(p.threads.iter().copied());
        }
        let own = parts
            .iter()
            .find(|p| p.name == args.workload)
            .expect("the named workload ran");
        metrics.push(Metric::new(
            "trace.overhead_s",
            own.traced_s - own.untraced_s,
            "s",
        ));
        let path = PathBuf::from(OUT_DIR).join(format!("trace-{}.tsv", args.workload));
        if let Err(e) = trace::write_tsv(&spans, &path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        let _ = writeln!(
            report,
            "{} spans written to {}",
            spans.len(),
            path.display()
        );
        (metrics, tally, legs, report)
    } else {
        let run = match args.workload.as_str() {
            "serve" => run_untraced::<Serve>(&cfg, args.seconds),
            "campaign" => run_untraced::<Campaign>(&cfg, args.seconds),
            _ => run_untraced::<Extract>(&cfg, args.seconds),
        };
        let report = metric_lines(&run.named);
        (run.end_to_end, run.tally, run.threads, report)
    };
    let _ = std::fs::remove_dir_all(&scratch);

    let host = host_json(&args, cores, &legs);
    println!("host {host}");
    print!("{extra}");
    for note in &tally.notes {
        println!("note: {note}");
    }
    for problem in tally.problems.iter().take(20) {
        println!("FAILED: {problem}");
    }
    println!(
        "{} metrics",
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        }
    );
    print!("{}", metric_lines(&metrics));
    let correct = tally.failed == 0 && tally.attempted > 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics_json(&metrics)
    );
    let saved = format!("{{\"host\": {host}, \"result\": {result}}}\n");
    let path = PathBuf::from(OUT_DIR).join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, saved) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
