//! Benchmark and table-regeneration harness.
//!
//! One binary per table/figure of the paper:
//!
//! | Target | Regenerates |
//! |---|---|
//! | `repro_table1` | Table 1 — configuration methods of 8 file systems |
//! | `repro_table2` | Table 2 — configuration coverage of test suites |
//! | `repro_table3` | Table 3 — bug distribution over usage scenarios |
//! | `repro_table4` | Table 4 — the dependency taxonomy (132 critical deps) |
//! | `repro_table5` | Table 5 — extraction results with false positives |
//! | `repro_fig1`   | Figure 1 — the sparse_super2 resize corruption |
//! | `repro_fig2`   | Figure 2 — the four configuration stages |
//! | `repro_sec43`  | §4.3 — ConDocCk (12 issues) + ConHandleCk (1 bad case) |
//! | `ablation`     | bridge / inter-procedural / ConBugCk ablations |
//!
//! Criterion performance benches live under `benches/`.
//!
//! [`synth`] generates seeded synthetic CIR programs for the analyzer
//! benchmark (`repro_analyzer`) and the engine-equivalence property
//! tests.

pub mod synth;

pub use synth::{synth_model, SplitMix64, SynthSpec};

/// Renders an ASCII table: a header row plus data rows, columns padded.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
        }
        line.trim_end().to_string()
    };
    out.push_str(&fmt_row(header.iter().map(|s| s.to_string()).collect(), &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
        out.push('\n');
    }
    out
}

/// Formats a percentage like the paper ("97.0%").
pub fn pct(v: f64) -> String {
    format!("{v:.1}%")
}

/// Formats "count (pct%)" cells.
pub fn count_pct(count: usize, total: usize) -> String {
    if total == 0 {
        "-".to_string()
    } else {
        format!("{} ({:.1}%)", count, 100.0 * count as f64 / total as f64)
    }
}

/// Formats "count (FP pct%)" cells for Table 5; "-" when nothing was
/// extracted.
pub fn fp_cell(extracted: usize, fp: usize) -> String {
    if extracted == 0 {
        "0 / -".to_string()
    } else if fp == 0 {
        format!("{extracted} / 0")
    } else {
        format!("{extracted} / {fp} ({:.1}%)", 100.0 * fp as f64 / extracted as f64)
    }
}

/// The machine a benchmark ran on, recorded in its BENCH JSON so a
/// timing is never read without its core count, toolchain and revision.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Host {
    /// Cores available to this process.
    pub cores: usize,
    /// `rustc -V` output ("unknown" when rustc is not on the path).
    pub rustc: String,
    /// `git rev-parse HEAD` of the working directory ("unknown" outside
    /// a git work tree).
    pub revision: String,
    /// Worker count asked for on the command line (0 = one per core).
    pub threads_requested: usize,
    /// Worker count the benchmark actually used.
    pub threads: usize,
    /// The request exceeded the core count and was lowered to it.
    pub threads_clamped: bool,
}

impl Host {
    /// Probes the host and resolves `requested` workers against its
    /// core count (see [`clamp_threads`]).
    pub fn probe(requested: usize) -> Host {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let threads = clamp_threads(requested, cores);
        Host {
            cores,
            rustc: command_output("rustc", &["-V"]),
            revision: command_output("git", &["rev-parse", "HEAD"]),
            threads_requested: requested,
            threads,
            threads_clamped: requested > cores,
        }
    }
}

/// Resolves a requested worker count against `cores`: `0` means one
/// per core, and a request above the core count is lowered to it — more
/// workers than cores would only time-slice, not scale.
pub fn clamp_threads(requested: usize, cores: usize) -> usize {
    if requested == 0 {
        cores
    } else {
        requested.min(cores)
    }
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_requests_clamp_to_cores() {
        assert_eq!(clamp_threads(0, 2), 2);
        assert_eq!(clamp_threads(1, 2), 1);
        assert_eq!(clamp_threads(4, 2), 2);
        let host = Host::probe(usize::MAX);
        assert!(host.threads_clamped);
        assert_eq!(host.threads, host.cores);
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            "T",
            &["a", "long-header"],
            &[vec!["x".into(), "y".into()], vec!["wide-cell".into(), "z".into()]],
        );
        assert!(t.contains("== T =="));
        assert!(t.contains("long-header"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(97.0), "97.0%");
        assert_eq!(count_pct(65, 67), "65 (97.0%)");
        assert_eq!(count_pct(0, 0), "-");
    }

    #[test]
    fn fp_cells() {
        assert_eq!(fp_cell(0, 0), "0 / -");
        assert_eq!(fp_cell(24, 0), "24 / 0");
        assert_eq!(fp_cell(32, 3), "32 / 3 (9.4%)");
    }
}
