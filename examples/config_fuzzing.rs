//! ConBugCk: dependency-aware configuration generation for deeper
//! testing. Compares how often naive random configurations and
//! dependency-respecting configurations get past shallow validation into
//! deep code (format + mount + workload + clean fsck).
//!
//! Run with: `cargo run --example config_fuzzing [count] [seed]`

use confdep_suite::contools::conbugck::{campaign, execute, generate_naive, ConBugCk, RunDepth};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args().nth(1).and_then(|v| v.parse().ok()).unwrap_or(50);
    let seed: u64 = std::env::args().nth(2).and_then(|v| v.parse().ok()).unwrap_or(2022);

    let mut gen = ConBugCk::new(seed)?;
    println!("generator steered by {} compiled constraints", gen.constraints().len());

    let aware_configs = gen.generate(n);
    let naive_configs = generate_naive(seed, n);

    println!("\nsample dependency-aware configurations:");
    for cfg in aware_configs.iter().take(5) {
        let depth = execute(cfg);
        println!("  mke2fs {:?} + mount -o '{}' -> {:?}", cfg.mkfs_args, cfg.mount_opts, depth);
        assert_ne!(depth, RunDepth::RejectedCli, "aware configs never die at the CLI");
    }

    // one worker per core: the tally does not depend on the count
    let aware = campaign(&aware_configs, 0);
    let naive = campaign(&naive_configs, 0);

    println!("\n{:<22} {:>6} {:>8} {:>8} {:>8} {:>8}", "strategy", "total", "cli-rej", "fmt-rej", "mnt-rej", "deep");
    println!(
        "{:<22} {:>6} {:>8} {:>8} {:>8} {:>8}",
        "dependency-aware", aware.total, aware.rejected_cli, aware.rejected_format, aware.rejected_mount, aware.deep
    );
    println!(
        "{:<22} {:>6} {:>8} {:>8} {:>8} {:>8}",
        "naive random", naive.total, naive.rejected_cli, naive.rejected_format, naive.rejected_mount, naive.deep
    );
    println!(
        "\ndeep-run rate: aware {:.0}% vs naive {:.0}%",
        100.0 * aware.deep_rate(),
        100.0 * naive.deep_rate()
    );
    println!("respecting the extracted dependencies avoids shallow early crashes (§4.2, ConBugCk)");
    Ok(())
}
