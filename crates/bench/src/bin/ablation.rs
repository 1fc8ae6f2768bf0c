//! Ablation experiments for the design choices DESIGN.md calls out:
//!
//! 1. **Metadata bridging** — disabling the shared-metadata bridge
//!    removes every CCD (the paper's key idea is what finds them).
//! 2. **Intra- vs inter-procedural taint** — the paper attributes its
//!    low CCD count to the intra-procedural prototype; the extension
//!    recovers the known-missed dependencies.
//! 3. **ConBugCk** — dependency-aware configuration generation reaches
//!    deep code far more often than naive random generation.

use confdep::{Evaluation, ExtractOptions};
use contools::conbugck::{campaign, coverage, generate_naive, ConBugCk};

fn main() {
    println!("== Ablation 1: the shared-metadata bridge ==");
    let with = Evaluation::run(ExtractOptions::default()).expect("models compile");
    let without = Evaluation::run(ExtractOptions { disable_bridge: true, ..Default::default() })
        .expect("models compile");
    println!(
        "bridge ON : SD {} CPD {} CCD {} (total {})",
        with.unique.sd.extracted,
        with.unique.cpd.extracted,
        with.unique.ccd.extracted,
        with.unique.total()
    );
    println!(
        "bridge OFF: SD {} CPD {} CCD {} (total {})",
        without.unique.sd.extracted,
        without.unique.cpd.extracted,
        without.unique.ccd.extracted,
        without.unique.total()
    );
    println!("-> without the bridge, no cross-component dependency is extractable");
    println!();

    println!("== Ablation 2: intra- vs inter-procedural taint ==");
    let inter = Evaluation::run(ExtractOptions { interprocedural: true, ..Default::default() })
        .expect("models compile");
    println!(
        "intra (paper's prototype): SD {} CPD {} CCD {} (total {})",
        with.unique.sd.extracted,
        with.unique.cpd.extracted,
        with.unique.ccd.extracted,
        with.unique.total()
    );
    println!(
        "inter (future work)      : SD {} CPD {} CCD {} (total {})",
        inter.unique.sd.extracted,
        inter.unique.cpd.extracted,
        inter.unique.ccd.extracted,
        inter.unique.total()
    );
    println!(
        "precision/recall: intra {:.1}%/{:.1}%  inter {:.1}%/{:.1}%",
        100.0 * with.precision(),
        100.0 * with.recall(),
        100.0 * inter.precision(),
        100.0 * inter.recall()
    );
    println!("known dependencies the intra prototype misses:");
    for (sig, why) in confdep::ground_truth::known_missed_by_prototype() {
        let found = inter.unique.deps.iter().any(|d| d.signature() == sig);
        println!("  [{}] {sig}\n       ({why})", if found { "recovered" } else { "still missed" });
    }
    println!();

    println!("== Ablation 3: ConBugCk dependency-aware generation ==");
    let n = 60;
    let mut gen = ConBugCk::new(2022).expect("models compile");
    // one worker per core: the tally does not depend on the count
    let aware = campaign(&gen.generate(n), 0);
    let naive = campaign(&generate_naive(2022, n), 0);
    println!(
        "aware : {n} configs -> cli-rejected {} | format-rejected {} | mount-rejected {} | deep {} ({:.0}%)",
        aware.rejected_cli,
        aware.rejected_format,
        aware.rejected_mount,
        aware.deep,
        100.0 * aware.deep_rate()
    );
    println!(
        "naive : {n} configs -> cli-rejected {} | format-rejected {} | mount-rejected {} | deep {} ({:.0}%)",
        naive.rejected_cli,
        naive.rejected_format,
        naive.rejected_mount,
        naive.deep,
        100.0 * naive.deep_rate()
    );
    println!("-> respecting dependencies lets the enhanced suite drive deep into the target code");
    let mut gen2 = ConBugCk::new(2022).expect("models compile");
    let cov = coverage(&gen2.generate(n));
    println!(
        "coverage: {} distinct parameters over {} distinct configuration states (vs the fixed-config
          profile of Table 2's suites)",
        cov.distinct_params, cov.distinct_states
    );
}
