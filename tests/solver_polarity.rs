//! Properties of the constraint solver and the coverage-guided
//! campaign built on it.
//!
//! 1. **Witness soundness** — whenever the solver claims a witness for
//!    a `(constraint, polarity)` target, evaluating the constraint on
//!    that witness through `Constraint::evaluate` produces exactly the
//!    requested polarity (boundary witnesses additionally sit on a
//!    finite range bound).
//! 2. **Determinism** — the witness set and every solved config are
//!    stable across solver instances.
//! 3. **Campaign coverage** — a solver-seeded campaign reaches 100% of
//!    the achievable polarity universe on the full 64-dependency set,
//!    which the legacy dependency-aware generator does not.

use std::collections::BTreeSet;

use confdep_suite::confdep::{
    extract_scenario, models, ConstraintSet, ExtractOptions, Polarity, Solver, Verdict,
};
use confdep_suite::contools::fuzz::{
    fuzz_campaign, FuzzOptions, Harness, PolarityCoverage, Strategy,
};
use confdep_suite::contools::ConBugCk;

fn compiled() -> ConstraintSet {
    let deps = extract_scenario(&models::all(), ExtractOptions::default())
        .expect("extraction succeeds on the bundled models");
    ConstraintSet::compile(deps)
}

/// Every witness the solver produces evaluates to the polarity it was
/// solved for, through the same `Constraint::evaluate` the checkers use.
#[test]
fn every_witness_evaluates_to_its_polarity() {
    let set = compiled();
    let solver = Solver::new(&set);
    let witnesses = solver.witness_targets();
    assert!(
        witnesses.len() >= 60,
        "achievable universe collapsed: {} targets",
        witnesses.len()
    );
    for (idx, polarity, witness) in &witnesses {
        let constraint = &solver.constraints().constraints()[*idx];
        let verdict = constraint.evaluate(&[&witness.mkfs, &witness.mount]);
        match polarity {
            Polarity::Satisfy => assert_eq!(
                verdict,
                Verdict::Satisfied,
                "satisfy witness for {} evaluates to {verdict:?}",
                constraint.signature()
            ),
            Polarity::Violate => assert_eq!(
                verdict,
                Verdict::Violated,
                "violate witness for {} evaluates to {verdict:?}",
                constraint.signature()
            ),
            Polarity::Boundary => {
                assert_eq!(
                    verdict,
                    Verdict::Satisfied,
                    "boundary witness for {} evaluates to {verdict:?}",
                    constraint.signature()
                );
                assert!(
                    solver.hits(constraint, Polarity::Boundary, &witness.mkfs, &witness.mount),
                    "boundary witness for {} is not on a finite bound",
                    constraint.signature()
                );
            }
        }
        // the solver's own verification agrees with the direct check
        assert!(solver.hits(constraint, *polarity, &witness.mkfs, &witness.mount));
        // and the witness is renderable into real invocations
        assert!(
            witness.render().is_some(),
            "witness for {} {polarity} does not render",
            constraint.signature()
        );
    }
}

/// Per-signature solving agrees with the witness enumeration: every
/// enumerated target is individually solvable, and a solved config for
/// it hits the same polarity.
#[test]
fn solve_signature_covers_the_enumerated_universe() {
    let set = compiled();
    let solver = Solver::new(&set);
    for (idx, polarity, _) in solver.witness_targets() {
        let constraint = &solver.constraints().constraints()[idx];
        let solved = solver
            .solve_signature(constraint.signature(), polarity)
            .unwrap_or_else(|| {
                panic!("{} {polarity} enumerated but not solvable", constraint.signature())
            });
        assert!(solver.hits(constraint, polarity, &solved.mkfs, &solved.mount));
    }
}

/// The witness set is deterministic across solver instances.
#[test]
fn witnesses_are_deterministic() {
    let set = compiled();
    let a: Vec<_> = Solver::new(&set)
        .witness_targets()
        .into_iter()
        .map(|(i, p, w)| (i, p, w.mkfs.canonical_key(), w.mount.canonical_key()))
        .collect();
    let b: Vec<_> = Solver::new(&set)
        .witness_targets()
        .into_iter()
        .map(|(i, p, w)| (i, p, w.mkfs.canonical_key(), w.mount.canonical_key()))
        .collect();
    assert_eq!(a, b);
}

/// A solver-seeded campaign covers the full achievable universe on the
/// 64-dependency set; the legacy dependency-aware stream alone does not
/// come close — coverage is what the solver buys.
#[test]
fn solver_campaign_reaches_full_polarity_coverage() {
    let set = compiled();
    let opts = FuzzOptions {
        seed: 7,
        rounds: 2,
        batch: 16,
        threads: 1,
        strategy: Strategy::Solver,
        store_path: None,
    };
    let outcome = fuzz_campaign(&set, &opts);
    assert_eq!(
        outcome.report.coverage_covered, outcome.report.coverage_universe,
        "solver campaign missed achievable targets"
    );
    assert!(outcome.report.coverage_universe >= 60);

    // legacy baseline: run the aware generator's stream through the
    // same coverage tracker
    let solver = Solver::new(&set);
    let mut coverage = PolarityCoverage::new(&solver);
    let mut aware = ConBugCk::new(7).expect("generator initialises");
    let mut seen = BTreeSet::new();
    let harness = Harness::ext4();
    for cfg in aware.generate(outcome.report.generated) {
        if seen.insert(harness.state_id(&cfg)) {
            coverage.observe(&solver, &cfg);
        }
    }
    assert!(
        coverage.covered() < outcome.report.coverage_universe / 2,
        "the aware generator unexpectedly covers {} of {} targets",
        coverage.covered(),
        outcome.report.coverage_universe
    );
}

/// The campaign's verdict stream is deterministic in (seed, rounds,
/// batch) and invariant in the worker count.
#[test]
fn campaign_verdicts_are_thread_invariant() {
    let set = compiled();
    let base = FuzzOptions {
        seed: 11,
        rounds: 2,
        batch: 12,
        threads: 1,
        strategy: Strategy::Solver,
        store_path: None,
    };
    let one = fuzz_campaign(&set, &base);
    let four = fuzz_campaign(&set, &FuzzOptions { threads: 4, ..base.clone() });
    assert_eq!(one.verdicts, four.verdicts);
    assert!(one.report.same_verdicts(&four.report));
}
