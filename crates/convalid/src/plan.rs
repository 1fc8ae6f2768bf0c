//! The immutable, read-optimized validation plan compiled from a
//! [`ConstraintSet`].
//!
//! Compilation happens once at startup; every query afterwards reads
//! the plan lock-free. Each constraint already carries its pre-resolved
//! [`confdep::Predicate`] (lowered once by `Constraint::new`), so the
//! plan adds only what serving needs on top: an inverted index from
//! every predicate's subject `(component, registry parameter)` slot to
//! the constraint's position, so a query evaluates only the constraints
//! its touched parameters participate in — everything else is
//! `NotApplicable` by construction (the equivalence argument is spelled
//! out on [`ValidationPlan::evaluate_indexed`]) — and the precomputed
//! documentation verdicts.

use std::collections::HashMap;

use confdep::{ConstraintSet, DocVerdict, Verdict};
use e2fstools::typed::TypedConfig;
use ecosys::Ecosystem;

use crate::query::ConfigQuery;

/// The compiled, immutable serving plan over one constraint set.
///
/// Build once (ideally behind an `Arc`), then serve reads from any
/// number of threads — nothing here is interior-mutable.
#[derive(Debug)]
pub struct ValidationPlan {
    set: ConstraintSet,
    /// The ecosystem the plan serves: its manual corpus supplies the
    /// precomputed documentation verdicts, and its solver scope drives
    /// the repair propagation.
    eco: Ecosystem,
    /// component → registry parameter → positions of the constraints
    /// whose predicate reads that parameter as its *subject*. Two
    /// nested maps so the hot lookup borrows `&str` keys without
    /// allocating.
    by_param: HashMap<String, HashMap<String, Vec<u32>>>,
    docs: Vec<DocVerdict>,
}

impl ValidationPlan {
    /// Compiles the serving plan over the Ext4 ecosystem — the original
    /// single-ecosystem entry point, byte-compatible with every
    /// established call site.
    pub fn compile(set: ConstraintSet) -> Self {
        ValidationPlan::compile_for(set, ecosys::ext4())
    }

    /// Compiles the serving plan for one registered ecosystem: index
    /// each constraint under its predicate's subject slot, and
    /// precompute every constraint's verdict against the *ecosystem's*
    /// manual corpus. The constraint set need not come from the
    /// ecosystem's own models — the cross-ecosystem agreement set
    /// compiles here too.
    pub fn compile_for(set: ConstraintSet, eco: Ecosystem) -> Self {
        let mut by_param: HashMap<String, HashMap<String, Vec<u32>>> = HashMap::new();
        for (i, c) in set.constraints().iter().enumerate() {
            // every engaging predicate needs its subject value (a pair
            // needs both ends), so indexing under the subject alone
            // triggers a constraint whenever it can be non-inert
            if let Some(slot) = c.predicate().subject() {
                by_param
                    .entry(slot.component.clone())
                    .or_default()
                    .entry(slot.param.clone())
                    .or_default()
                    .push(i as u32);
            }
        }
        // the ecosystem's ConDocCk corpus — the same pages the doc
        // checker reads, so an explanation's doc verdict agrees with
        // `run_condocck_for` over the same dependency
        let manuals = eco.doc_corpus();
        let pages: Vec<&e2fstools::ManualPage> = manuals.iter().collect();
        let docs = set.constraints().iter().map(|c| c.doc_verdict(&pages)).collect();
        ValidationPlan { set, eco, by_param, docs }
    }

    /// The underlying compiled constraint set.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.set
    }

    /// The ecosystem the plan was compiled for.
    pub fn ecosystem(&self) -> Ecosystem {
        self.eco
    }

    /// Number of constraints in the plan.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True when the plan holds no constraints.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// The precomputed manual-corpus verdict of the constraint at
    /// `position`.
    pub fn doc_verdict(&self, position: usize) -> DocVerdict {
        self.docs[position]
    }

    /// The baseline: evaluate every compiled constraint directly with
    /// [`confdep::Constraint::evaluate`]. Returns the verdict vector
    /// and the number of constraints evaluated (always the full set).
    pub fn evaluate_naive(&self, views: &[&TypedConfig]) -> (Vec<Verdict>, usize) {
        let verdicts: Vec<Verdict> =
            self.set.constraints().iter().map(|c| c.evaluate(views)).collect();
        let n = verdicts.len();
        (verdicts, n)
    }

    /// The indexed path: evaluate only the constraints whose subject
    /// parameter the query actually sets; every other slot stays
    /// `NotApplicable`. Returns the verdict vector and the number of
    /// constraints evaluated.
    ///
    /// Equivalence with [`ValidationPlan::evaluate_naive`] holds by
    /// construction: a constraint can only evaluate to something other
    /// than `NotApplicable` when its subject parameter has a value in
    /// *some* config matching its component (ranges and types need the
    /// subject value; control pairs need the subject *and* object
    /// values). The index walk visits every config of the query —
    /// duplicate components included — so any such query triggers the
    /// constraint, and a triggered constraint is evaluated by
    /// [`confdep::Constraint::evaluate`] itself — the one evaluator.
    pub fn evaluate_indexed(&self, query: &ConfigQuery) -> (Vec<Verdict>, usize) {
        let views = query.views();
        let constraints = self.set.constraints();
        let mut verdicts = vec![Verdict::NotApplicable; constraints.len()];
        let mut seen = vec![0u64; constraints.len().div_ceil(64)];
        let mut evaluated = 0usize;
        for cfg in &query.configs {
            let Some(params) = self.by_param.get(&cfg.component) else { continue };
            for name in cfg.values.keys() {
                let Some(positions) = params.get(name) else { continue };
                for &pos in positions {
                    let (word, bit) = ((pos / 64) as usize, pos % 64);
                    if seen[word] & (1 << bit) != 0 {
                        continue;
                    }
                    seen[word] |= 1 << bit;
                    verdicts[pos as usize] = constraints[pos as usize].evaluate(&views);
                    evaluated += 1;
                }
            }
        }
        (verdicts, evaluated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confdep::{extract_scenario, models, ExtractOptions, PairMode, Predicate};

    fn plan() -> ValidationPlan {
        ValidationPlan::compile(ConstraintSet::compile(
            extract_scenario(&models::all(), ExtractOptions::default()).unwrap(),
        ))
    }

    #[test]
    fn compiles_full_set() {
        let p = plan();
        assert_eq!(p.len(), 64);
        assert!(!p.is_empty());
        // every engaging constraint is indexed under its subject slot,
        // and inert ones under nothing
        let indexed: usize = p.by_param.values().flat_map(|m| m.values()).map(Vec::len).sum();
        for (i, c) in p.constraints().constraints().iter().enumerate() {
            if let Some(slot) = c.predicate().subject() {
                assert!(p.by_param[&slot.component][&slot.param].contains(&(i as u32)));
            }
        }
        let engaging =
            p.constraints().constraints().iter().filter(|c| c.predicate().subject().is_some());
        assert_eq!(indexed, engaging.count());
    }

    #[test]
    fn indexed_matches_naive_and_skips_untouched() {
        let p = plan();
        let q = ConfigQuery::parse_line(
            "-b 1024 -m 80 -O meta_bg,resize_inode | data=journal,commit=5",
        )
        .unwrap();
        let (naive, full) = p.evaluate_naive(&q.views());
        let (indexed, evaluated) = p.evaluate_indexed(&q);
        assert_eq!(naive, indexed);
        assert_eq!(full, 64);
        assert!(evaluated < full, "indexed evaluated {evaluated} of {full}");
        assert!(naive.contains(&Verdict::Violated), "query built to violate");
    }

    #[test]
    fn empty_query_evaluates_nothing() {
        let p = plan();
        let q = ConfigQuery::parse_line("|").unwrap_or_else(|| ConfigQuery::from_cli(&[], ""));
        let (indexed, evaluated) = p.evaluate_indexed(&q);
        assert_eq!(evaluated, 0);
        assert!(indexed.iter().all(|v| *v == Verdict::NotApplicable));
        let (naive, _) = p.evaluate_naive(&q.views());
        assert_eq!(naive, indexed);
    }

    #[test]
    fn doc_verdicts_precomputed() {
        let p = plan();
        let any_documented =
            (0..p.len()).any(|i| p.doc_verdict(i) == confdep::DocVerdict::Documented);
        assert!(any_documented);
    }

    #[test]
    fn doc_verdicts_use_the_ecosystem_corpus() {
        // the plan reads the same corpus as ConDocCk, which carries the
        // ext4 kernel page — so an ext4-subject constraint must never
        // report NoManual
        let p = plan();
        for (i, c) in p.constraints().constraints().iter().enumerate() {
            if c.dependency.subject.component == "ext4" {
                assert_ne!(
                    p.doc_verdict(i),
                    DocVerdict::NoManual,
                    "{} fell back to NoManual despite the kernel page",
                    c.signature()
                );
            }
        }
    }

    #[test]
    fn indexed_falls_through_duplicate_components() {
        // regression: the indexed path used to stop at the *first*
        // config matching a constraint's component, while the direct
        // path falls through duplicates — a query carrying an empty
        // `mke2fs` view before a populated one diverged
        let p = plan();
        let empty = TypedConfig::new("mke2fs");
        let mut populated = TypedConfig::new("mke2fs");
        populated.set_int("blocksize", 99); // violates the 1024..=65536 range
        let q = ConfigQuery::new(vec![empty, populated, TypedConfig::new("mount")]);
        let (naive, _) = p.evaluate_naive(&q.views());
        let (indexed, evaluated) = p.evaluate_indexed(&q);
        assert_eq!(naive, indexed, "indexed diverged on duplicate components");
        assert!(evaluated > 0);
        assert!(naive.contains(&Verdict::Violated), "the range violation must surface");
    }

    #[test]
    fn cross_fs_agreement_set_compiles_and_serves() {
        // the cross-ecosystem shared-mount-parameter CCDs flow through
        // the same plan machinery: "must agree" pairs violate exactly
        // when both ends hold *different* values, on both eval paths
        let p = ValidationPlan::compile_for(ecosys::cross_fs_constraints(), ecosys::ext4());
        assert!(!p.is_empty());
        assert!(p.constraints().constraints().iter().all(|c| matches!(
            c.predicate(),
            Predicate::Pair { subject, object, mode: PairMode::Agrees }
                if subject.component != object.component
        )));
        let mut ext4_mnt = TypedConfig::new("mount");
        let mut f2fs_mnt = TypedConfig::new("f2fs");
        ext4_mnt.set_bool("discard", true);
        f2fs_mnt.set_bool("discard", false);
        let q = ConfigQuery::new(vec![ext4_mnt.clone(), f2fs_mnt.clone()]);
        let (naive, _) = p.evaluate_naive(&q.views());
        let (indexed, _) = p.evaluate_indexed(&q);
        assert_eq!(naive, indexed, "must-agree pairs diverged between eval paths");
        assert!(naive.contains(&Verdict::Violated), "divergent discard must violate");
        // agreement satisfies
        f2fs_mnt.set_bool("discard", true);
        let q = ConfigQuery::new(vec![ext4_mnt, f2fs_mnt]);
        let (naive, _) = p.evaluate_naive(&q.views());
        let (indexed, _) = p.evaluate_indexed(&q);
        assert_eq!(naive, indexed);
        assert!(!naive.contains(&Verdict::Violated));
        assert!(naive.contains(&Verdict::Satisfied));
    }

    #[test]
    fn f2fs_plan_serves_the_second_ecosystem() {
        let eco = ecosys::f2fs();
        let p = ValidationPlan::compile_for(eco.constraints().unwrap(), eco);
        assert!(p.len() >= 25, "only {} f2fs constraints", p.len());
        assert_eq!(p.ecosystem().name, "f2fs");
        // the casefold/encrypt format-time conflict must violate on
        // both paths for a tagged f2fs query
        let q = ConfigQuery::parse_line_for(&eco, "-O casefold,encrypt | ro").unwrap();
        let (naive, full) = p.evaluate_naive(&q.views());
        let (indexed, evaluated) = p.evaluate_indexed(&q);
        assert_eq!(naive, indexed);
        assert!(evaluated < full, "indexed evaluated {evaluated} of {full}");
        assert!(naive.contains(&Verdict::Violated));
    }
}
