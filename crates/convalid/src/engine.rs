//! The serving layer: validate, explain, and repair queries over a
//! compiled [`ValidationPlan`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use confdep::{DocVerdict, SolvedConfig, Solver, Verdict};
use e2fstools::typed::TypedConfig;
use serde::{Deserialize, Serialize};

use crate::memo::{MemoOptions, MemoStats, ShardedMemo};
use crate::plan::ValidationPlan;
use crate::query::ConfigQuery;

/// Which evaluation path answers queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvalStrategy {
    /// Evaluate every compiled constraint per query (the baseline).
    Naive,
    /// Evaluate only the constraints the query's parameters engage.
    Indexed,
}

/// Engine configuration: evaluation strategy plus optional memoization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// The evaluation path.
    pub strategy: EvalStrategy,
    /// Memo sizing; `None` disables memoization.
    pub memo: Option<MemoOptions>,
}

impl EngineOptions {
    /// The full-table baseline: every query walks all constraints.
    pub fn naive() -> Self {
        EngineOptions { strategy: EvalStrategy::Naive, memo: None }
    }

    /// Indexed evaluation, no memo.
    pub fn indexed() -> Self {
        EngineOptions { strategy: EvalStrategy::Indexed, memo: None }
    }

    /// The production shape: indexed evaluation behind the sharded
    /// verdict memo.
    pub fn serving() -> Self {
        EngineOptions { strategy: EvalStrategy::Indexed, memo: Some(MemoOptions::default()) }
    }
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions::serving()
    }
}

/// The answer to one query.
#[derive(Debug, Clone)]
pub struct ValidationOutcome {
    /// Per-constraint verdicts, in the plan's constraint order.
    pub verdicts: Arc<[Verdict]>,
    /// Constraints actually evaluated for this answer (0 on a memo
    /// hit).
    pub evaluated: usize,
    /// Whether the memo answered without evaluating.
    pub memo_hit: bool,
}

impl ValidationOutcome {
    /// True when nothing is violated.
    pub fn ok(&self) -> bool {
        !self.verdicts.contains(&Verdict::Violated)
    }

    /// Positions of the violated constraints.
    pub fn violations(&self) -> Vec<usize> {
        self.verdicts
            .iter()
            .enumerate()
            .filter(|(_, v)| **v == Verdict::Violated)
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of satisfied constraints.
    pub fn satisfied(&self) -> usize {
        self.verdicts.iter().filter(|v| **v == Verdict::Satisfied).count()
    }
}

/// One violated constraint, explained.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Explanation {
    /// Position in the plan's constraint order.
    pub position: usize,
    /// The constraint's interned signature.
    pub signature: String,
    /// Taxonomy label (`SD:Value Range`, `CPD:Control`, ...).
    pub kind: String,
    /// Human-readable rendering of the dependency.
    pub dependency: String,
    /// Whether any manual page documents the dependency (precomputed
    /// against the ecosystem's manual corpus at plan compile time).
    pub doc: DocVerdict,
    /// Source-model evidence strings backing the extraction.
    pub evidence: Vec<String>,
}

/// One parameter the repair changed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairChange {
    /// Component of the changed parameter.
    pub component: String,
    /// The parameter (registry name).
    pub param: String,
    /// What happened: `set <value>`, or `removed`.
    pub action: String,
}

/// A proposed minimal satisfying assignment for a violating query.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairProposal {
    /// The repaired configurations, same component order as the query.
    pub configs: Vec<TypedConfig>,
    /// Parameter-level diff against the original query.
    pub changes: Vec<RepairChange>,
    /// Whether the repaired state validates with zero violations (the
    /// invariant the repair loop enforces; recorded for the caller).
    pub clean: bool,
}

/// Cumulative engine counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Queries served.
    pub queries: usize,
    /// Constraints evaluated across all queries (memo hits add 0).
    pub constraints_evaluated: usize,
    /// Memo counters, when memoization is enabled.
    pub memo: Option<MemoStats>,
}

impl EngineStats {
    /// Mean constraints evaluated per query.
    pub fn evaluated_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.constraints_evaluated as f64 / self.queries as f64
        }
    }
}

/// The validation engine: an immutable plan behind `Arc`, an optional
/// sharded memo, and atomic counters — fully `Sync`, no locks on the
/// plan read path.
#[derive(Debug)]
pub struct ValidationEngine {
    plan: Arc<ValidationPlan>,
    strategy: EvalStrategy,
    memo: Option<ShardedMemo>,
    queries: AtomicUsize,
    constraints_evaluated: AtomicUsize,
}

impl ValidationEngine {
    /// Builds an engine over a compiled plan.
    pub fn new(plan: Arc<ValidationPlan>, options: EngineOptions) -> Self {
        ValidationEngine {
            plan,
            strategy: options.strategy,
            memo: options.memo.map(ShardedMemo::new),
            queries: AtomicUsize::new(0),
            constraints_evaluated: AtomicUsize::new(0),
        }
    }

    /// The plan being served.
    pub fn plan(&self) -> &ValidationPlan {
        &self.plan
    }

    fn evaluate(&self, query: &ConfigQuery) -> (Vec<Verdict>, usize) {
        match self.strategy {
            EvalStrategy::Naive => self.plan.evaluate_naive(&query.views()),
            EvalStrategy::Indexed => self.plan.evaluate_indexed(query),
        }
    }

    /// Answers one query: memo lookup (when enabled), then the
    /// configured evaluation path, filling the memo on a miss.
    pub fn validate(&self, query: &ConfigQuery) -> ValidationOutcome {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.validate_uncounted(query)
    }

    /// [`ValidationEngine::validate`] without the per-query counter
    /// bump — the batch path counts whole chunks instead.
    fn validate_uncounted(&self, query: &ConfigQuery) -> ValidationOutcome {
        if let Some(memo) = &self.memo {
            // hot path: stream the FNV fingerprint without rendering the
            // canonical-state string; the memo streams the query's exact
            // key against the stored bytes, so no allocation happens on
            // a hit
            let fingerprint = query.fingerprint();
            if let Some(verdicts) = memo.lookup(fingerprint, query) {
                return ValidationOutcome { verdicts, evaluated: 0, memo_hit: true };
            }
            let (verdicts, evaluated) = self.evaluate(query);
            self.constraints_evaluated.fetch_add(evaluated, Ordering::Relaxed);
            let verdicts: Arc<[Verdict]> = verdicts.into();
            memo.insert(fingerprint, query, Arc::clone(&verdicts));
            return ValidationOutcome { verdicts, evaluated, memo_hit: false };
        }
        let (verdicts, evaluated) = self.evaluate(query);
        self.constraints_evaluated.fetch_add(evaluated, Ordering::Relaxed);
        ValidationOutcome { verdicts: verdicts.into(), evaluated, memo_hit: false }
    }

    /// Fans a batch out over `conpool`'s worker pool, preserving input
    /// order. `threads == 0` uses one worker per core. The batch is
    /// split into contiguous chunks (~8 per worker) so each queue
    /// hand-off amortises over many queries instead of paying the
    /// pool's synchronisation per query.
    pub fn validate_many(
        &self,
        queries: &[ConfigQuery],
        threads: usize,
    ) -> Vec<ValidationOutcome> {
        if queries.is_empty() {
            return Vec::new();
        }
        let workers = conpool::effective_threads(threads);
        let chunk = queries.len().div_ceil(workers.saturating_mul(8).max(1)).max(1);
        let ranges: Vec<std::ops::Range<usize>> = (0..queries.len())
            .step_by(chunk)
            .map(|start| start..(start + chunk).min(queries.len()))
            .collect();
        conpool::parallel_map(ranges, threads, |_, range| {
            self.queries.fetch_add(range.len(), Ordering::Relaxed);
            queries[range].iter().map(|q| self.validate_uncounted(q)).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Explains every violated constraint of a query: signature,
    /// taxonomy kind, rendered dependency, precomputed documentation
    /// verdict, and extraction evidence.
    pub fn explain(&self, query: &ConfigQuery) -> Vec<Explanation> {
        let outcome = self.validate(query);
        let constraints = self.plan.constraints().constraints();
        outcome
            .violations()
            .into_iter()
            .map(|position| {
                let c = &constraints[position];
                Explanation {
                    position,
                    signature: c.signature().to_string(),
                    kind: c.dependency.kind.to_string(),
                    dependency: c.dependency.to_string(),
                    doc: self.plan.doc_verdict(position),
                    evidence: c.dependency.evidence.clone(),
                }
            })
            .collect()
    }

    /// Proposes a minimal satisfying assignment for a violating query.
    ///
    /// Two passes: first [`Solver::repair`] propagates the compiled
    /// constraints over the plan ecosystem's create/mount halves (SD
    /// ranges clamp, data types coerce, control pairs disengage —
    /// touching only parameters that engage a violated constraint),
    /// then any still-violated constraint is disengaged by removing
    /// its subject parameter. Removal can never create a violation (an
    /// absent value is `NotApplicable` for every constraint kind), so
    /// the loop converges to a clean state.
    pub fn repair(&self, query: &ConfigQuery) -> RepairProposal {
        let mut configs = query.configs.clone();
        // the propagation pass runs in the plan ecosystem's solver
        // scope: the right component names, registry, and renderers —
        // an f2fs plan repairs mkfs_f2fs/f2fs halves, not mke2fs/mount
        let eco = self.plan.ecosystem();
        let solver = Solver::with_scope(self.plan.constraints(), eco.solver_scope());
        // the solver's propagation works on the create/mount state
        // shape; splice those halves through it when the query carries
        // them
        let mkfs_at = configs.iter().position(|c| c.component == eco.create_component);
        let mount_at = configs.iter().position(|c| c.component == eco.mount_component);
        let mut solved = SolvedConfig {
            mkfs: mkfs_at
                .map_or_else(|| TypedConfig::new(eco.create_component), |i| configs[i].clone()),
            mount: mount_at
                .map_or_else(|| TypedConfig::new(eco.mount_component), |i| configs[i].clone()),
        };
        solver.repair(&mut solved);
        if let Some(i) = mkfs_at {
            configs[i] = solved.mkfs;
        }
        if let Some(i) = mount_at {
            configs[i] = solved.mount;
        }
        // disengage the leftovers: propagation repairs only what it can
        // render; anything still violated loses its subject value from
        // the config the evaluator read it from (with duplicate views of
        // a component that need not be the first one). A violated
        // predicate always has its subject value, so every round
        // removes at least one value and the loop terminates.
        let constraints = self.plan.constraints().constraints();
        loop {
            let views: Vec<&TypedConfig> = configs.iter().collect();
            let leftovers: Vec<(usize, &str)> = constraints
                .iter()
                .filter(|c| c.evaluate(&views) == Verdict::Violated)
                .filter_map(|c| {
                    let slot = c.predicate().subject()?;
                    let (at, _) = slot.find(&views)?;
                    Some((at, slot.param.as_str()))
                })
                .collect();
            drop(views);
            if leftovers.is_empty() {
                break;
            }
            for (at, param) in leftovers {
                configs[at].values.remove(param);
            }
        }
        let views: Vec<&TypedConfig> = configs.iter().collect();
        let clean =
            constraints.iter().all(|c| c.evaluate(&views) != Verdict::Violated);
        drop(views);
        let changes = diff(&query.configs, &configs);
        RepairProposal { configs, changes, clean }
    }

    /// Cumulative counter snapshot.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            queries: self.queries.load(Ordering::Relaxed),
            constraints_evaluated: self.constraints_evaluated.load(Ordering::Relaxed),
            memo: self.memo.as_ref().map(ShardedMemo::stats),
        }
    }
}

/// Parameter-level diff between the original and repaired configs.
fn diff(before: &[TypedConfig], after: &[TypedConfig]) -> Vec<RepairChange> {
    let mut changes = Vec::new();
    for (b, a) in before.iter().zip(after) {
        for (name, old) in &b.values {
            match a.values.get(name) {
                Some(new) if new != old => changes.push(RepairChange {
                    component: b.component.clone(),
                    param: name.clone(),
                    action: format!("set {new}"),
                }),
                None => changes.push(RepairChange {
                    component: b.component.clone(),
                    param: name.clone(),
                    action: "removed".to_string(),
                }),
                _ => {}
            }
        }
        for name in a.values.keys() {
            if !b.values.contains_key(name) {
                changes.push(RepairChange {
                    component: b.component.clone(),
                    param: name.clone(),
                    action: format!("set {}", a.values[name]),
                });
            }
        }
    }
    changes
}

#[cfg(test)]
mod tests {
    use super::*;
    use confdep::{extract_scenario, models, ConstraintSet, ExtractOptions};

    fn plan() -> Arc<ValidationPlan> {
        Arc::new(ValidationPlan::compile(ConstraintSet::compile(
            extract_scenario(&models::all(), ExtractOptions::default()).unwrap(),
        )))
    }

    #[test]
    fn memo_hit_skips_evaluation() {
        let engine = ValidationEngine::new(plan(), EngineOptions::serving());
        let q = ConfigQuery::parse_line("-b 1024 -O meta_bg,resize_inode | ro").unwrap();
        let first = engine.validate(&q);
        assert!(!first.memo_hit);
        assert!(first.evaluated > 0);
        let second = engine.validate(&q);
        assert!(second.memo_hit);
        assert_eq!(second.evaluated, 0);
        assert_eq!(first.verdicts, second.verdicts);
        let stats = engine.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.memo.unwrap().hits, 1);
        assert!(stats.evaluated_per_query() < 64.0);
    }

    #[test]
    fn canonical_key_collision_misses_and_matches_direct_evaluation() {
        // same state key and fingerprint, different queries: the second
        // must be evaluated, not served the first one's verdicts
        let eco = ecosys::ext4();
        let plan = Arc::new(ValidationPlan::compile_for(eco.constraints().unwrap(), eco));
        let engine = ValidationEngine::new(plan, EngineOptions::serving());
        let a = ConfigQuery::parse_line_for(&eco, "-L x,uuid=s:y | ro").unwrap();
        let b = ConfigQuery::parse_line_for(&eco, "-L x -U y | ro").unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(!engine.validate(&a).memo_hit);
        let outcome = engine.validate(&b);
        assert!(!outcome.memo_hit, "colliding query was served from the memo");
        let views = b.views();
        let direct: Vec<Verdict> =
            engine.plan().constraints().constraints().iter().map(|c| c.evaluate(&views)).collect();
        assert_eq!(&outcome.verdicts[..], &direct[..]);
    }

    #[test]
    fn all_strategies_agree() {
        let p = plan();
        let naive = ValidationEngine::new(Arc::clone(&p), EngineOptions::naive());
        let indexed = ValidationEngine::new(Arc::clone(&p), EngineOptions::indexed());
        let serving = ValidationEngine::new(p, EngineOptions::serving());
        let q = ConfigQuery::parse_line("-b 99 -m 80 | data=journal,norecovery").unwrap();
        let a = naive.validate(&q);
        let b = indexed.validate(&q);
        let c = serving.validate(&q);
        assert_eq!(a.verdicts, b.verdicts);
        assert_eq!(b.verdicts, c.verdicts);
        assert!(b.evaluated < a.evaluated);
    }

    #[test]
    fn batch_preserves_order() {
        let engine = ValidationEngine::new(plan(), EngineOptions::serving());
        let queries: Vec<ConfigQuery> = (0..16)
            .map(|i| ConfigQuery::parse_line(&format!("-b {} | ro", 1024 + i)).unwrap())
            .collect();
        let batched = engine.validate_many(&queries, 4);
        assert_eq!(batched.len(), queries.len());
        for (q, out) in queries.iter().zip(&batched) {
            let solo = engine.validate(q);
            assert_eq!(solo.verdicts, out.verdicts);
        }
    }

    #[test]
    fn explain_reports_violations() {
        let engine = ValidationEngine::new(plan(), EngineOptions::indexed());
        let q = ConfigQuery::parse_line("-O meta_bg,resize_inode").unwrap();
        let explanations = engine.explain(&q);
        assert!(!explanations.is_empty());
        let e = explanations
            .iter()
            .find(|e| e.signature == "CpdControl|mke2fs|meta_bg~resize_inode")
            .expect("known conflict explained");
        assert_eq!(e.kind, "CPD:Control");
        assert!(e.dependency.contains("meta_bg"));
    }

    #[test]
    fn repair_yields_clean_config() {
        let engine = ValidationEngine::new(plan(), EngineOptions::indexed());
        let q = ConfigQuery::parse_line("-b 99999999 -O meta_bg,resize_inode | ro").unwrap();
        assert!(!engine.validate(&q).ok());
        let proposal = engine.repair(&q);
        assert!(proposal.clean);
        assert!(!proposal.changes.is_empty());
        let repaired = ConfigQuery::new(proposal.configs);
        assert!(engine.validate(&repaired).ok());
    }

    #[test]
    fn repair_on_clean_query_changes_nothing() {
        let engine = ValidationEngine::new(plan(), EngineOptions::indexed());
        let q = ConfigQuery::parse_line("-b 4096 -m 5 | data=ordered").unwrap();
        assert!(engine.validate(&q).ok());
        let proposal = engine.repair(&q);
        assert!(proposal.clean);
        assert!(proposal.changes.is_empty(), "{:?}", proposal.changes);
    }

    fn f2fs_engine(options: EngineOptions) -> ValidationEngine {
        let eco = ecosys::f2fs();
        let plan = Arc::new(ValidationPlan::compile_for(eco.constraints().unwrap(), eco));
        ValidationEngine::new(plan, options)
    }

    #[test]
    fn f2fs_engine_validates_explains_and_repairs() {
        // the serving layer is ecosystem-agnostic end to end: an f2fs
        // plan validates a tagged f2fs query, explains the violation
        // with the f2fs manual corpus's verdict, and repairs it in the
        // f2fs solver scope
        let engine = f2fs_engine(EngineOptions::serving());
        let eco = ecosys::f2fs();
        let q = ConfigQuery::parse_line_for(&eco, "-O casefold,encrypt | ro").unwrap();
        let outcome = engine.validate(&q);
        assert!(!outcome.ok());
        let explanations = engine.explain(&q);
        let e = explanations
            .iter()
            .find(|e| e.signature == "CpdControl|mkfs_f2fs|casefold~encrypt")
            .expect("casefold/encrypt conflict explained");
        assert_eq!(e.kind, "CPD:Control");
        // the conflict is enforced at format time but stated by no
        // f2fs manual — the corpus verdict must say so
        assert_eq!(e.doc, DocVerdict::Missing);
        let proposal = engine.repair(&q);
        assert!(proposal.clean);
        assert!(!proposal.changes.is_empty());
        assert!(proposal.changes.iter().all(|c| c.component.contains("f2fs")),
            "repair touched a non-f2fs component: {:?}", proposal.changes);
        let repaired = ConfigQuery::tagged("f2fs", proposal.configs);
        assert!(engine.validate(&repaired).ok());
    }

    #[test]
    fn memo_entries_never_cross_ecosystems() {
        // two queries with byte-identical configs but different tags
        // must occupy distinct memo slots: warming one leaves the
        // other cold
        let engine = f2fs_engine(EngineOptions::serving());
        let configs = vec![TypedConfig::new("mkfs_f2fs"), TypedConfig::new("f2fs")];
        let a = ConfigQuery::tagged("f2fs", configs.clone());
        let b = ConfigQuery::tagged("ext4", configs.clone());
        let untagged = ConfigQuery::new(configs);
        assert!(!engine.validate(&a).memo_hit);
        assert!(engine.validate(&a).memo_hit, "same tag must re-hit");
        assert!(!engine.validate(&b).memo_hit, "different tag must miss");
        assert!(!engine.validate(&untagged).memo_hit, "untagged must miss both");
    }

    #[test]
    fn cross_fs_agreement_violations_are_explained() {
        // the ≥1 cross-ecosystem CCD of the acceptance criteria, served
        // through validate/explain: divergent errors= policies across
        // the two mount components
        let plan =
            Arc::new(ValidationPlan::compile_for(ecosys::cross_fs_constraints(), ecosys::ext4()));
        let engine = ValidationEngine::new(plan, EngineOptions::serving());
        let mut ext4_mnt = TypedConfig::new("mount");
        let mut f2fs_mnt = TypedConfig::new("f2fs");
        ext4_mnt.set_str("errors", "remount-ro");
        f2fs_mnt.set_str("errors", "panic");
        let q = ConfigQuery::new(vec![ext4_mnt.clone(), f2fs_mnt.clone()]);
        let outcome = engine.validate(&q);
        assert!(!outcome.ok());
        let explanations = engine.explain(&q);
        let e = explanations
            .iter()
            .find(|e| e.signature == "CcdControl|mount:errors|f2fs:errors")
            .expect("errors= agreement CCD explained");
        assert_eq!(e.kind, "CCD:Control");
        assert!(e.dependency.contains("errors"));
        // agreeing policies validate clean
        f2fs_mnt.set_str("errors", "remount-ro");
        let ok = ConfigQuery::new(vec![ext4_mnt, f2fs_mnt]);
        assert!(engine.validate(&ok).ok());
    }
}
