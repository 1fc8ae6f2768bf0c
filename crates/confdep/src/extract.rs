//! The dependency extractor (§4.1): taint facts → multi-level
//! configuration dependencies, with the shared-metadata bridge
//! connecting components.
//!
//! Scenario extraction is **incremental and parallel by default**:
//! components are analyzed on a [`conpool::parallel_map`] worker pool,
//! each analysis going through the content-addressed
//! [`crate::cache::AnalysisCache`] — re-extracting a scenario whose
//! sources did not change re-analyzes nothing.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use cir::{BinOp, ParamSource, ParamTy, Program};
use taint::{AnalysisOptions, ComparisonFact, Taint, TaintResult};

use crate::cache::{self, AnalysisCache};
use crate::model::{dedup, DepDetail, DepKind, Dependency, Endpoint, ParamRef};
use crate::ConfdepError;

/// Extraction configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtractOptions {
    /// Enable the inter-procedural taint extension (off in the paper's
    /// prototype).
    pub interprocedural: bool,
    /// Disable the shared-metadata bridge (ablation: without it the
    /// analyzer extracts no cross-component dependencies at all).
    pub disable_bridge: bool,
}

/// A compiled component with its analysis result.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AnalyzedComponent {
    /// The compiled model.
    pub program: Program,
    /// The taint analysis output.
    pub taint: TaintResult,
}

/// A scenario's analyzed components plus the extracted dependencies —
/// what callers that also need the per-component facts (benchmarks,
/// the CLI's truncation warning) consume.
#[derive(Debug, Clone)]
pub struct ScenarioExtraction {
    /// The analyzed components, in input order (shared with the cache).
    pub components: Vec<Arc<AnalyzedComponent>>,
    /// The deduplicated dependencies.
    pub deps: Vec<Dependency>,
}

/// Compiles and analyzes one component model (uncached; the cached path
/// is [`crate::cache::AnalysisCache::get_or_analyze`]).
///
/// # Errors
///
/// Returns [`ConfdepError::Cir`] when the model does not compile.
pub fn analyze_component(src: &str, options: ExtractOptions) -> Result<AnalyzedComponent, ConfdepError> {
    let program = cir::compile(src)?;
    let taint = taint::analyze(
        &program,
        AnalysisOptions { interprocedural: options.interprocedural, ..AnalysisOptions::default() },
    );
    Ok(AnalyzedComponent { program, taint })
}

/// Extracts the intra-component dependencies (SD + CPD) of one model.
///
/// # Errors
///
/// Returns [`ConfdepError::Cir`] when the model does not compile.
pub fn extract_component(src: &str) -> Result<Vec<Dependency>, ConfdepError> {
    let analyzed = analyze_component(src, ExtractOptions::default())?;
    Ok(dedup(component_deps(&analyzed)))
}

/// Extracts everything for a set of components: per-component SD/CPD
/// plus bridged CCDs across the set. Analyses run on the worker pool
/// (one thread per core) through the process-wide analysis cache.
///
/// # Errors
///
/// Returns [`ConfdepError::Cir`] when any model does not compile.
pub fn extract_scenario(
    sources: &[(&str, &str)],
    options: ExtractOptions,
) -> Result<Vec<Dependency>, ConfdepError> {
    extract_scenario_threaded(sources, options, 0)
}

/// [`extract_scenario`] with an explicit worker count (`0` = one per
/// core, `1` = sequential). Results are independent of `threads`.
///
/// # Errors
///
/// Returns [`ConfdepError::Cir`] when any model does not compile.
pub fn extract_scenario_threaded(
    sources: &[(&str, &str)],
    options: ExtractOptions,
    threads: usize,
) -> Result<Vec<Dependency>, ConfdepError> {
    Ok(extract_scenario_full(sources, options, threads)?.deps)
}

/// Backwards-compatible alias of the parallel path (parallelism is the
/// default now).
///
/// # Errors
///
/// Returns [`ConfdepError::Cir`] when any model does not compile.
pub fn extract_scenario_parallel(
    sources: &[(&str, &str)],
    options: ExtractOptions,
) -> Result<Vec<Dependency>, ConfdepError> {
    extract_scenario_threaded(sources, options, 0)
}

/// The full pipeline: parallel cached analysis, then dependency
/// extraction; returns the analyzed components alongside the deps.
/// Uses the process-wide analysis cache.
///
/// # Errors
///
/// Returns [`ConfdepError::Cir`] when any model does not compile.
pub fn extract_scenario_full(
    sources: &[(&str, &str)],
    options: ExtractOptions,
    threads: usize,
) -> Result<ScenarioExtraction, ConfdepError> {
    extract_scenario_with_cache(sources, options, threads, cache::global())
}

/// [`extract_scenario_full`] against a caller-owned cache (tests use a
/// fresh cache for deterministic hit/miss counts).
///
/// # Errors
///
/// Returns [`ConfdepError::Cir`] when any model does not compile.
pub fn extract_scenario_with_cache(
    sources: &[(&str, &str)],
    options: ExtractOptions,
    threads: usize,
    cache: &AnalysisCache,
) -> Result<ScenarioExtraction, ConfdepError> {
    let results: Vec<Result<Arc<AnalyzedComponent>, ConfdepError>> = conpool::parallel_map(
        sources.to_vec(),
        threads,
        |_, (_, src)| cache.get_or_analyze(src, options),
    );
    let mut components = Vec::with_capacity(results.len());
    for r in results {
        components.push(r?);
    }
    let mut deps = Vec::new();
    for a in &components {
        deps.extend(component_deps(a));
    }
    if !options.disable_bridge {
        deps.extend(bridge_deps(&components));
    }
    Ok(ScenarioExtraction { components, deps: dedup(deps) })
}

// ---------------------------------------------------------------------
// intra-component extraction
// ---------------------------------------------------------------------

fn param_set(taints: &BTreeSet<Taint>) -> BTreeSet<String> {
    taints.iter().filter_map(|t| t.as_param().map(str::to_string)).collect()
}

fn component_deps(a: &AnalyzedComponent) -> Vec<Dependency> {
    let mut deps = Vec::new();
    let component = &a.program.component;

    // --- SD: value ranges -------------------------------------------
    // an atom is a pure self-check when the whole branch condition
    // involves exactly one parameter and no metadata
    let mut range_atoms: BTreeMap<String, Vec<&ComparisonFact>> = BTreeMap::new();
    for c in &a.taint.comparisons {
        if !(c.fail_when_true || c.fail_when_false) {
            continue;
        }
        let params = param_set(&c.taints);
        if params.len() != 1 || !c.rhs_taints.is_empty() || c.rhs_const.is_none() {
            continue;
        }
        let p = params.into_iter().next().expect("len checked");
        if c.branch_has_meta || c.branch_params.len() != 1 {
            continue;
        }
        range_atoms.entry(p).or_default().push(c);
    }
    for (param, atoms) in &range_atoms {
        let mut detail = DepDetail::default();
        for c in atoms {
            let k = c.rhs_const.expect("filtered above");
            // a comparison that fails when true excludes that side of
            // the constant; derive the permitted bound
            match (c.op, c.fail_when_true) {
                (BinOp::Lt, true) | (BinOp::Ge, false) => bump_min(&mut detail, k),
                (BinOp::Le, true) | (BinOp::Gt, false) => bump_min(&mut detail, k + 1),
                (BinOp::Gt, true) | (BinOp::Le, false) => bump_max(&mut detail, k),
                (BinOp::Ge, true) | (BinOp::Lt, false) => bump_max(&mut detail, k - 1),
                (BinOp::Ne, true) | (BinOp::Eq, false) => detail.value_set.push(k),
                (BinOp::Eq, true) | (BinOp::Ne, false) => {
                    detail.relation = Some(format!("must not equal {k}"));
                }
                _ => {}
            }
        }
        detail.value_set.sort_unstable();
        detail.value_set.dedup();
        let mut evidence: Vec<String> =
            atoms.iter().map(|c| format!("{}:{}", c.function, c.line)).collect();
        evidence.dedup();
        deps.push(Dependency {
            kind: DepKind::SdValueRange,
            subject: ParamRef::new(component, param),
            object: None,
            detail,
            evidence,
        });
    }

    // --- SD: data types ----------------------------------------------
    // a numeric/enum CLI option that the code compares (anywhere) must
    // parse as that type
    for p in &a.program.params {
        if p.source != ParamSource::Option {
            continue;
        }
        if !matches!(p.ty, ParamTy::Int | ParamTy::Size | ParamTy::Enum) {
            continue;
        }
        let used: Vec<String> = a
            .taint
            .comparisons
            .iter()
            .filter(|c| param_set(&c.taints).contains(&p.name) || param_set(&c.rhs_taints).contains(&p.name))
            .map(|c| format!("{}:{}", c.function, c.line))
            .collect();
        if used.is_empty() {
            continue;
        }
        deps.push(Dependency {
            kind: DepKind::SdDataType,
            subject: ParamRef::new(component, &p.name),
            object: None,
            detail: DepDetail { data_type: Some(p.ty.as_str().to_string()), ..DepDetail::default() },
            evidence: used,
        });
    }

    // --- CPD: control (cross-leaf pairs in failing branches) ----------
    for b in &a.taint.branches {
        if !(b.then_fails || b.else_fails) {
            continue;
        }
        let leaf_params: Vec<BTreeSet<String>> =
            b.cond_leaves.iter().map(param_set).collect();
        for i in 0..leaf_params.len() {
            for j in (i + 1)..leaf_params.len() {
                for p in &leaf_params[i] {
                    for q in &leaf_params[j] {
                        if p == q {
                            continue;
                        }
                        deps.push(Dependency {
                            kind: DepKind::CpdControl,
                            subject: ParamRef::new(component, p),
                            object: Some(Endpoint::Param(ParamRef::new(component, q))),
                            detail: DepDetail {
                                relation: Some("cannot be combined / requires".to_string()),
                                ..DepDetail::default()
                            },
                            evidence: vec![format!("{}:{}", b.function, b.line)],
                        });
                    }
                }
            }
        }
    }

    // --- CPD: value (param-vs-param comparisons in failing branches) --
    for c in &a.taint.comparisons {
        if !(c.fail_when_true || c.fail_when_false) {
            continue;
        }
        let lhs = param_set(&c.taints);
        let rhs = param_set(&c.rhs_taints);
        for p in &lhs {
            for q in &rhs {
                if p == q {
                    continue;
                }
                deps.push(Dependency {
                    kind: DepKind::CpdValue,
                    subject: ParamRef::new(component, p),
                    object: Some(Endpoint::Param(ParamRef::new(component, q))),
                    detail: DepDetail {
                        relation: Some(format!("value constraint ({:?})", c.op)),
                        ..DepDetail::default()
                    },
                    evidence: vec![format!("{}:{}", c.function, c.line)],
                });
            }
        }
    }

    deps
}

fn bump_min(d: &mut DepDetail, k: i64) {
    d.min = Some(d.min.map_or(k, |m| m.max(k)));
}

fn bump_max(d: &mut DepDetail, k: i64) {
    d.max = Some(d.max.map_or(k, |m| m.min(k)));
}

// ---------------------------------------------------------------------
// cross-component bridging (the paper's key idea)
// ---------------------------------------------------------------------

fn bridge_deps(analyzed: &[Arc<AnalyzedComponent>]) -> Vec<Dependency> {
    let mut deps = Vec::new();

    // writers: metadata field -> (component, params that taint the write)
    let mut writers: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    for a in analyzed {
        for w in &a.taint.meta_writes {
            for p in param_set(&w.taints) {
                writers
                    .entry(w.field.clone())
                    .or_default()
                    .push((a.program.component.clone(), p));
            }
        }
    }

    for a in analyzed {
        let reader = &a.program.component;
        for u in &a.taint.meta_uses {
            for field in &u.meta {
                let Some(ws) = writers.get(field) else { continue };
                for (writer_component, writer_param) in ws {
                    if writer_component == reader {
                        continue;
                    }
                    let subject = ParamRef::new(writer_component, writer_param);
                    if u.in_fail_guard {
                        // value CCD when the guard compares the metadata
                        // against something; control CCD otherwise
                        let is_value = a.taint.comparisons.iter().any(|c| {
                            c.function == u.function
                                && c.line == u.line
                                && (c.rhs_taints.contains(&Taint::Meta(field.clone()))
                                    || c.taints.contains(&Taint::Meta(field.clone())))
                        });
                        let kind = if is_value { DepKind::CcdValue } else { DepKind::CcdControl };
                        if u.co_params.is_empty() {
                            deps.push(Dependency {
                                kind: DepKind::CcdBehavioral,
                                subject: subject.clone(),
                                object: Some(Endpoint::Component(reader.clone())),
                                detail: DepDetail {
                                    bridge_field: Some(field.clone()),
                                    relation: Some("guards an error path".to_string()),
                                    ..DepDetail::default()
                                },
                                evidence: vec![format!("{}:{}", u.function, u.line)],
                            });
                        }
                        for q in &u.co_params {
                            deps.push(Dependency {
                                kind,
                                subject: subject.clone(),
                                object: Some(Endpoint::Param(ParamRef::new(reader, q))),
                                detail: DepDetail {
                                    bridge_field: Some(field.clone()),
                                    relation: Some(
                                        "constrains the other component's parameter".to_string(),
                                    ),
                                    ..DepDetail::default()
                                },
                                evidence: vec![format!("{}:{}", u.function, u.line)],
                            });
                        }
                    } else {
                        // flows into a call: the reader's behaviour
                        // depends on the writer's parameter
                        deps.push(Dependency {
                            kind: DepKind::CcdBehavioral,
                            subject: subject.clone(),
                            object: Some(Endpoint::Component(reader.clone())),
                            detail: DepDetail {
                                bridge_field: Some(field.clone()),
                                relation: u
                                    .callee
                                    .as_ref()
                                    .map(|c| format!("selects behaviour via {c}(...)")),
                                ..DepDetail::default()
                            },
                            evidence: vec![format!("{}:{}", u.function, u.line)],
                        });
                    }
                }
            }
        }
    }
    deps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    fn count_kind(deps: &[Dependency], cat: &str) -> usize {
        deps.iter().filter(|d| d.kind.category() == cat).count()
    }

    #[test]
    fn mke2fs_extracts_sd_and_cpd() {
        let deps = extract_component(models::MKE2FS).unwrap();
        assert!(count_kind(&deps, "SD") > 10);
        assert!(count_kind(&deps, "CPD") > 10);
        assert_eq!(count_kind(&deps, "CCD"), 0, "single component cannot yield CCDs");
        // the paper's flagship CPD
        assert!(deps.iter().any(|d| {
            d.kind == DepKind::CpdControl
                && d.signature().contains("meta_bg")
                && d.signature().contains("resize_inode")
        }));
        // blocksize range 1024..=65536
        let bs = deps
            .iter()
            .find(|d| d.kind == DepKind::SdValueRange && d.subject.param == "blocksize")
            .expect("blocksize range");
        assert_eq!(bs.detail.min, Some(1024));
        assert_eq!(bs.detail.max, Some(65536));
        // inode_size value set {128, 256}
        let is = deps
            .iter()
            .find(|d| d.kind == DepKind::SdValueRange && d.subject.param == "inode_size")
            .expect("inode_size set");
        assert_eq!(is.detail.value_set, vec![128, 256]);
    }

    #[test]
    fn figure1_ccd_extracted_via_bridge() {
        let deps = extract_scenario(
            &[("mke2fs", models::MKE2FS), ("resize2fs", models::RESIZE2FS)],
            ExtractOptions::default(),
        )
        .unwrap();
        // the Figure 1 pair: mke2fs size ~ resize2fs size via
        // sb.s_blocks_count
        let fig1 = deps.iter().find(|d| {
            d.is_cross_component()
                && d.subject == ParamRef::new("mke2fs", "size")
                && matches!(&d.object, Some(Endpoint::Param(p)) if p.param == "new_size")
        });
        assert!(fig1.is_some(), "Figure 1 CCD must be extracted");
        assert_eq!(
            fig1.unwrap().detail.bridge_field.as_deref(),
            Some("sb.s_blocks_count")
        );
        // sparse_super2 behavioral CCD
        assert!(deps.iter().any(|d| {
            d.kind == DepKind::CcdBehavioral && d.subject.param == "sparse_super2"
        }));
    }

    #[test]
    fn bridge_ablation_kills_ccds() {
        let opts = ExtractOptions { disable_bridge: true, ..ExtractOptions::default() };
        let deps = extract_scenario(
            &[("mke2fs", models::MKE2FS), ("resize2fs", models::RESIZE2FS)],
            opts,
        )
        .unwrap();
        assert_eq!(count_kind(&deps, "CCD"), 0);
        assert!(count_kind(&deps, "SD") > 0);
    }

    #[test]
    fn interprocedural_finds_more() {
        let srcs = models::all();
        let intra = extract_scenario(&srcs, ExtractOptions::default()).unwrap();
        let inter = extract_scenario(
            &srcs,
            ExtractOptions { interprocedural: true, ..ExtractOptions::default() },
        )
        .unwrap();
        assert!(
            count_kind(&inter, "CCD") > count_kind(&intra, "CCD"),
            "inter-procedural analysis must find more CCDs ({} vs {})",
            count_kind(&inter, "CCD"),
            count_kind(&intra, "CCD")
        );
        assert!(count_kind(&inter, "CPD") > count_kind(&intra, "CPD"));
    }

    #[test]
    fn parallel_extraction_matches_sequential() {
        let srcs = models::all();
        let seq = extract_scenario(&srcs, ExtractOptions::default()).unwrap();
        let par = extract_scenario_parallel(&srcs, ExtractOptions::default()).unwrap();
        let mut a: Vec<String> = seq.iter().map(|d| d.signature()).collect();
        let mut b: Vec<String> = par.iter().map(|d| d.signature()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn e4defrag_alone_contributes_nothing_intra() {
        let deps = extract_component(models::E4DEFRAG).unwrap();
        assert!(deps.is_empty(), "unexpected: {deps:#?}");
    }

    #[test]
    fn e2fsck_alone_contributes_nothing_intra() {
        let deps = extract_component(models::E2FSCK).unwrap();
        assert!(deps.is_empty(), "unexpected: {deps:#?}");
    }

    #[test]
    fn f2fs_scenario_extracts_all_three_levels() {
        // the second ecosystem, with the checker pipeline unchanged:
        // the same intra-procedural extractor pulls >= 25 dependencies
        // spanning SD, CPD and CCD out of the four f2fs models
        let deps = extract_scenario(&models::f2fs_all(), ExtractOptions::default()).unwrap();
        assert!(deps.len() >= 25, "only {} f2fs deps: {deps:#?}", deps.len());
        assert!(count_kind(&deps, "SD") >= 8, "SD: {}", count_kind(&deps, "SD"));
        assert!(count_kind(&deps, "CPD") >= 8, "CPD: {}", count_kind(&deps, "CPD"));
        assert!(count_kind(&deps, "CCD") >= 6, "CCD: {}", count_kind(&deps, "CCD"));
        // the f2fs Figure-1 analog: mkfs.f2fs sectors ~ resize.f2fs
        // target via fsb.f_sectors
        let fig1 = deps.iter().find(|d| {
            d.is_cross_component()
                && d.subject == ParamRef::new("mkfs_f2fs", "sectors")
                && matches!(&d.object, Some(Endpoint::Param(p)) if p.param == "target_sectors")
        });
        assert!(fig1.is_some(), "f2fs Figure-1 CCD must be extracted");
        // active_logs value set {2, 4, 6}
        let logs = deps
            .iter()
            .find(|d| d.kind == DepKind::SdValueRange && d.subject.param == "active_logs")
            .expect("active_logs set");
        assert_eq!(logs.detail.value_set, vec![2, 4, 6]);
        // the geometry CPD: segs_per_sec ~ secs_per_zone
        assert!(deps.iter().any(|d| {
            d.kind == DepKind::CpdValue
                && d.signature().contains("segs_per_sec")
                && d.signature().contains("secs_per_zone")
        }));
        // format->mount feature CCD: compression gates compress_algorithm
        assert!(deps.iter().any(|d| {
            d.is_cross_component()
                && d.subject == ParamRef::new("mkfs_f2fs", "compression")
                && matches!(&d.object, Some(Endpoint::Param(p)) if p.param == "compress_algorithm")
        }));
    }

    #[test]
    fn joint_extraction_creates_no_cross_ecosystem_bridges() {
        // feeding both ecosystems to one extraction must not invent
        // ext4<->f2fs CCDs: the metadata structs are disjoint, so every
        // bridge stays inside its ecosystem
        let mut srcs = models::all();
        srcs.extend(models::f2fs_all());
        let deps = extract_scenario(&srcs, ExtractOptions::default()).unwrap();
        let f2fs: &[&str] = &["mkfs_f2fs", "f2fs", "fsck_f2fs", "resize_f2fs"];
        for d in deps.iter().filter(|d| d.is_cross_component()) {
            if let Some(Endpoint::Param(obj)) = &d.object {
                assert_eq!(
                    f2fs.contains(&d.subject.component.as_str()),
                    f2fs.contains(&obj.component.as_str()),
                    "cross-ecosystem bridge: {}",
                    d.signature()
                );
            }
        }
        // and the joint run must not change the ext4 result
        let ext4_only = extract_scenario(&models::all(), ExtractOptions::default()).unwrap();
        let mut joint_ext4: Vec<String> = deps
            .iter()
            .filter(|d| !f2fs.contains(&d.subject.component.as_str()))
            .map(|d| d.signature())
            .collect();
        let mut expected: Vec<String> = ext4_only.iter().map(|d| d.signature()).collect();
        joint_ext4.sort();
        expected.sort();
        assert_eq!(joint_ext4, expected);
    }
}
