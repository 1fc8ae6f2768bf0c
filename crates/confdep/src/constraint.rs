//! The constraint compiler: every extracted [`Dependency`] lowered into
//! an executable [`Constraint`] predicate over [`TypedConfig`]s.
//!
//! Before this layer existed, each consumer re-interpreted raw
//! dependencies its own way — ConBugCk substring-matched signatures,
//! ConDocCk pattern-matched manual constraints, ConHandleCk hard-coded
//! label strings. The compiler gives all of them one vocabulary:
//!
//! * [`Constraint::predicate`] — the dependency lowered once into a
//!   pre-resolved [`Predicate`] over `(component, registry parameter)`
//!   [`Slot`]s. This is the only place relation and data-type strings
//!   are decoded; the evaluator, the solver and the validation plan's
//!   index all read the lowered form.
//! * [`Constraint::evaluate`] — does a set of typed configurations
//!   satisfy, violate, or simply not engage the dependency?
//! * [`Constraint::doc_verdict`] — does any manual page document it?
//! * [`ConstraintSet`] — the compiled collection, with the query surface
//!   the applications need (feature-conflict and integer-range lookups).

use std::collections::{HashMap, HashSet};

use e2fstools::manual::{DocConstraint, ManualPage};
use e2fstools::typed::{TypedConfig, TypedValue};
use serde::{Deserialize, Serialize};

use crate::model::{DepKind, Dependency, Endpoint, ParamRef};

/// Outcome of evaluating one constraint against typed configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// The constrained parameters are engaged and the predicate holds.
    Satisfied,
    /// The constrained parameters are engaged and the predicate fails.
    Violated,
    /// The configurations do not engage the dependency (parameter not
    /// set, component absent, or the kind has no static predicate —
    /// behavioural CCDs only manifest at run time).
    NotApplicable,
}

/// Whether a dependency is documented somewhere in the manual corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DocVerdict {
    /// Some manual states the constraint.
    Documented,
    /// The subject's manual exists but no page states the constraint.
    Missing,
    /// The subject component has no manual at all.
    NoManual,
}

/// The extractor names parameters after the modelled CIR variables; the
/// `ParamSpec` registry (and the typed configs lowered from real CLI
/// invocations) use the spec names. This maps the former onto the
/// latter where they diverge; [`Slot`]s carry the result.
fn registry_name<'a>(component: &str, param: &'a str) -> &'a str {
    match (component, param) {
        ("resize2fs", "new_size") => "size",
        ("e2fsck", "assume_yes") => "yes",
        ("e2fsck", "assume_no") => "no",
        ("e2fsck", "blocksize_opt") => "blocksize",
        _ => param,
    }
}

/// One parameter a predicate reads: a component and the parameter's
/// registry name (the model-variable alias already applied), so it
/// keys directly into [`TypedConfig`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slot {
    /// Owning component.
    pub component: String,
    /// Registry parameter name.
    pub param: String,
}

impl Slot {
    fn of(p: &ParamRef) -> Slot {
        Slot {
            component: p.component.clone(),
            param: registry_name(&p.component, &p.param).to_string(),
        }
    }

    /// Where the slot's value lives among `cfgs`: the position and
    /// value of the first config of the slot's component *that carries
    /// the parameter*. Falling through configs that lack it matters once
    /// a state holds several configs per component name (a remount, or
    /// two ecosystems' views).
    pub fn find<'a>(&self, cfgs: &[&'a TypedConfig]) -> Option<(usize, &'a TypedValue)> {
        cfgs.iter()
            .enumerate()
            .filter(|(_, c)| c.component == self.component)
            .find_map(|(i, c)| c.get(&self.param).map(|v| (i, v)))
    }

    /// The slot's value among `cfgs` (see [`Slot::find`]).
    fn get<'a>(&self, cfgs: &[&'a TypedConfig]) -> Option<&'a TypedValue> {
        self.find(cfgs).map(|(_, v)| v)
    }
}

/// The value shape a data-type predicate requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// An integer (`integer`, `int`, `size`).
    Int,
    /// A boolean (`boolean`, `bool`, `flag`).
    Bool,
    /// A string (`string`, `enum`, `path`).
    Str,
    /// An unknown type string: any present value satisfies it.
    Any,
}

impl Shape {
    /// Whether `v` has this shape.
    fn matches(self, v: &TypedValue) -> bool {
        match self {
            Shape::Int => matches!(v, TypedValue::Int(_)),
            Shape::Bool => matches!(v, TypedValue::Bool(_)),
            Shape::Str => matches!(v, TypedValue::Str(_)),
            Shape::Any => true,
        }
    }
}

/// How a control pair relates its two ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairMode {
    /// The subject engaged requires the object engaged.
    Requires,
    /// Subject and object engaged together is the violation. The
    /// extractor cannot orient a guard into "conflicts" vs "requires"
    /// (its relation string says both), so every pair that is not
    /// unambiguously a requirement is treated as mutually exclusive —
    /// exactly how ConBugCk has always repaired feature sets.
    Excludes,
    /// Both ends present must carry equal values — the "must agree"
    /// relation of the cross-ecosystem shared-mount-parameter CCDs.
    Agrees,
}

/// A dependency lowered to what it means as a predicate over typed
/// configurations. Built once by [`Constraint::new`]; the kind
/// dispatch, the parameter aliasing and the relation and data-type
/// strings are all resolved there, so evaluating, solving and indexing
/// read this form and never the strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// `SdValueRange`: the subject's integer value lies within the
    /// bounds and is none of `must_not`.
    Range {
        /// The constrained parameter.
        slot: Slot,
        /// Inclusive lower bound.
        min: Option<i64>,
        /// Inclusive upper bound.
        max: Option<i64>,
        /// Excluded values (non-empty only when the relation says
        /// "must not equal").
        must_not: Vec<i64>,
    },
    /// `SdDataType` with a required type: the subject's value has the
    /// shape.
    Type {
        /// The constrained parameter.
        slot: Slot,
        /// The required shape.
        shape: Shape,
    },
    /// `CpdControl`/`CcdControl` with a parameter object.
    Pair {
        /// The subject end.
        subject: Slot,
        /// The object end.
        object: Slot,
        /// How the two ends relate.
        mode: PairMode,
    },
    /// No static predicate: value couplings and behavioural CCDs (the
    /// coupling manifests when the ecosystem runs, which ConHandleCk's
    /// injection cases exercise), data types with no required type,
    /// control pairs with no parameter object. Never engaged.
    Inert,
}

impl Predicate {
    /// The one place relation and data-type strings are decoded.
    fn lower(d: &Dependency) -> Predicate {
        let relation = d.detail.relation.as_deref();
        match (d.kind, &d.object) {
            (DepKind::SdValueRange, _) => Predicate::Range {
                slot: Slot::of(&d.subject),
                min: d.detail.min,
                max: d.detail.max,
                must_not: if relation.is_some_and(|r| r.contains("must not equal")) {
                    d.detail.value_set.clone()
                } else {
                    Vec::new()
                },
            },
            (DepKind::SdDataType, _) => match d.detail.data_type.as_deref() {
                Some(ty) => Predicate::Type {
                    slot: Slot::of(&d.subject),
                    shape: match ty {
                        "integer" | "int" | "size" => Shape::Int,
                        "boolean" | "bool" | "flag" => Shape::Bool,
                        "string" | "enum" | "path" => Shape::Str,
                        _ => Shape::Any,
                    },
                },
                None => Predicate::Inert,
            },
            (DepKind::CpdControl | DepKind::CcdControl, Some(Endpoint::Param(o))) => {
                Predicate::Pair {
                    subject: Slot::of(&d.subject),
                    object: Slot::of(o),
                    mode: if relation.is_some_and(|r| r.contains("must agree")) {
                        PairMode::Agrees
                    } else if relation == Some("requires") {
                        PairMode::Requires
                    } else {
                        PairMode::Excludes
                    },
                }
            }
            _ => Predicate::Inert,
        }
    }

    /// The subject slot — the parameter that must hold a value for the
    /// predicate to engage at all (`None` for [`Predicate::Inert`]).
    pub fn subject(&self) -> Option<&Slot> {
        match self {
            Predicate::Range { slot, .. } | Predicate::Type { slot, .. } => Some(slot),
            Predicate::Pair { subject, .. } => Some(subject),
            Predicate::Inert => None,
        }
    }
}

/// One dependency compiled into an executable predicate.
///
/// The dependency's stable signature and its [`Predicate`] are computed
/// once at construction, so the hot paths (`find`, the inverted indexes
/// of the validation engine, evaluation) borrow pre-resolved state
/// instead of re-deriving it per call. `dependency` stays public for
/// read access; constraints are built through [`Constraint::new`] so
/// the derived state can never go stale.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// The dependency this predicate was lowered from.
    pub dependency: Dependency,
    /// Interned [`Dependency::signature`] of `dependency`.
    signature: String,
    /// `dependency` lowered by [`Predicate::lower`].
    predicate: Predicate,
}

// Identity is the dependency alone: the signature and predicate are
// derived state, and the wire format (below) carries only the
// dependency.
impl PartialEq for Constraint {
    fn eq(&self, other: &Self) -> bool {
        self.dependency == other.dependency
    }
}

impl Eq for Constraint {}

// Keep the wire format of the former derive: `{"dependency": ...}`.
// The signature and predicate are recomputed on deserialisation.
impl Serialize for Constraint {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![("dependency".to_string(), self.dependency.to_value())])
    }
}

impl<'de> Deserialize<'de> for Constraint {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let inner = serde::__private::map_field(value, "dependency")?;
        Ok(Constraint::new(Dependency::from_value(inner)?))
    }
}

impl Constraint {
    /// Compiles a dependency into its executable form: interns its
    /// signature and lowers it to its [`Predicate`].
    pub fn new(dependency: Dependency) -> Self {
        let signature = dependency.signature();
        let predicate = Predicate::lower(&dependency);
        Constraint { dependency, signature, predicate }
    }

    /// The underlying dependency's stable signature (interned at
    /// construction — no allocation per call).
    pub fn signature(&self) -> &str {
        &self.signature
    }

    /// The pre-resolved predicate the dependency was lowered to.
    pub fn predicate(&self) -> &Predicate {
        &self.predicate
    }

    /// Evaluates the predicate against a set of typed configurations
    /// (e.g. the `mke2fs` invocation plus the `mount` option string of
    /// a generated state).
    pub fn evaluate(&self, cfgs: &[&TypedConfig]) -> Verdict {
        let holds = match &self.predicate {
            Predicate::Range { slot, min, max, must_not } => match slot.get(cfgs) {
                Some(TypedValue::Int(v)) => {
                    !(min.is_some_and(|m| *v < m)
                        || max.is_some_and(|m| *v > m)
                        || must_not.contains(v))
                }
                _ => return Verdict::NotApplicable,
            },
            Predicate::Type { slot, shape } => match slot.get(cfgs) {
                Some(v) => shape.matches(v),
                None => return Verdict::NotApplicable,
            },
            Predicate::Pair { subject, object, mode } => {
                let (Some(s), Some(o)) = (subject.get(cfgs), object.get(cfgs)) else {
                    return Verdict::NotApplicable;
                };
                match mode {
                    PairMode::Agrees => s == o,
                    PairMode::Requires => !engaged(s) || engaged(o),
                    PairMode::Excludes => !(engaged(s) && engaged(o)),
                }
            }
            Predicate::Inert => return Verdict::NotApplicable,
        };
        if holds {
            Verdict::Satisfied
        } else {
            Verdict::Violated
        }
    }

    /// Checks the manual corpus for a statement of this dependency —
    /// the single documentation matcher ConDocCk reports through.
    pub fn doc_verdict(&self, pages: &[&ManualPage]) -> DocVerdict {
        let d = &self.dependency;
        let Some(page) = pages.iter().find(|p| p.component == d.subject.component) else {
            return DocVerdict::NoManual;
        };
        let p = &d.subject.param;
        let documented = match d.kind {
            DepKind::SdDataType => page
                .all_constraints()
                .iter()
                .any(|c| matches!(c, DocConstraint::DataType { param, .. } if param == p)),
            DepKind::SdValueRange => page.all_constraints().iter().any(|c| match c {
                DocConstraint::ValueRange { param, .. } => param == p,
                DocConstraint::DataType { param, ty } => param == p && ty == "enum",
                _ => false,
            }),
            DepKind::CpdControl | DepKind::CpdValue => match &d.object {
                Some(Endpoint::Param(q)) => pair_documented(page, p, &q.param),
                _ => false,
            },
            DepKind::CcdControl | DepKind::CcdValue | DepKind::CcdBehavioral => {
                let obj_param = match &d.object {
                    Some(Endpoint::Param(q)) => Some(q.param.as_str()),
                    _ => None,
                };
                cross_documented(pages, p, obj_param)
            }
        };
        if documented {
            DocVerdict::Documented
        } else {
            DocVerdict::Missing
        }
    }
}

/// Whether a typed value counts as "engaged" for control dependencies.
fn engaged(v: &TypedValue) -> bool {
    match v {
        TypedValue::Bool(b) => *b,
        TypedValue::Int(_) | TypedValue::Str(_) => true,
    }
}

fn pair_documented(page: &ManualPage, a: &str, b: &str) -> bool {
    page.all_constraints().iter().any(|c| match c {
        DocConstraint::Conflicts { param, other } | DocConstraint::Requires { param, other } => {
            (param == a && other == b) || (param == b && other == a)
        }
        _ => false,
    })
}

fn cross_documented(pages: &[&ManualPage], subj_param: &str, obj_param: Option<&str>) -> bool {
    pages.iter().any(|page| {
        page.all_constraints().iter().any(|c| match c {
            DocConstraint::CrossComponent { param, other, .. } => match obj_param {
                Some(q) => {
                    (param == subj_param && other == q) || (param == q && other == subj_param)
                }
                None => param == subj_param || other == subj_param,
            },
            _ => false,
        })
    })
}

/// A compiled collection of constraints, preserving extraction order.
///
/// `compile` also builds the lookup index the hot queries use —
/// signature → position, the symmetric CPD-control conflict pairs, and
/// the first value-range per parameter — so [`ConstraintSet::find`],
/// [`ConstraintSet::conflicting`] and [`ConstraintSet::int_range`] are
/// hash lookups instead of linear scans over the whole set. The index
/// is derived state: it is skipped by serde and rebuilt-on-equality is
/// irrelevant (`PartialEq` compares the constraints only), and every
/// query falls back to the scan when the index is stale (a
/// deserialised or `Default` set).
#[derive(Debug, Clone, Default)]
pub struct ConstraintSet {
    constraints: Vec<Constraint>,
    index: SetIndex,
}

// The index is derived state: serialize the constraints only, and leave
// a deserialised set unindexed (queries fall back to the linear scans).
impl Serialize for ConstraintSet {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![("constraints".to_string(), self.constraints.to_value())])
    }
}

impl<'de> Deserialize<'de> for ConstraintSet {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let inner = serde::__private::map_field(value, "constraints")?;
        let constraints = Vec::<Constraint>::from_value(inner)?;
        Ok(ConstraintSet { constraints, index: SetIndex::default() })
    }
}

/// Derived lookup tables over a compiled set (see [`ConstraintSet`]).
#[derive(Debug, Clone, Default)]
struct SetIndex {
    /// Signature → position in `constraints`. Built over `len` entries;
    /// `len != constraints.len()` marks the index stale.
    by_signature: HashMap<String, usize>,
    /// Exact unordered CPD-control parameter pairs, both orientations
    /// (the fast path for `conflicting`).
    conflict_pairs: HashSet<(String, String)>,
    /// The `a~b` pair fragment of every CPD-control signature, for the
    /// substring probe the legacy scan performs (`inode_size~x` also
    /// conflicts with `size~x`). A handful of short strings instead of
    /// re-rendering every signature per query.
    conflict_fragments: Vec<String>,
    /// `(component, param)` → first value-range constraint position.
    ranges: HashMap<(String, String), usize>,
    /// Number of constraints the index was built over.
    len: usize,
}

impl SetIndex {
    fn build(constraints: &[Constraint]) -> Self {
        let mut index = SetIndex { len: constraints.len(), ..SetIndex::default() };
        for (i, c) in constraints.iter().enumerate() {
            index.by_signature.entry(c.signature().to_string()).or_insert(i);
            let d = &c.dependency;
            match d.kind {
                DepKind::CpdControl => {
                    if let Some(Endpoint::Param(o)) = &d.object {
                        index
                            .conflict_pairs
                            .insert((d.subject.param.clone(), o.param.clone()));
                        index
                            .conflict_pairs
                            .insert((o.param.clone(), d.subject.param.clone()));
                        // the signature sorts the two parameters; keep
                        // the same orientation for the substring probe
                        let (x, y) = if d.subject.param <= o.param {
                            (&d.subject.param, &o.param)
                        } else {
                            (&o.param, &d.subject.param)
                        };
                        index.conflict_fragments.push(format!("{x}~{y}"));
                    }
                }
                DepKind::SdValueRange => {
                    index
                        .ranges
                        .entry((d.subject.component.clone(), d.subject.param.clone()))
                        .or_insert(i);
                }
                _ => {}
            }
        }
        index
    }
}

impl PartialEq for ConstraintSet {
    fn eq(&self, other: &Self) -> bool {
        self.constraints == other.constraints
    }
}

impl Eq for ConstraintSet {}

impl ConstraintSet {
    /// Compiles each dependency into its executable form and builds the
    /// lookup index over the result.
    pub fn compile(deps: Vec<Dependency>) -> Self {
        let constraints: Vec<Constraint> = deps.into_iter().map(Constraint::new).collect();
        let index = SetIndex::build(&constraints);
        ConstraintSet { constraints, index }
    }

    /// Whether the derived index matches the constraint list (false for
    /// deserialised or `Default` sets, whose queries fall back to the
    /// linear scans).
    fn indexed(&self) -> bool {
        self.index.len == self.constraints.len()
    }

    /// The compiled constraints, in extraction order.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// The underlying dependencies, in extraction order.
    pub fn dependencies(&self) -> impl Iterator<Item = &Dependency> {
        self.constraints.iter().map(|c| &c.dependency)
    }

    /// Number of compiled constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// True when no constraints were compiled.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Finds the constraint with the given dependency signature.
    pub fn find(&self, signature: &str) -> Option<&Constraint> {
        if self.indexed() {
            return self.index.by_signature.get(signature).map(|&i| &self.constraints[i]);
        }
        self.constraints.iter().find(|c| c.signature() == signature)
    }

    /// True when a control dependency forbids combining the two
    /// parameters within one component (the query ConBugCk repairs
    /// feature sets with).
    pub fn conflicting(&self, a: &str, b: &str) -> bool {
        if self.indexed() {
            // exact-pair fast path first (both orientations stored),
            // then the substring probe over the few pair fragments —
            // the legacy scan matches `size~x` against `inode_size~x`
            if self.index.conflict_pairs.contains(&(a.to_string(), b.to_string())) {
                return true;
            }
            let (ab, ba) = (format!("{a}~{b}"), format!("{b}~{a}"));
            return self
                .index
                .conflict_fragments
                .iter()
                .any(|frag| frag.contains(&ab) || frag.contains(&ba));
        }
        self.constraints.iter().any(|c| {
            c.dependency.kind == DepKind::CpdControl && {
                let s = c.signature();
                s.contains(&format!("{a}~{b}")) || s.contains(&format!("{b}~{a}"))
            }
        })
    }

    /// The extracted integer range of a parameter, if any — the first
    /// matching value-range constraint, in extraction order (the query
    /// ConBugCk samples values with).
    pub fn int_range(&self, component: &str, param: &str) -> Option<(i64, i64)> {
        let bounds = |c: &Constraint| {
            (
                c.dependency.detail.min.unwrap_or(i64::MIN),
                c.dependency.detail.max.unwrap_or(i64::MAX),
            )
        };
        if self.indexed() {
            return self
                .index
                .ranges
                .get(&(component.to_string(), param.to_string()))
                .map(|&i| bounds(&self.constraints[i]));
        }
        self.constraints
            .iter()
            .find(|c| {
                c.dependency.kind == DepKind::SdValueRange
                    && c.dependency.subject.component == component
                    && c.dependency.subject.param == param
            })
            .map(bounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DepDetail;
    use crate::{extract_scenario, models, ExtractOptions};

    fn compiled() -> ConstraintSet {
        ConstraintSet::compile(
            extract_scenario(&models::all(), ExtractOptions::default()).unwrap(),
        )
    }

    #[test]
    fn compiles_all_extracted_dependencies() {
        let set = compiled();
        assert_eq!(set.len(), 64);
        assert!(!set.is_empty());
        assert!(set.find("CpdControl|mke2fs|meta_bg~resize_inode").is_some());
    }

    #[test]
    fn registry_name_aliasing_is_scoped_per_component() {
        // regression (multi-ecosystem rethread): the model-variable →
        // spec-name aliases are keyed by the owning component, and
        // component names are namespaced per ecosystem — so an ext4
        // alias can never rewrite a same-named parameter of an f2fs
        // component (or any other ecosystem's)
        assert_eq!(registry_name("resize2fs", "new_size"), "size");
        assert_eq!(registry_name("resize_f2fs", "new_size"), "new_size");
        assert_eq!(registry_name("e2fsck", "assume_yes"), "yes");
        assert_eq!(registry_name("fsck_f2fs", "assume_yes"), "assume_yes");
        assert_eq!(registry_name("e2fsck", "blocksize_opt"), "blocksize");
        assert_eq!(registry_name("mkfs_f2fs", "blocksize_opt"), "blocksize_opt");
    }

    #[test]
    fn range_lookup_matches_detail() {
        let set = compiled();
        let (min, max) = set.int_range("mke2fs", "reserved_percent").expect("range extracted");
        assert!(min <= 0 && max >= 50, "({min}, {max})");
        assert!(set.int_range("mke2fs", "no_such_param").is_none());
    }

    #[test]
    fn conflict_lookup_is_symmetric() {
        let set = compiled();
        assert!(set.conflicting("meta_bg", "resize_inode"));
        assert!(set.conflicting("resize_inode", "meta_bg"));
        assert!(!set.conflicting("extent", "has_journal"));
    }

    #[test]
    fn range_constraint_evaluates_typed_configs() {
        let set = compiled();
        let c = set
            .find("SdValueRange|mke2fs:reserved_percent")
            .expect("reserved_percent range extracted");
        let mut bad = TypedConfig::new("mke2fs");
        bad.set_int("reserved_percent", 80);
        assert_eq!(c.evaluate(&[&bad]), Verdict::Violated);
        let mut good = TypedConfig::new("mke2fs");
        good.set_int("reserved_percent", 5);
        assert_eq!(c.evaluate(&[&good]), Verdict::Satisfied);
        let unrelated = TypedConfig::new("mount");
        assert_eq!(c.evaluate(&[&unrelated]), Verdict::NotApplicable);
    }

    #[test]
    fn control_constraint_evaluates_typed_configs() {
        let set = compiled();
        let c = set.find("CpdControl|mke2fs|meta_bg~resize_inode").unwrap();
        let mut both = TypedConfig::new("mke2fs");
        both.set_bool("meta_bg", true);
        both.set_bool("resize_inode", true);
        assert_eq!(c.evaluate(&[&both]), Verdict::Violated);
        let mut one = TypedConfig::new("mke2fs");
        one.set_bool("meta_bg", true);
        one.set_bool("resize_inode", false);
        assert_eq!(c.evaluate(&[&one]), Verdict::Satisfied);
    }

    #[test]
    fn lookup_falls_through_configs_missing_the_param() {
        // two configs for the same component: the first does not carry
        // the parameter, the second does — the lookup must not stop at
        // the first component match
        let set = compiled();
        let c = set.find("SdValueRange|mke2fs:reserved_percent").unwrap();
        let without = TypedConfig::new("mke2fs");
        let mut with = TypedConfig::new("mke2fs");
        with.set_int("reserved_percent", 80);
        assert_eq!(c.evaluate(&[&without, &with]), Verdict::Violated);
    }

    #[test]
    fn agreement_constraints_compare_values() {
        // the cross-ecosystem "must agree" form of a control CCD
        let c = Constraint::new(Dependency {
            kind: DepKind::CcdControl,
            subject: ParamRef::new("mount", "discard"),
            object: Some(Endpoint::Param(ParamRef::new("f2fs", "discard"))),
            detail: DepDetail {
                relation: Some("shared mount parameters must agree".to_string()),
                bridge_field: Some("shared:discard".to_string()),
                ..DepDetail::default()
            },
            evidence: vec![],
        });
        let mut ext4 = TypedConfig::new("mount");
        ext4.set_bool("discard", true);
        let mut f2fs = TypedConfig::new("f2fs");
        f2fs.set_bool("discard", true);
        assert_eq!(c.evaluate(&[&ext4, &f2fs]), Verdict::Satisfied);
        f2fs.set_bool("discard", false);
        assert_eq!(c.evaluate(&[&ext4, &f2fs]), Verdict::Violated);
        let alone = TypedConfig::new("mount");
        assert_eq!(c.evaluate(&[&alone, &f2fs]), Verdict::NotApplicable);
    }

    #[test]
    fn behavioural_constraints_are_runtime_only() {
        let c = Constraint::new(Dependency {
            kind: DepKind::CcdBehavioral,
            subject: ParamRef::new("mke2fs", "sparse_super2"),
            object: Some(Endpoint::Component("resize2fs".to_string())),
            detail: DepDetail::default(),
            evidence: vec![],
        });
        let cfg = TypedConfig::new("mke2fs");
        assert_eq!(c.evaluate(&[&cfg]), Verdict::NotApplicable);
    }

    #[test]
    fn lowering_follows_the_dependency_kind() {
        // every engaging predicate names its subject under the registry
        // alias, and only control kinds with a parameter object become
        // pairs
        for c in compiled().constraints() {
            let d = &c.dependency;
            match c.predicate() {
                Predicate::Range { .. } => assert_eq!(d.kind, DepKind::SdValueRange),
                Predicate::Type { .. } => assert_eq!(d.kind, DepKind::SdDataType),
                Predicate::Pair { object, mode, .. } => {
                    assert!(matches!(d.kind, DepKind::CpdControl | DepKind::CcdControl));
                    assert!(
                        matches!(&d.object, Some(Endpoint::Param(o)) if o.component == object.component)
                    );
                    assert_eq!(*mode, PairMode::Excludes, "{}", c.signature());
                }
                Predicate::Inert => assert!(matches!(
                    d.kind,
                    DepKind::CpdValue | DepKind::CcdValue | DepKind::CcdBehavioral
                )),
            }
            if let Some(slot) = c.predicate().subject() {
                assert_eq!(slot.component, d.subject.component);
                assert_eq!(slot.param, registry_name(&d.subject.component, &d.subject.param));
            }
        }
        let set = compiled();
        let resize = set.find("SdValueRange|resize2fs:new_size").unwrap();
        assert_eq!(resize.predicate().subject().unwrap().param, "size");
    }

    #[test]
    fn lowering_decodes_relations_and_types_once() {
        let dep = |kind, relation: Option<&str>, data_type: Option<&str>| {
            Constraint::new(Dependency {
                kind,
                subject: ParamRef::new("mke2fs", "inode_size"),
                object: Some(Endpoint::Param(ParamRef::new("mke2fs", "blocksize"))),
                detail: DepDetail {
                    relation: relation.map(str::to_string),
                    data_type: data_type.map(str::to_string),
                    value_set: vec![128],
                    ..DepDetail::default()
                },
                evidence: vec![],
            })
        };
        let must_not = |c: Constraint| match c.predicate() {
            Predicate::Range { must_not, .. } => must_not.clone(),
            p => panic!("not a range: {p:?}"),
        };
        assert_eq!(must_not(dep(DepKind::SdValueRange, Some("must not equal 0"), None)), vec![128]);
        assert!(must_not(dep(DepKind::SdValueRange, None, None)).is_empty());
        let shape = |ty| match dep(DepKind::SdDataType, None, ty).predicate() {
            Predicate::Type { shape, .. } => Some(*shape),
            _ => None,
        };
        assert_eq!(shape(Some("size")), Some(Shape::Int));
        assert_eq!(shape(Some("flag")), Some(Shape::Bool));
        assert_eq!(shape(Some("path")), Some(Shape::Str));
        assert_eq!(shape(Some("opaque")), Some(Shape::Any));
        assert_eq!(shape(None), None);
        let mode = |relation| match dep(DepKind::CpdControl, relation, None).predicate() {
            Predicate::Pair { mode, .. } => *mode,
            p => panic!("not a pair: {p:?}"),
        };
        assert_eq!(mode(Some("requires")), PairMode::Requires);
        assert_eq!(mode(Some("cannot be combined / requires")), PairMode::Excludes);
        assert_eq!(mode(Some("shared mount parameters must agree")), PairMode::Agrees);
        assert_eq!(mode(None), PairMode::Excludes);
    }

    #[test]
    fn deserialised_constraints_lower_identically() {
        for c in compiled().constraints() {
            let json = serde_json::to_string(c).unwrap();
            let back: Constraint = serde_json::from_str(&json).unwrap();
            assert_eq!(back.predicate(), c.predicate(), "{}", c.signature());
        }
    }
}
