//! The constraint solver: from a compiled [`ConstraintSet`] to concrete
//! `mke2fs` + `mount` configurations hitting a requested polarity.
//!
//! ConBugCk's original generator drew values from hard-coded arrays
//! (`BLOCK_SIZES`, `RESERVED`, `MOUNT_SETS`), which leaves most
//! constraint polarities uncovered: nothing in those tables can, say,
//! violate the `journal_size` range or satisfy the
//! `metadata_csum`/`uninit_bg` exclusion with both parameters present.
//! The solver inverts the executable constraint layer instead. Given a
//! target `(constraint, polarity)` it
//!
//! 1. **pins** the subject (and, for control pairs, object) parameters
//!    to candidate typed values derived from the constraint itself and
//!    the `ParamSpec` registry — range bounds, bound ± 1, matching or
//!    mismatching data-type shapes, engage/disengage pairs;
//! 2. **propagates** every other statically-evaluable constraint over
//!    the partial config, repairing collateral violations through the
//!    unpinned participants (SD ranges clamp, control pairs disengage);
//! 3. **renders** the assignment to a concrete `mke2fs` argument vector
//!    plus `mount -o` option string, re-parses it through the lenient
//!    typed views, and **verifies** the target constraint actually
//!    evaluates to the requested polarity — backtracking to the next
//!    candidate pinning when any step fails.
//!
//! The achievable target universe ([`Solver::targets`]) is exactly the
//! set of `(signature, polarity)` pairs the solver can witness this
//! way; the coverage-guided fuzz campaign in `contools` seeds each
//! round from the still-uncovered part of it.

use std::sync::OnceLock;

use e2fstools::params::{all_params, ParamSpec, ParamType};
use e2fstools::typed::{TypedConfig, TypedValue};
use serde::{Deserialize, Serialize};

use crate::constraint::{Constraint, ConstraintSet, PairMode, Predicate, Shape, Verdict};
use crate::model::{DepKind, Endpoint};

/// The requested evaluation outcome of a target constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Polarity {
    /// The constraint is engaged and holds.
    Satisfy,
    /// The constraint is engaged and fails.
    Violate,
    /// The constraint holds with the subject exactly on a finite range
    /// bound (only meaningful for value-range constraints).
    Boundary,
}

impl Polarity {
    /// All polarities, in coverage-table order.
    pub fn all() -> [Polarity; 3] {
        [Polarity::Satisfy, Polarity::Violate, Polarity::Boundary]
    }

    /// Short lowercase label (`satisfy`/`violate`/`boundary`).
    pub fn label(self) -> &'static str {
        match self {
            Polarity::Satisfy => "satisfy",
            Polarity::Violate => "violate",
            Polarity::Boundary => "boundary",
        }
    }
}

impl std::fmt::Display for Polarity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A solved whole-configuration state: the typed `mke2fs` and `mount`
/// halves, plus the rendering into the concrete CLI surface.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolvedConfig {
    /// The `mke2fs` half.
    pub mkfs: TypedConfig,
    /// The `mount` half.
    pub mount: TypedConfig,
}

/// Options the renderer can express as a valued `mke2fs` flag.
const MKFS_VALUED: [(&str, &str); 10] = [
    ("blocksize", "-b"),
    ("cluster_size", "-C"),
    ("blocks_per_group", "-g"),
    ("number_of_groups", "-G"),
    ("inode_ratio", "-i"),
    ("inode_size", "-I"),
    ("reserved_percent", "-m"),
    ("inodes_count", "-N"),
    ("label", "-L"),
    ("uuid", "-U"),
];

/// `mke2fs` options spelled `FLAG key=value` (extended attributes).
const MKFS_KEYED: [(&str, &str, &str); 2] =
    [("journal_size", "-J", "size"), ("resize_headroom", "-E", "resize")];

/// The two-component configuration surface a [`Solver`] generates over:
/// which components play the create and mount roles, how the create
/// half renders to a CLI, which `ParamSpec` registry supplies value
/// domains, and which lenient views re-parse the rendering for
/// verification. [`SolverScope::ext4`] reproduces the original
/// hard-coded `mke2fs`/`mount` surface exactly; other ecosystems
/// construct their own scope (see the `ecosys` crate).
///
/// A scope is a handful of `'static` references and function pointers,
/// so it is `Copy`: building one never allocates, and the registry it
/// points at is built once per process.
#[derive(Debug, Clone, Copy)]
pub struct SolverScope {
    /// The component whose parameters render as create-tool arguments.
    pub create_component: &'static str,
    /// The component whose parameters render as `-o` mount options.
    pub mount_component: &'static str,
    /// Create-side parameters spelled as a valued flag (`-b 4096`).
    pub valued: &'static [(&'static str, &'static str)],
    /// Create-side parameters spelled `FLAG key=value` (`-J size=64`).
    pub keyed: &'static [(&'static str, &'static str, &'static str)],
    /// Create-side parameters spelled as bare trailing operands.
    pub operand_params: &'static [&'static str],
    /// Fixed operands every rendering carries (e.g. a device path),
    /// emitted before the operand parameters.
    pub fixed_operands: &'static [&'static str],
    /// Integer parameters the base skeleton engages in-range.
    pub base_create_ints: &'static [&'static str],
    /// Boolean parameters the base skeleton switches on.
    pub base_create_bools: &'static [&'static str],
    /// Mount-side enums the base skeleton pins to their first member.
    pub base_mount_enums: &'static [&'static str],
    /// The `ParamSpec` registry restricted to the two components,
    /// built once per process (its order is the order the solver
    /// searches value domains in, so witnesses depend on it).
    pub registry: &'static [ParamSpec],
    /// Lenient view re-parsing the rendered create arguments.
    pub parse_create: fn(&[String]) -> TypedConfig,
    /// Lenient view re-parsing the rendered mount option string.
    pub parse_mount: fn(&str) -> TypedConfig,
}

impl SolverScope {
    /// The original Ext4 scope: `mke2fs` + `mount`, the e2fstools
    /// registry, and the e2fstools lenient views.
    pub fn ext4() -> Self {
        static REGISTRY: OnceLock<Vec<ParamSpec>> = OnceLock::new();
        SolverScope {
            create_component: "mke2fs",
            mount_component: "mount",
            valued: &MKFS_VALUED,
            keyed: &MKFS_KEYED,
            operand_params: &[],
            fixed_operands: &[],
            base_create_ints: &["blocksize", "reserved_percent"],
            base_create_bools: &["extent", "sparse_super", "resize_inode"],
            base_mount_enums: &["data"],
            registry: REGISTRY.get_or_init(|| {
                all_params()
                    .into_iter()
                    .filter(|p| p.component == "mke2fs" || p.component == "mount")
                    .collect()
            }),
            parse_create: TypedConfig::from_mkfs_args_lenient,
            parse_mount: TypedConfig::from_mount_opts_lenient,
        }
    }

    /// Which role (create/mount component name) a component plays in
    /// this scope, or `None` when it is outside the generated surface.
    pub fn scope_of(&self, component: &str) -> Option<&'static str> {
        if component == self.create_component {
            Some(self.create_component)
        } else if component == self.mount_component {
            Some(self.mount_component)
        } else {
            None
        }
    }

    fn valued_opt(&self, param: &str) -> Option<&'static str> {
        self.valued.iter().find(|(p, _)| *p == param).map(|(_, o)| *o)
    }

    fn keyed_opt(&self, param: &str) -> Option<(&'static str, &'static str)> {
        self.keyed.iter().find(|(p, _, _)| *p == param).map(|(_, f, k)| (*f, *k))
    }

    fn is_operand(&self, param: &str) -> bool {
        self.operand_params.contains(&param)
    }
}

impl SolvedConfig {
    /// Renders the assignment as `(mke2fs args, mount option string)`
    /// under the original Ext4 scope — see [`SolvedConfig::render_with`].
    pub fn render(&self) -> Option<(Vec<String>, String)> {
        self.render_with(&SolverScope::ext4())
    }

    /// Renders the assignment as `(create-tool args, mount option
    /// string)` under `scope`.
    ///
    /// Returns `None` when some value has no CLI spelling that survives
    /// the lenient round trip (e.g. a string value on a parameter with
    /// no valued option) — the solver treats that as a failed candidate.
    pub fn render_with(&self, scope: &SolverScope) -> Option<(Vec<String>, String)> {
        let mut args: Vec<String> = Vec::new();
        let mut features: Vec<String> = Vec::new();
        let mut operands: Vec<String> = Vec::new();
        for (name, value) in &self.mkfs.values {
            if let Some(opt) = scope.valued_opt(name) {
                let rendered = match value {
                    TypedValue::Int(i) => i.to_string(),
                    TypedValue::Str(s) => s.clone(),
                    TypedValue::Bool(_) => return None,
                };
                args.push(opt.to_string());
                args.push(rendered);
                continue;
            }
            if let Some((flag, key)) = scope.keyed_opt(name) {
                match value {
                    TypedValue::Int(i) => {
                        args.push(flag.to_string());
                        args.push(format!("{key}={i}"));
                        continue;
                    }
                    TypedValue::Str(s) => {
                        args.push(flag.to_string());
                        args.push(format!("{key}={s}"));
                        continue;
                    }
                    // a boolean on a keyed option falls through to the
                    // feature spelling, matching the original renderer
                    TypedValue::Bool(_) => {}
                }
            }
            if scope.is_operand(name) {
                match value {
                    TypedValue::Int(i) => operands.push(i.to_string()),
                    TypedValue::Str(s) => operands.push(s.clone()),
                    TypedValue::Bool(_) => return None,
                }
                continue;
            }
            match value {
                TypedValue::Bool(true) => features.push(name.clone()),
                TypedValue::Bool(false) => features.push(format!("^{name}")),
                _ => return None, // int/str value on a feature-only parameter
            }
        }
        if !features.is_empty() {
            args.push("-O".to_string());
            args.push(features.join(","));
        }
        for fixed in scope.fixed_operands {
            args.push((*fixed).to_string());
        }
        args.extend(operands);
        let mut tokens: Vec<String> = Vec::new();
        for (name, value) in &self.mount.values {
            match value {
                TypedValue::Bool(true) => tokens.push(name.clone()),
                TypedValue::Bool(false) => tokens.push(format!("no{name}")),
                TypedValue::Int(i) => tokens.push(format!("{name}={i}")),
                TypedValue::Str(s) => tokens.push(format!("{name}={s}")),
            }
        }
        Some((args, tokens.join(",")))
    }
}

/// One pinned parameter of a candidate assignment.
#[derive(Debug, Clone)]
struct Pin {
    component: &'static str, // the scope's create or mount component
    param: String,
    value: TypedValue,
}

/// The constraint solver over one compiled set.
#[derive(Debug)]
pub struct Solver<'a> {
    set: &'a ConstraintSet,
    scope: SolverScope,
}

impl<'a> Solver<'a> {
    /// Builds a solver over `set` with the original Ext4 scope —
    /// byte-identical to the pre-scope solver.
    pub fn new(set: &'a ConstraintSet) -> Self {
        Solver::with_scope(set, SolverScope::ext4())
    }

    /// Builds a solver over `set` generating configurations for the
    /// components `scope` names; the scope's registry supplies value
    /// domains (enum members, integer ranges) the constraints alone do
    /// not carry.
    pub fn with_scope(set: &'a ConstraintSet, scope: SolverScope) -> Self {
        Solver { set, scope }
    }

    /// The constraint set being solved over.
    pub fn constraints(&self) -> &ConstraintSet {
        self.set
    }

    /// The configuration surface being generated over.
    pub fn scope(&self) -> &SolverScope {
        &self.scope
    }

    fn spec(&self, component: &str, param: &str) -> Option<&ParamSpec> {
        self.scope.registry.iter().find(|s| s.component == component && s.name == param)
    }

    /// The achievable target universe: every `(signature, polarity)`
    /// pair the solver can witness with a concrete configuration, in
    /// extraction × polarity order.
    pub fn targets(&self) -> Vec<(String, Polarity)> {
        self.witness_targets()
            .into_iter()
            .map(|(i, polarity, _)| (self.set.constraints()[i].signature().to_string(), polarity))
            .collect()
    }

    /// [`Solver::targets`] with the witnesses attached: every
    /// achievable target as `(constraint position, polarity, solved
    /// configuration)`. One pass computes universe and seeds together,
    /// so campaign setup solves each target exactly once.
    pub fn witness_targets(&self) -> Vec<(usize, Polarity, SolvedConfig)> {
        let mut out = Vec::new();
        for (i, c) in self.set.constraints().iter().enumerate() {
            for polarity in Polarity::all() {
                if let Some(solved) = self.solve(c, polarity) {
                    out.push((i, polarity, solved));
                }
            }
        }
        out
    }

    /// Solves for a configuration whose evaluation of the constraint
    /// with this signature yields `polarity`.
    pub fn solve_signature(&self, signature: &str, polarity: Polarity) -> Option<SolvedConfig> {
        self.solve(self.set.find(signature)?, polarity)
    }

    /// Solves for a configuration whose evaluation of `target` yields
    /// `polarity`: pin candidate values, propagate and repair the other
    /// constraints, render, and verify — backtracking over candidates.
    pub fn solve(&self, target: &Constraint, polarity: Polarity) -> Option<SolvedConfig> {
        for pins in self.candidates(target, polarity) {
            let mut solved = self.base_config();
            let mut pinned: Vec<(&'static str, String)> = Vec::new();
            for pin in &pins {
                let cfg = if pin.component == self.scope.create_component {
                    &mut solved.mkfs
                } else {
                    &mut solved.mount
                };
                cfg.values.insert(pin.param.clone(), pin.value.clone());
                pinned.push((pin.component, pin.param.clone()));
            }
            self.propagate(&mut solved, &pinned);
            let Some((args, opts)) = solved.render_with(&self.scope) else { continue };
            // verify through the exact views the campaign will use
            let mkfs_view = (self.scope.parse_create)(&args);
            let mount_view = (self.scope.parse_mount)(&opts);
            if self.verify(target, polarity, &mkfs_view, &mount_view) {
                return Some(SolvedConfig { mkfs: mkfs_view, mount: mount_view });
            }
        }
        None
    }

    /// Whether the rendered views hit the requested polarity — the
    /// public form of the solver's own verification step, used by the
    /// campaign's coverage tracker.
    pub fn hits(
        &self,
        target: &Constraint,
        polarity: Polarity,
        mkfs: &TypedConfig,
        mount: &TypedConfig,
    ) -> bool {
        self.verify(target, polarity, mkfs, mount)
    }

    /// The polarities a configuration state witnesses for `target`:
    /// `Satisfy` or `Violate` from the evaluation verdict, plus
    /// `Boundary` when a satisfied subject sits exactly on a finite
    /// range bound. Empty when the constraint is not engaged.
    pub fn observed_polarities(
        &self,
        target: &Constraint,
        mkfs: &TypedConfig,
        mount: &TypedConfig,
    ) -> Vec<Polarity> {
        let mut out = Vec::new();
        match target.evaluate(&[mkfs, mount]) {
            Verdict::Satisfied => {
                out.push(Polarity::Satisfy);
                if self.verify(target, Polarity::Boundary, mkfs, mount) {
                    out.push(Polarity::Boundary);
                }
            }
            Verdict::Violated => out.push(Polarity::Violate),
            Verdict::NotApplicable => {}
        }
        out
    }

    /// Whether the rendered views hit the requested polarity.
    fn verify(
        &self,
        target: &Constraint,
        polarity: Polarity,
        mkfs: &TypedConfig,
        mount: &TypedConfig,
    ) -> bool {
        let verdict = target.evaluate(&[mkfs, mount]);
        match polarity {
            Polarity::Satisfy => verdict == Verdict::Satisfied,
            Polarity::Violate => verdict == Verdict::Violated,
            Polarity::Boundary => {
                if verdict != Verdict::Satisfied {
                    return false;
                }
                let Predicate::Range { slot, min, max, .. } = target.predicate() else {
                    return false;
                };
                let Some(scope) = self.scope.scope_of(&slot.component) else {
                    return false;
                };
                let cfg = if scope == self.scope.create_component { mkfs } else { mount };
                match cfg.get(&slot.param) {
                    Some(TypedValue::Int(v)) => *min == Some(*v) || *max == Some(*v),
                    _ => false,
                }
            }
        }
    }

    /// A known-good skeleton the pins are layered over: an in-range
    /// block size and reserved percentage, the baseline feature set, and
    /// an ordered-data mount — every value sourced from the constraint
    /// ranges and the registry rather than hard-coded tables, so solved
    /// *satisfy* configurations double as deep-reaching campaign seeds.
    fn base_config(&self) -> SolvedConfig {
        let create = self.scope.create_component;
        let mut mkfs = TypedConfig::new(create);
        for param in self.scope.base_create_ints {
            mkfs.set_int(param, self.engage_int(create, param));
        }
        for param in self.scope.base_create_bools {
            mkfs.set_bool(param, true);
        }
        let mut mount = TypedConfig::new(self.scope.mount_component);
        for param in self.scope.base_mount_enums {
            if let Some(members) = self.enum_members(self.scope.mount_component, param) {
                if let Some(first) = members.first() {
                    mount.set_str(param, first);
                }
            }
        }
        SolvedConfig { mkfs, mount }
    }

    /// An in-range integer for engaging `param`: prefers the extracted
    /// value-range, falls back to the registry's `Int` domain, clamps
    /// power-of-two parameters onto the lattice the utilities accept.
    fn engage_int(&self, component: &str, param: &str) -> i64 {
        let (min, max) = self
            .set
            .int_range(component, param)
            .or_else(|| match self.spec(component, param) {
                Some(ParamSpec { param_type: ParamType::Int { min, max }, .. }) => {
                    Some((*min, *max))
                }
                _ => None,
            })
            .unwrap_or((i64::MIN, i64::MAX));
        let candidate = if min == i64::MIN && max == i64::MAX {
            16
        } else if min == i64::MIN {
            max.min(16).max(max.min(1))
        } else if max == i64::MAX {
            min.max(16.min(min).max(min))
        } else {
            min + (max - min) / 2
        };
        if param == "blocksize" {
            // the utilities only accept powers of two, and the cost of
            // a deep run scales with the formatted image size (block
            // size times a fixed block count) — so take the smallest
            // in-range power of two rather than a midpoint
            let lo = (min.max(1) as u64).next_power_of_two();
            return (lo as i64).clamp(min.max(1), max);
        }
        candidate.clamp(min.min(max), max)
    }

    fn enum_members(&self, component: &str, param: &str) -> Option<&[String]> {
        match self.spec(component, param) {
            Some(ParamSpec { param_type: ParamType::Enum(members), .. }) => Some(members),
            _ => None,
        }
    }

    /// A string value of the right shape for `param`: its first enum
    /// member, or a placeholder when it is not enumerated.
    fn first_member(&self, component: &str, param: &str) -> String {
        self.enum_members(component, param)
            .and_then(|m| m.first().cloned())
            .unwrap_or_else(|| "x".to_string())
    }

    /// Whether a pinned value on `(component, param)` has a CLI
    /// rendering of the right shape.
    fn renderable(&self, component: &str, param: &str, value: &TypedValue) -> bool {
        if component == self.scope.mount_component {
            return true;
        }
        if self.scope.valued_opt(param).is_some()
            || self.scope.keyed_opt(param).is_some()
            || self.scope.is_operand(param)
        {
            return !matches!(value, TypedValue::Bool(_));
        }
        matches!(value, TypedValue::Bool(_))
    }

    /// Candidate pin sets for a `(target, polarity)` request, best
    /// first. Empty when the target is out of scope or the polarity has
    /// no witness (behavioural kinds, unbounded boundaries, ...).
    fn candidates(&self, target: &Constraint, polarity: Polarity) -> Vec<Vec<Pin>> {
        let predicate = target.predicate();
        let Some(slot) = predicate.subject() else { return Vec::new() };
        let Some(subj_scope) = self.scope.scope_of(&slot.component) else {
            return Vec::new();
        };
        let subj = slot.param.as_str();
        let pin = |component: &'static str, param: &str, value: TypedValue| Pin {
            component,
            param: param.to_string(),
            value,
        };
        let mut out: Vec<Vec<Pin>> = Vec::new();
        match predicate {
            Predicate::Range { min, max, must_not, .. } => {
                let (min, max) = (*min, *max);
                let mut push_int = |v: i64| {
                    out.push(vec![pin(subj_scope, subj, TypedValue::Int(v))]);
                };
                match polarity {
                    Polarity::Satisfy => {
                        let lo = min.unwrap_or(i64::MIN);
                        let hi = max.unwrap_or(i64::MAX);
                        let mid = self.engage_int(&slot.component, subj);
                        for v in [mid.clamp(lo.min(hi), hi), lo.max(0).clamp(lo, hi), hi.min(1 << 20).clamp(lo, hi)]
                        {
                            if !must_not.contains(&v) {
                                push_int(v);
                            }
                        }
                    }
                    Polarity::Violate => {
                        if let Some(hi) = max {
                            if let Some(v) = hi.checked_add(1) {
                                push_int(v);
                            }
                        }
                        if let Some(lo) = min {
                            if let Some(v) = lo.checked_sub(1) {
                                push_int(v);
                            }
                        }
                        for v in must_not {
                            push_int(*v);
                        }
                    }
                    Polarity::Boundary => {
                        for v in [min, max].into_iter().flatten() {
                            if !must_not.contains(&v) {
                                push_int(v);
                            }
                        }
                    }
                }
            }
            Predicate::Type { shape, .. } => {
                // unknown types satisfy vacuously: no stable witness
                let (matching, mismatching) = match shape {
                    Shape::Int => (
                        TypedValue::Int(self.engage_int(&slot.component, subj)),
                        TypedValue::Str("x".to_string()),
                    ),
                    Shape::Bool => (TypedValue::Bool(true), TypedValue::Int(1)),
                    Shape::Str => (
                        TypedValue::Str(self.first_member(&slot.component, subj)),
                        TypedValue::Int(7),
                    ),
                    Shape::Any => return Vec::new(),
                };
                let chosen = match polarity {
                    Polarity::Satisfy => matching,
                    Polarity::Violate => mismatching,
                    Polarity::Boundary => return Vec::new(),
                };
                out.push(vec![pin(subj_scope, subj, chosen)]);
            }
            Predicate::Pair { object, mode, .. } => {
                let Some(obj_scope) = self.scope.scope_of(&object.component) else {
                    return Vec::new();
                };
                let obj = object.param.as_str();
                let engage = |solver: &Self, component: &str, param: &str| -> TypedValue {
                    let is_valued = component == solver.scope.create_component
                        && (solver.scope.valued_opt(param).is_some()
                            || solver.scope.keyed_opt(param).is_some()
                            || solver.scope.is_operand(param));
                    let registry_int = matches!(
                        solver.spec(component, param),
                        Some(ParamSpec { param_type: ParamType::Int { .. } | ParamType::Size, .. })
                    );
                    if is_valued || (component == solver.scope.mount_component && registry_int) {
                        TypedValue::Int(solver.engage_int(component, param))
                    } else {
                        TypedValue::Bool(true)
                    }
                };
                let disengage = TypedValue::Bool(false);
                let s_on = engage(self, &slot.component, subj);
                let o_on = engage(self, &object.component, obj);
                if *mode == PairMode::Requires {
                    match polarity {
                        Polarity::Satisfy => {
                            out.push(vec![
                                pin(subj_scope, subj, s_on.clone()),
                                pin(obj_scope, obj, o_on.clone()),
                            ]);
                            out.push(vec![
                                pin(subj_scope, subj, disengage.clone()),
                                pin(obj_scope, obj, o_on),
                            ]);
                        }
                        Polarity::Violate => out.push(vec![
                            pin(subj_scope, subj, s_on),
                            pin(obj_scope, obj, disengage),
                        ]),
                        Polarity::Boundary => {}
                    }
                } else {
                    // mutual exclusion (the extractor's combined
                    // "cannot be combined / requires" relation); an
                    // agreement pair is witnessed the same way
                    match polarity {
                        Polarity::Satisfy => {
                            out.push(vec![
                                pin(subj_scope, subj, s_on.clone()),
                                pin(obj_scope, obj, disengage.clone()),
                            ]);
                            out.push(vec![
                                pin(subj_scope, subj, disengage.clone()),
                                pin(obj_scope, obj, o_on.clone()),
                            ]);
                            out.push(vec![
                                pin(subj_scope, subj, disengage.clone()),
                                pin(obj_scope, obj, disengage),
                            ]);
                        }
                        Polarity::Violate => {
                            out.push(vec![pin(subj_scope, subj, s_on), pin(obj_scope, obj, o_on)]);
                        }
                        Polarity::Boundary => {}
                    }
                }
            }
            Predicate::Inert => {}
        }
        out.retain(|pins| pins.iter().all(|p| self.renderable(p.component, &p.param, &p.value)));
        out
    }

    /// Repairs a whole-configuration state in place: propagates every
    /// statically-evaluable constraint over the assignment with *no*
    /// pinned parameters, so each violated constraint is repaired
    /// through its participants exactly as during solving — SD ranges
    /// clamp, data types coerce, control pairs disengage. Parameters
    /// that engage no violated constraint are never touched, which
    /// keeps the proposal minimal. The validation engine's `repair`
    /// mode layers a disengage-the-leftovers pass on top for the few
    /// violations propagation alone cannot fix.
    pub fn repair(&self, solved: &mut SolvedConfig) {
        self.propagate(solved, &[]);
    }

    /// Propagates the non-target constraints over the partial config,
    /// repairing collateral violations through unpinned participants: SD
    /// ranges clamp the value into range, data types coerce the shape,
    /// control pairs disengage the unpinned side. Pinned parameters are
    /// never touched; an unrepairable violation is left standing (it is
    /// collateral coverage, not a solving failure).
    fn propagate(&self, solved: &mut SolvedConfig, pinned: &[(&'static str, String)]) {
        let is_pinned = |component: &str, param: &str| {
            pinned.iter().any(|(c, p)| *c == component && p == param)
        };
        for _round in 0..4 {
            let mut changed = false;
            for c in self.set.constraints() {
                let verdict = c.evaluate(&[&solved.mkfs, &solved.mount]);
                if verdict != Verdict::Violated {
                    continue;
                }
                let predicate = c.predicate();
                let Some(slot) = predicate.subject() else { continue };
                let Some(subj_scope) = self.scope.scope_of(&slot.component) else { continue };
                let subj = slot.param.as_str();
                match predicate {
                    Predicate::Range { min, max, .. } => {
                        if is_pinned(subj_scope, subj) {
                            continue;
                        }
                        let cfg = if subj_scope == self.scope.create_component {
                            &mut solved.mkfs
                        } else {
                            &mut solved.mount
                        };
                        if let Some(&TypedValue::Int(v)) = cfg.get(subj) {
                            let clamped = v.clamp(min.unwrap_or(i64::MIN), max.unwrap_or(i64::MAX));
                            cfg.set_int(subj, clamped);
                            changed = true;
                        }
                    }
                    Predicate::Type { shape, .. } => {
                        if is_pinned(subj_scope, subj) {
                            continue;
                        }
                        let repaired = match shape {
                            Shape::Int => TypedValue::Int(self.engage_int(&slot.component, subj)),
                            Shape::Str => TypedValue::Str(self.first_member(&slot.component, subj)),
                            Shape::Bool => TypedValue::Bool(true),
                            Shape::Any => continue,
                        };
                        if self.renderable(subj_scope, subj, &repaired) {
                            let cfg = if subj_scope == self.scope.create_component {
                                &mut solved.mkfs
                            } else {
                                &mut solved.mount
                            };
                            cfg.values.insert(subj.to_string(), repaired);
                            changed = true;
                        }
                    }
                    Predicate::Pair { object, .. } => {
                        let Some(obj_scope) = self.scope.scope_of(&object.component) else {
                            continue;
                        };
                        // prefer repairing through the object, then the
                        // subject; a participant repairs by disengaging
                        // (booleans) or leaving the config (values)
                        let repair_targets =
                            [(obj_scope, object.param.as_str()), (subj_scope, subj)];
                        for (scope, param) in repair_targets {
                            if is_pinned(scope, param) {
                                continue;
                            }
                            let cfg = if scope == self.scope.create_component {
                                &mut solved.mkfs
                            } else {
                                &mut solved.mount
                            };
                            match cfg.get(param) {
                                Some(TypedValue::Bool(true)) => {
                                    cfg.set_bool(param, false);
                                    changed = true;
                                    break;
                                }
                                Some(TypedValue::Int(_) | TypedValue::Str(_)) => {
                                    cfg.values.remove(param);
                                    changed = true;
                                    break;
                                }
                                _ => {}
                            }
                        }
                    }
                    Predicate::Inert => {}
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Boundary-derived integer pool for `(component, param)` — the
    /// mutation vocabulary that replaces the hard-coded value tables:
    /// range bounds, bounds ± 1, midpoint, and a short power-of-two
    /// ladder from the lower bound.
    pub fn int_pool(&self, component: &str, param: &str) -> Vec<i64> {
        let Some((min, max)) = self.set.int_range(component, param).or_else(|| {
            match self.spec(component, param) {
                Some(ParamSpec { param_type: ParamType::Int { min, max }, .. }) => {
                    Some((*min, *max))
                }
                _ => None,
            }
        }) else {
            return vec![0, 1, 16];
        };
        let mut pool: Vec<i64> = Vec::new();
        if min != i64::MIN {
            pool.extend([min, min.saturating_sub(1), min.saturating_add(1)]);
            let mut p = min.max(1);
            for _ in 0..3 {
                if let Some(next) = p.checked_mul(2) {
                    if max == i64::MAX || next <= max {
                        pool.push(next);
                        p = next;
                    }
                }
            }
        }
        if max != i64::MAX {
            pool.extend([max, max.saturating_add(1), max.saturating_sub(1)]);
        }
        if min != i64::MIN && max != i64::MAX {
            pool.push(min + (max - min) / 2);
        }
        if pool.is_empty() {
            pool.extend([0, 1, 16]);
        }
        pool.sort_unstable();
        pool.dedup();
        pool
    }

    /// Every registered feature-shaped parameter of `component`, plus
    /// the control-pair participants the extractor names that the
    /// registry does not — the feature mutation vocabulary.
    pub fn feature_pool(&self, component: &str) -> Vec<String> {
        let mut pool: Vec<String> = self
            .scope
            .registry
            .iter()
            .filter(|s| {
                s.component == component
                    && matches!(s.param_type, ParamType::Feature | ParamType::Bool)
            })
            .map(|s| s.name.clone())
            .collect();
        for c in self.set.constraints() {
            let d = &c.dependency;
            if !matches!(d.kind, DepKind::CpdControl | DepKind::CcdControl) {
                continue;
            }
            for (comp, param) in std::iter::once((&d.subject.component, &d.subject.param)).chain(
                match &d.object {
                    Some(Endpoint::Param(o)) => Some((&o.component, &o.param)),
                    _ => None,
                },
            ) {
                if comp == component && self.spec(comp, param).is_none() {
                    pool.push(param.clone());
                }
            }
        }
        pool.sort_unstable();
        pool.dedup();
        pool
    }

    /// The enum members of a parameter, for mutation (empty when the
    /// parameter is not enumerated).
    pub fn enum_pool(&self, component: &str, param: &str) -> Vec<String> {
        self.enum_members(component, param).map(<[String]>::to_vec).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{extract_scenario, models, ExtractOptions};

    fn compiled() -> ConstraintSet {
        ConstraintSet::compile(
            extract_scenario(&models::all(), ExtractOptions::default()).unwrap(),
        )
    }

    fn views(solved: &SolvedConfig) -> (TypedConfig, TypedConfig) {
        (solved.mkfs.clone(), solved.mount.clone())
    }

    #[test]
    fn solves_range_polarities() {
        let set = compiled();
        let solver = Solver::new(&set);
        let c = set.find("SdValueRange|mke2fs:blocksize").expect("blocksize range");
        for (polarity, want) in [
            (Polarity::Satisfy, Verdict::Satisfied),
            (Polarity::Violate, Verdict::Violated),
            (Polarity::Boundary, Verdict::Satisfied),
        ] {
            let solved = solver.solve(c, polarity).expect("solvable");
            let (mkfs, mount) = views(&solved);
            assert_eq!(c.evaluate(&[&mkfs, &mount]), want, "{polarity}");
        }
        // boundary really sits on a bound
        let solved = solver.solve(c, Polarity::Boundary).unwrap();
        let v = solved.mkfs.get_int("blocksize").unwrap();
        assert!(v == 1024 || v == 65536, "boundary picked {v}");
    }

    #[test]
    fn solves_control_pair_polarities() {
        let set = compiled();
        let solver = Solver::new(&set);
        let c = set.find("CpdControl|mke2fs|meta_bg~resize_inode").unwrap();
        let violated = solver.solve(c, Polarity::Violate).expect("violable");
        let (mkfs, mount) = views(&violated);
        assert_eq!(c.evaluate(&[&mkfs, &mount]), Verdict::Violated);
        let satisfied = solver.solve(c, Polarity::Satisfy).expect("satisfiable");
        let (mkfs, mount) = views(&satisfied);
        assert_eq!(c.evaluate(&[&mkfs, &mount]), Verdict::Satisfied);
    }

    #[test]
    fn propagation_repairs_base_conflicts() {
        let set = compiled();
        let solver = Solver::new(&set);
        // pinning meta_bg on must disengage the base's resize_inode
        let c = set.find("CpdControl|mke2fs|meta_bg~resize_inode").unwrap();
        let solved = solver.solve(c, Polarity::Satisfy).unwrap();
        assert_eq!(solved.mkfs.get("meta_bg"), Some(&TypedValue::Bool(true)));
        assert_eq!(solved.mkfs.get("resize_inode"), Some(&TypedValue::Bool(false)));
    }

    #[test]
    fn out_of_scope_constraints_are_unsolvable() {
        let set = compiled();
        let solver = Solver::new(&set);
        let c = set.find("SdValueRange|resize2fs:new_size").expect("resize2fs range");
        for polarity in Polarity::all() {
            assert!(solver.solve(c, polarity).is_none(), "{polarity}");
        }
    }

    #[test]
    fn target_universe_is_substantial_and_renderable() {
        let set = compiled();
        let solver = Solver::new(&set);
        let targets = solver.targets();
        assert!(targets.len() >= 60, "only {} achievable targets", targets.len());
        // every target renders to a concrete config hitting its polarity
        for (sig, polarity) in &targets {
            let solved = solver.solve_signature(sig, *polarity).expect("target solvable");
            assert!(solved.render().is_some(), "{sig} {polarity} unrenderable");
        }
    }

    #[test]
    fn ext4_scope_reproduces_the_default_solver() {
        let set = compiled();
        let default = Solver::new(&set);
        let scoped = Solver::with_scope(&set, SolverScope::ext4());
        let dt = default.witness_targets();
        let st = scoped.witness_targets();
        assert_eq!(dt.len(), st.len());
        for ((di, dp, ds), (si, sp, ss)) in dt.iter().zip(st.iter()) {
            assert_eq!((di, dp), (si, sp));
            assert_eq!(ds, ss);
            assert_eq!(ds.render(), ss.render_with(scoped.scope()));
        }
    }

    #[test]
    fn ext4_scope_registry_is_built_once_in_registry_order() {
        // every scope shares one registry; witnesses depend on its
        // order, which must stay the filtered all_params() order
        let (a, b) = (SolverScope::ext4(), SolverScope::ext4());
        assert!(std::ptr::eq(a.registry, b.registry));
        let want: Vec<ParamSpec> = all_params()
            .into_iter()
            .filter(|p| p.component == "mke2fs" || p.component == "mount")
            .collect();
        assert_eq!(a.registry, &want[..]);
    }

    #[test]
    fn pools_replace_hardcoded_tables() {
        let set = compiled();
        let solver = Solver::new(&set);
        let bs = solver.int_pool("mke2fs", "blocksize");
        assert!(bs.contains(&1024) && bs.contains(&65536) && bs.contains(&65537), "{bs:?}");
        assert!(solver.feature_pool("mke2fs").iter().any(|f| f == "meta_bg"));
        assert!(solver.enum_pool("mount", "data").iter().any(|m| m == "journal"));
    }
}
