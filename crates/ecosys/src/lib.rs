//! The neutral multi-ecosystem registry layer.
//!
//! The study originally analyzed one file-system ecosystem (Ext4 and
//! the e2fsprogs utilities); this crate lifts the "which components
//! exist, which parameters do they own, which models does the analyzer
//! see" bookkeeping out of `e2fstools` into an ecosystem-agnostic
//! [`Ecosystem`] descriptor, so the extraction pipeline, the checkers,
//! the solver, and the validation front-end all run unchanged over any
//! registered ecosystem (currently Ext4 and the F2FS-flavored substrate
//! in `f2fstools`).
//!
//! On top of the per-ecosystem registries it adds the one genuinely
//! *cross*-ecosystem analysis: [`cross_fs_ccds`] detects mount
//! parameters shared by name between the two mount components (discard,
//! ro, barrier, the errors= policy, ...) and emits "must agree"
//! cross-component control dependencies, the configuration-portability
//! analog of the paper's CCDs.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use confdep::model::DepDetail;
use confdep::{
    extract_scenario, ConfdepError, ConstraintSet, DepKind, Dependency, Endpoint, ExtractOptions,
    ParamRef, SolverScope,
};
use e2fstools::manual::{DocConstraint, ManualOption, ManualPage};
use e2fstools::params::{ParamSpec, Stage};
use e2fstools::typed::TypedConfig;
use e2fstools::Component;

/// One registered file-system ecosystem: its component set, its CIR
/// models, its parameter universe, and how the constraint solver
/// renders configurations for it.
///
/// The descriptor is all function pointers so the static table in
/// [`all`] stays cheap to construct and every accessor returns fresh
/// owned values (the underlying crates hand out owned tables too).
#[derive(Clone, Copy)]
pub struct Ecosystem {
    /// Ecosystem name (`"ext4"`, `"f2fs"`); doubles as the lookup
    /// namespace in `"f2fs:mkfs"`-style queries.
    pub name: &'static str,
    /// The create-stage component name (`mke2fs`, `mkfs_f2fs`).
    pub create_component: &'static str,
    /// The mount-stage component name (`mount`, `f2fs`).
    pub mount_component: &'static str,
    components: fn() -> Vec<Box<dyn Component>>,
    models: fn() -> Vec<(&'static str, &'static str)>,
    extra_params: fn() -> Vec<ParamSpec>,
    extra_manuals: fn() -> Vec<ManualPage>,
    solver_scope: fn() -> SolverScope,
}

impl std::fmt::Debug for Ecosystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ecosystem")
            .field("name", &self.name)
            .field("create_component", &self.create_component)
            .field("mount_component", &self.mount_component)
            .finish_non_exhaustive()
    }
}

impl Ecosystem {
    /// The ecosystem's components, in stage order.
    pub fn components(&self) -> Vec<Box<dyn Component>> {
        (self.components)()
    }

    /// The CIR source models the analyzer runs over, `(component,
    /// source)` in stage order. Components without configuration-
    /// handling code worth modeling (read-only dump tools) have no
    /// model.
    pub fn models(&self) -> Vec<(&'static str, &'static str)> {
        (self.models)()
    }

    /// Parameters of the ecosystem that no [`Component`] impl owns
    /// (kernel-module knobs reached via sysfs rather than a CLI tool).
    pub fn extra_params(&self) -> Vec<ParamSpec> {
        (self.extra_params)()
    }

    /// The ecosystem's `ParamSpec` registry: every component's table
    /// plus [`Ecosystem::extra_params`].
    ///
    /// # Panics
    ///
    /// Panics if two specs share a `(component, name)` pair — the
    /// duplicate-registration guard.
    pub fn registry(&self) -> Vec<ParamSpec> {
        let mut specs: Vec<ParamSpec> =
            self.components().iter().flat_map(|c| c.param_specs()).collect();
        specs.extend(self.extra_params());
        guard_duplicates(&specs);
        specs
    }

    /// The manual-page corpus ConDocCk checks for this ecosystem: the
    /// pages of every *analyzed* component (those with a model), plus
    /// the kernel-side documentation pages no CLI component owns.
    pub fn doc_corpus(&self) -> Vec<ManualPage> {
        let analyzed: BTreeSet<&str> = self.models().iter().map(|(n, _)| *n).collect();
        let mut pages: Vec<ManualPage> = self
            .components()
            .iter()
            .filter(|c| analyzed.contains(c.name()))
            .map(|c| c.manual_page())
            .collect();
        pages.extend((self.extra_manuals)());
        pages
    }

    /// Looks up a component of this ecosystem by name. Accepts the
    /// canonical underscore name (`mkfs_f2fs`), the dotted tool
    /// spelling (`mkfs.f2fs`), and the ecosystem-relative short form
    /// (`mkfs` for `mkfs_f2fs`).
    pub fn component(&self, name: &str) -> Option<Box<dyn Component>> {
        let canonical = name.replace('.', "_");
        let suffixed = format!("{}_{}", canonical, self.name);
        self.components()
            .into_iter()
            .find(|c| c.name() == canonical || c.name() == suffixed)
    }

    /// Extracts the ecosystem's dependencies by running the (ecosystem-
    /// agnostic) analyzer over [`Ecosystem::models`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfdepError`] if a model fails to compile.
    pub fn dependencies(&self) -> Result<Vec<Dependency>, ConfdepError> {
        extract_scenario(&self.models(), ExtractOptions::default())
    }

    /// [`Ecosystem::dependencies`] compiled into executable constraints.
    ///
    /// # Errors
    ///
    /// Returns [`ConfdepError`] if a model fails to compile.
    pub fn constraints(&self) -> Result<ConstraintSet, ConfdepError> {
        Ok(ConstraintSet::compile(self.dependencies()?))
    }

    /// The solver scope generating create + mount configurations for
    /// this ecosystem. Cheap: the scope is `Copy` and its registry is
    /// built once per process, so per-line callers may ask every time.
    pub fn solver_scope(&self) -> SolverScope {
        (self.solver_scope)()
    }
}

fn guard_duplicates(specs: &[ParamSpec]) {
    let mut seen = BTreeSet::new();
    for spec in specs {
        assert!(
            seen.insert((spec.component.clone(), spec.name.clone())),
            "duplicate ParamSpec registration: {}:{}",
            spec.component,
            spec.name
        );
    }
}

/// The Ext4 ecosystem — e2fsprogs plus the ext4 kernel module, exactly
/// the surface the paper's study analyzed.
pub fn ext4() -> Ecosystem {
    Ecosystem {
        name: "ext4",
        create_component: "mke2fs",
        mount_component: "mount",
        components: e2fstools::ecosystem,
        models: confdep::models::all,
        extra_params: ext4_extra_params,
        extra_manuals: ext4_extra_manuals,
        solver_scope: SolverScope::ext4,
    }
}

fn ext4_extra_params() -> Vec<ParamSpec> {
    e2fstools::params::ext4_module_params()
}

fn ext4_extra_manuals() -> Vec<ManualPage> {
    vec![ext4_kernel_doc()]
}

/// The F2FS ecosystem — f2fs-tools plus the f2fs mount path, the second
/// substrate behind the same [`Component`] trait.
pub fn f2fs() -> Ecosystem {
    Ecosystem {
        name: "f2fs",
        create_component: "mkfs_f2fs",
        mount_component: "f2fs",
        components: f2fstools::ecosystem,
        models: confdep::models::f2fs_all,
        extra_params: Vec::new,
        extra_manuals: f2fs_extra_manuals,
        solver_scope: f2fs_solver_scope,
    }
}

fn f2fs_extra_manuals() -> Vec<ManualPage> {
    vec![f2fstools::mount::kernel_doc()]
}

/// Valued `mkfs.f2fs` flags the solver's renderer can spell.
const MKFS_F2FS_VALUED: [(&str, &str); 8] = [
    ("sector_size", "-w"),
    ("segs_per_sec", "-s"),
    ("secs_per_zone", "-z"),
    ("overprovision", "-o"),
    ("heap_alloc", "-a"),
    ("discard_policy", "-t"),
    ("debug_level", "-d"),
    ("label", "-l"),
];

fn f2fs_solver_scope() -> SolverScope {
    static REGISTRY: OnceLock<Vec<ParamSpec>> = OnceLock::new();
    SolverScope {
        create_component: "mkfs_f2fs",
        mount_component: "f2fs",
        valued: &MKFS_F2FS_VALUED,
        keyed: &[],
        operand_params: &["sectors"],
        // mkfs.f2fs takes the device before the sector count, and the
        // lenient view only reads a numeric *second* operand as sectors
        fixed_operands: &["/dev/sim"],
        base_create_ints: &["sectors"],
        base_create_bools: &["extra_attr"],
        base_mount_enums: &["background_gc"],
        registry: REGISTRY.get_or_init(|| {
            let mut specs = f2fstools::mkfs::param_table();
            specs.extend(f2fstools::mount::param_table());
            specs
        }),
        parse_create: f2fstools::typed::from_mkfs_f2fs_args_lenient,
        parse_mount: f2fstools::typed::from_f2fs_mount_opts_lenient,
    }
}

/// All registered ecosystems, Ext4 first (the paper's study order).
pub fn all() -> Vec<Ecosystem> {
    vec![ext4(), f2fs()]
}

/// Looks up an ecosystem by name.
pub fn by_name(name: &str) -> Option<Ecosystem> {
    all().into_iter().find(|e| e.name == name)
}

/// Resolves a possibly-namespaced component query to `(ecosystem,
/// component)`.
///
/// `"f2fs:mkfs"` scopes the lookup to one ecosystem (accepting the
/// short, dotted, or canonical spelling on the right of the colon); a
/// bare name like `"mke2fs"` or `"resize.f2fs"` searches every
/// ecosystem and resolves only when unambiguous.
pub fn resolve(query: &str) -> Option<(Ecosystem, Box<dyn Component>)> {
    if let Some((eco_name, comp_name)) = query.split_once(':') {
        let eco = by_name(eco_name)?;
        let comp = eco.component(comp_name)?;
        return Some((eco, comp));
    }
    let canonical = query.replace('.', "_");
    let mut hits: Vec<(Ecosystem, Box<dyn Component>)> = all()
        .into_iter()
        .filter_map(|eco| {
            eco.components()
                .into_iter()
                .find(|c| c.name() == canonical)
                .map(|c| (eco, c))
        })
        .collect();
    if hits.len() == 1 {
        return hits.pop();
    }
    None
}

/// The merged cross-ecosystem `ParamSpec` registry, duplicate-guarded
/// over `(component, name)` — component names are namespaced per
/// ecosystem, so the merge is collision-free by construction and the
/// guard enforces that it stays so.
///
/// # Panics
///
/// Panics if two ecosystems register the same `(component, name)` pair.
pub fn merged_registry() -> Vec<ParamSpec> {
    let specs: Vec<ParamSpec> = all().iter().flat_map(|e| e.registry()).collect();
    guard_duplicates(&specs);
    specs
}

/// The mount-stage parameter names shared by every registered
/// ecosystem's mount component — the surface of the cross-FS pass.
pub fn shared_mount_params() -> Vec<String> {
    let mut ecos = all().into_iter();
    let Some(first) = ecos.next() else { return Vec::new() };
    let mut shared: Vec<String> = mount_param_names(&first).into_iter().collect();
    for eco in ecos {
        let names = mount_param_names(&eco);
        shared.retain(|n| names.contains(n));
    }
    shared
}

fn mount_param_names(eco: &Ecosystem) -> BTreeSet<String> {
    eco.registry()
        .into_iter()
        .filter(|p| p.component == eco.mount_component && p.stage == Stage::Mount)
        .map(|p| p.name)
        .collect()
}

/// The cross-ecosystem CCD pass: for every mount parameter both
/// ecosystems expose under the same name (`discard`, `ro`, `barrier`,
/// the `errors=` policy, ...), a fleet that mounts Ext4 and F2FS
/// volumes side by side wants the setting to *agree* — a divergent
/// `errors=` policy on one substrate is exactly the kind of silent
/// behavioural split §5 warns about. Each shared parameter yields one
/// `CcdControl` dependency whose relation carries the "must agree"
/// marker the constraint evaluator understands and whose bridge field
/// names the shared surface rather than an on-disk field.
pub fn cross_fs_ccds() -> Vec<Dependency> {
    let ecos = all();
    if ecos.len() < 2 {
        return Vec::new();
    }
    let (a, b) = (&ecos[0], &ecos[1]);
    shared_mount_params()
        .into_iter()
        .map(|name| Dependency {
            kind: DepKind::CcdControl,
            subject: ParamRef::new(a.mount_component, &name),
            object: Some(Endpoint::Param(ParamRef::new(b.mount_component, &name))),
            detail: DepDetail {
                relation: Some(
                    "shared mount parameters must agree across ecosystems".to_string(),
                ),
                bridge_field: Some(format!("shared:{name}")),
                ..Default::default()
            },
            evidence: vec![format!(
                "ecosys: {}:{} and {}:{} share a mount-option name",
                a.mount_component, name, b.mount_component, name
            )],
        })
        .collect()
}

/// [`cross_fs_ccds`] compiled into executable constraints.
pub fn cross_fs_constraints() -> ConstraintSet {
    ConstraintSet::compile(cross_fs_ccds())
}

/// Evaluates the cross-FS agreement constraints over one mount config
/// per ecosystem, returning the violated constraints' signatures.
pub fn cross_fs_violations(configs: &[&TypedConfig]) -> Vec<String> {
    cross_fs_constraints()
        .constraints()
        .iter()
        .filter(|c| c.evaluate(configs) == confdep::Verdict::Violated)
        .map(|c| c.signature().to_string())
        .collect()
}

/// The kernel-side documentation for the ext4 module knobs
/// (Documentation/admin-guide + sysfs docs): it documents the knobs'
/// types, and a range only for `mb_stream_req` — the
/// `inode_readahead_blks` power-of-two/limit constraint is one of the
/// paper's missing-documentation findings.
pub fn ext4_kernel_doc() -> ManualPage {
    ManualPage {
        component: "ext4".to_string(),
        synopsis: "/sys/fs/ext4/<disk>/...".to_string(),
        description: "Tunables of the ext4 kernel module.".to_string(),
        options: vec![
            ManualOption::valued(
                "inode_readahead_blks",
                "n",
                "Tuning parameter which controls the maximum number of inode table blocks that ext4's inode table readahead algorithm will pre-read.",
            )
            .with(DocConstraint::DataType { param: "inode_readahead_blks".into(), ty: "int".into() }),
            // GAP(paper): the power-of-two/upper-bound constraint is
            // enforced in code but absent here.
            ManualOption::valued(
                "mb_stream_req",
                "n",
                "Files smaller than this number of blocks use group preallocation; at most 1048576.",
            )
            .with(DocConstraint::DataType { param: "mb_stream_req".into(), ty: "int".into() })
            .with(DocConstraint::ValueRange { param: "mb_stream_req".into(), min: 0, max: 1_048_576 }),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confdep::{Solver, Verdict};

    #[test]
    fn ext4_registry_matches_the_legacy_e2fstools_registry() {
        // the lifted layer must not change the ext4 parameter universe
        let lifted: BTreeSet<(String, String)> =
            ext4().registry().into_iter().map(|p| (p.component, p.name)).collect();
        let legacy: BTreeSet<(String, String)> =
            e2fstools::registry().into_iter().map(|p| (p.component, p.name)).collect();
        assert_eq!(lifted, legacy);
    }

    #[test]
    fn both_ecosystems_register_and_merge() {
        let ecos = all();
        assert_eq!(ecos.len(), 2);
        assert_eq!(ecos[0].name, "ext4");
        assert_eq!(ecos[1].name, "f2fs");
        let merged = merged_registry(); // panics on any collision
        let ext4_len = ext4().registry().len();
        let f2fs_len = f2fs().registry().len();
        assert_eq!(merged.len(), ext4_len + f2fs_len);
    }

    #[test]
    fn namespaced_lookup_resolves_short_dotted_and_canonical_names() {
        for (query, component, eco) in [
            ("f2fs:mkfs", "mkfs_f2fs", "f2fs"),
            ("f2fs:mkfs.f2fs", "mkfs_f2fs", "f2fs"),
            ("f2fs:fsck", "fsck_f2fs", "f2fs"),
            ("ext4:mke2fs", "mke2fs", "ext4"),
            ("ext4:mount", "mount", "ext4"),
            ("mke2fs", "mke2fs", "ext4"),
            ("resize.f2fs", "resize_f2fs", "f2fs"),
            ("dump_f2fs", "dump_f2fs", "f2fs"),
        ] {
            let (e, c) = resolve(query).unwrap_or_else(|| panic!("{query} unresolved"));
            assert_eq!(c.name(), component, "{query}");
            assert_eq!(e.name, eco, "{query}");
        }
        assert!(resolve("xfs:mkfs").is_none());
        assert!(resolve("f2fs:mke2fs").is_none());
        assert!(resolve("nonexistent").is_none());
    }

    #[test]
    fn every_ecosystem_extracts_and_compiles() {
        for eco in all() {
            let deps = eco.dependencies().unwrap();
            assert!(deps.len() >= 25, "{}: only {} deps", eco.name, deps.len());
            let set = eco.constraints().unwrap();
            assert_eq!(set.constraints().len(), deps.len());
        }
    }

    #[test]
    fn cross_fs_pass_finds_the_shared_mount_surface() {
        let shared = shared_mount_params();
        for expected in ["ro", "discard", "barrier", "errors", "norecovery", "lazytime"] {
            assert!(shared.iter().any(|n| n == expected), "{expected} missing: {shared:?}");
        }
        let ccds = cross_fs_ccds();
        assert_eq!(ccds.len(), shared.len());
        for d in &ccds {
            assert_eq!(d.kind, DepKind::CcdControl);
            assert_eq!(d.subject.component, "mount");
            assert!(matches!(&d.object, Some(Endpoint::Param(p)) if p.component == "f2fs"));
            assert!(d.detail.bridge_field.as_deref().unwrap().starts_with("shared:"));
        }
    }

    #[test]
    fn cross_fs_constraints_evaluate_agreement() {
        let set = cross_fs_constraints();
        let sig = "CcdControl|mount:discard|f2fs:discard";
        let c = set.find(sig).expect("discard agreement constraint");
        let mut ext4_mnt = TypedConfig::new("mount");
        let mut f2fs_mnt = TypedConfig::new("f2fs");
        ext4_mnt.set_bool("discard", true);
        f2fs_mnt.set_bool("discard", true);
        assert_eq!(c.evaluate(&[&ext4_mnt, &f2fs_mnt]), Verdict::Satisfied);
        f2fs_mnt.set_bool("discard", false);
        assert_eq!(c.evaluate(&[&ext4_mnt, &f2fs_mnt]), Verdict::Violated);
        assert_eq!(cross_fs_violations(&[&ext4_mnt, &f2fs_mnt]), vec![sig.to_string()]);
        let lone = TypedConfig::new("f2fs");
        assert_eq!(c.evaluate(&[&ext4_mnt, &lone]), Verdict::NotApplicable);
    }

    #[test]
    fn f2fs_solver_scope_witnesses_a_substantial_universe() {
        let set = f2fs().constraints().unwrap();
        let solver = Solver::with_scope(&set, f2fs().solver_scope());
        let targets = solver.witness_targets();
        assert!(targets.len() >= 30, "only {} f2fs targets", targets.len());
        for (i, polarity, solved) in &targets {
            assert!(
                solved.render_with(solver.scope()).is_some(),
                "target {i} {polarity} unrenderable"
            );
        }
    }

    #[test]
    fn solver_scope_registries_are_built_once_in_registry_order() {
        // per-line callers ask for the scope every time: it must hand
        // out one shared registry, in the order witnesses depend on
        for eco in all() {
            let (a, b) = (eco.solver_scope(), eco.solver_scope());
            assert!(std::ptr::eq(a.registry, b.registry), "{} rebuilt its registry", eco.name);
        }
        let ext4_want: Vec<ParamSpec> = e2fstools::params::all_params()
            .into_iter()
            .filter(|p| p.component == "mke2fs" || p.component == "mount")
            .collect();
        assert_eq!(ext4().solver_scope().registry, &ext4_want[..]);
        let mut f2fs_want = f2fstools::mkfs::param_table();
        f2fs_want.extend(f2fstools::mount::param_table());
        assert_eq!(f2fs().solver_scope().registry, &f2fs_want[..]);
    }

    #[test]
    fn doc_corpora_cover_the_analyzed_components() {
        let ext4_pages = ext4().doc_corpus();
        let names: Vec<&str> = ext4_pages.iter().map(|p| p.component.as_str()).collect();
        for c in ["mke2fs", "mount", "e4defrag", "resize2fs", "e2fsck", "ext4"] {
            assert!(names.contains(&c), "{c} missing from ext4 corpus: {names:?}");
        }
        // tune2fs has no model, so ConDocCk does not read its page
        assert!(!names.contains(&"tune2fs"));
        let f2fs_pages = f2fs().doc_corpus();
        let names: Vec<&str> = f2fs_pages.iter().map(|p| p.component.as_str()).collect();
        for c in ["mkfs_f2fs", "f2fs", "fsck_f2fs", "resize_f2fs", "f2fs_kernel"] {
            assert!(names.contains(&c), "{c} missing from f2fs corpus: {names:?}");
        }
    }
}
