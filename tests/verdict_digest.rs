//! Golden digests of the constraint evaluator.
//!
//! A fixed, seeded population of typed states is drawn over each
//! constraint set's parameter universe — ext4 (64 dependencies), F2FS
//! (69) and the cross-FS agreement set — including duplicate views of
//! one component and views from both ecosystems in one state. Every
//! constraint is evaluated on every state and the full verdict matrix
//! is folded into one FNV-1a digest per set. The solver's witnesses and
//! the polarities it observes on the same states are digested too.
//!
//! The digests were computed with the string-interpreting evaluator
//! that predates the lowered predicate form; any change to what a
//! dependency means as a predicate changes them.

use std::collections::BTreeSet;

use confdep_suite::confdep::{ConstraintSet, Endpoint, Solver, Verdict};
use confdep_suite::e2fstools::typed::{TypedConfig, TypedValue};
use confdep_suite::ecosys::{self, Ecosystem};

/// Number of generated states per constraint set.
const STATES: usize = 1500;

const EXT4_VERDICTS: u64 = 0x095c_19fe_540a_b5b9;
const F2FS_VERDICTS: u64 = 0x309c_95e9_14c9_e91c;
const CROSS_FS_VERDICTS: u64 = 0xa4f9_789f_b5b9_4fe0;
const EXT4_POLARITIES: u64 = 0x6d6a_a221_22e1_f1db;
const F2FS_POLARITIES: u64 = 0x8258_36a1_3a33_f4f6;
const EXT4_WITNESSES: u64 = 0x7702_49de_714e_96b5;
const F2FS_WITNESSES: u64 = 0x9051_4609_bad1_19ba;

/// SplitMix64: a self-contained seeded stream, so the states do not
/// depend on any library's generator staying stable.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn verdict_byte(v: Verdict) -> u8 {
    match v {
        Verdict::Satisfied => 1,
        Verdict::Violated => 2,
        Verdict::NotApplicable => 3,
    }
}

/// Every `(component, parameter)` a set's constraints name at either
/// end, plus every registered parameter of those components — the
/// registry carries the spec names the typed views use, so aliased
/// model variables are reached under both spellings.
fn universe(set: &ConstraintSet) -> Vec<(String, String)> {
    let mut seen = BTreeSet::new();
    for d in set.dependencies() {
        seen.insert((d.subject.component.clone(), d.subject.param.clone()));
        if let Some(Endpoint::Param(p)) = &d.object {
            seen.insert((p.component.clone(), p.param.clone()));
        }
    }
    let components: BTreeSet<String> = seen.iter().map(|(c, _)| c.clone()).collect();
    for spec in ecosys::merged_registry() {
        if components.contains(&spec.component) {
            seen.insert((spec.component, spec.name));
        }
    }
    seen.into_iter().collect()
}

/// Integer values on and around every bound and excluded value any
/// constraint of any set names, plus a few far-out ones.
fn int_pool(sets: &[&ConstraintSet]) -> Vec<i64> {
    let mut pool: BTreeSet<i64> = [-70_000, -1, 0, 1, 2, 7, 16, 4096, 70_000, 1 << 40].into();
    for d in sets.iter().flat_map(|s| s.dependencies()) {
        for v in [d.detail.min, d.detail.max].into_iter().flatten() {
            pool.extend([v.saturating_sub(1), v, v.saturating_add(1)]);
        }
        pool.extend(d.detail.value_set.iter().copied());
    }
    pool.into_iter().collect()
}

const STRINGS: [&str; 9] = [
    "journal",
    "ordered",
    "writeback",
    "remount-ro",
    "continue",
    "panic",
    "on",
    "off",
    "x",
];

/// A random value; half the draws come from a four-value pool, so two
/// ends of an agreement pair often carry equal values.
fn value(rng: &mut Rng, ints: &[i64]) -> TypedValue {
    match rng.below(6) {
        0 => TypedValue::Bool(rng.below(2) == 1),
        1 => TypedValue::Int(*rng.pick(ints)),
        2 => TypedValue::Str((*rng.pick(&STRINGS)).to_string()),
        _ => match rng.below(4) {
            0 => TypedValue::Bool(true),
            1 => TypedValue::Bool(false),
            2 => TypedValue::Int(1),
            _ => TypedValue::Str("panic".to_string()),
        },
    }
}

/// One state: picks mostly from `own`, sometimes from `other` (the
/// second ecosystem's universe), grouped one view per component; then,
/// one time in three, a second view of an already-present component —
/// empty or populated — inserted at a random position.
fn state(
    rng: &mut Rng,
    own: &[(String, String)],
    other: &[(String, String)],
    ints: &[i64],
) -> Vec<TypedConfig> {
    let mut views: Vec<TypedConfig> = Vec::new();
    for _ in 0..rng.below(20) {
        let (component, param) = if rng.below(5) == 0 {
            rng.pick(other)
        } else {
            rng.pick(own)
        };
        let v = value(rng, ints);
        match views.iter_mut().find(|c| &c.component == component) {
            Some(cfg) => {
                cfg.values.insert(param.clone(), v);
            }
            None => {
                let mut cfg = TypedConfig::new(component);
                cfg.values.insert(param.clone(), v);
                views.push(cfg);
            }
        }
    }
    if !views.is_empty() && rng.below(3) == 0 {
        let component = views[rng.below(views.len())].component.clone();
        let params: Vec<&(String, String)> = own
            .iter()
            .chain(other)
            .filter(|(c, _)| *c == component)
            .collect();
        let mut dup = TypedConfig::new(&component);
        for _ in 0..rng.below(4) {
            let (_, param) = *rng.pick(&params);
            dup.values.insert(param.clone(), value(rng, ints));
        }
        let at = rng.below(views.len() + 1);
        views.insert(at, dup);
    }
    views
}

fn states(
    seed: u64,
    own: &ConstraintSet,
    other: &ConstraintSet,
    ints: &[i64],
) -> Vec<Vec<TypedConfig>> {
    let (own, other) = (universe(own), universe(other));
    let mut rng = Rng(seed);
    (0..STATES)
        .map(|_| state(&mut rng, &own, &other, ints))
        .collect()
}

fn verdict_digest(set: &ConstraintSet, states: &[Vec<TypedConfig>]) -> (u64, [usize; 3]) {
    let mut fnv = Fnv::new();
    let mut counts = [0usize; 3];
    for views in states {
        let refs: Vec<&TypedConfig> = views.iter().collect();
        for c in set.constraints() {
            let b = verdict_byte(c.evaluate(&refs));
            counts[usize::from(b - 1)] += 1;
            fnv.bytes(&[b]);
        }
        fnv.bytes(b";");
    }
    (fnv.0, counts)
}

/// The polarities the solver observes on each state's create and mount
/// views (the first view of each component, empty when absent) — the
/// fuzz campaign's coverage evaluation.
fn polarity_digest(eco: &Ecosystem, set: &ConstraintSet, states: &[Vec<TypedConfig>]) -> u64 {
    let solver = Solver::with_scope(set, eco.solver_scope());
    let first = |views: &[TypedConfig], component: &str| {
        views
            .iter()
            .find(|c| c.component == component)
            .cloned()
            .unwrap_or_else(|| TypedConfig::new(component))
    };
    let mut fnv = Fnv::new();
    for views in states {
        let mkfs = first(views, eco.create_component);
        let mount = first(views, eco.mount_component);
        for c in set.constraints() {
            for p in solver.observed_polarities(c, &mkfs, &mount) {
                fnv.bytes(p.label().as_bytes());
            }
            fnv.bytes(b",");
        }
        fnv.bytes(b";");
    }
    fnv.0
}

fn witness_digest(eco: &Ecosystem, set: &ConstraintSet) -> (u64, usize) {
    let solver = Solver::with_scope(set, eco.solver_scope());
    let witnesses = solver.witness_targets();
    let mut fnv = Fnv::new();
    for (i, polarity, solved) in &witnesses {
        fnv.bytes(&(*i as u64).to_le_bytes());
        fnv.bytes(polarity.label().as_bytes());
        fnv.bytes(solved.mkfs.canonical_key().as_bytes());
        fnv.bytes(solved.mount.canonical_key().as_bytes());
    }
    (fnv.0, witnesses.len())
}

struct Fixture {
    ext4: ConstraintSet,
    f2fs: ConstraintSet,
    cross: ConstraintSet,
    ints: Vec<i64>,
}

fn fixture() -> Fixture {
    let ext4 = ecosys::ext4().constraints().expect("ext4 models compile");
    let f2fs = ecosys::f2fs().constraints().expect("f2fs models compile");
    let cross = ecosys::cross_fs_constraints();
    assert_eq!(ext4.len(), 64);
    assert_eq!(f2fs.len(), 69);
    assert!(!cross.is_empty());
    let ints = int_pool(&[&ext4, &f2fs, &cross]);
    Fixture {
        ext4,
        f2fs,
        cross,
        ints,
    }
}

fn assert_engaged(name: &str, counts: [usize; 3]) {
    let [satisfied, violated, _] = counts;
    assert!(
        satisfied > 0 && violated > 0,
        "{name} states never engage both ways: {counts:?}"
    );
}

#[test]
fn verdict_matrices_match_the_golden_digests() {
    let fx = fixture();
    let ext4_states = states(0x5EED_0001, &fx.ext4, &fx.f2fs, &fx.ints);
    let f2fs_states = states(0x5EED_0002, &fx.f2fs, &fx.ext4, &fx.ints);
    let cross_states = states(0x5EED_0003, &fx.cross, &fx.ext4, &fx.ints);
    let (ext4, ext4_counts) = verdict_digest(&fx.ext4, &ext4_states);
    let (f2fs, f2fs_counts) = verdict_digest(&fx.f2fs, &f2fs_states);
    let (cross, cross_counts) = verdict_digest(&fx.cross, &cross_states);
    eprintln!("verdicts: ext4 {ext4:#018x} {ext4_counts:?}, f2fs {f2fs:#018x} {f2fs_counts:?}, cross {cross:#018x} {cross_counts:?}");
    assert_engaged("ext4", ext4_counts);
    assert_engaged("f2fs", f2fs_counts);
    assert_engaged("cross-fs", cross_counts);
    assert_eq!(ext4, EXT4_VERDICTS, "ext4 verdict matrix changed");
    assert_eq!(f2fs, F2FS_VERDICTS, "f2fs verdict matrix changed");
    assert_eq!(cross, CROSS_FS_VERDICTS, "cross-fs verdict matrix changed");
}

#[test]
fn observed_polarities_match_the_golden_digests() {
    let fx = fixture();
    let ext4_states = states(0x5EED_0001, &fx.ext4, &fx.f2fs, &fx.ints);
    let f2fs_states = states(0x5EED_0002, &fx.f2fs, &fx.ext4, &fx.ints);
    let ext4 = polarity_digest(&ecosys::ext4(), &fx.ext4, &ext4_states);
    let f2fs = polarity_digest(&ecosys::f2fs(), &fx.f2fs, &f2fs_states);
    eprintln!("polarities: ext4 {ext4:#018x}, f2fs {f2fs:#018x}");
    assert_eq!(ext4, EXT4_POLARITIES, "ext4 observed polarities changed");
    assert_eq!(f2fs, F2FS_POLARITIES, "f2fs observed polarities changed");
}

#[test]
fn solver_witnesses_match_the_golden_digests() {
    let fx = fixture();
    let (ext4, ext4_n) = witness_digest(&ecosys::ext4(), &fx.ext4);
    let (f2fs, f2fs_n) = witness_digest(&ecosys::f2fs(), &fx.f2fs);
    eprintln!("witnesses: ext4 {ext4:#018x} ({ext4_n}), f2fs {f2fs:#018x} ({f2fs_n})");
    assert_eq!(
        (ext4_n, f2fs_n),
        (88, 106),
        "solver polarity universe drifted"
    );
    assert_eq!(ext4, EXT4_WITNESSES, "ext4 solver witnesses changed");
    assert_eq!(f2fs, F2FS_WITNESSES, "f2fs solver witnesses changed");
}

#[test]
fn seeded_states_cover_duplicate_and_cross_ecosystem_views() {
    let fx = fixture();
    let ext4_states = states(0x5EED_0001, &fx.ext4, &fx.f2fs, &fx.ints);
    let duplicated = ext4_states.iter().any(|views| {
        views
            .iter()
            .enumerate()
            .any(|(i, a)| views[..i].iter().any(|b| b.component == a.component))
    });
    let f2fs_components: BTreeSet<String> =
        universe(&fx.f2fs).into_iter().map(|(c, _)| c).collect();
    let mixed = ext4_states.iter().any(|views| {
        views.iter().any(|c| f2fs_components.contains(&c.component))
            && views.iter().any(|c| c.component == "mke2fs")
    });
    assert!(duplicated, "no state carries two views of one component");
    assert!(mixed, "no state mixes ext4 and f2fs views");
}
