//! Serving-path equivalence properties for the `convalid` engine: for
//! arbitrary typed configurations, the indexed plan, the memoized
//! serving path, and the batched fan-out must all return verdict
//! vectors byte-identical to evaluating every compiled
//! [`Constraint`](confdep_suite::confdep::Constraint) directly — and a
//! repair proposal must always re-validate clean.

use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use confdep_suite::confdep::{
    extract_scenario, models, ConstraintSet, ExtractOptions, Predicate, Verdict,
};
use confdep_suite::convalid::{
    ConfigQuery, EngineOptions, ValidationEngine, ValidationPlan,
};
use confdep_suite::e2fstools::typed::{TypedConfig, TypedValue};
use confdep_suite::ecosys::{self, Ecosystem};

fn plan() -> &'static Arc<ValidationPlan> {
    static PLAN: OnceLock<Arc<ValidationPlan>> = OnceLock::new();
    PLAN.get_or_init(|| {
        Arc::new(ValidationPlan::compile(ConstraintSet::compile(
            extract_scenario(&models::all(), ExtractOptions::default()).unwrap(),
        )))
    })
}

/// Engines are shared across proptest cases on purpose: the memoized
/// engine accumulates state, so later cases exercise cross-query memo
/// traffic (hits, collision checks, evictions) instead of always
/// starting cold.
fn engines() -> &'static (ValidationEngine, ValidationEngine, ValidationEngine) {
    static ENGINES: OnceLock<(ValidationEngine, ValidationEngine, ValidationEngine)> =
        OnceLock::new();
    ENGINES.get_or_init(|| {
        let p = plan();
        (
            ValidationEngine::new(Arc::clone(p), EngineOptions::naive()),
            ValidationEngine::new(Arc::clone(p), EngineOptions::indexed()),
            ValidationEngine::new(Arc::clone(p), EngineOptions::serving()),
        )
    })
}

/// Every (component, registry parameter) either end of any compiled
/// constraint touches — the parameter universe random queries draw
/// from, so generated states actually engage the constraint table.
fn param_universe() -> &'static Vec<(String, String)> {
    static UNIVERSE: OnceLock<Vec<(String, String)>> = OnceLock::new();
    UNIVERSE.get_or_init(|| {
        let mut seen = BTreeSet::new();
        for c in plan().constraints().constraints() {
            let p = c.predicate();
            let object = match p {
                Predicate::Pair { object, .. } => Some(object),
                _ => None,
            };
            for slot in p.subject().into_iter().chain(object) {
                seen.insert((slot.component.clone(), slot.param.clone()));
            }
        }
        seen.into_iter().collect()
    })
}

fn value_strategy() -> impl Strategy<Value = TypedValue> {
    prop_oneof![
        (0u8..2).prop_map(|b| TypedValue::Bool(b == 1)),
        // spans every compiled range boundary (blocksize, commit,
        // reserved_percent, stride, ...) plus far-out-of-range values
        (-70_000i64..=70_000).prop_map(TypedValue::Int),
        prop_oneof![
            Just("journal"),
            Just("ordered"),
            Just("writeback"),
            Just("remount-ro"),
            Just("continue"),
            Just("panic"),
            Just("not-a-mode"),
        ]
        .prop_map(|s| TypedValue::Str(s.to_string())),
    ]
}

/// A random whole-configuration state: a subset of the constraint
/// parameter universe with arbitrary typed values, grouped into one
/// `TypedConfig` per component (always materializing the `mke2fs` and
/// `mount` views, as the CLI surface does) — and, sometimes, a second
/// view of an existing component, empty or populated, at any position,
/// so the falls-through-duplicates lookup rule is exercised on every
/// path.
fn query_strategy() -> impl Strategy<Value = ConfigQuery> {
    let universe_len = param_universe().len();
    // (none / empty / populated, which component, where, its values)
    let duplicate = (
        0u8..3,
        0usize..1024,
        0usize..1024,
        prop::collection::vec((0..universe_len, value_strategy()), 1..3),
    );
    (prop::collection::vec((0..universe_len, value_strategy()), 0..12), duplicate).prop_map(
        |(picks, duplicate)| {
            let universe = param_universe();
            let mut components: Vec<TypedConfig> =
                vec![TypedConfig::new("mke2fs"), TypedConfig::new("mount")];
            for (at, value) in picks {
                let (component, param) = &universe[at];
                let cfg = match components.iter_mut().find(|c| &c.component == component) {
                    Some(cfg) => cfg,
                    None => {
                        components.push(TypedConfig::new(component));
                        components.last_mut().unwrap()
                    }
                };
                cfg.values.insert(param.clone(), value);
            }
            let (mode, of, at, dup_picks) = duplicate;
            if mode > 0 {
                // a populated duplicate draws its parameters from the
                // duplicated component's share of the universe
                let component = components[of % components.len()].component.clone();
                let params: Vec<&String> =
                    universe.iter().filter(|(c, _)| *c == component).map(|(_, p)| p).collect();
                let mut dup = TypedConfig::new(&component);
                if mode == 2 && !params.is_empty() {
                    for (pick, value) in dup_picks {
                        dup.values.insert(params[pick % params.len()].clone(), value);
                    }
                }
                components.insert(at % (components.len() + 1), dup);
            }
            ConfigQuery::new(components)
        },
    )
}

/// One serving engine per ecosystem (ext4, then F2FS) over its own
/// plan, for tagged batch lines; shared across cases like [`engines`].
fn eco_engines() -> &'static [(Ecosystem, ValidationEngine)] {
    static ENGINES: OnceLock<Vec<(Ecosystem, ValidationEngine)>> = OnceLock::new();
    ENGINES.get_or_init(|| {
        ecosys::all()
            .into_iter()
            .map(|eco| {
                let plan = ValidationPlan::compile_for(eco.constraints().unwrap(), eco);
                (eco, ValidationEngine::new(Arc::new(plan), EngineOptions::serving()))
            })
            .collect()
    })
}

/// A batch line built from the characters and tokens the line format
/// gives meaning to (`|`, `#`, `,`, `=`, `^`, flags, empty tokens),
/// glued by separators or nothing, mixed with arbitrary text —
/// non-ASCII, control characters and all.
fn hostile_line() -> impl Strategy<Value = String> {
    let token = prop_oneof![
        prop_oneof![
            Just("|"),
            Just("#"),
            Just(","),
            Just("="),
            Just("^"),
            Just(""),
            Just("-"),
            Just("-O"),
            Just("-E"),
            Just("-J"),
            Just("-b"),
            Just("-L"),
            Just("-U"),
            Just("-o"),
            Just("-s"),
            Just("-t"),
            Just("ro"),
            Just("data=journal"),
            Just("commit=-1"),
            Just("errors="),
            Just("^has_journal"),
            Just("meta_bg,,resize_inode"),
            Just("stride=99999999999999999999"),
            Just("size="),
            Just("é"),
            Just("λ=\u{1F600}"),
            Just("\u{0}"),
        ]
        .prop_map(str::to_string),
        ".{0,8}",
        "[-0-9|#,=^ a-z]{0,8}",
    ];
    let glue = prop_oneof![Just(" "), Just(""), Just(","), Just("|"), Just("\t")];
    prop::collection::vec((token, glue), 0..12).prop_map(|parts| {
        parts.into_iter().flat_map(|(token, glue)| [token, glue.to_string()]).collect()
    })
}

fn direct_verdicts(query: &ConfigQuery) -> Vec<Verdict> {
    let views: Vec<&TypedConfig> = query.views();
    plan()
        .constraints()
        .constraints()
        .iter()
        .map(|c| c.evaluate(&views))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn serving_paths_match_direct_evaluation(query in query_strategy()) {
        let direct = direct_verdicts(&query);
        let (naive, indexed, serving) = engines();

        let n = naive.validate(&query);
        prop_assert_eq!(&direct[..], &n.verdicts[..], "naive path diverged");
        prop_assert_eq!(n.evaluated, direct.len(), "naive must evaluate the whole table");

        let i = indexed.validate(&query);
        prop_assert_eq!(&direct[..], &i.verdicts[..], "indexed path diverged");
        prop_assert!(i.evaluated <= direct.len());

        let s = serving.validate(&query);
        prop_assert_eq!(&direct[..], &s.verdicts[..], "memoized path diverged");
        // asking again must hit the memo and answer identically
        let again = serving.validate(&query);
        prop_assert!(again.memo_hit, "repeat of the same state missed the memo");
        prop_assert_eq!(again.evaluated, 0);
        prop_assert_eq!(&s.verdicts[..], &again.verdicts[..]);
    }

    #[test]
    fn batched_fanout_matches_direct_evaluation(
        queries in prop::collection::vec(query_strategy(), 1..8),
        threads in 0usize..4,
    ) {
        let (_, _, serving) = engines();
        let outcomes = serving.validate_many(&queries, threads);
        prop_assert_eq!(outcomes.len(), queries.len());
        for (query, outcome) in queries.iter().zip(&outcomes) {
            let direct = direct_verdicts(query);
            prop_assert_eq!(&direct[..], &outcome.verdicts[..], "batched path diverged");
        }
    }

    #[test]
    fn memo_key_matches_exactly_the_equal_query(
        a in query_strategy(),
        b in query_strategy(),
        mode in 0u8..3,
        cut in 0usize..4096,
    ) {
        // mode 0: an independent pair; 1: an equal pair; 2: b carries
        // one extra empty operand, which the canonical state key (and
        // so the fingerprint) cannot see
        let b = match mode {
            0 => b,
            1 => a.clone(),
            _ => {
                let mut extended = a.clone();
                extended.configs.last_mut().unwrap().operands.push(String::new());
                extended
            }
        };
        let key = b.memo_key();
        prop_assert_eq!(a.matches_key(&key), a == b);
        // a key only a prefix of the encoding, or one the encoding is
        // only a prefix of, never matches — not even its owner
        let cut = cut % key.len();
        prop_assert!(!a.matches_key(&key[..cut]), "matched a {}-byte prefix", cut);
        prop_assert!(!b.matches_key(&key[..cut]), "matched a {}-byte prefix", cut);
        let extended = [&key[..], &key[..=cut]].concat();
        prop_assert!(!b.matches_key(&extended), "matched its key plus {} bytes", cut + 1);
    }

    #[test]
    fn repair_always_revalidates_clean(query in query_strategy()) {
        let (_, indexed, _) = engines();
        let proposal = indexed.repair(&query);
        prop_assert!(proposal.clean, "repair reported an unclean result");
        let repaired = ConfigQuery::new(proposal.configs.clone());
        let outcome = indexed.validate(&repaired);
        prop_assert!(
            outcome.ok(),
            "repaired state still violates: {:?}",
            outcome.violations()
        );
        // a state the repair left untouched was already clean
        if proposal.changes.is_empty() {
            prop_assert!(indexed.validate(&query).ok());
        }
    }
}

proptest! {
    // cheap cases: a parse and one served validation per ecosystem
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hostile_batch_lines_parse_without_panic_and_serve_exactly(line in hostile_line()) {
        // untagged lines go to the untagged ext4 plan
        if let Some(query) = ConfigQuery::parse_line(&line) {
            let (_, _, serving) = engines();
            let served = serving.validate(&query);
            prop_assert_eq!(&direct_verdicts(&query)[..], &served.verdicts[..]);
        }
        for (eco, engine) in eco_engines() {
            let Some(query) = ConfigQuery::parse_line_for(eco, &line) else {
                continue;
            };
            let views = query.views();
            let direct: Vec<Verdict> = engine
                .plan()
                .constraints()
                .constraints()
                .iter()
                .map(|c| c.evaluate(&views))
                .collect();
            let served = engine.validate(&query);
            prop_assert_eq!(&direct[..], &served.verdicts[..], "{} diverged on {:?}", eco.name, line);
        }
    }
}

/// Regression: `repair` used to spin forever when a query carried two
/// views of one component and the violating value sat in the second —
/// the leftover pass removed the subject from the *first* view, which
/// the evaluator never read.
#[test]
fn repair_terminates_on_duplicate_component_views() {
    let (_, indexed, _) = engines();
    let mut populated = TypedConfig::new("mke2fs");
    populated.set_int("blocksize", 99); // violates the 1024..=65536 range
    let query = ConfigQuery::new(vec![
        TypedConfig::new("mke2fs"),
        populated,
        TypedConfig::new("mount"),
    ]);
    assert!(!indexed.validate(&query).ok(), "query built to violate");
    let (done, receive) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = done.send(indexed.repair(&query));
    });
    let proposal = receive
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("repair did not return on duplicate component views");
    worker.join().expect("repair thread panicked");
    assert!(proposal.clean);
    let repaired = ConfigQuery::new(proposal.configs);
    assert!(indexed.validate(&repaired).ok());
}
