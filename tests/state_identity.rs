//! One identity per configuration state.
//!
//! The fuzz harness keys a candidate by the shared state encoding of
//! its typed views, and the validation service keys the same lines the
//! same way. These properties draw candidates from hostile values —
//! labels and operands made of the display key's own separators
//! (`,=:{}[];|#`) and empty tokens — and check, for both ecosystems:
//!
//! * two candidates share a state key exactly when their typed views
//!   are equal;
//! * a candidate's fuzz identity is the serving identity:
//!   `Harness::state_key`/`state_id` equal the `memo_key`/`fingerprint`
//!   of `ConfigQuery::from_cli_for` over the same lines.

use confdep_suite::contools::fuzz::Harness;
use confdep_suite::contools::GeneratedConfig;
use confdep_suite::convalid::ConfigQuery;
use confdep_suite::e2fstools::TypedConfig;
use confdep_suite::ecosys::{self, Ecosystem};
use proptest::prelude::*;

fn ecosystems() -> [(Ecosystem, Harness); 2] {
    [(ecosys::ext4(), Harness::ext4()), (ecosys::f2fs(), Harness::f2fs())]
}

/// A value built from the characters the display key gives meaning to,
/// empty tokens, numbers, and spellings of whole display-key fragments.
fn hostile_value() -> impl Strategy<Value = String> {
    prop_oneof![
        prop_oneof![
            Just(""),
            Just(","),
            Just("="),
            Just(":"),
            Just("{"),
            Just("}"),
            Just("["),
            Just("]"),
            Just(";"),
            Just("|"),
            Just("#"),
            Just("x"),
            Just("y"),
            Just("1024"),
            Just("-1"),
            Just("x,uuid=s:y"),
            Just("x,z=b:true"),
            Just("x,quiet=b:true"),
            Just("b:true"),
            Just("}[];mount{"),
            Just("é"),
        ]
        .prop_map(str::to_string),
        "[,=:{}[;|#xyb0-9]{0,6}",
    ]
}

/// One create argument: a flag either ecosystem's lenient parser knows,
/// an unknown one, or a hostile value.
fn arg() -> impl Strategy<Value = String> {
    prop_oneof![
        prop_oneof![
            Just("-L"),
            Just("-U"),
            Just("-O"),
            Just("-E"),
            Just("-J"),
            Just("-b"),
            Just("-z"),
            Just("-l"),
            Just("-o"),
            Just("-s"),
            Just("-q"),
            Just("-f"),
        ]
        .prop_map(str::to_string),
        hostile_value(),
    ]
}

/// One mount token: a bare or `key=value` token with hostile parts.
fn mount_token() -> impl Strategy<Value = String> {
    prop_oneof![
        prop_oneof![Just("ro"), Just("noload"), Just("discard"), Just("data"), Just("errors")]
            .prop_map(str::to_string),
        hostile_value(),
    ]
}

fn candidate() -> impl Strategy<Value = GeneratedConfig> {
    (prop::collection::vec(arg(), 0..8), prop::collection::vec(mount_token(), 0..5))
        .prop_map(|(mkfs_args, tokens)| GeneratedConfig { mkfs_args, mount_opts: tokens.join(",") })
}

fn views(eco: &Ecosystem, cfg: &GeneratedConfig) -> [TypedConfig; 2] {
    let scope = eco.solver_scope();
    [(scope.parse_create)(&cfg.mkfs_args), (scope.parse_mount)(&cfg.mount_opts)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn state_keys_are_equal_exactly_when_views_are(
        a in candidate(),
        b in candidate(),
        mode in 0u8..4,
    ) {
        // mode 0: an independent pair; 1: an equal pair; 2: b carries
        // one extra empty operand, which the display key cannot see;
        // 3: b lists a's mount tokens in reverse
        let b = match mode {
            0 => b,
            1 => a.clone(),
            2 => {
                let mut extended = a.clone();
                extended.mkfs_args.push(String::new());
                extended
            }
            _ => {
                let mut reversed = a.clone();
                let tokens: Vec<&str> = a.mount_opts.split(',').rev().collect();
                reversed.mount_opts = tokens.join(",");
                reversed
            }
        };
        for (eco, harness) in ecosystems() {
            let same_views = views(&eco, &a) == views(&eco, &b);
            prop_assert_eq!(
                harness.state_key(&a) == harness.state_key(&b),
                same_views,
                "{}: {:?} vs {:?}",
                eco.name,
                a,
                b
            );
            if same_views {
                prop_assert_eq!(harness.state_id(&a), harness.state_id(&b));
            }
        }
    }

    #[test]
    fn harness_state_id_is_the_serving_fingerprint(cfg in candidate()) {
        for (eco, harness) in ecosystems() {
            let query = ConfigQuery::from_cli_for(&eco, &cfg.mkfs_args, &cfg.mount_opts);
            prop_assert_eq!(&harness.state_key(&cfg), &query.memo_key(), "{}: {:?}", eco.name, cfg);
            prop_assert_eq!(harness.state_id(&cfg), query.fingerprint(), "{}: {:?}", eco.name, cfg);
        }
    }
}

fn cfg(args: &[&str], mount: &str) -> GeneratedConfig {
    GeneratedConfig {
        mkfs_args: args.iter().map(|s| s.to_string()).collect(),
        mount_opts: mount.to_string(),
    }
}

/// Pairs whose display keys collide — a label spelling the separators
/// of a real label-plus-flag pair, and an extra empty operand — get
/// distinct identities in both ecosystems.
#[test]
fn display_key_collisions_get_distinct_identities() {
    let pairs = [
        ("ext4", cfg(&["-L", "x,z=b:true"], ""), cfg(&["-L", "x", "-z"], "")),
        ("ext4", cfg(&["-L", "x,uuid=s:y"], "ro"), cfg(&["-L", "x", "-U", "y"], "ro")),
        ("ext4", cfg(&["-b", "1024"], ""), cfg(&["-b", "1024", ""], "")),
        ("f2fs", cfg(&["-l", "x,quiet=b:true"], ""), cfg(&["-l", "x", "-q"], "")),
        ("f2fs", cfg(&["-o", "10"], ""), cfg(&["-o", "10", ""], "")),
    ];
    for (name, a, b) in pairs {
        let (eco, harness) =
            ecosystems().into_iter().find(|(eco, _)| eco.name == name).expect("registered");
        let [va, vb] = [views(&eco, &a), views(&eco, &b)];
        let display =
            |v: &[TypedConfig; 2]| format!("{}|{}", v[0].canonical_key(), v[1].canonical_key());
        assert_eq!(display(&va), display(&vb), "{name}: not a display-key collision");
        assert_ne!(va, vb);
        assert_ne!(harness.state_key(&a), harness.state_key(&b), "{name}: {a:?} vs {b:?}");
        assert_ne!(harness.state_id(&a), harness.state_id(&b), "{name}: {a:?} vs {b:?}");
    }
}
