//! The typed configuration value model of the ecosystem layer, and the
//! one identity of a configuration state.
//!
//! Every component parses its CLI surface into a [`TypedConfig`] — a
//! canonical `parameter -> typed value` map — instead of each consumer
//! re-interpreting raw argument strings. A `TypedConfig` is validated
//! once against the [`crate::params::ParamSpec`] registry (see
//! [`crate::component`]) and rendered back to CLI arguments for
//! round-trip testing.
//!
//! A whole configuration state — an optional ecosystem tag plus its
//! component configs — has exactly one identity: [`state_key`], an
//! injective byte encoding, and [`state_fingerprint`], FNV-1a of those
//! bytes. Validation memo keys, fuzz and ConBugCk dedup and verdict
//! store keys all go through them, so semantically equal
//! configurations share one state regardless of argument order, and
//! distinct ones never do. [`TypedConfig::canonical_key`] is a
//! readable rendering for display only.

use std::collections::BTreeMap;
use std::fmt;

use blockdev::{fnv1a, FNV_OFFSET_BASIS};
use serde::{Deserialize, Serialize};

use crate::params::{ParamSpec, ParamType};

/// A typed parameter value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TypedValue {
    /// A boolean (flags, features; `false` records an explicit `^name`).
    Bool(bool),
    /// An integer (counts, sizes, ids).
    Int(i64),
    /// A free-form or enumerated string.
    Str(String),
}

impl fmt::Display for TypedValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypedValue::Bool(b) => write!(f, "b:{b}"),
            TypedValue::Int(i) => write!(f, "i:{i}"),
            TypedValue::Str(s) => write!(f, "s:{s}"),
        }
    }
}

/// One component's configuration as typed values.
///
/// The value map is a `BTreeMap`, so iteration (and therefore
/// [`state_key`]) is independent of insertion order — the property the
/// state dedup relies on.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TypedConfig {
    /// The owning component (`mke2fs`, `mount`, ...).
    pub component: String,
    /// Parameter name -> typed value, sorted by name.
    pub values: BTreeMap<String, TypedValue>,
    /// Positional operands (device paths, sizes) in CLI order.
    pub operands: Vec<String>,
}

/// A registry-validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// The parameter is not registered for this component.
    UnknownParam {
        /// The component the config claims.
        component: String,
        /// The unregistered parameter.
        param: String,
    },
    /// An integer value falls outside the spec's inclusive range.
    OutOfRange {
        /// The parameter.
        param: String,
        /// The offending value.
        value: i64,
        /// Spec minimum.
        min: i64,
        /// Spec maximum.
        max: i64,
    },
    /// A string value is not a member of the spec's enumeration.
    NotInEnum {
        /// The parameter.
        param: String,
        /// The offending value.
        value: String,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::UnknownParam { component, param } => {
                write!(f, "unknown parameter {component}:{param}")
            }
            ValidationError::OutOfRange { param, value, min, max } => {
                write!(f, "{param}={value} outside {min}..={max}")
            }
            ValidationError::NotInEnum { param, value } => {
                write!(f, "{param}={value} is not an enumerated value")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

impl TypedConfig {
    /// An empty configuration for `component`.
    pub fn new(component: &str) -> Self {
        TypedConfig { component: component.to_string(), ..TypedConfig::default() }
    }

    /// Sets a boolean parameter.
    pub fn set_bool(&mut self, name: &str, v: bool) -> &mut Self {
        self.values.insert(name.to_string(), TypedValue::Bool(v));
        self
    }

    /// Sets an integer parameter.
    pub fn set_int(&mut self, name: &str, v: i64) -> &mut Self {
        self.values.insert(name.to_string(), TypedValue::Int(v));
        self
    }

    /// Sets a string parameter.
    pub fn set_str(&mut self, name: &str, v: &str) -> &mut Self {
        self.values.insert(name.to_string(), TypedValue::Str(v.to_string()));
        self
    }

    /// Looks a parameter up.
    pub fn get(&self, name: &str) -> Option<&TypedValue> {
        self.values.get(name)
    }

    /// The integer value of a parameter, if it is one.
    pub fn get_int(&self, name: &str) -> Option<i64> {
        match self.values.get(name) {
            Some(TypedValue::Int(i)) => Some(*i),
            _ => None,
        }
    }

    /// Whether a parameter is "engaged": a `true` boolean, or any
    /// integer/string value at all.
    pub fn is_engaged(&self, name: &str) -> bool {
        match self.values.get(name) {
            Some(TypedValue::Bool(b)) => *b,
            Some(_) => true,
            None => false,
        }
    }

    /// A display string: component, then every parameter in name order
    /// with its typed value, then the operands, e.g.
    /// `mke2fs{blocksize=i:1024,label=s:x}[]`. Argument order does not
    /// change it. It is **not** injective — a string value may spell
    /// the separators (`-L x,uuid=s:y` renders like `-L x -U y`), and a
    /// lone empty operand renders like none — so it must never key,
    /// fingerprint or dedup a state; [`state_key`] does that.
    pub fn canonical_key(&self) -> String {
        use std::fmt::Write as _;
        let mut key = format!("{}{{", self.component);
        for (i, (name, value)) in self.values.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            write!(key, "{sep}{name}={value}").expect("String formatting is infallible");
        }
        write!(key, "}}[{}]", self.operands.join(",")).expect("String formatting is infallible");
        key
    }

    /// Validates every value against the registry slice: the parameter
    /// must be registered for this component, integers must sit inside
    /// `Int` ranges, and strings must be members of `Enum` domains.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidationError`] encountered (name order).
    pub fn validate(&self, registry: &[ParamSpec]) -> Result<(), ValidationError> {
        for (name, value) in &self.values {
            let spec = registry
                .iter()
                .find(|s| s.component == self.component && &s.name == name)
                .ok_or_else(|| ValidationError::UnknownParam {
                    component: self.component.clone(),
                    param: name.clone(),
                })?;
            match (&spec.param_type, value) {
                (ParamType::Int { min, max }, TypedValue::Int(v)) if v < min || v > max => {
                    return Err(ValidationError::OutOfRange {
                        param: name.clone(),
                        value: *v,
                        min: *min,
                        max: *max,
                    });
                }
                (ParamType::Enum(members), TypedValue::Str(s)) if !members.contains(s) => {
                    return Err(ValidationError::NotInEnum {
                        param: name.clone(),
                        value: s.clone(),
                    });
                }
                // Bool/Str/Size/Feature domains accept any value of a
                // compatible shape; the utility-level validators own the
                // finer-grained rules (power-of-two, label length, ...).
                _ => {}
            }
        }
        Ok(())
    }

    /// A *lenient* typed view of raw `mke2fs` argument vectors — used to
    /// key generated configurations canonically even when they would not
    /// parse (ConBugCk generates some deliberately invalid ones). `-b`
    /// and `-m` lower to integers where possible, `-O` feature tokens
    /// lower to booleans (`^name` -> `false`), and anything unparsable
    /// falls back to a string value.
    pub fn from_mkfs_args_lenient(args: &[String]) -> Self {
        let mut cfg = TypedConfig::new("mke2fs");
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            // valued options lowered to their registry parameter names
            // (the same map as `Mke2fs::parse_typed`, minus validation)
            let valued = match arg.as_str() {
                "-b" => Some("blocksize"),
                "-m" => Some("reserved_percent"),
                "-C" => Some("cluster_size"),
                "-g" => Some("blocks_per_group"),
                "-G" => Some("number_of_groups"),
                "-i" => Some("inode_ratio"),
                "-I" => Some("inode_size"),
                "-N" => Some("inodes_count"),
                "-L" => Some("label"),
                "-U" => Some("uuid"),
                _ => None,
            };
            if let Some(name) = valued {
                match it.next() {
                    Some(v) => match v.parse::<i64>() {
                        Ok(i) => {
                            cfg.set_int(name, i);
                        }
                        Err(_) => {
                            cfg.set_str(name, v);
                        }
                    },
                    None => {
                        cfg.set_bool(name, true);
                    }
                }
                continue;
            }
            match arg.as_str() {
                "-J" => match it.next() {
                    Some(v) => {
                        let raw = v.strip_prefix("size=").unwrap_or(v);
                        match raw.parse::<i64>() {
                            Ok(i) => {
                                cfg.set_int("journal_size", i);
                            }
                            Err(_) => {
                                cfg.set_str("journal_size", raw);
                            }
                        }
                    }
                    None => {
                        cfg.set_bool("journal_size", true);
                    }
                },
                "-E" => {
                    if let Some(exts) = it.next() {
                        for opt in exts.split(',').filter(|t| !t.is_empty()) {
                            match opt.split_once('=') {
                                Some(("resize", v)) => match v.parse::<i64>() {
                                    Ok(i) => {
                                        cfg.set_int("resize_headroom", i);
                                    }
                                    Err(_) => {
                                        cfg.set_str("resize_headroom", v);
                                    }
                                },
                                Some(("lazy_itable_init", v)) => {
                                    cfg.set_bool("lazy_itable_init", v != "0");
                                }
                                Some((k, v)) => match v.parse::<i64>() {
                                    Ok(i) => {
                                        cfg.set_int(k, i);
                                    }
                                    Err(_) => {
                                        cfg.set_str(k, v);
                                    }
                                },
                                None => {
                                    cfg.set_bool(opt, true);
                                }
                            }
                        }
                    }
                }
                "-O" => {
                    if let Some(feats) = it.next() {
                        for token in feats.split(',').filter(|t| !t.is_empty()) {
                            match token.strip_prefix('^') {
                                Some(name) => cfg.set_bool(name, false),
                                None => cfg.set_bool(token, true),
                            };
                        }
                    }
                }
                other if other.starts_with('-') => {
                    // unknown option: keep it (with its value, if any) so
                    // distinct invalid configs stay distinct
                    let name = other.trim_start_matches('-').to_string();
                    match it.peek() {
                        Some(v) if !v.starts_with('-') => {
                            let v = it.next().expect("peeked");
                            cfg.set_str(&name, v);
                        }
                        _ => {
                            cfg.set_bool(&name, true);
                        }
                    }
                }
                operand => cfg.operands.push(operand.to_string()),
            }
        }
        cfg
    }

    /// A lenient typed view of a `mount -o` option string: bare tokens
    /// lower to booleans, `key=value` tokens to integers where possible
    /// and strings otherwise. A `no<param>` token where `<param>` is a
    /// registered mount boolean lowers to `param = false` (mirroring
    /// `MountCmd::parse_typed`), so an explicit disable is present but
    /// disengaged rather than a distinct phantom parameter; tokens that
    /// are themselves registered (`noload`, `norecovery`) stay as-is.
    pub fn from_mount_opts_lenient(opts: &str) -> Self {
        let mut cfg = TypedConfig::new("mount");
        for tok in opts.split(',').filter(|t| !t.is_empty()) {
            match tok.split_once('=') {
                Some((k, v)) => match v.parse::<i64>() {
                    Ok(i) => {
                        cfg.set_int(k, i);
                    }
                    Err(_) => {
                        cfg.set_str(k, v);
                    }
                },
                None => {
                    if crate::mount_cmd::is_direct_bool_token(tok) {
                        cfg.set_bool(tok, true);
                    } else if let Some(base) =
                        tok.strip_prefix("no").filter(|b| crate::mount_cmd::is_direct_bool_token(b))
                    {
                        cfg.set_bool(base, false);
                    } else {
                        cfg.set_bool(tok, true);
                    }
                }
            }
        }
        cfg
    }
}

/// The identity of a configuration state: an optional ecosystem tag,
/// then every component config — its component, each `(name, typed
/// value)` pair and its operands. Every variable-length field is
/// length-prefixed and every variant tagged, so the bytes decode one
/// way only: two states have equal keys exactly when their tags and
/// configs are equal. Every state key, fingerprint, dedup key and
/// store key in the workspace is this encoding.
pub fn state_key(ecosystem: Option<&str>, configs: &[TypedConfig]) -> Box<[u8]> {
    let mut key = Vec::new();
    encode_state(&mut key, ecosystem, configs);
    key.into_boxed_slice()
}

/// FNV-1a of [`state_key`]'s bytes, streamed over the encoding without
/// building it.
pub fn state_fingerprint(ecosystem: Option<&str>, configs: &[TypedConfig]) -> u64 {
    let mut hash = FnvSink(FNV_OFFSET_BASIS);
    encode_state(&mut hash, ecosystem, configs);
    hash.0
}

/// Whether `key` is exactly [`state_key`]`(ecosystem, configs)`,
/// decided by streaming the encoding against the stored bytes without
/// allocating. A key that is only a prefix of the encoding, or extends
/// it, does not match.
pub fn matches_state_key(ecosystem: Option<&str>, configs: &[TypedConfig], key: &[u8]) -> bool {
    let mut cursor = KeyCursor { rest: key, equal: true };
    encode_state(&mut cursor, ecosystem, configs);
    cursor.equal && cursor.rest.is_empty()
}

/// The one state encoder behind [`state_key`], [`state_fingerprint`]
/// and [`matches_state_key`].
fn encode_state(sink: &mut impl KeySink, ecosystem: Option<&str>, configs: &[TypedConfig]) {
    match ecosystem {
        None => sink.put(&[0]),
        Some(eco) => {
            sink.put(&[1]);
            put_str(sink, eco);
        }
    }
    put_len(sink, configs.len());
    for cfg in configs {
        put_str(sink, &cfg.component);
        put_len(sink, cfg.values.len());
        for (name, value) in &cfg.values {
            put_str(sink, name);
            match value {
                TypedValue::Bool(b) => sink.put(&[u8::from(*b)]),
                TypedValue::Int(i) => {
                    sink.put(&[2]);
                    sink.put(&i.to_le_bytes());
                }
                TypedValue::Str(v) => {
                    sink.put(&[3]);
                    put_str(sink, v);
                }
            }
        }
        put_len(sink, cfg.operands.len());
        for op in &cfg.operands {
            put_str(sink, op);
        }
    }
}

/// Where [`encode_state`] writes its bytes.
trait KeySink {
    fn put(&mut self, bytes: &[u8]);
}

/// Builds the key.
impl KeySink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Folds the key into an FNV-1a state.
struct FnvSink(u64);

impl KeySink for FnvSink {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, bytes);
    }
}

/// Compares the streamed encoding against stored key bytes: `equal`
/// clears at the first differing byte, and `rest` is what the stream
/// has not yet consumed.
struct KeyCursor<'a> {
    rest: &'a [u8],
    equal: bool,
}

impl KeySink for KeyCursor<'_> {
    fn put(&mut self, bytes: &[u8]) {
        if !self.equal {
            return;
        }
        match self.rest.strip_prefix(bytes) {
            Some(rest) => self.rest = rest,
            None => self.equal = false,
        }
    }
}

/// A length as an LEB128 varint: one byte below 128.
fn put_len(sink: &mut impl KeySink, mut n: usize) {
    while n >= 0x80 {
        sink.put(&[(n as u8) | 0x80]);
        n >>= 7;
    }
    sink.put(&[n as u8]);
}

fn put_str(sink: &mut impl KeySink, s: &str) {
    put_len(sink, s.len());
    sink.put(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Stage;

    #[test]
    fn canonical_key_is_order_independent() {
        let mut a = TypedConfig::new("mke2fs");
        a.set_int("blocksize", 1024).set_bool("extent", true);
        let mut b = TypedConfig::new("mke2fs");
        b.set_bool("extent", true).set_int("blocksize", 1024);
        assert_eq!(a.canonical_key(), b.canonical_key());
        // a differing value changes the key
        let mut c = a.clone();
        c.set_int("blocksize", 2048);
        assert_ne!(a.canonical_key(), c.canonical_key());
    }

    #[test]
    fn state_fingerprint_is_fnv1a_of_state_key() {
        let fnv = |seed: u64, bytes: &[u8]| {
            bytes.iter().fold(seed, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
        };
        let mut cfg = TypedConfig::new("mke2fs");
        cfg.set_int("blocksize", 1024)
            .set_int("neg", -42)
            .set_int("min", i64::MIN)
            .set_bool("extent", true)
            .set_bool("off", false)
            .set_str("mode", "journal");
        cfg.operands.push("/dev/sda1".to_string());
        cfg.operands.push("4096".to_string());
        let configs = [cfg, TypedConfig::new("mount")];
        let seed = 0xcbf2_9ce4_8422_2325;
        for eco in [None, Some("ext4")] {
            let key = state_key(eco, &configs);
            assert_eq!(state_fingerprint(eco, &configs), fnv(seed, &key));
            assert!(matches_state_key(eco, &configs, &key));
        }
        assert_eq!(state_fingerprint(None, &[]), fnv(seed, &state_key(None, &[])));
    }

    #[test]
    fn state_key_keeps_string_boundaries() {
        // the same bytes split differently across adjacent strings are
        // different states
        let split = |ops: &[&str], label: &str| {
            let mut cfg = TypedConfig::new("mke2fs");
            cfg.set_str("label", label);
            cfg.operands = ops.iter().map(|s| s.to_string()).collect();
            state_key(None, &[cfg])
        };
        assert_ne!(split(&["ab", "c"], "x"), split(&["a", "bc"], "x"));
        assert_ne!(split(&["ab"], "x"), split(&["a", "b"], "x"));
        assert_ne!(state_key(Some("ab"), &[]), state_key(Some("a"), &[TypedConfig::new("b")]));
    }

    #[test]
    fn validate_against_registry() {
        let registry = vec![
            ParamSpec::new("t", "n", ParamType::Int { min: 1, max: 9 }, Stage::Create, ""),
            ParamSpec::new(
                "t",
                "mode",
                ParamType::Enum(vec!["a".into(), "b".into()]),
                Stage::Create,
                "",
            ),
        ];
        let mut ok = TypedConfig::new("t");
        ok.set_int("n", 5).set_str("mode", "a");
        assert!(ok.validate(&registry).is_ok());

        let mut range = TypedConfig::new("t");
        range.set_int("n", 10);
        assert!(matches!(range.validate(&registry), Err(ValidationError::OutOfRange { .. })));

        let mut en = TypedConfig::new("t");
        en.set_str("mode", "z");
        assert!(matches!(en.validate(&registry), Err(ValidationError::NotInEnum { .. })));

        let mut unknown = TypedConfig::new("t");
        unknown.set_bool("ghost", true);
        assert!(matches!(unknown.validate(&registry), Err(ValidationError::UnknownParam { .. })));
    }

    #[test]
    fn lenient_mkfs_view_collapses_argument_order() {
        let a: Vec<String> =
            ["-b", "1024", "-O", "extent,sparse_super2", "-m", "5"].iter().map(|s| s.to_string()).collect();
        let b: Vec<String> =
            ["-m", "5", "-O", "sparse_super2,extent", "-b", "1024"].iter().map(|s| s.to_string()).collect();
        assert_eq!(
            TypedConfig::from_mkfs_args_lenient(&a).canonical_key(),
            TypedConfig::from_mkfs_args_lenient(&b).canonical_key()
        );
        // ^-negation lowers to false and stays distinct from absent
        let c: Vec<String> = ["-O", "^extent"].iter().map(|s| s.to_string()).collect();
        let view = TypedConfig::from_mkfs_args_lenient(&c);
        assert_eq!(view.get("extent"), Some(&TypedValue::Bool(false)));
    }

    #[test]
    fn lenient_mount_view() {
        let v = TypedConfig::from_mount_opts_lenient("ro,data=journal,commit=5");
        assert_eq!(v.get("ro"), Some(&TypedValue::Bool(true)));
        assert_eq!(v.get("data"), Some(&TypedValue::Str("journal".into())));
        assert_eq!(v.get("commit"), Some(&TypedValue::Int(5)));
        assert_eq!(
            TypedConfig::from_mount_opts_lenient("").canonical_key(),
            TypedConfig::from_mount_opts_lenient("").canonical_key()
        );
    }
}
