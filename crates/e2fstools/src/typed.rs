//! The typed configuration value model of the ecosystem layer.
//!
//! Every component parses its CLI surface into a [`TypedConfig`] — a
//! canonical `parameter -> typed value` map — instead of each consumer
//! re-interpreting raw argument strings. A `TypedConfig` is validated
//! once against the [`crate::params::ParamSpec`] registry (see
//! [`crate::component`]), rendered back to CLI arguments for round-trip
//! testing, and keyed canonically so semantically equal configurations
//! compare equal regardless of the argument order they were written in.

use std::collections::BTreeMap;
use std::fmt;

use blockdev::fnv1a;
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
/// [`TypedConfig::canonical_key`]) is independent of insertion order —
/// the property the ConBugCk state memoization relies on.
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

    /// A canonical identity string: component, then every parameter in
    /// name order with its typed value, then the operands. Two configs
    /// with the same parameters and operands produce the same key no
    /// matter what order the CLI arguments arrived in.
    pub fn canonical_key(&self) -> String {
        let mut key = String::new();
        self.canonical_key_into(&mut key).expect("String formatting is infallible");
        key
    }

    /// Streams the canonical identity (see [`TypedConfig::canonical_key`])
    /// into any [`std::fmt::Write`] sink — e.g. a hasher — without
    /// allocating the key string.
    ///
    /// # Errors
    ///
    /// Propagates errors from the sink.
    pub fn canonical_key_into<W: std::fmt::Write>(&self, key: &mut W) -> std::fmt::Result {
        key.write_str(&self.component)?;
        key.write_char('{')?;
        for (i, (name, value)) in self.values.iter().enumerate() {
            if i > 0 {
                key.write_char(',')?;
            }
            key.write_str(name)?;
            key.write_char('=')?;
            write!(key, "{value}")?;
        }
        key.write_char('}')?;
        key.write_char('[')?;
        for (i, op) in self.operands.iter().enumerate() {
            if i > 0 {
                key.write_char(',')?;
            }
            key.write_str(op)?;
        }
        key.write_char(']')
    }

    /// Folds the canonical identity's exact byte stream into an FNV-1a
    /// state without going through the `fmt` machinery — the serving
    /// hot path for fingerprinting queries. Always equals hashing
    /// [`TypedConfig::canonical_key`]'s bytes into `hash` directly.
    #[must_use]
    #[inline]
    pub fn canonical_fnv1a(&self, hash: u64) -> u64 {
        #[inline]
        fn fold_int(hash: u64, v: i64) -> u64 {
            // decimal render into a stack buffer; i64::MIN-safe via i128
            let mut buf = [0u8; 20];
            let mut n = i128::from(v).unsigned_abs();
            let mut at = buf.len();
            loop {
                at -= 1;
                buf[at] = b'0' + (n % 10) as u8;
                n /= 10;
                if n == 0 {
                    break;
                }
            }
            if v < 0 {
                at -= 1;
                buf[at] = b'-';
            }
            fnv1a(hash, &buf[at..])
        }
        let mut hash = fnv1a(hash, self.component.as_bytes());
        hash = fnv1a(hash, b"{");
        for (i, (name, value)) in self.values.iter().enumerate() {
            if i > 0 {
                hash = fnv1a(hash, b",");
            }
            hash = fnv1a(hash, name.as_bytes());
            hash = fnv1a(hash, b"=");
            hash = match value {
                TypedValue::Bool(b) => fnv1a(hash, if *b { b"b:true" } else { b"b:false" }),
                TypedValue::Int(v) => fold_int(fnv1a(hash, b"i:"), *v),
                TypedValue::Str(s) => fnv1a(fnv1a(hash, b"s:"), s.as_bytes()),
            };
        }
        hash = fnv1a(hash, b"}[");
        for (i, op) in self.operands.iter().enumerate() {
            if i > 0 {
                hash = fnv1a(hash, b",");
            }
            hash = fnv1a(hash, op.as_bytes());
        }
        fnv1a(hash, b"]")
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
    fn canonical_fnv1a_matches_keyed_bytes() {
        let fnv = |seed: u64, s: &str| {
            s.bytes().fold(seed, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
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
        let seed = 0xcbf2_9ce4_8422_2325;
        assert_eq!(cfg.canonical_fnv1a(seed), fnv(seed, &cfg.canonical_key()));
        // and from a non-default seed (mid-stream continuation)
        assert_eq!(cfg.canonical_fnv1a(7), fnv(7, &cfg.canonical_key()));
        let empty = TypedConfig::new("mount");
        assert_eq!(empty.canonical_fnv1a(seed), fnv(seed, &empty.canonical_key()));
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
