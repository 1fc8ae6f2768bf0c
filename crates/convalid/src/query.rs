//! The unit of work the engine serves: one whole-configuration state.

use std::sync::OnceLock;

use blockdev::{fnv1a, FNV_OFFSET_BASIS};
use e2fstools::typed::{TypedConfig, TypedValue};
use ecosys::Ecosystem;
use serde::{Deserialize, Serialize};

/// One validation query: the typed configurations of a
/// whole-configuration state (typically the `mke2fs` invocation plus
/// the `mount` option string, but any component set works).
///
/// The query carries its own canonical identity — the concatenated
/// [`TypedConfig::canonical_key`]s, prefixed with the ecosystem tag
/// when one is set — and an FNV-1a fingerprint of it, the key the
/// sharded memo shards and indexes by. Like the fuzz corpus's
/// `GeneratedConfig::state_id`, the fingerprint is computed once and
/// travels with the query (clones included), so repeated serving of
/// the same state never re-hashes it.
///
/// Untagged queries (the original single-ecosystem shape) keep their
/// exact historical identity: the state key, the fingerprint, and the
/// serialized wire format are byte-identical to before the ecosystem
/// tag existed. Tagged queries fold the tag into all three, so two
/// ecosystems whose typed views happen to render the same canonical
/// keys can never share a memo entry.
#[derive(Debug, Clone)]
pub struct ConfigQuery {
    /// The component configurations, one per component.
    pub configs: Vec<TypedConfig>,
    /// The ecosystem this state belongs to, when the caller serves more
    /// than one (`None` preserves the original single-ecosystem
    /// identity bytes).
    ecosystem: Option<String>,
    /// Lazily-computed, clone-carried FNV fingerprint. May go stale if
    /// `configs` is mutated after the first [`ConfigQuery::fingerprint`]
    /// call — safe regardless, because the memo checks the exact
    /// [`ConfigQuery::memo_key`] on every hit — but rebuild the query
    /// to keep the memo effective.
    fingerprint: OnceLock<u64>,
}

impl PartialEq for ConfigQuery {
    fn eq(&self, other: &Self) -> bool {
        self.ecosystem == other.ecosystem && self.configs == other.configs
    }
}

impl Eq for ConfigQuery {}

// Keep the wire format of the former derive: `{"configs": [...]}`. The
// `ecosystem` key is emitted only when a tag is set, so untagged
// queries serialize byte-identically to the pre-tag format. The cached
// fingerprint is recomputed on demand after deserialisation.
impl Serialize for ConfigQuery {
    fn to_value(&self) -> serde::Value {
        let mut entries = vec![("configs".to_string(), self.configs.to_value())];
        if let Some(eco) = &self.ecosystem {
            entries.push(("ecosystem".to_string(), serde::Value::Str(eco.clone())));
        }
        serde::Value::Map(entries)
    }
}

impl<'de> Deserialize<'de> for ConfigQuery {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let configs = serde::__private::map_field(value, "configs")?;
        let mut query = ConfigQuery::new(Vec::<TypedConfig>::from_value(configs)?);
        if let Some(eco) = serde::__private::opt_map_field(value, "ecosystem")? {
            query.ecosystem = Some(String::from_value(eco)?);
        }
        Ok(query)
    }
}

impl ConfigQuery {
    /// A query over pre-built typed configurations, untagged — the
    /// original single-ecosystem identity.
    pub fn new(configs: Vec<TypedConfig>) -> Self {
        ConfigQuery { configs, ecosystem: None, fingerprint: OnceLock::new() }
    }

    /// A query tagged with the ecosystem it belongs to. The tag becomes
    /// part of the canonical state key and the FNV fingerprint, so memo
    /// entries of different ecosystems can never collide.
    pub fn tagged(ecosystem: &str, configs: Vec<TypedConfig>) -> Self {
        ConfigQuery {
            configs,
            ecosystem: Some(ecosystem.to_string()),
            fingerprint: OnceLock::new(),
        }
    }

    /// The ecosystem tag, when one is set.
    pub fn ecosystem(&self) -> Option<&str> {
        self.ecosystem.as_deref()
    }

    /// A query from the concrete CLI surface: raw `mke2fs` arguments
    /// plus a `mount -o` option string, lowered through the same
    /// lenient typed views the fuzz campaigns key states with.
    pub fn from_cli(mkfs_args: &[String], mount_opts: &str) -> Self {
        ConfigQuery::new(vec![
            TypedConfig::from_mkfs_args_lenient(mkfs_args),
            TypedConfig::from_mount_opts_lenient(mount_opts),
        ])
    }

    /// [`ConfigQuery::from_cli`] for any registered ecosystem: the
    /// create arguments and mount options are lowered through the
    /// ecosystem's own lenient views (the same parsers its solver scope
    /// re-keys rendered states with), and the query is tagged with the
    /// ecosystem's name. Reading the two parsers off the solver scope
    /// costs nothing per line: the scope is `Copy` and its parameter
    /// registry is built once per process.
    pub fn from_cli_for(eco: &Ecosystem, create_args: &[String], mount_opts: &str) -> Self {
        let scope = eco.solver_scope();
        ConfigQuery::tagged(
            eco.name,
            vec![(scope.parse_create)(create_args), (scope.parse_mount)(mount_opts)],
        )
    }

    /// Parses one batch-file line: `<mke2fs args> | <mount opts>`, e.g.
    /// `-b 1024 -O meta_bg,resize_inode | data=journal,commit=5`. The
    /// `|` separator (and the mount half) may be omitted; blank lines
    /// and `#` comments yield `None`.
    pub fn parse_line(line: &str) -> Option<Self> {
        let (args, mount_part) = split_line(line)?;
        Some(ConfigQuery::from_cli(&args, mount_part))
    }

    /// [`ConfigQuery::parse_line`] against a specific ecosystem: same
    /// line format (`<create args> | <mount opts>`), lowered through
    /// the ecosystem's lenient views and tagged with its name.
    pub fn parse_line_for(eco: &Ecosystem, line: &str) -> Option<Self> {
        let (args, mount_part) = split_line(line)?;
        Some(ConfigQuery::from_cli_for(eco, &args, mount_part))
    }

    /// Borrowed views in component order — the shape
    /// [`confdep::Constraint::evaluate`] takes.
    pub fn views(&self) -> Vec<&TypedConfig> {
        self.configs.iter().collect()
    }

    /// The canonical identity string: every config's canonical key,
    /// `;`-joined in the order given, prefixed `<ecosystem>#` when the
    /// query is tagged. Used for display, dedup, and debugging; the
    /// memo's hot path hashes the same byte stream via
    /// [`ConfigQuery::fingerprint`] without rendering this string.
    pub fn state_key(&self) -> String {
        let mut key = String::new();
        if let Some(eco) = &self.ecosystem {
            key.push_str(eco);
            key.push('#');
        }
        for (i, cfg) in self.configs.iter().enumerate() {
            if i > 0 {
                key.push(';');
            }
            cfg.canonical_key_into(&mut key).expect("String formatting is infallible");
        }
        key
    }

    /// FNV-1a fingerprint of [`ConfigQuery::state_key`], folded
    /// directly over the typed structure ([`TypedConfig::canonical_fnv1a`])
    /// — no string rendering, no `fmt` machinery — and computed at most
    /// once per query lineage (the cache travels with clones). This is
    /// the serving hot path: every memoized lookup starts here.
    ///
    /// The fingerprint only picks the memo slot. It inherits every
    /// collision of the state key, which is not injective: a string
    /// value may contain the key's own separators, so `-L x,uuid=s:y`
    /// and `-L x -U y` share `mke2fs{label=s:x,uuid=s:y}`. The memo
    /// decides a hit on [`ConfigQuery::memo_key`] instead.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut hash = FNV_OFFSET_BASIS;
            if let Some(eco) = &self.ecosystem {
                hash = fnv1a(fnv1a(hash, eco.as_bytes()), b"#");
            }
            for (i, cfg) in self.configs.iter().enumerate() {
                if i > 0 {
                    hash = fnv1a(hash, b";");
                }
                hash = cfg.canonical_fnv1a(hash);
            }
            hash
        })
    }

    /// The exact memo key: an injective, length-prefixed byte encoding
    /// of the query — the ecosystem tag, then per config its component,
    /// each `(name, typed value)` pair and its operands. Two queries
    /// have equal keys exactly when they are equal, and the key is a
    /// few hundred bytes where a cloned query is kilobytes of maps and
    /// strings.
    pub fn memo_key(&self) -> Box<[u8]> {
        let mut key = Vec::new();
        self.encode_key(&mut key);
        key.into_boxed_slice()
    }

    /// Whether `key` is this query's [`ConfigQuery::memo_key`], decided
    /// by streaming the encoding against the stored bytes — a memo hit
    /// allocates nothing. A key that is only a prefix of (or extends)
    /// the encoding does not match.
    pub fn matches_key(&self, key: &[u8]) -> bool {
        let mut cursor = KeyCursor { rest: key, equal: true };
        self.encode_key(&mut cursor);
        cursor.equal && cursor.rest.is_empty()
    }

    /// The one key encoder both [`ConfigQuery::memo_key`] and
    /// [`ConfigQuery::matches_key`] run. Every variable-length field is
    /// length-prefixed and every variant tagged, so the concatenation
    /// decodes one way only.
    fn encode_key(&self, sink: &mut impl KeySink) {
        match &self.ecosystem {
            None => sink.put(&[0]),
            Some(eco) => {
                sink.put(&[1]);
                put_str(sink, eco);
            }
        }
        put_len(sink, self.configs.len());
        for cfg in &self.configs {
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
}

/// Where [`ConfigQuery::encode_key`] writes its bytes.
trait KeySink {
    fn put(&mut self, bytes: &[u8]);
}

/// Builds the key (memo insert).
impl KeySink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Compares the streamed encoding against stored key bytes (memo
/// lookup): `equal` clears at the first differing byte, and `rest` is
/// what the stream has not yet consumed.
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

/// Splits one batch line into `(create argv, mount half)`; `None` for
/// blanks and `#` comments.
fn split_line(line: &str) -> Option<(Vec<String>, &str)> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let (create_part, mount_part) = match line.split_once('|') {
        Some((m, o)) => (m.trim(), o.trim()),
        None => (line, ""),
    };
    let args: Vec<String> = create_part.split_whitespace().map(str::to_string).collect();
    Some((args, mount_part))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_matches_keyed_hash() {
        let q = ConfigQuery::parse_line("-b 1024 -O extent | data=journal").unwrap();
        let direct = q.state_key().bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(q.fingerprint(), direct);
    }

    #[test]
    fn tagged_fingerprint_matches_keyed_hash_too() {
        // the fingerprint == FNV(state_key) invariant holds with the
        // ecosystem prefix folded in
        let q = ConfigQuery::parse_line_for(&ecosys::f2fs(), "-o 10 | discard").unwrap();
        assert!(q.state_key().starts_with("f2fs#"));
        let direct = q.state_key().bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(q.fingerprint(), direct);
    }

    #[test]
    fn parse_line_splits_halves() {
        let q = ConfigQuery::parse_line("-b 1024 | ro,commit=5").unwrap();
        assert_eq!(q.configs.len(), 2);
        assert_eq!(q.configs[0].component, "mke2fs");
        assert_eq!(q.configs[0].get_int("blocksize"), Some(1024));
        assert_eq!(q.configs[1].component, "mount");
        assert_eq!(q.configs[1].get_int("commit"), Some(5));
        // mount half optional
        let bare = ConfigQuery::parse_line("-m 5").unwrap();
        assert!(bare.configs[1].values.is_empty());
        // comments and blanks skipped
        assert!(ConfigQuery::parse_line("# comment").is_none());
        assert!(ConfigQuery::parse_line("   ").is_none());
    }

    #[test]
    fn state_key_is_argument_order_independent() {
        let a = ConfigQuery::parse_line("-b 1024 -m 5 | ro").unwrap();
        let b = ConfigQuery::parse_line("-m 5 -b 1024 | ro").unwrap();
        assert_eq!(a.state_key(), b.state_key());
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = ConfigQuery::parse_line("-m 6 -b 1024 | ro").unwrap();
        assert_ne!(a.state_key(), c.state_key());
    }

    #[test]
    fn untagged_identity_and_wire_format_are_the_pre_tag_bytes() {
        // the single-ecosystem shape is pinned: no tag in the state
        // key, the fingerprint is the plain FNV of the joined keys, and
        // the wire format is exactly `{"configs": [...]}`
        let q = ConfigQuery::parse_line("-b 1024 -O extent | data=journal").unwrap();
        assert!(q.ecosystem().is_none());
        assert!(!q.state_key().contains('#'));
        let serde::Value::Map(entries) = q.to_value() else { panic!("not a map") };
        assert_eq!(entries.len(), 1, "untagged wire format grew a key: {entries:?}");
        assert_eq!(entries[0].0, "configs");
        let json = serde_json::to_string(&q).unwrap();
        assert!(json.starts_with("{\"configs\":"), "{json}");
        assert!(!json.contains("ecosystem"), "{json}");
    }

    #[test]
    fn ecosystem_tag_changes_key_and_fingerprint() {
        let untagged = ConfigQuery::parse_line("-b 1024 | ro").unwrap();
        let tagged = ConfigQuery::tagged("ext4", untagged.configs.clone());
        assert_ne!(untagged, tagged);
        assert_ne!(untagged.state_key(), tagged.state_key());
        assert_ne!(untagged.fingerprint(), tagged.fingerprint());
        assert_eq!(tagged.state_key(), format!("ext4#{}", untagged.state_key()));
        // two different tags over the same configs diverge as well
        let other = ConfigQuery::tagged("f2fs", untagged.configs.clone());
        assert_ne!(tagged.fingerprint(), other.fingerprint());
        assert_ne!(tagged, other);
    }

    #[test]
    fn tagged_queries_roundtrip_through_serde() {
        let q = ConfigQuery::parse_line_for(&ecosys::f2fs(), "-s 2 | ro,discard").unwrap();
        assert_eq!(q.ecosystem(), Some("f2fs"));
        assert_eq!(q.configs[0].component, "mkfs_f2fs");
        assert_eq!(q.configs[1].component, "f2fs");
        let json = serde_json::to_string(&q).unwrap();
        assert!(json.contains("\"ecosystem\":\"f2fs\""), "{json}");
        let back: ConfigQuery = serde_json::from_str(&json).unwrap();
        assert_eq!(back, q);
        assert_eq!(back.fingerprint(), q.fingerprint());
    }
}
