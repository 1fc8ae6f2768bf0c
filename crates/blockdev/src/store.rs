//! Shared digest-keyed verdict memoisation with optional persistence.
//!
//! Both the crash explorer and the fault-injection campaigns classify
//! post-crash images, and both memoise verdicts by content digest so a
//! byte-identical image is never classified twice. [`VerdictStore`] is
//! the one implementation behind both: an in-memory map keyed by
//! `(ImageDigest, u64)` — the second component distinguishes contexts
//! that must not share verdicts, such as differing applicable
//! expectation sets — with shared hit/miss counters, plus an optional
//! append-only on-disk log so verdicts survive across process runs
//! (`CRASHSIM_STORE` / `--store`).
//!
//! # On-disk format
//!
//! An 8-byte header (`b"VSTR"` magic + little-endian `u32` version)
//! followed by records, each framed as
//!
//! ```text
//! [u32 payload length][u64 FNV-1a checksum of payload][payload]
//! ```
//!
//! where the payload is the JSON key line (`{"a":..,"b":..,"x":..}`),
//! a newline, and the JSON-serialised verdict. Length-prefixing plus a
//! per-record checksum means truncation and bit-level garbage are both
//! detected on load. The first bad frame ends the log: the records
//! before it load, the file is truncated at its offset, and the cut is
//! reported with a warning — a process killed mid-append loses only
//! the record it was writing, and a campaign is never poisoned with
//! bogus verdicts. Only an unusable header cold-starts the store.

use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::{fnv1a, ImageDigest, FNV_OFFSET_BASIS};

/// Store key: content digest plus a context discriminator (e.g. a hash
/// of the applicable expectation set).
pub type StoreKey = (ImageDigest, u64);

const MAGIC: [u8; 4] = *b"VSTR";
const VERSION: u32 = 1;
const HEADER_LEN: u64 = 8;
/// Sanity cap on a single record payload (a verdict is small JSON).
const MAX_PAYLOAD: u32 = 1 << 24;

/// JSON shape of the key half of a record payload.
#[derive(Serialize, Deserialize)]
struct KeyLine {
    a: u64,
    b: u64,
    x: u64,
}

/// Derives a store context discriminator from a stable tag string
/// (FNV-1a). Subsystems sharing one store file — crash exploration,
/// fault campaigns, configuration fuzzing — hash a versioned tag like
/// `"conbugck/fuzz/v1"` so their verdicts never collide, and bumping
/// the tag retires stale verdicts without touching the file.
pub fn context(tag: &str) -> u64 {
    checksum(tag.as_bytes())
}

/// A record payload's checksum: FNV-1a from the offset basis.
fn checksum(payload: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET_BASIS, payload)
}

/// What happened when a store was opened — the typed form of the
/// warnings [`VerdictStore::open`] prints, so campaign reports can
/// surface cold starts and dropped records instead of burying them in
/// stderr.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreOpenReport {
    /// The store file, when one was requested (`None` for purely
    /// in-memory stores).
    pub path: Option<String>,
    /// Whether an append-only log is attached (false when I/O trouble
    /// degraded the store to memory-only).
    pub persistent: bool,
    /// Why the store started cold, when it did: an unusable header or
    /// an I/O failure. `None` for a clean open (including a fresh,
    /// empty file) and for a log that was only cut.
    pub cold_start: Option<String>,
    /// Records preloaded from disk.
    pub preloaded: usize,
    /// Where a torn or corrupt tail was cut off, when one was.
    #[serde(default)]
    pub cut: Option<StoreCut>,
}

/// The first bad frame of a store log: everything from `offset` on was
/// truncated away, and the records before it were kept.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreCut {
    /// Byte offset of the first bad frame.
    pub offset: u64,
    /// Why the frame was rejected.
    pub reason: String,
}

/// Digest-keyed verdict memo shared by crashsim and faultsim, with an
/// optional append-only persistent log.
pub struct VerdictStore<V> {
    enabled: bool,
    map: Mutex<HashMap<StoreKey, V>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    preloaded: usize,
    log: Option<Mutex<File>>,
    open_report: StoreOpenReport,
}

impl<V> fmt::Debug for VerdictStore<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VerdictStore")
            .field("enabled", &self.enabled)
            .field("len", &self.map.lock().len())
            .field("preloaded", &self.preloaded)
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .field("persistent", &self.log.is_some())
            .finish()
    }
}

impl<V> VerdictStore<V>
where
    V: Clone + Serialize + for<'de> Deserialize<'de>,
{
    /// A purely in-memory store. With `enabled == false` every lookup
    /// misses and nothing is retained (useful as a no-op cache).
    pub fn in_memory(enabled: bool) -> Self {
        VerdictStore {
            enabled,
            map: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            preloaded: 0,
            log: None,
            open_report: StoreOpenReport::default(),
        }
    }

    /// An in-memory store carrying an explicit open report — the
    /// degraded-persistence fallback of [`VerdictStore::open`].
    fn degraded(report: StoreOpenReport) -> Self {
        let mut store = Self::in_memory(true);
        store.open_report = report;
        store
    }

    /// Opens (creating if absent) a persistent store at `path`.
    ///
    /// Infallible by design: an I/O failure degrades to a memory-only
    /// store with a warning, a torn or corrupt tail is cut off after
    /// the last good record with a warning, and an unusable header
    /// resets the file to an empty store (cold start) — campaigns never
    /// abort because of store trouble.
    pub fn open(path: impl AsRef<Path>) -> Self {
        let path = path.as_ref();
        let mut report =
            StoreOpenReport { path: Some(path.display().to_string()), ..StoreOpenReport::default() };
        let open = OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path);
        let mut file = match open {
            Ok(f) => f,
            Err(e) => {
                eprintln!(
                    "warning: verdict store {}: {e}; continuing without persistence",
                    path.display()
                );
                report.cold_start = Some(format!("open failed: {e}"));
                return Self::degraded(report);
            }
        };
        let mut raw = Vec::new();
        if let Err(e) = file.read_to_end(&mut raw) {
            eprintln!(
                "warning: verdict store {}: read failed ({e}); continuing without persistence",
                path.display()
            );
            report.cold_start = Some(format!("read failed: {e}"));
            return Self::degraded(report);
        }
        let mut map = HashMap::new();
        // where the kept log ends; `None` stamps a fresh header
        let keep = if raw.is_empty() {
            None
        } else {
            match Self::parse(&raw, &mut map) {
                Ok(None) => Some(raw.len() as u64),
                Ok(Some(cut)) => {
                    eprintln!(
                        "warning: verdict store {}: {} at byte {}; keeping the {} record(s) before it",
                        path.display(),
                        cut.reason,
                        cut.offset,
                        map.len()
                    );
                    let end = cut.offset;
                    report.cut = Some(cut);
                    Some(end)
                }
                Err(why) => {
                    eprintln!(
                        "warning: verdict store {} is unusable ({why}); cold-starting",
                        path.display()
                    );
                    report.cold_start = Some(why);
                    None
                }
            }
        };
        let ready = match keep {
            Some(end) => file.set_len(end).and_then(|()| file.seek(SeekFrom::End(0)).map(|_| ())),
            None => file
                .set_len(0)
                .and_then(|()| file.seek(SeekFrom::Start(0)).map(|_| ()))
                .and_then(|()| file.write_all(&MAGIC))
                .and_then(|()| file.write_all(&VERSION.to_le_bytes())),
        };
        if let Err(e) = ready {
            eprintln!(
                "warning: verdict store {}: preparing the log failed ({e}); continuing without persistence",
                path.display()
            );
            report.cold_start = Some(format!("log setup failed: {e}"));
            return Self::degraded(report);
        }
        report.persistent = true;
        report.preloaded = map.len();
        let preloaded = map.len();
        VerdictStore {
            enabled: true,
            map: Mutex::new(map),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            preloaded,
            log: Some(Mutex::new(file)),
            open_report: report,
        }
    }

    /// Parses a store image into `map`. An unusable header is an error
    /// (cold start). The first bad frame ends the log and comes back as
    /// the cut; every record before it is loaded.
    fn parse(raw: &[u8], map: &mut HashMap<StoreKey, V>) -> Result<Option<StoreCut>, String> {
        if raw.len() < HEADER_LEN as usize {
            return Err("short header".into());
        }
        if raw[..4] != MAGIC {
            return Err("bad magic".into());
        }
        let version = u32::from_le_bytes([raw[4], raw[5], raw[6], raw[7]]);
        if version != VERSION {
            return Err(format!("unsupported version {version}"));
        }
        let mut at = HEADER_LEN as usize;
        while at < raw.len() {
            match Self::frame(&raw[at..]) {
                Ok((key, value, len)) => {
                    map.insert(key, value);
                    at += len;
                }
                Err(reason) => return Ok(Some(StoreCut { offset: at as u64, reason })),
            }
        }
        Ok(None)
    }

    /// Decodes the record frame at the start of `raw`: its key, its
    /// value and the frame's length in bytes.
    fn frame(raw: &[u8]) -> Result<(StoreKey, V, usize), String> {
        if raw.len() < 12 {
            return Err("truncated frame".into());
        }
        let len = u32::from_le_bytes([raw[0], raw[1], raw[2], raw[3]]);
        if len > MAX_PAYLOAD {
            return Err(format!("implausible record length {len}"));
        }
        let mut sum = [0u8; 8];
        sum.copy_from_slice(&raw[4..12]);
        let end = 12 + len as usize;
        let payload = raw.get(12..end).ok_or("truncated payload")?;
        if checksum(payload) != u64::from_le_bytes(sum) {
            return Err("checksum mismatch".into());
        }
        let text = std::str::from_utf8(payload).map_err(|_| "non-UTF8 payload")?;
        let (key_line, value_json) = text.split_once('\n').ok_or("unframed payload")?;
        let key: KeyLine = serde_json::from_str(key_line).map_err(|e| format!("bad key: {e:?}"))?;
        let value: V = serde_json::from_str(value_json).map_err(|e| format!("bad value: {e:?}"))?;
        Ok(((ImageDigest { a: key.a, b: key.b }, key.x), value, end))
    }

    /// Looks up a verdict, counting a hit or a miss. A disabled store
    /// always misses.
    pub fn lookup(&self, key: StoreKey) -> Option<V> {
        if !self.enabled {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        match self.map.lock().get(&key).cloned() {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Records a verdict (no-op on a disabled store) and appends it to
    /// the persistent log if one is attached. Does not touch counters.
    pub fn insert(&self, key: StoreKey, value: V) {
        if !self.enabled {
            return;
        }
        let fresh = self.map.lock().insert(key, value.clone()).is_none();
        if !fresh {
            return; // already logged (or superseded by an equal verdict)
        }
        if let Some(log) = &self.log {
            let key_line = KeyLine { a: key.0.a, b: key.0.b, x: key.1 };
            let (key_json, value_json) =
                match (serde_json::to_string(&key_line), serde_json::to_string(&value)) {
                    (Ok(k), Ok(v)) => (k, v),
                    _ => return, // unserialisable verdicts just stay in memory
                };
            let payload = format!("{key_json}\n{value_json}");
            let bytes = payload.as_bytes();
            let mut frame = Vec::with_capacity(12 + bytes.len());
            frame.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            frame.extend_from_slice(&checksum(bytes).to_le_bytes());
            frame.extend_from_slice(bytes);
            let mut file = log.lock();
            if let Err(e) = file.write_all(&frame) {
                eprintln!("warning: verdict store append failed: {e}");
            }
        }
    }

    /// Memoised computation: returns the cached verdict on a hit, else
    /// runs `compute`, stores the result and returns it.
    pub fn get_or_compute(&self, key: StoreKey, compute: impl FnOnce() -> V) -> V {
        if let Some(v) = self.lookup(key) {
            return v;
        }
        let v = compute();
        self.insert(key, v.clone());
        v
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of verdicts currently held.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Whether the store holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.map.lock().is_empty()
    }

    /// Verdicts loaded from disk when the store was opened.
    pub fn preloaded(&self) -> usize {
        self.preloaded
    }

    /// The typed record of what happened at open time (path,
    /// persistence, cold-start reason, preloaded records, the cut).
    pub fn open_report(&self) -> &StoreOpenReport {
        &self.open_report
    }

    /// Whether lookups can ever hit (false for the no-op cache).
    pub fn enabled(&self) -> bool {
        self.enabled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_store(name: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("blockdev_vstore_{}_{name}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn key(n: u64) -> StoreKey {
        (ImageDigest { a: n, b: n.wrapping_mul(31) }, n % 3)
    }

    #[test]
    fn in_memory_memoises_and_counts() {
        let store: VerdictStore<usize> = VerdictStore::in_memory(true);
        let mut calls = 0;
        let v = store.get_or_compute(key(1), || {
            calls += 1;
            7
        });
        assert_eq!(v, 7);
        let v = store.get_or_compute(key(1), || {
            calls += 1;
            99
        });
        assert_eq!(v, 7, "second lookup must hit the memo");
        assert_eq!(calls, 1);
        assert_eq!((store.hits(), store.misses()), (1, 1));
    }

    #[test]
    fn disabled_store_never_retains() {
        let store: VerdictStore<usize> = VerdictStore::in_memory(false);
        store.insert(key(1), 7);
        assert_eq!(store.lookup(key(1)), None);
        assert_eq!(store.len(), 0);
        assert_eq!((store.hits(), store.misses()), (0, 1));
    }

    #[test]
    fn persists_across_reopen() {
        let path = temp_store("roundtrip");
        {
            let store: VerdictStore<usize> = VerdictStore::open(&path);
            assert_eq!(store.preloaded(), 0);
            store.insert(key(1), 10);
            store.insert(key(2), 20);
            store.insert(key(2), 20); // duplicate insert must not double-log
        }
        let store: VerdictStore<usize> = VerdictStore::open(&path);
        assert_eq!(store.preloaded(), 2);
        assert_eq!(store.lookup(key(1)), Some(10));
        assert_eq!(store.lookup(key(2)), Some(20));
        assert_eq!(store.hits(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bit_flip_cold_starts_and_recovers() {
        let path = temp_store("bitflip");
        {
            let store: VerdictStore<usize> = VerdictStore::open(&path);
            store.insert(key(1), 10);
            store.insert(key(2), 20);
        }
        // Flip one bit inside the first record's payload.
        let mut raw = std::fs::read(&path).unwrap();
        assert!(raw.len() > HEADER_LEN as usize + 12);
        let target = HEADER_LEN as usize + 12 + 3;
        raw[target] ^= 0x40;
        std::fs::write(&path, &raw).unwrap();

        let store: VerdictStore<usize> = VerdictStore::open(&path);
        // the bad first frame ends the log: nothing before it to keep
        assert_eq!(store.preloaded(), 0, "a corrupt first record must not load");
        assert_eq!(store.open_report().cut.as_ref().map(|c| c.offset), Some(HEADER_LEN));
        assert_eq!(store.lookup(key(1)), None);
        // The file was cut: new inserts round-trip cleanly again.
        store.insert(key(3), 30);
        drop(store);
        let store: VerdictStore<usize> = VerdictStore::open(&path);
        assert_eq!(store.preloaded(), 1);
        assert_eq!(store.lookup(key(3)), Some(30));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_report_tracks_cold_start_and_preload() {
        let path = temp_store("report");
        {
            let store: VerdictStore<usize> = VerdictStore::open(&path);
            let r = store.open_report();
            assert!(r.persistent);
            assert_eq!(r.cold_start, None, "fresh file is not a cold start");
            assert_eq!((r.preloaded, r.cut.as_ref()), (0, None));
            store.insert(key(1), 10);
            store.insert(key(2), 20);
        }
        {
            let store: VerdictStore<usize> = VerdictStore::open(&path);
            let r = store.open_report();
            assert!(r.persistent && r.cold_start.is_none());
            assert_eq!(r.preloaded, 2);
            assert_eq!(r.path.as_deref(), Some(path.to_str().unwrap()));
        }
        // corrupt the second record: the first is kept, the log is cut
        let mut raw = std::fs::read(&path).unwrap();
        let target = raw.len() - 3;
        raw[target] ^= 0x40;
        std::fs::write(&path, &raw).unwrap();
        let store: VerdictStore<usize> = VerdictStore::open(&path);
        let r = store.open_report();
        assert!(r.persistent, "a cut log stays attached");
        assert_eq!(r.cold_start, None, "a bad tail is not a cold start");
        assert_eq!(r.cut.as_ref().unwrap().reason, "checksum mismatch");
        assert_eq!(r.preloaded, 1);
        // in-memory stores carry a default report
        let mem: VerdictStore<usize> = VerdictStore::in_memory(true);
        assert_eq!(mem.open_report(), &StoreOpenReport::default());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncation_cold_starts() {
        let path = temp_store("truncated");
        {
            let store: VerdictStore<usize> = VerdictStore::open(&path);
            store.insert(key(1), 10);
        }
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 5]).unwrap();
        let store: VerdictStore<usize> = VerdictStore::open(&path);
        assert_eq!(store.preloaded(), 0, "a torn sole record must not load");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_record_keeps_the_valid_prefix() {
        let path = temp_store("torn");
        {
            let store: VerdictStore<usize> = VerdictStore::open(&path);
            for n in 1..=3 {
                store.insert(key(n), n as usize * 10);
            }
        }
        // a process killed mid-append: the last frame is short 5 bytes
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 5]).unwrap();
        let store: VerdictStore<usize> = VerdictStore::open(&path);
        assert_eq!(store.preloaded(), 2, "records before the tear must survive");
        assert_eq!(store.lookup(key(2)), Some(20));
        let cut = store.open_report().cut.clone().expect("the tear is reported");
        assert_eq!(cut.reason, "truncated payload");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), cut.offset, "file cut at the tear");
        // appends after the cut land on a clean frame boundary
        store.insert(key(3), 30);
        drop(store);
        let store: VerdictStore<usize> = VerdictStore::open(&path);
        assert_eq!(store.preloaded(), 3);
        assert_eq!(store.open_report().cut, None);
        assert_eq!(store.lookup(key(3)), Some(30));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_header_cold_starts() {
        let path = temp_store("garbage");
        std::fs::write(&path, b"not a verdict store at all").unwrap();
        let store: VerdictStore<usize> = VerdictStore::open(&path);
        assert_eq!(store.preloaded(), 0);
        store.insert(key(5), 50);
        drop(store);
        let store: VerdictStore<usize> = VerdictStore::open(&path);
        assert_eq!(store.preloaded(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
