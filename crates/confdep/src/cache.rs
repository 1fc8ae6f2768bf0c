//! Content-addressed analysis cache.
//!
//! Compiling and taint-analyzing a component model is a pure function
//! of the model source and the analysis options, so the result can be
//! cached under a fingerprint of exactly those inputs. The extraction
//! pipeline consults a process-wide [`AnalysisCache`] before analyzing
//! a component: re-extracting a scenario whose sources did not change
//! performs **zero** re-analyses (asserted by `tests/analysis_cache.rs`).
//!
//! The fingerprint keys on the source bytes and the
//! `interprocedural` flag only — `disable_bridge` shapes the later
//! bridging pass, not the per-component analysis, so toggling it must
//! (and does) hit the cache.
//!
//! The cache is in-memory; setting `CONFDEP_CACHE_SPILL` spills it to a
//! JSON file (the variable's value, or
//! `target/confdep-analysis-cache.json` when set to `1`) after each
//! scenario extraction, and pre-loads it from the same file on first
//! use — mirroring `crashsim`'s verdict cache.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use blockdev::{fnv1a, FNV_OFFSET_BASIS};

use crate::extract::{analyze_component, AnalyzedComponent, ExtractOptions};
use crate::ConfdepError;

/// The content fingerprint of one analysis: FNV-1a over the model
/// source plus the option bits that affect per-component analysis.
pub fn fingerprint(src: &str, options: ExtractOptions) -> u64 {
    let h = fnv1a(FNV_OFFSET_BASIS, src.as_bytes());
    // a separator byte keeps (src, flag) unambiguous
    fnv1a(h, &[0x1f, u8::from(options.interprocedural)])
}

/// Hit/miss counters of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct CacheStats {
    /// Lookups answered without re-analysis.
    pub hits: u64,
    /// Lookups that ran a fresh analysis.
    pub misses: u64,
}

/// Entry format of the JSON spill file.
#[derive(serde::Serialize, serde::Deserialize)]
struct SpillEntry {
    fingerprint: u64,
    component: AnalyzedComponent,
}

/// A content-addressed map from model fingerprints to analysis results.
///
/// Thread-safe; results are shared as `Arc` so concurrent extractions
/// over the same models reuse one analysis.
#[derive(Debug, Default)]
pub struct AnalysisCache {
    entries: Mutex<HashMap<u64, Arc<AnalyzedComponent>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl AnalysisCache {
    /// An empty cache.
    pub fn new() -> AnalysisCache {
        AnalysisCache::default()
    }

    /// The analysis of `src` under `options`, from cache or computed.
    ///
    /// # Errors
    ///
    /// Returns [`ConfdepError::Cir`] when the model does not compile
    /// (compile failures are not cached).
    pub fn get_or_analyze(
        &self,
        src: &str,
        options: ExtractOptions,
    ) -> Result<Arc<AnalyzedComponent>, ConfdepError> {
        let fp = fingerprint(src, options);
        if let Some(hit) = self.entries.lock().expect("cache poisoned").get(&fp) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        // analyze outside the lock so parallel misses on *different*
        // models do not serialize
        let analyzed = Arc::new(analyze_component(src, options)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries.lock().expect("cache poisoned");
        let entry = entries.entry(fp).or_insert_with(|| Arc::clone(&analyzed));
        Ok(Arc::clone(entry))
    }

    /// The hit/miss counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of cached analyses.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache poisoned").len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries (counters are kept).
    pub fn clear(&self) {
        self.entries.lock().expect("cache poisoned").clear();
    }

    /// Writes the cache as JSON to `path` (entries sorted by
    /// fingerprint, so the file is deterministic).
    ///
    /// # Errors
    ///
    /// Returns [`ConfdepError::Io`] / [`ConfdepError::Json`] on write or
    /// serialization failure.
    pub fn spill(&self, path: &Path) -> Result<(), ConfdepError> {
        let mut rows: Vec<SpillEntry> = self
            .entries
            .lock()
            .expect("cache poisoned")
            .iter()
            .map(|(&fingerprint, component)| SpillEntry {
                fingerprint,
                component: (**component).clone(),
            })
            .collect();
        rows.sort_by_key(|r| r.fingerprint);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, serde_json::to_string(&rows)?)?;
        Ok(())
    }

    /// Merges the entries of a spill file into this cache. Loaded
    /// entries count as neither hits nor misses.
    ///
    /// # Errors
    ///
    /// Returns [`ConfdepError::Io`] / [`ConfdepError::Json`] on read or
    /// parse failure.
    pub fn load(&self, path: &Path) -> Result<usize, ConfdepError> {
        let rows: Vec<SpillEntry> = serde_json::from_str(&std::fs::read_to_string(path)?)?;
        let n = rows.len();
        let mut entries = self.entries.lock().expect("cache poisoned");
        for row in rows {
            entries.entry(row.fingerprint).or_insert_with(|| Arc::new(row.component));
        }
        Ok(n)
    }
}

/// The spill path selected by `CONFDEP_CACHE_SPILL`, if the variable is
/// set: its value, or `target/confdep-analysis-cache.json` for `1`.
pub fn spill_path() -> Option<PathBuf> {
    match std::env::var("CONFDEP_CACHE_SPILL") {
        Ok(v) if v == "1" => Some(PathBuf::from("target/confdep-analysis-cache.json")),
        Ok(v) if !v.is_empty() => Some(PathBuf::from(v)),
        _ => None,
    }
}

/// The process-wide cache used by the scenario extraction pipeline.
/// Pre-loaded from [`spill_path`] on first use when the file exists.
pub fn global() -> &'static AnalysisCache {
    static CACHE: OnceLock<AnalysisCache> = OnceLock::new();
    CACHE.get_or_init(|| {
        let cache = AnalysisCache::new();
        if let Some(path) = spill_path() {
            if path.exists() {
                let _ = cache.load(&path);
            }
        }
        cache
    })
}

/// Spills the global cache when `CONFDEP_CACHE_SPILL` asks for it;
/// called by the pipeline after each scenario extraction. Spill
/// failures are deliberately non-fatal (the cache is an optimisation).
pub fn maybe_spill_global() {
    if let Some(path) = spill_path() {
        let _ = global().spill(&path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;

    #[test]
    fn fingerprint_separates_sources_and_options() {
        let a = fingerprint("component a; fn f() {}", ExtractOptions::default());
        let b = fingerprint("component b; fn f() {}", ExtractOptions::default());
        assert_ne!(a, b);
        let inter = ExtractOptions { interprocedural: true, ..ExtractOptions::default() };
        assert_ne!(a, fingerprint("component a; fn f() {}", inter));
        // disable_bridge does not affect per-component analysis
        let bridged = ExtractOptions { disable_bridge: true, ..ExtractOptions::default() };
        assert_eq!(a, fingerprint("component a; fn f() {}", bridged));
    }

    #[test]
    fn second_lookup_hits() {
        let cache = AnalysisCache::new();
        let opts = ExtractOptions::default();
        let first = cache.get_or_analyze(models::MKE2FS, opts).unwrap();
        let second = cache.get_or_analyze(models::MKE2FS, opts).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let cache = AnalysisCache::new();
        let opts = ExtractOptions::default();
        assert!(cache.get_or_analyze("not a model", opts).is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 0);
    }

    #[test]
    fn spill_round_trips() {
        let cache = AnalysisCache::new();
        let opts = ExtractOptions::default();
        let original = cache.get_or_analyze(models::E2FSCK, opts).unwrap();
        let path = std::env::temp_dir().join("confdep-cache-spill-test.json");
        cache.spill(&path).unwrap();

        let restored = AnalysisCache::new();
        assert_eq!(restored.load(&path).unwrap(), 1);
        let hit = restored.get_or_analyze(models::E2FSCK, opts).unwrap();
        assert_eq!(*hit, *original);
        assert_eq!(restored.stats(), CacheStats { hits: 1, misses: 0 });
        std::fs::remove_file(&path).ok();
    }
}
