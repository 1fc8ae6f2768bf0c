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
//! The cache is in-memory and lives as long as the process.

use std::collections::HashMap;
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
}

/// The process-wide cache used by the scenario extraction pipeline.
pub fn global() -> &'static AnalysisCache {
    static CACHE: OnceLock<AnalysisCache> = OnceLock::new();
    CACHE.get_or_init(AnalysisCache::new)
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
}
