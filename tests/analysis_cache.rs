//! The content-addressed analysis cache: re-extracting a scenario whose
//! sources did not change must perform **zero** re-analyses, and
//! results must be independent of the worker count.

use confdep_suite::confdep::{
    extract_scenario_with_cache, models, AnalysisCache, ExtractOptions,
};

fn signatures(deps: &[confdep_suite::confdep::Dependency]) -> Vec<String> {
    deps.iter().map(confdep_suite::confdep::Dependency::signature).collect()
}

#[test]
fn second_extraction_performs_zero_reanalyses() {
    let cache = AnalysisCache::new();
    let sources = models::all();
    let opts = ExtractOptions::default();

    let first = extract_scenario_with_cache(&sources, opts, 0, &cache).unwrap();
    let cold = cache.stats();
    assert_eq!(cold.misses as usize, sources.len(), "every model analyzed once");
    assert_eq!(cold.hits, 0);

    let second = extract_scenario_with_cache(&sources, opts, 0, &cache).unwrap();
    let warm = cache.stats();
    assert_eq!(warm.misses, cold.misses, "warm run must re-analyze nothing");
    assert_eq!(warm.hits as usize, sources.len(), "every model served from cache");
    assert_eq!(signatures(&first.deps), signatures(&second.deps));
}

#[test]
fn bridge_toggle_reuses_cached_analyses() {
    // disable_bridge changes the bridging pass, not per-component
    // analysis — the cache must hit across the toggle
    let cache = AnalysisCache::new();
    let sources = models::all();
    extract_scenario_with_cache(&sources, ExtractOptions::default(), 1, &cache).unwrap();
    let ablated = ExtractOptions { disable_bridge: true, ..ExtractOptions::default() };
    extract_scenario_with_cache(&sources, ablated, 1, &cache).unwrap();
    assert_eq!(cache.stats().misses as usize, sources.len());
    assert_eq!(cache.stats().hits as usize, sources.len());
}

#[test]
fn results_are_independent_of_worker_count() {
    let sources = models::all();
    let opts = ExtractOptions { interprocedural: true, ..ExtractOptions::default() };
    let sequential =
        extract_scenario_with_cache(&sources, opts, 1, &AnalysisCache::new()).unwrap();
    let parallel =
        extract_scenario_with_cache(&sources, opts, 4, &AnalysisCache::new()).unwrap();
    assert_eq!(signatures(&sequential.deps), signatures(&parallel.deps));
    assert_eq!(sequential.components.len(), parallel.components.len());
    for (a, b) in sequential.components.iter().zip(&parallel.components) {
        assert_eq!(a.taint, b.taint);
    }
}
