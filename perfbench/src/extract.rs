//! `extract`: a cold static-analysis pass, then one-model edit passes.
//!
//! The cold pass extracts the ext4 models, the F2FS models and a seeded
//! synthetic corpus through one fresh [`AnalysisCache`] passed to
//! [`extract_scenario_with_cache`] (never the process-global cache) and
//! compiles each result with [`ConstraintSet::compile`]; ConDocCk and
//! ConHandleCk then run once on each ecosystem. The synthetic models
//! share metadata fields, so the bridge finds cross-component
//! dependencies among them.
//!
//! Each edit pass regenerates one synthetic model with a new seed and
//! re-extracts the corpus through the same cache: one analysis misses,
//! the rest hit. A request is one edit pass; its latency is that pass,
//! extraction through compilation.

use std::time::Instant;

use bench::{synth_model, SynthSpec};
use confdep::{extract_scenario_with_cache, AnalysisCache, ConstraintSet, ExtractOptions};
use taint::AnalysisOptions;

use crate::{stats, total_ms, trace, Config, Metric, Tally, Workload};

/// Synthetic corpus: model count and per-model shape.
const SYNTH_MODELS: usize = 16;
const SYNTH_FUNCTIONS: usize = 2;
const SYNTH_BLOCKS: usize = 6;
const SYNTH_PARAMS: usize = 6;
const SYNTH_META_FIELDS: usize = 6;
/// The cold corpus's generator seed. Deduplication is quadratic in the
/// dependency count, which swings by a factor of two between generated
/// corpora of one shape, so the cold corpus is the same on every run;
/// the run seed drives the edits.
const SYNTH_CORPUS_SEED: u64 = 0x5eed_c0de;
/// Edit passes per round.
const EDITS: usize = 8;
/// Dependency counts of the real models and the checkers' findings.
const EXT4_DEPS: usize = 64;
const F2FS_DEPS: usize = 69;
const EXT4_DOC_ISSUES: usize = 12;
const F2FS_DOC_ISSUES: usize = 34;
const EXT4_BAD_HANDLING: usize = 1;
/// Dependency digest of the cold synthetic corpus.
const SYNTH_DIGEST: u64 = 0x8684_d37f_34e1_d772;

/// The synthetic corpus generated from `seed`: `(component, source)`
/// pairs.
fn synthetic_corpus(seed: u64) -> Vec<(String, String)> {
    let mut rng = bench::SplitMix64(seed);
    (0..SYNTH_MODELS)
        .map(|_| synthetic(rng.next_u64()))
        .collect()
}

fn synthetic(seed: u64) -> (String, String) {
    let spec = SynthSpec {
        functions: SYNTH_FUNCTIONS,
        blocks: SYNTH_BLOCKS,
        params: SYNTH_PARAMS,
        meta_fields: SYNTH_META_FIELDS,
        seed,
    };
    (format!("synth_{seed}"), synth_model(&spec))
}

fn borrowed(models: &[(String, String)]) -> Vec<(&str, &str)> {
    models
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect()
}

/// FNV-1a over the sorted dependency signatures of one extraction.
fn deps_digest(set: &ConstraintSet) -> u64 {
    let mut sigs: Vec<&str> = set.constraints().iter().map(|c| c.signature()).collect();
    sigs.sort_unstable();
    stats::fnv1a(
        sigs.iter()
            .flat_map(|s| s.bytes().chain(std::iter::once(b'\n'))),
    )
}

/// The `extract` workload.
pub struct Extract {
    seed: u64,
    threads: usize,
    ext4: Vec<(String, String)>,
    f2fs: Vec<(String, String)>,
    synth: Vec<(String, String)>,
    cold_s: Vec<f64>,
    edit_s: Vec<f64>,
    deps: usize,
    synth_digests: Vec<u64>,
    edit_hits: u64,
    edit_misses: u64,
    visits: Vec<u64>,
}

impl Extract {
    /// Extracts and compiles one corpus through `cache`.
    fn extract(
        &self,
        models: &[(String, String)],
        cache: &AnalysisCache,
        span: &'static str,
    ) -> ConstraintSet {
        let deps = {
            let _span = trace::span(span);
            extract_scenario_with_cache(
                &borrowed(models),
                ExtractOptions::default(),
                self.threads,
                cache,
            )
            .expect("generated and real models compile")
            .deps
        };
        let _span = trace::span("confdep.compile");
        ConstraintSet::compile(deps)
    }

    /// The synthetic corpus with model `slot` regenerated from a seed
    /// drawn from the run seed and `edit`.
    pub fn edited(&self, slot: usize, edit: usize) -> Vec<(String, String)> {
        let mut models = self.synth.clone();
        let mut rng =
            bench::SplitMix64(self.seed ^ (edit as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        models[slot] = synthetic(rng.next_u64());
        models
    }

    /// The synthetic corpus's cold dependency digest, for the
    /// determinism test.
    pub fn synthetic_digest(&self) -> u64 {
        deps_digest(&self.extract(&self.synth, &AnalysisCache::new(), "confdep.extract_cold"))
    }
}

impl Workload for Extract {
    const NAME: &'static str = "extract";

    fn setup(cfg: &Config) -> Self {
        let owned = |models: Vec<(&str, &str)>| -> Vec<(String, String)> {
            models
                .into_iter()
                .map(|(n, s)| (n.to_string(), s.to_string()))
                .collect()
        };
        Extract {
            seed: cfg.seed,
            threads: cfg.threads,
            ext4: owned(ecosys::ext4().models()),
            f2fs: owned(ecosys::f2fs().models()),
            synth: synthetic_corpus(SYNTH_CORPUS_SEED),
            cold_s: Vec::new(),
            edit_s: Vec::new(),
            deps: 0,
            synth_digests: Vec::new(),
            edit_hits: 0,
            edit_misses: 0,
            visits: Vec::new(),
        }
    }

    fn round(&mut self, round: usize, tally: &mut Tally) {
        let start = Instant::now();
        let round_span = trace::span("extract.round");
        let cache = AnalysisCache::new();

        let cold = Instant::now();
        let ext4 = self.extract(&self.ext4, &cache, "confdep.extract_cold");
        let f2fs = self.extract(&self.f2fs, &cache, "confdep.extract_cold");
        let synth = self.extract(&self.synth, &cache, "confdep.extract_cold");
        self.cold_s.push(stats::secs(cold));
        self.deps = ext4.len() + f2fs.len() + synth.len();
        let digest = deps_digest(&synth);
        self.synth_digests.push(digest);
        tally.check(digest == SYNTH_DIGEST, || {
            format!("synthetic dependency digest {digest:016x}")
        });
        tally.check(ext4.len() == EXT4_DEPS, || {
            format!("ext4 extracted {} deps, expected {EXT4_DEPS}", ext4.len())
        });
        tally.check(f2fs.len() == F2FS_DEPS, || {
            format!("f2fs extracted {} deps, expected {F2FS_DEPS}", f2fs.len())
        });

        for (eco, expected) in [
            (ecosys::ext4(), EXT4_DOC_ISSUES),
            (ecosys::f2fs(), F2FS_DOC_ISSUES),
        ] {
            let issues = {
                let _span = trace::span("contools.condocck");
                contools::run_condocck_for(&eco).map(|i| i.len())
            };
            tally.check(issues.as_ref().is_ok_and(|&n| n == expected), || {
                format!(
                    "{} ConDocCk found {issues:?} issues, expected {expected}",
                    eco.name
                )
            });
        }
        let bad = {
            let _span = trace::span("contools.conhandleck");
            contools::run_conhandleck()
                .iter()
                .filter(|o| o.handling.is_bad())
                .count()
        };
        tally.check(bad == EXT4_BAD_HANDLING, || {
            format!("ext4 ConHandleCk found {bad} bad cases")
        });
        let f2fs_cases = {
            let _span = trace::span("contools.conhandleck");
            contools::run_conhandleck_f2fs().len()
        };
        tally.check(f2fs_cases > 0, || {
            "f2fs ConHandleCk ran no cases".to_string()
        });

        for edit in 0..EDITS {
            let nth = round * EDITS + edit;
            let models = self.edited(nth % SYNTH_MODELS, nth);
            let before = cache.stats();
            let pass = Instant::now();
            let set = self.extract(&models, &cache, "confdep.extract_edit");
            let ns = u64::try_from(pass.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let after = cache.stats();
            self.edit_hits += after.hits - before.hits;
            self.edit_misses += after.misses - before.misses;
            self.edit_s.push(ns as f64 / 1e9);
            tally.requests += 1;
            tally.request_s += ns as f64 / 1e9;
            tally.latencies_ns.push(ns);
            tally.check(after.misses - before.misses == 1 && !set.is_empty(), || {
                format!(
                    "edit pass re-analysed {} models",
                    after.misses - before.misses
                )
            });
        }

        drop(round_span);
        tally.rounds_s.push(stats::secs(start));
    }

    fn finish(&mut self, tally: &mut Tally) -> Vec<Metric> {
        let first = self.synth_digests.first().copied().unwrap_or(0);
        tally.notes.push(format!(
            "synthetic corpus: {SYNTH_MODELS} models, dependency digest {first:016x}; {} deps in all",
            self.deps
        ));
        vec![
            Metric::new("extract.cold_s", stats::median(&self.cold_s), "s"),
            Metric::new("extract.edit_s", stats::median(&self.edit_s), "s"),
        ]
    }

    fn probe(&mut self) {
        // the analysis layers, called directly on every model, and the
        // dependency extraction alone over an already-warm cache
        let cache = AnalysisCache::new();
        let mut visits = 0;
        for models in [&self.ext4, &self.f2fs, &self.synth] {
            for (_, src) in models {
                let program = {
                    let _span = trace::span("cir.compile");
                    cir::compile(src).expect("models compile")
                };
                let _span = trace::span("taint.analyze");
                visits += taint::analyze_with_stats(&program, AnalysisOptions::default())
                    .1
                    .instructions_visited;
            }
            for (_, src) in models {
                cache
                    .get_or_analyze(src, ExtractOptions::default())
                    .expect("models compile");
            }
            let _span = trace::span("confdep.extract_warm");
            extract_scenario_with_cache(
                &borrowed(models),
                ExtractOptions::default(),
                self.threads,
                &cache,
            )
            .expect("models compile");
        }
        self.visits.push(visits);
    }

    fn layer_metrics(&self, spans: &[trace::Span]) -> Vec<Metric> {
        let rounds = trace::durations(spans, "extract.round").len().max(1) as f64;
        let probes = self.visits.len().max(1) as f64;
        vec![
            Metric::new(
                "cir.compile_ms",
                total_ms(spans, "cir.compile") / probes,
                "ms",
            ),
            Metric::new(
                "taint.analyze_ms",
                total_ms(spans, "taint.analyze") / probes,
                "ms",
            ),
            Metric::new("taint.visits", stats::median(&self.visits), "count"),
            Metric::new(
                "confdep.extract_ms",
                total_ms(spans, "confdep.extract_warm") / probes,
                "ms",
            ),
            Metric::new("confdep.deps", self.deps as f64, "count"),
            Metric::new(
                "confdep.cache_hit_ratio",
                stats::ratio(
                    self.edit_hits as f64,
                    (self.edit_hits + self.edit_misses) as f64,
                ),
                "ratio",
            ),
            Metric::new(
                "confdep.compile_ms",
                total_ms(spans, "confdep.compile") / rounds,
                "ms",
            ),
            Metric::new(
                "contools.condocck_ms",
                total_ms(spans, "contools.condocck") / rounds,
                "ms",
            ),
            Metric::new(
                "contools.conhandleck_ms",
                total_ms(spans, "contools.conhandleck") / rounds,
                "ms",
            ),
        ]
    }

    fn threads(&self) -> Vec<(&'static str, usize)> {
        vec![("extract.analysis", self.threads)]
    }
}
