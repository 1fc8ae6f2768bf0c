//! The pipeline benchmark: three workloads that drive every layer from
//! outside, through the crates' public APIs.
//!
//! * [`serve`] — validation traffic in the `validate --batch` line
//!   format over both ecosystems (convalid + confdep constraints);
//! * [`campaign`] — configuration testing on the simulators: solver
//!   fuzz campaigns, crash exploration and the fault sweep;
//! * [`extract`] — a cold static-analysis pass over the real models
//!   and a seeded synthetic corpus, then one-model edit passes.
//!
//! Every workload is a [`Workload`]: a timed set-up, a fixed unit of
//! work (a *round*) repeated for the measured time, and output checks
//! after the timed phase. `src/main.rs` runs one workload untraced for
//! the end-to-end metrics, or all three with [`trace`] spans for the
//! per-layer metrics.

pub mod campaign;
pub mod extract;
pub mod serve;
pub mod stats;
pub mod trace;

/// Run-wide settings every workload receives.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seed all inputs are generated from.
    pub seed: u64,
    /// Worker threads for every leg: the host's core count.
    pub threads: usize,
    /// Directory for the files a workload writes (verdict stores).
    pub scratch: std::path::PathBuf,
}

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (`serve.qps`, `convalid.parse_us`, ...).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit (`1/s`, `us`, `count`, ...).
    pub unit: &'static str,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// What the rounds of one workload accumulated.
#[derive(Debug, Default)]
pub struct Tally {
    /// Wall seconds of each round.
    pub rounds_s: Vec<f64>,
    /// Requests completed (lines answered, configs executed, edits).
    pub requests: u64,
    /// Seconds of the phases that served those requests.
    pub request_s: f64,
    /// Per-request latency, nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Operations attempted, checked ones included.
    pub attempted: u64,
    /// Operations that failed or gave a wrong answer.
    pub failed: u64,
    /// What went wrong, one line each.
    pub problems: Vec<String>,
    /// Facts worth printing with the result (digests, counts).
    pub notes: Vec<String>,
}

impl Tally {
    /// Forgets the timings of the rounds so far (a warm-up), keeping
    /// their output checks.
    pub fn discard_timings(&mut self) {
        self.rounds_s.clear();
        self.requests = 0;
        self.request_s = 0.0;
        self.latencies_ns.clear();
    }

    /// Counts one checked operation; a failed check is recorded with
    /// its reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// The workload's name on the command line.
    const NAME: &'static str;

    /// Generates the inputs from the seed and builds what the rounds
    /// serve from. Timed as `setup_s`.
    fn setup(cfg: &Config) -> Self;

    /// One fixed unit of work; `round` numbers rounds from 0.
    fn round(&mut self, round: usize, tally: &mut Tally);

    /// Output checks after the timed phase, plus the workload's own
    /// named end-to-end figures.
    fn finish(&mut self, tally: &mut Tally) -> Vec<Metric>;

    /// Work done only in the traced run, outside its timed rounds, to
    /// measure layers the rounds cannot separate from outside.
    fn probe(&mut self) {}

    /// Per-layer metrics from the spans of the traced rounds (and of
    /// the traced set-up).
    fn layer_metrics(&self, spans: &[trace::Span]) -> Vec<Metric>;

    /// Thread count of every leg, for the host block.
    fn threads(&self) -> Vec<(&'static str, usize)>;
}

/// Per-layer p50 of a span name, in microseconds.
pub fn p50_us(spans: &[trace::Span], name: &str) -> f64 {
    stats::median(&trace::durations(spans, name)) / 1e3
}

/// Sum of a span name's durations, in milliseconds.
pub fn total_ms(spans: &[trace::Span], name: &str) -> f64 {
    trace::durations(spans, name).iter().sum::<u64>() as f64 / 1e6
}

/// An ecosystem's compiled constraints, extracted through a fresh
/// analysis cache so every set-up pays the analysis.
pub fn constraints(eco: &ecosys::Ecosystem, threads: usize) -> confdep::ConstraintSet {
    let extraction = confdep::extract_scenario_with_cache(
        &eco.models(),
        confdep::ExtractOptions::default(),
        threads,
        &confdep::AnalysisCache::new(),
    )
    .expect("the ecosystem models compile");
    confdep::ConstraintSet::compile(extraction.deps)
}
