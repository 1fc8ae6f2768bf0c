//! `serve`: validation traffic over both ecosystems.
//!
//! Each line is in the `validate --batch` format (`<create args> |
//! <mount opts>`), about half ext4 and half F2FS. A line is parsed with
//! [`ConfigQuery::parse_line_for`] and answered by that ecosystem's
//! [`EngineOptions::serving`] engine; a violating line is also
//! explained, and every fiftieth violating line of a client is also
//! repaired. Lines are solver witnesses and mutants of them: about 75%
//! repeat a hot set that fits the memo, about 25% carry a fresh label
//! and are new states, so the memo both hits and evicts over a run.
//!
//! The loop is closed: each client sends its next line only after the
//! previous answer. A request's latency runs from the start of parsing
//! to the last answer for the line.

use std::collections::{BTreeSet, HashSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use confdep::{ConstraintSet, SolvedConfig, Solver, SolverScope, Verdict};
use convalid::{ConfigQuery, EngineOptions, ValidationEngine, ValidationPlan};
use ecosys::Ecosystem;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{constraints, p50_us, stats, total_ms, trace, Config, Metric, Tally, Workload};

/// Distinct hot states per ecosystem (witnesses first, then mutants).
const HOT_PER_ECO: usize = 256;
/// Lines each client sends per round.
const LINES_PER_CLIENT: usize = 2_000;
/// Share of lines that carry a fresh value.
const FRESH_SHARE: f64 = 0.25;
/// Every this-many violating lines of a client also get a repair.
const REPAIR_EVERY: u64 = 50;
/// Key bit marking a fresh (never repeated) line.
const FRESH_KEY: u64 = 1 << 63;

/// One line of traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line {
    /// Index into the served ecosystems (0 = ext4, 1 = F2FS).
    pub eco: usize,
    /// Identity of the distinct state the line names.
    pub key: u64,
    /// The batch-format text.
    pub text: String,
}

struct Served {
    eco: Ecosystem,
    scope: SolverScope,
    engine: ValidationEngine,
    hot: Vec<SolvedConfig>,
    hot_lines: Vec<String>,
}

/// What one client's round produced.
#[derive(Default)]
struct ClientLog {
    latencies_ns: Vec<u64>,
    /// `(line index, verdicts)` for lines not yet checked.
    unchecked: Vec<(usize, Arc<[Verdict]>)>,
    unparsed: u64,
    unclean_repairs: u64,
    violating: u64,
}

/// The `serve` workload.
pub struct Serve {
    seed: u64,
    clients: usize,
    threads: usize,
    served: Vec<Served>,
    checked: HashSet<u64>,
    /// Violating lines per client so far (carried across rounds).
    violating: Vec<u64>,
}

/// Renders a solved state as one batch line under `scope`.
fn render(solved: &SolvedConfig, scope: &SolverScope) -> Option<String> {
    let (args, mount) = solved.render_with(scope)?;
    Some(format!("{} | {}", args.join(" "), mount))
}

/// The hot set of one ecosystem: every rendered solver witness, then
/// seeded feature-toggle mutants, deduplicated by parsed state.
fn hot_set(eco: &Ecosystem, set: &ConstraintSet, seed: u64) -> (Vec<SolvedConfig>, Vec<String>) {
    let solver = Solver::with_scope(set, eco.solver_scope());
    let witnesses: Vec<SolvedConfig> = {
        let _span = trace::span("confdep.solve");
        solver
            .witness_targets()
            .into_iter()
            .map(|(_, _, s)| s)
            .collect()
    };
    let features = solver.feature_pool(eco.create_component);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x484f_5453_4554);
    let mut keys = BTreeSet::new();
    let mut hot = Vec::new();
    let mut lines = Vec::new();
    let mut push = |s: SolvedConfig, hot: &mut Vec<SolvedConfig>, lines: &mut Vec<String>| {
        let Some(line) = render(&s, solver.scope()) else {
            return;
        };
        let Some(q) = ConfigQuery::parse_line_for(eco, &line) else {
            return;
        };
        if keys.insert(q.state_key()) {
            hot.push(s);
            lines.push(line);
        }
    };
    for w in &witnesses {
        push(w.clone(), &mut hot, &mut lines);
    }
    let mut attempts = 0;
    while hot.len() < HOT_PER_ECO
        && !witnesses.is_empty()
        && !features.is_empty()
        && attempts < 20 * HOT_PER_ECO
    {
        attempts += 1;
        let mut s = witnesses[rng.gen_range(0..witnesses.len())].clone();
        for _ in 0..rng.gen_range(1..3) {
            let f = &features[rng.gen_range(0..features.len())];
            s.mkfs.set_bool(f, rng.gen_bool(0.5));
        }
        push(s, &mut hot, &mut lines);
    }
    hot.truncate(HOT_PER_ECO);
    lines.truncate(HOT_PER_ECO);
    (hot, lines)
}

impl Serve {
    /// The lines `client` sends in `round`: a pure function of the seed,
    /// the client and the round.
    pub fn lines(&self, client: usize, round: usize) -> Vec<Line> {
        let mix = self.seed
            ^ (client as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (round as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let mut rng = StdRng::seed_from_u64(mix);
        let first = ((round * self.clients + client) * LINES_PER_CLIENT) as u64;
        (0..LINES_PER_CLIENT)
            .map(|i| {
                let eco = usize::from(rng.gen_bool(0.5));
                let served = &self.served[eco];
                let pick = rng.gen_range(0..served.hot.len());
                if rng.gen_bool(FRESH_SHARE) {
                    let n = first + i as u64;
                    let mut s = served.hot[pick].clone();
                    s.mkfs.set_str("label", &format!("v{n}"));
                    if let Some(text) = render(&s, &served.scope) {
                        return Line {
                            eco,
                            key: FRESH_KEY | n,
                            text,
                        };
                    }
                }
                let key = ((eco as u64) << 32) | pick as u64;
                Line {
                    eco,
                    key,
                    text: served.hot_lines[pick].clone(),
                }
            })
            .collect()
    }

    /// One client's closed loop over its lines.
    fn client(&self, lines: &[Line], mut violating: u64, parent: u64) -> ClientLog {
        let mut log = ClientLog {
            latencies_ns: Vec::with_capacity(lines.len()),
            ..ClientLog::default()
        };
        for (i, line) in lines.iter().enumerate() {
            let start = Instant::now();
            let line_span = trace::span_under("serve.line", parent);
            let served = &self.served[line.eco];
            let parsed = {
                let _span = trace::span("convalid.parse");
                ConfigQuery::parse_line_for(&served.eco, &line.text)
            };
            let Some(query) = parsed else {
                log.unparsed += 1;
                continue;
            };
            {
                let _span = trace::span("convalid.fingerprint");
                black_box(query.fingerprint());
            }
            let outcome = {
                let mut span = trace::span("convalid.validate");
                let outcome = served.engine.validate(&query);
                span.rename(if outcome.memo_hit {
                    "convalid.validate_hit"
                } else {
                    "convalid.validate_miss"
                });
                outcome
            };
            if !outcome.ok() {
                {
                    let _span = trace::span("convalid.explain");
                    black_box(served.engine.explain(&query));
                }
                violating += 1;
                if violating.is_multiple_of(REPAIR_EVERY) {
                    let _span = trace::span("convalid.repair");
                    if !served.engine.repair(&query).clean {
                        log.unclean_repairs += 1;
                    }
                }
            }
            drop(line_span);
            log.latencies_ns
                .push(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            if !self.checked.contains(&line.key) {
                log.unchecked.push((i, outcome.verdicts));
            }
        }
        log.violating = violating;
        trace::flush_thread();
        log
    }

    /// Checks a line's served verdicts against direct
    /// `Constraint::evaluate` over every constraint of its plan.
    fn direct_matches(&self, line: &Line, verdicts: &[Verdict]) -> bool {
        let served = &self.served[line.eco];
        let Some(q) = ConfigQuery::parse_line_for(&served.eco, &line.text) else {
            return false;
        };
        let views = q.views();
        let constraints = served.engine.plan().constraints().constraints();
        constraints.len() == verdicts.len()
            && constraints
                .iter()
                .zip(verdicts)
                .all(|(c, v)| c.evaluate(&views) == *v)
    }

    fn memo_totals(&self) -> (f64, f64, f64, f64) {
        let (mut hits, mut misses, mut evictions, mut queries, mut evaluated) = (0, 0, 0, 0, 0);
        for s in &self.served {
            let st = s.engine.stats();
            queries += st.queries;
            evaluated += st.constraints_evaluated;
            if let Some(m) = st.memo {
                hits += m.hits;
                misses += m.misses;
                evictions += m.evictions;
            }
        }
        (
            hits as f64,
            misses as f64,
            evictions as f64,
            stats::ratio(evaluated as f64, queries as f64),
        )
    }
}

impl Workload for Serve {
    const NAME: &'static str = "serve";

    fn setup(cfg: &Config) -> Self {
        let served = [ecosys::ext4(), ecosys::f2fs()]
            .into_iter()
            .map(|eco| {
                let set = constraints(&eco, cfg.threads);
                let (hot, hot_lines) = hot_set(&eco, &set, cfg.seed ^ eco.name.len() as u64);
                let plan = {
                    let _span = trace::span("convalid.plan_compile");
                    Arc::new(ValidationPlan::compile_for(set, eco))
                };
                Served {
                    eco,
                    scope: eco.solver_scope(),
                    engine: ValidationEngine::new(plan, EngineOptions::serving()),
                    hot,
                    hot_lines,
                }
            })
            .collect();
        let clients = cfg.threads.clamp(1, 2);
        Serve {
            seed: cfg.seed,
            clients,
            threads: cfg.threads,
            served,
            checked: HashSet::new(),
            violating: vec![0; clients],
        }
    }

    fn round(&mut self, round: usize, tally: &mut Tally) {
        let streams: Vec<Vec<Line>> = (0..self.clients).map(|c| self.lines(c, round)).collect();
        let start = Instant::now();
        let round_span = trace::span("serve.round");
        let parent = round_span.id();
        let logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .iter()
                .zip(&self.violating)
                .map(|(lines, &violating)| {
                    let this = &*self;
                    scope.spawn(move || this.client(lines, violating, parent))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("serve client panicked"))
                .collect()
        });
        drop(round_span);
        let wall = stats::secs(start);
        tally.rounds_s.push(wall);
        tally.request_s += wall;
        // output checks run between rounds, outside the timed round
        for (c, (log, lines)) in logs.into_iter().zip(&streams).enumerate() {
            let answered = log.latencies_ns.len() as u64;
            tally.requests += answered;
            tally.attempted += lines.len() as u64;
            tally.latencies_ns.extend(log.latencies_ns);
            self.violating[c] = log.violating;
            if log.unparsed > 0 {
                tally.failed += log.unparsed;
                tally
                    .problems
                    .push(format!("{} lines did not parse", log.unparsed));
            }
            if log.unclean_repairs > 0 {
                tally.failed += log.unclean_repairs;
                tally
                    .problems
                    .push(format!("{} repairs were not clean", log.unclean_repairs));
            }
            for (i, verdicts) in log.unchecked {
                let line = &lines[i];
                if self.checked.insert(line.key) && !self.direct_matches(line, &verdicts) {
                    tally.failed += 1;
                    tally.problems.push(format!(
                        "verdicts differ from direct evaluation: {}",
                        line.text
                    ));
                }
            }
        }
    }

    fn finish(&mut self, tally: &mut Tally) -> Vec<Metric> {
        let (hits, misses, evictions, _) = self.memo_totals();
        vec![
            Metric::new(
                "serve.qps",
                stats::ratio(tally.requests as f64, tally.request_s),
                "1/s",
            ),
            Metric::new(
                "serve.p50_us",
                stats::median(&tally.latencies_ns) / 1e3,
                "us",
            ),
            Metric::new(
                "serve.p99_us",
                stats::quantile(&tally.latencies_ns, 0.99) / 1e3,
                "us",
            ),
            Metric::new(
                "serve.latency_samples",
                tally.latencies_ns.len() as f64,
                "count",
            ),
            Metric::new("serve.distinct_checked", self.checked.len() as f64, "count"),
            Metric::new(
                "serve.memo_hit_ratio",
                stats::ratio(hits, hits + misses),
                "ratio",
            ),
            Metric::new("serve.memo_evictions", evictions, "count"),
        ]
    }

    fn layer_metrics(&self, spans: &[trace::Span]) -> Vec<Metric> {
        let (hits, misses, evictions, per_query) = self.memo_totals();
        vec![
            Metric::new("convalid.parse_us", p50_us(spans, "convalid.parse"), "us"),
            Metric::new(
                "convalid.fingerprint_us",
                p50_us(spans, "convalid.fingerprint"),
                "us",
            ),
            Metric::new(
                "convalid.validate_hit_us",
                p50_us(spans, "convalid.validate_hit"),
                "us",
            ),
            Metric::new(
                "convalid.validate_miss_us",
                p50_us(spans, "convalid.validate_miss"),
                "us",
            ),
            Metric::new(
                "convalid.explain_us",
                p50_us(spans, "convalid.explain"),
                "us",
            ),
            Metric::new("convalid.repair_us", p50_us(spans, "convalid.repair"), "us"),
            Metric::new(
                "convalid.memo_hit_ratio",
                stats::ratio(hits, hits + misses),
                "ratio",
            ),
            Metric::new("convalid.evaluated_per_query", per_query, "count"),
            Metric::new("convalid.memo_evictions", evictions, "count"),
            Metric::new(
                "convalid.plan_compile_ms",
                total_ms(spans, "convalid.plan_compile"),
                "ms",
            ),
            Metric::new("confdep.solve_ms", total_ms(spans, "confdep.solve"), "ms"),
        ]
    }

    fn threads(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("serve.clients", self.clients),
            ("serve.extract_setup", self.threads),
        ]
    }
}
