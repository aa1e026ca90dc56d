//! The `serve_read` and `serve_write` workloads: a closed loop with 8
//! queries outstanding per `run_pending` cycle against one `Engine`,
//! with (on `serve_write`) seeded single-edge deltas and periodic RCM
//! compactions applied while queries are queued.

use crate::inputs::{serve_graph, DeltaStream, QueryStream, StreamHash, ALPHA};
use crate::serve_trace::Shadow;
use crate::trace::{median, quantile};
use crate::Report;
use acir_graph::{CompactionOrder, EdgeOp, GraphSnapshot, NodeId};
use acir_local::push::ppr_exact_reference;
use acir_runtime::Certificate;
use acir_serve::{Admission, Engine, EngineConfig, ResponseKind, SketchStore};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries submitted per `run_pending` cycle (the closed loop's depth).
const OUTSTANDING: u64 = 8;
/// One single-edge delta per this many queries, applied right after
/// query number `WRITE_PHASE` of the period is submitted: the queries
/// submitted before it in the cycle wait behind the write.
const WRITE_EVERY: u64 = 16;
const WRITE_PHASE: u64 = 4;
/// One `compact(Rcm)` per this many queries, between cycles: a
/// compaction costs throughput, not the latency of queued queries.
const COMPACT_EVERY: u64 = 512;
const SKETCH_HUBS: usize = 256;
const SKETCH_EPSILON: f64 = 1e-5;
/// Responses checked node by node against the dense reference.
const ORACLE_SAMPLES: usize = 6;
const ORACLE_ITERS: usize = 300;

pub struct ServeWorkload {
    /// `serve_write`: hub sketches on, plus the write stream.
    pub writes: bool,
}

impl ServeWorkload {
    fn config(&self) -> EngineConfig {
        EngineConfig {
            queue_cap: 16,
            capacity: 8_000_000,
            refill_per_cycle: 8_000_000,
            answer_cache_cap: 1024,
            sketch_hubs: if self.writes { SKETCH_HUBS } else { 0 },
            sketch_alpha: ALPHA,
            sketch_epsilon: SKETCH_EPSILON,
            ..EngineConfig::default()
        }
    }

    /// Queries in the fixed prefix that a fresh engine replays to show
    /// the run is deterministic: whole cycles, and on `serve_write` one
    /// compaction.
    fn prefix(&self) -> u64 {
        if self.writes {
            COMPACT_EVERY + OUTSTANDING
        } else {
            8192
        }
    }

    /// Graph generation plus engine construction (which builds the
    /// sketches), timed into `setup_s` (the whole) and `generate_s`.
    fn setup(&self, setup_s: &mut Vec<f64>, generate_s: &mut Vec<f64>) -> Engine {
        let t0 = Instant::now();
        let g = serve_graph();
        generate_s.push(t0.elapsed().as_secs_f64());
        let engine = Engine::new(g, self.config());
        setup_s.push(t0.elapsed().as_secs_f64());
        engine
    }

    pub fn run(&self, seed: u64, seconds: u64, traced: bool, report: &mut Report) {
        let (mut setup_s, mut generate_s) = (Vec::new(), Vec::new());
        // Two more set-ups follow: the engines of the prefix and the run.
        while crate::more_setups(&setup_s) {
            drop(self.setup(&mut setup_s, &mut generate_s));
        }
        report.info("peak_rss_after_setup_mb", crate::peak_rss_mb());

        // The fixed prefix first, on its own engine: peak memory is
        // read after it, so it measures set-up plus a fixed amount of
        // work, not however many queries the timed run got through.
        let prefix_counts = if traced {
            None
        } else {
            let engine = self.setup(&mut setup_s, &mut generate_s);
            let mut first = Run::new(engine, seed, self.writes, self.prefix(), 0);
            first.drive(Limit::Queries(self.prefix()), None);
            report.e2e("peak_rss_mb", crate::peak_rss_mb());
            let counts = first.prefix_counts.clone();
            first.finish(report);
            counts
        };

        let engine = self.setup(&mut setup_s, &mut generate_s);
        let mut shadow = traced.then(|| Shadow::new(engine.graph(), &self.config()));
        let mut run = Run::new(engine, seed, self.writes, self.prefix(), ORACLE_SAMPLES);
        run.drive(Limit::Time(Duration::from_secs(seconds)), shadow.as_mut());
        if !traced {
            // Same seed, fresh engine: the measured run must repeat the
            // prefix's counts exactly.
            match (prefix_counts, &run.prefix_counts) {
                (Some(a), Some(b)) => {
                    report.check(a == *b, || {
                        format!("same seed, different counts:\n  {a:?}\n  {b:?}")
                    });
                    a.print();
                }
                _ => report.check(false, || {
                    format!("run ended before its {}-query prefix", self.prefix())
                }),
            }
        }
        let done = run.finish(report);

        let queries = done.latencies_ms.len();
        let (rate, p50, p99) = periods(&done.latencies_ms, &done.done_s);
        report.e2e("setup_s", median(&setup_s));
        report.e2e("ops_per_s", median(&rate));
        report.e2e("op_p50_ms", median(&p50));
        report.e2e("op_p99_ms", median(&p99));
        report.info("queries", queries as f64);
        let rates: Vec<String> = rate.iter().map(|r| format!("{r:.1}")).collect();
        println!("period rates (queries/s): {}", rates.join(" "));
        report.info(
            "queries_per_s_whole_run",
            queries as f64 / done.elapsed.as_secs_f64(),
        );
        report.info("cache_hits", done.cached as f64);
        report.info("writes", done.write_ms.len() as f64);
        report.info("compactions", done.compact_ms.len() as f64);
        report.info("write_p50_ms", median(&done.write_ms));
        report.info("write_p95_ms", quantile(&done.write_ms, 0.95));
        report.info("compact_p50_ms", median(&done.compact_ms));

        if let Some(sh) = shadow {
            sh.report(&done, &generate_s, report);
        }
    }
}

/// Queries per measurement period: whole cycles, two compactions on
/// `serve_write`, and ten samples beyond each period's p99.
const PERIOD: usize = 1024;

/// Throughput, p50 and p99 of each whole period of the run. The figures
/// reported are their medians over periods, so host interference (CPU
/// steal on a shared 2-vCPU machine comes in bursts) that hits a
/// minority of periods does not move them. A run too short for one
/// period reports the whole run.
fn periods(latencies_ms: &[f64], done_s: &[f64]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    if latencies_ms.len() < PERIOD {
        let secs = done_s.last().copied().unwrap_or(f64::INFINITY);
        return (
            vec![latencies_ms.len() as f64 / secs],
            vec![median(latencies_ms)],
            vec![quantile(latencies_ms, 0.99)],
        );
    }
    let mut t0 = 0.0;
    let mut out = (Vec::new(), Vec::new(), Vec::new());
    for (i, chunk) in latencies_ms.chunks_exact(PERIOD).enumerate() {
        let t1 = done_s[(i + 1) * PERIOD - 1];
        out.0.push(PERIOD as f64 / (t1 - t0));
        t0 = t1;
        out.1.push(median(chunk));
        out.2.push(quantile(chunk, 0.99));
    }
    out
}

enum Limit {
    Time(Duration),
    Queries(u64),
}

/// Everything a same-seed rerun must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
struct Counts {
    stream: StreamHash,
    full: u64,
    cached: u64,
    degraded: u64,
    spliced: u64,
    push_work: u64,
    repair_pushes: usize,
    repair_work: usize,
    epoch: u64,
}

impl Counts {
    fn print(&self) {
        println!(
            "counts: stream {:016x}, full {}, cached {}, degraded {}, spliced {}, push work {}, \
             repair pushes {}, repair work {}, epoch {}",
            self.stream.0,
            self.full,
            self.cached,
            self.degraded,
            self.spliced,
            self.push_work,
            self.repair_pushes,
            self.repair_work,
            self.epoch
        );
    }
}

/// A response kept for the node-by-node reference check, with the
/// snapshot its request pinned at `submit`.
struct Sample {
    seeds: Vec<NodeId>,
    epsilon: f64,
    cluster: Vec<(NodeId, f64)>,
    snapshot: Arc<GraphSnapshot>,
}

/// One admitted query awaiting its response.
pub(crate) struct Inflight {
    pub index: u64,
    pub submitted: Instant,
    pub grant: u64,
    pub seeds: Vec<NodeId>,
    pub epsilon: f64,
    /// The snapshot the request pinned, kept when the query is sampled
    /// or traced.
    pub snapshot: Option<Arc<GraphSnapshot>>,
    /// The shadow's sketch store as of submit, when traced.
    pub sketches: Option<Arc<SketchStore>>,
}

/// A write applied in an untraced block, replayed onto the shadow
/// before the next traced block.
pub(crate) enum Backlog {
    Delta(EdgeOp),
    Compact,
}

struct Run {
    engine: Engine,
    queries: QueryStream,
    deltas: DeltaStream,
    writes: bool,
    seed: u64,
    prefix: u64,
    stream: StreamHash,
    submitted: u64,
    push_work: u64,
    repair_pushes: usize,
    repair_work: usize,
    prefix_counts: Option<Counts>,
    /// A traced run: untraced blocks queue their writes for the shadow
    /// and time their calls for the overhead comparison.
    shadowed: bool,
    backlog: Vec<Backlog>,
    untraced_pending_ms: Vec<f64>,
    untraced_write_ms: Vec<f64>,
    elapsed: Duration,
    latencies_ms: Vec<f64>,
    /// Completion time of each query, seconds from the start of the run.
    done_s: Vec<f64>,
    start: Instant,
    write_ms: Vec<f64>,
    compact_ms: Vec<f64>,
    /// Per response: rung, requested ε, certified per-degree bound.
    bounds: Vec<(ResponseKind, f64, Option<f64>)>,
    samples: Vec<Sample>,
    sample_cap: usize,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Run {
    fn new(engine: Engine, seed: u64, writes: bool, prefix: u64, samples: usize) -> Self {
        let queries = QueryStream::new(seed, engine.graph().n());
        let deltas = DeltaStream::new(seed, engine.graph());
        Self {
            engine,
            queries,
            deltas,
            writes,
            seed,
            prefix,
            stream: StreamHash::default(),
            submitted: 0,
            push_work: 0,
            repair_pushes: 0,
            repair_work: 0,
            prefix_counts: None,
            shadowed: false,
            backlog: Vec::new(),
            untraced_pending_ms: Vec::new(),
            untraced_write_ms: Vec::new(),
            elapsed: Duration::ZERO,
            latencies_ms: Vec::new(),
            done_s: Vec::new(),
            start: Instant::now(),
            write_ms: Vec::new(),
            compact_ms: Vec::new(),
            bounds: Vec::new(),
            samples: Vec::new(),
            sample_cap: samples,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Seeded choice of the responses checked against the reference.
    fn sampled(&self, index: u64) -> bool {
        self.samples.len() < self.sample_cap && splitmix(self.seed ^ index).is_multiple_of(256)
    }

    fn drive(&mut self, limit: Limit, mut shadow: Option<&mut Shadow>) {
        self.shadowed = shadow.is_some();
        self.start = Instant::now();
        loop {
            match limit {
                // A timed run always covers the prefix it is compared on.
                Limit::Time(d) if self.start.elapsed() >= d && self.submitted >= self.prefix => {
                    break
                }
                Limit::Queries(q) if self.submitted >= q => break,
                _ => {}
            }
            // A traced run traces the odd 16-query blocks (the
            // compaction after query 512k closes one); the even blocks
            // time the same calls untraced, which gives the tracing
            // overhead.
            let traced = (self.submitted / WRITE_EVERY) % 2 == 1;
            match shadow.as_deref_mut() {
                Some(sh) if traced => {
                    sh.catch_up(std::mem::take(&mut self.backlog), &self.engine);
                    self.cycle(Some(sh));
                }
                _ => self.cycle(None),
            }
            if self.submitted == self.prefix {
                let s = self.engine.stats();
                self.prefix_counts = Some(Counts {
                    stream: self.stream,
                    full: s.full,
                    cached: s.cached,
                    degraded: s.degraded(),
                    spliced: s.spliced,
                    push_work: self.push_work,
                    repair_pushes: self.repair_pushes,
                    repair_work: self.repair_work,
                    epoch: self.engine.epoch(),
                });
            }
        }
        self.elapsed = self.start.elapsed();
    }

    fn cycle(&mut self, mut shadow: Option<&mut Shadow>) {
        let mut inflight = Vec::with_capacity(OUTSTANDING as usize);
        for _ in 0..OUTSTANDING {
            let q = self.queries.next_query();
            self.stream.add_query(&q);
            let index = self.submitted;
            self.submitted += 1;
            self.attempted += 1;
            let snapshot =
                (shadow.is_some() || self.sampled(index)).then(|| self.engine.snapshot());
            let sketches = shadow.as_ref().and_then(|s| s.sketches.clone());
            let (seeds, epsilon) = (q.seeds.clone(), q.epsilon);
            let submitted = Instant::now();
            let admission = self.engine.submit(q);
            let submit_end = Instant::now();
            if let Some(sh) = shadow.as_deref_mut() {
                sh.tracer
                    .record("serve.submit", submitted, submit_end, None, index);
            }
            match admission {
                Admission::Accepted { granted_work, .. } => inflight.push(Inflight {
                    index,
                    submitted,
                    grant: granted_work,
                    seeds,
                    epsilon,
                    snapshot,
                    sketches,
                }),
                Admission::Rejected(o) => {
                    self.failed += 1;
                    self.errors.push(format!("query {index} rejected: {o:?}"));
                }
            }
            if self.writes && self.submitted % WRITE_EVERY == WRITE_PHASE {
                let op = self.deltas.next_op();
                self.stream.add_op(&op);
                self.write(op, shadow.as_deref_mut());
            }
        }

        let allocs = acir_mem::snapshot();
        let started = Instant::now();
        let responses = self.engine.run_pending();
        let done = Instant::now();
        let allocs = acir_mem::snapshot().since(&allocs).allocs;
        if responses.len() != inflight.len() {
            self.failed += inflight.len().abs_diff(responses.len()) as u64;
            self.errors.push(format!(
                "{} admitted, {} answered",
                inflight.len(),
                responses.len()
            ));
        }
        for (f, r) in inflight.iter().zip(&responses) {
            self.latencies_ms
                .push((done - f.submitted).as_secs_f64() * 1e3);
            self.done_s.push((done - self.start).as_secs_f64());
            self.push_work += r.diagnostics.work;
            let bound = match r.certificate {
                Certificate::ResidualMass {
                    per_degree_bound, ..
                } => Some(per_degree_bound),
                _ => None,
            };
            self.bounds.push((r.kind, r.epsilon_requested, bound));
            if r.kind.is_degraded() {
                self.failed += 1;
            }
            if self.sampled(f.index) {
                if let Some(snapshot) = &f.snapshot {
                    self.samples.push(Sample {
                        seeds: f.seeds.clone(),
                        epsilon: f.epsilon,
                        cluster: r.cluster.clone(),
                        snapshot: Arc::clone(snapshot),
                    });
                }
            }
        }
        match shadow.as_deref_mut() {
            Some(sh) => sh.reads(&inflight, &responses, (started, done), allocs),
            None if self.shadowed => self
                .untraced_pending_ms
                .push((done - started).as_secs_f64() * 1e3),
            None => {}
        }
        if self.writes && self.submitted.is_multiple_of(COMPACT_EVERY) {
            self.compact(shadow);
        }
    }

    fn write(&mut self, op: EdgeOp, shadow: Option<&mut Shadow>) {
        self.attempted += 1;
        let allocs = acir_mem::snapshot();
        let start = Instant::now();
        let result = self.engine.update_graph_delta(&[op]);
        let end = Instant::now();
        let bytes = acir_mem::snapshot().since(&allocs).bytes;
        self.write_ms.push((end - start).as_secs_f64() * 1e3);
        match result {
            Ok(summary) => {
                self.repair_pushes += summary.repair_pushes;
                self.repair_work += summary.repair_work;
                match shadow {
                    Some(sh) => sh.write(op, &summary, (start, end), bytes, &self.engine),
                    None if self.shadowed => {
                        self.backlog.push(Backlog::Delta(op));
                        self.untraced_write_ms
                            .push((end - start).as_secs_f64() * 1e3);
                    }
                    None => {}
                }
            }
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("update_graph_delta failed: {e}"));
            }
        }
    }

    fn compact(&mut self, shadow: Option<&mut Shadow>) {
        self.attempted += 1;
        let start = Instant::now();
        let result = self.engine.compact(CompactionOrder::Rcm);
        let end = Instant::now();
        self.compact_ms.push((end - start).as_secs_f64() * 1e3);
        match result {
            Ok(_) => match shadow {
                Some(sh) => sh.compact((start, end), &self.engine),
                None if self.shadowed => self.backlog.push(Backlog::Compact),
                None => {}
            },
            Err(e) => {
                self.failed += 1;
                self.errors.push(format!("compact failed: {e}"));
            }
        }
    }

    /// Output checks, outside the timed region; releases the engine.
    fn finish(self, report: &mut Report) -> Finished {
        for &(kind, requested, bound) in &self.bounds {
            if !kind.is_degraded() {
                report.check(bound.is_some_and(|b| b <= requested), || {
                    format!(
                        "{} response certifies {bound:?} for requested eps {requested:e}",
                        kind.name()
                    )
                });
            }
        }
        report.check(self.sample_cap == 0 || !self.samples.is_empty(), || {
            "no response was sampled for the reference check".into()
        });
        for s in &self.samples {
            let checked = oracle_check(s, self.writes);
            report.check(checked.is_ok(), || checked.clone().unwrap_err());
        }
        let expected = (self.write_ms.len() + self.compact_ms.len()) as u64;
        report.check(self.engine.epoch() == expected, || {
            format!(
                "final epoch {} != writes + compactions {expected}",
                self.engine.epoch()
            )
        });
        // Already counted in `failed`; listed for the reader.
        for e in self.errors {
            println!("note: {e}");
        }
        report.attempted += self.attempted;
        report.failed += self.failed;
        let stats = self.engine.stats();
        Finished {
            elapsed: self.elapsed,
            untraced_pending_ms: self.untraced_pending_ms,
            untraced_write_ms: self.untraced_write_ms,
            latencies_ms: self.latencies_ms,
            done_s: self.done_s,
            write_ms: self.write_ms,
            compact_ms: self.compact_ms,
            responded: stats.responded,
            cached: stats.cached,
            spliced: stats.spliced,
            degraded: stats.degraded(),
        }
    }
}

pub(crate) struct Finished {
    pub elapsed: Duration,
    pub untraced_pending_ms: Vec<f64>,
    pub untraced_write_ms: Vec<f64>,
    pub latencies_ms: Vec<f64>,
    pub done_s: Vec<f64>,
    pub write_ms: Vec<f64>,
    pub compact_ms: Vec<f64>,
    pub responded: u64,
    pub cached: u64,
    pub spliced: u64,
    pub degraded: u64,
}

/// Check a response against the dense power-iteration PPR on the
/// snapshot its request pinned: `0 ≤ ref(u) − p(u) ≤ ε·d(u)` at every
/// node, within the reference's own truncation error.
///
/// Once deltas have been applied (`repaired`), answers are built from
/// repaired hub sketches, whose residual is signed: the repair kernel
/// guarantees `|ref(u) − p(u)| ≤ ε·d(u)` and documents that "a deleted
/// edge can leave `p` locally too large". There the lower side is
/// `−ε·d(u)` instead of 0.
fn oracle_check(s: &Sample, repaired: bool) -> Result<(), String> {
    let snap = &s.snapshot;
    let g = snap.graph();
    let seeds: Vec<NodeId> = s.seeds.iter().map(|&u| snap.lineage().to_new(u)).collect();
    let reference = ppr_exact_reference(g, &seeds, ALPHA, ORACLE_ITERS)
        .map_err(|e| format!("reference failed: {e}"))?;
    // ‖pr_k − pr‖₁ ≤ 2(1−α)^k for the lazy iteration, plus rounding.
    let tol = 2.0 * (1.0 - ALPHA).powi(ORACLE_ITERS as i32) + 1e-12;
    let mut p = vec![0.0; g.n()];
    for &(u, x) in &s.cluster {
        p[snap.lineage().to_new(u) as usize] = x;
    }
    for u in 0..g.n() {
        let gap = reference[u] - p[u];
        let cap = s.epsilon * g.degree(u as NodeId) + tol;
        let floor = if repaired { -cap } else { -tol };
        if gap < floor || gap > cap {
            return Err(format!(
                "reference check failed at node {u} of epoch {}: ref {:e}, served {:e}, \
                 allowed gap [{floor:e}, {cap:e}]",
                snap.epoch(),
                reference[u],
                p[u]
            ));
        }
    }
    Ok(())
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}
