//! Wall-clock benchmark of the ACIR serving stack and its exact
//! spectral comparator, driven from outside the library as an
//! embedding application would drive it.
//!
//! ```text
//! acir-perfbench --workload serve_read|serve_write|fiedler --seed N --seconds S --trace 0|1
//!                [--spans-out FILE]
//! ```
//!
//! Prints one line per measurement, then, as the last line, a JSON
//! object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics untraced (`--trace 0`), the per-layer metrics
//! traced (`--trace 1`). Exits non-zero when an output check fails.

mod fiedler;
mod inputs;
mod serve;
mod serve_trace;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use trace::Tracer;

#[global_allocator]
static ALLOC: acir_mem::CountingAlloc = acir_mem::CountingAlloc;

/// End-to-end metrics: every workload reports each of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A workload that bypasses a
/// layer reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("serve.submit_us", "us"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.run_pending_ms", "ms"),
    ("serve.batch_size", "count"),
    ("serve.cache_hit_share", "share"),
    ("serve.splice_share", "share"),
    ("serve.degraded_share", "share"),
    ("serve.answers_dropped_per_write", "count"),
    ("serve.sketches_repaired_per_write", "count"),
    ("serve.repair_work_per_write", "count"),
    ("serve.write_p50_ms", "ms"),
    ("serve.write_p95_ms", "ms"),
    ("serve.compact_p50_ms", "ms"),
    ("local.push_us", "us"),
    ("local.push_work", "count"),
    ("local.support", "count"),
    ("local.splice_us", "us"),
    ("local.splice_work", "count"),
    ("local.splice_support", "count"),
    ("local.hubs_spliced", "count"),
    ("local.sketch_repair_ms", "ms"),
    ("local.sketch_build_s", "s"),
    ("graph.overlay_us", "us"),
    ("graph.csr_rebuild_ms", "ms"),
    ("graph.publish_us", "us"),
    ("graph.compact_ordered_ms", "ms"),
    ("graph.write_alloc_bytes", "bytes"),
    ("graph.generate_s", "s"),
    ("mem.allocs_per_query", "count"),
    ("spectral.fiedler_s", "s"),
    ("spectral.restarts", "count"),
    ("spectral.krylov_final", "count"),
    ("linalg.lanczos_s", "s"),
    ("linalg.tridiag_s", "s"),
    ("linalg.ritz_lift_s", "s"),
    ("linalg.wasted_share", "share"),
    ("exec.spmv_us", "us"),
    ("exec.matvecs", "count"),
    ("linalg.basis_mb", "MB"),
    ("trace.unattributed_share_read", "share"),
    ("trace.unattributed_share_write", "share"),
    ("trace.unattributed_share_solve", "share"),
    ("trace.overhead_share", "share"),
];

/// Set-up is repeated at least this many times, and for at least
/// `SETUP_SECONDS` in total; `setup_s` is the median. The cheap set-ups
/// (10–60 ms) are otherwise too short to time steadily.
const MIN_SETUPS: usize = 5;
const SETUP_SECONDS: f64 = 1.5;

/// Whether a workload that has timed `done` set-ups should time another.
pub fn more_setups(done: &[f64]) -> bool {
    done.len() < MIN_SETUPS || done.iter().sum::<f64>() < SETUP_SECONDS
}

/// What one run measured and what its checks found.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    info: Vec<(&'static str, f64)>,
    spans: Option<Tracer>,
}

impl Report {
    fn new() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: BTreeMap::new(),
            info: Vec::new(),
            spans: None,
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        debug_assert!(END_TO_END.iter().any(|&(n, _)| n == name));
        self.metrics.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|&(n, _)| n == name));
        self.metrics.insert(name, value);
    }

    /// A figure printed for the reader but not part of the result.
    pub fn info(&mut self, name: &'static str, value: f64) {
        self.info.push((name, value));
    }

    /// A failed operation or output check: fails the run.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.problems.push(what);
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    pub fn spans(&mut self, tracer: Tracer) {
        self.spans = Some(tracer);
    }
}

/// `VmHWM`, the process's peak resident set, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => trace = Some(value == "1"),
            "--spans-out" => spans_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans_out,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("acir-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::new();
    println!(
        "workload {} seed {} seconds {} trace {} (ACIR_THREADS={}, available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::env::var("ACIR_THREADS").unwrap_or_else(|_| "unset".into()),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    match args.workload.as_str() {
        "serve_read" => serve::ServeWorkload { writes: false }.run(
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "serve_write" => serve::ServeWorkload { writes: true }.run(
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "fiedler" => fiedler::run(args.seconds, args.trace, &mut report),
        other => {
            eprintln!("acir-perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    }

    if let (Some(tracer), Some(path)) = (&report.spans, &args.spans_out) {
        if let Err(e) = tracer.write_jsonl(path) {
            report.fail(format!("writing spans to {}: {e}", path.display()));
        }
    }

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, value) in &report.info {
        println!("{name:<36} {value}");
    }
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        println!("{name:<36} {value} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    for p in &report.problems {
        println!("FAILED: {p}");
    }
    let correct = report.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
