//! The `fiedler` workload: repeated `fiedler_vector` solves on the
//! social-network LCC, each checked against its own certificate.
//!
//! The traced run replays the solver's Krylov escalation through
//! `lanczos`, `tridiag_eig` and `ritz_pairs` at each dimension, from the
//! same fixed LCG start vector `smallest_eigenpairs` uses, and requires
//! the λ₂ and v₂ it obtains to equal `fiedler_vector`'s bit for bit.

use crate::inputs::fiedler_graph;
use crate::trace::{median, Tracer};
use crate::Report;
use acir_graph::traversal::is_connected;
use acir_graph::Graph;
use acir_linalg::lanczos::lanczos;
use acir_linalg::tridiag::tridiag_eig;
use acir_linalg::{vector, CsrMatrix};
use acir_spectral::{fiedler_vector, normalized_laplacian, trivial_eigenvector, FiedlerResult};
use std::time::{Duration, Instant};

/// Solves per run at the least, however short `--seconds` is.
const MIN_SOLVES: u64 = 3;
/// The eigen-residual `fiedler_vector` stops at.
const RESIDUAL_BAR: f64 = 1e-8;
/// Timed products for the single-SpMV figure.
const SPMV_REPS: usize = 64;

pub fn run(seconds: u64, traced: bool, report: &mut Report) {
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let mut g = None;
    while crate::more_setups(&setup_s) {
        let t0 = Instant::now();
        let graph = fiedler_graph();
        generate_s.push(t0.elapsed().as_secs_f64());
        let nl = normalized_laplacian(&graph);
        setup_s.push(t0.elapsed().as_secs_f64());
        g = Some((graph, nl));
    }
    let (g, nl) = g.expect("at least one set-up");

    let mut tracer = Tracer::new();
    let mut untraced_s = Vec::new();
    let mut replays = Vec::new();
    let mut results: Vec<FiedlerResult> = Vec::new();
    let start = Instant::now();
    let mut solve = 0u64;
    while start.elapsed() < Duration::from_secs(seconds) || solve < MIN_SOLVES {
        report.attempted += 1;
        // A traced run traces every other solve; the others time the
        // same call untraced, which gives the tracing overhead.
        let trace_this = traced && solve % 2 == 1;
        let t = Instant::now();
        let solved = fiedler_vector(&g);
        let end = Instant::now();
        match solved {
            Ok(r) => {
                if trace_this {
                    let span = tracer.record("spectral.fiedler_vector", t, end, None, solve);
                    replays.push(replay(&g, &mut tracer, span, solve, &r, report));
                } else {
                    untraced_s.push((end - t).as_secs_f64());
                }
                results.push(r);
            }
            Err(e) => report.fail(format!("fiedler_vector failed: {e}")),
        }
        solve += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let all_s: Vec<f64> = untraced_s
        .iter()
        .copied()
        .chain(tracer.secs_of("spectral.fiedler_vector"))
        .collect();

    check(&g, &nl, &results, report);

    report.e2e("setup_s", median(&setup_s));
    // As on the serve workloads, the figures are medians over periods;
    // here a period is one solve, so its p99 is the solve itself. (The
    // slowest of a handful of identical solves measures host noise.)
    report.e2e("ops_per_s", 1.0 / median(&all_s));
    report.e2e("op_p50_ms", 1e3 * median(&all_s));
    report.e2e("op_p99_ms", 1e3 * median(&all_s));
    report.e2e("peak_rss_mb", crate::peak_rss_mb());
    report.info("solves", results.len() as f64);
    report.info("solves_per_s_whole_run", results.len() as f64 / elapsed);
    for (i, s) in all_s.iter().enumerate() {
        println!("solve {i}: {s:.4} s");
    }
    if let Some(r) = results.first() {
        println!("counts: lambda2 bits {:016x}", r.lambda2.to_bits());
    }

    if traced {
        layers(
            &nl,
            &tracer,
            &replays,
            &all_s,
            &untraced_s,
            &generate_s,
            report,
        );
        report.spans(tracer);
    }
}

/// Certificate checks on every solve, outside the timed region.
fn check(g: &Graph, nl: &CsrMatrix, results: &[FiedlerResult], report: &mut Report) {
    let v1 = trivial_eigenvector(g);
    for (i, r) in results.iter().enumerate() {
        let mut res = vec![0.0; g.n()];
        nl.matvec(&r.vector, &mut res);
        vector::axpy(-r.lambda2, &r.vector, &mut res);
        let residual = vector::norm2(&res);
        report.check(residual < RESIDUAL_BAR, || {
            format!("solve {i}: residual {residual:e} >= {RESIDUAL_BAR:e}")
        });
        let overlap = vector::dot(&r.vector, &v1).abs();
        report.check(overlap < 1e-10, || {
            format!("solve {i}: v2 not orthogonal to D^1/2 1 (overlap {overlap:e})")
        });
        // For a unit v, |vᵀ𝓛v − λ| = |vᵀ(𝓛v − λv)| ≤ ‖𝓛v − λv‖₂.
        let rayleigh = nl.quad_form(&r.vector);
        report.check((rayleigh - r.lambda2).abs() <= RESIDUAL_BAR, || {
            format!(
                "solve {i}: Rayleigh quotient {rayleigh} vs lambda2 {}",
                r.lambda2
            )
        });
        report.check(
            r.lambda2.to_bits() == results[0].lambda2.to_bits() && r.vector == results[0].vector,
            || format!("solve {i} differs from solve 0 on the same input"),
        );
    }
}

/// One replayed escalation: the Krylov dimension and eigen-residual of
/// each round, and the time of the rounds that missed the bar.
struct Replay {
    rounds: Vec<(usize, f64)>,
    lanczos_s: f64,
    tridiag_s: f64,
    ritz_lift_s: f64,
    wasted_s: f64,
    total_s: f64,
}

/// `smallest_eigenpairs`' start vector: its fixed LCG.
fn lcg_start(n: usize) -> Vec<f64> {
    let mut state = 0x9e3779b97f4a7c15u64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
        .collect()
}

/// Rerun `fiedler_vector`'s steps under spans parented to its e2e span.
fn replay(
    g: &Graph,
    tr: &mut Tracer,
    parent: usize,
    op: u64,
    solved: &FiedlerResult,
    report: &mut Report,
) -> Replay {
    let p = Some(parent);
    let n = g.n();
    tr.time("graph.is_connected", p, op, || is_connected(g));
    let ((nl, v1), _) = tr.time("spectral.laplacian", p, op, || {
        (normalized_laplacian(g), trivial_eigenvector(g))
    });
    let v0 = lcg_start(n);
    let mut krylov = (4 * (n as f64).ln() as usize + 40).min(n);
    let mut out = Replay {
        rounds: Vec::new(),
        lanczos_s: 0.0,
        tridiag_s: 0.0,
        ritz_lift_s: 0.0,
        wasted_s: 0.0,
        total_s: 0.0,
    };
    let (lambda2, mut v2) = loop {
        let k = krylov.max(3).min(n);
        let (res, l) = tr.time("linalg.lanczos", p, op, || {
            lanczos(&nl, &v0, k, std::slice::from_ref(&v1)).expect("lanczos on a valid operator")
        });
        let ((vals, vecs), ritz) = tr.time("linalg.ritz_pairs", p, op, || {
            res.ritz_pairs().expect("finite tridiagonal")
        });
        // A second `tridiag_eig`, under `ritz_pairs`, only to split its
        // time into the eigensolve and the lift.
        let (_, td) = tr.time("linalg.tridiag_eig", Some(ritz), op, || {
            tridiag_eig(&res.alpha, &res.beta)
        });
        let (residual, rs) = tr.time("exec.residual", p, op, || {
            let mut r = vec![0.0; n];
            nl.matvec(&vecs[0], &mut r);
            vector::axpy(-vals[0], &vecs[0], &mut r);
            vector::norm2(&r)
        });
        let secs = |i: usize| tr.spans()[i].secs();
        let round = secs(l) + secs(ritz) + secs(rs);
        out.lanczos_s += secs(l);
        out.tridiag_s += secs(td);
        out.ritz_lift_s += (secs(ritz) - secs(td)).max(0.0);
        out.total_s += round;
        out.rounds.push((k, residual));
        if residual < RESIDUAL_BAR || krylov >= n {
            break (vals[0], vecs[0].clone());
        }
        out.wasted_s += round;
        krylov = (krylov * 2).min(n);
    };
    tr.time("spectral.finalize", p, op, || {
        vector::deflate(&mut v2, &v1);
        vector::normalize2(&mut v2);
        nl.quad_form(&v2)
    });
    report.check(
        lambda2.to_bits() == solved.lambda2.to_bits() && v2 == solved.vector,
        || "replayed escalation differs from fiedler_vector".into(),
    );
    out
}

fn layers(
    nl: &CsrMatrix,
    tr: &Tracer,
    replays: &[Replay],
    all_s: &[f64],
    untraced_s: &[f64],
    generate_s: &[f64],
    report: &mut Report,
) {
    let Some(r) = replays.first() else {
        report.fail("traced run replayed no solve".into());
        return;
    };
    report.check(replays.iter().all(|x| x.rounds == r.rounds), || {
        "replays of the same solve took different Krylov rounds".into()
    });
    let per = |f: fn(&Replay) -> f64| median(&replays.iter().map(f).collect::<Vec<_>>());
    let k_final = r.rounds.last().map_or(0, |&(k, _)| k);
    let ks: Vec<String> = r
        .rounds
        .iter()
        .map(|(k, res)| format!("k={k} residual={res:e}"))
        .collect();
    println!("counts: krylov rounds [{}]", ks.join(", "));

    let n = nl.nrows();
    let x = lcg_start(n);
    let mut y = vec![0.0; n];
    let spmv: Vec<f64> = (0..SPMV_REPS)
        .map(|_| {
            let t = Instant::now();
            nl.matvec(std::hint::black_box(&x), &mut y);
            t.elapsed().as_secs_f64()
        })
        .collect();

    report.layer("spectral.fiedler_s", median(all_s));
    report.layer("spectral.restarts", (r.rounds.len() - 1) as f64);
    report.layer("spectral.krylov_final", k_final as f64);
    report.layer("linalg.lanczos_s", per(|r| r.lanczos_s));
    report.layer("linalg.tridiag_s", per(|r| r.tridiag_s));
    report.layer("linalg.ritz_lift_s", per(|r| r.ritz_lift_s));
    report.layer("linalg.wasted_share", per(|r| r.wasted_s / r.total_s));
    report.layer("exec.spmv_us", 1e6 * median(&spmv));
    report.layer(
        "exec.matvecs",
        r.rounds.iter().map(|&(k, _)| k).sum::<usize>() as f64,
    );
    report.layer("linalg.basis_mb", (k_final * n * 8) as f64 / 1e6);
    report.layer("graph.generate_s", median(generate_s));
    report.layer(
        "trace.unattributed_share_solve",
        tr.unattributed_share("spectral.fiedler_vector"),
    );
    let traced = median(&tr.secs_of("spectral.fiedler_vector"));
    report.layer("trace.overhead_share", traced / median(untraced_s) - 1.0);
}
