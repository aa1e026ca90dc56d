//! Lanczos tridiagonalization with full reorthogonalization.
//!
//! The paper (footnote 15) notes that "Lanczos algorithms look at a
//! subspace of vectors generated during the iteration" and are best viewed
//! as refinements of the Power Method. Here Lanczos serves two roles:
//!
//! * computing a few extreme eigenpairs of large sparse graph operators
//!   (the exact-but-scalable path for the Fiedler vector of §3.1);
//! * approximating matrix functions `f(A)·v` — in particular the heat
//!   kernel `exp(-tL)·v` — via the standard Krylov projection
//!   `f(A)v ≈ ‖v‖ · V_k f(T_k) e₁` (see [`crate::expm`]).
//!
//! Full reorthogonalization is used: robustness is worth its `O(n k²)`
//! cost. That cost is not small: the Fiedler escalation reaches Krylov
//! dimensions of several hundred on graphs of a few thousand nodes,
//! where the two Gram–Schmidt passes — each a dot sweep and a
//! subtraction sweep over the whole basis — dominate the run. Both
//! sweeps are blocked (eight directions per dot sweep, cache-sized
//! element blocks per subtraction) without reordering any floating-point
//! operation, so every result is bit-identical to the one-direction-at-a-
//! time loop at any thread count.
//!
//! **Resuming.** Steps `0..k` of a `k₁`-step run perform exactly the
//! arithmetic of a `k`-step run, so a [`LanczosResult`] privately keeps
//! its last reorthogonalized residual and can be extended to `k₁` steps,
//! bit-identically to a fresh `k₁`-step run. [`smallest_eigenpair_adaptive`]
//! grows its Krylov dimension this way instead of restarting from
//! scratch, and lifts only the Ritz vector it returns.

use crate::tridiag::tridiag_eig;
use crate::vector;
use crate::{LinOp, LinalgError, Result};
use acir_exec::ExecPool;
use acir_runtime::{
    Budget, Certificate, DivergenceCause, Exhaustion, GuardConfig, GuardVerdict, KernelCtx,
    RetryPolicy, SolverOutcome,
};

/// Below this many multiplied-out elements (`directions × vector length`)
/// a reorthogonalization sweep runs on one thread: the sweep is too small
/// to amortize worker spawn cost.
const PAR_MIN_REORTH: usize = 1 << 15;

/// Directions whose dot products with `w` one sweep accumulates
/// together. A single dot is a chain of dependent adds, bound by their
/// latency; eight independent chains keep the adder busy and read `w`
/// once per eight directions.
const DOT_BLOCK: usize = 8;

/// Elements of `w` (2 KiB) that the subtraction updates against every
/// direction before moving on, so the block stays in L1 while the
/// directions stream past it.
const SUB_BLOCK: usize = 256;

/// Seed of the start vector shared by the eigenpair drivers.
const START_SEED: u64 = 0x9e3779b97f4a7c15;

/// Deterministic pseudo-random start vector, uniform in `[-0.5, 0.5)`:
/// a fixed LCG stream from `seed` keeps the library dependency-free and
/// every result reproducible.
fn lcg_start(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
        .collect()
}

/// Full reorthogonalization sweep ("twice is enough"): two classical
/// Gram–Schmidt passes projecting `w` against the deflation directions
/// and the entire Lanczos basis. The deflated directions are re-projected
/// on every pass as well: without this, rounding lets a deflated
/// eigenvector (e.g. the trivial `D^{1/2}·1` of a normalized Laplacian)
/// drift back in and reappear as a ghost Ritz value near its eigenvalue.
///
/// Within a pass every projection coefficient is computed against the
/// *same* iterate (classical, not modified, Gram–Schmidt), so the dot
/// products are independent: one parallel region computes them eight
/// directions per task. A second region then subtracts the projections
/// one element block per task, applying the directions to each element
/// in fixed order. Each dot is accumulated left to right and each
/// element sees one rounded update per direction in direction order —
/// the arithmetic of `dot` then `axpy` per direction — so the result is
/// bit-identical at any thread count; the second pass mops up the
/// rounding the first leaves behind.
fn reorthogonalize(w: &mut [f64], deflate: &[Vec<f64>], basis: &[Vec<f64>]) {
    let dirs: Vec<&[f64]> = deflate
        .iter()
        .map(Vec::as_slice)
        .chain(basis.iter().map(Vec::as_slice))
        .collect();
    // Path choice depends on problem size alone, never on thread count.
    let pool = if dirs.len() * w.len() < PAR_MIN_REORTH {
        ExecPool::with_threads(1)
    } else {
        ExecPool::from_env()
    };
    reorthogonalize_on(&pool, w, &dirs);
}

/// The two passes of [`reorthogonalize`] on an explicit pool.
fn reorthogonalize_on(pool: &ExecPool, w: &mut [f64], dirs: &[&[f64]]) {
    let groups: Vec<&[&[f64]]> = dirs.chunks(DOT_BLOCK).collect();
    for _ in 0..2 {
        let iterate: &[f64] = w;
        let coeffs: Vec<f64> = pool
            .par_map(&groups, 1, |group| block_dots(iterate, group))
            .into_iter()
            .flatten()
            .take(dirs.len())
            .collect();
        pool.par_chunks_mut(w, SUB_BLOCK, |start, chunk| {
            for (b, block) in chunk.chunks_mut(SUB_BLOCK).enumerate() {
                subtract_block(block, start + b * SUB_BLOCK, dirs, &coeffs);
            }
        });
    }
}

/// Dot products of `w` with up to [`DOT_BLOCK`] directions in one sweep
/// (unused slots are 0). Each direction keeps its own accumulator, added
/// to left to right, so every coefficient is bit-identical to
/// `vector::dot(w, u)`.
fn block_dots(w: &[f64], group: &[&[f64]]) -> [f64; DOT_BLOCK] {
    let mut acc = [0.0f64; DOT_BLOCK];
    match <&[&[f64]; DOT_BLOCK]>::try_from(group) {
        Ok(full) => {
            let u: [&[f64]; DOT_BLOCK] = std::array::from_fn(|d| &full[d][..w.len()]);
            for (i, &wi) in w.iter().enumerate() {
                for (a, ud) in acc.iter_mut().zip(&u) {
                    *a += wi * ud[i];
                }
            }
        }
        Err(_) => {
            for (a, u) in acc.iter_mut().zip(group) {
                *a = vector::dot(w, u);
            }
        }
    }
    acc
}

/// `block ← block − Σ_d coeffs[d]·dirs[d]` on the element block that
/// starts at `start`, four directions per sweep. Every element sees the
/// rounded update `y + (−c)·u` of `vector::axpy(−c, u, w)` once per
/// direction, in direction order.
fn subtract_block(block: &mut [f64], start: usize, dirs: &[&[f64]], coeffs: &[f64]) {
    let span = start..start + block.len();
    let quads = dirs.len() - dirs.len() % 4;
    for (u, c) in dirs[..quads].chunks_exact(4).zip(coeffs.chunks_exact(4)) {
        let (a0, a1, a2, a3) = (-c[0], -c[1], -c[2], -c[3]);
        let lanes = block
            .iter_mut()
            .zip(&u[0][span.clone()])
            .zip(&u[1][span.clone()])
            .zip(&u[2][span.clone()])
            .zip(&u[3][span.clone()]);
        for ((((y, x0), x1), x2), x3) in lanes {
            *y = *y + a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3;
        }
    }
    for (u, c) in dirs[quads..].iter().zip(&coeffs[quads..]) {
        let a = -c;
        for (y, x) in block.iter_mut().zip(&u[span.clone()]) {
            *y += a * x;
        }
    }
}

/// Output of a Lanczos run.
#[derive(Debug, Clone)]
pub struct LanczosResult {
    /// Diagonal of the tridiagonal matrix `T_k` (length `k`).
    pub alpha: Vec<f64>,
    /// Off-diagonal of `T_k` (length `k-1`).
    pub beta: Vec<f64>,
    /// Orthonormal Lanczos basis, one vector per column-entry
    /// (`basis[j]` is the j-th Krylov vector, length `n`).
    pub basis: Vec<Vec<f64>>,
    /// True if the iteration terminated because the Krylov space became
    /// invariant (lucky breakdown) before reaching the requested size.
    pub breakdown: bool,
    /// The last step's reorthogonalized residual, whose norm is the next
    /// off-diagonal: where `extend` resumes. `None` once the run cannot
    /// continue (breakdown, budget exhaustion or divergence).
    resume: Option<Vec<f64>>,
}

/// How a stretch of the recurrence ended.
enum Exit {
    Done,
    Diverged(DivergenceCause),
    Exhausted(Exhaustion, f64),
}

impl LanczosResult {
    /// Krylov dimension actually reached.
    pub fn k(&self) -> usize {
        self.alpha.len()
    }

    /// Ritz pairs: eigenvalues of `T_k` (ascending) and the corresponding
    /// Ritz vectors `V_k y` lifted back to `R^n`.
    pub fn ritz_pairs(&self) -> Result<(Vec<f64>, Vec<Vec<f64>>)> {
        self.lowest_ritz_pairs(self.k())
    }

    /// The `m` smallest Ritz pairs (all of them if `m ≥ k`): one
    /// `tridiag_eig`, but only the wanted vectors are lifted. Each vector
    /// is lifted on its own, so it is bit-identical to its counterpart
    /// from [`ritz_pairs`](Self::ritz_pairs).
    fn lowest_ritz_pairs(&self, m: usize) -> Result<(Vec<f64>, Vec<Vec<f64>>)> {
        let t = tridiag_eig(&self.alpha, &self.beta)?;
        let m = m.min(self.k());
        let n = self.basis.first().map_or(0, Vec::len);
        let vecs = (0..m)
            .map(|col| {
                let mut v = vec![0.0; n];
                for (j, basis_j) in self.basis.iter().enumerate() {
                    vector::axpy(t.eigenvectors[(j, col)], basis_j, &mut v);
                }
                v
            })
            .collect();
        let mut vals = t.eigenvalues;
        vals.truncate(m);
        Ok((vals, vecs))
    }

    /// Continue the run to Krylov dimension `k` (clamped to `n`) on the
    /// operator and deflation set it was started with. The new steps
    /// perform exactly the arithmetic a fresh `k`-step run performs
    /// there, so the result is bit-identical to one. A no-op once the
    /// run has `k` steps or cannot continue (a breakdown stays one).
    pub(crate) fn extend(&mut self, op: &dyn LinOp, k: usize, deflate: &[Vec<f64>]) {
        match self.recur(op, k.min(op.dim()), deflate, &mut KernelCtx::new()) {
            Exit::Done => {}
            _ => unreachable!("an inert context can neither exhaust nor diverge"),
        }
    }

    /// Steps `self.k()..k` of the recurrence. Step `j > 0` first
    /// normalizes the residual left by step `j − 1` into `q_j`, so a run
    /// that stops at `k` steps leaves exactly the state a longer run
    /// continues from.
    fn recur(
        &mut self,
        op: &dyn LinOp,
        k: usize,
        deflate: &[Vec<f64>],
        ctx: &mut KernelCtx,
    ) -> Exit {
        let Some(mut w) = self.resume.take() else {
            return Exit::Done;
        };
        // CORE LOOP
        for j in self.k()..k {
            if j > 0 {
                let b = vector::norm2(&w);
                // The residual of the tridiagonalization *is* the off-diagonal.
                ctx.push_residual(b);
                if b < 1e-12 {
                    self.breakdown = true;
                    ctx.note_with(|| {
                        format!("lucky breakdown at step {}: invariant subspace", j - 1)
                    });
                    return Exit::Done;
                }
                ctx.tick_iter();
                if let Some(exhausted) = ctx.add_work(1) {
                    return Exit::Exhausted(exhausted, b);
                }
                self.beta.push(b);
                let mut next = w.clone();
                vector::scale(1.0 / b, &mut next);
                self.basis.push(next);
            }
            op.apply(&self.basis[j], &mut w);
            if let GuardVerdict::Halt(cause) = ctx.check_iterate(&w, j) {
                return Exit::Diverged(cause);
            }
            for u in deflate {
                vector::deflate(&mut w, u);
            }
            let a_j = vector::dot(&self.basis[j], &w);
            self.alpha.push(a_j);
            vector::axpy(-a_j, &self.basis[j], &mut w);
            if j > 0 {
                vector::axpy(-self.beta[j - 1], &self.basis[j - 1], &mut w);
            }
            reorthogonalize(&mut w, deflate, &self.basis);
        }
        self.resume = Some(w);
        Exit::Done
    }
}

/// Run `k` steps of Lanczos on symmetric operator `op` from seed `v0`,
/// deflating the unit-norm directions in `deflate` from every iterate.
///
/// Errors if the seed is zero after deflation or dimensions mismatch.
pub fn lanczos(
    op: &dyn LinOp,
    v0: &[f64],
    k: usize,
    deflate: &[Vec<f64>],
) -> Result<LanczosResult> {
    let mut ctx = KernelCtx::new();
    match lanczos_ctx(op, v0, k, deflate, &mut ctx)? {
        SolverOutcome::Converged { value, .. } => Ok(value),
        _ => unreachable!("an inert context can neither exhaust nor diverge"),
    }
}

/// Lanczos against an explicit [`KernelCtx`]: the unified entry point
/// that every legacy variant wraps. The Krylov dimension `k` always
/// bounds the run; a metered context can additionally cut it short.
pub fn lanczos_ctx(
    op: &dyn LinOp,
    v0: &[f64],
    k: usize,
    deflate: &[Vec<f64>],
    ctx: &mut KernelCtx,
) -> Result<SolverOutcome<LanczosResult>> {
    let _spmv = ctx.spmv_scope();
    let n = op.dim();
    if v0.len() != n {
        return Err(LinalgError::DimensionMismatch {
            expected: n,
            found: v0.len(),
        });
    }
    if k == 0 {
        return Err(LinalgError::InvalidArgument("k must be positive"));
    }
    let k = k.min(n);

    let mut q = v0.to_vec();
    for u in deflate {
        vector::deflate(&mut q, u);
    }
    if vector::normalize2(&mut q) < 1e-300 {
        return Err(LinalgError::InvalidArgument(
            "seed vector is zero after deflation",
        ));
    }

    let mut res = LanczosResult {
        alpha: Vec::with_capacity(k),
        beta: Vec::with_capacity(k.saturating_sub(1)),
        basis: vec![q],
        breakdown: false,
        resume: Some(vec![0.0; n]),
    };
    let exit = res.recur(op, k, deflate, ctx);
    let diags = ctx.finish();
    Ok(match exit {
        Exit::Diverged(cause) => SolverOutcome::diverged(cause, diags),
        Exit::Exhausted(exhausted, b_j) => SolverOutcome::exhausted(
            res,
            exhausted,
            Certificate::ResidualNorm { value: b_j },
            diags,
        ),
        Exit::Done => SolverOutcome::converged(res, diags),
    })
}

/// Lanczos under an explicit resource [`Budget`], with contamination
/// guards and a structured [`SolverOutcome`].
///
/// Each Lanczos step costs one iteration and one work unit (its
/// matvec). On budget exhaustion the partial tridiagonalization built
/// so far is returned with a [`Certificate::ResidualNorm`] carrying the
/// last off-diagonal `β_j`: by the standard Lanczos residual bound,
/// every Ritz value of the partial `T_j` lies within `β_j` of a true
/// eigenvalue of the operator. NaN/Inf contamination of a Krylov vector
/// yields [`SolverOutcome::Diverged`]. A *lucky* breakdown (invariant
/// subspace found early) is convergence, exactly as in [`lanczos`].
pub fn lanczos_budgeted(
    op: &dyn LinOp,
    v0: &[f64],
    k: usize,
    deflate: &[Vec<f64>],
    budget: &Budget,
) -> Result<SolverOutcome<LanczosResult>> {
    // The guard is consulted only for NaN/Inf scans of each Krylov
    // vector — Lanczos off-diagonals may legitimately plateau.
    let mut ctx =
        KernelCtx::budgeted("linalg.lanczos", budget).with_guard(GuardConfig::contamination_only());
    lanczos_ctx(op, v0, k, deflate, &mut ctx)
}

/// Budgeted, retrying version of [`smallest_eigenpairs`]: computes the
/// `m` smallest eigenpairs under `budget`, escalating through restarts
/// with freshly perturbed seeds when the Krylov space collapses below
/// `m` dimensions (a *structural* breakdown — the seed was too poor to
/// span enough of the spectrum) or the run diverges.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvalues ascending,
/// wrapped in the outcome of the final attempt.
#[allow(clippy::type_complexity)]
pub fn smallest_eigenpairs_resilient(
    op: &dyn LinOp,
    m: usize,
    krylov: usize,
    deflate: &[Vec<f64>],
    budget: &Budget,
    policy: &RetryPolicy,
) -> Result<SolverOutcome<(Vec<f64>, Vec<Vec<f64>>)>> {
    let n = op.dim();
    if m == 0 || m > n {
        return Err(LinalgError::InvalidArgument("need 0 < m <= n"));
    }
    let k = krylov.max(3 * m).min(n);
    let outcome = policy.run(|attempt| {
        // A different deterministic seed per attempt: the LCG stream is
        // offset so retries explore a genuinely different direction.
        let v0 = lcg_start(n, START_SEED ^ ((attempt as u64) << 32 | 0x51_7cc1));
        let out = lanczos_budgeted(op, &v0, k, deflate, budget)?;
        // A collapsed Krylov space that cannot yield m pairs is a
        // breakdown worth retrying with a new seed.
        Ok(match out {
            SolverOutcome::Converged { value, diagnostics } if value.k() < m => {
                let at_iter = value.k();
                SolverOutcome::diverged(
                    DivergenceCause::Breakdown {
                        at_iter,
                        what: "Krylov space collapsed below the requested pair count",
                    },
                    diagnostics,
                )
            }
            other => other,
        })
    })?;

    // Lift the surviving tridiagonalization to Ritz pairs.
    Ok(match outcome {
        SolverOutcome::Converged { value, diagnostics } => SolverOutcome::Converged {
            value: value.lowest_ritz_pairs(m)?,
            diagnostics,
        },
        SolverOutcome::BudgetExhausted {
            best_so_far,
            exhausted,
            certificate,
            diagnostics,
        } => SolverOutcome::BudgetExhausted {
            best_so_far: best_so_far.lowest_ritz_pairs(m)?,
            exhausted,
            certificate,
            diagnostics,
        },
        SolverOutcome::Diverged {
            at_iter,
            cause,
            diagnostics,
        } => SolverOutcome::Diverged {
            at_iter,
            cause,
            diagnostics,
        },
    })
}

/// Compute the `m` smallest eigenpairs of a symmetric operator via
/// Lanczos with a random-ish deterministic seed, deflating `deflate`.
///
/// `krylov` is the Krylov dimension (clamped to `[3m, n]`); accuracy
/// improves with larger values. Returns `(eigenvalues, eigenvectors)`
/// with eigenvalues ascending.
pub fn smallest_eigenpairs(
    op: &dyn LinOp,
    m: usize,
    krylov: usize,
    deflate: &[Vec<f64>],
) -> Result<(Vec<f64>, Vec<Vec<f64>>)> {
    let n = op.dim();
    if m == 0 || m > n {
        return Err(LinalgError::InvalidArgument("need 0 < m <= n"));
    }
    let k = krylov.max(3 * m).min(n);
    lanczos(op, &lcg_start(n, START_SEED), k, deflate)?.lowest_ritz_pairs(m)
}

/// The smallest eigenpair `(θ, v)` of a symmetric operator, deflating
/// `deflate`, grown until its eigen-residual `‖op·v − θv‖₂` is below
/// `tol`.
///
/// Starts like `smallest_eigenpairs(op, 1, krylov, deflate)` — same
/// seed, Krylov dimension `krylov` clamped to `[3, n]` — and while the
/// residual misses `tol`, doubles the dimension by *resuming* the run
/// instead of restarting it. A resumed run is bit-identical to a fresh
/// one, so each round returns exactly what `smallest_eigenpairs` would
/// at that dimension, for the cost of the new steps only; and only the
/// wanted Ritz vector is lifted. Gives up growing at dimension `n`: the
/// pair returned from there may miss `tol`, so a caller that needs the
/// bound re-checks it.
pub fn smallest_eigenpair_adaptive(
    op: &dyn LinOp,
    krylov: usize,
    deflate: &[Vec<f64>],
    tol: f64,
) -> Result<(f64, Vec<f64>)> {
    let n = op.dim();
    if n == 0 {
        return Err(LinalgError::InvalidArgument("empty operator"));
    }
    let mut krylov = krylov.max(3).min(n);
    let mut res = lanczos(op, &lcg_start(n, START_SEED), krylov, deflate)?;
    let mut r = vec![0.0; n];
    loop {
        let (vals, mut vecs) = res.lowest_ritz_pairs(1)?;
        let (theta, v) = (vals[0], vecs.swap_remove(0));
        op.apply(&v, &mut r);
        vector::axpy(-theta, &v, &mut r);
        if vector::norm2(&r) < tol || krylov >= n {
            return Ok((theta, v));
        }
        krylov = (krylov * 2).min(n);
        res.extend(op, krylov, deflate);
    }
}

/// Estimate the spectral interval `[λmin, λmax]` of a symmetric
/// operator from a `k`-step Lanczos run (extreme Ritz values, padded by
/// the final residual norm so the true spectrum is contained whp).
///
/// The standard way to pick the Chebyshev interval for
/// [`crate::chebyshev`] when `λmax` is not known analytically.
pub fn spectral_interval(op: &dyn LinOp, k: usize) -> Result<(f64, f64)> {
    let n = op.dim();
    if n == 0 {
        return Err(LinalgError::InvalidArgument("empty operator"));
    }
    let res = lanczos(op, &lcg_start(n, 0xdeadbeefcafef00d), k.max(2), &[])?;
    let te = tridiag_eig(&res.alpha, &res.beta)?;
    let lo = te.eigenvalues[0];
    let hi = *te.eigenvalues.last().unwrap();
    // Pad by the last off-diagonal (residual) so the interval brackets
    // the true extremes even when Lanczos hasn't fully converged.
    let pad = res.beta.last().copied().unwrap_or(0.0).abs();
    Ok((lo - pad, hi + pad))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;
    use crate::sparse::CsrMatrix;
    use proptest::prelude::*;

    /// Path-graph combinatorial Laplacian as CSR.
    fn path_laplacian(n: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n - 1 {
            t.push((i, i, 1.0));
            t.push((i + 1, i + 1, 1.0));
            t.push((i, i + 1, -1.0));
            t.push((i + 1, i, -1.0));
        }
        CsrMatrix::from_triplets(n, n, t)
    }

    #[test]
    fn full_krylov_recovers_exact_spectrum() {
        let n = 12;
        let l = path_laplacian(n);
        let res = lanczos(
            &l,
            &vec![1.0; n]
                .iter()
                .enumerate()
                .map(|(i, _)| (i as f64 + 1.0).sin())
                .collect::<Vec<_>>(),
            n,
            &[],
        )
        .unwrap();
        let (vals, vecs) = res.ritz_pairs().unwrap();
        for (k, &lam) in vals.iter().enumerate() {
            let expected = 2.0 - 2.0 * (std::f64::consts::PI * k as f64 / n as f64).cos();
            assert!((lam - expected).abs() < 1e-8, "k={k}: {lam} vs {expected}");
        }
        // Ritz vectors are true eigenvectors at full dimension.
        for (lam, v) in vals.iter().zip(&vecs) {
            let mut lv = vec![0.0; n];
            l.matvec(v, &mut lv);
            let mut r = lv;
            vector::axpy(-lam, v, &mut r);
            assert!(vector::norm2(&r) < 1e-7);
        }
    }

    #[test]
    fn basis_is_orthonormal() {
        let n = 20;
        let l = path_laplacian(n);
        let seed: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
        let res = lanczos(&l, &seed, 10, &[]).unwrap();
        for i in 0..res.basis.len() {
            for j in 0..res.basis.len() {
                let d = vector::dot(&res.basis[i], &res.basis[j]);
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((d - expected).abs() < 1e-10, "({i},{j}): {d}");
            }
        }
    }

    #[test]
    fn deflation_excludes_nullspace() {
        let n = 10;
        let l = path_laplacian(n);
        // Constant vector spans the null space of the path Laplacian.
        let ones_unit = vec![1.0 / (n as f64).sqrt(); n];
        let (vals, _) = smallest_eigenpairs(&l, 1, n, &[ones_unit]).unwrap();
        // Smallest *nontrivial* eigenvalue: 2 − 2cos(π/n).
        let expected = 2.0 - 2.0 * (std::f64::consts::PI / n as f64).cos();
        assert!(
            (vals[0] - expected).abs() < 1e-8,
            "{} vs {expected}",
            vals[0]
        );
    }

    #[test]
    fn lucky_breakdown_on_invariant_subspace() {
        // Seed is an exact eigenvector of a diagonal matrix: the Krylov
        // space is 1-dimensional.
        let a = DenseMatrix::from_diag(&[1.0, 2.0, 3.0]);
        let res = lanczos(&a, &[0.0, 1.0, 0.0], 3, &[]).unwrap();
        assert!(res.breakdown);
        assert_eq!(res.k(), 1);
        assert!((res.alpha[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn argument_validation() {
        let a = DenseMatrix::identity(3);
        assert!(lanczos(&a, &[1.0], 2, &[]).is_err());
        assert!(lanczos(&a, &[1.0, 1.0, 1.0], 0, &[]).is_err());
        assert!(lanczos(&a, &[0.0, 0.0, 0.0], 2, &[]).is_err());
        assert!(smallest_eigenpairs(&a, 0, 3, &[]).is_err());
        assert!(smallest_eigenpairs(&a, 4, 3, &[]).is_err());
    }

    #[test]
    fn spectral_interval_brackets_true_spectrum() {
        let n = 20;
        let l = path_laplacian(n);
        let (lo, hi) = spectral_interval(&l, 15).unwrap();
        // Path Laplacian spectrum ⊂ [0, 4).
        assert!(lo <= 1e-6, "lo = {lo}");
        assert!(hi >= 2.0 - 2.0 * (std::f64::consts::PI * (n - 1) as f64 / n as f64).cos() - 1e-6);
        assert!(hi < 8.0, "padding should stay sane: hi = {hi}");
        let empty_err = spectral_interval(&DenseMatrix::zeros(0, 0), 5);
        assert!(empty_err.is_err());
    }

    #[test]
    fn budgeted_full_run_matches_plain() {
        let n = 12;
        let l = path_laplacian(n);
        let seed: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
        let out = lanczos_budgeted(&l, &seed, 8, &[], &Budget::unlimited()).unwrap();
        assert!(out.is_converged());
        let plain = lanczos(&l, &seed, 8, &[]).unwrap();
        let got = out.value().unwrap();
        assert_eq!(got.alpha.len(), plain.alpha.len());
        for (a, b) in got.alpha.iter().zip(&plain.alpha) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn budgeted_exhaustion_certificate_brackets_spectrum() {
        let n = 40;
        let l = path_laplacian(n);
        let seed: Vec<f64> = (0..n).map(|i| ((i as f64) + 0.5).sin()).collect();
        let out = lanczos_budgeted(&l, &seed, n, &[], &Budget::iterations(6)).unwrap();
        assert!(!out.is_converged() && out.is_usable());
        let cert_slack = out.certificate().unwrap().slack();
        let partial = out.value().unwrap();
        // Every Ritz value of the partial T must be within β (the
        // certificate) of a true eigenvalue λ_k = 2 − 2cos(πk/n).
        let (ritz, _) = partial.ritz_pairs().unwrap();
        for theta in &ritz {
            let nearest = (0..n)
                .map(|k| 2.0 - 2.0 * (std::f64::consts::PI * k as f64 / n as f64).cos())
                .map(|lam| (lam - theta).abs())
                .fold(f64::INFINITY, f64::min);
            assert!(
                nearest <= cert_slack + 1e-9,
                "ritz {theta} is {nearest} from spectrum, certificate {cert_slack}"
            );
        }
    }

    #[test]
    fn budgeted_detects_poisoned_operator() {
        let n = 10;
        let l = path_laplacian(n);
        let faulty = crate::fault::FaultyOp::new(
            &l,
            acir_runtime::FaultConfig::nans(1.0).after_clean_applies(3),
        );
        let seed: Vec<f64> = (0..n).map(|i| (i as f64 + 0.5).sin()).collect();
        let out = lanczos_budgeted(&faulty, &seed, n, &[], &Budget::unlimited()).unwrap();
        assert!(!out.is_usable());
    }

    #[test]
    fn resilient_eigenpairs_match_plain_path() {
        let n = 16;
        let l = path_laplacian(n);
        let out = smallest_eigenpairs_resilient(
            &l,
            3,
            n,
            &[],
            &Budget::unlimited(),
            &RetryPolicy::default(),
        )
        .unwrap();
        assert!(out.is_converged());
        let (vals, _) = out.value().unwrap();
        for (k, v) in vals.iter().enumerate() {
            let expected = 2.0 - 2.0 * (std::f64::consts::PI * k as f64 / n as f64).cos();
            assert!((v - expected).abs() < 1e-7, "k={k}");
        }
    }

    /// The one-direction-at-a-time sweep — a verbatim copy of the kernel
    /// before blocking — kept as the bit-identity reference for
    /// [`reorthogonalize`].
    fn reorthogonalize_reference(w: &mut [f64], deflate: &[Vec<f64>], basis: &[Vec<f64>]) {
        let dirs: Vec<&[f64]> = deflate
            .iter()
            .map(Vec::as_slice)
            .chain(basis.iter().map(Vec::as_slice))
            .collect();
        let pool = if dirs.len() * w.len() < PAR_MIN_REORTH {
            ExecPool::with_threads(1)
        } else {
            ExecPool::from_env()
        };
        for _ in 0..2 {
            let coeffs = pool.par_map(&dirs, 1, |u| vector::dot(w, u));
            for (u, c) in dirs.iter().zip(&coeffs) {
                vector::axpy(-c, u, w);
            }
        }
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Deterministic pseudo-random entries in `[-1, 1)` from `seed`.
    fn noise(len: usize, seed: u64) -> Vec<f64> {
        lcg_start(len, seed).into_iter().map(|x| 2.0 * x).collect()
    }

    /// A dense random symmetric operator of order `n`.
    fn random_symmetric(n: usize, seed: u64) -> DenseMatrix {
        let r = noise(n * n, seed);
        DenseMatrix::from_fn(n, n, |i, j| 0.5 * (r[i * n + j] + r[j * n + i]))
    }

    fn assert_same_run(a: &LanczosResult, b: &LanczosResult) {
        assert_eq!(bits(&a.alpha), bits(&b.alpha), "alpha");
        assert_eq!(bits(&a.beta), bits(&b.beta), "beta");
        assert_eq!(a.basis.len(), b.basis.len(), "basis length");
        for (j, (u, v)) in a.basis.iter().zip(&b.basis).enumerate() {
            assert_eq!(bits(u), bits(v), "basis[{j}]");
        }
        assert_eq!(a.breakdown, b.breakdown, "breakdown");
    }

    #[test]
    fn blocked_reorthogonalization_matches_reference_across_the_parallel_cutoff() {
        // (directions, length): below and above PAR_MIN_REORTH, with
        // direction counts off the 8- and 4-blocking and lengths off
        // the 256-element subtraction block.
        for &(dirs, n) in &[(1, 7), (9, 300), (13, 2_600), (40, 1_500), (67, 777)] {
            let basis: Vec<Vec<f64>> = (0..dirs).map(|d| noise(n, 11 + d as u64)).collect();
            let deflate = vec![noise(n, 5)];
            let w0 = noise(n, 3);
            let mut want = w0.clone();
            reorthogonalize_reference(&mut want, &deflate, &basis);
            let mut got = w0.clone();
            reorthogonalize(&mut got, &deflate, &basis);
            assert_eq!(bits(&got), bits(&want), "dirs={dirs} n={n}");
            // Any thread count gives the same bits.
            let all: Vec<&[f64]> = deflate.iter().chain(&basis).map(Vec::as_slice).collect();
            for threads in [1, 2, 3] {
                let mut on = w0.clone();
                reorthogonalize_on(&ExecPool::with_threads(threads), &mut on, &all);
                assert_eq!(
                    bits(&on),
                    bits(&want),
                    "dirs={dirs} n={n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn lucky_breakdown_survives_extension() {
        // The seed spans two eigenvectors of a diagonal matrix: the
        // Krylov space is 2-dimensional, whatever is asked for.
        let a = DenseMatrix::from_diag(&[1.0, 2.0, 3.0, 4.0]);
        let seed = [0.0, 1.0, 0.0, 1.0];
        let fresh = lanczos(&a, &seed, 4, &[]).unwrap();
        assert!(fresh.breakdown);
        assert_eq!(fresh.k(), 2);
        let mut grown = lanczos(&a, &seed, 1, &[]).unwrap();
        assert!(!grown.breakdown);
        grown.extend(&a, 4, &[]);
        assert_same_run(&grown, &fresh);
        // Once broken down, extending is a no-op that keeps the flag.
        let before = grown.clone();
        grown.extend(&a, 4, &[]);
        assert_same_run(&grown, &before);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_blocked_reorthogonalization_is_bit_identical(
            dirs in 0usize..40,
            n in 1usize..600,
            deflated in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            let basis: Vec<Vec<f64>> =
                (0..dirs).map(|d| noise(n, seed ^ (d as u64 + 1) << 20)).collect();
            let deflate: Vec<Vec<f64>> =
                (0..deflated).map(|d| noise(n, seed ^ (d as u64 + 101) << 20)).collect();
            let w0 = noise(n, seed);
            let mut want = w0.clone();
            reorthogonalize_reference(&mut want, &deflate, &basis);
            let mut got = w0;
            reorthogonalize(&mut got, &deflate, &basis);
            prop_assert_eq!(bits(&got), bits(&want));
        }

        #[test]
        fn prop_extended_run_equals_fresh_run(
            n in 2usize..40,
            k0 in 1usize..40,
            k1 in 1usize..44,
            with_deflation in 0usize..2,
            seed in 0u64..1_000_000,
        ) {
            let a = random_symmetric(n, seed);
            let v0 = noise(n, seed + 7);
            let deflate: Vec<Vec<f64>> = if with_deflation == 1 {
                let mut u = noise(n, seed + 13);
                vector::normalize2(&mut u);
                vec![u]
            } else {
                vec![]
            };
            let (k0, k1) = (k0.min(k1), k0.max(k1));
            let fresh = lanczos(&a, &v0, k1, &deflate).unwrap();
            let mut grown = lanczos(&a, &v0, k0, &deflate).unwrap();
            grown.extend(&a, k1, &deflate);
            assert_same_run(&grown, &fresh);
            // Extending in two hops lands on the same bits too.
            let mut hops = lanczos(&a, &v0, k0, &deflate).unwrap();
            hops.extend(&a, (k0 + k1) / 2, &deflate);
            hops.extend(&a, k1, &deflate);
            assert_same_run(&hops, &fresh);
        }
    }

    #[test]
    fn smallest_eigenpairs_matches_jacobi() {
        let n = 16;
        let l = path_laplacian(n);
        let (vals, vecs) = smallest_eigenpairs(&l, 3, n, &[]).unwrap();
        let dense = l.to_dense();
        let eig = crate::jacobi::SymEig::new(&dense).unwrap();
        for i in 0..3 {
            assert!((vals[i] - eig.eigenvalues[i]).abs() < 1e-7, "i={i}");
            assert!(vector::alignment(&vecs[i], &eig.eigenvector(i)) > 1.0 - 1e-6);
        }
    }
}
