"""Executable diagnostics: limit characterization, l1-gap bounds, linear-rate
certificates, and the unstable-stepsize construction.

The central objects are the limit of the exponential-update solver (the
entropy projection of the starting point onto the solution set), the gap
between its l1 norm and the l1-minimal solution, and the contraction factors
that certify linear convergence when the limit stays away from the boundary.
The projection is damped Newton on its m-dimensional dual; it converges or
raises an error that names why it stopped.  The limit's KKT residual and the
l1 oracle, a dense simplex with a pivot cap, are exact and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .bregman import WBranch, bregman_divergence, lambert_w, ymin_lower_bound
from .errors import ConvergenceError, DimensionMismatch, DomainError
from .linalg import (
    as_vector,
    kernel_projector,
    lambda_max_scaled_gram,
    max_col_norm_sq,
    smaller_gram,
    smallest_positive_eigenvalue,
    vector_norm,
)
# solve is not called here; perfbench's tracer patches it in this module
from .solvers import ProblemInstance, _exp_update, _whole, solve  # noqa: F401

__all__ = [
    "BiasReport",
    "RateCertificate",
    "InstabilityInstance",
    "OrthogonalityCheck",
    "WorstCaseInstance",
    "bregman_projection",
    "orthogonality_residual",
    "l1_gap_identity_residual",
    "slow_bound",
    "improved_bound",
    "worst_case_construction",
    "rate_certificate",
    "instability_construction",
    "instability_escape_distance",
    "sublinear_bound_curve",
    "l1_minimal_solution",
    "bias_report",
]

# Residual-norm tolerance whose squared half is 1e-24, the default
# projection accuracy.
DEFAULT_PROJECTION_TOL = 1.4142135623730951e-12

_ARMIJO = 1e-4  # sufficient-decrease fraction of the Newton line search
# Line-search halvings before Newton gives up: t runs from 1 down past
# 2^-1074, the smallest positive double, so a tiny start, whose direction can
# have max |A^T d| ~ 1e32, still finds its step
_HALVINGS = 1100
# smallest normal double: below it a trial entry is taken from theta = log x
_TINY = float(np.finfo(float).tiny)

# Pivot cap of the l1 oracle per row plus column of A.  On gen_instance draws
# the simplex took at most 0.70 (m + n) pivots at 8x12, 1.18 at 60x100 and
# 1.30 at 120x200, and 3.15-5.14 at the paper's 300x500 (seeds 0-4, sparsity
# 30; 0.5-0.9 s on one core of a 2-core Xeon, one k = 1 BLAS product per
# pivot), well inside 25.
_LP_PIVOTS_PER_DIM = 25
_LP_TOL = 1e-9  # pivot and reduced-cost tolerance; rows are scaled to max |a_ij| = 1


class OrthogonalityCheck(NamedTuple):
    """Result of the limit-characterization test; residual 0 with
    ``kernel_trivial`` set means no other solution has x*'s support."""

    residual: float
    kernel_trivial: bool


@dataclass(eq=False)
class BiasReport:
    """Summary of the sparsity bias of one solve: the limit, how well it
    satisfies the orthogonality characterization, and the l1-gap bounds."""

    eta: float
    limit: np.ndarray
    orthogonality_residual: float
    kernel_trivial: bool
    exact_gap: float | None
    slow_bound: float | None
    improved_bound: float | None
    l1_minimal: np.ndarray | None


@dataclass(eq=False)
class RateCertificate:
    """Per-iteration contraction factors for strictly positive solutions."""

    lambda_min_plus: float
    z_min: float
    max_col_sq: float
    z_l1: float
    global_factor_fn: Callable[[float], float]
    local_factor: float


@dataclass(eq=False)
class InstabilityInstance:
    """A rescaled problem on which a given constant stepsize is provably
    unstable at the planted solution (Jacobian spectral radius 2)."""

    base: ProblemInstance
    alpha: float
    t_scale: float
    scaled: ProblemInstance
    jacobian_spectrum_bound: float


@dataclass(eq=False)
class WorstCaseInstance:
    """A two-vertex system whose l1 gap nearly attains the upper bound."""

    problem: ProblemInstance
    x_star: np.ndarray
    z: np.ndarray
    expected_gap: float


def _start_scale(eta: float) -> float:
    """exp(-eta), the entries of the start exp(-eta) * ones; DomainError unless it is finite and positive."""
    try:
        scale = math.exp(-eta)
    except OverflowError:
        raise DomainError(f"exp(-eta) overflows for eta={eta!r}") from None
    if not 0.0 < scale < math.inf:  # underflow to 0, nan, or eta = -inf
        raise DomainError(f"the start exp(-eta) = {scale!r} must be finite and positive, eta={eta!r}")
    return scale


def _newton_direction(h: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solution d of h d = r; least squares where h is singular, which leaves
    ``solve`` either failing or returning a direction without r^T d > 0."""
    try:
        d = np.linalg.solve(h, r)
        if float(r @ d) > 0.0:
            return d
    except np.linalg.LinAlgError:
        pass
    return np.linalg.lstsq(h, r, rcond=None)[0]


def _dual_newton(p: ProblemInstance, x: np.ndarray, f_tol: float, steps: int) -> tuple[np.ndarray, int]:
    """Damped Newton on the dual of the entropy projection of the start ``x``.

    The dual is psi(lam) = sum_i x_i exp((A^T lam)_i) - b^T lam; its gradient
    is A x(lam) - b with x(lam) = x exp(A^T lam), its Hessian A diag(x(lam)) A^T.
    Each step solves for the direction d, then halves t from 1 until the trial
    x exp(s), s = t A^T d, is finite and psi falls by at least ``_ARMIJO`` t r^T d
    (r = b - A x).  The fall is sum_i x_i (expm1(s_i) - s_i) - t r^T d, free of
    the cancellation in psi itself.  theta = log x rides along: a trial entry
    below the smallest normal double is exp(theta_i + s_i), so an entry keeps
    its exponent through the subnormals and can come back from 0.0; while some
    x_i is not normal, its term is x_t,i - x_i (1 + s_i).

    Returns x with f <= f_tol and the steps taken, at most ``steps``.  Raises
    ConvergenceError naming why Newton stopped short (a non-finite residual
    or Hessian, r^T d <= 0 at the rounding floor, no admissible step, the
    step budget) or that it converged with an entry at 0.0, on the boundary.
    A stop with entries of x below the smallest normal double also names
    their count and min x: a start below about exp(-708) stops at step 0 on
    the rounding floor of a Hessian formed from subnormals.
    """
    a, b = p.a, p.b
    with np.errstate(all="ignore"):
        theta = np.log(x)
        r = b - a @ x
        for k in range(steps + 1):
            f = 0.5 * float(r @ r)
            if f <= f_tol:
                zeros = np.count_nonzero(x == 0.0)
                if zeros:
                    raise ConvergenceError(
                        f"projection reached f = {f:g} <= {f_tol:g} in {k} Newton steps with {zeros} entries "
                        "underflowed to 0.0: the limit is on the boundary")
                return x, k
            if k == steps:
                cause = "the step budget ran out"
                break
            if not f < math.inf:
                cause = "the residual is not finite"
                break
            h = (a * x) @ a.T
            if not np.isfinite(h).all():
                cause = "the Hessian A diag(x) A^T is not finite"
                break
            d = _newton_direction(h, r)
            slope = float(r @ d)
            if not slope > 0.0:
                cause = "r^T d <= 0, the rounding floor"
                break
            u = a.T @ d
            normal = _TINY <= x.min()
            t = 1.0
            for _ in range(_HALVINGS):
                s = t * u
                x_t = x * np.exp(s)
                if normal:
                    decrease = float(x @ (np.expm1(s) - s))
                else:
                    x_t = np.where(x_t >= _TINY, x_t, np.exp(theta + s))
                    decrease = float(np.sum(np.where(x < _TINY, x_t - x * (1.0 + s), x * (np.expm1(s) - s))))
                if decrease <= (1.0 - _ARMIJO) * t * slope and x_t.max() < math.inf:
                    break
                t *= 0.5
            else:
                cause = "no step passes the line search"
                break
            x = np.where(x_t >= _TINY, x_t, np.exp(theta + s))
            theta += s
            r = b - a @ x
    low = np.count_nonzero(x < _TINY)
    if low:
        cause += (f", with {low} entries of x below the smallest normal double (min x = {float(x.min()):g}), "
                  "from which A diag(x) A^T loses its precision")
    raise ConvergenceError(f"projection did not reach f <= {f_tol:g} in {k} Newton steps: {cause} (f = {f:g})")


def bregman_projection(p: ProblemInstance, x0, tol: float | None = None,
                       max_iters: int = 1000) -> np.ndarray:
    """Entropy projection of ``x0`` onto the solution set.

    Minimizes D_h(x, x0) subject to A x = b, x >= 0 by damped Newton on the
    m-dimensional dual (:func:`_dual_newton`) until the residual norm drops
    below ``tol`` (default ~1.41e-12, i.e. f <= 1e-24).  From exp(-eta) * ones
    at 60x100 that takes 8-57 steps (1-20 ms) to eta 73.7, and at most 312 to
    eta 709.  ``max_iters`` bounds the Newton steps; an infeasible system can
    take all of them.

    Raises
    ------
    DomainError
        If ``tol`` is negative, infinite or NaN, ``x0`` is not strictly
        positive, or ``max_iters`` is not a whole number of at least 1.
    ConvergenceError
        If Newton stops short (e.g. on an empty solution set) or converges
        with an entry underflowed to 0.0; the message names the cause.
    """
    tol = DEFAULT_PROJECTION_TOL if tol is None else float(tol)
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"tol must be finite and nonnegative, got {tol!r}")
    x0 = as_vector(x0)
    if np.any(x0 <= 0):
        raise DomainError("x0 must be strictly positive componentwise")
    max_iters = _whole(max_iters, "max_iters", 1)
    if x0.shape[0] != p.n:
        raise DimensionMismatch("x0 length must equal the number of columns")
    # 0.5 tol^2 is inf, not an OverflowError, for tol above ~1e154
    return _dual_newton(p, x0, 0.5 * tol * tol, max_iters)[0]


def orthogonality_residual(p: ProblemInstance, x0, x_star) -> OrthogonalityCheck:
    """Exact KKT residual of the limit characterization at x*.

    The entropy projection of x0 is the solution x* whose log(x*/x0) lies in
    range(A^T) on the support S of x* (the entries above 1e-12 max(x*)).
    With v = log(x*_S / x0_S) this returns

        ||P v|| / (1 + ||v||),

    where P projects onto ker(A_S), from one :func:`kernel_projector` of the
    support's columns.  A trivial ker(A_S), which for the true limit (whose
    support is the largest in the solution set) means the system has no
    other nonnegative solution, yields residual 0 with the
    ``kernel_trivial`` flag set.
    """
    x0 = as_vector(x0)
    x_star = as_vector(x_star)
    if x0.shape != x_star.shape or x_star.shape[0] != p.n:
        raise DimensionMismatch("x0 and x_star must have length n")
    if np.any(x0 <= 0):
        raise DomainError("x0 must be strictly positive")
    if np.any(x_star < 0):
        raise DomainError("x_star must be nonnegative")
    support = x_star > 1e-12 * float(np.max(x_star))
    if not np.any(support):
        raise DomainError("x_star has empty support")
    q = kernel_projector(p.a[:, support])
    if q.shape[1] == np.count_nonzero(support):
        return OrthogonalityCheck(0.0, True)
    v = np.log(x_star[support]) - np.log(x0[support])
    off = v - q @ (q.T @ v)
    return OrthogonalityCheck(float(np.linalg.norm(off)) / (1.0 + float(np.linalg.norm(v))), False)


def l1_gap_identity_residual(x_star, z, eta: float) -> float:
    """Residual of the exact l1-gap identity relating the limit to the
    l1-minimal solution.

    With xt = x*/||x*||_1 and zt = z/||z||_1, the identity states

        ||x*||_1 - ||z||_1 = ||z||_1 (<log xt, zt> - <log xt, xt>)
                             / (eta + log ||x*||_1 + <log xt, xt>).

    Returns |LHS - RHS|.

    Raises
    ------
    DomainError
        If ||x*||_1 <= n exp(-eta) (identity hypothesis violated), the
        denominator is within 1e-12 of zero, or z puts mass where x* has none.
    """
    x_star = as_vector(x_star)
    z = as_vector(z)
    if x_star.shape != z.shape:
        raise DimensionMismatch("x_star and z must have equal length")
    if np.any(x_star < 0) or np.any(z < 0):
        raise DomainError("vectors must be nonnegative")
    n = x_star.shape[0]
    l1x = float(np.sum(x_star))
    l1z = float(np.sum(z))
    if l1x <= n * _start_scale(eta):
        raise DomainError("hypothesis ||x*||_1 > ||x0||_1 fails")
    xt = x_star / l1x
    zt = z / l1z if l1z > 0 else z
    if np.any((zt > 0) & (xt == 0)):
        raise DomainError("z has mass outside the support of x*")
    pos = xt > 0
    log_xt = np.log(xt[pos])
    xt_log_xt = float(log_xt @ xt[pos])
    zt_log_xt = float(log_xt @ zt[pos])
    den = eta + math.log(l1x) + xt_log_xt
    if abs(den) <= 1e-12:
        raise DomainError("identity denominator is numerically zero")
    rhs = l1z * (zt_log_xt - xt_log_xt) / den
    return abs((l1x - l1z) - rhs)


def _finite(value, name: str, positive: bool = False) -> float:
    value = float(value)
    if not math.isfinite(value) or (positive and value <= 0.0):
        raise DomainError(f"{name} must be finite{' and positive' if positive else ''}, got {value!r}")
    return value


def slow_bound(n: int, z_l1: float, eta: float) -> float:
    """Dimension-based upper bound ||z||_1 log(n) / (eta + log(||z||_1 / n))
    on the l1 gap of the limit.

    Requires eta + log(z_l1 / n) > 0, i.e. the start has smaller l1 norm than z,
    and ``n`` a whole number of at least 1.
    """
    n = _whole(n, "n", 1)
    z_l1, eta = _finite(z_l1, "z_l1", positive=True), _finite(eta, "eta")
    den = eta + math.log(z_l1 / n)
    if den <= 0:
        raise DomainError("slow_bound requires eta + log(z_l1 / n) > 0")
    return z_l1 * math.log(n) / den


def improved_bound(n: int, x_l1: float, eta: float, z_l1: float) -> float:
    """Sharper upper bound ||z||_1 W_0((n-1)/e) / (eta + log(||x||_1 / n)).

    Dominated by :func:`slow_bound` whenever x_l1 >= z_l1, since
    W_0((n-1)/e) <= log n.  Requires ``n`` a whole number of at least 1.
    """
    n = _whole(n, "n", 1)
    x_l1, z_l1 = _finite(x_l1, "x_l1", positive=True), _finite(z_l1, "z_l1", positive=True)
    eta = _finite(eta, "eta")
    den = eta + math.log(x_l1 / n)
    if den <= 0:
        raise DomainError("improved_bound requires eta + log(x_l1 / n) > 0")
    w = lambert_w((n - 1) / math.e, WBranch.PRINCIPAL)
    return z_l1 * w / den


def worst_case_construction(n: int, eta: float) -> WorstCaseInstance:
    """Build a system on which the l1 gap nearly attains its upper bound.

    The solution set is the segment between z = lam * e_1 (the l1-minimal
    vertex) and beyond x*, where x* = (t*, (1-t*)/(n-1), ...) maximizes the
    gap identity numerator and lam is tuned so that x* is exactly the
    entropy projection of exp(-eta) * ones.  The matrix rows form an
    orthonormal basis of the complement of span(x* - z).

    Raises
    ------
    DomainError
        If ``n`` is not a whole number of at least 2, ``eta`` is not finite,
        or ``eta`` is too small or too large for the tuned lam to lie in
        (0, 1) in floating point.
    """
    n = _whole(n, "n", 2)
    eta = _finite(eta, "eta")
    w = lambert_w((n - 1) / math.e, WBranch.PRINCIPAL)
    t_star = 1.0 / (1.0 + w)
    x_star = np.full(n, (1.0 - t_star) / (n - 1))
    x_star[0] = t_star
    x_log_x = float(np.sum(x_star * np.log(x_star)))
    den = eta + math.log(t_star)
    if den <= 0:
        raise DomainError("eta too small: eta + log(t*) must be positive")
    lam = (eta + x_log_x) / den
    if lam <= 0.0:
        raise DomainError(f"eta too small: tuned weight lam={lam:g} outside (0, 1)")
    if lam >= 1.0:
        # lam < 1 in exact arithmetic; a large eta rounds it to 1
        raise DomainError(f"eta too large: tuned weight lam={lam!r} rounds to 1, outside (0, 1)")
    z = np.zeros(n)
    z[0] = lam

    d = x_star - z
    d = d / np.linalg.norm(d)
    q_full, _ = np.linalg.qr(d.reshape(n, 1), mode="complete")
    a = q_full[:, 1:].T  # (n-1) x n, orthonormal rows spanning d-perp
    problem = ProblemInstance(a, a @ z, planted=z)
    return WorstCaseInstance(problem, x_star, z, 1.0 - lam)


def rate_certificate(p: ProblemInstance, z) -> RateCertificate:
    """Contraction factors certifying linear convergence toward z.

    ``global_factor_fn(d)``, 1 - lambda_min_plus ymin_lower_bound(z_min, d)
    / (8 max_col_sq (||z||_1 + d)), bounds D_h(z, x_{k+1}) / D_h(z, x_k)
    whenever D_h(z, x_k) = d; ``local_factor`` is its d -> 0 limit
    1 - lambda_min_plus z_min / (8 max_col_sq ||z||_1), always in (0, 1).
    ``lambda_min_plus``, the smallest positive eigenvalue of A^T A, comes
    from the smaller Gram matrix: A A^T (m x m) when m < n, else A^T A;
    both have the same positive eigenvalues.

    Raises
    ------
    DomainError
        If z has a zero component or is not a solution.
    """
    z = as_vector(z)
    if z.shape[0] != p.n:
        raise DimensionMismatch("z must have length n")
    z_min = float(np.min(z))
    if z_min <= 0:
        raise DomainError("rate_certificate requires z strictly positive")
    resid = vector_norm(p.a @ z - p.b)
    if resid > 1e-8 * (1.0 + vector_norm(p.b)):
        raise DomainError("z is not a solution of the system")
    lam_plus = smallest_positive_eigenvalue(smaller_gram(p.a))
    mc = max_col_norm_sq(p.a)
    z_l1 = float(np.sum(z))
    local = 1.0 - lam_plus * z_min / (8.0 * mc * z_l1)

    def global_factor(d: float) -> float:
        if d < 0:
            raise DomainError("divergence must be nonnegative")
        # the smallest entry of any x with D_h(z, x) <= d
        return 1.0 - lam_plus * ymin_lower_bound(z_min, d) / (8.0 * mc * (z_l1 + d))

    return RateCertificate(lam_plus, z_min, mc, z_l1, global_factor, local)


def instability_construction(p: ProblemInstance, alpha: float) -> InstabilityInstance:
    """Rescale the right-hand side so a given constant stepsize is unstable.

    With t = 3 / (alpha * lambda_max(diag(x*) A^T A)), the scaled system
    (A, t b) has planted solution t x*, and the update Jacobian
    I - alpha diag(t x*) A^T A there has spectral radius exactly 2.  The
    reported ``jacobian_spectrum_bound`` is that radius, computed from the
    eigenvalues of the Jacobian itself.

    Raises
    ------
    DomainError
        If no planted solution is available, its scaled top eigenvalue is 0,
        or ``alpha`` is so small that t, t b or t x* overflows.
    """
    if p.planted is None:
        raise DomainError("instability_construction needs a planted solution")
    alpha = float(alpha)
    if not (alpha > 0 and np.isfinite(alpha)):
        raise DomainError("alpha must be positive and finite")
    lam_base = lambda_max_scaled_gram(p.a, p.planted)
    if lam_base <= 0:
        raise DomainError("lambda_max(diag(x*) A^T A) must be positive")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # alpha * lam_base may underflow to 0, where t is inf
        t = float(np.float64(3.0) / (alpha * lam_base))
        b_t, z_t = t * p.b, t * p.planted
    if not (np.isfinite(b_t).all() and np.isfinite(z_t).all()):  # an inf t leaves inf in z_t
        raise DomainError(f"alpha {alpha!r} is too small: the scale t = 3 / (alpha lambda_max) = {t!r} "
                          "makes the scaled system overflow")
    scaled = ProblemInstance(p.a, b_t, planted=z_t)
    # Independent check: the spectral radius of the update Jacobian itself,
    # by a general (nonsymmetric) eigensolver; 2 up to rounding.
    jac = np.eye(p.n) - alpha * (scaled.planted[:, None] * (p.a.T @ p.a))
    rho = float(np.max(np.abs(np.linalg.eigvals(jac))))
    return InstabilityInstance(p, alpha, t, scaled, rho)


def instability_escape_distance(inst: InstabilityInstance, iters: int = 10_000) -> float:
    """Largest distance from the planted solution reached by constant-stepsize
    iterations started at (1 + 1e-6) * planted.

    Stops early if the iterates overflow; the maximum observed distance is
    returned either way, rescaled where its squared sum would overflow or
    underflow (:func:`~entmd.linalg.vector_norm`).  Raises DomainError
    unless ``iters`` is a whole number of at least 1.
    """
    iters = _whole(iters, "iters", 1)
    a, at, b, target = inst.scaled.a, inst.scaled.at, inst.scaled.b, inst.scaled.planted
    x = (1.0 + 1e-6) * target
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for _ in range(iters):
            g = at @ (a @ x - b)
            if not np.all(np.isfinite(g)):
                break
            x_next = _exp_update(x, g, inst.alpha)
            if not np.all(np.isfinite(x_next)):
                break
            x = x_next
            worst = max(worst, vector_norm(x - target))
    return worst


def sublinear_bound_curve(trace: np.recarray, x_star, x0, max_col_sq: float):
    """Theoretical O(1/k) envelope for the cumulative-minimum objective.

    Returns [(k, 4 R (R + ||x*||_1) max_col_sq / (k+1))] for each record k
    of a solve's trace, with R the divergence from the limit x* to the start x0.
    """
    x_star = as_vector(x_star)
    x0 = as_vector(x0)
    r = bregman_divergence(x_star, x0)
    if not np.isfinite(r):
        raise DomainError("divergence from the limit to the start is infinite")
    coeff = 4.0 * r * (r + float(np.sum(x_star))) * float(max_col_sq)
    return [(k, coeff / (k + 1)) for k in range(len(trace))]


def _pivot(t: np.ndarray, basis: np.ndarray, r: int, j: int) -> None:
    """Make column j of the simplex tableau ``t`` basic in row r."""
    row = t[r]
    row /= row[j]
    col = t[:, j].copy()
    col[r] = 0.0
    # one BLAS product with k = 1, faster than a broadcast: each entry is the single rounded product
    # col_i t_rk, so the values are an elementwise outer product's; only an exact zero's sign may differ,
    # and no comparison or division reads it
    t -= np.dot(col[:, None], row[None, :])
    basis[r] = j


def _ratio_test(t: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Rows of column j's positive entries, their ratio-test ratios and the smallest ratio (nan if none)."""
    col = t[:-1, j]
    rows = (col > _LP_TOL).nonzero()[0]  # NaN entries stay out
    ratios = t[:-1, -1][rows] / col[rows]
    return rows, ratios, np.minimum.reduce(ratios) if rows.size else math.nan


def _simplex(t: np.ndarray, basis: np.ndarray, budget: int) -> int:
    """Pivot ``t`` (basic values in the last column, reduced costs in the last row) to an optimal
    basis; returns the pivots left of ``budget``.

    Dantzig pricing: the column with the most negative reduced cost enters.  Where its ratio test is
    degenerate (no positive entry, or a smallest ratio that is not positive) the step takes Bland's
    pivot instead: the smallest-index column with a negative reduced cost and a positive entry enters.
    Either way the ratio test's tie with the smallest basic index leaves.  A Dantzig pivot lowers the
    objective, so a run of degenerate pivots is a run of Bland pivots, which cannot cycle.  Both
    objectives are bounded below, so a column with a negative reduced cost and no positive entry is
    rounding, not a ray.
    """
    cost = t[-1, :-1]
    while True:
        j = int(cost.argmin())
        if not cost[j] < -_LP_TOL:
            return budget
        rows, ratios, lo = _ratio_test(t, j)
        if not lo > 0.0:  # no positive entry (nan) or a degenerate ratio test
            for j in (cost < -_LP_TOL).nonzero()[0]:
                rows, ratios, lo = _ratio_test(t, j)
                if rows.size:
                    break
            else:
                return budget
        if budget == 0:
            raise ConvergenceError("the l1 oracle's simplex reached its pivot cap")
        ties = rows[ratios == lo]
        _pivot(t, basis, ties[0] if ties.size == 1 else ties[basis[ties].argmin()], j)
        budget -= 1


def l1_minimal_solution(p: ProblemInstance) -> np.ndarray:
    """Exact l1-minimal nonnegative solution: min 1^T x subject to A x = b, x >= 0.

    A dense two-phase tableau simplex (:func:`_simplex`: Dantzig pricing,
    Bland's rule on degenerate pivots), on the rows of [A | b] divided by
    their largest |a_ij| and signed so that b_i >= 0.
    Phase one minimizes the sum of artificial residuals; artificials still
    basic at level zero are pivoted out, or their rows dropped as redundant.
    Phase two minimizes 1^T x, and x solves the kept rows of the scaled
    system on the final basis's columns, a square nonsingular matrix, by
    one LU solve.  Both phases together take at most
    ``_LP_PIVOTS_PER_DIM * (m + n)`` pivots; at the paper's 300x500 shape
    they take 3-5 (m + n), 0.5-0.9 s on one core.  b counts as feasible
    where phase one's optimum, min over x >= 0 of
    sum_i |A_i x - b_i| / max_j |a_ij|, is at most 1e-9 (1 + that sum at
    x = 0).

    Raises
    ------
    ConvergenceError
        If b is infeasible (the system has no nonnegative solution), the
        pivot cap is reached, or the final basis is singular in floating
        point.
    """
    m, n = p.m, p.n
    scale = np.max(np.abs(p.a), axis=1, initial=0.0)
    scale = np.where(p.b < 0, -1.0, 1.0) * np.where(scale > 0, scale, 1.0)
    a, b = p.a / scale[:, None], p.b / scale
    t = np.zeros((m + 1, n + 1))
    t[:m, :n], t[:m, n] = a, b
    basis = np.arange(n, n + m)  # artificials, whose columns never re-enter and are not stored
    t[m] = -np.sum(t[:m], axis=0)
    budget = _simplex(t, basis, _LP_PIVOTS_PER_DIM * (m + n))
    if -t[m, n] > 1e-9 * (1.0 + float(np.sum(b))):
        raise ConvergenceError("the system has no nonnegative solution")
    keep = np.ones(m + 1, dtype=bool)
    for r in np.flatnonzero(basis >= n):
        t[r, n] = 0.0
        nonzero = np.flatnonzero(np.abs(t[r, :n]) > _LP_TOL)
        if nonzero.size:
            _pivot(t, basis, r, nonzero[0])
        else:
            keep[r] = False  # a redundant row
    t, basis = t[keep], basis[keep[:m]]
    t[-1] = -np.sum(t[:-1], axis=0)
    t[-1, :n] += 1.0
    _simplex(t, basis, budget)
    kept = keep[:m]
    try:  # the kept rows of the final basis's columns: square, and nonsingular in exact arithmetic
        x_basis = np.linalg.solve(a[kept][:, basis], b[kept])
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"the l1 oracle's final basis is singular: {exc}") from exc
    x = np.zeros(n)
    x[basis] = np.clip(x_basis, 0.0, None)
    return x


def bias_report(p: ProblemInstance, eta: float, rng=None) -> BiasReport:
    """Project exp(-eta) * ones onto the solution set and report the bias.

    The exact gap and the l1-minimal solution come from
    :func:`l1_minimal_solution`; they are None only where it stops at its
    pivot cap or on a singular final basis.  Each upper bound is None where
    its hypothesis fails.  A start exp(-eta) that overflows to inf,
    underflows to 0 or is nan raises DomainError.  ``rng`` is ignored: the
    report draws nothing at random, and the keyword stays for callers
    written when the orthogonality check sampled directions.
    """
    x0 = np.full(p.n, _start_scale(eta))
    limit = bregman_projection(p, x0)
    orth = orthogonality_residual(p, x0, limit)
    x_l1 = float(np.sum(limit))

    try:
        z = l1_minimal_solution(p)
    except ConvergenceError:  # the limit solves the system: only the pivot cap or a singular basis lands here
        return BiasReport(eta, limit, orth.residual, orth.kernel_trivial, None, None, None, None)
    z_l1 = float(np.sum(z))
    slow = slow_bound(p.n, z_l1, eta) if z_l1 > 0 and eta + math.log(z_l1 / p.n) > 0 else None
    improved = improved_bound(p.n, x_l1, eta, z_l1) if z_l1 > 0 and eta + math.log(x_l1 / p.n) > 0 else None
    return BiasReport(eta, limit, orth.residual, orth.kernel_trivial, x_l1 - z_l1, slow, improved, z)
