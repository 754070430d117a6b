"""Executable diagnostics: limit characterization, l1-gap bounds, linear-rate
certificates, and the unstable-stepsize construction.

The central objects are the limit of the exponential-update solver (the
entropy projection of the starting point onto the solution set), the gap
between its l1 norm and the l1-minimal solution, and the contraction factors
that certify linear convergence when the limit stays away from the boundary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .bregman import WBranch, bregman_divergence, lambert_w
from .errors import ConvergenceError, DimensionMismatch, DomainError
from .linalg import (
    as_vector,
    kernel_projector,
    lambda_max_scaled_gram,
    max_col_norm_sq,
    seeded_rng,
    smallest_positive_eigenvalue,
)
from .solvers import (
    Method,
    ProblemInstance,
    SolveConfig,
    Status,
    _exp_update,
    solve,
)

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


class OrthogonalityCheck(NamedTuple):
    """Result of the limit-characterization test; residual 0 with
    ``kernel_trivial`` set means the system has a unique solution."""

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
    """exp(-eta), the entries of the start exp(-eta) * ones; DomainError where it overflows."""
    try:
        return math.exp(-eta)
    except OverflowError:
        raise DomainError(f"exp(-eta) overflows for eta={eta!r}") from None


def bregman_projection(p: ProblemInstance, x0, tol: float | None = None,
                       max_iters: int = 200_000) -> np.ndarray:
    """Entropy projection of ``x0`` onto the solution set, by solving.

    Runs the certified exponential scheme from ``x0`` until the residual norm
    drops below ``tol`` (default ~1.41e-12, i.e. f <= 1e-24) and returns the
    final iterate.

    Raises
    ------
    ConvergenceError
        If the iteration budget is exhausted first (e.g. empty solution set).
    """
    if tol is None:
        tol = DEFAULT_PROJECTION_TOL
    f_tol = 0.5 * float(tol) ** 2
    cfg = SolveConfig(Method.md_polyak(), as_vector(x0), max_iters=max_iters, f_tol=f_tol)
    res = solve(p, cfg)
    if res.status is not Status.CONVERGED:
        raise ConvergenceError(
            f"projection did not reach f <= {f_tol:g} in {max_iters} iterations "
            f"(status {res.status.value})"
        )
    return res.x_final


def orthogonality_residual(p: ProblemInstance, x0, x_star, samples: int = 10,
                           rng: np.random.Generator | None = None) -> OrthogonalityCheck:
    """Check that log(x*) - log(x0) is orthogonal to the solution set at x*.

    Draws random kernel directions v of A (Gram-Schmidt against the rows),
    forms feasible points z = x* + eps v with eps halved until z >= 0, and
    returns the worst normalized inner product

        |<log x* - log x0, z - x*>| / (1 + ||log x* - log x0|| ||z - x*||)

    restricted to the support of x*.  Directions that would move a zero
    coordinate of x* are skipped.  A trivial kernel yields residual 0 with
    the ``kernel_trivial`` flag set.
    """
    x0 = as_vector(x0)
    x_star = as_vector(x_star)
    if x0.shape != x_star.shape or x_star.shape[0] != p.n:
        raise DimensionMismatch("x0 and x_star must have length n")
    if np.any(x0 <= 0):
        raise DomainError("x0 must be strictly positive")
    if np.any(x_star < 0):
        raise DomainError("x_star must be nonnegative")
    if rng is None:
        rng = seeded_rng(0)
    if samples < 1:
        raise DomainError("need at least one sample")

    q = kernel_projector(p.a)
    if q.shape[1] >= p.n:
        return OrthogonalityCheck(0.0, True)

    support = x_star > 1e-12 * float(np.max(x_star))
    if not np.any(support):
        raise DomainError("x_star has empty support")
    log_ratio = np.log(x_star[support]) - np.log(x0[support])
    min_pos = float(np.min(x_star[support]))

    worst = 0.0
    for _ in range(samples):
        v = rng.standard_normal(p.n)
        for _ in range(2):
            v = v - q @ (q.T @ v)
        norm_v = float(np.linalg.norm(v))
        if norm_v <= 1e-12:
            continue
        v /= norm_v
        if np.any(np.abs(v[~support]) > 1e-10):
            continue  # direction blocked by the boundary
        eps = 0.1 * min_pos
        z = x_star + eps * v
        shrink_budget = 200
        while np.any(z < 0) and shrink_budget > 0:
            eps *= 0.5
            z = x_star + eps * v
            shrink_budget -= 1
        if np.any(z < 0):
            continue
        step = (z - x_star)[support]
        num = abs(float(log_ratio @ step))
        den = 1.0 + float(np.linalg.norm(log_ratio)) * float(np.linalg.norm(z - x_star))
        worst = max(worst, num / den)
    return OrthogonalityCheck(worst, False)


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


def slow_bound(n: int, z_l1: float, eta: float) -> float:
    """Dimension-based upper bound ||z||_1 log(n) / (eta + log(||z||_1 / n))
    on the l1 gap of the limit.

    Requires eta + log(z_l1 / n) > 0, i.e. the start has smaller l1 norm than z.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    z_l1 = float(z_l1)
    den = eta + math.log(z_l1 / n)
    if den <= 0:
        raise DomainError("slow_bound requires eta + log(z_l1 / n) > 0")
    return z_l1 * math.log(n) / den


def improved_bound(n: int, x_l1: float, eta: float, z_l1: float) -> float:
    """Sharper upper bound ||z||_1 W_0((n-1)/e) / (eta + log(||x||_1 / n)).

    Dominated by :func:`slow_bound` whenever x_l1 >= z_l1, since
    W_0((n-1)/e) <= log n.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    den = eta + math.log(float(x_l1) / n)
    if den <= 0:
        raise DomainError("improved_bound requires eta + log(x_l1 / n) > 0")
    w = lambert_w((n - 1) / math.e, WBranch.PRINCIPAL)
    return float(z_l1) * w / den


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
        If ``eta`` is too small for the tuned lam to lie in (0, 1).
    """
    if n < 2:
        raise DomainError("worst_case_construction needs n >= 2")
    w = lambert_w((n - 1) / math.e, WBranch.PRINCIPAL)
    t_star = 1.0 / (1.0 + w)
    x_star = np.full(n, (1.0 - t_star) / (n - 1))
    x_star[0] = t_star
    x_log_x = float(np.sum(x_star * np.log(x_star)))
    den = eta + math.log(t_star)
    if den <= 0:
        raise DomainError("eta too small: eta + log(t*) must be positive")
    lam = (eta + x_log_x) / den
    if not (0.0 < lam < 1.0):
        raise DomainError(f"eta too small: tuned weight lam={lam:g} outside (0, 1)")
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

    ``global_factor_fn(d)`` bounds D_h(z, x_{k+1}) / D_h(z, x_k) whenever
    D_h(z, x_k) = d; ``local_factor`` is its d -> 0 limit
    1 - lambda_min_plus z_min / (8 max_col_sq ||z||_1), always in (0, 1).

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
    resid = float(np.linalg.norm(p.a @ z - p.b))
    if resid > 1e-8 * (1.0 + float(np.linalg.norm(p.b))):
        raise DomainError("z is not a solution of the system")
    lam_plus = smallest_positive_eigenvalue(p.a.T @ p.a)
    mc = max_col_norm_sq(p.a)
    z_l1 = float(np.sum(z))
    local = 1.0 - lam_plus * z_min / (8.0 * mc * z_l1)

    def global_factor(d: float) -> float:
        if d < 0:
            raise DomainError("divergence must be nonnegative")
        w = -lambert_w(-math.exp(-1.0 - d / z_min), WBranch.PRINCIPAL)
        return 1.0 - lam_plus * z_min * w / (8.0 * mc * (z_l1 + d))

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
        If no planted solution is available or its scaled top eigenvalue is 0.
    """
    if p.planted is None:
        raise DomainError("instability_construction needs a planted solution")
    alpha = float(alpha)
    if not (alpha > 0 and np.isfinite(alpha)):
        raise DomainError("alpha must be positive and finite")
    lam_base = lambda_max_scaled_gram(p.a, p.planted)
    if lam_base <= 0:
        raise DomainError("lambda_max(diag(x*) A^T A) must be positive")
    t = 3.0 / (alpha * lam_base)
    scaled = ProblemInstance(p.a, t * p.b, planted=t * p.planted)
    # Independent check: the spectral radius of the update Jacobian itself,
    # by a general (nonsymmetric) eigensolver; 2 up to rounding.
    jac = np.eye(p.n) - alpha * (scaled.planted[:, None] * (p.a.T @ p.a))
    rho = float(np.max(np.abs(np.linalg.eigvals(jac))))
    return InstabilityInstance(p, alpha, t, scaled, rho)


def instability_escape_distance(inst: InstabilityInstance, iters: int = 10_000,
                                rel_perturb: float = 1e-6) -> float:
    """Largest distance from the planted solution reached by constant-stepsize
    iterations started at (1 + rel_perturb) * planted.

    Stops early if the iterates overflow; the maximum observed distance is
    returned either way.
    """
    target = inst.scaled.planted
    a = inst.scaled.a
    at = np.ascontiguousarray(a.T)
    b = inst.scaled.b
    x = (1.0 + rel_perturb) * target
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
            worst = max(worst, float(np.linalg.norm(x - target)))
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


def l1_minimal_solution(p: ProblemInstance, atol: float | None = None) -> np.ndarray:
    """Exact l1-minimal nonnegative solution by vertex enumeration (n <= 12).

    Every vertex of the feasible polyhedron is a basic solution supported on
    linearly independent columns; enumerating all column subsets of size up
    to m and keeping the feasible candidate with the smallest coordinate sum
    yields the exact optimum.

    Raises
    ------
    DomainError
        If n exceeds the exhaustive-search cap of 12.
    ConvergenceError
        If no feasible vertex is found (inconsistent system).
    """
    m, n = p.m, p.n
    if n > 12:
        raise DomainError("vertex enumeration capped at n <= 12")
    if atol is None:
        atol = 1e-9 * (1.0 + float(np.linalg.norm(p.b)))
    best = None
    best_obj = math.inf
    if float(np.linalg.norm(p.b)) <= atol:
        return np.zeros(n)
    for size in range(1, min(m, n) + 1):
        for cols in itertools.combinations(range(n), size):
            sub = p.a[:, cols]
            x_sub, _, rank, _ = np.linalg.lstsq(sub, p.b, rcond=None)
            if rank < size:
                continue  # dependent columns: covered by a smaller subset
            if np.any(x_sub < -1e-10):
                continue
            if float(np.linalg.norm(sub @ x_sub - p.b)) > atol:
                continue
            obj = float(np.sum(np.clip(x_sub, 0.0, None)))
            if obj < best_obj:
                best_obj = obj
                best = (cols, np.clip(x_sub, 0.0, None))
    if best is None:
        raise ConvergenceError("no feasible vertex found: system has no nonnegative solution")
    out = np.zeros(n)
    out[list(best[0])] = best[1]
    return out


def bias_report(p: ProblemInstance, eta: float, samples: int = 10,
                rng: np.random.Generator | None = None,
                max_iters: int = 200_000) -> BiasReport:
    """Project exp(-eta) * ones onto the solution set and report the bias.

    The exact gap and the two upper bounds are filled in when the exhaustive
    l1 oracle applies (n <= 12) and the bounds' hypotheses hold; otherwise
    they are None.  An overflowing start, exp(-eta) = inf, raises DomainError.
    """
    x0 = np.full(p.n, _start_scale(eta))
    limit = bregman_projection(p, x0, max_iters=max_iters)
    orth = orthogonality_residual(p, x0, limit, samples=samples, rng=rng)
    x_l1 = float(np.sum(limit))

    z = exact_gap = slow = improved = None
    if p.n <= 12:
        z = l1_minimal_solution(p)
        z_l1 = float(np.sum(z))
        exact_gap = x_l1 - z_l1
        if z_l1 > 0 and eta + math.log(z_l1 / p.n) > 0:
            slow = slow_bound(p.n, z_l1, eta)
        if z_l1 > 0 and eta + math.log(x_l1 / p.n) > 0:
            improved = improved_bound(p.n, x_l1, eta, z_l1)
    return BiasReport(eta, limit, orth.residual, orth.kernel_trivial,
                      exact_gap, slow, improved, z)
