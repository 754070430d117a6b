"""Shared instance builders for the test suite."""

import shutil
import tempfile

import numpy as np
from hypothesis.configuration import set_hypothesis_home_dir

from entmd import EXP_QUAD_BOUND, BreakdownError, DomainError, ProblemInstance, seeded_rng
from entmd.linalg import as_vector


def pytest_configure(config):
    # Hypothesis caches the constants it finds in the source under its home
    # directory, .hypothesis/ in the working directory by default, while it
    # collects the tests: keep that cache in a directory removed at the end
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)


def centered_gaussian_instance(m, n, sparsity, seed, x0_scale=None):
    """Random consistent instance with rows centered (A @ ones = 0).

    Centering guarantees the solution set contains strictly positive points
    (z + t * ones for every t > 0), which keeps the entropy projection off
    the boundary.
    """
    rng = seeded_rng(seed)
    g = rng.standard_normal((m, n))
    a = g - g.mean(axis=1, keepdims=True)
    z = np.zeros(n)
    support = rng.choice(n, size=sparsity, replace=False)
    z[support] = rng.uniform(0.0, 1.0, sparsity)
    return ProblemInstance(a, a @ z, planted=z)


def gaussian_instance(m, n, sparsity, seed):
    """Plain i.i.d. Gaussian design with a sparse planted solution."""
    rng = seeded_rng(seed)
    a = rng.standard_normal((m, n))
    z = np.zeros(n)
    support = rng.choice(n, size=sparsity, replace=False)
    z[support] = rng.uniform(0.0, 1.0, sparsity)
    return ProblemInstance(a, a @ z, planted=z)


def positive_solution_instance(m, n, seed, lo=0.25, hi=1.0):
    """Overdetermined full-column-rank system whose unique solution is the
    dense planted vector, bounded away from the boundary."""
    rng = seeded_rng(seed)
    a = rng.standard_normal((m, n))
    z = rng.uniform(lo, hi, n)
    return ProblemInstance(a, a @ z, planted=z)


def row_orthonormal_matrix(m, n, rng):
    """m x n matrix with orthonormal rows (m <= n)."""
    g = rng.standard_normal((n, m))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return (q * np.where(d == 0.0, 1.0, np.sign(d))).T


def signed_system(m, n, seed):
    """Well-conditioned signed system: orthonormal rows, signed planted z."""
    rng = seeded_rng(seed)
    a = row_orthonormal_matrix(m, n, rng)
    z = rng.standard_normal(n)
    return a, a @ z, z


def gram_test_matrices():
    """Matrices whose two Gram matrices A A^T and A^T A differ in size: wide, tall and rank-deficient."""
    rng = seeded_rng(8)
    low_rank = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 10))
    return {
        "wide 5x9": rng.standard_normal((5, 9)),
        "tall 9x5": rng.standard_normal((9, 5)),
        "rank 2, 6x10": low_rank,
        "rank 2, 10x6": low_rank.T.copy(),
    }


def within_eigenvalue_tolerance(value, ref, lam_max):
    """|value - ref| <= 1e-10 lambda_max + 1e-8 |ref|, the bound the benchmark's checks put on an eigenvalue."""
    return abs(value - ref) <= 1e-10 * lam_max + 1e-8 * abs(ref)


# Independent references for the solvers' arithmetic: f, its gradient, the
# Polyak stepsize and one split-scheme step, each straight from its formula.

def objective(p: ProblemInstance, x) -> float:
    """f(x) = 0.5 ||A x - b||^2."""
    r = p.a @ as_vector(x) - p.b
    return 0.5 * float(r @ r)


def gradient(p: ProblemInstance, x) -> np.ndarray:
    """grad f(x) = A^T (A x - b)."""
    return p.a.T @ (p.a @ as_vector(x) - p.b)


def polyak_stepsize(x, g, f: float) -> float:
    """min(f / ||g||^2_x, 1.79 / ||g||_inf) for f > 0 and g != 0; the cap
    where the weighted norm vanishes on the boundary."""
    x = as_vector(x)
    g = as_vector(g)
    cap = EXP_QUAD_BOUND / float(np.max(np.abs(g)))
    wn = float(np.add.reduce(x * g * g))
    return cap if wn == 0.0 else min(f / wn, cap)


def egpm_step(u, v, g, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """One update of the positive/negative split scheme.

    ``g`` is the gradient of f at u - v; the two halves move with opposite
    exponents: u * exp(-alpha g) and v * exp(+alpha g).  ``alpha`` must be
    finite and nonnegative (DomainError); an overflowing update raises
    BreakdownError.
    """
    u = as_vector(u)
    v = as_vector(v)
    g = as_vector(g)
    alpha = float(alpha)
    if not 0.0 <= alpha < np.inf:
        raise DomainError("egpm_step: the stepsize must be finite and nonnegative")
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        u_next = u * np.exp(-alpha * g)
        v_next = v * np.exp(alpha * g)
    u_next = np.where(u == 0.0, 0.0, u_next)
    v_next = np.where(v == 0.0, 0.0, v_next)
    if not (np.all(np.isfinite(u_next)) and np.all(np.isfinite(v_next))):
        raise BreakdownError("non-finite iterate produced by egpm_step")
    return u_next, v_next
