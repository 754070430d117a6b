"""Entropy kernel, Bregman divergence, and Lambert-W machinery.

The kernel is h(x) = <x, log x - 1> on the nonnegative orthant with the
convention 0*log 0 = 0.  The induced divergence

    D_h(x, y) = sum_i  x_i log(x_i / y_i) - x_i + y_i

is summed in index order, one term per coordinate: the cancellation-free
``x * (u - log1p(u))`` with ``u = (y - x) / x`` where y_i / x_i lies in
(0.5, 2), which stays accurate down to divergences near machine precision;
``x (log x - log y) - x + y`` elsewhere; and y_i where x_i = 0.  The Lambert
W function (both real branches) inverts the one-dimensional divergence in
closed form.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import ConvergenceError, DimensionMismatch, DomainError, InfiniteDivergence
from .linalg import as_vector

__all__ = [
    "EXP_QUAD_BOUND",
    "WBranch",
    "entropy",
    "bregman_divergence",
    "weighted_norm_sq",
    "pinsker_lower_bound",
    "max_norm_bound",
    "lambert_w",
    "bregman_inverse_1d",
    "ymin_lower_bound",
    "exp_quadratic_margin",
]

# Largest t with exp(t) <= 1 + t + t^2; also the stepsize cap constant.
EXP_QUAD_BOUND = 1.79

_BRANCH_POINT = -1.0 / math.e


class WBranch(enum.Enum):
    """Real branches of the Lambert W function.

    PRINCIPAL (W_0) is defined on [-1/e, inf) with W_0 >= -1;
    MINUS_ONE (W_-1) is defined on [-1/e, 0) with W_-1 <= -1.
    """

    PRINCIPAL = 0
    MINUS_ONE = -1


def _nonneg_vector(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise DimensionMismatch(f"{name} must be a nonempty 1-D vector")
    # the >= test is False for NaN, so this also rejects NaN entries
    if not np.all(x >= 0) or np.any(x == np.inf):
        raise DomainError(f"{name} must be nonnegative and finite componentwise")
    return x


def entropy(x) -> float:
    """h(x) = sum_i (x_i log x_i - x_i), with 0*log 0 = 0.

    Raises
    ------
    DomainError
        If any component is negative.
    """
    x = _nonneg_vector(x, "x")
    pos = x > 0
    xp = x[pos]
    return float(np.sum(xp * np.log(xp)) - np.sum(x))


def bregman_divergence(x, y) -> float:
    """Entropy Bregman divergence D_h(x, y) >= 0.

    Zero components of ``y`` are allowed only where ``x`` is also zero (that
    coordinate contributes ``y_i - x_i = 0``).

    Raises
    ------
    InfiniteDivergence
        If ``x_i > 0`` where ``y_i = 0``.
    DomainError
        If a component is negative.
    DimensionMismatch
        If lengths differ.
    """
    x = _nonneg_vector(x, "x")
    y = _nonneg_vector(y, "y")
    if x.shape != y.shape:
        raise DimensionMismatch("bregman_divergence: length mismatch")
    with np.errstate(all="ignore"):
        d = _dh_core(x, y)
    if d == math.inf:
        raise InfiniteDivergence("D_h(x, y) is infinite: x_i > 0 with y_i = 0, or the sum overflowed")
    return d


def _dh_core(x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """D_h(x, y) for validated nonnegative arrays, inf where infinite: a float
    for a vector y, and for a C-contiguous block of rows y the bits of each
    row's vector call.  The caller suppresses numpy's floating-point
    warnings: terms not chosen, such as 0/0 at x_i = y_i = 0, are discarded.
    """
    # the ratio overflows for extreme scale mismatches and is inf or NaN
    # where x_i = 0: those coordinates are not near
    ratio = y / x
    near = (ratio > 0.5) & (ratio < 2.0)
    u = y - x
    u /= x
    terms = np.log1p(u)
    np.subtract(u, terms, out=terms)
    terms *= x
    if not np.logical_and.reduce(near, axis=None):
        # inf where x_i > 0 = y_i (log 0 = -inf) and for astronomically distant pairs
        far = x * (np.log(x) - np.log(y)) - x + y
        terms = np.where(near, terms, np.where(x > 0.0, far, y))
    total = np.add.reduce(terms, axis=-1)
    # each term is >= 0: clamp the last-ulp rounding of the sum, and read a
    # sum that is not finite as inf.  A vector's sum takes the rule in
    # Python, at a tenth of the cost of numpy's calls on a scalar.
    if total.ndim == 0:
        total = float(total)
        return max(total, 0.0) if math.isfinite(total) else math.inf
    return np.where(np.isfinite(total), np.maximum(total, 0.0), math.inf)


def weighted_norm_sq(x, v) -> float:
    """Weighted squared norm sum_i x_i v_i^2 for nonnegative weights x."""
    x = _nonneg_vector(x, "weights")
    v = as_vector(v)
    if x.shape != v.shape:
        raise DimensionMismatch("weighted_norm_sq: length mismatch")
    return float(np.sum(x * v * v))


def pinsker_lower_bound(x, y) -> float:
    """Pinsker-type lower bound on D_h(x, y) over the orthant.

    Returns ``0.5 * ||x - y||_1^2 / max(||x||_1, ||y||_1)``; the divergence
    always dominates this value.

    Raises
    ------
    DomainError
        If both l1 norms are zero.
    """
    x = _nonneg_vector(x, "x")
    y = _nonneg_vector(y, "y")
    if x.shape != y.shape:
        raise DimensionMismatch("pinsker_lower_bound: length mismatch")
    l1x = float(np.sum(x))
    l1y = float(np.sum(y))
    m = max(l1x, l1y)
    if m == 0.0:
        raise DomainError("pinsker_lower_bound undefined for two zero vectors")
    return 0.5 * float(np.sum(np.abs(x - y))) ** 2 / m


def max_norm_bound(x, y) -> float:
    """Upper bound 2 D_h(x, y) + 2 min(||x||_1, ||y||_1) on max(||x||_1, ||y||_1)."""
    d = bregman_divergence(x, y)
    return 2.0 * d + 2.0 * min(float(np.sum(np.asarray(x))), float(np.sum(np.asarray(y))))


def lambert_w(t: float, branch: WBranch = WBranch.PRINCIPAL) -> float:
    """Real Lambert W: the solution w of w * exp(w) = t on the chosen branch.

    Halley iteration from branch-specific initial guesses:

    * PRINCIPAL, t >= 0:     log(1 + t)
    * PRINCIPAL, t < 0:      series around the branch point -1/e
    * MINUS_ONE, t <= -0.1:  log(-t) - log(-log(-t))
    * MINUS_ONE, t > -0.1:   series around the branch point

    Raises
    ------
    DomainError
        If ``t`` lies outside the branch domain.
    ConvergenceError
        If the residual fails to reach 1e-14 * max(1, |t|) within 100 steps.
    """
    t = float(t)
    if not isinstance(branch, WBranch):
        raise DomainError("branch must be a WBranch value")
    if not math.isfinite(t):
        raise DomainError("lambert_w requires a finite argument")
    if t < _BRANCH_POINT:
        # Tolerate values a hair below -1/e produced by rounding of exp().
        if t < _BRANCH_POINT * (1.0 + 1e-12):
            raise DomainError(f"lambert_w: t={t!r} below the branch point -1/e")
        t = _BRANCH_POINT
    if branch is WBranch.MINUS_ONE and t >= 0.0:
        raise DomainError("lambert_w: MINUS_ONE branch requires t < 0")
    if t == _BRANCH_POINT:
        return -1.0

    if branch is WBranch.PRINCIPAL:
        if t >= 0.0:
            w = math.log1p(t)
        else:
            p = math.sqrt(max(2.0 * (math.e * t + 1.0), 0.0))
            w = -1.0 + p - p * p / 3.0 + 11.0 * p**3 / 72.0
    else:
        if t <= -0.1:
            w = math.log(-t) - math.log(-math.log(-t))
        else:
            p = math.sqrt(max(2.0 * (math.e * t + 1.0), 0.0))
            w = -1.0 - p - p * p / 3.0 - 11.0 * p**3 / 72.0

    for _ in range(100):
        ew = math.exp(w)
        resid = w * ew - t
        wp1 = w + 1.0
        if resid == 0.0 or wp1 == 0.0:
            break
        dw = resid / (ew * wp1 - (w + 2.0) * resid / (2.0 * wp1))
        w -= dw
        if abs(dw) <= 1e-16 * (1.0 + abs(w)):
            break
    if abs(w * math.exp(w) - t) > 1e-14 * max(1.0, abs(t)):
        raise ConvergenceError(f"lambert_w failed to converge for t={t!r}")
    return w


def bregman_inverse_1d(x: float, d: float, branch: WBranch) -> float:
    """Solve D_h((x,), (y,)) = d for y, given x > 0 and d >= 0.

    The PRINCIPAL branch returns the solution y <= x, MINUS_ONE the solution
    y >= x; both equal x when d = 0.
    """
    x = float(x)
    d = float(d)
    if x <= 0.0:
        raise DomainError("bregman_inverse_1d requires x > 0")
    if d < 0.0:
        raise DomainError("bregman_inverse_1d requires d >= 0")
    return -x * lambert_w(-math.exp(-1.0 - d / x), branch)


def ymin_lower_bound(x_min: float, d: float) -> float:
    """Smallest value any y can take when D_h(x, y) <= d and min(x) >= x_min.

    Returns ``-x_min * W_0(-exp(-1 - d / x_min))``, a decreasing function of
    d that equals x_min at d = 0 and decays to 0.
    """
    return bregman_inverse_1d(x_min, d, WBranch.PRINCIPAL)


def exp_quadratic_margin(t):
    """Margin 1 + t + t^2 - exp(t) of the quadratic overestimate of exp.

    Nonnegative (up to a few ulps of exp(|t|)) for all t <= EXP_QUAD_BOUND
    and negative beyond it.  Accepts scalars or arrays.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):  # exp overflow far beyond the cap is -inf margin
        out = 1.0 + t + t * t - np.exp(t)
    if out.ndim == 0:
        return float(out)
    return out
