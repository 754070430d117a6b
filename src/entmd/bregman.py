"""Entropy kernel, Bregman divergence, and Lambert-W machinery.

The kernel is h(x) = <x, log x - 1> on the nonnegative orthant with the
convention 0*log 0 = 0.  The induced divergence

    D_h(x, y) = sum_i  x_i log(x_i / y_i) - x_i + y_i

is evaluated coordinatewise in the cancellation-free form
``x * (u - log1p(u))`` with ``u = (y - x) / x``, which stays accurate down to
divergences near machine precision.  The Lambert W function (both real
branches) inverts the one-dimensional divergence in closed form.
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
    with np.errstate(over="ignore", divide="ignore"):
        d = _dh_core(x, y)
    if d == math.inf:
        raise InfiniteDivergence("D_h(x, y) is infinite: x_i > 0 with y_i = 0, or the sum overflowed")
    return d


def _dh_core(x: np.ndarray, y: np.ndarray) -> float:
    """Divergence arithmetic for already-validated nonnegative arrays; inf if infinite.

    The caller suppresses numpy's overflow and divide-by-zero warnings.
    Where every x_i is positive, or every ratio is in the near branch, the
    arrays are used as they are: compacting them would keep every value and
    its order, so the sums are the same.
    """
    if np.minimum.reduce(x) > 0.0:
        xp, yp, rest = x, y, 0.0
    else:
        pos = x > 0
        xp, yp = x[pos], y[pos]
        rest = float(np.add.reduce(y[~pos]))
    # Near-equal coordinates go through the cancellation-free u - log1p(u)
    # form; distant ones (including denormal y) use separated logarithms,
    # which cannot overflow in the quotient.  The ratio itself may overflow
    # for extreme scale mismatches; those coordinates land in the far branch.
    ratio = yp / xp
    near = (ratio > 0.5) & (ratio < 2.0)
    if np.logical_and.reduce(near):
        u = (yp - xp) / xp
        total = float(np.add.reduce(xp * (u - np.log1p(u))))
    else:
        xn = xp[near]
        u = (yp[near] - xn) / xn
        total = float(np.add.reduce(xn * (u - np.log1p(u))))
        far = ~near
        xf = xp[far]
        yf = yp[far]
        # inf where y_i = 0 (log 0 = -inf) and for astronomically distant pairs
        total += float(np.add.reduce(xf * (np.log(xf) - np.log(yf)) - xf + yf))
    total += rest
    if not math.isfinite(total):
        return math.inf
    # each term is >= 0; clamp the last-ulp rounding of the sum
    return max(total, 0.0)


def _dh_rows(x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """:func:`_dh_core` ``(x, y)`` for every row y of the C-contiguous block ``ys``, bit for bit.

    The caller suppresses numpy's floating-point warnings.  The near and far
    terms are computed elementwise once for the whole block.  Each row's
    sums keep ``_dh_core``'s order: its near terms, then its far terms, each
    compacted in index order, then ``rest``.  Rows with the same number of
    near terms are summed together: their compacted terms form a
    C-contiguous (rows, count) array, and numpy reduces each row of it as it
    reduces a 1-D array of that length.
    """
    if np.minimum.reduce(x) > 0.0:
        xp, yp, rest = x, ys, 0.0
    else:
        pos = x > 0
        # a column mask returns a block that is not C-contiguous, and an
        # axis-1 reduce over such a block sums in another order
        xp, yp = x[pos], np.ascontiguousarray(ys[:, pos])
        rest = np.add.reduce(np.ascontiguousarray(ys[:, ~pos]), axis=1)
    ratio = yp / xp
    near = (ratio > 0.5) & (ratio < 2.0)
    u = (yp - xp) / xp
    near_terms = xp * (u - np.log1p(u))
    width = xp.size
    counts = np.add.reduce(near, axis=1)
    if np.minimum.reduce(counts, initial=width) == width:
        total = np.add.reduce(near_terms, axis=1)
    else:
        far_terms = xp * (np.log(xp) - np.log(yp)) - xp + yp
        total = np.empty(len(ys))
        for count in np.unique(counts):
            rows = np.flatnonzero(counts == count)
            if count == width:
                total[rows] = np.add.reduce(near_terms[rows], axis=1)
                continue
            mask = near[rows]
            total[rows] = (np.add.reduce(near_terms[rows][mask].reshape(rows.size, count), axis=1)
                           + np.add.reduce(far_terms[rows][~mask].reshape(rows.size, width - count), axis=1))
    total += rest
    # max(total, 0.0) of _dh_core keeps a -0.0 total
    return np.where(np.isfinite(total), np.where(total < 0.0, 0.0, total), math.inf)


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
    x_min = float(x_min)
    if x_min <= 0.0:
        raise DomainError("ymin_lower_bound requires x_min > 0")
    if d < 0.0:
        raise DomainError("ymin_lower_bound requires d >= 0")
    return -x_min * lambert_w(-math.exp(-1.0 - d / x_min), WBranch.PRINCIPAL)


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
