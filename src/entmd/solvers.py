"""Iterative multiplicative-update solvers behind one uniform interface.

Schemes
-------
* ``md_polyak``        exponential update x * exp(-a g) with the adaptive
                       stepsize a = min(f / ||g||^2_x, 1.79 / ||g||_inf)
* ``hd_plus_polyak``   polynomial update x * (1 - a g + a^2 g^2), same stepsize,
                       same convergence guarantees, no exponentiation
* ``hd_polyak``        squared update x * (1 - a g)^2 (heuristic, may diverge)
* ``eg_pm``            positive/negative split u - v for general (signed)
                       systems: ``md_polyak`` on w = (u, v) with gradient
                       (g, -g), i.e. on the stacked matrix [A, -A]
* ``md_constant``      exponential update with a fixed stepsize
* ``md_backtracking``  exponential update, stepsize halved until the local
                       curvature test a * D_f < D_h accepts

The schemes differ only in their update, ``_UPDATES``, and their stepsize
rule, ``_RULES``.  Two iteration loops run them, by design: a batch of one
row costs about twice a solve per iteration.  ``_iterate`` runs one solve
for :func:`solve` and :func:`solve_convex`, which differ only in the
objective callback.  ``_lockstep`` advances several n-wide runs of the
kinds in ``_RULES`` on one instance together for one budget, each ending
where its own solve ends, bit for bit; the experiments' batches use it.
It runs in windows of up to 64 iterations; an iteration on which a run
stops ends its window, and the run leaves the batch there.
Both loops take each kind's update and stepsize rule from the two tables,
``md_backtracking``'s first trial from the run's own gradient at x0 where
``alpha0`` is None, and stop a run on the same tests.
``_replay_divergence`` replays recorded stepsizes without a stop test to
follow runs' iterates in stretches from the *marks* that ``_lockstep``
takes of them.  Every solve records a per-iteration trace (objective,
stepsize, l1 norm and optionally the Bregman divergence to a reference
point) and reports one of three terminal statuses.  When a reference
solution is supplied, the Polyak schemes verify the per-iteration
divergence descent inequality and flag any numerical violation as a
breakdown instead of silently continuing.

The public single-step functions are :func:`md_step`, one exponential
update, and :func:`backtracking_stepsize`, the stepsize ``md_backtracking``
takes from a point.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .bregman import EXP_QUAD_BOUND, _dh_core
from .errors import (
    BreakdownError,
    ConvergenceError,
    DimensionMismatch,
    DomainError,
    InfiniteDivergence,
)
from .linalg import as_matrix, as_vector, vector_norm

__all__ = [
    "Status",
    "Method",
    "ProblemInstance",
    "SolveConfig",
    "SolveResult",
    "ConvexObjective",
    "md_step",
    "backtracking_stepsize",
    "solve",
    "solve_convex",
]


class Status(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITERS = "MaxIters"
    NUMERICAL_BREAKDOWN = "NumericalBreakdown"


@dataclass(frozen=True)
class Method:
    """Algorithm selector plus stepsize-rule parameters.

    Use the classmethod constructors; every construction validates the parameters.
    For ``md_backtracking``, ``alpha0=None`` means "pick 1.79 / ||grad f(x0)||_inf
    at the start of the solve".
    """

    kind: str
    alpha: float | None = None
    alpha0: float | None = None
    shrink: float = 0.5

    def __post_init__(self):
        if self.kind not in _UPDATES:
            raise DomainError(f"unknown method kind {self.kind!r}")
        if self.kind == "md_constant" and not (self.alpha is not None and 0.0 < self.alpha < np.inf):
            raise DomainError("md_constant needs a finite positive stepsize")
        if self.kind == "md_backtracking":
            if self.alpha0 is not None and not 0.0 < self.alpha0 < np.inf:
                raise DomainError("md_backtracking needs a finite positive alpha0")
            if not (0.0 < self.shrink < 1.0):
                raise DomainError("md_backtracking shrink factor must lie strictly inside (0, 1)")

    @classmethod
    def md_polyak(cls) -> "Method":
        return cls("md_polyak")

    @classmethod
    def hd_plus_polyak(cls) -> "Method":
        return cls("hd_plus_polyak")

    @classmethod
    def hd_polyak(cls) -> "Method":
        return cls("hd_polyak")

    @classmethod
    def eg_pm(cls) -> "Method":
        return cls("eg_pm")

    @classmethod
    def md_constant(cls, alpha: float) -> "Method":
        return cls("md_constant", alpha=float(alpha))

    @classmethod
    def md_backtracking(cls, alpha0: float | None = None, shrink: float = 0.5) -> "Method":
        return cls("md_backtracking", alpha0=None if alpha0 is None else float(alpha0), shrink=float(shrink))

    @property
    def label(self) -> str:
        if self.kind == "md_constant":
            return f"md_constant_{self.alpha:g}"
        return self.kind


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A linear system A x = b, optionally with a known nonnegative solution.

    Read-only once validated; ``at``, A^T made C-contiguous on first use, stays that of ``a``.
    """

    a: np.ndarray
    b: np.ndarray
    planted: np.ndarray | None = None

    def __post_init__(self):
        a, b, z = as_matrix(self.a), as_vector(self.b), self.planted
        if b.shape[0] != a.shape[0]:
            raise DimensionMismatch("right-hand side length must equal the number of rows")
        if z is not None:
            z = as_vector(z)
            if z.shape[0] != a.shape[1]:
                raise DimensionMismatch("planted solution length must equal the number of columns")
            if np.any(z < 0):
                raise DomainError("planted solution must be nonnegative")
            resid = vector_norm(a @ z - b)
            if resid > 1e-10 * (1.0 + vector_norm(b)):
                raise DomainError(f"planted vector is not a solution (residual {resid:g})")
        for name, value in (("a", a), ("b", b), ("planted", z)):
            object.__setattr__(self, name, value)

    @cached_property
    def at(self) -> np.ndarray:
        """A^T as a C-contiguous array, so that ``at @ r`` is one row-major GEMV."""
        return np.ascontiguousarray(self.a.T)

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]


def _whole(value, name: str, least: int) -> int:
    """``value`` as an int; DomainError unless it is a whole number of at least ``least``."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value or whole < least:
        raise DomainError(f"{name} must be a whole number of at least {least}, got {value!r}")
    return whole


@dataclass(eq=False)
class SolveConfig:
    """Everything a solve needs besides the problem itself.

    ``x0`` must be strictly positive; for ``eg_pm`` it has length 2n and is
    read as the concatenation (u0, v0).  If ``trace_reference`` is set, every
    trace record carries the Bregman divergence from the reference to the
    iterate, and for the certified Polyak schemes the per-iteration descent
    inequality is checked (disable via ``check_descent`` when the reference
    is only an estimate rather than an exact solution).
    """

    method: Method
    x0: np.ndarray
    max_iters: int = 20_000
    f_tol: float = 1e-20
    trace_reference: np.ndarray | None = None
    check_descent: bool = True

    def __post_init__(self):
        self.x0 = as_vector(self.x0)
        if np.any(self.x0 <= 0):
            raise DomainError("x0 must be strictly positive componentwise")
        self.max_iters = _whole(self.max_iters, "max_iters", 1)
        self.f_tol = float(self.f_tol)
        if not (self.f_tol >= 0.0):
            raise DomainError("f_tol must be nonnegative")
        if self.trace_reference is not None:
            ref = as_vector(self.trace_reference)
            if np.any(ref < 0):
                raise DomainError("trace_reference must be nonnegative")
            self.trace_reference = ref


# A trace has one record per iteration, indexed from 0: the iterate's f and
# l1 norm and the stepsize taken from it, and with a trace_reference also the
# divergence D_h(reference, iterate).
_TRACE = np.dtype([("f_value", float), ("stepsize", float), ("l1_norm", float)])
_TRACE_REF = np.dtype(_TRACE.descr + [("d_h_to_ref", float)])


@dataclass(eq=False)
class SolveResult:
    """The end of a solve and its trace, a record array: ``trace.f_value`` is
    the column of f values and ``trace[k].f_value`` the f of iterate k."""

    x_final: np.ndarray
    status: Status
    iters_run: int
    trace: np.recarray
    # eg_pm only: the final concatenated pair (u, v); x_final is u - v.
    w_final: np.ndarray | None = None
    # set for schemes without a convergence guarantee (hd_polyak)
    heuristic: bool = False


@dataclass(eq=False)
class ConvexObjective:
    """A convex function with known optimal value, for the generic solver."""

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    f_star: float


def _polyak_stepsize(x: np.ndarray, g: np.ndarray, f: float, c: float, g_inf: float) -> float | None:
    """min(f / (c ||g||^2_x), 1.79 / g_inf) for f > 0, where g_inf = ||g||_inf; None for a zero gradient."""
    if g_inf == 0.0:
        return None
    cap = EXP_QUAD_BOUND / g_inf
    wn = x * g
    wn *= g
    wn = float(np.add.reduce(wn))
    return cap if wn == 0.0 else min(f / (c * wn), cap)


# The updates work in place on one array, ``out`` if given.  A coordinate
# with x_i == 0 stays exactly 0.0 whenever its multiplier is finite, so the
# exp and hd updates need their zero mask only where the product is not all
# finite.  The product is nonnegative, so a finite sum shows that it is; a
# sum that overflows merely masks entries that are 0.0 already.  The loops
# take that sum as the new iterate's l1 norm and mask only when it is not
# finite; hd_plus has no mask, and a non-finite entry ends its run.

def _exp_mult(x: np.ndarray, g: np.ndarray, alpha, out=None) -> np.ndarray:
    """x * exp(-alpha g) without the mask; for a (B, n) block ``alpha`` may be a (B, 1) column of stepsizes."""
    out = np.multiply(g, -alpha, out=out)
    np.exp(out, out=out)
    out *= x
    return out


def _hd_mult(x: np.ndarray, g: np.ndarray, alpha, out=None) -> np.ndarray:
    """x * (1 - alpha g)^2 without the mask."""
    mult = 1.0 - alpha * g
    out = np.multiply(x, mult, out=out)
    out *= mult
    return out


def _hd_plus_update(x: np.ndarray, g: np.ndarray, alpha, out=None) -> np.ndarray:
    t = alpha * g
    mult = 1.0 - t
    t *= t
    mult += t
    return np.multiply(x, mult, out=out)


def _frozen_sum(x: np.ndarray, out: np.ndarray, masked: bool = True) -> float:
    """The sum of ``out``, an update of ``x``; where it is not finite and the
    update masks, the entries of ``out`` at x == 0 are set to 0.0 first."""
    total = float(np.add.reduce(out, axis=None))
    if masked and not math.isfinite(total):
        out[x == 0.0] = 0.0
        total = float(np.add.reduce(out, axis=None))
    return total


def _exp_update(x: np.ndarray, g: np.ndarray, alpha) -> np.ndarray:
    """x * exp(-alpha g); for a (B, n) block of rows ``alpha`` may be a (B, 1) column of stepsizes."""
    out = _exp_mult(x, g, alpha)
    _frozen_sum(x, out)
    return out


# Each kind's update without its mask, keyed by every kind a Method takes,
# and the kinds' updates that mask
_UPDATES = {
    "md_polyak": _exp_mult,
    "hd_plus_polyak": _hd_plus_update,
    "hd_polyak": _hd_mult,
    "eg_pm": _exp_mult,
    "md_constant": _exp_mult,
    "md_backtracking": _exp_mult,
}
_MASKED = (_exp_mult, _hd_mult)

# How each kind picks its stepsize, in both loops: the Polyak rule, its fixed
# ``alpha``, or backtracking from ``alpha0``; a batch's rows sort by rule.
# eg_pm steps as md_polyak on w and has no entry, so a batch does not take it.
_BACKTRACKING, _FIXED, _POLYAK = 0, 1, 2
_RULES = {"md_backtracking": _BACKTRACKING, "md_constant": _FIXED, "md_polyak": _POLYAK,
          "hd_plus_polyak": _POLYAK, "hd_polyak": _POLYAK}


def _vector_pair(x, g, what: str) -> tuple[np.ndarray, np.ndarray]:
    x = as_vector(x)
    g = as_vector(g)
    if x.shape != g.shape:
        raise DimensionMismatch(f"{what}: iterate and gradient lengths differ")
    return x, g


def md_step(x, g, alpha: float) -> np.ndarray:
    """Exponential multiplicative update x * exp(-alpha g).

    Coordinates that have underflowed to exact zero stay at zero.

    Raises
    ------
    BreakdownError
        If the update overflows.
    DomainError
        If ``x`` has a negative entry, or ``alpha`` is negative or not finite.
    """
    x, g = _vector_pair(x, g, "md_step")
    if np.any(x < 0):
        raise DomainError("md_step: the iterate must be nonnegative")
    alpha = float(alpha)
    if not 0.0 <= alpha < math.inf:
        raise DomainError("md_step: the stepsize must be finite and nonnegative")
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        out = _exp_update(x, g, alpha)
    if not np.all(np.isfinite(out)):
        raise BreakdownError("non-finite iterate produced by md_step")
    return out


def _backtracking_stepsize(a: np.ndarray, x: np.ndarray, g: np.ndarray, alpha: float,
                           shrink: float) -> tuple[float, np.ndarray, float] | None:
    """:func:`backtracking_stepsize` on validated arrays: the accepted stepsize,
    its trial point ``x+`` and the sum of ``x+``, or None where it raises.

    The caller suppresses numpy's floating-point warnings.
    """
    for trial in range(201):
        x_plus = _exp_mult(x, g, alpha)
        total = _frozen_sum(x, x_plus)
        # overflow, or a positive coordinate driven to zero (infinite D_h): not an admissible trial
        if math.isfinite(total) or np.logical_and.reduce(np.isfinite(x_plus)):
            d_h = _dh_core(x, x_plus)
            if d_h < math.inf:
                dvec = a @ (x - x_plus)
                d_f = 0.5 * float(dvec @ dvec)
                if alpha * d_f < d_h:
                    return alpha, x_plus, total
        # A zero gradient on the support leaves x+ == x for every trial, so
        # D_h = D_f = 0 rejects the first one: such a point is stationary, and
        # alpha0 is accepted.  Elsewhere a trial whose x+ merely rounds to x
        # is rejected.
        if not trial and not np.count_nonzero(g if np.minimum.reduce(x) > 0.0 else g[x > 0.0]):
            return alpha, x_plus, total
        alpha *= shrink
    return None


def backtracking_stepsize(p: ProblemInstance, x, g, alpha0: float, shrink: float = 0.5) -> float:
    """Largest alpha in {alpha0 * shrink^j} passing the curvature test.

    Accepts the first alpha with ``alpha * D_f(x, x+) < D_h(x, x+)`` where
    ``x+ = md_step(x, g, alpha)`` and ``D_f(x, y) = 0.5 ||A (x - y)||^2``.
    Where ``g`` vanishes on the support of ``x``, the point is stationary and
    alpha0 is accepted.

    Raises
    ------
    ConvergenceError
        If no admissible stepsize is found within 200 halvings.
    DimensionMismatch
        If ``x`` and ``g`` differ in length or are not of length ``p.n``.
    DomainError
        If ``x`` has a negative entry, or ``alpha0`` or ``shrink`` is out of range.
    """
    x, g = _vector_pair(x, g, "backtracking_stepsize")
    if x.shape[0] != p.n:
        raise DimensionMismatch("backtracking_stepsize: vector length must equal the number of columns")
    if np.any(x < 0):
        raise DomainError("backtracking_stepsize: the iterate must be nonnegative")
    method = Method.md_backtracking(float(alpha0), shrink)  # checks alpha0 and shrink
    with np.errstate(all="ignore"):
        accepted = _backtracking_stepsize(p.a, x, g, method.alpha0, method.shrink)
    if accepted is None:
        raise ConvergenceError("backtracking found no admissible stepsize within 200 halvings")
    return accepted[0]


# Descent-certificate tolerance: D_h(z, x+) - D_h(z, x) <= -a f / c + TOL * (1 + D_h(z, x))
_DESCENT_TOL = 1e-9


def _iterate(fg, cfg: SolveConfig, c: float = 1.0, a: np.ndarray | None = None) -> SolveResult:
    """The iteration loop behind :func:`solve` and :func:`solve_convex`.

    ``fg(x)`` returns the objective (or gap) f and its gradient g at x.  The
    kind's rule in ``_RULES`` picks the stepsize: the Polyak rule with
    constant ``c``, the same ``c`` that scales the descent certificate
    D_h(z, x+) - D_h(z, x) <= -alpha f / c; ``md_constant``'s ``alpha``; or
    ``md_backtracking``'s trials on the matrix ``a``, from ``alpha0`` or,
    where it is None, from the first trial at x0's gradient.
    """
    method = cfg.method
    kind = method.kind
    rule = _RULES.get(kind, _POLYAK)
    alpha0 = method.alpha0
    update = _UPDATES[kind]
    masked = update in _MASKED
    x = cfg.x0.copy()
    z = cfg.trace_reference
    if z is not None and z.shape != x.shape:
        raise DimensionMismatch("trace_reference length must match x0")
    checking = kind in ("md_polyak", "hd_plus_polyak") and cfg.check_descent and z is not None

    # one flat list: f, the stepsize and the l1 norm of each iteration in
    # turn, each followed by D_h(z, x) when tracing a reference
    records = []
    status = Status.MAX_ITERS
    iters_run = cfg.max_iters

    # overflow in f, g, the multiplicative update or the divergence on a
    # divergent run is expected and handled; suppress the warnings throughout
    err_state = np.seterr(all="ignore")
    try:
        d_prev = _dh_core(z, x) if z is not None else None
        if d_prev == math.inf:
            raise InfiniteDivergence("D_h(trace_reference, x0) overflowed to infinity")
        # a finite sum has finite entries, so the l1 norm doubles as the
        # finite check of each new iterate
        l1 = float(np.add.reduce(x))
        for k in range(cfg.max_iters):
            f, g = fg(x)
            if not math.isfinite(f):
                status, iters_run = Status.NUMERICAL_BREAKDOWN, k
                break
            if f <= cfg.f_tol:
                status, iters_run = Status.CONVERGED, k
                break
            # the max propagates NaN and inf, so it is also the finite check on g
            g_inf = float(np.maximum.reduce(np.abs(g)))
            if not g_inf < math.inf:
                status, iters_run = Status.NUMERICAL_BREAKDOWN, k
                break
            if rule == _BACKTRACKING:
                if alpha0 is None:
                    # iteration 0: x0's gradient, which the loop has checked to be finite
                    alpha0 = _first_trial(g)
                taken = _backtracking_stepsize(a, x, g, alpha0, method.shrink)
                if taken is None:
                    status, iters_run = Status.NUMERICAL_BREAKDOWN, k
                    break
                alpha, x_next, l1_next = taken
            else:
                alpha = method.alpha if rule == _FIXED else _polyak_stepsize(x, g, f, c, g_inf)
                if alpha is None:
                    status, iters_run = Status.NUMERICAL_BREAKDOWN, k
                    break
                x_next = update(x, g, alpha)
                l1_next = _frozen_sum(x, x_next, masked)

            records += (f, alpha, l1) if z is None else (f, alpha, l1, d_prev)

            l1 = l1_next
            if not math.isfinite(l1) and not np.logical_and.reduce(np.isfinite(x_next)):
                status, iters_run = Status.NUMERICAL_BREAKDOWN, k
                break

            if z is not None:
                d_next = _dh_core(z, x_next)
                if d_next == math.inf or (
                        checking and d_next - d_prev > -alpha * f / c + _DESCENT_TOL * (1.0 + d_prev)):
                    x = x_next
                    status, iters_run = Status.NUMERICAL_BREAKDOWN, k + 1
                    break
                d_prev = d_next
            x = x_next
    finally:
        np.seterr(**err_state)

    trace = np.array(records, dtype=float).view(_TRACE if z is None else _TRACE_REF).view(np.recarray)
    return SolveResult(x, status, iters_run, trace, heuristic=(kind == "hd_polyak"))


def solve(p: ProblemInstance, cfg: SolveConfig) -> SolveResult:
    """Run the configured scheme on ``p`` until f <= f_tol or max_iters.

    For ``md_polyak`` and ``hd_plus_polyak`` with a ``trace_reference`` in the
    solution set and ``check_descent`` enabled, each iteration must satisfy
    the certified divergence descent; a violation terminates with status
    ``NUMERICAL_BREAKDOWN``.
    """
    kind = cfg.method.kind
    n = p.n
    split = kind == "eg_pm"
    if cfg.x0.shape[0] != (2 * n if split else n):
        raise DimensionMismatch("eg_pm needs x0 of length 2 n, the concatenation (u0, v0)" if split
                                else "x0 length must equal the number of columns")
    res = _iterate(_objective_gradient(p, kind), cfg, a=p.a)
    if split:
        res.w_final, res.x_final = res.x_final, res.x_final[:n] - res.x_final[n:]
    return res


def _first_trial(g0: np.ndarray) -> float:
    """``md_backtracking``'s first trial stepsize where ``alpha0`` is None: 1.79 / ||g0||_inf
    for the gradient g0 at x0, or 1 where it vanishes."""
    g0_inf = float(np.maximum.reduce(np.abs(g0)))
    return EXP_QUAD_BOUND / g0_inf if g0_inf > 0 else 1.0


def _objective_gradient(p: ProblemInstance, kind: str):
    """The callback ``fg(x) -> (f, grad f)`` that :func:`solve` iterates on for ``kind``."""
    a, at, b, n = p.a, p.at, p.b, p.n
    if kind == "eg_pm":
        # eg_pm is md_polyak on w = (u, v) for the stacked matrix [A, -A]
        def fg(w):
            r = a @ (w[:n] - w[n:])
            r -= b
            g = at @ r
            return 0.5 * float(r @ r), np.concatenate([g, -g])
    else:
        def fg(x):
            r = a @ x
            r -= b
            return 0.5 * float(r @ r), at @ r
    return fg


def _stacked_gradients(a: np.ndarray, at: np.ndarray, b: np.ndarray,
                       x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The residual r = A x - b, shape (B, m, 1), and the gradient of each row of ``x``.

    ``np.matmul`` over the (B, n, 1) stack makes the same dgemv call per row
    as ``a @ x``; a GEMM block ``a @ X.T`` would round differently, and
    Polyak runs amplify that difference.
    """
    r = np.matmul(a, x[:, :, None])
    r[:, :, 0] -= b
    return r, np.matmul(at, r)[:, :, 0]


def _update_groups(updates: list, start: int = 0) -> list[tuple]:
    """(update, rows) for each stretch of adjacent rows from ``start`` on that share an update."""
    cuts = [i for i in range(start + 1, len(updates)) if updates[i] is not updates[i - 1]]
    bounds = [start, *cuts, len(updates)]
    return [(updates[lo], slice(lo, hi)) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]


def _mask_frozen(groups: list, x: np.ndarray, x_next: np.ndarray) -> None:
    """Set x_next to 0.0 where x is 0 in the rows of each group whose update masks."""
    for update, rows, *_ in groups:
        if update in _MASKED:
            block = x_next[rows]
            block[x[rows] == 0.0] = 0.0


# Rows of a batch's log: the records of this many iterations go to the
# traces at once
_LOG_ROWS = 64

# Iterations between a batch's marks, and the steps of a replayed stretch
_MARK_EVERY = 256


def _lockstep(p: ProblemInstance, methods: list[Method], x0: np.ndarray, iters: int,
              marks: np.ndarray | None = None) -> list[SolveResult]:
    """One solve of ``p`` per row of ``x0``, (runs, n), all advancing together.

    Run r is ``solve(p, SolveConfig(methods[r], x0[r], iters, f_tol=0.0))``,
    bit for bit in its whole trace, status, iteration count and final
    iterate.  Every kind in ``_RULES`` batches, on its rule there: the
    Polyak kinds take the Polyak rule with c = 1, ``md_constant`` its
    ``alpha``, and each ``md_backtracking`` run its own trials, so that
    only a run whose trial was rejected tries again; where ``alpha0`` is
    None, its first trial comes from its own gradient at x0, as in
    :func:`_iterate`.

    An iteration costs one stacked GEMV pair (:func:`_stacked_gradients`),
    and f is one ddot per row as ``r @ r`` is.

    The batch runs in windows of at most ``_LOG_ROWS`` iterations, none of
    which crosses a multiple of ``_LOG_ROWS``.  The f, stepsize and l1 norm
    of each iteration go to a log with one column per run, and the stacked
    ddot writes f there.  An iteration on which a run stops ends its window.
    The end of a window is the one place where runs end: it writes the log
    to the traces, records the end of each run that stopped, and drops
    those runs from the batch.  One scalar test on f and ||g||_inf passes
    the iterations on which no run stops; the exact per-run tests run only
    where it fails.

    Given ``marks``, (runs, ceil(iters / _MARK_EVERY), n), the batch
    copies each live run's x_k into ``marks[run, k // _MARK_EVERY]`` at
    every multiple k of ``_MARK_EVERY`` below ``iters``.

    The runs' traces are rows of one (runs, iters) record array.
    """
    a, at, b = p.a, p.at, p.b
    rows = len(methods)
    updates = [_UPDATES[m.kind] for m in methods]
    shrink = np.array([m.shrink for m in methods])
    x = np.array(x0, dtype=float)

    trace = np.recarray((rows, iters), _TRACE)
    records = (trace.f_value, trace.stepsize, trace.l1_norm)
    x_final = np.empty(np.shape(x0))
    status = [Status.MAX_ITERS] * rows
    # length is each run's record count, iters until it stops
    iters_run, length = np.full(rows, iters), np.full(rows, iters)
    # backtracking runs first, then constant stepsizes, then the Polyak runs,
    # those that share an update adjacent: md_constant's update is the
    # exponential one, so the constant and md_polyak runs update in one call
    live = np.array(sorted(range(rows), key=lambda r: (_RULES[methods[r].kind], updates[r].__name__)),
                    dtype=np.intp)
    # row i of the log holds the f, stepsize and l1 norm of record k0 + i of each run in live
    log = np.empty((3, _LOG_ROWS + 1, rows))

    err_state = np.seterr(all="ignore")
    try:
        # md_constant's stepsize and md_backtracking's first trial, NaN where
        # alpha0 is None until the run's gradient at x0 gives it
        first = np.array([m.alpha or m.alpha0 or math.nan for m in methods])
        x = x[live]
        np.add.reduce(x, axis=1, out=log[2, 0])
        k0 = 0
        while k0 < iters and live.size:
            # per-run constants and log views of the runs in live
            size = live.size
            rules = [_RULES[methods[r].kind] for r in live]
            n_bt, first_pol = rules.count(_BACKTRACKING), size - rules.count(_POLYAK)
            pol = slice(first_pol, None)
            # the stepsizes of an iteration, the fixed ones set here
            alpha = np.empty(size)
            alpha[n_bt:first_pol] = first[live[n_bt:first_pol]]
            alpha_pol, col = alpha[pol], alpha[:, None]
            groups = [(update, rows_, col[rows_]) for update, rows_ in _update_groups([updates[r] for r in live], n_bt)]
            bt_alpha0, bt_shrink = first[live[:n_bt]].tolist(), shrink[live[:n_bt]].tolist()
            f_log, s_log, l1_log = log[:, :, :size]
            f_out = f_log[:, :, None, None]
            # no window crosses a multiple of _LOG_ROWS, so every mark falls on a window's start
            if marks is not None and not k0 % _MARK_EVERY:
                marks[live, k0 // _MARK_EVERY] = x
            # the runs that stop in this iteration, and whether any does
            stop, stopping = np.zeros(size, dtype=bool), False
            for k in range(k0, min(k0 - k0 % _LOG_ROWS + _LOG_ROWS, iters)):
                j = k - k0
                r, g = _stacked_gradients(a, at, b, x)
                np.matmul(r.transpose(0, 2, 1), r, out=f_out[j])
                f = f_log[j]
                f *= 0.5
                g_inf = np.maximum.reduce(np.abs(g), axis=1)
                # every run steps where each f and ||g||_inf is positive and finite
                q = f * g_inf
                if not (np.minimum.reduce(q) > 0.0 and np.add.reduce(q) < math.inf):
                    # NaN fails every comparison; a Polyak run stops at a zero gradient
                    moving = (f > 0.0) & (f < math.inf) & (g_inf < math.inf)
                    moving[pol] &= g_inf[pol] > 0.0
                    stop = ~moving
                    length[live[stop]] = k
                    stopping = stop.any()
                x_next = np.empty_like(x)
                # each backtracking run's trials, which only it re-runs when rejected
                for i in range(n_bt):
                    if math.isnan(bt_alpha0[i]):
                        bt_alpha0[i] = first[live[i]] = _first_trial(g[i])
                    taken = _backtracking_stepsize(a, x[i], g[i], bt_alpha0[i], bt_shrink[i])
                    if taken is None:
                        stop[i], length[live[i]], stopping = True, k, True
                    else:
                        alpha[i], x_next[i] = taken[:2]
                if pol.start < size:
                    xp, gp = x[pol], g[pol]
                    wn = xp * gp
                    wn *= gp
                    wn = np.add.reduce(wn, axis=1)
                    np.divide(f[pol], wn, out=wn)
                    np.minimum(wn, EXP_QUAD_BOUND / g_inf[pol], out=alpha_pol)
                s_log[j] = alpha
                for update, rows_, col in groups:
                    update(x[rows_], g[rows_], col, out=x_next[rows_])
                # a run that stops keeps its iterate, whose entries are finite
                if stopping:
                    x_next[stop] = x[stop]
                # solve stops a run whose new iterate has a non-finite entry; the
                # entries are nonnegative, so finite l1 norms show none has
                l1 = np.add.reduce(x_next, axis=1, out=l1_log[j + 1])
                if not math.isfinite(np.add.reduce(l1)):
                    _mask_frozen(groups, x, x_next)
                    np.add.reduce(x_next, axis=1, out=l1_log[j + 1])
                    bad = ~np.logical_and.reduce(np.isfinite(x_next), axis=1)
                    length[live[bad]] = k + 1
                    x_next[bad] = x[bad]
                    stop |= bad
                    stopping = stop.any()
                x = x_next
                if stopping:
                    break
            # the window's end: its records go to the traces, and the runs
            # that stopped end at their iterate and leave
            count = k + 1 - k0
            for rec, part in zip(records, log[:, :count, :size]):
                rec[live, k0:k + 1] = part.T
            x_final[live] = x
            # with f_tol = 0 a run converges where f = 0; every other stop is a breakdown
            for r, converged in zip(live[stop], f_log[count - 1, stop] <= 0.0):
                iters_run[r], status[r] = k, Status.CONVERGED if converged else Status.NUMERICAL_BREAKDOWN
            go = ~stop
            x, live = x[go], live[go]
            log[2, 0, :live.size] = l1_log[count, go]
            k0 = k + 1
    finally:
        np.seterr(**err_state)

    return [SolveResult(x_final[r], status[r], int(iters_run[r]), trace[r, :length[r]],
                        heuristic=(method.kind == "hd_polyak")) for r, method in enumerate(methods)]


def _continue(p: ProblemInstance, methods: list[Method], x0: np.ndarray, runs: list[SolveResult],
              iters: int) -> None:
    """Run each of ``runs`` still at MaxIters on for ``iters`` iterations, in one second lockstep batch.

    ``runs[r]`` is the :func:`_lockstep` run of ``methods[r]`` from ``x0[r]``.
    It goes on from its final iterate and takes the status, iteration count
    (both calls' iterations) and final iterate of where the one longer solve
    ends, bit for bit; its trace stays that of the first call, and the
    continuation's records are dropped.  Every kind is memoryless but
    ``md_backtracking``, whose first trial from x0, where ``alpha0`` is None,
    is fixed as the continuation's ``alpha0``.
    """
    go = [r for r, res in enumerate(runs) if res.status is Status.MAX_ITERS]
    if not go or not iters:
        return
    resumed = []
    for r in go:
        m = methods[r]
        if m.kind == "md_backtracking" and m.alpha0 is None:
            m = Method.md_backtracking(_first_trial(_objective_gradient(p, m.kind)(x0[r])[1]), m.shrink)
        resumed.append(m)
    ends = _lockstep(p, resumed, np.array([runs[r].x_final for r in go]), iters)
    for r, end in zip(go, ends):
        res = runs[r]
        res.status, res.iters_run, res.x_final = end.status, res.iters_run + end.iters_run, end.x_final


def _replay_divergence(p: ProblemInstance, methods: list[Method], marks: np.ndarray, steps: list,
                       refs: np.ndarray) -> list[np.ndarray]:
    """D_h(refs[r], x_k) at each iterate x_k from which run r takes its step ``steps[r][k]``.

    ``steps[r]`` are stepsizes a :func:`solve` of ``methods[r]`` recorded,
    and ``marks`` holds the marks :func:`_lockstep` takes of each run,
    (runs, stretches, n).  A run replays one stretch of ``_MARK_EVERY``
    steps from each mark below its length, or of all steps where every run
    is shorter.  Every (run, stretch) pair is a row of one block that one
    loop advances, with no stepsize rule and no stop test, through its
    solve's iterates bit for bit: per step one divergence evaluation of the
    block, one stacked GEMV pair (:func:`_stacked_gradients`) and the rows'
    updates.  Steps past a run's end are 0, so no row leaves.  Entry r of
    the result is what solve r's trace records with
    ``trace_reference=refs[r]`` and ``check_descent=False``: it ends before
    the first later iterate at infinite divergence.

    Raises
    ------
    InfiniteDivergence
        If D_h(refs[r], x0) is infinite for some run.
    """
    a, at, b = p.a, p.at, p.b
    lengths = [len(recorded) for recorded in steps]
    stride = min(max([1, *lengths]), _MARK_EVERY)
    stretches = [-(-max(length, 1) // stride) for length in lengths]
    table = np.zeros((len(steps), max(stretches) * stride))
    for r, recorded in enumerate(steps):
        table[r, :lengths[r]] = recorded
    updates = [_UPDATES[m.kind] for m in methods]
    # runs that share an update adjacent, each run's stretches in order
    order = sorted(range(len(methods)), key=lambda r: updates[r].__name__)
    run, part = np.array([(r, s) for r in order for s in range(stretches[r])], dtype=np.intp).T
    groups = _update_groups([updates[r] for r in run])
    x, taken, ref = marks[run, part], table.reshape(len(steps), -1, stride)[run, part], refs[run]
    found = np.empty((run.size, stride))
    with np.errstate(all="ignore"):
        for k in range(stride):
            found[:, k] = _dh_core(ref, x)
            g = _stacked_gradients(a, at, b, x)[1]
            col = taken[:, k, None]
            x_next = np.empty_like(x)
            for update, rows_ in groups:
                update(x[rows_], g[rows_], col[rows_], out=x_next[rows_])
            if not math.isfinite(np.add.reduce(x_next, axis=None)):
                _mask_frozen(groups, x, x_next)
            x = x_next
    series = []
    for r, length in enumerate(lengths):
        d = found[run == r].ravel()
        if d[0] == math.inf:
            raise InfiniteDivergence("D_h(trace_reference, x0) overflowed to infinity")
        infinite = np.flatnonzero(d[:length] == math.inf)
        series.append(d[:infinite[0] if infinite.size else length])
    return series


def solve_convex(obj: ConvexObjective, cfg: SolveConfig) -> SolveResult:
    """Minimize a convex function with known optimum over the orthant.

    Same trace and stopping contract as :func:`solve`, with the objective
    gap f(x) - f* playing the role of f and the Polyak constant c = 2.
    Only the two certified schemes are supported (``md_polyak`` and
    ``hd_plus_polyak``).

    Raises
    ------
    DomainError
        If an observed value drops more than ``1e-9 * (1 + |f_star|)`` below
        ``f_star`` (the declared optimum is wrong) or the method is
        unsupported.
    DimensionMismatch
        If the gradient or ``trace_reference`` length differs from x0's.
    """
    if cfg.method.kind not in ("md_polyak", "hd_plus_polyak"):
        raise DomainError("solve_convex supports only md_polyak and hd_plus_polyak")
    f_star = float(obj.f_star)
    if not np.isfinite(f_star):
        raise DomainError("f_star must be finite")
    def fg(x):
        gap = float(obj.value(x)) - f_star
        if gap < -1e-9 * (1.0 + abs(f_star)):
            raise DomainError(f"observed value {gap + f_star!r} below the declared optimum")
        g = np.asarray(obj.gradient(x), dtype=float)
        if g.shape != x.shape:
            raise DimensionMismatch("gradient length must match x0")
        return max(gap, 0.0), g

    return _iterate(fg, cfg, c=2.0)
