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

All schemes, and :func:`solve_convex`, run through one iteration loop that
differs only in the objective callback, the update rule and the stepsize
rule.  Every solve records a per-iteration trace (objective, stepsize, l1
norm and optionally the Bregman divergence to a reference point) and reports
one of three terminal statuses.  When a reference solution is supplied, the Polyak
schemes verify the per-iteration divergence descent inequality and flag any
numerical violation as a breakdown instead of silently continuing.  Runs on
one instance can also advance together in a lockstep batch on the same
update rules, each ending where its own solve ends, bit for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bregman import EXP_QUAD_BOUND, _dh_core, _dh_rows
from .errors import (
    BreakdownError,
    ConvergenceError,
    DimensionMismatch,
    DomainError,
    InfiniteDivergence,
)
from .linalg import as_matrix, as_vector

__all__ = [
    "Status",
    "Method",
    "ProblemInstance",
    "SolveConfig",
    "SolveResult",
    "ConvexObjective",
    "objective",
    "gradient",
    "polyak_stepsize",
    "md_step",
    "hd_plus_step",
    "hd_step",
    "egpm_step",
    "backtracking_stepsize",
    "solve",
    "solve_convex",
]


class Status(enum.Enum):
    CONVERGED = "Converged"
    MAX_ITERS = "MaxIters"
    NUMERICAL_BREAKDOWN = "NumericalBreakdown"


_KINDS = (
    "md_polyak",
    "hd_plus_polyak",
    "hd_polyak",
    "eg_pm",
    "md_constant",
    "md_backtracking",
    # resolved to a concrete md_constant by the experiment driver's grid search
    "md_constant_grid",
)


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
        if self.kind not in _KINDS:
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
    def md_constant_grid(cls) -> "Method":
        """Placeholder resolved by the experiment driver: the best constant
        stepsize from a log grid.  Not directly solvable."""
        return cls("md_constant_grid")

    @classmethod
    def md_backtracking(cls, alpha0: float | None = None, shrink: float = 0.5) -> "Method":
        return cls("md_backtracking", alpha0=None if alpha0 is None else float(alpha0), shrink=float(shrink))

    @property
    def label(self) -> str:
        if self.kind == "md_constant":
            return f"md_constant_{self.alpha:g}"
        return self.kind


@dataclass(eq=False)
class ProblemInstance:
    """A linear system A x = b, optionally with a known nonnegative solution."""

    a: np.ndarray
    b: np.ndarray
    planted: np.ndarray | None = None

    def __post_init__(self):
        self.a = as_matrix(self.a)
        self.b = as_vector(self.b)
        if self.b.shape[0] != self.a.shape[0]:
            raise DimensionMismatch("right-hand side length must equal the number of rows")
        if self.planted is not None:
            z = as_vector(self.planted)
            if z.shape[0] != self.a.shape[1]:
                raise DimensionMismatch("planted solution length must equal the number of columns")
            if np.any(z < 0):
                raise DomainError("planted solution must be nonnegative")
            resid = float(np.linalg.norm(self.a @ z - self.b))
            if resid > 1e-10 * (1.0 + float(np.linalg.norm(self.b))):
                raise DomainError(f"planted vector is not a solution (residual {resid:g})")
            self.planted = z

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]


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
        self.max_iters = int(self.max_iters)
        if self.max_iters < 1:
            raise DomainError("max_iters must be at least 1")
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
    """A convex function with known optimal value, for the generic solver.

    ``l_smooth`` is the gradient Lipschitz constant when known; it is carried
    as metadata (the stepsize rule does not need it).
    """

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    f_star: float
    l_smooth: float | None = None


def objective(p: ProblemInstance, x) -> float:
    """f(x) = 0.5 ||A x - b||^2."""
    x = as_vector(x)
    if x.shape[0] != p.n:
        raise DimensionMismatch("objective: vector length must equal the number of columns")
    r = p.a @ x - p.b
    return 0.5 * float(r @ r)


def gradient(p: ProblemInstance, x) -> np.ndarray:
    """grad f(x) = A^T (A x - b)."""
    x = as_vector(x)
    if x.shape[0] != p.n:
        raise DimensionMismatch("gradient: vector length must equal the number of columns")
    return p.a.T @ (p.a @ x - p.b)


def _polyak_stepsize(x: np.ndarray, g: np.ndarray, f: float, c: float, g_inf: float) -> float | None:
    """min(f / (c ||g||^2_x), 1.79 / g_inf) for f > 0, where g_inf = ||g||_inf; None for a zero gradient."""
    if g_inf == 0.0:
        return None
    cap = EXP_QUAD_BOUND / g_inf
    wn = float(np.add.reduce(x * g * g))
    return cap if wn == 0.0 else min(f / (c * wn), cap)


# The exp and hd updates work in place on one fresh array.  A coordinate
# with x_i == 0 stays exactly 0.0 whenever its multiplier is finite, so the
# explicit zero mask is needed only when the product is not all finite.
# The product is nonnegative, so a finite sum shows that it is; a sum that
# overflows merely masks entries that are 0.0 already.

def _exp_update(x: np.ndarray, g: np.ndarray, alpha) -> np.ndarray:
    """x * exp(-alpha g); for a (B, n) block of rows ``alpha`` may be a (B, 1) column of stepsizes."""
    out = np.multiply(g, -alpha)
    np.exp(out, out=out)
    out *= x
    if not math.isfinite(np.add.reduce(out, axis=None)):
        out[x == 0.0] = 0.0
    return out


def _hd_plus_update(x: np.ndarray, g: np.ndarray, alpha) -> np.ndarray:
    t = alpha * g
    return x * (1.0 - t + t * t)


def _hd_update(x: np.ndarray, g: np.ndarray, alpha) -> np.ndarray:
    mult = 1.0 - alpha * g
    out = x * mult
    out *= mult
    if not math.isfinite(np.add.reduce(out, axis=None)):
        out[x == 0.0] = 0.0
    return out


_UPDATES = {
    "md_polyak": _exp_update,
    "hd_plus_polyak": _hd_plus_update,
    "hd_polyak": _hd_update,
    "eg_pm": _exp_update,
    "md_constant": _exp_update,
    "md_backtracking": _exp_update,
}


def _finite_or_breakdown(out: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(out)):
        raise BreakdownError(f"non-finite iterate produced by {what}")
    return out


def _vector_pair(x, g, what: str) -> tuple[np.ndarray, np.ndarray]:
    x = as_vector(x)
    g = as_vector(g)
    if x.shape != g.shape:
        raise DimensionMismatch(f"{what}: iterate and gradient lengths differ")
    return x, g


def _stepsize_arg(alpha, what: str) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha < math.inf:
        raise DomainError(f"{what}: the stepsize must be finite and nonnegative")
    return alpha


def _step_args(x, g, alpha, what: str) -> tuple[np.ndarray, np.ndarray, float]:
    x, g = _vector_pair(x, g, what)
    if np.any(x < 0):
        raise DomainError(f"{what}: the iterate must be nonnegative")
    return x, g, _stepsize_arg(alpha, what)


def _checked_step(update, x, g, alpha: float, what: str) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        out = update(x, g, alpha)
    return _finite_or_breakdown(out, what)


def polyak_stepsize(x, g, f_gap: float, convex_mode: bool = False) -> float:
    """Adaptive stepsize min(f_gap / (c ||g||^2_x), 1.79 / ||g||_inf).

    ``c`` is 1 for the quadratic objective (``f_gap`` is f(x)) and 2 in
    ``convex_mode`` (``f_gap`` is f(x) - f*).  Returns 0 when the gap is 0.
    When the weighted norm vanishes on the boundary while the gradient does
    not, the cap term is returned.

    Raises
    ------
    DomainError
        If ``x`` has a negative entry, the gap is negative or not finite, or
        the gradient is identically zero while the gap is positive.
    """
    x, g = _vector_pair(x, g, "polyak_stepsize")
    if np.any(x < 0):
        raise DomainError("polyak_stepsize: weights must be nonnegative")
    f_gap = float(f_gap)
    if not 0.0 <= f_gap < np.inf:
        raise DomainError("polyak_stepsize: the objective gap must be finite and nonnegative")
    if f_gap == 0.0:
        return 0.0
    alpha = _polyak_stepsize(x, g, f_gap, 2.0 if convex_mode else 1.0, float(np.max(np.abs(g))))
    if alpha is None:
        raise DomainError("polyak_stepsize: zero gradient with a positive gap")
    return alpha


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
    x, g, alpha = _step_args(x, g, alpha, "md_step")
    return _checked_step(_exp_update, x, g, alpha, "md_step")


def hd_plus_step(x, g, alpha: float) -> np.ndarray:
    """Polynomial update x * (1 - alpha g + alpha^2 g^2).

    Requires ``alpha * ||g||_inf <= 1.79``; under that cap the multiplier is
    positive, so nonnegativity is preserved.  ``x`` and ``alpha`` must be
    nonnegative, ``alpha`` finite.
    """
    x, g, alpha = _step_args(x, g, alpha, "hd_plus_step")
    if alpha * float(np.max(np.abs(g))) > EXP_QUAD_BOUND * (1.0 + 1e-12):
        raise DomainError("hd_plus_step requires alpha * ||g||_inf <= 1.79")
    return _checked_step(_hd_plus_update, x, g, alpha, "hd_plus_step")


def hd_step(x, g, alpha: float) -> np.ndarray:
    """Squared multiplicative update x * (1 - alpha g)^2 (heuristic scheme).

    A coordinate where alpha * g_i = 1 lands exactly on zero.  ``x`` and
    ``alpha`` must be nonnegative, ``alpha`` finite.
    """
    x, g, alpha = _step_args(x, g, alpha, "hd_step")
    return _checked_step(_hd_update, x, g, alpha, "hd_step")


def egpm_step(u, v, g, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """One update of the positive/negative split scheme.

    ``g`` is the gradient of f at u - v; the two halves move with opposite
    exponents: u * exp(-alpha g) and v * exp(+alpha g).  ``alpha`` must be
    finite and nonnegative.
    """
    u = as_vector(u)
    v = as_vector(v)
    g = as_vector(g)
    alpha = _stepsize_arg(alpha, "egpm_step")
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        u_next = u * np.exp(-alpha * g)
        v_next = v * np.exp(alpha * g)
    u_next = np.where(u == 0.0, 0.0, u_next)
    v_next = np.where(v == 0.0, 0.0, v_next)
    _finite_or_breakdown(u_next, "egpm_step")
    _finite_or_breakdown(v_next, "egpm_step")
    return u_next, v_next


def _backtracking_stepsize(a: np.ndarray, x: np.ndarray, g: np.ndarray, alpha: float,
                           shrink: float) -> tuple[float, np.ndarray] | None:
    """:func:`backtracking_stepsize` on validated arrays: the accepted stepsize
    and its trial point ``x+``, or None where it raises.

    The caller suppresses numpy's floating-point warnings.
    """
    # A zero gradient on the support leaves x+ == x for every trial: alpha0
    # is accepted.  Elsewhere a trial whose x+ merely rounds to x is rejected.
    if not np.count_nonzero(g[x > 0.0]):
        return alpha, _exp_update(x, g, alpha)
    for _ in range(201):
        x_plus = _exp_update(x, g, alpha)
        # overflow, or a positive coordinate driven to zero (infinite D_h): not an admissible trial
        d_h = _dh_core(x, x_plus) if np.logical_and.reduce(np.isfinite(x_plus)) else math.inf
        if d_h < math.inf:
            dvec = a @ (x - x_plus)
            d_f = 0.5 * float(dvec @ dvec)
            if alpha * d_f < d_h:
                return alpha, x_plus
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


def _iterate(fg, cfg: SolveConfig, c: float = 1.0, step=None) -> SolveResult:
    """The iteration loop behind :func:`solve` and :func:`solve_convex`.

    ``fg(x)`` returns the objective (or gap) f and its gradient g at x.
    ``step(x, g)`` gives the stepsize and the next iterate, or None when no
    stepsize is admissible; by default it is the Polyak rule with constant
    ``c``, the same ``c`` that scales the descent certificate
    D_h(z, x+) - D_h(z, x) <= -alpha f / c, followed by the scheme's update.
    """
    kind = cfg.method.kind
    update = _UPDATES[kind]
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
            if step is None:
                alpha = _polyak_stepsize(x, g, f, c, g_inf)
                taken = None if alpha is None else (alpha, update(x, g, alpha))
            else:
                taken = step(x, g)
            if taken is None:
                status, iters_run = Status.NUMERICAL_BREAKDOWN, k
                break
            alpha, x_next = taken

            records += (f, alpha, l1) if z is None else (f, alpha, l1, d_prev)

            l1 = float(np.add.reduce(x_next))
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
    if kind == "md_constant_grid":
        raise DomainError("md_constant_grid must be resolved by the experiment driver")
    n = p.n
    split = kind == "eg_pm"
    if cfg.x0.shape[0] != (2 * n if split else n):
        raise DimensionMismatch("eg_pm needs x0 of length 2 n, the concatenation (u0, v0)" if split
                                else "x0 length must equal the number of columns")
    fg = _objective_gradient(p, kind)

    step = None
    if kind == "md_constant":
        alpha = cfg.method.alpha

        def step(x, g):
            return alpha, _exp_update(x, g, alpha)
    elif kind == "md_backtracking":
        alpha0, shrink = cfg.method.alpha0, cfg.method.shrink

        def step(x, g):
            # the first step is taken from x0, where the loop has checked g to be finite
            nonlocal alpha0
            if alpha0 is None:
                g0_inf = float(np.maximum.reduce(np.abs(g)))
                alpha0 = EXP_QUAD_BOUND / g0_inf if g0_inf > 0 else 1.0
            return _backtracking_stepsize(p.a, x, g, alpha0, shrink)

    res = _iterate(fg, cfg, step=step)
    if split:
        res.w_final, res.x_final = res.x_final, res.x_final[:n] - res.x_final[n:]
    return res


def _objective_gradient(p: ProblemInstance, kind: str):
    """The callback ``fg(x) -> (f, grad f)`` that :func:`solve` iterates on for ``kind``."""
    a, b, n = p.a, p.b, p.n
    at = np.ascontiguousarray(a.T)
    if kind == "eg_pm":
        # eg_pm is md_polyak on w = (u, v) for the stacked matrix [A, -A]
        def fg(w):
            r = a @ (w[:n] - w[n:]) - b
            g = at @ r
            return 0.5 * float(r @ r), np.concatenate([g, -g])
    else:
        def fg(x):
            r = a @ x - b
            return 0.5 * float(r @ r), at @ r
    return fg


def _lockstep(p: ProblemInstance, methods: list[Method], x0: np.ndarray, iters, keep: int = 0,
              given: list | None = None, visit=None) -> tuple[list[SolveResult], np.ndarray]:
    """One solve of ``p`` per row of ``x0``, all advancing together.

    Run r ends where ``solve(p, SolveConfig(methods[r], x0[r], max_iters,
    f_tol=0.0))`` ends, bit for bit in its iterates, trace, status and
    iteration count; ``iters`` is the ``max_iters`` of every run or a
    sequence of one per run.  The stepsize is the Polyak rule with c = 1,
    or ``alpha`` for ``md_constant``; with ``given``, run r takes the
    stepsizes ``given[r]`` instead, which replays a recorded run of any kind.
    A batch holds ``eg_pm`` runs only or none.  A run that stops leaves the
    batch.

    An iteration costs one stacked GEMV pair: ``np.matmul`` over a
    (B, n, 1) stack makes the same dgemv call per row as ``a @ x``, and f
    is one ddot per row as ``r @ r`` is.  A GEMM block ``a @ X.T`` would
    round differently, and Polyak runs amplify that difference.

    Returns one :class:`SolveResult` per run, whose trace holds the first
    ``keep`` records of its solve's trace, and the smallest f of each whole
    run (inf for a run without records).
    ``visit(k, live, x)``, if given, sees before the step of iteration k the
    iterate ``x[i]`` of each run ``live[i]`` that steps.
    """
    if given is None and any(m.kind == "md_backtracking" for m in methods):
        raise DomainError("md_backtracking runs in lockstep only with given stepsizes")
    a, b_col, n = p.a, p.b[:, None], p.n
    at = np.ascontiguousarray(a.T)
    rows = len(methods)
    split = any(m.kind == "eg_pm" for m in methods)
    updates = [_UPDATES[m.kind] for m in methods]
    budget = np.array(np.broadcast_to(iters, (rows,)), dtype=np.int64)
    polyak = np.array([given is None and m.kind != "md_constant" for m in methods], dtype=bool)
    constant = np.array([m.alpha if m.kind == "md_constant" else 0.0 for m in methods])
    if given is not None:
        replayed = np.zeros((rows, budget.max(initial=0)))
        for r, steps in enumerate(given):
            replayed[r, :budget[r]] = steps[:budget[r]]

    trace = np.recarray((rows, keep), _TRACE)
    f_rec, step_rec, l1_rec = trace.f_value, trace.stepsize, trace.l1_norm
    x_final = np.empty(np.shape(x0))
    status = [Status.MAX_ITERS] * rows
    iters_run, length, f_min = budget.copy(), budget.copy(), np.full(rows, np.inf)
    # the Polyak runs come last and runs that share an update stay adjacent
    # (md_constant's update is the exponential one), so the Polyak rule and
    # each update run on one slice
    live = np.array(sorted(range(rows), key=lambda r: (polyak[r], updates[r].__name__)), dtype=np.intp)
    x = np.array(x0, dtype=float)[live]
    fmin = np.full(rows, np.inf)
    l1 = np.add.reduce(x, axis=1)

    def regroup():
        """Per-run constants of the runs in ``live``."""
        nonlocal first_pol, rest, groups, next_end
        if live.size:
            first_pol = live.size - np.count_nonzero(polyak[live])
            rest = constant[live]
            cuts = [i for i in range(1, live.size) if updates[live[i]] is not updates[live[i - 1]]]
            bounds = [0, *cuts, live.size]
            groups = [(updates[live[lo]], lo, hi) for lo, hi in zip(bounds, bounds[1:])]
            next_end = budget[live].min()

    def leave(stop, k, stepped, statuses):
        """Runs ``live[stop]`` end at their current iterate after k iterations and ``k + stepped`` steps."""
        nonlocal x, fmin, l1, live
        idx = live[stop]
        iters_run[idx] = k
        length[idx] = k + stepped
        x_final[idx] = x[stop]
        f_min[idx] = fmin[stop]
        for r, s in zip(idx, statuses):
            status[r] = s
        go = ~stop
        x, fmin, l1, live = x[go], fmin[go], l1[go], live[go]
        regroup()
        return go

    first_pol = rest = groups = next_end = None
    regroup()
    err_state = np.seterr(all="ignore")
    try:
        for k in range(budget.max(initial=0)):
            if k == next_end:
                ended = budget[live] == k
                leave(ended, k, 0, [Status.MAX_ITERS] * np.count_nonzero(ended))
                if not live.size:
                    break
            r = np.matmul(a, (x[:, :n] - x[:, n:] if split else x)[:, :, None])
            r -= b_col
            f = 0.5 * np.matmul(r.transpose(0, 2, 1), r)[:, 0, 0]
            g = np.matmul(at, r)[:, :, 0]
            if split:
                g = np.concatenate((g, -g), axis=1)
            g_inf = np.maximum.reduce(np.abs(g), axis=1)
            # NaN fails every comparison; a Polyak run stops at a zero gradient
            moving = (f > 0.0) & (f < math.inf) & (g_inf < math.inf)
            if first_pol < live.size:
                moving[first_pol:] &= g_inf[first_pol:] > 0.0
            if np.count_nonzero(moving) < live.size:
                go = leave(~moving, k, 0, [Status.CONVERGED if c else Status.NUMERICAL_BREAKDOWN
                                           for c in f[~moving] <= 0.0])
                if not live.size:
                    break
                f, g, g_inf = f[go], g[go], g_inf[go]

            if given is not None:
                alpha = replayed[live, k]
            elif first_pol == 0:
                alpha = np.minimum(f / np.add.reduce(x * g * g, axis=1), EXP_QUAD_BOUND / g_inf)
            elif first_pol < live.size:
                pol = slice(first_pol, None)
                wn = np.add.reduce(x[pol] * g[pol] * g[pol], axis=1)
                alpha = np.concatenate((rest[:first_pol], np.minimum(f[pol] / wn, EXP_QUAD_BOUND / g_inf[pol])))
            else:
                alpha = rest
            if k < keep:
                f_rec[live, k] = f
                step_rec[live, k] = alpha
                l1_rec[live, k] = l1
            np.minimum(fmin, f, out=fmin)
            if visit is not None:
                visit(k, live, x)

            col = alpha[:, None]
            if len(groups) == 1:
                x_next = groups[0][0](x, g, col)
            else:
                x_next = np.concatenate([update(x[lo:hi], g[lo:hi], col[lo:hi]) for update, lo, hi in groups])
            # solve stops a run whose new iterate has a non-finite entry; the
            # entries are nonnegative, so finite l1 norms show none has
            l1_next = np.add.reduce(x_next, axis=1)
            if not math.isfinite(np.add.reduce(l1_next)):
                stop = ~np.logical_and.reduce(np.isfinite(x_next), axis=1)
                if stop.any():
                    go = leave(stop, k, 1, [Status.NUMERICAL_BREAKDOWN] * np.count_nonzero(stop))
                    if not live.size:
                        break
                    x_next, l1_next = x_next[go], l1_next[go]
            x, l1 = x_next, l1_next
    finally:
        np.seterr(**err_state)
    x_final[live] = x
    f_min[live] = fmin

    results = []
    for r, method in enumerate(methods):
        res = SolveResult(x_final[r], status[r], int(iters_run[r]), trace[r, :min(length[r], keep)],
                          heuristic=(method.kind == "hd_polyak"))
        if split:
            res.w_final, res.x_final = res.x_final, res.x_final[:n] - res.x_final[n:]
        results.append(res)
    return results, f_min


# Iterates per divergence evaluation of the replay: one (64, len(x0)) block per run
_REPLAY_BLOCK = 64


def _replay_divergence(p: ProblemInstance, methods: list[Method], x0: np.ndarray, steps: list,
                       refs: np.ndarray) -> list[np.ndarray]:
    """D_h(refs[r], x_k) at each iterate x_k from which run r takes its step ``steps[r][k]``.

    ``steps[r]`` are stepsizes a :func:`solve` of ``methods[r]`` from
    ``x0[r]`` recorded.  All runs replay them in one :func:`_lockstep` batch,
    with no stepsize rule, and so pass through their solves' iterates bit
    for bit.  Entry r of the result is what solve r's trace records with
    ``trace_reference=refs[r]`` and ``check_descent=False``: it ends before
    the first later iterate at infinite divergence.  One block of iterates
    per run is held at a time.

    Raises
    ------
    InfiniteDivergence
        If D_h(refs[r], x0[r]) is infinite for some run.
    """
    block = np.empty((len(methods), _REPLAY_BLOCK, x0.shape[1]))
    block[:, 0] = x0  # a run without steps still checks x0
    found = [[] for _ in methods]
    ended = [False] * len(methods)
    # a run visited at iteration k records its trace up to k
    lengths = np.zeros(len(methods), dtype=np.int64)

    def evaluate(r, start, count):
        if ended[r]:
            return
        d = _dh_rows(refs[r], block[r, :count])
        infinite = np.flatnonzero(d == math.inf)
        if infinite.size:
            if start + infinite[0] == 0:
                raise InfiniteDivergence("D_h(trace_reference, x0) overflowed to infinity")
            d, ended[r] = d[:infinite[0]], True
        found[r].append(d)

    def visit(k, live, x):
        lengths[live] = k + 1
        j = k % _REPLAY_BLOCK
        block[live, j] = x
        if j == _REPLAY_BLOCK - 1:
            for r in live:
                evaluate(r, k - j, _REPLAY_BLOCK)

    with np.errstate(all="ignore"):
        _lockstep(p, methods, x0, [len(s) for s in steps], given=steps, visit=visit)
        for r, length in enumerate(lengths):
            tail = max(length, 1) % _REPLAY_BLOCK
            if tail:
                evaluate(r, max(length, 1) - tail, tail)
    return [np.concatenate(d)[:length] for d, length in zip(found, lengths)]


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
