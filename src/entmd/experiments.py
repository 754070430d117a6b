"""Instance generation and the two benchmark experiments, emitting CSV.

Experiment 1 compares the five solver variants on one random instance:
cumulative-minimum objective and divergence to an estimated limit, per
iteration per method.  Experiment 2 sweeps initialization scales for the
exponential Polyak scheme.  All output is deterministic for a fixed config:
one CSV per panel plus a key=value sidecar with the generation parameters,
written with 17 significant digits and LF line endings.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DimensionMismatch, DomainError
from .linalg import max_col_norm_sq, random_orthogonal, seeded_rng
from .solvers import (Method, ProblemInstance, SolveConfig, SolveResult, Status, _constant_grid_minima,
                      _replay_divergence, solve)

__all__ = [
    "SingularLaw",
    "InstanceSpec",
    "ExperimentConfig",
    "gen_instance",
    "grid_search_constant",
    "run_experiment1",
    "run_experiment2",
]


class SingularLaw(enum.Enum):
    """Distribution of the nonzero singular values; both names draw |N(0,1)|
    (the absolute-normal reading of a normal spectrum for rectangular A)."""

    HALF_NORMAL = "half_normal"
    ABS_NORMAL = "abs_normal"


@dataclass(frozen=True)
class InstanceSpec:
    """Shape, sparsity and seed of a generated instance.

    ``sparsity=None`` plants a dense solution; otherwise exactly that many
    coordinates are nonzero.
    """

    m: int
    n: int
    sparsity: int | None = None
    singular_law: SingularLaw = SingularLaw.HALF_NORMAL
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise DomainError("m and n must be positive")
        if self.sparsity is not None and not (1 <= self.sparsity <= self.n):
            raise DomainError("sparsity must lie in [1, n] or be None for dense")
        if self.m > self.n:
            warnings.warn("m > n: the system is not underdetermined", stacklevel=2)


@dataclass(eq=False)
class ExperimentConfig:
    spec: InstanceSpec
    methods: list[Method] = field(default_factory=lambda: [Method.md_polyak()])
    iters: int = 5_000
    limit_extra_iters: int = 5_000
    inits: list[float] = field(default_factory=lambda: [1e-4])
    out_path: str | Path = "."

    def __post_init__(self):
        if int(self.iters) < 1:
            raise DomainError("iters must be at least 1")
        if int(self.limit_extra_iters) < 0:
            raise DomainError("limit_extra_iters must be nonnegative")
        if not self.inits or any(s <= 0 for s in self.inits):
            raise DomainError("initialization scales must be positive")
        self.out_path = Path(self.out_path)


def gen_instance(spec: InstanceSpec) -> ProblemInstance:
    """Draw A = U diag(sigma) V^T and a planted nonnegative solution.

    Deterministic given the seed; the draw order from one Philox stream is:
    the (m, m) Gaussian block behind U, the (n, n) block behind V, the
    min(m, n) singular values |N(0, 1)|, the support indices (uniform
    without replacement), and the support values (uniform on [0, 1]).
    """
    rng = seeded_rng(spec.seed)
    u = random_orthogonal(spec.m, rng)
    v = random_orthogonal(spec.n, rng)
    k = min(spec.m, spec.n)
    sigma = np.abs(rng.standard_normal(k))
    a = (u[:, :k] * sigma) @ v[:, :k].T
    z = np.zeros(spec.n)
    if spec.sparsity is None:
        z = rng.uniform(0.0, 1.0, spec.n)
    else:
        support = rng.choice(spec.n, size=spec.sparsity, replace=False)
        z[support] = rng.uniform(0.0, 1.0, spec.sparsity)
    return ProblemInstance(a, a @ z, planted=z)


# Grid stepsizes whose block minimum is within this relative distance of the
# best one are re-solved alone; block and single solves differ by ~1e-13.
_GRID_RTOL = 1e-9
_EPS = float(np.finfo(float).eps)


def grid_search_constant(p: ProblemInstance, x0, iters: int, num: int = 25,
                         span: tuple[float, float] = (1e-2, 1e2)) -> tuple[float, SolveResult]:
    """Best fixed stepsize from a log grid, judged by the smallest objective
    reached within the budget.

    The grid spans ``span`` relative to 1 / max_col_norm_sq(A), which puts
    the stable regime inside the sweep for any matrix scaling.  The winner
    is the first grid point, in ascending order, whose ``md_constant`` solve
    of ``iters`` iterations reaches the strictly smallest objective (0 if it
    converges), and the result is that solve's.

    All grid points run together as one block of iterates, which costs one
    GEMM pair per iteration instead of one ``solve`` per stepsize.  Only this
    grid is batched: constant-stepsize runs are contractive, so the block's
    per-stepsize minima agree with single solves to ~1e-13 relative.  Polyak
    runs are not; a 1e-16 difference between GEMM and GEMV grew to 3% in f
    within 100 iterations and to 7x within 5000 (dense 60x100, x0 = 1e-8).
    Because the block rounds differently, the chosen stepsize is re-solved
    alone, and stepsizes whose block minima lie within rounding of the best
    are re-solved too, so the choice and the returned result are those of
    ``solve`` itself.

    Raises
    ------
    DomainError
        If ``num < 1``, ``span`` is not finite with ``0 < span[0] <= span[1]``,
        A is zero, ``iters < 1``, ``x0`` is not finite and strictly positive,
        or no stepsize reaches a finite objective.
    DimensionMismatch
        If ``x0`` does not have length n.
    """
    lo, hi = float(span[0]), float(span[1])
    if num < 1 or not (0.0 < lo <= hi < np.inf):
        raise DomainError("the grid needs num >= 1 and finite 0 < span[0] <= span[1]")
    mc = max_col_norm_sq(p.a)
    if mc == 0.0:
        raise DomainError("the grid needs a nonzero matrix")
    grid = np.geomspace(lo / mc, hi / mc, num)
    # validates x0 and iters as every solve below does
    cfg = SolveConfig(Method.md_constant(float(grid[0])), x0, max_iters=iters, f_tol=0.0)
    if cfg.x0.shape[0] != p.n:
        raise DimensionMismatch("x0 length must equal the number of columns")
    minima = _constant_grid_minima(p.a, p.b, cfg.x0, grid, cfg.max_iters)
    lowest = float(np.min(minima))
    if not np.isfinite(lowest):
        raise DomainError("no stepsize in the grid reaches a finite objective")
    # rounding slack: relative, plus the objective's noise floor near zero
    slack = _GRID_RTOL * lowest + 0.5 * (p.n * _EPS * float(np.linalg.norm(p.b))) ** 2
    best_alpha = None
    best_res = None
    best_f = np.inf
    for alpha in grid[minima <= lowest + slack]:
        cfg = SolveConfig(Method.md_constant(float(alpha)), cfg.x0, max_iters=iters, f_tol=0.0)
        res = solve(p, cfg)
        f_min = min((rec.f_value for rec in res.trace), default=np.inf)
        if res.status is Status.CONVERGED:
            f_min = 0.0
        if f_min < best_f:
            best_f, best_alpha, best_res = f_min, float(alpha), res
    return best_alpha, best_res


def _write_csv(path: Path, labels: list[str], columns: list) -> None:
    """One row per index: the index, then each column's value with 17 significant digits.

    ``columns`` holds one iterable of floats per label; rows are written as
    they are formatted, so no copy of the table is built.
    """
    row = "%d" + ",%.17g" * len(columns) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write("iter," + ",".join(labels) + "\n")
        fh.writelines(row % (i, *vals) for i, vals in enumerate(zip(*columns)))


def _write_sidecar(path: Path, cfg: ExperimentConfig, extra: dict) -> None:
    spec = cfg.spec
    lines = {
        "m": spec.m,
        "n": spec.n,
        "sparsity": "dense" if spec.sparsity is None else spec.sparsity,
        "singular_law": spec.singular_law.value,
        "seed": spec.seed,
        "iters": cfg.iters,
        "limit_extra_iters": cfg.limit_extra_iters,
        "inits": ",".join("%.17g" % s for s in cfg.inits),
        "version": __version__,
    }
    lines.update(extra)
    with open(path, "w", newline="\n") as fh:
        for key, value in lines.items():
            fh.write(f"{key}={value}\n")


def _padded(values: list[float] | np.ndarray, length: int, fallback: float = 0.0) -> np.ndarray:
    """Front-run of a per-iteration series padded to fixed length with its
    last value (runs that stop early hold their final level)."""
    out = np.empty(length)
    k = min(len(values), length)
    out[:k] = values[:k]
    out[k:] = values[k - 1] if k > 0 else fallback
    return out


def _cummin(values: list[float], length: int) -> np.ndarray:
    if not values:
        return np.zeros(length)
    return np.minimum.accumulate(_padded(values, length))


def run_experiment1(cfg: ExperimentConfig) -> list[Path]:
    """Method comparison on one instance; writes two CSVs and a sidecar.

    Each method runs ``iters + limit_extra_iters`` iterations from
    ``inits[0] * ones``; the final iterate estimates the limit.  Panel one is
    the cumulative-minimum objective over the first ``iters`` iterations per
    method, panel two the divergence from the limit estimate to each iterate.
    Panel two replays the first ``iters`` stepsizes the run recorded, with no
    stepsize rule, so it follows the run's iterates bit for bit without
    storing them.  It ends at the first iterate whose divergence is infinite
    and holds its last value from there on.

    Raises
    ------
    InfiniteDivergence
        If the divergence from the limit estimate to the start is infinite.
    """
    if not cfg.methods:
        raise DomainError("experiment 1 needs at least one method")
    p = gen_instance(cfg.spec)
    scale = cfg.inits[0]
    cummin_cols: list[np.ndarray] = []
    div_cols: list[np.ndarray] = []
    labels: list[str] = []
    statuses: dict[str, str] = {}

    for method in cfg.methods:
        if method.kind == "md_constant_grid":
            x0 = np.full(p.n, scale)
            alpha, long_res = grid_search_constant(p, x0, cfg.iters + cfg.limit_extra_iters)
            resolved = Method.md_constant(alpha)
            label = "md_constant_opt"
        else:
            resolved = method
            label = method.label
            x0 = np.full(p.n * 2 if method.kind == "eg_pm" else p.n, scale)
            long_res = solve(p, SolveConfig(resolved, x0,
                                            max_iters=cfg.iters + cfg.limit_extra_iters,
                                            f_tol=0.0))
        limit_est = long_res.x_final if resolved.kind != "eg_pm" else long_res.w_final
        divergence = _replay_divergence(p, resolved, x0, [r.stepsize for r in long_res.trace[:cfg.iters]],
                                        np.clip(limit_est, 0.0, None))
        labels.append(label)
        statuses[f"status.{label}"] = long_res.status.value
        cummin_cols.append(_cummin([r.f_value for r in long_res.trace], cfg.iters))
        div_cols.append(_padded(divergence, cfg.iters))

    out = cfg.out_path
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "exp1_cummin.csv", out / "exp1_divergence.csv", out / "exp1_meta.txt"]
    _write_csv(paths[0], labels, cummin_cols)
    _write_csv(paths[1], labels, div_cols)
    _write_sidecar(paths[2], cfg, {"methods": ",".join(labels), **statuses})
    return paths


def run_experiment2(cfg: ExperimentConfig) -> list[Path]:
    """Initialization-scale sweep for the exponential Polyak scheme.

    One cumulative-minimum objective column per scale in ``inits``.
    """
    p = gen_instance(cfg.spec)
    labels = []
    cols = []
    statuses = {}
    for scale in cfg.inits:
        label = f"x0_{scale:g}"
        res = solve(p, SolveConfig(Method.md_polyak(), np.full(p.n, scale),
                                   max_iters=cfg.iters, f_tol=0.0))
        labels.append(label)
        statuses[f"status.{label}"] = res.status.value
        cols.append(_cummin([r.f_value for r in res.trace], cfg.iters))
    out = cfg.out_path
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "exp2_cummin.csv", out / "exp2_meta.txt"]
    _write_csv(paths[0], labels, cols)
    _write_sidecar(paths[1], cfg, {"methods": "md_polyak"})
    return paths
