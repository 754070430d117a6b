"""Instance generation and the two benchmark experiments, emitting CSV.

Experiment 1 compares the five solver variants on one random instance:
cumulative-minimum objective and divergence to an estimated limit, per
iteration per method.  Experiment 2 sweeps initialization scales for the
exponential Polyak scheme.  All output is deterministic for a fixed config:
one CSV per panel plus a key=value sidecar with the generation parameters,
written with 17 significant digits and LF line endings.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DimensionMismatch, DomainError
from .linalg import max_col_norm_sq, random_orthogonal, seeded_rng
from .solvers import (_MARK_EVERY, Method, ProblemInstance, SolveConfig, SolveResult, Status, _lockstep,
                      _replay_divergence, solve)

__all__ = [
    "MD_CONSTANT_GRID",
    "InstanceSpec",
    "ExperimentConfig",
    "gen_instance",
    "grid_search_constant",
    "run_experiment1",
    "run_experiment2",
]


@dataclass(frozen=True)
class InstanceSpec:
    """Shape, sparsity and seed of a generated instance.

    ``sparsity=None`` plants a dense solution; otherwise exactly that many
    coordinates are nonzero.
    """

    m: int
    n: int
    sparsity: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise DomainError("m and n must be positive")
        if self.sparsity is not None and not (1 <= self.sparsity <= self.n):
            raise DomainError("sparsity must lie in [1, n] or be None for dense")
        if self.m > self.n:
            warnings.warn("m > n: the system is not underdetermined", stacklevel=2)


# An entry of ExperimentConfig.methods: the md_constant method whose stepsize
# grid_search_constant's grid picks, labelled md_constant_opt in the outputs.
MD_CONSTANT_GRID = "md_constant_grid"


@dataclass(eq=False)
class ExperimentConfig:
    spec: InstanceSpec
    methods: list[Method | str] = field(default_factory=lambda: [Method.md_polyak()])
    iters: int = 5_000
    limit_extra_iters: int = 5_000
    inits: list[float] = field(default_factory=lambda: [1e-4])
    out_path: str | Path = "."

    def __post_init__(self):
        if int(self.iters) < 1:
            raise DomainError("iters must be at least 1")
        if int(self.limit_extra_iters) < 0:
            raise DomainError("limit_extra_iters must be nonnegative")
        _method_labels(self.methods)
        # NaN fails both comparisons
        if not self.inits or not all(0.0 < s < np.inf for s in self.inits):
            raise DomainError("initialization scales must be finite and positive")
        self.out_path = Path(self.out_path)


def _method_labels(methods: list) -> list[str]:
    """The CSV column label of each entry of ``ExperimentConfig.methods``.

    Raises DomainError unless each entry is a Method or MD_CONSTANT_GRID and
    each label occurs once: a label names one CSV column and one status
    line of the sidecar.
    """
    if not all(isinstance(m, Method) or m == MD_CONSTANT_GRID for m in methods):
        raise DomainError("each method must be a Method or MD_CONSTANT_GRID")
    labels = ["md_constant_opt" if m == MD_CONSTANT_GRID else m.label for m in methods]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise DomainError(f"repeated method label {', '.join(repeated)}: each label is one CSV column")
    return labels


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


def _constant_grid(p: ProblemInstance, num: int = 25, span: tuple[float, float] = (1e-2, 1e2)) -> list[Method]:
    """The ``md_constant`` methods of :func:`grid_search_constant`'s grid, in ascending order."""
    lo, hi = float(span[0]), float(span[1])
    if num < 1 or not (0.0 < lo <= hi < np.inf):
        raise DomainError("the grid needs num >= 1 and finite 0 < span[0] <= span[1]")
    mc = max_col_norm_sq(p.a)
    if mc == 0.0:
        raise DomainError("the grid needs a nonzero matrix")
    return [Method.md_constant(float(alpha)) for alpha in np.geomspace(lo / mc, hi / mc, num)]


def _grid_winner(runs: list[SolveResult], f_min: np.ndarray, count: int) -> tuple[int, bool]:
    """The grid point that wins among the first ``count`` runs of a lockstep batch, whose minima are
    ``f_min``, and whether it reaches a finite objective; where none does, the smallest stepsize wins."""
    minima = np.where([res.status is Status.CONVERGED for res in runs[:count]], 0.0, f_min[:count])
    best = int(np.argmin(minima))
    return best, bool(np.isfinite(minima[best]))


def grid_search_constant(p: ProblemInstance, x0, iters: int, num: int = 25,
                         span: tuple[float, float] = (1e-2, 1e2)) -> tuple[float, SolveResult]:
    """Best fixed stepsize from a log grid, judged by the smallest objective
    reached within the budget.

    The grid spans ``span`` relative to 1 / max_col_norm_sq(A), which puts
    the stable regime inside the sweep for any matrix scaling.  The winner
    is the first grid point, in ascending order, whose ``md_constant`` solve
    of ``iters`` iterations reaches the strictly smallest objective (0 if it
    converges), and the result is that solve's, bit for bit.

    All grid points run together in one lockstep batch, whose stacked GEMV
    pair per iteration makes the same dgemv call per stepsize that a
    ``solve`` makes.  Each stepsize's minimum is therefore that of its own
    solve, bit for bit.  A GEMM block would not do: it rounds differently
    from GEMV, by ~1e-13 relative in the minima of this contractive grid,
    and for Polyak runs a 1e-16 difference grew to 3% in f within 100
    iterations and to 7x within 5000 (dense 60x100, x0 = 1e-8).

    The batch keeps every grid point's trace until the winner's is copied
    out: ``num * iters`` records of 24 B, 12.5 MB at the default ``num``
    and 20000 iterations.

    Raises
    ------
    DomainError
        If ``num < 1``, ``span`` is not finite with ``0 < span[0] <= span[1]``,
        A is zero, ``iters < 1``, ``x0`` is not finite and strictly positive,
        or no stepsize reaches a finite objective.
    DimensionMismatch
        If ``x0`` does not have length n.
    """
    grid = _constant_grid(p, num, span)
    # validates x0 and iters as a solve of each stepsize does
    cfg = SolveConfig(grid[0], x0, max_iters=iters, f_tol=0.0)
    if cfg.x0.shape[0] != p.n:
        raise DimensionMismatch("x0 length must equal the number of columns")
    runs, f_min = _lockstep(p, grid, np.tile(cfg.x0, (num, 1)), cfg.max_iters, keep=cfg.max_iters)
    best, finite = _grid_winner(runs, f_min, num)
    if not finite:
        raise DomainError("no stepsize in the grid reaches a finite objective")
    # a copy, not a view that keeps every grid point's records alive
    runs[best].trace = runs[best].trace.copy()
    return grid[best].alpha, runs[best]


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
        "singular_law": "half_normal",  # gen_instance's spectrum, |N(0, 1)|
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


def _padded(values: np.ndarray, length: int) -> np.ndarray:
    """Front-run of a per-iteration series padded to fixed length with its
    last value (runs that stop early hold their final level), or with inf
    for an empty series: a run without records is never read as converged."""
    out = np.empty(length)
    k = min(len(values), length)
    out[:k] = values[:k]
    out[k:] = values[k - 1] if k > 0 else np.inf
    return out


def _cummin(values: np.ndarray, length: int) -> np.ndarray:
    """The cumulative minimum of f, inf (the minimum over no values) for a run without records."""
    return np.minimum.accumulate(_padded(values, length))


def run_experiment1(cfg: ExperimentConfig) -> list[Path]:
    """Method comparison on one instance; writes two CSVs and a sidecar.

    Each method runs ``iters + limit_extra_iters`` iterations from
    ``inits[0] * ones``; the final iterate estimates the limit.  Panel one is
    the cumulative-minimum objective over the first ``iters`` iterations per
    method, panel two the divergence from the limit estimate to each iterate.
    ``MD_CONSTANT_GRID`` is the stepsize :func:`grid_search_constant` picks;
    where no grid stepsize reaches a finite objective, it is the smallest
    one, and its breakdown is recorded as another method's is.
    The grid's stepsizes and every method but ``eg_pm`` advance together in
    one lockstep batch, and the grid's winner is its own run there;
    ``eg_pm``, whose rows are 2n long, is solved alone.  Every run
    equals its own ``solve`` bit for bit.  Panel two replays the first
    ``iters`` stepsizes each run recorded, with no stepsize rule and no stop
    test, in 256-step stretches from the marks the batch takes of its runs
    (``eg_pm`` from x0), so it follows the runs' iterates bit for bit
    without storing them all.  A column ends at the first iterate whose
    divergence is infinite and holds its last value from there on; a run
    without records reads inf in both panels.

    Raises
    ------
    InfiniteDivergence
        If the divergence from the limit estimate to the start is infinite.
    """
    if not cfg.methods:
        raise DomainError("experiment 1 needs at least one method")
    p = gen_instance(cfg.spec)
    scale = cfg.inits[0]
    budget = cfg.iters + cfg.limit_extra_iters
    # the grid's stepsizes and every method but eg_pm run in one lockstep
    # batch; the grid's winner is its own row there
    grid = _constant_grid(p) if MD_CONSTANT_GRID in cfg.methods else []
    batched = [m for m in cfg.methods if m != MD_CONSTANT_GRID and m.kind != "eg_pm"]
    marks = np.zeros((len(grid) + len(batched), -(-cfg.iters // _MARK_EVERY), p.n))
    runs, f_min = _lockstep(p, grid + batched, np.full(marks[:, 0].shape, scale), budget, keep=cfg.iters,
                            marks=marks)
    best = _grid_winner(runs, f_min, len(grid))[0] if grid else None
    rows = iter(range(len(grid), len(runs)))
    row_of = [best if m == MD_CONSTANT_GRID else None if m.kind == "eg_pm" else next(rows) for m in cfg.methods]
    methods = [grid[best] if m == MD_CONSTANT_GRID else m for m in cfg.methods]
    labels = _method_labels(cfg.methods)
    results = [solve(p, SolveConfig(method, np.full(2 * p.n, scale), max_iters=budget, f_tol=0.0)) if row is None
               else runs[row] for method, row in zip(methods, row_of)]

    div_cols = [None] * len(methods)
    for split in (False, True):
        group = [i for i, row in enumerate(row_of) if (row is None) is split]
        if group:
            replayed = _replay_divergence(
                p, [methods[i] for i in group],
                np.full((len(group), 2 * p.n), scale) if split else marks[[row_of[i] for i in group]],
                [results[i].trace.stepsize[:cfg.iters] for i in group],
                np.array([np.clip(results[i].w_final if split else results[i].x_final, 0.0, None) for i in group]))
            for i, divergence in zip(group, replayed):
                div_cols[i] = _padded(divergence, cfg.iters)

    out = cfg.out_path
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "exp1_cummin.csv", out / "exp1_divergence.csv", out / "exp1_meta.txt"]
    _write_csv(paths[0], labels, [_cummin(res.trace.f_value, cfg.iters) for res in results])
    _write_csv(paths[1], labels, div_cols)
    _write_sidecar(paths[2], cfg, {"methods": ",".join(labels),
                                   **{f"status.{label}": res.status.value for label, res in zip(labels, results)}})
    return paths


def run_experiment2(cfg: ExperimentConfig) -> list[Path]:
    """Initialization-scale sweep for the exponential Polyak scheme.

    One cumulative-minimum objective column per scale in ``inits``.  The
    ``md_polyak`` runs of all scales advance together in one lockstep batch,
    each equal to its own ``solve`` bit for bit.
    """
    p = gen_instance(cfg.spec)
    runs, _ = _lockstep(p, [Method.md_polyak()] * len(cfg.inits), np.array([np.full(p.n, s) for s in cfg.inits]),
                        cfg.iters, keep=cfg.iters)
    labels = [f"x0_{scale:g}" for scale in cfg.inits]
    out = cfg.out_path
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "exp2_cummin.csv", out / "exp2_meta.txt"]
    _write_csv(paths[0], labels, [_cummin(res.trace.f_value, cfg.iters) for res in runs])
    _write_sidecar(paths[1], cfg, {"methods": "md_polyak",
                                   **{f"status.{label}": res.status.value for label, res in zip(labels, runs)}})
    return paths
