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
from .linalg import _aligned_empty, max_col_norm_sq, random_orthogonal, seeded_rng
from .solvers import (_MARK_EVERY, _RULES, Method, ProblemInstance, SolveConfig, SolveResult, Status, _continue,
                      _lockstep, _replay_divergence, _whole, solve)

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
    coordinates are nonzero.  Each is a whole number, stored as an int:
    ``m``, ``n`` and ``sparsity`` at least 1, ``seed`` at least 0.
    """

    m: int
    n: int
    sparsity: int | None = None
    seed: int = 0

    def __post_init__(self):
        for name, least in (("m", 1), ("n", 1), ("sparsity", 1), ("seed", 0)):
            if name != "sparsity" or self.sparsity is not None:
                object.__setattr__(self, name, _whole(getattr(self, name), name, least))
        if self.sparsity is not None and self.sparsity > self.n:
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
        self.iters = _whole(self.iters, "iters", 1)
        self.limit_extra_iters = _whole(self.limit_extra_iters, "limit_extra_iters", 0)
        _method_labels(self.methods)
        # NaN fails both comparisons
        if not self.inits or not all(0.0 < s < np.inf for s in self.inits):
            raise DomainError("initialization scales must be finite and positive")
        self.out_path = Path(self.out_path)


def _distinct(labels: list[str]) -> list[str]:
    """``labels``; DomainError naming each label that occurs more than once,
    since a label names one CSV column and one status line of the sidecar."""
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise DomainError(f"repeated column label {', '.join(repeated)}: each label is one CSV column")
    return labels


def _method_labels(methods: list) -> list[str]:
    """The CSV column label of each entry of ``ExperimentConfig.methods``.

    Raises DomainError unless each entry is a Method or MD_CONSTANT_GRID and
    each label occurs once.
    """
    if not all(isinstance(m, Method) or m == MD_CONSTANT_GRID for m in methods):
        raise DomainError("each method must be a Method or MD_CONSTANT_GRID")
    return _distinct(["md_constant_opt" if m == MD_CONSTANT_GRID else m.label for m in methods])


def gen_instance(spec: InstanceSpec) -> ProblemInstance:
    """Draw A = U diag(sigma) V^T and a planted nonnegative solution.

    Deterministic given the seed; the draw order from one Philox stream is:
    the (m, m) Gaussian block behind U, the (n, n) block behind V, the
    min(m, n) singular values |N(0, 1)|, the support indices (uniform
    without replacement), and the support values (uniform on [0, 1]).

    U's block is drawn twice: it is skipped in the stream, and once V is
    formed it is drawn again from a fresh generator for the same seed, whose
    first draw is that same block.  So U is not alive during the QR of V's
    block, the memory peak of a large instance, and the bytes are those of
    the draw order above.  A is written into a 64-byte aligned array.
    """
    rng = seeded_rng(spec.seed)
    rng.standard_normal((spec.m, spec.m))
    v = random_orthogonal(spec.n, rng)
    u = random_orthogonal(spec.m, seeded_rng(spec.seed))
    k = min(spec.m, spec.n)
    sigma = np.abs(rng.standard_normal(k))
    a = np.matmul(u[:, :k] * sigma, v[:, :k].T, out=_aligned_empty((spec.m, spec.n)))
    z = np.zeros(spec.n)
    if spec.sparsity is None:
        z = rng.uniform(0.0, 1.0, spec.n)
    else:
        support = rng.choice(spec.n, size=spec.sparsity, replace=False)
        z[support] = rng.uniform(0.0, 1.0, spec.sparsity)
    return ProblemInstance(a, a @ z, planted=z)


def _constant_grid(p: ProblemInstance) -> list[Method]:
    """The 25 ``md_constant`` methods of :func:`grid_search_constant`'s grid, in ascending order."""
    mc = max_col_norm_sq(p.a)
    if mc == 0.0:
        raise DomainError("the grid needs a nonzero matrix")
    return [Method.md_constant(float(alpha)) for alpha in np.geomspace(1e-2 / mc, 1e2 / mc, 25)]


def _grid_winner(runs: list[SolveResult], count: int) -> tuple[int, bool]:
    """The grid point that wins among the first ``count`` runs of a lockstep batch, and whether it
    reaches a finite objective; where none does, the smallest stepsize wins."""
    minima = [0.0 if res.status is Status.CONVERGED else res.trace.f_value.min(initial=np.inf)
              for res in runs[:count]]
    best = int(np.argmin(minima))
    return best, bool(np.isfinite(minima[best]))


def grid_search_constant(p: ProblemInstance, x0, iters: int) -> tuple[float, SolveResult]:
    """Best fixed stepsize from a log grid, judged by the smallest objective
    reached within the budget.

    Experiment 1's ``MD_CONSTANT_GRID`` is this function's stepsize with
    ``iters`` its plotted iterations: the grid is judged over those, and
    only the winner's run continues past them, for its limit estimate.

    The grid is 25 points spaced geometrically from 1e-2 to 1e2 times
    1 / max_col_norm_sq(A), which puts the stable regime inside the sweep
    for any matrix scaling.  The winner is the first grid point, in
    ascending order, whose ``md_constant`` solve of ``iters`` iterations
    reaches the strictly smallest objective (0 if it converges), and the
    result is that solve's, bit for bit.

    All grid points run together in one lockstep batch, whose stacked GEMV
    pair per iteration makes the same dgemv call per stepsize that a
    ``solve`` makes.  Each stepsize's run is therefore its own solve, bit
    for bit, and its minimum is the minimum of its trace.  A GEMM block
    would not do: it rounds differently from GEMV, by ~1e-13 relative in
    the minima of this contractive grid, and for Polyak runs a 1e-16
    difference grew to 3% in f within 100 iterations and to 7x within
    5000 (dense 60x100, x0 = 1e-8).

    The batch keeps every grid point's trace until the winner's is copied
    out: 25 * ``iters`` records of 24 B, 12 MB at 20000 iterations.

    Raises
    ------
    DomainError
        If A is zero, ``iters < 1``, ``x0`` is not finite and strictly positive,
        or no stepsize reaches a finite objective.
    DimensionMismatch
        If ``x0`` does not have length n.
    """
    grid = _constant_grid(p)
    # validates x0 and iters as a solve of each stepsize does
    cfg = SolveConfig(grid[0], x0, max_iters=_whole(iters, "iters", 1), f_tol=0.0)
    if cfg.x0.shape[0] != p.n:
        raise DimensionMismatch("x0 length must equal the number of columns")
    runs = _lockstep(p, grid, np.tile(cfg.x0, (len(grid), 1)), cfg.max_iters)
    best, finite = _grid_winner(runs, len(grid))
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
    ``MD_CONSTANT_GRID`` is the stepsize ``grid_search_constant(p, x0, iters)``
    picks, the best over the plotted iterations; where no grid stepsize
    reaches a finite objective, it is the smallest one, and its breakdown is
    recorded as another method's is.
    The grid's stepsizes and every method but ``eg_pm`` advance together in
    one lockstep batch of n-wide runs for ``iters`` iterations, and the
    grid's winner is its own run there.  Only the winner and the other
    batched methods' runs still at MaxIters go on, in a second batch of
    ``limit_extra_iters`` iterations from their iterates (:func:`_continue`);
    ``eg_pm``, whose runs are 2n wide, is solved alone.  Each method's run
    ends where its own ``solve`` of ``iters + limit_extra_iters`` iterations
    ends, bit for bit.  For the batch, panel two replays the first ``iters``
    stepsizes each run recorded, with no stepsize rule and no stop test, in
    256-step stretches from the marks the batch takes of its runs, so it
    follows the runs' iterates bit for bit without storing them all.
    ``eg_pm``'s column is a second solve of its first ``iters`` iterations
    traced against its clipped limit estimate.  A column ends at the first iterate whose
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
    # batch of iters iterations; the grid's winner is its own row there
    grid = _constant_grid(p) if MD_CONSTANT_GRID in cfg.methods else []
    batch = grid + [m for m in cfg.methods if m != MD_CONSTANT_GRID and m.kind in _RULES]
    marks = np.zeros((len(batch), -(-cfg.iters // _MARK_EVERY), p.n))
    runs = _lockstep(p, batch, np.full(marks[:, 0].shape, scale), cfg.iters, marks=marks)
    best = _grid_winner(runs, len(grid))[0] if grid else None
    # past iters only the limit estimates are needed: the winner and the
    # other rows go on from their iterates, those still at MaxIters
    go = [r for r in range(len(runs)) if r == best or r >= len(grid)]
    _continue(p, [batch[r] for r in go], np.full((len(go), p.n), scale), [runs[r] for r in go], cfg.limit_extra_iters)
    rows = iter(range(len(grid), len(runs)))
    row_of = [best if m == MD_CONSTANT_GRID else next(rows) if m.kind in _RULES else None for m in cfg.methods]
    methods = [grid[best] if m == MD_CONSTANT_GRID else m for m in cfg.methods]
    labels = _method_labels(cfg.methods)
    results = [solve(p, SolveConfig(method, np.full(2 * p.n, scale), max_iters=budget, f_tol=0.0)) if row is None
               else runs[row] for method, row in zip(methods, row_of)]

    div_cols = [None] * len(methods)
    group = [i for i, row in enumerate(row_of) if row is not None]
    if group:
        replayed = _replay_divergence(p, [methods[i] for i in group], marks[[row_of[i] for i in group]],
                                      [results[i].trace.stepsize[:cfg.iters] for i in group],
                                      np.array([np.clip(results[i].x_final, 0.0, None) for i in group]))
        for i, divergence in zip(group, replayed):
            div_cols[i] = _padded(divergence, cfg.iters)
    for i, row in enumerate(row_of):
        if row is None:
            traced = solve(p, SolveConfig(methods[i], np.full(2 * p.n, scale), max_iters=cfg.iters, f_tol=0.0,
                                          trace_reference=np.clip(results[i].w_final, 0.0, None),
                                          check_descent=False))
            div_cols[i] = _padded(traced.trace.d_h_to_ref, cfg.iters)

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

    One cumulative-minimum objective column per scale in ``inits``, labelled
    ``x0_{scale:g}``; two scales with one label raise DomainError before any
    run.  The ``md_polyak`` runs of all scales advance together in one
    lockstep batch, each equal to its own ``solve`` bit for bit.
    """
    labels = _distinct([f"x0_{scale:g}" for scale in cfg.inits])
    p = gen_instance(cfg.spec)
    runs = _lockstep(p, [Method.md_polyak()] * len(cfg.inits), np.array([np.full(p.n, s) for s in cfg.inits]),
                     cfg.iters)
    out = cfg.out_path
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "exp2_cummin.csv", out / "exp2_meta.txt"]
    _write_csv(paths[0], labels, [_cummin(res.trace.f_value, cfg.iters) for res in runs])
    _write_sidecar(paths[1], cfg, {"methods": "md_polyak",
                                   **{f"status.{label}": res.status.value for label, res in zip(labels, runs)}})
    return paths
