"""The three workloads: their inputs, built from a seed, and their operations.

An operation is one call into a public entry point of entmd together with
the check of its output.  Calls go through module attributes looked up at
call time (``entmd.solve``, ``entmd.cli.main``) so that the tracer's
wrappers see them.

* ``desk-exp``: ``entmd.cli.main`` for ``exp1`` and ``exp2`` at their
  defaults (60x100, five exp1 methods, five exp2 scales) and ``solve
  --trace --out`` on the saved exp1 instance.  Bound by Python overhead.
* ``large-certified``: library ``solve`` at 1000x2000 with ``f_tol=0`` and a
  fixed budget: certified ``md_polyak`` and ``hd_plus_polyak``,
  ``md_backtracking`` and ``eg_pm``.  Bound by BLAS and memory.
* ``diagnostics``: ``rate_certificate`` (120x200), ``bias_report`` on
  worst-case constructions and on a dense 60x100 instance,
  ``l1_minimal_solution`` (8x12) and the instability construction (60x100).
  Bound by pure-Python linear algebra and a tolerance-stopped solve.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

import checks
import entmd
import entmd.cli


class Op(NamedTuple):
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], None]


def run_operation(op: Op) -> tuple[float, str | None]:
    """Time the call, then check its output; return (seconds, failure or None)."""
    t0 = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # any exception from an entry point is a failed operation
        return time.perf_counter() - t0, f"{op.name}: {type(exc).__name__}: {exc}"
    secs = time.perf_counter() - t0
    try:
        op.check(out)
    except checks.CheckFailed as exc:
        return secs, f"{op.name}: {exc}"
    except Exception as exc:  # malformed output that the check could not even parse
        return secs, f"{op.name}: check raised {type(exc).__name__}: {exc}"
    return secs, None


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = entmd.cli.main(argv)
    return rc, out.getvalue()


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------- desk-exp

def build_desk(seed: int, workdir: Path) -> dict:
    # the instance exp1 draws for this seed at its defaults: 60x100, sparsity 10
    p = entmd.gen_instance(entmd.InstanceSpec(60, 100, 10, seed=seed))
    path = workdir / "exp1_instance.json"
    entmd.cli.save_instance(p, path)
    return {"seed": seed, "instance": path}


def _check_experiment(out, outdir: Path, name: str, csvs: list[str], certified: list[str], digests: dict) -> None:
    rc, _ = out
    checks.require(rc == 0, f"{name} exited with code {rc}")
    sidecar = checks.read_sidecar(outdir / f"{name}_meta.txt")
    checks.no_breakdown(sidecar, certified)
    for csv in csvs:
        checks.same_digest(digests, outdir / csv)
    checks.cummin_columns_nonincreasing(outdir / f"{name}_cummin.csv", int(sidecar["iters"]))


def ops_desk(inp: dict, workdir: Path, state: dict) -> list[Op]:
    seed = str(inp["seed"])
    digests = state.setdefault("digests", {})
    exp1_dir, exp2_dir, solve_dir = workdir / "exp1", workdir / "exp2", workdir / "solve"
    trace_csv, x_json = solve_dir / "trace.csv", solve_dir / "x.json"

    def exp1():
        _fresh(exp1_dir)
        return run_cli(["exp1", "--seed", seed, "--out", str(exp1_dir)])

    def exp2():
        _fresh(exp2_dir)
        return run_cli(["exp2", "--seed", seed, "--out", str(exp2_dir)])

    def solve():
        _fresh(solve_dir)
        return run_cli(["solve", str(inp["instance"]), "--trace", str(trace_csv), "--out", str(x_json),
                        "--format", "json"])

    return [
        Op("cli exp1", exp1, lambda out: _check_experiment(
            out, exp1_dir, "exp1", ["exp1_cummin.csv", "exp1_divergence.csv"],
            ["md_polyak", "hd_plus_polyak", "md_backtracking"], digests)),
        Op("cli exp2", exp2, lambda out: _check_experiment(
            out, exp2_dir, "exp2", ["exp2_cummin.csv"], [], digests)),
        Op("cli solve", solve, lambda out: checks.cli_solve_output(
            out[1], out[0], inp["instance"], x_json, trace_csv)),
    ]


# --------------------------------------------------------- large-certified

LARGE_BUDGET = 200
LARGE_X0 = 1e-4


def build_large(seed: int, workdir: Path) -> dict:
    p = entmd.gen_instance(entmd.InstanceSpec(1000, 2000, 100, seed=seed))
    return {"p": p, "x0": np.full(p.n, LARGE_X0), "x0_split": np.full(2 * p.n, LARGE_X0)}


def ops_large(inp: dict, workdir: Path, state: dict) -> list[Op]:
    p, x0, x0_split = inp["p"], inp["x0"], inp["x0_split"]

    def run(method, start, reference=None):
        return lambda: entmd.solve(p, entmd.SolveConfig(method, start, max_iters=LARGE_BUDGET, f_tol=0.0,
                                                        trace_reference=reference))

    return [
        Op("solve md_polyak certified", run(entmd.Method.md_polyak(), x0, p.planted),
           lambda res: checks.budget_run(res, p, x0, LARGE_BUDGET, p.planted)),
        Op("solve hd_plus_polyak certified", run(entmd.Method.hd_plus_polyak(), x0, p.planted),
           lambda res: checks.budget_run(res, p, x0, LARGE_BUDGET, p.planted)),
        Op("solve md_backtracking", run(entmd.Method.md_backtracking(), x0),
           lambda res: checks.budget_run(res, p, x0, LARGE_BUDGET)),
        Op("solve eg_pm", run(entmd.Method.eg_pm(), x0_split),
           lambda res: checks.split_run(res, p, x0_split, LARGE_BUDGET)),
    ]


# ------------------------------------------------------------- diagnostics

WORST_CASE_ETAS = (5.0, 10.0, 20.0)
DENSE_ETA = 2.0
INSTABILITY_ALPHA = 1.0
L1_INSTANCES = 3


def fixed_spectrum(p, sigma: np.ndarray):
    """Same Haar factors and planted solution as ``p``, singular values ``sigma``.

    gen_instance draws the spectrum from |N(0, 1)|, so at 60x100 the
    smallest singular value ranges over 3e-4..7e-2 from seed to seed and a
    projection to f <= 1e-24 takes 5k to more than 200k iterations (then
    ConvergenceError).  Fixing the spectrum keeps the tolerance-stopped
    solve at a few thousand iterations for every seed.
    """
    u, _, vt = np.linalg.svd(p.a, full_matrices=False)
    a = (u * sigma) @ vt
    return entmd.ProblemInstance(a, a @ p.planted, planted=p.planted)


def build_diagnostics(seed: int, workdir: Path) -> dict:
    def gen(m, n, sparsity, k):
        return entmd.gen_instance(entmd.InstanceSpec(m, n, sparsity, seed=8 * seed + k))

    dense = gen(60, 100, None, 1)
    return {
        "seed": seed,
        # One certificate instance for every seed: the Jacobi eigensolver's
        # work varies with the instance (2.5 s to 6.2 s over twelve seeded
        # 120x200 instances), which would swamp the run-to-run spread.
        "rate": entmd.gen_instance(entmd.InstanceSpec(120, 200, None, seed=0)),
        "worst": [(eta, entmd.worst_case_construction(12, eta)) for eta in WORST_CASE_ETAS],
        "dense": fixed_spectrum(dense, np.geomspace(1.0, 0.02, 60)),
        "l1": [gen(8, 12, 4, 2 + j) for j in range(L1_INSTANCES)],
        "unstable": gen(60, 100, None, 2 + L1_INSTANCES),
    }


def ops_diagnostics(inp: dict, workdir: Path, state: dict) -> list[Op]:
    seed = inp["seed"]
    rate_p, dense, unstable = inp["rate"], inp["dense"], inp["unstable"]

    def bias(p, eta):
        return lambda: entmd.bias_report(p, eta, rng=entmd.seeded_rng(seed))

    def construct():
        state["instability"] = entmd.instability_construction(unstable, INSTABILITY_ALPHA)
        return state["instability"]

    ops = [Op("rate_certificate 120x200", lambda: entmd.rate_certificate(rate_p, rate_p.planted),
              lambda cert: checks.rate_certificate(cert, rate_p))]
    for eta, built in inp["worst"]:
        ops.append(Op(f"bias_report worst-case eta={eta:g}", bias(built.problem, eta),
                      lambda rep, built=built, eta=eta: checks.worst_case_report(rep, built, eta)))
    ops.append(Op("bias_report dense 60x100", bias(dense, DENSE_ETA),
                  lambda rep: checks.projection_report(rep, dense, DENSE_ETA)))
    for j, p in enumerate(inp["l1"]):
        ops.append(Op(f"l1_minimal_solution 8x12 #{j}", lambda p=p: entmd.l1_minimal_solution(p),
                      lambda z, p=p: checks.l1_objective(z, p)))
    ops.append(Op("instability_construction 60x100", construct,
                  lambda inst: checks.instability(inst, INSTABILITY_ALPHA)))
    ops.append(Op("instability_escape_distance 60x100",
                  lambda: entmd.instability_escape_distance(state["instability"]),
                  lambda dist: checks.escape(dist, state["instability"])))
    return ops


WORKLOADS = {
    "desk-exp": (build_desk, ops_desk),
    "large-certified": (build_large, ops_large),
    "diagnostics": (build_diagnostics, ops_diagnostics),
}

# Shapes whose bare matvec pair is the base of solvers.overhead_x.
SHAPES = {
    "desk-exp": [(60, 100)],
    "large-certified": [(1000, 2000)],
    "diagnostics": [(120, 200), (60, 100), (11, 12), (8, 12)],
}


def build(name: str, seed: int, workdir: Path) -> dict:
    return WORKLOADS[name][0](seed, workdir)


def operations(name: str, inputs: dict, workdir: Path, state: dict) -> list[Op]:
    return WORKLOADS[name][1](inputs, workdir, state)
