"""Microseconds per iteration of entmd's loops and per phase call, seconds per exp1, MB per gen_instance, best of N.

Usage, from the root of a checkout::

    python3 tools/per_iter.py [--repeat 5] [--shapes 60x100,300x500] [--json PATH]

Each shape is ``gen_instance(InstanceSpec(m, n, sparsity, seed=1))`` with
sparsity 10 at 60x100 and 30 at 300x500, started at 1e-4 * ones as exp1
starts, and run for 2000 iterations at 60x100 and 400 at 300x500.  Rows:

* ``solve``: one ``md_polyak`` solve;
* ``solve backtracking``: one ``md_backtracking`` solve;
* ``solve ref``: one ``md_polyak`` solve traced against the planted
  solution with the descent check, the certified path;
* ``batch 1``, ``batch 5``, ``batch 28``: one lockstep batch of one
  ``md_polyak`` run, of ``md_polyak`` from five start scales (exp2's), and
  of exp1's 25 grid stepsizes with ``md_polyak``, ``hd_polyak`` and
  ``hd_plus_polyak``; the time is per batch iteration, not per row;
* ``replay 5``: the divergence replay of exp1's five methods from the
  marks of their lockstep batch, as exp1 replays them;
* ``matvec pair``: a bare ``at @ (a @ x - b)``, the floor of one iteration;
* the phases of an iteration, each timed alone, in microseconds per call,
  at the ``md_polyak`` run's iterate x after the shape's iteration count
  and the gradient g there:

  - ``polyak stepsize``: ``_polyak_stepsize`` from x;
  - ``exp update 1`` and ``hd_plus update 1``: ``_exp_mult`` against
    ``_hd_plus_update`` on x, as ``solve`` calls them;
  - ``exp update 28`` and ``hd_plus update 28``: the same on a 28-row
    block with a column of stepsizes, into an ``out`` block, as a batch of
    exp1's 25 grid stepsizes and three Polyak runs calls them;
  - ``dh dense ref`` and ``dh sparse ref``: ``_dh_core`` from the
    ``md_polyak`` run's limit estimate, which is dense, and from the planted
    solution, which has the shape's sparsity, to x;
* ``exp1 (s)``: one ``run_experiment1`` on the shape's instance with the
  CLI's default methods, ``iters`` and ``limit_extra_iters`` both the
  shape's iteration count, writing its files to a temporary directory; the
  time is seconds per call;
* ``gen_instance (MB)``: the growth of the peak resident set over one
  ``gen_instance`` call in a fresh child process, at each shape and at
  1000x2000 with sparsity 100, the instance of perfbench's
  ``large-certified`` workload.  At 1000x2000 it is the QR of the 2000x2000
  Gaussian block behind V; at 60x100 it is mostly the first LAPACK call's
  one-time buffers.  The child reads its own ``VmHWM`` (Linux), not
  ``ru_maxrss``: Linux carries ``ru_maxrss`` across ``exec`` from the
  process that started the child, which here is larger than the child.

The numbers measure the checkout this script is run from, through the
package's private loops, so a before/after table comes from running it in
two checkouts on the same machine.  ``--json PATH`` also writes the commit,
the machine (``perfbench/envinfo.py``), the repeat count and, per row and
shape, the min and the median of the calls, under ``us_per_iter``, under
``us_per_call`` for the phases, under ``s_per_call`` for the ``exp1 (s)``
row, or under ``mb_per_call`` for the ``gen_instance (MB)`` row.  Every run
uses one BLAS thread.
"""

import os

# one BLAS thread, set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from entmd import (MD_CONSTANT_GRID, ExperimentConfig, InstanceSpec, Method, SolveConfig, gen_instance,  # noqa: E402
                   run_experiment1, solve)
from entmd.experiments import _constant_grid  # noqa: E402
from entmd.bregman import _dh_core  # noqa: E402
from entmd.solvers import (_MARK_EVERY, _exp_mult, _hd_plus_update, _lockstep, _polyak_stepsize,  # noqa: E402
                           _replay_divergence)
from envinfo import environment  # noqa: E402

SHAPES = {"60x100": (60, 100, 10, 2000), "300x500": (300, 500, 30, 400)}
X0 = 1e-4
EXP2_SCALES = (1e-8, 1e-6, 1e-4, 1e-2, 1.0)
POLYAK = [Method.md_polyak(), Method.hd_polyak(), Method.hd_plus_polyak()]
EXP1 = "exp1 (s)"  # the one row timed in seconds per call
GEN_MB = "gen_instance (MB)"  # the one row measured in MB per call, on its own shapes
LARGE = {"1000x2000": (1000, 2000, 100)}  # perfbench's large-certified instance
# run in a fresh interpreter, so that no earlier allocation hides the call's peak
GEN_MB_CHILD = """
import sys
from entmd import InstanceSpec, gen_instance

def peak_mb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024

spec = InstanceSpec(*map(int, sys.argv[1:]), seed=1)
before = peak_mb()
gen_instance(spec)
print(peak_mb() - before)
"""
BLOCK = 28  # the rows of exp1's grid and its three Polyak runs
PHASES = ("polyak stepsize", "exp update 1", "hd_plus update 1", f"exp update {BLOCK}", f"hd_plus update {BLOCK}",
          "dh dense ref", "dh sparse ref")


def seconds(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def gen_instance_mb(m: int, n: int, sparsity: int) -> float:
    """MB by which one ``gen_instance`` call raises a fresh process's peak resident set."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", GEN_MB_CHILD, str(m), str(n), str(sparsity)], env=env,
                          capture_output=True, text=True, check=True)
    return float(done.stdout)


def cases(m: int, n: int, sparsity: int, iters: int, tmp: str):
    spec = InstanceSpec(m, n, sparsity, seed=1)
    p = gen_instance(spec)
    x0 = np.full(n, X0)
    grid = _constant_grid(p)
    exp1_methods = [grid[len(grid) // 2], Method.md_backtracking(), *POLYAK]
    marks = np.zeros((len(exp1_methods), -(-iters // _MARK_EVERY), n))
    runs = _lockstep(p, exp1_methods, np.tile(x0, (len(exp1_methods), 1)), iters, marks=marks)
    steps = [res.trace.stepsize for res in runs]
    refs = np.array([np.clip(solve(p, SolveConfig(method, x0, max_iters=2 * iters, f_tol=0.0)).x_final, 0.0, None)
                     for method in exp1_methods])
    at = np.ascontiguousarray(p.a.T)

    def batch(methods, starts):
        return lambda: _lockstep(p, methods, starts, iters)

    def calls(fn, *args, **kwargs):
        """``iters`` calls of ``fn``, so that the time per iteration is the time per call."""
        def run():
            for _ in range(iters):
                fn(*args, **kwargs)
        return run

    # the md_polyak run's iterate after iters iterations, its gradient, and their blocks
    polyak = exp1_methods.index(Method.md_polyak())
    x = runs[polyak].x_final
    r = p.a @ x - p.b
    g = at @ r
    f, g_inf = 0.5 * float(r @ r), float(np.max(np.abs(g)))
    alpha = _polyak_stepsize(x, g, f, 1.0, g_inf)
    xs, gs, col, out = np.tile(x, (BLOCK, 1)), np.tile(g, (BLOCK, 1)), np.full((BLOCK, 1), alpha), np.empty((BLOCK, n))

    exp1 = ExperimentConfig(spec, methods=[MD_CONSTANT_GRID, Method.md_backtracking(), *POLYAK], iters=iters,
                            limit_extra_iters=iters, inits=[X0], out_path=tmp)
    return [
        ("solve", lambda: solve(p, SolveConfig(Method.md_polyak(), x0, max_iters=iters, f_tol=0.0))),
        ("solve backtracking",
         lambda: solve(p, SolveConfig(Method.md_backtracking(), x0, max_iters=iters, f_tol=0.0))),
        ("solve ref",
         lambda: solve(p, SolveConfig(Method.md_polyak(), x0, max_iters=iters, f_tol=0.0, trace_reference=p.planted))),
        ("batch 1", batch([Method.md_polyak()], x0[None])),
        ("batch 5", batch([Method.md_polyak()] * 5, np.array([np.full(n, s) for s in EXP2_SCALES]))),
        ("batch 28", batch(grid + POLYAK, np.tile(x0, (len(grid) + len(POLYAK), 1)))),
        ("replay 5", lambda: _replay_divergence(p, exp1_methods, marks, steps, refs)),
        ("matvec pair", lambda: [at @ (p.a @ x0 - p.b) for _ in range(iters)]),
        ("polyak stepsize", calls(_polyak_stepsize, x, g, f, 1.0, g_inf)),
        ("exp update 1", calls(_exp_mult, x, g, alpha)),
        ("hd_plus update 1", calls(_hd_plus_update, x, g, alpha)),
        (f"exp update {BLOCK}", calls(_exp_mult, xs, gs, col, out=out)),
        (f"hd_plus update {BLOCK}", calls(_hd_plus_update, xs, gs, col, out=out)),
        ("dh dense ref", calls(_dh_core, refs[polyak], x)),
        ("dh sparse ref", calls(_dh_core, p.planted, x)),
        (EXP1, lambda: run_experiment1(exp1)),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="calls per row; the best is printed")
    parser.add_argument("--shapes", default=",".join(SHAPES), help="comma-separated, from " + ", ".join(SHAPES))
    parser.add_argument("--json", metavar="PATH", help="also write the machine and each row's min and median here")
    args = parser.parse_args(argv)
    shapes = args.shapes.split(",")
    table = {}
    for shape in shapes:
        m, n, sparsity, iters = SHAPES[shape]
        with np.errstate(all="ignore"), tempfile.TemporaryDirectory() as tmp:
            rows = cases(m, n, sparsity, iters, tmp)
            # the rows take turns, so that a slow spell of a shared host
            # does not fall on every call of one row
            for _ in range(args.repeat):
                for name, fn in rows:
                    secs = seconds(fn)
                    value = secs if name == EXP1 else 1e6 * secs / iters
                    table.setdefault(name, {}).setdefault(shape, []).append(value)
    print("| us per iteration | " + " | ".join(shapes) + " |")
    print("| --- |" + " --- |" * len(shapes))
    for name, row in table.items():
        digits = 3 if name == EXP1 else 1
        print(f"| {name} | " + " | ".join(f"{min(row[shape]):.{digits}f}" for shape in shapes) + " |")
    mb_shapes = {shape: SHAPES[shape][:3] for shape in shapes} | LARGE
    table[GEN_MB] = {shape: [gen_instance_mb(*dims) for _ in range(args.repeat)] for shape, dims in mb_shapes.items()}
    print("\n| MB per call | " + " | ".join(mb_shapes) + " |")
    print("| --- |" + " --- |" * len(mb_shapes))
    print(f"| {GEN_MB} | " + " | ".join(f"{min(table[GEN_MB][shape]):.1f}" for shape in mb_shapes) + " |")
    if args.json:
        env = environment(ROOT, os.environ["OPENBLAS_NUM_THREADS"])

        def summary(names):
            return {name: {shape: {"min": min(times), "median": statistics.median(times)}
                           for shape, times in table[name].items()} for name in names}

        report = {
            "commit": env["git_commit"],
            "environment": env,
            "repeat": args.repeat,
            "iters": {shape: SHAPES[shape][3] for shape in shapes},
            "us_per_iter": summary([name for name in table if name not in (EXP1, GEN_MB, *PHASES)]),
            "us_per_call": summary(PHASES),
            "s_per_call": summary([EXP1]),
            "mb_per_call": summary([GEN_MB]),
        }
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
