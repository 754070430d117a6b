"""Microseconds per iteration of entmd's iteration loops, best of N, one BLAS thread.

Usage, from the root of a checkout::

    python3 tools/per_iter.py [--repeat 5] [--shapes 60x100,300x500]

Each shape is ``gen_instance(InstanceSpec(m, n, sparsity, seed=1))`` with
sparsity 10 at 60x100 and 30 at 300x500, started at 1e-4 * ones as exp1
starts, and run for 2000 iterations at 60x100 and 400 at 300x500.  Rows:

* ``solve``: one ``md_polyak`` solve;
* ``solve backtracking``: one ``md_backtracking`` solve;
* ``batch 1``, ``batch 5``, ``batch 28``: one lockstep batch of one
  ``md_polyak`` run, of ``md_polyak`` from five start scales (exp2's), and
  of exp1's 25 grid stepsizes with ``md_polyak``, ``hd_polyak`` and
  ``hd_plus_polyak``; the time is per batch iteration, not per row;
* ``replay 5``: the divergence replay of exp1's five methods from the
  marks of their lockstep batch, as exp1 replays them;
* ``replay 5 (x0)``: the same replay from x0, one stretch per run;
* ``matvec pair``: a bare ``at @ (a @ x - b)``, the floor of one iteration.

The numbers measure the checkout this script is run from, through the
package's private loops, so a before/after table comes from running it in
two checkouts on the same machine.
"""

import os

# one BLAS thread, set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from entmd import InstanceSpec, Method, SolveConfig, gen_instance, solve  # noqa: E402
from entmd.experiments import _constant_grid  # noqa: E402
from entmd.solvers import _MARK_EVERY, _lockstep, _replay_divergence  # noqa: E402

SHAPES = {"60x100": (60, 100, 10, 2000), "300x500": (300, 500, 30, 400)}
X0 = 1e-4
EXP2_SCALES = (1e-8, 1e-6, 1e-4, 1e-2, 1.0)
POLYAK = [Method.md_polyak(), Method.hd_polyak(), Method.hd_plus_polyak()]


def seconds(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def cases(m: int, n: int, sparsity: int, iters: int):
    p = gen_instance(InstanceSpec(m, n, sparsity, seed=1))
    x0 = np.full(n, X0)
    grid = _constant_grid(p)
    exp1_methods = [grid[len(grid) // 2], Method.md_backtracking(), *POLYAK]
    marks = np.zeros((len(exp1_methods), -(-iters // _MARK_EVERY), n))
    runs = _lockstep(p, exp1_methods, np.tile(x0, (len(exp1_methods), 1)), iters, keep=iters, marks=marks)[0]
    steps = [res.trace.stepsize for res in runs]
    refs = np.array([np.clip(solve(p, SolveConfig(method, x0, max_iters=2 * iters, f_tol=0.0)).x_final, 0.0, None)
                     for method in exp1_methods])
    at = np.ascontiguousarray(p.a.T)

    def batch(methods, starts):
        return lambda: _lockstep(p, methods, starts, iters, keep=iters)

    return [
        ("solve", lambda: solve(p, SolveConfig(Method.md_polyak(), x0, max_iters=iters, f_tol=0.0))),
        ("solve backtracking",
         lambda: solve(p, SolveConfig(Method.md_backtracking(), x0, max_iters=iters, f_tol=0.0))),
        ("batch 1", batch([Method.md_polyak()], x0[None])),
        ("batch 5", batch([Method.md_polyak()] * 5, np.array([np.full(n, s) for s in EXP2_SCALES]))),
        ("batch 28", batch(grid + POLYAK, np.tile(x0, (len(grid) + len(POLYAK), 1)))),
        ("replay 5", lambda: _replay_divergence(p, exp1_methods, marks, steps, refs)),
        ("replay 5 (x0)", lambda: _replay_divergence(p, exp1_methods, np.tile(x0, (5, 1)), steps, refs)),
        ("matvec pair", lambda: [at @ (p.a @ x0 - p.b) for _ in range(iters)]),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, help="calls per row; the best is printed")
    parser.add_argument("--shapes", default=",".join(SHAPES), help="comma-separated, from " + ", ".join(SHAPES))
    args = parser.parse_args(argv)
    shapes = args.shapes.split(",")
    table = {}
    for shape in shapes:
        m, n, sparsity, iters = SHAPES[shape]
        with np.errstate(all="ignore"):
            rows = cases(m, n, sparsity, iters)
            # the rows take turns, so that a slow spell of a shared host
            # does not fall on every call of one row
            for _ in range(args.repeat):
                for name, fn in rows:
                    best = table.setdefault(name, {}).get(shape, float("inf"))
                    table[name][shape] = min(best, 1e6 * seconds(fn) / iters)
    print("| us per iteration | " + " | ".join(shapes) + " |")
    print("| --- |" + " --- |" * len(shapes))
    for name, row in table.items():
        print(f"| {name} | " + " | ".join(f"{row[shape]:.1f}" for shape in shapes) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
