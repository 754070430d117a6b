"""Compare the five solver variants on one random instance (experiment 1).

Writes two CSV panels into ./out: the cumulative-minimum objective per
iteration per method, and the Bregman divergence from an estimated limit to
each iterate.  The adaptive stepsize typically beats both the best constant
stepsize from a 25-point grid and the backtracking rule.
"""

from pathlib import Path

from entmd import MD_CONSTANT_GRID, ExperimentConfig, InstanceSpec, Method, run_experiment1

cfg = ExperimentConfig(
    InstanceSpec(m=30, n=50, sparsity=6, seed=7),
    methods=[
        # the constant stepsize of a 25-point grid that is best over the first
        # `iters` iterations; only it and the other methods' live runs
        # continue for `limit_extra_iters` to estimate their limits
        MD_CONSTANT_GRID,
        Method.md_backtracking(),
        Method.md_polyak(),
        Method.hd_polyak(),
        Method.hd_plus_polyak(),
    ],
    iters=1500,
    limit_extra_iters=1500,
    inits=[1e-4],
    out_path=Path("out") / "method_comparison",
)

cummin_path, divergence_path, meta_path = run_experiment1(cfg)
print(f"wrote {cummin_path}\nwrote {divergence_path}\nwrote {meta_path}\n")

lines = cummin_path.read_text().splitlines()
labels = lines[0].split(",")[1:]
finals = [float(v) for v in lines[-1].split(",")[1:]]
print("final cumulative-min objective after", len(lines) - 1, "iterations:")
for label, value in sorted(zip(labels, finals), key=lambda t: t[1]):
    print(f"  {label:18s} {value:.3e}")
