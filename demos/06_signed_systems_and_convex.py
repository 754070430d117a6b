"""Beyond nonnegative systems: signed solutions and generic convex objectives.

Signed systems are handled by splitting x = u - v with both halves updated
multiplicatively in opposite directions; this is exactly the exponential
scheme on the stacked matrix (A, -A).  Any convex L-smooth function with a
known optimal value works too, with the gap f(x) - f* driving the stepsize.
"""

import numpy as np

from entmd import (
    ConvexObjective,
    Method,
    ProblemInstance,
    SolveConfig,
    bregman_divergence,
    seeded_rng,
    solve,
    solve_convex,
)

# --- a signed system -------------------------------------------------------
rng = seeded_rng(6)
m, n = 6, 12
a = rng.standard_normal((m, n))
z_signed = rng.standard_normal(n)
p = ProblemInstance(a, a @ z_signed)

cfg = SolveConfig(Method.eg_pm(), np.full(2 * n, 0.5), max_iters=5000, f_tol=1e-24)
res = solve(p, cfg)
x = res.x_final
print(f"signed solve: {res.status.value} after {res.iters_run} iterations, "
      f"residual {np.linalg.norm(a @ x - p.b):.2e}")
print(f"solution has {int(np.sum(x < -1e-8))} negative and "
      f"{int(np.sum(x > 1e-8))} positive coordinates\n")

# --- a convex objective with known optimum ---------------------------------
c = rng.uniform(0.5, 2.0, 15)
obj = ConvexObjective(
    value=lambda x: 0.5 * float(np.sum((x - c) ** 2)),
    gradient=lambda x: x - c,
    f_star=0.0,
)
x0 = np.full(15, 0.05)
res = solve_convex(obj, SolveConfig(Method.md_polyak(), x0, f_tol=1e-22))
r = bregman_divergence(c, x0)
coeff = 16.0 * r * (r + float(np.sum(c)))  # the gradient x - c is 1-Lipschitz: L = 1
print(f"convex solve: {res.status.value} after {res.iters_run} iterations")
print("iter      gap          rate bound 16 L R (R + ||z||_1) / (k+1)")
best = np.minimum.accumulate(res.trace.f_value)
for k in range(0, len(best), max(1, len(best) // 8)):
    print(f"{k:4d}  {best[k]:12.4e}  {coeff / (k + 1):12.4e}")
