"""Solve a random nonnegative linear system with the adaptive exponential
scheme and watch the certified quantities.

The solver multiplies the iterate coordinatewise by exp(-alpha * gradient),
with alpha chosen adaptively from the current objective value.  Supplying the
planted solution as a trace reference makes the solver verify, at every
iteration, that the Bregman divergence to it decreases by at least
alpha * f(x_k).
"""

import numpy as np

from entmd import (
    Method,
    ProblemInstance,
    SolveConfig,
    bregman_divergence,
    max_col_norm_sq,
    seeded_rng,
    solve,
    sublinear_bound_curve,
)

rng = seeded_rng(1)
m, n, k = 20, 40, 6

# rows centered so that strictly positive solutions exist
g = rng.standard_normal((m, n))
a = g - g.mean(axis=1, keepdims=True)
z = np.zeros(n)
z[rng.choice(n, size=k, replace=False)] = rng.uniform(0.0, 1.0, k)
p = ProblemInstance(a, a @ z, planted=z)

x0 = np.full(n, 0.1)
res = solve(p, SolveConfig(Method.md_polyak(), x0, trace_reference=z))
print(f"status={res.status.value} after {res.iters_run} iterations")

# the trace is a record array: one record per iteration, one column per field
trace = res.trace
print("\niter        f(x_k)     stepsize   D_h(z, x_k)")
for k in range(0, len(trace), max(1, len(trace) // 10)):
    print(f"{k:4d}  {trace.f_value[k]:12.4e}  {trace.stepsize[k]:9.3e}  {trace.d_h_to_ref[k]:12.4e}")

# the O(1/k) envelope from the converged limit dominates the cumulative min
curve = sublinear_bound_curve(trace, res.x_final, x0, max_col_norm_sq(p.a))
best = np.minimum.accumulate(trace.f_value)
worst_ratio = max(b / bound for b, (_, bound) in zip(best, curve))
print(f"\ncumulative-min objective stays below the 1/(k+1) envelope "
      f"(worst ratio {worst_ratio:.3f})")

r = bregman_divergence(res.x_final, x0)
print(f"divergence from the limit to the start: {r:.4f}")
print(f"l1 norms: limit {np.sum(res.x_final):.4f} vs planted {np.sum(z):.4f}")
