"""Linear convergence certificate for solutions away from the boundary.

When the limit z has z_min > 0, every iteration contracts the divergence
D_h(z, x_k) by at least a computable factor.  The certificate packages the
global per-step factor (a function of the current divergence) and its
optimistic limit, the local factor.  Observed contraction is usually far
stronger than certified.
"""

import numpy as np

from entmd import (
    Method,
    ProblemInstance,
    SolveConfig,
    rate_certificate,
    seeded_rng,
    solve,
)

rng = seeded_rng(4)
m, n = 24, 10
a = rng.standard_normal((m, n))
z = rng.uniform(0.3, 1.0, n)  # unique, strictly positive solution
p = ProblemInstance(a, a @ z, planted=z)

cert = rate_certificate(p, z)
print(f"lambda_min_plus = {cert.lambda_min_plus:.4f}")
print(f"z_min = {cert.z_min:.4f},  ||z||_1 = {cert.z_l1:.4f},  max col norm^2 = {cert.max_col_sq:.4f}")
print(f"local factor  = {cert.local_factor:.8f}")
print(f"global factor at D_h = 1.0: {cert.global_factor_fn(1.0):.8f}\n")

res = solve(p, SolveConfig(Method.md_polyak(), np.full(n, 0.1), f_tol=1e-24, trace_reference=z))
ds = res.trace.d_h_to_ref
print("iter   D_h(z, x_k)    observed ratio   certified factor")
for i in range(0, len(ds) - 1, max(1, len(ds) // 12)):
    ratio = ds[i + 1] / ds[i]
    print(f"{i:4d}  {ds[i]:12.4e}   {ratio:14.6f}   {cert.global_factor_fn(ds[i]):16.10f}")
print(f"\nconverged in {res.iters_run} iterations; every observed ratio sits "
      "below the certified per-step factor")
