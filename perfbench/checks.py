"""Output checks against references that do not reuse entmd's own routines.

Every check raises :class:`CheckFailed` with a reason; the runner counts
that, an exception from the call, or a wrong exit code as one failed
operation.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An operation's output disagrees with its reference."""


def require(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def half_sq_residual(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    """0.5 ||A x - b||^2."""
    r = a @ x - b
    return 0.5 * float(np.dot(r, r))


def entropy_divergence(z: np.ndarray, x: np.ndarray) -> float:
    """sum z log(z / x) - z + x, with 0 log 0 = 0 (the reference for D_h)."""
    pos = z > 0
    return float(np.sum(z[pos] * np.log(z[pos] / x[pos])) - np.sum(z) + np.sum(x))


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def same_digest(digests: dict, path: Path) -> str:
    """Record the file's digest on first sight; afterwards require it unchanged."""
    digest = sha256(path)
    want = digests.setdefault(path.name, digest)
    require(digest == want, f"{path.name}: sha256 {digest[:12]} differs from the first pass's {want[:12]}")
    return digest


def read_csv_columns(path: Path) -> tuple[list[str], np.ndarray]:
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows.reshape(len(lines) - 1, len(header))


def cummin_columns_nonincreasing(path: Path, rows: int) -> None:
    header, data = read_csv_columns(path)
    require(header[0] == "iter" and data.shape[0] == rows, f"{path.name}: expected {rows} rows, got {data.shape[0]}")
    require(np.array_equal(data[:, 0], np.arange(rows)), f"{path.name}: iteration column is not 0..{rows - 1}")
    for j, label in enumerate(header[1:], start=1):
        col = data[:, j]
        require(np.all(np.isfinite(col)), f"{path.name}:{label} has non-finite values")
        require(np.all(np.diff(col) <= 0.0), f"{path.name}:{label} cumulative minimum increases")


def read_sidecar(path: Path) -> dict[str, str]:
    return dict(line.split("=", 1) for line in Path(path).read_text().splitlines() if "=" in line)


def no_breakdown(sidecar: dict[str, str], labels) -> None:
    for label in labels:
        status = sidecar.get(f"status.{label}")
        require(status is not None, f"sidecar has no status for {label}")
        require(status != "NumericalBreakdown", f"{label} reported NumericalBreakdown")


def cli_solve_output(stdout: str, rc: int, instance_path: Path, x_path: Path, trace_path: Path) -> None:
    """The CLI summary agrees with the vector it wrote and the instance file."""
    summary = json.loads(stdout.strip().splitlines()[-1])
    want_rc = {"Converged": 0, "MaxIters": 2}.get(summary["status"])
    require(want_rc is not None, f"solve ended with status {summary['status']}")
    require(rc == want_rc, f"exit code {rc} for status {summary['status']}")
    doc = json.loads(Path(instance_path).read_text())
    a = np.array(doc["a"], dtype=float).reshape(doc["m"], doc["n"])
    b = np.array(doc["b"], dtype=float)
    x = np.array(json.loads(Path(x_path).read_text())["x"], dtype=float)
    require(x.shape == (doc["n"],) and np.all(x >= 0.0), "solution vector is not nonnegative of length n")
    f_ref = half_sq_residual(a, x, b)
    f_cli = float(summary["final_f"])
    require(abs(f_cli - f_ref) <= 1e-9 * max(f_ref, f_cli) + 1e-300,
            f"final_f {f_cli!r} but 0.5||Ax-b||^2 = {f_ref!r}")
    trace_rows = len(Path(trace_path).read_text().splitlines()) - 1
    require(trace_rows == int(summary["iterations"]),
            f"trace has {trace_rows} rows for {summary['iterations']} iterations")


def budget_run(res, p, x0, budget: int, z=None) -> None:
    """A fixed-budget run ended at the budget, stayed nonnegative and finite,
    and decreased f; with ``z`` (certified runs) also D_h(z, x)."""
    require(res.status.value == "MaxIters" and res.iters_run == budget,
            f"status {res.status.value} after {res.iters_run} iterations, expected MaxIters after {budget}")
    x = res.x_final
    require(np.all(np.isfinite(x)) and np.all(x >= 0.0), "final iterate is negative or non-finite")
    f0 = half_sq_residual(p.a, x0, p.b)
    f1 = half_sq_residual(p.a, x, p.b)
    require(abs(res.trace[0].f_value - f0) <= 1e-12 * f0, "trace starts at a different f(x0)")
    require(f1 < f0, f"final f {f1!r} is not below f(x0) = {f0!r}")
    if z is not None:
        d0 = entropy_divergence(z, x0)
        d1 = entropy_divergence(z, x)
        require(d1 < d0, f"D_h(z, x) rose from {d0!r} to {d1!r}")


def split_run(res, p, x0, budget: int) -> None:
    """eg_pm: the returned x is u - v of the returned pair, and f decreased."""
    n = p.n
    require(res.status.value == "MaxIters" and res.iters_run == budget,
            f"status {res.status.value} after {res.iters_run} iterations")
    w = res.w_final
    require(w.shape == (2 * n,) and np.all(w >= 0.0) and np.all(np.isfinite(w)), "split pair is invalid")
    require(np.array_equal(res.x_final, w[:n] - w[n:]), "x_final differs from u - v")
    f0 = half_sq_residual(p.a, x0[:n] - x0[n:], p.b)
    f1 = half_sq_residual(p.a, res.x_final, p.b)
    require(f1 < f0, f"final f {f1!r} is not below f(x0) = {f0!r}")


def lambda_min_plus(a: np.ndarray) -> float:
    """Smallest eigenvalue of A^T A above 1e-10 * lambda_max, by LAPACK."""
    evals = np.linalg.eigvalsh(a.T @ a)
    return float(evals[evals > 1e-10 * evals[-1]][0])


def rate_certificate(cert, p) -> None:
    ref = lambda_min_plus(p.a)
    lam_max = float(np.linalg.norm(p.a, 2)) ** 2
    require(abs(cert.lambda_min_plus - ref) <= 1e-10 * lam_max + 1e-8 * ref,
            f"lambda_min_plus {cert.lambda_min_plus!r} but eigvalsh gives {ref!r}")
    z = p.planted
    mc = float(np.max(np.einsum("ij,ij->j", p.a, p.a)))
    local = 1.0 - ref * float(z.min()) / (8.0 * mc * float(z.sum()))
    require(abs(cert.local_factor - local) <= 1e-9 * (1.0 - local),
            f"local_factor {cert.local_factor!r} but the formula gives {local!r}")


def l1_objective(z: np.ndarray, p) -> None:
    """z is feasible and its l1 norm equals the LP optimum."""
    from scipy.optimize import linprog

    require(np.all(z >= 0.0), "l1-minimal solution has a negative entry")
    require(np.linalg.norm(p.a @ z - p.b) <= 1e-8 * (1.0 + np.linalg.norm(p.b)), "l1-minimal solution is infeasible")
    lp = linprog(np.ones(p.n), A_eq=p.a, b_eq=p.b, bounds=(0, None), method="highs")
    require(lp.status == 0, f"linprog failed: {lp.message}")
    require(abs(float(z.sum()) - float(lp.fun)) <= 1e-8 * abs(float(lp.fun)) + 1e-10,
            f"l1 objective {float(z.sum())!r} but linprog gives {float(lp.fun)!r}")


def worst_case_report(report, built, eta: float) -> None:
    require(report.exact_gap is not None and report.improved_bound is not None and report.slow_bound is not None,
            "worst-case report lacks the exact gap or a bound")
    require(abs(report.exact_gap - built.expected_gap) <= 1e-6,
            f"exact_gap {report.exact_gap!r} but the construction expects {built.expected_gap!r}")
    require(report.exact_gap <= report.improved_bound + 1e-8, "exact gap exceeds the improved bound")
    require(report.improved_bound <= report.slow_bound + 1e-12, "improved bound exceeds the slow bound")
    l1_objective(report.l1_minimal, built.problem)


def projection_report(report, p, eta: float) -> None:
    """The limit solves the system to f <= 1e-24 and log(limit / x0) lies in
    range(A^T) on its support (least squares, not the package's Gram-Schmidt)."""
    x = report.limit
    require(np.all(x >= 0.0), "projection has a negative entry")
    f = half_sq_residual(p.a, x, p.b)
    require(f <= 2e-24, f"projection residual f = {f!r} above 1e-24")
    require(report.orthogonality_residual <= 1e-6, f"orthogonality residual {report.orthogonality_residual!r}")
    support = x > 1e-12 * float(x.max())
    log_ratio = np.log(x[support]) + eta
    coef, *_ = np.linalg.lstsq(p.a[:, support].T, log_ratio, rcond=None)
    off = float(np.linalg.norm(p.a[:, support].T @ coef - log_ratio))
    require(off <= 1e-6 * (1.0 + float(np.linalg.norm(log_ratio))),
            f"log(limit/x0) is {off:.3g} away from range(A^T)")


def instability(inst, alpha: float) -> None:
    """Spectral radius of the update Jacobian I - alpha diag(x*) A^T A at the
    scaled planted solution, by a general eigensolver."""
    a = inst.scaled.a
    x_star = inst.scaled.planted
    require(np.allclose(x_star, inst.t_scale * inst.base.planted, rtol=1e-14, atol=0.0),
            "scaled planted solution is not t * planted")
    jac = np.eye(a.shape[1]) - alpha * (x_star[:, None] * (a.T @ a))
    radius = float(np.max(np.abs(np.linalg.eigvals(jac))))
    require(abs(radius - 2.0) <= 1e-8, f"update Jacobian has spectral radius {radius!r}, not 2")
    require(abs(inst.jacobian_spectrum_bound - radius) <= 1e-8,
            f"reported radius {inst.jacobian_spectrum_bound!r} but the Jacobian has {radius!r}")


def escape(distance: float, inst) -> None:
    target = float(np.linalg.norm(inst.scaled.planted))
    require(distance >= 0.1 * target, f"escape distance {distance!r} below 0.1 * ||x*|| = {0.1 * target!r}")
