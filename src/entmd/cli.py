"""Command-line interface.

Subcommands: solve, project, bias, rate-cert, instability, exp1, exp2.
Instances travel as a single JSON document {m, n, a, b, z?} with the matrix
flattened row-major.  Summaries print as key=value lines (or one JSON object
with --format json).  Exit codes: 0 converged / success, 1 parse or usage
error, 2 iteration budget exhausted, 3 numerical breakdown.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .analysis import (
    _start_scale,
    bias_report,
    bregman_projection,
    instability_construction,
    instability_escape_distance,
    orthogonality_residual,
    rate_certificate,
    worst_case_construction,
)
from .bregman import bregman_divergence
from .errors import ConvergenceError, DomainError, EntmdError
from .experiments import (
    MD_CONSTANT_GRID,
    ExperimentConfig,
    InstanceSpec,
    _method_labels,
    _write_csv,
    run_experiment1,
    run_experiment2,
)
from .solvers import Method, ProblemInstance, SolveConfig, SolveResult, Status, solve

__all__ = ["main", "run", "load_instance", "save_instance"]

_METHOD_NAMES = {
    "md-polyak": Method.md_polyak,
    "hd-plus-polyak": Method.hd_plus_polyak,
    "hd-polyak": Method.hd_polyak,
    "eg-pm": Method.eg_pm,
}

_STATUS_EXIT = {Status.CONVERGED: 0, Status.MAX_ITERS: 2, Status.NUMERICAL_BREAKDOWN: 3}

# the entries of the start, x0 = _DEFAULT_X0 * ones, without --eta or --x0-scale
_DEFAULT_X0 = 1e-4


class _CliError(Exception):
    """Any parse/validation failure; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want code 1
        raise _CliError(message)


def load_instance(path) -> ProblemInstance:
    """Read a ProblemInstance from the JSON wire format."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        m, n = int(doc["m"]), int(doc["n"])
        a = np.asarray(doc["a"], dtype=float)
        b = np.asarray(doc["b"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise _CliError(f"bad instance file {path}: {exc}") from exc
    if a.ndim == 1:
        if a.size != m * n:
            raise _CliError(f"bad instance file {path}: 'a' has {a.size} entries, expected {m * n}")
        a = a.reshape(m, n)
    elif a.shape != (m, n):
        raise _CliError(f"bad instance file {path}: 'a' has shape {a.shape}, expected ({m}, {n})")
    z = doc.get("z")
    try:
        return ProblemInstance(a, b, planted=None if z is None else np.asarray(z, dtype=float))
    except (TypeError, ValueError) as exc:
        raise _CliError(f"bad instance file {path}: {exc}") from exc


def save_instance(p: ProblemInstance, path) -> None:
    """Write a ProblemInstance in the JSON wire format (row-major flat 'a')."""
    doc = {"m": p.m, "n": p.n, "a": p.a.ravel().tolist(), "b": p.b.tolist()}
    if p.planted is not None:
        doc["z"] = p.planted.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _emit(pairs: dict, fmt: str) -> None:
    """Print the summary; float values go out with 17 significant digits."""
    pairs = {k: format(v, ".17g") if isinstance(v, float) else v for k, v in pairs.items()}
    if fmt == "json":
        print(json.dumps(pairs))
    else:
        for key, value in pairs.items():
            print(f"{key}={value}")


def _write_trace(res: SolveResult, path) -> None:
    # a trace holds one record per iteration from 0, so the row index is the iteration
    names = ["f_value", "stepsize", "l1_norm"]
    _write_csv(path, names, [res.trace[name].tolist() for name in names])


def _eta_start(eta: float) -> float:
    """exp(-eta), the entries of the start that --eta selects; a usage error
    naming the flag unless it is finite and positive."""
    try:
        return _start_scale(eta)
    except DomainError as exc:
        raise _CliError(f"--eta {eta!r}: {exc}") from None


def _x0_from_flags(args, n: int) -> np.ndarray:
    if getattr(args, "eta", None) is not None:
        return np.full(n, _eta_start(args.eta))
    scale = getattr(args, "x0_scale", None)
    if scale is None:
        scale = _DEFAULT_X0
    if not 0.0 < scale < math.inf:
        raise _CliError("--x0-scale must be finite and positive")
    return np.full(n, scale)


def _method_from_flags(args) -> Method:
    name = args.method
    if name in _METHOD_NAMES:
        return _METHOD_NAMES[name]()
    if name == "md-constant":
        if args.alpha is None:
            raise _CliError("--method md-constant requires --alpha")
        return Method.md_constant(args.alpha)
    if name == "md-backtracking":
        return Method.md_backtracking(args.alpha0, args.shrink)
    raise _CliError(f"unknown method {name!r}")


def _cmd_solve(args) -> int:
    p = load_instance(args.instance)
    method = _method_from_flags(args)
    n = p.n * 2 if method.kind == "eg_pm" else p.n
    cfg = SolveConfig(method, _x0_from_flags(args, n), max_iters=args.iters, f_tol=args.f_tol)
    res = solve(p, cfg)
    # a start far out of range overflows f; it reads inf as it does in the solve
    with np.errstate(over="ignore", invalid="ignore"):
        final_f = 0.5 * float(np.sum((p.a @ res.x_final - p.b) ** 2))
    _emit(
        {
            "status": res.status.value,
            "final_f": final_f,
            "iterations": res.iters_run,
            "l1_norm": float(np.sum(np.abs(res.x_final))),
        },
        args.format,
    )
    if args.trace:
        _write_trace(res, args.trace)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"x": res.x_final.tolist()}, fh)
    return _STATUS_EXIT[res.status]


def _cmd_project(args) -> int:
    p = load_instance(args.instance)
    x0 = _x0_from_flags(args, p.n)
    try:
        limit = bregman_projection(p, x0, tol=args.tol, max_iters=args.iters)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    final_f = 0.5 * float(np.sum((p.a @ limit - p.b) ** 2))
    _emit(
        {
            "final_f": final_f,
            "l1_norm": float(np.sum(limit)),
            "d_h_to_x0": bregman_divergence(limit, x0),
        },
        args.format,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"x": limit.tolist()}, fh)
    return 0


def _cmd_bias(args) -> int:
    if args.construct is not None:
        n, eta = int(args.construct[0]), float(args.construct[1])
        built = worst_case_construction(n, eta)
        p = built.problem
    elif args.instance is not None:
        if args.eta is None:
            raise _CliError("bias requires --eta when reading an instance file")
        _eta_start(args.eta)
        p, eta, built = load_instance(args.instance), args.eta, None
    else:
        raise _CliError("bias needs an instance file or --construct N ETA")
    report = bias_report(p, eta)
    pairs = {
        "eta": eta,
        "limit_l1": float(np.sum(report.limit)),
        "orthogonality_residual": report.orthogonality_residual,
        "kernel_trivial": str(report.kernel_trivial).lower(),
    }
    for key in ("exact_gap", "slow_bound", "improved_bound"):
        value = getattr(report, key)
        if value is not None:
            pairs[key] = value
    if built is not None:
        pairs["expected_gap"] = built.expected_gap
    _emit(pairs, args.format)
    return 0


def _cmd_rate_cert(args) -> int:
    p = load_instance(args.instance)
    if p.planted is None:
        raise _CliError("rate-cert needs an instance file with a planted solution z")
    if not args.dh >= 0.0:
        raise _CliError(f"--dh must be nonnegative, got {args.dh!r}")
    cert = rate_certificate(p, p.planted)
    # the rate holds toward the limit of the run from the default start, which z must be
    residual = orthogonality_residual(p, np.full(p.n, _DEFAULT_X0), p.planted).residual
    if residual > 1e-9:
        raise _CliError(f"z is not the limit of a run from x0_scale={_DEFAULT_X0:g}: its orthogonality residual "
                        f"{residual:.3g} exceeds 1e-9; certify the limit that `entmd project` writes instead")
    _emit(
        {
            "x0_scale": _DEFAULT_X0,
            "lambda_min_plus": cert.lambda_min_plus,
            "z_min": cert.z_min,
            "max_col_sq": cert.max_col_sq,
            "z_l1": cert.z_l1,
            "local_factor": cert.local_factor,
            "global_factor_at_dh": cert.global_factor_fn(args.dh),
            "dh": args.dh,
        },
        args.format,
    )
    return 0


def _cmd_instability(args) -> int:
    p = load_instance(args.instance)
    inst = instability_construction(p, args.alpha)
    escape = instability_escape_distance(inst, iters=args.iters)
    _emit(
        {
            "t_scale": inst.t_scale,
            "jacobian_spectral_radius": inst.jacobian_spectrum_bound,
            "max_escape_distance": escape,
        },
        args.format,
    )
    return 0


def _spec_from_flags(args) -> InstanceSpec:
    sparsity = None if args.sparsity in (None, "dense") else int(args.sparsity)
    return InstanceSpec(args.m, args.n, sparsity, seed=args.seed)


def _cmd_exp1(args) -> int:
    if args.paper_scale:
        args.m, args.n, args.sparsity = 300, 500, "30"
        args.iters, args.extra_iters = 25_000, 25_000
    methods = []
    for name in args.methods.split(","):
        name = name.strip()
        if name == "md-constant-grid":
            methods.append(MD_CONSTANT_GRID)
        elif name in _METHOD_NAMES:
            methods.append(_METHOD_NAMES[name]())
        elif name == "md-backtracking":
            methods.append(Method.md_backtracking())
        else:
            raise _CliError(f"unknown method {name!r} for exp1")
    try:
        _method_labels(methods)
    except DomainError as exc:
        raise _CliError(f"--methods {args.methods}: {exc}") from None
    cfg = ExperimentConfig(
        _spec_from_flags(args),
        methods=methods,
        iters=args.iters,
        limit_extra_iters=args.extra_iters,
        inits=[args.x0_scale],
        out_path=args.out or ".",
    )
    for path in run_experiment1(cfg):
        print(f"wrote {path}")
    return 0


def _cmd_exp2(args) -> int:
    scales = [float(s) for s in args.scales.split(",")]
    cfg = ExperimentConfig(
        _spec_from_flags(args),
        methods=[Method.md_polyak()],
        iters=args.iters,
        limit_extra_iters=0,
        inits=scales,
        out_path=args.out or ".",
    )
    for path in run_experiment2(cfg):
        print(f"wrote {path}")
    return 0


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--out", type=str, default=None)
    common.add_argument("--format", choices=("keyvalue", "json"), default="keyvalue")

    parser = _Parser(prog="entmd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", parents=[common], help="run a solver on a JSON instance")
    ps.add_argument("instance")
    ps.add_argument("--method", default="md-polyak")
    ps.add_argument("--eta", type=float, default=None, help="start at exp(-eta) * ones")
    ps.add_argument("--x0-scale", type=float, default=None, help="start at scale * ones")
    ps.add_argument("--iters", type=int, default=20_000)
    ps.add_argument("--f-tol", type=float, default=1e-20)
    ps.add_argument("--alpha", type=float, default=None, help="stepsize for md-constant")
    ps.add_argument("--alpha0", type=float, default=None, help="initial stepsize for md-backtracking")
    ps.add_argument("--shrink", type=float, default=0.5, help="backtracking shrink factor")
    ps.add_argument("--trace", type=str, default=None, help="write per-iteration CSV here")
    ps.set_defaults(func=_cmd_solve)

    pp = sub.add_parser("project", parents=[common], help="entropy projection onto the solution set")
    pp.add_argument("instance")
    pp.add_argument("--eta", type=float, default=None)
    pp.add_argument("--x0-scale", type=float, default=None)
    pp.add_argument("--tol", type=float, default=None, help="residual-norm tolerance")
    pp.add_argument("--iters", type=int, default=200_000,
                    help="budget of Newton steps plus md_polyak iterations")
    pp.set_defaults(func=_cmd_project)

    pb = sub.add_parser("bias", parents=[common], help="sparsity-bias report")
    pb.add_argument("instance", nargs="?", default=None)
    pb.add_argument("--eta", type=float, default=None)
    pb.add_argument("--construct", nargs=2, metavar=("N", "ETA"), default=None,
                    help="build the near-worst-case instance instead of reading a file")
    pb.set_defaults(func=_cmd_bias)

    pr = sub.add_parser("rate-cert", parents=[common],
                        help="linear-rate certificate toward the planted z, which must be the limit from 1e-4 * ones")
    pr.add_argument("instance")
    pr.add_argument("--dh", type=float, default=1.0, help="divergence level for the global factor")
    pr.set_defaults(func=_cmd_rate_cert)

    pi = sub.add_parser("instability", parents=[common], help="unstable constant-stepsize construction")
    pi.add_argument("instance")
    pi.add_argument("--alpha", type=float, required=True)
    pi.add_argument("--iters", type=int, default=10_000)
    pi.set_defaults(func=_cmd_instability)

    for name, fn in (("exp1", _cmd_exp1), ("exp2", _cmd_exp2)):
        pe = sub.add_parser(name, parents=[common], help=f"run experiment {name[-1]} and write CSVs")
        pe.add_argument("--seed", type=int, default=0, help="seed of the generated instance")
        pe.add_argument("--m", type=int, default=60)
        pe.add_argument("--n", type=int, default=100)
        pe.add_argument("--sparsity", default="10" if name == "exp1" else "dense",
                        help="nonzero count of the planted solution, or 'dense'")
        pe.add_argument("--iters", type=int, default=5_000)
        if name == "exp1":
            pe.add_argument("--extra-iters", type=int, default=5_000)
            pe.add_argument("--x0-scale", type=float, default=1e-4)
            pe.add_argument("--methods", default="md-constant-grid,md-backtracking,md-polyak,hd-polyak,hd-plus-polyak")
            pe.add_argument("--paper-scale", action="store_true",
                            help="300x500, sparsity 30, 25k+25k iterations (slow)")
        else:
            pe.add_argument("--scales", default="1e-2,1e-4,1e-8,1e-16,1e-32")
        pe.set_defaults(func=fn)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_CliError, EntmdError, OSError, json.JSONDecodeError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
