"""Tests of the benchmark's own machinery: run with ``python3 -m pytest perfbench``."""

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import entmd  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def span(name, start, end, parent=-1, ok=True, attrs=None):
    return [name, start, end, parent, ok, attrs]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("outer", 0.0, 10.0),
        span("mid", 1.0, 5.0, parent=0),
        span("leaf", 2.0, 3.5, parent=1),
        span("mid", 6.0, 7.0, parent=0),
        span("other", 20.0, 21.0),
    ]
    agg = tracer.aggregate(spans)
    assert agg["outer"] == {"calls": 1, "s": 10.0, "self_s": 5.0}
    assert agg["mid"] == {"calls": 2, "s": 5.0, "self_s": 3.5}
    assert agg["leaf"] == {"calls": 1, "s": 1.5, "self_s": 1.5}
    assert agg["other"]["self_s"] == 1.0


def test_wrapped_calls_record_nesting_and_failures():
    tr = tracer.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    inner_t = tr.wrap("inner", inner)
    outer_t = tr.wrap("outer", lambda xs: [inner_t(x) for x in xs])
    outer_t([1, 2])
    try:
        inner_t(-1)
    except ValueError:
        pass
    spans = tr.take()
    assert [s[tracer.NAME] for s in spans] == ["outer", "inner", "inner", "inner"]
    assert [s[tracer.PARENT] for s in spans] == [-1, 0, 0, -1]
    assert [s[tracer.OK] for s in spans] == [True, True, True, False]
    assert tr.take() == []


def test_missing_names_are_absent_metrics_not_errors():
    targets = tracer.TARGETS + [
        ("entmd.solvers", "no_such_kernel", "solvers.no_such_kernel", None),
        ("entmd.no_such_module", "solve", "solvers.solve", None),
    ]
    without_md_step = [t for t in targets if t[2] != "solvers.md_step"]
    tr = tracer.Tracer()
    with tracer.patched(tr, without_md_step) as installed:
        assert "solvers.no_such_kernel" not in installed
        assert "solvers.md_step" not in installed
        assert entmd.solvers.md_step.__name__ == "md_step"
    metrics = tracer.layer_metrics(tr.take(), installed, {"60x100": 4.0})
    assert "solvers.backtracking.accept_ratio" not in metrics
    assert metrics["solvers.solve.calls"] == 0
    picked = tracer.select(metrics, ["solvers.backtracking.accept_ratio", "solvers.us_per_iter.md_polyak.60x100",
                                     "floor.matvec_pair_us.60x100"], installed)
    assert picked == {"solvers.us_per_iter.md_polyak.60x100": 0.0, "floor.matvec_pair_us.60x100": 4.0}
    assert entmd.solvers._dh_core.__module__ == "entmd.bregman"  # originals restored


def test_flipped_csv_byte_is_a_failed_operation(tmp_path):
    (tmp_path / "exp2_meta.txt").write_text("iters=3\n")
    csv = tmp_path / "exp2_cummin.csv"
    good = "iter,x0_0.01\n0,3.5\n1,2.25\n2,1.125\n"
    digests = {}
    op = workloads.Op("cli exp2", lambda: (0, ""), lambda out: workloads._check_experiment(
        out, tmp_path, "exp2", ["exp2_cummin.csv"], [], digests))

    csv.write_text(good)
    assert workloads.run_operation(op)[1] is None
    csv.write_text(good.replace("2.25", "2.24"))  # one byte, still a valid non-increasing column
    secs, failure = workloads.run_operation(op)
    assert failure is not None and "sha256" in failure


def test_perturbed_eigenvalue_is_a_failed_operation():
    p = entmd.gen_instance(entmd.InstanceSpec(6, 10, None, seed=3))
    cert = entmd.rate_certificate(p, p.planted)
    honest = workloads.Op("rate", lambda: cert, lambda c: workloads.checks.rate_certificate(c, p))
    assert workloads.run_operation(honest)[1] is None
    bent = dataclasses.replace(cert, lambda_min_plus=cert.lambda_min_plus * (1 + 1e-3))
    perturbed = workloads.Op("rate", lambda: bent, lambda c: workloads.checks.rate_certificate(c, p))
    failure = workloads.run_operation(perturbed)[1]
    assert failure is not None and "eigvalsh" in failure


def test_exception_and_wrong_exit_code_are_failed_operations(tmp_path):
    def boom():
        raise entmd.ConvergenceError("budget")

    assert "ConvergenceError" in workloads.run_operation(workloads.Op("x", boom, lambda out: None))[1]
    (tmp_path / "exp1_meta.txt").write_text("iters=1\n")
    op = workloads.Op("cli exp1", lambda: (1, ""), lambda out: workloads._check_experiment(
        out, tmp_path, "exp1", [], [], {}))
    assert "exited with code 1" in workloads.run_operation(op)[1]


def test_instability_check_uses_the_actual_jacobian():
    # power iteration from the all-ones vector misses the top eigenvector here:
    # the construction reports radius 2 while the update Jacobian has 23
    a = [[2.0, -2.0, 0.0], [0.0, 0.0, 1.0]]
    p = entmd.ProblemInstance(a, [0.0, 1.0], planted=[1.0, 1.0, 1.0])
    op = workloads.Op("instability", lambda: entmd.instability_construction(p, 0.5),
                      lambda inst: workloads.checks.instability(inst, 0.5))
    failure = workloads.run_operation(op)[1]
    assert failure is not None and "spectral radius" in failure
