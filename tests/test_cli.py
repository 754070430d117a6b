import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entmd
from entmd import EntmdError, Method, ProblemInstance, SolveConfig, Status, seeded_rng, solve
from entmd.cli import load_instance, main, save_instance
from conftest import centered_gaussian_instance, positive_solution_instance


def write_instance(tmp_path, p, name="instance.json"):
    path = tmp_path / name
    save_instance(p, path)
    return str(path)


def parse_keyvalue(output):
    pairs = {}
    for line in output.strip().splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            pairs[key] = value
    return pairs


class TestInstanceIo:
    def test_round_trip(self, tmp_path):
        p = centered_gaussian_instance(3, 5, 2, seed=70)
        path = write_instance(tmp_path, p)
        q = load_instance(path)
        assert np.array_equal(q.a, p.a)
        assert np.array_equal(q.b, p.b)
        assert np.array_equal(q.planted, p.planted)

    def test_flat_row_major_layout(self, tmp_path):
        path = tmp_path / "inst.json"
        with open(path, "w") as fh:
            json.dump({"m": 2, "n": 2, "a": [1.0, 2.0, 3.0, 4.0], "b": [1.0, 2.0]}, fh)
        p = load_instance(path)
        assert np.array_equal(p.a, [[1.0, 2.0], [3.0, 4.0]])


class TestSolveCommand:
    def test_converged_exit_zero(self, tmp_path, capsys):
        p = centered_gaussian_instance(4, 8, 2, seed=71)
        path = write_instance(tmp_path, p)
        trace = tmp_path / "trace.csv"
        code = main(["solve", path, "--method", "md-polyak", "--x0-scale", "0.1",
                     "--trace", str(trace)])
        pairs = parse_keyvalue(capsys.readouterr().out)
        assert code == 0
        assert pairs["status"] == "Converged"
        assert float(pairs["final_f"]) <= 1e-20
        header = trace.read_text().splitlines()[0]
        assert header.startswith("iter,f_value,stepsize,l1_norm")

    def test_trace_rows_carry_17_significant_digits(self, tmp_path, capsys):
        p = centered_gaussian_instance(4, 8, 2, seed=71)
        trace = tmp_path / "trace.csv"
        main(["solve", write_instance(tmp_path, p), "--method", "md-backtracking", "--x0-scale", "0.1",
              "--iters", "40", "--trace", str(trace)])
        res = entmd.solve(p, entmd.SolveConfig(entmd.Method.md_backtracking(), np.full(8, 0.1), max_iters=40))
        rows = [",".join([str(k)] + [format(v, ".17g") for v in (rec.f_value, rec.stepsize, rec.l1_norm)])
                for k, rec in enumerate(res.trace)]
        assert trace.read_text() == "\n".join(["iter,f_value,stepsize,l1_norm"] + rows) + "\n"

    def test_max_iters_exit_two(self, tmp_path, capsys):
        p = centered_gaussian_instance(4, 8, 2, seed=72)
        path = write_instance(tmp_path, p)
        code = main(["solve", path, "--iters", "2"])
        assert code == 2
        assert parse_keyvalue(capsys.readouterr().out)["status"] == "MaxIters"

    def test_breakdown_exit_three(self, tmp_path, capsys):
        p = centered_gaussian_instance(4, 8, 2, seed=73)
        path = write_instance(tmp_path, p)
        code = main(["solve", path, "--method", "md-constant", "--alpha", "1e9",
                     "--x0-scale", "1.0"])
        assert code == 3
        assert parse_keyvalue(capsys.readouterr().out)["status"] == "NumericalBreakdown"

    def test_overflowing_final_f_reads_inf_without_warning(self, tmp_path, capsys):
        p = entmd.gen_instance(entmd.InstanceSpec(4, 8, None, seed=1))
        code = main(["solve", write_instance(tmp_path, p), "--x0-scale", "1e160", "--iters", "3"])
        out, err = capsys.readouterr()
        assert code == 3 and err == ""
        assert parse_keyvalue(out)["final_f"] == "inf"

    def test_malformed_file_exit_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("not json at all")
        assert main(["solve", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_wrong_entry_count_exit_one(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        with open(path, "w") as fh:
            json.dump({"m": 2, "n": 2, "a": [1.0, 2.0, 3.0], "b": [1.0, 2.0]}, fh)
        assert main(["solve", str(path)]) == 1

    def test_missing_field_exit_one(self, tmp_path, capsys):
        path = tmp_path / "no_b.json"
        with open(path, "w") as fh:
            json.dump({"m": 1, "n": 2, "a": [1.0, 2.0]}, fh)
        assert main(["solve", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_planted_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad_z.json"
        with open(path, "w") as fh:
            json.dump({"m": 1, "n": 2, "a": [1.0, 1.0], "b": [1.0], "z": [5.0, 5.0]}, fh)
        assert main(["solve", str(path)]) == 1

    def test_unknown_method_exit_one(self, tmp_path):
        p = centered_gaussian_instance(3, 6, 2, seed=74)
        path = write_instance(tmp_path, p)
        assert main(["solve", path, "--method", "sgd"]) == 1

    def test_constant_requires_alpha(self, tmp_path):
        p = centered_gaussian_instance(3, 6, 2, seed=75)
        path = write_instance(tmp_path, p)
        assert main(["solve", path, "--method", "md-constant"]) == 1

    def test_eg_pm_on_signed_instance(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 6))
        z = rng.standard_normal(6)
        from entmd import ProblemInstance
        p = ProblemInstance(a, a @ z)
        path = write_instance(tmp_path, p)
        code = main(["solve", path, "--method", "eg-pm", "--x0-scale", "0.5", "--iters", "2000"])
        assert code == 0

    def test_json_format(self, tmp_path, capsys):
        p = centered_gaussian_instance(4, 8, 2, seed=76)
        path = write_instance(tmp_path, p)
        code = main(["solve", path, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["status"] == "Converged"


@st.composite
def adverse_solves(draw):
    """A method on a small system that is degenerate or has no solution, with
    b scaled toward the ends of the double range; a start whose entries go
    down to the smallest subnormal, and one start scale for the CLI."""
    rng = seeded_rng(draw(st.integers(0, 2**16)))
    system = draw(st.sampled_from(["random", "zero column", "duplicate column", "rank one", "inconsistent"]))
    if system == "inconsistent":
        a = rng.standard_normal((10, 4))
        b = rng.standard_normal(10)
    else:
        a = rng.standard_normal((5, 8))
        if system == "zero column":
            a[:, 3] = 0.0
        elif system == "duplicate column":
            a[:, 5] = a[:, 2]
        elif system == "rank one":
            a = np.outer(rng.standard_normal(5), rng.standard_normal(8))
        b = a @ rng.uniform(0.0, 1.0, 8)
    p = ProblemInstance(a, b * draw(st.sampled_from([1e300, 1e150, 1.0, 1e-150, 1e-300])))
    method = draw(st.sampled_from([Method.md_polyak(), Method.hd_plus_polyak(), Method.hd_polyak(), Method.eg_pm(),
                                   Method.md_constant(0.01), Method.md_constant(1.0), Method.md_backtracking()]))
    n = 2 * p.n if method.kind == "eg_pm" else p.n
    scales = st.sampled_from([5e-324, 1e-300, 1e-4, 1.0])
    x0 = np.array(draw(st.lists(scales, min_size=n, max_size=n)))
    return p, method, x0, draw(scales)


class TestAdverseSolveProperties:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(adverse_solves())
    def test_typed_errors_finite_iterates_and_exit_codes(self, case):
        p, method, x0, scale = case
        exits = []
        for start in (x0, np.full(len(x0), scale)):
            try:
                res = solve(p, SolveConfig(method, start, max_iters=300))
            except EntmdError:
                exits.append(1)
                continue
            exits.append({Status.CONVERGED: 0, Status.MAX_ITERS: 2, Status.NUMERICAL_BREAKDOWN: 3}[res.status])
            assert np.isfinite(res.x_final).all()
            # the iterate the scheme runs on: x, or eg_pm's pair w = (u, v)
            w = res.x_final if res.w_final is None else res.w_final
            assert np.isfinite(w).all() and (w >= 0.0).all()
            assert np.isfinite(res.trace.f_value).all()
        argv = ["--method", method.kind.replace("_", "-"), "--x0-scale", repr(scale), "--iters", "300"]
        if method.alpha is not None:
            argv += ["--alpha", repr(method.alpha)]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "instance.json")
            save_instance(p, path)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(["solve", path, *argv])
        # the CLI solves from scale * ones and exits by the status
        assert code == exits[1]


class TestProjectCommand:
    def test_writes_limit(self, tmp_path, capsys):
        p = centered_gaussian_instance(4, 8, 2, seed=77)
        path = write_instance(tmp_path, p)
        out = tmp_path / "limit.json"
        code = main(["project", path, "--eta", "3.0", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        x = np.asarray(doc["x"])
        assert 0.5 * float(np.sum((p.a @ x - p.b) ** 2)) <= 1e-24

    def test_budget_exhausted_exit_two(self, tmp_path, capsys):
        p = centered_gaussian_instance(4, 8, 2, seed=78)
        path = write_instance(tmp_path, p)
        assert main(["project", path, "--eta", "3.0", "--iters", "3"]) == 2

    def test_tiny_dense_start_exit_zero(self, tmp_path, capsys):
        # exp2's seed-0 instance from exp(-50) * ones used to exit 2 after 200000 iterations
        path = write_instance(tmp_path, entmd.gen_instance(entmd.InstanceSpec(60, 100, None, seed=0)))
        assert main(["project", path, "--eta", "50"]) == 0
        assert float(parse_keyvalue(capsys.readouterr().out)["final_f"]) <= 1e-24

    @pytest.mark.parametrize("tol", ["-1", "inf", "nan"])
    def test_bad_tol_exit_one(self, tmp_path, capsys, tol):
        # a negative or infinite tol used to report x0 as the projection
        path = write_instance(tmp_path, centered_gaussian_instance(6, 10, 3, seed=78))
        assert main(["project", path, "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: tol must be finite and nonnegative")


class TestBiasCommand:
    def test_seed_is_a_usage_error(self, tmp_path, capsys):
        # only exp1 and exp2 draw an instance from a seed
        assert main(["bias", "--construct", "4", "8", "--seed", "3"]) == 1
        assert "unrecognized arguments: --seed" in capsys.readouterr().err
        path = write_instance(tmp_path, centered_gaussian_instance(4, 8, 2, seed=79))
        for argv in (["solve", path], ["project", path], ["rate-cert", path], ["instability", path, "--alpha", "1"]):
            assert main(argv + ["--seed", "3"]) == 1

    def test_requires_eta_with_instance(self, tmp_path, capsys):
        p = centered_gaussian_instance(4, 8, 2, seed=79)
        path = write_instance(tmp_path, p)
        assert main(["bias", path]) == 1

    def test_instance_report(self, tmp_path, capsys):
        p = centered_gaussian_instance(4, 8, 3, seed=80)
        path = write_instance(tmp_path, p)
        code = main(["bias", path, "--eta", "5.0"])
        pairs = parse_keyvalue(capsys.readouterr().out)
        assert code == 0
        assert float(pairs["orthogonality_residual"]) <= 1e-6
        assert "exact_gap" in pairs

    def test_construct_mode(self, capsys):
        code = main(["bias", "--construct", "4", "8.0"])
        pairs = parse_keyvalue(capsys.readouterr().out)
        assert code == 0
        assert "expected_gap" in pairs
        assert float(pairs["orthogonality_residual"]) <= 1e-6

    @pytest.mark.parametrize("eta, reason", [("inf", "eta must be finite"), ("nan", "eta must be finite"),
                                             ("1e17", "eta too large"), ("1e15", "exp(-eta) = 0.0")])
    def test_construct_names_the_eta_fault(self, capsys, eta, reason):
        # each used to print "eta too small" or blame the start vector x0
        assert main(["bias", "--construct", "12", eta]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and reason in captured.err


@pytest.mark.parametrize("command", ["solve", "project", "bias"])
def test_overflowing_eta_exit_one(tmp_path, capsys, command):
    # exp(-eta) overflows: a usage error, not a traceback
    path = write_instance(tmp_path, centered_gaussian_instance(4, 8, 2, seed=81))
    assert main([command, path, "--eta", "-1000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflows" in err


@pytest.mark.parametrize("eta", ["inf", "nan", "800"])
@pytest.mark.parametrize("command", ["solve", "project", "bias"])
def test_eta_without_a_finite_positive_start_exit_one(tmp_path, capsys, command, eta):
    # exp(-eta) is 0 or nan: the message names the flag, not the start vector it builds
    path = write_instance(tmp_path, centered_gaussian_instance(4, 8, 2, seed=81))
    assert main([command, path, "--eta", eta]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --eta {float(eta)!r}: ")


class TestCertificateCommands:
    def test_rate_cert(self, tmp_path, capsys):
        p = positive_solution_instance(10, 4, seed=81)
        path = write_instance(tmp_path, p)
        code = main(["rate-cert", path, "--dh", "0.5"])
        pairs = parse_keyvalue(capsys.readouterr().out)
        assert code == 0
        assert 0.0 < float(pairs["local_factor"]) < 1.0
        assert float(pairs["global_factor_at_dh"]) >= float(pairs["local_factor"])

    @pytest.mark.parametrize("dh", ["nan", "-1"])
    def test_rate_cert_bad_dh_exit_one(self, tmp_path, capsys, dh):
        # nan used to fail inside lambert_w, with a message naming it
        path = write_instance(tmp_path, positive_solution_instance(10, 4, seed=81))
        assert main(["rate-cert", path, "--dh", dh]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --dh must be nonnegative")

    def test_rate_cert_needs_planted(self, tmp_path):
        from entmd import ProblemInstance
        p = ProblemInstance([[1.0, 1.0]], [1.0])
        path = write_instance(tmp_path, p)
        assert main(["rate-cert", path]) == 1

    def test_instability(self, tmp_path, capsys):
        p = positive_solution_instance(8, 5, seed=82)
        path = write_instance(tmp_path, p)
        code = main(["instability", path, "--alpha", "0.7", "--iters", "4000"])
        pairs = parse_keyvalue(capsys.readouterr().out)
        assert code == 0
        assert float(pairs["jacobian_spectral_radius"]) == pytest.approx(2.0, abs=1e-9)
        assert float(pairs["max_escape_distance"]) > 0

    def test_instability_alpha_too_small_exit_one(self, tmp_path, capsys):
        # used to leak a RuntimeWarning and then blame the vector entries
        path = write_instance(tmp_path, entmd.gen_instance(entmd.InstanceSpec(4, 8, 3, seed=1)))
        assert main(["instability", path, "--alpha", "1e-320"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: alpha 1e-320 is too small")

    def test_instability_escape_scales_with_alpha(self, tmp_path, capsys):
        # at alpha = 1e200 the escape differences are ~1e-199, whose squares
        # underflow: numpy's norm read them as 0 and the command printed
        # max_escape_distance=0.  The escape scales as 1 / alpha; the unstable
        # iteration amplifies last-bit differences of the construction, which
        # spread it by 1.6e-4 relative between alpha = 1 and 1e100 already.
        path = write_instance(tmp_path, entmd.gen_instance(entmd.InstanceSpec(4, 8, 3, seed=1)))
        escapes = {}
        for alpha in ("1e100", "1e200"):
            assert main(["instability", path, "--alpha", alpha]) == 0
            escapes[alpha] = float(parse_keyvalue(capsys.readouterr().out)["max_escape_distance"])
        assert escapes["1e200"] == pytest.approx(1e-100 * escapes["1e100"], rel=1e-3)

    @pytest.mark.parametrize("iters", ["0", "-5"])
    def test_instability_without_iterations_exit_one(self, tmp_path, capsys, iters):
        # no iteration used to print max_escape_distance=0, which reads as "no escape"
        path = write_instance(tmp_path, positive_solution_instance(8, 5, seed=82))
        assert main(["instability", path, "--alpha", "1", "--iters", iters]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: iters must be a whole number of at least 1")


class TestRateCertLimit:
    """rate-cert certifies toward the limit of a run from 1e-4 * ones; on an
    underdetermined system the planted z is in general another solution."""

    @staticmethod
    def underdetermined():
        return entmd.gen_instance(entmd.InstanceSpec(6, 10, None, seed=1))

    def test_planted_z_that_is_not_the_limit_exit_one(self, tmp_path, capsys):
        # D_h(z, x_k) stalls at D_h(z, x*) > 0 here, so no factor below 1
        # holds; this used to print local_factor=0.99999526214070955
        path = write_instance(tmp_path, self.underdetermined())
        assert main(["rate-cert", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: z is not the limit of a run from x0_scale=0.0001")
        assert "orthogonality residual" in captured.err and "entmd project" in captured.err

    def test_limit_certificate_holds_along_the_run(self, tmp_path, capsys):
        p = self.underdetermined()
        x0 = np.full(p.n, 1e-4)
        z = entmd.bregman_projection(p, x0)
        path = write_instance(tmp_path, entmd.ProblemInstance(p.a, p.b, planted=z))
        assert main(["rate-cert", path]) == 0
        pairs = parse_keyvalue(capsys.readouterr().out)
        cert = entmd.rate_certificate(p, z)
        assert pairs["x0_scale"] == "0.0001"
        assert float(pairs["local_factor"]) == cert.local_factor < 1.0
        # criterion 10's per-step check along md_polyak from the same start
        res = entmd.solve(p, entmd.SolveConfig(entmd.Method.md_polyak(), x0, max_iters=20_000, f_tol=1e-24,
                                               trace_reference=z))
        assert res.status is entmd.Status.CONVERGED
        ds = [*res.trace.d_h_to_ref.tolist(), entmd.bregman_divergence(z, res.x_final)]
        for d_prev, d_next in zip(ds, ds[1:]):
            assert d_next - cert.global_factor_fn(d_prev) * d_prev <= 1e-10 * max(1.0, d_prev)


class TestExperimentCommands:
    def test_exp1(self, tmp_path, capsys):
        code = main(["exp1", "--m", "5", "--n", "8", "--sparsity", "2", "--iters", "20",
                     "--extra-iters", "5", "--seed", "3", "--out", str(tmp_path),
                     "--methods", "md-polyak,hd-plus-polyak"])
        assert code == 0
        assert (tmp_path / "exp1_cummin.csv").exists()
        assert (tmp_path / "exp1_divergence.csv").exists()

    def test_exp2(self, tmp_path, capsys):
        code = main(["exp2", "--m", "5", "--n", "8", "--iters", "30", "--seed", "4",
                     "--scales", "1e-2,1e-4", "--out", str(tmp_path)])
        assert code == 0
        header = (tmp_path / "exp2_cummin.csv").read_text().splitlines()[0]
        assert header == "iter,x0_0.01,x0_0.0001"

    def test_runs_without_records_read_infinite(self, tmp_path, capsys):
        # a start at 1e300 overflows f at x0: the run stops before its first
        # record, and its cumulative minimum is the minimum over no values
        assert main(["exp2", "--seed", "1", "--iters", "5", "--scales", "1e300,1e-4", "--out", str(tmp_path)]) == 0
        rows = [line.split(",") for line in (tmp_path / "exp2_cummin.csv").read_text().splitlines()]
        assert rows[0] == ["iter", "x0_1e+300", "x0_0.0001"] and len(rows) == 6
        assert all(row[1] == "inf" and 0.0 < float(row[2]) < np.inf for row in rows[1:])
        meta = parse_keyvalue((tmp_path / "exp2_meta.txt").read_text())
        assert meta["status.x0_1e+300"] == "NumericalBreakdown" and meta["status.x0_0.0001"] == "MaxIters"
        assert main(["exp1", "--seed", "1", "--iters", "5", "--extra-iters", "2", "--x0-scale", "1e300",
                     "--methods", "md-polyak,md-backtracking,eg-pm", "--out", str(tmp_path)]) == 0
        rows = [line.split(",") for line in (tmp_path / "exp1_cummin.csv").read_text().splitlines()]
        assert rows[0] == ["iter", "md_polyak", "md_backtracking", "eg_pm"] and len(rows) == 6
        assert all(row[1:3] == ["inf", "inf"] and float(row[3]) < np.inf for row in rows[1:])
        # their limit estimate is x0 itself, yet a divergence of 0 would read as converged
        rows = [line.split(",") for line in (tmp_path / "exp1_divergence.csv").read_text().splitlines()]
        assert rows[0] == ["iter", "md_polyak", "md_backtracking", "eg_pm"] and len(rows) == 6
        assert all(row[1:3] == ["inf", "inf"] and float(row[3]) < np.inf for row in rows[1:])
        meta = parse_keyvalue((tmp_path / "exp1_meta.txt").read_text())
        assert meta["status.md_polyak"] == meta["status.md_backtracking"] == "NumericalBreakdown"
        # with the default methods no grid stepsize reaches a finite objective:
        # md_constant_opt is the smallest stepsize's run, recorded as the others are
        assert main(["exp1", "--seed", "1", "--iters", "5", "--extra-iters", "2", "--x0-scale", "1e300",
                     "--out", str(tmp_path)]) == 0
        labels = ["md_constant_opt", "md_backtracking", "md_polyak", "hd_polyak", "hd_plus_polyak"]
        rows = [line.split(",") for line in (tmp_path / "exp1_cummin.csv").read_text().splitlines()]
        assert rows[0] == ["iter", *labels] and len(rows) == 6
        assert all(row[1:] == ["inf"] * 5 for row in rows[1:])
        rows = [line.split(",") for line in (tmp_path / "exp1_divergence.csv").read_text().splitlines()]
        assert rows[0] == ["iter", *labels] and all(row[1:] == ["inf"] * 5 for row in rows[1:])
        meta = parse_keyvalue((tmp_path / "exp1_meta.txt").read_text())
        assert all(meta[f"status.{label}"] == "NumericalBreakdown" for label in labels)

    @pytest.mark.parametrize("argv", [["exp2", "--scales", "1e-4,nan"], ["exp2", "--scales", "inf"],
                                      ["exp1", "--x0-scale", "nan", "--sparsity", "2", "--methods", "md-polyak"],
                                      ["exp1", "--x0-scale=-inf", "--sparsity", "2",
                                       "--methods", "hd-polyak,md-constant-grid"]])
    def test_non_finite_start_scale_exit_one(self, tmp_path, capsys, argv):
        assert main(argv + ["--m", "5", "--n", "8", "--iters", "5", "--out", str(tmp_path)]) == 1
        assert "finite and positive" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_repeated_method_exit_one(self, tmp_path, capsys):
        # used to write the header iter,md_polyak,md_polyak and one status line
        assert main(["exp1", "--m", "3", "--n", "5", "--sparsity", "2", "--methods", "md-polyak,md-polyak",
                     "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --methods") and "md_polyak" in captured.err
        assert not list(tmp_path.iterdir())

    def test_exp2_scales_sharing_a_label_exit_one(self, tmp_path, capsys):
        # used to write two x0_0.0001 columns and one status.x0_0.0001 line
        assert main(["exp2", "--m", "3", "--n", "5", "--iters", "5", "--scales", "1e-4,1.0000001e-4",
                     "--out", str(tmp_path)]) == 1
        assert "repeated column label x0_0.0001" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_module_entry_point(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(entmd.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "entmd.cli", "exp2", "--m", "5", "--n", "8",
                               "--iters", "10", "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "exp2_cummin.csv").exists()

    def test_missing_subcommand_exit_one(self):
        assert main([]) == 1
