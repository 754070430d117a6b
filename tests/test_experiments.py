import math

import numpy as np
import pytest

from entmd import (
    MD_CONSTANT_GRID,
    DimensionMismatch,
    DomainError,
    ExperimentConfig,
    InstanceSpec,
    Method,
    ProblemInstance,
    SolveConfig,
    Status,
    gen_instance,
    grid_search_constant,
    max_col_norm_sq,
    run_experiment1,
    run_experiment2,
    seeded_rng,
    solve,
)
from entmd.linalg import random_orthogonal
from entmd.solvers import _lockstep


class TestGenInstance:
    def test_determinism(self):
        spec = InstanceSpec(6, 10, sparsity=3, seed=7)
        p1, p2 = gen_instance(spec), gen_instance(spec)
        assert np.array_equal(p1.a, p2.a)
        assert np.array_equal(p1.b, p2.b)
        assert np.array_equal(p1.planted, p2.planted)

    def test_different_seeds_differ(self):
        a1 = gen_instance(InstanceSpec(4, 6, sparsity=2, seed=1)).a
        a2 = gen_instance(InstanceSpec(4, 6, sparsity=2, seed=2)).a
        assert not np.array_equal(a1, a2)

    def test_sparsity_count(self):
        p = gen_instance(InstanceSpec(30, 50, sparsity=10, seed=3))
        z = p.planted
        assert int(np.sum(z > 0)) == 10
        assert np.all(z <= 1.0)

    def test_dense_planted(self):
        p = gen_instance(InstanceSpec(5, 8, sparsity=None, seed=4))
        assert np.all(p.planted > 0)

    def test_degenerate_size(self):
        p = gen_instance(InstanceSpec(1, 1, sparsity=None, seed=5))
        assert p.b[0] == pytest.approx(p.a[0, 0] * p.planted[0])

    def test_singular_values_match_draw(self):
        # the documented draw order lets us replay sigma independently
        spec = InstanceSpec(8, 12, sparsity=4, seed=11)
        p = gen_instance(spec)
        rng = seeded_rng(11)
        rng.standard_normal((8, 8))
        rng.standard_normal((12, 12))
        sigma = np.sort(np.abs(rng.standard_normal(8)))
        evals = np.linalg.eigvalsh(p.a.T @ p.a)
        nonzero = np.sqrt(np.clip(evals[-8:], 0.0, None))
        assert np.max(np.abs(np.sort(nonzero) - sigma)) < 1e-8

    @staticmethod
    def _in_draw_order(spec):
        # the documented draw order, verbatim: U's block, V's block, sigma and the support from one stream
        rng = seeded_rng(spec.seed)
        u = random_orthogonal(spec.m, rng)
        v = random_orthogonal(spec.n, rng)
        k = min(spec.m, spec.n)
        sigma = np.abs(rng.standard_normal(k))
        a = (u[:, :k] * sigma) @ v[:, :k].T
        z = np.zeros(spec.n)
        if spec.sparsity is None:
            z = rng.uniform(0.0, 1.0, spec.n)
        else:
            support = rng.choice(spec.n, size=spec.sparsity, replace=False)
            z[support] = rng.uniform(0.0, 1.0, spec.sparsity)
        return a, a @ z, z

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("m, n, sparsity", [(1, 1, None), (4, 6, 2), (5, 5, None), (8, 12, None), (6, 4, 2),
                                                (60, 100, 10)])
    def test_bits_match_the_documented_draw_order(self, m, n, sparsity, seed):
        # gen_instance draws U's block from a second generator after V; the bytes must not move
        if m > n:
            with pytest.warns(UserWarning):
                spec = InstanceSpec(m, n, sparsity, seed=seed)
        else:
            spec = InstanceSpec(m, n, sparsity, seed=seed)
        p = gen_instance(spec)
        for got, want in zip((p.a, p.b, p.planted), self._in_draw_order(spec)):
            assert got.tobytes() == want.tobytes()

    def test_validation(self):
        with pytest.raises(DomainError):
            InstanceSpec(4, 6, sparsity=7, seed=0)
        with pytest.warns(UserWarning):
            InstanceSpec(6, 4, sparsity=2, seed=0)

    # non-whole m, n and sparsity used to reach numpy's TypeError, a negative seed its ValueError
    @pytest.mark.parametrize("fields", [dict(m=6.5), dict(n=10.5), dict(m="6"), dict(sparsity=2.5),
                                        dict(sparsity=0), dict(seed=-1), dict(seed=1.5), dict(m=math.nan)])
    def test_dimensions_and_seed_must_be_whole(self, fields):
        with pytest.raises(DomainError, match=f"{next(iter(fields))} must be a whole number"):
            InstanceSpec(**{"m": 6, "n": 10, "sparsity": 3, "seed": 0, **fields})

    def test_whole_floats_are_stored_as_ints(self):
        spec = InstanceSpec(6.0, 10.0, np.int64(3), seed=7.0)
        assert spec == InstanceSpec(6, 10, 3, seed=7)
        assert all(type(v) is int for v in (spec.m, spec.n, spec.sparsity, spec.seed))
        assert gen_instance(spec).a.tobytes() == gen_instance(InstanceSpec(6, 10, 3, seed=7)).a.tobytes()


class TestExperiment1:
    def test_single_method_shape(self, tmp_path):
        cfg = ExperimentConfig(InstanceSpec(6, 10, sparsity=3, seed=12),
                               methods=[Method.md_polyak()],
                               iters=40, limit_extra_iters=10, out_path=tmp_path)
        cummin_path, div_path, meta_path = run_experiment1(cfg)
        lines = cummin_path.read_text().splitlines()
        assert lines[0] == "iter,md_polyak"
        assert len(lines) == 41
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert all(v >= 0 and np.isfinite(v) for v in values)
        div_lines = div_path.read_text().splitlines()
        assert len(div_lines) == 41
        meta = meta_path.read_text()
        assert "seed=12" in meta and "status.md_polyak=" in meta

    def test_five_methods_columns(self, tmp_path):
        methods = [MD_CONSTANT_GRID, Method.md_backtracking(), Method.md_polyak(),
                   Method.hd_polyak(), Method.hd_plus_polyak()]
        cfg = ExperimentConfig(InstanceSpec(5, 8, sparsity=2, seed=13),
                               methods=methods, iters=25, limit_extra_iters=5, out_path=tmp_path)
        cummin_path, _, _ = run_experiment1(cfg)
        header = cummin_path.read_text().splitlines()[0]
        assert header == "iter,md_constant_opt,md_backtracking,md_polyak,hd_polyak,hd_plus_polyak"

    def test_byte_identical_rerun(self, tmp_path):
        spec = InstanceSpec(5, 8, sparsity=2, seed=14)
        out = {}
        for name in ("a", "b"):
            cfg = ExperimentConfig(spec, methods=[Method.md_polyak(), Method.hd_plus_polyak()],
                                   iters=30, limit_extra_iters=10, out_path=tmp_path / name)
            paths = run_experiment1(cfg)
            out[name] = [path.read_bytes() for path in paths]
        assert out["a"] == out["b"]

    def test_breakdown_is_recorded_not_fatal(self, tmp_path):
        cfg = ExperimentConfig(InstanceSpec(5, 8, sparsity=2, seed=15),
                               methods=[Method.md_constant(1e9)],
                               iters=50, limit_extra_iters=0, out_path=tmp_path)
        cummin_path, _, meta_path = run_experiment1(cfg)
        assert "NumericalBreakdown" in meta_path.read_text()
        values = [float(line.split(",")[1]) for line in cummin_path.read_text().splitlines()[1:]]
        assert len(values) == 50
        assert all(np.isfinite(v) for v in values)

    @pytest.mark.parametrize("iters, extra, scale", [(1, 30, 1e-4), (64, 40, 1e-4), (150, 60, 1e-4), (97, 0, 1.0),
                                                     (256, 40, 1e-4), (257, 40, 1e-4), (600, 100, 1e-4)])
    def test_divergence_panel_equals_a_traced_rerun(self, tmp_path, iters, extra, scale):
        methods = [Method.md_polyak(), Method.hd_plus_polyak(), Method.hd_polyak(), Method.eg_pm(),
                   Method.md_constant(0.02), Method.md_backtracking(), MD_CONSTANT_GRID]
        spec = InstanceSpec(10, 16, sparsity=4, seed=19)
        cfg = ExperimentConfig(spec, methods=methods, iters=iters, limit_extra_iters=extra, inits=[scale],
                               out_path=tmp_path)
        _, div_path, _ = run_experiment1(cfg)
        p = gen_instance(spec)
        expected = [reference_divergence(p, method, scale, iters, extra) for method in methods]
        assert_same_text(div_path.read_text(), csv_text(div_path.read_text().splitlines()[0], expected))

    # on each, the best stepsize over iters + extra iterations is another one
    @pytest.mark.parametrize("iters, extra", [(1, 30), (2, 30), (40, 200)])
    def test_grid_is_judged_over_the_plotted_iterations(self, tmp_path, iters, extra):
        spec = InstanceSpec(10, 16, sparsity=4, seed=19)
        cfg = ExperimentConfig(spec, methods=[MD_CONSTANT_GRID, Method.md_backtracking()], iters=iters,
                               limit_extra_iters=extra, out_path=tmp_path)
        cummin_path, _, _ = run_experiment1(cfg)
        p, x0 = gen_instance(spec), np.full(spec.n, 1e-4)
        alpha, res = grid_search_constant(p, x0, iters)
        assert grid_search_constant(p, x0, iters + extra)[0] != alpha
        f = res.trace.f_value.tolist()
        column = np.minimum.accumulate(f + f[-1:] * (iters - len(f)))
        found = [line.split(",")[:2] for line in cummin_path.read_text().splitlines()]
        assert_same_text("\n".join(map(",".join, found)) + "\n", csv_text("iter,md_constant_opt", [column]))

    def test_divergence_panel_of_a_breakdown_equals_a_traced_rerun(self, tmp_path):
        spec = InstanceSpec(5, 8, sparsity=2, seed=15)
        method = Method.md_constant(1e9)
        cfg = ExperimentConfig(spec, methods=[method], iters=50, limit_extra_iters=0, out_path=tmp_path)
        _, div_path, meta_path = run_experiment1(cfg)
        assert "NumericalBreakdown" in meta_path.read_text()
        expected = reference_divergence(gen_instance(spec), method, 1e-4, 50, 0)
        assert_same_text(div_path.read_text(), csv_text("iter," + method.label, [expected]))

    def test_eg_pm_alone_leaves_the_batch_empty(self, tmp_path):
        spec = InstanceSpec(10, 16, sparsity=4, seed=19)
        cfg = ExperimentConfig(spec, methods=[Method.eg_pm()], iters=300, limit_extra_iters=20, out_path=tmp_path)
        _, div_path, _ = run_experiment1(cfg)
        expected = reference_divergence(gen_instance(spec), Method.eg_pm(), 1e-4, 300, 20)
        assert_same_text(div_path.read_text(), csv_text("iter,eg_pm", [expected]))

    def test_requires_methods(self, tmp_path):
        cfg = ExperimentConfig(InstanceSpec(4, 6, sparsity=2, seed=16),
                               methods=[], iters=10, out_path=tmp_path)
        with pytest.raises(DomainError):
            run_experiment1(cfg)

    @pytest.mark.parametrize("method", ["md_polyak", None])
    def test_methods_are_methods_or_the_grid_marker(self, method):
        # such an entry used to fail inside run_experiment1 with an AttributeError
        with pytest.raises(DomainError, match="MD_CONSTANT_GRID"):
            ExperimentConfig(InstanceSpec(4, 6, sparsity=2, seed=16), methods=[Method.md_polyak(), method])


    @pytest.mark.parametrize("field, value", [("iters", 2.5), ("iters", 0), ("iters", "40"), ("iters", math.nan),
                                              ("limit_extra_iters", 0.5), ("limit_extra_iters", -1),
                                              ("limit_extra_iters", math.inf)])
    def test_budgets_must_be_whole_numbers(self, field, value):
        # iters=2.5 used to fail inside the experiment with a TypeError, and
        # limit_extra_iters=0.5 ran 3 iterations for iters=3 while the sidecar recorded 0.5
        with pytest.raises(DomainError, match=f"{field} must be a whole number"):
            ExperimentConfig(InstanceSpec(3, 5, sparsity=2, seed=16), **{field: value})

    def test_whole_float_budgets_are_stored_as_ints(self):
        cfg = ExperimentConfig(InstanceSpec(3, 5, sparsity=2, seed=16), iters=3.0, limit_extra_iters=np.int64(2))
        assert [(type(v), v) for v in (cfg.iters, cfg.limit_extra_iters)] == [(int, 3), (int, 2)]

    @pytest.mark.parametrize("methods", [[Method.md_polyak(), Method.md_polyak()],
                                         [Method.md_backtracking(), Method.md_backtracking(0.5)],
                                         [MD_CONSTANT_GRID, Method.hd_polyak(), MD_CONSTANT_GRID]])
    def test_repeated_label_rejected(self, methods):
        # each label names one CSV column and one status line of the sidecar
        with pytest.raises(DomainError, match="repeated"):
            ExperimentConfig(InstanceSpec(3, 5, sparsity=2, seed=16), methods=methods)


class TestExperiment2:
    def test_columns_and_monotonicity(self, tmp_path):
        cfg = ExperimentConfig(InstanceSpec(6, 10, sparsity=None, seed=17),
                               iters=60, inits=[1e-2, 1e-4, 1e-8], out_path=tmp_path)
        cummin_path, meta_path = run_experiment2(cfg)
        lines = cummin_path.read_text().splitlines()
        assert lines[0] == "iter,x0_0.01,x0_0.0001,x0_1e-08"
        assert len(lines) == 61
        for col in range(1, 4):
            values = [float(line.split(",")[col]) for line in lines[1:]]
            assert all(b <= a for a, b in zip(values, values[1:]))

    def test_byte_identical_rerun(self, tmp_path):
        spec = InstanceSpec(5, 9, sparsity=None, seed=18)
        blobs = []
        for name in ("a", "b"):
            cfg = ExperimentConfig(spec, iters=40, inits=[1e-2, 1e-6], out_path=tmp_path / name)
            blobs.append([path.read_bytes() for path in run_experiment2(cfg)])
        assert blobs[0] == blobs[1]

    def test_scales_sharing_a_label_rejected_before_any_run(self, tmp_path, monkeypatch):
        # 1e-4 and 1.0000001e-4 both print as x0_0.0001: the sidecar kept one status line for two columns
        monkeypatch.setattr("entmd.experiments._lockstep", None)
        cfg = ExperimentConfig(InstanceSpec(5, 9, sparsity=None, seed=18), iters=5,
                               inits=[1e-2, 1e-4, 1.0000001e-4], out_path=tmp_path / "out")
        with pytest.raises(DomainError, match="repeated column label x0_0.0001"):
            run_experiment2(cfg)
        assert not (tmp_path / "out").exists()


def reference_divergence(p, method, scale, iters, extra):
    """Experiment 1's divergence column computed by a second solve of the
    first ``iters`` iterations, traced against the clipped limit estimate."""
    if method == MD_CONSTANT_GRID:
        method = Method.md_constant(grid_search_constant(p, np.full(p.n, scale), iters)[0])
    x0 = np.full(2 * p.n if method.kind == "eg_pm" else p.n, scale)
    long_res = solve(p, SolveConfig(method, x0, max_iters=iters + extra, f_tol=0.0))
    limit = long_res.w_final if method.kind == "eg_pm" else long_res.x_final
    rerun = solve(p, SolveConfig(method, x0, max_iters=iters, f_tol=0.0,
                                 trace_reference=np.clip(limit, 0.0, None), check_descent=False))
    column = rerun.trace.d_h_to_ref.tolist()
    return column + [column[-1] if column else 0.0] * (iters - len(column))


def csv_text(header, columns):
    rows = [",".join([str(i)] + [format(col[i], ".17g") for col in columns]) for i in range(len(columns[0]))]
    return "\n".join([header] + rows) + "\n"


def assert_same_text(found, expected):
    """``found == expected``, reported by the line count or the first differing
    line: pytest's own diff of two 600-row texts ran for minutes."""
    found, expected = found.split("\n"), expected.split("\n")
    assert len(found) == len(expected), f"{len(found)} lines, expected {len(expected)}"
    first = next((i for i, (a, b) in enumerate(zip(found, expected)) if a != b), None)
    assert first is None, f"line {first} is {found[first]!r}, expected {expected[first]!r}"


def reference_grid_search(p, x0, iters):
    """One md_constant solve per grid point; the first strict minimum wins."""
    mc = max_col_norm_sq(p.a)
    best_alpha, best_res, best_f = None, None, np.inf
    for alpha in np.geomspace(1e-2 / mc, 1e2 / mc, 25):
        res = solve(p, SolveConfig(Method.md_constant(float(alpha)), x0, max_iters=iters, f_tol=0.0))
        f_min = res.trace.f_value.min(initial=np.inf)
        if res.status is Status.CONVERGED:
            f_min = 0.0
        if f_min < best_f:
            best_f, best_alpha, best_res = f_min, float(alpha), res
    return best_alpha, best_res


class TestGridSearchConstant:
    def test_returns_grid_member_and_result(self):
        p = gen_instance(InstanceSpec(6, 10, sparsity=3, seed=19))
        x0 = np.full(10, 1e-2)
        alpha, res = grid_search_constant(p, x0, iters=200)
        assert alpha > 0
        assert len(res.trace) > 0
        # the chosen stepsize should beat a clearly bad one
        bad = solve(p, SolveConfig(Method.md_constant(alpha * 1e3), x0, max_iters=200, f_tol=0.0))
        best_f = res.trace.f_value.min()
        bad_f = bad.trace.f_value.min(initial=np.inf)
        assert best_f <= bad_f

    @pytest.mark.parametrize("m, n, sparsity, seed, scale, iters", [
        (6, 10, 3, 19, 1e-2, 200),
        (5, 8, 2, 13, 1e-2, 300),
        (4, 9, 2, 22, 1e-1, 250),
        # large stepsizes break down after 1 to 145 iterations
        (8, 12, None, 21, 1e-3, 150),
    ])
    def test_matches_one_solve_per_stepsize(self, m, n, sparsity, seed, scale, iters):
        p = gen_instance(InstanceSpec(m, n, sparsity=sparsity, seed=seed))
        x0 = np.full(n, scale)
        alpha, res = grid_search_constant(p, x0, iters)
        ref_alpha, ref_res = reference_grid_search(p, x0, iters)
        assert alpha == ref_alpha
        assert res.status is ref_res.status and res.iters_run == ref_res.iters_run
        assert np.array_equal(res.x_final, ref_res.x_final)
        assert [rec.f_value for rec in res.trace] == [rec.f_value for rec in ref_res.trace]

    def test_every_stepsize_breaking_down_picks_the_smallest(self):
        # from 1e50 * ones f(x0) is finite and every grid stepsize's first
        # update overflows, so each run's minimum is f(x0)
        p = gen_instance(InstanceSpec(6, 10, sparsity=3, seed=19))
        x0 = np.full(10, 1e50)
        alpha, res = grid_search_constant(p, x0, iters=200)
        ref_alpha, ref_res = reference_grid_search(p, x0, 200)
        assert alpha == ref_alpha == pytest.approx(1e-2 / max_col_norm_sq(p.a), rel=1e-12)
        assert res.status is Status.NUMERICAL_BREAKDOWN and res.iters_run == 0
        assert len(res.trace) == 1 and math.isfinite(res.trace.f_value[0])
        assert res.trace.tobytes() == ref_res.trace.tobytes()
        assert np.array_equal(res.x_final, ref_res.x_final)

    @pytest.mark.parametrize("m, n, sparsity, seed, scale, iters", [
        (6, 10, 3, 19, 1e-2, 200),
        (8, 12, None, 21, 1e-3, 150),
        (60, 100, 10, 1, 1e-4, 300),
    ])
    def test_block_minima_equal_the_solve_minima(self, m, n, sparsity, seed, scale, iters):
        # the grid's lockstep batch reproduces each stepsize's own solve, so
        # its minima need no rounding slack and no re-solve of near ties
        p = gen_instance(InstanceSpec(m, n, sparsity=sparsity, seed=seed))
        x0 = np.full(n, scale)
        methods = [Method.md_constant(float(alpha))
                   for alpha in np.geomspace(1e-2 / max_col_norm_sq(p.a), 1e2 / max_col_norm_sq(p.a), 25)]
        runs = _lockstep(p, methods, np.tile(x0, (25, 1)), iters)
        solves = [solve(p, SolveConfig(method, x0, max_iters=iters, f_tol=0.0)) for method in methods]
        assert np.array_equal([res.trace.f_value.min(initial=np.inf) for res in runs],
                              [res.trace.f_value.min(initial=np.inf) for res in solves])
        assert [res.status for res in runs] == [res.status for res in solves]

    def test_zero_matrix_rejected(self):
        p = ProblemInstance(np.zeros((2, 3)), np.ones(2))
        with pytest.raises(DomainError):
            grid_search_constant(p, np.ones(3), iters=5)

    def test_bad_start_and_budget_rejected(self):
        p = gen_instance(InstanceSpec(4, 6, sparsity=2, seed=23))
        for x0 in (np.zeros(6), np.full(6, -1.0), np.full(6, np.nan), np.full(6, np.inf)):
            with pytest.raises(DomainError):
                grid_search_constant(p, x0, iters=10)
        with pytest.raises(DimensionMismatch):
            grid_search_constant(p, np.full(5, 1e-2), iters=10)
        with pytest.raises(DomainError):
            grid_search_constant(p, np.full(6, 1e-2), iters=0)

    @pytest.mark.parametrize("iters", [2.5, "40", math.inf])
    def test_budget_must_be_a_whole_number(self, iters):
        # 2.5 used to run a grid of 2 iterations
        p = gen_instance(InstanceSpec(4, 6, sparsity=2, seed=23))
        with pytest.raises(DomainError, match="iters must be a whole number"):
            grid_search_constant(p, np.full(6, 1e-2), iters=iters)

    def test_no_finite_objective_rejected(self):
        # f overflows at x0 for every grid stepsize
        p = gen_instance(InstanceSpec(4, 6, sparsity=2, seed=23))
        with pytest.raises(DomainError, match="finite objective"):
            grid_search_constant(p, np.full(6, 1e300), iters=5)
