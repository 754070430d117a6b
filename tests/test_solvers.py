import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmd import (
    EXP_QUAD_BOUND,
    BreakdownError,
    ConvergenceError,
    ConvexObjective,
    DimensionMismatch,
    DomainError,
    InfiniteDivergence,
    InstanceSpec,
    Method,
    ProblemInstance,
    SolveConfig,
    Status,
    backtracking_stepsize,
    bregman_divergence,
    gen_instance,
    max_col_norm_sq,
    md_step,
    seeded_rng,
    solve,
    solve_convex,
)
import entmd.solvers
from entmd.experiments import _constant_grid
from entmd.solvers import (_DESCENT_TOL, _backtracking_stepsize, _continue, _exp_update, _frozen_sum, _hd_mult,
                           _hd_plus_update, _lockstep, _objective_gradient, _polyak_stepsize, _replay_divergence)
from conftest import centered_gaussian_instance, egpm_step, gradient, objective, signed_system


def hd_mult_frozen(x, g, alpha):
    """The hd_polyak update as both loops take it: :func:`_hd_mult`, then the mask of :func:`_frozen_sum`."""
    out = _hd_mult(x, g, alpha)
    _frozen_sum(x, out)
    return out


def one_dim_instance():
    return ProblemInstance([[1.0]], [1.0], planted=[1.0])


def objective_gradient(p, x):
    """(f, grad f) at x from the callback solve iterates on."""
    return _objective_gradient(p, "md_polyak")(np.array(x, dtype=float))


class TestObjectiveGradient:
    def test_exact_solution(self):
        f, g = objective_gradient(one_dim_instance(), [1.0])
        assert f == 0.0
        assert np.array_equal(g, [0.0])

    def test_off_solution(self):
        f, g = objective_gradient(one_dim_instance(), [2.0])
        assert f == pytest.approx(0.5)
        assert g == pytest.approx([1.0])

    def test_identity_system(self):
        p = ProblemInstance(np.eye(2), [1.0, 1.0])
        assert objective_gradient(p, [0.0, 2.0])[1] == pytest.approx([-1.0, 1.0])

    def test_zero_case(self):
        p = ProblemInstance([[1.0]], [0.0])
        assert objective_gradient(p, [0.0])[0] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve(one_dim_instance(), SolveConfig(Method.md_polyak(), [1.0, 2.0]))


class TestProblemInstance:
    def test_planted_must_solve(self):
        with pytest.raises(DomainError):
            ProblemInstance([[1.0]], [1.0], planted=[2.0])

    def test_planted_must_be_nonnegative(self):
        with pytest.raises(DomainError):
            ProblemInstance([[1.0, 1.0]], [0.0], planted=[1.0, -1.0])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            ProblemInstance([[1.0, 1.0]], [1.0, 2.0])

    @pytest.mark.parametrize("field", ["a", "b", "planted"])
    def test_fields_are_read_only(self, field):
        # an assignment would skip the checks and leave the transposed copy stale
        p = gen_instance(InstanceSpec(6, 10, 3, seed=7))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, field, getattr(p, field).copy())

    def test_transpose_is_made_once(self):
        p = gen_instance(InstanceSpec(6, 10, 3, seed=7))
        assert p.at is p.at
        assert p.at.flags.c_contiguous
        assert p.at.tobytes() == np.ascontiguousarray(p.a.T).tobytes()


class TestPolyakStepsize:
    # _polyak_stepsize(x, g, f, c, ||g||_inf), the stepsize every Polyak solve takes
    def test_polyak_term_binds(self):
        # f = 0.5, g = (1,), weighted norm = 2 at x = (2,)
        assert _polyak_stepsize(np.array([2.0]), np.array([1.0]), 0.5, 1.0, 1.0) == pytest.approx(0.25)

    def test_cap_binds(self):
        # x = 0.1: f = 0.405, ||g||^2_x = 0.081, cap = 1.79 / 0.9
        alpha = _polyak_stepsize(np.array([0.1]), np.array([-0.9]), 0.405, 1.0, 0.9)
        assert alpha == pytest.approx(EXP_QUAD_BOUND / 0.9)

    def test_zero_gap(self):
        assert _polyak_stepsize(np.array([1.0]), np.array([1.0]), 0.0, 1.0, 1.0) == 0.0

    def test_boundary_weighted_norm(self):
        # zero weight where the gradient lives: fall back to the cap
        alpha = _polyak_stepsize(np.array([0.0]), np.array([2.0]), 1.0, 1.0, 2.0)
        assert alpha == pytest.approx(EXP_QUAD_BOUND / 2.0)

    def test_convex_mode_halves_polyak_term(self):
        # solve_convex takes c = 2 where solve takes c = 1
        quad = _polyak_stepsize(np.array([2.0]), np.array([1.0]), 0.5, 1.0, 1.0)
        cvx = _polyak_stepsize(np.array([2.0]), np.array([1.0]), 0.5, 2.0, 1.0)
        assert cvx == pytest.approx(quad / 2)

    def test_errors(self):
        # a zero gradient with a positive gap has no stepsize: None, which a
        # solve reports as a breakdown at that iteration
        assert _polyak_stepsize(np.array([1.0]), np.zeros(1), 1.0, 1.0, 0.0) is None
        p = ProblemInstance([[1.0], [1.0]], [2.0, 0.0])  # at x = 1: r = (-1, 1), f = 1, g = 0
        res = solve(p, SolveConfig(Method.md_polyak(), [1.0]))
        assert res.status is Status.NUMERICAL_BREAKDOWN
        assert res.iters_run == 0 and len(res.trace) == 0


class TestSteps:
    def test_md_zero_step(self):
        x = np.array([0.5, 2.0])
        assert np.array_equal(md_step(x, [1.0, -1.0], 0.0), x)

    def test_md_hand_value(self):
        assert md_step([2.0], [1.0], 0.25) == pytest.approx([2 * math.exp(-0.25)])

    def test_md_frozen_zero(self):
        out = md_step([0.0, 1.0], [5.0, 0.0], 1.0)
        assert np.array_equal(out, [0.0, 1.0])

    def test_md_overflow_breaks(self):
        with pytest.raises(BreakdownError):
            md_step([1.0], [-1.0], 1e4)

    # parametrized over md_step alone so the test ids name the step function
    @pytest.mark.parametrize("step", [md_step])
    @pytest.mark.parametrize("alpha", [-1.0, -1e-300, math.inf, math.nan])
    def test_stepsize_must_be_finite_and_nonnegative(self, step, alpha):
        # a negative stepsize would step uphill: md_step([1], [1], -1) would return e
        with pytest.raises(DomainError):
            step([1.0], [1.0], alpha)

    @pytest.mark.parametrize("step", [md_step])  # as above, for the test ids
    def test_negative_iterate_rejected(self, step):
        # md_step([-1, 1], [1, 1], 0.5) would return a point off the orthant
        with pytest.raises(DomainError):
            step([-1.0, 1.0], [1.0, 1.0], 0.5)

    @pytest.mark.parametrize("alpha", [-1.0, -1e-300, math.inf, math.nan])
    def test_egpm_stepsize_must_be_finite_and_nonnegative(self, alpha):
        # -1 would be a silent ascent step, nan a BreakdownError
        with pytest.raises(DomainError):
            egpm_step([1.0], [1.0], [1.0], alpha)

    def test_exp_update_masks_overflow_at_zero_coordinates(self):
        # 0 * exp(inf) is NaN; a frozen coordinate must stay exactly 0.0
        x = np.array([0.0, 1.0, 2.0])
        g = np.array([-1e4, 1.0, 0.5])
        with np.errstate(over="ignore", invalid="ignore"):
            out = _exp_update(x, g, 1.0)
        assert np.array_equal(out, [0.0, math.exp(-1.0), 2.0 * math.exp(-0.5)])

    def test_exp_update_masks_overflow_in_a_block(self):
        # (B, n) block with one stepsize per row, as a lockstep batch runs it
        x = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0]])
        g = np.array([[-1e4, 1.0, 0.5], [0.5, -1e4, 0.25]])
        alphas = np.array([[1.0], [2.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            out = _exp_update(x, g, alphas)
        expected = np.array([[0.0, math.exp(-1.0), 2.0 * math.exp(-0.5)],
                             [math.exp(-1.0), 0.0, 3.0 * math.exp(-0.5)]])
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("update", [_exp_update, _hd_plus_update, hd_mult_frozen])
    def test_block_update_equals_row_updates(self, update):
        # frozen zero coordinates under overflowing multipliers, in some rows only
        rng = seeded_rng(41)
        x = rng.uniform(0.0, 2.0, (6, 9))
        x[1, 3] = x[4, 0] = x[4, 8] = 0.0
        g = rng.standard_normal((6, 9))
        g[1, 3] = g[4, 0] = -1e200
        g[4, 8] = 1e200
        alphas = np.array([[0.1], [3.0], [0.0], [1e-3], [2.0], [0.7]])
        with np.errstate(over="ignore", invalid="ignore"):
            block = update(x, g, alphas)
            rows = np.array([update(x[r], g[r], float(alphas[r, 0])) for r in range(6)])
        assert block.tobytes() == rows.tobytes()
        if update is _hd_plus_update:
            assert np.isnan(rows[1, 3])  # no mask: the multiplier itself is not finite
        else:
            assert rows[1, 3] == rows[4, 0] == rows[4, 8] == 0.0

    def test_hd_plus_zero_step(self):
        x = np.array([1.0, 3.0])
        assert np.array_equal(_hd_plus_update(x, np.array([1.0, -2.0]), 0.0), x)

    def test_hd_plus_hand_value(self):
        assert _hd_plus_update(np.array([2.0]), np.array([1.0]), 0.25) == pytest.approx([1.625])

    def test_hd_plus_stationary(self):
        x = np.array([1.0, 2.0])
        assert np.array_equal(_hd_plus_update(x, np.zeros(2), 0.7), x)

    def test_hd_zero_step(self):
        x = np.array([1.0])
        assert np.array_equal(hd_mult_frozen(x, np.array([3.0]), 0.0), x)

    def test_hd_hand_value(self):
        assert hd_mult_frozen(np.array([2.0]), np.array([1.0]), 0.25) == pytest.approx([2 * 0.75**2])

    def test_hd_exact_zero_at_root(self):
        assert hd_mult_frozen(np.array([2.0]), np.array([1.0]), 1.0) == pytest.approx([0.0])

    # eg_pm takes the exponential update on w = (u, v) with gradient (g, -g)
    def test_egpm_zero_step(self):
        w = np.array([1.0, 2.0])
        assert np.array_equal(_exp_update(w, np.array([3.0, -3.0]), 0.0), w)

    def test_egpm_stationary_at_zero_gradient(self):
        w = np.array([0.5, 0.5])
        assert np.array_equal(_exp_update(w, np.zeros(2), 1.0), w)

    def test_egpm_matches_md_on_stacked_system(self):
        # one split step, from the reference, must equal one exponential step on (A, -A)
        rng = seeded_rng(20)
        a = rng.standard_normal((3, 5))
        u = rng.uniform(0.1, 1.0, 5)
        v = rng.uniform(0.1, 1.0, 5)
        b = rng.standard_normal(3)
        g = a.T @ (a @ (u - v) - b)
        alpha = 0.3
        u2, v2 = egpm_step(u, v, g, alpha)
        w2 = _exp_update(np.concatenate([u, v]), np.concatenate([g, -g]), alpha)
        assert np.max(np.abs(np.concatenate([u2, v2]) - w2)) < 1e-14


class TestBacktracking:
    def test_zero_gradient_accepts_alpha0(self):
        p = one_dim_instance()
        assert backtracking_stepsize(p, [1.0], [0.0], 3.0) == 3.0

    def test_gradient_zero_on_the_support_accepts_alpha0(self):
        # off the support x+ stays 0 for every trial, so each trial leaves x
        # unchanged: a point that only the support test finds stationary
        p = ProblemInstance(np.eye(2), [1.0, -1.0])
        assert backtracking_stepsize(p, [1.0, 0.0], [0.0, 5.0], 3.0) == 3.0

    def test_large_alpha0_terminates(self):
        p = one_dim_instance()
        x = np.array([2.0])
        g = gradient(p, x)
        alpha = backtracking_stepsize(p, x, g, 1e6)
        x_plus = md_step(x, g, alpha)
        d_f = 0.5 * float(np.sum((p.a @ (x - x_plus)) ** 2))
        assert alpha * d_f < bregman_divergence(x, x_plus)

    def test_accepted_alpha_satisfies_inequality(self):
        p = centered_gaussian_instance(4, 8, 3, seed=21)
        rng = seeded_rng(22)
        for _ in range(10):
            x = rng.uniform(0.05, 2.0, 8)
            g = gradient(p, x)
            alpha = backtracking_stepsize(p, x, g, 10.0)
            x_plus = md_step(x, g, alpha)
            d_h = bregman_divergence(x, x_plus)
            if d_h > 0:
                d_f = 0.5 * float(np.sum((p.a @ (x - x_plus)) ** 2))
                assert alpha * d_f < d_h

    def test_bad_vectors_rejected(self):
        p = centered_gaussian_instance(4, 8, 3, seed=21)
        with pytest.raises(DimensionMismatch):
            backtracking_stepsize(p, np.ones(5), np.ones(5), 1.0)
        with pytest.raises(DimensionMismatch):
            backtracking_stepsize(p, np.ones(8), np.ones(7), 1.0)
        with pytest.raises(DomainError):
            backtracking_stepsize(p, -np.ones(8), np.ones(8), 1.0)

    def test_trial_rounding_to_x_is_not_stationary(self):
        # every small trial rounds x+ to x, so D_f = D_h = 0; the gradient is 1,
        # so that is no stationary point and no trial is admissible
        p = ProblemInstance([[1.0]], [1.0])
        with pytest.raises(ConvergenceError):
            backtracking_stepsize(p, [2.0], [1.0], 100.0, shrink=1e-20)
        res = solve(p, SolveConfig(Method.md_backtracking(100.0, shrink=1e-20), [2.0], max_iters=50))
        assert res.status is Status.NUMERICAL_BREAKDOWN
        assert res.iters_run == 0 and len(res.trace) == 0

    def test_accepted_trial_is_returned(self):
        # the loop takes the accepted trial as its next iterate instead of recomputing it
        p = centered_gaussian_instance(5, 9, 2, seed=36)
        x = np.full(9, 0.3)
        g = gradient(p, x)
        with np.errstate(all="ignore"):
            alpha, x_plus, total = _backtracking_stepsize(p.a, x, g, 50.0, 0.5)
            zero_g_alpha, stay, stay_total = _backtracking_stepsize(p.a, x, np.zeros(9), 2.0, 0.5)
        assert alpha == backtracking_stepsize(p, x, g, 50.0) < 50.0
        assert np.array_equal(x_plus, _exp_update(x, g, alpha))
        assert zero_g_alpha == 2.0 and np.array_equal(stay, x)
        # the sum of the trial point is the l1 norm the next record carries
        assert total == float(np.add.reduce(x_plus)) and stay_total == float(np.add.reduce(x))

    def test_no_admissible_stepsize(self):
        # every trial drives the coordinate to zero: D_h(x, x+) is infinite
        p = one_dim_instance()
        x = np.array([2.0])
        with pytest.raises(ConvergenceError):
            backtracking_stepsize(p, x, gradient(p, x), 1e6, shrink=0.999)
        res = solve(p, SolveConfig(Method.md_backtracking(1e6, shrink=0.999), x))
        assert res.status is Status.NUMERICAL_BREAKDOWN
        assert res.iters_run == 0 and len(res.trace) == 0

    def test_overflow_at_x0_breaks_down_without_warning(self):
        # the default alpha0 comes from the gradient at x0, which overflows
        # here; the solve reports it as a breakdown and leaks no RuntimeWarning
        p = gen_instance(InstanceSpec(6, 10, 3, seed=1))
        res = solve(p, SolveConfig(Method.md_backtracking(), np.full(10, 1e300), max_iters=5))
        assert res.status is Status.NUMERICAL_BREAKDOWN
        assert res.iters_run == 0 and len(res.trace) == 0


class TestSolve:
    def test_symmetric_instance(self):
        p = ProblemInstance([[1.0, 1.0]], [1.0])
        res = solve(p, SolveConfig(Method.md_polyak(), [0.3, 0.3]))
        assert res.status is Status.CONVERGED
        assert res.x_final == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_one_dim_trace_values(self):
        p = one_dim_instance()
        res = solve(p, SolveConfig(Method.md_polyak(), [2.0], f_tol=1e-16))
        assert res.status is Status.CONVERGED
        assert res.trace[0].f_value == pytest.approx(0.5)
        assert res.trace[0].stepsize == pytest.approx(0.25)
        # after one step x = 2 exp(-1/4)
        f1 = 0.5 * (2 * math.exp(-0.25) - 1.0) ** 2
        assert res.trace[1].f_value == pytest.approx(f1, rel=1e-12)
        assert np.all(np.diff(res.trace.f_value) <= 0.0)
        assert objective(p, res.x_final) <= 1e-16

    def test_max_iters_status(self):
        p = one_dim_instance()
        res = solve(p, SolveConfig(Method.md_polyak(), [2.0], max_iters=2, f_tol=0.0))
        assert res.status is Status.MAX_ITERS
        assert res.iters_run == 2
        assert len(res.trace) == 2

    @pytest.mark.parametrize("max_iters", [2.5, 0, "40", math.nan, math.inf])
    def test_budget_must_be_a_whole_number(self, max_iters):
        # 2.5 used to be stored as 2 and run 2 iterations without a word
        with pytest.raises(DomainError, match="max_iters must be a whole number"):
            SolveConfig(Method.md_polyak(), np.ones(2), max_iters=max_iters)

    @pytest.mark.parametrize("max_iters", [3.0, np.int64(3)])
    def test_whole_budgets_are_stored_as_ints(self, max_iters):
        cfg = SolveConfig(Method.md_polyak(), np.ones(2), max_iters=max_iters)
        assert type(cfg.max_iters) is int and cfg.max_iters == 3

    def test_trace_is_a_record_array(self):
        # record k and row k of each column are one value; the divergence
        # column exists exactly when a reference was traced
        p = centered_gaussian_instance(6, 12, 3, seed=25)
        x0 = np.full(12, 0.1)
        obj = ConvexObjective(lambda x: objective(p, x), lambda x: gradient(p, x), 0.0)
        plain = ("f_value", "stepsize", "l1_norm")
        for res, names in [
            (solve(p, SolveConfig(Method.md_polyak(), x0, max_iters=30)), plain),
            (solve(p, SolveConfig(Method.md_polyak(), x0, max_iters=30, trace_reference=p.planted)),
             plain + ("d_h_to_ref",)),
            (solve_convex(obj, SolveConfig(Method.hd_plus_polyak(), x0, max_iters=30)), plain),
            (solve_convex(obj, SolveConfig(Method.hd_plus_polyak(), x0, max_iters=30, trace_reference=p.planted)),
             plain + ("d_h_to_ref",)),
            (_lockstep(p, [Method.md_polyak()], x0[None], 30)[0], plain),
        ]:
            assert isinstance(res.trace, np.recarray) and res.trace.dtype.names == names
            assert len(res.trace) == 30
            for name in names:
                assert getattr(res.trace[0], name) == getattr(res.trace, name)[0] == res.trace[name][0]
                assert getattr(res.trace[-1], name) == getattr(res.trace, name)[29]
            assert res.trace[0].f_value == objective(p, x0) and res.trace[0].l1_norm == pytest.approx(1.2)

    def test_cap_safety_and_positivity(self):
        p = centered_gaussian_instance(10, 20, 4, seed=23)
        res = solve(p, SolveConfig(Method.md_polyak(), np.full(20, 0.1)))
        assert res.status is Status.CONVERGED
        x = np.full(20, 0.1)
        for alpha in res.trace.stepsize:
            g = gradient(p, x)
            assert alpha * float(np.max(np.abs(g))) <= EXP_QUAD_BOUND * (1 + 1e-12)
            x = md_step(x, g, alpha)
            assert np.all(x >= 0)

    def test_descent_check_flags_bad_reference(self):
        # a reference far outside the solution set must trip the certificate
        p = centered_gaussian_instance(6, 12, 3, seed=24)
        bad_ref = np.full(12, 7.0)
        cfg = SolveConfig(Method.md_polyak(), np.full(12, 0.1), trace_reference=bad_ref)
        res = solve(p, cfg)
        assert res.status is Status.NUMERICAL_BREAKDOWN

    def test_descent_check_passes_with_planted(self):
        p = centered_gaussian_instance(6, 12, 3, seed=25)
        cfg = SolveConfig(Method.md_polyak(), np.full(12, 0.1), trace_reference=p.planted)
        res = solve(p, cfg)
        assert res.status is Status.CONVERGED
        assert np.all(np.isfinite(res.trace.d_h_to_ref))

    def test_constant_stepsize_overflow_breaks_down(self):
        p = centered_gaussian_instance(6, 12, 3, seed=26)
        res = solve(p, SolveConfig(Method.md_constant(1e8), np.full(12, 1.0)))
        assert res.status is Status.NUMERICAL_BREAKDOWN
        assert np.all(np.isfinite(res.x_final))

    def test_backtracking_is_monotone(self):
        p = centered_gaussian_instance(8, 16, 4, seed=27)
        res = solve(p, SolveConfig(Method.md_backtracking(), np.full(16, 0.1), max_iters=300, f_tol=0.0))
        fs = res.trace.f_value
        assert np.all(fs[1:] <= fs[:-1] * (1 + 1e-12))

    def test_hd_polyak_flagged_heuristic(self):
        p = centered_gaussian_instance(6, 12, 3, seed=28)
        res = solve(p, SolveConfig(Method.hd_polyak(), np.full(12, 0.1)))
        assert res.heuristic

    def test_hd_plus_converges(self):
        p = centered_gaussian_instance(10, 20, 4, seed=29)
        res = solve(p, SolveConfig(Method.hd_plus_polyak(), np.full(20, 0.1)))
        assert res.status is Status.CONVERGED

    def test_reference_infinitely_far_from_x0_raises(self):
        p = ProblemInstance([[1.0]], [1e307])
        with pytest.raises(InfiniteDivergence):
            solve(p, SolveConfig(Method.md_polyak(), [1e-307], trace_reference=[1e307]))

    def test_x0_must_be_positive(self):
        with pytest.raises(DomainError):
            SolveConfig(Method.md_polyak(), [1.0, 0.0])


@pytest.mark.parametrize("method, step", [
    (Method.md_polyak(), md_step),
    (Method.hd_plus_polyak(), _hd_plus_update),
    (Method.hd_polyak(), hd_mult_frozen),
    (Method.md_backtracking(), md_step),
])
def test_trace_stepsizes_replay_through_public_steps(method, step):
    # the loop, md_step and backtracking_stepsize share one update definition:
    # replaying the recorded stepsizes reproduces the final iterate bit for bit
    p = centered_gaussian_instance(6, 12, 3, seed=35)
    x0 = np.full(12, 0.1)
    res = solve(p, SolveConfig(method, x0, max_iters=60, f_tol=0.0))
    assert res.status is Status.MAX_ITERS
    at = np.ascontiguousarray(p.a.T)
    alpha0 = EXP_QUAD_BOUND / float(np.max(np.abs(at @ (p.a @ x0 - p.b))))
    x = x0
    for alpha in res.trace.stepsize:
        g = at @ (p.a @ x - p.b)
        if method.kind == "md_backtracking":
            assert alpha == backtracking_stepsize(p, x, g, alpha0)
        x = step(x, g, alpha)
    assert np.array_equal(x, res.x_final)


def reference_divergence(p, method, x0, iters, z):
    """D_h(z, x_k) as a solve traced against ``z`` records it."""
    res = solve(p, SolveConfig(method, x0, max_iters=iters, f_tol=0.0, trace_reference=z, check_descent=False))
    return res.trace.d_h_to_ref


def replayed_divergence(p, runs):
    """The same for each run ``(method, x0, iters, z)``, replayed in one batch
    from the marks and stepsizes of one lockstep batch run to the longest
    budget, each run's steps cut at its own budget."""
    methods, x0, budgets, refs = (list(column) for column in zip(*runs))
    longest = max(budgets)
    marks = np.zeros((len(runs), -(-longest // 256), len(x0[0])))
    batch = _lockstep(p, methods, np.array(x0), longest, marks=marks)
    steps = [res.trace.stepsize[:budget] for res, budget in zip(batch, budgets)]
    return _replay_divergence(p, methods, marks, steps, np.array(refs))


def assert_replays_match(p, runs):
    replayed = replayed_divergence(p, runs)
    for (method, x0, iters, z), column in zip(runs, replayed):
        assert column.tobytes() == reference_divergence(p, method, x0, iters, z).tobytes()
    return replayed


class TestReplayDivergence:
    # method3 was eg_pm, which a batch no longer takes; the other ids stay as they were
    @pytest.mark.parametrize("method", [Method.md_polyak(), Method.hd_plus_polyak(), Method.hd_polyak(),
                                        Method.md_constant(0.05), Method.md_backtracking()],
                             ids=["method0", "method1", "method2", "method4", "method5"])
    @pytest.mark.parametrize("iters", [1, 63, 64, 65, 200])
    def test_matches_traced_solve_across_blocks(self, method, iters):
        # one batch: the method from two starts and the other kinds, each
        # replaying a different number of steps
        p = centered_gaussian_instance(6, 12, 3, seed=37)
        kinds = [method, Method.md_polyak(), Method.hd_plus_polyak(), Method.hd_polyak(), Method.md_backtracking()]
        runs = []
        for j, (kind, scale) in enumerate([(method, 0.1), (method, 0.03)] + [(kind, 0.1) for kind in kinds[1:]]):
            x0 = np.full(12, scale)
            z = np.clip(solve(p, SolveConfig(kind, x0, max_iters=300, f_tol=0.0)).x_final, 0.0, None)
            runs.append((kind, x0, max(iters - 7 * j, 1), z))
        replayed = assert_replays_match(p, runs)
        assert len(replayed[0]) == iters

    def test_breakdown_run(self):
        p = centered_gaussian_instance(5, 8, 2, seed=38)
        x0 = np.full(8, 0.1)
        z = np.full(8, 0.2)
        replayed = assert_replays_match(p, [(Method.md_constant(1e9), x0, 50, z), (Method.md_polyak(), x0, 50, z)])
        assert 0 < len(replayed[0]) < 50 and len(replayed[1]) == 50

    def test_divergence_turning_infinite_ends_the_series(self):
        # x_1 shrinks by about exp(-2) per step and underflows to 0 after
        # ~370 steps while z_1 = 1: from there D_h(z, x_k) is infinite; the
        # run stays in the batch until its steps run out
        p = ProblemInstance(np.eye(2), [-1.0, 0.25])
        x0, z = np.full(2, 1e-4), np.ones(2)
        runs = [(Method.md_constant(2.0), x0, 600, z), (Method.md_constant(0.5), x0, 500, z)]
        reference = reference_divergence(p, *runs[0])
        assert 300 < len(reference) < 600 and math.isfinite(reference[-1])
        replayed = assert_replays_match(p, runs)
        assert len(replayed[0]) == len(reference) and len(replayed[1]) == 500

    @pytest.mark.parametrize("steps", [0, 1, 100])
    def test_reference_infinitely_far_from_x0_raises(self, steps):
        p = ProblemInstance([[1.0]], [1e307])
        with pytest.raises(InfiniteDivergence):
            _replay_divergence(p, [Method.md_polyak()] * 2, np.array([[[1.0]], [[1e-307]]]), [[1.0] * 3, [1.0] * steps],
                               np.array([[1.0], [1e307]]))


def assert_rows_match_solves(p, methods, x0, iters):
    """Each row of one lockstep batch equals its own solve bit for bit."""
    runs = _lockstep(p, methods, x0, iters)
    for r, (method, start) in enumerate(zip(methods, x0)):
        res = solve(p, SolveConfig(method, start, max_iters=iters, f_tol=0.0))
        row = runs[r]
        assert row.trace.dtype == res.trace.dtype and row.trace.tobytes() == res.trace.tobytes()
        assert row.x_final.tobytes() == res.x_final.tobytes()
        assert row.status is res.status and row.iters_run == res.iters_run
        assert row.heuristic is res.heuristic
    return runs


def lockstep_corpus(p, scales):
    """Every kind the lockstep kernel takes from each start scale, with
    constant stepsizes that are stable and ones that overflow within a few steps."""
    mc = max_col_norm_sq(p.a)
    kinds = [Method.md_polyak(), Method.hd_plus_polyak(), Method.hd_polyak(), Method.md_constant(1.0 / mc),
             Method.md_constant(30.0 / mc), Method.md_constant(100.0 / mc)]
    return [(kind, np.full(p.n, scale)) for kind in kinds for scale in scales]


class TestLockstep:
    @pytest.mark.parametrize("m, n, sparsity", [(60, 100, 10), (30, 50, None), (11, 12, None)])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_rows_equal_solves(self, m, n, sparsity, seed):
        p = gen_instance(InstanceSpec(m, n, sparsity=sparsity, seed=seed))
        iters = 300
        rows = lockstep_corpus(p, [1e-8, 1e-4, 1.0])
        methods, x0 = [row[0] for row in rows], np.array([row[1] for row in rows])
        runs = assert_rows_match_solves(p, methods, x0, iters)
        # rows leave the batch at different iterations
        assert len({res.iters_run for res in runs}) > 1
        # the solves' stepsizes replayed, together with md_backtracking's, give
        # their traced divergences to each run's final iterate
        methods += [Method.md_backtracking()] * 3
        x0 = np.concatenate([x0, x0[:3]])
        refs = [np.clip(solve(p, SolveConfig(method, start, max_iters=iters, f_tol=0.0)).x_final, 0.0, None)
                for method, start in zip(methods, x0)]
        assert_replays_match(p, list(zip(methods, x0, [iters] * len(methods), refs)))

    @pytest.mark.parametrize("a, b", [(np.eye(2), [1.0, 0.5]), ([[1.0, 1.0]], [1.0]),
                                      ([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], [1.0, 0.5])])
    def test_rows_converging_at_different_iterations(self, a, b):
        # small systems on which runs reach f = 0 exactly, each at its own iteration
        p = ProblemInstance(a, b)
        rows = lockstep_corpus(p, [1e-8, 1e-4, 1.0, 3.0])
        runs = assert_rows_match_solves(p, [row[0] for row in rows], np.array([row[1] for row in rows]), 400)
        converged = [res.iters_run for res in runs if res.status is Status.CONVERGED]
        assert len(set(converged)) >= 4

    def test_breakdowns(self):
        # zero gradient at x0 = 0.5, f overflowing at x0 = 1e300, an update
        # overflowing on the first step, and rows that run on
        p = ProblemInstance([[1.0], [-1.0]], [1.0, 0.0])
        methods = [Method.md_polyak(), Method.md_polyak(), Method.md_constant(800.0), Method.hd_plus_polyak(),
                   Method.md_polyak(), Method.hd_polyak(), Method.md_constant(1e3)]
        x0 = np.array([[0.5], [1e300], [1e-4], [0.5], [1e-4], [1e-8], [1.0]])
        runs = assert_rows_match_solves(p, methods, x0, 100)
        assert [res.status.value for res in runs[:4]] == ["NumericalBreakdown"] * 4
        assert [len(res.trace) for res in runs[:4]] == [0, 0, 1, 0]
        # a gradient overflowing while f is finite, and an exact zero residual
        p = ProblemInstance([[1e300]], [0.0])
        methods = [Method.md_polyak(), Method.md_polyak(), Method.md_constant(1e-299), Method.hd_plus_polyak(),
                   Method.hd_polyak()]
        x0 = np.array([[1e-290], [1e-300], [1e-300], [1e10], [1e-300]])
        runs = assert_rows_match_solves(p, methods, x0, 100)
        assert [res.status.value for res in runs] == ["NumericalBreakdown", "MaxIters", "MaxIters",
                                                      "NumericalBreakdown", "Converged"]

    def test_kept_records_and_budgets(self):
        p = gen_instance(InstanceSpec(11, 12, sparsity=3, seed=5))
        methods = [Method.md_polyak(), Method.hd_polyak(), Method.md_constant(0.01)]
        x0 = np.full((3, 12), 1e-4)
        short = _lockstep(p, methods, x0, 50)
        full = _lockstep(p, methods, x0, 80)
        assert [(len(res.trace), res.iters_run) for res in short] == [(50, 50)] * 3
        assert [(len(res.trace), res.iters_run) for res in full] == [(80, 80)] * 3
        for r in range(3):
            assert short[r].trace.tobytes() == full[r].trace[:50].tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_backtracking_rows(self, seed):
        # md_backtracking rows, each with its own first trial and shrink factor,
        # batched with the other kinds; their trials are rejected at different
        # iterations, and on the one-dimensional system every trial of the
        # largest first stepsize drives x to 0, so that row breaks down
        p = gen_instance(InstanceSpec(11, 12, sparsity=3, seed=seed))
        methods = [Method.md_backtracking(), Method.md_backtracking(50.0, 0.3), Method.md_backtracking(1e3, 0.9),
                   Method.md_polyak(), Method.md_constant(0.5 / max_col_norm_sq(p.a))]
        x0 = np.array([np.full(12, scale) for scale in (1e-4, 1e-4, 1e-2, 1e-4, 1.0)])
        runs = assert_rows_match_solves(p, methods, x0, 300)
        # the iteration at which each backtracking row first shrinks below its first stepsize
        assert len({int(np.argmax(res.trace.stepsize < res.trace.stepsize[0])) for res in runs[:3]}) == 3
        p = one_dim_instance()
        methods = [Method.md_backtracking(), Method.md_backtracking(1e6, 0.999), Method.md_backtracking(1e6)]
        runs = assert_rows_match_solves(p, methods, np.array([[2.0], [2.0], [2.0]]), 40)
        assert runs[1].status is Status.NUMERICAL_BREAKDOWN and runs[1].iters_run == 0

    # md_constant stepsizes, in units of 1 / max_col_norm_sq, whose runs from
    # 1e-4 break down with 63 or 64 records at the end of the first log window
    # of 64 iterations, or with 64 or 65 at the start of the second; each
    # maps to (records, iterations), found by scanning stepsizes in steps of 0.002
    @pytest.mark.parametrize("seed, edges", [(0, {6.295: (63, 62), 6.28: (64, 63), 6.498: (64, 64)}),
                                             (1, {11.464: (65, 64)})])
    def test_runs_ending_at_window_edges(self, seed, edges):
        p = gen_instance(InstanceSpec(11, 12, 3, seed=seed))
        mc = max_col_norm_sq(p.a)
        # beside them a run overflowing at its first update, one whose f
        # overflows at x0, and runs that go on to the budget
        methods = [Method.md_constant(c / mc) for c in edges] + [
            Method.md_constant(1e5 / mc), Method.md_polyak(), Method.md_polyak(), Method.hd_polyak(),
            Method.md_constant(1.0 / mc)]
        x0 = np.full((len(methods), 12), 1e-4)
        x0[len(edges) + 1] = 1e300
        runs = assert_rows_match_solves(p, methods, x0, 200)
        assert [(len(res.trace), res.iters_run) for res in runs] == [*edges.values(), (1, 0), (0, 0), *[(200, 200)] * 3]
        refs = [np.clip(res.x_final, 0.0, None) for res in runs]
        # the run without records replays nothing, and its reference is x0
        assert_replays_match(p, [(method, start, 200, ref) for method, start, ref in zip(methods, x0, refs)])

    def test_stopped_rows_leave_at_once(self, monkeypatch):
        # exp1's grid, its Polyak runs and a backtracking run: nine grid rows
        # break down within the first window, and none of them takes another
        # row of the stacked GEMV after the iteration on which it stops
        p = gen_instance(InstanceSpec(60, 100, 10, seed=1))
        methods = _constant_grid(p) + [Method.md_polyak(), Method.hd_polyak(), Method.hd_plus_polyak(),
                                       Method.md_backtracking(alpha0=1.0)]
        advanced = []
        stacked = entmd.solvers._stacked_gradients

        def counted(a, at, b, x):
            advanced.append(len(x))
            return stacked(a, at, b, x)

        monkeypatch.setattr(entmd.solvers, "_stacked_gradients", counted)
        x0 = np.full(p.n, 1e-4)
        runs = _lockstep(p, methods, np.tile(x0, (len(methods), 1)), 2000)
        stopped = [res.status is not Status.MAX_ITERS for res in runs]
        assert sum(stopped) >= 9
        # a run evaluates its gradient at each iteration it steps from and at the one on which it stops
        assert sum(advanced) == sum(res.iters_run + s for res, s in zip(runs, stopped))
        for method, res, s in zip(methods, runs, stopped):
            if s:
                assert res.iters_run == solve(p, SolveConfig(method, x0, max_iters=2000, f_tol=0.0)).iters_run


@st.composite
def lockstep_cases(draw):
    """One small system with a batch on it: per row a method, a start and a
    reference, and one budget.

    The systems have zero columns, more rows than columns, right-hand sides
    that runs reach exactly (f = 0) and ones they cannot, and scales at
    which f or the gradient overflows at x0.
    """
    if draw(st.integers(0, 2)) == 0:
        # systems on which runs reach f = 0 exactly, each at its own iteration
        a, b = draw(st.sampled_from([(np.eye(2), [1.0, 0.5]), ([[1.0, 1.0]], [1.0]),
                                     ([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], [1.0, 0.5])]))
        p = ProblemInstance(a, b)
    else:
        m, n = draw(st.integers(1, 5)), draw(st.integers(1, 6))
        a = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5, -2.0, 3.0]),
                                   min_size=m * n, max_size=m * n))).reshape(m, n)
        a[:, draw(st.lists(st.integers(0, n - 1), max_size=2))] = 0.0
        a *= draw(st.sampled_from([1.0] * 6 + [1e150, 1e300]))
        z = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 2.0]), min_size=n, max_size=n)))
        p = ProblemInstance(a, a @ z if draw(st.booleans()) else z[:1].repeat(m) - a[:, 0])
    n = p.n
    rows = draw(st.integers(1, 5))
    kinds = st.sampled_from([
        Method.md_polyak(), Method.hd_plus_polyak(), Method.hd_polyak(), Method.md_constant(1e-3),
        Method.md_constant(0.3), Method.md_constant(30.0), Method.md_constant(800.0), Method.md_backtracking(),
        Method.md_backtracking(1e3, 0.1), Method.md_backtracking(0.5, 0.9)])
    methods = [draw(kinds) for _ in range(rows)]
    scales = st.sampled_from([5e-324, 1e-300, 1e-8, 1e-4, 1e-4, 0.5, 1.0, 1.0, 3.0, 1e300])
    pattern = st.sampled_from([1.0, 1.0, 2.0, 4.0])
    x0 = np.array([draw(scales) * np.array(draw(st.lists(pattern, min_size=n, max_size=n))) for _ in range(rows)])
    budget = draw(st.integers(1, 400))
    refs = np.array(draw(st.lists(st.sampled_from([0.0, 0.1, 1.0, 2.0]), min_size=rows * n,
                                  max_size=rows * n))).reshape(rows, n)
    return p, methods, x0, budget, refs


class TestLockstepProperties:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(lockstep_cases())
    def test_rows_and_replays_equal_solves(self, case):
        p, methods, x0, budget, refs = case
        assert_rows_match_solves(p, methods, x0, budget)
        assert_replays_match(p, [(method, start, budget, ref) for method, start, ref in zip(methods, x0, refs)])


# budgets on both sides of the first and second mark
MARK_SIZES = st.sampled_from([255, 256, 257, 512, 513])


@st.composite
def marked_cases(draw):
    """A batch of :func:`lockstep_cases` (or of runs on a system on which a
    coordinate underflows to 0 mid-run) with a budget around the marks'
    stride, and references some of which are infinitely far from x0."""
    if draw(st.integers(0, 3)) == 0:
        # x_1 shrinks by exp(-1.79) or exp(-2) per step and underflows to 0
        # after 370-420 steps: from there the divergence to z with z_1 > 0 is infinite
        p = ProblemInstance(np.eye(2), [-1.0, 0.25])
        methods = draw(st.lists(st.sampled_from([Method.md_constant(2.0), Method.md_polyak(),
                                                 Method.md_backtracking(), Method.hd_polyak()]),
                                min_size=1, max_size=4))
        x0 = np.full((len(methods), 2), 1e-4)
        refs = np.array(draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=2 * len(methods),
                                      max_size=2 * len(methods)))).reshape(-1, 2)
    else:
        p, methods, x0, _, refs = draw(lockstep_cases())
    rows = len(methods)
    if draw(st.integers(0, 7)) == 0:
        # D_h(z, x0) overflows for every start of these cases
        refs[draw(st.integers(0, rows - 1)), draw(st.integers(0, refs.shape[1] - 1))] = 1e307
    return p, methods, x0, draw(MARK_SIZES), refs


class TestMarkedReplayProperties:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(marked_cases())
    def test_marks_and_replays_equal_solves(self, case):
        p, methods, x0, budget, refs = case
        marks = np.zeros((len(methods), -(-budget // 256), x0.shape[1]))
        runs = _lockstep(p, methods, x0, budget, marks=marks)
        for r, (method, start, res) in enumerate(zip(methods, x0, runs)):
            # mark s is the iterate from which a run that takes step 256 s takes it
            assert marks[r, 0].tobytes() == start.tobytes()
            for s in range(1, marks.shape[1]):
                if len(res.trace) > 256 * s:
                    solved = solve(p, SolveConfig(method, start, max_iters=256 * s, f_tol=0.0))
                    assert marks[r, s].tobytes() == solved.x_final.tobytes()
        steps = [res.trace.stepsize for res in runs]
        try:
            traced = [solve(p, SolveConfig(method, start, max_iters=budget, f_tol=0.0, trace_reference=ref,
                                           check_descent=False)).trace.d_h_to_ref
                      for method, start, ref in zip(methods, x0, refs)]
        except InfiniteDivergence:
            with pytest.raises(InfiniteDivergence):
                _replay_divergence(p, methods, marks, steps, refs)
            return
        for expected, replayed in zip(traced, _replay_divergence(p, methods, marks, steps, refs)):
            assert replayed.tobytes() == expected.tobytes()


def assert_continuations_match_solves(p, methods, x0, k, j):
    """A batch of k iterations continued by :func:`_continue` for j more ends where
    each solve of k + j iterations ends; returns how many runs stopped in the continuation."""
    runs = _lockstep(p, methods, x0, k)
    going = [res.status is Status.MAX_ITERS for res in runs]
    _continue(p, methods, x0, runs, j)
    for method, start, res in zip(methods, x0, runs):
        solved = solve(p, SolveConfig(method, start, max_iters=k + j, f_tol=0.0))
        assert (res.status, res.iters_run) == (solved.status, solved.iters_run)
        assert res.x_final.tobytes() == solved.x_final.tobytes()
    return sum(go and res.status is not Status.MAX_ITERS for go, res in zip(going, runs))


class TestContinuationProperties:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(lockstep_cases(), st.integers(1, 300), st.integers(1, 300))
    def test_continued_runs_equal_solves(self, case, k, j):
        p, methods, x0, _, _ = case
        assert_continuations_match_solves(p, methods, x0, k, j)

    # every run goes on past k; in the continuation, on the first system
    # hd_plus_polyak converges and both backtracking runs break down, and on
    # the second every run but md_constant(30) converges or breaks down,
    # hd_polyak at iteration 5
    @pytest.mark.parametrize("a, b, scale, k, stopped", [([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], [1.0, 0.5], 1e-4, 50, 3),
                                                         ([[1.0, 1.0]], [1.0], 1.0, 4, 6)])
    def test_every_kind_continues(self, a, b, scale, k, stopped):
        p = ProblemInstance(a, b)
        methods = [Method.md_polyak(), Method.hd_plus_polyak(), Method.hd_polyak(), Method.md_constant(0.3),
                   Method.md_constant(30.0), Method.md_backtracking(), Method.md_backtracking(0.5, 0.9)]
        x0 = np.full((len(methods), p.n), scale)
        assert assert_continuations_match_solves(p, methods, x0, k, 400) == stopped


@st.composite
def certified_runs(draw):
    """A small system with a planted nonnegative solution z, some of whose
    entries are 0, scaled from 1e-300 to 1e150; the matrix may have a zero or
    a duplicated column.  A start with entries from 5e-324 to 1, and a
    reference: z, or z perturbed so that it is no solution."""
    rng = seeded_rng(draw(st.integers(0, 2**16)))
    m, n = draw(st.integers(1, 5)), draw(st.integers(2, 8))
    a = rng.standard_normal((m, n))
    system = draw(st.sampled_from(["random", "zero column", "duplicate column"]))
    if system == "zero column":
        a[:, 0] = 0.0
    elif system == "duplicate column":
        a[:, 1] = a[:, 0]
    z = rng.uniform(0.0, 1.0, n) * (rng.uniform(0.0, 1.0, n) < 0.7)
    z *= draw(st.sampled_from([1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150]))
    p = ProblemInstance(a, a @ z)
    x0 = np.array(draw(st.lists(st.sampled_from([5e-324, 1e-300, 1e-8, 1e-4, 0.5, 1.0]), min_size=n, max_size=n)))
    shift = draw(st.sampled_from([0.0, 0.0, 1e-12, 1e-6, 1e-2]))
    ref = np.abs(z + shift * max(float(z.max()), 1e-300) * rng.standard_normal(n))
    return p, x0, ref, draw(st.integers(1, 300))


def replayed_iterates(p, method, x0, stepsizes):
    """The iterates x_0, x_1, ... and objectives f_0, f_1, ... of a solve that
    took ``stepsizes``, with the loop's own arithmetic: ``at @ r`` on a
    contiguous transpose, which rounds as the loop does where ``a.T @ r`` does not."""
    a, b = p.a, p.b
    at = np.ascontiguousarray(a.T)
    x, xs, fs = x0, [x0], []
    for alpha in stepsizes:
        r = a @ x
        r -= b
        g = at @ r
        fs.append(0.5 * float(r @ r))
        x = md_step(x, g, alpha) if method.kind == "md_polyak" else _hd_plus_update(x, g, alpha)
        xs.append(x)
    return xs, fs


class TestCertificateProperties:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(certified_runs())
    def test_no_false_certificate_passes(self, case):
        # a run that ends Converged or MaxIters certified every step: the
        # public divergence along its replayed iterates descends as checked
        p, x0, ref, budget = case
        for method in (Method.md_polyak(), Method.hd_plus_polyak()):
            try:
                res = solve(p, SolveConfig(method, x0, max_iters=budget, f_tol=0.0, trace_reference=ref))
            except InfiniteDivergence:
                continue
            if res.status is Status.NUMERICAL_BREAKDOWN:
                continue
            xs, fs = replayed_iterates(p, method, x0, res.trace.stepsize)
            assert xs[-1].tobytes() == res.x_final.tobytes() and fs == res.trace.f_value.tolist()
            d = [bregman_divergence(ref, x) for x in xs]
            assert np.allclose(res.trace.d_h_to_ref, d[:-1], rtol=1e-12, atol=0.0)
            for k, (alpha, f) in enumerate(zip(res.trace.stepsize, fs)):
                assert d[k + 1] - d[k] <= -alpha * f + _DESCENT_TOL * (1.0 + d[k]), k


class TestEgpmSolve:
    def test_converges_on_signed_system(self):
        a, b, z = signed_system(4, 8, seed=30)
        p = ProblemInstance(a, b)
        cfg = SolveConfig(Method.eg_pm(), np.full(16, 0.5), max_iters=500, f_tol=1e-24)
        res = solve(p, cfg)
        assert res.status is Status.CONVERGED
        assert res.w_final is not None and res.w_final.shape == (16,)
        assert np.linalg.norm(a @ res.x_final - b) < 1e-10

    def test_trace_l1_is_pair_mass(self):
        a, b, z = signed_system(3, 6, seed=31)
        p = ProblemInstance(a, b)
        res = solve(p, SolveConfig(Method.eg_pm(), np.full(12, 0.5), max_iters=5, f_tol=0.0))
        assert res.trace[0].l1_norm == pytest.approx(6.0)

    def test_x0_length_must_be_doubled(self):
        a, b, z = signed_system(3, 6, seed=32)
        p = ProblemInstance(a, b)
        with pytest.raises(DimensionMismatch):
            solve(p, SolveConfig(Method.eg_pm(), np.full(6, 0.5)))

    def test_reference_made_infinite_breaks_down_like_stacked_system(self):
        # the subnormal v-coordinate underflows to 0 in the first step while
        # the reference keeps it positive: D_h(z, w) becomes infinite
        p = ProblemInstance([[1.0, 1.0]], [100.0])
        x0 = np.array([0.5, 0.5, 5e-324, 0.5])
        z = np.array([50.0, 50.0, 1e-3, 1e-3])
        res = solve(p, SolveConfig(Method.eg_pm(), x0, trace_reference=z))
        stacked = solve(ProblemInstance([[1.0, 1.0, -1.0, -1.0]], [100.0]),
                        SolveConfig(Method.md_polyak(), x0, trace_reference=z))
        assert res.status is stacked.status is Status.NUMERICAL_BREAKDOWN
        assert res.iters_run == stacked.iters_run == 1
        assert np.array_equal(res.w_final, stacked.x_final)
        assert np.array_equal(res.x_final, res.w_final[:2] - res.w_final[2:])


class TestSolveConvex:
    @staticmethod
    def distance_objective(c):
        return ConvexObjective(
            value=lambda x: 0.5 * float(np.sum((x - c) ** 2)),
            gradient=lambda x: x - c,
            f_star=0.0,
        )

    def test_already_optimal(self):
        c = np.array([1.0, 2.0])
        res = solve_convex(self.distance_objective(c), SolveConfig(Method.md_polyak(), c.copy()))
        assert res.status is Status.CONVERGED
        assert res.iters_run == 0

    def test_converges_and_respects_rate(self):
        rng = seeded_rng(33)
        c = rng.uniform(0.5, 2.0, 12)
        x0 = np.full(12, 0.1)
        res = solve_convex(self.distance_objective(c), SolveConfig(Method.md_polyak(), x0, f_tol=1e-22))
        assert res.status is Status.CONVERGED
        r = bregman_divergence(c, x0)
        coeff = 16 * r * (r + float(np.sum(c)))
        best = np.minimum.accumulate(res.trace.f_value)
        assert np.all(best <= coeff / np.arange(1, len(best) + 1))

    def test_first_step_half_of_quadratic(self):
        # the same quadratic solved via the generic path takes half the
        # first stepsize whenever the cap is slack
        p = ProblemInstance(np.eye(3), [1.0, 1.0, 1.0], planted=[1.0, 1.0, 1.0])
        x0 = np.full(3, 0.5)
        quad = solve(p, SolveConfig(Method.md_polyak(), x0, max_iters=1, f_tol=0.0))
        obj = ConvexObjective(lambda x: objective(p, x), lambda x: gradient(p, x), 0.0)
        cvx = solve_convex(obj, SolveConfig(Method.md_polyak(), x0, max_iters=1, f_tol=0.0))
        assert cvx.trace[0].stepsize == pytest.approx(quad.trace[0].stepsize / 2)

    def test_below_optimum_tolerance_is_relative(self):
        # one rounding step under a large optimum is rounding; 1% under it is
        # a wrong optimum
        def run(value):
            obj = ConvexObjective(lambda x: value, lambda x: np.ones_like(x), 1e8)
            return solve_convex(obj, SolveConfig(Method.md_polyak(), np.ones(2)))

        assert run(np.nextafter(1e8, 0.0)).status is Status.CONVERGED
        with pytest.raises(DomainError):
            run(0.99e8)

    def test_wrong_f_star_rejected(self):
        c = np.array([1.0])
        obj = ConvexObjective(lambda x: 0.5 * float(np.sum((x - c) ** 2)), lambda x: x - c, 1.0)
        with pytest.raises(DomainError):
            solve_convex(obj, SolveConfig(Method.md_polyak(), np.array([1.0])))

    def test_hd_plus_mode(self):
        rng = seeded_rng(34)
        c = rng.uniform(0.5, 2.0, 6)
        res = solve_convex(self.distance_objective(c), SolveConfig(Method.hd_plus_polyak(), np.full(6, 0.2)))
        assert res.status is Status.CONVERGED

    def test_unsupported_method(self):
        with pytest.raises(DomainError):
            solve_convex(self.distance_objective(np.ones(2)), SolveConfig(Method.hd_polyak(), np.ones(2)))

    def test_nonfinite_gradient_breaks_down(self):
        # same terminal status as solve() on a non-finite gradient
        obj = ConvexObjective(lambda x: float(np.sum(x)), lambda x: np.full(x.shape, np.nan), 0.0)
        res = solve_convex(obj, SolveConfig(Method.md_polyak(), np.ones(3)))
        assert res.status is Status.NUMERICAL_BREAKDOWN
        assert res.iters_run == 0
        assert np.array_equal(res.x_final, np.ones(3))

    @pytest.mark.parametrize("bad", [{1: math.nan}, {2: math.inf}, {0: -math.inf}, {1: math.nan, 2: math.inf}])
    def test_nonfinite_gradient_entry_breaks_down_at_its_iteration(self, bad):
        c = np.array([1.0, 2.0, 3.0])
        calls = []

        def grad(x):
            calls.append(None)
            g = x - c
            if len(calls) == 4:  # the gradient at x_3
                for i, v in bad.items():
                    g[i] = v
            return g

        obj = ConvexObjective(lambda x: 0.5 * float(np.sum((x - c) ** 2)), grad, 0.0)
        res = solve_convex(obj, SolveConfig(Method.md_polyak(), np.full(3, 0.5), f_tol=0.0))
        clean = solve_convex(self.distance_objective(c), SolveConfig(Method.md_polyak(), np.full(3, 0.5),
                                                                     max_iters=3, f_tol=0.0))
        assert res.status is Status.NUMERICAL_BREAKDOWN
        assert res.iters_run == 3 and len(res.trace) == 3
        assert np.array_equal(res.x_final, clean.x_final)

    def test_gradient_length_mismatch_raises(self):
        c = np.array([1.0, 2.0, 3.0])
        obj = ConvexObjective(lambda x: 0.5 * float(np.sum((x - c) ** 2)), lambda x: (x - c)[:2], 0.0)
        with pytest.raises(DimensionMismatch):
            solve_convex(obj, SolveConfig(Method.md_polyak(), np.full(3, 0.5)))


class TestMethod:
    def test_constant_requires_positive_alpha(self):
        with pytest.raises(DomainError):
            Method.md_constant(0.0)

    def test_backtracking_shrink_range(self):
        with pytest.raises(DomainError):
            Method.md_backtracking(1.0, shrink=1.0)

    def test_parameters_checked_on_direct_construction(self):
        with pytest.raises(DomainError):
            Method("md_constant", alpha=-0.5)
        with pytest.raises(DomainError):
            Method("md_constant")
        with pytest.raises(DomainError):
            Method("md_backtracking", alpha0=-1.0)
        with pytest.raises(DomainError):
            Method("md_backtracking", shrink=0.0)

    def test_labels(self):
        assert Method.md_polyak().label == "md_polyak"
        assert Method.md_constant(0.5).label == "md_constant_0.5"
