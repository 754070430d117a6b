import math

import numpy as np
import pytest
import scipy.optimize
import scipy.special

from entmd import (
    ConvergenceError,
    DomainError,
    Method,
    ProblemInstance,
    SolveConfig,
    Status,
    bias_report,
    bregman_divergence,
    bregman_projection,
    improved_bound,
    instability_construction,
    instability_escape_distance,
    l1_gap_identity_residual,
    l1_minimal_solution,
    max_col_norm_sq,
    objective,
    orthogonality_residual,
    rate_certificate,
    seeded_rng,
    slow_bound,
    solve,
    sublinear_bound_curve,
    worst_case_construction,
)
from conftest import centered_gaussian_instance, positive_solution_instance


class TestBregmanProjection:
    def test_symmetric_instance(self):
        p = ProblemInstance([[1.0, 1.0]], [1.0])
        eta = 3.0
        x = bregman_projection(p, np.full(2, math.exp(-eta)))
        assert x == pytest.approx([0.5, 0.5], abs=1e-10)

    def test_unique_solution(self):
        p = ProblemInstance([[1.0]], [1.0])
        assert bregman_projection(p, [0.01]) == pytest.approx([1.0], abs=1e-10)
        assert bregman_projection(p, [7.0]) == pytest.approx([1.0], abs=1e-10)

    def test_budget_error(self):
        p = centered_gaussian_instance(4, 8, 2, seed=40)
        with pytest.raises(ConvergenceError):
            bregman_projection(p, np.full(8, 0.1), max_iters=3)

    def test_satisfies_orthogonality(self):
        p = centered_gaussian_instance(5, 10, 3, seed=41)
        x0 = np.full(10, math.exp(-2.0))
        x_star = bregman_projection(p, x0)
        check = orthogonality_residual(p, x0, x_star, samples=8, rng=seeded_rng(42))
        assert not check.kernel_trivial
        assert check.residual <= 1e-6


class TestOrthogonalityResidual:
    def test_trivial_kernel(self):
        p = ProblemInstance(np.eye(2), [1.0, 2.0])
        check = orthogonality_residual(p, [0.5, 0.5], [1.0, 2.0], samples=3)
        assert check.kernel_trivial
        assert check.residual == 0.0

    def test_symmetric_pair(self):
        p = ProblemInstance([[1.0, 1.0]], [1.0])
        check = orthogonality_residual(p, np.full(2, 1e-3), [0.5, 0.5], samples=5)
        assert check.residual <= 1e-12


class TestL1GapIdentity:
    def test_symmetric_zero_gap_vertex(self):
        assert l1_gap_identity_residual([0.5, 0.5], [1.0, 0.0], eta=4.0) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_zero_gap_center(self):
        assert l1_gap_identity_residual([0.5, 0.5], [0.5, 0.5], eta=4.0) == pytest.approx(0.0, abs=1e-12)

    def test_hypothesis_enforced(self):
        with pytest.raises(DomainError):
            l1_gap_identity_residual([0.5, 0.5], [1.0, 0.0], eta=0.1)

    def test_small_system_with_oracle(self):
        p = centered_gaussian_instance(4, 8, 3, seed=43)
        eta = 6.0
        x_star = bregman_projection(p, np.full(8, math.exp(-eta)))
        z = l1_minimal_solution(p)
        assert l1_gap_identity_residual(x_star, z, eta) <= 1e-6


class TestBounds:
    def test_slow_bound_value(self):
        want = math.log(10) / (10 + math.log(1 / 10))
        assert slow_bound(10, 1.0, 10.0) == pytest.approx(want)

    def test_slow_bound_vanishes_for_large_eta(self):
        assert slow_bound(10, 1.0, 1e4) <= 1e-3

    def test_slow_bound_n_one(self):
        assert slow_bound(1, 1.0, 5.0) == 0.0

    def test_slow_bound_precondition(self):
        with pytest.raises(DomainError):
            slow_bound(10, 1.0, 1.0)

    def test_improved_bound_n_one(self):
        assert improved_bound(1, 1.0, 5.0, 1.0) == 0.0

    def test_improved_bound_value(self):
        w = float(scipy.special.lambertw(9 / math.e).real)
        want = w / (10 + math.log(1 / 10))
        assert improved_bound(10, 1.0, 10.0, 1.0) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(0.143, abs=5e-4)

    def test_improved_below_slow(self):
        for n in (2, 5, 10, 100, 10_000, 1_000_000):
            for bump in (0.5, 5.0, 40.0):
                eta = math.log(n) + bump  # keeps both preconditions valid
                assert improved_bound(n, 1.0, eta, 1.0) <= slow_bound(n, 1.0, eta) + 1e-15


class TestWorstCaseConstruction:
    def test_two_coordinates(self):
        built = worst_case_construction(2, 10.0)
        p = built.problem
        assert p.a.shape == (1, 2)
        # planted z is the l1-minimal vertex; x_star solves the system too
        assert np.linalg.norm(p.a @ built.x_star - p.b) < 1e-12
        assert built.expected_gap == pytest.approx(np.sum(built.x_star) - np.sum(built.z))

    def test_projection_lands_on_x_star(self):
        built = worst_case_construction(5, 8.0)
        x0 = np.full(5, math.exp(-8.0))
        x_hat = bregman_projection(built.problem, x0)
        assert np.max(np.abs(x_hat - built.x_star)) <= 1e-6

    def test_z_is_l1_minimal_on_segment(self):
        built = worst_case_construction(6, 9.0)
        z, x_star = built.z, built.x_star
        direction = x_star - z
        for s in np.linspace(0.0, 3.0, 301):
            w = z + s * direction
            if np.all(w >= 0):
                assert np.sum(w) >= np.sum(z) - 1e-12

    def test_eta_too_small(self):
        with pytest.raises(DomainError):
            worst_case_construction(10, 0.5)


class TestRateCertificate:
    def test_formula_values(self):
        # identity system: lambda_min_plus = 1, max_col_sq = 1
        p = ProblemInstance(np.eye(2), [0.5, 0.5], planted=[0.5, 0.5])
        cert = rate_certificate(p, [0.5, 0.5])
        assert cert.lambda_min_plus == pytest.approx(1.0)
        assert cert.z_min == 0.5
        assert cert.z_l1 == 1.0
        assert cert.local_factor == pytest.approx(1 - 0.5 / 8)

    def test_global_factor_limit_is_local(self):
        p = ProblemInstance(np.eye(2), [0.5, 0.5], planted=[0.5, 0.5])
        cert = rate_certificate(p, [0.5, 0.5])
        assert cert.global_factor_fn(0.0) == pytest.approx(cert.local_factor, abs=1e-12)
        assert cert.global_factor_fn(5.0) > cert.local_factor

    def test_requires_positive_solution(self):
        p = ProblemInstance([[1.0, 1.0]], [1.0])
        with pytest.raises(DomainError):
            rate_certificate(p, [1.0, 0.0])
        with pytest.raises(DomainError):
            rate_certificate(p, [2.0, 2.0])

    def test_local_factor_in_unit_interval(self):
        for seed in range(3):
            p = positive_solution_instance(12, 5, seed=44 + seed)
            cert = rate_certificate(p, p.planted)
            assert 0.0 < cert.local_factor < 1.0


class TestInstability:
    def test_scalar_construction(self):
        p = ProblemInstance([[1.0]], [1.0], planted=[1.0])
        inst = instability_construction(p, 1.0)
        assert inst.t_scale == pytest.approx(3.0)
        assert inst.scaled.b == pytest.approx([3.0])
        assert inst.jacobian_spectrum_bound == pytest.approx(2.0, abs=1e-12)

    def test_doubling_alpha_halves_scale(self):
        p = positive_solution_instance(6, 4, seed=46)
        t1 = instability_construction(p, 0.5).t_scale
        t2 = instability_construction(p, 1.0).t_scale
        assert t1 == pytest.approx(2 * t2, rel=1e-10)

    def test_constant_stepsize_escapes(self):
        p = positive_solution_instance(8, 5, seed=47)
        inst = instability_construction(p, 0.7)
        escape = instability_escape_distance(inst, iters=10_000)
        assert escape >= 0.1 * float(np.linalg.norm(inst.scaled.planted))

    def test_constant_stepsize_solve_never_converges(self):
        # a full solve with the destabilized constant stepsize must end in
        # MaxIters or breakdown, never convergence
        p = positive_solution_instance(8, 5, seed=47)
        inst = instability_construction(p, 0.7)
        x0 = (1.0 + 1e-6) * inst.scaled.planted
        res = solve(inst.scaled, SolveConfig(Method.md_constant(inst.alpha), x0,
                                             max_iters=3000, f_tol=1e-20))
        assert res.status in (Status.MAX_ITERS, Status.NUMERICAL_BREAKDOWN)

    def test_needs_planted(self):
        p = ProblemInstance([[1.0]], [1.0])
        with pytest.raises(DomainError):
            instability_construction(p, 1.0)

    def test_top_eigenvector_orthogonal_to_ones(self):
        # A^T A has eigenvalues 8, 1, 0; the all-ones vector has no component
        # along the top eigenvector (1, -1, 0), so a power iteration from it
        # finds 1, picks t = 6 and leaves a Jacobian radius of 23
        a = [[2.0, -2.0, 0.0], [0.0, 0.0, 1.0]]
        p = ProblemInstance(a, [0.0, 1.0], planted=[1.0, 1.0, 1.0])
        inst = instability_construction(p, 0.5)
        assert inst.t_scale == pytest.approx(3.0 / (0.5 * 8.0), rel=1e-12)
        jac = np.eye(3) - 0.5 * inst.t_scale * (np.asarray(a).T @ np.asarray(a))
        radius = float(np.max(np.abs(np.linalg.eigvals(jac))))
        assert radius == pytest.approx(2.0, abs=1e-12)
        assert inst.jacobian_spectrum_bound == pytest.approx(radius, abs=1e-12)

    def test_ones_in_kernel_is_not_rejected(self):
        # A ones = 0, so a power iteration from ones returns 0 and the valid
        # instance (top eigenvalue 2) used to be rejected
        p = ProblemInstance([[1.0, -1.0], [0.0, 0.0]], [0.0, 0.0], planted=[1.0, 1.0])
        inst = instability_construction(p, 1.0)
        assert inst.t_scale == pytest.approx(1.5, rel=1e-12)
        assert inst.jacobian_spectrum_bound == pytest.approx(2.0, abs=1e-12)


class TestSublinearBoundCurve:
    def test_values_and_halving(self):
        p = centered_gaussian_instance(5, 10, 3, seed=48)
        x0 = np.full(10, 0.1)
        res = solve(p, SolveConfig(Method.md_polyak(), x0, max_iters=64, f_tol=0.0))
        mc = max_col_norm_sq(p.a)
        curve = dict(sublinear_bound_curve(res.trace, res.x_final, x0, mc))
        r = bregman_divergence(res.x_final, x0)
        coeff = 4 * r * (r + float(np.sum(res.x_final))) * mc
        assert curve[0] == pytest.approx(coeff)
        assert curve[31] == pytest.approx(curve[15] / 2)

    def test_dominates_cumulative_min(self):
        p = centered_gaussian_instance(8, 16, 4, seed=49)
        x0 = np.full(16, 0.1)
        res = solve(p, SolveConfig(Method.md_polyak(), x0))
        assert res.status is Status.CONVERGED
        curve = sublinear_bound_curve(res.trace, res.x_final, x0, max_col_norm_sq(p.a))
        assert [k for k, _ in curve] == list(range(len(res.trace)))
        assert np.all(np.minimum.accumulate(res.trace.f_value) <= [bound for _, bound in curve])


class TestL1MinimalSolution:
    def test_matches_linprog(self):
        for seed in range(5):
            p = centered_gaussian_instance(5, 9, 3, seed=50 + seed)
            z = l1_minimal_solution(p)
            lp = scipy.optimize.linprog(np.ones(9), A_eq=p.a, b_eq=p.b, bounds=(0, None), method="highs")
            assert lp.status == 0
            assert float(np.sum(z)) == pytest.approx(float(np.sum(lp.x)), rel=1e-8, abs=1e-10)
            assert np.linalg.norm(p.a @ z - p.b) <= 1e-8 * (1 + np.linalg.norm(p.b))

    def test_zero_rhs(self):
        p = ProblemInstance([[1.0, -1.0]], [0.0])
        assert np.array_equal(l1_minimal_solution(p), [0.0, 0.0])

    def test_cap_enforced(self):
        p = centered_gaussian_instance(4, 13, 3, seed=55)
        with pytest.raises(DomainError):
            l1_minimal_solution(p)


class TestBiasReport:
    def test_small_instance_sandwich(self):
        p = centered_gaussian_instance(5, 10, 3, seed=56)
        report = bias_report(p, eta=6.0, samples=6, rng=seeded_rng(57))
        assert report.orthogonality_residual <= 1e-6
        assert report.exact_gap is not None
        assert report.improved_bound is not None and report.slow_bound is not None
        assert report.exact_gap <= report.improved_bound + 1e-8
        assert report.improved_bound <= report.slow_bound + 1e-12

    def test_large_n_skips_oracle(self):
        p = centered_gaussian_instance(6, 14, 3, seed=58)
        report = bias_report(p, eta=4.0, samples=4, rng=seeded_rng(59))
        assert report.exact_gap is None
        assert report.l1_minimal is None


def test_projection_limit_solves_system():
    p = centered_gaussian_instance(6, 12, 4, seed=60)
    limit = bregman_projection(p, np.full(12, 0.05))
    assert objective(p, limit) <= 1e-24
