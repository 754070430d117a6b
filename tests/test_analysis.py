import math
import re
import time
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import entmd.analysis
from entmd import (
    ConvergenceError,
    DomainError,
    InstanceSpec,
    Method,
    ProblemInstance,
    SolveConfig,
    Status,
    WBranch,
    bias_report,
    bregman_divergence,
    bregman_projection,
    gen_instance,
    improved_bound,
    instability_construction,
    instability_escape_distance,
    l1_gap_identity_residual,
    l1_minimal_solution,
    lambert_w,
    max_col_norm_sq,
    orthogonality_residual,
    rate_certificate,
    seeded_rng,
    slow_bound,
    solve,
    sublinear_bound_curve,
    worst_case_construction,
)
from entmd.linalg import vector_norm
from conftest import (
    centered_gaussian_instance,
    gram_test_matrices,
    objective,
    positive_solution_instance,
    within_eigenvalue_tolerance,
)


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
        # Newton needs 6 steps here
        p = centered_gaussian_instance(4, 8, 2, seed=40)
        with pytest.raises(ConvergenceError, match="the step budget ran out"):
            bregman_projection(p, np.full(8, 0.1), max_iters=3)

    @pytest.mark.parametrize("max_iters", [2.5, "40"])
    def test_budget_must_be_a_whole_number(self, max_iters):
        # 2.5 used to run the Newton steps on a budget of 2
        p = ProblemInstance([[1.0]], [1.0])
        with pytest.raises(DomainError, match="max_iters must be a whole number"):
            bregman_projection(p, [0.01], max_iters=max_iters)

    @pytest.mark.parametrize("tol", [-1.0, math.inf, math.nan])
    def test_bad_tol_rejected(self, tol):
        # squared into f_tol, a negative or infinite tol used to accept x0 as the projection
        p = centered_gaussian_instance(6, 10, 3, seed=40)
        with pytest.raises(DomainError, match="tol must be finite and nonnegative"):
            bregman_projection(p, np.full(10, 0.1), tol=tol)

    def test_huge_tol_accepts_the_start(self):
        # 1e200 ** 2 overflows; f_tol is then inf, not an OverflowError
        p = centered_gaussian_instance(6, 10, 3, seed=40)
        assert np.array_equal(bregman_projection(p, np.full(10, 0.1), tol=1e200), np.full(10, 0.1))

    def test_satisfies_orthogonality(self):
        p = centered_gaussian_instance(5, 10, 3, seed=41)
        x0 = np.full(10, math.exp(-2.0))
        x_star = bregman_projection(p, x0)
        check = orthogonality_residual(p, x0, x_star)
        assert not check.kernel_trivial
        assert check.residual <= 1e-6

    def test_raw_spectrum_converges(self):
        # sigma_min 3.4e-4: md_polyak alone reaches its 200k budget here
        p = gen_instance(InstanceSpec(60, 100, None, seed=3))
        x0 = np.full(100, math.exp(-2.0))
        x_star = bregman_projection(p, x0)
        assert objective(p, x_star) <= 1e-24
        check = orthogonality_residual(p, x0, x_star)
        assert not check.kernel_trivial and check.residual <= 1e-6

    def test_boundary_limit(self):
        # the dual has no minimizer: x3 shrinks toward 0 and must stay positive
        p = ProblemInstance([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [1.0, 0.0])
        x = bregman_projection(p, np.full(3, 0.1))
        assert x[:2] == pytest.approx([0.5, 0.5], abs=1e-12)
        assert 0.0 < x[2] <= entmd.analysis.DEFAULT_PROJECTION_TOL

    def test_boundary_limit_budget_error(self):
        # exp1's instance: the limit is on the boundary, below the double range in 33 entries.  Newton
        # reaches f <= 1e-24 in 51 steps with 32 entries at 0.0 and raises at once; the md_polyak
        # finisher it once had ran 2000 iterations before giving up
        p = gen_instance(InstanceSpec(60, 100, 10, seed=1))
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="in 51 Newton steps with 32 entries underflowed to 0.0"):
            bregman_projection(p, np.full(100, math.exp(-6.0)), max_iters=2000)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_newton_phase_runs_from_a_tiny_dense_start(self, seed):
        # from exp(-50) * ones the first Newton direction has max |A^T d| ~ 6e21, and
        # the line search accepts its first step after 67 halvings, past the 60 it
        # once had; md_polyak alone ran out of 200000 iterations on seeds 0 and 1
        p = gen_instance(InstanceSpec(60, 100, None, seed=seed))
        x0 = np.full(100, math.exp(-50.0))
        _, steps = entmd.analysis._dual_newton(p, x0, 0.5 * entmd.analysis.DEFAULT_PROJECTION_TOL ** 2, 50)
        assert steps > 0
        x_star = bregman_projection(p, x0)
        assert objective(p, x_star) <= 1e-24
        assert orthogonality_residual(p, x0, x_star).residual <= 1e-9

    def test_overflowing_residual_raises_without_warning(self):
        # f(x0) overflows: Newton stops at once and names the cause
        p = centered_gaussian_instance(4, 8, 2, seed=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="the residual is not finite"):
                bregman_projection(p, np.full(8, 1e200))

    @pytest.mark.parametrize("scale, max_iters, counts", [
        (1e160, 200_000, "in 0 Newton steps: the residual is not finite"),
        (1e-4, 3, "in 3 Newton steps: the step budget ran out"),
    ])
    def test_budget_error_names_the_iterations_run(self, scale, max_iters, counts):
        # f(x0) overflows from 1e160; a message once claimed the whole budget there
        p = gen_instance(InstanceSpec(4, 8, None, seed=1))
        with pytest.raises(ConvergenceError, match=counts):
            bregman_projection(p, np.full(8, scale), max_iters=max_iters)

    def test_infeasible_system_spends_the_default_budget(self):
        # no nonnegative solution: psi falls without bound along ker(A^T), f stays at 1/3, and r^T d stays
        # above the rounding floor; the default budget is Newton steps, not the 200000 finisher iterations
        p = ProblemInstance([[1.0], [2.0], [3.0], [4.0]], [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ConvergenceError, match="in 1000 Newton steps: the step budget ran out"):
            bregman_projection(p, [0.1])

    def test_overflowing_hessian_raises_a_typed_error(self):
        # f(x0) = 1 but A diag(x0) A^T is inf and singular; least squares on it fails inside LAPACK
        p = ProblemInstance([[1.0, -1.0], [1.0, -1.0]], [1.0, 1.0])
        with pytest.raises(ConvergenceError, match="in 0 Newton steps: the Hessian .* is not finite"):
            bregman_projection(p, [1e308, 1e308], max_iters=1000)

    def test_newton_steps_count_against_the_budget(self):
        p = centered_gaussian_instance(5, 10, 3, seed=41)
        x0 = np.full(10, math.exp(-2.0))
        x, steps = entmd.analysis._dual_newton(p, x0, 0.5 * entmd.analysis.DEFAULT_PROJECTION_TOL ** 2, 40)
        assert steps == 5
        assert bregman_projection(p, x0, max_iters=steps).tobytes() == x.tobytes()
        with pytest.raises(ConvergenceError, match="in 4 Newton steps: the step budget ran out"):
            bregman_projection(p, x0, max_iters=steps - 1)

    def test_newton_converges_past_the_normal_floor(self):
        # sparse seed 2 from exp(-6): Newton used to stop at its 50-step cap just above f_tol, with the
        # boundary entries pinned at the smallest normal double, and an md_polyak finisher took the last
        # step.  Trial entries below that floor now come from log x, and Newton converges alone
        p = gen_instance(InstanceSpec(60, 100, 10, seed=2))
        x0 = np.full(100, math.exp(-6.0))
        f_tol = 0.5 * entmd.analysis.DEFAULT_PROJECTION_TOL ** 2
        x_newton, steps = entmd.analysis._dual_newton(p, x0, f_tol, 1000)
        assert steps == 30
        assert 0.0 < x_newton.min() < np.finfo(float).tiny  # subnormal, 2.6e-312
        assert objective(p, x_newton) <= 1e-24
        assert bregman_projection(p, x0).tobytes() == x_newton.tobytes()


@st.composite
def projection_cases(draw):
    """Centered instances up to 8 x 16, some with a duplicated row or more rows than columns, and a start
    exp(-eta) * ones with eta in [0, 10]."""
    variant = draw(st.sampled_from(("plain", "duplicated row", "m > n")))
    if variant == "m > n":
        n = draw(st.integers(2, 7))
        m = draw(st.integers(n + 1, 8))
    else:
        n = draw(st.integers(2, 16))
        m = draw(st.integers(1, 7 if variant == "duplicated row" else 8))
    p = centered_gaussian_instance(m, n, draw(st.integers(1, n)), seed=draw(st.integers(0, 2**32 - 1)))
    if variant == "duplicated row":
        a = np.vstack([p.a, p.a[:1]])
        p = ProblemInstance(a, a @ p.planted, planted=p.planted)
    return p, draw(st.floats(0.0, 10.0))


class TestBregmanProjectionProperties:
    # the md_polyak-only reference gets 5000 iterations; where it converges the
    # two limits solve the system to f <= 1e-24 and must agree
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(projection_cases())
    def test_against_md_polyak_alone(self, case):
        p, eta = case
        x0 = np.full(p.n, math.exp(-eta))
        x = bregman_projection(p, x0)
        assert objective(p, x) <= 1e-24
        assert np.all(x > 0.0)
        assert orthogonality_residual(p, x0, x).residual <= 1e-10
        ref = solve(p, SolveConfig(Method.md_polyak(), x0, max_iters=5000, f_tol=1e-24))
        if ref.status is Status.CONVERGED:
            assert np.max(np.abs(x - ref.x_final)) <= 1e-8 * np.max(ref.x_final)

    # exp2's dense instances at desk scale and below, from starts down to exp(-100), where the
    # smallest entry of the limit can leave the double range
    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(st.integers(20, 60).flatmap(lambda m: st.tuples(st.just(m), st.integers(max(40, m), 100))),
           st.integers(0, 2**32 - 1), st.floats(0.0, 100.0))
    def test_dense_draws_converge_or_name_the_cause(self, shape, seed, eta):
        p = gen_instance(InstanceSpec(*shape, None, seed=seed))
        x0 = np.full(p.n, math.exp(-eta))
        try:
            x = bregman_projection(p, x0)
        except ConvergenceError as exc:
            assert re.search("the residual is not finite|the Hessian A diag\\(x\\) A\\^T is not finite|the rounding "
                             "floor|no step passes the line search|the step budget ran out|underflowed to 0.0",
                             str(exc))
            return
        assert objective(p, x) <= 1e-24
        assert orthogonality_residual(p, x0, x).residual <= 1e-9


class TestOrthogonalityResidual:
    def test_trivial_kernel(self):
        p = ProblemInstance(np.eye(2), [1.0, 2.0])
        check = orthogonality_residual(p, [0.5, 0.5], [1.0, 2.0])
        assert check.kernel_trivial
        assert check.residual == 0.0

    def test_symmetric_pair(self):
        p = ProblemInstance([[1.0, 1.0]], [1.0])
        check = orthogonality_residual(p, np.full(2, 1e-3), [0.5, 0.5])
        assert check.residual <= 1e-12

    def test_moved_limit_fails(self):
        # criterion 8's first instance: its limit moved along ker(A) by
        # 1e-3 min(x*) still solves the system but is not the projection
        p = centered_gaussian_instance(12, 24, 6, seed=930)
        x0 = np.full(24, math.exp(-2.0))
        limit = bregman_projection(p, x0)
        assert orthogonality_residual(p, x0, limit).residual <= 1e-6
        moved = limit + 1e-3 * float(np.min(limit)) * scipy.linalg.null_space(p.a)[:, 0]
        assert np.linalg.norm(p.a @ moved - p.b) <= 1e-10
        check = orthogonality_residual(p, x0, moved)
        assert check.residual > 1e-6
        # the distance of log(moved / x0) from range(A^T), by least squares
        v = np.log(moved / x0)
        coef, *_ = np.linalg.lstsq(p.a.T, v, rcond=None)
        assert check.residual == pytest.approx(np.linalg.norm(p.a.T @ coef - v) / (1.0 + np.linalg.norm(v)),
                                               rel=1e-6)

    def test_boundary_limit_uses_its_support(self):
        # x3 = 0 on the whole solution set; the limit (0.5, 0.5, 0) passes on its support
        p = ProblemInstance([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [1.0, 0.0])
        check = orthogonality_residual(p, np.full(3, 0.1), [0.5, 0.5, 0.0])
        assert not check.kernel_trivial and check.residual <= 1e-15
        # ker(A) is nontrivial, but (1, 0, 0) is the only nonnegative solution
        p = ProblemInstance([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], [1.0, 0.0])
        assert orthogonality_residual(p, np.full(3, 0.1), [1.0, 0.0, 0.0]) == (0.0, True)


class TestL1GapIdentity:
    def test_symmetric_zero_gap_vertex(self):
        assert l1_gap_identity_residual([0.5, 0.5], [1.0, 0.0], eta=4.0) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_zero_gap_center(self):
        assert l1_gap_identity_residual([0.5, 0.5], [0.5, 0.5], eta=4.0) == pytest.approx(0.0, abs=1e-12)

    def test_hypothesis_enforced(self):
        with pytest.raises(DomainError):
            l1_gap_identity_residual([0.5, 0.5], [1.0, 0.0], eta=0.1)

    def test_overflowing_start_violates_the_hypothesis(self):
        with pytest.raises(DomainError):
            l1_gap_identity_residual([0.5, 0.5], [1.0, 0.0], eta=-1000.0)

    @pytest.mark.parametrize("eta", [800.0, math.nan])
    def test_start_without_positive_entries_rejected(self, eta):
        # exp(-eta) is 0 or nan: no start exp(-eta) * ones to take the identity from
        with pytest.raises(DomainError, match="exp\\(-eta\\)"):
            l1_gap_identity_residual([0.5, 0.5], [1.0, 0.0], eta=eta)

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

    @pytest.mark.parametrize("bound, args, match", [
        (slow_bound, (5, 0.0, 1.0), "z_l1 must be finite and positive"),
        (slow_bound, (5, -1.0, 1.0), "z_l1 must be finite and positive"),
        (slow_bound, (5, math.nan, 1.0), "z_l1 must be finite"),
        (slow_bound, (5, math.inf, 1.0), "z_l1 must be finite"),
        (slow_bound, (5, 1.0, math.nan), "eta must be finite"),
        (slow_bound, (5, 1.0, math.inf), "eta must be finite"),
        (improved_bound, (5, 0.0, 1.0, 1.0), "x_l1 must be finite and positive"),
        (improved_bound, (5, math.inf, 1.0, 1.0), "x_l1 must be finite"),
        (improved_bound, (5, 1.0, math.nan, 1.0), "eta must be finite"),
        (improved_bound, (5, 1.0, math.inf, 1.0), "eta must be finite"),
        (improved_bound, (5, 1.0, 10.0, 0.0), "z_l1 must be finite and positive"),
        (improved_bound, (5, 1.0, 10.0, math.nan), "z_l1 must be finite"),
        (slow_bound, (12.5, 1.0, 5.0), "n must be a whole number of at least 1"),
        (slow_bound, ("12", 1.0, 5.0), "n must be a whole number of at least 1"),
        (improved_bound, (12.5, 1.0, 5.0, 1.0), "n must be a whole number of at least 1"),
        (improved_bound, (0, 1.0, 5.0, 1.0), "n must be a whole number of at least 1"),
    ])
    def test_bad_arguments_raise_a_typed_error(self, bound, args, match):
        # these used to raise untyped ValueError or TypeError, or return nan, 0, inf or, for a non-whole n, a number
        with pytest.raises(DomainError, match=match):
            bound(*args)

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

    @pytest.mark.parametrize("eta", [math.inf, math.nan])
    def test_eta_not_finite(self, eta):
        # used to blame a small eta for the nan weight lam
        with pytest.raises(DomainError, match="eta must be finite"):
            worst_case_construction(12, eta)

    # 12.5 used to reach numpy's TypeError
    @pytest.mark.parametrize("n", [12.5, 1, "12"])
    def test_n_must_be_whole_and_at_least_two(self, n):
        with pytest.raises(DomainError, match="n must be a whole number of at least 2"):
            worst_case_construction(n, 5.0)

    def test_eta_too_large(self):
        # lam < 1 exactly, but at eta = 1e17 it rounds to 1
        with pytest.raises(DomainError, match="eta too large"):
            worst_case_construction(12, 1e17)


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

    def test_global_factor_uses_the_ymin_lemma(self):
        # global_factor_fn calls ymin_lower_bound, the lemma criteria 2 and 3
        # test; on these instances it gives the bits of the inlined Lambert W form
        for seed in range(40):
            p = gen_instance(InstanceSpec(6, 10, sparsity=None, seed=seed))
            cert = rate_certificate(p, p.planted)
            lam, z_min, mc, z_l1 = cert.lambda_min_plus, cert.z_min, cert.max_col_sq, cert.z_l1
            for d in (0.0, 1e-3, 0.1, 1.0, 10.0, 1e3):
                w = -lambert_w(-math.exp(-1.0 - d / z_min), WBranch.PRINCIPAL)
                assert cert.global_factor_fn(d) == 1.0 - lam * z_min * w / (8.0 * mc * (z_l1 + d))

    def test_requires_positive_solution(self):
        p = ProblemInstance([[1.0, 1.0]], [1.0])
        with pytest.raises(DomainError):
            rate_certificate(p, [1.0, 0.0])
        with pytest.raises(DomainError):
            rate_certificate(p, [2.0, 2.0])

    @pytest.mark.parametrize("a", gram_test_matrices().values(), ids=gram_test_matrices())
    def test_lambda_min_plus_matches_the_n_by_n_gram(self, a):
        # m < n decomposes A A^T, m >= n A^T A; both must give A^T A's smallest positive eigenvalue
        z = seeded_rng(10).uniform(0.5, 1.5, a.shape[1])
        cert = rate_certificate(ProblemInstance(a, a @ z, planted=z), z)
        evals = np.linalg.eigvalsh(a.T @ a)
        ref = float(evals[evals > 1e-10 * evals[-1]][0])
        assert within_eigenvalue_tolerance(cert.lambda_min_plus, ref, float(evals[-1]))

    def test_solution_check_past_the_squared_sum_range(self):
        # ||b|| ~ 1e301: the plain norms overflow to inf, which warned and let any z pass the check
        p = positive_solution_instance(12, 5, seed=44)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            huge = ProblemInstance(p.a, 1e300 * p.b, planted=1e300 * p.planted)
            cert = rate_certificate(huge, huge.planted)
            with pytest.raises(DomainError, match="not a solution"):
                rate_certificate(huge, 1.5 * huge.planted)
        assert cert.lambda_min_plus == rate_certificate(p, p.planted).lambda_min_plus

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

    def test_escape_distance_past_the_squared_sum_range(self):
        # alpha = 1e-300 scales x* to ~1e301, past the ~1.3e154 where numpy's norm overflows to inf
        p = gen_instance(InstanceSpec(4, 8, 2, seed=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inst = instability_construction(p, 1e-300)
            escape = instability_escape_distance(inst, iters=2000)
        planted = inst.scaled.planted
        planted_norm = float(np.max(planted)) * float(np.linalg.norm(planted / np.max(planted)))
        assert 0.1 * planted_norm <= escape < math.inf

    @pytest.mark.parametrize("alpha", [1e-320, 5e-324])
    def test_alpha_too_small_for_the_scaled_system(self, alpha):
        # t = 3 / (alpha lambda_max) is inf, and inf * 0 in t b used to leak a
        # RuntimeWarning before the instance rejected its non-finite entries
        p = gen_instance(InstanceSpec(4, 8, 3, seed=1))
        with pytest.raises(DomainError, match="alpha .* too small"):
            instability_construction(p, alpha)

    # 2.5, "40", nan and inf used to fail with a bare TypeError
    @pytest.mark.parametrize("iters", [0, -5, 2.5, "40", math.nan, math.inf])
    def test_escape_needs_an_iteration(self, iters):
        inst = instability_construction(positive_solution_instance(8, 5, seed=47), 0.7)
        with pytest.raises(DomainError, match="iters"):
            instability_escape_distance(inst, iters=iters)

    def test_escape_distance_matches_a_loop_with_its_own_transpose(self):
        # the 60x100 instance perfbench's diagnostics workload destabilizes at seed 1
        inst = instability_construction(gen_instance(InstanceSpec(60, 100, None, seed=13)), 1.0)
        a, b, target = inst.scaled.a, inst.scaled.b, inst.scaled.planted
        at = np.ascontiguousarray(a.T)
        x, worst = (1.0 + 1e-6) * target, 0.0
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            for _ in range(10_000):
                g = at @ (a @ x - b)
                if not np.all(np.isfinite(g)):
                    break
                x_next = x * np.exp(-inst.alpha * g)
                x_next[x == 0.0] = 0.0
                if not np.all(np.isfinite(x_next)):
                    break
                x = x_next
                worst = max(worst, vector_norm(x - target))
        assert worst > 0.1 * vector_norm(target)
        assert instability_escape_distance(inst) == worst

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


def _l1_corpus():
    """Named instances for the l1 oracle: degenerate columns and rows, more rows than columns, b = 0, and
    experiment-sized draws."""
    rng = seeded_rng(51)
    g = rng.standard_normal((5, 8))
    z = np.zeros(8)
    z[[1, 4, 6]] = [0.3, 1.2, 0.7]
    zero_dup = np.hstack([g, np.zeros((5, 1)), g[:, [1, 4]]])
    rank_def = np.vstack([g[:4], g[0] + 2.0 * g[3]])  # rank 4
    tall = rng.standard_normal((12, 8))
    cases = {f"centered 5x9 #{seed}": centered_gaussian_instance(5, 9, 3, seed=50 + seed) for seed in range(5)}
    cases.update({
        "zero and duplicate columns": ProblemInstance(zero_dup, g @ z),
        "rank-deficient": ProblemInstance(rank_def, rank_def @ z),
        "m > n": ProblemInstance(tall, tall @ z),
        "b = 0": ProblemInstance(g, np.zeros(5)),
        "n = 14": centered_gaussian_instance(6, 14, 3, seed=58),
        "worst case n = 12": worst_case_construction(12, 10.0).problem,
    })
    for seed in (1, 2):
        cases[f"exp1 60x100 seed {seed}"] = gen_instance(InstanceSpec(60, 100, 10, seed=seed))
    return cases


L1_CORPUS = _l1_corpus()


def degenerate_integer_instance():
    """An 11x19 integer system full of degenerate pivots and ratio-test ties: a rounded 10x16 draw, a
    redundant row, two duplicate columns and a zero column."""
    g = np.round(2.0 * seeded_rng(61).standard_normal((10, 16)))
    a = np.vstack([g, g[1] - g[3]])
    a = np.hstack([a, a[:, [0, 5]], np.zeros((11, 1))])
    z = np.zeros(19)
    z[[1, 5, 17]] = [1.0, 2.0, 1.0]
    return ProblemInstance(a, a @ z)


def assert_l1_optimal(p, z):
    """z is a nonnegative solution whose l1 norm is HiGHS's optimum to 1e-9 relative."""
    lp = scipy.optimize.linprog(np.ones(p.n), A_eq=p.a, b_eq=p.b, bounds=(0, None), method="highs")
    assert lp.status == 0
    assert np.all(z >= 0.0)
    assert np.linalg.norm(p.a @ z - p.b) <= 1e-9 * (1.0 + np.linalg.norm(p.b))
    assert float(np.sum(z)) == pytest.approx(lp.fun, rel=1e-9, abs=0.0)


@st.composite
def small_feasible_instances(draw):
    """Integer systems of up to 4 x 7 with a nonnegative integer solution; zero and repeated columns and
    rank deficiency occur among them."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 7))
    a = np.array(draw(st.lists(st.integers(-3, 3), min_size=m * n, max_size=m * n)), dtype=float).reshape(m, n)
    x = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=float)
    return ProblemInstance(a, a @ x)


class TestL1MinimalSolution:
    def test_matches_linprog(self):
        for p in L1_CORPUS.values():
            assert_l1_optimal(p, l1_minimal_solution(p))

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(small_feasible_instances())
    def test_matches_linprog_on_small_systems(self, p):
        assert_l1_optimal(p, l1_minimal_solution(p))

    def test_row_scaling_changes_nothing(self):
        p = L1_CORPUS["centered 5x9 #0"]
        scale = np.array([1e-10, 1e-3, 1.0, 1e3, 1e10])
        scaled = ProblemInstance(scale[:, None] * p.a, scale * p.b)
        assert float(np.sum(l1_minimal_solution(scaled))) == pytest.approx(
            float(np.sum(l1_minimal_solution(p))), rel=1e-9, abs=0.0)

    def test_zero_rhs(self):
        p = ProblemInstance([[1.0, -1.0]], [0.0])
        assert np.array_equal(l1_minimal_solution(p), [0.0, 0.0])

    @pytest.mark.parametrize("a, b", [([[1.0, 1.0]], [-1.0]), ([[0.0, 0.0]], [1.0]),
                                      ([[1.0, 0.0], [1.0, 0.0]], [1.0, 2.0])])
    def test_infeasible_rhs_raises(self, a, b):
        with pytest.raises(ConvergenceError, match="no nonnegative solution"):
            l1_minimal_solution(ProblemInstance(a, b))

    def test_pivot_cap_raises(self, monkeypatch):
        p = L1_CORPUS["n = 14"]
        monkeypatch.setattr(entmd.analysis, "_LP_PIVOTS_PER_DIM", 0)
        with pytest.raises(ConvergenceError, match="pivot cap"):
            l1_minimal_solution(p)

    @pytest.mark.parametrize("p", [L1_CORPUS["exp1 60x100 seed 1"], L1_CORPUS["exp1 60x100 seed 2"],
                                   gen_instance(InstanceSpec(120, 200, None, seed=0))],
                             ids=["exp1 60x100 seed 1", "exp1 60x100 seed 2", "dense 120x200"])
    def test_two_pivots_per_dimension_suffice(self, monkeypatch, p):
        # Bland's rule alone took 5.2, 3.1 and 12 (m + n) pivots here; Dantzig pricing 1.1, 0.7 and 1.1
        monkeypatch.setattr(entmd.analysis, "_LP_PIVOTS_PER_DIM", 2)
        assert_l1_optimal(p, l1_minimal_solution(p))

    @pytest.mark.parametrize("p, pivots, basis", [
        (gen_instance(InstanceSpec(8, 12, 4, seed=2)), 11, [0, 2, 5, 7, 8, 9, 10, 11]),
        (gen_instance(InstanceSpec(60, 100, None, seed=1)), 172,
         [0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13, 14, 15, 21, 22, 23, 28, 30, 31, 33, 34, 36, 37, 38, 39, 41, 43,
          44, 47, 48, 52, 53, 54, 56, 57, 58, 59, 60, 61, 63, 66, 68, 69, 70, 72, 73, 76, 77, 78, 79, 82, 85, 86,
          88, 92, 93, 94, 97, 99]),
        (gen_instance(InstanceSpec(60, 100, 10, seed=1)), 179,
         [1, 5, 7, 8, 9, 11, 12, 13, 15, 16, 19, 20, 21, 23, 24, 25, 26, 28, 29, 30, 31, 34, 36, 37, 38, 39, 41, 42,
          46, 48, 50, 52, 53, 54, 55, 57, 58, 59, 61, 62, 66, 67, 68, 69, 71, 72, 73, 74, 75, 76, 79, 82, 84, 87,
          93, 95, 96, 97, 98, 99]),
        (degenerate_integer_instance(), 17, [0, 1, 2, 4, 5, 6, 7, 8, 10, 12]),
    ], ids=["8x12", "dense 60x100", "sparse 60x100", "degenerate 11x19"])
    def test_pivot_path_is_pinned(self, monkeypatch, p, pivots, basis):
        # The pivot count (both phases and the artificial pivot-outs) and the final basis of Dantzig pricing
        # with the Bland fallback; a faster pivot must take exactly these steps
        calls, bases = [], []
        pivot, simplex = entmd.analysis._pivot, entmd.analysis._simplex

        def counting_pivot(t, b, r, j):
            calls.append((r, j))
            pivot(t, b, r, j)

        def recording_simplex(t, b, budget):
            left = simplex(t, b, budget)
            bases.append(sorted(b.tolist()))
            return left

        monkeypatch.setattr(entmd.analysis, "_pivot", counting_pivot)
        monkeypatch.setattr(entmd.analysis, "_simplex", recording_simplex)
        assert_l1_optimal(p, l1_minimal_solution(p))
        assert len(calls) == pivots
        assert bases[-1] == basis

    def test_paper_shape(self):
        # 300x500, the paper's shape: about 4.1 (m + n) pivots; Bland's rule alone stopped at the cap
        p = gen_instance(InstanceSpec(300, 500, 30, seed=0))
        assert_l1_optimal(p, l1_minimal_solution(p))

    def test_beale_cycling_example_terminates(self):
        # Beale's LP: min -3/4 x3 + 150 x4 - 1/50 x5 + 6 x6 from the degenerate basis {0, 1, 2}.  Pure
        # Dantzig pricing with the smallest-basic-index tie rule cycles here with period 6, back to
        # {0, 1, 2}; the Bland fallback on degenerate ratio tests reaches the optimum -1/20.
        t = np.array([[1.0, 0.0, 0.0, 1 / 4, -60.0, -1 / 25, 9.0, 0.0],
                      [0.0, 1.0, 0.0, 1 / 2, -90.0, -1 / 50, 3.0, 0.0],
                      [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0],
                      [0.0, 0.0, 0.0, -3 / 4, 150.0, -1 / 50, 6.0, 0.0]])
        basis = np.array([0, 1, 2])
        entmd.analysis._simplex(t, basis, 10)  # ConvergenceError after 10 pivots
        assert -t[-1, -1] == pytest.approx(-1 / 20, rel=1e-12)
        assert sorted(basis) == [0, 3, 5]


class TestBiasReport:
    def test_small_instance_sandwich(self):
        p = centered_gaussian_instance(5, 10, 3, seed=56)
        report = bias_report(p, eta=6.0)
        assert report.orthogonality_residual <= 1e-6
        assert report.exact_gap is not None
        assert report.improved_bound is not None and report.slow_bound is not None
        assert report.exact_gap <= report.improved_bound + 1e-8
        assert report.improved_bound <= report.slow_bound + 1e-12

    def test_overflowing_start_rejected(self):
        p = centered_gaussian_instance(5, 10, 3, seed=56)
        with pytest.raises(DomainError, match="overflows"):
            bias_report(p, -1000.0)

    @pytest.mark.parametrize("eta", [1e15, math.inf, math.nan])
    def test_start_without_positive_entries_rejected(self, eta):
        # exp(-eta) is 0 or nan: the error names eta, not the start vector it builds
        p = centered_gaussian_instance(5, 10, 3, seed=56)
        with pytest.raises(DomainError, match="exp\\(-eta\\)"):
            bias_report(p, eta)

    def test_oracle_runs_beyond_twelve_columns(self):
        p = L1_CORPUS["n = 14"]
        report = bias_report(p, eta=4.0)
        assert_l1_optimal(p, report.l1_minimal)
        assert report.exact_gap == pytest.approx(float(np.sum(report.limit) - np.sum(report.l1_minimal)))

    def test_oracle_at_its_cap_leaves_the_gap_unset(self, monkeypatch):
        p = L1_CORPUS["n = 14"]
        monkeypatch.setattr(entmd.analysis, "_LP_PIVOTS_PER_DIM", 0)
        report = bias_report(p, eta=4.0)
        assert report.orthogonality_residual <= 1e-6
        assert report.l1_minimal is None
        assert report.exact_gap is None and report.slow_bound is None and report.improved_bound is None


def test_projection_limit_solves_system():
    p = centered_gaussian_instance(6, 12, 4, seed=60)
    limit = bregman_projection(p, np.full(12, 0.05))
    assert objective(p, limit) <= 1e-24
