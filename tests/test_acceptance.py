"""Acceptance suite: one test per numbered criterion, each printing a
PASS line (run with ``pytest tests/test_acceptance.py -v -s``).

The heavyweight corpora are built once per module and shared between the
criteria that reference them.
"""

import math

import numpy as np
import pytest
import scipy.optimize

from entmd import (
    EXP_QUAD_BOUND,
    ConvexObjective,
    ExperimentConfig,
    InstanceSpec,
    Method,
    ProblemInstance,
    SolveConfig,
    Status,
    bregman_divergence,
    bregman_inverse_1d,
    bregman_projection,
    exp_quadratic_margin,
    gradient,
    improved_bound,
    instability_construction,
    instability_escape_distance,
    l1_gap_identity_residual,
    l1_minimal_solution,
    lambert_w,
    max_col_norm_sq,
    max_norm_bound,
    md_step,
    objective,
    orthogonality_residual,
    pinsker_lower_bound,
    polyak_stepsize,
    rate_certificate,
    run_experiment1,
    run_experiment2,
    seeded_rng,
    slow_bound,
    solve,
    solve_convex,
    sublinear_bound_curve,
    WBranch,
    worst_case_construction,
)
from entmd.solvers import egpm_step
from conftest import centered_gaussian_instance, positive_solution_instance, signed_system

CORPUS_SIZE = 50
CORPUS_SHAPE = (40, 80, 8)  # m, n, sparsity
CORPUS_X0 = 0.1
CORPUS_SEED_BASE = 2000


def _report(number, message):
    print(f"ACCEPTANCE {number}: PASS - {message}")


@pytest.fixture(scope="module")
def corpus():
    out = []
    m, n, s = CORPUS_SHAPE
    for i in range(CORPUS_SIZE):
        out.append(centered_gaussian_instance(m, n, s, seed=CORPUS_SEED_BASE + i))
    return out


def _run_corpus(corpus, method):
    runs = []
    m, n, s = CORPUS_SHAPE
    for p in corpus:
        cfg = SolveConfig(method, np.full(n, CORPUS_X0), max_iters=20_000, f_tol=1e-20,
                          trace_reference=p.planted)
        runs.append(solve(p, cfg))
    return runs


@pytest.fixture(scope="module")
def md_runs(corpus):
    return _run_corpus(corpus, Method.md_polyak())


@pytest.fixture(scope="module")
def hd_runs(corpus):
    return _run_corpus(corpus, Method.hd_plus_polyak())


def _check_certified_descent(corpus, runs):
    """Re-verify the recorded divergence descent independently of the
    in-solver check."""
    for p, res in zip(corpus, runs):
        assert res.status is not Status.NUMERICAL_BREAKDOWN
        d, alpha, f = res.trace.d_h_to_ref, res.trace.stepsize, res.trace.f_value
        assert np.all(d[1:] - d[:-1] <= -alpha[:-1] * f[:-1] + 1e-9 * (1.0 + d[:-1]))


def _check_rate_and_stepsize(corpus, runs):
    for p, res in zip(corpus, runs):
        if res.status is not Status.CONVERGED:
            continue
        x0 = np.full(p.n, CORPUS_X0)
        mc = max_col_norm_sq(p.a)
        # stepsize lower bound with z = planted
        z = p.planted
        lower = 1.0 / (4.0 * (bregman_divergence(z, x0) + float(np.sum(z))) * mc)
        assert np.all(res.trace.stepsize >= lower - 1e-12)
        # O(1/k) envelope from the converged limit
        curve = sublinear_bound_curve(res.trace, res.x_final, x0, mc)
        assert np.all(np.minimum.accumulate(res.trace.f_value) <= [bound for _, bound in curve])


def _check_convergence_counts(runs, label):
    converged = sum(res.status is Status.CONVERGED for res in runs)
    assert converged >= 48, f"{label}: only {converged}/{CORPUS_SIZE} converged"
    for res in runs:
        if res.status is not Status.CONVERGED:
            assert res.status is Status.MAX_ITERS
    return converged


def test_criterion_01_exp_quadratic_grid():
    t = np.linspace(-20.0, EXP_QUAD_BOUND, 217_901)
    margin = exp_quadratic_margin(t)
    floor = -1e-12 * np.exp(np.abs(t))
    assert np.all(margin >= floor)
    _report(1, f"quadratic exp margin >= -1e-12 e^|t| on {t.size} grid points")


def test_criterion_02_pinsker_and_mass_bound():
    rng = seeded_rng(900)
    total = 100_000
    dim = 4
    sx = 10.0 ** rng.uniform(-4, 4, total)
    sy = 10.0 ** rng.uniform(-4, 4, total)
    xs = rng.uniform(0.0, 1.0, (total, dim)) * sx[:, None]
    ys = rng.uniform(1e-8, 1.0, (total, dim)) * sy[:, None]
    zero_mask = rng.uniform(size=(total, dim)) < 0.05
    xs[zero_mask] = 0.0
    d = np.array([bregman_divergence(x, y) for x, y in zip(xs, ys)])
    assert np.all(d >= 0.0)
    # both lemma right-hand sides spelled out directly
    l1x = xs.sum(axis=1)
    l1y = ys.sum(axis=1)
    pinsker_rhs = 0.5 * np.abs(xs - ys).sum(axis=1) ** 2 / np.maximum(l1x, l1y)
    assert np.all(d - pinsker_rhs >= -1e-12 * (1.0 + d))
    mass_hi = np.maximum(l1x, l1y)
    assert np.all(mass_hi <= 2.0 * d + 2.0 * np.minimum(l1x, l1y) + 1e-12 * (1.0 + mass_hi))
    # companion bound on the same corpus: min(y) * D_h(x, y) <= ||x - y||^2
    sq = np.sum((xs - ys) ** 2, axis=1)
    assert np.all(ys.min(axis=1) * d <= sq + 1e-12 * (1.0 + sq))
    # the packaged bound functions agree with the spelled-out forms
    for x, y, d_i in zip(xs[:1000], ys[:1000], d[:1000]):
        assert pinsker_lower_bound(x, y) == pytest.approx(
            0.5 * float(np.abs(x - y).sum()) ** 2 / max(x.sum(), y.sum()), rel=1e-12)
        assert max_norm_bound(x, y) == pytest.approx(2.0 * d_i + 2.0 * min(x.sum(), y.sum()), rel=1e-12)
    _report(2, f"Pinsker bound and mass bound hold on {total} pairs across scales 1e-4..1e4")


def test_criterion_03_lambert_and_inversion_round_trips():
    for w in np.linspace(-1.0, 20.0, 2001):
        t = max(w * math.exp(w), -1.0 / math.e)
        assert abs(lambert_w(t, WBranch.PRINCIPAL) - w) <= 1e-12
    for w in np.linspace(-30.0, -1.0, 2001):
        t = max(w * math.exp(w), -1.0 / math.e)
        assert abs(lambert_w(t, WBranch.MINUS_ONE) - w) <= 1e-12
    rng = seeded_rng(901)
    for _ in range(10_000):
        x = 10.0 ** rng.uniform(-3, 3)
        ratio = 10.0 ** rng.uniform(-2, 2)
        if 0.98 < ratio < 1.02:
            ratio = 1.05
        y = x * ratio
        branch = WBranch.PRINCIPAL if y <= x else WBranch.MINUS_ONE
        d = bregman_divergence([x], [y])
        y_back = bregman_inverse_1d(x, d, branch)
        assert abs(y_back - y) <= 1e-10 * y
    _report(3, "Lambert round trips <= 1e-12 on both branches; 1-D inversion <= 1e-10 on 10^4 pairs")


def test_criterion_04_certified_descent_md(corpus, md_runs):
    _check_certified_descent(corpus, md_runs)
    _report(4, f"certified divergence descent holds every iteration on {CORPUS_SIZE} instances (md_polyak)")


def test_criterion_05_rate_and_stepsize_md(corpus, md_runs):
    _check_rate_and_stepsize(corpus, md_runs)
    _report(5, "O(1/k) envelope and stepsize lower bound hold on the corpus (md_polyak)")


def test_criterion_06_convergence_md(md_runs):
    converged = _check_convergence_counts(md_runs, "md_polyak")
    _report(6, f"{converged}/{CORPUS_SIZE} instances reached f <= 1e-20 within 20000 iterations (md_polyak)")


def test_criterion_07_split_scheme_reduction():
    worst_iter = 0.0
    worst_final = 0.0
    for seed in range(10):
        a, b, z_signed = signed_system(6, 10, seed=910 + seed)
        p = ProblemInstance(a, b)
        p_aug = ProblemInstance(np.hstack([a, -a]), b)
        u = np.full(10, 0.5)
        v = np.full(10, 0.5)
        w = np.concatenate([u, v])
        # iterate-for-iterate: the native split updates against the stacked system
        for _ in range(100):
            g = gradient(p, u - v)
            f = objective(p, u - v)
            alpha = polyak_stepsize(u + v, g, f) if f > 0 else 0.0
            u, v = egpm_step(u, v, g, alpha)
            g_aug = gradient(p_aug, w)
            f_aug = objective(p_aug, w)
            alpha_aug = polyak_stepsize(w, g_aug, f_aug) if f_aug > 0 else 0.0
            w = md_step(w, g_aug, alpha_aug)
            drift = float(np.max(np.abs(np.concatenate([u, v]) - w) / (1e-300 + np.abs(w))))
            worst_iter = max(worst_iter, drift)
        assert worst_iter <= 1e-12
        # solve-level wiring agrees as well
        res_eg = solve(p, SolveConfig(Method.eg_pm(), np.full(20, 0.5), max_iters=100, f_tol=0.0))
        res_md = solve(p_aug, SolveConfig(Method.md_polyak(), np.full(20, 0.5), max_iters=100, f_tol=0.0))
        final_drift = float(np.max(np.abs(res_eg.w_final - res_md.x_final) / (1e-300 + np.abs(res_md.x_final))))
        worst_final = max(worst_final, final_drift)
        assert worst_final <= 1e-12
        # objective agreement; stepsizes are ratios of near-zero quantities at
        # the tail and are covered indirectly by the iterate comparison
        f_eg, f_md = res_eg.trace.f_value, res_md.trace.f_value
        assert len(f_eg) == len(f_md) and np.all(np.abs(f_eg - f_md) <= 1e-12 * (1.0 + f_md))
    _report(7, f"split scheme tracks the stacked-system solver; worst iterate drift {worst_iter:.2e}")


def test_criterion_08_orthogonality_of_limits():
    worst = 0.0
    for seed in range(20):
        p = centered_gaussian_instance(12, 24, 6, seed=930 + seed)
        eta = 2.0
        x0 = np.full(24, math.exp(-eta))
        limit = bregman_projection(p, x0)  # f <= 1e-24
        check = orthogonality_residual(p, x0, limit, samples=10, rng=seeded_rng(5000 + seed))
        assert not check.kernel_trivial
        assert check.residual <= 1e-6
        worst = max(worst, check.residual)
    _report(8, f"orthogonality residual <= 1e-6 on 20 instances (worst {worst:.2e})")


def test_criterion_09_bound_sandwich_and_worst_case():
    # random instances with an exact l1 oracle
    for n, m, seed in ((5, 3, 940), (10, 6, 941), (10, 6, 942)):
        p = centered_gaussian_instance(m, n, max(2, n // 3), seed=seed)
        eta = 6.0
        x_star = bregman_projection(p, np.full(n, math.exp(-eta)))
        z = l1_minimal_solution(p)
        x_l1, z_l1 = float(np.sum(x_star)), float(np.sum(z))
        gap = x_l1 - z_l1
        up_improved = improved_bound(n, x_l1, eta, z_l1)
        up_slow = slow_bound(n, z_l1, eta)
        assert gap <= up_improved + 1e-8
        assert up_improved <= up_slow + 1e-12
        assert l1_gap_identity_residual(x_star, z, eta) <= 1e-6

    # n = 50: the l1-minimal point comes from an LP (test-side oracle)
    p = centered_gaussian_instance(20, 50, 8, seed=943)
    eta = 6.0
    x_star = bregman_projection(p, np.full(50, math.exp(-eta)))
    lp = scipy.optimize.linprog(np.ones(50), A_eq=p.a, b_eq=p.b, bounds=(0, None), method="highs")
    assert lp.status == 0
    x_l1, z_l1 = float(np.sum(x_star)), float(np.sum(lp.x))
    assert x_l1 - z_l1 <= improved_bound(50, x_l1, eta, z_l1) + 1e-8
    assert improved_bound(50, x_l1, eta, z_l1) <= slow_bound(50, z_l1, eta) + 1e-12

    # near-worst-case constructions
    for n, eta in ((2, 10.0), (5, 8.0), (10, 10.0)):
        built = worst_case_construction(n, eta)
        x0 = np.full(n, math.exp(-eta))
        x_hat = bregman_projection(built.problem, x0)
        assert np.max(np.abs(x_hat - built.x_star)) <= 1e-6
        x_l1 = float(np.sum(x_hat))
        z_l1 = float(np.sum(built.z))
        gap = x_l1 - z_l1
        w = lambert_w((n - 1) / math.e, WBranch.PRINCIPAL)
        lower = z_l1 * w / (eta + math.log(x_l1 / n) + 1.0)
        assert gap >= lower - 1e-8
        assert gap <= improved_bound(n, x_l1, eta, z_l1) + 1e-8
        assert l1_gap_identity_residual(x_hat, built.z, eta) <= 1e-6
    _report(9, "exact gap <= improved <= slow; worst-case gap within its sandwich; identity residual <= 1e-6")


def test_criterion_10_linear_rate_certificates():
    worst_global_slack = -math.inf
    for seed in range(10):
        p = positive_solution_instance(30, 12, seed=950 + seed, lo=0.25, hi=1.0)
        z = p.planted
        assert float(np.min(z)) > 0.2
        cert = rate_certificate(p, z)
        cfg = SolveConfig(Method.md_polyak(), np.full(12, 0.1), max_iters=20_000,
                          f_tol=1e-24, trace_reference=z)
        res = solve(p, cfg)
        assert res.status is Status.CONVERGED
        ds = [*res.trace.d_h_to_ref.tolist(), bregman_divergence(z, res.x_final)]
        for d_prev, d_next in zip(ds, ds[1:]):
            slack = d_next - cert.global_factor_fn(d_prev) * d_prev
            worst_global_slack = max(worst_global_slack, slack)
            assert slack <= 1e-10 * max(1.0, d_prev)
        # local factor over the trailing iterations (all of them if the run
        # converged in fewer than 100 steps)
        tail = ds[-101:]
        for d_prev, d_next in zip(tail, tail[1:]):
            if d_prev > 0:
                assert d_next / d_prev <= cert.local_factor + 1e-12
    _report(10, f"per-step global factor and tail local factor certified on 10 instances "
               f"(worst slack {worst_global_slack:.2e})")


def test_criterion_11_instability_of_constant_stepsizes():
    for seed, alpha in zip(range(5), (0.3, 0.7, 1.1, 2.3, 5.0)):
        p = positive_solution_instance(8, 5, seed=960 + seed, lo=0.2, hi=1.2)
        inst = instability_construction(p, alpha)
        assert inst.jacobian_spectrum_bound == pytest.approx(2.0, abs=1e-10)
        escape = instability_escape_distance(inst, iters=10_000)
        target_norm = float(np.linalg.norm(inst.scaled.planted))
        assert escape >= 0.1 * target_norm
        x0 = (1.0 + 1e-6) * inst.scaled.planted
        res = solve(inst.scaled, SolveConfig(Method.md_polyak(), x0, max_iters=20_000, f_tol=1e-16))
        assert res.status is Status.CONVERGED
    _report(11, "Jacobian spectral radius = 2 +- 1e-10; constant stepsize escapes while the "
                "adaptive scheme converges, on 5 instances")


def test_criterion_12_hd_plus_matches_md_guarantees(corpus, hd_runs):
    _check_certified_descent(corpus, hd_runs)
    _check_rate_and_stepsize(corpus, hd_runs)
    converged = _check_convergence_counts(hd_runs, "hd_plus_polyak")
    _report(12, f"criteria 4-6 repeated for hd_plus_polyak: descent, rate, {converged}/{CORPUS_SIZE} converged")


def test_criterion_13_convex_mode_bounds():
    rng = seeded_rng(970)
    n = 20
    c = rng.uniform(0.5, 2.0, n)
    x0 = np.full(n, 0.1)
    obj = ConvexObjective(
        value=lambda x: 0.5 * float(np.sum((x - c) ** 2)),
        gradient=lambda x: x - c,
        f_star=0.0,
        l_smooth=1.0,
    )
    res = solve_convex(obj, SolveConfig(Method.md_polyak(), x0, max_iters=20_000, f_tol=1e-22))
    assert res.status is Status.CONVERGED
    big_l = 1.0
    r = bregman_divergence(c, x0)
    z_l1 = float(np.sum(c))
    alpha_floor = 1.0 / (8.0 * big_l * (r + z_l1))
    assert np.all(res.trace.stepsize >= alpha_floor - 1e-12)
    best = np.minimum.accumulate(res.trace.f_value)
    assert np.all(best <= 16.0 * big_l * r * (r + z_l1) / np.arange(1, len(best) + 1))
    _report(13, "convex-mode stepsize floor and 16 L R (R + ||z||_1) / (k+1) rate hold")


EXP1_SEEDS = list(range(9800, 9810))
EXP2_SEEDS = list(range(9900, 9905))
EXP2_SCALES = [1e-2, 1e-4, 1e-8, 1e-16, 1e-32]


def _exp1_config(seed, out_dir):
    return ExperimentConfig(
        InstanceSpec(60, 100, sparsity=10, seed=seed),
        methods=[Method.md_constant_grid(), Method.md_backtracking(), Method.md_polyak()],
        iters=5_000,
        limit_extra_iters=0,
        inits=[1e-4],
        out_path=out_dir,
    )


def _exp2_config(seed, out_dir):
    return ExperimentConfig(
        InstanceSpec(30, 50, sparsity=None, seed=seed),
        iters=20_000,
        limit_extra_iters=0,
        inits=EXP2_SCALES,
        out_path=out_dir,
    )


def _read_csv_columns(path):
    lines = path.read_text().splitlines()
    labels = lines[0].split(",")[1:]
    data = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
    return labels, data


@pytest.fixture(scope="module")
def exp1_outputs(tmp_path_factory):
    outputs = []
    for seed in EXP1_SEEDS:
        out_dir = tmp_path_factory.mktemp(f"exp1_{seed}")
        paths = run_experiment1(_exp1_config(seed, out_dir))
        outputs.append((seed, paths, [path.read_bytes() for path in paths]))
    return outputs


@pytest.fixture(scope="module")
def exp2_outputs(tmp_path_factory):
    outputs = []
    for seed in EXP2_SEEDS:
        out_dir = tmp_path_factory.mktemp(f"exp2_{seed}")
        paths = run_experiment2(_exp2_config(seed, out_dir))
        outputs.append((seed, paths, [path.read_bytes() for path in paths]))
    return outputs


def test_criterion_14_experiment1_ordering(exp1_outputs):
    finals = {"md_constant_opt": [], "md_backtracking": [], "md_polyak": []}
    for seed, paths, _ in exp1_outputs:
        labels, data = _read_csv_columns(paths[0])
        assert data.shape[0] == 5_000
        for j, label in enumerate(labels):
            col = data[:, j]
            assert np.all(np.diff(col) <= 0)
            finals[label].append(col[-1])
    med = {label: float(np.median(vals)) for label, vals in finals.items()}
    assert med["md_polyak"] < med["md_constant_opt"]
    assert med["md_polyak"] < med["md_backtracking"]
    _report(14, "median final cumulative-min objective: adaptive "
                f"{med['md_polyak']:.2e} < grid constant {med['md_constant_opt']:.2e} "
                f"and < backtracking {med['md_backtracking']:.2e}")


def test_criterion_15_experiment2_monotonicity(exp2_outputs):
    threshold = 1e-10
    hits = {f"x0_{s:g}": [] for s in EXP2_SCALES}
    for seed, paths, _ in exp2_outputs:
        labels, data = _read_csv_columns(paths[0])
        iters = data.shape[0]
        for j, label in enumerate(labels):
            col = data[:, j]
            reached = np.nonzero(col <= threshold)[0]
            hits[label].append(int(reached[0]) if reached.size else iters)
    medians = [float(np.median(hits[f"x0_{s:g}"])) for s in EXP2_SCALES]
    for earlier, later in zip(medians, medians[1:]):
        assert earlier <= later
    _report(15, f"median iterations to f <= 1e-10 per shrinking scale: {medians} (nondecreasing)")


def test_criterion_16_determinism(exp1_outputs, exp2_outputs, tmp_path_factory):
    for seed, _, blobs in exp1_outputs:
        out_dir = tmp_path_factory.mktemp(f"exp1_recheck_{seed}")
        paths = run_experiment1(_exp1_config(seed, out_dir))
        assert [path.read_bytes() for path in paths] == blobs
    for seed, _, blobs in exp2_outputs:
        out_dir = tmp_path_factory.mktemp(f"exp2_recheck_{seed}")
        paths = run_experiment2(_exp2_config(seed, out_dir))
        assert [path.read_bytes() for path in paths] == blobs
    _report(16, "experiments 1 and 2 rerun byte-identical for every seed")
