import math
import sys
import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from entmd import (
    EXP_QUAD_BOUND,
    DimensionMismatch,
    DomainError,
    InfiniteDivergence,
    WBranch,
    bregman_divergence,
    bregman_inverse_1d,
    entropy,
    exp_quadratic_margin,
    lambert_w,
    max_norm_bound,
    pinsker_lower_bound,
    seeded_rng,
    weighted_norm_sq,
    ymin_lower_bound,
)
from entmd.bregman import _dh_core


class TestEntropy:
    def test_ones(self):
        assert entropy([1.0, 1.0]) == pytest.approx(-2.0)

    def test_zero_vector(self):
        assert entropy([0.0, 0.0]) == 0.0

    def test_scalar_two(self):
        assert entropy([2.0]) == pytest.approx(2 * math.log(2) - 2)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            entropy([1.0, -0.5])


class TestBregmanDivergence:
    def test_self_distance_zero(self):
        assert bregman_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_two_vs_one(self):
        assert bregman_divergence([2.0], [1.0]) == pytest.approx(2 * math.log(2) - 1)

    def test_zero_first_argument(self):
        assert bregman_divergence([0.0], [1.0]) == pytest.approx(1.0)

    def test_infinite_case(self):
        with pytest.raises(InfiniteDivergence):
            bregman_divergence([1.0], [0.0])

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            bregman_divergence([-1.0], [1.0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            bregman_divergence([1.0], [1.0, 2.0])

    def test_nonnegative_and_zero_iff_equal(self):
        rng = seeded_rng(7)
        for _ in range(2000):
            x = rng.uniform(0.0, 3.0, 4)
            y = rng.uniform(1e-4, 3.0, 4)
            d = bregman_divergence(x, y)
            assert d >= 0.0
            if d < 1e-12:
                assert np.max(np.abs(x - y)) < 1e-5

    def test_accurate_near_equal_pairs(self):
        # tiny divergences must not be swamped by cancellation
        x = np.array([0.5, 1.5])
        y = x * (1 + 1e-9)
        d = bregman_divergence(x, y)
        expected = float(np.sum((x - y) ** 2 / (2 * x)))  # leading term
        assert d == pytest.approx(expected, rel=1e-5)


def divergence_terms(x, y):
    """D_h(x, y)'s per-coordinate terms, each branch chosen coordinate by coordinate."""
    u = (y - x) / x
    near = x * (u - np.log1p(u))
    far = x * (np.log(x) - np.log(y)) - x + y
    return [y[i] if x[i] == 0.0 else near[i] if 0.5 < y[i] / x[i] < 2.0 else far[i] for i in range(len(x))]


class TestDivergenceTerms:
    # _dh_core sums its terms in index order, whichever branch each comes from
    @staticmethod
    def mixed_pair(seed, n=50):
        rng = seeded_rng(seed)
        x = rng.uniform(0.1, 2.0, n)
        return x, x * np.exp(rng.normal(0.0, 1.0, n))

    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_pair_sums_its_terms_in_index_order(self, seed):
        x, y = self.mixed_pair(70 + seed)
        with np.errstate(all="ignore"):
            terms = divergence_terms(x, y)
            assert _dh_core(x, y) == float(np.add.reduce(np.array(terms)))

    @pytest.mark.parametrize("seed", [70, 74, 76])
    def test_zero_reference_entry_contributes_its_iterate_entry(self, seed):
        x, y = self.mixed_pair(seed)
        x[[0, 7, 30]] = 0.0
        y[30] = 0.0
        with np.errstate(all="ignore"):
            terms = divergence_terms(x, y)
            assert terms[0] == y[0] and terms[7] == y[7] and terms[30] == 0.0
            assert _dh_core(x, y) == float(np.add.reduce(np.array(terms)))
            assert _dh_core(np.zeros(3), np.array([0.25, 0.0, 0.5])) == 0.75

    @pytest.mark.parametrize("x, y", [([0.0, 1.0], [0.0, 1.5]), ([0.0, 1.0], [2.0, 0.7])])
    def test_public_divergence_emits_no_warning_on_a_zero_reference_entry(self, x, y):
        # the discarded terms of a zero x_i compute 0/0 or 0 * inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            d = bregman_divergence(x, y)
        assert d == pytest.approx(y[0] + math.log(1.0 / y[1]) - 1.0 + y[1])


class TestDivergenceRows:
    # _dh_core on a block must give its vector call's bits for every row, -0.0 and inf included
    @staticmethod
    def assert_rows_match(x, ys):
        ys = np.ascontiguousarray(ys, dtype=float)
        with np.errstate(all="ignore"):
            got = _dh_core(x, ys)
            want = np.array([_dh_core(x, y) for y in ys])
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def reference(seed, n=40):
        return seeded_rng(seed).uniform(0.1, 2.0, n)

    def test_all_near_rows(self):
        x = self.reference(50)
        ys = x * seeded_rng(51).uniform(0.6, 1.9, (9, x.size))
        self.assert_rows_match(x, ys)

    def test_mixed_rows_with_differing_near_counts(self):
        x = self.reference(52)
        rng = seeded_rng(53)
        ys = x * np.exp(rng.normal(0.0, 1.0, (30, x.size)) * rng.uniform(0.0, 2.0, (30, 1)))
        ys[3] = x * 1.1  # one all-near row among mixed ones
        self.assert_rows_match(x, ys)

    def test_far_only_rows(self):
        x = self.reference(54)
        ys = np.vstack([x * 10.0, x * 1e-3, x * np.where(np.arange(x.size) % 2, 5.0, 0.1)])
        self.assert_rows_match(x, ys)

    def test_zero_reference_entries_add_the_rest(self):
        x = self.reference(55)
        x[::3] = 0.0
        rng = seeded_rng(56)
        ys = rng.uniform(0.0, 3.0, (12, x.size))
        ys[0] = np.where(x > 0.0, x, 0.0)  # zero divergence
        ys[1] = np.where(x > 0.0, x * 1.2, 0.7)  # all near on the support
        self.assert_rows_match(x, ys)
        # every row near on the support
        x = self.reference(58, n=100)
        x[::3] = 0.0
        self.assert_rows_match(x, np.where(x > 0.0, x * rng.uniform(0.6, 1.9, (64, x.size)), 0.5))
        self.assert_rows_match(np.zeros(5), rng.uniform(0.0, 1.0, (3, 5)))

    def test_zero_iterate_entry_is_infinite(self):
        x = self.reference(57, n=6)
        ys = np.tile(x, (4, 1))
        ys[1, 2] = 0.0
        ys[3, 0] = 0.0
        with np.errstate(all="ignore"):
            d = _dh_core(x, ys)
        assert d[1] == d[3] == math.inf and d[0] == d[2] == 0.0
        self.assert_rows_match(x, ys)

    def test_overflowing_ratios_and_sums(self):
        x = np.array([1e-300, 1.0, 1e300, 2.0])
        ys = np.array([[1e300, 1.0, 1e-300, 2.0],  # ratios overflow and underflow
                       [1e-300, 1.1, 1e300, 1.9],
                       [1.0, 1.0, 1.7e308, 1.7e308]])  # the sum overflows
        self.assert_rows_match(x, ys)

    def test_subnormal_entries(self):
        x = np.array([5e-324, 1e-310, 1.0, 3e-320])
        ys = np.array([[5e-324, 1e-310, 1.0, 3e-320],
                       [1e-323, 2e-310, 0.5, 5e-324],
                       [1.0, 1e-300, 5e-324, 3e-320]])
        self.assert_rows_match(x, ys)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_blocks(self, seed):
        rng = seeded_rng(60 + seed)
        for _ in range(25):
            n = int(rng.integers(1, 200))
            x = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-30, 30, n)
            x[rng.random(n) < rng.uniform(0.0, 0.5)] = 0.0
            spread = rng.uniform(0.0, 3.0, (int(rng.integers(1, 70)), 1))
            base = np.where(x > 0.0, x, rng.uniform(0.0, 1.0, n))
            ys = base * np.exp(rng.normal(0.0, 1.0, (len(spread), n)) * spread)
            ys[rng.random(ys.shape) < 0.01] = 0.0
            self.assert_rows_match(x, ys)


# entries: zero, subnormals, 1e-300 to 1e300, and near the overflow threshold
_ENTRY = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=2.2e-308),
    st.builds(lambda mantissa, exponent: mantissa * 10.0 ** exponent,
              st.floats(min_value=1.0, max_value=9.99), st.integers(min_value=-300, max_value=299)),
    st.floats(min_value=1e307, max_value=1.7e308),
)


@st.composite
def reference_and_block(draw):
    """A reference x and a block of rows: near or far multiples of x, some mixed with entries drawn alone."""
    x = np.array(draw(st.lists(_ENTRY, min_size=1, max_size=40)))
    factor = st.floats(min_value=0.3, max_value=3.0)
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        entry = st.one_of(factor, st.none()) if draw(st.booleans()) else factor
        factors = draw(st.lists(entry, min_size=x.size, max_size=x.size))
        rows.append([draw(_ENTRY) if f is None else min(xi * f, sys.float_info.max)
                     for xi, f in zip(x.tolist(), factors)])
    return x, np.array(rows)


class TestDivergenceProperties:
    # math.fsum rounds the exact sum of the same terms once: the bound checks
    # the kernel's branch choice and summation, the inf rule is checked exactly
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(reference_and_block())
    def test_against_an_exact_sum_of_its_terms(self, case):
        x, ys = case
        with np.errstate(all="ignore"):
            block = _dh_core(x, ys)
            singles = [_dh_core(x, y) for y in ys]
            all_terms = [divergence_terms(x, y) for y in ys]
        assert block.tobytes() == np.array(singles).tobytes()
        for y, d, terms in zip(ys, singles, all_terms):
            assert d >= 0.0
            try:
                exact = math.fsum(terms)
            except OverflowError:
                exact = math.inf
            infinite = bool(np.any((x > 0.0) & (y == 0.0))) or exact == math.inf
            assert (d == math.inf) is infinite
            if not infinite:
                assert abs(d - max(exact, 0.0)) <= 1e-12 * math.fsum(abs(t) for t in terms)


class TestWeightedNormSq:
    def test_hand_case(self):
        assert weighted_norm_sq([1.0, 2.0], [3.0, 4.0]) == pytest.approx(41.0)

    def test_zero_vector(self):
        assert weighted_norm_sq([1.0, 2.0], [0.0, 0.0]) == 0.0

    def test_unit_weights(self):
        v = np.array([1.5, -2.0, 0.5])
        assert weighted_norm_sq(np.ones(3), v) == pytest.approx(float(v @ v))

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            weighted_norm_sq([-1.0], [1.0])


class TestPinskerBound:
    def test_two_vs_one(self):
        assert pinsker_lower_bound([2.0], [1.0]) == pytest.approx(0.25)
        assert bregman_divergence([2.0], [1.0]) >= 0.25

    def test_equal_vectors(self):
        assert pinsker_lower_bound([0.4, 0.6], [0.4, 0.6]) == 0.0

    def test_partial_support(self):
        assert pinsker_lower_bound([0.0, 1.0], [1.0, 1.0]) == pytest.approx(0.25)

    def test_zero_norms_rejected(self):
        with pytest.raises(DomainError):
            pinsker_lower_bound([0.0], [0.0])

    def test_dominated_by_divergence(self):
        rng = seeded_rng(8)
        for _ in range(2000):
            scale_x = 10.0 ** rng.uniform(-3, 3)
            scale_y = 10.0 ** rng.uniform(-3, 3)
            x = rng.uniform(0.0, 1.0, 5) * scale_x
            y = rng.uniform(1e-6, 1.0, 5) * scale_y
            d = bregman_divergence(x, y)
            assert d - pinsker_lower_bound(x, y) >= -1e-12 * (1.0 + d)


class TestMaxNormBound:
    def test_equal_singletons(self):
        assert max_norm_bound([1.0], [1.0]) == pytest.approx(2.0)

    def test_two_vs_one(self):
        assert max_norm_bound([2.0], [1.0]) == pytest.approx(2 * (2 * math.log(2) - 1) + 2)

    def test_zero_x(self):
        assert max_norm_bound([0.0], [1.0]) == pytest.approx(2.0)

    def test_dominates_max_norm(self):
        rng = seeded_rng(9)
        for _ in range(1000):
            x = rng.uniform(0.0, 2.0, 3)
            y = rng.uniform(1e-5, 2.0, 3)
            bound = max_norm_bound(x, y)
            assert bound >= max(np.sum(x), np.sum(y)) - 1e-12


class TestLambertW:
    def test_identities(self):
        assert lambert_w(0.0) == 0.0
        assert lambert_w(math.e) == pytest.approx(1.0, abs=1e-14)
        assert lambert_w(-1 / math.e, WBranch.MINUS_ONE) == -1.0
        assert lambert_w(-2 * math.exp(-2.0), WBranch.MINUS_ONE) == pytest.approx(-2.0, abs=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lambert_w(-0.5)
        with pytest.raises(DomainError):
            lambert_w(0.5, WBranch.MINUS_ONE)

    def test_round_trip_principal(self):
        for w in np.linspace(-1.0, 20.0, 500):
            t = w * math.exp(w)
            assert abs(lambert_w(max(t, -1 / math.e)) - w) < 1e-12

    def test_round_trip_minus_one(self):
        for w in np.linspace(-30.0, -1.0, 500):
            t = max(w * math.exp(w), -1 / math.e)
            assert abs(lambert_w(t, WBranch.MINUS_ONE) - w) < 1e-12

    def test_against_scipy(self):
        # scipy itself loses accuracy right at the branch point, so stay a
        # little away from -1/e for the comparison
        for t in np.geomspace(1e-6, 1e6, 50):
            assert lambert_w(t) == pytest.approx(float(scipy.special.lambertw(t).real), rel=1e-13)
        for t in -np.geomspace(1e-8, 0.36, 50):
            assert lambert_w(t, WBranch.MINUS_ONE) == pytest.approx(
                float(scipy.special.lambertw(t, -1).real), rel=1e-11
            )


class TestBregmanInverse1d:
    def test_zero_divergence(self):
        assert bregman_inverse_1d(1.0, 0.0, WBranch.PRINCIPAL) == pytest.approx(1.0)
        assert bregman_inverse_1d(1.0, 0.0, WBranch.MINUS_ONE) == pytest.approx(1.0)

    def test_half(self):
        d = math.log(2) - 0.5  # divergence from 1 to 0.5
        assert bregman_inverse_1d(1.0, d, WBranch.PRINCIPAL) == pytest.approx(0.5, rel=1e-12)

    def test_round_trip(self):
        rng = seeded_rng(10)
        for _ in range(500):
            x = 10.0 ** rng.uniform(-3, 3)
            ratio = 10.0 ** rng.uniform(-2, 2)
            if abs(ratio - 1.0) < 1e-2:
                continue
            y = x * ratio
            branch = WBranch.PRINCIPAL if y <= x else WBranch.MINUS_ONE
            d = bregman_divergence([x], [y])
            assert bregman_inverse_1d(x, d, branch) == pytest.approx(y, rel=1e-10)

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            bregman_inverse_1d(0.0, 1.0, WBranch.PRINCIPAL)
        with pytest.raises(DomainError):
            bregman_inverse_1d(1.0, -1.0, WBranch.PRINCIPAL)


class TestYminLowerBound:
    def test_zero_divergence(self):
        assert ymin_lower_bound(1.0, 0.0) == pytest.approx(1.0)

    def test_unit_case(self):
        # -W0(-exp(-2)), checked against scipy
        want = float(-scipy.special.lambertw(-math.exp(-2.0)).real)
        got = ymin_lower_bound(1.0, 1.0)
        assert got == pytest.approx(want, rel=1e-13)
        assert got == pytest.approx(0.15859433956303937, rel=1e-12)

    def test_large_divergence_decays(self):
        assert ymin_lower_bound(0.5, 20.0) <= 1e-6

    def test_is_a_true_lower_bound(self):
        rng = seeded_rng(12)
        for _ in range(500):
            x = rng.uniform(0.05, 2.0, 4)
            y = rng.uniform(0.05, 2.0, 4)
            d = bregman_divergence(x, y)
            assert np.min(y) >= ymin_lower_bound(float(np.min(x)), d) - 1e-12

    def test_nonpositive_xmin_rejected(self):
        with pytest.raises(DomainError):
            ymin_lower_bound(0.0, 1.0)


class TestExpQuadraticMargin:
    def test_origin(self):
        assert exp_quadratic_margin(0.0) == 0.0

    def test_at_cap(self):
        # direct evaluation: 1 + 1.79 + 1.79^2 - e^1.79
        want = 1.0 + 1.79 + 1.79**2 - math.exp(1.79)
        assert want > 0
        assert exp_quadratic_margin(EXP_QUAD_BOUND) == pytest.approx(want)

    def test_beyond_cap_negative(self):
        assert exp_quadratic_margin(2.0) == pytest.approx(7.0 - math.e**2)
        assert exp_quadratic_margin(2.0) < 0

    def test_vectorized(self):
        t = np.array([-1.0, 0.0, 1.0])
        out = exp_quadratic_margin(t)
        assert out.shape == (3,)
        assert out[1] == 0.0


def test_ymin_bound_versus_squared_distance():
    # y_min * D_h(x, y) <= ||x - y||^2 on random pairs
    rng = seeded_rng(13)
    for _ in range(2000):
        x = rng.uniform(0.0, 2.0, 5)
        y = rng.uniform(1e-4, 2.0, 5)
        d = bregman_divergence(x, y)
        assert float(np.min(y)) * d <= float(np.sum((x - y) ** 2)) + 1e-12


def test_lambert_rejects_nonfinite_and_converges_on_domain():
    for t in np.linspace(-1 / math.e + 1e-9, 5.0, 200):
        lambert_w(t)
    with pytest.raises(DomainError):
        lambert_w(float("nan"))
    with pytest.raises(DomainError):
        lambert_w(float("inf"), WBranch.MINUS_ONE)
