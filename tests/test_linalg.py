import warnings

import numpy as np
import pytest

from entmd import (
    DomainError,
    lambda_max_scaled_gram,
    max_col_norm_sq,
    random_orthogonal,
    seeded_rng,
    smallest_positive_eigenvalue,
)
from entmd.linalg import kernel_projector, vector_norm
from conftest import gram_test_matrices, within_eigenvalue_tolerance

GRAM_MATRICES = gram_test_matrices()


class TestMaxColNormSq:
    def test_hand_case(self):
        assert max_col_norm_sq([[3.0, 0.0], [4.0, 0.0]]) == pytest.approx(25.0)

    def test_identity(self):
        assert max_col_norm_sq(np.eye(2)) == 1.0

    def test_single_row(self):
        assert max_col_norm_sq([[1.0, 2.0]]) == pytest.approx(4.0)


class TestEigenvalues:
    def test_diagonal_skips_zero(self):
        assert smallest_positive_eigenvalue([[4.0, 0.0], [0.0, 0.0]]) == pytest.approx(4.0)

    def test_identity(self):
        assert smallest_positive_eigenvalue(np.eye(3)) == pytest.approx(1.0)

    def test_two_by_two(self):
        # eigenvalues of [[2,1],[1,2]] are 1 and 3
        assert smallest_positive_eigenvalue([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(1.0, rel=1e-12)

    def test_nonsymmetric_rejected(self):
        with pytest.raises(DomainError):
            smallest_positive_eigenvalue([[1.0, 2.0], [0.0, 1.0]])

    def test_zero_matrix_rejected(self):
        with pytest.raises(DomainError):
            smallest_positive_eigenvalue(np.zeros((3, 3)))

    def test_smallest_positive_below_trace_bound(self):
        rng = seeded_rng(4)
        for _ in range(5):
            a = rng.standard_normal((6, 9))
            lam = smallest_positive_eigenvalue(a.T @ a)
            assert lam <= max_col_norm_sq(a) * 9 + 1e-9


class TestLambdaMaxScaledGram:
    def test_scalar(self):
        assert lambda_max_scaled_gram([[1.0]], [2.0]) == pytest.approx(2.0)

    def test_zero_weights(self):
        assert lambda_max_scaled_gram(np.eye(3), np.zeros(3)) == 0.0

    def test_diagonal(self):
        assert lambda_max_scaled_gram(np.eye(2), [1.0, 3.0]) == pytest.approx(3.0, rel=1e-11)

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            lambda_max_scaled_gram(np.eye(2), [1.0, -1.0])

    @pytest.mark.parametrize("weights", ["positive", "half zero", "zero"])
    @pytest.mark.parametrize("name", GRAM_MATRICES)
    def test_matches_the_n_by_n_gram(self, name, weights):
        # m < n decomposes B B^T (B = A diag(sqrt x)), m >= n B^T B; both must give B^T B's top eigenvalue
        a = GRAM_MATRICES[name]
        x = {"positive": seeded_rng(9).uniform(0.1, 2.0, a.shape[1]),
             "half zero": np.resize([0.0, 1.5], a.shape[1]),
             "zero": np.zeros(a.shape[1])}[weights]
        b = a * np.sqrt(x)
        ref = float(np.linalg.eigvalsh(b.T @ b)[-1])
        assert within_eigenvalue_tolerance(lambda_max_scaled_gram(a, x), ref, ref)

    def test_positive_scaling(self):
        rng = seeded_rng(5)
        a = rng.standard_normal((4, 6))
        x = rng.uniform(0.1, 2.0, 6)
        base = lambda_max_scaled_gram(a, x)
        for t in (0.5, 3.0, 17.0):
            assert lambda_max_scaled_gram(a, t * x) == pytest.approx(t * base, rel=1e-10)


class TestRandomOrthogonal:
    def test_one_dimensional(self):
        q = random_orthogonal(1, seeded_rng(0))
        assert q.shape == (1, 1)
        assert abs(q[0, 0]) == pytest.approx(1.0)

    def test_orthogonality(self):
        q = random_orthogonal(7, seeded_rng(1))
        assert np.max(np.abs(q.T @ q - np.eye(7))) < 1e-10

    def test_determinism(self):
        q1 = random_orthogonal(5, seeded_rng(42))
        q2 = random_orthogonal(5, seeded_rng(42))
        assert np.array_equal(q1, q2)

    def test_norm_preservation(self):
        rng = seeded_rng(2)
        q = random_orthogonal(6, rng)
        for _ in range(5):
            v = rng.standard_normal(6)
            assert np.linalg.norm(q @ v) == pytest.approx(np.linalg.norm(v), rel=1e-10)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("dim", [1, 7, 100, 257])
    def test_bits_are_the_qr_factor_with_its_signs_folded(self, dim, seed):
        # every seeded instance rests on these bits: the reference folds R's
        # diagonal signs into a fresh copy of Q
        q, r = np.linalg.qr(seeded_rng(seed).standard_normal((dim, dim)))
        d = np.diag(r)
        expected = q * np.where(d == 0.0, 1.0, np.sign(d))
        assert random_orthogonal(dim, seeded_rng(seed)).tobytes() == expected.tobytes()

    def test_column_over_a_zero_diagonal_keeps_its_sign(self):
        class SingularDraw:
            def standard_normal(self, shape):
                return np.diag([-2.0, 0.0, 3.0])

        # Q is the identity and R's diagonal is (-2, 0, 3): the first column
        # flips, and the second, over the exact zero, is kept, not zeroed
        q = random_orthogonal(3, SingularDraw())
        assert np.array_equal(q, np.diag([-1.0, 1.0, 1.0]))


def test_kernel_projector_spans_row_space():
    rng = seeded_rng(6)
    a = rng.standard_normal((3, 8))
    q = kernel_projector(a)
    assert q.shape == (8, 3)
    assert np.max(np.abs(q.T @ q - np.eye(3))) < 1e-12
    v = rng.standard_normal(8)
    v_ker = v - q @ (q.T @ v)
    assert np.max(np.abs(a @ v_ker)) < 1e-10


def test_kernel_projector_drops_dependent_rows():
    rng = seeded_rng(7)
    a = rng.standard_normal((3, 8))
    a = np.vstack([a, a[1]])  # a duplicated row adds no rank
    q = kernel_projector(a)
    assert q.shape == (8, 3)
    assert np.max(np.abs(q.T @ q - np.eye(3))) < 1e-12
    v = rng.standard_normal(8)
    v_ker = v - q @ (q.T @ v)
    assert np.max(np.abs(a @ v_ker)) < 1e-10
    assert kernel_projector(np.zeros((2, 5))).shape == (5, 0)


class TestVectorNorm:
    def test_plain(self):
        assert vector_norm(np.array([3.0, 4.0])) == 5.0

    def test_squared_sum_overflows(self):
        # numpy's norm gives inf here with an overflow warning
        v = np.array([3e300, -4e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert vector_norm(v) == pytest.approx(5e300, rel=1e-15)

    def test_squared_sum_underflows(self):
        # numpy's norm squares these to 0; below ~1.5e-154 the squares lose bits
        assert vector_norm(np.array([3e-200, -4e-200])) == pytest.approx(5e-200, rel=1e-15)
        assert vector_norm(np.array([3e-160, 4e-160])) == pytest.approx(5e-160, rel=1e-15)
        assert vector_norm(np.array([5e-324, 0.0])) == 5e-324
        assert vector_norm(np.zeros(3)) == 0.0

    def test_overflowing_norm_is_inf(self):
        assert vector_norm(np.array([1.5e308, 1.5e308])) == np.inf
        assert vector_norm(np.array([1.0, np.inf])) == np.inf
