"""Dense real linear algebra used by every other module.

All matrices are dense 2-D float arrays in row-major order and all vectors
are 1-D float arrays.  Routines validate finiteness and shapes up front and
raise :class:`~entmd.errors.DimensionMismatch` / :class:`~entmd.errors.DomainError`
on bad input.  Everything here is a pure function of its arguments; random
routines take an explicit generator and never touch global state.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DimensionMismatch, DomainError

__all__ = [
    "as_matrix",
    "as_vector",
    "seeded_rng",
    "max_col_norm_sq",
    "vector_norm",
    "smallest_positive_eigenvalue",
    "lambda_max_scaled_gram",
    "smaller_gram",
    "random_orthogonal",
    "kernel_projector",
]


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D float array, requiring finite entries."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise DimensionMismatch(f"expected a nonempty 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix entries must be finite")
    return a


def as_vector(x) -> np.ndarray:
    """Coerce to a 1-D float array, requiring finite entries."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise DimensionMismatch(f"expected a nonempty 1-D vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DomainError("vector entries must be finite")
    return x


def _aligned_empty(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized C-contiguous float array whose data starts on a 64-byte boundary.

    numpy's allocator gives 16-byte alignment, so where a matrix lands
    depends on the heap's earlier allocations; OpenBLAS's GEMV pair at
    60x100 runs 10-15% slower on a matrix that is not 32-byte aligned, with
    the same bits.
    """
    size = math.prod(shape)
    buf = np.empty(size + 8)
    start = (-buf.ctypes.data % 64) // 8
    return buf[start:start + size].reshape(shape)


def seeded_rng(seed: int) -> np.random.Generator:
    """Deterministic generator used throughout: 64-bit counter-based Philox."""
    return np.random.Generator(np.random.Philox(seed))


def max_col_norm_sq(a) -> float:
    """Largest squared Euclidean column norm, max_j sum_i A[i,j]^2."""
    a = as_matrix(a)
    return float(np.max(np.sum(a * a, axis=0)))


# Below this norm numpy's squared sum is subnormal or zero and loses precision.
_SQRT_TINY = math.sqrt(sys.float_info.min)


def vector_norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector, also where its squared sum overflows or underflows.

    numpy's ``norm`` squares the entries, so above ~1.3e154 it returns inf
    with an overflow warning, and below ~1.5e-154 the squares lose their
    bits down to 0.  There the norm is s ||v / s|| with s = max |v_i|, which
    is finite and accurate while the norm is.
    """
    with np.errstate(over="ignore"):
        r = float(np.linalg.norm(v))
    if r == math.inf or r < _SQRT_TINY:
        s = float(np.max(np.abs(v)))
        if 0.0 < s < math.inf:
            r = s * float(np.linalg.norm(v / s))
    return r


def smallest_positive_eigenvalue(g) -> float:
    """Smallest eigenvalue of a symmetric matrix above the zero threshold.

    The eigenvalues come from LAPACK (``eigvalsh``); the threshold separating
    numerically-zero eigenvalues is ``tau = 1e-10 * lambda_max``.

    Raises
    ------
    DomainError
        If no eigenvalue exceeds the threshold (zero-rank signal), or the
        input is not square or not symmetric to 1e-10 relative.
    """
    g = as_matrix(g)
    if g.shape[0] != g.shape[1]:
        raise DomainError(f"eigendecomposition needs a square matrix, got {g.shape}")
    scale = float(np.max(np.abs(g)))
    if float(np.max(np.abs(g - g.T))) > 1e-10 * max(scale, 1e-300):
        raise DomainError("matrix is not symmetric to 1e-10 relative")
    evals = np.linalg.eigvalsh(g)
    lam_max = float(evals[-1])
    tau = 1e-10 * lam_max
    positive = evals[evals > tau]
    if lam_max <= 0.0 or positive.size == 0:
        raise DomainError("no eigenvalue exceeds the positivity threshold")
    return float(positive[0])


def lambda_max_scaled_gram(a, x) -> float:
    """Largest eigenvalue of ``diag(x) A^T A`` for nonnegative weights x.

    With B = A diag(sqrt(x)), that matrix is similar to the n x n Gram
    matrix B^T B, whose positive eigenvalues are those of the m x m Gram
    matrix B B^T.  LAPACK (``eigvalsh``) decomposes the smaller of the two.

    Raises
    ------
    DomainError
        If ``x`` has a negative entry or wrong length.
    """
    a = as_matrix(a)
    x = as_vector(x)
    if x.shape[0] != a.shape[1]:
        raise DimensionMismatch("weight vector length must equal the number of columns")
    if np.any(x < 0):
        raise DomainError("weights must be nonnegative")
    return float(np.linalg.eigvalsh(smaller_gram(a * np.sqrt(x)))[-1])


def smaller_gram(a: np.ndarray) -> np.ndarray:
    """The smaller of the Gram matrices A A^T (m x m) and A^T A (n x n); both
    have the same positive eigenvalues."""
    return a @ a.T if a.shape[0] < a.shape[1] else a.T @ a


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix.

    QR of a standard Gaussian matrix with the R diagonal sign folded into Q,
    which makes the distribution exactly Haar and the output deterministic
    for a given generator state.  The fold multiplies Q in place: a copy
    would be a second dim x dim array at the peak of instance generation.
    """
    if dim < 1:
        raise DomainError("dimension must be at least 1")
    gauss = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    d = np.diag(r)
    q *= np.where(d == 0.0, 1.0, np.sign(d))
    return q


def kernel_projector(a) -> np.ndarray:
    """Orthonormal basis Q of range(A^T); ``v - Q (Q^T v)`` projects onto ker(A).

    The columns of Q are the right singular vectors of A (one LAPACK
    ``svd``) whose singular values exceed numpy's ``matrix_rank`` tolerance
    ``sigma_max * max(m, n) * eps``.
    """
    a = as_matrix(a)
    _, s, vt = np.linalg.svd(a, full_matrices=False)
    tol = s[0] * max(a.shape) * np.finfo(float).eps
    return vt[s > tol].T
