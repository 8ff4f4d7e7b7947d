"""Dense complex linear algebra primitives.

Everything operates on plain ``numpy.ndarray`` matrices with complex128
entries. The composite index convention is fixed globally: a bipartite
system with dimensions (dA, dB) uses the row-major composite index
``i_A * dB + i_B``, i.e. subsystem A is the most significant block. This
matches ``numpy.kron(A, B)``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError, NotSquareError

# Relative tolerance for accepting (and symmetrizing) noisy Hermitian input.
HERMITICITY_TOL = 1e-9
# Relative cutoff separating structural zeros from rounding noise.
RANK_TOL = 1e-9


def as_matrix(a, *, square: bool = False) -> np.ndarray:
    """Coerce input to a finite complex128 2-D array (copy-free when possible)."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    if square and m.shape[0] != m.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {m.shape}")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def kron(a, b) -> np.ndarray:
    """Kronecker product with A as the most significant index block."""
    return np.kron(as_matrix(a), as_matrix(b))


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors (columns) of a Hermitian matrix.

    Input within ``HERMITICITY_TOL * max|h|`` of Hermitian is symmetrized as
    (h + h†)/2 before decomposition; larger violations raise
    NotHermitianError.
    """
    h = as_matrix(h, square=True)
    scale = np.max(np.abs(h)) if h.size else 0.0
    deviation = np.max(np.abs(h - dagger(h))) if h.size else 0.0
    if deviation > HERMITICITY_TOL * max(scale, 1e-300):
        raise NotHermitianError(
            f"max |h - h†| = {deviation:.3e} exceeds {HERMITICITY_TOL:.1e} * max|h|"
        )
    vals, vecs = np.linalg.eigh((h + dagger(h)) / 2.0)
    return vals, vecs


def psd_minima(h: np.ndarray, tol: float) -> np.ndarray | None:
    """None when no matrix of ``h`` has an eigenvalue at or below ``-tol``.

    ``h`` is one Hermitian matrix or an (n, D, D) stack of them; only lower
    triangles are read. The test is one Cholesky factorization of
    ``h + tol * I``, which exists exactly when every eigenvalue exceeds
    ``-tol``. Only when it fails (or its diagonal is not finite, as NaN
    input makes it), the minimum eigenvalue of every matrix comes from one
    stacked ``eigvalsh`` (a 0-d array for one matrix), so the caller
    decides and reports a failure as an eigensolve would.
    """
    shifted = h + tol * np.eye(h.shape[-1])
    try:
        factor = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        factor = None
    if factor is None or not np.isfinite(np.diagonal(factor, axis1=-2, axis2=-1)).all():
        return np.linalg.eigvalsh(h)[..., 0]
    return None


def singular_values(a) -> np.ndarray:
    """Singular values, descending, all nonnegative."""
    return np.linalg.svd(as_matrix(a), compute_uv=False)


def matrix_rank(a) -> int:
    """Number of singular values above ``RANK_TOL * sigma_max`` (0 for the zero matrix)."""
    s = singular_values(a)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > RANK_TOL * s[0]))


def _check_bipartite_shape(m: np.ndarray, dims: tuple[int, int]) -> None:
    da, db = dims
    if m.shape != (da * db, da * db):
        raise DimensionMismatchError(
            f"matrix shape {m.shape} does not match dims {da}x{db}"
        )


def partial_trace(m, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one subsystem of a bipartite operator.

    Parameters
    ----------
    m : array_like
        (dA*dB) x (dA*dB) matrix in the global composite index convention.
    dims : (int, int)
        Subsystem dimensions (dA, dB).
    keep : int
        0 keeps subsystem A (traces out B), 1 keeps B.
    """
    m = as_matrix(m)
    _check_bipartite_shape(m, dims)
    da, db = dims
    r = m.reshape(da, db, da, db)
    if keep == 0:
        return np.einsum("ikjk->ij", r)
    if keep == 1:
        return np.einsum("kikj->ij", r)
    raise ValueError("keep must be 0 (subsystem A) or 1 (subsystem B)")


def partial_transpose(m, dims: tuple[int, int], which: int) -> np.ndarray:
    """Transpose the index blocks of one subsystem of a bipartite operator."""
    m = as_matrix(m)
    _check_bipartite_shape(m, dims)
    da, db = dims
    r = m.reshape(da, db, da, db)
    if which == 0:
        r = r.transpose(2, 1, 0, 3)
    elif which == 1:
        r = r.transpose(0, 3, 2, 1)
    else:
        raise ValueError("which must be 0 (subsystem A) or 1 (subsystem B)")
    return r.reshape(da * db, da * db)
