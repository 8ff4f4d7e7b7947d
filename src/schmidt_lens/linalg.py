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


def kron(a, b) -> np.ndarray:
    """Kronecker product with A as the most significant index block."""
    return _kron(as_matrix(a), as_matrix(b))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``kron`` of each pair of matrices on the last two axes, leading axes
    broadcast: one broadcast product, each entry the one product ``np.kron``
    takes."""
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], m * p, n * q)


def hermitian_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors (columns) of a Hermitian matrix.

    Input within ``HERMITICITY_TOL * max|h|`` of Hermitian is symmetrized as
    (h + h†)/2 before decomposition; larger violations raise
    NotHermitianError (:func:`_hermitian_eigh`).
    """
    return _hermitian_eigh(as_matrix(h, square=True))


def _hermitian_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``hermitian_eig`` of a finite square matrix or of each matrix of an
    (n, D, D) stack, in one stacked ``eigh``; the error names the first
    matrix of a stack that is not Hermitian within the tolerance."""
    dagger_h = np.swapaxes(h.conj(), -1, -2)
    scale = np.abs(h).max(axis=(-2, -1), initial=0.0)
    deviation = np.abs(h - dagger_h).max(axis=(-2, -1), initial=0.0)
    bad = np.flatnonzero(deviation > HERMITICITY_TOL * np.maximum(scale, 1e-300))
    if bad.size:
        at = f"matrix {bad[0]}: " if h.ndim == 3 else ""
        raise NotHermitianError(f"{at}max |h - h†| = {deviation.flat[bad[0]]:.3e} exceeds "
                                f"{HERMITICITY_TOL:.1e} * max|h|")
    return np.linalg.eigh((h + dagger_h) / 2.0)


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
    return int(_ranks(singular_values(a)))


def _ranks(s: np.ndarray) -> np.ndarray:
    """The rank rule of ``matrix_rank`` for each row of descending singular
    values on the last axis of ``s``: the count above ``RANK_TOL`` times the
    row's first, so 0 for a zero (or empty) matrix."""
    return np.count_nonzero(s > RANK_TOL * s[..., :1], axis=-1)


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
