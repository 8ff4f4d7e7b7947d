"""Quantum states: pure states, density matrices, Schmidt structure, generators.

Random generators take explicit seeds (or ``numpy.random.Generator``
instances) and never touch global RNG state, so a given seed reproduces
the same state bit-for-bit on one platform.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidRankError,
    NotBipartiteError,
    NotHermitianError,
    NotPSDError,
    ParamOutOfRangeError,
)

# Smallest Schmidt coefficient emitted by the rank-r generator; keeps the
# generated rank numerically unambiguous against the 1e-9 rank tolerance.
COEFFICIENT_FLOOR = 0.01

NORM_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-9


class PureState:
    """State vector together with its subsystem dimensions.

    ``dims`` is (dA, dB) for a bipartite state or (d,) for a single
    system. Amplitudes are stored normalized and use the composite index
    ``i_A * dB + i_B``.
    """

    def __init__(self, amplitudes, dims):
        v = np.asarray(amplitudes, dtype=complex).reshape(-1)
        if not np.all(np.isfinite(v.real)) or not np.all(np.isfinite(v.imag)):
            raise ValueError("amplitudes must be finite")
        dims = tuple(int(d) for d in (dims if np.iterable(dims) else (dims,)))
        if len(dims) not in (1, 2) or any(d < 1 for d in dims):
            raise InvalidDimensionError(f"unsupported dims {dims}")
        if v.size != int(np.prod(dims)):
            raise DimensionMismatchError(
                f"{v.size} amplitudes do not match dims {dims}"
            )
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        self.amplitudes = v
        self.dims = dims

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def is_bipartite(self) -> bool:
        return len(self.dims) == 2

    def coefficient_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to the dA x dB coefficient matrix."""
        if not self.is_bipartite():
            raise NotBipartiteError("state has no bipartite split")
        return self.amplitudes.reshape(self.dims)

    def density(self) -> "DensityMatrix":
        """Projector |psi><psi| as a DensityMatrix."""
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()), self.dims)

    def __repr__(self):
        return f"PureState(dim={self.dim}, dims={self.dims})"


class DensityMatrix:
    """Positive unit-trace operator with explicit subsystem dimensions."""

    def __init__(self, matrix, dims):
        m = linalg.as_matrix(matrix, square=True)
        dims = tuple(int(d) for d in (dims if np.iterable(dims) else (dims,)))
        if len(dims) not in (1, 2) or any(d < 1 for d in dims):
            raise InvalidDimensionError(f"unsupported dims {dims}")
        if m.shape[0] != int(np.prod(dims)):
            raise DimensionMismatchError(f"shape {m.shape} does not match dims {dims}")
        self.matrix = as_density_stack(m)
        self.dims = dims

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_bipartite(self) -> bool:
        return len(self.dims) == 2

    def marginal(self, keep: int) -> np.ndarray:
        if not self.is_bipartite():
            raise NotBipartiteError("state has no bipartite split")
        return linalg.partial_trace(self.matrix, self.dims, keep)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim}, dims={self.dims})"


def max_entangled(d: int) -> PureState:
    """Maximally entangled state (1/sqrt(d)) sum_i |ii> on d x d."""
    if d < 2:
        raise InvalidDimensionError("maximally entangled state needs d >= 2")
    v = np.zeros(d * d, dtype=complex)
    v[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return PureState(v, (d, d))


def schmidt_coefficients(psi: PureState) -> np.ndarray:
    """Squared singular values of the coefficient matrix, descending, summing to 1."""
    s = linalg.singular_values(psi.coefficient_matrix())
    return s * s


def schmidt_rank(psi: PureState, tol: float = 1e-9) -> int:
    """Number of Schmidt coefficients above ``tol``."""
    return int(np.count_nonzero(schmidt_coefficients(psi) > tol))


def as_density_stack(m: np.ndarray) -> np.ndarray:
    """Hermitian part of a D x D density matrix or of an (n, D, D) stack of them.

    Every matrix must be finite and Hermitian within ``PSD_TOL`` entrywise,
    have a trace within ``TRACE_TOL`` of 1 and no eigenvalue below ``-PSD_TOL``,
    decided by one stacked Cholesky factorization of h + ``PSD_TOL`` I
    (``linalg.psd_minima``); a stacked ``eigvalsh`` runs only to report a
    failure. Each check runs on the whole stack, and its error names the
    first failing state of a stack by index.
    """

    def at(i: int) -> str:
        return f"state {i}: " if m.ndim == 3 else ""

    dagger = np.swapaxes(m.conj(), -1, -2)
    with np.errstate(invalid="ignore"):  # inf - inf reads as NaN
        deviation = np.abs(m - dagger).max(axis=(-2, -1))
    bad = np.flatnonzero(~(deviation <= PSD_TOL))  # a NaN or inf entry fails here too
    if bad.size:
        raise NotHermitianError(f"{at(bad[0])}max |rho - rho†| = {deviation.flat[bad[0]]:.3e}")
    h = m + dagger
    h /= 2.0
    tr = np.trace(h, axis1=-2, axis2=-1)
    bad = np.flatnonzero(np.abs(tr - 1.0) > TRACE_TOL)
    if bad.size:
        raise ValueError(
            f"{at(bad[0])}trace {tr.flat[bad[0]]!r} deviates from 1 beyond {TRACE_TOL}"
        )
    lo = linalg.psd_minima(h, PSD_TOL)
    if lo is not None:
        bad = np.flatnonzero(lo < -PSD_TOL)
        if bad.size:
            raise NotPSDError(
                f"{at(bad[0])}minimum eigenvalue {lo.flat[bad[0]]:.3e} below -{PSD_TOL}"
            )
    return h


def _haar_from_gaussian(z: np.ndarray) -> np.ndarray:
    """Haar unitaries from complex Gaussian matrices (..., d, d): QR, then fix R's phases."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def haar_unitary(d: int, rng) -> np.ndarray:
    """Haar-random d x d unitary via QR of a complex Gaussian matrix."""
    rng = np.random.default_rng(rng)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    return _haar_from_gaussian(z)


def _check_rank(dA: int, dB: int, r: int) -> None:
    if not 1 <= r <= min(dA, dB):
        raise InvalidRankError(f"rank {r} not in [1, min({dA},{dB})]")


def _flat_dirichlet(e: np.ndarray) -> np.ndarray:
    """Rows of standard exponential draws ``e`` (..., k) normalized to the simplex.

    ``rng.dirichlet(np.ones(k))`` draws ``standard_gamma(1.0)``, which is
    ``standard_exponential()``, k times in order, sums them left to right
    from 0.0 and multiplies each by the reciprocal of that sum. The
    sequential ``cumsum`` and the same multiply repeat that arithmetic, so a
    row of ``rng.standard_exponential(k)`` gives the Dirichlet row bit for
    bit and leaves the generator in the same state, without the Python-level
    argument checks of one ``dirichlet`` call per row. Zero padding at the
    end of a row changes neither its sum nor its entries.
    """
    return e * (1.0 / np.cumsum(e, axis=-1)[..., -1:])


def _schmidt_amplitudes(dA: int, dB: int, lam: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Amplitudes (T, dA*dB) of T Schmidt-rank-r pure states from their draws.

    Row t of ``lam`` (T, r) holds the Dirichlet coefficients; row t of
    ``g`` (T, 2*(dA^2 + dB^2)) the real then imaginary Gaussian parts of
    the A basis and then of the B basis, in the order ``haar_unitary``
    draws them.
    """
    lam = np.maximum(lam, COEFFICIENT_FLOOR)
    lam = lam / lam.sum(axis=-1, keepdims=True)
    r = lam.shape[-1]
    bases = []
    for d, part in ((dA, g[:, :2 * dA * dA]), (dB, g[:, 2 * dA * dA:])):
        part = part.reshape(-1, 2, d, d)
        z = (part[:, 0] + 1j * part[:, 1]) / np.sqrt(2.0)
        bases.append(_haar_from_gaussian(z)[..., :r])
    amp = np.einsum("ti,tai,tbi->tab", np.sqrt(lam), *bases)
    return amp.reshape(len(lam), dA * dB)


def random_pure_with_schmidt_rank(dA: int, dB: int, r: int, seed) -> PureState:
    """Random bipartite pure state with Schmidt rank exactly ``r``.

    Coefficients are sampled uniformly on the simplex (the bits of
    ``rng.dirichlet(np.ones(r))``, see :func:`_flat_dirichlet`), floored
    at ``COEFFICIENT_FLOOR`` and renormalized; the local bases are
    independent Haar-random unitaries.
    """
    _check_rank(dA, dB, r)
    rng = np.random.default_rng(seed)
    lam = _flat_dirichlet(rng.standard_exponential(r))
    g = rng.standard_normal(2 * (dA * dA + dB * dB))
    return PureState(_schmidt_amplitudes(dA, dB, lam[None], g[None])[0], (dA, dB))


def _sn_mixtures(dA: int, dB: int, r: int, n: int, max_terms: int, rng,
                 draw_terms: bool = True) -> np.ndarray:
    """Unvalidated (n, D, D) stack of mixtures of Schmidt-rank-r pure states.

    Per state, in generator order: the term count (drawn from
    1..max_terms, or ``max_terms`` itself when ``draw_terms`` is false),
    the Dirichlet weights, then per term the draws of
    ``random_pure_with_schmidt_rank``. Only these draws run per state.
    Both Dirichlet draws are their standard exponential rows, written in
    place and normalized after the loop by :func:`_flat_dirichlet`, which
    reproduces ``rng.dirichlet(np.ones(k))`` bit for bit and leaves the
    generator where it would; the weights are normalized with zeros in the
    unused slots, the coefficients only in the used ones.
    Every term's norm is checked against ``NORM_TOL``. Each mixture is
    the product of its ``sqrt(w)``-weighted amplitude rows, zero rows
    filling the unused term slots; no per-term D x D matrix is formed.
    """
    weights = np.zeros((n, max_terms))
    lam = np.empty((n, max_terms, r))
    g = np.empty((n, max_terms, 2 * (dA * dA + dB * dB)))
    used = np.zeros((n, max_terms), dtype=bool)
    for i in range(n):
        terms = int(rng.integers(1, max_terms + 1)) if draw_terms else max_terms
        rng.standard_exponential(out=weights[i, :terms])
        used[i, :terms] = True
        for t in range(terms):
            rng.standard_exponential(out=lam[i, t])
            rng.standard_normal(out=g[i, t])
    weights = _flat_dirichlet(weights)
    amp = _schmidt_amplitudes(dA, dB, _flat_dirichlet(lam[used]), g[used])
    norm = np.linalg.norm(amp, axis=-1)
    bad = np.flatnonzero(np.abs(norm - 1.0) > NORM_TOL)
    if bad.size:
        state = np.nonzero(used)[0][bad[0]]
        raise ValueError(
            f"state {state}: term norm {norm[bad[0]]!r} deviates from 1 beyond {NORM_TOL}"
        )
    rows = np.zeros((n, max_terms, dA * dB), dtype=complex)
    rows[used] = np.sqrt(weights[used])[:, None] * amp
    return np.swapaxes(rows, -1, -2) @ rows.conj()


def random_state_sn_at_most(dA: int, dB: int, r: int, terms: int, seed) -> DensityMatrix:
    """Convex mixture of ``terms`` random Schmidt-rank-<=r pure states.

    By construction the output has Schmidt number at most ``r``. It is
    the one-state case of ``random_states_sn_at_most`` with ``terms``
    given instead of drawn.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    _check_rank(dA, dB, r)
    rng = np.random.default_rng(seed)
    return DensityMatrix(_sn_mixtures(dA, dB, r, 1, terms, rng, draw_terms=False)[0], (dA, dB))


def random_states_sn_at_most(dA: int, dB: int, r: int, n: int, max_terms: int,
                             seed) -> np.ndarray:
    """Validated (n, dA*dB, dA*dB) stack of states of Schmidt number at most ``r``.

    State i is what ``random_state_sn_at_most(dA, dB, r, terms, rng)``
    returns after ``terms = rng.integers(1, max_terms + 1)``, drawn in
    the same order from the same generator, so a seeded generator ends
    in the same state either way, and consecutive calls continue the
    sequence of one call. The bases, amplitudes, mixtures and the
    validation (``as_density_stack``) run on whole stacks. The mixture
    weights and Schmidt coefficients are drawn as standard exponential
    rows and normalized together after the per-state loop; numpy's
    ``dirichlet`` with unit parameters does the same arithmetic on the
    same draws (see ``_flat_dirichlet``), so the states are bit-identical
    to per-state ``rng.dirichlet`` calls.
    """
    if n < 1 or max_terms < 1:
        raise ValueError("n and max_terms must be >= 1")
    _check_rank(dA, dB, r)
    return as_density_stack(_sn_mixtures(dA, dB, r, n, max_terms, np.random.default_rng(seed)))


def random_density(d: int, seed, dims=None) -> DensityMatrix:
    """Full-rank random density matrix (Hilbert-Schmidt measure)."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho), dims if dims is not None else (d,))


def isotropic_state(d: int, p: float) -> DensityMatrix:
    """p |phi+><phi+| + (1-p) I/d^2 on d x d."""
    if not 0.0 <= p <= 1.0:
        raise ParamOutOfRangeError(f"p={p} outside [0, 1]")
    phi = max_entangled(d)
    m = p * np.outer(phi.amplitudes, phi.amplitudes.conj())
    m += (1.0 - p) / (d * d) * np.eye(d * d)
    return DensityMatrix(m, (d, d))
