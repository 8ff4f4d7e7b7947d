"""Schmidt-number certification: the fidelity witness and the Tr(X)I - kX maps.

The witness W = I - (d/r) P, with P the projector onto the maximally
entangled state, satisfies Tr(W rho) >= 0 for every state of Schmidt
number at most r; a negative value certifies Schmidt number above r.
The map family Lambda_k(X) = Tr(X) I - k X is r-positive but
(r+1)-negative exactly for 1/(r+1) < k <= 1/r, giving a second,
independent certificate: a negative eigenvalue of (id ⊗ Lambda_{1/r})
applied to a bipartite state again certifies Schmidt number above r.

Both certificates are one-sided. Passing them never proves Schmidt
number <= r (that problem is NP-hard in general); hence the verdict
vocabulary below.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channels import ChoiMatrix, QuantumChannel, _choi_array, _kraus_from_choi_matrix
from .errors import DimensionMismatchError, InvalidRankError, NotHermitianError
from .states import DensityMatrix, max_entangled

EVIDENCE_TOL = 1e-9


class SNWitness:
    """Fidelity witness I - (d/r) |phi+><phi+| on a d x d bipartite space."""

    def __init__(self, d: int, r: int):
        if not 1 <= r < d:
            raise InvalidRankError(f"witness needs 1 <= r < d, got r={r}, d={d}")
        self.d = d
        self.r = r
        phi = max_entangled(d).amplitudes
        self.matrix = np.eye(d * d, dtype=complex) - (d / r) * np.outer(phi, phi.conj())

    def __repr__(self):
        return f"SNWitness(d={self.d}, r={self.r})"


def witness(d: int, r: int) -> SNWitness:
    """Witness detecting Schmidt number above r on a d x d system."""
    return SNWitness(d, r)


def _square_array(rho) -> np.ndarray:
    if isinstance(rho, (DensityMatrix, ChoiMatrix)):
        return rho.matrix
    return linalg.as_matrix(rho, square=True)


def witness_value(w: SNWitness, rho) -> float:
    """Tr(W rho); negative beyond tolerance certifies Schmidt number > r.

    Accepts a DensityMatrix, a ChoiMatrix, or a raw d^2 x d^2 array of
    unit trace. Evaluated in closed form as 1 - (d/r) <phi+|rho|phi+>,
    where d <phi+|rho|phi+> is the sum of the entries rho[ii, jj].
    """
    m = _square_array(rho)
    n = w.d * w.d
    if m.shape != (n, n):
        raise DimensionMismatchError(f"state shape {m.shape} != ({n}, {n})")
    diag = np.arange(w.d) * (w.d + 1)
    # At a dyadic root the bisection lands exactly on a zero of this value and
    # its rounding sign picks the reported threshold; this form and
    # channels._choi_array keep the golden reports bit-exact.
    val = 1.0 - m[np.ix_(diag, diag)].sum() / w.r
    if abs(val.imag) > 1e-10:
        raise NotHermitianError(f"witness value has imaginary part {val.imag:.3e}")
    return float(val.real)


class LambdaMap:
    """The positive-but-not-completely-positive map X -> Tr(X) I_d - k X."""

    def __init__(self, d: int, k: float):
        if d < 2:
            raise DimensionMismatchError("LambdaMap needs d >= 2")
        if not 0.0 < k <= 1.0:
            raise ValueError(f"k={k} outside (0, 1]")
        self.d = d
        self.k = k

    def __call__(self, x) -> np.ndarray:
        x = linalg.as_matrix(x, square=True)
        if x.shape[0] != self.d:
            raise DimensionMismatchError(f"operand dim {x.shape[0]} != {self.d}")
        return np.trace(x) * np.eye(self.d) - self.k * x

    def __repr__(self):
        return f"LambdaMap(d={self.d}, k={self.k})"


def r_positivity_window(r: int) -> tuple[float, float]:
    """Open-closed interval (1/(r+1), 1/r] on which Lambda_k is r-positive but (r+1)-negative."""
    if r < 1:
        raise InvalidRankError("r must be >= 1")
    return (1.0 / (r + 1), 1.0 / r)


def _id_lambda_matrix(m: np.ndarray, da: int, db: int, k: float) -> np.ndarray:
    r4 = m.reshape(da, db, da, db)
    block_traces = np.einsum("ibjb->ij", r4)
    out = -k * r4.copy()
    idx = np.arange(db)
    out[:, idx, :, idx] += block_traces
    return out.reshape(da * db, da * db)


def apply_id_lambda(rho: DensityMatrix, k: float) -> np.ndarray:
    """(id_A ⊗ Lambda_k)(rho) for a bipartite state; Hermitian output.

    Acts blockwise: every dB x dB block X of rho is replaced by
    Tr(X) I - k X.
    """
    if not rho.is_bipartite():
        raise DimensionMismatchError("apply_id_lambda needs a bipartite state")
    da, db = rho.dims
    return _id_lambda_matrix(rho.matrix, da, db, k)


class Verdict(enum.Enum):
    CERTIFIED_ABOVE = "certified_above"
    CONSISTENT_WITH_AT_MOST = "consistent_with_at_most"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CertificationResult:
    """One-sided certificate outcome for 'Schmidt number > r'."""

    verdict: Verdict
    r: int
    evidence_value: float
    tolerance: float

    def __post_init__(self):
        if self.verdict is Verdict.CERTIFIED_ABOVE and not (
            self.evidence_value < -self.tolerance
        ):
            raise ValueError("CERTIFIED_ABOVE requires evidence below -tolerance")


def certify_sn_above(rho: DensityMatrix, r: int,
                     tol: float = EVIDENCE_TOL) -> CertificationResult:
    """Combined witness + Lambda_{1/r} certificate for Schmidt number > r.

    The evidence value is the more negative of the witness value and the
    minimum eigenvalue of (id ⊗ Lambda_{1/r})(rho). A verdict of
    CONSISTENT_WITH_AT_MOST never proves Schmidt number <= r.
    """
    if not rho.is_bipartite() or rho.dims[0] != rho.dims[1]:
        raise DimensionMismatchError("certification needs a d x d bipartite state")
    d = rho.dims[0]
    if not 1 <= r < d:
        raise InvalidRankError(f"certification needs 1 <= r < d, got r={r}, d={d}")
    w_val = witness_value(witness(d, r), rho)
    lam_val = float(np.linalg.eigvalsh(apply_id_lambda(rho, 1.0 / r))[0])
    evidence = min(w_val, lam_val)
    verdict = Verdict.CERTIFIED_ABOVE if evidence < -tol else Verdict.CONSISTENT_WITH_AT_MOST
    return CertificationResult(verdict, r, evidence, tol)


def sn_upper_bound_via_kraus(ch: QuantumChannel) -> int:
    """Largest rank among the canonical (eigenvector) Kraus operators.

    Upper-bounds the Schmidt number of the channel's Choi state; the
    canonical decomposition need not be the rank-minimizing one, so the
    bound can be loose. Works for the (non-trace-preserving) adjoint of
    a channel as well.
    """
    if not ch.is_square:
        raise DimensionMismatchError("Kraus-rank bound needs a square channel")
    d = ch.d_in
    ops = _kraus_from_choi_matrix(_choi_array(ch), d, d)
    return max(linalg.matrix_rank(k) for k in ops)


def isotropic_sn_threshold(d: int, r: int) -> float:
    """Largest p for which the isotropic state on d x d has Schmidt number <= r."""
    if not 1 <= r <= d:
        raise InvalidRankError(f"threshold needs 1 <= r <= d, got r={r}, d={d}")
    return (r * d - 1.0) / (d * d - 1.0)


__all__ = [
    "SNWitness",
    "witness",
    "witness_value",
    "LambdaMap",
    "r_positivity_window",
    "apply_id_lambda",
    "Verdict",
    "CertificationResult",
    "certify_sn_above",
    "sn_upper_bound_via_kraus",
    "isotropic_sn_threshold",
]
