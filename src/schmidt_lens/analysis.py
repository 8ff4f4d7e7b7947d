"""Quantitative studies: witness sweeps, threshold bisection, the two-local
depolarizing construction, and channel-set relation reports.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .channels import (
    QuantumChannel,
    apply,
    apply_matrix,
    choi,
    dephasing,
    depolarizing,
    tensor,
)
from .errors import (
    DimensionMismatchError,
    InvalidRankError,
    NoSignChangeError,
    UnknownFamilyError,
)
from .schmidt import (
    EVIDENCE_TOL,
    Verdict,
    _id_lambda_matrix,
    apply_id_lambda,
    isotropic_sn_threshold,
    witness,
    witness_value,
)
from .states import DensityMatrix, PureState, isotropic_state

BISECTION_TOL = 1e-9

FAMILIES = ("depolarizing", "dephasing", "custom")


@dataclass(frozen=True)
class SweepRecord:
    """One grid point of a witness sweep."""

    parameter: float
    value: float
    verdict: Verdict


@dataclass(frozen=True)
class SnacRecord:
    """One grid point of the two-local annihilation sweep.

    ``q_star`` holds the minimizing simplex point as exact lattice
    fractions; ``value`` is the minimum eigenvalue there.
    """

    parameter: float
    value: float
    q_star: tuple[Fraction, ...]


def _ordered_map(fn, items):
    # Kept as a named seam: perfbench/tracing.py wraps it for the sweep spans.
    return [fn(x) for x in items]


def _family_channel(family: str, d: int, parameter: float,
                    channel: QuantumChannel | None) -> QuantumChannel:
    if family == "depolarizing":
        return depolarizing(d, parameter)
    if family == "dephasing":
        return dephasing(d, parameter)
    if family == "custom":
        if channel is None:
            raise UnknownFamilyError("custom family needs an explicit channel")
        return channel
    raise UnknownFamilyError(f"unknown family {family!r}; expected one of {FAMILIES}")


def snbc_witness_sweep(family: str, d: int, r: int, grid: int,
                       channel: QuantumChannel | None = None,
                       tol: float = EVIDENCE_TOL) -> list[SweepRecord]:
    """Witness value on the family's Choi state over a uniform parameter grid.

    For ``family="custom"`` the fixed ``channel`` is evaluated at every
    grid point (the witness value is then constant); for the named
    families the parameter is the channel parameter in [0, 1].
    """
    if grid < 2:
        raise ValueError("grid must have at least 2 points")
    w = witness(d, r)
    params = np.linspace(0.0, 1.0, grid)

    def record(p: float) -> SweepRecord:
        ch = _family_channel(family, d, float(p), channel)
        val = witness_value(w, choi(ch))
        verdict = Verdict.CERTIFIED_ABOVE if val < -tol else Verdict.CONSISTENT_WITH_AT_MOST
        return SweepRecord(float(p), val, verdict)

    return _ordered_map(record, params)


def bisect_crossing(f, lo: float, hi: float, tol: float = BISECTION_TOL) -> float:
    """Midpoint bisection of a sign change of ``f`` on [lo, hi].

    Requires f(lo) and f(hi) to have opposite signs; returns the bracket
    midpoint once the bracket width is at most ``tol``, or once the
    bracket is two adjacent floats when ``tol`` is below float spacing.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
    f_lo, f_hi = f(lo), f(hi)
    if f_lo * f_hi >= 0:
        raise NoSignChangeError(f"f({lo})={f_lo} and f({hi})={f_hi} do not bracket a root")
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if mid <= lo or mid >= hi:
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return (lo + hi) / 2.0


def snbc_witness_threshold(family: str, d: int, r: int,
                           tol: float = BISECTION_TOL) -> float:
    """Parameter at which the family's witness value crosses zero.

    The witness value is affine in the parameter for both named
    families, so the bisected crossing is the exact breaking threshold.
    """
    w = witness(d, r)

    def curve(p: float) -> float:
        return witness_value(w, choi(_family_channel(family, d, p, None)))

    return bisect_crossing(curve, 0.0, 1.0, tol)


def simplex_lattice(n_subdiv: int, dims: int) -> list[tuple[int, ...]]:
    """All integer compositions (n_0, ..., n_{dims-1}) with sum n_subdiv.

    Lexicographic order; point (n_i) represents q_i = n_i / n_subdiv.
    """
    if n_subdiv < 1 or dims < 1:
        raise ValueError("lattice needs n_subdiv >= 1 and dims >= 1")
    pts = []
    for cuts in itertools.combinations(range(n_subdiv + dims - 1), dims - 1):
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(n_subdiv + dims - 2 - prev)
        pts.append(tuple(parts))
    return pts


def _as_simplex(q) -> np.ndarray:
    q = np.asarray(q, dtype=float).reshape(-1)
    if np.any(q < 0) or abs(q.sum() - 1.0) > 1e-12:
        raise ValueError("q must be a probability vector summing to 1 within 1e-12")
    return q


def _schmidt_amplitudes(q: np.ndarray) -> np.ndarray:
    d = q.size
    amp = np.zeros(d * d, dtype=complex)
    amp[np.arange(d) * (d + 1)] = np.sqrt(q)
    return amp


def schmidt_vector_state(q) -> PureState:
    """Pure state sum_j sqrt(q_j) |jj> with computational Schmidt vectors."""
    q = _as_simplex(q)
    return PureState(_schmidt_amplitudes(q), (q.size, q.size))


def two_local_output(ch: QuantumChannel, q) -> DensityMatrix:
    """(Φ ⊗ Φ) applied to |psi><psi| with |psi> = sum_j sqrt(q_j) |jj>.

    Computational-basis Schmidt vectors suffice for the unitarily
    covariant families studied here; the covariance is asserted in the
    test suite rather than assumed silently.
    """
    q = _as_simplex(q)
    if not ch.is_square or ch.d_in != q.size:
        raise DimensionMismatchError(
            f"need a square channel of dimension {q.size}, got {ch!r}"
        )
    out = apply(tensor(ch, ch), schmidt_vector_state(q).density())
    return DensityMatrix(out.matrix, (ch.d_out, ch.d_out))


def two_local_depolarizing_matrix(p: float, q) -> np.ndarray:
    """Closed-form 9x9 output of the two-local qutrit depolarizing channel.

    Entrywise builder: writing t = (1-p)^2/9 and
    s_{ja} = p(1-p)(q_j + q_a)/3, the output has (jj, ll) entries
    p^2 sqrt(q_j q_l) for j != l, diagonal (p^2 + 2p) q_j / 3 + t at the
    |jj> slots and s_{ja} + t at the remaining |ja> slots. Serves as an
    independent oracle for :func:`two_local_output`.
    """
    q = _as_simplex(q)
    if q.size != 3:
        raise DimensionMismatchError("closed form is for the qutrit case (len(q) == 3)")
    t = (1.0 - p) ** 2 / 9.0
    out = np.zeros((9, 9), dtype=complex)
    for j in range(3):
        for a in range(3):
            idx = 3 * j + a
            if j == a:
                out[idx, idx] = (p * p + 2.0 * p) * q[j] / 3.0 + t
            else:
                out[idx, idx] = p * (1.0 - p) * (q[j] + q[a]) / 3.0 + t
    for j in range(3):
        for l in range(3):
            if j != l:
                out[3 * j + j, 3 * l + l] = p * p * np.sqrt(q[j] * q[l])
    return out


def _pair_min_eig(pair: QuantumChannel, q: np.ndarray, k: float) -> float:
    """snac_min_eig on the precomputed pair channel, for a valid simplex point q."""
    amp = _schmidt_amplitudes(q)
    out = apply_matrix(pair, np.outer(amp, amp.conj()))
    return float(np.linalg.eigvalsh(_id_lambda_matrix(out, q.size, q.size, k))[0])


def snac_min_eig(ch: QuantumChannel, q, k: float) -> float:
    """Minimum eigenvalue of (id ⊗ Lambda_k) applied to the two-local output."""
    if not 0.0 < k <= 1.0:
        raise ValueError(f"k={k} outside (0, 1]")
    out = two_local_output(ch, q)
    return float(np.linalg.eigvalsh(apply_id_lambda(out, k))[0])


def snac_lattice_minimum(ch: QuantumChannel, k: float,
                         n_subdiv: int) -> tuple[tuple[Fraction, ...], float]:
    """Minimize the annihilation certificate over the simplex lattice.

    Returns the minimizing q (exact lattice fractions; first point in
    lexicographic order on exact ties) and the minimum eigenvalue there.
    """
    if not 0.0 < k <= 1.0:
        raise ValueError(f"k={k} outside (0, 1]")
    pair = tensor(ch, ch)
    lattice = simplex_lattice(n_subdiv, ch.d_in)
    best_val, best_pt = np.inf, lattice[0]
    for pt in lattice:
        val = _pair_min_eig(pair, np.asarray(pt) / n_subdiv, k)
        if val < best_val:
            best_val, best_pt = val, pt
    return tuple(Fraction(n, n_subdiv) for n in best_pt), best_val


def snac_sweep(d: int, k: float, p_grid: int, q_grid: int,
               channel_factory=None) -> list[SnacRecord]:
    """Lattice-minimized annihilation certificate over a parameter grid.

    For each p on a uniform grid in [0, 1], minimizes
    :func:`snac_min_eig` over the simplex lattice with ``q_grid``
    subdivisions and records the minimizing point and its value.
    ``channel_factory`` maps p to a channel; defaults to the
    d-dimensional depolarizing family.
    """
    if p_grid < 2 or q_grid < 2:
        raise ValueError("grids must have at least 2 points")
    if channel_factory is None:
        channel_factory = lambda p: depolarizing(d, p)
    params = np.linspace(0.0, 1.0, p_grid)

    def record(p: float) -> SnacRecord:
        q_star, best_val = snac_lattice_minimum(channel_factory(float(p)), k, q_grid)
        return SnacRecord(float(p), best_val, q_star)

    return _ordered_map(record, params)


def eb_ppt_threshold(d: int, tol: float = BISECTION_TOL) -> float:
    """Isotropic parameter at which the partial transpose stops being PSD.

    Bisected crossing of the minimum eigenvalue of PT(isotropic(d, p));
    lands at 1/(d+1).
    """
    if d < 2:
        raise ValueError("needs d >= 2")

    def curve(p: float) -> float:
        pt = linalg.partial_transpose(isotropic_state(d, p).matrix, (d, d), which=1)
        return float(np.linalg.eigvalsh(pt)[0])

    return bisect_crossing(curve, 0.0, 1.0, tol)


@dataclass(frozen=True)
class RelationReport:
    """Entanglement-breaking vs Schmidt-number-breaking intervals for one (d, r)."""

    d: int
    r: int
    eb_threshold: float
    eb_analytic: float
    snbc_threshold: float
    snbc_analytic: float
    gap: tuple[float, float] | None
    midpoint: float | None
    pt_min_eig_at_midpoint: float | None
    witness_value_at_midpoint: float | None

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "r": self.r,
            "eb_threshold": self.eb_threshold,
            "eb_analytic": self.eb_analytic,
            "snbc_threshold": self.snbc_threshold,
            "snbc_analytic": self.snbc_analytic,
            "gap": list(self.gap) if self.gap else None,
            "midpoint": self.midpoint,
            "pt_min_eig_at_midpoint": self.pt_min_eig_at_midpoint,
            "witness_value_at_midpoint": self.witness_value_at_midpoint,
        }


def relation_report(d: int, r: int, tol: float = BISECTION_TOL) -> RelationReport:
    """Compare the EB and breaking thresholds of the depolarizing family.

    When the gap (1/(d+1), (rd-1)/(d^2-1)] is non-empty, both
    certificates are evaluated at its midpoint: the partial transpose
    must already be negative there while the witness is still
    nonnegative, exhibiting a channel that breaks Schmidt number r
    without breaking entanglement.
    """
    if not 1 <= r < d:
        raise InvalidRankError(f"relation report needs 1 <= r < d, got r={r}, d={d}")
    eb = eb_ppt_threshold(d, tol)
    snbc = snbc_witness_threshold("depolarizing", d, r, tol)
    eb_exact = 1.0 / (d + 1)
    snbc_exact = isotropic_sn_threshold(d, r)
    if snbc_exact > eb_exact + tol:
        gap = (eb, snbc)
        mid = (eb + snbc) / 2.0
        pt = linalg.partial_transpose(isotropic_state(d, mid).matrix, (d, d), which=1)
        pt_min = float(np.linalg.eigvalsh(pt)[0])
        w_val = witness_value(witness(d, r), isotropic_state(d, mid))
    else:
        gap, mid, pt_min, w_val = None, None, None, None
    return RelationReport(d, r, eb, eb_exact, snbc, snbc_exact, gap, mid, pt_min, w_val)
