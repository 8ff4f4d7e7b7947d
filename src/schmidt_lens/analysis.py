"""Quantitative studies: witness sweeps, threshold bisection, the two-local
depolarizing construction, and channel-set relation reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .channels import (
    MAX_KRAUS_STACK_BYTES,  # noqa: F401  (re-exported with the budgets below)
    QuantumChannel,
    choi,
    dephasing,
    depolarizing,
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
# Lattice values within this of the minimum tie (eigensolver rounding is ~1e-16).
TIE_TOL = 1e-13
# Simplex lattices above this many points are refused before any is built.
MAX_LATTICE_POINTS = 10**6
# MAX_KRAUS_STACK_BYTES, imported from channels, whose basis cache it bounds,
# caps d: the named families refuse d whose d^2 x d x d Kraus stack exceeds it.
# Parameter grids (sweep points, snac p points) above this size are refused.
MAX_GRID_POINTS = 1001
# snac studies needing more eigensolver work than this are refused before any
# lattice is built. The dense kernel's work is p points x lattice points x
# max(d, 4)^6, the n^3 sum over the d^2 x d^2 certificate matrices
# diagonalized; below d = 4 per-point overhead, not the solve, sets the time,
# so such d count as 4. The phase-covariant kernel's work is p points x lattice
# points x d^2 against MAX_SNAC_REDUCED_WORK: a d x d solve and d^2 entries
# per point, 80-320 ns a unit for d <= 13 on 2 vCPUs (the most at d = 2).
MAX_SNAC_EIG_WORK = 2 * 10**9
MAX_SNAC_REDUCED_WORK = 4 * 10**7
# Byte budget of the stacked certificate matrices (d^2 x d^2 dense, d x d
# reduced) evaluated at once.
CHUNK_BYTES = 8 * 2**20
# Largest |entry| of Φ(|j><l|) outside the phase-covariant pattern (see
# phase_covariant_defect) for which the reduced two-local kernel is taken.
# Depolarizing reaches 2.4e-16 (d <= 13, 1001 values of p) and dephasing 0.
PHASE_COVARIANT_TOL = 1e-14

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
    families the parameter is the channel parameter in [0, 1]. A grid
    outside [2, MAX_GRID_POINTS] raises ValueError.
    """
    check_grid_size(grid)
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


def check_grid_size(points: int) -> int:
    """``points`` itself; ValueError outside [2, MAX_GRID_POINTS]."""
    if points < 2:
        raise ValueError("a parameter grid needs at least 2 points")
    if points > MAX_GRID_POINTS:
        raise ValueError(f"a parameter grid of {points} points exceeds the budget of "
                         f"{MAX_GRID_POINTS}")
    return points


def check_snac_size(d: int, p_grid: int, q_grid: int, reduced: bool = False) -> int:
    """Eigensolver work of a snac study; ValueError above any of its budgets.

    Checks the p grid, the simplex lattice and the work budget of the
    kernel the study takes, in that order, without building anything:
    MAX_SNAC_REDUCED_WORK when ``reduced`` (phase-covariant channels),
    else MAX_SNAC_EIG_WORK.
    """
    check_grid_size(p_grid)
    if q_grid < 2:
        raise ValueError("the q grid needs at least 2 subdivisions")
    points = p_grid * check_lattice_size(q_grid, d)
    if reduced:
        work, budget, model = points * d ** 2, MAX_SNAC_REDUCED_WORK, "d^2"
    else:
        work, budget, model = points * max(d, 4) ** 6, MAX_SNAC_EIG_WORK, "max(d, 4)^6"
    if work > budget:
        raise ValueError(f"a snac study of {work} eigensolver work units (p points x "
                         f"lattice points x {model}) exceeds the budget of "
                         f"{budget} (lower the grids or d)")
    return work


def check_lattice_size(n_subdiv: int, dims: int) -> int:
    """Number of simplex lattice points; ValueError above MAX_LATTICE_POINTS."""
    if n_subdiv < 1 or dims < 1:
        raise ValueError("lattice needs n_subdiv >= 1 and dims >= 1")
    size = math.comb(n_subdiv + dims - 1, dims - 1)
    if size > MAX_LATTICE_POINTS:
        raise ValueError(f"simplex lattice of {size} points exceeds the budget of "
                         f"{MAX_LATTICE_POINTS} (lower the q grid or d)")
    return size


def simplex_lattice(n_subdiv: int, dims: int) -> np.ndarray:
    """All integer compositions (n_0, ..., n_{dims-1}) with sum n_subdiv.

    One integer array of shape (points, dims), rows in lexicographic
    order; row (n_i) represents q_i = n_i / n_subdiv. Lattices above
    MAX_LATTICE_POINTS raise ValueError.
    """
    check_lattice_size(n_subdiv, dims)
    sums = np.arange(n_subdiv, -1, -1)
    # tail: the compositions of every s = n_subdiv, ..., 0 into m parts, in
    # blocks of descending s, each block lexicographic; m grows to dims - 1.
    tail = sums[:, None]
    for _ in range(dims - 2):
        total = tail.sum(axis=1)
        starts = np.searchsorted(-total, -sums)  # first row of each block
        tail = np.concatenate([np.column_stack((s - total[i:], tail[i:]))
                               for s, i in zip(sums.tolist(), starts.tolist())])
    if dims == 1:
        return tail[:1]
    return np.column_stack((n_subdiv - tail.sum(axis=1), tail))


def _as_simplex(q) -> np.ndarray:
    q = np.asarray(q, dtype=float).reshape(-1)
    if np.any(q < 0) or abs(q.sum() - 1.0) > 1e-12:
        raise ValueError("q must be a probability vector summing to 1 within 1e-12")
    return q


def schmidt_vector_state(q) -> PureState:
    """Pure state sum_j sqrt(q_j) |jj> with computational Schmidt vectors."""
    q = _as_simplex(q)
    amp = np.zeros(q.size * q.size, dtype=complex)
    amp[np.arange(q.size) * (q.size + 1)] = np.sqrt(q)
    return PureState(amp, (q.size, q.size))


def _unit_images(ch: QuantumChannel) -> np.ndarray:
    """Φ(|j><l|) for every matrix unit, indexed [j, l, o, p] (o, p the output).

    Entry sum_a K_a[o, j] conj(K_a[p, l]), as one matrix product over a.
    """
    d_out, d_in = ch.d_out, ch.d_in
    flat = ch._stack.reshape(len(ch), -1)
    return (flat.T @ flat.conj()).reshape(d_out, d_in, d_out, d_in).transpose(1, 3, 0, 2)


def _pair_tensor(phi: np.ndarray) -> np.ndarray:
    """Row jl holds Φ(|j><l|) ⊗ Φ(|j><l|), flattened: a (d_in^2, d_out^4) array.

    ``phi`` is ``_unit_images(ch)``.
    """
    d_in = phi.shape[0]
    return np.einsum("jlop,jlrs->jlorps", phi, phi).reshape(d_in * d_in, -1)


def _two_local_array(pair: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Unvalidated (Φ ⊗ Φ)|psi_q><psi_q| for each simplex point on q's last axis.

    By linearity, sum_jl sqrt(q_j q_l) Φ(|j><l|) ⊗ Φ(|j><l|), with those
    products the rows of ``pair`` (``_pair_tensor``).
    """
    amp = np.sqrt(q)
    weights = np.einsum("...j,...l->...jl", amp, amp).reshape(*q.shape[:-1], -1)
    n = math.isqrt(pair.shape[1])
    return (weights @ pair).reshape(*q.shape[:-1], n, n)


def _pattern_parts(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Split the unit images of a square channel into its phase-covariant parts.

    Returns the populations D[j, a] = Re Φ(|j><j|)[a, a], the coherences
    c[j, l] = Φ(|j><l|)[j, l] (j != l; 0 on the diagonal) and the defect:
    the largest |entry| of any Φ(|j><l|) outside those two patterns, or
    imaginary part of a population if larger.
    """
    d = phi.shape[0]
    idx = np.arange(d)
    populations = phi[idx[:, None], idx[:, None], idx, idx]
    coherences = phi[idx[:, None], idx, idx[:, None], idx]
    coherences[idx, idx] = 0.0
    rest = phi.copy()
    rest[idx[:, None], idx, idx[:, None], idx] = 0.0
    rest[idx[:, None], idx[:, None], idx, idx] = 0.0
    defect = max(np.max(np.abs(rest)), np.max(np.abs(populations.imag)))
    return populations.real, coherences, float(defect)


def phase_covariant_defect(ch: QuantumChannel) -> float:
    """Largest |entry| of any Φ(|j><l|) outside the phase-covariant pattern.

    A phase-covariant square channel maps |j><l| (j != l) to c_jl |j><l| and
    each |j><j| to a real diagonal matrix, so the defect is 0; both named
    families are such channels up to rounding. The imaginary parts of those
    diagonal entries, rounding only, count towards the defect too.
    ``snac_lattice_minimum`` takes its reduced kernel when the defect is at
    most PHASE_COVARIANT_TOL.
    """
    if not ch.is_square:
        raise DimensionMismatchError(f"need a square channel, got {ch!r}")
    return _pattern_parts(_unit_images(ch))[2]


def _reduced_min_eigs(populations: np.ndarray, squares: np.ndarray, q: np.ndarray,
                      k: float) -> np.ndarray:
    """Two-local certificate of a phase-covariant channel at each row of ``q``.

    ``squares`` holds c_ab^2 (0 on the diagonal). The certificate is the
    smaller of the minimum eigenvalue of the block on span{|aa>},
    M_ab = delta_ab (T_a - k X_aa) - k sqrt(q_a q_b) c_ab^2, and the
    diagonal entries T_a - k X_ab (a != b), where
    X_ab = sum_j q_j D_j[a] D_j[b] and T_a = sum_b X_ab.
    """
    d = q.shape[-1]
    idx = np.arange(d)
    outer = populations[:, :, None] * populations[:, None, :]
    x = (q @ outer.reshape(d, d * d)).reshape(-1, d, d)
    diagonal = x.sum(axis=2)[:, :, None] - k * x
    amp = np.sqrt(q)
    block = (-k * amp[:, :, None] * amp[:, None, :]) * squares
    block[:, idx, idx] = diagonal[:, idx, idx]
    diagonal[:, idx, idx] = np.inf
    return np.minimum(np.linalg.eigvalsh(block)[:, 0], diagonal.min(axis=(1, 2)))


def two_local_output(ch: QuantumChannel, q) -> DensityMatrix:
    """(Φ ⊗ Φ) applied to |psi><psi| with |psi> = sum_j sqrt(q_j) |jj>.

    Computational-basis Schmidt vectors suffice for the unitarily
    covariant families studied here; the covariance is asserted in the
    test suite rather than assumed silently.

    For a phase-covariant Φ (``phase_covariant_defect`` 0: Φ(|j><l|) =
    c_jl |j><l| for j != l, Φ(|j><j|) = diag(D_j)) the output is diagonal,
    X_ab = sum_j q_j D_j[a] D_j[b] at |ab>, except for the d x d block on
    span{|aa>} with off-diagonal entries sqrt(q_a q_b) c_ab^2. Its partial
    trace over B is diagonal, so (id ⊗ Lambda_k) keeps that pattern; this is
    the reduction ``snac_lattice_minimum`` uses. This function always builds
    the full d^2 x d^2 output.
    """
    q = _as_simplex(q)
    if not ch.is_square or ch.d_in != q.size:
        raise DimensionMismatchError(
            f"need a square channel of dimension {q.size}, got {ch!r}"
        )
    return DensityMatrix(_two_local_array(_pair_tensor(_unit_images(ch)), q),
                         (ch.d_out, ch.d_out))


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


def snac_min_eig(ch: QuantumChannel, q, k: float) -> float:
    """Minimum eigenvalue of (id ⊗ Lambda_k) applied to the two-local output."""
    if not 0.0 < k <= 1.0:
        raise ValueError(f"k={k} outside (0, 1]")
    out = two_local_output(ch, q)
    return float(np.linalg.eigvalsh(apply_id_lambda(out, k))[0])


def snac_lattice_minimum(ch: QuantumChannel, k: float, n_subdiv: int,
                         lattice: np.ndarray | None = None
                         ) -> tuple[tuple[Fraction, ...], float]:
    """Minimize the annihilation certificate over the simplex lattice.

    Returns, as exact fractions, the first lattice point in lexicographic
    order whose value is within TIE_TOL of the minimum, and that value.
    ``lattice`` is ``simplex_lattice(n_subdiv, d)`` when the caller has
    built it already.

    The kernel is decided once per channel. When every entry of every
    Φ(|j><l|) outside the phase-covariant pattern (see
    :func:`two_local_output`) is at most PHASE_COVARIANT_TOL = δ, each
    point costs one d x d eigensolve plus d^2 - d diagonal entries
    (:func:`_reduced_min_eigs`), formed from the O(d^4) entries of the
    Φ(|j><l|) only. Dropping the off-pattern entries moves each
    Φ(|j><l|) by at most dδ in operator norm, the two-local output by at
    most d^2 δ (2 + dδ) and, since ||id ⊗ Lambda_k|| <= d + k, its image
    by (d + 1) d^2 δ (2 + dδ). By Weyl's inequality that bounds the change
    of the minimum eigenvalue: 4.8e-11 at d = 13, far below EVIDENCE_TOL.
    Every other channel takes the dense kernel, a stacked d^2 x d^2
    eigensolve per point, whose d^6-entry pair tensor (``_pair_tensor``) is
    built once per call. Both kernels run in chunks of CHUNK_BYTES of
    certificate matrices.
    """
    if not 0.0 < k <= 1.0:
        raise ValueError(f"k={k} outside (0, 1]")
    if not ch.is_square:
        raise DimensionMismatchError(f"need a square channel, got {ch!r}")
    d = ch.d_in
    if lattice is None:
        lattice = simplex_lattice(n_subdiv, d)
    phi = _unit_images(ch)
    populations, coherences, defect = _pattern_parts(phi)
    if defect <= PHASE_COVARIANT_TOL:
        size = d
        squares = coherences * coherences

        def certificate(q):
            return _reduced_min_eigs(populations, squares, q, k)
    else:
        size = d * d
        pair = _pair_tensor(phi)

        def certificate(q):
            return np.linalg.eigvalsh(_id_lambda_matrix(_two_local_array(pair, q), d, d, k))[:, 0]

    rows = max(1, CHUNK_BYTES // (16 * size ** 2))
    vals = np.concatenate([certificate(lattice[i:i + rows] / n_subdiv)
                           for i in range(0, len(lattice), rows)])
    best = int(np.argmax(vals <= vals.min() + TIE_TOL))
    return tuple(Fraction(n, n_subdiv) for n in lattice[best].tolist()), float(vals[best])


def snac_sweep(d: int, k: float, p_grid: int, q_grid: int,
               channel_factory=None) -> list[SnacRecord]:
    """Lattice-minimized annihilation certificate over a parameter grid.

    For each p on a uniform grid in [0, 1], minimizes
    :func:`snac_min_eig` over the simplex lattice with ``q_grid``
    subdivisions and records the minimizing point and its value. The
    lattice is built once for the whole grid. ``channel_factory`` maps p
    to a channel; defaults to the d-dimensional depolarizing family. When
    it returns the same channel object for consecutive p (a fixed
    ``--channel-file`` channel), the minimum is computed once and reused.
    Studies over the grid, lattice or eigensolver-work budgets
    (``check_snac_size``) raise ValueError: the default family, which is
    phase-covariant, is held to the reduced kernel's work budget and any
    other factory to the dense one.
    """
    check_snac_size(d, p_grid, q_grid, reduced=channel_factory is None)
    if channel_factory is None:
        channel_factory = lambda p: depolarizing(d, p)
    params = np.linspace(0.0, 1.0, p_grid)
    lattice = simplex_lattice(q_grid, d)
    last: dict = {}  # the last channel and its minimum; held, so no new channel reuses its identity

    def record(p: float) -> SnacRecord:
        ch = channel_factory(float(p))
        if last.get("channel") is not ch:
            last["channel"] = ch
            last["minimum"] = snac_lattice_minimum(ch, k, q_grid, lattice=lattice)
        q_star, best_val = last["minimum"]
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
