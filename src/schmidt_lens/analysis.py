"""Quantitative studies: witness sweeps, threshold bisection, the two-local
depolarizing construction, and channel-set relation reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from . import linalg
from .channels import (
    MAX_KRAUS_STACK_BYTES,  # noqa: F401  (re-exported with the budgets below)
    QuantumChannel,
    _unit_images,
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
    channel_witness_value,
    isotropic_sn_threshold,
    witness,
    witness_value,
)
from .states import DensityMatrix, isotropic_state

BISECTION_TOL = 1e-9
# bisect_crossing takes |f| <= ROOT_REL_TOL * max(|f(lo)|, |f(hi)|) for a root
# (8 eps). At their closed-form roots the witness curves of both named families
# leave at most 3.4 eps of that scale (d <= 13, every r), the partial-transpose
# curve of eb_ppt_threshold 0.6 eps.
ROOT_REL_TOL = 8.0 * float(np.finfo(float).eps)
# Lattice values within this of the minimum tie (eigensolver rounding is ~1e-16).
TIE_TOL = 1e-13
# Simplex lattices above this many points are refused before any is built.
MAX_LATTICE_POINTS = 10**6
# MAX_KRAUS_STACK_BYTES, imported from channels, whose basis cache it bounds,
# caps d: the named families refuse d whose d^2 x d x d Kraus stack exceeds it.
# Parameter grids (sweep points, snac p points) above this size are refused.
MAX_GRID_POINTS = 1001
# snac studies needing more eigensolver work than this are refused before any
# lattice is built. Each lattice minimized is charged (one per p for the
# depolarizing family, one for a given channel): lattice points x max(d, 4)^6
# for the dense kernel, the n^3 sum over the d^2 x d^2 matrices diagonalized
# (below d = 4 per-point overhead, not the solve, sets the time), and lattice
# points x d^2 against MAX_SNAC_REDUCED_WORK for the phase-covariant one: a
# d x d solve and d^2 entries per point, 80-320 ns a unit for d <= 13 on 2 vCPUs.
MAX_SNAC_EIG_WORK = 2 * 10**9
MAX_SNAC_REDUCED_WORK = 4 * 10**7
# Byte budget of the stacked certificate matrices (d^2 x d^2 dense, d x d
# reduced) evaluated at once.
CHUNK_BYTES = 8 * 2**20
# Largest |entry| of Φ(|j><l|) outside the phase-covariant pattern (see
# phase_covariant_defect) for which the reduced two-local kernel is taken.
# Depolarizing reaches 2.4e-16 (d <= 13, 1001 values of p) and dephasing 0.
PHASE_COVARIANT_TOL = 1e-14


class Family(NamedTuple):
    """A named channel family: its channel at (d, p) and the closed form of
    its witness crossing at (d, r)."""

    channel: Callable[[int, float], QuantumChannel]
    crossing: Callable[[int, int], float]


# The builders look their functions up at each call, so a rebinding of the
# module names (perfbench/tracing.py wraps them in spans) takes effect.
FAMILIES = {
    "depolarizing": Family(lambda d, p: depolarizing(d, p), isotropic_sn_threshold),
    "dephasing": Family(lambda d, p: dephasing(d, p), lambda d, r: (r - 1.0) / (d - 1.0)),
}


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


def _witness_curve(family: str, d: int, r: int, channel: QuantumChannel | None = None):
    """p -> Tr(W C_Φ), the curve ``snbc_witness_sweep`` samples and
    ``snbc_witness_threshold`` bisects; constant for a given ``channel``."""
    w = witness(d, r)
    if channel is None:
        if family not in FAMILIES:
            raise UnknownFamilyError(f"unknown family {family!r}; "
                                     f"expected one of {tuple(FAMILIES)}")
        build = FAMILIES[family].channel
        return lambda p: channel_witness_value(w, build(d, p))
    choi(channel)  # validates the channel: square, CP and trace-preserving
    value = channel_witness_value(w, channel)
    return lambda p: value


def snbc_witness_sweep(family: str, d: int, r: int, grid: int,
                       channel: QuantumChannel | None = None,
                       tol: float = EVIDENCE_TOL) -> list[SweepRecord]:
    """Witness value on the family's Choi state over a uniform parameter grid.

    Each value is ``channel_witness_value``, read off the Kraus traces. For
    ``family="custom"`` the fixed ``channel`` is validated once by
    ``choi`` and evaluated once; for the named families the parameter is
    the channel parameter in [0, 1], and each point builds its channel
    with the trace-preservation check. A channel given without the custom
    family, or the custom family without one, raises UnknownFamilyError;
    a grid outside [2, MAX_GRID_POINTS] raises ValueError.
    """
    check_grid_size(grid)
    if (family == "custom") != (channel is not None):
        raise UnknownFamilyError("the custom family needs a channel, and only it takes one")
    curve = _witness_curve(family, d, r, channel)

    def record(p: float) -> SweepRecord:
        val = curve(float(p))
        verdict = Verdict.CERTIFIED_ABOVE if val < -tol else Verdict.CONSISTENT_WITH_AT_MOST
        return SweepRecord(float(p), val, verdict)

    return _ordered_map(record, np.linspace(0.0, 1.0, grid))


def bisect_crossing(f, lo: float, hi: float, tol: float = BISECTION_TOL) -> float:
    """Midpoint bisection of a sign change of ``f`` on [lo, hi].

    A value with |f| <= ROOT_REL_TOL * max(|f(lo)|, |f(hi)|) (the finite
    ones) is rounding noise around zero and counts as a root, at either
    endpoint and at every midpoint; that point is returned. Otherwise
    f(lo) and f(hi) must have opposite signs, NaN having none (else
    NoSignChangeError), and the bracket midpoint is returned once the
    bracket width is at most ``tol``, or once the bracket is two adjacent
    floats when ``tol`` is below float spacing.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")
    f_lo, f_hi = f(lo), f(hi)
    noise = ROOT_REL_TOL * max((abs(v) for v in (f_lo, f_hi) if math.isfinite(v)), default=0.0)
    if abs(f_lo) <= noise:
        return lo
    if abs(f_hi) <= noise:
        return hi
    if not (f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo):
        raise NoSignChangeError(f"f({lo})={f_lo} and f({hi})={f_hi} do not bracket a root")
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if mid <= lo or mid >= hi:
            break
        f_mid = f(mid)
        if abs(f_mid) <= noise:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def snbc_witness_threshold(family: str, d: int, r: int,
                           tol: float = BISECTION_TOL) -> float:
    """Parameter at which the family's witness value crosses zero.

    Bisects ``channel_witness_value`` of the named family's channel, built
    and checked for trace preservation at every step. The witness value is
    affine in the parameter for both families, so the crossing is the
    exact breaking threshold: (rd - 1)/(d^2 - 1) for depolarizing and
    (r - 1)/(d - 1) for dephasing, whose r = 1 root lies at the bracket
    edge p = 0.
    """
    return bisect_crossing(_witness_curve(family, d, r), 0.0, 1.0, tol)


def check_grid_size(points: int) -> int:
    """``points`` itself; ValueError outside [2, MAX_GRID_POINTS]."""
    if points < 2:
        raise ValueError("a parameter grid needs at least 2 points")
    if points > MAX_GRID_POINTS:
        raise ValueError(f"a parameter grid of {points} points exceeds the budget of "
                         f"{MAX_GRID_POINTS}")
    return points


def check_snac_size(d: int, p_grid: int, q_grid: int,
                    channel: QuantumChannel | None = None) -> int:
    """Eigensolver work of ``snac_sweep(d, k, p_grid, q_grid, channel)``.

    Checks the p grid, the simplex lattice and the work budget of the
    kernel the study takes, in that order, without building any lattice;
    ValueError above any of them. One lattice is charged per p for the
    depolarizing family, one in all for a given channel (square of
    dimension d, else DimensionMismatchError), against
    MAX_SNAC_REDUCED_WORK when it takes the reduced kernel of
    ``snac_lattice_minimum``, else against MAX_SNAC_EIG_WORK.
    """
    lattices, charged, lower, reduced = p_grid, "p points x lattice points", "the grids or d", True
    if channel is not None:
        _check_square(channel, d)
        lattices, charged, lower = 1, "lattice points", "the q grid"
        reduced = _reduced_parts(_unit_images(channel)) is not None
    check_grid_size(p_grid)
    if q_grid < 2:
        raise ValueError("the q grid needs at least 2 subdivisions")
    points = lattices * check_lattice_size(q_grid, d)
    if reduced:
        work, budget, model = points * d ** 2, MAX_SNAC_REDUCED_WORK, "d^2"
    else:
        work, budget, model = points * max(d, 4) ** 6, MAX_SNAC_EIG_WORK, "max(d, 4)^6"
    if work > budget:
        raise ValueError(f"a snac study of {work} eigensolver work units ({charged} x "
                         f"{model}) exceeds the budget of {budget} (lower {lower})")
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
    if not (np.all(q >= 0) and abs(q.sum() - 1.0) <= 1e-12):  # NaN fails both
        raise ValueError("q must be a probability vector summing to 1 within 1e-12")
    return q


def _check_square(ch: QuantumChannel, d: int) -> None:
    if not ch.is_square or ch.d_in != d:
        raise DimensionMismatchError(f"need a square channel of dimension {d}, got {ch!r}")


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


def _reduced_parts(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The reduced kernel's rule, for ``snac_lattice_minimum`` and its budget.

    Populations and squared coherences of a square channel's ``phi =
    _unit_images(ch)`` when its phase-covariant defect is at most
    PHASE_COVARIANT_TOL, else None.
    """
    populations, coherences, defect = _pattern_parts(phi)
    if defect > PHASE_COVARIANT_TOL:
        return None
    return populations, coherences * coherences


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
    the reduction ``snac_min_eig`` and ``snac_lattice_minimum`` use. This
    function always builds the full d^2 x d^2 output.
    """
    q = _as_simplex(q)
    _check_square(ch, q.size)
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


def _certificate(ch: QuantumChannel, k: float):
    """The two-local certificate of a square channel at each row of q.

    Returns the size of the matrices diagonalized per row and the function
    q -> min eig of (id ⊗ Lambda_k)((Φ ⊗ Φ)|psi_q><psi_q|), one value per
    row of a (points, d) array. The kernel is decided here, once per
    channel. When every entry of every Φ(|j><l|) outside the
    phase-covariant pattern (see :func:`two_local_output`) is at most
    PHASE_COVARIANT_TOL = δ, each row costs one d x d eigensolve plus
    d^2 - d diagonal entries (:func:`_reduced_min_eigs`), formed from the
    O(d^4) entries of the Φ(|j><l|) only. Dropping the off-pattern
    entries moves each Φ(|j><l|) by at most dδ in operator norm, the
    two-local output by at most d^2 δ (2 + dδ) and, since
    ||id ⊗ Lambda_k|| <= d + k, its image by (d + 1) d^2 δ (2 + dδ). By
    Weyl's inequality that bounds the change of the minimum eigenvalue:
    4.8e-11 at d = 13, far below EVIDENCE_TOL. Every other channel takes
    the dense kernel, a stacked d^2 x d^2 eigensolve per row, whose
    d^6-entry pair tensor (``_pair_tensor``) is built once here.
    """
    if not 0.0 < k <= 1.0:
        raise ValueError(f"k={k} outside (0, 1]")
    d = ch.d_in
    phi = _unit_images(ch)
    parts = _reduced_parts(phi)
    if parts is not None:
        populations, squares = parts
        return d, lambda q: _reduced_min_eigs(populations, squares, q, k)
    pair = _pair_tensor(phi)
    return d * d, lambda q: np.linalg.eigvalsh(
        _id_lambda_matrix(_two_local_array(pair, q), d, d, k))[:, 0]


def snac_min_eig(ch: QuantumChannel, q, k: float) -> float:
    """The certificate ``snac_lattice_minimum`` minimizes, at one q.

    Minimum eigenvalue of (id ⊗ Lambda_k)((Φ ⊗ Φ)|psi_q><psi_q|), where
    |psi_q> = sum_j sqrt(q_j) |jj> and Φ is square of dimension len(q).
    """
    q = _as_simplex(q)
    _check_square(ch, q.size)
    return float(_certificate(ch, k)[1](q[None])[0])


def snac_lattice_minimum(ch: QuantumChannel, k: float, n_subdiv: int,
                         lattice: np.ndarray | None = None
                         ) -> tuple[tuple[Fraction, ...], float]:
    """Minimize the annihilation certificate over the simplex lattice.

    Returns, as exact fractions, the first lattice point in lexicographic
    order whose value is within TIE_TOL of the minimum, and that value.
    ``lattice`` is ``simplex_lattice(n_subdiv, d)`` when the caller has
    built it already. The certificate (:func:`snac_min_eig`) runs on the
    channel's kernel (:func:`_certificate`) in chunks of CHUNK_BYTES.
    """
    if not ch.is_square:
        raise DimensionMismatchError(f"need a square channel, got {ch!r}")
    if lattice is None:
        lattice = simplex_lattice(n_subdiv, ch.d_in)
    size, certificate = _certificate(ch, k)
    rows = max(1, CHUNK_BYTES // (16 * size ** 2))
    vals = np.concatenate([certificate(lattice[i:i + rows] / n_subdiv)
                           for i in range(0, len(lattice), rows)])
    best = int(np.argmax(vals <= vals.min() + TIE_TOL))
    return tuple(Fraction(n, n_subdiv) for n in lattice[best].tolist()), float(vals[best])


def snac_sweep(d: int, k: float, p_grid: int, q_grid: int,
               channel: QuantumChannel | None = None) -> list[SnacRecord]:
    """Lattice-minimized annihilation certificate over a parameter grid.

    For each p on a uniform grid in [0, 1], records the minimum of
    :func:`snac_min_eig` over the simplex lattice with ``q_grid``
    subdivisions (``snac_lattice_minimum``) and the minimizing point. The
    lattice is built once for the whole grid. With no ``channel`` the
    d-dimensional depolarizing family is minimized at every p; a given
    channel, square of dimension d, is minimized once and its minimum
    recorded at every p. Studies over the grid, lattice or
    eigensolver-work budgets (``check_snac_size``) raise ValueError.
    """
    check_snac_size(d, p_grid, q_grid, channel)
    params = np.linspace(0.0, 1.0, p_grid)
    lattice = simplex_lattice(q_grid, d)
    fixed = None if channel is None else snac_lattice_minimum(channel, k, q_grid, lattice=lattice)

    def record(p: float) -> SnacRecord:
        q_star, best_val = fixed or snac_lattice_minimum(
            depolarizing(d, float(p)), k, q_grid, lattice=lattice)
        return SnacRecord(float(p), best_val, q_star)

    return _ordered_map(record, params)


def _pt_min_eig(d: int, p: float) -> float:
    """Minimum eigenvalue of the partial transpose of isotropic(d, p)."""
    pt = linalg.partial_transpose(isotropic_state(d, p).matrix, (d, d), which=1)
    return float(np.linalg.eigvalsh(pt)[0])


def eb_ppt_threshold(d: int, tol: float = BISECTION_TOL) -> float:
    """Isotropic parameter at which the partial transpose stops being PSD.

    Bisected crossing of the minimum eigenvalue of PT(isotropic(d, p));
    lands at 1/(d+1).
    """
    if d < 2:
        raise ValueError("needs d >= 2")
    return bisect_crossing(lambda p: _pt_min_eig(d, p), 0.0, 1.0, tol)


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
        pt_min = _pt_min_eig(d, mid)
        w_val = witness_value(witness(d, r), isotropic_state(d, mid))
    else:
        gap, mid, pt_min, w_val = None, None, None, None
    return RelationReport(d, r, eb, eb_exact, snbc, snbc_exact, gap, mid, pt_min, w_val)
