"""Quantitative studies: witness sweeps, threshold bisection, the two-local
depolarizing construction, and channel-set relation reports.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .channels import (
    MAX_KRAUS_STACK_BYTES,  # noqa: F401  (re-exported with the budgets below)
    QuantumChannel,
    _KRAUS_FAMILIES,
    _check_tp,
    _family_kraus_traces,
    _family_point,
    _unit_images,
    depolarizing,
)
from .errors import (
    BudgetError,
    DimensionMismatchError,
    InvalidRankError,
    NoSignChangeError,
    UnknownFamilyError,
)
from .schmidt import (
    EVIDENCE_TOL,
    Verdict,
    _id_lambda_matrix,
    _witness_from_traces,
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
# A reduced-kernel row whose Gershgorin lower bound, less this margin, lies
# more than TIE_TOL above the least upper bound of its call cannot be chosen,
# and its eigensolve is skipped (_reduced_min_eigs). The margin covers the
# rounding of eigvalsh and of the bounds, about 1e-15 for d <= 16.
PRUNE_TOL = 1e-12
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
# Byte budget of the per-parameter arrays a named family's study stacks over
# its grid at once: the Kraus-trace products and Gram checks of a witness
# sweep's chunk, or the Kraus stacks and unit images of a snac study's p-chunk
# (_family_parts). A parameter's work is small, so a few a chunk take most of
# the gain (d=9 sweep: 7 points), and a study's peak memory stays that of one
# parameter (at 2**19 the witness-thresholds workload peaked 0.34 MB higher).
GRID_CHUNK_BYTES = 2**17
# Byte budget of one stacked reduced-kernel call of a depolarizing-family snac
# study (_family_minima), 24 d^2 + 8 d + 24 bytes a row: the complex blocks
# solved and their real weights (X before them), the block diagonals, and the
# off-block entries, bounds and solved indices. The benchmark's qutrit study
# (21 p x 91 rows) is one call, and peak memory stays that of one p at a time
# (at CHUNK_BYTES, --d 2 --p-grid 1001 --q-grid 9989 peaked 20 MB higher).
FAMILY_SOLVE_BYTES = 2**19
# Largest |entry| of Φ(|j><l|) outside the phase-covariant pattern (see
# phase_covariant_defect) for which the reduced two-local kernel is taken.
# Depolarizing reaches 2.4e-16 (d <= 13, 1001 values of p) and dephasing 0.
PHASE_COVARIANT_TOL = 1e-14
# Largest deviation from permutation covariance of what the two-local kernel
# reads (see _certificate) for which a study evaluates one lattice row per
# permutation orbit. Depolarizing reaches 1.0e-15 in the unit-image form
# (permutation_covariant_defect) and 1.6e-15 in the reduced kernel's (d <= 13,
# 1001 values of p), dephasing 0.
PERMUTATION_COVARIANT_TOL = 1e-14


# Each named family's closed-form witness crossing at (d, r). Its weights and
# Kraus basis live under the same key in channels._KRAUS_FAMILIES, where the
# witness curves read its Kraus traces (_family_kraus_traces) and build no
# channel.
FAMILIES = {
    "depolarizing": isotropic_sn_threshold,
    "dephasing": lambda d, r: (r - 1.0) / (d - 1.0),
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
    ``snbc_witness_threshold`` bisects; constant for a given ``channel``.

    For a named family each point reads the Kraus traces off the family's
    cached basis (``_family_kraus_traces``, with its TP check from the Gram
    diagonals) and builds no channel; the values equal
    ``channel_witness_value`` of the family's channel bit for bit. Its curve
    also takes an array of p, whose traces it reads in one stacked call,
    and returns a list of values, each summed by its own ``np.vdot``.
    """
    w = witness(d, r)
    if channel is None:
        if family not in FAMILIES:
            raise UnknownFamilyError(f"unknown family {family!r}; "
                                     f"expected one of {tuple(FAMILIES)}")

        def curve(p):
            traces = _family_kraus_traces(family, d, p)
            if traces.ndim == 1:
                return _witness_from_traces(w, traces)
            return [_witness_from_traces(w, row) for row in traces]

        return curve
    _check_square(channel, d)
    value = channel_witness_value(w, channel)
    return lambda p: value


def snbc_witness_sweep(family: str, d: int, r: int, grid: int,
                       channel: QuantumChannel | None = None) -> list[SweepRecord]:
    """Witness value on the family's Choi state over a uniform parameter grid.

    Each value is read off the Kraus traces, as ``channel_witness_value``
    reads it. For ``family="custom"`` the fixed ``channel`` is checked once
    (as by ``snac_sweep``) and evaluated once; for the named families the
    parameter is the channel parameter in [0, 1], and the grid takes its
    traces off the family's cached Kraus basis in stacked calls of at most
    GRID_CHUNK_BYTES of products each, after checking trace preservation
    from its Gram diagonals, with no channel built. A channel given without
    the custom family, or the custom family without one, raises
    UnknownFamilyError; a grid outside [2, MAX_GRID_POINTS] raises
    BudgetError.
    """
    check_grid_size(grid)
    if (family == "custom") != (channel is not None):
        raise UnknownFamilyError("the custom family needs a channel, and only it takes one")
    params = np.linspace(0.0, 1.0, grid)
    curve = _witness_curve(family, d, r, channel)
    if channel is None:
        # the traces and the Gram check of n Kraus operators take 24 n d bytes a p
        n = len(_KRAUS_FAMILIES[family][1](d).stack)
        per = max(1, GRID_CHUNK_BYTES // (24 * n * d))
        values = [v for i in range(0, grid, per) for v in curve(params[i:i + per])]
    else:
        values = [curve(0.0)] * grid

    def record(point) -> SweepRecord:
        p, val = point
        verdict = (Verdict.CERTIFIED_ABOVE if val < -EVIDENCE_TOL
                   else Verdict.CONSISTENT_WITH_AT_MOST)
        return SweepRecord(float(p), val, verdict)

    return _ordered_map(record, zip(params, values))


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

    Bisects the witness value of the named family's channel, read at every
    step off the family's cached Kraus basis after the trace-preservation
    check from its Gram diagonals (no channel is built), and equal bit for
    bit to ``channel_witness_value`` of ``depolarizing``/``dephasing``. The
    witness value is affine in the parameter for both families, so the
    crossing is the exact breaking threshold: (rd - 1)/(d^2 - 1) for
    depolarizing and (r - 1)/(d - 1) for dephasing, whose r = 1 root lies
    at the bracket edge p = 0.

    The witness proves only that the channel is not r-breaking below the
    crossing. At the crossing the channel is r-breaking, which makes the
    threshold tight: the dephasing Choi state there is the uniform average,
    over the r-subsets S of the basis, of the maximally entangled states on
    span{|ii> : i in S} (Schmidt rank r), and the depolarizing one is the
    U ⊗ Ū twirl of that average, a mixture of local unitary images, so its
    Schmidt number is at most r too (``TestThresholdsAreTight`` in
    ``tests/test_analysis.py``, d <= 6).
    """
    return bisect_crossing(_witness_curve(family, d, r), 0.0, 1.0, tol)


def check_grid_size(points: int) -> int:
    """``points`` itself; BudgetError outside [2, MAX_GRID_POINTS]."""
    if points < 2:
        raise BudgetError("a parameter grid needs at least 2 points")
    if points > MAX_GRID_POINTS:
        raise BudgetError(f"a parameter grid of {points} points exceeds the budget of "
                          f"{MAX_GRID_POINTS}")
    return points


def check_snac_size(d: int, p_grid: int, q_grid: int,
                    channel: QuantumChannel | None = None) -> int:
    """Eigensolver work of ``snac_sweep(d, k, p_grid, q_grid, channel)``.

    Checks the p grid, the simplex lattice and the work budget of the
    kernel the study takes, in that order, without building any lattice;
    BudgetError below a minimum size or above any budget. One lattice is
    charged per p for the depolarizing family, one in all for a given
    channel (checked by ``_check_square``), against
    MAX_SNAC_REDUCED_WORK when it takes the reduced kernel of
    ``snac_lattice_minimum``, else against MAX_SNAC_EIG_WORK.
    """
    lattices, charged, lower, reduced = p_grid, "p points x lattice points", "the grids or d", True
    if channel is not None:
        _check_square(channel, d)
        lattices, charged, lower = 1, "lattice points", "the q grid"
        reduced = _kernel_form(channel)[1] is not None
    check_grid_size(p_grid)
    if q_grid < 2:
        raise BudgetError("the q grid needs at least 2 subdivisions")
    points = lattices * check_lattice_size(q_grid, d)
    if reduced:
        work, budget, model = points * d ** 2, MAX_SNAC_REDUCED_WORK, "d^2"
    else:
        work, budget, model = points * max(d, 4) ** 6, MAX_SNAC_EIG_WORK, "max(d, 4)^6"
    if work > budget:
        raise BudgetError(f"a snac study of {work} eigensolver work units ({charged} x "
                          f"{model}) exceeds the budget of {budget} (lower {lower})")
    return work


def check_lattice_size(n_subdiv: int, dims: int) -> int:
    """Number of simplex lattice points; BudgetError below 1 or above MAX_LATTICE_POINTS."""
    if n_subdiv < 1 or dims < 1:
        raise BudgetError("lattice needs n_subdiv >= 1 and dims >= 1")
    size = math.comb(n_subdiv + dims - 1, dims - 1)
    if size > MAX_LATTICE_POINTS:
        raise BudgetError(f"simplex lattice of {size} points exceeds the budget of "
                          f"{MAX_LATTICE_POINTS} (lower the q grid or d)")
    return size


def simplex_lattice(n_subdiv: int, dims: int) -> np.ndarray:
    """All integer compositions (n_0, ..., n_{dims-1}) with sum n_subdiv.

    One integer array of shape (points, dims), rows in lexicographic
    order; row (n_i) represents q_i = n_i / n_subdiv. Lattices above
    MAX_LATTICE_POINTS raise BudgetError.
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
    """A study's given channel: square of dimension d (DimensionMismatchError)
    and trace-preserving by the rule of ``QuantumChannel`` (``_check_tp``)."""
    if not ch.is_square or ch.d_in != d:
        raise DimensionMismatchError(f"need a square channel of dimension {d}, got {ch!r}")
    _check_tp(ch)


def _pair_tensor(phi: np.ndarray) -> np.ndarray:
    """Row jl holds Φ(|j><l|) ⊗ Φ(|j><l|), flattened: a (d_in^2, d_out^4) array.

    ``phi`` is ``_unit_images(ch)``. The einsum writes into a C-ordered
    array so that the reshape is a view, not a second copy of the d^6
    tensor: the einsum's own result is not C-contiguous.
    """
    d_in, _, d_out, _ = phi.shape
    pair = np.empty((d_in, d_in) + (d_out,) * 4, dtype=phi.dtype)
    np.einsum("jlop,jlrs->jlorps", phi, phi, out=pair)
    return pair.reshape(d_in * d_in, -1)


def _two_local_array(pair: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Unvalidated (Φ ⊗ Φ)|psi_q><psi_q| for each simplex point on q's last axis.

    By linearity, sum_jl sqrt(q_j q_l) Φ(|j><l|) ⊗ Φ(|j><l|), with those
    products the rows of ``pair`` (``_pair_tensor``).
    """
    amp = np.sqrt(q)
    weights = np.einsum("...j,...l->...jl", amp, amp).reshape(*q.shape[:-1], -1)
    n = math.isqrt(pair.shape[1])
    return (weights @ pair).reshape(*q.shape[:-1], n, n)


@functools.lru_cache(maxsize=16)
def _pattern_index(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices into the d^4 unit-image entries Φ(|j><l|)[o, p], C order
    [j, l, o, p]: the populations (j, j, a, a) and the coherences (j, l, j, l),
    each a d x d array, and every entry in neither pattern."""
    flat = np.arange(d**4).reshape((d,) * 4)
    idx = np.arange(d)
    populations = flat[idx[:, None], idx[:, None], idx, idx]
    coherences = flat[idx[:, None], idx, idx[:, None], idx]
    pattern = np.zeros(d**4, dtype=bool)
    pattern[populations] = pattern[coherences] = True
    return populations, coherences, np.flatnonzero(~pattern)


def _pattern_parts(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split the unit images of a square channel into its phase-covariant parts.

    ``phi`` is indexed [..., j, l, o, p], one channel per leading index.
    Returns the populations D[j, a] = Re Φ(|j><j|)[a, a], the coherences
    c[j, l] = Φ(|j><l|)[j, l] (j != l; 0 on the diagonal) and the defect:
    the largest |entry| of any Φ(|j><l|) outside those two patterns, or
    imaginary part of a population if larger. Each part is gathered through
    the fixed indices of ``_pattern_index``.
    """
    d = phi.shape[-1]
    entries = phi.reshape(*phi.shape[:-4], d**4)
    populations, coherences, off = (entries.take(at, axis=-1)  # C-ordered, unlike [..., at]
                                    for at in _pattern_index(d))
    idx = np.arange(d)
    coherences[..., idx, idx] = 0.0
    defect = np.maximum(np.abs(off).max(axis=-1, initial=0.0),
                        np.abs(populations.imag).max(axis=(-2, -1)))
    return populations.real, coherences, defect


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
    return float(_pattern_parts(_unit_images(ch))[2])


def _transposition_defect(phi: np.ndarray) -> float:
    """Largest |entry| of Φ(P|j><l|Pᵀ) - PΦ(|j><l|)Pᵀ over the d - 1 adjacent
    transpositions P, which generate the symmetric group; ``phi`` is
    ``_unit_images`` of a square channel."""
    d = phi.shape[0]
    defect = 0.0
    for t in range(d - 1):
        perm = np.arange(d)
        perm[[t, t + 1]] = t + 1, t
        moved = phi[np.ix_(perm, perm, perm, perm)]
        defect = max(defect, float(np.max(np.abs(moved - phi))))
    return defect


def _spread(m: np.ndarray) -> np.ndarray:
    """Largest distance of each d x d matrix, stacked on the leading axes,
    from the form alpha I + beta J: of each diagonal entry from its
    matrix's [0, 0], of each off-diagonal one from its [0, -1]."""
    form = np.where(np.eye(m.shape[-1], dtype=bool), m[..., :1, :1], m[..., :1, -1:])
    return np.abs(m - form).max(axis=(-2, -1))


def permutation_covariant_defect(ch: QuantumChannel) -> float:
    """Largest |entry| of Φ(P|j><l|Pᵀ) - PΦ(|j><l|)Pᵀ over the adjacent
    transpositions P.

    The defect is 0 exactly when Φ(PXPᵀ) = PΦ(X)Pᵀ for every permutation
    matrix P; both named families are such channels up to rounding.
    ``snac_lattice_minimum`` and ``snac_sweep`` evaluate one lattice row per
    permutation orbit when the dense kernel's channel has a defect of at most
    PERMUTATION_COVARIANT_TOL, or the reduced kernel's populations and squared
    coherences are that close to the form alpha I + beta J (``_certificate``).
    """
    if not ch.is_square:
        raise DimensionMismatchError(f"need a square channel, got {ch!r}")
    return _transposition_defect(_unit_images(ch))


@functools.lru_cache(maxsize=1)
def _kernel_form(ch: QuantumChannel):
    """``(phi, parts)`` of a square channel: the kernel rule of
    ``_certificate``, for ``snac_lattice_minimum`` and its budget.

    ``phi`` is ``_unit_images(ch)``. ``parts`` holds the populations and
    squared coherences of the reduced kernel when the phase-covariant defect
    is at most PHASE_COVARIANT_TOL, else None (the dense kernel). Kept for
    the last channel asked, whose Kraus stack is owned and read-only, so that
    the budget, the lattice rows and the kernel of one channel's study (a
    given channel, or a family p that ``_family_minima`` hands back to the
    per-channel path) read one decision. The family's stacked path applies
    the same rule to its own parts and does not come here.
    """
    phi = _unit_images(ch)
    phi.flags.writeable = False
    populations, coherences, defect = _pattern_parts(phi)
    if defect > PHASE_COVARIANT_TOL:
        return phi, None
    return phi, (populations, coherences * coherences)


def _permutation_covariant(ch: QuantumChannel) -> bool:
    """Whether what the channel's kernel reads is permutation-covariant within
    PERMUTATION_COVARIANT_TOL (see :func:`_certificate`)."""
    phi, parts = _kernel_form(ch)
    defect = _transposition_defect(phi) if parts is None else _spread(np.stack(parts)).max()
    return defect <= PERMUTATION_COVARIANT_TOL


def _orbit_rows(n_subdiv: int, dims: int) -> np.ndarray:
    """The nondecreasing rows of ``simplex_lattice(n_subdiv, dims)``, in its
    lexicographic order, built without it: the first row of each permutation
    orbit, one per partition of n_subdiv into at most dims parts. Refused
    (BudgetError) where that lattice is.
    """
    check_lattice_size(n_subdiv, dims)
    rows = np.zeros((1, 0), dtype=np.int64)
    low, rest = np.zeros(1, dtype=np.int64), np.array([n_subdiv])
    for slots in range(dims, 1, -1):
        # each prefix takes every next entry from its last one (low) up to
        # rest // slots, so that the entries after it can be no smaller
        counts = rest // slots - low + 1
        prefix = np.repeat(np.arange(len(rows)), counts)
        step = np.arange(len(prefix)) - np.repeat(np.cumsum(counts) - counts, counts)
        low = low[prefix] + step
        rows, rest = np.column_stack((rows[prefix], low)), rest[prefix] - low
    return np.column_stack((rows, rest))


def _reduced_diagonal(populations: np.ndarray, q: np.ndarray, k: float
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The diagonal entries of the reduced two-local certificate at each row
    of ``q``: T_a - k X_aa, the block's diagonal, and the least of the
    entries T_a - k X_ab (a != b), where X_ab = sum_j q_j D_j[a] D_j[b] and
    T_a = sum_b X_ab; X is freed on return, before the blocks are formed.
    """
    d = q.shape[-1]
    lead = populations.shape[:-2]
    idx = np.arange(d)
    outer = populations[..., :, :, None] * populations[..., :, None, :]
    diagonal = (q @ outer.reshape(*lead, d, d * d)).reshape(*lead, -1, d, d)  # X
    totals = diagonal.sum(axis=-1)
    diagonal *= -k  # in place: T_a + (-k X_ab) is T_a - k X_ab, bit for bit
    diagonal += totals[..., None]
    on_block = diagonal[..., idx, idx]
    diagonal[..., idx, idx] = np.inf
    return on_block, diagonal.min(axis=(-2, -1))


def _reduced_min_eigs(populations: np.ndarray, squares: np.ndarray, q: np.ndarray,
                      k: float) -> np.ndarray:
    """Two-local certificate of a phase-covariant channel at each row of ``q``.

    ``squares`` holds c_ab^2 (0 on the diagonal). The certificate is the
    smaller of the minimum eigenvalue of the block on span{|aa>},
    M_ab = delta_ab (T_a - k X_aa) - k sqrt(q_a q_b) c_ab^2, and the
    diagonal entries T_a - k X_ab (a != b) (``_reduced_diagonal``).
    ``populations`` and ``squares`` may carry leading axes, one channel per
    index, and the values then carry them too, before the rows of ``q``:
    every block solved, of every channel, goes to one stacked eigensolve,
    which gives each the bits it would have alone.

    Only a row that can come within TIE_TOL of its channel's minimum is
    solved. From the entries already formed, each row has a lower bound
    L = min(min_a (M_aa - sum_{b != a} |M_ab|), off) (Gershgorin, each
    |M_ab| taken as the larger of the two triangles' entries, so that it
    holds for the Hermitian matrix eigvalsh reads off either) and an upper
    bound U = min(min_a M_aa, off), where off is the least diagonal entry
    off the block. A row with L - PRUNE_TOL > min U + TIE_TOL, the minimum
    over the rows of this call, keeps L as its value and is not solved;
    every other row is, and its value is exact. With δ for the rounding of
    eigvalsh and of the bounds (about 1e-15, far below PRUNE_TOL): the row
    of least U is solved (L <= U) and computes at most min U + δ, so the
    computed minimum m is at most min U + δ; a skipped row, solved, would
    compute at least L - δ > m + TIE_TOL, and its L lies above that too. So
    neither is the minimum nor ties with it, and ``_first_minimum`` picks the
    row and value the full eigensolve gives. The minimum of a study's rows
    is at most that of one call's, so the rule holds call by call, for the
    CHUNK_BYTES and FAMILY_SOLVE_BYTES chunks too. A NaN bound fails the
    test and its row is solved, and so is a single row (its L <= U).
    """
    on_block, off_block = _reduced_diagonal(populations, q, k)
    d = q.shape[-1]
    idx = np.arange(d)
    amp = np.sqrt(q)
    # |M_ab| / k sqrt(q_a q_b): the larger of |c_ab^2| and |c_ba^2|, for either triangle
    magnitudes = np.abs(squares)
    magnitudes = np.maximum(magnitudes, magnitudes.swapaxes(-1, -2))
    lower = np.minimum((on_block - k * amp * (amp @ magnitudes)).min(axis=-1), off_block)
    upper = np.minimum(on_block.min(axis=-1), off_block)
    solved = np.flatnonzero(~(lower - PRUNE_TOL > upper.min(axis=-1, keepdims=True) + TIE_TOL))
    del magnitudes, upper
    kept = amp[solved % len(q)]
    weights = -k * kept[:, :, None] * kept[:, None, :]
    del kept
    block = squares.reshape(-1, d, d)[solved // len(q)]
    np.multiply(weights, block, out=block)  # the product of the full stack, bit for bit
    del weights
    block[:, idx, idx] = on_block.reshape(-1, d)[solved]
    lower.reshape(-1)[solved] = np.minimum(np.linalg.eigvalsh(block)[:, 0],
                                           off_block.reshape(-1)[solved])
    return lower


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


def _check_strength(k: float) -> None:
    """ValueError unless the map strength k lies in (0, 1]."""
    if not 0.0 < k <= 1.0:
        raise ValueError(f"k={k} outside (0, 1]")


def _certificate(ch: QuantumChannel, k: float):
    """The two-local certificate of a square channel at each row of q.

    Returns the size of the matrices diagonalized per row and the function
    q -> min eig of (id ⊗ Lambda_k)((Φ ⊗ Φ)|psi_q><psi_q|), one value per
    row of a (points, d) array. The kernel is decided by ``_kernel_form``,
    once per channel; ``_family_parts`` applies the same rule, with the
    same tolerances, to each p of the depolarizing family. When every
    entry of every Φ(|j><l|) outside the phase-covariant pattern (see
    :func:`two_local_output`) is at most PHASE_COVARIANT_TOL = δ, each row
    costs at most one d x d eigensolve plus d^2 - d diagonal entries
    (:func:`_reduced_min_eigs`), formed from the O(d^4) entries of the
    Φ(|j><l|) only. Dropping the off-pattern entries moves each Φ(|j><l|)
    by at most dδ in operator norm, the two-local output by at most
    d^2 δ (2 + dδ) and, since
    ||id ⊗ Lambda_k|| <= d + k, its image by (d + 1) d^2 δ (2 + dδ). By
    Weyl's inequality that bounds the change of the minimum eigenvalue:
    4.8e-11 at d = 13, far below EVIDENCE_TOL. Every other channel takes
    the dense kernel, a stacked d^2 x d^2 eigensolve per row, whose
    d^6-entry pair tensor (``_pair_tensor``) is built once here.

    Permutation covariance (``_permutation_covariant``, asked once per
    channel by the studies) is read off what the kernel reads, with
    PERMUTATION_COVARIANT_TOL = ε. For a covariant channel psi_{πq} =
    (P ⊗ P) psi_q conjugates the output by P ⊗ P, which Lambda_k commutes
    with, so every row of one permutation orbit has the same value.
    Reduced kernel: the populations D and the squared coherences c^2 must
    each be within ε of the form alpha I + beta J, entrywise (O(d^2) work).
    Replacing them by that exact form moves each X_ab by at most 2ε, each
    diagonal entry by 2(d + 1)ε and the block by (2d + 3)ε in operator
    norm, so orbit members' values differ by at most 2(2d + 3)ε: 5.8e-13
    at d = 13. Dense kernel: ``permutation_covariant_defect`` must be at
    most ε. A permutation is a product of at most d(d - 1)/2 adjacent
    transpositions, so each Φ(|j><l|) of the permuted channel is within
    η = d(d - 1)ε/2 entrywise, and orbit members' values differ by at most
    (d + 1) d^2 η (2 + dη), the bound above: 9.6e-12 at d = 4 and 3.7e-9
    at d = 13. The named families sit at rounding, 1.6e-15 or below.
    """
    _check_strength(k)
    d = ch.d_in
    phi, parts = _kernel_form(ch)
    if parts is not None:
        populations, squares = parts
        return d, lambda q: _reduced_min_eigs(populations, squares, q, k)
    pair = _pair_tensor(phi)
    return d * d, lambda q: np.linalg.eigvalsh(
        _id_lambda_matrix(_two_local_array(pair, q), d, d, k))[:, 0]


def snac_min_eig(ch: QuantumChannel, q, k: float) -> float:
    """The certificate ``snac_lattice_minimum`` minimizes, at one q.

    Minimum eigenvalue of (id ⊗ Lambda_k)((Φ ⊗ Φ)|psi_q><psi_q|), where
    |psi_q> = sum_j sqrt(q_j) |jj> and Φ meets ``_check_square`` at len(q).
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
    With no ``lattice`` the rows are ``simplex_lattice(n_subdiv, d)``, of
    which only the nondecreasing ones, the first row of each permutation
    orbit, are built (:func:`_orbit_rows`) and evaluated when the channel is
    permutation-covariant (:func:`_certificate`): every row of an orbit has
    the same value up to the drift bounded there, rounding for the named
    families, so the point reported is the first row of its orbit. The full
    lattice is built only for any other channel. ``lattice``, when given,
    is ``simplex_lattice(n_subdiv, d)`` or rows of it, and every row given
    is evaluated; other rows raise ValueError. The certificate
    (:func:`snac_min_eig`) runs on the channel's kernel in chunks of
    CHUNK_BYTES. ``ch`` meets ``_check_square`` at its own dimension.
    """
    _check_square(ch, ch.d_in)
    given = lattice is not None
    if not given:
        check_lattice_size(n_subdiv, ch.d_in)
    elif lattice.dtype.kind not in "iu" or lattice.shape[1:] != (ch.d_in,) or not len(lattice):
        raise ValueError(f"a lattice of {lattice.dtype} and shape {lattice.shape} is not an "
                         f"integer (points >= 1, d={ch.d_in}) array")
    elif lattice.min() < 0 or np.any(lattice.sum(axis=1) != n_subdiv):
        raise ValueError(f"lattice rows must be nonnegative and sum to n_subdiv={n_subdiv}")
    size, certificate = _certificate(ch, k)
    if not given:
        lattice = (_orbit_rows if _permutation_covariant(ch) else simplex_lattice)(
            n_subdiv, ch.d_in)
    rows = max(1, CHUNK_BYTES // (16 * size ** 2))
    vals = np.concatenate([certificate(lattice[i:i + rows] / n_subdiv)
                           for i in range(0, len(lattice), rows)])
    return _first_minimum(lattice, n_subdiv, vals)


def _first_minimum(lattice: np.ndarray, n_subdiv: int, vals: np.ndarray
                   ) -> tuple[tuple[Fraction, ...], float]:
    """The tie rule: the first row of ``lattice`` whose value in ``vals`` is
    within TIE_TOL of the minimum, as exact fractions, and that value."""
    best = int(np.argmax(vals <= vals.min() + TIE_TOL))
    return tuple(Fraction(n, n_subdiv) for n in lattice[best].tolist()), float(vals[best])


def snac_sweep(d: int, k: float, p_grid: int, q_grid: int,
               channel: QuantumChannel | None = None) -> list[SnacRecord]:
    """Lattice-minimized annihilation certificate over a parameter grid.

    For each p on a uniform grid in [0, 1], records the minimum of
    :func:`snac_min_eig` over the simplex lattice with ``q_grid``
    subdivisions and the minimizing point, as ``snac_lattice_minimum``
    reports them. A given channel, square of dimension d, is minimized once
    by ``snac_lattice_minimum`` and its minimum recorded at every p. With no
    ``channel`` the d-dimensional depolarizing family is minimized at every
    p from stacked reduced kernels (:func:`_family_minima`) over the
    nondecreasing lattice rows (:func:`_orbit_rows`), built once for the
    whole grid and never from the full lattice, with the values, points and
    errors of ``snac_lattice_minimum(depolarizing(d, p), ...)``, which
    minimizes any p beyond the covariance tolerances. Studies over the
    grid, lattice or eigensolver-work budgets
    (``check_snac_size``) raise BudgetError.
    """
    check_snac_size(d, p_grid, q_grid, channel)
    params = np.linspace(0.0, 1.0, p_grid)
    if channel is None:
        found = _family_minima(d, k, params, q_grid, _orbit_rows(q_grid, d))
        minima = [at or snac_lattice_minimum(depolarizing(d, float(p)), k, q_grid)
                  for at, p in zip(found, params)]
    else:
        minima = [snac_lattice_minimum(channel, k, q_grid)] * p_grid

    def record(point) -> SnacRecord:
        p, (q_star, best_val) = point
        return SnacRecord(float(p), best_val, q_star)

    return _ordered_map(record, zip(params, minima))


def _family_parts(d: int, params: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reduced kernel's inputs of depolarizing(d, p) at every p of
    ``params``: populations, squared coherences, and whether the channel
    takes the reduced kernel on its orbit rows (phase-covariant defect and
    permutation spread within tolerance, :func:`_certificate`).

    The weights, the basis and the trace-preservation check are those of
    ``depolarizing`` (``_family_point``), for a p-chunk at once. The Kraus
    stacks w·B and their unit images are formed per chunk, each the zgemm
    ``_unit_images`` runs for one channel, so every value equals the
    per-channel one bit for bit. At most four d^4-entry complex arrays per
    p are alive at once (the stack, its conjugate and the unit images, or
    the unit images and two gathered copies), so a chunk holds
    GRID_CHUNK_BYTES // (64 d^4) values of p, or one.
    """
    populations = np.empty((len(params), d, d))
    squares = np.empty((len(params), d, d), dtype=complex)
    reduced = np.empty(len(params), dtype=bool)
    per = max(1, GRID_CHUNK_BYTES // (64 * d**4))
    for i in range(0, len(params), per):
        w, basis, _ = _family_point("depolarizing", d, params[i:i + per])
        flat = w[:, :, None] * basis.stack.reshape(d * d, d * d)
        images = flat.swapaxes(1, 2) @ flat.conj()
        del flat  # freed before _pattern_parts gathers its copies
        pops, coherences, defect = _pattern_parts(
            images.reshape(-1, d, d, d, d).transpose(0, 2, 4, 1, 3))
        populations[i:i + per], squares[i:i + per] = pops, coherences * coherences
        spread = np.maximum(_spread(pops), _spread(squares[i:i + per]))
        reduced[i:i + per] = ((defect <= PHASE_COVARIANT_TOL)
                              & (spread <= PERMUTATION_COVARIANT_TOL))
    return populations, squares, reduced


def _family_minima(d: int, k: float, params: np.ndarray, n_subdiv: int,
                   orbits: np.ndarray) -> list[tuple[tuple[Fraction, ...], float] | None]:
    """``snac_lattice_minimum(depolarizing(d, p), k, n_subdiv)`` at every p
    of ``params``, bit for bit, evaluating only the orbit rows; None at a p
    left to the per-channel path.

    Every p whose parts (``_family_parts``) take the reduced kernel on the
    orbit rows is evaluated by :func:`_reduced_min_eigs` with a leading p
    axis: one call, and at most one stacked eigensolve, per chunk of whole p
    whose rows fit in FAMILY_SOLVE_BYTES, or of one p. A p whose
    rows exceed CHUNK_BYTES of blocks is cut into the row chunks
    ``snac_lattice_minimum`` takes, so every product and block is the one
    it would form. The point is chosen by the same tie rule
    (``_first_minimum``). Any other p, which the named family reaches
    only beyond its measured rounding, gets None: ``snac_sweep`` minimizes
    its channel under the kernel rule of ``_certificate``. The checks run
    in the order of the first p: d, p and the stack budget, trace
    preservation, then k.
    """
    populations, squares, reduced = _family_parts(d, params)
    _check_strength(k)
    rows = max(1, CHUNK_BYTES // (16 * d * d))
    per = max(1, FAMILY_SOLVE_BYTES // ((24 * d * d + 8 * d + 24) * len(orbits)))
    stacked = np.flatnonzero(reduced)
    minima = [None] * len(params)
    for i in range(0, len(stacked), per):
        at = stacked[i:i + per]
        values = np.concatenate([_reduced_min_eigs(populations[at], squares[at],
                                                   orbits[j:j + rows] / n_subdiv, k)
                                 for j in range(0, len(orbits), rows)], axis=-1)
        for n, vals in zip(at.tolist(), values):
            minima[n] = _first_minimum(orbits, n_subdiv, vals)
    return minima


def _pt_min_eig(d: int, p: float) -> float:
    """Minimum eigenvalue of the partial transpose of isotropic(d, p)."""
    pt = linalg.partial_transpose(isotropic_state(d, p).matrix, (d, d), which=1)
    return float(np.linalg.eigvalsh(pt)[0])


def eb_ppt_threshold(d: int) -> float:
    """Isotropic parameter at which the partial transpose stops being PSD.

    Bisected crossing of the minimum eigenvalue of PT(isotropic(d, p)),
    to a bracket of BISECTION_TOL; lands at 1/(d+1).
    """
    if d < 2:
        raise ValueError("needs d >= 2")
    return bisect_crossing(lambda p: _pt_min_eig(d, p), 0.0, 1.0)


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


def relation_report(d: int, r: int) -> RelationReport:
    """Compare the EB and breaking thresholds of the depolarizing family.

    When the gap (1/(d+1), (rd-1)/(d^2-1)] is non-empty, both
    certificates are evaluated at its midpoint: the partial transpose
    must already be negative there while the witness is still
    nonnegative, exhibiting a channel that breaks Schmidt number r
    without breaking entanglement.
    """
    if not 1 <= r < d:
        raise InvalidRankError(f"relation report needs 1 <= r < d, got r={r}, d={d}")
    eb = eb_ppt_threshold(d)
    snbc = snbc_witness_threshold("depolarizing", d, r)
    eb_exact = 1.0 / (d + 1)
    snbc_exact = isotropic_sn_threshold(d, r)
    if snbc_exact > eb_exact + BISECTION_TOL:
        gap = (eb, snbc)
        mid = (eb + snbc) / 2.0
        pt_min = _pt_min_eig(d, mid)
        w_val = witness_value(witness(d, r), isotropic_state(d, mid))
    else:
        gap, mid, pt_min, w_val = None, None, None, None
    return RelationReport(d, r, eb, eb_exact, snbc, snbc_exact, gap, mid, pt_min, w_val)
