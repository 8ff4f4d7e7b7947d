"""Quantitative studies: witness sweeps, threshold bisection, the two-local
depolarizing construction, and channel-set relation reports.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .channels import (
    MAX_KRAUS_STACK_BYTES,  # noqa: F401  (re-exported with the budgets below)
    QuantumChannel,
    _KRAUS_FAMILIES,
    _check_tp,
    _family_point,
    _gram_defect,
    _unit_images,
    _weight_rows,
    check_kraus_stack,
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
# and its eigensolve is skipped (_reduced_min_eigs); so is a row whose block,
# shifted by that bound plus TIE_TOL and this margin, factors as positive
# definite. The margin covers the rounding of eigvalsh and of the bounds,
# about 1e-15 for d <= 16, and the factorization's backward error, below
# 2e-13 for d <= 13.
PRUNE_TOL = 1e-12
# Simplex lattices above this many points are refused before any is built.
MAX_LATTICE_POINTS = 10**6
# MAX_KRAUS_STACK_BYTES, imported from channels, whose basis cache it bounds,
# caps d: the named families refuse d whose d^2 x d x d Kraus stack exceeds it,
# and the depolarizing witness curve checks it (check_kraus_stack) with no
# stack built.
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
# reduced) evaluated at once. Row chunks set output bits: a 1-row chunk (and
# snac_min_eig's single q) takes numpy's matrix-vector path, which rounds
# differently from a multi-row chunk, so a change to this budget or to its
# 16 d^4 / 16 d^2 row models can move the bits of a study over one chunk.
CHUNK_BYTES = 8 * 2**20
# Byte budget of the per-parameter arrays a snac study stacks over its grid at
# once: the Kraus stacks and unit images of the depolarizing family's p-chunk
# (_family_parts), and its stacked reduced-kernel solves
# (_reduced_minima), 24 d^2 + 8 d + 24 bytes a lattice row. A parameter's work
# is small, so a few a chunk take most of the gain, and a study's peak memory
# stays that of one parameter (at CHUNK_BYTES, --d 2 --p-grid 1001 --q-grid
# 9989 peaked 20 MB higher).
GRID_CHUNK_BYTES = 2**19
# Largest |entry| of Φ(|j><l|) outside the phase-covariant pattern (see
# phase_covariant_defect) for which the reduced two-local kernel is taken
# (_kernel_parts). Depolarizing reaches 2.4e-16 (d <= 13, 1001 values of p)
# and dephasing 0.
PHASE_COVARIANT_TOL = 1e-14
# Largest deviation from permutation covariance of what the two-local kernel
# reads (see _orbit_covariant) for which a study evaluates one lattice row per
# permutation orbit. Depolarizing reaches 1.0e-15 in the unit-image form
# (permutation_covariant_defect) and 1.6e-15 in the reduced kernel's (d <= 13,
# 1001 values of p), dephasing 0.
PERMUTATION_COVARIANT_TOL = 1e-14


# Each named family's closed-form witness crossing at (d, r). Its weights, Kraus
# basis and Gram sum live under the same key in channels._KRAUS_FAMILIES, whose
# weights and Gram sum give the witness curves their closed-form Kraus traces
# and trace-preservation check (_witness_curve), with no basis fetched and no
# channel built.
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


def _witness_curve(family: str, d: int, r: int):
    """p -> Tr(W C_Φ) of the named family: the curve ``snbc_witness_threshold``
    bisects at float p, and ``snbc_witness_sweep`` reads at an array of p,
    whose list of values it returns.

    A point reads ``_witness_from_traces`` off Kraus traces in closed form:
    Tr K_0 is the sum (``np.add.reduce``) of d complex copies of first, and
    Tr K_a for a >= 1 is 0 for depolarizing, whose entries are left out (the
    built channel's round to below 1e-13, too small to move a bit), and rest
    for each of dephasing's d projectors: 1 or d + 1 traces, bit for bit
    ``channel_witness_value`` of the channel ``depolarizing`` or
    ``dephasing`` builds. The witness (which checks r and d), the family and,
    for depolarizing, the stack budget (``check_kraus_stack``, nothing built)
    are checked once, when the curve is built; no basis is fetched. A point
    checks p with the weights and trace preservation with ``_gram_defect`` at
    the family's exact Gram sum, the rule ``depolarizing`` and ``dephasing``
    check. A float point writes into a row and a d-entry buffer of the
    curve's own; an array of p fills one (points, n) array.
    """
    w = witness(d, r)
    if family not in FAMILIES:
        raise UnknownFamilyError(f"unknown family {family!r}; "
                                 f"expected one of {tuple(FAMILIES)}")
    weights, _, gram_sum = _KRAUS_FAMILIES[family]
    n = d + 1
    if family == "depolarizing":
        check_kraus_stack(d)
        n = 1
    s, rd = gram_sum(d), w.r * w.d
    row, copies = np.empty(n, dtype=complex), np.empty(d, dtype=complex)

    def curve(p):
        first, rest = weights(d, p)
        if not isinstance(p, np.ndarray):
            first, rest = float(first), float(rest)
            _gram_defect(s, first, rest)
            copies[:] = first
            row[0], row[1:] = np.add.reduce(copies), rest
            return _witness_from_traces(row, rd)
        _gram_defect(s, first, rest)
        traces = np.empty((len(p), n), dtype=complex)
        traces[:, 1:] = rest[:, None]
        np.add.reduce(np.broadcast_to(first.astype(complex)[:, None], (len(p), d)), 1,
                      out=traces[:, 0])
        return [_witness_from_traces(t, rd) for t in traces]

    return curve


def snbc_witness_sweep(family: str, d: int, r: int, grid: int,
                       channel: QuantumChannel | None = None) -> list[SweepRecord]:
    """Witness value on the family's Choi state over a uniform parameter grid.

    Each value is read off the Kraus traces, as ``channel_witness_value``
    reads it. For ``family="custom"`` the fixed ``channel`` is checked once
    (as by ``snac_sweep``) and evaluated once; for the named families the
    parameter is the channel parameter in [0, 1], and the grid is one call of
    ``_witness_curve``, which checks r and d, the family and the stack budget
    and reads the grid's closed-form traces as one array, with no basis
    fetched and no channel built. A channel given without the custom family,
    or the custom family without one, raises UnknownFamilyError; a grid
    outside [2, MAX_GRID_POINTS] raises BudgetError.
    """
    check_grid_size(grid)
    if (family == "custom") != (channel is not None):
        raise UnknownFamilyError("the custom family needs a channel, and only it takes one")
    params = np.linspace(0.0, 1.0, grid)
    if channel is None:
        values = _witness_curve(family, d, r)(params)
    else:
        w = witness(d, r)
        _check_square(channel, d)
        values = [channel_witness_value(w, channel)] * grid

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

    Bisects ``_witness_curve``, which checks r and d and, for depolarizing,
    the stack budget once (BudgetError), with no basis fetched, so that a
    point is two weights, a TP check on floats at the exact Gram sum and one
    closed-form trace row, with no channel or weight row built, equal bit for
    bit to ``channel_witness_value`` of the built channel. The witness value
    is affine in the parameter for both families, so the crossing is the
    exact breaking threshold:
    (rd - 1)/(d^2 - 1) for depolarizing and (r - 1)/(d - 1) for dephasing,
    whose r = 1 root lies at the bracket edge p = 0.

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
    MAX_SNAC_REDUCED_WORK when it takes the reduced kernel by the rule of
    ``snac_lattice_minimum`` (:func:`_kernel_parts`), else against
    MAX_SNAC_EIG_WORK.
    """
    lattices, charged, lower, reduced = p_grid, "p points x lattice points", "the grids or d", True
    if channel is not None:
        _check_square(channel, d)
        lattices, charged, lower = 1, "lattice points", "the q grid"
        reduced = _kernel_parts(_unit_images(channel))[2]
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

    One int64 array of shape (points, dims), rows in lexicographic order
    (:func:`_lattice_rows`); row (n_i) represents q_i = n_i / n_subdiv.
    Lattices above MAX_LATTICE_POINTS raise BudgetError.
    """
    return _lattice_rows(n_subdiv, dims, False)


def _lattice_rows(n_subdiv: int, dims: int, nondecreasing: bool) -> np.ndarray:
    """The rows of ``simplex_lattice(n_subdiv, dims)``, in its lexicographic
    order: all of them, or only the nondecreasing ones, the first row of each
    permutation orbit (one per partition of n_subdiv into at most dims
    parts). Refused (BudgetError) where the full lattice is.

    The rows grow one entry at a time from their prefixes: each prefix takes
    every next entry from 0 up to what is left of n_subdiv, or, for the
    nondecreasing rows, from its last entry up to the rest // slots, so that
    the entries after it can be no smaller. A step writes its table in place:
    each prefix's run of rows gets, in its first row, that row less the last
    row of the run before it, in every other row the steps (0, ..., 0, 1, -1),
    and one running sum down the rows gives the table. So a build peaks at
    its result and the first rows of the runs of its last step.
    """
    check_lattice_size(n_subdiv, dims)
    table = np.full((1, 1), n_subdiv, dtype=np.int64)  # a row per prefix: entries, then rest
    for slots in range(dims, 1, -1):
        k = table.shape[1] - 1
        rest = table[:, k]
        low = table[:, k - 1] if nondecreasing and k else 0
        counts = (rest // slots if nondecreasing else rest) - low + 1
        steps = np.zeros(k + 2, dtype=np.int64)
        steps[k:] = 1, -1
        jumps = np.empty((len(table), k + 2), dtype=np.int64)  # each run's first row
        jumps[:, :k] = table[:, :k]
        jumps[:, k] = low
        jumps[:, k + 1] = rest - low
        jumps[1:] -= jumps[:-1] + (counts[:-1, None] - 1) * steps  # less the last row before
        ends = np.cumsum(counts)
        del table, rest, low  # held in jumps now: freed before the next table is built
        table = np.empty((int(ends[-1]), k + 2), dtype=np.int64)
        table[...] = steps
        table[ends - counts] = jumps
        np.cumsum(table.T, axis=1, out=table.T)
    return table


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

    ``phi`` is ``_unit_images(ch)``, or a stack of them whose leading axes the
    result keeps. The einsum writes into a C-ordered array so that the
    reshape is a view, not a second copy of the d^6 tensor: the einsum's own
    result is not C-contiguous.
    """
    *lead, d_in, _, d_out, _ = phi.shape
    pair = np.empty((*lead, d_in, d_in) + (d_out,) * 4, dtype=phi.dtype)
    np.einsum("...jlop,...jlrs->...jlorps", phi, phi, out=pair)
    return pair.reshape(*lead, d_in * d_in, -1)


def _two_local_array(pair: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Unvalidated (Φ ⊗ Φ)|psi_q><psi_q| for each simplex point on q's last
    axis, or, for a stack of pair tensors, for each channel at one q.

    By linearity, sum_jl sqrt(q_j q_l) Φ(|j><l|) ⊗ Φ(|j><l|), with those
    products the rows of ``pair`` (``_pair_tensor``).
    """
    amp = np.sqrt(q)
    weights = np.einsum("...j,...l->...jl", amp, amp).reshape(*q.shape[:-1], -1)
    out = weights @ pair
    n = math.isqrt(pair.shape[-1])
    return out.reshape(*out.shape[:-1], n, n)


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
    The two-local certificate takes its reduced kernel when the defect is at
    most PHASE_COVARIANT_TOL (:func:`_kernel_parts`).
    """
    if not ch.is_square:
        raise DimensionMismatchError(f"need a square channel, got {ch!r}")
    return float(_pattern_parts(_unit_images(ch))[2])


def _transposition_defect(phi: np.ndarray) -> np.ndarray:
    """Largest |entry| of Φ(P|j><l|Pᵀ) - PΦ(|j><l|)Pᵀ over the d - 1 adjacent
    transpositions P, which generate the symmetric group, for each channel
    on the leading axes of ``phi`` (``_unit_images`` of square channels)."""
    d = phi.shape[-1]
    defect = np.zeros(phi.shape[:-4])
    for t in range(d - 1):
        perm = np.arange(d)
        perm[[t, t + 1]] = t + 1, t
        moved = phi[(..., *np.ix_(perm, perm, perm, perm))]
        defect = np.maximum(defect, np.abs(moved - phi).max(axis=(-4, -3, -2, -1)))
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
    permutation orbit when a channel on the dense kernel has a defect of at
    most PERMUTATION_COVARIANT_TOL, and one on the reduced kernel has its
    populations and squared coherences that close to the form
    alpha I + beta J (:func:`_orbit_covariant`).
    """
    if not ch.is_square:
        raise DimensionMismatchError(f"need a square channel, got {ch!r}")
    return float(_transposition_defect(_unit_images(ch)))


def _kernel_parts(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel rule of the two-local certificate, for each square channel
    on the leading axes of its unit images ``phi`` (``_unit_images``).

    Returns the populations D, the squared coherences c^2 (0 on the
    diagonal) and whether the channel takes the reduced kernel: whether
    every entry of every Φ(|j><l|) outside the phase-covariant pattern (see
    :func:`two_local_output`) is at most PHASE_COVARIANT_TOL = δ
    (``_pattern_parts``). Then each lattice row costs at most one d x d
    eigensolve plus d^2 - d diagonal entries (:func:`_reduced_min_eigs`),
    formed from the O(d^4) entries of the Φ(|j><l|) only. Dropping the
    off-pattern entries moves each Φ(|j><l|) by at most dδ in operator norm,
    the two-local output by at most d^2 δ (2 + dδ) and, since
    ||id ⊗ Lambda_k|| <= d + k, its image by (d + 1) d^2 δ (2 + dδ). By
    Weyl's inequality that bounds the change of the minimum eigenvalue:
    4.8e-11 at d = 13, far below EVIDENCE_TOL. Every other channel takes the
    dense kernel (:func:`_certificate`).
    """
    populations, coherences, defect = _pattern_parts(phi)
    return populations, coherences * coherences, defect <= PHASE_COVARIANT_TOL


def _orbit_covariant(phi: np.ndarray, populations: np.ndarray, squares: np.ndarray,
                     reduced: np.ndarray) -> np.ndarray:
    """Whether a study may evaluate one lattice row per permutation orbit,
    for each channel of ``_kernel_parts(phi)`` = (populations, squares,
    reduced): whether what its kernel reads is permutation-covariant within
    PERMUTATION_COVARIANT_TOL = ε.

    For a covariant channel psi_{πq} = (P ⊗ P) psi_q conjugates the output
    by P ⊗ P, which Lambda_k commutes with, so every row of one permutation
    orbit has the same value. Reduced kernel: the populations D and the
    squared coherences c^2 must each be within ε of the form
    alpha I + beta J, entrywise (O(d^2) work). Replacing them by that exact
    form moves each X_ab by at most 2ε, each diagonal entry by 2(d + 1)ε and
    the block by (2d + 3)ε in operator norm, so orbit members' values differ
    by at most 2(2d + 3)ε: 5.8e-13 at d = 13. Dense kernel: the defect of
    ``permutation_covariant_defect``, read off ``phi``, must be at most ε.
    A permutation is a product of at most d(d - 1)/2 adjacent
    transpositions, so each Φ(|j><l|) of the permuted channel is within
    η = d(d - 1)ε/2 entrywise, and orbit members' values differ by at most
    (d + 1) d^2 η (2 + dη), the bound of ``_kernel_parts``: 9.6e-12 at d = 4
    and 3.7e-9 at d = 13. The named families sit at rounding, 1.6e-15 or
    below.
    """
    defect = np.maximum(_spread(populations), _spread(squares))
    if not np.all(reduced):
        defect = np.where(reduced, defect, _transposition_defect(phi))
    return defect <= PERMUTATION_COVARIANT_TOL


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
    bound U = min(min_a M_aa, R, off), where off is the least diagonal entry
    off the block and R the Rayleigh quotient at the unit vector sqrt(q),
    sum_a q_a M_aa - 2k sum_{a > b} q_a q_b Re c_ab^2, read off the lower
    triangle eigvalsh reads. With m = min U over the rows of this call, a row
    with L - PRUNE_TOL > m + TIE_TOL keeps L as its value. Every other row
    forms its block and is tested at s = m + TIE_TOL + PRUNE_TOL: a row whose
    LDL^H of M - sI has every pivot positive and finite
    (:func:`_decided_above`) and whose off exceeds s keeps s as its value.
    The rest are solved, their blocks formed again by the same expression,
    and their values are exact.

    A skipped row can neither be the minimum nor tie with it. Write δ for the
    rounding of eigvalsh and of the bounds, about 1e-15. A factorization that
    runs to completion is exact for M - sI + ΔM with ||ΔM||_2 <= d γ_{d+1}
    ||M - sI||_2 (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., Thm 10.5), about 4e-14 ||M - sI||_2 at d = 13, and ||M - sI||_2 <= 3
    for a channel's blocks. So a row decided positive has λ_min(M) > s - 2e-13
    and a pruned one L > m + TIE_TOL + PRUNE_TOL: either, solved, would
    compute more than m + TIE_TOL + δ, and the value it keeps lies above that
    too. The row of least U is neither pruned (L <= U) nor decided positive
    (λ_min <= U + δ < s, or off = U < s), so it is solved and the computed
    minimum is at most m + δ. So ``_first_minimum`` picks the row and value
    the full eigensolve gives. The minimum of a study's rows is at most that
    of one call's, so the rule holds call by call, for the CHUNK_BYTES row
    chunks of ``_reduced_minima`` too; m is taken per channel, so its
    GRID_CHUNK_BYTES channel stacks solve the rows a call per channel would.
    A NaN bound, or a zero, NaN or inf pivot, fails its test and its row is
    solved. A single row (``snac_min_eig``) is solved without forming the
    bounds.
    """
    on_block, off_block = _reduced_diagonal(populations, q, k)
    d = q.shape[-1]
    idx = np.arange(d)
    amp = np.sqrt(q)

    def blocks(rows: np.ndarray) -> np.ndarray:
        kept = amp[rows % len(q)]
        weights = -k * kept[:, :, None] * kept[:, None, :]
        del kept
        block = squares.reshape(-1, d, d)[rows // len(q)]
        np.multiply(weights, block, out=block)  # the product of the full stack, bit for bit
        del weights
        block[:, idx, idx] = on_block.reshape(-1, d)[rows]
        return block

    lower, solved = off_block, np.arange(off_block.size)
    if len(q) > 1:
        # |M_ab| / k sqrt(q_a q_b): the larger of |c_ab^2| and |c_ba^2|, for either triangle
        magnitudes = np.abs(squares)
        magnitudes = np.maximum(magnitudes, magnitudes.swapaxes(-1, -2))
        lower = np.minimum((on_block - k * amp * (amp @ magnitudes)).min(axis=-1), off_block)
        del magnitudes
        rayleigh = np.einsum("...ra,ra->...r",
                             q @ np.tril(-2 * k * squares.real, -1) + on_block, q)
        least = np.minimum(np.minimum(on_block.min(axis=-1), off_block), rayleigh).min(
            axis=-1, keepdims=True)
        del rayleigh
        solved = np.flatnonzero(~(lower - PRUNE_TOL > least + TIE_TOL))
        block = blocks(solved)
        shift = (least + TIE_TOL + PRUNE_TOL).reshape(-1)[solved // len(q)]
        positive = _decided_above(block, shift) & (off_block.reshape(-1)[solved] > shift)
        lower.reshape(-1)[solved[positive]] = shift[positive]
        solved = solved[~positive]
        del block, shift, positive
    lower.reshape(-1)[solved] = np.minimum(np.linalg.eigvalsh(blocks(solved))[:, 0],
                                           off_block.reshape(-1)[solved])
    return lower


def _decided_above(block: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """Whether every eigenvalue of each Hermitian matrix of the (n, d, d)
    stack ``block`` lies above its ``shift``: whether an unpivoted LDL^H
    (Crout) of block - shift I, read off the lower triangle as eigvalsh reads
    it, has every pivot positive and finite. Overwrites the lower triangle.
    A zero, NaN or inf pivot or shift reads False."""
    pivots = np.empty(block.shape[:-1])
    with np.errstate(all="ignore"):
        for j in range(block.shape[-1]):
            column = block[:, j:, j]
            if j:  # L D L^H's entries of column j: L[j:, :j] D conj(L[j, :j])
                column -= np.einsum("rij,rj->ri", block[:, j:, :j],
                                    block[:, j, :j].conj() * pivots[:, :j])
            np.subtract(column[:, 0].real, shift, out=pivots[:, j])
            np.divide(column[:, 1:], pivots[:, j, None], out=column[:, 1:])
    return np.all((pivots > 0) & (pivots < np.inf), axis=-1)


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


def _certificate(phi: np.ndarray, k: float):
    """The dense two-local kernel of a square channel with unit images
    ``phi``: q -> min eig of (id ⊗ Lambda_k)((Φ ⊗ Φ)|psi_q><psi_q|), one
    value per row of a (points, d) array, from a stacked d^2 x d^2
    eigensolve per row, whose d^6-entry pair tensor (``_pair_tensor``) is
    built once here. A channel that meets the phase-covariant rule takes the
    reduced kernel instead (:func:`_kernel_parts`).
    """
    d = phi.shape[0]
    pair = _pair_tensor(phi)
    return lambda q: np.linalg.eigvalsh(
        _id_lambda_matrix(_two_local_array(pair, q), d, d, k))[:, 0]


def snac_min_eig(ch: QuantumChannel, q, k: float) -> float:
    """The certificate ``snac_lattice_minimum`` minimizes, at one q.

    Minimum eigenvalue of (id ⊗ Lambda_k)((Φ ⊗ Φ)|psi_q><psi_q|), where
    |psi_q> = sum_j sqrt(q_j) |jj> and Φ meets ``_check_square`` at len(q),
    on the kernel that ``_kernel_parts`` decides. Its one q takes numpy's
    matrix-vector path, as a 1-row chunk of ``snac_lattice_minimum`` does,
    so it can differ from a multi-row chunk's value in the last bits (up to
    3.3e-16 on ``random_channel(3, 4, 7)`` at q-grid 12, k = 1/2).
    """
    q = _as_simplex(q)
    _check_square(ch, q.size)
    _check_strength(k)
    return float(_min_eigs(_unit_images(ch)[None], q, k)[0])


def _min_eigs(phi: np.ndarray, q: np.ndarray, k: float) -> np.ndarray:
    """``snac_min_eig`` at one q of each square channel on the leading axis of
    its unit images ``phi``, with the bits of a call per channel: the
    channels that take the reduced kernel in one stacked call
    (:func:`_reduced_min_eigs`), any other on the dense one."""
    populations, squares, reduced = _kernel_parts(phi)
    values = np.empty(len(phi))
    if reduced.any():
        values[reduced] = _reduced_min_eigs(populations[reduced], squares[reduced], q[None],
                                            k)[:, 0]
    for i in np.flatnonzero(~reduced):
        values[i] = _certificate(phi[i], k)(q[None])[0]
    return values


def snac_lattice_minimum(ch: QuantumChannel, k: float, n_subdiv: int
                         ) -> tuple[tuple[Fraction, ...], float]:
    """Minimize the annihilation certificate over the simplex lattice.

    Returns, as exact fractions, the first lattice point in lexicographic
    order whose value is within TIE_TOL of the minimum, and that value.
    The rows are ``simplex_lattice(n_subdiv, d)``, of which only the
    nondecreasing ones, the first row of each permutation orbit, are built
    (:func:`_lattice_rows`) and evaluated when the channel is
    permutation-covariant (:func:`_orbit_covariant`): every row of an orbit
    has the same value up to the drift bounded there, rounding for the
    named families, so the point reported is the first row of its orbit.
    The full lattice is built only for any other channel. The certificate
    (:func:`snac_min_eig`) runs on the kernel ``_kernel_parts`` decides, in
    row chunks of CHUNK_BYTES; the reduced one through ``_reduced_minima``,
    as for the family's p grid. ``ch`` meets ``_check_square`` at its own
    dimension.
    """
    _check_square(ch, ch.d_in)
    d = ch.d_in
    check_lattice_size(n_subdiv, d)
    _check_strength(k)
    phi = _unit_images(ch)
    populations, squares, reduced = parts = _kernel_parts(phi)
    lattice = (_lattice_rows(n_subdiv, d, True) if _orbit_covariant(phi, *parts)
               else simplex_lattice(n_subdiv, d))
    if reduced:
        return _reduced_minima(populations[None], squares[None], k, n_subdiv, lattice)[0]
    certificate = _certificate(phi, k)
    rows = max(1, CHUNK_BYTES // (16 * d ** 4))
    return _first_minimum(lattice, n_subdiv, np.concatenate([
        certificate(lattice[i:i + rows] / n_subdiv) for i in range(0, len(lattice), rows)]))


def _first_minimum(lattice: np.ndarray, n_subdiv: int, vals: np.ndarray
                   ) -> tuple[tuple[Fraction, ...], float] | list:
    """The tie rule: the first row of ``lattice`` whose value in ``vals`` is
    within TIE_TOL of the minimum, as exact fractions, and that value. A
    ``vals`` with a leading axis, one channel per index, gives the list of
    each channel's point and value, from one comparison over the stack."""
    rows = vals.reshape(-1, vals.shape[-1])
    best = np.argmax(rows <= rows.min(axis=-1, keepdims=True) + TIE_TOL, axis=-1)
    minima = [(tuple(Fraction(n, n_subdiv) for n in lattice[b].tolist()), v)
              for b, v in zip(best.tolist(), rows[np.arange(len(rows)), best].tolist())]
    return minima if vals.ndim > 1 else minima[0]


def snac_sweep(d: int, k: float, p_grid: int, q_grid: int,
               channel: QuantumChannel | None = None) -> list[SnacRecord]:
    """Lattice-minimized annihilation certificate over a parameter grid.

    For each p on a uniform grid in [0, 1], records the minimum of
    :func:`snac_min_eig` over the simplex lattice with ``q_grid``
    subdivisions and the minimizing point, as ``snac_lattice_minimum``
    reports them. A given channel, square of dimension d, is minimized once
    by ``snac_lattice_minimum`` and its minimum recorded at every p. With no
    ``channel`` the d-dimensional depolarizing family is minimized at every
    p by the minimizer of ``snac_lattice_minimum`` (:func:`_reduced_minima`,
    GRID_CHUNK_BYTES of rows a call) on its stacked parts
    (:func:`_family_parts`) and the orbit rows of ``snac_lattice_minimum``
    (:func:`_lattice_rows`), built once for the grid, with the values,
    points and errors of ``snac_lattice_minimum(depolarizing(d, p), ...)``,
    which minimizes any p beyond the covariance tolerances. The checks run in the order of the
    first p: d, p and the stack budget, trace preservation, then k. Studies
    over the grid, lattice or eigensolver-work budgets (``check_snac_size``)
    raise BudgetError.
    """
    check_snac_size(d, p_grid, q_grid, channel)
    params = np.linspace(0.0, 1.0, p_grid)
    if channel is None:
        populations, squares, stacked = _family_parts(d, params)
        _check_strength(k)
        found = iter(_reduced_minima(populations[stacked], squares[stacked], k, q_grid,
                                     _lattice_rows(q_grid, d, True)))
        minima = [next(found) if s else snac_lattice_minimum(depolarizing(d, p), k, q_grid)
                  for s, p in zip(stacked.tolist(), params.tolist())]
    else:
        minima = [snac_lattice_minimum(channel, k, q_grid)] * p_grid

    def record(point) -> SnacRecord:
        p, (q_star, best_val) = point
        return SnacRecord(float(p), best_val, q_star)

    return _ordered_map(record, zip(params, minima))


def _family_parts(d: int, params: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_kernel_parts`` of depolarizing(d, p) at every p of ``params``, the
    third part being whether the p takes the stacked reduced kernel on its
    orbit rows (:func:`_orbit_covariant` too).

    The weights, basis and trace-preservation check are those of
    ``depolarizing`` (``_family_point``) and the unit images those of
    ``_unit_images``, for a p-chunk at once, so every value equals the
    per-channel one bit for bit. At most four d^4-entry complex arrays per
    p are alive at once (the stack, its conjugate and the unit images, or
    the unit images and two gathered copies), so a chunk holds
    GRID_CHUNK_BYTES // (64 d^4) values of p, or one (the budget the study's
    solves share); its parts go straight into the outputs.
    """
    populations = np.empty((len(params), d, d))
    squares = np.empty((len(params), d, d), dtype=complex)
    stacked = np.empty(len(params), dtype=bool)
    per = max(1, GRID_CHUNK_BYTES // (64 * d**4))
    for i in range(0, len(params), per):
        phi = _family_unit_images(d, params[i:i + per])
        parts = _kernel_parts(phi)
        populations[i:i + per], squares[i:i + per], reduced = parts
        stacked[i:i + per] = reduced & _orbit_covariant(phi, *parts)
    return populations, squares, stacked


def _family_unit_images(d: int, params: np.ndarray) -> np.ndarray:
    """``_unit_images(depolarizing(d, p))`` for every p of ``params``, with the
    checks of ``depolarizing`` (``_family_point``) and the same bits."""
    first, rest, stack, _ = _family_point("depolarizing", d, params)
    return _unit_images(_weight_rows(first, rest, len(stack))[:, :, None, None] * stack)


def _reduced_minima(populations: np.ndarray, squares: np.ndarray, k: float,
                    n_subdiv: int, lattice: np.ndarray
                    ) -> list[tuple[tuple[Fraction, ...], float]]:
    """The tie rule's point and value (``_first_minimum``) of the reduced
    kernel over the rows of ``lattice``, for each channel on the leading axis
    of ``populations`` and ``squares``: :func:`_reduced_min_eigs` takes as
    many channels a call as GRID_CHUNK_BYTES holds at 24 d^2 + 8 d + 24 bytes
    a lattice row (the complex blocks solved and their real weights, X before
    them, the block diagonals, and the off-block entries, bounds and solved
    indices), or one, and each one's rows in chunks of CHUNK_BYTES of blocks.
    The positivity test factors the blocks in place, its pivots, column and
    shifts (24 d + 8 bytes) taking the weights' place: within them from d = 4,
    8 bytes a row over at d = 3 and 24 at d = 2.
    Each point and value is the one a call per channel gives.
    """
    d = lattice.shape[1]
    rows = max(1, CHUNK_BYTES // (16 * d ** 2))
    per = max(1, GRID_CHUNK_BYTES // ((24 * d * d + 8 * d + 24) * len(lattice)))
    minima = []
    for i in range(0, len(populations), per):
        values = np.concatenate([_reduced_min_eigs(populations[i:i + per], squares[i:i + per],
                                                   lattice[j:j + rows] / n_subdiv, k)
                                 for j in range(0, len(lattice), rows)], axis=-1)
        minima += _first_minimum(lattice, n_subdiv, values)
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
        return {**asdict(self), "gap": list(self.gap) if self.gap else None}


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
