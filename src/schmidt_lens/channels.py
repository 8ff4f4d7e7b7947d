"""Quantum channels as Kraus-operator lists.

Channel identity is semantic, not representational: two Kraus lists
describe the same channel iff their actions agree on a full matrix
basis, so equality checks always go through ``action_distance`` rather
than comparing Kraus operators.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from . import linalg
from .errors import (
    BudgetError,
    DimensionMismatchError,
    InvalidDimensionError,
    NonSquareChannelError,
    NotPSDError,
    NotTracePreservingError,
    ParamOutOfRangeError,
)
from .states import DensityMatrix, _state_prefix, as_density_stack, haar_unitary

TP_TOL = 1e-9
CHOI_TRACE_TOL = 1e-10
CHOI_MARGINAL_TOL = 1e-9
# Relative eigenvalue cutoff used when recovering Kraus operators from a Choi
# matrix; consistent with linalg.RANK_TOL scaled to eigenvalues.
CANONICAL_EIG_TOL = 1e-10
# Byte budget of the d^2 x d x d shift/clock Kraus stack of a named family
# (16 d^4 bytes): d <= 13. Larger d is refused before anything is built.
MAX_KRAUS_STACK_BYTES = 2**19


class QuantumChannel:
    """Completely positive map given by d_out x d_in Kraus operators.

    ``kraus`` is a list (or any iterable) of equal-shape matrices or one
    ``(n, d_out, d_in)`` array, with d_out, d_in >= 1. Either form is
    copied into one owned, read-only complex stack, ``_stack``, which gets
    one finiteness scan and one shape check; ``kraus`` is a tuple of
    read-only views of its rows, built on first access and cached.
    Trace preservation (sum K†K = I) is validated on construction unless
    ``check_tp=False``; the adjoint of a channel is completely positive
    and unital but generally not trace-preserving, so it is built with
    the check disabled. The defect is kept once computed.
    """

    def __init__(self, kraus, check_tp: bool = True):
        if not isinstance(kraus, np.ndarray):
            ops = [np.asarray(k, dtype=complex) for k in kraus]
            if any(k.shape != ops[0].shape for k in ops):
                raise DimensionMismatchError("Kraus operators must share one shape")
            kraus = ops
        stack = np.array(kraus, dtype=complex)
        if stack.ndim >= 1 and len(stack) == 0:
            raise ValueError("a channel needs at least one Kraus operator")
        if stack.ndim != 3:
            raise DimensionMismatchError(
                f"expected a stack of Kraus matrices, got ndim={stack.ndim}"
            )
        if min(stack.shape[1:]) < 1:
            raise InvalidDimensionError(
                f"Kraus operators must be at least 1 x 1, got {stack.shape[1]} x {stack.shape[2]}"
            )
        if not np.isfinite(stack).all():
            raise ValueError("Kraus entries must be finite (no NaN/Inf)")
        stack.flags.writeable = False
        self._stack = stack
        self.d_out, self.d_in = stack.shape[1:]
        self._tp_defect = None
        if check_tp:
            _check_tp(self)

    def trace_preservation_defect(self) -> float:
        """max |sum K†K - I|, computed once (the stack is owned and read-only);
        a named family's channel holds the defect of its Gram check."""
        if self._tp_defect is None:
            self._tp_defect = float(_kraus_sum_defect(self._stack))
        return self._tp_defect

    @functools.cached_property
    def kraus(self) -> tuple[np.ndarray, ...]:
        return tuple(self._stack)

    @property
    def is_square(self) -> bool:
        return self.d_in == self.d_out

    def __len__(self):
        return len(self._stack)

    def __repr__(self):
        return f"QuantumChannel(d_in={self.d_in}, d_out={self.d_out}, n_kraus={len(self)})"


def _kraus_sum_defect(stack: np.ndarray) -> np.ndarray:
    """max |sum_a K_a†K_a - I| of an (..., n, d_out, d_in) Kraus stack, one
    defect per leading index (a 0-d array for one stack)."""
    *lead, n, d_out, d_in = stack.shape
    flat = stack.reshape(*lead, n * d_out, d_in)  # rows (a, o): sum K†K = flat† flat
    with np.errstate(over="ignore", invalid="ignore"):  # overflow reads as inf/NaN
        acc = flat.conj().swapaxes(-1, -2) @ flat
    return np.abs(acc - np.eye(d_in)).max(axis=(-2, -1))


def _require_tp(dev):
    """``dev`` itself, one defect or an array of them; NotTracePreservingError
    naming the first that is not at most TP_TOL (a NaN defect, from
    overflowed entries, fails too)."""
    first = dev if isinstance(dev, float) else float(dev.flat[np.argmin(dev <= TP_TOL)])
    if not first <= TP_TOL:
        raise NotTracePreservingError(f"max |sum K†K - I| = {first:.3e} exceeds {TP_TOL:.1e}")
    return dev


def _check_tp(ch: QuantumChannel) -> None:
    """NotTracePreservingError unless ``ch.trace_preservation_defect() <= TP_TOL``."""
    _require_tp(ch.trace_preservation_defect())


def _tp_kraus(stack: np.ndarray) -> np.ndarray:
    """``stack`` itself, a Kraus stack (..., n, d_out, d_in), once each Kraus
    set on its leading axes passes the trace-preservation check of
    ``QuantumChannel``."""
    _require_tp(_kraus_sum_defect(stack))
    return stack


class ChoiMatrix(DensityMatrix):
    """Normalized Choi state of a channel, (id ⊗ Φ) |phi+><phi+|: a
    ``DensityMatrix`` on dims (d_in, d_out).

    The matrix must be square of side d_in * d_out, with unit trace
    (``CHOI_TRACE_TOL``, checked before the density-matrix rule) and input
    marginal I/d_in (``CHOI_MARGINAL_TOL``, checked on the stored Hermitian
    part); either defect raises ``NotTracePreservingError``. Finiteness,
    Hermiticity and positivity (``PSD_TOL``) and the stored, read-only
    ``matrix`` are ``DensityMatrix``'s.
    ``CHOI_TRACE_TOL`` (1e-10) is stricter than ``TP_TOL`` (1e-9): a Kraus
    set with a trace-preservation defect between the two loads as a
    ``QuantumChannel`` but has no ``ChoiMatrix``.
    """

    def __init__(self, matrix, d_in: int, d_out: int):
        m = linalg.as_matrix(matrix, square=True)
        if m.shape[0] != d_in * d_out:
            raise DimensionMismatchError(
                f"shape {m.shape} does not match d_in*d_out = {d_in * d_out}"
            )
        _check_choi_trace(m)
        super().__init__(m, (d_in, d_out))
        self.d_in, self.d_out = self.dims
        _check_input_marginal(self.matrix, d_in, d_out)

    def __repr__(self):
        return f"ChoiMatrix(d_in={self.d_in}, d_out={self.d_out})"


def _check_choi_trace(m: np.ndarray) -> None:
    """NotTracePreservingError unless the trace of the Choi matrix ``m``, or
    of each of an (n, D, D) stack, is within CHOI_TRACE_TOL of 1; the error
    names the first failing state of a stack."""
    tr = np.trace(m, axis1=-2, axis2=-1)
    bad = np.flatnonzero(np.abs(tr - 1.0) > CHOI_TRACE_TOL)
    if bad.size:
        raise NotTracePreservingError(
            f"{_state_prefix(m, bad[0])}Choi trace {complex(tr.flat[bad[0]])} deviates from 1")


def _marginal_defects(h: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """max |Tr_out C - I/d_in| of the Choi matrix ``h`` on (d_in, d_out), or
    of each of a stack, on its leading axes."""
    marg = np.einsum("...ikjk->...ij", h.reshape(*h.shape[:-2], d_in, d_out, d_in, d_out))
    return np.abs(marg - np.eye(d_in) / d_in).max(axis=(-2, -1))


def _check_input_marginal(h: np.ndarray, d_in: int, d_out: int) -> None:
    """NotTracePreservingError unless every ``_marginal_defects`` is at most
    CHOI_MARGINAL_TOL; the error names the first failing state of a stack."""
    dev = _marginal_defects(h, d_in, d_out)
    bad = np.flatnonzero(dev > CHOI_MARGINAL_TOL)
    if bad.size:
        raise NotTracePreservingError(
            f"{_state_prefix(h, bad[0])}input marginal deviates from I/d by {dev.flat[bad[0]]:.3e}")


def _choi_states(m: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """The checks of ``ChoiMatrix``, in its order, on an (n, D, D) stack of
    Choi matrices on (d_in, d_out): trace, then ``as_density_stack``, then
    the input marginal. Returns the validated Hermitian parts, as each
    ``ChoiMatrix`` would store them; each error names the first failing state.
    """
    _check_choi_trace(m)
    h = as_density_stack(m)
    _check_input_marginal(h, d_in, d_out)
    return h


def identity_channel(d: int) -> QuantumChannel:
    """The do-nothing channel on d dimensions."""
    return QuantumChannel([np.eye(d, dtype=complex)])


def apply_matrix(ch: QuantumChannel, m) -> np.ndarray:
    """Kraus sum sum_a K_a m K_a† on a raw matrix (no state validation)."""
    m = linalg.as_matrix(m)
    if m.shape != (ch.d_in, ch.d_in):
        raise DimensionMismatchError(f"operand shape {m.shape} != ({ch.d_in}, {ch.d_in})")
    y = ch._stack @ m
    return np.tensordot(y, ch._stack.conj(), axes=([0, 2], [0, 2]))


def apply_on_B(ch: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply (id_A ⊗ Φ) to a bipartite state, blockwise from the unit images Φ(|j><l|)."""
    if not rho.is_bipartite():
        raise DimensionMismatchError("apply_on_B needs a bipartite state")
    da, db = rho.dims
    if db != ch.d_in:
        raise DimensionMismatchError(f"dB={db} != channel d_in {ch.d_in}")
    r4 = rho.matrix.reshape(da, db, da, db)
    out = np.einsum("ijkl,jlop->iokp", r4, _unit_images(ch))
    return DensityMatrix(out.reshape(da * ch.d_out, da * ch.d_out), (da, ch.d_out))


def _choi_array(kraus) -> np.ndarray:
    """(1/d_in) sum_a vec(K_a) vec(K_a)†, vec index i_in * d_out + i_out.

    ``kraus`` is a channel or a Kraus stack (..., n, d_out, d_in) with one
    Kraus set per leading index, which the result keeps. Equals
    (id ⊗ Φ)|phi+><phi+| for a square channel; unvalidated, so it also
    serves non-trace-preserving Kraus sets such as an adjoint.
    """
    stack = kraus._stack if isinstance(kraus, QuantumChannel) else kraus
    *lead, n, d_out, d_in = stack.shape
    vecs = stack.swapaxes(-1, -2).reshape(*lead, n, d_in * d_out) / np.sqrt(d_in)
    return vecs.swapaxes(-1, -2) @ vecs.conj()


def _unit_images(kraus) -> np.ndarray:
    """Φ(|j><l|) for every matrix unit, indexed [..., j, l, o, p] (o, p the output).

    ``kraus`` is a channel or a Kraus stack (..., n, d_out, d_in) with one
    channel per leading index, which the images keep. Entry
    sum_a K_a[o, j] conj(K_a[p, l]), as one matrix product over a per channel.
    """
    stack = kraus._stack if isinstance(kraus, QuantumChannel) else kraus
    *lead, n, d_out, d_in = stack.shape
    flat = stack.reshape(*lead, n, d_out * d_in)
    images = (flat.swapaxes(-1, -2) @ flat.conj()).reshape(*lead, d_out, d_in, d_out, d_in)
    m = len(lead)
    return images.transpose(*range(m), m + 1, m + 3, m, m + 2)  # o, j, p, l -> j, l, o, p


def choi(ch: QuantumChannel) -> ChoiMatrix:
    """Choi state (id ⊗ Φ)|phi+><phi+| of a square channel.

    Its trace must be within ``CHOI_TRACE_TOL`` (1e-10) of 1, stricter than
    the ``TP_TOL`` (1e-9) the channel was loaded with: ``Tr C - 1`` is the
    mean diagonal entry of sum K†K - I, so a channel whose defect lies
    between the two raises ``NotTracePreservingError`` here.
    """
    if not ch.is_square:
        raise NonSquareChannelError("the Choi state is defined for square channels")
    return ChoiMatrix(_choi_array(ch), ch.d_in, ch.d_in)


def _kraus_from_choi_matrix(matrix: np.ndarray, d_in: int, d_out: int
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvector Kraus operators of a (Hermitian, PSD) Choi-like matrix, or
    of each matrix of an (n, D, D) stack (``linalg.hermitian_eig``'s rule).

    Returns the stack (..., D, d_out, d_in) of every eigenvector's operator,
    in ascending order of eigenvalue, and which are kept: those whose
    eigenvalue exceeds CANONICAL_EIG_TOL times the largest. A dropped
    operator is zero. NotPSDError, naming the first failing matrix of a
    stack, if a largest eigenvalue is not positive.
    """
    vals, vecs = linalg._hermitian_eigh(matrix)
    lmax = vals[..., -1:]
    bad = np.flatnonzero(~(lmax > 0))
    if bad.size:
        raise NotPSDError(f"{_state_prefix(matrix, bad[0])}Choi matrix has no positive eigenvalue")
    kept = vals > CANONICAL_EIG_TOL * lmax
    # column v indexed (i_in, i_out) row-major; K[out, in] = sqrt(d*lam) v[in*d_out + out]
    columns = vecs.swapaxes(-1, -2).reshape(*vals.shape, d_in, d_out).swapaxes(-1, -2)
    return np.sqrt(d_in * np.where(kept, vals, 0.0))[..., None, None] * columns, kept


def canonical_kraus(c: ChoiMatrix) -> QuantumChannel:
    """Recover a Kraus representation from a Choi state by eigendecomposition.

    Eigenvalues below ``CANONICAL_EIG_TOL`` times the largest are
    discarded. ``ChoiMatrix`` has validated ``c`` (PSD, unit trace, input
    marginal I/d) and stores its exactly Hermitian part, so the
    eigendecomposition takes it as it is, and the round trip
    choi(canonical_kraus(c)) reproduces the input to about 1e-8.
    """
    ops, kept = _kraus_from_choi_matrix(c.matrix, c.d_in, c.d_out)
    return QuantumChannel(ops[kept])


def compose(first: QuantumChannel, then: QuantumChannel) -> QuantumChannel:
    """Series concatenation: ``then`` after ``first``, Kraus set {L_b K_a}."""
    if first.d_out != then.d_in:
        raise DimensionMismatchError(
            f"cannot chain d_out={first.d_out} into d_in={then.d_in}"
        )
    return QuantumChannel(_composed(first._stack, then._stack))


def _composed(first: np.ndarray, then: np.ndarray) -> np.ndarray:
    """The Kraus stack {L_b K_a}, b-major, of ``then`` after ``first`` for each
    pair of Kraus stacks on their leading axes; each product is the one
    ``L_b @ K_a`` takes."""
    out = then[..., :, None, :, :] @ first[..., None, :, :, :]
    return out.reshape(*out.shape[:-4], -1, *out.shape[-2:])


def tensor(a: QuantumChannel, b: QuantumChannel) -> QuantumChannel:
    """Parallel concatenation with Kraus set {K_a ⊗ R_b}, a-major, each
    entry the one product ``np.kron`` takes (``linalg._kron``)."""
    ops = linalg._kron(a._stack[:, None], b._stack[None])
    return QuantumChannel(ops.reshape(-1, a.d_out * b.d_out, a.d_in * b.d_in))


def adjoint(ch: QuantumChannel) -> QuantumChannel:
    """Heisenberg-picture adjoint, Kraus set {K_a†}; unital, CP, not TP."""
    return QuantumChannel(_adjoint_kraus(ch._stack), check_tp=False)


def _adjoint_kraus(stack: np.ndarray) -> np.ndarray:
    """The Kraus operators K_a† of each Kraus stack on the leading axes."""
    return stack.conj().swapaxes(-1, -2)


def _shift_clock_products(d: int) -> list[np.ndarray]:
    x = np.zeros((d, d), dtype=complex)
    for j in range(d):
        x[(j + 1) % d, j] = 1.0
    z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    ops = []
    xa = np.eye(d, dtype=complex)
    for _ in range(d):
        zb = np.eye(d, dtype=complex)
        for _ in range(d):
            ops.append(xa @ zb)
            zb = zb @ z
        xa = xa @ x
    return ops


def check_kraus_stack(d: int) -> int:
    """Bytes of the d^2 x d x d shift/clock stack; BudgetError above the budget."""
    size = 16 * d**4
    if size > MAX_KRAUS_STACK_BYTES:
        raise BudgetError(
            f"d={d} needs a {size}-byte Kraus stack, over the budget of "
            f"{MAX_KRAUS_STACK_BYTES} bytes "
            f"(d <= {math.isqrt(math.isqrt(MAX_KRAUS_STACK_BYTES // 16))})"
        )
    return size


def _gram_defect(s: float, first, rest) -> float | np.ndarray:
    """max |sum_a K_a†K_a - I| of a named family's channel with weights first
    and rest (arrays for an array of p), checked against TP_TOL by
    ``_require_tp``: every basis has B_0 = I and diagonal B_a†B_a, whose sum
    over a >= 1 is s I (the family's ``_KRAUS_FAMILIES`` Gram sum), so the
    defect is |first^2 + s rest^2 - 1|, a float for one pair."""
    dev = abs(first * first + s * (rest * rest) - 1.0)
    return _require_tp(float(dev) if isinstance(dev, float) else dev)


def _check_point(family: str, d: int, name: str, p) -> None:
    """ParamOutOfRangeError unless d >= 2 and 0 <= p <= 1 (each p of an array); NaN fails."""
    if d < 2:
        raise ParamOutOfRangeError(f"{family} needs d >= 2")
    if not (((0.0 <= p) & (p <= 1.0)).all() if isinstance(p, np.ndarray) else 0.0 <= p <= 1.0):
        raise ParamOutOfRangeError(f"{name}={p} outside [0, 1]")


def _weight_rows(first, rest, n: int) -> np.ndarray:
    """n weights (first, rest, ..., rest) on a last axis after their shape."""
    weights = np.empty(getattr(rest, "shape", ()) + (n,))  # np.shape would convert a float
    weights[...] = rest[..., None]
    weights[..., 0] = first
    return weights


def _depolarizing_weights(d: int, p):
    _check_point("depolarizing", d, "p", p)
    return np.sqrt(p + (1.0 - p) / d**2), np.sqrt((1.0 - p) / d**2)


@functools.lru_cache(maxsize=8)
def _depolarizing_basis(d: int) -> np.ndarray:
    """The read-only stack of the d^2 shift/clock unitaries X^a Z^b;
    BudgetError above the stack budget."""
    check_kraus_stack(d)
    stack = np.stack(_shift_clock_products(d))
    stack.flags.writeable = False
    return stack


def _dephasing_weights(d: int, v):
    _check_point("dephasing", d, "v", v)
    return np.sqrt(v), np.sqrt(1.0 - v)


@functools.lru_cache(maxsize=8)
def _dephasing_basis(d: int) -> np.ndarray:
    """The read-only stack of I followed by the d basis projectors |i><i|."""
    idx = np.arange(d)
    stack = np.zeros((d + 1, d, d), dtype=complex)
    stack[0, idx, idx] = 1.0
    stack[idx + 1, idx, idx] = 1.0
    stack.flags.writeable = False
    return stack


# Each named family's weights (first, rest) at (d, p), which check d and p, its
# per-d cached basis stack B_a (a bounded lru_cache; B_0 = I), and its Gram sum
# at d, sum_{a >= 1} B_a†B_a = s I: every B_a of depolarizing is unitary, and
# the projectors of dephasing sum to I. The same keys as analysis.FAMILIES.
_KRAUS_FAMILIES = {
    "depolarizing": (_depolarizing_weights, _depolarizing_basis, lambda d: d * d - 1.0),
    "dephasing": (_dephasing_weights, _dephasing_basis, lambda d: 1.0),
}


def _family_point(family: str, d: int, p):
    """Weights first and rest, basis stack and TP defect at (d, p) (arrays for
    an array of p), checked in order: d and p, d budget, TP."""
    weights, basis, gram_sum = _KRAUS_FAMILIES[family]
    first, rest = weights(d, p)
    stack = basis(d)
    return first, rest, stack, _gram_defect(gram_sum(d), first, rest)


def _family_channel(family: str, d: int, p: float) -> QuantumChannel:
    first, rest, stack, defect = _family_point(family, d, p)
    ch = QuantumChannel(_weight_rows(first, rest, len(stack))[:, None, None] * stack,
                        check_tp=False)
    ch._tp_defect = defect
    return ch


def depolarizing(d: int, p: float) -> QuantumChannel:
    """Depolarizing channel rho -> p rho + (1-p) Tr(rho) I/d.

    Kraus realization: the identity weighted sqrt(p + (1-p)/d^2) plus
    the remaining d^2 - 1 shift/clock unitaries each weighted
    sqrt((1-p)/d^2); the unitary twirl identity makes the action match
    the formula exactly. The unitaries are a per-d cached read-only stack.
    Trace preservation (``TP_TOL``) is checked from the exact Gram sums,
    |first^2 + (d^2 - 1) rest^2 - 1| (``_gram_defect``), not from the Kraus
    sum. d with a stack over ``MAX_KRAUS_STACK_BYTES`` raises BudgetError.
    """
    return _family_channel("depolarizing", d, p)


def dephasing(d: int, v: float) -> QuantumChannel:
    """Dephasing channel: off-diagonal entries scaled by v, diagonal kept.

    Kraus realization: sqrt(v) I plus sqrt(1-v) |i><i| for each basis
    projector, on a per-d cached read-only stack; trace preservation is
    checked as for ``depolarizing``, from |first^2 + rest^2 - 1|. d is not
    capped here.
    """
    return _family_channel("dephasing", d, v)


def action_distance(a: QuantumChannel, b: QuantumChannel) -> float:
    """Max entrywise difference of the two channel actions over all matrix units."""
    if (a.d_in, a.d_out) != (b.d_in, b.d_out):
        raise DimensionMismatchError("channels act on different spaces")
    return float(_action_distances(a._stack, b._stack))


def _action_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``action_distance`` of each pair of Kraus stacks on their leading axes."""
    return np.abs(_unit_images(a) - _unit_images(b)).max(axis=(-4, -3, -2, -1))


def random_channel(d: int, n_kraus: int, seed) -> QuantumChannel:
    """Random CPTP channel from a Haar-random Stinespring isometry."""
    if n_kraus < 1:
        raise ValueError("n_kraus must be >= 1")
    rng = np.random.default_rng(seed)
    return QuantumChannel(_stinespring_kraus(rng.standard_normal(2 * n_kraus * d * d), d, n_kraus))


def _stinespring_kraus(g: np.ndarray, d: int, n_kraus: int) -> np.ndarray:
    """The Kraus stack (..., n_kraus, d, d) of ``random_channel`` from its draws
    on the last axis of ``g`` (..., 2 n_kraus d^2): the blocks of d rows of Q in
    the QR of the (n_kraus d) x d complex Gaussian matrix, whose real and then
    imaginary parts are drawn row-major."""
    part = g.reshape(*g.shape[:-1], 2, n_kraus * d, d)
    q, _ = np.linalg.qr(part[..., 0, :, :] + 1j * part[..., 1, :, :])
    return q.reshape(*q.shape[:-2], n_kraus, d, d)


def random_channel_with_kraus_rank(d: int, r: int, seed) -> QuantumChannel:
    """Random channel whose Kraus operators all have rank exactly ``r``.

    Each Kraus is a Haar unitary times the projector onto a cyclic window
    of ``r`` basis vectors, weighted 1/sqrt(r); every basis index is
    covered by exactly r windows, so the set is trace-preserving. The
    Choi state of such a channel has Schmidt number at most r.
    """
    if not 1 <= r <= d:
        raise ValueError(f"rank {r} not in [1, {d}]")
    rng = np.random.default_rng(seed)
    ops = []
    for start in range(d):
        proj = np.zeros((d, d), dtype=complex)
        for offset in range(r):
            idx = (start + offset) % d
            proj[idx, idx] = 1.0
        ops.append(haar_unitary(d, rng) @ proj / np.sqrt(r))
    return QuantumChannel(ops)


def channel_to_json(ch: QuantumChannel) -> str:
    """Serialize to the wire format {d_in, d_out, kraus: [flat row-major [re, im] pairs]}."""
    payload = {
        "d_in": ch.d_in,
        "d_out": ch.d_out,
        "kraus": [
            [[float(z.real), float(z.imag)] for z in k.reshape(-1)] for k in ch.kraus
        ],
    }
    return json.dumps(payload)


def channel_from_json(text: str) -> QuantumChannel:
    """Parse the wire format produced by :func:`channel_to_json`.

    Every malformed document raises ValueError, the base of the library's
    error types.
    """
    try:
        payload = json.loads(text)
    except RecursionError as exc:
        raise ValueError("channel document is nested too deeply") from exc
    if not isinstance(payload, dict) or not {"d_in", "d_out", "kraus"} <= payload.keys():
        raise ValueError("a channel document is an object with d_in, d_out and kraus")
    d_in, d_out, raw = payload["d_in"], payload["d_out"], payload["kraus"]
    if not (all(type(n) is int and n >= 1 for n in (d_in, d_out)) and isinstance(raw, list)):
        raise ValueError("d_in and d_out must be positive integers and kraus a list")
    ops = []
    for entries in raw:
        if not isinstance(entries, list) or len(entries) != d_in * d_out:
            raise DimensionMismatchError(
                f"each Kraus operator needs d_in*d_out = {d_in * d_out} entries"
            )
        if not all(isinstance(z, list) and len(z) == 2
                   and all(type(x) in (int, float) for x in z) for z in entries):
            raise ValueError("Kraus entries must be [re, im] pairs of numbers")
        try:
            flat = np.array(entries, dtype=float)
        except OverflowError as exc:  # a JSON integer too large for a float
            raise ValueError("Kraus entries must be finite") from exc
        if not np.all(np.isfinite(flat)):
            raise ValueError("Kraus entries must be finite")
        ops.append(flat.view(complex).reshape(d_out, d_in))
    return QuantumChannel(ops)
