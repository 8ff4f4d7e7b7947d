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
from typing import NamedTuple

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
from .states import DensityMatrix, haar_unitary

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
        a named family's channel holds the defect of its Gram-diagonal check."""
        if self._tp_defect is None:
            self._tp_defect = _kraus_sum_defect(self._stack)
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


def _kraus_sum_defect(stack: np.ndarray) -> float:
    """max |sum_a K_a†K_a - I| of an (n, d_out, d_in) Kraus stack."""
    flat = stack.reshape(-1, stack.shape[2])  # rows (a, o): sum K†K = flat† flat
    with np.errstate(over="ignore", invalid="ignore"):  # overflow reads as inf/NaN
        acc = flat.conj().T @ flat
    return float(np.max(np.abs(acc - np.eye(stack.shape[2]))))


def _require_tp(dev: float) -> float:
    """``dev`` itself; NotTracePreservingError unless it is at most TP_TOL."""
    if not dev <= TP_TOL:  # a NaN defect (overflowed entries) fails too
        raise NotTracePreservingError(f"max |sum K†K - I| = {dev:.3e} exceeds {TP_TOL:.1e}")
    return dev


def _check_tp(ch: QuantumChannel) -> None:
    """NotTracePreservingError unless ``ch.trace_preservation_defect() <= TP_TOL``."""
    _require_tp(ch.trace_preservation_defect())


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
        tr = np.trace(m)
        if abs(tr - 1.0) > CHOI_TRACE_TOL:
            raise NotTracePreservingError(f"Choi trace {complex(tr)} deviates from 1")
        super().__init__(m, (d_in, d_out))
        self.d_in, self.d_out = self.dims
        marg = np.einsum("ikjk->ij", self.matrix.reshape(d_in, d_out, d_in, d_out))
        dev = np.max(np.abs(marg - np.eye(d_in) / d_in))
        if dev > CHOI_MARGINAL_TOL:
            raise NotTracePreservingError(
                f"input marginal deviates from I/d by {dev:.3e}"
            )

    def __repr__(self):
        return f"ChoiMatrix(d_in={self.d_in}, d_out={self.d_out})"


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


def _choi_array(ch: QuantumChannel) -> np.ndarray:
    """(1/d_in) sum_a vec(K_a) vec(K_a)†, vec index i_in * d_out + i_out.

    Equals (id ⊗ Φ)|phi+><phi+| for a square channel; unvalidated, so it
    also serves non-trace-preserving Kraus sets such as an adjoint.
    """
    vecs = ch._stack.transpose(0, 2, 1).reshape(len(ch), -1) / np.sqrt(ch.d_in)
    return vecs.T @ vecs.conj()


def _unit_images(ch: QuantumChannel) -> np.ndarray:
    """Φ(|j><l|) for every matrix unit, indexed [j, l, o, p] (o, p the output).

    Entry sum_a K_a[o, j] conj(K_a[p, l]), as one matrix product over a.
    """
    d_out, d_in = ch.d_out, ch.d_in
    flat = ch._stack.reshape(len(ch), -1)
    return (flat.T @ flat.conj()).reshape(d_out, d_in, d_out, d_in).transpose(1, 3, 0, 2)


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


def _kraus_from_choi_matrix(matrix: np.ndarray, d_in: int, d_out: int) -> list[np.ndarray]:
    """Eigenvector Kraus operators of a (Hermitian, PSD) Choi-like matrix."""
    vals, vecs = linalg.hermitian_eig(matrix)
    lmax = float(vals[-1])
    if lmax <= 0:
        raise NotPSDError("Choi matrix has no positive eigenvalue")
    ops = []
    for lam, v in zip(vals, vecs.T):
        if lam > CANONICAL_EIG_TOL * lmax:
            # v indexed (i_in, i_out) row-major; K[out, in] = sqrt(d*lam) v[in*d_out + out]
            ops.append(np.sqrt(d_in * lam) * v.reshape(d_in, d_out).T)
    return ops


def canonical_kraus(c: ChoiMatrix) -> QuantumChannel:
    """Recover a Kraus representation from a Choi state by eigendecomposition.

    Eigenvalues below ``CANONICAL_EIG_TOL`` times the largest are
    discarded. ``ChoiMatrix`` has validated ``c`` (PSD, unit trace, input
    marginal I/d) and stores its exactly Hermitian part, so the
    eigendecomposition takes it as it is, and the round trip
    choi(canonical_kraus(c)) reproduces the input to about 1e-8.
    """
    return QuantumChannel(_kraus_from_choi_matrix(c.matrix, c.d_in, c.d_out))


def compose(first: QuantumChannel, then: QuantumChannel) -> QuantumChannel:
    """Series concatenation: ``then`` after ``first``, Kraus set {L_b K_a}."""
    if first.d_out != then.d_in:
        raise DimensionMismatchError(
            f"cannot chain d_out={first.d_out} into d_in={then.d_in}"
        )
    ops = [l @ k for l in then.kraus for k in first.kraus]
    return QuantumChannel(ops)


def tensor(a: QuantumChannel, b: QuantumChannel) -> QuantumChannel:
    """Parallel concatenation with Kraus set {K_a ⊗ R_b}, a-major: one
    broadcast product, each entry the one product ``np.kron`` takes."""
    ka, kb = a._stack, b._stack
    ops = ka[:, None, :, None, :, None] * kb[None, :, None, :, None, :]
    return QuantumChannel(ops.reshape(len(ka) * len(kb), a.d_out * b.d_out, a.d_in * b.d_in))


def adjoint(ch: QuantumChannel) -> QuantumChannel:
    """Heisenberg-picture adjoint, Kraus set {K_a†}; unital, CP, not TP."""
    return QuantumChannel([linalg.dagger(k) for k in ch.kraus], check_tp=False)


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


class KrausBasis(NamedTuple):
    """The Kraus basis B_a of a named family at one d, whose channel at
    parameter p is the stack w(p)·B, K_a = w_a(p) B_a; every array read-only.

    Every B_a†B_a of both bases is diagonal (I or a basis projector), so
    sum_a K_a†K_a = sum_a w_a^2 B_a†B_a is read off ``gram_diagonals``:
    row i holds (B_a†B_a)[i, i] = |B_a e_i|^2 for every a, and each
    diagonal entry is one pairwise sum along that row. ``diagonals``
    holds the diagonal of each B_a, so that
    ``(w[:, None] * diagonals).sum(axis=1)`` are the traces Tr K_a, equal
    to ``np.trace`` of the stack bit for bit.
    """

    stack: np.ndarray  # (n, d, d)
    gram_diagonals: np.ndarray  # (d, n), real
    diagonals: np.ndarray  # (n, d)

    @classmethod
    def of(cls, stack: np.ndarray) -> KrausBasis:
        gram_diagonals = (stack.real**2 + stack.imag**2).sum(axis=1).T
        diagonals = stack.diagonal(axis1=1, axis2=2)
        arrays = stack, np.ascontiguousarray(gram_diagonals), np.ascontiguousarray(diagonals)
        for a in arrays:
            a.flags.writeable = False
        return cls(*arrays)

    def tp_defect(self, w: np.ndarray) -> float | np.ndarray:
        """max |sum_a w_a^2 B_a†B_a - I|, the trace-preservation defect of
        w·B, for each row of weights on w's last axis (a float for one row),
        checked against TP_TOL with ``QuantumChannel``'s error, which names
        the first defect over it."""
        dev = np.abs((self.gram_diagonals * (w * w)[..., None, :]).sum(axis=-1) - 1.0).max(axis=-1)
        if dev.ndim == 0:
            return _require_tp(float(dev))
        _require_tp(float(dev.flat[np.argmin(dev <= TP_TOL)]))  # a NaN defect fails too
        return dev


def _in_unit_interval(p) -> bool:
    """0 <= p <= 1 for a float, or for every entry of an array; NaN fails."""
    if isinstance(p, np.ndarray):
        return bool(((0.0 <= p) & (p <= 1.0)).all())
    return 0.0 <= p <= 1.0


def _weight_rows(p, first, rest, n: int) -> np.ndarray:
    """n weights (first, rest, ..., rest) on a last axis after p's shape: one
    row for a float p, one per entry of an array of p."""
    weights = np.empty(getattr(p, "shape", ()) + (n,))  # np.shape would convert a float
    weights[...] = rest[..., None]
    weights[..., 0] = first
    return weights


def _depolarizing_weights(d: int, p) -> np.ndarray:
    if d < 2:
        raise ParamOutOfRangeError("depolarizing needs d >= 2")
    if not _in_unit_interval(p):
        raise ParamOutOfRangeError(f"p={p} outside [0, 1]")
    return _weight_rows(p, np.sqrt(p + (1.0 - p) / d**2), np.sqrt((1.0 - p) / d**2), d * d)


@functools.lru_cache(maxsize=8)
def _depolarizing_basis(d: int) -> KrausBasis:
    """The d^2 shift/clock unitaries X^a Z^b; BudgetError above the stack budget."""
    check_kraus_stack(d)
    return KrausBasis.of(np.stack(_shift_clock_products(d)))


def _dephasing_weights(d: int, v) -> np.ndarray:
    if d < 2:
        raise ParamOutOfRangeError("dephasing needs d >= 2")
    if not _in_unit_interval(v):
        raise ParamOutOfRangeError(f"v={v} outside [0, 1]")
    return _weight_rows(v, np.sqrt(v), np.sqrt(1.0 - v), d + 1)


@functools.lru_cache(maxsize=8)
def _dephasing_basis(d: int) -> KrausBasis:
    """I followed by the d basis projectors |i><i|."""
    idx = np.arange(d)
    stack = np.zeros((d + 1, d, d), dtype=complex)
    stack[0, idx, idx] = 1.0
    stack[idx + 1, idx, idx] = 1.0
    return KrausBasis.of(stack)


# Each named family's weights w(d, p), which check d and p, and its per-d
# cached basis (a bounded lru_cache); the same keys as analysis.FAMILIES.
_KRAUS_FAMILIES = {
    "depolarizing": (_depolarizing_weights, _depolarizing_basis),
    "dephasing": (_dephasing_weights, _dephasing_basis),
}


def _family_point(family: str, d: int, p) -> tuple[np.ndarray, KrausBasis, float | np.ndarray]:
    """Weights, basis and Gram-diagonal trace-preservation defect at (d, p);
    for an array of p, one row of weights and one defect per entry."""
    weights, basis = _KRAUS_FAMILIES[family]
    w = weights(d, p)
    b = basis(d)
    return w, b, b.tp_defect(w)


def _family_kraus_traces(family: str, d: int, p) -> np.ndarray:
    """Tr K_a of the named family's channel at (d, p), one row per entry of
    an array of p, equal bit for bit to ``np.trace`` of the stack that
    ``depolarizing``/``dephasing`` build, and under the same checks in the
    same order (parameter range, d budget, TP check from the Gram
    diagonals); no channel is built."""
    w, b, _ = _family_point(family, d, p)
    return (w[..., None] * b.diagonals).sum(axis=-1)


def _family_channel(family: str, d: int, p: float) -> QuantumChannel:
    w, b, defect = _family_point(family, d, p)
    ch = QuantumChannel(w[:, None, None] * b.stack, check_tp=False)
    ch._tp_defect = defect
    return ch


def depolarizing(d: int, p: float) -> QuantumChannel:
    """Depolarizing channel rho -> p rho + (1-p) Tr(rho) I/d.

    Kraus realization: the identity weighted sqrt(p + (1-p)/d^2) plus
    the remaining d^2 - 1 shift/clock unitaries each weighted
    sqrt((1-p)/d^2); the unitary twirl identity makes the action match
    the formula exactly. The unitaries come from a per-d cached,
    read-only ``KrausBasis``, and the weights are broadcast into it.
    Trace preservation is checked from the cached Gram diagonals,
    sum_a w_a^2 |B_a e_i|^2 (every B_a†B_a is I), against ``TP_TOL``, not
    from the Kraus sum. d with a stack over ``MAX_KRAUS_STACK_BYTES``
    raises BudgetError.
    """
    return _family_channel("depolarizing", d, p)


def dephasing(d: int, v: float) -> QuantumChannel:
    """Dephasing channel: off-diagonal entries scaled by v, diagonal kept.

    Kraus realization: sqrt(v) I plus sqrt(1-v) |i><i| for each basis
    projector, the weights broadcast into a per-d cached, read-only
    ``KrausBasis``; trace preservation is checked from its Gram diagonals
    (each B_a†B_a is I or a projector), as for ``depolarizing``. d is not
    capped here.
    """
    return _family_channel("dephasing", d, v)


def action_distance(a: QuantumChannel, b: QuantumChannel) -> float:
    """Max entrywise difference of the two channel actions over all matrix units."""
    if (a.d_in, a.d_out) != (b.d_in, b.d_out):
        raise DimensionMismatchError("channels act on different spaces")
    return float(np.max(np.abs(_unit_images(a) - _unit_images(b))))


def random_channel(d: int, n_kraus: int, seed) -> QuantumChannel:
    """Random CPTP channel from a Haar-random Stinespring isometry."""
    if n_kraus < 1:
        raise ValueError("n_kraus must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_kraus * d, d)) + 1j * rng.standard_normal((n_kraus * d, d))
    q, _ = np.linalg.qr(g)
    return QuantumChannel([q[i * d:(i + 1) * d, :] for i in range(n_kraus)])


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
