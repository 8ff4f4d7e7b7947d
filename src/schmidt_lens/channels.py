"""Quantum channels as Kraus-operator lists.

Channel identity is semantic, not representational: two Kraus lists
describe the same channel iff their actions agree on a full matrix
basis, so equality checks always go through ``action_distance`` rather
than comparing Kraus operators.
"""

from __future__ import annotations

import json

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    NonSquareChannelError,
    NotPSDError,
    NotTracePreservingError,
    ParamOutOfRangeError,
)
from .states import DensityMatrix, haar_unitary

TP_TOL = 1e-9
CHOI_PSD_TOL = 1e-9
CHOI_TRACE_TOL = 1e-10
CHOI_MARGINAL_TOL = 1e-9
# Relative eigenvalue cutoff used when recovering Kraus operators from a Choi
# matrix; consistent with linalg.RANK_TOL scaled to eigenvalues.
CANONICAL_EIG_TOL = 1e-10


class QuantumChannel:
    """Completely positive map given by a list of d_out x d_in Kraus operators.

    Trace preservation (sum K†K = I) is validated on construction unless
    ``check_tp=False``; the adjoint of a channel is completely positive
    and unital but generally not trace-preserving, so it is built with
    the check disabled.
    """

    def __init__(self, kraus, check_tp: bool = True):
        ops = [linalg.as_matrix(k) for k in kraus]
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        d_out, d_in = ops[0].shape
        for k in ops:
            if k.shape != (d_out, d_in):
                raise DimensionMismatchError("Kraus operators must share one shape")
        self.kraus = tuple(ops)
        self.d_in = d_in
        self.d_out = d_out
        self._stack = np.stack(ops)
        if check_tp:
            dev = self.trace_preservation_defect()
            if dev > TP_TOL:
                raise NotTracePreservingError(
                    f"max |sum K†K - I| = {dev:.3e} exceeds {TP_TOL:.1e}"
                )

    def trace_preservation_defect(self) -> float:
        acc = np.tensordot(self._stack.conj(), self._stack, axes=([0, 1], [0, 1]))
        return float(np.max(np.abs(acc - np.eye(self.d_in))))

    @property
    def is_square(self) -> bool:
        return self.d_in == self.d_out

    def __len__(self):
        return len(self.kraus)

    def __repr__(self):
        return f"QuantumChannel(d_in={self.d_in}, d_out={self.d_out}, n_kraus={len(self.kraus)})"


class ChoiMatrix:
    """Normalized Choi state of a channel: (id ⊗ Φ) |phi+><phi+|."""

    def __init__(self, matrix, d_in: int, d_out: int):
        m = linalg.as_matrix(matrix, square=True)
        if m.shape[0] != d_in * d_out:
            raise DimensionMismatchError(
                f"shape {m.shape} does not match d_in*d_out = {d_in * d_out}"
            )
        tr = np.trace(m)
        if abs(tr - 1.0) > CHOI_TRACE_TOL:
            raise ValueError(f"Choi trace {tr!r} deviates from 1")
        lo = float(np.linalg.eigvalsh((m + linalg.dagger(m)) / 2.0)[0])
        if lo < -CHOI_PSD_TOL:
            raise NotPSDError(f"Choi minimum eigenvalue {lo:.3e}; map is not CP")
        marg = linalg.partial_trace(m, (d_in, d_out), keep=0)
        dev = np.max(np.abs(marg - np.eye(d_in) / d_in))
        if dev > CHOI_MARGINAL_TOL:
            raise NotTracePreservingError(
                f"input marginal deviates from I/d by {dev:.3e}"
            )
        self.matrix = m
        self.d_in = d_in
        self.d_out = d_out

    @property
    def dims(self) -> tuple[int, int]:
        return (self.d_in, self.d_out)

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


def apply(ch: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply the channel to a state."""
    if rho.dim != ch.d_in:
        raise DimensionMismatchError(f"state dim {rho.dim} != channel d_in {ch.d_in}")
    return DensityMatrix(apply_matrix(ch, rho.matrix), (ch.d_out,))


def apply_on_B(ch: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply (id_A ⊗ Φ) to a bipartite state; Φ acts on the B factor."""
    if not rho.is_bipartite():
        raise DimensionMismatchError("apply_on_B needs a bipartite state")
    da, db = rho.dims
    if db != ch.d_in:
        raise DimensionMismatchError(f"dB={db} != channel d_in {ch.d_in}")
    ident = np.eye(da, dtype=complex)
    lifted = QuantumChannel(
        [np.kron(ident, k) for k in ch.kraus], check_tp=False
    )
    out = apply_matrix(lifted, rho.matrix)
    return DensityMatrix(out, (da, ch.d_out))


def _choi_array(ch: QuantumChannel) -> np.ndarray:
    """(1/d_in) sum_a vec(K_a) vec(K_a)†, vec index i_in * d_out + i_out.

    Equals (id ⊗ Φ)|phi+><phi+| for a square channel; unvalidated, so it
    also serves non-trace-preserving Kraus sets such as an adjoint.
    """
    # Scaling before the product fixes the rounding that the golden
    # threshold reports depend on (see witness_value).
    vecs = ch._stack.transpose(0, 2, 1).reshape(len(ch), -1) / np.sqrt(ch.d_in)
    return vecs.T @ vecs.conj()


def choi(ch: QuantumChannel) -> ChoiMatrix:
    """Choi state (id ⊗ Φ)|phi+><phi+| of a square channel."""
    if not ch.is_square:
        raise NonSquareChannelError("the Choi state is defined for square channels")
    return ChoiMatrix(_choi_array(ch), ch.d_in, ch.d_in)


def _kraus_from_choi_matrix(matrix: np.ndarray, d_in: int, d_out: int,
                            tol: float = CANONICAL_EIG_TOL) -> list[np.ndarray]:
    """Eigenvector Kraus operators of a (Hermitian, PSD) Choi-like matrix."""
    vals, vecs = linalg.hermitian_eig(matrix)
    lmax = float(vals[-1])
    if lmax <= 0:
        raise NotPSDError("Choi matrix has no positive eigenvalue")
    ops = []
    for lam, v in zip(vals, vecs.T):
        if lam > tol * lmax:
            # v indexed (i_in, i_out) row-major; K[out, in] = sqrt(d*lam) v[in*d_out + out]
            ops.append(np.sqrt(d_in * lam) * v.reshape(d_in, d_out).T)
    return ops


def canonical_kraus(c: ChoiMatrix) -> QuantumChannel:
    """Recover a Kraus representation from a Choi state by eigendecomposition.

    Eigenvalues below ``CANONICAL_EIG_TOL`` times the largest are
    discarded. The round trip choi(canonical_kraus(c)) reproduces the
    input to about 1e-8 for any Choi state satisfying the class
    invariants.
    """
    lo = float(np.linalg.eigvalsh(c.matrix)[0])
    if lo < -CHOI_PSD_TOL:
        raise NotPSDError(f"Choi minimum eigenvalue {lo:.3e}")
    marg = linalg.partial_trace(c.matrix, c.dims, keep=0)
    if np.max(np.abs(marg - np.eye(c.d_in) / c.d_in)) > CHOI_MARGINAL_TOL:
        raise NotTracePreservingError("Choi input marginal deviates from I/d")
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
    """Parallel concatenation with Kraus set {K_a ⊗ R_b}."""
    ops = [np.kron(k, r) for k in a.kraus for r in b.kraus]
    return QuantumChannel(ops)


def adjoint(ch: QuantumChannel) -> QuantumChannel:
    """Heisenberg-picture adjoint, Kraus set {K_a†}; unital, CP, not TP."""
    return QuantumChannel([linalg.dagger(k) for k in ch.kraus], check_tp=False)


def shift_clock_unitaries(d: int) -> list[np.ndarray]:
    """The d^2 generalized Pauli unitaries X^a Z^b (identity first)."""
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


def depolarizing(d: int, p: float) -> QuantumChannel:
    """Depolarizing channel rho -> p rho + (1-p) Tr(rho) I/d.

    Kraus realization: the identity weighted sqrt(p + (1-p)/d^2) plus
    the remaining d^2 - 1 shift/clock unitaries each weighted
    sqrt((1-p)/d^2); the unitary twirl identity makes the action match
    the formula exactly.
    """
    if d < 2:
        raise ParamOutOfRangeError("depolarizing needs d >= 2")
    if not 0.0 <= p <= 1.0:
        raise ParamOutOfRangeError(f"p={p} outside [0, 1]")
    ws = shift_clock_unitaries(d)
    w_rest = np.sqrt((1.0 - p) / d**2)
    ops = [np.sqrt(p + (1.0 - p) / d**2) * ws[0]]
    ops.extend(w_rest * w for w in ws[1:])
    return QuantumChannel(ops)


def dephasing(d: int, v: float) -> QuantumChannel:
    """Dephasing channel: off-diagonal entries scaled by v, diagonal kept.

    Kraus realization: sqrt(v) I plus sqrt(1-v) |i><i| for each basis
    projector.
    """
    if d < 2:
        raise ParamOutOfRangeError("dephasing needs d >= 2")
    if not 0.0 <= v <= 1.0:
        raise ParamOutOfRangeError(f"v={v} outside [0, 1]")
    ops = [np.sqrt(v) * np.eye(d, dtype=complex)]
    for i in range(d):
        proj = np.zeros((d, d), dtype=complex)
        proj[i, i] = np.sqrt(1.0 - v)
        ops.append(proj)
    return QuantumChannel(ops)


def is_cptp(ch: QuantumChannel, tol: float = 1e-9) -> bool:
    """True iff the Kraus set is trace-preserving and its Choi-like matrix is PSD."""
    if ch.trace_preservation_defect() > tol:
        return False
    return float(np.linalg.eigvalsh(_choi_array(ch))[0]) >= -tol


def action_distance(a: QuantumChannel, b: QuantumChannel) -> float:
    """Max entrywise difference of the two channel actions over all matrix units."""
    if (a.d_in, a.d_out) != (b.d_in, b.d_out):
        raise DimensionMismatchError("channels act on different spaces")
    d = a.d_in
    worst = 0.0
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            worst = max(worst, float(np.max(np.abs(apply_matrix(a, unit) - apply_matrix(b, unit)))))
    return worst


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
    """Parse the wire format produced by :func:`channel_to_json`."""
    payload = json.loads(text)
    try:
        d_in = int(payload["d_in"])
        d_out = int(payload["d_out"])
        raw = payload["kraus"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed channel document: {exc}") from exc
    ops = []
    for entries in raw:
        if len(entries) != d_in * d_out:
            raise DimensionMismatchError(
                f"Kraus entry count {len(entries)} != d_in*d_out = {d_in * d_out}"
            )
        flat = np.array([complex(re, im) for re, im in entries])
        ops.append(flat.reshape(d_out, d_in))
    return QuantumChannel(ops)
