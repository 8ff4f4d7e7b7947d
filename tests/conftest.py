"""Shared fixtures and loop-based reference implementations.

The reference functions here deliberately use explicit index loops so
they stay independent of the vectorized library code they are used to
check.
"""

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def ref_apply_kraus(kraus, rho):
    out = np.zeros_like(np.asarray(rho, dtype=complex))
    for k in kraus:
        out += k @ rho @ k.conj().T
    return out


def ref_partial_trace(m, da, db, keep):
    m = np.asarray(m)
    if keep == 0:
        out = np.zeros((da, da), dtype=complex)
        for i in range(da):
            for j in range(da):
                for k in range(db):
                    out[i, j] += m[i * db + k, j * db + k]
    else:
        out = np.zeros((db, db), dtype=complex)
        for i in range(db):
            for j in range(db):
                for k in range(da):
                    out[i, j] += m[k * db + i, k * db + j]
    return out


def ref_partial_transpose(m, da, db, which):
    m = np.asarray(m)
    out = np.zeros_like(m)
    for ia in range(da):
        for ib in range(db):
            for ja in range(da):
                for jb in range(db):
                    if which == 0:
                        out[ia * db + ib, ja * db + jb] = m[ja * db + ib, ia * db + jb]
                    else:
                        out[ia * db + ib, ja * db + jb] = m[ia * db + jb, ja * db + ib]
    return out


def ref_id_lambda(m, da, db, k):
    """(id ⊗ Lambda_k) block by block."""
    m = np.asarray(m)
    out = np.zeros_like(m)
    for i in range(da):
        for j in range(da):
            block = m[i * db:(i + 1) * db, j * db:(j + 1) * db]
            out[i * db:(i + 1) * db, j * db:(j + 1) * db] = (
                np.trace(block) * np.eye(db) - k * block
            )
    return out


def ref_two_local_output(kraus, q):
    """(Φ ⊗ Φ)|psi_q><psi_q| by a loop over the Kraus pairs (K_a, K_b).

    K_a ⊗ K_b maps sum_j sqrt(q_j) |jj> to the vector v_ab of K_a diag(sqrt(q)) K_b^T,
    and the output is sum_ab v_ab v_ab†. So the pair channel is never held in
    memory, and the loop shares no code with the library's two-local kernels.
    """
    scaled = [a * np.sqrt(np.asarray(q, dtype=float)) for a in kraus]  # K_a diag(sqrt(q))
    vecs = np.array([(left @ b.T).reshape(-1) for left in scaled for b in kraus])
    return vecs.T @ vecs.conj()


def ref_two_local_min_eig(kraus, q, k):
    """Minimum eigenvalue of (id ⊗ Lambda_k)((Φ ⊗ Φ)|psi_q><psi_q|), by loops."""
    d = len(q)
    return np.linalg.eigvalsh(ref_id_lambda(ref_two_local_output(kraus, q), d, d, k))[0]


def ref_shift_clock(d):
    """The d^2 unitaries X^a Z^b, identity first, built one product at a time."""
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


def ref_depolarizing_kraus(d, p):
    """Per-operator depolarizing Kraus list: weighted identity, then the other unitaries."""
    ws = ref_shift_clock(d)
    w_rest = np.sqrt((1.0 - p) / d**2)
    ops = [np.sqrt(p + (1.0 - p) / d**2) * ws[0]]
    ops.extend(w_rest * w for w in ws[1:])
    return ops


def ref_dephasing_kraus(d, v):
    """Per-operator dephasing Kraus list: sqrt(v) I, then sqrt(1-v) |i><i|."""
    ops = [np.sqrt(v) * np.eye(d, dtype=complex)]
    for i in range(d):
        proj = np.zeros((d, d), dtype=complex)
        proj[i, i] = np.sqrt(1.0 - v)
        ops.append(proj)
    return ops


def ref_schmidt_amplitudes(dA, dB, lam, g):
    """``states._schmidt_amplitudes`` with each local basis sliced from a full
    d x d Haar unitary: the QR of the whole Gaussian matrix, R's phases fixed,
    and then its first r columns kept."""
    lam = np.maximum(lam, 0.01)  # states.COEFFICIENT_FLOOR
    lam = lam / lam.sum(axis=-1, keepdims=True)
    r = lam.shape[-1]
    bases = []
    for d, part in ((dA, g[:, :2 * dA * dA]), (dB, g[:, 2 * dA * dA:])):
        part = part.reshape(-1, 2, d, d)
        q, upper = np.linalg.qr((part[:, 0] + 1j * part[:, 1]) / np.sqrt(2.0), mode="complete")
        diag = np.diagonal(upper, axis1=-2, axis2=-1)
        bases.append((q * (diag / np.abs(diag))[..., None, :])[..., :r])
    return np.einsum("ti,tai,tbi->tab", np.sqrt(lam), *bases).reshape(len(lam), dA * dB)


def ref_pure_with_schmidt_rank(dA, dB, r, rng):
    """Amplitudes of ``random_pure_with_schmidt_rank`` drawn with ``rng.dirichlet``.

    This and ``ref_sn_mixtures`` keep the per-call ``Generator.dirichlet``
    draws the library replaced by normalized exponential rows. They share
    the library's amplitude arithmetic, so only the draws are under test
    and the results must agree bit for bit.
    """
    from schmidt_lens.states import _schmidt_amplitudes

    lam = rng.dirichlet(np.ones(r))
    g = rng.standard_normal(2 * (dA * dA + dB * dB))
    return _schmidt_amplitudes(dA, dB, lam[None], g[None])[0]


def ref_sn_mixtures(dA, dB, r, n, max_terms, rng, draw_terms=True):
    """The stack of ``random_states_sn_at_most``, drawing each state with ``rng.dirichlet``;
    with ``draw_terms`` false each state has ``max_terms`` terms and no count is drawn,
    as in ``random_state_sn_at_most``."""
    from schmidt_lens.states import _schmidt_amplitudes, as_density_stack

    weights = np.zeros((n, max_terms))
    lam = np.empty((n, max_terms, r))
    g = np.empty((n, max_terms, 2 * (dA * dA + dB * dB)))
    used = np.zeros((n, max_terms), dtype=bool)
    for i in range(n):
        terms = int(rng.integers(1, max_terms + 1)) if draw_terms else max_terms
        weights[i, :terms] = rng.dirichlet(np.ones(terms))
        used[i, :terms] = True
        for t in range(terms):
            lam[i, t] = rng.dirichlet(np.ones(r))
            rng.standard_normal(out=g[i, t])
    rows = np.zeros((n, max_terms, dA * dB), dtype=complex)
    rows[used] = np.sqrt(weights[used])[:, None] * _schmidt_amplitudes(dA, dB, lam[used], g[used])
    return as_density_stack(np.swapaxes(rows, -1, -2) @ rows.conj())


def random_hermitian(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def random_rank_matrix(n, r, rng):
    m = np.zeros((n, n), dtype=complex)
    for _ in range(r):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        m += np.outer(u, v)
    return m
