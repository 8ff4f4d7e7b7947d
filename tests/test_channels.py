import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidt_lens import analysis, channels, linalg
from schmidt_lens.analysis import snbc_witness_sweep, snbc_witness_threshold
from schmidt_lens.channels import (
    MAX_KRAUS_STACK_BYTES,
    ChoiMatrix,
    QuantumChannel,
    action_distance,
    adjoint,
    apply_matrix,
    apply_on_B,
    canonical_kraus,
    channel_from_json,
    channel_to_json,
    choi,
    compose,
    dephasing,
    depolarizing,
    identity_channel,
    random_channel,
    random_channel_with_kraus_rank,
    tensor,
    _depolarizing_basis,
)
from schmidt_lens.errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    NonSquareChannelError,
    NotHermitianError,
    NotPSDError,
    NotTracePreservingError,
    ParamOutOfRangeError,
)
from schmidt_lens.schmidt import _witness_from_traces
from schmidt_lens.states import DensityMatrix, max_entangled, random_density

from conftest import ref_apply_kraus, ref_dephasing_kraus, ref_depolarizing_kraus


def matrix_units(d):
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            yield unit


class TestQuantumChannel:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            QuantumChannel([])

    def test_rejects_non_tp(self):
        with pytest.raises(NotTracePreservingError):
            QuantumChannel([np.sqrt(2.0) * np.eye(2)])

    @pytest.mark.parametrize("build", [lambda: QuantumChannel(np.zeros((1, 0, 0))),
                                       lambda: QuantumChannel(np.zeros((1, 2, 0))),
                                       lambda: random_channel(0, 1, 0)])
    def test_rejects_zero_size_operators(self, build):
        with pytest.raises(InvalidDimensionError, match="at least 1 x 1"):
            build()

    def test_defect_is_kept_once_computed(self, monkeypatch):
        calls = []
        kraus_sum = channels._kraus_sum_defect
        monkeypatch.setattr(channels, "_kraus_sum_defect",
                            lambda stack: calls.append(stack.shape) or kraus_sum(stack))
        ch = random_channel(3, 4, 7)
        adj = adjoint(ch)
        assert len(calls) == 1  # the adjoint is built unchecked
        assert ch.trace_preservation_defect() == ch.trace_preservation_defect() <= 1e-9
        assert adj.trace_preservation_defect() == adj.trace_preservation_defect() > 1e-3
        assert len(calls) == 2

    def test_mixed_shapes(self):
        with pytest.raises(DimensionMismatchError):
            QuantumChannel([np.eye(2), np.eye(3)])

    @pytest.mark.parametrize("make", [list, np.array], ids=["list", "array"])
    def test_error_types_match_across_input_forms(self, make):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            QuantumChannel(make(np.zeros((0, 2, 2), dtype=complex)))
        for bad in (np.nan, np.inf, complex(0, np.inf)):
            ops = np.stack([eye, eye])
            ops[1, 0, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                QuantumChannel(make(ops))
        with pytest.raises(NotTracePreservingError):
            QuantumChannel(make(np.stack([eye, eye])))

    @pytest.mark.parametrize("shape", [(2, 2), (1, 1, 2, 2), (2,)])
    def test_rejects_stacks_that_are_not_3d(self, shape):
        ops = np.ones(shape, dtype=complex)
        for kraus in (ops, list(ops)):
            with pytest.raises(DimensionMismatchError):
                QuantumChannel(kraus, check_tp=False)

    def test_stack_is_owned_and_read_only(self):
        ops = np.stack([np.eye(2, dtype=complex)])
        ch = QuantumChannel(ops)
        ops[0, 0, 0] = 5.0
        assert ch._stack[0, 0, 0] == 1.0
        assert not ch._stack.flags.writeable
        assert all(not k.flags.writeable and k.base is ch._stack for k in ch.kraus)
        with pytest.raises(ValueError):
            ch.kraus[0][0, 0] = 2.0


    @pytest.mark.parametrize("d_in, d_out, n", [(2, 2, 1), (3, 5, 4), (4, 2, 7), (9, 9, 3)])
    def test_trace_preservation_defect_is_the_kraus_sum(self, d_in, d_out, n, rng):
        ops = rng.standard_normal((n, d_out, d_in)) + 1j * rng.standard_normal((n, d_out, d_in))
        ch = QuantumChannel(ops, check_tp=False)
        acc = sum(k.conj().T @ k for k in ops)
        want = np.max(np.abs(acc - np.eye(d_in)))
        assert abs(ch.trace_preservation_defect() - want) <= 1e-13 * want

    def test_kraus_is_a_lazy_cached_tuple_of_read_only_views(self):
        ch = depolarizing(3, 0.4)
        assert len(ch) == 9
        assert repr(ch) == "QuantumChannel(d_in=3, d_out=3, n_kraus=9)"
        assert "kraus" not in vars(ch)  # len and repr read the stack
        assert isinstance(ch.kraus, tuple) and ch.kraus is ch.kraus
        assert len(ch.kraus) == 9
        assert all(not k.flags.writeable and k.base is ch._stack for k in ch.kraus)
        assert np.array_equal(np.stack(ch.kraus), ch._stack)


def counted_eigvalsh(monkeypatch):
    """Record the shape of every np.linalg.eigvalsh operand from here on."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, *args, **kwargs: calls.append(np.shape(a))
                        or eigvalsh(a, *args, **kwargs))
    return calls


class TestPositivityWithoutEigensolve:
    def test_threshold_bisection_takes_no_eigensolve(self, monkeypatch):
        calls = counted_eigvalsh(monkeypatch)
        assert abs(snbc_witness_threshold("depolarizing", 9, 2) - 17 / 80) <= 1e-8
        assert calls == []

    def test_non_psd_choi_takes_one_eigensolve(self, monkeypatch):
        bad = 1.5 * max_entangled(2).density().matrix - 0.5 * np.eye(4) / 4
        calls = counted_eigvalsh(monkeypatch)
        with pytest.raises(NotPSDError,
                           match=r"^minimum eigenvalue -1\.250e-01 below -1e-09$"):
            ChoiMatrix(bad, 2, 2)
        assert calls == [(4, 4)]


class TestApply:
    def test_identity(self, rng):
        rho = random_density(3, rng)
        out = apply_matrix(identity_channel(3), rho.matrix)
        np.testing.assert_allclose(out, rho.matrix, atol=1e-14)

    def test_depolarizing_p0_collapses(self, rng):
        rho = random_density(3, rng)
        out = apply_matrix(depolarizing(3, 0.0), rho.matrix)
        np.testing.assert_allclose(out, np.eye(3) / 3, atol=1e-12)

    def test_depolarizing_half_on_ground_state(self):
        out = apply_matrix(depolarizing(3, 0.5), np.diag([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, np.diag([2 / 3, 1 / 6, 1 / 6]), atol=1e-12)

    def test_matches_loop_reference(self, rng):
        ch = random_channel(3, 4, rng)
        rho = random_density(3, rng)
        np.testing.assert_allclose(
            apply_matrix(ch, rho.matrix), ref_apply_kraus(ch.kraus, rho.matrix), atol=1e-12
        )

    def test_dimension_check(self, rng):
        with pytest.raises(DimensionMismatchError):
            apply_matrix(depolarizing(3, 0.5), random_density(2, rng).matrix)


class TestApplyOnB:
    def test_identity_leaves_state(self, rng):
        rho = random_density(9, rng, dims=(3, 3))
        out = apply_on_B(identity_channel(3), rho)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_depolarizing_gives_isotropic(self):
        from schmidt_lens.states import isotropic_state

        for p in (0.0, 0.3, 0.625, 1.0):
            out = apply_on_B(depolarizing(3, p), max_entangled(3).density())
            # oracle: elementwise expansion p phi+ + (1-p) I/9
            np.testing.assert_allclose(out.matrix, isotropic_state(3, p).matrix, atol=1e-12)

    def test_marginal_on_A_unchanged(self, rng):
        rho = random_density(9, rng, dims=(3, 3))
        out = apply_on_B(random_channel(3, 5, rng), rho)
        np.testing.assert_allclose(out.marginal(0), rho.marginal(0), atol=1e-12)

    def test_memory_stays_near_the_operands(self):
        # lifting the 169 Kraus operators to 169 x 169 each peaks at 369 MiB
        ch, rho = depolarizing(13, 0.4), max_entangled(13).density()
        tracemalloc.start()
        try:
            out = apply_on_B(ch, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20
        np.testing.assert_allclose(out.matrix, choi(ch).matrix, atol=1e-15)

    def test_non_square_channel_and_unequal_factors(self, rng):
        rho = random_density(6, rng, dims=(2, 3))
        iso = QuantumChannel([np.eye(4, 3)])
        out = apply_on_B(iso, rho)
        assert out.dims == (2, 4)
        lifted = np.kron(np.eye(2), iso.kraus[0])
        np.testing.assert_allclose(out.matrix, lifted @ rho.matrix @ lifted.T, atol=1e-15)


class TestChoi:
    def test_identity_channel(self):
        c = choi(identity_channel(3))
        np.testing.assert_allclose(c.matrix, max_entangled(3).density().matrix, atol=1e-14)

    def test_depolarizing_family(self):
        for p in (0.0, 0.4, 1.0):
            c = choi(depolarizing(3, p))
            phi = max_entangled(3).density().matrix
            np.testing.assert_allclose(c.matrix, p * phi + (1 - p) * np.eye(9) / 9, atol=1e-12)

    def test_dephasing_family(self):
        for v in (0.0, 0.5, 1.0):
            c = choi(dephasing(3, v))
            phi = max_entangled(3).density().matrix
            diag = np.zeros((9, 9))
            for i in range(3):
                diag[i * 3 + i, i * 3 + i] = 1 / 3
            np.testing.assert_allclose(c.matrix, v * phi + (1 - v) * diag, atol=1e-12)

    def test_matches_vectorized_construction(self, rng):
        # independent route: C = sum_a w w† with w = vec(K^T)/sqrt(d)
        ch = random_channel(4, 5, rng)
        c = choi(ch)
        ref = np.zeros((16, 16), dtype=complex)
        for k in ch.kraus:
            w = (k.T / 2.0).reshape(-1)
            ref += np.outer(w, w.conj())
        np.testing.assert_allclose(c.matrix, ref, atol=1e-12)

    def test_matches_lifted_channel_on_max_entangled(self, rng):
        # reference route: (id ⊗ Φ) applied to |phi+><phi+| by lifted Kraus operators
        cases = [random_channel(d, n, rng) for d in (2, 3, 4) for n in (1, d, d * d)]
        cases += [depolarizing(9, 0.3), dephasing(9, 0.6)]
        for ch in cases:
            ref = apply_on_B(ch, max_entangled(ch.d_in).density()).matrix
            assert np.max(np.abs(choi(ch).matrix - ref)) < 1e-13

    def test_unit_trace_and_marginal(self, rng):
        c = choi(random_channel(3, 6, rng))
        assert abs(np.trace(c.matrix) - 1.0) < 1e-10
        np.testing.assert_allclose(
            linalg.partial_trace(c.matrix, (3, 3), 0), np.eye(3) / 3, atol=1e-9
        )

    def test_rejects_non_square(self):
        # a 3 -> 2 trace-preserving channel
        ops = [np.array([[1.0, 0, 0], [0, 1.0, 0]]), np.array([[0, 0, 1.0], [0, 0, 0]])]
        ch = QuantumChannel(ops)
        with pytest.raises(NonSquareChannelError):
            choi(ch)

    def test_non_hermitian_matrix_is_rejected_as_a_density_matrix_is(self):
        # unit trace and marginal I/2, but max |C - C†| = 0.2
        sx, sz = np.array([[0, 1], [1, 0]]), np.diag([1, -1])
        m = np.eye(4) / 4 + 0.1j * np.kron(sx, sz)
        for build in (lambda: ChoiMatrix(m, 2, 2), lambda: DensityMatrix(m, (2, 2))):
            with pytest.raises(NotHermitianError, match=r"^max \|rho - rho†\| = 2\.000e-01$"):
                build()

    def test_matrix_is_an_owned_copy_of_the_hermitian_part(self):
        m = np.eye(9, dtype=complex) / 9
        m[0, 1], m[1, 0] = 1e-12j, 0.0  # within PSD_TOL of Hermitian
        hermitian_part = (m + m.conj().T) / 2
        c = ChoiMatrix(m, 3, 3)
        assert np.array_equal(c.matrix, hermitian_part)
        m[0, 0] = 5.0
        assert np.array_equal(c.matrix, hermitian_part)

    @pytest.mark.parametrize("build", [lambda m: ChoiMatrix(m, 3, 3),
                                       lambda m: DensityMatrix(m, (3, 3))],
                             ids=["ChoiMatrix", "DensityMatrix"])
    def test_matrix_is_read_only(self, build):
        m = choi(depolarizing(3, 0.4)).matrix
        c = build(m)
        with pytest.raises(AttributeError):
            c.matrix = np.eye(9) / 9
        with pytest.raises(ValueError):
            c.matrix[0, 0] = 0.0
        assert np.array_equal(c.matrix, m)

    def test_trace_defect_is_not_trace_preserving(self):
        # a defect within TP_TOL passes QuantumChannel but not CHOI_TRACE_TOL
        ch = QuantumChannel([np.sqrt(1 + 5e-10) * np.eye(3)])
        with pytest.raises(NotTracePreservingError,
                           match=r"^Choi trace \(1\.0000000005\+0j\) deviates from 1$"):
            choi(ch)


class TestCanonicalKraus:
    def test_max_entangled_choi_gives_identity(self):
        c = ChoiMatrix(max_entangled(3).density().matrix, 3, 3)
        ch = canonical_kraus(c)
        assert len(ch.kraus) == 1
        k = ch.kraus[0]
        phase = k[0, 0] / abs(k[0, 0])
        np.testing.assert_allclose(k / phase, np.eye(3), atol=1e-12)

    def test_maximally_mixed_choi(self):
        # exact I/9 eigendecomposes in the computational basis: 9 rank-1 Kraus
        c = ChoiMatrix(np.eye(9) / 9, 3, 3)
        ch = canonical_kraus(c)
        assert len(ch.kraus) == 9
        for k in ch.kraus:
            assert linalg.matrix_rank(k) == 1
            assert abs(np.linalg.norm(k) - 1 / np.sqrt(3)) < 1e-12

    def test_roundtrip_depolarizing(self):
        c = choi(depolarizing(3, 0.7))
        rebuilt = choi(canonical_kraus(c))
        assert np.max(np.abs(rebuilt.matrix - c.matrix)) < 1e-8

    def test_roundtrip_random(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            c = choi(random_channel(d, int(rng.integers(1, d * d + 1)), rng))
            rebuilt = choi(canonical_kraus(c))
            assert np.max(np.abs(rebuilt.matrix - c.matrix)) < 1e-8

    def test_action_agreement(self, rng):
        ch = random_channel(3, 4, rng)
        rebuilt = canonical_kraus(choi(ch))
        assert action_distance(ch, rebuilt) < 1e-8

    def test_rejects_non_psd(self):
        bad = max_entangled(2).density().matrix.copy()
        bad = 1.5 * bad - 0.5 * np.eye(4) / 4  # unit trace, one negative eigenvalue
        with pytest.raises(NotPSDError):
            ChoiMatrix(bad, 2, 2)

    def test_rejects_bad_marginal(self):
        # valid state but input marginal far from I/d
        m = np.zeros((4, 4))
        m[0, 0] = 1.0
        with pytest.raises(NotTracePreservingError):
            ChoiMatrix(m, 2, 2)


class TestStackedRules:
    # Each helper takes leading axes, one Kraus set or Choi matrix per index,
    # and gives every entry the bits of the public function on it alone.

    @staticmethod
    def _channels(rng, d, count):
        return [random_channel(d, int(rng.integers(1, d * d + 1)), rng) for _ in range(count)]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_canonical_kraus_of_a_stack(self, rng, d):
        states = [choi(ch) for ch in self._channels(rng, d, 12)]
        ops, kept = channels._kraus_from_choi_matrix(np.array([c.matrix for c in states]), d, d)
        for c, stack, keep in zip(states, ops, kept):
            assert np.array_equal(stack[keep], canonical_kraus(c)._stack)
            assert not stack[~keep].any()

    def test_canonical_kraus_names_the_first_state_with_no_positive_eigenvalue(self):
        stack = np.array([np.eye(4) / 4, np.zeros((4, 4)), -np.eye(4)])
        with pytest.raises(NotPSDError, match="^state 1: Choi matrix has no positive eigenvalue"):
            channels._kraus_from_choi_matrix(stack, 2, 2)

    def test_the_choi_states_and_defects_of_a_stack(self):
        chs = [random_channel(3, 4, seed) for seed in range(8)]
        stack = np.array([ch._stack for ch in chs])
        defects = channels._kraus_sum_defect(stack)
        states = channels._choi_states(channels._choi_array(stack), 3, 3)
        for ch, defect, c in zip(chs, defects, states):
            assert defect == ch.trace_preservation_defect()
            assert np.array_equal(c, choi(ch).matrix)

    @pytest.mark.parametrize("bad, error, message", [
        (2.0 * max_entangled(2).density().matrix, NotTracePreservingError,
         "state 1: Choi trace"),
        (np.diag([0.5, 0.5, 0.0, 0.0]), NotTracePreservingError,
         "state 1: input marginal deviates from I/d by 5.000e-01"),
        (1.5 * max_entangled(2).density().matrix - 0.5 * np.eye(4) / 4, NotPSDError,
         "state 1: minimum eigenvalue"),
    ])
    def test_choi_checks_name_the_first_failing_state(self, bad, error, message):
        stack = np.array([max_entangled(2).density().matrix, bad, bad], dtype=complex)
        with pytest.raises(error, match=f"^{message}"):
            channels._choi_states(stack, 2, 2)

    def test_the_trace_preservation_check_names_the_first_defect(self):
        kraus = np.array([[np.eye(2)], [np.sqrt(2.0) * np.eye(2)], [np.zeros((2, 2))]])
        with pytest.raises(NotTracePreservingError, match=r"^max \|sum K†K - I\| = 1\.000e\+00"):
            channels._tp_kraus(kraus)
        first = kraus[:1]
        assert channels._tp_kraus(first) is first

    def test_composition_adjoint_and_distance_of_stacks(self):
        pairs = [(random_channel(3, 2, seed), random_channel(3, 3, seed + 100))
                 for seed in range(6)]
        first = np.array([a._stack for a, _ in pairs])
        then = np.array([b._stack for _, b in pairs])
        composed = channels._composed(first, then)
        distances = channels._action_distances(first, then)
        adjoints = channels._adjoint_kraus(first)
        for (a, b), stack, distance, adj in zip(pairs, composed, distances, adjoints):
            assert np.array_equal(stack, compose(a, b)._stack)
            assert distance == action_distance(a, b)
            assert np.array_equal(adj, adjoint(a)._stack)

    def test_random_channel_is_the_stinespring_stack_of_its_draws(self):
        for seed in range(5):
            draws = np.random.default_rng(seed).standard_normal((2, 2 * 4 * 9))
            stacks = channels._stinespring_kraus(draws, 3, 4)
            rng = np.random.default_rng(seed)
            for stack in stacks:
                assert np.array_equal(stack, random_channel(3, 4, rng)._stack)


class TestCompose:
    def test_identity_neutral(self, rng):
        ch = random_channel(3, 4, rng)
        assert action_distance(compose(identity_channel(3), ch), ch) < 1e-12
        assert action_distance(compose(ch, identity_channel(3)), ch) < 1e-12

    def test_depolarizing_parameters_multiply(self):
        p1, p2 = 0.6, 0.7
        composite = compose(depolarizing(3, p1), depolarizing(3, p2))
        assert action_distance(composite, depolarizing(3, p1 * p2)) < 1e-12

    def test_order_convention(self, rng):
        # compose(first, then) applies `first` first
        first, then = random_channel(3, 3, rng), random_channel(3, 3, rng)
        rho = random_density(3, rng)
        lhs = apply_matrix(compose(first, then), rho.matrix)
        rhs = apply_matrix(then, apply_matrix(first, rho.matrix))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_associative(self, rng):
        f, g, h = (random_channel(3, 3, rng) for _ in range(3))
        assert action_distance(compose(compose(f, g), h), compose(f, compose(g, h))) < 1e-9

    def test_dimension_check(self, rng):
        with pytest.raises(DimensionMismatchError):
            compose(random_channel(2, 2, rng), random_channel(3, 2, rng))


class TestTensor:
    def test_identity(self):
        t = tensor(identity_channel(2), identity_channel(2))
        assert action_distance(t, identity_channel(4)) < 1e-14

    def test_kraus_rank_multiplies(self, rng):
        a = random_channel_with_kraus_rank(3, 2, rng)
        b = random_channel_with_kraus_rank(3, 2, rng)
        t = tensor(a, b)
        assert max(linalg.matrix_rank(k) for k in t.kraus) == 4

    def test_stack_is_the_kron_of_each_pair_a_major(self, rng):
        pairs = [(depolarizing(3, 0.4), depolarizing(3, 0.4)),
                 (random_channel(2, 3, rng), random_channel(3, 2, rng)),
                 (QuantumChannel([np.eye(3, 2)]), random_channel(2, 4, rng)),
                 (random_channel(4, 1, rng), QuantumChannel([np.eye(4, 2)]))]
        for a, b in pairs:
            old = np.stack([np.kron(k, r) for k in a.kraus for r in b.kraus])
            assert tensor(a, b)._stack.tobytes() == old.tobytes()

    def test_action_on_product(self, rng):
        a, b = random_channel(2, 3, rng), random_channel(3, 2, rng)
        ra, rb = random_density(2, rng), random_density(3, rng)
        out = apply_matrix(tensor(a, b), np.kron(ra.matrix, rb.matrix))
        ref = np.kron(apply_matrix(a, ra.matrix), apply_matrix(b, rb.matrix))
        np.testing.assert_allclose(out, ref, atol=1e-12)


class TestAdjoint:
    def test_identity(self):
        assert action_distance(adjoint(identity_channel(3)), identity_channel(3)) == 0.0

    def test_duality_on_basis(self, rng):
        ch = random_channel(3, 5, rng)
        adj = adjoint(ch)
        for a in matrix_units(3):
            for b in matrix_units(3):
                lhs = np.trace(a @ apply_matrix(ch, b))
                rhs = np.trace(apply_matrix(adj, a) @ b)
                assert abs(lhs - rhs) < 1e-12

    def test_depolarizing_self_adjoint(self):
        ch = depolarizing(3, 0.4)
        assert action_distance(ch, adjoint(adjoint(ch))) < 1e-13
        adj = adjoint(ch)
        for b in matrix_units(3):
            np.testing.assert_allclose(
                apply_matrix(adj, b), apply_matrix(ch, b), atol=1e-12
            )

    def test_unital_not_tp(self, rng):
        ch = random_channel_with_kraus_rank(3, 2, rng)
        adj = adjoint(ch)
        out = apply_matrix(adj, np.eye(3))
        np.testing.assert_allclose(out, np.eye(3), atol=1e-12)  # unital
        assert adj.trace_preservation_defect() > 1e-3  # generically not TP

    def test_kraus_rank_preserved(self, rng):
        ch = random_channel_with_kraus_rank(3, 2, rng)
        ranks = sorted(linalg.matrix_rank(k) for k in ch.kraus)
        adj_ranks = sorted(linalg.matrix_rank(k) for k in adjoint(ch).kraus)
        assert ranks == adj_ranks == [2, 2, 2]


class TestDepolarizing:
    def test_extremes(self, rng):
        assert action_distance(depolarizing(3, 1.0), identity_channel(3)) < 1e-12
        rho = random_density(3, rng)
        np.testing.assert_allclose(
            apply_matrix(depolarizing(3, 0.0), rho.matrix), np.eye(3) / 3, atol=1e-12
        )

    def test_action_matches_formula_on_basis(self):
        for d in (2, 3, 4):
            for p in (0.0, 0.3, 0.8, 1.0):
                ch = depolarizing(d, p)
                for unit in matrix_units(d):
                    want = p * unit + (1 - p) / d * np.trace(unit) * np.eye(d)
                    np.testing.assert_allclose(apply_matrix(ch, unit), want, atol=1e-10)

    def test_shift_clock_set(self):
        ws = _depolarizing_basis(3)
        assert len(ws) == 9
        np.testing.assert_allclose(ws[0], np.eye(3))
        for w in ws:
            np.testing.assert_allclose(w.conj().T @ w, np.eye(3), atol=1e-13)

    def test_rejects_out_of_range(self):
        with pytest.raises(ParamOutOfRangeError):
            depolarizing(3, -0.1)
        with pytest.raises(ParamOutOfRangeError):
            depolarizing(1, 0.5)

    def test_cached_basis_is_read_only(self):
        stack = _depolarizing_basis(3)
        assert stack.shape == (9, 3, 3)
        assert not stack.flags.writeable
        assert _depolarizing_basis(3) is stack

    def test_cache_refuses_a_stack_over_the_budget(self):
        d = 2
        while 16 * (d + 1) ** 4 <= MAX_KRAUS_STACK_BYTES:
            d += 1
        assert _depolarizing_basis(d).nbytes <= MAX_KRAUS_STACK_BYTES
        with pytest.raises(ParamOutOfRangeError, match="budget"):
            depolarizing(d + 1, 0.5)
        with pytest.raises(ParamOutOfRangeError, match="budget"):
            _depolarizing_basis(d + 1)
        assert _depolarizing_basis.cache_info().maxsize is not None


FAMILY_DIMS = (2, 3, 4, 9)
FAMILY_PARAMS = (0.0, 0.3, 0.5, 0.625, 1.0)


@pytest.mark.parametrize("d", FAMILY_DIMS)
@pytest.mark.parametrize("p", FAMILY_PARAMS)
def test_family_stacks_are_bit_equal_to_the_loop_construction(d, p):
    assert np.array_equal(depolarizing(d, p)._stack, np.stack(ref_depolarizing_kraus(d, p)))
    assert np.array_equal(dephasing(d, p)._stack, np.stack(ref_dephasing_kraus(d, p)))


GOLDEN_ROOTS = (0.0, 0.25, 0.5, 0.625)


def family_params(d):
    """Golden roots, every crossing of both families at d, and a grid of 51."""
    crossings = [(r * d - 1) / (d * d - 1) for r in range(1, d)]
    crossings += [(r - 1) / (d - 1) for r in range(1, d)]
    return sorted({*GOLDEN_ROOTS, 1 / 3, *crossings, *np.linspace(0.0, 1.0, 51).tolist()})


def old_depolarizing_stack(d, p):
    weights = np.full(d * d, np.sqrt((1.0 - p) / d**2))
    weights[0] = np.sqrt(p + (1.0 - p) / d**2)
    return weights[:, None, None] * _depolarizing_basis(d)


def old_dephasing_stack(d, v):
    idx = np.arange(d)
    stack = np.zeros((d + 1, d, d), dtype=complex)
    stack[0, idx, idx] = np.sqrt(v)
    stack[idx + 1, idx, idx] = np.sqrt(1.0 - v)
    return stack


FAMILY_BUILDS = {"depolarizing": (depolarizing, old_depolarizing_stack),
                 "dephasing": (dephasing, old_dephasing_stack)}


def scale_weights(monkeypatch, family, first, rest):
    """Scale the named family's squared weights first^2 and rest^2 by these factors,
    so that they square-sum to ``first`` and ``rest`` times their shares of 1."""
    weights, *others = channels._KRAUS_FAMILIES[family]
    monkeypatch.setitem(channels._KRAUS_FAMILIES, family, (lambda d, p: tuple(
        w * np.sqrt(s) for w, s in zip(weights(d, p), (first, rest))), *others))


# The share of sum_a K_a†K_a = I that K_0 carries at d = 3; the rest carry 1 - it.
FIRST_SHARES = {"depolarizing": lambda p: p + (1.0 - p) / 9, "dephasing": lambda p: p}


@pytest.mark.parametrize("family", FAMILY_BUILDS)
class TestKrausBasis:
    def test_stacks_and_traces_are_bit_identical_to_the_old_construction(self, family):
        build, old = FAMILY_BUILDS[family]
        for d in range(2, 14):
            curves = [(r, analysis._witness_curve(family, d, r)) for r in {1, d // 2, d - 1}]
            for p in family_params(d):
                want = old(d, p)
                assert build(d, p)._stack.tobytes() == want.tobytes(), (d, p)
                traces = np.trace(want, axis1=1, axis2=2)
                for r, curve in curves:  # the closed-form traces read as these
                    assert curve(p).hex() == _witness_from_traces(traces, r * d).hex(), (d, p)

    def test_a_grid_of_parameters_gives_each_point_bit_for_bit(self, family):
        weights, basis, gram_sum = channels._KRAUS_FAMILIES[family]
        for d in range(2, 14):
            params = np.array(family_params(d))
            (first, rest), n, s = weights(d, params), len(basis(d)), gram_sum(d)
            points = [weights(d, p) for p in params]
            assert first.tobytes() == np.array([f for f, _ in points]).tobytes()
            assert rest.tobytes() == np.array([r for _, r in points]).tobytes()
            assert channels._weight_rows(first, rest, n).tobytes() == np.stack(
                [channels._weight_rows(f, r, n) for f, r in points]).tobytes()
            defects = [channels._gram_defect(s, f, r) for f, r in points]
            assert all(type(defect) is float for defect in defects)
            assert channels._gram_defect(s, first, rest).tolist() == defects
            curve = analysis._witness_curve(family, d, d - 1)
            assert [v.hex() for v in curve(params)] == [curve(p).hex() for p in params]
        with pytest.raises(ParamOutOfRangeError, match="outside"):
            weights(3, np.array([0.5, 1.5]))

    def test_a_grid_names_its_first_defect_over_the_tolerance(self, family):
        weights, _, gram_sum = channels._KRAUS_FAMILIES[family]
        first, rest = weights(3, np.array([0.2, 0.4, 0.6]))
        scale = np.sqrt([1.0, 1.0 + 2e-9, 1.0 + 4e-9])
        with pytest.raises(NotTracePreservingError,
                           match=r"max \|sum K†K - I\| = 2\.000e-09 exceeds 1\.0e-09"):
            channels._gram_defect(gram_sum(3), first * scale, rest * scale)

    def test_gram_defect_is_the_kraus_sum(self, family):
        # the reference is the Kraus sum of the built stack in extended precision:
        # in double it rounds by up to 1.7e-15 itself (d = 5)
        if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
            pytest.skip("needs an extended-precision long double")
        build, _ = FAMILY_BUILDS[family]
        for d in range(2, 14):
            for p in family_params(d):
                ch = build(d, p)
                flat = ch._stack.reshape(-1, d).astype(np.clongdouble)
                exact = np.max(np.abs(flat.conj().T @ flat - np.eye(d)))
                assert abs(ch.trace_preservation_defect() - float(exact)) <= 1e-15, (d, p)

    def test_gram_check_fires_from_the_builder_and_the_curve(self, family, monkeypatch):
        build, _ = FAMILY_BUILDS[family]
        with monkeypatch.context() as patch:
            scale_weights(patch, family, 1.0 + 5e-10, 1.0 + 5e-10)
            assert 4e-10 < build(3, 0.4).trace_preservation_defect() <= 1e-9
            snbc_witness_sweep(family, 3, 2, grid=5)
        scale_weights(monkeypatch, family, 1.0 + 2e-9, 1.0 + 2e-9)
        for call in (lambda: build(3, 0.4),
                     lambda: snbc_witness_threshold(family, 3, 2),
                     lambda: snbc_witness_sweep(family, 3, 2, grid=5)):
            with pytest.raises(NotTracePreservingError,
                               match=r"max \|sum K†K - I\| = 2\.000e-09 exceeds 1\.0e-09"):
                call()

    @pytest.mark.parametrize("weight", ["first", "rest"])
    def test_each_weight_alone_fires_the_gram_check(self, family, weight, monkeypatch):
        # its squared weight scaled by 1 + 2e-9, the defect is 2e-9 times its
        # share: at p = 1 K_0 carries all of I, at p = 0 the rest carry 8/9 of
        # it (depolarizing) or all of it (dephasing)
        build, _ = FAMILY_BUILDS[family]
        first_share = FIRST_SHARES[family]
        if weight == "first":
            scale_weights(monkeypatch, family, 1.0 + 2e-9, 1.0)
            share, p = first_share, 1.0
        else:
            scale_weights(monkeypatch, family, 1.0, 1.0 + 2e-9)
            share, p = (lambda q: 1.0 - first_share(q)), 0.0
        grid = np.linspace(0.0, 1.0, 6)
        failing = next(q for q in grid if 2e-9 * share(q) > 1e-9)  # first: 0.6, rest: 0
        for call, q in ((lambda: build(3, p), p),
                        (lambda: snbc_witness_threshold(family, 3, 2), p),
                        (lambda: snbc_witness_sweep(family, 3, 2, grid=6), failing)):
            message = f"max |sum K†K - I| = {2e-9 * share(q):.3e} exceeds 1.0e-09"
            with pytest.raises(NotTracePreservingError, match=re.escape(message)):
                call()
        if (family, weight) != ("depolarizing", "rest"):
            assert f"{2e-9 * share(p):.3e}" == "2.000e-09"

    def test_cache_is_bounded_read_only_and_holds_only_its_stack(self, family):
        build, _ = FAMILY_BUILDS[family]
        _, basis, _ = channels._KRAUS_FAMILIES[family]
        assert basis.cache_info().maxsize is not None
        for d in (2, 3, 9, 13) + ((64,) if family == "dephasing" else ()):
            cached = basis(d)
            assert basis(d) is cached
            assert not cached.flags.writeable and cached.base is None
            assert cached.nbytes == build(d, 0.5)._stack.nbytes
        assert channels._depolarizing_basis(9) is _depolarizing_basis(9)

    def test_every_gram_is_diagonal_and_sums_to_the_closed_form(self, family):
        weights, basis, gram_sum = channels._KRAUS_FAMILIES[family]
        for d in (*range(2, 14), *((64,) if family == "dephasing" else ())):
            stack, s = basis(d), gram_sum(d)
            grams = stack.conj().transpose(0, 2, 1) @ stack
            assert not grams[:, ~np.eye(d, dtype=bool)].any(), d  # exactly 0
            diagonals = grams.diagonal(axis1=1, axis2=2).real  # (n, d)
            rows = np.stack([diagonals[0], diagonals[1:].sum(axis=0)], axis=1)  # (G_i0, S_i)
            assert np.abs(rows - [1.0, s]).max() <= 1e-13, d
            # so the closed-form defect is within 1e-13 of the per-row maximum
            for p in family_params(d)[::7]:
                first, rest = weights(d, p)
                every = np.abs(rows[:, 0] * (first * first) + rows[:, 1] * (rest * rest) - 1.0)
                assert abs(channels._gram_defect(s, first, rest) - every.max()) <= 1e-13, (d, p)
            assert np.array_equal(stack[0], np.eye(d)), d  # B_0 = I
            # the witness curves' closed-form traces: Tr B_a = 0 for a >= 1
            # (depolarizing; the Z^b sums round to under 1e-13, whose squares
            # lie far below the last bit of |Tr K_0|^2 >= 1) or B_a = |a-1><a-1|
            rest = stack[1:].diagonal(axis1=1, axis2=2)
            if family == "depolarizing":
                assert np.abs(rest.sum(axis=1)).max() <= 1e-13, d
            else:
                assert np.array_equal(rest, np.eye(d)), d


def test_the_family_paths_import_no_masked_arrays():
    # numpy.ma loads on first use (np.unique with an axis, np.setdiff1d) and
    # adds about 1 MB to the peak memory of every process that uses it
    script = ("import sys\n"
              "from schmidt_lens import analysis, channels\n"
              "for family in analysis.FAMILIES:\n"
              "    analysis.snbc_witness_threshold(family, 9, 4)\n"
              "    analysis.snbc_witness_sweep(family, 13, 6, 11)\n"
              "analysis.snac_sweep(3, 0.5, 3, 4)\n"
              "print('numpy.ma' in sys.modules)\n")
    src = Path(channels.__file__).parents[1]
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout == "False\n"


def test_the_witness_curves_build_no_weight_rows(monkeypatch):
    calls = []
    rows = channels._weight_rows
    monkeypatch.setattr(channels, "_weight_rows", lambda *a: calls.append(a) or rows(*a))
    for family in FAMILY_BUILDS:
        snbc_witness_threshold(family, 3, 2)
        snbc_witness_sweep(family, 3, 2, grid=11)
    assert calls == []
    depolarizing(3, 0.5)
    assert len(calls) == 1


def raised(call):
    """The type name and message of what ``call`` raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value).__name__, str(info.value)


BUDGET_14 = "d=14 needs a 614656-byte Kraus stack, over the budget of 524288 bytes (d <= 13)"


@pytest.mark.parametrize("family", FAMILY_BUILDS)
def test_a_prepared_curve_raises_what_the_per_point_checks_raised(family, monkeypatch):
    # the messages of the curve that fetched and checked everything at every point
    name = {"depolarizing": "p", "dephasing": "v"}[family]
    assert raised(lambda: snbc_witness_threshold("bogus", 14, 2)) == (
        "UnknownFamilyError", "unknown family 'bogus'; expected one of ('depolarizing', 'dephasing')")
    assert raised(lambda: snbc_witness_threshold(family, 1, 1)) == (
        "InvalidRankError", "witness needs 1 <= r < d, got r=1, d=1")
    weights, basis, gram_sum = channels._KRAUS_FAMILIES[family]
    fetched = []
    with monkeypatch.context() as spy:  # witness(d, r) refuses d < 2 before any fetch
        spy.setitem(channels._KRAUS_FAMILIES, family,
                    (weights, lambda d: fetched.append(d) or basis(d), gram_sum))
        for d in (1, 0, -1):
            message = f"witness needs 1 <= r < d, got r=1, d={d}"
            assert raised(lambda: snbc_witness_threshold(family, d, 1)) == (
                "InvalidRankError", message)
            assert raised(lambda: snbc_witness_sweep(family, d, 1, 11)) == (
                "InvalidRankError", message)
    assert fetched == []
    if family == "depolarizing":  # dephasing has no shift/clock stack to budget
        assert raised(lambda: snbc_witness_threshold(family, 14, 2)) == ("BudgetError", BUDGET_14)
    bisect = analysis.bisect_crossing
    for p in (1.5, -0.25, float("nan")):
        monkeypatch.setattr(analysis, "bisect_crossing", lambda f, lo, hi, tol, p=p: f(p))
        assert raised(lambda: snbc_witness_threshold(family, 3, 2)) == (
            "ParamOutOfRangeError", f"{name}={p} outside [0, 1]")
    monkeypatch.setattr(analysis, "bisect_crossing", bisect)
    scale_weights(monkeypatch, family, 1.0 + 2e-9, 1.0 + 2e-9)
    assert raised(lambda: snbc_witness_threshold(family, 3, 2)) == (
        "NotTracePreservingError", "max |sum K†K - I| = 2.000e-09 exceeds 1.0e-09")


def basis_calls():
    return [basis.cache_info() for _, basis, _ in channels._KRAUS_FAMILIES.values()]


@pytest.mark.parametrize("family", FAMILY_BUILDS)
def test_a_threshold_or_a_sweep_fetches_no_basis(family):
    before = basis_calls()
    snbc_witness_threshold(family, 9, 4)
    snbc_witness_sweep(family, 9, 4, grid=1001)
    assert basis_calls() == before
    FAMILY_BUILDS[family][0](9, 0.5)  # a built channel fetches its basis
    assert basis_calls() != before


def test_a_cold_depolarizing_threshold_builds_no_stack():
    # the d = 13 shift/clock stack alone is 457 kB
    _depolarizing_basis.cache_clear()
    tracemalloc.start()
    try:
        assert snbc_witness_threshold("depolarizing", 13, 6) == pytest.approx(77 / 168)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**10
    assert _depolarizing_basis.cache_info().currsize == 0


class TestDephasing:
    def test_extremes(self, rng):
        assert action_distance(dephasing(3, 1.0), identity_channel(3)) < 1e-12
        rho = random_density(3, rng)
        out = apply_matrix(dephasing(3, 0.0), rho.matrix)
        np.testing.assert_allclose(out, np.diag(np.diag(rho.matrix)), atol=1e-12)

    def test_off_diagonals_scaled(self, rng):
        rho = random_density(3, rng)
        v = 0.37
        out = apply_matrix(dephasing(3, v), rho.matrix)
        want = v * rho.matrix + (1 - v) * np.diag(np.diag(rho.matrix))
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ParamOutOfRangeError):
            dephasing(3, 1.2)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["d_in", "d_out", "kraus", "x"]), inner),
    max_leaves=30,
)
# Objects shaped like the wire format, so that parsing reaches the Kraus entries.
CHANNEL_DOCUMENTS = st.fixed_dictionaries({
    "d_in": st.integers(-1, 3) | JSON_VALUES,
    "d_out": st.integers(-1, 3),
    "kraus": st.lists(st.lists(st.one_of(
        st.tuples(st.floats(), st.floats()).map(list),
        st.lists(st.floats(-1, 1), max_size=3),
        JSON_VALUES,
    ), max_size=9), max_size=3),
})


class TestJsonWireFormat:
    def test_roundtrip(self, rng):
        ch = random_channel(3, 4, rng)
        text = channel_to_json(ch)
        back = channel_from_json(text)
        assert back.d_in == 3 and back.d_out == 3
        assert action_distance(ch, back) < 1e-15

    def test_identity_document(self):
        text = channel_to_json(identity_channel(2))
        import json

        doc = json.loads(text)
        assert doc["d_in"] == 2 and doc["d_out"] == 2
        assert doc["kraus"] == [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            channel_from_json('{"d_in": 2}')
        with pytest.raises(DimensionMismatchError):
            channel_from_json('{"d_in": 2, "d_out": 2, "kraus": [[[1, 0]]]}')
        malformed = [
            '{"d_in": 1, "d_out": 1, "kraus": [[1]]}',  # entries not [re, im] pairs
            '{"d_in": 1, "d_out": 1, "kraus": [[[1, 0, 0]]]}',
            '{"d_in": 1, "d_out": 1, "kraus": [[["1", 0]]]}',
            '{"d_in": 1, "d_out": 1, "kraus": [[[true, 0]]]}',
            '{"d_in": 1, "d_out": 1, "kraus": [[[NaN, 0]]]}',
            '{"d_in": 1, "d_out": 1, "kraus": [[[1' + "0" * 400 + ', 0]]]}',  # overflows a float
            '{"d_in": 1.5, "d_out": 1, "kraus": [[[1, 0]]]}',
            '{"d_in": 0, "d_out": 1, "kraus": []}',
            '{"d_in": 1, "d_out": 1, "kraus": []}',
            '{"d_in": 1, "d_out": 1, "kraus": 5}',
            '"a string"',
            "[" * 100000 + "]" * 100000,
            # K†K overflows to inf - inf = NaN off the diagonal
            '{"d_in": 2, "d_out": 1, "kraus": [[[1e200, 0], [1e200, 0]], '
            '[[1e200, 0], [-1e200, 0]]]}',
        ]
        for text in malformed:
            with pytest.raises(ValueError):
                channel_from_json(text)

    @given(st.one_of(JSON_VALUES, CHANNEL_DOCUMENTS))
    @settings(max_examples=200, deadline=None)
    def test_any_json_value_parses_or_is_rejected(self, value):
        try:
            ch = channel_from_json(json.dumps(value))
        except ValueError:
            return
        assert isinstance(ch, QuantumChannel)
        assert ch.trace_preservation_defect() <= 1e-9
