import numpy as np
import pytest

from schmidt_lens import linalg
from schmidt_lens.channels import (
    ChoiMatrix,
    QuantumChannel,
    action_distance,
    adjoint,
    apply,
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
    is_cptp,
    random_channel,
    random_channel_with_kraus_rank,
    shift_clock_unitaries,
    tensor,
)
from schmidt_lens.errors import (
    DimensionMismatchError,
    NonSquareChannelError,
    NotPSDError,
    NotTracePreservingError,
    ParamOutOfRangeError,
)
from schmidt_lens.states import DensityMatrix, max_entangled, random_density

from conftest import ref_apply_kraus


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

    def test_mixed_shapes(self):
        with pytest.raises(DimensionMismatchError):
            QuantumChannel([np.eye(2), np.eye(3)])


class TestApply:
    def test_identity(self, rng):
        rho = random_density(3, rng)
        out = apply(identity_channel(3), rho)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_depolarizing_p0_collapses(self, rng):
        rho = random_density(3, rng)
        out = apply(depolarizing(3, 0.0), rho)
        np.testing.assert_allclose(out.matrix, np.eye(3) / 3, atol=1e-12)

    def test_depolarizing_half_on_ground_state(self):
        rho = DensityMatrix(np.diag([1.0, 0.0, 0.0]), (3,))
        out = apply(depolarizing(3, 0.5), rho)
        np.testing.assert_allclose(out.matrix, np.diag([2 / 3, 1 / 6, 1 / 6]), atol=1e-12)

    def test_matches_loop_reference(self, rng):
        ch = random_channel(3, 4, rng)
        rho = random_density(3, rng)
        np.testing.assert_allclose(
            apply(ch, rho).matrix, ref_apply_kraus(ch.kraus, rho.matrix), atol=1e-12
        )

    def test_dimension_check(self, rng):
        with pytest.raises(DimensionMismatchError):
            apply(depolarizing(3, 0.5), random_density(2, rng))


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
        lhs = apply(compose(first, then), rho).matrix
        rhs = apply(then, apply(first, rho)).matrix
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

    def test_action_on_product(self, rng):
        a, b = random_channel(2, 3, rng), random_channel(3, 2, rng)
        ra, rb = random_density(2, rng), random_density(3, rng)
        out = apply_matrix(tensor(a, b), np.kron(ra.matrix, rb.matrix))
        ref = np.kron(apply(a, ra).matrix, apply(b, rb).matrix)
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
            apply(depolarizing(3, 0.0), rho).matrix, np.eye(3) / 3, atol=1e-12
        )

    def test_action_matches_formula_on_basis(self):
        for d in (2, 3, 4):
            for p in (0.0, 0.3, 0.8, 1.0):
                ch = depolarizing(d, p)
                for unit in matrix_units(d):
                    want = p * unit + (1 - p) / d * np.trace(unit) * np.eye(d)
                    np.testing.assert_allclose(apply_matrix(ch, unit), want, atol=1e-10)

    def test_shift_clock_set(self):
        ws = shift_clock_unitaries(3)
        assert len(ws) == 9
        np.testing.assert_allclose(ws[0], np.eye(3))
        for w in ws:
            np.testing.assert_allclose(w.conj().T @ w, np.eye(3), atol=1e-13)

    def test_rejects_out_of_range(self):
        with pytest.raises(ParamOutOfRangeError):
            depolarizing(3, -0.1)
        with pytest.raises(ParamOutOfRangeError):
            depolarizing(1, 0.5)


class TestDephasing:
    def test_extremes(self, rng):
        assert action_distance(dephasing(3, 1.0), identity_channel(3)) < 1e-12
        rho = random_density(3, rng)
        out = apply(dephasing(3, 0.0), rho)
        np.testing.assert_allclose(out.matrix, np.diag(np.diag(rho.matrix)), atol=1e-12)

    def test_off_diagonals_scaled(self, rng):
        rho = random_density(3, rng)
        v = 0.37
        out = apply(dephasing(3, v), rho).matrix
        want = v * rho.matrix + (1 - v) * np.diag(np.diag(rho.matrix))
        np.testing.assert_allclose(out, want, atol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ParamOutOfRangeError):
            dephasing(3, 1.2)


class TestIsCptp:
    def test_identity(self):
        assert is_cptp(identity_channel(3), 1e-9)

    def test_rejects_scaled_identity(self):
        ch = QuantumChannel([np.sqrt(2.0) * np.eye(2)], check_tp=False)
        assert not is_cptp(ch, 1e-9)

    def test_depolarizing_grid(self):
        for p in np.linspace(0.0, 1.0, 11):
            assert is_cptp(depolarizing(3, float(p)), 1e-9)

    def test_random_channels(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 5))
            assert is_cptp(random_channel(d, int(rng.integers(1, 6)), rng), 1e-9)


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
