import numpy as np
import pytest

from schmidt_lens.channels import (
    adjoint,
    choi,
    dephasing,
    depolarizing,
    identity_channel,
    random_channel,
)
from schmidt_lens.errors import DimensionMismatchError, InvalidRankError
from schmidt_lens.schmidt import (
    CertificationResult,
    LambdaMap,
    Verdict,
    apply_id_lambda,
    certify_sn_above,
    isotropic_sn_threshold,
    r_positivity_window,
    sn_upper_bound_via_kraus,
    witness,
    witness_value,
)
from schmidt_lens.states import (
    DensityMatrix,
    PureState,
    isotropic_state,
    max_entangled,
    random_density,
    random_state_sn_at_most,
)

from conftest import ref_id_lambda


class TestWitness:
    def test_matrix_definition(self):
        w = witness(3, 2)
        phi = max_entangled(3).amplitudes
        expected = np.eye(9) - 1.5 * np.outer(phi, phi.conj())
        np.testing.assert_array_equal(w.matrix, expected)

    def test_value_on_max_entangled(self):
        assert abs(witness_value(witness(3, 2), max_entangled(3).density()) - (-0.5)) < 1e-12

    def test_value_on_maximally_mixed(self):
        assert abs(witness_value(witness(3, 2), isotropic_state(3, 0.0)) - 5 / 6) < 1e-12

    def test_value_affine_on_isotropic(self):
        # linear combination of the two endpoint values: 5/6 - (4/3) p
        w = witness(3, 2)
        for p in np.linspace(0, 1, 9):
            got = witness_value(w, isotropic_state(3, float(p)))
            assert abs(got - (5 / 6 - 4 / 3 * p)) < 1e-12

    def test_crossing_values(self):
        # exact zeros at the breaking thresholds
        assert abs(witness_value(witness(3, 2), isotropic_state(3, 5 / 8))) < 1e-10
        assert abs(witness_value(witness(3, 2), choi(dephasing(3, 0.5)))) < 1e-10

    def test_dephasing_endpoint(self):
        assert abs(witness_value(witness(3, 2), choi(dephasing(3, 0.0))) - 0.5) < 1e-12

    def test_nonnegative_on_low_rank_states(self, rng):
        w = witness(3, 2)
        for _ in range(200):
            rho = random_state_sn_at_most(3, 3, 2, terms=int(rng.integers(1, 5)), seed=rng)
            assert witness_value(w, rho) >= -1e-9

    def test_closed_form_matches_trace_of_product(self, rng):
        # reference route: Tr(W rho) with the stored witness matrix
        for d in (2, 3, 4, 5):
            states = [random_density(d * d, rng, (d, d)) for _ in range(3)]
            states += [choi(random_channel(d, n, rng)) for n in (1, d, d * d)]
            for r in range(1, d):
                w = witness(d, r)
                for rho in states:
                    ref = np.trace(w.matrix @ rho.matrix).real
                    assert abs(witness_value(w, rho) - ref) < 1e-13

    def test_rejects_bad_rank(self):
        with pytest.raises(InvalidRankError):
            witness(3, 3)
        with pytest.raises(InvalidRankError):
            witness(3, 0)

    def test_rejects_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            witness_value(witness(3, 2), random_density(4, rng))

    def test_rejects_non_hermitian_input(self, rng):
        from schmidt_lens.errors import NotHermitianError

        m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        with pytest.raises(NotHermitianError):
            witness_value(witness(3, 2), m)


class TestLambdaMap:
    def test_action(self, rng):
        lam = LambdaMap(3, 0.5)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        np.testing.assert_allclose(lam(x), np.trace(x) * np.eye(3) - 0.5 * x, atol=1e-14)

    def test_window(self):
        assert r_positivity_window(1) == (0.5, 1.0)
        assert r_positivity_window(2) == (1 / 3, 0.5)
        assert r_positivity_window(3) == (0.25, 1 / 3)
        with pytest.raises(InvalidRankError):
            r_positivity_window(0)


class TestApplyIdLambda:
    def test_k0_block_traces(self, rng):
        rho = random_density(9, rng, dims=(3, 3))
        out = apply_id_lambda(rho, 1e-12)
        # k -> 0 limit: block traces tensor identity
        np.testing.assert_allclose(out, ref_id_lambda(rho.matrix, 3, 3, 1e-12), atol=1e-13)
        assert np.linalg.eigvalsh(out)[0] >= -1e-9

    def test_matches_loop_reference(self, rng):
        rho = random_density(12, rng, dims=(3, 4))
        for k in (0.2, 0.5, 1.0):
            np.testing.assert_allclose(
                apply_id_lambda(rho, k), ref_id_lambda(rho.matrix, 3, 4, k), atol=1e-13
            )

    def test_product_states_stay_psd(self, rng):
        for _ in range(20):
            a, b = random_density(3, rng), random_density(3, rng)
            rho = DensityMatrix(np.kron(a.matrix, b.matrix), (3, 3))
            for k in (0.3, 0.7, 1.0):
                assert np.linalg.eigvalsh(apply_id_lambda(rho, k))[0] >= -1e-12

    def test_max_entangled_spectrum(self):
        # (id ⊗ Lambda_k)(phi+) = I/d - k phi+: minimum eigenvalue 1/d - k
        rho = max_entangled(3).density()
        out = apply_id_lambda(rho, 0.5)
        phi = rho.matrix
        np.testing.assert_allclose(out, np.eye(9) / 3 - 0.5 * phi, atol=1e-13)
        assert abs(np.linalg.eigvalsh(out)[0] - (-1 / 6)) < 1e-12

    def test_hermitian_output(self, rng):
        rho = random_density(9, rng, dims=(3, 3))
        out = apply_id_lambda(rho, 0.4)
        np.testing.assert_allclose(out, out.conj().T, atol=1e-13)

    def test_rejects_single_system(self, rng):
        with pytest.raises(DimensionMismatchError):
            apply_id_lambda(random_density(3, rng), 0.5)


class TestPositivityWindow:
    def test_r_positive_on_low_rank(self, rng):
        for r in (1, 2, 3):
            d = r + 1
            _, hi = r_positivity_window(r)
            for _ in range(100):
                rho = random_state_sn_at_most(d, d, r, terms=int(rng.integers(1, 4)), seed=rng)
                assert np.linalg.eigvalsh(apply_id_lambda(rho, hi))[0] >= -1e-9

    def test_r_plus_one_negative_in_window(self):
        for r in (1, 2, 3):
            lo, hi = r_positivity_window(r)
            phi = max_entangled(r + 1).density()
            for k in (lo + 1e-9, (lo + hi) / 2, hi):
                val = np.linalg.eigvalsh(apply_id_lambda(phi, k))[0]
                assert val < 0
                assert abs(val - (1 / (r + 1) - k)) < 1e-12

    def test_embedded_bell_pair_negativity(self):
        # Schmidt-rank-2 state embedded in 3x3 defeats the 1-positive window
        amp = np.zeros(9)
        amp[0] = amp[4] = 1 / np.sqrt(2)
        rho = PureState(amp, (3, 3)).density()
        lo, hi = r_positivity_window(1)
        for k in (lo + 1e-9, hi):
            assert np.linalg.eigvalsh(apply_id_lambda(rho, k))[0] < 0


class TestCertifySnAbove:
    def test_max_entangled_certified(self):
        res = certify_sn_above(max_entangled(3).density(), 2)
        assert res.verdict is Verdict.CERTIFIED_ABOVE
        assert abs(res.evidence_value - (-0.5)) < 1e-12

    def test_maximally_mixed_consistent(self):
        res = certify_sn_above(isotropic_state(3, 0.0), 2)
        assert res.verdict is Verdict.CONSISTENT_WITH_AT_MOST
        assert res.evidence_value >= 0

    def test_isotropic_above_threshold(self):
        res = certify_sn_above(isotropic_state(3, 0.7), 2)
        assert res.verdict is Verdict.CERTIFIED_ABOVE

    def test_monotone_in_r(self):
        for p in (0.7, 0.9, 1.0):
            rho = isotropic_state(4, p)
            flags = [
                certify_sn_above(rho, r).verdict is Verdict.CERTIFIED_ABOVE
                for r in (1, 2, 3)
            ]
            assert flags == sorted(flags, reverse=True)

    def test_result_invariant(self):
        with pytest.raises(ValueError):
            CertificationResult(Verdict.CERTIFIED_ABOVE, 2, 0.5, 1e-9)

    def test_rejects_bad_args(self, rng):
        with pytest.raises(DimensionMismatchError):
            certify_sn_above(random_density(3, rng), 1)
        with pytest.raises(InvalidRankError):
            certify_sn_above(isotropic_state(3, 0.5), 3)


class TestSnUpperBound:
    def test_identity_channel(self):
        assert sn_upper_bound_via_kraus(identity_channel(3)) == 3

    def test_rank_one_kraus_channel(self):
        # measure-and-prepare form: all Kraus rank one
        ops = []
        for i in range(3):
            k = np.zeros((3, 3), dtype=complex)
            k[0, i] = 1.0
            ops.append(k)
        from schmidt_lens.channels import QuantumChannel

        assert sn_upper_bound_via_kraus(QuantumChannel(ops)) == 1

    def test_depolarizing_keeps_full_rank_component(self):
        # the top Choi eigenvector is phi+ itself, whose Kraus is ∝ identity,
        # so the canonical bound stays at 3 throughout 0 < p <= 1 even where
        # the true Schmidt number of the Choi state is lower
        for p in (0.1, 0.5, 0.9):
            assert sn_upper_bound_via_kraus(depolarizing(3, p)) == 3

    def test_adjoint_equality(self, rng):
        from schmidt_lens.channels import random_channel, random_channel_with_kraus_rank

        for ch in (
            depolarizing(3, 0.7),
            random_channel_with_kraus_rank(3, 2, rng),
            random_channel(3, 4, rng),
        ):
            assert sn_upper_bound_via_kraus(ch) == sn_upper_bound_via_kraus(adjoint(ch))


class TestIsotropicThreshold:
    def test_named_values(self):
        assert abs(isotropic_sn_threshold(3, 2) - 5 / 8) < 1e-15
        assert abs(isotropic_sn_threshold(3, 1) - 0.25) < 1e-15
        assert isotropic_sn_threshold(3, 3) == 1.0

    def test_r1_matches_eb(self):
        for d in (2, 3, 4, 5):
            assert abs(isotropic_sn_threshold(d, 1) - 1 / (d + 1)) < 1e-15

    def test_rejects_bad_rank(self):
        with pytest.raises(InvalidRankError):
            isotropic_sn_threshold(3, 4)
