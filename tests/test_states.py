import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidt_lens import linalg, states
from schmidt_lens.channels import ChoiMatrix
from schmidt_lens.errors import (
    InvalidDimensionError,
    InvalidRankError,
    NotBipartiteError,
    NotHermitianError,
    NotPSDError,
    ParamOutOfRangeError,
)
from schmidt_lens.states import (
    DensityMatrix,
    PureState,
    _flat_dirichlet,
    _schmidt_amplitudes,
    as_density_stack,
    haar_unitary,
    isotropic_state,
    max_entangled,
    random_density,
    random_pure_with_schmidt_rank,
    random_state_sn_at_most,
    random_states_sn_at_most,
    schmidt_coefficients,
    schmidt_rank,
)

from conftest import ref_pure_with_schmidt_rank, ref_schmidt_amplitudes, ref_sn_mixtures


class TestMaxEntangled:
    def test_d2(self):
        psi = max_entangled(2)
        np.testing.assert_allclose(psi.amplitudes, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_d3_amplitude_slots(self):
        psi = max_entangled(3)
        expected = np.zeros(9)
        expected[[0, 4, 8]] = 1 / np.sqrt(3)
        np.testing.assert_allclose(psi.amplitudes, expected)

    def test_normalized(self):
        for d in (2, 3, 4, 5):
            assert abs(np.vdot(max_entangled(d).amplitudes, max_entangled(d).amplitudes) - 1) < 1e-14

    def test_rejects_small_d(self):
        with pytest.raises(InvalidDimensionError):
            max_entangled(1)


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PureState(np.ones(4), (2, 2))

    def test_rejects_wrong_length(self):
        with pytest.raises(Exception):
            PureState(np.array([1.0, 0.0, 0.0]), (2, 2))

    def test_density_roundtrip(self):
        psi = max_entangled(2)
        rho = psi.density()
        np.testing.assert_allclose(rho.matrix, np.outer(psi.amplitudes, psi.amplitudes.conj()))
        assert rho.dims == (2, 2)

    def test_single_system_has_no_schmidt_structure(self):
        psi = PureState(np.array([1.0, 0.0]), (2,))
        with pytest.raises(NotBipartiteError):
            schmidt_coefficients(psi)


class TestDensityMatrix:
    def test_rejects_negative(self):
        with pytest.raises(NotPSDError):
            DensityMatrix(np.diag([1.5, -0.5]), (2,))

    def test_rejects_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2), (2,))

    def test_marginals(self):
        rho = max_entangled(3).density()
        np.testing.assert_allclose(rho.marginal(0), np.eye(3) / 3, atol=1e-12)


class TestSchmidtCoefficients:
    def test_max_entangled(self):
        np.testing.assert_allclose(
            schmidt_coefficients(max_entangled(3)), np.full(3, 1 / 3), atol=1e-14
        )

    def test_product_state(self):
        amp = np.zeros(4)
        amp[1] = 1.0  # |0> ⊗ |1>
        lam = schmidt_coefficients(PureState(amp, (2, 2)))
        np.testing.assert_allclose(lam, [1.0, 0.0], atol=1e-14)

    def test_constructed_coefficients(self):
        amp = np.zeros(9)
        amp[0] = np.sqrt(0.7)   # |00>
        amp[4] = np.sqrt(0.3)   # |11>
        lam = schmidt_coefficients(PureState(amp, (3, 3)))
        np.testing.assert_allclose(lam, [0.7, 0.3, 0.0], atol=1e-14)

    def test_distribution(self, rng):
        for _ in range(50):
            v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
            psi = PureState(v / np.linalg.norm(v), (3, 4))
            lam = schmidt_coefficients(psi)
            assert abs(lam.sum() - 1.0) < 1e-10
            assert np.all(lam >= -1e-15)
            assert np.all(np.diff(lam) <= 1e-12)


class TestSchmidtRank:
    def test_named_cases(self):
        assert schmidt_rank(max_entangled(3)) == 3
        amp = np.zeros(4)
        amp[0] = 1.0
        assert schmidt_rank(PureState(amp, (2, 2))) == 1

    def test_embedded_bell_pair(self):
        amp = np.zeros(9)
        amp[0] = amp[4] = 1 / np.sqrt(2)
        assert schmidt_rank(PureState(amp, (3, 3))) == 2

    def test_local_unitary_invariance(self, rng):
        for _ in range(30):
            r = int(rng.integers(1, 4))
            psi = random_pure_with_schmidt_rank(3, 3, r, rng)
            u = np.kron(haar_unitary(3, rng), haar_unitary(3, rng))
            assert schmidt_rank(PureState(u @ psi.amplitudes, (3, 3))) == r


class TestRandomPureWithSchmidtRank:
    def test_rank_exact(self, rng):
        for da, db in ((2, 2), (3, 3), (3, 4), (4, 2)):
            for r in range(1, min(da, db) + 1):
                psi = random_pure_with_schmidt_rank(da, db, r, rng)
                assert schmidt_rank(psi) == r

    def test_product_for_r1(self, rng):
        psi = random_pure_with_schmidt_rank(3, 3, 1, rng)
        lam = schmidt_coefficients(psi)
        np.testing.assert_allclose(lam[0], 1.0, atol=1e-12)

    def test_coefficient_floor(self):
        for seed in range(40):
            psi = random_pure_with_schmidt_rank(3, 3, 3, seed)
            lam = schmidt_coefficients(psi)
            assert lam[-1] > 0.009  # floor 0.01 up to renormalization

    def test_deterministic_per_seed(self):
        a = random_pure_with_schmidt_rank(3, 4, 2, 123)
        b = random_pure_with_schmidt_rank(3, 4, 2, 123)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_uniform_coefficients_rotate_max_entangled(self, rng):
        # Sigma_i sqrt(1/d) U|i> V|i> is (U ⊗ V)|phi+>
        d = 3
        u, v = haar_unitary(d, rng), haar_unitary(d, rng)
        amp = np.zeros(d * d, dtype=complex)
        for i in range(d):
            amp += np.sqrt(1 / d) * np.kron(u[:, i], v[:, i])
        rotated = np.kron(u, v) @ max_entangled(d).amplitudes
        np.testing.assert_allclose(amp, rotated, atol=1e-12)
        assert schmidt_rank(PureState(amp, (d, d))) == d

    @pytest.mark.parametrize("d, r", [(2, 1), (3, 2), (4, 3), (4, 2)])
    def test_bit_equal_to_dirichlet_draws(self, d, r):
        for seed in range(20):
            ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            psi = random_pure_with_schmidt_rank(d, d, r, rng)
            assert np.array_equal(psi.amplitudes, ref_pure_with_schmidt_rank(d, d, r, ref_rng))
            assert ref_rng.bit_generator.state == rng.bit_generator.state

    def test_rejects_bad_rank(self):
        with pytest.raises(InvalidRankError):
            random_pure_with_schmidt_rank(3, 3, 4, 0)
        with pytest.raises(InvalidRankError):
            random_pure_with_schmidt_rank(3, 3, 0, 0)


class TestSchmidtAmplitudes:
    # the bases come from a QR of their first r Gaussian columns only; the
    # rank-r generator and the mixtures both draw their terms through it
    @pytest.mark.parametrize("da", range(1, 10))
    def test_bit_equal_to_full_qr_slices(self, da):
        rng = np.random.default_rng(da)
        for db in range(1, 10):
            for r in range(1, min(da, db) + 1):
                lam = _flat_dirichlet(rng.standard_exponential((20, r)))
                g = rng.standard_normal((20, 2 * (da * da + db * db)))
                assert np.array_equal(_schmidt_amplitudes(da, db, lam, g),
                                      ref_schmidt_amplitudes(da, db, lam, g)), (da, db, r)

    @pytest.mark.parametrize("da, db, calls", [(3, 3, 1), (3, 4, 2), (2, 2, 1)])
    def test_equal_local_dimensions_share_one_qr(self, monkeypatch, da, db, calls):
        shapes = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda z: shapes.append(z.shape) or qr(z))
        rng = np.random.default_rng(0)
        lam = _flat_dirichlet(rng.standard_exponential((5, 2)))
        _schmidt_amplitudes(da, db, lam, rng.standard_normal((5, 2 * (da * da + db * db))))
        assert len(shapes) == calls
        assert all(shape[-1] == 2 for shape in shapes)  # r columns, not d


class TestFlatDirichlet:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_bit_equal_to_generator_dirichlet(self, k):
        # catches a numpy release that changes how dirichlet draws or normalizes
        for seed in range(200):
            ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            want = ref_rng.dirichlet(np.ones(k))
            assert np.array_equal(_flat_dirichlet(rng.standard_exponential(k)), want), seed
            assert ref_rng.bit_generator.state == rng.bit_generator.state


class TestRandomStateSnAtMost:
    def test_single_product_term_is_pure(self):
        rho = random_state_sn_at_most(3, 3, 1, terms=1, seed=7)
        vals = np.linalg.eigvalsh(rho.matrix)
        np.testing.assert_allclose(vals[-1], 1.0, atol=1e-12)

    def test_separable_mixtures_pass_ppt(self, rng):
        for _ in range(60):
            rho = random_state_sn_at_most(3, 3, 1, terms=int(rng.integers(1, 6)), seed=rng)
            pt = linalg.partial_transpose(rho.matrix, (3, 3), 1)
            assert np.linalg.eigvalsh(pt)[0] >= -1e-9

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidRankError):
            random_state_sn_at_most(3, 3, 5, terms=2, seed=0)
        with pytest.raises(ValueError):
            random_state_sn_at_most(3, 3, 2, terms=0, seed=0)


class TestRandomStatesSnAtMost:
    @pytest.mark.parametrize("d, r", [(2, 1), (3, 2), (4, 3)])
    def test_matches_loop_of_single_states(self, d, r):
        loop_rng, stack_rng = np.random.default_rng(5), np.random.default_rng(5)
        loop = np.array([
            random_state_sn_at_most(d, d, r, int(loop_rng.integers(1, 5)), loop_rng).matrix
            for _ in range(40)
        ])
        stack = random_states_sn_at_most(d, d, r, 40, 4, stack_rng)
        assert stack.shape == (40, d * d, d * d)
        assert np.max(np.abs(stack - loop)) <= 1e-15
        assert loop_rng.bit_generator.state == stack_rng.bit_generator.state

    @pytest.mark.parametrize("d, r, max_terms", [(2, 1, 4), (3, 2, 5), (4, 3, 3)])
    def test_bit_equal_to_dirichlet_draws(self, d, r, max_terms):
        ref_rng, rng = np.random.default_rng(11), np.random.default_rng(11)
        want = ref_sn_mixtures(d, d, r, 60, max_terms, ref_rng)
        assert np.array_equal(random_states_sn_at_most(d, d, r, 60, max_terms, rng), want)
        assert ref_rng.bit_generator.state == rng.bit_generator.state
        for terms in range(1, max_terms + 1):  # one state, no term count drawn
            want = ref_sn_mixtures(d, d, r, 1, terms, ref_rng, draw_terms=False)[0]
            assert np.array_equal(random_state_sn_at_most(d, d, r, terms, rng).matrix, want)
            assert ref_rng.bit_generator.state == rng.bit_generator.state

    def test_consecutive_stacks_continue_one_stack(self):
        whole_rng, split_rng = np.random.default_rng(9), np.random.default_rng(9)
        whole = random_states_sn_at_most(3, 3, 2, 30, 5, whole_rng)
        split = np.concatenate([random_states_sn_at_most(3, 3, 2, n, 5, split_rng)
                                for n in (12, 1, 17)])
        assert np.max(np.abs(whole - split)) <= 1e-15
        assert whole_rng.bit_generator.state == split_rng.bit_generator.state

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidRankError):
            random_states_sn_at_most(3, 3, 4, 5, 2, seed=0)
        with pytest.raises(ValueError):
            random_states_sn_at_most(3, 3, 2, 0, 2, seed=0)
        with pytest.raises(ValueError):
            random_states_sn_at_most(3, 3, 2, 5, 0, seed=0)


class TestAsDensityStack:
    @pytest.fixture
    def stack(self):
        return random_states_sn_at_most(3, 3, 2, 6, 3, seed=1)

    def test_returns_the_valid_stack(self, stack):
        np.testing.assert_array_equal(as_density_stack(stack), stack)

    def test_rejects_non_hermitian_entry(self, stack):
        stack[4, 0, 1] += 1e-6
        with pytest.raises(NotHermitianError, match="state 4"):
            as_density_stack(stack)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entry(self, stack, bad):
        stack[1, 3, 3] = bad
        with pytest.raises(NotHermitianError, match="state 1"):
            as_density_stack(stack)

    def test_rejects_off_trace_entry(self, stack):
        stack[2, 5, 5] += 1e-6
        with pytest.raises(ValueError, match="state 2: trace"):
            as_density_stack(stack)

    def test_rejects_non_psd_entry(self, stack):
        stack[3] = np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(NotPSDError, match="state 3"):
            as_density_stack(stack)

    def test_single_matrix_messages_name_no_state(self):
        with pytest.raises(NotPSDError, match="^minimum eigenvalue"):
            as_density_stack(np.diag([1.5, -0.5]).astype(complex))


def test_error_messages_print_plain_numbers(monkeypatch):
    def message(call):
        with pytest.raises(ValueError) as info:
            call()
        return str(info.value)

    texts = [
        message(lambda: ChoiMatrix(np.eye(9) / 9 * (1 + 5e-10), 3, 3)),
        message(lambda: as_density_stack(np.eye(2, dtype=complex))),
        message(lambda: PureState(np.ones(2), (2,))),
    ]
    monkeypatch.setattr(states, "_schmidt_amplitudes",
                        lambda dA, dB, lam, g: 2.0 * np.ones((len(lam), dA * dB)))
    texts.append(message(lambda: random_states_sn_at_most(2, 2, 1, 2, 1, seed=0)))
    assert texts == [
        "Choi trace (1.0000000005+0j) deviates from 1",
        "trace 2.0 deviates from 1 beyond 1e-10",
        "state norm 1.4142135623730951 deviates from 1 beyond 1e-12",
        "state 0: term norm 4.0 deviates from 1 beyond 1e-12",
    ]
    assert not any("np." in text for text in texts)


class TestIsotropicState:
    def test_extremes(self):
        np.testing.assert_allclose(
            isotropic_state(3, 1.0).matrix, max_entangled(3).density().matrix, atol=1e-14
        )
        np.testing.assert_allclose(isotropic_state(3, 0.0).matrix, np.eye(9) / 9)

    @given(p=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_always_a_state(self, p):
        rho = isotropic_state(3, p)
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ParamOutOfRangeError):
            isotropic_state(3, 1.5)


class TestRandomDensity:
    def test_valid(self, rng):
        rho = random_density(5, rng)
        assert abs(np.trace(rho.matrix) - 1) < 1e-12
        assert np.linalg.eigvalsh(rho.matrix)[0] >= -1e-12
