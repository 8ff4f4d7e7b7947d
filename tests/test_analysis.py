import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidt_lens import analysis, linalg
from schmidt_lens.analysis import (
    bisect_crossing,
    eb_ppt_threshold,
    relation_report,
    simplex_lattice,
    snac_min_eig,
    snac_sweep,
    snbc_witness_sweep,
    snbc_witness_threshold,
    two_local_depolarizing_matrix,
    two_local_output,
)
from schmidt_lens.channels import apply_matrix, depolarizing, identity_channel, tensor
from schmidt_lens.errors import (
    InvalidRankError,
    NoSignChangeError,
    UnknownFamilyError,
)
from schmidt_lens.schmidt import Verdict, apply_id_lambda
from schmidt_lens.states import DensityMatrix, haar_unitary, isotropic_state

from conftest import ref_apply_kraus, ref_id_lambda


class TestWitnessSweep:
    def test_depolarizing_endpoints_and_crossing(self):
        records = snbc_witness_sweep("depolarizing", 3, 2, grid=101)
        assert abs(records[0].value - 5 / 6) < 1e-12
        assert abs(records[-1].value - (-0.5)) < 1e-12
        signs = [rec.value > 0 for rec in records]
        flip = signs.index(False)
        # sign change inside the cell containing 5/8
        assert records[flip - 1].parameter < 5 / 8 <= records[flip].parameter + 1e-12

    def test_dephasing_crossing(self):
        records = snbc_witness_sweep("dephasing", 3, 2, grid=101)
        assert abs(records[0].value - 0.5) < 1e-12
        flip = [rec.value > 0 for rec in records].index(False)
        assert records[flip - 1].parameter < 0.5 <= records[flip].parameter + 1e-12

    def test_qubit_entanglement_crossing(self):
        records = snbc_witness_sweep("depolarizing", 2, 1, grid=101)
        flip = [rec.value > 0 for rec in records].index(False)
        assert records[flip - 1].parameter < 1 / 3 < records[flip].parameter

    def test_custom_channel_constant(self):
        records = snbc_witness_sweep("custom", 3, 2, grid=7, channel=identity_channel(3))
        for rec in records:
            assert abs(rec.value - (-0.5)) < 1e-12
            assert rec.verdict is Verdict.CERTIFIED_ABOVE

    def test_verdicts_follow_sign(self):
        for rec in snbc_witness_sweep("depolarizing", 3, 2, grid=41):
            if rec.value < -1e-9:
                assert rec.verdict is Verdict.CERTIFIED_ABOVE
            else:
                assert rec.verdict is Verdict.CONSISTENT_WITH_AT_MOST

    def test_unknown_family(self):
        with pytest.raises(UnknownFamilyError):
            snbc_witness_sweep("bogus", 3, 2, grid=5)
        with pytest.raises(UnknownFamilyError):
            snbc_witness_sweep("custom", 3, 2, grid=5)  # custom without channel


class TestBisectCrossing:
    def test_affine(self):
        root = bisect_crossing(lambda x: x - 0.5, 0.0, 1.0, tol=1e-9)
        assert abs(root - 0.5) <= 1e-9

    def test_rejects_no_sign_change(self):
        with pytest.raises(NoSignChangeError):
            bisect_crossing(lambda x: x + 1.0, 0.0, 1.0)

    def test_tolerance_below_float_spacing_terminates(self):
        # f is never exactly zero, so the bracket must stop at two adjacent floats
        root = 1 / 3
        got = bisect_crossing(lambda x: 1.0 if x > root else -1.0, 0.0, 1.0, tol=1e-300)
        assert abs(got - root) <= np.spacing(root)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-9])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValueError):
            bisect_crossing(lambda x: x - 0.5, 0.0, 1.0, tol=tol)

    @given(root=st.floats(min_value=0.05, max_value=0.95),
           slope=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_affine_family(self, root, slope):
        got = bisect_crossing(lambda x: slope * (x - root), 0.0, 1.0, tol=1e-10)
        assert abs(got - root) <= 1e-9


class TestThresholds:
    def test_depolarizing_d3_r2(self):
        assert abs(snbc_witness_threshold("depolarizing", 3, 2) - 0.625) <= 1e-8

    def test_dephasing_d3_r2(self):
        assert abs(snbc_witness_threshold("dephasing", 3, 2) - 0.5) <= 1e-8

    def test_threshold_law(self):
        for d, r in ((3, 1), (3, 2), (4, 2), (4, 3)):
            got = snbc_witness_threshold("depolarizing", d, r)
            assert abs(got - (r * d - 1) / (d * d - 1)) <= 1e-8

    def test_dephasing_law(self):
        for d, r in ((3, 2), (4, 2), (4, 3)):
            got = snbc_witness_threshold("dephasing", d, r)
            assert abs(got - (r - 1) / (d - 1)) <= 1e-8

    def test_inside_unit_interval(self):
        got = snbc_witness_threshold("depolarizing", 4, 3)
        assert 0.0 < got < 1.0


class TestEbPptThreshold:
    def test_one_over_d_plus_one(self):
        for d in (2, 3, 4):
            assert abs(eb_ppt_threshold(d) - 1 / (d + 1)) <= 1e-8

    def test_sign_change_across_result(self):
        d = 3
        crossing = eb_ppt_threshold(d)

        def min_eig(p):
            pt = linalg.partial_transpose(isotropic_state(d, p).matrix, (d, d), 1)
            return np.linalg.eigvalsh(pt)[0]

        assert min_eig(crossing - 1e-6) > 0 > min_eig(crossing + 1e-6)


class TestSimplexLattice:
    def test_count_and_membership(self):
        pts = simplex_lattice(30, 3)
        assert len(pts) == 496  # C(32, 2)
        assert (10, 10, 10) in pts
        assert all(sum(pt) == 30 for pt in pts)
        assert all(min(pt) >= 0 for pt in pts)

    def test_deterministic_order(self):
        assert simplex_lattice(2, 2) == [(0, 2), (1, 1), (2, 0)]

    @given(n=st.integers(min_value=1, max_value=12), dims=st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_composition_count(self, n, dims):
        import math

        pts = simplex_lattice(n, dims)
        assert len(pts) == math.comb(n + dims - 1, dims - 1)
        assert len(set(pts)) == len(pts)


class TestTwoLocalOutput:
    def test_identity_channel_corner(self):
        out = two_local_output(identity_channel(3), [1.0, 0.0, 0.0])
        expected = np.zeros((9, 9))
        expected[0, 0] = 1.0  # |00><00|
        np.testing.assert_allclose(out.matrix, expected, atol=1e-14)

    def test_trace_one(self, rng):
        for _ in range(5):
            q = rng.dirichlet(np.ones(3))
            out = two_local_output(depolarizing(3, float(rng.uniform())), q)
            assert abs(np.trace(out.matrix) - 1.0) < 1e-10

    def test_matches_entrywise_matrix(self, rng):
        # generic tensor-channel application against the closed-form builder
        for p in np.linspace(0.0, 1.0, 9):
            for q in (np.full(3, 1 / 3), np.array([0.5, 0.3, 0.2]), rng.dirichlet(np.ones(3))):
                generic = two_local_output(depolarizing(3, float(p)), q).matrix
                entrywise = two_local_depolarizing_matrix(float(p), q)
                assert np.max(np.abs(generic - entrywise)) < 1e-12

    def test_matches_three_term_expansion(self, rng):
        # p^2 w + (1-p)^2 I/9 + p(1-p)(w_A ⊗ I/3 + I/3 ⊗ w_B)
        q = rng.dirichlet(np.ones(3))
        psi = analysis.schmidt_vector_state(q)
        w = psi.density().matrix
        wa = linalg.partial_trace(w, (3, 3), 0)
        wb = linalg.partial_trace(w, (3, 3), 1)
        for p in (0.2, 0.7):
            expansion = (
                p * p * w
                + (1 - p) ** 2 * np.eye(9) / 9
                + p * (1 - p) * (np.kron(wa, np.eye(3) / 3) + np.kron(np.eye(3) / 3, wb))
            )
            got = two_local_output(depolarizing(3, p), q).matrix
            np.testing.assert_allclose(got, expansion, atol=1e-12)


class TestSnacMinEig:
    def test_closed_form_k_half(self):
        # faithful evaluation at k = 1/2: (5 - 8 p^2)/18, crossing sqrt(5/8)
        q = np.full(3, 1 / 3)
        for p in np.linspace(0.0, 1.0, 50):
            got = snac_min_eig(depolarizing(3, float(p)), q, 0.5)
            assert abs(got - (5 - 8 * p * p) / 18) <= 1e-9

    def test_closed_form_k_one(self):
        # the window endpoint k = 1 reproduces (2 - 8 p^2)/9 with crossing 1/2
        q = np.full(3, 1 / 3)
        for p in np.linspace(0.0, 1.0, 50):
            got = snac_min_eig(depolarizing(3, float(p)), q, 1.0)
            assert abs(got - (2 - 8 * p * p) / 9) <= 1e-9

    def test_crossings(self):
        q = np.full(3, 1 / 3)
        x_half = bisect_crossing(
            lambda p: snac_min_eig(depolarizing(3, p), q, 0.5), 0.0, 1.0, tol=1e-10
        )
        assert abs(x_half - np.sqrt(5 / 8)) <= 1e-8
        x_one = bisect_crossing(
            lambda p: snac_min_eig(depolarizing(3, p), q, 1.0), 0.0, 1.0, tol=1e-10
        )
        assert abs(x_one - 0.5) <= 1e-8

    def test_corner_closed_form(self):
        # on a simplex corner the output is a product state; at k = 1/2 the
        # minimum eigenvalue is (1-p)(5-2p)/18, which ties the uniform value
        # exactly at p = 7/10
        for p in (0.1, 0.4, 0.7, 0.9):
            got = snac_min_eig(depolarizing(3, p), [0.0, 0.0, 1.0], 0.5)
            assert abs(got - (1 - p) * (5 - 2 * p) / 18) <= 1e-12
        uni = np.full(3, 1 / 3)
        at_tie = snac_min_eig(depolarizing(3, 0.7), uni, 0.5)
        assert abs(at_tie - (1 - 0.7) * (5 - 2 * 0.7) / 18) <= 1e-12

    def test_brute_force_oracle(self, rng):
        # independent route: loop-based Kraus application + loop-based blocks
        p, k = 0.63, 0.5
        q = rng.dirichlet(np.ones(3))
        ch = depolarizing(3, p)
        pair = tensor(ch, ch)
        rho = analysis.schmidt_vector_state(q).density().matrix
        ref = ref_apply_kraus(pair.kraus, rho)
        ref_out = ref_id_lambda(ref, 3, 3, k)
        want = np.linalg.eigvalsh(ref_out)[0]
        assert abs(snac_min_eig(ch, q, k) - want) < 1e-12

    def test_local_basis_covariance(self, rng):
        ch = depolarizing(3, 0.8)
        q = rng.dirichlet(np.ones(3))
        base = snac_min_eig(ch, q, 0.5)
        u, v = haar_unitary(3, rng), haar_unitary(3, rng)
        amp = np.zeros(9, dtype=complex)
        for j in range(3):
            amp += np.sqrt(q[j]) * np.kron(u[:, j], v[:, j])
        rho = DensityMatrix(np.outer(amp, amp.conj()), (3, 3))
        out = apply_matrix(tensor(ch, ch), rho.matrix)
        rotated = np.linalg.eigvalsh(
            apply_id_lambda(DensityMatrix(out, (3, 3)), 0.5)
        )[0]
        assert abs(rotated - base) < 1e-9

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            snac_min_eig(depolarizing(3, 0.5), np.full(3, 1 / 3), 0.0)


class TestSnacSweep:
    def test_minimizer_in_detection_regime(self):
        # uniform q is the strict lattice minimizer for p > 7/10 at k = 1/2
        records = snac_sweep(3, 0.5, p_grid=5, q_grid=6,
                             channel_factory=lambda p: depolarizing(3, 0.75 + 0.25 * p))
        for rec in records:
            assert tuple(float(f) for f in rec.q_star) == (1 / 3, 1 / 3, 1 / 3)

    def test_records_actual_lattice_minimum(self):
        # the sweep's raw-array kernel against the validated snac_min_eig path
        for d, q_grid in ((3, 6), (4, 3)):
            records = snac_sweep(d, 0.5, p_grid=3, q_grid=q_grid)
            lattice = simplex_lattice(q_grid, d)
            for rec in records:
                ch = depolarizing(d, rec.parameter)
                values = [snac_min_eig(ch, np.asarray(pt) / q_grid, 0.5) for pt in lattice]
                assert abs(min(values) - rec.value) < 1e-12

    def test_corner_minimizer_below_crossover(self):
        # below p = 7/10 the minimum migrates to a simplex corner
        records = snac_sweep(3, 0.5, p_grid=2, q_grid=6,
                             channel_factory=lambda p: depolarizing(3, 0.3))
        assert sorted(float(f) for f in records[0].q_star) == [0.0, 0.0, 1.0]


class TestRelationReport:
    def test_d3_r2_gap(self):
        rep = relation_report(3, 2)
        assert abs(rep.eb_threshold - 0.25) <= 1e-8
        assert abs(rep.snbc_threshold - 0.625) <= 1e-8
        assert rep.gap is not None
        assert rep.pt_min_eig_at_midpoint < 0
        assert rep.witness_value_at_midpoint >= -1e-9

    def test_d3_r1_empty_gap(self):
        rep = relation_report(3, 1)
        assert rep.gap is None
        assert abs(rep.eb_threshold - rep.snbc_threshold) <= 2e-8

    def test_d4_r2_gap(self):
        rep = relation_report(4, 2)
        assert abs(rep.gap[0] - 0.2) <= 1e-8
        assert abs(rep.gap[1] - 7 / 15) <= 1e-8

    def test_rejects_bad_rank(self):
        with pytest.raises(InvalidRankError):
            relation_report(3, 3)

    def test_dict_roundtrip(self):
        rep = relation_report(3, 2)
        d = rep.to_dict()
        assert d["d"] == 3 and d["r"] == 2
        assert d["gap"] == list(rep.gap)
