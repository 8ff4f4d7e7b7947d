from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schmidt_lens import analysis, channels, linalg
from schmidt_lens.analysis import (
    bisect_crossing,
    check_lattice_size,
    eb_ppt_threshold,
    relation_report,
    simplex_lattice,
    snac_lattice_minimum,
    snac_min_eig,
    snac_sweep,
    snbc_witness_sweep,
    snbc_witness_threshold,
    two_local_depolarizing_matrix,
    two_local_output,
)
from schmidt_lens.channels import (
    QuantumChannel,
    apply_matrix,
    channel_from_json,
    channel_to_json,
    dephasing,
    depolarizing,
    identity_channel,
    random_channel,
    tensor,
)
from schmidt_lens.errors import (
    DimensionMismatchError,
    InvalidRankError,
    NoSignChangeError,
    UnknownFamilyError,
)
from schmidt_lens.schmidt import Verdict, apply_id_lambda
from schmidt_lens.states import DensityMatrix, haar_unitary, isotropic_state

from conftest import (
    ref_apply_kraus,
    ref_id_lambda,
    ref_two_local_min_eig,
    ref_two_local_output,
)


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
        with pytest.raises(UnknownFamilyError):
            snbc_witness_sweep("depolarizing", 3, 2, grid=3, channel=identity_channel(3))


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

    @pytest.mark.parametrize("at_lo", [0.0, -2.220446049250313e-16])
    def test_rounding_noise_at_lo_is_a_root(self, at_lo):
        # the dephasing r = 1 witness curve: f(0) rounds to 0.0 or -2.2e-16
        assert bisect_crossing(lambda x: at_lo if x == 0.0 else -2.0 * x, 0.0, 1.0) == 0.0

    def test_rounding_noise_at_hi_is_a_root(self):
        assert bisect_crossing(lambda x: 4e-16 if x == 1.0 else 1.0 - x, 0.0, 1.0) == 1.0

    def test_exact_root_at_a_midpoint_is_returned(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.375

        assert bisect_crossing(f, 0.0, 1.0) == 0.375
        assert calls == [0.0, 1.0, 0.5, 0.25, 0.375]

    @pytest.mark.parametrize("f", [lambda x: 1e-300, lambda x: float("nan"),
                                   lambda x: x - 2.0 if x > 0.0 else float("nan")],
                             ids=["tiny-positive", "nan", "nan-endpoint"])
    def test_no_root_still_raises(self, f):
        with pytest.raises(NoSignChangeError):
            bisect_crossing(f, 0.0, 1.0)

    def test_infinite_endpoint_is_bisected(self):
        got = bisect_crossing(lambda x: -np.inf if x == 0.0 else x - 0.3, 0.0, 1.0, tol=1e-12)
        assert abs(got - 0.3) <= 1e-12

    @given(root=st.floats(min_value=0.05, max_value=0.95),
           slope=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_affine_family(self, root, slope):
        got = bisect_crossing(lambda x: slope * (x - root), 0.0, 1.0, tol=1e-10)
        assert abs(got - root) <= 1e-9


class TestThresholds:
    def test_depolarizing_d3_r2(self):
        # the dyadic root is a bisection midpoint; the curve reads 1.1e-16 there
        assert snbc_witness_threshold("depolarizing", 3, 2) == 0.625

    def test_dephasing_d3_r2(self):
        assert snbc_witness_threshold("dephasing", 3, 2) == 0.5

    def test_threshold_law(self):
        for d, r in ((3, 1), (3, 2), (4, 2), (4, 3)):
            got = snbc_witness_threshold("depolarizing", d, r)
            assert abs(got - (r * d - 1) / (d * d - 1)) <= 1e-8

    def test_dephasing_law(self):
        for d, r in ((3, 2), (4, 2), (4, 3)):
            got = snbc_witness_threshold("dephasing", d, r)
            assert abs(got - (r - 1) / (d - 1)) <= 1e-8

    @pytest.mark.parametrize("d", range(2, 14))
    def test_dephasing_r1_root_at_the_bracket_edge(self, d):
        assert snbc_witness_threshold("dephasing", d, 1) == 0.0

    def test_named_families_build_no_choi_matrix(self, monkeypatch):
        calls = []
        monkeypatch.setattr(analysis, "choi", lambda ch: calls.append(ch))
        monkeypatch.setattr(channels.ChoiMatrix, "__init__", lambda *a: calls.append(a))
        for family in ("depolarizing", "dephasing"):
            snbc_witness_sweep(family, 9, 2, grid=11)
            snbc_witness_threshold(family, 9, 2)
        assert calls == []
        snbc_witness_sweep("custom", 3, 2, grid=5, channel=identity_channel(3))
        assert len(calls) == 1  # the custom channel is validated once

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
        assert pts.shape == (496, 3)  # C(32, 2)
        assert [10, 10, 10] in pts.tolist()
        assert (pts.sum(axis=1) == 30).all()
        assert pts.min() >= 0

    def test_deterministic_order(self):
        pts = simplex_lattice(2, 2)
        assert pts.dtype.kind == "i"
        assert pts.tolist() == [[0, 2], [1, 1], [2, 0]]

    @given(n=st.integers(min_value=1, max_value=12), dims=st.integers(min_value=1, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_composition_count(self, n, dims):
        import math

        pts = [tuple(pt) for pt in simplex_lattice(n, dims).tolist()]
        assert len(pts) == math.comb(n + dims - 1, dims - 1)
        assert len(set(pts)) == len(pts)
        assert pts == sorted(pts)
        assert all(sum(pt) == n for pt in pts)


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
        # the two-local kernel against the closed-form entrywise builder
        for p in np.linspace(0.0, 1.0, 9):
            for q in (np.full(3, 1 / 3), np.array([0.5, 0.3, 0.2]), rng.dirichlet(np.ones(3))):
                generic = two_local_output(depolarizing(3, float(p)), q).matrix
                entrywise = two_local_depolarizing_matrix(float(p), q)
                assert np.max(np.abs(generic - entrywise)) < 1e-12

    def test_matches_three_term_expansion(self, rng):
        # p^2 w + (1-p)^2 I/9 + p(1-p)(w_A ⊗ I/3 + I/3 ⊗ w_B)
        q = rng.dirichlet(np.ones(3))
        amp = np.zeros(9)
        amp[[0, 4, 8]] = np.sqrt(q)  # sum_j sqrt(q_j) |jj>
        w = np.outer(amp, amp)
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
        amp = np.zeros(9)
        amp[[0, 4, 8]] = np.sqrt(q)  # sum_j sqrt(q_j) |jj>
        rho = np.outer(amp, amp)
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

    @pytest.mark.parametrize("build", [
        lambda q: snac_min_eig(depolarizing(3, 0.5), q, 0.5),
        lambda q: two_local_output(depolarizing(3, 0.5), q),
    ])
    def test_rejects_nan_q(self, build):
        with pytest.raises(ValueError, match="probability vector"):
            build([float("nan")] * 3)


class TestSnacSweep:
    def test_minimizer_in_detection_regime(self):
        # uniform q is the strict lattice minimizer for p > 7/10 at k = 1/2
        for p in 0.75 + 0.25 * np.linspace(0.0, 1.0, 5):
            q_star, _ = snac_lattice_minimum(depolarizing(3, p), 0.5, 6)
            assert tuple(float(f) for f in q_star) == (1 / 3, 1 / 3, 1 / 3)

    def test_records_actual_lattice_minimum(self):
        # the batched kernel against the loop reference at every lattice point
        for d, q_grid in ((3, 6), (4, 3)):
            records = snac_sweep(d, 0.5, p_grid=3, q_grid=q_grid)
            lattice = simplex_lattice(q_grid, d)
            for rec in records:
                kraus = depolarizing(d, rec.parameter).kraus
                values = [ref_two_local_min_eig(kraus, np.asarray(pt) / q_grid, 0.5)
                          for pt in lattice]
                assert abs(min(values) - rec.value) < 1e-12

    def test_non_covariant_channel(self):
        ch = random_channel(3, 4, seed=7)
        q_star, value = snac_lattice_minimum(ch, 0.5, 6)
        values = [ref_two_local_min_eig(ch.kraus, np.asarray(pt) / 6, 0.5)
                  for pt in simplex_lattice(6, 3)]
        assert abs(min(values) - value) < 1e-12
        at_star = ref_two_local_min_eig(ch.kraus, np.array([float(f) for f in q_star]), 0.5)
        assert abs(at_star - value) < 1e-12

    def test_lattice_larger_than_a_chunk(self):
        # 165 points at d = 9 span three chunks of CHUNK_BYTES // (16 * 9**4) = 79 rows
        ch = random_channel(9, 2, seed=3)
        lattice = simplex_lattice(3, 9)
        assert len(lattice) > analysis.CHUNK_BYTES // (16 * 9 ** 4)
        values = np.array([snac_min_eig(ch, np.asarray(pt) / 3, 0.5) for pt in lattice])
        q_star, value = snac_lattice_minimum(ch, 0.5, 3)
        best = int(np.argmin(values))
        assert q_star == tuple(Fraction(n, 3) for n in lattice[best])
        assert abs(value - values[best]) < 1e-12

    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_ties_go_to_first_lexicographic_point(self, p):
        # every corner ties (and at p = 0 every point: the output is I/9)
        q_star, value = snac_lattice_minimum(depolarizing(3, p), 0.5, 30)
        assert q_star == (0, 0, 1)
        assert abs(value - (1 - p) * (5 - 2 * p) / 18) <= 1e-15

    def test_rejects_non_square_or_mismatched_channel(self):
        isometry = QuantumChannel([np.eye(3, 2)])
        with pytest.raises(DimensionMismatchError):
            snac_lattice_minimum(isometry, 0.5, 3)
        with pytest.raises(DimensionMismatchError):
            two_local_output(isometry, [0.5, 0.5])
        with pytest.raises(DimensionMismatchError):
            snac_min_eig(depolarizing(3, 0.5), np.full(4, 0.25), 0.5)

    def test_lattice_budget(self):
        assert check_lattice_size(30, 3) == 496
        assert check_lattice_size(1, analysis.MAX_LATTICE_POINTS) == analysis.MAX_LATTICE_POINTS
        calls = (
            lambda: check_lattice_size(1, analysis.MAX_LATTICE_POINTS + 1),
            lambda: simplex_lattice(30, 9),
            lambda: snac_lattice_minimum(depolarizing(9, 0.5), 0.5, 30),
            lambda: snac_sweep(9, 0.5, p_grid=2, q_grid=30),
        )
        for call in calls:
            with pytest.raises(ValueError, match="budget"):
                call()

    def test_corner_minimizer_below_crossover(self):
        # below p = 7/10 the minimum migrates to a simplex corner
        records = snac_sweep(3, 0.5, p_grid=2, q_grid=6, channel=depolarizing(3, 0.3))
        assert sorted(float(f) for f in records[0].q_star) == [0.0, 0.0, 1.0]


def _dense_calls(monkeypatch):
    """Count the dense kernel's calls of _two_local_array from here on."""
    calls = []
    dense = analysis._two_local_array
    monkeypatch.setattr(analysis, "_two_local_array",
                        lambda pair, q: calls.append(len(q)) or dense(pair, q))
    return calls


class TestPhaseCovariantKernel:
    # lattice points per d: all of q-grid 2 up to d = 5, and two points at d = 9
    POINTS = {d: simplex_lattice(2, d) for d in (2, 3, 4, 5)}
    POINTS[9] = np.array([[1] * 9, [3, 2, 1, 1, 1, 1, 0, 0, 0]])

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 9])
    @pytest.mark.parametrize("family", [depolarizing, dephasing])
    def test_matches_the_loop_reference(self, d, family, monkeypatch):
        dense = _dense_calls(monkeypatch)
        for p in (0.0, 0.3, 0.5, 0.7, 1.0):
            ch = family(d, p)
            assert analysis.phase_covariant_defect(ch) <= analysis.PHASE_COVARIANT_TOL
            for point in self.POINTS[d]:
                q = point / point.sum()
                out = ref_two_local_output(ch.kraus, q)
                for k in (1 / 3, 1 / 2, 1.0):
                    want = np.linalg.eigvalsh(ref_id_lambda(out, d, d, k))[0]
                    assert abs(snac_min_eig(ch, q, k) - want) <= 1e-14, (p, point, k)
        assert dense == []

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("family", ["depolarizing", "dephasing", "random"])
    def test_min_eig_is_one_lattice_row(self, d, family, monkeypatch):
        ch = (random_channel(d, 4, 7) if family == "random"
              else analysis.FAMILIES[family].channel(d, 0.6))
        dense = _dense_calls(monkeypatch)
        for pt in simplex_lattice(3, d):
            for k in (1 / 3, 1 / 2, 1.0):
                row = snac_lattice_minimum(ch, k, 3, lattice=pt[None])[1]
                assert snac_min_eig(ch, pt / 3, k) == row, (pt, k)
        assert (dense == []) == (family != "random")

    def test_named_families_sit_well_inside_the_tolerance(self):
        # measured: at most 2.4e-16 for depolarizing (d <= 13), exactly 0 for dephasing
        for d in range(2, 14):
            for p in np.linspace(0.0, 1.0, 11):
                assert analysis.phase_covariant_defect(depolarizing(d, p)) <= 1e-15
                assert analysis.phase_covariant_defect(dephasing(d, p)) == 0.0

    def test_rejects_a_random_channel(self, monkeypatch):
        ch = random_channel(3, 4, seed=7)
        assert analysis.phase_covariant_defect(ch) > 0.1
        dense = _dense_calls(monkeypatch)
        snac_lattice_minimum(ch, 0.5, 4)
        assert dense == [15]

    def test_rejects_a_nudged_depolarizing_stack(self, monkeypatch):
        stack = depolarizing(3, 0.5)._stack.copy()
        stack[0, 1, 0] += 1e-9  # Φ(|0><0|) gets an off-diagonal entry 1e-9 sqrt(0.5 + 0.5/9)
        ch = QuantumChannel(stack)
        assert analysis.PHASE_COVARIANT_TOL < analysis.phase_covariant_defect(ch) < 1e-9
        dense = _dense_calls(monkeypatch)
        q_star, value = snac_lattice_minimum(ch, 0.5, 4)
        assert dense == [15]
        want = ref_two_local_min_eig(ch.kraus, np.array([float(f) for f in q_star]), 0.5)
        assert abs(value - want) < 1e-12

    def test_channel_file_round_trip_is_reduced(self, monkeypatch):
        original = depolarizing(4, 0.6)
        ch = channel_from_json(channel_to_json(original))
        assert analysis.phase_covariant_defect(ch) <= analysis.PHASE_COVARIANT_TOL
        dense_calls = _dense_calls(monkeypatch)
        q_star, value = snac_lattice_minimum(ch, 0.5, 4)
        assert dense_calls == []
        monkeypatch.undo()
        lattice = simplex_lattice(4, 4)
        dense = [np.linalg.eigvalsh(apply_id_lambda(two_local_output(ch, pt / 4), 0.5))[0]
                 for pt in lattice]
        best = int(np.argmax(dense <= np.min(dense) + analysis.TIE_TOL))
        assert q_star == tuple(Fraction(int(n), 4) for n in lattice[best])
        assert abs(value - dense[best]) <= 1e-14
        assert (q_star, value) == snac_lattice_minimum(original, 0.5, 4)

    def test_chunks_give_the_unchunked_result(self, monkeypatch):
        ch = depolarizing(3, 0.8)
        whole = snac_lattice_minimum(ch, 0.5, 30)
        monkeypatch.setattr(analysis, "CHUNK_BYTES", 16 * 3 ** 2 * 7)  # 7 points a chunk
        q_star, value = snac_lattice_minimum(ch, 0.5, 30)
        assert q_star == whole[0]
        assert abs(value - whole[1]) <= 1e-15

    def test_dense_chunks_share_one_pair_tensor(self, monkeypatch):
        ch = random_channel(3, 4, seed=7)
        whole = snac_lattice_minimum(ch, 0.5, 6)
        built = []
        pair_tensor = analysis._pair_tensor
        monkeypatch.setattr(analysis, "_pair_tensor",
                            lambda phi: built.append(1) or pair_tensor(phi))
        monkeypatch.setattr(analysis, "CHUNK_BYTES", 16 * 9 ** 2 * 5)  # 5 points a chunk
        dense = _dense_calls(monkeypatch)
        assert snac_lattice_minimum(ch, 0.5, 6) == whole
        assert dense == [5, 5, 5, 5, 5, 3] and built == [1]

    def test_sweep_builds_the_lattice_once(self, monkeypatch):
        built = []
        lattice = analysis.simplex_lattice
        monkeypatch.setattr(analysis, "simplex_lattice",
                            lambda n, dims: built.append((n, dims)) or lattice(n, dims))
        snac_sweep(3, 0.5, p_grid=4, q_grid=6)
        assert built == [(6, 3)]

    def test_fixed_channel_is_minimized_once(self, monkeypatch):
        # a channel file fixes one channel for every p
        ch = random_channel(3, 4, seed=7)
        q_star, value = snac_lattice_minimum(ch, 0.5, 6)
        built = []
        pair_tensor = analysis._pair_tensor
        monkeypatch.setattr(analysis, "_pair_tensor",
                            lambda phi: built.append(1) or pair_tensor(phi))
        records = snac_sweep(3, 0.5, p_grid=4, q_grid=6, channel=ch)
        assert built == [1]
        assert [(r.parameter, r.value, r.q_star) for r in records] == [
            (p, value, q_star) for p in np.linspace(0.0, 1.0, 4).tolist()]

    def test_default_family_is_minimized_at_every_p(self, monkeypatch):
        minimized = []
        minimum = analysis.snac_lattice_minimum
        monkeypatch.setattr(analysis, "snac_lattice_minimum",
                            lambda ch, *a, **kw: minimized.append(ch) or minimum(ch, *a, **kw))
        records = snac_sweep(3, 0.5, p_grid=3, q_grid=4)
        assert [np.array_equal(ch._stack, depolarizing(3, p)._stack)
                for ch, p in zip(minimized, (0.0, 0.5, 1.0))] == [True] * 3
        assert [(r.q_star, r.value) for r in records] == [
            minimum(depolarizing(3, p), 0.5, 4) for p in (0.0, 0.5, 1.0)]

    def test_work_budgets_per_kernel(self):
        # the family is charged a reduced-kernel lattice per p: snac --d 9
        # --q-grid 8 runs up to --p-grid 38
        assert analysis.check_snac_size(9, 11, 8) == 11 * 12870 * 81
        assert analysis.check_snac_size(9, 38, 8) == 38 * 12870 * 81
        with pytest.raises(ValueError, match="budget"):
            analysis.check_snac_size(9, 39, 8)
        # a given channel is charged one lattice of the kernel it takes
        for ch in (depolarizing(9, 0.5), dephasing(9, 0.3)):
            assert analysis.check_snac_size(9, 1001, 8, ch) == 12870 * 81
        dense = random_channel(9, 4, seed=7)
        with pytest.raises(ValueError, match="budget"):
            analysis.check_snac_size(9, 2, 8, dense)  # 12870 x 9^6
        assert analysis.check_snac_size(9, 1001, 3, dense) == 165 * 9 ** 6
        # the dense cap at d = 4 and d = 3 (max(d, 4)^6 = 4096 per point)
        ch4, ch3 = random_channel(4, 4, seed=7), random_channel(3, 4, seed=7)
        assert analysis.check_snac_size(4, 1001, 141, ch4) == 487344 * 4 ** 6
        with pytest.raises(ValueError, match="budget"):
            analysis.check_snac_size(4, 2, 142, ch4)
        assert analysis.check_snac_size(3, 1001, 986, ch3) == 487578 * 4 ** 6
        with pytest.raises(ValueError, match="budget"):
            analysis.check_snac_size(3, 2, 987, ch3)

    def test_budget_rejects_a_channel_of_another_dimension(self):
        with pytest.raises(DimensionMismatchError):
            analysis.check_snac_size(4, 2, 2, random_channel(3, 4, seed=7))
        with pytest.raises(DimensionMismatchError):
            snac_sweep(4, 0.5, 2, 2, channel=random_channel(3, 4, seed=7))


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
