import itertools
import math
import tracemalloc
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
    adjoint,
    apply_matrix,
    channel_from_json,
    channel_to_json,
    dephasing,
    depolarizing,
    identity_channel,
    random_channel,
    tensor,
    _unit_images,
)
from schmidt_lens.errors import (
    BudgetError,
    DimensionMismatchError,
    InvalidRankError,
    NoSignChangeError,
    NotTracePreservingError,
    ParamOutOfRangeError,
    UnknownFamilyError,
)
from schmidt_lens.schmidt import Verdict, apply_id_lambda, channel_witness_value, witness
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

    def test_a_named_grid_is_read_in_stacked_chunks(self, monkeypatch):
        chunks, maps = [], []
        traces, ordered = analysis._family_kraus_traces, analysis._ordered_map
        monkeypatch.setattr(analysis, "_family_kraus_traces",
                            lambda f, d, p: chunks.append(np.shape(p)) or traces(f, d, p))
        monkeypatch.setattr(analysis, "_ordered_map",
                            lambda fn, items: maps.append(fn) or ordered(fn, items))
        snbc_witness_sweep("dephasing", 3, 2, grid=11)
        assert chunks == [(11,)] and len(maps) == 1
        chunks.clear()
        snbc_witness_sweep("depolarizing", 9, 2, grid=101)  # 81 Kraus operators
        assert sum(n for n, in chunks) == 101 and len(chunks) > 1
        assert all(24 * 81 * 9 * n <= analysis.GRID_CHUNK_BYTES for n, in chunks)

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
        monkeypatch.setattr(channels.ChoiMatrix, "__init__", lambda *a: calls.append(a))
        for family in ("depolarizing", "dephasing"):
            snbc_witness_sweep(family, 9, 2, grid=11)
            snbc_witness_threshold(family, 9, 2)
        assert calls == []
        snbc_witness_sweep("custom", 3, 2, grid=5, channel=identity_channel(3))
        assert len(calls) == 0

    def test_studies_check_a_given_channel_by_one_rule(self):
        adj = adjoint(random_channel(3, 2, 1))
        assert adj.trace_preservation_defect() > 0.6
        for call in (lambda: snbc_witness_sweep("custom", 3, 2, grid=5, channel=adj),
                     lambda: snac_sweep(3, 0.5, 2, 3, channel=adj),
                     lambda: snac_min_eig(adj, np.full(3, 1 / 3), 0.5),
                     lambda: snac_lattice_minimum(adj, 0.5, 6),
                     lambda: two_local_output(adj, np.full(3, 1 / 3))):
            with pytest.raises(NotTracePreservingError, match="exceeds"):
                call()
        near = QuantumChannel([np.sqrt(1.0 + 5e-10) * np.eye(3)])  # accepted on construction
        assert [rec.value for rec in snbc_witness_sweep("custom", 3, 2, 2, channel=near)] == [
            channel_witness_value(witness(3, 2), near)] * 2
        assert len(snac_sweep(3, 0.5, 2, 3, channel=near)) == 2
        for study in (lambda ch: snbc_witness_sweep("custom", 3, 2, 2, channel=ch),
                      lambda ch: snac_sweep(3, 0.5, 2, 3, channel=ch)):
            with pytest.raises(DimensionMismatchError):
                study(QuantumChannel([np.eye(3, 2)]))
            with pytest.raises(DimensionMismatchError):
                study(identity_channel(4))

    def test_inside_unit_interval(self):
        got = snbc_witness_threshold("depolarizing", 4, 3)
        assert 0.0 < got < 1.0

    @pytest.mark.parametrize("family", ["depolarizing", "dephasing"])
    def test_named_curves_equal_the_built_channels_bit_for_bit(self, family):
        build = getattr(channels, family)
        grid = np.linspace(0.0, 1.0, 101)
        for d in range(2, 14):
            built = [build(d, float(p)) for p in grid]
            for r in range(1, d):
                w = witness(d, r)
                want = bisect_crossing(lambda p: channel_witness_value(w, build(d, p)), 0.0, 1.0)
                assert snbc_witness_threshold(family, d, r) == want, (d, r)
                assert [rec.value for rec in snbc_witness_sweep(family, d, r, grid=101)] == [
                    channel_witness_value(w, ch) for ch in built], (d, r)

    def test_named_curves_build_no_channel(self, monkeypatch):
        calls = []
        init = QuantumChannel.__init__
        monkeypatch.setattr(QuantumChannel, "__init__",
                            lambda self, *a, **kw: calls.append(a) or init(self, *a, **kw))
        for family in ("depolarizing", "dephasing"):
            snbc_witness_sweep(family, 9, 2, grid=11)
            snbc_witness_threshold(family, 9, 2)
        assert calls == []
        depolarizing(3, 0.5)
        assert len(calls) == 1

    def test_a_checked_channel_is_not_summed_again(self, monkeypatch):
        calls = []
        kraus_sum = channels._kraus_sum_defect
        monkeypatch.setattr(channels, "_kraus_sum_defect",
                            lambda stack: calls.append(stack.shape) or kraus_sum(stack))
        q = np.array([0.5, 0.3, 0.2])
        snac_min_eig(depolarizing(3, 0.8), q, 0.5)
        assert calls == []  # the family's channel holds the defect of its Gram check
        ch = random_channel(3, 4, 7)
        for study in (lambda: snac_min_eig(ch, q, 0.5), lambda: snac_lattice_minimum(ch, 0.5, 6),
                      lambda: two_local_output(ch, q), lambda: snac_sweep(3, 0.5, 2, 3, channel=ch)):
            study()
        assert calls == [(4, 3, 3)]  # on construction only
        with pytest.raises(NotTracePreservingError, match="exceeds"):
            analysis._check_square(adjoint(ch), 3)


class TestThresholdsAreTight:
    """At each family's witness crossing the channel is r-SNB: its Choi state
    is a mixture of states of Schmidt rank r, so the crossing is the exact
    breaking threshold, not only the point where the witness stops firing."""

    @staticmethod
    def subset_average(d: int, r: int) -> np.ndarray:
        """Uniform average over the r-subsets S of phi+_S, each of Schmidt rank r."""
        states = []
        for subset in itertools.combinations(range(d), r):
            amp = np.zeros(d * d)
            amp[[i * d + i for i in subset]] = 1.0 / np.sqrt(r)
            assert np.linalg.matrix_rank(amp.reshape(d, d)) == r
            states.append(np.outer(amp, amp))
        return np.mean(states, axis=0)

    @staticmethod
    def twirl(x: np.ndarray, d: int) -> np.ndarray:
        """The U ⊗ Ū twirl in closed form: it keeps <phi+|X|phi+> and Tr X."""
        phi = np.eye(d).reshape(-1) / np.sqrt(d)
        proj = np.outer(phi, phi)
        f = phi @ x @ phi
        return f * proj + (np.trace(x) - f) * (np.eye(d * d) - proj) / (d * d - 1)

    @pytest.mark.parametrize("d", range(2, 7))
    def test_dephasing_choi_at_the_crossing_is_a_subset_average(self, d):
        for r in range(1, d + 1):
            choi = channels._choi_array(dephasing(d, analysis.FAMILIES["dephasing"](d, r)))
            assert np.max(np.abs(choi - self.subset_average(d, r))) <= 1e-15, r

    @pytest.mark.parametrize("d", range(2, 7))
    def test_depolarizing_choi_at_the_crossing_is_its_twirl(self, d):
        for r in range(1, d + 1):
            choi = channels._choi_array(depolarizing(d, analysis.FAMILIES["depolarizing"](d, r)))
            assert np.max(np.abs(choi - self.twirl(self.subset_average(d, r), d))) <= 1e-15, r


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

    def test_rejects_a_lattice_that_does_not_match(self):
        ch = random_channel(3, 4, 7)
        bad = {
            "sum to n_subdiv=3": simplex_lattice(5, 3),  # rows of another n_subdiv
            "d=3": simplex_lattice(3, 4),  # width of another d
            "negative": np.array([[-1, 2, 2], [1, 1, 1]]),
            "integer": simplex_lattice(3, 3) * 1.0,
        }
        for message, lattice in bad.items():
            with pytest.raises(ValueError, match=message):
                snac_lattice_minimum(ch, 0.5, 3, lattice=lattice)
        for lattice in (simplex_lattice(3, 3)[0], np.zeros((0, 3), dtype=int)):
            with pytest.raises(ValueError, match="shape"):
                snac_lattice_minimum(ch, 0.5, 3, lattice=lattice)
        assert (snac_lattice_minimum(ch, 0.5, 3, lattice=simplex_lattice(3, 3))
                == snac_lattice_minimum(ch, 0.5, 3))

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
              else getattr(channels, family)(d, 0.6))
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

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_pair_tensor_is_the_einsum(self, d):
        for seed in range(3):
            phi = _unit_images(random_channel(d, 4, seed=seed))
            pair = analysis._pair_tensor(phi)
            assert np.array_equal(
                pair, np.einsum("jlop,jlrs->jlorps", phi, phi).reshape(d * d, -1))
            assert pair.flags.c_contiguous

    def test_pair_tensor_peaks_at_its_own_size(self):
        phi = _unit_images(random_channel(9, 4, seed=7))
        tracemalloc.start()
        try:
            pair = analysis._pair_tensor(phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * pair.nbytes

    def test_sweep_builds_the_lattice_once(self, monkeypatch):
        # the family and a covariant channel build their orbit rows only,
        # any other channel the full lattice
        built = []
        for name in ("simplex_lattice", "_orbit_rows"):
            monkeypatch.setattr(analysis, name, lambda n, dims, name=name, fn=getattr(
                analysis, name): built.append((name, n, dims)) or fn(n, dims))
        snac_sweep(3, 0.5, p_grid=4, q_grid=6)
        assert built == [("_orbit_rows", 6, 3)]
        built.clear()
        snac_sweep(3, 0.5, p_grid=4, q_grid=6, channel=depolarizing(3, 0.8))
        assert built == [("_orbit_rows", 6, 3)]
        built.clear()
        snac_sweep(3, 0.5, p_grid=4, q_grid=6, channel=random_channel(3, 4, seed=7))
        assert built == [("simplex_lattice", 6, 3)]

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
        # every p in one stacked kernel call, with no channel built or minimized
        minimum = analysis.snac_lattice_minimum
        minimized, stacked = [], []
        monkeypatch.setattr(analysis, "snac_lattice_minimum",
                            lambda ch, *a, **kw: minimized.append(ch) or minimum(ch, *a, **kw))
        reduced = analysis._reduced_min_eigs
        monkeypatch.setattr(analysis, "_reduced_min_eigs", lambda pops, squares, q, k: (
            stacked.append(pops.shape[:-2]) or reduced(pops, squares, q, k)))
        records = snac_sweep(3, 0.5, p_grid=3, q_grid=4)
        assert minimized == [] and stacked == [(3,)]
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

    @pytest.mark.parametrize("refusal", [
        lambda: channels.check_kraus_stack(14),
        lambda: analysis.check_grid_size(1),
        lambda: analysis.check_grid_size(1002),
        lambda: analysis.check_snac_size(9, 39, 8),
        lambda: simplex_lattice(30, 9),
    ], ids=["kraus stack", "grid below", "grid above", "snac work", "lattice"])
    def test_every_size_refusal_is_a_budget_error(self, refusal):
        with pytest.raises(BudgetError) as info:
            refusal()
        # callers catching the wider classes still catch it
        assert isinstance(info.value, ParamOutOfRangeError) and isinstance(info.value, ValueError)

    def test_budget_rejects_a_channel_of_another_dimension(self):
        with pytest.raises(DimensionMismatchError):
            analysis.check_snac_size(4, 2, 2, random_channel(3, 4, seed=7))
        with pytest.raises(DimensionMismatchError):
            snac_sweep(4, 0.5, 2, 2, channel=random_channel(3, 4, seed=7))


def _reduced_calls(monkeypatch):
    """Count the rows the reduced kernel receives from here on."""
    calls = []
    reduced = analysis._reduced_min_eigs
    monkeypatch.setattr(analysis, "_reduced_min_eigs",
                        lambda pops, squares, q, k: calls.append(len(q)) or reduced(pops, squares, q, k))
    return calls


def _werner_holevo_mix(d: int, t: float) -> QuantumChannel:
    """(1 - t) id + t (Tr(X) I - Xᵀ)/(d - 1): permutation-covariant but off the
    phase-covariant pattern, so it takes the dense kernel."""
    kraus = [np.sqrt(1.0 - t) * np.eye(d)]
    for i, j in itertools.combinations(range(d), 2):
        k = np.zeros((d, d))
        k[i, j], k[j, i] = 1.0, -1.0
        kraus.append(np.sqrt(t / (d - 1)) * k)
    return QuantumChannel(kraus)


class TestPermutationOrbits:
    # q grids per d: every orbit of a small lattice, in a fraction of a second
    Q_GRID = {2: 12, 3: 12, 4: 8, 5: 6}

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("family", [depolarizing, dephasing])
    def test_orbit_rows_give_the_full_lattice_result(self, d, family, monkeypatch):
        n = self.Q_GRID[d]
        full = simplex_lattice(n, d)
        counts = _reduced_calls(monkeypatch)
        for p in (0.0, 0.2, 0.5, 0.7, 0.9, 1.0):
            ch = family(d, p)
            for k in (1 / 3, 1 / 2, 1.0):
                assert snac_lattice_minimum(ch, k, n) == snac_lattice_minimum(
                    ch, k, n, lattice=full), (p, k)
        orbit = int(np.sum(np.all(full[:, 1:] >= full[:, :-1], axis=1)))
        assert counts == [orbit, len(full)] * 18

    def test_the_kernel_receives_91_of_496_rows_per_p(self, monkeypatch):
        counts = _reduced_calls(monkeypatch)
        ps = []
        reduced = analysis._reduced_min_eigs
        monkeypatch.setattr(analysis, "_reduced_min_eigs", lambda pops, squares, q, k: (
            ps.append(pops.shape[:-2]) or reduced(pops, squares, q, k)))
        snac_sweep(3, 0.5, p_grid=21, q_grid=30)
        assert counts == [91] and ps == [(21,)]  # the family's 21 p in one call
        counts.clear()
        snac_sweep(3, 0.5, p_grid=5, q_grid=30, channel=channel_from_json(
            channel_to_json(depolarizing(3, 0.8))))
        assert counts == [91]
        counts.clear()
        snac_lattice_minimum(dephasing(3, 0.5), 0.5, 30)
        snac_lattice_minimum(dephasing(3, 0.5), 0.5, 30, lattice=simplex_lattice(30, 3))
        assert counts == [91, 496]

    def test_sorted_rows_are_the_first_of_each_orbit(self):
        for n, d in ((30, 3), (8, 4), (6, 5), (8, 9)):
            full = simplex_lattice(n, d)
            rows = analysis._orbit_rows(n, d)
            firsts = {}
            for row in full.tolist():
                firsts.setdefault(tuple(sorted(row)), row)
            assert rows.tolist() == list(firsts.values())

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_dense_kernel_takes_the_orbit_path_when_covariant(self, d, monkeypatch):
        ch = _werner_holevo_mix(d, 0.3)
        assert analysis.phase_covariant_defect(ch) > 0.05  # t / (d - 1)
        assert analysis.permutation_covariant_defect(ch) <= 1e-15
        n = self.Q_GRID[d]
        full = simplex_lattice(n, d)
        dense = _dense_calls(monkeypatch)
        for k in (1 / 3, 1 / 2, 1.0):
            assert snac_lattice_minimum(ch, k, n) == snac_lattice_minimum(ch, k, n, lattice=full)
        assert dense == [len(analysis._orbit_rows(n, d)), len(full)] * 3

    def test_a_random_channel_evaluates_every_row(self, monkeypatch):
        ch = random_channel(3, 4, seed=7)
        assert analysis.permutation_covariant_defect(ch) > 0.1
        dense = _dense_calls(monkeypatch)
        snac_lattice_minimum(ch, 0.5, 6)
        snac_sweep(3, 0.5, p_grid=3, q_grid=6, channel=ch)
        assert dense == [28, 28]

    def test_a_dense_channel_just_above_the_tolerance_evaluates_every_row(self, monkeypatch):
        covariant = _werner_holevo_mix(3, 0.3)
        shift = np.roll(np.eye(3), 1, axis=0)
        eps = 3e-14
        ch = QuantumChannel([np.sqrt(1.0 - eps) * k for k in covariant.kraus]
                            + [np.sqrt(eps) * shift])
        assert (analysis.PERMUTATION_COVARIANT_TOL < analysis.permutation_covariant_defect(ch)
                < 1e-12)
        dense = _dense_calls(monkeypatch)
        snac_lattice_minimum(ch, 0.5, 6)
        assert dense == [28]

    @pytest.mark.parametrize("eps, rows", [(5e-15, 28), (1e-15, 7)])
    def test_reduced_inputs_around_the_tolerance(self, eps, rows, monkeypatch):
        # coherences 1 - 2 eps on |0><2| and |1><2|, 1 on |0><1|: c^2 spreads by 4 eps
        ch = QuantumChannel([np.sqrt(1.0 - eps) * np.eye(3),
                             np.sqrt(eps) * np.diag([1.0, 1.0, -1.0])])
        assert analysis.phase_covariant_defect(ch) == 0.0
        counts = _reduced_calls(monkeypatch)
        snac_lattice_minimum(ch, 0.5, 6)
        assert counts == [rows]

    def test_orbit_rows_are_the_nondecreasing_rows_of_the_lattice(self):
        # partitions[d][n]: the partitions of n into at most d parts
        partitions = np.zeros((9, 31), dtype=int)
        partitions[:, 0] = 1
        for d in range(1, 9):
            for n in range(1, 31):
                partitions[d, n] = partitions[d - 1, n] + (partitions[d, n - d] if n >= d else 0)
        for d in range(1, 9):
            for n in range(1, 31):
                size = math.comb(n + d - 1, d - 1)
                if size > analysis.MAX_LATTICE_POINTS:
                    with pytest.raises(BudgetError):
                        analysis._orbit_rows(n, d)
                    continue
                rows = analysis._orbit_rows(n, d)
                assert rows.dtype == np.int64 and rows.shape == (partitions[d, n], d)
                if size <= 10**5:
                    full = simplex_lattice(n, d)
                    assert np.array_equal(
                        rows, full[np.all(full[:, 1:] >= full[:, :-1], axis=1)]), (n, d)
                else:  # every partition once, nondecreasing, in lexicographic order
                    assert np.all(rows >= 0) and np.all(rows.sum(axis=1) == n)
                    assert np.all(rows[:, 1:] >= rows[:, :-1])
                    later = rows[1:] - rows[:-1]
                    first = np.argmax(later != 0, axis=1)
                    assert np.all(later[np.arange(len(later)), first] > 0)
        with pytest.raises(BudgetError):
            analysis._orbit_rows(0, 3)

    def test_named_families_sit_well_inside_the_tolerance(self):
        # measured: at most 8.9e-16 for depolarizing (d <= 13), exactly 0 for dephasing
        for d in range(2, 14):
            for p in np.linspace(0.0, 1.0, 11):
                assert analysis.permutation_covariant_defect(depolarizing(d, p)) <= 1e-15
                assert analysis.permutation_covariant_defect(dephasing(d, p)) == 0.0
                assert analysis._permutation_covariant(depolarizing(d, p))
                assert analysis._permutation_covariant(dephasing(d, p))

    def test_rejects_a_non_square_channel(self):
        with pytest.raises(DimensionMismatchError):
            analysis.permutation_covariant_defect(QuantumChannel([np.eye(3, 2)]))


def _per_channel(d, k, p_grid, q_grid):
    """The family study at every p through snac_lattice_minimum on its channel."""
    return [snac_lattice_minimum(depolarizing(d, p), k, q_grid)
            for p in np.linspace(0.0, 1.0, p_grid).tolist()]


class TestStackedFamilyStudy:
    # q grids per d: a few orbit rows each, up to d = 13
    Q_GRID = {2: 12, 3: 12, 4: 8, 5: 6, 6: 5, 7: 4, 8: 4, 9: 3, 10: 3, 11: 2, 12: 2, 13: 2}

    @pytest.mark.parametrize("d", sorted(Q_GRID))
    def test_equals_the_per_channel_minimum_bit_for_bit(self, d):
        n = self.Q_GRID[d]
        for k in (1 / 3, 1 / 2, 1.0):
            records = snac_sweep(d, k, p_grid=5, q_grid=n)
            assert [r.parameter for r in records] == [0.0, 0.25, 0.5, 0.75, 1.0]
            assert [(r.q_star, r.value) for r in records] == _per_channel(d, k, 5, n), k

    @pytest.mark.parametrize("tol, stacked", [(-1.0, []), (0.0, [(1,)])])
    def test_a_p_over_the_tolerances_takes_the_per_channel_path(self, tol, stacked,
                                                                monkeypatch):
        # below every defect of the family (-1), or at 0, which only p = 1 meets
        monkeypatch.setattr(analysis, "PHASE_COVARIANT_TOL", tol)
        monkeypatch.setattr(analysis, "PERMUTATION_COVARIANT_TOL", tol)
        for d in (2, 3, 4):
            want = _per_channel(d, 0.5, 5, self.Q_GRID[d])
            minimized, calls = [], []
            minimum, reduced = analysis.snac_lattice_minimum, analysis._reduced_min_eigs
            with monkeypatch.context() as spy:
                spy.setattr(analysis, "snac_lattice_minimum", lambda ch, *a, **kw: (
                    minimized.append(ch) or minimum(ch, *a, **kw)))
                spy.setattr(analysis, "_reduced_min_eigs", lambda pops, squares, q, k: (
                    calls.append(pops.shape[:-2]) or reduced(pops, squares, q, k)))
                records = snac_sweep(d, 0.5, p_grid=5, q_grid=self.Q_GRID[d])
            assert [(r.q_star, r.value) for r in records] == want, d
            assert len(minimized) == 5 - len(stacked)
            assert [c for c in calls if c] == stacked  # () is a per-channel call

    def test_chunks_give_the_per_channel_result(self, monkeypatch):
        # one p per chunk, and 7-row chunks inside each p's 91 orbit rows
        monkeypatch.setattr(analysis, "GRID_CHUNK_BYTES", 1)
        monkeypatch.setattr(analysis, "FAMILY_SOLVE_BYTES", 1)
        monkeypatch.setattr(analysis, "CHUNK_BYTES", 16 * 3 ** 2 * 7)
        rows = []
        reduced = analysis._reduced_min_eigs
        with monkeypatch.context() as spy:
            spy.setattr(analysis, "_reduced_min_eigs", lambda pops, squares, q, k: (
                rows.append((pops.shape[:-2], len(q))) or reduced(pops, squares, q, k)))
            records = snac_sweep(3, 0.5, p_grid=4, q_grid=30)
        assert rows == [((1,), 7)] * 13 * 4
        assert [(r.q_star, r.value) for r in records] == _per_channel(3, 0.5, 4, 30)

    def test_the_benchmark_study_is_one_eigensolve(self, monkeypatch):
        # of the 21 x 91 blocks, the 782 that can reach the tie window
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        snac_sweep(3, 0.5, p_grid=21, q_grid=30)
        assert calls == [(782, 3, 3)]

    def test_peak_memory_is_one_p_at_a_time(self):
        # at d = 13 one p's unit images (16 d^4 bytes) exceed GRID_CHUNK_BYTES,
        # so a chunk holds one p: at most four such arrays, plus every p's
        # weights and parts (32 d^2 bytes each); all 130 p at once would be 237 MB
        d, p_grid = 13, 130
        snac_sweep(d, 0.5, p_grid=2, q_grid=4)  # the basis cache is not this study's
        tracemalloc.start()
        try:
            snac_sweep(d, 0.5, p_grid=p_grid, q_grid=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * (4 * 16 * d**4 + 32 * p_grid * d**2)

    def test_checks_run_in_the_order_of_the_first_p(self):
        with pytest.raises(ParamOutOfRangeError, match="d >= 2"):
            snac_sweep(1, 2.0, p_grid=2, q_grid=2)
        with pytest.raises(ValueError, match=r"k=2\.0 outside"):
            snac_sweep(3, 2.0, p_grid=2, q_grid=2)
        with pytest.raises(ValueError, match=r"k=2\.0 outside"):
            snac_lattice_minimum(depolarizing(3, 0.0), 2.0, 2)


def _full_reduced_min_eigs(populations, squares, q, k):
    """The reduced-kernel certificate with every block solved, in one stack."""
    on_block, off_block = analysis._reduced_diagonal(populations, q, k)
    idx = np.arange(q.shape[-1])
    amp = np.sqrt(q)
    block = (-k * amp[:, :, None] * amp[:, None, :]) * squares[..., None, :, :]
    block[..., idx, idx] = on_block
    return np.minimum(np.linalg.eigvalsh(block)[..., 0], off_block)


def _solved_rows(monkeypatch):
    """The number of blocks each eigvalsh call receives."""
    rows = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: rows.append(len(a)) or eigvalsh(a))
    return rows


class TestPrunedEigensolves:
    # q grids per d: small lattices, with d = 9 and 13 on a few orbit rows
    Q_GRID = {2: 30, 3: 20, 4: 12, 5: 10, 6: 8, 9: 5, 13: 3}
    P = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)

    @staticmethod
    def _reference(ch, k, n):
        """snac_lattice_minimum's answer from the full eigensolve of every
        orbit row, in its CHUNK_BYTES row chunks (X is a product per chunk)."""
        populations, squares = analysis._kernel_form(ch)[1]
        rows = analysis._orbit_rows(n, ch.d_in)
        per = max(1, analysis.CHUNK_BYTES // (16 * ch.d_in ** 2))
        return analysis._first_minimum(rows, n, np.concatenate([
            _full_reduced_min_eigs(populations, squares, rows[i:i + per] / n, k)
            for i in range(0, len(rows), per)]))

    def _check_rows(self, populations, squares, q, k):
        """Pruned values against the full ones: equal where solved; a skipped
        row keeps its lower bound, and both lie above the tie window."""
        full = _full_reduced_min_eigs(populations, squares, q, k)
        pruned = analysis._reduced_min_eigs(populations, squares, q, k)
        window = full.min(axis=-1, keepdims=True) + analysis.TIE_TOL
        skipped = pruned != full
        assert np.all(full[skipped] > np.broadcast_to(window, full.shape)[skipped])
        assert np.all(pruned[skipped] > np.broadcast_to(window, full.shape)[skipped])
        assert np.all(pruned[skipped] <= full[skipped] + analysis.PRUNE_TOL)
        return int(skipped.sum())

    @pytest.mark.parametrize("d", sorted(Q_GRID))
    @pytest.mark.parametrize("family", [depolarizing, dephasing])
    def test_each_channel_gives_the_full_eigensolve_result(self, d, family):
        n = self.Q_GRID[d]
        rows = analysis._orbit_rows(n, d)
        skipped = 0
        for p in self.P:
            ch = family(d, p)
            for k in (1 / d, 1 / 3, 1 / 2, 1.0):
                got = snac_lattice_minimum(ch, k, n)
                want = self._reference(ch, k, n)
                assert got == want and repr(got[1]) == repr(want[1]), (p, k)
                skipped += self._check_rows(*analysis._kernel_form(ch)[1], rows / n, k)
        assert skipped > 0 or d >= 9  # few orbit rows there, and nothing to skip

    @pytest.mark.parametrize("d", sorted(Q_GRID))
    def test_the_family_study_gives_the_full_eigensolve_result(self, d, monkeypatch):
        n = self.Q_GRID[d]
        for chunked in (False, True):
            if chunked:  # one p a call, 3-row chunks inside each p
                monkeypatch.setattr(analysis, "FAMILY_SOLVE_BYTES", 1)
                monkeypatch.setattr(analysis, "CHUNK_BYTES", 16 * d * d * 3)
            for k in (1 / d, 1 / 3, 1 / 2, 1.0):
                records = snac_sweep(d, k, p_grid=11, q_grid=n)
                want = [self._reference(depolarizing(d, r.parameter), k, n) for r in records]
                assert [(r.q_star, r.value) for r in records] == want, (chunked, k)

    def test_a_given_channel_gives_the_full_eigensolve_result(self, monkeypatch):
        ch = channel_from_json(channel_to_json(depolarizing(4, 0.6)))
        for n in (8, 20):
            for k in (1 / 4, 1 / 3, 1 / 2, 1.0):
                want = self._reference(ch, k, n)
                assert snac_lattice_minimum(ch, k, n) == want
                records = snac_sweep(4, k, p_grid=3, q_grid=n, channel=ch)
                assert [(r.q_star, r.value) for r in records] == [want] * 3

    def test_the_stacked_family_parts_skip_only_rows_above_the_window(self):
        skipped = {}
        for d, n in ((3, 30), (4, 12), (9, 5), (13, 3)):
            populations, squares, _ = analysis._family_parts(d, np.linspace(0.0, 1.0, 21))
            q = analysis._orbit_rows(n, d) / n
            skipped[d] = sum(self._check_rows(populations, squares, q, k)
                             for k in (1 / d, 1 / 3, 1 / 2, 1.0))
        assert skipped[3] > 0 and skipped[4] > 0

    def test_a_study_where_every_row_ties_keeps_the_first_row(self, monkeypatch):
        # the completely depolarizing channel: every lattice row has one value
        for d, n in ((3, 30), (5, 10), (13, 3)):
            rows = analysis._orbit_rows(n, d)
            populations, squares = analysis._kernel_form(depolarizing(d, 0.0))[1]
            for k in (1 / d, 1 / 2, 1.0):
                full = _full_reduced_min_eigs(populations, squares, rows / n, k)
                assert np.all(full <= full.min() + analysis.TIE_TOL)
                with monkeypatch.context() as spy:
                    solved = _solved_rows(spy)
                    got = snac_lattice_minimum(depolarizing(d, 0.0), k, n)
                assert solved == [len(rows)]  # nothing skipped
                assert got == (tuple(Fraction(int(x), n) for x in rows[0]), float(full[0]))

    def test_a_single_row_is_always_solved(self, monkeypatch):
        ch = depolarizing(3, 0.7)
        populations, squares = analysis._kernel_form(ch)[1]
        points = ([1.0, 0.0, 0.0], [0.2, 0.3, 0.5], [1 / 3] * 3)
        want = [float(_full_reduced_min_eigs(populations, squares, np.array([q]), 0.5)[0])
                for q in points]
        solved = _solved_rows(monkeypatch)
        assert [snac_min_eig(ch, q, 0.5) for q in points] == want
        assert solved == [1, 1, 1]

    def test_a_nan_bound_sends_its_row_to_the_solver(self, monkeypatch):
        # a NaN coherence makes the bounds NaN: no row is skipped, and the
        # eigensolve fails as the full one does
        populations, squares = analysis._kernel_form(depolarizing(3, 0.5))[1]
        squares = squares.copy()
        squares[1, 0] = squares[0, 1] = np.nan
        q = analysis._orbit_rows(6, 3) / 6
        with pytest.raises(np.linalg.LinAlgError):
            _full_reduced_min_eigs(populations, squares, q, 0.5)
        solved = _solved_rows(monkeypatch)
        with pytest.raises(np.linalg.LinAlgError):
            analysis._reduced_min_eigs(populations, squares, q, 0.5)
        assert solved == [len(q)]


class TestUniformMinimizer:
    # k = 1/2, above each crossing sqrt((d - k)/(k (d^2 - 1))): 0.683, 0.612, 0.461
    @pytest.mark.parametrize("d, q_grid", [(4, 8), (5, 10), (9, 9)])
    def test_uniform_point_minimizes_above_the_crossing(self, d, q_grid):
        k = 0.5
        assert np.sqrt((d - k) / (k * (d * d - 1))) < 0.7
        for p in (0.7, 0.8, 0.9, 1.0):
            q_star, value = snac_lattice_minimum(depolarizing(d, p), k, q_grid)
            assert q_star == (Fraction(1, d),) * d, p
            assert abs(value - (p * p * (1 / d - k) + (1 - p * p) * (d - k) / d ** 2)) <= 1e-12


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
