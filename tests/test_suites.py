import re
from pathlib import Path

import numpy as np
import pytest

from schmidt_lens import analysis, channels, cli, linalg, suites
from schmidt_lens.channels import (
    canonical_kraus,
    choi,
    compose,
    dephasing,
    depolarizing,
    random_channel,
)
from schmidt_lens.schmidt import witness, witness_value
from schmidt_lens.states import as_density_stack, haar_unitary, random_pure_with_schmidt_rank
from schmidt_lens.suites import SUITES, run_suites, theorem_suite

from conftest import random_rank_matrix


class TestTheoremSuite:
    def test_all_pass_under_seed_0(self):
        report = theorem_suite(seed=0)
        assert set(report) == {"t1", "t3", "t4", "p1", "p2"}
        for name, entry in report.items():
            assert entry["passed"], f"{name}: {entry}"

    def test_t1_named_mixture(self):
        # mixture of two breaking Choi states at weight 0.5 stays undetected
        w = witness(3, 2)
        c1 = choi(depolarizing(3, 0.3)).matrix
        c2 = choi(dephasing(3, 0.4)).matrix
        assert witness_value(w, 0.5 * c1 + 0.5 * c2) >= -1e-9

    def test_t4_counterexample_values(self):
        entry = theorem_suite(seed=0)["t4"]
        assert entry["max_kraus_rank_a"] == 2
        assert entry["max_kraus_rank_b"] == 2
        assert entry["max_kraus_rank_tensor"] == 4

    def test_p1_with_fresh_random_channels(self, rng):
        w = witness(3, 2)
        s = depolarizing(3, 0.3)
        for _ in range(3):
            f = random_channel(3, int(rng.integers(1, 8)), rng)
            assert witness_value(w, choi(compose(f, s))) >= -1e-9
            assert witness_value(w, choi(compose(s, f))) >= -1e-9

    def test_p2_named_example(self):
        entry = theorem_suite(seed=0)["p2"]
        assert entry["bounds"][0] == (3, 3)  # depolarizing(3, 0.7)

    def test_deterministic_per_seed(self):
        a = theorem_suite(seed=5)
        b = theorem_suite(seed=5)
        assert a == b


class TestRunSuites:
    def test_default_set_passes(self):
        results = run_suites(seed=0)
        for res in results:
            assert res.passed, f"{res.name}: {res.detail}"

    def test_unknown_suite(self):
        with pytest.raises(KeyError):
            run_suites(["nope"])

    def test_single_suite(self):
        (res,) = run_suites(["t4"], seed=0)
        assert res.passed
        assert res.data["max_kraus_rank_tensor"] == 4

    def test_relations_suite_for_d4(self):
        (res,) = run_suites(["relations"], seed=0, d=4, r=2)
        assert res.passed
        assert abs(res.data["gap"][0] - 0.2) < 1e-8
        assert abs(res.data["gap"][1] - 7 / 15) < 1e-8

    def test_registry_is_callable(self):
        for name, fn in SUITES.items():
            assert callable(fn), name


class TestLambdaWindow:
    def test_passing_stacks_take_no_eigensolve(self, monkeypatch):
        # each stack is decided by one Cholesky; only the 3 r x 3 k window checks
        # on the maximally entangled state call eigvalsh
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: calls.append(1) or eigvalsh(h))
        res = suites.suite_lambda_window(seed=0)
        assert res.passed and len(calls) == 9


class TestFailureReporting:
    # With a tolerance no state can meet, every generated state fails, so the
    # detail shows which trial number each state is reported under. The counts
    # span more than one stack of generated states in both suites.
    def test_witness_names_every_trial_in_draw_order(self, monkeypatch):
        monkeypatch.setattr(suites, "EVIDENCE_TOL", -1.0)
        res = suites.suite_witness_nonneg(seed=0, n_states=210)
        assert not res.passed
        assert re.findall(r"(?:^|; )trial (\d+): witness value", res.detail) == [
            str(i) for i in range(210)
        ]

    def test_lambda_window_names_every_trial_in_draw_order(self, monkeypatch):
        monkeypatch.setattr(suites, "EVIDENCE_TOL", -1.0)
        res = suites.suite_lambda_window(seed=0, n_states=70)
        assert not res.passed
        assert re.findall(r"r=(\d) trial (\d+): positivity failed", res.detail) == [
            (str(r), str(i)) for r in (1, 2, 3) for i in range(70)
        ]

    # The suites below decide each check for a stack of trials at once. Their
    # literal tolerances cannot be raised, so every check is made to fail by
    # its input instead: a rank rule no singular value passes, coefficients
    # that are not a distribution, defects and distances moved by 1.

    def test_kron_rank_names_every_trial_in_draw_order(self, monkeypatch):
        monkeypatch.setattr(linalg, "RANK_TOL", 2.0)  # no singular value exceeds twice the largest
        res = suites.suite_kron_rank(seed=0, pairs=60)
        assert re.findall(r"(?:^|; )trial (\d+): rank 0 != \d\*\d", res.detail) == [
            str(i) for i in range(60)
        ]

    def test_schmidt_states_name_every_trial_and_check_in_order(self, monkeypatch):
        coefficients = suites._pure_schmidt_coefficients
        monkeypatch.setattr(suites, "_pure_schmidt_coefficients", lambda *a: -coefficients(*a))
        monkeypatch.setattr(suites, "EVIDENCE_TOL", -1.0)
        res = suites.suite_schmidt_states(seed=0, trials=30)
        checks = ["coefficients not a distribution", "generated rank != \\d",
                  "rank not LU-invariant"]
        found = re.findall(r"(?:^|; )(ppt trial|trial) (\d+): ([^;]+)", res.detail)
        assert [(kind, int(t)) for kind, t, _ in found] == (
            [("trial", t) for t in range(30) for _ in checks]
            + [("ppt trial", t) for t in range(40)])
        for (_, _, message), check in zip(found, checks * 30):
            assert re.fullmatch(check, message)

    def test_channel_axioms_name_every_trial_and_check_in_order(self, monkeypatch):
        marginals, states = suites._marginal_defects, suites._choi_states
        monkeypatch.setattr(suites, "EVIDENCE_TOL", -1.0)
        monkeypatch.setattr(suites, "_marginal_defects", lambda *a: marginals(*a) + 1.0)
        monkeypatch.setattr(suites, "_choi_states", lambda *a: states(*a) + 1.0)
        monkeypatch.setattr(suites, "_action_distances", lambda a, b: np.ones(len(a)))
        res = suites.suite_channel_axioms(seed=0, n_channels=40)
        checks = ["Choi not PSD", "Choi marginal != I/d", "Choi round trip exceeded 1e-8"]
        assert res.detail.split("; ") == (
            [f"trial {t}: {check}" for t in range(40) for check in checks]
            + [line for t in range(10) for line in (
                f"assoc trial {t}: composition not associative",
                f"adjoint trial {t}: double adjoint changed the action")])

    def test_channel_axioms_name_only_the_check_that_fails(self, monkeypatch):
        states = suites._choi_states
        monkeypatch.setattr(suites, "_choi_states", lambda *a: states(*a) + 1.0)
        res = suites.suite_channel_axioms(seed=0, n_channels=20)
        assert res.detail.split("; ") == [
            f"trial {t}: Choi round trip exceeded 1e-8" for t in range(20)]

    def test_snac_two_local_names_every_p_and_check_in_order(self, monkeypatch):
        oracle, reduced = analysis.two_local_depolarizing_matrix, analysis._reduced_min_eigs
        monkeypatch.setattr(analysis, "two_local_depolarizing_matrix",
                            lambda *a: oracle(*a) + 1.0)
        monkeypatch.setattr(analysis, "_reduced_min_eigs", lambda *a: reduced(*a) + 1.0)
        res = suites.suite_snac_two_local(seed=0, n_p=7)
        lines = res.detail.split("; ")
        assert [line.split(":")[0] for line in lines] == (
            [f"p={p:.3f}" for p in np.linspace(0.0, 1.0, 7) for _ in range(3)]
            + [f"covariance trial {t}" for t in range(5)])
        checks = ["entrywise oracle mismatch", "k=1/2 closed form violated",
                  "k=1 closed form violated"]
        assert [line.split(": ", 1)[1].split(" (")[0] for line in lines[:21]] == checks * 7


class TestStackedTrials:
    # The stacked suites decide checks on the very matrices the per-trial
    # loops drew: each stack handed to the checks equals, bit for bit, the
    # trials of its shape drawn one at a time by the public generators.

    @staticmethod
    def _by_shape(shapes, items):
        groups = {}
        for shape, item in zip(shapes, items):
            groups.setdefault(shape, []).append(item)
        return list(groups.values())

    def test_kron_rank_factors_are_the_per_trial_draws(self, monkeypatch):
        seen = []
        kron = linalg._kron
        with monkeypatch.context() as spy:
            spy.setattr(linalg, "_kron", lambda a, b: seen.append((a, b)) or kron(a, b))
            assert suites.suite_kron_rank(seed=3, pairs=80).passed
        rng = np.random.default_rng(3)
        shapes, pairs = [], []
        for _ in range(80):
            na, nb = rng.integers(2, 5), rng.integers(2, 5)
            ra, rb = int(rng.integers(1, na + 1)), int(rng.integers(1, nb + 1))
            a, b = random_rank_matrix(na, ra, rng), random_rank_matrix(nb, rb, rng)
            shapes.append((int(na), int(nb)))
            pairs.append((a, b))
            assert linalg.matrix_rank(linalg.kron(a, b)) == ra * rb
        groups = self._by_shape(shapes, pairs)
        assert len(seen) == len(groups)
        for (a, b), group in zip(seen, groups):
            assert np.array_equal(a, [x for x, _ in group])
            assert np.array_equal(b, [y for _, y in group])

    def test_schmidt_states_are_the_per_trial_states(self, monkeypatch):
        seen = []
        coefficients = suites._pure_schmidt_coefficients
        monkeypatch.setattr(suites, "_pure_schmidt_coefficients",
                            lambda amp, *a: seen.append(amp) or coefficients(amp, *a))
        assert suites.suite_schmidt_states(seed=5, trials=40).passed
        rng = np.random.default_rng(5)
        shapes, states = [], []
        for _ in range(40):
            da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            r = int(rng.integers(1, min(da, db) + 1))
            psi = random_pure_with_schmidt_rank(da, db, r, rng)
            u = linalg.kron(haar_unitary(da, rng), haar_unitary(db, rng))
            shapes.append((da, db, r))
            states.append((psi.amplitudes, u @ psi.amplitudes))
        groups = self._by_shape(shapes, states)
        assert len(seen) == 2 * len(groups)
        for generated, rotated, group in zip(seen[::2], seen[1::2], groups):
            assert np.array_equal(generated, [psi for psi, _ in group])
            assert np.array_equal(rotated, [rot for _, rot in group])

    def test_channel_axioms_check_the_per_trial_choi_states(self, monkeypatch):
        seen, rebuilt = [], []
        marginals, states = suites._marginal_defects, suites._choi_states
        monkeypatch.setattr(suites, "_marginal_defects",
                            lambda c, *a: seen.append(c) or marginals(c, *a))
        monkeypatch.setattr(suites, "_choi_states",
                            lambda *a: rebuilt.append(states(*a)) or rebuilt[-1])
        assert suites.suite_channel_axioms(seed=2, n_channels=30).passed
        rng = np.random.default_rng(2)
        shapes, pairs = [], []
        for _ in range(30):
            d = int(rng.integers(2, 5))
            c = choi(random_channel(d, int(rng.integers(1, d * d + 1)), rng))
            shapes.append(d)
            pairs.append((c.matrix, choi(canonical_kraus(c)).matrix))
        groups = self._by_shape(shapes, pairs)
        assert len(seen) == len(rebuilt) == len(groups)
        for c, back, group in zip(seen, rebuilt, groups):
            assert np.array_equal(c, [m for m, _ in group])
            # the dropped Kraus operators are zero rows of one stack, which
            # moves the rebuilt states by rounding only
            np.testing.assert_allclose(back, [m for _, m in group], rtol=0, atol=1e-15)

    def test_snac_closed_form_points_have_the_bits_of_one_call_per_channel(self):
        q = np.full(3, 1.0 / 3.0)
        params = np.linspace(0.0, 1.0, 50)
        phi = analysis._family_unit_images(3, params)
        outputs = as_density_stack(analysis._two_local_array(analysis._pair_tensor(phi), q))
        populations, squares, reduced = analysis._kernel_parts(phi)
        assert reduced.all()
        for k in (0.5, 1.0):
            values = analysis._reduced_min_eigs(populations, squares, q[None], k)[:, 0]
            for p, output, value in zip(params.tolist(), outputs, values.tolist()):
                ch = depolarizing(3, p)
                assert np.array_equal(output, analysis.two_local_output(ch, q).matrix)
                assert value == analysis.snac_min_eig(ch, q, k)

    def test_min_eigs_of_a_stack_are_snac_min_eig_of_each_channel(self):
        # the reduced kernel for the channels that take it, the dense one else
        q = np.array([0.5, 0.3, 0.2])
        chs = [depolarizing(3, 0.3), random_channel(3, 4, seed=7), dephasing(3, 0.5),
               random_channel(3, 2, seed=8)]
        phi = np.array([channels._unit_images(ch) for ch in chs])
        assert analysis._kernel_parts(phi)[2].tolist() == [True, False, True, False]
        for k in (0.5, 1.0):
            assert analysis._min_eigs(phi, q, k).tolist() == [
                analysis.snac_min_eig(ch, q, k) for ch in chs]


class TestGoldenReport:
    def test_verify_seed0_matches_golden(self, tmp_path, capsys):
        # written by `schmidt-lens verify --seed 0 --output-path ...` before the
        # suites checked their trials in stacks; identical under 1 and 2 BLAS threads
        golden = Path(__file__).parent / "golden"
        out = tmp_path / "verify.json"
        assert cli.main(["verify", "--seed", "0", "--output-path", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out.encode() == (golden / "verify_seed0.txt").read_bytes()
        assert captured.err == ""
        assert out.read_bytes() == (golden / "verify_seed0.json").read_bytes()
