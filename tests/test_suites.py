import re

import pytest

from schmidt_lens import suites
from schmidt_lens.channels import choi, compose, dephasing, depolarizing, random_channel
from schmidt_lens.schmidt import witness, witness_value
from schmidt_lens.suites import SUITES, run_suites, theorem_suite


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
