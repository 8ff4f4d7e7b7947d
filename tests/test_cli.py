import argparse
import contextlib
import io
import json
import math
import time

import jsonschema
import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from schmidt_lens import analysis, suites
from schmidt_lens.analysis import snac_lattice_minimum
from schmidt_lens.channels import (
    MAX_KRAUS_STACK_BYTES,
    channel_to_json,
    dephasing,
    depolarizing,
    identity_channel,
    random_channel,
)
from schmidt_lens.cli import build_parser, main, render_json, report_schema
from schmidt_lens.schmidt import isotropic_sn_threshold

from conftest import ref_two_local_min_eig


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRenderJson:
    def test_seventeen_significant_digits(self):
        assert render_json(1 / 3) == "0.33333333333333331"
        assert render_json(0.625) == "0.625"
        assert render_json({"x": [1, 2.5]}) == '{\n  "x": [\n    1,\n    2.5\n  ]\n}'

    def test_round_trip_exact(self):
        for x in (1 / 3, 5 / 8, 1e-9, -0.123456789123456789, 2 / 7):
            assert float(json.loads(render_json(x))) == x

    def test_bool_and_none(self):
        assert render_json({"a": True, "b": None}) == '{\n  "a": true,\n  "b": null\n}'


class TestThresholdCommand:
    def test_depolarizing_d3_r2(self, capsys):
        code, out, _ = run_cli(
            ["threshold", "--family", "depolarizing", "--d", "3", "--r", "2"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "depolarizing"
        assert abs(doc["threshold"] - 0.625) <= 1e-8
        assert doc["analytic"] == 0.625
        assert doc["abs_error"] <= 1e-8

    def test_dephasing_d3_r2(self, capsys):
        code, out, _ = run_cli(
            ["threshold", "--family", "dephasing", "--d", "3", "--r", "2"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["threshold"] - 0.5) <= 1e-8

    def test_depolarizing_d4_r3(self, capsys):
        code, out, _ = run_cli(
            ["threshold", "--family", "depolarizing", "--d", "4", "--r", "3"], capsys
        )
        assert code == 0
        assert abs(json.loads(out)["analytic"] - 11 / 15) < 1e-15

    def test_schema_validation(self, capsys):
        _, out, _ = run_cli(
            ["threshold", "--family", "depolarizing", "--d", "3", "--r", "1"], capsys
        )
        jsonschema.validate(json.loads(out), report_schema())

    def test_usage_error_rank(self, capsys):
        code, _, err = run_cli(
            ["threshold", "--family", "depolarizing", "--d", "3", "--r", "3"], capsys
        )
        assert code == 2
        assert "r < d" in err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_is_usage_error(self, tol, capsys):
        code, out, err = run_cli(
            ["threshold", "--family", "depolarizing", "--d", "3", "--r", "2", "--tol", tol],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "--tol" in err

    def test_tol_below_float_spacing_terminates(self, capsys):
        code, out, _ = run_cli(
            ["threshold", "--family", "depolarizing", "--d", "3", "--r", "2",
             "--tol", "1e-300"],
            capsys,
        )
        assert code == 0
        assert abs(json.loads(out)["threshold"] - 0.625) <= 1e-15

    def test_choices_and_analytic_come_from_the_family_table(self, monkeypatch, capsys):
        commands = next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices

        def family_choices(command):
            return next(a.choices for a in commands[command]._actions if a.dest == "family")

        assert family_choices("sweep") == [*analysis.FAMILIES, "custom"]
        assert family_choices("threshold") == list(analysis.FAMILIES)
        assert list(analysis.FAMILIES) == ["depolarizing", "dephasing"]
        for d in range(2, 14):
            for r in range(1, d):
                depolarizing_crossing = analysis.FAMILIES["depolarizing"].crossing(d, r)
                assert depolarizing_crossing == isotropic_sn_threshold(d, r)
                assert analysis.FAMILIES["dephasing"].crossing(d, r) == (r - 1.0) / (d - 1.0)
        table = dict(analysis.FAMILIES)
        table["dephasing"] = analysis.Family(table["dephasing"].channel, lambda d, r: 0.5)
        monkeypatch.setattr(analysis, "FAMILIES", table)
        code, out, _ = run_cli(["threshold", "--family", "dephasing", "--d", "3", "--r", "2"],
                               capsys)
        assert code == 0 and json.loads(out)["analytic"] == 0.5

    def test_argparse_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--family", "nonsense", "--d", "3", "--r", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("d", range(2, 14))
    def test_dephasing_r1_root_at_the_bracket_edge(self, d, capsys):
        code, out, err = run_cli(
            ["threshold", "--family", "dephasing", "--d", str(d), "--r", "1"], capsys
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert (doc["threshold"], doc["analytic"], doc["abs_error"]) == (0.0, 0.0, 0.0)


# The witness-thresholds command lines: thresholds of both families at every r
# for d in {3, 4, 5, 9}, and the d = 9 sweeps.
WITNESS_LINES = [
    ["threshold", "--family", family, "--d", str(d), "--r", str(r)]
    for d in (3, 4, 5, 9) for family in ("depolarizing", "dephasing") for r in range(1, d)
] + [["sweep", "--family", family, "--d", "9", "--r", "2", "--grid", "101"]
     for family in ("depolarizing", "dephasing")]


def test_every_witness_line_exits_zero(capsys):
    assert len(WITNESS_LINES) == 36
    failed = []
    for args in WITNESS_LINES:
        code, out, err = run_cli(args, capsys)
        if code != 0 or err:
            failed.append((" ".join(args), code, err))
        elif args[0] == "threshold":
            assert json.loads(out)["abs_error"] <= 1e-8, args
    assert failed == []


class TestSweepCommand:
    def test_csv_shape_and_crossing(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--family", "depolarizing", "--d", "3", "--r", "2", "--grid", "101"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "parameter,value,verdict"
        assert len(lines) == 102
        rows = [line.split(",") for line in lines[1:]]
        values = [float(row[1]) for row in rows]
        flip = [v > 0 for v in values].index(False)
        params = [float(row[0]) for row in rows]
        assert params[flip - 1] < 0.625 <= params[flip] + 1e-12
        assert {row[2] for row in rows} == {"consistent_with_at_most", "certified_above"}

    def test_dephasing_crossing(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--family", "dephasing", "--d", "3", "--r", "2", "--grid", "101"],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        flip = [float(r[1]) > 0 for r in rows].index(False)
        assert float(rows[flip - 1][0]) < 0.5 <= float(rows[flip][0]) + 1e-12

    def test_custom_channel_file(self, tmp_path, capsys):
        path = tmp_path / "ch.json"
        path.write_text(channel_to_json(identity_channel(3)))
        code, out, _ = run_cli(
            ["sweep", "--channel-file", str(path), "--d", "3", "--r", "2", "--grid", "5"],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        for row in rows:
            assert abs(float(row[1]) - (-0.5)) < 1e-12

    def test_json_output_validates(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--family", "depolarizing", "--d", "3", "--r", "2",
             "--grid", "11", "--output", "json"],
            capsys,
        )
        assert code == 0
        jsonschema.validate(json.loads(out), report_schema())

    def test_bit_stable_across_runs(self, tmp_path, capsys):
        args = ["sweep", "--family", "dephasing", "--d", "3", "--r", "2", "--grid", "31"]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(args + ["--output-path", str(a)]) == 0
        assert main(args + ["--output-path", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_channel_file(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--channel-file", "/nonexistent/ch.json", "--d", "3", "--r", "2"],
            capsys,
        )
        assert code == 2

    def test_grid_too_small(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--family", "depolarizing", "--d", "3", "--r", "2", "--grid", "1"],
            capsys,
        )
        assert code == 2


class TestSnacCommand:
    def test_csv_columns_and_formula_column(self, capsys):
        code, out, _ = run_cli(
            ["snac", "--d", "3", "--k", "0.5", "--p-grid", "5", "--q-grid", "6"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "p,min_eig,formula,q_star"
        rows = [line.split(",") for line in lines[1:]]
        for row in rows:
            p = float(row[0])
            assert abs(float(row[2]) - (2 - 8 * p * p) / 9) < 1e-12
        # at p = 1 the minimizer is interior and uniform
        assert rows[-1][3] == "1/3 1/3 1/3"

    def test_min_eig_column_is_lattice_minimum(self, capsys):
        from schmidt_lens.analysis import simplex_lattice

        code, out, _ = run_cli(
            ["snac", "--d", "3", "--k", "0.5", "--p-grid", "3", "--q-grid", "6"], capsys
        )
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        for row in rows:
            p, got = float(row[0]), float(row[1])
            kraus = depolarizing(3, p).kraus
            best = min(
                ref_two_local_min_eig(kraus, np.asarray(pt) / 6, 0.5)
                for pt in simplex_lattice(6, 3)
            )
            assert abs(got - best) < 1e-12

    def test_ties_report_first_lexicographic_point(self, capsys):
        # up to p = 7/10 the minimum is shared by the three corners
        code, out, _ = run_cli(
            ["snac", "--d", "3", "--k", "0.5", "--p-grid", "21", "--q-grid", "30"], capsys
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        low = [row[3] for row in rows if float(row[0]) <= 0.7 + 1e-9]
        assert len(low) == 15
        assert set(low) == {"0 0 1"}

    def test_lattice_budget_is_usage_error(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(
            ["snac", "--d", "9", "--q-grid", "30", "--p-grid", "2"], capsys
        )
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert "budget" in err

    def test_channel_file_is_charged_one_lattice(self, tmp_path, capsys):
        # 1001 p points x 560 lattice points x 4^6 would exceed the dense budget
        ch = random_channel(4, 4, seed=7)
        path = tmp_path / "ch.json"
        path.write_text(channel_to_json(ch))
        code, out, _ = run_cli(["snac", "--d", "4", "--p-grid", "1001", "--q-grid", "13",
                                "--channel-file", str(path)], capsys)
        assert code == 0
        q_star, value = snac_lattice_minimum(ch, 0.5, 13)
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 1001
        assert {(row[1], row[3]) for row in rows} == {
            (format(value, ".17g"), " ".join(str(f) for f in q_star))}

    def test_phase_covariant_file_takes_the_reduced_budget(self, tmp_path, capsys):
        # the file's study is the family's p = 0.5 row at every p
        path = tmp_path / "ch.json"
        path.write_text(channel_to_json(depolarizing(9, 0.5)))
        args = ["snac", "--d", "9", "--p-grid", "11", "--q-grid", "8"]
        code, out, _ = run_cli(args + ["--channel-file", str(path)], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 11
        assert {(row[1], row[3]) for row in rows} == {
            ("-0.011959876543209933", "0 " + " ".join(["1/8"] * 8))}
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        half = out.strip().split("\n")[6].split(",")
        assert half[0] == "0.5" and (half[1], half[3]) == (rows[0][1], rows[0][3])

    def test_channel_file_keeps_the_dense_budget(self, tmp_path, capsys):
        # a random channel at the sizes of the test above takes the dense kernel:
        # 12870 lattice points x 9^6 is over its budget
        path = tmp_path / "ch.json"
        path.write_text(channel_to_json(random_channel(9, 4, seed=7)))
        start = time.perf_counter()
        code, out, err = run_cli(["snac", "--d", "9", "--p-grid", "11", "--q-grid", "8",
                                  "--channel-file", str(path)], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "budget" in err

    def test_json_output_validates(self, capsys):
        code, out, _ = run_cli(
            ["snac", "--p-grid", "3", "--q-grid", "3", "--output", "json"], capsys
        )
        assert code == 0
        jsonschema.validate(json.loads(out), report_schema())

    def test_bad_k(self, capsys):
        code, _, _ = run_cli(["snac", "--k", "0.0", "--p-grid", "3", "--q-grid", "3"], capsys)
        assert code == 2


MALFORMED_CHANNEL_FILES = {
    "truncated": '{"d_in": 3, "d_out"',
    "not an object": "[1, 2, 3]",
    "entry count": '{"d_in": 3, "d_out": 3, "kraus": [[[1, 0], [0, 0]]]}',
    "not pairs": '{"d_in": 3, "d_out": 3, "kraus": [[1, 0, 0, 0, 1, 0, 0, 0, 1]]}',
    "not trace-preserving": json.dumps(
        {"d_in": 3, "d_out": 3, "kraus": [[[2.0, 0.0] if i % 4 == 0 else [0.0, 0.0]
                                           for i in range(9)]]}
    ),
}


class TestMalformedChannelFile:
    @pytest.mark.parametrize("command", [["sweep", "--r", "2"], ["snac", "--p-grid", "2"]])
    @pytest.mark.parametrize("case", sorted(MALFORMED_CHANNEL_FILES))
    def test_usage_error(self, command, case, tmp_path, capsys):
        path = tmp_path / "ch.json"
        path.write_text(MALFORMED_CHANNEL_FILES[case])
        code, out, err = run_cli(command + ["--d", "3", "--channel-file", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: malformed channel file")
        assert "Traceback" not in err


class TestUnreadableChannelFile:
    @pytest.mark.parametrize("command", [["sweep", "--r", "2"],
                                         ["snac", "--p-grid", "2", "--q-grid", "2"]])
    @pytest.mark.parametrize("kind", ["directory", "missing"])
    def test_usage_error(self, command, kind, tmp_path, capsys):
        path = tmp_path if kind == "directory" else tmp_path / "absent.json"
        code, out, err = run_cli(command + ["--d", "3", "--channel-file", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: cannot read channel file: ")


class TestUsageErrors:
    @pytest.mark.parametrize("args", [
        ["snac", "--d", "1", "--p-grid", "2", "--q-grid", "2"],
        ["verify", "--suite", "relations", "--d", "3", "--r", "5"],
        ["verify", "--suite", "relations", "--d", "3", "--r", "3"],
        ["verify", "--suite", "relations", "--d", "3", "--r", "0"],
        ["verify", "--d", "2", "--r", "2"],
        ["verify", "--suite", "kron_rank", "--seed", "-1"],
    ])
    def test_exit_2_before_any_work(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")

    @pytest.mark.parametrize("args", [
        ["threshold", "--family", "depolarizing", "--d", "14", "--r", "2"],
        ["threshold", "--family", "dephasing", "--d", "100", "--r", "2"],
        ["sweep", "--d", "14", "--r", "2"],
        ["sweep", "--d", "3", "--r", "2", "--grid", "1000000000"],
        ["snac", "--d", "14", "--p-grid", "2", "--q-grid", "2"],
        ["snac", "--d", "3", "--p-grid", "1000000000", "--q-grid", "2"],
        ["snac", "--d", "9", "--p-grid", "39", "--q-grid", "8"],  # just over the reduced work
        ["verify", "--suite", "relations", "--d", "14", "--r", "2"],
    ])
    def test_over_budget_exits_2_at_once(self, args, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(args, capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "budget" in err


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "t4"], capsys)
        assert code == 0
        assert "[PASS] t4" in out
        assert '"max_kraus_rank_tensor": 4' in out

    def test_relations_prints_gap(self, capsys):
        code, out, _ = run_cli(["verify", "--suite", "relations", "--d", "3", "--r", "2"], capsys)
        assert code == 0
        assert "[PASS] relations" in out
        assert "0.625" in out

    def test_failed_suite_exits_1_with_one_error_line(self, monkeypatch, capsys):
        monkeypatch.setitem(suites.SUITES, "kron_rank",
                            lambda seed=0: suites.SuiteResult("kron_rank", False, "planted"))
        code, out, err = run_cli(["verify", "--suite", "kron_rank"], capsys)
        assert code == 1
        assert "[FAIL] kron_rank: planted" in out
        assert err == "error: suites failed: kron_rank\n"

    def test_json_detail_validates(self, tmp_path, capsys):
        path = tmp_path / "verify.json"
        code, _, _ = run_cli(
            ["verify", "--suite", "kron_rank", "--output-path", str(path)], capsys
        )
        assert code == 0
        jsonschema.validate(json.loads(path.read_text()), report_schema())


class TestExitCodeContract:
    def test_only_expected_codes(self, tmp_path, capsys):
        cases = [
            (["threshold", "--family", "depolarizing", "--d", "3", "--r", "2"], 0),
            (["threshold", "--family", "depolarizing", "--d", "3", "--r", "9"], 2),
            (["sweep", "--family", "custom", "--d", "3", "--r", "2"], 2),
            (["verify", "--suite", "identity_sweep"], 0),
        ]
        for args, want in cases:
            code = main(args)
            capsys.readouterr()
            assert code == want, args


# The slowest inputs the budgets accept take about 14 s on 2 vCPUs with one
# BLAS thread: a snac --channel-file study at the dense eigensolver-work cap,
# d=4 (--q-grid 141); at d=3 (--q-grid 986) it takes 6 s, and
# sweep --d 13 --grid 1001 0.6 s. The bound leaves room for a slow machine while
# still catching an input that runs unbounded.
EXAMPLE_SECONDS = 60.0
MAX_D = math.isqrt(math.isqrt(MAX_KRAUS_STACK_BYTES // 16))


# --d and channel of each snac --channel-file line: a dense qutrit channel and
# a phase-covariant ququart one.
CHANNEL_FILES = {"dense": (3, random_channel(3, 4, seed=7)), "covariant": (4, dephasing(4, 0.3))}


def _flags(**values):
    return [f"--{name.replace('_', '-')}={value!r}" for name, value in values.items()]


def command_lines(dim, grid, q_grid, seed, real):
    """CLI argument lists whose values come from the given strategies.

    ``dim`` draws --d and --r, ``grid`` draws --grid and --p-grid, and
    ``real`` draws --tol and --k. The snac --channel-file lines keep their
    file's --d and small grids; their ``@name`` placeholder stands for the
    path of the CHANNEL_FILES entry.
    """
    families = st.sampled_from(["depolarizing", "dephasing"])
    small = st.integers(1, 12)
    suite_names = st.sampled_from([None, *sorted(suites.SUITES)])
    return st.one_of(
        st.builds(lambda family, d, r, tol, seed: ["threshold", f"--family={family}"]
                  + _flags(d=d, r=r, tol=tol, seed=seed),
                  families, dim, dim, real, seed),
        st.builds(lambda family, d, r, grid, seed: ["sweep", f"--family={family}"]
                  + _flags(d=d, r=r, grid=grid, seed=seed),
                  families, dim, dim, grid, seed),
        st.builds(lambda d, k, p_grid, q_grid, seed: ["snac"]
                  + _flags(d=d, k=k, p_grid=p_grid, q_grid=q_grid, seed=seed),
                  dim, real, grid, q_grid, seed),
        st.builds(lambda name, k, p_grid, q_grid, seed:
                  ["snac", f"--d={CHANNEL_FILES[name][0]}", f"--channel-file=@{name}"]
                  + _flags(k=k, p_grid=p_grid, q_grid=q_grid, seed=seed),
                  st.sampled_from(sorted(CHANNEL_FILES)), real, small, small, seed),
        st.builds(lambda suite, d, r, seed: ["verify"]
                  + (["--suite", suite] if suite else []) + _flags(d=d, r=r, seed=seed),
                  suite_names, dim, dim, seed),
    )


# Every integer and every float, NaN, infinities and subnormals included.
ANY_VALUE = command_lines(st.integers(), st.integers(), st.integers(), st.integers(),
                          st.floats())
# Small values, most of which are accepted and run to the end.
SMALL_VALUES = command_lines(st.integers(1, 6), st.integers(2, 8), st.integers(2, 8),
                             st.integers(0, 5), st.floats(0.0, 1.0))
# Values from below each check up to twice its budget, where the slowest
# accepted inputs lie.
AROUND_THE_BUDGETS = command_lines(
    st.integers(-1, 2 * MAX_D), st.integers(-1, 2 * analysis.MAX_GRID_POINTS),
    st.integers(-1, 2 * analysis.MAX_GRID_POINTS), st.integers(-1, 5), st.floats(),
)


def run_main(args):
    """Exit code, stdout and stderr of ``main(args)``; argparse's own exit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def channel_paths(tmp_path_factory):
    """Each ``--channel-file=@name`` placeholder mapped to the written file's flag."""
    paths = {}
    for name, (_, ch) in CHANNEL_FILES.items():
        path = tmp_path_factory.mktemp("channels") / f"{name}.json"
        path.write_text(channel_to_json(ch))
        paths[f"--channel-file=@{name}"] = f"--channel-file={path}"
    return paths


def check_contract(args, channel_paths):
    files = [arg.split("=")[0] for arg in args if arg in channel_paths]
    args = [channel_paths.get(arg, arg) for arg in args]
    start = time.perf_counter()
    code, out, err = run_main(args)
    elapsed = time.perf_counter() - start
    event(" ".join([args[0], *files, f"exit {code}"]))
    assert elapsed < EXAMPLE_SECONDS, (args, elapsed)
    assert code in (0, 1, 2), (args, code)
    assert "Traceback" not in err
    if code != 0:
        assert sum("error:" in line for line in err.splitlines()) == 1, (args, err)
    if code == 2:
        assert out == "", args


class TestArgumentRanges:
    @settings(max_examples=200, deadline=None)
    @given(args=ANY_VALUE)
    def test_any_value_gets_a_classified_answer(self, args, channel_paths):
        check_contract(args, channel_paths)

    @settings(max_examples=40, deadline=None)
    @given(args=SMALL_VALUES)
    def test_small_values_get_a_classified_answer(self, args, channel_paths):
        check_contract(args, channel_paths)

    @settings(max_examples=40, deadline=None)
    @given(args=AROUND_THE_BUDGETS)
    def test_values_around_the_budgets_get_a_classified_answer(self, args, channel_paths):
        check_contract(args, channel_paths)
