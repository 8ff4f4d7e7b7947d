import json

import jsonschema
import numpy as np
import pytest

from schmidt_lens.channels import channel_to_json, identity_channel
from schmidt_lens.cli import main, render_json, report_schema


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

    def test_argparse_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--family", "nonsense", "--d", "3", "--r", "2"])
        assert exc.value.code == 2


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
        from schmidt_lens.analysis import simplex_lattice, snac_min_eig
        from schmidt_lens.channels import depolarizing

        code, out, _ = run_cli(
            ["snac", "--d", "3", "--k", "0.5", "--p-grid", "3", "--q-grid", "6"], capsys
        )
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        for row in rows:
            p, got = float(row[0]), float(row[1])
            best = min(
                snac_min_eig(depolarizing(3, p), np.asarray(pt) / 6, 0.5)
                for pt in simplex_lattice(6, 3)
            )
            assert abs(got - best) < 1e-12

    def test_json_output_validates(self, capsys):
        code, out, _ = run_cli(
            ["snac", "--p-grid", "3", "--q-grid", "3", "--output", "json"], capsys
        )
        assert code == 0
        jsonschema.validate(json.loads(out), report_schema())

    def test_bad_k(self, capsys):
        code, _, _ = run_cli(["snac", "--k", "0.0", "--p-grid", "3", "--q-grid", "3"], capsys)
        assert code == 2


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
