"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from schmidt_lens import cli  # noqa: E402

EXPECT = checks.Expectations(ROOT)


def _command(workload: str, *argv: str) -> workloads.Command:
    prefix = tuple(argv)
    return next(c for c in workloads.build(workload, 0).commands
                if c.argv[:len(prefix)] == prefix)


def _run(cmd: workloads.Command) -> checks.CommandResult:
    _, (result,) = run.run_pass(cli, [cmd])
    return result


def _outcome(cmd, result) -> checks.Outcome:
    (outcome,) = checks.check(cmd, result, EXPECT)
    return outcome


def _replaced(result: checks.CommandResult, old: str, new: str) -> checks.CommandResult:
    assert old in result.stdout
    return checks.CommandResult(result.rc, result.stdout.replace(old, new, 1), result.stderr)


def test_benchmark_json_matches_the_metrics_reported():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == tracing.PER_LAYER
    assert list(tracing.PER_LAYER) == [m["name"] for m in doc["per_layer"]]


@pytest.mark.parametrize("case", [("depolarizing", "3", "2"), ("depolarizing", "9", "4")])
def test_perturbed_threshold_counts_as_failed(case):
    family, d, r = case
    cmd = _command("witness-thresholds", "threshold", "--family", family, "--d", d, "--r", r)
    result = _run(cmd)
    assert not _outcome(cmd, result).failed
    value = json.loads(result.stdout)["threshold"]
    planted = _replaced(result, cli._fmt_float(value), cli._fmt_float(value + 2e-8))
    outcome = _outcome(cmd, planted)
    assert outcome.failed and not outcome.known_defect


def test_dephasing_r1_no_sign_change_is_the_known_defect():
    cmd = _command("witness-thresholds", "threshold", "--family", "dephasing", "--d", "3", "--r", "1")
    outcome = _outcome(cmd, _run(cmd))
    assert outcome.failed and outcome.known_defect
    other = _outcome(cmd, checks.CommandResult(1, "", "error: something else\n"))
    assert other.failed and not other.known_defect


def test_non_minimal_q_star_counts_as_failed():
    params = {"d": 3, "k": 0.5, "p_grid": 3, "q_grid": 6}
    cmd = workloads.Command("snac", ("snac", "--d", "3", "--k", "0.5", "--p-grid", "3",
                                     "--q-grid", "6", "--seed", "0"), 3 * 28, params)
    result = _run(cmd)
    assert not _outcome(cmd, result).failed  # includes the flat p = 0 row
    last = result.stdout.splitlines()[-1]
    assert last.endswith(",1/3 1/3 1/3")
    corner_value = EXPECT.snac_table(**params)[-1][(6, 0, 0)]
    p, _, formula, _ = last.split(",")
    wrong_point = _replaced(result, last, last.replace("1/3 1/3 1/3", "1 0 0"))
    consistent = _replaced(result, last, f"{p},{cli._fmt_float(corner_value)},{formula},1 0 0")
    for planted in (wrong_point, consistent):
        outcome = _outcome(cmd, planted)
        assert outcome.failed and not outcome.known_defect


def test_failed_verify_suite_counts_as_failed():
    cmd = workloads.build("verify-suites", 0).commands[0]
    lines = [f"[PASS] {name}: ok" for name in cmd.params["suites"]]
    lines[3] = lines[3].replace("PASS", "FAIL")
    stdout = "\n".join(lines + ["verify: FAILURES present"]) + "\n"
    outcomes = checks.check(cmd, checks.CommandResult(1, stdout, ""), EXPECT)
    assert sum(o.failed for o in outcomes) == 2 and not any(o.known_defect for o in outcomes)


def _traced(workload: str, seed: int, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["snac-lattice", "verify-suites"])
def test_traced_counts_repeat_on_the_same_seed(workload, tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    first, second = _traced(workload, 11, "--spans-out", str(spans_path)), _traced(workload, 11)
    exact = [name for name, (unit, _) in tracing.PER_LAYER.items()
             if unit in ("count", "n3-computed") or name.endswith(".per_eval")]
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}
    assert first["linalg.eigvalsh.calls"] > 0
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    assert sum(name == "linalg.eigvalsh" for name, *_ in spans) == first["linalg.eigvalsh.calls"]
    assert all(parent is None or parent < idx
               for idx, (_, _, parent, start, end) in enumerate(spans))
    assert all(end >= start for *_, start, end in spans)
    if workload == "snac-lattice":
        for name in ("channels.choi.calls", "channels.ChoiMatrix.calls"):
            assert first[name] == 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "snac-lattice", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
