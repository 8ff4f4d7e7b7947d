"""Correctness checks on the reports the CLI prints.

Each check returns one ``Outcome`` per unit it judges: one per threshold,
sweep or snac report, and one per suite plus the exit status for
``verify``. A command that exits non-zero or raises fails its unit.

Known defect: ``threshold --family dephasing --r 1`` asks for a crossing at
p = 0, the bracket's own endpoint, so the curve's value there is 0 up to
rounding. For some d it rounds to <= 0 and the command exits 1 with
``NoSignChangeError``. Such a run is counted as failed, but marked as the
known defect, so it does not make the run incorrect; any other failure
does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

from schmidt_lens import analysis

THRESHOLD_TOL = 1e-8  # the paper's thresholds, reproduced to 1e-8
VALUE_TOL = 1e-12  # certificate values re-evaluated independently
EXACT_TOL = 1e-15  # values the CLI computes by a closed form
EVIDENCE_TOL = 1e-9  # the verdict cut of witness sweeps

THRESHOLD_KEYS = ["family", "d", "r", "threshold", "analytic", "abs_error"]
KNOWN_DEFECT_MESSAGE = "do not bracket a root"
RECORDED_SNAC = Path(__file__).resolve().parent / "data" / "snac_d4.json"


@dataclass(frozen=True)
class CommandResult:
    """What one CLI invocation returned and printed."""

    rc: int | None
    stdout: str
    stderr: str
    error: str | None = None  # repr of an exception that escaped cli.main


@dataclass(frozen=True)
class Outcome:
    unit: str
    problem: str | None = None  # None when the check passed
    known_defect: bool = False

    @property
    def failed(self) -> bool:
        return self.problem is not None


def lattice_points(q_grid: int, d: int) -> list[tuple[int, ...]]:
    """Integer compositions of q_grid into d parts, in lexicographic order."""
    points = []
    for cuts in combinations(range(q_grid + d - 1), d - 1):
        bounds = (-1, *cuts, q_grid + d - 1)
        points.append(tuple(b - a - 1 for a, b in zip(bounds, bounds[1:])))
    return sorted(points)


def id_lambda_min_eigs(mats: np.ndarray, d: int, k: float) -> np.ndarray:
    """Minimum eigenvalue of (id ⊗ Lambda_k) on each of a stack of d^2 x d^2 matrices."""
    r = mats.reshape(-1, d, d, d, d)
    block_traces = np.einsum("niaja->nij", r)
    out = -k * r + np.einsum("nij,ab->niajb", block_traces, np.eye(d))
    return np.linalg.eigvalsh(out.reshape(-1, d * d, d * d))[:, 0]


def depolarizing_witness(d: int, r: int, p: float) -> float:
    """Tr(W rho) on the depolarizing Choi state: 1 - (d/r)(p + (1-p)/d^2)."""
    return 1.0 - (d / r) * (p + (1.0 - p) / (d * d))


def dephasing_witness(d: int, r: int, v: float) -> float:
    """Tr(W rho) on the dephasing Choi state: 1 - (1 + (d-1)v)/r."""
    return 1.0 - (1.0 + (d - 1) * v) / r


def closed_form_threshold(family: str, d: int, r: int) -> float:
    if family == "depolarizing":
        return (r * d - 1.0) / (d * d - 1.0)
    return (r - 1.0) / (d - 1.0)


class Expectations:
    """Reference data for one run: golden reports and snac certificate tables."""

    def __init__(self, root: Path):
        self.golden_dir = root / "tests" / "golden"
        self._snac: dict[tuple, list[dict]] = {}

    def golden(self, family: str, d: int, r: int) -> str | None:
        path = self.golden_dir / f"threshold_{family}_d{d}_r{r}.json"
        return path.read_text(encoding="utf-8") if path.is_file() else None

    def snac_table(self, d: int, k: float, p_grid: int, q_grid: int) -> list[dict]:
        """Per p, the certificate value at every lattice point."""
        key = (d, k, p_grid, q_grid)
        if key not in self._snac:
            if d == 3:
                self._snac[key] = _qutrit_oracle_table(k, p_grid, q_grid)
            else:
                self._snac[key] = _recorded_table(*key)
        return self._snac[key]


def _qutrit_oracle_table(k: float, p_grid: int, q_grid: int) -> list[dict]:
    points = lattice_points(q_grid, 3)
    qs = np.array(points, dtype=float) / q_grid
    table = []
    for p in np.linspace(0.0, 1.0, p_grid):
        mats = np.stack([analysis.two_local_depolarizing_matrix(float(p), q) for q in qs])
        table.append(dict(zip(points, id_lambda_min_eigs(mats, 3, k).tolist())))
    return table


def _recorded_table(d: int, k: float, p_grid: int, q_grid: int) -> list[dict]:
    doc = json.loads(RECORDED_SNAC.read_text(encoding="utf-8"))
    if (doc["d"], doc["k"], doc["p_grid"], doc["q_grid"]) != (d, k, p_grid, q_grid):
        raise ValueError(f"no recorded snac values for d={d}, k={k}, "
                         f"p_grid={p_grid}, q_grid={q_grid}")
    points = [tuple(pt) for pt in doc["points"]]
    return [dict(zip(points, row)) for row in doc["values"]]


def check(cmd, res: CommandResult, expect: Expectations) -> list[Outcome]:
    """Judge one command's result; ``cmd`` is a ``workloads.Command``."""
    if cmd.kind == "verify":
        return _check_verify(cmd, res)
    unit = " ".join(cmd.argv[:-2])  # the seed argument is the same for every unit
    if res.error is not None or res.rc != 0:
        known = (cmd.kind == "threshold" and cmd.params["family"] == "dephasing"
                 and cmd.params["r"] == 1 and res.rc == 1
                 and KNOWN_DEFECT_MESSAGE in res.stderr)
        detail = res.error or (res.stderr.strip().splitlines() or [""])[-1]
        return [Outcome(unit, f"exit {res.rc}: {detail}", known)]
    try:
        problems = _CHECKERS[cmd.kind](cmd.params, res.stdout, expect)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"unreadable report: {type(exc).__name__}: {exc}"]
    return [Outcome(unit, "; ".join(problems) if problems else None)]


def _check_threshold(params: dict, out: str, expect: Expectations) -> list[str]:
    family, d, r = params["family"], params["d"], params["r"]
    report = json.loads(out)
    problems = []
    if list(report) != THRESHOLD_KEYS:
        problems.append(f"keys {list(report)}")
    if (report["family"], report["d"], report["r"]) != (family, d, r):
        problems.append("report is for another case")
    exact = closed_form_threshold(family, d, r)
    if not abs(report["threshold"] - exact) <= THRESHOLD_TOL:
        problems.append(f"threshold {report['threshold']!r} is not {exact!r} within 1e-8")
    if not abs(report["analytic"] - exact) <= EXACT_TOL:
        problems.append(f"analytic {report['analytic']!r} != {exact!r}")
    if not report["abs_error"] <= THRESHOLD_TOL:
        problems.append(f"abs_error {report['abs_error']!r} > 1e-8")
    golden = expect.golden(family, d, r)
    if golden is not None and out != golden:
        problems.append("report differs from its golden file")
    return problems


def _check_sweep(params: dict, out: str, expect: Expectations) -> list[str]:
    family, d, r, grid = params["family"], params["d"], params["r"], params["grid"]
    closed = depolarizing_witness if family == "depolarizing" else dephasing_witness
    lines = out.splitlines()
    if lines[0] != "parameter,value,verdict" or len(lines) != grid + 1:
        return [f"expected a header and {grid} rows"]
    problems = []
    for p, line in zip(np.linspace(0.0, 1.0, grid), lines[1:]):
        param, value, verdict = line.split(",")
        param, value = float(param), float(value)
        want = "certified_above" if value < -EVIDENCE_TOL else "consistent_with_at_most"
        if (abs(param - p) > EXACT_TOL or abs(value - closed(d, r, param)) > VALUE_TOL
                or verdict != want):
            problems.append(f"row {line!r}")
    return problems


def _check_snac(params: dict, out: str, expect: Expectations) -> list[str]:
    d, k, p_grid, q_grid = params["d"], params["k"], params["p_grid"], params["q_grid"]
    table = expect.snac_table(d, k, p_grid, q_grid)
    lines = out.splitlines()
    if lines[0] != "p,min_eig,formula,q_star" or len(lines) != p_grid + 1:
        return [f"expected a header and {p_grid} rows"]
    problems = []
    for p, values, line in zip(np.linspace(0.0, 1.0, p_grid), table, lines[1:]):
        p_text, min_eig, formula, q_star = line.split(",")
        p_row, min_eig, formula = float(p_text), float(min_eig), float(formula)
        q = [Fraction(x) for x in q_star.split()]
        point = tuple(int(x * q_grid) for x in q)
        if abs(p_row - p) > EXACT_TOL or abs(formula - (2.0 - 8.0 * p * p) / 9.0) > EXACT_TOL:
            problems.append(f"p={p_text}: p or formula column")
        elif len(q) != d or sum(q) != 1 or any(x * q_grid != n for x, n in zip(q, point)):
            problems.append(f"p={p_text}: q_star {q_star!r} is not a lattice point")
        elif point not in values:
            problems.append(f"p={p_text}: q_star {q_star!r} is not on the simplex")
        elif abs(values[point] - min_eig) > VALUE_TOL:
            problems.append(f"p={p_text}: certificate at q_star is {values[point]!r}, "
                            f"not the reported {min_eig!r}")
        elif abs(min(values.values()) - min_eig) > VALUE_TOL:
            problems.append(f"p={p_text}: {min_eig!r} is not the lattice minimum "
                            f"{min(values.values())!r}")
        elif d == 3 and p > 0.7 and abs(min_eig - (5.0 - 8.0 * p * p) / 18.0) > VALUE_TOL:
            problems.append(f"p={p_text}: {min_eig!r} != (5-8p^2)/18")
    return problems


def _check_verify(cmd, res: CommandResult) -> list[Outcome]:
    lines = res.stdout.splitlines()
    outcomes = []
    for name in cmd.params["suites"]:
        prefix = f"{name}:"
        status = next((line.split()[0] for line in lines
                       if line.split()[1:2] == [prefix]), None)
        outcomes.append(Outcome(f"verify {name}",
                                None if status == "[PASS]" else f"status {status}"))
    exit_ok = res.error is None and res.rc == 0 and "verify: all suites passed" in lines
    outcomes.append(Outcome("verify exit",
                            None if exit_ok else f"exit {res.rc} {res.error or ''}"))
    return outcomes


_CHECKERS = {
    "threshold": _check_threshold,
    "sweep": _check_sweep,
    "snac": _check_snac,
}
