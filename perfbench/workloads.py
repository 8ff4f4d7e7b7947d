"""Workload inputs: the CLI command lists each workload runs.

This module uses the standard library only, so that a fresh interpreter
timing ``setup_s`` pays for the package import and nothing of the
benchmark's own checking code.

Every workload is a fixed list of ``schmidt-lens`` command lines. The
number of certificate evaluations one pass performs is computed here from
those inputs, never from counters inside the program, so it reads the same
on every commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

WORKLOADS = ("snac-lattice", "witness-thresholds", "verify-suites")

SNAC_K = 0.5
# (d, p_grid, q_grid): the paper's qutrit study at the CLI defaults, and a
# small ququart study (d=4 gains most from a batched kernel).
SNAC_STUDIES = ((3, 21, 30), (4, 5, 8))

# Both families at every 1 <= r < d. d=3 and d=4 hold the golden cases,
# d=9 makes 81 x 81 Choi matrices.
THRESHOLD_DIMS = (3, 4, 5, 9)
THRESHOLD_TOL = 1e-9  # the CLI's default --tol
SWEEP_D, SWEEP_R, SWEEP_GRID = 9, 2, 101

# Certificate evaluations (witness values, Lambda-map or partial-transpose
# minimum eigenvalues on one state) per suite, read off each suite's fixed
# loop sizes. In run order; t4 is an alias that `verify` does not run.
VERIFY_SUITE_EVALS = {
    "kron_rank": 0,
    "eig_reconstruction": 0,
    "partial_ops": 0,
    "schmidt_states": 40,  # PPT checks on separable mixtures
    "channel_axioms": 0,
    "witness_nonneg": 1000 + 2,  # 1000 witness values + one combined certificate
    "lambda_window": 3 * 1000 + 3 * 3,  # r = 1..3: 1000 states and 3 k values each
    "threshold_consistency": 6 * (2 + 34),  # six bisections to tol 1e-10
    "snac_two_local": 50 * 2 + 5 * 2,  # two k values at 50 p, five covariance pairs
    "snac_minimizer": 5 * comb(30 + 2, 2),  # five p over the q-grid-30 qutrit lattice
    "certification_monotone": (2 + 3 + 3) * 2,  # witness + Lambda per certificate
    "theorems": 7 + 5 + 10,  # t1, t3 and p1 witness values
    "relations": 2 * (2 + 30) + 2,  # EB and breaking bisections, midpoint pair
    "identity_sweep": 5,
}


def bisection_evals(tol: float) -> int:
    """Curve evaluations of a bisection on [0, 1] run until the bracket is <= tol."""
    width, halvings = 1.0, 0
    while width > tol:
        width /= 2.0
        halvings += 1
    return 2 + halvings


def lattice_size(q_grid: int, d: int) -> int:
    """Points of the simplex lattice with q_grid subdivisions in d parts."""
    return comb(q_grid + d - 1, d - 1)


@dataclass(frozen=True)
class Command:
    """One CLI invocation, what kind of report it prints, and its evaluation count."""

    kind: str
    argv: tuple[str, ...]
    evals: int
    params: dict


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]

    @property
    def evals_per_pass(self) -> int:
        return sum(c.evals for c in self.commands)


def _snac(seed: int) -> list[Command]:
    return [
        Command("snac",
                ("snac", "--d", str(d), "--k", str(SNAC_K), "--p-grid", str(p_grid),
                 "--q-grid", str(q_grid), "--seed", str(seed)),
                p_grid * lattice_size(q_grid, d),
                {"d": d, "k": SNAC_K, "p_grid": p_grid, "q_grid": q_grid})
        for d, p_grid, q_grid in SNAC_STUDIES
    ]


def _thresholds(seed: int) -> list[Command]:
    per_threshold = bisection_evals(THRESHOLD_TOL)
    cmds = [
        Command("threshold",
                ("threshold", "--family", family, "--d", str(d), "--r", str(r),
                 "--seed", str(seed)),
                per_threshold, {"family": family, "d": d, "r": r})
        for d in THRESHOLD_DIMS
        for family in ("depolarizing", "dephasing")
        for r in range(1, d)
    ]
    cmds += [
        Command("sweep",
                ("sweep", "--family", family, "--d", str(SWEEP_D), "--r", str(SWEEP_R),
                 "--grid", str(SWEEP_GRID), "--seed", str(seed)),
                SWEEP_GRID, {"family": family, "d": SWEEP_D, "r": SWEEP_R, "grid": SWEEP_GRID})
        for family in ("depolarizing", "dephasing")
    ]
    return cmds


def _verify(seed: int) -> list[Command]:
    return [Command("verify", ("verify", "--seed", str(seed)),
                    sum(VERIFY_SUITE_EVALS.values()),
                    {"suites": tuple(VERIFY_SUITE_EVALS)})]


_BUILDERS = {
    "snac-lattice": _snac,
    "witness-thresholds": _thresholds,
    "verify-suites": _verify,
}


def build(name: str, seed: int) -> Workload:
    """The workload's command list for one seed (passed to every command)."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    return Workload(name, tuple(_BUILDERS[name](seed)))
