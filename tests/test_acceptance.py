"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single ``ACCEPTANCE n ...: PASS/FAIL`` line (shown
with ``pytest -s`` or in the captured output of failures).

Criterion 5 checks the closed form of the two-local qutrit depolarizing
certificate at uniform q at both map strengths it is stated for. With
(Phi_p ⊗ Phi_p)(phi+) = p^2 phi+ + (1 - p^2) I/9 and
(id ⊗ Lambda_k)(phi+) = I/3 - k phi+, the minimum eigenvalue is
p^2 (1/3 - k) + (1 - p^2)(3 - k)/9: (5 - 8 p^2)/18 with sign change at
sqrt(5/8) for k = 1/2, and (2 - 8 p^2)/9 with sign change at 1/2 for
k = 1. At p = 0 the output is I/9 and the value (3 - k)/9 is 2/9 only
at k = 1, so (2 - 8 p^2)/9 belongs to k = 1.
"""

import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from schmidt_lens import analysis, cli, suites
from schmidt_lens.channels import depolarizing

GOLDEN = Path(__file__).parent / "golden"


def report(n, name, ok, detail=""):
    line = f"ACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'}{' -- ' + detail if detail else ''}"
    print(line)
    return line


def test_criterion_1_depolarizing_threshold():
    t0 = time.perf_counter()
    got = analysis.snbc_witness_threshold("depolarizing", 3, 2, tol=1e-9)
    elapsed = time.perf_counter() - t0
    ok = abs(got - 5 / 8) <= 1e-8 and elapsed < 1.0
    line = report(1, "depolarizing breaking threshold", ok,
                  f"crossing={got!r}, runtime={elapsed:.3f}s")
    assert ok, line


def test_criterion_2_dephasing_threshold():
    t0 = time.perf_counter()
    got = analysis.snbc_witness_threshold("dephasing", 3, 2, tol=1e-9)
    elapsed = time.perf_counter() - t0
    ok = abs(got - 0.5) <= 1e-8 and elapsed < 1.0
    line = report(2, "dephasing breaking threshold", ok,
                  f"crossing={got!r}, runtime={elapsed:.3f}s")
    assert ok, line


def test_criterion_3_threshold_law():
    errors = {}
    for d, r in ((3, 1), (3, 2), (4, 2), (4, 3)):
        got = analysis.snbc_witness_threshold("depolarizing", d, r, tol=1e-9)
        errors[(d, r)] = abs(got - (r * d - 1) / (d * d - 1))
    ok = all(err <= 1e-8 for err in errors.values())
    line = report(3, "threshold law (rd-1)/(d^2-1)", ok, f"errors={errors}")
    assert ok, line


def test_criterion_4_eb_threshold_and_gap():
    failures = []
    for d in (2, 3, 4):
        got = analysis.eb_ppt_threshold(d)
        if abs(got - 1 / (d + 1)) > 1e-8:
            failures.append(f"EB crossing d={d}: {got!r}")
    for d, r in ((3, 2), (4, 2), (4, 3)):
        rep = analysis.relation_report(d, r)
        if rep.gap is None:
            failures.append(f"(d={d}, r={r}): gap unexpectedly empty")
            continue
        if not rep.pt_min_eig_at_midpoint < 0:
            failures.append(f"(d={d}, r={r}): PPT not violated at midpoint")
        if not rep.witness_value_at_midpoint >= -1e-9:
            failures.append(f"(d={d}, r={r}): witness fired at midpoint")
    ok = not failures
    line = report(4, "EB threshold 1/(d+1) and non-empty gap", ok, "; ".join(failures))
    assert ok, line


def test_criterion_5_snac_formula_as_stated():
    """Closed form and bisected sign change of the two-local certificate.

    Each map strength k is paired with the closed form derived for it in
    the module docstring; the expected values come from those forms.
    """
    t0 = time.perf_counter()
    q_uniform = np.full(3, 1 / 3)
    cases = (
        ("k=1/2", 0.5, "(5-8p^2)/18", lambda p: (5 - 8 * p * p) / 18, np.sqrt(5 / 8)),
        ("k=1", 1.0, "(2-8p^2)/9", lambda p: (2 - 8 * p * p) / 9, 0.5),
    )
    checks = []
    for label, k, form, closed_form, expected_crossing in cases:
        deviations = []
        for p in np.linspace(0.0, 1.0, 50):
            got = analysis.snac_min_eig(depolarizing(3, float(p)), q_uniform, k)
            deviations.append(abs(got - closed_form(p)))
        crossing = analysis.bisect_crossing(
            lambda p: analysis.snac_min_eig(depolarizing(3, p), q_uniform, k),
            0.0, 1.0, tol=1e-9,
        )
        checks.append((label, form, max(deviations), crossing, expected_crossing))
    elapsed = time.perf_counter() - t0
    ok = all(
        max_dev <= 1e-9 and abs(crossing - expected) <= 1e-8
        for _, _, max_dev, crossing, expected in checks
    ) and elapsed < 5.0
    line = report(
        5, "two-local closed forms (5-8p^2)/18 at k=1/2 and (2-8p^2)/9 at k=1", ok,
        "; ".join(
            f"{label}: max|min_eig - {form}| = {max_dev:.3e} (tol 1e-9), "
            f"sign change at {crossing:.9f} (expected {expected:.9f}, tol 1e-8)"
            for label, form, max_dev, crossing, expected in checks
        ) + f"; runtime={elapsed:.2f}s",
    )
    assert ok, line


def test_criterion_6_snac_minimizer_uniform():
    # uniform q is the strict lattice minimizer of the k = 1/2 certificate
    # throughout its detection regime (it holds exactly for p > 7/10; at
    # smaller p the minimum sits on the simplex corners)
    tested_p = (0.75, 0.8, 0.85, 0.9, 0.95)
    uniform = (Fraction(1, 3),) * 3
    failures = []
    for p in tested_p:
        q_star, _ = analysis.snac_lattice_minimum(depolarizing(3, p), 0.5, 30)
        if tuple(q_star) != uniform:
            failures.append(f"p={p}: minimizer {q_star}")
    ok = not failures
    line = report(6, "lattice minimizer at uniform q (N=30)", ok,
                  f"tested p={tested_p}" + ("; " + "; ".join(failures) if failures else ""))
    assert ok, line


def test_criterion_7_property_suites():
    t0 = time.perf_counter()
    names = ["witness_nonneg", "lambda_window", "kron_rank", "channel_axioms", "theorems"]
    results = suites.run_suites(names, seed=0)
    elapsed = time.perf_counter() - t0
    failures = [f"{res.name}: {res.detail}" for res in results if not res.passed]
    ok = not failures and elapsed < 60.0
    line = report(7, "property suites under seed 0", ok,
                  f"runtime={elapsed:.1f}s" + ("; " + "; ".join(failures) if failures else ""))
    assert ok, line


def test_criterion_8_cli_golden_files(tmp_path):
    cases = [
        ("depolarizing", 3, 1),
        ("depolarizing", 3, 2),
        ("depolarizing", 4, 2),
        ("depolarizing", 4, 3),
        ("dephasing", 3, 2),
    ]
    failures = []
    for family, d, r in cases:
        out = tmp_path / f"threshold_{family}_d{d}_r{r}.json"
        code = cli.main([
            "threshold", "--family", family, "--d", str(d), "--r", str(r),
            "--output-path", str(out),
        ])
        if code != 0:
            failures.append(f"{family} d={d} r={r}: exit {code}")
            continue
        golden = GOLDEN / f"threshold_{family}_d{d}_r{r}.json"
        if out.read_bytes() != golden.read_bytes():
            failures.append(f"{family} d={d} r={r}: bytes differ from golden")
    ok = not failures
    line = report(8, "CLI threshold golden files bit-exact", ok, "; ".join(failures))
    assert ok, line
