"""Named verification suites: invariants, closure theorems, counterexamples.

Each suite is a seeded, self-contained check returning a SuiteResult;
the CLI ``verify`` command runs them and reports one line per suite.
The checks here are the executable form of the library's contracts:
witness soundness on generated low-Schmidt-number states, positivity
windows of the Tr(X)I - kX family, Kraus/Choi round trips, closure of
breaking channels under series concatenation, the tensor-product
counterexample, and the entanglement-breaking vs number-breaking gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import analysis, linalg
from .channels import (
    action_distance,
    adjoint,
    apply_matrix,
    canonical_kraus,
    choi,
    compose,
    depolarizing,
    dephasing,
    identity_channel,
    random_channel,
    random_channel_with_kraus_rank,
    tensor,
)
from .schmidt import (
    EVIDENCE_TOL,
    Verdict,
    _id_lambda_matrix,
    apply_id_lambda,
    certify_sn_above,
    isotropic_sn_threshold,
    r_positivity_window,
    sn_upper_bound_via_kraus,
    witness,
    witness_value,
    witness_values,
)
from .states import (
    DensityMatrix,
    PureState,
    haar_unitary,
    isotropic_state,
    max_entangled,
    random_density,
    random_pure_with_schmidt_rank,
    random_states_sn_at_most,
    schmidt_coefficients,
    schmidt_rank,
)


# Byte budget of one stack of generated states. A suite draws its states as
# consecutive stacks of at most this size from one generator, which yields the
# same states as one stack. One 1000-state stack of 16 x 16 matrices (4 MB,
# plus its validation temporaries) raised the peak RSS of the verify-suites
# benchmark from 42.5 to 59.8 MB; at this budget it stays level, at the same
# speed.
STACK_BYTES = 2**18


def _sn_stacks(d: int, r: int, n: int, max_terms: int, rng):
    """Yield (index of the first state, stack) over ``n`` generated d x d states."""
    step = max(1, STACK_BYTES // (16 * d**4))
    for start in range(0, n, step):
        yield start, random_states_sn_at_most(d, d, r, min(step, n - start), max_terms, rng)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str
    data: dict = field(default_factory=dict)


def _result(name: str, failures: list[str], data: dict | None = None) -> SuiteResult:
    if failures:
        return SuiteResult(name, False, "; ".join(failures), data or {})
    return SuiteResult(name, True, "ok", data or {})


def suite_kron_rank(seed: int = 0, pairs: int = 200) -> SuiteResult:
    """rank(A ⊗ B) = rank(A) rank(B) on random pairs up to 4x4."""
    rng = np.random.default_rng(seed)
    failures = []
    for trial in range(pairs):
        na, nb = rng.integers(2, 5), rng.integers(2, 5)
        ra, rb = int(rng.integers(1, na + 1)), int(rng.integers(1, nb + 1))
        a = _random_rank(na, ra, rng)
        b = _random_rank(nb, rb, rng)
        got = linalg.matrix_rank(linalg.kron(a, b))
        if got != ra * rb:
            failures.append(f"trial {trial}: rank {got} != {ra}*{rb}")
    return _result("kron_rank", failures, {"pairs": pairs})


def _random_rank(n: int, r: int, rng) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    for _ in range(r):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        m += np.outer(u, v)
    return m


def suite_eig_reconstruction(seed: int = 0, trials: int = 20) -> SuiteResult:
    """V diag(w) V† rebuilds random Hermitian input; eigenvalue sum matches trace."""
    rng = np.random.default_rng(seed)
    failures = []
    for trial in range(trials):
        n = int(rng.choice([4, 9, 16, 36, 81]))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (g + g.conj().T) / 2.0
        vals, vecs = linalg.hermitian_eig(h)
        scale = np.max(np.abs(h))
        err = np.max(np.abs((vecs * vals) @ vecs.conj().T - h))
        if err > 1e-10 * scale:
            failures.append(f"trial {trial}: reconstruction error {err:.2e}")
        tr = float(np.trace(h).real)
        if abs(vals.sum() - tr) > 1e-10 * max(abs(tr), 1.0):
            failures.append(f"trial {trial}: eigenvalue sum mismatch")
        if np.max(np.abs(vecs.conj().T @ vecs - np.eye(n))) > 1e-10:
            failures.append(f"trial {trial}: eigenvectors not orthonormal")
    return _result("eig_reconstruction", failures, {"trials": trials})


def suite_partial_ops(seed: int = 0, trials: int = 30) -> SuiteResult:
    """Partial trace of product states; partial transpose involution/Hermiticity."""
    rng = np.random.default_rng(seed)
    failures = []
    for trial in range(trials):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        rho = random_density(da, rng).matrix
        sig = random_density(db, rng).matrix
        prod = linalg.kron(rho, sig)
        if np.max(np.abs(linalg.partial_trace(prod, (da, db), 0) - rho)) > 1e-12:
            failures.append(f"trial {trial}: Tr_B(rho ⊗ sigma) != rho")
        if np.max(np.abs(linalg.partial_trace(prod, (da, db), 1) - sig)) > 1e-12:
            failures.append(f"trial {trial}: Tr_A(rho ⊗ sigma) != sigma")
        m = random_density(da * db, rng).matrix
        pt = linalg.partial_transpose(m, (da, db), which=1)
        if abs(np.trace(pt) - np.trace(m)) > 1e-12:
            failures.append(f"trial {trial}: PT changed the trace")
        if np.max(np.abs(pt - pt.conj().T)) > 1e-12:
            failures.append(f"trial {trial}: PT broke Hermiticity")
        back = linalg.partial_transpose(pt, (da, db), which=1)
        if np.max(np.abs(back - m)) > 0:
            failures.append(f"trial {trial}: PT not an involution")
    return _result("partial_ops", failures, {"trials": trials})


def suite_schmidt_states(seed: int = 0, trials: int = 60) -> SuiteResult:
    """Schmidt coefficients normalize; rank generator is exact; rank is LU-invariant."""
    rng = np.random.default_rng(seed)
    failures = []
    for trial in range(trials):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        r = int(rng.integers(1, min(da, db) + 1))
        psi = random_pure_with_schmidt_rank(da, db, r, rng)
        lam = schmidt_coefficients(psi)
        if abs(lam.sum() - 1.0) > 1e-10 or np.any(lam < -1e-15):
            failures.append(f"trial {trial}: coefficients not a distribution")
        if schmidt_rank(psi) != r:
            failures.append(f"trial {trial}: generated rank != {r}")
        u = linalg.kron(haar_unitary(da, rng), haar_unitary(db, rng))
        rotated = PureState(u @ psi.amplitudes, (da, db))
        if schmidt_rank(rotated) != r:
            failures.append(f"trial {trial}: rank not LU-invariant")
    # Separable mixtures stay PPT.
    separable = random_states_sn_at_most(3, 3, 1, 40, 5, rng)
    pts = [linalg.partial_transpose(m, (3, 3), which=1) for m in separable]
    for trial, lo in enumerate(np.linalg.eigvalsh(pts)[:, 0]):
        if lo < -EVIDENCE_TOL:
            failures.append(f"ppt trial {trial}: separable state failed PPT")
    return _result("schmidt_states", failures, {"trials": trials})


def suite_channel_axioms(seed: int = 0, n_channels: int = 100) -> SuiteResult:
    """Choi marginals, CP of random channels, canonical round trip, composition algebra."""
    rng = np.random.default_rng(seed)
    failures = []
    for trial in range(n_channels):
        d = int(rng.integers(2, 5))
        ch = random_channel(d, int(rng.integers(1, d * d + 1)), rng)
        c = choi(ch)
        if float(np.linalg.eigvalsh(c.matrix)[0]) < -EVIDENCE_TOL:
            failures.append(f"trial {trial}: Choi not PSD")
        marg = linalg.partial_trace(c.matrix, (d, d), 0)
        if np.max(np.abs(marg - np.eye(d) / d)) > 1e-9:
            failures.append(f"trial {trial}: Choi marginal != I/d")
        rebuilt = choi(canonical_kraus(c))
        if np.max(np.abs(rebuilt.matrix - c.matrix)) > 1e-8:
            failures.append(f"trial {trial}: Choi round trip exceeded 1e-8")
    for trial in range(10):
        d = 3
        f, g, h = (random_channel(d, 3, rng) for _ in range(3))
        lhs = compose(compose(f, g), h)
        rhs = compose(f, compose(g, h))
        if action_distance(lhs, rhs) > 1e-9:
            failures.append(f"assoc trial {trial}: composition not associative")
        ch = random_channel(d, 4, rng)
        if action_distance(adjoint(adjoint(ch)), ch) > 1e-12:
            failures.append(f"adjoint trial {trial}: double adjoint changed the action")
    return _result("channel_axioms", failures, {"n_channels": n_channels})


def suite_witness_nonneg(seed: int = 0, n_states: int = 1000) -> SuiteResult:
    """Tr(W rho) >= -1e-9 on generated Schmidt-number-<=2 states in 3x3."""
    rng = np.random.default_rng(seed)
    w = witness(3, 2)
    failures = []
    worst = np.inf
    for start, states in _sn_stacks(3, 2, n_states, 5, rng):
        vals = witness_values(w, states)
        worst = min(worst, float(vals.min()))
        failures += [f"trial {start + i}: witness value {vals[i]:.3e}"
                     for i in np.flatnonzero(vals < -EVIDENCE_TOL)]
    phi = max_entangled(3).density()
    res = certify_sn_above(phi, 2)
    if res.verdict is not Verdict.CERTIFIED_ABOVE:
        failures.append("maximally entangled state not certified above r=2")
    return _result("witness_nonneg", failures, {"n_states": n_states, "worst_value": worst})


def suite_lambda_window(seed: int = 0, n_states: int = 1000) -> SuiteResult:
    """Tr(X)I - kX: r-positivity for k <= 1/r, (r+1)-negativity inside the window.

    The generated states come from ``random_states_sn_at_most``, whose
    Dirichlet weights are exponential rows normalized as numpy's
    ``dirichlet`` does, bit for bit. Positivity of each stack at k = 1/r is
    decided by one Cholesky factorization of h + EVIDENCE_TOL I
    (``linalg.psd_minima``); only a stack that fails it gets a stacked
    ``eigvalsh``, whose minima name every failing trial.
    """
    rng = np.random.default_rng(seed)
    failures = []
    for r in (1, 2, 3):
        d = r + 1
        lo, hi = r_positivity_window(r)
        for start, states in _sn_stacks(d, r, n_states, 3, rng):
            mins = linalg.psd_minima(_id_lambda_matrix(states, d, d, hi), EVIDENCE_TOL)
            if mins is not None:
                failures += [f"r={r} trial {trial}: positivity failed at k=1/r"
                             for trial in start + np.flatnonzero(mins < -EVIDENCE_TOL)]
        phi = max_entangled(r + 1).density()
        for k in (lo + 1e-6, (lo + hi) / 2.0, hi):
            val = float(np.linalg.eigvalsh(apply_id_lambda(phi, k))[0])
            # analytic minimum 1/(r+1) - k < 0 inside the window
            if val >= -1e-12 or abs(val - (1.0 / (r + 1) - k)) > 1e-12:
                failures.append(f"r={r}, k={k}: negativity witness missing")
    return _result("lambda_window", failures, {"n_states_per_r": n_states})


def suite_threshold_consistency(seed: int = 0) -> SuiteResult:
    """Witness sign change of the isotropic family lands at (rd-1)/(d^2-1)."""
    failures = []
    for d in (2, 3, 4):
        for r in range(1, d):
            crossing = analysis.snbc_witness_threshold("depolarizing", d, r, tol=1e-10)
            want = isotropic_sn_threshold(d, r)
            if abs(crossing - want) > 1e-8:
                failures.append(f"(d={d}, r={r}): crossing {crossing!r} != {want!r}")
            if not 0.0 < crossing < 1.0:
                failures.append(f"(d={d}, r={r}): crossing outside (0, 1)")
    return _result("threshold_consistency", failures, {"cases": "d in 2..4, r < d"})


def suite_snac_two_local(seed: int = 0, n_p: int = 50) -> SuiteResult:
    """Two-local depolarizing construction against its closed forms.

    Checks, for the qutrit depolarizing family at uniform q:
      * the two-local output equals the entrywise matrix to 1e-12
        (independent oracle);
      * min eig of (id ⊗ Lambda_k) at k = 1/2 equals (5 - 8 p^2)/18;
      * at the window endpoint k = 1 it equals (2 - 8 p^2)/9;
      * the value is unchanged under Haar-random local Schmidt bases.
    """
    rng = np.random.default_rng(seed)
    failures = []
    q_uni = np.full(3, 1.0 / 3.0)
    for p in np.linspace(0.0, 1.0, n_p):
        ch = depolarizing(3, float(p))
        generic = analysis.two_local_output(ch, q_uni).matrix
        entrywise = analysis.two_local_depolarizing_matrix(float(p), q_uni)
        if np.max(np.abs(generic - entrywise)) > 1e-12:
            failures.append(f"p={p:.3f}: entrywise oracle mismatch")
        got_half = analysis.snac_min_eig(ch, q_uni, 0.5)
        if abs(got_half - (5.0 - 8.0 * p * p) / 18.0) > 1e-9:
            failures.append(f"p={p:.3f}: k=1/2 closed form violated ({got_half!r})")
        got_one = analysis.snac_min_eig(ch, q_uni, 1.0)
        if abs(got_one - (2.0 - 8.0 * p * p) / 9.0) > 1e-9:
            failures.append(f"p={p:.3f}: k=1 closed form violated ({got_one!r})")
    for trial in range(5):
        p = float(rng.uniform(0.2, 1.0))
        q = rng.dirichlet(np.ones(3))
        ch = depolarizing(3, p)
        base = analysis.snac_min_eig(ch, q, 0.5)
        u, v = haar_unitary(3, rng), haar_unitary(3, rng)
        amp = np.zeros(9, dtype=complex)
        for j in range(3):
            amp += np.sqrt(q[j]) * np.kron(u[:, j], v[:, j])
        rho = DensityMatrix(np.outer(amp, amp.conj()), (3, 3))
        rotated = apply_matrix(tensor(ch, ch), rho.matrix)
        val = float(np.linalg.eigvalsh(apply_id_lambda(DensityMatrix(rotated, (3, 3)), 0.5))[0])
        if abs(val - base) > 1e-9:
            failures.append(f"covariance trial {trial}: rotated value differs by {val - base:.2e}")
    return _result("snac_two_local", failures, {"n_p": n_p})


def suite_snac_minimizer(seed: int = 0, n_subdiv: int = 30) -> SuiteResult:
    """Uniform q minimizes the k = 1/2 certificate in its detection regime.

    At k = 1/2 the uniform point is the strict simplex minimizer exactly
    for p > 7/10 (below that the minimum sits on the simplex corners,
    where the closed form is (1-p)(5-2p)/18); the tested p values cover
    the regime where the certificate can fire.
    """
    failures = []
    uniform = tuple([Fraction(1, 3)] * 3)
    for p in (0.75, 0.8, 0.85, 0.9, 0.95):
        q_star, _ = analysis.snac_lattice_minimum(depolarizing(3, p), 0.5, n_subdiv)
        if q_star != uniform:
            failures.append(f"p={p}: minimizer {q_star} != uniform")
    return _result("snac_minimizer", failures, {"n_subdiv": n_subdiv})


def suite_certification_monotone(seed: int = 0) -> SuiteResult:
    """CERTIFIED_ABOVE at r implies CERTIFIED_ABOVE at every smaller r."""
    failures = []
    for d, p in ((3, 0.9), (4, 0.8), (4, 0.95)):
        rho = isotropic_state(d, p)
        certified = [
            certify_sn_above(rho, r).verdict is Verdict.CERTIFIED_ABOVE
            for r in range(1, d)
        ]
        for r_idx in range(1, len(certified)):
            if certified[r_idx] and not certified[r_idx - 1]:
                failures.append(f"d={d}, p={p}: certified at r={r_idx + 1} but not r={r_idx}")
    return _result("certification_monotone", failures, {})


def theorem_suite(seed: int = 0) -> dict[str, dict]:
    """Closure and counterexample checks on the breaking-channel family.

    t1: convex mixtures of two breaking Choi states stay undetected.
    t3: series concatenation of rank-<=2-Kraus channels stays undetected.
    t4: tensor products multiply Kraus ranks (2 x 2 -> 4 counterexample).
    p1: composing a breaking channel with arbitrary channels on either
        side stays undetected.
    p2: the canonical Kraus-rank bound agrees between a channel and its
        adjoint.
    """
    rng = np.random.default_rng(seed)
    w = witness(3, 2)
    report: dict[str, dict] = {}

    # t1 -- convexity
    c1 = choi(depolarizing(3, 0.3)).matrix
    c2 = choi(dephasing(3, 0.4)).matrix
    vals = []
    for weight in (0.0, 0.25, 0.5, 0.75, 1.0, float(rng.uniform()), float(rng.uniform())):
        vals.append(witness_value(w, weight * c1 + (1.0 - weight) * c2))
    report["t1"] = {
        "passed": all(v >= -EVIDENCE_TOL for v in vals),
        "min_witness_value": min(vals),
        "components": ["depolarizing(3, 0.3)", "dephasing(3, 0.4)"],
    }

    # t3 -- series concatenation
    t3_vals = []
    for _ in range(5):
        a = random_channel_with_kraus_rank(3, 2, rng)
        b = random_channel_with_kraus_rank(3, 2, rng)
        t3_vals.append(witness_value(w, choi(compose(a, b))))
    report["t3"] = {
        "passed": all(v >= -EVIDENCE_TOL for v in t3_vals),
        "min_witness_value": min(t3_vals),
    }

    # t4 -- tensor counterexample
    a = random_channel_with_kraus_rank(3, 2, rng)
    b = random_channel_with_kraus_rank(3, 2, rng)
    rank_a = max(linalg.matrix_rank(k) for k in a.kraus)
    rank_b = max(linalg.matrix_rank(k) for k in b.kraus)
    rank_t = max(linalg.matrix_rank(k) for k in tensor(a, b).kraus)
    report["t4"] = {
        "passed": rank_a == 2 and rank_b == 2 and rank_t == 4,
        "max_kraus_rank_a": rank_a,
        "max_kraus_rank_b": rank_b,
        "max_kraus_rank_tensor": rank_t,
    }

    # p1 -- composition with arbitrary channels
    s = depolarizing(3, 0.3)
    p1_vals = []
    for _ in range(5):
        f = random_channel(3, int(rng.integers(1, 10)), rng)
        p1_vals.append(witness_value(w, choi(compose(f, s))))   # s after f
        p1_vals.append(witness_value(w, choi(compose(s, f))))   # f after s
    report["p1"] = {
        "passed": all(v >= -EVIDENCE_TOL for v in p1_vals),
        "min_witness_value": min(p1_vals),
    }

    # p2 -- adjoint invariance of the Kraus-rank bound
    p2_cases = []
    for ch in (
        depolarizing(3, 0.7),
        random_channel_with_kraus_rank(3, 2, rng),
        random_channel(3, 4, rng),
    ):
        p2_cases.append(
            (sn_upper_bound_via_kraus(ch), sn_upper_bound_via_kraus(adjoint(ch)))
        )
    report["p2"] = {
        "passed": all(x == y for x, y in p2_cases),
        "bounds": p2_cases,
    }
    return report


def suite_theorems(seed: int = 0) -> SuiteResult:
    report = theorem_suite(seed)
    failures = [name for name, entry in report.items() if not entry["passed"]]
    return _result(
        "theorems",
        [f"{name} failed: {report[name]}" for name in failures],
        {k: v for k, v in report.items()},
    )


def suite_relations(seed: int = 0, d: int = 3, r: int = 2) -> SuiteResult:
    """Non-empty gap between entanglement breaking and r-breaking, certified at the midpoint."""
    rep = analysis.relation_report(d, r)
    failures = []
    if abs(rep.eb_threshold - rep.eb_analytic) > 1e-8:
        failures.append(f"EB threshold {rep.eb_threshold!r} != {rep.eb_analytic!r}")
    if abs(rep.snbc_threshold - rep.snbc_analytic) > 1e-8:
        failures.append(f"breaking threshold {rep.snbc_threshold!r} != {rep.snbc_analytic!r}")
    if r >= 2:
        if rep.gap is None:
            failures.append("expected a non-empty gap")
        else:
            if rep.pt_min_eig_at_midpoint >= 0:
                failures.append("PPT not violated at the gap midpoint")
            if rep.witness_value_at_midpoint < -EVIDENCE_TOL:
                failures.append("witness fired inside the breaking region")
    return _result("relations", failures, rep.to_dict())


def suite_identity_sweep(seed: int = 0) -> SuiteResult:
    """Custom-channel sweep sanity: the identity channel reads -1/2 everywhere."""
    records = analysis.snbc_witness_sweep("custom", 3, 2, grid=5, channel=identity_channel(3))
    failures = [
        f"parameter {rec.parameter}: value {rec.value!r}"
        for rec in records
        if abs(rec.value - (-0.5)) > 1e-12
    ]
    return _result("identity_sweep", failures, {"grid": 5})


SUITES = {
    "kron_rank": suite_kron_rank,
    "eig_reconstruction": suite_eig_reconstruction,
    "partial_ops": suite_partial_ops,
    "schmidt_states": suite_schmidt_states,
    "channel_axioms": suite_channel_axioms,
    "witness_nonneg": suite_witness_nonneg,
    "lambda_window": suite_lambda_window,
    "threshold_consistency": suite_threshold_consistency,
    "snac_two_local": suite_snac_two_local,
    "snac_minimizer": suite_snac_minimizer,
    "certification_monotone": suite_certification_monotone,
    "theorems": suite_theorems,
    "t4": lambda seed=0: _t4_only(seed),
    "relations": suite_relations,
    "identity_sweep": suite_identity_sweep,
}


def _t4_only(seed: int = 0) -> SuiteResult:
    entry = theorem_suite(seed)["t4"]
    failures = [] if entry["passed"] else [f"counterexample missing: {entry}"]
    return _result("t4", failures, entry)


def run_suites(names=None, seed: int = 0, **kwargs) -> list[SuiteResult]:
    """Run the named suites (all by default) and return their results in order."""
    if names is None:
        names = [n for n in SUITES if n != "t4"]  # t4 is a focused alias into theorems
    results = []
    for name in names:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
        fn = SUITES[name]
        if name == "relations":
            results.append(fn(seed=seed, d=kwargs.get("d", 3), r=kwargs.get("r", 2)))
        else:
            results.append(fn(seed=seed))
    return results
