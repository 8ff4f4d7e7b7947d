"""Layered benchmark of the schmidt-lens CLI.

Run from the repository root:

    python3 perfbench/run.py --workload snac-lattice --seed 1 --seconds 30 --trace 0

The workload's command lines are run in this process through
``schmidt_lens.cli.main(argv)``, pass after pass, until ``--seconds`` have
passed, and every report is checked. With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of ``tracing.py`` instead. Lines before it
give the run metadata and a readable summary. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 7
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "evals_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None,
                        help="with --trace 1, also write the raw spans here as JSON lines")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def set_blas_threads() -> tuple[int, int]:
    """Give BLAS every processor but the one driving the CLI; must precede numpy's import."""
    nproc = len(os.sched_getaffinity(0))
    blas = max(1, nproc - 1)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(blas)
    return nproc, blas


def import_package():
    """Import schmidt_lens from this checkout's src/, or exit non-zero if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import schmidt_lens.cli
    except ImportError as exc:
        sys.exit(f"error: cannot import schmidt_lens from {SRC}: {exc}")
    if SRC not in Path(schmidt_lens.__file__).resolve().parents:
        sys.exit(f"error: schmidt_lens was imported from {schmidt_lens.__file__}, not {SRC}")
    return schmidt_lens.cli


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds a fresh interpreter takes to import the package and build the inputs."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_pass(cli, commands):
    """Run every command once; returns the wall time and each command's result."""
    from checks import CommandResult

    results = []
    start = time.perf_counter()
    for cmd in commands:
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(cmd.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a failed command, not a crashed benchmark
                error = repr(exc)
        results.append(CommandResult(rc, out.getvalue(), err.getvalue(), error))
    return time.perf_counter() - start, results


class Tally:
    """Check outcomes over all passes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: dict[str, str] = {}  # failures other than the known defect
        self.known: dict[str, str] = {}

    def add(self, outcomes) -> None:
        for outcome in outcomes:
            self.attempted += 1
            if outcome.failed:
                self.failed += 1
                bucket = self.known if outcome.known_defect else self.wrong
                bucket[outcome.unit] = outcome.problem


def timed_passes(cli, workload, expect, tally, seconds, tracer=None):
    """Passes until ``seconds`` have elapsed (at least one); returns their wall times."""
    from checks import check

    times = []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        if tracer is None:
            dt, results = run_pass(cli, workload.commands)
        else:
            with tracer.installed():
                dt, results = run_pass(cli, workload.commands)
        times.append(dt)
        for cmd, res in zip(workload.commands, results):
            tally.add(check(cmd, res, expect))
    return times


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def metadata(args, nproc, blas_threads, passes):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "blas_threads_env": list(BLAS_THREAD_VARS),
        "nproc": nproc,
        "benchmark_threads": 1,
        "schmidt_lens_threads_env": os.environ.get("SCHMIDT_LENS_THREADS"),
        "passes": passes,
    }


def _commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def main(argv=None) -> int:
    nproc, blas_threads = set_blas_threads()
    args = parse_args(argv)
    cli = import_package()
    import workloads
    from checks import Expectations

    workload = workloads.build(args.workload, args.seed)
    expect = Expectations(ROOT)
    for cmd in workload.commands:  # build the reference tables before timing
        if cmd.kind == "snac":
            expect.snac_table(**cmd.params)
    tally = Tally()

    if args.trace:
        from tracing import PER_LAYER, Tracer, layer_metrics

        plain = timed_passes(cli, workload, expect, tally, args.seconds / 2)
        tracer = Tracer()
        traced = timed_passes(cli, workload, expect, tally, args.seconds / 2, tracer)
        overhead = statistics.median(traced) - statistics.median(plain)
        metrics = layer_metrics(tracer, len(traced), workload.evals_per_pass, overhead)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        if args.spans_out:
            tracer.write_spans(args.spans_out)
        passes = {"untraced": len(plain), "traced": len(traced)}
    else:
        times = timed_passes(cli, workload, expect, tally, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup = measure_setup(args.workload, args.seed)
        q1, q3 = quartiles(times)
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(times),
            "evals_per_s": workload.evals_per_pass * len(times) / sum(times),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        passes = len(times)
        print(f"pass_s quartiles {q1:.6f} {q3:.6f} s over {len(times)} passes: "
              + " ".join(f"{t:.4f}" for t in times))
        print(f"setup_s over {len(setup)} fresh interpreters: "
              + " ".join(f"{t:.4f}" for t in setup))

    fail_ratio = tally.failed / tally.attempted
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} fail_ratio = {fail_ratio:.6g} "
          f"({tally.failed} of {tally.attempted} checks)")
    for unit, problem in sorted(tally.known.items()):
        print(f"known defect: {unit}: {problem}")
    for unit, problem in sorted(tally.wrong.items()):
        print(f"FAILED: {unit}: {problem}")
    print("meta " + json.dumps(metadata(args, nproc, blas_threads, passes)))
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
