"""Command line front end.

Subcommands::

    schmidt-lens sweep      witness value of a channel family over a parameter grid
    schmidt-lens threshold  bisected breaking threshold vs the closed form
    schmidt-lens snac       two-local annihilation certificate sweep
    schmidt-lens verify     run the named property suites

Exit codes: 0 success, 1 verification or numerical failure, 2 usage
error: among others a size outside its budget (``errors.BudgetError``)
and an --output-path the report cannot be written to. Reports go to
--output-path when given, else stdout. JSON numbers carry 17 significant
digits so stored reports are bit-stable; CSV output uses the same float
rendering.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from fractions import Fraction
from importlib import resources

from . import analysis, suites
from .channels import channel_from_json, check_kraus_stack
from .errors import BudgetError, SchmidtLensError

THRESHOLD_TOL = 1e-8


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats, insertion-ordered keys."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(key))}: {render_json(val, indent + 1)}"
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{render_json(val, indent + 1)}" for val in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, Fraction):
        return json.dumps(str(obj))
    return json.dumps(obj)


def report_schema() -> dict:
    """The JSON Schema document that all CLI JSON reports validate against."""
    text = resources.files("schmidt_lens").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


def _emit(text: str, path: str | None) -> None:
    """Write ``text`` to ``path``, or to stdout; _UsageError if ``path`` cannot be written."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write report: {exc}") from exc


class _UsageError(Exception):
    """Bad command-line input, found after parsing; ``main`` exits 2 on it."""


def _load_channel(path: str, d: int):
    """The square d -> d channel stored in ``path``; raises _UsageError otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            channel = channel_from_json(fh.read())
    except OSError as exc:
        raise _UsageError(f"cannot read channel file: {exc}") from exc
    except ValueError as exc:  # a non-UTF-8 file too
        raise _UsageError(f"malformed channel file: {exc}") from exc
    if channel.d_in != d or channel.d_out != d:
        raise _UsageError(
            f"channel file is {channel.d_in}->{channel.d_out}, expected square d={d}"
        )
    return channel


def _emit_records(args, meta: dict, records: list[dict]) -> None:
    """Write ``records`` per ``args.output``.

    JSON is ``meta``, the seed and the records. CSV is a header of the
    record keys, then one line per record: strings as they are, a list
    joined with spaces, numbers at 17 significant digits.
    """
    if args.output == "json":
        text = render_json({**meta, "seed": args.seed, "records": records})
    else:
        def cell(value) -> str:
            if isinstance(value, str):
                return value
            return " ".join(value) if isinstance(value, list) else _fmt_float(value)

        lines = [",".join(records[0])]
        lines += [",".join(cell(value) for value in rec.values()) for rec in records]
        text = "\n".join(lines)
    _emit(text + "\n", args.output_path)


def cmd_sweep(args) -> int:
    if not 1 <= args.r < args.d:
        raise _UsageError("need 1 <= r < d")
    check_kraus_stack(args.d)
    channel = None
    family = args.family
    if args.channel_file is not None:
        family = "custom"
        channel = _load_channel(args.channel_file, args.d)
    elif family == "custom":
        raise _UsageError("custom family needs --channel-file")
    records = analysis.snbc_witness_sweep(family, args.d, args.r, args.grid, channel=channel)
    meta = {"command": "sweep", "family": family, "d": args.d, "r": args.r, "grid": args.grid}
    _emit_records(args, meta, [
        {"parameter": rec.parameter, "value": rec.value, "verdict": rec.verdict.value}
        for rec in records
    ])
    return 0


def cmd_threshold(args) -> int:
    if not 1 <= args.r < args.d:
        raise _UsageError("need 1 <= r < d")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise _UsageError("--tol must be finite and positive")
    check_kraus_stack(args.d)
    threshold = analysis.snbc_witness_threshold(args.family, args.d, args.r, tol=args.tol)
    exact = analysis.FAMILIES[args.family](args.d, args.r)
    payload = {
        "family": args.family,
        "d": args.d,
        "r": args.r,
        "threshold": threshold,
        "analytic": exact,
        "abs_error": abs(threshold - exact),
    }
    _emit(render_json(payload) + "\n", args.output_path)
    if abs(threshold - exact) > THRESHOLD_TOL:
        print(
            f"error: bisected threshold deviates from the closed form by "
            f"{abs(threshold - exact):.3e}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_snac(args) -> int:
    if args.d < 2:
        raise _UsageError("--d must be at least 2")
    if not 0.0 < args.k <= 1.0:
        raise _UsageError("--k must lie in (0, 1]")
    check_kraus_stack(args.d)
    channel = None
    if args.channel_file is not None:
        channel = _load_channel(args.channel_file, args.d)
    records = analysis.snac_sweep(args.d, args.k, args.p_grid, args.q_grid, channel)
    meta = {"command": "snac", "d": args.d, "k": args.k, "p_grid": args.p_grid,
            "q_grid": args.q_grid}
    _emit_records(args, meta, [
        {
            "p": rec.parameter,
            "min_eig": rec.value,
            # the k = 1 closed form of the qutrit depolarizing study, reported
            # whatever k, d or channel is given: kept for the output contract
            "formula": (2.0 - 8.0 * rec.parameter * rec.parameter) / 9.0,
            "q_star": [str(f) for f in rec.q_star],
        }
        for rec in records
    ])
    return 0


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise _UsageError("--seed must be non-negative")
    if not 1 <= args.r < args.d:
        raise _UsageError("need 1 <= r < d for the relations suite")
    check_kraus_stack(args.d)
    names = [args.suite] if args.suite else None
    results = suites.run_suites(names, seed=args.seed, d=args.d, r=args.r)
    all_passed = all(res.passed for res in results)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail}")
        if res.name in ("t4", "relations") and res.passed:
            print(f"        {render_json(res.data)}")
    print(f"verify: {'all suites passed' if all_passed else 'FAILURES present'}")
    if args.output_path is not None:
        payload = {
            "command": "verify",
            "seed": args.seed,
            "passed": all_passed,
            "suites": [asdict(res) for res in results],
        }
        _emit(render_json(payload) + "\n", args.output_path)
    if not all_passed:  # after the report, so an unwritable path is the one error line
        failed = ", ".join(res.name for res in results if not res.passed)
        print(f"error: suites failed: {failed}", file=sys.stderr)
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schmidt-lens",
        description="Schmidt-number breaking and annihilation analysis of quantum channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0,
                       help="RNG seed (accepted by every command for a uniform contract)")
        p.add_argument("--output-path", default=None, help="write the report here instead of stdout")

    p_sweep = sub.add_parser("sweep", help="witness sweep over a channel family")
    p_sweep.add_argument("--family", choices=[*analysis.FAMILIES, "custom"],
                         default="depolarizing")
    p_sweep.add_argument("--channel-file", default=None,
                         help="JSON Kraus file; implies the custom family")
    p_sweep.add_argument("--d", type=int, default=3)
    p_sweep.add_argument("--r", type=int, default=2)
    p_sweep.add_argument("--grid", type=int, default=101)
    p_sweep.add_argument("--output", choices=["csv", "json"], default="csv")
    common(p_sweep)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_thr = sub.add_parser("threshold", help="bisected breaking threshold vs closed form")
    p_thr.add_argument("--family", choices=list(analysis.FAMILIES), required=True)
    p_thr.add_argument("--d", type=int, required=True)
    p_thr.add_argument("--r", type=int, required=True)
    p_thr.add_argument("--tol", type=float, default=analysis.BISECTION_TOL)
    common(p_thr)
    p_thr.set_defaults(fn=cmd_threshold)

    p_snac = sub.add_parser("snac", help="two-local annihilation certificate sweep")
    p_snac.add_argument("--d", type=int, default=3)
    p_snac.add_argument("--k", type=float, default=0.5)
    p_snac.add_argument("--p-grid", type=int, default=21)
    p_snac.add_argument("--q-grid", type=int, default=30)
    p_snac.add_argument("--channel-file", default=None,
                        help="JSON Kraus file replacing the depolarizing family")
    p_snac.add_argument("--output", choices=["csv", "json"], default="csv")
    common(p_snac)
    p_snac.set_defaults(fn=cmd_snac)

    p_ver = sub.add_parser("verify", help="run property suites")
    p_ver.add_argument("--suite", default=None, choices=sorted(suites.SUITES),
                       help="run a single suite instead of all")
    p_ver.add_argument("--d", type=int, default=3, help="dimension for the relations suite")
    p_ver.add_argument("--r", type=int, default=2, help="rank for the relations suite")
    common(p_ver)
    p_ver.set_defaults(fn=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: built on the first call, once per process.

    ``parse_args`` returns a fresh namespace each call, so nothing carries
    from one command to the next. The ``--family`` and ``--suite`` choices are
    read off ``analysis.FAMILIES`` and ``suites.SUITES`` on that first call.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (_UsageError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SchmidtLensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # keep the exit-code contract: only 0, 1, 2
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
