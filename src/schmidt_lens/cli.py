"""Command line front end.

Subcommands::

    schmidt-lens sweep      witness value of a channel family over a parameter grid
    schmidt-lens threshold  bisected breaking threshold vs the closed form
    schmidt-lens snac       two-local annihilation certificate sweep
    schmidt-lens verify     run the named property suites

Exit codes: 0 success, 1 verification or numerical failure, 2 usage
error. Reports go to --output-path when given, else stdout. JSON
numbers carry 17 significant digits so stored reports are bit-stable;
CSV output uses the same float rendering.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from importlib import resources

from . import analysis, suites
from .channels import channel_from_json, check_kraus_stack
from .errors import SchmidtLensError

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
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


class _UsageError(Exception):
    """Bad command-line input, found after parsing; ``main`` exits 2 on it."""


def _load_channel(path: str, d: int):
    """The square d -> d channel stored in ``path``; raises _UsageError otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            channel = channel_from_json(fh.read())
    except OSError as exc:
        raise _UsageError(f"cannot read channel file: {exc}") from exc
    except ValueError as exc:
        raise _UsageError(f"malformed channel file: {exc}") from exc
    if channel.d_in != d or channel.d_out != d:
        raise _UsageError(
            f"channel file is {channel.d_in}->{channel.d_out}, expected square d={d}"
        )
    return channel


def _check_budgets(d: int, grid: int | None = None) -> None:
    """Raise _UsageError for a --d or a parameter grid over its budget."""
    try:
        check_kraus_stack(d)
        if grid is not None:
            analysis.check_grid_size(grid)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def cmd_sweep(args) -> int:
    if args.grid < 2:
        raise _UsageError("--grid must be at least 2")
    if not 1 <= args.r < args.d:
        raise _UsageError("need 1 <= r < d")
    _check_budgets(args.d, args.grid)
    channel = None
    family = args.family
    if args.channel_file is not None:
        family = "custom"
        channel = _load_channel(args.channel_file, args.d)
    elif family == "custom":
        raise _UsageError("custom family needs --channel-file")
    records = analysis.snbc_witness_sweep(family, args.d, args.r, args.grid, channel=channel)
    if args.output == "json":
        payload = {
            "command": "sweep",
            "family": family,
            "d": args.d,
            "r": args.r,
            "grid": args.grid,
            "seed": args.seed,
            "records": [
                {"parameter": rec.parameter, "value": rec.value, "verdict": rec.verdict.value}
                for rec in records
            ],
        }
        _emit(render_json(payload) + "\n", args.output_path)
    else:
        lines = ["parameter,value,verdict"]
        lines += [
            f"{_fmt_float(rec.parameter)},{_fmt_float(rec.value)},{rec.verdict.value}"
            for rec in records
        ]
        _emit("\n".join(lines) + "\n", args.output_path)
    return 0


def cmd_threshold(args) -> int:
    if not 1 <= args.r < args.d:
        raise _UsageError("need 1 <= r < d")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise _UsageError("--tol must be finite and positive")
    _check_budgets(args.d)
    threshold = analysis.snbc_witness_threshold(args.family, args.d, args.r, tol=args.tol)
    exact = analysis.FAMILIES[args.family].crossing(args.d, args.r)
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
    if args.p_grid < 2 or args.q_grid < 2:
        raise _UsageError("--p-grid and --q-grid must be at least 2")
    if not 0.0 < args.k <= 1.0:
        raise _UsageError("--k must lie in (0, 1]")
    _check_budgets(args.d)
    channel = None
    if args.channel_file is not None:
        channel = _load_channel(args.channel_file, args.d)
    try:
        analysis.check_snac_size(args.d, args.p_grid, args.q_grid, channel)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    records = analysis.snac_sweep(args.d, args.k, args.p_grid, args.q_grid, channel)

    def reference(p: float) -> float:
        # the k = 1 closed form of the qutrit depolarizing study, reported
        # whatever k, d or channel is given: kept for the output contract
        return (2.0 - 8.0 * p * p) / 9.0

    if args.output == "json":
        payload = {
            "command": "snac",
            "d": args.d,
            "k": args.k,
            "p_grid": args.p_grid,
            "q_grid": args.q_grid,
            "seed": args.seed,
            "records": [
                {
                    "p": rec.parameter,
                    "min_eig": rec.value,
                    "formula": reference(rec.parameter),
                    "q_star": [str(f) for f in rec.q_star],
                }
                for rec in records
            ],
        }
        _emit(render_json(payload) + "\n", args.output_path)
    else:
        lines = ["p,min_eig,formula,q_star"]
        for rec in records:
            q_star = " ".join(str(f) for f in rec.q_star)
            lines.append(
                f"{_fmt_float(rec.parameter)},{_fmt_float(rec.value)},"
                f"{_fmt_float(reference(rec.parameter))},{q_star}"
            )
        _emit("\n".join(lines) + "\n", args.output_path)
    return 0


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise _UsageError("--seed must be non-negative")
    if not 1 <= args.r < args.d:
        raise _UsageError("need 1 <= r < d for the relations suite")
    _check_budgets(args.d)
    names = [args.suite] if args.suite else None
    results = suites.run_suites(names, seed=args.seed, d=args.d, r=args.r)
    all_passed = all(res.passed for res in results)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail}")
        if res.name in ("t4", "relations") and res.passed:
            print(f"        {render_json(res.data)}")
    print(f"verify: {'all suites passed' if all_passed else 'FAILURES present'}")
    if not all_passed:
        failed = ", ".join(res.name for res in results if not res.passed)
        print(f"error: suites failed: {failed}", file=sys.stderr)
    if args.output_path is not None:
        payload = {
            "command": "verify",
            "seed": args.seed,
            "passed": all_passed,
            "suites": [
                {"name": res.name, "passed": res.passed, "detail": res.detail,
                 "data": _jsonable(res.data)}
                for res in results
            ],
        }
        _emit(render_json(payload) + "\n", args.output_path)
    return 0 if all_passed else 1


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


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
    p_thr.add_argument("--tol", type=float, default=1e-9)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (_UsageError, FileNotFoundError) as exc:
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
