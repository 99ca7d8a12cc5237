"""Command-line front end.

Every operation of the library is reachable as a subcommand; every
subcommand honors --json and emits a Report whose checks carry both
sides of each comparison and the tolerance actually applied. Exit codes:
0 success, 1 usage error, 2 numerical failure (pole, bad
domain, floating-point overflow), 3 verification-suite failure.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import re
import sys
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import euler_product, length_spectrum, verify, zeta_factors
from .errors import HypzetaError
from .scattering import ScatteringModel, modular_model, trivial_model
from .surface import (Signature, area, constants, geometric_constants, order_R, order_Z,
                      parse_signature)

__all__ = ["run", "main"]


_DEFAULT_MAX_TRACE = 40
# most points an `orders` table spans
_MAX_ORDER_POINTS = 100_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a token that starts -<digit> or -.<digit>, such as -0.7,0.5, is a
        # value; argparse's own negative-number pattern has no comma in it
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # argparse exits with 2 by default; we use 1
        raise UsageError(message)


def _complex_json(value):
    """json's `default` hook: a complex as {"re": ..., "im": ...}."""
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


@dataclass
class Report:
    command: str
    inputs: dict
    results: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def add(self, name, value):
        self.results.append({"name": name, "value": value})

    def to_dict(self):
        return {
            "command": self.command,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "inputs": self.inputs,
            "results": self.results,
            "checks": self.checks,
            "notes": self.notes,
        }


def _print_human(report: Report, stream=None):
    stream = stream if stream is not None else sys.stdout
    print(f"[{report.command}]", file=stream)
    for key, value in report.inputs.items():
        print(f"  input {key} = {value}", file=stream)
    for item in report.results:
        print(f"  {item['name']} = {item['value']}", file=stream)
    if report.checks:
        failed = [c for c in report.checks if not c["passed"]]
        print(f"  checks: {len(report.checks) - len(failed)}/{len(report.checks)} passed", file=stream)
        for c in failed:
            at = "" if c["s"] is None else f" at s={c['s']}"
            print(
                f"    FAIL {c['name']}{at}: lhs={c['lhs']} rhs={c['rhs']} "
                f"|diff|={c['abs_diff']} tol={c['tolerance']}",
                file=stream,
            )
    for note in report.notes:
        print(f"  note: {note}", file=stream)


def _parse_complex(text: str) -> complex:
    """argparse type of --s and --z-value: a finite complex number as RE,IM."""
    parts = text.split(",")
    try:
        if len(parts) in (1, 2):
            value = complex(float(parts[0]), float(parts[1]) if len(parts) == 2 else 0.0)
            if cmath.isfinite(value):
                return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite complex number as RE,IM (got {text!r})")


def _max_trace(text: str) -> int:
    """argparse type of --max-trace: an integer trace bound of at least 3."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 3:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 3 (got {text!r})")
    return value


def _model_for(sig: Signature) -> ScatteringModel:
    """The bundled model with sig's cusp count: trivial for 0, modular for 1."""
    if sig.n == 0:
        return trivial_model()
    if sig.n == 1:
        return modular_model()
    raise UsageError(
        f"signature {sig.label()} has {sig.n} cusps, but the CLI has scattering "
        "models for 0 cusps (trivial) and 1 cusp (modular)"
    )


def _surface_report(args) -> tuple[Signature, ScatteringModel, Report]:
    """Signature, its model and a Report naming both, and s where
    args.command takes one."""
    sig = parse_signature(args.signature)
    model = _model_for(sig)
    report = Report(args.command, {"signature": sig.label(), "group": model.label})
    if "s" in args:
        report.inputs["s"] = args.s
    return sig, model, report


def _spectrum_for(args, report: Report):
    cache = args.cache
    if cache:
        cached = length_spectrum.read_cache(cache, args.max_trace)
        if cached is not None:
            report.inputs["cache_status"] = "hit"
            return cached
    spectrum = length_spectrum.enumerate_spectrum(args.max_trace)
    if cache:
        try:
            length_spectrum.write_cache(spectrum, cache)
        except OSError as exc:
            raise UsageError(
                f"cannot write the spectrum cache {cache!r}: {exc.strerror or exc}") from None
        report.inputs["cache_status"] = "miss"
    return spectrum


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its populated Report
# ---------------------------------------------------------------------------


def _cmd_orders(args) -> Report:
    sig, model, report = _surface_report(args)
    lo, hi = args.from_point, args.to_point
    if lo > hi:
        raise UsageError("--from must not exceed --to")
    if hi - lo >= _MAX_ORDER_POINTS:
        raise UsageError(
            f"--from to --to spans {hi - lo + 1:,} points, more than {_MAX_ORDER_POINTS:,}")
    report.inputs.update({"from": lo, "to": hi})
    table = []
    for point in range(lo, hi + 1):
        table.append({"point": point, "order_R": order_R(sig, model.n0, point),
                      "order_Z": order_Z(sig, model.n0, point)})
        if point < 0:
            half = point + 0.5
            table.append({"point": half, "order_Z": order_Z(sig, model.n0, half)})
    table.sort(key=lambda row: row["point"])
    report.add("orders", table)
    return report


def _cmd_kappa(args) -> Report:
    sig, model, report = _surface_report(args)
    value = zeta_factors.kappa(sig, model, args.s)
    report.add("kappa", value.value)
    report.add("log_kappa", value.log_value)
    return report


def _cmd_det_laplacian(args) -> Report:
    sig, model, report = _surface_report(args)
    s, z_value = args.s, args.z_value
    if z_value is not None:
        if args.max_trace is not None or args.cache is not None:
            raise UsageError(
                "--z-value replaces the Euler product; it takes neither "
                "--max-trace nor --cache"
            )
        report.inputs.update({"z_value": z_value, "z_source": "probe"})
    else:
        if sig != Signature(0, 1, (2, 3)):
            raise UsageError(f"the Euler product is the modular surface's (0;1;2,3); "
                             f"give Z(s) on {sig.label()} with --z-value")
        if args.max_trace is None:
            args.max_trace = _DEFAULT_MAX_TRACE
        spectrum = _spectrum_for(args, report)
        truncated = euler_product.selberg_Z(spectrum, s)
        z_value = truncated.value
        report.inputs["z_source"] = f"euler_product(max_trace={spectrum.max_trace})"
        report.add("Z", z_value)
        report.add("Z_abs_error_estimate", truncated.abs_error_estimate)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = zeta_factors.det_laplacian(sig, model, s, z_value)
    for w in caught:
        report.notes.append(str(w.message))
    report.add("det_laplacian", value)
    return report


def _cmd_ruelle_leading(args) -> Report:
    sig, model, report = _surface_report(args)
    order, coeff = zeta_factors.ruelle_leading_at_zero(sig, model)
    report.add("order", order)
    report.add("coefficient", coeff)
    report.add("abs_coefficient", abs(coeff))
    return report


def _cmd_constants(args) -> Report:
    """The determinant constants; past one cusp, the geometric ones only."""
    sig = parse_signature(args.signature)
    report = Report("constants", {"signature": sig.label()})
    report.add("area", area(sig))
    report.add("area_over_2pi", float(sig.normalized_area()))
    try:
        model = _model_for(sig)
    except UsageError as exc:
        report.notes.append(f"{exc}; reporting geometric data only")
        for name, value in zip(("B", "C"), geometric_constants(sig)):
            report.add(name, value)
        return report
    report.inputs["group"] = model.label
    report.add("A", model.A)
    c = constants(sig, model)
    for name in ("B", "C", "D", "log_E"):
        report.add(name, getattr(c, name))
    report.add("E", zeta_factors._exp(c.log_E, math.exp))
    report.add("c1", zeta_factors.c1(sig, model))
    report.add("c0", zeta_factors.c0(sig, model))
    return report


def _cmd_spectrum(args) -> Report:
    report = Report("spectrum", {"max_trace": args.max_trace})
    spectrum = _spectrum_for(args, report)
    rows = [
        {"trace": int(trace), "count": int(count), "length": length, "norm": norm}
        for trace, count, norm, length in spectrum.columns.T.tolist()
    ]
    report.add("class_count", spectrum.class_count)
    report.add("shells", rows)
    return report


def _print_spectrum_csv(report: Report):
    """The shells as CSV: a `trace,count,length,norm` header, then one row
    per shell with each float written as its repr."""
    shells = next(item["value"] for item in report.results if item["name"] == "shells")
    lines = ["trace,count,length,norm"]
    lines += (f"{row['trace']},{row['count']},{row['length']!r},{row['norm']!r}" for row in shells)
    print("\n".join(lines))


def _cmd_euler(args) -> Report:
    """`zeta` and `ruelle`: the truncated Euler product named by args.command."""
    report = Report(args.command, {"s": args.s, "max_trace": args.max_trace})
    spectrum = _spectrum_for(args, report)
    if args.command == "zeta":
        truncated = euler_product.selberg_Z(spectrum, args.s)
    else:
        report.inputs["method"] = args.method
        truncated = euler_product.ruelle_R(spectrum, args.s, method=args.method)
    report.add("value", truncated.value)
    report.add("abs_error_estimate", truncated.abs_error_estimate)
    report.add("k_cutoff_used", truncated.k_cutoff_used)
    report.add("trace_tail_error", truncated.trace_tail_error)
    if truncated.abs_error_estimate > 0.01 * abs(truncated.value):
        report.notes.append(
            "truncation estimate exceeds 1% of the value; increase "
            "--max-trace or move s away from the convergence boundary"
        )
    return report


def _cmd_verify(args) -> Report:
    outcome = verify.run_verify()
    report = Report("verify", {})
    for name, checks in outcome["sections"].items():
        report.checks.extend({**c, "name": f"{name}: {c['name']}"} for c in checks)
    report.add("total_checks", outcome["total_checks"])
    report.add("failed_checks", outcome["failed_checks"])
    return report


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _subcommand(sub, name, handler, help, surface=False, s=False, euler=False):
    """Add subcommand `name`, run by handler, with --json and the common
    flags asked for; returns its parser for the subcommand's own flags."""
    sp = sub.add_parser(name, help=help)
    sp.set_defaults(handler=handler)
    sp.add_argument("--json", action="store_true", help="emit the report as JSON")
    if surface:
        sp.add_argument("--signature", required=True,
                        help="surface as g,n,m1:m2:...:mv; 0 cusps take the trivial "
                             "scattering model, 1 cusp the modular one")
    if s:
        sp.add_argument("--s", type=_parse_complex, required=True,
                        help="evaluation point as RE,IM")
    if euler:
        sp.add_argument("--max-trace", type=_max_trace, default=_DEFAULT_MAX_TRACE,
                        dest="max_trace",
                        help=f"length-spectrum completeness bound (default {_DEFAULT_MAX_TRACE})")
        sp.add_argument("--cache", help="CSV spectrum cache path")
    return sp


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: each parse_args call
    fills a fresh namespace, so one run leaves nothing behind for the next."""
    parser = _Parser(prog="hypzeta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    orders = _subcommand(sub, "orders", _cmd_orders, "order tables for Z and R", surface=True)
    orders.add_argument("--from", type=int, required=True, dest="from_point")
    orders.add_argument("--to", type=int, required=True, dest="to_point")

    _subcommand(sub, "kappa", _cmd_kappa, "functional-equation multiplier", surface=True, s=True)

    det = _subcommand(sub, "det-laplacian", _cmd_det_laplacian, "closed-form determinant value",
                      surface=True, s=True, euler=True)
    det.add_argument("--z-value", type=_parse_complex, dest="z_value",
                     help="probe value for Z(s) as RE,IM (replaces the Euler product; "
                          "not with --max-trace or --cache)")
    # max_trace None marks --max-trace as not given, which --z-value requires
    det.set_defaults(max_trace=None)

    _subcommand(sub, "ruelle-leading", _cmd_ruelle_leading, "order and leading coefficient at 0",
                surface=True)
    _subcommand(sub, "constants", _cmd_constants, "area, A, B, C, D, E, c0, c1", surface=True)

    spectrum = _subcommand(sub, "spectrum", _cmd_spectrum, "geodesic length spectrum table")
    spectrum.add_argument("--max-trace", type=_max_trace, required=True, dest="max_trace")
    spectrum.add_argument("--cache", help="CSV spectrum cache path")

    _subcommand(sub, "zeta", _cmd_euler, "truncated Selberg product (Re s > 1)", s=True,
                euler=True)
    ruelle = _subcommand(sub, "ruelle", _cmd_euler, "truncated Ruelle product (Re s > 1)",
                         s=True, euler=True)
    ruelle.add_argument("--method", choices=("direct", "quotient"), default="direct",
                        help="direct product (default), or Z(s)/Z(s+1) as a cross-check")

    _subcommand(sub, "verify", _cmd_verify, "run the full identity suite")

    return parser


def _fail(argv, exc: Exception, code: int, label: str, kind: str) -> int:
    """Report a failed run on stderr, and as a JSON error under --json."""
    print(f"{label}: {exc}", file=sys.stderr)
    if argv is not None and "--json" in argv:
        print(json.dumps({"error": {"kind": kind, "message": str(exc)}}))
    return code


def run(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        report = args.handler(args)
    except (UsageError, ValueError) as exc:
        return _fail(argv, exc, 1, "usage error", "usage")
    except (HypzetaError, ArithmeticError) as exc:
        return _fail(argv, exc, 2, "numerical failure", type(exc).__name__)
    if args.json:
        print(json.dumps(report.to_dict(), default=_complex_json))
    elif report.command == "spectrum":
        _print_spectrum_csv(report)
    else:
        _print_human(report)
    if not all(c["passed"] for c in report.checks):
        print("verification suite FAILED", file=sys.stderr)
        return 3
    return 0


def main():  # console-script entry point
    sys.exit(run(sys.argv[1:]))
