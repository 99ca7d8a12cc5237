"""Independent checks of every op's outputs, run after the timed region.

None of these share code with hypzeta: the factors are compared with
mpmath, and the Euler products are recomputed over a length spectrum that
is counted here by a different algorithm (all words by trace, then Moebius-
style removal of proper powers) instead of the program's Lyndon-word walk.

Each check returns None when the op's outputs pass, else (kind, reason).
The kind is "mismatch" for a finite value that disagrees with its oracle,
and "untyped" for a non-finite value: like a raw exception, that is a
failure the program did not signal with a HypzetaError.
"""

from __future__ import annotations

import cmath
import json
import math
from collections import defaultdict

import mpmath as mp

from workloads import EULER_COMMANDS

# Magnitudes are compared in log space with these tolerances, relative to
# max(1, |reference|): the double-gamma product is good to ~1e-11 and the
# Richardson limit of phi to ~1e-9 at the default cutoffs.
LOG_TOL = 1e-8
PHI_TOL = 1e-7
EULER_TOL = 1e-9


def _finite(values) -> bool:
    return all(math.isfinite(x) for x in values)


def _rel(diff: float, ref: float) -> float:
    return abs(diff) / max(1.0, abs(ref))


Failure = tuple[str, str]


def _exit_failure(rc: int) -> Failure:
    """Exit 2 is the CLI's HypzetaError, exit 3 a failed verify suite."""
    kind = {2: "typed", 3: "mismatch"}.get(rc, "untyped")
    return kind, f"exit code {rc}"


def check_verify(out: dict) -> Failure | None:
    if out["rc"] != 0:
        return _exit_failure(out["rc"])
    report = json.loads(out["stdout"])
    results = {r["name"]: r["value"] for r in report["results"]}
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    if failed or results["failed_checks"] != 0:
        return "mismatch", f"failed checks: {failed[:3]}"
    if results["total_checks"] != len(report["checks"]):
        return "mismatch", "total_checks disagrees with the checks listed"
    return None


def check_factor(op: dict, out: dict) -> tuple[Failure | None, float]:
    """Returns (first failure or None, largest relative error of the finite
    checks) over the op's points."""
    if len(out["points"]) != len(op["points"]):
        return ("mismatch", f"{len(out['points'])} results for {len(op['points'])} points"), 0.0
    worst = 0.0
    for point, point_out in zip(op["points"], out["points"]):
        failure, rel = _check_point(point, point_out)
        worst = max(worst, rel)
        if failure is not None:
            return failure, worst
    return None, worst


def _check_point(point: dict, out: dict) -> tuple[Failure | None, float]:
    for name, value in out.items():
        if not _finite(value):
            return ("untyped", f"{name} is not finite: {value}"), 0.0
    g, n, orders = point["sig"]
    side = point["oracle_side"]
    s = mp.mpc(*point["s"]) if side == "s" else 1 - mp.mpc(*point["s"])
    chi = 2 * g - 2 + n + sum(1 - mp.mpf(1) / m for m in orders)
    errs = {}
    # Z_inf = ((2 pi)^s G2(s)^2 / Gamma(s))^chi with G2 = 1 / Barnes G
    ref = chi * (mp.re(s) * mp.log(2 * mp.pi)
                 - 2 * mp.log(abs(mp.barnesg(s))) - mp.re(mp.loggamma(s)))
    errs["z_infty"] = _rel(out["z_infty_" + side][0] - float(ref), float(ref))
    ref = mp.fsum((2 * k + 1 - m) * mp.re(mp.loggamma((s + k) / m)) / m
                  for m in orders for k in range(m))
    errs["z_ell"] = _rel(out["z_ell_" + side][0] - float(ref), float(ref))
    # |kappa(s) kappa(1-s)| = 1, blind to sign and branch on purpose
    errs["kappa"] = _rel(out["kappa_s"][0] + out["kappa_1ms"][0], out["kappa_s"][0])
    tols = {"z_infty": LOG_TOL, "z_ell": LOG_TOL, "kappa": LOG_TOL}
    if "modular_phi" in out:
        ref = _phi_limit(point["phi_at"])
        got = complex(*out["modular_phi"])
        errs["modular_phi"] = abs(got - ref) / max(1.0, abs(ref))
        tols["modular_phi"] = PHI_TOL
    worst = max(errs.values())
    for name, err in errs.items():
        if not err <= tols[name]:
            return ("mismatch", f"{name} off by {err:.3g} (tolerance {tols[name]:g})"), worst
    return None, worst


def _phi_limit(x: float) -> complex:
    """Modular phi at a removable point, as a limit at 40 digits."""
    with mp.workdps(40):
        s = mp.mpf(x) + mp.mpf(10) ** -25
        value = (mp.sqrt(mp.pi) * mp.gamma(s - 0.5) / mp.gamma(s)
                 * mp.zeta(2 * s - 1) / mp.zeta(2 * s))
        return complex(value)


def spectrum_multiplicities(max_trace: int) -> dict[int, int]:
    """Primitive hyperbolic classes of the modular group, counted by trace.

    Counts every word over L, R using both letters by (trace, length); the
    proper powers u^k (trace T_k(tr u), the Chebyshev recursion) are removed
    shell by shell, and the aperiodic words of length l fall into classes
    of exactly l rotations each.
    """
    words: dict[int, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    stack = [(1, 1, 0, 1, 1, 1), (1, 0, 1, 1, 1, 2)]  # a, b, c, d, length, letters
    while stack:
        a, b, c, d, length, letters = stack.pop()
        if letters == 3:
            words[a + d][length] += 1
        if length == max_trace - 1:  # longer words using both letters exceed max_trace
            continue
        if a + c + d <= max_trace:
            stack.append((a, a + b, c, c + d, length + 1, letters | 1))
        if a + b + d <= max_trace:
            stack.append((a + b, b, c + d, d, length + 1, letters | 2))
    mult = {}
    for t in sorted(words):
        total = 0
        for length, count in sorted(words[t].items()):
            if count == 0:
                continue
            if count % length:
                raise ArithmeticError(f"{count} aperiodic words of length {length} at trace {t}")
            total += count // length
            prev, cur, k = 2, t, 1
            while True:
                prev, cur, k = cur, t * cur - prev, k + 1
                if cur > max_trace:
                    break
                words[cur][k * length] -= count
        if total:
            mult[t] = total
    return mult


class EulerOracle:
    """Truncated Euler products over an independently counted spectrum."""

    def __init__(self, max_trace: int):
        self.shells = []
        for t, count in spectrum_multiplicities(max_trace).items():
            log_norm = 2.0 * math.log((t + math.sqrt(t * t - 4.0)) / 2.0)
            self.shells.append((count, log_norm))

    def log_selberg(self, s: complex) -> complex:
        total = 0j
        for count, ln in self.shells:
            k = 0
            while True:  # until every further factor is 1 to double precision
                x = cmath.exp(-(s + k) * ln)
                if abs(x) < 1e-18:
                    break
                total += count * cmath.log(1.0 - x)
                k += 1
        return total

    def log_ruelle(self, s: complex) -> complex:
        return sum(count * cmath.log(1.0 - cmath.exp(-s * ln)) for count, ln in self.shells)

    def check(self, op: dict, out: dict) -> Failure | None:
        """An op runs each command in turn; only a miss op's first command
        finds no cache."""
        if len(out["runs"]) != len(EULER_COMMANDS):
            return "mismatch", f"{len(out['runs'])} runs for {len(EULER_COMMANDS)} commands"
        for i, (cmd, run) in enumerate(zip(EULER_COMMANDS, out["runs"])):
            failure = self._check_run(cmd, op["s"], op["kind"] if i == 0 else "hit", run)
            if failure is not None:
                return failure
        return None

    def _check_run(self, cmd: str, s: list[float], status: str, out: dict) -> Failure | None:
        if out["rc"] != 0:
            return _exit_failure(out["rc"])
        report = json.loads(out["stdout"])
        if report["inputs"].get("cache_status") != status:
            return "mismatch", f"{cmd}: cache_status {report['inputs'].get('cache_status')!r}, expected {status!r}"
        results = {r["name"]: r["value"] for r in report["results"]}
        got = complex(results["value"]["re"], results["value"]["im"])
        if not (_finite([got.real, got.imag]) and math.isfinite(results["abs_error_estimate"])):
            return "untyped", f"{cmd}: non-finite output {results}"
        s = complex(*s)
        log_ref = self.log_selberg(s) if cmd == "zeta" else self.log_ruelle(s)
        ref = cmath.exp(log_ref)
        err = abs(got - ref) / abs(ref)
        if not err <= EULER_TOL:
            return "mismatch", f"{cmd}({s}) = {got}, oracle {ref}, relative error {err:.3g}"
        return None
