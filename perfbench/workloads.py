"""Seeded op sequences of the three workloads, and how one op is executed.

Generation is pure stdlib, so the parent process (which runs the oracles)
and the worker (which runs the ops) draw identical sequences from
(workload, seed, stream). Execution takes the imported hypzeta package as
an argument and looks every function up on its module at call time, so the
tracer's wrappers are used when they are installed.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("verify", "factor_grid", "euler_cli")

# factor_grid: signatures (g; n; orders) with g <= 2, n in {0, 1} and cone
# orders from this list, keeping those of positive area.
ORDER_MENU = ((), (2,), (3,), (5,), (7,), (2, 3), (2, 4), (3, 3), (2, 3, 7), (2, 2, 3))


def chi(g: int, n: int, orders) -> Fraction:
    """Area over 2 pi."""
    return 2 * g - 2 + n + sum(1 - Fraction(1, m) for m in orders)


SIGNATURES = tuple(
    (g, n, orders)
    for g in range(3)
    for n in (0, 1)
    for orders in ORDER_MENU
    if chi(g, n, orders) > 0
)
# The strip is Re s in [RE_MIN, RE_MAX], |Im s| <= IM_MAX. The factors grow
# like exp(chi |Im s|^2 log |Im s|), and past double range (e^709) the
# program cannot return them: on this menu that starts at chi |Im s|^2 of
# 216 to 290. Timed ops keep chi |Im s|^2 <= CHI_IM2_MAX, so every op has a
# representable answer; the rest of the strip is the range probe below.
RE_MIN, RE_MAX, IM_MAX = -3.0, 4.0, 20.0
CHI_IM2_MAX = 200.0


def im_bound(sig) -> float:
    """Largest |Im s| a timed factor_grid op of this signature draws."""
    return min(IM_MAX, math.sqrt(CHI_IM2_MAX / float(chi(*sig))))


# Fixed points of the strip beyond im_bound, evaluated once per run outside
# the timed region: how the program refuses values it cannot represent.
RANGE_PROBE = tuple(
    (sig, [re, im])
    for sig in SIGNATURES if im_bound(sig) < IM_MAX
    for im in ((im_bound(sig) + IM_MAX) / 2.0, IM_MAX)
    for re in (RE_MIN, 0.5, RE_MAX)
)
PROBE_FUNCTIONS = ("z_infty", "z_ell", "kappa", "det_laplacian", "ruelle_fe_rhs")
FACTOR_BLOCK = 40
PHI_EVERY = 8  # one factor_grid point in eight also evaluates phi at s = 1/2 - j
# A factor_grid op evaluates this many points of a block. One point costs
# 12 or 22 ms, by whether a double-gamma argument shifts into Re in (1/2, 1),
# and about half the points take the slow path; the median of single-point
# ops sat in the gap between the two and jumped by 30% from run to run.
# Over two points the median falls in the middle of three clusters.
POINTS_PER_OP = 2

# euler_cli: an op runs every command at one s, in this order; one op in
# five deletes the cache first, so its first command enumerates. (Hits of
# the three commands cost 12 to 27 ms; as ops of their own, the median sat
# at the border of two of them and moved by 20% between runs.)
MISS_EVERY = 5
EULER_MAX_TRACE = 800
EULER_COMMANDS = ("zeta", "ruelle", "ruelle-direct")


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{stream}")


def blocks(workload: str, seed: int, stream: str):
    """Endless sequence of op blocks; the same (workload, seed, stream) gives
    the same ops. Every block of a workload has the same mix of op kinds and
    a run always measures whole blocks, so runs differ only in the drawn values."""
    rng = _rng(workload, seed, stream)
    if workload == "verify":
        while True:
            yield [{"kind": "verify"}]
    elif workload == "factor_grid":
        # Each block takes one point from each of FACTOR_BLOCK equal slices of
        # Re s and of Im s; signatures come from a deck that deals each once.
        deck: list = []
        while True:
            res = rng.sample(range(FACTOR_BLOCK), FACTOR_BLOCK)
            ims = rng.sample(range(FACTOR_BLOCK), FACTOR_BLOCK)
            block = []
            for i, (re, im) in enumerate(zip(res, ims)):
                if not deck:
                    deck = rng.sample(SIGNATURES, len(SIGNATURES))
                sig = deck.pop()
                block.append({
                    "sig": [sig[0], sig[1], list(sig[2])],
                    "s": [RE_MIN + (RE_MAX - RE_MIN) * (re + rng.random()) / FACTOR_BLOCK,
                          im_bound(sig) * (2.0 * (im + rng.random()) / FACTOR_BLOCK - 1.0)],
                    "z": [rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)],
                    # the mpmath oracle for z_infty and z_ell takes one side per point
                    "oracle_side": "s" if i % 2 else "1ms",
                })
            for i in rng.sample(range(FACTOR_BLOCK), FACTOR_BLOCK // PHI_EVERY):
                block[i]["phi_at"] = 0.5 - rng.randrange(4)
            yield [{"kind": "grid", "points": block[i:i + POINTS_PER_OP]}
                   for i in range(0, FACTOR_BLOCK, POINTS_PER_OP)]
    elif workload == "euler_cli":
        kinds = ["miss"] + ["hit"] * (MISS_EVERY - 1)
        while True:
            rng.shuffle(kinds)
            yield [{"kind": kind, "s": [rng.uniform(1.2, 4.0), rng.uniform(-10.0, 10.0)]}
                   for kind in kinds]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def warmup_ops(workload: str, seed: int) -> list[dict]:
    """Ops run before timing starts, so lazy set-up and caches are filled."""
    if workload == "verify":
        return [{"kind": "verify"}]
    if workload == "factor_grid":
        return next(blocks(workload, seed, "warmup"))[:8]
    return [{"kind": "miss", "s": [2.0, 0.5]}]


def euler_argv(cmd: str, s: list[float], cache: Path) -> list[str]:
    argv = ["ruelle", "--method", "direct"] if cmd == "ruelle-direct" else [cmd]
    return argv + ["--s", f"{s[0]!r},{s[1]!r}",
                  "--max-trace", str(EULER_MAX_TRACE), "--cache", str(cache), "--json"]


def drop_cache(cache: Path) -> None:
    for p in (cache, cache.with_name(cache.name + ".meta.json")):
        p.unlink(missing_ok=True)


def _log(fv) -> list[float]:
    return [fv.log_value.real, fv.log_value.imag]


def _c(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def execute(hz, op: dict, cache: Path) -> dict:
    """Run one op against the imported package `hz`; returns its raw outputs."""
    if op["kind"] == "verify":
        return _cli(hz, ["verify", "--json"])
    if op["kind"] in ("hit", "miss"):
        return {"runs": [_cli(hz, euler_argv(cmd, op["s"], cache)) for cmd in EULER_COMMANDS]}
    return {"points": [_factors(hz, point) for point in op["points"]]}


def _factors(hz, point: dict) -> dict:
    """One factor_grid point: the factors at s and at 1 - s."""
    zf = hz.zeta_factors
    g, n, orders = point["sig"]
    sig = hz.surface.Signature(g, n, tuple(orders))
    sc = hz.scattering.builtin_model("modular" if n else "trivial")
    z = complex(*point["z"])
    out = {}
    for tag, x in (("s", complex(*point["s"])), ("1ms", 1.0 - complex(*point["s"]))):
        out["z_infty_" + tag] = _log(zf.z_infty(sig, x))
        out["z_ell_" + tag] = _log(zf.z_ell(sig, x))
        out["kappa_" + tag] = _log(zf.kappa(sig, sc, x))
        out["det_laplacian_" + tag] = _c(zf.det_laplacian(sig, sc, x, z))
    out["ruelle_fe_rhs"] = _c(zf.ruelle_fe_rhs(sig, sc, complex(*point["s"])))
    if "phi_at" in point:
        out["modular_phi"] = _c(hz.scattering.modular_phi(complex(point["phi_at"], 0.0)))
    return out


def range_probe(hz) -> dict[str, dict[str, int]]:
    """Evaluates each factor at every RANGE_PROBE point; per function, counts
    the values returned finite, the HypzetaErrors and the untyped failures
    (a raw exception or a non-finite value)."""
    zf = hz.zeta_factors
    counts = {name: {"returned": 0, "typed": 0, "untyped": 0} for name in PROBE_FUNCTIONS}
    for (g, n, orders), s in RANGE_PROBE:
        sig = hz.surface.Signature(g, n, tuple(orders))
        sc = hz.scattering.builtin_model("modular" if n else "trivial")
        s = complex(*s)
        calls = {
            "z_infty": lambda: zf.z_infty(sig, s).value,
            "z_ell": lambda: zf.z_ell(sig, s).value,
            "kappa": lambda: zf.kappa(sig, sc, s).value,
            "det_laplacian": lambda: zf.det_laplacian(sig, sc, s, 1.0),
            "ruelle_fe_rhs": lambda: zf.ruelle_fe_rhs(sig, sc, s),
        }
        for name, call in calls.items():
            try:
                value = complex(call())
                kind = "returned" if cmath.isfinite(value) else "untyped"
            except hz.HypzetaError:
                kind = "typed"
            except Exception:  # noqa: BLE001  (the kind of failure is the measurement)
                kind = "untyped"
            counts[name][kind] += 1
    return counts


def _cli(hz, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = hz.cli.run(argv)
    return {"rc": rc, "stdout": out.getvalue()}
