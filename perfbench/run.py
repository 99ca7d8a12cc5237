"""hypzeta benchmark: one workload, measured end to end or traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify|factor_grid|euler_cli \
        --seed N --seconds S --trace 0|1

Runs WORKERS fresh interpreters one after another (src/ on the path, BLAS
pinned to one thread); each imports hypzeta, warms up and then measures
S / WORKERS seconds of a closed loop with one client. Times are CPU times
scaled by a fixed reference computation timed around every block of ops
(see worker.py), which cancels the host's drifting speed. Outputs are
checked against independent oracles once all timing is over. Prints the
metrics as lines for a reader, then, as the last line, one JSON object:
with --trace 0 the end-to-end metrics, with --trace 1 the per-layer ones.
See perfbench/README.md for the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
WORKERS = 5  # fresh interpreters per run; set-up is the median of theirs
WORKER_TIMEOUT_S = 150.0
VERIFY_SECTIONS = ("special_function", "scattering", "factor_identity", "order",
                   "spectrum", "euler", "constants")
TIMED_FUNCTIONS = (
    "special_functions.log_barnes_gamma2", "special_functions.riemann_zeta",
    "special_functions.log_gamma", "scattering.modular_phi", "surface.constants",
    "zeta_factors.z_infty", "zeta_factors.z_ell", "zeta_factors.kappa",
    "zeta_factors.det_laplacian", "zeta_factors.ruelle_fe_rhs",
    "length_spectrum.enumerate_spectrum", "length_spectrum.read_cache",
    "length_spectrum.write_cache", "euler_product.selberg_Z", "euler_product.ruelle_R",
    "cli.run",
)
COUNTED_FUNCTIONS = ("surface.order_Z", "surface.order_R")


class BenchError(Exception):
    pass


def _spawn_worker(args, k: int, work: Path) -> tuple[dict, float]:
    out = work / f"worker-{k}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--stream", str(k),
           "--seconds", repr(args.seconds / WORKERS), "--trace", str(args.trace),
           "--cache", str(work / "spectrum.csv"), "--out", str(out)]
    if args.workload == "factor_grid" and k == 0:
        cmd.append("--range-probe")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=str(ROOT), stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {k} did not finish within {WORKER_TIMEOUT_S} s")
    if code != 0:
        raise BenchError(f"worker {k} exited with code {code}")
    result = json.loads(out.read_text())
    return result, (result["ready"] - spawned) * result["setup_scale"]


def _classify(args, records: list[dict]) -> dict:
    """Judge every op against its oracle; returns the failure split."""
    import oracles

    euler = oracles.EulerOracle(workloads.EULER_MAX_TRACE) if args.workload == "euler_cli" else None
    split = {"typed": 0, "untyped": 0, "mismatch": 0}
    worst_rel = 0.0
    for rec in records:
        if rec["error"] is None:
            op, out = rec["op"], rec["out"]
            if args.workload == "verify":
                failure = oracles.check_verify(out)
            elif euler is not None:
                failure = euler.check(op, out)
            else:
                failure, rel = oracles.check_factor(op, out)
                worst_rel = max(worst_rel, rel)
            if failure is not None:
                rec["error"], rec["message"] = failure
        if rec["error"] is not None:
            split[rec["error"]] += 1
    return {"split": split, "max_rel_err": worst_rel}


def _report_failures(records: list[dict], limit: int = 5) -> None:
    seen = {}
    for rec in records:
        if rec["error"] is not None:
            key = (rec["error"], rec["message"].split(":")[0])
            seen.setdefault(key, rec["message"])
    for (kind, _), message in list(seen.items())[:limit]:
        print(f"# {kind} failure, e.g. {message}", file=sys.stderr)


def _end_to_end(results: list[dict], setups: list[float], records: list[dict],
                field: str = "scaled") -> tuple[dict, stats.Tail]:
    ok = [r[field] for r in records if r["error"] is None]
    if not ok:
        raise BenchError("no op succeeded")
    busy = sum(r[field] for r in records)
    tail = stats.tail(ok)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_s": (statistics.median(ok), "s"),
        "latency_tail_s": (tail.value, "s"),
        "ops_per_s": (len(ok) / busy, "1/s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MiB"),
    }, tail


def _merge_traces(results: list[dict]) -> dict:
    layers: dict[str, dict] = {}
    self_by_kind: dict[str, dict[str, float]] = {}
    root_s: dict[str, float] = {}
    for res in results:
        tr = res["trace"]
        for name, row in tr["layers"].items():
            acc = layers.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                           "errors_typed": 0, "errors_untyped": 0, "counts": {}})
            for key in ("calls", "self_s", "total_s", "errors_typed", "errors_untyped"):
                acc[key] += row[key]
            for key, value in row["counts"].items():
                acc["counts"][key] = acc["counts"].get(key, 0) + value
        for kind, row in tr["self_by_kind"].items():
            acc = self_by_kind.setdefault(kind, {})
            for name, value in row.items():
                acc[name] = acc.get(name, 0.0) + value
        for kind, value in tr["root_s_by_kind"].items():
            root_s[kind] = root_s.get(kind, 0.0) + value
    return {"layers": layers, "self_by_kind": self_by_kind, "root_s_by_kind": root_s}


def _per_layer(trace: dict, results: list[dict], records: list[dict], judged: dict) -> dict:
    traced = [r for r in records if r.get("traced")]
    plain = [r for r in records if not r.get("traced")]
    n_ops = len(traced)
    layers = trace["layers"]
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0,
             "errors_typed": 0, "errors_untyped": 0, "counts": {}}

    def row(name):
        return layers.get(name, empty)

    def count(name, key):
        return row(name)["counts"].get(key, 0)

    m: dict[str, tuple[float, str]] = {}
    for name in TIMED_FUNCTIONS:
        m[f"{name}.calls"] = (row(name)["calls"] / n_ops, "count/op")
        m[f"{name}.self_s"] = (row(name)["self_s"] / n_ops, "s/op")
    for name in COUNTED_FUNCTIONS:
        m[f"{name}.calls"] = (row(name)["calls"] / n_ops, "count/op")
    m["scattering.richardson_calls"] = (count("scattering.modular_phi", "removable") / n_ops, "count/op")

    zf = [v for k, v in layers.items() if k.startswith("zeta_factors.")]
    m["zeta_factors.errors_typed"] = (sum(v["errors_typed"] for v in zf) / n_ops, "count/op")
    m["zeta_factors.errors_untyped"] = (sum(v["errors_untyped"] for v in zf) / n_ops, "count/op")
    m["zeta_factors.max_rel_err"] = (judged["max_rel_err"], "ratio")

    enum = row("length_spectrum.enumerate_spectrum")
    classes = count("length_spectrum.enumerate_spectrum", "classes")
    m["length_spectrum.classes"] = (classes / n_ops, "count/op")
    m["length_spectrum.classes_per_s"] = (classes / enum["self_s"] if enum["self_s"] else 0.0, "1/s")
    reads = row("length_spectrum.read_cache")["calls"]
    m["length_spectrum.cache_hit_ratio"] = (
        count("length_spectrum.read_cache", "hits") / reads if reads else 0.0, "ratio")
    m["length_spectrum.cache_bytes_read"] = (count("length_spectrum.read_cache", "bytes_read") / n_ops, "B/op")
    m["length_spectrum.cache_bytes_written"] = (
        count("length_spectrum.write_cache", "bytes_written") / n_ops, "B/op")
    miss_s = trace["root_s_by_kind"].get("miss", 0.0)
    miss_enum = trace["self_by_kind"].get("miss", {}).get("length_spectrum.enumerate_spectrum", 0.0)
    m["length_spectrum.enumerate_spectrum.miss_share"] = (miss_enum / miss_s if miss_s else 0.0, "ratio")

    terms = count("euler_product.selberg_Z", "terms") + count("euler_product.ruelle_R", "terms")
    euler_s = row("euler_product.selberg_Z")["self_s"] + row("euler_product.ruelle_R")["self_s"]
    m["euler_product.terms"] = (terms / n_ops, "count/op")
    m["euler_product.terms_per_s"] = (terms / euler_s if euler_s else 0.0, "1/s")

    for section in VERIFY_SECTIONS:
        name = f"verify.{section}_checks"
        m[f"{name}.total_s"] = (row(name)["total_s"] / n_ops, "s/op")
    m["verify.checks"] = (count("verify.run_verify", "checks") / n_ops, "count/op")
    m["cli.exit_nonzero"] = (count("cli.run", "exit_nonzero") / n_ops, "count/op")

    probe = next((res["range_probe"] for res in results if "range_probe" in res), None)
    for kind in ("returned", "typed", "untyped"):
        done = sum(row[kind] for row in probe.values()) if probe else 0
        total = sum(sum(row.values()) for row in probe.values()) if probe else 0
        m[f"zeta_factors.range_probe.{kind}"] = (done / total if total else 0.0, "ratio")

    for kind in ("typed", "untyped", "mismatch"):
        m[f"bench.failed_{kind}"] = (judged["split"][kind] / len(records), "ratio")
    root_total = sum(trace["root_s_by_kind"].values())
    inner = sum(v["self_s"] for k, v in layers.items() if not k.startswith("bench."))
    m["trace.span_coverage"] = (inner / root_total, "ratio")
    m["trace.overhead_ratio"] = (sum(r["scaled"] for r in traced) / sum(r["scaled"] for r in plain), "ratio")
    return m


def _top_self(trace: dict, limit: int = 4) -> list[str]:
    lines = []
    for kind, row in sorted(trace["self_by_kind"].items()):
        total = trace["root_s_by_kind"].get(kind, 0.0)
        top = sorted(row.items(), key=lambda kv: -kv[1])[:limit]
        parts = ", ".join(f"{name} {value / total:.1%}" for name, value in top)
        lines.append(f"# largest self times on {kind} ops: {parts}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hypzeta" / "__init__.py").is_file():
        print(f"error: no hypzeta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # byte-compile up front, so no worker's set-up includes compiling the package
    if not compileall.compile_dir(str(ROOT / "src" / "hypzeta"), quiet=1):
        print("error: hypzeta does not compile", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        results, setups = [], []
        for k in range(WORKERS):
            result, setup = _spawn_worker(args, k, work)
            results.append(result)
            setups.append(setup)
        records = [rec for res in results for rec in res["records"]]
        judged = _classify(args, records)
        _report_failures(records)
        untraced = [rec for rec in records if not rec.get("traced")]
        e2e, tail = _end_to_end(results, setups, untraced)
        raw_e2e = {field: _end_to_end(results, setups, untraced, field)[0]
                   for field in ("cpu", "wall")}
        if args.trace:
            trace = _merge_traces(results)
            metrics = _per_layer(trace, results, records, judged)
        else:
            metrics = e2e
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            work.parent.rmdir()

    split = judged["split"]
    failed = sum(split.values())
    notes = {
        "setup_s": f"workers: {', '.join(f'{s:.3f}' for s in setups)}",
        "latency_p50_s": f"of {tail.samples} successful ops",
        "latency_tail_s": tail.describe(),
    }
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"{WORKERS} workers, trace {args.trace}")
    for name, (value, unit) in e2e.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    print(f"fail_ratio = {failed / len(records):.4f}  ({failed} of {len(records)} ops: "
          f"typed {split['typed']}, untyped {split['untyped']}, oracle mismatch {split['mismatch']})")
    for res in results:
        for name, row in res.get("range_probe", {}).items():
            print(f"# range probe, {name} beyond chi |Im s|^2 = {workloads.CHI_IM2_MAX:g}: "
                  + ", ".join(f"{kind} {count}" for kind, count in row.items()))
    for field, label in (("cpu", "CPU time, unscaled"), ("wall", "wall clock")):
        print(f"# by {label}: " + ", ".join(f"{k} = {raw_e2e[field][k][0]:.6g}"
                                          for k in ("latency_p50_s", "latency_tail_s", "ops_per_s")))
    if args.trace:
        for line in _top_self(trace):
            print(line)
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": split["mismatch"] == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
