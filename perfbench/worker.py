"""One measuring process: import hypzeta, warm up, run ops for a set time.

Started by run.py in a fresh interpreter with BLAS pinned to one thread.
It is a closed loop with one client: the next op starts when the previous
one has returned. Writes its records as JSON to --out; the parent checks
the outputs and computes the metrics.

With --trace 1 the worker first runs ops untraced for half its time, then
installs the tracer and replays the same ops, so the overhead ratio
compares identical work.

The host's speed drifts by up to a third within seconds, for this program
and plain interpreter loops alike. Before and after every block of ops the
worker times a fixed reference computation (`reference`), and each op's
CPU time is also given scaled to a host on which that computation takes
REF_NOMINAL_S: the speed of the moment cancels out, while a change of the
program does not touch the reference.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import json
import resource
import time
import warnings
from pathlib import Path

import numpy as np

import workloads
from tracing import Tracer, self_times, summarize


REF_NOMINAL_S = 1e-3
REF_REPEATS = 2  # reference calls before and after each block
_REF_K = np.arange(1.0, 5001.0)


def reference() -> tuple[complex, int]:
    """Fixed work of the program's three kinds, about 1 ms in all: a complex
    numpy product like the double gamma's, complex scalar math in the
    interpreter, and a depth-first walk that allocates tuples and strings,
    like the length-spectrum enumeration."""
    t = 0.3 + 0.4j
    acc = complex(np.sum(-_REF_K * np.log1p(t / _REF_K) + t - t * t / (2.0 * _REF_K)))
    z = 0.3 + 0.7j
    for k in range(1, 300):
        acc += cmath.log(1.0 + z / k) * k - z
    stack, found = [("L", 1, 1)], []
    while stack:
        word, a, b = stack.pop()
        if len(word) < 10:
            stack.append((word + "L", a, a + b))
            stack.append((word + "R", a + b, b))
        else:
            found.append((a + b, word))
    found.sort()
    return acc, len(found)


def reference_s(repeats: int = REF_REPEATS) -> float:
    """CPU time of one reference call, averaged over `repeats` calls."""
    start = time.thread_time()
    for _ in range(repeats):
        reference()
    return (time.thread_time() - start) / repeats


def _run(hz, ops: list[dict], cache: Path, tracer: Tracer | None = None,
         first: int = 0) -> list[dict]:
    """Runs ops one after another; `first` is the index of ops[0] in the run."""
    records = []
    for i, op in enumerate(ops, first):
        if op.get("kind") == "miss":
            workloads.drop_cache(cache)
        error = message = out = None
        start, cpu_start = time.perf_counter(), time.thread_time()
        try:
            with tracer.root(i) if tracer else contextlib.nullcontext():
                out = workloads.execute(hz, op, cache)
        except hz.HypzetaError as exc:
            error, message = "typed", f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # the loop must go on; the failure is recorded
            error, message = "untyped", f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        cpu = time.thread_time() - cpu_start
        records.append({"op": op, "wall": wall, "cpu": cpu, "error": error,
                        "message": message, "out": out})
    return records


def _scaled_block(hz, block: list[dict], cache: Path, tracer: Tracer | None = None,
                  first: int = 0) -> list[dict]:
    """Runs one block of ops between reference timings; each record also
    carries the block's reference time and its CPU time scaled by it."""
    before = reference_s()
    records = _run(hz, block, cache, tracer, first)
    ref = (before + reference_s()) / 2.0
    for rec in records:
        rec["ref"] = ref
        rec["scaled"] = rec["cpu"] * REF_NOMINAL_S / ref
    return records


def _timed(hz, seq, cache: Path, seconds: float) -> tuple[list[list[dict]], list[dict]]:
    """Whole blocks of ops until `seconds` have passed; returns the blocks
    and the records of their ops."""
    blocks, records = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        blocks.append(next(seq))
        records.extend(_scaled_block(hz, blocks[-1], cache))
    return blocks, records


def _trace_summary(spans, ops: list[dict]) -> dict:
    """Per-layer sums over the traced ops, overall and per op kind."""
    selfs = self_times(spans)
    by_kind: dict[str, dict[str, float]] = {}
    roots: dict[str, float] = {}
    for sp, own in zip(spans, selfs):
        kind = ops[sp.op]["kind"]
        if sp.parent < 0:
            roots[kind] = roots.get(kind, 0.0) + (sp.end - sp.start)
        row = by_kind.setdefault(kind, {})
        row[sp.name] = row.get(sp.name, 0.0) + own
    layers = summarize(spans)
    return {
        "layers": {name: {**row, "counts": dict(row["counts"])} for name, row in layers.items()},
        "self_by_kind": by_kind,
        "root_s_by_kind": roots,
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--stream", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cache", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--range-probe", action="store_true",
                    help="after timing, evaluate the factors at workloads.RANGE_PROBE")
    args = ap.parse_args()

    # imported here so set-up time, from interpreter start, includes them
    import hypzeta as hz
    import hypzeta.cli  # noqa: F401  (also imports verify; neither is in hypzeta/__init__)

    warnings.simplefilter("ignore")
    cache = Path(args.cache)
    _run(hz, workloads.warmup_ops(args.workload, args.seed), cache)
    ready = time.monotonic()
    reference()  # its first call pays for numpy's lazy set-up

    seq = workloads.blocks(args.workload, args.seed, args.stream)
    result = {"ready": ready, "setup_scale": REF_NOMINAL_S / reference_s(20)}
    if not args.trace:
        _, result["records"] = _timed(hz, seq, cache, args.seconds)
    else:
        blocks, plain = _timed(hz, seq, cache, args.seconds / 2.0)
        ops = [op for block in blocks for op in block]
        tracer = Tracer(hz.HypzetaError)
        tracer.install()
        traced = []
        try:
            for block in blocks:
                traced.extend(_scaled_block(hz, block, cache, tracer, len(traced)))
        finally:
            tracer.uninstall()
        for rec in traced:
            rec["traced"] = True
        result["records"] = plain + traced
        result["trace"] = _trace_summary(tracer.spans, ops)
    if args.range_probe:
        result["range_probe"] = workloads.range_probe(hz)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.out).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
