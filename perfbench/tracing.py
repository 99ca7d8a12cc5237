"""Out-of-program tracing: spans recorded around calls into hypzeta's layers.

`Tracer.install()` replaces every public function of the hypzeta modules
with a wrapper that records a span, in every ``hypzeta.*`` namespace that
binds the function. Several modules import functions by name (``verify``
takes ``log_barnes_gamma2`` from ``special_functions``, ``cli`` takes
``order_Z`` from ``surface``), so patching only the defining module would
silently drop those cross-layer calls. `uninstall()` restores every binding.

Spans stay in memory while ops run; `self_times` and `summarize` turn them
into per-layer figures once the run is over. Nothing here imports hypzeta
at module level, so the arithmetic can be tested on synthetic spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from typing import NamedTuple

LAYERS = (
    "special_functions",
    "scattering",
    "surface",
    "zeta_factors",
    "length_spectrum",
    "euler_product",
    "verify",
    "cli",
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for an op root
    op: int
    error: str | None  # None, "typed" or "untyped"
    counts: dict | None  # counters observed from the call's inputs and outputs


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sp in spans:
        if sp.parent >= 0:
            children[sp.parent].append((sp.start, sp.end))
    out = []
    for i, sp in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, sp.start), min(end, sp.end)
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((sp.end - sp.start) - covered)
    return out


def summarize(spans: list[Span]) -> dict:
    """Per span name: calls, self seconds, outermost total seconds, errors.

    `total_s` counts a span only when no enclosing span has the same name,
    so recursion (riemann_zeta reflecting into itself) is not counted twice.
    Errors are counted where they leave a layer: a failing span whose parent
    belongs to another layer (or is the op root).
    """
    selfs = self_times(spans)
    out: dict[str, dict] = defaultdict(lambda: {
        "calls": 0, "self_s": 0.0, "total_s": 0.0,
        "errors_typed": 0, "errors_untyped": 0, "counts": defaultdict(float),
    })
    for i, sp in enumerate(spans):
        row = out[sp.name]
        row["calls"] += 1
        row["self_s"] += selfs[i]
        if not _has_ancestor_named(spans, i, sp.name):
            row["total_s"] += sp.end - sp.start
        if sp.error is not None:
            parent_layer = spans[sp.parent].name.split(".")[0] if sp.parent >= 0 else None
            if parent_layer != sp.name.split(".")[0]:
                row["errors_" + sp.error] += 1
        for key, value in (sp.counts or {}).items():
            row["counts"][key] += value
    return out


def _has_ancestor_named(spans: list[Span], i: int, name: str) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def public_functions(modules: dict) -> list:
    """The functions the tracer wraps: each module's `__all__` functions,
    plus the `*_checks` sections and `run_verify` of `verify`."""
    found = []
    for layer in LAYERS:
        mod = modules[layer]
        names = list(getattr(mod, "__all__", ()))
        if layer == "verify":
            names += [n for n in vars(mod) if n.endswith("_checks") or n == "run_verify"]
        for n in names:
            fn = getattr(mod, n, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and fn not in found:
                found.append(fn)
    return found


def _file_bytes(path) -> int:
    total = 0
    for p in (str(path), str(path) + ".meta.json"):
        try:
            total += os.stat(p).st_size
        except OSError:
            pass
    return total


def _observe(name: str, args: tuple, kwargs: dict, result) -> dict | None:
    """Counters taken at a layer boundary from the call's inputs and outputs."""
    if name == "length_spectrum.enumerate_spectrum":
        return {"classes": result.class_count}
    if name == "length_spectrum.read_cache":
        if result is None:
            return {"misses": 1}
        return {"hits": 1, "bytes_read": _file_bytes(args[0] if args else kwargs["path"])}
    if name == "length_spectrum.write_cache":
        return {"bytes_written": _file_bytes(args[1] if len(args) > 1 else kwargs["path"])}
    if name == "euler_product.selberg_Z":
        return {"terms": len(args[0].shells) * (result.k_cutoff_used + 1)}
    if name == "euler_product.ruelle_R":
        method = kwargs.get("method", args[3] if len(args) > 3 else "quotient")
        # the quotient path's terms are counted by the selberg_Z calls it makes
        return {"terms": len(args[0].shells)} if method == "direct" else None
    if name == "scattering.modular_phi":
        s = complex(args[0])
        x = 0.5 - s.real
        # removable points s = 1/2 - j, which modular_phi evaluates as a limit
        removable = abs(s.imag) < 1e-8 and x >= -1e-8 and abs(x - round(x)) < 1e-8
        return {"removable": 1} if removable else None
    if name == "verify.run_verify":
        return {"checks": result["total_checks"]}
    if name == "cli.run":
        return {"exit_nonzero": 1} if result != 0 else None
    return None


class Tracer:
    """Wraps hypzeta's public functions and records one span per call."""

    def __init__(self, error_base: type):
        self.error_base = error_base  # calls raising it are "typed" failures
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                kind = "typed" if isinstance(exc, tracer.error_base) else "untyped"
                spans[idx] = Span(name, start, end, parent, tracer.op, kind, None)
                raise
            counts = _observe(name, args, kwargs, result)
            end = clock()
            stack.pop()
            spans[idx] = Span(name, start, end, parent, tracer.op, None, counts)
            return result

        return wrapper

    def install(self) -> None:
        modules = {layer: sys.modules["hypzeta." + layer] for layer in LAYERS}
        wrappers = {}
        for fn in public_functions(modules):
            layer = fn.__module__.rsplit(".", 1)[1]
            wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{fn.__name__}"))
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "hypzeta" or n.startswith("hypzeta."))]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    @contextlib.contextmanager
    def root(self, op: int):
        """Records the op itself as the root span of the calls made inside."""
        self.op = op
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span("bench.op", start, end, -1, op, None, None)
