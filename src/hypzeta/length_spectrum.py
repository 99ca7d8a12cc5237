"""Primitive geodesic length spectrum of the modular surface.

Primitive hyperbolic conjugacy classes of the modular group biject with
aperiodic cyclic words over the parabolic generators
L = [[1,1],[0,1]] and R = [[1,0],[1,1]] that use both letters, and so
with their lexicographically minimal rotations, the Lyndon words; the
class invariant is the trace of the word's matrix product.
`enumerate_spectrum` counts the classes of each trace up to a bound by
a prenecklace walk on one letter array; `LengthSpectrum` holds them as
one table of trace shells. A shell's length 2 arccosh(trace/2) and norm
e^length follow from its trace, and every trace t from 3 to the bound
has a class (that of L^(t-2) R), so `write_cache` stores only what the
walk counts: one class count per trace, under a first line that records
the format version, group, trace bound, generator convention and the
rows' CRC-32. `read_cache` derives the rest as `enumerate_spectrum`
does, each length taken from one process-wide table of libm arccosh
values.
"""

from __future__ import annotations

import math
import operator
import os
import re
import zlib
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import CapacityError, DomainError

__all__ = [
    "TraceShell",
    "LengthSpectrum",
    "GENERATOR_CONVENTION",
    "CACHE_VERSION",
    "enumerate_spectrum",
    "write_cache",
    "read_cache",
]

GENERATOR_CONVENTION = "L=[[1,1],[0,1]],R=[[1,0],[1,1]]"
CACHE_VERSION = "5"
_CACHE_HEADER = "count"
# a cache body as write_cache writes it, line ends read as "\n": rows of one
# decimal integer of at least 1, with no sign, leading zero or other text.
# The pattern, not numpy, refuses "2.5" (numpy < 2 parses it as an integer
# with only a DeprecationWarning); 18 digits at most keep a count in int64.
_CACHE_BODY = re.compile(r"(?:[1-9][0-9]{0,17}\n)+")


# _LENGTHS[t] is libm's 2 acosh(t / 2), for t from 2 to the largest trace a
# table has needed so far (nan below 2). It is read-only and only grows, by
# a new array, so a table taken from it never changes.
_LENGTHS = np.full(2, math.nan)
_LENGTHS.flags.writeable = False


def _lengths(max_trace: int) -> np.ndarray:
    """The length table, grown first to max_trace if it ends below it."""
    global _LENGTHS
    table = _LENGTHS
    if table.size <= max_trace:
        grown = [2.0 * math.acosh(t / 2.0) for t in range(table.size, max_trace + 1)]
        table = np.concatenate([table, grown])
        table.flags.writeable = False
        _LENGTHS = table
    return table


def _table(trace, count) -> np.ndarray:
    """The 4 x n (trace, count, norm, length) table of the shells with these
    ascending integer traces and class counts. The norm
    ((t + sqrt(t^2 - 4)) / 2)^2 takes correctly rounded operations only;
    the length 2 arccosh(t / 2) is looked up in `_LENGTHS`, libm's acosh
    computed once per trace and process, since np.arccosh's SIMD loops can
    differ from it in the last bit by CPU, and the table would then depend
    on the machine."""
    t = np.asarray(trace, dtype=float)
    norm = ((t + np.sqrt(t * t - 4.0)) / 2.0) ** 2
    length = _lengths(int(trace[-1]))[trace]
    return np.array([t, count, norm, length])


@dataclass(frozen=True)
class TraceShell:
    """All classes sharing one trace, collapsed to (count, norm, length)."""

    trace: int
    count: int
    norm: float
    length: float


class LengthSpectrum:
    """Complete multiset of primitive classes with trace <= max_trace.

    `columns` is a read-only copy of the 4 x n float64 table it is given:
    the trace, class count, norm and length of each trace shell, in
    ascending trace order; `shells` is a read view of it. `max_trace` is
    any integer `operator.index` takes (TypeError otherwise). The group
    is always the modular group.
    """

    def __init__(self, columns: np.ndarray, max_trace: int) -> None:
        columns = np.array(columns, dtype=float)
        if columns.ndim != 2 or columns.shape[0] != 4:
            raise ValueError(f"columns must be a 4 x n table, got shape {columns.shape}")
        columns.flags.writeable = False
        self.columns = columns
        self.max_trace = operator.index(max_trace)

    def __repr__(self) -> str:
        return f"LengthSpectrum(max_trace={self.max_trace}, shells={self.columns.shape[1]})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, LengthSpectrum):
            return NotImplemented
        return self.max_trace == other.max_trace and np.array_equal(self.columns, other.columns)

    @cached_property
    def shells(self) -> tuple[TraceShell, ...]:
        """One `TraceShell` per column of the table, built on first read."""
        return tuple(
            TraceShell(int(trace), int(count), norm, length)
            for trace, count, norm, length in self.columns.T.tolist()
        )

    @cached_property
    def _counts(self) -> dict[int, int]:
        trace, count = self.columns[:2].astype(int).tolist()
        return dict(zip(trace, count))

    def mult(self, trace: int) -> int:
        return self._counts.get(trace, 0)

    @cached_property
    def class_count(self) -> int:
        return int(self.columns[1].sum())


def _capacity_error(max_classes: int, max_trace: int) -> CapacityError:
    return CapacityError(f"more than {max_classes} classes below trace {max_trace}")


def _walk(max_trace: int, max_classes: int) -> list[int]:
    """Classes per trace (index 0 to max_trace) of the prenecklace walk.

    The walk starts at the prefix L and extends it in place by its
    periodic letter. Where that letter is L, the child R is a new Lyndon
    word. It is stacked as (n, p, a, b, c, d), its length, period and
    matrix [[a, b], [c, d]], if its own child L is not cut; otherwise it
    and its extensions by R letters, whose traces step by b, are counted
    as one stride. The letters of the current prefix are path[:n] (L = 0,
    R = 1), so path[n - p] is its periodic letter. Raises CapacityError if
    more than max_classes classes appear.
    """
    counts = [0] * (max_trace + 1)
    path = bytearray(max_trace)
    stack = []
    found = 0
    n, p, a, b, c, d = 1, 1, 1, 1, 0, 1  # the prefix L
    while True:
        # Extend the prefix in place up to the cut at t = a + b + d, the
        # trace with R appended.
        while (t := a + b + d) <= max_trace:
            if path[n - p]:
                # the periodic letter is R: the only child appends R
                path[n] = 1
                n += 1
                a, c = a + b, c + d
                continue
            # the periodic letter is L: the child R is a new Lyndon word of
            # trace t, and the child L keeps the period unless cut
            counts[t] += 1
            found += 1
            # the cut of the child L, 2a + b + c + d
            u = t + a + c
            if t + b > max_trace:
                # the child R has no child
                if u > max_trace:
                    break
            elif u + b + b + d <= max_trace:
                # the child R's own child L is not cut: stack the child R
                stack.append((n + 1, n + 1, a + b, b, c + d, d))
            else:
                # it is: the child R runs on in R letters, at traces t + jb
                found += (max_trace - t) // b
                for v in range(t + b, max_trace + 1, b):
                    counts[v] += 1
                if u > max_trace:
                    break
            path[n] = 0
            n += 1
            b, d = a + b, c + d
        if found > max_classes:
            raise _capacity_error(max_classes, max_trace)
        if not stack:
            return counts
        # every stacked prefix ends in R; LIFO order kept the letters before it
        n, p, a, b, c, d = stack.pop()
        path[n - 1] = 1


def enumerate_spectrum(max_trace: int, max_classes: int = 1_000_000) -> LengthSpectrum:
    """All primitive classes with trace <= max_trace, exactly once each.

    Walks the prenecklace tree over {L, R}, its prefixes held as one
    letter array, counting Lyndon words (the canonical rotations) by
    trace; a run of Lyndon words that differ only in trailing R letters
    is counted in one stride. A prefix [[a,b],[c,d]] is cut once
    a + b + d, its trace with R appended, exceeds max_trace; the cut is
    exact, since every class below it is counted at that trace of a
    longer prefix and neither letter lowers it. The words are not kept.
    `max_trace` and `max_classes` are any integers `operator.index` takes
    (TypeError otherwise). Raises CapacityError when more than max_classes
    classes appear, before the walk when N (log N - 1) > max_classes with
    N = max_trace - 2: the words L^a R^b with ab <= N are that many
    distinct classes at least (sum_a floor(N/a) > N (log N - 1)), at
    trace ab + 2.
    """
    max_trace = operator.index(max_trace)
    max_classes = operator.index(max_classes)
    if max_trace < 3:
        raise ValueError("max_trace must be at least 3")
    n = max_trace - 2
    if n * (math.log(n) - 1.0) > max_classes:
        raise _capacity_error(max_classes, max_trace)
    counts = np.array(_walk(max_trace, max_classes))
    trace = np.flatnonzero(counts)
    return LengthSpectrum(_table(trace, counts[trace]), max_trace)


def _first_line(max_trace: int, rows: str) -> str:
    """The first line of a cache whose rows, with LF line ends, are `rows`."""
    return (f"# hypzeta spectrum cache v{CACHE_VERSION} group=modular max_trace={max_trace}"
            f" generator_convention={GENERATOR_CONVENTION} rows_crc32={zlib.crc32(rows.encode())}")


def write_cache(spectrum: LengthSpectrum, path: str | Path) -> None:
    """Write the class count of each trace 3 to max_trace as CSV with CRLF
    line ends (as `csv.writer` writes them): the `_first_line` of the
    spectrum's bound and rows, the header `count`, then one row per trace.
    Raises DomainError, before any file is opened, naming the first missing
    trace unless the spectrum's traces are exactly 3 to max_trace, as those
    of a complete spectrum are. The file is written beside the path, under
    a name with the process id, and renamed onto it, so a reader finds the
    old cache or the new one, never part of one. A version-3 metadata
    sidecar, `<path>.meta.json`, is removed."""
    path = Path(path)
    traces = np.arange(3, spectrum.max_trace + 1)
    if not np.array_equal(spectrum.columns[0], traces):
        missing = np.setdiff1d(traces, spectrum.columns[0])
        gap = f"trace {missing[0]} is missing" if missing.size else "it has other traces"
        raise DomainError(f"a cache stores one count per trace 3..{spectrum.max_trace}; {gap}")
    rows = "".join(f"{n}\n" for n in spectrum.columns[1].astype(np.int64).tolist())
    text = f"{_first_line(spectrum.max_trace, rows)}\n{_CACHE_HEADER}\n{rows}"
    partial = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with partial.open("w", newline="\r\n") as fh:
            fh.write(text)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    path.with_name(path.name + ".meta.json").unlink(missing_ok=True)


def read_cache(path: str | Path, max_trace: int) -> LengthSpectrum | None:
    """Load a cached spectrum with one file read; None (a miss) unless the
    first line is the one `write_cache` writes for max_trace and the rows
    below the header, so the version, group, generator convention and the
    CRC-32 of the rows all match, and the rows are max_trace - 2 counts as
    `write_cache` writes them, those of traces 3 to max_trace. Line ends
    may be CRLF or LF. `max_trace` is any integer `operator.index` takes
    (TypeError otherwise, before the file is opened). A cache of an earlier
    version is a miss, so the caller writes it anew: version 1 also stored
    each shell's length and norm, version 2 had no CRC, versions 1 to 3
    kept their metadata in a `<path>.meta.json` sidecar, and version 4
    stored `trace,count` rows."""
    max_trace = operator.index(max_trace)
    try:
        text = Path(path).read_text()
    except (OSError, ValueError):  # a missing file or undecodable bytes
        return None
    first, _, rest = text.partition("\n")
    header, _, body = rest.partition("\n")
    if (header != _CACHE_HEADER or first != _first_line(max_trace, body)
            or body.count("\n") != max_trace - 2 or _CACHE_BODY.fullmatch(body) is None):
        return None
    count = np.fromstring(body, dtype=np.int64, sep="\n")
    return LengthSpectrum(_table(np.arange(3, max_trace + 1), count), max_trace)
