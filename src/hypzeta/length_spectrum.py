"""Primitive geodesic length spectrum of the modular surface.

Primitive hyperbolic conjugacy classes of the modular group biject with
aperiodic cyclic words over the parabolic generators
L = [[1,1],[0,1]] and R = [[1,0],[1,1]] that use both letters; the class
invariant is the trace of the word's matrix product, and a class is
named by its canonical word, the lexicographically minimal rotation.
`enumerate_spectrum` counts the classes of each trace up to a bound by
a prenecklace walk on one letter array; `LengthSpectrum` holds them as
one table of trace shells, which `write_cache` and `read_cache` store
as CSV with a metadata sidecar.
"""

from __future__ import annotations

import io
import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    CapacityError,
    NonPrimitiveError,
    SingleLetterError,
)

__all__ = [
    "GeodesicClass",
    "TraceShell",
    "LengthSpectrum",
    "GENERATOR_CONVENTION",
    "CACHE_VERSION",
    "class_from_word",
    "canonical_rotation",
    "necklace_count",
    "enumerate_spectrum",
    "trace_of_word",
    "write_cache",
    "read_cache",
]

GENERATOR_CONVENTION = "L=[[1,1],[0,1]],R=[[1,0],[1,1]]"
CACHE_VERSION = "1"
_CACHE_HEADER = ("trace", "count", "length", "norm")
# relative distance of a cached length from 2 arccosh(trace / 2), and of a
# cached norm from its exponential, that read_cache accepts
_ROW_RTOL = 1e-12
# spells a path of letters, L = 0 and R = 1
_LETTERS = bytes.maketrans(b"\0\1", b"LR")


def _word_matrix(word: str) -> tuple[int, int, int, int]:
    a, b, c, d = 1, 0, 0, 1
    for ch in word:
        if ch == "L":
            a, b, c, d = a, a + b, c, c + d
        elif ch == "R":
            a, b, c, d = a + b, b, c + d, d
        else:
            raise ValueError(f"word may only contain L and R, got {ch!r}")
    return a, b, c, d


def trace_of_word(word: str) -> int:
    a, _, _, d = _word_matrix(word)
    return a + d


def canonical_rotation(word: str) -> str:
    """Lexicographically minimal rotation (L sorts before R)."""
    doubled = word + word
    return min(doubled[i : i + len(word)] for i in range(len(word)))


def _is_aperiodic(word: str) -> bool:
    return (word + word).find(word, 1) == len(word)


def _norm_and_length(trace: int) -> tuple[float, float]:
    t = float(trace)
    norm = ((t + math.sqrt(t * t - 4.0)) / 2.0) ** 2
    length = 2.0 * math.acosh(t / 2.0)
    return norm, length


@dataclass(frozen=True)
class GeodesicClass:
    """One primitive hyperbolic class: canonical word, trace, norm, length."""

    word: str
    trace: int
    norm: float
    length: float


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
    ascending trace order. `shells` is a read view of it, and `classes`
    lists every class's word when the table is the one `enumerate_spectrum`
    gives for max_trace (None otherwise). `max_trace` is any integer
    `operator.index` takes (TypeError otherwise). The group is always
    the modular group.
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

    @property
    def min_length(self) -> float:
        return float(self.columns[3, 0]) if self.columns.shape[1] else math.inf

    @cached_property
    def classes(self) -> tuple[GeodesicClass, ...] | None:
        """Every class in (trace, word) order, as the walk to max_trace
        records them; None unless the table is `enumerate_spectrum`'s."""
        if self.max_trace < 3:  # enumerate_spectrum's domain
            return None
        words: list[list[str]] = [[] for _ in range(self.max_trace + 1)]
        try:
            counts = _walk(self.max_trace, self.class_count, words)
        except CapacityError:
            return None
        if self.columns[:2].T.tolist() != [[trace, n] for trace, n in enumerate(counts) if n]:
            return None
        return tuple(
            GeodesicClass(word, int(trace), norm, length)
            for trace, _, norm, length in self.columns.T.tolist()
            for word in sorted(words[int(trace)])
        )


def class_from_word(word: str) -> GeodesicClass:
    """Build the class named by a cyclic word, canonicalizing the rotation.

    Raises SingleLetterError for L^k / R^k (parabolic, trace 2) and
    NonPrimitiveError for proper powers.
    """
    if not word:
        raise ValueError("empty word")
    if len(set(word)) == 1:
        raise SingleLetterError(f"word {word!r} is a power of a single generator")
    if not _is_aperiodic(word):
        raise NonPrimitiveError(f"word {word!r} is a proper power")
    canon = canonical_rotation(word)
    trace = trace_of_word(canon)
    norm, length = _norm_and_length(trace)
    return GeodesicClass(word=canon, trace=trace, norm=norm, length=length)


def _moebius(n: int) -> int:
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def necklace_count(length: int) -> int:
    """Aperiodic binary necklaces of the given length using both letters."""
    if length < 2:
        raise ValueError("length must be at least 2")
    total = sum(_moebius(d) * 2 ** (length // d) for d in range(1, length + 1) if length % d == 0)
    return total // length


def _capacity_error(max_classes: int, max_trace: int) -> CapacityError:
    return CapacityError(f"more than {max_classes} classes below trace {max_trace}")


def _walk(max_trace: int, max_classes: int, words: list[list[str]] | None = None) -> list[int]:
    """Classes per trace (index 0 to max_trace) of the prenecklace walk; with
    `words`, each class's word is also appended to words[trace].

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
            if words is not None:
                prefix = path[:n].translate(_LETTERS).decode()
                words[t].append(prefix + "R")
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
                if words is not None:
                    for j, v in enumerate(range(t + b, max_trace + 1, b), 2):
                        words[v].append(prefix + "R" * j)
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
    longer prefix and neither letter lowers it. The words are not kept;
    `LengthSpectrum.classes` walks again to list them. Raises
    CapacityError when more than max_classes classes appear.
    """
    if max_trace < 3:
        raise ValueError("max_trace must be at least 3")
    counts = _walk(max_trace, max_classes)
    rows = [(trace, n, *_norm_and_length(trace)) for trace, n in enumerate(counts) if n]
    return LengthSpectrum(np.array(rows).T, max_trace)


def _meta_path(path: Path) -> Path:
    return path.with_name(path.name + ".meta.json")


def _csv(rows, end: str) -> str:
    """The header and one line per (trace, count, length, norm) row, each
    ending in `end`: the cache's text, and `hypzeta spectrum`'s output."""
    lines = [",".join(_CACHE_HEADER)]
    lines += (f"{int(trace)},{int(count)},{length!r},{norm!r}"
              for trace, count, length, norm in rows)
    return end.join(lines) + end


def write_cache(spectrum: LengthSpectrum, path: str | Path) -> None:
    """Write the trace-level table as CSV (with CRLF line ends, as
    `csv.writer` writes them) plus a JSON metadata sidecar."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(_csv(spectrum.columns[[0, 1, 3, 2]].T.tolist(), "\r\n"))
    with _meta_path(path).open("w") as fh:
        json.dump(_cache_meta(spectrum.max_trace), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cache_meta(max_trace: int) -> dict:
    return {
        "group": "modular",
        "max_trace": max_trace,
        "generator_convention": GENERATOR_CONVENTION,
        "version": CACHE_VERSION,
    }


def _parse_rows(body: str, max_trace: int) -> np.ndarray | None:
    """The table (trace, count, norm, length rows) of a cache body, or None
    unless every line is a row as `write_cache` writes it: four finite
    fields; an integral count of at least 1; an integral trace from 3 to
    max_trace, above the previous row's; the length and the norm of that
    trace."""
    if not body.strip():
        return None
    try:
        # comments=None: a '#' is a malformed field, not a comment
        rows = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
    except ValueError:  # a short, long or unparsable row
        return None
    # loadtxt skips blank lines, so a blank line shows as a missing row
    lines = body.count("\n") + (not body.endswith("\n"))
    if rows.shape != (lines, 4) or not np.isfinite(rows).all():
        return None
    trace, count, length, norm = rows.T
    if not (np.array_equal(rows[:, :2], np.round(rows[:, :2]))
            and count.min() >= 1 and trace[0] >= 3 and trace[-1] <= max_trace
            and (np.diff(trace) > 0).all()):
        return None
    expected = 2.0 * np.arccosh(trace / 2.0)
    if ((np.abs(length - expected) > _ROW_RTOL * expected).any()
            or (np.abs(norm * np.exp(-expected) - 1.0) > _ROW_RTOL).any()):
        return None
    return np.array([trace, count, norm, length])


def read_cache(path: str | Path, max_trace: int) -> LengthSpectrum | None:
    """Load a cached spectrum; None (a miss) unless the metadata matches
    exactly and every row passes `_parse_rows`."""
    path = Path(path)
    meta_file = _meta_path(path)
    if not path.exists() or not meta_file.exists():
        return None
    try:
        with meta_file.open() as fh:
            meta = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if meta != _cache_meta(max_trace):
        return None
    try:
        header, _, body = path.read_text().partition("\n")
    except (OSError, UnicodeDecodeError):
        return None
    if header != ",".join(_CACHE_HEADER):
        return None
    columns = _parse_rows(body, max_trace)
    if columns is None:
        return None
    return LengthSpectrum(columns, max_trace)
