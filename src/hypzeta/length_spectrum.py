"""Primitive geodesic length spectrum of the modular surface.

Primitive hyperbolic conjugacy classes of the modular group biject with
aperiodic cyclic words over the parabolic generators
L = [[1,1],[0,1]] and R = [[1,0],[1,1]] that use both letters; the class
invariant is the trace of the word's matrix product. Words are kept in
canonical form (lexicographically minimal rotation, i.e. the Lyndon
representative). Enumeration walks the prenecklace tree and prunes on
the trace, which never decreases when a word is extended; the claimed
minimum trace ell+1 at word length ell is enforced as a tested invariant.

The walk carries each word as an integer bitmask rather than a string
and counts the classes of each trace as it finds them, so the trace
shells the Euler products use come straight out of the walk.
`LengthSpectrum.classes`, one `GeodesicClass` per word in (trace, word)
order, is built from the bitmasks on first access.
"""

from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

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
MODULAR_GROUP_LABEL = "modular"


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


@dataclass(frozen=True)
class LengthSpectrum:
    """Complete multiset of primitive classes with trace <= max_trace.

    The shell table carries the data the Euler products use. `word_masks`
    maps each trace to the bitmasks of its canonical words (see
    `enumerate_spectrum`); it is None when the spectrum was restored from
    a trace-level cache, and so is `classes`.
    """

    shells: tuple[TraceShell, ...]
    max_trace: int
    group_label: str = MODULAR_GROUP_LABEL
    word_masks: dict[int, list[int]] | None = field(default=None, repr=False, compare=False)

    @cached_property
    def _counts(self) -> dict[int, int]:
        return {shell.trace: shell.count for shell in self.shells}

    def mult(self, trace: int) -> int:
        return self._counts.get(trace, 0)

    @cached_property
    def class_count(self) -> int:
        return sum(self._counts.values())

    @property
    def min_length(self) -> float:
        return self.shells[0].length if self.shells else math.inf

    @cached_property
    def classes(self) -> tuple[GeodesicClass, ...] | None:
        """Every class in (trace, word) order, or None for a cached spectrum."""
        if self.word_masks is None:
            return None
        letters = str.maketrans("01", "LR")
        out = []
        for shell in self.shells:
            words = sorted(bin(mask)[3:].translate(letters) for mask in self.word_masks[shell.trace])
            out.extend(GeodesicClass(word, shell.trace, shell.norm, shell.length) for word in words)
        return tuple(out)


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


def enumerate_spectrum(max_trace: int, max_classes: int = 1_000_000) -> LengthSpectrum:
    """All primitive classes with trace <= max_trace, exactly once each.

    Walks the prenecklace tree over {L, R} recording Lyndon words (the
    canonical rotations) and pruning any prefix whose trace already
    exceeds max_trace; extending a word never lowers the trace. A word
    w_0 ... w_(t-1) is the integer 2^t + sum of 2^(t-1-i) over the
    positions i holding R: after the leading 1, its binary digits spell
    the word with L = 0 and R = 1. Raises CapacityError when more than
    max_classes classes appear.
    """
    if max_trace < 3:
        raise ValueError("max_trace must be at least 3")
    by_trace: dict[int, list[int]] = defaultdict(list)
    # Every prenecklace using both letters extends some L^k R, a Lyndon word
    # with matrix [[k+1, k], [1, 1]]. Entries: (mask, period, a, b, c, d).
    stack = []
    for k in range(1, max_trace - 1):
        mask = (1 << (k + 1)) | 1
        by_trace[k + 2].append(mask)
        stack.append((mask, k + 1, k + 1, k, 1, 1))
    found = len(stack)
    if found > max_classes:
        raise _capacity_error(max_classes, max_trace)
    while stack:
        mask, period, a, b, c, d = stack.pop()
        # Follow one child in place and stack the other; a word that uses both
        # letters has length below its trace, so the trace bound ends the walk.
        while True:
            if (mask >> (period - 1)) & 1:
                # the periodic letter is R: the only child appends R
                if a + b + d > max_trace:
                    break
                mask = mask << 1 | 1
                a, c = a + b, c + d
                continue
            # the periodic letter is L: the child R resets the period (a new
            # Lyndon word), the child L keeps it
            trace = a + b + d
            if trace <= max_trace:
                child = mask << 1 | 1
                by_trace[trace].append(child)
                found += 1
                if found > max_classes:
                    raise _capacity_error(max_classes, max_trace)
                if a + c + d <= max_trace:
                    stack.append((child, child.bit_length() - 1, a + b, b, c + d, d))
                    mask <<= 1
                    b, d = a + b, c + d
                else:
                    mask, period = child, child.bit_length() - 1
                    a, c = a + b, c + d
            elif a + c + d <= max_trace:
                mask <<= 1
                b, d = a + b, c + d
            else:
                break
    shells = []
    for trace in sorted(by_trace):
        norm, length = _norm_and_length(trace)
        shells.append(TraceShell(trace, len(by_trace[trace]), norm, length))
    return LengthSpectrum(
        shells=tuple(shells),
        max_trace=max_trace,
        group_label=MODULAR_GROUP_LABEL,
        word_masks=dict(by_trace),
    )


def _meta_path(path: Path) -> Path:
    return path.with_name(path.name + ".meta.json")


def write_cache(spectrum: LengthSpectrum, path: str | Path) -> None:
    """Write the trace-level table as CSV plus a JSON metadata sidecar."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trace", "count", "length", "norm"])
        for shell in spectrum.shells:
            writer.writerow(
                [shell.trace, shell.count, repr(shell.length), repr(shell.norm)]
            )
    meta = {
        "group": spectrum.group_label,
        "max_trace": spectrum.max_trace,
        "generator_convention": GENERATOR_CONVENTION,
        "version": CACHE_VERSION,
    }
    with _meta_path(path).open("w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_cache(path: str | Path, max_trace: int,
               group_label: str = MODULAR_GROUP_LABEL) -> LengthSpectrum | None:
    """Load a cached spectrum; None unless the metadata matches exactly
    and every row parses."""
    path = Path(path)
    meta_file = _meta_path(path)
    if not path.exists() or not meta_file.exists():
        return None
    try:
        with meta_file.open() as fh:
            meta = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    expected = {
        "group": group_label,
        "max_trace": max_trace,
        "generator_convention": GENERATOR_CONVENTION,
        "version": CACHE_VERSION,
    }
    if meta != expected:
        return None
    with path.open(newline="") as fh:
        rows = csv.reader(fh)
        if next(rows, None) != ["trace", "count", "length", "norm"]:
            return None
        try:
            shells = [
                TraceShell(int(trace), int(count), float(norm), float(length))
                for trace, count, length, norm in rows
            ]
        except ValueError:  # a short, long or unparsable row
            return None
    shells.sort(key=lambda shell: shell.trace)
    return LengthSpectrum(
        shells=tuple(shells),
        max_trace=max_trace,
        group_label=group_label,
    )
