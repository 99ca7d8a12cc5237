"""Length-spectrum tests: enumeration vs word oracles, caching."""

import collections
import csv
import io
import itertools
import json
import math
import os
import random
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from word_oracle import (
    brute_force_classes,
    canonical_rotation,
    is_primitive,
    lyndon_words,
    necklace_count,
    trace_of_word,
)

from hypzeta import length_spectrum
from hypzeta.errors import CapacityError, DomainError
from hypzeta.length_spectrum import (
    CACHE_VERSION,
    GENERATOR_CONVENTION,
    LengthSpectrum,
    enumerate_spectrum,
    read_cache,
    write_cache,
)


def counts_per_trace(classes):
    """{trace: number of classes} of an oracle's (word, trace) pairs."""
    return dict(collections.Counter(trace for _, trace in classes))


def program_counts(spectrum):
    """{trace: number of classes} of a spectrum's table."""
    trace, count = spectrum.columns[:2].astype(int).tolist()
    return dict(zip(trace, count))


def shell_counts_by_word_count(max_trace):
    """Oracle: classes per trace from all words using both letters.

    Counts every word with trace <= max_trace by (trace, length), removes
    the proper powers (periodic words) and divides by the length, since an
    aperiodic cyclic word has exactly that many distinct rotations.
    """
    aperiodic = collections.Counter()
    # entries: word, matrix (a, b, c, d). A word using both letters has trace
    # above its length, so the length cap only stops the one-letter words.
    stack = [("L", 1, 1, 0, 1), ("R", 1, 0, 1, 1)]
    while stack:
        word, a, b, c, d = stack.pop()
        if is_primitive(word):
            aperiodic[a + d, len(word)] += 1
        if len(word) == max_trace - 1:
            continue
        if a + c + d <= max_trace:
            stack.append((word + "L", a, a + b, c, c + d))
        if a + b + d <= max_trace:
            stack.append((word + "R", a + b, b, c + d, d))
    counts = collections.Counter()
    for (trace, length), n in aperiodic.items():
        assert n % length == 0
        counts[trace] += n // length
    return dict(counts)


words = st.text(alphabet="LR", min_size=1, max_size=12)


class TestClassFromWord:
    """The word oracle's class of a cyclic word, which every exhaustive
    oracle below rests on: its canonical rotation and trace."""

    def test_llr_matrix(self):
        # matrix of LLR is [[3,2],[1,1]]
        assert trace_of_word("LLR") == 4
        assert canonical_rotation("RLL") == canonical_rotation("LRL") == "LLR"

    def test_square_rejected(self):
        assert not is_primitive("LRLR")
        assert "LRLR" not in brute_force_classes(12)

    def test_single_letter_rejected(self):
        assert not is_primitive("LLLL") and not is_primitive("R")
        assert not any(len(set(word)) < 2 for word in brute_force_classes(12))

    def test_norm_length_consistency(self):
        (trace,), (count,), (norm,), (length,) = enumerate_spectrum(3).columns
        assert trace == trace_of_word("LR") == 3 and count == 1
        assert abs(length - 2.0 * math.acosh(1.5)) < 1e-15
        assert abs(length - math.log(norm)) < 1e-12
        assert norm > 1.0 and length > 0.0

    @given(words)
    @settings(max_examples=300, deadline=None)
    def test_rotations_map_to_same_class(self, word):
        if not is_primitive(word):
            return
        base = canonical_rotation(word), trace_of_word(word)
        for i in range(len(word)):
            rotated = word[i:] + word[:i]
            assert (canonical_rotation(rotated), trace_of_word(rotated)) == base

    @given(words)
    @settings(max_examples=300, deadline=None)
    def test_canonicalization_idempotent(self, word):
        once = canonical_rotation(word)
        assert canonical_rotation(once) == once

    def test_conjugation_invariance_of_trace(self):
        # trace is a class function: c w c^-1 has the same trace
        rng = random.Random(7)
        mats = {"L": ((1, 1), (0, 1)), "R": ((1, 0), (1, 1))}

        def mat_of(word):
            a, b, c, d = 1, 0, 0, 1
            for ch in word:
                (p, q), (r, t) = mats[ch]
                a, b, c, d = a * p + b * r, a * q + b * t, c * p + d * r, c * q + d * t
            return a, b, c, d

        for _ in range(50):
            word = "".join(rng.choice("LR") for _ in range(rng.randint(2, 10)))
            conj = "".join(rng.choice("LR") for _ in range(rng.randint(1, 5)))
            a, b, c, d = mat_of(word)
            p, q, r, t = mat_of(conj)
            # inverse of the (det 1) conjugator is its adjugate
            pi, qi, ri, ti = t, -q, -r, p
            x = (p * a + q * c, p * b + q * d, r * a + t * c, r * b + t * d)
            y = (
                x[0] * pi + x[1] * ri,
                x[0] * qi + x[1] * ti,
                x[2] * pi + x[3] * ri,
                x[2] * qi + x[3] * ti,
            )
            assert y[0] + y[3] == a + d


class TestNecklaceCount:
    """The word oracle's Moebius count of the classes of each word length."""

    def test_small_values(self):
        assert necklace_count(2) == 1  # {LR}
        assert necklace_count(3) == 2  # {LLR, LRR}
        assert necklace_count(6) == 9  # (64 - 8 - 4 + 2)/6

    def test_exhaustive_match(self):
        for ell in range(2, 13):
            words = ("".join(bits) for bits in itertools.product("LR", repeat=ell))
            seen = {canonical_rotation(word) for word in words if is_primitive(word)}
            assert necklace_count(ell) == len(seen)

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            necklace_count(1)


class TestEnumeration:
    def test_minimal_spectrum(self):
        spectrum = enumerate_spectrum(3)
        assert spectrum.class_count == 1
        assert brute_force_classes(3) == {"LR": 3}
        assert spectrum.columns[:2].tolist() == [[3.0], [1.0]]
        assert abs(spectrum.min_length - 1.9248473002384139) < 1e-12

    def test_trace_four(self):
        spectrum = enumerate_spectrum(4)
        assert set(brute_force_classes(4)) == {"LR", "LLR", "LRR"}
        assert spectrum.mult(3) == 1 and spectrum.mult(4) == 2

    def test_trace_six(self):
        spectrum = enumerate_spectrum(6)
        oracle = brute_force_classes(6)
        words5 = {word for word, trace in oracle.items() if trace == 5}
        assert words5 == {"LLLR", "LRRR"}
        assert spectrum.mult(5) == 2
        words6 = {word for word, trace in oracle.items() if trace == 6}
        assert {"LLRR", "LLLLR"} <= words6
        assert spectrum.mult(6) == len(words6)

    @pytest.mark.parametrize("max_trace", [3, 5, 8, 10, 12, 13])
    def test_matches_brute_force(self, max_trace):
        spectrum = enumerate_spectrum(max_trace)
        oracle = brute_force_classes(max_trace)
        assert program_counts(spectrum) == counts_per_trace(oracle.items())
        assert spectrum.class_count == len(oracle)

    @pytest.mark.parametrize("max_trace", [30, 60, 100])
    def test_shell_counts_match_word_counting(self, max_trace):
        spectrum = enumerate_spectrum(max_trace)
        expected = shell_counts_by_word_count(max_trace)
        assert {sh.trace: sh.count for sh in spectrum.shells} == expected
        assert spectrum.class_count == sum(expected.values())
        assert all(spectrum.mult(t) == n for t, n in expected.items())

    def test_words_longer_than_a_machine_word(self):
        # L^k R has trace k + 2: at max_trace 100 the longest word has 99 letters
        spectrum = enumerate_spectrum(100)
        oracle = list(lyndon_words(100))
        assert max(len(word) for word, _ in oracle) == 99
        longest = sorted(pair for pair in oracle if len(pair[0]) == 99)
        assert longest == [("L" * 98 + "R", 100), ("L" + "R" * 98, 100)]
        assert all(trace_of_word(word) == trace for word, trace in oracle if len(word) > 64)
        assert program_counts(spectrum) == counts_per_trace(oracle)

    def test_capacity_error_on_first_words(self):
        # the words L^k R alone exceed the limit
        with pytest.raises(CapacityError):
            enumerate_spectrum(60, max_classes=40)

    def test_classes_sorted(self):
        spectrum = enumerate_spectrum(12)
        traces = sorted(set(brute_force_classes(12).values()))
        assert spectrum.columns[0].tolist() == traces

    def test_min_trace_at_each_length(self):
        # underpins the completeness cutoff: min trace at length ell is ell+1
        for ell in range(2, 13):
            best = min(
                trace_of_word(w)
                for w in ("".join(b) for b in itertools.product("LR", repeat=ell))
                if is_primitive(w)
            )
            assert best == ell + 1

    def test_lengths_strictly_increasing(self):
        spectrum = enumerate_spectrum(30)
        lengths = [sh.length for sh in spectrum.shells]
        assert all(a < b for a, b in zip(lengths, lengths[1:]))

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            enumerate_spectrum(60, max_classes=10)

    def test_capacity_refused_before_the_walk_allocates(self):
        # the walk's per-trace list alone would take 40 MB here
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                enumerate_spectrum(5_000_000, max_classes=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_capacity_boundary_at_the_benchmark_bound(self):
        with pytest.raises(CapacityError):
            enumerate_spectrum(800, max_classes=52_090)
        assert enumerate_spectrum(800, max_classes=52_091).class_count == 52_091

    @pytest.mark.parametrize("max_classes", [math.nan, 1.5])
    def test_capacity_must_be_an_integer(self, max_classes):
        # a nan cap would fail both capacity comparisons and never refuse
        with pytest.raises(TypeError):
            enumerate_spectrum(200, max_classes=max_classes)

    def test_capacity_takes_a_numpy_integer(self):
        spectrum = enumerate_spectrum(800, max_classes=np.int64(52_091))
        assert spectrum.class_count == 52_091

    @pytest.mark.parametrize("max_trace", [60, 100])
    def test_capacity_boundary_inside_a_run(self, max_trace):
        # the last classes the walk finds are counted as runs of R letters
        total = enumerate_spectrum(max_trace).class_count
        with pytest.raises(CapacityError):
            enumerate_spectrum(max_trace, max_classes=total - 1)
        assert enumerate_spectrum(max_trace, max_classes=total).class_count == total

    @pytest.mark.parametrize("max_trace", [*range(3, 14), 100, 800])
    def test_counts_are_the_classes_per_trace(self, max_trace):
        # the striding walk and the oracle's plain prenecklace walk agree
        spectrum = enumerate_spectrum(max_trace)
        assert program_counts(spectrum) == counts_per_trace(lyndon_words(max_trace))

    def test_walk_keeps_no_words(self):
        enumerate_spectrum(40)  # warm up imports and caches outside the trace
        tracemalloc.start()
        try:
            spectrum = enumerate_spectrum(800)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spectrum.class_count == 52_091
        assert peak < 0.5 * 2**20

    def test_min_trace_validation(self):
        with pytest.raises(ValueError):
            enumerate_spectrum(2)

    @pytest.mark.parametrize("max_trace", [10.5, 12.0, math.inf, math.nan, "12"])
    def test_non_integral_bound_refused(self, max_trace):
        with pytest.raises(TypeError):
            enumerate_spectrum(max_trace)

    def test_numpy_integer_bound(self):
        spectrum = enumerate_spectrum(np.int64(12))
        assert type(spectrum.max_trace) is int
        assert spectrum == enumerate_spectrum(12)


def first_line(max_trace, rows):
    """The first line of a version-5 cache whose rows, with LF line ends,
    are `rows`: the format spelled out here, apart from the program's."""
    return (f"# hypzeta spectrum cache v5 group=modular max_trace={max_trace}"
            f" generator_convention={GENERATOR_CONVENTION} rows_crc32={zlib.crc32(rows.encode())}")


def _write_rows(path, lines, max_trace=10):
    """Write `lines` as the cache file with LF line ends, its first line
    replaced by the one the writer gives the rows below the header, so only
    the header and rows can be refused."""
    rows = "".join(line + "\n" for line in lines[2:])
    path.write_text("\n".join([first_line(max_trace, rows), *lines[1:]]) + "\n")


class TestCache:
    def test_round_trip(self, tmp_path):
        spectrum = enumerate_spectrum(15)
        path = tmp_path / "spec.csv"
        write_cache(spectrum, path)
        loaded = read_cache(path, 15)
        assert loaded is not None
        assert loaded == spectrum
        assert loaded.shells == spectrum.shells
        assert loaded.max_trace == 15

    @pytest.mark.parametrize("max_trace", [3, 4, 12, 40, 200, 800])
    def test_round_trip_bit_identical(self, tmp_path, max_trace):
        spectrum = enumerate_spectrum(max_trace)
        write_cache(spectrum, tmp_path / "spec.csv")
        loaded = read_cache(tmp_path / "spec.csv", max_trace)
        assert np.array_equal(loaded.columns, spectrum.columns)
        assert loaded == spectrum

    def test_metadata_mismatch_rejected(self, tmp_path):
        spectrum = enumerate_spectrum(15)
        path = tmp_path / "spec.csv"
        write_cache(spectrum, path)
        assert read_cache(path, 16) is None
        lines = path.read_text().splitlines()
        assert " group=modular " in lines[0]
        lines[0] = lines[0].replace(" group=modular ", " group=other ")
        path.write_text("\n".join(lines) + "\n")
        assert read_cache(path, 15) is None

    def test_corrupt_metadata_rejected(self, tmp_path):
        spectrum = enumerate_spectrum(10)
        path = tmp_path / "spec.csv"
        write_cache(spectrum, path)
        text = path.read_text()
        assert text.startswith(f"# hypzeta spectrum cache v{CACHE_VERSION} ")
        path.write_text(text.replace(f" v{CACHE_VERSION} ", " v0 ", 1))
        assert read_cache(path, 10) is None

    def test_missing_first_line_rejected(self, tmp_path):
        spectrum = enumerate_spectrum(10)
        path = tmp_path / "spec.csv"
        write_cache(spectrum, path)
        path.write_text("\n".join(path.read_text().splitlines()[1:]) + "\n")
        assert read_cache(path, 10) is None

    # each field of the first line, as write_cache writes it for T = 10, and
    # a tampered value of it
    @pytest.mark.parametrize("field, tampered", [
        (" v5 ", " v4 "),
        (" group=modular ", " group=Gamma0(2) "),
        (" max_trace=10 ", " max_trace=11 "),
        (f" generator_convention={GENERATOR_CONVENTION} ",
         " generator_convention=L=[[1,0],[1,1]],R=[[1,1],[0,1]] "),
        (" rows_crc32=", " rows_crc32=1"),
    ])
    def test_tampered_first_line_field_is_a_miss(self, tmp_path, field, tampered):
        path = tmp_path / "spec.csv"
        write_cache(enumerate_spectrum(10), path)
        lines = path.read_text().splitlines()
        assert lines[0].count(field) == 1
        lines[0] = lines[0].replace(field, tampered)
        path.write_text("\n".join(lines) + "\n")
        assert read_cache(path, 10) is None

    def test_version_3_pair_is_a_miss_and_rewritten(self, tmp_path):
        # the version-3 cache: the header and rows alone, and a JSON sidecar
        path = tmp_path / "spec.csv"
        spectrum = enumerate_spectrum(10)
        write_cache(spectrum, path)
        written = path.read_bytes()
        rows = "".join(f"{sh.trace},{sh.count}\n" for sh in spectrum.shells)
        path.write_bytes(b"trace,count\r\n" + rows.replace("\n", "\r\n").encode())
        sidecar = tmp_path / "spec.csv.meta.json"
        sidecar.write_text(json.dumps({
            "generator_convention": GENERATOR_CONVENTION, "group": "modular", "max_trace": 10,
            "rows_crc32": zlib.crc32(rows.encode()), "version": "3"}, indent=2, sort_keys=True) + "\n")
        assert read_cache(path, 10) is None
        write_cache(spectrum, path)
        assert path.read_bytes() == written
        assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.csv"]
        assert read_cache(path, 10) == spectrum

    def test_version_4_cache_is_a_miss_and_rewritten(self, tmp_path):
        # the version-4 cache: its own first line, then trace,count rows
        path = tmp_path / "spec.csv"
        spectrum = enumerate_spectrum(10)
        write_cache(spectrum, path)
        written = path.read_bytes()
        rows = "".join(f"{sh.trace},{sh.count}\n" for sh in spectrum.shells)
        first = first_line(10, rows).replace(" v5 ", " v4 ", 1)
        path.write_bytes(f"{first}\ntrace,count\n{rows}".replace("\n", "\r\n").encode())
        assert read_cache(path, 10) is None
        write_cache(spectrum, path)
        assert path.read_bytes() == written
        assert read_cache(path, 10) == spectrum

    def test_rewrite_replaces_the_file(self, tmp_path):
        # a reader holding the old file keeps it whole; the new one leaves no
        # partial file beside it
        path = tmp_path / "spec.csv"
        write_cache(enumerate_spectrum(10), path)
        with path.open("rb") as old:
            write_cache(enumerate_spectrum(12), path)
            assert old.read().startswith(b"# hypzeta spectrum cache v5 group=modular max_trace=10 ")
        assert read_cache(path, 12) == enumerate_spectrum(12)
        assert [p.name for p in tmp_path.iterdir()] == ["spec.csv"]

    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "spec.csv"
        write_cache(enumerate_spectrum(10), path)
        written = path.read_bytes()

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError):
            write_cache(enumerate_spectrum(12), path)
        assert path.read_bytes() == written
        assert [p.name for p in tmp_path.iterdir()] == ["spec.csv"]

    @pytest.mark.parametrize("max_trace", [800.0, "800"])
    def test_non_integral_bound_refused(self, tmp_path, enumerated_800, max_trace):
        path = tmp_path / "spec.csv"
        write_cache(enumerated_800, path)
        with pytest.raises(TypeError):
            read_cache(path, max_trace)
        # refused before the file is opened: a missing one raises as well
        with pytest.raises(TypeError):
            read_cache(tmp_path / "absent.csv", max_trace)

    def test_numpy_integer_bound(self, tmp_path, enumerated_800):
        path = tmp_path / "spec.csv"
        write_cache(enumerated_800, path)
        loaded = read_cache(path, np.int64(800))
        assert type(loaded.max_trace) is int
        assert loaded == enumerated_800

    def test_header_checked(self, tmp_path):
        path = tmp_path / "spec.csv"
        write_cache(enumerate_spectrum(10), path)
        body = path.read_text().splitlines()
        for header in ("trace,count", "count,trace", "trace,count,length,norm", "count,", "Count", ""):
            body[1] = header
            path.write_text("\n".join(body) + "\n")
            assert read_cache(path, 10) is None

    def test_rewritten_with_lf_line_ends_hits(self, tmp_path):
        # the rows below are rewritten this way, so they are refused for the row
        path = tmp_path / "spec.csv"
        write_cache(enumerate_spectrum(10), path)
        body = path.read_text().splitlines()
        path.write_text("\n".join(body) + "\n")
        assert read_cache(path, 10) == enumerate_spectrum(10)
        _write_rows(path, body)
        assert path.read_text().splitlines() == body
        assert read_cache(path, 10) == enumerate_spectrum(10)

    def test_crc_of_the_rows_recorded(self, tmp_path):
        path = tmp_path / "spec.csv"
        write_cache(enumerate_spectrum(10), path)
        first, header, rows = path.read_bytes().replace(b"\r\n", b"\n").split(b"\n", 2)
        assert header == b"count"
        assert first.decode() == first_line(10, rows.decode())
        assert first.endswith(b" rows_crc32=%d" % zlib.crc32(rows))

    # the ids are the version-4 rows these counts stand for
    @pytest.mark.parametrize("row", [
        pytest.param("3", id="4,3"), pytest.param("1", id="4,1"), pytest.param("20", id="4,20"),
    ])
    def test_edited_count_is_a_miss(self, tmp_path, row):
        # well-formed rows the pattern passes: only the CRC refuses them
        path = tmp_path / "spec.csv"
        write_cache(enumerate_spectrum(10), path)
        body = path.read_text().splitlines()
        assert body[3] == "2"  # trace 4
        body[3] = row
        path.write_text("\n".join(body) + "\n")
        assert read_cache(path, 10) is None
        _write_rows(path, body)
        assert read_cache(path, 10).mult(4) == int(row)

    # Each replaces the trace-4 row (2). The id is a malformed version-4 row
    # (trace,count) and the value the one-field row that keeps its refusal:
    # a row without its count, with a separator, not of integers, not as the
    # writer writes it, with a count below 1 or past int64, a '#', a tab, a
    # non-ASCII digit or blank, or a row more where a trace was out of order.
    # Rows of version 1 (trace,count,length,norm), each malformed there too,
    # and of version 4 are refused as they stand.
    @pytest.mark.parametrize("row", [
        pytest.param(v5, id=v4) for v4, v5 in [
            ("4", " "), ("4,", ","), ("4,2,1", "2,1"), ("4,2,", "2,"),
            ("4.5,2", "4.5"), ("4,2.5", "2.5"), ("4,2.0", "2.0"), ("4,2e0", "2e0"),
            ("4,two", "two"), ("nan,2", "NaN"), ("4,nan", "nan"), ("4,inf", "inf"),
            (" 4,2", " 2"), ("4, 2", "1 2"), ("4,2 ", "2 "), ("+4,2", "+2"),
            ("04,2", "02"), ("4,02", "002"), ("4;2", "2;"), ("4,\u0662", "\u0662"),
            ("4,2\t", "2\t"), ("4,0", "0"), ("4,-7", "-7"), ("4,-0", "-0"), ("-4,2", "-2"),
            ("2,1", "1\n2"), ("3,1", "2\n2"), ("4,99999999999999999999", "99999999999999999999"),
            ("4,2 # note", "2 # note"), ("#4,2", "#2"), ("4,#", "#"), ("", ""),
        ]
    ] + [
        "4,2,2.6", "4,2,2.6,13.9,1", "4,two,2.6,13.9",
        "4,2,nan,nan", "4,2,inf,13.928203230275509", "4,2,2.633915793849633,-inf",
        "4.5,2,2.633915793849633,13.928203230275509", "4,2.5,2.633915793849633,13.928203230275509",
        "4,0,2.633915793849633,13.928203230275509", "4,-7,2.633915793849633,13.928203230275509",
        "2,1,0.0,1.0", "3,1,1.9248473002384139,6.854101966249685",
        "4,2,2.6,13.928203230275509", "4,2,2.633915793849633,13.9", "4,2,2.633915793849633,13.928203230275509 # note",
        "4,2",
    ])
    def test_malformed_row_rejected(self, tmp_path, row):
        path = tmp_path / "spec.csv"
        write_cache(enumerate_spectrum(10), path)
        body = path.read_text().splitlines()
        body[3] = row
        _write_rows(path, body)
        assert read_cache(path, 10) is None

    def test_trace_below_three_rejected(self, tmp_path):
        # a count for trace 2 above the first row: one row too many
        path = tmp_path / "spec.csv"
        write_cache(enumerate_spectrum(10), path)
        body = path.read_text().splitlines()
        _write_rows(path, body[:2] + ["1"] + body[2:])
        assert read_cache(path, 10) is None

    def test_trace_above_max_trace_rejected(self, tmp_path):
        # the count of trace 11 below the last row: one row too many
        path = tmp_path / "spec.csv"
        write_cache(enumerate_spectrum(10), path)
        extra = str(enumerate_spectrum(11).mult(11))
        _write_rows(path, path.read_text().splitlines() + [extra])
        assert read_cache(path, 10) is None

    def test_row_too_few_rejected(self, tmp_path):
        # the counts of traces 3 to 9 under the first line of T = 10
        path = tmp_path / "spec.csv"
        write_cache(enumerate_spectrum(10), path)
        _write_rows(path, path.read_text().splitlines()[:-1])
        assert read_cache(path, 10) is None

    # ids as above
    @pytest.mark.parametrize("row", [
        pytest.param("4.5", id="4.5,2"), pytest.param("2.0", id="4,2.0"), pytest.param("2.5", id="4,2.5"),
    ])
    def test_refusal_rests_on_no_numpy_int_parsing(self, tmp_path, monkeypatch, row):
        # numpy < 2 parses "2.5" as the integer 2, with only a DeprecationWarning
        def lenient(text, dtype, sep):
            return np.array([float(field) for field in text.split(sep) if field]).astype(dtype)

        monkeypatch.setattr(np, "fromstring", lenient)
        path = tmp_path / "spec.csv"
        write_cache(enumerate_spectrum(10), path)
        assert read_cache(path, 10) == enumerate_spectrum(10)
        body = path.read_text().splitlines()
        body[3] = row
        _write_rows(path, body)
        assert read_cache(path, 10) is None

    def test_undecodable_body_rejected(self, tmp_path):
        path = tmp_path / "spec.csv"
        write_cache(enumerate_spectrum(10), path)
        path.write_bytes(path.read_bytes() + b"4,2,\xff\xfe\n")
        assert read_cache(path, 10) is None

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "spec.csv"
        write_cache(enumerate_spectrum(10), path)
        _write_rows(path, path.read_text().splitlines()[:2])
        assert read_cache(path, 10) is None

    @pytest.mark.parametrize("max_trace", [3, 4, 12, 200, 800])
    def test_file_is_the_csv_writer_rendering(self, tmp_path, max_trace):
        # below the first line, which holds commas of its own
        spectrum = enumerate_spectrum(max_trace)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(("count",))
        for sh in spectrum.shells:
            writer.writerow([sh.count])
        rows = expected.getvalue().partition("\r\n")[2].replace("\r\n", "\n")
        path = tmp_path / "spec.csv"
        write_cache(spectrum, path)
        assert path.read_bytes() == (first_line(max_trace, rows) + "\r\n" + expected.getvalue()).encode()
        assert path.read_bytes().count(b"\r\n") == spectrum.columns.shape[1] + 2

    @pytest.mark.parametrize("columns, max_trace, missing", [
        (np.empty((4, 0)), 3, 3),
        (enumerate_spectrum(12).columns[:, enumerate_spectrum(12).columns[0] != 7], 12, 7),
    ], ids=["empty", "no-trace-7"])
    def test_incomplete_spectrum_refused_before_writing(self, tmp_path, columns, max_trace, missing):
        # the cache keeps no trace column, so a table missing a trace
        # would be read back with its counts moved to the wrong traces
        with pytest.raises(DomainError, match=f"trace {missing} is missing"):
            write_cache(LengthSpectrum(columns, max_trace), tmp_path / "spec.csv")
        assert list(tmp_path.iterdir()) == []

    def test_generator_convention_recorded(self, tmp_path):
        path = tmp_path / "spec.csv"
        write_cache(enumerate_spectrum(10), path)
        first = path.read_text().partition("\n")[0]
        assert f" generator_convention={GENERATOR_CONVENTION} " in first


@pytest.mark.parametrize("bounds", [(800, 40, 2000), (2000, 40, 800)])
def test_length_table_is_libm_acosh(monkeypatch, bounds):
    # the table a fresh process starts from, grown by each enumeration in turn
    empty = np.full(2, math.nan)
    empty.flags.writeable = False
    monkeypatch.setattr(length_spectrum, "_LENGTHS", empty)
    for max_trace in bounds:
        spectrum = enumerate_spectrum(max_trace)
        trace, length = spectrum.columns[0].tolist(), spectrum.columns[3]
        expected = np.array([2.0 * math.acosh(t / 2.0) for t in trace])
        assert expected.tobytes() == length.tobytes()
    table = length_spectrum._LENGTHS
    assert table.size == 2001 and not table.flags.writeable
    expected = np.array([2.0 * math.acosh(t / 2.0) for t in range(2, 2001)])
    assert expected.tobytes() == table[2:].tobytes()


@pytest.fixture(scope="module")
def enumerated_800():
    return enumerate_spectrum(800)


@pytest.fixture(scope="module")
def cached_800(enumerated_800, tmp_path_factory):
    path = tmp_path_factory.mktemp("cache") / "spec.csv"
    write_cache(enumerated_800, path)
    return read_cache(path, 800)


@given(st.integers(min_value=3, max_value=400))
@settings(max_examples=100, deadline=None)
def test_every_trace_from_three_has_a_class(max_trace):
    # L^(t-2) R has trace t; so the version-5 cache stores no trace column
    assert trace_of_word("L" * (max_trace - 2) + "R") == max_trace
    assert enumerate_spectrum(max_trace).columns[0].tolist() == list(range(3, max_trace + 1))


@given(st.integers(min_value=3, max_value=400))
@settings(max_examples=100, deadline=None)
def test_spectrum_is_a_prefix_of_the_benchmark_spectrum(enumerated_800, max_trace):
    # every cut and run boundary moves with the bound; the classes of a
    # trace do not
    columns = enumerated_800.columns
    expected = columns[:, columns[0] <= max_trace]
    assert np.array_equal(enumerate_spectrum(max_trace).columns, expected)


def test_complete_at_the_benchmark_bound(enumerated_800):
    """Every nonnegative matrix of SL(2,Z) with trace t >= 3 is one word using
    both letters, u^k for one primitive u, and the class of u has |u|
    rotations; so sum |u| over (u, k) with tr(u^k) = t counts the matrices,
    sum over 1 <= a < t of d(a(t-a) - 1) with d the divisor count. The
    words u are the oracle's, whose classes per trace are the program's."""
    max_trace = enumerated_800.max_trace
    letters_by_trace = collections.Counter()
    classes_by_trace = collections.Counter()
    for word, trace in lyndon_words(max_trace):
        letters_by_trace[trace] += len(word)
        classes_by_trace[trace] += 1
    assert program_counts(enumerated_800) == classes_by_trace
    words = np.zeros(max_trace + 1, dtype=np.int64)
    for trace, letters in letters_by_trace.items():
        # tr(u^(k+1)) = tr(u) tr(u^k) - tr(u^(k-1)), with tr(u^0) = 2
        previous, power = 2, trace
        while power <= max_trace:
            words[power] += letters
            previous, power = power, trace * power - previous
    bound = max_trace * max_trace // 4
    divisors = np.zeros(bound + 1, dtype=np.int64)
    for n in range(1, bound + 1):
        divisors[n::n] += 1
    matrices = np.zeros(max_trace + 1, dtype=np.int64)
    for t in range(3, max_trace + 1):
        a = np.arange(1, t)
        matrices[t] = divisors[a * (t - a) - 1].sum()
    assert words[3:].tolist() == matrices[3:].tolist()


class TestColumnarTable:
    def test_cached_shells_match_enumerated(self, enumerated_800, cached_800):
        assert cached_800.shells == enumerated_800.shells
        assert np.array_equal(cached_800.columns, enumerated_800.columns)
        assert cached_800 == enumerated_800

    def test_accessors_agree(self, enumerated_800, cached_800):
        for spectrum in (enumerated_800, cached_800):
            assert spectrum.class_count == 52_091
            assert spectrum.min_length == 2.0 * math.acosh(1.5)
        for trace in range(1, 803):
            assert cached_800.mult(trace) == enumerated_800.mult(trace)

    def test_columns_are_the_shells(self, enumerated_800):
        trace, count, norm, length = enumerated_800.columns
        shells = enumerated_800.shells
        assert trace.tolist() == [sh.trace for sh in shells]
        assert count.tolist() == [sh.count for sh in shells]
        assert norm.tolist() == [sh.norm for sh in shells]
        assert length.tolist() == [sh.length for sh in shells]
        assert (np.diff(trace) > 0).all()

    def test_shells_built_on_first_access(self):
        spectrum = enumerate_spectrum(20)
        assert "shells" not in vars(spectrum)
        assert spectrum.shells is spectrum.shells

    def test_table_is_read_only(self):
        with pytest.raises(ValueError):
            enumerate_spectrum(10).columns[1, 0] = 5.0

    def test_constructed_from_a_copy_of_the_table(self):
        enumerated = enumerate_spectrum(30)
        table = enumerated.columns.copy()
        rebuilt = LengthSpectrum(table, max_trace=30)
        table[1, 0] = 7.0
        assert rebuilt == enumerated
        assert rebuilt.columns.dtype == np.float64 and not rebuilt.columns.flags.writeable
        assert rebuilt.shells == enumerated.shells

    def test_integral_bound_of_any_int_type(self):
        enumerated = enumerate_spectrum(12)
        spectrum = LengthSpectrum(enumerated.columns, np.int64(12))
        assert type(spectrum.max_trace) is int
        assert spectrum == enumerated
        assert all(spectrum.mult(t) == enumerated.mult(t) for t in range(3, 13))

    @pytest.mark.parametrize("max_trace", [12.0, "12"])
    def test_non_integral_bound_refused(self, max_trace):
        with pytest.raises(TypeError):
            LengthSpectrum(enumerate_spectrum(12).columns, max_trace)

    @pytest.mark.parametrize("layout", ["row-major", "flat"])
    def test_other_shapes_refused(self, layout):
        columns = enumerate_spectrum(30).columns
        table = columns.T if layout == "row-major" else columns.ravel()
        with pytest.raises(ValueError):
            LengthSpectrum(table, max_trace=30)


class TestSpectrumContainer:
    def test_mult_of_absent_trace(self):
        spectrum = enumerate_spectrum(10)
        assert spectrum.mult(1000) == 0

    def test_min_length(self):
        assert abs(enumerate_spectrum(5).min_length - 2.0 * math.acosh(1.5)) < 1e-15

    def test_empty_spectrum_min_length(self):
        empty = LengthSpectrum(np.empty((4, 0)), max_trace=3)
        assert empty.min_length == math.inf
