"""Length-spectrum tests: enumeration vs brute force, words, caching."""

import collections
import csv
import io
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypzeta.errors import CapacityError, NonPrimitiveError, SingleLetterError
from hypzeta.length_spectrum import (
    GENERATOR_CONVENTION,
    LengthSpectrum,
    canonical_rotation,
    class_from_word,
    enumerate_spectrum,
    necklace_count,
    read_cache,
    trace_of_word,
    write_cache,
)


def brute_force_classes(max_trace):
    """Oracle: all binary words up to length max_trace - 1, canonicalized."""
    seen = {}
    for ell in range(2, max_trace):
        for bits in itertools.product("LR", repeat=ell):
            word = "".join(bits)
            if len(set(word)) < 2:
                continue
            if (word + word).find(word, 1) != len(word):
                continue
            canon = canonical_rotation(word)
            if canon in seen:
                continue
            trace = trace_of_word(canon)
            if trace <= max_trace:
                seen[canon] = trace
    return seen


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
        if "L" in word and "R" in word and (word + word).find(word, 1) == len(word):
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
    def test_llr_matrix(self):
        cls = class_from_word("LLR")
        assert cls.trace == 4
        # matrix of LLR is [[3,2],[1,1]]
        assert trace_of_word("LLR") == 4

    def test_square_rejected(self):
        with pytest.raises(NonPrimitiveError):
            class_from_word("LRLR")

    def test_single_letter_rejected(self):
        with pytest.raises(SingleLetterError):
            class_from_word("LLLL")
        with pytest.raises(SingleLetterError):
            class_from_word("R")

    def test_norm_length_consistency(self):
        cls = class_from_word("LR")
        assert cls.trace == 3
        assert abs(cls.length - 2.0 * math.acosh(1.5)) < 1e-15
        assert abs(cls.length - math.log(cls.norm)) < 1e-12
        assert cls.norm > 1.0 and cls.length > 0.0

    @given(words)
    @settings(max_examples=300, deadline=None)
    def test_rotations_map_to_same_class(self, word):
        if len(set(word)) < 2 or (word + word).find(word, 1) != len(word):
            return
        base = class_from_word(word)
        for i in range(len(word)):
            rotated = word[i:] + word[:i]
            assert class_from_word(rotated) == base

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


class TestEnumeration:
    def test_minimal_spectrum(self):
        spectrum = enumerate_spectrum(3)
        assert spectrum.class_count == 1
        cls = spectrum.classes[0]
        assert cls.word == "LR" and cls.trace == 3
        assert abs(cls.length - 1.9248473002384139) < 1e-12

    def test_trace_four(self):
        spectrum = enumerate_spectrum(4)
        assert {c.word for c in spectrum.classes} == {"LR", "LLR", "LRR"}
        assert spectrum.mult(3) == 1 and spectrum.mult(4) == 2

    def test_trace_six(self):
        spectrum = enumerate_spectrum(6)
        assert spectrum.mult(5) == 2
        words5 = {c.word for c in spectrum.classes if c.trace == 5}
        assert words5 == {"LLLR", "LRRR"}
        assert spectrum.mult(6) >= 2
        words6 = {c.word for c in spectrum.classes if c.trace == 6}
        assert {"LLRR", "LLLLR"} <= words6

    @pytest.mark.parametrize("max_trace", [3, 5, 8, 10, 12, 13])
    def test_matches_brute_force(self, max_trace):
        spectrum = enumerate_spectrum(max_trace)
        oracle = brute_force_classes(max_trace)
        assert {c.word: c.trace for c in spectrum.classes} == oracle

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
        longest = max(spectrum.classes, key=lambda cls: len(cls.word))
        assert longest.word == "L" * 98 + "R" and longest.trace == 100
        assert all(class_from_word(c.word) == c for c in spectrum.classes if len(c.word) > 64)

    def test_classes_built_on_first_access(self):
        spectrum = enumerate_spectrum(20)
        assert "classes" not in vars(spectrum)
        assert spectrum.classes is spectrum.classes
        assert len(spectrum.classes) == spectrum.class_count

    def test_capacity_error_on_first_words(self):
        # the words L^k R alone exceed the limit
        with pytest.raises(CapacityError):
            enumerate_spectrum(60, max_classes=40)

    def test_classes_sorted(self):
        spectrum = enumerate_spectrum(12)
        keys = [(c.trace, c.word) for c in spectrum.classes]
        assert keys == sorted(keys)

    def test_min_trace_at_each_length(self):
        # underpins the completeness cutoff: min trace at length ell is ell+1
        for ell in range(2, 13):
            best = min(
                trace_of_word(w)
                for w in ("".join(b) for b in itertools.product("LR", repeat=ell))
                if len(set(w)) > 1 and (w + w).find(w, 1) == len(w)
            )
            assert best == ell + 1

    def test_lengths_strictly_increasing(self):
        spectrum = enumerate_spectrum(30)
        lengths = [sh.length for sh in spectrum.shells]
        assert all(a < b for a, b in zip(lengths, lengths[1:]))

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            enumerate_spectrum(60, max_classes=10)

    def test_capacity_boundary_at_the_benchmark_bound(self):
        with pytest.raises(CapacityError):
            enumerate_spectrum(800, max_classes=52_090)
        assert enumerate_spectrum(800, max_classes=52_091).class_count == 52_091

    @pytest.mark.parametrize("max_trace", [60, 100])
    def test_capacity_boundary_inside_a_run(self, max_trace):
        # the last classes the walk finds are counted as runs of R letters
        total = enumerate_spectrum(max_trace).class_count
        with pytest.raises(CapacityError):
            enumerate_spectrum(max_trace, max_classes=total - 1)
        assert enumerate_spectrum(max_trace, max_classes=total).class_count == total

    @pytest.mark.parametrize("max_trace", [*range(3, 14), 100, 800])
    def test_counts_are_the_classes_per_trace(self, max_trace):
        # the counting walk and the word-recording walk of `classes` agree
        spectrum = enumerate_spectrum(max_trace)
        per_trace = collections.Counter(cls.trace for cls in spectrum.classes)
        assert {sh.trace: sh.count for sh in spectrum.shells} == per_trace

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


class TestNecklaceCount:
    def test_small_values(self):
        assert necklace_count(2) == 1  # {LR}
        assert necklace_count(3) == 2  # {LLR, LRR}
        assert necklace_count(6) == 9  # (64 - 8 - 4 + 2)/6

    def test_exhaustive_match(self):
        for ell in range(2, 13):
            seen = set()
            for bits in itertools.product("LR", repeat=ell):
                word = "".join(bits)
                if len(set(word)) < 2:
                    continue
                if (word + word).find(word, 1) != len(word):
                    continue
                seen.add(canonical_rotation(word))
            assert necklace_count(ell) == len(seen)

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            necklace_count(1)


class TestCache:
    def test_round_trip(self, tmp_path):
        spectrum = enumerate_spectrum(15)
        path = tmp_path / "spec.csv"
        write_cache(spectrum, path)
        loaded = read_cache(path, 15)
        assert loaded is not None
        assert loaded.classes == spectrum.classes
        assert loaded.shells == spectrum.shells
        assert loaded.max_trace == 15

    def test_metadata_mismatch_rejected(self, tmp_path):
        spectrum = enumerate_spectrum(15)
        path = tmp_path / "spec.csv"
        write_cache(spectrum, path)
        assert read_cache(path, 16) is None
        meta = path.with_name(path.name + ".meta.json")
        meta.write_text(meta.read_text().replace('"group": "modular"', '"group": "other"'))
        assert read_cache(path, 15) is None

    def test_corrupt_metadata_rejected(self, tmp_path):
        spectrum = enumerate_spectrum(10)
        path = tmp_path / "spec.csv"
        write_cache(spectrum, path)
        meta = path.with_name(path.name + ".meta.json")
        meta.write_text(meta.read_text().replace('"1"', '"0"'))
        assert read_cache(path, 10) is None

    def test_missing_sidecar_rejected(self, tmp_path):
        spectrum = enumerate_spectrum(10)
        path = tmp_path / "spec.csv"
        write_cache(spectrum, path)
        path.with_name(path.name + ".meta.json").unlink()
        assert read_cache(path, 10) is None

    def test_header_checked(self, tmp_path):
        path = tmp_path / "spec.csv"
        write_cache(enumerate_spectrum(10), path)
        body = path.read_text().splitlines()
        body[0] = "trace,count,norm,length"
        path.write_text("\n".join(body) + "\n")
        assert read_cache(path, 10) is None

    # each replaces the trace-4 row (4,2,2.633915793849633,13.928203230275509)
    @pytest.mark.parametrize("row", [
        "4,2,2.6", "4,2,2.6,13.9,1", "4,two,2.6,13.9",
        "4,2,nan,nan", "4,2,inf,13.928203230275509", "4,2,2.633915793849633,-inf",
        "4.5,2,2.633915793849633,13.928203230275509", "4,2.5,2.633915793849633,13.928203230275509",
        "4,0,2.633915793849633,13.928203230275509", "4,-7,2.633915793849633,13.928203230275509",
        "2,1,0.0,1.0", "3,1,1.9248473002384139,6.854101966249685",
        "4,2,2.6,13.928203230275509", "4,2,2.633915793849633,13.9", "4,2,2.633915793849633,13.928203230275509 # note",
        "",
    ])
    def test_malformed_row_rejected(self, tmp_path, row):
        path = tmp_path / "spec.csv"
        write_cache(enumerate_spectrum(10), path)
        body = path.read_text().splitlines()
        body[2] = row
        path.write_text("\n".join(body) + "\n")
        assert read_cache(path, 10) is None

    def test_trace_below_three_rejected(self, tmp_path):
        path = tmp_path / "spec.csv"
        write_cache(enumerate_spectrum(10), path)
        body = path.read_text().splitlines()
        body[1] = "2,1,0.0,1.0"  # the first row; ascending order still holds
        path.write_text("\n".join(body) + "\n")
        assert read_cache(path, 10) is None

    def test_trace_above_max_trace_rejected(self, tmp_path):
        path = tmp_path / "spec.csv"
        write_cache(enumerate_spectrum(10), path)
        length, norm = 2.0 * math.acosh(5.5), ((11.0 + math.sqrt(117.0)) / 2.0) ** 2
        with path.open("a") as fh:
            fh.write(f"11,6,{length!r},{norm!r}\n")
        assert read_cache(path, 10) is None

    def test_last_digit_of_length_and_norm_tolerated(self, tmp_path):
        path = tmp_path / "spec.csv"
        write_cache(enumerate_spectrum(10), path)
        body = path.read_text().splitlines()
        body[2] = "4,2,2.6339157938496334,13.92820323027551"
        path.write_text("\n".join(body) + "\n")
        assert read_cache(path, 10).mult(4) == 2

    def test_undecodable_body_rejected(self, tmp_path):
        path = tmp_path / "spec.csv"
        write_cache(enumerate_spectrum(10), path)
        path.write_bytes(path.read_bytes() + b"4,2,\xff\xfe\n")
        assert read_cache(path, 10) is None

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "spec.csv"
        write_cache(enumerate_spectrum(10), path)
        path.write_text(path.read_text().splitlines()[0] + "\n")
        assert read_cache(path, 10) is None

    @pytest.mark.parametrize("max_trace", [3, 4, 12, 200, 800])
    def test_file_is_the_csv_writer_rendering(self, tmp_path, max_trace):
        spectrum = enumerate_spectrum(max_trace)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(("trace", "count", "length", "norm"))
        for sh in spectrum.shells:
            writer.writerow([sh.trace, sh.count, repr(sh.length), repr(sh.norm)])
        path = tmp_path / "spec.csv"
        write_cache(spectrum, path)
        assert path.read_bytes() == expected.getvalue().encode()
        assert path.read_bytes().count(b"\r\n") == spectrum.columns.shape[1] + 1

    def test_generator_convention_recorded(self, tmp_path):
        path = tmp_path / "spec.csv"
        write_cache(enumerate_spectrum(10), path)
        meta = path.with_name(path.name + ".meta.json").read_text()
        assert GENERATOR_CONVENTION in meta


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
    sum over 1 <= a < t of d(a(t-a) - 1) with d the divisor count."""
    max_trace = enumerated_800.max_trace
    letters_by_trace = collections.Counter()
    for cls in enumerated_800.classes:
        letters_by_trace[cls.trace] += len(cls.word)
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
        assert rebuilt.classes == enumerated.classes

    @pytest.mark.parametrize("delta, max_trace", [(-1, 30), (1, 30), (0, 31)])
    def test_no_classes_for_another_table(self, delta, max_trace):
        # one count lowered (the walk finds more than class_count) or
        # raised, or the table of a lower bound
        table = enumerate_spectrum(30).columns.copy()
        table[1, 5] += delta
        assert LengthSpectrum(table, max_trace=max_trace).classes is None

    def test_integral_bound_of_any_int_type(self):
        enumerated = enumerate_spectrum(12)
        spectrum = LengthSpectrum(enumerated.columns, np.int64(12))
        assert type(spectrum.max_trace) is int
        assert spectrum == enumerated and spectrum.classes == enumerated.classes

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
