"""Tests of the benchmark's own arithmetic, tracing and op generation.

Run with `PYTHONPATH=src python -m pytest -q perfbench`; they start no
worker and take well under a second.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, self_times, summarize  # noqa: E402


class TestTail:
    def test_highest_percentile_with_ten_beyond(self):
        tail = stats.tail([float(x) for x in range(100, 0, -1)])
        assert (tail.value, tail.percentile, tail.beyond, tail.samples) == (90.0, 90.0, 10, 100)
        assert tail.describe() == "p90.0 of 100 successful ops, 10 beyond it"

    def test_exactly_twenty_samples_is_the_median_rank(self):
        tail = stats.tail([float(x) for x in range(1, 21)])
        assert (tail.value, tail.percentile, tail.beyond) == (10.0, 50.0, 10)

    def test_odd_count(self):
        tail = stats.tail([float(x) for x in range(1, 58)])  # 57 samples
        assert tail.value == 47.0
        assert tail.beyond == 10
        assert tail.percentile == pytest.approx(100.0 * 47 / 57)
        assert tail.describe() == "p82.5 of 57 successful ops, 10 beyond it"

    def test_few_samples_fall_back_to_the_median(self):
        tail = stats.tail([5.0, 1.0, 3.0, 2.0, 4.0, 6.0])
        assert (tail.value, tail.percentile, tail.beyond) == (3.5, 50.0, 3)
        assert tail.describe() == "p50.0 of 6 successful ops, 3 beyond it"

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            stats.tail([])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSelfTime:
    def test_synthetic_spans(self):
        spans = [
            Span("bench.op", 0.0, 10.0, -1, 0, None, None),
            Span("a.outer", 1.0, 4.0, 0, 0, None, None),
            Span("a.inner", 2.0, 3.0, 1, 0, None, None),
            Span("b.other", 5.0, 9.0, 0, 0, None, None),
        ]
        assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]

    def test_nested_call_through_wrappers(self, monkeypatch):
        clock = FakeClock()
        monkeypatch.setattr(tracing.time, "perf_counter", clock)
        tracer = Tracer(ArithmeticError)

        def leaf(x):
            clock.now += 2.0
            return x

        wrapped_leaf = tracer._wrap(leaf, "special_functions.leaf")

        def middle(x):
            clock.now += 1.0
            out = wrapped_leaf(x) + wrapped_leaf(x)  # recursion-free, two children
            clock.now += 0.5
            return out

        wrapped_middle = tracer._wrap(middle, "zeta_factors.middle")
        with tracer.root(0):
            clock.now += 0.25
            assert wrapped_middle(3) == 6
        rows = summarize(tracer.spans)
        assert rows["special_functions.leaf"]["calls"] == 2
        assert rows["special_functions.leaf"]["self_s"] == 4.0
        assert rows["zeta_factors.middle"]["self_s"] == 1.5
        assert rows["zeta_factors.middle"]["total_s"] == 5.5
        assert rows["bench.op"]["self_s"] == 0.25
        assert sum(self_times(tracer.spans)) == 5.75  # the op's wall time

    def test_errors_counted_where_they_leave_a_layer(self):
        spans = [
            Span("bench.op", 0.0, 4.0, -1, 0, None, None),
            Span("zeta_factors.det_laplacian", 0.0, 3.0, 0, 0, "untyped", None),
            Span("zeta_factors.z_infty", 1.0, 2.0, 1, 0, "untyped", None),
            Span("special_functions.log_gamma", 3.0, 3.5, 0, 0, "typed", None),
        ]
        rows = summarize(spans)
        assert rows["zeta_factors.det_laplacian"]["errors_untyped"] == 1
        assert rows["zeta_factors.z_infty"]["errors_untyped"] == 0
        assert rows["special_functions.log_gamma"]["errors_typed"] == 1

    def test_recursion_counted_once_in_total(self):
        spans = [
            Span("special_functions.riemann_zeta", 0.0, 3.0, -1, 0, None, None),
            Span("special_functions.riemann_zeta", 1.0, 2.0, 0, 0, None, None),
        ]
        row = summarize(spans)["special_functions.riemann_zeta"]
        assert (row["calls"], row["total_s"], row["self_s"]) == (2, 3.0, 3.0)


class TestWrapEveryBinding:
    def test_cross_module_bindings_are_wrapped_and_restored(self):
        import hypzeta
        import hypzeta.cli  # noqa: F401
        from hypzeta import special_functions, verify

        original = special_functions.log_barnes_gamma2
        tracer = Tracer(hypzeta.HypzetaError)
        tracer.install()
        try:
            for ns in (special_functions, verify, hypzeta, hypzeta.zeta_factors):
                assert ns.log_barnes_gamma2 is not original
                assert ns.log_barnes_gamma2.__wrapped__ is original
            assert hypzeta.cli.order_Z.__wrapped__ is hypzeta.surface.order_Z.__wrapped__
            with tracer.root(0):
                verify.log_barnes_gamma2(complex(-0.5, 0.3))  # shifts twice by log_gamma
        finally:
            tracer.uninstall()
        assert verify.log_barnes_gamma2 is original
        assert special_functions.log_barnes_gamma2 is original
        spans = [(sp.name, sp.parent) for sp in tracer.spans]
        assert spans == [
            ("bench.op", -1),
            ("special_functions.log_barnes_gamma2", 0),
            ("special_functions.log_gamma", 1),
            ("special_functions.log_gamma", 1),
        ]

    def test_verify_sections_are_traced(self):
        import hypzeta.cli  # noqa: F401
        from hypzeta import verify

        modules = {layer: sys.modules["hypzeta." + layer] for layer in tracing.LAYERS}
        names = {fn.__name__ for fn in tracing.public_functions(modules)}
        assert {"run_verify", "factor_identity_checks", "euler_checks"} <= names
        assert verify.run_verify.__name__ == "run_verify"


def _ops(workload, seed, stream, n_blocks):
    seq = workloads.blocks(workload, seed, stream)
    return [op for _ in range(n_blocks) for op in next(seq)]


def _points(seed, stream, n_blocks):
    return [point for op in _ops("factor_grid", seed, stream, n_blocks) for point in op["points"]]


def _sig(point):
    g, n, orders = point["sig"]
    return g, n, tuple(orders)


class TestOpSequences:
    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_same_seed_same_ops(self, workload):
        assert _ops(workload, 7, "0", 4) == _ops(workload, 7, "0", 4)

    @pytest.mark.parametrize("workload", ["factor_grid", "euler_cli"])
    def test_other_seed_or_stream_other_ops(self, workload):
        base = _ops(workload, 7, "0", 2)
        assert base != _ops(workload, 8, "0", 2)
        assert base != _ops(workload, 7, "1", 2)

    def test_factor_grid_blocks_cover_the_strip(self):
        seq = workloads.blocks("factor_grid", 3, "0")
        size = workloads.FACTOR_BLOCK
        for _ in range(10):
            block = next(seq)
            assert all(len(op["points"]) == workloads.POINTS_PER_OP for op in block)
            block = [point for op in block for point in op["points"]]
            assert len(block) == size
            assert sum("phi_at" in point for point in block) == size // 8
            res = sorted(int((op["s"][0] + 3.0) / 7.0 * size) for op in block)
            ims = sorted(int((op["s"][1] / workloads.im_bound(_sig(op)) + 1.0) / 2.0 * size)
                         for op in block)
            assert res == ims == list(range(size))
        deals = _points(3, "0", 9)[:len(workloads.SIGNATURES)]
        assert sorted(tuple(op["sig"][:2]) + tuple(op["sig"][2]) for op in deals) == sorted(
            (g, n) + orders for g, n, orders in workloads.SIGNATURES)

    def test_factor_grid_stays_in_double_range(self):
        for point in _points(5, "1", 10):
            sig = _sig(point)
            assert abs(point["s"][1]) <= workloads.im_bound(sig) <= workloads.IM_MAX
            assert float(workloads.chi(*sig)) * point["s"][1] ** 2 <= workloads.CHI_IM2_MAX + 1e-9

    def test_range_probe_lies_beyond_the_timed_grid(self):
        assert workloads.RANGE_PROBE
        for sig, (re, im) in workloads.RANGE_PROBE:
            assert workloads.RE_MIN <= re <= workloads.RE_MAX
            assert workloads.im_bound(sig) < im <= workloads.IM_MAX

    def test_euler_blocks_miss_one_in_five(self):
        seq = workloads.blocks("euler_cli", 3, "0")
        for _ in range(20):
            block = next(seq)
            assert sorted(op["kind"] for op in block) == ["hit"] * 4 + ["miss"]
            assert all(1.2 <= op["s"][0] <= 4.0 for op in block)


class TestSpectrumOracle:
    def test_agrees_with_the_program_enumeration(self):
        from hypzeta import enumerate_spectrum

        program = {sh.trace: sh.count for sh in enumerate_spectrum(120).shells}
        assert oracles.spectrum_multiplicities(120) == program

    def test_low_traces(self):
        mult = oracles.spectrum_multiplicities(12)
        assert mult == {3: 1, 4: 2, 5: 2, 6: 3, 7: 2, 8: 4, 9: 2, 10: 6, 11: 3, 12: 4}
