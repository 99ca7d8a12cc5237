"""CLI tests: subcommands, exit codes, JSON schema, caching, determinism."""

import io
import json
import math
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import hypzeta
from hypzeta.cli import run


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def invoke_json(argv):
    code, out, err = invoke(argv + ["--json"])
    return code, json.loads(out), err


@pytest.fixture
def no_trace_shell(monkeypatch):
    """Make building a TraceShell, the spectrum's public view, fail the test."""
    from hypzeta.length_spectrum import TraceShell

    def refuse(self, *args, **kwargs):
        raise AssertionError("a TraceShell was built")

    monkeypatch.setattr(TraceShell, "__init__", refuse)


def result_of(report, name):
    for item in report["results"]:
        if item["name"] == name:
            return item["value"]
    raise KeyError(name)


class TestExitCodes:
    def test_success(self):
        code, out, _ = invoke(["constants", "--signature", "0,1,2:3"])
        assert code == 0 and "area" in out

    def test_usage_error_bad_signature(self):
        code, _, err = invoke(["orders", "--signature", "junk", "--from", "-1", "--to", "1"])
        assert code == 1 and "usage error" in err

    def test_usage_error_unknown_flag(self):
        code, _, err = invoke(["orders", "--nope"])
        assert code == 1

    def test_numerical_error(self):
        code, _, err = invoke(["zeta", "--s", "0.5,0", "--max-trace", "10"])
        assert code == 2 and "numerical failure" in err

    def test_numerical_error_emits_json(self):
        code, out, _ = invoke(["zeta", "--s", "0.5,0", "--max-trace", "10", "--json"])
        assert code == 2
        payload = json.loads(out)
        assert payload["error"]["kind"] == "DomainError"

    def test_pole_is_numerical_error(self):
        code, _, err = invoke(["kappa", "--signature", "0,1,2:3", "--s", "2,0"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["det-laplacian", "--signature", "2,0,", "--s", "3,15", "--z-value", "1,0"],
        # |kappa| = e^749 here; at 0.3,280 on 0,1,2:3 it is finite (see below)
        ["kappa", "--signature", "2,1,", "--s", "0.7,200"],
        # the Ruelle leading coefficient: (2 pi)^398, and a product of orders
        ["ruelle-leading", "--signature", "200,0,"],
        ["ruelle-leading", "--signature", "0,0," + ":".join([str(10**200)] * 3)],
        ["constants", "--signature", "400,0,"],  # c0 underflows to 0
        ["constants", "--signature", "0,0,100000:100000:100000"],  # E overflows
        # phi refuses |Im s| > 5 * 10^5, where it would read zeta past 10^6
        ["kappa", "--signature", "0,1,2:3", "--s", "0.3,1e300"],
    ])
    def test_overflow_is_numerical_error(self, argv):
        code, out, err = invoke(argv + ["--json"])
        assert code == 2 and "numerical failure" in err
        assert json.loads(out)["error"]["kind"] == "DomainError"

    def test_phi_bound_names_the_callers_s(self):
        code, out, err = invoke(["kappa", "--signature", "0,1,2:3", "--s", "0.3,6e5", "--json"])
        error = json.loads(out)["error"]
        assert code == 2 and "numerical failure" in err
        assert error["kind"] == "DomainError" and "600000j" in error["message"], error


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv", [
        ["zeta", "--s", "nan", "--max-trace", "10"],
        ["zeta", "--s", "inf", "--max-trace", "10"],
        ["zeta", "--s", "2,-inf", "--max-trace", "10"],
        ["ruelle", "--method", "direct", "--s", "nan", "--max-trace", "10"],
        ["kappa", "--signature", "0,1,2:3", "--s", "nan"],
        ["det-laplacian", "--signature", "0,1,2:3", "--s", "2,0", "--z-value", "1e400,0"],
    ])
    def test_usage_error(self, argv):
        code, out, err = invoke(argv)
        assert code == 1 and "finite" in err and out == ""

    def test_usage_error_emits_json(self):
        code, out, _ = invoke(["zeta", "--s", "nan", "--json"])
        assert code == 1
        assert json.loads(out)["error"]["kind"] == "usage"


class TestParserReuse:
    def test_method_default_restored(self):
        argv = ["--s", "2,0", "--max-trace", "20"]
        code, quotient, _ = invoke_json(["ruelle", "--method", "quotient"] + argv)
        assert code == 0 and quotient["inputs"]["method"] == "quotient"
        code, direct, _ = invoke_json(["ruelle"] + argv)
        assert code == 0 and direct["inputs"]["method"] == "direct"
        assert result_of(direct, "k_cutoff_used") == 0

    def test_usage_error_does_not_leak(self, tmp_path):
        code, _, err = invoke(["zeta", "--s", "2,0", "--max-trace", "20", "--bogus"])
        assert code == 1 and "--bogus" in err
        code, _, _ = invoke(["zeta", "--max-trace", "20"])
        assert code == 1
        code, report, err = invoke_json(["zeta", "--s", "2,0", "--max-trace", "20"])
        assert code == 0 and err == ""
        assert report["inputs"] == {"s": {"re": 2.0, "im": 0.0}, "max_trace": 20}


class TestOrders:
    def test_paper_example_row(self):
        code, report, _ = invoke_json(
            ["orders", "--signature", "0,1,2:3", "--from", "-6", "--to", "1"]
        )
        assert code == 0
        table = result_of(report, "orders")
        by_point = {row["point"]: row for row in table}
        assert by_point[0]["order_R"] == -2
        assert by_point[-6]["order_R"] == -2
        assert by_point[-6]["order_Z"] == 1
        assert by_point[1]["order_Z"] == 1
        assert by_point[-5.5]["order_Z"] == -1

    @pytest.mark.parametrize("signature", ["0,1,2:3", "2,0,", "0,0,2:3:7", "1,1,2:5"])
    def test_every_integer_row_has_an_integer_order_Z(self, signature):
        code, report, _ = invoke_json(
            ["orders", "--signature", signature, "--from", "-12", "--to", "12"]
        )
        assert code == 0
        rows = [row for row in result_of(report, "orders") if type(row["point"]) is int]
        assert [row["point"] for row in rows] == list(range(-12, 13))
        assert all(type(row["order_Z"]) is int for row in rows), rows

    def test_from_beyond_to_rejected(self):
        code, _, err = invoke(
            ["orders", "--signature", "0,1,2:3", "--from", "2", "--to", "-2"]
        )
        assert code == 1

    @pytest.mark.parametrize("lo, hi", [("-3", "10000000000"), ("0", "100000")])
    def test_span_past_a_hundred_thousand_points_rejected(self, lo, hi):
        code, out, err = invoke(
            ["orders", "--signature", "0,1,2:3", "--from", lo, "--to", hi, "--json"]
        )
        assert code == 1 and "100,000" in err
        assert json.loads(out)["error"]["kind"] == "usage"


class TestRuelleLeading:
    def test_modular_json(self):
        code, report, _ = invoke_json(["ruelle-leading", "--signature", "0,1,2:3"])
        assert code == 0
        assert result_of(report, "order") == -2
        assert abs(result_of(report, "coefficient") - 9.0 / math.pi ** 2) < 1e-10
        assert abs(result_of(report, "abs_coefficient") - 9.0 / math.pi ** 2) < 1e-10
        assert report["notes"] == []
        assert {item["name"] for item in report["results"]} == {
            "order", "coefficient", "abs_coefficient"}


class TestSpectrum:
    def test_minimal_csv(self):
        code, out, _ = invoke(["spectrum", "--max-trace", "3"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "trace,count,length,norm"
        fields = lines[1].split(",")
        assert fields[0] == "3" and fields[1] == "1"
        assert abs(float(fields[2]) - 1.9248473002384139) < 1e-12
        assert abs(float(fields[3]) - 6.854101966249685) < 1e-12

    def test_cache_miss_then_hit(self, tmp_path):
        cache = str(tmp_path / "spec.csv")
        code, report, _ = invoke_json(["spectrum", "--max-trace", "10", "--cache", cache])
        assert code == 0 and report["inputs"]["cache_status"] == "miss"
        code, report, _ = invoke_json(["spectrum", "--max-trace", "10", "--cache", cache])
        assert code == 0 and report["inputs"]["cache_status"] == "hit"

    @pytest.mark.parametrize("argv, target", [
        (["zeta", "--s", "2,0", "--max-trace", "10"], "missing/x.csv"),
        (["spectrum", "--max-trace", "10"], "directory"),
    ])
    def test_unwritable_cache_is_usage_error(self, tmp_path, argv, target):
        (tmp_path / "directory").mkdir()
        cache = str(tmp_path / target)
        code, out, err = invoke(argv + ["--cache", cache, "--json"])
        assert code == 1 and "usage error" in err
        error = json.loads(out)["error"]
        assert error["kind"] == "usage" and cache in error["message"]
        assert not list(tmp_path.rglob("*.tmp"))

    def test_corrupt_cache_reenumerated(self, tmp_path):
        cache = tmp_path / "spec.csv"
        invoke_json(["spectrum", "--max-trace", "10", "--cache", str(cache)])
        rows = cache.read_text().splitlines()
        assert rows[3] == "2"  # trace 4
        cache.write_text("\n".join(rows[:3] + ["2.0"] + rows[4:]) + "\n")
        code, report, _ = invoke_json(["zeta", "--s", "2,0", "--max-trace", "10",
                                       "--cache", str(cache)])
        assert code == 0 and report["inputs"]["cache_status"] == "miss"

    @pytest.mark.parametrize("row", ["4,2,nan,nan", "4,-7,2.633915793849633,13.928203230275509",
                                     "4,nan", "4,-7", "nan", "-7"])
    def test_garbage_row_is_a_miss_and_rewritten(self, tmp_path, row):
        # the four-field rows of version 1 once gave exit 0 with a NaN or a
        # wrong Z(2); the two-field rows of version 4 and the one-field rows
        # are the same defects in the later formats
        cache = tmp_path / "spec.csv"
        argv = ["zeta", "--s", "2,0", "--max-trace", "30", "--cache", str(cache)]
        _, clean, _ = invoke_json(argv)
        written = cache.read_text()
        rows = written.splitlines()
        assert rows[3] == "2"  # trace 4
        cache.write_text("\n".join(rows[:3] + [row] + rows[4:]) + "\n")
        code, report, _ = invoke_json(argv)
        assert code == 0 and report["inputs"]["cache_status"] == "miss"
        assert result_of(report, "value") == result_of(clean, "value")
        assert cache.read_text() == written

    def test_version_1_cache_is_a_miss_and_rewritten(self, tmp_path):
        # the version-1 cache: trace,count,length,norm rows, lengths and norms
        # as repr, and a JSON sidecar
        cache = tmp_path / "spec.csv"
        argv = ["zeta", "--s", "2,0", "--max-trace", "30", "--cache", str(cache)]
        _, clean, _ = invoke_json(argv)
        written, meta = cache.read_bytes(), cache.with_name("spec.csv.meta.json")
        assert written.startswith(b"# hypzeta spectrum cache v5 group=modular max_trace=30 ")
        spectrum = hypzeta.enumerate_spectrum(30)
        rows = ["trace,count,length,norm"] + [
            f"{int(trace)},{int(count)},{length!r},{norm!r}"
            for trace, count, norm, length in spectrum.columns.T.tolist()]
        cache.write_bytes("".join(row + "\r\n" for row in rows).encode())
        meta.write_text(json.dumps({"generator_convention": "L=[[1,1],[0,1]],R=[[1,0],[1,1]]",
                                    "group": "modular", "max_trace": 30, "version": "1"}))
        code, report, _ = invoke_json(argv)
        assert code == 0 and report["inputs"]["cache_status"] == "miss"
        assert result_of(report, "value") == result_of(clean, "value")
        assert cache.read_bytes() == written and not meta.exists()

    def test_version_2_cache_is_a_miss_and_rewritten(self, tmp_path):
        # the version-2 cache: the header and rows alone, and a JSON sidecar
        # without their CRC
        cache = tmp_path / "spec.csv"
        argv = ["zeta", "--s", "2,0", "--max-trace", "30", "--cache", str(cache)]
        _, clean, _ = invoke_json(argv)
        written, meta = cache.read_bytes(), cache.with_name("spec.csv.meta.json")
        cache.write_bytes(written.partition(b"\r\n")[2])
        meta.write_text(json.dumps({"generator_convention": "L=[[1,1],[0,1]],R=[[1,0],[1,1]]",
                                    "group": "modular", "max_trace": 30, "version": "2"},
                                   indent=2, sort_keys=True) + "\n")
        code, report, _ = invoke_json(argv)
        assert code == 0 and report["inputs"]["cache_status"] == "miss"
        assert result_of(report, "value") == result_of(clean, "value")
        assert cache.read_bytes() == written and not meta.exists()

    def test_edited_count_is_a_miss(self, tmp_path):
        # a well-formed row with a wrong count once read as a hit: Z(2) = 0.9498516303946497
        cache = tmp_path / "spec.csv"
        argv = ["zeta", "--s", "2,0", "--max-trace", "10", "--cache", str(cache)]
        _, clean, _ = invoke_json(argv)
        written = cache.read_bytes()
        assert b"\r\ncount\r\n1\r\n2\r\n" in written  # traces 3 and 4
        cache.write_bytes(written.replace(b"\r\ncount\r\n1\r\n2\r\n", b"\r\ncount\r\n1\r\n3\r\n"))
        code, report, _ = invoke_json(argv)
        assert code == 0 and report["inputs"]["cache_status"] == "miss"
        fresh = hypzeta.selberg_Z(hypzeta.enumerate_spectrum(10), 2.0).value
        assert result_of(report, "value") == result_of(clean, "value") == {"re": fresh.real, "im": fresh.imag}
        assert result_of(report, "value")["re"] == 0.9551541049295054
        assert cache.read_bytes() == written

    def test_hit_builds_no_trace_shell(self, tmp_path, no_trace_shell):
        argv = ["zeta", "--s", "2,0", "--max-trace", "60", "--cache", str(tmp_path / "s.csv")]
        _, miss, _ = invoke_json(argv)
        code, hit, _ = invoke_json(argv)
        assert code == 0 and hit["inputs"]["cache_status"] == "hit"
        assert hit["results"] == miss["results"]

    @pytest.mark.parametrize("command", [
        ["spectrum"],
        ["spectrum", "--json"],
        ["ruelle", "--s", "2,0", "--json"],
        ["ruelle", "--method", "direct", "--s", "2,0", "--json"],
    ])
    def test_commands_build_no_trace_shell(self, tmp_path, no_trace_shell, command):
        argv = command + ["--max-trace", "40", "--cache", str(tmp_path / "s.csv")]
        for status in ("miss", "hit"):
            code, out, _ = invoke(argv)
            assert code == 0
            if "--json" in argv:
                assert json.loads(out)["inputs"]["cache_status"] == status

    def test_verify_builds_no_trace_shell(self, no_trace_shell):
        from hypzeta.verify import run_verify

        assert run_verify()["failed_checks"] == 0

    def test_stale_cache_reenumerated(self, tmp_path):
        cache = str(tmp_path / "spec.csv")
        invoke_json(["spectrum", "--max-trace", "10", "--cache", cache])
        code, report, _ = invoke_json(["spectrum", "--max-trace", "12", "--cache", cache])
        assert code == 0 and report["inputs"]["cache_status"] == "miss"


class TestJsonContract:
    def test_round_trip_lossless(self):
        code, out, _ = invoke(
            ["kappa", "--signature", "0,1,2:3", "--s", "0.3,0.2", "--json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload
        kappa_value = result_of(payload, "kappa")
        assert set(kappa_value) == {"re", "im"}
        s_echo = payload["inputs"]["s"]
        assert s_echo == {"re": 0.3, "im": 0.2}

    @pytest.mark.parametrize("argv", [
        ["zeta", "--s", "2,1", "--max-trace", "40"],
        ["ruelle", "--s", "2,1", "--max-trace", "40"],
        ["spectrum", "--max-trace", "40"],
        ["orders", "--signature", "0,1,2:3", "--from", "-3", "--to", "1"],
        ["verify"],
        ["zeta", "--s", "nan"],
    ])
    def test_report_is_one_line(self, argv):
        code, out, _ = invoke(argv + ["--json"])
        assert code in (0, 1)
        assert out.endswith("\n") and out.count("\n") == 1
        assert json.loads(out)

    def test_nested_complex_values_decode(self):
        code, report, _ = invoke_json(
            ["det-laplacian", "--signature", "0,1,2:3", "--s", "2,0.5", "--max-trace", "40"]
        )
        assert code == 0
        assert set(result_of(report, "Z")) == {"re", "im"}
        code, report, _ = invoke_json(["verify"])
        check = next(c for c in report["checks"]
                     if c["name"] == "special_functions: gamma reflection")
        for key in ("lhs", "rhs", "s"):
            assert set(check[key]) == {"re", "im"}, (key, check[key])

    def test_only_complex_gets_encoded(self):
        from hypzeta.cli import _complex_json

        assert json.dumps([1j], default=_complex_json) == '[{"re": 0.0, "im": 1.0}]'
        with pytest.raises(TypeError):
            json.dumps({"x": {1, 2}}, default=_complex_json)

    def test_every_check_carries_tolerance(self):
        code, report, _ = invoke_json(["verify"])
        assert code == 0
        assert report["checks"]
        for check in report["checks"]:
            assert {"name", "lhs", "rhs", "abs_diff", "tolerance", "passed"} <= set(check)

    def test_verify_deterministic_apart_from_timestamp(self):
        def canon(argv):
            _, report, _ = invoke_json(argv)
            blob = dict(report)
            blob.pop("timestamp")
            return json.dumps(blob, sort_keys=True)

        assert canon(["verify"]) == canon(["verify"])


class TestVerifyCommand:
    def test_passes_with_default_tolerances(self):
        code, report, _ = invoke_json(["verify"])
        assert code == 0
        assert result_of(report, "failed_checks") == 0
        assert {item["name"] for item in report["results"]} == {"total_checks", "failed_checks"}
        assert report["notes"] == []
        signed = {c["name"] for c in report["checks"]}
        assert {
            "scattering: modular phi~(0) = stored phi_tilde_0",
            "constants: modular Ruelle leading = +9/pi^2",
            "factor_identities: kappa(1/2) = phi(1/2) [(0;1;2,3)]",
            "factor_identities: kappa(1/2) = phi(1/2) [(0;0;2,3,7)]",
            "factor_identities: kappa(1/2) = phi(1/2) [(1;1;2)]",
        } <= signed

    @pytest.fixture
    def failing_sections(self, monkeypatch):
        """Make two sections fail: one worst-of-grid check, one without a point."""
        from hypzeta import verify

        reflection = verify._worst(
            (s, verify._check("gamma reflection", 1.0, 1.0 + abs(s), 1e-10))
            for s in (0.25 + 1.5j, 0.5 - 2.0j)
        )
        leading = verify._check("modular phi~(0) = stored phi_tilde_0", -1.0, -math.pi / 3, 1e-9)
        monkeypatch.setattr(verify, "special_function_checks", lambda: [reflection])
        monkeypatch.setattr(verify, "scattering_checks", lambda: [leading])

    def test_fails_with_absurd_tolerance(self, failing_sections):
        code, report, err = invoke_json(["verify"])
        assert code == 3
        assert result_of(report, "failed_checks") > 0

    def test_wrong_stored_coefficient_gives_a_full_report(self, monkeypatch):
        from dataclasses import replace

        from hypzeta import verify

        _, clean, _ = invoke_json(["verify"])
        model = verify.modular_model()
        monkeypatch.setattr(verify, "modular_model",
                            lambda: replace(model, phi_tilde_0=model.phi_tilde_0 + 1e-4))
        code, report, _ = invoke_json(["verify"])
        assert code == 3
        assert [c["name"] for c in report["checks"]] == [c["name"] for c in clean["checks"]]
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert "scattering: modular phi~(0) = stored phi_tilde_0" in failed
        assert result_of(report, "failed_checks") == len(failed)

    def test_wrong_double_gamma_product_gives_a_full_report(self, monkeypatch):
        from hypzeta import special_functions

        product = special_functions._log_gamma2_product
        monkeypatch.setattr(special_functions, "_log_gamma2_product",
                            lambda w: product(w) * (1.0 + 1e-9))
        code, report, _ = invoke_json(["verify"])
        assert code == 3 and result_of(report, "total_checks") == len(report["checks"]) == 121
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert {"special_functions: double-gamma recursion",
                "special_functions: double-gamma at integers",
                "special_functions: double-gamma at 1/2"} <= failed

    def test_fail_line_names_the_sample_point(self, failing_sections):
        code, out, _ = invoke(["verify"])
        assert code == 3
        fail_lines = [line for line in out.splitlines() if "FAIL " in line]
        assert any("FAIL special_functions: gamma reflection at s=(" in line
                   for line in fail_lines)
        assert any("FAIL scattering: modular phi~(0) = stored phi_tilde_0: " in line
                   for line in fail_lines)


class TestOptionsPlumbing:
    def test_default_max_trace(self):
        code, report, _ = invoke_json(["zeta", "--s", "2,0"])
        assert code == 0 and report["inputs"]["max_trace"] == 40

    @pytest.mark.parametrize("argv", [
        ["zeta", "--s", "2,0"],
        ["ruelle", "--s", "2,0"],
        ["det-laplacian", "--signature", "0,1,2:3", "--s", "2,0"],
        ["spectrum"],
    ], ids=["zeta", "ruelle", "det-laplacian", "spectrum"])
    def test_max_trace_below_three_is_usage_error(self, argv):
        code, out, err = invoke(argv + ["--max-trace", "2"])
        assert code == 1 and "at least 3" in err and out == ""

    @pytest.mark.parametrize("argv", [
        ["orders", "--signature", "0,1,2:3", "--from", "-1", "--to", "1", "--rel-tol", "1"],
        ["kappa", "--signature", "0,1,2:3", "--s", "0.3,0.2", "--gamma2-cutoff", "64"],
        ["zeta", "--s", "2,0", "--config", "CONFIG"],
        ["kappa", "--signature", "0,1,2:3", "--s", "0.3,0.2", "--group", "modular"],
        ["verify", "--tolerance", "1e-18"],
    ], ids=["orders-rel-tol", "kappa-gamma2-cutoff", "zeta-config", "kappa-group",
            "verify-tolerance"])
    def test_retired_flags_are_usage_errors(self, argv, tmp_path):
        config = tmp_path / "opts.cfg"
        config.write_text("euler_max_trace = 25\n")
        argv = [str(config) if a == "CONFIG" else a for a in argv]
        code, out, err = invoke(argv)
        assert code == 1 and "unrecognized arguments" in err and out == ""

    def test_bad_option_value_is_usage_error(self):
        code, _, _ = invoke(["zeta", "--s", "2,0", "--rel-tol", "-1"])
        assert code == 1

    def test_retired_surface_info_is_usage_error(self):
        code, out, err = invoke(["surface", "info", "--signature", "0,1,2:3"])
        assert code == 1 and "invalid choice" in err and out == ""

    def test_two_cusps_have_no_model(self):
        code, out, err = invoke(["kappa", "--signature", "0,2,2:2", "--s", "0.3,0.2"])
        assert code == 1 and "2 cusps" in err and "--group" not in err and out == ""


class TestDetLaplacian:
    def test_euler_backed(self):
        code, report, _ = invoke_json(
            ["det-laplacian", "--signature", "0,1,2:3", "--s", "2,0", "--max-trace", "40"]
        )
        assert code == 0
        value = result_of(report, "det_laplacian")
        assert value["re"] > 0 and abs(value["im"]) < 1e-12
        assert "euler_product" in report["inputs"]["z_source"]

    def test_probe_value_with_domain_note(self):
        code, report, _ = invoke_json(
            ["det-laplacian", "--signature", "2,0,", "--s", "0.75,0", "--z-value", "1,0"]
        )
        assert code == 0
        assert report["inputs"]["z_source"] == "probe"
        assert any("untrusted" in note for note in report["notes"])

    @pytest.mark.parametrize("extra", [
        ["--max-trace", "500"],
        ["--max-trace", "40"],
        ["--cache", "zz.csv"],
    ], ids=["max-trace", "max-trace-default-value", "cache"])
    def test_probe_refuses_euler_flags(self, extra, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = invoke(
            ["det-laplacian", "--signature", "0,1,2:3", "--s", "2,0",
             "--z-value", "1,0"] + extra
        )
        assert code == 1 and "--z-value" in err and out == ""
        assert list(tmp_path.iterdir()) == []


class TestNegativeRealPart:
    """A value token such as -0.7,0.5 is read as a value, not as an option."""

    def test_kappa(self):
        code, report, err = invoke_json(["kappa", "--signature", "0,1,2:3", "--s", "-0.7,0.5"])
        assert code == 0, err
        _, joined, _ = invoke_json(["kappa", "--signature", "0,1,2:3", "--s=-0.7,0.5"])
        assert report["results"] == joined["results"]
        _, mirror, _ = invoke_json(["kappa", "--signature", "0,1,2:3", "--s", "1.7,-0.5"])
        a, b = result_of(report, "kappa"), result_of(mirror, "kappa")
        assert abs(complex(a["re"], a["im"]) * complex(b["re"], b["im"]) - 1.0) < 1e-10

    @pytest.mark.parametrize("s", ["-0.7,0.5", "-.7,0.5"])
    def test_det_laplacian_probe(self, s):
        argv = ["det-laplacian", "--signature", "0,1,2:3", "--s", s, "--z-value", "-1,0"]
        code, report, err = invoke_json(argv)
        assert code == 0, err
        assert report["inputs"]["s"] == {"re": -0.7, "im": 0.5}
        assert report["inputs"]["z_value"] == {"re": -1.0, "im": 0.0}
        _, joined, _ = invoke_json(["det-laplacian", "--signature", "0,1,2:3",
                                    "--s=-0.7,0.5", "--z-value=-1,0"])
        assert report["results"] == joined["results"]


class TestSurfaceInfo:
    """`constants` reports the surface data, the geometric part at any cusp count."""

    def test_defaults_model_from_cusp_count(self):
        code, report, _ = invoke_json(["constants", "--signature", "0,1,2:3"])
        assert code == 0 and report["inputs"]["group"] == "modular"
        assert result_of(report, "A") == 2

    def test_two_cusp_surface_reports_geometry_only(self):
        code, report, _ = invoke_json(["constants", "--signature", "0,2,2:2"])
        assert code == 0
        assert any("geometric data only" in note for note in report["notes"])
        names = {item["name"] for item in report["results"]}
        assert {"area", "B", "C"} <= names and "D" not in names

    def test_two_cusp_geometry_values(self):
        _, report, _ = invoke_json(["constants", "--signature", "0,2,2:2"])
        assert report["results"] == [
            {"name": "area", "value": 2.0 * math.pi},
            {"name": "area_over_2pi", "value": 1.0},
            {"name": "B", "value": -1.0},
            {"name": "C", "value": -2.0 * math.log(2.0)},
        ]


class TestRuelleCommand:
    def test_methods_agree(self):
        _, quotient, _ = invoke_json(
            ["ruelle", "--s", "2,0", "--max-trace", "40", "--method", "quotient"]
        )
        _, direct, _ = invoke_json(
            ["ruelle", "--s", "2,0", "--max-trace", "40", "--method", "direct"]
        )
        a = result_of(quotient, "value")
        b = result_of(direct, "value")
        budget = (result_of(quotient, "abs_error_estimate")
                  + result_of(direct, "abs_error_estimate"))
        assert abs(complex(a["re"], a["im"]) - complex(b["re"], b["im"])) <= budget

    def test_default_is_direct(self):
        argv = ["ruelle", "--s", "1.5,2", "--max-trace", "40"]
        _, bare, _ = invoke_json(argv)
        _, direct, _ = invoke_json(argv + ["--method", "direct"])
        assert bare["results"] == direct["results"]

    def test_boundary_flagged(self):
        code, report, _ = invoke_json(["ruelle", "--s", "1.05,0", "--max-trace", "20"])
        assert code == 0
        assert any("1%" in note for note in report["notes"])


class TestKappaLargeImaginaryPart:
    def test_involution_at_im_150(self):
        values = []
        for s in ("0.3,150", "0.7,-150"):
            code, report, _ = invoke_json(["kappa", "--signature", "0,1,2:3", "--s", s])
            assert code == 0
            value = result_of(report, "kappa")
            values.append(complex(value["re"], value["im"]))
        assert abs(abs(values[0] * values[1]) - 1.0) < 1e-10

    def test_involution_at_im_280(self):
        # zeta's reflection factor once overflowed here (exit 2)
        values = []
        for s in ("0.3,280", "0.7,-280"):
            code, report, _ = invoke_json(["kappa", "--signature", "0,1,2:3", "--s", s])
            assert code == 0
            value = result_of(report, "kappa")
            values.append(complex(value["re"], value["im"]))
        assert abs(abs(values[0] * values[1]) - 1.0) < 1e-10


class TestKappaSign:
    def test_half_is_minus_one(self):
        code, report, _ = invoke_json(["kappa", "--signature", "0,1,2:3", "--s", "0.5,0"])
        assert code == 0
        value = result_of(report, "kappa")
        assert abs(complex(value["re"], value["im"]) + 1.0) < 1e-9

    def test_involution_at_im_1000(self):
        # the cone-point sines once overflowed here (exit 2, kind OverflowError)
        values = []
        for s in ("0.3,1000", "0.7,-1000"):
            code, report, _ = invoke_json(["kappa", "--signature", "0,1,2:3", "--s", s])
            assert code == 0
            value = result_of(report, "kappa")
            values.append(complex(value["re"], value["im"]))
        assert abs(values[0] * values[1] - 1.0) < 1e-10


class TestErrorSplit:
    @pytest.mark.parametrize("argv", [["zeta"], ["ruelle"], ["ruelle", "--method", "direct"]])
    def test_parts_reported(self, argv):
        code, report, _ = invoke_json(argv + ["--s", "2,0", "--max-trace", "30"])
        assert code == 0
        parts = result_of(report, "trace_tail_error")
        value = result_of(report, "value")
        total = result_of(report, "abs_error_estimate")
        assert abs(abs(complex(value["re"], value["im"])) * parts - total) <= 1e-12 * total


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestStrictJson:
    @pytest.mark.parametrize("max_trace", ["3", "12", "40"])
    @pytest.mark.parametrize("re", ["1.0001", "1.001", "1.02"])
    @pytest.mark.parametrize("command", ["zeta", "ruelle"])
    def test_near_the_boundary(self, command, re, max_trace):
        # a non-finite estimate would print as Infinity, which is not JSON
        code, out, err = invoke([command, "--s", f"{re},0", "--max-trace", max_trace, "--json"])
        assert code == 0, err
        report = json.loads(out, parse_constant=_refuse_constant)
        assert math.isfinite(result_of(report, "abs_error_estimate"))


def _readme_cli_lines():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("hypzeta ")]


class TestReadmeExamples:
    def test_block_is_found(self):
        assert len(_readme_cli_lines()) >= 10

    @pytest.mark.parametrize("line", _readme_cli_lines())
    def test_example_runs(self, line, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = invoke(shlex.split(line)[1:])
        assert code == 0, err


def test_cli_runs_without_scipy():
    script = (
        "import contextlib, io, sys\n"
        "import hypzeta, hypzeta.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert hypzeta.cli.run(['verify', '--json']) == 0\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    src = str(Path(hypzeta.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


def test_cache_round_trip_loads_no_openssl(tmp_path):
    # hashlib's OpenSSL binding adds about 3.6 MiB to a process's peak RSS
    script = (
        "import contextlib, io, sys\n"
        "import hypzeta.cli\n"
        "argv = ['zeta', '--s', '2,0', '--max-trace', '10', '--cache', sys.argv[1], '--json']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert hypzeta.cli.run(argv) == 0 and hypzeta.cli.run(argv) == 0\n"
        "assert '_hashlib' not in sys.modules\n"
    )
    src = str(Path(hypzeta.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", script, str(tmp_path / "s.csv")], env=env, check=True)
    assert (tmp_path / "s.csv").read_bytes().startswith(b"# hypzeta spectrum cache v5 ")
    assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]
