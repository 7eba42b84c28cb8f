"""Command line interface: payload shapes, exit codes, file output, determinism.

All tests drive cli.main() in process and parse what lands on stdout, so
they cover exactly what a shell user sees.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import weightlab
from weightlab import (
    BellmanSurface,
    Interval,
    OrliczKind,
    SurfaceKind,
    bellman,
    cli,
    dyadic,
    evaluate_surface,
    load_weight,
    luxemburg_norm,
    power_weight,
    reference_corpus,
    save_weight,
    sharpness_sweep,
    solvers,
    weight_from_dict,
)
from weightlab.solvers import gamma_log

from _frozen import CONSTANTS_STDOUT, GAMMA_MINUS_1, RATIO_BOUND_E, RH1_LINEAR
from _strategies import NUMBERS
from _trees import node_view


@pytest.fixture()
def linear_file(tmp_path):
    path = tmp_path / "linear.json"
    save_weight(power_weight(1.0, 1.0), str(path))
    return str(path)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def _strict_json(text):
    """text parsed as JSON proper: Infinity, -Infinity and NaN fail the test."""
    return json.loads(text, parse_constant=lambda token: pytest.fail(f"non-JSON {token}"))


def _strict_json_out(capsys):
    return _strict_json(capsys.readouterr().out)


class TestSolve:
    def test_gamma_log_payload(self, capsys):
        assert cli.main(["solve", "--equation", "gamma-log", "--q", "3.0"]) == 0
        payload = _json_out(capsys)
        assert set(payload) == {"equation", "q", "root", "residual"}
        assert payload["equation"] == "gamma-log"
        assert payload["root"] == pytest.approx(gamma_log(3.0).root, rel=1e-14)
        assert abs(payload["residual"]) < 1e-12

    def test_gehring_n_reports_good_lambda(self, capsys):
        rc = cli.main(["solve", "--equation", "gehring-n", "--n", "2", "--q", "1.0"])
        assert rc == 0
        payload = _json_out(capsys)
        assert payload["good_lambda_beta"] == 0.25
        assert payload["good_lambda_alpha"] == pytest.approx(
            1.0 / (math.exp(8.0) - 1.0), rel=1e-12
        )
        assert payload["log_product_gap"] < 0.0
        assert payload["eps"] > 0.0

    def test_gehring_n_past_expm1_overflow(self, capsys):
        # expm1(8q) overflows from q ~ 88.72; 1/(e^8q - 1) rounds to e^-8q there
        assert cli.main(["solve", "--equation", "gehring-n", "--q", "708.9", "--n", "3"]) == 0
        payload = _strict_json_out(capsys)
        assert (payload["good_lambda_alpha"], payload["good_lambda_beta"]) == (0.0, 0.25)
        assert payload["eps"] > 0.0

    def test_gehring_n_tiny_q_prints_a_finite_gap(self, capsys):
        # e^-8q rounds to 1 below 8q ~ 1.1e-16; the gap ~ eps log(8q) is finite
        assert cli.main(["solve", "--equation", "gehring-n", "--q", "1e-20", "--n", "3"]) == 0
        gap = _strict_json_out(capsys)["log_product_gap"]
        assert gap == pytest.approx(2.0 / 3.0 * math.log(8e-20), rel=1e-15)

    @pytest.mark.parametrize("q", ["80", "100"])
    def test_gehring_n_gap_is_negative_or_null(self, q, capsys):
        # the gap ~ -eps e^-8q is a normal double at q = 80; at q = 100 it rounds
        # to -0.0, which certifies no sign, and prints as null
        assert cli.main(["solve", "--equation", "gehring-n", "--q", q, "--n", "3"]) == 0
        gap = _strict_json_out(capsys)["log_product_gap"]
        if q == "80":
            assert -1e-280 < gap <= -sys.float_info.min
        else:
            assert gap is None

    def test_gamma_entropy_payload(self, capsys):
        assert cli.main(["solve", "--equation", "gamma-entropy", "--q", "1.0"]) == 0
        payload = _strict_json_out(capsys)
        minus, plus = solvers.gamma_entropy_roots(1.0)
        assert payload == {
            "equation": "gamma-entropy",
            "q": 1.0,
            "root_minus": cli._fmt(minus.root),
            "residual_minus": cli._fmt(minus.residual),
            "root_plus": cli._fmt(plus.root),
            "residual_plus": cli._fmt(plus.residual),
        }

    @pytest.mark.parametrize("k", [1.5, 1.0])  # k <= 1: nothing to improve, root +inf
    def test_gehring_sharp_payload(self, k, capsys):
        assert cli.main(["solve", "--equation", "gehring-sharp", "--p", "2.0", "--k", str(k)]) == 0
        payload = _strict_json_out(capsys)
        res = solvers.gehring_sharp_eps(2.0, k)
        assert payload == {
            "equation": "gehring-sharp",
            "p": 2.0,
            "k": k,
            "root": cli._fmt(res.root) if math.isfinite(res.root) else None,
            "residual": cli._fmt(res.residual),
        }

    def test_out_of_range_parameter_exits_2(self, capsys):
        rc = cli.main(["solve", "--equation", "gamma-log", "--q", "1.0"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("q, rc", [("700", 0), ("709", 2), ("743", 2)])
    def test_funny_log_value_overflow_exits_2(self, q, rc, capsys):
        assert cli.main(["solve", "--equation", "funny", "--q", q]) == rc
        captured = capsys.readouterr()
        if rc == 0:
            assert math.isfinite(json.loads(captured.out)["log_value"])
        else:
            assert captured.out == ""
            assert "overflows" in captured.err

    @pytest.mark.parametrize("q", ["1", "700"])
    def test_funny_overflowing_value_prints_null(self, q, capsys):
        assert cli.main(["solve", "--equation", "funny", "--q", q]) == 0
        payload = _strict_json_out(capsys)
        assert math.isfinite(payload["log_value"])
        if q == "700":  # funny_bound overflows past q ~ 5.6, by design
            assert payload["value"] is None
        else:
            assert payload["value"] == cli._fmt(solvers.funny_bound(1.0))

    def test_no_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2


class TestConstants:
    def test_csv_shape_and_values(self, linear_file, capsys):
        rc = cli.main(
            ["constants", "--weight", linear_file, "--resolution", "101",
             "--which", "rh1,ainf", "--format", "csv"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "constant,value,interval_a,interval_b"
        rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
        assert set(rows) == {"rh1", "ainf"}
        assert float(rows["rh1"][1]) == pytest.approx(RH1_LINEAR, rel=1e-12)
        assert float(rows["ainf"][1]) == pytest.approx(math.e / 2.0, rel=1e-12)
        assert float(rows["rh1"][2]) == 0.0

    def test_json_payload(self, linear_file, capsys):
        rc = cli.main(
            ["constants", "--weight", linear_file,
             "--which", "rh1,ainf,rhp", "--p-values", "2"]
        )
        assert rc == 0
        payload = _json_out(capsys)
        assert payload["resolution"] == 201
        assert payload["rh1"]["value"] == pytest.approx(RH1_LINEAR, rel=1e-12)
        assert payload["ainf"]["value"] == pytest.approx(math.e / 2.0, rel=1e-12)
        assert payload["rh_p"]["2.0"]["value"] == pytest.approx(
            2.0 / math.sqrt(3.0), rel=1e-12
        )
        # each entry names the attaining subinterval
        a, b = payload["rh1"]["interval"]
        assert 0.0 <= a < b <= 1.0

    def test_divergent_constant_prints_null(self, linear_file, capsys):
        # A_2 of w = t diverges on every interval from 0: +inf, null in JSON
        args = ["constants", "--weight", linear_file, "--which", "ap", "--p-values", "2", "--resolution", "51"]
        assert cli.main(args) == 0
        entry = _strict_json_out(capsys)["a_p"]["2.0"]
        assert entry == {"value": None, "interval": [0.0, 0.02]}
        # CSV keeps inf
        assert cli.main([*args, "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "a_p[2.0],inf,0,0.02"

    def test_output_file_and_silent_stdout(self, linear_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = cli.main(
            ["constants", "--weight", linear_file, "--which", "rh1",
             "--output", str(out)]
        )
        assert rc == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(out.read_text())
        assert payload["rh1"]["value"] == pytest.approx(RH1_LINEAR, rel=1e-12)

    def test_malformed_weight_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = cli.main(["constants", "--weight", str(bad)])
        assert rc == 2
        assert "invalid weight JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("pieces", ["5", "2.5", "true", "null"])
    def test_non_list_pieces_exits_2(self, tmp_path, capsys, pieces):
        bad = tmp_path / "scalar.json"
        bad.write_text(f'{{"pieces": {pieces}}}')
        rc = cli.main(["constants", "--weight", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'pieces' list" in err

    def test_missing_weight_file_exits_2(self, tmp_path, capsys):
        rc = cli.main(["constants", "--weight", str(tmp_path / "nope.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "pieces, which, message",
        [
            # c**p overflows in the closed-form moment of w^p; centring the
            # coefficients' binary exponents leaves 1e300 and 1e-300 as they are
            ([(0.0, 0.5, 1e300), (0.5, 1.0, 1e-300)], "rhp", "overflows"),
            # a span too wide to centre: the scale stops at the double range,
            # and every pair average of w log w still overflows or underflows
            ([(0.0, 0.5, 5e-324), (0.5, 1.0, 1e308)], "rh1", "rh1"),
        ],
        ids=["rhp-coeff-power-overflow", "rh1-span-beyond-centring"],
    )
    def test_unscannable_weight_exits_2(self, tmp_path, capsys, pieces, which, message):
        path = tmp_path / "huge.json"
        entries = [{"a": a, "b": b, "coeff": c, "exponent": 0.0} for a, b, c in pieces]
        path.write_text(json.dumps({"pieces": entries}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["constants", "--weight", str(path), "--which", which, "--resolution", "51"])
        assert rc == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err and "Warning" not in err

    def test_underflowing_average_gives_no_nan(self, tmp_path, capsys):
        # 5e-324 t underflows to 0 in the cumulative moment: avg(w) is 0 on
        # the intervals inside [0, 0.5], and their Luxemburg ratio is nan
        path = tmp_path / "span.json"
        entries = [{"a": 0.0, "b": 0.5, "coeff": 5e-324, "exponent": 0.0},
                   {"a": 0.5, "b": 1.0, "coeff": 1e308, "exponent": 0.0}]
        path.write_text(json.dumps({"pieces": entries}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["constants", "--weight", str(path), "--which", "rh1_doubleprime",
                           "--maximal-resolution", "12"])
        assert caught == []
        out, err = capsys.readouterr()
        assert rc in (0, 2)
        if rc == 0:
            assert math.isfinite(json.loads(out)["rh1_doubleprime"]["value"])
            assert "nan" not in out.lower()
        else:
            assert err.startswith("error:")

    @pytest.mark.parametrize(
        "start, exponent, resolution",
        [(5e-324, 1.0, 2), (5e-324, 1.0, 12), (1e-300, -2.0, 12)],
        ids=["subnormal-start-only-interval", "subnormal-start", "power-past-double-range"],
    )
    def test_overflowing_orlicz_nodes_raise_no_warning(self, start, exponent, resolution, tmp_path, capsys):
        # t^exponent from `start`: ep / sp of the node spacing, or w at a node, leaves
        # the double range; those intervals' norms are nan and masked, the rest scanned
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"pieces": [
            {"a": 0.0, "b": start, "coeff": 1.0, "exponent": 0.0},
            {"a": start, "b": 1.0, "coeff": 1.0, "exponent": exponent},
        ]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["constants", "--weight", str(path), "--which", "rh1_doubleprime",
                           "--maximal-resolution", str(resolution)])
        captured = capsys.readouterr()
        assert rc in (0, 2)
        if rc == 2:
            assert captured.err == "error: rh1_doubleprime: no finite value on any scanned interval\n"
        else:
            assert captured.err == ""
            assert _strict_json(captured.out)["rh1_doubleprime"]["value"] > 1.0

    def test_subnormal_power_start_keeps_its_orlicz_nodes(self, tmp_path, capsys):
        # from a subnormal start ep / sp overflows: the nodes are spaced by
        # log ep - log sp, and for t, whose terms fall under e^-40 of their total
        # 20 e-folds below 1, they stop there
        def ramp(start, exponent=1.0):
            return weight_from_dict({"pieces": [{"a": 0.0, "b": start, "coeff": 1.0, "exponent": 0.0},
                                                {"a": start, "b": 1.0, "coeff": 1.0, "exponent": exponent}]})

        path = tmp_path / "w.json"
        save_weight(ramp(5e-324), str(path))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main(["constants", "--weight", str(path), "--which", "rh1_doubleprime",
                           "--maximal-resolution", "2"])
        out, err = capsys.readouterr()
        assert (rc, err) == (0, "")
        entry = _strict_json(out)["rh1_doubleprime"]
        # the L log L norm of t on [0, 1] over its average 1/2, from the closed-form integral (40 digits)
        assert entry == {"value": cli._fmt(1.3126414521419447), "interval": [0.0, 1.0]}
        norm = luxemburg_norm(ramp(5e-324), Interval(0.0, 1.0), OrliczKind.LLOGL)
        assert norm == pytest.approx(luxemburg_norm(ramp(1e-300), Interval(0.0, 1.0), OrliczKind.LLOGL), rel=1e-12)
        # t^-1/2 keeps all its nodes: the two spacings meet where ep / sp first overflows
        edge = 1.0 / sys.float_info.max
        assert 1.0 / edge == math.inf and math.isfinite(1.0 / math.nextafter(edge, 1.0))
        for kind in (OrliczKind.LLOGL, OrliczKind.EXP_MINUS_ONE):
            below, above = (luxemburg_norm(ramp(s, -0.5), Interval(0.0, 1.0), kind)
                            for s in (edge, math.nextafter(edge, 1.0)))
            assert below == pytest.approx(above, rel=1e-12)

    @pytest.mark.parametrize("argv", [["constants", "--which", "rh1"], ["dyadic", "--q", "2", "--q1", "3"]])
    def test_overflowing_piece_integral_exits_2(self, argv, tmp_path, capsys):
        # t^-40 from 1e-10: the float closed form's power leaves the double range
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"pieces": [
            {"a": 0.0, "b": 1e-10, "coeff": 1.0, "exponent": 0.0},
            {"a": 1e-10, "b": 1.0, "coeff": 1.0, "exponent": -40.0},
        ]}))
        assert cli.main([argv[0], "--weight", str(path), *argv[1:]]) == 2
        assert "overflows a double" in capsys.readouterr().err

    def test_huge_constant_weight_reads_flat(self, tmp_path, capsys):
        # scanned after scaling by a power of two: w log w and exp(-avg log w)
        # of 1e308 no longer overflow or go subnormal
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"pieces": [{"a": 0.0, "b": 1.0, "coeff": 1e308, "exponent": 0.0}]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["constants", "--weight", str(path), "--which", "rh1,ainf,rhp,ap", "--resolution", "51"])
        assert rc == 0
        assert caught == []
        payload = _json_out(capsys)
        assert payload["rh1"]["value"] == pytest.approx(0.0, abs=1e-13)
        for value in (payload["ainf"]["value"], payload["rh_p"]["2.0"]["value"], payload["a_p"]["2.0"]["value"]):
            assert value == pytest.approx(1.0, rel=1e-13, abs=0.0)

    def test_byte_identical_reruns(self, linear_file, capsys):
        args = ["constants", "--weight", linear_file,
                "--which", "rh1,ainf,rhp,ap", "--p-values", "1.5,2"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("k, resolution", sorted(CONSTANTS_STDOUT))
    def test_four_scans_stdout_is_frozen(self, k, resolution, tmp_path, capsys):
        path = tmp_path / "w.json"
        save_weight(reference_corpus()[k], str(path))
        args = ["constants", "--weight", str(path), "--which", "rh1,ainf,rhp,ap",
                "--p-values", "1.5,3", "--resolution", str(resolution)]
        assert cli.main(args) == 0
        assert capsys.readouterr().out == CONSTANTS_STDOUT[k, resolution]


class TestCaps:
    @pytest.mark.parametrize(
        "argv",
        [
            ["constants", "--weight", "absent.json", "--resolution", "20002"],
            ["constants", "--weight", "absent.json", "--maximal-resolution", "201"],
            ["bellman", "--surface", "ainf-upper", "--q", "2", "--verify", "hessian", "--grid", "1025"],
            ["dyadic", "--weight", "absent.json", "--q", "1.5", "--q1", "1.8", "--depth", "15"],
        ],
        ids=["resolution", "maximal-resolution", "grid", "depth"],
    )
    def test_size_above_cap_exits_2_before_any_work(self, argv, capsys):
        # the weight file does not exist: the cap is checked before it is read
        tracemalloc.start()
        try:
            rc = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        flag, value = argv[-2:]
        assert capsys.readouterr().err == f"error: {flag} {value} exceeds its cap of {int(value) - 1}\n"
        assert peak < 2**20

    def test_many_p_values_exit_2_before_any_work(self, capsys):
        # each exponent adds an rhp and an ap scan: 200 scans at R = 20001
        argv = ["constants", "--weight", "absent.json", "--which", "rh1,ainf,rhp,ap",
                "--p-values", ",".join(str(1.5 + k / 100) for k in range(100)), "--resolution", "20001"]
        tracemalloc.start()
        try:
            rc = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: 202 pair scans at --resolution 20001 exceed the cap")
        assert peak < 2**20

    @pytest.mark.parametrize(
        "argv",
        [
            ["constants", "--which", "rh1", "--resolution", "51", "--maximal-resolution", "200"],
            ["constants", "--which", "rh1,ainf,rhp", "--p-values", "1.5,2"],
            ["bellman", "--surface", "ainf-upper", "--q", "2", "--verify", "tangent", "--grid", "120"],
            ["dyadic", "--q", "1.5", "--q1", "1.8", "--depth", "6"],
        ],
        ids=["maximal-resolution-200", "readme-p-values", "grid-120", "depth-6"],
    )
    def test_sizes_in_use_stay_accepted(self, argv, linear_file):
        if argv[0] != "bellman":
            argv = [argv[0], "--weight", linear_file, *argv[1:]]
        assert cli.main(argv) == 0


class TestBellman:
    def test_eval_matches_library_surface(self, capsys):
        rc = cli.main(
            ["bellman", "--surface", "ainf-upper", "--q", "2.0",
             "--eval", "1.3,-0.1"]
        )
        assert rc == 0
        payload = _json_out(capsys)
        surface = BellmanSurface(SurfaceKind.AINF_UPPER, 2.0)
        assert payload["value"] == pytest.approx(
            evaluate_surface(surface, 1.3, -0.1), rel=1e-14
        )
        assert payload["tangent_residual"] == pytest.approx(0.0, abs=1e-12)

    def test_verify_tangent_passes(self, capsys):
        rc = cli.main(
            ["bellman", "--surface", "gehring", "--q", "1.0", "--eps", "0.3",
             "--verify", "tangent", "--grid", "8"]
        )
        assert rc == 0
        payload = _json_out(capsys)
        assert payload["passed"] is True
        assert payload["max_deviation"] < 1e-10

    def test_verify_hessian_passes(self, capsys):
        rc = cli.main(
            ["bellman", "--surface", "ainf-lower", "--q", "1.5",
             "--verify", "hessian", "--grid", "6"]
        )
        assert rc == 0
        assert _json_out(capsys)["passed"] is True

    @pytest.mark.parametrize(
        "surface",
        [["ainf-lower", "--q", "120"], ["ainf-lower", "--q", "200"],
         ["gehring", "--q", "1.0", "--eps", "0.3"]],
        ids=["lower-q120", "lower-q200", "gehring-q1"],
    )
    def test_verify_hessian_signature_and_its_negative(self, surface, monkeypatch, capsys):
        argv = ["bellman", "--surface", *surface, "--verify", "hessian", "--grid", "16"]
        assert cli.main(argv) == 0
        assert _json_out(capsys)["passed"] is True
        closed = bellman._closed_hessian
        monkeypatch.setattr(bellman, "_closed_hessian", lambda *args: -closed(*args))
        assert cli.main(argv) == 1
        payload = _json_out(capsys)
        assert payload["passed"] is False and payload["worst_value"] > payload["threshold"]

    def test_verify_bounds_passes_on_ainf_upper(self, capsys):
        argv = ["bellman", "--surface", "ainf-upper", "--q", "2.0", "--verify", "bounds", "--grid", "16"]
        assert cli.main(argv) == 0
        payload = _strict_json_out(capsys)
        rep = bellman.bounds_check_ainf(2.0, grid=16)
        assert payload["passed"] is True and payload["grid"] == 16
        assert (payload["max_lower_violation"], payload["max_upper_violation"]) == (0.0, 0.0)
        assert payload["ratio_max"] == cli._fmt(rep.ratio_max)
        assert payload["ratio_bound"] == cli._fmt(rep.ratio_bound)

    @pytest.mark.parametrize("grid", ["-1", "0", "1"])
    @pytest.mark.parametrize("check", ["bounds", "tangent", "hessian"])
    def test_verify_grid_below_2_exits_2(self, check, grid, capsys):
        argv = ["bellman", "--surface", "ainf-upper", "--q", "2.0", "--verify", check, "--grid", grid]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: grid must be >= 2\n"

    @pytest.mark.parametrize(
        "surface", [["ainf-upper", "--q", "1e6"], ["ainf-lower", "--q", "250"]], ids=["upper-q1e6", "lower-q250"]
    )
    def test_verify_tangent_at_large_q_passes_and_a_bent_segment_fails(self, surface, monkeypatch, capsys):
        # the deviation (3.9e-3 and 1.1e95 here) is rounding against max(1, |B|) on the segment
        argv = ["bellman", "--surface", *surface, "--verify", "tangent", "--grid", "24"]
        assert cli.main(argv) == 0
        payload = _strict_json_out(capsys)
        assert payload["passed"] is True and payload["max_deviation"] > 1e-9
        straight = bellman._tangent_y
        monkeypatch.setattr(bellman, "_tangent_y", lambda s, x, v: straight(s, x, v) * (1.0 + 1e-3 * np.sin(x)))
        assert cli.main(argv) == 1
        assert _strict_json_out(capsys)["passed"] is False

    def test_verify_bounds_on_gehring_exits_2(self, capsys):
        argv = ["bellman", "--surface", "gehring", "--q", "1.0", "--eps", "0.3", "--verify", "bounds"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --verify bounds applies to the ainf-upper surface\n"

    @pytest.mark.parametrize("point", ["1.3", "1.3,-0.1,2", "x,y", ""])
    def test_malformed_eval_exits_2(self, point, capsys):
        assert cli.main(["bellman", "--surface", "ainf-upper", "--q", "2.0", f"--eval={point}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --eval expects 'x,y', got {point!r}\n"

    # the array passes overflow at these q's; the check reports null and fails, or passes
    @pytest.mark.parametrize(
        "argv, rc, null",
        [
            (["ainf-lower", "--q", "708.9", "--verify", "tangent", "--grid", "8"], 1, "max_deviation"),
            (["ainf-lower", "--q", "710", "--verify", "hessian", "--grid", "3"], 0, None),
            (["ainf-upper", "--q", "1e300", "--verify", "tangent", "--grid", "2"], 1, "max_deviation"),
            (["ainf-upper", "--q", "1e300", "--verify", "hessian", "--grid", "8"], 1, "worst_value"),
            (["ainf-upper", "--q", "1e308", "--verify", "bounds"], 1, "max_upper_violation"),
            (
                ["gehring", "--q", "3.385945554994975e-14", "--eps", "10551.098495224562",
                 "--verify", "hessian", "--grid", "8"],
                1,
                "worst_value",
            ),
        ],
        ids=["lower-tangent-overflow-in-divide", "lower-hessian-overflow-in-det",
             "upper-tangent-overflow", "upper-hessian-divide-by-zero", "upper-bounds-overflow-in-divide",
             "gehring-hessian-overflow-in-power"],
    )
    def test_extreme_q_verify_raises_no_warning(self, argv, rc, null, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["bellman", "--surface", *argv]) == rc
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = _strict_json(captured.out)
        assert payload["passed"] is (rc == 0)
        if null is not None:
            assert payload[null] is None

    def test_eval_underflowing_tangent_exits_2(self, capsys):
        # AINF_LOWER's value divides by g v; g v underflows at the subnormal v = 5e-324
        rc = cli.main(["bellman", "--surface", "ainf-lower", "--q", "1.0", "--eval=5e-324,-3.676e-321"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: point (5e-324, -3.676e-321): ") and "underflows to 0" in captured.err

    def test_eval_gehring_value_past_the_double_range_exits_2(self, capsys):
        # GEHRING's v**eps overflows a float at v ~ 1e200, eps ~ 3.37; evaluate_many reads inf there
        q, eps, x, y = 0.01, 3.374613350095237, 1e200, 4.605220185988092e202
        rc = cli.main(["bellman", "--surface", "gehring", "--q", str(q), "--eps", str(eps), f"--eval={x!r},{y!r}"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: point ({x!r}, {y!r}): its value overflows a double\n"
        surface = bellman.BellmanSurface(bellman.SurfaceKind.GEHRING, q, eps)
        assert bellman.evaluate_many(surface, np.array([x]), np.array([y])).tolist() == [math.inf]

    def test_eval_value_past_the_double_range_prints_null(self, capsys):
        # x log v ~ 7e308 overflows; the value prints null, with no RuntimeWarning
        rc = cli.main(["bellman", "--surface=ainf-upper", "--q=10.0", "--eval=1e+306,704.591038456178"])
        assert rc == 0
        payload = _strict_json_out(capsys)
        assert payload["value"] is None and payload["tangent"] == 1e306

    def test_eval_overflowing_point_exits_2(self, capsys):
        rc = cli.main(["bellman", "--surface", "ainf-upper", "--q", "2", "--eval", "1,-1000"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "outside the ainf_upper domain" in err

    def test_gehring_without_eps_exits_2(self, capsys):
        rc = cli.main(
            ["bellman", "--surface", "gehring", "--q", "1.0",
             "--eval", "1.1,0.2"]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


class TestExtremal:
    def test_funny_payload(self, capsys):
        rc = cli.main(["extremal", "--family", "funny", "--q", "1.0"])
        assert rc == 0
        payload = _json_out(capsys)
        piece = payload["pieces"][0]
        assert piece["coeff"] == pytest.approx(1.0 / GAMMA_MINUS_1, rel=1e-12)
        assert payload["surface_value"] == pytest.approx(-RATIO_BOUND_E, rel=1e-12)
        assert payload["weight_value"] == pytest.approx(
            payload["surface_value"], rel=1e-10
        )
        assert abs(payload["gap"]) < 1e-10

    def test_emit_json_loads_back(self, tmp_path, capsys):
        out = tmp_path / "w.json"
        rc = cli.main(
            ["extremal", "--family", "ainf", "--q", "2.0", "--emit", str(out)]
        )
        assert rc == 0
        payload = _json_out(capsys)
        w = load_weight(str(out))
        assert len(w.pieces) == len(payload["pieces"])
        for got, want in zip(w.pieces, payload["pieces"]):
            assert got.support.a == pytest.approx(want["a"])
            assert got.support.b == pytest.approx(want["b"])
            assert got.coeff == pytest.approx(want["coeff"])
            assert got.exponent == pytest.approx(want["exponent"])

    def test_emit_csv_is_a_sampled_table(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        rc = cli.main(
            ["extremal", "--family", "ainf", "--q", "2.0", "--emit", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,w"
        assert len(lines) == 1025
        ts = [float(line.split(",")[0]) for line in lines[1:]]
        assert ts[0] == pytest.approx(1.0 / 1024.0)
        assert ts[-1] == 1.0
        assert all(t0 < t1 for t0, t1 in zip(ts, ts[1:]))
        assert all(float(line.split(",")[1]) > 0.0 for line in lines[1:])

    @pytest.mark.parametrize("eps", ["inf", "-inf", "nan"])
    def test_non_finite_eps_exits_2(self, eps, capsys):
        assert cli.main(["extremal", "--family", "ainf", "--q", "1e300", f"--eps={eps}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: eps must be finite")

    def test_gehring_without_eps_prints_no_gap(self, capsys):
        assert cli.main(["extremal", "--family", "gehring-interior", "--q", "1"]) == 0
        payload = _strict_json_out(capsys)
        assert payload["eps"] is None and payload["pieces"]
        assert not {"surface_value", "weight_value", "gap"} & set(payload)

    @pytest.mark.parametrize(
        "argv",
        [
            ["gehring-interior", "--q", "4.461070114325701e-07", "--x", "5e-324", "--y", "1e-17"],
            ["ainf", "--q", "1.01", "--x", "5e-324", f"--y={math.log(5e-324)!r}"],
            ["funny", "--q", "1.0", "--x", "5e-324", "--y=-3.676e-321"],  # in the attainment check
        ],
        ids=["gehring-interior", "ainf", "funny"],
    )
    def test_underflowing_glue_point_exits_2(self, argv, capsys):
        # v (gamma - 1), or gamma v, underflows to 0 at the subnormal tangent abscissa v = 5e-324
        assert cli.main(["extremal", "--family", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "(5e-324, " in captured.err and "underflows to 0" in captured.err

    def test_gehring_interior_value_past_the_double_range_exits_2(self, capsys):
        # the attainment check's surface value at the target overflows, as bellman --eval's does
        argv = ["gehring-interior", "--q", "0.01", "--eps", "3.374613350095237", "--x", "1e200",
                "--y", "4.605220185988092e+202"]
        assert cli.main(["extremal", "--family", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: point (1e+200, 4.605220185988092e+202): its value overflows a double\n"

    def test_funny_target_elsewhere_exits_2(self, capsys):
        # the funny weight depends on q alone: its gap at another point measures nothing
        assert cli.main(["extremal", "--family", "funny", "--q", "1", "--x", "2", "--y", "1.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: target (2.0, 1.5): the funny weight for q = 1.0 attains only (1.0, 1.0)\n"
        assert cli.main(["extremal", "--family", "funny", "--q", "1", "--x", "1", "--y", "1"]) == 0
        assert _strict_json_out(capsys)["gap"] == 0.0

    def test_emit_other_suffix_exits_2(self, tmp_path, capsys):
        out = tmp_path / "w.txt"
        assert cli.main(["extremal", "--family", "ainf", "--q", "2.0", "--emit", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == "error: --emit path must end in .json or .csv\n"

    @pytest.mark.parametrize("name", ["w.json", "w.csv"])
    def test_emit_into_missing_directory_exits_2(self, name, tmp_path, capsys):
        out = tmp_path / "missing" / name
        assert cli.main(["extremal", "--family", "ainf", "--q", "2.0", "--emit", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")

    def test_infeasible_target_exits_2(self, capsys):
        rc = cli.main(
            ["extremal", "--family", "ainf", "--q", "2.0",
             "--x", "1.0", "--y", "5.0"]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")


class TestDyadic:
    def test_verify_json_payload(self, linear_file, capsys):
        rc = cli.main(
            ["dyadic", "--weight", linear_file, "--mode", "log",
             "--q", "1.5", "--q1", "1.8", "--depth", "3", "--verify"]
        )
        assert rc == 0
        payload = _json_out(capsys)
        assert payload["mode"] == "log"
        assert payload["depth"] == 3
        assert len(payload["sums"]) == 4
        assert payload["target"] == pytest.approx(-0.25, abs=1e-12)
        assert payload["monotone"] is True
        assert payload["meets_target"] is True

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_failed_chain_exits_1_and_prints_the_report(self, fmt, linear_file, monkeypatch, capsys):
        verify = dyadic.chain_verify
        monkeypatch.setattr(
            dyadic, "chain_verify", lambda *a: dataclasses.replace(verify(*a), meets_target=False)
        )
        rc = cli.main(
            ["dyadic", "--weight", linear_file, "--mode", "log", "--q", "1.5", "--q1", "1.8",
             "--depth", "3", "--verify", "--format", fmt]
        )
        assert rc == 1
        out = capsys.readouterr().out
        if fmt == "json":
            keys = ["mode", "q", "q1", "depth", "eps", "sums", "target", "monotone", "meets_target", "final_gap"]
            assert list(json.loads(out)) == keys and json.loads(out)["meets_target"] is False
        else:
            assert out.splitlines()[0] == "generation,sum" and len(out.splitlines()) == 5

    def test_verify_csv_lists_generations(self, linear_file, capsys):
        rc = cli.main(
            ["dyadic", "--weight", linear_file, "--mode", "log",
             "--q", "1.5", "--q1", "1.8", "--depth", "3", "--verify",
             "--format", "csv"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "generation,sum"
        assert [int(line.split(",")[0]) for line in lines[1:]] == [0, 1, 2, 3]
        sums = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(s1 <= s0 + 1e-9 for s0, s1 in zip(sums, sums[1:]))

    def test_tree_json_has_nested_points(self, linear_file, capsys):
        rc = cli.main(
            ["dyadic", "--weight", linear_file, "--mode", "log",
             "--q", "1.5", "--q1", "1.8", "--depth", "2"]
        )
        assert rc == 0
        payload = _json_out(capsys)
        root = payload["tree"]
        assert root["interval"] == [0.0, 1.0]
        assert root["point"] == pytest.approx([0.5, -1.0])
        assert len(root["children"]) == 2
        assert "children" not in root["children"][0]["children"][0]

    def test_verify_with_eps_uses_it(self, linear_file, capsys):
        rc = cli.main(
            ["dyadic", "--weight", linear_file, "--mode", "entropy", "--q", "0.3",
             "--q1", "0.6", "--depth", "3", "--verify", "--eps", "0.2"]
        )
        assert rc == 0
        payload = _strict_json_out(capsys)
        assert payload["eps"] == 0.2
        assert payload["target"] == pytest.approx(1.0 / 2.2, rel=1e-14)  # avg of t^(1 + eps)
        assert payload["monotone"] is True and payload["meets_target"] is True

    def test_infinite_q1_exits_2(self, linear_file, capsys):
        rc = cli.main(["dyadic", "--weight", linear_file, "--q", "1.5", "--q1", "inf"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "q1 must be finite" in captured.err

    def test_inadmissible_q_exits_2(self, linear_file, capsys):
        rc = cli.main(
            ["dyadic", "--weight", linear_file, "--mode", "log",
             "--q", "1.2", "--q1", "1.3", "--depth", "2"]
        )
        assert rc == 2
        assert "exceeds" in capsys.readouterr().err


def _reference_node_json(node) -> dict:
    """A tree node as the dyadic subcommand printed it through the node objects: the reference for cli._tree_json."""
    out = {"interval": [node.interval.a, node.interval.b], "point": [node.point[0], node.point[1]]}
    if node.children:
        out["children"] = [_reference_node_json(c) for c in node.children]
    return out


def _reference_writer(obj, pad: str = "\n") -> str:
    """cli._json as the node-object tree print used it: json.dumps at indent 2, each float at 15 digits."""
    if isinstance(obj, float):
        if 0.0 < abs(obj) < sys.float_info.min or (text := "%.15g" % obj).endswith(("e+15", "e+308")):
            return repr(x) if math.isfinite(x := float(f"{obj:.15g}")) else "null"
        return "null" if text[-1] in "fn" else text if "." in text or "e" in text else text + ".0"
    inner = pad + "  "
    if isinstance(obj, dict):
        items = [json.dumps(k) + ": " + _reference_writer(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(obj, (list, tuple)):
        return "[" + inner + ("," + inner).join([_reference_writer(v, inner) for v in obj]) + pad + "]" if obj else "[]"
    return json.dumps(obj)


# floats where '%.15g' is not what the writer prints: subnormals, signed zeros, integers and
# their neighbours near 1e15 to 1e16, e+308, inf and nan; and plain ones
WRITER_FLOATS = (
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1.0, 3.0,
                     0.9999999999999999, 1e14, 999999999999999.4, 999999999999999.6, 1e15, 9999999999999998.0,
                     1e16, 1.7976931348623157e308, 9.999999999999999e307, 1e308, math.inf, -math.inf, math.nan))
    | st.integers(-(10**16), 10**16).map(float)
    | st.floats(9e14, 2e16) | st.floats(-2e16, -9e14)
    | st.floats(-1e-300, 1e-300) | st.floats(allow_nan=True, allow_infinity=True)
)


@st.composite
def _level_order(draw):
    n = 2 ** (draw(st.integers(0, 4)) + 1) - 1
    rows = st.lists(st.tuples(WRITER_FLOATS, WRITER_FLOATS), min_size=n, max_size=n)
    return np.array(draw(rows), dtype=float).reshape(n, 2), np.array(draw(rows), dtype=float).reshape(n, 2)


class TestTreeWriter:
    """cli._tree_json prints a tree's arrays with the bytes the node-object print wrote."""

    @staticmethod
    def _cases(tmp_path):
        # (weight file, mode, q, q1, depths): cuts at 1/2 down to depth 14, and cuts that move
        linear, corpus = tmp_path / "linear.json", tmp_path / "corpus.json"
        save_weight(power_weight(1.0, 1.0), str(linear))
        save_weight(reference_corpus(8)[6], str(corpus))
        return [(corpus, "log", 4.0, 5.2, range(15)), (corpus, "entropy", 6.0, 7.8, range(15)),
                (linear, "log", math.e / 2.0, 1.02 * math.e / 2.0, range(9)), (linear, "entropy", 0.207, 0.21321, range(9))]

    def test_trees_print_as_their_nodes_did(self, tmp_path, capsys):
        moved = 0
        for path, mode, q, q1, depths in self._cases(tmp_path):
            w = load_weight(str(path))
            for depth in depths:
                tree = dyadic.build_partition(w, dyadic.SplitConfig(q, q1), dyadic.SplitMode(mode), depth)
                argv = ["dyadic", "--weight", str(path), "--mode", mode, "--q", repr(q), "--q1", repr(q1), "--depth", str(depth)]
                assert cli.main(argv) == 0
                root = node_view(tree.ends, tree.points)
                echo = {"mode": mode, "q": q, "q1": q1, "depth": depth, "tree": _reference_node_json(root)}
                assert capsys.readouterr().out == _reference_writer(echo) + "\n", (path, mode, depth)
            lengths = tree.ends[:, 1] - tree.ends[:, 0]
            moved += int((lengths[1::2] != 0.5 * lengths[: len(lengths) // 2]).sum())
        assert moved > 0

    @given(_level_order())
    @example((np.array([(5e-324, 1e15)]), np.array([(1234567890123456.7, -0.0)])))
    @example((np.array([(0.0, 1.0), (math.nan, math.inf), (1.7976931348623157e308, 2.5e-310)]),
              np.array([(3.0, 0.9999999999999999), (999999999999999.6, -1e16), (1e-5, 123.456)])))
    def test_any_floats_print_as_the_node_writer_printed_them(self, arrays):
        ends, points = arrays
        tree = types.SimpleNamespace(ends=ends, points=points, depth=len(ends).bit_length() - 1)
        assert cli._tree_json(tree) == _reference_writer(_reference_node_json(node_view(ends, points)), "\n  ")


def _reference_csv(header: str, rows: list[tuple]) -> str:
    """cli._csv as it was, a template built for each row from its types: the reference for the one-template writer."""
    lines = [header]
    lines += [
        ",".join(["%.15g" if isinstance(v, float) else "%s" for v in row]) % row for row in rows
    ]
    return "\n".join(lines)


# a column of WRITER_FLOATS, of ints (a generation, or near 1e15-1e16 where '%s' and '%.15g' differ) or of names
CSV_KINDS = (WRITER_FLOATS, st.integers(0, 14) | st.integers(10**15 - 9, 10**16 + 9), st.sampled_from(("rh1", "a_p[2]")))


@st.composite
def _csv_rows(draw):
    # each column of one kind, or (one draw in four) each value of any kind
    columns = draw(st.lists(st.sampled_from(CSV_KINDS), min_size=1, max_size=4))
    if draw(st.integers(0, 3)) == 0:
        columns = [st.one_of(*CSV_KINDS)] * len(columns)
    return draw(st.lists(st.tuples(*columns), max_size=12))


class TestCsvWriter:
    """cli._csv prints rows whose columns are floats only or none by one template, as a template per row did."""

    @given(_csv_rows())
    @example([(1e15, 5e-324, -0.0), (9999999999999998.0, math.nan, 1e308), (-math.inf, 2.5e-310, 1.7976931348623157e308)])
    @example([(10**15 + 1, "rh1", 999999999999999.6), (10**16, "a_p[2]", -1e16)])
    def test_rows_print_as_a_template_per_row_printed_them(self, rows):
        assert cli._csv("a,b,c", rows) == _reference_csv("a,b,c", rows)

    def test_sweep_and_no_rows(self, capsys):
        qs = np.geomspace(0.05, 700.0, 400).tolist()
        assert cli.main(["sweep", "--q-list", ",".join(map(repr, qs))]) == 0
        assert capsys.readouterr().out == _reference_csv("Q,e_ratio,funny_ratio", sharpness_sweep(tuple(qs))) + "\n"
        assert cli._csv("t,w", []) == _reference_csv("t,w", []) == "t,w"


class TestSweep:
    def test_csv_header_and_rows(self, capsys):
        rc = cli.main(["sweep", "--q-list", "2,8", "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "Q,e_ratio,funny_ratio"
        assert len(lines) == 3
        q, e_ratio, funny_ratio = lines[1].split(",")
        assert float(q) == 2.0
        assert 0.0 < float(e_ratio) < math.e
        assert 0.0 < float(funny_ratio) <= 1.0

    def test_empty_q_list_prints_header_only(self, capsys):
        rc = cli.main(["sweep", "--q-list", "", "--format", "csv"])
        assert rc == 0
        assert capsys.readouterr().out == "Q,e_ratio,funny_ratio\n"

    def test_json_rows(self, capsys):
        rc = cli.main(["sweep", "--q-list", "3", "--format", "json"])
        assert rc == 0
        payload = _json_out(capsys)
        rows = payload["rows"]
        assert len(rows) == 1
        assert set(rows[0]) == {"q", "e_ratio", "funny_ratio"}

    def test_json_nan_e_ratio_prints_null(self, capsys):
        assert cli.main(["sweep", "--q-list", "0.5,2", "--format", "json"]) == 0
        rows = _strict_json_out(capsys)["rows"]
        assert rows[0]["e_ratio"] is None
        assert 0.0 < rows[1]["e_ratio"] < math.e
        # CSV keeps nan
        assert cli.main(["sweep", "--q-list", "0.5,2", "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("0.5,nan,")

    def test_nonnumeric_q_exits_2(self, capsys):
        rc = cli.main(["sweep", "--q-list", "2,apple"])
        assert rc == 2


class TestSelftest:
    def test_only_filter_runs_single_check(self, capsys):
        rc = cli.main(["selftest", "--only", "criterion_03"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS criterion_03")
        assert out.rstrip().endswith("OK (1/1)")

    def test_no_matching_check_exits_2(self, capsys):
        rc = cli.main(["selftest", "--only", "zzz-no-such"])
        assert rc == 2
        assert "no checks match" in capsys.readouterr().err

    def test_failing_check_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli.selftest, "run", lambda only=None: [("synthetic", False, "boom")]
        )
        rc = cli.main(["selftest"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL synthetic: boom" in out
        assert "FAILED (0/1)" in out


class TestParserReuse:
    # interleaved: successes, argparse exits (SystemExit 2), exit-2 refusals, and argvs
    # the one-pass parse declines (an abbreviation, --q=3.0, --q -1, both group members)
    ARGVS = (
        ["solve", "--equation", "gamma-log", "--q", "3.0"],
        ["bellman", "--surface", "ainf-upper", "--q", "2.0"],
        ["solve", "--equ", "gamma-log", "--q", "3.0"],
        ["sweep", "--q-list", "0.5,2,700"],
        ["solve", "--equation", "gamma-log", "--q=3.0"],
        ["sweep", "--q-list", "1e-17"],
        ["solve", "--equation", "nope"],
        ["extremal", "--family", "ainf", "--q", "-1"],
        ["bellman", "--surface", "ainf-upper", "--q", "2.0", "--eval", "0.5,1", "--verify", "bounds"],
        ["extremal", "--family", "ainf", "--q", "0.9"],
    )

    def test_repeated_main_matches_fresh_interpreters(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines at this width
        env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": str(Path(weightlab.__file__).parents[1])}
        procs = [
            subprocess.Popen(
                [sys.executable, "-W", "error", "-m", "weightlab.cli", *argv],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for argv in self.ARGVS
        ]
        fresh = []
        for proc in procs:
            out, err = proc.communicate()
            fresh.append((proc.returncode, out, err))
        assert {rc for rc, _, _ in fresh} == {0, 2}
        assert sum("usage:" in err for _, _, err in fresh) == 3
        for _ in range(2):
            got = []
            for argv in self.ARGVS:
                try:
                    rc = cli.main(list(argv))
                except SystemExit as exc:
                    rc = exc.code
                captured = capsys.readouterr()
                got.append((rc, captured.out, captured.err))
            assert got == fresh

    def test_parser_is_built_once(self, capsys):
        for q in ("2.0", "3.0", "4.0"):
            assert cli.main(["solve", "--equation", "gamma-log", "--q", q]) == 0
        assert cli.main(["sweep", "--q-list", "2"]) == 0
        capsys.readouterr()
        assert cli._build_parser.cache_info().misses == 1
        assert cli._option_table.cache_info().misses == 1

    def test_main_none_reads_sys_argv_through_the_pass(self, capsys, monkeypatch):
        argv = ["solve", "--equation", "gamma-log", "--q", "3.0"]
        assert cli.main(argv) == 0
        want = capsys.readouterr()

        def refuse(*args, **kwargs):
            raise AssertionError("argparse parsed a plain argv")

        monkeypatch.setattr(sys, "argv", ["weightlab", *argv])
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
        assert cli.main() == 0
        assert capsys.readouterr() == want


# the parser's own subcommands and actions, from which the argvs below are drawn
PARSER = cli._build_parser()
SUBPARSERS = next(a for a in PARSER._actions if isinstance(a, argparse._SubParsersAction)).choices
TEXT = st.text(st.characters(codec="utf-8"), max_size=8).filter(lambda t: not t.startswith("-"))


def _value(action) -> st.SearchStrategy[str]:
    """A value token of the plain form for one action: in its choices, of its type, no leading '-'."""
    if action.choices is not None:
        return st.sampled_from(tuple(action.choices))
    if action.type is float:
        return st.floats(min_value=0.0).map(repr) | st.sampled_from(("nan", "inf", "1e400", " 2.5 ", "1_0.5"))
    if action.type is int:
        return st.integers(0, 10**6).map(str) | st.sampled_from(("+3", " 7", "0_1"))
    return TEXT


@st.composite
def plain_forms(draw):
    """(command, [[option] or [option, value], ...]): every required option, one member of
    each required group, any others at most once, in any order."""
    cmd = draw(st.sampled_from(tuple(SUBPARSERS)))
    sub = SUBPARSERS[cmd]
    group_of = {a: g for g in sub._mutually_exclusive_groups for a in g._group_actions}
    chosen = {g: draw(st.sampled_from(g._group_actions) if g.required else st.none() | st.sampled_from(g._group_actions))
              for g in sub._mutually_exclusive_groups}
    pairs = []
    for action in sub._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if action in group_of:
            if chosen[group_of[action]] is not action:
                continue
        elif not (action.required or draw(st.booleans())):
            continue
        option = draw(st.sampled_from(action.option_strings))
        pairs.append([option] if action.nargs == 0 else [option, draw(_value(action))])
    return cmd, draw(st.permutations(pairs))


def _argv(cmd, pairs) -> list[str]:
    return [cmd, *(token for pair in pairs for token in pair)]


# kinds of declined argv after which argparse always exits (2, or 0 for -h)
ARGPARSE_EXITS = {"dash-text", "missing", "both", "neither", "choice", "bad-number", "help", "unknown", "empty"}


@st.composite
def declined_forms(draw):
    """(kind, argv): a plain form with one change the one-pass parse must decline."""
    cmd, pairs = draw(plain_forms())
    sub = SUBPARSERS[cmd]
    act = {pair[0]: sub._option_string_actions[pair[0]] for pair in pairs}
    valued = [k for k, pair in enumerate(pairs) if len(pair) == 2]
    numeric = [k for k in valued if act[pairs[k][0]].type in (int, float)]
    text = [k for k in valued if act[pairs[k][0]].type is None and act[pairs[k][0]].choices is None]
    short = [(k, o[:n]) for k, (o, *_) in enumerate(pairs) for n in range(3, len(o))
             if o[:n] not in sub._option_string_actions]
    kinds = {
        "abbreviation": short, "equals": valued, "dash-number": numeric, "dash-text": text, "lone-dash": text,
        "repeat": pairs,
        "missing": [k for k, pair in enumerate(pairs) if act[pair[0]].required],
        "both": [g for g in sub._mutually_exclusive_groups if len(g._group_actions) > 1],
        "neither": [k for k, pair in enumerate(pairs) if any(g.required and act[pair[0]] in g._group_actions
                                                              for g in sub._mutually_exclusive_groups)],
        "choice": [k for k in valued if act[pairs[k][0]].choices is not None],
        "bad-number": numeric, "help": [True], "unknown": [True], "empty": [True],
    }
    kind = draw(st.sampled_from(sorted(k for k, where in kinds.items() if where)))
    pick = draw(st.sampled_from(kinds[kind]))
    pairs = [list(pair) for pair in pairs]
    if kind == "abbreviation":
        pairs[pick[0]][0] = pick[1]
    elif kind == "equals":
        pairs[pick] = ["=".join(pairs[pick])]
    elif kind in ("dash-number", "dash-text", "lone-dash"):  # argparse reads -1 and - as values, -1,2 as an option
        pairs[pick][1] = "-" if kind == "lone-dash" else draw(st.sampled_from(
            ("-1", "-0.5", "-1e3") if kind == "dash-number" else ("-1,2", "-x")))
    elif kind == "repeat":
        pairs.insert(draw(st.integers(0, len(pairs))), list(pick))
    elif kind in ("missing", "neither"):
        del pairs[pick]
    elif kind == "both":
        given = {pair[0] for pair in pairs}
        for action in pick._group_actions:
            if not given & set(action.option_strings):
                pairs.append([action.option_strings[0], draw(_value(action))][: 1 + (action.nargs != 0)])
    elif kind == "choice":
        pairs[pick][1] = "nope"
    elif kind == "bad-number":
        pairs[pick][1] = draw(st.sampled_from(("x1", "1.5.0", "") if act[pairs[pick][0]].type is float else ("x1", "1.5", "")))
    elif kind in ("help", "unknown"):
        token = "-h" if kind == "help" else draw(st.sampled_from(("--nope", "stray", "-x")))
        pairs.insert(draw(st.integers(0, len(pairs))), [token])
    argv = [] if kind == "empty" else _argv(cmd, pairs)
    if kind == "unknown" and draw(st.booleans()):
        argv = ["nope", *argv[1:]]
    return kind, argv


def _namespace(ns) -> list:
    """A Namespace as (name, type, repr) in order, so that nan equals nan and 1 differs from 1.0."""
    return [(k, type(v), repr(v)) for k, v in vars(ns).items()]


def _parse_outcome(argv):
    """argparse's own parse of argv: (Namespace or exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = PARSER.parse_args(argv)
        except SystemExit as exc:
            got = exc.code
    return got, out.getvalue(), err.getvalue()


class TestPlainParse:
    """cli._parse_plain against argparse, over argvs built from the parser's own actions."""

    @given(plain_forms())
    def test_plain_forms_parse_as_argparse_does(self, form):
        argv = _argv(*form)
        got, (want, _, _) = cli._parse_plain(argv), _parse_outcome(argv)
        assert isinstance(want, argparse.Namespace), argv
        assert got is not None, argv
        assert _namespace(got) == _namespace(want) and got.func is want.func

    @given(declined_forms())
    @example(("neither", ["bellman", "--surface", "ainf-upper", "--q", "2.0"]))
    @example(("dash-text", ["bellman", "--surface", "gehring", "--q", "2.0", "--eval", "-1,2"]))
    @example(("dash-number", ["extremal", "--family", "ainf", "--q", "-1"]))
    @example(("equals", ["solve", "--equation", "gamma-log", "--q=2.0"]))
    @example(("abbreviation", ["dyadic", "--weight", "w.json", "--q", "2", "--q1", "3", "--dep", "2"]))
    @example(("repeat", ["solve", "--equation", "funny", "--q", "2", "--q", "3"]))
    @example(("missing", ["dyadic", "--weight", "w.json", "--q", "2"]))
    @example(("both", ["bellman", "--surface", "gehring", "--q", "2", "--eval", "0.5,1", "--verify", "bounds"]))
    @example(("choice", ["bellman", "--surface", "nope", "--q", "2", "--verify", "bounds"]))
    @example(("bad-number", ["bellman", "--surface", "gehring", "--q", "2", "--verify", "bounds", "--grid", "1.5"]))
    @example(("bad-number", ["extremal", "--family", "ainf", "--q", "x1"]))
    @example(("help", ["sweep", "-h"]))
    @example(("unknown", ["sweep", "--q-list", "2", "stray"]))
    @example(("empty", []))
    def test_declined_forms_go_to_argparse(self, form):
        kind, argv = form
        assert cli._parse_plain(argv) is None, argv
        want = _parse_outcome(argv)
        if kind in ARGPARSE_EXITS:
            assert want[0] == (0 if kind == "help" else 2), (argv, want)
        if isinstance(want[0], int):  # main exits with argparse's own code and bytes
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert (exc.value.code, out.getvalue(), err.getvalue()) == want


def _clean(obj):
    """Every float in a payload rounded to 15 digits, a non-finite one None (null).

    The finiteness test follows the rounding, which overflows past 1.79769313486231e308:
    tested before it, such a float printed as Infinity, which is not JSON.
    """
    if isinstance(obj, float):
        obj = cli._fmt(obj)
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    return obj


def _reference_json(obj) -> str:
    """The JSON writer's reference: the payload cleaned, then json.dumps at indent 2."""
    return json.dumps(_clean(obj), indent=2)


# payload leaves: floats over the double range (nan, +-inf, -0.0, subnormals and
# 1e308 among them) plain and as numpy scalars, ints, bools, None, any text
FLOATS = NUMBERS | st.floats() | st.sampled_from((1e308, -1e308, 1.7976931348623157e308, 2.0**-1022))
LEAVES = FLOATS | FLOATS.map(np.float64) | st.integers() | st.booleans() | st.none() | st.text()
KEYS = st.text() | FLOATS | st.integers() | st.booleans() | st.none()
PAYLOADS = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=40,
)


class TestFormatting:
    @settings(deadline=None)
    @given(PAYLOADS)
    @example({})
    @example({"a": [], "b": (), "c": {}, "d": [()]})
    @example({1.5: math.nan, True: -0.0, None: [math.inf, -math.inf], 3: 5e-324, math.inf: "\u00e9\u2603\n"})
    @example([{"pieces": [{"a": 0.0, "b": 1.0, "coeff": 1e308, "exponent": -0.999999}]}, (1, (2.5e-310,))])
    def test_writer_matches_the_cleaned_json_dumps(self, payload):
        assert cli._json(payload) == _reference_json(payload)

    def test_float_writer_is_the_repr_of_the_fifteen_digit_rounding(self):
        # '%.15g' with .0 on an integer, but for subnormals, exponent 15 and e+308
        rng = np.random.default_rng(2525)
        edge = [0.0, -0.0, 1e15, -1e15, 1e15 - 1.0, 1e15 + 1.0, 999999999999999.0, 9999999999999998.0, 1e16,
                -1e16, 1.7976931348623157e308, -1.7976931348623157e308, 1.79769313486231e308, 5e-324, -5e-324,
                2.2250738585072014e-308, 2.225073858507201e-308, 1e-5, 1e-4, 123.0, math.inf, -math.inf, math.nan]
        bits = rng.integers(0, 2**63, 60000, dtype=np.int64) * rng.choice([-1, 1], 60000)
        near = rng.integers(-3 * 10**16, 3 * 10**16, 20000) >> rng.integers(0, 40, 20000)
        for x in edge + bits.view(np.float64).tolist() + near.astype(float).tolist():
            want = repr(y) if math.isfinite(y := float(f"{x:.15g}")) else "null"
            assert cli._json(x) == want, x

    @pytest.mark.parametrize(
        "argv, key",
        [(["solve", "--equation", "gamma-log", "--q", "1.7976931348623157e308"], "q"),
         (["solve", "--equation", "gehring-sharp", "--p", "1.7976931348623157e308", "--k", "2"], "p")],
        ids=["gamma-log-q", "gehring-sharp-p"],
    )
    def test_a_float_rounding_past_the_double_range_prints_null(self, argv, key, capsys):
        # 1.79769313486232e308, its 15-digit rounding, is past the double range
        assert cli.main(argv) == 0
        assert _strict_json_out(capsys)[key] is None

    def test_writer_refuses_what_json_refuses(self):
        for payload in ({"x": np.int64(1)}, [object()], {(1, 2): 0.0}):
            with pytest.raises(TypeError):
                _reference_json(payload)
            with pytest.raises(TypeError):
                cli._json(payload)

    def test_csv_rows_format_each_type(self, capsys):
        rows = [
            ("rh1", 0.1, 0, -0.0),
            (3, math.inf, math.nan, np.float64(1.0) / 3.0),
            (True, 1e-300, 12345678901234567.0, 2.5),
        ]
        cli._write(cli._csv("a,b,c,d", rows), None)
        assert capsys.readouterr().out == (
            "a,b,c,d\n"
            "rh1,0.1,0,-0\n"
            "3,inf,nan,0.333333333333333\n"
            "True,1e-300,1.23456789012346e+16,2.5\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [["solve", "--equation", "gamma-log", "--q", "3.0"], ["sweep", "--q-list", "2,8"]],
        ids=["json", "csv"],
    )
    def test_output_into_missing_directory_exits_2(self, argv, tmp_path, capsys):
        out = tmp_path / "missing" / "out"
        assert cli.main([*argv, "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")

    def test_floats_render_at_fifteen_significant_digits(self, capsys):
        assert cli.main(["solve", "--equation", "gamma-log", "--q", "3.0"]) == 0
        out = capsys.readouterr().out
        assert "0.141227240989036" in out
