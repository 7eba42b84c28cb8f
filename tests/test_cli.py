"""Command line interface: payload shapes, exit codes, file output, determinism.

All tests drive cli.main() in process and parse what lands on stdout, so
they cover exactly what a shell user sees.
"""

import json
import math
import warnings

import pytest

from weightlab import (
    BellmanSurface,
    SurfaceKind,
    cli,
    evaluate_surface,
    load_weight,
    power_weight,
    save_weight,
)
from weightlab.solvers import gamma_log

from _frozen import GAMMA_MINUS_1, RATIO_BOUND_E, RH1_LINEAR


@pytest.fixture()
def linear_file(tmp_path):
    path = tmp_path / "linear.json"
    save_weight(power_weight(1.0, 1.0), str(path))
    return str(path)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


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

    def test_out_of_range_parameter_exits_2(self, capsys):
        rc = cli.main(["solve", "--equation", "gamma-log", "--q", "1.0"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

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

    def test_missing_weight_file_exits_2(self, tmp_path, capsys):
        rc = cli.main(["constants", "--weight", str(tmp_path / "nope.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "pieces, which, message",
        [
            # every pair average of w log w overflows, so rh1 is nan everywhere
            ([(0.0, 1.0, 1e308)], "rh1", "rh1"),
            # c**p overflows in the closed-form moment of w^p
            ([(0.0, 0.5, 1e300), (0.5, 1.0, 1e-300)], "rhp", "overflows"),
        ],
        ids=["rh1-no-finite-value", "rhp-coeff-power-overflow"],
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

    def test_byte_identical_reruns(self, linear_file, capsys):
        args = ["constants", "--weight", linear_file,
                "--which", "rh1,ainf,rhp,ap", "--p-values", "1.5,2"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        assert capsys.readouterr().out == first


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

    def test_inadmissible_q_exits_2(self, linear_file, capsys):
        rc = cli.main(
            ["dyadic", "--weight", linear_file, "--mode", "log",
             "--q", "1.2", "--q1", "1.3", "--depth", "2"]
        )
        assert rc == 2
        assert "exceeds" in capsys.readouterr().err


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


class TestFormatting:
    def test_floats_render_at_fifteen_significant_digits(self, capsys):
        assert cli.main(["solve", "--equation", "gamma-log", "--q", "3.0"]) == 0
        out = capsys.readouterr().out
        assert "0.141227240989036" in out
