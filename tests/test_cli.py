"""Command-line interface: exit codes, artifacts, determinism."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszlab.analysis import envelope_bands, envelope_check
from rieszlab.cli import main
from rieszlab.exponents import Params, classify
from rieszlab.riesz import MAX_DENSE_COUNT

SING = ["singular", "--n", "5", "--alpha", "2", "--p", "3", "--q", "3",
        "--grid", "1e-4:1e4:256"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExponents:
    def test_reports_regime_json(self, capsys):
        code, out, _ = run(capsys, ["exponents", "--n", "6", "--alpha", "2",
                                    "--p", "2", "--q", "2"])
        assert code == 0
        data = json.loads(out)
        assert data["regime"] == "Critical"
        assert data["r0"] == pytest.approx(3.0)

    def test_order_flag_matches_alpha(self, capsys):
        _, out_alpha, _ = run(capsys, ["exponents", "--n", "6", "--alpha",
                                       "2", "--p", "2", "--q", "2"])
        _, out_k, _ = run(capsys, ["exponents", "--n", "6", "--k", "1",
                                   "--p", "2", "--q", "2"])
        assert out_alpha == out_k

    def test_alpha_and_k_conflict(self, capsys):
        code, _, err = run(capsys, ["exponents", "--n", "6", "--alpha", "2",
                                    "--k", "1", "--p", "2", "--q", "2"])
        assert code == 2

    def test_invalid_alpha_exits_2(self, capsys):
        code, _, err = run(capsys, ["exponents", "--n", "4", "--alpha", "5",
                                    "--p", "2", "--q", "2"])
        assert code == 2
        assert err != ""

    def test_writes_report_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "exp"
        code, _, _ = run(capsys, ["exponents", "--n", "6", "--alpha", "2",
                                  "--p", "2", "--q", "2", "--out",
                                  str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["regime"] == "Critical"
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "exponents"
        assert len(manifest["configHash"]) == 64


class TestSingular:
    def test_run_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "run1"
        code, _, _ = run(capsys, SING + ["--out", str(out_dir)])
        assert code == 0
        for name in ("solution.csv", "report.json", "manifest.json"):
            assert (out_dir / name).is_file()
        report = json.loads((out_dir / "report.json").read_text())
        assert report["branch"] == "SingularPowerLaw"
        assert report["amplitudeU"] == pytest.approx(math.sqrt(2.0),
                                                     rel=1e-12)
        lines = (out_dir / "solution.csv").read_text().splitlines()
        assert lines[0] == "r,u,v"
        r0, u0, _ = (float(x) for x in lines[1].split(","))
        assert u0 * r0 == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        run(capsys, SING + ["--out", str(dir_a)])
        run(capsys, SING + ["--out", str(dir_b)])
        assert ((dir_a / "solution.csv").read_bytes()
                == (dir_b / "solution.csv").read_bytes())
        ha = json.loads((dir_a / "manifest.json").read_text())["configHash"]
        hb = json.loads((dir_b / "manifest.json").read_text())["configHash"]
        assert ha == hb

    def test_analyze_slow_decay_claim(self, tmp_path, capsys):
        out_dir = tmp_path / "run1"
        run(capsys, SING + ["--out", str(out_dir)])
        code, out, _ = run(capsys, ["analyze", str(out_dir), "--claim",
                                    "slow-decay"])
        assert code == 0
        data = json.loads(out)
        assert data["claim"]["confirmed"] is True
        assert data["claim"]["verdict"] == "slow rates confirmed"
        assert data["integrable"] == {"u": False, "v": False}

    def test_analyze_envelope_claim(self, tmp_path, capsys):
        out_dir = tmp_path / "run1"
        run(capsys, SING + ["--out", str(out_dir)])
        code, out, _ = run(capsys, ["analyze", str(out_dir), "--claim",
                                    "envelope"])
        assert code == 0
        claim = json.loads(out)["claim"]
        details = claim["details"]
        params = Params(5, 2.0, 3.0, 3.0)
        band_u, band_v = envelope_bands(classify(params))
        assert details["bandsU"] == list(band_u) == [1.0 * 0.95, 3.0 * 1.05]
        assert details["bandsV"] == list(band_v)
        inside = envelope_check(params, *details["fitted"])
        assert claim["confirmed"] is inside is True

    def test_analyze_unknown_claim(self, tmp_path, capsys):
        out_dir = tmp_path / "run1"
        run(capsys, SING + ["--out", str(out_dir)])
        code, _, _ = run(capsys, ["analyze", str(out_dir), "--claim",
                                  "bogus"])
        assert code == 2

    def test_analyze_missing_rundir(self, tmp_path, capsys):
        code, _, _ = run(capsys, ["analyze", str(tmp_path / "nope")])
        assert code == 2


class TestSolve:
    def test_zero_budget_exits_1(self, capsys):
        code, _, err = run(capsys, ["solve", "--n", "4", "--alpha", "2",
                                    "--p", "3", "--q", "3", "--grid",
                                    "1e-4:1e4:64", "--max-iters", "0"])
        assert code == 1
        assert err != ""

    def test_bad_grid_string(self, capsys):
        code, _, _ = run(capsys, ["solve", "--n", "4", "--alpha", "2",
                                  "--p", "3", "--q", "3", "--grid", "oops"])
        assert code == 2

    @pytest.mark.parametrize("count", [MAX_DENSE_COUNT + 1, 10 ** 12])
    def test_oversized_grid_exits_2(self, capsys, count):
        # refused on the count alone, before the grid's nodes exist
        code, _, err = run(capsys, ["solve", "--n", "4", "--alpha", "2",
                                    "--p", "3", "--q", "3", "--grid",
                                    "1e-4:1e4:%d" % count])
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("config", ['{"maxIters": NaN}',
                                        '{"maxIters": 1e400}',
                                        '{"damping": "0.5"}',
                                        '{"maxIters": true}',
                                        '{"normalizeAtOrigin": "false"}'])
    def test_malformed_config_exits_2(self, tmp_path, capsys, config):
        # a NaN or infinite (1e400) budget and a string damping raised a
        # raw ValueError, OverflowError and TypeError; true ran one sweep
        # and the string "false" switched the normalization on
        path = tmp_path / "config.json"
        path.write_text(config)
        code, _, err = run(capsys, ["solve", "--n", "4", "--alpha", "2",
                                    "--p", "3", "--q", "3", "--grid",
                                    "1e-2:1e2:32", "--config", str(path)])
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_solve_writes_fields(self, tmp_path, capsys):
        out_dir = tmp_path / "solved"
        code, _, _ = run(capsys, ["solve", "--n", "4", "--alpha", "2",
                                  "--p", "3", "--q", "3", "--grid",
                                  "1e-4:1e4:128", "--tol", "5e-6",
                                  "--out", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["branch"] == "PicardFixedPoint"
        assert report["residualU"] <= 5e-6
        assert report["regime"]["regime"] == "Critical"


class TestShoot:
    def test_crossing_reported(self, tmp_path, capsys):
        out_dir = tmp_path / "shot"
        code, _, _ = run(capsys, ["shoot", "--n", "5", "--alpha", "2",
                                  "--p", "3", "--q", "3", "--xi", "0.8",
                                  "--r-end", "1e4", "--out", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["outcome"] == "VCrossedZero"
        assert report["crossingRadius"] > 1.0
        assert (out_dir / "trajectory.csv").is_file()

    def test_non_positive_origin_profile(self, capsys):
        code, _, err = run(capsys, ["shoot", "--n", "5", "--alpha", "2",
                                    "--p", "3", "--q", "3", "--u0", "1e-3",
                                    "--xi", "10", "--r-start", "1"])
        assert code == 2
        assert "r_start" in err

    def test_bisect_reports_xi(self, tmp_path, capsys):
        out_dir = tmp_path / "bisected"
        code, _, _ = run(capsys, ["bisect", "--n", "5", "--alpha", "2",
                                  "--p", "3", "--q", "3", "--lo", "0.5",
                                  "--hi", "2.0", "--iters", "20",
                                  "--r-end", "1e4", "--out", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["xi"] == pytest.approx(1.0, abs=1e-4)
        assert report["bracketHi"] - report["bracketLo"] == pytest.approx(
            1.5 * 2.0 ** -20, rel=1e-12)
        # one deterministic record per shot: endpoints, 20 midpoints, final
        shots = report["shots"]
        assert len(shots) == 23
        assert set(shots[0]) == {"xi", "outcome", "crossingRadius",
                                 "rhsEvaluations"}
        assert shots[-1]["xi"] == report["xi"]


class TestVerifyAll:
    def test_single_criterion_passes(self, capsys):
        code, out, _ = run(capsys, ["verify-all", "--only",
                                    "exponent-algebra"])
        assert code == 0
        assert "PASS" in out
        assert "1/1 criteria passed" in out

    def test_unknown_criterion(self, capsys):
        code, _, _ = run(capsys, ["verify-all", "--only", "bogus"])
        assert code == 2

    def test_report_written(self, tmp_path, capsys):
        out_dir = tmp_path / "verify"
        code, _, _ = run(capsys, ["verify-all", "--only", "exponent-algebra",
                                  "--seed", "3", "--out", str(out_dir)])
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["allPassed"] is True
        assert report["seed"] == 3
        assert report["results"][0]["key"] == "exponent-algebra"
        assert report["results"][0]["passed"] is True


#: Malformed flag values: not a number, infinite, negative, zero,
#: overflowing (1e400 parses as inf), underflowing, empty and junk.
_BAD_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e400", "1e-400", "",
               "junk"]
#: A small grid keeps a valid draw cheap; its count is never drawn
#: large, so no dense operator is ever big.
_GRID = "1e-2:1e2:32"
_BAD_GRIDS = _BAD_VALUES + [
    ":".join(bad if k == i else part
             for k, part in enumerate(_GRID.split(":")))
    for i in range(3) for bad in _BAD_VALUES]


@st.composite
def _argv(draw, command, **valid):
    """``command`` with every flag of ``valid``, up to two of them
    malformed (none, for the success path)."""
    bad = draw(st.sets(st.sampled_from(sorted(valid)), max_size=2))
    argv = [command]
    for name, value in valid.items():
        if name in bad:
            value = draw(st.sampled_from(
                _BAD_GRIDS if name == "grid" else _BAD_VALUES))
        argv += ["--" + name.replace("_", "-"), value]
    return argv


class TestArgvFuzz:
    @given(st.one_of(
        _argv("exponents", n="5", alpha="2", p="3", q="3"),
        _argv("singular", k="1", n="5", p="3", q="3", grid=_GRID),
        _argv("shoot", n="5", alpha="2", p="3", q="3", xi="0.8", u0="1",
              r_start="1e-6", r_end="1e3")))
    @settings(max_examples=150, deadline=None)
    def test_exit_code_and_no_traceback(self, argv):
        # malformed input exits 2 (or 1 for a numerical failure), never
        # with an uncaught exception
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
