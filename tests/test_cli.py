"""Command-line interface: exit codes, artifacts, determinism."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszlab.analysis import (amplitude_b0, envelope_bands, envelope_check,
                               fit_tail)
from rieszlab.cli import main
from rieszlab.exponents import Params, classify
from rieszlab.grid import make_grid
from rieszlab.riesz import MAX_DENSE_COUNT
from rieszlab.runio import read_trajectory_csv
from rieszlab.solver import SolveConfig, solve_picard

SING = ["singular", "--n", "5", "--alpha", "2", "--p", "3", "--q", "3",
        "--grid", "1e-4:1e4:256"]
SOLVE = ["solve", "--n", "4", "--alpha", "2", "--p", "3", "--q", "3",
         "--grid", "1e-4:1e4:128", "--tol", "5e-6"]
BISECT = ["bisect", "--n", "5", "--alpha", "2", "--p", "3", "--q", "3",
          "--lo", "0.5", "--hi", "2.0", "--iters", "20", "--r-end", "1e4"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _run_dir(tmp_path_factory, argv):
    """The ``--out`` directory of one run of ``argv``, shared by the
    tests of a module."""
    out_dir = tmp_path_factory.mktemp("runs") / argv[0]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--out", str(out_dir)]) == 0
    return out_dir


@pytest.fixture(scope="module")
def solve_run(tmp_path_factory):
    return _run_dir(tmp_path_factory, SOLVE)


@pytest.fixture(scope="module")
def bisect_run(tmp_path_factory):
    return _run_dir(tmp_path_factory, BISECT)


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

    @pytest.mark.parametrize("section, key, value", [
        ("params", "n", "abc"), ("params", "n", None),
        ("params", None, [1, 2]), ("params", "n", 5.5),
        ("params", "alpha", 10 ** 400), ("gridSpec", "rMin", "x"),
        ("gridSpec", "count", 300), ("gridSpec", "count", 10 ** 12)],
        ids=["n-string", "n-null", "params-list", "n-fraction", "alpha-huge",
             "rMin-string", "count-off", "count-huge"])
    def test_analyze_malformed_manifest_exits_2(self, tmp_path, capsys,
                                                section, key, value):
        # a string and a null n raised a raw ValueError and TypeError, a
        # list of params a TypeError, an alpha past the double range an
        # OverflowError, and n = 5.5 was read as 5; a string rMin raised
        # a ValueError, a count off the samples' a broadcast ValueError,
        # and 10^12 asked for a grid of 10^12 nodes before any check
        out_dir = tmp_path / "run1"
        run(capsys, SING + ["--out", str(out_dir)])
        path = out_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        if key is None:
            manifest[section] = value
        else:
            manifest[section][key] = value
        path.write_text(json.dumps(manifest))
        code, _, err = run(capsys, ["analyze", str(out_dir), "--claim",
                                    "fast-limits"])
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err


class TestSolve:
    def test_zero_budget_exits_1(self, capsys):
        code, _, err = run(capsys, ["solve", "--n", "4", "--alpha", "2",
                                    "--p", "3", "--q", "3", "--grid",
                                    "1e-4:1e4:64", "--max-iters", "0"])
        assert code == 1
        assert err != ""

    @pytest.mark.parametrize("argv", [
        ["singular", "--n", "400", "--alpha", "2", "--p", "1.5", "--q",
         "1.5", "--grid", "0.5:2:64"],
        ["solve", "--n", "400", "--alpha", "2", "--p", "1.0050505050505051",
         "--q", "1.0150749942897748", "--grid", "0.5:2:64"]])
    def test_dimension_past_the_gamma_range_exits_2(self, capsys, argv):
        # both ended in a traceback from math.gamma's OverflowError
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "n=400" in err

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
                                        '{"tol": true}',
                                        '{"damping": true}',
                                        '{"normalizeAtOrigin": "false"}',
                                        '{"normalizeAtOrigin": true}',
                                        '{"normalizeAtOrigin": false}'])
    def test_malformed_config_exits_2(self, tmp_path, capsys, config):
        # a NaN or infinite (1e400) budget and a string damping raised a
        # raw ValueError, OverflowError and TypeError; a true budget ran
        # one sweep, a true tol ran at tol 1 and exited 0, a true damping
        # ran at damping 1; origin normalization is no longer an option
        path = tmp_path / "config.json"
        path.write_text(config)
        code, _, err = run(capsys, ["solve", "--n", "4", "--alpha", "2",
                                    "--p", "3", "--q", "3", "--grid",
                                    "1e-2:1e2:32", "--config", str(path)])
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        if "normalizeAtOrigin" in config:
            assert "known keys: ['damping', 'maxIters', 'tol']" in err

    def test_damping_flag_overrides_the_config(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"damping": 0.3}')
        out_dir = tmp_path / "damped"
        code, _, _ = run(capsys, SOLVE + ["--config", str(path), "--damping",
                                          "0.8", "--out", str(out_dir)])
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["settings"] == {"damping": 0.8, "maxIters": 400,
                                        "tol": 5e-6}
        report = json.loads((out_dir / "report.json").read_text())
        pair = solve_picard(Params(4, 2.0, 3.0, 3.0),
                            make_grid(1e-4, 1e4, 128, 4),
                            SolveConfig(tol=5e-6, damping=0.8))
        assert report["iterations"] == pair.iterations

    @pytest.mark.parametrize("text, message", [
        (None, "config file not found"), ("{", "malformed config"),
        ("[0.5]", "must hold a JSON object")],
        ids=["missing", "malformed", "not-an-object"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, text,
                                       message):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text)
        code, _, err = run(capsys, SOLVE + ["--config", str(path)])
        assert code == 2
        assert err.startswith("error:") and message in err

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

    def test_analyze_fast_limits_claim(self, tmp_path, capsys):
        # (4,2,2,5) is on the log-corrected branch: v's fit takes the log
        # model, and its field integrals take the pure power-law tail
        out_dir = tmp_path / "solved"
        code, _, _ = run(capsys, ["solve", "--n", "4", "--alpha", "2",
                                  "--p", "2", "--q", "5", "--grid",
                                  "1e-4:1e4:512", "--tol", "1e-5",
                                  "--out", str(out_dir)])
        assert code == 0
        code, out, _ = run(capsys, ["analyze", str(out_dir), "--claim",
                                    "fast-limits"])
        assert code == 0
        data = json.loads(out)
        assert data["fits"]["v"]["logPower"] == 1
        assert data["claim"]["confirmed"] is True
        assert data["claim"]["details"]["case"] == "LogCorrected"
        params = Params(4, 2.0, 2.0, 5.0)
        pair = solve_picard(params, make_grid(1e-4, 1e4, 512, 4),
                            SolveConfig(tol=1e-5))
        assert data["claim"]["details"]["b0"] == pytest.approx(
            amplitude_b0(pair), rel=1e-12, abs=0.0)


class TestAnalyzeRuns:
    @pytest.mark.parametrize("claim, confirmed, verdict", [
        ("slow-decay", True, "slow rates confirmed"),
        ("fast-decay", False, "fast rates not confirmed"),
        ("envelope", True, "decay envelope confirmed"),
        ("blowup-recursion", True, "decay below the slow rate: recursion "
         "exponent turns negative at step 2")])
    def test_claims_on_a_trajectory_run(self, bisect_run, capsys, claim,
                                        confirmed, verdict):
        code, out, _ = run(capsys, ["analyze", str(bisect_run), "--claim",
                                    claim])
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "trajectory"
        assert data["claim"]["confirmed"] is confirmed
        assert data["claim"]["verdict"] == verdict
        # u and v are the trajectory's columns 1 and 3
        samples = read_trajectory_csv(bisect_run / "trajectory.csv")
        assert data["fits"]["u"]["exponent"] == fit_tail(
            samples[:, 0], samples[:, 1]).exponent
        assert data["fits"]["v"]["exponent"] == fit_tail(
            samples[:, 0], samples[:, 3]).exponent

    def test_fast_limits_needs_a_field_run(self, bisect_run, capsys):
        code, _, err = run(capsys, ["analyze", str(bisect_run), "--claim",
                                    "fast-limits"])
        assert code == 2
        assert "needs a field run" in err

    @pytest.mark.parametrize("claim, verdict", [
        ("fast-decay", "fast rates confirmed"),
        ("blowup-recursion", "decay at or above the slow rate: recursion "
         "stays positive")])
    def test_claims_on_a_field_run(self, solve_run, capsys, claim, verdict):
        code, out, _ = run(capsys, ["analyze", str(solve_run), "--claim",
                                    claim])
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "field"
        assert data["claim"]["confirmed"] is True
        assert data["claim"]["verdict"] == verdict

    def test_writes_the_printed_report(self, solve_run, tmp_path, capsys):
        out_dir = tmp_path / "analysis"
        code, out, _ = run(capsys, ["analyze", str(solve_run), "--claim",
                                    "fast-decay", "--out", str(out_dir)])
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["report.json"]
        assert (out_dir / "report.json").read_text() == out


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
        assert report["xi"] == pytest.approx(1.0, abs=1e-6)
        # the secant search ends on a decaying shot well inside the budget
        # of 20 (11 shots in all), and returns that shot as its bracket
        assert report["outcome"] == "Decaying"
        assert report["bracketLo"] == report["bracketHi"] == report["xi"]
        shots = report["shots"]
        assert len(shots) <= 15
        assert set(shots[0]) == {"xi", "outcome", "crossingRadius",
                                 "rhsEvaluations"}
        assert {shot["outcome"] for shot in shots[:-1]} == {
            "UCrossedZero", "VCrossedZero"}
        assert shots[-1]["outcome"] == "Decaying"
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
        assert sorted(p.name for p in out_dir.iterdir()) == ["report.json"]
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
