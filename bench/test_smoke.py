"""Smoke test of the benchmark harness at a tiny size.

Run from the repository root with ``python -m pytest bench/test_smoke.py``.
The Picard and singular jobs run on grids far too coarse for their
checks, so they count as failed here; the bisect job runs at full size
(about a second) and must pass, which gives the positive control.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import harness
import pace
import workloads

TINY = workloads.Sizes(picard_count=96, singular_count=64)
ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _emitted(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def _consistent(result):
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload, tmp_path):
    result, record = harness.run(workload, 3, 0, False, TINY, tmp_path)
    _consistent(result)
    assert _emitted(result) == _units("end_to_end")
    share = result["metrics"]["jobs_ok_share"]["value"]
    assert share == pytest.approx(1.0 - result["failed"]
                                  / result["attempted"])
    assert set(record["host"]) >= {"nproc", "cpuModel", "memoryMB", "python",
                                   "numpy", "scipy", "blasThreads",
                                   "gitCommit"}
    if workload == "ground-state-bisect":
        assert result["correct"]
        assert result["metrics"]["engine_steps"]["value"] > 0
        assert result["metrics"]["setup_s"]["value"] > 0


def test_traced_run_emits_every_per_layer_metric(tmp_path):
    result, _ = harness.run("picard-fast-limits", 3, 0, True, TINY, tmp_path)
    _consistent(result)
    assert _emitted(result) == _units("per_layer")
    metrics = result["metrics"]
    # The wrappers reach calls made inside the package, through names
    # imported from another module and through default arguments.
    assert metrics["picard.riesz.tail_response.calls"]["value"] > 0
    assert metrics["picard.riesz.kernel_ratio.points"]["value"] > 0
    assert metrics["bisect.shooting.shoot.calls"]["value"] > 0
    assert metrics["bisect.runio.bytes_written"]["value"] > 0
    for family in ("picard", "singular", "bisect"):
        assert metrics[family + ".trace.overhead_s"]["value"] > 0
    stem = tmp_path / "picard-fast-limits-seed3-trace1"
    spans = json.loads(Path(str(stem) + "-spans.json").read_text())
    assert spans["spans"]
    assert "cumulative" in Path(str(stem) + "-profile.txt").read_text()


def test_pace_scales_wall_time_by_the_probe():
    clock = pace.Pace()
    ref = pace.PROBES["kernel"][1]
    clock.starts, clock.ends = [1.0, 2.0], [1.0 + ref, 2.0 + 2.0 * ref]
    clock.lengths = {"kernel": [ref, 2.0 * ref]}
    clock.finish()
    # Before the second tick the host runs at the reference pace, after
    # it at half of it; the ticks' own time counts zero.
    assert clock.seconds(0.0, 1.0) == pytest.approx(1.0)
    assert clock.seconds(1.0, 2.0) == pytest.approx(1.0 - ref)
    assert clock.seconds(2.0, 3.0) == pytest.approx(0.5 * (1.0 - 2.0 * ref))
    assert clock.seconds(0.5, 2.5) == pytest.approx(
        clock.seconds(0.5, 2.0) + clock.seconds(2.0, 2.5))


def test_pace_probes_a_running_job():
    with pace.Pace(("python", "kernel")) as clock:
        began = perf_counter()
        while perf_counter() - began < 0.3:
            sum(range(1000))
        ended = perf_counter()
    assert len(clock.starts) >= 5
    for probe in ("python", "kernel"):
        assert len(clock.lengths[probe]) == len(clock.starts)
        assert 0.0 < clock.seconds(began, ended, probe) < 10.0 * (ended
                                                                  - began)


def test_failing_check_is_counted(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "BISECT_XI_TOL", -1.0)
    result, record = harness.run("ground-state-bisect", 3, 0, False, TINY,
                                 tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["jobs_ok_share"]["value"] == 0.0
    assert any("xi" in f for job in record["jobs"] for f in job["failures"])


def test_seeds_give_repeatable_inputs():
    assert workloads.make_inputs(0) == workloads.Inputs(1e-4, 1e4, 0.5, 2.0)
    assert workloads.make_inputs(7) == workloads.make_inputs(7)
    for seed in range(1, 50):
        inputs = workloads.make_inputs(seed)
        assert inputs.r_max / inputs.r_min == pytest.approx(1e8)
        assert 10 ** -4.1 <= inputs.r_min <= 10 ** -3.9
        assert (1.0 - inputs.lo) / (inputs.hi - inputs.lo) == pytest.approx(
            1.0 / 3.0)
        assert 10 ** -0.04 <= inputs.hi - 1.0 <= 10 ** 0.04


def _command(*args):
    return [sys.executable, "bench/run.py", "--workload",
            "ground-state-bisect", "--seed", "2", "--seconds", "0",
            "--trace", "0", *args]


def test_command_prints_the_result_last():
    done = subprocess.run(_command(), cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(_command(), cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
