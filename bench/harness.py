"""Runs one workload of the rieszlab benchmark and reports its metrics.

Untraced runs repeat the workload's job while the next one is expected
to end within the time budget, and report the end-to-end metrics over
those jobs; their times are paced seconds (see ``pace.py``).
Traced runs wrap rieszlab's public functions (see ``tracing.py``), run
one traced job of every workload family per pass and report per-layer
metrics prefixed by family (``picard.``, ``singular.``, ``bisect.``),
plus each family's tracing overhead, estimated as its span count times
the cost of one wrapper call measured in the same run.

Every run writes ``bench/out/<workload>-seed<n>-trace<t>.json`` (host,
inputs, jobs, metrics); traced runs add the spans and, for
``picard-fast-limits``, the top-10 cumulative cProfile entries of one
untraced job.
"""

from __future__ import annotations

import cProfile
import io
import json
import os
import platform
import pstats
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from rieszlab import (analysis, cli, riesz, runio, shooting,  # noqa: E402
                      solver)

import pace  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT = ROOT / "bench" / "out"
WORKLOADS = tuple(workloads.JOBS)

#: End-to-end metrics and units.  ``engine_steps`` is the solver's work
#: count: Picard sweeps, singular-pair operator applications, or shots.
#: Times are medians over the run's jobs (their count is the result's
#: ``attempted``) of each job's paced seconds (see ``pace.py``):
#: ``setup_s`` over its set-up phases, ``solve_s`` over the others and
#: ``time_to_solution_s`` over all.  On a shared 2-CPU Xeon VM, wall
#: times of the same job moved by up to 1.5x between runs minutes apart,
#: fastest-of-repeats estimators included; paced seconds moved by a few
#: per cent.
END_TO_END = {
    "time_to_solution_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
    "engine_steps": "count",
    "jobs_ok_share": "ratio",
}

# ---------------------------------------------------------------------------
# traced functions and per-layer metrics


def _points(args, kwargs, result):
    return int(np.size(args[0]))


def _tail_key(args, kwargs, result):
    log_power = args[2] if len(args) > 2 else kwargs.get("tail_log_power",
                                                         0.0)
    return [id(args[0]), float(args[1]), float(log_power)]


def _file_bytes(args, kwargs, result):
    return os.path.getsize(result)


#: (module, function, note) of every traced function.
TRACED = (
    (riesz, "assemble", None),
    (riesz, "kernel_ratio", _points),
    (riesz, "tail_response", _tail_key),
    (riesz, "apply_extended", None),
    (solver, "solve_picard", None),
    (solver, "singular_solution", None),
    (shooting, "shoot", None),
    (shooting, "bisect_ground_state", None),
    (analysis, "check_fast_limits", None),
    (analysis, "fit_tail", None),
    (cli, "main", None),
    (runio, "write_json", _file_bytes),
    (runio, "write_trajectory_csv", _file_bytes),
)


def _name(module, fn):
    return "%s.%s" % (module.__name__.rsplit(".", 1)[-1], fn)


class JobSpans:
    """The spans of one traced job, summed by name."""

    def __init__(self, tracer, job):
        self.rows = [(span[0], span[2] - span[1], self_s, span[5])
                     for span, self_s in zip(tracer.spans,
                                             tracer.self_times())
                     if span[4] == job]

    def of(self, name):
        return [row for row in self.rows if row[0] == name]

    def calls(self, name):
        return len(self.of(name))

    def seconds(self, name):
        return sum(row[1] for row in self.of(name))

    def self_seconds(self, name):
        return sum(row[2] for row in self.of(name))

    def notes(self, name):
        return [row[3] for row in self.of(name)]


def _kernel_metrics(spans):
    points = sum(spans.notes("riesz.kernel_ratio"))
    seconds = spans.seconds("riesz.kernel_ratio")
    return {
        "riesz.kernel_ratio.calls": (spans.calls("riesz.kernel_ratio"),
                                     "count"),
        "riesz.kernel_ratio.points": (points, "count"),
        "riesz.kernel_ratio.s": (seconds, "s"),
        "riesz.kernel_ratio.points_per_s": (points / seconds if seconds
                                            else 0.0, "1/s"),
    }


def _overhead(spans, job, span_cost):
    overhead = len(spans.rows) * span_cost
    return {
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_share": (overhead / job.seconds if job.seconds
                                 else 0.0, "ratio"),
    }


def picard_layers(spans, job, sweep_times):
    calls = spans.calls("riesz.tail_response")
    distinct = len({tuple(k) for k in spans.notes("riesz.tail_response")})
    out = {
        "riesz.assemble.s": (spans.seconds("riesz.assemble"), "s"),
        "riesz.tail_response.s": (spans.seconds("riesz.tail_response"), "s"),
        "riesz.tail_response.calls": (calls, "count"),
        "riesz.tail_response.distinct_keys": (distinct, "count"),
        "riesz.tail_response.reuse_ratio": ((calls - distinct) / calls
                                            if calls else 0.0, "ratio"),
        "riesz.apply_extended.calls": (spans.calls("riesz.apply_extended"),
                                       "count"),
        "riesz.apply_extended.self_s": (
            spans.self_seconds("riesz.apply_extended"), "s"),
        "solver.solve_picard.self_s": (
            spans.self_seconds("solver.solve_picard"), "s"),
        "solver.sweep_s": (statistics.median(sweep_times)
                           if sweep_times else 0.0, "s"),
        "solver.sweeps": (job.steps, "count"),
        "analysis.check_fast_limits.s": (
            spans.seconds("analysis.check_fast_limits"), "s"),
        "analysis.fit_tail.s": (spans.seconds("analysis.fit_tail"), "s"),
    }
    out.update(_kernel_metrics(spans))
    return out


def singular_layers(spans, job, sweep_times):
    out = {
        "riesz.assemble.s": (spans.seconds("riesz.assemble"), "s"),
        "riesz.operator_bytes_computed": (job.operator_bytes, "B"),
        "solver.singular_solution.s": (
            spans.seconds("solver.singular_solution"), "s"),
    }
    out.update(_kernel_metrics(spans))
    return out


def bisect_layers(spans, job, sweep_times):
    shots = spans.calls("shooting.shoot")
    writes = spans.of("runio.write_json") + spans.of(
        "runio.write_trajectory_csv")
    return {
        "shooting.shoot.calls": (shots, "count"),
        "shooting.shoot.s": (spans.seconds("shooting.shoot") / shots
                             if shots else 0.0, "s"),
        "shooting.bisect_ground_state.s": (
            spans.seconds("shooting.bisect_ground_state"), "s"),
        "cli.main.s": (spans.seconds("cli.main"), "s"),
        "runio.write_s": (sum(row[1] for row in writes), "s"),
        "runio.bytes_written": (sum(row[3] for row in writes), "B"),
    }


LAYERS = {
    "picard": picard_layers,
    "singular": singular_layers,
    "bisect": bisect_layers,
}


# ---------------------------------------------------------------------------
# runs


def _repeat(deadline, step):
    """Call ``step`` at least once, and again while the next call is
    expected (from the last one's duration) to end by ``deadline``."""
    out = []
    last = 0.0
    while not out or perf_counter() + last <= deadline:
        began = perf_counter()
        out.append(step())
        last = perf_counter() - began
    return out


def _check_repeats(jobs):
    """Jobs on the same inputs must repeat work counts and artifacts."""
    passed = [j for j in jobs if j.ok]
    for job in passed[1:]:
        if (job.steps, job.fingerprint) != (passed[0].steps,
                                            passed[0].fingerprint):
            job.failures.append(
                "steps/artifacts %r differ from the first job's %r"
                % ((job.steps, job.fingerprint),
                   (passed[0].steps, passed[0].fingerprint)))


def _median(values):
    return float(statistics.median(values))


def _paced(clock, job, setup, probe):
    """Paced seconds by ``probe`` of the job's set-up (or solve) phases."""
    return sum(clock.seconds(start, end, probe)
               for name, start, end in job.phases
               if name.startswith("setup") == setup)


def measure(workload, inputs, sizes, deadline, workdir):
    """Untraced run: jobs and end-to-end metrics."""
    setup_probe, solve_probe = workloads.JOBS[workload][2]
    with pace.Pace((setup_probe, solve_probe)) as clock:
        jobs = _repeat(deadline, lambda: workloads.run_job(
            workload, inputs, sizes, workdir))
    _check_repeats(jobs)
    for job in jobs:
        job.paced = (_paced(clock, job, True, setup_probe),
                     _paced(clock, job, False, solve_probe))
    timed = [j for j in jobs if j.ok] or jobs
    values = {
        "time_to_solution_s": _median(sum(j.paced) for j in timed),
        "setup_s": _median(j.paced[0] for j in timed),
        "solve_s": _median(j.paced[1] for j in timed),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "engine_steps": _median(j.steps for j in timed),
        "jobs_ok_share": sum(j.ok for j in jobs) / len(jobs),
    }
    artifacts = {"pace": clock.summary()}
    return jobs, {name: (values[name], unit)
                  for name, unit in END_TO_END.items()}, artifacts


def trace(workload, inputs, sizes, deadline, workdir):
    """Traced run: per-layer metrics, spans and (Picard) a profile."""
    jobs = []
    artifacts = {}
    if workload == "picard-fast-limits":
        profile = cProfile.Profile()
        profile.enable()
        jobs.append(workloads.run_job(workload, inputs, sizes, workdir))
        profile.disable()
        text = io.StringIO()
        pstats.Stats(profile, stream=text).strip_dirs().sort_stats(
            "cumulative").print_stats(10)
        artifacts["profile"] = text.getvalue()
    tracer = tracing.Tracer()
    wrappers = {getattr(module, fn): tracer.wrap(_name(module, fn),
                                                 getattr(module, fn), note)
                for module, fn, note in TRACED}
    span_cost = tracing.span_cost()

    def one_pass():
        values = {}
        with tracing.patched(wrappers):
            for w in WORKLOADS:
                family = workloads.JOBS[w][0]
                tracer.job = "%s#%d" % (family, len(jobs))
                stamps = []
                job = workloads.run_job(
                    w, inputs, sizes, workdir,
                    monitor=lambda it, *_: stamps.append(
                        (it, perf_counter())))
                jobs.append(job)
                sweeps = [t1 - t0 for (i0, t0), (i1, t1)
                          in zip(stamps, stamps[1:]) if i1 == i0 + 1]
                spans = JobSpans(tracer, tracer.job)
                layers = LAYERS[family](spans, job, sweeps)
                layers.update(_overhead(spans, job, span_cost))
                for name, value in layers.items():
                    values["%s.%s" % (family, name)] = value
        tracer.job = None
        return values

    passes = _repeat(deadline, one_pass)
    metrics = {name: (_median(p[name][0] for p in passes), unit)
               for name, (_, unit) in passes[0].items()}
    artifacts["spans"] = {"columns": ["name", "start", "end", "parent",
                                      "job", "note"],
                          "spans": tracer.spans}
    return jobs, metrics, artifacts


# ---------------------------------------------------------------------------
# host and output


def _git_commit():
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"][
            "name"]
    except (KeyError, TypeError):
        return None


def host_info():
    return {
        "nproc": os.cpu_count(),
        "cpusAvailable": len(os.sched_getaffinity(0)),
        "cpuModel": _cpu_model(),
        "memoryMB": os.sysconf("SC_PAGE_SIZE") * os.sysconf(
            "SC_PHYS_PAGES") // 2 ** 20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_name(),
        "blasThreads": {var: value for var, value in sorted(os.environ.items())
                        if var.endswith("_NUM_THREADS")},
        "gitCommit": _git_commit(),
    }


def run(workload, seed, seconds, traced, sizes=workloads.FULL, out=OUT):
    """Run one workload; returns ``(result, record)``.

    ``result`` is the benchmark's result object; ``record`` adds the
    host, inputs and jobs.  Both, and any spans or profile, are written
    to ``out``.
    """
    deadline = perf_counter() + seconds
    inputs = workloads.make_inputs(seed)
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as workdir:
        jobs, metrics, artifacts = (trace if traced else measure)(
            workload, inputs, sizes, deadline, workdir)
    failed = sum(not j.ok for j in jobs)
    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(traced),
        "inputs": vars(inputs),
        "sizes": vars(sizes),
        "host": host_info(),
        "pace": artifacts.get("pace"),
        "jobs": [{"phases": [(name, end - start)
                             for name, start, end in j.phases],
                  "pacedSetupSolve": j.paced,
                  "steps": j.steps, "failures": j.failures,
                  "fingerprint": list(j.fingerprint)} for j in jobs],
        "result": result,
    }
    stem = "%s-seed%d-trace%d" % (workload, seed, int(bool(traced)))
    (out / (stem + ".json")).write_text(json.dumps(record, indent=1) + "\n")
    if "spans" in artifacts:
        (out / (stem + "-spans.json")).write_text(
            json.dumps(artifacts["spans"]) + "\n")
    if "profile" in artifacts:
        (out / (stem + "-profile.txt")).write_text(artifacts["profile"])
    return result, record
