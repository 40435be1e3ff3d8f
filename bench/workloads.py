"""Workloads of the rieszlab benchmark: inputs from a seed, jobs and checks.

A job drives the public API of ``rieszlab`` once and checks its outputs
against references written out here (closed forms and known rates), not
against values imported from the package.  Calls go through module
attributes (``riesz.assemble``, ``cli.main`` ...) so that the tracer in
``tracing.py`` can substitute its wrappers.

Workloads
---------
``picard-fast-limits``
    One assembled N=512 operator shared by three Picard solves plus
    fast-limit checks: the Picard hot path (``tail_response`` and
    ``kernel_ratio``), including the heavy-tailed set that runs into the
    tail-range cap.
``singular-large-grid``
    Assembly at N=4096 for two parameter sets, one at ``alpha = 0.8``
    (the cusp path of ``kernel_ratio``), then the closed-form singular
    pair: assembly and memory dominate, the tail response does little.
``ground-state-bisect``
    One in-process ``rieszlab bisect`` command: shooting, CLI and run
    artifacts, never the Riesz operator, so it is the control workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from rieszlab import analysis, cli, grid, riesz, shooting, solver
from rieszlab.errors import TruncationWarning
from rieszlab.exponents import Params

import tracing

#: Picard sets ``(n, alpha, p, q, tol)``: the pure, log-corrected and
#: weakened fast-decay branches of ``v``.
PICARD_SETS = (
    (4, 2.0, 3.0, 3.0, 1e-6),
    (4, 2.0, 2.0, 5.0, 1e-6),
    (4, 2.0, 1.5, 9.0, 1e-5),
)
#: Singular sets ``(n, alpha, p, q)``; both are supercritical.
SINGULAR_SETS = (
    (5, 2.0, 3.0, 3.0),
    (3, 0.8, 3.0, 3.0),
)
#: Largest accepted fast-limit amplitude deviation (relative).
FAST_LIMIT_TOL = 0.05
#: Largest accepted deviation of the (4,2,3,3) ``u`` from the bubble.
BUBBLE_TOL = 5e-3
#: Bubble scale: ``u = 2 sqrt(2) lam / (lam^2 + r^2)`` has ``u(0) = 1``.
BUBBLE_LAMBDA = 2.0 * math.sqrt(2.0)
#: Exact singular amplitude of (5,2,3,3) and its tolerance.
SINGULAR_AMPLITUDE = math.sqrt(2.0)
SINGULAR_AMPLITUDE_TOL = 1e-6
#: Largest accepted interior residual of the singular pair.
SINGULAR_RESIDUAL_TOL = 1e-3
#: The ground state of (5,2,3,3) has ``xi = 1`` because ``p = q``.
BISECT_XI_TOL = 1e-6
#: Slow rates ``alpha (q+1)/(pq-1)`` of (5,2,3,3) and the fit window.
SLOW_RATES = (1.0, 1.0)
SLOW_RATE_TOL = 0.05
SLOW_FIT_WINDOW = (1e3, 1e4)
#: Bisection steps and shooting horizon of ``rieszlab bisect``.
BISECT_ITERS = 60
BISECT_R_END = 1e5


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the smoke test shrinks them."""

    picard_count: int = 512
    singular_count: int = 4096


FULL = Sizes()


@dataclass(frozen=True)
class Inputs:
    """What the seed decides: the grid domain and the bisection bracket."""

    r_min: float
    r_max: float
    lo: float
    hi: float


#: Seeds other than 0 scale the whole grid by up to this many decades.
#: The log step stays fixed: a wider domain leaves (4,2,3,3) short of
#: tol 1e-6 at N=512, and a smaller r_max leaves (4,2,1.5,9) short of
#: tol 1e-5.
GRID_SHIFT = 0.1
#: ... and widen or narrow the bracket around xi = 1 by up to this many
#: decades.  The bracket keeps xi = 1 at a third of its width, so every
#: seed bisects through the same sequence of outcomes and differs only
#: in depth; a shifted bracket changes which shots cross early and
#: which run to r_end, and with it the cost of the job.
BRACKET_SCALE = 0.04


def make_inputs(seed):
    """Inputs for ``seed``; seed 0 gives the canonical ones.

    Other seeds draw ``r_min = 1e-4 s``, ``r_max = 1e4 s`` with ``s`` in
    ``10^[-0.1, 0.1]``, and the bracket ``(1 - 0.5 c, 1 + c)`` with ``c``
    in ``10^[-0.04, 0.04]``.
    """
    if seed == 0:
        return Inputs(r_min=1e-4, r_max=1e4, lo=0.5, hi=2.0)
    rng = np.random.default_rng(seed)
    shift, width = rng.uniform(-1.0, 1.0, size=2).tolist()
    scale = 10.0 ** (GRID_SHIFT * shift)
    c = 10.0 ** (BRACKET_SCALE * width)
    return Inputs(r_min=1e-4 * scale, r_max=1e4 * scale,
                  lo=1.0 - 0.5 * c, hi=1.0 + c)


@dataclass
class JobResult:
    """One job: timed phases, work count and failed checks.

    ``phases`` holds ``(name, start, end)`` in ``perf_counter`` seconds
    for each stretch of the program's work, in order; names starting
    with ``setup`` are set-up.  The job's own checks run between phases,
    untimed.  ``steps`` counts the engine's work: Picard sweeps,
    operator applications of the singular pair, or shots.
    ``fingerprint`` identifies the job's artifacts and must repeat
    across jobs.  ``paced`` receives the harness's paced seconds of the
    set-up and solve phases in untraced runs.
    """

    phases: list = field(default_factory=list)
    steps: int = 0
    failures: list = field(default_factory=list)
    fingerprint: tuple = ()
    operator_bytes: int = 0
    paced: tuple = ()

    @property
    def ok(self):
        return not self.failures

    @property
    def seconds(self):
        return sum(end - start for _, start, end in self.phases)

    def timed(self, name, began):
        """Record phase ``name`` as running from ``began`` until now."""
        self.phases.append((name, began, perf_counter()))


def _operator_bytes(op):
    """Bytes held by an operator's arrays (computed, not measured)."""
    arrays = [v for v in vars(op).values() if isinstance(v, np.ndarray)]
    arrays += [v for v in vars(op.grid).values() if isinstance(v, np.ndarray)]
    return sum(a.nbytes for a in arrays)


def picard_job(inputs, sizes, result, workdir, monitor):
    """Set up one N-node operator, then solve and check the three sets."""
    t0 = perf_counter()
    g = grid.make_grid(inputs.r_min, inputs.r_max, sizes.picard_count, 4)
    op = riesz.assemble(g, 4, 2.0)
    result.timed("setup", t0)
    for n, alpha, p, q, tol in PICARD_SETS:
        params = Params(n=n, alpha=alpha, p=p, q=q)
        label = "(%g,%g,%g,%g)" % (n, alpha, p, q)
        t0 = perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            pair = solver.solve_picard(params, g, solver.SolveConfig(tol=tol),
                                       operator=op, monitor=monitor)
            limits = analysis.check_fast_limits(pair)
        result.timed("solve " + label, t0)
        result.steps += pair.iterations
        residual = max(pair.residual_u, pair.residual_v)
        if not residual <= tol:
            result.failures.append("%s residual %.3g > %g"
                                   % (label, residual, tol))
        deviation = max(limits.u_deviation, limits.v_deviation)
        if not deviation <= FAST_LIMIT_TOL:
            result.failures.append("%s fast-limit deviation %.3g > %g"
                                   % (label, deviation, FAST_LIMIT_TOL))
        if (p, q) == (3.0, 3.0):
            r = g.nodes
            lam = BUBBLE_LAMBDA
            bubble = 2.0 * math.sqrt(2.0) * lam / (lam * lam + r * r)
            inner = slice(g.count // 4, g.count - g.count // 4)
            gap = float(np.max(np.abs(pair.u.values[inner] / bubble[inner]
                                      - 1.0)))
            if not gap <= BUBBLE_TOL:
                result.failures.append("%s bubble deviation %.3g > %g"
                                       % (label, gap, BUBBLE_TOL))


def singular_job(inputs, sizes, result, workdir, monitor):
    """Assemble at large N and check the singular pair, for both sets."""
    with tracing.recording(riesz, "apply_extended") as applies:
        for n, alpha, p, q in SINGULAR_SETS:
            label = "(%g,%g,%g,%g)" % (n, alpha, p, q)
            t0 = perf_counter()
            g = grid.make_grid(inputs.r_min, inputs.r_max,
                               sizes.singular_count, n)
            op = riesz.assemble(g, n, alpha)
            result.timed("setup " + label, t0)
            t0 = perf_counter()
            params = Params(n=n, alpha=alpha, p=p, q=q)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)
                pair = solver.singular_solution(params, g, operator=op)
            result.timed("solve " + label, t0)
            result.operator_bytes = max(result.operator_bytes,
                                        _operator_bytes(op))
            del op  # the next set's operator need not coexist with this one
            residual = max(pair.residual_u, pair.residual_v)
            if not residual <= SINGULAR_RESIDUAL_TOL:
                result.failures.append(
                    "%s interior residual %.3g > %g"
                    % (label, residual, SINGULAR_RESIDUAL_TOL))
            if (n, alpha, p, q) == SINGULAR_SETS[0]:
                theta = alpha * (q + 1.0) / (p * q - 1.0)
                for name, f in (("u", pair.u), ("v", pair.v)):
                    amp = float(np.median(f.values * g.nodes ** theta))
                    gap = abs(amp - SINGULAR_AMPLITUDE)
                    if not gap <= SINGULAR_AMPLITUDE_TOL:
                        result.failures.append(
                            "%s amplitude of %s %.12g != sqrt(2)"
                            % (label, name, amp))
    result.steps = len(applies)


def _tail_slope(radii, values, window):
    """Decay exponent ``m`` of ``values ~ r^-m`` by least squares on the
    log-log samples inside ``window``."""
    inside = (radii >= window[0]) & (radii <= window[1])
    slope, _ = np.polyfit(np.log(radii[inside]), np.log(values[inside]), 1)
    return -float(slope)


def bisect_job(inputs, sizes, result, workdir, monitor):
    """Run ``rieszlab bisect`` in-process and check its artifacts."""
    outdir = Path(workdir) / "ground"
    argv = ["bisect", "--n", "5", "--alpha", "2", "--p", "3", "--q", "3",
            "--lo", repr(inputs.lo), "--hi", repr(inputs.hi),
            "--iters", str(BISECT_ITERS), "--r-end", repr(BISECT_R_END),
            "--out", str(outdir)]
    with tracing.recording(shooting, "shoot") as shots, \
            contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        code = cli.main(argv)
        t1 = perf_counter()
    result.steps = len(shots)
    # Set-up: argument parsing and validation up to the first shot.
    first = shots[0][1] if shots else t1
    result.phases += [("setup", t0, first), ("solve", first, t1)]
    if code != 0:
        result.failures.append("exit code %r" % (code,))
        return
    report = json.loads((outdir / "report.json").read_text())
    manifest = json.loads((outdir / "manifest.json").read_text())
    csv_bytes = (outdir / "trajectory.csv").read_bytes()
    result.fingerprint = (hashlib.sha256(csv_bytes).hexdigest(),
                          manifest["configHash"])
    if report["outcome"] != "Decaying":
        result.failures.append("outcome %s, not Decaying" % report["outcome"])
    if not abs(report["xi"] - 1.0) <= BISECT_XI_TOL:
        result.failures.append("xi %.17g not within %g of 1"
                               % (report["xi"], BISECT_XI_TOL))
    samples = np.loadtxt(io.StringIO(csv_bytes.decode()), delimiter=",",
                         skiprows=1, ndmin=2)
    for name, column, rate in (("u", 1, SLOW_RATES[0]),
                               ("v", 3, SLOW_RATES[1])):
        slope = _tail_slope(samples[:, 0], samples[:, column],
                            SLOW_FIT_WINDOW)
        if not abs(slope - rate) <= SLOW_RATE_TOL * rate:
            result.failures.append("%s tail slope %.4g not within %g of %g"
                                   % (name, slope, SLOW_RATE_TOL, rate))


#: Family, job function and the pace probes (see ``pace.PROBES``) of
#: each workload's set-up and solve phases.  A probe resembles the
#: phase's hot path: Python-driven small-array numpy for the per-cell
#: quadrature of ``assemble`` and for ODE shooting, the vectorised 2F1
#: of ``tail_response`` for Picard sweeps.  The singular pair's short
#: solve (two dense matrix-vector products per set) is paced like its
#: set-up.
JOBS = {
    "picard-fast-limits": ("picard", picard_job, ("python", "kernel")),
    "singular-large-grid": ("singular", singular_job, ("python", "python")),
    "ground-state-bisect": ("bisect", bisect_job, ("python", "python")),
}


def run_job(workload, inputs, sizes, workdir, monitor=None):
    """Run one job; an exception counts as a failed check.

    The job times only the program's work, not its own checks.
    ``monitor`` is handed to the Picard solver, ``workdir``
    receives the CLI's run directory.
    """
    job = JOBS[workload][1]
    result = JobResult()
    try:
        job(inputs, sizes, result, workdir, monitor)
    except Exception as exc:  # any failure of the program fails the job
        result.failures.append("%s: %s" % (type(exc).__name__, exc))
    return result
