"""Radial ODE shooting for the coupled second-order system.

Integrates the radial form of the differential system tied to the
potential pair for ``alpha = 2``,

    u'' + (n-1)/r u' = -v^q,    v'' + (n-1)/r v' = -u^p,

outward from near the origin with ``u(0) = u0``, ``v(0) = xi`` and zero
slopes, classifying each shot by whether a component crosses zero or
both decay through the far boundary.  A bisection on ``xi`` locates the
ground-state separatrix between the two crossing outcomes.

Numerics: the first step leaves the coordinate singularity at the
origin on the exact quadratic Taylor profile.  Each shot then runs a
crossing scan: scipy's compiled DOP853 (``integrate.ode``, local error
target 1e-10 relative, 1e-14 absolute, at most ``SCAN_STEPS`` steps)
whose step callback stops the run at the first step end where ``u`` or
``v`` is no longer positive.  A short ``solve_ivp`` DOP853 run with
zero-crossing events, from the last positive step end to that one,
refines the crossing radius inside the step.  A scan that reaches
``r_end`` without a crossing hands the shot to the sampled path: one
``solve_ivp`` DOP853 run over the whole range with the same tolerances
and events, recorded at ``SAMPLE_COUNT`` log-spaced radii, whose last
decade decides between decaying and inconclusive.  A crossing shot
runs that sampled path only when its ``samples`` are first read, so a
bisection integrates them for the shot it returns at most.  Component
powers are clamped at zero so fractional exponents stay real on the
overshoot of the final internal step.

The scan reuses one integrator for the whole process, because scipy's
wrapper keeps every integrator it has run alive; :func:`shoot` is
therefore not thread-safe.
"""

from __future__ import annotations

import enum
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.integrate import solve_ivp

from .errors import (BracketError, IntegrationError, ValidationError,
                     whole_number)
from .exponents import Params

#: Samples recorded along a trajectory (log-spaced in radius).
SAMPLE_COUNT = 2048
#: Step budget of one crossing scan (the canonical shots take about 190).
SCAN_STEPS = 100_000
_TOLERANCES = {"rtol": 1e-10, "atol": 1e-14}


class Outcome(str, enum.Enum):
    """Classification of a single shot."""

    U_CROSSED = "UCrossedZero"
    V_CROSSED = "VCrossedZero"
    DECAYING = "Decaying"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class ShotConfig:
    """Initial data and integration range for one shot.

    ``u0`` and ``xi`` are the origin values of ``u`` and ``v``.
    """

    u0: float = 1.0
    xi: float = 1.0
    r_start: float = 1e-6
    r_end: float = 1e6

    def __post_init__(self):
        if not (0.0 < self.u0 < math.inf and 0.0 < self.xi < math.inf):
            raise ValidationError(
                "origin values u0, xi must be positive and finite")
        if not 0.0 < self.r_start < self.r_end < math.inf:
            raise ValidationError("need 0 < r_start < r_end < inf")

    def with_xi(self, xi):
        return ShotConfig(u0=self.u0, xi=xi, r_start=self.r_start,
                          r_end=self.r_end)


class Trajectory:
    """One integrated shot.

    ``samples`` has columns ``(r, u, du, v, dv)`` at log-spaced radii
    (truncated at the crossing when one occurred).  A trajectory built
    with a ``sampler`` instead of ``samples`` calls it on the first read
    of ``samples`` and keeps the result.  ``rhs_evals`` counts the
    right-hand-side evaluations that classified the shot.
    """

    def __init__(self, samples=None, outcome=Outcome.INCONCLUSIVE,
                 crossing_radius=None, rhs_evals=0, sampler=None):
        if (samples is None) == (sampler is None):
            raise ValidationError("a trajectory takes samples or a sampler")
        self._samples = samples
        self._sampler = sampler
        self.outcome = outcome
        self.crossing_radius = crossing_radius
        self.rhs_evals = rhs_evals

    def __repr__(self):
        return "Trajectory(outcome=%r, crossing_radius=%r)" % (
            self.outcome, self.crossing_radius)

    @property
    def samples(self):
        if self._samples is None:
            self._samples = self._sampler()
            self._sampler = None
        return self._samples

    @property
    def radii(self):
        return self.samples[:, 0]

    @property
    def u(self):
        return self.samples[:, 1]

    @property
    def v(self):
        return self.samples[:, 3]


def _taylor_start(params, config, s):
    """Exact quadratic origin profile at ``r_start``, for source strength
    ``s``.

    Near the origin ``u = u0 - s xi^q r^2/(2n) + O(r^4)`` (and
    symmetrically for ``v``), which steps over the coordinate singularity
    of the radial Laplacian.  A start that overflows, or where ``u`` or
    ``v`` is already not positive, raises :class:`ValidationError`.
    """
    n = params.n
    r = config.r_start
    try:
        su = s * config.xi ** params.q
        sv = s * config.u0 ** params.p
    except OverflowError:
        su = sv = math.inf
    start = np.array([
        config.u0 - su * r * r / (2.0 * n), -su * r / n,
        config.xi - sv * r * r / (2.0 * n), -sv * r / n])
    if not np.all(np.isfinite(start)):
        raise ValidationError(
            "the origin profile overflows at r_start=%r for u0=%r, xi=%r"
            % (r, config.u0, config.xi))
    if not (start[0] > 0.0 and start[2] > 0.0):
        raise ValidationError(
            "the origin profile is not positive at r_start=%r for u0=%r, "
            "xi=%r; start nearer the origin" % (r, config.u0, config.xi))
    return start


def _rhs(coefficients):
    """Right-hand side of the first-order system in ``(u, u', v, v')``.

    ``coefficients`` is the list ``[n, p, q, s]``, read on every call.
    """

    def rhs(r, y):
        n, p, q, s = coefficients
        # Python floats: four times faster than the array's numpy scalars
        u, du, v, dv = y.tolist()
        try:
            fv = s * (0.0 if v < 0.0 else v) ** q
            fu = s * (0.0 if u < 0.0 else u) ** p
        except OverflowError:       # where a numpy power would give inf
            fv = fu = math.inf
        return (du, -(n - 1.0) / r * du - fv, dv, -(n - 1.0) / r * dv - fu)

    return rhs


def _u_zero(r, y):
    return y[0]


def _v_zero(r, y):
    return y[2]


for _event in (_u_zero, _v_zero):
    _event.terminal = True
    _event.direction = -1.0


def _first_crossing(sol):
    """``(radius, outcome)`` of the earliest event of ``sol``, or None."""
    crossings = [(float(t[0]), outcome) for t, outcome in
                 zip(sol.t_events, (Outcome.U_CROSSED, Outcome.V_CROSSED))
                 if t.size]
    return min(crossings) if crossings else None


def _sampled_shot(params, config, s):
    """The sampled path: ``solve_ivp`` over the whole range, recording
    ``SAMPLE_COUNT`` samples, and the last-decade decay test."""
    t_eval = np.geomspace(config.r_start, config.r_end, SAMPLE_COUNT)
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(_rhs([params.n, params.p, params.q, s]),
                        (config.r_start, config.r_end),
                        _taylor_start(params, config, s), method="DOP853",
                        t_eval=t_eval, events=(_u_zero, _v_zero),
                        **_TOLERANCES)
    if sol.status == -1:
        last = float(sol.t[-1]) if len(sol.t) else config.r_start
        raise IntegrationError(
            "adaptive integration failed at r=%g: %s" % (last, sol.message),
            last_radius=last)

    samples = np.column_stack((sol.t, sol.y[0], sol.y[1], sol.y[2],
                               sol.y[3]))
    crossing = _first_crossing(sol)
    if crossing is not None:
        return Trajectory(samples=samples, outcome=crossing[1],
                          crossing_radius=crossing[0], rhs_evals=sol.nfev)

    # Reached the far boundary with both components positive: decaying
    # if both fall off meaningfully through the final decade (a flat
    # profile fits a noise-level slope, which must not count).
    outer = samples[:, 0] >= config.r_end / 10.0
    outcome = Outcome.INCONCLUSIVE
    if np.count_nonzero(outer) >= 8:
        lr = np.log(samples[outer, 0])
        with np.errstate(divide="ignore"):
            su_fit = np.polyfit(lr, np.log(samples[outer, 1]), 1)[0]
            sv_fit = np.polyfit(lr, np.log(samples[outer, 3]), 1)[0]
        if su_fit < -0.05 and sv_fit < -0.05:
            outcome = Outcome.DECAYING
    return Trajectory(samples=samples, outcome=outcome, rhs_evals=sol.nfev)


_scanner = None


def _scan_integrator():
    """The one compiled DOP853 of the process, built on first use.

    Its step callback stops the run at the first step end where ``u`` or
    ``v`` is not positive and keeps the last step end before it in
    ``last``.  Its right-hand side reads the current shot's
    ``coefficients``: scipy's wrapper keeps a reference to every function
    it has called back, so one function serves every shot.
    """
    global _scanner
    if _scanner is None:
        ode = integrate.ode(None).set_integrator(
            "dop853", nsteps=SCAN_STEPS, **_TOLERANCES)
        ode.coefficients = [0.0] * 4
        ode.f = _rhs(ode.coefficients)

        def stop_at_crossing(r, y):
            if y[0] <= 0.0 or y[2] <= 0.0:
                return -1
            ode.last = (r, y.copy())
            return 0

        ode.set_solout(stop_at_crossing)
        # each set_initial_value would pass the wrapper a freshly bound
        # _solout, which it keeps: bind it once
        integrator = ode._integrator
        integrator._solout = integrator._solout
        _scanner = ode
    return _scanner


def _scan(coefficients, start, config):
    """Crossing scan of one shot.

    Returns ``(crossing, rhs_evals)``: ``crossing`` is ``(radius,
    outcome)`` of the first zero crossing, or None when the scan reached
    ``r_end`` without one or failed in a way other than running out of
    steps, which raises :class:`IntegrationError`.
    """
    ode = _scan_integrator()
    ode.coefficients[:] = coefficients
    ode.last = (config.r_start, start)
    ode.set_initial_value(start, config.r_start)
    with warnings.catch_warnings():
        # a failed run is read from the return code below
        warnings.filterwarnings("ignore", "dop853", UserWarning)
        ode.integrate(config.r_end)
    code = ode.get_return_code()
    if code == -2:
        raise IntegrationError(
            "crossing scan ran out of steps at r=%g" % ode.t,
            last_radius=float(ode.t))
    # IWORK(17) of DOP853 counts the right-hand-side evaluations
    evals = int(ode._integrator.iwork[16])
    r0, y0 = ode.last
    if code != 2:
        # no crossing by r_end, or a failure the sampled path may get past
        return None, evals
    # refine the crossing inside the step (r0, ode.t]
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(ode.f, (r0, ode.t), y0, method="DOP853",
                        events=(_u_zero, _v_zero), **_TOLERANCES)
    return _first_crossing(sol), evals + sol.nfev


def shoot(params, config=None, source_strength=1.0):
    """Integrate one shot and classify its outcome.

    A crossing shot computes its samples on first read (see the module
    notes).  Not thread-safe: every shot runs on one shared integrator.

    Parameters
    ----------
    params : Params
        Must have ``alpha == 2`` (the differential form of the system).
    config : ShotConfig, optional
    source_strength : float
        Scales the nonlinear couplings; 0 integrates the homogeneous
        radial Laplace equation (useful for validating the integration
        plumbing against closed forms).

    Raises
    ------
    ValidationError
        For ``alpha != 2``, a negative or non-finite
        ``source_strength``, or origin values whose Taylor start at
        ``r_start``, with that source strength, overflows or is not
        positive.
    IntegrationError
        If the integration fails (a source too strong for any step at
        ``r_start``, among others); carries ``last_radius``.
    """
    if params.alpha != 2.0:
        raise ValidationError(
            "shooting integrates the differential form, which needs "
            "alpha = 2; got alpha=%r" % (params.alpha,))
    if not 0.0 <= source_strength < math.inf:
        raise ValidationError("source_strength must be finite and "
                              "nonnegative; got %r" % (source_strength,))
    config = config or ShotConfig()
    s = source_strength
    crossing, evals = _scan([params.n, params.p, params.q, s],
                            _taylor_start(params, config, s), config)
    if crossing is None:
        traj = _sampled_shot(params, config, s)
        traj.rhs_evals += evals
        return traj
    return Trajectory(outcome=crossing[1], crossing_radius=crossing[0],
                      rhs_evals=evals,
                      sampler=lambda: _sampled_shot(params, config, s).samples)


@dataclass(frozen=True)
class ShotRecord:
    """One shot of a bisection: its ``xi``, outcome, crossing radius
    (None when nothing crossed), the right-hand-side evaluations that
    classified it and its wall-clock seconds."""

    xi: float
    outcome: Outcome
    crossing_radius: float | None
    rhs_evals: int
    seconds: float


@dataclass(frozen=True)
class BisectionResult:
    """Separatrix estimate from :func:`bisect_ground_state`.

    ``xi`` is the midpoint of the final bracket ``(lo, hi)``, or the
    midpoint that decayed, with ``lo == hi == xi``;
    ``trajectory`` is the shot at ``xi``; ``shots`` holds one
    :class:`ShotRecord` per shot, in the order they were taken.
    """

    xi: float
    trajectory: Trajectory
    lo: float
    hi: float
    shots: tuple = ()


def bisect_ground_state(params, lo, hi, config=None, iters=60,
                        shooter=shoot):
    """Bisect on the origin ratio ``xi`` for the decaying ground state.

    The bracket must produce two different crossing outcomes (one
    component hitting zero for ``xi`` too small, the other for ``xi``
    too large); each bisection step keeps the endpoint whose outcome
    differs from the midpoint's.

    Raises
    ------
    BracketError
        When the endpoints do not classify as two distinct crossing
        outcomes.
    """
    if not 0.0 < lo < hi:
        raise ValidationError("need 0 < lo < hi for the bisection bracket")
    if whole_number(iters, "iters") < 0:
        raise ValidationError("iters must be a nonnegative integer")
    config = config or ShotConfig()
    shots = []

    def fire(xi):
        began = time.perf_counter()
        traj = shooter(params, config.with_xi(xi))
        shots.append(ShotRecord(xi, traj.outcome, traj.crossing_radius,
                                traj.rhs_evals, time.perf_counter() - began))
        return traj

    out_lo = fire(lo).outcome
    out_hi = fire(hi).outcome
    crossing = (Outcome.U_CROSSED, Outcome.V_CROSSED)
    if out_lo not in crossing or out_hi not in crossing or out_lo == out_hi:
        raise BracketError(
            "bracket endpoints must give two distinct crossing outcomes, "
            "got %s / %s" % (out_lo.value, out_hi.value))
    for _ in range(int(iters)):
        mid = 0.5 * (lo + hi)
        traj = fire(mid)
        if traj.outcome is Outcome.DECAYING:
            return BisectionResult(xi=mid, trajectory=traj, lo=mid, hi=mid,
                                   shots=tuple(shots))
        if traj.outcome is out_lo:
            lo = mid
        else:
            hi = mid
    xi = 0.5 * (lo + hi)
    traj = fire(xi)
    return BisectionResult(xi=xi, trajectory=traj, lo=lo, hi=hi,
                           shots=tuple(shots))
