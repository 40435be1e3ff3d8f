"""Radial ODE shooting for the coupled second-order system.

Integrates the radial form of the differential system tied to the
potential pair for ``alpha = 2``,

    u'' + (n-1)/r u' = -v^q,    v'' + (n-1)/r v' = -u^p,

with the paper's unit coefficients, outward from near the origin with
``u(0) = u0``, ``v(0) = xi`` and zero slopes.  A coefficient ``s > 0``
on both couplings is covered too: ``(s^((q+1)/(pq-1)) u, s^((p+1)/(pq-1))
v)`` then solves the unit system, so ``u0`` and ``xi`` carry the scaling.
Each shot is classified by whether a component crosses zero or both
decay through the far boundary.  A bracketing secant search on
``xi`` (:func:`bisect_ground_state`) locates the ground-state
separatrix between the two crossing outcomes.

Numerics: near the origin, where the radial Laplacian has its
coordinate singularity, both components are their power series in
``r^2`` (:func:`_origin_series`, ``SERIES_TERMS`` terms each), exact to
rounding up to a handoff radius, 0.26 to 0.52 over the canonical search.
From there each shot is integrated once, by a crossing scan on scipy's
compiled DOP853 (``integrate.ode``, local error target 1e-10 relative,
1e-14 absolute, at most ``SCAN_STEPS`` steps) whose step callback keeps
every step end and stops the run at the first where ``u`` or ``v`` is
not positive; a scan that fails before ``r_end`` raises
:class:`IntegrationError`.  The rest is DOP853 steps of the module's own
tableau (:func:`_step`) from a step end.  The crossing radius is the
root, by Newton, of the crossed component at the end of the scan's last
step, shortened, by steps on Python floats (:func:`_scalar_step`) at a
third of the cost on numpy scalars: the same bits, as the BLAS stage
sums stay numpy's.  Of the ``SAMPLE_COUNT`` log-spaced samples, those
below the handoff are read from the series, and each of the others is
one step, vectorised over all radii, from the last step end at or below
its radius: shorter than a step the scan accepted there, so at least as
accurate.  A shot that reaches ``r_end`` is sampled at once and
classified by its last decade; a crossing shot is sampled, up to its
crossing radius, when its ``samples`` are first read.  Component powers
are clamped at zero so fractional exponents stay real on the overshoot
of a step.

The scan reuses one integrator for the whole process, because scipy's
wrapper keeps every integrator it has run alive; :func:`shoot` is
therefore not thread-safe.
"""

from __future__ import annotations

import enum
import functools
import math
import time
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from scipy import integrate
from scipy.integrate._ivp import dop853_coefficients

from .errors import (BracketError, IntegrationError, ValidationError,
                     instance, real_number, whole_number)
from .exponents import Params, classify

#: Samples recorded along a trajectory (log-spaced in radius).
SAMPLE_COUNT = 2048
#: Step budget of one crossing scan (the canonical shots take about 150).
SCAN_STEPS = 100_000
#: Terms kept of each component's origin series in ``r^2``.
SERIES_TERMS = 12
# unit roundoff: a term below it times the leading one leaves a sum as is
_ROUNDOFF = 2.0 ** -53
# DOP853's twelve stages; the thirteenth only estimates the error
_STAGES = dop853_coefficients.N_STAGES
_A = dop853_coefficients.A[:_STAGES, :_STAGES]
_B = dop853_coefficients.B
_C = dop853_coefficients.C[:_STAGES].tolist()


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
        for name in ("u0", "xi", "r_start", "r_end"):
            real_number(getattr(self, name), name)
        if not (self.u0 > 0.0 and self.xi > 0.0):
            raise ValidationError("origin values u0, xi must be positive")
        if not 0.0 < self.r_start < self.r_end:
            raise ValidationError("need 0 < r_start < r_end")


@dataclass(frozen=True)
class Trajectory:
    """One integrated shot.

    ``samples`` has columns ``(r, u, du, v, dv)`` at log-spaced radii,
    truncated at the crossing when one occurred: ``sampler`` builds them
    on their first read, and they are kept.  ``rhs_evals`` counts the
    right-hand-side evaluations that classified the shot: the scan's,
    from the handoff of the origin series (which costs none), and 12, one
    per DOP853 stage, for each Newton step on the crossing or for the
    sampling over all radii of a shot that reaches ``r_end``.
    """

    outcome: Outcome
    crossing_radius: float | None
    rhs_evals: int
    sampler: Callable[[], np.ndarray] = field(repr=False)

    @functools.cached_property
    def samples(self):
        return self.sampler()

    @property
    def radii(self):
        return self.samples[:, 0]

    @property
    def u(self):
        return self.samples[:, 1]

    @property
    def v(self):
        return self.samples[:, 3]


def _horner(terms, x2):
    """``sum_k terms[k] x2^k`` for a float or an array ``x2``."""
    total = terms[-1]
    for term in terms[-2::-1]:
        total = total * x2 + term
    return total


@dataclass(frozen=True)
class _OriginSeries:
    """The origin series of one shot, exact to rounding up to ``handoff``.

    With ``x = r / scale``, ``u = sum_k values[0][k] x^(2k)`` and ``u' = r
    sum_k slopes[0][k] x^(2k)``; ``values[1]`` and ``slopes[1]`` are
    ``v``'s.
    """

    scale: float
    values: tuple
    slopes: tuple
    handoff: float

    def state(self, radii):
        """``[u, du, v, dv]`` at ``radii``, a float or an array."""
        x = radii / self.scale
        x2 = x * x
        u, v = (_horner(terms, x2) for terms in self.values)
        du, dv = (radii * _horner(terms, x2) for terms in self.slopes)
        return [u, du, v, dv]

    @functools.cached_property
    def start(self):
        """``[u, du, v, dv]`` at ``handoff``, where the crossing scan
        begins."""
        return self.state(self.handoff)


def _refuse_start(state, config):
    """Raise :class:`ValidationError` on a start ``(u, du, v, dv)`` that
    overflows or where ``u`` or ``v`` is not positive."""
    if not all(map(math.isfinite, state)):
        raise ValidationError(
            "the origin profile overflows at r_start=%r for u0=%r, xi=%r"
            % (config.r_start, config.u0, config.xi))
    if not (state[0] > 0.0 and state[2] > 0.0):
        raise ValidationError(
            "the origin profile is not positive at r_start=%r for u0=%r, "
            "xi=%r; start nearer the origin"
            % (config.r_start, config.u0, config.xi))


def _origin_series(params, config):
    """The origin series of a shot (see :class:`_OriginSeries`).

    Both components are power series in ``r^2``: ``u = sum a_k r^(2k)``
    with ``a_0 = u0`` and ``a_(k+1) = -[v^q]_k / (2(k+1)(2k+n))``, and
    ``v`` likewise from ``u^p``, the coefficients of the powers by
    Miller's recurrence; ``SERIES_TERMS`` of each are kept.  They are
    formed in the shot's own radius scale ``s``, the power of two that
    puts the larger of ``s^2 xi^q / u0`` and ``s^2 u0^p / xi`` in (1/4,
    2), so that no coefficient overflows.

    The scan takes over at ``handoff``, the largest radius where the last
    kept term of each slope is below rounding of its leading term (which
    puts the last term of each value below rounding too), capped where
    the quadratic term reaches a quarter of either origin value and at
    ``r_end``, and never below ``r_start``.

    The start is refused with :class:`ValidationError` when the
    quadratic profile ``u0 - xi^q r^2/(2n)``, ``xi - u0^p r^2/(2n)`` at
    ``r_start`` (a lower bound on each component while both are
    positive) overflows or is not positive, and likewise when the series
    at ``handoff`` does.
    """
    n, p, q = params.n, params.p, params.q
    u0, xi, r = config.u0, config.xi, config.r_start
    try:
        su, sv = xi ** q, u0 ** p
    except OverflowError:
        su = sv = math.inf
    _refuse_start((u0 - su * r * r / (2.0 * n), -su * r / n,
                   xi - sv * r * r / (2.0 * n), -sv * r / n), config)

    # with both sources below the double range, a scale past r_end
    e = max((math.frexp(source)[1] - math.frexp(origin)[1]
             for source, origin in ((su, u0), (sv, xi)) if source),
            default=-2 * math.frexp(config.r_end)[1])
    e += e & 1      # even: s = 2^(-e/2)
    scale = math.ldexp(1.0, -e // 2)
    alpha, beta = math.ldexp(su, -e) / u0, math.ldexp(sv, -e) / xi
    # u/u0, v/xi, (u/u0)^p and (v/xi)^q
    a, b, fu, fv = [1.0], [1.0], [1.0], [1.0]
    for k in range(SERIES_TERMS - 1):
        if k:
            # Miller's recurrence for a power of a series led by 1
            tu = tv = 0.0
            for j in range(1, k + 1):
                tu += ((p + 1.0) * j - k) * a[j] * fu[k - j]
                tv += ((q + 1.0) * j - k) * b[j] * fv[k - j]
            fu.append(tu / k)
            fv.append(tv / k)
        size = 2.0 * (k + 1) * (2 * k + n)
        a.append(-alpha * fv[k] / size)
        b.append(-beta * fu[k] / size)

    x2 = math.inf
    for c in (a, b):
        if c[1]:
            x2 = min(x2, 0.25 / abs(c[1]))
            tail = (SERIES_TERMS - 1) * abs(c[-1])
            if tail:
                x2 = min(x2, (_ROUNDOFF * abs(c[1]) / tail)
                         ** (1.0 / (SERIES_TERMS - 2)))
    handoff = min(max(r, scale * math.sqrt(x2)), config.r_end)
    # the slope of (r/s)^(2k) over r is 2k (r/s)^(2k-2) / s^2
    series = _OriginSeries(
        scale, ([u0 * c for c in a], [xi * c for c in b]),
        tuple([2.0 * k * origin * c[k] / scale / scale
               for k in range(1, SERIES_TERMS)]
              for origin, c in ((u0, a), (xi, b))), handoff)
    _refuse_start(series.start, config)
    return series


def _rhs(coefficients):
    """Right-hand side of the first-order system in ``(u, u', v, v')``.

    ``coefficients`` is the list ``[n, p, q]``, read on every call.
    """

    def rhs(r, y):
        n, p, q = coefficients
        # Python floats: four times faster than the array's numpy scalars
        u, du, v, dv = y.tolist()
        try:
            fv = (0.0 if v < 0.0 else v) ** q
            fu = (0.0 if u < 0.0 else u) ** p
        except OverflowError:       # where a numpy power would give inf
            fv = fu = math.inf
        drag = -(n - 1.0) / r
        return (du, drag * du - fv, dv, drag * dv - fu)

    return rhs


def _step(coefficients, r0, y0, h):
    """One DOP853 step of length ``h`` from the state ``y0 = (u, du, v,
    dv)`` at ``r0``; with arrays ``r0`` and ``h``, one step per radius,
    ``y0`` holding one column each.  Returns the state at ``r0 + h``."""
    n, p, q = coefficients
    y0 = np.asarray(y0, dtype=float)
    stages = np.empty((_STAGES,) + y0.shape)
    flat = stages.reshape(_STAGES, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(_STAGES):
            u, du, v, dv = y0 + h * (_A[i, :i] @ flat[:i]).reshape(y0.shape)
            drag = -(n - 1.0) / (r0 + _C[i] * h)
            stages[i] = (du, drag * du - np.maximum(v, 0.0) ** q,
                         dv, drag * dv - np.maximum(u, 0.0) ** p)
        return y0 + h * (_B @ flat).reshape(y0.shape)


def _power(x, e):
    """``max(x, 0) ** e`` by libm's ``pow``, inf where it overflows."""
    try:
        return (0.0 if x < 0.0 else x) ** e
    except OverflowError:
        return math.inf


def _scalar_step(coefficients, r0, y0, h):
    """:func:`_step` for float ``r0``, ``h`` and a 4-sequence ``y0``, to
    the bit: the stage sums stay the gemv that ``@`` calls there (as does
    ``np.dot``, at less overhead), whose order of terms Python cannot
    repeat, and the rest runs on Python floats."""
    n, p, q = coefficients
    stages = np.empty((_STAGES, 4))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(_STAGES):
            u, du, v, dv = [y + h * k for y, k in zip(
                y0, np.dot(_A[i, :i], stages[:i]).tolist())]
            drag = -(n - 1.0) / (r0 + _C[i] * h)
            stages[i] = (du, drag * du - _power(v, q),
                         dv, drag * dv - _power(u, p))
        return np.array(y0, dtype=float) + h * np.dot(_B, stages)


def _sample(coefficients, series, ends, config, top):
    """Samples ``(r, u, du, v, dv)`` at the ``SAMPLE_COUNT`` log-spaced
    radii of ``config`` up to ``top``: from ``series`` below its handoff,
    and above it each by one DOP853 step from the last of the step ends
    ``ends`` (rows ``(r, u, du, v, dv)``, radii increasing) at or below
    it."""
    radii = np.geomspace(config.r_start, config.r_end, SAMPLE_COUNT)
    radii = radii[radii <= top]
    cut = np.searchsorted(radii, series.handoff)
    far = radii[cut:]
    ends = np.array(ends)
    base = ends[np.searchsorted(ends[:, 0], far, side="right") - 1]
    y = _step(coefficients, base[:, 0], base[:, 1:].T, far - base[:, 0])
    near = np.array(series.state(radii[:cut]))
    return np.column_stack((radii, np.hstack((near, y)).T))


@functools.cache
def _scan_integrator():
    """The one compiled DOP853 of the process, built on first use.

    Its step callback appends each step end ``[r, u, du, v, dv]`` to the
    list ``ends`` (at most ``SCAN_STEPS`` of them) and stops the run at
    the first where ``u`` or ``v`` is not positive.  Its right-hand side
    reads the current shot's ``coefficients``: scipy's wrapper keeps a
    reference to every function it has called back, so one function
    serves every shot.
    """
    ode = integrate.ode(None).set_integrator(
        "dop853", nsteps=SCAN_STEPS, rtol=1e-10, atol=1e-14)
    ode.coefficients = [0.0] * 3
    ode.f = _rhs(ode.coefficients)

    def stop_at_crossing(r, y):
        y = y.tolist()
        if y[0] <= 0.0 or y[2] <= 0.0:
            return -1
        ode.ends.append([r, *y])
        return 0

    ode.set_solout(stop_at_crossing)
    # the compiled run calls _solout, a method that only forwards to the
    # callback and is bound anew, and kept, at each set_initial_value
    ode._integrator._solout = stop_at_crossing
    return ode


def _scan(coefficients, series, config):
    """Crossing scan of one shot, from the handoff of its origin
    ``series``.

    Returns ``(crossing, ends, rhs_evals)``: ``crossing`` is ``(radius,
    outcome)`` of the first zero crossing, or None when the scan reached
    ``r_end``; ``ends`` holds the positive step ends, the handoff first.
    A failed scan raises :class:`IntegrationError` at its last step end.
    """
    if series.handoff == config.r_end:
        # the series is exact over the whole range: nothing to scan
        return None, [[config.r_end, *series.start]], 0
    ode = _scan_integrator()
    ode.coefficients[:] = coefficients
    ode.ends = ends = []
    ode.set_initial_value(series.start, series.handoff)
    with warnings.catch_warnings():
        # a failed run is read from the return code below
        warnings.filterwarnings("ignore", "dop853", UserWarning)
        ode.integrate(config.r_end)
    code = ode.get_return_code()
    if code < 0:
        last = ends[-1][0] if ends else series.handoff
        reason = ode._integrator.messages.get(code, "return code %d" % code)
        raise IntegrationError("crossing scan failed at r=%g: %s"
                               % (last, reason), last_radius=last)
    # IWORK(17) of DOP853 counts the right-hand-side evaluations
    evals = int(ode._integrator.iwork[16])
    if code != 2:
        return None, ends, evals
    # Newton on each crossed component over the step (r0, ode.t], shortened
    # to end at r, with the step's own derivative as the slope: from the
    # chord, clamped to the step, until the updates stop shrinking
    r0, *y0 = ends[-1]
    crossings = []
    for k, outcome in ((0, Outcome.U_CROSSED), (2, Outcome.V_CROSSED)):
        if ode.y[k] > 0.0:
            continue
        r, update = r0 + (ode.t - r0) * y0[k] / (y0[k] - ode.y[k]), math.inf
        while True:
            y = _scalar_step(coefficients, r0, y0, float(r - r0))
            evals += _STAGES
            new = min(ode.t, max(r0, float(r - y[k] / y[k + 1])))
            if not 0.0 < abs(new - r) < update:
                break
            r, update = new, abs(new - r)
        crossings.append((r, outcome))
    return min(crossings), ends, evals


def shoot(params, config=None):
    """Integrate one shot and classify its outcome.

    A crossing shot computes its samples on first read (see the module
    notes).  Not thread-safe: every shot runs on one shared integrator.

    Parameters
    ----------
    params : Params
        Must have ``alpha == 2`` (the differential form of the system).
    config : ShotConfig, optional

    Raises
    ------
    ValidationError
        For a ``params`` or ``config`` of another class, ``alpha != 2``,
        or origin values whose quadratic profile at ``r_start``, or whose
        origin series at its handoff, overflows or is not positive.
    IntegrationError
        If the crossing scan fails before ``r_end`` (more than
        ``SCAN_STEPS`` steps, among others); carries ``last_radius``,
        its last step end, or the handoff when it failed before a step.
    """
    if instance(params, Params, "params").alpha != 2.0:
        raise ValidationError(
            "shooting integrates the differential form, which needs "
            "alpha = 2; got alpha=%r" % (params.alpha,))
    config = instance(config, ShotConfig, "config", ShotConfig())
    coefficients = [params.n, params.p, params.q]
    series = _origin_series(params, config)
    crossing, ends, evals = _scan(coefficients, series, config)
    if crossing is not None:
        radius, outcome = crossing
        return Trajectory(outcome, radius, evals, lambda: _sample(
            coefficients, series, ends, config, radius))

    # Reached the far boundary with both components positive: decaying
    # if both fall off meaningfully through the final decade (a flat
    # profile fits a noise-level slope, which must not count).
    samples = _sample(coefficients, series, ends, config, config.r_end)
    outer = samples[:, 0] >= config.r_end / 10.0
    outcome = Outcome.INCONCLUSIVE
    if np.count_nonzero(outer) >= 8:
        with np.errstate(divide="ignore"):
            slopes = np.polyfit(np.log(samples[outer, 0]),
                                np.log(samples[outer][:, [1, 3]]), 1)[0]
        if np.all(slopes < -0.05):
            outcome = Outcome.DECAYING
    return Trajectory(outcome, None, evals + _STAGES, lambda: samples)


def _crossing_rate(params):
    """Rate ``kappa`` at which shots leave the singular pair, or None.

    Linearizing the ODE system about the singular pair ``A r^-th1``,
    ``B r^-th2`` (the slow rates of :func:`~rieszlab.exponents.classify`)
    gives perturbations ``r^(kappa - th1)``, ``r^(kappa - th2)`` with

        (th1-k)(m-th1+k)(th2-k)(m-th2+k) = T = pq th1(m-th1) th2(m-th2),

    ``m = n-2``.  With ``z = k - c + m/2``, ``c = (th1+th2)/2`` and ``d =
    (th1-th2)/2`` the left side is ``((z-d)^2 - m^2/4)((z+d)^2 - m^2/4) =
    (z^2 - d^2 - m^2/4)^2 - d^2 m^2``, a quadratic in ``z^2`` whose larger
    root gives the growing rate

        kappa = c - m/2 + sqrt(d^2 + m^2/4 + sqrt(d^2 m^2 + T)),

    the one root above ``max(th1, th2)``; a shot with origin ratio ``xi``
    then crosses zero near ``|xi - xi*|^(-1/kappa)``.  None when a slow
    rate lies outside ``(0, n-2)``, where no such root exists.
    """
    report = classify(params)
    th1, th2 = report.slow_rate_u, report.slow_rate_v
    m = params.n - 2.0
    if not (0.0 < th1 < m and 0.0 < th2 < m):
        return None
    target = params.p * params.q * th1 * (m - th1) * th2 * (m - th2)
    c, d = 0.5 * (th1 + th2), 0.5 * (th1 - th2)
    return c - 0.5 * m + math.sqrt(
        d * d + 0.25 * m * m + math.sqrt(d * d * m * m + target))


@dataclass(frozen=True)
class ShotRecord:
    """One shot of a ground-state search: its ``xi``, outcome, crossing
    radius (None when nothing crossed), the right-hand-side evaluations
    that classified it and its wall-clock seconds."""

    xi: float
    outcome: Outcome
    crossing_radius: float | None
    rhs_evals: int
    seconds: float


@dataclass(frozen=True)
class BisectionResult:
    """Separatrix estimate from :func:`bisect_ground_state`.

    ``xi`` is the midpoint of the final bracket ``(lo, hi)``, or the
    shot that crossed nowhere, with ``lo == hi == xi``;
    ``trajectory`` is the shot at ``xi``; ``shots`` holds one
    :class:`ShotRecord` per shot, in the order they were taken.
    """

    xi: float
    trajectory: Trajectory
    lo: float
    hi: float
    shots: tuple


def bisect_ground_state(params, lo, hi, config=None, iters=60,
                        shooter=shoot):
    """Locate the decaying ground state by a secant search on ``xi``.

    The bracket must produce two different crossing outcomes (one
    component hitting zero for ``xi`` too small, the other for ``xi``
    too large).  Each crossing shot is given the value
    ``g = -R^-kappa`` on the ``lo`` outcome and ``+R^-kappa`` on the
    ``hi`` one, with ``R`` its crossing radius and ``kappa`` from
    :func:`_crossing_rate`; ``g`` is nearly linear in ``xi - xi*``, so
    the next shot is the Pegasus regula falsi point of the bracket: an
    endpoint kept twice in a row has its value scaled by ``g1 / (g1 +
    g2)``, ``g1`` and ``g2`` the last two values on the other side.
    The radii swing a few per cent about the power law, so no step is
    exact: this takes 12 or 13 shots on brackets a few per cent apart,
    plain halving (Illinois) 11 to 14.  A secant point outside the open
    bracket, or a bracket with no ``kappa`` or no crossing radius at an
    end, takes the midpoint instead.  Each step keeps the endpoint whose
    outcome differs from the new shot's.

    ``iters`` is the budget of shots inside the bracket.  A shot that
    does not cross (decaying or inconclusive) ends the search: it is
    returned with ``lo == hi == xi`` and its outcome.  When the budget
    runs out, one more shot at the midpoint of the final bracket is
    returned, so at most ``iters + 3`` shots are taken.

    Raises
    ------
    BracketError
        When the endpoints do not classify as two distinct crossing
        outcomes.
    """
    lo, hi = real_number(lo, "lo"), real_number(hi, "hi")
    if not 0.0 < lo < hi:
        raise ValidationError("need 0 < lo < hi for the bisection bracket")
    if whole_number(iters, "iters") < 0:
        raise ValidationError("iters must be a nonnegative integer")
    instance(params, Params, "params")
    config = instance(config, ShotConfig, "config", ShotConfig())
    shots = []

    def fire(xi):
        began = time.perf_counter()
        traj = shooter(params, replace(config, xi=xi))
        shots.append(ShotRecord(xi, traj.outcome, traj.crossing_radius,
                                traj.rhs_evals, time.perf_counter() - began))
        return traj

    first, last = fire(lo), fire(hi)
    out_lo, out_hi = first.outcome, last.outcome
    crossing = (Outcome.U_CROSSED, Outcome.V_CROSSED)
    if out_lo not in crossing or out_hi not in crossing or out_lo == out_hi:
        raise BracketError(
            "bracket endpoints must give two distinct crossing outcomes, "
            "got %s / %s" % (out_lo.value, out_hi.value))
    kappa = _crossing_rate(params)

    def gap(traj):
        radius = traj.crossing_radius
        if kappa is None or radius is None or not 0.0 < radius < math.inf:
            return None
        try:
            size = radius ** -kappa
        except OverflowError:
            return None
        return -size if traj.outcome is out_lo else size

    def shrink(kept_g, old, new):
        # Pegasus: the kept endpoint's value times old / (old + new),
        # where old and new share a sign; a half without both
        if kept_g is None:
            return None
        if old is None or new is None:
            return 0.5 * kept_g
        return kept_g * old / (old + new)

    g_lo, g_hi = gap(first), gap(last)
    kept = None     # the endpoint the last step kept
    for _ in range(int(iters)):
        xi = 0.5 * (lo + hi)
        if g_lo is not None and g_hi is not None:
            secant = lo + (hi - lo) * g_lo / (g_lo - g_hi)
            if lo < secant < hi:
                xi = secant
        traj = fire(xi)
        if traj.outcome not in crossing:
            return BisectionResult(xi=xi, trajectory=traj, lo=xi, hi=xi,
                                   shots=tuple(shots))
        g = gap(traj)
        if traj.outcome is out_lo:
            if kept == "hi":
                g_hi = shrink(g_hi, g_lo, g)
            lo, g_lo, kept = xi, g, "hi"
        else:
            if kept == "lo":
                g_lo = shrink(g_lo, g_hi, g)
            hi, g_hi, kept = xi, g, "lo"
    xi = 0.5 * (lo + hi)
    traj = fire(xi)
    return BisectionResult(xi=xi, trajectory=traj, lo=lo, hi=hi,
                           shots=tuple(shots))
