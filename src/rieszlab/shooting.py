"""Radial ODE shooting for the coupled second-order system.

Integrates the radial form of the differential system tied to the
potential pair for ``alpha = 2``,

    u'' + (n-1)/r u' = -v^q,    v'' + (n-1)/r v' = -u^p,

outward from near the origin with ``u(0) = u0``, ``v(0) = xi`` and zero
slopes, classifying each shot by whether a component crosses zero or
both decay through the far boundary.  A bisection on ``xi`` locates the
ground-state separatrix between the two crossing outcomes.

Numerics: the first step leaves the coordinate singularity at the
origin on the exact quadratic Taylor profile; the integration then uses
a high-order adaptive Runge-Kutta method (local error target 1e-10
relative, 1e-14 absolute) with zero-crossing event termination.
Component powers are clamped at zero so fractional exponents stay real
on the overshoot of the final internal step.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .errors import BracketError, IntegrationError, ValidationError
from .exponents import Params

#: Samples recorded along a trajectory (log-spaced in radius).
SAMPLE_COUNT = 2048


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


@dataclass(frozen=True)
class Trajectory:
    """One integrated shot.

    ``samples`` has columns ``(r, u, du, v, dv)`` at log-spaced radii
    (truncated at the crossing when one occurred).
    """

    samples: np.ndarray = field(repr=False)
    outcome: Outcome = Outcome.INCONCLUSIVE
    crossing_radius: float = None

    @property
    def radii(self):
        return self.samples[:, 0]

    @property
    def u(self):
        return self.samples[:, 1]

    @property
    def v(self):
        return self.samples[:, 3]


def _taylor_start(params, config):
    """Exact quadratic origin profile at ``r_start``.

    Near the origin ``u = u0 - xi^q r^2/(2n) + O(r^4)`` (and symmetrically
    for ``v``), which steps over the coordinate singularity of the radial
    Laplacian.
    """
    n = params.n
    r = config.r_start
    try:
        su = config.xi ** params.q
        sv = config.u0 ** params.p
    except OverflowError:
        su = sv = math.inf
    start = np.array([
        config.u0 - su * r * r / (2.0 * n), -su * r / n,
        config.xi - sv * r * r / (2.0 * n), -sv * r / n])
    if not np.all(np.isfinite(start)):
        raise ValidationError(
            "the origin profile overflows at r_start=%r for u0=%r, xi=%r"
            % (r, config.u0, config.xi))
    return start


def shoot(params, config=None, source_strength=1.0):
    """Integrate one shot and classify its outcome.

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
        For ``alpha != 2``, or origin values whose Taylor start at
        ``r_start`` overflows.
    IntegrationError
        If the adaptive integrator fails; carries ``last_radius``.
    """
    if params.alpha != 2.0:
        raise ValidationError(
            "shooting integrates the differential form, which needs "
            "alpha = 2; got alpha=%r" % (params.alpha,))
    config = config or ShotConfig()
    n, p, q = params.n, params.p, params.q
    s = source_strength

    def rhs(r, y):
        u, du, v, dv = y
        return (du, -(n - 1.0) / r * du - s * max(v, 0.0) ** q,
                dv, -(n - 1.0) / r * dv - s * max(u, 0.0) ** p)

    def u_zero(r, y):
        return y[0]

    def v_zero(r, y):
        return y[2]

    u_zero.terminal = True
    u_zero.direction = -1.0
    v_zero.terminal = True
    v_zero.direction = -1.0

    t_eval = np.geomspace(config.r_start, config.r_end, SAMPLE_COUNT)
    sol = solve_ivp(rhs, (config.r_start, config.r_end),
                    _taylor_start(params, config), method="DOP853",
                    t_eval=t_eval, events=(u_zero, v_zero),
                    rtol=1e-10, atol=1e-14)
    if sol.status == -1:
        last = float(sol.t[-1]) if sol.t.size else config.r_start
        raise IntegrationError(
            "adaptive integration failed at r=%g: %s" % (last, sol.message),
            last_radius=last)

    samples = np.column_stack((sol.t, sol.y[0], sol.y[1], sol.y[2],
                               sol.y[3]))
    crossings = []
    if sol.t_events[0].size:
        crossings.append((float(sol.t_events[0][0]), Outcome.U_CROSSED))
    if sol.t_events[1].size:
        crossings.append((float(sol.t_events[1][0]), Outcome.V_CROSSED))
    if crossings:
        radius, outcome = min(crossings)
        return Trajectory(samples=samples, outcome=outcome,
                          crossing_radius=radius)

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
    return Trajectory(samples=samples, outcome=outcome,
                      crossing_radius=None)


@dataclass(frozen=True)
class BisectionResult:
    """Separatrix estimate from :func:`bisect_ground_state`.

    ``xi`` is the midpoint of the final bracket ``(lo, hi)``, or the
    midpoint that decayed, with ``lo == hi == xi``;
    ``trajectory`` is the shot at ``xi``.
    """

    xi: float
    trajectory: Trajectory
    lo: float
    hi: float


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
    if int(iters) != iters or iters < 0:
        raise ValidationError("iters must be a nonnegative integer")
    config = config or ShotConfig()
    out_lo = shooter(params, config.with_xi(lo)).outcome
    out_hi = shooter(params, config.with_xi(hi)).outcome
    crossing = (Outcome.U_CROSSED, Outcome.V_CROSSED)
    if out_lo not in crossing or out_hi not in crossing or out_lo == out_hi:
        raise BracketError(
            "bracket endpoints must give two distinct crossing outcomes, "
            "got %s / %s" % (out_lo.value, out_hi.value))
    for _ in range(int(iters)):
        mid = 0.5 * (lo + hi)
        traj = shooter(params, config.with_xi(mid))
        if traj.outcome is Outcome.DECAYING:
            return BisectionResult(xi=mid, trajectory=traj, lo=mid, hi=mid)
        if traj.outcome is out_lo:
            lo = mid
        else:
            hi = mid
    xi = 0.5 * (lo + hi)
    return BisectionResult(xi=xi, trajectory=shooter(params,
                                                     config.with_xi(xi)),
                           lo=lo, hi=hi)
