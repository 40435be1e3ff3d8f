"""Fixed-point solvers for the coupled potential system.

Solves the radial system ``u = I_alpha[v^q]``, ``v = I_alpha[u^p]`` on a
log grid.  Two branches:

* :func:`solve_picard` — Picard sweeps for the regular decaying
  (bubble) profile in the critical regime, accelerated by type-II
  Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 49, 2011) on the
  log fields over the last ``ANDERSON_DEPTH`` sweeps.  The plain
  iteration has two quasi-null directions inherited from the scaling
  family (overall amplitude and dilation); both are removed by
  renormalizing each field at the first node every sweep, and the
  physical amplitudes are restored afterwards from the measured
  proportionality constants.
* :func:`singular_solution` — the exact singular pair
  ``A r^{-theta1}, B r^{-theta2}`` with amplitudes solved in closed form
  from the power-law identity of the potential.

Stopping is honest: the iteration must both stall (small update) and
satisfy the discrete equations proportionally on the interior half of
the grid to the requested tolerance, and the reported residuals are
re-measured on the final returned fields.  Residuals gauge how well the
discrete system is solved; the distance to the continuum profile is a
separate (second order in the log mesh width) discretization question,
observable by solving on a doubled grid.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .analysis import default_window
from .errors import (CollapseError, NonConvergenceError, PreconditionError,
                     ValidationError, whole_number)
from .exponents import Params, Regime, classify
from .grid import RadialGrid, make_grid
from .riesz import (KernelOperator, RadialField, apply_extended, assemble,
                    power_law_constant)

#: Fields whose sup drops below this are considered collapsed.
COLLAPSE_FLOOR = 1e-12
#: Iterate/residual pairs kept by the Anderson step; 0 gives plain
#: damped Picard.
ANDERSON_DEPTH = 5
#: Presentation dilations tried before giving up on the residual.
PRESENTATION_CYCLES = 3


class Branch(str, enum.Enum):
    """How a solution pair was produced."""

    PICARD = "PicardFixedPoint"
    SINGULAR = "SingularPowerLaw"


@dataclass(frozen=True)
class SolveConfig:
    """Controls for the Anderson-accelerated Picard iteration.

    Attributes
    ----------
    damping : float
        Anderson mixing ``b`` in (0, 1]: the step is ``x + b f`` minus
        the history correction, where ``x`` is the log fields and ``f``
        the log change of a fresh sweep.  With ``ANDERSON_DEPTH = 0``,
        or ``normalize_at_origin=False``, it is the fraction of the
        fresh sweep mixed linearly into the iterate.
    max_iters : int
        Sweep budget (>= 0; a zero budget always fails to converge).
    tol : float
        Relative tolerance for the update size, the interior
        proportionality spread, and the reported residuals.  This
        measures satisfaction of the discrete equations; the distance
        to the continuum profile is set by the grid resolution and is
        second order in the log mesh width.
    normalize_at_origin : bool
        Renormalize both fields at the first node each sweep (removes
        the amplitude/dilation quasi-null modes).  Disabling this is
        only useful for studying the raw iteration, which can collapse.
    """

    damping: float = 0.5
    max_iters: int = 400
    tol: float = 1e-6
    normalize_at_origin: bool = True

    def __post_init__(self):
        for name in ("damping", "tol"):
            if not isinstance(getattr(self, name), numbers.Real):
                raise ValidationError("%s must be a number, got %r"
                                      % (name, getattr(self, name)))
        if not 0.0 < self.damping <= 1.0:
            raise ValidationError(
                "damping must be in (0, 1], got %r" % (self.damping,))
        if whole_number(self.max_iters, "max_iters") < 0:
            raise ValidationError(
                "max_iters must be a nonnegative integer, got %r"
                % (self.max_iters,))
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ValidationError("tol must be positive, got %r"
                                  % (self.tol,))
        if not isinstance(self.normalize_at_origin, bool):
            raise ValidationError("normalize_at_origin must be true or "
                                  "false, got %r"
                                  % (self.normalize_at_origin,))
        object.__setattr__(self, "max_iters", int(self.max_iters))


@dataclass(frozen=True)
class SolutionPair:
    """A solved pair of radial profiles and its quality measures.

    ``residual_u`` is the relative sup-deviation of ``u`` from
    ``I_alpha[v^q]`` over the interior half of the grid (``residual_v``
    likewise), measured on the returned fields.
    """

    u: RadialField
    v: RadialField
    params: Params
    iterations: int
    residual_u: float
    residual_v: float
    branch: Branch


def default_init(params, grid):
    """Smooth decaying initial guess for the Picard iteration.

    Uses ``(1 + r^2)^{-m/2}`` profiles whose decay sits halfway between
    the slow (power-law separatrix) and fast rates: starting exactly on
    the slow rate is a repelling fixed direction of the iteration, and
    starting at the fast rate gives a slightly slower approach.
    """
    report = classify(params)
    fast = params.n - params.alpha
    mu = 0.5 * (report.slow_rate_u + fast)
    mv = 0.5 * (report.slow_rate_v + fast)
    r2 = grid.nodes ** 2
    u = (1.0 + r2) ** (-0.5 * mu)
    v = (1.0 + r2) ** (-0.5 * mv)
    return (RadialField(grid, u / u[0], tail_exponent=mu),
            RadialField(grid, v / v[0], tail_exponent=mv))


def _tail_window(grid):
    """Fit slice and least-squares slope weights of the outer decade.

    The slope of the log-log line through samples ``y`` on the window is
    ``weights @ (y - mean(y))``, with ``weights`` the centred log nodes
    divided by their sum of squares.  Centring ``y`` too keeps the
    rounding of the weights' sum, times ``|y|``, out of the slope.
    """
    sl = slice(*default_window(grid.nodes))
    t = np.log(grid.nodes[sl])
    t -= t.mean()
    return sl, t / (t @ t)


def _tail_slope(window, values, alpha, n):
    """Refit a power-law tail exponent from the outer-decade data."""
    sl, weights = window
    vals = values[sl]
    if np.any(vals <= 0.0):
        return alpha + 1.0
    lv = np.log(vals)
    slope = weights @ (lv - lv.mean())
    return float(min(max(-slope, 0.05), 3.0 * n))


def _proportionality(image, values, sl):
    """Median ratio and relative spread of image/values on a slice."""
    ratio = image[sl] / values[sl]
    med = float(np.median(ratio))
    spread = float(np.max(np.abs(ratio / med - 1.0)))
    return med, spread


def _anderson_step(history, x, f, mixing):
    """Next pair of type-II Anderson mixing (Walker & Ni 2011).

    ``x`` is ``[ln u, ln v]`` and ``f = G(x) - x`` its Picard residual;
    ``history`` holds this cycle's ``x`` and ``f`` and is updated in
    place, keeping the last ``ANDERSON_DEPTH + 1``.  The step is
    ``x + mixing f - (dX + mixing dF) gamma`` with ``gamma`` the
    least-squares solution of ``dF gamma = f`` over the history
    differences.  The correction is dropped, leaving the damped log
    step, while the history is short or rank-deficient (singular values
    below 1e-10 of the largest), or when the corrected fields are not
    finite.  Returns ``u`` and ``v`` concatenated, each renormalized to
    1 at its first node.
    """
    xs, fs = history
    xs.append(x)
    fs.append(f)
    del xs[:-ANDERSON_DEPTH - 1], fs[:-ANDERSON_DEPTH - 1]
    step = x + mixing * f
    if len(xs) > 1:
        dx = np.diff(xs, axis=0).T
        df = np.diff(fs, axis=0).T
        gamma, _, rank, _ = np.linalg.lstsq(df, f, rcond=1e-10)
        if rank == df.shape[1]:
            fields = _origin_normalized(step - (dx + mixing * df) @ gamma)
            if np.all(np.isfinite(fields)):
                return fields
    return _origin_normalized(step)


def _origin_normalized(logs):
    """Exponentiate the two concatenated log fields, each divided by its
    value at the first node; overflow gives inf, for the caller to test.
    """
    half = logs.size // 2
    lu, lv = logs[:half], logs[half:]
    with np.errstate(over="ignore"):
        return np.exp(np.concatenate((lu - lu[0], lv - lv[0])))


def _origin_gap(log_lam, lnodes, lv, tau, rate):
    """Log of the dilated profile ``lam^rate f(lam r)`` at the first node.

    ``rate * log_lam + ln f(lam * r_min)`` for the profile with log
    values ``lv`` on ``lnodes``: log-log interpolation inside the grid,
    constant below it and the power-law tail ``tau`` above it, as in
    :func:`_log_dilate`.  Takes a scalar or an array of ``log_lam``.
    """
    lq = lnodes[0] + log_lam
    inside = np.interp(lq, lnodes, lv, left=lv[0])
    val = np.where(lq <= lnodes[-1], inside,
                   lv[-1] - tau * (lq - lnodes[-1]))
    return rate * log_lam + val


def _log_dilate(grid, values, tail_exponent, log_lam, rate):
    """Exact scaling-family member ``lam^rate * f(lam * r)`` on the grid.

    Log-log interpolation inside the grid, constant extension below
    ``r_min`` (profiles are flat at the origin) and the power-law tail
    model above ``r_max``.
    """
    lr = np.log(grid.nodes)
    lv = np.log(values)
    lq = lr + log_lam
    out = np.interp(lq, lr, lv, left=lv[0])
    over = lq > lr[-1]
    if np.any(over):
        out[over] = lv[-1] - tail_exponent * (lq[over] - lr[-1])
    return np.exp(rate * log_lam + out)


def solve_picard(params, grid=None, config=None, init=None, monitor=None,
                 operator=None):
    """Anderson-accelerated Picard solve for the regular decaying pair.

    Parameters
    ----------
    params : Params
        Must classify as critical: the regular fully decaying profile
        only exists on the critical scaling balance.
    grid : RadialGrid, optional
    config : SolveConfig, optional
    init : (RadialField, RadialField), optional
        Starting pair; defaults to :func:`default_init`.
    monitor : callable, optional
        Called as ``monitor(iteration, delta, spread_u, spread_v)``
        after each sweep.
    operator : KernelOperator, optional
        Reuse a previously assembled operator on ``grid``.

    Raises
    ------
    ValidationError
        For non-critical parameters.
    NonConvergenceError
        When the sweep budget ends before both the update size and the
        interior proportionality spread drop below ``config.tol``, when
        the re-measured residual stays above ``config.tol`` after
        ``PRESENTATION_CYCLES`` presentation dilations, or when the
        dilation root cannot be bracketed; the message names which.
    CollapseError
        When a field degenerates to zero (possible only with
        ``normalize_at_origin=False``).
    """
    config = config or SolveConfig()
    report = classify(params)
    if report.regime is not Regime.CRITICAL:
        raise ValidationError(
            "Picard fixed-point solve needs the critical regime; "
            "parameters classify as %s" % report.regime.value)
    if grid is None:
        grid = make_grid(n=params.n)
    op = operator if operator is not None else assemble(grid, params.n,
                                                        params.alpha)
    n, alpha, p, q = params.n, params.alpha, params.p, params.q
    if init is None:
        fu, fv = default_init(params, grid)
    else:
        fu, fv = init
    u, v = fu.values.copy(), fv.values.copy()
    window = _tail_window(grid)
    tau_u, tau_v = fu.tail_exponent, fv.tail_exponent
    sl = grid.interior_slice()
    omega = config.damping
    accelerate = config.normalize_at_origin and ANDERSON_DEPTH > 0

    th1, th2 = report.slow_rate_u, report.slow_rate_v
    lnodes = np.log(grid.nodes)
    floor = alpha + 0.05  # powered-tail clamp while iterating
    iterations = 0
    spread_u = spread_v = delta = math.inf
    res_u = res_v = math.inf
    limit = ("the re-measured residual stayed above tol=%g after %d "
             "presentation cycles; the achievable floor is set by the grid "
             "resolution" % (config.tol, PRESENTATION_CYCLES))

    # The presentation dilation resamples the fields, which adds a small
    # interpolation error to the residual; re-entering the sweep loop
    # from the transformed pair removes it (the follow-up shift is tiny).
    for _cycle in range(PRESENTATION_CYCLES):
        converged = False
        cu = cv = 1.0
        history = ([], [])  # Anderson iterates and residuals, this cycle
        while iterations < config.max_iters:
            iterations += 1
            tu = apply_extended(op, v ** q, max(q * tau_v, floor))
            tv = apply_extended(op, u ** p, max(p * tau_u, floor))
            cu, spread_u = _proportionality(tu, u, sl)
            cv, spread_v = _proportionality(tv, v, sl)
            if accelerate:
                x = np.log(np.concatenate((u, v)))
                image = np.log(np.concatenate((tu / tu[0], tv / tv[0])))
                fields = _anderson_step(history, x, image - x, omega)
                nu, nv = fields[:u.size], fields[u.size:]
            elif config.normalize_at_origin:
                nu = (1.0 - omega) * u + omega * tu / tu[0]
                nv = (1.0 - omega) * v + omega * tv / tv[0]
                nu /= nu[0]
                nv /= nv[0]
            else:
                nu = (1.0 - omega) * u + omega * tu
                nv = (1.0 - omega) * v + omega * tv
            if nu.max() < COLLAPSE_FLOOR or nv.max() < COLLAPSE_FLOOR:
                raise CollapseError(
                    "iterate collapsed below %g after %d sweeps"
                    % (COLLAPSE_FLOOR, iterations))
            with np.errstate(divide="ignore", invalid="ignore"):
                delta = max(
                    float(np.max(np.abs(nu - u) / np.maximum(u, 1e-300))),
                    float(np.max(np.abs(nv - v) / np.maximum(v, 1e-300))))
            u, v = nu, nv
            tau_u = _tail_slope(window, u, alpha, n)
            tau_v = _tail_slope(window, v, alpha, n)
            if monitor is not None:
                monitor(iterations, delta, spread_u, spread_v)
            if (delta < config.tol
                    and max(spread_u, spread_v) < 0.9 * config.tol):
                converged = True
                break
        # the error reports the residual measured last: this interior
        # spread, or the re-measure below once the cycles run out
        measured = (spread_u, spread_v)
        if not converged:
            limit = ("did not reach tol=%g within %d sweeps"
                     % (config.tol, config.max_iters))
            break

        # Restore physical amplitudes: with U = e*u, V = f*v the pair
        # solves the system exactly when e = cu*f^q and f = cv*e^p.
        expo = -1.0 / (p * q - 1.0)
        e = (cu * cv ** q) ** expo
        f = (cv * cu ** p) ** expo
        uu = e * u
        vv = f * v

        if config.normalize_at_origin:
            # Present the scaling-family member with u = 1 at the first
            # node; dilation is an exact symmetry of the system.
            lv = np.log(uu)
            gap_args = (lnodes, lv, tau_u, th1)
            # The gap vanishes on the origin plateau (near -ln u(rMin)
            # / th1) and possibly again out on the tail; bracket the
            # plateau root by scanning around its flat-profile estimate.
            guess = -lv[0] / th1
            span = np.linspace(guess - 8.0, guess + 8.0, 257)
            gap = _origin_gap(span, *gap_args)
            change = np.nonzero(np.diff(np.signbit(gap)))[0]
            if change.size == 0:
                limit = ("no root of the presentation dilation within 8 "
                         "log units of its estimate %.3g" % guess)
                break
            pick = change[np.argmin(np.abs(span[change] - guess))]
            log_lam = optimize.brentq(_origin_gap, span[pick],
                                      span[pick + 1], args=gap_args,
                                      xtol=1e-14)
            uu = _log_dilate(grid, uu, tau_u, log_lam, th1)
            vv = _log_dilate(grid, vv, tau_v, log_lam, th2)
            uu /= uu[0]

        tau_u = _tail_slope(window, uu, alpha, n)
        tau_v = _tail_slope(window, vv, alpha, n)
        res_u = float(np.max(np.abs(
            apply_extended(op, vv ** q, q * tau_v)[sl] / uu[sl] - 1.0)))
        res_v = float(np.max(np.abs(
            apply_extended(op, uu ** p, p * tau_u)[sl] / vv[sl] - 1.0)))
        measured = (res_u, res_v)
        if max(res_u, res_v) <= config.tol:
            return SolutionPair(
                u=RadialField(grid, uu, tail_exponent=tau_u),
                v=RadialField(grid, vv, tail_exponent=tau_v),
                params=params, iterations=iterations,
                residual_u=res_u, residual_v=res_v, branch=Branch.PICARD)
        u, v = uu, vv

    raise NonConvergenceError(
        "Picard iteration stopped after %d sweeps: %s (update %.3g, "
        "interior spread %.3g/%.3g, residual %.3g/%.3g)" % (
            iterations, limit, delta, spread_u, spread_v, res_u, res_v),
        iterations=iterations, residual_u=measured[0],
        residual_v=measured[1], last_delta=delta)


def singular_amplitudes(params):
    """Closed-form amplitudes ``(A, B)`` of the singular power-law pair.

    ``u = A r^{-theta1}``, ``v = B r^{-theta2}`` solves the system when
    both powered profiles are in the convergence window of the power-law
    identity; the amplitudes then satisfy ``A = B^q c1``, ``B = A^p c2``.

    Raises
    ------
    PreconditionError
        When a powered profile leaves the window ``(alpha, n)`` and the
        corresponding potential diverges.
    """
    n, alpha, p, q = params.n, params.alpha, params.p, params.q
    report = classify(params)
    th1, th2 = report.slow_rate_u, report.slow_rate_v
    for label, beta in (("q*theta2", q * th2), ("p*theta1", p * th1)):
        if not (alpha < beta < n):
            raise PreconditionError(
                "singular pair needs %s in (alpha, n) = (%r, %r), got %r"
                % (label, alpha, n, beta))
    c1 = power_law_constant(n, alpha, q * th2)
    c2 = power_law_constant(n, alpha, p * th1)
    den = 1.0 - p * q
    ln_a = (math.log(c1) + q * math.log(c2)) / den
    ln_b = (math.log(c2) + p * math.log(c1)) / den
    return math.exp(ln_a), math.exp(ln_b)


def singular_solution(params, grid=None, operator=None):
    """Exact singular power-law pair sampled on a grid.

    The node values are exact (``A r^{-theta1}`` etc.); the reported
    residuals measure the discrete operator's reproduction of the
    closed-form identity on the interior half of the grid.
    """
    a, b = singular_amplitudes(params)
    report = classify(params)
    th1, th2 = report.slow_rate_u, report.slow_rate_v
    if grid is None:
        grid = make_grid(n=params.n)
    u = a * grid.nodes ** (-th1)
    v = b * grid.nodes ** (-th2)
    fu = RadialField(grid, u, tail_exponent=th1)
    fv = RadialField(grid, v, tail_exponent=th2)
    op = operator if operator is not None else assemble(grid, params.n,
                                                        params.alpha)
    sl = grid.interior_slice()
    res_u = float(np.max(np.abs(
        apply_extended(op, v ** params.q, params.q * th2)[sl] / u[sl]
        - 1.0)))
    res_v = float(np.max(np.abs(
        apply_extended(op, u ** params.p, params.p * th1)[sl] / v[sl]
        - 1.0)))
    return SolutionPair(u=fu, v=fv, params=params, iterations=0,
                        residual_u=res_u, residual_v=res_v,
                        branch=Branch.SINGULAR)
