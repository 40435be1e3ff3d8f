"""Fixed-point solvers for the coupled potential system.

Solves the radial system ``u = I_alpha[v^q]``, ``v = I_alpha[u^p]`` on a
log grid.  Two branches:

* :func:`solve_picard` — Gauss-Seidel Picard sweeps for the regular
  decaying (bubble) profile in the critical regime: each sweep forms
  ``v = I_alpha[u^p]`` from the current ``u`` and iterates ``u`` alone
  through the composed map ``u -> I_alpha[(I_alpha[u^p])^q]``,
  accelerated by type-II Anderson mixing (Walker & Ni, SIAM J. Numer.
  Anal. 49, 2011) on ``ln u`` over the last ``ANDERSON_DEPTH`` sweeps.
  The map has two quasi-null directions inherited from the scaling
  family (overall amplitude, of exponent ``pq``, and dilation
  ``lam^theta u(lam r)``).  Each sweep renormalizes ``u`` to 1 at the
  first node, which removes the amplitude, and shifts its image along
  the dilation to the family member whose restored ``u`` is 1 there (a
  phase condition, as in freezing: Beyn & Thuemmler, SIAM J. Appl.
  Dyn. Syst. 3, 2004), which removes the dilation.  The fixed point is
  then the presented pair.
* :func:`singular_solution` — the exact singular pair
  ``A r^{-theta1}, B r^{-theta2}`` with amplitudes solved in closed form
  from the power-law identity of the potential.

Stopping is honest: the iteration must both stall (small update) and
satisfy the discrete equations proportionally on the interior half of
the grid to the requested tolerance, and the reported residuals are
re-measured on the final returned fields.  Since ``v`` is exact by
construction, the whole interior spread of the composed map sits on
the ``u`` equation; the presentation moves ``u`` the share ``1/(1+p)``
of the way to its image, which leaves about ``p/(1+p)`` of that spread
on each equation, and that predicted share is what the stop compares
with the tolerance.  An iteration whose predicted spread makes no new
low for ``2 * ANDERSON_DEPTH`` sweeps is stopped as stagnant.
Residuals gauge how well the discrete system is solved; the
distance to the continuum profile is a separate (second order in the log
mesh width) discretization question, observable by solving on a doubled
grid.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .analysis import _median, default_window
from .errors import (NonConvergenceError, PreconditionError,
                     ValidationError, instance, real_number, whole_number)
from .exponents import Params, Regime, classify
from .grid import make_grid
from .riesz import (KernelOperator, RadialField, apply_extended, assemble,
                    power_law_constant)

#: Iterate/residual pairs kept by the Anderson step; at least 1.
ANDERSON_DEPTH = 5


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
        the log change of a fresh sweep.
    max_iters : int
        Sweep budget (>= 0; a zero budget always fails to converge).
    tol : float
        Relative tolerance for the update size, the interior
        proportionality spread, and the reported residuals.  This
        measures satisfaction of the discrete equations; the distance
        to the continuum profile is set by the grid resolution and is
        second order in the log mesh width.
    """

    damping: float = 0.5
    max_iters: int = 400
    tol: float = 1e-6

    def __post_init__(self):
        for name in ("damping", "tol"):
            real_number(getattr(self, name), name)
        if not 0.0 < self.damping <= 1.0:
            raise ValidationError(
                "damping must be in (0, 1], got %r" % (self.damping,))
        if whole_number(self.max_iters, "max_iters") < 0:
            raise ValidationError(
                "max_iters must be a nonnegative integer, got %r"
                % (self.max_iters,))
        if not self.tol > 0.0:
            raise ValidationError("tol must be positive, got %r"
                                  % (self.tol,))
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
    if vals.min() <= 0.0:
        return alpha + 1.0
    lv = np.log(vals)
    lv -= np.add.reduce(lv) / lv.size  # the mean, as ndarray.mean sums
    return float(min(max(-weights.dot(lv), 0.05), 3.0 * n))


def _proportionality(image, values, sl):
    """Median ratio and relative spread of image/values on a slice."""
    ratio = image[sl] / values[sl]
    med = float(_median(ratio))
    return med, float(np.abs(ratio / med - 1.0).max())


def _anderson_step(history, x, f, mixing):
    """Next iterate of type-II Anderson mixing (Walker & Ni 2011).

    ``x`` is ``ln u`` and ``f = G(x) - x`` its Picard residual.  The
    step is ``x + mixing f - (dX + mixing dF) gamma`` with ``gamma`` the
    least-squares solution of ``dF gamma = f``.  The columns of ``dX``
    and ``dF`` are the differences of consecutive ``x`` and ``f`` over
    this cycle's last ``ANDERSON_DEPTH + 1`` sweeps, oldest first, held
    in ``history = [rows, table]`` (first ``[0, np.empty((2,
    ANDERSON_DEPTH + 1, count))]``): ``table[0]`` (``table[1]``) has the
    columns of ``dX`` (``dF``) as rows, then the last ``x`` (``f``),
    which the next call turns into a difference, so each column is
    formed once.  The correction is dropped, leaving the damped log
    step, while the history is short or ``dF`` is rank-deficient by
    ``lstsq``'s rule (singular values below 1e-10 of the largest), or
    when the corrected field is not finite.  Returns ``u`` renormalized
    to 1 at its first node.
    """
    rows, table = history
    if rows > ANDERSON_DEPTH:
        table[:, :-1] = table[:, 1:]  # drop the oldest difference
        rows -= 1
    if rows:
        np.subtract((x, f), table[:, rows - 1], out=table[:, rows - 1])
    table[0, rows], table[1, rows] = x, f
    history[0] = rows + 1
    step = x + mixing * f
    if rows:
        dx, df = table[0, :rows].T, table[1, :rows].T
        gamma, _, rank, _ = np.linalg.lstsq(df, f, rcond=1e-10)
        if rank == rows:
            field = _origin_normalized(step - (dx + mixing * df).dot(gamma))
            # exp gives no negative value: a NaN or inf shows in the max
            if field.max() < math.inf:
                return field
    return _origin_normalized(step)


def _origin_normalized(logs):
    """Exponentiate a log field divided by its value at the first node;
    overflow gives inf, for the caller to test."""
    with np.errstate(over="ignore"):
        return np.exp(logs - logs[0])


def _log_dilate(log_lam, rate, lnodes, lv, tau):
    """Log of the scaling-family member ``lam^rate f(lam r)`` at the log
    nodes ``lnodes``, for a scalar ``log_lam``.

    ``f`` has log values ``lv`` on ``lnodes``; it is interpolated log-log
    inside the grid, constant below ``r_min`` (profiles are flat at the
    origin) and the power-law tail ``tau`` above ``r_max``.
    """
    lq = lnodes + log_lam
    out = np.interp(lq, lnodes, lv, left=lv[0])
    past = lq.searchsorted(lnodes[-1], "right")  # lq increases: a suffix
    out[past:] = lv[-1] - tau * (lq[past:] - lnodes[-1])
    return np.add(out, rate * log_lam, out=out)


def _grid_operator(params, grid, operator):
    """The grid and operator of a solve: ``operator`` on its own grid
    unless ``grid`` is given, else one assembled on ``grid`` (default:
    the 512-node ``make_grid``).  :class:`ValidationError` when
    ``operator`` was built for another ``(r_min, r_max, count, n)`` or
    ``alpha``, or is not a :class:`KernelOperator`."""
    if operator is None:
        grid = grid if grid is not None else make_grid(n=params.n)
        return grid, assemble(grid, params.n, params.alpha)
    built = instance(operator, KernelOperator, "operator").grid
    grid = grid if grid is not None else built
    have = (built.r_min, built.r_max, built.count, built.n, operator.alpha)
    want = (grid.r_min, grid.r_max, grid.count, params.n, params.alpha)
    if have != want:
        raise ValidationError("operator was assembled for (r_min, r_max, "
                              "count, n, alpha) = %r, not %r" % (have, want))
    return grid, operator


def _residuals(op, params, u, v, tau_u, tau_v):
    """Relative sup-deviations of ``u`` from ``I_alpha[v^q]`` and of ``v``
    from ``I_alpha[u^p]`` on the interior half of the grid."""
    sl = op.grid.interior_slice()
    p, q = params.p, params.q
    res_u = float(np.max(np.abs(
        apply_extended(op, v ** q, q * tau_v)[sl] / u[sl] - 1.0)))
    res_v = float(np.max(np.abs(
        apply_extended(op, u ** p, p * tau_u)[sl] / v[sl] - 1.0)))
    return res_u, res_v


def _stop(iterations, limit, delta, measure, res_u, res_v):
    """The :class:`NonConvergenceError` of a Picard solve that ended on
    ``limit``, carrying the measured pair it prints."""
    return NonConvergenceError(
        "Picard iteration stopped after %d sweeps: %s (update %.3g, %s "
        "%.3g/%.3g)" % (iterations, limit, delta, measure, res_u, res_v),
        iterations=iterations, residual_u=res_u, residual_v=res_v,
        last_delta=delta)


def solve_picard(params, grid=None, config=None, monitor=None,
                 operator=None):
    """Anderson-accelerated Picard solve for the regular decaying pair.

    Every sweep forms ``v = I_alpha[u^p]`` and the image ``I_alpha[v^q]``
    of ``u``, renormalizes ``u`` to 1 at the first node and shifts its
    image along the dilation so that the physical amplitude of ``u`` is
    1 there; the fixed point is the family member with ``u = 1`` at the
    first node.  Once both the update size and the predicted interior
    spread are below ``config.tol``, the ``u`` just measured is moved
    the share ``1/(1+p)`` of the way to its image, the pair is given its
    physical amplitudes, dilated by the remaining shift (of the order of
    ``config.tol``) and set to ``u = 1`` at the first node, and its
    residuals are re-measured.  The iteration starts from the ``u`` of
    :func:`default_init`.

    Parameters
    ----------
    params : Params
        Must classify as critical: the regular fully decaying profile
        only exists on the critical scaling balance.
    grid : RadialGrid, optional
        Defaults to the operator's grid, or to the 512-node grid of
        ``make_grid``.
    config : SolveConfig, optional
    monitor : callable, optional
        Called as ``monitor(iteration, delta, spread_u, spread_v)``
        after each sweep, with ``delta`` the relative update of ``u``.
        Both spreads are the share ``p/(1+p)`` of the interior spread of
        ``I_alpha[v^q]/u`` that the presentation would leave on each
        equation, so they are equal; ``v = I_alpha[u^p]`` has no spread
        of its own.
    operator : KernelOperator, optional
        Reuse a previously assembled operator on ``grid``.

    Raises
    ------
    ValidationError
        For a ``params``, ``config`` or ``operator`` of another class,
        non-critical parameters, or an operator for another grid or alpha.
    NonConvergenceError
        When the sweep budget ends before the update size drops below
        ``config.tol`` and the predicted spread below ``0.9 config.tol``,
        when the iteration stagnates (no new low of the interior spread
        for ``2 * ANDERSON_DEPTH`` sweeps), or when the re-measured
        residual of the presented pair is above ``config.tol``.  The
        message names which, and the error carries the pair it measured
        last.
    """
    config = instance(config, SolveConfig, "config", SolveConfig())
    report = classify(params)
    if report.regime is not Regime.CRITICAL:
        raise ValidationError(
            "Picard fixed-point solve needs the critical regime; "
            "parameters classify as %s" % report.regime.value)
    grid, op = _grid_operator(params, grid, operator)
    n, alpha, p, q = params.n, params.alpha, params.p, params.q
    fu = default_init(params, grid)[0]
    u, tau_u = fu.values, fu.tail_exponent
    window = _tail_window(grid)
    sl = grid.interior_slice()
    omega = config.damping

    th1, th2 = report.slow_rate_u, report.slow_rate_v
    lnodes = np.log(grid.nodes)
    floor = alpha + 0.05  # powered-tail clamp while iterating
    share = p / (1.0 + p)  # of the u floor left on each equation, presented
    iterations = 0
    spread_u = spread_v = delta = math.inf
    history = [0, np.empty((2, ANDERSON_DEPTH + 1, grid.count))]
    best, best_at = math.inf, 0  # lowest interior spread so far
    while iterations < config.max_iters:
        iterations += 1
        v = apply_extended(op, u ** p, max(p * tau_u, floor))
        tau_v = _tail_slope(window, v, alpha, n)
        tu = apply_extended(op, v ** q, max(q * tau_v, floor))
        cu, spread = _proportionality(tu, u, sl)
        spread_u = spread_v = share * spread
        # Freeze the dilation: take the image to the family member whose
        # restored u is 1 at the first node, so that the map's fixed
        # point is the presented pair and the orbit is no longer neutral.
        log_lam = math.log(tu[0]) / ((p * q - 1.0) * th1)
        image = _log_dilate(log_lam, 0.0, lnodes, np.log(tu), tau_u)
        x = np.log(u)
        step = _anderson_step(history, x, image - image[0] - x, omega)
        with np.errstate(divide="ignore", invalid="ignore"):
            delta = float((np.abs(step - u) / np.maximum(u, 1e-300)).max())
        if monitor is not None:
            monitor(iterations, delta, spread_u, spread_v)
        if delta < config.tol and spread_u < 0.9 * config.tol:
            break  # present the pair whose spread and cu were measured
        u = step
        tau_u = _tail_slope(window, u, alpha, n)
        if spread_u < best:
            best, best_at = spread_u, iterations
        elif iterations - best_at == 2 * ANDERSON_DEPTH:
            raise _stop(iterations, "the accelerated iteration stagnated: "
                         "the interior spread made no new low below %.3g in "
                         "%d sweeps" % (best, 2 * ANDERSON_DEPTH), delta,
                         "interior spread", spread_u, spread_v)
    else:
        raise _stop(iterations, "did not reach tol=%g within %d sweeps"
                     % (config.tol, config.max_iters), delta,
                     "interior spread", spread_u, spread_v)

    # v = I[u^p] is exact, so the u equation carries the whole floor:
    # moving u the share 1/(1+p) of the way to its image leaves about
    # p/(1+p) of it on each equation.  Then restore physical amplitudes:
    # U = e*u solves the composed map when e = cu*e^(pq), and V = e^p v.
    # The frozen map leaves e within about tol of 1, so the dilation
    # ``lam^theta f(lam r)`` that brings U to 1 at the first node is as
    # small.
    u = u * (tu / (cu * u)) ** (1.0 / (1.0 + p))
    e = cu ** (-1.0 / (p * q - 1.0))
    log_lam = -math.log(e) / th1
    u = np.exp(_log_dilate(log_lam, th1, lnodes, np.log(e * u), tau_u))
    v = np.exp(_log_dilate(log_lam, th2, lnodes, np.log(e ** p * v), tau_v))
    u[0] = 1.0
    tau_u = _tail_slope(window, u, alpha, n)
    tau_v = _tail_slope(window, v, alpha, n)
    res_u, res_v = _residuals(op, params, u, v, tau_u, tau_v)
    if max(res_u, res_v) > config.tol:
        raise _stop(iterations, "the re-measured residual stayed above "
                     "tol=%g; the achievable floor is set by the grid "
                     "resolution" % config.tol, delta,
                     "re-measured residual", res_u, res_v)
    return SolutionPair(
        u=RadialField(grid, u, tail_exponent=tau_u),
        v=RadialField(grid, v, tail_exponent=tau_v),
        params=params, iterations=iterations,
        residual_u=res_u, residual_v=res_v, branch=Branch.PICARD)


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
    report = classify(params)
    n, alpha, p, q = params.n, params.alpha, params.p, params.q
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
    closed-form identity on the interior half of the grid.  ``grid``
    and ``operator`` default as in :func:`solve_picard`, and a
    mismatched ``operator`` raises :class:`ValidationError` likewise.
    """
    a, b = singular_amplitudes(params)
    report = classify(params)
    th1, th2 = report.slow_rate_u, report.slow_rate_v
    grid, op = _grid_operator(params, grid, operator)
    u = a * grid.nodes ** (-th1)
    v = b * grid.nodes ** (-th2)
    res_u, res_v = _residuals(op, params, u, v, th1, th2)
    return SolutionPair(u=RadialField(grid, u, tail_exponent=th1),
                        v=RadialField(grid, v, tail_exponent=th2),
                        params=params, iterations=0,
                        residual_u=res_u, residual_v=res_v,
                        branch=Branch.SINGULAR)
