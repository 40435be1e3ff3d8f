"""Asymptotic analysis of computed profiles.

Tools to measure and cross-check the far-field behavior of solution
pairs: power-law (optionally log-corrected) tail fits, the fast-decay
amplitude limits implied by the integral identities, decay-envelope
verification against the regime classification, integrability
predicates, and the exponent recursion that rules out intermediate
decay rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateFitError, DivergentTailError,
                     PreconditionError, ValidationError, instance, real_number)
from .exponents import VFastCase, classify
from .riesz import (field_integral, power_law_constant,
                    riesz_normalization, sphere_area)

#: Relative RSS improvement a log-corrected model must deliver.
LOG_MODEL_GAIN = 0.05
#: Relative widening of the decay envelope beyond the slow and fast rates.
ENVELOPE_SLACK = 0.05


@dataclass(frozen=True)
class DecayFit:
    """Power-law tail fit ``f ~ amplitude * r^-exponent * (ln r)^log_power``.

    ``r2`` is the coefficient of determination of the chosen model in
    log-log coordinates over the fit window ``[window_lo, window_hi]``.
    """

    exponent: float
    log_power: int
    amplitude: float
    window_lo: float
    window_hi: float
    r2: float


def default_window(radii):
    """Default fit window: outermost decade, last 10% of samples dropped.

    The last samples sit against the domain boundary (or the shooting
    horizon) where truncation effects concentrate.
    """
    radii = np.asarray(radii, dtype=float)
    if not np.all(np.isfinite(radii)):
        raise ValidationError("default_window needs finite radii")
    hi = int(math.floor(radii.size * 0.9))
    lo = int(np.searchsorted(radii, radii[-1] / 10.0))
    lo = min(lo, hi - 10)
    return max(lo, 0), hi


def _median(values):
    """``np.median`` of a 1-D float array to the bit, from one partition:
    the middle one or two values summed as ``np.mean`` sums, or the NaN
    partitioned last."""
    k = values.size // 2
    part = np.partition(values, (k - 1, k, -1))
    mid = part[k - 1 + values.size % 2:k + 1]  # the middle one or two
    return np.add.reduce(mid) / mid.size if part[-1] == part[-1] else part[-1]


def fit_tail(radii, values, window=None, log_power=None):
    """Fit a decaying power law, choosing the log correction by evidence.

    Both ``f = A r^-m`` and ``f = A r^-m ln r`` are fitted by least
    squares in log-log coordinates; the log-corrected model is kept only
    when it reduces the residual sum of squares by at least 5% (and the
    window sits at radii > 1 where the correction is meaningful).

    Parameters
    ----------
    radii, values : arrays
        Sampled profile, radii increasing.
    window : (float, float), optional
        Radii bounds of the fit window; default :func:`default_window`.
    log_power : {None, 0, 1}, optional
        Force the plain power law (0) or the log-corrected model (1)
        instead of selecting by residual evidence. On a window spanning
        only a decade the log factor is nearly collinear with the power,
        so when the model is known a priori forcing it gives the honest
        slope; the default ``None`` keeps the evidence-based choice.

    Raises
    ------
    ValidationError
        Unless ``radii`` and ``values`` are congruent 1D arrays of finite
        numbers.
    DegenerateFitError
        For windows with fewer than 10 samples, nonpositive values, no
        radial spread, or a forced log model on a window touching radii
        <= 1.
    """
    if log_power not in (None, 0, 1):
        raise ValidationError("log_power must be None, 0 or 1")
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if radii.shape != values.shape or radii.ndim != 1:
        raise ValidationError("radii and values must be 1D and congruent")
    if not (np.all(np.isfinite(radii)) and np.all(np.isfinite(values))):
        raise ValidationError("radii and values must be finite")
    if window is None:
        lo_i, hi_i = default_window(radii)
        sel = np.zeros(radii.size, dtype=bool)
        sel[lo_i:hi_i] = True
    else:
        wlo, whi = window
        sel = (radii >= wlo) & (radii <= whi)
    r = radii[sel]
    f = values[sel]
    if r.size < 10:
        raise DegenerateFitError(
            "fit window holds %d samples, need at least 10" % r.size)
    if np.any(f <= 0.0):
        raise DegenerateFitError("fit window contains nonpositive values")
    lr = np.log(r)
    lf = np.log(f)
    if np.ptp(lr) <= 0.0:
        raise DegenerateFitError("fit window has no radial spread")

    def linfit(resp):
        slope, icept = np.polyfit(lr, resp, 1)
        rss = float(np.sum((resp - (slope * lr + icept)) ** 2))
        return slope, icept, rss

    if log_power == 1 and np.min(r) <= 1.0:
        raise DegenerateFitError(
            "log-corrected fit needs the whole window at radii > 1")
    if log_power == 0:
        slope, icept, rss = linfit(lf)
        chosen = 0
    elif log_power == 1:
        slope, icept, rss = linfit(lf - np.log(lr))
        chosen = 1
    else:
        s0, i0, rss0 = linfit(lf)
        chosen = 0
        slope, icept, rss = s0, i0, rss0
        if np.min(r) > 1.0:
            s1, i1, rss1 = linfit(lf - np.log(lr))
            if rss1 <= (1.0 - LOG_MODEL_GAIN) * rss0:
                chosen, slope, icept, rss = 1, s1, i1, rss1
    log_power = chosen
    tss = float(np.sum((lf - lf.mean()) ** 2))
    r2 = 1.0 if tss == 0.0 else 1.0 - rss / tss
    return DecayFit(exponent=float(-slope), log_power=log_power,
                    amplitude=float(math.exp(icept)),
                    window_lo=float(r[0]), window_hi=float(r[-1]),
                    r2=float(r2))


def monotonicity_criterion(values):
    """Worst ratio of a value to the maximum at or beyond its position.

    Returns ``eps0 = min_s f(s) / max_{t >= s} f(t)``, which is 1 exactly
    for nonincreasing profiles and quantifies the depth of any interior
    dip (the quantity controlling whether a comparison-based decay
    argument applies with constant ``eps0``).
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValidationError("need a nonempty 1D profile")
    if not np.all((values > 0.0) & (values < math.inf)):
        raise ValidationError("monotonicity ratio needs finite values > 0")
    suffix_max = np.maximum.accumulate(values[::-1])[::-1]
    return float(np.min(values / suffix_max))


def integrability_predicate(decay_exponent, power, n):
    """Whether ``f^power`` with ``f ~ r^-decay_exponent`` is integrable.

    Strict inequality: ``power * decay_exponent > n`` (against the
    ``s^{n-1}`` radial measure at infinity); :class:`ValidationError`
    unless all three are finite real numbers, ``power > 0`` and ``n > 0``.
    """
    decay_exponent = real_number(decay_exponent, "decay_exponent")
    power, n = real_number(power, "power"), real_number(n, "n")
    if not (power > 0.0 and n > 0.0):
        raise ValidationError("need power > 0 and n > 0")
    return bool(power * decay_exponent > n)


@dataclass(frozen=True)
class RecursionTrace:
    """Bootstrapped decay-exponent recursion.

    Starting from a candidate decay rate ``b0`` for ``u``, alternately
    applying the potential identities maps ``a_j = p*b_{j-1} - alpha``
    (the rate this forces on ``v``) and ``b_j = q*a_j - alpha`` (fed
    back to ``u``).  Rates
    below the slow fixed point contract to negative exponents —
    ``blowup_index`` is the first ``j`` with ``b_j < 0``, certifying that
    no admissible profile decays at ``b0``.  ``None`` when the recursion
    instead grows (rates at or above the fixed point).
    """

    b0: float
    alpha: float
    p: float
    q: float
    a_seq: tuple
    b_seq: tuple
    blowup_index: int | None


def run_recursion(b0, alpha, p, q):
    """Iterate the decay-exponent recursion from ``b0``.

    The map is affine with multiplier ``p*q > 1`` around its fixed point
    ``alpha*(q+1)/(p*q-1)``, so it always resolves quickly; iteration
    stops at the first negative rate, on overflow past 1e100, or after
    64 steps.
    """
    b0, alpha = real_number(b0, "b0"), real_number(alpha, "alpha")
    p, q = real_number(p, "p"), real_number(q, "q")
    if not (alpha > 0.0 and p > 0.0 and q > 0.0 and p * q > 1.0):
        raise ValidationError("need alpha, p, q > 0 with p*q > 1")
    a_seq = []
    b_seq = []
    blowup = None
    b = b0
    for j in range(1, 65):
        a = p * b - alpha
        b = q * a - alpha
        a_seq.append(a)
        b_seq.append(b)
        if b < 0.0:
            blowup = j
            break
        if abs(b) > 1e100:
            break
    return RecursionTrace(b0=b0, alpha=alpha, p=p, q=q, a_seq=tuple(a_seq),
                          b_seq=tuple(b_seq), blowup_index=blowup)


def envelope_bands(report):
    """Admissible decay-exponent bands ``((lo_u, hi_u), (lo_v, hi_v))``.

    Each band spans the component's slow (power-law separatrix) and fast
    (potential-driven) rates from the regime classification ``report``,
    widened by ``ENVELOPE_SLACK`` (5%) relative on both sides.
    """
    return tuple((min(slow, fast) * (1.0 - ENVELOPE_SLACK),
                  max(slow, fast) * (1.0 + ENVELOPE_SLACK))
                 for slow, fast in ((report.slow_rate_u, report.fast_rate_u),
                                    (report.slow_rate_v, report.fast_rate_v)))


def envelope_check(params, exponent_u, exponent_v):
    """Whether fitted decay exponents sit inside :func:`envelope_bands`.

    Raises
    ------
    ValidationError
        Unless both exponents are finite.
    """
    exponent_u = real_number(exponent_u, "exponent_u")
    exponent_v = real_number(exponent_v, "exponent_v")
    bands = envelope_bands(classify(params))
    return all(lo <= measured <= hi for (lo, hi), measured
               in zip(bands, (exponent_u, exponent_v)))


@dataclass(frozen=True)
class FastLimitReport:
    """Measured vs predicted fast-decay amplitudes of a solution pair.

    ``b0`` is the potential-integral prediction of ``u``'s amplitude;
    ``v_prediction`` the branch prediction for ``v`` (``case`` names the
    branch).  Deviations are relative.
    """

    case: VFastCase
    b0: float
    u_amplitude: float
    u_deviation: float
    v_prediction: float
    v_amplitude: float
    v_deviation: float


def _fast_limit(params, field=None, power=None, label=None):
    """``|S^{n-1}|/gamma(n, alpha)``, times the mass of ``field^power``.

    The potential of an integrable profile decays like this constant
    times its mass times ``r^{alpha-n}``.  With no ``field`` the bare
    constant is returned.

    Raises
    ------
    DivergentTailError
        When ``field^power`` is not integrable (``power*tau <= n``);
        ``label`` names it in the message.
    """
    const = sphere_area(params.n) / riesz_normalization(params.n, params.alpha)
    if field is None:
        return const
    if field.tail_exponent * power <= params.n:
        raise DivergentTailError(
            "%s is not integrable: power*tail_exponent = %r <= n = %r"
            % (label, power * field.tail_exponent, params.n))
    return const * field_integral(field, power=power)


def amplitude_b0(pair):
    """Predicted fast amplitude of ``u``: the full mass of ``v^q``.

    ``u(r) r^{n-alpha} -> (|S^{n-1}|/gamma) * int v^q s^{n-1} ds``
    whenever ``v^q`` is integrable.

    Raises
    ------
    DivergentTailError
        When the powered tail is not integrable (``q*tau_v <= n``).
    """
    return _fast_limit(pair.params, pair.v, pair.params.q, "v^q")


def _window_amplitude(field, exponent, log_power=0):
    """Compensated tail amplitude over the default outer window.

    For pure power laws this is the median of ``f * r^exponent``.  For
    the log-corrected model ``f ~ (C ln r + c0) r^-exponent`` the median
    of ``f r^exponent / ln r`` would be contaminated by the subleading
    constant at O(1/ln r), so ``C`` is taken as the slope of
    ``f r^exponent`` against ``ln r`` instead.
    """
    radii = field.grid.nodes
    lo_i, hi_i = default_window(radii)
    r = radii[lo_i:hi_i]
    comp = field.values[lo_i:hi_i] * r ** exponent
    if log_power:
        return float(np.polyfit(np.log(r), comp, 1)[0])
    return float(_median(comp))


def _v_limit(pair, case, b0):
    """Predicted and measured fast amplitude of ``v`` in the branch
    ``case`` of :func:`check_fast_limits`, given ``b0``."""
    params = pair.params
    n, alpha, p = params.n, params.alpha, params.p
    if case is VFastCase.PURE:
        return (_fast_limit(params, pair.u, p, "u^p"),
                _window_amplitude(pair.v, n - alpha))
    if case is VFastCase.LOG_CORRECTED:
        return (_fast_limit(params) * b0 ** p,
                _window_amplitude(pair.v, n - alpha, log_power=1))
    return (b0 ** p * power_law_constant(n, alpha, p * (n - alpha)),
            _window_amplitude(pair.v, p * n - (p + 1.0) * alpha))


def check_fast_limits(pair):
    """Verify both fast-decay amplitude limits on a solution pair.

    Checks that ``u``'s tail runs at the fast rate with the amplitude
    ``b0`` of :func:`amplitude_b0`, then compares ``v``'s tail with the
    one of three branch limits its parameters classify into:

    * pure, ``p*(n-alpha) > n``: ``u^p`` is integrable and ``v
      r^{n-alpha}`` tends to ``|S^{n-1}|/gamma`` times its full mass;
    * log-corrected, ``p*(n-alpha) = n``: ``u^p`` decays exactly like
      ``s^-n``, the potential picks up a logarithm, and ``v r^{n-alpha}
      / ln r -> (|S^{n-1}|/gamma) * b0^p``;
    * weakened, ``p*(n-alpha) < n``: ``u^p`` is not integrable, and
      ``v`` inherits the slower rate ``p*n - (p+1)*alpha`` through the
      power-law identity, with amplitude ``b0^p * c(n, alpha,
      p*(n-alpha))``.

    Raises
    ------
    ValidationError
        Unless ``pair`` is a :class:`~rieszlab.solver.SolutionPair`.
    PreconditionError
        When ``u``'s fitted tail is not within 10% of the fast rate
        (the limits only describe fast-decaying profiles).
    DivergentTailError
        When ``v^q``, or in the pure branch ``u^p``, is not integrable.
    """
    from .solver import SolutionPair  # the solver imports this module
    params = instance(pair, SolutionPair, "pair").params
    report = classify(params)
    fast_u = report.fast_rate_u
    fit_u = fit_tail(pair.u.grid.nodes, pair.u.values)
    if abs(fit_u.exponent - fast_u) > 0.10 * fast_u:
        raise PreconditionError(
            "u decays with fitted exponent %r, not within 10%% of the "
            "fast rate %r; fast-limit checks do not apply"
            % (fit_u.exponent, fast_u))
    b0 = amplitude_b0(pair)
    u_amp = _window_amplitude(pair.u, fast_u)
    v_pred, v_amp = _v_limit(pair, report.v_fast_case, b0)
    return FastLimitReport(
        case=report.v_fast_case, b0=b0, u_amplitude=u_amp,
        u_deviation=abs(u_amp / b0 - 1.0),
        v_prediction=v_pred, v_amplitude=v_amp,
        v_deviation=abs(v_amp / v_pred - 1.0))
