"""End-to-end acceptance criteria with stated tolerances.

Each criterion is an independent check of one load-bearing promise of
the package, run at a fixed tolerance and wall-time budget:

1. ``exponent-algebra``     closed-form exponent identities (1e-12)
2. ``power-law-apply``      operator action on power laws vs independent
                            oracles (1e-3)
3. ``singular-amplitude``   exact singular amplitude sqrt(2) (1e-6) and
                            interior residual (1e-3)
4. ``fast-limits``          fast-decay amplitude limits, all three
                            branches, on genuinely solved pairs (5%)
5. ``slow-decay-shooting``  bisected ground state decays at the slow
                            rates and is non-integrable (5%)
6. ``envelope-positivity``  weighted tail positivity and the two-sided
                            decay envelope on >= 5 parameter sets (5%)
7. ``blowup-recursion``     recursion blow-up threshold and closed form
                            on random draws (1e-12)
8. ``self-convergence``     grid doubling moves criteria 2-4 measured
                            quantities by less than half their tolerance

Expensive artifacts (assembled operators, solved pairs, the bisected
trajectory) are cached in a :class:`Workspace` and shared between
criteria.  Randomized draws use a caller-provided seed so reruns are
reproducible.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from . import analysis
from .errors import ValidationError
from .exponents import Params, critical_q, classify
from .grid import make_grid
from .riesz import (angular_kernel, apply_extended, assemble,
                    riesz_normalization)
from .shooting import ShotConfig, bisect_ground_state
from .solver import (SolveConfig, singular_amplitudes, singular_solution,
                     solve_picard)

#: Parameter sets exercising the three fast-decay branches for ``v``
#: (criterion 4).  The weakened set keeps its sweep tolerance of 1e-5.
#: The floor near 2.5e-6 at 512 nodes that once set it came from the
#: half-width last cell; on full end cells the set reaches 1e-7 there.
FAST_LIMIT_SETS = {
    "pure": (Params(n=4, alpha=2.0, p=3.0, q=3.0), 1e-6),
    "log": (Params(n=4, alpha=2.0, p=2.0, q=5.0), 1e-6),
    "weakened": (Params(n=4, alpha=2.0, p=1.5, q=9.0), 1e-5),
}

#: Frozen oracle constants for criterion 2 (hand-derived from the Gamma
#: factor formula): c(5, 2, 3) = 1/2 and c(4, 2, 2.5) = 4/3.
POWER_LAW_SETS = (
    (5, 2.0, 3.0, 0.5),
    (4, 2.0, 2.5, 4.0 / 3.0),
)


@dataclass(frozen=True)
class CriterionResult:
    key: str
    description: str
    expected: str
    measured: str
    tolerance: str
    passed: bool
    seconds: float


class Workspace:
    """Shared, lazily-built heavy artifacts for the criteria."""

    def __init__(self, seed: int = 0):
        self.rng = np.random.default_rng(seed)
        self._cache: dict = {}

    def _memo(self, key, build):
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def grid(self, n, count):
        return self._memo(("grid", n, count),
                          lambda: make_grid(1e-4, 1e4, count, n))

    def operator(self, n, alpha, count):
        return self._memo(("op", n, alpha, count),
                          lambda: assemble(self.grid(n, count), n, alpha))

    def solved(self, key, count):
        params, tol = FAST_LIMIT_SETS[key]

        def build():
            op = self.operator(params.n, params.alpha, count)
            return solve_picard(params, op.grid, SolveConfig(tol=tol),
                                operator=op)

        return self._memo(("solved", key, count), build)

    def fast_report(self, key, count):
        def build():
            return analysis.check_fast_limits(self.solved(key, count))

        return self._memo(("fast", key, count), build)

    def singular_pair(self, n, p, q, count):
        """The singular pair at ``alpha = 2`` on the shared operator."""

        def build():
            op = self.operator(n, 2.0, count)
            return singular_solution(Params(n=n, alpha=2.0, p=p, q=q),
                                     op.grid, operator=op)

        return self._memo(("singular-pair", n, p, q, count), build)

    def ground_state(self):
        def build():
            params = Params(n=5, alpha=2.0, p=3.0, q=3.0)
            config = ShotConfig(u0=1.0, xi=0.5, r_start=1e-6, r_end=1e5)
            return bisect_ground_state(params, 0.5, 2.0, config=config,
                                       iters=60)

        return self._memo(("ground-state",), build)

    # -- criterion 2/8 measurement helpers ---------------------------------

    def power_law_measures(self, n, alpha, beta, count):
        """Fitted slope and compensated amplitude of the operator output."""

        def build():
            op = self.operator(n, alpha, count)
            nodes = op.grid.nodes
            out = apply_extended(op, nodes ** (-beta), beta)
            sl = op.grid.interior_slice()
            slope = analysis.fit_tail(nodes, out,
                                      window=(nodes[sl][0], nodes[sl][-1]),
                                      log_power=0).exponent
            amplitude = float(np.median(out[sl] * nodes[sl] ** (beta - alpha)))
            return slope, amplitude

        return self._memo(("power-law", n, alpha, beta, count), build)

    def quadrature_oracle(self, n, alpha, beta, radius):
        """Independent potential value at one radius by nested quadrature.

        Integrates the sphere-averaged kernel against the power-law
        profile directly — no assembled matrix, no closed-form constant.
        """

        def build():
            def integrand(s):
                return angular_kernel(radius, s, n, alpha) * s ** (n - 1.0 - beta)

            near, _ = integrate.quad(integrand, 0.0, 2.0 * radius,
                                     points=[radius], limit=200,
                                     epsabs=0.0, epsrel=1e-8)
            far, _ = integrate.quad(integrand, 2.0 * radius, np.inf,
                                    limit=200, epsabs=0.0, epsrel=1e-8)
            return (near + far) / riesz_normalization(n, alpha)

        return self._memo(("quad-oracle", n, alpha, beta, radius), build)


# ---------------------------------------------------------------------------
# criteria


def _c_exponent_algebra(ws):
    rng = ws.rng
    worst_identity = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 12))
        alpha = float(rng.uniform(0.2, n - 0.2))
        p = float(rng.uniform(0.2, 6.0))
        q_lo = max(0.2, 1.2 / p)
        q = float(rng.uniform(q_lo, q_lo + 5.0))
        rep = classify(Params(n=n, alpha=alpha, p=p, q=q))
        worst_identity = max(
            worst_identity,
            abs(rep.r0 * rep.slow_rate_u / n - 1.0),
            abs(rep.s0 * rep.slow_rate_v / n - 1.0))

    worst_critical = 0.0
    for _ in range(1000):
        n = int(rng.integers(4, 12))
        alpha = float(rng.uniform(0.5, n - 1.0))
        p_min = n / (n - alpha) - 1.0 + 0.05
        p = float(rng.uniform(p_min, p_min + 5.0))
        params = Params(n=n, alpha=alpha, p=p, q=critical_q(n, alpha, p))
        rep = classify(params)
        if rep.regime.value != "Critical":
            worst_critical = math.inf
            continue
        worst_critical = max(
            worst_critical,
            abs(rep.r0 - (params.p + 1.0)) / (params.p + 1.0),
            abs(rep.s0 - (params.q + 1.0)) / (params.q + 1.0))

    worst = max(worst_identity, worst_critical)
    return ("r0*slowU=n, s0*slowV=n; critical r0=p+1, s0=q+1",
            "max rel dev %.2e over 2000 draws" % worst,
            "1e-12 rel; <1s",
            worst <= 1e-12)


def _c_power_law(ws):
    details = []
    worst_slope = worst_amp = worst_oracle = 0.0
    for n, alpha, beta, oracle_c in POWER_LAW_SETS:
        slope, amplitude = ws.power_law_measures(n, alpha, beta, 512)
        slope_err = abs(slope - (beta - alpha))
        amp_err = abs(amplitude / oracle_c - 1.0)
        op = ws.operator(n, alpha, 512)
        nodes = op.grid.nodes
        idx = int(np.argmin(np.abs(nodes - 1.0)))
        value = apply_extended(op, nodes ** (-beta), beta)[idx]
        oracle = ws.quadrature_oracle(n, alpha, beta, float(nodes[idx]))
        oracle_err = abs(value / oracle - 1.0)
        worst_slope = max(worst_slope, slope_err)
        worst_amp = max(worst_amp, amp_err)
        worst_oracle = max(worst_oracle, oracle_err)
        details.append("(%d,%g,%g)" % (n, alpha, beta))
    return ("slope = beta-alpha; amplitude matches frozen constant and "
            "nested-quadrature oracle [%s]" % ", ".join(details),
            "slope err %.1e; amp err %.1e; oracle err %.1e"
            % (worst_slope, worst_amp, worst_oracle),
            "1e-3; <30s",
            max(worst_slope, worst_amp, worst_oracle) <= 1e-3)


def _c_singular_amplitude(ws):
    pair = ws.singular_pair(5, 3.0, 3.0, 512)
    amp_u, amp_v = singular_amplitudes(pair.params)
    dev = max(abs(amp_u / math.sqrt(2.0) - 1.0),
              abs(amp_v / math.sqrt(2.0) - 1.0))
    residual = max(pair.residual_u, pair.residual_v)
    return ("A = B = sqrt(2) for (n,alpha,p,q)=(5,2,3,3); small interior "
            "residual",
            "amplitude dev %.2e; residual %.2e" % (dev, residual),
            "1e-6 on A; 1e-3 residual; <30s",
            dev <= 1e-6 and residual <= 1e-3)


def _c_fast_limits(ws):
    parts = []
    passed = True
    for key in ("pure", "log", "weakened"):
        report = ws.fast_report(key, 512)
        passed &= analysis.fast_limits_claim(report)[0]
        parts.append("%s u %.1e v %.1e"
                     % (key, report.u_deviation, report.v_deviation))
    return ("u r^(n-a) -> B0 and the branch v-limit on solved pairs "
            "(pure/log/weakened)",
            "; ".join(parts),
            "5% rel; <2min",
            passed)


def _decade_mass_ratio(radii, f, power, n):
    """Mass of ``f^power`` on the decade (1e3, 1e4) over that on (1e2,
    1e3), the mass ``int f^power r^n d ln r`` by the trapezoid rule on
    the samples: 1 for ``f ~ r^(-n/power)``, whose mass per decade holds,
    and ``10^(-n e)`` for a tail ``e`` steeper in relative terms."""
    def mass(lo, hi):
        keep = (radii >= lo) & (radii <= hi)
        return np.trapezoid(f[keep] ** power * radii[keep] ** n,
                            np.log(radii[keep]))

    return mass(1e3, 1e4) / mass(1e2, 1e3)


def _c_slow_decay(ws):
    result = ws.ground_state()
    traj = result.trajectory
    window = (1e3, 1e4)
    # on this one decade the evidence-based fit takes the log model and
    # reads 1.127; the power law is known here, so it is forced
    fit_u = analysis.fit_tail(traj.radii, traj.u, window=window, log_power=0)
    fit_v = analysis.fit_tail(traj.radii, traj.v, window=window, log_power=0)
    params = Params(n=5, alpha=2.0, p=3.0, q=3.0)
    rep = classify(params)
    # not integrable: the mass of u^r0 (v^s0) per decade does not fall
    # faster than a tail CLAIM_TOLERANCE steeper than the slow rate's
    floor = 10.0 ** (-params.n * analysis.CLAIM_TOLERANCE)
    mass_u = _decade_mass_ratio(traj.radii, traj.u, rep.r0, params.n)
    mass_v = _decade_mass_ratio(traj.radii, traj.v, rep.s0, params.n)
    slow, _, _ = analysis.rate_claim(params, fit_u, fit_v, None, fast=False)
    passed = slow and mass_u >= floor and mass_v >= floor
    return ("bisected (5,2,3,3) tail slopes = slow rates (1,1); "
            "slow pair not integrable: u^r0, v^s0 mass per decade "
            "ratio >= %.2f" % floor,
            "slopes (%.4f, %.4f); mass ratios (%.4f, %.4f)"
            % (fit_u.exponent, fit_v.exponent, mass_u, mass_v),
            "5% rel; <1min",
            passed)


def _envelope_sets(ws):
    """(label, params, radii, u, v, window) for the envelope criterion."""
    sets = []

    pair = ws.solved("pure", 512)
    sets.append(("bubble-4d-solved", pair.params, pair.u.grid.nodes,
                 pair.u.values, pair.v.values, None))

    params6 = Params(n=6, alpha=2.0, p=2.0, q=2.0)
    grid6 = ws.grid(6, 512)
    exact = 24.0 / (1.0 + grid6.nodes ** 2) ** 2
    sets.append(("bubble-6d-exact", params6, grid6.nodes, exact, exact, None))

    for n, p, q in ((5, 3.0, 3.0), (7, 3.0, 3.0), (6, 2.5, 2.5)):
        spair = ws.singular_pair(n, p, q, 512)
        sets.append(("singular-%dd" % n, spair.params, spair.u.grid.nodes,
                     spair.u.values, spair.v.values, None))

    shot = ws.ground_state().trajectory
    sets.append(("shot-5d", Params(n=5, alpha=2.0, p=3.0, q=3.0),
                 shot.radii, shot.u, shot.v, (1e3, 1e4)))
    return sets


def _c_envelope_positivity(ws):
    """Unlike :func:`analysis.envelope_claim`, this also needs every tail
    times ``r^fast_rate`` positive on the fit window, and holds a pair to
    the lower band only where eps0 >= 0.1 there: a profile with a deep
    dip may not have reached its slow rate yet."""
    count = 0
    min_weighted = math.inf
    worst_upper = 0.0  # max fitted/fast ratio
    worst_lower = math.inf  # min fitted/slow ratio among monotone pairs
    all_ok = True
    for label, params, radii, u, v, window in _envelope_sets(ws):
        count += 1
        rep = classify(params)
        (lo_u, hi_u), (lo_v, hi_v) = analysis.envelope_bands(rep)
        fit_u = analysis.fit_tail(radii, u, window=window)
        fit_v = analysis.fit_tail(radii, v, window=window)
        wlo, whi = ((fit_u.window_lo, fit_u.window_hi) if window is None
                    else window)
        sel = (radii >= wlo) & (radii <= whi)
        for vals, weight in ((u, rep.fast_rate_u), (v, rep.fast_rate_v)):
            min_weighted = min(min_weighted,
                               float(np.min(vals[sel] * radii[sel] ** weight)))
        for fit, fast, hi in ((fit_u, rep.fast_rate_u, hi_u),
                              (fit_v, rep.fast_rate_v, hi_v)):
            worst_upper = max(worst_upper, fit.exponent / fast)
            if fit.exponent > hi:
                all_ok = False
        eps = min(analysis.monotonicity_criterion(u[sel]),
                  analysis.monotonicity_criterion(v[sel]))
        if eps >= 0.1:
            for fit, slow, lo in ((fit_u, rep.slow_rate_u, lo_u),
                                  (fit_v, rep.slow_rate_v, lo_v)):
                worst_lower = min(worst_lower, fit.exponent / slow)
                if fit.exponent < lo:
                    all_ok = False
    passed = all_ok and min_weighted > 0.0 and count >= 5
    return ("on >= 5 parameter sets: weighted tails positive, exponents "
            "<= fast+5%, monotone pairs also >= slow-5%",
            "%d sets; min weighted tail %.2e; max exp/fast %.3f; "
            "min exp/slow %.3f"
            % (count, min_weighted, worst_upper, worst_lower),
            "5% rel; <5min",
            passed)


def _c_blowup_recursion(ws):
    rng = ws.rng
    worst_closed = 0.0
    confirmed = [0, 0]  # draws below and above the fixed point
    for _ in range(1000):
        alpha = float(rng.uniform(0.2, 6.0))
        p = float(rng.uniform(0.2, 6.0))
        q_lo = max(0.2, 1.2 / p)
        q = float(rng.uniform(q_lo, q_lo + 5.0))
        theta = alpha * (q + 1.0) / (p * q - 1.0)
        for side, (shift, lo, hi) in enumerate(((0.0, 0.01, 0.95),
                                                (1.0, 0.05, 3.0))):
            b0 = theta * (shift + float(rng.uniform(lo, hi)))
            trace = analysis.run_recursion(b0, alpha, p, q)
            confirmed[side] += analysis.recursion_claim(trace, theta)[0]
            worst_closed = max(worst_closed, _closed_form_dev(trace, theta))
    passed = confirmed == [1000, 1000] and worst_closed <= 1e-12
    return ("b0 below fixed point: finite blow-up index; at/above: none; "
            "closed form matches",
            "blow-up %d/1000; none %d/1000; closed-form dev %.1e"
            % (*confirmed, worst_closed),
            "1e-12 rel; <1s",
            passed)


def _closed_form_dev(trace, theta):
    dev = 0.0
    pq = trace.p * trace.q
    for j, b in enumerate(trace.b_seq, start=1):
        closed = pq ** j * (trace.b0 - theta) + theta
        dev = max(dev, abs(b - closed) / max(abs(closed), theta))
    return dev


def _c_self_convergence(ws):
    ratios = []

    # criterion 2 measures: fitted slope (abs) and amplitude (rel)
    for n, alpha, beta, _oracle in POWER_LAW_SETS:
        s512, a512 = ws.power_law_measures(n, alpha, beta, 512)
        s1024, a1024 = ws.power_law_measures(n, alpha, beta, 1024)
        ratios.append(("slope(%d,%g,%g)" % (n, alpha, beta),
                       abs(s512 - s1024) / 0.5e-3))
        ratios.append(("amp(%d,%g,%g)" % (n, alpha, beta),
                       abs(a512 / a1024 - 1.0) / 0.5e-3))

    # criterion 3 measures: amplitude is closed-form (grid-free, delta
    # exactly 0); the interior residual must stay put
    p512 = ws.singular_pair(5, 3.0, 3.0, 512)
    p1024 = ws.singular_pair(5, 3.0, 3.0, 1024)
    r512 = max(p512.residual_u, p512.residual_v)
    r1024 = max(p1024.residual_u, p1024.residual_v)
    ratios.append(("singular-residual", abs(r512 - r1024) / 0.5e-3))

    # criterion 4 measures: relative amplitude deviations
    for key in ("pure", "log", "weakened"):
        f512 = ws.fast_report(key, 512)
        f1024 = ws.fast_report(key, 1024)
        delta = max(abs(f512.u_deviation - f1024.u_deviation),
                    abs(f512.v_deviation - f1024.v_deviation))
        ratios.append(("limits-%s" % key, delta / 0.025))

    worst_name, worst = max(ratios, key=lambda kv: kv[1])
    return ("doubling the grid (512 -> 1024) moves each criterion-2/3/4 "
            "measured quantity by less than half its tolerance",
            "max delta/halfTol %.2f (%s)" % (worst, worst_name),
            "ratio < 1; <5min",
            worst < 1.0)


CRITERIA = {
    "exponent-algebra": (
        "closed-form exponent identities on random parameters",
        1.0, _c_exponent_algebra),
    "power-law-apply": (
        "operator action on power laws against independent oracles",
        30.0, _c_power_law),
    "singular-amplitude": (
        "exact singular amplitude and interior residual",
        30.0, _c_singular_amplitude),
    "fast-limits": (
        "fast-decay amplitude limits in all three branches",
        120.0, _c_fast_limits),
    "slow-decay-shooting": (
        "bisected ground state decays at the slow rates",
        60.0, _c_slow_decay),
    "envelope-positivity": (
        "weighted tail positivity and the decay envelope",
        300.0, _c_envelope_positivity),
    "blowup-recursion": (
        "decay-exponent recursion blow-up threshold",
        1.0, _c_blowup_recursion),
    "self-convergence": (
        "grid-doubling stability of measured quantities",
        300.0, _c_self_convergence),
}


def run_one(key, workspace):
    """Run a single criterion on ``workspace``; returns its
    :class:`CriterionResult`."""
    if key not in CRITERIA:
        raise ValidationError(
            "unknown criterion %r; known: %s" % (key, sorted(CRITERIA)))
    description, budget, fn = CRITERIA[key]
    started = time.perf_counter()
    expected, measured, tolerance, passed = fn(workspace)
    elapsed = time.perf_counter() - started
    if elapsed > budget:
        passed = False
        measured += " [over budget %.0fs]" % budget
    return CriterionResult(key=key, description=description,
                           expected=expected, measured=measured,
                           tolerance=tolerance, passed=bool(passed),
                           seconds=elapsed)


def run_all(only=None, seed=0):
    """Run all criteria (or one, by key) sharing a workspace."""
    ws = Workspace(seed)
    keys = [only] if only is not None else list(CRITERIA)
    return [run_one(key, ws) for key in keys]
