"""Radial ODE shooting and the ground-state bisection."""

import gc
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ode import dop853

from rieszlab import shooting
from rieszlab.analysis import fit_tail
from rieszlab.errors import BracketError, IntegrationError, ValidationError
from rieszlab.exponents import Params
from rieszlab.shooting import (Outcome, ShotConfig, ShotRecord, Trajectory,
                               _crossing_rate, bisect_ground_state, shoot)

PARAMS = Params(5, 2.0, 3.0, 3.0)
#: Critical (1/(p+1) + 1/(q+1) = (n-2)/n); its ground state has xi ~ 1.128.
CRITICAL = Params(4, 2.0, 1.5, 9.0)
#: ``(n, p, q)`` at alpha = 2 with th1 != th2, and the crossing rate of
#: each by the bracketing root finder that the closed form replaced.
CROSSING_RATE_SETS = ((5, 2.0, 5.0, 2.3853066003320764),
                      (6, 1.5, 4.0, 3.1010828770081575),
                      (7, 1.2, 9.0, 3.114619051369962),
                      (5, 1.5, 2.2, 3.0864971572755997),
                      (4, 20.0, 30.0, 1.321224554924266))
#: The canonical search, (5,2,3,3) from (0.5, 2) with r_end 1e5: each
#: shot's ``xi.hex()``, outcome initial, ``crossing_radius.hex()`` and
#: ``rhs_evals``.  Like the solver's ``ANDERSON_512`` these pins are
#: host-specific: another libm, BLAS or numpy build may move last bits.
CANONICAL_SHOTS = (
    ("0x1.0000000000000p-1", "V", "0x1.242ef13e51a94p+1", 871),
    ("0x1.0000000000000p+1", "U", "0x1.242ef13e51a2ep+0", 826),
    ("0x1.7c51fe0805844p-1", "V", "0x1.87d1ea598cd93p+1", 814),
    ("0x1.b4dae09836dd6p-1", "V", "0x1.dc42f2a94ce9ap+1", 827),
    ("0x1.e99f92f7a8cbbp-1", "V", "0x1.6464db1c1a601p+2", 876),
    ("0x1.0224ca9ec6ae3p+0", "U", "0x1.410d6b3707d51p+3", 959),
    ("0x1.feff9946cc9c3p-1", "V", "0x1.2a8c43faca684p+4", 1101),
    ("0x1.fffc51549de15p-1", "V", "0x1.e293156d4ae65p+6", 1390),
    ("0x1.ffff5cdcef2eap-1", "V", "0x1.ece5bcf99e404p+7", 1474),
    ("0x1.0000031fa9b0ep+0", "U", "0x1.ece4f3e33565bp+9", 1667),
    ("0x1.00000013f63cdp+0", "U", "0x1.238f3bc09dc6dp+12", 1895),
    ("0x1.fffffffff1a12p-1", "V", "0x1.22885e15c197cp+16", 2278),
    ("0x1.fffffffffff89p-1", "D", None, 2267))


def zero_events():
    """Terminal ``solve_ivp`` events at the zeros of ``u`` and ``v``."""
    events = (lambda r, y: y[0]), (lambda r, y: y[2])
    for event in events:
        event.terminal, event.direction = True, -1.0
    return events


def sampled_shot(params, config, radii=None, rtol=1e-10, atol=1e-14):
    """Independent oracle: one ``solve_ivp`` DOP853 run with zero-crossing
    events, recorded at ``radii`` (default the ``SAMPLE_COUNT`` log-spaced
    radii of ``config``) and run to the last of them.  Returns
    ``(samples, outcome, crossing_radius)``; both are None for a run
    that crosses nowhere."""
    if radii is None:
        radii = np.geomspace(config.r_start, config.r_end,
                             shooting.SAMPLE_COUNT)
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(
            shooting._rhs([params.n, params.p, params.q]),
            (config.r_start, radii[-1]),
            shooting._taylor_start(params, config), method="DOP853",
            t_eval=radii, events=zero_events(), rtol=rtol, atol=atol)
    assert sol.status != -1, sol.message
    samples = np.column_stack((sol.t, sol.y.T))
    crossings = [(float(t[0]), outcome) for t, outcome in zip(
        sol.t_events, (Outcome.U_CROSSED, Outcome.V_CROSSED)) if t.size]
    radius, outcome = min(crossings, default=(None, None))
    return samples, outcome, radius


def fake_shot(outcome, crossing_radius=None):
    """A classified shot without integration, for fake shooters."""
    return Trajectory(outcome, crossing_radius, 0,
                      lambda: np.array([[1.0, 1.0, -0.1, 1.0, -0.1]]))


class TestShotConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ShotConfig(u0=0.0)
        with pytest.raises(ValidationError):
            ShotConfig(xi=-1.0)
        with pytest.raises(ValidationError):
            ShotConfig(r_start=1.0, r_end=0.5)
        for bad in ({"u0": np.inf}, {"xi": np.inf}, {"r_end": np.inf}):
            with pytest.raises(ValidationError):
                ShotConfig(**bad)

    @pytest.mark.parametrize("name", ["u0", "xi", "r_start", "r_end"])
    @pytest.mark.parametrize("bad", ["1", True, None])
    def test_real_numbers_only(self, name, bad):
        # a string raised a raw TypeError, and True ran as 1
        with pytest.raises(ValidationError, match=name):
            ShotConfig(**{name: bad})


class TestShoot:
    def test_second_order_only(self):
        with pytest.raises(ValidationError):
            shoot(Params(5, 1.5, 3.0, 3.0))

    def test_refuses_other_classes(self):
        # the string, None and the tuple raised a raw AttributeError; a
        # config of 0 ran on the default config
        for args in ((PARAMS, "x"), (PARAMS, 0), (None,), ((5, 2, 3, 3),)):
            with pytest.raises(ValidationError, match="must be a"):
                shoot(*args)

    def test_overflowing_origin_profile(self):
        # xi^q overflows a double; so does xi^q r_start^2 at a far start
        with pytest.raises(ValidationError, match="overflows"):
            shoot(PARAMS, ShotConfig(xi=1e300))
        with pytest.raises(ValidationError, match="overflows"):
            shoot(PARAMS, ShotConfig(xi=1e100, r_start=1e10, r_end=1e11))

    def test_non_positive_origin_profile(self):
        # u0 - xi^q r^2/(2n) = 1e-3 - 0.1 at r_start = 1: refused, not
        # classified from the log of a negative u
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="r_start=1.0"):
                shoot(PARAMS, ShotConfig(u0=1e-3, xi=10.0, r_start=1.0))

    def test_small_xi_crosses_v(self):
        traj = shoot(PARAMS, ShotConfig(xi=0.8, r_end=1e4))
        assert traj.outcome is Outcome.V_CROSSED
        assert traj.crossing_radius is not None
        assert 1.0 < traj.crossing_radius < 100.0

    def test_large_xi_crosses_u(self):
        traj = shoot(PARAMS, ShotConfig(xi=1.25, r_end=1e4))
        assert traj.outcome is Outcome.U_CROSSED
        assert traj.crossing_radius is not None

    def test_profiles_decrease_while_positive(self):
        traj = shoot(PARAMS, ShotConfig(xi=0.8, r_end=1e4))
        s = traj.samples
        both_positive = (s[:, 1] > 0.0) & (s[:, 3] > 0.0)
        assert np.all(s[both_positive, 2] <= 0.0)
        assert np.all(s[both_positive, 4] <= 0.0)

    def test_series_handoff_insensitive_to_start(self):
        # halving the handoff radius must not move the solution
        t1 = shoot(PARAMS, ShotConfig(xi=0.8, r_start=1e-6, r_end=1.0))
        t2 = shoot(PARAMS, ShotConfig(xi=0.8, r_start=5e-7, r_end=1.0))
        assert t1.u[-1] == pytest.approx(t2.u[-1], rel=1e-8)
        assert t1.v[-1] == pytest.approx(t2.v[-1], rel=1e-8)

    def test_origin_values(self):
        traj = shoot(PARAMS, ShotConfig(u0=2.0, xi=1.5, r_end=1.0))
        assert traj.u[0] == pytest.approx(2.0, rel=1e-6)
        assert traj.v[0] == pytest.approx(1.5, rel=1e-6)

    def test_scaling_reduction(self):
        # (u, v) -> (lam^t1 u(lam r), lam^t2 v(lam r)) maps solutions to
        # solutions; for these parameters t1 = t2 = 1
        lam = 2.0
        t1 = shoot(PARAMS, ShotConfig(u0=1.0, xi=1.0, r_end=1e2))
        t2 = shoot(PARAMS, ShotConfig(u0=lam, xi=lam, r_end=1e2))
        radii = t2.radii
        mask = (radii > 1e-4) & (radii < 40.0)
        interp = np.exp(np.interp(np.log(lam * radii[mask]),
                                  np.log(t1.radii), np.log(t1.u)))
        dev = np.max(np.abs(t2.u[mask] / (lam * interp) - 1.0))
        assert dev <= 1e-5

    def test_source_strength_scales_the_start(self):
        # the system has unit coefficients; the source xi^q of u is set by
        # the origin value: u = u0 - xi^q r^2/(2n) with xi^3 = 9e12 leaves
        # 1 - 0.9 at r_start = 1e-6 (n = 5), and u crosses just past it
        config = ShotConfig(xi=9e12 ** (1.0 / 3.0), r_end=1e5)
        start = shooting._taylor_start(PARAMS, config)
        assert start[0] == pytest.approx(0.1, rel=1e-12)
        # xi^3 carries the rounding of the cube root, a few ulps
        assert start[1] == pytest.approx(-1.8e6, rel=1e-14, abs=0.0)
        traj = shoot(PARAMS, config)
        assert traj.outcome is Outcome.U_CROSSED
        assert 1e-6 < traj.crossing_radius < 1.1e-6

    def test_failed_scan_raises(self, monkeypatch):
        # DOP853 refuses a safety factor of 1 or more, so the compiled scan
        # fails before its first step; no second integration stands in
        integrator = shooting._scan_integrator()._integrator
        monkeypatch.setattr(integrator, "safety", 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="scan failed") \
                    as info:
                shoot(PARAMS, ShotConfig(xi=1.25, r_end=1e5))
        assert info.value.last_radius == 1e-6

    def test_refinement_short_of_zero_keeps_the_step_end(self, monkeypatch):
        # a tableau that keeps u and v positive over the whole crossing
        # step: Newton runs to the step's end and keeps the scan's step
        # end, where v is already not positive
        config = ShotConfig(xi=0.8, r_end=1e4)
        refined = shoot(PARAMS, config)
        step = shooting._scalar_step

        def short_of_zero(coefficients, r0, y0, h):
            # u and v raised by 1, far above their size near the crossing
            return step(coefficients, r0, y0, h) + [1.0, 0.0, 1.0, 0.0]

        monkeypatch.setattr(shooting, "_scalar_step", short_of_zero)
        traj = shoot(PARAMS, config)
        assert traj.outcome is Outcome.V_CROSSED
        assert traj.crossing_radius == shooting._scan_integrator().t
        assert (refined.crossing_radius < traj.crossing_radius
                < 1.1 * refined.crossing_radius)
        assert traj.radii[-1] <= traj.crossing_radius

    def test_scan_step_budget(self, monkeypatch):
        integrator = shooting._scan_integrator()._integrator
        monkeypatch.setattr(integrator, "nsteps", 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="steps") as info:
                shoot(PARAMS, ShotConfig(xi=0.9, r_end=1e5))
        assert 1e-6 < info.value.last_radius < 4.0


class TestScalarStep:
    """The refinement's Python-float step against the vectorised one."""

    def test_equals_the_vectorised_step(self):
        # float.hex spells every NaN "nan": numpy's 0-d power turns a
        # negative NaN positive, CPython's keeps it, and no caller reads
        # the sign of a NaN
        rng = np.random.default_rng(34)
        sets = [(PARAMS.n, PARAMS.p, PARAMS.q), (CRITICAL.n, CRITICAL.p,
                                                 CRITICAL.q)]
        sets += [(n, p, q) for n, p, q, _ in CROSSING_RATE_SETS]
        seen = set()
        for index in range(2000):
            coefficients = list(sets[index % len(sets)])
            r0 = 10.0 ** rng.uniform(-6.0, 5.0)
            h = r0 * 10.0 ** rng.uniform(-6.0, 1.0)
            y0 = (rng.standard_normal(4)
                  * 10.0 ** rng.uniform(-3.0, 1.0, 4)).tolist()
            if index % 5 == 1:
                y0[rng.integers(4)] = math.nan
            elif index % 5 == 2:
                # u^p or v^q overflows to inf at the first stage
                y0[2 * rng.integers(2)] = 1e300
            with np.errstate(over="ignore", invalid="ignore"):
                want = shooting._step(coefficients, r0, y0, h)
            got = shooting._scalar_step(coefficients, r0, y0, h)
            assert [x.hex() for x in got.tolist()] \
                == [x.hex() for x in want.tolist()]
            seen.add((min(y0[0], y0[2]) < 0.0, np.isnan(want).any(),
                      np.isinf(want).any()))
        # clamped, NaN and infinite states all occurred
        assert {(True, False, False), (False, True, False),
                (False, False, True)} <= seen


class TestCrossingScan:
    """The crossing scan against an independent whole-range integration."""

    @staticmethod
    def _agree(params, xi, r_end):
        config = ShotConfig(xi=xi, r_end=r_end)
        scanned = shoot(params, config)
        _, outcome, radius = sampled_shot(params, config)
        assert scanned.outcome is outcome
        return scanned, radius

    @pytest.mark.parametrize("xi", [0.5, 2.0] + [
        1.0 + sign * 10.0 ** -k for k in range(1, 10) for sign in (-1, 1)])
    def test_ground_state_family(self, xi):
        scanned, radius = self._agree(PARAMS, xi, 1e5)
        assert scanned.crossing_radius is not None
        if abs(xi - 1.0) >= 1e-6:
            assert scanned.crossing_radius == pytest.approx(radius, rel=1e-6)

    @pytest.mark.parametrize("xi", np.geomspace(0.1, 10.0, 21).tolist())
    def test_critical_family(self, xi):
        scanned, radius = self._agree(CRITICAL, xi, 1e4)
        assert scanned.crossing_radius == pytest.approx(radius, rel=1e-6)

    @pytest.mark.parametrize("params, xi", [
        (PARAMS, xi) for xi in (0.5, 0.8, 1.25, 2.0)] + [
        (CRITICAL, xi) for xi in np.geomspace(0.1, 10.0, 21).tolist()])
    def test_refinement_matches_events_on_the_last_step(self, params, xi):
        # the Newton root on the scan's last step against a solve_ivp
        # event run over that same step, from the same step end
        config = ShotConfig(xi=xi, r_end=1e4)
        coefficients = [params.n, params.p, params.q]
        (radius, outcome), ends, _ = shooting._scan(
            coefficients, shooting._taylor_start(params, config), config)
        r0, *y0 = ends[-1]
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve_ivp(shooting._rhs(coefficients),
                            (r0, shooting._scan_integrator().t), y0,
                            method="DOP853", events=zero_events(),
                            rtol=1e-10, atol=1e-14)
        crossings = [(float(t[0]), found) for t, found in zip(
            sol.t_events, (Outcome.U_CROSSED, Outcome.V_CROSSED)) if t.size]
        first, found = min(crossings)
        assert found is outcome and abs(first / radius - 1.0) <= 1e-11

    def test_samples_built_once_on_first_read(self, monkeypatch):
        calls = []
        build = shooting._sample

        def counting(coefficients, ends, config, top):
            calls.append(config.xi)
            return build(coefficients, ends, config, top)

        monkeypatch.setattr(shooting, "_sample", counting)
        config = ShotConfig(xi=0.8, r_end=1e4)
        traj = shoot(PARAMS, config)
        assert traj.outcome is Outcome.V_CROSSED
        assert calls == []
        first = traj.samples
        assert calls == [0.8]
        assert traj.samples is first and traj.u.size and calls == [0.8]
        again = shoot(PARAMS, config)
        assert np.array_equal(first, again.samples)
        # a shot that reaches r_end is sampled at once, to classify it
        decaying = shoot(PARAMS, ShotConfig(r_end=1e3))
        assert decaying.outcome is Outcome.DECAYING
        assert calls == [0.8, 0.8, 1.0]

    def test_one_integrator_for_many_shots(self):
        shoot(PARAMS, ShotConfig(xi=0.5, r_end=1e3))
        gc.collect()
        before = len(gc.get_objects())
        for xi in np.linspace(0.5, 2.0, 50):
            shoot(PARAMS, ShotConfig(xi=float(xi), r_end=1e3))
        gc.collect()
        alive = [obj for obj in gc.get_objects() if isinstance(obj, dop853)]
        assert len(alive) <= 1
        # nothing a shot hands the compiled wrapper may pile up either
        assert len(gc.get_objects()) - before < 25


class TestSamples:
    """Samples taken from the scan's step ends, against a tight
    whole-range integration."""

    @pytest.mark.parametrize("xi", [1.0, 0.8, 1.25, 1.0 - 1e-6])
    def test_against_tight_reference(self, xi):
        config = ShotConfig(xi=xi, r_end=1e5)
        traj = shoot(PARAMS, config)
        radii = np.geomspace(config.r_start, config.r_end,
                             shooting.SAMPLE_COUNT)
        if xi == 1.0:
            assert traj.outcome is Outcome.DECAYING
            assert np.array_equal(traj.radii, radii)
        else:
            assert traj.outcome in (Outcome.U_CROSSED, Outcome.V_CROSSED)
            assert np.array_equal(traj.radii,
                                  radii[radii <= traj.crossing_radius])
        near = traj.samples[traj.radii <= 1e3]
        reference, _, _ = sampled_shot(PARAMS, config, near[:, 0],
                                       rtol=1e-13, atol=1e-16)
        assert np.array_equal(reference[:, 0], near[:, 0])
        assert np.max(np.abs(near[:, 1:] / reference[:, 1:] - 1.0)) <= 1e-7

    def test_decaying_shot_integrated_once(self):
        config = ShotConfig(r_end=1e5)
        traj = shoot(PARAMS, config)
        assert traj.outcome is Outcome.DECAYING
        coefficients = [PARAMS.n, PARAMS.p, PARAMS.q]
        _, _, scan_evals = shooting._scan(
            coefficients, shooting._taylor_start(PARAMS, config), config)
        # the whole-range second integration took 5074 on top of the scan
        assert scan_evals < traj.rhs_evals < 1.2 * scan_evals


class TestCrossingRate:
    def test_canonical_value(self):
        # theta1 = theta2 = 1, n - 2 = 3: (k - 1)(k + 2) = 6
        assert abs(_crossing_rate(PARAMS) - (math.sqrt(33.0) - 1.0) / 2.0) \
            <= 1e-14

    # th1 != th2, with slow rates from near 0 to near n - 2; each pinned
    # value is the bracketing root finder's that the closed form replaced
    @pytest.mark.parametrize("n, p, q, pinned", CROSSING_RATE_SETS,
        ids=["5,2,2,5", "6,2,1.5,4", "7,2,1.2,9", "5,2,1.5,2.2", "4,2,20,30"])
    def test_largest_root_of_the_quartic(self, n, p, q, pinned):
        params = Params(n, 2.0, p, q)
        m = params.n - 2.0
        th1 = 2.0 * (params.q + 1.0) / (params.p * params.q - 1.0)
        th2 = 2.0 * (params.p + 1.0) / (params.p * params.q - 1.0)
        assert th1 != th2
        target = params.p * params.q * th1 * (m - th1) * th2 * (m - th2)
        quartic = np.polymul(np.polymul([-1.0, th1], [1.0, m - th1]),
                             np.polymul([-1.0, th2], [1.0, m - th2]))
        quartic[-1] -= target
        kappa = _crossing_rate(params)
        assert kappa > max(th1, th2)
        assert abs(np.polyval(quartic, kappa)) <= 1e-12 * target
        roots = np.roots(quartic)
        real = roots[np.abs(roots.imag) < 1e-9].real
        assert kappa == pytest.approx(real.max(), rel=1e-12)
        assert abs(kappa / pinned - 1.0) <= 1e-14


class TestBisection:
    def test_bracket_must_straddle(self):
        with pytest.raises(BracketError):
            bisect_ground_state(PARAMS, 0.5, 0.6,
                                config=ShotConfig(r_end=1e4))

    def test_validation(self):
        with pytest.raises(ValidationError):
            bisect_ground_state(PARAMS, 2.0, 0.5)
        # int() of NaN and inf raised a raw ValueError and OverflowError
        for iters in (-1, math.nan, math.inf):
            with pytest.raises(ValidationError):
                bisect_ground_state(PARAMS, 0.5, 2.0, iters=iters)
        # a string endpoint raised a raw TypeError
        for lo, hi in (("0.5", 2.0), (0.5, "2"), (True, 2.0),
                       (0.5, math.inf), (math.nan, 2.0)):
            with pytest.raises(ValidationError, match="finite real number"):
                bisect_ground_state(PARAMS, lo, hi)
        # a raw TypeError from dataclasses.replace, and an AttributeError
        with pytest.raises(ValidationError, match="config must be a"):
            bisect_ground_state(PARAMS, 0.5, 2.0, config="x")
        with pytest.raises(ValidationError, match="params must be a"):
            bisect_ground_state((5, 2, 3, 3), 0.5, 2.0)

    def test_zero_iters_keeps_endpoints(self):
        calls = []

        def fake_shooter(params, config):
            calls.append(config.xi)
            return fake_shot(Outcome.V_CROSSED if config.xi < 1.0
                             else Outcome.U_CROSSED, 1.0)

        res = bisect_ground_state(PARAMS, 0.5, 2.0, iters=0,
                                  shooter=fake_shooter)
        assert (res.lo, res.hi) == (0.5, 2.0)
        assert res.xi == 1.25

    def test_bracket_contract(self):
        # no usable crossing law (R constant) and the root at 0.7, off
        # the bracket's thirds, so some steps keep the same endpoint twice
        def fake_shooter(params, config):
            return fake_shot(Outcome.V_CROSSED if config.xi < 0.7
                             else Outcome.U_CROSSED, 1.0)

        res = bisect_ground_state(PARAMS, 0.5, 2.0, iters=10,
                                  shooter=fake_shooter)
        outcome_at = {shot.xi: shot.outcome for shot in res.shots}
        assert res.lo < 0.7 <= res.hi
        assert outcome_at[res.lo] is Outcome.V_CROSSED
        assert outcome_at[res.hi] is Outcome.U_CROSSED
        # one record per shot: both endpoints, the budget of ten, the final
        # midpoint; every inner shot lies inside the bracket it split
        xis = [shot.xi for shot in res.shots]
        assert xis[:3] == [0.5, 2.0, 1.25]
        assert len(res.shots) == 10 + 3 and len(set(xis)) == len(xis)
        assert res.xi == xis[-1] == 0.5 * (res.lo + res.hi)
        assert all(0.5 < xi < 2.0 for xi in xis[2:])
        assert all(isinstance(shot, ShotRecord) and shot.rhs_evals == 0
                   and shot.seconds >= 0.0 for shot in res.shots)

    def test_secant_follows_the_crossing_law(self):
        # R = (a |xi - xi*|)^(-1/kappa), a different on the two sides as
        # for real shots; past r_end = 1e5 a shot decays
        kappa = _crossing_rate(PARAMS)
        root = 1.1

        def fake_shooter(params, config):
            scale = 1.0 if config.xi < root else 4.0
            gap = scale * abs(config.xi - root)
            if gap <= 1e5 ** -kappa:
                return fake_shot(Outcome.DECAYING)
            return fake_shot(Outcome.V_CROSSED if config.xi < root
                             else Outcome.U_CROSSED, gap ** (-1.0 / kappa))

        res = bisect_ground_state(PARAMS, 0.5, 2.0, iters=60,
                                  shooter=fake_shooter)
        assert res.trajectory.outcome is Outcome.DECAYING
        assert abs(res.xi - root) < 1e-12
        assert res.lo == res.hi == res.xi == res.shots[-1].xi
        # bisection takes about 40 shots to get there
        assert len(res.shots) <= 20

    def test_midpoints_without_crossing_rate(self):
        # pq near 1 puts the slow rates past n - 2: no kappa, so every
        # step halves the bracket
        params = Params(5, 2.0, 1.2, 1.5)
        assert _crossing_rate(params) is None

        def fake_shooter(params, config):
            return fake_shot(Outcome.V_CROSSED if config.xi < 0.7
                             else Outcome.U_CROSSED,
                             1.0 / abs(config.xi - 0.7))

        res = bisect_ground_state(params, 0.5, 2.0, iters=10,
                                  shooter=fake_shooter)
        assert res.hi - res.lo == (2.0 - 0.5) * 2.0 ** -10
        assert res.lo < 0.7 <= res.hi

    def test_inconclusive_shot_ends_the_search(self):
        def fake_shooter(params, config):
            if abs(config.xi - 1.0) < 0.3:
                return fake_shot(Outcome.INCONCLUSIVE)
            return fake_shot(Outcome.V_CROSSED if config.xi < 1.0
                             else Outcome.U_CROSSED, 1.0)

        res = bisect_ground_state(PARAMS, 0.5, 2.0, iters=10,
                                  shooter=fake_shooter)
        # it has no crossing radius to sign: returned, not counted as hi
        assert res.trajectory.outcome is Outcome.INCONCLUSIVE
        assert res.lo == res.hi == res.xi == 1.25
        assert [shot.xi for shot in res.shots] == [0.5, 2.0, 1.25]
        assert res.shots[-1].outcome is Outcome.INCONCLUSIVE

    def test_canonical_bisection_shots(self):
        res = bisect_ground_state(PARAMS, 0.5, 2.0,
                                  config=ShotConfig(r_end=1e5), iters=60)
        assert abs(res.xi - 1.0) <= 1e-6
        assert len(res.shots) <= 20
        outcomes = [shot.outcome for shot in res.shots]
        assert outcomes[-1] is Outcome.DECAYING is res.trajectory.outcome
        assert set(outcomes[:-1]) == {Outcome.U_CROSSED, Outcome.V_CROSSED}
        assert all(shot.crossing_radius > 0.0 for shot in res.shots[:-1])
        assert res.shots[-1].crossing_radius is None
        assert all(shot.rhs_evals > 0 for shot in res.shots)

    def test_canonical_search_bit_for_bit(self):
        res = bisect_ground_state(PARAMS, 0.5, 2.0,
                                  config=ShotConfig(r_end=1e5), iters=60)
        assert tuple(
            (shot.xi.hex(), shot.outcome.name[0],
             None if shot.crossing_radius is None
             else shot.crossing_radius.hex(), shot.rhs_evals)
            for shot in res.shots) == CANONICAL_SHOTS
        assert sum(shot.rhs_evals for shot in res.shots) == 17245
        assert res.xi.hex() == "0x1.fffffffffff89p-1"

    def test_shot_count_steady_across_brackets(self):
        # brackets (1 - c/2, 1 + c) a few per cent apart: the crossing
        # radii swing about the power law, and halving the kept value
        # (Illinois) took 12 to 14 shots here
        counts = []
        for c in 10.0 ** np.linspace(-0.04, 0.04, 9):
            res = bisect_ground_state(PARAMS, 1.0 - 0.5 * c, 1.0 + c,
                                      config=ShotConfig(r_end=1e5), iters=60)
            assert res.trajectory.outcome is Outcome.DECAYING
            counts.append(len(res.shots))
        assert max(counts) - min(counts) <= 1
        assert max(counts) <= 13

    def test_ground_state_slopes(self):
        res = bisect_ground_state(PARAMS, 0.5, 2.0,
                                  config=ShotConfig(r_end=1e4), iters=48)
        assert abs(res.xi - 1.0) < 1e-6
        traj = res.trajectory
        fit_u = fit_tail(traj.radii, traj.u, window=(1e2, 1e3), log_power=0)
        fit_v = fit_tail(traj.radii, traj.v, window=(1e2, 1e3), log_power=0)
        # the separatrix decays at the slow rates (1, 1)
        assert fit_u.exponent == pytest.approx(1.0, rel=0.05)
        assert fit_v.exponent == pytest.approx(1.0, rel=0.05)

    def test_decaying_midpoint_is_not_reshot(self):
        config = ShotConfig(r_end=1e3)
        shots = []

        def counting_shooter(params, cfg):
            shots.append(cfg.xi)
            return shoot(params, cfg)

        res = bisect_ground_state(PARAMS, 0.5, 2.0, config=config, iters=48,
                                  shooter=counting_shooter)
        assert len(shots) == len(set(shots))
        # the bisection stopped on a decaying midpoint, whose shot is kept
        assert res.trajectory.outcome is Outcome.DECAYING
        assert res.lo == res.hi == res.xi == shots[-1]
        again = shoot(PARAMS, replace(config, xi=res.xi))
        assert np.array_equal(res.trajectory.samples, again.samples)
