"""Radial ODE shooting and the ground-state bisection."""

import gc
import math
import warnings

import numpy as np
import pytest
from scipy.integrate._ode import dop853

from rieszlab import shooting
from rieszlab.analysis import fit_tail
from rieszlab.errors import BracketError, IntegrationError, ValidationError
from rieszlab.exponents import Params
from rieszlab.shooting import (Outcome, ShotConfig, ShotRecord, Trajectory,
                               _sampled_shot, bisect_ground_state, shoot)

PARAMS = Params(5, 2.0, 3.0, 3.0)
#: Critical (1/(p+1) + 1/(q+1) = (n-2)/n); its ground state has xi ~ 1.128.
CRITICAL = Params(4, 2.0, 1.5, 9.0)


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

    def test_with_xi(self):
        cfg = ShotConfig(u0=2.0, r_end=10.0)
        cfg2 = cfg.with_xi(0.7)
        assert cfg2.xi == 0.7
        assert cfg2.u0 == 2.0
        assert cfg2.r_end == 10.0


class TestShoot:
    def test_second_order_only(self):
        with pytest.raises(ValidationError):
            shoot(Params(5, 1.5, 3.0, 3.0))

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

    def test_zero_source_stays_constant(self):
        traj = shoot(PARAMS, ShotConfig(r_end=1e3), source_strength=0.0)
        assert traj.outcome is Outcome.INCONCLUSIVE
        assert np.allclose(traj.u, 1.0, atol=1e-12)
        assert np.allclose(traj.v, 1.0, atol=1e-12)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_source_strength_validated(self, bad):
        with pytest.raises(ValidationError, match="source_strength"):
            shoot(PARAMS, ShotConfig(r_end=1e5), source_strength=bad)

    @pytest.mark.parametrize("huge", [1e30, 1e100, 1e308])
    def test_overflowing_source_strength(self, huge):
        # u0 - s xi^q r_start^2/(2n) is negative at the default r_start
        with pytest.raises(ValidationError, match="not positive"):
            shoot(PARAMS, ShotConfig(r_end=1e5), source_strength=huge)
        if huge < 1e200:
            return
        # near enough the origin the start stays positive, and no step of
        # the integrator resolves the source
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError) as info:
                shoot(PARAMS, ShotConfig(r_start=1e-200, r_end=1e5),
                      source_strength=huge)
        assert info.value.last_radius == 1e-200

    def test_source_strength_scales_the_start(self):
        # u = u0 - s xi^q r^2/(2n): s = 9e12 leaves 1 - 0.9 at r_start =
        # 1e-6 (n = 5), and u crosses just past it
        start = shooting._taylor_start(PARAMS, ShotConfig(), 9e12)
        assert start[0] == pytest.approx(0.1, rel=1e-12)
        assert start[1] == pytest.approx(-1.8e6, rel=1e-15)
        traj = shoot(PARAMS, ShotConfig(r_end=1e5), source_strength=9e12)
        assert traj.outcome is Outcome.U_CROSSED
        assert 1e-6 < traj.crossing_radius < 1.1e-6

    def test_failed_scan_falls_back(self, monkeypatch):
        # DOP853 refuses a safety factor of 1 or more, so the compiled scan
        # fails before its first step; the sampled path classifies the
        # shot as the scan does
        config = ShotConfig(xi=1.25, r_end=1e5)
        scanned = shoot(PARAMS, config)
        integrator = shooting._scan_integrator()._integrator
        monkeypatch.setattr(integrator, "safety", 2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = shoot(PARAMS, config)
        assert traj.outcome is Outcome.U_CROSSED
        assert traj.crossing_radius == pytest.approx(
            scanned.crossing_radius, rel=1e-6)

    def test_scan_step_budget(self, monkeypatch):
        integrator = shooting._scan_integrator()._integrator
        monkeypatch.setattr(integrator, "nsteps", 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match="steps") as info:
                shoot(PARAMS, ShotConfig(xi=0.9, r_end=1e5))
        assert 1e-6 < info.value.last_radius < 4.0


class TestCrossingScan:
    """The crossing scan against the sampled path it stands in for."""

    @staticmethod
    def _agree(params, xi, r_end):
        config = ShotConfig(xi=xi, r_end=r_end)
        scanned = shoot(params, config)
        sampled = _sampled_shot(params, config, 1.0)
        assert scanned.outcome is sampled.outcome
        return scanned, sampled

    @pytest.mark.parametrize("xi", [0.5, 2.0] + [
        1.0 + sign * 10.0 ** -k for k in range(1, 10) for sign in (-1, 1)])
    def test_ground_state_family(self, xi):
        scanned, sampled = self._agree(PARAMS, xi, 1e5)
        assert scanned.crossing_radius is not None
        if abs(xi - 1.0) >= 1e-6:
            assert scanned.crossing_radius == pytest.approx(
                sampled.crossing_radius, rel=1e-6)

    @pytest.mark.parametrize("xi", np.geomspace(0.1, 10.0, 21).tolist())
    def test_critical_family(self, xi):
        scanned, sampled = self._agree(CRITICAL, xi, 1e4)
        assert scanned.crossing_radius == pytest.approx(
            sampled.crossing_radius, rel=1e-6)

    def test_samples_integrated_once_on_first_read(self, monkeypatch):
        calls = []

        def counting(params, config, s):
            calls.append(config.xi)
            return _sampled_shot(params, config, s)

        monkeypatch.setattr(shooting, "_sampled_shot", counting)
        config = ShotConfig(xi=0.8, r_end=1e4)
        traj = shoot(PARAMS, config)
        assert traj.outcome is Outcome.V_CROSSED
        assert calls == []
        first = traj.samples
        assert calls == [0.8]
        assert traj.samples is first and traj.u.size and calls == [0.8]
        again = _sampled_shot(PARAMS, config, 1.0)
        assert np.array_equal(first, again.samples)

    def test_trajectory_needs_samples_or_sampler(self):
        with pytest.raises(ValidationError):
            Trajectory(outcome=Outcome.DECAYING)
        with pytest.raises(ValidationError):
            Trajectory(samples=np.zeros((1, 5)), sampler=lambda: None)

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

    def test_zero_iters_keeps_endpoints(self):
        calls = []

        def fake_shooter(params, config):
            calls.append(config.xi)
            outcome = (Outcome.V_CROSSED if config.xi < 1.0
                       else Outcome.U_CROSSED)
            samples = np.array([[1.0, 1.0, -0.1, 1.0, -0.1]])
            return Trajectory(samples=samples, outcome=outcome,
                              crossing_radius=1.0)

        res = bisect_ground_state(PARAMS, 0.5, 2.0, iters=0,
                                  shooter=fake_shooter)
        assert (res.lo, res.hi) == (0.5, 2.0)
        assert res.xi == 1.25

    def test_width_halves_each_iteration(self):
        def fake_shooter(params, config):
            outcome = (Outcome.V_CROSSED if config.xi < 1.0
                       else Outcome.U_CROSSED)
            samples = np.array([[1.0, 1.0, -0.1, 1.0, -0.1]])
            return Trajectory(samples=samples, outcome=outcome,
                              crossing_radius=1.0)

        res = bisect_ground_state(PARAMS, 0.5, 2.0, iters=10,
                                  shooter=fake_shooter)
        assert res.hi - res.lo == (2.0 - 0.5) * 2.0 ** -10
        assert res.lo < 1.0 <= res.hi
        # one record per shot: both endpoints, ten midpoints, the final xi
        assert [shot.xi for shot in res.shots][:3] == [0.5, 2.0, 1.25]
        assert len(res.shots) == 13 and res.shots[-1].xi == res.xi
        assert all(isinstance(shot, ShotRecord) and shot.rhs_evals == 0
                   and shot.seconds >= 0.0 for shot in res.shots)

    def test_canonical_bisection_shots(self):
        res = bisect_ground_state(PARAMS, 0.5, 2.0,
                                  config=ShotConfig(r_end=1e5), iters=60)
        assert abs(res.xi - 1.0) <= 1e-6
        assert len(res.shots) <= 40
        outcomes = [shot.outcome for shot in res.shots]
        assert outcomes[-1] is Outcome.DECAYING is res.trajectory.outcome
        assert set(outcomes[:-1]) == {Outcome.U_CROSSED, Outcome.V_CROSSED}
        assert all(shot.crossing_radius > 0.0 for shot in res.shots[:-1])
        assert res.shots[-1].crossing_radius is None
        assert all(shot.rhs_evals > 0 for shot in res.shots)

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
        again = shoot(PARAMS, config.with_xi(res.xi))
        assert np.array_equal(res.trajectory.samples, again.samples)
