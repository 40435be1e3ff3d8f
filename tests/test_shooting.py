"""Radial ODE shooting and the ground-state bisection."""

import numpy as np
import pytest

from rieszlab.analysis import fit_tail
from rieszlab.errors import BracketError, ValidationError
from rieszlab.exponents import Params
from rieszlab.shooting import (BisectionResult, Outcome, ShotConfig,
                               Trajectory, bisect_ground_state, shoot)

PARAMS = Params(5, 2.0, 3.0, 3.0)


class TestShotConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            ShotConfig(u0=0.0)
        with pytest.raises(ValidationError):
            ShotConfig(xi=-1.0)
        with pytest.raises(ValidationError):
            ShotConfig(r_start=1.0, r_end=0.5)
        with pytest.raises(ValidationError):
            ShotConfig(step_control=(0.0, 1e-14))

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


class TestBisection:
    def test_bracket_must_straddle(self):
        with pytest.raises(BracketError):
            bisect_ground_state(PARAMS, 0.5, 0.6,
                                config=ShotConfig(r_end=1e4))

    def test_validation(self):
        with pytest.raises(ValidationError):
            bisect_ground_state(PARAMS, 2.0, 0.5)
        with pytest.raises(ValidationError):
            bisect_ground_state(PARAMS, 0.5, 2.0, iters=-1)

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
