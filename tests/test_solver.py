"""Fixed-point solver and the singular power-law branch."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from rieszlab import solver
from rieszlab.errors import (NonConvergenceError, PreconditionError,
                             ValidationError)
from rieszlab.exponents import Params, classify
from rieszlab.grid import make_grid
from rieszlab.riesz import assemble, power_law_constant
from rieszlab.shooting import ShotConfig, bisect_ground_state
from rieszlab.solver import (Branch, SolveConfig, default_init,
                             singular_amplitudes, singular_solution,
                             solve_picard)

#: The canonical Picard sets ``(n, alpha, p, q), tol``: pure,
#: log-corrected and weakened fast decay of ``v``.
CANONICAL_SETS = (((4, 2.0, 3.0, 3.0), 1e-6),
                  ((4, 2.0, 2.0, 5.0), 1e-6),
                  ((4, 2.0, 1.5, 9.0), 1e-5))
#: Plain damped Picard (:func:`plain_step`, damping 0.5) on the N=512
#: grid: sweeps and ``float.hex`` of the residuals.
PLAIN_512 = ((49, "0x1.9baa0f0000000p-22", "0x1.9baa0f0000000p-22"),
             (48, "0x1.54680b1e00000p-22", "0x1.2a0c968800000p-22"),
             (37, "0x1.136a96e150000p-17", "0x1.741292a700000p-19"))
#: Anderson sweeps (damping 0.5) of the same solves; their sum is the
#: bench's picard-fast-limits ``engine_steps``.
ANDERSON_512 = (16, 19, 15)


def plain_step(history, x, f, mixing):
    """Plain damped Picard in place of ``solver._anderson_step``: the
    fresh sweep ``e^(x+f)`` mixed linearly into the iterate ``e^x``,
    each half renormalized to 1 at its first node."""
    fields = (1.0 - mixing) * np.exp(x) + mixing * np.exp(x + f)
    u, v = np.split(fields, 2)
    return np.concatenate((u / u[0], v / v[0]))


@pytest.fixture(scope="module")
def grid512():
    grid = make_grid(1e-4, 1e4, 512, 4)
    return grid, assemble(grid, 4, 2.0)


def _solve(grid512, params, tol, damping=0.5, **kwargs):
    grid, op = grid512
    return solve_picard(Params(*params), grid,
                        SolveConfig(tol=tol, damping=damping),
                        operator=op, **kwargs)


def _bubble_deviation(pair):
    # the critical 4d pair with p = q = 3 is an explicit rational
    # profile; with u(rMin) = 1 its width parameter is 2*sqrt(2) up
    # to O(rMin^2)
    grid = pair.u.grid
    lam = 2.0 * math.sqrt(2.0)
    exact = 2.0 * math.sqrt(2.0) * lam / (lam ** 2 + grid.nodes ** 2)
    sl = grid.interior_slice()
    return np.max(np.abs(pair.u.values[sl] / exact[sl] - 1.0))


@pytest.fixture(scope="module")
def bubble_pair():
    grid = make_grid(1e-4, 1e4, 256, 4)
    return solve_picard(Params(4, 2.0, 3.0, 3.0), grid=grid)


class TestSolveConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SolveConfig(damping=0.0)
        with pytest.raises(ValidationError):
            SolveConfig(damping=1.5)
        with pytest.raises(ValidationError):
            SolveConfig(max_iters=-1)
        with pytest.raises(ValidationError):
            SolveConfig(tol=0.0)
        # bool passes the numbers.Real check: True would run at 1
        with pytest.raises(ValidationError):
            SolveConfig(damping=True)
        with pytest.raises(ValidationError):
            SolveConfig(tol=True)

    def test_entry_points_refuse_other_classes(self):
        # each raised a raw AttributeError
        with pytest.raises(ValidationError, match="config must be a"):
            solve_picard(Params(4, 2.0, 3.0, 3.0), config="x")
        for params in ("x", None, (4, 2, 3, 3)):
            for solve in (solve_picard, singular_solution):
                with pytest.raises(ValidationError, match="params must be a"):
                    solve(params)

    def test_three_fields(self):
        # origin normalization is how the iteration works, not an option
        assert [f.name for f in dataclasses.fields(SolveConfig)] == [
            "damping", "max_iters", "tol"]


class TestPicard:
    def test_matches_closed_form_bubble(self, bubble_pair):
        assert _bubble_deviation(bubble_pair) <= 5e-3
        # symmetric data give identical components
        assert np.allclose(bubble_pair.u.values, bubble_pair.v.values,
                           rtol=1e-9)

    def test_presentation_normalization(self, bubble_pair):
        assert bubble_pair.u.values[0] == 1.0

    def test_residuals_below_tolerance(self, bubble_pair):
        assert bubble_pair.branch is Branch.PICARD
        assert bubble_pair.residual_u <= 1e-6
        assert bubble_pair.residual_v <= 1e-6

    def test_tail_exponent_near_fast_rate(self, bubble_pair):
        assert bubble_pair.u.tail_exponent == pytest.approx(2.0, rel=1e-3)

    def test_monitor_called_each_sweep(self):
        grid = make_grid(1e-4, 1e4, 128, 4)
        calls = []

        def monitor(iteration, delta, spread_u, spread_v):
            calls.append((iteration, delta, spread_u, spread_v))

        with pytest.raises(NonConvergenceError):
            solve_picard(Params(4, 2.0, 3.0, 3.0), grid=grid,
                         config=SolveConfig(max_iters=5), monitor=monitor)
        assert len(calls) == 5
        assert [c[0] for c in calls] == [1, 2, 3, 4, 5]
        # a converged solve reports every sweep, the final one included
        calls.clear()
        pair = solve_picard(Params(4, 2.0, 3.0, 3.0), grid=grid,
                            config=SolveConfig(tol=5e-6), monitor=monitor)
        assert [c[0] for c in calls] == list(range(1, pair.iterations + 1))
        assert calls[-1][1] < 5e-6 and max(calls[-1][2:]) < 0.9 * 5e-6

    def test_zero_budget_fails_immediately(self):
        grid = make_grid(1e-4, 1e4, 128, 4)
        with pytest.raises(NonConvergenceError) as err:
            solve_picard(Params(4, 2.0, 3.0, 3.0), grid=grid,
                         config=SolveConfig(max_iters=0))
        assert err.value.iterations == 0
        assert "did not reach tol=1e-06 within 0 sweeps" in str(err.value)

    def test_stop_message_prints_the_measured_pair(self, monkeypatch):
        # each stop names what it measured last, and the attributes carry
        # the pair the message prints: the last sweep's spreads for the
        # budget and the stagnation, the presented pair's re-measure when
        # that is above tol (plain Picard on 64 nodes: its last spread is
        # below 0.9 tol, the re-measure 1.21e-5)
        stops = (((4, 2.0, 3.0, 3.0), 128, SolveConfig(max_iters=5), False,
                  "did not reach tol=1e-06 within 5 sweeps",
                  "interior spread"),
                 ((4, 2.0, 1.5, 9.0), 512, SolveConfig(tol=1e-8), False,
                  "stagnated: the interior spread made no new low below",
                  "interior spread"),
                 ((4, 2.0, 1.5, 9.0), 64, SolveConfig(tol=1e-5), True,
                  "the re-measured residual stayed above tol=1e-05",
                  "re-measured residual"))
        for params, count, config, plain, limit, measure in stops:
            sweeps = []
            with monkeypatch.context() as patch:
                if plain:
                    patch.setattr(solver, "_anderson_step", plain_step)
                with pytest.raises(NonConvergenceError) as err:
                    solve_picard(Params(*params),
                                 make_grid(1e-4, 1e4, count, 4), config,
                                 monitor=lambda *row: sweeps.append(row))
            message = str(err.value)
            res = (err.value.residual_u, err.value.residual_v)
            assert limit in message
            assert message.endswith("%s %.3g/%.3g)" % ((measure,) + res))
            assert err.value.iterations == len(sweeps)
            assert err.value.last_delta == sweeps[-1][1]
            if plain:
                assert max(sweeps[-1][2:]) < 0.9 * config.tol < max(res)
            else:
                assert res == sweeps[-1][2:]

    def test_stagnation_stops_early(self):
        # the interior spread of the 256-node grid's fixed point is 1e-7:
        # the update falls to rounding there, and without the stop the
        # solve would spend all 400 sweeps; plain Picard stops after 43
        grid = make_grid(1e-4, 1e4, 256, 4)
        with pytest.raises(NonConvergenceError) as err:
            solve_picard(Params(4, 2.0, 1.5, 9.0), grid,
                         SolveConfig(tol=1e-9, damping=0.8))
        assert "stagnated" in str(err.value)
        assert "no new low below" in str(err.value)
        assert err.value.iterations == 27

    @pytest.mark.parametrize("params, tol", [((4, 2.0, 2.0, 5.0), 1e-7),
                                             ((4, 2.0, 2.0, 5.0), 1e-9),
                                             ((4, 2.0, 1.5, 9.0), 1e-6)])
    def test_reaches_tolerances_the_grid_supports(self, grid512, params,
                                                  tol):
        # with a half last cell these stopped short: the first two on a
        # re-measured residual of 1.1e-7 and a stagnated spread of 2e-9,
        # the weakened set on a stagnated spread of 3.7e-6
        pair = _solve(grid512, params, tol)
        assert max(pair.residual_u, pair.residual_v) <= tol

    def test_wide_grid_at_alpha_below_one(self):
        # Anderson mixing drifted along the dilation family here and
        # stopped as stagnated at sweep 20 with spread 1.03
        grid = make_grid(1e-5, 1e5, 2560, 3)
        pair = solve_picard(Params(3, 0.6, 1.5, 1.5), grid)
        assert max(pair.residual_u, pair.residual_v) <= 1e-6
        assert pair.u.values[0] == 1.0

    def test_noncritical_rejected(self):
        with pytest.raises(ValidationError):
            solve_picard(Params(5, 2.0, 3.0, 3.0))

    def test_default_init_tails_integrable(self):
        params = Params(4, 2.0, 3.0, 3.0)
        grid = make_grid(1e-4, 1e4, 64, 4)
        fu, fv = default_init(params, grid)
        # powered tails must feed a convergent potential
        assert fu.tail_exponent * params.p > params.alpha
        assert fv.tail_exponent * params.q > params.alpha


class TestAnderson:
    @pytest.mark.parametrize("index", range(3))
    def test_depth_zero_is_plain_picard(self, grid512, monkeypatch, index):
        monkeypatch.setattr(solver, "_anderson_step", plain_step)
        params, tol = CANONICAL_SETS[index]
        pair = _solve(grid512, params, tol)
        assert (pair.iterations, pair.residual_u.hex(),
                pair.residual_v.hex()) == PLAIN_512[index]

    @pytest.mark.parametrize("index", range(3))
    def test_halves_the_sweeps(self, grid512, index):
        params, tol = CANONICAL_SETS[index]
        pair = _solve(grid512, params, tol)
        assert pair.iterations == ANDERSON_512[index]
        assert pair.iterations <= PLAIN_512[index][0] // 2
        assert max(pair.residual_u, pair.residual_v) <= tol
        if params == (4, 2.0, 3.0, 3.0):
            assert _bubble_deviation(pair) <= 5e-3

    @pytest.mark.parametrize("damping", [0.3, 0.8])
    def test_solves_what_plain_solves(self, grid512, monkeypatch, damping):
        for params, tol in CANONICAL_SETS:
            with monkeypatch.context() as patch:
                patch.setattr(solver, "_anderson_step", plain_step)
                try:
                    _solve(grid512, params, tol, damping)
                except NonConvergenceError:
                    continue
            pair = _solve(grid512, params, tol, damping)
            assert max(pair.residual_u, pair.residual_v) <= tol

    def test_safeguard_drops_correction(self):
        # two equal columns of dF (rank 1 of 2): the minimum-norm gamma
        # would step to x - 3 d, so the damped log step is taken instead
        x = np.log(np.array([1.0, 0.5, 0.25, 1.0, 0.4, 0.2]))
        f = np.array([0.0, -0.1, -0.2, 0.0, -0.05, -0.1])
        d = np.array([0.0, 0.02, 0.01, 0.0, 0.03, 0.01])
        plain = np.exp(x + 0.5 * f)
        history = ([x - 3.0 * d, x - d], [0.0 * f, 0.5 * f])
        step = solver._anderson_step(history, x, f, 0.5)
        np.testing.assert_allclose(step, plain, rtol=1e-15)
        assert len(history[0]) == 3
        # gamma = 1 with dX = -1e3 at node 1: the corrected u would be
        # e^1e3 there, which overflows, so the damped log step is taken
        jump = np.array([0.0, -1e3, 0.0, 0.0, 0.0, 0.0])
        history = ([x - jump], [np.zeros_like(f)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            step = solver._anderson_step(history, x, f, 0.5)
        np.testing.assert_allclose(step, plain, rtol=1e-15)


def hls_extremal(n, alpha, r):
    """The HLS extremal with value 1 at the origin, ``(lam^2/(lam^2 +
    r^2))^((n-alpha)/2)``: on the critical diagonal ``p = q = (n+alpha)
    /(n-alpha)`` it solves ``u = I_alpha[u^p]`` (Lieb, Ann. Math. 1983;
    Chen, Li and Ou, CPAM 2006) when ``lam^alpha = 2^alpha
    Gamma((n+alpha)/2) / Gamma((n-alpha)/2)``."""
    lam2 = (2.0 ** alpha * math.gamma(0.5 * (n + alpha))
            / math.gamma(0.5 * (n - alpha))) ** (2.0 / alpha)
    return (lam2 / (lam2 + r * r)) ** (0.5 * (n - alpha))


#: Max ``|u/exact - 1|`` on [1e-3, 1e3] of the tol 1e-9 solve at N =
#: 512 and 1024, as measured, for the non-even orders of the extremal.
HLS_DISTANCES = {(5, 2.5): (8.79e-4, 2.19e-4),
                 (4, 1.5): (1.42e-3, 3.54e-4),
                 (3, 0.8): (1.74e-3, 4.46e-4)}


class TestHLSExtremal:
    @pytest.mark.parametrize("n, alpha", sorted(HLS_DISTANCES))
    def test_against_closed_form(self, n, alpha):
        p = (n + alpha) / (n - alpha)
        dist = []
        for count, measured in zip((512, 1024), HLS_DISTANCES[n, alpha]):
            grid = make_grid(1e-4, 1e4, count, n)
            pair = solve_picard(Params(n, alpha, p, p), grid,
                                SolveConfig(tol=1e-9))
            sl = (grid.nodes >= 1e-3) & (grid.nodes <= 1e3)
            exact = hls_extremal(n, alpha, grid.nodes[sl])
            dist.append(max(np.max(np.abs(f.values[sl] / exact - 1.0))
                            for f in (pair.u, pair.v)))
            assert dist[-1] <= 1.1 * measured
        # the step halves between the two grids
        assert math.log2(dist[0] / dist[1]) >= 1.9


#: ``|v(0)/u(0)^((p+1)/(q+1)) - xi*|`` of the tol 1e-8 Picard solve of
#: (4, 2, 2, 5) at N = 512 and 1024, as measured.
SHOOTING_DISTANCES = (2.978e-5, 7.436e-6)


class TestAgainstShooting:
    def test_critical_pair_at_alpha_2(self):
        # p != q has no closed form, but at alpha = 2 shooting finds the
        # pair; the ratio is invariant under the scaling family, so
        # Picard's u(r_min) = 1 and shooting's u0 = 1 compare directly
        params = Params(4, 2.0, 2.0, 5.0)
        xi = bisect_ground_state(params, 0.5, 2.0,
                                 ShotConfig(r_end=1e5)).xi
        assert xi == pytest.approx(1.1036822898703147, rel=1e-9)
        dist = []
        for count, measured in zip((512, 1024), SHOOTING_DISTANCES):
            pair = solve_picard(params, make_grid(1e-4, 1e4, count, 4),
                                SolveConfig(tol=1e-8))
            ratio = pair.v.values[0] / pair.u.values[0] ** (
                (params.p + 1.0) / (params.q + 1.0))
            dist.append(abs(ratio - xi))
            assert dist[-1] <= 1.1 * measured
        assert math.log2(dist[0] / dist[1]) >= 1.9


class TestSolverHelpers:
    def test_log_dilate_matches_scalar_loop(self, bubble_pair):
        # every node under one dilation, which moves some of them past
        # r_max (or below r_min)
        grid = bubble_pair.u.grid
        lnodes = np.log(grid.nodes)
        lv = np.log(bubble_pair.u.values * 3.0)
        tau, rate = bubble_pair.u.tail_exponent, 1.0

        def scalar(log_lam, lr):
            lq = lr + log_lam
            val = (np.interp(lq, lnodes, lv, left=lv[0])
                   if lq <= lnodes[-1]
                   else lv[-1] - tau * (lq - lnodes[-1]))
            return rate * log_lam + val

        for log_lam in (2.5, -2.5):
            reference = np.array([scalar(log_lam, x) for x in lnodes])
            got = solver._log_dilate(log_lam, rate, lnodes, lv, tau)
            outside = (lnodes + log_lam > lnodes[-1]) | (lnodes + log_lam
                                                         < lnodes[0])
            assert 0 < outside.sum() < lnodes.size
            assert got.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("count", [64, 256, 512, 2048])
    def test_tail_slope_matches_polyfit(self, count):
        grid = make_grid(1e-4, 1e4, count, 4)
        window = solver._tail_window(grid)
        sl = window[0]
        r = grid.nodes
        for rate in (0.5, 1.0, 2.0, 2.7):
            values = 1e-3 * (1.0 + r * r) ** (-0.5 * rate) * (
                1.0 + 0.1 * np.sin(np.log(r)))
            expected = -np.polyfit(np.log(r[sl]), np.log(values[sl]), 1)[0]
            got = solver._tail_slope(window, values, 2.0, 4)
            assert got == pytest.approx(expected, rel=1e-13, abs=0.0)
            # an exact power law is fitted to rounding
            exact = solver._tail_slope(window, 5.0 * r ** -rate, 2.0, 4)
            assert exact == pytest.approx(rate, rel=1e-14, abs=0.0)

    def test_tail_slope_clamp_and_guard(self):
        grid = make_grid(1e-4, 1e4, 128, 4)
        window = solver._tail_window(grid)
        r = grid.nodes
        assert solver._tail_slope(window, r ** 0.5, 2.0, 4) == 0.05
        assert solver._tail_slope(window, r ** -20.0, 2.0, 4) == 12.0
        values = r ** -2.0
        values[window[0].start + 1] = 0.0
        assert solver._tail_slope(window, values, 2.0, 4) == 3.0


class TestSingularBranch:
    def test_amplitudes_5d(self):
        a, b = singular_amplitudes(Params(5, 2.0, 3.0, 3.0))
        assert a == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert b == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_amplitude_fixed_point_consistency(self):
        # the amplitudes solve A = c1 B^q, B = c2 A^p to high accuracy
        params = Params(7, 2.0, 3.0, 3.0)
        a, b = singular_amplitudes(params)
        rep = classify(params)
        th1, th2 = rep.slow_rate_u, rep.slow_rate_v
        c1 = power_law_constant(7, 2.0, params.q * th2)
        c2 = power_law_constant(7, 2.0, params.p * th1)
        assert a == pytest.approx(c1 * b ** params.q, rel=1e-10)
        assert b == pytest.approx(c2 * a ** params.p, rel=1e-10)

    def test_node_values_exact(self):
        grid = make_grid(1e-4, 1e4, 256, 5)
        pair = singular_solution(Params(5, 2.0, 3.0, 3.0), grid=grid)
        assert pair.branch is Branch.SINGULAR
        comp = pair.u.values * grid.nodes
        assert np.max(np.abs(comp - math.sqrt(2.0))) <= 1e-14

    def test_interior_residual_small(self):
        grid = make_grid(1e-4, 1e4, 256, 5)
        pair = singular_solution(Params(5, 2.0, 3.0, 3.0), grid=grid)
        assert pair.residual_u <= 1e-4
        assert pair.residual_v <= 1e-4

    def test_out_of_window_rejected(self):
        # q*theta2 exceeds the dimension: the potential diverges
        with pytest.raises(PreconditionError):
            singular_amplitudes(Params(5, 2.0, 1.2, 1.2))

    def test_slow_exponents_values(self):
        rep = classify(Params(5, 2.0, 3.0, 3.0))
        assert (rep.slow_rate_u, rep.slow_rate_v) == (
            pytest.approx(1.0), pytest.approx(1.0))
        rep = classify(Params(6, 2.0, 2.5, 2.5))
        assert rep.slow_rate_u == pytest.approx(4.0 / 3.0)
        assert rep.slow_rate_v == pytest.approx(4.0 / 3.0)


class TestOperatorResolution:
    """An operator passed in must fit the grid and the order it is used
    for; without a grid, the operator's own grid is taken."""

    def test_singular_other_grid_refused(self):
        # gave a pair with residual 1869
        op = assemble(make_grid(1e-4, 1e4, 256, 5), 5, 2.0)
        with pytest.raises(ValidationError, match="assembled for"):
            singular_solution(Params(5, 2.0, 3.0, 3.0),
                              make_grid(1e-2, 1e2, 256, 5), operator=op)

    def test_singular_other_alpha_refused(self):
        # an operator for alpha = 1 gave residual 124
        grid = make_grid(1e-4, 1e4, 128, 5)
        with pytest.raises(ValidationError, match="assembled for"):
            singular_solution(Params(5, 2.0, 3.0, 3.0), grid,
                              operator=assemble(grid, 5, 1.0))

    def test_picard_other_grid_refused(self):
        # ran 17 sweeps and then blamed the grid resolution
        op = assemble(make_grid(1e-4, 1e4, 128, 4), 4, 2.0)
        sweeps = []
        with pytest.raises(ValidationError, match="assembled for"):
            solve_picard(Params(4, 2.0, 3.0, 3.0),
                         make_grid(1e-3, 1e3, 128, 4), operator=op,
                         monitor=lambda *args: sweeps.append(args))
        assert sweeps == []

    def test_operator_grid_taken(self):
        # built the 512-node default grid and failed on the input shape
        op = assemble(make_grid(1e-4, 1e4, 128, 4), 4, 2.0)
        pair = solve_picard(Params(4, 2.0, 3.0, 3.0),
                            config=SolveConfig(tol=5e-6), operator=op)
        assert pair.u.grid is op.grid
        assert max(pair.residual_u, pair.residual_v) <= 5e-6
        spair = singular_solution(Params(4, 2.0, 3.0, 3.0), operator=op)
        assert spair.u.grid is op.grid
