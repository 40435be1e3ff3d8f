"""Fixed-point solver and the singular power-law branch."""

import math
import warnings

import numpy as np
import pytest

from rieszlab import solver
from rieszlab.errors import (CollapseError, NonConvergenceError,
                             PreconditionError, ValidationError)
from rieszlab.exponents import Params, classify
from rieszlab.grid import make_grid
from rieszlab.riesz import RadialField, assemble, power_law_constant
from rieszlab.solver import (Branch, SolveConfig, default_init,
                             singular_amplitudes, singular_solution,
                             solve_picard)

#: The canonical Picard sets ``(n, alpha, p, q), tol``: pure,
#: log-corrected and weakened fast decay of ``v``.
CANONICAL_SETS = (((4, 2.0, 3.0, 3.0), 1e-6),
                  ((4, 2.0, 2.0, 5.0), 1e-6),
                  ((4, 2.0, 1.5, 9.0), 1e-5))
#: Plain damped Picard (depth 0, damping 0.5) on the N=512 grid: sweeps
#: and ``float.hex`` of the residuals.
PLAIN_512 = ((60, "0x1.06a4ab2400000p-20", "0x1.06a4ab2900000p-20"),
             (61, "0x1.6551a49200000p-21", "0x1.792b310000000p-21"),
             (52, "0x1.884e40dc40000p-18", "0x1.83b818c340000p-18"))


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

    def test_zero_budget_fails_immediately(self):
        grid = make_grid(1e-4, 1e4, 128, 4)
        with pytest.raises(NonConvergenceError) as err:
            solve_picard(Params(4, 2.0, 3.0, 3.0), grid=grid,
                         config=SolveConfig(max_iters=0))
        assert err.value.iterations == 0
        assert "did not reach tol=1e-06 within 0 sweeps" in str(err.value)

    def test_presentation_cycles_named(self, grid512, monkeypatch):
        # plain damped Picard at damping 0.8 converges three times, but
        # the re-measured residual stays just above tol: the error must
        # name the cycles, not the untouched sweep budget
        monkeypatch.setattr(solver, "ANDERSON_DEPTH", 0)
        with pytest.raises(NonConvergenceError) as err:
            _solve(grid512, (4, 2.0, 3.0, 3.0), 1e-6, damping=0.8)
        message = str(err.value)
        assert "after 3 presentation cycles" in message
        assert "within 400 sweeps" not in message
        assert err.value.iterations == 34
        assert err.value.last_delta < 1e-6
        # the attributes carry the residual that failed, as the message
        # prints it, not the smaller spread of the unpresented iterate
        res = (err.value.residual_u, err.value.residual_v)
        assert max(res) > 1e-6
        assert "residual %.3g/%.3g)" % res in message

    def test_noncritical_rejected(self):
        with pytest.raises(ValidationError):
            solve_picard(Params(5, 2.0, 3.0, 3.0))

    def test_collapse_without_normalization(self):
        grid = make_grid(1e-4, 1e4, 128, 4)
        params = Params(4, 2.0, 3.0, 3.0)
        fu, fv = default_init(params, grid)
        tiny = (RadialField(grid, fu.values * 1e-3,
                            tail_exponent=fu.tail_exponent),
                RadialField(grid, fv.values * 1e-3,
                            tail_exponent=fv.tail_exponent))
        with pytest.raises(CollapseError):
            solve_picard(params, grid=grid, init=tiny,
                         config=SolveConfig(normalize_at_origin=False,
                                            max_iters=200))

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
        monkeypatch.setattr(solver, "ANDERSON_DEPTH", 0)
        params, tol = CANONICAL_SETS[index]
        pair = _solve(grid512, params, tol)
        assert (pair.iterations, pair.residual_u.hex(),
                pair.residual_v.hex()) == PLAIN_512[index]

    @pytest.mark.parametrize("index", range(3))
    def test_halves_the_sweeps(self, grid512, index):
        params, tol = CANONICAL_SETS[index]
        pair = _solve(grid512, params, tol)
        assert pair.iterations <= PLAIN_512[index][0] // 2
        assert max(pair.residual_u, pair.residual_v) <= tol
        if params == (4, 2.0, 3.0, 3.0):
            assert _bubble_deviation(pair) <= 5e-3

    @pytest.mark.parametrize("index", range(2))
    def test_restart_from_solution(self, grid512, index):
        # the history differences dF are at the tolerance level, and
        # the least-squares step must stay quiet and finite
        params, tol = CANONICAL_SETS[index]
        pair = _solve(grid512, params, tol)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            again = _solve(grid512, params, tol, init=(pair.u, pair.v))
        assert again.iterations <= 5
        assert max(again.residual_u, again.residual_v) <= tol
        assert np.allclose(again.u.values, pair.u.values, rtol=1e-5)

    @pytest.mark.parametrize("damping", [0.3, 0.8])
    def test_solves_what_plain_solves(self, grid512, monkeypatch, damping):
        for params, tol in CANONICAL_SETS:
            with monkeypatch.context() as patch:
                patch.setattr(solver, "ANDERSON_DEPTH", 0)
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


class TestSolverHelpers:
    def test_origin_gap_matches_scalar_loop(self, bubble_pair):
        grid = bubble_pair.u.grid
        lnodes = np.log(grid.nodes)
        lv = np.log(bubble_pair.u.values * 3.0)
        tau, rate = bubble_pair.u.tail_exponent, 1.0
        guess = -lv[0] / rate
        span = np.linspace(guess - 30.0, guess + 30.0, 1025)

        def scalar(log_lam):
            lq = lnodes[0] + log_lam
            val = (np.interp(lq, lnodes, lv, left=lv[0])
                   if lq <= lnodes[-1]
                   else lv[-1] - tau * (lq - lnodes[-1]))
            return rate * log_lam + val

        reference = np.array([scalar(x) for x in span])
        gap = solver._origin_gap(span, lnodes, lv, tau, rate)
        assert np.any(lnodes[0] + span > lnodes[-1])
        assert gap.tobytes() == reference.tobytes()
        assert float(solver._origin_gap(span[7], lnodes, lv, tau,
                                        rate)) == reference[7]

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
