"""Fixed-point solver and the singular power-law branch."""

import math
import warnings

import numpy as np
import pytest

from rieszlab.errors import (CollapseError, NonConvergenceError,
                             PreconditionError, TruncationWarning,
                             ValidationError)
from rieszlab.exponents import Params, classify
from rieszlab.grid import make_grid
from rieszlab.riesz import RadialField, power_law_constant
from rieszlab.solver import (Branch, SolveConfig, default_init,
                             singular_amplitudes, singular_solution,
                             solve_picard)


@pytest.fixture(autouse=True)
def _quiet_truncation():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        yield


@pytest.fixture(scope="module")
def bubble_pair():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
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
        # the critical 4d pair with p = q = 3 is an explicit rational
        # profile; with u(rMin) = 1 its width parameter is 2*sqrt(2) up
        # to O(rMin^2)
        grid = bubble_pair.u.grid
        lam = 2.0 * math.sqrt(2.0)
        exact = 2.0 * math.sqrt(2.0) * lam / (lam ** 2 + grid.nodes ** 2)
        sl = grid.interior_slice()
        dev = np.max(np.abs(bubble_pair.u.values[sl] / exact[sl] - 1.0))
        assert dev <= 5e-3
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
