"""Tail fitting, envelopes, integrability, recursion, fast limits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszlab.analysis import (_median, amplitude_b0, check_fast_limits,
                               default_window, envelope_check, fit_tail,
                               integrability_predicate,
                               monotonicity_criterion, run_recursion)
from rieszlab.errors import (DegenerateFitError, DivergentTailError,
                             PreconditionError, ValidationError)
from rieszlab.exponents import Params, VFastCase
from rieszlab.grid import make_grid
from rieszlab.riesz import RadialField
from rieszlab.solver import Branch, SolutionPair


def make_pair(n, alpha, p, q, values_u, values_v, tail_u, tail_v,
              grid=None):
    grid = grid or make_grid(1e-4, 1e4, 128, n)
    u = RadialField(grid, values_u(grid.nodes), tail_exponent=tail_u)
    v = RadialField(grid, values_v(grid.nodes), tail_exponent=tail_v)
    return SolutionPair(u=u, v=v, params=Params(n, alpha, p, q),
                        iterations=0, residual_u=0.0, residual_v=0.0,
                        branch=Branch.PICARD)


class TestFitTail:
    def test_exact_power_law(self):
        r = np.geomspace(1.0, 1e4, 200)
        fit = fit_tail(r, 3.0 * r ** -2.5, window=(10.0, 1e4))
        assert fit.log_power == 0
        assert abs(fit.exponent - 2.5) <= 1e-10
        assert fit.amplitude == pytest.approx(3.0, rel=1e-10)
        assert fit.r2 >= 1.0 - 1e-12

    def test_exact_log_corrected(self):
        r = np.geomspace(10.0, 1e5, 200)
        fit = fit_tail(r, 2.0 * r ** -1.5 * np.log(r))
        assert fit.log_power == 1
        assert abs(fit.exponent - 1.5) <= 1e-10
        assert fit.amplitude == pytest.approx(2.0, rel=1e-10)

    def test_mild_noise_keeps_pure_model(self):
        rng = np.random.default_rng(7)
        r = np.geomspace(10.0, 1e4, 300)
        vals = 5.0 * r ** -2.0 * np.exp(rng.normal(0.0, 1e-4, r.size))
        fit = fit_tail(r, vals)
        assert fit.log_power == 0
        assert fit.exponent == pytest.approx(2.0, abs=1e-3)

    def test_forced_models(self):
        r = np.geomspace(10.0, 1e5, 200)
        logdata = 2.0 * r ** -1.5 * np.log(r)
        forced = fit_tail(r, logdata, log_power=0)
        assert forced.log_power == 0
        assert forced.exponent != pytest.approx(1.5, abs=1e-3)
        pure = 3.0 * r ** -2.5
        forced_log = fit_tail(r, pure, log_power=1)
        assert forced_log.log_power == 1

    def test_forced_log_needs_radii_above_one(self):
        r = np.geomspace(0.1, 10.0, 50)
        with pytest.raises(DegenerateFitError):
            fit_tail(r, r ** -2.0, window=(0.1, 10.0), log_power=1)
        with pytest.raises(ValidationError):
            fit_tail(r, r ** -2.0, log_power=2)

    def test_degenerate_windows(self):
        r = np.geomspace(1.0, 1e4, 50)
        # 13 samples in the last decade, 9 in its upper 0.7
        fit_tail(r, r ** -2.0, window=(1e3, 1e4))
        with pytest.raises(DegenerateFitError, match="at least 10"):
            fit_tail(r, r ** -2.0, window=(2e3, 1e4))
        vals = r ** -2.0
        vals[-5] = 0.0
        with pytest.raises(DegenerateFitError):
            fit_tail(r, vals, window=(1.0, 1e4))

    def test_non_finite_input_refused(self):
        # an all-NaN profile gave a DecayFit of NaNs
        r = np.geomspace(1.0, 1e4, 200)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="finite"):
                fit_tail(r, np.full(r.size, bad))
            vals = r ** -2.0
            vals[3] = bad
            with pytest.raises(ValidationError, match="finite"):
                fit_tail(r, vals)
            radii = r.copy()
            radii[-1] = bad
            with pytest.raises(ValidationError, match="finite"):
                fit_tail(radii, r ** -2.0)

    def test_default_window_outer_decade(self):
        r = np.geomspace(1e-4, 1e4, 512)
        lo, hi = default_window(r)
        assert r[lo] >= 1e3 * (1.0 - 1e-12)
        assert hi <= int(512 * 0.9) + 1
        assert hi - lo >= 10

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_default_window_needs_finite_radii(self, bad):
        # [nan] * 20 gave the window (0, 18)
        with pytest.raises(ValidationError, match="finite"):
            default_window([bad] * 20)


class TestMedian:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e300, 1e300) | st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324]), min_size=1, max_size=300))
    def test_matches_np_median_to_the_bit(self, values):
        values = np.array(values)
        assert _median(values.copy()).hex() == np.median(values).hex()

    @pytest.mark.parametrize("size", [1, 2, 15, 16])
    def test_nan_as_np_median(self, size):
        values = np.arange(size, dtype=float)
        values[size // 2] = np.nan
        assert math.isnan(_median(values)) and math.isnan(np.median(values))


class TestMonotonicity:
    def test_nonincreasing_profile(self):
        assert monotonicity_criterion([5.0, 3.0, 2.0, 2.0, 1.0]) == 1.0

    def test_interior_dip(self):
        # dips to half before recovering: eps0 = 0.5
        assert monotonicity_criterion([1.0, 0.5, 1.0]) == pytest.approx(0.5)

    def test_singular_profile(self):
        r = np.geomspace(1e-3, 1e3, 100)
        assert monotonicity_criterion(math.sqrt(2.0) * r ** -1.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            monotonicity_criterion([1.0, -1.0])
        with pytest.raises(ValidationError):
            monotonicity_criterion([])
        # a NaN gave a NaN ratio
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError):
                monotonicity_criterion([1.0, bad, 0.5])


class TestIntegrability:
    def test_boundary_is_excluded(self):
        # decay exactly at n/power integrates to a logarithm: not in L^m
        assert integrability_predicate(1.0, 5.0, 5) is False
        assert integrability_predicate(1.01, 5.0, 5) is True

    def test_validation(self):
        # a NaN exponent read as "not integrable"
        for args in ((math.nan, 2.0, 3), (1.0, math.nan, 3),
                     (1.0, 0.0, 3), (1.0, 2.0, 0), (1.0, math.inf, 3)):
            with pytest.raises(ValidationError):
                integrability_predicate(*args)
        # a string raised a raw TypeError, a bool exponent read as 1
        for args in (("2", 1.0, 3), (2.0, "1", 3), (2.0, 1.0, "3"),
                     (True, 1.0, 3)):
            with pytest.raises(ValidationError, match="finite real number"):
                integrability_predicate(*args)

    @given(st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_decay(self, exponent, power, bump):
        n = 5
        if integrability_predicate(exponent, power, n):
            assert integrability_predicate(exponent + bump, power, n)


class TestRecursion:
    def test_worked_example(self):
        # b0 = 1, alpha = 2, p = q = 2: a1 = 0, b1 = -2, stop at step 1
        trace = run_recursion(1.0, 2.0, 2.0, 2.0)
        assert trace.a_seq[0] == pytest.approx(0.0)
        assert trace.b_seq[0] == pytest.approx(-2.0)
        assert trace.blowup_index == 1

    def test_fixed_point_is_stationary(self):
        # theta = 2*(2+1)/(4-1) = 2 exactly in floats
        trace = run_recursion(2.0, 2.0, 2.0, 2.0)
        assert trace.blowup_index is None
        assert trace.b_seq == (2.0,) * 64

    def test_above_fixed_point_never_blows_up(self):
        trace = run_recursion(3.0, 2.0, 2.0, 2.0)
        assert trace.blowup_index is None
        assert all(b > 2.0 for b in trace.b_seq)
        bs = trace.b_seq
        assert all(b2 > b1 for b1, b2 in zip(bs, bs[1:]))

    def test_overflow_guard_stops_iteration(self):
        trace = run_recursion(1e90, 2.0, 2.0, 2.0)
        assert trace.blowup_index is None
        assert len(trace.b_seq) < 64
        assert abs(trace.b_seq[-1]) > 1e100

    @given(st.floats(min_value=0.5, max_value=5.0),
           st.floats(min_value=0.4, max_value=4.0),
           st.floats(min_value=0.4, max_value=4.0),
           st.floats(min_value=0.05, max_value=3.0),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_closed_form(self, alpha, p, q, margin, below):
        if p * q < 1.2:
            return
        theta = alpha * (q + 1.0) / (p * q - 1.0)
        b0 = theta * (1.0 - margin * 0.3) if below else theta * (1.0 + margin)
        if b0 <= 0.0:
            return
        trace = run_recursion(b0, alpha, p, q)
        pq = p * q
        for j, b in enumerate(trace.b_seq, start=1):
            closed = pq ** j * (b0 - theta) + theta
            assert abs(b - closed) <= 1e-12 * max(abs(closed), theta)

    def test_validation(self):
        with pytest.raises(ValidationError):
            run_recursion(1.0, 2.0, 0.5, 1.0)
        with pytest.raises(ValidationError):
            run_recursion(1.0, -1.0, 2.0, 2.0)
        # a NaN gave a NaN trace, an infinite b0 an infinite one
        for args in ((math.nan, 2.0, 3.0, 3.0), (math.inf, 2.0, 3.0, 3.0),
                     (1.0, math.nan, 3.0, 3.0),
                     (1.0, 2.0, math.nan, 3.0), (1.0, 2.0, 3.0, math.nan)):
            with pytest.raises(ValidationError):
                run_recursion(*args)
        # a string raised a raw TypeError, a bool b0 ran from 1
        for args in (("1", 2.0, 3.0, 3.0), (1.0, "2", 3.0, 3.0),
                     (1.0, 2.0, "3", 3.0), (1.0, 2.0, 3.0, "3"),
                     (True, 2.0, 3.0, 3.0)):
            with pytest.raises(ValidationError, match="finite real number"):
                run_recursion(*args)

    @pytest.mark.parametrize("args", [(1.0, math.inf, 2.0, 2.0),
                                      (1.0, 2.0, math.inf, 2.0),
                                      (1.0, 2.0, 2.0, math.inf)])
    def test_infinite_parameters_refused(self, args):
        # an infinite alpha gave b_1 = -inf with blow-up index 1
        with pytest.raises(ValidationError):
            run_recursion(*args)


class TestEnvelope:
    def test_inside_band(self):
        params = Params(5, 2.0, 3.0, 3.0)
        assert envelope_check(params, 2.0, 2.0) is True
        assert envelope_check(params, 1.0, 3.0) is True

    def test_outside_band(self):
        params = Params(5, 2.0, 3.0, 3.0)
        assert envelope_check(params, 0.9, 2.0) is False
        assert envelope_check(params, 2.0, 3.2) is False

    def test_slack_widens_band(self):
        # the slow rate of u is 1, widened by ENVELOPE_SLACK to 0.95
        params = Params(5, 2.0, 3.0, 3.0)
        assert envelope_check(params, 0.951, 2.0) is True
        assert envelope_check(params, 0.949, 2.0) is False

    def test_non_finite_exponent_refused(self):
        # a NaN exponent read as "outside the band"
        params = Params(5, 2.0, 3.0, 3.0)
        for args in ((math.nan, 1.0), (2.0, math.nan), (math.inf, 2.0),
                     (2.0, -math.inf)):
            with pytest.raises(ValidationError, match="finite"):
                envelope_check(params, *args)
        # a string raised a raw TypeError
        for args in (("1", 2.0), (1.0, "2"), (True, 2.0)):
            with pytest.raises(ValidationError, match="finite real number"):
                envelope_check(params, *args)


class TestFastLimits:
    def test_exact_bubble_pair(self):
        grid = make_grid(1e-4, 1e4, 512, 4)
        prof = lambda r: 2.0 * math.sqrt(2.0) / (1.0 + r ** 2)
        pair = make_pair(4, 2.0, 3.0, 3.0, prof, prof, 2.0, 2.0, grid=grid)
        report = check_fast_limits(pair)
        # closed form: u r^2 -> 2 sqrt(2), matching the mass of v^3
        assert report.case is VFastCase.PURE
        assert report.b0 == pytest.approx(2.0 * math.sqrt(2.0), rel=5e-3)
        assert report.u_deviation <= 5e-3
        assert report.v_deviation <= 5e-3

    def test_slow_pair_rejected(self):
        # fields at the slow rate do not satisfy the fast-decay limits
        prof = lambda r: r ** -1.0
        pair = make_pair(4, 2.0, 3.0, 3.0, prof, prof, 1.0, 1.0)
        with pytest.raises(PreconditionError):
            check_fast_limits(pair)

    def test_divergent_mass_rejected(self):
        prof = lambda r: (1.0 + r) ** -1.2
        pair = make_pair(4, 2.0, 3.0, 3.0, prof, prof, 1.2, 1.2)
        with pytest.raises(DivergentTailError):
            amplitude_b0(pair)
