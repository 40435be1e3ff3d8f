"""Closed-form exponent arithmetic: identities, regimes, canonicalization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszlab.errors import ValidationError
from rieszlab.exponents import (Params, Regime, VFastCase, classify,
                                critical_q)


def valid_params():
    return st.tuples(
        st.integers(min_value=3, max_value=12),
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.2, max_value=6.0),
        st.floats(min_value=0.2, max_value=8.0),
    ).filter(lambda t: t[2] * t[3] > 1.05).map(
        lambda t: Params(n=t[0], alpha=t[1] * t[0], p=t[2], q=t[3]))


class TestValidation:
    def test_dimension_too_small(self):
        with pytest.raises(ValidationError):
            Params(n=2, alpha=1.0, p=2.0, q=2.0)

    def test_dimension_not_integer(self):
        with pytest.raises(ValidationError):
            Params(n=4.5, alpha=1.0, p=2.0, q=2.0)

    def test_alpha_bounds(self):
        with pytest.raises(ValidationError):
            Params(n=4, alpha=0.0, p=2.0, q=2.0)
        with pytest.raises(ValidationError):
            Params(n=4, alpha=4.0, p=2.0, q=2.0)

    def test_exponents_positive(self):
        with pytest.raises(ValidationError):
            Params(n=4, alpha=2.0, p=-1.0, q=3.0)

    def test_product_above_one(self):
        with pytest.raises(ValidationError):
            Params(n=4, alpha=2.0, p=0.5, q=2.0)

    def test_nonfinite_rates_rejected(self):
        # p = q = inf used to classify as supercritical with NaN rates;
        # finite exponents can still overflow p*q or alpha*(q+1)
        with pytest.raises(ValidationError):
            Params(n=4, alpha=2.0, p=math.inf, q=math.inf)
        with pytest.raises(ValidationError):
            Params(n=4, alpha=2.0, p=1e200, q=1e200)
        with pytest.raises(ValidationError):
            Params(n=4, alpha=2.0, p=1e-300, q=1.7e308)

    @pytest.mark.parametrize("field", ["alpha", "p", "q"])
    @pytest.mark.parametrize("bad", [True, np.bool_(True), np.array(2.0),
                                     np.array([2.0]), np.array([2.0, 2.0])])
    def test_real_scalars_only(self, field, bad):
        # a bool alpha was taken as 1.0, a one-element p raised a raw
        # TypeError and a two-element alpha a numpy ValueError
        args = dict(n=4, alpha=2.0, p=2.0, q=3.0)
        args[field] = bad
        with pytest.raises(ValidationError):
            Params(**args)

    def test_numpy_scalars_pass(self):
        params = Params(n=np.int64(4), alpha=np.float64(2.0),
                        p=np.float32(2.0), q=np.int64(3))
        assert (params.alpha, params.p, params.q) == (2.0, 2.0, 3.0)

    def test_from_order_k(self):
        params = Params.from_order_k(n=5, k=1, p=3.0, q=3.0)
        assert params.alpha == 2.0
        with pytest.raises(ValidationError):
            Params.from_order_k(n=5, k=0, p=3.0, q=3.0)

    def test_from_order_k_needs_a_whole_order(self):
        # k = 1.5 built alpha = 3, an order no polyharmonic operator has
        for k in (1.5, math.nan, math.inf, "1", True):
            with pytest.raises(ValidationError):
                Params.from_order_k(6, k, 2.0, 2.0)

    @pytest.mark.parametrize("alpha, p", [("2", 2.0), (2.0, "2")])
    def test_string_order_or_exponent_refused(self, alpha, p):
        # a raw TypeError from the comparison
        with pytest.raises(ValidationError):
            Params(n=4, alpha=alpha, p=p, q=3.0)


class TestCanonicalOrientation:
    def test_swap_stores_both_exponents(self):
        # regression: an earlier version collapsed both exponents to the
        # smaller one when swapping
        params = Params(n=5, alpha=2.0, p=4.0, q=1.5)
        assert params.p == 1.5
        assert params.q == 4.0
        assert params.swapped is True

    def test_no_swap_when_ordered(self):
        params = Params(n=5, alpha=2.0, p=1.5, q=4.0)
        assert (params.p, params.q, params.swapped) == (1.5, 4.0, False)

    @given(valid_params())
    @settings(max_examples=100, deadline=None)
    def test_orientation_invariance(self, params):
        flipped = Params(n=params.n, alpha=params.alpha,
                         p=params.q, q=params.p)
        assert flipped.p == params.p
        assert flipped.q == params.q
        assert classify(flipped) == classify(params)


class TestIdentities:
    @given(valid_params())
    @settings(max_examples=300, deadline=None)
    def test_integrability_times_slow_rate_is_dimension(self, params):
        rep = classify(params)
        assert rep.r0 * rep.slow_rate_u == pytest.approx(params.n, rel=1e-13,
                                                         abs=0.0)
        assert rep.s0 * rep.slow_rate_v == pytest.approx(params.n, rel=1e-13,
                                                         abs=0.0)

    @given(st.integers(min_value=4, max_value=12),
           st.floats(min_value=0.2, max_value=0.8),
           st.floats(min_value=0.1, max_value=4.0))
    @settings(max_examples=200, deadline=None)
    def test_critical_closure(self, n, frac, bump):
        alpha = frac * n
        p_min = n / (n - alpha) - 1.0
        p = p_min + 0.05 + bump
        try:
            q = critical_q(n, alpha, p)
        except ValidationError:
            return
        params = Params(n=n, alpha=alpha, p=p, q=q)
        rep = classify(params)
        assert rep.regime is Regime.CRITICAL
        # at criticality the integrability exponents are conjugate to
        # the nonlinearities
        if not params.swapped:
            assert rep.r0 == pytest.approx(p + 1.0, rel=1e-12)
            assert rep.s0 == pytest.approx(q + 1.0, rel=1e-12)
        else:
            assert rep.r0 == pytest.approx(q + 1.0, rel=1e-12)
            assert rep.s0 == pytest.approx(p + 1.0, rel=1e-12)

    def test_critical_q_no_solution(self):
        with pytest.raises(ValidationError):
            critical_q(4, 2.0, 0.5)

    @pytest.mark.parametrize("n", [3.5, "3"])
    def test_critical_q_needs_a_whole_dimension(self, n):
        # 3.5 gave q = 1.625, and "3" raised a raw TypeError
        with pytest.raises(ValidationError):
            critical_q(n, 1.0, 2.0)

    @pytest.mark.parametrize("alpha, p", [
        (2.0, math.inf), (-1.0, 2.0), (2.0, "2"), (True, 2.0), (2.0, True),
        (np.array([2.0]), 2.0), (2.0, np.array([2.0, 3.0]))])
    def test_critical_q_checks_params_ranges(self, alpha, p):
        # an infinite p gave q = 1, a negative alpha q = 0.0909, a
        # string p a raw TypeError, a bool alpha q = 1.4 and an array
        # a raw TypeError or ValueError
        with pytest.raises(ValidationError):
            critical_q(4, alpha, p)


class TestClassification:
    def test_supercritical_example(self):
        rep = classify(Params(n=5, alpha=2.0, p=3.0, q=3.0))
        assert rep.regime is Regime.SUPERCRITICAL
        assert rep.slow_rate_u == pytest.approx(1.0)
        assert rep.slow_rate_v == pytest.approx(1.0)
        assert rep.r0 == pytest.approx(5.0)   # n / slow_rate_u
        assert rep.s0 == pytest.approx(5.0)
        assert rep.fast_rate_u == pytest.approx(3.0)
        assert rep.v_fast_case is VFastCase.PURE
        assert rep.satisfies_ncc is True

    def test_critical_example(self):
        rep = classify(Params(n=6, alpha=2.0, p=2.0, q=2.0))
        assert rep.regime is Regime.CRITICAL
        assert rep.r0 == pytest.approx(3.0)
        assert rep.s0 == pytest.approx(3.0)
        assert rep.satisfies_ncc is True

    def test_subcritical_example(self):
        rep = classify(Params(n=3, alpha=2.0, p=1.2, q=1.2))
        assert rep.regime is Regime.SUBCRITICAL
        assert rep.satisfies_ncc is False

    def test_log_corrected_case(self):
        rep = classify(Params(n=4, alpha=2.0, p=2.0, q=5.0))
        assert rep.v_fast_case is VFastCase.LOG_CORRECTED
        assert rep.fast_rate_v == pytest.approx(2.0)

    def test_weakened_case(self):
        rep = classify(Params(n=4, alpha=2.0, p=1.5, q=9.0))
        assert rep.v_fast_case is VFastCase.WEAKENED
        # p*n - (p+1)*alpha
        assert rep.fast_rate_v == pytest.approx(1.0)

    def test_to_dict_keys(self):
        d = classify(Params(n=6, alpha=2.0, p=2.0, q=2.0)).to_dict()
        assert d["regime"] == "Critical"
        assert d["vFastCase"] == "Pure"
        assert d["satisfiesNcc"] is True
        assert set(d) == {"regime", "r0", "s0", "fastRateU", "fastRateV",
                          "vFastCase", "slowRateU", "slowRateV",
                          "satisfiesNcc"}

    def test_slow_rates_formula(self):
        params = Params(n=7, alpha=2.5, p=2.0, q=4.0)
        rep = classify(params)
        pq = params.p * params.q
        assert rep.slow_rate_u == pytest.approx(
            params.alpha * (params.q + 1.0) / (pq - 1.0), rel=1e-14)
        assert rep.slow_rate_v == pytest.approx(
            params.alpha * (params.p + 1.0) / (pq - 1.0), rel=1e-14)
