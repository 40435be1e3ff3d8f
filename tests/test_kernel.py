"""Sphere-averaged kernel and power-law constants against oracles.

Two independent oracles pin the kernel down: direct high-precision
quadrature of the defining polar-angle integral (well-separated radii),
and arbitrary-precision evaluation of the hypergeometric closed form
(near-diagonal radii, where fixed-precision quadrature cannot resolve
the peak).  The power-law constants are checked against hand-derived
exact values.
"""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rieszlab.errors import SingularKernelError, ValidationError
from rieszlab import riesz
from rieszlab.grid import make_grid
from rieszlab.riesz import (FAR_RATIO, _series_coefficients, angular_kernel,
                            assemble, kernel_ratio, power_law_constant,
                            riesz_normalization, sphere_area)


def polar_oracle(r, s, n, alpha):
    """Defining integral over the sphere, reduced to the polar angle."""
    area_sub = sphere_area(n - 1)
    with mp.workdps(40):
        f = lambda phi: ((r * r + s * s - 2.0 * r * s * mp.cos(phi))
                         ** (mp.mpf(alpha - n) / 2) * mp.sin(phi) ** (n - 2))
        return float(area_sub * mp.quad(f, [0, mp.pi]))


def closed_form_oracle(r, s, n, alpha, dps=50):
    """Arbitrary-precision hypergeometric closed form."""
    with mp.workdps(dps):
        rho = mp.mpf(s) / mp.mpf(r)
        a = mp.mpf(n - alpha) / 4
        w = (2 * rho / (1 + rho ** 2)) ** 2
        hyp = mp.hyp2f1(a, a + mp.mpf("0.5"), mp.mpf(n) / 2, w)
        area = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        return float(area * mp.mpf(r) ** (alpha - n)
                     * (1 + rho ** 2) ** (mp.mpf(alpha - n) / 2) * hyp)


class TestConstants:
    def test_sphere_areas(self):
        assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15,
                                               abs=0.0)
        assert sphere_area(4) == pytest.approx(2.0 * math.pi ** 2, rel=1e-15,
                                               abs=0.0)
        assert sphere_area(5) == pytest.approx(8.0 * math.pi ** 2 / 3.0,
                                               rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("bad", [math.nan, 2.5, math.inf, 0, True])
    def test_sphere_area_needs_a_dimension(self, bad):
        # NaN gave NaN and 2.5 the area of no sphere (9.23)
        with pytest.raises(ValidationError, match="n (must|>=)"):
            sphere_area(bad)

    def test_normalization_values(self):
        assert riesz_normalization(5, 2.0) == pytest.approx(
            8.0 * math.pi ** 2, rel=1e-14)
        assert riesz_normalization(4, 2.0) == pytest.approx(
            4.0 * math.pi ** 2, rel=1e-14)

    def test_normalization_validates(self):
        with pytest.raises(ValidationError):
            riesz_normalization(5, 5.0)

    def test_power_law_constants_exact(self):
        # hand-derived via the Gamma reflection/duplication identities
        assert power_law_constant(5, 2.0, 3.0) == pytest.approx(
            0.5, rel=1e-14)
        assert power_law_constant(4, 2.0, 3.0) == pytest.approx(
            1.0, rel=1e-14)
        assert power_law_constant(4, 2.0, 2.5) == pytest.approx(
            4.0 / 3.0, rel=1e-14)

    def test_power_law_constant_window(self):
        with pytest.raises(ValidationError):
            power_law_constant(5, 2.0, 2.0)   # beta must exceed alpha
        with pytest.raises(ValidationError):
            power_law_constant(5, 2.0, 5.0)   # beta must stay below n

    @pytest.mark.parametrize("func, args", [
        # a string dimension raised a raw TypeError
        (riesz_normalization, ("4", 2.0)),
        (angular_kernel, (1.0, 2.0, "4", 2.0)),
        # 57.99, the constant of no dimension
        (riesz_normalization, (4.5, 2.0)),
        # NaN, from Gamma(inf) / Gamma(inf)
        (power_law_constant, (math.inf, 2.0, 3.0)),
        # a bool order ran as 1
        (riesz_normalization, (4, True)),
        (angular_kernel, (1.0, 2.0, 4, True)),
        (power_law_constant, (4, True, 3.0)),
        # a string radius raised a raw TypeError, a bool one ran as 1
        (angular_kernel, ("1", 2.0, 3, 0.8)),
        (angular_kernel, (1.0, "2", 3, 0.8)),
        (angular_kernel, (True, 2.0, 3, 0.8))],
        ids=["normalization-str-n", "angular-str-n", "normalization-4.5",
             "power-law-inf-n", "normalization-bool", "angular-bool",
             "power-law-bool", "angular-str-r", "angular-str-s",
             "angular-bool-r"])
    def test_malformed_scalars_refused(self, func, args):
        with pytest.raises(ValidationError):
            func(*args)

    @pytest.mark.parametrize("func, args", [
        (sphere_area, (344,)), (riesz_normalization, (346, 2.0)),
        (power_law_constant, (400, 2.0, 3.0))])
    def test_dimension_past_the_gamma_range(self, func, args):
        # math.gamma raised a raw OverflowError
        with pytest.raises(ValidationError, match="n=%d" % args[0]):
            func(*args)

    def test_last_dimensions_in_range_unchanged(self):
        assert sphere_area(343) == (2.0 * math.pi ** 171.5
                                    / math.gamma(171.5))
        assert riesz_normalization(345, 2.0) == (
            math.pi ** 172.5 * 4.0 * math.gamma(1.0) / math.gamma(171.5))


class TestKernelValues:
    @pytest.mark.parametrize("r,s,n,alpha", [
        (1.0, 0.5, 5, 2.0),
        (2.0, 3.0, 4, 2.0),
        (1.0, 0.9, 3, 0.8),
        (1.0, 0.5, 6, 3.7),
        (0.3, 4.0, 7, 1.3),
    ])
    def test_against_defining_integral(self, r, s, n, alpha):
        got = angular_kernel(r, s, n, alpha)
        want = polar_oracle(r, s, n, alpha)
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("r,s,n,alpha", [
        (1.0, 1.0 + 1e-7, 3, 0.8),
        (1.0, 1.0 - 1e-5, 3, 0.8),
        (1.0, 1.0 + 1e-7, 4, 1.0),
        (1.0, 1.0 + 1e-6, 5, 0.5),
        (1.0, 1.0 + 1e-7, 5, 2.0),
    ])
    def test_near_diagonal_against_closed_form(self, r, s, n, alpha):
        got = angular_kernel(r, s, n, alpha)
        want = closed_form_oracle(r, s, n, alpha)
        assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("n", [3, 4, 5, 7])
    @pytest.mark.parametrize("rho", [0.25, 0.9, 1.5, 40.0])
    def test_newtonian_mean_value(self, n, rho):
        # for alpha = 2 the kernel averages the harmonic |x|^(2-n), so
        # the mean value property gives |S^{n-1}| max(r,s)^(2-n) exactly
        got = angular_kernel(1.0, rho, n, 2.0)
        want = sphere_area(n) * max(1.0, rho) ** (2 - n)
        assert got == pytest.approx(want, rel=1e-12)

    def test_patch_seam_continuity(self):
        # at n = 3 kernel_ratio takes the far series up to rho = FAR_RATIO
        # (and from 1/FAR_RATIO on) and the near-zone formula between; the
        # quadrature reference and kernel_ratio agree with the closed
        # form just inside and outside both seams
        for seam in (FAR_RATIO, 1.0 / FAR_RATIO):
            for s in seam * np.array([1.0 - 1e-4, 1.0 + 1e-4, 1.0 + 1e-8]):
                want = closed_form_oracle(1.0, s, 3, 0.8)
                assert angular_kernel(1.0, s, 3, 0.8) == pytest.approx(
                    want, rel=1e-7)
                assert kernel_ratio(s, 3, 0.8) == pytest.approx(
                    want, rel=1e-13, abs=0.0)


class TestKernelRatioNearDiagonal:
    # the near zone around rho = 1 is one connection formula in 1 - w
    # for every alpha that is not even; alpha 0.9799 .. 1.0201 and
    # 1 -+ 1e-12, 1 -+ 1e-9 sit where its two terms cancel, and offsets
    # 1e-3 and 3e-2 are where scipy's 2F1 failed for alpha -> 1
    @pytest.mark.parametrize("offset", [1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4,
                                        1e-3, 3e-2, 0.1])
    @pytest.mark.parametrize("alpha", [
        0.3, 0.55, 0.8, 0.9799, 0.9801, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12,
        1.0, 1.0 + 1e-12, 1.0 + 1e-9, 1.001, 1.0199, 1.0201, 1.05, 1.2, 1.5,
        1.8, 1.95])
    def test_against_closed_form(self, alpha, offset):
        # both sides of the diagonal; the oracle sees the same rounded rho
        for n in (3, 5):
            rho = np.array([1.0 - offset, 1.0 + offset])
            got = kernel_ratio(rho, n, alpha)
            want = [closed_form_oracle(1.0, float(x), n, alpha) for x in rho]
            assert np.max(np.abs(got / want - 1.0)) <= 1e-12

    def test_finite_cusp_patch_seam(self):
        # the near zone ends at r_</r_> = max(FAR_RATIO, 1 - 1.5/n), where
        # the far series takes over; both sides match the oracle
        for n in (3, 4, 7):
            seam = riesz._near_seam(n)
            rho = np.outer([seam, 1.0 / seam], [0.99, 1.01]).ravel()
            for alpha in (0.55, 0.8, 1.0, 1.0 + 1e-9, 1.05, 1.5, 2.5, 3.0,
                          3.5):
                if alpha >= n:
                    continue
                got = kernel_ratio(rho, n, alpha)
                want = [closed_form_oracle(1.0, float(x), n, alpha)
                        for x in rho]
                assert np.max(np.abs(got / want - 1.0)) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.8, 0.99, 1.0, 1.001, 1.5])
    def test_on_diagonal(self, alpha):
        # K(1, 1) is +inf for alpha <= 1 and Gauss's 2F1(a, b; c; 1)
        # otherwise, with no divide or invalid warning on the way
        for n in (3, 5):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = kernel_ratio(np.array([1.0]), n, alpha)[0]
            if alpha <= 1.0:
                assert got == math.inf
            else:
                assert got == pytest.approx(
                    closed_form_oracle(1.0, 1.0, n, alpha), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 4.0, 4.5])
    def test_order_outside_domain(self, alpha):
        # alpha = 0 would take the terminating series, which never ends
        with pytest.raises(ValidationError, match="alpha"):
            kernel_ratio(np.array([0.5, 1.5]), 4, alpha)

    @pytest.mark.parametrize("rho, n, match", [
        (-1.0, 3, "kernel ratios"), (math.nan, 3, "kernel ratios"),
        (np.array([0.5, -2.0, 1.5]), 3, "kernel ratios"),
        (0.5, 2.5, "dimension"), (0.5, "3", "dimension")])
    def test_malformed_input_refused(self, rho, n, match):
        with pytest.raises(ValidationError, match=match):
            kernel_ratio(rho, n, 0.8)

    def test_ratio_range_ends(self):
        # rho = 0 is the kernel's value at the origin, |S^2| at n = 3;
        # rho = inf its limit 0; rho > 1 is the mirrored side of 1/rho
        assert kernel_ratio(0.0, 3, 0.8) == pytest.approx(4.0 * math.pi,
                                                          rel=1e-15)
        assert kernel_ratio(math.inf, 3, 0.8) == 0.0
        assert kernel_ratio(3.0, 3, 0.8) == pytest.approx(
            3.0 ** (0.8 - 3) * kernel_ratio(1.0 / 3.0, 3, 0.8), rel=1e-14)

    def test_scalar_input(self):
        got = kernel_ratio(1.0 + 1e-8, 3, 1.2)
        assert np.ndim(got) == 0
        assert got == pytest.approx(
            closed_form_oracle(1.0, 1.0 + 1e-8, 3, 1.2), rel=1e-12)


class TestKernelRatioWholeDomain:
    # every alpha in (0, n) that is not even, on both sides of the
    # near/far seam (at rho = 1/2 and 2 for n = 3), deep in the far zone,
    # and at 1 -+ 10^-12 .. 10^-2, where scipy's 2F1 was off by up to
    # 1.7e-10 (alpha = 2.5, n = 7) and 4.6e-13 (alpha = 3)
    RHO = np.concatenate((
        [1e-6, 1e-3, 0.1, 0.3, 0.5 * (1.0 - 1e-15), 0.5, 0.5 * (1.0 + 1e-15),
         0.7, 1.4, 2.0 * (1.0 - 1e-15), 2.0, 2.0 * (1.0 + 1e-15), 3.0, 10.0,
         1e3, 1e6],
        1.0 - 10.0 ** np.arange(-12.0, -1.0),
        1.0 + 10.0 ** np.arange(-12.0, -1.0)))

    @pytest.mark.parametrize("n, alpha", [
        (n, alpha) for n in range(3, 8)
        for alpha in (0.3, 0.8, 0.99, 1.0, 1.01, 1.05, 1.5, 1.9, 2.5, 2.9,
                      3.0, 3.1, 3.5, 4.5, 5.5)
        if alpha < n] + [
        # the near zone narrows like 1/n, where its two terms cancel
        (n, alpha) for n in (9, 12, 20) for alpha in (0.3, 1.5, 3.0, 4.5)])
    def test_against_closed_form(self, n, alpha):
        seam = riesz._near_seam(n)
        rho = np.concatenate((self.RHO, np.outer(
            [seam, 1.0 / seam], [1.0 - 1e-15, 1.0, 1.0 + 1e-15]).ravel()))
        got = kernel_ratio(rho, n, alpha)
        want = [closed_form_oracle(1.0, float(x), n, alpha) for x in rho]
        assert np.max(np.abs(got / want - 1.0)) <= 1e-13

    @pytest.mark.parametrize("n, alpha", [(3, 0.8), (5, 2.5), (7, 3.0)])
    def test_log_kernel(self, n, alpha):
        # the cusp rule's kernel, formed from z = ln rho, on both zones
        z = np.concatenate((np.log(self.RHO), [-1e-17, 3e-16]))
        got = riesz._log_kernel(z, n, alpha)
        with mp.workdps(50):
            want = [closed_form_oracle(1.0, mp.exp(mp.mpf(float(x))), n,
                                       alpha) for x in z]
        assert np.max(np.abs(got / want - 1.0)) <= 1e-13

    def test_no_2f1_routine_called(self, monkeypatch):
        # the kernel is its own polynomial sums: an assembly and the
        # alpha > 2 kernel run, with the same numbers, when scipy's 2F1
        # is not there
        g = make_grid(1e-4, 1e4, 512, 3)
        rho = self.RHO
        before = assemble(g, 3, 0.8), kernel_ratio(rho, 5, 2.5)

        def refuse(*args):
            raise AssertionError("scipy.special.hyp2f1 called")

        monkeypatch.setattr(riesz.special, "hyp2f1", refuse)
        after = assemble(g, 3, 0.8), kernel_ratio(rho, 5, 2.5)
        for name in ("base", "band", "far_gather", "far_scatter",
                     "far_carry", "head_response", "tail_series",
                     "tail_kernel"):
            np.testing.assert_array_equal(getattr(after[0], name),
                                          getattr(before[0], name))
        np.testing.assert_array_equal(after[1], before[1])


class TestKernelRatioEvenAlpha:
    # alpha = 2k sums the terminating series: exact up to the diagonal,
    # where scipy's 2F1 was off by up to 2.5e-7 (n = 7, |1 - rho| = 1e-7)
    @pytest.mark.parametrize("n, alpha", (
        [(n, 2.0) for n in range(3, 10)] + [(n, 4.0) for n in range(5, 10)]
        + [(n, 6.0) for n in range(7, 10)]))
    def test_against_closed_form(self, n, alpha):
        offsets = 10.0 ** np.arange(-9, -2)
        rho = np.concatenate(([0.0, 0.1, 1.0, 3.0, 20.0],
                              1.0 - offsets, 1.0 + offsets))
        got = kernel_ratio(rho, n, alpha)
        want = [closed_form_oracle(1.0, float(x), n, alpha) for x in rho]
        assert np.max(np.abs(got / want - 1.0)) <= 1e-14

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 9])
    def test_newton_shell_theorem(self, n):
        rho = np.array([0.0, 0.1, 1.0 - 1e-7, 1.0 - 1e-9, 1.0, 1.0 + 1e-9,
                        1.0 + 1e-7, 3.0, 20.0])
        want = sphere_area(n) * np.maximum(1.0, rho) ** (2 - n)
        np.testing.assert_allclose(kernel_ratio(rho, n, 2.0), want,
                                   rtol=1e-15, atol=0.0)


class TestSeriesCoefficients:
    # the series in t = (r_</r_>)^2 that replaces kernel samples for
    # radii at most FAR_RATIO apart
    @pytest.mark.parametrize("n, alpha",
                             [(3, 0.8), (4, 1.5), (5, 2.5), (7, 4.0)])
    def test_sum_at_far_ratio(self, n, alpha):
        coef = _series_coefficients(n, alpha)
        got = sphere_area(n) * np.sum(
            coef * FAR_RATIO ** (2.0 * np.arange(coef.size)))
        assert got == pytest.approx(float(kernel_ratio(FAR_RATIO, n, alpha)),
                                    rel=1e-15, abs=0.0)
        assert got == pytest.approx(
            closed_form_oracle(1.0, FAR_RATIO, n, alpha), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("n, alpha", [(3, 2.0), (5, 4.0), (7, 4.0),
                                          (7, 6.0), (9, 8.0)])
    def test_terminates_for_even_alpha(self, n, alpha):
        # (1 - alpha/2)_l vanishes from l = k = alpha/2 on
        coef = _series_coefficients(n, alpha)
        assert coef.size == int(alpha) // 2
        with mp.workdps(30):
            want = [mp.rf(mp.mpf(n - alpha) / 2, k) * mp.rf(1 - alpha / 2, k)
                    / (mp.rf(mp.mpf(n) / 2, k) * mp.factorial(k))
                    for k in range(coef.size)]
        np.testing.assert_allclose(coef, [float(c) for c in want],
                                   rtol=1e-15, atol=0.0)
        # ratio 1 takes the same k terms
        assert np.array_equal(_series_coefficients(n, alpha, 1.0), coef)

    @pytest.mark.parametrize("n, alpha", [(3, 0.8), (4, 1.5), (5, 2.5)])
    @pytest.mark.parametrize("ratio", [1.0, 2.0])
    def test_refuses_ratio_one_unless_even(self, n, alpha, ratio):
        # the loop waited for a term below rounding at t >= 1 and never
        # returned
        with pytest.raises(ValidationError, match="ratio < 1"):
            _series_coefficients(n, alpha, ratio)


class TestKernelStructure:
    @given(st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_positivity(self, r, s):
        if r == s:
            return
        a = angular_kernel(r, s, 5, 2.0)
        b = angular_kernel(s, r, 5, 2.0)
        assert a > 0.0
        assert a == pytest.approx(b, rel=1e-12)

    @given(st.floats(min_value=0.2, max_value=5.0),
           st.floats(min_value=0.2, max_value=5.0),
           st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_homogeneity(self, r, s, lam):
        # lam*r and lam*s round independently, which moves |r - s| by up
        # to an ulp and the kernel's |r - s|^(alpha-1) cusp term with it:
        # 1e-8 relative one ulp apart, 1e-11 at the 1e-9 gap kept here
        if abs(r - s) <= 1e-9 * max(r, s):
            return
        base = angular_kernel(r, s, 4, 1.5)
        scaled = angular_kernel(lam * r, lam * s, 4, 1.5)
        assert scaled == pytest.approx(lam ** (1.5 - 4) * base, rel=1e-10)

    def test_diagonal_singular_only_for_low_alpha(self):
        # at r == s the angular integrand behaves like phi^(alpha-2)
        # near zero, so the integral diverges iff alpha <= 1
        with pytest.raises(SingularKernelError):
            angular_kernel(1.0, 1.0, 3, 0.8)
        with pytest.raises(SingularKernelError):
            angular_kernel(2.0, 2.0, 5, 1.0)
        # alpha = 2 diagonal is finite and matches the exact
        # mean-value closed form |S^{n-1}| * max(r, s)^(2-n)
        got = angular_kernel(1.0, 1.0, 5, 2.0)
        assert got == pytest.approx(sphere_area(5), rel=1e-12)

    def test_origin_pair_rejected(self):
        with pytest.raises(ValidationError):
            angular_kernel(0.0, 0.0, 5, 2.0)
        # refused before quad: a NaN radius let IntegrationWarning escape
        # and then raised SingularKernelError
        for r, s in ((math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                     (0.0, math.inf)):
            with pytest.raises(ValidationError, match="finite"):
                angular_kernel(r, s, 3, 0.8)

    @pytest.mark.parametrize("rho", [1e160, 1e300])
    @pytest.mark.parametrize("n, alpha", [(3, 0.8), (3, 2.5), (5, 3.5)])
    def test_huge_ratio(self, n, alpha, rho):
        # 1 + rho^2 overflows; the kernel is |S| rho^(alpha-n) to
        # rounding (1.26e-79 at rho = 1e160, (3, 2.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernel_ratio(np.array([2.0, rho]), n, alpha)
            scalar = kernel_ratio(rho, n, alpha)
        with mp.workdps(30):
            want = float(sphere_area(n) * mp.mpf(rho) ** (alpha - n))
        assert got[1] == pytest.approx(want, rel=1e-14, abs=0.0)
        assert scalar == got[1] and np.ndim(scalar) == 0
        assert got[0] == kernel_ratio(2.0, n, alpha)

    def test_zero_radius_finite(self):
        # kernel against the origin reduces to |S^{n-1}| r^(alpha-n)
        got = angular_kernel(2.0, 0.0, 5, 2.0)
        assert got == pytest.approx(sphere_area(5) * 2.0 ** (2 - 5),
                                    rel=1e-12)

    def test_kernel_ratio_matches_kernel(self):
        # kernel_ratio is the unit-radius profile of the homogeneous kernel
        r, s = 2.0, 0.6
        got = angular_kernel(r, s, 5, 2.0)
        want = r ** (2.0 - 5) * kernel_ratio(s / r, 5, 2.0)
        assert got == pytest.approx(want, rel=1e-12)
