"""Discrete radial potential operator: adjointness, accuracy, extensions."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from rieszlab.errors import (DivergentTailError, TruncationWarning,
                             ValidationError)
from rieszlab.grid import make_grid
from rieszlab.riesz import (MAX_DENSE_COUNT, TAIL_RANGE_CAP, RadialField,
                            _head_response, _pair_cell_quadrature,
                            _pair_integrand, apply_extended, assemble,
                            field_integral, kernel_ratio, power_law_constant,
                            tail_response)


@pytest.fixture(autouse=True)
def _quiet_truncation():
    # several applies legitimately reach the tail-range cap; the one
    # test asserting the warning uses pytest.warns, which still records
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        yield


@pytest.fixture(scope="module")
def op5():
    grid = make_grid(1e-4, 1e4, 256, 5)
    return assemble(grid, 5, 2.0)


@pytest.fixture(scope="module")
def op4():
    grid = make_grid(1e-4, 1e4, 256, 4)
    return assemble(grid, 4, 2.0)


class TestAssembly:
    def test_matrix_nonnegative_finite(self, op5):
        assert np.all(np.isfinite(op5.matrix))
        assert np.all(op5.matrix >= 0.0)

    def test_adjoint_with_weights(self, op5):
        # <M f, g w> = <f w, M g>: the bilinear form w_i M_ij is symmetric
        m = op5.grid.weights[:, None] * op5.matrix
        asym = np.max(np.abs(m - m.T)) / np.max(np.abs(m))
        assert asym <= 1e-8

    def test_low_order_assembly(self):
        grid = make_grid(1e-2, 1e2, 64, 3)
        op = assemble(grid, 3, 0.8)
        assert np.all(np.isfinite(op.matrix))
        assert np.all(op.matrix >= 0.0)

    def test_assemble_validates(self):
        grid = make_grid(1e-2, 1e2, 32, 3)
        with pytest.raises(ValidationError):
            assemble(grid, 3, 3.0)
        with pytest.raises(ValidationError):
            assemble("grid", 3, 1.0)

    def test_dense_count_guard(self):
        # the guard reads the count alone: the small arrays behind this
        # grid would break any step that ran before it
        grid = replace(make_grid(1e-2, 1e2, 32, 3), count=MAX_DENSE_COUNT + 1)
        with pytest.raises(ValidationError, match="nodes"):
            assemble(grid, 3, 2.0)


def pair_oracle(grid, n, alpha, i, j):
    """Double-cell integral of cells ``i`` and ``j``, pair by pair.

    Windows straddling the kernel cusp use the assembly's adaptive path;
    the others are integrated by ``quad``, split at the kinks of the
    overlap weight.
    """
    le = np.log(grid.edges)
    la, lb, lc, ld = le[i], le[i + 1], le[j], le[j + 1]
    zlo, zhi = lc - lb, ld - la
    if zlo < 0.0 < zhi:
        return _pair_cell_quadrature(la, lb, lc, ld, n, alpha)

    kinks = sorted(k for k in (lc - la, ld - lb) if zlo < k < zhi)
    val, _ = integrate.quad(
        lambda z: float(_pair_integrand(z, la, lb, lc, ld, n, alpha)),
        zlo, zhi, points=kinks or None, epsabs=0.0, epsrel=1e-13, limit=200)
    return val


class TestBoundaryStrips:
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("n, alpha", [(3, 0.8), (4, 1.5), (5, 2.0)])
    def test_against_pairwise_quadrature(self, n, alpha):
        grid = make_grid(1e-4, 1e4, 64, n)
        op = assemble(grid, n, alpha)
        w, count = grid.weights, grid.count
        for i in (0, count - 1):
            want = [pair_oracle(grid, n, alpha, i, j) for j in range(count)]
            np.testing.assert_allclose(w[i] * op.matrix[i], want,
                                       rtol=1e-12, atol=0.0)
            # one integral per pair, corner (0, count-1) included; each
            # side divides it by one weight and multiplies by the same
            # weight again, so the two agree to two roundings
            row, col = w[i] * op.matrix[i], w * op.matrix[:, i]
            assert np.all(np.abs(row - col)
                          <= 2.0 * np.spacing(np.maximum(row, col)))
        # the interior offset-1 pair ends at the cusp like (0, 1)
        np.testing.assert_allclose(w[1] * op.matrix[1, 2],
                                   pair_oracle(grid, n, alpha, 1, 2),
                                   rtol=1e-12, atol=0.0)


class TestPowerLawAccuracy:
    def test_power_law_identity_5d(self, op5):
        grid = op5.grid
        out = apply_extended(op5, grid.nodes ** -3.0, 3.0)
        want = power_law_constant(5, 2.0, 3.0) * grid.nodes ** -1.0
        sl = grid.interior_slice()
        err = np.max(np.abs(out[sl] / want[sl] - 1.0))
        assert err <= 1e-4

    def test_power_law_identity_4d(self, op4):
        grid = op4.grid
        out = apply_extended(op4, grid.nodes ** -2.5, 2.5)
        want = power_law_constant(4, 2.0, 2.5) * grid.nodes ** -0.5
        sl = grid.interior_slice()
        err = np.max(np.abs(out[sl] / want[sl] - 1.0))
        assert err <= 1e-3

    def test_measured_slope(self, op5):
        grid = op5.grid
        out = apply_extended(op5, grid.nodes ** -3.0, 3.0)
        sl = grid.interior_slice()
        slope = np.polyfit(np.log(grid.nodes[sl]), np.log(out[sl]), 1)[0]
        assert slope == pytest.approx(2.0 - 3.0, abs=1e-4)

    def test_scaling_covariance(self, op5):
        # the potential of r^-b on a dilated grid is the dilated potential
        grid = op5.grid
        scaled = grid.scaled(3.0)
        op_scaled = assemble(scaled, 5, 2.0)
        beta = 3.0
        out = apply_extended(op5, grid.nodes ** -beta, beta)
        out_scaled = apply_extended(op_scaled, scaled.nodes ** -beta, beta)
        ratio = out_scaled / (3.0 ** (2.0 - beta) * out)
        assert np.max(np.abs(ratio - 1.0)) <= 1e-12


class TestExtensions:
    def test_zero_field_maps_to_zero(self, op5):
        out = apply_extended(op5, np.zeros(op5.grid.count), 3.0)
        assert np.all(out == 0.0)

    def test_monotone_in_the_field(self, op5):
        # pointwise larger input gives pointwise larger potential
        grid = op5.grid
        f = grid.nodes ** -3.0
        out1 = apply_extended(op5, f, 3.0)
        out2 = apply_extended(op5, 1.5 * f, 3.0)
        assert np.all(out2 >= out1)
        assert np.allclose(out2, 1.5 * out1, rtol=1e-13)

    def test_divergent_tail_rejected(self, op5):
        with pytest.raises(DivergentTailError):
            tail_response(op5, 1.9)   # tail exponent <= alpha diverges

    def test_truncation_warning_emitted(self, op5):
        with pytest.warns(TruncationWarning):
            tail_response(op5, 2.05)


def tail_oracle(op, i, tau, m, upper=math.inf):
    """Adaptive quadrature of the bare tail response at node ``i``.

    ``int_{r_max}^{upper} K(r_i, s) (s/r_max)^-tau (ln s/ln r_max)^m
    s^(n-1) ds``, split at ``2 r_max`` so the kernel peak at ``s = r_max``
    and the decay beyond are resolved separately.
    """
    grid, n, alpha = op.grid, op.n, op.alpha
    r_i, r_max, lr = grid.nodes[i], grid.r_max, math.log(grid.r_max)

    def integrand(s):
        return (r_i ** (alpha - n) * float(kernel_ratio(s / r_i, n, alpha))
                * (s / r_max) ** -tau * (math.log(s) / lr) ** m
                * s ** (n - 1))

    total = 0.0
    for lo, hi in ((r_max, 2.0 * r_max), (2.0 * r_max, upper)):
        val, _ = integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-11,
                                limit=400)
        total += val
    return total


def head_oracle(grid, n, alpha, i):
    """Adaptive quadrature of the bare head response at node ``i``,
    ``int_0^{r_min} K(r_i, s) s^(n-1) ds``."""
    r_i = grid.nodes[i]

    def integrand(s):
        return (r_i ** (alpha - n) * float(kernel_ratio(s / r_i, n, alpha))
                * s ** (n - 1))

    val, _ = integrate.quad(integrand, 0.0, grid.r_min, epsabs=0.0,
                            epsrel=1e-13, limit=400)
    return val


#: Node 0 sits on the kernel cusp at s = r_min, and the graded head
#: mesh resolves it only to 3e-5 (alpha = 0.8) and 3e-9 (alpha = 1.5).
_HEAD_CUSP = pytest.mark.xfail(
    strict=True, reason="head mesh under-resolves node 0's kernel cusp")


class TestHeadResponse:
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("i", [0, 1, 32, 63])
    @pytest.mark.parametrize("n, alpha", [(3, 0.8), (4, 1.5), (5, 2.0)])
    def test_against_adaptive_quadrature(self, n, alpha, i, request):
        if i == 0 and alpha < 2.0:
            request.applymarker(_HEAD_CUSP)
        # alpha = 0.8 at node 0 fails even this looser bound
        rtol = 1e-8 if (i, alpha) == (0, 0.8) else 1e-10
        grid = make_grid(1e-4, 1e4, 64, n)
        got = _head_response(grid, n, alpha)[i]
        want = head_oracle(grid, n, alpha, i)
        assert got == pytest.approx(want, rel=rtol, abs=0.0)


class TestTailResponse:
    @pytest.mark.parametrize("m", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("tau", [2.05, 4.0, 6.0, 18.0])
    def test_against_adaptive_quadrature(self, op4, tau, m):
        # tau = alpha + 0.05 is cut at the range cap (and says so); the
        # other tails are integrated out to infinity by the oracle
        capped = tau - op4.alpha < 0.1
        if capped:
            with pytest.warns(TruncationWarning):
                got = tail_response(op4, tau, m)
        else:
            got = tail_response(op4, tau, m)
        upper = TAIL_RANGE_CAP * op4.grid.r_max if capped else math.inf
        count = op4.grid.count
        for i in (0, count // 2, count - 1):
            want = tail_oracle(op4, i, tau, m, upper)
            assert got[i] == pytest.approx(want, rel=1e-7)

    def test_operator_state_bounded(self, op4):
        # every call uses the one table built at assembly; nothing is
        # cached per tail exponent
        def state():
            return {k: v.shape if isinstance(v, np.ndarray) else repr(v)
                    for k, v in vars(op4).items()}

        before = state()
        for tau in np.linspace(2.05, 20.0, 200):
            tail_response(op4, float(tau), 1.0)
        assert state() == before
        assert op4.tail_kernel.shape[0] == op4.grid.count


class TestFieldIntegral:
    def test_constant_field_exact(self):
        # constant integrand: the cell weights are exact moments, so the
        # head + core reproduce 2^3 * rMax^5/5 to rounding
        grid = make_grid(1e-1, 1e5, 64, 5)
        f = RadialField(grid, 2.0 * np.ones(grid.count))
        got = field_integral(f, power=3.0, include_tail=False)
        assert got == pytest.approx(8.0 * grid.r_max ** 5 / 5.0, rel=1e-13)

    def test_power_law_closed_form_converges(self):
        # int_0^inf f(s)^4 s^4 ds with f = r^-2 and the constant head
        # model: rMin^-8 * rMin^5/5 + rMin^-3/3; node sampling of the
        # steep integrand converges at second order in the log step
        want = 0.1 ** -8.0 * 0.1 ** 5 / 5.0 + 0.1 ** -3.0 / 3.0
        errs = []
        for count in (128, 512):
            grid = make_grid(1e-1, 1e5, count, 5)
            f = RadialField(grid, grid.nodes ** -2.0, tail_exponent=2.0)
            errs.append(abs(field_integral(f, power=4.0) / want - 1.0))
        assert errs[1] <= 3e-3
        assert errs[1] <= 0.4 * errs[0]

    def test_head_and_tail_toggles(self):
        # shallow decay makes both extensions visibly positive
        grid = make_grid(1e-1, 1e3, 128, 5)
        f = RadialField(grid, grid.nodes ** -1.3, tail_exponent=1.3)
        full = field_integral(f, power=4.0)
        no_head = field_integral(f, power=4.0, include_head=False)
        no_tail = field_integral(f, power=4.0, include_tail=False)
        assert no_head < full
        assert no_tail < full
        head = f.values[0] ** 4 * grid.r_min ** 5 / 5.0
        tail = f.values[-1] ** 4 * grid.r_max ** 5 / (4 * 1.3 - 5.0)
        assert full - no_head == pytest.approx(head, rel=1e-10)
        assert full - no_tail == pytest.approx(tail, rel=1e-10)

    def test_divergent_power_rejected(self):
        grid = make_grid(1e-1, 1e5, 128, 5)
        f = RadialField(grid, grid.nodes ** -2.0, tail_exponent=2.0)
        with pytest.raises(DivergentTailError):
            field_integral(f, power=2.0)   # 2*2 = 4 <= n = 5

    def test_weight_exponent_exact(self):
        # f = r with power 2 and weight -2 gives the integrand s^(n-1)
        # exactly, isolating the weight plumbing from quadrature error
        grid = make_grid(1e-2, 1e2, 64, 5)
        f = RadialField(grid, grid.nodes.copy())
        got = field_integral(f, power=2.0, weight_exponent=-2.0,
                             include_tail=False)
        want = (grid.r_min ** 5 / 3.0
                + (grid.r_max ** 5 - grid.r_min ** 5) / 5.0)
        assert got == pytest.approx(want, rel=1e-13)


class TestRadialField:
    def test_validation(self):
        grid = make_grid(1e-2, 1e2, 32, 5)
        with pytest.raises(ValidationError):
            RadialField(grid, np.ones(31))
        with pytest.raises(ValidationError):
            RadialField(grid, -np.ones(32))
        with pytest.raises(ValidationError):
            RadialField(grid, np.ones(32), tail_log_power=2)
