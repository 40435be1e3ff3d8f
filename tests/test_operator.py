"""Discrete radial potential operator: adjointness, accuracy, extensions."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from rieszlab.errors import (DivergentTailError, TruncationWarning,
                             ValidationError)
from rieszlab.grid import make_grid
from rieszlab.riesz import (TAIL_RANGE_CAP, RadialField, apply_extended,
                            apply_with_tail, assemble, field_integral,
                            kernel_ratio, power_law_constant, tail_response)


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

    def test_apply_with_tail_exponent_rule(self, op5):
        grid = op5.grid
        f = RadialField(grid, grid.nodes ** -3.0, tail_exponent=3.0)
        out = apply_with_tail(op5, f)
        # potential of an r^-3 source decays like r^(alpha-3) = r^-1,
        # capped by the fast rate n - alpha = 3
        assert out.tail_exponent == pytest.approx(1.0)
        sl = grid.interior_slice()
        want = power_law_constant(5, 2.0, 3.0) * grid.nodes ** -1.0
        assert np.max(np.abs(out.values[sl] / want[sl] - 1.0)) <= 1e-4


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

    def test_with_values(self):
        grid = make_grid(1e-2, 1e2, 32, 5)
        f = RadialField(grid, np.ones(32), tail_exponent=3.0)
        g = f.with_values(2.0 * np.ones(32))
        assert g.tail_exponent == 3.0
        assert np.all(g.values == 2.0)
