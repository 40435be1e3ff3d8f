"""Log-radial grids: node placement, exact moment weights, scaling."""

import numpy as np
import pytest

from rieszlab.errors import ValidationError
from rieszlab.grid import make_grid


class TestConstruction:
    def test_endpoints_exact(self):
        g = make_grid(1e-4, 1e4, 64, 5)
        assert g.nodes[0] == 1e-4
        assert g.nodes[-1] == 1e4
        assert g.count == 64
        assert g.nodes.shape == (64,)
        assert g.edges.shape == (65,)

    def test_nodes_strictly_increasing_log_spaced(self):
        g = make_grid(1e-3, 1e3, 48, 4)
        ratios = g.nodes[1:] / g.nodes[:-1]
        assert np.all(ratios > 1.0)
        assert np.allclose(ratios, ratios[0], rtol=1e-12)
        assert g.log_step == pytest.approx(np.log(1e6) / 47, rel=1e-13)

    def test_edges_bracket_nodes(self):
        # boundary edges are clipped to the domain ends, so the first and
        # last nodes sit on their outer edges; interior edges separate
        # consecutive nodes strictly
        g = make_grid(1e-2, 1e2, 32, 3)
        assert g.edges[0] == g.r_min == g.nodes[0]
        assert g.edges[-1] == g.r_max == g.nodes[-1]
        assert np.all(g.edges[1:-1] > g.nodes[:-1])
        assert np.all(g.edges[1:-1] < g.nodes[1:])

    def test_validation(self):
        with pytest.raises(ValidationError):
            make_grid(1.0, 0.5, 32, 3)
        with pytest.raises(ValidationError):
            make_grid(0.0, 1.0, 32, 3)
        with pytest.raises(ValidationError):
            make_grid(1e-2, 1e2, 8, 3)
        with pytest.raises(ValidationError):
            make_grid(1e-2, 1e2, 32, 0)
        # n = 3.5 gave a grid with n == 3 whose weights integrate s^2.5;
        # count = 20.5 raised a raw TypeError
        with pytest.raises(ValidationError, match="whole number"):
            make_grid(1e-4, 1e4, 32, 3.5)
        with pytest.raises(ValidationError, match="whole number"):
            make_grid(1e-4, 1e4, 20.5, 3)

    def test_infinite_endpoint_rejected(self):
        # an infinite r_max would put NaN into the log-spaced nodes
        with pytest.raises(ValidationError):
            make_grid(1e-4, np.inf, 32, 3)

    def test_weight_overflow_rejected(self):
        # r^3 overflows at 1e300 and underflows at 1e-300, so the exact
        # cell moments would be inf/NaN and zero
        with pytest.raises(ValidationError):
            make_grid(1e-300, 1e300, 32, 3)


class TestWeights:
    def test_weights_are_exact_cell_moments(self):
        g = make_grid(1e-2, 1e2, 32, 5)
        want = (g.edges[1:] ** 5 - g.edges[:-1] ** 5) / 5.0
        assert np.allclose(g.weights, want, rtol=1e-14)

    def test_constant_integrand_exact(self):
        # sum of weights = integral of s^(n-1) over [rMin, rMax]
        g = make_grid(1e-2, 1e2, 200, 4)
        total = g.weights.sum()
        exact = (g.r_max ** 4 - g.r_min ** 4) / 4.0
        assert total == pytest.approx(exact, rel=1e-13)

    def test_smooth_integrand_second_order(self):
        # integral of r^(-2) s^3 ds over [1e-1, 1e1] in n=4
        exact = (10.0 ** 2 - 0.1 ** 2) / 2.0
        errs = []
        for count in (64, 128):
            g = make_grid(1e-1, 1e1, count, 4)
            approx = float(np.dot(g.weights, g.nodes ** -2.0))
            errs.append(abs(approx / exact - 1.0))
        # roughly quartering with doubled resolution
        assert errs[1] < errs[0] / 3.0


class TestSlicesAndScaling:
    def test_interior_slice_central_half(self):
        g = make_grid(1e-4, 1e4, 100, 3)
        sl = g.interior_slice()
        assert sl == slice(25, 75)
        assert make_grid(1e-4, 1e4, 102, 3).interior_slice() == slice(26, 76)

    def test_scaled_preserves_structure(self):
        g = make_grid(1e-3, 1e3, 40, 5)
        s = g.scaled(2.5)
        assert np.allclose(s.nodes, 2.5 * g.nodes, rtol=1e-15)
        assert s.log_step == pytest.approx(g.log_step, rel=1e-13)
        # weights scale like lambda^n
        assert np.allclose(s.weights, 2.5 ** 5 * g.weights, rtol=1e-12)

    def test_scaled_validates(self):
        g = make_grid(1e-3, 1e3, 40, 5)
        with pytest.raises(ValidationError):
            g.scaled(0.0)
