"""Log-radial grids: node placement, exact moment weights, scaling."""

import mpmath as mp
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

    def test_log_step_computed_once(self):
        g = make_grid(1e-4, 1e4, 512, 4)
        first = g.log_step
        assert g.log_step is first
        assert first.hex() == (np.log(g.r_max / g.r_min)
                               / (g.count - 1)).hex()

    def test_edges_bracket_nodes(self):
        # every cell, the two end cells too, is the log cell of width h
        # centred on its node: the outer edges lie half a step beyond
        # the domain ends, and interior edges separate consecutive nodes
        # strictly
        g = make_grid(1e-2, 1e2, 32, 3)
        half = np.exp(0.5 * g.log_step)
        assert g.edges[0] == pytest.approx(g.r_min / half, rel=1e-15, abs=0.0)
        assert g.edges[-1] == pytest.approx(g.r_max * half, rel=1e-15, abs=0.0)
        assert np.all(g.edges[:-1] < g.nodes)
        assert np.all(g.edges[1:] > g.nodes)
        # the nodes of geomspace and the edges of exp((j - 1/2) h)
        # round apart by a few ulps of |ln r|
        np.testing.assert_allclose(np.sqrt(g.edges[:-1] * g.edges[1:]),
                                   g.nodes, rtol=1e-14, atol=0.0)

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

    @pytest.mark.parametrize("r_min, r_max", [("1e-4", 1e4), (True, 1e4),
                                              (1e-4, "1e4"),
                                              (1e-4, np.array([1e4]))])
    def test_malformed_endpoint_rejected(self, r_min, r_max):
        # a string raised a raw TypeError; True built a grid from 1.0
        with pytest.raises(ValidationError, match="finite real number"):
            make_grid(r_min, r_max, 64, 3)

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
        # the closed form r^n 2 sinh(n h/2)/n of the cells centred on the
        # float nodes; a difference of rounded edge powers was 1.3e-13
        # off here
        g = make_grid(1e-4, 1e4, 4096, 5)
        with mp.workdps(30):
            h = mp.log(mp.mpf(g.r_max) / mp.mpf(g.r_min)) / (g.count - 1)
            scale = 2 * mp.sinh(5 * h / 2) / 5
            want = np.array([float(mp.mpf(r) ** 5 * scale)
                             for r in g.nodes])
        np.testing.assert_allclose(g.weights, want, rtol=1e-14, atol=0.0)

    def test_constant_integrand_exact(self):
        # sum of weights = integral of s^(n-1) over the cells
        g = make_grid(1e-2, 1e2, 200, 4)
        total = g.weights.sum()
        exact = (g.edges[-1] ** 4 - g.edges[0] ** 4) / 4.0
        assert total == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_smooth_integrand_second_order(self):
        # integral of r^(-2) s^3 ds over the cells, [1e-1, 1e1] and half
        # a log step beyond each end, in n=4
        errs = []
        for count in (64, 128):
            g = make_grid(1e-1, 1e1, count, 4)
            exact = (g.edges[-1] ** 2 - g.edges[0] ** 2) / 2.0
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
