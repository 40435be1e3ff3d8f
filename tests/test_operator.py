"""Discrete radial potential operator: adjointness, accuracy, extensions."""

import math
import tracemalloc
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, special

from rieszlab import riesz
from rieszlab.errors import DivergentTailError, ValidationError
from rieszlab.grid import make_grid
from rieszlab.riesz import (_END_NODES, _END_WEIGHTS, _TAIL_BUILD_ROWS,
                            FAR_RATIO, MAX_DENSE_COUNT, RadialField,
                            _cusp_rule, _far_pairs, _head_response,
                            _log_kernel, _pair_cells, _pair_integrand,
                            _series_coefficients, apply_extended, assemble,
                            field_integral, kernel_ratio, power_law_constant,
                            sphere_area, tail_response)


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

    @pytest.mark.parametrize("r_min, r_max, n, alpha",
                             [(1e-100, 1e100, 3, 0.8), (1e-50, 1e50, 5, 2.0)])
    def test_power_range_guard(self, r_min, r_max, n, alpha):
        # make_grid accepts these (r^n stays in range), but r^(n+alpha)
        # overflows at r_max and underflows at r_min
        grid = make_grid(r_min, r_max, 64, n)
        with pytest.raises(ValidationError, match="double range"):
            assemble(grid, n, alpha)


def pair_oracle(grid, n, alpha, i, j):
    """Double-cell integral of cells ``i`` and ``j``, pair by pair.

    ``quad`` over the log-ratio window, split at the kernel cusp ``z = 0``
    and at the kinks of the overlap weight where they fall inside it.
    """
    le = np.log(grid.edges)
    la, lb, lc, ld = le[i], le[i + 1], le[j], le[j + 1]
    zlo, zhi = lc - lb, ld - la
    points = sorted({z for z in (0.0, lc - la, ld - lb) if zlo < z < zhi})
    val, _ = integrate.quad(
        lambda z: float(_pair_integrand(z, la, lb, lc, ld, n, alpha)),
        zlo, zhi, points=points or None, epsabs=0.0, epsrel=1e-13, limit=200)
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
        # interior offsets 1 (ending at the cusp like (0, 1)) and 0
        # (straddling it like (0, 0))
        for j in (2, 1):
            np.testing.assert_allclose(w[1] * op.matrix[1, j],
                                       pair_oracle(grid, n, alpha, 1, j),
                                       rtol=1e-12, atol=0.0)


def cusp_pair_quadrature(cells, n, alpha):
    """Adaptive ``quad`` of a pair whose window straddles the cusp, split
    there at ``epsrel`` 1e-11: an oracle apart from the fixed cusp rule."""
    la, lb, lc, ld = cells
    val, _ = integrate.quad(
        lambda z: float(_pair_integrand(z, la, lb, lc, ld, n, alpha)),
        lc - lb, ld - la, points=[0.0], epsabs=0.0, epsrel=1e-11, limit=400)
    return val


def cusp_pairs(op):
    """The three straddling pair integrals of ``op``, each with its cells
    in the coordinates ``assemble`` integrates it in and the factor that
    scales it back: offset 0 and the two boundary cells with
    themselves."""
    grid, h = op.grid, op.grid.log_step
    edges, last, npa = grid.edges, grid.count - 1, op.n + op.alpha
    return [(op.band[0], (-0.5 * h, 0.5 * h, -0.5 * h, 0.5 * h), 1.0),
            (op.boundary[0, 0], _pair_cells(edges, 0, 0), edges[0] ** npa),
            (op.boundary[1, -1], _pair_cells(edges, last, last),
             edges[last] ** npa)]


#: The offset-0 pair integral ``op.band[0]`` at n = 3 on ``make_grid(1e-4,
#: 1e4, count, 3)``, keyed by ``(alpha, count)``: ``int_{-h}^{h} K(1,
#: e^z) e^{3z} W(z) dz`` over the cells ``(-h/2, h/2)``.  Made offline
#: with mpmath at 60 digits: tanh-sinh ``mp.quad`` on ``[-h, 0]`` and
#: ``[0, h]``, split at ``h 2^-k`` for k in (1, 3, 6, 10, 20, 40, 80),
#: with ``2F1`` at ``w = 1/cosh(z)^2`` in enough extra digits that ``1 -
#: w`` keeps 60 of them down to ``z = 0``.  Adaptive ``quad`` on double
#: ``rho = e^z``, which rounds to 1 on ``|z| < 1e-16``, is off by 8.6e-14,
#: 1.3e-11 and 2.4e-10.
CUSP_PAIR_MPMATH = {(0.55, 64): 4.12301720766866972816177637617,
                    (0.3, 64): 9.11293917555379630002384651878,
                    (0.3, 4096): 0.0408159235888059578423287766583}


class TestCuspPairs:
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("n, alpha, count", [
        (3, 0.8, 64), (3, 0.8, 4096), (4, 1.0, 64), (4, 1.5, 64),
        (4, 1.5, 4096), (5, 2.0, 64), (5, 2.0, 4096), (5, 3.5, 64),
        (5, 3.5, 4096)])
    def test_against_adaptive_quadrature(self, n, alpha, count):
        op = assemble(make_grid(1e-4, 1e4, count, n), n, alpha)
        for got, cells, scale in cusp_pairs(op):
            want = scale * cusp_pair_quadrature(cells, n, alpha)
            assert got == pytest.approx(want, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("alpha, count", sorted(CUSP_PAIR_MPMATH))
    def test_against_mpmath(self, alpha, count):
        op = assemble(make_grid(1e-4, 1e4, count, 3), 3, alpha)
        assert op.band[0] == pytest.approx(CUSP_PAIR_MPMATH[alpha, count],
                                           rel=1e-14, abs=0.0)

    def test_domain_edge(self):
        # alpha = 0.3: the cusp ~ |z|^-0.7 holds a share ~ eps^0.3 of a
        # pair within |z| < eps, where e^z rounds to 1
        grid = make_grid(1e-4, 1e4, 512, 3)
        m = grid.weights[:, None] * assemble(grid, 3, 0.3).matrix
        assert np.all(np.isfinite(m)) and np.all(m > 0.0)
        assert np.all(np.abs(m - m.T)
                      <= 2.0 * np.spacing(np.maximum(m, m.T)))


def newton_pair(edges, n, i, j):
    """Exact double-cell integral ``w_i M[i, j]`` at alpha = 2.

    Newton's shell theorem, ``K(s, t) = |S| max(s, t)^(2-n)``, splits
    the integral into power moments of the cells: ``|S| (b^n - a^n)/n
    (d^2 - c^2)/2`` for a lower cell ``[a, b]`` and an upper ``[c, d]``,
    and one closed form for a cell with itself.  Summed in 40 digits
    on the float edges.
    """
    i, j = sorted((i, j))
    with mp.workdps(40):
        area = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        a, b = mp.mpf(edges[i]), mp.mpf(edges[i + 1])
        if i < j:
            c, d = mp.mpf(edges[j]), mp.mpf(edges[j + 1])
            return float(area * (b ** n - a ** n) / n * (d * d - c * c) / 2)
        return float(2 * area / n * ((b ** (n + 2) - a ** (n + 2)) / (n + 2)
                                     - a ** n * (b * b - a * a) / 2))


class TestNewtonOperator:
    @pytest.mark.parametrize("count", [64, 512])
    def test_rows_against_power_moments(self, count):
        grid = make_grid(1e-4, 1e4, count, 5)
        op = assemble(grid, 5, 2.0)
        for i in (0, 1, 2, count // 2, count - 2, count - 1):
            want = [newton_pair(grid.edges, 5, i, j) for j in range(count)]
            np.testing.assert_allclose(grid.weights[i] * op.matrix[i], want,
                                       rtol=3e-13, atol=0.0)

    def test_last_cell_on_a_fine_grid(self):
        # the half-width last cell, ln r = 9.2, h/2 = 4.5e-3: the overlap
        # weight must round at the scale of the cell, not of ln r
        count = 2048
        grid = make_grid(1e-4, 1e4, count, 5)
        op = assemble(grid, 5, 2.0)
        last = count - 1
        got = grid.weights[last] * op.matrix[last, last]
        assert got == pytest.approx(
            newton_pair(grid.edges, 5, last, last), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("count", [512, 2048])
    def test_far_boundary_pairs_to_rounding(self, count):
        # for alpha = 2 every boundary pair of distinct cells, the
        # touching ones included, is a product of cell moments on the
        # float edges: no loss growing with |ln(r_j/r_i)|/h, no samples
        grid = make_grid(1e-4, 1e4, count, 5)
        op = assemble(grid, 5, 2.0)
        e, last = grid.edges, count - 1
        cols = np.arange(count)
        for i in (0, last):
            off = cols != i
            want = [newton_pair(e, 5, i, j) for j in cols[off]]
            np.testing.assert_allclose(op.boundary[min(i, 1), off], want,
                                       rtol=4e-15, atol=0.0)

    @pytest.mark.parametrize("count", [64, 4096])
    def test_even_alpha_samples_only_the_cusp_cells(self, count,
                                                    monkeypatch):
        # the k-term series is the whole kernel: the only samples are
        # the cusp rule's, for the three cells taken with themselves
        points = {"kernel_ratio": 0, "_log_kernel": 0}
        for name in points:
            def counted(z, n, alpha, _name=name, _inner=getattr(riesz, name)):
                points[_name] += np.size(z)
                return _inner(z, n, alpha)
            monkeypatch.setattr(riesz, name, counted)
        assemble(make_grid(1e-4, 1e4, count, 5), 5, 2.0)
        assert points == {"kernel_ratio": 0, "_log_kernel": 3 * 588}


def series_pair(lower, upper, n, alpha):
    """Double-cell integral of a lower cell ``[a, b]`` and an upper cell
    ``[c, d]``, ``b < c``, from the kernel's series in 40 digits.

    ``|S| sum_l c_l (b^p - a^p)/p (d^q - c^q)/q`` with ``p = 2l + n``,
    ``q = alpha - 2l`` and ``c_l`` from rising factorials, summed until
    the terms fall below 1e-36 of the total.
    """
    with mp.workdps(40):
        a, b = (mp.mpf(x) for x in lower)
        c, d = (mp.mpf(x) for x in upper)
        al = mp.mpf(alpha)
        total = mp.mpf(0)
        for k in range(2000):
            coef = (mp.rf((n - al) / 2, k) * mp.rf(1 - al / 2, k)
                    / (mp.rf(mp.mpf(n) / 2, k) * mp.factorial(k)))
            if coef == 0:
                break
            p, q = 2 * k + n, al - 2 * k
            term = coef * (b ** p - a ** p) / p * (d ** q - c ** q) / q
            total += term
            if abs(term) < mp.mpf(10) ** -36 * abs(total):
                break
        area = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        return float(area * total)


def ideal_pair(grid, i, d):
    """Series oracle of the interior pair ``(i, i + d)`` on the ideal
    cells of width h about ``r_i`` and ``r_i e^{dh}``, which the
    assembled interior is built from."""
    r, h = mp.mpf(grid.nodes[i]), mp.mpf(grid.log_step)
    with mp.workdps(40):
        return ((r * mp.exp(-h / 2), r * mp.exp(h / 2)),
                (r * mp.exp((d - mp.mpf(0.5)) * h),
                 r * mp.exp((d + mp.mpf(0.5)) * h)))


class TestFarField:
    @pytest.mark.parametrize("count", [64, 512])
    @pytest.mark.parametrize("n, alpha", [(3, 0.8), (4, 1.5), (6, 4.0)])
    def test_far_entries_against_power_moments(self, n, alpha, count):
        grid = make_grid(1e-4, 1e4, count, n)
        op = assemble(grid, n, alpha)
        e, w, last = grid.edges, grid.weights, count - 1
        step = 1 if count == 64 else 7
        cols = np.arange(count)
        # boundary strips, on the grid's own cells
        for i, far in ((0, e[1] / e[cols] <= FAR_RATIO),
                       (last, e[cols + 1] / e[last] <= FAR_RATIO)):
            for j in cols[far][::step]:
                lo, hi = sorted((i, j))
                want = series_pair(e[lo:lo + 2], e[hi:hi + 2], n, alpha)
                assert w[i] * op.matrix[i, j] == pytest.approx(
                    want, rel=4e-15, abs=0.0)
        # interior rows, on ideal cells about the nodes
        h = grid.log_step
        for i in (1, count // 4):
            for d in range(2, last - i)[::step]:
                if math.exp(-(d - 1) * h) <= FAR_RATIO:
                    want = series_pair(*ideal_pair(grid, i, d), n, alpha)
                    assert w[i] * op.matrix[i, i + d] == pytest.approx(
                        want, rel=2e-14, abs=0.0)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("n, alpha", [(3, 0.8), (5, 2.5)])
    def test_band_seam(self, n, alpha):
        # the last pair on panels and the first on the series agree with
        # the same oracle, in the interior and in both strips; the whole
        # near band and a few pairs beyond it agree with per-pair quad
        count = 512
        grid = make_grid(1e-4, 1e4, count, n)
        op = assemble(grid, n, alpha)
        e, w, last, h = grid.edges, grid.weights, count - 1, grid.log_step
        seam = next(d for d in range(2, count)
                    if math.exp(-(d - 1) * h) <= FAR_RATIO)
        i = count // 2
        for d in (seam - 1, seam):
            assert w[i] * op.matrix[i, i + d] == pytest.approx(
                series_pair(*ideal_pair(grid, i, d), n, alpha),
                rel=5e-14, abs=0.0)
        got = w[i] * op.matrix[i, i + 2:i + seam + 3]
        want = [pair_oracle(grid, n, alpha, i, i + d)
                for d in range(2, seam + 3)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        j0 = next(j for j in range(2, count) if e[1] / e[j] <= FAR_RATIO)
        jl = next(j for j in range(last, 0, -1)
                  if e[j + 1] / e[last] <= FAR_RATIO)
        for i, js in ((0, (j0 - 1, j0)), (last, (jl, jl + 1))):
            for j in js:
                lo, hi = sorted((i, j))
                assert w[i] * op.matrix[i, j] == pytest.approx(
                    series_pair(e[lo:lo + 2], e[hi:hi + 2], n, alpha),
                    rel=5e-14, abs=0.0)
        for i, js in ((0, range(2, j0 + 3)), (last, range(jl - 2, last))):
            want = [pair_oracle(grid, n, alpha, i, j) for j in js]
            np.testing.assert_allclose(w[i] * op.matrix[i, js], want,
                                       rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n, alpha", [(3, 0.8), (6, 4.0)])
    def test_weighted_adjointness_to_rounding(self, n, alpha):
        # one integral per pair: each side divides it by a weight and
        # multiplies the same weight back
        grid = make_grid(1e-4, 1e4, 512, n)
        m = grid.weights[:, None] * assemble(grid, n, alpha).matrix
        assert np.all(np.abs(m - m.T)
                      <= 2.0 * np.spacing(np.maximum(m, m.T)))

    def test_head_newton_every_node(self):
        # alpha = 2: int_0^{r_min} |S| max(r_i, s)^(2-n) s^(n-1) ds
        grid = make_grid(1e-4, 1e4, 512, 5)
        want = sphere_area(5) * grid.nodes ** -3.0 * grid.r_min ** 5 / 5.0
        np.testing.assert_allclose(_head_response(grid, 5, 2.0), want,
                                   rtol=2e-15, atol=0.0)

    @pytest.mark.parametrize("n, alpha", [(3, 0.8), (4, 2.0), (5, 2.5)])
    def test_tail_against_full_table(self, n, alpha):
        # every node, the far ones too: the count x Q kernel table of
        # the end mesh on [r_max, 2 r_max] (the cusp rule at the last
        # node), plus the series from 2 r_max on, summed term by term
        grid = make_grid(1e-4, 1e4, 256, n)
        op = assemble(grid, n, alpha)
        r, r_max = grid.nodes, grid.r_max
        s = r_max * np.exp(_END_NODES)
        table = (kernel_ratio(s[None, :] / r[:-1, None], n, alpha)
                 * _END_WEIGHTS)
        u, wu = _cusp_rule(alpha)
        y, wy = math.log(2.0) * u, math.log(2.0) * wu
        coef = _series_coefficients(n, alpha)
        l2 = 2.0 * np.arange(coef.size)
        for tau in (alpha + 0.3, 2.0 * alpha, 6.0, 18.0):
            sampled = np.append(
                table @ np.exp((n - tau) * _END_NODES),
                (_log_kernel(y, n, alpha) * np.exp((n - tau) * y)) @ wy)
            series = sphere_area(n) * r_max ** alpha * (
                (r[:, None] / r_max) ** l2 * 2.0 ** (alpha - l2 - tau)
                / (tau - alpha + l2)) @ coef
            want = r ** (alpha - n) * sampled * r_max ** n + series
            np.testing.assert_allclose(tail_response(op, tau), want,
                                       rtol=1e-14, atol=0.0)


def dense_reference(op):
    """The dense operator filled entry by entry from the pair integrals
    the operator holds: the stored boundary rows, ``base[min(i, j)] *
    fam[|i - j|]`` inside, with ``fam`` the stored band and, past it,
    one :func:`_far_pairs` sum per offset, divided by the weights."""
    grid, h, inner = op.grid, op.grid.log_step, op.grid.count - 2
    d = np.arange(op.band.size, inner)
    fam = np.concatenate((op.band, _far_pairs(
        math.exp(0.5 * h), h, np.exp((d - 0.5) * h), h, op.n, op.alpha)))
    i = np.arange(inner)
    sym = np.empty((grid.count, grid.count))
    sym[1:-1, 1:-1] = (op.base[np.minimum.outer(i, i)]
                       * fam[np.abs(np.subtract.outer(i, i))])
    sym[[0, -1]] = op.boundary
    sym[:, [0, -1]] = op.boundary.T
    return sym / grid.weights[:, None]


class TestMatrixFreeApply:
    @pytest.mark.parametrize("count", [64, 512])
    @pytest.mark.parametrize("n, alpha",
                             [(3, 0.8), (4, 1.5), (4, 2.0), (5, 2.0)])
    def test_against_dense_reference(self, n, alpha, count):
        grid = make_grid(1e-4, 1e4, count, n)
        op = assemble(grid, n, alpha)
        ref = dense_reference(op)
        rng = np.random.default_rng(count)
        for f in (grid.nodes ** -2.5, rng.random(count)):
            np.testing.assert_allclose(op.apply(f), ref @ f, rtol=1e-13,
                                       atol=0.0)

    @pytest.mark.parametrize("r_min, r_max, count, n, alpha",
                             [(1e-40, 1e40, 512, 3, 0.8),
                              (1e-60, 1e60, 400, 3, 1.5)])
    def test_wide_grid_in_blocks(self, r_min, r_max, count, n, alpha):
        # 80 and 120 decades: the scale tables of the high series terms
        # span more than the double range, so the sweeps run in blocks
        # linked by carries
        grid = make_grid(r_min, r_max, count, n)
        op = assemble(grid, n, alpha)
        assert op.far_gather.shape[2] > 1
        f = grid.nodes ** -2.5
        got = op.apply(f)
        assert np.all(np.isfinite(got)) and np.all(got > 0.0)
        np.testing.assert_allclose(got, dense_reference(op) @ f, rtol=1e-13,
                                   atol=0.0)

    @pytest.mark.parametrize("n, alpha",
                             [(3, 0.8), (4, 1.5), (4, 2.0), (5, 2.0)])
    def test_weighted_adjointness(self, n, alpha):
        # <f, w A g> = <w A f, g>, through apply alone
        grid = make_grid(1e-4, 1e4, 512, n)
        op = assemble(grid, n, alpha)
        rng = np.random.default_rng(7)
        f, g = rng.random(grid.count), rng.random(grid.count)
        left = np.dot(f, grid.weights * op.apply(g))
        right = np.dot(grid.weights * op.apply(f), g)
        assert left == pytest.approx(right, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("count, r_max", [
        (c, r) for r in (2.0, 1e8) for c in range(16, 25)] + [(2048, 1e8)])
    def test_positive_input_positive_output(self, count, r_max):
        # on [1, 2] the whole interior lies within a factor 2, so there
        # are no far pairs; on [1, 1e8] the band is a few offsets wide
        grid = make_grid(1.0, r_max, count, 3)
        op = assemble(grid, 3, 0.8)
        if r_max == 2.0:
            assert op.band.size >= count - 2
        for f in (grid.nodes ** -2.5, np.ones(count)):
            out = op.apply(f)
            assert np.all(np.isfinite(out)) and np.all(out > 0.0)

    def test_rejects_malformed_values(self, op5):
        count = op5.grid.count
        for bad in (np.ones(count - 1), np.ones((count, 1)), 1.0,
                    np.full(count, np.nan), np.full(count, np.inf),
                    np.r_[np.ones(count - 1), -np.inf]):
            with pytest.raises(ValidationError):
                op5.apply(bad)
            with pytest.raises(ValidationError):
                apply_extended(op5, bad, 3.0)

    def test_matrix_is_apply_and_kept(self, op4):
        f = op4.grid.nodes ** -2.5
        np.testing.assert_allclose(op4.matrix @ f, op4.apply(f),
                                   rtol=1e-14, atol=0.0)
        assert op4.matrix is op4.matrix

    def test_no_dense_allocation(self):
        # assembly and one apply at N=2048 stay far below the 34 MB of a
        # count x count matrix (measured peak 4.0 MB)
        grid = make_grid(1e-4, 1e4, 2048, 3)
        tracemalloc.start()
        try:
            op = assemble(grid, 3, 0.8)
            apply_extended(op, grid.nodes ** -2.5, 2.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid.count * grid.count * 8 / 4


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

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_non_finite_tail_exponent_rejected(self, op5, tau):
        # a NaN exponent gave NaN at every node
        with pytest.raises(ValidationError):
            tail_response(op5, tau)
        with pytest.raises(ValidationError):
            apply_extended(op5, np.ones(op5.grid.count), tau)

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("tau", [2.05, 2.5, 3.0, 6.0, 18.0])
    def test_tail_newton_every_node(self, n, tau):
        # alpha = 2: K(r_i, s) = |S| s^(2-n) for s >= r_i (Newton's shell
        # theorem), so every node sees |S| r_max^2 / (tau - 2)
        grid = make_grid(1e-4, 1e4, 256, n)
        got = tail_response(assemble(grid, n, 2.0), tau)
        want = sphere_area(n) * grid.r_max ** 2 / (tau - 2.0)
        np.testing.assert_allclose(got, want, rtol=2e-15, atol=0.0)

    def test_slow_tail_reaches_infinity(self):
        # r^-2.5 at (4, 2) decays like r^-0.5; a cut at the range cap
        # left -7.5e-6 r^0.5 of it
        grid = make_grid(1e-4, 1e4, 8192, 4)
        out = apply_extended(assemble(grid, 4, 2.0), grid.nodes ** -2.5, 2.5)
        want = power_law_constant(4, 2.0, 2.5) * grid.nodes ** -0.5
        for r in (1.0, 10.0, 100.0):
            i = int(np.argmin(np.abs(np.log(grid.nodes / r))))
            assert out[i] == pytest.approx(want[i], rel=1e-6, abs=0.0)


def tail_oracle(op, i, tau):
    """Adaptive quadrature of the bare tail response at node ``i``.

    ``int_{r_max}^inf K(r_i, s) (s/r_max)^-tau s^(n-1) ds`` in ``y =
    ln(s/r_max)``, where it is ``r_max^alpha g(rho) e^{(alpha-tau) y}``
    with ``rho = s/r_i`` and ``g(rho) = rho^(n-alpha) K(1, rho)``: split
    at ``ln 2``, so the kernel peak at ``y = 0`` is resolved apart, and
    at ``ln 1e6``, with the last piece running to infinity.
    For ``rho >= 2``, ``g`` is ``|S| 2F1((n-alpha)/2, 1-alpha/2; n/2;
    rho^-2)``, which stays finite where ``rho^(n-alpha)`` overflows.
    """
    grid, n, alpha = op.grid, op.n, op.alpha
    lead = grid.r_max / grid.nodes[i]

    def integrand(y):
        rho = lead * math.exp(y) if y < 700.0 else math.inf
        if rho < 2.0:
            g = float(kernel_ratio(rho, n, alpha)) * rho ** (n - alpha)
        else:
            g = sphere_area(n) * special.hyp2f1(
                0.5 * (n - alpha), 1.0 - 0.5 * alpha, 0.5 * n, rho ** -2.0)
        return grid.r_max ** alpha * g * math.exp((alpha - tau) * y)

    cap = math.log(1e6)
    return sum(integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12,
                              limit=400)[0]
               for lo, hi in ((0.0, math.log(2.0)),
                              (math.log(2.0), cap), (cap, math.inf)))


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


class TestHeadResponse:
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("i", [0, 1, 32, 63])
    @pytest.mark.parametrize("n, alpha", [(3, 0.8), (4, 1.5), (5, 2.0)])
    def test_against_adaptive_quadrature(self, n, alpha, i):
        # node 0 sits on the kernel cusp at s = r_min
        grid = make_grid(1e-4, 1e4, 64, n)
        got = _head_response(grid, n, alpha)[i]
        want = head_oracle(grid, n, alpha, i)
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)


def check_tail_oracle(op, tau):
    got = tail_response(op, tau)
    for i in (0, op.grid.count // 2, op.grid.count - 2, op.grid.count - 1):
        assert got[i] == pytest.approx(tail_oracle(op, i, tau), rel=1e-12,
                                       abs=0.0)


class TestTailResponse:
    @pytest.mark.parametrize("tau", [2.05, 4.0, 6.0, 18.0])
    def test_against_adaptive_quadrature(self, op4, tau):
        # the oracle runs to infinity; at tau = alpha + 0.05, 0.4% of
        # the tail's weight lies past the range cap
        check_tail_oracle(op4, tau)

    @pytest.mark.parametrize("tau", [2.55, 4.0, 6.0, 18.0])
    def test_non_even_alpha_against_adaptive_quadrature(self, tau):
        check_tail_oracle(assemble(make_grid(1e-4, 1e4, 256, 5), 5, 2.5),
                          tau)

    @pytest.mark.parametrize("n, alpha", [(3, 0.8), (4, 1.5)])
    def test_last_node_on_the_cusp(self, n, alpha):
        # node count-1 = r_max sees the kernel cusp at s = r_max, an
        # infinite one for alpha < 1: the cusp rule resolves it
        op = assemble(make_grid(1e-4, 1e4, 256, n), n, alpha)
        for tau in (alpha + 0.05, 6.0, 18.0):
            check_tail_oracle(op, tau)

    @pytest.mark.filterwarnings(
        "ignore::scipy.integrate.IntegrationWarning")
    def test_build_block_seam_at_both_ends(self):
        # 617 near nodes per end take their kernel rows in blocks of
        # _TAIL_BUILD_ROWS; check the two nodes either side of the first
        # seam.  The head's rows are those of the mirrored grid, which
        # run from node near-1 down, so its seam is at nodes seam-1, seam
        n, alpha = 3, 0.8
        op = assemble(make_grid(1.0, 10.0, 2048, n), n, alpha)
        count, near = op.grid.count, op.tail_kernel.shape[0] + 1
        assert near == 617 and near > _TAIL_BUILD_ROWS
        seam = near - _TAIL_BUILD_ROWS
        tail = tail_response(op, 3.0)
        for i in (count - seam - 1, count - seam):
            assert tail[i] == pytest.approx(tail_oracle(op, i, 3.0),
                                            rel=1e-12, abs=0.0)
        for i in (seam - 1, seam):
            assert op.head_response[i] == pytest.approx(
                head_oracle(op.grid, n, alpha, i), rel=1e-10, abs=0.0)

    def test_operator_state_bounded(self, op4):
        # every call uses the tables built at assembly; nothing is
        # cached per tail exponent, and only the nodes within FAR_RATIO
        # of r_max, about ln 2 / h of them, keep kernel samples: none
        # for even alpha
        op3 = assemble(make_grid(1e-4, 1e4, 256, 3), 3, 0.8)
        for op in (op4, op3):
            def state():
                return {k: v.shape if isinstance(v, np.ndarray) else repr(v)
                        for k, v in vars(op).items()}

            before = state()
            for tau in np.linspace(op.alpha + 0.05, 20.0, 200):
                tail_response(op, float(tau))
            assert state() == before
            near = op.tail_kernel.shape[0] + (op.tail_end is not None)
            assert near <= math.log(1.0 / FAR_RATIO) / op.grid.log_step + 1.0
            assert op.tail_series.shape[0] == op.grid.count
        assert op4.tail_kernel.shape[0] == 0 and op4.tail_end is None
        assert op3.tail_kernel.shape[0] > 0


class TestFieldIntegral:
    def test_constant_field_exact(self):
        # f = 2 up to rMax and 2 (s/rMax)^-2 beyond: the cell weights are
        # exact moments, so core + head + tail reproduce
        # 2^3 rMax^5 (1/5 + 1/(3*2 - 5)) to rounding
        grid = make_grid(1e-1, 1e5, 64, 5)
        f = RadialField(grid, 2.0 * np.ones(grid.count), tail_exponent=2.0)
        got = field_integral(f, power=3.0)
        assert got == pytest.approx(8.0 * grid.r_max ** 5 * (0.2 + 1.0),
                                    rel=1e-13)

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
        # shallow decay makes both extensions visibly positive: the total
        # is the grid quadrature plus the closed-form head and tail
        grid = make_grid(1e-1, 1e3, 128, 5)
        f = RadialField(grid, grid.nodes ** -1.3, tail_exponent=1.3)
        core = np.dot(grid.weights, f.values ** 4)
        head = f.values[0] ** 4 * grid.r_min ** 5 / 5.0
        tail = f.values[-1] ** 4 * grid.r_max ** 5 / (4 * 1.3 - 5.0)
        assert min(head, tail) > 0.01 * core
        assert field_integral(f, power=4.0) == pytest.approx(
            core + head + tail, rel=1e-14)

    def test_divergent_power_rejected(self):
        grid = make_grid(1e-1, 1e5, 128, 5)
        f = RadialField(grid, grid.nodes ** -2.0, tail_exponent=2.0)
        with pytest.raises(DivergentTailError):
            field_integral(f, power=2.0)   # 2*2 = 4 <= n = 5

    @pytest.mark.parametrize("power", [math.nan, 0.0, -1.0, math.inf])
    def test_malformed_power_refused(self, power):
        # malformed input, not a divergent tail: NaN gave a NaN
        # integral, 0 and -1 a DivergentTailError
        grid = make_grid(1e-1, 1e5, 128, 5)
        f = RadialField(grid, grid.nodes ** -2.0, tail_exponent=6.0)
        with pytest.raises(ValidationError, match="power"):
            field_integral(f, power=power)


class TestRadialField:
    def test_validation(self):
        grid = make_grid(1e-2, 1e2, 32, 5)
        with pytest.raises(ValidationError):
            RadialField(grid, np.ones(31))
        with pytest.raises(ValidationError):
            RadialField(grid, -np.ones(32))
        with pytest.raises(ValidationError):
            RadialField(grid, np.ones(32), tail_log_power=2)
        # a NaN tail exponent gave a NaN field integral
        for tau in (math.nan, math.inf):
            with pytest.raises(ValidationError):
                RadialField(grid, np.ones(32), tail_exponent=tau)
