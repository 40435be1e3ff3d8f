"""Discrete radial potential operator: adjointness, accuracy, extensions."""

import math
import tracemalloc
from dataclasses import replace
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from rieszlab import riesz
from rieszlab.analysis import check_fast_limits
from rieszlab.errors import DivergentTailError, ValidationError
from rieszlab.exponents import Params
from rieszlab.grid import _cell_weights, make_grid
from rieszlab.riesz import (FAR_RATIO, MAX_DENSE_COUNT, RadialField,
                            _overlap_weight, _series_coefficients,
                            apply_extended, assemble, field_integral,
                            kernel_ratio, power_law_constant, sphere_area,
                            tail_response)
from rieszlab.solver import singular_solution, solve_picard


def dense(op):
    """The operator as a dense ``count x count`` array, one
    ``op.apply`` per column."""
    count = op.grid.count
    out = np.empty((count, count))
    unit = np.zeros(count)
    for j in range(count):
        unit[j] = 1.0
        out[:, j] = op.apply(unit)
        unit[j] = 0.0
    return out


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
        m = dense(op5)
        assert np.all(np.isfinite(m))
        assert np.all(m >= 0.0)

    def test_adjoint_with_weights(self, op5):
        # <M f, g w> = <f w, M g>: the bilinear form w_i M_ij is symmetric
        m = op5.grid.weights[:, None] * dense(op5)
        asym = np.max(np.abs(m - m.T)) / np.max(np.abs(m))
        assert asym <= 1e-8

    def test_low_order_assembly(self):
        grid = make_grid(1e-2, 1e2, 64, 3)
        m = dense(assemble(grid, 3, 0.8))
        assert np.all(np.isfinite(m))
        assert np.all(m >= 0.0)

    def test_assemble_validates(self):
        grid = make_grid(1e-2, 1e2, 32, 3)
        with pytest.raises(ValidationError):
            assemble(grid, 3, 3.0)
        with pytest.raises(ValidationError):
            assemble("grid", 3, 1.0)

    def test_operator_needs_every_table(self):
        # with field defaults this built an operator whose apply died
        # with an AttributeError
        with pytest.raises(TypeError):
            riesz.KernelOperator(make_grid(1e-2, 1e2, 32, 3))

    @pytest.mark.parametrize("alpha", [True, "2"])
    def test_malformed_order_refused(self, alpha):
        # True built an operator with alpha=True; "2" raised a TypeError
        with pytest.raises(ValidationError, match="alpha"):
            assemble(make_grid(1e-2, 1e2, 32, 4), 4, alpha)

    def test_whole_float_dimension_stored_as_int(self):
        # n = 4.0 was stored as given, a float
        op = assemble(make_grid(1e-2, 1e2, 32, 4), 4.0, 2.0)
        assert type(op.n) is int and op.n == 4

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


def sampled_integrand(z, la, lb, lc, ld, n, alpha):
    """The reduced double-cell integrand at one log-ratio ``z``, its
    kernel sampled as ``kernel_ratio(e^z)``.  The kernel's zone sums
    (``_far_kernel``, ``_near_kernel``, ``_near_2f1``) are those of the
    operator's ``_log_kernel``; what is independent here is the zone
    split, the mapping to ``rho`` and the quadrature.  The mpmath
    ``closed_form_oracle`` of ``test_kernel.py`` pins the kernel
    itself."""
    return float(kernel_ratio(np.exp(z), n, alpha) * np.exp(n * z)
                 * _overlap_weight(z, la, lb, lc, ld, n + alpha))


def pair_oracle(grid, n, alpha, i, j):
    """Double-cell integral of cells ``i`` and ``j``, pair by pair (see
    :func:`log_cell_pair`)."""
    le = np.log(grid.edges)
    return log_cell_pair(le[i], le[i + 1], le[j], le[j + 1], n, alpha)


def log_cell_pair(la, lb, lc, ld, n, alpha):
    """Double-cell integral of the log cells ``(la, lb)`` and ``(lc,
    ld)``, by ``quad`` over the log-ratio window, split at the kernel
    cusp ``z = 0`` and at the kinks of the overlap weight where they
    fall inside it."""
    zlo, zhi = lc - lb, ld - la
    points = sorted({z for z in (0.0, lc - la, ld - lb) if zlo < z < zhi})
    val, _ = integrate.quad(
        sampled_integrand, zlo, zhi, args=(la, lb, lc, ld, n, alpha),
        points=points or None, epsabs=0.0, epsrel=1e-13, limit=200)
    return val


def cusp_pair_quadrature(cells, n, alpha):
    """Adaptive ``quad`` of a pair whose window straddles the cusp, split
    there at ``epsrel`` 1e-11: an oracle apart from the fixed cusp rule."""
    la, lb, lc, ld = cells
    val, _ = integrate.quad(
        sampled_integrand, lc - lb, ld - la, args=(la, lb, lc, ld, n, alpha),
        points=[0.0], epsabs=0.0, epsrel=1e-11, limit=400)
    return val


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


#: The pair of touching cells that ends at the cusp on ``make_grid(1e-4,
#: 1e4, count, 3)``, keyed by ``(alpha, count)``: ``op.band[1]``, offset
#: 1 on the cells ``(-h/2, h/2)`` and ``(h/2, 3h/2)``.  Made offline with
#: mpmath at 110 digits: tanh-sinh ``mp.quad`` on each piece of the window
#: between the cusp and the kinks of the overlap weight, split at ``2^-k``
#: of the piece toward the cusp, with the ``z < 2^-60`` of a piece left
#: out.  Graded Gauss panels on double ``rho = e^z``, which rounds ``1 -
#: rho`` near the cusp, miss the (0.3, 512) value by 7.0e-11.
TOUCHING_PAIR_MPMATH = {(0.3, 512): 0.14262765946413200415,
                        (0.8, 512): 0.049424668802717496814,
                        (0.3, 4096): 0.0094180194031838842859,
                        (0.8, 4096): 0.0013867591369127472359}


class TestCuspPairs:
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("n, alpha, count", [
        (3, 0.8, 64), (3, 0.8, 4096), (4, 1.0, 64), (4, 1.5, 64),
        (4, 1.5, 4096), (5, 2.0, 64), (5, 2.0, 4096), (5, 3.5, 64),
        (5, 3.5, 4096)])
    def test_against_adaptive_quadrature(self, n, alpha, count):
        # offset 0, the one pair that straddles the cusp
        op = assemble(make_grid(1e-4, 1e4, count, n), n, alpha)
        h = op.grid.log_step
        want = cusp_pair_quadrature((-0.5 * h, 0.5 * h, -0.5 * h, 0.5 * h),
                                    n, alpha)
        assert op.band[0] == pytest.approx(want, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("alpha, count", sorted(CUSP_PAIR_MPMATH))
    def test_against_mpmath(self, alpha, count):
        op = assemble(make_grid(1e-4, 1e4, count, 3), 3, alpha)
        assert op.band[0] == pytest.approx(CUSP_PAIR_MPMATH[alpha, count],
                                           rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "alpha, count", sorted(TOUCHING_PAIR_MPMATH),
        ids=["%g" % a if c == 512 else "%g-%d" % (a, c)
             for a, c in sorted(TOUCHING_PAIR_MPMATH)])
    def test_touching_pairs_against_mpmath(self, alpha, count):
        op = assemble(make_grid(1e-4, 1e4, count, 3), 3, alpha)
        assert op.band[1] == pytest.approx(
            TOUCHING_PAIR_MPMATH[alpha, count], rel=1e-14, abs=0.0)

    def test_domain_edge(self):
        # alpha = 0.3: the cusp ~ |z|^-0.7 holds a share ~ eps^0.3 of a
        # pair within |z| < eps, where e^z rounds to 1
        grid = make_grid(1e-4, 1e4, 512, 3)
        m = grid.weights[:, None] * dense(assemble(grid, 3, 0.3))
        assert np.all(np.isfinite(m)) and np.all(m > 0.0)
        assert np.all(np.abs(m - m.T)
                      <= 2.0 * np.spacing(np.maximum(m, m.T)))


def ideal_pair(grid, i, d):
    """The cells of the pair ``(i, i + d)``, of width h about ``r_i``
    and ``r_i e^{dh}``, in 40 digits: the cells the assembled operator
    is built from."""
    r, h = mp.mpf(grid.nodes[i]), mp.mpf(grid.log_step)
    with mp.workdps(40):
        return ((r * mp.exp(-h / 2), r * mp.exp(h / 2)),
                (r * mp.exp((d - mp.mpf(0.5)) * h),
                 r * mp.exp((d + mp.mpf(0.5)) * h)))


def newton_pair(grid, n, i, j):
    """Exact double-cell integral ``w_i M[i, j]`` at alpha = 2.

    Newton's shell theorem, ``K(s, t) = |S| max(s, t)^(2-n)``, splits
    the integral into power moments of the cells: ``|S| (b^n - a^n)/n
    (d^2 - c^2)/2`` for a lower cell ``[a, b]`` and an upper ``[c, d]``,
    and one closed form for a cell with itself.  Summed in 40 digits
    on the cells of :func:`ideal_pair`.
    """
    i, j = sorted((i, j))
    (a, b), (c, d) = ideal_pair(grid, i, j - i)
    with mp.workdps(40):
        area = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        if i < j:
            return float(area * (b ** n - a ** n) / n * (d * d - c * c) / 2)
        return float(2 * area / n * ((b ** (n + 2) - a ** (n + 2)) / (n + 2)
                                     - a ** n * (b * b - a * a) / 2))


class TestNewtonOperator:
    @pytest.mark.parametrize("count", [64, 512])
    def test_rows_against_power_moments(self, count):
        grid = make_grid(1e-4, 1e4, count, 5)
        m = dense(assemble(grid, 5, 2.0))
        for i in (0, 1, 2, count // 2, count - 2, count - 1):
            want = [newton_pair(grid, 5, i, j) for j in range(count)]
            np.testing.assert_allclose(grid.weights[i] * m[i], want,
                                       rtol=3e-13, atol=0.0)

    def test_last_cell_on_a_fine_grid(self):
        # the last cell, ln r = 9.2, h = 9.0e-3: the overlap weight must
        # round at the scale of the cell, not of ln r
        count = 2048
        grid = make_grid(1e-4, 1e4, count, 5)
        op = assemble(grid, 5, 2.0)
        last = count - 1
        got = grid.weights[last] * op.apply(np.eye(1, count, last)[0])[last]
        assert got == pytest.approx(
            newton_pair(grid, 5, last, last), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("count", [64, 4096])
    def test_even_alpha_samples_only_the_cusp_cells(self, count,
                                                    monkeypatch):
        # the k-term series is the whole kernel: the only samples are
        # the cusp rule's, for offset 0, a cell taken with itself
        points = {"kernel_ratio": 0, "_log_kernel": 0}
        for name in points:
            def counted(z, n, alpha, _name=name, _inner=getattr(riesz, name)):
                points[_name] += np.size(z)
                return _inner(z, n, alpha)
            monkeypatch.setattr(riesz, name, counted)
        assemble(make_grid(1e-4, 1e4, count, 5), 5, 2.0)
        assert points == {"kernel_ratio": 0, "_log_kernel": 588}


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


class TestFarField:
    @pytest.mark.parametrize("count", [64, 512])
    @pytest.mark.parametrize("n, alpha", [(3, 0.8), (4, 1.5), (6, 4.0)])
    def test_far_entries_against_power_moments(self, n, alpha, count):
        grid = make_grid(1e-4, 1e4, count, n)
        m = dense(assemble(grid, n, alpha))
        w, h = grid.weights, grid.log_step
        step = 1 if count == 64 else 7
        # rows 0 and count/4 out to the last column, on ideal cells
        # about the nodes
        for i in (0, count // 4):
            for d in range(2, count - i)[::step]:
                if math.exp(-(d - 1) * h) <= FAR_RATIO:
                    want = series_pair(*ideal_pair(grid, i, d), n, alpha)
                    assert w[i] * m[i, i + d] == pytest.approx(
                        want, rel=2e-14, abs=0.0)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("n, alpha", [(3, 0.8), (5, 2.5)])
    def test_band_seam(self, n, alpha):
        # the last pair on panels and the first on the series agree with
        # the same oracle; the whole near band and a few pairs beyond it
        # agree with per-pair quad
        count = 512
        grid = make_grid(1e-4, 1e4, count, n)
        m = dense(assemble(grid, n, alpha))
        w, h = grid.weights, grid.log_step
        seam = next(d for d in range(2, count)
                    if math.exp(-(d - 1) * h) <= FAR_RATIO)
        i = count // 2
        for d in (seam - 1, seam):
            assert w[i] * m[i, i + d] == pytest.approx(
                series_pair(*ideal_pair(grid, i, d), n, alpha),
                rel=5e-14, abs=0.0)
        got = w[i] * m[i, i + 2:i + seam + 3]
        want = [pair_oracle(grid, n, alpha, i, i + d)
                for d in range(2, seam + 3)]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n, alpha", [(3, 0.8), (6, 4.0)])
    def test_weighted_adjointness_to_rounding(self, n, alpha):
        # one integral per pair: each side divides it by a weight and
        # multiplies the same weight back
        grid = make_grid(1e-4, 1e4, 512, n)
        m = grid.weights[:, None] * dense(assemble(grid, n, alpha))
        assert np.all(np.abs(m - m.T)
                      <= 2.0 * np.spacing(np.maximum(m, m.T)))

    def test_head_newton_every_node(self):
        # alpha = 2: K(s, t) = |S| t^(2-n) for s below the inner edge
        # e = r_min e^{-h/2} <= t (Newton's shell theorem), so the head
        # averaged over cell i is |S| e^n/n int_cell t dt / w_i, with
        # int_cell t dt = r_i^2 sinh(h)
        grid = make_grid(1e-4, 1e4, 512, 5)
        want = (sphere_area(5) * grid.edges[0] ** 5 / 5.0 * grid.nodes ** 2
                * math.sinh(grid.log_step) / grid.weights)
        np.testing.assert_allclose(assemble(grid, 5, 2.0).head_response, want,
                                   rtol=2e-15, atol=0.0)


#: ``(n, alpha, count)`` on ``make_grid(1e-4, 1e4, count, n)``: non-even
#: operators whose series band and short-series pairs are checked.
DEEP_CASES = [(3, 0.8, 4096), (5, 2.5, 2048), (4, 1.5, 512), (7, 3.5, 1024)]

#: Panel breaks of a window off the cusp, as fractions of its width: six
#: uniform panels, with a break on the kink of the overlap weight.
UNIFORM_PANELS = np.linspace(0.0, 1.0, 7)


def cusp_pairs(cells, n, alpha):
    """Double-cell integrals of the pairs whose log-ratio window ``[lc -
    lb, ld - la]`` meets the cusp ``z = 0``, for the ``4 x P`` array of
    log-cells ``(la, lb, lc, ld)``: the rule the operator took for
    offsets 0 and 1 before the cusp cell joined its lattice.  From the
    cusp to the nearer kink of the overlap weight a pair takes the cusp
    rule, and one Gauss panel on each stretch beyond; a cell with itself
    is twice its half ``[0, lb - la]`` on the cusp rule alone, its
    integrand being even in ``z``."""
    u, wu = riesz._cusp_rule(alpha)
    la, lb, lc, ld = cells
    zlo, zhi = lc - lb, ld - la
    fold = (zlo < 0.0) & (zhi > 0.0)
    rim = ~fold
    side = np.where(zhi > 0.0, 1.0, -1.0)
    near, far, end = np.sort(np.abs(np.where(
        fold, zhi, (lc - la, ld - lb, zlo + zhi))), axis=0)
    t, wt = riesz._gauss_panels(np.stack((near, far, end), axis=1)[rim])
    rows = np.arange(near.size)
    owner = np.concatenate((np.repeat(rows, u.size),
                            np.repeat(rows[rim], t.shape[1])))
    z = np.concatenate(((side * near)[:, None] * u, side[rim, None] * t), None)
    vals = (riesz._log_kernel(z, n, alpha) * np.exp(n * z)
            * _overlap_weight(z, *cells[:, owner], n + alpha))
    cut = near.size * u.size
    out = np.where(fold, 2.0, 1.0) * near * (
        vals[:cut].reshape(near.size, u.size) @ wu)
    out[rim] += np.sum(vals[cut:].reshape(t.shape) * wt, axis=-1)
    return out


def band_per_pair(h, n, alpha):
    """:func:`riesz._band` with every window off the cusp sampled on its
    own six Gauss panels, the oracle of the shared lattice: the cusp
    rule of :func:`cusp_pairs` on offsets 0 and 1, one panel sum per
    pair on the rest of the sampled offsets, and the series sums past
    them."""
    ratio = riesz._series_ratio(alpha)
    gap = np.exp(-np.arange(int(-math.log(ratio * ratio) / h) + 3) * h)
    sampled = 1 + np.count_nonzero(gap > ratio)
    width = 1 + np.count_nonzero(gap > ratio * ratio)
    dh = np.arange(sampled) * h
    cells = np.array(np.broadcast_arrays(-0.5 * h, 0.5 * h, dh - 0.5 * h,
                                         dh + 0.5 * h))
    zlo, zhi = cells[2] - cells[1], cells[3] - cells[0]
    cusp = (zlo <= 0.0) & (zhi >= 0.0)
    out = np.empty(sampled)
    out[cusp] = cusp_pairs(cells[:, cusp], n, alpha)
    rest = ~cusp
    z, wts = riesz._gauss_panels(zlo[rest, None]
                                 + (zhi - zlo)[rest, None] * UNIFORM_PANELS)
    out[rest] = np.sum(riesz._log_kernel(z, n, alpha) * np.exp(n * z)
                       * _overlap_weight(z, *cells[:, rest, None], n + alpha)
                       * wts, axis=-1)
    return np.concatenate((out, riesz._series_pairs(
        np.arange(sampled, width), h, n, alpha, ratio).sum(axis=1)))


class TestDeepCut:
    @pytest.mark.parametrize("n, alpha, count", DEEP_CASES)
    def test_series_band_against_sampled_pairs(self, n, alpha, count):
        # the band runs to the first offset past ratio 1/4; its offsets
        # past FAR_RATIO are series sums, and sampled on the lattice of
        # the offsets before them they agree to rounding (worst 8.7e-16,
        # at (3, 0.8) and (7, 3.5))
        grid = make_grid(1e-4, 1e4, count, n)
        op = assemble(grid, n, alpha)
        h, width = grid.log_step, op.band.size
        assert math.exp(-(width - 1) * h) <= FAR_RATIO ** 2
        assert math.exp(-(width - 2) * h) > FAR_RATIO ** 2
        d = np.arange(1, width)
        d = d[np.exp(-(d - 1) * h) <= FAR_RATIO]
        assert d.size > 0.4 * width
        np.testing.assert_allclose(
            op.band[d], riesz._lattice_pairs(width, h, n, alpha)[d],
            rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n, alpha, count",
                             [(3, 0.8, 4096), (3, 0.3, 4096), (5, 2.5, 2048),
                              (4, 2.0, 1024), (5, 2.0, 4096)])
    def test_lattice_against_windows_sampled_alone(self, n, alpha, count):
        # the windows off the cusp share one lattice of samples, each
        # formerly its own six panels: no offset moves by more than
        # 5e-14 (worst 1.2e-14, at (3, 0.8) and (3, 0.3)).  The cusp
        # cell [0, h] is the lattice's first cell, sampled once for
        # offsets 0 and 1, and band[:2] moves by rounding (worst
        # 1.8e-16 here): offset 1's upper half takes three panels of
        # width h/3 where the old rule took one of width h, and each
        # half of the cusp cell is its own dot product where the old
        # rule contracted both cusp pairs in one matrix product.  An
        # even-alpha band, offset 0 alone, was one dot then too and
        # keeps its bits
        h = make_grid(1e-4, 1e4, count, n).log_step
        got, want = riesz._band(h, n, alpha), band_per_pair(h, n, alpha)
        if alpha % 2.0 == 0.0:
            assert got.size == 1 and np.array_equal(got, want)
        np.testing.assert_allclose(got[:2], want[:2], rtol=2e-15, atol=0.0)
        np.testing.assert_allclose(got, want, rtol=5e-14, atol=0.0)

    @pytest.mark.parametrize("n, alpha, terms",
                             [(3, 0.8, 13), (5, 2.5, 11), (7, 3.5, 11)])
    def test_far_tables_hold_the_short_series(self, n, alpha, terms):
        # about half of the 25, 21 and 19 terms sized for ratio 1/2
        op = assemble(make_grid(1e-4, 1e4, 1024, n), n, alpha)
        assert op.far_gather.shape[1] == terms
        assert _series_coefficients(n, alpha).size > 1.7 * terms


def dense_reference(op):
    """The dense operator filled entry by entry from the pair integrals
    the operator holds: ``base[min(i, j)] * fam[|i - j|]``, with ``fam``
    the stored band and, past it, one sum of :func:`riesz._series_pairs`
    per offset, divided by the weights."""
    grid, count = op.grid, op.grid.count
    fam = np.concatenate((op.band, riesz._series_pairs(
        np.arange(op.band.size, count), grid.log_step, op.n, op.alpha,
        FAR_RATIO).sum(axis=1)))
    i = np.arange(count)
    sym = (op.base[np.minimum.outer(i, i)]
           * fam[np.abs(np.subtract.outer(i, i))])
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
        # on [1, 2] the whole grid lies within a factor 2, so there are
        # no far pairs; on [1, 1e8] the band is a few offsets wide
        grid = make_grid(1.0, r_max, count, 3)
        op = assemble(grid, 3, 0.8)
        if r_max == 2.0:
            assert op.band.size == deep_band_width(grid.log_step, 0.8)
        for f in (grid.nodes ** -2.5, np.ones(count)):
            out = op.apply(f)
            assert np.all(np.isfinite(out)) and np.all(out > 0.0)

    @pytest.mark.parametrize("r_min, r_max, count, n, alpha",
                             [(1e-40, 1e40, 512, 3, 0.8),
                              (1e-60, 1e60, 400, 3, 1.5)])
    def test_base_against_mpmath(self, r_min, r_max, count, n, alpha):
        # r^alpha r^n, each pow correctly rounded; exp((n+alpha) ln r)
        # carried the rounding of ln r, 6.9e-14 and 9.7e-14 off here
        grid = make_grid(r_min, r_max, count, n)
        with mp.workdps(40):
            want = [float(mp.mpf(r) ** (n + mp.mpf(alpha)))
                    for r in grid.nodes]
        np.testing.assert_allclose(assemble(grid, n, alpha).base, want,
                                   rtol=1e-15, atol=0.0)

    def test_rejects_malformed_values(self, op5):
        count = op5.grid.count
        for bad in (np.ones(count - 1), np.ones((count, 1)), 1.0,
                    np.full(count, np.nan), np.full(count, np.inf),
                    np.r_[np.ones(count - 1), -np.inf]):
            with pytest.raises(ValidationError):
                op5.apply(bad)
            with pytest.raises(ValidationError):
                apply_extended(op5, bad, 3.0)

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


def far_sweeps_allocating(gather, scatter, carry, values, far, shift):
    """:func:`riesz._far_sweeps` with a fresh array for the product, the
    prefix sums and the contraction, the oracle of the in-place one."""
    blocks, length = gather.shape[2:]
    lined = np.zeros((2, blocks * length))
    lined[0, :far] = values[:far]
    lined[1, lined.shape[1] - far:] = values[:values.size - far - 1:-1]
    lined = np.ldexp(lined, -shift)
    sums = np.add.accumulate(gather * lined.reshape(2, 1, blocks, length),
                             axis=3)
    for k in range(1, blocks):
        sums[:, :, k] += carry[:, :, k - 1, None] * sums[:, :, k - 1, -1:]
    out = np.ldexp((scatter * sums).sum(axis=1).reshape(2, -1), shift)
    return out[0, :far], out[1, ::-1][:far]


def far_tables_ldexp(top, lam, base, grow):
    """:func:`riesz._far_tables` with the inner table scaled entry by
    entry by ``ldexp`` and ``e^{-lam s}`` taken by its own ``exp``, the
    oracle of the product by ``2^-e`` and the reversed ``e^{lam s}``."""
    size = base.size
    log_top = np.log(np.abs(top))
    centre = 0.5 * np.max(np.abs(log_top[:, None]
                                 + np.log(base[[0, -1]])[None, :]))
    rate = np.max(np.maximum(np.abs(lam), grow - lam))
    room = max(riesz._SCALE_LOG_LIMIT - centre, 0.0)
    blocks = -(-size // max(int(2.0 * room / rate), 1))
    length = -(-size // blocks)
    s = np.arange(length) - 0.5 * (length - 1)
    mid = np.minimum(np.arange(blocks) * length + length // 2, size - 1)
    e = np.rint(0.5 * (np.log2(base[mid])[None, :]
                       - log_top[:, None] / math.log(2.0))).astype(int)
    padded = np.zeros((blocks, length))
    padded.flat[:size] = base
    inner = (np.ldexp(padded, -e[:, :, None])
             * np.exp(-lam[:, None] * s)[:, None, :])
    outer = (np.ldexp(top[:, None, None], e[:, :, None])
             * np.exp(lam[:, None] * s)[:, None, :])
    outer.reshape(top.size, -1)[:, size:] = 0.0
    half = np.exp(0.5 * length * lam)[:, None]
    carry = np.ldexp(half, e[:, :-1] - e[:, 1:]) * half
    return (np.stack((inner, outer[:, ::-1, ::-1])),
            np.stack((outer, inner[:, ::-1, ::-1])),
            np.stack((carry, carry[:, ::-1])))


def series_terms(d, h, n, alpha, terms):
    """The first ``terms`` series terms of the pair integrals of the cell
    of width h about 1 with the cells ``d`` offsets up, one row per
    offset, in 40 digits: ``|S| c_l (b^p - a^p)/p (t^q - s^q)/q`` for
    the cells ``(a, b)`` and ``(s, t)``, ``p = 2l + n`` and ``q = alpha
    - 2l``, as in :func:`series_pair`."""
    with mp.workdps(40):
        hh, al = mp.mpf(h), mp.mpf(alpha)
        area = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        a, b = mp.exp(-hh / 2), mp.exp(hh / 2)
        out = np.empty((len(d), terms))
        for l in range(terms):
            coef = (mp.rf((n - al) / 2, l) * mp.rf(1 - al / 2, l)
                    / (mp.rf(mp.mpf(n) / 2, l) * mp.factorial(l)))
            p, q = 2 * l + n, al - 2 * l
            lower = area * coef * (b ** p - a ** p) / p
            for row, k in enumerate(d):
                upper = (mp.exp(q * (k + mp.mpf(0.5)) * hh)
                         - mp.exp(q * (k - mp.mpf(0.5)) * hh)) / q
                out[row, l] = float(lower * upper)
    return out


#: ``(r_min, r_max, count, n, alpha)``: the non-even operators the far
#: field is checked on to rounding, the two wide grids with their sweeps
#: in blocks among them, and the even ones it is checked on to the bit.
FAR_NON_EVEN = [(1e-4, 1e4, 4096, 3, 0.8), (1e-4, 1e4, 2048, 5, 2.5),
                (1e-40, 1e40, 512, 3, 0.8), (1e-60, 1e60, 400, 3, 1.5)]
FAR_EVEN = [(1e-4, 1e4, 1024, 4, 2.0), (1e-4, 1e4, 1024, 5, 2.0)]


def far_case_id(case):
    return "%g-%g-%d-%d-%g" % case


class TestFarFieldKernels:
    @pytest.mark.parametrize("case", FAR_NON_EVEN + FAR_EVEN, ids=far_case_id)
    def test_sweeps_against_allocating_copy(self, case):
        r_min, r_max, count, n, alpha = case
        grid = make_grid(r_min, r_max, count, n)
        op = assemble(grid, n, alpha)
        if r_min < 1e-10:
            assert op.far_gather.shape[2] > 1
        rng = np.random.default_rng(count)
        for f in (grid.nodes ** -2.5, rng.random(count)):
            args = (op.far_gather, op.far_scatter, op.far_carry, f,
                    count - op.band.size, math.frexp(f.max())[1])
            got, want = riesz._far_sweeps(*args), far_sweeps_allocating(*args)
            for g, w in zip(got, want):
                if case in FAR_EVEN:
                    assert np.array_equal(g, w)
                else:
                    np.testing.assert_allclose(g, w, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("case", FAR_NON_EVEN + FAR_EVEN, ids=far_case_id)
    def test_tables_against_per_entry_ldexp(self, case):
        # a product by the normal double 2^-e rounds as ldexp does, and
        # e^{-lam s} is e^{lam s} reversed: the tables keep their bits
        r_min, r_max, count, n, alpha = case
        op = assemble(make_grid(r_min, r_max, count, n), n, alpha)
        h, width = op.grid.log_step, op.band.size
        top = riesz._series_pairs(width, h, n, alpha,
                                  riesz._series_ratio(alpha) ** 2)
        keep = np.abs(top) > riesz._SERIES_CUT ** 2 * abs(top[0])
        lam = (alpha - 2.0 * np.arange(top.size)) * h
        want = far_tables_ldexp(top[keep], lam[keep], op.base[:count - width],
                                (n + alpha) * h)
        if r_min < 1e-10:
            assert want[0].shape[2] > 1
        for got, expected in zip(
                (op.far_gather, op.far_scatter, op.far_carry), want):
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("case", FAR_NON_EVEN + FAR_EVEN, ids=far_case_id)
    def test_series_pairs_against_mpmath(self, case):
        # each term of the band's series offsets, on the full series, and
        # of the pair at the first far offset D, on the short one
        r_min, r_max, count, n, alpha = case
        op = assemble(make_grid(r_min, r_max, count, n), n, alpha)
        h, width = op.grid.log_step, op.band.size
        ratio = riesz._series_ratio(alpha)
        d = np.arange(1, width)
        d = d[np.exp(-(d - 1) * h) <= ratio]
        for offsets, cut in ((d, ratio), ([width], ratio * ratio)):
            got = riesz._series_pairs(offsets, h, n, alpha, cut)
            np.testing.assert_allclose(
                got, series_terms(offsets, h, n, alpha, got.shape[1]),
                rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("alpha", [0.8, 2.0])
    def test_tables_read_only(self, alpha):
        # an operator serves every solve on its grid, so a write into a
        # table raises instead of changing them all
        grid = make_grid(1e-4, 1e4, 256, 3)
        op = assemble(grid, 3, alpha)
        tables = {name: value.copy() for name, value in vars(op).items()
                  if isinstance(value, np.ndarray)}
        assert len(tables) == 7
        f = grid.nodes ** -2.5
        first = apply_extended(op, f, 3.5)
        assert np.array_equal(apply_extended(op, f, 3.5), first)
        for name, table in tables.items():
            assert np.array_equal(getattr(op, name), table)
            with pytest.raises(ValueError, match="read-only"):
                getattr(op, name)[...] = 0.0


def dilated(grid, lam):
    """``grid`` with every node and edge multiplied by ``lam``: the same
    node ratios and log step, with the weights of the new cells."""
    nodes = grid.nodes * lam
    return replace(grid, r_min=grid.r_min * lam, r_max=grid.r_max * lam,
                   nodes=nodes, edges=grid.edges * lam,
                   weights=_cell_weights(nodes, grid.n, grid.log_step))


def end_node_errors(n, alpha, count):
    """``|apply_extended(u^p)/u - 1|`` at nodes 0 and count-1 of
    ``make_grid(1e-4, 1e4, count, n)`` for the HLS extremal ``u =
    (lam^2/(lam^2 + r^2))^((n-alpha)/2)``, which solves ``u =
    I_alpha[u^p]`` at ``p = (n+alpha)/(n-alpha)`` when ``lam^alpha =
    2^alpha Gamma((n+alpha)/2)/Gamma((n-alpha)/2)`` (Lieb, Ann. Math.
    1983); ``u^p`` decays like ``r^-(n+alpha)``."""
    grid = make_grid(1e-4, 1e4, count, n)
    lam2 = (2.0 ** alpha * math.gamma(0.5 * (n + alpha))
            / math.gamma(0.5 * (n - alpha))) ** (2.0 / alpha)
    u = (lam2 / (lam2 + grid.nodes ** 2)) ** (0.5 * (n - alpha))
    image = apply_extended(assemble(grid, n, alpha),
                           u ** ((n + alpha) / (n - alpha)), n + alpha)
    return np.abs(image / u - 1.0)[[0, -1]]


class TestEndNodes:
    """Both end cells are full cells centred on their nodes, and the
    head and tail are cell averages over them, so the end rows converge
    like the interior ones.  With a half last cell node count-1 was
    first order, 2.0e-2 off at 512 nodes and (3, 0.8); with the head and
    tail taken at the nodes both ends stalled below alpha = 1, at 3.3e-4
    and 5.1e-4 at (3, 0.3) and 4096 nodes."""

    @pytest.mark.parametrize("n, alpha", [(3, 0.3), (3, 0.6), (3, 0.8),
                                          (4, 1.5), (4, 2.0), (5, 2.5)])
    def test_second_order_against_hls_extremal(self, n, alpha):
        errs = [end_node_errors(n, alpha, count)
                for count in (512, 1024, 2048, 4096)]
        for coarse, fine in zip(errs, errs[1:]):
            assert np.all(np.log2(coarse / fine) >= 1.9)


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
        scaled = dilated(grid, 3.0)
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
        # theorem), so from the outer edge r_max e^{h/2} on every node
        # sees |S| r_max^2 e^{(2-tau) h/2} / (tau - 2)
        grid = make_grid(1e-4, 1e4, 256, n)
        got = tail_response(assemble(grid, n, 2.0), tau)
        want = (sphere_area(n) * grid.r_max ** 2
                * math.exp(0.5 * (2.0 - tau) * grid.log_step) / (tau - 2.0))
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


def deep_band_width(h, alpha):
    """D, the first offset whose pair ratio ``e^{-(d-1)h}`` is past the
    deep cut ``FAR_RATIO^2``; 1 for even alpha, whose series is the
    whole kernel at every offset."""
    d = 1
    while alpha % 2.0 and math.exp(-(d - 1) * h) > FAR_RATIO ** 2:
        d += 1
    return d


@lru_cache(maxsize=None)
def virtual_pairs(r_min, r_max, count, n, alpha, i, tail):
    """Double-cell integrals of node ``i``'s cell on ``make_grid(r_min,
    r_max, count, n)`` with the virtual cells k = 1, 2, .. beyond the
    inner (head) or outer (tail) end that lie inside its band, offsets
    below D: :func:`log_cell_pair` on the virtual edges, cells of width
    h about ``r_min e^{-kh}`` or ``r_max e^{kh}``.  Kept, since every
    tail exponent takes the same ones."""
    grid = make_grid(r_min, r_max, count, n)
    h = grid.log_step
    half = np.array([-0.5, 0.5]) * h
    own = math.log(grid.nodes[i]) + half
    m = count - 1 - i if tail else i
    pairs = []
    for k in range(1, deep_band_width(h, alpha) - m):
        # (k +- 1/2) h, so that a cell touching node i's shares its edge
        cell = (math.log(r_max) + (k + half / h) * h if tail
                else math.log(r_min) + (half / h - k) * h)
        lower, upper = (own, cell) if tail else (cell, own)
        pairs.append(log_cell_pair(*lower, *upper, n, alpha))
    return tuple(pairs)


def end_oracle(op, i, tau=None, same_band=False):
    """Bare head (``tau`` None) or tail response at node ``i`` of ``op``,
    in 40 digits: the sum of node i's cell pairs with the virtual cells
    beyond the end, divided by its weight.

    The virtual cell k = 1, 2, .. sits at ``r_min e^{-kh}`` or ``r_max
    e^{kh}``.  Inside node i's band, offset below D, a pair takes the
    profile's node value, 1 or ``e^{-tau k h}``, and its integral from
    :func:`virtual_pairs`, or with ``same_band`` from the operator's
    own band, ``r_<^{n+alpha} band[offset]``.  Past the band, the
    extension beyond the cut edge ``e``, the edge of the first cell D
    offsets away, takes the kernel's series term by term in closed
    form, as in :func:`series_pair`: for the head on ``(0, e)``, ``|S|
    sum_l c_l e^{n+2l}/(n+2l) int_cell t^{alpha-2l-1} dt``; for the tail
    on ``(e, inf)``, ``|S| sum_l c_l int_cell t^{n+2l-1} dt r_max^tau
    e^{alpha-2l-tau}/(tau-alpha+2l)``.
    """
    grid, n, alpha = op.grid, op.n, op.alpha
    tail = tau is not None
    count, h = grid.count, grid.log_step
    m = count - 1 - i if tail else i
    width = deep_band_width(h, alpha)
    with mp.workdps(40):
        hh, al, r = mp.mpf(h), mp.mpf(alpha), mp.mpf(grid.nodes[i])
        end = mp.mpf(grid.r_max if tail else grid.r_min)
        step = mp.exp(hh if tail else -hh)
        value = (lambda k: mp.exp(-mp.mpf(tau) * k * hh)) if tail else (
            lambda k: 1)
        if same_band:
            pairs = [(r if tail else end * step ** k) ** (n + al)
                     * mp.mpf(op.band[m + k]) for k in range(1, width - m)]
        else:
            pairs = virtual_pairs(grid.r_min, grid.r_max, count, n, alpha, i,
                                  tail)
        total = mp.fsum(mp.mpf(p) * value(k) for k, p in enumerate(pairs, 1))
        e = end * step ** (max(width - 1 - m, 0) + mp.mpf(0.5))
        lo, hi = r * mp.exp(-hh / 2), r * mp.exp(hh / 2)
        far = mp.mpf(0)
        for k in range(2000):
            coef = (mp.rf((n - al) / 2, k) * mp.rf(1 - al / 2, k)
                    / (mp.rf(mp.mpf(n) / 2, k) * mp.factorial(k)))
            if coef == 0:
                break
            p, q = 2 * k + n, al - 2 * k
            if tail:
                t = mp.mpf(tau)
                term = ((hi ** p - lo ** p) / p * grid.r_max ** t
                        * e ** (q - t) / (t - q))
            else:
                term = e ** p / p * (hi ** q - lo ** q) / q
            far += coef * term
            if abs(term) < mp.mpf(10) ** -36 * abs(far):
                break
        area = 2 * mp.pi ** (mp.mpf(n) / 2) / mp.gamma(mp.mpf(n) / 2)
        weight = r ** n * 2 * mp.sinh(n * hh / 2) / n
        return float((total + area * far) / weight)


class TestHeadResponse:
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("i", [0, 1, 32, 63])
    @pytest.mark.parametrize("n, alpha", [(3, 0.8), (4, 1.5), (5, 2.0)])
    def test_against_adaptive_quadrature(self, n, alpha, i):
        # node 0 sits half a cell above the end of the head, and nodes 0
        # to 4 reach virtual cells inside their band
        grid = make_grid(1e-4, 1e4, 64, n)
        op = assemble(grid, n, alpha)
        assert op.band.size == deep_band_width(grid.log_step, alpha)
        assert op.head_response[i] == pytest.approx(end_oracle(op, i),
                                                    rel=1e-12, abs=0.0)


def check_tail_oracle(op, tau):
    got = tail_response(op, tau)
    for i in (0, op.grid.count // 2, op.grid.count - 2, op.grid.count - 1):
        assert got[i] == pytest.approx(end_oracle(op, i, tau), rel=1e-12,
                                       abs=0.0)


class TestTailResponse:
    @pytest.mark.parametrize("tau", [2.05, 4.0, 6.0, 18.0])
    def test_against_adaptive_quadrature(self, op4, tau):
        # the oracle runs to infinity; at tau = alpha + 0.05, 0.4% of
        # the tail's weight lies past the range cap
        check_tail_oracle(op4, tau)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("tau", [2.55, 4.0, 6.0, 18.0])
    def test_non_even_alpha_against_adaptive_quadrature(self, tau):
        # at alpha = 0.8 the last node's cell touches the first virtual
        # cell, across the infinite kernel cusp at its outer edge
        for n, alpha in ((5, 2.5), (3, 0.8)):
            check_tail_oracle(
                assemble(make_grid(1e-4, 1e4, 256, n), n, alpha), tau)

    def test_operator_state_bounded(self, op4):
        # every call uses the tables built at assembly; nothing is
        # cached per tail exponent, and the series table holds the J
        # terms of the deep cut for every node
        op3 = assemble(make_grid(1e-4, 1e4, 256, 3), 3, 0.8)
        for op in (op4, op3):
            def state():
                return {k: v.shape if isinstance(v, np.ndarray) else repr(v)
                        for k, v in vars(op).items()}

            before = state()
            for tau in np.linspace(op.alpha + 0.05, 1000.0, 200):
                got = tail_response(op, float(tau))
                assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
            assert state() == before
            terms = _series_coefficients(op.n, op.alpha,
                                         riesz._series_ratio(op.alpha) ** 2)
            assert op.tail_series.shape == (op.grid.count, terms.size)


#: ``(r_min, r_max, count, n, alpha)``: grids of 80 and 120 decades,
#: where ``|ln r|`` reaches 92 and 138.
WIDE_END_CASES = [(1e-40, 1e40, 512, 3, 0.8), (1e-60, 1e60, 400, 3, 1.5)]


class TestEndCells:
    @pytest.mark.parametrize("case", WIDE_END_CASES, ids=far_case_id)
    def test_wide_grids_against_mpmath(self, case):
        # the powers of the end tables are formed from node ratios, so
        # the rounding of the exponents is not multiplied by |ln r|
        r_min, r_max, count, n, alpha = case
        op = assemble(make_grid(r_min, r_max, count, n), n, alpha)
        head, tail = op.head_response, tail_response(op, 3.0)
        assert np.all(np.isfinite(head)) and np.all(np.isfinite(tail))
        for i in (0, 1, count // 2, count - 2, count - 1):
            assert head[i] == pytest.approx(
                end_oracle(op, i, same_band=True), rel=1e-13, abs=0.0)
            assert tail[i] == pytest.approx(
                end_oracle(op, i, 3.0, same_band=True), rel=1e-13, abs=0.0)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_narrow_grid_against_quadrature(self):
        # one factor 2 end to end: the band, D = 31 offsets, is longer
        # than the grid, so the virtual cells take offsets past the count
        op = assemble(make_grid(1.0, 2.0, 16, 3), 3, 0.8)
        assert op.band.size == 31
        assert deep_band_width(op.grid.log_step, 0.8) == 31
        tail = tail_response(op, 3.0)
        assert np.all(np.isfinite(tail)) and np.all(tail > 0.0)
        assert np.all(np.isfinite(op.head_response))
        assert op.head_response[0] == pytest.approx(end_oracle(op, 0),
                                                    rel=1e-12, abs=0.0)
        assert tail[-1] == pytest.approx(end_oracle(op, 15, 3.0), rel=1e-12,
                                         abs=0.0)

    def test_only_the_band_is_sampled(self, monkeypatch):
        # the head and tail take the band and the series: no kernel_ratio
        # point, and the band's log-ratio samples, where the end tables
        # sampled 24,024 more.  At alpha = 0.8 that is 6,168: the cusp
        # rule's 588 on the cusp cell [0, h] plus 36 for each of the 155
        # lattice cells past it (6,780 when offsets 0 and 1 each took
        # the cusp rule, 12,288 when each window took its own 72); at
        # alpha = 2 the cusp rule's 588 on offset 0
        grid = make_grid(1e-4, 1e4, 4096, 3)
        points = {"kernel_ratio": 0, "_log_kernel": 0}
        for name in points:
            def counted(z, n, alpha, _name=name, _inner=getattr(riesz, name)):
                points[_name] += np.size(z)
                return _inner(z, n, alpha)
            monkeypatch.setattr(riesz, name, counted)
        assemble(grid, 3, 0.8)
        assert points == {"kernel_ratio": 0, "_log_kernel": 6168}
        assemble(grid, 3, 2.0)
        assert points == {"kernel_ratio": 0, "_log_kernel": 6168 + 588}

    def test_narrow_grid_tail_samples_nothing(self, monkeypatch):
        # the operator keeps the offsets past the count that the tail's
        # virtual cells take; a whole band was sampled on every call
        op = assemble(make_grid(1.0, 2.0, 16, 3), 3, 0.8)
        points = []
        inner = riesz._log_kernel
        monkeypatch.setattr(riesz, "_log_kernel", lambda z, n, alpha: (
            points.append(np.size(z)) or inner(z, n, alpha)))
        tail_response(op, 3.0)
        assert sum(points) == 0

    @pytest.mark.parametrize("rate", [0.01, 50.0, 700.0])
    def test_band_sums_against_direct_sums(self, rate):
        # past rate 600/(D-1) the suffix sums run in blocks, each taking
        # the first sum of the one after it
        band = assemble(make_grid(1e-4, 1e4, 256, 3), 3, 0.8).band
        sums, decay = riesz._band_sums(band, rate, 256)
        k = np.arange(1, band.size)
        np.testing.assert_allclose(decay, np.exp(-rate * k), rtol=1e-15,
                                   atol=0.0)
        want = [np.dot(band[m + 1:], np.exp(-rate * k[:band.size - 1 - m]))
                for m in range(band.size - 1)]
        np.testing.assert_allclose(sums, want, rtol=1e-14, atol=0.0)

    def test_band_past_the_count_cap_refused(self):
        # a log step below ln 4/MAX_DENSE_COUNT gives a non-even band of
        # more offsets than the largest grid has nodes; even alpha has
        # none past offset 0
        grid = make_grid(1.0, 1.001, 16, 3)
        with pytest.raises(ValidationError, match="too fine"):
            assemble(grid, 3, 0.8)
        assert assemble(grid, 3, 2.0).band.size == 1


class TestFieldIntegral:
    def test_constant_field_exact(self):
        # f = 2 up to the outer edge e = rMax e^{h/2} and 2 (s/rMax)^-2
        # beyond: the cell weights are exact moments, so core + head +
        # tail reproduce 2^3 (e^5/5 + rMax^6 e^-1/(3*2 - 5)) to rounding
        grid = make_grid(1e-1, 1e5, 64, 5)
        f = RadialField(grid, 2.0 * np.ones(grid.count), tail_exponent=2.0)
        got = field_integral(f, power=3.0)
        edge = grid.edges[-1]
        want = 8.0 * (edge ** 5 / 5.0 + grid.r_max ** 6 / edge)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

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
        head = f.values[0] ** 4 * grid.edges[0] ** 5 / 5.0
        tail = (f.values[-1] ** 4 * grid.r_max ** 5.2
                * grid.edges[-1] ** -0.2 / (4 * 1.3 - 5.0))
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
            RadialField(grid, np.ones(31), tail_exponent=2.0)
        with pytest.raises(ValidationError):
            RadialField(grid, -np.ones(32), tail_exponent=2.0)
        # a NaN tail exponent gave a NaN field integral
        for tau in (math.nan, math.inf):
            with pytest.raises(ValidationError):
                RadialField(grid, np.ones(32), tail_exponent=tau)


class TestMalformedExponents:
    """A tail exponent or a power that is not a finite real scalar is
    refused with ValidationError wherever it enters."""

    @pytest.fixture(scope="class")
    def op3(self):
        return assemble(make_grid(1e-2, 1e2, 64, 3), 3, 0.8)

    @pytest.mark.parametrize("tau", ["3", np.array([3.0]),
                                     np.array([3.0, 4.0]), True])
    def test_tail_response(self, op3, tau):
        # a string or an array raised a raw TypeError; True ran as 1.0
        with pytest.raises(ValidationError, match="tail exponent"):
            tail_response(op3, tau)

    @pytest.mark.parametrize("tau", ["5", True, np.array([5.0])])
    def test_field(self, tau):
        # "5" raised a raw TypeError; True was kept as the exponent 1
        grid = make_grid(1e-2, 1e2, 32, 5)
        with pytest.raises(ValidationError, match="tail_exponent"):
            RadialField(grid, np.ones(32), tail_exponent=tau)

    @pytest.mark.parametrize("last", [0.0, 1.0])
    @pytest.mark.parametrize("tau", [True, math.nan, "3"])
    def test_apply_extended(self, op3, tau, last):
        # with no tail (last node 0) NaN was never read and values came
        # back; with one, True ran as the exponent 1.0
        f = np.ones(op3.grid.count)
        f[-1] = last
        with pytest.raises(ValidationError, match="tail exponent"):
            apply_extended(op3, f, tau)

    @pytest.mark.parametrize("power", [True, "2", np.array([2.0])])
    def test_field_integral_power(self, power):
        # True was taken as the power 1.0
        grid = make_grid(1e-1, 1e5, 128, 5)
        f = RadialField(grid, grid.nodes ** -2.0, tail_exponent=6.0)
        with pytest.raises(ValidationError, match="power"):
            field_integral(f, power=power)

    def test_numpy_scalars_pass(self, op3):
        f = op3.grid.nodes ** -2.5
        assert np.array_equal(apply_extended(op3, f, np.float64(2.5)),
                              apply_extended(op3, f, 2.5))
        field = RadialField(op3.grid, f, tail_exponent=np.float64(2.5))
        assert field_integral(field, power=np.int64(2)) == field_integral(
            field, power=2.0)


#: Calls into the operator layer with an argument of the wrong class, or
#: values that are not numbers: each raised a raw AttributeError or
#: ValueError.  Each takes the 256-node (5, 2) operator and node values.
WRONG_CLASS = {
    "tail_response": lambda op, f: tail_response("x", 3.0),
    "apply_extended_operator": lambda op, f: apply_extended(None, f, 3.0),
    "apply_extended_values": lambda op, f: apply_extended(op, "x", 3.0),
    "field_grid": lambda op, f: RadialField(1.0, f, 3.0),
    "field_integral": lambda op, f: field_integral(None),
    "solve_picard": lambda op, f: solve_picard(Params(4, 2.0, 3.0, 3.0),
                                               operator="x"),
    "singular_solution": lambda op, f: singular_solution(
        Params(4, 2.0, 3.0, 3.0), operator="x"),
    "check_fast_limits": lambda op, f: check_fast_limits("x"),
}


@pytest.mark.parametrize("call", sorted(WRONG_CLASS))
def test_wrong_class_refused(op5, call):
    with pytest.raises(ValidationError, match="must be"):
        WRONG_CLASS[call](op5, np.ones(op5.grid.count))
