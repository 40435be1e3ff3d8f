"""Dense radial discretization of the Riesz potential.

For radial ``f`` the 1D reduction of the classically normalized Riesz
potential of order ``alpha`` reads

    (I_alpha f)(r) = (1/gamma(n, alpha)) * int_0^inf K(r, s) f(s) s^{n-1} ds,

where ``K(r, s)`` is the bare spherical average of ``|x - y|^{alpha-n}``
over directions of ``y`` with ``|x| = r``, ``|y| = s``, and

    gamma(n, alpha) = pi^{n/2} 2^alpha Gamma(alpha/2) / Gamma((n-alpha)/2)

is the constant that makes ``I_alpha`` invert the fractional Laplacian of
order ``alpha`` (so for ``alpha = 2``, ``I_2 f`` solves ``-Delta u = f``).
The kernel matrix and :func:`angular_kernel` are kept bare; the
normalization is applied by :func:`apply_extended`, so power-law and
closed-form solution identities hold with their classical constants.

The matrix is assembled from exact double-cell integrals

    M[i][j] = (1/w_i) * int_{cell_i} int_{cell_j} K(s,t) s^{n-1} t^{n-1} ds dt,

which makes the discrete operator exactly self-adjoint with respect to
the cell weights (``w_i M[i][j] == w_j M[j][i]`` to rounding) and
second-order accurate in the log mesh width.  On the log grid all
interior cell pairs with the same index offset share one reduced 1D
integral, so assembly needs O(count) reduced integrals: one per offset
and one per pair in the two boundary strips (cells 0 and count-1).
Every pair whose log-ratio window stays off the kernel cusp is
integrated on fixed Gauss panels, all of them in a few batched
:func:`kernel_ratio` calls of O(count) samples; the three windows that
end at the cusp (offset 1 and the two touching boundary pairs) take one
more call on panels graded toward it.  Adaptive quadrature is left for
the three pairs whose window straddles the cusp (offset 0 and the two
boundary cells with themselves).  Grids above
``MAX_DENSE_COUNT`` nodes are refused before anything is allocated.

The response to the power-law tail model beyond ``r_max`` is one matrix
product per call: assembly also samples the kernel once on a fixed
graded quadrature in ``y = ln(s/r_max)`` over ``[0, ln TAIL_RANGE_CAP]``
and keeps it, weighted, as ``KernelOperator.tail_kernel``: ``count x Q``
doubles with ``Q = 336`` nodes, about 11 MB at 4096 grid nodes, built by
``count * Q`` hypergeometric evaluations.  The response to a tail of
any decay exponent is then one ``O(count * Q)`` product.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate, special

from .errors import (AssemblyError, DivergentTailError, SingularKernelError,
                     TruncationWarning, ValidationError)
from .grid import RadialGrid

#: Relative remainder targeted when truncating tail-extension integrals.
TAIL_REMAINDER = 1e-8
#: Hard cap on the tail integration range, as a multiple of r_max.
TAIL_RANGE_CAP = 1e6
#: ``1 - w`` below which :func:`kernel_ratio` evaluates 2F1 by the
#: connection formula for ``1 < alpha < 2`` (``|1 - rho|`` below ~0.1).
#: Above 1e-4 it is needed too: for ``alpha -> 1`` scipy's 2F1 is off by
#: up to 1e-3 there.
CUSP_PATCH_RADIUS = 1e-2
#: ``(alpha - 1)/2`` below which the connection formula is summed in the
#: cancellation-free form of :func:`_near_log_2f1`.
_NEAR_LOG_EXPONENT = 1e-2
#: Grid nodes whose tail kernel rows are sampled in one ``kernel_ratio``
#: call; bounds the transient arrays of the build to about a MB each.
_TAIL_BUILD_ROWS = 256
#: Cell pairs integrated in one ``kernel_ratio`` call by
#: :func:`_pair_integrals`; at 72 samples a pair, under a MB per array.
_PAIR_BLOCK_ROWS = 1024
#: Integrand evaluations one adaptive cusp-pair quadrature may spend
#: before :func:`assemble` gives up with :class:`AssemblyError`.
_ADAPTIVE_BUDGET = 10 ** 6
#: Largest grid :func:`assemble` accepts: the dense operator is
#: ``count x count`` doubles, 2 GB at this size.
MAX_DENSE_COUNT = 16384
#: The 12-point Gauss-Legendre rule on [-1, 1] used by every panel
#: quadrature of this module.
_GAUSS_X, _GAUSS_W = leggauss(12)
#: Panel breaks of an off-cusp window, as fractions of its width: six
#: uniform panels put a break on each kink of the overlap weight, at the
#: middle (equal cells) or the thirds (a half-width boundary cell).
_UNIFORM_PANELS = np.linspace(0.0, 1.0, 7)


def sphere_area(n):
    """Surface measure of the unit sphere in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def riesz_normalization(n, alpha):
    """Normalization constant of the classical Riesz potential.

    ``I_alpha`` with this normalization inverts the fractional Laplacian:
    ``gamma(n, alpha) = pi^{n/2} 2^alpha Gamma(alpha/2)/Gamma((n-alpha)/2)``.
    """
    if not 0.0 < alpha < n:
        raise ValidationError("need 0 < alpha < n for the Riesz potential")
    return (math.pi ** (n / 2.0) * 2.0 ** alpha * math.gamma(alpha / 2.0)
            / math.gamma((n - alpha) / 2.0))


def power_law_constant(n, alpha, beta):
    """Constant ``c`` in ``I_alpha[s^{-beta}] = c * r^{alpha-beta}``.

    Valid for ``alpha < beta < n``, where the integral converges at both
    the origin and infinity:

        c(n, alpha, beta) = Gamma((n-beta)/2) Gamma((beta-alpha)/2)
                            / (2^alpha Gamma(beta/2) Gamma((n+alpha-beta)/2)).
    """
    if not (alpha < beta < n):
        raise ValidationError(
            "power-law identity needs alpha < beta < n, got "
            "alpha=%r, beta=%r, n=%r" % (alpha, beta, n))
    return (math.gamma((n - beta) / 2.0) * math.gamma((beta - alpha) / 2.0)
            / (2.0 ** alpha * math.gamma(beta / 2.0)
               * math.gamma((n + alpha - beta) / 2.0)))


def kernel_ratio(rho, n, alpha):
    """Bare angular kernel at unit radius, ``K(1, rho)``, vectorized.

    Uses the closed hypergeometric form of the spherical average

        K(1, rho) = |S^{n-1}| (1 + rho^2)^{(alpha-n)/2}
                    * 2F1(a, a + 1/2; n/2; w),

    with ``a = (n - alpha)/4`` and ``w = (2 rho / (1 + rho^2))^2``.  The
    value at ``rho = 1`` is finite only for ``alpha > 1``.
    """
    rho = np.asarray(rho, dtype=float)
    a = 0.25 * (n - alpha)
    w = np.square(2.0 * rho / (1.0 + rho * rho))
    if alpha < 2.0:
        # Near the diagonal w -> 1 loses all precision in double
        # arithmetic, and 2F1 with it: the kernel diverges there for
        # alpha <= 1 and has a cusp ~ (1 - w)^{(alpha-1)/2} for
        # 1 < alpha < 2.  Patch a neighborhood of rho = 1 with the w -> 1
        # connection formula, using 1 - w computed stably.
        one_mw = np.square((1.0 - rho) * (1.0 + rho) / (1.0 + rho * rho))
        near = one_mw < (1e-10 if alpha <= 1.0 else CUSP_PATCH_RADIUS)
        w = np.where(near, 0.0, w)
        hyp = special.hyp2f1(a, a + 0.5, 0.5 * n, w)
        if np.any(near) and alpha > 1.0:
            hyp = np.array(hyp)
            hyp[near] = _finite_cusp_2f1(np.asarray(one_mw)[near], n, alpha)
        elif np.any(near):
            gc = math.gamma(0.5 * n)
            if alpha < 1.0:
                const = (gc * math.gamma(0.5 * (alpha - 1.0))
                         / (math.gamma(0.25 * (n + alpha))
                            * math.gamma(0.25 * (n + alpha - 2.0))))
                sing = (gc * math.gamma(0.5 * (1.0 - alpha))
                        / (math.gamma(a) * math.gamma(a + 0.5)))
                with np.errstate(divide="ignore"):
                    patch = const + sing * one_mw ** (0.5 * (alpha - 1.0))
            else:
                # alpha == 1: logarithmic divergence.
                pref = gc / (math.gamma(a) * math.gamma(a + 0.5))
                dig = (2.0 * special.digamma(1.0) - special.digamma(a)
                       - special.digamma(a + 0.5))
                with np.errstate(divide="ignore"):
                    patch = pref * (dig - np.log(one_mw))
            hyp = np.where(near, patch, hyp)
    else:
        hyp = special.hyp2f1(a, a + 0.5, 0.5 * n, w)
    return sphere_area(n) * (1.0 + rho * rho) ** (0.5 * (alpha - n)) * hyp


def _finite_cusp_2f1(x, n, alpha):
    """``2F1(a, a + 1/2; n/2; 1 - x)`` for small ``x`` and ``1 < alpha < 2``.

    The w -> 1 connection formula with ``e = c - a - b = (alpha - 1)/2``
    in ``(0, 1/2)``, both series in ``x`` kept in full:

        2F1 = G(c)G(e)/(G(c-a)G(c-b)) 2F1(a, b; 1-e; x)
              + x^e G(c)G(-e)/(G(a)G(b)) 2F1(c-a, c-b; 1+e; x).
    """
    a = 0.25 * (n - alpha)
    b = a + 0.5
    c = 0.5 * n
    e = 0.5 * (alpha - 1.0)
    if e < _NEAR_LOG_EXPONENT:
        return _near_log_2f1(x, a, b, c, e)
    gc = math.gamma(c)
    regular = (gc * math.gamma(e) / (math.gamma(c - a) * math.gamma(c - b))
               * special.hyp2f1(a, b, 1.0 - e, x))
    cusp = (gc * math.gamma(-e) / (math.gamma(a) * math.gamma(b))
            * x ** e * special.hyp2f1(c - a, c - b, 1.0 + e, x))
    return regular + cusp


def _near_log_2f1(x, a, b, c, e, terms=12, order=8):
    """The connection formula of :func:`_finite_cusp_2f1` for small ``e``.

    Its two terms grow like ``+-1/e`` and cancel, losing about
    ``log10(1/(e |ln x|))`` digits.  Here they are paired term by term in
    ``x``: with ``c - a = b + e`` and ``c - b = a + e`` the k-th pair is

        G(c)/(G(a+e)G(b+e)) (a)_k (b)_k x^k / (k! G(k+1-e))
        * G(e)G(1-e) * (-expm1(D_k)),
        D_k = ln[G(a+k+e)G(b+k+e)G(k+1-e) x^e / (G(a+k)G(b+k)G(k+1+e))],

    and ``D_k`` is summed from its Taylor series in ``e`` (polygamma), so
    nothing cancels.  As ``e -> 0`` it tends to the logarithmic
    ``alpha == 1`` form of :func:`kernel_ratio`.  ``x`` is below
    ``CUSP_PATCH_RADIUS``, so twelve terms in ``x`` and eight in ``e``
    reach rounding for ``e < _NEAR_LOG_EXPONENT``.
    """
    k = np.arange(terms, dtype=float)
    # D_k - e ln x, from the Taylor series of the log-gamma differences
    delta = 0.0
    for j in range(1, order + 1):
        psi = special.polygamma(j - 1, a + k) + special.polygamma(j - 1, b + k)
        if j % 2:
            psi -= 2.0 * special.polygamma(j - 1, k + 1.0)
        delta = delta + e ** j / math.factorial(j) * psi
    coef = (math.gamma(c) * math.gamma(e) * math.gamma(1.0 - e)
            / (math.gamma(a + e) * math.gamma(b + e))
            * special.poch(a, k) * special.poch(b, k)
            / (special.factorial(k) * special.gamma(k + 1.0 - e)))
    x = np.asarray(x, dtype=float)[..., None]
    with np.errstate(divide="ignore"):
        d = e * np.log(x) + delta
    return -np.sum(coef * x ** k * np.expm1(d), axis=-1)


def angular_kernel(r, s, n, alpha, rtol=1e-10):
    """Bare angular kernel ``K(r, s)`` by adaptive quadrature.

    Integrates ``|S^{n-2}| (r^2 + s^2 - 2 r s cos(t))^{(alpha-n)/2}
    sin^{n-2}(t)`` over ``t`` in ``(0, pi)``.  This is the reference
    implementation; assembly uses the closed form :func:`kernel_ratio`.

    Raises
    ------
    SingularKernelError
        For ``r == s`` with ``alpha <= 1`` (the pointwise kernel is
        infinite there; cell-averaged assembly must be used instead).
    """
    if r < 0.0 or s < 0.0 or (r == 0.0 and s == 0.0):
        raise ValidationError("need r, s >= 0 and not both zero")
    if n < 3 or not (0.0 < alpha < n):
        raise ValidationError("need n >= 3 and 0 < alpha < n")
    if r == 0.0 or s == 0.0:
        return sphere_area(n) * max(r, s) ** (alpha - n)
    if alpha <= 1.0 and abs(r - s) <= 1e-12 * max(r, s):
        raise SingularKernelError(
            "angular kernel is infinite on the diagonal for alpha <= 1; "
            "use cell-averaged assembly")

    prefac = sphere_area(n - 1)

    def integrand(theta):
        # |x - y|^2 in the stable half-angle form (no cancellation at
        # small angles on the diagonal).
        d2 = (r - s) ** 2 + 4.0 * r * s * math.sin(0.5 * theta) ** 2
        return d2 ** (0.5 * (alpha - n)) * math.sin(theta) ** (n - 2)

    near_diag = abs(r - s) <= 1e-3 * max(r, s)
    pts = [1e-8, 1e-4, 1e-2, 0.1] if near_diag else None
    val, err = integrate.quad(integrand, 0.0, math.pi, points=pts,
                              epsabs=0.0, epsrel=rtol, limit=300)
    if not math.isfinite(val) or (val > 0 and err > 1e-6 * val):
        raise SingularKernelError(
            "adaptive angular quadrature failed to converge for "
            "r=%r, s=%r (error estimate %r)" % (r, s, err))
    return prefac * val


@dataclass(frozen=True)
class RadialField:
    """Sampled radial profile with a power-law far-field model.

    Attributes
    ----------
    grid : RadialGrid
    values : ndarray
        Nonnegative node values.
    tail_exponent : float
        Decay exponent ``tau``: beyond ``r_max`` the profile is modeled
        as ``values[-1] * (s/r_max)^{-tau} * (ln s / ln r_max)^kappa``.
    tail_log_power : int
        Logarithmic correction exponent ``kappa``, 0 or 1.
    """

    grid: RadialGrid
    values: np.ndarray = field(repr=False)
    tail_exponent: float = 0.0
    tail_log_power: int = 0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.count,):
            raise ValidationError(
                "field has %r values for a grid of %d nodes"
                % (vals.shape, self.grid.count))
        if np.any(vals < 0.0) or not np.all(np.isfinite(vals)):
            raise ValidationError("field values must be finite and >= 0")
        if self.tail_log_power not in (0, 1):
            raise ValidationError("tail_log_power must be 0 or 1")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class KernelOperator:
    """Dense bare-kernel discretization on one grid.

    ``matrix`` maps node values to bare integral values,
    ``(matrix @ f)[i] ~ int_{rMin}^{rMax} K(r_i, s) f(s) s^{n-1} ds``.
    ``head_response`` is the bare response to the unit profile below
    ``rMin``; ``tail_kernel[i, k]`` is ``K(1, s_k/r_i)`` times the weight
    of the fixed tail quadrature node ``y_k = ln(s_k/rMax)``, from which
    :func:`tail_response` builds the response beyond ``rMax``.
    The classical normalization is applied by :func:`apply_extended`.
    """

    grid: RadialGrid
    matrix: np.ndarray = field(repr=False)
    alpha: float = 0.0
    n: int = 0
    head_response: np.ndarray = field(repr=False, default=None)
    tail_kernel: np.ndarray = field(repr=False, default=None)

    @property
    def normalization(self):
        return riesz_normalization(self.n, self.alpha)


def check_dense_count(count):
    """Refuse a grid too large for a dense ``count x count`` operator.

    Raises :class:`ValidationError` above ``MAX_DENSE_COUNT`` nodes.
    """
    if count > MAX_DENSE_COUNT:
        raise ValidationError(
            "a dense operator on %d nodes needs %.3g GB; at most %d nodes "
            "are supported" % (count, 8e-9 * count * count, MAX_DENSE_COUNT))


def _gauss_panels(breaks):
    """12-point Gauss-Legendre nodes and weights on a sequence of panels.

    ``breaks`` holds the panel ends along its last axis; a 2-D array is
    one row of panels per integral, and the nodes and weights come back
    with one row each.
    """
    breaks = np.asarray(breaks, dtype=float)
    mid = 0.5 * (breaks[..., 1:] + breaks[..., :-1])
    half = 0.5 * (breaks[..., 1:] - breaks[..., :-1])
    shape = breaks.shape[:-1] + (-1,)
    nodes = (mid[..., None] + half[..., None] * _GAUSS_X).reshape(shape)
    weights = (half[..., None] * _GAUSS_W).reshape(shape)
    return nodes, weights


def _graded_breaks(lo, hi, toward_lo, levels=12):
    """Panel breakpoints of [lo, hi] halving ``levels`` times toward one end."""
    span = hi - lo
    steps = span * 0.5 ** np.arange(levels, 0, -1)
    if toward_lo:
        pts = lo + np.concatenate((steps, [span]))
        return np.concatenate(([lo], pts))
    pts = hi - np.concatenate((steps, [span]))[::-1]
    return np.concatenate((pts, [hi]))


#: Fixed tail quadrature in ``y = ln(s/r_max)`` over ``[0, ln
#: TAIL_RANGE_CAP]``: panels graded toward the kernel cusp at ``y = 0``
#: on ``[0, 1]``, then uniform panels out to the cap.
_TAIL_NODES, _TAIL_WEIGHTS = _gauss_panels(np.concatenate(
    (_graded_breaks(0.0, 1.0, True),
     np.linspace(1.0, math.log(TAIL_RANGE_CAP), 16)[1:])))


def _overlap_weight(z, la, lb, lc, ld, npa):
    """Closed-form sigma integral of the double-cell reduction.

    For log-cells ``sigma in [la, lb]`` and ``tau in [lc, ld]`` and fixed
    log-ratio ``z = tau - sigma``, integrates ``e^{(n+alpha) sigma}`` over
    the admissible overlap of ``sigma`` ranges.
    """
    s1 = np.maximum(la, lc - z)
    s2 = np.minimum(lb, ld - z)
    out = np.where(s2 > s1, (np.exp(npa * s2) - np.exp(npa * s1)) / npa, 0.0)
    return out


def _pair_integrand(z, la, lb, lc, ld, n, alpha):
    """Integrand of the double-cell integral reduced to the log-ratio ``z``."""
    return (kernel_ratio(np.exp(z), n, alpha) * np.exp(n * z)
            * _overlap_weight(z, la, lb, lc, ld, n + alpha))


def _pair_cell_quadrature(la, lb, lc, ld, n, alpha):
    """Double-cell integral of a pair whose window straddles the cusp.

    Returns ``int_{cell_s} int_{cell_t} K(s,t) s^{n-1} t^{n-1} ds dt`` for
    log-cells ``[la, lb] x [lc, ld]`` that overlap, so that the log-ratio
    window ``(lc - lb, ld - la)`` contains the kernel cusp at ``z = 0``:
    adaptive quadrature split there.  Off-cusp pairs go through
    :func:`_pair_integrals`.
    """
    out = integrate.quad(
        lambda z: float(_pair_integrand(z, la, lb, lc, ld, n, alpha)),
        lc - lb, ld - la, points=[0.0], epsabs=0.0, epsrel=1e-11, limit=400,
        full_output=True)
    val, err, info = out[0], out[1], out[2]
    if (info["neval"] > _ADAPTIVE_BUDGET or not math.isfinite(val)
            or err > 1e-6 * abs(val) + 1e-300):
        raise AssemblyError(
            "diagonal-cell quadrature did not converge within budget")
    return val


def _pair_integrals(cells, breaks, n, alpha):
    """Double-cell integrals of many cell pairs on fixed Gauss panels.

    ``cells`` is the ``4 x P`` array of log-cells ``(la, lb, lc, ld)``;
    row ``k`` of ``breaks`` holds the panel breaks of pair ``k``'s window
    ``[lc - lb, ld - la]``, which may end at the cusp ``z = 0`` but not
    contain it.  Pairs are sampled ``_PAIR_BLOCK_ROWS`` at a time.
    """
    out = np.empty(breaks.shape[0])
    for lo in range(0, out.size, _PAIR_BLOCK_ROWS):
        rows = slice(lo, lo + _PAIR_BLOCK_ROWS)
        z, wts = _gauss_panels(breaks[rows])
        vals = _pair_integrand(z, *cells[:, rows, None], n, alpha)
        out[rows] = np.sum(vals * wts, axis=-1)
    return out


def _pair_cells(ledges, i, js):
    """Log-cells ``(la, lb, lc, ld)`` of the cell pairs ``(i, j)`` for
    ``j`` in ``js``, stacked as a ``4 x len(js)`` array."""
    return np.array(np.broadcast_arrays(ledges[i], ledges[i + 1],
                                        ledges[js], ledges[js + 1]))


def _touching_breaks(la, lb, lc, ld):
    """Panel breaks of a cell pair whose window ends at the cusp.

    The kinks of the overlap weight sit at ``lc - la`` and ``ld - lb``:
    on the thirds of the window for a half-width boundary cell, both on
    the middle for offset 1 (which leaves one empty panel there).  Grade
    toward the cusp up to the nearer kink and break at the other.  The
    16 levels take the integrand's ``|z|^alpha`` end to rounding
    (1e-14 relative at alpha = 0.8, against 2e-12 with 12 levels).
    """
    zlo, zhi = lc - lb, ld - la
    near, far = sorted((lc - la, ld - lb), key=abs)
    if zlo == 0.0:
        return np.concatenate((_graded_breaks(zlo, near, True, levels=16),
                               [far, zhi]))
    return np.concatenate(([zlo, far],
                           _graded_breaks(near, zhi, False, levels=16)))


def assemble(grid, n, alpha):
    """Assemble the dense bare-kernel operator on ``grid``.

    Interior cell pairs are filled from per-offset reduced integrals
    (the log grid makes them a one-parameter family, laid out through a
    strided Toeplitz view); pairs involving the two clipped boundary
    cells are integrated individually.  Off-cusp integrals are fixed
    Gauss-panel sums, their kernel samples, O(count) in all, taken in a
    few large ``kernel_ratio`` calls; the three windows ending at the
    cusp (offset 1 and the two touching boundary pairs) share one call
    on panels graded toward it, and only the three pairs straddling the
    cusp use adaptive quadrature.  The construction is symmetric in
    the pair of cells, so the adjoint identity ``w_i M[i][j] = w_j
    M[j][i]`` holds to rounding.

    Raises
    ------
    ValidationError
        For a bad grid or order, and, by :func:`check_dense_count`
        before anything is allocated, for more than ``MAX_DENSE_COUNT``
        nodes.
    """
    if not isinstance(grid, RadialGrid):
        raise ValidationError("assemble needs a RadialGrid")
    if not (0.0 < alpha < n):
        raise ValidationError("need 0 < alpha < n")
    if grid.n != n:
        raise ValidationError(
            "grid was built for dimension %d, not %d" % (grid.n, n))
    count = grid.count
    check_dense_count(count)

    h = grid.log_step
    ledges = np.log(grid.edges)
    last = count - 1

    # Full-width interior cells i, i+d give sym(i, i+d) = r_i^{n+alpha}
    # * fam[d], with fam[d] the pair (-h/2, h/2) x (dh - h/2, dh + h/2).
    # Offsets 2 .. count-3 and the boundary strips, (0, j) for j = 2 ..
    # count-2 and (count-1, j) for j = 0 .. count-3, are off the cusp:
    # one batch on uniform panels.
    dh = np.arange(2, count - 2) * h
    strips = np.concatenate((_pair_cells(ledges, 0, np.arange(2, last)),
                             _pair_cells(ledges, last, np.arange(last - 1))),
                            axis=1)
    cells = np.concatenate((np.array(np.broadcast_arrays(
        -0.5 * h, 0.5 * h, dh - 0.5 * h, dh + 0.5 * h)), strips), axis=1)
    zlo = np.concatenate((dh - h, strips[2] - strips[1]))
    zhi = np.concatenate((dh + h, strips[3] - strips[0]))
    breaks = zlo[:, None] + (zhi - zlo)[:, None] * _UNIFORM_PANELS
    fam = np.empty(count - 2)
    integrals = _pair_integrals(cells, breaks, n, alpha)
    fam[2:], strip0, stripl = np.split(integrals,
                                       [dh.size, dh.size + last - 2])

    # Windows ending at the cusp, on panels graded toward it: offset 1
    # and the two touching boundary pairs.
    touching = np.stack(([-0.5 * h, 0.5 * h, 0.5 * h, 1.5 * h],
                         _pair_cells(ledges, 0, 1),
                         _pair_cells(ledges, last, last - 1)), axis=1)
    fam[1], touch0, touchl = _pair_integrals(
        touching, np.array([_touching_breaks(*c) for c in touching.T]),
        n, alpha)

    # Windows straddling the cusp: adaptive quadrature.
    fam[0] = _pair_cell_quadrature(-0.5 * h, 0.5 * h, -0.5 * h, 0.5 * h,
                                   n, alpha)
    diag0 = _pair_cell_quadrature(*_pair_cells(ledges, 0, 0), n, alpha)
    diagl = _pair_cell_quadrature(*_pair_cells(ledges, last, last), n, alpha)

    # Boundary rows; the corner pair is integrated once, as (count-1, 0).
    row0 = np.concatenate(([diag0, touch0], strip0, stripl[:1]))
    rowl = np.concatenate((stripl, [touchl, diagl]))

    # The only count x count array: base grows with the node index, so
    # base[min(i, j)] = min(base[i], base[j]), and a strided view of fam
    # gives fam[|i - j|] with no index matrix.
    sym = np.empty((count, count))
    inner = sym[1:last, 1:last]
    base = np.exp((n + alpha) * np.log(grid.nodes))[1:last]
    np.minimum(base[:, None], base[None, :], out=inner)
    inner *= np.lib.stride_tricks.sliding_window_view(
        np.concatenate((fam[:0:-1], fam)), fam.size)[::-1]
    sym[0] = row0
    sym[:, 0] = row0
    sym[last] = rowl
    sym[:, last] = rowl

    # Divide in place: a second count x count array would double the
    # peak memory of large grids.
    matrix = sym
    matrix /= grid.weights[:, None]
    return KernelOperator(grid=grid, matrix=matrix, alpha=alpha, n=n,
                          head_response=_head_response(grid, n, alpha),
                          tail_kernel=_tail_kernel(grid, n, alpha))


def _head_response(grid, n, alpha):
    """Response at each node to the constant unit profile on (0, rMin).

    ``H_i = int_0^{rMin} K(r_i, s) s^{n-1} ds``, bare.  The substitution
    ``s = rMin e^{-y}`` gives an integrand decaying like ``e^{-n y}``;
    the ``i = 0`` node sees the kernel cusp at ``y = 0``, handled by a
    graded mesh.
    """
    y_max = 40.0 / n
    breaks = np.concatenate((_graded_breaks(0.0, min(2.0, y_max), True),
                             np.linspace(min(2.0, y_max), y_max, 8)[1:]))
    ynodes, yweights = _gauss_panels(breaks)
    s = grid.r_min * np.exp(-ynodes)
    ratio = s[None, :] / grid.nodes[:, None]
    kv = kernel_ratio(ratio, n, alpha)
    integrand = kv * (s ** n)[None, :]
    return (grid.nodes ** (alpha - n)) * (integrand @ yweights)


def _tail_kernel(grid, n, alpha):
    """Weighted kernel samples on the fixed tail quadrature, ``count x Q``.

    Row ``i`` holds ``K(1, s_k/r_i) * w_k`` for ``s_k = r_max e^{y_k}``.
    Rows are sampled in blocks so the transient arrays stay small next to
    the table itself.
    """
    s = grid.r_max * np.exp(_TAIL_NODES)
    table = np.empty((grid.count, s.size))
    for lo in range(0, grid.count, _TAIL_BUILD_ROWS):
        rows = slice(lo, lo + _TAIL_BUILD_ROWS)
        ratio = s[None, :] / grid.nodes[rows, None]
        table[rows] = kernel_ratio(ratio, n, alpha) * _TAIL_WEIGHTS
    return table


def _check_tail(tail_exponent, alpha):
    """Reject divergent tails; warn when the range cap truncates one.

    The tail integral converges only for ``tail_exponent > alpha``.  Its
    remainder beyond the cap ``TAIL_RANGE_CAP * r_max`` is above
    ``TAIL_REMAINDER`` relative when the exponent is that close to
    ``alpha``; this emits a :class:`TruncationWarning`.
    """
    if tail_exponent <= alpha:
        raise DivergentTailError(
            "tail extension diverges: tail exponent %r <= alpha %r"
            % (tail_exponent, alpha))
    if TAIL_REMAINDER ** (-1.0 / (tail_exponent - alpha)) > TAIL_RANGE_CAP:
        warnings.warn(
            "tail integral truncated at the range cap before reaching "
            "the %g relative remainder target" % TAIL_REMAINDER,
            TruncationWarning, stacklevel=3)


def tail_response(op, tail_exponent, tail_log_power=0.0):
    """Response at each node to the unit tail profile beyond ``r_max``.

    The tail model is ``(s/r_max)^{-tau} (ln s/ln r_max)^m`` for
    ``s > r_max``; the caller scales by the boundary value.  ``m`` may
    be any nonnegative real (powered fields carry real log powers).
    The profile is integrated against ``op.tail_kernel`` over the whole
    fixed range up to ``TAIL_RANGE_CAP * r_max``, so each call costs one
    ``count x Q`` matrix-vector product and the operator keeps no state
    per ``(tau, m)``.
    """
    _check_tail(tail_exponent, op.alpha)
    grid = op.grid
    if tail_log_power != 0.0 and grid.r_max <= math.e:
        raise ValidationError(
            "log-corrected tails need r_max > e for a meaningful model")
    profile = np.exp((float(grid.n) - tail_exponent) * _TAIL_NODES)
    if tail_log_power != 0.0:
        lr = math.log(grid.r_max)
        profile = profile * (1.0 + _TAIL_NODES / lr) ** tail_log_power
    return (grid.nodes ** (op.alpha - op.n)
            * (op.tail_kernel @ profile) * grid.r_max ** op.n)


def apply_extended(op, values, tail_exponent, tail_log_power=0.0):
    """Normalized operator action on raw node values with extensions.

    Computes ``(matrix @ values + head + tail) / gamma(n, alpha)`` where
    the head extends the profile as the constant ``values[0]`` on
    ``(0, rMin)`` and the tail as the power-law model anchored at
    ``values[-1]``.  ``tail_log_power`` may be real.
    """
    values = np.asarray(values, dtype=float)
    out = op.matrix @ values
    if values[0] != 0.0:
        out = out + values[0] * op.head_response
    if values[-1] != 0.0:
        out = out + values[-1] * tail_response(op, tail_exponent,
                                               tail_log_power)
    return out / op.normalization


def field_integral(f, power=1.0, weight_exponent=0.0, include_head=True,
                   include_tail=True):
    """Full-line radial integral of a powered field.

    Computes ``int_0^inf f(s)^power s^{n-1+weight_exponent} ds`` using
    the grid quadrature on ``[rMin, rMax]``, the constant extension of
    ``f`` below ``rMin`` and its power-law tail model above ``rMax``.

    Raises
    ------
    DivergentTailError
        When the powered tail is not integrable,
        ``power*tau <= n + weight_exponent``.
    """
    grid = f.grid
    n_eff = grid.n + weight_exponent
    vals = f.values ** power
    core = float(np.dot(grid.weights * grid.nodes ** weight_exponent, vals))

    head = 0.0
    if include_head and vals[0] != 0.0:
        if n_eff <= 0.0:
            raise DivergentTailError(
                "head extension diverges: effective dimension <= 0")
        head = vals[0] * grid.r_min ** n_eff / n_eff

    tail = 0.0
    if include_tail and vals[-1] != 0.0:
        tau_eff = power * f.tail_exponent
        m_eff = power * f.tail_log_power
        if tau_eff <= n_eff:
            raise DivergentTailError(
                "tail integral diverges: tail exponent*power %r <= %r"
                % (tau_eff, n_eff))
        if m_eff == 0.0:
            tail = vals[-1] * grid.r_max ** n_eff / (tau_eff - n_eff)
        else:
            y_max = -math.log(TAIL_REMAINDER) / (tau_eff - n_eff)
            ynodes, yweights = _gauss_panels(np.linspace(0.0, y_max, 17))
            lr = math.log(grid.r_max)
            if lr <= 1.0:
                raise ValidationError(
                    "log-corrected tails need r_max > e")
            prof = (np.exp((n_eff - tau_eff) * ynodes)
                    * (1.0 + ynodes / lr) ** m_eff)
            tail = vals[-1] * grid.r_max ** n_eff * float(
                np.dot(yweights, prof))
    return core + head + tail
