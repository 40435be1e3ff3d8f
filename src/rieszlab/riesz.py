"""Matrix-free radial discretization of the Riesz potential.

For radial ``f`` the 1D reduction of the classically normalized Riesz
potential of order ``alpha`` reads

    (I_alpha f)(r) = (1/gamma(n, alpha)) * int_0^inf K(r, s) f(s) s^{n-1} ds,

where ``K(r, s)`` is the bare spherical average of ``|x - y|^{alpha-n}``
over directions of ``y`` with ``|x| = r``, ``|y| = s``, and

    gamma(n, alpha) = pi^{n/2} 2^alpha Gamma(alpha/2) / Gamma((n-alpha)/2)

is the constant that makes ``I_alpha`` invert the fractional Laplacian of
order ``alpha`` (so for ``alpha = 2``, ``I_2 f`` solves ``-Delta u = f``).
The kernel operator and :func:`angular_kernel` are kept bare; the
normalization is applied by :func:`apply_extended`, so power-law and
closed-form solution identities hold with their classical constants.
``K`` is one of two fixed polynomial sums, no 2F1 routine: of the
log-ratio in :func:`_log_kernel`, which assembly samples, and of the
ratio in :func:`kernel_ratio`.  Up to ``r_</r_> = max(FAR_RATIO, 1 -
1.5/n)`` it is the series in ``(r_</r_>)^2`` described below.
Nearer the diagonal it is the w -> 1 connection formula of its
hypergeometric closed form: two polynomials in ``1 - w`` and one power
of it, with the terms that cancel near odd ``alpha`` paired.  That covers
the finite cusp (``alpha > 1``), the logarithmic one (``alpha == 1``)
and the infinite one (``alpha < 1``).  For even ``alpha = 2k`` the series
terminates, and it is the whole kernel at every ratio: ``max(r,
s)^(alpha-n)`` times a polynomial of degree ``k - 1`` in ``(r_</r_>)^2``
(Newton's shell theorem at ``k = 1``).

The operator's matrix is made of exact double-cell integrals

    M[i][j] = (1/w_i) * int_{cell_i} int_{cell_j} K(s,t) s^{n-1} t^{n-1} ds dt,

which makes the discrete operator exactly self-adjoint with respect to
the cell weights (``w_i M[i][j] == w_j M[j][i]`` to rounding) and
second-order accurate in the log mesh width.  Every cell, the two end
cells included, is the log cell of width h centred on its node
(:mod:`rieszlab.grid`), so all cell pairs with the same index offset
share one reduced 1D integral: assembly needs one per offset.

Where two radii stay at ``r_</r_> <= FAR_RATIO`` (1/2), ``K`` is its
series ``|S^{n-1}| r_>^{alpha-n} sum_l c_l (r_</r_>)^{2l}``
(:func:`_series_coefficients`): J terms, k for ``alpha = 2k`` and 20 to
27 for ``alpha < 2``, each a product of a power of ``r_<`` and one of
``r_>``.  Cell pairs that far apart are J-term sums of closed-form cell
moments, with no kernel samples.  At ratio 1/4 or less, the deep cut
``FAR_RATIO^2``, they take only the terms above rounding there: 11 to
14 for ``alpha < 2``.  The near band, about ``ln 2 / h`` offsets, is
integrated on fixed rules, its kernel samples formed from the log-ratio
``z`` (:func:`_log_kernel`), since ``e^z`` rounds to 1 near the cusp.
Windows off the cusp take six Gauss panels of width h/3 each, on one
shared lattice of samples (:func:`_lattice_pairs`); the two that meet
the cusp take one fixed rule (:func:`_cusp_rule`): 48 halvings toward
the cusp, Gauss-Legendre panels, and a Gauss-Jacobi innermost panel of
weight ``|z|^{alpha-1}``.  Offset 0 straddles the cusp and offset 1
ends at it.  No adaptive quadrature is left.  For even ``alpha`` every
pair of distinct cells takes the series (:func:`_series_ratio`), and
only offset 0 is sampled.

No ``count x count`` array is formed.  The pairs below the first far
offset D, the first past the deep cut, about ``2 ln 2 / h`` (D = 1 for
even ``alpha``), are ``r_<^{n+alpha}`` times one value per offset,
applied as a direct band convolution: the first ``ln 2 / h`` values
sampled, the rest one series sum each.  The pairs beyond are the J
products of the deep cut's series, a power of ``r_<`` times one of
``r_>``, applied as J forward and J backward prefix sums over scale
tables.  One :meth:`KernelOperator.apply` is O(count (D + J)) work on
O(count J) stored numbers, where a dense product is O(count^2) on a
matrix of 134 MB at 4096 nodes.  The deep cut trades terms, several
passes of the sweeps each, for band offsets, one pass each.  Grids above
``MAX_DENSE_COUNT`` nodes, or with a band of more offsets, are refused
before anything is allocated.

The responses to the constant head below the inner edge ``rMin
e^{-h/2}`` and to the power-law tail beyond the outer edge ``r_end =
rMax e^{h/2}`` are cell averages like every row.  Both extensions are
virtual log cells that continue the grid, ``r_j = rMin e^{jh}`` for
``j < 0`` and ``j >= count``, and a node's response is the sum of its
pairs with them.  The at most D - 1 virtual cells inside a node's band
carry the profile's node values, 1 for the head and ``(r_j/rMax)^-tau``
for the tail, and take ``band``; past them the deep cut's series
integrates the rest of the extension term by term in closed form from
the cut edge, which for even ``alpha`` (D = 1) is all of it.  The head
is one vector fixed at assembly; a tail of any decay exponent costs one
``count x J`` product and one suffix sum of ``band`` against ``e^{-tau
k h}``, with no state kept per call.  An assembly on 4096 nodes over
eight decades samples the kernel 6,780 times at ``alpha = 0.8`` (36 a
lattice cell) and 588 at ``alpha = 2``, all on the band, where sampling
every pair, head and tail row would take 3.2M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate, special

from .errors import (DivergentTailError, SingularKernelError, ValidationError,
                     instance, real_number, whole_number)
from .exponents import _check_ranges
from .grid import RadialGrid

#: Largest ratio ``r_</r_>`` of two radii at which the kernel is taken
#: from its series (:func:`_series_coefficients`) instead of sampled:
#: there ``t = (r_</r_>)^2 <= 1/4`` and the series converges like 4^-l.
FAR_RATIO = 0.5
#: Width of the near zone of :func:`_log_kernel` and :func:`kernel_ratio`
#: in dimension n: ``r_</r_>`` above :func:`_near_seam`.
_NEAR_WIDTH = 1.5
#: Terms of the near-zone series generated before the trim to rounding at
#: the seam (:func:`_near_coefficients`); at most 36 are kept.
_NEAR_TERMS = 64
#: Size of a series term, relative to the first, below which the sum
#: stops: half an ulp of 1.
_SERIES_CUT = 0.5 * np.finfo(float).eps
#: Lattice cells of :func:`_lattice_pairs` sampled in one
#: :func:`_log_kernel` call; at 36 samples a cell, under a MB per array.
_LATTICE_BLOCK_ROWS = 2048
#: Halvings toward the cusp of :func:`_cusp_rule`: its innermost panel
#: is 3.6e-15 of the interval, and 64 levels move no cusp pair by more
#: than 7e-16 (n = 3..7, alpha = 0.3..6.5, 64 to 4096 nodes).
_CUSP_LEVELS = 48
#: Largest grid :func:`assemble` accepts, refused on the count alone by
#: :func:`check_dense_count`.
MAX_DENSE_COUNT = 16384
#: Largest ``|ln|`` of an entry of the far-field scale tables
#: (:func:`_far_tables`).  With the swept values scaled to at most 1,
#: a sum of ``MAX_DENSE_COUNT`` such products stays below e^690.
_SCALE_LOG_LIMIT = 680.0
#: The 12-point Gauss-Legendre rule on [-1, 1] used by every panel
#: quadrature of this module.
_GAUSS_X, _GAUSS_W = leggauss(12)


def _whole_order(n, alpha, **exponents):
    """``n`` as an ``int`` once it is whole, ``alpha`` is a real scalar
    in ``(0, n)`` and the ``exponents`` are positive and finite;
    :class:`ValidationError` otherwise."""
    n = whole_number(n, "dimension n")
    _check_ranges(n, alpha, **exponents)
    return n


def _gamma_form(form, n):
    """``form()``, a closed form in Gamma functions of the dimension
    ``n``; :class:`ValidationError` naming ``n`` when it leaves the
    double range (``math.gamma`` overflows past 171.6)."""
    try:
        value = form()
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ValidationError(
            "dimension n=%d is too large: its Gamma-function constants "
            "leave the double range" % n)
    return value


def sphere_area(n):
    """Surface measure of the unit sphere in R^n, for whole ``n >= 1``."""
    if whole_number(n, "n") < 1:
        raise ValidationError("need dimension n >= 1, got %r" % (n,))
    return _gamma_form(lambda: 2.0 * math.pi ** (n / 2.0)
                       / math.gamma(n / 2.0), n)


def riesz_normalization(n, alpha):
    """Normalization constant of the classical Riesz potential.

    ``I_alpha`` with this normalization inverts the fractional Laplacian:
    ``gamma(n, alpha) = pi^{n/2} 2^alpha Gamma(alpha/2)/Gamma((n-alpha)/2)``.
    Needs a whole ``n`` and ``0 < alpha < n``.
    """
    n = _whole_order(n, alpha)
    return _gamma_form(lambda: math.pi ** (n / 2.0) * 2.0 ** alpha
                       * math.gamma(alpha / 2.0)
                       / math.gamma((n - alpha) / 2.0), n)


def power_law_constant(n, alpha, beta):
    """Constant ``c`` in ``I_alpha[s^{-beta}] = c * r^{alpha-beta}``.

    Valid for a whole ``n`` and ``0 < alpha < beta < n``, where the
    integral converges at both the origin and infinity:

        c(n, alpha, beta) = Gamma((n-beta)/2) Gamma((beta-alpha)/2)
                            / (2^alpha Gamma(beta/2) Gamma((n+alpha-beta)/2)).
    """
    n = _whole_order(n, alpha, beta=beta)
    if not (alpha < beta < n):
        raise ValidationError(
            "power-law identity needs alpha < beta < n, got "
            "alpha=%r, beta=%r, n=%r" % (alpha, beta, n))
    return _gamma_form(lambda: math.gamma((n - beta) / 2.0)
                       * math.gamma((beta - alpha) / 2.0)
                       / (2.0 ** alpha * math.gamma(beta / 2.0)
                          * math.gamma((n + alpha - beta) / 2.0)), n)


def kernel_ratio(rho, n, alpha):
    """Bare angular kernel at unit radius, ``K(1, rho)``, vectorized.

    The spherical average has the closed hypergeometric form

        K(1, rho) = |S^{n-1}| (1 + rho^2)^{(alpha-n)/2}
                    * 2F1(a, a + 1/2; n/2; w),

    with ``a = (n - alpha)/4`` and ``w = (2 rho / (1 + rho^2))^2``.  The
    value at ``rho = 1`` is finite only for ``alpha > 1``; it is +inf for
    ``alpha <= 1``.  No 2F1 routine is called; the kernel is one of two
    fixed polynomial sums, split at the ratio ``r_</r_> = max(FAR_RATIO,
    1 - 1.5/n)`` of :func:`_near_seam`:

    - far, ``r_</r_>`` up to the seam: the series ``|S^{n-1}|
      R^{alpha-n} sum_l c_l t^l`` in ``t = (r_</r_>)^2``, with ``R =
      max(1, rho)`` and the ``c_l`` of :func:`_series_coefficients`, the
      terms the far pairs, head and tail take;
    - near, beyond the seam: the w -> 1 connection formula in ``x = 1 -
      w``, formed from ``(1 - rho)(1 + rho)`` so it keeps its digits at
      the diagonal, as two polynomials in ``x`` and one power of it
      (:func:`_near_2f1`).  It covers the infinite cusp (``alpha < 1``),
      the logarithmic one (``alpha = 1``) and the finite ones, and every
      ``alpha`` at which the formula is degenerate (odd ``alpha``).

    For even ``alpha = 2k`` there is no near zone: the far series
    terminates, ``|S^{n-1}| R^{alpha-n}`` times a polynomial of degree
    ``k - 1`` in ``t`` (Newton's shell theorem at ``k = 1``), and is
    exact at every ``rho``.

    Raises
    ------
    ValidationError
        Unless ``n`` is whole, ``0 < alpha < n`` and every ``rho >= 0``.
    """
    n = _whole_order(n, alpha)
    rho = np.asarray(rho, dtype=float)
    if not np.all(rho >= 0.0):
        raise ValidationError("kernel ratios must be >= 0 and not NaN")
    seam = max(_series_ratio(alpha), _near_seam(n))
    near = (rho > seam) & (rho < 1.0 / seam)
    out = np.empty(rho.shape)
    if not np.all(near):
        far = rho[~near]
        big = np.maximum(1.0, far)
        out[~near] = _far_kernel(big ** (alpha - n), np.square(
            np.minimum(1.0, far) / big), n, alpha)
    if np.any(near):
        rho = rho[near]
        lift = 1.0 + rho * rho
        out[near] = _near_kernel(
            lift, np.square((1.0 - rho) * (1.0 + rho) / lift), n, alpha)
    return out


def _log_kernel(z, n, alpha):
    """``K(1, e^z)``, as :func:`kernel_ratio` but from the log-ratio ``z``.

    In the near zone ``1 - w = tanh(z)^2`` and ``1 + rho^2 = 2 e^z
    cosh(z)`` are formed from ``z`` itself: ``rho = e^z`` rounds to 1 for
    ``|z|`` below about 1e-16, where the cusp term of an ``alpha < 1``
    kernel is still finite and large.  Even ``alpha`` has no near zone:
    the far series is the whole kernel at every ``z``.
    """
    z = np.asarray(z, dtype=float)
    near = np.abs(z) < -math.log(max(_series_ratio(alpha), _near_seam(n)))
    out = np.empty(z.shape)
    if not np.all(near):
        far = z[~near]
        out[~near] = _far_kernel(np.exp((alpha - n) * np.maximum(far, 0.0)),
                                 np.exp(-2.0 * np.abs(far)), n, alpha)
    if np.any(near):
        z = z[near]
        out[near] = _near_kernel(2.0 * np.exp(z) * np.cosh(z),
                                 np.square(np.tanh(z)), n, alpha)
    return out


def _series_ratio(alpha):
    """Largest ratio ``r_</r_>`` at which the kernel is its series
    (:func:`_series_coefficients`) wherever it is used: ``FAR_RATIO``,
    or 1 for even ``alpha = 2k``, where the k terms are the whole kernel
    and nothing is sampled but the cells across the cusp."""
    return 1.0 if alpha % 2.0 == 0.0 else FAR_RATIO


def _near_seam(n):
    """Where :func:`_log_kernel` and :func:`kernel_ratio` turn from the far
    series to the near zone: ``r_</r_> = max(FAR_RATIO, 1 - _NEAR_WIDTH/n)``.

    The two terms of the near-zone formula each grow like ``e^{n x/2}``
    and cancel, so the zone narrows like ``1/n``: ``x = 1 - w`` reaches
    0.36 at n = 3, 0.056 at n = 7 and about ``(1.5/n)^2`` for large n.
    The far series takes the rest with more terms: 22 to 26 at n = 3,
    48 to 74 at n = 7 and 7 n to 11 n for large n.
    """
    return max(FAR_RATIO, 1.0 - _NEAR_WIDTH / n)


def _far_kernel(scale, t, n, alpha):
    """``|S^{n-1}| scale sum_l c_l t^l``: the far zone of
    :func:`kernel_ratio`, with ``scale = R^{alpha-n}``."""
    return sphere_area(n) * scale * _horner(
        t, _series_coefficients(n, alpha, _near_seam(n)))


def _near_kernel(lift, x, n, alpha):
    """``|S^{n-1}| lift^{(alpha-n)/2} 2F1(a, a + 1/2; n/2; 1 - x)``: the
    near zone of :func:`kernel_ratio`, with ``lift = 1 + rho^2``."""
    return sphere_area(n) * lift ** (0.5 * (alpha - n)) * _near_2f1(
        x, n, alpha)


def _horner(x, coef):
    """``sum_k coef[k] x^k`` by Horner's rule, in place."""
    acc = np.full(x.shape, coef[-1])
    for c in coef[-2::-1]:
        acc *= x
        acc += c
    return acc


def _near_2f1(x, n, alpha):
    """``2F1(a, a + 1/2; n/2; 1 - x)`` for ``alpha`` not even and ``x``
    from 0 to its value at :func:`_near_seam`.

    With ``e = (alpha - 1)/2 = m + d``, ``m`` the nearest integer, the
    w -> 1 connection formula (DLMF 15.8.4, and 15.8.10 at ``d = 0``) is

        2F1 = P(x) + E(x) Q(x),    E(x) = (x^d - 1)/d  (ln x at d = 0),

    with the polynomials ``P`` and ``Q`` of :func:`_near_coefficients`.
    Nothing cancels as ``d -> 0``.  At ``x = 0`` (``rho = 1``) the value
    is +inf for ``alpha <= 1``.
    """
    p, q, d, m = _near_coefficients(n, alpha)
    # Q carries x^m: for m >= 1 its term is below rounding long before x
    # reaches the smallest normal double, which keeps E finite at x = 0
    x_pos = np.maximum(x, np.finfo(float).tiny) if m else x
    with np.errstate(divide="ignore"):
        spread = np.log(x_pos)
        if d:
            # x^d - 1 by expm1 where it is small, by the correctly rounded
            # power where d ln x, and the rounding of ln x with it, is large
            power = d * spread
            spread = np.where(np.abs(power) < 1.0, np.expm1(power),
                              x_pos ** d - 1.0) / d
    return _horner(x, p) + spread * _horner(x, q)


@lru_cache(maxsize=16)
def _near_coefficients(n, alpha):
    """The polynomials ``P`` and ``Q`` of :func:`_near_2f1`, trimmed.

    In the connection formula for ``2F1(a, b; c; 1 - x)``, ``b = a +
    1/2``, ``c = n/2``, ``e = c - a - b = m + d``, the regular series
    term ``k = m + j`` and the cusp series term ``j`` both grow like
    ``1/d`` and cancel.  Paired, they are ``K_k x^k (1 - e^{d g_k})/d``:

        K_k = (-1)^m G(c)/(G(a+e)G(b+e) sinc d) (a)_k (b)_k
              / (G(j+1-d) k!),
        d g_k = d ln x + d s_k,
        d s_k = ln[G(a+k+d)G(b+k+d)G(j+1-d)G(k+1)
                   / (G(a+k)G(b+k)G(j+1)G(k+1+d))],

    so ``p_k = -K_k s_k exprel(d s_k)`` and ``q_k = -K_k e^{d s_k}``.
    ``s_k`` is the sum of four slopes of ``ln G`` (:func:`_lgamma_slope`)
    at ``k = m`` and of slopes of ``ln`` (:func:`_log_slope`) from there
    on, so it keeps its digits at ``d = 0`` too.  The regular terms
    ``k < m`` are not degenerate: ``p_k = G(c)G(e)/(G(a+e)G(b+e)) (a)_k
    (b)_k / ((1-e)_k k!)``, ``q_k = 0``.  Both polynomials stop after
    their last term above rounding at the seam of :func:`_near_seam`.

    Returns ``(p, q, d, m)``, the arrays read-only: the last few
    ``(n, alpha)`` are kept, since every kernel call of one assembly
    needs the same ones.
    """
    a = 0.25 * (n - alpha)
    b = a + 0.5
    c = 0.5 * n
    e = 0.5 * (alpha - 1.0)
    m = math.floor(e + 0.5)
    d = e - m
    k = np.arange(m, m + _NEAR_TERMS, dtype=float)
    j = k - m
    lead = ((-1) ** m * math.gamma(c) * special.poch(a, m)
            * special.poch(b, m)
            / (math.gamma(a + e) * math.gamma(b + e) * np.sinc(d)
               * math.gamma(1.0 - d) * math.factorial(m)))
    pair = lead * np.cumprod(np.concatenate(
        ([1.0], (a + k[:-1]) * (b + k[:-1]) / ((j[1:] - d) * k[1:]))))
    slope = np.cumsum(np.concatenate((
        [_lgamma_slope(a + m, d) + _lgamma_slope(b + m, d)
         - _lgamma_slope(1.0, -d) - _lgamma_slope(m + 1.0, d)],
        (_log_slope(a + k, d) + _log_slope(b + k, d)
         - _log_slope(j + 1.0, -d) - _log_slope(k + 1.0, d))[:-1])))
    p = -pair * slope * special.exprel(d * slope)
    q = -pair * np.exp(d * slope)
    if m:
        i = np.arange(m - 1.0)
        regular = np.cumprod(np.concatenate(
            ([1.0], (a + i) * (b + i) / ((1.0 - e + i) * (i + 1.0)))))
        p = np.concatenate((math.gamma(c) * math.gamma(e) * regular
                            / (math.gamma(a + e) * math.gamma(b + e)), p))
        q = np.concatenate((np.zeros(m), q))
    t = _near_seam(n) ** 2
    edge = ((1.0 - t) / (1.0 + t)) ** 2
    p, q = _trim(p, edge), _trim(q, edge)
    p.flags.writeable = q.flags.writeable = False
    return p, q, d, m


def _trim(coef, x):
    """``coef`` up to its last term above rounding at ``x``, relative to
    the largest one."""
    size = np.abs(coef) * x ** np.arange(coef.size)
    return coef[:np.flatnonzero(size > _SERIES_CUT * size.max())[-1] + 1]


def _log_slope(z, d):
    """``ln(1 + d/z)/d``, the slope of ``ln`` from ``z`` to ``z + d``;
    ``1/z`` at ``d = 0``."""
    return np.log1p(d / z) / d if d else 1.0 / z


def _lgamma_slope(z, d):
    """``(ln G(z + d) - ln G(z))/d`` for ``z > 0``, ``z + d > 0``, ``|d|
    <= 1/2``; ``psi(z)`` at ``d = 0``.

    Moved up by 8 with :func:`_log_slope`, where the Taylor series in
    ``d`` of the polygamma functions converges like ``(d/(z + 8))^i``:
    16 orders reach rounding.
    """
    i = np.arange(16)
    taylor = np.dot(special.polygamma(i, z + 8.0),
                    d ** i / np.cumprod(i + 1.0))
    return taylor - np.sum(_log_slope(z + np.arange(8.0), d))


@lru_cache(maxsize=16)
def _series_coefficients(n, alpha, ratio=FAR_RATIO):
    """Coefficients ``c_l`` of the kernel's series in ``t = (r_</r_>)^2``.

    ``K(r, s) = |S^{n-1}| r_>^{alpha-n} sum_l c_l t^l`` with ``c_l =
    ((n-alpha)/2)_l (1-alpha/2)_l / ((n/2)_l l!)``, by their two-term
    recurrence.  The terms run up to the first one below rounding at
    ``t = ratio^2``, looked for only from ``l > alpha/2 - 1`` on, where
    ``|c_l|`` no longer grows, so the terms cut off sum to about rounding
    too (20 to 27 terms for ``alpha < 2``, n = 3..7 and the default
    ``ratio = FAR_RATIO``, 11 to 14 at ``ratio = 1/4``).  For even
    ``alpha = 2k`` that first ``l`` is k, where the series stops by
    itself, ``c_k = 0``: the k terms are the whole kernel, and ``ratio``
    may be 1; for any other ``alpha`` the terms never fall below rounding
    at ``ratio >= 1``, which raises :class:`ValidationError`.  The array
    is read-only: the last few ``(n, alpha, ratio)`` are kept, since one
    assembly asks for the same ones at least six times.
    """
    if ratio >= 1.0 and _series_ratio(alpha) < 1.0:
        raise ValidationError(
            "the series of alpha=%r, not even, needs ratio < 1, got %r"
            % (alpha, ratio))
    a, b, c = 0.5 * (n - alpha), 1.0 - 0.5 * alpha, 0.5 * n
    coef = [1.0]
    j = 0
    while True:
        nxt = coef[-1] * (a + j) * (b + j) / ((c + j) * (j + 1))
        j += 1
        below = abs(nxt) * ratio ** (2 * j) < _SERIES_CUT
        if nxt == 0.0 or (j > -b and below):
            coef = np.array(coef)
            coef.flags.writeable = False
            return coef
        coef.append(nxt)


def angular_kernel(r, s, n, alpha):
    """Bare angular kernel ``K(r, s)`` by adaptive quadrature.

    Integrates ``|S^{n-2}| (r^2 + s^2 - 2 r s cos(t))^{(alpha-n)/2}
    sin^{n-2}(t)`` over ``t`` in ``(0, pi)``.  This is the reference
    implementation; assembly samples the kernel from the log-ratio by
    :func:`_log_kernel`.

    Raises
    ------
    ValidationError
        Unless ``r`` and ``s`` are finite, nonnegative and not both 0,
        ``n >= 3`` is whole and ``0 < alpha < n``.
    SingularKernelError
        For ``r == s`` with ``alpha <= 1`` (the pointwise kernel is
        infinite there; cell-averaged assembly must be used instead).
    """
    r, s = real_number(r, "r"), real_number(s, "s")
    if r < 0.0 or s < 0.0 or r == s == 0.0:
        raise ValidationError("need finite r, s >= 0, not both zero")
    n = _whole_order(n, alpha)
    if n < 3:
        raise ValidationError("need n >= 3, got %r" % (n,))
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
                              epsabs=0.0, epsrel=1e-10, limit=300)
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
        Decay exponent ``tau``, a finite real number: beyond the outer
        edge of the last cell, ``r_max e^{h/2}``, the profile is modeled
        as the pure power law ``values[-1] * (s/r_max)^{-tau}``.
        :func:`field_integral` integrates it as it is;
        :func:`apply_extended` takes its node values on the cells that
        continue the grid inside a node's band and integrates it exactly
        beyond them (:func:`tail_response`).
    """

    grid: RadialGrid
    values: np.ndarray = field(repr=False)
    tail_exponent: float

    def __post_init__(self):
        instance(self.grid, RadialGrid, "grid")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.count,):
            raise ValidationError(
                "field has %r values for a grid of %d nodes"
                % (vals.shape, self.grid.count))
        if np.any(vals < 0.0) or not np.all(np.isfinite(vals)):
            raise ValidationError("field values must be finite and >= 0")
        real_number(self.tail_exponent, "tail_exponent")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class KernelOperator:
    """Bare-kernel discretization on one grid, kept matrix-free.

    :meth:`apply` maps node values to bare integral values in O(count
    (D + J)) work from O(count J) numbers, with no dense array ``M``
    ever formed: D about ``2 ln 2 / h`` and J the 11 to 14 terms of the
    series at ratio 1/4 for ``alpha < 2``; D = 1 and J = k for ``alpha
    = 2k``.  At every node, ``apply(f)[i]`` is ``int K(r_i, s) f(s)
    s^{n-1} ds`` over the cells, ``[rMin e^{-h/2}, rMax e^{h/2}]``, to
    second order in the log mesh width ``h``.  Every cell is centred on
    its node, so with ``w`` the cell weights the symmetric pair
    integrals ``w_i M[i][j]`` are:

    - pairs closer than ``D = band.size`` offsets, the first past ratio
      1/4: ``base[min(i, j)] * band[|i - j|]``, with ``base =
      r^{n+alpha}`` at the nodes.  ``band`` holds all D offsets on every
      grid: on one shorter than its band, a factor of about 4, the
      offsets past the count serve only the virtual end cells;
    - pairs ``D`` or more offsets apart: a J-term sum of products of a
      power of the inner and one of the outer radius, held in
      ``far_gather``, ``far_scatter`` and ``far_carry`` (see
      :func:`_far_tables`).

    ``head_response`` is the bare response to the unit profile below the
    inner edge ``rMin e^{-h/2}``, and :func:`tail_response` the one to
    the power law beyond the outer edge ``rMax e^{h/2}``, both cell
    averages like the rows.  Each extension is discretized as virtual
    cells continuing the grid: those inside a node's band take the
    profile's node values and ``band``, and beyond them the profile is
    integrated exactly by the deep cut's series (:func:`_end_tables`).
    ``tail_series`` holds that series part of the tail, ``count x J``.
    The classical normalization is applied by :func:`apply_extended`.
    The tables :func:`assemble` stores are read-only.
    """

    grid: RadialGrid
    alpha: float
    n: int
    base: np.ndarray = field(repr=False)
    band: np.ndarray = field(repr=False)
    far_gather: np.ndarray = field(repr=False)
    far_scatter: np.ndarray = field(repr=False)
    far_carry: np.ndarray = field(repr=False)
    head_response: np.ndarray = field(repr=False)
    tail_series: np.ndarray = field(repr=False)

    @cached_property
    def normalization(self):
        return riesz_normalization(self.n, self.alpha)

    def apply(self, values):
        """Bare operator action on node values: ``M @ values``.

        A direct band convolution over the near pairs and two blocked
        prefix sums per series term over the far ones (see
        :func:`_far_tables`), divided by the cell weights.

        Raises
        ------
        ValidationError
            Unless ``values`` holds one finite value per node.
        """
        count = self.grid.count
        f = np.asarray(values)
        if f.shape != (count,) or f.dtype.kind not in "biuf":
            raise ValidationError("operator input must be %d real values, "
                                  "got %s %r" % (count, f.dtype, f.shape))
        f = f.astype(float, copy=False)
        peak = np.abs(f).max()
        if not math.isfinite(peak):
            raise ValidationError("operator input must be finite")
        base, band = self.base, self.band[:count]
        d = band.size
        # One convolution gives the band pairs j <= i and, on the
        # reversed values past a gap, those j >= i; each side takes
        # half of the diagonal.
        kernel = np.concatenate(([0.5 * band[0]], band[1:]))
        sums = np.convolve(np.concatenate(
            (base * f, np.zeros(d - 1), f[::-1])), kernel)
        out = sums[:count] + base * sums[2 * count + d - 2:count + d - 2:-1]
        if count > d:
            lower, upper = _far_sweeps(self.far_gather, self.far_scatter,
                                       self.far_carry, f, count - d,
                                       math.frexp(peak)[1])
            out[d:] += lower
            out[:count - d] += upper
        return np.divide(out, self.grid.weights, out=out)


def check_dense_count(count):
    """Refuse a grid larger than ``MAX_DENSE_COUNT`` nodes.

    It reads the count alone, so a grid is refused before any of its
    arrays exist; no far-field prefix sum is then longer than the
    ``MAX_DENSE_COUNT`` terms ``_SCALE_LOG_LIMIT`` is derived for.
    Raises :class:`ValidationError` above it.
    """
    if count > MAX_DENSE_COUNT:
        raise ValidationError(
            "grids of at most %d nodes are supported, got %d nodes"
            % (MAX_DENSE_COUNT, count))


def _gauss_panels(breaks):
    """12-point Gauss-Legendre nodes and weights on a sequence of panels.

    ``breaks`` holds the panel ends along its last axis; a 2-D array is
    one row of panels per integral, and the nodes and weights come back
    with one row each.
    """
    breaks = np.asarray(breaks, dtype=float)
    mid = 0.5 * (breaks[..., 1:] + breaks[..., :-1])
    half = 0.5 * (breaks[..., 1:] - breaks[..., :-1])
    shape = breaks.shape[:-1] + (half.shape[-1] * _GAUSS_X.size,)
    nodes = (mid[..., None] + half[..., None] * _GAUSS_X).reshape(shape)
    weights = (half[..., None] * _GAUSS_W).reshape(shape)
    return nodes, weights


def _overlap_weight(z, la, lb, lc, ld, npa):
    """Closed-form sigma integral of the double-cell reduction.

    For log-cells ``sigma in [la, lb]`` and ``tau in [lc, ld]`` and fixed
    log-ratio ``z = tau - sigma``, integrates ``e^{(n+alpha) sigma}`` over
    the admissible overlap of ``sigma`` ranges.  The difference of the
    two exponentials is formed with ``expm1``, so it is accurate to the
    rounding of ``s2 - s1``: in the coordinates of :func:`assemble`,
    where ``sigma`` stays near 0, that is relative to the cell width.
    """
    s1 = np.maximum(la, lc - z)
    s2 = np.minimum(lb, ld - z)
    return np.where(s2 > s1,
                    np.exp(npa * s1) * np.expm1(npa * (s2 - s1)) / npa, 0.0)


def _gauss_jacobi(b):
    """12-point Gauss rule of weight ``(1 + x)^b`` on [-1, 1], ``b > -1``.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix of the weight's three-term recurrence, the weights ``2^{b+1}
    /(b+1)`` times the squared first components of its eigenvectors.
    Kept for accuracy: against a 40-digit mpmath Golub-Welsch at alpha =
    0.3 (b = -0.7) its weights are within 1e-14 relative, where those of
    ``scipy.special.roots_jacobi(12, 0, b)`` are 1.4e-13 off.  Either
    takes well under a millisecond (0.03 and 0.06 ms on a 2-CPU Xeon).
    """
    k = np.arange(1.0, _GAUSS_X.size)
    s = 2.0 * k + b
    diag = np.concatenate(([b / (b + 2.0)], b * b / (s * (s + 2.0))))
    off = 2.0 * k * (k + b) / (s * np.sqrt(s * s - 1.0))
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1)
                            + np.diag(off, -1))
    return x, 2.0 ** (b + 1.0) / (b + 1.0) * np.square(vec[0])


@lru_cache(maxsize=16)
def _cusp_rule(alpha):
    """Fixed rule for ``int_0^1 f(u) du`` with ``f ~ u^{alpha-1}`` at 0.

    Panels halving ``_CUSP_LEVELS`` times toward 0, 12-point
    Gauss-Legendre on every panel but the innermost, ``[0, d]`` with ``d
    = 2^-_CUSP_LEVELS``, which takes the 12-point Gauss-Jacobi rule of
    weight ``u^{alpha-1}``; its weights are divided by ``u^{alpha-1}`` at
    the nodes, so the rule is applied to ``f`` itself.  Returns the nodes
    and weights, innermost first, read-only: the last few ``alpha`` are
    kept, since every assembly of one ``alpha`` takes the same rule.
    """
    nodes, weights = _gauss_panels(
        np.append(0.5 ** np.arange(_CUSP_LEVELS, 0, -1), 1.0))
    x, wx = _gauss_jacobi(alpha - 1.0)
    half = 0.5 ** (_CUSP_LEVELS + 1)
    u = np.concatenate((half * (1.0 + x), nodes))
    wu = np.concatenate((half * wx * (1.0 + x) ** (1.0 - alpha), weights))
    u.flags.writeable = wu.flags.writeable = False
    return u, wu


def _cusp_pairs(cells, n, alpha):
    """Double-cell integrals of cell pairs whose window meets the cusp.

    ``cells`` is the ``4 x P`` array of log-cells ``(la, lb, lc, ld)``
    whose log-ratio window ``[lc - lb, ld - la]`` holds the kernel cusp
    ``z = 0``: at one end for two touching cells, inside for a cell with
    itself.  From the cusp to the nearer kink of the overlap weight,
    ``lc - la`` or ``ld - lb``, a pair takes :func:`_cusp_rule`, and one
    Gauss panel on each stretch beyond, to the other kink and from there
    to the window's end.  A cell with itself has both kinks at the cusp,
    and its integrand is even in ``z``: ``K(1, e^{-z}) = e^{(n-alpha) z}
    K(1, e^z)`` and ``W(-z) = e^{(n+alpha) z} W(z)`` for the overlap
    weight ``W``.  So it is twice its half ``[0, w]``, ``w = lb - la``,
    on the cusp rule alone.  All pairs are sampled in one call.
    """
    u, wu = _cusp_rule(alpha)
    la, lb, lc, ld = cells
    zlo, zhi = lc - lb, ld - la
    fold = (zlo < 0.0) & (zhi > 0.0)
    rim = ~fold
    side = np.where(zhi > 0.0, 1.0, -1.0)
    # distances from the cusp of the two kinks and of the far end of a
    # touching window (zlo or zhi, the other is 0); a folded pair's
    # kinks sit on the cusp, and its rule spans its half
    near, far, end = np.sort(np.abs(np.where(
        fold, zhi, (lc - la, ld - lb, zlo + zhi))), axis=0)
    t, wt = _gauss_panels(np.stack((near, far, end), axis=1)[rim])
    rows = np.arange(near.size)
    owner = np.concatenate((np.repeat(rows, u.size),
                            np.repeat(rows[rim], t.shape[1])))
    z = np.concatenate(((side * near)[:, None] * u, side[rim, None] * t), None)
    vals = (_log_kernel(z, n, alpha) * np.exp(n * z)
            * _overlap_weight(z, *cells[:, owner], n + alpha))
    cut = near.size * u.size
    out = np.where(fold, 2.0, 1.0) * near * (
        vals[:cut].reshape(near.size, u.size) @ wu)
    out[rim] += np.sum(vals[cut:].reshape(t.shape) * wt, axis=-1)
    return out


def _cell_moment(p, h):
    """``int s^{p-1} ds`` over the log cell of width ``h`` about 1; the
    cell about r takes ``r^p`` times it."""
    return 2.0 * np.sinh(0.5 * p * h) / p


def _series_pairs(d, h, n, alpha, ratio):
    """The series terms of the pair integrals of the log cell of width
    ``h`` about 1 with the cells ``d`` offsets up: one row per offset,
    one column per term, one row for a scalar ``d``.

    With ``s < t`` the kernel is ``|S^{n-1}| sum_l c_l s^{2l}
    t^{alpha-n-2l}``, the ``c_l`` of :func:`_series_coefficients` at
    ``ratio``, so term l of a pair is ``|S^{n-1}| c_l m(n+2l)
    m(alpha-2l) e^{(alpha-2l) d h}`` in the cell moments ``m`` of
    :func:`_cell_moment`.  The terms sum to the pair where its radii
    stay within ``ratio``, ``e^{-(d-1)h} <= ratio``; J, their number,
    is 20 to 27 at ``FAR_RATIO`` and 11 to 14 at 1/4 for ``alpha < 2``
    (n = 3..7), k for ``alpha = 2k``.  The offset factor is ``e^{alpha
    d h}`` times the l-th power of ``e^{-2dh}``, whose rounding grows
    like l; in one exp it would grow like ``(2l - alpha) d h``, up to
    1.1e-14 at l = 25.
    """
    coef = _series_coefficients(n, alpha, ratio)
    l = np.arange(coef.size)
    dh = np.expand_dims(np.multiply(d, h), -1)
    return (sphere_area(n) * coef * _cell_moment(n + 2.0 * l, h)
            * _cell_moment(alpha - 2.0 * l, h)
            * np.exp(alpha * dh) * np.exp(-2.0 * dh) ** l)


def _far_tables(top, lam, base, grow):
    """Scale tables of the cell pairs at least D offsets apart.

    With ``top[l]`` the l-th series term of the pair integral at offset
    D (``base`` excluded) and ``lam[l] = (alpha - 2l) h``, the pair of
    nodes t and ``u + D``, ``t <= u``, integrates to
    ``base[t] sum_l top[l] e^{lam[l] (u - t)}``: a power ``r_t^{n+2l}``
    of the inner radius times a power ``r^{alpha-2l}`` of the outer one.
    ``base`` holds ``r^{n+alpha}`` at the first ``F = base.size``
    nodes, ``grow = (n + alpha) h`` is its log step, and ``u``
    runs over the same F positions.  They are cut into nb blocks of B,
    ``t = kB + s``, each with its own centre ``c``:

        inner[l, t] = base[t] e^{-lam[l] (t - c)} 2^{-e[l, k]},
        outer[l, t] = top[l] e^{lam[l] (t - c)} 2^{e[l, k]},

    so a pair within one block is ``sum_l inner[l, t] outer[l, u]``,
    and ``carry[l, k] = e^{lam[l] B} 2^{e[l, k] - e[l, k+1]}`` turns a
    partial sum of inner values from block k to block k+1 units, or
    one of outer values from block k+1 to block k units.  The integer
    ``e`` gives both tables the same size at the block centre; blocks
    are as long as keeps every entry within ``e^{+-_SCALE_LOG_LIMIT}``,
    one block on ordinary grids (eight decades, J up to 14).

    Returns ``(gather, scatter, carry)`` for the two sweeps of
    :func:`_far_sweeps`, shaped ``(2, J, nb, B)`` twice and ``(2, J,
    nb - 1)``.  Sweep 0 gathers inner over the lower nodes, scatters
    outer to the upper ones and runs forward; sweep 1 gathers outer and
    scatters inner, with its positions (and blocks) reversed so that it
    runs forward too.  Entries past F are 0.  With no far pairs (F = 0)
    all three are None.
    """
    size = base.size
    if not size:
        return None, None, None
    log_top = np.log(np.abs(top))
    centre = 0.5 * np.max(np.abs(log_top[:, None]
                                 + np.log(base[[0, -1]])[None, :]))
    rate = np.max(np.maximum(np.abs(lam), grow - lam))
    room = max(_SCALE_LOG_LIMIT - centre, 0.0)
    blocks = -(-size // max(int(2.0 * room / rate), 1))
    length = -(-size // blocks)
    s = np.arange(length) - 0.5 * (length - 1)
    mid = np.minimum(np.arange(blocks) * length + length // 2, size - 1)
    e = np.rint(0.5 * (np.log2(base[mid])[None, :]
                       - log_top[:, None] / math.log(2.0))).astype(int)
    padded = np.zeros((blocks, length))
    padded.flat[:size] = base
    # row 0 of each table written in place, row 1 the other's reversed
    gather, scatter = np.empty((2, 2, top.size, blocks, length))
    inner, outer = gather[0], scatter[0]
    # exact, as ldexp: 2^-e is normal (-e <= 1023 as base >= 2^-1022 and
    # |top| < 2^1024, -e >= -1001 as base < 2^1024 and a kept |top| >
    # 2^-106 |S^{n-1}| h^2 > 2^-977 for n <= 343, h > 2^-66); and as
    # s[::-1] == -s, e^{-lam s} is e^{lam s} reversed to the bit
    ramp = np.exp(lam[:, None] * s)[:, None, :]
    np.multiply(padded, np.ldexp(1.0, -e)[:, :, None], out=inner)
    inner *= ramp[..., ::-1]
    np.multiply(np.ldexp(top[:, None, None], e[:, :, None]), ramp, out=outer)
    outer.reshape(top.size, -1)[:, size:] = 0.0
    gather[1], scatter[1] = outer[:, ::-1, ::-1], inner[:, ::-1, ::-1]
    half = np.exp(0.5 * length * lam)[:, None]
    carry = np.ldexp(half, e[:, :-1] - e[:, 1:]) * half
    return gather, scatter, np.stack((carry, carry[:, ::-1]))


def _far_sweeps(gather, scatter, carry, values, far, shift):
    """The far pairs of :meth:`KernelOperator.apply`.

    ``values`` are the node values, at most ``2^shift`` in
    size; returns the sums over the pairs at least ``D = values.size -
    far`` offsets apart, at the upper nodes ``D ..`` and at the lower
    nodes ``.. far - 1``.  Each sweep (see :func:`_far_tables`) takes
    the prefix sums of ``gather[l] * values`` within each block, adds
    the sum of the blocks before it moved by ``carry``, and contracts
    them with ``scatter`` over the J terms.  All of it runs in one
    ``2 x J x count`` work array: the product is formed into it, and
    the prefix sums, carries and ``scatter`` factors are taken in place.
    A far pair within one block is the product of the same two table
    entries in both sweeps, so the operator stays symmetric there to
    the last bit.
    """
    blocks, length = gather.shape[2:]
    # scaled to at most 1 by a power of two, so no partial sum overflows
    lined = np.zeros((2, blocks * length))
    lined[0, :far] = values[:far]
    lined[1, lined.shape[1] - far:] = values[:values.size - far - 1:-1]
    lined = np.ldexp(lined, -shift)
    sums = gather * lined.reshape(2, 1, blocks, length)
    np.add.accumulate(sums, axis=3, out=sums)
    for k in range(1, blocks):
        sums[:, :, k] += carry[:, :, k - 1, None] * sums[:, :, k - 1, -1:]
    sums *= scatter
    out = np.ldexp(sums.sum(axis=1).reshape(2, -1), shift)
    return out[0, :far], out[1, ::-1][:far]


def assemble(grid, n, alpha):
    """Assemble the bare-kernel operator on ``grid``, matrix-free.

    Every cell is the log cell of width h centred on its node, so the
    cell pairs form a one-parameter family in the index offset.  Pairs
    whose radii stay within ``FAR_RATIO`` across both cells are
    closed-form sums of cell moments (:func:`_series_pairs`), with the
    terms the ratio needs: all J of ``FAR_RATIO`` down to ratio 1/4, the
    deep cut, and about half as many past it.  The band runs to the
    first offset D past the deep cut, about ``2 ln 2 / h``, and the
    operator keeps all of it, past the count too on a grid shorter than
    its band; past it the operator keeps only the deep cut's J terms at
    offset D and their scale tables (:func:`_far_tables`), O(count J)
    numbers.  For even ``alpha`` the series is exact for any two
    distinct cells, so D = 1 and the band is the diagonal alone.  The
    band's first ``ln 2 / h`` offsets, sampled on fixed rules
    (:func:`_band`), take the only kernel samples: the head and tail
    take the band and the series (:func:`_end_tables`).  Nothing of size
    ``count x count`` is allocated.  The construction is symmetric in
    the pair of cells, so the adjoint identity ``w_i M[i][j] = w_j
    M[j][i]`` holds to rounding.

    Raises
    ------
    ValidationError
        For a bad grid or order, for ``r^{n+alpha}`` out of the normal
        double range at a node or edge, and, before anything is
        allocated, for more than ``MAX_DENSE_COUNT`` nodes (by
        :func:`check_dense_count`) or band offsets, which a non-even
        ``alpha`` takes on a log step below ``ln 4 / MAX_DENSE_COUNT``.
    """
    instance(grid, RadialGrid, "grid")
    n = _whole_order(n, alpha)
    if grid.n != n:
        raise ValidationError(
            "grid was built for dimension %d, not %d" % (grid.n, n))
    count = grid.count
    check_dense_count(count)

    h = grid.log_step
    # r^alpha r^n, each pow correctly rounded: exp((n+alpha) ln r) would
    # carry the rounding of ln r
    with np.errstate(over="ignore", under="ignore"):
        r_alpha = grid.nodes ** alpha
        powers = np.concatenate((grid.edges[[0, -1]] ** (n + alpha),
                                 r_alpha * grid.nodes ** n))
    if not np.all((powers >= np.finfo(float).tiny) & (powers < math.inf)):
        raise ValidationError(
            "r^(n+alpha) = r^%g leaves the double range on [%r, %r]"
            % (n + alpha, grid.r_min, grid.r_max))
    base = powers[2:]

    if -2.0 * math.log(_series_ratio(alpha)) > MAX_DENSE_COUNT * h:
        raise ValidationError("log step %g is too fine: the band would "
                              "pass %d offsets" % (h, MAX_DENSE_COUNT))
    band = _band(h, n, alpha)

    # Pairs past the band keep the J terms of the short series at offset
    # D, less those below rounding there (a term's share only falls with
    # the offset).
    top = _series_pairs(band.size, h, n, alpha, _series_ratio(alpha) ** 2)
    keep = np.abs(top) > _SERIES_CUT ** 2 * abs(top[0])
    lam = (alpha - 2.0 * np.arange(top.size)) * h
    far_gather, far_scatter, far_carry = _far_tables(
        top[keep], lam[keep], base[:max(count - band.size, 0)],
        (n + alpha) * h)

    head_response, tail_series = _end_tables(grid, band, n, alpha, r_alpha)
    op = KernelOperator(grid=grid, alpha=alpha, n=n, base=base,
                        band=band, far_gather=far_gather,
                        far_scatter=far_scatter, far_carry=far_carry,
                        head_response=head_response, tail_series=tail_series)
    # an operator is shared by every solve on its grid: a write into one
    # of its tables raises instead of changing them all
    for table in vars(op).values():
        if isinstance(table, np.ndarray):
            table.flags.writeable = False
    return op


def _band(h, n, alpha):
    """``band[d]``, the pair integrals of the cells ``(-h/2, h/2)`` and
    ``(dh - h/2, dh + h/2)`` for d below D, the first offset past the
    deep cut, whatever the count: the virtual end cells take them all.
    A pair is placed by the ratio of the inner cell's top edge to the
    outer cell's bottom one: sampled above the series ratio (offsets
    below S), one full-series sum (:func:`_series_pairs`) down to the
    deep cut, its square (both 1 for alpha = 2k, where D = S = 1).
    Sampled offsets 0 and 1 take the cusp rule (:func:`_cusp_pairs`),
    the rest one lattice (:func:`_lattice_pairs`)."""
    ratio = _series_ratio(alpha)
    deep = ratio * ratio
    # b/c at offsets 1, 2, .. to two past the deep cut
    gap = np.exp(-np.arange(int(-math.log(deep) / h) + 3) * h)
    sampled = 1 + np.count_nonzero(gap > ratio)
    width = 1 + np.count_nonzero(gap > deep)
    dh = np.arange(min(sampled, 2)) * h
    cusp = _cusp_pairs(np.array(np.broadcast_arrays(
        -0.5 * h, 0.5 * h, dh - 0.5 * h, dh + 0.5 * h)), n, alpha)
    return np.concatenate((cusp, _lattice_pairs(sampled, h, n, alpha),
                           _series_pairs(np.arange(sampled, width), h, n,
                                         alpha, ratio).sum(axis=1)))


def _lattice_pairs(stop, h, n, alpha):
    """The pair integrals of :func:`_band` at the offsets ``2 .. stop -
    1``, whose log-ratio windows ``[(d-1)h, (d+1)h]`` miss the cusp.

    Each window takes six Gauss panels of width h/3, one break on the
    kink of the overlap weight ``W`` (:func:`_overlap_weight`) at its
    middle, so windows d and d + 1 share the three on ``[dh, (d+1)h]``.
    ``K(1, e^z) e^{nz}`` is sampled once on each such cell, the upper
    half of one window and the lower of the next, and ``W``, a function
    of ``z - dh`` alone, once on the two halves of one window.
    """
    if stop < 3:
        return np.empty(0)
    t, wt = _gauss_panels(np.arange(4) * (h / 3.0))
    w = np.stack((wt, wt), axis=1) * _overlap_weight(np.stack(
        (t - h, t), axis=1), -0.5 * h, 0.5 * h, -0.5 * h, 0.5 * h, n + alpha)
    cells = np.arange(1, stop) * h
    halves = np.empty((cells.size, 2))
    for lo in range(0, cells.size, _LATTICE_BLOCK_ROWS):
        z = np.add.outer(cells[lo:lo + _LATTICE_BLOCK_ROWS], t)
        halves[lo:lo + z.shape[0]] = (_log_kernel(z, n, alpha)
                                      * np.exp(n * z)) @ w
    return halves[:-1, 0] + halves[1:, 1]


def _band_sums(band, rate, rows):
    """``sum_k band[m + k] e^{-rate k}``, k = 1 .. D-1-m, for the first
    ``rows`` m: the band part of the end response of the node m in from
    an end whose virtual cell k carries ``e^{-rate k}``; and those
    weights.  Each sum is ``e^{-rate}`` times ``band[m + 1]`` plus the
    next, so a suffix sum of ``band[d] e^{-rate d}`` over ``e^{-rate
    m}``: one ``cumsum``, in blocks that keep those powers in range, each
    adding the first sum of the block after it."""
    size = band.size - 1
    decay = np.exp(np.arange(1, band.size) * -rate)
    sums = np.empty(size)
    block = max(int(600.0 / rate), 1)
    for hi in range(size, 0, -block):
        lo = max(hi - block, 0)
        power = decay[:hi - lo]
        np.cumsum((band[lo + 1:hi + 1] * power)[::-1],
                  out=sums[lo:hi][::-1])
        sums[lo + 1:hi] /= power[:-1]
        if hi < size:
            sums[lo:hi] += power[::-1] * sums[hi]
    return sums[:rows], decay


def _end_tables(grid, band, n, alpha, r_alpha):
    """``(head_response, tail_series)`` on ``grid`` from the full ``band``
    (:func:`_band`) and ``r_alpha``, the nodes to the power alpha.
    Node i's pairs with the virtual end cells inside its band are ``base
    x band``; past them the deep cut's series splits each pair into cell
    moments ``m_i(p) = r_i^p m(p)`` (:func:`_cell_moment`), and the
    extension beyond the cut edge ``e`` into a power of ``e``, the head
    covering ``(0, e)``, the tail ``(e, inf)``:

        head  |S^{n-1}| sum_l c_l e^{n+2l}/(n+2l) m_i(alpha-2l) / w_i,
        tail  |S^{n-1}| sum_l c_l m_i(n+2l)/w_i e^{alpha-2l}
                            (rMax/e)^tau / (tau - alpha + 2l).

    ``e`` is the grid's edge, or ``r_i e^{-+(D-1/2)h}`` for the D - 1
    nodes nearest it; its powers are formed from node ratios.
    ``tail_series`` holds the tail's terms without ``(rMax/e)^tau/(tau -
    alpha + 2l)``, ``count x J`` in column order."""
    h, nodes, weights = grid.log_step, grid.nodes, grid.weights
    coef = _series_coefficients(n, alpha, _series_ratio(alpha) ** 2)
    l2 = 2.0 * np.arange(coef.size)
    reach = math.exp((band.size - 0.5) * h)

    edge = np.minimum(grid.edges[0], nodes / reach)
    head = sphere_area(n) * edge ** n * r_alpha / weights * _horner(
        np.square(edge / nodes), coef * _cell_moment(alpha - l2, h) / (n + l2))
    if band.size > 1:
        near = _band_sums(band, (n + alpha) * h, grid.count)[0]
        head[:near.size] += (nodes[0] ** alpha * nodes[0] ** n
                             / weights[:near.size] * near)

    edge = np.maximum(grid.edges[-1], nodes * reach)
    series = np.empty((grid.count, coef.size), order="F")
    series[:, 0] = sphere_area(n) * edge ** alpha
    ratio2 = np.square(nodes / edge)
    for l in range(1, coef.size):
        np.multiply(series[:, l - 1], ratio2, out=series[:, l])
    series *= coef * _cell_moment(n + l2, h) / _cell_moment(n, h)
    # a row's first term is at least sqrt of the smallest normal double
    # (r^(n+alpha) is normal and alpha < n), so its subnormal terms are
    # far below its rounding; as 0 they do not slow the products
    series[np.abs(series) < np.finfo(float).tiny] = 0.0
    return head, series


def tail_response(op, tail_exponent):
    """Response at each node to the unit tail profile beyond the outer
    edge.

    The tail model is ``(s/r_max)^{-tau}`` for ``s > r_max e^{h/2}``,
    the outer edge of the last cell; the caller scales by the last node
    value.  On the virtual cells of the module docstring, those inside a
    node's band take ``band`` and the law's node values ``e^{-tau k h}``,
    k cells past the end, and the law beyond them is integrated exactly
    (``op.tail_series``): one ``count x J`` product and one suffix sum
    (:func:`_band_sums`) a call, with no state kept per ``tau``.

    Raises
    ------
    ValidationError
        For an ``op`` of another class or a malformed ``tail_exponent``.
    DivergentTailError
        For ``tail_exponent <= alpha``.
    """
    tau = real_number(tail_exponent, "tail exponent")
    if tau <= instance(op, KernelOperator, "operator").alpha:
        raise DivergentTailError(
            "tail extension diverges: tail exponent %r <= alpha %r"
            % (tail_exponent, op.alpha))
    grid, h, series = op.grid, op.grid.log_step, op.tail_series
    # (r_max/e)^tau = e^{-tau (k + 1/2) h} past the cut edge e = r_end e^{kh}
    out = series.dot(math.exp(-0.5 * tau * h)
                     / (tau - op.alpha + 2.0 * np.arange(series.shape[1])))
    if op.band.size > 1:
        near, decay = _band_sums(op.band, tau * h, grid.count)
        rows = near.size
        out[-rows:] *= decay[-rows:]
        # r_i^{n+alpha}/w_i, the scale of node i's pairs over its weight
        out[-rows:] += (grid.nodes[-rows:] ** op.alpha
                        / _cell_moment(op.n, h) * near[::-1])
    return out


def apply_extended(op, values, tail_exponent):
    """Normalized operator action on raw node values with extensions.

    Computes ``(op.apply(values) + head + tail) / gamma(n, alpha)``
    where the head extends the profile as the constant ``values[0]``
    below the cells, on ``(0, rMin e^{-h/2})``, and the tail as the power
    law ``values[-1] * (s/rMax)^{-tail_exponent}`` from ``rMax e^{h/2}``
    out to infinity, both averaged over each node's cell like the rows:
    on the cells continuing the grid they take their node values inside
    a node's band and are integrated exactly beyond (:func:`tail_response`).
    The cost is that of
    :meth:`KernelOperator.apply`, O(count (D + J)), plus a
    :func:`tail_response` when ``values[-1]`` is not 0; no dense matrix
    is used.

    Raises
    ------
    ValidationError
        Unless ``op`` is a :class:`KernelOperator`, ``values`` holds one
        finite value per node and ``tail_exponent`` is a finite real
        number, whether the tail is used or not.
    """
    real_number(tail_exponent, "tail exponent")
    out = instance(op, KernelOperator, "operator").apply(values)
    values = np.asarray(values, dtype=float)
    if values[0] != 0.0:
        out += values[0] * op.head_response
    if values[-1] != 0.0:
        out += values[-1] * tail_response(op, tail_exponent)
    return np.divide(out, op.normalization, out=out)


def field_integral(f, power=1.0):
    """Full-line radial integral of a powered field.

    Computes ``int_0^inf f(s)^power s^{n-1} ds`` using the grid
    quadrature over the cells, ``[rMin e^{-h/2}, rMax e^{h/2}]``, the
    constant extension of ``f`` below them and its pure power-law tail
    ``(s/rMax)^{-tau}`` above them, each in closed form.

    Raises
    ------
    ValidationError
        Unless ``f`` is a field and ``power`` a finite real number > 0.
    DivergentTailError
        When the powered tail is not integrable, ``power*tau <= n``.
    """
    if not real_number(power, "power") > 0.0:
        raise ValidationError("power must be > 0, not %r" % (power,))
    grid = instance(f, RadialField, "field").grid
    n = float(grid.n)
    vals = f.values ** power
    core = float(np.dot(grid.weights, vals))
    head = vals[0] * grid.edges[0] ** n / n

    tail = 0.0
    if vals[-1] != 0.0:
        tau_eff = power * f.tail_exponent
        if tau_eff <= n:
            raise DivergentTailError(
                "tail integral diverges: tail exponent*power %r <= %r"
                % (tau_eff, n))
        # r_max^tau (r_max e^{h/2})^(n - tau) / (tau - n)
        tail = (vals[-1] * grid.r_max ** n
                * math.exp(0.5 * (n - tau_eff) * grid.log_step)
                / (tau_eff - n))
    return core + head + tail
