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
:func:`kernel_ratio` evaluates ``K`` as one of two fixed polynomial
sums, with no 2F1 routine.  Where ``r_</r_>`` is at most ``max(FAR_RATIO,
1 - 1.5/n)`` it is the series in ``(r_</r_>)^2`` described below.
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
second-order accurate in the log mesh width.  On the log grid all
interior cell pairs with the same index offset share one reduced 1D
integral, so assembly needs O(count) reduced integrals: one per offset
and one per pair in the two boundary strips (cells 0 and count-1).

Where two radii stay at ``r_</r_> <= FAR_RATIO`` (1/2), ``K`` is its
series ``|S^{n-1}| r_>^{alpha-n} sum_l c_l (r_</r_>)^{2l}``
(:func:`_series_coefficients`): J terms, k for ``alpha = 2k`` and 20 to
27 for ``alpha < 2``, each a product of a power of ``r_<`` and one of
``r_>``.  Cell pairs that far apart are J-term sums of closed-form cell
moments, with no kernel samples.  The near band, about ``ln 2 / h``
offsets and strip pairs, is integrated on fixed Gauss panels, all of
it in a few batched :func:`kernel_ratio` calls; the three windows that
end at the cusp (offset 1 and the two touching boundary pairs) take one
more call on panels graded toward it.  The three pairs whose window
straddles the cusp (offset 0 and the two boundary cells with
themselves) take one fixed rule in one more call (:func:`_cusp_rule`):
48 halvings toward the cusp, Gauss-Legendre panels, and a Gauss-Jacobi
innermost panel of weight ``|z|^{alpha-1}``.  Its kernel samples are
formed from the log-ratio ``z`` (:func:`_log_kernel`), since ``e^z``
rounds to 1 on the innermost panels.  No adaptive quadrature is left.
For even ``alpha`` every pair of distinct cells takes the series
(:func:`_series_ratio`), and only the three cusp pairs are sampled.

No ``count x count`` array is formed.  The interior pairs below the
first far offset D, about ``ln 2 / h`` (D = 1 for even ``alpha``), are
``r_<^{n+alpha}`` times one value per offset, applied as a direct band
convolution; the interior pairs beyond are J products of a power of
``r_<`` and one of ``r_>``, applied as J forward and J backward prefix
sums over scale tables; the two boundary rows are stored.  One
:meth:`KernelOperator.apply` is O(count (D + J)) work on O(count J)
stored numbers, where a dense product is O(count^2) on a matrix of 134
MB at 4096 nodes.  ``KernelOperator.matrix`` builds the dense array
from the apply on first use, for tests and small grids.  Grids above
``MAX_DENSE_COUNT`` nodes are refused before anything is allocated.

The responses to the power-law tail beyond ``r_max`` and to the
constant head below ``r_min`` are one computation.  The series
integrates the tail in closed form where ``r_</r_> <= FAR_RATIO``: all
of it for a node more than a factor 2 below ``r_max``, from ``2 r_max``
on for the nodes within it, which add the factor-2 stretch on one mesh
graded toward the end (``_END_NODES``, Q = 156), the end node on the
cusp rule; for even ``alpha`` nothing is sampled.  A tail of any decay
exponent costs ``O(count J + Q ln 2 / h)``, with no state kept per call.
By the inversion ``s -> r_min^2/s``, with ``K(lam r, lam s) =
lam^(alpha-n) K(r, s)`` and ``K(1/r, 1/s) = (rs)^(n-alpha) K(r, s)``,
the head at ``r_i`` is ``(r_min/r_i)^(n-alpha)`` times the tail at ``tau
= n + alpha`` of the grid mirrored about ``r_min``: one table builder
and one response serve both ends.  An assembly on 4096 nodes over eight
decades samples the kernel about 85k times at ``alpha = 0.8`` and 1764
times at ``alpha = 2``, where sampling every pair, head and tail row
would take 3.2M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate, special

from .errors import (DivergentTailError, SingularKernelError, ValidationError,
                     whole_number)
from .grid import RadialGrid

#: Relative remainder at which :func:`field_integral` cuts a
#: log-corrected tail.
TAIL_REMAINDER = 1e-8
#: Largest ratio ``r_</r_>`` of two radii at which the kernel is taken
#: from its series (:func:`_series_coefficients`) instead of sampled:
#: there ``t = (r_</r_>)^2 <= 1/4`` and the series converges like 4^-l.
FAR_RATIO = 0.5
#: Width of the near zone of :func:`kernel_ratio` in dimension n: there
#: ``r_</r_> > max(FAR_RATIO, 1 - _NEAR_WIDTH/n)`` (:func:`_near_seam`).
_NEAR_WIDTH = 1.5
#: Terms of the near-zone series generated before the trim to rounding at
#: the seam (:func:`_near_coefficients`); at most 36 are kept.
_NEAR_TERMS = 64
#: Size of a series term, relative to the first, below which the sum
#: stops: half an ulp of 1.
_SERIES_CUT = 0.5 * np.finfo(float).eps
#: Grid nodes whose tail kernel rows are sampled in one ``kernel_ratio``
#: call; bounds the transient arrays of the build to a few hundred kB
#: each.
_TAIL_BUILD_ROWS = 256
#: Cell pairs integrated in one ``kernel_ratio`` call by
#: :func:`_near_pairs`; at 72 samples a pair, under a MB per array.
_PAIR_BLOCK_ROWS = 1024
#: Halvings toward the cusp of :func:`_cusp_rule`: its innermost panel
#: is 3.6e-15 of the interval, and 64 levels move no cusp pair by more
#: than 7e-16 (n = 3..7, alpha = 0.3..6.5, 64 to 4096 nodes).
_CUSP_LEVELS = 48
#: Largest grid :func:`assemble` accepts; the dense
#: ``KernelOperator.matrix`` of it is ``count x count`` doubles, 2 GB.
MAX_DENSE_COUNT = 16384
#: Largest ``|ln|`` of an entry of the far-field scale tables
#: (:func:`_far_tables`).  With the swept values scaled to at most 1,
#: a sum of ``MAX_DENSE_COUNT`` such products stays below e^690.
_SCALE_LOG_LIMIT = 680.0
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
    n = whole_number(n, "dimension")
    if not 0.0 < alpha < n:
        raise ValidationError("need 0 < alpha < n for the Riesz kernel")
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
    """Ratio ``r_</r_>`` where :func:`kernel_ratio` turns from the far
    series to the near zone: ``max(FAR_RATIO, 1 - _NEAR_WIDTH/n)``.

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


def _series_coefficients(n, alpha, ratio=FAR_RATIO):
    """Coefficients ``c_l`` of the kernel's series in ``t = (r_</r_>)^2``.

    ``K(r, s) = |S^{n-1}| r_>^{alpha-n} sum_l c_l t^l`` with ``c_l =
    ((n-alpha)/2)_l (1-alpha/2)_l / ((n/2)_l l!)``, by their two-term
    recurrence.  The terms run up to the first one below rounding at
    ``t = ratio^2``, looked for only from ``l > alpha/2 - 1`` on, where
    ``|c_l|`` no longer grows, so the terms cut off sum to about rounding
    too (20 to 27 terms for ``alpha < 2``, n = 3..7 and the default
    ``ratio = FAR_RATIO``).  For even ``alpha = 2k`` that first ``l`` is
    k, where the series stops by itself, ``c_k = 0``: the k terms are
    the whole kernel.
    """
    a, b, c = 0.5 * (n - alpha), 1.0 - 0.5 * alpha, 0.5 * n
    coef = [1.0]
    j = 0
    while True:
        nxt = coef[-1] * (a + j) * (b + j) / ((c + j) * (j + 1))
        j += 1
        below = abs(nxt) * ratio ** (2 * j) < _SERIES_CUT
        if nxt == 0.0 or (j > -b and below):
            return np.array(coef)
        coef.append(nxt)


def angular_kernel(r, s, n, alpha):
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
        Decay exponent ``tau``: beyond ``r_max`` the profile is modeled
        as ``values[-1] * (s/r_max)^{-tau} * (ln s / ln r_max)^kappa``.
    tail_log_power : int
        Logarithmic correction exponent ``kappa``, 0 or 1, read by
        :func:`field_integral`; :func:`apply_extended` takes the pure
        power law.
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
        if not math.isfinite(self.tail_exponent):
            raise ValidationError("tail_exponent must be finite, got %r"
                                  % (self.tail_exponent,))
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class KernelOperator:
    """Bare-kernel discretization on one grid, kept matrix-free.

    :meth:`apply` maps node values to bare integral values,
    ``apply(f)[i] ~ int_{rMin}^{rMax} K(r_i, s) f(s) s^{n-1} ds``, in
    O(count (D + J)) work from O(count J) numbers; ``matrix`` is the
    same map as a dense array, built on first use.  With ``w`` the cell
    weights, the symmetric pair integrals ``w_i M[i][j]`` are:

    - rows (and columns) 0 and count-1: the two rows of ``boundary``;
    - interior pairs ``0 < i, j < count-1`` closer than ``D =
      band.size`` offsets: ``base[min(i, j) - 1] * band[|i - j|]``,
      with ``base = r^{n+alpha}`` at the interior nodes;
    - interior pairs ``D`` or more offsets apart: a J-term sum of
      products of a power of the inner and one of the outer radius,
      held in ``far_gather``, ``far_scatter`` and ``far_carry`` (see
      :func:`_far_tables`).

    ``head_response`` is the bare response to the unit profile below
    ``rMin``: ``(rMin/r_i)^{n-alpha}`` times the tail response at ``tau =
    n + alpha`` of the grid mirrored about ``rMin`` (:func:`_head_response`).
    :func:`tail_response` reads the tables :func:`_tail_tables` builds for
    the grid itself: ``tail_series``, the closed-form series part of every
    node (``count x J``); ``tail_kernel``, the scaled kernel samples of the
    nodes within ``1/FAR_RATIO`` of ``rMax`` on the end mesh, the last
    node excepted; and ``tail_end``, the last node's samples on the cusp
    rule (None, and ``tail_kernel`` empty, for even ``alpha``).  The
    classical normalization is applied by :func:`apply_extended`.
    """

    grid: RadialGrid
    alpha: float = 0.0
    n: int = 0
    boundary: np.ndarray = field(repr=False, default=None)
    base: np.ndarray = field(repr=False, default=None)
    band: np.ndarray = field(repr=False, default=None)
    far_gather: np.ndarray = field(repr=False, default=None)
    far_scatter: np.ndarray = field(repr=False, default=None)
    far_carry: np.ndarray = field(repr=False, default=None)
    head_response: np.ndarray = field(repr=False, default=None)
    tail_series: np.ndarray = field(repr=False, default=None)
    tail_kernel: np.ndarray = field(repr=False, default=None)
    tail_end: np.ndarray = field(repr=False, default=None)

    @property
    def normalization(self):
        return riesz_normalization(self.n, self.alpha)

    def apply(self, values):
        """Bare operator action on node values: ``matrix @ values``.

        A direct band convolution over the near interior pairs, two
        blocked prefix sums per series term over the far ones (see
        :func:`_far_tables`), and the boundary rows as dot products,
        divided by the cell weights.

        Raises
        ------
        ValidationError
            Unless ``values`` holds one finite value per node.
        """
        count = self.grid.count
        f = np.asarray(values, dtype=float)
        if f.shape != (count,):
            raise ValidationError(
                "operator input must be %d node values, got shape %r"
                % (count, f.shape))
        peak = max(f.max(), -f.min())
        if not math.isfinite(peak):
            raise ValidationError("operator input must be finite")
        inner = f[1:-1]
        base, band, m, d = self.base, self.band, inner.size, self.band.size
        # One convolution gives the band pairs j <= i and, on the
        # reversed values past a gap, those j >= i; each side takes
        # half of the diagonal.
        kernel = np.concatenate(([0.5 * band[0]], band[1:]))
        sums = np.convolve(np.concatenate(
            (base * inner, np.zeros(d - 1), inner[::-1])), kernel)
        mid = sums[:m] + base * sums[2 * m + d - 2:m + d - 2:-1]
        if m > d:
            lower, upper = _far_sweeps(self.far_gather, self.far_scatter,
                                       self.far_carry, inner, m - d,
                                       math.frexp(peak)[1])
            mid[d:] += lower
            mid[:m - d] += upper
        out = np.empty(count)
        out[0], out[-1] = self.boundary @ f
        out[1:-1] = (mid + self.boundary[0, 1:-1] * f[0]
                     + self.boundary[1, 1:-1] * f[-1])
        return out / self.grid.weights

    @cached_property
    def matrix(self):
        """The operator as a dense ``count x count`` array, one
        :meth:`apply` per column; built on first access and kept, for
        tests and small grids.

        Raises
        ------
        ValidationError
            By :func:`check_dense_count`, above ``MAX_DENSE_COUNT``
            nodes.
        """
        count = self.grid.count
        check_dense_count(count)
        out = np.empty((count, count))
        unit = np.zeros(count)
        for j in range(count):
            unit[j] = 1.0
            out[:, j] = self.apply(unit)
            unit[j] = 0.0
        return out


def check_dense_count(count):
    """Refuse a grid larger than ``MAX_DENSE_COUNT`` nodes.

    The bound keeps the dense ``matrix`` of any operator within 2 GB.
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


#: Mesh of the sampled stretch beyond a domain end, in ``y = ln(s/r_end)``
#: over ``[0, ln(1/FAR_RATIO)]``: 13 panels halving toward the kernel cusp
#: at ``y = 0``, 156 nodes.
_END_NODES, _END_WEIGHTS = _gauss_panels(
    _graded_breaks(0.0, -math.log(FAR_RATIO), True))


def _overlap_weight(z, la, lb, lc, ld, npa):
    """Closed-form sigma integral of the double-cell reduction.

    For log-cells ``sigma in [la, lb]`` and ``tau in [lc, ld]`` and fixed
    log-ratio ``z = tau - sigma``, integrates ``e^{(n+alpha) sigma}`` over
    the admissible overlap of ``sigma`` ranges.  The difference of the
    two exponentials is formed with ``expm1``, so it is accurate to the
    rounding of ``s2 - s1``: in coordinates where ``sigma`` stays near 0
    (see :func:`_pair_cells`) that is relative to the cell width.
    """
    s1 = np.maximum(la, lc - z)
    s2 = np.minimum(lb, ld - z)
    return np.where(s2 > s1,
                    np.exp(npa * s1) * np.expm1(npa * (s2 - s1)) / npa, 0.0)


def _pair_integrand(z, la, lb, lc, ld, n, alpha):
    """Integrand of the double-cell integral reduced to the log-ratio ``z``."""
    return (kernel_ratio(np.exp(z), n, alpha) * np.exp(n * z)
            * _overlap_weight(z, la, lb, lc, ld, n + alpha))


def _gauss_jacobi(b):
    """12-point Gauss rule of weight ``(1 + x)^b`` on [-1, 1], ``b > -1``.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix of the weight's three-term recurrence, the weights ``2^{b+1}
    /(b+1)`` times the squared first components of its eigenvectors.
    The weights are within 1.4e-13 of ``scipy.special.roots_jacobi(12,
    0, b)`` for b in [-0.7, 5.5].  That one takes 0.2 to 1 ms a call and
    runs on scipy's LAPACK, about a MB of resident memory that nothing
    else in an assembly touches; this one runs on numpy's, in 0.1 ms.
    """
    k = np.arange(1.0, _GAUSS_X.size)
    s = 2.0 * k + b
    diag = np.concatenate(([b / (b + 2.0)], b * b / (s * (s + 2.0))))
    off = 2.0 * k * (k + b) / (s * np.sqrt(s * s - 1.0))
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1)
                            + np.diag(off, -1))
    return x, 2.0 ** (b + 1.0) / (b + 1.0) * np.square(vec[0])


def _cusp_rule(alpha):
    """Fixed rule for ``int_0^1 f(u) du`` with ``f ~ u^{alpha-1}`` at 0.

    ``_CUSP_LEVELS`` halvings toward 0 (:func:`_graded_breaks`), 12-point
    Gauss-Legendre on every panel but the innermost, ``[0, d]`` with ``d
    = 2^-_CUSP_LEVELS``, which takes the 12-point Gauss-Jacobi rule of
    weight ``u^{alpha-1}``; its weights are divided by ``u^{alpha-1}`` at
    the nodes, so the rule is applied to ``f`` itself.  Returns the nodes
    and weights, innermost first.
    """
    nodes, weights = _gauss_panels(
        _graded_breaks(0.0, 1.0, True, levels=_CUSP_LEVELS)[1:])
    x, wx = _gauss_jacobi(alpha - 1.0)
    half = 0.5 ** (_CUSP_LEVELS + 1)
    return (np.concatenate((half * (1.0 + x), nodes)),
            np.concatenate((half * wx * (1.0 + x) ** (1.0 - alpha), weights)))


@lru_cache(maxsize=16)
def _end_cusp_rule(alpha):
    """:func:`_cusp_rule` on the end stretch ``[0, ln(1/FAR_RATIO)]``,
    for the node at the domain end.  Read-only: the last few ``alpha``
    are kept, since every :func:`_end_response` call with a sampled end
    node needs the nodes."""
    u, wu = _cusp_rule(alpha)
    y, wy = -math.log(FAR_RATIO) * u, -math.log(FAR_RATIO) * wu
    y.flags.writeable = wy.flags.writeable = False
    return y, wy


def _cusp_pairs(cells, n, alpha):
    """Double-cell integrals of cells with themselves, across the cusp.

    ``cells`` is the ``4 x P`` array of log-cells ``(la, lb, la, lb)``,
    whose log-ratio window ``(-w, w)``, ``w = lb - la``, holds the kernel
    cusp at ``z = 0`` and the overlap weight's only kink.  The integrand
    is even in ``z``: ``K(1, e^{-z}) = e^{(n-alpha) z} K(1, e^z)`` and
    ``W(-z) = e^{(n+alpha) z} W(z)`` for the overlap weight ``W``.  So
    each pair is twice its half ``(0, w)`` on :func:`_cusp_rule`, all
    pairs in one :func:`_log_kernel` call.
    """
    u, wu = _cusp_rule(alpha)
    width = (cells[1] - cells[0])[:, None]
    z = width * u
    vals = (_log_kernel(z, n, alpha) * np.exp(n * z)
            * _overlap_weight(z, *cells[:, :, None], n + alpha))
    return 2.0 * width[:, 0] * (vals @ wu)


def _near_pairs(cells, n, alpha):
    """Double-cell integrals of near cell pairs off the cusp, on fixed
    Gauss panels.

    ``cells`` is the ``4 x P`` array of log-cells ``(la, lb, lc, ld)``.
    A window ``[lc - lb, ld - la]`` that ends at the cusp ``z = 0``
    takes panels graded toward it (:func:`_touching_breaks`), the others
    six uniform panels.  Pairs are sampled ``_PAIR_BLOCK_ROWS`` at a
    time.
    """
    zlo, zhi = cells[2] - cells[1], cells[3] - cells[0]
    touch = (zlo == 0.0) | (zhi == 0.0)
    out = np.empty(zlo.size)
    for part, breaks in (
            (~touch, zlo[~touch, None]
             + (zhi - zlo)[~touch, None] * _UNIFORM_PANELS),
            (touch, [_touching_breaks(*c) for c in cells[:, touch].T])):
        part = np.flatnonzero(part)
        for lo in range(0, part.size, _PAIR_BLOCK_ROWS):
            rows = part[lo:lo + _PAIR_BLOCK_ROWS]
            z, wts = _gauss_panels(breaks[lo:lo + _PAIR_BLOCK_ROWS])
            vals = _pair_integrand(z, *cells[:, rows, None], n, alpha)
            out[rows] = np.sum(vals * wts, axis=-1)
    return out


def _pair_cells(edges, i, js):
    """Log-cells ``(la, lb, lc, ld)`` of the cell pairs ``(i, j)`` for
    ``j`` in ``js``, stacked as a ``4 x len(js)`` array.

    The coordinates are ``ln(r/edges[i])``, so cell ``i`` is ``[0, w]``
    and its pair integrals scale back by ``edges[i]^(n+alpha)``.  The
    widths of cell ``i`` and its lower neighbour come from ``log1p``
    (accurate to the rounding of the width, not of ``|ln r|``), and
    the edges a touching pair shares are the same float on both sides,
    so its window ends at exactly 0.
    """
    lead = edges[i]
    rel = np.log(edges / lead)
    rel[i + 1] = np.log1p((edges[i + 1] - lead) / lead)
    if i > 0:
        rel[i - 1] = -np.log1p((lead - edges[i - 1]) / edges[i - 1])
    return np.array(np.broadcast_arrays(rel[i], rel[i + 1],
                                        rel[js], rel[js + 1]))


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


def _far_pairs(b, wa, c, wc, n, alpha):
    """Double-cell integrals of cell pairs far apart, by the series.

    The lower cells end at ``b`` and the upper cells start at ``c``
    (arrays), with log widths ``wa`` and ``wc`` and ``b/c <=
    FAR_RATIO``.  With ``s < t`` the kernel is ``|S^{n-1}| sum_l c_l
    s^{2l} t^{alpha-n-2l}``, so the pair integral is a sum of products
    of cell moments ``m(p) = int s^{p-1} ds``:

        |S^{n-1}| sum_l c_l m_lower(2l+n) m_upper(alpha-2l).

    Each moment is taken from the end ``x`` of its cell where ``s^p``
    is largest, ``x^p w exprel(-|p| w)``: nothing cancels, and the
    powers combine to ``b^n x^alpha (b/x)^{2l}`` with ``x`` an end of
    the upper cell, which stays in the double range.  The widths are
    passed, not taken from the edges: for the ideal interior cells they
    are exactly ``h``, and the difference of two rounded edges far from
    r = 1 would lose digits in proportion to ``|ln r|/h``.
    """
    return sphere_area(n) * b ** n * np.sum(
        _far_terms(b, wa, c, wc, n, alpha), axis=0)


def _far_terms(b, wa, c, wc, n, alpha):
    """The J terms of :func:`_far_pairs` before the sum, one row per
    term, without the common factor ``|S^{n-1}| b^n``."""
    coef = _series_coefficients(n, alpha)[:, None]
    l2 = 2.0 * np.arange(coef.size)[:, None]
    upper_exp = alpha - l2
    top = np.where(upper_exp > 0.0, c * np.exp(wc), c)
    return (coef * (b / top) ** l2 * top ** alpha
            * wa * special.exprel(-(l2 + n) * wa)
            * wc * special.exprel(-np.abs(upper_exp) * wc))


def _far_tables(top, lam, base, grow):
    """Scale tables of the interior pairs at least D offsets apart.

    With ``top[l]`` the l-th series term of the pair integral at offset
    D (``base`` excluded) and ``lam[l] = (alpha - 2l) h``, the pair of
    interior nodes t and ``u + D``, ``t <= u``, integrates to
    ``base[t] sum_l top[l] e^{lam[l] (u - t)}``: a power ``r_t^{n+2l}``
    of the inner radius times a power ``r^{alpha-2l}`` of the outer one.
    ``base`` holds ``r^{n+alpha}`` at the first ``F = base.size``
    interior nodes, ``grow = (n + alpha) h`` is its log step, and ``u``
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
    one block on ordinary grids (eight decades, J up to 27).

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
    t = np.arange(blocks * length)
    s = (t % length - 0.5 * (length - 1))[None, :]
    mid = np.minimum(np.arange(blocks) * length + length // 2, size - 1)
    e = np.rint(0.5 * (np.log2(base[mid])[None, :]
                       - log_top[:, None] / math.log(2.0))).astype(int)
    shift = e[:, t // length]
    padded = np.zeros(t.size)
    padded[:size] = base
    inner = np.ldexp(padded, -shift) * np.exp(-lam[:, None] * s)
    outer = np.ldexp(top[:, None], shift) * np.exp(lam[:, None] * s)
    outer[:, size:] = 0.0
    half = np.exp(0.5 * length * lam)[:, None]
    carry = np.ldexp(half, e[:, :-1] - e[:, 1:]) * half
    shape = (2, top.size, blocks, length)
    return (np.stack((inner, outer[:, ::-1])).reshape(shape),
            np.stack((outer, inner[:, ::-1])).reshape(shape),
            np.stack((carry, carry[:, ::-1])))


def _far_sweeps(gather, scatter, carry, values, far, shift):
    """The far interior pairs of :meth:`KernelOperator.apply`.

    ``values`` are the interior node values, at most ``2^shift`` in
    size; returns the sums over the pairs at least ``D = values.size -
    far`` offsets apart, at the upper nodes ``D ..`` and at the lower
    nodes ``.. far - 1``.  Each sweep (see :func:`_far_tables`) takes
    the prefix sums of ``gather[l] * values`` within each block, adds
    the sum of the blocks before it moved by ``carry``, and contracts
    them with ``scatter`` over the J terms.  A far pair within one
    block is the product of the same two table entries in both sweeps,
    so the operator stays symmetric there to the last bit.
    """
    blocks, length = gather.shape[2:]
    # scaled to at most 1 by a power of two, so no partial sum overflows
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


def assemble(grid, n, alpha):
    """Assemble the bare-kernel operator on ``grid``, matrix-free.

    Interior cell pairs form a one-parameter family in the index offset;
    pairs involving the two clipped boundary cells are integrated
    individually, into the two ``boundary`` rows.  Pairs whose
    radii stay within ``FAR_RATIO`` across both cells are closed-form
    sums of cell moments (:func:`_far_pairs`): for the interior ones the
    operator keeps only the J terms at the first far offset D and their
    scale tables (:func:`_far_tables`), O(count J) numbers.  For even
    ``alpha`` the series is exact for any two distinct cells, so D = 1,
    the interior band is the diagonal alone and the strips take the
    series throughout.  The off-cusp pairs of the near band, about ``3 ln
    2 / h`` of them, are fixed Gauss-panel sums (:func:`_near_pairs`),
    and the three pairs straddling the cusp take the fixed rule of
    :func:`_cusp_pairs`.  Nothing of size ``count x count`` is
    allocated.  The construction is symmetric in the pair of
    cells, so the adjoint identity ``w_i M[i][j] = w_j M[j][i]`` holds to
    rounding.

    Raises
    ------
    ValidationError
        For a bad grid or order, for ``r^{n+alpha}`` out of the normal
        double range at a node or edge, and, by :func:`check_dense_count`
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
    edges = grid.edges
    last = count - 1
    with np.errstate(over="ignore", under="ignore"):
        powers = np.concatenate((edges ** (n + alpha),
                                 np.exp((n + alpha) * np.log(grid.nodes))))
    if not np.all((powers >= np.finfo(float).tiny) & (powers < math.inf)):
        raise ValidationError(
            "r^(n+alpha) = r^%g leaves the double range on [%r, %r]"
            % (n + alpha, grid.r_min, grid.r_max))
    # boundary-row integrals come relative to the row cell's left edge
    scale0, scalel = powers[[0, last]]
    base = powers[count + 2:-1]

    # Full-width interior cells i, i+d give sym(i, i+d) = r_i^{n+alpha}
    # * fam[d], with fam[d] the pair (-h/2, h/2) x (dh - h/2, dh + h/2).
    # Pairs of distinct cells whose radii do not stay within the series
    # ratio of each other form the near band: interior offsets 1 .. D-1
    # and the strip pairs (0, j), j = 1 .. count-2, and (count-1, j), j
    # = 0 .. count-2, that are near.  The rest take the series.  For
    # alpha = 2k the series is the whole kernel and no pair is near: D =
    # 1, and every strip pair takes the series.
    ratio = _series_ratio(alpha)
    width = 1 + np.count_nonzero(
        np.exp(-(np.arange(1, count - 2) - 1) * h) > ratio)
    js0, jsl = np.arange(1, last), np.arange(last)
    near0 = edges[1] / edges[js0] > ratio
    nearl = edges[jsl + 1] / edges[last] > ratio

    dh = np.arange(1, width) * h
    cells = np.concatenate((np.array(np.broadcast_arrays(
        -0.5 * h, 0.5 * h, dh - 0.5 * h, dh + 0.5 * h)),
        _pair_cells(edges, 0, js0[near0]),
        _pair_cells(edges, last, jsl[nearl])), axis=1)
    band = np.empty(width)
    strip0, stripl = np.empty(js0.size), np.empty(jsl.size)
    band[1:], band0, bandl = np.split(
        _near_pairs(cells, n, alpha),
        [dh.size, dh.size + np.count_nonzero(near0)])
    strip0[near0] = scale0 * band0
    stripl[nearl] = scalel * bandl

    # Far pairs: closed-form cell moments, the interior ones on the same
    # ideal cells as the near band, the strips on the grid's cells.
    # Interior pairs keep the J terms at offset D, less those below
    # rounding there (a term's share only falls with the offset).
    b = math.exp(0.5 * h)
    top = (sphere_area(n) * b ** n
           * _far_terms(b, h, math.exp((width - 0.5) * h), h, n, alpha)[:, 0])
    keep = np.abs(top) > _SERIES_CUT ** 2 * abs(top[0])
    lam = (alpha - 2.0 * np.arange(top.size)) * h
    far_gather, far_scatter, far_carry = _far_tables(
        top[keep], lam[keep], base[:max(count - 2 - width, 0)],
        (n + alpha) * h)
    j, k = js0[~near0], jsl[~nearl]
    widths = np.log1p(np.diff(edges) / edges[:-1])
    strip0[~near0] = _far_pairs(edges[1], widths[0], edges[j], widths[j],
                                n, alpha)
    stripl[~nearl] = _far_pairs(edges[k + 1], widths[k], edges[last],
                                widths[last], n, alpha)

    # Windows straddling the cusp: the offset-0 pair and the two
    # boundary cells with themselves, on the fixed cusp rule.
    band[0], diag0, diagl = _cusp_pairs(np.stack(
        ([-0.5 * h, 0.5 * h, -0.5 * h, 0.5 * h], _pair_cells(edges, 0, 0),
         _pair_cells(edges, last, last)), axis=1), n, alpha)

    # Boundary rows; the corner pair is integrated once, as (count-1, 0).
    rowl = np.append(stripl, scalel * diagl)
    row0 = np.concatenate(([scale0 * diag0], strip0, rowl[:1]))
    tail_series, tail_kernel, tail_end = _tail_tables(grid.nodes,
                                                      grid.r_max, n, alpha)
    return KernelOperator(grid=grid, alpha=alpha, n=n,
                          boundary=np.array([row0, rowl]), base=base,
                          band=band, far_gather=far_gather,
                          far_scatter=far_scatter, far_carry=far_carry,
                          head_response=_head_response(grid, n, alpha),
                          tail_series=tail_series, tail_kernel=tail_kernel,
                          tail_end=tail_end)


def _head_response(grid, n, alpha):
    """Response at each node to the constant unit profile on (0, rMin).

    ``H_i = int_0^{rMin} K(r_i, s) s^{n-1} ds``, bare: by the inversion
    ``s -> rMin^2/s`` (module docstring), ``(rMin/r_i)^{n-alpha}`` times
    the :func:`_end_response` at ``tau = n + alpha`` of the grid mirrored
    about ``rMin``, the nodes ``rMin^2/r_i`` reversed, ending at ``rMin``.
    """
    nodes, r_min = grid.nodes, grid.r_min
    mirrored = (r_min * (r_min / nodes))[::-1]
    tail = _end_response(_tail_tables(mirrored, r_min, n, alpha), n + alpha,
                         n, alpha)
    return (r_min / nodes) ** (n - alpha) * tail[::-1]


def _tail_tables(nodes, r_end, n, alpha):
    """The tables of :func:`_end_response` beyond ``r_end``, the last of
    the increasing ``nodes``: ``(series, kernel, end)``.

    Above ``k r_end`` the kernel is its series at every node, and the
    tail ``(s/r_end)^{-tau}`` integrates term by term to

        |S^{n-1}| r_end^alpha sum_l c_l (r_i/r_end)^{2l}
                  k^{alpha-2l-tau} / (tau - alpha + 2l),

    ``k = 1`` for ``r_i/r_end <= FAR_RATIO`` and ``k = 1/FAR_RATIO`` for
    the last ``near`` nodes.  ``series`` holds the terms without
    ``k^-tau``, ``count x J`` in column order, one running product over
    ``l``.  The near nodes add ``[r_end, k r_end]``, ``r_end^n
    r_i^{alpha-n} int K(1, r_end e^y/r_i) e^{(n-tau) y} dy``: ``kernel``
    holds the factor before the integral times the kernel and the weight
    on the end mesh, one row per near node but the last, and ``end`` the
    same for the last node on :func:`_end_cusp_rule`, or None when no
    node is near (even ``alpha``).
    """
    near = np.count_nonzero(nodes / r_end > _series_ratio(alpha))
    coef = _series_coefficients(n, alpha)
    series = np.empty((nodes.size, coef.size), order="F")
    series[:, 0] = sphere_area(n) * r_end ** alpha
    ratio2 = np.square(nodes / r_end)
    for l in range(1, coef.size):
        np.multiply(series[:, l - 1], ratio2, out=series[:, l])
    series *= coef
    series[nodes.size - near:] *= FAR_RATIO ** (
        2.0 * np.arange(coef.size) - alpha)
    rows = nodes[nodes.size - near:-1]
    kernel = np.empty((rows.size, _END_NODES.size))
    s = r_end * np.exp(_END_NODES)
    for lo in range(0, rows.size, _TAIL_BUILD_ROWS):
        block = slice(lo, lo + _TAIL_BUILD_ROWS)
        kernel[block] = (rows[block, None] ** (alpha - n) * r_end ** n
                         * kernel_ratio(s[None, :] / rows[block, None], n,
                                        alpha) * _END_WEIGHTS)
    end = None
    if near:
        y, wy = _end_cusp_rule(alpha)
        end = r_end ** alpha * _log_kernel(y, n, alpha) * wy
    return series, kernel, end


def _end_response(tables, tau, n, alpha):
    """Response to the unit tail ``(s/r_end)^{-tau}`` from the tables of
    :func:`_tail_tables`: the series times ``1/(tau - alpha + 2l)``, and
    ``FAR_RATIO^tau`` and the sampled stretch at the near nodes."""
    series, kernel, end = tables
    out = series @ (1.0 / (tau - alpha + 2.0 * np.arange(series.shape[1])))
    if end is not None:
        near = kernel.shape[0] + 1
        out[-near:] *= FAR_RATIO ** tau
        out[-near:-1] += kernel @ np.exp((n - tau) * _END_NODES)
        out[-1] += end @ np.exp((n - tau) * _end_cusp_rule(alpha)[0])
    return out


def tail_response(op, tail_exponent):
    """Response at each node to the unit tail profile beyond ``r_max``.

    The tail model is ``(s/r_max)^{-tau}`` for ``s > r_max``; the caller
    scales by the boundary value.  It is :func:`_end_response` on the
    operator's tables of :func:`_tail_tables`: a few small matrix-vector
    products a call, with no state kept per ``tau``.

    Raises
    ------
    ValidationError
        For a non-finite ``tail_exponent``.
    DivergentTailError
        For ``tail_exponent <= alpha``.
    """
    if not math.isfinite(tail_exponent):
        raise ValidationError(
            "tail exponent must be finite, got %r" % (tail_exponent,))
    if tail_exponent <= op.alpha:
        raise DivergentTailError(
            "tail extension diverges: tail exponent %r <= alpha %r"
            % (tail_exponent, op.alpha))
    return _end_response((op.tail_series, op.tail_kernel, op.tail_end),
                         tail_exponent, op.n, op.alpha)


def apply_extended(op, values, tail_exponent):
    """Normalized operator action on raw node values with extensions.

    Computes ``(op.apply(values) + head + tail) / gamma(n, alpha)``
    where the head extends the profile as the constant ``values[0]`` on
    ``(0, rMin)`` and the tail as the power law ``values[-1] *
    (s/rMax)^{-tail_exponent}`` out to infinity.  The cost is that of
    :meth:`KernelOperator.apply`, O(count (D + J)), plus a
    :func:`tail_response` when ``values[-1]`` is not 0; no dense matrix
    is used.

    Raises
    ------
    ValidationError
        Unless ``values`` holds one finite value per node.
    """
    values = np.asarray(values, dtype=float)
    out = op.apply(values)
    if values[0] != 0.0:
        out = out + values[0] * op.head_response
    if values[-1] != 0.0:
        out = out + values[-1] * tail_response(op, tail_exponent)
    return out / op.normalization


def field_integral(f, power=1.0):
    """Full-line radial integral of a powered field.

    Computes ``int_0^inf f(s)^power s^{n-1} ds`` using the grid
    quadrature on ``[rMin, rMax]``, the constant extension of ``f`` below
    ``rMin`` and its power-law tail model above ``rMax``.

    Raises
    ------
    ValidationError
        Unless ``power`` is finite and positive.
    DivergentTailError
        When the powered tail is not integrable, ``power*tau <= n``.
    """
    if not 0.0 < power < math.inf:
        raise ValidationError("power must be finite and > 0, not %r" % power)
    grid = f.grid
    n = float(grid.n)
    vals = f.values ** power
    core = float(np.dot(grid.weights, vals))
    head = vals[0] * grid.r_min ** n / n

    tail = 0.0
    if vals[-1] != 0.0:
        tau_eff = power * f.tail_exponent
        m_eff = power * f.tail_log_power
        if tau_eff <= n:
            raise DivergentTailError(
                "tail integral diverges: tail exponent*power %r <= %r"
                % (tau_eff, n))
        if m_eff == 0.0:
            tail = vals[-1] * grid.r_max ** n / (tau_eff - n)
        else:
            y_max = -math.log(TAIL_REMAINDER) / (tau_eff - n)
            ynodes, yweights = _gauss_panels(np.linspace(0.0, y_max, 17))
            lr = math.log(grid.r_max)
            if lr <= 1.0:
                raise ValidationError(
                    "log-corrected tails need r_max > e")
            prof = (np.exp((n - tau_eff) * ynodes)
                    * (1.0 + ynodes / lr) ** m_eff)
            tail = vals[-1] * grid.r_max ** n * float(
                np.dot(yweights, prof))
    return core + head + tail
