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
:func:`kernel_ratio` evaluates ``K`` by its hypergeometric closed form;
for ``alpha < 2`` it switches near the diagonal to one w -> 1 connection
formula, which covers the finite cusp (``1 < alpha < 2``), the
logarithmic one (``alpha == 1``) and the infinite one (``alpha < 1``).
For even ``alpha = 2k`` the series terminates: ``K`` is ``max(r, s)^
(alpha-n)`` times a polynomial of degree ``k - 1`` in ``(r_</r_>)^2``
(Newton's shell theorem at ``k = 1``), summed exactly with no 2F1 call.

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
For even ``alpha`` the series is the whole kernel, and every interior
pair of distinct cells takes it.

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

The responses to the constant head below ``r_min`` and to the
power-law tail model beyond ``r_max`` take the series too, except at
the nodes within a factor 2 of the domain end.  The head is then one
closed form per node.  The tail is integrated on a fixed graded
quadrature in ``y = ln(s/r_max)`` over ``[0, ln TAIL_RANGE_CAP]`` (Q =
336 nodes): assembly keeps the weighted kernel samples of the near
rows, ``KernelOperator.tail_kernel``, about ``ln 2 / h`` x Q doubles,
and factors the far rows into a ``count x J`` and a ``J x Q`` table.
The response to a tail of any decay exponent is then
``O((count + Q) J + Q ln 2 / h)`` work, with no state kept per call.
An assembly on 4096 nodes over eight decades samples the kernel about
0.13M times, where sampling every pair, head and tail row would take
3.2M.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.polynomial.polynomial import polyval
from scipy import integrate, special

from .errors import (DivergentTailError, SingularKernelError,
                     TruncationWarning, ValidationError)
from .grid import RadialGrid

#: Relative remainder targeted when truncating tail-extension integrals.
TAIL_REMAINDER = 1e-8
#: Hard cap on the tail integration range, as a multiple of r_max.
TAIL_RANGE_CAP = 1e6
#: ``1 - w`` below which :func:`kernel_ratio` evaluates 2F1 by the
#: connection formula for every ``alpha < 2`` (``|1 - rho|`` below ~0.1).
#: Above 1e-4 it is needed too: for ``alpha -> 1`` scipy's 2F1 is off by
#: up to 1e-3 there.
CUSP_PATCH_RADIUS = 1e-2
#: ``|alpha - 1|/2`` below which the connection formula is summed in the
#: cancellation-free form of :func:`_near_log_2f1`.
_NEAR_LOG_EXPONENT = 1e-2
#: Largest ratio ``r_</r_>`` of two radii at which the kernel is taken
#: from its series (:func:`_series_coefficients`) instead of sampled:
#: there ``t = (r_</r_>)^2 <= 1/4`` and the series converges like 4^-l.
FAR_RATIO = 0.5
#: Size of a series term, relative to the first, below which the sum
#: stops: half an ulp of 1.
_SERIES_CUT = 0.5 * np.finfo(float).eps
#: Grid nodes whose tail kernel rows are sampled in one ``kernel_ratio``
#: call; bounds the transient arrays of the build to about a MB each.
_TAIL_BUILD_ROWS = 256
#: Cell pairs integrated in one ``kernel_ratio`` call by
#: :func:`_pair_integrals`; at 72 samples a pair, under a MB per array.
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

    Uses the closed hypergeometric form of the spherical average

        K(1, rho) = |S^{n-1}| (1 + rho^2)^{(alpha-n)/2}
                    * 2F1(a, a + 1/2; n/2; w),

    with ``a = (n - alpha)/4`` and ``w = (2 rho / (1 + rho^2))^2``.  The
    value at ``rho = 1`` is finite only for ``alpha > 1``; it is +inf for
    ``alpha <= 1``.

    For even ``alpha = 2k`` the equivalent form in ``t = (r_</r_>)^2``,
    ``|S^{n-1}| R^{alpha-n} 2F1((n-alpha)/2, 1-k; n/2; t)`` with
    ``R = max(1, rho)``, is a polynomial of degree ``k - 1`` in ``t``
    (Newton's shell theorem ``|S^{n-1}| R^{2-n}`` at ``k = 1``); it is
    summed exactly, with no 2F1 call and no loss near the diagonal.
    """
    rho = np.asarray(rho, dtype=float)
    if alpha % 2.0 == 0.0:
        return _terminating_kernel(rho, n, alpha)
    lift = 1.0 + rho * rho
    # 1 - w, computed stably: (1 - rho)(1 + rho)/(1 + rho^2), squared
    one_mw = np.square((1.0 - rho) * (1.0 + rho) / lift)
    return _hyp_kernel(lift, np.square(2.0 * rho / lift), one_mw, n, alpha)


def _hyp_kernel(lift, w, one_mw, n, alpha):
    """``|S^{n-1}| lift^{(alpha-n)/2} 2F1(a, a + 1/2; n/2; w)``, the closed
    form of :func:`kernel_ratio` with ``lift = 1 + rho^2``, given ``w``
    and ``one_mw = 1 - w`` computed apart, each to its own rounding.
    """
    a = 0.25 * (n - alpha)
    if alpha < 2.0:
        # Near the diagonal w -> 1 loses all precision in double
        # arithmetic, and 2F1 with it: the kernel has a cusp
        # ~ (1 - w)^{(alpha-1)/2}, infinite for alpha < 1 and logarithmic
        # for alpha == 1.  Patch a neighborhood of rho = 1 with the w -> 1
        # connection formula in 1 - w.
        near = one_mw < CUSP_PATCH_RADIUS
        w = np.where(near, 0.0, w)
        hyp = special.hyp2f1(a, a + 0.5, 0.5 * n, w)
        if np.any(near):
            hyp = np.array(hyp)
            hyp[near] = _cusp_2f1(np.asarray(one_mw)[near], n, alpha)
    else:
        hyp = special.hyp2f1(a, a + 0.5, 0.5 * n, w)
    return sphere_area(n) * lift ** (0.5 * (alpha - n)) * hyp


def _log_kernel(z, n, alpha):
    """``K(1, e^z)``, as :func:`kernel_ratio` but from the log-ratio ``z``.

    For ``alpha < 2``, where the kernel has its cusp, ``1 - w =
    tanh(z)^2``, ``w = 1/cosh(z)^2`` and ``1 + rho^2 = 2 e^z cosh(z)`` are
    formed from ``z`` itself: ``rho = e^z`` rounds to 1 for ``|z|`` below
    about 1e-16, where the cusp term of an ``alpha < 1`` kernel is still
    finite and large.  Every other ``alpha`` takes ``kernel_ratio(e^z)``.
    """
    z = np.asarray(z, dtype=float)
    if alpha >= 2.0:
        return kernel_ratio(np.exp(z), n, alpha)
    cosh = np.cosh(z)
    return _hyp_kernel(2.0 * np.exp(z) * cosh, 1.0 / np.square(cosh),
                       np.square(np.tanh(z)), n, alpha)


def _series_coefficients(n, alpha):
    """Coefficients ``c_l`` of the kernel's series in ``t = (r_</r_>)^2``.

    ``K(r, s) = |S^{n-1}| r_>^{alpha-n} sum_l c_l t^l`` with ``c_l =
    ((n-alpha)/2)_l (1-alpha/2)_l / ((n/2)_l l!)``, by their two-term
    recurrence.  For even ``alpha = 2k`` it stops by itself, ``c_k = 0``:
    the k terms are the whole kernel.  Otherwise the terms run up to the
    first one below rounding at ``t = FAR_RATIO^2``, looked for only from
    ``l >= alpha/2 - 1`` on, where ``|c_l|`` no longer grows, so the
    terms cut off sum to less than rounding too (20 to 27 terms for
    ``alpha < 2`` and n = 3..7).
    """
    a, b, c = 0.5 * (n - alpha), 1.0 - 0.5 * alpha, 0.5 * n
    even = alpha % 2.0 == 0.0
    coef = [1.0]
    j = 0
    while True:
        nxt = coef[-1] * (a + j) * (b + j) / ((c + j) * (j + 1))
        j += 1
        below = abs(nxt) * FAR_RATIO ** (2 * j) < _SERIES_CUT
        if nxt == 0.0 or (not even and j >= -b and below):
            return np.array(coef)
        coef.append(nxt)


def _terminating_kernel(rho, n, alpha):
    """``K(1, rho)`` for even ``alpha = 2k``: the terminating 2F1 series.

    ``|S^{n-1}| R^{alpha-n} sum_{l<k} c_l t^l`` with ``R = max(1, rho)``,
    ``t = (min(1, rho)/R)^2`` and the ``c_l`` of
    :func:`_series_coefficients`, summed by Horner's rule.
    """
    coef = _series_coefficients(n, alpha)
    big = np.maximum(1.0, rho)
    poly = coef[0]
    if coef.size > 1:
        poly = polyval(np.square(np.minimum(1.0, rho) / big), coef)
    return (sphere_area(n) * poly) * big ** (alpha - n)


def _cusp_2f1(x, n, alpha):
    """``2F1(a, a + 1/2; n/2; 1 - x)`` for small ``x`` and ``0 < alpha < 2``.

    The w -> 1 connection formula with ``e = c - a - b = (alpha - 1)/2``
    in ``(-1/2, 1/2)``, both series in ``x`` kept in full:

        2F1 = G(c)G(e)/(G(c-a)G(c-b)) 2F1(a, b; 1-e; x)
              + x^e G(c)G(-e)/(G(a)G(b)) 2F1(c-a, c-b; 1+e; x).

    The cusp term ``x^e`` is infinite at ``x = 0`` (``rho = 1``) for
    ``e < 0``; ``e = 0`` is the logarithmic limit of
    :func:`_near_log_2f1`.
    """
    a = 0.25 * (n - alpha)
    b = a + 0.5
    c = 0.5 * n
    e = 0.5 * (alpha - 1.0)
    if abs(e) < _NEAR_LOG_EXPONENT:
        return _near_log_2f1(x, a, b, c, e)
    gc = math.gamma(c)
    regular = (gc * math.gamma(e) / (math.gamma(c - a) * math.gamma(c - b))
               * special.hyp2f1(a, b, 1.0 - e, x))
    with np.errstate(divide="ignore"):
        cusp = (gc * math.gamma(-e) / (math.gamma(a) * math.gamma(b))
                * x ** e * special.hyp2f1(c - a, c - b, 1.0 + e, x))
    return regular + cusp


def _near_log_2f1(x, a, b, c, e, terms=12, order=8):
    """The connection formula of :func:`_cusp_2f1` for small ``|e|``.

    Its two terms grow like ``+-1/e`` and cancel, losing about
    ``log10(1/(|e ln x|))`` digits.  Here they are paired term by term in
    ``x``: with ``c - a = b + e`` and ``c - b = a + e`` the k-th pair is

        G(c)/(G(a+e)G(b+e)) (a)_k (b)_k x^k / (k! G(k+1-e))
        * G(e)G(1-e) * (-expm1(e g_k)),
        e g_k = ln[G(a+k+e)G(b+k+e)G(k+1-e) x^e / (G(a+k)G(b+k)G(k+1+e))],

    and ``g_k - ln x`` is summed from the Taylor series of the log-gamma
    differences in ``e`` (polygamma), so nothing cancels.  With
    ``G(e)G(1-e) = 1/(e sinc e)`` the last factor is
    ``-g_k exprel(e g_k)/sinc(e)``, which is ``-g_k`` at ``e = 0``: the
    logarithmic ``alpha == 1`` case needs no form of its own.  ``x`` is
    below ``CUSP_PATCH_RADIUS``, so twelve terms in ``x`` and eight in
    ``e`` reach rounding for ``|e| < _NEAR_LOG_EXPONENT``.  At ``x = 0``
    only the k = 0 pair is left, ``1/e`` times its coefficient for
    ``e > 0`` and +inf otherwise.
    """
    k = np.arange(terms, dtype=float)
    # g_k - ln x, from the Taylor series of the log-gamma differences
    shift = 0.0
    for j in range(1, order + 1):
        psi = special.polygamma(j - 1, a + k) + special.polygamma(j - 1, b + k)
        if j % 2:
            psi -= 2.0 * special.polygamma(j - 1, k + 1.0)
        shift = shift + e ** (j - 1) / math.factorial(j) * psi
    coef = (math.gamma(c) / (math.gamma(a + e) * math.gamma(b + e))
            * special.poch(a, k) * special.poch(b, k)
            / (special.factorial(k) * special.gamma(k + 1.0 - e)
               * np.sinc(e)))
    x = np.asarray(x, dtype=float)
    on_cusp = x == 0.0
    xs = np.where(on_cusp, 1.0, x)[..., None]
    g = np.log(xs) + shift
    pairs = -np.sum(coef * xs ** k * g * special.exprel(e * g), axis=-1)
    return np.where(on_cusp, coef[0] / e if e > 0.0 else np.inf, pairs)


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
    ``rMin``.  :func:`tail_response` builds the response beyond ``rMax``
    on the fixed tail quadrature ``y_k = ln(s_k/rMax)`` from three
    tables.  The last ``tail_kernel.shape[0]`` nodes, those with
    ``r_i/rMax > FAR_RATIO``, have a row of ``tail_kernel``:
    ``K(1, s_k/r_i)`` times the weight ``w_k``.  The first nodes factor
    through the kernel's J-term series: ``tail_series[i, l] = |S^{n-1}|
    rMax^alpha c_l (r_i/rMax)^{2l}``, one row per such node, and
    ``tail_moments[l, k] = w_k e^{(alpha-n-2l) y_k}`` (J x Q).
    The classical normalization is applied by :func:`apply_extended`.
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
    tail_kernel: np.ndarray = field(repr=False, default=None)
    tail_series: np.ndarray = field(repr=False, default=None)
    tail_moments: np.ndarray = field(repr=False, default=None)

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
    ``alpha`` the series is exact for any two distinct cells, so D = 1
    and the interior band is the diagonal alone.  The
    off-cusp pairs of the near band, about ``3 ln 2 / h`` of them, are
    fixed Gauss-panel sums, their kernel samples taken in a few large
    ``kernel_ratio`` calls; the three windows ending at the cusp (offset
    1 and the two touching boundary pairs) share one call on panels
    graded toward it, and the three pairs straddling the cusp one more
    on the fixed rule of :func:`_cusp_pairs`.  Nothing of size ``count x
    count`` is allocated.  The construction is symmetric in the pair of
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
    # Offsets 2 .. count-3 and the boundary strips, (0, j) for j = 2 ..
    # count-2 and (count-1, j) for j = 0 .. count-3, are off the cusp.
    # Pairs whose radii stay within FAR_RATIO of each other form the
    # near band, offsets below D: one batch on uniform panels.  The rest
    # take the series.  For alpha = 2k the series is the whole kernel,
    # so every interior pair of distinct cells takes it: D = 1.
    near_off = np.exp(-(np.arange(2, count - 2) - 1) * h) > FAR_RATIO
    width = 1 if alpha % 2.0 == 0.0 else 2 + np.count_nonzero(near_off)
    js0, jsl = np.arange(2, last), np.arange(last - 1)
    near0 = edges[1] / edges[js0] > FAR_RATIO
    nearl = edges[jsl + 1] / edges[last] > FAR_RATIO

    dh = np.arange(2, width) * h
    strips = np.concatenate((_pair_cells(edges, 0, js0[near0]),
                             _pair_cells(edges, last, jsl[nearl])), axis=1)
    cells = np.concatenate((np.array(np.broadcast_arrays(
        -0.5 * h, 0.5 * h, dh - 0.5 * h, dh + 0.5 * h)), strips), axis=1)
    zlo = np.concatenate((dh - h, strips[2] - strips[1]))
    zhi = np.concatenate((dh + h, strips[3] - strips[0]))
    breaks = zlo[:, None] + (zhi - zlo)[:, None] * _UNIFORM_PANELS
    band = np.empty(width)
    strip0, stripl = np.empty(js0.size), np.empty(jsl.size)
    band[2:], band0, bandl = np.split(
        _pair_integrals(cells, breaks, n, alpha),
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

    # Windows ending at the cusp, on panels graded toward it: offset 1
    # and the two touching boundary pairs.
    touching = np.stack((_pair_cells(edges, 0, 1),
                         _pair_cells(edges, last, last - 1),
                         [-0.5 * h, 0.5 * h, 0.5 * h, 1.5 * h]),
                        axis=1)[:, :1 + width]
    touch0, touchl, *band[1:2] = _pair_integrals(
        touching, np.array([_touching_breaks(*c) for c in touching.T]),
        n, alpha)

    # Windows straddling the cusp: the offset-0 pair and the two
    # boundary cells with themselves, on the fixed cusp rule.
    band[0], diag0, diagl = _cusp_pairs(np.stack(
        ([-0.5 * h, 0.5 * h, -0.5 * h, 0.5 * h], _pair_cells(edges, 0, 0),
         _pair_cells(edges, last, last)), axis=1), n, alpha)

    # Boundary rows; the corner pair is integrated once, as (count-1, 0).
    rowl = np.concatenate((stripl, scalel * np.array([touchl, diagl])))
    row0 = np.concatenate((scale0 * np.array([diag0, touch0]), strip0,
                           rowl[:1]))
    tail_kernel, tail_series, tail_moments = _tail_tables(grid, n, alpha)
    return KernelOperator(grid=grid, alpha=alpha, n=n,
                          boundary=np.array([row0, rowl]), base=base,
                          band=band, far_gather=far_gather,
                          far_scatter=far_scatter, far_carry=far_carry,
                          head_response=_head_response(grid, n, alpha),
                          tail_kernel=tail_kernel, tail_series=tail_series,
                          tail_moments=tail_moments)


def _head_response(grid, n, alpha):
    """Response at each node to the constant unit profile on (0, rMin).

    ``H_i = int_0^{rMin} K(r_i, s) s^{n-1} ds``, bare.  Nodes with
    ``r_min/r_i <= FAR_RATIO`` take the series term by term,

        H_i = |S^{n-1}| r_i^{alpha-n} r_min^n
              * sum_l c_l/(2l+n) (r_min/r_i)^{2l},

    with no quadrature.  For the nodes nearer ``r_min`` the substitution
    ``s = rMin e^{-y}`` gives an integrand decaying like ``e^{-n y}``,
    on a mesh graded toward ``y = 0``.  The ``i = 0`` node sees the
    kernel cusp there; its first stretch takes :func:`_cusp_rule`, with
    the kernel from :func:`_log_kernel` at ``z = -y``.
    """
    nodes = grid.nodes
    near = np.count_nonzero(grid.r_min / nodes > FAR_RATIO)
    coef = _series_coefficients(n, alpha)
    far = nodes[near:]
    out = np.empty(grid.count)
    out[near:] = (sphere_area(n) * far ** (alpha - n) * grid.r_min ** n
                  * polyval(np.square(grid.r_min / far),
                            coef / (2.0 * np.arange(coef.size) + n)))

    # Node 0 = r_min sits on the kernel cusp at y = 0: the cusp rule on
    # the first stretch, its kernel taken from the log-ratio -y.  The
    # other near nodes share one mesh graded toward y = 0.
    y_max = 40.0 / n
    stretch = min(2.0, y_max)
    rest = np.linspace(stretch, y_max, 8)
    ynodes, yweights = _gauss_panels(np.concatenate(
        (_graded_breaks(0.0, stretch, True), rest[1:])))
    s = grid.r_min * np.exp(-ynodes)
    ratio = s[None, :] / nodes[1:near, None]
    kv = kernel_ratio(ratio, n, alpha)
    integrand = kv * (s ** n)[None, :]
    out[1:near] = (nodes[1:near] ** (alpha - n)) * (integrand @ yweights)
    u, wu = _cusp_rule(alpha)
    rest_y, rest_w = _gauss_panels(rest)
    y0 = np.concatenate((stretch * u, rest_y))
    out[0] = grid.r_min ** alpha * np.dot(
        _log_kernel(-y0, n, alpha) * np.exp(-n * y0),
        np.concatenate((stretch * wu, rest_w)))
    return out


def _tail_tables(grid, n, alpha):
    """The tail quadrature, sampled near ``r_max`` and factored beyond.

    Returns ``(kernel, series, moments)``.  ``kernel`` has one row per
    node with ``r_i/r_max > FAR_RATIO``, about ``ln 2 / h`` of them:
    ``K(1, s_k/r_i) * w_k`` for ``s_k = r_max e^{y_k}``, sampled in
    blocks so the transient arrays stay small.  The other nodes, the
    first ``series.shape[0]``, take the series, which factors their rows
    into ``series[i, l] = |S^{n-1}| r_max^alpha c_l (r_i/r_max)^{2l}``
    and ``moments[l, k] = w_k e^{(alpha-n-2l) y_k}``.
    """
    far = np.count_nonzero(grid.nodes / grid.r_max <= FAR_RATIO)
    s = grid.r_max * np.exp(_TAIL_NODES)
    near = grid.nodes[far:]
    kernel = np.empty((near.size, s.size))
    for lo in range(0, near.size, _TAIL_BUILD_ROWS):
        rows = slice(lo, lo + _TAIL_BUILD_ROWS)
        ratio = s[None, :] / near[rows, None]
        kernel[rows] = kernel_ratio(ratio, n, alpha) * _TAIL_WEIGHTS
    coef = _series_coefficients(n, alpha)
    l2 = 2.0 * np.arange(coef.size)
    series = (sphere_area(n) * grid.r_max ** alpha * coef
              * (grid.nodes[:far, None] / grid.r_max) ** l2)
    moments = _TAIL_WEIGHTS * np.exp((alpha - n - l2)[:, None] * _TAIL_NODES)
    return kernel, series, moments


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
    The profile is integrated over the whole fixed range up to
    ``TAIL_RANGE_CAP * r_max``: against ``op.tail_kernel`` at the nodes
    near ``r_max``, and through ``op.tail_series @ (op.tail_moments @
    profile)`` at the others.  Each call costs a few small
    matrix-vector products, and the operator keeps no state per
    ``(tau, m)``.
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
    far = op.tail_series @ (op.tail_moments @ profile)
    near = (grid.nodes[far.size:] ** (op.alpha - op.n)
            * (op.tail_kernel @ profile) * grid.r_max ** op.n)
    return np.concatenate((far, near))


def apply_extended(op, values, tail_exponent, tail_log_power=0.0):
    """Normalized operator action on raw node values with extensions.

    Computes ``(op.apply(values) + head + tail) / gamma(n, alpha)``
    where the head extends the profile as the constant ``values[0]`` on
    ``(0, rMin)`` and the tail as the power-law model anchored at
    ``values[-1]``.  ``tail_log_power`` may be real.  The cost is that
    of :meth:`KernelOperator.apply`, O(count (D + J)), plus a
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
        out = out + values[-1] * tail_response(op, tail_exponent,
                                               tail_log_power)
    return out / op.normalization


def field_integral(f, power=1.0):
    """Full-line radial integral of a powered field.

    Computes ``int_0^inf f(s)^power s^{n-1} ds`` using the grid
    quadrature on ``[rMin, rMax]``, the constant extension of ``f`` below
    ``rMin`` and its power-law tail model above ``rMax``.

    Raises
    ------
    DivergentTailError
        When the powered tail is not integrable, ``power*tau <= n``.
    """
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
