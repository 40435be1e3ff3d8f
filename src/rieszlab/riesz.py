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
normalization is applied by the ``apply_*`` routines, so power-law and
closed-form solution identities hold with their classical constants.

The matrix is assembled from exact double-cell integrals

    M[i][j] = (1/w_i) * int_{cell_i} int_{cell_j} K(s,t) s^{n-1} t^{n-1} ds dt,

which makes the discrete operator exactly self-adjoint with respect to
the cell weights (``w_i M[i][j] == w_j M[j][i]`` to rounding) and
second-order accurate in the log mesh width.  On the log grid all
interior cell pairs with the same index offset share one reduced 1D
integral, so assembly costs O(count) kernel quadratures.

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

    def with_values(self, values, tail_exponent=None, tail_log_power=None):
        """Copy with replaced values and, optionally, tail model."""
        return RadialField(
            grid=self.grid, values=values,
            tail_exponent=(self.tail_exponent if tail_exponent is None
                           else float(tail_exponent)),
            tail_log_power=(self.tail_log_power if tail_log_power is None
                            else int(tail_log_power)))


@dataclass(frozen=True)
class KernelOperator:
    """Dense bare-kernel discretization on one grid.

    ``matrix`` maps node values to bare integral values,
    ``(matrix @ f)[i] ~ int_{rMin}^{rMax} K(r_i, s) f(s) s^{n-1} ds``.
    ``head_response`` is the bare response to the unit profile below
    ``rMin``; ``tail_kernel[i, k]`` is ``K(1, s_k/r_i)`` times the weight
    of the fixed tail quadrature node ``y_k = ln(s_k/rMax)``, from which
    :func:`tail_response` builds the response beyond ``rMax``.
    The classical normalization is applied by the ``apply_*`` functions.
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


def _gauss_panels(breaks, order=12):
    """Gauss-Legendre nodes/weights on a sequence of panels."""
    x0, w0 = leggauss(order)
    breaks = np.asarray(breaks, dtype=float)
    mid = 0.5 * (breaks[1:] + breaks[:-1])
    half = 0.5 * (breaks[1:] - breaks[:-1])
    nodes = (mid[:, None] + half[:, None] * x0[None, :]).ravel()
    weights = (half[:, None] * w0[None, :]).ravel()
    return nodes, weights


def _graded_breaks(lo, hi, toward_lo, levels=12, ratio=0.5):
    """Panel breakpoints of [lo, hi] geometrically graded toward one end."""
    span = hi - lo
    steps = span * ratio ** np.arange(levels, 0, -1)
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
     np.linspace(1.0, math.log(TAIL_RANGE_CAP), 16)[1:])), order=12)


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


def _pair_cell_quadrature(la, lb, lc, ld, n, alpha, adaptive_budget=10 ** 6):
    """Exact-to-tolerance double-cell integral, reduced to 1D.

    Returns ``int_{cell_s} int_{cell_t} K(s,t) s^{n-1} t^{n-1} ds dt`` for
    log-cells ``[la, lb] x [lc, ld]``.  When the log-ratio window contains
    zero (cells touch or overlap the diagonal) the kernel cusp is handled
    by adaptive quadrature split at zero; otherwise fixed Gauss panels
    suffice.
    """
    zlo, zhi = lc - lb, ld - la
    npa = n + alpha

    def zintegrand(z):
        z = np.asarray(z, dtype=float)
        return (kernel_ratio(np.exp(z), n, alpha) * np.exp(n * z)
                * _overlap_weight(z, la, lb, lc, ld, npa))

    if zlo < 0.0 < zhi:
        out = integrate.quad(
            lambda z: float(zintegrand(z)), zlo, zhi, points=[0.0],
            epsabs=0.0, epsrel=1e-11, limit=400, full_output=True)
        val, err, info = out[0], out[1], out[2]
        if (info["neval"] > adaptive_budget or not math.isfinite(val)
                or err > 1e-6 * abs(val) + 1e-300):
            raise AssemblyError(
                "diagonal-cell quadrature did not converge within budget")
        return val
    # The kernel cusp can sit at a window end (touching cells); the
    # weight vanishes there, but grade toward it for low orders alpha.
    if zlo == 0.0:
        breaks = _graded_breaks(zlo, zhi, toward_lo=True)
    elif zhi == 0.0:
        breaks = _graded_breaks(zlo, zhi, toward_lo=False)
    else:
        breaks = np.linspace(zlo, zhi, 7)
    nodes, wts = _gauss_panels(breaks, order=12)
    return float(np.dot(wts, zintegrand(nodes)))


def assemble(grid, n, alpha):
    """Assemble the dense bare-kernel operator on ``grid``.

    Interior cell pairs are filled from per-offset reduced integrals
    (the log grid makes them a one-parameter family); pairs involving
    the two clipped boundary cells are integrated individually.  The
    construction is symmetric in the pair of cells, so the adjoint
    identity ``w_i M[i][j] = w_j M[j][i]`` holds to rounding.
    """
    if not isinstance(grid, RadialGrid):
        raise ValidationError("assemble needs a RadialGrid")
    if not (0.0 < alpha < n):
        raise ValidationError("need 0 < alpha < n")
    if grid.n != n:
        raise ValidationError(
            "grid was built for dimension %d, not %d" % (grid.n, n))

    count = grid.count
    h = grid.log_step
    lnodes = np.log(grid.nodes)
    ledges = np.log(grid.edges)
    npa = n + alpha

    # Reduced family integrals for full-width interior cell pairs:
    # sym(i, i+d) = r_i^{n+alpha} * fam[d] for 1 <= i, i+d <= count-2.
    fam = np.empty(count)
    # d = 0: kernel cusp at z = 0, adaptive split quadrature.  d = 1 has
    # the cusp at a window end; the graded path handles it.
    fam[0] = _pair_cell_quadrature(-0.5 * h, 0.5 * h, -0.5 * h, 0.5 * h,
                                   n, alpha)
    if count > 1:
        fam[1] = _pair_cell_quadrature(-0.5 * h, 0.5 * h, 0.5 * h, 1.5 * h,
                                       n, alpha)
    dvals = np.arange(2, count)
    zlo = dvals * h - h
    zhi = dvals * h + h
    # 6 Gauss panels per offset; the integrand vanishes linearly at the
    # window ends, so fixed panels converge fast.
    panels = np.linspace(0.0, 1.0, 7)
    breaks = zlo[:, None] + (zhi - zlo)[:, None] * panels[None, :]
    x0, w0 = leggauss(12)
    mids = 0.5 * (breaks[:, 1:] + breaks[:, :-1])
    halfs = 0.5 * (breaks[:, 1:] - breaks[:, :-1])
    znodes = mids[:, :, None] + halfs[:, :, None] * x0[None, None, :]
    zweights = halfs[:, :, None] * np.broadcast_to(w0, znodes.shape)
    kvals = kernel_ratio(np.exp(znodes), n, alpha)
    wvals = _overlap_weight(znodes, -0.5 * h, 0.5 * h,
                            dvals[:, None, None] * h - 0.5 * h,
                            dvals[:, None, None] * h + 0.5 * h, npa)
    fam[2:] = np.sum(kvals * np.exp(n * znodes) * wvals * zweights,
                     axis=(1, 2))

    sym = np.zeros((count, count))
    base = np.exp(npa * lnodes)
    for d in range(count):
        idx = np.arange(max(1, 0), count - d)
        idx = idx[(idx >= 1) & (idx + d <= count - 2)]
        if idx.size:
            sym[idx, idx + d] = base[idx] * fam[d]
            sym[idx + d, idx] = sym[idx, idx + d]

    # Boundary strips: any pair involving cell 0 or cell count-1.
    for i in (0, count - 1):
        for j in range(count):
            v = _pair_cell_quadrature(ledges[i], ledges[i + 1],
                                      ledges[j], ledges[j + 1], n, alpha)
            sym[i, j] = v
            sym[j, i] = v

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
    ynodes, yweights = _gauss_panels(breaks, order=12)
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


def apply_extended(op, values, tail_exponent, tail_log_power=0.0,
                   head_value=None):
    """Normalized operator action on raw node values with extensions.

    Computes ``(matrix @ values + head + tail) / gamma(n, alpha)`` where
    the head extends the profile as a constant (``head_value``, default
    ``values[0]``) on ``(0, rMin)`` and the tail as the power-law model
    anchored at ``values[-1]``.  ``tail_log_power`` may be real.
    """
    values = np.asarray(values, dtype=float)
    if head_value is None:
        head_value = values[0]
    out = op.matrix @ values
    if head_value != 0.0:
        out = out + head_value * op.head_response
    if values[-1] != 0.0:
        out = out + values[-1] * tail_response(op, tail_exponent,
                                               tail_log_power)
    return out / op.normalization


def apply_with_tail(op, f):
    """Normalized Riesz potential of a :class:`RadialField`.

    Returns a new field on the same grid.  The returned tail exponent is
    a provisional estimate (``min(tau - alpha, n - alpha)``); callers
    that iterate refit it from the data.
    """
    if f.grid is not op.grid and (f.grid.count != op.grid.count
                                  or not np.allclose(f.grid.nodes,
                                                     op.grid.nodes)):
        raise ValidationError("field and operator live on different grids")
    if not np.any(f.values):
        return f.with_values(np.zeros_like(f.values),
                             tail_exponent=max(f.tail_exponent, 1.0),
                             tail_log_power=0)
    out = apply_extended(op, f.values, f.tail_exponent, f.tail_log_power)
    provisional = min(f.tail_exponent - op.alpha, op.n - op.alpha)
    return RadialField(grid=f.grid, values=out,
                       tail_exponent=provisional, tail_log_power=0)


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
            ynodes, yweights = _gauss_panels(
                np.linspace(0.0, y_max, 17), order=12)
            lr = math.log(grid.r_max)
            if lr <= 1.0:
                raise ValidationError(
                    "log-corrected tails need r_max > e")
            prof = (np.exp((n_eff - tau_eff) * ynodes)
                    * (1.0 + ynodes / lr) ** m_eff)
            tail = vals[-1] * grid.r_max ** n_eff * float(
                np.dot(yweights, prof))
    return core + head + tail
