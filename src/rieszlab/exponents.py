"""Exponent arithmetic for the coupled Riesz-potential system.

The system under study couples two positive radial profiles through
fractional integral operators:

    u = I_alpha[v^q],    v = I_alpha[u^p]      on R^n,

where ``I_alpha`` is the Riesz potential of order ``alpha``.  Everything
in this module is closed-form arithmetic over the data ``(n, alpha, p, q)``:
regime classification, the critical integrability exponents ``r0``/``s0``,
and the slow/fast asymptotic decay rates of solutions.

Conventions
-----------
* ``slowRateU = alpha*(q+1)/(pq-1)`` and ``slowRateV = alpha*(p+1)/(pq-1)``
  are the exponents of the exact scale-invariant power-law solutions.
  They are also the integrability thresholds: a tail ``r^{-tau}`` lies
  in ``L^{r0}`` exactly when ``tau > n/r0 = slowRateU`` (``s0`` likewise).
* ``fastRateU = n - alpha`` always; the fast rate of ``v`` depends on the
  size of ``p*(n-alpha)`` relative to ``n`` (three cases: a clean power
  law, a logarithmically corrected one, or a weakened exponent
  ``p*n - (p+1)*alpha``).
* The classification compares ``1/(p+1) + 1/(q+1)`` against
  ``(n-alpha)/n``:  smaller means supercritical, equal (to a relative
  tolerance of 1e-12) means critical, larger means subcritical.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import ValidationError, whole_number

#: Relative tolerance used to detect equality in the critical condition.
CRITICAL_RTOL = 1e-12


class Regime(str, enum.Enum):
    """Position of ``(n, alpha, p, q)`` relative to the critical manifold."""

    SUBCRITICAL = "Subcritical"
    CRITICAL = "Critical"
    SUPERCRITICAL = "Supercritical"


class VFastCase(str, enum.Enum):
    """Shape of the fast decay of the second profile ``v``."""

    PURE = "Pure"
    LOG_CORRECTED = "LogCorrected"
    WEAKENED = "Weakened"


@dataclass(frozen=True)
class Params:
    """Problem data ``(n, alpha, p, q)`` in canonical orientation.

    The theory is symmetric under exchanging the two profiles together
    with their exponents, so inputs with ``p > q`` are stored with the
    exponents swapped and ``swapped=True`` recorded; callers that care
    about the original labeling can undo the swap.

    Parameters
    ----------
    n : int
        Space dimension, ``n >= 3``.
    alpha : float
        Order of the Riesz potential, ``0 < alpha < n``.
    p, q : float
        Positive nonlinearity exponents with ``p*q > 1``.
    swapped : bool
        True when the constructor exchanged ``p`` and ``q`` to enforce
        the canonical orientation ``p <= q``.
    """

    n: int
    alpha: float
    p: float
    q: float
    swapped: bool = False

    def __post_init__(self):
        if whole_number(self.n, "dimension n") < 3:
            raise ValidationError(
                "dimension must be an integer n >= 3, got n=%r" % (self.n,))
        object.__setattr__(self, "n", int(self.n))
        if not (0.0 < self.alpha < self.n):
            raise ValidationError(
                "operator order must satisfy 0 < alpha < n, got alpha=%r, n=%d"
                % (self.alpha, self.n))
        if not (0.0 < self.p < math.inf and 0.0 < self.q < math.inf):
            raise ValidationError(
                "exponents must be positive and finite, got p=%r, q=%r"
                % (self.p, self.q))
        if not 1.0 < self.p * self.q < math.inf:
            raise ValidationError(
                "exponent product must satisfy 1 < p*q < inf, got p*q=%r"
                % (self.p * self.q,))
        if not self.alpha * (max(self.p, self.q) + 1.0) < math.inf:
            raise ValidationError(
                "decay rates overflow for p=%r, q=%r" % (self.p, self.q))
        p, q = float(self.p), float(self.q)
        if p > q:
            p, q = q, p
            object.__setattr__(self, "swapped", True)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @classmethod
    def from_order_k(cls, n, k, p, q):
        """Build Params from the polyharmonic order ``k`` (``alpha = 2k``)."""
        if k <= 0:
            raise ValidationError("polyharmonic order k must be positive")
        return cls(n=n, alpha=2.0 * k, p=p, q=q)


@dataclass(frozen=True)
class RegimeReport:
    """Derived exponents and regime classification for one Params.

    All fields are closed-form functions of ``(n, alpha, p, q)``; see the
    module docstring for the formulas.
    """

    regime: Regime
    r0: float
    s0: float
    fast_rate_u: float
    fast_rate_v: float
    v_fast_case: VFastCase
    slow_rate_u: float
    slow_rate_v: float
    satisfies_ncc: bool

    def to_dict(self):
        """Flat key/value mapping with JSON-friendly values."""
        return {
            "regime": self.regime.value,
            "r0": self.r0,
            "s0": self.s0,
            "fastRateU": self.fast_rate_u,
            "fastRateV": self.fast_rate_v,
            "vFastCase": self.v_fast_case.value,
            "slowRateU": self.slow_rate_u,
            "slowRateV": self.slow_rate_v,
            "satisfiesNcc": self.satisfies_ncc,
        }


def classify(params):
    """Populate the full :class:`RegimeReport` for ``params``.

    The regime is decided by comparing ``S = 1/(p+1) + 1/(q+1)`` with
    ``t = (n - alpha)/n``:  ``S < t`` (supercritical), ``S = t`` within
    ``CRITICAL_RTOL`` relative (critical), ``S > t`` (subcritical).
    ``satisfiesNcc`` records ``S <= t`` (critical or supercritical), the
    condition under which the slow rates sit below the fast rates.

    Parameters
    ----------
    params : Params

    Returns
    -------
    RegimeReport
    """
    n = params.n
    alpha = params.alpha
    p = params.p
    q = params.q

    s_sum = 1.0 / (p + 1.0) + 1.0 / (q + 1.0)
    target = (n - alpha) / n
    if abs(s_sum - target) <= CRITICAL_RTOL * abs(target):
        regime = Regime.CRITICAL
    elif s_sum < target:
        regime = Regime.SUPERCRITICAL
    else:
        regime = Regime.SUBCRITICAL

    pq = p * q
    r0 = n * (pq - 1.0) / (alpha * (q + 1.0))
    s0 = n * (pq - 1.0) / (alpha * (p + 1.0))
    slow_u = alpha * (q + 1.0) / (pq - 1.0)
    slow_v = alpha * (p + 1.0) / (pq - 1.0)

    fast_u = float(n - alpha)
    p_fast = p * (n - alpha)
    if abs(p_fast - n) <= CRITICAL_RTOL * n:
        v_case = VFastCase.LOG_CORRECTED
        fast_v = float(n - alpha)
    elif p_fast > n:
        v_case = VFastCase.PURE
        fast_v = float(n - alpha)
    else:
        v_case = VFastCase.WEAKENED
        fast_v = p * n - (p + 1.0) * alpha

    return RegimeReport(
        regime=regime,
        r0=r0,
        s0=s0,
        fast_rate_u=fast_u,
        fast_rate_v=fast_v,
        v_fast_case=v_case,
        slow_rate_u=slow_u,
        slow_rate_v=slow_v,
        satisfies_ncc=(regime is not Regime.SUBCRITICAL),
    )


def critical_q(n, alpha, p):
    """Solve the critical condition for ``q`` given ``(n, alpha, p)``.

    Returns the unique ``q`` with ``1/(p+1) + 1/(q+1) = (n-alpha)/n``,
    or raises :class:`ValidationError` when no positive solution exists.
    Useful for constructing exactly-critical parameter sets.
    """
    rest = (n - alpha) / n - 1.0 / (p + 1.0)
    if rest <= 0.0:
        raise ValidationError(
            "no critical q exists for n=%r, alpha=%r, p=%r" % (n, alpha, p))
    q = 1.0 / rest - 1.0
    if q <= 0.0 or not math.isfinite(q):
        raise ValidationError(
            "critical q is not a positive real for n=%r, alpha=%r, p=%r"
            % (n, alpha, p))
    return q
