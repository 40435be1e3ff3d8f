"""Exception hierarchy shared across the package.

Two families matter to callers (and to the CLI exit-code mapping):

* :class:`ValidationError` — the request itself is malformed (bad
  parameters, inconsistent configuration).  CLI exit code 2.
* :class:`NumericalError` — the request was well-formed but the
  computation could not be completed (non-convergence, invalid bracket,
  divergent tail, ...).  CLI exit code 1.
"""

from __future__ import annotations


class RieszLabError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(RieszLabError, ValueError):
    """Input violates a documented precondition or standing assumption."""


class NumericalError(RieszLabError, RuntimeError):
    """A well-posed computation failed to produce a usable result."""


class NonConvergenceError(NumericalError):
    """Fixed-point iteration exhausted its budget before reaching tolerance.

    Attributes
    ----------
    iterations : int
        Number of sweeps performed.
    residual_u, residual_v : float
        Last measured fixed-point residuals (relative sup norm on the
        grid interior).
    last_delta : float
        Last relative sup-norm change per sweep.
    """

    def __init__(self, message, iterations=0, residual_u=float("nan"),
                 residual_v=float("nan"), last_delta=float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.residual_u = residual_u
        self.residual_v = residual_v
        self.last_delta = last_delta


class CollapseError(NumericalError):
    """Iteration drifted to the trivial zero solution."""


class BracketError(NumericalError):
    """Bisection endpoints do not separate two distinct shot outcomes."""


class DivergentTailError(NumericalError):
    """A tail extension integral diverges (tail exponent too small)."""


class SingularKernelError(NumericalError):
    """Pointwise kernel evaluation requested where the kernel is infinite."""


class DegenerateFitError(NumericalError):
    """Tail fit impossible: zero abscissa variance or nonpositive samples."""


class PreconditionError(NumericalError):
    """An operation was applied to data outside its documented regime."""


class IntegrationError(NumericalError):
    """ODE integration failed (step-size underflow or non-finite state).

    Attributes
    ----------
    last_radius : float
        Largest radius with a finite, accepted state.
    """

    def __init__(self, message, last_radius=float("nan")):
        super().__init__(message)
        self.last_radius = last_radius


class TruncationWarning(UserWarning):
    """No longer emitted: the tail response has no range cap to truncate
    at.  Kept only for the benchmark's import; remove it at the next
    revision of ``bench/``."""


def whole_number(value, name):
    """``value`` as an ``int``; :class:`ValidationError` unless it is a
    finite number equal to an integer (not NaN, inf, a bool or a
    string)."""
    try:
        if int(value) == value and not isinstance(value, bool):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError("%s must be a whole number, got %r" % (name, value))
