"""Logarithmic radial grids with exact power-moment quadrature weights.

Radial integrals ``int_0^inf g(s) s^{n-1} ds`` restricted to
``[rMin, rMax]`` are discretized by cell quadrature: each node owns the
cell between the geometric midpoints to its neighbours (clipped at the
domain ends), and its weight is the exact integral of ``s^{n-1}`` over
that cell.  The weighted sum of node values is therefore exact for
``g = const`` and second-order accurate for smooth ``g`` in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, whole_number


@dataclass(frozen=True)
class RadialGrid:
    """Log-spaced radial mesh on ``[r_min, r_max]`` with cell weights.

    Attributes
    ----------
    r_min, r_max : float
        Domain endpoints, ``0 < r_min < r_max``.
    count : int
        Number of nodes, at least 16.
    n : int
        Space dimension; the weights integrate against the measure
        ``s^{n-1} ds``.
    nodes : ndarray
        Strictly increasing radii; ``nodes[0] == r_min`` and
        ``nodes[-1] == r_max`` exactly.
    edges : ndarray
        ``count + 1`` cell boundaries (geometric midpoints, clipped).
    weights : ndarray
        ``weights[j] = (edges[j+1]^n - edges[j]^n)/n``, the exact cell
        integral of ``s^{n-1}``.
    """

    r_min: float
    r_max: float
    count: int
    n: int
    nodes: np.ndarray = field(repr=False)
    edges: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def log_step(self):
        """Uniform node spacing in log space."""
        return np.log(self.r_max / self.r_min) / (self.count - 1)

    def interior_slice(self):
        """Index slice selecting the central half of the nodes.

        Residuals and identity checks are evaluated here because both
        domain truncations pollute the outermost cells.
        """
        lo = int(round(self.count / 4.0))
        return slice(lo, self.count - lo)

    def scaled(self, lam):
        """Return the grid with all radii multiplied by ``lam > 0``.

        Node ratios and the log step are preserved exactly, so operator
        assembly on the scaled grid reproduces the exact scaling
        covariance of the continuum operator.
        """
        if lam <= 0.0:
            raise ValidationError("scale factor must be positive")
        nodes = self.nodes * lam
        edges = self.edges * lam
        return RadialGrid(
            r_min=self.r_min * lam, r_max=self.r_max * lam,
            count=self.count, n=self.n,
            nodes=nodes, edges=edges, weights=_cell_weights(edges, self.n))


def _cell_weights(edges, n):
    """Exact cell moments of ``s^{n-1}``, rejected unless all are finite
    and positive (``edges^n`` must stay inside the double range)."""
    with np.errstate(over="ignore", invalid="ignore"):
        weights = (edges[1:] ** n - edges[:-1] ** n) / n
    if not np.all((weights > 0.0) & np.isfinite(weights)):
        raise ValidationError(
            "cell weights leave the double range: r^%d must stay finite "
            "and nonzero on [%r, %r]"
            % (n, float(edges[0]), float(edges[-1])))
    return weights


def make_grid(r_min=1e-4, r_max=1e4, count=512, n=3):
    """Construct a :class:`RadialGrid`.

    Parameters
    ----------
    r_min, r_max : float
        Positive domain endpoints with ``r_min < r_max``.
    count : int
        Number of log-spaced nodes (>= 16).
    n : int
        Space dimension for the quadrature measure ``s^{n-1} ds``.

    Raises
    ------
    ValidationError
        For endpoints out of order or not finite, for a ``count`` or
        ``n`` that is not a whole number, and for too few nodes.
    """
    if not (0.0 < r_min < r_max < math.inf):
        raise ValidationError(
            "need 0 < r_min < r_max < inf, got r_min=%r, r_max=%r"
            % (r_min, r_max))
    count, n = whole_number(count, "count"), whole_number(n, "dimension")
    if count < 16:
        raise ValidationError("grid needs at least 16 nodes, got %r" % count)
    if n < 1:
        raise ValidationError("dimension must be positive, got %r" % n)

    nodes = np.geomspace(r_min, r_max, count)
    nodes[0] = r_min
    nodes[-1] = r_max
    with np.errstate(over="ignore"):
        mids = np.sqrt(nodes[:-1] * nodes[1:])
    edges = np.concatenate(([r_min], mids, [r_max]))
    weights = _cell_weights(edges, n)
    return RadialGrid(r_min=float(r_min), r_max=float(r_max), count=count,
                      n=n, nodes=nodes, edges=edges, weights=weights)
