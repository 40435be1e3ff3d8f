"""Logarithmic radial grids with exact power-moment quadrature weights.

Radial integrals ``int_0^inf g(s) s^{n-1} ds`` are discretized by cell
quadrature: each node ``r`` owns the log cell ``[r e^{-h/2}, r e^{h/2}]``
of the log step ``h``, the end nodes included, so the cells cover
``[rMin e^{-h/2}, rMax e^{h/2}]``.  A node's weight is the exact
integral of ``s^{n-1}`` over its cell, ``r^n 2 sinh(n h/2)/n``.  The
weighted sum of node values is therefore exact for ``g = const`` and
second-order accurate for smooth ``g`` in log space.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, real_number, whole_number


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
        ``count + 1`` cell boundaries, ``nodes e^{-h/2}`` and ``r_max
        e^{h/2}``: the geometric midpoints between nodes and, half a log
        step beyond the end nodes, the outer edges.
    weights : ndarray
        ``weights[j] = nodes[j]^n 2 sinh(n h/2)/n``, the exact integral
        of ``s^{n-1}`` over cell ``j``.
    """

    r_min: float
    r_max: float
    count: int
    n: int
    nodes: np.ndarray = field(repr=False)
    edges: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @functools.cached_property
    def log_step(self):
        """Uniform node spacing in log space, computed on the first read."""
        return np.log(self.r_max / self.r_min) / (self.count - 1)

    def interior_slice(self):
        """Index slice selecting the central half of the nodes.

        Residuals and identity checks are evaluated here because both
        domain truncations pollute the outermost cells.
        """
        lo = int(round(self.count / 4.0))
        return slice(lo, self.count - lo)


def _cell_weights(nodes, n, h):
    """Exact moments of ``s^{n-1}`` over the log cells of width ``h``
    centred on ``nodes``, ``r^n 2 sinh(n h/2)/n``, rejected unless all
    are finite and positive (``r^n`` must stay inside the double
    range)."""
    with np.errstate(over="ignore", invalid="ignore"):
        weights = nodes ** n * (2.0 * np.sinh(0.5 * n * h) / n)
    if not np.all((weights > 0.0) & np.isfinite(weights)):
        raise ValidationError(
            "cell weights leave the double range: r^%d must stay finite "
            "and nonzero on [%r, %r]"
            % (n, float(nodes[0]), float(nodes[-1])))
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
        For endpoints that are not finite real numbers or out of order,
        for a ``count`` or ``n`` that is not a whole number, and for too
        few nodes.
    """
    r_min, r_max = real_number(r_min, "r_min"), real_number(r_max, "r_max")
    if not 0.0 < r_min < r_max:
        raise ValidationError(
            "need 0 < r_min < r_max, got r_min=%r, r_max=%r"
            % (r_min, r_max))
    count, n = whole_number(count, "count"), whole_number(n, "dimension")
    if count < 16:
        raise ValidationError("grid needs at least 16 nodes, got %r" % count)
    if n < 1:
        raise ValidationError("dimension must be positive, got %r" % n)

    nodes = np.geomspace(r_min, r_max, count)
    nodes[0] = r_min
    nodes[-1] = r_max
    h = np.log(r_max / r_min) / (count - 1)  # RadialGrid.log_step
    half = np.exp(0.5 * h)
    edges = np.append(nodes / half, r_max * half)
    weights = _cell_weights(nodes, n, h)
    return RadialGrid(r_min=r_min, r_max=r_max, count=count, n=n,
                      nodes=nodes, edges=edges, weights=weights)
