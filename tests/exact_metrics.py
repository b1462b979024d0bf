"""Closed-form CC distances of packaged fixtures, as test references.

Nothing in `ccgeo` imports this module; it uses numpy only.  On both
fixtures below the coefficients are constant, so a constant control is
optimal and the geodesics are straight segments.  The chart's half space
{x_n >= 0} is convex, so a segment between two of its points stays in it,
and the distance is the same in intrinsic and extrinsic mode.
"""
import numpy as np


def elliptic(x, y) -> float:
    """The `elliptic` fixture (d/dx1 and d/dx2, both of degree 1): the Euclidean |x - y|."""
    return float(np.linalg.norm(np.asarray(y, dtype=float) - np.asarray(x, dtype=float)))


def heat(x, y) -> float:
    """The `heat` fixture (d/dx of degree 1, d/dt of degree 2).

    A constant control u reaches y - x = (delta u_1, delta^2 u_2) at scale
    delta, with |u| = 1 at the least such delta:
    (dx / delta)^2 + (dt / delta^2)^2 = 1, so
    d^2 = (dx^2 + sqrt(dx^4 + 4 dt^2)) / 2.
    """
    dx, dt = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    return float(np.sqrt((dx**2 + np.sqrt(dx**4 + 4.0 * dt**2)) / 2.0))
