"""Closed-form CC distances and ball volumes of packaged fixtures, as test references.

Nothing in `ccgeo` imports this module; it uses numpy only.  On both
fixtures below the coefficients are constant, so a constant control is
optimal and the geodesics are straight segments.  The chart's half space
{x_n >= 0} is convex, so a segment between two of its points stays in it,
and the distance is the same in intrinsic and extrinsic mode.  The ball
volumes are those of intrinsic balls that leave the chart only through
{x_n = 0}, against the fixtures' density 1: at a boundary probe
(x_n = 0) the half space keeps half the ball.
"""
import math

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


def _half_at_boundary(x) -> float:
    return 0.5 if x[-1] == 0 else 1.0


def elliptic_volume(x, delta: float) -> float:
    """The `elliptic` ball B(x, delta): the disc of radius delta, pi delta^2."""
    return math.pi * delta**2 * _half_at_boundary(x)


def heat_volume(x, delta: float) -> float:
    """The `heat` ball B(x, delta): `heat`'s distance is below delta exactly when
    (dx / delta)^2 + (dt / delta^2)^2 < 1, an ellipse of area pi delta^3."""
    return math.pi * delta**3 * _half_at_boundary(x)
