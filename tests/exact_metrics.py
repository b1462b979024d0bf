"""Closed-form CC distances and ball volumes of packaged fixtures, as test references.

Nothing in `ccgeo` imports this module; it uses numpy only.  On the
`elliptic` and `heat` fixtures the coefficients are constant, so a
constant control is optimal and the geodesics are straight segments.  The
chart's half space {x_n >= 0} is convex, so a segment between two of its
points stays in it, and the distance is the same in intrinsic and
extrinsic mode.  The `heisenberg` distance is Gaveau's, extrinsic: an
intrinsic distance is at least it, and equal when the geodesic stays in
the half space.  The ball
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


def heisenberg_group(p) -> np.ndarray:
    """A `heisenberg` fixture point (x1, x2, x3) in the coordinates (x, y, t) =
    (x1, -x3, x2) of the standard Heisenberg group, where the fixture's fields are
    X = d/dx - (y/2) d/dt and -Y = -(d/dy + (x/2) d/dt), and the group law is
    (x, y, t)(x', y', t') = (x + x', y + y', t + t' + (x y' - y x') / 2)."""
    p = np.asarray(p, dtype=float)
    return np.array([p[0], -p[2], p[1]])


def heisenberg_distance(p, q) -> float:
    """The `heisenberg` fixture's extrinsic distance, after Gaveau (Acta Math. 139, 1977).

    The fields are left invariant, so d(p, q) = d(0, p^-1 q).  With p^-1 q =
    (dx, dy, t) a horizontal path's t is the signed area between its plane
    projection and the chord, so a geodesic is a circular arc (Dido's problem).
    For r = |(dx, dy)| > 0 the arc turns by 2 theta, theta in (0, pi) solving
    (2 theta - sin 2 theta) / (2 sin^2 theta) = 4 |t| / r^2, found by
    bisection, and has length theta r / sin theta; at t = 0 that is r, and at
    r = 0 the closed circle gives sqrt(4 pi |t|).
    """
    (x, y, s), (x2, y2, s2) = heisenberg_group(p), heisenberg_group(q)
    dx, dy, t = x2 - x, y2 - y, s2 - s - (x * y2 - y * x2) / 2.0
    r = math.hypot(dx, dy)
    if r == 0.0:
        return math.sqrt(4.0 * math.pi * abs(t))
    if t == 0.0:
        return r
    lo, hi = 0.0, math.pi
    for _ in range(200):  # the left side grows from 0 to inf on (0, pi)
        theta = 0.5 * (lo + hi)
        if (2.0 * theta - math.sin(2.0 * theta)) / (2.0 * math.sin(theta) ** 2) < 4.0 * abs(t) / r**2:
            lo = theta
        else:
            hi = theta
    return theta * r / math.sin(theta)


def _half_at_boundary(x) -> float:
    return 0.5 if x[-1] == 0 else 1.0


def elliptic_volume(x, delta: float) -> float:
    """The `elliptic` ball B(x, delta): the disc of radius delta, pi delta^2."""
    return math.pi * delta**2 * _half_at_boundary(x)


def heat_volume(x, delta: float) -> float:
    """The `heat` ball B(x, delta): `heat`'s distance is below delta exactly when
    (dx / delta)^2 + (dt / delta^2)^2 < 1, an ellipse of area pi delta^3."""
    return math.pi * delta**3 * _half_at_boundary(x)
