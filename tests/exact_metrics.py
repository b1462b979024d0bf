"""Closed-form CC distances and ball volumes of packaged fixtures, as test references.

Nothing in `ccgeo` imports this module; it uses numpy only.  On the
`elliptic` and `heat` fixtures the coefficients are constant, so a
constant control is optimal and the geodesics are straight segments.  The
chart's half space {x_n >= 0} is convex, so a segment between two of its
points stays in it, and the distance is the same in intrinsic and
extrinsic mode.  The `heisenberg` distance is Gaveau's, extrinsic: an
intrinsic distance is at least it, and equal when the geodesic stays in
the half space.  The `grushin` distance is the least length over its
normal geodesics, which are closed form; `grushin_straightened` is the
push-forward of `grushin`, so its extrinsic distance is grushin's
between the pulled-back points, and its intrinsic one is at least that.  The ball
volumes are those of intrinsic balls that leave the chart only through
{x_n = 0}, against the fixtures' density 1: at a boundary probe
(x_n = 0) the half space keeps half the ball.  The `heisenberg` volume is
that of a ball inside the chart, from Gaveau's sphere profile.
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


#: Gauss-Legendre nodes and weights on [0, 1] for the Grushin geodesics' integral of x1^2
_T, _W = np.polynomial.legendre.leggauss(64)
_T, _W = 0.5 * (_T + 1.0), 0.5 * _W


def _grushin_shot(a: float, y1: float, lam):
    """(p1, x2 gain) of the Grushin normal geodesics from x1 = a with x2 covector lam (an array)
    whose x1 ends at y1: x1(t) = a cos(lam t) + p1 sin(lam t) / lam, so p1 = (y1 - a cos lam) /
    (sin lam / lam), and x2 gains lam int_0^1 x1^2 dt.  np.sinc keeps lam = 0 smooth."""
    lam = np.asarray(lam, dtype=float)
    p1 = (y1 - a * np.cos(lam)) / np.sinc(lam / np.pi)
    t = _T[:, None]
    x1 = a * np.cos(lam * t) + p1 * t * np.sinc(lam * t / np.pi)
    return p1, lam * (_W @ np.square(x1))


def grushin_geodesic(p, q) -> tuple[float, float]:
    """The covector (p1, lam) at p of a shortest `grushin` normal geodesic to q.

    Along a normal geodesic p2 = lam is constant, x1 is harmonic in time
    (`_grushin_shot`) and the speed is sqrt(p1^2 + lam^2 x1(0)^2).  The x2
    gain has the sign of lam, so with dx2 = q2 - p2 the geodesics to q are
    the roots lam of gain(lam) = dx2 of that sign: each sign change on a
    fine grid of [0, 2 pi) sign(dx2) is bisected (the grid starts at
    lam = 0, where the gain is 0, so a root below its first step is found
    too), a pole of p1 (sin lam = 0) is skipped by its residual, which
    grows without bound there, and the root of least speed wins.  A root near a pole is ill conditioned in
    lam: from x1 = 0 to x1 = 1e-9 the speed keeps about 7 digits.  At
    dx2 = 0 the straight segment (q1 - p1, 0) is the geodesic; from x1 = 0
    to x1 = 0 every geodesic has lam = +-pi and p1 = sqrt(2 pi |dx2|).
    """
    (a, x2), (y1, y2) = (np.asarray(v, dtype=float) for v in (p, q))
    dx2 = y2 - x2
    if dx2 == 0.0:
        return float(y1 - a), 0.0
    sign = math.copysign(1.0, dx2)
    if a == 0.0 and y1 == 0.0:
        return math.sqrt(2.0 * math.pi * abs(dx2)), sign * math.pi
    grid = sign * np.linspace(0.0, 2.0 * math.pi, 4001)[:-1]
    g = _grushin_shot(a, y1, grid)[1] - dx2
    best = (math.inf, math.nan, math.nan)
    for k in (np.sign(g[:-1]) * np.sign(g[1:]) < 0).nonzero()[0]:
        lo, hi = grid[k], grid[k + 1]
        glo = g[k]
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            gm = _grushin_shot(a, y1, mid)[1] - dx2
            lo, hi, glo = (mid, hi, gm) if np.sign(gm) == np.sign(glo) else (lo, mid, glo)
        lam = 0.5 * (lo + hi)
        p1, gain = _grushin_shot(a, y1, lam)
        if abs(gain - dx2) <= 1e-6 * max(1.0, abs(dx2)):
            best = min(best, (math.hypot(p1, lam * a), float(p1), float(lam)))
    return best[1], best[2]


def grushin_distance(p, q) -> float:
    """The `grushin` fixture's distance (d/dx1 and x1 d/dx2, both of degree 1): the
    speed sqrt(p1^2 + lam^2 x1(0)^2) of `grushin_geodesic`, whose time is 1."""
    p1, lam = grushin_geodesic(p, q)
    return math.hypot(p1, lam * float(p[0]))


def grushin_straightened_distance(p, q) -> float:
    """The `grushin_straightened` fixture's extrinsic distance: the fixture is the
    push-forward of `grushin` by Phi(x1, x2) = (x1, x2 - x1^2), so it is grushin's
    distance between the Phi^-1 images, Phi^-1(x1, x2) = (x1, x2 + x1^2)."""
    def lift(v):
        return (float(v[0]), float(v[1]) + float(v[0]) ** 2)

    return grushin_distance(lift(p), lift(q))


def _half_at_boundary(x) -> float:
    return 0.5 if x[-1] == 0 else 1.0


def elliptic_volume(x, delta: float) -> float:
    """The `elliptic` ball B(x, delta): the disc of radius delta, pi delta^2."""
    return math.pi * delta**2 * _half_at_boundary(x)


def heat_volume(x, delta: float) -> float:
    """The `heat` ball B(x, delta): `heat`'s distance is below delta exactly when
    (dx / delta)^2 + (dt / delta^2)^2 < 1, an ellipse of area pi delta^3."""
    return math.pi * delta**3 * _half_at_boundary(x)


def heisenberg_ball_constant(nodes: int) -> float:
    """c_H, the volume of the Heisenberg unit ball, by Gauss-Legendre quadrature with `nodes` nodes.

    Gaveau's unit sphere, rotationally symmetric about the t axis, has the
    profile r(theta) = sin(theta) / theta, t(theta) = (2 theta - sin 2 theta)
    / (8 theta^2), theta in (0, pi): the arc turning by 2 theta that has length
    1 (see `heisenberg_distance`).  r falls from 1 to 0 on (0, pi), so the ball
    {|t| <= t(r)} has volume c_H = int 4 pi r t |r'| d theta.  The integrand is
    smooth on [0, pi], so the quadrature converges fast.
    """
    z, w = np.polynomial.legendre.leggauss(nodes)
    theta, w = 0.5 * math.pi * (z + 1.0), 0.5 * math.pi * w
    r = np.sin(theta) / theta
    t = (2.0 * theta - np.sin(2.0 * theta)) / (8.0 * theta**2)
    dr = (theta * np.cos(theta) - np.sin(theta)) / theta**2
    return float(np.sum(w * 4.0 * math.pi * r * t * np.abs(dr)))


#: the volume of the Heisenberg unit ball
HEISENBERG_BALL = heisenberg_ball_constant(64)


def heisenberg_volume(x, delta: float) -> float:
    """The `heisenberg` ball B(x, delta) inside the chart: c_H delta^4.

    The dilation (x, y, t) -> (delta x, delta y, delta^2 t) maps the unit
    ball onto the ball of radius delta, left translations preserve volume,
    and the fixture's coordinates are a linear change of (x, y, t) of
    determinant 1.  A ball reaches delta along y = -x_3, so it lies in the
    half space exactly when x_3 >= delta; otherwise ValueError, since the
    half space cuts it (at x_3 = 0 to at most half of c_H delta^4).
    """
    if x[-1] < delta:
        raise ValueError(f"the ball B(x, {delta}) leaves the half space x_3 >= 0")
    return HEISENBERG_BALL * delta**4
