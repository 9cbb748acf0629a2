"""Independent high-precision oracles used to freeze expected test values.

Everything here is built on mpmath arbitrary-precision arithmetic and on
closed-form antiderivatives; none of it shares code with the library
paths under test.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

mp.mp.dps = 40


def bessel_series_oracle(kind: str, order: int, x) -> float:
    """Arbitrary-precision Bessel evaluation (mpmath's own algorithms)."""
    x = mp.mpf(x)
    if kind == "J":
        return float(mp.besselj(order, x))
    if kind == "Y":
        return float(mp.bessely(order, x))
    raise ValueError(kind)


def laplace_kernel_oracle(x, y, normal):
    """``(G, dG/dn_y, grad_y G)`` of the 2D log kernel G = -ln(r^2)/(4 pi)
    at the float points as given, in 40-digit arithmetic."""
    d = [mp.mpf(float(b)) - mp.mpf(float(a)) for a, b in zip(x, y)]
    r2 = d[0] ** 2 + d[1] ** 2
    proj = d[0] * mp.mpf(float(normal[0])) + d[1] * mp.mpf(float(normal[1]))
    grad = [-c / (2 * mp.pi * r2) for c in d]
    return float(-mp.log(r2) / (4 * mp.pi)), float(-proj / (2 * mp.pi * r2)), [float(g) for g in grad]


def j0_first_zero() -> float:
    """First positive zero of J0 by bisection on the high-precision series."""

    def j0(t):
        return mp.besselj(0, t)

    lo, hi = mp.mpf(2), mp.mpf(3)
    assert j0(lo) > 0 > j0(hi)
    for _ in range(200):
        mid = (lo + hi) / 2
        if j0(mid) > 0:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def log_square_integral_oracle(center, digits: int = 12) -> float:
    """Adaptive polar-splitting quadrature of ln(|y - c|^2) over [0,1]^2.

    The square is split into triangles fanned around the singular point
    and each triangle is integrated in polar coordinates about it, where
    the integrand r ln(r^2) is smooth; mpmath.quad handles the radial and
    angular directions adaptively.
    """
    cx, cy = (mp.mpf(center[0]), mp.mpf(center[1]))
    corners = [
        (mp.mpf(0), mp.mpf(0)),
        (mp.mpf(1), mp.mpf(0)),
        (mp.mpf(1), mp.mpf(1)),
        (mp.mpf(0), mp.mpf(1)),
    ]
    mp.mp.dps = digits + 15
    total = mp.mpf(0)
    for (x1, y1), (x2, y2) in zip(corners, corners[1:] + corners[:1]):
        # triangle (c, p1, p2); skip degenerate fans when c sits on the edge
        a1 = mp.atan2(y1 - cy, x1 - cx) if (x1, y1) != (cx, cy) else None
        a2 = mp.atan2(y2 - cy, x2 - cx) if (x2, y2) != (cx, cy) else None
        if a1 is None or a2 is None:
            continue
        span = a2 - a1
        while span <= -mp.pi:
            span += 2 * mp.pi
        while span > mp.pi:
            span -= 2 * mp.pi
        if span == 0:
            continue

        # distance from c to the segment p1-p2 along direction theta
        ex, ey = x2 - x1, y2 - y1

        def rmax(theta, x1=x1, y1=y1, ex=ex, ey=ey):
            ct, st = mp.cos(theta), mp.sin(theta)
            denom = ct * ey - st * ex
            return ((x1 - cx) * ey - (y1 - cy) * ex) / denom

        def angular(theta):
            R = rmax(theta)
            # int_0^R r ln(r^2) dr = R^2 (ln(R^2) - 1) / 2
            return R * R * (mp.log(R * R) - 1) / 2

        total += mp.quad(lambda t: angular(a1 + t * span) * abs(span), [0, 1])
    result = float(total)
    mp.mp.dps = 40
    return result


def duffy_triangle_integral(f, v1, v2, v3, order: int = 12) -> float:
    """Exact-for-polynomials triangle integration via the Duffy map and
    tensor Gauss-Legendre; independent of the 7-point rule under test."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(order)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    v1 = np.asarray(v1, float)
    v2 = np.asarray(v2, float)
    v3 = np.asarray(v3, float)
    jac = abs(
        (v2[0] - v1[0]) * (v3[1] - v1[1]) - (v3[0] - v1[0]) * (v2[1] - v1[1])
    )
    total = 0.0
    for xi, wi in zip(x, w):
        for yj, wj in zip(x, w):
            # Duffy: (xi, yj) in the unit square -> (xi, yj * (1 - xi))
            lam2 = xi
            lam3 = yj * (1.0 - xi)
            p = v1 + lam2 * (v2 - v1) + lam3 * (v3 - v1)
            total += wi * wj * (1.0 - xi) * f(p[None, :])[0]
    return jac * total


def laplacian_stencil(fn, p, step: float = 1e-3) -> float:
    """5-point discrete Laplacian of a scalar callable at one 2D point."""
    x, y = p
    return (
        fn(np.array([[x + step, y]]))[0]
        + fn(np.array([[x - step, y]]))[0]
        + fn(np.array([[x, y + step]]))[0]
        + fn(np.array([[x, y - step]]))[0]
        - 4.0 * fn(np.array([[x, y]]))[0]
    ) / (step * step)
