"""Fundamental solutions and the special functions they need.

Supports the 2D log kernel, the 2D Helmholtz kernel (i/4) H0^(1)(kr) with
H0^(1) = J0 + i Y0, and the 3D Helmholtz kernel e^{ikr}/(4 pi r).  Bessel
functions J0, J1, Y0, Y1 come from one evaluator, ``_bessel(x, nu, kind)``:
up to ``X_SWITCH`` a single power series whose term is shared by J and Y
(the Y sum is accumulated in the same pass as J), beyond it the
large-argument amplitude/phase expansion, each computing only the function
asked for.  No special-function library is used.

All kernels here satisfy L G = -delta (potential-theory sign), so the
interior representation used elsewhere is
``u(x) = \\oint (G h - g dG/dn_y) ds`` plus, for sources, a volume term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EULER_GAMMA = 0.5772156649015328606
X_SWITCH = 12.0  # series below, asymptotic expansion above
_SERIES_TOL = 1e-17
_SERIES_MAX_TERMS = 60
_ASYMPTOTIC_MAX_TERMS = 30

FAMILIES = ("laplace2d", "helmholtz2d", "helmholtz3d")


class SingularEvaluationError(ValueError):
    """Kernel evaluated at coincident source and field points."""


class BesselDomainError(ValueError):
    """Argument outside the function's domain (Y needs x > 0)."""


@dataclass(frozen=True)
class KernelSpec:
    """Which fundamental solution to use; ``k`` is the wavenumber."""

    family: str
    k: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family != "laplace2d" and not self.k > 0.0:
            raise ValueError("Helmholtz kernels need a positive wavenumber")

    @property
    def dimension(self) -> int:
        return 3 if self.family == "helmholtz3d" else 2

    @property
    def is_complex(self) -> bool:
        return self.family != "laplace2d"


# ---------------------------------------------------------------------------
# Bessel functions J0, J1, Y0, Y1
# ---------------------------------------------------------------------------


def _series_terms(q_max: float, nu: int, kind: str) -> int:
    """Series terms after which every term at q <= q_max is below _SERIES_TOL."""
    t = weight = 1.0
    for m in range(1, _SERIES_MAX_TERMS + 1):
        t *= q_max / (m * (m + nu))
        if kind == "Y":
            weight += 1.0 / m + 1.0 / (m + nu)  # bounds H_m + H_{m+nu}
        if t * weight < _SERIES_TOL:
            return m
    return _SERIES_MAX_TERMS


def _series(x, nu: int, kind: str):
    """J_nu or Y_nu, nu in {0, 1}, from the power series (A&S 9.1.10-11).

    With q = x^2/4 and the shared term t_m = (-q)^m / (m! (m+nu)!):
    J_nu = (x/2)^nu sum t_m and
    Y_nu = (2/pi)(ln(x/2) + gamma) J_nu
           - (1/pi)(x/2)^nu sum (H_m + H_{m+nu}) t_m  [- 2/(pi x) if nu = 1].
    """
    neg_q = -0.25 * x * x
    term = np.ones_like(x)  # t_0 = 1 for nu in {0, 1}
    j_sum = term.copy()
    h_m, h_mnu = 0.0, float(nu)  # H_m, H_{m+nu}; one running sum of both drifts ~1e-12
    y_sum = (h_m + h_mnu) * term
    for m in range(1, _series_terms(0.25 * float(x.max()) ** 2, nu, kind) + 1):
        term *= neg_q
        term /= m * (m + nu)
        j_sum += term
        if kind == "Y":
            h_m += 1.0 / m
            h_mnu += 1.0 / (m + nu)
            y_sum += (h_m + h_mnu) * term
    half_pow = 0.5 * x if nu else 1.0
    j = half_pow * j_sum
    if kind == "J":
        return j
    y = (2.0 / math.pi) * (np.log(0.5 * x) + EULER_GAMMA) * j - (half_pow / math.pi) * y_sum
    return y - 2.0 / (math.pi * x) if nu else y


def _asymptotic(x, nu: int, kind: str):
    """J_nu or Y_nu from the large-argument amplitude/phase expansion
    (A&S 9.2.5-9.2.10), truncated at its smallest term at min(x)."""
    mu = 4.0 * nu * nu
    p = np.ones_like(x)
    q = np.zeros_like(x)
    a = np.ones_like(x)
    a_max = 1.0  # the term at min(x), the largest in magnitude
    x_min = float(x.min())
    prev = np.inf
    for k in range(1, _ASYMPTOTIC_MAX_TERMS + 1):
        a_max = a_max * (mu - (2 * k - 1) ** 2) / (8.0 * k * x_min)
        mag = abs(a_max)
        if mag >= prev:  # asymptotic series: stop at the smallest term
            break
        prev = mag
        a = a * (mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        if k % 2 == 1:
            q = q + a * (-1.0) ** ((k - 1) // 2)
        else:
            p = p + a * (-1.0) ** (k // 2)
        if mag < 1e-18:
            break
    omega = x - (0.5 * nu + 0.25) * math.pi
    amp = np.sqrt(2.0 / (math.pi * x))
    if kind == "J":
        return amp * (p * np.cos(omega) - q * np.sin(omega))
    return amp * (p * np.sin(omega) + q * np.cos(omega))


def _bessel(x, nu: int, kind: str):
    """J or Y of order nu: series up to X_SWITCH, asymptotic expansion above.

    J needs x >= 0 and Y needs x > 0; scalar in, scalar out; arrays keep
    their shape.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0 if kind == "Y" else x < 0.0):
        raise BesselDomainError(f"{kind}{nu} requires x {'>' if kind == 'Y' else '>='} 0")
    out = np.empty_like(x)
    small = x <= X_SWITCH
    if np.any(small):
        out[small] = _series(x[small], nu, kind)
    if not np.all(small):
        out[~small] = _asymptotic(x[~small], nu, kind)
    return float(out) if out.ndim == 0 else out


def bessel_j0(x):
    """J0 for x >= 0; scalar in, scalar out; arrays supported."""
    return _bessel(x, 0, "J")


def bessel_j1(x):
    return _bessel(x, 1, "J")


def bessel_y0(x):
    """Y0 for x > 0."""
    return _bessel(x, 0, "Y")


def bessel_y1(x):
    return _bessel(x, 1, "Y")


def bessel(kind: str, order: int, x):
    """J0/J1/Y0/Y1 by kind in {"J", "Y"} and order in {0, 1}."""
    if kind not in ("J", "Y") or order not in (0, 1):
        raise ValueError(f"unsupported Bessel function {kind}{order}")
    return _bessel(x, order, kind)


# ---------------------------------------------------------------------------
# Kernel values and gradients
# ---------------------------------------------------------------------------


def _distances(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = y - x
    r = np.sqrt(np.sum(d * d, axis=-1))
    return d, r


def kernel_value(spec: KernelSpec, x, y) -> complex:
    """G(x, y) as a complex number (imaginary part 0 for the log kernel)."""
    _, r = _distances(x, y)
    if r == 0.0:
        raise SingularEvaluationError("kernel evaluated at coincident points")
    return complex(_value_from_r(spec, np.asarray([r]))[0])


def _value_from_r(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    if spec.family == "laplace2d":
        return -np.log(r) / (2.0 * math.pi)
    if spec.family == "helmholtz2d":
        kr = spec.k * r
        return 0.25 * (-bessel_y0(kr) + 1j * bessel_j0(kr))
    kr = spec.k * r
    return (np.cos(kr) + 1j * np.sin(kr)) / (4.0 * math.pi * r)


def _radial_derivative(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    """dG/dr as a function of the distance r."""
    if spec.family == "laplace2d":
        return -1.0 / (2.0 * math.pi * r)
    if spec.family == "helmholtz2d":
        kr = spec.k * r
        return 0.25 * spec.k * (bessel_y1(kr) - 1j * bessel_j1(kr))
    kr = spec.k * r
    phase = np.cos(kr) + 1j * np.sin(kr)
    return phase * (1j * kr - 1.0) / (4.0 * math.pi * r * r)


def kernel_gradient_y(spec: KernelSpec, x, y) -> np.ndarray:
    """Gradient of G with respect to the second argument, per component.

    For these radial kernels grad_y G = (dG/dr) (y - x)/r, and
    grad_x G = -grad_y G.
    """
    d, r = _distances(x, y)
    if r == 0.0:
        raise SingularEvaluationError("kernel gradient at coincident points")
    dg = _radial_derivative(spec, np.asarray([r]))[0]
    return dg * d / r


def kernel_normal_derivative_y(spec: KernelSpec, x, y, normal) -> complex:
    """dG/dn_y: gradient wrt y projected onto the unit normal at y."""
    grad = kernel_gradient_y(spec, x, y)
    return complex(np.dot(grad, np.asarray(normal, dtype=float)))


def _pairwise(xs, ys):
    """Differences y_j - x_i and distances for point sets; no pair may coincide."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    diff, r = _distances(xs[:, None, :], ys[None, :, :])
    if np.any(r == 0.0):
        raise SingularEvaluationError("kernel matrix has coincident point pairs")
    return diff, r


def kernel_matrix(spec: KernelSpec, xs, ys) -> np.ndarray:
    """G(x_i, y_j) for point sets; shape (len(xs), len(ys))."""
    _, r = _pairwise(xs, ys)
    return _value_from_r(spec, r)


def kernel_normal_matrix(spec: KernelSpec, xs, ys, normals) -> np.ndarray:
    """dG/dn_y (x_i, y_j) for point sets with unit normals at the y points."""
    diff, r = _pairwise(xs, ys)
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    proj = np.einsum("ijd,jd->ij", diff, normals) / r
    return _radial_derivative(spec, r) * proj
