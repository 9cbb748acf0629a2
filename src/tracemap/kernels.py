"""Fundamental solutions and the special functions they need.

Supports the 2D log kernel G = -ln(r^2)/(4 pi), evaluated from squared
distances alone (no square root; the smallest r^2 catches coincident pairs),
the 2D Helmholtz kernel (i/4) H0^(1)(kr) with H0^(1) = J0 + i Y0, and the 3D
Helmholtz kernel e^{ikr}/(4 pi r).  Bessel functions J0, J1, Y0, Y1 come
from one evaluator, ``_bessel(x, nu, kind)``: up to ``X_SWITCH`` a single
power series whose term is shared by J and Y (the Y sum is accumulated in
the same pass as J), beyond it the large-argument amplitude/phase expansion,
each computing only the function asked for.  The evaluator walks its
argument in blocks of ``_BLOCK`` points (a strided argument copied block by
block into one buffer), so its temporaries stay cache-sized, but both
truncations are chosen once from the whole array in a first blocked pass
(the series term count from the largest series argument, the asymptotic cut
from the smallest asymptotic one): values do not depend on the block size.
NaN and infinite arguments raise.  Each of ``bessel_j0/j1/y0/y1`` takes an
``out=`` float64 array of the argument's shape, which may be a strided view
such as ``g.real`` of a complex result, or the argument itself (same address
and strides: each block is read before it is written); any other overlap
with the argument is refused.  The values are the same bits as without
``out``.  No special-function library is used.

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
_BLOCK = 1 << 15  # points per evaluator block: temporaries stay cache-sized
_LAPLACE_G = -1.0 / (4.0 * math.pi)  # G = ln(r^2) * _LAPLACE_G
_LAPLACE_DG = -1.0 / (2.0 * math.pi)  # dG/dn_y = ((y - x) . n) * _LAPLACE_DG / r^2

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
        if not math.isfinite(self.k):
            raise ValueError(f"the wavenumber k must be finite, got {self.k!r}")
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


def _series(x, nu: int, kind: str, n_terms: int):
    """J_nu or Y_nu, nu in {0, 1}, from the power series (A&S 9.1.10-11).

    With q = x^2/4 and the shared term t_m = (-q)^m / (m! (m+nu)!):
    J_nu = (x/2)^nu sum t_m and
    Y_nu = (2/pi)(ln(x/2) + gamma) J_nu
           - (1/pi)(x/2)^nu sum (H_m + H_{m+nu}) t_m  [- 2/(pi x) if nu = 1].
    Y is finished in the series' own buffers, in the order of that formula.
    """
    neg_q = -0.25 * x * x
    term = np.ones_like(x)  # t_0 = 1 for nu in {0, 1}
    j_sum = term.copy()
    if kind == "Y":
        h_m, h_mnu = 0.0, float(nu)  # H_m, H_{m+nu}; one running sum of both drifts ~1e-12
        y_sum = (h_m + h_mnu) * term
        scratch = np.empty_like(x)
    for m in range(1, n_terms + 1):
        term *= neg_q
        term /= m * (m + nu)
        j_sum += term
        if kind == "Y":
            h_m += 1.0 / m
            h_mnu += 1.0 / (m + nu)
            y_sum += np.multiply(term, h_m + h_mnu, out=scratch)
    if nu:
        half_x = np.multiply(x, 0.5, out=neg_q)
        j_sum *= half_x  # J_nu
    if kind == "J":
        return j_sum
    y = np.multiply(x, 0.5, out=term)
    np.log(y, out=y)
    y += EULER_GAMMA
    y *= 2.0 / math.pi
    y *= j_sum
    if nu:
        half_x /= math.pi
        y_sum *= half_x
    else:
        y_sum *= 1.0 / math.pi
    y -= y_sum
    if nu:
        np.multiply(x, math.pi, out=scratch)
        y -= np.divide(2.0, scratch, out=scratch)
    return y


def _asymptotic(x, nu: int, kind: str, x_min: float):
    """J_nu or Y_nu from the large-argument amplitude/phase expansion
    (A&S 9.2.5-9.2.10), truncated at its smallest term at x_min <= min(x)."""
    mu = 4.0 * nu * nu
    p = np.ones_like(x)
    q = np.zeros_like(x)
    a = np.ones_like(x)
    a_max = 1.0  # the term at x_min, the largest in magnitude
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


def _blocks(flat):
    """Yield ``(start, xb)`` over ``_BLOCK``-point blocks of the 1-D ``flat``;
    a strided ``flat`` is copied block by block into one contiguous buffer."""
    buf = None if flat.flags.c_contiguous else np.empty(min(_BLOCK, flat.size))
    for start in range(0, flat.size, _BLOCK):
        xb = flat[start:start + _BLOCK]
        if buf is not None:
            buf[:xb.size] = xb
            xb = buf[:xb.size]
        yield start, xb


def _branch_bounds(flat, label: str):
    """``(lo, series_hi, asymptotic_lo)`` of the 1-D ``flat`` in one blocked
    pass: the smallest value, the largest value up to X_SWITCH (0 if none)
    and the smallest above it (inf if none).  Non-finite values raise."""
    lo, series_hi, asym_lo = math.inf, 0.0, math.inf
    for _, xb in _blocks(flat):
        b_lo, b_hi = float(xb.min()), float(xb.max())  # NaN propagates into both
        if not (math.isfinite(b_lo) and math.isfinite(b_hi)):
            raise BesselDomainError(f"{label} requires finite x")
        lo = min(lo, b_lo)
        if b_hi <= X_SWITCH:
            series_hi = max(series_hi, b_hi)
        elif b_lo > X_SWITCH:
            asym_lo = min(asym_lo, b_lo)
        else:
            small = xb <= X_SWITCH
            series_hi = max(series_hi, float(np.where(small, xb, 0.0).max()))
            asym_lo = min(asym_lo, float(np.where(small, np.inf, xb).min()))
    return lo, series_hi, asym_lo


def _bessel(x, nu: int, kind: str, out=None):
    """J or Y of order nu: series up to X_SWITCH, asymptotic expansion above.

    J needs finite x >= 0 and Y finite x > 0; scalar in, scalar out; arrays
    keep their shape.  ``out``, a float64 array of x's shape, is filled and
    returned instead of a new result; it may be x itself (same address and
    strides) but may not overlap x otherwise.  Runs over blocks of
    ``_BLOCK`` points, each branch truncated as chosen from the whole array.
    """
    x = np.asarray(x, dtype=float)
    label = f"{kind}{nu}"
    if out is None:
        res = np.empty(x.shape)
    elif not isinstance(out, np.ndarray) or out.shape != x.shape or out.dtype != np.float64:
        raise ValueError(f"{label}: out must be a float64 array of shape {x.shape}")
    elif np.shares_memory(out, x) and not (
        out.__array_interface__["data"][0] == x.__array_interface__["data"][0]
        and out.strides == x.strides
    ):
        raise ValueError(f"{label}: out overlaps the argument")
    else:
        res = out
    if x.size:
        flat, res_flat = x.reshape(-1), res.reshape(-1)
        lo, series_hi, asym_lo = _branch_bounds(flat, label)
        if lo <= 0.0 if kind == "Y" else lo < 0.0:
            raise BesselDomainError(f"{label} requires x {'>' if kind == 'Y' else '>='} 0")
        n_terms = _series_terms(0.25 * series_hi ** 2, nu, kind)
        for start, xb in _blocks(flat):
            small = xb <= X_SWITCH
            xs, xa = xb[small], xb[~small]  # gathered before ob, maybe xb itself, is written
            ob = res_flat[start:start + xb.size]
            if xs.size:
                ob[small] = _series(xs, nu, kind, n_terms)
            if xa.size:
                ob[~small] = _asymptotic(xa, nu, kind, asym_lo)
        if not np.may_share_memory(res_flat, res):  # a strided out with no flat view
            res[...] = res_flat.reshape(res.shape)
    if out is not None:
        return out
    return float(res) if res.ndim == 0 else res


def bessel_j0(x, out=None):
    """J0 for x >= 0; scalar in, scalar out; arrays supported."""
    return _bessel(x, 0, "J", out)


def bessel_j1(x, out=None):
    return _bessel(x, 1, "J", out)


def bessel_y0(x, out=None):
    """Y0 for x > 0."""
    return _bessel(x, 0, "Y", out)


def bessel_y1(x, out=None):
    return _bessel(x, 1, "Y", out)


# ---------------------------------------------------------------------------
# Kernel values and gradients
# ---------------------------------------------------------------------------


def _helmholtz2d_value(kr: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(i/4) H0(kr) = (-Y0 + i J0) / 4, written into the complex ``out``."""
    re, im = out.real, out.imag
    bessel_y0(kr, out=re)
    re *= -0.25
    bessel_j0(kr, out=im)
    im *= 0.25
    return out


def _helmholtz2d_radial_derivative(kr: np.ndarray, k: float, out: np.ndarray) -> np.ndarray:
    """dG/dr = (k/4) (Y1 - i J1) at kr, written into the complex ``out``."""
    c = 0.25 * k
    re, im = out.real, out.imag
    bessel_y1(kr, out=re)
    re *= c
    bessel_j1(kr, out=im)
    im *= -c
    return out


def _laplace_value(r2: np.ndarray, out=None) -> np.ndarray:
    """Laplace G = ln(r^2) (-1/(4 pi)) from the squared distances, into ``out``."""
    g = np.log(r2, out=out)
    g *= _LAPLACE_G
    return g


def _laplace_normal_derivative(diffs, r2: np.ndarray, normals, out=None) -> np.ndarray:
    """Laplace dG/dn_y = ((y - x) . n) (-1/(2 pi)) / r^2, into ``out``; the
    projection is summed in coordinate order from its first term."""
    normals = np.asarray(normals, dtype=float)
    dg = np.multiply(diffs[0], normals[..., 0], out=out)
    for c in range(1, len(diffs)):
        dg += diffs[c] * normals[..., c]
    dg *= _LAPLACE_DG
    dg /= r2
    return dg


def _value_from_r(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    """G of a Helmholtz family as a function of the distance r."""
    kr = spec.k * r
    if spec.family == "helmholtz2d":
        return _helmholtz2d_value(kr, np.empty(r.shape, dtype=complex))
    return (np.cos(kr) + 1j * np.sin(kr)) / (4.0 * math.pi * r)


def _radial_derivative(spec: KernelSpec, r: np.ndarray) -> np.ndarray:
    """dG/dr of a Helmholtz family as a function of the distance r."""
    kr = spec.k * r
    if spec.family == "helmholtz2d":
        return _helmholtz2d_radial_derivative(kr, spec.k, np.empty(r.shape, dtype=complex))
    phase = np.cos(kr) + 1j * np.sin(kr)
    return phase * (1j * kr - 1.0) / (4.0 * math.pi * r * r)


def _pairwise(xs, ys):
    """Per-coordinate differences y_j - x_i, each (len(xs), len(ys)), the squared
    distances r^2 summed in coordinate order and each row's smallest r^2; a
    coincident pair (r^2 = 0) raises before any kernel is evaluated."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if xs.shape[1] != ys.shape[1]:
        raise ValueError(f"point sets of dimension {xs.shape[1]} and {ys.shape[1]}")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("kernel matrix of non-finite point coordinates")
    diffs = [ys[None, :, c] - xs[:, None, c] for c in range(xs.shape[1])]
    r2 = diffs[0] * diffs[0]
    for d in diffs[1:]:
        r2 += d * d
    r2_min = r2.min(axis=1, initial=np.inf)
    if r2_min.min(initial=np.inf) == 0.0:
        raise SingularEvaluationError("kernel matrix has coincident point pairs")
    return diffs, r2, r2_min


def _pairwise_projection(xs, ys, normals):
    """``(proj, r, r2_min)`` for the Helmholtz kernels: the normal projections
    (y_j - x_i) . n_j / r_ij summed from +0.0 in coordinate order, r and r2_min."""
    diffs, r2, r2_min = _pairwise(xs, ys)
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    r = np.sqrt(r2, out=r2)
    proj = np.zeros_like(r)
    for d, n in zip(diffs, normals.T):
        proj += d * n
    proj /= r
    return proj, r, r2_min


def kernel_matrix(spec: KernelSpec, xs, ys) -> np.ndarray:
    """G(x_i, y_j) for point sets; shape (len(xs), len(ys))."""
    _, r2, _ = _pairwise(xs, ys)
    if spec.family == "laplace2d":
        return _laplace_value(r2, out=r2)
    return _value_from_r(spec, np.sqrt(r2, out=r2))


def kernel_normal_matrix(spec: KernelSpec, xs, ys, normals) -> np.ndarray:
    """dG/dn_y (x_i, y_j) for point sets with unit normals at the y points."""
    return kernel_matrices(spec, xs, ys, normals, value=False)[1]


def kernel_value(spec: KernelSpec, x, y) -> complex:
    """G(x, y) as a complex number (imaginary part 0 for the log kernel)."""
    return complex(kernel_matrix(spec, [x], [y])[0, 0])


def kernel_gradient_y(spec: KernelSpec, x, y) -> np.ndarray:
    """Gradient of G with respect to the second argument, per component.

    For these radial kernels grad_y G = (dG/dr) (y - x)/r, and
    grad_x G = -grad_y G; for the log kernel, component c is dG/dn_y along e_c.
    """
    diffs, r2, _ = _pairwise([x], [y])
    if spec.family == "laplace2d":
        return np.ravel(diffs) * _LAPLACE_DG / r2[0, 0]
    r = np.sqrt(r2, out=r2)
    return _radial_derivative(spec, r)[0, 0] * np.ravel(diffs) / r[0, 0]


def kernel_normal_derivative_y(spec: KernelSpec, x, y, normal) -> complex:
    """dG/dn_y: gradient wrt y projected onto the unit normal at y."""
    return complex(kernel_normal_matrix(spec, [x], [y], [normal])[0, 0])


def kernel_matrices(spec: KernelSpec, xs, ys, normals, out=(None, None), value=True):
    """``(G, dG/dn_y, r2_min)`` for point sets from one pairwise pass, bit for
    bit those of :func:`kernel_matrix` and :func:`kernel_normal_matrix`, with
    each row's smallest r^2; ``value=False`` skips G (None).  ``out``, two
    arrays of the matrix shape (row blocks of larger matrices, say), receives
    the log kernel's pair straight from r^2 (G only if ``value``); the
    Helmholtz families refuse it.
    """
    g_out, dg_out = out
    if spec.family == "laplace2d":
        diffs, r2, r2_min = _pairwise(xs, ys)
        dg = _laplace_normal_derivative(diffs, r2, normals, out=dg_out)
        g = _laplace_value(r2, out=r2 if g_out is None else g_out) if value else None
        return g, dg, r2_min
    if g_out is not None or dg_out is not None:
        raise ValueError(f"kernel_matrices writes into out for the log kernel only, not {spec.family}")
    proj, r, r2_min = _pairwise_projection(xs, ys, normals)
    dg = _radial_derivative(spec, r)
    dg *= proj
    del proj
    g = _value_from_r(spec, r) if value else None
    return g, dg, r2_min
