"""Fundamental solutions and the special functions they need.

Supports the 2D log kernel G = -ln(r^2)/(4 pi), evaluated from squared
distances alone (no square root; the smallest r^2 catches coincident pairs),
the 2D Helmholtz kernel (i/4) H0^(1)(kr) with H0^(1) = J0 + i Y0, and the 3D
Helmholtz kernel e^{ikr}/(4 pi r).  Bessel functions J0, J1, Y0, Y1
come from one evaluator, ``_bessel(x, nu, kind)``, of fixed-degree
polynomials, so each value depends on its own x alone: below ``NEAR_X`` = 4
a polynomial in x^2 (with (2/pi) ln(x/2) J, and -2/(pi x) for Y1, split off
Y), up to ``FAR_X`` = 16 one polynomial per unit interval, above it the
Hankel amplitude/phase form.  ``scripts/bessel_coefficients.py`` generates
the coefficients with mpmath into ``_bessel_coeffs.py``, loaded at the first
Bessel call; the worst error is about 1.6e-15 of max(|f|, sqrt(2/(pi x))).
The evaluator walks its argument in blocks of ``_BLOCK`` points with
block-sized scratch.  NaN and infinite arguments raise, as do x < 0 for J,
x <= 0 for Y0 and, for Y1, x below about 3.5e-309, where -2/(pi x)
overflows.  ``bessel_j0/j1/y0/y1`` write into an ``out=`` array, such as
``g.real`` of a complex result, when given one.  No special-function
library is used.

``kernel_matrices`` builds the G and dG/dn_y matrices of every family in
row blocks, weighted per column when given weights.

All kernels here satisfy L G = -delta (potential-theory sign), so the
interior representation used elsewhere is
``u(x) = \\oint (G h - g dG/dn_y) ds`` plus, for sources, a volume term.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .textio import json_field

_BLOCK = 1 << 15  # points per evaluator block: temporaries stay cache-sized
_LAPLACE_G = -1.0 / (4.0 * math.pi)  # G = ln(r^2) * _LAPLACE_G
_LAPLACE_DG = -1.0 / (2.0 * math.pi)  # dG/dn_y = ((y - x) . n) * _LAPLACE_DG / r^2
_LN2 = math.log(2.0)
_Y1_X_MIN = 3.54131503325978e-309  # the least x whose -2/(pi x) is finite

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

    def to_payload(self) -> dict:
        return {"family": self.family, "k": self.k}

    @classmethod
    def from_payload(cls, payload: dict) -> "KernelSpec":
        """Inverse of :meth:`to_payload`, the ``"kernel"`` record of dataset
        sidecars and model files; a missing or mistyped field raises a
        ``ValueError`` naming it."""
        return cls(json_field(payload, "family", str, "kernel."), json_field(payload, "k", float, "kernel."))

    @property
    def dimension(self) -> int:
        return 3 if self.family == "helmholtz3d" else 2

    @property
    def is_complex(self) -> bool:
        return self.family != "laplace2d"

    @property
    def anchored(self) -> bool:
        """Traces are taken relative to a Dirichlet entry: constants solve Laplace, not Helmholtz."""
        return self.family == "laplace2d"


# ---------------------------------------------------------------------------
# Bessel functions J0, J1, Y0, Y1
# ---------------------------------------------------------------------------


@functools.cache
def _coefficients():
    """``(c, table)``: the generated module and, per function, its interval
    polynomials laid out per degree and indexed by trunc(x), zero below
    NEAR_X; loaded at the first Bessel call."""
    from . import _bessel_coeffs as c

    return c, {name: np.pad(np.array(rows).T, ((0, 0), (int(c.NEAR_X), 0))) for name, rows in c.TABLE.items()}


def _horner(coeffs, v, acc):
    """sum_k coeffs[k] v^k (lowest degree first) into ``acc``."""
    np.multiply(v, coeffs[-1], out=acc)
    acc += coeffs[-2]
    for c in coeffs[-3::-1]:
        acc *= v
        acc += c
    return acc


def _near(x, nu, kind, out, scratch):
    """x < NEAR_X, in t = x^2 and v = t / NEAR_X^2: J0 = 1 + t p(v),
    J1 = x (1/2 + t p(v)); Y adds the regular part p(v) (times x for Y1) to
    (2/pi) (ln x - ln 2) J, and Y1 adds -2/(pi x).  J0(0) = 1 and J1(0) = 0
    are exact, and ln x - ln 2 stays finite down to the least subnormal."""
    c = _coefficients()[0]
    t, v, j, p = scratch[:4, :x.size]
    np.multiply(x, x, out=t)
    np.multiply(t, 1.0 / c.NEAR_X ** 2, out=v)
    _horner(c.NEAR[f"J{nu}"], v, j)
    j *= t
    j += 0.5 if nu else 1.0  # J0, or J1 / x
    if nu:
        j *= x
    if kind == "J":
        out[...] = j
        return out
    _horner(c.NEAR[f"Y{nu}"], v, p)
    np.log(x, out=t)
    t -= _LN2
    t *= 2.0 / math.pi
    t *= j  # (2/pi) ln(x/2) J
    if not nu:
        return np.add(t, p, out=out)
    p *= x
    t += p
    return np.subtract(t, np.divide(2.0 / math.pi, x, out=p), out=out)


def _table(x, name, out, scratch, index):
    """NEAR_X <= x < FAR_X: the polynomial of interval [i, i + 1), i =
    trunc(x), in v = x - i, by Horner with one gather of the interval's
    coefficient per degree; below NEAR_X every coefficient is zero."""
    rows = _coefficients()[1][name]
    v, acc, coef = scratch[:3, :x.size]
    index = index[:x.size]
    np.copyto(index, x, casting="unsafe")  # trunc, x >= 0
    np.subtract(x, index, out=v)
    np.take(rows[-1], index, out=acc, mode="wrap")
    for row in rows[-2:0:-1]:
        acc *= v
        acc += np.take(row, index, out=coef, mode="wrap")
    acc *= v
    return np.add(acc, np.take(rows[0], index, out=coef, mode="wrap"), out=out)


def _far(x, nu, kind, out, scratch):
    """x >= FAR_X: the Hankel form with P = p(v) and Q = w q(v), w = FAR_X/x
    and v = w^2.  With the phase x - (2 nu + 1) pi/4 expanded into sin x and
    cos x of the exact argument: J0 = a A, Y0 = J1 = a B and Y1 = -a A, where
    a = sqrt(1/(pi x)), A = (P + Q) cos x + (P - Q) sin x and
    B = (P + Q) sin x + (Q - P) cos x."""
    c = _coefficients()[0]
    w, v, p, q, amp = scratch[:5, :x.size]
    np.divide(c.FAR_X, x, out=w)
    np.multiply(w, w, out=v)
    _horner(c.FAR_P[nu], v, p)
    _horner(c.FAR_Q[nu], v, q)
    q *= w
    a_form = (kind == "J") == (nu == 0)
    plus = np.add(p, q, out=v)
    minus = np.subtract(p, q, out=p) if a_form else np.subtract(q, p, out=p)
    plus *= np.cos(x, out=w) if a_form else np.sin(x, out=w)
    minus *= np.sin(x, out=q) if a_form else np.cos(x, out=q)
    plus += minus
    np.sqrt(np.divide(1.0 / math.pi, x, out=amp), out=amp)
    if kind == "Y" and nu:
        amp *= -1.0
    return np.multiply(plus, amp, out=out)


def _evaluate_block(xb, ob, nu, kind, lo, hi, scratch, index):
    """Fill ``ob`` with J or Y of ``xb`` (lo, hi its extremes); ``ob`` may be
    ``xb`` itself, so every point is read before its result is written."""
    c = _coefficients()[0]
    if hi < c.NEAR_X:
        _near(xb, nu, kind, ob, scratch)
        return
    if lo >= c.FAR_X:
        _far(xb, nu, kind, ob, scratch)
        return
    near = np.flatnonzero(xb < c.NEAR_X) if lo < c.NEAR_X else None
    far = np.flatnonzero(xb >= c.FAR_X) if hi >= c.FAR_X else None
    xn = None if near is None else xb.take(near)  # gathered before ob is written
    xf = None if far is None else xb.take(far)
    # every point through the table (near ones meet zeros, far ones are
    # clipped below FAR_X), then the near and far ones get their own values
    xt = xb if far is None else np.minimum(xb, np.nextafter(c.FAR_X, 0.0))
    _table(xt, f"{kind}{nu}", ob, scratch, index)
    if near is not None:  # the paths use scratch rows 0-4, row 5 holds their results
        ob[near] = _near(xn, nu, kind, scratch[5, :near.size], scratch)
    if far is not None:
        ob[far] = _far(xf, nu, kind, scratch[5, :far.size], scratch)


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


def _bessel(x, nu: int, kind: str, out=None):
    """J or Y of order nu, each value from its own x alone.

    J needs finite x >= 0, Y0 finite x > 0 and Y1 x >= ``_Y1_X_MIN``.  Scalar
    in, scalar out; arrays keep their shape.  ``out``, a float64 array of x's
    shape, is filled and returned instead of a new result; it may be x
    itself (same address and strides) but may not overlap x otherwise.
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
        lo, hi = float(flat.min()), float(flat.max())  # NaN propagates into both
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise BesselDomainError(f"{label} requires finite x")
        if lo <= 0.0 if kind == "Y" else lo < 0.0:
            raise BesselDomainError(f"{label} requires x {'>' if kind == 'Y' else '>='} 0")
        if kind == "Y" and nu and lo < _Y1_X_MIN:
            raise BesselDomainError(f"{label} requires x >= {_Y1_X_MIN!r}, where -2/(pi x) is finite")
        m = min(_BLOCK, flat.size)
        scratch, index = np.empty((6, m)), np.empty(m, dtype=np.intp)
        for start, xb in _blocks(flat):
            if xb.size < flat.size:
                lo, hi = float(xb.min()), float(xb.max())
            _evaluate_block(xb, res_flat[start:start + xb.size], nu, kind, lo, hi, scratch, index)
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


def _laplace_value(r2: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Laplace G = ln(r^2) (-1/(4 pi)) from the squared distances, into ``out``."""
    g = np.log(r2, out=out)
    g *= _LAPLACE_G
    return g


def _laplace_normal_derivative(diffs, r2: np.ndarray, normals: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Laplace dG/dn_y = ((y - x) . n) (-1/(2 pi)) / r^2, into ``out``; the
    projection is summed in coordinate order from its first term."""
    dg = np.multiply(diffs[0], normals[..., 0], out=out)
    for c in range(1, len(diffs)):
        dg += diffs[c] * normals[..., c]
    dg *= _LAPLACE_DG
    dg /= r2
    return dg


def _value_from_r(spec: KernelSpec, r: np.ndarray, out=None) -> np.ndarray:
    """G of a Helmholtz family as a function of the distance r, into ``out``."""
    kr = spec.k * r
    if spec.family == "helmholtz2d":
        return _helmholtz2d_value(kr, np.empty(r.shape, dtype=complex) if out is None else out)
    return np.divide(np.cos(kr) + 1j * np.sin(kr), 4.0 * math.pi * r, out=out)


def _radial_derivative(spec: KernelSpec, r: np.ndarray, out=None) -> np.ndarray:
    """dG/dr of a Helmholtz family as a function of the distance r, into ``out``."""
    kr = spec.k * r
    if spec.family == "helmholtz2d":
        return _helmholtz2d_radial_derivative(kr, spec.k, np.empty(r.shape, dtype=complex) if out is None else out)
    phase = np.cos(kr) + 1j * np.sin(kr)
    return np.divide(phase * (1j * kr - 1.0), 4.0 * math.pi * r * r, out=out)


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
    r = np.sqrt(r2, out=r2)
    proj = np.zeros_like(r)
    for d, n in zip(diffs, normals.T):
        proj += d * n
    proj /= r
    return proj, r, r2_min


def _fill_rows(spec: KernelSpec, xs, ys, normals, g, dg, weights):
    """One row block of :func:`kernel_matrices`: its rows of G and dG/dn_y,
    weighted, and their smallest r^2; the block's temporaries die on return.
    The 2D Helmholtz kernel fills only its geometry here: the normal
    projection into ``g.real``, k r into ``g.imag``."""
    if spec.family == "laplace2d":
        diffs, r2, r2_min = _pairwise(xs, ys)
        _laplace_normal_derivative(diffs, r2, normals, out=dg)
        _laplace_value(r2, out=g)
    else:
        proj, r, r2_min = _pairwise_projection(xs, ys, normals)
        if spec.family == "helmholtz2d":
            g.real[...] = proj
            np.multiply(r, spec.k, out=g.imag)
            return r2_min
        _radial_derivative(spec, r, out=dg)
        dg *= proj
        _value_from_r(spec, r, out=g)
    if weights is not None:
        np.multiply(g, weights, out=g)
        np.multiply(dg, weights, out=dg)
    return r2_min


def kernel_matrices(spec: KernelSpec, xs, ys, normals, weights=None):
    """``(G, dG/dn_y, r2_min)`` for point sets with unit normals at the y
    points, filled in row blocks of about ``_BLOCK`` entries, with each
    row's smallest r^2; column j is scaled by ``weights[j]`` when given.
    For 2D Helmholtz, J0, Y0, J1 and Y1 then each run once over all of k r
    (the traced call count pins that), straight into the matrices: Y1 and
    J1 into dG/dn_y (times the projection), Y0 and J0 over the geometry."""
    xs, ys, normals = (np.atleast_2d(np.asarray(a, dtype=float)) for a in (xs, ys, normals))
    shape, dtype = (len(xs), len(ys)), complex if spec.is_complex else float
    g, dg, r2_min = np.empty(shape, dtype), np.empty(shape, dtype), np.empty(len(xs))
    step = max(1, _BLOCK // max(1, len(ys)))
    for start in range(0, len(xs), step):
        blk = slice(start, start + step)
        r2_min[blk] = _fill_rows(spec, xs[blk], ys, normals, g[blk], dg[blk], weights)
    if spec.family == "helmholtz2d":
        _helmholtz2d_radial_derivative(g.imag, spec.k, dg)
        dg *= g.real
        _helmholtz2d_value(g.imag, g)  # Y0 over the projection, then J0 over k r in place
        if weights is not None:
            g *= weights
            dg *= weights
    return g, dg, r2_min


def kernel_matrix(spec: KernelSpec, xs, ys) -> np.ndarray:
    """G(x_i, y_j) for point sets; shape (len(xs), len(ys))."""
    _, r2, _ = _pairwise(xs, ys)
    if spec.family == "laplace2d":
        return _laplace_value(r2, out=r2)
    return _value_from_r(spec, np.sqrt(r2, out=r2))


def kernel_normal_matrix(spec: KernelSpec, xs, ys, normals) -> np.ndarray:
    """dG/dn_y (x_i, y_j) for point sets with unit normals at the y points."""
    return kernel_matrices(spec, xs, ys, normals)[1]


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
