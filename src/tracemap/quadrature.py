"""Numerical integration: triangle quadrature, singular volume integrals,
and trapezoidal boundary integrals including interior reconstruction.

Triangle integration uses the symmetric 7-point degree-5 rule in
barycentric form; the convention here is that the reference weights sum
to 1 and the physical integral is ``area(T) * sum(w_q f(x_q))``.

The Newton potential of the 2D log kernel is computed by excluding
quadrature nodes inside a small disc of radius ``r0`` around the
evaluation point and adding the disc contribution analytically with the
source density frozen at its value at the center; the induced error is
O(r0^2 |log r0|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import BoundaryGrid, TriMesh
from .kernels import KernelSpec, kernel_matrix, kernel_normal_matrix

_SQRT15 = math.sqrt(15.0)


@dataclass(frozen=True, eq=False)
class TriangleQuadratureRule:
    """Barycentric nodes and weights; weights sum to 1."""

    nodes: np.ndarray  # (q, 3) barycentric coordinates
    weights: np.ndarray  # (q,)

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def seven_point_rule() -> TriangleQuadratureRule:
    """Symmetric degree-5 rule: centroid plus two three-point orbits."""
    a = (6.0 - _SQRT15) / 21.0
    b = (6.0 + _SQRT15) / 21.0
    w_a = (155.0 - _SQRT15) / 1200.0
    w_b = (155.0 + _SQRT15) / 1200.0
    nodes = [(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)]
    weights = [9.0 / 40.0]
    for c, w in ((a, w_a), (b, w_b)):
        nodes += [(1.0 - 2.0 * c, c, c), (c, 1.0 - 2.0 * c, c), (c, c, 1.0 - 2.0 * c)]
        weights += [w, w, w]
    return TriangleQuadratureRule(np.array(nodes), np.array(weights))


_RULE = seven_point_rule()


@dataclass(frozen=True)
class SingularIntegralConfig:
    """Exclusion radius for the analytic disc treatment of the log kernel."""

    r0: float = 0.01

    def __post_init__(self):
        if not self.r0 > 0.0:
            raise ValueError("exclusion radius must be positive")


class DegenerateTriangleError(ValueError):
    """Triangle with (near-)zero area passed to the quadrature."""


def integrate_triangle(f, v1, v2, v3, rule: TriangleQuadratureRule = _RULE) -> float:
    """Integrate ``f`` over one triangle via the affine map to the reference.

    ``f`` must accept an (m, 2) array of points and return (m,) values.
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    v3 = np.asarray(v3, dtype=float)
    jac = (v2[0] - v1[0]) * (v3[1] - v1[1]) - (v3[0] - v1[0]) * (v2[1] - v1[1])
    if abs(jac) < 1e-14:
        raise DegenerateTriangleError("triangle has (near-)zero area")
    pts = rule.nodes @ np.vstack([v1, v2, v3])
    return 0.5 * abs(jac) * float(rule.weights @ np.asarray(f(pts), dtype=float))


def mesh_quadrature_nodes(mesh: TriMesh, rule: TriangleQuadratureRule = _RULE):
    """All physical quadrature nodes and their absolute weights.

    Returns ``(points (nt*q, 2), weights (nt*q,))`` ordered by element
    index then node index, so summation order is reproducible.
    """
    a, b, c = mesh.corner_arrays()
    areas = mesh.areas()
    if np.any(np.abs(areas) < 0.5e-14):
        raise DegenerateTriangleError("mesh contains a degenerate triangle")
    lam = rule.nodes
    pts = (
        lam[None, :, 0, None] * a[:, None, :]
        + lam[None, :, 1, None] * b[:, None, :]
        + lam[None, :, 2, None] * c[:, None, :]
    )
    w = np.abs(areas)[:, None] * rule.weights[None, :]
    return pts.reshape(-1, 2), w.reshape(-1)


def integrate_mesh(f, mesh: TriMesh, rule: TriangleQuadratureRule = _RULE) -> float:
    """Sum of the 7-point rule over all elements, in element order."""
    pts, w = mesh_quadrature_nodes(mesh, rule)
    return float(np.dot(w, np.asarray(f(pts), dtype=float)))


def _log_disc_integral(r0: float) -> float:
    """Integral of ln(r) over the full disc of radius r0 around its center."""
    return 2.0 * math.pi * (0.5 * r0 * r0 * math.log(r0) - 0.25 * r0 * r0)


def _points_in_closed_mesh(mesh: TriMesh, pts: np.ndarray) -> np.ndarray:
    """Membership in the closure of some triangle (edges included)."""
    a, b, c = mesh.corner_arrays()
    tol = 1e-12
    closed = np.zeros(len(pts), dtype=bool)
    for i, p in enumerate(pts):
        d1 = (b[:, 0] - a[:, 0]) * (p[1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (p[0] - a[:, 0])
        d2 = (c[:, 0] - b[:, 0]) * (p[1] - b[:, 1]) - (c[:, 1] - b[:, 1]) * (p[0] - b[:, 0])
        d3 = (a[:, 0] - c[:, 0]) * (p[1] - c[:, 1]) - (a[:, 1] - c[:, 1]) * (p[0] - c[:, 0])
        hit = (d1 >= -tol) & (d2 >= -tol) & (d3 >= -tol)
        closed[i] = bool(hit.any())
    return closed


def _distance_to_mesh_boundary(mesh: TriMesh, pts: np.ndarray) -> np.ndarray:
    edges = mesh.boundary_edges()
    p0 = mesh.vertices[edges[:, 0]]
    p1 = mesh.vertices[edges[:, 1]]
    seg = p1 - p0
    seg_len2 = np.maximum((seg**2).sum(axis=1), 1e-300)
    d = np.empty(len(pts))
    for i, p in enumerate(pts):
        t = np.clip(((p - p0) * seg).sum(axis=1) / seg_len2, 0.0, 1.0)
        proj = p0 + t[:, None] * seg
        d[i] = np.sqrt(((p - proj) ** 2).sum(axis=1)).min()
    return d


def newton_potential(
    kernel: KernelSpec,
    f,
    mesh: TriMesh,
    x,
    cfg: SingularIntegralConfig = SingularIntegralConfig(),
) -> float:
    """Volume potential ``int_Omega G(x, y) f(y) dy`` for the 2D log kernel."""
    values, _ = newton_potential_many(kernel, f, mesh, np.atleast_2d(np.asarray(x, float)), cfg)
    return float(values[0])


def newton_potential_many(
    kernel: KernelSpec,
    f,
    mesh: TriMesh,
    xs,
    cfg: SingularIntegralConfig = SingularIntegralConfig(),
):
    """Vectorized Newton potential at many evaluation points.

    Returns ``(values, near_boundary_flags)``.  A point is flagged when it
    lies inside the domain but closer than ``r0`` to the mesh boundary, in
    which case the full-disc correction is kept but clipped area is not
    accounted for (error O(r0^2 |log r0|)).
    """
    if kernel.family != "laplace2d":
        raise ValueError("the Newton potential is implemented for the 2D log kernel")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    pts, w = mesh_quadrature_nodes(mesh)
    fvals = np.asarray(f(pts), dtype=float)
    dist = _distance_to_mesh_boundary(mesh, xs)
    inside = _points_in_closed_mesh(mesh, xs) & (dist > 1e-12)
    disc = -_log_disc_integral(cfg.r0) / (2.0 * math.pi)  # integral of G over the disc
    values = np.empty(len(xs))
    flags = np.zeros(len(xs), dtype=bool)
    for i, x in enumerate(xs):
        r = np.hypot(pts[:, 0] - x[0], pts[:, 1] - x[1])
        keep = r >= cfg.r0
        g = -np.log(r[keep]) / (2.0 * math.pi)
        total = float(np.dot(w[keep], g * fvals[keep]))
        if inside[i]:
            fx = float(np.asarray(f(x[None, :]), dtype=float)[0])
            total += fx * disc
            if dist[i] <= cfg.r0:
                flags[i] = True
        values[i] = total
    return values, flags


def singular_log_integral(mesh: TriMesh, x0, r0: float = 0.01, f=None, inside_angle: float | None = None) -> float:
    """Integral of ``ln(|y - x0|^2) * f(y)`` over the mesh domain.

    The benchmark integrand.  ``inside_angle`` is the angular measure of
    disc directions lying inside the domain at ``x0`` (2 pi for interior
    points; pi on an edge; pi/2 at a square corner).  When omitted it is
    derived from the mesh bounding box, which is exact for the
    axis-aligned square domains used in the benchmark.
    """
    x0 = np.asarray(x0, dtype=float)
    pts, w = mesh_quadrature_nodes(mesh)
    fvals = np.ones(len(pts)) if f is None else np.asarray(f(pts), dtype=float)
    r = np.hypot(pts[:, 0] - x0[0], pts[:, 1] - x0[1])
    keep = r >= r0
    total = float(np.dot(w[keep], 2.0 * np.log(r[keep]) * fvals[keep]))
    if inside_angle is None:
        inside_angle = _estimate_inside_angle(mesh, x0, r0)
    if inside_angle > 0.0:
        fx = 1.0 if f is None else float(np.asarray(f(x0[None, :]), dtype=float)[0])
        total += fx * inside_angle * 2.0 * (0.5 * r0 * r0 * math.log(r0) - 0.25 * r0 * r0)
    return total


def _estimate_inside_angle(mesh: TriMesh, x0: np.ndarray, r0: float) -> float:
    """Angular fraction of the r0-disc inside the square-type domain.

    Axis-aligned bounding-box clipping: exact for interior, edge, and
    corner positions of a convex axis-aligned domain like the unit square.
    """
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    frac = 1.0
    for d in range(2):
        inside_lo = x0[d] - lo[d]
        inside_hi = hi[d] - x0[d]
        if inside_lo < 0 or inside_hi < 0:
            return 0.0
        span = min(inside_lo, inside_hi)
        if span < r0:
            # half of this axis' directions clipped when sitting on the wall
            frac *= 0.5 if span <= 0 else 1.0 - math.acos(min(span / r0, 1.0)) / math.pi
    return 2.0 * math.pi * frac


def boundary_integral(values, grid: BoundaryGrid):
    """Trapezoidal boundary integral: sum of values times arc weights."""
    values = np.asarray(values)
    if values.shape[0] != grid.n_points:
        raise ValueError("integrand length does not match the grid")
    return np.dot(grid.weights, values)


class BoundaryReconstructor:
    """Interior evaluation from boundary traces, with cached kernel matrices.

    Implements ``u(x) = sum_i w_i [G(x, y_i) h_i - g_i dG/dn(x, y_i)]``;
    the sign convention is fixed by the requirement that exact traces of
    u = 1 reproduce 1 (see :func:`double_layer_identity`).
    """

    def __init__(self, kernel: KernelSpec, grid: BoundaryGrid, points):
        self.kernel = kernel
        self.grid = grid
        self.points = np.atleast_2d(np.asarray(points, dtype=float))
        w = grid.weights[None, :]
        self.single = kernel_matrix(kernel, self.points, grid.points) * w
        self.double = kernel_normal_matrix(kernel, self.points, grid.points, grid.normals) * w
        diff = grid.points[None, :, :] - self.points[:, None, :]
        rmin = np.sqrt((diff**2).sum(axis=2)).min(axis=1)
        self.near_flags = rmin < 2.0 * grid.min_spacing()

    def field(self, g, h) -> np.ndarray:
        g = np.asarray(g)
        h = np.asarray(h)
        if g.shape[0] != self.grid.n_points or h.shape[0] != self.grid.n_points:
            raise ValueError("trace length does not match the grid")
        return self.single @ h - self.double @ g


def reconstruct_interior(kernel: KernelSpec, grid: BoundaryGrid, g, h, x) -> complex:
    """Boundary-integral reconstruction at one interior point.

    Raises on points outside the domain; near-boundary points (closer
    than twice the collocation spacing) are computed but flagged via
    :class:`BoundaryReconstructor` when evaluated in bulk.
    """
    from .geometry import contains

    x = np.asarray(x, dtype=float)
    if not contains(grid.spec, x):
        raise ValueError("reconstruction point lies outside the domain")
    rec = BoundaryReconstructor(kernel, grid, x[None, :])
    return complex(rec.field(np.asarray(g), np.asarray(h))[0])


def double_layer_identity(kernel: KernelSpec, grid: BoundaryGrid, x) -> complex:
    """Reconstruction of the constant-1 trace pair; ~1 inside for Laplace.

    Startup self-check pinning the representation's sign convention.
    """
    rec = BoundaryReconstructor(kernel, grid, np.atleast_2d(np.asarray(x, float)))
    return complex(rec.field(np.ones(grid.n_points), np.zeros(grid.n_points))[0])
