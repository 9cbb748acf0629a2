"""Numerical integration: triangle quadrature, singular volume integrals,
and trapezoidal boundary integrals including interior reconstruction.

Triangle integration uses the symmetric 7-point degree-5 rule in
barycentric form; the convention here is that the reference weights sum
to 1 and the physical integral is ``area(T) * sum(w_q f(x_q))``.
``mesh_quadrature_nodes`` is its one node mapping and degeneracy check:
``integrate_mesh`` sums over it and ``integrate_triangle`` is
``integrate_mesh`` on a one-triangle mesh.

The Newton potential of the 2D log kernel is computed by excluding
quadrature nodes inside a small disc of radius ``r0`` around the
evaluation point and adding the disc contribution analytically with the
source density frozen at its value at the center; the induced error is
O(r0^2 |log r0|).

The interior reconstruction, :class:`BoundaryReconstructor`, streams the
boundary integrals: it fills the weighted kernel rows of ``_ROWS`` points
at a time and applies each block to the traces at once, so it holds no
kernel matrix, except for the 2D Helmholtz kernel (see the class).
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import BoundaryGrid, TriMesh, _point_blocks
from .kernels import KernelSpec, _fill_rows, _pairwise, _points, kernel_matrices

_R0 = 0.01  # exclusion radius of the Newton potential's analytic disc term
# Rows per streamed reconstructor block.  A power of two: with OpenBLAS each
# block's products then equal the whole matrix's rows to the last bit.
_ROWS = 256


def _row_blocks(n_points: int) -> list[slice]:
    """The ``_ROWS``-row blocks of the streamed reconstructor.  A lone last
    row joins the block before it: numpy takes a one-row product as a dot,
    whose sum can differ in its last bit from that row of a GEMV."""
    stops = [*range(_ROWS, n_points - 1, _ROWS), n_points]
    return [slice(start, stop) for start, stop in zip([0, *stops[:-1]], stops)]


def _seven_point_rule():
    """Symmetric degree-5 rule: centroid plus two three-point orbits, as
    barycentric nodes (7, 3) and weights (7,) summing to 1."""
    sqrt15 = math.sqrt(15.0)
    nodes = [(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)]
    weights = [9.0 / 40.0]
    for c, w in (((6.0 - sqrt15) / 21.0, (155.0 - sqrt15) / 1200.0),
                 ((6.0 + sqrt15) / 21.0, (155.0 + sqrt15) / 1200.0)):
        nodes += [(1.0 - 2.0 * c, c, c), (c, 1.0 - 2.0 * c, c), (c, c, 1.0 - 2.0 * c)]
        weights += [w, w, w]
    return np.array(nodes), np.array(weights)


_NODES, _WEIGHTS = _seven_point_rule()


class DegenerateTriangleError(ValueError):
    """Triangle with (near-)zero area passed to the quadrature."""


def integrate_triangle(f, v1, v2, v3) -> float:
    """Integrate ``f`` over one triangle: :func:`integrate_mesh` on the
    one-triangle mesh, either orientation.

    ``f`` must accept an (m, 2) array of points and return (m,) values.
    """
    return integrate_mesh(f, TriMesh(np.array([v1, v2, v3], dtype=float), np.array([[0, 1, 2]])))


def mesh_quadrature_nodes(mesh: TriMesh):
    """All physical quadrature nodes and their absolute weights.

    Returns ``(points (nt*q, 2), weights (nt*q,))`` ordered by element
    index then node index, so summation order is reproducible.
    """
    a, b, c = mesh.corner_arrays()
    areas = mesh.areas()
    edges_sq = [np.sum((p - q) ** 2, axis=1) for p, q in ((b, a), (c, b), (a, c))]
    if np.any(np.abs(areas) <= 0.5e-14 * np.max(edges_sq, axis=0)):  # scale-free: zero area to rounding
        raise DegenerateTriangleError("mesh contains a degenerate triangle")
    pts = (
        _NODES[None, :, 0, None] * a[:, None, :]
        + _NODES[None, :, 1, None] * b[:, None, :]
        + _NODES[None, :, 2, None] * c[:, None, :]
    )
    w = np.abs(areas)[:, None] * _WEIGHTS[None, :]
    return pts.reshape(-1, 2), w.reshape(-1)


def integrate_mesh(f, mesh: TriMesh) -> float:
    """Sum of the 7-point rule over all elements, in element order."""
    pts, w = mesh_quadrature_nodes(mesh)
    return float(np.dot(w, np.asarray(f(pts), dtype=float)))


def _log_disc_integral(r0: float) -> float:
    """Integral of ln(r) over the full disc of radius r0 around its center."""
    return 2.0 * math.pi * (0.5 * r0 * r0 * math.log(r0) - 0.25 * r0 * r0)


def newton_potential_many(kernel: KernelSpec, f, mesh: TriMesh, xs):
    """Vectorized Newton potential at many evaluation points.

    Returns ``(values, near_boundary_flags)``.  The quadrature sum over the
    mesh nodes farther than ``_R0`` = 0.01 runs as one matrix-vector product per
    block of evaluation points (``geometry._point_blocks``), so its
    temporaries stay cache-sized.  A point held by a triangle
    (:meth:`TriMesh.locate`) and more than 1e-12 from the mesh boundary
    then gets the disc term ``f(x) * disc``, in point order; it is flagged
    within ``_R0`` of the boundary, where the full disc is kept but the
    clipped area is not (error O(r0^2 |log r0|)).

    ``f`` is called once over all nodes, then once per such point with that
    point alone.  The benchmark's traced ``source_f`` call count is pinned
    to this structure; one call over all points waits for its re-pin.
    """
    if kernel.family != "laplace2d":
        raise ValueError("the Newton potential is implemented for the 2D log kernel")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    pts, w = mesh_quadrature_nodes(mesh)
    wf = w * np.asarray(f(pts), dtype=float)
    dist = mesh.boundary_distance(xs)
    inside = (mesh.locate(xs)[0] >= 0) & (dist > 1e-12)
    disc = -_log_disc_integral(_R0) / (2.0 * math.pi)  # integral of G over the disc
    values = np.empty(len(xs))
    for blk in _point_blocks(len(xs), len(pts)):
        # sqrt(dx^2 + dy^2), not np.hypot: hypot runs about 3x slower here and
        # the two differ by at most an ulp.
        r = pts[:, 0] - xs[blk, 0, None]
        r *= r
        dy = pts[:, 1] - xs[blk, 1, None]
        r += dy * dy
        np.sqrt(r, out=r)
        log_r = np.log(r, out=np.zeros_like(r), where=r >= _R0)  # nodes in the disc add 0
        values[blk] = log_r @ wf
    values *= -1.0 / (2.0 * math.pi)
    for i in np.flatnonzero(inside):
        values[i] += float(np.asarray(f(xs[i, None]), dtype=float)[0]) * disc
    return values, inside & (dist <= _R0)


def singular_log_integral(mesh: TriMesh, x0, r0: float = 0.01) -> float:
    """Integral of ``ln(|y - x0|^2)`` over the mesh domain: the benchmark
    integrand.  The disc term is scaled by the angular measure of disc
    directions inside the domain at ``x0`` (2 pi for interior points, pi on
    an edge, pi/2 at a square corner), derived from the mesh bounding box,
    which is exact for the axis-aligned square domains of the benchmark.
    ``r0`` must be finite and positive (``quadbench --r0`` checks it).
    """
    x0 = np.asarray(x0, dtype=float)
    pts, w = mesh_quadrature_nodes(mesh)
    r = np.hypot(pts[:, 0] - x0[0], pts[:, 1] - x0[1])
    keep = r >= r0
    total = float(np.dot(w[keep], 2.0 * np.log(r[keep])))
    inside_angle = _estimate_inside_angle(mesh, x0, r0)
    if inside_angle > 0.0:
        total += inside_angle * 2.0 * (0.5 * r0 * r0 * math.log(r0) - 0.25 * r0 * r0)
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


class BoundaryReconstructor:
    """Interior evaluation from boundary traces.

    Implements ``u(x) = sum_i w_i [G(x, y_i) h_i - g_i dG/dn(x, y_i)]``;
    the sign convention is fixed by the requirement that exact traces of
    u = 1 reproduce 1 (the tests' ``double_layer_identity``).

    The build refuses non-finite points and points on a node, and flags
    the points within twice the grid's least spacing of a node; for every
    family but ``helmholtz2d`` it does so in one r^2-min pass over row
    blocks and keeps no kernel matrix.  Each :meth:`field` call then fills
    w G and w dG/dn ``_ROWS`` rows at a time through scratch allocated once
    per call and applies each block at once, so its peak is its output
    plus one block, whatever the number of points.  A ``helmholtz2d``
    build keeps ``single`` (w_j G) and ``double`` (w_j dG/dn_y) from one
    :func:`kernels.kernel_matrices` call instead: there each of J0, Y0, J1
    and Y1 runs once over all of k r, which the traced Bessel call count
    pins.  Nothing is shared between instances.
    """

    def __init__(self, kernel: KernelSpec, grid: BoundaryGrid, points):
        self.kernel = kernel
        self.grid = grid
        self.points, nodes = _points(points, grid.points)
        self._node_coords = np.ascontiguousarray(nodes.T)  # per coordinate, for _pairwise
        self.single = self.double = None
        if kernel.family == "helmholtz2d":
            self.single, self.double, r2_min = kernel_matrices(
                kernel, self.points, nodes, grid.normals, weights=grid.weights
            )
        else:
            r2_min, scratch = np.empty(len(self.points)), self._scratch()
            for blk in _row_blocks(len(self.points)):
                _pairwise(self.points[blk], self._node_coords, scratch[:, :blk.stop - blk.start], r2_min[blk])
        # sqrt is monotone and correctly rounded: sqrt(min r^2) = min r
        self.near_flags = np.sqrt(r2_min, out=r2_min) < 2.0 * grid.min_spacing()

    def _scratch(self) -> np.ndarray:
        """The block scratch of :func:`kernels._pairwise`."""
        return np.empty((self.points.shape[1] + 2, min(_ROWS + 1, len(self.points)), self.grid.n_points))

    def field(self, g, h) -> np.ndarray:
        """The field of the traces ``g`` and ``h``, each ``(n,)`` or ``(n, m)``
        for m trace pairs at once; one kernel pass serves all of them."""
        g = np.asarray(g)
        h = np.asarray(h)
        grid, pts = self.grid, self.points
        if g.shape[0] != grid.n_points or h.shape[0] != grid.n_points:
            raise ValueError("trace length does not match the grid")
        if self.single is not None:
            return self.single @ h - self.double @ g
        dtype = complex if self.kernel.is_complex else float
        out = np.empty((len(pts), *h.shape[1:]), np.result_type(dtype, g, h))
        scratch = self._scratch()
        rows = scratch.shape[1]
        single, double = np.empty((2, rows, grid.n_points), dtype)
        double_g = np.empty((rows, *g.shape[1:]), out.dtype)
        for blk in _row_blocks(len(pts)):
            m = blk.stop - blk.start  # the build checked these points: no r^2 minimum
            _fill_rows(self.kernel, pts[blk], self._node_coords, grid.normals, grid.weights,
                       single[:m], double[:m], None, scratch[:, :m])
            np.matmul(single[:m], h, out=out[blk])
            out[blk] -= np.matmul(double[:m], g, out=double_g[:m])
        return out
