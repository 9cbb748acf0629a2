"""Computational domains, boundary collocation grids, and triangle meshes.

Domains are described by a :class:`DomainSpec` (unit square, star-shaped
polar curve, annulus between two polar curves, or a 3D sphere surface).
``make_boundary_grid`` discretizes the boundary into collocation points
with outward unit normals and arc-length quadrature weights suitable for
trapezoidal boundary integration.  ``triangulate_square`` gives the triangle
mesh for volume quadrature, from index arithmetic on its vertex grid;
``TriMesh.to_csv`` and ``trimesh_from_csv`` write and read a mesh as one
row of corner coordinates per triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .textio import float_cells, json_field, json_numbers, parse_floats, table_text

SQUARE_SEGMENTS = ("G1", "G2", "G3", "G4")

# Point-element pairs per block of the all-pairs searches below: bounds
# their temporaries whatever the number of points.
_PAIR_BLOCK = 1 << 16
_N_PROBE = 4096  # polar-curve samples: radius check, loop length, distance polyline


def _point_blocks(n_points: int, n_elements: int) -> list[slice]:
    step = max(1, _PAIR_BLOCK // n_elements)
    return [slice(s, s + step) for s in range(0, n_points, step)]


class InvalidDomainError(ValueError):
    """The domain description violates a geometric precondition."""


class MshParseError(ValueError):
    """Malformed triangle CSV (:func:`trimesh_from_csv`); the message names the line."""


@dataclass(frozen=True)
class PolarTerm:
    """One harmonic of a polar radius function r(theta).

    ``kind`` is "sin" or "cos"; the term contributes
    ``amplitude * kind(frequency * theta)``.
    """

    kind: str
    amplitude: float
    frequency: int

    def __post_init__(self):
        if self.kind not in ("sin", "cos"):
            raise InvalidDomainError(f"unknown polar term kind {self.kind!r}")


@dataclass(frozen=True)
class PolarCurve:
    """r(theta) = base + sum of harmonic terms, required positive."""

    base: float
    terms: tuple[PolarTerm, ...] = ()
    center: tuple[float, float] = (0.0, 0.0)

    def radius(self, theta):
        theta = np.asarray(theta, dtype=float)
        r = np.full_like(theta, self.base)
        for t in self.terms:
            f = np.sin if t.kind == "sin" else np.cos
            r = r + t.amplitude * f(t.frequency * theta)
        return r

    def radius_prime(self, theta):
        theta = np.asarray(theta, dtype=float)
        dr = np.zeros_like(theta)
        for t in self.terms:
            if t.kind == "sin":
                dr = dr + t.amplitude * t.frequency * np.cos(t.frequency * theta)
            else:
                dr = dr - t.amplitude * t.frequency * np.sin(t.frequency * theta)
        return dr

    def points(self, theta):
        r = self.radius(theta)
        cx, cy = self.center
        return np.column_stack([cx + r * np.cos(theta), cy + r * np.sin(theta)])


@dataclass(frozen=True)
class DomainSpec:
    """A computational domain; construct via the class methods."""

    shape: str  # "unit_square" | "polar_curve" | "multi_loop" | "sphere3d"
    outer: PolarCurve | None = None
    inner: PolarCurve | None = None
    center3d: tuple[float, float, float] = (0.0, 0.0, 0.0)
    radius3d: float = 1.0

    @classmethod
    def unit_square(cls) -> "DomainSpec":
        return cls(shape="unit_square")

    @classmethod
    def polar(cls, base: float, terms=(), center=(0.0, 0.0)) -> "DomainSpec":
        curve = PolarCurve(base, tuple(terms), center)
        _check_positive_radius(curve)
        return cls(shape="polar_curve", outer=curve)

    @classmethod
    def multi_loop(cls, outer: PolarCurve, inner: PolarCurve) -> "DomainSpec":
        _check_positive_radius(outer)
        _check_positive_radius(inner)
        theta = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
        inner_pts = inner.points(theta)
        if not _inside_polar(outer, inner_pts).all():
            raise InvalidDomainError("inner loop is not strictly inside the outer loop")
        return cls(shape="multi_loop", outer=outer, inner=inner)

    @classmethod
    def sphere(cls, center=(0.0, 0.0, 0.0), radius: float = 1.0) -> "DomainSpec":
        if radius <= 0:
            raise InvalidDomainError("sphere radius must be positive")
        return cls(shape="sphere3d", center3d=tuple(center), radius3d=float(radius))

    def to_payload(self) -> dict:
        """JSON-ready description; :meth:`from_payload` inverts it."""
        payload: dict = {"shape": self.shape}
        if self.shape in ("polar_curve", "multi_loop"):
            payload["outer"] = _curve_payload(self.outer)
            if self.inner is not None:
                payload["inner"] = _curve_payload(self.inner)
        elif self.shape == "sphere3d":
            payload["center"] = list(self.center3d)
            payload["radius"] = self.radius3d
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "DomainSpec":
        """Inverse of :meth:`to_payload`, the ``"domain"`` record of dataset
        sidecars; a missing or mistyped field raises a ``ValueError`` naming it."""
        shape = json_field(payload, "shape", str, "domain.")
        if shape == "unit_square":
            return cls.unit_square()
        if shape == "polar_curve":
            c = _curve_from_payload(payload, "outer")
            return cls.polar(c.base, c.terms, c.center)
        if shape == "multi_loop":
            return cls.multi_loop(_curve_from_payload(payload, "outer"), _curve_from_payload(payload, "inner"))
        if shape == "sphere3d":
            center = json_numbers(payload, "center", 3, "domain.")
            return cls.sphere(center, json_field(payload, "radius", float, "domain."))
        raise InvalidDomainError(f"unknown domain shape {shape!r}")

    @property
    def dimension(self) -> int:
        return 3 if self.shape == "sphere3d" else 2

    def bounding_box(self):
        """Axis-aligned (lo, hi) corners enclosing the domain."""
        if self.shape == "unit_square":
            return np.array([0.0, 0.0]), np.array([1.0, 1.0])
        if self.shape in ("polar_curve", "multi_loop"):
            theta = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)
            pts = self.outer.points(theta)
            return pts.min(axis=0), pts.max(axis=0)
        c = np.asarray(self.center3d)
        r = self.radius3d
        return c - r, c + r


def _curve_payload(c: PolarCurve) -> dict:
    return {
        "base": c.base,
        "terms": [[t.kind, t.amplitude, t.frequency] for t in c.terms],
        "center": list(c.center),
    }


def _curve_from_payload(domain: dict, name: str) -> PolarCurve:
    """The curve record ``domain[name]``; a ``ValueError`` names a bad field."""
    prefix = f"domain.{name}."
    curve = json_field(domain, name, dict, "domain.")
    fields = {"kind": str, "amplitude": float, "frequency": int}
    terms = []
    for i, term in enumerate(json_field(curve, "terms", list, prefix)):
        where = f"{prefix}terms[{i}]"
        if not isinstance(term, list) or len(term) != len(fields):
            raise ValueError(f"sidecar field {where!r} must be a [{', '.join(fields)}] list, got {term!r}")
        record = dict(zip(fields, term))
        terms.append(PolarTerm(*(json_field(record, f, kind, where + ".") for f, kind in fields.items())))
    base = json_field(curve, "base", float, prefix)
    return PolarCurve(base, tuple(terms), json_numbers(curve, "center", 2, prefix))


def _check_positive_radius(curve: PolarCurve) -> None:
    theta = np.linspace(0.0, 2.0 * math.pi, _N_PROBE, endpoint=False)
    r = curve.radius(theta)
    if np.any(r <= 0.0):
        raise InvalidDomainError("polar radius must stay positive on [0, 2pi)")


def _inside_polar(curve: PolarCurve, pts: np.ndarray) -> np.ndarray:
    rel = np.atleast_2d(pts) - np.asarray(curve.center)
    rho = np.hypot(rel[:, 0], rel[:, 1])
    ang = np.arctan2(rel[:, 1], rel[:, 0])
    return rho < curve.radius(ang)


def freeze_arrays(obj, *names: str) -> None:
    """Replace the named array fields of a frozen dataclass by read-only
    views: the stored arrays cannot be written, the caller's stay writable,
    and no data is copied."""
    for name in names:
        view = getattr(obj, name).view()
        view.setflags(write=False)
        object.__setattr__(obj, name, view)


@dataclass(frozen=True, eq=False)
class BoundaryGrid:
    """Collocation points on a closed boundary.

    ``points`` (n, d), ``normals`` (n, d) outward unit vectors, ``weights``
    (n,) arc-length (or surface-area in 3D) quadrature weights, and
    ``segment_id`` per-point labels ("G1".."G4" on the square, a single
    label otherwise).  Arrays are read-only after construction.
    """

    points: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    segment_id: tuple[str, ...]
    spec: DomainSpec = field(compare=False)

    def __post_init__(self):
        freeze_arrays(self, "points", "normals", "weights")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def segment_indices(self, label: str) -> np.ndarray:
        return np.array([i for i, s in enumerate(self.segment_id) if s == label])

    def min_spacing(self) -> float:
        d = np.diff(self.points, axis=0, append=self.points[:1])
        return float(np.linalg.norm(d, axis=1).min())


def make_boundary_grid(spec: DomainSpec, n: int = 400) -> BoundaryGrid:
    """Discretize the boundary of ``spec`` into ``n`` collocation points.

    Square: points are uniform in arc length, cell-centered per edge so no
    point falls on a corner, traversed counterclockwise from (0, 0).
    Polar curves: uniform in the angle parameter with arc-length Jacobian
    weights ``w_i = dtheta * sqrt(r^2 + r'^2)``.  Spheres: Fibonacci
    lattice with uniform area weights.
    """
    if n < 8:
        raise InvalidDomainError("need at least 8 collocation points")
    if spec.shape == "unit_square":
        return _square_grid(spec, n)
    if spec.shape == "polar_curve":
        return _polar_grid(spec, spec.outer, n)
    if spec.shape == "multi_loop":
        return _annulus_grid(spec, n)
    if spec.shape == "sphere3d":
        return _sphere_grid(spec, n)
    raise InvalidDomainError(f"unknown domain shape {spec.shape!r}")


def _square_grid(spec: DomainSpec, n: int) -> BoundaryGrid:
    # Arc-length parameterization of the perimeter onto [0, 4), starting at
    # (0,0) and traversing counterclockwise; samples at cell centers.
    s = (np.arange(n) + 0.5) * (4.0 / n)
    edge = np.minimum(np.floor(s).astype(int), 3)
    t = s - edge
    pts = np.empty((n, 2))
    nrm = np.empty((n, 2))
    for e, (p0, d, nv) in enumerate(
        [
            ((0.0, 0.0), (1.0, 0.0), (0.0, -1.0)),
            ((1.0, 0.0), (0.0, 1.0), (1.0, 0.0)),
            ((1.0, 1.0), (-1.0, 0.0), (0.0, 1.0)),
            ((0.0, 1.0), (0.0, -1.0), (-1.0, 0.0)),
        ]
    ):
        m = edge == e
        pts[m] = np.asarray(p0) + np.outer(t[m], d)
        nrm[m] = nv
    weights = np.full(n, 4.0 / n)
    seg = tuple(SQUARE_SEGMENTS[e] for e in edge)
    return BoundaryGrid(pts, nrm, weights, seg, spec)


def _polar_loop(curve: PolarCurve, n: int, outward: bool):
    theta = np.arange(n) * (2.0 * math.pi / n)
    r = curve.radius(theta)
    if np.any(r <= 0.0):
        raise InvalidDomainError("polar radius must stay positive on [0, 2pi)")
    dr = curve.radius_prime(theta)
    pts = curve.points(theta)
    # Tangent of theta -> (r cos, r sin); rotate -90 deg for the outward
    # normal of a counterclockwise loop.
    tx = dr * np.cos(theta) - r * np.sin(theta)
    ty = dr * np.sin(theta) + r * np.cos(theta)
    speed = np.hypot(tx, ty)
    nrm = np.column_stack([ty, -tx]) / speed[:, None]
    if not outward:
        nrm = -nrm
    weights = (2.0 * math.pi / n) * speed
    return pts, nrm, weights


def _polar_grid(spec: DomainSpec, curve: PolarCurve, n: int) -> BoundaryGrid:
    pts, nrm, w = _polar_loop(curve, n, outward=True)
    return BoundaryGrid(pts, nrm, w, ("G1",) * n, spec)


def _loop_length(curve: PolarCurve) -> float:
    theta = np.linspace(0.0, 2.0 * math.pi, _N_PROBE, endpoint=False)
    speed = np.hypot(curve.radius_prime(theta), curve.radius(theta))
    return float(speed.sum() * 2.0 * math.pi / _N_PROBE)


def _annulus_grid(spec: DomainSpec, n: int) -> BoundaryGrid:
    # n points total, split proportionally to loop length.  The domain's
    # outward normal on the inner loop points into the hole.
    lo = _loop_length(spec.outer)
    li = _loop_length(spec.inner)
    n_out = max(4, round(n * lo / (lo + li)))
    n_in = n - n_out
    if n_in < 4:
        raise InvalidDomainError("too few points for the inner loop")
    po, no, wo = _polar_loop(spec.outer, n_out, outward=True)
    pi_, ni, wi = _polar_loop(spec.inner, n_in, outward=False)
    pts = np.vstack([po, pi_])
    nrm = np.vstack([no, ni])
    w = np.concatenate([wo, wi])
    seg = ("outer",) * n_out + ("inner",) * n_in
    return BoundaryGrid(pts, nrm, w, seg, spec)


def _sphere_grid(spec: DomainSpec, n: int) -> BoundaryGrid:
    # Fibonacci lattice: near-uniform area coverage, uniform weights.
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    rho = np.sqrt(1.0 - z * z)
    unit = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    c = np.asarray(spec.center3d)
    R = spec.radius3d
    pts = c + R * unit
    weights = np.full(n, 4.0 * math.pi * R * R / n)
    return BoundaryGrid(pts, unit.copy(), weights, ("G1",) * n, spec)


def contains(spec: DomainSpec, p) -> np.ndarray | bool:
    """True where points lie strictly inside the domain.

    Accepts a single point or an (m, d) array; returns a bool or bool array.
    """
    pts = np.atleast_2d(np.asarray(p, dtype=float))
    if spec.shape == "unit_square":
        inside = (
            (pts[:, 0] > 0.0) & (pts[:, 0] < 1.0) & (pts[:, 1] > 0.0) & (pts[:, 1] < 1.0)
        )
    elif spec.shape == "polar_curve":
        inside = _inside_polar(spec.outer, pts)
    elif spec.shape == "multi_loop":
        rel = pts - np.asarray(spec.inner.center)
        rho = np.hypot(rel[:, 0], rel[:, 1])
        ang = np.arctan2(rel[:, 1], rel[:, 0])
        inside = _inside_polar(spec.outer, pts) & (rho > spec.inner.radius(ang))
    elif spec.shape == "sphere3d":
        inside = np.linalg.norm(pts - np.asarray(spec.center3d), axis=1) < spec.radius3d
    else:
        raise InvalidDomainError(f"unknown domain shape {spec.shape!r}")
    if np.asarray(p).ndim == 1:
        return bool(inside[0])
    return inside


def boundary_distance(spec: DomainSpec, p) -> np.ndarray | float:
    """Euclidean distance from points to the domain boundary.

    Exact for square and sphere; polar boundaries are approximated by a
    dense polyline (4096 vertices per loop).
    """
    pts = np.atleast_2d(np.asarray(p, dtype=float))
    if spec.shape == "unit_square":
        dx = np.maximum.reduce([-pts[:, 0], pts[:, 0] - 1.0, np.zeros(len(pts))])
        dy = np.maximum.reduce([-pts[:, 1], pts[:, 1] - 1.0, np.zeros(len(pts))])
        outside = np.hypot(dx, dy)
        inside = np.minimum(
            np.minimum(np.abs(pts[:, 0]), np.abs(1.0 - pts[:, 0])),
            np.minimum(np.abs(pts[:, 1]), np.abs(1.0 - pts[:, 1])),
        )
        d = np.where(outside > 0.0, outside, inside)
    elif spec.shape == "sphere3d":
        d = np.abs(np.linalg.norm(pts - np.asarray(spec.center3d), axis=1) - spec.radius3d)
    else:
        theta = np.linspace(0.0, 2.0 * math.pi, _N_PROBE, endpoint=False)
        loops = [spec.outer] if spec.shape == "polar_curve" else [spec.outer, spec.inner]
        poly = np.vstack([loop.points(theta) for loop in loops])
        d = np.empty(len(pts))
        for blk in _point_blocks(len(pts), len(poly)):
            d[blk] = np.sqrt(((pts[blk, None, :] - poly) ** 2).sum(axis=2)).min(axis=1)
    if np.asarray(p).ndim == 1:
        return float(d[0])
    return d


# ---------------------------------------------------------------------------
# Triangle meshes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TriMesh:
    """Triangulation: ``vertices`` (nv, 2) and ``triangles`` (nt, 3) indices.

    All triangles carry positive signed area (counterclockwise vertex
    order).
    """

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        freeze_arrays(self, "vertices", "triangles")

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def corner_arrays(self):
        corners = np.take(self.vertices, self.triangles, axis=0)
        return corners[:, 0], corners[:, 1], corners[:, 2]

    def areas(self) -> np.ndarray:
        a, b, c = self.corner_arrays()
        return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1]))

    @cached_property
    def _locate_rows(self) -> np.ndarray:
        """Read-only (7, nt) rows ax, bx, cx, ay, by, cy and 2 * areas(): one
        contiguous row per corner coordinate, for the block loop of
        :meth:`locate` to stream.  Built on the first call and kept, as the
        mesh's vertices and triangles do not change."""
        rows = np.vstack([np.take(self.vertices[:, d], self.triangles.T) for d in (0, 1)] + [2.0 * self.areas()])
        rows.setflags(write=False)
        return rows

    def locate(self, pts) -> tuple[np.ndarray, np.ndarray]:
        """``(tri, bary)``: the first triangle (in index order) holding each
        point, and the point's barycentric weights of ``triangles[tri]``.

        A triangle holds a point when all three weights are >= -1e-12, a
        scale-free rule that takes in edges and vertices.  A point that no
        triangle holds gets ``tri = -1`` and zero weights.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        ax, bx, cx, ay, by, cy, det = self._locate_rows
        tri = np.full(len(pts), -1)
        bary = np.zeros((len(pts), 3))
        for blk in _point_blocks(len(pts), self.n_triangles):
            px, py = pts[blk, 0, None], pts[blk, 1, None]
            dcx, dcy = cx - px, cy - py
            l1 = ((bx - px) * dcy - dcx * (by - py)) / det
            l2 = (dcx * (ay - py) - (ax - px) * dcy) / det
            l3 = 1.0 - l1 - l2
            ok = (l1 >= -1e-12) & (l2 >= -1e-12) & (l3 >= -1e-12)
            rows, first = np.arange(len(ok)), ok.argmax(axis=1)
            held = ok[rows, first]
            tri[blk] = np.where(held, first, -1)
            lam = np.column_stack([l1[rows, first], l2[rows, first], l3[rows, first]])
            bary[blk] = np.where(held[:, None], lam, 0.0)
        return tri, bary

    def boundary_distance(self, pts) -> np.ndarray:
        """Distance from each point to the nearest boundary edge, an edge of
        exactly one triangle."""
        pts = np.asarray(pts, dtype=float)
        edges = self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)
        _, idx, counts = np.unique(np.sort(edges, axis=1), axis=0, return_index=True, return_counts=True)
        edges = edges[idx[counts == 1]]
        p0 = self.vertices[edges[:, 0]]
        seg = self.vertices[edges[:, 1]] - p0
        seg_len2 = np.maximum((seg**2).sum(axis=1), 1e-300)
        d = np.empty(len(pts))
        for blk in _point_blocks(len(pts), len(edges)):
            p = pts[blk, None, :]
            t = np.clip(((p - p0) * seg).sum(axis=2) / seg_len2, 0.0, 1.0)
            d[blk] = np.sqrt(((p - (p0 + t[:, :, None] * seg)) ** 2).sum(axis=2)).min(axis=1)
        return d

    def to_csv(self) -> str:
        return table_text("x1,y1,x2,y2,x3,y3", zip(*map(float_cells, np.hstack(self.corner_arrays()).T)))


def trimesh_from_csv(text: str) -> TriMesh:
    """Rebuild a TriMesh from its CSV form (vertices deduplicated)."""
    lines = text.splitlines()
    if not lines or lines[0] != "x1,y1,x2,y2,x3,y3":
        raise MshParseError("line 1: expected triangle CSV header")
    verts: dict[tuple[float, float], int] = {}
    tris = []
    for ln, line in enumerate(lines[1:], start=2):
        try:
            coords = parse_floats(line.split(","), f"line {ln}").tolist()
        except ValueError as exc:
            raise MshParseError(str(exc)) from None
        if len(coords) != 6:
            raise MshParseError(f"line {ln}: {len(coords)} coordinates, expected 6")
        tris.append([verts.setdefault((coords[k], coords[k + 1]), len(verts)) for k in (0, 2, 4)])
    return _oriented_mesh(np.array(list(verts), dtype=float), np.array(tris, dtype=int))


def triangulate_square(h: float) -> TriMesh:
    """Structured triangulation of the unit square with element size ~h.

    ceil(1/h)^2 cells, each split along its main diagonal into two
    counterclockwise triangles; areas sum to exactly 1.
    """
    if not (0.0 < h < 1.0):
        raise InvalidDomainError("element size must satisfy 0 < h < 1")
    m = math.ceil(1.0 / h)
    xs = np.linspace(0.0, 1.0, m + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([gx.ravel(), gy.ravel()])
    # vertex (i, j) is i * (m + 1) + j; cell (i, j), i-major, gives
    # (v00, v10, v11) then (v00, v11, v01)
    v00 = (np.arange(m)[:, None] * (m + 1) + np.arange(m)).ravel()
    v10, v01, v11 = v00 + (m + 1), v00 + 1, v00 + (m + 2)
    tris = np.column_stack([v00, v10, v11, v00, v11, v01]).reshape(-1, 3)
    return TriMesh(vertices, tris)


def _oriented_mesh(vertices: np.ndarray, triangles: np.ndarray) -> TriMesh:
    neg = TriMesh(vertices, triangles).areas() < 0.0
    flipped = triangles.copy()
    flipped[neg] = flipped[neg][:, [0, 2, 1]]
    return TriMesh(vertices, flipped)
