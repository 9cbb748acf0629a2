import csv
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracemap.geometry import (
    BoundaryGrid,
    DomainSpec,
    InvalidDomainError,
    MshParseError,
    PolarCurve,
    PolarTerm,
    TriMesh,
    boundary_distance,
    contains,
    make_boundary_grid,
    triangulate_square,
    trimesh_from_csv,
)

STAR = DomainSpec.polar(0.65, [PolarTerm("sin", 0.2, 5)])


def fd_tangents(points):
    """Centered finite-difference tangents of a closed point loop."""
    fwd = np.roll(points, -1, axis=0)
    bwd = np.roll(points, 1, axis=0)
    t = fwd - bwd
    return t / np.linalg.norm(t, axis=1, keepdims=True)


class TestSquareGrid:
    def test_counts_and_total_weight(self, square):
        grid = make_boundary_grid(square, 400)
        assert grid.n_points == 400
        for label in ("G1", "G2", "G3", "G4"):
            assert len(grid.segment_indices(label)) == 100
        assert grid.weights.sum() == pytest.approx(4.0, abs=1e-12)

    def test_starts_near_origin_and_runs_counterclockwise(self, square_grid):
        p0 = square_grid.points[0]
        assert p0[1] == 0.0 and p0[0] == pytest.approx(0.005)
        # counterclockwise: positive enclosed area via the shoelace sum
        x, y = square_grid.points[:, 0], square_grid.points[:, 1]
        area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        assert area > 0.9

    def test_no_point_on_a_corner(self, square_grid):
        for corner in ([0, 0], [1, 0], [1, 1], [0, 1]):
            d = np.linalg.norm(square_grid.points - corner, axis=1)
            assert d.min() > 1e-3

    def test_normals_unit_and_outward(self, square_grid):
        norms = np.linalg.norm(square_grid.normals, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12
        centered = square_grid.points - [0.5, 0.5]
        assert (np.einsum("ij,ij->i", centered, square_grid.normals) > 0).all()


class TestPolarGrid:
    def test_circle_circumference(self, circle_grid):
        assert circle_grid.weights.sum() == pytest.approx(2 * math.pi, abs=1e-4)

    def test_star_normals_orthogonal_to_fd_tangent(self):
        # The FD-tangent-vs-normal dot carries the centered-difference
        # truncation error O(dtheta^2 |r'''|), so the tolerance scales with
        # the grid and a refinement run pins the quadratic convergence.
        dots = {}
        for n in (400, 4000):
            grid = make_boundary_grid(STAR, n)
            tangents = fd_tangents(grid.points)
            dots[n] = np.abs(np.einsum("ij,ij->i", tangents, grid.normals)).max()
        assert dots[400] < 10.0 * (2 * math.pi / 400) ** 2
        assert dots[4000] < 1e-4
        assert dots[4000] < dots[400] / 50.0  # ~O(n^-2)

    def test_square_and_circle_normals_exactly_orthogonal_to_fd_tangent(self, square_grid, circle_grid):
        # straight edges and the symmetric circle have no truncation term;
        # square neighbors straddling a corner are excluded
        t = fd_tangents(circle_grid.points)
        assert np.abs(np.einsum("ij,ij->i", t, circle_grid.normals)).max() < 1e-12
        t = fd_tangents(square_grid.points)
        dots = np.abs(np.einsum("ij,ij->i", t, square_grid.normals))
        same_edge = np.array(
            [
                square_grid.segment_id[(i - 1) % 400] == square_grid.segment_id[(i + 1) % 400]
                for i in range(400)
            ]
        )
        assert dots[same_edge].max() < 1e-12

    def test_star_weights_match_arc_length_jacobian(self):
        grid = make_boundary_grid(STAR, 400)
        theta = np.arange(400) * 2 * math.pi / 400
        r = STAR.outer.radius(theta)
        dr = STAR.outer.radius_prime(theta)
        expected = (2 * math.pi / 400) * np.hypot(r, dr)
        np.testing.assert_allclose(grid.weights, expected, rtol=1e-13)

    def test_negative_radius_rejected(self):
        with pytest.raises(InvalidDomainError):
            DomainSpec.polar(0.1, [PolarTerm("sin", 0.5, 3)])

    @settings(max_examples=25, deadline=None)
    @given(
        base=st.floats(0.4, 1.2),
        amp=st.floats(0.0, 0.25),
        freq=st.integers(1, 6),
        kind=st.sampled_from(["sin", "cos"]),
    )
    def test_random_curves_have_unit_normals_and_positive_weights(self, base, amp, freq, kind):
        spec = DomainSpec.polar(base, [PolarTerm(kind, min(amp, 0.6 * base), freq)])
        grid = make_boundary_grid(spec, 64)
        assert np.abs(np.linalg.norm(grid.normals, axis=1) - 1).max() < 1e-12
        assert (grid.weights > 0).all()


class TestAnnulusGrid:
    def test_split_and_orientation(self):
        outer = PolarCurve(0.8, (PolarTerm("sin", 0.1, 2),))
        inner = PolarCurve(0.3, (PolarTerm("sin", 0.05, 2), PolarTerm("sin", 0.03, 3)))
        spec = DomainSpec.multi_loop(outer, inner)
        grid = make_boundary_grid(spec, 400)
        assert grid.n_points == 400
        n_outer = sum(1 for s in grid.segment_id if s == "outer")
        assert 250 < n_outer < 320  # proportional to loop length
        # inner-loop normals point toward the hole (inward radially)
        idx = [i for i, s in enumerate(grid.segment_id) if s == "inner"]
        radial = grid.points[idx] / np.linalg.norm(grid.points[idx], axis=1, keepdims=True)
        assert (np.einsum("ij,ij->i", radial, grid.normals[idx]) < 0).all()

    def test_inner_must_be_inside_outer(self):
        with pytest.raises(InvalidDomainError):
            DomainSpec.multi_loop(PolarCurve(0.5), PolarCurve(0.7))


class TestDomainPayload:
    @pytest.mark.parametrize(
        "spec",
        [
            DomainSpec.unit_square(),
            STAR,
            DomainSpec.multi_loop(
                PolarCurve(1.0, (PolarTerm("cos", 0.1, 3),), (0.2, -0.1)), PolarCurve(0.4)
            ),
            DomainSpec.sphere((0.5, 0.0, -1.0), 2.0),
        ],
        ids=lambda spec: spec.shape,
    )
    def test_json_round_trip(self, spec):
        payload = json.loads(json.dumps(spec.to_payload()))
        assert payload["shape"] == spec.shape
        assert DomainSpec.from_payload(payload) == spec

    def test_unknown_shape_rejected(self):
        with pytest.raises(InvalidDomainError):
            DomainSpec.from_payload({"shape": "torus"})


class TestSphereGrid:
    def test_fibonacci_lattice(self):
        spec = DomainSpec.sphere(radius=2.0)
        grid = make_boundary_grid(spec, 1200)
        r = np.linalg.norm(grid.points, axis=1)
        np.testing.assert_allclose(r, 2.0, rtol=1e-12)
        assert grid.weights.sum() == pytest.approx(4 * math.pi * 4.0, rel=1e-12)
        np.testing.assert_allclose(
            np.einsum("ij,ij->i", grid.points / 2.0, grid.normals), 1.0, rtol=1e-12
        )


class TestContains:
    @pytest.mark.parametrize(
        "p,expected",
        [((0.5, 0.5), True), ((1.5, 0.5), False), ((0.0, 0.5), False)],
    )
    def test_square(self, square, p, expected):
        assert contains(square, p) is expected

    def test_circle(self):
        circ = DomainSpec.polar(1.0)
        assert contains(circ, (0.99, 0.0)) is True
        assert contains(circ, (1.01, 0.0)) is False

    def test_annulus_hole_excluded(self):
        spec = DomainSpec.multi_loop(PolarCurve(1.0), PolarCurve(0.4))
        assert contains(spec, (0.7, 0.0)) is True
        assert contains(spec, (0.1, 0.0)) is False

    def test_boundary_distance_square(self, square):
        assert boundary_distance(square, (0.5, 0.5)) == pytest.approx(0.5)
        assert boundary_distance(square, (1.2, 0.5)) == pytest.approx(0.2)
        assert boundary_distance(square, (-0.3, -0.4)) == pytest.approx(0.5)

    def test_boundary_distance_polar_and_sphere(self):
        circ = DomainSpec.polar(1.0)
        assert boundary_distance(circ, (0.0, 0.0)) == pytest.approx(1.0, abs=1e-5)
        assert boundary_distance(circ, (2.0, 0.0)) == pytest.approx(1.0, abs=1e-5)
        sph = DomainSpec.sphere(radius=2.0)
        assert boundary_distance(sph, (0.0, 0.0, 0.0)) == pytest.approx(2.0)
        assert boundary_distance(sph, (3.0, 0.0, 0.0)) == pytest.approx(1.0)


class TestTriangulateSquare:
    @pytest.mark.parametrize("h,n_expected", [(0.5, 8), (0.02, 5000), (0.01, 20000)])
    def test_counts(self, h, n_expected):
        mesh = triangulate_square(h)
        assert mesh.n_triangles == n_expected

    def test_area_conservation(self):
        for h in (0.5, 0.07, 0.02):
            mesh = triangulate_square(h)
            assert abs(mesh.areas().sum() - 1.0) < 1e-10
            assert (mesh.areas() > 0).all()

    def test_h_out_of_range(self):
        with pytest.raises(InvalidDomainError):
            triangulate_square(0.0)
        with pytest.raises(InvalidDomainError):
            triangulate_square(1.5)

    @pytest.mark.parametrize("h", [0.5, 0.1, 0.02, 0.013, 0.01])
    def test_triangles_equal_the_per_cell_loop(self, h):
        mesh = triangulate_square(h)
        m = math.ceil(1.0 / h)
        ref = np.empty((2 * m * m, 3), dtype=int)  # the former double loop
        k = 0
        for i in range(m):
            for j in range(m):
                v00, v10 = i * (m + 1) + j, (i + 1) * (m + 1) + j
                v01, v11 = v00 + 1, v10 + 1
                ref[k], ref[k + 1] = (v00, v10, v11), (v00, v11, v01)
                k += 2
        np.testing.assert_array_equal(mesh.triangles, ref)
        assert mesh.triangles.dtype == ref.dtype


class TestTrimeshFromCsv:
    def test_clockwise_rows_are_normalized(self):
        mesh = trimesh_from_csv("x1,y1,x2,y2,x3,y3\n0,0,1,1,1,0\n0,0,1,1,0,1\n")
        assert (mesh.areas() > 0).all()
        np.testing.assert_array_equal(mesh.corner_arrays()[1], [[1.0, 0.0], [1.0, 1.0]])

    @pytest.mark.parametrize("mesh", [
        triangulate_square(0.25),
        TriMesh(np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 0.5]]), np.array([[0, 1, 3], [3, 2, 1]])),
    ], ids=["square", "one_clockwise"])
    def test_csv_round_trip_up_to_permutation(self, mesh):
        again = trimesh_from_csv(mesh.to_csv())

        def tri_set(m):
            return {tuple(sorted(map(tuple, tri))) for tri in np.stack(m.corner_arrays(), axis=1)}

        assert tri_set(again) == tri_set(mesh)
        assert (again.areas() > 0).all()

    def test_missing_header_refused(self):
        rows = triangulate_square(0.5).to_csv().splitlines()
        with pytest.raises(MshParseError, match=r"^line 1: expected triangle CSV header$"):
            trimesh_from_csv("\n".join(rows[1:]))

    def test_wrong_coordinate_count_names_its_line(self):
        rows = triangulate_square(0.5).to_csv().splitlines()
        rows[2] += ",0.5"
        with pytest.raises(MshParseError, match=r"^line 3: 7 coordinates, expected 6$"):
            trimesh_from_csv("\n".join(rows))

    @pytest.mark.parametrize("value,message", [
        ("nan", "non-finite value nan"), ("inf", "non-finite value inf"), ("-inf", "non-finite value -inf"),
        ("abc", "could not convert string to float: 'abc'"),
    ], ids=["nan", "inf", "-inf", "abc"])
    def test_non_finite_coordinate_refused(self, value, message):
        rows = triangulate_square(0.5).to_csv().splitlines()
        rows[1] = ",".join([value, *rows[1].split(",")[1:]])
        with pytest.raises(MshParseError, match=f"^line 2: {re.escape(message)}$"):
            trimesh_from_csv("\n".join(rows))


def _reference_locate(mesh, pts):
    """Per-point loop of the former CLI interpolant: first triangle whose
    barycentric coordinates are all >= -1e-12."""
    a, b, c = mesh.corner_arrays()
    det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1])
    tri = np.full(len(pts), -1)
    bary = np.zeros((len(pts), 3))
    for i, p in enumerate(pts):
        l1 = ((b[:, 0] - p[0]) * (c[:, 1] - p[1]) - (c[:, 0] - p[0]) * (b[:, 1] - p[1])) / det
        l2 = ((c[:, 0] - p[0]) * (a[:, 1] - p[1]) - (a[:, 0] - p[0]) * (c[:, 1] - p[1])) / det
        l3 = 1.0 - l1 - l2
        ok = (l1 >= -1e-12) & (l2 >= -1e-12) & (l3 >= -1e-12)
        if ok.any():
            t = int(np.argmax(ok))
            tri[i] = t
            bary[i] = (l1[t], l2[t], l3[t])
    return tri, bary


def _reference_boundary_distance(mesh, pts):
    """Per-point loop of the former Newton-potential helper."""
    t = mesh.triangles
    edges = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    _, idx, counts = np.unique(np.sort(edges, axis=1), axis=0, return_index=True, return_counts=True)
    edges = edges[idx[counts == 1]]
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


# One triangle of the 2 x 1 rectangle is written clockwise.
FLIPPED_CSV = """x1,y1,x2,y2,x3,y3
0,0,2,0,1,0.5
1,0.5,2,1,2,0
2,1,0,1,1,0.5
0,1,0,0,1,0.5
"""


class TestMeshLocator:
    def test_located_points_on_the_square_mesh(self):
        mesh = triangulate_square(0.1)
        pts = np.array([
            [0.0, 0.0],  # vertex of triangles 0 and 1 (and no other)
            [0.05, 0.05],  # on the diagonal shared by triangles 0 and 1
            [0.35, 0.35],  # on a diagonal and three cells in
            [0.05, 0.0],  # on the outer edge
            [0.05, 1e-9],  # just inside
            [0.05, -1e-9],  # just outside
            [1.0 + 1e-9, 0.5],
            [5.0, -3.0],  # far outside
        ])
        tri, bary = mesh.locate(pts)
        np.testing.assert_array_equal(tri, [0, 0, 66, 0, 0, -1, -1, -1])
        np.testing.assert_array_equal(bary[0], [1.0, 0.0, 0.0])
        np.testing.assert_array_equal(bary[5:], 0.0)
        a, b, c = mesh.corner_arrays()
        held = tri >= 0
        corners = np.stack([a[tri[held]], b[tri[held]], c[tri[held]]], axis=1)
        np.testing.assert_allclose(np.einsum("ik,ikd->id", bary[held], corners), pts[held], atol=1e-15)

    @pytest.mark.parametrize("mesh", [triangulate_square(0.1), trimesh_from_csv(FLIPPED_CSV)], ids=["square", "flipped"])
    def test_matches_the_reference_loops(self, mesh):
        rng = np.random.default_rng(11)
        lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
        a, b, c = mesh.corner_arrays()
        edge_points = 0.5 * (a + b)
        pts = np.vstack([
            rng.uniform(lo - 0.2, hi + 0.2, size=(5000, 2)),
            mesh.vertices,
            edge_points,
            edge_points + [0.0, 1e-9],
            edge_points - [0.0, 1e-9],
            [[50.0, 50.0], [-7.0, 0.3]],
        ])
        tri, bary = mesh.locate(pts)
        ref_tri, ref_bary = _reference_locate(mesh, pts)
        np.testing.assert_array_equal(tri, ref_tri)
        np.testing.assert_array_equal(bary, ref_bary)
        held = tri >= 0
        assert held.any() and not held.all()
        np.testing.assert_allclose(bary[held].sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
        np.testing.assert_array_equal(bary[~held], 0.0)
        assert mesh.boundary_distance(pts).tobytes() == _reference_boundary_distance(mesh, pts).tobytes()

    def test_locate_rows_are_cached_read_only(self):
        mesh = trimesh_from_csv(FLIPPED_CSV)
        pts = np.array([[1.8, 0.5], [1.0, 0.5], [0.2, 0.9], [2.5, 0.5], [1.0, 0.0]])
        want = _reference_locate(mesh, pts)
        rows = mesh._locate_rows
        assert rows is mesh._locate_rows and not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 1.0
        for _ in range(2):  # the rows are built on the first call and reused
            for got, ref in zip(mesh.locate(pts), want):
                np.testing.assert_array_equal(got, ref)
        singles = [mesh.locate(p) for p in pts]
        np.testing.assert_array_equal(np.concatenate([t for t, _ in singles]), want[0])
        np.testing.assert_array_equal(np.vstack([b for _, b in singles]), want[1])

    def test_flipped_triangle_is_located(self):
        mesh = trimesh_from_csv(FLIPPED_CSV)
        tri, bary = mesh.locate(np.array([[1.8, 0.5], [1.0, 0.5]]))
        assert tri[0] == 1
        assert (bary[0] > 0.0).all()
        assert tri[1] == 0  # the shared centre vertex: the first triangle wins
        np.testing.assert_allclose(bary[1], [0.0, 0.0, 1.0], atol=1e-15)


# Signed zero, subnormals, the largest finite float and infinities.
ODD_VALUES = np.array([-0.0, 5e-324, -2.2250738585072014e-308, 1e308, np.inf, -np.inf, 0.1 + 0.2, 1.0])


class TestCsvBytes:
    """The writers emit the bytes of the ``csv.writer`` loops they replaced."""

    def test_trimesh_matches_csv_writer(self):
        def reference(mesh):
            buf = io.StringIO()
            w = csv.writer(buf)
            w.writerow(["x1", "y1", "x2", "y2", "x3", "y3"])
            a, b, c = mesh.corner_arrays()
            for i in range(mesh.n_triangles):
                w.writerow([repr(float(v)) for v in (*a[i], *b[i], *c[i])])
            return buf.getvalue()

        odd = TriMesh(ODD_VALUES.reshape(4, 2), np.array([[0, 1, 2], [1, 2, 3]]))
        for mesh in (triangulate_square(0.1), odd):
            assert mesh.to_csv() == reference(mesh)

    @pytest.mark.parametrize("line, edit", [
        (3, lambda row: ""),
        (2, lambda row: row.replace("0.0", "nan", 1)),
        (3, lambda row: row.rsplit(",", 1)[0]),
        (2, lambda row: row + ",x"),
    ], ids=["blank", "nan", "short", "non-numeric"])
    def test_trimesh_reader_names_the_bad_line(self, line, edit):
        rows = triangulate_square(0.5).to_csv().splitlines()
        rows[line - 1] = edit(rows[line - 1])
        with pytest.raises(ValueError, match=f"^line {line}: "):
            trimesh_from_csv("\n".join(rows))


def test_grid_arrays_read_only(square_grid):
    with pytest.raises(ValueError):
        square_grid.points[0, 0] = 5.0


def test_stored_arrays_are_read_only_views_of_the_callers():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    t = np.array([[0, 1, 2]])
    pts, nrm, w = np.zeros((2, 2)), np.ones((2, 2)), np.ones(2)
    mesh = TriMesh(v, t)
    grid = BoundaryGrid(pts, nrm, w, ("G1", "G1"), DomainSpec.unit_square())
    pairs = [(v, mesh.vertices), (t, mesh.triangles), (pts, grid.points), (nrm, grid.normals),
             (w, grid.weights)]
    for mine, stored in pairs:
        assert mine.flags.writeable and not stored.flags.writeable
        assert np.shares_memory(mine, stored)
    v[0, 0] = 0.5  # the caller keeps a writable array
    assert mesh.vertices[0, 0] == 0.5
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 1.0
