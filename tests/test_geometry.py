import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracemap.geometry import (
    DomainSpec,
    InvalidDomainError,
    MshParseError,
    PolarCurve,
    PolarTerm,
    boundary_distance,
    contains,
    make_boundary_grid,
    parse_msh,
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


MINIMAL_MSH = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0 0 0
2 1 0 0
3 1 1 0
4 0 1 0
$EndNodes
$Elements
3
1 1 2 0 1 1 2
2 2 2 0 1 1 2 3
3 2 2 0 1 1 3 4
$EndElements
"""


class TestMshParser:
    def test_minimal_square(self):
        mesh = parse_msh(MINIMAL_MSH)
        assert mesh.n_triangles == 2
        assert mesh.areas().sum() == pytest.approx(1.0)

    def test_negative_orientation_normalized(self):
        flipped = MINIMAL_MSH.replace("2 2 2 0 1 1 2 3", "2 2 2 0 1 1 3 2")
        mesh = parse_msh(flipped)
        assert (mesh.areas() > 0).all()

    def test_quad_element_skipped(self):
        with_quad = MINIMAL_MSH.replace(
            "$Elements\n3\n", "$Elements\n4\n4 3 2 0 1 1 2 3 4\n"
        )
        mesh = parse_msh(with_quad)
        assert mesh.n_triangles == 2

    def test_dangling_node_reference(self):
        bad = MINIMAL_MSH.replace("2 2 2 0 1 1 2 3", "2 2 2 0 1 1 2 99")
        with pytest.raises(MshParseError, match=r"line \d+.*99"):
            parse_msh(bad)

    def test_non_numeric_token(self):
        bad = MINIMAL_MSH.replace("2 1 0 0", "2 x 0 0")
        with pytest.raises(MshParseError, match="line 7"):
            parse_msh(bad)

    def test_missing_end_marker(self):
        bad = MINIMAL_MSH.replace("$EndNodes", "$Oops")
        with pytest.raises(MshParseError):
            parse_msh(bad)

    def test_csv_round_trip_up_to_permutation(self):
        mesh = parse_msh(MINIMAL_MSH)
        again = trimesh_from_csv(mesh.to_csv())
        def tri_set(m):
            a, b, c = m.corner_arrays()
            return {
                tuple(sorted(map(tuple, tri))) for tri in np.stack([a, b, c], axis=1)
            }
        assert tri_set(mesh) == tri_set(again)


def test_boundary_grid_csv_has_documented_header(square_grid):
    text = square_grid.to_csv()
    assert text.splitlines()[0] == "x,y,nx,ny,weight,segment"
    assert len(text.splitlines()) == 401


def test_grid_arrays_read_only(square_grid):
    with pytest.raises(ValueError):
        square_grid.points[0, 0] = 5.0
