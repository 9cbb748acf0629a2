import math

import numpy as np
import pytest

from oracles import duffy_triangle_integral, log_square_integral_oracle
from tracemap.geometry import _PAIR_BLOCK, DomainSpec, make_boundary_grid, triangulate_square
from tracemap.kernels import _BLOCK, KernelSpec, SingularEvaluationError, kernel_matrix, kernel_normal_matrix
from tracemap.quadrature import (
    _ROWS,
    BoundaryReconstructor,
    DegenerateTriangleError,
    integrate_mesh,
    integrate_triangle,
    mesh_quadrature_nodes,
    _NODES,
    _WEIGHTS,
    newton_potential_many,
    singular_log_integral,
)

# Frozen closed forms, confirmed by the adaptive polar-splitting oracle
# (tests/oracles.py) to 12+ digits.
LOG_CORNER = math.log(2.0) + math.pi / 2.0 - 3.0
LOG_CENTER = math.pi / 2.0 - math.log(2.0) - 3.0

LAPLACE = KernelSpec("laplace2d")


class TestSevenPointRule:
    def test_weights_sum_to_one(self):
        assert _WEIGHTS.sum() == pytest.approx(1.0, abs=1e-15)
        assert _NODES.shape == (7, 3)
        np.testing.assert_allclose(_NODES.sum(axis=1), 1.0, atol=1e-15)

    def test_constant_over_unit_right_triangle(self):
        v = integrate_triangle(lambda p: np.ones(len(p)), (0, 0), (1, 0), (0, 1))
        assert v == pytest.approx(0.5, abs=1e-15)

    def test_linear_monomial(self):
        v = integrate_triangle(lambda p: p[:, 0], (0, 0), (1, 0), (0, 1))
        assert v == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_degree_five_monomial_exact(self):
        v = integrate_triangle(lambda p: p[:, 0] ** 5, (0, 0), (1, 0), (0, 1))
        assert v == pytest.approx(1.0 / 42.0, abs=1e-14)

    def test_degree_five_exactness_on_random_triangles(self, rng):
        def cross2(u, v):
            return u[0] * v[1] - u[1] * v[0]

        for _ in range(20):
            tri = rng.uniform(-2, 2, size=(3, 2))
            while abs(cross2(tri[1] - tri[0], tri[2] - tri[0])) < 0.1:
                tri = rng.uniform(-2, 2, size=(3, 2))
            for a in range(6):
                for b in range(6 - a):
                    f = lambda p, a=a, b=b: p[:, 0] ** a * p[:, 1] ** b
                    mine = integrate_triangle(f, *tri)
                    ref = duffy_triangle_integral(f, *tri)
                    assert abs(mine - ref) <= 1e-12 * max(abs(ref), 1e-3)

    def test_degree_six_not_exact(self):
        # sanity: the rule is degree 5, not higher
        f = lambda p: p[:, 0] ** 6
        mine = integrate_triangle(f, (0, 0), (1, 0), (0, 1))
        assert abs(mine - 1.0 / 56.0) > 1e-8

    def test_degenerate_triangle_rejected(self):
        with pytest.raises(DegenerateTriangleError):
            integrate_triangle(lambda p: np.ones(len(p)), (0, 0), (1, 1), (2, 2))

    def test_degeneracy_is_judged_relative_to_the_triangle_size(self):
        one = lambda p: np.ones(len(p))
        # well shaped at 1e-7 scale: its area 4e-15 is below any fixed 1e-14 cut
        assert integrate_triangle(one, (0, 0), (1e-7, 0), (0.5e-7, 0.8e-7)) == pytest.approx(4e-15, rel=1e-12)
        # a sliver of area 1000 whose height is 5e-16 of its 2e9 length
        with pytest.raises(DegenerateTriangleError, match="^mesh contains a degenerate triangle$"):
            integrate_triangle(one, (0, 0), (2e9, 0), (1e9, 1e-6))

    def test_equals_the_former_single_triangle_formula(self, rng):
        def reference(f, v1, v2, v3):  # the affine map integrate_triangle did before
            v = np.array([v1, v2, v3], dtype=float)
            jac = (v[1, 0] - v[0, 0]) * (v[2, 1] - v[0, 1]) - (v[2, 0] - v[0, 0]) * (v[1, 1] - v[0, 1])
            return 0.5 * abs(jac) * float(_WEIGHTS @ f(_NODES @ v))

        funcs = [lambda p: np.exp(p[:, 0]) * (2.0 + np.cos(3.0 * p[:, 1])), lambda p: 1.0 + p[:, 0] ** 4 + p[:, 1] ** 2,
                 lambda p: np.log(1.0 + p[:, 0] ** 2 + p[:, 1] ** 2)]
        for _ in range(40):
            tri = rng.uniform(-2, 2, size=(3, 2))  # either orientation
            for f in funcs:
                ref = reference(f, *tri)
                assert abs(integrate_triangle(f, *tri) - ref) <= 1e-12 * abs(ref)


class TestIntegrateMesh:
    def test_constant(self):
        mesh = triangulate_square(0.1)
        assert integrate_mesh(lambda p: np.ones(len(p)), mesh) == pytest.approx(1.0, abs=1e-12)

    def test_linear(self):
        mesh = triangulate_square(0.1)
        v = integrate_mesh(lambda p: p[:, 0] + p[:, 1], mesh)
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_sin_sin_closed_form(self):
        mesh = triangulate_square(0.02)
        v = integrate_mesh(lambda p: np.sin(p[:, 0]) * np.sin(p[:, 1]), mesh)
        assert v == pytest.approx((1 - math.cos(1.0)) ** 2, abs=1e-8)


def _reference_newton(f, mesh, xs, r0):
    """Per-point loop of the former newton_potential_many."""
    pts, w = mesh_quadrature_nodes(mesh)
    fvals = np.asarray(f(pts), dtype=float)
    dist = mesh.boundary_distance(xs)
    inside = (mesh.locate(xs)[0] >= 0) & (dist > 1e-12)
    disc = -2.0 * math.pi * (0.5 * r0 * r0 * math.log(r0) - 0.25 * r0 * r0) / (2.0 * math.pi)
    values = np.empty(len(xs))
    flags = np.zeros(len(xs), dtype=bool)
    for i, x in enumerate(xs):
        r = np.hypot(pts[:, 0] - x[0], pts[:, 1] - x[1])
        keep = r >= r0
        g = -np.log(r[keep]) / (2.0 * math.pi)
        total = float(np.dot(w[keep], g * fvals[keep]))
        if inside[i]:
            total += float(np.asarray(f(x[None, :]), dtype=float)[0]) * disc
            flags[i] = dist[i] <= r0
        values[i] = total
    return values, flags


class TestNewtonPotential:
    def test_zero_source(self):
        mesh = triangulate_square(0.1)
        v, _ = newton_potential_many(LAPLACE, lambda p: np.zeros(len(p)), mesh, [(0.4, 0.6)])
        assert v[0] == 0.0

    def test_oracle_confirms_frozen_references(self):
        assert log_square_integral_oracle((0.0, 0.0)) == pytest.approx(LOG_CORNER, abs=1e-12)
        assert log_square_integral_oracle((0.5, 0.5)) == pytest.approx(LOG_CENTER, abs=1e-12)

    @pytest.mark.parametrize(
        "x0,ref", [((0.0, 0.0), LOG_CORNER), ((0.5, 0.5), LOG_CENTER)]
    )
    def test_singular_log_benchmark_h02(self, x0, ref):
        mesh = triangulate_square(0.02)
        v = singular_log_integral(mesh, x0, 0.01)
        assert abs(v - ref) / abs(ref) <= 5e-4

    def test_newton_matches_log_benchmark_scaling(self):
        # int G f with f = 1 is the log benchmark scaled by -1/(4 pi)
        mesh = triangulate_square(0.05)
        v, _ = newton_potential_many(LAPLACE, lambda p: np.ones(len(p)), mesh, [(0.5, 0.5)])
        ref = -LOG_CENTER / (4.0 * math.pi)
        assert v[0] == pytest.approx(ref, rel=2e-3)

    def test_refinement_convergence_for_shifted_kernel(self):
        # Error decreases monotonically while h dominates; below h ~ 5 r0
        # the O(r0^2 |log r0|) node-vs-disc mismatch floor (~1e-4 relative)
        # takes over, so the finest levels are bound-checked instead.
        ref = LOG_CENTER
        err = {}
        for h in (0.2, 0.1, 0.05, 0.02):
            mesh = triangulate_square(h)
            v = singular_log_integral(mesh, (0.5, 0.5), 0.01)
            err[h] = abs(v - ref) / abs(ref)
        assert err[0.2] > err[0.1] > err[0.05]
        assert err[0.05] <= 5e-4
        assert err[0.02] <= 5e-4

    def test_smooth_mesh_integration_converges_monotonically(self):
        exact = (1 - math.cos(1.0)) ** 2
        errs = [
            abs(integrate_mesh(lambda p: np.sin(p[:, 0]) * np.sin(p[:, 1]), triangulate_square(h)) - exact)
            for h in (0.2, 0.1, 0.05)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_near_boundary_flagged(self):
        mesh = triangulate_square(0.1)
        vals, flags = newton_potential_many(
            LAPLACE, lambda p: np.ones(len(p)), mesh,
            np.array([[0.5, 0.5], [0.5, 0.005], [0.5, -0.5], [0.5, -5e-12]]),
        )
        assert not flags[0]
        assert flags[1]
        assert not flags[2]  # outside: no disc, no flag
        assert not flags[3]  # outside by more than the locator's barycentric tolerance
        assert np.isfinite(vals).all()

    def test_blocked_sum_matches_the_per_point_loop(self):
        mesh = triangulate_square(0.1)
        nodes, _ = mesh_quadrature_nodes(mesh)
        xs = np.vstack([
            np.random.default_rng(3).uniform(-0.1, 1.1, size=(150, 2)),
            nodes[[17, 500]],  # exactly on quadrature nodes
            [[0.5, 0.004], [0.003, 0.7], [0.999, 0.999]],  # within r0 of the boundary
            [[1.5, 0.5], [0.5, -0.2], [0.5, 0.0]],  # outside the mesh, on its boundary
        ])
        assert len(xs) > 3 * (_PAIR_BLOCK // len(nodes))  # several point blocks
        calls = []

        def f(p):
            calls.append(len(p))
            return 1.0 + np.sin(3.0 * p[:, 0]) * p[:, 1]

        want, want_flags = _reference_newton(f, mesh, xs, 0.01)
        calls.clear()
        got, flags = newton_potential_many(LAPLACE, f, mesh, xs)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        np.testing.assert_array_equal(flags, want_flags)
        np.testing.assert_array_equal(flags[-6:], [True, True, True, False, False, False])
        inside = (mesh.locate(xs)[0] >= 0) & (mesh.boundary_distance(xs) > 1e-12)
        assert calls == [len(nodes)] + [1] * int(inside.sum())
        assert inside[150:152].all() and not inside[-3:].any()

    def test_non_log_kernel_rejected(self):
        mesh = triangulate_square(0.2)
        with pytest.raises(ValueError):
            newton_potential_many(KernelSpec("helmholtz2d", 1.0), lambda p: np.ones(len(p)), mesh, [(0.5, 0.5)])


def double_layer_identity(kernel: KernelSpec, grid, x) -> complex:
    """Reconstruction of the constant-1 trace pair at ``x``: ~1 inside for
    Laplace, which pins the representation's sign convention."""
    rec = BoundaryReconstructor(kernel, grid, [x])
    return complex(rec.field(np.ones(grid.n_points), np.zeros(grid.n_points))[0])


class TestBoundaryWeights:
    def test_constant_on_square(self, square_grid):
        assert square_grid.weights @ np.ones(400) == pytest.approx(4.0, abs=1e-12)

    def test_constant_on_circle(self, circle_grid):
        assert circle_grid.weights @ np.ones(400) == pytest.approx(2 * math.pi, abs=1e-6)

    def test_cosine_cancels_on_circle(self, circle_grid):
        theta = np.arctan2(circle_grid.points[:, 1], circle_grid.points[:, 0])
        assert abs(circle_grid.weights @ np.cos(theta)) < 1e-10


class TestReconstruction:
    def test_double_layer_identity_on_square(self, square_grid):
        v = double_layer_identity(LAPLACE, square_grid, (0.5, 0.5))
        # midpoint-rule corner truncation leaves ~1e-5 at n=400; a denser
        # grid confirms quadratic convergence toward the exact identity
        assert v.real == pytest.approx(1.0, abs=2e-5)
        dense = make_boundary_grid(DomainSpec.unit_square(), 10_000)
        v10k = double_layer_identity(LAPLACE, dense, (0.5, 0.5))
        assert v10k.real == pytest.approx(1.0, abs=2e-8)
        assert abs(v10k.real - 1.0) < abs(v.real - 1.0) / 100

    def test_double_layer_identity_polar(self):
        grid = make_boundary_grid(DomainSpec.polar(1.0), 400)
        assert double_layer_identity(LAPLACE, grid, (0.2, -0.3)).real == pytest.approx(1.0, abs=1e-12)

    def test_linear_solution_at_center(self, square_grid):
        g = square_grid.points.sum(axis=1)
        h = square_grid.normals.sum(axis=1)
        v = BoundaryReconstructor(LAPLACE, square_grid, [(0.5, 0.5)]).field(g, h)[0]
        assert v == pytest.approx(1.0, abs=1e-4)

    def test_helmholtz_imaginary_part_vanishes(self, square_grid):
        k = 1.0
        a = math.sqrt(0.5)
        g = np.sin(a * square_grid.points[:, 0]) * np.sin(a * square_grid.points[:, 1])
        grad = np.column_stack(
            [
                a * np.cos(a * square_grid.points[:, 0]) * np.sin(a * square_grid.points[:, 1]),
                a * np.sin(a * square_grid.points[:, 0]) * np.cos(a * square_grid.points[:, 1]),
            ]
        )
        h = np.einsum("ij,ij->i", grad, square_grid.normals)
        v = BoundaryReconstructor(KernelSpec("helmholtz2d", k), square_grid, [(0.5, 0.5)]).field(g, h)[0]
        assert abs(v.imag) < 1e-3 * abs(v)
        assert v.real == pytest.approx(
            math.sin(a * 0.5) * math.sin(a * 0.5), rel=1e-3
        )

    def test_near_boundary_flagging(self, square_grid):
        # threshold is twice the minimum collocation spacing, which on the
        # square is the diagonal corner gap sqrt(2)/2 * 0.01
        rec = BoundaryReconstructor(LAPLACE, square_grid, [[0.5, 0.012], [0.5, 0.5]])
        assert rec.near_flags[0]
        assert not rec.near_flags[1]

    @pytest.mark.parametrize(
        "kernel",
        [LAPLACE, KernelSpec("helmholtz2d", 10.0), KernelSpec("helmholtz3d", 2.0)],
        ids=["laplace2d", "helmholtz2d", "helmholtz3d"],
    )
    def test_field_matches_separate_matrices_bitwise(self, kernel):
        if kernel.dimension == 3:
            grid = make_boundary_grid(DomainSpec.sphere(), 300)
            # 1021 interior points and 4 near ones: 5 streamed blocks of _ROWS, the last of one row
            inner = np.random.default_rng(11).normal(size=(1021, 3))
            inner *= np.random.default_rng(12).uniform(0.1, 0.5, (1021, 1)) / np.linalg.norm(inner, axis=1)[:, None]
            near = grid.points[[0, 50, 100, 150]] * (1.0 - 1e-3)
        else:
            grid = make_boundary_grid(DomainSpec.unit_square(), 40)
            # 45 x 45 grid points and 20 more: the helmholtz2d build takes 3 row blocks of _BLOCK // 40
            gx, gy = np.meshgrid(np.linspace(0.2, 0.8, 45), np.linspace(0.2, 0.8, 45))
            extra = np.random.default_rng(13).uniform(0.2, 0.8, (20, 2))
            inner = np.vstack([np.column_stack([gx.ravel(), gy.ravel()]), extra])
            near = [[0.003, 0.004], [0.5, 0.002], [0.998, 0.6], [0.513, 0.0]]  # corner, edges, on an edge
            assert len(inner) + len(near) > 2 * (_BLOCK // grid.n_points)
        pts = np.vstack([inner, near])
        assert len(pts) % _ROWS == 1  # the streamed field's last block has one row
        rec = BoundaryReconstructor(kernel, grid, pts)
        w = grid.weights[None, :]
        single = kernel_matrix(kernel, pts, grid.points) * w
        double = kernel_normal_matrix(kernel, pts, grid.points, grid.normals) * w
        if kernel.family == "helmholtz2d":  # the one family whose build keeps its matrices
            for got, want in ((rec.single, single), (rec.double, double)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()  # signed zeros too
        else:
            assert rec.single is None and rec.double is None
        rng = np.random.default_rng(14)
        for shape in ((grid.n_points,), (grid.n_points, 7)):
            g, h = rng.normal(size=shape), rng.normal(size=shape)
            got, want = rec.field(g, h), single @ h - double @ g
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
        rmin = np.array([np.sqrt(((grid.points - p) ** 2).sum(axis=1)).min() for p in pts])
        assert np.array_equal(rec.near_flags, rmin < 2.0 * grid.min_spacing())
        assert rec.near_flags[-len(near):].all() and not rec.near_flags[:-len(near)].any()
        with pytest.raises(SingularEvaluationError):  # coincident point in the last block
            BoundaryReconstructor(kernel, grid, np.vstack([pts, grid.points[7]]))
        with pytest.raises(ValueError, match="non-finite"):
            BoundaryReconstructor(kernel, grid, np.vstack([pts, np.full(kernel.dimension, np.nan)]))

    def test_trace_length_checked(self, square_grid):
        rec = BoundaryReconstructor(LAPLACE, square_grid, [[0.5, 0.5]])
        with pytest.raises(ValueError):
            rec.field(np.ones(399), np.zeros(400))
