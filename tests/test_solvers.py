import math

import numpy as np
import pytest

from tracemap.geometry import (
    DomainSpec,
    InvalidDomainError,
    contains,
    make_boundary_grid,
    triangulate_square,
)
from tracemap.kernels import KernelSpec
from tracemap.operator import (
    LayoutError,
    dirichlet_layouts,
    fit_least_squares,
    mixed_layouts,
    training_arrays,
)
from tracemap.quadrature import BoundaryReconstructor
from tracemap.solvers import (
    SolutionField,
    UndefinedMetricError,
    evaluate_suite,
    make_eval_grid,
    make_test_suite,
    plane_wave_3d,
    poisson_cases,
    predict_normal_derivative_3d,
    relative_l2,
    solve_dirichlet,
    solve_helmholtz,
    solve_mixed,
    solve_poisson,
)
from tracemap.synthesis import DatasetSpec, build_dataset

SQUARE = DomainSpec.unit_square()
LAPLACE = KernelSpec("laplace2d")

N_SMALL = 120  # desk-size grids are exercised in the acceptance suite


@pytest.fixture(scope="module")
def small_grid():
    return make_boundary_grid(SQUARE, N_SMALL)


@pytest.fixture(scope="module")
def small_laplace(small_grid):
    spec = DatasetSpec(
        kernel=LAPLACE, domain=SQUARE, n_points=N_SMALL, n_samples=400, seed=11
    )
    ds = build_dataset(spec, small_grid)
    inp, out = dirichlet_layouts(N_SMALL)
    return ds, fit_least_squares(ds.g_rows, ds.h_rows, inp, out)


@pytest.fixture(scope="module")
def eval_pts():
    return make_eval_grid(SQUARE, 40, margin=0.05)


@pytest.fixture(scope="module")
def lap_rec(small_grid, eval_pts):
    return BoundaryReconstructor(LAPLACE, small_grid, eval_pts)


class TestRelativeL2:
    def test_identical(self):
        assert relative_l2([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_double(self):
        assert relative_l2(2 * np.array([3.0, -4.0]), [3.0, -4.0]) == pytest.approx(1.0)

    def test_zero_prediction(self):
        assert relative_l2([0.0, 0.0], [3.0, 4.0]) == pytest.approx(1.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(UndefinedMetricError):
            relative_l2([1.0], [0.0])


class TestEvalGrid:
    def test_masked_inside(self):
        pts = make_eval_grid(SQUARE, 30)
        assert contains(SQUARE, pts).all()
        assert len(pts) == 900

    def test_margin_exclusion(self):
        pts = make_eval_grid(SQUARE, 50, margin=0.05)
        assert pts[:, 0].min() >= 0.05 and pts[:, 0].max() <= 0.95

    def test_polar_domain_masked(self):
        circ = DomainSpec.polar(1.0)
        pts = make_eval_grid(circ, 40)
        assert contains(circ, pts).all()

    def test_3d_domain_refused(self):
        with pytest.raises(InvalidDomainError, match="^an evaluation grid needs a 2-D domain, got 'sphere3d'$"):
            make_eval_grid(DomainSpec.sphere())

    @pytest.mark.parametrize("margin", [np.nan, np.inf, -np.inf, -0.01])
    def test_bad_margin_refused(self, margin):
        with pytest.raises(ValueError, match="^margin must be finite and non-negative"):
            make_eval_grid(SQUARE, 30, margin=margin)

    def test_margin_that_leaves_no_point_refused(self):
        assert len(make_eval_grid(SQUARE, 30, margin=0.46)) == 4
        with pytest.raises(ValueError, match="^margin 0.5 leaves no evaluation points$"):
            make_eval_grid(SQUARE, 30, margin=0.5)


class TestSolveDirichlet:
    def test_log_kernel_case(self, small_grid, small_laplace, lap_rec):
        _, op = small_laplace
        suite = make_test_suite("u1", SQUARE, seed=3, n_cases=1)
        case = suite[0]
        fld = solve_dirichlet(op, lap_rec, case.dirichlet(small_grid), exact=case.u)
        assert fld.relative_l2 < 5e-3
        assert relative_l2(fld.h_trace, case.neumann(small_grid)) < 5e-2

    def test_constant_data_maps_to_constant_field(self, small_laplace, lap_rec):
        # anchoring sends constant input to the zero vector, so the
        # predicted Neumann trace is exactly zero and the field is the
        # double-layer constant
        _, op = small_laplace
        fld = solve_dirichlet(op, lap_rec, np.full(N_SMALL, 7.0))
        np.testing.assert_array_equal(fld.h_trace, np.zeros(N_SMALL))
        assert np.abs(fld.pred.real - 7.0).max() < 7.0 * 1e-2

    def test_scale_equivariance_exact(self, small_grid, small_laplace, lap_rec):
        _, op = small_laplace
        case = make_test_suite("u2", SQUARE, seed=5, n_cases=1)[0]
        g = case.dirichlet(small_grid)
        f1 = solve_dirichlet(op, lap_rec, g)
        f3 = solve_dirichlet(op, lap_rec, 3.0 * g)
        np.testing.assert_allclose(f3.pred, 3.0 * f1.pred, rtol=1e-12)

    def test_size_mismatch(self, small_laplace, lap_rec):
        _, op = small_laplace
        with pytest.raises(LayoutError):
            solve_dirichlet(op, lap_rec, np.ones(N_SMALL + 1))

    def test_h_trace_is_one_apply_of_the_anchored_data(self, small_grid, small_laplace, lap_rec):
        _, op = small_laplace
        for case in make_test_suite("u3", SQUARE, seed=4, n_cases=3):
            g = case.dirichlet(small_grid)
            fld = solve_dirichlet(op, lap_rec, g)
            assert fld.h_trace.tobytes() == op.apply(g - g[0]).tobytes()
            assert fld.g_trace.tobytes() == g.tobytes()

    def test_operator_for_another_layout_refused(self, lap_rec, mixed_setup):
        with pytest.raises(LayoutError, match="another grid size or boundary partition"):
            solve_dirichlet(mixed_setup, lap_rec, np.ones(N_SMALL))


@pytest.fixture(scope="module")
def mixed_setup(small_grid, small_laplace):
    ds, _ = small_laplace
    inp, out = mixed_layouts(small_grid, {"G1"})
    X, T = training_arrays(ds.g_rows, ds.h_rows, inp, out, ds.spec.kernel.anchored)
    return fit_least_squares(X, T, inp, out)


@pytest.fixture(scope="module")
def helm_setup(small_grid):
    k = 2.0
    spec = DatasetSpec(
        kernel=KernelSpec("helmholtz2d", k), domain=SQUARE,
        n_points=N_SMALL, n_samples=400, seed=13,
    )
    ds = build_dataset(spec, small_grid)
    inp, out = dirichlet_layouts(N_SMALL)
    return k, fit_least_squares(ds.g_rows, ds.h_rows, inp, out)


@pytest.fixture(scope="module")
def helm_rec(small_grid, helm_setup, eval_pts):
    k, _ = helm_setup
    return BoundaryReconstructor(KernelSpec("helmholtz2d", k), small_grid, eval_pts)


@pytest.mark.parametrize("solver", ["helmholtz", "mixed", "poisson"])
def test_reconstructor_of_another_kernel_family_refused(solver, small_laplace, mixed_setup, lap_rec, helm_rec):
    _, op = small_laplace
    g, h = np.ones(N_SMALL), np.zeros(N_SMALL)
    if solver == "helmholtz":
        with pytest.raises(ValueError, match="^solve_helmholtz needs a helmholtz2d reconstructor, got "):
            solve_helmholtz(op, lap_rec, g)
    elif solver == "mixed":
        with pytest.raises(ValueError, match="^solve_mixed needs a laplace2d reconstructor, got "):
            solve_mixed(mixed_setup, helm_rec, {"G1"}, g, h)
    else:
        with pytest.raises(ValueError, match="^the Newton potential is implemented for the 2D log kernel$"):
            solve_poisson(op, lambda p: np.zeros(len(p)), g, triangulate_square(0.5), helm_rec)


class TestSolveMixed:
    def test_known_slots_pass_through_verbatim(self, small_grid, mixed_setup, lap_rec):
        op = mixed_setup
        case = make_test_suite("u5", SQUARE, seed=0, n_cases=1)[0]
        g, h = case.dirichlet(small_grid), case.neumann(small_grid)
        fld = solve_mixed(op, lap_rec, {"G1"}, g, h, exact=case.u)
        idx_d = small_grid.segment_indices("G1")
        idx_n = [i for i in range(N_SMALL) if i not in set(idx_d.tolist())]
        np.testing.assert_array_equal(fld.g_trace[idx_d], g[idx_d])
        np.testing.assert_array_equal(fld.h_trace[idx_n], h[idx_n])

    def test_recovers_complementary_traces(self, small_grid, mixed_setup, lap_rec):
        op = mixed_setup
        case = make_test_suite("u4", SQUARE, seed=8, n_cases=1)[0]
        g, h = case.dirichlet(small_grid), case.neumann(small_grid)
        fld = solve_mixed(op, lap_rec, {"G1"}, g, h, exact=case.u)
        assert relative_l2(fld.g_trace, g) < 2e-2
        assert relative_l2(fld.h_trace, h) < 5e-2
        assert fld.relative_l2 < 5e-2

    def test_wrong_partition_rejected(self, mixed_setup, lap_rec):
        with pytest.raises(LayoutError):
            solve_mixed(mixed_setup, lap_rec, {"G2"}, np.ones(N_SMALL), np.zeros(N_SMALL))

    @pytest.mark.parametrize("n_g, n_h", [(N_SMALL + 50, N_SMALL), (N_SMALL, N_SMALL + 50),
                                          (N_SMALL, N_SMALL // 2), (N_SMALL - 1, N_SMALL)])
    def test_trace_lengths_must_match_the_grid(self, mixed_setup, lap_rec, n_g, n_h):
        name, n = ("g_dirichlet", n_g) if n_g != N_SMALL else ("h_neumann", n_h)
        with pytest.raises(LayoutError, match=f"^{name} has {n} values, the grid has {N_SMALL} points$"):
            solve_mixed(mixed_setup, lap_rec, {"G1"}, np.ones(n_g), np.zeros(n_h))


class TestSolvePoisson:
    def test_zero_source_reduces_to_dirichlet(self, small_grid, small_laplace, lap_rec):
        _, op = small_laplace
        case = make_test_suite("u2", SQUARE, seed=2, n_cases=1)[0]
        g = case.dirichlet(small_grid)
        mesh = triangulate_square(0.1)
        direct = solve_dirichlet(op, lap_rec, g)
        viapoisson = solve_poisson(op, lambda p: np.zeros(len(p)), g, mesh, lap_rec)
        np.testing.assert_array_equal(viapoisson.pred, direct.pred)
        np.testing.assert_array_equal(viapoisson.h_trace, direct.h_trace)

    def test_quadratic_case_coarse(self, small_grid, small_laplace, lap_rec):
        _, op = small_laplace
        case = poisson_cases()[0]  # u = (x^2+y^2)/4, f = 1
        mesh = triangulate_square(0.05)
        fld = solve_poisson(op, case.source, case.dirichlet(small_grid), mesh, lap_rec, exact=case.u)
        assert fld.relative_l2 < 5e-2


class TestHelmholtz:
    def test_sin_sin_pipeline(self, small_grid, helm_setup, helm_rec):
        k, op = helm_setup
        case = make_test_suite("sin_sin", SQUARE, k=k, seed=4, n_cases=1)[0]
        fld = solve_helmholtz(op, helm_rec, case.dirichlet(small_grid), exact=case.u)
        assert fld.relative_l2 < 5e-2
        assert fld.imag_ratio < 1e-2

    def test_scale_equivariance(self, small_grid, helm_setup, helm_rec):
        k, op = helm_setup
        case = make_test_suite("sin_sin", SQUARE, k=k, seed=6, n_cases=1)[0]
        g = case.dirichlet(small_grid)
        f1 = solve_helmholtz(op, helm_rec, g)
        f2 = solve_helmholtz(op, helm_rec, -2.0 * g)
        np.testing.assert_allclose(f2.pred, -2.0 * f1.pred, rtol=1e-12)

    def test_h_trace_is_one_apply_of_the_data(self, small_grid, helm_setup, helm_rec):
        k, op = helm_setup
        g = make_test_suite("sin_sinh", SQUARE, k=k, seed=6, n_cases=1)[0].dirichlet(small_grid)
        fld = solve_dirichlet(op, helm_rec, g)
        assert fld.h_trace.tobytes() == op.apply(g).tobytes()


class TestPredict3D:
    def test_linearity_and_error_reporting(self):
        sphere = DomainSpec.sphere()
        grid = make_boundary_grid(sphere, 200)
        spec = DatasetSpec(
            kernel=KernelSpec("helmholtz3d", 1.0), domain=sphere,
            n_points=200, n_samples=300, seed=21,
        )
        ds = build_dataset(spec, grid)
        inp, out = dirichlet_layouts(200)
        op = fit_least_squares(ds.g_rows, ds.h_rows, inp, out)
        case = plane_wave_3d(1.0)
        g = case.dirichlet(grid)
        h_pred, err = predict_normal_derivative_3d(op, grid, g, case.neumann(grid))
        assert err < 5e-2
        doubled, _ = predict_normal_derivative_3d(op, grid, 2.0 * g)
        np.testing.assert_array_equal(doubled, 2.0 * h_pred)


class TestTestSuite:
    def test_u4_is_linear_and_harmonic(self):
        case = make_test_suite("u4", SQUARE, seed=1, n_cases=1)[0]
        p = np.array([[0.3, 0.7]])
        m, n = case.params["m"], case.params["n"]
        assert case.u(p)[0] == pytest.approx(0.3 * m + 0.7 * n)

    def test_u5_laplacian_vanishes(self):
        from oracles import laplacian_stencil

        case = make_test_suite("u5", SQUARE, seed=1, n_cases=1)[0]
        for p in ([0.2, 0.4], [0.8, 0.1]):
            assert abs(laplacian_stencil(case.u, p)) < 1e-4

    def test_u3_is_harmonic(self):
        from oracles import laplacian_stencil

        for case in make_test_suite("u3", SQUARE, seed=9, n_cases=3):
            val = case.u(np.array([[0.5, 0.5]]))[0]
            assert abs(laplacian_stencil(case.u, (0.5, 0.5))) < 1e-3 * max(abs(val), 1.0)

    def test_u1_source_outside_domain(self):
        for case in make_test_suite("u1", SQUARE, seed=12, n_cases=20):
            src = np.array([case.params["m"], case.params["n"]])
            assert not contains(SQUARE, src)

    def test_helmholtz_constraints(self):
        k = 10.0
        for case in make_test_suite("sin_sin", SQUARE, k=k, seed=2, n_cases=5):
            assert case.params["a"] ** 2 + case.params["b"] ** 2 == pytest.approx(k * k)
        for case in make_test_suite("sin_sinh", SQUARE, k=k, seed=2, n_cases=5):
            c, d = case.params["c"], case.params["d"]
            assert c * c - d * d == pytest.approx(k * k)
            assert 0 < d <= 2 * k and 0 < c <= 2 * k and c > d

    def test_paper_style_parameters_satisfy_constraint(self):
        # k=10 with c = sqrt(102), d = sqrt(2) is a valid sinh draw
        c, d = math.sqrt(102.0), math.sqrt(2.0)
        assert c * c - d * d == pytest.approx(100.0)

    def test_determinism(self):
        a = make_test_suite("u2", SQUARE, seed=5, n_cases=4)
        b = make_test_suite("u2", SQUARE, seed=5, n_cases=4)
        assert [c.params for c in a] == [c.params for c in b]

    def test_plane_wave_3d_solves_helmholtz(self):
        case = plane_wave_3d(1.0)
        w = np.asarray(case.params["direction"])
        assert np.dot(w, w) == pytest.approx(1.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            make_test_suite("u9", SQUARE)


class TestSolutionField:
    def test_csv_schema(self, small_grid, small_laplace, eval_pts, lap_rec):
        _, op = small_laplace
        case = make_test_suite("u4", SQUARE, seed=3, n_cases=1)[0]
        fld = solve_dirichlet(op, lap_rec, case.dirichlet(small_grid), exact=case.u)
        lines = fld.to_csv().splitlines()
        assert lines[0] == "x,y,u_pred_re,u_pred_im,u_exact,abs_err,flag"
        assert len(lines) == len(eval_pts) + 1

    def test_csv_bytes_match_row_writer(self):
        import csv
        import io

        pts = np.array([[0.1, 0.2], [0.3, -0.0], [1e-300, 0.7], [0.5, 0.5], [0.9, 0.4]])
        pred = np.array([1.5 + 2e-9j, -0.0, 1e300 - 1j, 0.25, -3.0])
        exact = np.array([1.25, np.nan, np.inf, -0.0, -3.0000000000000004])
        flags = np.array([False, True, False, True, False])

        def reference(fld):
            buf = io.StringIO()
            w = csv.writer(buf)
            w.writerow(["x", "y", "u_pred_re", "u_pred_im", "u_exact", "abs_err", "flag"])
            ex = fld.exact if fld.exact is not None else np.full(len(fld.points), np.nan)
            for i, p in enumerate(fld.points):
                err = abs(fld.pred.real[i] - ex[i]) if np.isfinite(ex[i]) else np.nan
                w.writerow([repr(float(v)) for v in (p[0], p[1], fld.pred.real[i], fld.pred.imag[i], ex[i], err)]
                           + [int(fld.near_flags[i])])
            return buf.getvalue()

        for ex in (exact, None):
            fld = SolutionField(points=pts, pred=pred, near_flags=flags, exact=ex)
            assert fld.to_csv() == reference(fld)

    def test_error_excludes_flagged_points(self, small_grid, small_laplace):
        _, op = small_laplace
        pts = np.array([[0.5, 0.5], [0.5, 0.001]])  # second is near-boundary
        case = make_test_suite("u4", SQUARE, seed=3, n_cases=1)[0]
        rec = BoundaryReconstructor(LAPLACE, small_grid, pts)
        fld = solve_dirichlet(op, rec, case.dirichlet(small_grid), exact=case.u)
        assert fld.near_flags[1] and not fld.near_flags[0]
        assert fld.relative_l2 <= fld.relative_l2_full

    def test_evaluate_suite_summary_shape(self, small_grid, small_laplace, lap_rec):
        _, op = small_laplace
        cases = make_test_suite("u4", SQUARE, seed=3, n_cases=2)

        def solve_one(case):
            fld = solve_dirichlet(op, lap_rec, case.dirichlet(small_grid), exact=case.u)
            return fld, case.neumann(small_grid)

        summary = evaluate_suite(cases, solve_one)
        assert summary["u4"]["n_cases"] == 2
        assert 0 <= summary["u4"]["mean_total_error"] < 1.0
