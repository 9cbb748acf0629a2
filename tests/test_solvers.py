import math

import numpy as np
import pytest

from tracemap.geometry import (
    DomainSpec,
    InvalidDomainError,
    PolarTerm,
    boundary_distance,
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
    SUITES,
    SolutionField,
    UndefinedMetricError,
    evaluate_suite,
    make_eval_grid,
    make_test_suite,
    plane_wave_3d,
    poisson_cases,
    predict_normal_derivative_3d,
    relative_l2,
    solve_case,
    solve_dirichlet,
    solve_helmholtz,
    solve_mixed,
    solve_poisson,
)
from tracemap.solvers import TestCase as Case  # aliased: pytest would collect a Test* name
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
    return ds, fit_least_squares(ds.g_rows, ds.h_rows, inp, out)[0]


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
    return fit_least_squares(X, T, inp, out)[0]


@pytest.fixture(scope="module")
def helm_setup(small_grid):
    k = 2.0
    spec = DatasetSpec(
        kernel=KernelSpec("helmholtz2d", k), domain=SQUARE,
        n_points=N_SMALL, n_samples=400, seed=13,
    )
    ds = build_dataset(spec, small_grid)
    inp, out = dirichlet_layouts(N_SMALL)
    return k, fit_least_squares(ds.g_rows, ds.h_rows, inp, out)[0]


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
        op, _ = fit_least_squares(ds.g_rows, ds.h_rows, inp, out)
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
        with pytest.raises(ValueError, match="^unknown test family 'u9'$"):
            make_test_suite("u9", SQUARE)

    @pytest.mark.parametrize("family", ["sin_sin", "sin_sinh"])
    def test_helmholtz_family_needs_a_wavenumber(self, family):
        with pytest.raises(ValueError, match="^Helmholtz families need a wavenumber$"):
            make_test_suite(family, SQUARE)

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            make_test_suite("u2", SQUARE, seed=-1)

    @pytest.mark.parametrize(
        "domain", [SQUARE, DomainSpec.polar(1.0), DomainSpec.polar(0.65, [PolarTerm("sin", 0.2, 5)])]
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_draws_equal_the_reference_chain(self, domain, seed):
        grid = make_boundary_grid(domain, 64)
        for family, k in [("u1", None), ("u2", None), ("u3", None), ("u4", None), ("u5", None),
                          ("sin_sin", 1.0), ("sin_sin", 10.0), ("sin_sinh", 1.0), ("sin_sinh", 10.0)]:
            got = make_test_suite(family, domain, k=k, seed=seed)
            want = _reference_suite(family, domain, k, seed)
            assert len(got) == len(want) == 10
            for a, b in zip(got, want):
                assert (a.family, list(a.params)) == (b.family, list(b.params))
                assert np.array(list(a.params.values())).tobytes() == np.array(list(b.params.values())).tobytes()
                assert a.dirichlet(grid).tobytes() == b.dirichlet(grid).tobytes()
                assert a.neumann(grid).tobytes() == b.neumann(grid).tobytes()

    def test_suite_table(self):
        assert {name: (equation, reads) for name, (equation, reads, _) in SUITES.items()} == {
            "laplace": ("laplace", {"seed", "margin"}), "helmholtz": ("helmholtz", {"k", "seed", "margin"}),
            "poisson": ("laplace", {"margin", "mesh_h"}), "helmholtz3d": ("helmholtz3d", {"k"})}
        families = {name: sorted({c.family for c in cases(SQUARE, 10.0, 0)}) for name, (*_, cases) in SUITES.items()}
        assert families == {
            "laplace": ["u1", "u2", "u3", "u4", "u5"], "helmholtz": ["sin_sin", "sin_sinh"],
            "poisson": ["poisson_quadratic", "poisson_quintic"], "helmholtz3d": ["plane3d"]}

    @pytest.mark.parametrize("name", list(SUITES))
    def test_a_suite_reads_exactly_its_declared_parameters(self, name):
        _, reads, cases = SUITES[name]

        def params(k, seed):
            return [(c.family, c.params) for c in cases(SQUARE, k, seed)]

        assert (params(12.0, 0) != params(10.0, 0)) == ("k" in reads)
        assert (params(10.0, 1) != params(10.0, 0)) == ("seed" in reads)


class TestSolveCase:
    def test_a_case_without_a_source_is_a_dirichlet_solve(self, small_grid, small_laplace, lap_rec):
        _, op = small_laplace
        case = make_test_suite("u2", SQUARE, seed=2, n_cases=1)[0]
        fld, h_exact = solve_case(op, lap_rec, case)
        direct = solve_dirichlet(op, lap_rec, case.dirichlet(small_grid), exact=case.u)
        np.testing.assert_array_equal(fld.pred, direct.pred)
        np.testing.assert_array_equal(fld.exact, direct.exact)
        np.testing.assert_array_equal(h_exact, case.neumann(small_grid))

    def test_a_source_case_is_a_poisson_solve_with_no_exact_dudn(self, small_grid, small_laplace, lap_rec):
        _, op = small_laplace
        case = poisson_cases()[0]
        mesh = triangulate_square(0.25)
        fld, h_exact = solve_case(op, lap_rec, case, mesh)
        direct = solve_poisson(op, case.source, case.dirichlet(small_grid), mesh, lap_rec, exact=case.u)
        np.testing.assert_array_equal(fld.pred, direct.pred)
        np.testing.assert_array_equal(fld.exact, direct.exact)
        assert h_exact is None


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


# ---------------------------------------------------------------------------
# Reference: the per-family constructors and the if-chain that drew the test
# cases before the family table; the table must draw the same cases bit for bit.
# ---------------------------------------------------------------------------


def _reference_suite(family, domain, k, seed, n_cases=10):
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n_cases):
        for _attempt in range(64):
            case = _reference_draw_case(family, domain, k, rng)
            if case is not None:
                cases.append(case)
                break
        else:
            raise ValueError(f"could not draw a feasible {family} case")
    return cases


def _reference_draw_case(family, domain, k, rng):
    if family == "u1":
        m, n = rng.uniform(-4.0, 4.0, size=2)
        p = np.array([m, n])
        if contains(domain, p) or boundary_distance(domain, p) < 1e-3:
            return None
        return _ref_log_case(m, n)
    if family == "u2":
        m, n = rng.uniform(-4.0, 4.0, size=2)
        if abs(m) + abs(n) < 1e-2:
            return None
        return _ref_harmonic_quadratic(m, n)
    if family == "u3":
        m, t1, t2 = rng.uniform(-4.0, 4.0, size=3)
        if abs(m) < 1e-2:
            return None
        return _ref_sin_exp(m, t1, t2)
    if family == "u4":
        m, n = rng.uniform(-4.0, 4.0, size=2)
        if abs(m) + abs(n) < 1e-2:
            return None
        return _ref_linear(m, n)
    if family == "u5":
        return _ref_cubic()
    if family == "sin_sin":
        if k is None:
            raise ValueError("Helmholtz families need a wavenumber")
        a = rng.uniform(0.05 * k, 0.95 * k)
        p1, p2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        return _ref_sin_sin(k, a, p1, p2)
    if family == "sin_sinh":
        if k is None:
            raise ValueError("Helmholtz families need a wavenumber")
        d = rng.uniform(0.05 * k, min(math.sqrt(3.0) * k, 6.0))
        q1, q2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        return _ref_sin_sinh(k, d, q1, q2)
    raise ValueError(f"unknown test family {family!r}")


def _ref_log_case(m, n):
    def u(p):
        return np.log((p[:, 0] - m) ** 2 + (p[:, 1] - n) ** 2)

    def grad(p):
        r2 = (p[:, 0] - m) ** 2 + (p[:, 1] - n) ** 2
        return 2.0 * np.column_stack([p[:, 0] - m, p[:, 1] - n]) / r2[:, None]

    return Case("u1", {"m": m, "n": n}, u, grad)


def _ref_harmonic_quadratic(m, n):
    def u(p):
        return m * (p[:, 0] ** 2 - p[:, 1] ** 2) + n * p[:, 0] * p[:, 1]

    def grad(p):
        return np.column_stack([2 * m * p[:, 0] + n * p[:, 1], -2 * m * p[:, 1] + n * p[:, 0]])

    return Case("u2", {"m": m, "n": n}, u, grad)


def _ref_sin_exp(m, t1, t2):
    def u(p):
        return np.sin(m * p[:, 0] - t1) * np.exp(m * p[:, 1] - t2)

    def grad(p):
        e = np.exp(m * p[:, 1] - t2)
        return np.column_stack([m * np.cos(m * p[:, 0] - t1) * e, m * np.sin(m * p[:, 0] - t1) * e])

    return Case("u3", {"m": m, "t1": t1, "t2": t2}, u, grad)


def _ref_linear(m, n):
    def u(p):
        return m * p[:, 0] + n * p[:, 1]

    def grad(p):
        return np.tile([m, n], (len(p), 1))

    return Case("u4", {"m": m, "n": n}, u, grad)


def _ref_cubic():
    def u(p):
        return p[:, 0] ** 3 - 3.0 * p[:, 0] * p[:, 1] ** 2

    def grad(p):
        return np.column_stack([3 * p[:, 0] ** 2 - 3 * p[:, 1] ** 2, -6 * p[:, 0] * p[:, 1]])

    return Case("u5", {}, u, grad)


def _ref_sin_sin(k, a, p1, p2):
    b = math.sqrt(k * k - a * a)

    def u(p):
        return np.sin(a * p[:, 0] - p1) * np.sin(b * p[:, 1] - p2)

    def grad(p):
        return np.column_stack(
            [a * np.cos(a * p[:, 0] - p1) * np.sin(b * p[:, 1] - p2),
             b * np.sin(a * p[:, 0] - p1) * np.cos(b * p[:, 1] - p2)]
        )

    return Case("sin_sin", {"k": k, "a": a, "b": b, "p1": p1, "p2": p2}, u, grad)


def _ref_sin_sinh(k, d, q1, q2):
    c = math.sqrt(k * k + d * d)

    def u(p):
        return np.sin(c * p[:, 0] - q1) * np.sinh(d * p[:, 1] - q2)

    def grad(p):
        return np.column_stack(
            [c * np.cos(c * p[:, 0] - q1) * np.sinh(d * p[:, 1] - q2),
             d * np.sin(c * p[:, 0] - q1) * np.cosh(d * p[:, 1] - q2)]
        )

    return Case("sin_sinh", {"k": k, "c": c, "d": d, "q1": q1, "q2": q2}, u, grad)
