import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bessel_series_oracle, j0_first_zero, laplace_kernel_oracle, laplacian_stencil
from tracemap._bessel_coeffs import FAR_X, NEAR_X
from tracemap.geometry import DomainSpec, make_boundary_grid
from tracemap.kernels import (
    _BLOCK,
    _Y1_X_MIN,
    BesselDomainError,
    KernelSpec,
    SingularEvaluationError,
    bessel_j0,
    bessel_j1,
    bessel_y0,
    bessel_y1,
    kernel_gradient_y,
    kernel_matrices,
    kernel_matrix,
    kernel_normal_matrix,
    kernel_value,
)
from tracemap.quadrature import BoundaryReconstructor

# Frozen from the arbitrary-precision oracle (tests/oracles.py).
J0_FIRST_ZERO = 2.404825557695773
Y0_AT_1 = 0.08825696421567696
Y1_AT_1 = -0.7812128213002887
J1_AT_2_5 = 0.4970941024642741

LAPLACE = KernelSpec("laplace2d")
HELM1 = KernelSpec("helmholtz2d", 1.0)
HELM3D = KernelSpec("helmholtz3d", 2.0)
BESSEL = {("J", 0): bessel_j0, ("J", 1): bessel_j1, ("Y", 0): bessel_y0, ("Y", 1): bessel_y1}
# the evaluator's region and interval edges: near form below NEAR_X, one
# polynomial per unit interval up to FAR_X, the Hankel form above
BREAKPOINTS = np.arange(NEAR_X, FAR_X + 1.0)


def _amplitude(ref, x):
    """The scale errors are measured on: max(|f|, sqrt(2/(pi x)))."""
    return max(abs(ref), math.sqrt(2.0 / (math.pi * x)))


class TestBessel:
    def test_values_at_zero(self):
        assert bessel_j0(0.0) == 1.0
        assert bessel_j1(0.0) == 0.0

    def test_first_zero_of_j0(self):
        assert j0_first_zero() == pytest.approx(J0_FIRST_ZERO, abs=1e-14)
        assert abs(bessel_j0(J0_FIRST_ZERO)) < 1e-10

    def test_frozen_oracle_values(self):
        assert bessel_y0(1.0) == pytest.approx(Y0_AT_1, rel=1e-12)
        assert bessel_y1(1.0) == pytest.approx(Y1_AT_1, rel=1e-12)
        assert bessel_j1(2.5) == pytest.approx(J1_AT_2_5, rel=1e-12)

    @pytest.mark.parametrize("kind,order", [("J", 0), ("J", 1), ("Y", 0), ("Y", 1)])
    def test_against_oracle_across_the_switch(self, kind, order):
        xs = np.concatenate(
            [
                [1e-8, 1e-6, 1e-3, 1e-2],
                np.linspace(0.05, 11.9, 31),
                np.linspace(12.1, 60.0, 23),
                [150.0, 900.0],
            ]
        )
        for x in xs:
            ref = bessel_series_oracle(kind, order, x)
            # near zeros compare on the amplitude scale
            scale = max(abs(ref), math.sqrt(2.0 / (math.pi * x)))
            assert abs(BESSEL[kind, order](float(x)) - ref) <= 1e-10 * scale

    @pytest.mark.parametrize("fn", [bessel_j0, bessel_j1, bessel_y0, bessel_y1])
    def test_series_asymptotic_continuity(self, fn):
        """Continuous at every breakpoint: the near-0 series form, each table
        interval and the asymptotic (Hankel) form agree with their neighbour
        to rounding; one ulp of x moves f by at most |f'| ulp <= 4e-15 here."""
        for b in BREAKPOINTS:
            at, below = fn(float(b)), fn(float(np.nextafter(b, 0.0)))
            assert abs(at - below) <= 1e-14 * _amplitude(at, b), (b, at, below)

    @pytest.mark.parametrize("kind,order", [("J", 0), ("J", 1), ("Y", 0), ("Y", 1)])
    def test_dense_sweep_against_mpmath(self, kind, order):
        """At most 1e-14 of max(|f|, sqrt(2/(pi x))) over log- and linearly
        spaced points of [1e-300, 1e3] and every breakpoint +-1 ulp."""
        edges = np.concatenate([BREAKPOINTS, np.nextafter(BREAKPOINTS, 0.0), np.nextafter(BREAKPOINTS, np.inf)])
        xs = np.concatenate([
            np.logspace(-300, 3, 1200),
            np.linspace(1e-300, 1e3, 1000),
            np.linspace(1e-300, FAR_X + 4.0, 800),
            edges,
        ])
        got = BESSEL[kind, order](xs)
        worst = 0.0
        for x, value in zip(xs, got):
            ref = bessel_series_oracle(kind, order, x)
            worst = max(worst, abs(value - ref) / _amplitude(ref, x))
        assert worst <= 1e-14, worst

    def test_y_at_the_smallest_arguments(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no divide-by-zero or overflow warning
            y0 = bessel_y0(5e-324)
            assert y0 == pytest.approx(bessel_series_oracle("Y", 0, 5e-324), rel=1e-15)  # -474.0
            assert np.isfinite(bessel_y0(np.array([5e-324, 1e-320, 2.2250738585072014e-308]))).all()
            y1 = bessel_y1(_Y1_X_MIN)  # the least x whose -2/(pi x) is finite
            assert np.isfinite(y1) and y1 == pytest.approx(-2.0 / (math.pi * _Y1_X_MIN), rel=1e-15)
            for bad in (5e-324, float(np.nextafter(_Y1_X_MIN, 0.0))):
                with pytest.raises(BesselDomainError, match="finite"):
                    bessel_y1(bad)
                with pytest.raises(BesselDomainError):
                    bessel_y1(np.array([1.0, bad]))
        # the least such x: about 2 / (pi DBL_MAX), and one ulp lower overflows
        assert 3.5e-309 < _Y1_X_MIN < 3.6e-309 and math.isfinite(2.0 / math.pi / _Y1_X_MIN)
        assert 2.0 / math.pi / float(np.nextafter(_Y1_X_MIN, 0.0)) == math.inf

    def test_domain_errors(self):
        with pytest.raises(BesselDomainError):
            bessel_y0(0.0)
        with pytest.raises(BesselDomainError):
            bessel_y1(-1.0)
        with pytest.raises(BesselDomainError):
            bessel_j0(-0.5)

    @pytest.mark.parametrize("fn", [bessel_j0, bessel_j1, bessel_y0, bessel_y1])
    def test_array_shape_kept(self, fn):
        assert fn(np.empty(0)).shape == (0,)
        assert fn(np.empty((0, 3))).shape == (0, 3)
        x = np.array([[0.5, 3.0, 11.0], [12.5, 20.0, 40.0]])  # both branches
        out = fn(x)
        assert out.shape == (2, 3)
        np.testing.assert_array_equal(out.ravel(), fn(x.ravel()))

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.3, 5.0, 20.0])
        np.testing.assert_allclose(bessel_j0(xs), [bessel_j0(float(x)) for x in xs], rtol=1e-15)


class TestBlockedEvaluator:
    @staticmethod
    def _straddling_input():
        """Over three blocks: all three regions, the near and table regions
        only, the Hankel region only, then all three in a partial block, with
        the breakpoints hit exactly and crossed at the block edges."""
        rng = np.random.default_rng(3)
        parts = [rng.uniform(1e-3, 30.0, _BLOCK), rng.uniform(1e-3, FAR_X, _BLOCK),
                 rng.uniform(FAR_X, 60.0, _BLOCK), rng.uniform(1e-3, 30.0, 1001)]
        parts[0][-1] = FAR_X + 1e-9
        parts[1][0], parts[1][-1] = float(np.nextafter(FAR_X, 0.0)), NEAR_X
        parts[1][1:1 + len(BREAKPOINTS) - 1] = BREAKPOINTS[:-1]
        parts[2][0], parts[2][-1] = FAR_X, FAR_X + 1e-12
        parts[3][0] = 0.25
        return np.concatenate(parts)

    @pytest.mark.parametrize("kind,order", [("J", 0), ("J", 1), ("Y", 0), ("Y", 1)])
    def test_bitwise_equal_to_unblocked(self, kind, order):
        """Each value depends on its own x alone: every call form gives the
        bits of evaluating each point by itself, as a scalar."""
        fn = BESSEL[kind, order]
        x = self._straddling_input()
        assert x.size > 3 * _BLOCK and x.size % _BLOCK
        alone = np.array([fn(v) for v in x.tolist()])
        whole = fn(x)
        assert whole.tobytes() == alone.tobytes()
        assert fn(x[::3]).tobytes() == alone[::3].tobytes()  # strided
        z = np.zeros(x.shape, dtype=complex)
        z.imag = x
        fn(z.imag, out=z.imag)  # strided, in place
        assert z.imag.tobytes() == alone.tobytes()
        y = x.copy()
        fn(y, out=y)  # contiguous, in place
        assert y.tobytes() == alone.tobytes()
        buf = np.zeros((2, x.size))
        row = buf[1]
        assert fn(x, out=row) is row and row.tobytes() == alone.tobytes() and not buf[0].any()

    @pytest.mark.parametrize("fn", [bessel_j0, bessel_j1, bessel_y0, bessel_y1])
    def test_shapes(self, fn):
        assert isinstance(fn(np.float64(3.0)), float)
        assert isinstance(fn(np.asarray(15.0)), float)
        assert fn(np.empty((0, 4))).shape == (0, 4)
        x = self._straddling_input()[: 3 * (_BLOCK // 2 + 7)].reshape(3, -1)
        out = fn(x)
        assert out.shape == x.shape
        np.testing.assert_array_equal(out.ravel(), fn(x.ravel()))
        np.testing.assert_array_equal(fn(x[:, ::2]), out[:, ::2])  # strided input

    @pytest.mark.parametrize("fn", [bessel_j0, bessel_j1, bessel_y0, bessel_y1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_arguments_raise(self, fn, bad):
        with pytest.raises(BesselDomainError):
            fn(np.array([1.0, bad, 20.0]))
        with pytest.raises(BesselDomainError):
            fn(bad)

    def test_call_peak_memory_is_about_one_result(self):
        x = np.random.default_rng(4).uniform(1e-3, 14.0, 10**6)
        tracemalloc.start()
        try:
            out = bessel_y0(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * out.nbytes

    @pytest.mark.parametrize("fn", [bessel_j0, bessel_j1, bessel_y0, bessel_y1])
    def test_out_is_filled_with_the_same_bits(self, fn):
        x = self._straddling_input()
        want = fn(x)
        buf = np.empty_like(x)
        assert fn(x, out=buf) is buf and buf.tobytes() == want.tobytes()
        x2 = x[: 3 * (_BLOCK // 2 + 7)].reshape(3, -1)
        buf2 = np.empty(x2.shape)
        assert fn(x2, out=buf2) is buf2 and buf2.tobytes() == fn(x2).tobytes()
        z = np.empty(x.shape, dtype=complex)
        fn(x, out=z.real)
        fn(x, out=z.imag)
        assert z.real.tobytes() == want.tobytes() and z.imag.tobytes() == want.tobytes()
        wide = np.zeros((3, x2.shape[1] + 5))  # a strided out with no flat view
        fn(x2, out=wide[:, :-5])
        assert wide[:, :-5].tobytes() == buf2.tobytes() and not wide[:, -5:].any()

    @pytest.mark.parametrize("fn", [bessel_j0, bessel_j1, bessel_y0, bessel_y1])
    def test_out_of_the_wrong_kind_refused(self, fn):
        x = np.linspace(1.0, 20.0, 12)
        for bad in (np.empty(11), np.empty((3, 4)), np.empty(12, dtype=np.float32), [0.0] * 12):
            with pytest.raises(ValueError, match="out must be"):
                fn(x, out=bad)
        z = np.empty(12, dtype=complex)
        z.real = x
        with pytest.raises(ValueError, match="overlaps"):
            fn(z.real, out=z.real[::-1])
        for arg, out in ((x[1:], x[:-1]), (x[:-1], x[1:])):  # shifted by one point
            with pytest.raises(ValueError, match="overlaps"):
                fn(arg, out=out)

    @pytest.mark.parametrize("fn", [bessel_j0, bessel_j1, bessel_y0, bessel_y1])
    def test_out_may_be_the_argument_itself(self, fn):
        x = self._straddling_input()  # straddles the breakpoints over more than three blocks
        want = fn(x.copy())
        y = x.copy()
        assert fn(y, out=y) is y and y.tobytes() == want.tobytes()
        z = np.zeros(x.shape, dtype=complex)
        z.imag = x
        fn(z.imag, out=z.imag)  # strided, in place
        assert z.imag.tobytes() == want.tobytes() and not z.real.any()
        x2 = x[: 3 * (_BLOCK // 2 + 7)].reshape(3, -1).T  # no flat view
        y2 = x2.copy(order="F")
        fn(y2, out=y2)
        assert y2.tobytes() == fn(x2.copy()).tobytes()

    def test_call_with_out_peak_memory_is_block_sized(self):
        x = np.random.default_rng(4).uniform(1e-3, 14.0, 10**6)
        out = np.empty_like(x)
        tracemalloc.start()
        try:
            bessel_y0(x, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * out.nbytes

    def test_helmholtz_build_peak_is_its_outputs_plus_block_scratch(self):
        # k r and the projection live in the single-layer matrix until the Bessel pass
        grid = make_boundary_grid(DomainSpec.unit_square(), 100)
        pts = np.random.default_rng(5).uniform(0.001, 0.999, (10**4, 2))
        tracemalloc.start()
        try:
            rec = BoundaryReconstructor(KernelSpec("helmholtz2d", 10.0), grid, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.single.nbytes + rec.double.nbytes == 32e6
        assert peak - rec.single.nbytes - rec.double.nbytes < 0.25 * rec.single.nbytes

    def test_helmholtz_build_peak_memory(self):
        grid = make_boundary_grid(DomainSpec.unit_square(), 100)
        pts = np.random.default_rng(5).uniform(0.001, 0.999, (10**4, 2))
        tracemalloc.start()
        try:
            BoundaryReconstructor(KernelSpec("helmholtz2d", 10.0), grid, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 80e6


class TestKernelValue:
    def test_log_kernel_at_unit_distance(self):
        assert kernel_value(LAPLACE, (0.0, 0.0), (1.0, 0.0)) == 0.0

    def test_log_kernel_at_distance_e(self):
        v = kernel_value(LAPLACE, (0.0, 0.0), (math.e, 0.0))
        assert v.real == pytest.approx(-1.0 / (2 * math.pi), rel=1e-14)
        assert v.imag == 0.0

    def test_helmholtz_components(self):
        v = kernel_value(HELM1, (0.0, 0.0), (1.0, 0.0))
        assert v.real == pytest.approx(-bessel_y0(1.0) / 4.0, rel=1e-12)
        assert v.imag == pytest.approx(bessel_j0(1.0) / 4.0, rel=1e-12)

    def test_helmholtz3d_value(self):
        r = 0.7
        v = kernel_value(HELM3D, (0.0, 0.0, 0.0), (r, 0.0, 0.0))
        assert v.real == pytest.approx(math.cos(2 * r) / (4 * math.pi * r), rel=1e-13)
        assert v.imag == pytest.approx(math.sin(2 * r) / (4 * math.pi * r), rel=1e-13)

    def test_coincident_points_raise(self):
        with pytest.raises(SingularEvaluationError):
            kernel_value(LAPLACE, (0.3, 0.3), (0.3, 0.3))

    @settings(max_examples=30, deadline=None)
    @given(
        x=st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
        y=st.tuples(st.floats(-2, 2), st.floats(-2, 2)),
        family=st.sampled_from(["laplace2d", "helmholtz2d"]),
    )
    def test_reciprocity_exact(self, x, y, family):
        if np.allclose(x, y):
            return
        spec = KernelSpec(family, 1.7)
        assert kernel_value(spec, x, y) == kernel_value(spec, y, x)

    @pytest.mark.parametrize("spec", [LAPLACE, HELM1, KernelSpec("helmholtz2d", 10.0)])
    def test_pde_residual_stencil(self, spec):
        x0 = np.array([0.1, -0.2])
        for y in ([0.5, 0.3], [-0.4, 0.6], [0.9, -0.1]):
            def re_part(p, spec=spec):
                return np.array([kernel_value(spec, x0, q).real for q in p])

            def im_part(p, spec=spec):
                return np.array([kernel_value(spec, x0, q).imag for q in p])

            k2 = 0.0 if spec.family == "laplace2d" else spec.k**2
            g = kernel_value(spec, x0, y)
            res_re = laplacian_stencil(re_part, y) + k2 * g.real
            assert abs(res_re) < max(1e-4, 1e-3 * abs(g))
            if spec.is_complex:
                res_im = laplacian_stencil(im_part, y) + k2 * g.imag
                assert abs(res_im) < 1e-3 * max(abs(g), 1e-2)


class TestLaplaceKernel:
    """The log kernel, evaluated from squared distances, against mpmath."""

    # r from 1e-6 to 1e3; ln r^2 vanishes at r = 1, where G has no relative accuracy
    RADII = [1e-6, 3e-5, 1e-3, 0.02, 0.3, 0.6, 1.7, 25.0, 400.0, 1e3]
    ANGLES = [0.3, 2.0, 4.1]
    X = (0.3, -0.2)

    def _pairs(self):
        for r in self.RADII:
            for theta in self.ANGLES:
                y = (self.X[0] + r * math.cos(theta), self.X[1] + r * math.sin(theta))
                for tilt in (0.0, 0.5):  # the normal's angle to y - x
                    yield y, (math.cos(theta + tilt), math.sin(theta + tilt))

    @staticmethod
    def _rel(got, want):
        return abs(got - want) / abs(want)

    def test_point_pair_functions_against_mpmath(self):
        worst = [0.0, 0.0, 0.0]
        for y, n in self._pairs():
            g, dg, grad = laplace_kernel_oracle(self.X, y, n)
            worst[0] = max(worst[0], self._rel(kernel_value(LAPLACE, self.X, y).real, g))
            worst[1] = max(worst[1], self._rel(kernel_normal_matrix(LAPLACE, [self.X], [y], [n])[0, 0], dg))
            got = kernel_gradient_y(LAPLACE, self.X, y)
            worst[2] = max(worst[2], *(self._rel(a, b) for a, b in zip(got, grad)))
        assert max(worst) <= 1e-15, worst

    def test_matrices_against_mpmath(self):
        ys, ns = map(np.array, zip(*self._pairs()))
        g_mat = kernel_matrix(LAPLACE, [self.X], ys)[0]
        dg_mat = kernel_normal_matrix(LAPLACE, [self.X], ys, ns)[0]
        g_pair, dg_pair, r2_min = kernel_matrices(LAPLACE, [self.X], ys, ns)
        assert g_pair.tobytes() == g_mat.tobytes() and dg_pair.tobytes() == dg_mat.tobytes()
        assert r2_min[0] == min(((y - np.array(self.X)) ** 2).sum() for y in ys)
        for j, (y, n) in enumerate(zip(ys, ns)):
            g, dg, _ = laplace_kernel_oracle(self.X, y, n)
            assert self._rel(g_mat[j], g) <= 1e-15 and self._rel(dg_mat[j], dg) <= 1e-15

    @pytest.mark.parametrize("spec", [LAPLACE, KernelSpec("helmholtz2d", 10.0), HELM3D], ids=lambda s: s.family)
    def test_weighted_matrices_are_the_unweighted_times_the_weights(self, spec):
        domain = DomainSpec.sphere() if spec.dimension == 3 else DomainSpec.unit_square()
        grid = make_boundary_grid(domain, 60)
        step = _BLOCK // grid.n_points
        pts = np.random.default_rng(3).uniform(-0.4, 0.4, (3 * step + 1, spec.dimension))  # a one-row last block
        g, dg, r2_min = kernel_matrices(spec, pts, grid.points, grid.normals)
        gw, dgw, r2w = kernel_matrices(spec, pts, grid.points, grid.normals, weights=grid.weights)
        assert gw.tobytes() == (g * grid.weights).tobytes() and dgw.tobytes() == (dg * grid.weights).tobytes()
        assert r2w.tobytes() == r2_min.tobytes()
        assert kernel_normal_matrix(spec, pts, grid.points, grid.normals).tobytes() == dg.tobytes()

    def test_coincident_pair_raises_without_a_warning(self):
        grid = make_boundary_grid(DomainSpec.unit_square(), 40)
        pts = np.vstack([[[0.5, 0.5]], grid.points[3]])
        calls = [
            lambda: kernel_value(LAPLACE, (0.3, 0.3), (0.3, 0.3)),
            lambda: kernel_gradient_y(LAPLACE, (0.3, 0.3), (0.3, 0.3)),
            lambda: kernel_normal_matrix(LAPLACE, [(0.3, 0.3)], [(0.3, 0.3)], [(0.0, 1.0)]),
            lambda: kernel_matrix(LAPLACE, pts, grid.points),
            lambda: kernel_normal_matrix(LAPLACE, pts, grid.points, grid.normals),
            lambda: kernel_matrices(LAPLACE, pts, grid.points, grid.normals),
            lambda: BoundaryReconstructor(LAPLACE, grid, pts),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a log(0) or 0/0 warning would surface here
            for call in calls:
                with pytest.raises(SingularEvaluationError):
                    call()

    def test_build_peak_is_its_outputs_plus_block_scratch(self):
        grid = make_boundary_grid(DomainSpec.unit_square(), 100)
        pts = np.random.default_rng(5).uniform(0.001, 0.999, (10**4, 2))
        tracemalloc.start()
        try:
            rec = BoundaryReconstructor(LAPLACE, grid, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_bytes = (_BLOCK // grid.n_points) * grid.n_points * 8
        assert rec.single.nbytes + rec.double.nbytes == 16e6
        # differences, r^2 and one product per block; no G, dG/dn or r arrays
        assert peak - rec.single.nbytes - rec.double.nbytes < 6 * block_bytes


class TestKernelGradient:
    def test_log_gradient_value(self):
        grad = kernel_gradient_y(LAPLACE, (0.0, 0.0), (1.0, 0.0))
        assert grad[0].real == pytest.approx(-1.0 / (2 * math.pi), rel=1e-12)
        assert grad[1] == 0.0

    @pytest.mark.parametrize(
        "spec,x,y",
        [
            (LAPLACE, (0.0, 0.0), (1.0, 0.0)),
            (LAPLACE, (0.2, -0.3), (0.9, 0.8)),
            (HELM1, (0.0, 0.0), (1.0, 1.0)),
            (KernelSpec("helmholtz2d", 10.0), (0.1, 0.0), (0.8, 0.5)),
            (HELM3D, (0.0, 0.0, 0.0), (0.5, 0.4, -0.3)),
        ],
    )
    def test_gradient_matches_central_differences(self, spec, x, y):
        grad = kernel_gradient_y(spec, x, y)
        step = 1e-6
        y = np.asarray(y, dtype=float)
        for d in range(len(y)):
            yp, ym = y.copy(), y.copy()
            yp[d] += step
            ym[d] -= step
            fd = (kernel_value(spec, x, yp) - kernel_value(spec, x, ym)) / (2 * step)
            assert abs(grad[d] - fd) <= 1e-6 * max(abs(fd), 1e-9)

    def test_gradient_antisymmetry(self):
        for spec in (LAPLACE, HELM1, HELM3D):
            x = np.array([0.3, 0.1, -0.2])[: spec.dimension]
            y = np.array([-0.5, 0.8, 0.4])[: spec.dimension]
            gy = kernel_gradient_y(spec, x, y)
            gx = -np.array(
                [
                    (kernel_value(spec, _shift(x, d, 5e-7), y) - kernel_value(spec, _shift(x, d, -5e-7), y))
                    / 1e-6
                    for d in range(len(x))
                ]
            )
            np.testing.assert_allclose(gy, -(-gx), rtol=1e-5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_point_pair_functions_refuse_non_finite_points(self, bad):
        for x, y in (((0.0, bad), (1.0, 0.0)), ((0.0, 0.0), (bad, 1.0))):
            with pytest.raises(ValueError, match="non-finite"):
                kernel_value(HELM1, x, y)
            with pytest.raises(ValueError, match="non-finite"):
                kernel_gradient_y(LAPLACE, x, y)
            with pytest.raises(ValueError, match="non-finite"):
                kernel_normal_matrix(LAPLACE, [x], [y], [(0.0, 1.0)])

    def test_point_pair_functions_refuse_mixed_dimensions(self):
        for x, y in (((0.0, 0.0), (1.0, 0.0, 0.5)), ((0.0, 0.0, 0.0), (1.0, 0.5))):
            with pytest.raises(ValueError, match="dimension"):
                kernel_value(HELM3D, x, y)
            with pytest.raises(ValueError, match="dimension"):
                kernel_gradient_y(HELM3D, x, y)

    def test_point_pair_gradient_at_coincident_points_raises(self):
        with pytest.raises(SingularEvaluationError):
            kernel_gradient_y(HELM3D, (0.3, 0.3, 0.1), (0.3, 0.3, 0.1))

    def test_normal_derivative_projection(self):
        n = np.array([0.6, 0.8])
        v = kernel_normal_matrix(LAPLACE, [(0.0, 0.0)], [(1.0, 0.0)], [n])[0, 0]
        grad = kernel_gradient_y(LAPLACE, (0.0, 0.0), (1.0, 0.0))
        assert v == pytest.approx(grad @ n)

    def test_matrix_agrees_with_scalar(self):
        xs = np.array([[0.0, 0.0], [0.5, 0.5]])
        ys = np.array([[1.0, 0.0], [0.0, 2.0], [1.5, 1.5]])
        mat = kernel_matrix(HELM1, xs, ys)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert mat[i, j] == pytest.approx(kernel_value(HELM1, x, y))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_matrix_of_non_finite_points_raises(self, bad):
        xs = np.array([[0.0, 0.0], [0.5, bad]])
        ys = np.array([[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ValueError, match="non-finite"):
            kernel_matrix(HELM1, xs, ys)
        with pytest.raises(ValueError, match="non-finite"):
            kernel_normal_matrix(LAPLACE, ys, xs, np.ones((2, 2)))

    def test_matrix_point_sets_must_share_dimension(self):
        with pytest.raises(ValueError):
            kernel_matrix(HELM3D, np.zeros((2, 3)), np.ones((4, 2)))
        with pytest.raises(ValueError):
            kernel_normal_matrix(LAPLACE, np.zeros((2, 2)), np.ones((4, 3)), np.ones((4, 3)))


def _reference_r2(xs, ys):
    """Squared distances summed in coordinate order, (len(xs), len(ys))."""
    xs, ys = np.atleast_2d(np.asarray(xs, dtype=float)), np.atleast_2d(np.asarray(ys, dtype=float))
    diffs = [ys[None, :, c] - xs[:, None, c] for c in range(xs.shape[1])]
    r2 = diffs[0] * diffs[0]
    for d in diffs[1:]:
        r2 += d * d
    return r2


def _reference_kernel_matrix(spec, xs, ys):
    """The former ``kernel_matrix``: G from r^2 for the log kernel, else from r."""
    r2 = _reference_r2(xs, ys)
    if spec.family == "laplace2d":
        return np.log(r2) * (-1.0 / (4.0 * math.pi))
    r = np.sqrt(r2)
    kr = spec.k * r
    if spec.family == "helmholtz3d":
        return np.divide(np.cos(kr) + 1j * np.sin(kr), 4.0 * math.pi * r)
    g = np.empty(r.shape, dtype=complex)
    g.real, g.imag = bessel_y0(kr) * -0.25, bessel_j0(kr) * 0.25
    return g


def _reference_kernel_gradient_y(spec, x, y):
    """The former ``kernel_gradient_y``: (dG/dr) (y - x)/r, for the log kernel (y - x) (-1/(2 pi)) / r^2."""
    d = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    r2 = _reference_r2([x], [y])[0, 0]
    if spec.family == "laplace2d":
        return d * (-1.0 / (2.0 * math.pi)) / r2
    r = math.sqrt(r2)
    kr = spec.k * r
    if spec.family == "helmholtz3d":
        dgdr = (math.cos(kr) + 1j * math.sin(kr)) * (1j * kr - 1.0) / (4.0 * math.pi * r * r)
    else:
        dgdr = complex(bessel_y1(kr) * 0.25 * spec.k, bessel_j1(kr) * -0.25 * spec.k)
    return dgdr * d / r


class TestViewsOfKernelMatrices:
    """``kernel_matrix`` and ``kernel_gradient_y`` are views of ``kernel_matrices``;
    their former formulas are kept here as references."""

    SPECS = [LAPLACE, HELM1, KernelSpec("helmholtz2d", 10.0), HELM3D]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.family}-k{s.k:g}")
    def test_kernel_matrix_bitwise_equal_to_the_former_formula(self, spec):
        rng = np.random.default_rng(11)
        # spans the Bessel evaluator's near, table and far regions at k = 10
        xs = rng.uniform(-1.0, 1.0, (37, spec.dimension))
        ys = rng.uniform(-2.0, 2.0, (53, spec.dimension))
        got, want = kernel_matrix(spec, xs, ys), _reference_kernel_matrix(spec, xs, ys)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert kernel_value(spec, xs[0], ys[0]) == complex(want[0, 0])

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.family}-k{s.k:g}")
    def test_kernel_gradient_y_equals_the_former_formula(self, spec):
        rng = np.random.default_rng(12)
        for _ in range(50):
            x, y = rng.uniform(-1.5, 1.5, (2, spec.dimension))
            got, want = kernel_gradient_y(spec, x, y), _reference_kernel_gradient_y(spec, x, y)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def _shift(p, d, eps):
    q = np.asarray(p, dtype=float).copy()
    q[d] += eps
    return q


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("helmholtz2d", 0.0)
    for family in ("laplace2d", "helmholtz2d", "helmholtz3d"):
        for k in (math.inf, math.nan):
            with pytest.raises(ValueError, match="^the wavenumber k must be finite"):
                KernelSpec(family, k)
    with pytest.raises(ValueError):
        KernelSpec("wave")
