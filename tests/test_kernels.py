import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bessel_series_oracle, j0_first_zero, laplacian_stencil
from tracemap.kernels import (
    X_SWITCH,
    BesselDomainError,
    KernelSpec,
    SingularEvaluationError,
    bessel,
    bessel_j0,
    bessel_j1,
    bessel_y0,
    bessel_y1,
    kernel_gradient_y,
    kernel_matrix,
    kernel_normal_derivative_y,
    kernel_value,
)

# Frozen from the arbitrary-precision oracle (tests/oracles.py).
J0_FIRST_ZERO = 2.404825557695773
Y0_AT_1 = 0.08825696421567696
Y1_AT_1 = -0.7812128213002887
J1_AT_2_5 = 0.4970941024642741

LAPLACE = KernelSpec("laplace2d")
HELM1 = KernelSpec("helmholtz2d", 1.0)
HELM3D = KernelSpec("helmholtz3d", 2.0)


class TestBessel:
    def test_values_at_zero(self):
        assert bessel("J", 0, 0.0) == 1.0
        assert bessel("J", 1, 0.0) == 0.0

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
            assert abs(bessel(kind, order, float(x)) - ref) <= 1e-10 * scale

    @pytest.mark.parametrize("fn", [bessel_j0, bessel_j1, bessel_y0, bessel_y1])
    def test_series_asymptotic_continuity(self, fn):
        below = fn(X_SWITCH)
        above = fn(X_SWITCH + 1e-13)
        assert abs(above - below) < 1e-9 * max(abs(below), 1e-3)

    def test_domain_errors(self):
        with pytest.raises(BesselDomainError):
            bessel_y0(0.0)
        with pytest.raises(BesselDomainError):
            bessel_y1(-1.0)
        with pytest.raises(BesselDomainError):
            bessel_j0(-0.5)
        with pytest.raises(ValueError):
            bessel("J", 2, 1.0)

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

    def test_normal_derivative_projection(self):
        n = np.array([0.6, 0.8])
        v = kernel_normal_derivative_y(LAPLACE, (0.0, 0.0), (1.0, 0.0), n)
        grad = kernel_gradient_y(LAPLACE, (0.0, 0.0), (1.0, 0.0))
        assert v == pytest.approx(grad @ n)

    def test_matrix_agrees_with_scalar(self):
        xs = np.array([[0.0, 0.0], [0.5, 0.5]])
        ys = np.array([[1.0, 0.0], [0.0, 2.0], [1.5, 1.5]])
        mat = kernel_matrix(HELM1, xs, ys)
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                assert mat[i, j] == pytest.approx(kernel_value(HELM1, x, y))


def _shift(p, d, eps):
    q = np.asarray(p, dtype=float).copy()
    q[d] += eps
    return q


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("helmholtz2d", 0.0)
    with pytest.raises(ValueError):
        KernelSpec("wave")
