import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracemap.operator import (
    IllConditionedError,
    LayoutError,
    LinearBoundaryOperator,
    TrainingConfig,
    TrainingDivergedError,
    _loss_and_grad,
    compute_loss,
    constant_annihilation,
    dirichlet_layouts,
    fit_least_squares,
    load_model,
    mixed_layouts,
    save_model,
    train_adam,
    training_arrays,
)
from tracemap.geometry import DomainSpec, make_boundary_grid
from tracemap.kernels import KernelSpec
from tracemap.synthesis import DatasetSpec, build_dataset


def identity_op(n=4):
    inp, out = dirichlet_layouts(n)
    return LinearBoundaryOperator(np.eye(n), inp, out)


def random_op(rng, n=6):
    inp, out = dirichlet_layouts(n)
    return LinearBoundaryOperator(rng.normal(size=(n, n)), inp, out)


class TestApply:
    def test_identity(self, rng):
        op = identity_op()
        v = rng.normal(size=4)
        np.testing.assert_array_equal(op.apply(v), v)

    def test_zero_maps_to_zero(self, rng):
        op = random_op(rng)
        np.testing.assert_array_equal(op.apply(np.zeros(6)), np.zeros(6))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), a=st.floats(-5, 5), b=st.floats(-5, 5))
    def test_linearity(self, seed, a, b):
        r = np.random.default_rng(seed)
        op = random_op(r)
        u, v = r.normal(size=6), r.normal(size=6)
        lhs = op.apply(a * u + b * v)
        rhs = a * op.apply(u) + b * op.apply(v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * max(1, np.abs(rhs).max()))

    def test_dimension_mismatch(self, rng):
        with pytest.raises(LayoutError):
            identity_op(4).apply(np.ones(5))

    def test_shape_composition_enforced(self):
        inp, out = dirichlet_layouts(4)
        with pytest.raises(LayoutError):
            LinearBoundaryOperator(np.ones((4, 5)), inp, out)
        with pytest.raises(LayoutError):
            LinearBoundaryOperator(np.ones((5, 4)), inp, out)
        grid = make_boundary_grid(DomainSpec.unit_square(), 8)
        m_inp, m_out = mixed_layouts(grid, {"G1"})
        LinearBoundaryOperator(np.zeros((8, 8)), m_inp, m_out)  # sizes agree


class TestLayouts:
    def test_mixed_layout_slot_assignment(self):
        grid = make_boundary_grid(DomainSpec.unit_square(), 40)
        inp, out = mixed_layouts(grid, {"G1", "G3"})
        assert inp[0].trace == "g" and out[0].trace == "h"
        assert inp[0].indices == out[0].indices
        assert len(inp[0].indices) == 20
        assert set(inp[0].indices) | set(inp[1].indices) == set(range(40))

    def test_partition_must_be_proper(self):
        grid = make_boundary_grid(DomainSpec.unit_square(), 40)
        with pytest.raises(LayoutError):
            mixed_layouts(grid, set())
        with pytest.raises(LayoutError):
            mixed_layouts(grid, {"G1", "G2", "G3", "G4"})
        with pytest.raises(LayoutError):
            mixed_layouts(grid, {"G9"})

    def test_mixed_training_arrays_reanchor(self, rng):
        grid = make_boundary_grid(DomainSpec.unit_square(), 40)
        inp, out = mixed_layouts(grid, {"G2"})
        g = rng.normal(size=(3, 40))
        h = rng.normal(size=(3, 40))
        X, T = training_arrays(g, h, inp, out, anchored=True)
        anchor = inp[0].indices[0]
        np.testing.assert_array_equal(X[:, 0], np.zeros(3))
        np.testing.assert_allclose(
            T[:, 10:], g[:, list(out[1].indices)] - g[:, [anchor]], rtol=1e-15
        )


def _reference_assemble(layout, g, h):
    """The former ``operator.assemble``: one trace vector in layout order."""
    parts = [np.asarray(g if b.trace == "g" else h)[list(b.indices)] for b in layout]
    return np.concatenate(parts)


def _reference_scatter(layout, vec, g_out, h_out):
    """The former ``operator.scatter``: a layout-ordered vector back into traces."""
    pos = 0
    for b in layout:
        target = g_out if b.trace == "g" else h_out
        target[list(b.indices)] = vec[pos : pos + len(b.indices)]
        pos += len(b.indices)


def _reference_mixed_training_arrays(g_rows, h_rows, input_layout, output_layout):
    """The former ``operator.mixed_training_arrays``, which always anchored."""
    anchor = input_layout[0].indices[0]
    g_anchored = g_rows - g_rows[:, [anchor]]
    inputs = np.column_stack(
        [(g_anchored if b.trace == "g" else h_rows)[:, list(b.indices)] for b in input_layout]
    )
    targets = np.column_stack(
        [(g_anchored if b.trace == "g" else h_rows)[:, list(b.indices)] for b in output_layout]
    )
    return inputs, targets


def _reference_complete(op, g, h, anchored):
    """The former solver-side completion: gather, anchor, apply, two scatters."""
    shift = g[op.input_layout[0].indices[0]] if anchored else 0.0
    g_out, h_out = np.zeros(len(g)), np.zeros(len(g))
    _reference_scatter(op.output_layout, op.apply(_reference_assemble(op.input_layout, g - shift, h)), g_out, h_out)
    g_out += shift
    _reference_scatter(op.input_layout, _reference_assemble(op.input_layout, g, h), g_out, h_out)
    return g_out, h_out


class TestSlotConvention:
    """``training_arrays`` and ``LinearBoundaryOperator.complete`` against the
    former gather/scatter code, bit for bit."""

    N = 40

    @pytest.fixture(scope="class")
    def dataset(self):
        spec = DatasetSpec(KernelSpec("laplace2d"), DomainSpec.unit_square(), n_points=self.N,
                           n_samples=30, seed=5)
        return build_dataset(spec)

    def layouts(self, name):
        if name == "dirichlet":
            return dirichlet_layouts(self.N)
        return mixed_layouts(make_boundary_grid(DomainSpec.unit_square(), self.N), name.split(","))

    @pytest.mark.parametrize("anchored", [True, False])
    @pytest.mark.parametrize("name", ["dirichlet", "G1", "G1,G3"])
    def test_training_arrays_match_the_former_code(self, dataset, rng, name, anchored):
        inp, out = self.layouts(name)
        for g_rows, h_rows in ((dataset.g_rows, dataset.h_rows), (rng.normal(size=(7, self.N)),) * 2):
            X, T = training_arrays(g_rows, h_rows, inp, out, anchored)
            if anchored:
                X_ref, T_ref = _reference_mixed_training_arrays(g_rows, h_rows, inp, out)
            else:
                X_ref = np.array([_reference_assemble(inp, g, h) for g, h in zip(g_rows, h_rows)])
                T_ref = np.array([_reference_assemble(out, g, h) for g, h in zip(g_rows, h_rows)])
            assert X.tobytes() == X_ref.tobytes() and T.tobytes() == T_ref.tobytes()

    @pytest.mark.parametrize("anchored", [True, False])
    def test_dirichlet_training_arrays_are_the_dataset_rows(self, dataset, anchored):
        # the former Dirichlet path trained on the rows as stored
        X, T = training_arrays(dataset.g_rows, dataset.h_rows, *dirichlet_layouts(self.N), anchored)
        assert X.tobytes() == dataset.g_rows.tobytes() and T.tobytes() == dataset.h_rows.tobytes()

    @pytest.mark.parametrize("anchored", [True, False])
    @pytest.mark.parametrize("name", ["dirichlet", "G1", "G1,G3"])
    def test_complete_matches_the_former_code(self, rng, name, anchored):
        inp, out = self.layouts(name)
        op = LinearBoundaryOperator(rng.normal(size=(self.N, self.N)), inp, out)
        for g, h in ((rng.normal(size=self.N), rng.normal(size=self.N)), (np.zeros(self.N), -np.zeros(self.N))):
            got = op.complete(g, h, anchored)
            want = _reference_complete(op, g, h, anchored)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


class TestComputeLoss:
    def test_perfect_predictor(self, rng):
        op = identity_op(5)
        x = rng.normal(size=(8, 5))
        assert compute_loss(op, x, x) == 0.0

    def test_zero_operator_closed_form(self, rng):
        n = 5
        inp, out = dirichlet_layouts(n)
        op = LinearBoundaryOperator(np.zeros((n, n)), inp, out)
        t = rng.normal(size=(8, n))
        expected = float(np.sum(t * t) / (8 * n))
        assert compute_loss(op, rng.normal(size=(8, n)), t) == pytest.approx(expected)

    def test_unit_weights_reduce_to_plain_mse(self, rng):
        grid = make_boundary_grid(DomainSpec.unit_square(), 8)
        inp, out = mixed_layouts(grid, {"G1"})
        W = rng.normal(size=(8, 8))
        op = LinearBoundaryOperator(W, inp, out)
        x = rng.normal(size=(4, 8))
        t = rng.normal(size=(4, 8))
        plain = float(np.mean((x @ W.T - t) ** 2))
        assert compute_loss(op, x, t) == pytest.approx(plain)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            compute_loss(identity_op(3), np.empty((0, 3)), np.empty((0, 3)))


class TestGradients:
    def test_single_layer_matches_finite_differences(self, rng):
        X = rng.normal(size=(7, 6))
        T = rng.normal(size=(7, 5))
        W = rng.normal(size=(5, 6))
        inv = 1.0 / (7 * 5)
        _, grad = _loss_and_grad(W, X, T, inv)
        eps = 1e-6
        r = np.random.default_rng(5)
        for _ in range(10):
            i, j = r.integers(0, 5), r.integers(0, 6)
            Wp, Wm = W.copy(), W.copy()
            Wp[i, j] += eps
            Wm[i, j] -= eps
            lp, _ = _loss_and_grad(Wp, X, T, inv)
            lm, _ = _loss_and_grad(Wm, X, T, inv)
            fd = (lp - lm) / (2 * eps)
            assert grad[i, j] == pytest.approx(fd, rel=1e-6)


def _reference_adam(inputs, targets, cfg):
    """The Adam loop written with a fresh array per op: ``(W, losses,
    best_epoch)`` that :func:`train_adam` must reproduce bit for bit."""
    rng = np.random.default_rng(cfg.seed)
    n_samples, n_out = len(inputs), targets.shape[1]
    W = np.zeros((n_out, inputs.shape[1]))
    m, v = np.zeros_like(W), np.zeros_like(W)
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, cfg.learning_rate
    losses = np.empty(cfg.epochs)
    best_loss, best_epoch, best_W = np.inf, -1, W.copy()
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_samples)
        epoch_losses = []
        for start in range(0, n_samples, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x, t = inputs[idx], targets[idx]
            inv_count = 1.0 / (len(idx) * n_out)
            resid = x @ W.T - t
            epoch_losses.append(float(np.sum(resid * resid) * inv_count))
            g = (2.0 * inv_count * resid).T @ x
            step += 1
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1**step)
            v_hat = v / (1.0 - b2**step)
            W -= lr * m_hat / (np.sqrt(v_hat) + eps)
        losses[epoch] = float(np.mean(epoch_losses))
        if losses[epoch] < best_loss:
            best_loss, best_epoch, best_W = losses[epoch], epoch, W.copy()
    return best_W, losses, best_epoch


class TestTrainAdam:
    def planted(self, rng, n=20, samples=200):
        Wstar = rng.normal(0, 0.3, (n, n))
        X = rng.normal(size=(samples, n))
        return Wstar, X, X @ Wstar.T

    def test_plant_and_recover(self, rng):
        Wstar, X, T = self.planted(rng)
        inp, out = dirichlet_layouts(20)
        cfg = TrainingConfig(learning_rate=1e-2, batch_size=200, epochs=5000, seed=1)
        op, report = train_adam(X, T, inp, out, cfg)
        assert report.best_loss < 1e-10
        rel = np.linalg.norm(op.W - Wstar) / np.linalg.norm(Wstar)
        assert rel < 1e-3

    def test_zero_learning_rate_keeps_parameters(self, rng):
        _, X, T = self.planted(rng, n=6, samples=30)
        inp, out = dirichlet_layouts(6)
        cfg = TrainingConfig(learning_rate=0.0, batch_size=30, epochs=20, seed=1)
        op, report = train_adam(X, T, inp, out, cfg)
        np.testing.assert_array_equal(op.W, np.zeros((6, 6)))
        # flat up to shuffle-order rounding in the batch sum
        assert np.ptp(report.losses) < 1e-15

    def test_determinism(self, rng):
        _, X, T = self.planted(rng, n=8, samples=40)
        inp, out = dirichlet_layouts(8)
        cfg = TrainingConfig(learning_rate=1e-3, batch_size=20, epochs=50, seed=9)
        op1, rep1 = train_adam(X, T, inp, out, cfg)
        op2, rep2 = train_adam(X, T, inp, out, cfg)
        np.testing.assert_array_equal(op1.W, op2.W)
        np.testing.assert_array_equal(rep1.losses, rep2.losses)

    def test_best_checkpoint_is_running_minimum(self, rng):
        _, X, T = self.planted(rng, n=8, samples=40)
        inp, out = dirichlet_layouts(8)
        cfg = TrainingConfig(learning_rate=3e-2, batch_size=20, epochs=120, seed=2)
        op, report = train_adam(X, T, inp, out, cfg)
        assert report.best_loss == report.losses.min()
        assert report.losses[report.best_epoch] == report.best_loss

    def test_divergence_aborts_with_diagnostic(self, rng):
        # Adam steps are bounded by the learning rate, so only an absurd
        # rate overflows the quadratic loss into non-finite territory.
        _, X, T = self.planted(rng, n=6, samples=30)
        inp, out = dirichlet_layouts(6)
        cfg = TrainingConfig(learning_rate=1e200, batch_size=30, epochs=10, seed=0)
        with pytest.raises(TrainingDivergedError, match="epoch"):
            with np.errstate(all="ignore"):
                train_adam(X, T, inp, out, cfg)

    def test_bitwise_equal_to_reference_loop_dirichlet(self, rng):
        _, X, T = self.planted(rng, n=12, samples=70)  # a short last batch
        inp, out = dirichlet_layouts(12)
        cfg = TrainingConfig(learning_rate=3e-2, batch_size=20, epochs=60, seed=4)
        op, report = train_adam(X, T, inp, out, cfg)
        W, losses, best_epoch = _reference_adam(X, T, cfg)
        assert op.W.tobytes() == W.tobytes()
        assert report.losses.tobytes() == losses.tobytes()
        assert report.best_epoch == best_epoch

    def test_bitwise_equal_to_reference_loop_mixed(self, rng):
        grid = make_boundary_grid(DomainSpec.unit_square(), 24)
        inp, out = mixed_layouts(grid, {"G1"})
        g, h = rng.normal(size=(90, 24)), rng.normal(size=(90, 24))
        X, T = training_arrays(g, h, inp, out, anchored=True)
        cfg = TrainingConfig(learning_rate=1e-2, batch_size=25, epochs=40, seed=6)
        op, report = train_adam(X, T, inp, out, cfg)
        W, losses, best_epoch = _reference_adam(X, T, cfg)
        assert op.W.tobytes() == W.tobytes()
        assert report.losses.tobytes() == losses.tobytes()
        assert report.best_epoch == best_epoch

    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_non_positive_counts_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            TrainingConfig(**{field: value})

    @pytest.mark.parametrize("field", ["learning_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rates_and_weights_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            TrainingConfig(**{field: value})

    def test_batch_larger_than_dataset_rejected(self, rng):
        _, X, T = self.planted(rng, n=6, samples=30)
        inp, out = dirichlet_layouts(6)
        with pytest.raises(ValueError):
            train_adam(X, T, inp, out, TrainingConfig(batch_size=31, epochs=1))

    def test_training_log_csv_shape(self, rng):
        _, X, T = self.planted(rng, n=6, samples=30)
        inp, out = dirichlet_layouts(6)
        _, report = train_adam(X, T, inp, out, TrainingConfig(learning_rate=1e-3, batch_size=30, epochs=5, seed=0))
        lines = report.to_csv().splitlines()
        assert lines[0] == "epoch,mean_loss,best_loss"
        assert len(lines) == 6

    def test_training_log_cells_are_plain_floats(self, rng):
        _, X, T = self.planted(rng, n=6, samples=30)
        inp, out = dirichlet_layouts(6)
        cfg = TrainingConfig(learning_rate=3e-1, batch_size=10, epochs=40, seed=0)
        _, report = train_adam(X, T, inp, out, cfg)
        cells = np.array([[float(c) for c in line.split(",")] for line in report.to_csv().splitlines()[1:]])
        best = [min(report.losses[: e + 1]) for e in range(cfg.epochs)]
        assert cells[:, 0].tolist() == list(range(cfg.epochs))
        assert cells[:, 1].tobytes() == report.losses.tobytes()
        assert cells[:, 2].tobytes() == np.array(best).tobytes()
        assert not (cells[:, 1] == cells[:, 2]).all()  # the running minimum is exercised


class TestLeastSquares:
    def test_planted_recovery(self, rng):
        Wstar = rng.normal(size=(12, 12))
        X = rng.normal(size=(100, 12))
        inp, out = dirichlet_layouts(12)
        op = fit_least_squares(X, X @ Wstar.T, inp, out)
        rel = np.linalg.norm(op.W - Wstar) / np.linalg.norm(Wstar)
        assert rel < 1e-8

    def test_underdetermined_takes_ridge_path(self, rng):
        X = rng.normal(size=(8, 12))  # fewer samples than slots
        T = rng.normal(size=(8, 12))
        inp, out = dirichlet_layouts(12)
        op = fit_least_squares(X, T, inp, out)
        assert np.isfinite(compute_loss(op, X, T))

    def test_zero_data_is_ill_conditioned(self):
        inp, out = dirichlet_layouts(4)
        with pytest.raises(IllConditionedError):
            fit_least_squares(np.zeros((6, 4)), np.zeros((6, 4)), inp, out)

    def test_weights_do_not_change_minimizer(self, rng):
        grid = make_boundary_grid(DomainSpec.unit_square(), 8)
        inp, out = mixed_layouts(grid, {"G1"})
        X = rng.normal(size=(30, 8))
        T = rng.normal(size=(30, 8))
        op = fit_least_squares(X, T, inp, out)
        base = compute_loss(op, X, T)
        for w in (op.W + 1e-6 * rng.normal(size=(8, 8)) for _ in range(3)):
            other = LinearBoundaryOperator(w, inp, out)
            assert compute_loss(other, X, T) >= base


class TestModelIO:
    def test_round_trip_bitwise(self, rng):
        op = random_op(rng)
        again = load_model(save_model(op))
        np.testing.assert_array_equal(op.W, again.W)
        v = rng.normal(size=6)
        np.testing.assert_array_equal(op.apply(v), again.apply(v))
        assert again.input_layout == op.input_layout

    def test_kernel_recorded_when_known(self, rng):
        op = random_op(rng)
        assert "kernel" not in json.loads(save_model(op))
        assert load_model(save_model(op)).kernel is None
        op.kernel = KernelSpec("helmholtz2d", 10.0)
        assert load_model(save_model(op)).kernel == KernelSpec("helmholtz2d", 10.0)

    @pytest.mark.parametrize("record,message", [
        ({"family": "laplace2d", "k": True}, "sidecar field 'kernel.k' must be a number, got True"),
        ({"family": "laplace2d"}, "sidecar field 'kernel.k' is missing"),
        ({"family": 2, "k": 0.0}, "sidecar field 'kernel.family' must be a string, got 2"),
        ([], "sidecar field 'kernel' must be an object, got []"),
    ])
    def test_kernel_record_read_by_the_typed_reader(self, rng, record, message):
        payload = json.loads(save_model(random_op(rng)))
        payload["kernel"] = record
        with pytest.raises(ValueError, match="^" + re.escape(f"malformed model file: {message}") + "$"):
            load_model(json.dumps(payload))

    def test_model_bytes_match_per_float_loop(self, rng):
        W = rng.normal(size=(4, 4))
        W[0] = [-0.0, 5e-324, -2.2250738585072014e-308, np.inf]
        W[1] = [-np.inf, 1e308, 0.1 + 0.2, 0.0]
        op = LinearBoundaryOperator(W, *dirichlet_layouts(4), KernelSpec("helmholtz2d", 10.0))
        text = save_model(op)
        payload = json.loads(text)
        payload["layers"][0]["entries"] = [repr(float(v)) for v in op.W.ravel()]
        assert json.dumps(payload) == text

    def test_truncated_file_rejected(self, rng):
        text = save_model(random_op(rng))
        with pytest.raises(ValueError):
            load_model(text[: len(text) // 2])

    def test_layout_mismatch_detected(self, rng):
        op = random_op(rng)
        payload = json.loads(save_model(op))
        payload["layers"][0]["shape"] = [5, 6]
        with pytest.raises(ValueError):
            load_model(json.dumps(payload))

    @pytest.mark.parametrize("edit", ["empty", "nan", "inf"])
    def test_empty_or_non_finite_layers_rejected(self, rng, edit):
        payload = json.loads(save_model(random_op(rng)))
        if edit == "empty":
            payload["layers"] = []
        else:
            payload["layers"][0]["entries"][3] = edit
        with pytest.raises(ValueError, match="malformed model file"):
            load_model(json.dumps(payload))

    def test_legacy_two_layer_file_loads_as_product(self, rng):
        # Stacks saved by earlier versions apply their layers in file order.
        inp, out = dirichlet_layouts(3)
        L1 = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0]])
        L2 = np.array([[1.0, 0.0], [0.5, 1.0], [0.0, 3.0]])
        text = json.dumps({
            "input_layout": [{"trace": "g", "segment": "all", "indices": [0, 1, 2]}],
            "output_layout": [{"trace": "h", "segment": "all", "indices": [0, 1, 2]}],
            "layers": [
                {"shape": [2, 3], "entries": ["1.0", "2.0", "0.0", "0.0", "1.0", "-1.0"]},
                {"shape": [3, 2], "entries": ["1.0", "0.0", "0.5", "1.0", "0.0", "3.0"]},
            ],
        })
        op = load_model(text)
        assert op.input_layout == inp and op.output_layout == out
        np.testing.assert_array_equal(op.W, L2 @ L1)
        v = rng.normal(size=3)
        np.testing.assert_allclose(op.apply(v), L2 @ (L1 @ v), rtol=1e-14)

    def test_constant_annihilation_metric(self):
        n = 4
        inp, out = dirichlet_layouts(n)
        op = LinearBoundaryOperator(np.eye(n), inp, out)
        assert constant_annihilation(op) == pytest.approx(1.0)
        row_killer = np.eye(n) - np.full((n, n), 1.0 / n)
        op2 = LinearBoundaryOperator(row_killer, inp, out)
        assert constant_annihilation(op2) < 1e-14
