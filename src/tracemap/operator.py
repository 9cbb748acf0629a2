"""Bias-free linear boundary-to-boundary operators and their training.

The operator is one dense bias-free matrix ``W`` (400x400 by default)
mapping an input trace vector to the complementary trace vector.  Vector
slots are described by layout blocks so mixed boundary problems can state
which points and which trace type (g or h) each slot carries.

Training minimizes the mean squared trace misfit over the batch and the
output slots, with plain Adam on the matrix entries and a best-loss
checkpoint.  Because the model is linear the loss gradient is
matrix algebra; no autodiff framework is involved.  A normal-equations
solve provides the ridge-regularized minimizer as an independent oracle.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .geometry import BoundaryGrid
from .kernels import KernelSpec
from .textio import float_cells, json_field, parse_floats, table_text

_ADAM_B1, _ADAM_B2, _ADAM_EPS = 0.9, 0.999, 1e-8
_RIDGE = 1e-10  # the ridge is this times the mean diagonal of the data Gram matrix


class LayoutError(ValueError):
    """Operator layout does not match the data it is applied to."""


class TrainingDivergedError(RuntimeError):
    """Non-finite loss encountered during optimization."""


class IllConditionedError(np.linalg.LinAlgError):
    """Normal equations unsolvable even with the ridge term."""


@dataclass(frozen=True)
class LayoutBlock:
    """A contiguous run of vector slots: one trace type on one point set."""

    trace: str  # "g" or "h"
    segment: str
    indices: tuple[int, ...]

    def __post_init__(self):
        if self.trace not in ("g", "h"):
            raise LayoutError(f"unknown trace type {self.trace!r}")


Layout = tuple[LayoutBlock, ...]


def layout_size(layout: Layout) -> int:
    return sum(len(b.indices) for b in layout)


def dirichlet_layouts(n: int) -> tuple[Layout, Layout]:
    """Input all-g, output all-h (the Dirichlet-to-Neumann arrangement)."""
    idx = tuple(range(n))
    return (
        (LayoutBlock("g", "all", idx),),
        (LayoutBlock("h", "all", idx),),
    )


def mixed_layouts(grid: BoundaryGrid, dirichlet_segments) -> tuple[Layout, Layout]:
    """Input [g on the Dirichlet part, h on the rest]; output the complements."""
    dirichlet_segments = set(dirichlet_segments)
    labels = set(grid.segment_id)
    unknown = dirichlet_segments - labels
    if unknown:
        raise LayoutError(f"segments {sorted(unknown)} not present on the grid")
    if not dirichlet_segments or dirichlet_segments == labels:
        raise LayoutError("a mixed partition needs both boundary condition types")
    idx_d = tuple(i for i, s in enumerate(grid.segment_id) if s in dirichlet_segments)
    idx_n = tuple(i for i, s in enumerate(grid.segment_id) if s not in dirichlet_segments)
    seg_d = "+".join(sorted(dirichlet_segments))
    seg_n = "+".join(sorted(labels - dirichlet_segments))
    inp = (LayoutBlock("g", seg_d, idx_d), LayoutBlock("h", seg_n, idx_n))
    out = (LayoutBlock("h", seg_d, idx_d), LayoutBlock("g", seg_n, idx_n))
    return inp, out


def _slots(layout: Layout, n: int) -> np.ndarray:
    """Each slot's index into the stacked trace vector ``[g, h]`` of an
    ``n``-point boundary."""
    return np.concatenate([np.add(b.indices, n if b.trace == "h" else 0) for b in layout])


def training_arrays(
    g_rows: np.ndarray, h_rows: np.ndarray, input_layout: Layout, output_layout: Layout, anchored: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Full-trace sample rows as the input and target matrices of a layout
    pair.  ``anchored`` data (Laplace) has its Dirichlet values re-anchored
    at the first input slot's point, which the inputs at solve time also
    know (a no-op for Dirichlet layouts: the dataset is anchored there)."""
    n = g_rows.shape[1]
    traces = np.hstack([g_rows, h_rows])
    if anchored:
        traces[:, :n] -= traces[:, [input_layout[0].indices[0]]]
    return traces[:, _slots(input_layout, n)], traces[:, _slots(output_layout, n)]


@dataclass(eq=False)
class LinearBoundaryOperator:
    """One bias-free dense matrix ``W``; ``apply`` maps ``v`` to ``W v``.
    ``kernel``, when known, is the fundamental solution of the training data."""

    W: np.ndarray
    input_layout: Layout
    output_layout: Layout
    kernel: KernelSpec | None = None

    def __post_init__(self):
        want = (layout_size(self.output_layout), layout_size(self.input_layout))
        if self.W.shape != want:
            raise LayoutError(
                f"matrix shape {self.W.shape} does not match the layouts {want}"
            )

    @property
    def input_dim(self) -> int:
        return self.W.shape[1]

    @property
    def output_dim(self) -> int:
        return self.W.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape[-1] != self.input_dim:
            raise LayoutError(
                f"input has {v.shape[-1]} slots, operator expects {self.input_dim}"
            )
        return v @ self.W.T

    def complete(self, g: np.ndarray, h: np.ndarray, anchored: bool) -> tuple[np.ndarray, np.ndarray]:
        """The full-boundary traces ``(g, h)`` completed by one apply: input
        slots pass through verbatim, output slots are predicted.  ``anchored``
        subtracts the Dirichlet value at the first input slot before the
        apply and adds it back to the predicted Dirichlet values, as
        :func:`training_arrays` anchored the data."""
        n = len(g)
        out = _slots(self.output_layout, n)
        shift = g[self.input_layout[0].indices[0]] if anchored else 0.0
        traces = np.concatenate([g, h])
        traces[out] = self.apply(np.concatenate([g - shift, h])[_slots(self.input_layout, n)])
        traces[out[out < n]] += shift
        return traces[:n], traces[n:]


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = 1e-4
    batch_size: int = 1000
    epochs: int = 50_000
    seed: int = 0

    def __post_init__(self):
        for field in ("epochs", "batch_size"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be at least 1, got {getattr(self, field)}")
        if not math.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate!r}")
        if self.learning_rate < 0.0:
            raise ValueError("learning rate must be nonnegative")


@dataclass(eq=False)
class TrainReport:
    losses: np.ndarray  # per-epoch mean training loss
    best_loss: float
    best_epoch: int
    wall_time: float

    def to_csv(self) -> str:
        best = np.minimum.accumulate(self.losses)
        rows = zip(map(str, range(len(self.losses))), float_cells(self.losses), float_cells(best))
        return table_text("epoch,mean_loss,best_loss", rows, end="\n")


def compute_loss(op: LinearBoundaryOperator, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean squared misfit over the batch and the output slots."""
    inputs = np.atleast_2d(inputs)
    targets = np.atleast_2d(targets)
    if inputs.shape[0] == 0:
        raise ValueError("empty batch")
    if inputs.shape[1] != op.input_dim or targets.shape[1] != op.output_dim:
        raise LayoutError("batch shapes do not match the operator")
    resid = op.apply(inputs) - targets
    return float(np.sum(resid * resid) / (inputs.shape[0] * op.output_dim))


def _loss_and_grad(W, x, t, inv_count, grad=None):
    """MSE and its gradient dL/dW, both in closed form; the gradient is
    written into ``grad`` when one is given."""
    resid = x @ W.T
    resid -= t
    loss = float(np.sum(resid * resid) * inv_count)
    resid *= 2.0 * inv_count
    return loss, np.matmul(resid.T, x, out=grad)


def train_adam(
    inputs: np.ndarray,
    targets: np.ndarray,
    input_layout: Layout,
    output_layout: Layout,
    cfg: TrainingConfig = TrainingConfig(),
) -> tuple[LinearBoundaryOperator, TrainReport]:
    """Adam on the matrix entries from ``W = 0``; returns the best-loss
    checkpoint.  One epoch is a full pass over the data in shuffled batches.
    The moments, the gradient and the step live in preallocated buffers,
    updated in place op for op as ``m = b1 m + (1 - b1) g``,
    ``v = b2 v + (1 - b2) g g`` and ``W -= lr m_hat / (sqrt(v_hat) + eps)``.
    """
    inputs = np.ascontiguousarray(inputs, dtype=float)
    targets = np.ascontiguousarray(targets, dtype=float)
    n_samples = inputs.shape[0]
    n_in = layout_size(input_layout)
    n_out = layout_size(output_layout)
    if inputs.shape[1] != n_in or targets.shape[1] != n_out:
        raise LayoutError("dataset shapes do not match the layouts")
    if cfg.batch_size > n_samples:
        raise ValueError("batch size exceeds the dataset size")

    rng = np.random.default_rng(cfg.seed)
    W = np.zeros((n_out, n_in))
    m = np.zeros_like(W)
    v = np.zeros_like(W)
    g = np.empty_like(W)
    upd = np.empty_like(W)
    b1, b2, eps, lr = _ADAM_B1, _ADAM_B2, _ADAM_EPS, cfg.learning_rate

    losses = np.empty(cfg.epochs)
    best_loss = np.inf
    best_epoch = -1
    best_W = W.copy()
    t0 = time.perf_counter()
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_samples)
        epoch_losses = []
        for start in range(0, n_samples, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            x, t = inputs[idx], targets[idx]
            inv_count = 1.0 / (len(idx) * n_out)
            loss, _ = _loss_and_grad(W, x, t, inv_count, g)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, step {step}; "
                    "reduce the learning rate"
                )
            epoch_losses.append(loss)
            step += 1
            m *= b1
            np.multiply(g, 1.0 - b1, out=upd)
            m += upd
            v *= b2
            np.multiply(g, 1.0 - b2, out=upd)
            upd *= g
            v += upd
            np.divide(m, 1.0 - b1**step, out=upd)  # m_hat
            np.divide(v, 1.0 - b2**step, out=g)  # v_hat
            np.sqrt(g, out=g)
            g += eps
            upd *= lr
            upd /= g
            W -= upd
        losses[epoch] = float(np.mean(epoch_losses))
        if losses[epoch] < best_loss:
            best_loss = losses[epoch]
            best_epoch = epoch
            np.copyto(best_W, W)
    wall = time.perf_counter() - t0
    op = LinearBoundaryOperator(best_W, input_layout, output_layout)
    report = TrainReport(losses=losses, best_loss=float(best_loss), best_epoch=best_epoch, wall_time=wall)
    return op, report


def fit_least_squares(
    inputs: np.ndarray,
    targets: np.ndarray,
    input_layout: Layout,
    output_layout: Layout,
) -> LinearBoundaryOperator:
    """Ridge-regularized minimizer via the normal equations.

    Solves ``(X^T X + eps I) W^T = X^T T`` with
    ``eps = 1e-10 * trace(X^T X) / n`` so the conditioning guard is scale
    invariant.
    """
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    n_in = layout_size(input_layout)
    n_out = layout_size(output_layout)
    if inputs.shape[1] != n_in or targets.shape[1] != n_out:
        raise LayoutError("dataset shapes do not match the layouts")
    gram = inputs.T @ inputs
    eps = _RIDGE * np.trace(gram) / n_in
    if not eps > 0.0 or not np.isfinite(eps):
        raise IllConditionedError("data Gram matrix has no usable scale")
    gram[np.diag_indices_from(gram)] += eps
    try:
        wt = np.linalg.solve(gram, inputs.T @ targets)
    except np.linalg.LinAlgError as exc:
        cond = float(np.linalg.cond(gram))
        raise IllConditionedError(
            f"normal equations unsolvable (cond ~ {cond:.2e}) despite ridge {eps:.2e}"
        ) from exc
    return LinearBoundaryOperator(wt.T, input_layout, output_layout)


# ---------------------------------------------------------------------------
# Model file I/O
# ---------------------------------------------------------------------------


def _layout_payload(layout: Layout):
    return [
        {"trace": b.trace, "segment": b.segment, "indices": list(b.indices)}
        for b in layout
    ]


def _layout_from_payload(payload) -> Layout:
    return tuple(
        LayoutBlock(b["trace"], b["segment"], tuple(int(i) for i in b["indices"]))
        for b in payload
    )


def save_model(op: LinearBoundaryOperator) -> str:
    """JSON text; ``W`` is stored as the single entry of a ``"layers"`` list."""
    payload = {
        "input_layout": _layout_payload(op.input_layout),
        "output_layout": _layout_payload(op.output_layout),
        "layers": [
            {"shape": list(op.W.shape), "entries": list(float_cells(op.W))}
        ],
    }
    if op.kernel is not None:
        payload["kernel"] = op.kernel.to_payload()
    return json.dumps(payload)


def load_model(text: str) -> LinearBoundaryOperator:
    """Inverse of :func:`save_model`.

    Files with several ``"layers"`` entries (linear stacks applied in file
    order) load as their product ``W = L_k @ ... @ L_1``.  Files without a
    ``"kernel"`` record load with ``kernel=None``.
    """
    try:
        payload = json.loads(text)
        layers = [
            parse_floats(layer["entries"], f"layer {i}").reshape(layer["shape"])
            for i, layer in enumerate(payload["layers"])
        ]
        if not layers:
            raise ValueError("no layers")
        W = layers[0]
        for w in layers[1:]:
            W = w @ W
        inp = _layout_from_payload(payload["input_layout"])
        out = _layout_from_payload(payload["output_layout"])
        kernel = KernelSpec.from_payload(json_field(payload, "kernel", dict)) if "kernel" in payload else None
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"malformed model file: {exc}") from exc
    return LinearBoundaryOperator(W, inp, out, kernel)


def constant_annihilation(op: LinearBoundaryOperator) -> float:
    """||W 1|| / sqrt(n): how well the operator kills constant shifts.

    Quality metric for Laplace-mode operators (the true Neumann trace of a
    constant is zero); tracked, not asserted, during training.
    """
    ones = np.ones(op.input_dim)
    return float(np.linalg.norm(op.apply(ones)) / np.sqrt(op.input_dim))
