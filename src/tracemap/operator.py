"""Bias-free linear boundary-to-boundary operators and their training.

The operator is one dense bias-free matrix ``W`` (400x400 by default)
mapping an input trace vector to the complementary trace vector.  Vector
slots are described by layout blocks so mixed boundary problems can state
which points and which trace type (g or h) each slot carries.

Training minimizes the weighted squared trace misfit
``(lambda_1 * ||pred - h||^2 on Dirichlet-side slots
 + lambda_2 * ||pred - g||^2 on Neumann-side slots) / (N1 + N2)``
averaged over the batch, with plain Adam on the matrix entries and a
best-loss checkpoint.  Because the model is linear the loss gradient is
matrix algebra; no autodiff framework is involved.  A ridge-regularized
normal-equations solve provides the exact minimizer as an independent
oracle.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .geometry import BoundaryGrid
from .kernels import KernelSpec


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


def assemble(layout: Layout, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Gather full-boundary traces into the layout's vector order."""
    parts = [np.asarray(g if b.trace == "g" else h)[list(b.indices)] for b in layout]
    return np.concatenate(parts)


def mixed_training_arrays(
    g_rows: np.ndarray, h_rows: np.ndarray, input_layout: Layout, output_layout: Layout
):
    """Slice full-trace sample rows into mixed input/target matrices.

    Dirichlet values are re-anchored at the first point of the Dirichlet
    part so the subtraction is reproducible from the data known at solve
    time (harmless when that point is already the dataset anchor).
    """
    anchor = input_layout[0].indices[0]
    g_anchored = g_rows - g_rows[:, [anchor]]
    inputs = np.column_stack(
        [
            (g_anchored if b.trace == "g" else h_rows)[:, list(b.indices)]
            for b in input_layout
        ]
    )
    targets = np.column_stack(
        [
            (g_anchored if b.trace == "g" else h_rows)[:, list(b.indices)]
            for b in output_layout
        ]
    )
    return inputs, targets


def scatter(layout: Layout, vec: np.ndarray, g_out: np.ndarray, h_out: np.ndarray) -> None:
    """Write a layout-ordered vector back into full-boundary trace arrays."""
    if len(vec) != layout_size(layout):
        raise LayoutError("vector length does not match the layout")
    pos = 0
    for b in layout:
        target = g_out if b.trace == "g" else h_out
        target[list(b.indices)] = vec[pos : pos + len(b.indices)]
        pos += len(b.indices)


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


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = 1e-4
    batch_size: int = 1000
    epochs: int = 50_000
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    lambda1: float = 1.0
    lambda2: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0.0:
            raise ValueError("learning rate must be nonnegative")
        if self.lambda1 <= 0.0 or self.lambda2 <= 0.0:
            raise ValueError("loss weights must be positive")


@dataclass(eq=False)
class TrainReport:
    losses: np.ndarray  # per-epoch mean training loss
    best_loss: float
    best_epoch: int
    wall_time: float

    def to_csv(self) -> str:
        lines = ["epoch,mean_loss,best_loss"]
        best = np.inf
        for e, loss in enumerate(self.losses):
            best = min(best, loss)
            lines.append(f"{e},{loss!r},{best!r}")
        return "\n".join(lines) + "\n"


def slot_weights(output_layout: Layout, cfg: TrainingConfig) -> np.ndarray:
    """Per-output-slot loss weights: lambda_1 on slots predicting Neumann
    data for the Dirichlet part, lambda_2 on slots predicting Dirichlet
    data for the Neumann part."""
    w = np.empty(layout_size(output_layout))
    pos = 0
    for b in output_layout:
        lam = cfg.lambda1 if b.trace == "h" else cfg.lambda2
        w[pos : pos + len(b.indices)] = lam
        pos += len(b.indices)
    return w


def compute_loss(
    op: LinearBoundaryOperator,
    inputs: np.ndarray,
    targets: np.ndarray,
    cfg: TrainingConfig = TrainingConfig(),
) -> float:
    """Mean over the batch of the slot-weighted squared misfit / (N1+N2)."""
    inputs = np.atleast_2d(inputs)
    targets = np.atleast_2d(targets)
    if inputs.shape[0] == 0:
        raise ValueError("empty batch")
    if inputs.shape[1] != op.input_dim or targets.shape[1] != op.output_dim:
        raise LayoutError("batch shapes do not match the operator")
    lam = slot_weights(op.output_layout, cfg)
    resid = op.apply(inputs) - targets
    return float(np.sum(lam * resid * resid) / (inputs.shape[0] * op.output_dim))


def _loss_and_grad(W, x, t, lam, inv_count):
    """Weighted MSE and its gradient dL/dW, both in closed form."""
    resid = x @ W.T - t
    weighted = lam * resid
    loss = float(np.sum(weighted * resid) * inv_count)
    return loss, (2.0 * inv_count * weighted).T @ x


def train_adam(
    inputs: np.ndarray,
    targets: np.ndarray,
    input_layout: Layout,
    output_layout: Layout,
    cfg: TrainingConfig = TrainingConfig(),
) -> tuple[LinearBoundaryOperator, TrainReport]:
    """Adam on the matrix entries from ``W = 0``; returns the best-loss
    checkpoint.  One epoch is a full pass over the data in shuffled batches.
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
    lam = slot_weights(output_layout, cfg)
    m = np.zeros_like(W)
    v = np.zeros_like(W)
    b1, b2, eps, lr = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps, cfg.learning_rate

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
            loss, g = _loss_and_grad(W, x, t, lam, inv_count)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, step {step}; "
                    "reduce the learning rate"
                )
            epoch_losses.append(loss)
            step += 1
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1**step)
            v_hat = v / (1.0 - b2**step)
            W -= lr * m_hat / (np.sqrt(v_hat) + eps)
        losses[epoch] = float(np.mean(epoch_losses))
        if losses[epoch] < best_loss:
            best_loss = losses[epoch]
            best_epoch = epoch
            best_W = W.copy()
    wall = time.perf_counter() - t0
    op = LinearBoundaryOperator(best_W, input_layout, output_layout)
    report = TrainReport(losses=losses, best_loss=float(best_loss), best_epoch=best_epoch, wall_time=wall)
    return op, report


def fit_least_squares(
    inputs: np.ndarray,
    targets: np.ndarray,
    input_layout: Layout,
    output_layout: Layout,
    ridge_factor: float = 1e-10,
) -> LinearBoundaryOperator:
    """Exact minimizer via ridge-regularized normal equations.

    Solves ``(X^T X + eps I) W^T = X^T T`` with
    ``eps = ridge_factor * trace(X^T X) / n`` so the conditioning guard is
    scale invariant.  The per-slot loss weights scale each column's
    independent problem uniformly, so they do not change the minimizer.
    """
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    n_in = layout_size(input_layout)
    n_out = layout_size(output_layout)
    if inputs.shape[1] != n_in or targets.shape[1] != n_out:
        raise LayoutError("dataset shapes do not match the layouts")
    gram = inputs.T @ inputs
    eps = ridge_factor * np.trace(gram) / n_in
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
            {"shape": list(op.W.shape), "entries": [repr(float(v)) for v in op.W.ravel()]}
        ],
    }
    if op.kernel is not None:
        payload["kernel"] = {"family": op.kernel.family, "k": op.kernel.k}
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
            np.array([float(v) for v in layer["entries"]]).reshape(layer["shape"])
            for layer in payload["layers"]
        ]
        if not layers:
            raise ValueError("no layers")
        if not all(np.isfinite(w).all() for w in layers):
            raise ValueError("non-finite entry")
        W = layers[0]
        for w in layers[1:]:
            W = w @ W
        inp = _layout_from_payload(payload["input_layout"])
        out = _layout_from_payload(payload["output_layout"])
        kernel = KernelSpec(**payload["kernel"]) if "kernel" in payload else None
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
