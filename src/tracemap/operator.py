"""Bias-free linear boundary-to-boundary operators and their training.

The operator is one dense bias-free matrix ``W`` (400x400 by default)
mapping an input trace vector to the complementary trace vector.  Vector
slots are described by layout blocks so mixed boundary problems can state
which points and which trace type (g or h) each slot carries.

Training minimizes the mean squared trace misfit over the batch and the
output slots, with plain Adam on the matrix entries and a best-loss
checkpoint.  Because the model is linear the loss gradient is
matrix algebra; no autodiff framework is involved.  The truncated-SVD
least-squares minimizer is the independent oracle.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .geometry import BoundaryGrid, DomainSpec
from .kernels import KernelSpec
from .textio import float_cells, json_field, parse_floats, table_text

_ADAM_B1, _ADAM_B2, _ADAM_EPS = 0.9, 0.999, 1e-8
CUTOFF = 1e-8  # the least-squares fit drops singular values below this times the largest


class LayoutError(ValueError):
    """Operator layout does not match the data it is applied to."""


class TrainingDivergedError(RuntimeError):
    """Non-finite loss encountered during optimization."""


class IllConditionedError(np.linalg.LinAlgError):
    """Training data the least-squares fit refuses: non-finite or all zero (rank 0)."""


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
    know (a no-op for Dirichlet layouts: the dataset is anchored there).
    Each matrix is gathered straight from the rows, block by block."""
    anchor = g_rows[:, [input_layout[0].indices[0]]]

    def gather(layout):
        out = np.empty((len(g_rows), layout_size(layout)))
        pos = 0
        for b in layout:
            cols = out[:, pos : pos + len(b.indices)]
            # mode "clip" (the indices are in range) copies with no temporary, unlike "raise"
            np.take(g_rows if b.trace == "g" else h_rows, b.indices, axis=1, out=cols, mode="clip")
            if anchored and b.trace == "g":
                cols -= anchor
            pos += len(b.indices)
        return out

    return gather(input_layout), gather(output_layout)


@dataclass(eq=False)
class LinearBoundaryOperator:
    """One bias-free dense matrix ``W``; ``apply`` maps ``v`` to ``W v``.
    ``kernel`` and ``domain``, when known, are the fundamental solution and
    the domain of the training data."""

    W: np.ndarray
    input_layout: Layout
    output_layout: Layout
    kernel: KernelSpec | None = None
    domain: DomainSpec | None = None

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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


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
) -> tuple[LinearBoundaryOperator, int]:
    """The minimum-norm least-squares ``W`` over the singular directions of
    the inputs above ``CUTOFF`` times the largest singular value (truncated
    SVD, LAPACK ``gelsd``), and the number of those directions (the
    numerical rank).  Non-finite or all-zero data is refused before LAPACK
    sees it."""
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if inputs.shape[1] != layout_size(input_layout) or targets.shape[1] != layout_size(output_layout):
        raise LayoutError("dataset shapes do not match the layouts")
    if not (np.isfinite(inputs).all() and np.isfinite(targets).all()):
        raise IllConditionedError("training data holds non-finite values")
    if not inputs.any():
        raise IllConditionedError("training inputs are all zero (rank 0)")
    wt, _, rank, _ = np.linalg.lstsq(inputs, targets, rcond=CUTOFF)
    return LinearBoundaryOperator(wt.T, input_layout, output_layout), int(rank)


# ---------------------------------------------------------------------------
# Model file I/O
# ---------------------------------------------------------------------------


def _layout_payload(layout: Layout):
    return [
        {"trace": b.trace, "segment": b.segment, "indices": list(b.indices)}
        for b in layout
    ]


def _layout_from_payload(payload: dict, name: str, n: int) -> Layout:
    """The layout record ``payload[name]`` over an ``n``-point boundary; a
    ``ValueError`` names a missing or mistyped field, or an index outside
    ``0 <= i < n``."""
    layout = []
    for i, record in enumerate(json_field(payload, name, list)):
        where = f"{name}[{i}]"
        block, prefix = json_field({where: record}, where, dict), where + "."
        indices = json_field(block, "indices", list, prefix)
        indices = tuple(json_field({f"indices[{j}]": v}, f"indices[{j}]", int, prefix) for j, v in enumerate(indices))
        for j, v in enumerate(indices):
            if not 0 <= v < n:
                raise ValueError(f"sidecar field '{prefix}indices[{j}]' must be in 0 <= i < {n}, got {v}")
        layout.append(LayoutBlock(json_field(block, "trace", str, prefix), json_field(block, "segment", str, prefix), indices))
    return tuple(layout)


def save_model(op: LinearBoundaryOperator) -> str:
    """JSON text; ``W`` is stored as the single entry of a ``"layers"`` list,
    followed by the ``"kernel"`` and ``"domain"`` records when known."""
    payload = {
        "input_layout": _layout_payload(op.input_layout),
        "output_layout": _layout_payload(op.output_layout),
        "layers": [
            {"shape": list(op.W.shape), "entries": list(float_cells(op.W))}
        ],
    }
    if op.kernel is not None:
        payload["kernel"] = op.kernel.to_payload()
    if op.domain is not None:
        payload["domain"] = op.domain.to_payload()
    return json.dumps(payload)


def load_model(text: str) -> LinearBoundaryOperator:
    """Inverse of :func:`save_model`.  A file without a ``"kernel"`` or
    ``"domain"`` record loads with ``None`` in its place."""
    try:
        payload = json.loads(text)
        if len(payload["layers"]) != 1:
            raise ValueError(f"expected 1 layer, got {len(payload['layers'])}")
        (layer,) = payload["layers"]
        W = parse_floats(layer["entries"], "layer 0").reshape(layer["shape"])
        if W.ndim != 2:
            raise ValueError(f"the layers make a {W.ndim}-D array, not a matrix")
        inp = _layout_from_payload(payload, "input_layout", W.shape[1])
        out = _layout_from_payload(payload, "output_layout", W.shape[1])
        kernel = KernelSpec.from_payload(json_field(payload, "kernel", dict)) if "kernel" in payload else None
        domain = DomainSpec.from_payload(json_field(payload, "domain", dict)) if "domain" in payload else None
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"malformed model file: {exc}") from exc
    return LinearBoundaryOperator(W, inp, out, kernel, domain)

