"""Training data synthesis from fundamental solutions.

Each sample is a Dirichlet/Neumann trace pair of an exact solution built
as a convex combination of kernels centered at points outside the domain:
log kernels ``ln((x-xi)^2+(y-yi)^2)`` for the Laplace family, J0/Y0 parts
of the Hankel kernel for 2D Helmholtz, and re/im parts of
``e^{ikr}/(4 pi r)`` in 3D.  Pairs are normalized in two steps: subtract
the first Dirichlet entry (Laplace mode only; constants are harmonic) and
divide both traces by the max absolute Neumann value.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .geometry import BoundaryGrid, DomainSpec, boundary_distance, contains, freeze_arrays
from .kernels import KernelSpec, bessel_j0, bessel_j1, bessel_y0, bessel_y1
from .textio import float_cells, parse_floats, table_text

_REJECTION_LIMIT = 10**6
_CHUNK = 4096
_FILTER_ROWS = 64  # candidates filtered per call: polyline distances are costly


class ConfigurationError(ValueError):
    """Dataset settings cannot produce samples (e.g. box too small)."""


class DegenerateSampleError(ValueError):
    """Sample with an identically zero Neumann trace; cannot be normalized."""


@dataclass(frozen=True)
class NormRecord:
    """Invertible record of the two-step normalization."""

    subtracted_constant: float
    scale: float


@dataclass(frozen=True, eq=False)
class TracePair:
    """One training sample: Dirichlet trace g and Neumann trace h."""

    g: np.ndarray
    h: np.ndarray
    norm_record: NormRecord | None = None

    def __post_init__(self):
        freeze_arrays(self, "g", "h")


@dataclass(frozen=True)
class DatasetSpec:
    kernel: KernelSpec
    domain: DomainSpec
    n_points: int = 400
    n_samples: int = 10_000
    n_kernels_per_sample: int = 3
    source_box: tuple[float, ...] = (-7.0, 7.0)
    min_boundary_distance: float = 1e-3
    seed: int = 0
    anchor_index: int = 0  # Dirichlet entry subtracted in Laplace mode

    def __post_init__(self):
        if self.min_boundary_distance <= 0.0:
            raise ConfigurationError("min_boundary_distance must be positive")
        lo, hi = self.source_box
        if not lo < hi:
            raise ConfigurationError("source box must have positive extent")
        blo, bhi = self.domain.bounding_box()
        if not (np.all(blo > lo) and np.all(bhi < hi)):
            raise ConfigurationError("source box must strictly contain the domain")

    @property
    def normalization_mode(self) -> str:
        # Constants solve the Laplace equation but not Helmholtz, so only
        # the Laplace family gets the first-entry subtraction.
        return "laplace_mode" if self.kernel.family == "laplace2d" else "scale_only"

    def to_json(self) -> str:
        payload = {
            "kernel": {"family": self.kernel.family, "k": self.kernel.k},
            "domain": self.domain.to_payload(),
            "n_points": self.n_points,
            "n_samples": self.n_samples,
            "n_kernels_per_sample": self.n_kernels_per_sample,
            "source_box": list(self.source_box),
            "min_boundary_distance": self.min_boundary_distance,
            "seed": self.seed,
            "anchor_index": self.anchor_index,
            "normalization": self.normalization_mode,
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def sample_source_points(spec: DatasetSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform points in the source box, outside the domain and at least
    ``min_boundary_distance`` from its boundary; deterministic per rng.

    Candidates are drawn ``_CHUNK`` at a time but filtered ``_FILTER_ROWS``
    at a time, only until ``n`` are accepted: the accepted points are the
    first ``n`` that pass, in draw order, as if the whole chunk were
    filtered."""
    lo, hi = spec.source_box
    dim = spec.domain.dimension
    out = np.empty((n, dim))
    got = 0
    rejected = 0
    while got < n:
        cand = rng.uniform(lo, hi, size=(_CHUNK, dim))
        got_before = got
        for start in range(0, _CHUNK, _FILTER_ROWS):
            part = cand[start : start + _FILTER_ROWS]
            ok = ~contains(spec.domain, part)
            ok &= boundary_distance(spec.domain, part) >= spec.min_boundary_distance
            take = part[ok][: n - got]
            out[got : got + len(take)] = take
            got += len(take)
            if got == n:
                break
        if got == got_before:  # no row of the chunk passed
            rejected += _CHUNK
            if rejected >= _REJECTION_LIMIT:
                raise ConfigurationError(
                    "source sampling rejected 10^6 candidates; box too small"
                )
        else:
            rejected = 0
    return out


def sample_simplex_weights(n: int, rng: np.random.Generator) -> np.ndarray:
    """Sequential stick weights: c1 ~ U[0,1], each next uniform on what
    remains, the last takes the exact remainder; sums to 1, all >= 0."""
    if n < 1:
        raise ValueError("need at least one weight")
    c = np.empty(n)
    remainder = 1.0
    for i in range(n - 1):
        c[i] = rng.uniform(0.0, remainder)
        remainder -= c[i]
    c[n - 1] = remainder
    return c


def _log_kernel_traces(sources, weights, points, normals):
    # f_i = ln((x-xi)^2 + (y-yi)^2); grad f_i = 2 (p - xi) / r^2
    diff = points[None, :, :] - sources[:, None, :]
    r2 = np.sum(diff * diff, axis=2)
    g = weights @ np.log(r2)
    grad = 2.0 * diff / r2[:, :, None]
    h = weights @ np.einsum("spd,pd->sp", grad, normals)
    return g, h


def _helmholtz2d_traces(sources, weights, kinds, k, points, normals):
    # Per source, the kernel is J0(kr) or Y0(kr); the radial derivative is
    # -k J1(kr) resp. -k Y1(kr).
    diff = points[None, :, :] - sources[:, None, :]
    r = np.sqrt(np.sum(diff * diff, axis=2))
    kr = k * r
    val = np.empty_like(r)
    dval = np.empty_like(r)
    for s, kind in enumerate(kinds):
        if kind == 0:
            val[s] = bessel_j0(kr[s])
            dval[s] = -k * bessel_j1(kr[s])
        else:
            val[s] = bessel_y0(kr[s])
            dval[s] = -k * bessel_y1(kr[s])
    g = weights @ val
    proj = np.einsum("spd,pd->sp", diff, normals) / r
    h = weights @ (dval * proj)
    return g, h


def _helmholtz3d_traces(sources, weights, kinds, k, points, normals):
    diff = points[None, :, :] - sources[:, None, :]
    r = np.sqrt(np.sum(diff * diff, axis=2))
    kr = k * r
    c, s_ = np.cos(kr), np.sin(kr)
    denom = 4.0 * np.pi * r
    val = np.where(kinds[:, None] == 0, c, s_) / denom
    # d/dr of cos(kr)/(4 pi r) and sin(kr)/(4 pi r)
    d_re = (-kr * s_ - c) / (denom * r)
    d_im = (kr * c - s_) / (denom * r)
    dval = np.where(kinds[:, None] == 0, d_re, d_im)
    g = weights @ val
    proj = np.einsum("spd,pd->sp", diff, normals) / r
    h = weights @ (dval * proj)
    return g, h


def synthesize_trace_pair(
    spec: DatasetSpec,
    grid: BoundaryGrid,
    sources: np.ndarray,
    weights: np.ndarray,
    kinds: np.ndarray | None = None,
) -> TracePair:
    """Raw (un-normalized) trace pair of the convex kernel combination.

    ``kinds`` selects the J0/Y0 (or re/im in 3D) variant per source for
    the Helmholtz families; ignored for the log kernel.
    """
    sources = np.asarray(sources, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if len(sources) != len(weights):
        raise ValueError("need one weight per source")
    if np.any(contains(spec.domain, sources)):
        raise ValueError("kernel source inside the domain")
    fam = spec.kernel.family
    if fam == "laplace2d":
        g, h = _log_kernel_traces(sources, weights, grid.points, grid.normals)
    elif fam == "helmholtz2d":
        if kinds is None:
            kinds = np.zeros(len(sources), dtype=int)
        g, h = _helmholtz2d_traces(sources, weights, kinds, spec.kernel.k, grid.points, grid.normals)
    else:
        if kinds is None:
            kinds = np.zeros(len(sources), dtype=int)
        g, h = _helmholtz3d_traces(sources, weights, kinds, spec.kernel.k, grid.points, grid.normals)
    return TracePair(g=g, h=h)


def normalize_pair(pair: TracePair, mode: str, anchor_index: int = 0) -> TracePair:
    """Two-step normalization; stores an invertible :class:`NormRecord`.

    ``laplace_mode`` subtracts the anchor Dirichlet entry before scaling;
    ``scale_only`` just divides both traces by max |h|.
    """
    if mode not in ("laplace_mode", "scale_only"):
        raise ValueError(f"unknown normalization mode {mode!r}")
    scale = float(np.max(np.abs(pair.h)))
    if scale == 0.0:
        raise DegenerateSampleError("Neumann trace is identically zero")
    shift = float(pair.g[anchor_index]) if mode == "laplace_mode" else 0.0
    g = (pair.g - shift) / scale
    h = pair.h / scale
    return TracePair(g=g, h=h, norm_record=NormRecord(shift, scale))


def denormalize_pair(pair: TracePair) -> TracePair:
    if pair.norm_record is None:
        raise ValueError("pair carries no normalization record")
    rec = pair.norm_record
    return TracePair(g=pair.g * rec.scale + rec.subtracted_constant, h=pair.h * rec.scale)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Normalized samples as row matrices plus provenance."""

    spec: DatasetSpec
    grid: BoundaryGrid
    g_rows: np.ndarray  # (n_samples, n_points)
    h_rows: np.ndarray

    def __post_init__(self):
        freeze_arrays(self, "g_rows", "h_rows")

    @property
    def n_samples(self) -> int:
        return self.g_rows.shape[0]


def _sample_rng(seed: int, index: int) -> np.random.Generator:
    # Independent per-sample stream so serial and parallel builds agree.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def build_sample(spec: DatasetSpec, grid: BoundaryGrid, index: int) -> TracePair:
    """Deterministic normalized sample ``index`` of the dataset."""
    rng = _sample_rng(spec.seed, index)
    for _ in range(32):
        sources = sample_source_points(spec, rng, spec.n_kernels_per_sample)
        weights = sample_simplex_weights(spec.n_kernels_per_sample, rng)
        kinds = None
        if spec.kernel.family != "laplace2d":
            kinds = rng.integers(0, 2, size=spec.n_kernels_per_sample)
        raw = synthesize_trace_pair(spec, grid, sources, weights, kinds)
        try:
            return normalize_pair(raw, spec.normalization_mode, spec.anchor_index)
        except DegenerateSampleError:
            continue  # regenerate from the same stream
    raise DegenerateSampleError(f"sample {index}: could not draw a non-degenerate pair")


def build_dataset(spec: DatasetSpec, grid: BoundaryGrid | None = None) -> Dataset:
    """All samples of ``spec``; deterministic function of the seed."""
    if grid is None:
        from .geometry import make_boundary_grid

        grid = make_boundary_grid(spec.domain, spec.n_points)
    if grid.n_points != spec.n_points:
        raise ConfigurationError("grid size does not match the dataset spec")
    g_rows = np.empty((spec.n_samples, spec.n_points))
    h_rows = np.empty((spec.n_samples, spec.n_points))
    for i in range(spec.n_samples):
        pair = build_sample(spec, grid, i)
        g_rows[i] = pair.g
        h_rows[i] = pair.h
    return Dataset(spec=spec, grid=grid, g_rows=g_rows, h_rows=h_rows)


# ---------------------------------------------------------------------------
# Serialization: CSV of alternating g/h rows plus a JSON sidecar
# ---------------------------------------------------------------------------


def dataset_to_csv(ds: Dataset) -> str:
    """One ``g`` and one ``h`` row per sample, values as ``repr`` floats and
    CRLF line ends: the bytes a default ``csv.writer`` would write."""
    rows = ([kind, *float_cells(r)] for pair in zip(ds.g_rows, ds.h_rows) for kind, r in zip("gh", pair))
    return table_text("kind,n_points", rows)


def dataset_from_csv(text: str, spec: DatasetSpec, grid: BoundaryGrid) -> Dataset:
    """Inverse of :func:`dataset_to_csv` (LF or CRLF); a ``ValueError`` names a
    bad line, or the sample count when it is not ``spec.n_samples``."""
    lines = text.splitlines()
    if not lines or lines[0].split(",")[:2] != ["kind", "n_points"]:
        raise ValueError("line 1: expected dataset header 'kind,n_points'")
    rows = np.empty((2, len(lines) // 2, spec.n_points))  # [g or h, sample, point]
    for i, line in enumerate(lines[1:]):
        kind, _, cells = line.partition(",")
        if kind != "gh"[i % 2]:
            raise ValueError(f"line {i + 2}: expected a {'gh'[i % 2]!r} row, found {line[:20]!r}")
        vals = parse_floats(cells.split(","), f"line {i + 2}")
        if len(vals) != spec.n_points:
            raise ValueError(f"line {i + 2}: {len(vals)} values, expected {spec.n_points}")
        rows[i % 2, i // 2] = vals
    if len(lines) % 2 == 0:
        raise ValueError(f"line {len(lines)}: 'g' row without its 'h' row")
    if rows.shape[1] != spec.n_samples:
        raise ValueError(f"{rows.shape[1]} samples, expected n_samples = {spec.n_samples}")
    return Dataset(spec=spec, grid=grid, g_rows=rows[0], h_rows=rows[1])


def dataset_checksum(csv_text: str) -> str:
    """SHA-256 of dataset CSV text as written by :func:`dataset_to_csv`."""
    return hashlib.sha256(csv_text.encode()).hexdigest()
