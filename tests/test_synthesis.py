import csv
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import laplacian_stencil
from tracemap import synthesis
from tracemap.geometry import DomainSpec, PolarCurve, PolarTerm, boundary_distance, contains, make_boundary_grid
from tracemap.kernels import KernelSpec
from tracemap.synthesis import (
    ConfigurationError,
    Dataset,
    DatasetSpec,
    DegenerateSampleError,
    TracePair,
    build_dataset,
    build_sample,
    dataset_checksum,
    dataset_from_csv,
    dataset_to_csv,
    normalize_pair,
    sample_simplex_weights,
    sample_source_points,
    synthesize_trace_pair,
)

SQUARE = DomainSpec.unit_square()


def small_spec(**kw):
    defaults = dict(
        kernel=KernelSpec("laplace2d"),
        domain=SQUARE,
        n_points=80,
        n_samples=10,
        seed=7,
    )
    defaults.update(kw)
    return DatasetSpec(**defaults)


class TestSourceSampling:
    def test_points_outside_with_margin(self, rng):
        spec = small_spec()
        pts = sample_source_points(spec, rng, 50)
        assert not contains(SQUARE, pts).any()
        assert (boundary_distance(SQUARE, pts) >= spec.min_boundary_distance).all()

    def test_deterministic_under_seed(self):
        spec = small_spec()
        a = sample_source_points(spec, np.random.default_rng(42), 5)
        b = sample_source_points(spec, np.random.default_rng(42), 5)
        np.testing.assert_array_equal(a, b)

    def test_box_equal_to_domain_bbox_fails(self):
        with pytest.raises(ConfigurationError):
            small_spec(source_box=(0.0, 1.0))

    def test_box_barely_larger_rejects_until_limit(self):
        # nothing outside the domain is ever accepted at distance >= 1 here
        spec = small_spec(source_box=(-0.0001, 1.0001), min_boundary_distance=1.0)
        with pytest.raises(ConfigurationError, match="10\\^6"):
            sample_source_points(spec, np.random.default_rng(0), 1)


def _eager_source_points(spec, rng, n):
    """The former sampler: filters every candidate of each chunk."""
    out = np.empty((n, spec.domain.dimension))
    got = rejected = 0
    while got < n:
        cand = rng.uniform(*spec.source_box, size=(synthesis._CHUNK, spec.domain.dimension))
        ok = ~contains(spec.domain, cand)
        ok &= boundary_distance(spec.domain, cand) >= spec.min_boundary_distance
        idx = np.nonzero(ok)[0]
        take = idx[: n - got]
        out[got : got + len(take)] = cand[take]
        got += len(take)
        rejected = rejected + synthesis._CHUNK if len(idx) == 0 else 0
        if rejected >= synthesis._REJECTION_LIMIT:
            raise ConfigurationError("source sampling rejected 10^6 candidates; box too small")
    return out


class TestLazySourceFilter:
    @pytest.mark.parametrize("domain", [
        SQUARE,
        DomainSpec.polar(1.0),
        DomainSpec.polar(0.65, [PolarTerm("sin", 0.2, 5)]),
        DomainSpec.multi_loop(PolarCurve(1.0), PolarCurve(0.4)),
    ], ids=["square", "circle", "star5", "annulus"])
    def test_dataset_bytes_equal_the_eager_filter(self, domain, monkeypatch):
        spec = small_spec(domain=domain, n_points=40, n_samples=2)
        lazy = dataset_checksum(dataset_to_csv(build_dataset(spec)))
        monkeypatch.setattr(synthesis, "sample_source_points", _eager_source_points)
        assert dataset_checksum(dataset_to_csv(build_dataset(spec))) == lazy

    def test_filter_stops_at_n_but_takes_the_same_points(self):
        spec = small_spec(source_box=(-1.0, 2.0))  # about 1 in 9 candidates is inside
        for n in (1, 70, 300):
            lazy = sample_source_points(spec, np.random.default_rng(n), n)
            np.testing.assert_array_equal(lazy, _eager_source_points(spec, np.random.default_rng(n), n))


class TestSimplexWeights:
    def test_single_weight(self, rng):
        np.testing.assert_array_equal(sample_simplex_weights(1, rng), [1.0])

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 10_000))
    def test_nonnegative_and_sum_one(self, n, seed):
        c = sample_simplex_weights(n, np.random.default_rng(seed))
        assert (c >= 0).all()
        assert abs(c.sum() - 1.0) <= 1e-15

    def test_sequential_stick_bounds(self):
        # each draw is uniform on what remains: c2 <= 1 - c1, etc.
        for seed in range(200):
            c = sample_simplex_weights(3, np.random.default_rng(seed))
            assert c[1] <= 1.0 - c[0] + 1e-15
            assert c[2] == pytest.approx(1.0 - c[0] - c[1], abs=1e-15)


class TestSynthesizeTracePair:
    def test_log_kernel_example_values(self):
        grid = make_boundary_grid(SQUARE, 400)
        pair = synthesize_trace_pair(
            small_spec(n_points=400), grid, np.array([[3.0, 4.0]]), np.array([1.0])
        )
        # first grid point sits at (0.005, 0) on the bottom edge
        p = grid.points[0]
        r2 = (p[0] - 3.0) ** 2 + (p[1] - 4.0) ** 2
        assert pair.g[0] == pytest.approx(math.log(r2), rel=1e-14)
        assert pair.g[0] == pytest.approx(math.log(25.0), abs=0.01)
        # normal (0,-1): h = -2(y-4)/r^2
        assert pair.h[0] == pytest.approx(-2.0 * (p[1] - 4.0) / r2, rel=1e-13)
        assert pair.h[0] == pytest.approx(0.32, abs=0.01)

    def test_neumann_matches_finite_differences(self):
        grid = make_boundary_grid(SQUARE, 40)
        spec = small_spec(n_points=40)
        sources = np.array([[2.0, -1.0], [-3.0, 4.0]])
        weights = np.array([0.3, 0.7])
        pair = synthesize_trace_pair(spec, grid, sources, weights)
        step = 1e-6
        for i in (0, 13, 27):
            p, n = grid.points[i], grid.normals[i]
            def u(q):
                return sum(
                    w * math.log((q[0] - s[0]) ** 2 + (q[1] - s[1]) ** 2)
                    for s, w in zip(sources, weights)
                )
            fd = (u(p + step * n) - u(p - step * n)) / (2 * step)
            assert pair.h[i] == pytest.approx(fd, rel=1e-7)

    def test_source_inside_rejected(self):
        grid = make_boundary_grid(SQUARE, 40)
        with pytest.raises(ValueError, match="inside"):
            synthesize_trace_pair(
                small_spec(n_points=40), grid, np.array([[0.5, 0.5]]), np.array([1.0])
            )

    def test_harmonicity_of_generator_at_interior_probes(self, rng):
        spec = small_spec(n_points=40)
        grid = make_boundary_grid(SQUARE, 40)
        sources = sample_source_points(spec, rng, 3)
        weights = sample_simplex_weights(3, rng)

        def u(pts):
            out = np.zeros(len(pts))
            for s, w in zip(sources, weights):
                out += w * np.log((pts[:, 0] - s[0]) ** 2 + (pts[:, 1] - s[1]) ** 2)
            return out

        probes = rng.uniform(0.1, 0.9, size=(20, 2))
        for p in probes:
            assert abs(laplacian_stencil(u, p)) < 1e-4

    def test_helmholtz_generator_satisfies_equation(self, rng):
        k = 3.0
        spec = small_spec(kernel=KernelSpec("helmholtz2d", k), n_points=40)
        grid = make_boundary_grid(SQUARE, 40)
        sources = sample_source_points(spec, rng, 3)
        weights = sample_simplex_weights(3, rng)
        kinds = np.array([0, 1, 0])
        from tracemap.kernels import bessel_j0, bessel_y0

        def u(pts):
            out = np.zeros(len(pts))
            for s, w, kind in zip(sources, weights, kinds):
                r = np.hypot(pts[:, 0] - s[0], pts[:, 1] - s[1])
                out += w * (bessel_j0(k * r) if kind == 0 else bessel_y0(k * r))
            return out

        for p in rng.uniform(0.2, 0.8, size=(12, 2)):
            residual = laplacian_stencil(u, p) + k * k * u(p[None, :])[0]
            assert abs(residual) < 1e-3

        pair = synthesize_trace_pair(spec, grid, sources, weights, kinds)
        step = 1e-6
        for i in (5, 21):
            p, n = grid.points[i], grid.normals[i]
            fd = (u((p + step * n)[None, :])[0] - u((p - step * n)[None, :])[0]) / (2 * step)
            assert pair.h[i] == pytest.approx(fd, rel=1e-5)

    def test_helmholtz3d_traces_match_finite_differences(self, rng):
        k = 2.0
        sphere = DomainSpec.sphere()
        spec = DatasetSpec(
            kernel=KernelSpec("helmholtz3d", k), domain=sphere, n_points=64, n_samples=1, seed=0
        )
        grid = make_boundary_grid(sphere, 64)
        sources = np.array([[3.0, 1.0, -2.0], [-2.5, 2.0, 1.5]])
        weights = np.array([0.4, 0.6])
        kinds = np.array([0, 1])
        pair = synthesize_trace_pair(spec, grid, sources, weights, kinds)

        def u(q):
            total = 0.0
            for s, w, kind in zip(sources, weights, kinds):
                r = np.linalg.norm(q - s)
                val = math.cos(k * r) if kind == 0 else math.sin(k * r)
                total += w * val / (4 * math.pi * r)
            return total

        step = 1e-6
        for i in (0, 17, 45):
            p, n = grid.points[i], grid.normals[i]
            assert pair.g[i] == pytest.approx(u(p), rel=1e-12)
            fd = (u(p + step * n) - u(p - step * n)) / (2 * step)
            assert pair.h[i] == pytest.approx(fd, rel=1e-5)

    def test_linearity_in_weights(self, rng):
        spec = small_spec(n_points=40)
        grid = make_boundary_grid(SQUARE, 40)
        sources = sample_source_points(spec, rng, 3)
        w1 = np.array([0.2, 0.3, 0.5])
        w2 = np.array([0.6, 0.1, 0.3])
        a, b = 1.7, -0.4
        p1 = synthesize_trace_pair(spec, grid, sources, w1)
        p2 = synthesize_trace_pair(spec, grid, sources, w2)
        p12 = synthesize_trace_pair(spec, grid, sources, a * w1 + b * w2)
        np.testing.assert_allclose(p12.g, a * p1.g + b * p2.g, atol=1e-12)
        np.testing.assert_allclose(p12.h, a * p1.h + b * p2.h, atol=1e-12)

    def test_constant_shift_leaves_neumann_bitwise_equal(self, rng):
        # the Neumann trace of a constant is zero, so shifting g by 5 must
        # not touch h at all
        spec = small_spec(n_points=40)
        grid = make_boundary_grid(SQUARE, 40)
        sources = sample_source_points(spec, rng, 3)
        weights = sample_simplex_weights(3, rng)
        pair = synthesize_trace_pair(spec, grid, sources, weights)
        shifted = TracePair(g=pair.g + 5.0, h=pair.h.copy())
        n1 = normalize_pair(pair, anchored=True)
        n2 = normalize_pair(shifted, anchored=True)
        assert np.array_equal(n1.h, n2.h)
        np.testing.assert_allclose(n1.g, n2.g, atol=1e-14)


def _reference_log_traces(sources, weights, points, normals):
    """The former Laplace traces: f_i = ln((x-xi)^2 + (y-yi)^2),
    grad f_i = 2 (p - xi) / r^2."""
    diff = points[None, :, :] - sources[:, None, :]
    r2 = np.sum(diff * diff, axis=2)
    g = weights @ np.log(r2)
    grad = 2.0 * diff / r2[:, :, None]
    h = weights @ np.einsum("spd,pd->sp", grad, normals)
    return g, h


def _reference_helmholtz2d_traces(sources, weights, kinds, k, points, normals):
    """The former 2D Helmholtz traces: J0(kr) or Y0(kr) per source, with
    radial derivative -k J1(kr) resp. -k Y1(kr)."""
    from tracemap.kernels import bessel_j0, bessel_j1, bessel_y0, bessel_y1

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


def _reference_helmholtz3d_traces(sources, weights, kinds, k, points, normals):
    """The former 3D traces: cos(kr)/(4 pi r) or sin(kr)/(4 pi r) per source."""
    diff = points[None, :, :] - sources[:, None, :]
    r = np.sqrt(np.sum(diff * diff, axis=2))
    kr = k * r
    c, s_ = np.cos(kr), np.sin(kr)
    denom = 4.0 * np.pi * r
    val = np.where(kinds[:, None] == 0, c, s_) / denom
    d_re = (-kr * s_ - c) / (denom * r)
    d_im = (kr * c - s_) / (denom * r)
    dval = np.where(kinds[:, None] == 0, d_re, d_im)
    g = weights @ val
    proj = np.einsum("spd,pd->sp", diff, normals) / r
    h = weights @ (dval * proj)
    return g, h


def _max_rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestReferenceFormulas:
    """Trace pairs evaluated through kernels.py against the former
    per-family formulas kept above."""

    @pytest.mark.parametrize("k", [1.0, 10.0])
    @pytest.mark.parametrize("domain", [SQUARE, DomainSpec.polar(1.0)], ids=["square", "circle"])
    def test_helmholtz2d_pairs_bitwise_equal(self, domain, k):
        spec = small_spec(kernel=KernelSpec("helmholtz2d", k), domain=domain, n_points=100)
        grid = make_boundary_grid(domain, 100)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            sources = sample_source_points(spec, rng, 4)
            weights = sample_simplex_weights(4, rng)
            kinds = np.array([0, 1, 1, 0]) if seed == 0 else rng.integers(0, 2, size=4)
            pair = synthesize_trace_pair(spec, grid, sources, weights, kinds)
            g, h = _reference_helmholtz2d_traces(sources, weights, kinds, k, grid.points, grid.normals)
            assert pair.g.tobytes() == g.tobytes()
            assert pair.h.tobytes() == h.tobytes()

    @pytest.mark.parametrize("domain", [SQUARE, DomainSpec.polar(1.0)], ids=["square", "circle"])
    def test_laplace_pairs_match(self, domain):
        spec = small_spec(domain=domain, n_points=100)
        grid = make_boundary_grid(domain, 100)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            sources = sample_source_points(spec, rng, 3)
            weights = sample_simplex_weights(3, rng)
            pair = synthesize_trace_pair(spec, grid, sources, weights)
            g, h = _reference_log_traces(sources, weights, grid.points, grid.normals)
            assert _max_rel(pair.g, g) <= 1e-14
            assert _max_rel(pair.h, h) <= 1e-14

    @pytest.mark.parametrize("k", [2.0, 10.0])
    def test_helmholtz3d_pairs_match(self, k):
        sphere = DomainSpec.sphere()
        spec = DatasetSpec(kernel=KernelSpec("helmholtz3d", k), domain=sphere, n_points=64, n_samples=1)
        grid = make_boundary_grid(sphere, 64)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            sources = sample_source_points(spec, rng, 3)
            weights = sample_simplex_weights(3, rng)
            kinds = rng.integers(0, 2, size=3)
            pair = synthesize_trace_pair(spec, grid, sources, weights, kinds)
            g, h = _reference_helmholtz3d_traces(sources, weights, kinds, k, grid.points, grid.normals)
            assert _max_rel(pair.g, g) <= 1e-14
            assert _max_rel(pair.h, h) <= 1e-14


class TestNormalization:
    def test_worked_example(self):
        pair = TracePair(g=np.array([2.0, 3.0, 4.0]), h=np.array([1.0, -2.0, 1.0]))
        out = normalize_pair(pair, anchored=True)
        np.testing.assert_array_equal(out.g, [0.0, 0.5, 1.0])
        np.testing.assert_array_equal(out.h, [0.5, -1.0, 0.5])

    def test_scale_only_mode(self):
        pair = TracePair(g=np.array([2.0, 3.0]), h=np.array([4.0, -8.0]))
        out = normalize_pair(pair, anchored=False)
        np.testing.assert_array_equal(out.g, [0.25, 0.375])

    def test_zero_neumann_is_degenerate(self):
        pair = TracePair(g=np.array([1.0, 2.0]), h=np.zeros(2))
        with pytest.raises(DegenerateSampleError):
            normalize_pair(pair, anchored=True)

    def test_normalized_invariants(self):
        ds = build_dataset(small_spec())
        assert np.all(ds.g_rows[:, 0] == 0.0)
        np.testing.assert_allclose(np.abs(ds.h_rows).max(axis=1), 1.0, rtol=1e-15)


class TestBuildDataset:
    def test_shapes_and_determinism(self):
        spec = small_spec()
        d1 = build_dataset(spec)
        d2 = build_dataset(spec)
        assert d1.g_rows.shape == (10, 80)
        assert dataset_to_csv(d1) == dataset_to_csv(d2)

    def test_samples_independent_of_build_order(self):
        spec = small_spec()
        grid = make_boundary_grid(SQUARE, 80)
        full = build_dataset(spec, grid)
        lone = build_sample(spec, grid, 7)
        np.testing.assert_array_equal(full.g_rows[7], lone.g)
        np.testing.assert_array_equal(full.h_rows[7], lone.h)

    def test_different_seeds_differ(self):
        a = build_dataset(small_spec(seed=1))
        b = build_dataset(small_spec(seed=2))
        assert dataset_checksum(dataset_to_csv(a)) != dataset_checksum(dataset_to_csv(b))

    def test_csv_round_trip(self):
        spec = small_spec()
        grid = make_boundary_grid(SQUARE, 80)
        ds = build_dataset(spec, grid)
        text = dataset_to_csv(ds)
        assert text.splitlines()[0] == "kind,n_points"
        for end in ("\r\n", "\n"):
            again = dataset_from_csv(text.replace("\r\n", end), spec, grid)
            assert again.g_rows.tobytes() == ds.g_rows.tobytes()
            assert again.h_rows.tobytes() == ds.h_rows.tobytes()

    def test_csv_bytes_match_csv_writer(self):
        def reference(ds):
            buf = io.StringIO()
            w = csv.writer(buf)
            w.writerow(["kind", "n_points"])
            for i in range(ds.n_samples):
                w.writerow(["g"] + [repr(float(v)) for v in ds.g_rows[i]])
                w.writerow(["h"] + [repr(float(v)) for v in ds.h_rows[i]])
            return buf.getvalue()

        spec = small_spec()
        grid = make_boundary_grid(SQUARE, 8)
        odd = np.array([[np.nan, np.inf, -np.inf, -0.0, 0.1 + 0.2, 1e-300, -5e-324, 1.0]])
        for g, h in ((odd, -odd), (np.zeros((0, 8)), np.zeros((0, 8)))):
            ds = Dataset(spec=spec, grid=grid, g_rows=g, h_rows=h)
            assert dataset_to_csv(ds) == reference(ds)
        ds = build_dataset(spec)
        assert dataset_to_csv(ds) == reference(ds)

    @pytest.mark.parametrize("end", ["\r\n", "\n"])
    @pytest.mark.parametrize("line, edit, message", [
        (5, lambda row: "", "line 5: expected a 'h' row, found ''"),
        (4, lambda row: row.replace(",", ",nan,", 1).rsplit(",", 1)[0], "line 4: non-finite value nan"),
        (6, lambda row: row.rsplit(",", 1)[0], "line 6: 79 values, expected 80"),
        (6, lambda row: row + ",0.5", "line 6: 81 values, expected 80"),
        (3, lambda row: row + "x", "line 3: could not convert"),
        (2, lambda row: "h" + row[1:], "line 2: expected a 'g' row"),
        (21, lambda row: None, "line 20: 'g' row without its 'h' row"),
    ], ids=["blank", "nan", "short", "long", "non-numeric", "order", "unpaired"])
    def test_csv_defects_name_the_line(self, end, line, edit, message):
        spec = small_spec()
        grid = make_boundary_grid(SQUARE, 80)
        rows = dataset_to_csv(build_dataset(spec, grid)).splitlines()
        rows[line - 1] = edit(rows[line - 1])
        text = end.join(row for row in rows if row is not None) + end
        with pytest.raises(ValueError, match="^" + message):
            dataset_from_csv(text, spec, grid)

    def test_csv_sample_count_must_match_the_spec(self):
        spec = small_spec(n_samples=50)
        grid = make_boundary_grid(SQUARE, 80)
        rows = dataset_to_csv(build_dataset(spec, grid)).splitlines()
        for n in (20, 0):
            with pytest.raises(ValueError, match=f"^{n} samples, expected n_samples = 50$"):
                dataset_from_csv("\n".join(rows[: 1 + 2 * n]) + "\n", spec, grid)

    def test_stored_arrays_are_read_only_views(self):
        g, h = np.arange(4.0), np.ones(4)
        pair = TracePair(g=g, h=h)
        g_rows, h_rows = np.zeros((2, 8)), np.ones((2, 8))
        ds = Dataset(spec=small_spec(), grid=make_boundary_grid(SQUARE, 8),
                     g_rows=g_rows, h_rows=h_rows)
        for mine, stored in ((g, pair.g), (h, pair.h), (g_rows, ds.g_rows), (h_rows, ds.h_rows)):
            assert mine.flags.writeable and not stored.flags.writeable
            assert np.shares_memory(mine, stored)
        g[0] = 7.0
        assert pair.g[0] == 7.0

    def test_sidecar_mentions_normalization(self):
        spec = small_spec(kernel=KernelSpec("helmholtz2d", 5.0))
        assert '"normalization": "scale_only"' in spec.to_json()
        assert '"k": 5.0' in spec.to_json()

    @pytest.mark.parametrize("kernel, domain", [
        (KernelSpec("laplace2d"), SQUARE),
        (KernelSpec("helmholtz2d", 10.0), DomainSpec.polar(1.0)),
        (KernelSpec("laplace2d"), DomainSpec.polar(0.65, [PolarTerm("sin", 0.2, 5)])),
        (KernelSpec("laplace2d"), DomainSpec.multi_loop(PolarCurve(1.0), PolarCurve(0.4))),
        (KernelSpec("helmholtz3d", 2.0), DomainSpec.sphere()),
    ], ids=["square", "circle", "star5", "annulus", "sphere"])
    def test_sidecar_round_trip(self, kernel, domain):
        spec = DatasetSpec(kernel, domain, n_points=64, n_samples=3, n_kernels_per_sample=2,
                           source_box=(-6.5, 7.25), min_boundary_distance=0.01, seed=11)
        again = DatasetSpec.from_json(spec.to_json())
        assert again == spec
        assert again.to_json() == spec.to_json()

    def test_sidecar_without_anchor_index_reads_as_zero(self):
        payload = json.loads(small_spec().to_json())
        assert "anchor_index" not in payload
        assert DatasetSpec.from_json(json.dumps(payload)) == small_spec()
        payload["anchor_index"] = 0  # as older files wrote it
        assert DatasetSpec.from_json(json.dumps(payload)) == small_spec()

    @pytest.mark.parametrize("index", [5, -1, 40])
    def test_sidecar_anchor_index_other_than_zero_refused(self, index):
        payload = json.loads(small_spec().to_json())
        payload["anchor_index"] = index
        with pytest.raises(ValueError, match=f"^sidecar field 'anchor_index' must be 0, got {index}$"):
            DatasetSpec.from_json(json.dumps(payload))

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p.pop("seed"), "sidecar field 'seed' is missing"),
        (lambda p: p["kernel"].pop("k"), "sidecar field 'kernel.k' is missing"),
        (lambda p: p.pop("domain"), "sidecar field 'domain' is missing"),
        (lambda p: p["domain"].pop("shape"), "sidecar field 'domain.shape' is missing"),
        (lambda p: p.update(n_points="80"), "sidecar field 'n_points' must be an integer, got '80'"),
        (lambda p: p.update(n_samples=2.0), "sidecar field 'n_samples' must be an integer, got 2.0"),
        (lambda p: p.update(seed=True), "sidecar field 'seed' must be an integer, got True"),
        (lambda p: p.update(kernel=[]), "sidecar field 'kernel' must be an object, got []"),
        (lambda p: p["kernel"].update(k=None), "sidecar field 'kernel.k' must be a number, got None"),
        (lambda p: p.update(source_box=[-7.0]), r"sidecar field 'source_box' must be two numbers"),
        (lambda p: p.update(anchor_index=0.5), "sidecar field 'anchor_index' must be an integer"),
    ], ids=["seed", "k", "domain", "shape", "n_points", "n_samples", "bool", "kernel", "k-null",
            "box", "anchor"])
    def test_sidecar_field_defects_are_named(self, edit, message):
        payload = json.loads(small_spec().to_json())
        edit(payload)
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            DatasetSpec.from_json(json.dumps(payload))

    @pytest.mark.parametrize("domain, edit, message", [
        ("star5", lambda d: d["outer"]["terms"][0].__setitem__(2, 5.5),
         "sidecar field 'domain.outer.terms[0].frequency' must be an integer, got 5.5"),
        ("star5", lambda d: d["outer"]["terms"][0].__setitem__(2, True),
         "sidecar field 'domain.outer.terms[0].frequency' must be an integer, got True"),
        ("star5", lambda d: d["outer"]["terms"][0].__setitem__(1, math.nan),
         "sidecar field 'domain.outer.terms[0].amplitude' must be finite, got nan"),
        ("star5", lambda d: d["outer"]["terms"][0].__setitem__(0, 3),
         "sidecar field 'domain.outer.terms[0].kind' must be a string, got 3"),
        ("star5", lambda d: d["outer"]["terms"].__setitem__(0, ["sin", 0.2]),
         "sidecar field 'domain.outer.terms[0]' must be a [kind, amplitude, frequency] list, got ['sin', 0.2]"),
        ("star5", lambda d: d["outer"].update(base="0.65"), "sidecar field 'domain.outer.base' must be a number, got '0.65'"),
        ("star5", lambda d: d["outer"].update(base=True), "sidecar field 'domain.outer.base' must be a number, got True"),
        ("star5", lambda d: d["outer"].update(center=[0.0, 0.0, 0.0]),
         "sidecar field 'domain.outer.center' must be two numbers, got [0.0, 0.0, 0.0]"),
        ("star5", lambda d: d.pop("outer"), "sidecar field 'domain.outer' is missing"),
        ("annulus", lambda d: d["inner"].update(center=[0.0, "0"]),
         "sidecar field 'domain.inner.center' must be a number, got '0'"),
        ("sphere", lambda d: d.update(center=[0.0, 0.0]), "sidecar field 'domain.center' must be three numbers, got [0.0, 0.0]"),
        ("sphere", lambda d: d.update(radius=math.inf), "sidecar field 'domain.radius' must be finite, got inf"),
        ("square", lambda d: d.update(shape=1), "sidecar field 'domain.shape' must be a string, got 1"),
    ], ids=["fractional-frequency", "bool-frequency", "nan-amplitude", "kind", "short-term", "string-base",
            "bool-base", "3-number-center", "outer", "inner-center", "sphere-center", "sphere-radius", "shape"])
    def test_sidecar_domain_defects_are_named(self, domain, edit, message):
        domains = {
            "square": (KernelSpec("laplace2d"), SQUARE),
            "star5": (KernelSpec("laplace2d"), DomainSpec.polar(0.65, [PolarTerm("sin", 0.2, 5)])),
            "annulus": (KernelSpec("laplace2d"), DomainSpec.multi_loop(PolarCurve(1.0), PolarCurve(0.4))),
            "sphere": (KernelSpec("helmholtz3d", 2.0), DomainSpec.sphere()),
        }
        kernel, dom = domains[domain]
        payload = json.loads(small_spec(kernel=kernel, domain=dom).to_json())
        edit(payload["domain"])
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            DatasetSpec.from_json(json.dumps(payload))

    def test_non_finite_source_box_in_sidecar_named(self):
        payload = json.loads(small_spec().to_json())
        payload["source_box"][1] = math.inf
        with pytest.raises(ValueError, match=r"^sidecar field 'source_box' must be finite, got inf$"):
            DatasetSpec.from_json(json.dumps(payload))

    def test_grid_size_mismatch(self):
        grid = make_boundary_grid(SQUARE, 40)
        with pytest.raises(ConfigurationError):
            build_dataset(small_spec(n_points=80), grid)

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_non_positive_sample_count_refused(self, n_samples):
        with pytest.raises(ConfigurationError, match="n_samples must be at least 1"):
            small_spec(n_samples=n_samples)

    @pytest.mark.parametrize("count", [0, -1])
    def test_non_positive_kernels_per_sample_refused(self, count):
        with pytest.raises(ConfigurationError, match=f"^n_kernels_per_sample must be at least 1, got {count}$"):
            small_spec(n_kernels_per_sample=count)

    @pytest.mark.parametrize("kernel,domain,message", [
        (KernelSpec("laplace2d"), DomainSpec.sphere(), "kernel 'laplace2d' is 2-D, domain 'sphere3d' is 3-D"),
        (KernelSpec("helmholtz3d", 2.0), SQUARE, "kernel 'helmholtz3d' is 3-D, domain 'unit_square' is 2-D"),
    ])
    def test_kernel_and_domain_dimensions_must_agree(self, kernel, domain, message):
        with pytest.raises(ConfigurationError, match="^" + re.escape(message) + "$"):
            small_spec(kernel=kernel, domain=domain)

    @pytest.mark.parametrize("box", [(-math.inf, 7.0), (-7.0, math.inf), (math.nan, 7.0), (-7.0, math.nan)])
    def test_non_finite_box_refused(self, box):
        with pytest.raises(ConfigurationError, match="^source_box ends must be finite"):
            small_spec(source_box=box)

    @pytest.mark.parametrize("box", [(-1e300, 1e300), (-1e154, 1e154), (-1.7e308, 1.7e308)])
    def test_box_whose_squared_distances_overflow_refused(self, box):
        with pytest.raises(ConfigurationError, match="^source_box .* squared distances overflow"):
            small_spec(source_box=box)

    @pytest.mark.parametrize("family,domain", [("helmholtz2d", SQUARE), ("helmholtz3d", DomainSpec.sphere())])
    def test_wavenumber_whose_k_r_overflows_refused(self, family, domain):
        with pytest.raises(ConfigurationError, match=r"^the wavenumber k = 1e\+308 is so large that k r overflows"):
            small_spec(kernel=KernelSpec(family, 1e308), domain=domain)
        small_spec(kernel=KernelSpec(family, 1e306), domain=domain)  # k times the box diagonal stays finite

    def test_widest_box_keeps_squared_distances_finite(self):
        # 2 span^2 just below DBL_MAX: every source-to-domain r^2 is finite
        half = 0.49 * math.sqrt(np.finfo(float).max / 2.0)
        spec = small_spec(source_box=(-half, half), n_samples=2)
        ds = build_dataset(spec)
        assert np.isfinite(ds.g_rows).all() and np.isfinite(ds.h_rows).all()

    @pytest.mark.parametrize("distance", [math.nan, math.inf, 0.0, -1e-3])
    def test_bad_min_boundary_distance_refused(self, distance):
        with pytest.raises(ConfigurationError, match="^min_boundary_distance must be finite and positive"):
            small_spec(min_boundary_distance=distance)
