"""End-to-end problem pipelines: predict the missing boundary trace with a
trained operator, then reconstruct the interior by boundary integrals
(plus a Newton-potential term when a source is present).

Every solver runs the same two steps: ``_predict`` completes the boundary
traces with one operator apply, and ``_field`` rebuilds the interior from
them with the :class:`BoundaryReconstructor` the caller built, whose kernel,
grid and evaluation points define the problem.  Because the operator is
linear and bias-free, inference does not need the training-time Neumann
scale: Laplace data is anchored at its first Dirichlet entry (the true map
annihilates constants) and nothing else is done to it, so pipelines are
homogeneous of degree one in the boundary data.

The analytic test cases come from two tables.  ``_FAMILIES`` maps a family
to its draw, ``(rng, domain, k) -> (params, u, grad_u)`` or None to reject
it.  ``SUITES`` maps each ``eval --suite`` name to the equation of the model
it checks, which ``eval`` parameters it reads (``k``, ``seed``, ``margin`` of
a 2-D evaluation grid, ``mesh_h`` of a source mesh), and its cases:
``laplace`` u1-u5 and ``poisson`` the two source cases on the Laplace kernel,
``helmholtz`` sin_sin and sin_sinh on the 2-D Helmholtz kernel at k,
``helmholtz3d`` the plane wave (boundary only).
:func:`solve_case` solves a 2-D case.  A new suite is one ``SUITES`` entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import BoundaryGrid, DomainSpec, InvalidDomainError, TriMesh, boundary_distance, contains
from .operator import LayoutError, LinearBoundaryOperator, dirichlet_layouts, mixed_layouts
from .quadrature import BoundaryReconstructor, newton_potential_many
from .textio import float_cells, table_text


class UndefinedMetricError(ValueError):
    """Relative error against an identically zero reference."""


def relative_l2(pred, exact) -> float:
    """||pred - exact||_2 / ||exact||_2 over a point set."""
    pred = np.asarray(pred)
    exact = np.asarray(exact)
    if pred.shape != exact.shape:
        raise ValueError("prediction and reference lengths differ")
    denom = float(np.linalg.norm(exact))
    if denom == 0.0:
        raise UndefinedMetricError("reference vector has zero norm")
    return float(np.linalg.norm(pred - exact) / denom)


@dataclass(eq=False)
class SolutionField:
    """Interior prediction on an evaluation point set.

    ``near_flags`` marks points closer than twice the collocation spacing
    to the boundary; reported errors exclude them (the full-grid figure
    stays available via ``relative_l2_full``).
    """

    points: np.ndarray
    pred: np.ndarray  # complex
    near_flags: np.ndarray
    exact: np.ndarray | None = None
    g_trace: np.ndarray | None = None
    h_trace: np.ndarray | None = None

    @property
    def relative_l2(self) -> float:
        if self.exact is None:
            raise UndefinedMetricError("no exact values attached")
        keep = ~self.near_flags
        return relative_l2(self.pred.real[keep], np.asarray(self.exact)[keep])

    @property
    def relative_l2_full(self) -> float:
        if self.exact is None:
            raise UndefinedMetricError("no exact values attached")
        return relative_l2(self.pred.real, np.asarray(self.exact))

    @property
    def imag_ratio(self) -> float:
        denom = float(np.linalg.norm(self.pred.real))
        return float(np.linalg.norm(self.pred.imag) / denom) if denom else 0.0

    def to_csv(self) -> str:
        exact = np.full(len(self.points), np.nan) if self.exact is None else np.asarray(self.exact, dtype=float)
        err = np.where(np.isfinite(exact), np.abs(self.pred.real - exact), np.nan)
        floats = map(float_cells, (*self.points.T, self.pred.real, self.pred.imag, exact, err))
        flags = map(str, np.asarray(self.near_flags, dtype=int).tolist())
        return table_text("x,y,u_pred_re,u_pred_im,u_exact,abs_err,flag", zip(*floats, flags))


def make_eval_grid(domain: DomainSpec, m: int = 100, margin: float = 0.0) -> np.ndarray:
    """Uniform m x m grid over the bounding box, masked to the interior and to
    points at least ``margin`` (finite, >= 0, leaving a point) from the boundary."""
    if domain.dimension != 2:
        raise InvalidDomainError(f"an evaluation grid needs a 2-D domain, got {domain.shape!r}")
    if not (math.isfinite(margin) and margin >= 0.0):
        raise ValueError(f"margin must be finite and non-negative, got {margin!r}")
    lo, hi = domain.bounding_box()
    xs = lo[0] + (np.arange(m) + 0.5) * (hi[0] - lo[0]) / m
    ys = lo[1] + (np.arange(m) + 0.5) * (hi[1] - lo[1]) / m
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    keep = contains(domain, pts)
    if margin > 0.0:
        keep &= boundary_distance(domain, pts) >= margin
    if not keep.any():
        raise ValueError(f"margin {margin!r} leaves no evaluation points")
    return pts[keep]


def _check_trace(name: str, vals: np.ndarray, n: int) -> None:
    if vals.shape != (n,):
        raise LayoutError(f"{name} has {vals.size} values, the grid has {n} points")


def _predict(op: LinearBoundaryOperator, grid: BoundaryGrid, layouts, g, h=None, anchored=False):
    """Complete the traces ``(g, h)`` with :meth:`LinearBoundaryOperator.complete`;
    ``op`` must be trained for ``layouts``."""
    if (op.input_layout, op.output_layout) != layouts:
        raise LayoutError("operator was trained for another grid size or boundary partition")
    n = grid.n_points
    g = np.asarray(g, dtype=float)
    h = np.zeros(n) if h is None else np.asarray(h, dtype=float)
    _check_trace("g_dirichlet", g, n)
    _check_trace("h_neumann", h, n)
    return op.complete(g, h, anchored)


def _field(reconstructor: BoundaryReconstructor, g, h, exact, particular=None) -> SolutionField:
    """The interior field of ``(g, h)`` at ``reconstructor.points``.
    ``particular(points) -> (values, flags)`` adds a particular solution whose
    boundary values were taken out of ``g``."""
    points = reconstructor.points
    pred, near_flags = reconstructor.field(g, h), reconstructor.near_flags
    if particular is not None:
        values, flags = particular(points)
        pred, near_flags = pred + values, near_flags | flags
    return SolutionField(
        points=points, pred=pred, near_flags=near_flags,
        exact=None if exact is None else np.asarray(exact(points), dtype=float),
        g_trace=g, h_trace=h,
    )


def solve_dirichlet(
    op: LinearBoundaryOperator, reconstructor: BoundaryReconstructor, g: np.ndarray, exact=None
) -> SolutionField:
    """Full-boundary Dirichlet data -> predicted Neumann trace -> interior at
    ``reconstructor.points``, with the reconstructor's kernel and grid.

    Laplace-family inputs are anchored by subtracting the first entry, the
    same transformation the training data saw.
    """
    grid = reconstructor.grid
    layouts = dirichlet_layouts(grid.n_points)
    g, h = _predict(op, grid, layouts, g, anchored=reconstructor.kernel.anchored)
    return _field(reconstructor, g, h, exact)


def solve_helmholtz(
    op: LinearBoundaryOperator, reconstructor: BoundaryReconstructor, g: np.ndarray, exact=None
) -> SolutionField:
    """Dirichlet Helmholtz pipeline: scale-only normalization, complex
    kernel reconstruction; the real part is the solution and the imaginary
    magnitude is a consistency diagnostic."""
    if reconstructor.kernel.family != "helmholtz2d":
        raise ValueError(f"solve_helmholtz needs a helmholtz2d reconstructor, got {reconstructor.kernel}")
    return solve_dirichlet(op, reconstructor, g, exact)


def solve_mixed(
    op: LinearBoundaryOperator, reconstructor: BoundaryReconstructor, dirichlet_segments,
    g_dirichlet: np.ndarray, h_neumann: np.ndarray, exact=None,
) -> SolutionField:
    """Mixed boundary data -> predicted complements -> merged traces ->
    interior.  Known slots pass through to the merged traces verbatim.

    ``dirichlet_segments`` (e.g. ``{"G1"}``) goes to :func:`mixed_layouts`.
    ``g_dirichlet`` / ``h_neumann`` are full-length vectors whose values
    are read only on their own segments.
    """
    if reconstructor.kernel.family != "laplace2d":
        raise ValueError(f"solve_mixed needs a laplace2d reconstructor, got {reconstructor.kernel}")
    grid = reconstructor.grid
    layouts = mixed_layouts(grid, dirichlet_segments)
    g, h = _predict(op, grid, layouts, g_dirichlet, h_neumann, anchored=reconstructor.kernel.anchored)
    return _field(reconstructor, g, h, exact)


def solve_poisson(
    op: LinearBoundaryOperator, f, g: np.ndarray, mesh: TriMesh, reconstructor: BoundaryReconstructor,
    exact=None,
) -> SolutionField:
    """Source decomposition: a Newton-potential particular part plus a
    learned harmonic part matching the corrected boundary data.

    The particular part is ``u_f(x) = (1/2pi) int ln|x-y| f(y) dy`` so that
    its Laplacian equals ``f``; the homogeneous part solves the Laplace
    problem with boundary data ``g - u_f``.  The Newton potential refuses a
    reconstructor of any kernel but ``laplace2d``.
    """
    grid = reconstructor.grid

    def particular(points):
        values, flags = newton_potential_many(reconstructor.kernel, f, mesh, points)
        return -values, flags

    g = np.asarray(g, dtype=float)
    _check_trace("g_dirichlet", g, grid.n_points)  # before g meets the Newton potential
    layouts = dirichlet_layouts(grid.n_points)
    g_harmonic = g - particular(grid.points)[0]
    g_harmonic, h = _predict(op, grid, layouts, g_harmonic, anchored=reconstructor.kernel.anchored)
    fld = _field(reconstructor, g_harmonic, h, exact, particular)
    return replace(fld, g_trace=g)


def predict_normal_derivative_3d(
    op: LinearBoundaryOperator,
    grid: BoundaryGrid,
    g: np.ndarray,
    exact_h: np.ndarray | None = None,
):
    """Boundary-only 3D prediction: no interior reconstruction.

    Returns ``(h_pred, relative_error_or_None)``.
    """
    _, h_pred = _predict(op, grid, dirichlet_layouts(grid.n_points), g)
    return h_pred, None if exact_h is None else relative_l2(h_pred, exact_h)


# ---------------------------------------------------------------------------
# Analytic test families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestCase:
    """Closed-form solution with its gradient (and source, if any)."""

    family: str
    params: dict
    u: object = field(repr=False)
    grad_u: object = field(repr=False)
    source: object = field(repr=False, default=None)

    def dirichlet(self, grid: BoundaryGrid) -> np.ndarray:
        return np.asarray(self.u(grid.points), dtype=float)

    def neumann(self, grid: BoundaryGrid) -> np.ndarray:
        grad = np.asarray(self.grad_u(grid.points), dtype=float)
        return np.einsum("ij,ij->i", grad, grid.normals)


def _u1(rng, domain, k):
    m, n = rng.uniform(-4.0, 4.0, size=2)
    p = np.array([m, n])
    if contains(domain, p) or boundary_distance(domain, p) < 1e-3:
        return None

    def u(p):
        return np.log((p[:, 0] - m) ** 2 + (p[:, 1] - n) ** 2)

    def grad(p):
        r2 = (p[:, 0] - m) ** 2 + (p[:, 1] - n) ** 2
        return 2.0 * np.column_stack([p[:, 0] - m, p[:, 1] - n]) / r2[:, None]

    return {"m": m, "n": n}, u, grad


def _u2(rng, domain, k):
    m, n = rng.uniform(-4.0, 4.0, size=2)
    if abs(m) + abs(n) < 1e-2:
        return None

    def u(p):
        return m * (p[:, 0] ** 2 - p[:, 1] ** 2) + n * p[:, 0] * p[:, 1]

    def grad(p):
        return np.column_stack([2 * m * p[:, 0] + n * p[:, 1], -2 * m * p[:, 1] + n * p[:, 0]])

    return {"m": m, "n": n}, u, grad


def _u3(rng, domain, k):
    # sin(m x - t1) e^{m y - t2}: harmonic for any m (the oscillation and
    # growth rates must match for the Laplacian to cancel).
    m, t1, t2 = rng.uniform(-4.0, 4.0, size=3)
    if abs(m) < 1e-2:
        return None

    def u(p):
        return np.sin(m * p[:, 0] - t1) * np.exp(m * p[:, 1] - t2)

    def grad(p):
        e = np.exp(m * p[:, 1] - t2)
        return np.column_stack(
            [m * np.cos(m * p[:, 0] - t1) * e, m * np.sin(m * p[:, 0] - t1) * e]
        )

    return {"m": m, "t1": t1, "t2": t2}, u, grad


def _u4(rng, domain, k):
    m, n = rng.uniform(-4.0, 4.0, size=2)
    if abs(m) + abs(n) < 1e-2:
        return None

    def u(p):
        return m * p[:, 0] + n * p[:, 1]

    def grad(p):
        return np.tile([m, n], (len(p), 1))

    return {"m": m, "n": n}, u, grad


def _u5(rng, domain, k):
    def u(p):
        return p[:, 0] ** 3 - 3.0 * p[:, 0] * p[:, 1] ** 2

    def grad(p):
        return np.column_stack([3 * p[:, 0] ** 2 - 3 * p[:, 1] ** 2, -6 * p[:, 0] * p[:, 1]])

    return {}, u, grad


def _sin_sin(rng, domain, k):
    if k is None:
        raise ValueError("Helmholtz families need a wavenumber")
    a = rng.uniform(0.05 * k, 0.95 * k)
    p1, p2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    b = math.sqrt(k * k - a * a)

    def u(p):
        return np.sin(a * p[:, 0] - p1) * np.sin(b * p[:, 1] - p2)

    def grad(p):
        return np.column_stack(
            [a * np.cos(a * p[:, 0] - p1) * np.sin(b * p[:, 1] - p2),
             b * np.sin(a * p[:, 0] - p1) * np.cos(b * p[:, 1] - p2)]
        )

    return {"k": k, "a": a, "b": b, "p1": p1, "p2": p2}, u, grad


def _sin_sinh(rng, domain, k):
    if k is None:
        raise ValueError("Helmholtz families need a wavenumber")
    # d <= sqrt(3) k keeps c <= 2k; the absolute cap keeps sinh's
    # dynamic range resolvable at the fixed collocation density.
    d = rng.uniform(0.05 * k, min(math.sqrt(3.0) * k, 6.0))
    q1, q2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
    c = math.sqrt(k * k + d * d)

    def u(p):
        return np.sin(c * p[:, 0] - q1) * np.sinh(d * p[:, 1] - q2)

    def grad(p):
        return np.column_stack(
            [c * np.cos(c * p[:, 0] - q1) * np.sinh(d * p[:, 1] - q2),
             d * np.sin(c * p[:, 0] - q1) * np.cosh(d * p[:, 1] - q2)]
        )

    return {"k": k, "c": c, "d": d, "q1": q1, "q2": q2}, u, grad


_FAMILIES = {
    "u1": _u1, "u2": _u2, "u3": _u3, "u4": _u4, "u5": _u5,
    "sin_sin": _sin_sin, "sin_sinh": _sin_sinh,
}


def make_test_suite(
    family: str,
    domain: DomainSpec,
    k: float | None = None,
    seed: int = 0,
    n_cases: int = 10,
) -> list[TestCase]:
    """Sampled test cases of one analytic family; deterministic per seed.

    Laplace parameters are uniform in [-4, 4] (the log-kernel source is
    redrawn until it lies outside the domain, at least 1e-3 from it);
    Helmholtz parameters satisfy k^2 = a^2 + b^2 = c^2 - d^2 with a, b in
    (0, k], c, d in (0, 2k], c > d.  Near-degenerate draws (vanishing trace norm) are
    rejected with bounded retries.
    """
    draw = _FAMILIES.get(family)
    if draw is None:
        raise ValueError(f"unknown test family {family!r}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    cases: list[TestCase] = []
    for _ in range(n_cases):
        for _attempt in range(64):
            drawn = draw(rng, domain, k)
            if drawn is not None:
                cases.append(TestCase(family, *drawn))
                break
        else:
            raise ValueError(f"could not draw a feasible {family} case")
    return cases


def poisson_cases() -> list[TestCase]:
    """The two fixed source-term benchmarks."""

    def u_quad(p):
        return (p[:, 0] ** 2 + p[:, 1] ** 2) / 4.0

    def grad_quad(p):
        return np.column_stack([p[:, 0] / 2.0, p[:, 1] / 2.0])

    def f_quad(p):
        return np.ones(len(p))

    def u_quint(p):
        return p[:, 0] ** 5 + p[:, 1]

    def grad_quint(p):
        return np.column_stack([5.0 * p[:, 0] ** 4, np.ones(len(p))])

    def f_quint(p):
        return 20.0 * p[:, 0] ** 3

    return [
        TestCase("poisson_quadratic", {}, u_quad, grad_quad, f_quad),
        TestCase("poisson_quintic", {}, u_quint, grad_quint, f_quint),
    ]


def plane_wave_3d(k: float = 1.0) -> TestCase:
    """sin(k w . x) with the unit vector w = (sqrt 0.2, sqrt 0.3, sqrt 0.5),
    a solution of the 3D Helmholtz equation at wavenumber k."""
    w = np.sqrt([0.2, 0.3, 0.5])
    kw = k * w

    def u(p):
        return np.sin(p @ kw)

    def grad(p):
        return np.cos(p @ kw)[:, None] * kw[None, :]

    return TestCase("plane3d", {"k": k, "direction": tuple(w)}, u, grad)


def _families(*names):
    return lambda domain, k, seed: [c for fam in names for c in make_test_suite(fam, domain, k=k, seed=seed)]


SUITES = {  # name -> (equation, the parameters its cases read, cases(domain, k, seed))
    "laplace": ("laplace", {"seed", "margin"}, _families("u1", "u2", "u3", "u4", "u5")),
    "helmholtz": ("helmholtz", {"k", "seed", "margin"}, _families("sin_sin", "sin_sinh")),
    "poisson": ("laplace", {"margin", "mesh_h"}, lambda domain, k, seed: poisson_cases()),
    "helmholtz3d": ("helmholtz3d", {"k"}, lambda domain, k, seed: [plane_wave_3d(k)]),
}


def solve_case(op: LinearBoundaryOperator, reconstructor: BoundaryReconstructor, case: TestCase, mesh=None):
    """``(field, exact du/dn)`` of a 2-D case: :func:`solve_poisson` over ``mesh`` for a case with
    a source (no exact du/dn, None: its h_trace is the harmonic part's), else :func:`solve_dirichlet`."""
    g = case.dirichlet(reconstructor.grid)
    if case.source is not None:
        return solve_poisson(op, case.source, g, mesh, reconstructor, exact=case.u), None
    return solve_dirichlet(op, reconstructor, g, exact=case.u), case.neumann(reconstructor.grid)


def evaluate_suite(
    cases,
    solve_one,
) -> dict:
    """Run ``solve_one(case) -> SolutionField`` over a suite and summarize.

    Returns per-family mean errors: interior (margin/flag-excluded and
    full), normal-derivative, and the imaginary-part diagnostic.
    """
    per_family: dict[str, dict[str, list[float]]] = {}
    for case in cases:
        fld, h_exact = solve_one(case)
        rec = per_family.setdefault(
            case.family, {"total": [], "total_full": [], "dudn": [], "imag": []}
        )
        rec["total"].append(fld.relative_l2)
        rec["total_full"].append(fld.relative_l2_full)
        if h_exact is not None and fld.h_trace is not None:
            rec["dudn"].append(relative_l2(fld.h_trace, h_exact))
        rec["imag"].append(fld.imag_ratio)
    summary = {}
    for fam, rec in per_family.items():
        summary[fam] = {
            "n_cases": len(rec["total"]),
            "mean_total_error": float(np.mean(rec["total"])),
            "mean_total_error_full_grid": float(np.mean(rec["total_full"])),
            "mean_dudn_error": float(np.mean(rec["dudn"])) if rec["dudn"] else None,
            "mean_imag_ratio": float(np.mean(rec["imag"])),
        }
    return summary
