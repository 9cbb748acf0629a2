"""Boundary trace operator learning and boundary-integral PDE solvers."""

from .geometry import (
    BoundaryGrid,
    DomainSpec,
    PolarCurve,
    PolarTerm,
    TriMesh,
    contains,
    make_boundary_grid,
    triangulate_square,
)
from .kernels import KernelSpec, kernel_gradient_y, kernel_value
from .operator import (
    LinearBoundaryOperator,
    TrainingConfig,
    compute_loss,
    dirichlet_layouts,
    fit_least_squares,
    load_model,
    mixed_layouts,
    save_model,
    train_adam,
)
from .quadrature import (
    BoundaryReconstructor,
    integrate_mesh,
    integrate_triangle,
)
from .solvers import (
    SolutionField,
    make_eval_grid,
    make_test_suite,
    relative_l2,
    solve_dirichlet,
    solve_helmholtz,
    solve_mixed,
    solve_poisson,
)
from .synthesis import DatasetSpec, TracePair, build_dataset, normalize_pair

__all__ = [
    "BoundaryGrid",
    "BoundaryReconstructor",
    "DatasetSpec",
    "DomainSpec",
    "KernelSpec",
    "LinearBoundaryOperator",
    "PolarCurve",
    "PolarTerm",
    "SolutionField",
    "TracePair",
    "TrainingConfig",
    "TriMesh",
    "build_dataset",
    "compute_loss",
    "contains",
    "dirichlet_layouts",
    "fit_least_squares",
    "integrate_mesh",
    "integrate_triangle",
    "kernel_gradient_y",
    "kernel_value",
    "load_model",
    "make_boundary_grid",
    "make_eval_grid",
    "make_test_suite",
    "mixed_layouts",
    "normalize_pair",
    "relative_l2",
    "save_model",
    "solve_dirichlet",
    "solve_helmholtz",
    "solve_mixed",
    "solve_poisson",
    "train_adam",
    "triangulate_square",
]
