#!/usr/bin/env python3
"""Desk-scale study: every pipeline at 2000 training samples.

Trains the boundary operator for each problem class (least squares by
default, optionally Adam), evaluates the analytic test families on the
margin-excluded 100x100 grid, and prints one summary table.  Runs in a
few minutes on a laptop; the README's published-scale CLI recipe is the
long version.
"""

import argparse
import time

import numpy as np

from tracemap.geometry import DomainSpec, make_boundary_grid, triangulate_square
from tracemap.kernels import KernelSpec
from tracemap.operator import (
    TrainingConfig,
    compute_loss,
    dirichlet_layouts,
    fit_least_squares,
    mixed_layouts,
    train_adam,
    training_arrays,
)
from tracemap.quadrature import BoundaryReconstructor
from tracemap.solvers import (
    evaluate_suite,
    make_eval_grid,
    make_test_suite,
    plane_wave_3d,
    poisson_cases,
    predict_normal_derivative_3d,
    relative_l2,
    solve_dirichlet,
    solve_mixed,
    solve_poisson,
)
from tracemap.synthesis import DatasetSpec, build_dataset

SQUARE = DomainSpec.unit_square()


def train(ds, inp, out, method, epochs):
    """The operator fitted to ``ds`` for the layouts ``(inp, out)``, and its training loss."""
    X, T = training_arrays(ds.g_rows, ds.h_rows, inp, out, ds.spec.kernel.anchored)
    if method == "ls":
        op = fit_least_squares(X, T, inp, out)
        return op, compute_loss(op, X, T)
    cfg = TrainingConfig(epochs=epochs, seed=3)
    op, report = train_adam(X, T, inp, out, cfg)
    return op, report.best_loss


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--method", choices=["ls", "adam"], default="ls")
    ap.add_argument("--epochs", type=int, default=10_000)
    ap.add_argument("--mesh-h", type=float, default=0.02)
    args = ap.parse_args()

    grid = make_boundary_grid(SQUARE, 400)
    eval_pts = make_eval_grid(SQUARE, 100, margin=0.05)
    inp, out = dirichlet_layouts(400)
    rows = []

    # Laplace Dirichlet
    t0 = time.time()
    spec = DatasetSpec(kernel=KernelSpec("laplace2d"), domain=SQUARE,
                       n_points=400, n_samples=args.samples, seed=args.seed)
    ds = build_dataset(spec, grid)
    op_lap, loss = train(ds, inp, out, args.method, args.epochs)
    rec = BoundaryReconstructor(KernelSpec("laplace2d"), grid, eval_pts)
    cases = [c for f in ("u1", "u2", "u3", "u4", "u5")
             for c in make_test_suite(f, SQUARE, seed=7, n_cases=10)]

    def solve_lap(case):
        fld = solve_dirichlet(op_lap, rec, case.dirichlet(grid), exact=case.u)
        return fld, case.neumann(grid)

    summ = evaluate_suite(cases, solve_lap)
    tot = np.mean([s["mean_total_error"] for s in summ.values()])
    dudn = np.mean([s["mean_dudn_error"] for s in summ.values()])
    rows.append(("laplace dirichlet", loss, dudn, tot, time.time() - t0))

    # Poisson via decomposition (same operator)
    t0 = time.time()
    mesh = triangulate_square(args.mesh_h)
    errs = []
    for case in poisson_cases():
        fld = solve_poisson(op_lap, case.source, case.dirichlet(grid), mesh, rec, exact=case.u)
        errs.append(fld.relative_l2)
    rows.append(("poisson (2 cases)", loss, float("nan"), np.mean(errs), time.time() - t0))

    # Mixed boundary conditions, Dirichlet part = bottom edge
    t0 = time.time()
    inp_m, out_m = mixed_layouts(grid, {"G1"})
    op_m, loss_m = train(ds, inp_m, out_m, "ls", args.epochs)
    totals, nerrs = [], []
    for case in cases[::5]:
        g, h = case.dirichlet(grid), case.neumann(grid)
        fld = solve_mixed(op_m, rec, {"G1"}, g, h, exact=case.u)
        totals.append(fld.relative_l2)
        nerrs.append(relative_l2(fld.h_trace, h))
    rows.append(("mixed (G1 dirichlet)", loss_m,
                 np.mean(nerrs), np.mean(totals), time.time() - t0))

    # Helmholtz
    for k in (1.0, 10.0, 100.0):
        t0 = time.time()
        spec_h = DatasetSpec(kernel=KernelSpec("helmholtz2d", k), domain=SQUARE,
                             n_points=400, n_samples=args.samples, seed=args.seed)
        ds_h = build_dataset(spec_h, grid)
        op_h, loss_h = train(ds_h, inp, out, args.method, args.epochs)
        rec_h = BoundaryReconstructor(KernelSpec("helmholtz2d", k), grid, eval_pts)
        hcases = [c for f in ("sin_sin", "sin_sinh")
                  for c in make_test_suite(f, SQUARE, k=k, seed=7, n_cases=10)]

        def solve_h(case, op_h=op_h, rec_h=rec_h):
            fld = solve_dirichlet(op_h, rec_h, case.dirichlet(grid), exact=case.u)
            return fld, case.neumann(grid)

        summ = evaluate_suite(hcases, solve_h)
        tot = np.mean([s["mean_total_error"] for s in summ.values()])
        dudn = np.mean([s["mean_dudn_error"] for s in summ.values()])
        rows.append((f"helmholtz k={k:g}", loss_h, dudn, tot, time.time() - t0))

    # 3D boundary-only
    t0 = time.time()
    sphere = DomainSpec.sphere()
    grid3 = make_boundary_grid(sphere, 1200)
    spec3 = DatasetSpec(kernel=KernelSpec("helmholtz3d", 1.0), domain=sphere,
                        n_points=1200, n_samples=args.samples, seed=args.seed)
    ds3 = build_dataset(spec3, grid3)
    inp3, out3 = dirichlet_layouts(1200)
    op3, loss3 = train(ds3, inp3, out3, "ls", args.epochs)
    case3 = plane_wave_3d(1.0)
    _, err3 = predict_normal_derivative_3d(op3, grid3, case3.dirichlet(grid3),
                                           case3.neumann(grid3))
    rows.append(("helmholtz 3d (boundary)", loss3,
                 err3, float("nan"), time.time() - t0))

    print(f"\n{'problem':<24} {'train loss':>11} {'dudn err':>10} {'total err':>10} {'secs':>6}")
    for name, loss, dudn, tot, secs in rows:
        print(f"{name:<24} {loss:>11.3e} {dudn:>10.3e} {tot:>10.3e} {secs:>6.1f}")


if __name__ == "__main__":
    main()
