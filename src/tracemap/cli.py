"""Command-line surface: dataset generation, training, evaluation,
solving, and the quadrature benchmark.

Every artifact-producing command is deterministic given its config and
seed, echoes its configuration next to the outputs, and exits nonzero if
any requested output could not be written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .geometry import DomainSpec, PolarTerm, make_boundary_grid, triangulate_square
from .kernels import KernelSpec
from .operator import (
    TrainingConfig,
    TrainingDivergedError,
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
from .quadrature import BoundaryReconstructor, singular_log_integral
from .solvers import (
    HELMHOLTZ_FAMILIES,
    LAPLACE_FAMILIES,
    evaluate_suite,
    make_eval_grid,
    make_test_suite,
    poisson_cases,
    plane_wave_3d,
    predict_normal_derivative_3d,
    solve_dirichlet,
    solve_mixed,
    solve_poisson,
    summary_to_json,
)
from .synthesis import (
    Dataset,
    DatasetSpec,
    dataset_checksum,
    dataset_from_csv,
    dataset_to_csv,
    build_dataset,
)
from .textio import float_cells, parse_floats, table_text

LOG_REFERENCE_CORNER = float(np.log(2.0) + np.pi / 2.0 - 3.0)
LOG_REFERENCE_CENTER = float(np.pi / 2.0 - np.log(2.0) - 3.0)


def _emit_provenance(args, *artifacts: Path) -> None:
    """One-line config echo plus a hash per written artifact."""
    skip = {"fn", "command"}
    echo = " ".join(
        f"{k}={v}" for k, v in sorted(vars(args).items()) if k not in skip and v != ""
    )
    print(f"config: {echo}")
    for path in artifacts:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        print(f"artifact: {path} sha256:{digest}")


def _domain_from_name(name: str) -> DomainSpec:
    presets = {
        "square": DomainSpec.unit_square,
        "circle": lambda: DomainSpec.polar(1.0),
        "star5": lambda: DomainSpec.polar(0.65, [PolarTerm("sin", 0.2, 5)]),
        "sphere": DomainSpec.sphere,
    }
    if name not in presets:
        raise SystemExit(f"unknown domain {name!r}; choose from {sorted(presets)}")
    return presets[name]()


def _kernel(equation: str, k: float) -> KernelSpec:
    if equation == "laplace":
        return KernelSpec("laplace2d")
    if equation == "helmholtz":
        return KernelSpec("helmholtz2d", k)
    if equation == "helmholtz3d":
        return KernelSpec("helmholtz3d", k)
    raise SystemExit(f"unknown equation {equation!r}")


def _load_model_for(path: str, kernel: KernelSpec):
    """The model at ``path``; refused if it records another training kernel."""
    op = load_model(Path(path).read_text())
    if op.kernel not in (None, kernel):
        raise ValueError(f"{path}: model was trained on {op.kernel} data, this run needs {kernel}")
    return op


def _source_mesh(domain: DomainSpec, name: str, h: float):
    """The mesh a Poisson source is integrated over; only the unit square is meshed."""
    if domain.shape != "unit_square":
        raise ValueError(f"Poisson sources are integrated over the unit square only; cannot mesh {name!r}")
    return triangulate_square(h)


def cmd_gen(args) -> int:
    kernel = _kernel(args.equation, args.k)
    domain = _domain_from_name(args.domain)
    spec = DatasetSpec(
        kernel=kernel,
        domain=domain,
        n_points=args.n,
        n_samples=args.samples,
        n_kernels_per_sample=args.kernels_per_sample,
        source_box=(args.box_lo, args.box_hi),
        seed=args.seed,
    )
    ds = build_dataset(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_text = dataset_to_csv(ds)
    (out / "dataset.csv").write_text(csv_text)
    (out / "dataset.json").write_text(spec.to_json())
    print(f"wrote {ds.n_samples} samples ({spec.n_points} points) to {out}")
    print(f"sha256 {dataset_checksum(csv_text)}")
    _emit_provenance(args, out / "dataset.csv", out / "dataset.json")
    return 0


def _make_parents(*paths: str) -> None:
    """Create the directory of each named output file before any work is done."""
    for path in filter(None, paths):
        Path(path).parent.mkdir(parents=True, exist_ok=True)


def _load_dataset(data_dir: Path) -> Dataset:
    spec = DatasetSpec.from_json((data_dir / "dataset.json").read_text())
    grid = make_boundary_grid(spec.domain, spec.n_points)
    return dataset_from_csv((data_dir / "dataset.csv").read_text(), spec, grid)


def cmd_train(args) -> int:
    _make_parents(args.out, args.log)
    ds = _load_dataset(Path(args.data))
    kernel = ds.spec.kernel
    if args.dirichlet_edges:
        if kernel.family != "laplace2d":  # the one kernel solve_mixed takes
            raise ValueError(f"{args.data}: mixed operators are trained on laplace2d data only, not {kernel}")
        inp_layout, out_layout = mixed_layouts(ds.grid, {f"G{e}" for e in args.dirichlet_edges.split(",")})
    else:
        inp_layout, out_layout = dirichlet_layouts(ds.spec.n_points)
    inputs, targets = training_arrays(ds.g_rows, ds.h_rows, inp_layout, out_layout, kernel.anchored)

    if args.method == "ls":
        op = fit_least_squares(inputs, targets, inp_layout, out_layout)
        residual = compute_loss(op, inputs, targets)
        print(f"least-squares residual {residual:.6e}")
        log_text = "epoch,mean_loss,best_loss\n"
    else:
        cfg = TrainingConfig(
            learning_rate=args.lr, batch_size=min(args.batch, len(inputs)),
            epochs=args.epochs, seed=args.seed,
        )
        op, report = train_adam(inputs, targets, inp_layout, out_layout, cfg)
        print(
            f"adam best loss {report.best_loss:.6e} at epoch {report.best_epoch} "
            f"({report.wall_time:.1f}s)"
        )
        log_text = report.to_csv()
    print(f"constant annihilation {constant_annihilation(op):.3e}")
    op.kernel = kernel
    Path(args.out).write_text(save_model(op))
    written = [Path(args.out)]
    if args.log:
        Path(args.log).write_text(log_text)
        written.append(Path(args.log))
    print(f"wrote model to {args.out}")
    _emit_provenance(args, *written)
    return 0


def cmd_eval(args) -> int:
    # accept spellings like "laplace-u1..u5"
    args.suite = args.suite.split("-")[0]
    if args.suite not in ("laplace", "helmholtz", "poisson", "helmholtz3d"):
        raise SystemExit(f"unknown suite {args.suite!r}")
    kernel = _kernel("laplace" if args.suite == "poisson" else args.suite, args.k)
    op = _load_model_for(args.model, kernel)
    out_dir = Path(args.out)
    domain = _domain_from_name(args.domain)

    if args.suite == "helmholtz3d":
        if domain.dimension != 3:
            raise ValueError(f"suite helmholtz3d needs a 3-D domain, got {domain.shape!r}")
        grid = make_boundary_grid(domain, args.n)
        case = plane_wave_3d(args.k)
        _, err = predict_normal_derivative_3d(op, grid, case.dirichlet(grid), case.neumann(grid))
        summary = {"plane3d": {"n_cases": 1, "dudn_error": err}}
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "summary.json").write_text(json.dumps(summary, indent=2))
        print(f"3D normal-derivative relative error {err:.4e}")
        _emit_provenance(args, out_dir / "summary.json")
        return 0

    grid = make_boundary_grid(domain, args.n)
    eval_points = make_eval_grid(domain, 100, margin=args.margin)
    if args.suite == "poisson":
        mesh = _source_mesh(domain, args.domain, args.mesh_h)
        cases = poisson_cases()
    else:
        families = LAPLACE_FAMILIES if args.suite == "laplace" else HELMHOLTZ_FAMILIES
        cases = [c for fam in families for c in make_test_suite(fam, domain, k=args.k, seed=args.seed)]

    def solve_one(case):
        g = case.dirichlet(grid)
        rec = BoundaryReconstructor(kernel, grid, eval_points)
        if args.suite == "poisson":  # h_trace is the harmonic part's: no exact trace to match
            return solve_poisson(op, case.source, g, mesh, rec, exact=case.u), None
        return solve_dirichlet(op, rec, g, exact=case.u), case.neumann(grid)

    summary = evaluate_suite(cases, solve_one)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.json").write_text(summary_to_json(summary))
    for i, case in enumerate(cases):
        fld, _ = solve_one(case)
        (out_dir / f"case_{i:03d}_{case.family}.csv").write_text(fld.to_csv())
    print(summary_to_json(summary))
    _emit_provenance(args, out_dir / "summary.json")
    return 0


def cmd_solve(args) -> int:
    _make_parents(args.out)
    kernel = _kernel(args.equation, args.k)
    op = _load_model_for(args.model, kernel)
    domain, n = _parse_grid_name(args.grid)
    grid = make_boundary_grid(domain, n)
    g = _read_column(Path(args.g))
    rec = BoundaryReconstructor(kernel, grid, make_eval_grid(domain, 100, margin=args.margin))

    if args.dirichlet_edges:
        h = _read_column(Path(args.h))
        edges = {f"G{e}" for e in args.dirichlet_edges.split(",")}
        fld = solve_mixed(op, rec, edges, g, h)
    elif args.source:
        mesh = _source_mesh(domain, args.grid, args.mesh_h)
        f_vertex = _read_column(Path(args.source))
        if len(f_vertex) != len(mesh.vertices):
            raise SystemExit(
                f"source file has {len(f_vertex)} values, mesh has {len(mesh.vertices)} vertices"
            )
        f = _vertex_interpolant(mesh, f_vertex)
        fld = solve_poisson(op, f, g, mesh, rec)
    else:
        fld = solve_dirichlet(op, rec, g)
    del rec  # free the kernel matrices before to_csv builds its text, so the two never add up in the peak
    Path(args.out).write_text(fld.to_csv())
    print(f"wrote field ({len(fld.points)} points) to {args.out}")
    _emit_provenance(args, Path(args.out))
    return 0


def _check_solve_flags(parser, args) -> None:
    """Refuse flag combinations that name no single problem (exit 2).
    Mixed and source problems are solved with the Laplace kernel."""
    if args.dirichlet_edges and not args.h:
        parser.error("solve --dirichlet-edges needs --h (the Neumann values, one per line)")
    if args.h and not args.dirichlet_edges:
        parser.error("solve --h is the Neumann part of a mixed problem; it needs --dirichlet-edges")
    if args.source and args.dirichlet_edges:
        parser.error("solve --source and --dirichlet-edges cannot be combined")
    if args.equation == "helmholtz" and (args.source or args.dirichlet_edges):
        parser.error("solve --equation helmholtz takes neither --source nor --dirichlet-edges")


def _vertex_interpolant(mesh, vertex_values):
    """Piecewise-linear interpolation of per-vertex source values, with points
    placed by :meth:`TriMesh.locate`; 0 at points no triangle holds."""
    corner_values = vertex_values[mesh.triangles]

    def f(pts):
        tri, lam = mesh.locate(pts)
        v = corner_values[tri]
        return np.where(tri >= 0, lam[:, 0] * v[:, 0] + lam[:, 1] * v[:, 1] + lam[:, 2] * v[:, 2], 0.0)

    return f


def _parse_grid_name(name: str):
    for prefix in ("square", "circle", "star5", "sphere"):
        if name.startswith(prefix):
            n = int(name[len(prefix) :] or "400")
            return _domain_from_name(prefix), n
    raise SystemExit(f"unknown grid {name!r} (expected e.g. square400)")


def _read_column(path: Path) -> np.ndarray:
    """One finite value per non-blank line; a ValueError names the file."""
    vals = parse_floats([s for s in path.read_text().splitlines() if s.strip()], str(path))
    if vals.size == 0:
        raise ValueError(f"{path}: expected one finite value per line")
    return vals


def cmd_quadbench(args) -> int:
    integrands = {
        "ln(x2+y2)": ((0.0, 0.0), LOG_REFERENCE_CORNER),
        "ln((x-0.5)2+(y-0.5)2)": ((0.5, 0.5), LOG_REFERENCE_CENTER),
    }
    if args.kernel != "both":
        if args.kernel not in integrands:
            raise SystemExit(f"unknown benchmark kernel {args.kernel!r}")
        integrands = {args.kernel: integrands[args.kernel]}
    rows, rels = [], []
    for h in args.h:
        mesh = triangulate_square(h)
        for label, (x0, ref) in integrands.items():
            val = singular_log_integral(mesh, x0, args.r0)
            rels.append(abs(val - ref) / abs(ref))
            rows.append([label, *float_cells([h, val, ref, rels[-1]])])
    report = table_text("integrand,h,computed,reference,rel_error", rows, end="\n")
    print(report, end="")
    if args.out:
        Path(args.out).write_text(report)
        _emit_provenance(args, Path(args.out))
    return 0 if all(rel <= args.fail_above for rel in rels) else 1  # a NaN error fails


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tracemap")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="synthesize a trace-pair dataset")
    p.add_argument("--equation", required=True, choices=["laplace", "helmholtz", "helmholtz3d"])
    p.add_argument("--domain", default="square")
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--kernels-per-sample", type=int, default=3)
    p.add_argument("--box-lo", type=float, default=-7.0)
    p.add_argument("--box-hi", type=float, default=7.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="fit the boundary operator")
    p.add_argument("--data", required=True)
    p.add_argument("--method", choices=["adam", "ls"], default="ls")
    p.add_argument("--epochs", type=int, default=50_000)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--batch", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dirichlet-edges", default="", help="e.g. '1,3' for a mixed operator")
    p.add_argument("--out", required=True)
    p.add_argument("--log", default="")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="run an analytic test suite")
    p.add_argument("--model", required=True)
    p.add_argument("--suite", required=True,
                   help="laplace | helmholtz | poisson | helmholtz3d (family suffixes tolerated)")
    p.add_argument("--domain", default="square")
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--margin", type=float, default=0.05)
    p.add_argument("--mesh-h", type=float, default=0.02)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("solve", help="solve one problem from boundary-data files")
    p.add_argument("--model", required=True)
    p.add_argument("--grid", default="square400")
    p.add_argument("--equation", choices=["laplace", "helmholtz"], default="laplace")
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--g", required=True, help="single-column CSV, grid order")
    p.add_argument("--h", default="", help="single-column CSV for the Neumann part (mixed)")
    p.add_argument("--dirichlet-edges", default="")
    p.add_argument("--source", default="", help="per-vertex source values (CSV column)")
    p.add_argument("--mesh-h", type=float, default=0.02)
    p.add_argument("--margin", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("quadbench", help="singular log-kernel integral benchmark")
    p.add_argument("--h", type=float, action="append", required=True)
    p.add_argument("--r0", type=float, default=0.01)
    p.add_argument("--kernel", default="both", help='"ln(x2+y2)", "ln((x-0.5)2+(y-0.5)2)", or "both"')
    p.add_argument("--fail-above", type=float, default=np.inf)
    p.add_argument("--out", default="")
    p.set_defaults(fn=cmd_quadbench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve":
        _check_solve_flags(parser, args)
    try:
        return args.fn(args)
    except (ValueError, OSError, np.linalg.LinAlgError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
