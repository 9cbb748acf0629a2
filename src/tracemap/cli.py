"""Command-line surface: dataset generation, training, evaluation,
solving, and the quadrature benchmark.

Every artifact-producing command is deterministic given its config and
seed, echoes its configuration next to the outputs, checks its output
paths before any work (``_prepare_outputs``), and exits nonzero if any
requested output could not be written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .geometry import DomainSpec, PolarTerm, make_boundary_grid, triangulate_square
from .kernels import KernelSpec
from .operator import (
    CUTOFF,
    TrainingConfig,
    TrainingDivergedError,
    compute_loss,
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
    SUITES,
    evaluate_suite,
    make_eval_grid,
    predict_normal_derivative_3d,
    solve_case,
    solve_dirichlet,
    solve_mixed,
    solve_poisson,
)
from .synthesis import Dataset, DatasetSpec, build_dataset, dataset_from_csv, write_dataset_csv
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
        digest = hashlib.sha256()
        with open(path, "rb") as fh:  # in blocks: a dataset CSV may be large
            for block in iter(lambda: fh.read(1 << 16), b""):
                digest.update(block)
        print(f"artifact: {path} sha256:{digest.hexdigest()[:16]}")


_DOMAINS = {
    "square": DomainSpec.unit_square,
    "circle": lambda: DomainSpec.polar(1.0),
    "star5": lambda: DomainSpec.polar(0.65, [PolarTerm("sin", 0.2, 5)]),
    "sphere": DomainSpec.sphere,
}


def _kernel(equation: str, k: float) -> KernelSpec:
    if equation == "laplace":
        return KernelSpec("laplace2d")
    return KernelSpec("helmholtz2d" if equation == "helmholtz" else "helmholtz3d", k)


def _domain_name(domain: DomainSpec | None) -> str:
    if domain is None:
        return "an unrecorded domain"
    return next((name for name, make in _DOMAINS.items() if make() == domain), domain.shape)


def _load_model_for(path: str, kernel: KernelSpec, domain: DomainSpec, n: int):
    """The model at ``path``; refused if it records another training kernel
    or domain, or maps another number of boundary points than the run's ``n``."""
    op = load_model(Path(path).read_text())
    if op.kernel not in (None, kernel):
        raise ValueError(f"{path}: model was trained on {op.kernel} data, this run needs {kernel}")
    if op.domain not in (None, domain) or op.input_dim != n:
        raise ValueError(
            f"{path}: model was trained on {op.input_dim} points of {_domain_name(op.domain)}, "
            f"this run has {n} points of {_domain_name(domain)}"
        )
    return op


def _source_mesh(domain: DomainSpec, name: str, h: float):
    """The mesh a Poisson source is integrated over; only the unit square is meshed."""
    if domain.shape != "unit_square":
        raise ValueError(f"Poisson sources are integrated over the unit square only; cannot mesh {name!r}")
    return triangulate_square(h)


def _prepare_outputs(*outputs) -> None:
    """Check and create every output before any work is done.  Each output is
    ``(flag, path, is_dir)``; an empty path is skipped.  A file output may not
    name a directory and a directory output may not name anything else; the
    directory that is written into is created.  A refusal names the flag."""
    for flag, path, is_dir in outputs:
        if not path:
            continue
        path = Path(path)
        if path.exists() and path.is_dir() != is_dir:
            raise ValueError(f"{flag} {path} {'is not' if is_dir else 'is'} a directory")
        try:
            (path if is_dir else path.parent).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"{flag} {path}: cannot create its directory ({exc.strerror or exc})") from None


def cmd_gen(args) -> int:
    kernel = _kernel(args.equation, args.k)
    domain = _DOMAINS[args.domain]()
    spec = DatasetSpec(
        kernel=kernel,
        domain=domain,
        n_points=args.n,
        n_samples=args.samples,
        n_kernels_per_sample=args.kernels_per_sample,
        source_box=(args.box_lo, args.box_hi),
        seed=args.seed,
    )
    grid = make_boundary_grid(domain, spec.n_points)
    _prepare_outputs(("--out", args.out, True))
    ds = build_dataset(spec, grid)
    out = Path(args.out)
    digest = write_dataset_csv(ds, out / "dataset.csv")
    (out / "dataset.json").write_text(spec.to_json())
    print(f"wrote {ds.n_samples} samples ({spec.n_points} points) to {out}")
    print(f"sha256 {digest}")
    _emit_provenance(args, out / "dataset.csv", out / "dataset.json")
    return 0


def _load_dataset(data_dir: Path) -> Dataset:
    spec = DatasetSpec.from_json((data_dir / "dataset.json").read_text())
    grid = make_boundary_grid(spec.domain, spec.n_points)
    with open(data_dir / "dataset.csv") as lines:
        return dataset_from_csv(lines, spec, grid)


def cmd_train(args) -> int:
    if args.method == "adam":  # refused before any output is created or data read
        cfg = TrainingConfig(learning_rate=args.lr, batch_size=args.batch, epochs=args.epochs, seed=args.seed)
    ds = _load_dataset(Path(args.data))
    kernel, domain = ds.spec.kernel, ds.spec.domain
    if args.dirichlet_edges:
        if kernel.family != "laplace2d":  # the one kernel solve_mixed takes
            raise ValueError(f"{args.data}: mixed operators are trained on laplace2d data only, not {kernel}")
        inp_layout, out_layout = mixed_layouts(ds.grid, {f"G{e}" for e in args.dirichlet_edges.split(",")})
    else:
        inp_layout, out_layout = dirichlet_layouts(ds.spec.n_points)
    inputs, targets = training_arrays(ds.g_rows, ds.h_rows, inp_layout, out_layout, kernel.anchored)
    del ds  # the fit holds the training data once
    _prepare_outputs(("--out", args.out, False), ("--log", args.log, False))

    if args.method == "ls":
        op, rank = fit_least_squares(inputs, targets, inp_layout, out_layout)
        residual = compute_loss(op, inputs, targets)
        print(f"least-squares residual {residual:.6e}, rank {rank} of {op.input_dim} at cutoff {CUTOFF:g}")
    else:
        cfg = replace(cfg, batch_size=min(cfg.batch_size, len(inputs)))
        op, report = train_adam(inputs, targets, inp_layout, out_layout, cfg)
        print(
            f"adam best loss {report.best_loss:.6e} at epoch {report.best_epoch} "
            f"({report.wall_time:.1f}s)"
        )
    del inputs, targets  # so that the training data and the model text never add up in the peak
    op.kernel, op.domain = kernel, domain
    Path(args.out).write_text(save_model(op))
    written = [Path(args.out)]
    if args.log:  # adam only (_check_flags)
        Path(args.log).write_text(report.to_csv())
        written.append(Path(args.log))
    print(f"wrote model to {args.out}")
    _emit_provenance(args, *written)
    return 0


def cmd_eval(args) -> int:
    equation, reads, draw_cases = SUITES[args.suite]
    kernel = _kernel(equation, args.k)
    domain = _DOMAINS[args.domain]()
    if kernel.dimension == 3 and domain.dimension != 3:
        raise ValueError(f"suite {args.suite} needs a 3-D domain, got {domain.shape!r}")
    grid = make_boundary_grid(domain, args.n)
    if kernel.dimension == 2:
        eval_points = make_eval_grid(domain, 100, margin=args.margin)
    cases = draw_cases(domain, args.k, args.seed)
    mesh = _source_mesh(domain, args.domain, args.mesh_h) if "mesh_h" in reads else None  # a suite with a source
    op = _load_model_for(args.model, kernel, domain, args.n)
    _prepare_outputs(("--out", args.out, True))
    out_dir = Path(args.out)

    if kernel.dimension == 3:  # boundary-only: no interior to rebuild
        (case,) = cases
        _, err = predict_normal_derivative_3d(op, grid, case.dirichlet(grid), case.neumann(grid))
        summary = json.dumps({case.family: {"n_cases": 1, "dudn_error": err}}, indent=2)
        report = f"3D normal-derivative relative error {err:.4e}"
    else:
        def solve_one(case):
            return solve_case(op, BoundaryReconstructor(kernel, grid, eval_points), case, mesh)

        summary = report = json.dumps(evaluate_suite(cases, solve_one), indent=2, sort_keys=True)
        for i, case in enumerate(cases):
            fld, _ = solve_one(case)
            (out_dir / f"case_{i:03d}_{case.family}.csv").write_text(fld.to_csv())
    (out_dir / "summary.json").write_text(summary)
    print(report)
    _emit_provenance(args, out_dir / "summary.json")
    return 0


def cmd_solve(args) -> int:
    domain, n = _parse_grid_name(args.grid)
    kernel = _kernel(args.equation, args.k)
    g = _read_column(Path(args.g), n, "grid point")
    if args.dirichlet_edges:
        h = _read_column(Path(args.h), n, "grid point")
    elif args.source:
        mesh = _source_mesh(domain, args.grid, args.mesh_h)
        f_vertex = _read_column(Path(args.source), len(mesh.vertices), "mesh vertex")
    eval_points = make_eval_grid(domain, 100, margin=args.margin)
    op = _load_model_for(args.model, kernel, domain, n)
    _prepare_outputs(("--out", args.out, False))
    rec = BoundaryReconstructor(kernel, make_boundary_grid(domain, n), eval_points)

    if args.dirichlet_edges:
        edges = {f"G{e}" for e in args.dirichlet_edges.split(",")}
        fld = solve_mixed(op, rec, edges, g, h)
    elif args.source:
        fld = solve_poisson(op, _vertex_interpolant(mesh, f_vertex), g, mesh, rec)
    else:
        fld = solve_dirichlet(op, rec, g)
    del rec  # free the kernel matrices before to_csv builds its text, so the two never add up in the peak
    Path(args.out).write_text(fld.to_csv())
    print(f"wrote field ({len(fld.points)} points) to {args.out}")
    _emit_provenance(args, Path(args.out))
    return 0


# The flags that only some runs read, with their defaults; argparse leaves
# them None, so that _check_flags can tell a flag given from one not given.
_PARTIAL_FLAGS = {
    "gen": {"k": 1.0},
    "train": {"epochs": 50_000, "lr": 1e-4, "batch": 1000, "log": ""},
    "eval": {"k": 1.0, "seed": 0, "margin": 0.05, "mesh_h": 0.02},
    "solve": {"k": 1.0, "mesh_h": 0.02},
}


def _check_flags(parser, args) -> None:
    """Refuse, with exit 2 and before any command runs, a flag the run never
    reads and a solve whose flags name no single problem; then fill in the
    defaults of the flags not given.  Mixed and source problems are solved
    with the Laplace kernel."""
    unread = {}
    if args.command == "gen" and args.equation == "laplace":
        unread["k"] = "gen --equation laplace takes no --k (the Helmholtz wavenumber)"
    elif args.command == "train" and args.method == "ls":
        unread = {name: f"train --method ls takes no --{name} (an adam flag)" for name in _PARTIAL_FLAGS["train"]}
    elif args.command == "eval":
        reads = SUITES[args.suite][1]
        unread = {name: f"suite {args.suite} does not read --{name.replace('_', '-')}"
                  for name in _PARTIAL_FLAGS["eval"] if name not in reads}
    elif args.command == "solve":
        if args.dirichlet_edges and not args.h:
            parser.error("solve --dirichlet-edges needs --h (the Neumann values, one per line)")
        if args.h and not args.dirichlet_edges:
            parser.error("solve --h is the Neumann part of a mixed problem; it needs --dirichlet-edges")
        if args.source and args.dirichlet_edges:
            parser.error("solve --source and --dirichlet-edges cannot be combined")
        if args.equation == "helmholtz" and (args.source or args.dirichlet_edges):
            parser.error("solve --equation helmholtz takes neither --source nor --dirichlet-edges")
        if args.equation != "helmholtz":
            unread["k"] = "solve --k is the Helmholtz wavenumber; it needs --equation helmholtz"
        if not args.source:
            unread["mesh_h"] = "solve --mesh-h is the source mesh size; it needs --source"
    for name, default in _PARTIAL_FLAGS.get(args.command, {}).items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif name in unread:
            parser.error(unread[name])


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
    for prefix, domain in _DOMAINS.items():
        size = name[len(prefix) :] or "400"
        if name.startswith(prefix) and size.isdecimal():
            return domain(), int(size)
    names = "|".join(_DOMAINS)
    raise ValueError(f"unknown grid {name!r}: expected {names} and a point count, e.g. square400")


def _read_column(path: Path, count: int, per: str) -> np.ndarray:
    """``count`` finite values, one per non-blank line and ``per``; a ValueError names the file."""
    vals = parse_floats([s for s in path.read_text().splitlines() if s.strip()], str(path))
    if vals.size != count:
        raise ValueError(f"{path} has {vals.size} values, expected {count}: one per {per}")
    return vals


def cmd_quadbench(args) -> int:
    meshes = [triangulate_square(h) for h in args.h]
    if not (np.isfinite(args.r0) and args.r0 > 0.0):
        raise ValueError(f"r0 must be finite and positive, got {args.r0!r}")
    integrands = {
        "ln(x2+y2)": ((0.0, 0.0), LOG_REFERENCE_CORNER),
        "ln((x-0.5)2+(y-0.5)2)": ((0.5, 0.5), LOG_REFERENCE_CENTER),
    }
    _prepare_outputs(("--out", args.out, False))
    rows, rels = [], []
    for h, mesh in zip(args.h, meshes):
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
    p.add_argument("--domain", choices=_DOMAINS, default="square")
    p.add_argument("--k", type=float, help="default 1.0; only for the Helmholtz equations")
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
    p.add_argument("--epochs", type=int, help="default 50000; adam only")
    p.add_argument("--lr", type=float, help="default 1e-4; adam only")
    p.add_argument("--batch", type=int, help="default 1000; adam only")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dirichlet-edges", default="", help="e.g. '1,3' for a mixed operator")
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="the per-epoch training log (CSV); adam only")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="run an analytic test suite")
    p.add_argument("--model", required=True)
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--domain", choices=_DOMAINS, default="square")
    p.add_argument("--k", type=float, help="default 1.0; only for suites that read it")
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--seed", type=int, help="default 0; only for suites that read it")
    p.add_argument("--margin", type=float, help="default 0.05; only for 2-D suites")
    p.add_argument("--mesh-h", type=float, help="default 0.02; only for suites with a source")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("solve", help="solve one problem from boundary-data files")
    p.add_argument("--model", required=True)
    p.add_argument("--grid", default="square400")
    p.add_argument("--equation", choices=["laplace", "helmholtz"], default="laplace")
    p.add_argument("--k", type=float, help="default 1.0; only with --equation helmholtz")
    p.add_argument("--g", required=True, help="single-column CSV, grid order")
    p.add_argument("--h", default="", help="single-column CSV for the Neumann part (mixed)")
    p.add_argument("--dirichlet-edges", default="")
    p.add_argument("--source", default="", help="per-vertex source values (CSV column)")
    p.add_argument("--mesh-h", type=float, help="default 0.02; only with --source")
    p.add_argument("--margin", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("quadbench", help="singular log-kernel integral benchmark")
    p.add_argument("--h", type=float, action="append", required=True)
    p.add_argument("--r0", type=float, default=0.01)
    p.add_argument("--fail-above", type=float, default=np.inf)
    p.add_argument("--out", default="")
    p.set_defaults(fn=cmd_quadbench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_flags(parser, args)
    try:
        return args.fn(args)
    except (ValueError, OSError, np.linalg.LinAlgError, TrainingDivergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
