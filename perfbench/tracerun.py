"""Run one tracemap CLI stage with spans recorded around its layers.

Usage::

    python perfbench/tracerun.py SPANS_FILE RUN_ID STAGE -- <tracemap cli arguments>

The runner replaces the public functions listed in ``FUNCTIONS`` and the
methods in ``METHODS`` by timing wrappers wherever the package looks them
up: every global of every ``tracemap`` module (and every value of a
module-level dict) that is the original object.  It then calls
``tracemap.cli.main(argv)`` inside one root span named ``cli.STAGE`` and
appends one JSON line per span to SPANS_FILE.  The program's source is not
changed.

A span carries ``run``, ``id``, ``parent``, ``name``, ``start`` and ``end``
(``time.perf_counter`` seconds) plus the work counts measured at that
boundary (``points``, ``entries``, ...).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

# Layer (module) -> public functions wrapped in that module.
FUNCTIONS = {
    "synthesis": [
        "build_dataset", "sample_source_points", "synthesize_trace_pair",
        "dataset_to_csv", "dataset_checksum", "dataset_from_csv",
    ],
    "operator": ["fit_least_squares", "train_adam", "save_model", "load_model"],
    "kernels": [
        "bessel_j0", "bessel_y0", "bessel_j1", "bessel_y1",
        "kernel_matrix", "kernel_normal_matrix",
    ],
    "quadrature": ["newton_potential_many"],
    "solvers": [
        "solve_dirichlet", "solve_helmholtz", "solve_mixed", "solve_poisson",
        "evaluate_suite", "make_eval_grid",
    ],
    "geometry": ["make_boundary_grid", "triangulate_square", "contains", "boundary_distance"],
}

# Layer -> class -> methods; span names are ``layer.Class.method``.
METHODS = {
    "quadrature": {"BoundaryReconstructor": ["__init__", "field"]},
    "solvers": {"SolutionField": ["to_csv"]},
}


class Tracer:
    """In-memory span recorder; a span's parent is the innermost open span."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def start(self, name: str) -> dict:
        rec = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        return rec

    def end(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        self._open.pop()

    def call(self, name: str, fn, args, kwargs) -> tuple[dict, object]:
        rec = self.start(name)
        try:
            return rec, fn(*args, **kwargs)
        finally:
            self.end(rec)


def _rows(a) -> int:
    return len(np.atleast_2d(np.asarray(a)))


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _counts(name: str, args, kwargs, out) -> dict:
    """Work done by one call, measured from its arguments and result."""
    short = name.split(".", 1)[1]
    if short.startswith("bessel_"):
        return {"points": int(np.size(args[0]))}
    if short in ("kernel_matrix", "kernel_normal_matrix"):
        return {"entries": _rows(args[1]) * _rows(args[2])}
    if short == "newton_potential_many":
        return {"points": _rows(_arg(args, kwargs, 3, "xs"))}
    if short == "sample_source_points":
        return {"accepted": int(args[2])}
    if short == "boundary_distance":
        return {"points": _rows(args[1])}
    if short in ("dataset_to_csv", "save_model", "SolutionField.to_csv"):
        return {"bytes": len(out.encode())}
    if short == "train_adam":
        inputs, targets = np.asarray(args[0]), np.asarray(args[1])
        cfg = _arg(args, kwargs, 4, "cfg")
        return {
            "epochs": cfg.epochs, "batch": min(cfg.batch_size, len(inputs)),
            "samples": inputs.shape[0], "n_in": inputs.shape[1], "n_out": targets.shape[1],
        }
    if short == "fit_least_squares":
        inputs, targets = np.asarray(args[0]), np.asarray(args[1])
        return {"samples": inputs.shape[0], "n_in": inputs.shape[1], "n_out": targets.shape[1]}
    return {}


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if name == "solvers.solve_poisson":
            args, kwargs = _trace_source(tracer, args, kwargs)
        rec, out = tracer.call(name, fn, args, kwargs)
        rec.update(_counts(name, args, kwargs, out))
        return out

    return traced


def _trace_source(tracer: Tracer, args, kwargs):
    """Wrap the source function ``f`` handed to ``solve_poisson``."""
    f = _arg(args, kwargs, 1, "f")

    def source_f(pts):
        rec, out = tracer.call("quadrature.source_f", f, (pts,), {})
        rec["points"] = _rows(pts)
        return out

    if len(args) > 1:
        return (args[0], source_f, *args[2:]), kwargs
    return args, {**kwargs, "f": source_f}


def _replace_everywhere(modules, original, replacement) -> None:
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is original:
                        value[key] = replacement


def install(tracer: Tracer) -> None:
    """Wrap every listed function and method for the rest of the process."""
    names = ["cli", "synthesis", "operator", "kernels", "quadrature", "solvers", "geometry"]
    modules = [importlib.import_module("tracemap")]
    modules += [importlib.import_module(f"tracemap.{n}") for n in names]
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
    for layer, funcs in FUNCTIONS.items():
        for fn_name in funcs:
            original = getattr(by_name[layer], fn_name)
            _replace_everywhere(modules, original, _wrap(tracer, f"{layer}.{fn_name}", original))
    for layer, classes in METHODS.items():
        for cls_name, methods in classes.items():
            cls = getattr(by_name[layer], cls_name)
            for meth in methods:
                label = "build" if meth == "__init__" else meth
                setattr(cls, meth, _wrap(tracer, f"{layer}.{cls_name}.{label}", getattr(cls, meth)))


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[3] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, run_id, stage, cli_argv = argv[0], argv[1], argv[2], argv[4:]
    import tracemap.cli

    tracer = Tracer(run_id)
    install(tracer)
    root = tracer.start(f"cli.{stage}")
    try:
        code = tracemap.cli.main(cli_argv)
    finally:
        tracer.end(root)
        with open(spans_path, "a") as fh:
            for rec in tracer.spans:
                fh.write(json.dumps(rec) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
