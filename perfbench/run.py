"""End-to-end benchmark of the tracemap CLI chain gen -> train -> eval|solve.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, seed 1, untraced

Run it from the root of a source checkout: each stage is a child
``python -m tracemap.cli ...`` process with the checkout's ``src`` on
``PYTHONPATH`` and the BLAS thread count pinned.  Stages run one at a
time.  Inputs (boundary-data CSVs, per-vertex sources) are drawn from
``--seed``; the seed also goes to ``gen --seed``, ``train --seed`` and
``eval --seed``.  All files go to ``.perfbench_work/`` (removed at exit);
traced runs keep their spans under ``.perfbench_out/``.

``--trace 0`` interleaves solves and set-ups (gen + train) until about
``--seconds`` of solves and half that of set-ups (at least ``MIN_SETUPS``)
have passed, and reports medians.  ``--trace 1`` runs the chain once untraced and once
through ``perfbench/tracerun.py``, and reports the per-layer metrics.
The last line of output is one JSON object; the exit code is nonzero when
any stage fails or any output check fails.  See ``perfbench/README.md``
for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
MIN_SETUPS = 3
STAGE_TIMEOUT_S = 100.0  # keeps a run with a hung stage under 180 s
N_POINTS = 100  # boundary collocation points in every workload
EVAL_GRID_POINTS = 100 * 100  # the CLI's fixed 100 x 100 evaluation grid
MESH_H = 0.1
K_HELMHOLTZ = 10.0

# Acceptance bounds on the interior relative L2 error, per problem class
# (criteria 4, 6, 7 and 8 of the acceptance suite).
ERROR_BOUND = {"laplace": 2e-2, "poisson": 5e-2, "helmholtz": 5e-2, "mixed": 5e-2}

# Why each workload exists, which layer it loads and which it bypasses:
# see README.md.  ``expect`` lists the traced counts the self-check pins.
WORKLOADS = {
    "laplace-eval": {
        "problem": "laplace",
        "gen": ["--equation", "laplace", "--samples", "500"],
        "train": ["--method", "ls"],
        # 50 cases, each solved (and its reconstructor rebuilt) once for
        # the summary and once more for its CSV.
        "expect": {"BoundaryReconstructor.builds": 100, "solvers.solve.calls": 100},
    },
    "helmholtz-k10-solve": {
        "problem": "helmholtz",
        "gen": ["--equation", "helmholtz", "--k", "10", "--samples", "500"],
        "train": ["--method", "ls"],
        # gen: 3 kernels x (J or Y value + derivative) per sample; solve:
        # J0, Y0, J1, Y1 once each over the grid x boundary distance matrix.
        "expect": {
            "gen.bessel.calls": 6 * 500, "gen.bessel.points": 6 * 500 * N_POINTS,
            "solve.bessel.calls": 4, "solve.bessel.points": 4 * EVAL_GRID_POINTS * N_POINTS,
        },
    },
    "poisson-source-solve": {
        "problem": "poisson",
        "gen": ["--equation", "laplace", "--samples", "500"],
        "train": ["--method", "ls"],
        # f once per Newton-potential call over all quadrature nodes (2
        # calls), plus once per interior evaluation point.
        "expect": {
            "source_f.calls": 2 + EVAL_GRID_POINTS,
            "newton_potential_many.points": EVAL_GRID_POINTS + N_POINTS,
        },
    },
    "mixed-adam-solve": {
        "problem": "mixed",
        "gen": ["--equation", "laplace", "--samples", "2000"],
        "train": ["--method", "adam", "--dirichlet-edges", "1", "--epochs", "500",
                  "--batch", "100", "--lr", "3e-3"],
        "expect": {"train_adam.calls": 1, "BoundaryReconstructor.builds": 1},
    },
}

E2E_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}


class CheckFailed(Exception):
    """A stage output is missing, malformed or outside its error bound."""


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def blas_threads() -> int:
    # One thread: at these sizes a second OpenBLAS thread made no stage
    # faster and doubled the LS train time (see README.md).
    return 1


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads())
    return env


# ---------------------------------------------------------------------------
# Stage processes
# ---------------------------------------------------------------------------


def run_process(argv: list[str], log: Path) -> dict:
    """Run one child to completion; wall, CPU and max RSS from ``wait4``."""
    with open(log, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        killer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "returncode": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def run_stage(stage: str, cli_args: list[str], work: Path, tag: str, trace: dict | None = None) -> dict:
    log = work / f"{tag}.log"
    if trace is None:
        argv = [sys.executable, "-m", "tracemap.cli", *cli_args]
    else:
        argv = [sys.executable, str(BENCH_DIR / "tracerun.py"), str(trace["spans"]),
                trace["run_id"], stage, "--", *cli_args]
    res = run_process(argv, log)
    if res["returncode"] != 0:
        tail = log.read_text()[-2000:]
        print(f"stage {tag} exited {res['returncode']}:\n{tail}", file=sys.stderr)
    return res


def startup_s(work: Path) -> float:
    """Median time to import ``tracemap.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import tracemap.cli; "
            "print(repr(time.perf_counter() - t))")
    times = []
    for i in range(4):  # the first import may compile bytecode; discard it
        log = work / f"startup{i}.log"
        res = run_process([sys.executable, "-c", code], log)
        if res["returncode"] != 0:
            raise CheckFailed(f"importing tracemap.cli failed: {log.read_text()[-500:]}")
        times.append(float(log.read_text().split()[-1]))
    return statistics.median(times[1:])


# ---------------------------------------------------------------------------
# Inputs and analytic solutions
# ---------------------------------------------------------------------------


def write_column(path: Path, values) -> None:
    path.write_text("".join(f"{float(v)!r}\n" for v in values))


def make_inputs(workload: str, seed: int, work: Path):
    """Draw the solve case from ``seed`` and write its input files.

    Returns the exact solution ``u(points)`` the field is checked against
    (None for the eval suite, whose CSVs carry their own).
    The analytic families mirror the acceptance suite's: sin_sin for
    Helmholtz, u3 = sin(m x - t1) exp(m y - t2) for the mixed problem and
    the quintic u = x^5 + y with f = 20 x^3 for Poisson.
    """
    import numpy as np
    from tracemap.geometry import DomainSpec, make_boundary_grid, triangulate_square

    problem = WORKLOADS[workload]["problem"]
    if problem == "laplace":
        return None
    rng = np.random.default_rng(seed)
    grid = make_boundary_grid(DomainSpec.unit_square(), N_POINTS)
    x, y = grid.points[:, 0], grid.points[:, 1]
    if problem == "helmholtz":
        a = rng.uniform(0.05 * K_HELMHOLTZ, 0.95 * K_HELMHOLTZ)
        b = math.sqrt(K_HELMHOLTZ**2 - a * a)
        p1, p2 = rng.uniform(0.0, 2.0 * math.pi, size=2)

        def exact(p):
            return np.sin(a * p[:, 0] - p1) * np.sin(b * p[:, 1] - p2)

        write_column(work / "g.csv", exact(grid.points))
    elif problem == "poisson":
        def exact(p):
            return p[:, 0] ** 5 + p[:, 1]

        verts = triangulate_square(MESH_H).vertices
        write_column(work / "g.csv", exact(grid.points))
        write_column(work / "f.csv", 20.0 * verts[:, 0] ** 3)
    else:
        m = 0.0
        while abs(m) < 1e-2:
            m, t1, t2 = rng.uniform(-4.0, 4.0, size=3)

        def exact(p):
            return np.sin(m * p[:, 0] - t1) * np.exp(m * p[:, 1] - t2)

        e = np.exp(m * y - t2)
        grad = np.column_stack([m * np.cos(m * x - t1) * e, m * np.sin(m * x - t1) * e])
        write_column(work / "g.csv", exact(grid.points))
        write_column(work / "h.csv", np.einsum("ij,ij->i", grad, grid.normals))
    return exact


def stage_args(workload: str, seed: int, work: Path) -> dict:
    spec = WORKLOADS[workload]
    n = str(N_POINTS)
    data, model = work / "data", work / "model.json"
    gen = ["gen", *spec["gen"], "--n", n, "--seed", str(seed), "--out", str(data)]
    train = ["train", "--data", str(data), *spec["train"], "--seed", str(seed), "--out", str(model)]
    if spec["problem"] == "laplace":
        solve = ["eval", "--model", str(model), "--suite", "laplace", "--n", n,
                 "--seed", str(seed), "--out", str(work / "eval")]
    else:
        solve = ["solve", "--model", str(model), "--grid", f"square{n}", "--g", str(work / "g.csv"),
                 "--out", str(work / "field.csv")]
        solve += {
            "helmholtz": ["--equation", "helmholtz", "--k", str(K_HELMHOLTZ)],
            "poisson": ["--source", str(work / "f.csv"), "--mesh-h", str(MESH_H)],
            "mixed": ["--dirichlet-edges", "1", "--h", str(work / "h.csv")],
        }[spec["problem"]]
    return {"gen": gen, "train": train, "solve": solve}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def files_of(paths: list[Path]) -> list[Path]:
    return [f for p in paths for f in (sorted(p.iterdir()) if p.is_dir() else [p])]


def remove(paths: list[Path]) -> None:
    for p in paths:
        if p.is_dir():
            shutil.rmtree(p)
        else:
            p.unlink(missing_ok=True)


def check_gen(work: Path, samples: int) -> None:
    csv_path, sidecar = work / "data" / "dataset.csv", work / "data" / "dataset.json"
    if not csv_path.is_file() or not sidecar.is_file():
        raise CheckFailed("gen wrote no dataset.csv / dataset.json")
    meta = json.loads(sidecar.read_text())
    if meta["n_samples"] != samples or meta["n_points"] != N_POINTS:
        raise CheckFailed(f"dataset sidecar says {meta['n_samples']} x {meta['n_points']}")
    with open(csv_path) as fh:
        rows = sum(1 for _ in fh)
    if rows != 1 + 2 * samples:
        raise CheckFailed(f"dataset.csv has {rows} lines, expected {1 + 2 * samples}")


def check_train(work: Path) -> None:
    from tracemap.operator import load_model

    path = work / "model.json"
    if not path.is_file():
        raise CheckFailed("train wrote no model file")
    op = load_model(path.read_text())  # the program's own reader, whatever the format
    if (op.input_dim, op.output_dim) != (N_POINTS, N_POINTS):
        raise CheckFailed(f"model maps {op.input_dim} to {op.output_dim} values, expected {N_POINTS}")


def read_field(path: Path):
    import numpy as np

    with open(path) as fh:
        header = fh.readline().strip().split(",")
    if header != ["x", "y", "u_pred_re", "u_pred_im", "u_exact", "abs_err", "flag"]:
        raise CheckFailed(f"{path.name}: unexpected header {header}")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape[0] == 0:
        raise CheckFailed(f"{path.name}: no rows")
    return table


def field_error(table, exact_values) -> float:
    import numpy as np

    keep = table[:, 6] == 0
    if not keep.any():
        raise CheckFailed("every field point is flagged")
    pred, ref = table[keep, 2], exact_values[keep]
    return float(np.linalg.norm(pred - ref) / np.linalg.norm(ref))


def check_solve(workload: str, work: Path, exact) -> float:
    """Relative L2 error of the interior field (flagged points excluded)."""
    import numpy as np

    problem = WORKLOADS[workload]["problem"]
    bound = ERROR_BOUND[problem]
    if problem == "laplace":
        out = work / "eval"
        summary_path = out / "summary.json"
        if not summary_path.is_file():
            raise CheckFailed("eval wrote no summary.json")
        summary = json.loads(summary_path.read_text())
        cases = sorted(out.glob("case_*.csv"))
        if len(cases) != 50 or sum(s["n_cases"] for s in summary.values()) != 50:
            raise CheckFailed(f"eval wrote {len(cases)} case CSVs, expected 50")
        errors: dict[str, list[float]] = {}
        for path in cases:
            table = read_field(path)
            if not np.all(np.isfinite(table[:, 4])):
                raise CheckFailed(f"{path.name}: non-finite exact values")
            err = field_error(table, table[:, 4])
            if not (math.isfinite(err) and err <= bound):
                raise CheckFailed(f"{path.name}: relative L2 error {err!r} above {bound}")
            errors.setdefault(path.stem.split("_", 2)[2], []).append(err)
        for family, errs in errors.items():
            reported = summary[family]["mean_total_error"]
            if not math.isclose(float(np.mean(errs)), reported, rel_tol=1e-9):
                raise CheckFailed(f"summary.json {family} error {reported!r} disagrees with its CSVs")
        return float(np.mean([e for errs in errors.values() for e in errs]))
    path = work / "field.csv"
    if not path.is_file():
        raise CheckFailed("solve wrote no field CSV")
    table = read_field(path)
    if table.shape[0] != EVAL_GRID_POINTS:
        raise CheckFailed(f"field has {table.shape[0]} points, expected {EVAL_GRID_POINTS}")
    err = field_error(table, exact(table[:, :2]))
    if not (math.isfinite(err) and err <= bound):
        raise CheckFailed(f"field relative L2 error {err!r} above {bound}")
    return err


class Chain:
    """Runs the stages of one workload, checking every output."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.workload, self.work = workload, work
        self.args = stage_args(workload, seed, work)
        self.samples = int(WORKLOADS[workload]["gen"][-1])
        self.exact = make_inputs(workload, seed, work)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, set] = {"gen": set(), "train": set(), "solve": set()}
        self.errors: list[float] = []
        solve_out = work / ("eval" if WORKLOADS[workload]["problem"] == "laplace" else "field.csv")
        self.outputs = {"gen": [work / "data"], "train": [work / "model.json"], "solve": [solve_out]}

    def stage(self, stage: str, tag: str, trace: dict | None = None) -> dict:
        self.attempted += 1
        remove(self.outputs[stage])  # a stage that writes nothing must not pass on old files
        res = run_stage(stage, self.args[stage], self.work, tag, trace)
        try:
            if res["returncode"] != 0:
                raise CheckFailed(f"exit code {res['returncode']}")
            if stage == "gen":
                check_gen(self.work, self.samples)
            elif stage == "train":
                check_train(self.work)
            else:
                self.errors.append(check_solve(self.workload, self.work, self.exact))
            files = files_of(self.outputs[stage])
            res["bytes_written"] = sum(f.stat().st_size for f in files)
            h = hashlib.sha256()
            for f in files:
                h.update(f.read_bytes())
            self.digests[stage].add(h.hexdigest())
        except (CheckFailed, OSError, ValueError, KeyError) as exc:
            self.failed += 1
            self.problems.append(f"{tag}: {exc}")
            print(f"check failed: {tag}: {exc}", file=sys.stderr)
        return res

    def determinism_problems(self) -> list[str]:
        """Repeats with one seed must write identical artifacts."""
        return [f"{s} artifacts differ between repeats" for s, d in self.digests.items() if len(d) > 1]


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, Chain]:
    """About ``seconds`` of solves and ``seconds / 2`` of set-ups (at least
    ``MIN_SETUPS``), interleaved in proportion so that both sample the same
    stretch of machine time, whose speed drifts over tens of seconds."""
    chain = Chain(workload, seed, work)
    setups, solves, rss = [], [], []
    setup_seconds = seconds / 2

    def want_setup():
        return len(setups) < MIN_SETUPS or sum(setups) < setup_seconds

    def want_solve():
        return sum(solves) < seconds

    while (want_setup() or want_solve()) and not chain.failed:  # a failed run reports at once
        if want_setup() and (not want_solve() or sum(setups) / setup_seconds <= sum(solves) / seconds):
            i = len(setups)
            gen = chain.stage("gen", f"gen{i}")
            train = chain.stage("train", f"train{i}")
            setups.append(gen["wall_s"] + train["wall_s"])
            rss += [gen["rss_mb"], train["rss_mb"]]
        else:
            res = chain.stage("solve", f"solve{len(solves)}")
            solves.append(res["wall_s"])
            rss.append(res["rss_mb"])
    metrics = {
        "setup_s": statistics.median(setups) if setups else math.nan,
        "solve_s": statistics.median(solves) if solves else math.nan,
        "peak_rss_mb": max(rss),
    }
    samples = {"setup_s": setups, "solve_s": solves, "peak_rss_mb": rss}
    return {"metrics": metrics, "samples": samples}, chain


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics and the span self-check
# ---------------------------------------------------------------------------


# Per-layer metrics: name -> (unit, better).  Times of a layer a workload
# bypasses read 0 (no span was recorded).
PER_LAYER = {
    "cli.startup_s": ("s", "lower"),
    **{f"cli.{st}.{k}": (u, "lower") for st in ("gen", "train", "solve")
       for k, u in (("wall_s", "s"), ("cpu_s", "s"), ("rss_mb", "MB"), ("self_s", "s"),
                    ("bytes_written", "bytes"))},
    "synthesis.build_dataset.s": ("s", "lower"),
    "synthesis.source_candidate_yield": ("1", "higher"),
    "synthesis.pair_yield": ("1", "higher"),
    "synthesis.dataset_to_csv.s": ("s", "lower"),
    "synthesis.dataset_checksum.s": ("s", "lower"),
    "synthesis.dataset_from_csv.s": ("s", "lower"),
    "synthesis.dataset_csv.bytes": ("bytes", "lower"),
    "operator.fit_least_squares.s": ("s", "lower"),
    "operator.fit_least_squares.gflops_computed": ("GFLOP", "lower"),
    "operator.fit_least_squares.bytes_computed": ("bytes", "lower"),
    "operator.train_adam.s": ("s", "lower"),
    "operator.adam_epoch_ms": ("ms", "lower"),
    "operator.adam_epoch.gflops_computed": ("GFLOP", "lower"),
    "operator.adam_epoch.bytes_computed": ("bytes", "lower"),
    "operator.save_model.s": ("s", "lower"),
    "operator.load_model.s": ("s", "lower"),
    "operator.model.bytes": ("bytes", "lower"),
    **{f"kernels.bessel_{f}.{k}": (u, "lower") for f in ("j0", "y0", "j1", "y1")
       for k, u in (("s", "s"), ("calls", "count"), ("points", "count"))},
    "kernels.bessel.ns_per_point": ("ns", "lower"),
    "kernels.kernel_matrix.s": ("s", "lower"),
    "kernels.kernel_matrix.entries": ("count", "lower"),
    "kernels.kernel_normal_matrix.s": ("s", "lower"),
    "kernels.kernel_normal_matrix.entries": ("count", "lower"),
    "quadrature.BoundaryReconstructor.builds": ("count", "lower"),
    "quadrature.BoundaryReconstructor.build_s": ("s", "lower"),
    "quadrature.BoundaryReconstructor.field_calls": ("count", "lower"),
    "quadrature.BoundaryReconstructor.field_s": ("s", "lower"),
    "quadrature.newton_potential_many.s": ("s", "lower"),
    "quadrature.newton_potential_many.points": ("count", "lower"),
    "quadrature.newton_potential_many.us_per_point": ("us", "lower"),
    "quadrature.source_f.calls": ("count", "lower"),
    "quadrature.source_f.points": ("count", "lower"),
    "quadrature.source_f.s": ("s", "lower"),
    "solvers.solve.calls": ("count", "lower"),
    "solvers.solve.self_s": ("s", "lower"),
    "solvers.evaluate_suite.s": ("s", "lower"),
    "solvers.SolutionField.to_csv.s": ("s", "lower"),
    "solvers.SolutionField.to_csv.bytes": ("bytes", "lower"),
    "solvers.make_eval_grid.s": ("s", "lower"),
    "geometry.make_boundary_grid.s": ("s", "lower"),
    "geometry.triangulate_square.s": ("s", "lower"),
    "geometry.contains.s": ("s", "lower"),
    "geometry.boundary_distance.s": ("s", "lower"),
    "trace.overhead_frac.gen": ("1", "lower"),
    "trace.overhead_frac.train": ("1", "lower"),
    "trace.overhead_frac.solve": ("1", "lower"),
    "rel_l2_error": ("1", "lower"),
}


class StageSpans:
    """The spans of one traced stage, indexed for parent lookups."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.own = {s["id"]: s["end"] - s["start"] for s in spans}
        for s in spans:
            if s["parent"] is not None:
                self.own[s["parent"]] -= s["end"] - s["start"]

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def has_ancestor(self, span: dict, names) -> bool:
        parent = span["parent"]
        while parent is not None:
            p = self.by_id[parent]
            if p["name"] in names:
                return True
            parent = p["parent"]
        return False


def layer_metrics(stages: dict[str, StageSpans], n_samples: int) -> tuple[dict, dict]:
    """Per-layer metrics from the traced stages, and the counts the
    self-check pins."""
    all_spans = [s for st in stages.values() for s in st.spans]

    def named(name):
        return [s for s in all_spans if s["name"] == name]

    def dur(name):
        return sum((s["end"] - s["start"] for s in named(name)), 0.0)

    def total(name, key):
        return sum(s.get(key, 0) for s in named(name))

    m: dict[str, float] = {}
    for stage, st in stages.items():
        m[f"cli.{stage}.self_s"] = st.own[st.named(f"cli.{stage}")[0]["id"]]

    gen = stages["gen"]
    m["synthesis.build_dataset.s"] = dur("synthesis.build_dataset")
    candidates = sum(s["points"] for s in gen.named("geometry.boundary_distance")
                     if gen.has_ancestor(s, {"synthesis.sample_source_points"}))
    accepted = total("synthesis.sample_source_points", "accepted")
    m["synthesis.source_candidate_yield"] = accepted / candidates if candidates else 0.0
    pairs = len(named("synthesis.synthesize_trace_pair"))
    m["synthesis.pair_yield"] = n_samples / pairs if pairs else 0.0
    for fn in ("dataset_to_csv", "dataset_checksum", "dataset_from_csv"):
        m[f"synthesis.{fn}.s"] = dur(f"synthesis.{fn}")
    m["synthesis.dataset_csv.bytes"] = max((s["bytes"] for s in named("synthesis.dataset_to_csv")), default=0)

    m["operator.fit_least_squares.s"] = dur("operator.fit_least_squares")
    m["operator.fit_least_squares.gflops_computed"] = 0.0
    m["operator.fit_least_squares.bytes_computed"] = 0
    for s in named("operator.fit_least_squares"):
        n, a, b = s["samples"], s["n_in"], s["n_out"]
        # Gram X^T X, right-hand side X^T T, LU solve with b right-hand sides.
        m["operator.fit_least_squares.gflops_computed"] += (
            2 * n * a * a + 2 * n * a * b + 2 * a**3 / 3 + 2 * a * a * b) / 1e9
        # Read X and T, write and read the Gram matrix and the solution.
        m["operator.fit_least_squares.bytes_computed"] += 8 * (n * a + n * b + 2 * a * a + 2 * a * b)
    m["operator.train_adam.s"] = dur("operator.train_adam")
    m["operator.adam_epoch_ms"] = 0.0
    m["operator.adam_epoch.gflops_computed"] = 0.0
    m["operator.adam_epoch.bytes_computed"] = 0
    for s in named("operator.train_adam"):
        n, a, b, batch = s["samples"], s["n_in"], s["n_out"], s["batch"]
        m["operator.adam_epoch_ms"] = 1e3 * (s["end"] - s["start"]) / s["epochs"]
        # Per batch of B rows: forward X_b W^T and gradient delta^T X_b,
        # 2 B a b flops each; one epoch covers all n rows.
        m["operator.adam_epoch.gflops_computed"] = 4 * n * a * b / 1e9
        # GEMM operands per batch: X_b, W and the prediction forward;
        # delta, X_b and the gradient backward.
        steps = math.ceil(n / batch)
        m["operator.adam_epoch.bytes_computed"] = 8 * (2 * n * a + 2 * n * b + 2 * steps * a * b)
    m["operator.save_model.s"] = dur("operator.save_model")
    m["operator.load_model.s"] = dur("operator.load_model")
    m["operator.model.bytes"] = max((s["bytes"] for s in named("operator.save_model")), default=0)

    bessel_s = bessel_points = 0.0
    for fn in ("j0", "y0", "j1", "y1"):
        name = f"kernels.bessel_{fn}"
        m[f"{name}.s"] = dur(name)
        m[f"{name}.calls"] = len(named(name))
        m[f"{name}.points"] = total(name, "points")
        bessel_s += m[f"{name}.s"]
        bessel_points += m[f"{name}.points"]
    m["kernels.bessel.ns_per_point"] = 1e9 * bessel_s / bessel_points if bessel_points else 0.0
    for fn in ("kernel_matrix", "kernel_normal_matrix"):
        m[f"kernels.{fn}.s"] = dur(f"kernels.{fn}")
        m[f"kernels.{fn}.entries"] = total(f"kernels.{fn}", "entries")

    rec = "quadrature.BoundaryReconstructor"
    m[f"{rec}.builds"] = len(named(f"{rec}.build"))
    m[f"{rec}.build_s"] = dur(f"{rec}.build")
    m[f"{rec}.field_calls"] = len(named(f"{rec}.field"))
    m[f"{rec}.field_s"] = dur(f"{rec}.field")
    newton = "quadrature.newton_potential_many"
    m[f"{newton}.s"] = dur(newton)
    m[f"{newton}.points"] = total(newton, "points")
    m[f"{newton}.us_per_point"] = 1e6 * m[f"{newton}.s"] / m[f"{newton}.points"] if m[f"{newton}.points"] else 0.0
    m["quadrature.source_f.calls"] = len(named("quadrature.source_f"))
    m["quadrature.source_f.points"] = total("quadrature.source_f", "points")
    m["quadrature.source_f.s"] = dur("quadrature.source_f")

    solve = stages["solve"]
    solve_names = {f"solvers.solve_{k}" for k in ("dirichlet", "helmholtz", "mixed", "poisson")}
    solve_spans = [s for s in solve.spans if s["name"] in solve_names]
    m["solvers.solve.calls"] = sum(1 for s in solve_spans if not solve.has_ancestor(s, solve_names))
    m["solvers.solve.self_s"] = sum(solve.own[s["id"]] for s in solve_spans)
    m["solvers.evaluate_suite.s"] = dur("solvers.evaluate_suite")
    m["solvers.SolutionField.to_csv.s"] = dur("solvers.SolutionField.to_csv")
    m["solvers.SolutionField.to_csv.bytes"] = total("solvers.SolutionField.to_csv", "bytes")
    m["solvers.make_eval_grid.s"] = dur("solvers.make_eval_grid")
    for fn in ("make_boundary_grid", "triangulate_square", "contains", "boundary_distance"):
        m[f"geometry.{fn}.s"] = dur(f"geometry.{fn}")

    def bessel_total(stage, key):
        return sum(1 if key == "calls" else s["points"] for s in stages[stage].spans
                   if s["name"].startswith("kernels.bessel_"))

    counts = {
        "BoundaryReconstructor.builds": m[f"{rec}.builds"],
        "solvers.solve.calls": m["solvers.solve.calls"],
        "gen.bessel.calls": bessel_total("gen", "calls"),
        "gen.bessel.points": bessel_total("gen", "points"),
        "solve.bessel.calls": bessel_total("solve", "calls"),
        "solve.bessel.points": bessel_total("solve", "points"),
        "source_f.calls": m["quadrature.source_f.calls"],
        "newton_potential_many.points": m[f"{newton}.points"],
        "train_adam.calls": len(named("operator.train_adam")),
    }
    return m, counts


def check_spans(stage: str, st: StageSpans) -> list[str]:
    """Spans nest under their stage and self times add up to its wall time."""
    roots = [s for s in st.spans if s["parent"] is None]
    if len(roots) != 1 or roots[0]["name"] != f"cli.{stage}":
        return [f"{stage}: expected one root span cli.{stage}"]
    for s in st.spans:
        if s["end"] is None or s["end"] < s["start"]:
            return [f"{stage}: span {s['name']} has no valid end"]
        p = st.by_id.get(s["parent"]) if s["parent"] is not None else None
        if s["parent"] is not None and (p is None or s["start"] < p["start"] or s["end"] > p["end"]):
            return [f"{stage}: span {s['name']} lies outside its parent"]
    wall = roots[0]["end"] - roots[0]["start"]
    total = sum(st.own.values())
    if abs(total - wall) > 1e-6 * max(wall, 1.0):
        return [f"{stage}: self times sum to {total!r}, root wall is {wall!r}"]
    return []


def traced(workload: str, seed: int, work: Path, out_dir: Path) -> tuple[dict, Chain]:
    """One untraced chain, then the same chain traced; per-layer metrics."""
    chain = Chain(workload, seed, work)
    metrics: dict[str, float] = {"cli.startup_s": startup_s(work)}
    plain = {}
    for stage in ("gen", "train", "solve"):
        res = chain.stage(stage, f"{stage}-untraced")
        plain[stage] = res
        metrics[f"cli.{stage}.wall_s"] = res["wall_s"]
        metrics[f"cli.{stage}.cpu_s"] = res["cpu_s"]
        metrics[f"cli.{stage}.rss_mb"] = res["rss_mb"]
        metrics[f"cli.{stage}.bytes_written"] = res.get("bytes_written", 0)
    run_id = f"{workload}-seed{seed}-{os.getpid()}-{time.time_ns()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    spans_path.unlink(missing_ok=True)
    trace = {"spans": spans_path, "run_id": run_id}
    for stage in ("gen", "train", "solve"):
        res = chain.stage(stage, f"{stage}-traced", trace)
        metrics[f"trace.overhead_frac.{stage}"] = (res["wall_s"] - plain[stage]["wall_s"]) / plain[stage]["wall_s"]
    by_stage: dict[str, list[dict]] = {}
    if spans_path.is_file():
        current: list[dict] = []
        for line in spans_path.read_text().splitlines():
            rec = json.loads(line)
            if rec["parent"] is None:
                current = by_stage.setdefault(rec["name"].split(".", 1)[1], [])
            current.append(rec)
    if set(by_stage) != {"gen", "train", "solve"}:
        chain.problems.append(f"traced spans cover stages {sorted(by_stage)}")
    else:
        stages = {k: StageSpans(v) for k, v in by_stage.items()}
        for stage, st in stages.items():
            chain.problems += check_spans(stage, st)
        layers, counts = layer_metrics(stages, chain.samples)
        metrics.update(layers)
        for key, want in WORKLOADS[workload]["expect"].items():
            print(f"  self-check count {key} = {counts[key]} (expected {want})")
            if counts[key] != want:
                chain.problems.append(f"self-check: {key} is {counts[key]}, expected {want}")
        (out_dir / f"layers-{workload}-seed{seed}.json").write_text(
            json.dumps({"run": run_id, "env": environment(), "metrics": metrics, "counts": counts}, indent=1))
    metrics["rel_l2_error"] = statistics.median(chain.errors) if chain.errors else math.nan
    return metrics, chain


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".perfbench_work" / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            values, chain = traced(workload, seed, work, ROOT / ".perfbench_out")
            samples = {}
            units = {k: PER_LAYER[k][0] for k in PER_LAYER}
        else:
            measured, chain = measure(workload, seed, seconds, work)
            values, samples, units = measured["metrics"], measured["samples"], E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    problems = chain.problems + chain.determinism_problems()
    failed = chain.failed
    error = statistics.median(chain.errors) if chain.errors else math.nan
    env = environment()
    print(f"workload {workload} seed {seed} trace {int(trace)}")
    print("env " + json.dumps(env))
    for name, value in values.items():
        how = ""
        if name in samples:
            kind = "max" if name == "peak_rss_mb" else "median"
            how = f" ({kind} of n={len(samples[name])}: {', '.join(f'{v:.4g}' for v in samples[name])})"
        print(f"  {name} = {value!r} {units.get(name, '')}{how}")
    if not trace:
        print(f"  rel_l2_error = {error!r} 1 (n={len(chain.errors)} solves, median)")
    print(f"  failed_frac = {failed / max(chain.attempted, 1)!r} ({failed} of {chain.attempted} stages)")
    for p in problems:
        print(f"  problem: {p}")
    # A failed traced stage leaves some layers unmeasured: NaN, and the run
    # is marked incorrect.
    metrics = {k: {"value": values.get(k, math.nan), "unit": units[k]}
               for k in (PER_LAYER if trace else E2E_UNITS)}
    return {"correct": not problems, "attempted": chain.attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tracemap" / "cli.py").is_file():
        print(f"no tracemap sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    ok = all(r["correct"] for r in results.values())
    final = results[names[0]] if args.workload else {
        "correct": ok,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(final))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
