"""Alternating parent/change pairs of the end-to-end benchmark.

Usage::

    python scripts/bench_pairs.py PARENT CHANGE [--workload W ...] [--pairs N]
                                  [--first-seed S]

PARENT and CHANGE are two source checkouts, each with its own
``perfbench/run.py``.  Pair i runs ``python3 perfbench/run.py --workload W
--seed S+i --trace 0`` from both checkouts, at the benchmark's own run
length, the parent first in even pairs and the change first in odd ones,
so each pair shares one fresh seed and the machine's drift falls on both
sides alike.  For every workload
and end-to-end metric of the change's ``BENCHMARK.json`` it prints both
sides' median and quartiles, the change of the median, and how many pairs
the change won (better in the metric's direction); ``rel_l2_error`` is
printed next to them.  A run that fails (nonzero exit or an incorrect
result) is recorded with its side, seed, exit code and last ``check
failed:`` / ``problem:`` line, and the comparison goes on: its pair is left
out of the medians and win counts, each workload's report counts the
failures per side, and the script exits 1 at the end.  Checkout paths of
unequal length are refused, because ``peak_rss_mb`` moves with the length
of the checkout's path, and so is cached bytecode under one checkout's
``src`` only, because every stage of the other would then compile the
package before it starts.

Standard library only; the benchmark's own files are read, never changed.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

DEFAULT_WORKLOADS = ["laplace-eval", "helmholtz-k10-solve", "poisson-source-solve", "mixed-adam-solve"]
REL_L2 = re.compile(r"^\s*rel_l2_error = (\S+)", re.MULTILINE)
FAILURE_LINE = re.compile(r"^\s*((?:check failed|problem):.*)$", re.MULTILINE)


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run: ``{metric: value}`` plus ``rel_l2_error``,
    or, for a failed run, ``{"exit": code, "reason": last failure line}``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except ValueError:
        result = {}
    if proc.returncode != 0 or not result.get("correct"):
        reasons = FAILURE_LINE.findall(proc.stderr + "\n" + proc.stdout)
        return {"exit": proc.returncode, "reason": reasons[-1] if reasons else "no check failed:/problem: line"}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    err = REL_L2.search(proc.stdout)
    values["rel_l2_error"] = float(err.group(1)) if err else float("nan")
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def report(workload: str, runs: dict[str, list[dict]], directions: dict[str, str]) -> None:
    """Print one workload's table over the pairs in which both runs passed."""
    failed = {side: sum("exit" in r for r in rs) for side, rs in runs.items()}
    pairs = [(p, c) for p, c in zip(runs["parent"], runs["change"]) if "exit" not in p and "exit" not in c]
    print(f"\n{workload}: {len(pairs)} of {len(runs['parent'])} pairs complete; "
          f"failed runs: parent {failed['parent']}, change {failed['change']}")
    if not pairs:
        return
    runs = {"parent": [p for p, _ in pairs], "change": [c for _, c in pairs]}
    print(f"  {'metric':14s} {'parent median [q1, q3]':34s} {'change median [q1, q3]':34s} {'median':>8s} {'won':>6s}")
    for name in [*directions, "rel_l2_error"]:
        par = [r[name] for r in runs["parent"]]
        chg = [r[name] for r in runs["change"]]
        pq, cq = quartiles(par), quartiles(chg)
        delta = cq[1] / pq[1] - 1.0 if pq[1] else float("nan")
        won = ""
        if name in directions:
            better = (lambda c, p: c < p) if directions[name] == "lower" else (lambda c, p: c > p)
            won = f"{sum(better(c, p) for c, p in zip(chg, par))}/{len(par)}"
        cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]" for q in (pq, cq)]
        print(f"  {name:14s} {cells[0]:34s} {cells[1]:34s} {100 * delta:+7.1f}% {won:>6s}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in sides.items():
        if not (path / "perfbench" / "run.py").is_file():
            parser.error(f"{side} checkout {path} has no perfbench/run.py")
    if len(str(sides["parent"])) != len(str(sides["change"])):
        parser.error(f"checkout paths differ in length ({sides['parent']}, {sides['change']}); "
                     "peak_rss_mb moves with the path length")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    cached = {side: any((path / "src").rglob("*.pyc")) for side, path in sides.items()}
    if cached["parent"] != cached["change"]:
        parser.error(f"cached bytecode under src/ in one checkout only ({cached}); "
                     "every stage of the other would compile the package first")
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    any_failed = False
    for workload in args.workload or DEFAULT_WORKLOADS:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                runs[side].append(run_once(sides[side], workload, seed))
            par, chg = runs["parent"][-1], runs["change"][-1]
            head = f"  {workload} pair {i + 1}/{args.pairs} (seed {seed}): "
            for side, r in (("parent", par), ("change", chg)):
                if "exit" in r:
                    any_failed = True
                    print(f"{head}{side} failed (exit {r['exit']}): {r['reason']}", flush=True)
            if "exit" not in par and "exit" not in chg:
                print(head + ", ".join(f"{m} {par[m]:.4g} -> {chg[m]:.4g}" for m in directions), flush=True)
        report(workload, runs, directions)
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
