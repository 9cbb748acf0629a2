"""scripts/bench_pairs.py against two stub checkouts whose perfbench/run.py
prints a fixed result line, or fails for chosen seeds."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"

STUB = '''import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if seed in {fail_seeds}:
    print("check failed: solve0: field relative L2 error 0.0612 above 0.05", file=sys.stderr)
    print("  problem: solve0: field relative L2 error 0.0612 above 0.05")
    print(json.dumps({{"correct": False, "metrics": {{}}}}))
    sys.exit(1)
print("  rel_l2_error = {error} 1")
metrics = {{"setup_s": {setup}, "solve_s": {solve}, "peak_rss_mb": 50.0}}
print(json.dumps({{"correct": True, "metrics": {{k: {{"value": v}} for k, v in metrics.items()}}}}))
'''


def checkout(root: Path, name: str, setup: float, solve: float, fail_seeds=()) -> Path:
    path = root / name
    (path / "perfbench").mkdir(parents=True)
    (path / "src").mkdir()
    stub = STUB.format(fail_seeds=set(fail_seeds) or "set()", error=1e-3, setup=setup, solve=solve)
    (path / "perfbench" / "run.py").write_text(stub)
    metrics = [{"name": n, "unit": u, "better": "lower", "bound": 0.25}
               for n, u in (("setup_s", "s"), ("solve_s", "s"), ("peak_rss_mb", "MB"))]
    (path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": metrics}))
    return path


def bench_pairs(parent: Path, change: Path, pairs: int):
    cmd = [sys.executable, str(SCRIPT), str(parent), str(change), "--workload", "w",
           "--pairs", str(pairs), "--first-seed", "1000"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120)


def test_all_pairs_pass(tmp_path):
    proc = bench_pairs(checkout(tmp_path, "parent", 2.0, 4.0), checkout(tmp_path, "change", 1.0, 4.0), 3)
    assert proc.returncode == 0, proc.stderr
    assert "w: 3 of 3 pairs complete; failed runs: parent 0, change 0" in proc.stdout
    setup = next(line for line in proc.stdout.splitlines() if line.strip().startswith("setup_s"))
    assert setup.split()[-2:] == ["-50.0%", "3/3"]


def test_a_failed_run_is_recorded_and_the_rest_still_runs(tmp_path):
    parent = checkout(tmp_path, "parent", 2.0, 4.0, fail_seeds=[1002])
    change = checkout(tmp_path, "change", 1.0, 4.0, fail_seeds=[1001, 1002])
    proc = bench_pairs(parent, change, 4)
    assert proc.returncode == 1
    reason = "problem: solve0: field relative L2 error 0.0612 above 0.05"
    assert f"w pair 2/4 (seed 1001): change failed (exit 1): {reason}" in proc.stdout
    assert f"w pair 3/4 (seed 1002): parent failed (exit 1): {reason}" in proc.stdout
    assert f"w pair 3/4 (seed 1002): change failed (exit 1): {reason}" in proc.stdout
    assert "w pair 4/4 (seed 1003): setup_s 2 -> 1" in proc.stdout
    assert "w: 2 of 4 pairs complete; failed runs: parent 1, change 2" in proc.stdout
    setup = next(line for line in proc.stdout.splitlines() if line.strip().startswith("setup_s"))
    assert setup.split()[-2:] == ["-50.0%", "2/2"]
