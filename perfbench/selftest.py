"""Self-test of the benchmark: python3 perfbench/selftest.py (about a minute).

Runs every workload at its tiny size in both modes and checks that
- the last line has exactly the keys correct, attempted, failed, metrics;
- every metric that BENCHMARK.json names for the mode is reported, with its
  unit, and nothing else; the per-layer ones agree with `tracer.LAYER_METRICS`;
- nothing failed (failed_share is 0);
- two runs with the same seed produce the same CSV;
- without a `src` next to the benchmark, run.py exits non-zero and prints
  no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, seed: int = 1, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import tracer
    import workloads
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if expected[1] != {name: unit for name, unit, _moves, _on in tracer.LAYER_METRICS}:
        problems.append("BENCHMARK.json per_layer differs from tracer.LAYER_METRICS")
    if [w["name"] for w in spec["workloads"]] != list(workloads.NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")

    for workload in workloads.NAMES:
        for trace in (0, 1):
            code, lines = run(workload, trace)
            where = f"{workload} --trace {trace}"
            if code != 0 or not lines:
                problems.append(f"{where}: exit {code}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: keys {sorted(result)}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{where}: metrics/units {got} != {expected[trace]}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: failed {result['failed']} of {result['attempted']}: "
                                + "; ".join(ln for ln in lines if ln.startswith("FAILED")))
            print(f"{where}: {result['failed']} of {result['attempted']} operations failed")

    digests = []
    for _ in range(2):
        run("readme-sweep", 0, seed=5)
        meta = json.loads((ROOT / ".perfbench_work/results/readme-sweep-seed5-trace0.json")
                          .read_text())["meta"]
        digests.append(meta["csv_sha256"])
    if digests[0] is None or digests[0] != digests[1]:
        problems.append(f"same seed, different CSVs: {digests}")

    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench_work") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run("readme-sweep", 0, cwd=bare)
        if code == 0 or any(ln.startswith("{") for ln in lines):
            problems.append(f"without src: exit {code}, output {lines}")

    for p in problems:
        print("PROBLEM", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
