"""Committed `BENCH_<n>.json` files: the before and after numbers of a speed claim.

Each file records, for every workload and end-to-end metric that
`BENCHMARK.json` names, the parent commit's value and the change's value,
measured on one machine by `perfbench/run.py`.
"""

import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_files_hold_parent_and_change_for_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files, "no committed BENCH_<n>.json"
    for path in files:
        bench = json.loads(path.read_text())
        for workload in workloads:
            for metric in metrics:
                cell = bench["end_to_end"][workload][metric]
                for side in ("parent", "change"):
                    value = cell[side]
                    assert isinstance(value, (int, float)) and math.isfinite(value), \
                        (path.name, workload, metric, side)
