"""Committed `BENCH_<n>.json` files: the before and after numbers of a speed claim.

Each file records, for every workload and end-to-end metric that
`BENCHMARK.json` names, the parent commit's value and the change's value,
measured on one machine by `perfbench/run.py`.
"""

import json
import math
import statistics
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


def test_bench_summaries_match_their_runs():
    # Each summarised cell restates its runs: the medians, the inclusive
    # quartiles, and the pairs the change won in the metric's direction.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    for path in sorted(ROOT.glob("BENCH_*.json")):
        bench = json.loads(path.read_text())
        for section in ("end_to_end", "held_out"):
            for workload, cells in bench.get(section, {}).items():
                for metric, cell in cells.items():
                    where = (path.name, section, workload, metric)
                    parent, change = cell["parent_runs"], cell["change_runs"]
                    assert len(parent) == len(change), where
                    for side, runs in (("parent", parent), ("change", change)):
                        assert math.isclose(cell[side], statistics.median(runs),
                                            rel_tol=1e-12), where
                        q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
                        low, high = cell[f"{side}_quartiles"]
                        assert math.isclose(low, q1, rel_tol=1e-12), where
                        assert math.isclose(high, q3, rel_tol=1e-12), where
                    won = sum(c < p if better[metric] == "lower" else c > p
                              for p, c in zip(parent, change))
                    assert cell["change_better_pairs"] == f"{won} of {len(parent)}", where
