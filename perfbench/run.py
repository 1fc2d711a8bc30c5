"""unicache benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It writes the workload's inputs from the
seed (see `workloads`), then runs fresh child interpreters one at a time,
closed loop with one caller, until the time is used up (at least three).
Each child makes the calls `unicache run` makes and checks its outputs
(see `child`). setup_s is the median over the children; every other metric
is their mean. On a shared host whose CPU speed switches between two states,
a median over a handful of children jumps from one state to the other, while
the mean moves in proportion to the time spent in each.

--trace 0 reports the end-to-end metrics:
    setup_s        child start (before importing unicache) to config parsed
                   and trace in memory
    rounds_per_s   sum of T over the CSV rows / time from trace in memory to
                   CSV text
    decide_us_p50  latency of one policy `step` call, from a timed replay of
    decide_us_p99  each online policy for one seed: the median over those
                   policies of each one's median (p99); the sample counts
                   per policy are in the meta line
    peak_rss_mb    ru_maxrss of the child
--trace 1 runs one traced child first and reports the per-layer metrics
(see `tracer`), with trace_overhead: the traced run time over the mean
untraced one. Untraced children never import the tracer.

Failed operations over attempted ones (failed_share) are the `failed` and
`attempted` of the last line: (policy, seed) cells, output checks, and one
determinism check per extra child (every child's CSV must be byte-identical).
Results, meta and spans go to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170  # a run must end within 180 s, even when a child hangs
MIN_CHILDREN = 3

END_TO_END_UNITS = {"setup_s": "s", "rounds_per_s": "rounds/s", "decide_us_p50": "us",
                    "decide_us_p99": "us", "peak_rss_mb": "MB"}


def commit_id() -> str:
    """HEAD of the checkout's git metadata, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(workdir: Path, config: str, mode: str, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), config, mode]
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        return {"mode": mode, "attempted": 1, "failures": [f"child timed out ({mode})"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"mode": mode, "attempted": 1,
                "failures": [f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny exercises every path quickly (self-test only)")
    args = parser.parse_args()
    if not (SRC / "unicache" / "__init__.py").is_file():
        print(f"run.py: no unicache package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"run.py: unknown workload {args.workload!r}; one of {', '.join(workloads.NAMES)}",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        config = workloads.prepare(args.workload, args.seed, args.size, workdir)
        began = time.perf_counter()
        deadline = began + RUN_LIMIT_S
        traced = run_child(workdir, config, "trace", deadline) if args.trace else None
        plain: list[dict] = []
        durations: list[float] = []
        while len(plain) < MIN_CHILDREN or (
                time.perf_counter() - began + statistics.median(durations) <= args.seconds):
            t0 = time.perf_counter()
            plain.append(run_child(workdir, config, "plain", deadline))
            durations.append(time.perf_counter() - t0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    children = plain + ([traced] if traced else [])
    attempted = sum(c["attempted"] for c in children)
    failures = [f for c in children for f in c["failures"]]
    digests = [c.get("csv_sha256") for c in children]
    for digest in digests[1:]:
        attempted += 1
        if digest != digests[0]:
            failures.append("CSV differs between runs of the same inputs")
    ok = [c for c in plain if "setup_s" in c]

    def over_children(key):
        if not ok:
            return 0.0
        average = statistics.median if key == "setup_s" else statistics.fmean
        return average(c[key] for c in ok)

    if args.trace:
        layers = dict(traced.get("layers", {}))
        layers["trace_overhead"] = (traced["run_s"] / over_children("run_s")
                                    if "run_s" in traced and ok else 0.0)
        import tracer
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit, _moves, _on in tracer.LAYER_METRICS}
    else:
        metrics = {name: {"value": over_children(name), "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    meta = {"commit": commit_id(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "size": args.size,
            "children": len(children), "elapsed_s": time.perf_counter() - began,
            "csv_sha256": digests[0] if digests else None,
            "decide_samples": ok[0].get("decide_samples") if ok else None}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(
        {"meta": meta, "metrics": metrics, "attempted": attempted, "failures": failures,
         "children": [{k: v for k, v in c.items() if k != "spans"} for c in children]},
        indent=1))
    if traced and "spans" in traced:
        (results / f"{tag}-spans.json").write_text(json.dumps(traced["spans"]))

    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"failed_share {len(failures) / attempted if attempted else 1.0!r} ratio "
          f"({len(failures)} of {attempted} operations)")
    for failure in failures:
        print(f"FAILED {failure.splitlines()[0]}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
