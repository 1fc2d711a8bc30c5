"""One measured pass over a workload, in a fresh interpreter.

Usage: child.py SRC CONFIG MODE, run from the directory that holds CONFIG.
SRC is the absolute path of the checkout's `src`; MODE is `plain` or `trace`.

The pass makes the calls `unicache run` makes: `parse_config`,
`materialize_trace`, `run_experiment`, `to_csv`. A plain pass then replays
the workload's policies once more, timing every `step` call. A traced pass
installs the wrappers of `tracer` instead and skips the timed replay. Every
pass checks its outputs and prints one JSON object on stdout.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback

CSV_HEADER = "policy,k,seed,T,N,C,hits,hit_rate,regret_static,regret_markov_k,bound_value"


class Checks:
    """Operations attempted in a pass, each one passed or failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def check_csv(checks: Checks, csv_text: str, cfg, horizon: int) -> dict:
    """Check the CSV against the config; returns its rows keyed by (policy, seed)."""
    lines = csv_text.splitlines()
    checks.check(bool(lines) and lines[0] == CSV_HEADER, "CSV header")
    fields = CSV_HEADER.split(",")
    rows = {}
    for line in lines[1:]:
        row = dict(zip(fields, line.split(",")))
        rows[(row["policy"], row.get("seed"))] = row
    expected = [(spec.label, str(seed)) for spec in cfg.policies for seed in cfg.seeds]
    checks.check(len(lines) - 1 == len(expected), "row count = policies x seeds")
    hits_of = {}
    for key in expected:
        row = rows.get(key)
        ok = row is not None and row["T"] == str(horizon)
        if ok:
            hits = int(row["hits"])
            ok = 0 <= hits <= horizon and abs(float(row["hit_rate"]) - hits / horizon) <= 1e-11
            hits_of[key] = hits
        checks.check(ok, f"cell {key[0]} seed {key[1]}: 0 <= hits <= T, hit_rate = hits/T")
    seed = str(cfg.seeds[0])
    static = hits_of.get(("static-oracle", seed))
    orders = sorted(spec.order for spec in cfg.policies if spec.kind == "markov-oracle")
    if static is not None and orders:
        chain = [static] + [hits_of.get((f"markov-oracle:{k}", seed), -1) for k in orders]
        checks.check(all(a <= b for a, b in zip(chain, chain[1:])),
                     "static-oracle <= markov-oracle:k, nondecreasing in k")
    for spec in cfg.policies:
        if spec.kind == "fsp-oracle":
            checks.check(hits_of.get((spec.label, seed)) == horizon,
                         f"{spec.label} of the generating machine scores T")
    return hits_of


def build_policy(spec, n_files: int, cache_size: int, eta_config, seed: int):
    from unicache.fsm import FifoPolicy, LruPolicy
    from unicache.lz import LzSagePolicy
    from unicache.markov import MarkovSagePolicy
    from unicache.sage import SagePolicy
    if spec.kind == "sage":
        return SagePolicy(n_files, cache_size, eta_config, seed)
    if spec.kind == "markov":
        return MarkovSagePolicy(n_files, cache_size, spec.order, eta_config, seed)
    if spec.kind == "lz":
        return LzSagePolicy(n_files, cache_size, eta_config, seed)
    if spec.kind == "lru":
        return LruPolicy(n_files, cache_size)
    return FifoPolicy(n_files, cache_size)


def decide_pass(checks: Checks, cfg, trace, hits_of: dict) -> list[list[int]]:
    """Replay each online policy for the first seed, timing every `step` call.

    Online means the learning policies (sage, markov:k, lz); a workload with
    none of them times its replacement policies (lru, fifo) instead. Each
    replay must reproduce the hit count of its CSV row. Returns the sorted
    latencies in ns, one list per policy.
    """
    learning = [s for s in cfg.policies if s.kind in ("sage", "markov", "lz")]
    timed = learning or [s for s in cfg.policies if s.kind in ("lru", "fifo")]
    seed = cfg.seeds[0]
    clock = time.perf_counter_ns
    per_policy = []
    for spec in timed:
        step = build_policy(spec, trace.n_files, cfg.cache_size, cfg.eta_config(), seed).step
        latencies: list[int] = []
        record = latencies.append
        hits = 0
        for x in trace.requests:
            start = clock()
            hit = step(x)
            record(clock() - start)
            hits += hit
        checks.check(hits == hits_of.get((spec.label, str(seed))),
                     f"timed replay of {spec.label} reproduces its CSV hits")
        per_policy.append(sorted(latencies))
    return per_policy


def percentile_us(per_policy: list[list[int]], q: float) -> float:
    """Median over policies of each one's nearest-rank q-percentile, in us.

    Pooling the calls instead would put the median of a workload whose two
    policies differ in cost on the gap between them.
    """
    return statistics.median(lat[max(0, math.ceil(q * len(lat)) - 1)]
                             for lat in per_policy) / 1e3


def main() -> int:
    src, config, mode = sys.argv[1:4]
    checks = Checks()
    out: dict = {"mode": mode}
    start = time.perf_counter()
    try:
        sys.path.insert(0, src)
        from unicache import harness
        tracer = None
        if mode == "trace":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        cfg = harness.parse_config(config)
        trace = harness.materialize_trace(cfg)
        ready = time.perf_counter()
        rows = harness.run_experiment(cfg, trace)
        csv_text = harness.to_csv(rows)
        done = time.perf_counter()
    except Exception:
        # The CLI would have exited non-zero: every cell of the pass fails.
        out.update(attempted=1, failures=["exit without exception: " + traceback.format_exc()])
        print(json.dumps(out))
        return 0
    checks.check(True, "exit without exception")
    out["setup_s"] = ready - start
    out["run_s"] = done - ready
    out["rounds_per_s"] = sum(r.T for r in rows) / out["run_s"]
    out["csv_sha256"] = hashlib.sha256(csv_text.encode("ascii")).hexdigest()
    hits_of = check_csv(checks, csv_text, cfg, len(trace))
    if tracer is not None:
        checks.check(tracer.counts["bad_marginals"] == 0,
                     "every marginal vector lies in [0, 1] and sums to C within 1e-9")
        out["layers"] = tracer.layer_metrics()
        out["aggregates"] = tracer.aggregates()
        out["spans"] = tracer.span_records()
    else:
        per_policy = decide_pass(checks, cfg, trace, hits_of)
        out["decide_samples"] = [len(lat) for lat in per_policy]
        out["decide_us_p50"] = percentile_us(per_policy, 0.50)
        out["decide_us_p99"] = percentile_us(per_policy, 0.99)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["attempted"] = checks.attempted
    out["failures"] = checks.failures
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
