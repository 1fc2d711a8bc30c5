"""Wrappers that time the calls into each unicache layer, for traced runs only.

Calls that cover many rounds (config parsing, trace generation and I/O,
`replay`, each oracle pass, `run_experiment`, `to_csv`) are kept as full
spans: name, start, end, parent and self time. Calls made once or more per
round (`next_float`, `weights`, `marginals`, `madow_sample`, each policy's
`step`) are folded into per-name aggregates: count, total and self time.
Self time is the duration minus the time covered by child calls.

Each wrapper is installed where the caller looks the name up: a name
imported by a module is replaced in that module (`madow_sample` in sage,
markov and lz; the library calls in harness), a method on its class. A name
that no longer exists is skipped, and its metric reads 0. The child imports
this module only when tracing, so untraced runs run unwrapped code.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict

import unicache.core as core
import unicache.fsm as fsm
import unicache.harness as harness
import unicache.lz as lz
import unicache.markov as markov
import unicache.sage as sage

# Per-layer metrics: name, unit, the end-to-end metric it should move, and
# the workloads where it does. A metric whose layer a workload does not
# exercise reads 0 there.
LAYER_METRICS = (
    ("core.next_float.us", "us/call", "rounds_per_s", "readme-sweep"),
    ("core.replay.self_us", "us/round", "rounds_per_s", "readme-sweep"),
    ("core.load_trace.s", "s", "setup_s", "oracle-replay"),
    ("datagen.generate_trace.s", "s", "setup_s", "readme-sweep"),
    ("sage.weights.us", "us/call", "decide_us_p50", "zipf-skew"),
    ("sage.marginals.us", "us/call", "decide_us_p50, rounds_per_s", "zipf-skew, readme-sweep"),
    ("sage.marginals.calls", "count", "rounds_per_s", "readme-sweep"),
    ("sage.marginals.retry_share", "ratio", "decide_us_p99", "zipf-skew"),
    ("sage.marginals.distinct_share", "ratio", "rounds_per_s", "readme-sweep"),
    ("sage.madow_sample.us", "us/call", "rounds_per_s", "readme-sweep"),
    ("sage.eta_shrinks", "count", "none: it must repeat exactly", "readme-sweep, zipf-skew"),
    ("markov.step.self_us", "us/call", "rounds_per_s", "readme-sweep"),
    ("markov.contexts", "count", "peak_rss_mb", "oracle-replay, readme-sweep"),
    ("markov.oracle.s", "s/order", "rounds_per_s", "oracle-replay"),
    ("lz.step.self_us", "us/call", "rounds_per_s", "readme-sweep"),
    ("lz.nodes", "count", "peak_rss_mb", "oracle-replay"),
    ("lz.oracle.s", "s", "rounds_per_s", "oracle-replay"),
    ("lz.parse_passes", "count", "rounds_per_s", "oracle-replay"),
    ("fsm.fsp_oracle.s", "s", "rounds_per_s", "oracle-replay"),
    ("fsm.lru.step_us", "us/call", "rounds_per_s", "oracle-replay"),
    ("fsm.fifo.step_us", "us/call", "rounds_per_s", "oracle-replay"),
    ("harness.oracle_passes", "count", "rounds_per_s", "oracle-replay"),
    ("harness.cell.sage.s", "s", "rounds_per_s", "readme-sweep, zipf-skew"),
    ("harness.cell.markov.s", "s", "rounds_per_s", "readme-sweep"),
    ("harness.cell.lz.s", "s", "rounds_per_s", "readme-sweep"),
    ("harness.cell.lru.s", "s", "rounds_per_s", "all"),
    ("harness.cell.fifo.s", "s", "rounds_per_s", "readme-sweep, oracle-replay"),
    ("harness.cell.static-oracle.s", "s", "rounds_per_s", "all"),
    ("harness.cell.markov-oracle.s", "s", "rounds_per_s", "readme-sweep, oracle-replay"),
    ("harness.cell.lz-oracle.s", "s", "rounds_per_s", "readme-sweep, oracle-replay"),
    ("harness.cell.fsp-oracle.s", "s", "rounds_per_s", "oracle-replay"),
    ("harness.self.s", "s", "rounds_per_s", "all"),
    ("trace_overhead", "ratio", "none: traced over untraced run time", "all"),
)

_KINDS = ("sage", "markov", "lz", "lru", "fifo", "static-oracle", "markov-oracle",
          "lz-oracle", "fsp-oracle")


def _cell_kind(name: str, attrs: dict) -> str | None:
    """The policy kind whose harness cell a span belongs to: the library calls
    that produce that kind's hit count (an order-k oracle pass counts for
    markov-oracle even when only markov:k's bound needs it)."""
    if name == "core.replay":
        return attrs["policy"].partition(":")[0]
    if name == "markov.oracle":
        return "static-oracle" if attrs["k"] == 0 else "markov-oracle"
    if name in ("lz.oracle", "lz.parse_phrases"):
        return "lz-oracle"
    if name in ("fsm.fsp_oracle", "fsm.load_fsm"):
        return "fsp-oracle"
    return None


def _patch(owner, attr: str, make) -> None:
    """Replace `owner.attr` with `make(original)`; skip a name that is gone."""
    original = getattr(owner, attr, None)
    if original is not None:
        setattr(owner, attr, make(original))


class Tracer:
    """Installs the wrappers and collects spans, aggregates and counts."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, self_ns, attrs]
        self.agg: dict[str, list[int]] = {}  # name -> [count, total_ns, self_ns]
        self.counts: Counter = Counter()
        # One frame per open call: [time covered by child calls, enclosing span].
        self._stack: list[list[int]] = [[0, -1]]
        self._label = ""
        self._round = 0
        self._evaluations: set = set()
        self._trees: list = []

    # -- wrapper factories ---------------------------------------------------

    def _aggregate(self, name: str, fn, pre=None, post=None):
        cell = self.agg.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            frame = [0, stack[-1][1]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stack[-1][0] += dur
                cell[0] += 1
                cell[1] += dur
                cell[2] += dur - frame[0]
            if post is not None:
                post(args, result)
            return result
        return wrapper

    def _span(self, name: str, fn, pre=None, post=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(args)
            record = [name, 0, 0, stack[-1][1], 0, {}]
            frame = [0, len(spans)]
            spans.append(record)
            stack.append(frame)
            record[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stack[-1][0] += end - start
                record[2] = end
                record[4] = end - start - frame[0]
            if post is not None:
                post(record[5], args, result)
            return result
        return wrapper

    # -- hooks ---------------------------------------------------------------

    def _next_round(self, args) -> None:
        self._round += 1

    def _check_marginals(self, args, p) -> None:
        state = args[0]
        self._evaluations.add((self._label, self._round, state.eta))
        c = state.cache_size
        if not all(0.0 <= v <= 1.0 for v in p) or abs(math.fsum(p) - c) > 1e-9:
            self.counts["bad_marginals"] += 1

    def _count_retry(self, args, result) -> None:
        if result is None:
            self.counts["retries"] += 1

    def _start_replay(self, args) -> None:
        self._label = args[0].name
        self._round = 0

    def _end_replay(self, attrs, args, result) -> None:
        policy, trace = args
        attrs["policy"] = policy.name
        attrs["rounds"] = len(trace)
        self.counts["markov.contexts"] += getattr(policy, "contexts_visited", 0)

    def _counting(self, *keys: str):
        def post(attrs, args, result):
            for key in keys:
                self.counts[key] += 1
        return post

    def _markov_oracle(self, attrs, args, result) -> None:
        attrs["k"] = args[1]
        self.counts["oracle_passes"] += 1

    # -- install / collect ---------------------------------------------------

    def install(self) -> None:
        agg, span, patch = self._aggregate, self._span, _patch
        patch(core.SplitMix64, "next_float", lambda f: agg("core.next_float", f))
        patch(sage.SageState, "weights", lambda f: agg("sage.weights", f))
        patch(sage.SageState, "marginals",
              lambda f: agg("sage.marginals", f, post=self._check_marginals))
        patch(sage, "_marginals_fast",
              lambda f: agg("sage.marginals_fast", f, post=self._count_retry))
        patch(sage, "_marginals_scaled", lambda f: agg("sage.marginals_scaled", f))
        for module in (sage, markov, lz):
            patch(module, "madow_sample", lambda f: agg("sage.madow_sample", f))
        patch(sage.SageState, "note_miss", self._shrink_counter)
        for owner, name in ((sage.SagePolicy, "sage.step"),
                            (markov.MarkovSagePolicy, "markov.step"),
                            (lz.LzSagePolicy, "lz.step"),
                            (fsm.LruPolicy, "fsm.lru.step"),
                            (fsm.FifoPolicy, "fsm.fifo.step")):
            patch(owner, "step", lambda f, name=name: agg(name, f, pre=self._next_round))
        # Per-context tables: one Counter per context in the markov oracle,
        # one parse tree per lz oracle pass, parse or policy.
        patch(markov, "Counter", self._context_counter)
        patch(lz, "LzTree", self._tree_registry)

        for attr in ("parse_config", "materialize_trace", "run_experiment", "to_csv"):
            patch(harness, attr, lambda f, attr=attr: span(f"harness.{attr}", f))
        patch(harness, "load_trace", lambda f: span("core.load_trace", f))
        patch(harness, "random_fsm", lambda f: span("datagen.random_fsm", f))
        patch(harness, "generate_trace", lambda f: span("datagen.generate_trace", f))
        patch(harness, "replay",
              lambda f: span("core.replay", f, pre=self._start_replay, post=self._end_replay))
        patch(harness, "offline_markov_hit_rate",
              lambda f: span("markov.oracle", f, post=self._markov_oracle))
        patch(harness, "offline_lz_oracle",
              lambda f: span("lz.oracle", f, post=self._counting("oracle_passes", "parse_passes")))
        patch(harness, "parse_phrases",
              lambda f: span("lz.parse_phrases", f, post=self._counting("parse_passes")))
        patch(harness, "offline_fsp_hits",
              lambda f: span("fsm.fsp_oracle", f, post=self._counting("oracle_passes")))
        patch(harness, "load_fsm", lambda f: span("fsm.load_fsm", f))

    def _shrink_counter(self, note_miss):
        counts = self.counts

        def wrapper(state):
            eta = state.eta
            note_miss(state)
            if state.eta != eta:
                counts["eta_shrinks"] += 1
        return wrapper

    def _context_counter(self, counter_cls):
        counts = self.counts

        def make(*args, **kwargs):
            counts["markov.contexts"] += 1
            return counter_cls(*args, **kwargs)
        return make

    def _tree_registry(self, tree_cls):
        trees = self._trees

        class RegisteredTree(tree_cls):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                trees.append(self)
        return RegisteredTree

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric but `trace_overhead`, which needs the untraced runs."""
        def per_call_us(name, self_time=False):
            count, total, self_ns = self.agg.get(name, (0, 0, 0))
            return (self_ns if self_time else total) / count / 1e3 if count else 0.0

        span_s: defaultdict = defaultdict(float)
        span_self_s: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        cells: defaultdict = defaultdict(float)
        replay_rounds = 0
        for name, start, end, _parent, self_ns, attrs in self.spans:
            seconds = (end - start) / 1e9
            span_s[name] += seconds
            span_self_s[name] += self_ns / 1e9
            calls[name] += 1
            if name == "core.replay":
                replay_rounds += attrs["rounds"]
            kind = _cell_kind(name, attrs)
            if kind is not None:
                cells[kind] += seconds
        marginal_calls = self.agg.get("sage.marginals", (0,))[0]
        out = {
            "core.next_float.us": per_call_us("core.next_float"),
            "core.replay.self_us": (span_self_s["core.replay"] * 1e6 / replay_rounds
                                    if replay_rounds else 0.0),
            "core.load_trace.s": span_s["core.load_trace"],
            "datagen.generate_trace.s": span_s["datagen.generate_trace"],
            "sage.weights.us": per_call_us("sage.weights"),
            "sage.marginals.us": per_call_us("sage.marginals"),
            "sage.marginals.calls": marginal_calls,
            "sage.marginals.retry_share": (self.counts["retries"] / marginal_calls
                                           if marginal_calls else 0.0),
            "sage.marginals.distinct_share": (len(self._evaluations) / marginal_calls
                                              if marginal_calls else 0.0),
            "sage.madow_sample.us": per_call_us("sage.madow_sample"),
            "sage.eta_shrinks": self.counts["eta_shrinks"],
            "markov.step.self_us": per_call_us("markov.step", self_time=True),
            "markov.contexts": self.counts["markov.contexts"],
            "markov.oracle.s": (span_s["markov.oracle"] / calls["markov.oracle"]
                                if calls["markov.oracle"] else 0.0),
            "lz.step.self_us": per_call_us("lz.step", self_time=True),
            "lz.nodes": sum(tree.node_count for tree in self._trees),
            "lz.oracle.s": span_s["lz.oracle"],
            "lz.parse_passes": self.counts["parse_passes"],
            "fsm.fsp_oracle.s": span_s["fsm.fsp_oracle"],
            "fsm.lru.step_us": per_call_us("fsm.lru.step"),
            "fsm.fifo.step_us": per_call_us("fsm.fifo.step"),
            "harness.oracle_passes": self.counts["oracle_passes"],
        }
        for kind in _KINDS:
            out[f"harness.cell.{kind}.s"] = cells[kind]
        out["harness.self.s"] = span_self_s["harness.run_experiment"]
        return out

    def span_records(self) -> list[dict]:
        """Spans as JSON-ready records, times in microseconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0
        return [{"name": name, "start_us": (start - origin) / 1e3, "end_us": (end - origin) / 1e3,
                 "parent": parent, "self_us": self_ns / 1e3, **attrs}
                for name, start, end, parent, self_ns, attrs in self.spans]

    def aggregates(self) -> dict[str, dict]:
        return {name: {"count": c, "total_us": total / 1e3, "self_us": self_ns / 1e3}
                for name, (c, total, self_ns) in self.agg.items()}
