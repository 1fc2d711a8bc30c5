"""Shared test helpers."""

import math
from bisect import bisect_right
from collections import Counter, defaultdict, deque
from heapq import nlargest
from itertools import accumulate, combinations

from unicache import (CacheSet, ConfigError, DataError, DomainError, FsmSpec, LzTree,
                      Prefetcher, RequestTrace, ResultRow, RunRecord, SplitMix64)
from unicache import sage
from unicache.core import _parse_trace_header
from unicache.harness import CSV_HEADER


def random_trace(n_files: int, length: int, seed: int) -> RequestTrace:
    rng = SplitMix64(seed)
    return RequestTrace(n_files, [rng.next_below(n_files) for _ in range(length)])


def zipf_trace(n_files: int, exponent: float, rounds: int, seed: int) -> RequestTrace:
    """Independent Zipf draws: file r with probability proportional to (r + 1)^-exponent."""
    rng = SplitMix64(seed)
    cum = list(accumulate((r + 1) ** -exponent for r in range(n_files)))
    return RequestTrace(n_files, [min(bisect_right(cum, rng.next_float() * cum[-1]), n_files - 1)
                                  for _ in range(rounds)])


def worked_example():
    """3-state machine over 5 files with a 12-request trace; the best
    per-state prefetch at C=2 misses exactly once (rate 11/12)."""
    spec = FsmSpec(
        n_states=3, n_files=5,
        transitions=[[0, 1, 0, 0, 0],
                     [2, 0, 2, 0, 0],
                     [0, 0, 0, 0, 0]],
        initial_state=0)
    trace = RequestTrace(5, [1, 0, 4, 1, 2, 4, 1, 3, 4, 1, 2, 3])
    counts = [[0, 4, 0, 0, 1],
              [1, 0, 2, 1, 0],
              [0, 0, 0, 1, 2]]
    prefetch = [{1, 4}, {0, 2}, {3, 4}]
    return spec, trace, counts, prefetch


def mean(values):
    return sum(values) / len(values)


def stderr(values):
    n = len(values)
    if n < 2:
        return 0.0
    m = mean(values)
    var = sum((v - m) ** 2 for v in values) / (n - 1)
    return (var / n) ** 0.5


def hedge_bruteforce_marginals(counts, eta: float, n_files: int, cache_size: int) -> list[float]:
    """Hedge marginals by enumerating all (N choose C) subset-experts explicitly.

    Each subset S carries mass proportional to exp(eta * sum of counts in S);
    the marginal of file i is the mass fraction of subsets containing i.
    Only usable at small scale.
    """
    if len(counts) != n_files:
        raise DomainError(f"expected {n_files} counts, got {len(counts)}")
    if not 1 <= cache_size <= n_files:
        raise DomainError(f"cache size {cache_size} outside [1, {n_files}]")
    if math.comb(n_files, cache_size) > 10**6:
        raise ValueError("brute-force expert enumeration capped at 1e6 subsets")
    best = sum(sorted(counts, reverse=True)[:cache_size])
    total = 0.0
    acc = [0.0] * n_files
    for subset in combinations(range(n_files), cache_size):
        mass = math.exp(eta * (sum(counts[i] for i in subset) - best))
        total += mass
        for i in subset:
            acc[i] += mass
    return [a / total for a in acc]


def madow_table(p) -> tuple[list[float], int]:
    """Checked cumulative sums of p, entries clamped at 1, and their total C:
    the table `sage._madow_walk` walks, from any inclusion probabilities."""
    cum = [0.0]
    acc = 0.0
    for pj in p:
        if not (pj >= -1e-12 and pj <= 1.0 + 1e-9):  # a NaN fails both
            raise DomainError(f"inclusion probability p[{len(cum) - 1}]={pj} outside [0, 1]")
        acc += pj if pj < 1.0 else 1.0
        cum.append(acc)
    c = round(acc)
    if c < 1 or abs(acc - c) > sage._MARGINAL_SUM_TOL:
        raise DomainError(f"inclusion probabilities sum to {acc}, not a positive integer")
    return cum, c


def madow_members(p, u: float) -> list[int]:
    """The Madow sample of p for the draw u, in rising order: every index
    that `sage._madow_walk` over p's table puts in the sample. The walk
    raises the same error whatever index it is asked about."""
    cum, c = madow_table(p)
    return [x for x in range(len(p)) if sage._madow_walk(cum, c, u, x)]


def eta_schedule_reference(n_files: int, cache_size: int, eta: float, misses: int,
                           mode: str) -> list[float]:
    """eta of one instance after 0, 1, .., `misses` misses, noted one at a
    time: under doubling, a miss that brings the count to the threshold,
    first max(1, ceil(C ln(N e / C))), multiplies eta by 1/sqrt(2) and
    doubles the threshold; under fixed, eta stays."""
    mark = max(1, math.ceil(cache_size * math.log(n_files * math.e / cache_size)))
    etas = [eta]
    for count in range(1, misses + 1):
        if mode == "doubling" and count >= mark:
            eta *= 0.7071067811865476
            mark *= 2
        etas.append(eta)
    return etas


def lru_rule(sigma: tuple, x: int) -> tuple:
    """LRU's next state: the cached files by last request, least recent first."""
    if x in sigma:
        i = sigma.index(x)
        return sigma[:i] + sigma[i + 1:] + (x,)
    return sigma[1:] + (x,)


def fifo_rule(sigma: tuple, x: int) -> tuple:
    """FIFO's next state: the cached files by insertion, oldest first; a
    request for a cached file leaves the state unchanged."""
    return sigma if x in sigma else sigma[1:] + (x,)


def tuple_fsp_reference(n_files: int, cache_size: int, rule) -> tuple[FsmSpec, Prefetcher]:
    """LRU or FIFO as an explicit prefetcher: the states are the ordered
    tuples of cached files reachable from (0, .., C-1) under `rule`, and each
    state caches its own files. Every reachable tuple is materialized, so
    keep N small."""
    start = tuple(range(cache_size))
    ids = {start: 0}
    order = [start]
    rows = []
    for sigma in order:  # grows as new tuples are reached
        row = []
        for x in range(n_files):
            nxt = rule(sigma, x)
            if nxt not in ids:
                ids[nxt] = len(order)
                order.append(nxt)
            row.append(ids[nxt])
        rows.append(row)
    spec = FsmSpec(n_states=len(order), n_files=n_files, transitions=rows, initial_state=0)
    return spec, Prefetcher(caches=[CacheSet(frozenset(sigma), n_files) for sigma in order])


def reference_parse(requests) -> list[tuple[int, ...]]:
    """Set-based LZ-78 parse: each phrase is the shortest string not seen before."""
    seen = set()
    phrases = []
    cur = ()
    for x in requests:
        cur = cur + (x,)
        if cur not in seen:
            seen.add(cur)
            phrases.append(cur)
            cur = ()
    return phrases


def parsed_tree(trace: RequestTrace) -> LzTree:
    """The LZ-78 parse tree walked over the whole trace."""
    tree = LzTree(trace.n_files)
    deque(tree.states(trace.requests), maxlen=0)
    return tree


def tree_phrases(tree: LzTree) -> list[tuple[int, ...]]:
    """The completed phrases of a parse tree, in order. Phrase i is the path
    from the root to node i + 1: a node is created when its phrase
    completes, after its parent's, so the edges are in child-id order."""
    phrases = []
    for key in tree.edges:
        parent, symbol = divmod(key, tree.n_files)
        phrases.append((phrases[parent - 1] if parent else ()) + (symbol,))
    return phrases


class LzNode:
    __slots__ = ("parent", "depth", "symbol", "children", "visits")

    def __init__(self, parent: int, depth: int, symbol: int):
        self.parent = parent
        self.depth = depth
        self.symbol = symbol  # edge label from the parent; -1 at the root
        self.children: dict[int, int] = {}
        self.visits = 0  # requests consumed while this node was current


class NodeTree:
    """A reference for `LzTree`: one node object, with its own children dict
    and live visit count, per parse-tree node, and a `states` that returns
    the T-long list."""

    def __init__(self, n_files: int):
        self.n_files = n_files
        self.nodes = [LzNode(parent=-1, depth=0, symbol=-1)]
        self.current = 0
        self.phrase_count = 0

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def consumed(self) -> int:
        return sum(node.visits for node in self.nodes)

    def advance(self, request: int) -> None:
        if not 0 <= request < self.n_files:
            raise DomainError(f"request {request} outside [0, {self.n_files})")
        cur = self.current
        node = self.nodes[cur]
        node.visits += 1
        child = node.children.get(request)
        if child is None:
            child_id = len(self.nodes)
            self.nodes.append(LzNode(parent=cur, depth=node.depth + 1, symbol=request))
            node.children[request] = child_id
            self.phrase_count += 1
            self.current = 0
        else:
            self.current = child

    def states(self, requests) -> list:
        return advance_walk(self, requests)

    def dump_lines(self) -> list[str]:
        """The lines `lz.dump_tree` writes, from the live visits."""
        return [f"{nid} {node.parent} {node.depth} {node.symbol} {node.visits}"
                for nid, node in enumerate(self.nodes)]


def advance_walk(machine, requests) -> list:
    """The state before each request, one `advance` at a time."""
    states = []
    for x in requests:
        states.append(machine.current)
        machine.advance(x)
    return states


class TupleWindow:
    """Order-k context machine on tuples, a reference for `Window`'s codes:
    the state is the tuple of the up-to-k most recent requests, most recent
    last. Order 0 has the single state ()."""

    def __init__(self, k: int):
        self.k = k
        self.current: tuple[int, ...] = ()

    def advance(self, request: int) -> None:
        if self.k:
            window = self.current
            self.current = (window if len(window) < self.k else window[1:]) + (request,)

    def states(self, requests) -> list:
        """The window before each request, as `advance` would build it: the
        partial tuples while fewer than k requests are known, then the k-wide
        tuples, which are zips of k shifted slices of the history."""
        k = self.k
        if not k:
            return [()] * len(requests)
        history = self.current + tuple(requests)
        n = len(history)
        # The window is partial only before the k-th request ever seen, and
        # then it holds the whole history.
        out = [history[:p] for p in range(len(self.current), min(k, n))]
        if n > k:
            out += zip(*[history[i:n - k + i] for i in range(k)])
        self.current = history[-k:]
        return out


def window_code(window: tuple, n_files: int) -> int:
    """The `Window` state of a context tuple: in base n_files + 1, request x
    is the digit x + 1, the most recent (last) request in the lowest digit."""
    code = 0
    for x in window:
        code = code * (n_files + 1) + x + 1
    return code


def top_c_hits_reference(counts: Counter, cache_size: int) -> int:
    """Per-state top-C hits the direct way: group each state's counts, sum
    its `cache_size` largest with `heapq.nlargest`."""
    per_state = defaultdict(list)
    for (state, _), n in counts.items():
        per_state[state].append(n)
    return sum(sum(nlargest(cache_size, row)) for row in per_state.values())


def optimal_prefetcher_reference(spec: FsmSpec, trace: RequestTrace,
                                 cache_size: int) -> list[frozenset]:
    """The best prefetcher's cache sets the dense way: a Q x N table of
    request counts, filled by walking the transition table, then per row the
    `cache_size` largest counts, ties broken toward smaller ids."""
    counts = [[0] * spec.n_files for _ in range(spec.n_states)]
    state = spec.initial_state
    for x in trace.requests:
        counts[state][x] += 1
        state = spec.transitions[state][x]
    return [frozenset(nlargest(cache_size, range(spec.n_files), key=lambda i: (row[i], -i)))
            for row in counts]


def simulate_fsp_reference(spec: FsmSpec, prefetcher: Prefetcher,
                           trace: RequestTrace) -> RunRecord:
    """A machine's own prefetcher replayed the dense way: each round, score
    the request against the current state's cache set, then take the
    transition."""
    hits = bytearray()
    state = spec.initial_state
    for x in trace.requests:
        hits.append(x in prefetcher.caches[state].files)
        state = spec.transitions[state][x]
    return RunRecord(policy_name="fsp", hits=bytes(hits))


def nonzero_counts(rows) -> Counter:
    """A dense per-state table of counts as the `Counter` that
    `state_file_counts` returns: its nonzero entries, keyed by
    state * n_files + file."""
    return Counter({s * len(row) + x: n for s, row in enumerate(rows)
                    for x, n in enumerate(row) if n})


def load_trace_reference(path) -> RequestTrace:
    """`core.load_trace` one line at a time: strip, skip blanks, read the
    header from line 1 only, `int` each other line, then range-check each id
    as written against the library, naming its line."""
    ids = []  # (line number, text, id)
    declared_n = None
    base = 0
    with open(path, "r", encoding="ascii") as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                if lineno == 1 and line.startswith("#"):
                    declared_n, base = _parse_trace_header(line, path)
                    continue
                try:
                    ids.append((lineno, line, int(line)))
                except ValueError:
                    raise DataError(f"{path}:{lineno}: not an integer file id: "
                                    f"{line!r}") from None
        except UnicodeDecodeError:
            raise DataError(f"{path}: not an ASCII text file") from None
    n = declared_n
    if n is None:
        if not ids:
            raise DataError(f"{path}: empty trace with no library size declared")
        n = max(max(x for _, _, x in ids) + 1, 1)
    for lineno, line, x in ids:
        if not base <= x <= n - 1 + base:
            raise DataError(f"{path}:{lineno}: file id {line} outside [{base}, {n - 1 + base}]")
    return RequestTrace(n, [x - base for _, _, x in ids])


def parse_csv(text: str) -> list[ResultRow]:
    """Inverse of `harness.to_csv`, for round-trip checks."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError("unexpected CSV header")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 11:
            raise ConfigError(f"bad CSV row: {ln!r}")

        def opt(v, cast):
            return cast(v) if v else None

        rows.append(ResultRow(
            policy=parts[0], order=opt(parts[1], int), seed=opt(parts[2], int),
            T=int(parts[3]), n_files=int(parts[4]), cache_size=int(parts[5]),
            hits=int(parts[6]), hit_rate=float(parts[7]),
            regret_static=opt(parts[8], int), regret_markov_k=opt(parts[9], int),
            bound_value=opt(parts[10], float)))
    return rows
