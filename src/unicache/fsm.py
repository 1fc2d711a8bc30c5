"""Finite state machines and prefetchers.

An FSM is a transition table over (state, requested file); attaching a
per-state cache set turns it into a finite-state prefetcher (FSP). Given a
trace, the best prefetcher for a fixed machine is computed exactly: count
requests per (state, file), then cache the C most-requested files of each
state. LRU and FIFO are materialized as explicit FSPs whose states are
ordered tuples of distinct cached files.

A machine, in the sense every policy and oracle here uses, is any object
with a hashable `current` state, an `advance(request)` method and a bulk
`states(requests)` method: an `FsmSpec` walked by `FsmRunner`, the order-k
`Window`, or the LZ-78 parse tree (`lz.LzTree`). `states` returns the state
before each request and leaves the machine advanced past them all, as the
same `advance` calls would; `Machine` gives the loop over `advance`, and
`Window` computes it from slices of the history instead. `state_file_counts`
and `top_c_hits` are the one counting pass behind every per-state oracle,
the fsp oracle (`offline_fsp_hits`) included, which also reads its
per-state caches off the same counts: a state's top-C files score the
state's total count less the counts of the files past its C-th, so only
states with more than C distinct files are sorted. Machines take requests
from a validated trace, so only the parse tree checks them again.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from heapq import nlargest
from itertools import compress
from operator import contains, itemgetter

from .core import (CacheSet, DataError, DomainError, RequestTrace, RunRecord,
                   ScaleGuardError)

_STATE_CAP = 10**6


@dataclass
class FsmSpec:
    """State set [0, n_states), transition table (state x file -> state), start state."""

    n_states: int
    n_files: int
    transitions: list[list[int]]
    initial_state: int

    def __post_init__(self):
        if self.n_states < 1 or self.n_files < 1:
            raise DomainError("an FSM needs at least one state and one file")
        if not 0 <= self.initial_state < self.n_states:
            raise DomainError(f"initial state {self.initial_state} outside [0, {self.n_states})")
        if len(self.transitions) != self.n_states:
            raise DomainError(f"expected {self.n_states} transition rows, got {len(self.transitions)}")
        for s, row in enumerate(self.transitions):
            if len(row) != self.n_files:
                raise DomainError(f"transition row {s} has {len(row)} entries, expected {self.n_files}")
            for x, nxt in enumerate(row):
                if not 0 <= nxt < self.n_states:
                    raise DomainError(f"transition[{s}][{x}]={nxt} outside [0, {self.n_states})")


@dataclass
class Prefetcher:
    """One cache set per FSM state."""

    caches: list[CacheSet]

    def __post_init__(self):
        if not self.caches:
            raise DomainError("a prefetcher needs at least one state entry")
        size = self.caches[0].size
        for s, c in enumerate(self.caches):
            if c.size != size:
                raise DomainError(f"state {s} caches {c.size} files, expected {size}")

    @property
    def cache_size(self) -> int:
        return self.caches[0].size


class Machine:
    """The bulk walk shared by machines whose only transition rule is `advance`."""

    __slots__ = ()

    def states(self, requests) -> list:
        """The state before each request; the machine ends past them all."""
        out = []
        append, advance = out.append, self.advance
        for x in requests:
            append(self.current)
            advance(x)
        return out


class FsmRunner(Machine):
    """An `FsmSpec` walked from its start state."""

    __slots__ = ("transitions", "current")

    def __init__(self, spec: FsmSpec):
        self.transitions = spec.transitions
        self.current = spec.initial_state

    def advance(self, request: int) -> None:
        self.current = self.transitions[self.current][request]


class Window:
    """Order-k context machine: the state is the tuple of the up-to-k most
    recent requests, most recent last. Order 0 has the single state ()."""

    __slots__ = ("k", "current")

    def __init__(self, k: int):
        if k < 0:
            raise DomainError(f"context order must be >= 0, got {k}")
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


def state_file_counts(machine, requests) -> Counter:
    """counts[(state, file)]: how often each file is requested while the
    machine is in each state. Each request is counted in the current state
    and then advances the machine."""
    return Counter(zip(machine.states(requests), requests))


def top_c_hits(counts: Counter, cache_size: int) -> int:
    """Hits of the best per-state cache: summed over the states, the counts
    of each state's `cache_size` most-requested files.

    That is the total count less, in each state with more than `cache_size`
    distinct files, the counts below its top `cache_size`; only those
    crowded states are sorted.
    """
    crowded = {state for state, n in Counter(map(itemgetter(0), counts)).items()
               if n > cache_size}
    hits = sum(counts.values())
    if crowded:
        rows = defaultdict(list)
        in_crowded = map(crowded.__contains__, map(itemgetter(0), counts))
        for (state, _), n in compress(counts.items(), in_crowded):
            rows[state].append(n)
        for row in rows.values():
            row.sort()
            hits -= sum(row[:-cache_size])
    return hits


def offline_fsp_hits(spec: FsmSpec, trace: RequestTrace, cache_size: int) -> tuple[int, Prefetcher]:
    """Hit count of the best prefetcher for this FSM on this trace, plus that
    prefetcher: per state, the C most-requested files, an unrequested file
    counting 0 and ties broken toward smaller ids."""
    n = spec.n_files
    if trace.n_files > n:
        raise DomainError(f"trace uses {trace.n_files} files but FSM only knows {n}")
    if not 1 <= cache_size <= n:
        raise DomainError(f"cache size {cache_size} outside [1, {n}]")
    counts = state_file_counts(FsmRunner(spec), trace.requests)
    caches = []
    for s in range(spec.n_states):
        top = nlargest(cache_size, range(n), key=lambda i: (counts[s, i], -i))
        caches.append(CacheSet(frozenset(top), n))
    return top_c_hits(counts, cache_size), Prefetcher(caches=caches)


def simulate_fsp(spec: FsmSpec, prefetcher: Prefetcher, trace: RequestTrace) -> RunRecord:
    """Replay: prefetch f(s_t), observe x_t, score, then transition."""
    if len(prefetcher.caches) != spec.n_states:
        raise DomainError(f"prefetcher covers {len(prefetcher.caches)} states, FSM has {spec.n_states}")
    if trace.n_files > spec.n_files:
        raise DomainError(f"trace uses {trace.n_files} files but FSM only knows {spec.n_files}")
    sets = [c.files for c in prefetcher.caches]
    cached = map(sets.__getitem__, FsmRunner(spec).states(trace.requests))
    return RunRecord(policy_name="fsp", hits=bytes(map(contains, cached, trace.requests)))


# ---------------------------------------------------------------------------
# LRU and FIFO as explicit FSPs

def _tuple_fsp(n_files: int, cache_size: int, advance) -> tuple[FsmSpec, Prefetcher]:
    """Build an FSP whose states are ordered tuples of distinct cached files.

    Only states reachable from the start tuple (0, .., C-1) are materialized;
    the reachable set is closed under `advance`, so the table is total.
    """
    if not 1 <= cache_size <= n_files:
        raise DomainError(f"cache size {cache_size} outside [1, {n_files}]")
    bound = 1
    for i in range(cache_size):
        bound *= n_files - i
        if bound > _STATE_CAP:
            raise ScaleGuardError(
                f"tuple-state space exceeds {_STATE_CAP} states for N={n_files}, C={cache_size}")
    start = tuple(range(cache_size))
    ids = {start: 0}
    order = [start]
    rows = []
    i = 0
    while i < len(order):
        sigma = order[i]
        row = []
        for x in range(n_files):
            nxt = advance(sigma, x)
            nid = ids.get(nxt)
            if nid is None:
                nid = len(order)
                ids[nxt] = nid
                order.append(nxt)
            row.append(nid)
        rows.append(row)
        i += 1
    spec = FsmSpec(n_states=len(order), n_files=n_files, transitions=rows, initial_state=0)
    caches = [CacheSet(frozenset(sigma), n_files) for sigma in order]
    return spec, Prefetcher(caches=caches)


def _lru_advance(sigma: tuple, x: int) -> tuple:
    if x in sigma:
        i = sigma.index(x)
        return sigma[:i] + sigma[i + 1:] + (x,)
    return sigma[1:] + (x,)


def _fifo_advance(sigma: tuple, x: int) -> tuple:
    if x in sigma:
        return sigma
    return sigma[1:] + (x,)


def lru_fsp(n_files: int, cache_size: int) -> tuple[FsmSpec, Prefetcher]:
    """LRU as an FSP: states are the cached files ordered by last request,
    least-recent first; start state (0, .., C-1)."""
    return _tuple_fsp(n_files, cache_size, _lru_advance)


def fifo_fsp(n_files: int, cache_size: int) -> tuple[FsmSpec, Prefetcher]:
    """FIFO as an FSP: states are the cached files ordered by insertion,
    oldest first; a request for a cached file leaves the state unchanged."""
    return _tuple_fsp(n_files, cache_size, _fifo_advance)


class LruPolicy:
    """Direct LRU simulator, seeded with cache (0 .. C-1), 0 least recent."""

    def __init__(self, n_files: int, cache_size: int, name: str = "lru"):
        if not 1 <= cache_size <= n_files:
            raise DomainError(f"cache size {cache_size} outside [1, {n_files}]")
        self.name = name
        self.order = list(range(cache_size))
        self.cached = set(self.order)

    def step(self, request: int) -> int:
        if request in self.cached:
            self.order.remove(request)
            self.order.append(request)
            return 1
        evicted = self.order.pop(0)
        self.cached.discard(evicted)
        self.order.append(request)
        self.cached.add(request)
        return 0


class FifoPolicy:
    """Direct FIFO simulator, seeded with queue (0 .. C-1), 0 oldest."""

    def __init__(self, n_files: int, cache_size: int, name: str = "fifo"):
        if not 1 <= cache_size <= n_files:
            raise DomainError(f"cache size {cache_size} outside [1, {n_files}]")
        self.name = name
        self.queue = list(range(cache_size))
        self.cached = set(self.queue)

    def step(self, request: int) -> int:
        if request in self.cached:
            return 1
        evicted = self.queue.pop(0)
        self.cached.discard(evicted)
        self.queue.append(request)
        self.cached.add(request)
        return 0


# ---------------------------------------------------------------------------
# Serialization

def save_fsm(spec: FsmSpec, path, prefetcher: Prefetcher | None = None) -> None:
    """Write the text form: header "Q N C", Q transition rows, the start
    state, and optionally Q rows of prefetched file ids. All ids 0-based."""
    c = prefetcher.cache_size if prefetcher is not None else 0
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{spec.n_states} {spec.n_files} {c}\n")
        for row in spec.transitions:
            fh.write(" ".join(map(str, row)) + "\n")
        fh.write(f"{spec.initial_state}\n")
        if prefetcher is not None:
            for cache in prefetcher.caches:
                fh.write(" ".join(map(str, sorted(cache.files))) + "\n")


def load_fsm(path) -> tuple[FsmSpec, Prefetcher | None]:
    """Read the text form written by `save_fsm`."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            lines = [ln.strip() for ln in fh]
        except UnicodeDecodeError:
            raise DataError(f"{path}: not an ASCII text file") from None
    # Blank lines are skipped, but every message names the line in the file.
    lines = [(lineno, ln) for lineno, ln in enumerate(lines, start=1) if ln]
    if not lines:
        raise DataError(f"{path}: empty machine file")
    lineno, header = lines[0]
    try:
        q, n, c = map(int, header.split())
    except ValueError:
        raise DataError(f"{path}:{lineno}: header must be 'Q N C', got {header!r}") from None
    for field, value, low in (("Q", q, 1), ("N", n, 1), ("C", c, 0)):
        if value < low:
            raise DataError(f"{path}:{lineno}: header {field} must be >= {low}, got {value}")
    if c > n:
        raise DataError(f"{path}:{lineno}: header C {c} exceeds N {n}")
    want = 1 + q + 1 + (q if c else 0)
    if len(lines) != want:
        raise DataError(f"{path}: expected {want} non-empty lines, found {len(lines)}")
    rows = []
    for lineno, line in lines[1:1 + q]:
        try:
            rows.append([int(v) for v in line.split()])
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad transition row") from None
    lineno, line = lines[1 + q]
    try:
        s0 = int(line)
    except ValueError:
        raise DataError(f"{path}:{lineno}: bad start state line {line!r}") from None
    try:
        spec = FsmSpec(n_states=q, n_files=n, transitions=rows, initial_state=s0)
    except DomainError as exc:
        raise DataError(f"{path}: {exc}") from None
    prefetcher = None
    if c:
        caches = []
        for lineno, line in lines[2 + q:]:
            try:
                ids = [int(v) for v in line.split()]
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad prefetch row") from None
            if len(set(ids)) != c:
                raise DataError(f"{path}:{lineno}: expected {c} distinct file ids")
            try:
                caches.append(CacheSet(frozenset(ids), n))
            except DomainError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
        prefetcher = Prefetcher(caches=caches)
    return spec, prefetcher
