"""Finite state machines and prefetchers.

An FSM is a transition table over (state, requested file); attaching a
per-state cache set turns it into a finite-state prefetcher (FSP). Given a
trace, the best prefetcher for a fixed machine is computed exactly: count
requests per (state, file), then cache the C most-requested files of each
state. `simulate_fsp` replays a machine file's prefetcher. LRU and FIFO
are direct simulators; as machines their states would be the ordered
tuples of cached files, a form the tests build to check them.

A machine, in the sense every policy and oracle here uses, is any object
with an int `current` state, an `advance(request)` method and a bulk
`states(requests)` method: an `FsmSpec` walked by `FsmRunner`, the order-k
`Window`, or the LZ-78 parse tree (`lz.LzTree`), whose states are node ids.
`states` is an iterator over the state before each request; once it is
exhausted, the machine is past them all, as the same `advance` calls would
leave it. `Machine` gives the generator over `advance`, and `Window` runs
its one arithmetic rule through `itertools.accumulate`; no T-long list of
states is built. `state_file_counts` and `top_c_hits` are the one
counting pass behind every per-state oracle, the fsp oracle
(`offline_fsp_hits`) included, which also reads its per-state caches off
the same counts. Each (state, file) pair is counted under the one int
`state * n_files + file`. A state's top-C files score the state's total
count less the counts of the files past its C-th, so only states with more
than C distinct files are sorted. Machines take requests from a validated
trace, so only the parse tree checks them again.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from heapq import nlargest
from itertools import accumulate, compress, islice, repeat
from operator import add, contains, floordiv, mul

from .core import CacheSet, DataError, DomainError, RequestTrace, RunRecord


class FsmSpec:
    """State set [0, n_states), transition table (state x file -> state), start state."""

    __slots__ = ("n_states", "n_files", "transitions", "initial_state")

    def __init__(self, n_states: int, n_files: int, transitions: list[list[int]],
                 initial_state: int):
        if n_states < 1 or n_files < 1:
            raise DomainError("an FSM needs at least one state and one file")
        if not 0 <= initial_state < n_states:
            raise DomainError(f"initial state {initial_state} outside [0, {n_states})")
        if len(transitions) != n_states:
            raise DomainError(f"expected {n_states} transition rows, got {len(transitions)}")
        for s, row in enumerate(transitions):
            if len(row) != n_files:
                raise DomainError(f"transition row {s} has {len(row)} entries, expected {n_files}")
            for x, nxt in enumerate(row):
                if not 0 <= nxt < n_states:
                    raise DomainError(f"transition[{s}][{x}]={nxt} outside [0, {n_states})")
        self.n_states, self.n_files = n_states, n_files
        self.transitions, self.initial_state = transitions, initial_state

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n_states, self.n_files, self.transitions, self.initial_state) == \
            (other.n_states, other.n_files, other.transitions, other.initial_state)


class Prefetcher:
    """One cache set per FSM state."""

    __slots__ = ("caches",)

    def __init__(self, caches: list[CacheSet]):
        if not caches:
            raise DomainError("a prefetcher needs at least one state entry")
        size = caches[0].size
        for s, c in enumerate(caches):
            if c.size != size:
                raise DomainError(f"state {s} caches {c.size} files, expected {size}")
        self.caches = caches

    @property
    def cache_size(self) -> int:
        return self.caches[0].size


class Machine:
    """The bulk walk shared by machines whose only transition rule is `advance`."""

    __slots__ = ()

    def states(self, requests):
        """Yield the state before each request; once exhausted, the machine
        is past them all."""
        advance = self.advance
        for x in requests:
            yield self.current
            advance(x)


class FsmRunner(Machine):
    """An `FsmSpec` walked from its start state."""

    __slots__ = ("transitions", "current")

    def __init__(self, spec: FsmSpec):
        self.transitions = spec.transitions
        self.current = spec.initial_state

    def advance(self, request: int) -> None:
        self.current = self.transitions[self.current][request]


class Window:
    """Order-k context machine over files 0..n_files-1: the state is the
    int code of the up-to-k most recent requests in base B = n_files + 1.
    Request x is the digit x + 1, the most recent in the lowest digit; a
    position not yet filled is the digit 0, so each partial window of the
    first k rounds is a state of its own. The order-k code is the
    order-(k + 1) code mod B**k. Order 0 has the single state 0."""

    __slots__ = ("k", "base", "modulus", "current")

    def __init__(self, k: int, n_files: int):
        if k < 0:
            raise DomainError(f"context order must be >= 0, got {k}")
        self.k = k
        self.base = n_files + 1
        self.modulus = self.base ** k
        self.current = 0

    def advance(self, request: int) -> None:
        self.current = (self.current * self.base + request + 1) % self.modulus

    def states(self, requests):
        """The code before each request, as `advance` would compute it; the
        end code is set first, from the last k requests (older digits shift out)."""
        if not self.k:
            return repeat(0, len(requests))
        base, modulus = self.base, self.modulus
        start = self.current
        for x in requests[-self.k:]:
            self.advance(x)
        return islice(accumulate(requests, lambda code, x: (code * base + x + 1) % modulus,
                                 initial=start), len(requests))


def state_file_counts(machine, requests, n_files: int) -> Counter:
    """counts[state * n_files + file]: how often each file is requested while
    the machine is in each state. Each request is counted in the current
    state and then advances the machine."""
    return Counter(map(add, map(mul, machine.states(requests), repeat(n_files)), requests))


def top_c_hits(counts: Counter, cache_size: int, n_files: int) -> int:
    """Hits of the best per-state cache: summed over the states, the counts
    of each state's `cache_size` most-requested files, for counts keyed as
    `state_file_counts` keys them.

    That is the total count less, in each state with more than `cache_size`
    distinct files, the counts below its top `cache_size`; only those
    crowded states are sorted.
    """
    crowded = {state for state, n in Counter(map(floordiv, counts, repeat(n_files))).items()
               if n > cache_size}
    hits = sum(counts.values())
    if crowded:
        rows = defaultdict(list)
        in_crowded = map(crowded.__contains__, map(floordiv, counts, repeat(n_files)))
        for key, n in compress(counts.items(), in_crowded):
            rows[key // n_files].append(n)
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
    counts = state_file_counts(FsmRunner(spec), trace.requests, n)
    caches = []
    for s in range(spec.n_states):
        top = nlargest(cache_size, range(n), key=lambda i: (counts[s * n + i], -i))
        caches.append(CacheSet(frozenset(top), n))
    return top_c_hits(counts, cache_size, n), Prefetcher(caches=caches)


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
# LRU and FIFO

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
