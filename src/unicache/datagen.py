"""Synthetic request generation from a randomly constructed FSM.

The generated trace is predictable with zero misses by construction: the
machine that generated it, prefetching its per-state file array A_s, hits
every round.

Draw schedule (one SplitMix64 stream per function, fully determined by the
seed): `random_fsm` draws the Q x N transition table row by row (one
`next_below(Q)` per entry), then for each state C partial Fisher-Yates
draws to pick A_s, then one draw for the start state. `generate_trace`
draws one `next_below(C)` per round to pick from A_s.
"""

from __future__ import annotations

from .core import DomainError, RequestTrace, SplitMix64
from .fsm import FsmRunner, FsmSpec


def random_fsm(n_states: int, n_files: int, cache_size: int, seed: int
               ) -> tuple[FsmSpec, list[tuple[int, ...]]]:
    """Uniform random transition table plus a random C-subset A_s per state."""
    if n_states < 1:
        raise DomainError(f"need at least one state, got {n_states}")
    if not 1 <= cache_size <= n_files:
        raise DomainError(f"cache size {cache_size} outside [1, {n_files}]")
    rng = SplitMix64(seed)
    transitions = [[rng.next_below(n_states) for _ in range(n_files)]
                   for _ in range(n_states)]
    arrays = []
    for _ in range(n_states):
        pool = list(range(n_files))
        for i in range(cache_size):
            j = i + rng.next_below(n_files - i)
            pool[i], pool[j] = pool[j], pool[i]
        arrays.append(tuple(sorted(pool[:cache_size])))
    initial = rng.next_below(n_states)
    spec = FsmSpec(n_states=n_states, n_files=n_files,
                   transitions=transitions, initial_state=initial)
    return spec, arrays


def generate_trace(spec: FsmSpec, arrays: list[tuple[int, ...]], initial_state: int,
                   horizon: int, seed: int) -> RequestTrace:
    """Walk the machine for `horizon` rounds, requesting uniformly from A_s."""
    if len(arrays) != spec.n_states:
        raise DomainError(f"need one file array per state, got {len(arrays)}")
    if not 0 <= initial_state < spec.n_states:
        raise DomainError(f"start state {initial_state} outside [0, {spec.n_states})")
    if horizon < 0:
        raise DomainError(f"horizon must be >= 0, got {horizon}")
    size = len(arrays[0])
    for s, a in enumerate(arrays):
        if len(a) != size or len(set(a)) != size:
            raise DomainError(f"state {s} array must hold {size} distinct files")
    rng = SplitMix64(seed)
    machine = FsmRunner(spec)
    machine.current = initial_state
    requests = []
    for _ in range(horizon):
        x = arrays[machine.current][rng.next_below(size)]
        requests.append(x)
        machine.advance(x)
    return RequestTrace(n_files=spec.n_files, requests=requests)
