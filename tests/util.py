"""Shared test helpers."""

import math
from bisect import bisect_right
from itertools import accumulate, combinations

from unicache import DomainError, FsmSpec, RequestTrace, ScaleGuardError, SplitMix64


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
        raise ScaleGuardError("brute-force expert enumeration capped at 1e6 subsets")
    best = sum(sorted(counts, reverse=True)[:cache_size])
    total = 0.0
    acc = [0.0] * n_files
    for subset in combinations(range(n_files), cache_size):
        mass = math.exp(eta * (sum(counts[i] for i in subset) - best))
        total += mass
        for i in subset:
            acc[i] += mass
    return [a / total for a in acc]
