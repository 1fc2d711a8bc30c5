"""Closed-form evaluators for the policy guarantees.

All bounds use natural logarithms. Conventions: N files, cache size C,
horizon T, S (or Q) machine states, k the context order, miss counts
l_star / L_star of the respective offline benchmarks, and c_T the number of
parse-tree nodes.
"""

from __future__ import annotations

import math

from .core import DomainError


def _check_nc(n_files: int, cache_size: int) -> float:
    if n_files < 1 or not 1 <= cache_size <= n_files:
        raise DomainError(f"need 1 <= cache_size <= n_files, got C={cache_size}, N={n_files}")
    return math.log(n_files * math.e / cache_size)


def markov_vs_fsp_gap(n_states: int, order: int, n_files: int, cache_size: int) -> float:
    """Worst-case hit-rate gap of the order-k context oracle below the best
    S-state machine oracle: min(1 - C/N, sqrt(ln S / (2 (k + 1))))."""
    _check_nc(n_files, cache_size)
    if n_states < 1 or order < 0:
        raise DomainError("need n_states >= 1 and order >= 0")
    return min(1.0 - cache_size / n_files,
               math.sqrt(math.log(n_states) / (2.0 * (order + 1))))


def static_regret_bound(l_star: int, n_files: int, cache_size: int) -> float:
    """Loss-dependent regret cap against the best fixed cache:
    sqrt(2 C l* ln(N e / C)) + C ln(N e / C)."""
    span = _check_nc(n_files, cache_size)
    if l_star < 0:
        raise DomainError(f"miss count must be >= 0, got {l_star}")
    return math.sqrt(2.0 * cache_size * l_star * span) + cache_size * span


def fsm_regret_bound(n_states: int, l_star: int, n_files: int, cache_size: int) -> float:
    """Per-state decomposition over S states:
    sqrt(2 C S L* ln(N e / C)) + C S ln(N e / C)."""
    span = _check_nc(n_files, cache_size)
    if n_states < 1 or l_star < 0:
        raise DomainError("need n_states >= 1 and l_star >= 0")
    try:
        root = math.sqrt(2.0 * cache_size * n_states * l_star * span) if l_star else 0.0
        return root + cache_size * n_states * span
    except OverflowError:  # a state count past the double range: so is the bound
        return math.inf


def markov_regret_bound(order: int, l_star: int, n_files: int, cache_size: int) -> float:
    """The per-state bound specialized to the N^k contexts of order k. The k
    warm-up windows, each visited once, may add up to k more to the regret."""
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order}")
    return fsm_regret_bound(n_files**order, l_star, n_files, cache_size)


def fsp_total_regret_bound(n_states: int, order: int, n_files: int, cache_size: int,
                           horizon: int, l_star_k: int) -> float:
    """Total regret of the order-k per-context policy against the best
    S-state machine: T * gap + per-context regret."""
    if horizon < 0:
        raise DomainError(f"horizon must be >= 0, got {horizon}")
    return (horizon * markov_vs_fsp_gap(n_states, order, n_files, cache_size)
            + markov_regret_bound(order, l_star_k, n_files, cache_size))


def miss_fraction_bound(n_states: int, order: int, n_files: int, cache_size: int,
                        horizon: int) -> float:
    """Expected miss fraction of the order-k per-context policy on a trace
    that some Q-state machine predicts without misses."""
    span = _check_nc(n_files, cache_size)
    if horizon < 1:
        raise DomainError(f"horizon must be >= 1, got {horizon}")
    gap = markov_vs_fsp_gap(n_states, order, n_files, cache_size)
    try:
        load = n_files**order * cache_size / horizon * span
    except OverflowError:  # N^k contexts past the double range: so is the bound
        return math.inf
    return gap + (math.sqrt(2.0 * gap * load) if gap else 0.0) + load


def lz_regret_bound(order: int, c_t: int, l_star_lz: int, n_files: int, cache_size: int) -> float:
    """Regret cap of the parse-tree policy against the order-k context
    oracle: delta(c_T, L*) + k c_T, with
    delta(B, L*) = sqrt(2 B C L* ln(N e / C)) + C B ln(N e / C)."""
    span = _check_nc(n_files, cache_size)
    if min(order, c_t, l_star_lz) < 0:
        raise DomainError("order, c_t and l_star_lz must be >= 0")
    delta = (math.sqrt(2.0 * c_t * cache_size * l_star_lz * span)
             + cache_size * c_t * span)
    return delta + order * c_t
