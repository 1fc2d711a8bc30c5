"""Order-k context prefetchers: an offline per-context oracle and an online
policy running one SAGE instance per context.

The context at round t is the window of up to k most recent requests
(`fsm.Window`), held as one int: in base n_files + 1, request x is the
digit x + 1, the most recent in the lowest digit. During the first k rounds
the history is shorter than k, and the partial window itself, whose unfilled
digits are 0, serves as the context; each partial length occurs in exactly
one round, so this adds at most k extra contexts. Keeping the partial
windows distinct (rather than pooling all warm-up rounds into a single
context) makes order-(k+1) contexts an exact refinement of order-k contexts
(the order-k code is the order-(k+1) code mod (n_files + 1)**k), so the
offline oracle's hit count is nondecreasing in k on every trace.
"""

from __future__ import annotations

from .core import DomainError, RequestTrace
from .fsm import Window, state_file_counts, top_c_hits
from .sage import EtaConfig, MachineSagePolicy


def offline_markov_hit_rate(trace: RequestTrace, k: int, cache_size: int) -> tuple[float, int]:
    """Best-in-hindsight order-k context prefetcher: per context, cache the C
    most-requested successors. Returns (hit fraction, hit count)."""
    if not 1 <= cache_size <= trace.n_files:
        raise DomainError(f"cache size {cache_size} outside [1, {trace.n_files}]")
    if len(trace) == 0:
        raise DomainError("the offline oracle needs a nonempty trace")
    n = trace.n_files
    hits = top_c_hits(state_file_counts(Window(k, n), trace.requests, n), cache_size, n)
    return hits / len(trace), hits


class MarkovSagePolicy(MachineSagePolicy):
    """One SAGE instance per visited order-k context."""

    def __init__(self, n_files: int, cache_size: int, k: int,
                 eta_config: EtaConfig | None = None, seed: int = 0, name: str | None = None):
        super().__init__(name if name is not None else f"markov:{k}", Window(k, n_files),
                         n_files, cache_size, eta_config, seed)

