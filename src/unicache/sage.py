"""Sampled-Hedge caching over C-subsets of a file library.

Maintaining Hedge over all (N choose C) subset-experts is infeasible
directly, but the hit reward is linear in the cache incidence vector, so
only the per-file marginal inclusion probabilities matter. With per-file
weights w(i) = exp(eta * R(i)), where R(i) counts past requests for file i,
the Hedge marginal of file i is

    p(i) = w(i) * e_{C-1}(w without i) / e_C(w),

with e_k the elementary symmetric polynomial (ESP) of order k: the sum over
all k-subsets of the product of their weights. A set of exactly C files
with those marginals is then drawn by Madow's systematic sampling, which
needs a single uniform draw.

One evaluator computes the marginals, at order m = min(C, N - C):

- complement duality: a C-subset S has mass prod_{i in S} w(i) =
  prod_all w * prod_{j not in S} 1/w(j), so p(i) = 1 - q(i) with q the
  order-(N - C) marginals of the weights 1/w (Chen, Dempster & Liu 1994;
  Tille 2006, ch. 5). Past C = N/2 the evaluator runs this side;
- peel: 1 - p(i) <= (N - m) * w_(m+1) / w(i), w_(m+1) the (m+1)-th
  largest weight, so files where that bound is below e**-42 get p = 1
  and the rest run at a lower order;
- rescale: marginals are homogeneous of degree 0 in w, so the weights are
  built in the log domain around the mean count of the top m weights. The
  largest order-m product is then 1 and 1 <= e_m <= (N choose m), where
  max-normalised weights would underflow;
- prefix/suffix tables: column a of the prefix table is e_a of the first
  j weights, a running sum of w times column a - 1 (the forward DP); the
  suffix table is built the same way from the back. Then
  e_{m-1}(w without i) = sum_a P_{i-1}[a] * S_{i+1}[m-1-a] adds
  nonnegative terms only: exact to rounding in O(N*m). At m = 1 that is
  e_0 = 1 and there are no tables: at the README setting (N=3, C=2),
  p(i) = 1 - v(i) / sum(v) with v = 1/w, which `_hedge_marginals`
  computes directly, with the tables' float operations in their order.

The tables run in plain doubles while every e_a(w), a <= m, stays at most
2**900. A top group spread in two clusters can pass that bound (only at
m >= 55 after the peel); those calls run the same tables in `decimal`,
from the log weights.

The seeds of one per-state policy visit the same states with the same
counts, and a seed's eta is a function of its miss count there. So each
visited state keeps one record, its counts and one miss count per seed.
`lockstep_replay(policy, seeds, trace)` runs the seeds as lanes of one
policy: its machine walks once and its table holds one miss count per
seed. Each round evaluates one marginal vector per distinct eta; each
lane draws one uniform, from the bulk `floats` stream of its seed's
generator, and walks the running sums of that shared vector, built by
`itertools.accumulate` with one check of their total (`_play_round`).
`MachineSagePolicy.step` is the one-lane case, drawing from the policy's
own generator.
Under fixed eta no marginal depends on a draw, so a lockstep run may start
at any round, from the counts and generator states of that round.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import accumulate, islice, repeat
from operator import add, mul

from .core import DomainError, NumericError, RequestTrace, RunRecord, SplitMix64
from .fsm import Window, state_file_counts

# Below this bound on every e_a(w), a <= m, nothing overflows, e_m >= 1, and
# each underflow moves a marginal by at most 2**-1075 * _PLAIN_MAX = 2**-175.
_PLAIN_MAX = 2.0 ** 900

# A file whose marginal is 1 to within e**-42 (~6e-19) is peeled off.
_PEEL_NATS = 42.0

_MARGINAL_SUM_TOL = 1e-9


# ---------------------------------------------------------------------------
# ESP evaluation


def _esp_loo(w: list, order: int, one=1.0, limit=_PLAIN_MAX):
    """e_order(w) and e_{order-1}(w without i) for each i, in the number type
    of `one` (see the module docstring); None once some e_a(w) passes `limit`.
    Column 0 of both tables is all ones, so it takes part in no product:
    `x * 1` is `x` in `float` and `Decimal` alike."""
    zero = one - one
    col = [one] * len(w)
    prefix = [col]
    for a in range(1, order):
        col = list(accumulate(map(mul, w, col) if a > 1 else w, initial=zero))
        if not col.pop() <= limit:  # the running sum ends at e_a(w)
            return None
        prefix.append(col)
    top = reduce(add, map(mul, w, col) if order > 1 else w)  # e_order(w)
    if not top <= limit:
        return None
    loo = col
    for b in range(1, order):
        suffix = list(accumulate(map(mul, reversed(w), suffix) if b > 1 else reversed(w),
                                 initial=zero))
        suffix.pop()
        term = reversed(suffix)
        if b < order - 1:
            term = map(mul, prefix[order - 1 - b], term)
        loo = list(map(add, loo, term))
    return top, loo


# ---------------------------------------------------------------------------
# Marginal inclusion probabilities


def _finish_marginals(p: list[float], cache_size: int) -> list[float]:
    s = math.fsum(p)
    if not abs(s - cache_size) <= _MARGINAL_SUM_TOL:
        raise NumericError("marginals failed to normalize to the cache size")
    if s != cache_size:
        p = list(map((cache_size / s).__mul__, p))
    if min(p) < 0.0 or max(p) > 1.0:
        p = [1.0 if v > 1.0 else (0.0 if v < 0.0 else v) for v in p]
    return p


def _marginals_wide(log_weights: list[float], order: int) -> list[float]:
    """Order-`order` marginals of the weights exp(log_weights), unnormalized:
    the same tables in `decimal`, whose exponent range no e_a(w) can leave."""
    import decimal  # only the fallback pays for the import

    with decimal.localcontext(decimal.Context(Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)):
        w = [decimal.Decimal(x).exp() for x in log_weights]
        e, loo = _esp_loo(w, order, decimal.Decimal(1), decimal.Decimal("Infinity"))
        if not e:
            raise NumericError("all order-C weight products vanished; marginals undefined")
        return [float(wi * f / e) for wi, f in zip(w, loo)]


def _hedge_marginals(counts, eta: float, order: int) -> list[float]:
    """Hedge marginals of the files, unnormalized, from one side at `order`.

    eta > 0 gives the order-`order` marginals q of the weights
    w = exp(eta * count); eta < 0 gives 1 - q for the weights 1/w, the
    complement side. Files past the peel bound get q = 1 and the rest run
    at the lower order; the reduced problem has the same bound, so there is
    one peel at most. No log weight around the mean count of the top
    `order` weights then exceeds the bound, so exp cannot overflow.
    """
    n = len(counts)
    if order == 0:
        return [0.0 if eta > 0 else 1.0] * n
    ranked = sorted(counts, reverse=eta > 0)
    bar = ranked[order]
    cut = math.log(n - order) + _PEEL_NATS
    if eta * (ranked[0] - bar) > cut:
        kept = [i for i, x in enumerate(counts) if eta * (x - bar) <= cut]
        p = [1.0 if eta > 0 else 0.0] * n
        sub = _hedge_marginals([counts[i] for i in kept], eta, order - (n - len(kept)))
        for i, v in zip(kept, sub):
            p[i] = v
        return p
    ref = sum(ranked[:order]) / order
    exp = math.exp
    w = [exp(eta * (x - ref)) for x in counts]
    if order == 1:  # `_esp_loo`'s e_0 = 1 factors are `x * 1.0 == x`
        e = reduce(add, w)
        return [v / e for v in w] if eta > 0 else [1.0 - v / e for v in w]
    esp = _esp_loo(w, order)
    if esp is None:
        q = _marginals_wide([eta * (x - ref) for x in counts], order)
        return q if eta > 0 else [1.0 - v for v in q]
    e, loo = esp
    if eta > 0:
        return [wi * f / e for wi, f in zip(w, loo)]
    return [1.0 - wi * f / e for wi, f in zip(w, loo)]


def _marginals(counts, eta: float, cache_size: int) -> list[float]:
    """Hedge marginals at order min(C, N - C); see the module docstring."""
    n = len(counts)
    if 2 * cache_size > n:  # the complement side, weights 1/w at order N - C
        return _finish_marginals(_hedge_marginals(counts, -eta, n - cache_size), cache_size)
    return _finish_marginals(_hedge_marginals(counts, eta, cache_size), cache_size)


# ---------------------------------------------------------------------------
# Madow's systematic sampling


def _madow_walk(cum: list[float], c: int, u: float, x: int) -> int:
    """Madow's systematic sample of C indices from one uniform u in [0, 1),
    walked over the running sums `cum` of p, total C: index j is in the
    sample iff some offset i in {0..C-1} has cum[j] <= u + i < cum[j + 1].
    Returns 1 if index x is in it, else 0; a lane needs only its request's
    answer."""
    if not 0.0 <= u < 1.0:
        raise DomainError(f"uniform draw {u} outside [0, 1)")
    hit = 0
    j = 0
    last = len(cum) - 2
    for i in range(c):
        if j > last:
            raise NumericError("systematic sampling walked past the last element")
        # cum[j + 1] - i is exact (Sterbenz) where it matters; u + i would round
        while j < last and cum[j + 1] - i <= u:
            j += 1
        if j == x:
            hit = 1
        j += 1  # the next offset always lands strictly past this element
    return hit


# ---------------------------------------------------------------------------
# Policy state


class EtaConfig:
    """Learning-rate schedule for a Hedge/SAGE instance.

    mode "fixed": eta stays at its initial value. If `eta` is not given, the
    initial value is sqrt(2 * ln(N e / C) / max(1, C * horizon)) using the
    horizon hint (default horizon 1, which is also the doubling start).

    mode "doubling": eta starts at the same initial value and shrinks by a
    factor sqrt(2) each time the instance's own cumulative miss count
    reaches a doubling threshold, so eta tracks ~ eta0 / sqrt(m) after m
    misses, the rate a loss-adaptive tuning would follow. The first
    threshold is ceil(C ln(N e / C)): misses below the additive term of the
    loss-dependent regret cap are free, so they should not slow learning.
    Counts are kept across shrinks. Both schedules are pragmatic stand-ins
    for a fully adaptive tuning.
    """

    __slots__ = ("mode", "eta", "horizon")

    def __init__(self, mode: str = "doubling", eta: float | None = None,
                 horizon: int | None = None):
        if mode not in ("fixed", "doubling"):
            raise DomainError(f"eta mode must be 'fixed' or 'doubling', got {mode!r}")
        if eta is not None and not 0 < eta < math.inf:
            raise DomainError(f"eta must be positive and finite, got {eta}")
        if horizon is not None and horizon < 1:
            raise DomainError(f"horizon hint must be >= 1, got {horizon}")
        self.mode, self.eta, self.horizon = mode, eta, horizon

    def initial_eta(self, n_files: int, cache_size: int) -> float:
        if self.eta is not None:
            return self.eta
        rounds = self.horizon if self.horizon is not None else 1
        span = math.log(n_files * math.e / cache_size)
        return math.sqrt(2.0 * span / max(1, cache_size * rounds))


class SageState:
    """One fixed-eta Hedge/SAGE instance: request counts, eta and misses. The
    policies keep per-state records instead (see `MachineSagePolicy`); this
    class is kept because the benchmark's tracer wraps its methods."""

    __slots__ = ("n_files", "cache_size", "counts", "count_max", "eta", "misses")

    def __init__(self, n_files: int, cache_size: int, eta: float):
        if not 1 <= cache_size <= n_files:
            raise DomainError(f"cache size {cache_size} outside [1, {n_files}]")
        if not 0 < eta < math.inf:
            raise DomainError(f"eta must be positive and finite, got {eta}")
        self.n_files = n_files
        self.cache_size = cache_size
        self.counts = [0] * n_files
        self.count_max = 0
        self.eta = eta
        self.misses = 0

    def weights(self) -> list[float]:
        """exp(eta * (R(i) - max R)); the shift keeps every weight in (0, 1]."""
        eta = self.eta
        cmax = self.count_max
        exp = math.exp
        return [exp(eta * (c - cmax)) for c in self.counts]

    def marginals(self) -> list[float]:
        return _marginals(self.counts, self.eta, self.cache_size)

    def update(self, request: int) -> None:
        c = self.counts[request] + 1
        self.counts[request] = c
        if c > self.count_max:
            self.count_max = c

    def note_miss(self) -> None:
        self.misses += 1


class MachineSagePolicy:
    """One SAGE instance per state of a machine (see `fsm`).

    Each round the instance of the machine's current state Madow-samples a
    cache from one uniform draw, scores the request, records it, and the
    machine advances. `step` draws from the policy's single generator;
    `lockstep_replay` plays many seeds on one fresh policy, each lane from a
    generator of its own. `table` maps each visited state to its record,
    made on the first visit with no draw: the state's counts and a list of
    miss counts there, one per lane. `etas[j]` is eta after j threshold
    crossings (see `EtaConfig`): under doubling, the initial eta times
    1/sqrt(2) j times over, rounding each product in turn. `mark0` is the
    first threshold.
    """

    def __init__(self, name: str, machine, n_files: int, cache_size: int,
                 eta_config: EtaConfig | None, seed: int):
        if not 1 <= cache_size <= n_files:
            raise DomainError(f"cache size {cache_size} outside [1, {n_files}]")
        self.name = name
        self.machine = machine
        self.n_files = n_files
        self.cache_size = cache_size
        self.eta_config = eta_config if eta_config is not None else EtaConfig()
        rate = 0.7071067811865476 if self.eta_config.mode == "doubling" else 1.0
        self.etas = list(accumulate(repeat(rate, 64), mul,
                                    initial=self.eta_config.initial_eta(n_files, cache_size)))
        self.mark0 = max(1, math.ceil(cache_size * math.log(n_files * math.e / cache_size)))
        self.rng = SplitMix64(seed)
        self.table: dict = {}

    def step(self, request: int) -> int:
        state = self.machine.current
        record = self.table.get(state)
        if record is None:
            record = self.table[state] = ([0] * self.n_files, [0])
        hits = bytearray()
        _play_round(self, (self.rng.next_float,), record, request, hits, None)
        self.machine.advance(request)
        return hits[0]


def _play_round(policy, draws, record, request: int, hits: bytearray,
                shared: dict | None) -> None:
    """One round of each lane at the state of `record`: Madow-sample from
    one uniform of the lane's draw (a callable), score, count a miss, append
    the hit to `hits`; then count the request. Lane i plays
    `policy.etas[(misses[i] // mark0).bit_length()]`, the table entry after
    its miss count crossed the thresholds mark0, 2 * mark0, .., below 65
    for any count under 2**64 * mark0. Lanes with equal eta share the
    running sums of one marginal vector through `shared`, an empty dict
    each round; a single lane passes None.
    """
    counts, misses = record
    c, mark0, etas = policy.cache_size, policy.mark0, policy.etas
    for i, draw in enumerate(draws):
        eta = etas[(misses[i] // mark0).bit_length()]
        cum = None if shared is None else shared.get(eta)
        if cum is None:
            # `_finish_marginals` leaves every p in [0, 1], so only the
            # running sum's total needs a check
            cum = list(accumulate(_marginals(counts, eta, c), initial=0.0))
            if not abs(cum[-1] - c) <= _MARGINAL_SUM_TOL:
                raise DomainError(f"marginals sum to {cum[-1]}, not the cache size {c}")
            if shared is not None:
                shared[eta] = cum
        hit = _madow_walk(cum, c, draw(), request)
        if not hit:
            misses[i] += 1
        hits.append(hit)
    counts[request] += 1


def lockstep_replay(policy, seeds, trace: RequestTrace, start: int = 0,
                    stop: int | None = None) -> list[RunRecord]:
    """`[replay(p_i, trace) for ..]`, p_i being `policy` built with
    `seeds[i]`, from one walk of the machine; only rounds [start, stop) of
    it are played and recorded.

    `policy` must be fresh (an empty `table`). The seeds' state visits and
    per-state counts depend on the trace alone, so they share its machine
    and its table, which holds one miss count per seed in each record. Each
    round evaluates one marginal vector per distinct eta. Lane i draws one
    uniform per round in the same order as under `replay`, from
    `SplitMix64(seeds[i])`'s `floats(rounds played)`; the policy's own
    generator is not used.

    Under fixed eta round t's marginals depend on the first t requests only,
    so play may start at t > 0: a `state_file_counts` pass over them moves the
    machine and gives each state its counts, and each generator skips t
    draws. Doubling eta with such a start, or a start below 0, is a
    `DomainError`.
    """
    if policy.table:
        raise DomainError("lockstep replay needs a fresh policy, with an empty table")
    if start < 0 or start and policy.eta_config.mode != "fixed":
        raise DomainError(f"a replay from round {start} needs start >= 0 and, above 0, fixed eta")
    machine, table, n, k = policy.machine, policy.table, policy.n_files, len(seeds)
    played = len(range(len(trace))[start:stop])
    draws = []
    for seed in seeds:
        rng = SplitMix64(seed)
        rng.skip(start)
        draws.append(rng.floats(played).__next__)
    before = state_file_counts(machine, trace.requests[:start], n) if start else None
    hits = bytearray()  # round-major: the hits of round t are hits[t*k:(t+1)*k]
    for x in islice(trace.requests, start, stop):
        state = machine.current
        record = table.get(state)
        if record is None:
            counts = [before[state * n + f] for f in range(n)] if start else [0] * n
            record = table[state] = (counts, [0] * k)
        _play_round(policy, draws, record, x, hits, {} if k > 1 else None)
        machine.advance(x)
    return [RunRecord(policy_name=policy.name, hits=bytes(hits[i::k])) for i in range(k)]


class SagePolicy(MachineSagePolicy):
    """Single-instance SAGE: the order-0 window has one state."""

    def __init__(self, n_files: int, cache_size: int,
                 eta_config: EtaConfig | None = None, seed: int = 0):
        super().__init__("sage", Window(0, n_files), n_files, cache_size, eta_config, seed)
