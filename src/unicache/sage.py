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
  and weight 0 where they stand, and the tables run at a lower order;
- rescale: marginals are homogeneous of degree 0 in w, so the weights are
  built in the log domain around the mean count of the top m weights. The
  largest order-m product is then 1 and 1 <= e_m <= (N choose m), where
  max-normalised weights would underflow;
- prefix/suffix tables: column a of the prefix table is e_a of the first
  j weights, a running sum of w times column a - 1 (the forward DP); the
  suffix table is built the same way from the back. Then
  e_{m-1}(w without i) = sum_a P_{i-1}[a] * S_{i+1}[m-1-a] adds
  nonnegative terms only: exact to rounding in O(N*m). At m = 1 that is
  e_0 = 1 and the tables are one sum: at the README setting (N=3, C=2),
  p(i) = 1 - v(i) / sum(v) with v = 1/w, which a round's table
  (`_running_sums`) computes on three scalars, with the tables' float
  operations in their order.

The tables run in plain doubles while every e_a(w), a <= m, stays at most
2**900. A top group spread in two clusters can pass that bound (only at
m >= 55 after the peel); those calls run the same tables in `decimal`,
from the log weights.

The seeds of one per-state policy visit the same states with the same
counts, and a seed's eta is a function of its miss count there. So each
visited state keeps one record, its counts and one miss count per seed.
`lockstep_replay(policy, seeds, trace)` runs the seeds as lanes of one
policy: its machine walks once and its table holds one miss count per
seed. Each round builds one table per distinct eta in one call, the
running sums of the marginals and the largest marginal
(`_running_sums`), and each lane draws one uniform, from the bulk
`floats` stream of its seed's generator. The lanes all ask whether the
round's request x is in their sample, so the table's entry is the two
ranges of u that select x (`_lookup`): at most three comparisons a lane.
A check per table proves those ranges equal to Madow's walk for every u;
the few tables it cannot vouch for are walked, lane by lane
(`_madow_walk`). `MachineSagePolicy.step` is the one-lane case, drawing
from the policy's own generator, and walks: for one lane the check costs
more than the walk it saves (see `_play_round`).
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

# `_hedge_marginals`'s peel bound, ln(N - m) + 42 nats, at N = 3, m = 1.
_PEEL_CUT_3 = math.log(2) + _PEEL_NATS

# No marginal, and no step of its running sums, below this can force the
# walk's `j += 1`, while ulp(C) << 2**-30 (see `_lookup`).
_NEAR_ONE = 1.0 - 2.0 ** -30


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
    complement side. Files past the peel bound get q = 1 and weight 0
    where they stand, and the tables run once at the order left: a weight
    0 adds `x + 0.0 == x` and multiplies to `0.0 * y == 0.0` in every
    table entry (all are >= 0), and exp(-inf) is 0 in `decimal` too, so
    the kept files' q are those of the reduced problem to the bit. That
    problem has the same peel bound, so there is one peel at most. No log
    weight around the mean count of the top `order` kept weights then
    exceeds the bound, so exp cannot overflow.
    """
    n = len(counts)
    ranked = sorted(counts, reverse=eta > 0)
    bar = ranked[order]
    cut = math.log(n - order) + _PEEL_NATS
    top = ranked[:order]
    peel = None
    if eta * (ranked[0] - bar) > cut:
        peel = [eta * (x - bar) > cut for x in counts]
        gone = -math.inf if eta > 0 else math.inf  # eta * (gone - ref) is -inf
        counts = [gone if k else x for k, x in zip(peel, counts)]
        top = top[sum(peel):]
    order = len(top)
    if not order:
        q = [0.0] * n
    else:
        ref = sum(top) / order
        exp = math.exp
        w = [exp(eta * (x - ref)) for x in counts]
        esp = _esp_loo(w, order)
        if esp is None:
            q = _marginals_wide([eta * (x - ref) for x in counts], order)
        else:
            e, loo = esp
            q = [wi * f / e for wi, f in zip(w, loo)]
    p = q if eta > 0 else [1.0 - v for v in q]
    if peel:
        mark = 1.0 if eta > 0 else 0.0
        p = [mark if k else v for k, v in zip(peel, p)]
    return p


def _marginals(counts, eta: float, cache_size: int) -> list[float]:
    """Hedge marginals at order min(C, N - C); see the module docstring."""
    return _running_sums(counts, eta, cache_size)[2]


def _running_sums(counts, eta: float, cache_size: int):
    """(cum, max(p), p): the running sums 0, p[0], p[0] + p[1], .. of the
    Hedge marginals p at order min(C, N - C) in one call, the table a
    round's lanes read. p is scaled to sum to C and clamped to [0, 1].

    Three files at order 1 (C = 1 or 2, the README setting) take scalar
    arithmetic, unless the peel fires: p is w / e, or 1 - w / e on the
    complement side, with e = (w[0] + w[1]) + w[2]. These are
    `_hedge_marginals`'s float operations in their order (the tables'
    e_0 = 1 factors are `x * 1.0 == x`), so p is the same to the bit; only
    a p above 1 after the scale (it is never below 0 at order 1, as each
    w <= e) falls through to the clamp below, unscaled."""
    n = len(counts)
    if 2 * cache_size > n:  # the complement side, weights 1/w at order N - C
        eta, order = -eta, n - cache_size
    else:
        order = cache_size
    p = None
    if order == 1 and n == 3:
        a, b, d = counts
        hi, lo = (a, b) if a >= b else (b, a)  # ref and second, as sorted() ranks them
        if d > hi:
            hi, mid = d, hi
        else:
            mid = d if d > lo else lo
        ref = hi if eta > 0 else (d if d < lo else lo)
        if eta * (ref - mid) <= _PEEL_CUT_3:
            exp = math.exp
            wa, wb, wd = exp(eta * (a - ref)), exp(eta * (b - ref)), exp(eta * (d - ref))
            e = wa + wb + wd  # not sum(): it compensates since Python 3.12
            if eta > 0:
                pa, pb, pd = wa / e, wb / e, wd / e
            else:
                pa, pb, pd = 1.0 - wa / e, 1.0 - wb / e, 1.0 - wd / e
            s = math.fsum((pa, pb, pd))
            if s == cache_size:
                qa, qb, qd = pa, pb, pd
            else:
                k = cache_size / s
                qa, qb, qd = k * pa, k * pb, k * pd
            top = qb if qb > qa else qa
            if qd > top:
                top = qd
            if top <= 1.0 and abs(s - cache_size) <= _MARGINAL_SUM_TOL:
                return [0.0, qa, qa + qb, qa + qb + qd], top, [qa, qb, qd]
            p = [pa, pb, pd]
    if p is None:
        p = _hedge_marginals(counts, eta, order)
    s = math.fsum(p)
    if not abs(s - cache_size) <= _MARGINAL_SUM_TOL:
        raise NumericError("marginals failed to normalize to the cache size")
    if s != cache_size:
        k = cache_size / s
        p = [k * v for v in p]
    top = max(p)
    if top > 1.0 or min(p) < 0.0:
        p = [1.0 if v > 1.0 else (0.0 if v < 0.0 else v) for v in p]
        top = max(p)
    return [0.0, *accumulate(p)], top, p


# ---------------------------------------------------------------------------
# Madow's systematic sampling


def _madow_walk(cum: list[float], c: int, u: float, x: int) -> int:
    """Madow's systematic sample of C indices from one uniform u in [0, 1),
    walked over the running sums `cum` of p, total C: index j is in the
    sample iff some offset i in {0..C-1} has cum[j] <= u + i < cum[j + 1].
    Returns 1 if index x is in it, else 0. One-lane rounds, and the tables
    `_lookup` cannot vouch for, walk."""
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


def _lookup(cum: list[float], top: float, c: int, x: int):
    """(b, a, h) such that `_madow_walk(cum, c, u, x)` is 1 iff u < b or
    a <= u < h, for every u in [0, 1); None where the table fails the check.

    Every comparison the walk makes is `cum[j + 1] - i <= u`, monotone in
    j, so offset i stops on the first j with cum[j + 1] - i > u (the last
    index if none: the `j < last` clamp). Where that first index grows with
    i, x is selected iff some offset i has cum[x] - i <= u < cum[x + 1] - i,
    upper bound open for the last index; i = int(cum[x]) and i + 1 are the
    only candidates, as steps are at most 1, and below C. The lower bound
    of i + 1 is negative. The check rules out the walk's two departures:
    - a forced `j += 1`: offset i stops where offset i - 1 did, k < last,
      so cum[k] - (i - 1) <= u < cum[k + 1] - i, which needs a rounded step
      within a few ulp(C) of 1. Steps are within 2 ulp(C) of their p, so
      with ulp(C) << 2**-30 (C << 2**22) a table whose largest p is below
      1 - 2**-30 has none. For u in [0, 1) the offset is in
      (cum[k], cum[k + 1]), so with steps at most 1 it is int(cum[k]) + 1;
    - a walk past the last index: offset C - 2 reaches it, so
      cum[last] - (C - 2) <= u.
    """
    last = len(cum) - 2
    if c > 1 and cum[last] - (c - 2) < 1.0:
        return None
    if top >= _NEAR_ONE:
        for k in range(1, last):
            below, above = cum[k], cum[k + 1]
            if above - below >= _NEAR_ONE:
                i = int(below) + 1
                if i < c and above - i > below - (i - 1):
                    return None
    lo = cum[x]
    i = int(lo)
    hi = cum[x + 1] if x < last else math.inf
    return (hi - (i + 1) if i + 1 < c else 0.0,
            lo - i if i < c else math.inf, hi - i)


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
        _play_round(self, (self.rng.next_float,), record, request, hits)
        self.machine.advance(request)
        return hits[0]


def _play_round(policy, draws, record, request: int, hits: bytearray) -> None:
    """One round of each lane at the state of `record`: Madow-sample from
    one uniform of the lane's draw (a callable), score, count a miss, append
    the hit to `hits`; then count the request. Lane i plays
    `policy.etas[(misses[i] // mark0).bit_length()]`, the table entry after
    its miss count crossed the thresholds mark0, 2 * mark0, .., below 65
    for any count under 2**64 * mark0. Lanes with equal eta share one table
    of running sums; with more than one lane, its entry is the `_lookup` of
    the request, or the sums where the lookup's check fails, and a single
    lane walks the sums: on one CPU of a 2-vCPU Xeon host, over 8
    alternations in one process, a one-lane step with the lookup took 1.005x
    the walk's median time on the readme-sweep inputs (N=3, C=2) and 1.023x
    on zipf-skew's (N=64, C=6). A lane whose eta object is the previous
    lane's reuses its entry without the dict, which saves 4% of the CPU of
    readme-sweep's 3-seed learning jobs (12 alternations, 12 of 12).
    """
    counts, misses = record
    c, mark0, etas = policy.cache_size, policy.mark0, policy.etas
    lanes = len(draws) > 1
    shared = {}
    prev = None
    for i, draw in enumerate(draws):
        eta = etas[(misses[i] // mark0).bit_length()]
        if eta is not prev:  # lanes of one eta mostly come in a row
            prev = eta
            entry = shared.get(eta)
            if entry is None:
                cum, top, _ = _running_sums(counts, eta, c)
                # each p is in [0, 1] already, and sums to C by `fsum`; the
                # running sum may round off C by up to N * ulp(C) / 2
                drift = abs(cum[-1] - c)
                if not (drift <= _MARGINAL_SUM_TOL or drift <= len(counts) * math.ulp(c) / 2):
                    raise DomainError(f"marginals sum to {cum[-1]}, not the cache size {c}")
                entry = shared[eta] = lanes and _lookup(cum, top, c, request) or cum
            if entry.__class__ is tuple:
                b, a, h = entry
                cum = None
            else:
                cum = entry
        u = draw()
        if not 0.0 <= u < 1.0:
            raise DomainError(f"uniform draw {u} outside [0, 1)")
        if (u < b or a <= u < h) if cum is None else _madow_walk(cum, c, u, request):
            hits.append(1)
        else:
            misses[i] += 1
            hits.append(0)
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
        _play_round(policy, draws, record, x, hits)
        machine.advance(x)
    return [RunRecord(policy_name=policy.name, hits=bytes(hits[i::k])) for i in range(k)]


class SagePolicy(MachineSagePolicy):
    """Single-instance SAGE: the order-0 window has one state."""

    def __init__(self, n_files: int, cache_size: int,
                 eta_config: EtaConfig | None = None, seed: int = 0):
        super().__init__("sage", Window(0, n_files), n_files, cache_size, eta_config, seed)
