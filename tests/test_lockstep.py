"""Lockstep seeds: every seed of a SAGE-family policy on one machine walk.

`lockstep_replay(policy, seeds, trace)` must reproduce `replay` of the
policy built with each seed, hit for hit: the lanes share one marginal
vector per (state, eta) per round, and each lane answers "is the request
in the Madow sample?" from two intervals of u that the table gives, or
by one walk over its running sums where a check cannot show those
intervals equal to the walk.
"""

import math
import tracemalloc
from itertools import accumulate
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unicache import (DomainError, EtaConfig, LzSagePolicy, MarkovSagePolicy, RequestTrace,
                      SagePolicy, SplitMix64, generate_trace, lockstep_replay, random_fsm,
                      replay)
from unicache import sage as sage_mod
from util import madow_members, madow_step_answer, madow_step_reference, madow_table

# The golden README trace: Q=50 states, N=3 files, C=2, T=2e4.
ROUNDS = 20_000
_FILES, _CACHE = 3, 2
POLICIES = ("sage", "markov:1", "markov:4", "lz")


@pytest.fixture(scope="module")
def readme_trace():
    spec, arrays = random_fsm(50, _FILES, _CACHE, 7)
    return generate_trace(spec, arrays, spec.initial_state, ROUNDS, 8)


def _make(label: str, eta: EtaConfig, seed: int):
    if label == "sage":
        return SagePolicy(_FILES, _CACHE, eta, seed)
    if label == "lz":
        return LzSagePolicy(_FILES, _CACHE, eta, seed)
    return MarkovSagePolicy(_FILES, _CACHE, int(label.partition(":")[2]), eta, seed)


def _eta(mode: str) -> EtaConfig:
    return EtaConfig(mode=mode, horizon=ROUNDS if mode == "fixed" else None)


# ---------------------------------------------------------------------------
# the membership walk


def _member(p, u, x):
    """What a lane decides: whether the walk over p's Madow table selects x."""
    cum, c = madow_table(p)
    return sage_mod._madow_walk(cum, c, u, x) == 1


def _c_members_or_one_error(p, u):
    """Over every x, the walk selects exactly C indices, or raises the same
    error for each; a table the checks reject is not walked."""
    try:
        cum, c = madow_table(p)
    except DomainError:
        return
    outcomes = []
    for x in range(len(p)):
        try:
            outcomes.append(sage_mod._madow_walk(cum, c, u, x))
        except (DomainError, sage_mod.NumericError) as exc:
            outcomes.append(type(exc))
    if set(outcomes) <= {0, 1}:
        assert sum(outcomes) == c
    else:
        assert len(set(outcomes)) == 1, outcomes


@st.composite
def _madow_inputs(draw):
    """Vectors summing to an integer C, with entries at or just above 1
    (clamped to 1 in the table), a sum off C by rounding-sized drift, and
    draws up to the largest double below 1 (the walk's last-index clamp)."""
    n = draw(st.integers(min_value=1, max_value=10))
    c = draw(st.integers(min_value=1, max_value=n))
    ones = draw(st.integers(min_value=0, max_value=c))
    over = draw(st.floats(min_value=0.0, max_value=1e-9))
    raw = draw(st.lists(st.floats(min_value=1e-3, max_value=1.0),
                        min_size=n - ones, max_size=n - ones))
    p = [1.0 + over] * ones
    if raw:
        rest = c - ones
        free = [rest * v / sum(raw) for v in raw]
        for _ in range(n):  # water-fill: cap at 1, spread the excess over the rest
            excess = sum(max(v - 1.0, 0.0) for v in free)
            free = [min(v, 1.0) for v in free]
            room = [i for i, v in enumerate(free) if v < 1.0]
            if excess <= 0.0 or not room:
                break
            for i in room:
                free[i] += excess / len(room)
        p += free
    drift = draw(st.floats(min_value=-1e-9, max_value=1e-9))
    p[-1] = min(max(p[-1] + drift, 0.0), 1.0 + 1e-9)
    order = draw(st.permutations(range(n)))
    u = draw(st.one_of(st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
                       st.just(1.0 - 2.0 ** -53),
                       st.floats(min_value=1.0 - 1e-9, max_value=1.0, exclude_max=True)))
    return [p[i] for i in order], u


@given(_madow_inputs())
@settings(max_examples=400, deadline=None)
def test_membership_walk_selects_c_members(inputs):
    _c_members_or_one_error(*inputs)


def test_membership_walk_edges():
    # an entry just above 1 is clamped: its cumulative step is exactly 1
    p = [1.0 + 1e-10, 0.5, 0.5]
    assert madow_table(p) == ([0.0, 1.0, 1.5, 2.0], 2)
    for u in (0.0, 0.5, 1.0 - 2.0 ** -53):
        _c_members_or_one_error(p, u)
        assert _member(p, u, 0)
    # the final sum is off C = 2 by rounding, and a draw this close to 1
    # puts the second offset past it: the walk stops at the last index
    p = [0.6, 0.7, 0.7 - 4e-10]
    cum, c = madow_table(p)
    assert c == 2 and cum[-1] < 2.0
    for u in (1.0 - 1e-10, 1.0 - 2.0 ** -53):
        assert 1.0 + u >= cum[-1]
        assert madow_members(p, u) == [1, 2]
    # u + 1 would round to 2.0 here; the walk compares cum[j + 1] - 1 < u
    for p in ([1.0, 1.0, 1.0], [1.0, 1.0, 0.0]):
        _c_members_or_one_error(p, 1.0 - 2.0 ** -53)
        assert _member(p, 1.0 - 2.0 ** -53, 1)
    # an out-of-range draw fails the same way for every x
    for x in range(2):
        with pytest.raises(DomainError, match=r"uniform draw 1.0 outside \[0, 1\)"):
            _member([0.5, 0.5], 1.0, x)


# ---------------------------------------------------------------------------
# the lanes' lookup


def _outcome(f, *args):
    try:
        return int(f(*args))
    except (DomainError, sage_mod.NumericError) as exc:
        return type(exc)


_EDGES = (0.0, 2.0 ** -52, 1.0 - 2.0 ** -52, 1.0)


@st.composite
def _lane_tables(draw):
    """(cum, top, c): running sums of p in [0, 1], total C within 1e-9, and
    max(p), as `_running_sums` hands them to a round's lanes. Either p is
    pairs (v, 1 - v), v often an edge value, in any order and with one
    entry moved a few ulps, so the total is a few ulps off C; or p comes
    from counts, with the peel firing and on both sides."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=2, max_value=8))
        c = draw(st.integers(min_value=1, max_value=n))
        counts = draw(st.lists(st.integers(min_value=0, max_value=40), min_size=n, max_size=n))
        for k in draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=n)):
            counts[k] += draw(st.integers(min_value=0, max_value=3_000))  # a lead to peel
        eta = draw(st.floats(min_value=1e-3, max_value=5.0))
        try:
            cum, top, _ = sage_mod._running_sums(counts, eta, c)
        except sage_mod.NumericError:
            assume(False)
        assume(abs(cum[-1] - c) <= 1e-9)  # else the round raises before any lane draws
        return cum, top, c
    unit = st.one_of(st.sampled_from(_EDGES), st.floats(min_value=0.0, max_value=1.0))
    pairs = draw(st.lists(unit, min_size=1, max_size=4))
    p = [v for pair in pairs for v in (pair, 1.0 - pair)]
    c = len(pairs)
    p = [p[i] for i in draw(st.permutations(range(len(p))))]
    k = draw(st.integers(min_value=0, max_value=len(p) - 1))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        p[k] = math.nextafter(p[k], draw(st.sampled_from((0.0, 1.0))))
    return list(accumulate(p, initial=0.0)), max(p), c


def _draws_to_check(entry, step):
    """0, the largest double below 1, and every threshold of the walk and of
    the lookup in [0, 1) with the doubles either side of it."""
    us = {0.0, 1.0 - 2.0 ** -53}
    for t in step[0] + list(entry or ()):
        us.update((math.nextafter(t, -1.0), t, math.nextafter(t, 2.0)))
    return [u for u in us if 0.0 <= u < 1.0]


def _lanes_answer(cum, c, u, x):
    """What the two lanes of a round answer for request x, both drawing u,
    when the round's table is `cum`: 1 or 0, or the type of what it raised."""
    policy = SimpleNamespace(cache_size=c, mark0=1, etas=[1.0])
    hits = bytearray()
    try:
        sage_mod._play_round(policy, (lambda: u, lambda: u), ([0] * (len(cum) - 1), [0, 0]),
                             x, hits)
    except (DomainError, sage_mod.NumericError) as exc:
        return type(exc)
    assert hits[0] == hits[1]
    return hits[0]


@given(_lane_tables())
@settings(max_examples=300, deadline=None)
def test_lookup_equals_the_walk_for_every_draw(table):
    # The lanes' answer, the lookup or, where its check fails, the walk, is
    # the walk's and the step-function reference's at every draw where any
    # of them can change, errors included.
    cum, top, c = table
    with mock.patch.object(sage_mod, "_running_sums", lambda counts, eta, size: (cum, top, None)):
        for x in range(len(cum) - 1):
            step = madow_step_reference(cum, c, x)
            for u in _draws_to_check(sage_mod._lookup(cum, top, c, x), step):
                walk = _outcome(sage_mod._madow_walk, cum, c, u, x)
                assert madow_step_answer(step, u) == walk, (cum, c, x, u)
                assert _lanes_answer(cum, c, u, x) == walk, (cum, c, x, u)


def test_lookup_edges():
    u = 1.0 - 2.0 ** -53
    # the last index: open above (the walk's `j < last` clamp)
    cum = list(accumulate([0.5, 0.5, 1.0 - 2.0 ** -52], initial=0.0))
    assert cum[-1] < 2.0 and sage_mod._lookup(cum, 1.0, 2, 2)[2] == math.inf
    assert sage_mod._madow_walk(cum, 2, u, 2) == 1
    # a forced advance: cum[2] - 1 rounds above cum[1]; the walk selects [1, 2] at 0.1
    cum = list(accumulate([0.1, 1.0, 0.9], initial=0.0))
    assert cum[2] - 1 > cum[1] and sage_mod._lookup(cum, 1.0, 2, 1) is None
    # a total just below C: offset 0 can reach the last index, offset 1 walks past it
    cum = [0.0, 0.047425873177566635, 1.0 - 2.0 ** -53, 2.0]
    assert sage_mod._lookup(cum, 1.0, 2, 0) is None
    with pytest.raises(sage_mod.NumericError, match="walked past"):
        sage_mod._madow_walk(cum, 2, u, 0)
    # each bound, drawn exactly: (b, a, h) of x = 2 is (0.3 + ulp, 0.7, 1.3)
    cum = list(accumulate([0.3, 0.4, 0.6, 0.7], initial=0.0))
    b, a, h = sage_mod._lookup(cum, 0.7, 2, 2)
    assert 0.0 < b < a < 1.0 < h
    with mock.patch.object(sage_mod, "_running_sums", lambda counts, eta, size: (cum, 0.7, None)):
        for x, u, hit in ((2, b, 0), (2, a, 1), (1, a, 0), (3, b, 1)):
            assert _lanes_answer(cum, 2, u, x) == sage_mod._madow_walk(cum, 2, u, x) == hit
        # a draw outside [0, 1) fails on the lookup path as it does in the walk
        for u in (1.0, -(2.0 ** -1074), math.nan):
            assert _lanes_answer(cum, 2, u, 2) is DomainError
            assert _outcome(sage_mod._madow_walk, cum, 2, u, 2) is DomainError


# ---------------------------------------------------------------------------
# lockstep replay against per-seed replay


@pytest.mark.parametrize("mode", ("fixed", "doubling"))
@pytest.mark.parametrize("label", POLICIES)
def test_lockstep_matches_replay(readme_trace, label, mode):
    eta = _eta(mode)
    for seeds in ((0, 1, 2), (4, 4)):
        alone = [_make(label, eta, seed) for seed in seeds]
        expect = [replay(policy, readme_trace).hits for policy in alone]
        policy = _make(label, eta, 99)
        records = lockstep_replay(policy, seeds, readme_trace)
        assert [r.hits for r in records] == expect
        assert [r.policy_name for r in records] == [label] * len(seeds)
        assert policy.rng.next_u64() == SplitMix64(99).next_u64()  # the lanes draw their own
        for i, a in enumerate(alone):
            # per state: the shared counts and this seed's miss count
            assert [(counts, misses[i]) for counts, misses in policy.table.values()] == \
                [(counts, m) for counts, (m,) in a.table.values()]
        if label == "lz":
            assert policy.machine.node_count == alone[0].machine.node_count


def test_lockstep_on_the_scaled_path(monkeypatch):
    # The split top group of `test_golden.py`: the decimal tables decide ~10%
    # of the rounds.
    wide_calls = []
    wide = sage_mod._marginals_wide

    def counting(log_weights, order):
        wide_calls.append(1)
        return wide(log_weights, order)

    trace = RequestTrace(120, [i % 30 for i in range(1_400)])
    eta = EtaConfig(mode="fixed", eta=1.0)
    expect = replay(SagePolicy(120, 60, eta, seed=0), trace).hits
    monkeypatch.setattr(sage_mod, "_marginals_wide", counting)
    assert lockstep_replay(SagePolicy(120, 60, eta), [0], trace)[0].hits == expect
    assert len(wide_calls) >= 100


@pytest.mark.parametrize("label", POLICIES)
def test_step_is_the_one_lane_case(readme_trace, label):
    trace = readme_trace.requests[:4_000]
    eta = _eta("doubling")
    stepped = _make(label, eta, 5)
    hits = bytes(stepped.step(x) for x in trace)
    alone = lockstep_replay(_make(label, eta, 0), [5], RequestTrace(_FILES, trace))
    assert alone[0].hits == hits


def test_lanes_share_one_vector_per_eta(readme_trace, monkeypatch):
    calls = []
    running_sums = sage_mod._running_sums

    def counting(counts, eta, cache_size):
        calls.append(eta)
        return running_sums(counts, eta, cache_size)

    monkeypatch.setattr(sage_mod, "_running_sums", counting)
    lockstep_replay(_make("markov:4", _eta("fixed"), 0), range(5), readme_trace)
    assert len(calls) == ROUNDS  # one eta: one vector per round for all five seeds
    calls.clear()
    lockstep_replay(_make("markov:4", _eta("doubling"), 0), range(5), readme_trace)
    assert ROUNDS < len(calls) < 2 * ROUNDS


def _counting_walks(monkeypatch):
    walks = []
    walk = sage_mod._madow_walk

    def counting(cum, c, u, x):
        walks.append(1)
        return walk(cum, c, u, x)

    monkeypatch.setattr(sage_mod, "_madow_walk", counting)
    return walks


def test_lanes_walk_few_tables(readme_trace, monkeypatch):
    # Exact either way, so only a count shows a lookup that stopped being
    # used: 3 seeds of each policy walk 294 of 240,000 lane-rounds (all
    # markov:4, from 112 tables), and the bound is 1% of them, 8x that
    # count; walking every table would make it 100%.
    walks = _counting_walks(monkeypatch)
    for label in POLICIES:
        lockstep_replay(_make(label, _eta("doubling"), 0), range(3), readme_trace)
    assert 0 < len(walks) <= len(POLICIES) * 3 * ROUNDS // 100


def test_a_table_that_fails_the_check_is_walked(monkeypatch):
    # At counts (0, 3, 38) and eta 1 file 2 has p = 1 and cum[2] rounds to
    # 1 - 2**-53, so offset 0 can reach the last index: the lanes walk.
    trace = RequestTrace(_FILES, [2] * 38 + [1] * 3 + [0, 2, 1] * 20)
    eta = EtaConfig(mode="fixed", eta=1.0)
    expect = [replay(SagePolicy(_FILES, _CACHE, eta, seed), trace).hits for seed in range(4)]
    walks = _counting_walks(monkeypatch)
    assert [r.hits for r in lockstep_replay(SagePolicy(_FILES, _CACHE, eta), range(4), trace)] \
        == expect
    assert walks


def test_lanes_hold_one_count_vector_per_state(readme_trace):
    # 20 lz seeds over a prefix: the policy's table records hold one count
    # list and 20 miss counts. The traced peak is ~0.4 MB; a count vector
    # per seed and state made it ~2.6 MB.
    seeds = 20
    policy = _make("lz", _eta("doubling"), 0)
    trace = RequestTrace(_FILES, readme_trace.requests[:4_000])
    tracemalloc.start()
    try:
        lockstep_replay(policy, range(seeds), trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert len(policy.table) > 300
    assert all(len(counts) == _FILES and len(misses) == seeds
               for counts, misses in policy.table.values())


def test_lockstep_validates():
    used = _make("sage", _eta("fixed"), 1)
    used.step(0)
    with pytest.raises(DomainError, match="needs a fresh policy"):
        lockstep_replay(used, [0], RequestTrace(_FILES, [0]))


@pytest.mark.parametrize("label", POLICIES)
def test_fixed_eta_rounds_replay_in_ranges(readme_trace, label):
    # Each range starts from the counts, machine and generator states of its
    # first round, so the ranges' records join into the whole run's.
    eta = _eta("fixed")
    whole = lockstep_replay(_make(label, eta, 0), range(3), readme_trace)
    cuts = (0, 1, 7_000, 7_001, ROUNDS - 1, ROUNDS)
    parts = [lockstep_replay(_make(label, eta, 0), range(3), readme_trace, lo, hi)
             for lo, hi in zip(cuts, cuts[1:])]
    assert [b"".join(part[i].hits for part in parts) for i in range(3)] == \
        [r.hits for r in whole]
    assert lockstep_replay(_make(label, eta, 0), [0], readme_trace, ROUNDS, None)[0].hits == b""


def test_a_range_past_round_0_needs_fixed_eta(readme_trace):
    # Doubling eta shrinks on a lane's own misses, which a range cannot know.
    trace = RequestTrace(_FILES, readme_trace.requests[:200])
    for mode, start in (("doubling", 1), ("fixed", -1)):  # nor can a range start before 0
        policy = _make("markov:1", _eta(mode), 0)
        with pytest.raises(DomainError, match=f"from round {start} needs"):
            lockstep_replay(policy, range(2), trace, start, 200)
        # The policy is untouched: from round 0 it replays as usual.
        assert [r.hits for r in lockstep_replay(policy, range(2), trace, 0, 200)] == \
            [replay(_make("markov:1", _eta(mode), seed), trace).hits for seed in range(2)]
