"""Lockstep seeds: every seed of a SAGE-family policy on one machine walk.

`lockstep_replay` must reproduce `replay` hit for hit: the lanes share one
marginal vector per (state, eta) per round, and each lane answers "is the
request in the Madow sample?" by the walk `madow_sample` makes.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unicache import (DomainError, EtaConfig, LzSagePolicy, MarkovSagePolicy, RequestTrace,
                      SagePolicy, generate_trace, lockstep_replay, madow_sample,
                      random_fsm, replay)
from unicache import sage as sage_mod

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
    cum, c = sage_mod._madow_table(p)
    return sage_mod._madow_walk(cum, c, u, x) == 1


def _same_answer(p, u):
    try:
        sample = madow_sample(p, u)
    except (DomainError, sage_mod.NumericError) as exc:
        for x in range(len(p)):
            with pytest.raises(type(exc)):
                _member(p, u, x)
        return
    assert [_member(p, u, x) for x in range(len(p))] == [x in sample for x in range(len(p))]


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
def test_membership_walk_matches_madow_sample(inputs):
    _same_answer(*inputs)


def test_membership_walk_edges():
    # an entry just above 1 is clamped: its cumulative step is exactly 1
    p = [1.0 + 1e-10, 0.5, 0.5]
    assert sage_mod._madow_table(p) == ([0.0, 1.0, 1.5, 2.0], 2)
    for u in (0.0, 0.5, 1.0 - 2.0 ** -53):
        _same_answer(p, u)
        assert _member(p, u, 0)
    # the final sum is off C = 2 by rounding, and a draw this close to 1
    # puts the second offset past it: the walk stops at the last index
    p = [0.6, 0.7, 0.7 - 4e-10]
    cum, c = sage_mod._madow_table(p)
    assert c == 2 and cum[-1] < 2.0
    for u in (1.0 - 1e-10, 1.0 - 2.0 ** -53):
        assert 1.0 + u >= cum[-1]
        assert madow_sample(p, u) == [1, 2]
        _same_answer(p, u)
    # u + 1 would round to 2.0 here; the walk compares cum[j + 1] - 1 < u
    for p in ([1.0, 1.0, 1.0], [1.0, 1.0, 0.0]):
        _same_answer(p, 1.0 - 2.0 ** -53)
        assert _member(p, 1.0 - 2.0 ** -53, 1)
    # out-of-range draws and vectors fail the same way
    _same_answer([0.5, 0.5], 1.0)
    _same_answer([0.5, 0.6], 0.1)


# ---------------------------------------------------------------------------
# lockstep replay against per-seed replay


@pytest.mark.parametrize("mode", ("fixed", "doubling"))
@pytest.mark.parametrize("label", POLICIES)
def test_lockstep_matches_replay(readme_trace, label, mode):
    eta = _eta(mode)
    alone = [_make(label, eta, seed) for seed in range(3)]
    expect = [replay(policy, readme_trace).hits for policy in alone]
    together = [_make(label, eta, seed) for seed in range(3)]
    records = lockstep_replay(together, readme_trace)
    assert [r.hits for r in records] == expect
    assert [r.policy_name for r in records] == [label] * 3
    for i, (a, b) in enumerate(zip(alone, together)):
        assert b.machine is together[0].machine and b.table is together[0].table
        assert b.contexts_visited == a.contexts_visited
        assert b.rng.next_u64() == a.rng.next_u64()  # one draw per round each
        # per state: the shared counts and this seed's miss count
        assert [(counts, misses[i]) for counts, misses in b.table.values()] == \
            [(counts, m) for counts, (m,) in a.table.values()]
    if label == "lz":
        assert together[0].machine.node_count == alone[0].machine.node_count


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
    assert lockstep_replay([SagePolicy(120, 60, eta, seed=0)], trace)[0].hits == expect
    assert len(wide_calls) >= 100


@pytest.mark.parametrize("label", POLICIES)
def test_step_is_the_one_lane_case(readme_trace, label):
    trace = readme_trace.requests[:4_000]
    eta = _eta("doubling")
    stepped = _make(label, eta, 5)
    hits = bytes(stepped.step(x) for x in trace)
    alone = lockstep_replay([_make(label, eta, 5)], RequestTrace(_FILES, trace))
    assert alone[0].hits == hits


def test_lanes_may_differ_in_eta_schedule(readme_trace):
    trace = RequestTrace(_FILES, readme_trace.requests[:4_000])
    etas = (EtaConfig(mode="fixed", eta=0.1), EtaConfig(mode="fixed", eta=0.3), _eta("doubling"))
    expect = [replay(_make("markov:1", eta, seed), trace).hits for seed, eta in enumerate(etas)]
    records = lockstep_replay([_make("markov:1", eta, seed) for seed, eta in enumerate(etas)],
                              trace)
    assert [r.hits for r in records] == expect


def test_lanes_share_one_vector_per_eta(readme_trace, monkeypatch):
    calls = []
    marginals = sage_mod._marginals

    def counting(counts, eta, cache_size):
        calls.append(eta)
        return marginals(counts, eta, cache_size)

    monkeypatch.setattr(sage_mod, "_marginals", counting)
    lockstep_replay([_make("markov:4", _eta("fixed"), s) for s in range(5)], readme_trace)
    assert len(calls) == ROUNDS  # one eta: one vector per round for all five seeds
    calls.clear()
    lockstep_replay([_make("markov:4", _eta("doubling"), s) for s in range(5)], readme_trace)
    assert ROUNDS < len(calls) < 2 * ROUNDS


def test_lanes_hold_one_count_vector_per_state(readme_trace):
    # 20 lz seeds over a prefix: every policy ends on one shared table whose
    # records hold one count list and 20 miss counts. The traced peak is
    # ~0.4 MB; a count vector per seed and state made it ~2.6 MB.
    seeds = 20
    policies = [_make("lz", _eta("doubling"), s) for s in range(seeds)]
    trace = RequestTrace(_FILES, readme_trace.requests[:4_000])
    tracemalloc.start()
    try:
        lockstep_replay(policies, trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    table = policies[0].table
    assert all(p.table is table for p in policies)
    assert len(table) > 300
    assert all(len(counts) == _FILES and len(misses) == seeds
               for counts, misses in table.values())


def test_lockstep_validates():
    eta = _eta("fixed")
    assert lockstep_replay([], None) == []
    used = _make("sage", eta, 1)
    used.step(0)
    fresh = _make("sage", eta, 2)
    for mixed in ([_make("sage", eta, 0), used], [fresh, fresh],
                  [_make("markov:1", eta, 0), _make("markov:4", eta, 1)],
                  [SagePolicy(3, 2, eta, 0), SagePolicy(3, 1, eta, 1)]):
        with pytest.raises(DomainError):
            lockstep_replay(mixed, None)


@pytest.mark.parametrize("label", POLICIES)
def test_fixed_eta_rounds_replay_in_ranges(readme_trace, label):
    # Each range starts from the counts, machine and generator states of its
    # first round, so the ranges' records join into the whole run's.
    eta = _eta("fixed")
    whole = lockstep_replay([_make(label, eta, s) for s in range(3)], readme_trace)
    cuts = (0, 1, 7_000, 7_001, ROUNDS - 1, ROUNDS)
    parts = [lockstep_replay([_make(label, eta, s) for s in range(3)], readme_trace, lo, hi)
             for lo, hi in zip(cuts, cuts[1:])]
    assert [b"".join(part[i].hits for part in parts) for i in range(3)] == \
        [r.hits for r in whole]
    assert lockstep_replay([_make(label, eta, 0)], readme_trace, ROUNDS, None)[0].hits == b""


def test_a_range_past_round_0_needs_fixed_eta(readme_trace):
    # Doubling eta shrinks on a lane's own misses, which a range cannot know.
    trace = RequestTrace(_FILES, readme_trace.requests[:200])
    policies = [_make("markov:1", eta, seed) for seed, eta in
                enumerate((_eta("fixed"), _eta("doubling")))]
    for start in (1, -1):  # nor can a range start before round 0
        with pytest.raises(DomainError, match=f"from round {start} needs"):
            lockstep_replay(policies, trace, start, 200)
    # The policies are untouched: from round 0 they replay as usual.
    assert [r.hits for r in lockstep_replay(policies, trace, 0, 200)] == \
        [replay(_make("markov:1", p.eta_config, seed), trace).hits
         for seed, p in enumerate(policies)]
