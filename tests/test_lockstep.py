"""Lockstep seeds: every seed of a SAGE-family policy on one machine walk.

`lockstep_replay(policy, seeds, trace)` must reproduce `replay` of the
policy built with each seed, hit for hit: the lanes share one marginal
vector per (state, eta) per round, and each lane answers "is the request
in the Madow sample?" by one walk over the running sums.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unicache import (DomainError, EtaConfig, LzSagePolicy, MarkovSagePolicy, RequestTrace,
                      SagePolicy, SplitMix64, generate_trace, lockstep_replay, random_fsm,
                      replay)
from unicache import sage as sage_mod
from util import madow_members, madow_table

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
    marginals = sage_mod._marginals

    def counting(counts, eta, cache_size):
        calls.append(eta)
        return marginals(counts, eta, cache_size)

    monkeypatch.setattr(sage_mod, "_marginals", counting)
    lockstep_replay(_make("markov:4", _eta("fixed"), 0), range(5), readme_trace)
    assert len(calls) == ROUNDS  # one eta: one vector per round for all five seeds
    calls.clear()
    lockstep_replay(_make("markov:4", _eta("doubling"), 0), range(5), readme_trace)
    assert ROUNDS < len(calls) < 2 * ROUNDS


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
