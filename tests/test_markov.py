import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unicache import (DomainError, EtaConfig, MarkovSagePolicy, RequestTrace, SagePolicy,
                      Window, generate_trace, lockstep_replay, offline_lz_oracle,
                      offline_markov_hit_rate, random_fsm, replay, state_file_counts,
                      top_c_hits)
from util import (NodeTree, TupleWindow, advance_walk, random_trace, top_c_hits_reference,
                  window_code)


def test_shift_context_drops_oldest():
    window = Window(2, 6)
    for x in (1, 5, 2):
        window.advance(x)
    assert window.current == window_code((5, 2), 6)


def test_shift_context_order_zero():
    window = Window(0, 4)
    window.advance(3)
    assert window.current == window_code((), 4) == 0


def test_shift_context_grows_during_warmup():
    window = Window(3, 8)
    assert window.current == window_code((), 8)
    for x, expect in [(4, (4,)), (5, (4, 5)), (6, (4, 5, 6)), (7, (5, 6, 7))]:
        window.advance(x)
        assert window.current == window_code(expect, 8)


@given(st.integers(min_value=0, max_value=7), st.lists(st.integers(0, 3), max_size=10),
       st.lists(st.integers(0, 3), max_size=24))
@settings(max_examples=300, deadline=None)
def test_window_states_match_the_advance_walk(k, history, requests):
    # The window starts empty, partial or full, and T may be below k.
    bulk, walk = Window(k, 4), Window(k, 4)
    for x in history:
        bulk.advance(x)
        walk.advance(x)
    assert list(bulk.states(requests)) == advance_walk(walk, requests)
    assert bulk.current == walk.current


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=4),
       st.lists(st.integers(0, 3), max_size=200))
@settings(max_examples=200, deadline=None)
def test_window_visits_at_most_n_to_the_k_plus_k_states(k, n, requests):
    # The partial windows of the first k rounds are k states beyond the N^k
    # full windows that `markov_regret_bound` counts.
    window = Window(k, n)
    visited = set(window.states([x % n for x in requests]))
    visited.add(window.current)
    assert len(visited) <= n ** k + k


@given(st.integers(min_value=0, max_value=7), st.integers(min_value=1, max_value=4),
       st.lists(st.integers(0, 3), max_size=10), st.lists(st.integers(0, 3), max_size=24))
@settings(max_examples=300, deadline=None)
def test_window_codes_match_the_tuple_reference(k, n, history, requests):
    # From an empty, partial or full window: order k's codes split the rounds
    # as its tuples do, and order k + 1's codes mod (n + 1)**k are order k's.
    history = [x % n for x in history]
    requests = [x % n for x in requests]
    code, wide, ref = Window(k, n), Window(k + 1, n), TupleWindow(k)
    for machine in (code, wide, ref):
        for x in history:
            machine.advance(x)
    codes, wide_codes, tuples = (list(m.states(requests)) for m in (code, wide, ref))
    assert codes == [window_code(t, n) for t in tuples]
    assert len(set(codes)) == len(set(tuples)) == len(set(zip(codes, tuples)))
    assert [c % (n + 1) ** k for c in wide_codes] == codes
    assert code.current == window_code(ref.current, n) == wide.current % (n + 1) ** k


def test_context_validation():
    with pytest.raises(DomainError):
        Window(-1, 3)
    with pytest.raises(DomainError):
        MarkovSagePolicy(3, 1, k=-1)


def test_order_one_contexts_on_three_requests():
    # trace (a, b, c): rounds are consumed by contexts (), (a), (b)
    trace = RequestTrace(3, [0, 1, 2])
    policy = MarkovSagePolicy(3, 1, k=1, seed=0)
    replay(policy, trace)
    assert set(policy.table) == {window_code(t, 3) for t in [(), (0,), (1,)]}


def test_offline_order_zero_is_static_best():
    trace = RequestTrace(4, [1, 1, 2, 3, 1, 2])
    rate, hits = offline_markov_hit_rate(trace, 0, 2)
    assert hits == 5 and rate == pytest.approx(5 / 6)


def test_offline_periodic_trace_perfect_with_context():
    trace = RequestTrace(3, [0, 1, 2] * 40)
    rate1, hits1 = offline_markov_hit_rate(trace, 1, 1)
    assert hits1 == len(trace)  # every context pins its successor; warm-up is 1 round
    rate0, _ = offline_markov_hit_rate(trace, 0, 1)
    assert rate0 <= 0.34


def test_offline_monotone_on_past_counterexample():
    # merged warm-up pooling used to lose a hit between orders 1 and 2 here
    trace = RequestTrace(2, [0, 1, 0, 1, 1])
    rates = [offline_markov_hit_rate(trace, k, 1)[0] for k in range(4)]
    assert all(b >= a for a, b in zip(rates, rates[1:]))


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=5, max_value=120),
       st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_offline_monotone_in_order(n, length, seed):
    trace = random_trace(n, length, seed)
    prev = -1.0
    for k in range(5):
        rate, _ = offline_markov_hit_rate(trace, k, 1)
        assert rate >= prev - 1e-15
        prev = rate


def test_offline_validates():
    trace = RequestTrace(3, [0, 1])
    with pytest.raises(DomainError):
        offline_markov_hit_rate(trace, -1, 1)
    with pytest.raises(DomainError):
        offline_markov_hit_rate(trace, 1, 4)
    with pytest.raises(DomainError):
        offline_markov_hit_rate(RequestTrace(3, []), 1, 1)


def _traced_peak(run):
    """run() and the peak of the memory Python allocated while it ran."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def oracle_trace():
    # The benchmark's oracle-replay inputs at T = 1e5: a Q=500, N=16, C=4
    # machine from seed 0, walked from seed 1.
    spec, arrays = random_fsm(500, 16, 4, seed=0)
    return generate_trace(spec, arrays, spec.initial_state, 100_000, seed=1)


def test_oracle_counting_peak_stays_below_the_tuple_reference(oracle_trace):
    # Int codes and int count keys must peak at most 3/4 of what tuple
    # windows and pair keys peak at.
    trace = oracle_trace
    for k in (2, 4):
        (_, hits), peak = _traced_peak(lambda: offline_markov_hit_rate(trace, k, 4))
        reference_hits, reference_peak = _traced_peak(lambda: top_c_hits_reference(
            Counter(zip(TupleWindow(k).states(trace.requests), trace.requests)), 4))
        assert hits == reference_hits
        assert peak <= 0.75 * reference_peak, (k, peak, reference_peak)


def test_lz_oracle_peak_stays_below_the_node_tree(oracle_trace):
    # The flat parse tree and its streamed states must peak at most 0.8 of
    # what one node object per node and a T-long list of states peak at.
    def reference_pass():
        tree = NodeTree(16)
        return top_c_hits(state_file_counts(tree, oracle_trace.requests, 16), 4, 16), tree

    (_, hits, nodes), peak = _traced_peak(lambda: offline_lz_oracle(oracle_trace, 4))
    (reference_hits, reference), reference_peak = _traced_peak(reference_pass)
    assert (hits, nodes) == (reference_hits, reference.node_count)
    assert peak <= 0.8 * reference_peak, (peak, reference_peak)


def test_order_zero_policy_identical_to_plain_sage():
    trace = random_trace(5, 400, 17)
    cfg = EtaConfig()
    a = replay(SagePolicy(5, 2, cfg, seed=7), trace)
    b = replay(MarkovSagePolicy(5, 2, 0, cfg, seed=7), trace)
    assert a.hits == b.hits


def test_online_markov_reproducible():
    trace = random_trace(4, 300, 3)
    a = replay(MarkovSagePolicy(4, 2, 2, seed=11), trace)
    b = replay(MarkovSagePolicy(4, 2, 2, seed=11), trace)
    assert a.hits == b.hits and a.cumulative_hits == b.cumulative_hits


def test_context_table_stays_bounded():
    n, k = 3, 2
    trace = random_trace(n, 500, 23)
    policy = MarkovSagePolicy(n, 1, k=k, seed=0)
    replay(policy, trace)
    assert policy.contexts_visited <= min(n**k + k, len(trace))


def test_online_learns_deterministic_cycle():
    trace = RequestTrace(4, [0, 1, 2, 3] * 250)
    rec = replay(MarkovSagePolicy(4, 1, 1, seed=4), trace)
    # after each context's first few visits the successor is locked in
    assert rec.cumulative_hits >= len(trace) - 40


def test_per_context_regret_bound():
    # mean regret against the per-context oracle stays under the per-state
    # cap evaluated with S = number of visited contexts
    from statistics import mean

    from unicache import fsm_regret_bound, random_fsm, generate_trace

    spec, arrays = random_fsm(10, 4, 2, seed=6)
    trace = generate_trace(spec, arrays, spec.initial_state, 20_000, seed=7)
    horizon = len(trace)
    for k in (1, 2):
        oracle_hits = offline_markov_hit_rate(trace, k, 2)[1]
        policies = [MarkovSagePolicy(4, 2, k=k, seed=seed) for seed in range(20)]
        regrets = [oracle_hits - rec.cumulative_hits
                   for rec in lockstep_replay(policies, trace)]
        contexts = policies[-1].contexts_visited
        bound = fsm_regret_bound(contexts, horizon - oracle_hits, 4, 2)
        assert mean(regrets) <= bound, (k, mean(regrets), bound)
