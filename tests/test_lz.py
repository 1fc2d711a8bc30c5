import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unicache import (DomainError, LzSagePolicy, LzTree, RequestTrace,
                      depth_split_counts, dump_tree, offline_lz_oracle,
                      offline_markov_hit_rate, replay, SagePolicy)
from util import (advance_walk, mean, parsed_tree, random_trace, reference_parse,
                  tree_phrases)


def test_parse_example():
    tree = parsed_tree(RequestTrace(2, [0, 1, 0, 0, 1, 1]))
    assert tree_phrases(tree) == [(0,), (1,), (0, 0), (1, 1)]
    assert tree.node_count == 5
    assert tree.phrase_count == 4


def test_parse_empty_trace():
    tree = parsed_tree(RequestTrace(2, []))
    assert tree_phrases(tree) == [] and tree.node_count == 1 and tree.phrase_count == 0


def test_parse_constant_symbol_phrase_lengths():
    # phrases 0, 00, 000, ... lengths 1+2+3 cover T=6 exactly
    tree = parsed_tree(RequestTrace(2, [0] * 6))
    assert [len(p) for p in tree_phrases(tree)] == [1, 2, 3]
    assert tree.node_count == 4
    # one more symbol starts a partial phrase along an existing path: no new node
    tree7 = parsed_tree(RequestTrace(2, [0] * 7))
    assert tree7.node_count == 4 and tree7.phrase_count == 3


def test_parse_matches_reference_on_random_traces():
    for trial in range(20):
        n = (2, 3, 5)[trial % 3]
        trace = random_trace(n, 500, 40 + trial)
        assert tree_phrases(parsed_tree(trace)) == reference_parse(trace.requests)


def test_lz_advance_validates():
    tree = LzTree(3)
    with pytest.raises(DomainError):
        tree.advance(3)
    for bad in ([0, 1, 3], [-1]):
        with pytest.raises(DomainError):
            LzTree(3).states(bad)


@given(st.integers(min_value=1, max_value=4), st.lists(st.integers(0, 3), max_size=20),
       st.lists(st.integers(0, 3), max_size=40))
@settings(max_examples=200, deadline=None)
def test_lz_states_match_the_advance_walk(n, history, requests):
    bulk, walk = LzTree(n), LzTree(n)
    for x in history:
        bulk.advance(x % n)
        walk.advance(x % n)
    requests = [x % n for x in requests]
    assert bulk.states(requests) == advance_walk(walk, requests)
    assert (bulk.current, bulk.node_count, bulk.phrase_count) == \
        (walk.current, walk.node_count, walk.phrase_count)
    assert [(node.visits, node.children) for node in bulk.nodes] == \
        [(node.visits, node.children) for node in walk.nodes]


def test_consumed_tracks_rounds():
    trace = random_trace(3, 77, 1)
    tree = parsed_tree(trace)
    assert tree.consumed() == 77
    assert tree.node_count <= 78  # at most one node per round plus the root


def test_depth_split_edges_and_bound():
    trace = random_trace(3, 400, 9)
    tree = parsed_tree(trace)
    assert depth_split_counts(tree, 0) == (0, 400)
    deepest = max(n.depth for n in tree.nodes)
    assert depth_split_counts(tree, deepest + 1) == (400, 0)
    for k in (1, 2, 3):
        shallow, deep = depth_split_counts(tree, k)
        assert shallow + deep == 400
        assert shallow <= k * tree.node_count
    with pytest.raises(DomainError):
        depth_split_counts(tree, -1)


def test_sublinear_node_growth():
    # node count per round must fall as the horizon grows, and the log-log
    # growth slope over three decades must stay below 1
    import math

    counts = {}
    for t in (1000, 10_000, 100_000, 1_000_000):
        trace = random_trace(3, t, 13)
        tree = parsed_tree(trace)
        assert tree.node_count <= t + 1
        counts[t] = tree.node_count
    assert counts[1000] / 1000 > counts[10_000] / 10_000 > counts[100_000] / 100_000
    slope = (math.log(counts[1_000_000]) - math.log(counts[1000])) / math.log(1000)
    assert slope < 1.0, slope


def test_offline_oracle_hand_count():
    # per-node counters: root {0:2, 1:2}, node(0) {0:1}, node(1) {1:1};
    # with C=1 the best prefetch scores 2+1+1 hits, so 2 misses
    trace = RequestTrace(2, [0, 1, 0, 0, 1, 1])
    assert offline_lz_oracle(trace, 1) == (2, 4, 5)


def test_offline_oracle_consistency():
    for trial in range(10):
        trace = random_trace(3, 300, 60 + trial)
        misses, hits, nodes = offline_lz_oracle(trace, 1)
        assert misses + hits == len(trace)
        assert nodes == parsed_tree(trace).node_count
        # the per-node oracle refines the single best fixed cache
        assert hits >= offline_markov_hit_rate(trace, 0, 1)[1]


def test_offline_oracle_near_perfect_on_regular_stream():
    trace = RequestTrace(4, [0, 1, 2, 3] * 500)
    misses, _, _ = offline_lz_oracle(trace, 1)
    assert misses / len(trace) < 0.05


def test_lz_policy_first_round_is_uniform():
    policy = LzSagePolicy(5, 2, seed=0)
    assert policy.table[0].marginals() == pytest.approx([0.4] * 5, abs=1e-12)


def test_lz_policy_reproducible():
    trace = random_trace(3, 400, 31)
    a, b = LzSagePolicy(3, 2, seed=5), LzSagePolicy(3, 2, seed=5)
    assert replay(a, trace).hits == replay(b, trace).hits
    assert a.machine.node_count == b.machine.node_count


def test_lz_policy_beats_plain_sage_on_periodic_stream():
    trace = RequestTrace(3, [0, 1, 2] * 1000)
    lz_rates, sage_rates = [], []
    for seed in range(10):
        rec = replay(LzSagePolicy(3, 1, seed=seed), trace)
        lz_rates.append(rec.cumulative_hits / rec.T)
        rec = replay(SagePolicy(3, 1, seed=seed), trace)
        sage_rates.append(rec.cumulative_hits / rec.T)
    assert mean(lz_rates) > mean(sage_rates) + 0.2


def test_tree_dump_format():
    trace = RequestTrace(2, [0, 1, 0])
    tree = parsed_tree(trace)
    buf = io.StringIO()
    dump_tree(tree, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == tree.node_count
    assert lines[0].split() == ["0", "-1", "0", "-1", "3"]
    for line in lines[1:]:
        nid, parent, depth, symbol, visits = map(int, line.split())
        assert tree.nodes[parent].depth == depth - 1
