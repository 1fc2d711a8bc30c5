import io
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unicache import (DomainError, LzSagePolicy, LzTree, RequestTrace,
                      depth_split_counts, dump_tree, offline_lz_oracle,
                      offline_markov_hit_rate, replay, SagePolicy)
from unicache import sage as sage_mod
from util import (NodeTree, advance_walk, mean, parsed_tree, random_trace, reference_parse,
                  tree_phrases)


def _walked(n_files: int, requests):
    """The flat tree, its per-node visits, and the reference tree, each
    walked over the requests."""
    tree, reference = LzTree(n_files), NodeTree(n_files)
    visits = Counter(tree.states(requests))
    reference.states(requests)
    return tree, visits, reference


def test_parse_example():
    tree, _, reference = _walked(2, [0, 1, 0, 0, 1, 1])
    assert tree_phrases(tree) == [(0,), (1,), (0, 0), (1, 1)]
    assert tree.node_count == reference.node_count == 5
    assert tree.node_count - 1 == reference.phrase_count == 4


def test_parse_empty_trace():
    tree = parsed_tree(RequestTrace(2, []))
    assert tree_phrases(tree) == [] and tree.node_count == 1 and not tree.edges


def test_parse_constant_symbol_phrase_lengths():
    # phrases 0, 00, 000, ... lengths 1+2+3 cover T=6 exactly
    tree = parsed_tree(RequestTrace(2, [0] * 6))
    assert [len(p) for p in tree_phrases(tree)] == [1, 2, 3]
    assert tree.node_count == 4
    # one more symbol starts a partial phrase along an existing path: no new node
    tree7 = parsed_tree(RequestTrace(2, [0] * 7))
    assert tree7.node_count == 4 and len(tree7.edges) == 3


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
            list(LzTree(3).states(bad))


@given(st.integers(min_value=1, max_value=4), st.lists(st.integers(0, 3), max_size=20),
       st.lists(st.integers(0, 3), max_size=40))
@settings(max_examples=200, deadline=None)
def test_lz_states_match_the_advance_walk(n, history, requests):
    # From a random prefix, the flat tree yields the node-object tree's walk
    # and ends where it does; each edge key holds its child's parent and
    # symbol, each node its depth, and the dump is the reference's.
    history = [x % n for x in history]
    requests = [x % n for x in requests]
    tree, reference = LzTree(n), NodeTree(n)
    visits = Counter(tree.states(history))
    advance_walk(reference, history)
    states = list(tree.states(requests))
    assert states == advance_walk(reference, requests)
    visits.update(states)
    assert (tree.current, tree.node_count) == (reference.current, reference.node_count)
    assert tree.depth == [node.depth for node in reference.nodes]
    assert [(key // n, key % n, child) for key, child in tree.edges.items()] == \
        [(node.parent, node.symbol, nid) for nid, node in enumerate(reference.nodes)][1:]
    buf = io.StringIO()
    dump_tree(tree, visits, buf)
    assert buf.getvalue().splitlines() == reference.dump_lines()


def test_consumed_tracks_rounds():
    trace = random_trace(3, 77, 1)
    tree, visits, reference = _walked(3, trace.requests)
    assert sum(visits.values()) == reference.consumed() == 77
    assert [visits[nid] for nid in range(tree.node_count)] == \
        [node.visits for node in reference.nodes]
    assert tree.node_count <= 78  # at most one node per round plus the root


def test_depth_split_edges_and_bound():
    trace = random_trace(3, 400, 9)
    tree = LzTree(3)
    visits = Counter(tree.states(trace.requests))
    assert depth_split_counts(tree, visits, 0) == (0, 400)
    deepest = max(tree.depth)
    assert depth_split_counts(tree, visits, deepest + 1) == (400, 0)
    for k in (1, 2, 3):
        shallow, deep = depth_split_counts(tree, visits, k)
        assert shallow + deep == 400
        assert shallow <= k * tree.node_count
    with pytest.raises(DomainError):
        depth_split_counts(tree, visits, -1)


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


def test_lz_policy_first_round_is_uniform(monkeypatch):
    played = []
    running_sums = sage_mod._running_sums

    def spy(*args):
        table = running_sums(*args)
        played.append(table[0])
        return table

    monkeypatch.setattr(sage_mod, "_running_sums", spy)
    LzSagePolicy(5, 2, seed=0).step(0)
    assert played == [pytest.approx([0.0, 0.4, 0.8, 1.2, 1.6, 2.0], abs=1e-12)]


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
    tree, visits, reference = _walked(2, [0, 1, 0])
    buf = io.StringIO()
    dump_tree(tree, visits, buf)
    lines = buf.getvalue().splitlines()
    assert lines == reference.dump_lines()
    assert len(lines) == tree.node_count
    assert lines[0].split() == ["0", "-1", "0", "-1", "3"]
    for line in lines[1:]:
        nid, parent, depth, symbol, visits = map(int, line.split())
        assert tree.depth[parent] == depth - 1
