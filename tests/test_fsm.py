from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unicache import (DataError, DomainError, FifoPolicy, FsmRunner, FsmSpec, LruPolicy,
                      LzTree, Prefetcher, RequestTrace, SplitMix64, Window, load_fsm,
                      offline_fsp_hits, random_fsm, replay, save_fsm, simulate_fsp,
                      state_file_counts, top_c_hits)
from util import (advance_walk, fifo_rule, lru_rule, nonzero_counts,
                  optimal_prefetcher_reference, random_trace, top_c_hits_reference,
                  tuple_fsp_reference, worked_example)


def _after(spec, state, request):
    """State an `FsmRunner` reaches by reading `request` in `state`."""
    machine = FsmRunner(spec)
    machine.current = state
    machine.advance(request)
    return machine.current


def test_fsm_step_worked_example_edges():
    spec, _, _, _ = worked_example()
    assert FsmRunner(spec).current == spec.initial_state
    assert _after(spec, 0, 1) == 1   # the one request that leaves state 0
    assert _after(spec, 0, 0) == 0
    assert _after(spec, 1, 0) == 2
    assert _after(spec, 1, 3) == 0
    for x in range(5):
        assert _after(spec, 2, x) == 0  # state 2 always falls back


def test_fsm_step_single_state():
    machine = FsmRunner(FsmSpec(1, 3, [[0, 0, 0]], 0))
    for x in (0, 2, 1, 1):
        machine.advance(x)
        assert machine.current == 0


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2**32), st.lists(st.integers(0, 3), max_size=10),
       st.lists(st.integers(0, 3), max_size=40))
@settings(max_examples=100, deadline=None)
def test_fsm_runner_states_match_the_advance_walk(q, n, seed, history, requests):
    spec, _ = random_fsm(q, n, 1, seed)
    bulk, walk = FsmRunner(spec), FsmRunner(spec)
    for x in history:
        bulk.advance(x % n)
        walk.advance(x % n)
    requests = [x % n for x in requests]
    assert list(bulk.states(requests)) == advance_walk(walk, requests)
    assert bulk.current == walk.current


def test_states_stream_and_end_past_every_request():
    # Every machine's `states` is an iterator, and once it is exhausted the
    # machine is where the advance walk ends: for T below, at and above each
    # window order k, from the start state and from a state a prefix reached.
    n = 3
    spec, _ = random_fsm(5, n, 1, seed=3)
    makers = [("fsm", lambda: FsmRunner(spec)), ("lz", lambda: LzTree(n))]
    makers += [(f"window:{k}", lambda k=k: Window(k, n)) for k in range(8)]
    for label, make in makers:
        for t in range(10):
            for prefix in ([], [2, 0, 1, 1]):
                requests = random_trace(n, t, seed=t).requests
                bulk, walk = make(), make()
                for x in prefix:
                    bulk.advance(x)
                    walk.advance(x)
                states = bulk.states(requests)
                assert iter(states) is states, label
                assert list(states) == advance_walk(walk, requests), (label, t, prefix)
                assert bulk.current == walk.current, (label, t, prefix)
    # The parse tree checks each request as the iterator reaches it.
    states = LzTree(3).states([0, 1, 3])
    with pytest.raises(DomainError):
        list(states)


@given(st.integers(min_value=1, max_value=6),
       st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                       st.integers(min_value=1, max_value=4), max_size=40))
@settings(max_examples=300, deadline=None)
def test_top_c_hits_matches_the_per_state_reference(n, counts):
    # States hold from 1 to n distinct files, so rows are shorter than, as
    # long as and longer than C; counts of 1..4 make ties. The reference
    # reads the same counts keyed by (state, file) pairs.
    pairs = Counter({(s, x % n): v for (s, x), v in counts.items()})
    codes = Counter({s * n + x: v for (s, x), v in pairs.items()})
    for c in range(1, n + 1):
        assert top_c_hits(codes, c, n) == top_c_hits_reference(pairs, c)


def test_fsm_step_domain_errors():
    # The runner trusts its input; a walk over a trace is checked up front:
    # a trace over more files than the machine reads is rejected.
    spec = FsmSpec(2, 2, [[0, 1], [1, 0]], 0)
    trace = RequestTrace(3, [0, 2])
    with pytest.raises(DomainError):
        simulate_fsp(spec, Prefetcher([_cache((0,), 2)] * 2), trace)
    with pytest.raises(DomainError):
        offline_fsp_hits(spec, trace, 1)
    # A cache holds from 1 to all of the machine's files.
    for cache_size in (0, 3):
        with pytest.raises(DomainError):
            offline_fsp_hits(spec, RequestTrace(2, [0, 1]), cache_size)


def test_fsm_spec_validation():
    with pytest.raises(DomainError):
        FsmSpec(2, 2, [[0, 1]], 0)
    with pytest.raises(DomainError):
        FsmSpec(2, 2, [[0, 1], [1, 2]], 0)
    with pytest.raises(DomainError):
        FsmSpec(2, 2, [[0, 1], [1, 0]], 5)


def test_fsm_spec_equality_is_by_value():
    spec = FsmSpec(2, 3, [[0, 1, 1], [1, 0, 0]], 0)
    assert spec == FsmSpec(2, 3, [[0, 1, 1], [1, 0, 0]], 0)
    assert spec != FsmSpec(2, 3, [[0, 1, 1], [1, 0, 1]], 0)  # one transition entry
    assert spec != FsmSpec(2, 3, [[0, 1, 1], [1, 0, 0]], 1)
    assert spec != (2, 3, [[0, 1, 1], [1, 0, 0]], 0)


def test_visit_counts_worked_example():
    spec, trace, counts, _ = worked_example()
    visits = state_file_counts(FsmRunner(spec), trace.requests, 5)
    assert visits == nonzero_counts(counts)
    assert sum(visits.values()) == len(trace)


def test_visit_counts_empty_and_single_state():
    spec, _, _, _ = worked_example()
    assert state_file_counts(FsmRunner(spec), [], 5) == nonzero_counts([[0] * 5] * 3)
    flat = FsmSpec(1, 3, [[0, 0, 0]], 0)
    visits = state_file_counts(FsmRunner(flat), [0, 2, 2, 1, 2], 3)
    assert visits == nonzero_counts([[1, 1, 3]])


def test_optimal_prefetcher_worked_example():
    spec, trace, _, prefetch = worked_example()
    _, best = offline_fsp_hits(spec, trace, 2)
    assert [set(c.files) for c in best.caches] == prefetch


def test_optimal_prefetcher_tie_break_smallest_id():
    spec = FsmSpec(1, 4, [[0] * 4], 0)
    _, best = offline_fsp_hits(spec, RequestTrace(4, []), 2)
    assert set(best.caches[0].files) == {0, 1}


def test_optimal_prefetcher_full_library():
    spec, trace, _, _ = worked_example()
    _, best = offline_fsp_hits(spec, trace, 5)
    assert all(set(c.files) == set(range(5)) for c in best.caches)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5),
       st.data())
@settings(max_examples=300, deadline=None)
def test_offline_fsp_hits_match_the_dense_reference(q, n, data):
    # State q is never entered, so one state is always unvisited; files
    # 0..n-1 over short traces leave states with fewer than C requested
    # files, and small counts tie.
    transitions = data.draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                                     min_size=q + 1, max_size=q + 1))
    spec = FsmSpec(q + 1, n, transitions, data.draw(st.integers(0, q - 1)))
    trace = RequestTrace(n, data.draw(st.lists(st.integers(0, n - 1), max_size=30)))
    visits = Counter(zip(advance_walk(FsmRunner(spec), trace.requests), trace.requests))
    for c in range(1, n + 1):
        hits, best = offline_fsp_hits(spec, trace, c)
        assert [cache.files for cache in best.caches] == \
            optimal_prefetcher_reference(spec, trace, c)
        assert hits == top_c_hits_reference(visits, c)


def test_offline_hits_worked_example():
    spec, trace, _, _ = worked_example()
    hits, best = offline_fsp_hits(spec, trace, 2)
    assert hits == 11
    rec = simulate_fsp(spec, best, trace)
    assert rec.cumulative_hits == 11
    assert 1 - rec.cumulative_hits / rec.T == pytest.approx(1 / 12, abs=1e-12)


def test_offline_hits_single_state_is_static_best():
    flat = FsmSpec(1, 4, [[0] * 4], 0)
    trace = RequestTrace(4, [1, 1, 2, 3, 1, 2])
    hits, _ = offline_fsp_hits(flat, trace, 2)
    assert hits == 5  # top-2 files are 1 (x3) and 2 (x2)


def _exhaustive_best_hits(spec, trace, cache_size):
    """Independent oracle: enumerate every per-state C-subset against the
    recorded (state, request) pairs."""
    pairs = []
    s = spec.initial_state
    for x in trace.requests:
        pairs.append((s, x))
        s = spec.transitions[s][x]
    total = 0
    for state in range(spec.n_states):
        reqs = [x for (s_, x) in pairs if s_ == state]
        best = 0
        for subset in combinations(range(spec.n_files), cache_size):
            best = max(best, sum(1 for x in reqs if x in subset))
        total += best
    return total


def test_offline_hits_matches_exhaustive_small():
    rng = SplitMix64(21)
    for trial in range(8):
        q, n, c = 1 + rng.next_below(4), 2 + rng.next_below(5), 1 + rng.next_below(2)
        c = min(c, n)
        spec = FsmSpec(q, n, [[rng.next_below(q) for _ in range(n)] for _ in range(q)],
                       rng.next_below(q))
        trace = random_trace(n, 40, 1000 + trial)
        hits, _ = offline_fsp_hits(spec, trace, c)
        assert hits == _exhaustive_best_hits(spec, trace, c)


def test_offline_hits_matches_joint_assignment_enumeration():
    # belt and braces: literally try every joint prefetcher assignment
    rng = SplitMix64(33)
    spec = FsmSpec(2, 4, [[rng.next_below(2) for _ in range(4)] for _ in range(2)], 0)
    trace = random_trace(4, 30, 77)
    subsets = list(combinations(range(4), 2))
    best = -1
    for assign in product(subsets, repeat=2):
        pf = Prefetcher([_cache(s, 4) for s in assign])
        best = max(best, simulate_fsp(spec, pf, trace).cumulative_hits)
    assert offline_fsp_hits(spec, trace, 2)[0] == best


def _cache(ids, n):
    from unicache import CacheSet

    return CacheSet(frozenset(ids), n)


def test_simulate_fsp_checks_dimensions():
    spec, trace, _, _ = worked_example()
    pf = Prefetcher([_cache((0, 1), 5)])
    with pytest.raises(DomainError):
        simulate_fsp(spec, pf, trace)


def test_refinement_never_loses_hits():
    # pairing the machine state with the last-j requests refines the states;
    # the refined oracle's hit count can only grow
    rng = SplitMix64(5)
    for trial in range(10):
        q, n, c = 1 + rng.next_below(4), 2 + rng.next_below(4), 1 + rng.next_below(2)
        c = min(c, n)
        spec = FsmSpec(q, n, [[rng.next_below(q) for _ in range(n)] for _ in range(q)],
                       rng.next_below(q))
        trace = random_trace(n, 200, 555 + trial)
        base, _ = offline_fsp_hits(spec, trace, c)
        for j in (1, 2):
            refined = _product_oracle_hits(spec, trace, c, j)
            assert refined >= base
            base = refined  # deeper windows refine shallower ones too


def _product_oracle_hits(spec, trace, cache_size, j):
    from collections import Counter
    from heapq import nlargest

    table = {}
    s = spec.initial_state
    window = ()
    for x in trace.requests:
        key = (s, window)
        counter = table.get(key)
        if counter is None:
            counter = Counter()
            table[key] = counter
        counter[x] += 1
        s = spec.transitions[s][x]
        window = (window + (x,))[-j:]
    hits = 0
    for counter in table.values():
        hits += sum(nlargest(cache_size, counter.values()))
    return hits


# ---------------------------------------------------------------------------
# LRU / FIFO


def test_lru_hand_simulation():
    # start cache {0,1} with 0 least recent; trace 0,1,2,0
    spec, pf = tuple_fsp_reference(3, 2, lru_rule)
    rec = simulate_fsp(spec, pf, RequestTrace(3, [0, 1, 2, 0]))
    assert list(rec.hits) == [1, 1, 0, 0]


def test_lru_reorder_keeps_contents():
    assert lru_rule((0, 1, 2), 0) == (1, 2, 0)
    assert lru_rule((0, 1, 2), 3) == (1, 2, 3)


def test_fifo_cached_request_keeps_state():
    assert fifo_rule((0, 1), 0) == (0, 1)
    assert fifo_rule((0, 1), 2) == (1, 2)


def test_lru_fifo_fsp_equal_direct_simulators():
    rng = SplitMix64(8)
    for trial in range(20):
        n = 3 + rng.next_below(4)
        c = 1 + rng.next_below(min(3, n - 1))
        trace = random_trace(n, 120, 900 + trial)
        spec_l, pf_l = tuple_fsp_reference(n, c, lru_rule)
        assert simulate_fsp(spec_l, pf_l, trace).hits == replay(LruPolicy(n, c), trace).hits
        spec_f, pf_f = tuple_fsp_reference(n, c, fifo_rule)
        assert simulate_fsp(spec_f, pf_f, trace).hits == replay(FifoPolicy(n, c), trace).hits


def test_fsp_policy_matches_simulate():
    # the prefetcher as a policy, walked by hand: cache of the current
    # state, then the transition; simulate_fsp must give the same hit bits
    spec, trace, _, _ = worked_example()
    _, pf = offline_fsp_hits(spec, trace, 2)
    s, bits = spec.initial_state, []
    for x in trace.requests:
        bits.append(1 if x in pf.caches[s].files else 0)
        s = spec.transitions[s][x]
    assert list(simulate_fsp(spec, pf, trace).hits) == bits


# ---------------------------------------------------------------------------
# serialization


def test_fsm_roundtrip(tmp_path):
    spec, trace, _, _ = worked_example()
    _, pf = offline_fsp_hits(spec, trace, 2)
    path = tmp_path / "m.fsm"
    save_fsm(spec, path, pf)
    spec2, pf2 = load_fsm(path)
    assert spec2 == spec
    assert [c.files for c in pf2.caches] == [c.files for c in pf.caches]
    bare = tmp_path / "bare.fsm"
    save_fsm(spec, bare)
    spec3, pf3 = load_fsm(bare)
    assert spec3 == spec and pf3 is None


def test_fsm_load_errors(tmp_path):
    p = tmp_path / "bad.fsm"
    p.write_text("2 2\n0 1\n1 0\n0\n")
    with pytest.raises(DataError, match="header"):
        load_fsm(p)
    p.write_text("2 2 0\n0 1\n1 x\n0\n")
    with pytest.raises(DataError, match=":3"):
        load_fsm(p)
    p.write_text("2 2 0\n0 1\n1 0\n")
    with pytest.raises(DataError):
        load_fsm(p)


def test_fsm_load_errors_name_the_line_past_blank_lines(tmp_path):
    # Blank lines before each kind of row: the message names the row's line
    # in the file, not its place among the non-blank lines.
    p = tmp_path / "blank.fsm"
    for text, where in (("\n\n1 3\n0 0 0\n0\n", ":3: header must be 'Q N C'"),
                        ("1 3 0\n\n\n0 0 x\n0\n", ":4: bad transition row"),
                        ("1 3 0\n0 0 0\n\n\nx\n", ":5: bad start state line 'x'"),
                        ("1 3 1\n0 0 0\n0\n\n\nx\n", ":6: bad prefetch row"),
                        ("1 3 1\n0 0 0\n0\n\n\n0 1\n", ":6: expected 1 distinct file ids"),
                        ("1 3 1\n0 0 0\n\n0\n\n9\n", ":6: cached file 9 outside [0, 3)")):
        p.write_text(text)
        with pytest.raises(DataError) as info:
            load_fsm(p)
        assert str(info.value).startswith(f"{p}{where}"), (text, str(info.value))


def test_fsm_load_range_checks_the_header(tmp_path):
    # Each field of the header is checked before the rows it sizes are read.
    p = tmp_path / "header.fsm"
    for header, message in (("1 2 -1", "header C must be >= 0, got -1"),
                            ("-1 2 0", "header Q must be >= 1, got -1"),
                            ("0 2 0", "header Q must be >= 1, got 0"),
                            ("1 0 0", "header N must be >= 1, got 0"),
                            ("1 2 3", "header C 3 exceeds N 2")):
        p.write_text(f"\n{header}\n0 0\n0\n")
        with pytest.raises(DataError) as info:
            load_fsm(p)
        assert str(info.value) == f"{p}:2: {message}", header
