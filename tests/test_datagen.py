import sys
import tracemalloc

import pytest

from unicache import (CacheSet, DomainError, Prefetcher, generate_trace, offline_fsp_hits,
                      random_fsm)
from util import simulate_fsp_reference


def test_random_fsm_shape_and_determinism():
    spec, arrays = random_fsm(12, 5, 2, seed=4)
    assert spec.n_states == 12 and spec.n_files == 5
    assert len(arrays) == 12
    assert all(len(a) == 2 and len(set(a)) == 2 for a in arrays)
    spec2, arrays2 = random_fsm(12, 5, 2, seed=4)
    assert spec2 == spec and arrays2 == arrays
    spec3, _ = random_fsm(12, 5, 2, seed=5)
    assert spec3 != spec


def test_random_fsm_validation():
    with pytest.raises(DomainError):
        random_fsm(0, 3, 1, seed=0)
    with pytest.raises(DomainError):
        random_fsm(2, 3, 4, seed=0)


def test_single_state_machine():
    spec, arrays = random_fsm(1, 6, 3, seed=9)
    assert spec.transitions == [[0] * 6]
    trace = generate_trace(spec, arrays, 0, 500, seed=10)
    assert set(trace.requests) <= set(arrays[0])


def test_constant_trace_when_one_choice():
    spec, arrays = random_fsm(1, 4, 1, seed=2)
    trace = generate_trace(spec, arrays, 0, 50, seed=3)
    assert len(set(trace.requests)) == 1


def test_zero_miss_certificate():
    for seed in range(6):
        spec, arrays = random_fsm(20, 6, 2, seed=seed)
        trace = generate_trace(spec, arrays, spec.initial_state, 2000, seed=seed + 100)
        pf = Prefetcher([CacheSet(frozenset(a), 6) for a in arrays])
        rec = simulate_fsp_reference(spec, pf, trace)
        assert rec.cumulative_hits == len(trace)
        # the offline oracle for the generating machine also finds zero misses
        assert offline_fsp_hits(spec, trace, 2) == len(trace)


def test_trace_determinism_and_seed_sensitivity():
    spec, arrays = random_fsm(8, 4, 2, seed=1)
    a = generate_trace(spec, arrays, spec.initial_state, 300, seed=7)
    b = generate_trace(spec, arrays, spec.initial_state, 300, seed=7)
    c = generate_trace(spec, arrays, spec.initial_state, 300, seed=8)
    assert a.requests == b.requests
    assert a.requests != c.requests


def test_generate_trace_validation():
    spec, arrays = random_fsm(3, 4, 2, seed=0)
    with pytest.raises(DomainError):
        generate_trace(spec, arrays[:2], 0, 10, seed=1)
    with pytest.raises(DomainError):
        generate_trace(spec, arrays, 3, 10, seed=1)
    with pytest.raises(DomainError):
        generate_trace(spec, arrays, 0, -1, seed=1)


def test_trace_picks_stream_one_block_at_a_time():
    # Only the request list grows with T: a T-long list of picks would add
    # another ~1.6 MB at T = 2e5; a block of picks is ~30 kB.
    spec, arrays = random_fsm(50, 3, 2, seed=7)
    tracemalloc.start()
    try:
        trace = generate_trace(spec, arrays, spec.initial_state, 200_000, seed=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sys.getsizeof(trace.requests) + 100_000


def test_per_state_choice_is_uniform():
    spec, arrays = random_fsm(5, 6, 3, seed=11)
    horizon = 100_000
    trace = generate_trace(spec, arrays, spec.initial_state, horizon, seed=12)
    visits = [0] * 5
    counts = [dict.fromkeys(a, 0) for a in arrays]
    s = spec.initial_state
    for x in trace.requests:
        visits[s] += 1
        counts[s][x] += 1
        s = spec.transitions[s][x]
    for s in range(5):
        if visits[s] < 1000:
            continue
        expect = visits[s] / 3
        sigma = (visits[s] * (1 / 3) * (2 / 3)) ** 0.5
        for f, got in counts[s].items():
            assert abs(got - expect) <= 3 * sigma, (s, f, got, expect)
