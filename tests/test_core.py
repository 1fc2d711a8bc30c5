import pytest

from unicache import (CacheSet, DataError, DomainError, EmptyTraceError, RequestTrace,
                      RunRecord, SplitMix64, hit_rate, load_trace, regret, replay,
                      save_trace)


def test_score_round_hit_and_miss():
    # A round scores a hit iff the request is in the cache set.
    cache = CacheSet(frozenset({1, 4}), 5)
    assert 1 in cache and 4 in cache
    assert 3 not in CacheSet(frozenset({0, 2}), 5)
    assert 0 in CacheSet(frozenset({0}), 1)


def test_score_round_rejects_out_of_range_request():
    # Requests are range-checked once, when the trace is built.
    for bad in (3, -1):
        with pytest.raises(DomainError, match="at round 1"):
            RequestTrace(3, [0, bad, 1])


def test_score_round_is_pure():
    cache = CacheSet(frozenset({2, 5}), 6)
    assert [2 in cache for _ in range(5)] == [True] * 5
    assert cache.files == frozenset({2, 5})


def test_cache_set_validates_members():
    with pytest.raises(DomainError):
        CacheSet(frozenset({0, 7}), 3)


def test_hit_rate():
    assert hit_rate(RunRecord("p", bytes([1, 1, 1]))) == 1.0
    assert hit_rate(RunRecord("p", bytes([0, 0]))) == 0.0
    # 11 hits over 12 rounds: miss fraction 1/12
    r = RunRecord("p", bytes([1] * 11 + [0]))
    assert hit_rate(r) == pytest.approx(11 / 12, abs=1e-12)
    with pytest.raises(EmptyTraceError):
        hit_rate(RunRecord("p", b""))


def test_regret_signed():
    assert regret(11, 8) == 3
    assert regret(5, 5) == 0
    assert regret(3, 9) == -6


def test_run_record_validation():
    with pytest.raises(DomainError):
        RunRecord("p", bytes([1, 0]), T=2, cumulative_hits=2)
    with pytest.raises(DomainError):
        RunRecord("p", bytes([1, 0]), T=3, cumulative_hits=1)
    with pytest.raises(DomainError):
        RunRecord("p", bytes([2, 0]))


class _EveryOther:
    name = "everyother"

    def __init__(self):
        self.t = 0

    def step(self, request):
        self.t += 1
        return self.t % 2


def test_replay_accumulates():
    trace = RequestTrace(2, [0, 1, 0, 1])
    rec = replay(_EveryOther(), trace)
    assert rec.hits == bytes([1, 0, 1, 0])
    assert rec.cumulative_hits == 2
    assert rec.policy_name == "everyother"


def test_splitmix64_streams():
    a, b = SplitMix64(42), SplitMix64(42)
    assert [a.next_u64() for _ in range(8)] == [b.next_u64() for _ in range(8)]
    c = SplitMix64(43)
    assert a.next_u64() != c.next_u64()


def test_splitmix64_float_range():
    rng = SplitMix64(7)
    draws = [rng.next_float() for _ in range(2000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    assert 0.4 < sum(draws) / len(draws) < 0.6
    # next_float is the top 53 bits of the next output word, draw for draw
    twin = SplitMix64(7)
    assert draws == [(twin.next_u64() >> 11) * 2.0**-53 for _ in range(2000)]


def test_splitmix64_next_below():
    rng = SplitMix64(1)
    assert all(0 <= rng.next_below(7) < 7 for _ in range(200))
    with pytest.raises(DomainError):
        rng.next_below(0)


def test_trace_validation():
    with pytest.raises(DomainError):
        RequestTrace(3, [0, 3])
    with pytest.raises(DomainError):
        RequestTrace(0, [])


def test_trace_roundtrip(tmp_path):
    trace = RequestTrace(4, [0, 3, 1, 1, 2])
    p0 = tmp_path / "zero.trace"
    save_trace(trace, p0)
    assert load_trace(p0).requests == trace.requests
    p1 = tmp_path / "one.trace"
    save_trace(trace, p1, base=1)
    assert p1.read_text().splitlines()[1] == "1"
    loaded = load_trace(p1)
    assert loaded.requests == trace.requests
    assert loaded.n_files == 4


def test_trace_load_without_header(tmp_path):
    p = tmp_path / "bare.trace"
    p.write_text("0\n2\n1\n")
    assert load_trace(p).n_files == 3
    assert load_trace(p, n_files=9).n_files == 9


def test_trace_load_errors_name_the_line(tmp_path):
    p = tmp_path / "bad.trace"
    p.write_text("# N=3 BASE=0\n0\nnope\n")
    with pytest.raises(DataError, match=r":3"):
        load_trace(p)
    p2 = tmp_path / "badhdr.trace"
    p2.write_text("# N=3 BASE=7\n0\n")
    with pytest.raises(DataError, match=r":1"):
        load_trace(p2)
    p2.write_text("# N=many BASE=0\n0\n")
    with pytest.raises(DataError, match=r":1"):
        load_trace(p2)
    p3 = tmp_path / "oob.trace"
    p3.write_text("# N=2 BASE=0\n5\n")
    with pytest.raises(DataError):
        load_trace(p3)
