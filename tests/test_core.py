import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unicache import (CacheSet, DataError, DomainError, RequestTrace, RunRecord, SplitMix64,
                      load_trace, replay, save_trace)
from unicache import core
from util import load_trace_reference, random_trace


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
    for hits, rate in ((bytes([1, 1, 1]), 1.0), (bytes([0, 0]), 0.0)):
        r = RunRecord("p", hits)
        assert r.cumulative_hits / r.T == rate
    # 11 hits over 12 rounds: miss fraction 1/12
    r = RunRecord("p", bytes([1] * 11 + [0]))
    assert r.cumulative_hits / r.T == pytest.approx(11 / 12, abs=1e-12)


def test_run_record_validation():
    rec = RunRecord("p", b"\x01\x00\x01")
    assert (rec.T, rec.cumulative_hits) == (3, 2)
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


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(-2**70, 2**80), t=st.integers(0, 5_000),
       kinds=st.lists(st.booleans(), min_size=1, max_size=6))
def test_splitmix64_jumps_past_draws(seed, t, kinds):
    # The state only adds GAMMA per draw, so t draws of either kind leave the
    # generator seeded seed + t * GAMMA, which `skip(t)` also jumps to.
    walked = SplitMix64(seed)
    for i in range(t):
        walked.next_float() if i % 2 else walked.next_u64()
    jumped = SplitMix64(seed + t * core.GAMMA)
    skipped = SplitMix64(seed)
    skipped.skip(t)
    for as_u64 in kinds:
        draws = [rng.next_u64() if as_u64 else rng.next_float()
                 for rng in (walked, jumped, skipped)]
        assert draws[0] == draws[1] == draws[2]


_BLOCK = core._BLOCK


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(-2**70, 2**80), prior=st.integers(0, 300),
       count=st.sampled_from((0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 7,
                              3 * _BLOCK)),
       n=st.integers(1, 2**64), as_floats=st.booleans())
def test_bulk_draws_are_the_scalar_draws(seed, prior, count, n, as_floats):
    # The packed blocks yield the one-draw stream value for value, and the
    # call itself moves the generator to where `count` scalar draws leave it.
    bulk, scalar = SplitMix64(seed), SplitMix64(seed)
    for _ in range(prior):
        bulk.next_u64(), scalar.next_u64()
    drawn = bulk.floats(count) if as_floats else bulk.below(n, count)
    after = bulk.next_u64()
    draw = scalar.next_float if as_floats else (lambda: scalar.next_below(n))
    assert list(drawn) == [draw() for _ in range(count)]
    assert after == scalar.next_u64()


def test_bulk_below_needs_a_positive_bound():
    rng = SplitMix64(3)
    with pytest.raises(DomainError):
        rng.below(0, 5)
    assert rng.next_u64() == SplitMix64(3).next_u64()


def test_trace_validation():
    with pytest.raises(DomainError):
        RequestTrace(3, [0, 3])
    with pytest.raises(DomainError):
        RequestTrace(0, [])
    # The range check runs in bulk; the error still names the first bad round.
    with pytest.raises(DomainError, match=r"request 5 at round 2 outside \[0, 3\)"):
        RequestTrace(3, [0, 1, 5, -1, 9])
    with pytest.raises(DomainError, match=r"request -2 at round 1 "):
        RequestTrace(3, [2, -2, 7, 3])
    for bad in ([-1], [0, 1, 2, -5]):
        with pytest.raises(DomainError, match="request -"):
            RequestTrace(3, bad)
    assert RequestTrace(3, [2, 0, 1]).requests == [2, 0, 1]
    assert len(RequestTrace(1, [])) == 0


def _write_trace(trace, path, base):
    """A trace file with a ``BASE=<base>`` header, ids shifted up by `base`."""
    path.write_text(f"# N={trace.n_files} BASE={base}\n"
                    + "".join(f"{x + base}\n" for x in trace.requests))


def test_trace_roundtrip(tmp_path):
    trace = RequestTrace(4, [0, 3, 1, 1, 2])
    p0 = tmp_path / "zero.trace"
    save_trace(trace, p0)
    assert p0.read_text() == "# N=4 BASE=0\n0\n3\n1\n1\n2\n"
    assert load_trace(p0).requests == trace.requests
    p1 = tmp_path / "one.trace"
    _write_trace(trace, p1, 1)
    loaded = load_trace(p1)
    assert loaded.requests == trace.requests
    assert loaded.n_files == 4
    # A trace long enough to be read in several blocks.
    trace = random_trace(1000, 20_000, seed=3)
    for base in (0, 1):
        p = tmp_path / f"long{base}.trace"
        _write_trace(trace, p, base)
        assert p.stat().st_size > 3 * core._BLOCK_HINT
        loaded = load_trace(p)
        assert loaded.n_files == 1000
        assert loaded.requests == trace.requests


def test_trace_load_without_header(tmp_path):
    p = tmp_path / "bare.trace"
    p.write_text("0\n2\n1\n")
    assert load_trace(p).n_files == 3


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
    with pytest.raises(DataError, match=r"oob\.trace:2: file id 5 outside \[0, 1\]"):
        load_trace(p3)
    # Ids outside the library are reported as written, against the range
    # the file's base gives.
    for text, message in (
            ("# N=3 BASE=1\n0\n", r":2: file id 0 outside \[1, 3\]"),
            ("# N=3 BASE=1\n1\n\n+4\n", r":4: file id \+4 outside \[1, 3\]"),
            ("# N=3 BASE=0\n2\n-1\n", r":3: file id -1 outside \[0, 2\]"),
            ("0\n\n1_0\n-0_1\n", r":4: file id -0_1 outside \[0, 10\]"),
            ("-3\n", r":1: file id -3 outside \[0, 0\]")):
        p3.write_text(text)
        with pytest.raises(DataError, match=message):
            load_trace(p3)


_SPACE = st.sampled_from(["", " ", "\t", "\v", "\f", "\x1c", " \t "])
_ID_TEXT = st.one_of(st.integers(-1, 24).map(str), st.integers(0, 24).map("+{}".format),
                     st.sampled_from(["1_0", "0_3", "-0", "007"]))
_LINE = st.one_of(st.tuples(_SPACE, _ID_TEXT, _SPACE).map("".join), _SPACE)
_BAD_LINE = st.sampled_from(["1__0", "_1", "1_", "+-1", "1 2", "1.0", "0x1", "x", "#", "# N=3",
                             "\xe9"])
_HEADER = st.one_of(st.none(),
                    st.sampled_from(["# N=20 BASE=0", "# N=25 BASE=1", " #N=6 BASE=1", "# N=3"]),
                    st.sampled_from(["# N=3 BASE=7", "# N=many", "# N=0", "# BASE=1",
                                     "# N=4 X=1", "#", "# N=3 N=9 BASE=1",
                                     "# N=20 BASE=1 BASE=0"]))
_EOL = st.sampled_from(["\n", "\r\n", "\r"])


@settings(max_examples=500, deadline=None)
@given(header=_HEADER,
       lines=st.lists(st.tuples(_LINE, _EOL), max_size=12),
       bad=st.one_of(st.none(), st.tuples(st.integers(0, 12), _BAD_LINE, _EOL)),
       final_eol=st.booleans(),
       hint=st.one_of(st.integers(1, 24), st.just(core._BLOCK_HINT)))
def test_load_trace_matches_the_per_line_reference(tmp_path_factory, header, lines, bad,
                                                   final_eol, hint):
    # Same trace from every accepted file, and the same error (so the same
    # line) from every rejected one, at block sizes down to one line.
    if bad:
        lines.insert(bad[0], bad[1:])
    if header:
        lines.insert(0, (header, "\n"))
    text = "".join(line + eol for line, eol in lines)
    if not final_eol:
        text = text.rstrip("\r\n")
    path = tmp_path_factory.getbasetemp() / "hyp.trace"
    path.write_bytes(text.encode("latin-1"))
    with mock.patch.object(core, "_BLOCK_HINT", hint):
        assert _outcome(load_trace, path) == _outcome(load_trace_reference, path)


def _outcome(load, path):
    """(n_files, requests) of the loaded trace, or the loader's error message."""
    try:
        trace = load(path)
    except DataError as exc:
        return str(exc)
    return trace.n_files, trace.requests


def test_load_trace_block_edges(tmp_path):
    # A bad, blank or out-of-range line on either side of the first block
    # boundary at the real block size.
    p = tmp_path / "edge.trace"
    body = ["7\n"] * core._BLOCK_HINT
    p.write_text("# N=9 BASE=0\n" + "".join(body))
    with open(p) as fh:
        fh.readline()
        first_block = len(fh.readlines(core._BLOCK_HINT))
    assert first_block < len(body)
    edge = 2 + first_block  # the first line of the second block
    for lineno in (edge - 1, edge, edge + 1):
        for text, error in (("bad", f":{lineno}: not an integer"),
                            ("9", f":{lineno}: file id 9 outside"), ("  ", None)):
            lines = list(body)
            lines[lineno - 2] = text + "\n"
            p.write_text("# N=9 BASE=0\n" + "".join(lines))
            got = _outcome(load_trace, p)
            assert got == _outcome(load_trace_reference, p)
            if error:
                assert error in got
            else:
                assert got == (9, [7] * (len(body) - 1))


def test_load_trace_holds_one_block_of_lines(tmp_path):
    # Peak memory is the request list and one block, not every line string
    # at once (~50 bytes per line).
    rounds = 200_000
    p = tmp_path / "big.trace"
    p.write_text("# N=16 BASE=0\n" + "11\n" * rounds)
    tracemalloc.start()
    try:
        load_trace(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * rounds + 2_000_000
