import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unicache import (DomainError, EtaConfig, LzSagePolicy, MarkovSagePolicy, NumericError,
                      RequestTrace, SagePolicy, SageState, SplitMix64)
from unicache import sage as sage_mod
from util import (eta_schedule_reference, hedge_bruteforce_marginals, madow_members,
                  madow_table, zipf_trace)

# ---------------------------------------------------------------------------
# elementary symmetric polynomials, in doubles and in `decimal`
#
# p(i) = w(i) * e_{m-1}(w_{-i}) / e_m(w): the prefix/suffix tables add
# nonnegative terms only. They run in plain doubles; the fallback runs the
# same tables in `decimal`.


def _both_paths(weights, c):
    """Marginals of the given weights from the plain and the `decimal` tables."""
    esp = sage_mod._esp_loo(list(weights), c)
    assert esp is not None
    e, loo = esp
    plain = [w * f / e for w, f in zip(weights, loo)]
    wide = sage_mod._marginals_wide([math.log(w) for w in weights], c)
    return sage_mod._finish_marginals(plain, c), sage_mod._finish_marginals(wide, c)


def _max_error(got, expect):
    return max(abs(a - b) for a, b in zip(got, expect))


def test_esp_all_examples():
    # (1, 2, 3)/3 at C=2: e_2 = 1*2 + 1*3 + 2*3 = 11, e_1 without i = (5, 4, 3)
    for p in _both_paths([1 / 3, 2 / 3, 1.0], 2):
        assert p == pytest.approx([5 / 11, 8 / 11, 9 / 11], abs=1e-14)
    for p in _both_paths([1.0, 1.0, 1.0], 2):
        assert p == pytest.approx([2 / 3] * 3, abs=1e-15)
    assert _both_paths([1.0], 1) == ([1.0], [1.0])
    assert _both_paths([0.5, 1.0], 2) == ([1.0, 1.0], [1.0, 1.0])


def test_esp_all_errors():
    # the plain tables decline once some e_a(w), a <= C, passes 2**900
    assert sage_mod._esp_loo([1.0] * 5, 3) is not None
    assert sage_mod._esp_loo([2.0 ** 290] * 5, 3) is not None  # e_3 = 10 * 2**870
    assert sage_mod._esp_loo([2.0 ** 300] * 5, 3) is None  # e_3 = 10 * 2**900
    assert sage_mod._esp_loo([1e300] * 5, 3) is None  # e_1 = 5e300 already
    assert sage_mod._esp_loo([math.inf, 1.0], 1) is None
    for w in (1e300, 1e-100):
        p = sage_mod._marginals_wide([math.log(w)] * 5, 3)
        assert p == pytest.approx([0.6] * 5, abs=1e-15)
    # no order-C product is nonzero: marginals are undefined
    with pytest.raises(NumericError):
        sage_mod._marginals_wide([0.0, -math.inf, -math.inf], 2)
    with pytest.raises(NumericError):
        sage_mod._finish_marginals([0.5, 0.2], 1)
    with pytest.raises(DomainError):
        SageState(2, 3, eta=1.0)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=11))
def test_esp_of_ones_gives_binomials(n, order):
    if order >= n:
        return
    # on Python ints with no limit the tables are exact
    e, loo = sage_mod._esp_loo([1] * n, order + 1, 1, math.inf)
    assert e == math.comb(n, order + 1)
    assert loo == [math.comb(n - 1, order)] * n
    for p in _both_paths([1.0] * n, order + 1):
        assert p == pytest.approx([(order + 1) / n] * n, abs=1e-14)


def test_leave_one_out_examples():
    # C=1: e_0 without i is 1, so p is w over its sum
    for p in _both_paths([0.25, 0.5, 1.0], 1):
        assert p == pytest.approx([1 / 7, 2 / 7, 4 / 7], abs=1e-15)
    # (1/2, 1, 1/2, 1) at C=2: e_2 = 13/4, e_1 without i = (5/2, 2, 5/2, 2)
    for p in _both_paths([0.5, 1.0, 0.5, 1.0], 2):
        assert p == pytest.approx([5 / 13, 8 / 13, 5 / 13, 8 / 13], abs=1e-15)


@given(st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=2, max_size=8),
       st.integers(min_value=1, max_value=7))
@settings(max_examples=60)
def test_leave_one_out_matches_direct_deletion(weights, c):
    if c > len(weights):
        return
    top = max(weights)
    w = [v / top for v in weights]
    # the reference deletes each index exactly, in integer arithmetic
    expect = _exact_marginals([math.frexp(v) for v in w], c)
    for p in _both_paths(w, c):
        assert _max_error(p, expect) <= 1e-12


def test_leave_one_out_cancellation_fallback():
    # Deleting the dominant weight leaves e_2 of the rest, about 1e7 times
    # smaller than the terms a deletion recurrence f_k = e_k - w_i f_{k-1}
    # would subtract (that recurrence is off by ~8e-3 for file 0); the
    # prefix/suffix tables never subtract.
    w = [1.0, 4e-8, 3e-8, 3.5e-8]
    expect = _exact_marginals([math.frexp(v) for v in w], 3)
    for p in _both_paths(w, 3):
        assert _max_error(p, expect) <= 1e-15


def test_leave_one_out_symmetry():
    for p in _both_paths([0.5] * 6, 3):
        assert max(p) == min(p) == pytest.approx(0.5, abs=1e-15)


# ---------------------------------------------------------------------------
# marginals


def test_marginals_symmetric_state():
    st_ = SageState(3, 2, eta=0.5)
    assert st_.marginals() == pytest.approx([2 / 3] * 3, abs=1e-12)


def test_marginals_worked_weights():
    # eta = ln 2 and counts (0, 1, 2) give weights (1, 2, 4)/4; at C=2,
    # e_2 = 2 + 4 + 8 = 14 and e_1 without i = (6, 5, 3)
    st_ = SageState(3, 2, eta=math.log(2.0))
    for x in (1, 2, 2):
        st_.update(x)
    p = st_.marginals()
    assert p == pytest.approx([6 / 14, 10 / 14, 12 / 14], abs=1e-13)
    assert math.fsum(p) == pytest.approx(2.0, abs=1e-9)


def test_marginals_two_file_sigmoid():
    st_ = SageState(2, 1, eta=1.0)
    st_.update(0)
    p = st_.marginals()
    assert p[0] == pytest.approx(math.e / (1 + math.e), abs=1e-13)
    assert p[1] == pytest.approx(1 / (1 + math.e), abs=1e-13)


def test_marginals_heavy_concentration():
    st_ = SageState(2, 1, eta=1.0)
    for _ in range(1000):
        st_.update(0)
    assert st_.marginals()[0] >= 1 - 1e-6


def test_marginals_degenerate_counts():
    # the complement weights exp(counts_min - counts) of files 0 and 1
    # underflow to 0, so they are in every cache
    st_ = SageState(3, 2, eta=1.0)
    st_.counts = [3000, 1000, 0]
    st_.count_max = 3000
    p = st_.marginals()
    assert p[0] == pytest.approx(1.0, abs=1e-9)
    assert p[1] == pytest.approx(1.0, abs=1e-9)
    assert p[2] < 1e-200


def test_marginals_full_cache_is_all_ones():
    st_ = SageState(4, 4, eta=0.3)
    st_.update(2)
    assert st_.marginals() == pytest.approx([1.0] * 4, abs=1e-12)


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=400),
       st.floats(min_value=1e-3, max_value=2.0))
@settings(max_examples=80, deadline=None)
def test_marginals_match_bruteforce_hedge(n, c, count_seed, eta):
    if c > n:
        return
    rng = SplitMix64(count_seed)
    counts = [rng.next_below(21) for _ in range(n)]
    st_ = SageState(n, c, eta=eta)
    st_.counts = counts
    st_.count_max = max(counts)
    expect = hedge_bruteforce_marginals(counts, eta, n, c)
    assert st_.marginals() == pytest.approx(expect, abs=1e-10)


def test_marginals_extreme_eta_match_high_precision_enumeration():
    # 80-digit decimal enumeration of all subset-experts; the weights of
    # files 2-4 underflow to 0 in double exp() even after the rescale
    from decimal import Decimal, getcontext
    from itertools import combinations as combos

    getcontext().prec = 80
    n, c, eta = 5, 2, 5.0
    counts = [3000, 2990, 1500, 40, 0]
    best = counts[0] + counts[1]
    total = Decimal(0)
    acc = [Decimal(0)] * n
    for subset in combos(range(n), c):
        mass = (Decimal(eta) * (sum(counts[i] for i in subset) - best)).exp()
        total += mass
        for i in subset:
            acc[i] += mass
    expect = [float(a / total) for a in acc]
    state = SageState(n, c, eta=eta)
    state.counts = counts
    state.count_max = max(counts)
    got = state.marginals()
    assert got == pytest.approx(expect, abs=1e-12)


def test_update_raises_marginal_of_updated_file():
    st_ = SageState(5, 2, eta=0.8)
    for x in (0, 1, 1, 3):
        st_.update(x)
    before = st_.marginals()[3]
    st_.update(3)
    assert st_.marginals()[3] > before


def test_marginals_shift_invariance():
    a = SageState(4, 2, eta=0.6)
    b = SageState(4, 2, eta=0.6)
    a.counts, a.count_max = [3, 1, 0, 2], 3
    b.counts, b.count_max = [13, 11, 10, 12], 13
    assert a.marginals() == pytest.approx(b.marginals(), abs=1e-12)


def test_marginals_permutation_invariance():
    perm = [2, 0, 3, 1]
    counts = [5, 1, 4, 2]
    a = SageState(4, 2, eta=0.4)
    a.counts, a.count_max = counts, max(counts)
    b = SageState(4, 2, eta=0.4)
    b.counts = [counts[perm[i]] for i in range(4)]
    b.count_max = max(counts)
    pa, pb = a.marginals(), b.marginals()
    assert pb == pytest.approx([pa[perm[i]] for i in range(4)], abs=1e-12)


def _zipf_counts(n, rounds, seed):
    """Expected counts of `rounds` Zipf(1.5) requests, ranks shuffled over the files."""
    rng = SplitMix64(seed)
    rank = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.next_below(i + 1)
        rank[i], rank[j] = rank[j], rank[i]
    h = sum((r + 1) ** -1.5 for r in range(n))
    return [int(rounds * (rank[i] + 1) ** -1.5 / h) for i in range(n)]


def _nats_to_pair(nats):
    """exp(nats) as (mantissa in [0.5, 1), base-2 exponent), never underflowing."""
    log2 = nats / math.log(2.0)
    e = math.floor(log2)
    m, shift = math.frexp(2.0 ** (log2 - e))
    return m, e + shift


def _exact_marginals(pairs, c):
    """Reference in exact integer arithmetic: every double is an integer times
    a power of two, so after one common rescale the weights are integers and
    the forward DP plus the deletion recurrence f_k = e_k - w_i f_{k-1} are
    exact; any cancellation costs nothing. Only the final quotient rounds."""
    ints = [(int(m * 2.0 ** 53), e - 53) for m, e in pairs]
    lo = min(e for _, e in ints)
    w = [(mant, e - lo) for mant, e in ints]  # weight = mant << shift
    esp = [1] + [0] * c
    for mant, shift in w:
        for k in range(c, 0, -1):
            esp[k] += (esp[k - 1] * mant) << shift
    out = []
    for mant, shift in w:
        f = 1
        for k in range(1, c):
            f = esp[k] - ((f * mant) << shift)
        out.append(((f * mant) << shift) / esp[c])
    return out


def _side(counts, c):
    """The counts and order the evaluator runs at: negated past C = N/2."""
    n = len(counts)
    return (counts, c) if 2 * c <= n else ([-x for x in counts], n - c)


def _exact_hedge(counts, eta, c):
    """Exact marginals of the weights exp(eta * count), as doubles, at cache
    size c. Past C = N/2 the integer DP runs on the complement, p = 1 - q
    with q of the weights exp(-eta * count) at order N - C: an identity (see
    `test_complement_duality`) that keeps the DP at order min(C, N - C)."""
    s, order = _side(counts, c)
    top = max(s)
    q = _exact_marginals([_nats_to_pair(eta * (x - top)) for x in s], order)
    return q if order == c else [1.0 - v for v in q]


def _no_fallback(log_weights, order):
    raise AssertionError("the decimal tables ran")


@pytest.mark.parametrize("n,c,rounds", [(64, 6, 1_400), (300, 20, 6_000), (1000, 50, 20_000),
                                        (1000, 950, 20_000)])
def test_scaled_marginals_match_exact_reference(n, c, rounds, monkeypatch):
    # Zipf counts at eta 0.3 put e_C of the max-normalised weights far below
    # the double range. The decimal tables hold 1e-12 on them; the evaluator
    # rescales and peels, stays in plain doubles and holds 1e-12 too.
    eta = 0.3
    counts = _zipf_counts(n, rounds, seed=0)
    expect = _exact_hedge(counts, eta, c)
    s, order = _side(counts, c)
    top = max(s)
    q = sage_mod._marginals_wide([eta * (x - top) for x in s], order)
    assert _max_error(q if order == c else [1.0 - v for v in q], expect) <= 1e-12
    state = SageState(n, c, eta=eta)
    state.counts, state.count_max = counts, max(counts)
    monkeypatch.setattr(sage_mod, "_marginals_wide", _no_fallback)
    assert _max_error(state.marginals(), expect) <= 1e-12


@pytest.mark.parametrize("n,c,rounds,eta", [(64, 6, 1_400, 0.05), (300, 20, 6_000, 0.004),
                                             (1000, 50, 20_000, 0.002),
                                             (1000, 950, 20_000, 0.002),
                                             (10_000, 100, 200_000, 0.002),
                                             (10_000, 9_900, 200_000, 0.002)])
def test_plain_marginals_match_exact_reference(n, c, rounds, eta):
    # Milder eta keeps the plain tables in range with no peel. They run at
    # order min(C, N - C), with weights around the mean of the top counts of
    # that side: at C = 950 order 950 itself would pass 2**900 even for equal
    # weights, since (1000 choose 500) ~ 2**1000.
    counts = _zipf_counts(n, rounds, seed=0)
    expect = _exact_hedge(counts, eta, c)
    s, order = _side(counts, c)
    ref = sum(sorted(s)[n - order:]) / order
    w = [math.exp(eta * (x - ref)) for x in s]
    e, loo = sage_mod._esp_loo(w, order)
    q = [wi * f / e for wi, f in zip(w, loo)]
    assert _max_error(q if order == c else [1.0 - v for v in q], expect) <= 1e-12
    state = SageState(n, c, eta=eta)
    state.counts, state.count_max = counts, max(counts)
    assert _max_error(state.marginals(), expect) <= 1e-12


def test_zipf_trajectory_matches_exact_reference(monkeypatch):
    # Every round of the skewed golden replay (N=64, C=6, eta 0.3): the
    # counts spread until the top file is peeled, all in plain doubles.
    trace = zipf_trace(64, 1.5, 1_400, seed=0)
    state = SageState(64, 6, eta=0.3)
    monkeypatch.setattr(sage_mod, "_marginals_wide", _no_fallback)
    worst = 0.0
    for x in trace.requests:
        worst = max(worst, _max_error(state.marginals(), _exact_hedge(state.counts, 0.3, 6)))
        state.update(x)
    assert worst <= 1e-12


def test_split_top_group_takes_the_decimal_tables(monkeypatch):
    # 30 files at count 44 and 90 at 0, C=60: the top 60 are 30 weights
    # e**22 and 30 weights e**-22 around their mean, so e_30 ~ e**660 passes
    # 2**900, and 44 counts are too few to peel (ln 60 + 42 nats). Only the
    # decimal tables can answer. At N=119 the complement side, order 59,
    # meets the same split group.
    calls = []
    wide = sage_mod._marginals_wide
    monkeypatch.setattr(sage_mod, "_marginals_wide",
                        lambda log_weights, order: calls.append(order) or wide(log_weights, order))
    for n, c, counts, order in (
            (120, 60, [44] * 30 + [0] * 90, 60),
            (119, 60, [0] * 30 + [44] * 30 + [200] * 59, 59)):
        calls.clear()
        state = SageState(n, c, eta=1.0)
        state.counts, state.count_max = counts, max(counts)
        p = state.marginals()
        assert calls == [order]
        assert _max_error(p, _exact_hedge(counts, 1.0, c)) <= 1e-12


def test_split_marginals_ignore_the_callers_decimal_context():
    # The decimal tables build their own context: a caller's low precision
    # and traps change neither the result nor the caller's context.
    import decimal

    state = SageState(120, 60, eta=1.0)
    state.counts, state.count_max = [44] * 30 + [0] * 90, 44
    expect = state.marginals()
    with decimal.localcontext() as ctx:
        ctx.prec = 3
        ctx.traps[decimal.Inexact] = True
        before = repr(decimal.getcontext())
        assert state.marginals() == expect
        assert repr(decimal.getcontext()) == before


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=9),
       st.integers(min_value=0, max_value=400), st.floats(min_value=1e-3, max_value=2.0))
@settings(max_examples=80, deadline=None)
def test_complement_duality(n, c, count_seed, eta):
    # p(C, w) = 1 - p(N - C, 1/w), on both sides of C = N/2
    if c >= n:
        return
    rng = SplitMix64(count_seed)
    counts = [rng.next_below(21) for _ in range(n)]
    state = SageState(n, c, eta=eta)
    state.counts, state.count_max = counts, max(counts)
    got = state.marginals()
    assert _max_error(got, hedge_bruteforce_marginals(counts, eta, n, c)) <= 1e-10
    dual = hedge_bruteforce_marginals([-x for x in counts], eta, n, n - c)
    assert _max_error(got, [1.0 - q for q in dual]) <= 1e-10


def _outcome(f, *args):
    """f's result, or the type of what it raised."""
    try:
        return f(*args)
    except (DomainError, NumericError) as exc:
        return type(exc)


def _hex(p):
    return [v.hex() for v in p] if isinstance(p, list) else p


def _lane_table(counts, eta, c, shared):
    """The running sums a lane of `_play_round` walks, or the error type."""
    seen = []

    def walk(cum, size, u, x):
        seen.append((cum, size))
        return 1

    policy = mock.Mock(cache_size=c, mark0=1, etas=[eta])  # no misses: the lane plays etas[0]
    with mock.patch.object(sage_mod, "_madow_walk", walk):
        raised = _outcome(sage_mod._play_round, policy, (lambda: 0.5,), (list(counts), [0]), 0,
                          bytearray(), shared)
    return (_hex(seen[0][0]), seen[0][1]) if seen else raised


@st.composite
def _order_one_cases(draw):
    # N=2 is order 1 on both sides; C = 1 and C = N - 1 are order 1 at every
    # N. Counts cluster below 1e6 or spread over it, with one file up to
    # 5,000 ahead so that the peel fires.
    n = draw(st.one_of(st.just(2), st.integers(min_value=2, max_value=64)))
    c = draw(st.one_of(st.just(1), st.just(n - 1), st.integers(min_value=1, max_value=n)))
    base = draw(st.integers(min_value=0, max_value=10**6 - 5_050))
    counts = draw(st.one_of(
        st.lists(st.integers(min_value=0, max_value=50), min_size=n, max_size=n).map(
            lambda spread: [base + d for d in spread]),
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=n, max_size=n)))
    lead = draw(st.integers(min_value=0, max_value=5_000))
    k = draw(st.integers(min_value=0, max_value=n - 1))
    counts[k] = min(counts[k] + lead, 10**6)
    eta = draw(st.floats(min_value=1e-6, max_value=5.0))
    return counts, c, eta


def _order_one_reference(counts, side):
    """`_hedge_marginals` at order 1: the peel, else the general `_esp_loo`
    tables."""
    ranked = sorted(counts, reverse=side > 0)
    cut = math.log(len(counts) - 1) + sage_mod._PEEL_NATS
    if side * (ranked[0] - ranked[1]) > cut:  # the top file alone is peeled
        q = [1.0 if side * (x - ranked[1]) > cut else 0.0 for x in counts]
    else:
        ref = sum(ranked[:1]) / 1
        w = [math.exp(side * (x - ref)) for x in counts]
        e, loo = sage_mod._esp_loo(w, 1)
        q = [wi * f / e for wi, f in zip(w, loo)]
    return q if side > 0 else [1.0 - v for v in q]


@given(_order_one_cases())
@settings(max_examples=300, deadline=None)
def test_order_one_marginals_and_lane_tables_are_bit_identical(case):
    # `_hedge_marginals` computes order 1 without the ESP tables and the
    # lanes take a bare running sum; both must be the general path's floats
    # to the bit.
    counts, c, eta = case
    n = len(counts)
    side, order = (-eta, n - c) if 2 * c > n else (eta, c)
    if order == 1:
        got = _outcome(sage_mod._marginals, counts, eta, c)
        expect = _outcome(sage_mod._finish_marginals, _order_one_reference(counts, side), c)
        assert _hex(got) == _hex(expect)
    table = _outcome(lambda: madow_table(sage_mod._marginals(counts, eta, c)))
    reference = table if isinstance(table, type) else (_hex(table[0]), table[1])
    assert _lane_table(counts, eta, c, None) == reference
    assert _lane_table(counts, eta, c, {}) == reference


def test_sage_update_validates():
    # requests reach SageState.update only from a RequestTrace, which
    # checks their range
    with pytest.raises(DomainError):
        RequestTrace(3, [1, 3])
    st_ = SageState(3, 1, eta=1.0)
    st_.update(1)
    assert st_.counts == [0, 1, 0] and st_.count_max == 1
    for _ in range(4):
        st_.update(0)
    assert st_.counts == [4, 1, 0] and st_.count_max == 4


# ---------------------------------------------------------------------------
# Madow sampling


def test_madow_certain_inclusion():
    assert madow_members([1.0, 1.0], 0.37) == [0, 1]


def test_madow_cumulative_walk_example():
    assert madow_members([0.5, 0.5, 0.5, 0.5], 0.25) == [0, 2]


def test_madow_always_c_distinct():
    rng = SplitMix64(5)
    p = [0.9, 0.6, 0.5, 0.7, 0.3]  # sums to 3
    for _ in range(300):
        s = madow_members(p, rng.next_float())
        assert len(s) == 3 and len(set(s)) == 3


def test_madow_zero_probability_never_selected():
    rng = SplitMix64(9)
    p = [0.5, 0.0, 0.5, 0.0, 1.0]
    for _ in range(200):
        assert not {1, 3} & set(madow_members(p, rng.next_float()))


def _interval_measure(p):
    """Length of the u-set selecting each element, from the cumulative sums."""
    cum = [0.0]
    for v in p:
        cum.append(cum[-1] + v)
    c = round(cum[-1])
    out = []
    for j in range(len(p)):
        total = 0.0
        for i in range(c):
            lo = max(cum[j] - i, 0.0)
            hi = min(cum[j + 1] - i, 1.0)
            if hi > lo:
                total += hi - lo
        out.append(total)
    return out


def test_madow_inclusion_measure_matches_p():
    rng = SplitMix64(11)
    for _ in range(50):
        n = 3 + rng.next_below(5)
        c = 1 + rng.next_below(n - 1)
        raw = [rng.next_float() for _ in range(n)]
        scale = c / sum(raw)
        p = [min(1.0, v * scale) for v in raw]
        # rescale the non-saturated entries until the sum is exactly c
        for _ in range(60):
            free = [i for i, v in enumerate(p) if v < 1.0]
            gap = c - math.fsum(p)
            if abs(gap) < 1e-12 or not free:
                break
            add = gap / len(free)
            for i in free:
                p[i] = min(1.0, p[i] + add)
        if abs(math.fsum(p) - c) > 1e-10:
            continue
        measured = _interval_measure(p)
        assert measured == pytest.approx(p, abs=1e-9)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=12),
       st.integers(min_value=1, max_value=4),
       st.floats(min_value=0.0, max_value=0.999999))
@settings(max_examples=120)
def test_madow_property_exactly_c_distinct(raw, c, u):
    total = sum(raw)
    if total <= 0 or c > len(raw):
        return
    p = [v * c / total for v in raw]
    if max(p) > 1.0:  # saturation would change the target sum; skip
        return
    gap = c - math.fsum(p)
    spread = [i for i, v in enumerate(p) if v < 0.9]
    if abs(gap) > 1e-9:
        if not spread or abs(gap) / len(spread) > 0.09:
            return
        for i in spread:
            p[i] += gap / len(spread)
    if abs(math.fsum(p) - c) > 1e-9:
        return
    sample = madow_members(p, u)
    assert len(sample) == c
    assert len(set(sample)) == c
    assert all(p[j] > 0 for j in sample)


def test_single_file_library():
    st_ = SageState(1, 1, eta=1.0)
    assert st_.marginals() == [1.0]
    assert madow_members([1.0], 0.5) == [0]


def test_madow_walk_compares_offsets_exactly():
    # u + 1 rounds to 2.0 at u = 1 - 2**-53; cum[j + 1] - 1 does not
    u = 1.0 - 2.0 ** -53
    assert madow_members([1.0, 1.0, 1.0], u) == [0, 1, 2]
    assert madow_members([1.0, 1.0, 0.0], u) == [0, 1]
    # cum[2] - 1 rounds above cum[1] = u: offset u + 1 would stop on index 1
    # again but for the walk's move past each index it selects
    cum, _ = madow_table([0.1, 1.0, 0.9])
    assert cum[2] - 1 > cum[1] == 0.1
    assert madow_members([0.1, 1.0, 0.9], 0.1) == [1, 2]


def test_madow_validates_inputs():
    with pytest.raises(DomainError):
        madow_members([0.5, 0.6], 0.1)  # sums to 1.1
    with pytest.raises(DomainError):
        madow_members([0.5, 0.5], 1.0)
    with pytest.raises(DomainError):
        madow_members([1.4, 0.6], 0.1)


@pytest.mark.parametrize("p,index", [
    ([math.nan, 1.0], 0),
    ([0.5, math.nan, 0.5], 1),
    ([0.5, 0.5, math.nan], 2),
])
def test_madow_rejects_a_nan_probability(p, index):
    # A NaN fails every comparison, so a range check written as two
    # rejections let it through, and the clamp then counted it as 1.
    with pytest.raises(DomainError, match=rf"p\[{index}\]=nan outside \[0, 1\]"):
        madow_members(p, 0.3)


# ---------------------------------------------------------------------------
# policy state and sampling


def test_eta_config_defaults():
    cfg = EtaConfig()
    assert cfg.mode == "doubling"
    expect = math.sqrt(2 * math.log(10 * math.e / 3) / 3)
    assert cfg.initial_eta(10, 3) == pytest.approx(expect)
    fixed = EtaConfig(mode="fixed", horizon=10_000)
    expect = math.sqrt(2 * math.log(10 * math.e / 3) / (3 * 10_000))
    assert fixed.initial_eta(10, 3) == pytest.approx(expect)
    assert EtaConfig(mode="fixed", eta=0.25).initial_eta(10, 3) == 0.25


def test_eta_config_validation():
    with pytest.raises(DomainError):
        EtaConfig(mode="bogus")
    with pytest.raises(DomainError):
        EtaConfig(eta=0.0)
    for eta in (math.inf, math.nan):
        with pytest.raises(DomainError):
            EtaConfig(eta=eta)
        with pytest.raises(DomainError):
            SageState(3, 2, eta=eta)
    with pytest.raises(DomainError):
        EtaConfig(horizon=0)


def _lane_eta(policy, misses: int) -> float:
    """The eta a policy plays at its current state after `misses` misses
    there: the eta its round hands the marginal evaluator."""
    played = []
    marginals = sage_mod._marginals

    def spy(counts, eta, cache_size):
        played.append(eta)
        return marginals(counts, eta, cache_size)

    with mock.patch.object(sage_mod, "_marginals", spy):
        policy.table[policy.machine.current] = ([0] * policy.n_files, [misses])
        policy.step(0)
    return played[0]


def test_doubling_shrinks_eta_on_miss_doublings():
    # N=4, C=1: the free-miss budget is ceil(ln(4e)) = 3
    policy = SagePolicy(4, 1, EtaConfig(mode="doubling", eta=1.0))
    assert [_lane_eta(policy, m) for m in (0, 1, 2)] == [1.0] * 3  # inside the free budget
    assert _lane_eta(policy, 3) == pytest.approx(2 ** -0.5)  # miss 3 crosses the first threshold
    for m in (4, 5):  # next threshold is 6
        assert _lane_eta(policy, m) == pytest.approx(2 ** -0.5)
    assert _lane_eta(policy, 6) == pytest.approx(2 ** -1.0)


def test_fixed_mode_keeps_eta():
    policy = SagePolicy(4, 1, EtaConfig(mode="fixed", eta=0.7))
    assert [_lane_eta(policy, m) for m in range(11)] == [0.7] * 11


@given(st.integers(min_value=1, max_value=40), st.data(),
       st.floats(min_value=1e-6, max_value=1e3), st.sampled_from(("fixed", "doubling")),
       st.integers(min_value=0, max_value=5_000))
@settings(max_examples=60, deadline=None)
def test_lane_eta_matches_the_miss_by_miss_schedule(n, data, eta, mode, misses):
    # Bit for bit, at a drawn miss count and on both sides of every shrink.
    c = data.draw(st.integers(min_value=1, max_value=n))
    policy = SagePolicy(n, c, EtaConfig(mode=mode, eta=eta))
    expect = eta_schedule_reference(n, c, eta, 5_000, mode)
    shrinks = [m for m in range(1, len(expect)) if expect[m] != expect[m - 1]]
    for m in [misses] + shrinks + [m - 1 for m in shrinks]:
        assert _lane_eta(policy, m) == expect[m]


@pytest.mark.parametrize("make", (SagePolicy, lambda n, c: MarkovSagePolicy(n, c, 2),
                                  LzSagePolicy), ids=("sage", "markov", "lz"))
@pytest.mark.parametrize("cache_size", (0, -1, 4))
def test_policies_check_the_cache_size_when_built(make, cache_size):
    # The check must come before the eta schedule, whose ln(N e / C) fails
    # with another error at C <= 0.
    with pytest.raises(DomainError, match="cache size"):
        make(3, cache_size)


def test_sage_predict_fresh_state_uniform_and_deterministic():
    st_ = SageState(6, 2, eta=0.5)
    assert st_.marginals() == pytest.approx([2 / 6] * 6, abs=1e-12)
    a = madow_members(st_.marginals(), SplitMix64(123).next_float())
    b = madow_members(st_.marginals(), SplitMix64(123).next_float())
    assert a == b and len(set(a)) == 2


def test_sage_policy_reproducible():
    from unicache import RequestTrace, replay

    trace = RequestTrace(4, [0, 1, 2, 3, 1, 1, 0, 2] * 30)
    r1 = replay(SagePolicy(4, 2, seed=99), trace)
    r2 = replay(SagePolicy(4, 2, seed=99), trace)
    assert r1.hits == r2.hits
    r3 = replay(SagePolicy(4, 2, seed=100), trace)
    assert r1.hits != r3.hits  # overwhelmingly likely for 240 draws


def test_bruteforce_hedge_edges():
    assert hedge_bruteforce_marginals([0, 0, 0], 1.0, 3, 2) == pytest.approx([2 / 3] * 3)
    assert hedge_bruteforce_marginals([4, 1], 0.7, 2, 2) == pytest.approx([1.0, 1.0])
    with pytest.raises(ValueError, match="capped at 1e6 subsets"):
        hedge_bruteforce_marginals([0] * 50, 1.0, 50, 25)
