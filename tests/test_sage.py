import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unicache import (DomainError, EtaConfig, NumericError, RequestTrace, SagePolicy,
                      SageState, ScaleGuardError, SplitMix64, hedge_bruteforce_marginals,
                      madow_sample)
from unicache import sage as sage_mod

# ---------------------------------------------------------------------------
# elementary symmetric polynomials, through both marginal paths
#
# p(i) = w(i) * e_{C-1}(w_{-i}) / e_C(w): the plain path evaluates the ESPs
# in doubles with a guarded deletion recurrence, the scaled path in
# mantissa/exponent prefix/suffix tables.


def _both_paths(weights, c):
    """Marginals of the given weights (max 1) from the plain and the scaled path."""
    fast = sage_mod._marginals_fast(list(weights), c)
    assert fast is not None
    return fast, sage_mod._marginals_scaled([math.frexp(w) for w in weights], c)


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
    # e_C past the double range either way: the plain path declines
    assert sage_mod._marginals_fast([1.0] * 5, 3) is not None
    assert sage_mod._marginals_fast([1e300] * 5, 3) is None  # ~ C(5,3) * 1e900
    assert sage_mod._marginals_fast([1e-100] * 5, 3) is None  # below the plain floor
    for w in (1e300, 1e-100):
        p = sage_mod._marginals_scaled([math.frexp(w)] * 5, 3)
        assert p == pytest.approx([0.6] * 5, abs=1e-15)
    # no order-C product is nonzero: marginals are undefined
    with pytest.raises(NumericError):
        sage_mod._marginals_scaled([(0.5, 1), (0.0, 0), (0.0, 0)], 2)
    with pytest.raises(DomainError):
        SageState(2, 3, eta=1.0)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=11))
def test_esp_of_ones_gives_binomials(n, order):
    if order >= n:
        return
    m, x, loo = sage_mod._esp_loo_scaled([math.frexp(1.0)] * n, order)
    assert [math.ldexp(a, b) for a, b in zip(m, x)] == [
        float(math.comb(n, k)) for k in range(order + 2)]
    assert [math.ldexp(a, b) for a, b in loo] == [float(math.comb(n - 1, order))] * n
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
    # smaller than the terms the deletion recurrence subtracts, so the plain
    # path must recompute file 0 (the recurrence alone is off by ~8e-3
    # there); the scaled tables never subtract.
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


def test_marginals_degenerate_counts_use_scaled_path():
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
    # 80-digit decimal enumeration of all subset-experts; exercises the
    # scaled mantissa/exponent path where double exp() underflows entirely
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


@pytest.mark.parametrize("n,c,rounds", [(64, 6, 1_400), (300, 20, 6_000), (1000, 50, 20_000)])
def test_scaled_marginals_match_exact_reference(n, c, rounds):
    # Zipf counts at eta 0.3 push e_C below the plain-double floor, so the
    # mantissa/exponent path is the one that runs.
    eta = 0.3
    counts = _zipf_counts(n, rounds, seed=0)
    cmax = max(counts)
    pairs = [_nats_to_pair(eta * (x - cmax)) for x in counts]
    assert sage_mod._marginals_fast([math.ldexp(m, e) for m, e in pairs], c) is None
    expect = _exact_marginals(pairs, c)
    assert max(abs(a - b) for a, b in zip(sage_mod._marginals_scaled(pairs, c), expect)) <= 1e-12
    state = SageState(n, c, eta=eta)
    state.counts, state.count_max = counts, cmax
    assert sage_mod._marginals_fast(state.weights(), c) is None
    assert max(abs(a - b) for a, b in zip(state.marginals(), expect)) <= 1e-12


@pytest.mark.parametrize("n,c,rounds,eta", [(64, 6, 1_400, 0.05), (300, 20, 6_000, 0.004),
                                             (1000, 50, 20_000, 0.002)])
def test_plain_marginals_match_exact_reference(n, c, rounds, eta):
    # Milder eta keeps e_C in double range, so the plain path answers; the
    # spread counts make the deletion recurrence cancel for a few files,
    # which it recomputes.
    counts = _zipf_counts(n, rounds, seed=0)
    cmax = max(counts)
    pairs = [_nats_to_pair(eta * (x - cmax)) for x in counts]
    expect = _exact_marginals(pairs, c)
    p = sage_mod._marginals_fast([math.ldexp(m, e) for m, e in pairs], c)
    assert p is not None
    assert _max_error(p, expect) <= 1e-12
    state = SageState(n, c, eta=eta)
    state.counts, state.count_max = counts, cmax
    assert _max_error(state.marginals(), expect) <= 1e-12


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
    assert madow_sample([1.0, 1.0], 0.37) == [0, 1]


def test_madow_cumulative_walk_example():
    assert madow_sample([0.5, 0.5, 0.5, 0.5], 0.25) == [0, 2]


def test_madow_always_c_distinct():
    rng = SplitMix64(5)
    p = [0.9, 0.6, 0.5, 0.7, 0.3]  # sums to 3
    for _ in range(300):
        s = madow_sample(p, rng.next_float())
        assert len(s) == 3 and len(set(s)) == 3


def test_madow_zero_probability_never_selected():
    rng = SplitMix64(9)
    p = [0.5, 0.0, 0.5, 0.0, 1.0]
    for _ in range(200):
        assert not {1, 3} & set(madow_sample(p, rng.next_float()))


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
    sample = madow_sample(p, u)
    assert len(sample) == c
    assert len(set(sample)) == c
    assert all(p[j] > 0 for j in sample)


def test_single_file_library():
    st_ = SageState(1, 1, eta=1.0)
    assert st_.marginals() == [1.0]
    assert madow_sample([1.0], 0.5) == [0]


def test_madow_validates_inputs():
    with pytest.raises(DomainError):
        madow_sample([0.5, 0.6], 0.1)  # sums to 1.1
    with pytest.raises(DomainError):
        madow_sample([0.5, 0.5], 1.0)
    with pytest.raises(DomainError):
        madow_sample([1.4, 0.6], 0.1)


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


def test_doubling_shrinks_eta_on_miss_doublings():
    # N=4, C=1: the free-miss budget is ceil(ln(4e)) = 3
    st_ = SageState(4, 1, eta=1.0, eta_mode="doubling")
    st_.note_miss()
    st_.note_miss()
    assert st_.eta == 1.0  # still inside the free budget
    st_.note_miss()  # miss 3 crosses the first threshold
    assert st_.eta == pytest.approx(2 ** -0.5)
    for _ in range(2):
        st_.note_miss()  # misses 4-5: next threshold is 6
    assert st_.eta == pytest.approx(2 ** -0.5)
    st_.note_miss()  # miss 6
    assert st_.eta == pytest.approx(2 ** -1.0)


def test_fixed_mode_keeps_eta():
    st_ = SageState(4, 1, eta=0.7, eta_mode="fixed")
    for _ in range(10):
        st_.note_miss()
    assert st_.eta == 0.7


def test_sage_predict_fresh_state_uniform_and_deterministic():
    st_ = SageState(6, 2, eta=0.5)
    assert st_.marginals() == pytest.approx([2 / 6] * 6, abs=1e-12)
    a = madow_sample(st_.marginals(), SplitMix64(123).next_float())
    b = madow_sample(st_.marginals(), SplitMix64(123).next_float())
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
    with pytest.raises(ScaleGuardError):
        hedge_bruteforce_marginals([0] * 50, 1.0, 50, 25)
