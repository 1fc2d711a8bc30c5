"""The evaluators are cross-checked against a slow re-derivation in 50-digit
decimal arithmetic, built only from Decimal.ln/sqrt."""

import math
from decimal import Decimal, getcontext

import pytest

from unicache import (DomainError, fsm_regret_bound,
                      fsp_total_regret_bound, lz_regret_bound, markov_regret_bound,
                      markov_vs_fsp_gap, miss_fraction_bound, static_regret_bound)

getcontext().prec = 50

E = Decimal(1).exp()


def d_span(n, c):
    return (Decimal(n) * E / Decimal(c)).ln()


def d_gap(s, k, n, c):
    root = (Decimal(s).ln() / (2 * (Decimal(k) + 1))).sqrt()
    return min(1 - Decimal(c) / Decimal(n), root)


def d_static(l_star, n, c):
    span = d_span(n, c)
    return (2 * c * l_star * span).sqrt() + c * span


def d_fsm(s, l_star, n, c):
    span = d_span(n, c)
    return (2 * Decimal(c) * s * l_star * span).sqrt() + c * s * span


def d_missfrac(q, k, n, c, t):
    span = d_span(n, c)
    gap = d_gap(q, k, n, c)
    states = Decimal(n) ** k
    return (gap + (2 * states * c / Decimal(t) * span * gap).sqrt()
            + states * c / Decimal(t) * span)


def d_lz(k, c_t, l_star, n, c):
    span = d_span(n, c)
    delta = (2 * c_t * c * l_star * span).sqrt() + c * c_t * span
    return delta + k * c_t


CASES = [(s, k, n, c) for s in (1, 3, 50) for k in (0, 2, 7) for n, c in ((5, 2), (3, 2), (10, 1))]


@pytest.mark.parametrize("s,k,n,c", CASES)
def test_gap_matches_decimal(s, k, n, c):
    got = markov_vs_fsp_gap(s, k, n, c)
    assert got == pytest.approx(float(d_gap(s, k, n, c)), rel=1e-12, abs=1e-15)


def test_gap_edges():
    assert markov_vs_fsp_gap(1, 0, 5, 2) == 0.0  # ln 1 = 0
    assert markov_vs_fsp_gap(3, 10**6, 5, 2) < 1e-3
    # hand evaluation: min(0.6, sqrt(ln 3 / 16))
    assert markov_vs_fsp_gap(3, 7, 5, 2) == pytest.approx(math.sqrt(math.log(3) / 16))
    assert markov_vs_fsp_gap(10**9, 0, 10, 4) == 1 - 0.4  # capped by 1 - C/N


@pytest.mark.parametrize("l_star", [0, 1, 100, 5000])
def test_static_matches_decimal(l_star):
    got = static_regret_bound(l_star, 3, 2)
    assert got == pytest.approx(float(d_static(l_star, 3, 2)), rel=1e-12)


def test_static_edges():
    span = math.log(3 * math.e / 2)
    assert static_regret_bound(0, 3, 2) == pytest.approx(2 * span)
    values = [static_regret_bound(l, 3, 2) for l in range(0, 400, 25)]
    assert values == sorted(values)


def test_fsm_reduces_to_static_and_scales():
    assert fsm_regret_bound(1, 77, 6, 2) == static_regret_bound(77, 6, 2)
    span = math.log(6 * math.e / 2)
    one = fsm_regret_bound(1, 0, 6, 2)
    two = fsm_regret_bound(2, 0, 6, 2)
    assert two == pytest.approx(2 * one) and one == pytest.approx(2 * span)
    assert fsm_regret_bound(4, 50, 6, 2) >= static_regret_bound(50, 6, 2)
    got = fsm_regret_bound(7, 123, 6, 2)
    assert got == pytest.approx(float(d_fsm(7, 123, 6, 2)), rel=1e-12)


def test_markov_specializes_fsm():
    assert markov_regret_bound(0, 9, 4, 2) == fsm_regret_bound(1, 9, 4, 2)
    # N=3, k=2, zero loss: 9 * C * ln(Ne/C)
    assert markov_regret_bound(2, 0, 3, 2) == pytest.approx(18 * math.log(3 * math.e / 2))
    assert (markov_regret_bound(3, 0, 3, 2) / markov_regret_bound(2, 0, 3, 2)
            == pytest.approx(3.0))


def test_total_bound_composition():
    span = math.log(3 * math.e / 2)
    assert fsp_total_regret_bound(1, 0, 3, 2, 1000, 0) == pytest.approx(2 * span)
    # the benchmark-gap term plus the per-context term, evaluated by hand
    got = fsp_total_regret_bound(50, 6, 3, 2, 10**7, 0)
    expect = 10**7 * min(1 / 3, math.sqrt(math.log(50) / 14)) + 3**6 * 2 * span
    assert got == pytest.approx(expect, rel=1e-12)


def test_total_bound_has_interior_minimum_over_k():
    # with C/N small the benchmark-gap term is active and shrinks with k
    # until the N^k term takes over
    values = [fsp_total_regret_bound(50, k, 10, 1, 10**7, 0) for k in range(9)]
    best = values.index(min(values))
    assert 0 < best < 8
    assert all(values[i] >= values[best] for i in range(9))
    # with C/N large the cap 1 - C/N freezes the gap and the sweep is
    # nondecreasing from k = 0
    frozen = [fsp_total_regret_bound(50, k, 3, 2, 10**5, 0) for k in range(9)]
    assert frozen == sorted(frozen)


@pytest.mark.parametrize("q,k", [(1, 0), (1, 3), (50, 0), (50, 6), (20, 9)])
def test_missfrac_matches_decimal(q, k):
    got = miss_fraction_bound(q, k, 3, 2, 10**5)
    assert got == pytest.approx(float(d_missfrac(q, k, 3, 2, 10**5)), rel=1e-12)


def test_missfrac_single_state_leaves_only_tail_term():
    span = math.log(3 * math.e / 2)
    for k in (0, 2, 5):
        got = miss_fraction_bound(1, k, 3, 2, 10**4)
        assert got == pytest.approx(3**k * 2 / 10**4 * span, rel=1e-12)


def test_missfrac_sweep_minimum_is_interior():
    values = [miss_fraction_bound(50, k, 10, 1, 10**7) for k in range(9)]
    best = values.index(min(values))
    assert 0 < best < 8


def test_lz_bound_cases():
    span = math.log(3 * math.e / 2)
    assert lz_regret_bound(0, 500, 0, 3, 2) == pytest.approx(2 * 500 * span)
    assert lz_regret_bound(0, 1000, 0, 3, 2) > 2 * lz_regret_bound(0, 500, 0, 3, 2) - 1e-9
    assert lz_regret_bound(1, 1000, 400, 3, 2) > lz_regret_bound(0, 1000, 400, 3, 2)
    got = lz_regret_bound(2, 1000, 500, 3, 2)
    assert got == pytest.approx(float(d_lz(2, 1000, 500, 3, 2)), rel=1e-12)


def test_growth_in_tree_size():
    # zero comparator loss: the bound is linear in the node count
    assert (lz_regret_bound(2, 1400, 0, 4, 2)
            == pytest.approx(2 * lz_regret_bound(2, 700, 0, 4, 2), rel=1e-12))
    values = [lz_regret_bound(1, b, 300, 4, 2) for b in range(100, 2000, 100)]
    assert values == sorted(values)


def test_validation():
    with pytest.raises(DomainError):
        markov_vs_fsp_gap(0, 1, 3, 2)
    with pytest.raises(DomainError):
        static_regret_bound(-1, 3, 2)
    with pytest.raises(DomainError):
        static_regret_bound(5, 2, 3)
    with pytest.raises(DomainError):
        miss_fraction_bound(5, 1, 3, 2, 0)
    with pytest.raises(DomainError):
        lz_regret_bound(-1, 10, 0, 3, 2)


def test_state_counts_past_the_double_range_give_inf():
    # 1e4^80 contexts cannot be held in a double; neither can the bounds
    assert markov_regret_bound(80, 0, 10_000, 10) == math.inf
    assert markov_regret_bound(80, 500, 10_000, 10) == math.inf
    assert fsm_regret_bound(10_000**80, 0, 10_000, 10) == math.inf
    assert miss_fraction_bound(50, 80, 10_000, 10, 1000) == math.inf
    assert fsp_total_regret_bound(50, 80, 10_000, 10, 1000, 0) == math.inf
    # 1e4^77 contexts still fit: the miss-fraction bound stays finite
    assert math.isfinite(miss_fraction_bound(50, 77, 10_000, 10, 1000))
    # a zero comparator loss or a zero gap contributes no square-root term
    assert markov_regret_bound(2, 0, 3, 3) == 9 * 3 * math.log(math.e)
    assert miss_fraction_bound(1, 2, 3, 2, 100) == 9 * 2 / 100 * math.log(3 * math.e / 2)
