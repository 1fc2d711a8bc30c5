"""Acceptance suite: one test per criterion, each printing a PASS line.

Every protocol is fully seeded (SplitMix64 everywhere), so all measured
numbers are bit-reproducible across runs and machines.
"""

import math
from collections import defaultdict
from itertools import combinations
from statistics import mean, stdev

import pytest

from unicache import (ExperimentConfig, FifoPolicy, FsmRunner, LruPolicy, LzSagePolicy,
                      MarkovSagePolicy, PolicySpec, RequestTrace, SagePolicy, SageState,
                      SplitMix64, generate_trace, lockstep_replay, lz_regret_bound,
                      madow_sample, markov_regret_bound, markov_vs_fsp_gap, miss_fraction_bound,
                      offline_fsp_hits, offline_lz_oracle, offline_markov_hit_rate, random_fsm,
                      replay, run_experiment, simulate_fsp, state_file_counts,
                      static_regret_bound)
from util import (fifo_rule, hedge_bruteforce_marginals, lru_rule, nonzero_counts,
                  parsed_tree, reference_parse, tree_phrases, tuple_fsp_reference,
                  worked_example)


def _announce(num, description):
    print(f"\nACCEPTANCE {num} PASS: {description}")


def _se(values):
    return stdev(values) / len(values) ** 0.5 if len(values) > 1 else 0.0


def test_acceptance_01_worked_example_exact():
    spec, trace, counts, prefetch = worked_example()
    assert state_file_counts(FsmRunner(spec), trace.requests, 5) == nonzero_counts(counts)
    best = offline_fsp_hits(spec, trace, 2)[1]
    assert [set(c.files) for c in best.caches] == prefetch
    hits, best2 = offline_fsp_hits(spec, trace, 2)
    assert hits == 11
    rec = simulate_fsp(spec, best2, trace)
    assert abs((1 - rec.cumulative_hits / rec.T) - 1 / 12) <= 1e-12
    _announce(1, "3-state worked example reproduced exactly (miss fraction 1/12)")


def test_acceptance_02_hedge_esp_equivalence():
    rng = SplitMix64(7001)
    worst = 0.0
    for _ in range(500):
        n = 2 + rng.next_below(7)            # N in [2, 8]
        c = 1 + rng.next_below(min(4, n))    # C in [1, min(4, N)]
        counts = [rng.next_below(21) for _ in range(n)]
        eta = 2.0 * (1.0 - rng.next_float())  # (0, 2]
        state = SageState(n, c, eta=eta)
        state.counts = counts
        state.count_max = max(counts)
        got = state.marginals()
        expect = hedge_bruteforce_marginals(counts, eta, n, c)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, expect)))
    assert worst <= 1e-10, worst
    _announce(2, f"ESP marginals match brute-force Hedge on 500 instances "
                 f"(worst abs error {worst:.2e} <= 1e-10)")


def _interval_measure(cum, c, j):
    total = 0.0
    for i in range(c):
        lo = max(cum[j] - i, 0.0)
        hi = min(cum[j + 1] - i, 1.0)
        if hi > lo:
            total += hi - lo
    return total


def _random_marginal_vector(rng):
    n = 3 + rng.next_below(8)
    c = 1 + rng.next_below(min(3, n - 1))
    p = [rng.next_float() for _ in range(n)]
    scale = c / sum(p)
    p = [min(1.0, v * scale) for v in p]
    for _ in range(80):
        gap = c - math.fsum(p)
        free = [i for i, v in enumerate(p) if v < 1.0]
        if abs(gap) < 1e-13 or not free:
            break
        add = gap / len(free)
        p = [min(1.0, v + add) if i in set(free) else v for i, v in enumerate(p)]
    return (p, c) if abs(math.fsum(p) - c) < 1e-11 else None


def test_acceptance_03_madow_exactness():
    rng = SplitMix64(8101)
    vectors = []
    while len(vectors) < 200:
        made = _random_marginal_vector(rng)
        if made is not None:
            vectors.append(made)
    worst = 0.0
    for p, c in vectors:
        cum = [0.0]
        for v in p:
            cum.append(cum[-1] + v)
        for j, pj in enumerate(p):
            worst = max(worst, abs(_interval_measure(cum, c, j) - pj))
    assert worst <= 1e-12, worst
    grid = 100_000
    worst_grid = 0.0
    for p, c in vectors[:10]:
        freq = [0] * len(p)
        for g in range(grid):
            for j in madow_sample(p, g / grid):
                freq[j] += 1
        worst_grid = max(worst_grid,
                         max(abs(f / grid - pj) for f, pj in zip(freq, p)))
    assert worst_grid <= 1e-4, worst_grid
    _announce(3, f"Madow inclusion measure exact on 200 vectors (err {worst:.2e}); "
                 f"1e5-point u-grid within {worst_grid:.2e} <= 1e-4 on 10 vectors")


def test_acceptance_04_offline_fsp_oracle_optimality():
    from unicache import FsmSpec

    rng = SplitMix64(8999)
    for inst in range(50):
        q = 1 + rng.next_below(4)
        n = 2 + rng.next_below(5)
        c = min(1 + rng.next_below(2), n)
        spec = FsmSpec(q, n, [[rng.next_below(q) for _ in range(n)] for _ in range(q)],
                       rng.next_below(q))
        t = 20 + rng.next_below(41)
        trace = RequestTrace(n, [rng.next_below(n) for _ in range(t)])
        got, _ = offline_fsp_hits(spec, trace, c)
        # independent oracle: replay once, then exhaust every per-state subset
        pairs = []
        s = spec.initial_state
        for x in trace.requests:
            pairs.append((s, x))
            s = spec.transitions[s][x]
        best_total = 0
        for state in range(q):
            reqs = [x for (s_, x) in pairs if s_ == state]
            best_total += max(sum(1 for x in reqs if x in subset)
                              for subset in combinations(range(n), c))
        assert got == best_total, (inst, got, best_total)
    _announce(4, "offline prefetcher oracle equals exhaustive per-state maximum "
                 "on 50 instances")


def test_acceptance_05_markov_vs_fsp_gap_inequality():
    horizon = 10_000
    rng = SplitMix64(2024)
    worst_slack = 1.0
    for inst in range(100):
        q = 2 + rng.next_below(19)
        n = 3 + rng.next_below(6)
        c = 1 + rng.next_below(min(3, n - 1))
        spec, arrays = random_fsm(q, n, c, seed=3000 + inst)
        if inst % 2 == 0:
            trace = generate_trace(spec, arrays, spec.initial_state, horizon,
                                   seed=4000 + inst)
        else:
            trace = RequestTrace(n, [rng.next_below(n) for _ in range(horizon)])
        pi_s = offline_fsp_hits(spec, trace, c)[0] / horizon
        for k in range(7):
            mu_k = offline_markov_hit_rate(trace, k, c)[0]
            slack = markov_vs_fsp_gap(q, k, n, c) + 1e-9 - (pi_s - mu_k)
            worst_slack = min(worst_slack, slack)
            assert slack >= 0.0, (inst, k, slack)
    _announce(5, f"machine-vs-context oracle gap within bound on 100 instances, "
                 f"k=0..6 (worst slack {worst_slack:.4f})")


def _criterion6_traces(horizon):
    n = 10
    rng = SplitMix64(1001)
    uniform = [rng.next_below(n) for _ in range(horizon)]
    weights = [1 / (i + 1) for i in range(n)]
    total = sum(weights)
    cum = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cum.append(acc)
    rng2 = SplitMix64(1002)
    zipf = []
    for _ in range(horizon):
        u = rng2.next_float()
        zipf.append(next((i for i, cv in enumerate(cum) if u < cv), n - 1))
    half = horizon // 2
    return {
        "iid-uniform": uniform,
        "iid-zipf": zipf,
        "constant": [0] * horizon,
        "periodic": [t % 3 for t in range(horizon)],
        "round-robin": [t % n for t in range(horizon)],
        "two-phase": [t % 3 for t in range(half)] + [3 + t % 3 for t in range(horizon - half)],
    }


def test_acceptance_06_small_loss_regret():
    n, c = 10, 3
    seeds = range(20)
    floor = c * math.log(n * math.e / c)
    ratios = {}
    report = []
    for name, requests in _criterion6_traces(10_000).items():
        means = {}
        for horizon in (1_000, 10_000):
            trace = RequestTrace(n, requests[:horizon])
            static_hits = offline_markov_hit_rate(trace, 0, c)[1]
            bound = static_regret_bound(horizon - static_hits, n, c)
            records = lockstep_replay([SagePolicy(n, c, seed=s) for s in seeds], trace)
            regs = [static_hits - r.cumulative_hits for r in records]
            means[horizon] = mean(regs)
            assert means[horizon] <= bound, (name, horizon, means[horizon], bound)
        if name.startswith("iid"):
            # the two-horizon growth comparison is apples-to-apples only when
            # both horizons draw from the same distribution
            ratios[name] = means[10_000] / max(means[1_000], floor)
            assert ratios[name] < 10 / math.sqrt(10) * 1.5, (name, ratios[name])
        report.append(f"{name}:{means[10_000]:.1f}")
    _announce(6, "mean regret under the loss-dependent cap on all 6 traces at "
                 f"both horizons ({'; '.join(report)}); iid growth ratios "
                 + ", ".join(f"{k}={v:.2f}" for k, v in ratios.items()) + " < 4.74")


def test_acceptance_07_zero_miss_order_one_regret():
    n, c = 5, 1
    successor = [1, 3, 0, 4, 2]  # one 5-cycle

    def build(horizon):
        reqs = []
        s = 0
        for _ in range(horizon):
            s = successor[s]
            reqs.append(s)
        return RequestTrace(n, reqs)

    bound = markov_regret_bound(1, 0, n, c)
    by_horizon = {}
    for horizon in (10_000, 100_000):
        trace = build(horizon)
        rate, oracle_hits = offline_markov_hit_rate(trace, 1, c)
        assert oracle_hits == horizon  # zero-miss certificate for the oracle
        records = lockstep_replay([MarkovSagePolicy(n, c, 1, seed=s) for s in range(20)], trace)
        regs = [oracle_hits - r.cumulative_hits for r in records]
        by_horizon[horizon] = mean(regs)
        assert by_horizon[horizon] <= bound, (horizon, by_horizon[horizon], bound)
    assert by_horizon[100_000] <= 2 * max(by_horizon[10_000], 1.0)
    _announce(7, f"order-1 zero-miss regret {by_horizon[10_000]:.2f} <= bound "
                 f"{bound:.2f}, flat from T=1e4 to T=1e5 "
                 f"({by_horizon[100_000]:.2f})")


@pytest.fixture(scope="module")
def synthetic_sweep():
    """Q=50, N=3, C=2, T=1e5 trace; per-policy hit rates over 20 seeds. The
    eleven 20-seed sweeps are jobs of one `run_experiment`, spread over the
    CPUs."""
    spec, arrays = random_fsm(50, 3, 2, seed=7)
    trace = generate_trace(spec, arrays, spec.initial_state, 100_000, seed=8)
    policies = [PolicySpec("markov", k) for k in range(9)] + [PolicySpec("lz"),
                                                              PolicySpec("sage")]
    cfg = ExperimentConfig(cache_size=2, policies=policies, seeds=list(range(20)))
    rates = defaultdict(list)
    for row in run_experiment(cfg, trace):
        rates[row.policy].append(row.hit_rate)
    markov = {k: rates[f"markov:{k}"] for k in range(9)}
    return len(trace), markov, rates["lz"], rates["sage"]


def test_acceptance_08_synthetic_sweep_shape(synthetic_sweep):
    horizon, markov, lz, sage = synthetic_sweep
    m = {k: mean(v) for k, v in markov.items()}
    se = {k: _se(v) for k, v in markov.items()}
    # (a) nondecreasing, then a plateau at the top orders
    for k in range(8):
        tol = max(0.012, 3 * (se[k] + se[k + 1]))
        assert m[k + 1] >= m[k] - tol, (k, m[k], m[k + 1])
    plateau = [m[k] for k in (6, 7, 8)]
    assert max(plateau) - min(plateau) <= 0.03
    assert max(m.values()) >= m[0] + 0.05
    # (b) best context order and the parse-tree policy both clearly beat
    # the single-instance policy
    sage_mean, lz_mean = mean(sage), mean(lz)
    assert max(m.values()) >= sage_mean + 0.05
    assert lz_mean >= sage_mean + 0.05
    # (c) every measured rate sits above its miss-fraction floor
    for k in range(9):
        bound = miss_fraction_bound(50, k, 3, 2, horizon)
        assert m[k] >= 1 - bound - 3 * se[k], (k, m[k], 1 - bound)
    floor0 = 1 - miss_fraction_bound(50, 0, 3, 2, horizon)
    assert sage_mean >= floor0 - 3 * _se(sage)
    assert lz_mean >= floor0 - 3 * _se(lz)
    _announce(8, f"synthetic sweep shape holds: rates {m[0]:.3f}->{max(m.values()):.3f} "
                 f"over k=0..8, lz {lz_mean:.3f}, sage {sage_mean:.3f}, "
                 "all above miss-fraction floors")


def test_acceptance_09_parse_correctness_and_lz_regret():
    horizon = 10_000
    rng = SplitMix64(99)
    traces = []
    for i in range(100):
        n = (2, 3, 5)[i % 3]
        trace = RequestTrace(n, [rng.next_below(n) for _ in range(horizon)])
        traces.append(trace)
        assert tree_phrases(parsed_tree(trace)) == reference_parse(trace.requests), f"trace {i}"
    worst_margin = math.inf
    for trace in traces[:6]:
        n, c = trace.n_files, 1
        lz_misses = offline_lz_oracle(trace, c)[0]
        c_t = parsed_tree(trace).node_count
        policies = [LzSagePolicy(n, c, seed=s) for s in range(20)]
        hits = [r.cumulative_hits for r in lockstep_replay(policies, trace)]
        for policy in policies:
            assert policy.machine.node_count == c_t  # the policy walks the same parse
        mh, se = mean(hits), _se(hits)
        for k in (0, 1, 2):
            oracle_hits = offline_markov_hit_rate(trace, k, c)[1]
            lhs = oracle_hits - mh
            rhs = lz_regret_bound(k, c_t, lz_misses, n, c) + 3 * se
            worst_margin = min(worst_margin, rhs - lhs)
            assert lhs <= rhs, (n, k, lhs, rhs)
    _announce(9, "parse matches the reference parser on 100 traces; parse-tree "
                 f"regret bound holds for k=0..2 (min margin {worst_margin:.0f} hits)")


def test_acceptance_10_lru_fifo_equivalence():
    rng = SplitMix64(31337)
    for trial in range(100):
        n = 3 + rng.next_below(6)            # N in [3, 8]
        c = 1 + rng.next_below(min(3, n - 1))
        length = 150 + rng.next_below(100)
        trace = RequestTrace(n, [rng.next_below(n) for _ in range(length)])
        spec_l, pf_l = tuple_fsp_reference(n, c, lru_rule)
        assert simulate_fsp(spec_l, pf_l, trace).hits == \
            replay(LruPolicy(n, c), trace).hits, f"lru trial {trial}"
        spec_f, pf_f = tuple_fsp_reference(n, c, fifo_rule)
        assert simulate_fsp(spec_f, pf_f, trace).hits == \
            replay(FifoPolicy(n, c), trace).hits, f"fifo trial {trial}"
    _announce(10, "LRU and FIFO machine forms bit-identical to direct simulators "
                  "on 100 traces")
