"""The library surface the benchmark in `perfbench/` uses.

`perfbench/child.py` builds policies positionally and drives the harness;
`perfbench/tracer.py` wraps names where the harness looks them up and
methods on their classes, and skips a name that is gone, so its metric
reads 0; `perfbench/workloads.py` writes the inputs. A rename or deletion
here fails in seconds instead of in a benchmark run.
"""

from unicache import EtaConfig, harness
from unicache.core import CacheSet, RequestTrace, SplitMix64, save_trace
from unicache.datagen import generate_trace, random_fsm
from unicache.fsm import FifoPolicy, LruPolicy, Prefetcher, save_fsm
from unicache.lz import LzSagePolicy
from unicache.markov import MarkovSagePolicy
from unicache.sage import SagePolicy, SageState

# Names `perfbench/tracer.py` replaces in the harness module.
_HARNESS_WRAPPED = ("parse_config", "materialize_trace", "run_experiment", "to_csv",
                    "load_trace", "random_fsm", "generate_trace", "replay",
                    "offline_markov_hit_rate", "offline_lz_oracle", "offline_fsp_hits",
                    "load_fsm")


def test_policy_constructors_the_benchmark_calls():
    n, c, eta, seed = 3, 2, EtaConfig(mode="fixed", eta=0.3), 0
    policies = (SagePolicy(n, c, eta, seed), MarkovSagePolicy(n, c, 1, eta, seed),
                LzSagePolicy(n, c, eta, seed), LruPolicy(n, c), FifoPolicy(n, c))
    for policy in policies:
        assert [policy.step(x) in (0, 1) for x in (0, 1, 2, 2)] == [True] * 4
        assert isinstance(policy.name, str)


def test_names_the_tracer_wraps():
    for name in _HARNESS_WRAPPED:
        assert callable(getattr(harness, name, None)), name
    for method in ("weights", "marginals", "note_miss"):
        assert callable(getattr(SageState, method, None)), method


def _run(config):
    """The child's sequence: parse, materialize, run, render."""
    cfg = harness.parse_config(config)
    trace = harness.materialize_trace(cfg)
    rows = harness.run_experiment(cfg, trace)
    csv_text = harness.to_csv(rows)
    assert csv_text.startswith(harness.CSV_HEADER + "\n")
    assert [(r.policy, r.seed) for r in rows] == [
        (spec.label, seed) for spec in cfg.policies for seed in cfg.seeds]
    assert cfg.eta_config().mode in ("fixed", "doubling")
    return cfg, trace, rows


def test_harness_calls_the_benchmark_makes(tmp_path):
    # generated trace, as in readme-sweep
    gen = tmp_path / "gen.ini"
    gen.write_text("[trace]\nstates = 4\nfiles = 3\nrounds = 200\nseed = 0\n\n[run]\n"
                   "cache_size = 2\npolicies = sage, markov:1, lz, lru, fifo\n"
                   "seeds = 0:2\neta_mode = doubling\n")
    cfg, trace, _ = _run(gen)
    assert (len(trace), trace.n_files, cfg.cache_size) == (200, 3, 2)
    # trace and machine files written the way the workloads write them
    spec, arrays = random_fsm(4, 3, 2, 5)
    trace = generate_trace(spec, arrays, spec.initial_state, 200, 6)
    save_trace(trace, tmp_path / "t.trace")
    caches = [CacheSet(frozenset(a), 3) for a in arrays]
    save_fsm(spec, tmp_path / "m.fsm", Prefetcher(caches=caches))
    assert 0.0 <= SplitMix64(1).next_float() < 1.0
    loaded = tmp_path / "loaded.ini"
    loaded.write_text(f"[trace]\npath = {tmp_path / 't.trace'}\n\n[run]\ncache_size = 2\n"
                      "policies = lru, fifo, static-oracle, markov-oracle:1, lz-oracle, "
                      f"fsp-oracle:{tmp_path / 'm.fsm'}\nseeds = 0:1\neta = 0.3\n"
                      "eta_mode = fixed\n")
    _, read_back, rows = _run(loaded)
    assert isinstance(read_back, RequestTrace) and read_back.requests == trace.requests
    assert rows[-1].hits == 200  # the generating machine misses nothing
