"""Golden digests: hit sequences and CSVs pinned bit-for-bit.

A change that moves any float on a decision path shows up here as a changed
sha256. Speed-ups must keep these digests; a change that alters results on
purpose re-pins them once and says why.
"""

import hashlib

import pytest

from unicache import (CacheSet, EtaConfig, ExperimentConfig, LzSagePolicy,
                      MarkovSagePolicy, Prefetcher, RequestTrace, SagePolicy,
                      generate_trace, random_fsm, replay, run_experiment, save_fsm,
                      save_trace, to_csv)
from unicache import sage as sage_mod
from unicache.cli import main
from unicache.harness import parse_policy_spec
from util import parsed_tree, zipf_trace

ROUNDS = 20_000
SEEDS = (0, 1, 2)
README_POLICIES = ("sage", "markov:1", "markov:4", "lz", "lru", "fifo",
                   "static-oracle", "markov-oracle:4", "lz-oracle")

# README experiment shape: Q=50 states, N=3 files, C=2.
_STATES, _FILES, _CACHE, _TRACE_SEED = 50, 3, 2, 7

HIT_DIGESTS = {
    ("sage", "fixed"):
        "dc20d93118387b2e593f9f7d660faf71c7824c322998d00d2ebe699a7a414335",
    ("sage", "doubling"):
        "6fed3dac5550fb84769af5d20ffef6c7d5df64c532b48bf9d6c7b6e01b15fc8d",
    ("markov:1", "fixed"):
        "4003f12216960c5f16cc61f1bb06e3c199d3854733aa4a9a49aa63d6ae289168",
    ("markov:1", "doubling"):
        "f009e6a3c3d701570da2dff0a9eeb1df641935acaa1819e8abff06db5f799930",
    ("markov:4", "fixed"):
        "9b08b46c7280fd62e18b7606ebe968a3887c39088ddfdef95be0c7a40bfa55c1",
    ("markov:4", "doubling"):
        "8da0f088785b7751cc1766db5d9cae71c233fe00c670b482c63556cda2021e12",
    ("lz", "fixed"):
        "26fa9c4b183204920501679fcdc9f40c57757b7f7bb2c5e90a566b075749b78e",
    ("lz", "doubling"):
        "e8c33ab47e9199a01daec1dd0ddf8c962eb98c53e497ad4e311323a87ccc45c1",
}
README_CSV_DIGEST = "77fd25706d9e64cc7fadfef1492614134aab1788aa1df22de39b06e19e681509"
ZIPF_HIT_DIGEST = "c28b4ee2fcc31eb0f6184452f179aecf0c4ff755e572b58b8a045f6f4ef0db2e"
# 30 hot files of 120 requested in turn, C=60; the same digest as the
# evaluator that came before the rescaled tables and the peel.
SPLIT_HIT_DIGEST = "a39f04eed013dc722eb7d4859d6b8cde5ed3647015202fe381c19558b4afb9d8"

# Oracle-replay shape: Q=500 states, N=16 files, C=4; the fsp-oracle scores
# the generating machine, so it must hit every round.
ORACLE_HITS = {
    "static-oracle": 5484,
    "markov-oracle:2": 8829,
    "markov-oracle:4": 19990,
    "markov-oracle:6": 20000,
    "lz-oracle": 9457,
    "fsp-oracle": 20000,
}
ORACLE_LZ_NODES = 5812

# `unicache parse-stats --dump tree.txt`: sha256 of its stdout and of the
# dump, on the oracle trace above and on the README trace.
PARSE_STATS_DIGESTS = {
    "oracle": ("56eaf3ee50377402d9399900c3b364459e17e47476a9ccac823f123562b41505",
               "f4a03310d47256c9895e4d468ab4388c848fd667991448395757b789b5d7b014"),
    "readme": ("628a3c1f4e528ddba83119059299d2fdf7540e1d260fb19b3c2b7e8f69bcc7fa",
               "b8967c6ad678a80f10d607af55401c8e94c5cbd532b08ed354006f51b047e533"),
}


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _oracle_trace():
    spec, arrays = random_fsm(500, 16, 4, 11)
    return spec, arrays, generate_trace(spec, arrays, spec.initial_state, ROUNDS, 12)


@pytest.fixture(scope="module")
def readme_trace():
    spec, arrays = random_fsm(_STATES, _FILES, _CACHE, _TRACE_SEED)
    return generate_trace(spec, arrays, spec.initial_state, ROUNDS, _TRACE_SEED + 1)


def _policy(label: str, eta: EtaConfig, seed: int):
    if label == "sage":
        return SagePolicy(_FILES, _CACHE, eta, seed)
    if label == "lz":
        return LzSagePolicy(_FILES, _CACHE, eta, seed)
    return MarkovSagePolicy(_FILES, _CACHE, parse_policy_spec(label).order, eta, seed)


@pytest.mark.parametrize("label,mode", sorted(HIT_DIGESTS))
def test_hit_sequences_are_pinned(readme_trace, label, mode):
    eta = EtaConfig(mode=mode, horizon=ROUNDS if mode == "fixed" else None)
    got = _sha(replay(_policy(label, eta, seed), readme_trace).hits for seed in SEEDS)
    assert got == HIT_DIGESTS[(label, mode)]


def test_readme_csv_is_pinned(readme_trace):
    cfg = ExperimentConfig(cache_size=_CACHE,
                           policies=[parse_policy_spec(p) for p in README_POLICIES],
                           seeds=list(SEEDS))
    csv_text = to_csv(run_experiment(cfg, readme_trace))
    assert _sha([csv_text.encode("ascii")]) == README_CSV_DIGEST


def test_skewed_hit_sequence_is_pinned(monkeypatch):
    # Zipf counts spread far enough that max-normalised weights leave the
    # double range; the rescaled plain tables, with the top file peeled once
    # it is certain, decide every round.
    wide_calls = []
    wide = sage_mod._marginals_wide

    def counting(log_weights, order):
        wide_calls.append(1)
        return wide(log_weights, order)

    monkeypatch.setattr(sage_mod, "_marginals_wide", counting)
    trace = zipf_trace(64, 1.5, 1_400, seed=0)
    hits = replay(SagePolicy(64, 6, EtaConfig(mode="fixed", eta=0.3), seed=0), trace).hits
    assert not wide_calls
    assert _sha([hits]) == ZIPF_HIT_DIGEST
    # A top group of 60 split into two clusters 42-46 nats apart (too close
    # to peel) drives e_30 past 2**900: the decimal tables decide those rounds.
    trace = RequestTrace(120, [i % 30 for i in range(1_400)])
    hits = replay(SagePolicy(120, 60, EtaConfig(mode="fixed", eta=1.0), seed=0), trace).hits
    assert len(wide_calls) >= 100
    assert _sha([hits]) == SPLIT_HIT_DIGEST


def test_oracle_hits_are_pinned(tmp_path):
    spec, arrays, trace = _oracle_trace()
    save_fsm(spec, tmp_path / "gen.fsm",
             Prefetcher(caches=[CacheSet(frozenset(a), 16) for a in arrays]))
    labels = [label for label in ORACLE_HITS if label != "fsp-oracle"]
    policies = [parse_policy_spec(p) for p in labels + [f"fsp-oracle:{tmp_path / 'gen.fsm'}"]]
    rows = run_experiment(ExperimentConfig(cache_size=4, policies=policies, seeds=[0]), trace)
    assert [r.hits for r in rows] == [ORACLE_HITS[label] for label in labels + ["fsp-oracle"]]
    assert parsed_tree(trace).node_count == ORACLE_LZ_NODES


@pytest.mark.parametrize("name", sorted(PARSE_STATS_DIGESTS))
def test_parse_stats_output_is_pinned(readme_trace, name, tmp_path, monkeypatch, capsys):
    save_trace(_oracle_trace()[2] if name == "oracle" else readme_trace, tmp_path / "t.trace")
    monkeypatch.chdir(tmp_path)  # the stdout names the dump path
    assert main(["parse-stats", "--trace", "t.trace", "--dump", "tree.txt"]) == 0
    stdout = capsys.readouterr().out.encode("ascii")
    assert (_sha([stdout]), _sha([(tmp_path / "tree.txt").read_bytes()])) == \
        PARSE_STATS_DIGESTS[name]
