"""The benchmark's workloads and the input files each one is built from.

Every input is made from the workload seed with the library's own generators
(`SplitMix64`, `random_fsm`, `generate_trace`) and writers (`save_trace`,
`save_fsm`), so the same seed gives byte-identical inputs on every commit.
The program only ever sees the files written here: a config, plus a trace
and a machine file where the workload names them.

Why each workload exists:

readme-sweep
    The README experiment: a zero-miss FSM trace with Q=50, N=3, C=2, the
    full policy list and doubling eta, over several seeds. At N=3 nearly
    all time is per-step work in sage, core, markov, lz and harness, all on
    the plain-double marginal path. Seeds share their counts, so engines
    that run seeds in lockstep show here.
zipf-skew
    Zipf-skewed requests over 64 files with C=6 and a fixed eta. Once the
    counts spread far enough, the plain-double marginal evaluator gives up
    on every call and the O(N^2 C) scaled path runs. The trace is sized so
    that about an eighth of sage's steps fall past that point: the median
    decision latency measures the plain path and p99 the fallback.
oracle-replay
    A long zero-miss trace from a larger machine (Q=500, N=16, C=4), loaded
    from disk and scored by the offline oracles and the LRU/FIFO
    simulators only. Trace I/O and the counting passes of markov, lz and
    fsm do the work; they use the same context machinery as the online
    policies but count instead of learning.
"""

from __future__ import annotations

from pathlib import Path

from unicache.core import CacheSet, RequestTrace, SplitMix64, save_trace
from unicache.datagen import generate_trace, random_fsm
from unicache.fsm import Prefetcher, save_fsm

CONFIG = "run.ini"

_README_POLICIES = ("sage, markov:1, markov:4, lz, lru, fifo, "
                    "static-oracle, markov-oracle:4, lz-oracle")
_ORACLE_POLICIES = ("static-oracle, markov-oracle:2, markov-oracle:4, markov-oracle:6, "
                    "lz-oracle, fsp-oracle:oracle.fsm, lru, fifo")

# "full" is what the benchmark measures; "tiny" only exercises every code
# path quickly, for the self-test.
SIZES = {
    "readme-sweep": {
        "full": {"states": 50, "files": 3, "cache": 2, "rounds": 20_000, "seeds": "0:3"},
        "tiny": {"states": 50, "files": 3, "cache": 2, "rounds": 400, "seeds": "0:2"},
    },
    # Fixed eta makes the round where counts force the scaled path a function
    # of the counts alone; at N=64, C=6, exponent 1.5, eta 0.3 that round fell
    # between 1,213 and 1,224 on seeds 1-5, so 1,400 rounds put ~13% of the
    # steps past it.
    "zipf-skew": {
        "full": {"files": 64, "cache": 6, "exponent": 1.5, "block": 200, "eta": 0.3,
                 "rounds": 1_400, "seeds": "0:1"},
        "tiny": {"files": 16, "cache": 2, "exponent": 1.5, "block": 50, "eta": 0.3,
                 "rounds": 300, "seeds": "0:1"},
    },
    "oracle-replay": {
        "full": {"states": 500, "files": 16, "cache": 4, "rounds": 300_000, "seeds": "0:1"},
        "tiny": {"states": 50, "files": 8, "cache": 2, "rounds": 3_000, "seeds": "0:1"},
    },
}

NAMES = tuple(SIZES)


def prepare(name: str, seed: int, size: str, workdir: Path) -> str:
    """Write the config (and any trace and machine files) for one run into
    `workdir`; returns the config's file name."""
    p = SIZES[name][size]
    if name == "readme-sweep":
        trace_section = (f"states = {p['states']}\nfiles = {p['files']}\n"
                         f"rounds = {p['rounds']}\nseed = {seed}\n")
        run_section = (f"cache_size = {p['cache']}\npolicies = {_README_POLICIES}\n"
                       f"seeds = {p['seeds']}\neta_mode = doubling\n")
    elif name == "zipf-skew":
        trace = zipf_trace(p["files"], p["exponent"], p["rounds"], p["block"], seed)
        save_trace(trace, workdir / "zipf.trace")
        trace_section = "path = zipf.trace\n"
        run_section = (f"cache_size = {p['cache']}\npolicies = sage, static-oracle, lru\n"
                       f"seeds = {p['seeds']}\neta = {p['eta']}\neta_mode = fixed\n")
    elif name == "oracle-replay":
        # The same draws as `unicache gen --seed <seed>`.
        spec, arrays = random_fsm(p["states"], p["files"], p["cache"], seed)
        trace = generate_trace(spec, arrays, spec.initial_state, p["rounds"], seed + 1)
        prefetcher = Prefetcher(caches=[CacheSet(frozenset(a), p["files"]) for a in arrays])
        save_fsm(spec, workdir / "oracle.fsm", prefetcher)
        save_trace(trace, workdir / "oracle.trace")
        trace_section = "path = oracle.trace\n"
        run_section = (f"cache_size = {p['cache']}\npolicies = {_ORACLE_POLICIES}\n"
                       f"seeds = {p['seeds']}\neta_mode = doubling\n")
    else:
        raise ValueError(f"unknown workload {name!r}")
    (workdir / CONFIG).write_text(f"[trace]\n{trace_section}\n[run]\n{run_section}",
                                  encoding="ascii")
    return CONFIG


def _shuffle(items: list, rng: SplitMix64) -> None:
    for i in range(len(items) - 1, 0, -1):
        j = rng.next_below(i + 1)
        items[i], items[j] = items[j], items[i]


def zipf_trace(n_files: int, exponent: float, rounds: int, block: int, seed: int
               ) -> RequestTrace:
    """Zipf-skewed requests, in blocks that hold each rank's exact quota.

    Rank r gets the largest-remainder share of `block` requests in
    proportion to (r + 1) ** -exponent; ranks map to file ids by a seeded
    permutation and each block is shuffled by the seed. Exact quotas keep
    every running count within one block of its expected path. Independent
    draws would move the round where the scaled marginal path starts by
    hundreds of rounds between seeds, and with it most of the run time.
    """
    rng = SplitMix64(seed)
    mass = [(r + 1) ** -exponent for r in range(n_files)]
    total = sum(mass)
    exact = [block * m / total for m in mass]
    quota = [int(e) for e in exact]
    by_remainder = sorted(range(n_files), key=lambda r: quota[r] - exact[r])
    for r in by_remainder[:block - sum(quota)]:
        quota[r] += 1
    file_of_rank = list(range(n_files))
    _shuffle(file_of_rank, rng)
    requests: list[int] = []
    while len(requests) < rounds:
        chunk = [file_of_rank[r] for r in range(n_files) for _ in range(quota[r])]
        _shuffle(chunk, rng)
        requests.extend(chunk)
    return RequestTrace(n_files, requests[:rounds])
