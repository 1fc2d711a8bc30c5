"""Config-driven experiment runs over traces: policies, oracles, CSV output.

Config files are INI-style UTF-8 text. A minimal example::

    [trace]
    states = 50
    files = 3
    rounds = 100000
    seed = 7

    [run]
    cache_size = 2
    policies = sage, markov:1, lz, static-oracle, markov-oracle:1
    seeds = 0:20
    out = results.csv

The [trace] section either names a trace file (``path = ...``) or a
generator (states/files/rounds/seed, optional set_size defaulting to the
cache size; the walk is seeded with ``seed + 1``). Policies:

    sage | markov:<k> | lz | lru | fifo
    static-oracle | markov-oracle:<k> | fsp-oracle:<path> | lz-oracle

Every policy is run once per seed; oracle and replacement policies are
deterministic, so their rows repeat across seeds (computed once). The
``regret_static`` column is filled when static-oracle is requested, and
``regret_markov_k`` when a markov-oracle is requested (against the largest
requested order). ``bound_value`` holds the matching evaluator: the static
regret cap for sage, the order-k cap for markov:k, and the parse-tree cap
at order 0 for lz.

Each distinct result is an independent job. A run with two jobs or more
spreads them over one process per CPU in its affinity mask (``taskset -c 0``
gives one process): `run_experiment` forks the helpers itself, which claim
the learning jobs first. Under ``eta_mode = fixed`` a learning policy runs
as one job per CPU, each over a range of its rounds. The CSV, and the
error a failing run raises, are those of a one-process run.
"""

from __future__ import annotations

import configparser
import marshal
import os
from collections import namedtuple
from collections.abc import Callable

from . import bounds
from .core import ConfigError, DataError, RequestTrace, load_trace, replay
from .datagen import generate_trace, random_fsm
from .fsm import FifoPolicy, LruPolicy, load_fsm, offline_fsp_hits
from .lz import LzSagePolicy, offline_lz_oracle
from .markov import MarkovSagePolicy, offline_markov_hit_rate
from .sage import EtaConfig, SagePolicy, lockstep_replay

CSV_HEADER = "policy,k,seed,T,N,C,hits,hit_rate,regret_static,regret_markov_k,bound_value"


class PolicySpec(namedtuple("PolicySpec", "kind order path", defaults=(None, None))):
    """One policy of a config; equal specs share a job."""

    __slots__ = ()

    @property
    def label(self) -> str:
        if self.kind == "markov":
            return f"markov:{self.order}"
        if self.kind == "markov-oracle":
            return f"markov-oracle:{self.order}"
        if self.kind == "fsp-oracle":
            return f"fsp-oracle:{self.path}"
        return self.kind


class ExperimentConfig:
    __slots__ = ("cache_size", "policies", "seeds", "trace_path", "gen_states", "gen_files",
                 "gen_set_size", "gen_rounds", "gen_seed", "eta", "eta_mode", "horizon_hint",
                 "out")

    def __init__(self, cache_size: int, policies: list[PolicySpec], seeds: list[int],
                 trace_path: str | None = None, gen_states: int | None = None,
                 gen_files: int | None = None, gen_set_size: int | None = None,
                 gen_rounds: int | None = None, gen_seed: int = 0, eta: float | None = None,
                 eta_mode: str = "doubling", horizon_hint: int | None = None,
                 out: str | None = None):
        self.cache_size, self.policies, self.seeds = cache_size, policies, seeds
        self.trace_path, self.gen_seed = trace_path, gen_seed
        self.gen_states, self.gen_files = gen_states, gen_files
        self.gen_set_size, self.gen_rounds = gen_set_size, gen_rounds
        self.eta, self.eta_mode, self.horizon_hint = eta, eta_mode, horizon_hint
        self.out = out

    def eta_config(self) -> EtaConfig:
        return EtaConfig(mode=self.eta_mode, eta=self.eta, horizon=self.horizon_hint)


class ResultRow:
    __slots__ = ("policy", "order", "seed", "T", "n_files", "cache_size", "hits", "hit_rate",
                 "regret_static", "regret_markov_k", "bound_value")

    def __init__(self, policy: str, order: int | None, seed: int | None, T: int, n_files: int,
                 cache_size: int, hits: int, hit_rate: float, regret_static: int | None = None,
                 regret_markov_k: int | None = None, bound_value: float | None = None):
        self.policy, self.order, self.seed, self.T = policy, order, seed, T
        self.n_files, self.cache_size = n_files, cache_size
        self.hits, self.hit_rate = hits, hit_rate
        self.regret_static, self.regret_markov_k = regret_static, regret_markov_k
        self.bound_value = bound_value


def parse_policy_spec(text: str) -> PolicySpec:
    text = text.strip()
    if text in ("sage", "lz", "lru", "fifo", "static-oracle", "lz-oracle"):
        return PolicySpec(kind=text)
    head, sep, arg = text.partition(":")
    if sep and head in ("markov", "markov-oracle"):
        try:
            k = int(arg)
        except ValueError:
            raise ConfigError(f"policy {text!r}: order must be an integer") from None
        if k < 0:
            raise ConfigError(f"policy {text!r}: order must be >= 0")
        return PolicySpec(kind=head, order=k)
    if sep and head == "fsp-oracle":
        if not arg:
            raise ConfigError(f"policy {text!r}: missing machine file path")
        return PolicySpec(kind=head, path=arg)
    raise ConfigError(f"unknown policy spec {text!r}")


def _parse_seeds(text: str) -> list[int]:
    text = text.strip()
    if ":" in text:
        base_s, _, count_s = text.partition(":")
        base, count = int(base_s), int(count_s)
        if count < 1:
            raise ConfigError(f"[run] seeds: count must be >= 1, got {count}")
        return list(range(base, base + count))
    return [int(v) for v in text.split(",") if v.strip()]


def parse_config(path) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"cannot read config file {path}")
        return _config_from(parser, path)
    except configparser.Error as exc:
        # Malformed syntax, repeated keys and bad %-interpolation.
        raise ConfigError(f"{path}: {exc}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None


def _config_from(parser: configparser.ConfigParser, path) -> ExperimentConfig:
    if "run" not in parser:
        raise ConfigError(f"{path}: missing [run] section")
    run = parser["run"]
    try:
        cache_size = run.getint("cache_size")
    except ValueError:
        raise ConfigError("[run] cache_size: not an integer") from None
    if cache_size is None or cache_size < 1:
        raise ConfigError("[run] cache_size: required positive integer")
    policies_raw = run.get("policies", "")
    if not policies_raw.strip():
        raise ConfigError("[run] policies: at least one policy is required")
    policies = [parse_policy_spec(p) for p in policies_raw.split(",") if p.strip()]
    try:
        seeds = _parse_seeds(run.get("seeds", "0"))
    except ValueError:
        raise ConfigError("[run] seeds: use 'base:count' or a comma list") from None
    if not seeds:
        raise ConfigError("[run] seeds: at least one seed is required")
    eta_raw = run.get("eta", "auto").strip()
    if eta_raw in ("", "auto"):
        eta = None
    else:
        try:
            eta = float(eta_raw)
        except ValueError:
            raise ConfigError("[run] eta: must be 'auto' or a float") from None
    eta_mode = run.get("eta_mode", "doubling").strip()
    if eta_mode not in ("fixed", "doubling"):
        raise ConfigError("[run] eta_mode: must be 'fixed' or 'doubling'")
    horizon_raw = run.get("horizon_hint", "").strip()
    try:
        horizon = int(horizon_raw) if horizon_raw else None
    except ValueError:
        raise ConfigError("[run] horizon_hint: not an integer") from None
    if horizon is not None and horizon < 1:
        raise ConfigError(f"[run] horizon_hint: must be a positive integer, got {horizon}")
    out = run.get("out", "").strip() or None

    cfg = ExperimentConfig(cache_size=cache_size, policies=policies, seeds=seeds,
                           eta=eta, eta_mode=eta_mode, horizon_hint=horizon, out=out)
    if "trace" not in parser:
        raise ConfigError(f"{path}: missing [trace] section")
    tr = parser["trace"]
    if tr.get("path", "").strip():
        cfg.trace_path = tr.get("path").strip()
    else:
        for key in ("states", "files", "rounds"):
            if not tr.get(key, "").strip():
                raise ConfigError(f"[trace] {key}: required when no trace path is given")
        try:
            cfg.gen_states = tr.getint("states")
            cfg.gen_files = tr.getint("files")
            cfg.gen_rounds = tr.getint("rounds")
            cfg.gen_seed = tr.getint("seed", 0)
            set_size_raw = tr.get("set_size", "").strip()
            cfg.gen_set_size = int(set_size_raw) if set_size_raw else None
        except ValueError:
            raise ConfigError("[trace]: states, files, rounds, seed and set_size must be "
                              "integers") from None
        for key in ("states", "files", "rounds"):
            value = getattr(cfg, f"gen_{key}")
            if value < 1:
                raise ConfigError(f"[trace] {key}: must be a positive integer, got {value}")
        files = cfg.gen_files
        if cfg.gen_set_size is None and cache_size > files:
            raise ConfigError(f"[run] cache_size {cache_size} exceeds [trace] files {files}")
        if cfg.gen_set_size is not None and not 1 <= cfg.gen_set_size <= files:
            raise ConfigError(f"[trace] set_size: must lie in [1, {files}], "
                              f"got {cfg.gen_set_size}")
    return cfg


def materialize_trace(cfg: ExperimentConfig) -> RequestTrace:
    if cfg.trace_path is not None:
        trace = load_trace(cfg.trace_path)
        if not trace.requests:
            raise DataError(f"{cfg.trace_path}: the trace holds no requests")
        return trace
    set_size = cfg.gen_set_size if cfg.gen_set_size is not None else cfg.cache_size
    spec, arrays = random_fsm(cfg.gen_states, cfg.gen_files, set_size, cfg.gen_seed)
    return generate_trace(spec, arrays, spec.initial_state, cfg.gen_rounds, cfg.gen_seed + 1)


# Job indices queue up as 2 bytes each in one pipe, which holds at least a
# page (4,096 bytes) without a reader; a longer table stays serial.
_MAX_QUEUED = 2048


def _learners(spec: PolicySpec, n: int, c: int, eta_cfg: EtaConfig, seeds: list[int]) -> list:
    if spec.kind == "sage":
        return [SagePolicy(n, c, eta_cfg, seed) for seed in seeds]
    if spec.kind == "markov":
        return [MarkovSagePolicy(n, c, spec.order, eta_cfg, seed) for seed in seeds]
    return [LzSagePolicy(n, c, eta_cfg, seed) for seed in seeds]


def run_experiment(cfg: ExperimentConfig, trace: RequestTrace | None = None) -> list[ResultRow]:
    """Run every (policy, seed) cell; deterministic given the config.

    Each distinct result is one job: the oracle pass of each markov order
    (order 0 is the static oracle), the lz oracle, the fsp oracle of each
    machine file, the LRU and FIFO replays, and one `lockstep_replay` of all
    seeds per learning spec (under fixed eta, one per CPU over a range of the
    rounds, summed per seed). `_run_jobs` spreads the jobs over the CPUs,
    learning jobs first; the rows are assembled afterwards in config order.
    """
    if trace is None:
        trace = materialize_trace(cfg)
    n, c, horizon = trace.n_files, cfg.cache_size, len(trace)
    if c > n:
        raise ConfigError(f"[run] cache_size {c} exceeds the library size {n}")
    eta_cfg, seeds, policies = cfg.eta_config(), cfg.seeds, cfg.policies
    kinds = {p.kind for p in policies}
    # Loaded up front, so a missing or malformed machine file fails before any job runs.
    machines = {p.path: load_fsm(p.path)[0] for p in policies if p.kind == "fsp-oracle"}

    # Job key -> job, in the order a serial run computes them. The keys are
    # the specs whose rows the results fill, and (spec, i) for range i of a
    # learning spec; static-oracle reads the order-0 markov oracle.
    static = PolicySpec("markov-oracle", 0)
    jobs: dict = {}
    orders = {p.order for p in policies if p.kind in ("markov", "markov-oracle")}
    if kinds & {"sage", "static-oracle"}:
        orders.add(0)
    for k in sorted(orders):
        jobs[PolicySpec("markov-oracle", k)] = lambda k=k: offline_markov_hit_rate(trace, k, c)[1]
    if kinds & {"lz", "lz-oracle"}:
        jobs[PolicySpec("lz-oracle")] = lambda: offline_lz_oracle(trace, c)
    rest = [spec for spec in dict.fromkeys(policies)
            if spec not in jobs and spec.kind not in ("static-oracle", "lz-oracle")]
    # Under fixed eta a learning spec's rounds are independent work: it runs
    # as one job per CPU over a range of rounds, if the claim pipe holds them.
    learning = sum(spec.kind in ("sage", "markov", "lz") for spec in rest)
    parts = _cpus() if eta_cfg.mode == "fixed" else 1
    if len(jobs) + len(rest) + learning * (parts - 1) > _MAX_QUEUED:
        parts = 1
    first = []  # the learning jobs, the long ones, which are claimed first
    for spec in rest:
        if spec.kind == "fsp-oracle":
            jobs[spec] = lambda m=machines[spec.path]: offline_fsp_hits(m, trace, c)[0]
        elif spec.kind in ("lru", "fifo"):
            cls = LruPolicy if spec.kind == "lru" else FifoPolicy
            jobs[spec] = lambda cls=cls: replay(cls(n, c), trace).cumulative_hits
        else:  # all seeds in lockstep, so that they share the machine walk
            for i in range(parts):
                first.append(len(jobs))
                jobs[spec, i] = lambda spec=spec, i=i: [
                    record.cumulative_hits for record in lockstep_replay(
                        _learners(spec, n, c, eta_cfg, seeds), trace,
                        horizon * i // parts, horizon * (i + 1) // parts)]
    results = dict(zip(jobs, _run_jobs(list(jobs.values()), first)))

    static_hits = results.get(static)
    regret_order = max((p.order for p in policies if p.kind == "markov-oracle"), default=None)
    rows: list[ResultRow] = []
    for spec in policies:
        # The seeds of an online policy ran in lockstep; the other policies
        # are deterministic, so their one count repeats across the seeds.
        bound = None
        if spec.kind == "sage":
            bound = bounds.static_regret_bound(horizon - static_hits, n, c)
        elif spec.kind == "markov":
            l_star = horizon - results[PolicySpec("markov-oracle", spec.order)]
            bound = bounds.markov_regret_bound(spec.order, l_star, n, c)
        elif spec.kind == "lz":
            lz_misses, _, tree_nodes = results[PolicySpec("lz-oracle")]
            bound = bounds.lz_regret_bound(0, tree_nodes, lz_misses, n, c)
        if spec.kind in ("sage", "markov", "lz"):
            seed_hits = [sum(hits) for hits in zip(*(results[spec, i] for i in range(parts)))]
        else:
            hits = results[static if spec.kind == "static-oracle" else spec]
            seed_hits = [hits[1] if spec.kind == "lz-oracle" else hits] * len(seeds)
        for seed, hits in zip(seeds, seed_hits):
            row = ResultRow(
                policy=spec.label, order=spec.order, seed=seed, T=horizon,
                n_files=n, cache_size=c, hits=hits, hit_rate=hits / horizon,
                bound_value=bound)
            if "static-oracle" in kinds:
                row.regret_static = static_hits - hits
            if regret_order is not None:
                row.regret_markov_k = results[PolicySpec("markov-oracle", regret_order)] - hits
            rows.append(row)
    return rows


def _cpus() -> int:
    """The CPUs in the process's affinity mask; 1 on a platform without masks."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _run_jobs(jobs: list[Callable], first=()) -> list:
    """`[job() for job in jobs]`, computed on every CPU the process may use.

    A job returns ints, floats or lists and tuples of them. With more than
    one CPU in the affinity mask and at least two jobs, the parent forks one
    helper per extra CPU (see `_run_forked`); the workers claim the jobs
    whose indices are in `first` before the rest. Then, in index order, the
    parent runs every job that has no result yet: a job that raised, or whose
    helper died, runs again here, so the first failing job raises its own
    exception, as in a serial run.
    """
    helpers = min(_cpus(), len(jobs)) - 1
    done = {}
    if helpers > 0 and len(jobs) <= _MAX_QUEUED:
        order = [*first, *sorted(set(range(len(jobs))).difference(first))]
        done = _run_forked(jobs, helpers, order)
    return [done[i] if i in done else job() for i, job in enumerate(jobs)]


def _run_forked(jobs: list[Callable], helpers: int, order: list[int]) -> dict:
    """The results, by index, of the jobs that ran without raising in the
    parent or in one of `helpers` forked helpers.

    The job indices wait in one pipe in claim `order`, and every worker
    claims the next one with a read. A worker whose job raised skips the
    higher indices it claims: a serial run would not reach them. Each helper
    sends its results back `marshal`led through a pipe of its own and leaves
    with `os._exit`; the parent reaps every helper before it returns or raises.
    """
    queue, queue_w = os.pipe()
    os.write(queue_w, b"".join(i.to_bytes(2, "little") for i in order))
    os.close(queue_w)
    children = []  # (pid, read end of the helper's result pipe)
    try:
        for _ in range(helpers):
            result_r, result_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes: the workers forked so far take the jobs
                os.close(result_r)
                os.close(result_w)
                break
            if pid == 0:
                try:
                    data = marshal.dumps(_claim_and_run(jobs, queue))
                    while data:
                        data = data[os.write(result_w, data):]
                finally:
                    os._exit(0)
            os.close(result_w)
            children.append((pid, result_r))
        done = _claim_and_run(jobs, queue)
        for _, result_r in children:
            chunks = []
            while chunk := os.read(result_r, 1 << 16):
                chunks.append(chunk)
            try:
                done.update(marshal.loads(b"".join(chunks)))
            except (EOFError, ValueError, TypeError):
                pass  # the helper died before it reported: the parent reruns its jobs
        return done
    finally:
        while os.read(queue, 4096):  # leave the helpers nothing more to claim
            pass
        os.close(queue)
        for pid, result_r in children:
            os.close(result_r)
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped already, as under SIGCHLD set to SIG_IGN
                pass


def _claim_and_run(jobs: list[Callable], queue: int) -> dict:
    """Claim job indices from `queue` until it is empty; the results of the
    claimed jobs that ran without raising, by index."""
    done = {}
    failed = len(jobs)  # the smallest claimed index whose job raised
    while claim := os.read(queue, 2):
        i = int.from_bytes(claim, "little")
        if i < failed:
            try:
                done[i] = jobs[i]()
            except Exception:
                failed = i
    return done


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def to_csv(rows: list[ResultRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(_fmt(v) for v in (
            r.policy, r.order, r.seed, r.T, r.n_files, r.cache_size,
            r.hits, r.hit_rate, r.regret_static, r.regret_markov_k, r.bound_value)))
    return "\n".join(lines) + "\n"


def summarize(rows: list[ResultRow]) -> str:
    """Aggregate multi-seed rows to 'mean +/- stderr' lines per policy."""
    groups: dict[str, list[ResultRow]] = {}
    for r in rows:
        groups.setdefault(r.policy, []).append(r)
    width = max((len(p) for p in groups), default=6)
    lines = [f"{'policy':<{width}}  seeds  mean_hit_rate  stderr      mean_regret_static"]
    for policy, members in groups.items():
        n = len(members)
        rates = [m.hit_rate for m in members]
        mean = sum(rates) / n
        if n > 1:
            var = sum((v - mean) ** 2 for v in rates) / (n - 1)
            stderr = (var / n) ** 0.5
        else:
            stderr = 0.0
        regs = [m.regret_static for m in members if m.regret_static is not None]
        reg = f"{sum(regs) / len(regs):.1f}" if regs else "-"
        lines.append(f"{policy:<{width}}  {n:>5}  {mean:>13.6f}  {stderr:>10.2e}  {reg:>18}")
    return "\n".join(lines) + "\n"
