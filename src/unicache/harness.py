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
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

from . import bounds
from .core import ConfigError, DataError, RequestTrace, load_trace, replay
from .datagen import generate_trace, random_fsm
from .fsm import FifoPolicy, LruPolicy, load_fsm, offline_fsp_hits
from .lz import LzSagePolicy, offline_lz_oracle
from .markov import MarkovSagePolicy, offline_markov_hit_rate
from .sage import EtaConfig, SagePolicy, lockstep_replay

CSV_HEADER = "policy,k,seed,T,N,C,hits,hit_rate,regret_static,regret_markov_k,bound_value"


@dataclass(frozen=True)
class PolicySpec:
    kind: str
    order: int | None = None
    path: str | None = None

    @property
    def label(self) -> str:
        if self.kind == "markov":
            return f"markov:{self.order}"
        if self.kind == "markov-oracle":
            return f"markov-oracle:{self.order}"
        if self.kind == "fsp-oracle":
            return f"fsp-oracle:{self.path}"
        return self.kind


@dataclass
class ExperimentConfig:
    cache_size: int
    policies: list[PolicySpec]
    seeds: list[int]
    trace_path: str | None = None
    gen_states: int | None = None
    gen_files: int | None = None
    gen_set_size: int | None = None
    gen_rounds: int | None = None
    gen_seed: int = 0
    eta: float | None = None
    eta_mode: str = "doubling"
    horizon_hint: int | None = None
    out: str | None = None

    def eta_config(self) -> EtaConfig:
        return EtaConfig(mode=self.eta_mode, eta=self.eta, horizon=self.horizon_hint)


@dataclass
class ResultRow:
    policy: str
    order: int | None
    seed: int | None
    T: int
    n_files: int
    cache_size: int
    hits: int
    hit_rate: float
    regret_static: int | None = None
    regret_markov_k: int | None = None
    bound_value: float | None = None


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


def _wants(cfg: ExperimentConfig, kind: str) -> bool:
    return any(p.kind == kind for p in cfg.policies)


def run_experiment(cfg: ExperimentConfig, trace: RequestTrace | None = None) -> list[ResultRow]:
    """Run every (policy, seed) cell; deterministic given the config."""
    if trace is None:
        trace = materialize_trace(cfg)
    n, c, horizon = trace.n_files, cfg.cache_size, len(trace)
    if c > n:
        raise ConfigError(f"[run] cache_size {c} exceeds the library size {n}")
    eta_cfg = cfg.eta_config()

    static_hits = offline_markov_hit_rate(trace, 0, c)[1]
    markov_oracle_hits: dict[int, int] = {}
    orders_needed = sorted({p.order for p in cfg.policies if p.kind in ("markov", "markov-oracle")})
    for k in orders_needed:
        markov_oracle_hits[k] = offline_markov_hit_rate(trace, k, c)[1]
    regret_orders = [p.order for p in cfg.policies if p.kind == "markov-oracle"]
    regret_order = max(regret_orders) if regret_orders else None

    lz_oracle_misses = lz_oracle_hits = tree_nodes = None
    if _wants(cfg, "lz") or _wants(cfg, "lz-oracle"):
        lz_oracle_misses, lz_oracle_hits, tree_nodes = offline_lz_oracle(trace, c)

    def deterministic_hits(spec: PolicySpec) -> int:
        if spec.kind == "static-oracle":
            return static_hits
        if spec.kind == "markov-oracle":
            return markov_oracle_hits[spec.order]
        if spec.kind == "lz-oracle":
            return lz_oracle_hits
        if spec.kind == "fsp-oracle":
            return offline_fsp_hits(load_fsm(spec.path)[0], trace, c)[0]
        if spec.kind == "lru":
            return replay(LruPolicy(n, c), trace).cumulative_hits
        if spec.kind == "fifo":
            return replay(FifoPolicy(n, c), trace).cumulative_hits
        raise ConfigError(f"policy {spec.label!r} is not deterministic")

    rows: list[ResultRow] = []
    for spec in cfg.policies:
        # The seeds of an online policy run in lockstep; the other policies
        # are deterministic, so their one count repeats across the seeds.
        learners = bound = None
        if spec.kind == "sage":
            learners = [SagePolicy(n, c, eta_cfg, seed) for seed in cfg.seeds]
            bound = bounds.static_regret_bound(horizon - static_hits, n, c)
        elif spec.kind == "markov":
            learners = [MarkovSagePolicy(n, c, spec.order, eta_cfg, seed) for seed in cfg.seeds]
            l_star = horizon - markov_oracle_hits[spec.order]
            bound = bounds.markov_regret_bound(spec.order, l_star, n, c)
        elif spec.kind == "lz":
            learners = [LzSagePolicy(n, c, eta_cfg, seed) for seed in cfg.seeds]
            bound = bounds.lz_regret_bound(0, tree_nodes, lz_oracle_misses, n, c)
        if learners is not None:
            seed_hits = [record.cumulative_hits for record in lockstep_replay(learners, trace)]
        else:
            seed_hits = [deterministic_hits(spec)] * len(cfg.seeds)
        for seed, hits in zip(cfg.seeds, seed_hits):
            row = ResultRow(
                policy=spec.label, order=spec.order, seed=seed, T=horizon,
                n_files=n, cache_size=c, hits=hits, hit_rate=hits / horizon,
                bound_value=bound)
            if _wants(cfg, "static-oracle"):
                row.regret_static = static_hits - hits
            if regret_order is not None:
                row.regret_markov_k = markov_oracle_hits[regret_order] - hits
            rows.append(row)
    return rows


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
