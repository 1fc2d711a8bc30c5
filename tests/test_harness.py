import os
import subprocess
import sys
from pathlib import Path

import pytest

import unicache
from unicache import (ConfigError, DomainError, FsmSpec, RequestTrace, offline_fsp_hits,
                      parse_config, run_experiment, save_fsm, save_trace, summarize, to_csv)
from unicache.harness import CSV_HEADER, ExperimentConfig, PolicySpec, parse_policy_spec
from unicache import bounds as bounds_mod
from util import parse_csv, worked_example


def test_parse_policy_specs():
    assert parse_policy_spec("sage") == PolicySpec("sage")
    assert parse_policy_spec("markov:3") == PolicySpec("markov", order=3)
    assert parse_policy_spec(" markov-oracle:2 ") == PolicySpec("markov-oracle", order=2)
    assert parse_policy_spec("fsp-oracle:m.fsm") == PolicySpec("fsp-oracle", path="m.fsm")
    for bad in ("markov", "markov:x", "markov:-1", "fsp-oracle:", "bogus"):
        with pytest.raises(ConfigError):
            parse_policy_spec(bad)


def test_policy_spec_is_a_value():
    # Equal specs are one job-table key: a repeated policy shares its job.
    assert PolicySpec("markov", 2) == PolicySpec("markov", order=2)
    assert hash(PolicySpec("markov", 2)) == hash(PolicySpec(kind="markov", order=2))
    assert PolicySpec("markov", 2) != PolicySpec("markov-oracle", 2)
    assert PolicySpec("fsp-oracle", path="a.fsm") != PolicySpec("fsp-oracle", path="b.fsm")
    jobs = {PolicySpec("sage"): 1, PolicySpec("markov-oracle", 0): 2}
    jobs[parse_policy_spec(" sage ")] = 3
    jobs[parse_policy_spec("markov-oracle:0")] += 10
    assert jobs == {PolicySpec("sage"): 3, PolicySpec("markov-oracle", 0): 12}
    # A label reads back as the spec text, for every kind.
    for text in ("sage", "lz", "lru", "fifo", "static-oracle", "lz-oracle", "markov:3",
                 "markov-oracle:0", "fsp-oracle:m.fsm"):
        assert parse_policy_spec(text).label == text
    assert PolicySpec("sage").order is None and PolicySpec("sage").path is None


def _write_config(path, body):
    path.write_text(body)
    return parse_config(path)


def test_parse_config_generator(tmp_path):
    cfg = _write_config(tmp_path / "a.ini", """
[trace]
states = 10
files = 4
rounds = 500
seed = 3

[run]
cache_size = 2
policies = sage, markov:1
seeds = 0:3
eta = auto
""")
    assert cfg.gen_states == 10 and cfg.gen_files == 4 and cfg.gen_rounds == 500
    assert cfg.seeds == [0, 1, 2]
    assert cfg.eta is None and cfg.eta_mode == "doubling"


def test_parse_config_defaults(tmp_path):
    cfg = _write_config(tmp_path / "min.ini", """
[trace]
states = 2
files = 3
rounds = 10

[run]
cache_size = 2
policies = sage
""")
    assert (cfg.cache_size, cfg.policies, cfg.seeds) == (2, [PolicySpec("sage")], [0])
    assert (cfg.trace_path, cfg.gen_set_size) == (None, None)
    assert (cfg.gen_seed, cfg.eta, cfg.eta_mode, cfg.horizon_hint, cfg.out) == \
        (0, None, "doubling", None, None)
    direct = ExperimentConfig(2, [PolicySpec("sage")], [0])
    assert (direct.gen_seed, direct.eta, direct.eta_mode, direct.horizon_hint, direct.out) == \
        (0, None, "doubling", None, None)


def test_parse_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path / "missing.ini")
    with pytest.raises(ConfigError, match=r"\[run\] cache_size"):
        _write_config(tmp_path / "b.ini", "[trace]\npath=x\n[run]\npolicies=sage\nseeds=1\n")
    with pytest.raises(ConfigError, match="policies"):
        _write_config(tmp_path / "c.ini", "[trace]\npath=x\n[run]\ncache_size=2\n")
    with pytest.raises(ConfigError, match=r"\[trace\] rounds"):
        _write_config(tmp_path / "d.ini",
                      "[trace]\nstates=2\nfiles=3\n[run]\ncache_size=2\npolicies=sage\n")
    with pytest.raises(ConfigError, match="eta_mode"):
        _write_config(tmp_path / "e.ini",
                      "[trace]\npath=x\n[run]\ncache_size=2\npolicies=sage\neta_mode=off\n")
    for key in ("states", "files", "rounds"):
        sizes = {"states": 2, "files": 3, "rounds": 10, key: 0}
        body = "[trace]\n" + "".join(f"{k}={v}\n" for k, v in sizes.items())
        with pytest.raises(ConfigError, match=rf"\[trace\] {key}: must be a positive integer"):
            _write_config(tmp_path / f"{key}0.ini", body + "[run]\ncache_size=2\npolicies=sage\n")
    gen = "[trace]\nstates=2\nfiles=3\nrounds=10\n"
    for set_size in (0, 4):
        with pytest.raises(ConfigError, match=r"\[trace\] set_size: must lie in \[1, 3\]"):
            _write_config(tmp_path / f"set{set_size}.ini", gen + f"set_size={set_size}\n"
                          "[run]\ncache_size=2\npolicies=sage\n")
    with pytest.raises(ConfigError, match=r"\[run\] cache_size 4 exceeds \[trace\] files 3"):
        _write_config(tmp_path / "cache4.ini", gen + "[run]\ncache_size=4\npolicies=sage\n")
    with pytest.raises(ConfigError, match=r"\[run\] horizon_hint: must be a positive integer"):
        _write_config(tmp_path / "h0.ini",
                      gen + "[run]\ncache_size=2\npolicies=sage\nhorizon_hint=0\n")


def test_run_worked_example_oracle_row(tmp_path):
    spec, trace, _, _ = worked_example()
    fsm_path = tmp_path / "m.fsm"
    trace_path = tmp_path / "t.trace"
    save_fsm(spec, fsm_path)
    save_trace(trace, trace_path)
    cfg = _write_config(tmp_path / "exp.ini", f"""
[trace]
path = {trace_path}

[run]
cache_size = 2
policies = fsp-oracle:{fsm_path}
seeds = 0
""")
    rows = run_experiment(cfg)
    assert len(rows) == 1
    assert rows[0].hits == 11
    assert rows[0].hit_rate == pytest.approx(11 / 12, abs=1e-12)


def test_a_narrow_machine_fails_before_any_job_runs(tmp_path, monkeypatch):
    # Machine files are loaded up front: one over fewer files than the trace
    # fails there, not in its own job after the other jobs have run.
    save_trace(RequestTrace(4, [0, 1, 2, 3] * 5), tmp_path / "t.trace")
    save_fsm(FsmSpec(1, 3, [[0, 0, 0]], 0), tmp_path / "m.fsm")
    cfg = _write_config(tmp_path / "exp.ini", f"""
[trace]
path = {tmp_path / "t.trace"}

[run]
cache_size = 2
policies = sage, lz, fsp-oracle:{tmp_path / "m.fsm"}
seeds = 0:2
""")
    ran = []
    monkeypatch.setattr(unicache.harness, "_run_jobs", lambda jobs, first: ran.append(jobs))
    with pytest.raises(DomainError, match="trace uses 4 files but FSM only knows 3"):
        run_experiment(cfg)
    assert ran == []
    r = _cli("run", "--config", "exp.ini", cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert "trace uses 4 files but FSM only knows 3" in r.stderr, r.stderr


def test_a_learning_job_builds_one_policy_for_all_seeds(tmp_path, monkeypatch):
    # The seeds are lanes of one policy: one parse tree per job, not one per seed.
    built = []

    class Counted(unicache.LzSagePolicy):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(unicache.harness, "_cpus", lambda: 1)
    monkeypatch.setattr(unicache.harness, "LzSagePolicy", Counted)
    cfg = _write_config(tmp_path / "exp.ini", """
[trace]
states = 4
files = 3
rounds = 300
seed = 2

[run]
cache_size = 2
policies = lz
seeds = 0:3
""")
    rows = run_experiment(cfg)
    assert [r.seed for r in rows] == [0, 1, 2]
    assert len(built) == 1


def test_static_oracle_counts_best_single_file(tmp_path):
    trace_path = tmp_path / "t.trace"
    save_trace(RequestTrace(4, [1, 1, 2, 3]), trace_path)
    cfg = _write_config(tmp_path / "exp.ini", f"""
[trace]
path = {trace_path}

[run]
cache_size = 1
policies = static-oracle, sage
seeds = 0:2
""")
    rows = run_experiment(cfg)
    oracle = [r for r in rows if r.policy == "static-oracle"]
    assert all(r.hits == 2 for r in oracle)
    sage_rows = [r for r in rows if r.policy == "sage"]
    assert all(r.regret_static == 2 - r.hits for r in sage_rows)


def test_markov_oracle_rows_nondecreasing_in_k(tmp_path):
    cfg = _write_config(tmp_path / "exp.ini", """
[trace]
states = 10
files = 4
rounds = 3000
seed = 5

[run]
cache_size = 2
policies = markov-oracle:0, markov-oracle:1, markov-oracle:2, markov-oracle:3
seeds = 0
""")
    rows = run_experiment(cfg)
    rates = [r.hit_rate for r in rows]
    assert rates == sorted(rates)


def test_csv_deterministic_and_roundtrips(tmp_path):
    cfg_text = """
[trace]
states = 6
files = 4
rounds = 400
seed = 2

[run]
cache_size = 2
policies = sage, markov:1, lru, static-oracle, markov-oracle:1
seeds = 0:3
"""
    cfg1 = _write_config(tmp_path / "a.ini", cfg_text)
    cfg2 = _write_config(tmp_path / "b.ini", cfg_text)
    csv1 = to_csv(run_experiment(cfg1))
    csv2 = to_csv(run_experiment(cfg2))
    assert csv1 == csv2
    assert csv1.splitlines()[0] == CSV_HEADER
    rows = parse_csv(csv1)
    assert to_csv(rows) == csv1


def test_bound_column_matches_evaluators(tmp_path):
    cfg = _write_config(tmp_path / "exp.ini", """
[trace]
states = 6
files = 4
rounds = 600
seed = 9

[run]
cache_size = 2
policies = sage, markov:2, static-oracle, markov-oracle:2
seeds = 0:2
""")
    rows = run_experiment(cfg)
    static_hits = next(r.hits for r in rows if r.policy == "static-oracle")
    markov_hits = next(r.hits for r in rows if r.policy == "markov-oracle:2")
    horizon = rows[0].T
    for r in rows:
        if r.policy == "sage":
            expect = bounds_mod.static_regret_bound(horizon - static_hits, 4, 2)
            assert r.bound_value == pytest.approx(expect, rel=1e-12)
        if r.policy == "markov:2":
            expect = bounds_mod.markov_regret_bound(2, horizon - markov_hits, 4, 2)
            assert r.bound_value == pytest.approx(expect, rel=1e-12)


def test_summarize_recomputes_mean(tmp_path):
    cfg = _write_config(tmp_path / "exp.ini", """
[trace]
states = 4
files = 3
rounds = 200
seed = 1

[run]
cache_size = 1
policies = sage
seeds = 0:4
""")
    rows = run_experiment(cfg)
    text = summarize(rows)
    mean = sum(r.hit_rate for r in rows) / len(rows)
    assert f"{mean:.6f}" in text


def test_experiment_config_validates_cache_size(tmp_path):
    trace_path = tmp_path / "t.trace"
    save_trace(RequestTrace(2, [0, 1, 0]), trace_path)
    cfg = ExperimentConfig(cache_size=5, policies=[PolicySpec("sage")], seeds=[0],
                           trace_path=str(trace_path))
    with pytest.raises(ConfigError):
        run_experiment(cfg)


# ---------------------------------------------------------------------------
# CLI


# The child must import the same unicache as this process, from any cwd: a
# relative PYTHONPATH entry (e.g. PYTHONPATH=src) would not resolve from
# tmp_path, so the directory holding the imported package goes first, absolute.
_PACKAGE_ROOT = str(Path(unicache.__file__).resolve().parent.parent)


def _cli(*args, cwd, **env_vars):
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        [_PACKAGE_ROOT] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return subprocess.run([sys.executable, "-m", "unicache.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def test_cli_gen_run_cycle(tmp_path):
    r = _cli("gen", "--states", "5", "--files", "3", "--cache", "2",
             "--rounds", "300", "--seed", "1", "--out-prefix", "demo", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    (tmp_path / "exp.ini").write_text("""
[trace]
path = demo.trace

[run]
cache_size = 2
policies = sage, fsp-oracle:demo.fsm, static-oracle
seeds = 0:2
out = out.csv
""")
    r = _cli("run", "--config", "exp.ini", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    body = (tmp_path / "out.csv").read_text()
    assert body.splitlines()[0] == CSV_HEADER
    oracle_rows = [ln for ln in body.splitlines() if ln.startswith("fsp-oracle")]
    assert oracle_rows and all(ln.split(",")[7] == "1" for ln in oracle_rows)  # zero-miss


def test_cli_runs_are_byte_identical_across_processes(tmp_path):
    save_trace(RequestTrace(4, [0, 1, 3, 2, 1] * 40), tmp_path / "t.trace")
    (tmp_path / "exp.ini").write_text("""
[trace]
path = t.trace

[run]
cache_size = 2
policies = sage, markov:1, static-oracle
seeds = 0:3
""")
    outputs = []
    for name in ("a.csv", "b.csv"):
        r = _cli("run", "--config", "exp.ini", "--out", name, "--quiet", cwd=tmp_path)
        assert r.returncode == 0, r.stderr
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_exit_codes(tmp_path):
    r = _cli("bogus-command", cwd=tmp_path)
    assert r.returncode == 1, r.stderr
    assert "unicache: error:" in r.stderr  # a usage error, not a failed import
    r = _cli("run", "--config", "missing.ini", cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    (tmp_path / "bad.ini").write_text("""
[trace]
path = nowhere.trace

[run]
cache_size = 2
policies = sage
seeds = 0
""")
    r = _cli("run", "--config", "bad.ini", cwd=tmp_path)
    assert r.returncode == 3, r.stderr
    # A byte outside ASCII in a trace or machine file is a data error naming
    # the file, and bytes that are not UTF-8 in a config file a config error.
    (tmp_path / "ok.trace").write_text("0\n1\n2\n")
    (tmp_path / "latin.trace").write_bytes(b"# N=3 BASE=0\n0\n1\xe9\n")
    (tmp_path / "latin.fsm").write_bytes(b"1 3 0\n0 0 0\n0\xff\n")
    run = "[run]\ncache_size = 2\nseeds = 0\npolicies = "
    (tmp_path / "latin-trace.ini").write_text(f"[trace]\npath = latin.trace\n{run}lru\n")
    (tmp_path / "latin-fsm.ini").write_text(
        f"[trace]\npath = ok.trace\n{run}fsp-oracle:latin.fsm\n")
    (tmp_path / "latin.ini").write_bytes(
        f"[trace]\npath = ok.trace\n{run}lru\n# \xff\xfe\n".encode("latin-1"))
    for args, code, name in ((("parse-stats", "--trace", "latin.trace"), 3, "latin.trace"),
                             (("run", "--config", "latin-trace.ini"), 3, "latin.trace"),
                             (("run", "--config", "latin-fsm.ini"), 3, "latin.fsm"),
                             (("run", "--config", "latin.ini"), 2, "latin.ini")):
        r = _cli(*args, cwd=tmp_path)
        assert r.returncode == code, (args, r.stderr)
        assert name in r.stderr and "Traceback" not in r.stderr, r.stderr
    # An id outside the library is a data error naming its line, as written.
    (tmp_path / "base1.trace").write_text("# N=3 BASE=1\n0\n")
    r = _cli("parse-stats", "--trace", "base1.trace", cwd=tmp_path)
    assert r.returncode == 3, r.stderr
    assert "base1.trace:2: file id 0 outside [1, 3]" in r.stderr, r.stderr
    assert "Traceback" not in r.stderr, r.stderr
    # A rejected bounds argument prints no CSV, not even its header.
    sweep = {"--files": "3", "--cache": "2", "--states": "50", "--rounds": "1000"}
    for key, value in (("--rounds", "0"), ("--states", "0"), ("--cache", "5"),
                       ("--max-order", "-1")):
        args = [a for kv in {**sweep, key: value}.items() for a in kv]
        r = _cli("bounds", *args, cwd=tmp_path)
        assert (r.returncode, r.stdout) == (2, ""), (key, r.stdout, r.stderr)
        assert "config error" in r.stderr, r.stderr
    # An unwritable dump is a data error that prints no statistics first.
    r = _cli("parse-stats", "--trace", "ok.trace", "--dump", "missing-dir/tree.txt", cwd=tmp_path)
    assert (r.returncode, r.stdout) == (3, ""), (r.stdout, r.stderr)
    assert "data error" in r.stderr and "Traceback" not in r.stderr, r.stderr
    # A header field named twice is a data error, not a silent last-wins.
    (tmp_path / "twice.trace").write_text("# N=3 N=9 BASE=1 BASE=0\n8\n")
    r = _cli("parse-stats", "--trace", "twice.trace", cwd=tmp_path)
    assert r.returncode == 3, r.stderr
    assert "twice.trace:1: repeated header field 'N'" in r.stderr, r.stderr
    # Configs are UTF-8 whatever the locale's encoding.
    (tmp_path / "utf8.ini").write_text(f"[trace]\npath = ok.trace\n{run}lru\n# caf\u00e9\n",
                                       encoding="utf-8")
    r = _cli("run", "--config", "utf8.ini", "--quiet", cwd=tmp_path, LC_ALL="C", PYTHONUTF8="0")
    assert r.returncode == 0, r.stderr
    gen = "[trace]\nstates = 5\nfiles = 3\nrounds = 50\n"
    for name, text in (("unclosed.ini", "[run\ncache_size = 2\n"),
                       ("repeated.ini", gen + "[run]\ncache_size = 2\ncache_size = 3\n"),
                       ("inf.ini", gen + "[run]\ncache_size = 2\npolicies = sage\neta = inf\n")):
        (tmp_path / name).write_text(text)
        r = _cli("run", "--config", name, cwd=tmp_path)
        assert r.returncode == 2, (name, r.stderr)
        assert "Traceback" not in r.stderr, r.stderr
    (tmp_path / "rounds0.ini").write_text(
        "[trace]\nstates = 5\nfiles = 3\nrounds = 0\n[run]\ncache_size = 2\npolicies = sage\n")
    r = _cli("run", "--config", "rounds0.ini", cwd=tmp_path)
    assert r.returncode == 2, r.stderr
    assert "[trace] rounds" in r.stderr, r.stderr
    for name, text, key in (
            ("set0.ini", gen + "set_size = 0\n[run]\ncache_size = 2\npolicies = sage\n",
             "[trace] set_size"),
            ("h0.ini", gen + "[run]\ncache_size = 2\npolicies = sage\nhorizon_hint = 0\n",
             "[run] horizon_hint")):
        (tmp_path / name).write_text(text)
        r = _cli("run", "--config", name, cwd=tmp_path)
        assert r.returncode == 2, (name, r.stderr)
        assert key in r.stderr, r.stderr
    r = _cli("bounds", "--files", "3", "--cache", "2", "--states", "50",
             "--rounds", "1000", "--max-order", "2", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[0].startswith("k,")


def test_cli_numeric_exit_code(monkeypatch):
    from unicache import NumericError, cli

    for error in (NumericError, OverflowError):
        def boom(args):
            raise error("synthetic")

        monkeypatch.setattr(cli, "_cmd_bounds", boom)
        code = cli.main(["bounds", "--files", "3", "--cache", "2",
                         "--states", "5", "--rounds", "10"])
        assert code == 4, error


def test_cli_parse_stats(tmp_path):
    save_trace(RequestTrace(2, [0, 1, 0, 0, 1, 1]), tmp_path / "t.trace")
    r = _cli("parse-stats", "--trace", "t.trace", "--dump", "tree.txt", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert "nodes           5" in r.stdout
    assert "phrases         4" in r.stdout
    dump = (tmp_path / "tree.txt").read_text().splitlines()
    assert len(dump) == 5


def test_cli_seed_base_shifts_rows(tmp_path):
    save_trace(RequestTrace(3, [0, 1, 2, 1] * 25), tmp_path / "t.trace")
    (tmp_path / "exp.ini").write_text("""
[trace]
path = t.trace

[run]
cache_size = 1
policies = sage
seeds = 0:2
""")
    r = _cli("run", "--config", "exp.ini", "--seed-base", "10", "--quiet", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    seeds = [ln.split(",")[2] for ln in r.stdout.splitlines()[1:] if ln]
    assert seeds == ["10", "11"]

def test_cli_bounds_past_the_double_range_print_inf(tmp_path):
    r = _cli("bounds", "--files", "10000", "--cache", "10", "--states", "50",
             "--rounds", "1000", "--max-order", "80", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[1:5] == [
        "0,0.999,79.0775527898,1.4755658551,1078.07755279",
        "1,0.988941733044,790775.527898,831.312691361,791764.469631",
        "2,0.807467543768,7907755278.98,7911329.67169,7907756086.45",
        "3,0.699287405634,7.90775527898e+13,79077885350.1,7.90775527905e+13",
    ]
    assert lines[-1].split(",")[2:] == ["inf", "inf", "inf"]  # 1e4^80 contexts


def test_cli_empty_trace_is_a_data_error(tmp_path):
    (tmp_path / "empty.trace").write_text("# N=4\n")
    (tmp_path / "exp.ini").write_text("""
[trace]
path = empty.trace

[run]
cache_size = 2
policies = sage, markov-oracle:1
seeds = 0
""")
    r = _cli("run", "--config", "exp.ini", cwd=tmp_path)
    assert r.returncode == 3, r.stderr
    assert "data error" in r.stderr and "no requests" in r.stderr

