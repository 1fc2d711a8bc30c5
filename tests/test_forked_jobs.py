"""The experiment's job table on forked helpers gives what a serial run gives.

`harness._run_jobs` forks one helper per extra CPU in the affinity mask when
the table holds two jobs or more. These tests force either path by replacing
`os.sched_getaffinity`, so they run the same on one CPU or many.
"""

import os
import time

import pytest

from unicache import (CacheSet, DataError, Prefetcher, RequestTrace, generate_trace,
                      harness, random_fsm, save_fsm, save_trace)
from unicache.cli import main
from util import zipf_trace

README_POLICIES = ("sage, markov:1, markov:4, lz, lru, fifo, static-oracle, markov-oracle:4, "
                   "lz-oracle")


@pytest.fixture
def forks(monkeypatch):
    """Record the helpers forked from this process."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _mode(monkeypatch, cpus: int) -> None:
    """Make the affinity mask the CPUs 0 .. cpus - 1."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _experiment(tmp_path, policies: str, trace_files: int = 3) -> str:
    """A config over a saved zero-miss trace and its generating machine."""
    spec, arrays = random_fsm(20, 3, 2, 4)
    trace = generate_trace(spec, arrays, spec.initial_state, 1_500, 5)
    save_trace(RequestTrace(trace_files, trace.requests), tmp_path / "t.trace")
    caches = [CacheSet(frozenset(a), 3) for a in arrays]
    save_fsm(spec, tmp_path / "m.fsm", Prefetcher(caches=caches))
    config = tmp_path / "exp.ini"
    config.write_text(f"[trace]\npath = {tmp_path / 't.trace'}\n\n[run]\ncache_size = 2\n"
                      f"policies = {policies}\nseeds = 0:3\n")
    return str(config)


def test_forked_and_serial_runs_write_identical_csvs(tmp_path, monkeypatch, forks):
    # The fsp oracle, and sage twice: a repeated spec fills its rows from one job.
    config = _experiment(tmp_path, f"{README_POLICIES}, fsp-oracle:{tmp_path / 'm.fsm'}, sage")
    texts = []
    for parallel in (False, True):
        _mode(monkeypatch, 3 if parallel else 1)
        out = tmp_path / f"parallel{parallel}.csv"
        assert main(["run", "--config", config, "--out", str(out), "--quiet"]) == 0
        _no_child_left()
        assert len(forks) == (2 if parallel else 0)
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    lines = texts[0].decode("ascii").splitlines()
    assert len(lines) == 1 + 11 * 3
    assert [ln.split(",")[6] for ln in lines if ln.startswith("fsp-oracle")] == ["1500"] * 3
    sage_rows = [ln.partition(",")[2] for ln in lines if ln.startswith("sage,")]
    assert sage_rows[:3] == sage_rows[3:]


@pytest.mark.parametrize("machine,code,message", [
    ("missing.fsm", 3, "data error: [Errno 2] No such file or directory"),
    ("malformed.fsm", 3, "malformed.fsm:1: header Q must be >= 1, got -1"),
    ("m.fsm", 2, "config error: trace uses 4 files but FSM only knows 3")])
def test_errors_are_those_of_a_serial_run(tmp_path, monkeypatch, capsys, machine, code, message):
    # A missing machine file, a negative Q in the header, and a machine over
    # fewer files than the trace (the fsp oracle job itself raises).
    config = _experiment(tmp_path, f"sage, lz, fsp-oracle:{tmp_path / machine}, lru",
                         trace_files=4)
    (tmp_path / "malformed.fsm").write_text("-1 3 0\n0 0 0\n0\n")
    messages = []
    for parallel in (False, True):
        _mode(monkeypatch, 3 if parallel else 1)
        assert main(["run", "--config", config, "--quiet"]) == code
        _no_child_left()
        captured = capsys.readouterr()
        assert captured.out == ""
        messages.append(captured.err)
    assert messages[0] == messages[1]
    assert message in messages[0]


@pytest.mark.parametrize("golden", ["readme", "zipf"])
def test_fixed_eta_csvs_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch, forks, golden):
    # Under fixed eta each learning policy runs as one job per CPU, over a
    # range of the rounds; the golden traces and eta settings of `test_golden`.
    if golden == "readme":
        spec, arrays = random_fsm(50, 3, 2, 7)
        trace = generate_trace(spec, arrays, spec.initial_state, 20_000, 8)
        run = "cache_size = 2\nhorizon_hint = 20000\n"
    else:
        trace, run = zipf_trace(64, 1.5, 1_400, seed=0), "cache_size = 6\neta = 0.3\n"
    save_trace(trace, tmp_path / "t.trace")
    config = tmp_path / "exp.ini"
    config.write_text(f"[trace]\npath = {tmp_path / 't.trace'}\n\n[run]\n{run}eta_mode = fixed\n"
                      "policies = sage, markov:1, markov:4, lz\nseeds = 0:3\n")
    texts = []
    for cpus in (1, 2, 3):
        _mode(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}.csv"
        assert main(["run", "--config", str(config), "--out", str(out), "--quiet"]) == 0
        _no_child_left()
        texts.append(out.read_bytes())
    assert texts[0] == texts[1] == texts[2]
    assert len(forks) == 0 + 1 + 2


@pytest.mark.parametrize("mode,parts", [("doubling", 1), ("fixed", 3)])
def test_only_fixed_eta_splits_and_learning_jobs_are_claimed_first(tmp_path, monkeypatch, forks,
                                                                   mode, parts):
    # The table: markov oracles 0, 1 and 4 and the lz oracle, then sage,
    # markov:1, markov:4 and lz in `parts` ranges each, then lru.
    config = _experiment(tmp_path, "sage, markov:1, markov:4, lz, lru")
    with open(config, "a") as fh:
        fh.write(f"eta_mode = {mode}\n")
    claims = []
    run_forked = harness._run_forked

    def recording(jobs, helpers, order):
        claims.append(order)
        return run_forked(jobs, helpers, order)

    monkeypatch.setattr(harness, "_run_forked", recording)
    _mode(monkeypatch, 3)
    assert main(["run", "--config", config, "--quiet"]) == 0
    _no_child_left()
    learning = list(range(4, 4 + 4 * parts))
    assert claims == [[*learning, 0, 1, 2, 3, learning[-1] + 1]]
    assert len(forks) == 2


def test_workers_claim_in_the_given_order_and_skip_past_a_failure(monkeypatch):
    ran = []

    def job(i):
        ran.append(i)
        if i in (1, 3):
            raise DataError(f"job {i}")
        return i

    jobs = [lambda i=i: job(i) for i in range(5)]
    # No helper: the parent claims 3 (which fails), skips 4, runs 0 and 1
    # (which fails) and skips 2.
    assert harness._run_forked(jobs, 0, [3, 4, 0, 1, 2]) == {0: 0}
    assert ran == [3, 0, 1]
    _mode(monkeypatch, 3)
    with pytest.raises(DataError, match="^job 1$"):
        harness._run_jobs(jobs, [3, 4])
    _no_child_left()


def _pid_after(seconds: float) -> int:
    time.sleep(seconds)
    return os.getpid()


def test_helpers_run_jobs_and_results_keep_their_order(monkeypatch, forks):
    _mode(monkeypatch, 3)
    jobs = [lambda i=i: (i, _pid_after(0.02)) for i in range(8)]
    results = harness._run_jobs(jobs)
    _no_child_left()
    assert [i for i, _ in results] == list(range(8))
    assert {pid for _, pid in results} - {os.getpid()}, "no helper ran a job"
    assert len(forks) == 2


def test_the_first_failing_job_in_serial_order_raises(monkeypatch):
    def fail(message, seconds=0.0):
        time.sleep(seconds)
        raise DataError(message)

    _mode(monkeypatch, 3)
    # Job 1 fails late, after job 2 has failed; the serial run raises job 1's error.
    jobs = [lambda: _pid_after(0.01), lambda: fail("first", 0.05), lambda: fail("second"),
            *[lambda: _pid_after(0.01)] * 5]
    for _ in range(3):
        with pytest.raises(DataError, match="^first$"):
            harness._run_jobs(jobs)
        _no_child_left()


def test_a_helper_that_dies_without_reporting_costs_no_rows(monkeypatch):
    parent = os.getpid()

    def dies_in_a_helper(i):
        time.sleep(0.02)
        if os.getpid() != parent:
            os._exit(1)
        return i

    _mode(monkeypatch, 3)
    assert harness._run_jobs([lambda i=i: dies_in_a_helper(i) for i in range(6)]) == \
        list(range(6))
    _no_child_left()


def test_a_single_job_runs_in_the_parent(monkeypatch, forks):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert harness._run_jobs([os.getpid]) == [os.getpid()]
    assert not forks
