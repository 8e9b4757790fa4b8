import hashlib
import importlib.util
import json
import math
import multiprocessing
import os
import pickle
import re
import signal
import stat
import subprocess
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from wrig_lab import cuts, experiment
from wrig_lab.core import InputError, RepresentationMatrix
from wrig_lab.cuts import random_cut
from wrig_lab.experiment import (
    CSV_COLUMNS,
    ExperimentSpec,
    TrialRecord,
    record_to_csv_row,
    run_experiment,
    summarize,
)


def make_spec(**overrides):
    base = {
        "name": "unit",
        "regime": "fixed",
        "n": 10,
        "trials": 3,
        "algorithms": ["random", "exact"],
        "seed": 11,
    }
    if overrides.get("regime", "fixed") == "fixed":
        base.update(m=10, p=0.2)  # other regimes reject these grid keys
    base.update(overrides)
    return ExperimentSpec.from_dict(base)


# --- spec parsing and validation ---


def test_fixed_grid_is_a_cross_product():
    spec = make_spec(n=[4, 6], m=[3], p=[0.1, 0.5])
    assert [(g.n, g.m, g.p) for g in spec.grid] == [
        (4, 3, 0.1),
        (4, 3, 0.5),
        (6, 3, 0.1),
        (6, 3, 0.5),
    ]


def test_alpha_sweep_with_rule():
    spec = make_spec(regime="alpha-sweep", n=[256, 1024], alpha=0.5, p_rule="inv_sqrt_nm")
    assert [(g.n, g.m) for g in spec.grid] == [(256, 16), (1024, 32)]
    assert spec.grid[0].p == pytest.approx(1 / math.sqrt(256 * 16))


def test_c_sweep_sets_m_and_p():
    spec = make_spec(regime="c-sweep", n=[100], c=[0.5, 2.0], algorithms="bipartize")
    assert spec.algorithms == ("bipartize",)
    assert [(g.n, g.m, g.p) for g in spec.grid] == [(100, 100, 0.005), (100, 100, 0.02)]


REPO = Path(__file__).resolve().parent.parent


def _readme_config():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    return json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))


# (n, m, repr(p)) of every grid point, captured before the config rules
# were gathered into one grid expansion.
@pytest.mark.parametrize(
    "load, grid",
    [
        (
            lambda: json.loads((REPO / "experiments/alpha_half_trend.json").read_text()),
            [
                (4096, 64, "0.001953125"),
                (16384, 128, "0.0006905339660024878"),
                (65536, 256, "0.000244140625"),
                (262144, 512, "8.631674575031097e-05"),
            ],
        ),
        (
            _readme_config,
            [(1000, 1000, "0.00025"), (1000, 1000, "0.0005"), (1000, 1000, "0.00075")],
        ),
        (
            lambda: {
                "regime": "alpha-sweep",
                "n": [100, 1000],
                "alpha": [0.5, 0.75],
                "p": [0.01, 0.05],
            },
            [
                (100, 10, "0.01"),
                (100, 10, "0.05"),
                (100, 31, "0.01"),
                (100, 31, "0.05"),
                (1000, 31, "0.01"),
                (1000, 31, "0.05"),
                (1000, 177, "0.01"),
                (1000, 177, "0.05"),
            ],
        ),
    ],
    ids=["alpha_half_trend", "readme_example", "alpha_sweep_explicit_p"],
)
def test_shipped_configs_expand_as_pinned(load, grid):
    spec = ExperimentSpec.from_dict(load())
    assert [(g.n, g.m, repr(g.p)) for g in spec.grid] == grid


INVALID_SPECS = [
    ({"bogus_key": 1}, r"unknown config keys: \['bogus_key'\]"),
    ({"trials": 0}, "need trials >= 1"),
    ({"algorithms": ["random", "quantum"]}, "unknown algorithm 'quantum'"),
    ({"algorithms": []}, "no algorithms selected"),
    ({"regime": "sweepy"}, "regime must be one of .* got 'sweepy'"),
    ({"regime": "c-sweep"}, "c-sweep regime needs 'c'"),
    ({"regime": "alpha-sweep", "alpha": 0.5, "p_rule": "nope"}, "p_rule must be one of"),
    ({"epsilon": 2.0}, r"epsilon must lie in \[0, 1\]"),
    ({"workers": -1}, "workers must be >= 0"),
    ({"max_rematch": -3}, "max_rematch must be >= 0"),
    # The brute-force cap is fixed in cuts, not a setting.
    ({"exact_cap": 24}, r"unknown config keys: \['exact_cap'\]"),
    # A grid key that only another regime reads.
    ({"c": 1.0}, r"fixed regime does not read \['c'\]"),
    ({"p_rule": "inv_sqrt_nm"}, r"fixed regime does not read \['p_rule'\]"),
    ({"regime": "alpha-sweep", "alpha": 0.5, "p": 0.1, "m": 10}, r"does not read \['m'\]"),
    ({"regime": "c-sweep", "c": 1, "p": 0.5}, r"c-sweep regime does not read \['p'\]"),
    ({"regime": "c-sweep", "c": 1, "alpha": 0.5}, r"c-sweep regime does not read \['alpha'\]"),
    ({"regime": "c-sweep", "c": 1, "n": 0}, "need n >= 1, got n=0"),
    (
        {"regime": "alpha-sweep", "alpha": 0.5, "p": 0.1, "p_rule": "inv_sqrt_nm"},
        "takes 'p' or 'p_rule', not both",
    ),
    ({"regime": "alpha-sweep", "alpha": 0.5}, "alpha-sweep regime needs 'p' or 'p_rule'"),
    # Values keep their type: no truncation, no bools.
    ({"trials": 2.5}, "trials must be an integer, got 2.5"),
    ({"trials": True}, "trials must be an integer, got True"),
    ({"seed": 7.9}, "seed must be an integer, got 7.9"),
    ({"n": [10.7]}, "n must be an integer, got 10.7"),
    ({"m": 5.9}, "m must be an integer, got 5.9"),
    ({"p": "0.2"}, "p must be a real number, got '0.2'"),
    ({"epsilon": False}, "epsilon must be a real number, got False"),
    # Text keys are strings; output and summary may also be null.
    ({"output": 5}, "output must be a string, got 5"),
    ({"summary": ["s.json"]}, r"summary must be a string, got \['s.json'\]"),
    ({"name": None}, "name must be a string, got None"),
    # m = floor(n**alpha) must be a finite count.
    ({"regime": "alpha-sweep", "alpha": 1000, "p": 0.1}, "no finite label count"),
    # Seeds address SeedSequence entropy, which is non-negative.
    ({"seed": -1}, "seed must be >= 0, got -1"),
    # The summary would overwrite the CSV.
    (
        {"output": "out.csv", "summary": "./out.csv"},
        "output 'out.csv' and summary './out.csv' name the same file",
    ),
    # An empty path names no file; it is refused before the same-file check.
    ({"output": ""}, "output must name a file, got ''"),
    ({"summary": ""}, "summary must name a file, got ''"),
    ({"output": "", "summary": ""}, "output must name a file, got ''"),
    ({"n": []}, "experiment grid is empty"),
]


@pytest.mark.parametrize(
    "overrides, match",
    INVALID_SPECS,
    ids=[f"overrides{i}" for i in range(len(INVALID_SPECS))],
)
def test_invalid_specs_rejected(overrides, match):
    with pytest.raises(InputError, match=match):
        make_spec(**overrides)


def test_workers_override_keeps_the_spec_rule():
    with pytest.raises(InputError, match="workers must be >= 0, got -1"):
        run_experiment(make_spec(), workers=-1)


def test_numpy_scalars_are_accepted():
    spec = make_spec(n=[np.int64(10)], m=np.int32(4), p=np.float64(0.2), trials=np.int64(2))
    assert [(g.n, g.m, g.p) for g in spec.grid] == [(10, 4, 0.2)]
    assert spec.trials == 2


def test_spec_file_roundtrip(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "name": "file",
                "regime": "fixed",
                "n": 6,
                "m": 4,
                "p": 0.3,
                "trials": 2,
                "algorithms": ["random"],
            }
        )
    )
    spec = ExperimentSpec.from_file(path)
    assert spec.name == "file"
    assert len(spec.grid) == 1
    path.write_text("not json")
    with pytest.raises(ValueError):
        ExperimentSpec.from_file(path)


# --- running ---


def test_run_produces_dominated_records(tmp_path):
    out = tmp_path / "r.csv"
    spec = make_spec(trials=3, output=str(out))
    records, stats = run_experiment(spec, workers=1)
    assert len(records) == 3
    for r in records:
        assert r.random_weight <= r.exact_weight
        assert r.wall_times.keys() == {"random", "exact"}
    lines = out.read_text().splitlines()
    assert lines[0] == "# wrig-lab schema 1"
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2 + 3
    # wall times never reach the CSV
    assert stats.grid[0].algorithms["exact"].mean_wall_time is not None


def test_failed_run_leaves_the_old_csv(tmp_path, monkeypatch):
    out = tmp_path / "r.csv"
    out.write_text("an earlier run\n")
    spec = make_spec(trials=3, output=str(out))
    draw = experiment.sample_matrix
    calls = []

    def failing_second_draw(params, seed):
        calls.append(seed)
        if len(calls) == 2:
            raise RuntimeError("trial failed")
        return draw(params, seed)

    monkeypatch.setattr(experiment, "sample_matrix", failing_second_draw)
    with pytest.raises(RuntimeError, match="trial failed"):
        run_experiment(spec, workers=1)
    assert out.read_text() == "an earlier run\n"
    assert list(tmp_path.iterdir()) == [out]
    monkeypatch.setattr(experiment, "sample_matrix", draw)
    run_experiment(spec, workers=1)
    assert out.read_text().startswith("# wrig-lab schema 1\n")
    assert list(tmp_path.iterdir()) == [out]


def test_nothing_is_written_beside_the_output_while_trials_run(tmp_path, monkeypatch):
    out = tmp_path / "r.csv"
    out.write_text("an earlier run\n")
    draw = experiment.sample_matrix
    calls = []

    def draw_with_the_directory_untouched(params, seed):
        assert list(tmp_path.iterdir()) == [out]
        assert out.read_text() == "an earlier run\n"
        calls.append(seed)
        return draw(params, seed)

    monkeypatch.setattr(experiment, "sample_matrix", draw_with_the_directory_untouched)
    run_experiment(make_spec(trials=3, output=str(out)), workers=1)
    assert len(calls) == 3
    assert out.read_text().startswith("# wrig-lab schema 1\n")


def test_a_symlinked_output_is_written_through(tmp_path):
    plain = tmp_path / "plain.csv"
    run_experiment(make_spec(output=str(plain)), workers=1)
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    real.write_text("")
    link.symlink_to(real)
    summary = tmp_path / "summary.json"
    run_experiment(make_spec(output=str(link), summary=str(summary)), workers=1)
    assert link.is_symlink()
    assert real.read_bytes() == plain.read_bytes()
    assert json.loads(summary.read_text())["name"] == "unit"


def test_a_fifo_output_is_written_through(tmp_path):
    spec = make_spec(trials=1, algorithms=["random"])
    plain = tmp_path / "plain.csv"
    run_experiment(replace(spec, output=str(plain)), workers=1)
    expected = plain.read_bytes()
    assert len(expected) < 1024  # fits any pipe buffer, so the write cannot block
    fifo = tmp_path / "out.csv"
    os.mkfifo(fifo)
    # A reader open before the run lets the writer's open return at once.
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        run_experiment(replace(spec, output=str(fifo)), workers=1)
        written = os.read(reader, 4096)
    finally:
        os.close(reader)
    assert written == expected
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


@pytest.mark.parametrize(
    "where, message",
    [
        ("nodir/out.csv", "the directory of output {!r} does not exist"),
        ("adir", "output {!r} is a directory"),
        ("out.csv", "output {!r} is not writable"),
    ],
    ids=["without_dir", "is_dir", "not_writable"],
)
def test_run_refuses_an_output_it_cannot_write_before_any_trial(
    tmp_path, monkeypatch, where, message
):
    (tmp_path / "adir").mkdir()
    output = str(tmp_path / where)

    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiment, "_run_trial", no_trial)
    # Tests run as root, who may write anywhere, so no path is writable here;
    # the other cases are refused by rules checked before this one.
    monkeypatch.setattr(experiment.textio.os, "access", lambda path, mode: False)
    with pytest.raises(InputError) as raised:
        run_experiment(make_spec(output=output), workers=1)
    assert str(raised.value) == message.format(output)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]
    assert list((tmp_path / "adir").iterdir()) == []


def test_failed_audit_names_the_trial(tmp_path, monkeypatch):
    out = tmp_path / "r.csv"
    out.write_text("an earlier run\n")
    spec = make_spec(p=0.5, algorithms=["random"], output=str(out))
    parse = experiment.textio.parse_coloring

    def parse_with_first_sign_flipped(text):
        return parse(("-" if text[0] == "+" else "+") + text[1:])

    monkeypatch.setattr(experiment.textio, "parse_coloring", parse_with_first_sign_flipped)
    seed = experiment._trial_streams(spec.seed, 0, 0)[0]
    message = (
        "audit failed: recorded weights disagree with the coloring of "
        f"random at grid_id=0, trial=0, seed={seed}"
    )
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        run_experiment(spec, workers=1)
    assert out.read_text() == "an earlier run\n"
    assert list(tmp_path.iterdir()) == [out]


def test_worker_counts_do_not_change_bytes(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    base = dict(trials=4, algorithms=["random", "majority", "bipartize"])
    run_experiment(make_spec(output=str(a), **base), workers=1)
    run_experiment(make_spec(output=str(b), **base), workers=1)
    run_experiment(make_spec(output=str(c), **base), workers=2)
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def allow_cpus(monkeypatch, count: int) -> None:
    """Let this process run on ``count`` CPUs, by both counts the harness reads."""
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: count)
    monkeypatch.setattr(
        experiment.os, "sched_getaffinity", lambda pid: set(range(count)), raising=False
    )


@pytest.fixture
def fake_pools(monkeypatch):
    """In-process workers on 4 CPUs, with no pool cached.

    ``pools`` lists the pools started, each a list of its workers; a worker
    keeps the shares sent to it and how it was stopped (``stop``'s ``wait``).
    ``here`` lists the shares the caller ran itself.  A worker runs its
    share when it is asked for the records, passing the spec, the share and
    the records through pickle, as the pipe does (``run`` itself wraps a
    local function here, so only its arguments are pickled).
    """
    fakes = SimpleNamespace(pools=[], here=[])
    run_share = experiment._run_share

    def run_share_here(spec, share):
        fakes.here.append(list(share))
        return run_share(spec, share)

    class InProcessWorker:
        def __init__(self, parent_ends):
            if not parent_ends:
                fakes.pools.append([])
            assert parent_ends == [worker.conn for worker in fakes.pools[-1]]
            fakes.pools[-1].append(self)
            self.conn = object()
            self.jobs = []
            self.shares = []
            self.stopped = None

        def send(self, job):
            run, share = job
            self.jobs.append(pickle.dumps((run.args, share)))
            self.shares.append(list(share))

        def recv(self):
            args, share = pickle.loads(self.jobs[-1])
            return pickle.loads(pickle.dumps(run_share(*args, share)))

        def stop(self, *, wait):
            self.stopped = wait

    monkeypatch.setattr(experiment, "_pool", None)
    monkeypatch.setattr(experiment, "_Worker", InProcessWorker)
    monkeypatch.setattr(experiment, "_run_share", run_share_here)
    allow_cpus(monkeypatch, 4)
    return fakes


@pytest.mark.parametrize(
    "workers, trials, shares",
    [(0, 6, 4), (64, 6, 4), (0, 3, 3), (2, 6, 2), (64, 1, None), (1, 6, None)],
)
def test_pool_is_bounded_by_cpus_and_trials(fake_pools, workers, trials, shares):
    spec = make_spec(trials=trials, algorithms=["random"])
    records, _ = run_experiment(spec, workers=workers)
    # The caller runs one share, so shares - 1 worker processes start.
    assert [len(pool) for pool in fake_pools.pools] == ([] if shares is None else [shares - 1])
    serial, _ = run_experiment(spec, workers=1)
    assert list(map(record_to_csv_row, records)) == list(map(record_to_csv_row, serial))


# 3 grid points x 5 trials: 15 tasks, a multiple of neither 2 nor 4 workers,
# so the strided shares differ in length.
GRID_OF_15 = dict(n=[8, 10, 12], trials=5, algorithms=["random", "majority", "bipartize"])


def grid_bytes_at(tmp_path, workers: int) -> bytes:
    out = tmp_path / f"workers_{workers}.csv"
    run_experiment(make_spec(output=str(out), **GRID_OF_15), workers=workers)
    return out.read_bytes()


@pytest.mark.parametrize("workers", [2, 3, 4])
def test_a_pool_pass_maps_one_strided_share_per_worker(tmp_path, fake_pools, workers):
    assert grid_bytes_at(tmp_path, workers) == grid_bytes_at(tmp_path, 1)
    tasks = [(grid_id, trial) for grid_id in range(3) for trial in range(5)]
    shares = [tasks[i::workers] for i in range(workers)]
    (pool,) = fake_pools.pools
    assert fake_pools.here == [shares[0], tasks]  # the pass's share 0, then the serial run
    assert [worker.shares for worker in pool] == [[share] for share in shares[1:]]  # one each


def test_two_strided_shares_reassemble_the_serial_bytes(tmp_path, monkeypatch):
    allow_cpus(monkeypatch, 2)
    assert grid_bytes_at(tmp_path, 2) == grid_bytes_at(tmp_path, 1)


def test_one_allowed_cpu_runs_serially(fake_pools, monkeypatch):
    # os.cpu_count() counts the machine; the affinity mask is what may run.
    monkeypatch.setattr(experiment.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    run_experiment(make_spec(trials=6, algorithms=["random"]), workers=0)
    assert fake_pools.pools == []


def test_a_pool_of_another_size_replaces_the_cached_one(fake_pools):
    spec = make_spec(trials=6, algorithms=["random"])
    for workers in (2, 2, 3):
        run_experiment(spec, workers=workers)
    # The idle 1-worker pool is stopped and waited for; the 2-worker one is kept.
    stopped = [[worker.stopped for worker in pool] for pool in fake_pools.pools]
    assert stopped == [[True], [None, None]]


def worker_pids() -> set[int]:
    return {child.pid for child in multiprocessing.active_children()}


def wait_until_gone(pids: set[int]) -> None:
    deadline = time.monotonic() + 30
    while worker_pids() & pids:
        assert time.monotonic() < deadline, f"workers {worker_pids() & pids} still running"
        time.sleep(0.01)


@contextmanager
def within(seconds: int):
    """Fail, rather than hang, if the block is still running after ``seconds``."""

    def expire(signum, frame):  # not an OSError, which multiprocessing's waitpid swallows
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_pool_is_kept_across_calls(monkeypatch):
    allow_cpus(monkeypatch, 2)
    spec = make_spec(trials=4, algorithms=["random"])
    run_experiment(spec, workers=2)
    started = worker_pids()
    assert len(started) == 1
    run_experiment(spec, workers=1)
    assert worker_pids() == started
    run_experiment(spec, workers=2)
    assert worker_pids() == started


def test_pools_of_every_size_reassemble_the_serial_bytes(tmp_path, monkeypatch):
    allow_cpus(monkeypatch, 4)
    serial = grid_bytes_at(tmp_path, 1)
    # Each size replaces the last pool and waits for its workers, which end
    # only once every forked copy of their pipes' parent ends is closed.
    with within(60):
        for workers in (4, 3, 2):
            assert grid_bytes_at(tmp_path, workers) == serial
            assert len(worker_pids()) == workers - 1


def test_a_worker_killed_between_calls_costs_no_call(monkeypatch):
    allow_cpus(monkeypatch, 2)
    spec = make_spec(trials=4, algorithms=["random", "majority"])
    serial = list(map(record_to_csv_row, run_experiment(spec, workers=1)[0]))
    run_experiment(spec, workers=2)
    started = worker_pids()
    os.kill(min(started), signal.SIGKILL)
    # Once it is gone its pipe is closed, so the next pass finds it dead when
    # it sends, rather than racing its death.
    wait_until_gone(started)
    records, _ = run_experiment(spec, workers=2)
    assert list(map(record_to_csv_row, records)) == serial
    assert worker_pids().isdisjoint(started) and len(worker_pids()) == 1


@pytest.fixture
def own_pool(monkeypatch):
    """Two CPUs and no pool cached, before and after, so that workers fork
    from the test's patches and none outlives it."""
    allow_cpus(monkeypatch, 2)
    experiment._drop_pool()
    yield
    experiment._drop_pool()


def test_a_worker_that_dies_mid_pass_fails_the_call(tmp_path, monkeypatch, own_pool):
    serial_out, out = tmp_path / "serial.csv", tmp_path / "r.csv"
    out.write_text("an earlier run\n")
    spec = make_spec(trials=4, algorithms=["random"], output=str(out))
    run_experiment(replace(spec, output=str(serial_out)), workers=1)
    run_trial = experiment._run_trial

    def exit_at_trial_3(spec, task):
        if task == (0, 3):  # in share 1 of 2
            os._exit(3)
        return run_trial(spec, task)

    monkeypatch.setattr(experiment, "_run_trial", exit_at_trial_3)
    with within(30), pytest.raises(RuntimeError) as raised:
        run_experiment(spec, workers=2)
    message = str(raised.value)
    dead = re.fullmatch(r"pool worker (\d+) exited with code 3 in the middle of a pass", message)
    assert dead is not None, message
    assert out.read_text() == "an earlier run\n"
    monkeypatch.setattr(experiment, "_run_trial", run_trial)
    run_experiment(spec, workers=2)
    assert out.read_bytes() == serial_out.read_bytes()
    (fresh,) = worker_pids()
    assert fresh != int(dead.group(1))


class Unrebuildable(Exception):
    """Pickles, but unpickling calls ``__init__`` with one argument and fails."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


@pytest.mark.parametrize("picklable", [True, False], ids=["picklable", "unpicklable"])
def test_a_worker_exception_reaches_the_caller_intact(monkeypatch, own_pool, picklable):
    spec = make_spec(trials=4, algorithms=["random"])
    serial = list(map(record_to_csv_row, run_experiment(spec, workers=1)[0]))
    run_trial = experiment._run_trial

    def refuse_trial_1(spec, task):
        if task == (0, 1):  # in share 1 of 2
            if picklable:
                raise ValueError("trial 1 refused")
            raise Unrebuildable("trial 1", "share 1")
        return run_trial(spec, task)

    monkeypatch.setattr(experiment, "_run_trial", refuse_trial_1)
    with within(30), pytest.raises(ValueError if picklable else RuntimeError) as raised:
        run_experiment(spec, workers=2)
    kind = "ValueError" if picklable else f"{Unrebuildable.__module__}.Unrebuildable"
    message = "trial 1 refused" if picklable else "trial 1 at share 1"
    if picklable:
        assert str(raised.value) == message
    else:  # a stand-in that names the type
        assert str(raised.value) == f"{kind}: {message} (raised in a pool worker, not picklable)"
    remote = str(raised.value.__cause__)
    assert "in refuse_trial_1" in remote
    assert remote.rstrip('"\n').endswith(f"{kind}: {message}")
    monkeypatch.setattr(experiment, "_run_trial", run_trial)
    records, _ = run_experiment(spec, workers=2)
    assert list(map(record_to_csv_row, records)) == serial


def test_a_failure_in_the_callers_share_ends_the_busy_worker(tmp_path, monkeypatch, own_pool):
    spec = make_spec(trials=4, algorithms=["random"])
    serial = list(map(record_to_csv_row, run_experiment(spec, workers=1)[0]))
    run_trial = experiment._run_trial
    busy = tmp_path / "busy"  # holds the pid of the worker once it is busy

    def refuse_trial_0(spec, task):
        if task == (0, 0):  # the caller's share: fail once the worker is busy
            deadline = time.monotonic() + 30
            while not busy.exists():
                assert time.monotonic() < deadline, "the worker never started trial 1"
                time.sleep(0.01)
            raise InputError(f"trial {task} refused")
        if task == (0, 1):  # the worker's share: busy until it is ended
            busy.write_text(str(os.getpid()))
            time.sleep(60)
        return run_trial(spec, task)

    monkeypatch.setattr(experiment, "_run_trial", refuse_trial_0)
    busy.write_text("")
    with pytest.raises(InputError) as alone:
        run_experiment(spec, workers=1)
    busy.unlink()
    with within(30), pytest.raises(InputError) as pooled:
        run_experiment(spec, workers=2)
    assert str(pooled.value) == str(alone.value)
    wait_until_gone({int(busy.read_text())})
    monkeypatch.setattr(experiment, "_run_trial", run_trial)
    records, _ = run_experiment(spec, workers=2)
    assert list(map(record_to_csv_row, records)) == serial


def test_a_trial_that_raises_in_a_worker_shuts_the_pool_down(monkeypatch):
    allow_cpus(monkeypatch, 2)
    spec = make_spec(trials=4, algorithms=["random"])
    run_experiment(spec, workers=2)
    started = worker_pids()
    too_many_ones = make_spec(trials=4, m=1 << 23, p=0.5, algorithms=["random"])
    with pytest.raises(InputError, match="exceeds the sampler's bound"):
        run_experiment(too_many_ones, workers=2)
    wait_until_gone(started)
    records, _ = run_experiment(spec, workers=2)
    assert worker_pids().isdisjoint(started) and len(worker_pids()) == 1
    serial, _ = run_experiment(spec, workers=1)
    assert list(map(record_to_csv_row, records)) == list(map(record_to_csv_row, serial))


def test_workers_exit_with_the_interpreter():
    script = (
        "import multiprocessing, os\n"
        "from wrig_lab import experiment\n"
        "os.cpu_count = lambda: 2\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "spec = experiment.ExperimentSpec.from_dict({'n': 10, 'm': 10, 'p': 0.2, 'trials': 4})\n"
        "experiment.run_experiment(spec, workers=2)\n"
        "print(*(child.pid for child in multiprocessing.active_children()))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(experiment.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=30
    )
    assert done.returncode == 0, done.stderr
    pids = [int(pid) for pid in done.stdout.split()]
    assert len(pids) == 1
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_exact_skipped_above_cap():
    spec = make_spec(n=30, m=5, trials=1, algorithms=["random", "exact", "mindisc"])
    records, stats = run_experiment(spec, workers=1)
    assert records[0].exact_weight is None
    assert records[0].mindisc_weight is None
    assert "exact" not in stats.grid[0].algorithms
    assert stats.grid[0].concentration_target == "random"


def test_oracle_point_over_the_table_bound_is_refused():
    m = cuts.ORACLE_TABLE_BYTES // ((2**11 + 2**12) * 8) + 1
    # n = 30 is over the cap, so its oracles are skipped, not refused.
    assert len(make_spec(n=[30, 23], m=m, algorithms=["mindisc"]).grid) == 2
    assert len(make_spec(n=[24], m=m, algorithms=["random"]).grid) == 1
    for algo in ("exact", "mindisc"):
        with pytest.raises(InputError, match=f"^n=24, m={m} needs .* over the bound"):
            make_spec(n=[30, 24], m=m, algorithms=["random", algo])


def test_out_of_window_p_runs_without_a_warning():
    spec = make_spec(n=100, m=100, p=[0.005, 0.5], trials=1, algorithms=["random"])
    assert all(point.regime_warning() is not None for point in spec.grid)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_experiment(spec, workers=1)
    assert caught == []


def test_summary_file_and_ratios(tmp_path):
    summary = tmp_path / "s.json"
    spec = make_spec(
        trials=4, algorithms=["random", "majority", "exact"], summary=str(summary)
    )
    _, stats = run_experiment(spec, workers=1)
    g = stats.grid[0]
    assert 0 < g.ratios["random_over_exact"] <= 1
    assert g.ratios["majority_over_random"] == pytest.approx(g.ratios["beta_hat"] + 1)
    payload = json.loads(summary.read_text())
    assert payload["schema"] == "wrig-lab summary 1"
    assert payload["grid"][0]["trials"] == 4


# sha256 of the CSV written with the Gray-code oracles that preceded the
# meet-in-the-middle ones: the exact and mindisc columns (weights and the
# discrepancy of the chosen coloring, hence the tie-break) must not move.
@pytest.mark.parametrize(
    "n, m, digest",
    [
        (16, 16, "2e05ba102d527c54d547857b2dc788f2e06f475adae254b393f149b44b9dfd16"),
        (15, 20, "677558446edee3b3fe1dc4917d1f0ffea4ae5c1071ac7d190bc6d719372ace09"),
    ],
    ids=["n16_m16", "n15_m20"],
)
def test_exact_oracle_csv_is_pinned(tmp_path, n, m, digest):
    out = tmp_path / "golden.csv"
    spec = ExperimentSpec.from_dict(
        {
            "regime": "fixed",
            "n": n,
            "m": m,
            "p": 0.2,
            "algorithms": ["exact", "mindisc"],
            "trials": 200,
            "seed": 2009,
            "output": str(out),
        }
    )
    run_experiment(spec, workers=1)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


ALPHA_HALF_2_16 = {"regime": "alpha-sweep", "n": 2**16, "alpha": 0.5, "p_rule": "inv_sqrt_nm"}


# sha256 of the random + majority CSV.  The first two were captured from the
# tuple-backed core, one sparse-path and one dense-path sampler config.  The
# n = 2^16 pair (m = 256, ~16 ones per label, ~97 % of labelled vertices in
# one label) was captured from the per-vertex majority loop; at epsilon 0.3
# the random prefix ends inside most labels' runs of single-label vertices.
# Trials 0 and 100 are audited, so the coloring text round trip runs too.
@pytest.mark.parametrize(
    "config, epsilon, digest",
    [
        (
            {"regime": "alpha-sweep", "n": 4096, "alpha": 0.5, "p_rule": "inv_sqrt_nm"},
            0.01,
            "fbf43a2a06732293e3a32ec2bf1817ad5cbeec1292bf2583591668ad1954acf4",
        ),
        (
            {"regime": "fixed", "n": 300, "m": 20, "p": 0.15},
            0.01,
            "c8d6f47d63002c2c6fa305e51c4bb69fbd9571b811051cd261b7cc33b42d9a2a",
        ),
        (
            ALPHA_HALF_2_16,
            0.01,
            "baef5f232d6da2d8cd3a44758682133b8e364cc2298813f37b83ec523c86fc19",
        ),
        (
            ALPHA_HALF_2_16,
            0.3,
            "20340d1539599b8a0426fd2a57fb91539ff058d3e8452cfaabcbc0ea9f737848",
        ),
    ],
    ids=["sparse_alpha_half", "dense_fixed", "long_runs", "long_runs_split_by_prefix"],
)
def test_heuristic_csv_is_pinned(tmp_path, config, epsilon, digest):
    out = tmp_path / "golden.csv"
    spec = ExperimentSpec.from_dict(
        dict(
            config,
            algorithms=["random", "majority"],
            epsilon=epsilon,
            trials=120,
            seed=2009,
            output=str(out),
        )
    )
    run_experiment(spec, workers=1)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of the CSV of all five algorithms, captured before the trial loop
# and the CLI shared one dispatch: trials 0 and 100 are audited, and at
# c = 2 some bipartize runs exhaust the re-match budget, so the empty
# bipartize_weight/_disc cells are pinned too.  Through a pool of 2 the
# 240 tasks, oracles and budget-exhausting bipartize runs mixed, go out as
# two strided shares and must come back to the same bytes.
@pytest.mark.parametrize("workers", [1, 2])
def test_all_algorithms_csv_is_pinned(tmp_path, monkeypatch, workers):
    allow_cpus(monkeypatch, 2)
    out = tmp_path / "golden.csv"
    spec = ExperimentSpec.from_dict(
        {
            "regime": "c-sweep",
            "n": 16,
            "c": [0.75, 2.0],
            "algorithms": ["random", "majority", "exact", "mindisc", "bipartize"],
            "epsilon": 0.01,
            "max_rematch": 10,
            "trials": 120,
            "seed": 2009,
            "output": str(out),
        }
    )
    records, _ = run_experiment(spec, workers=workers)
    assert sum(r.bipartize_terminated is False for r in records) == 18
    assert (
        hashlib.sha256(out.read_bytes()).hexdigest()
        == "76bf45bbf05cbd4ec6888105c011d9417f7d079fcd24995da1102006e5fe8ef2"
    )


# sha256 of the JSON summary of all five algorithms over four grid points,
# with fixed wall times put into each record.  Missing cells are pinned too:
# 12 rows have no off-diagonal pair, and at c = 4 only 2 of 40 bipartize
# runs terminate within 10 re-matches.
def test_all_algorithms_summary_is_pinned():
    spec = ExperimentSpec.from_dict(
        {
            "regime": "c-sweep",
            "n": 16,
            "c": [0.5, 1.0, 2.0, 4.0],
            "algorithms": ["random", "majority", "exact", "mindisc", "bipartize"],
            "epsilon": 0.01,
            "max_rematch": 10,
            "trials": 40,
            "seed": 2009,
        }
    )
    records, _ = run_experiment(spec, workers=1)
    timed = [
        replace(r, wall_times={a: (r.grid_id + 1) / 1000 + r.trial / 3e5 for a in r.wall_times})
        for r in records
    ]
    text = json.dumps(asdict(summarize(timed, name="golden")), indent=2, sort_keys=True)
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "9b1c2e661ad6775ca04e6705f74d68c902165186b2c69eb186559a8c7da0cf6b"
    )


# --- summarize ---


def _record(weight, trial=0, offdiag=40):
    return TrialRecord(
        grid_id=0,
        trial=trial,
        n=5,
        m=5,
        p=0.2,
        seed=1,
        total_offdiag=offdiag,
        random_weight=weight,
        random_disc=1,
    )


def test_summarize_single_record_flags_undefined_variance():
    stats = summarize([_record(5)])
    vs = stats.grid[0].algorithms["random"].weight
    assert vs.mean == 5
    assert vs.variance == 0.0
    assert not vs.variance_defined


def test_summarize_two_records_hand_arithmetic():
    stats = summarize([_record(4, trial=0), _record(6, trial=1)])
    vs = stats.grid[0].algorithms["random"].weight
    assert vs.mean == 5.0
    assert vs.variance == 2.0
    assert vs.variance_defined
    assert vs.min == 4 and vs.max == 6
    # At p = 0 every total_offdiag is 0: no CV and no normalized weight.
    zero = summarize([replace(_record(0, trial=t, offdiag=0), p=0.0) for t in range(2)])
    point = zero.grid[0]
    assert (point.offdiag.mean, point.offdiag_cv) == (0.0, None)
    algo = point.algorithms["random"]
    assert (algo.normalized_mean, algo.normalized_cv) == (None, None)
    assert point.concentration is None


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


def test_summarize_random_cut_expectation():
    R = RepresentationMatrix.from_label_sets(6, [[0, 1, 2], [2, 3], [3, 4, 5]])
    offdiag = R.entry_sum() - R.diagonal_sum()
    records = [
        _record(random_cut(R, s).weight, trial=s, offdiag=offdiag) for s in range(10_000)
    ]
    vs = summarize(records).grid[0].algorithms["random"].weight
    assert abs(vs.mean - offdiag / 4) <= 4 * vs.stderr


def test_csv_row_formatting():
    record = TrialRecord(
        grid_id=1,
        trial=2,
        n=3,
        m=4,
        p=0.25,
        seed=9,
        total_offdiag=6,
        bipartize_terminated=True,
        bipartize_label_disjoint=False,
        bipartize_iterations=0,
    )
    row = record_to_csv_row(record).split(",")
    cols = dict(zip(CSV_COLUMNS, row))
    assert cols["p"] == "0.25"
    assert cols["bipartize_terminated"] == "1"
    assert cols["bipartize_label_disjoint"] == "0"
    assert cols["random_weight"] == ""
    assert cols["bipartize_iterations"] == "0"


def test_benchmark_traced_names_exist(monkeypatch):
    # The benchmark's tracer wraps library functions at their module
    # attributes; one renamed or deleted fails here, not in every traced run.
    spec = importlib.util.spec_from_file_location("tracing", REPO / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "tracing", tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    assert all(callable(fn) for fn in tracing.originals().values())
