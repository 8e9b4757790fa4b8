"""Config-driven Monte Carlo harness.

An experiment is a grid of model parameters, a trial count, and a list of
algorithms; every (grid point, trial) pair is an independent work item whose
random streams are addressed by (experiment seed, grid id, trial index), so
results are byte-identical no matter how many worker processes run them or
in which order they finish.  Trial rows are written to CSV in (grid, trial)
order after the last trial; aggregate statistics go to a JSON summary.
Per-trial wall times are aggregated into the summary only - they would
break CSV reproducibility.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import numbers
import os
import pickle
import time
import traceback
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from . import bipartization, cuts, textio
from .core import Coloring, InputError, RepresentationMatrix, cut_weight, discrepancy
from .sampling import ModelParams, _seed_sequence, label_count_for_alpha, sample_matrix

ALGORITHMS = cuts.CUT_ALGORITHMS + ("bipartize",)
P_RULES = ("inv_sqrt_nm",)

# The grid keys each regime reads besides n; "a|b" takes exactly one of a, b.
# `wrig-lab sample` picks the regime whose first key it was given.
REGIME_KEYS = {
    "fixed": ("m", "p"),
    "alpha-sweep": ("alpha", "p|p_rule"),
    "c-sweep": ("c",),
}
GRID_KEYS = {"regime", "n"} | {
    key for reads in REGIME_KEYS.values() for need in reads for key in need.split("|")
}

CSV_SCHEMA_LINE = "# wrig-lab schema 1"

# Fraction of trials whose reported weights are re-derived from the
# serialized coloring as a self-check (every 100th trial).
AUDIT_EVERY = 100

# The count - 1 workers of a count-share pool, kept across run_experiment
# calls: a pass runs share 0 in the calling process and sends each worker
# one other share over its pipe.  Starting the workers costs about as much
# as a short pass.  They exit at interpreter exit.
_pool: Optional[list["_Worker"]] = None


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved experiment configuration.

    ``grid`` holds one ModelParams per grid point, already expanded from the
    sweep description in the config file by ``expand_grid``; every other
    field is a config key with its default.  ``workers=0`` means one
    process per CPU this process may run on.
    """

    grid: tuple[ModelParams, ...]
    name: str = "experiment"
    trials: int = 1
    algorithms: tuple[str, ...] = ("random",)
    epsilon: float = 0.0
    seed: int = 0
    max_rematch: Optional[int] = None
    output: Optional[str] = None
    summary: Optional[str] = None
    workers: int = 0

    def __post_init__(self):
        _check_text("name", self.name)
        for key in ("output", "summary"):
            value = getattr(self, key)
            if value is not None:
                _check_text(key, value)
                if not value:
                    raise InputError(f"{key} must name a file, got ''")
        if self.output is not None and self.summary is not None:
            if os.path.realpath(self.output) == os.path.realpath(self.summary):
                raise InputError(
                    f"output {self.output!r} and summary {self.summary!r} name the same file"
                )
        for key in ("trials", "seed", "workers"):
            _check_number(key, getattr(self, key), numbers.Integral)
        if self.max_rematch is not None:
            _check_number("max_rematch", self.max_rematch, numbers.Integral)
        _check_number("epsilon", self.epsilon, numbers.Real)
        object.__setattr__(self, "algorithms", tuple(_as_list(self.algorithms)))
        if not self.grid:
            raise InputError("experiment grid is empty")
        if self.trials < 1:
            raise InputError(f"need trials >= 1, got {self.trials}")
        if not self.algorithms:
            raise InputError("no algorithms selected")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise InputError(f"unknown algorithm {algo!r}, expected one of {ALGORITHMS}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise InputError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if self.workers < 0:
            raise InputError(f"workers must be >= 0, got {self.workers}")
        if self.max_rematch is not None and self.max_rematch < 0:
            raise InputError(f"max_rematch must be >= 0, got {self.max_rematch}")
        if {"exact", "mindisc"} & set(self.algorithms):
            for point in self.grid:
                if point.n <= cuts.BRUTE_FORCE_CAP:  # wider points skip the oracles
                    cuts.check_oracle_input(point.n, point.m)

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ExperimentSpec":
        settings = {f.name for f in fields(cls)} - {"grid"}
        unknown = set(raw) - settings - GRID_KEYS
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        chosen = {key: value for key, value in raw.items() if key in settings}
        return cls(grid=tuple(expand_grid(raw)), **chosen)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ExperimentSpec":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise InputError(f"config file {path} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise InputError("config file must hold a JSON object")
        return cls.from_dict(raw)


def _as_list(value) -> list:
    return list(value) if isinstance(value, (list, tuple)) else [value]


def _check_text(key: str, value) -> None:
    """InputError naming ``key`` unless ``value`` is a string."""
    if not isinstance(value, str):
        raise InputError(f"{key} must be a string, got {value!r}")


def _check_number(key: str, value, kind: type) -> None:
    """InputError naming ``key`` unless ``value`` is a ``kind`` and no bool."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is numbers.Integral else "a real number"
        raise InputError(f"{key} must be {what}, got {value!r}")


def _numbers(raw: Mapping, key: str, kind: type) -> list:
    """The value or list under ``key`` as ints (Integral) or floats (Real)."""
    values = _as_list(raw[key])
    for value in values:
        _check_number(key, value, kind)
    return [int(v) if kind is numbers.Integral else float(v) for v in values]


def expand_grid(raw: Mapping) -> list[ModelParams]:
    """The grid points a config's ``regime`` and grid keys describe.

    Lists are crossed in key order with n outermost.  An unknown regime, a
    missing key, or a grid key the regime does not read is an InputError.
    """
    regime = raw.get("regime", "fixed")
    if not isinstance(regime, str) or regime not in REGIME_KEYS:
        raise InputError(f"regime must be one of {tuple(REGIME_KEYS)}, got {regime!r}")
    reads = ("n",) + REGIME_KEYS[regime]
    readable = {"regime"} | {key for need in reads for key in need.split("|")}
    foreign = sorted(GRID_KEYS.intersection(raw) - readable)
    if foreign:
        raise InputError(f"{regime} regime does not read {foreign}; it reads {', '.join(reads)}")
    for need in reads:
        options = need.split("|")
        given = [key for key in options if key in raw]
        listed = " or ".join(repr(key) for key in options)
        if not given:
            raise InputError(f"{regime} regime needs {listed}")
        if len(given) > 1:
            raise InputError(f"{regime} regime takes {listed}, not both")

    ns = _numbers(raw, "n", numbers.Integral)
    if regime == "fixed":
        ms, ps = _numbers(raw, "m", numbers.Integral), _numbers(raw, "p", numbers.Real)
        return [ModelParams.fixed(n, m, p) for n in ns for m in ms for p in ps]
    if regime == "c-sweep":
        cs = _numbers(raw, "c", numbers.Real)
        return [ModelParams.from_c(n, c) for n in ns for c in cs]
    alphas = _numbers(raw, "alpha", numbers.Real)
    if "p" in raw:
        ps = _numbers(raw, "p", numbers.Real)
        return [ModelParams.from_alpha(n, a, p) for n in ns for a in alphas for p in ps]
    if raw["p_rule"] not in P_RULES:
        raise InputError(f"p_rule must be one of {P_RULES}, got {raw['p_rule']!r}")
    return [
        ModelParams.from_alpha(n, a, 1.0 / math.sqrt(n * label_count_for_alpha(n, a)))
        for n in ns
        for a in alphas
    ]


@dataclass(frozen=True)
class TrialRecord:
    """One trial's deterministic results plus (non-serialized) wall times."""

    grid_id: int
    trial: int
    n: int
    m: int
    p: float
    seed: int
    total_offdiag: int
    random_weight: Optional[int] = None
    random_disc: Optional[int] = None
    majority_weight: Optional[int] = None
    majority_disc: Optional[int] = None
    exact_weight: Optional[int] = None
    exact_disc: Optional[int] = None
    mindisc_weight: Optional[int] = None
    mindisc_disc: Optional[int] = None
    bipartize_weight: Optional[int] = None
    bipartize_disc: Optional[int] = None
    bipartize_terminated: Optional[bool] = None
    bipartize_iterations: Optional[int] = None
    bipartize_label_disjoint: Optional[bool] = None
    bipartize_zero_strong: Optional[int] = None
    bipartize_codd_encounters: Optional[int] = None
    wall_times: dict[str, float] = field(default_factory=dict, compare=False)


CSV_COLUMNS = tuple(f.name for f in fields(TrialRecord) if f.name != "wall_times")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def record_to_csv_row(record: TrialRecord) -> str:
    return ",".join(_csv_cell(getattr(record, column)) for column in CSV_COLUMNS)


def _trial_streams(seed: int, grid_id: int, trial: int) -> tuple[int, int, int, int]:
    words = _seed_sequence(seed, grid_id, trial).generate_state(4, np.uint64)
    return tuple(int(w) for w in words)


def _audit_coloring(
    R: RepresentationMatrix, coloring: Coloring, weight: int, disc: int, trial_name: str
):
    restored = textio.parse_coloring(textio.format_coloring(coloring))
    if cut_weight(R, restored) != weight or discrepancy(R, restored) != disc:
        raise RuntimeError(
            f"audit failed: recorded weights disagree with the coloring of {trial_name}"
        )


def _run_trial(spec: ExperimentSpec, task: tuple[int, int]) -> TrialRecord:
    grid_id, trial = task
    params = spec.grid[grid_id]
    matrix_seed, *algo_seeds = _trial_streams(spec.seed, grid_id, trial)
    seeds = dict(zip(("random", "majority", "bipartize"), algo_seeds))
    R = sample_matrix(params, matrix_seed)
    values: dict[str, object] = {}
    wall: dict[str, float] = {}
    for algo in ALGORITHMS:
        if algo not in spec.algorithms:
            continue
        if algo in ("exact", "mindisc") and params.n > cuts.BRUTE_FORCE_CAP:
            continue
        start = time.perf_counter()
        if algo == "bipartize":
            outcome = bipartization.weak_bipartization(
                R, seeds[algo], max_rematch=spec.max_rematch
            )
            values.update(
                bipartize_terminated=outcome.terminated,
                bipartize_iterations=outcome.iterations,
                bipartize_label_disjoint=outcome.label_disjoint,
                bipartize_zero_strong=len(outcome.zero_strong_cycles),
                bipartize_codd_encounters=outcome.codd_encounters,
            )
            coloring = outcome.coloring
            weight = None if coloring is None else cut_weight(R, coloring)
        else:
            result = cuts.solve(R, algo, seeds.get(algo), epsilon=spec.epsilon)
            coloring, weight = result.coloring, result.weight
        wall[algo] = time.perf_counter() - start
        if coloring is None:
            continue
        disc = discrepancy(R, coloring)
        values[f"{algo}_weight"] = weight
        values[f"{algo}_disc"] = disc
        if trial % AUDIT_EVERY == 0:
            trial_name = f"{algo} at grid_id={grid_id}, trial={trial}, seed={matrix_seed}"
            _audit_coloring(R, coloring, weight, disc, trial_name)

    return TrialRecord(
        grid_id=grid_id,
        trial=trial,
        n=params.n,
        m=params.m,
        p=params.p,
        seed=matrix_seed,
        total_offdiag=R.entry_sum() - R.diagonal_sum(),
        wall_times=wall,
        **values,
    )


def _run_share(spec: ExperimentSpec, share: Sequence[tuple[int, int]]) -> list[TrialRecord]:
    """The records of ``share``'s tasks, run in turn: one pool share, or a whole serial pass."""
    return [_run_trial(spec, task) for task in share]


class _RemoteTraceback(Exception):
    """A worker's traceback text, set as the cause of the exception it raised."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


def _serve(conn: Connection, parent_ends: Sequence[Connection]) -> None:
    """A worker's loop: reply to each ``(run, share)`` received with
    ``(True, run(share))`` or ``(False, error, traceback text)``; return at EOF."""
    for end in parent_ends:  # forked copies: the pipe reads EOF only once all are closed
        end.close()
    while True:
        try:
            run, share = conn.recv()
        except EOFError:
            return
        try:
            reply = (True, run(share))
        except BaseException as error:
            text = traceback.format_exc()
            try:
                pickle.loads(pickle.dumps(error))
            except Exception:  # a stand-in the parent can rebuild, rather than no reply
                kind = f"{type(error).__module__}.{type(error).__qualname__}"
                error = RuntimeError(f"{kind}: {error} (raised in a pool worker, not picklable)")
            reply = (False, error, text)
        try:
            conn.send(reply)
        except OSError:  # the caller is gone
            return


class _Worker:
    """One forked process that runs the shares sent over its own pipe (see ``_serve``).

    ``parent_ends`` are the pipes of the workers started before it, which
    the child must close.  ``send`` and ``recv`` run in the calling thread,
    so no helper thread stands between the caller and the worker.
    """

    def __init__(self, parent_ends: Sequence[Connection]):
        context = multiprocessing.get_context("fork")
        self.conn, theirs = context.Pipe()
        self.process = context.Process(
            target=_serve, args=(theirs, [*parent_ends, self.conn]), daemon=True
        )
        self.process.start()
        theirs.close()

    def send(self, job) -> None:
        self.conn.send(job)

    def recv(self) -> list[TrialRecord]:
        """The records of the share sent last, or its exception raised here."""
        try:
            reply = self.conn.recv()
        except (EOFError, ConnectionResetError):  # it died, before or after reading its share
            self.process.join(timeout=10)
            raise RuntimeError(
                f"pool worker {self.process.pid} exited with code "
                f"{self.process.exitcode} in the middle of a pass"
            ) from None
        if reply[0]:
            return reply[1]
        _, error, text = reply
        error.__cause__ = _RemoteTraceback(text)
        raise error

    def stop(self) -> None:
        """End the worker, busy, idle or dead, and wait for it to go."""
        self.process.terminate()
        self.conn.close()
        self.process.join()


def _worker_pool(count: int) -> list[_Worker]:
    """The cached workers of a ``count``-share pool; a pool of another size is ended."""
    global _pool
    if _pool is not None and len(_pool) != count - 1:
        _drop_pool()
    if _pool is None:
        _pool = []
        for _ in range(count - 1):
            _pool.append(_Worker([worker.conn for worker in _pool]))
    return _pool


def _drop_pool() -> None:
    """End the cached pool's workers, if any."""
    global _pool
    if _pool is not None:
        for worker in _pool:
            worker.stop()
        _pool = None


def run_experiment(
    spec: ExperimentSpec, *, workers: Optional[int] = None
) -> tuple[list[TrialRecord], "SummaryStats"]:
    """Execute every (grid point, trial) work item and aggregate statistics.

    Once the last trial has run, the records go in (grid, trial) order to
    ``spec.output`` (CSV) and the summary to ``spec.summary`` (JSON), each
    in one write through the path as given, so a symlink or a FIFO is
    written through.  A trial that raises leaves both outputs untouched; a
    write that itself fails, on a full disk say, can leave one truncated.
    Both must name a writable file in an existing directory, which is
    checked before the first trial.  Output bytes are invariant to the
    worker count.  ``workers`` overrides ``spec.workers`` under the same
    rule.  At most one process per CPU this process may run on, and per
    trial, is started.  A grid point outside the studied window runs like
    any other, with no warning: ``ModelParams.regime_warning()`` names it.

    A pool of ``count`` shares is ``count - 1`` forked worker processes
    plus the caller.  It is started once and kept for later calls with the
    same count, which pays only where a process calls this more than once;
    a call with another count ends its workers and starts new ones, a
    serial call leaves it alone, a pool call that raises ends its
    workers, and a worker found dead when a pass sends to it (it died while
    the pool sat idle) gets the pass sent again to a fresh pool.  A worker
    that dies during a pass fails the call with an error naming its exit
    code; an exception raised in a worker is raised here, with the
    worker's traceback as its cause.  Workers keep the modules as they were
    when the pool started, while the caller's share runs under the
    caller's module attributes: code that patches module attributes must
    do so before the first pool call, or run with ``workers=1``.

    A pool pass splits the tasks into ``count`` shares, every ``count``-th
    task, runs share 0 in the calling process and sends each worker one
    other share over its pipe, so it costs one pipe round trip per worker,
    not one per trial.  The price: no share is rebalanced within a pass, so
    the pass lasts as long as its slowest share, and a share's records
    come back together, once all of them have run.
    """
    for role, path in (("output", spec.output), ("summary", spec.summary)):
        if path is not None:
            textio.check_destination(role, path)

    if workers is not None:
        spec = replace(spec, workers=workers)
    tasks = [
        (grid_id, trial)
        for grid_id in range(len(spec.grid))
        for trial in range(spec.trials)
    ]
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    count = min(spec.workers or cpus, cpus, len(tasks))

    run = partial(_run_share, spec)
    if count <= 1:
        records = run(tasks)
    else:
        # Strided, not contiguous: tasks are listed grid-major, so a stride
        # gives every share the same mix of grid points, costly and cheap.
        shares = [tasks[i::count] for i in range(count)]
        records = [None] * len(tasks)

        def dispatch() -> list[_Worker]:
            pool = _worker_pool(count)
            for worker, share in zip(pool, shares[1:]):
                worker.send((run, share))
            return pool

        try:
            try:
                pool = dispatch()
            except BrokenPipeError:  # a worker died while the pool sat idle
                _drop_pool()
                pool = dispatch()
            records[0::count] = run(shares[0])
            for i, worker in enumerate(pool, 1):
                records[i::count] = worker.recv()
        except BaseException:  # a pass that raised may leave workers busy or dead
            _drop_pool()
            raise

    stats = summarize(records, name=spec.name)
    if spec.output:
        rows = [CSV_SCHEMA_LINE, ",".join(CSV_COLUMNS), *map(record_to_csv_row, records)]
        Path(spec.output).write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")
    if spec.summary:
        write_summary(stats, spec.summary)
    return records, stats


@dataclass(frozen=True)
class ValueStats:
    """Moments of one metric over the trials of a grid point."""

    count: int
    mean: float
    variance: float
    variance_defined: bool
    stderr: float
    min: float
    max: float


@dataclass(frozen=True)
class AlgoStats:
    """Per-algorithm weight statistics, plus offdiag-normalized ones."""

    weight: ValueStats
    normalized_mean: Optional[float]
    normalized_cv: Optional[float]
    mean_wall_time: Optional[float]


@dataclass(frozen=True)
class GridStats:
    grid_id: int
    n: int
    m: int
    p: float
    trials: int
    offdiag: ValueStats
    offdiag_cv: Optional[float]
    algorithms: dict[str, AlgoStats]
    ratios: dict[str, float]
    concentration_target: Optional[str]
    concentration: Optional[float]
    termination_fraction: Optional[float]
    label_disjoint_fraction: Optional[float]
    mean_iterations: Optional[float]


@dataclass(frozen=True)
class SummaryStats:
    name: str
    schema: str
    grid: tuple[GridStats, ...]


def _value_stats(values: Sequence[float]) -> ValueStats:
    count = len(values)
    mean = sum(values) / count
    if count > 1:
        variance = sum((v - mean) ** 2 for v in values) / (count - 1)
        defined = True
    else:
        variance, defined = 0.0, False
    return ValueStats(
        count=count,
        mean=mean,
        variance=variance,
        variance_defined=defined,
        stderr=math.sqrt(variance / count),
        min=min(values),
        max=max(values),
    )


def _cv(stats: ValueStats) -> Optional[float]:
    if stats.mean == 0:
        return None
    return math.sqrt(stats.variance) / stats.mean


def _present(rows: Sequence[TrialRecord], column: str) -> list[tuple[TrialRecord, object]]:
    """(row, value) for each row whose ``column`` is not None."""
    return [(r, value) for r in rows if (value := getattr(r, column)) is not None]


def _mean(values: Sequence[float]) -> Optional[float]:
    """The mean of ``values``, or None when there are none."""
    return sum(values) / len(values) if values else None


def summarize(records: Sequence[TrialRecord], name: str = "") -> SummaryStats:
    """Aggregate trial records into per-grid-point, per-algorithm statistics.

    Ratio fields are left out wherever their denominators are missing;
    variance uses the n-1 denominator.
    """
    if not records:
        raise InputError("cannot summarize zero records")
    by_grid: dict[int, list[TrialRecord]] = {}
    for record in records:
        by_grid.setdefault(record.grid_id, []).append(record)

    grid_stats = []
    for grid_id in sorted(by_grid):
        rows = by_grid[grid_id]
        first = rows[0]
        offdiag = _value_stats([r.total_offdiag for r in rows])

        def column_mean(column: str) -> Optional[float]:
            return _mean([value for _, value in _present(rows, column)])

        algo_stats: dict[str, AlgoStats] = {}
        for algo in ALGORITHMS:
            weights = _present(rows, f"{algo}_weight")
            if not weights:
                continue
            normalized = [w / r.total_offdiag for r, w in weights if r.total_offdiag > 0]
            algo_stats[algo] = AlgoStats(
                weight=_value_stats([w for _, w in weights]),
                normalized_mean=_mean(normalized),
                normalized_cv=_cv(_value_stats(normalized)) if normalized else None,
                mean_wall_time=_mean([r.wall_times[algo] for r in rows if algo in r.wall_times]),
            )

        means = {algo: stats.weight.mean for algo, stats in algo_stats.items()}
        ratios: dict[str, float] = {}
        if "random" in means and "exact" in means and means["exact"] != 0:
            ratios["random_over_exact"] = means["random"] / means["exact"]
        if "majority" in means and "random" in means and means["random"] != 0:
            ratios["majority_over_random"] = means["majority"] / means["random"]
            ratios["beta_hat"] = ratios["majority_over_random"] - 1.0
        # Concentration proxy Var(W)/E[W]^2 for the strongest available cut.
        target = next((a for a in ("exact", "majority", "random") if a in algo_stats), None)
        concentration = None
        if target is not None and means[target] != 0:
            concentration = algo_stats[target].weight.variance / means[target] ** 2

        grid_stats.append(
            GridStats(
                grid_id=grid_id,
                n=first.n,
                m=first.m,
                p=first.p,
                trials=len(rows),
                offdiag=offdiag,
                offdiag_cv=_cv(offdiag),
                algorithms=algo_stats,
                ratios=ratios,
                concentration_target=target,
                concentration=concentration,
                termination_fraction=column_mean("bipartize_terminated"),
                label_disjoint_fraction=column_mean("bipartize_label_disjoint"),
                mean_iterations=column_mean("bipartize_iterations"),
            )
        )
    return SummaryStats(name=name, schema="wrig-lab summary 1", grid=tuple(grid_stats))


def write_summary(stats: SummaryStats, path: Union[str, Path]) -> None:
    Path(path).write_text(
        json.dumps(asdict(stats), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
        newline="\n",
    )
