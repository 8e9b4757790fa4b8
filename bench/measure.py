"""One measured process: repeat ``run_experiment`` on one spec and report.

Run by ``run.py`` in a fresh interpreter, so that peak RSS covers only this
process and its pool workers.  Takes one JSON argument:

    {"spec": {...}, "seeds": [...], "modes": {"serial": 1, "pool": null},
     "budget_s": float, "out": dir, "trace": bool, "setup": {"argv": [...], "launches": int}}

``wrig_lab`` must be importable (``run.py`` puts ``src`` on PYTHONPATH).

Each mode names a worker count; ``null`` takes the spec's default
(``workers: 0``, one per CPU).  Round r runs one pass per mode, in turn, on
the spec with experiment seed ``seeds[r % len(seeds)]``, so that all modes
see the same stretch of machine time and the same inputs.  Rounds repeat
until the next one would, by the last one's wall time, end after
``budget_s``; there is always at least one.  Around every pass the
``reference()`` loop is timed, before and after, on the CPUs the pass uses
(see ``HostSpeed``); their mean goes with the pass as ``refs``, the host's
speed at the time.  After each round one timed
set-up launch runs (``setup.argv`` in a fresh interpreter, after one
untimed launch that fills the bytecode cache), so the launches spread over
the run; any left over run after the last round.  Each launch is timed with
the reference around it, like a serial pass.  With ``trace`` set, it
makes one traced pass per mode and seed, a fixed amount of work, and writes
the spans to ``<out>/spans.jsonl``.

The first CSV of each mode and seed index k is kept at ``<out>/<mode>-<k>.csv``.
The last line of standard output is a JSON object with, per mode and pass,
the wall time, reference time, trial count, seed index and CSV sha256,
plus the set-up launches' (wall, reference) times.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import multiprocessing
import os
import resource
import subprocess
import sys
import time
import warnings


# Iterations of the reference loop, and its wall time on an otherwise idle
# core of the machine in bench/README.md (Python 3.11).
REF_ITERATIONS = 60_000
REF_NOMINAL_S = 0.010


def reference() -> float:
    """Wall time of a fixed pure-Python loop: how fast the host runs us now."""
    sums = [0] * 64
    last = {}
    start = time.perf_counter()
    for i in range(REF_ITERATIONS):
        j = i & 63
        sums[j] += i
        last[j] = sums[j] ^ i
    return time.perf_counter() - start


def _probe(conn, cpu: int) -> None:
    # Pinned, so that probes timed at once never share a CPU.
    os.sched_setaffinity(0, {cpu})
    while conn.recv():
        conn.send(reference())


class HostSpeed:
    """One idle probe process pinned to each CPU, to time the reference on all at once.

    ``sample(1)`` times it here, on the CPU a serial pass runs on;
    ``sample(n)`` for n > 1 takes the mean of all probes, timed at once,
    which covers every CPU a pool pass uses.  Use as a context manager:
    the probes end when it exits.
    """

    def __init__(self, cpus: list[int]) -> None:
        context = multiprocessing.get_context("spawn")
        self.conns = []
        self.procs = []
        for cpu in cpus:
            ours, theirs = context.Pipe()
            proc = context.Process(target=_probe, args=(theirs, cpu), daemon=True)
            proc.start()
            self.conns.append(ours)
            self.procs.append(proc)

    def sample(self, workers: int) -> float:
        if workers == 1:
            return reference()
        for conn in self.conns:
            conn.send(True)
        return sum(conn.recv() for conn in self.conns) / len(self.conns)

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        for conn in self.conns:
            try:
                conn.send(False)
            except OSError:  # the probe is gone already
                pass
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()


def _sha256(path: str) -> str:
    with open(path, "rb") as src:
        return hashlib.sha256(src.read()).hexdigest()


def main(argv: list[str]) -> int:
    cfg = json.loads(argv[1])
    from wrig_lab import experiment
    from wrig_lab.sampling import ModelParams

    # c-sweep grids may sit below the studied window on purpose.
    warnings.filterwarnings("ignore", message=r"p=.* is outside the studied window")
    spec = experiment.ExperimentSpec.from_dict(cfg["spec"])
    seeds: list[int] = cfg["seeds"]
    modes: dict = cfg["modes"]
    out = cfg["out"]

    # Warm up imports and lazy set-up on a tiny grid with the same algorithms.
    tiny = dataclasses.replace(spec, grid=(ModelParams.fixed(8, 8, 0.3),), trials=2)
    for workers in modes.values():
        experiment.run_experiment(tiny, workers=workers)

    results = {
        mode: {"walls": [], "refs": [], "trials": [], "seed_index": [], "digests": []}
        for mode in modes
    }
    scratch = os.path.join(out, "pass.csv")
    cpus = os.cpu_count() or 1

    def one_pass(mode: str, k: int) -> float:
        result = results[mode]
        kept = os.path.join(out, f"{mode}-{k}.csv")
        target = scratch if k in result["seed_index"] else kept
        run_spec = dataclasses.replace(spec, seed=seeds[k], output=target)
        workers = modes[mode] or spec.workers or cpus
        before = host.sample(workers)
        start = time.perf_counter()
        records, _ = experiment.run_experiment(run_spec, workers=modes[mode])
        wall = time.perf_counter() - start
        result["refs"].append((before + host.sample(workers)) / 2)
        result["walls"].append(wall)
        result["trials"].append(len(records))
        result["seed_index"].append(k)
        result["digests"].append(_sha256(target))
        return wall

    setup_times: list[tuple[float, float]] = []
    with HostSpeed(sorted(os.sched_getaffinity(0))) as host:
        if cfg["trace"]:
            import tracing

            with tracing.traced() as tracer:
                for k in range(len(seeds)):
                    for mode in modes:
                        one_pass(mode, k)
            tracer.write(os.path.join(out, "spans.jsonl"))
        else:
            setup = cfg["setup"]

            def launch() -> tuple[float, float]:
                before = host.sample(1)
                start = time.perf_counter()
                subprocess.run(setup["argv"], check=True, stdout=subprocess.DEVNULL)
                wall = time.perf_counter() - start
                return wall, (before + host.sample(1)) / 2

            if setup["launches"]:
                launch()  # fills the bytecode cache
            began = time.perf_counter()
            for turn in itertools.count():
                start = time.perf_counter()
                for mode in modes:
                    one_pass(mode, turn % len(seeds))
                if len(setup_times) < setup["launches"]:
                    setup_times.append(launch())
                if time.perf_counter() - began + (time.perf_counter() - start) > cfg["budget_s"]:
                    break
            while len(setup_times) < setup["launches"]:
                setup_times.append(launch())
            if os.path.exists(scratch):
                os.remove(scratch)

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # ru_maxrss is in KiB on Linux
    print(
        json.dumps(
            {
                "passes": results,
                "peak_rss_mb": max(own, children) / 1024.0,
                "setup_times": setup_times,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
