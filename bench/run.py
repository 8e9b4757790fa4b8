"""wrig-lab benchmark: Monte Carlo sweeps through ``run_experiment``.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` it runs every workload; without ``--trace`` it makes
both an untraced and a traced run of each.  The untraced run (``--trace 0``)
reports the end-to-end metrics, the traced run (``--trace 1``) the
per-layer ones; see bench/README.md.  The timed passes run in a fresh
interpreter (bench/measure.py), and every time is normalised by a fixed
reference loop timed around it, which cancels most of the host's swings.  Output checks run after them; a rejected
row counts as a failed trial and makes the exit code 1.  Each run ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}``, so the
last line of standard output is the last run's result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import tracing  # noqa: E402
from measure import REF_NOMINAL_S  # noqa: E402
from workloads import (  # noqa: E402
    CHECK_BIPARTIZE,
    CHECK_DIGEST,
    CHECK_ORACLES,
    DEFAULT_SEED,
    WORKLOADS,
    experiment_seeds,
)

END_TO_END = {
    "norm_trials_per_s": "trials/s",
    "norm_serial_trials_per_s": "trials/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "sampling.busy_s": "s",
    "sampling.calls": "count",
    "sampling.ones": "count",
    "core.busy_s": "s",
    "core.calls": "count",
    "cuts.heuristic.busy_s": "s",
    "cuts.oracle.busy_s": "s",
    "cuts.oracle.colorings": "count",
    "cuts.oracle.colorings_per_s": "1/s",
    "bipartization.busy_s": "s",
    "bipartization.detect.calls": "count",
    "bipartization.detect.busy_s": "s",
    "bipartization.rematches": "count",
    "bipartization.terminated_frac": "ratio",
    "bipartization.cycles_per_rematch": "ratio",
    "bipartization.extract.busy_s": "s",
    "textio.busy_s": "s",
    "textio.calls": "count",
    "experiment.self_s": "s",
    "experiment.trial_ms.p50": "ms",
    "experiment.trial_ms.tail": "ms",
    "experiment.scaling_eff": "ratio",
    "experiment.csv_bytes": "bytes",
    "experiment.trace_overhead_frac": "ratio",
}

# What each `wrig-lab experiment` pays before its first trial.
SETUP_CODE = (
    "import sys; import wrig_lab.cli; "
    "from wrig_lab.experiment import ExperimentSpec; "
    "ExperimentSpec.from_file(sys.argv[1])"
)
SETUP_LAUNCHES = 11
# Experiment seeds of an untraced run's rounds; rounds past the last reuse them.
RUN_SEEDS = 64
# A run must end within 180 s; leave room for the checks after the passes.
DEADLINE_S = 160.0


class ChildFailed(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_child(argv: list[str], deadline: float) -> str:
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        raise ChildFailed(f"{argv[1]} timed out") from None
    finally:
        if proc.poll() is None:
            _kill_group(proc)
    if proc.returncode != 0:
        raise ChildFailed(f"{argv[1]} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def _kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL the child's group (it holds any pool workers) and wait it out."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def measure(
    spec: dict,
    seeds: list,
    modes: dict,
    budget: float,
    out: Path,
    trace: bool,
    deadline: float,
    setup_launches: int = 0,
) -> dict:
    cfg = {
        "spec": spec,
        "seeds": seeds,
        "modes": modes,
        "budget_s": budget,
        "out": str(out),
        "trace": trace,
        "setup": {
            "argv": [sys.executable, "-c", SETUP_CODE, str(out / "spec.json")],
            "launches": setup_launches,
        },
    }
    stdout = _run_child([sys.executable, str(BENCH / "measure.py"), json.dumps(cfg)], deadline)
    return json.loads(stdout.strip().splitlines()[-1])


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine_context(workers: int) -> dict:
    caches = _cache_sizes()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "workers": workers,
    }


def check_run(workload, spec: dict, text: str) -> dict[int, str]:
    """Rows of a serial CSV that fail the workload's output checks."""
    from wrig_lab.experiment import ExperimentSpec

    rows = checks.parse_csv(text)
    resolved = ExperimentSpec.from_dict(spec)
    rejects = checks.check_shape(rows, len(resolved.grid), resolved.trials)
    if CHECK_DIGEST in workload.checks and resolved.seed == DEFAULT_SEED:
        rejects.update(checks.check_digest(rows, text, workload.digest))
    if CHECK_BIPARTIZE in workload.checks:
        rejects.update(checks.check_bipartize(rows, resolved.max_rematch))
    if CHECK_ORACLES in workload.checks:
        rejects.update(checks.check_oracles(rows))
    return rejects


def references(passes: dict) -> dict[int, tuple[str, str]]:
    """Seed index -> (mode, CSV sha256) of its first pass, serial where it ran."""
    found: dict[int, tuple[str, str]] = {}
    for label, result in passes.items():  # "serial" comes first
        for k, digest in zip(result["seed_index"], result["digests"]):
            found.setdefault(k, (label, digest))
    return found


def count_failed(passes: dict, out: Path, checked: dict, per_pass: int) -> int:
    """Failed trials over every pass: rejected rows plus rows unlike the reference CSV.

    ``checked`` maps a seed index to the reference digest, rejects and rows
    of its reference CSV.  Every pass on that seed must write the same
    bytes.  Only the first CSV of each mode and seed is kept, so a later
    pass that differs counts whole.
    """
    failed = 0
    for label, result in passes.items():
        seen = set()
        for k, digest in zip(result["seed_index"], result["digests"]):
            reference, rejects, rows = checked[k]
            bad = dict(rejects)
            if digest != reference and k not in seen:
                text = (out / f"{label}-{k}.csv").read_text(encoding="utf-8")
                bad.update(checks.compare(rows, checks.parse_csv(text)))
            elif digest != reference:
                bad = {r: "differs from the reference CSV" for r in range(per_pass)}
            seen.add(k)
            failed += min(len(bad), per_pass)
    return failed


def _rate(result: dict) -> float:
    """Trials per second over all of a mode's passes, whatever their seeds."""
    return sum(result["trials"]) / sum(result["walls"])


def _norm_rate(result: dict) -> float:
    """Trials per second at the host speed where the reference loop takes REF_NOMINAL_S.

    Each pass's wall time is scaled by REF_NOMINAL_S over the reference
    loop's time around it.  Other tenants slow the loop and the pass alike,
    so the ratio cancels most of the host's swings.
    """
    walls = sum(w * REF_NOMINAL_S / r for w, r in zip(result["walls"], result["refs"]))
    return sum(result["trials"]) / walls


def _norm_setup(launches: list) -> float:
    """Median set-up time, each launch scaled like a pass (see _norm_rate)."""
    return statistics.median(wall * REF_NOMINAL_S / ref for wall, ref in launches)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; returns the contract result plus details."""
    workload = WORKLOADS[name]
    spec = workload.spec_dict(seed)
    seeds = experiment_seeds(seed, RUN_SEEDS)
    out = OUT / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
    from wrig_lab.experiment import ExperimentSpec

    per_pass = len(ExperimentSpec.from_dict(spec).grid) * spec["trials"]
    deadline = time.monotonic() + DEADLINE_S

    passes: dict[str, dict] = {}
    peak_rss_mb = 0.0
    errors: list[str] = []
    setup_times: list = []
    try:
        # a traced run leaves most of its time to the traced passes
        budget = seconds * 0.2 if trace else seconds
        untraced = measure(
            spec, seeds, {"serial": 1, "pool": None}, budget, out, False, deadline,
            0 if trace else SETUP_LAUNCHES,
        )
        passes.update(untraced["passes"])
        peak_rss_mb = untraced["peak_rss_mb"]
        setup_times = untraced["setup_times"]
        if trace:
            traced_seeds = seeds[: workload.traced_rounds]
            passes.update(
                measure(spec, traced_seeds, {"traced": 1}, 0.0, out, True, deadline)["passes"]
            )
    except ChildFailed as exc:
        errors.append(str(exc))

    attempted = sum(len(p["walls"]) * per_pass for p in passes.values())
    failed = 0
    bad_rows: dict[str, str] = {}
    if errors:
        # the pass that raised counts whole, and nothing after it ran
        attempted += per_pass
        failed += per_pass
    checked = {}
    for k, (label, digest) in sorted(references(passes).items()):
        text = (out / f"{label}-{k}.csv").read_text(encoding="utf-8")
        rejects = check_run(workload, dict(spec, seed=seeds[k]), text)
        checked[k] = (digest, rejects, checks.parse_csv(text))
        bad_rows.update({f"{k}:{row}": why for row, why in rejects.items()})
    failed += count_failed(passes, out, checked, per_pass)

    metrics: dict[str, float] = {}
    raw: dict[str, float] = {}
    tail_label = None
    if not errors:
        serial_rate = _norm_rate(passes["serial"])
        pool_rate = _norm_rate(passes["pool"])
        raw = {
            "trials_per_s": (_rate(passes["pool"]), "trials/s"),
            "serial_trials_per_s": (_rate(passes["serial"]), "trials/s"),
        }
        if setup_times:
            raw["raw_setup_s"] = (statistics.median(wall for wall, _ in setup_times), "s")
        if not trace:
            metrics = {
                "norm_trials_per_s": pool_rate,
                "norm_serial_trials_per_s": serial_rate,
                "setup_s": _norm_setup(setup_times),
                "peak_rss_mb": peak_rss_mb,
            }
        else:
            traced = passes["traced"]
            layers, tail_label = tracing.layer_metrics(
                tracing.read_spans(str(out / "spans.jsonl")), sum(traced["walls"])
            )
            workers = os.cpu_count() or 1
            layers["experiment.scaling_eff"] = pool_rate / (workers * serial_rate)
            layers["experiment.csv_bytes"] = (out / "serial-0.csv").stat().st_size
            serial = passes["serial"]
            same_inputs = [
                wall / ref
                for wall, ref, k in zip(serial["walls"], serial["refs"], serial["seed_index"])
                if k == 0
            ]
            layers["experiment.trace_overhead_frac"] = (
                traced["walls"][0] / traced["refs"][0] / statistics.median(same_inputs) - 1.0
            )
            metrics = layers
    units = PER_LAYER if trace else END_TO_END
    detail = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "context": machine_context(os.cpu_count() or 1),
        "spec": spec,
        "passes": passes,
        "setup_times": setup_times,
        "raw": raw,
        "tail_percentile": tail_label,
        "failed_frac": failed / attempted if attempted else 1.0,
        "errors": errors,
        "rejects": dict(list(bad_rows.items())[:20]),
    }
    result = {
        "correct": failed == 0 and not errors,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
    }
    (out / "result.json").write_text(
        json.dumps(dict(detail, result=result), indent=2) + "\n", encoding="utf-8"
    )
    return {"result": result, "detail": detail}


def report(outcome: dict) -> None:
    detail, result = outcome["detail"], outcome["result"]
    print(f"== {detail['workload']} seed={detail['seed']} trace={detail['trace']}")
    print("context " + json.dumps(detail["context"], sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}")
    for name, (value, unit) in detail["raw"].items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(f"  {'failed_frac':36s} {detail['failed_frac']:.6g} ratio")
    if detail["tail_percentile"]:
        print(f"  experiment.trial_ms.tail is {detail['tail_percentile']} of the traced trials")
    for error in detail["errors"]:
        print(f"  error: {error}", file=sys.stderr)
    for row, reason in list(detail["rejects"].items())[:5]:
        print(f"  rejected seed:row {row}: {reason}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args(argv)

    if not (SRC / "wrig_lab" / "__init__.py").is_file():
        print(f"error: no wrig_lab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.trace is None else (args.trace,)
    outcomes = []
    for name in names:
        for trace in traces:
            outcome = run_workload(name, args.seed, args.seconds, trace)
            report(outcome)
            print(json.dumps(outcome["result"]), flush=True)
            outcomes.append(outcome)
    return 0 if all(o["result"]["correct"] for o in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
