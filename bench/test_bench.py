"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402
from wrig_lab import experiment  # noqa: E402

# Each workload's config at a size that runs in well under a second.
SMALL = {
    "sweep-sparse": {"n": 1024, "trials": 3},
    "sweep-small": {"trials": 120},
    "bipartize-mixed": {"n": 60, "trials": 4},
    "exact-oracles": {"n": 10, "m": 10, "trials": 2},
}


def small_spec(name: str, seed: int = 7) -> experiment.ExperimentSpec:
    raw = dict(WORKLOADS[name].spec_dict(seed), **SMALL[name])
    return experiment.ExperimentSpec.from_dict(raw)


def csv_text(spec: experiment.ExperimentSpec, path: Path, workers: int = 1) -> str:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        experiment.run_experiment(dataclasses.replace(spec, output=str(path)), workers=workers)
    return path.read_text(encoding="utf-8")


def to_text(header: str, rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return header + "\n" + buf.getvalue()


@pytest.fixture(scope="module", params=list(SMALL))
def traced_run(request, tmp_path_factory):
    name = request.param
    spec = small_spec(name)
    tmp = tmp_path_factory.mktemp(name)
    before = tracing.originals()
    plain = csv_text(spec, tmp / "plain.csv")
    with tracing.traced() as tracer:
        traced = csv_text(spec, tmp / "traced.csv")
    return name, spec, before, plain, traced, tracer


def test_tracing_restores_the_wrapped_functions(traced_run):
    _, _, before, *_ = traced_run
    after = tracing.originals()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracing_restores_after_an_exception():
    before = tracing.originals()
    with pytest.raises(RuntimeError):
        with tracing.traced():
            assert experiment.sample_matrix is not before["experiment.sample_matrix"]
            raise RuntimeError("boom")
    assert all(tracing.originals()[k] is fn for k, fn in before.items())


def test_tracing_leaves_the_csv_bytes_unchanged(traced_run):
    _, _, _, plain, traced, _ = traced_run
    assert traced == plain


def test_layer_counts_match_the_spec(traced_run):
    name, spec, _, _, _, tracer = traced_run
    metrics, _ = tracing.layer_metrics(tracer.spans, wall=1.0)
    trials = len(spec.grid) * spec.trials
    assert metrics["sampling.calls"] == trials
    assert len(tracing.trial_times(tracer.spans)) == trials
    if name == "exact-oracles":
        assert metrics["cuts.oracle.colorings"] == 2 * trials * 2 ** (spec.grid[0].n - 1)
    if name == "bipartize-mixed":
        assert metrics["bipartization.detect.calls"] >= trials
    if name.startswith("sweep"):
        assert metrics["core.calls"] >= 4 * trials


def test_serial_and_pool_csvs_match(tmp_path):
    spec = small_spec("sweep-small")
    assert csv_text(spec, tmp_path / "a.csv", workers=2) == csv_text(spec, tmp_path / "b.csv")


@pytest.fixture(scope="module")
def baseline_rows(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("rows")
    return {name: csv_text(small_spec(name), tmp / f"{name}.csv") for name in SMALL}


def corrupt(text: str, row: int, **cells) -> tuple[list[dict], str]:
    rows = checks.parse_csv(text)
    rows[row].update({k: str(v) for k, v in cells.items()})
    return rows, to_text(text.splitlines()[0], rows)


def test_unmodified_csvs_pass_every_check(baseline_rows):
    for name, text in baseline_rows.items():
        rows = checks.parse_csv(text)
        spec = small_spec(name)
        assert checks.check_shape(rows, len(spec.grid), spec.trials) == {}
        assert checks.check_digest(rows, text, checks.sha256(text)) == {}
        assert checks.compare(rows, checks.parse_csv(text)) == {}
    assert checks.check_bipartize(checks.parse_csv(baseline_rows["bipartize-mixed"]), 10) == {}
    assert checks.check_oracles(checks.parse_csv(baseline_rows["exact-oracles"])) == {}


def test_shape_compare_and_digest_reject_a_corrupted_row(baseline_rows):
    text = baseline_rows["sweep-small"]
    spec = small_spec("sweep-small")
    rows = checks.parse_csv(text)
    half = int(rows[5]["total_offdiag"]) // 2
    bad, bad_text = corrupt(text, 5, random_weight=half + 1)
    assert set(checks.check_shape(bad, 1, spec.trials)) == {5}
    assert set(checks.compare(rows, bad)) == {5}
    assert len(checks.check_digest(bad, bad_text, checks.sha256(text))) == len(rows)
    bad, _ = corrupt(text, 7, trial=8)
    assert 7 in checks.check_shape(bad, 1, spec.trials)
    assert set(checks.compare(rows, rows[:-1])) == {len(rows) - 1}


def test_a_pass_unlike_the_serial_csv_counts_as_failed(tmp_path, baseline_rows):
    text = baseline_rows["sweep-small"]
    rows = checks.parse_csv(text)
    _, bad_text = corrupt(text, 3, random_weight=int(rows[3]["random_weight"]) + 1)
    (tmp_path / "serial-0.csv").write_text(text, encoding="utf-8")
    (tmp_path / "pool-0.csv").write_text(bad_text, encoding="utf-8")
    good, bad = checks.sha256(text), checks.sha256(bad_text)
    passes = {
        "serial": {"seed_index": [0, 0], "digests": [good, good]},
        "pool": {"seed_index": [0, 0], "digests": [bad, good]},
    }
    assert run.references(passes) == {0: ("serial", good)}
    checked = {0: (good, {}, rows)}
    assert run.count_failed(passes, tmp_path, checked, len(rows)) == 1
    # a later pass is not kept, so all of it counts
    passes["pool"]["digests"][1] = bad
    assert run.count_failed(passes, tmp_path, checked, len(rows)) == 1 + len(rows)


@pytest.mark.parametrize(
    "cells",
    [
        lambda row: {"bipartize_iterations": 11},
        lambda row: {"bipartize_weight": ""},
        lambda row: {"bipartize_disc": 3},
        lambda row: {"bipartize_weight": -1},
        lambda row: {"bipartize_weight": int(row["total_offdiag"]) // 2 + 1},
    ],
)
def test_bipartize_check_rejects_a_corrupted_row(baseline_rows, cells):
    text = baseline_rows["bipartize-mixed"]
    rows = checks.parse_csv(text)
    row = next(i for i, r in enumerate(rows) if r["bipartize_terminated"] == "1")
    bad, _ = corrupt(text, row, **cells(rows[row]))
    assert set(checks.check_bipartize(bad, 10)) == {row}


@pytest.mark.parametrize("column", ["exact_weight", "mindisc_disc", "total_offdiag"])
def test_oracle_check_rejects_a_corrupted_row(baseline_rows, column):
    text = baseline_rows["exact-oracles"]
    rows = checks.parse_csv(text)
    bad, _ = corrupt(text, 1, **{column: int(rows[1][column]) + 1})
    assert set(checks.check_oracles(bad)) == {1}


def test_enumeration_matches_a_hand_example():
    from wrig_lab.core import RepresentationMatrix

    # One label over three vertices: best split 2 + 1 cuts 2 edges, disc 1.
    R = RepresentationMatrix.from_label_sets(3, [[0, 1, 2]])
    assert checks.enumerate_optima(R) == (2, 1)


def test_norm_rate_scales_each_pass_by_its_reference():
    ref = measure.REF_NOMINAL_S
    # the second pass ran while the host was twice as slow
    result = {"walls": [1.0, 2.0], "refs": [ref, 2 * ref], "trials": [10, 10]}
    assert run._norm_rate(result) == pytest.approx(10.0)
    assert run._rate(result) == pytest.approx(20 / 3)


def test_host_speed_probes_end_on_exit():
    with measure.HostSpeed(sorted(os.sched_getaffinity(0))) as host:
        assert host.sample(1) > 0 and host.sample(2) > 0
        probes = list(host.procs)
    assert not any(proc.is_alive() for proc in probes)


def test_metric_names_and_units_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sweep-small",
         "--seed", str(DEFAULT_SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == names


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-small", "--seconds", "1",
         "--seed", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
