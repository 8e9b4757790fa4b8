"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Statistical criteria use fixed seeds, so outcomes
are reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest

from helpers import build_graph, cut_weight_direct, derive_seed, enumeration_oracle
from wrig_lab.bipartization import (
    count_sequences_exact,
    expected_sequence_count,
    weak_bipartization,
)
from wrig_lab.core import Coloring, cut_weight, discrepancy, norm_sq
from wrig_lab.cuts import (
    beta_lower_bound,
    brute_force_max_cut,
    brute_force_min_discrepancy,
    random_cut,
)
from wrig_lab.experiment import ExperimentSpec, run_experiment
from wrig_lab.sampling import ModelParams, derive_rng, sample_matrix


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {number:02d}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


def _cv_stderr(cv: float, count: int) -> float:
    # Delta-method standard error of a sample coefficient of variation.
    return cv * math.sqrt(1.0 / (2.0 * (count - 1)) + cv * cv / count)


def _ratio_of_means_stderr(num: np.ndarray, den: np.ndarray) -> float:
    # Delta-method standard error of mean(num)/mean(den) over paired samples:
    # the spread of the residuals num - r*den, scaled by mean(den)*sqrt(count).
    ratio = num.mean() / den.mean()
    return (num - ratio * den).std(ddof=1) / (den.mean() * math.sqrt(len(num)))


def test_criterion_01_integer_identities():
    """10^4 random (R, x): cut identity and entry-sum identity, exactly."""
    start = time.perf_counter()
    rng = derive_rng(101)
    ps = (0.1, 0.3, 0.7)
    for t in range(10_000):
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 13))
        R = sample_matrix(ModelParams.fixed(n, m, ps[t % 3]), derive_seed(102, t))
        x = Coloring(tuple(int(v) for v in rng.integers(0, 2, size=n) * 2 - 1))
        direct = cut_weight_direct(build_graph(R), x)
        identity = cut_weight(R, x)
        assert identity == direct
        assert 4 * identity + norm_sq(R, x) == R.entry_sum()
    elapsed = time.perf_counter() - start
    _report(1, elapsed < 10.0, f"10000 instances, exact identities, {elapsed:.1f}s (< 10s)")


def test_criterion_02_low_discrepancy_equivalence():
    """On 500 instances with optimal discrepancy <= 1, the colorings that
    minimize |Rx|^2 are exactly those that minimize |Rx|_inf."""
    start = time.perf_counter()
    rng = derive_rng(201)
    kept = tries = 0
    while kept < 500:
        tries += 1
        assert tries < 10_000, "filter acceptance rate collapsed"
        n = int(rng.integers(6, 13))
        m = int(rng.integers(2, 6))
        p = float(rng.choice((0.2, 0.3, 0.5)))
        R = sample_matrix(ModelParams.fixed(n, m, p), derive_seed(202, tries))
        if brute_force_min_discrepancy(R)[1] > 1:
            continue
        kept += 1
        _, normsq, disc = enumeration_oracle(R)
        assert np.array_equal(normsq == normsq.min(), disc == disc.min()), (
            f"argmin sets differ on instance {tries}"
        )
    elapsed = time.perf_counter() - start
    _report(2, True, f"500 filtered instances ({tries} sampled), argmin sets equal, {elapsed:.1f}s")


def test_criterion_03_random_cut_expectation():
    """Empirical mean of 1e5 random cuts within 4 SE of offdiag/4."""
    start = time.perf_counter()
    R = sample_matrix(ModelParams.fixed(10, 10, 0.3), seed=33)
    target = (R.entry_sum() - R.diagonal_sum()) / 4
    weights = np.array([random_cut(R, s).weight for s in range(100_000)], dtype=float)
    se = weights.std(ddof=1) / math.sqrt(len(weights))
    gap = abs(weights.mean() - target)
    elapsed = time.perf_counter() - start
    ok = gap <= 4 * se and elapsed < 30.0
    _report(3, ok, f"mean={weights.mean():.3f} target={target} gap={gap:.3f} "
                   f"(4se={4*se:.3f}), {elapsed:.1f}s (< 30s)")


def test_criterion_04_random_cut_trend_alpha_half():
    """Random/majority weight ratio rises toward 1 along an alpha=0.5 sweep.

    No cut weighs more than total/4 and a random cut weighs offdiag/4 in
    expectation, so the ratio r(n) sits near the model's floor
    rho(n) = E[offdiag]/E[total] = (n-1)p / ((n-1)p + 1). With m = floor(sqrt(n))
    and p = 1/sqrt(nm), rho tends to 1 like n^(-1/4), the paper's asymptotic
    claim, and crosses 0.95 only near n ~ 1.3e5. Asserted at every sweep point:
    r(n) >= rho(n) - 3 SE(n), SE the delta-method error of the ratio of means.
    """
    spec = ExperimentSpec.from_dict({
        "name": "trend", "regime": "alpha-sweep", "n": [256, 1024, 4096],
        "alpha": 0.5, "p_rule": "inv_sqrt_nm", "trials": 200,
        "algorithms": ["random", "majority"], "epsilon": 0.01, "seed": 401,
    })
    records, stats = run_experiment(spec)
    ratios = [1.0 / g.ratios["majority_over_random"] for g in stats.grid]
    detail = "ratios " + ", ".join(f"n={g.n}: {r:.4f}" for g, r in zip(stats.grid, ratios))
    assert all(r > 0.5 for r in ratios), detail  # expectation sandwich
    assert all(a <= b for a, b in zip(ratios, ratios[1:])), detail
    ok = True
    points = []
    for g, r in zip(stats.grid, ratios):
        params = spec.grid[g.grid_id]
        others_per_label = (params.n - 1) * params.p
        rho = others_per_label / (others_per_label + 1.0)
        rows = [rec for rec in records if rec.grid_id == g.grid_id]
        se = _ratio_of_means_stderr(
            np.array([rec.random_weight for rec in rows], dtype=float),
            np.array([rec.majority_weight for rec in rows], dtype=float),
        )
        ok = ok and r >= rho - 3 * se
        points.append(f"n={g.n}: r={r:.4f} rho={rho:.4f} se={se:.4f}")
    _report(4, ok, "; ".join(points) + " (need r >= rho - 3se at every n; "
                   "rho crosses 0.95 only near n ~ 1.3e5)")


def test_criterion_05_majority_beats_random_at_c10():
    """Paired majority-vs-random gap at n=m=2000, c=10: one-sided z >= 5."""
    start = time.perf_counter()
    spec = ExperimentSpec.from_dict({
        "name": "majority-gain", "regime": "c-sweep", "n": [2000], "c": [10.0],
        "trials": 200, "algorithms": ["random", "majority"],
        "epsilon": 0.01, "seed": 501,
    })
    records, stats = run_experiment(spec)
    diffs = np.array(
        [r.majority_weight - r.random_weight for r in records], dtype=float
    )
    z = diffs.mean() / (diffs.std(ddof=1) / math.sqrt(len(diffs)))
    beta_hat = stats.grid[0].ratios["beta_hat"]
    bound = beta_lower_bound(10)
    elapsed = time.perf_counter() - start
    ok = diffs.mean() > 0 and z >= 5.0 and elapsed < 120.0
    _report(5, ok, f"mean gap={diffs.mean():.1f} z={z:.1f} (>= 5), "
                   f"beta_hat={beta_hat:.5f} vs beta_lower_bound(10)={bound:.6f}, "
                   f"{elapsed:.1f}s (< 120s)")


def test_criterion_06_bipartization_optimality():
    """Terminated, label-disjoint runs yield exactly optimal cut and
    discrepancy on 500 small instances at c = 0.5."""
    start = time.perf_counter()
    conditioned = cut_hits = disc_hits = terminated = 0
    for i in range(500):
        n = 10 + i % 5
        R = sample_matrix(ModelParams.from_c(n, 0.5), derive_seed(600, i))
        outcome = weak_bipartization(R, derive_seed(601, i))
        if not outcome.terminated:
            continue
        terminated += 1
        if not outcome.label_disjoint:
            continue
        conditioned += 1
        x = outcome.coloring
        cut_hits += cut_weight(R, x) == brute_force_max_cut(R).weight
        disc_hits += discrepancy(R, x) == brute_force_min_discrepancy(R)[1]
    elapsed = time.perf_counter() - start
    ok = (
        conditioned > 0
        and cut_hits == conditioned
        and disc_hits == conditioned
        and elapsed < 120.0
    )
    _report(6, ok, f"terminated={terminated}/500 conditioned={conditioned} "
                   f"optimal cut {cut_hits}/{conditioned}, optimal disc "
                   f"{disc_hits}/{conditioned}, {elapsed:.1f}s (< 120s)")


def test_criterion_07_termination_below_one():
    """c in {0.25, 0.5, 0.75} at n=1000: termination >= 0.99 and bounded
    re-matching effort in >= 95% of terminated runs."""
    start = time.perf_counter()
    spec = ExperimentSpec.from_dict({
        "name": "termination", "regime": "c-sweep", "n": [1000],
        "c": [0.25, 0.5, 0.75], "trials": 200, "algorithms": ["bipartize"],
        "seed": 701,
    })
    with pytest.warns(UserWarning, match="outside the studied window"):
        records, stats = run_experiment(spec)
    log2n = math.ceil(math.log2(1000))
    details = []
    ok = True
    for g in stats.grid:
        rows = [r for r in records if r.grid_id == g.grid_id]
        term = [r for r in rows if r.bipartize_terminated]
        bound_ok = sum(
            r.bipartize_iterations <= log2n * (r.bipartize_codd_encounters + 1)
            for r in term
        )
        frac_term = len(term) / len(rows)
        frac_bound = bound_ok / len(term)
        ok = ok and frac_term >= 0.99 and frac_bound >= 0.95
        details.append(f"c={g.p * g.n:.2f}: term={frac_term:.3f} bound={frac_bound:.3f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _report(7, ok, "; ".join(details) + f", {elapsed:.1f}s (< 120s)")


def test_criterion_08_sequence_count_formula():
    """Monte Carlo mean of the exact cycle counter matches the closed-form
    expectation within 3 SE; plus an exact spot value."""
    start = time.perf_counter()
    spot = expected_sequence_count(5, 5, 0.2, 3)
    assert abs(spot - 0.0768) <= 1e-12, f"spot value {spot!r}"
    params = ModelParams.fixed(8, 8, 0.25)
    trials = 100_000
    counts = np.array(
        [
            count_sequences_exact(sample_matrix(params, derive_seed(801, t)), 3)
            for t in range(trials)
        ],
        dtype=float,
    )
    expected = expected_sequence_count(8, 8, 0.25, 3)
    se = counts.std(ddof=1) / math.sqrt(trials)
    gap = abs(counts.mean() - expected)
    elapsed = time.perf_counter() - start
    ok = gap <= 3 * se and elapsed < 180.0
    _report(8, ok, f"mean={counts.mean():.4f} expected={expected:.4f} "
                   f"gap={gap:.4f} (3se={3*se:.4f}), spot=0.0768 exact, "
                   f"{elapsed:.1f}s (< 180s)")


def test_sequence_count_formula_at_n_1000():
    """Criterion 08 in the c-sweep regime: at n = m = 1000, p = c/n, the
    Monte Carlo mean of the exact k = 3 count matches the expectation within
    3 SE for c = 1 and 2."""
    trials = 200
    for c in (1.0, 2.0):
        params = ModelParams.from_c(1000, c)
        counts = np.array(
            [
                count_sequences_exact(sample_matrix(params, derive_seed(808, t)), 3)
                for t in range(trials)
            ],
            dtype=float,
        )
        expected = expected_sequence_count(1000, 1000, c / 1000, 3)
        se = counts.std(ddof=1) / math.sqrt(trials)
        z = (counts.mean() - expected) / se
        print(f"[count n=1000 c={c:g}] mean={counts.mean():.3f} expected={expected:.3f} "
              f"z={z:+.2f}", flush=True)
        assert abs(z) <= 3, f"c={c}: z={z:+.2f}"


def test_criterion_09_concentration_trend():
    """Relative spread of the off-diagonal mass (and of the normalized
    majority cut) shrinks as n grows at fixed c = 2."""
    spec = ExperimentSpec.from_dict({
        "name": "concentration", "regime": "c-sweep", "n": [500, 1000, 2000],
        "c": [2.0], "trials": 300, "algorithms": ["majority"],
        "epsilon": 0.01, "seed": 901,
    })
    _, stats = run_experiment(spec)

    def decreases_with_tolerance(values, counts):
        violations = []
        for i, (a, b) in enumerate(zip(values, values[1:])):
            if b >= a:
                slack = 2 * math.hypot(
                    _cv_stderr(a, counts[i]), _cv_stderr(b, counts[i + 1])
                )
                violations.append(b - a <= slack)
        return len(violations) <= 1 and all(violations)

    counts = [g.trials for g in stats.grid]
    offdiag_cvs = [g.offdiag_cv for g in stats.grid]
    proxy_cvs = [g.algorithms["majority"].normalized_cv for g in stats.grid]
    ok = decreases_with_tolerance(offdiag_cvs, counts) and decreases_with_tolerance(
        proxy_cvs, counts
    )
    _report(9, ok, "offdiag cv " + ", ".join(f"{v:.5f}" for v in offdiag_cvs)
                   + "; majority-proxy cv " + ", ".join(f"{v:.5f}" for v in proxy_cvs))


def test_criterion_10_byte_identical_reruns(tmp_path):
    """Identical spec => identical CSV bytes, across reruns and 1 vs 8 workers."""
    def run(csv_name, workers):
        spec = ExperimentSpec.from_dict({
            "name": "determinism", "regime": "fixed", "n": 10, "m": 10, "p": 0.2,
            "trials": 6, "seed": 7,
            "algorithms": ["random", "majority", "exact", "mindisc", "bipartize"],
            "output": str(tmp_path / csv_name),
        })
        run_experiment(spec, workers=workers)
        return (tmp_path / csv_name).read_bytes()

    first = run("a.csv", 1)
    second = run("b.csv", 1)
    eight = run("c.csv", 8)
    ok = first == second == eight
    _report(10, ok, f"{len(first)} CSV bytes identical across reruns and worker counts 1/8")
