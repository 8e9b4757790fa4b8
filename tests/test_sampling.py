import hashlib
import math

import numpy as np
import pytest

from helpers import derive_seed
from wrig_lab import sampling
from wrig_lab.core import InputError, RepresentationMatrix
from wrig_lab.sampling import (
    ModelParams,
    _sample_dense,
    _sample_sparse,
    derive_rng,
    label_count_for_alpha,
    sample_matrix,
)
from wrig_lab.textio import format_matrix

CHI2_CRIT_DF2_999 = 13.815  # 0.999 quantile of chi-square with 2 dof


def test_p_zero_gives_empty_sets():
    R = sample_matrix(ModelParams.fixed(5, 4, 0.0), seed=7)
    assert all(L == () for L in R.label_sets)


def test_p_one_gives_full_sets():
    R = sample_matrix(ModelParams.fixed(3, 2, 1.0), seed=0)
    assert R.label_sets == ((0, 1, 2), (0, 1, 2))


def test_entry_count_near_mean_at_c2():
    params = ModelParams.from_c(1000, 2.0)
    R = sample_matrix(params, seed=123)
    ones = R.diagonal_sum()
    slack = 5 * math.sqrt(2000 * (1 - 0.002))
    assert 2000 - slack <= ones <= 2000 + slack


def test_identical_seed_reproduces_bytes():
    params = ModelParams.from_c(500, 1.5)
    a = format_matrix(sample_matrix(params, seed=99))
    b = format_matrix(sample_matrix(params, seed=99))
    assert a == b
    assert format_matrix(sample_matrix(params, seed=100)) != a


# sha256 of the WRIG text of the matrices drawn for seeds 0..k-1, captured
# from the tuple-backed sampler: the array-backed one must draw the same ones.
@pytest.mark.parametrize(
    "params, seeds, digest",
    [
        (
            ModelParams.fixed(3000, 40, 0.004),
            5,
            "6573b7da0e06ee07c0b8f8248991a95e401c77ceb58b7e09c3438c19f0e753d9",
        ),
        (
            ModelParams.from_c(700, 1.5),
            5,
            "4f9a7b97cdcb5a178a5dd20019e0cab0029a22c4306c75609e370955630f945d",
        ),
        (
            ModelParams.fixed(1000, 203, 0.2),
            3,
            "90eb698bc5ee4494d8853d2cd54ce1c2550da64e9866417b9fa034b700703424",
        ),
        (
            ModelParams.fixed(7, 13, 0.5),
            5,
            "2083289a72a173cc03f1ff63da83b1ecc29d6c414c1b679ca33da10bd98f31c9",
        ),
    ],
    ids=["sparse_fixed", "sparse_c", "dense_many_chunks", "dense_small"],
)
def test_sampled_matrices_are_pinned(params, seeds, digest):
    h = hashlib.sha256()
    for seed in range(seeds):
        h.update(format_matrix(sample_matrix(params, seed)).encode("utf-8"))
    assert h.hexdigest() == digest


def test_derived_streams_are_stable_and_distinct():
    first = derive_rng(5, 0).integers(0, 2**32, size=4)
    again = derive_rng(5, 0).integers(0, 2**32, size=4)
    other_trial = derive_rng(5, 1).integers(0, 2**32, size=4)
    other_seed = derive_rng(6, 0).integers(0, 2**32, size=4)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other_trial)
    assert not np.array_equal(first, other_seed)
    assert derive_seed(5, 0) == derive_seed(5, 0) != derive_seed(5, 1)


def test_entry_marginal_frequency():
    # Per-entry marginal over 1e5 independent draws at n = m = 8.
    params = ModelParams.fixed(8, 8, 0.3)
    trials = 100_000
    hits = 0
    for t in range(trials):
        R = sample_matrix(params, derive_seed(8080, t))
        if 0 in R.label_sets[0]:
            hits += 1
    se = math.sqrt(0.3 * 0.7 / trials)
    assert abs(hits / trials - 0.3) <= 4 * se


def _ones_histogram(sampler, params, rng_seeds):
    counts = [0, 0, 0]  # 0 ones, 1 one, 2+ ones
    for s in rng_seeds:
        R = sampler(params, derive_rng(s))
        k = R.diagonal_sum()
        counts[min(k, 2)] += 1
    return counts


def _chi_square(counts, probs):
    total = sum(counts)
    return sum(
        (observed - total * prob) ** 2 / (total * prob)
        for observed, prob in zip(counts, probs)
    )


@pytest.mark.parametrize("sampler", [_sample_dense, _sample_sparse])
def test_sampler_paths_share_the_bernoulli_law(sampler):
    # Dense iteration and geometric skipping must sample identical laws;
    # chi-square the ones-count of a 2x2 grid at p=0.05 against the exact
    # binomial distribution for each path.
    params = ModelParams.fixed(2, 2, 0.05)
    q = 0.95
    probs = [q**4, 4 * 0.05 * q**3, 1 - q**4 - 4 * 0.05 * q**3]
    counts = _ones_histogram(sampler, params, range(20_000))
    assert _chi_square(counts, probs) < CHI2_CRIT_DF2_999


def test_sparse_path_is_used_and_agrees_on_marginal():
    # Below the threshold the public entry point takes the skip path.
    params = ModelParams.fixed(6, 6, 0.05)
    assert sample_matrix(params, 3) == _sample_sparse(params, derive_rng(3))
    trials = 40_000
    hits = sum(
        1 for t in range(trials) if 0 in sample_matrix(params, derive_seed(42, t)).label_sets[0]
    )
    se = math.sqrt(0.05 * 0.95 / trials)
    assert abs(hits / trials - 0.05) <= 4 * se


@pytest.mark.parametrize("p", [1e-17, 1e-300, 5e-324])
def test_sparse_path_draws_at_the_smallest_p(p):
    # Gaps near 2^63 (numpy's geometric returns 2^63 - 1 at the smallest p)
    # must leave the grid, not wrap the running cell position.
    R = sample_matrix(ModelParams.fixed(10, 10, p), seed=0)
    assert R.diagonal_sum() == 0 and len(R.indptr) == 11


@pytest.mark.parametrize("seed", range(3))
def test_sparse_path_draws_on_a_grid_near_2_to_the_62(seed):
    # 2^62 + 2^40 cells at p = 1e-18: about 4.6 expected ones.
    params = ModelParams.fixed(1 << 40, (1 << 22) + 1, 1e-18)
    R = sample_matrix(params, seed)
    assert 1 <= R.diagonal_sum() <= 20
    assert RepresentationMatrix.from_csr(R.n, R.indptr, R.indices) == R


def test_sparse_path_gives_valid_matrices_across_p():
    for p in np.logspace(-20, math.log10(0.08), 60):
        for seed in range(5):
            for n, m in ((10, 10), (300, 70)):
                R = sample_matrix(ModelParams.fixed(n, m, float(p)), seed)
                assert RepresentationMatrix.from_csr(n, R.indptr, R.indices) == R


def test_sparse_path_draws_continuation_batches():
    # A first batch of gaps of 1 ends inside the 10^4-cell grid, so the
    # sampler must draw further 256-gap batches until one runs past it.
    params = ModelParams.fixed(100, 100, 0.01)
    real = derive_rng(5)
    drawn = []

    class ShortFirstBatch:
        def geometric(self, p, size):
            gaps = real.geometric(p, size=size) if drawn else np.ones(size, dtype=np.int64)
            drawn.append(gaps)
            return gaps

    R = _sample_sparse(params, ShortFirstBatch())
    assert len(drawn) >= 2 and {len(gaps) for gaps in drawn[1:]} == {256}
    cells = np.cumsum(np.concatenate(drawn)) - 1
    cells = cells[cells < params.m * params.n]
    assert R == RepresentationMatrix.from_label_sets(
        params.n, [cells[cells // params.n == l] % params.n for l in range(params.m)]
    )


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams.fixed(0, 3, 0.5)
    with pytest.raises(ValueError):
        ModelParams.fixed(3, 0, 0.5)
    with pytest.raises(ValueError):
        ModelParams.fixed(3, 3, 1.5)
    with pytest.raises(InputError, match="need n >= 1, got n=0"):
        ModelParams.from_c(0, 0.5)
    for c in (200, -0.5, math.nan):
        with pytest.raises(InputError, match=rf"need 0 <= c <= n, got c={c}, n=100"):
            ModelParams.from_c(100, c)
    assert ModelParams.from_c(100, 100).p == 1.0
    # The samplers' int64 grid positions l*n + v bound n*m below 2^63.
    assert ModelParams.fixed(1 << 32, (1 << 31) - 1, 0.5).m == (1 << 31) - 1
    with pytest.raises(InputError, match="n=4294967296, m=2147483648"):
        ModelParams.fixed(1 << 32, 1 << 31, 0.5)
    with pytest.raises(InputError, match=r"need n\*m < 2\^63, got n=10, m=1000"):
        ModelParams.from_alpha(10, 300, 0.1)


def test_sampler_bounds_the_expected_ones(monkeypatch):
    # Both paths refuse before drawing: 10^12 ones on the dense path (10^13
    # cells), 10^10 on the sparse one.
    for p in (0.1, 0.001):
        with pytest.raises(InputError, match=r"exceeds the sampler's bound 33554432"):
            sample_matrix(ModelParams.fixed(10, 10**13, p), seed=0)
    monkeypatch.setattr(sampling, "_MAX_EXPECTED_ONES", 100)
    assert sample_matrix(ModelParams.fixed(10, 10, 1.0), seed=0).diagonal_sum() == 100
    for m, p in ((11, 1.0), (2000, 0.0051)):
        with pytest.raises(InputError, match=rf"for n=10, m={m}, p={p}$"):
            sample_matrix(ModelParams.fixed(10, m, p), seed=0)


@pytest.mark.parametrize("n, m, p", [(1, 2**40, 0.0), (2**32, 2**31 - 1, 4e-19)])
def test_sampler_bounds_the_labels(n, m, p):
    # Few expected ones, but m + 1 row pointers would not fit in memory.
    with pytest.raises(InputError, match=rf"^m={m} exceeds the sampler's label bound 33554432"):
        sample_matrix(ModelParams.fixed(n, m, p), seed=0)


def test_alpha_floor_uses_exact_powers():
    assert label_count_for_alpha(1024, 0.5) == 32
    assert label_count_for_alpha(4096, 0.5) == 64
    assert label_count_for_alpha(1000, 0.5) == 31
    assert ModelParams.from_alpha(256, 0.5, 0.01).m == 16


def test_regime_warning_window():
    inside = ModelParams.fixed(100, 100, 0.02)  # window [0.01, 0.1]
    assert inside.regime_warning() is None
    assert ModelParams.fixed(100, 100, 0.005).regime_warning() is not None
    assert ModelParams.fixed(100, 100, 0.5).regime_warning() is not None
