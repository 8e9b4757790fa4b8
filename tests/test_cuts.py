import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    enumeration_oracle,
    majority_reference,
    matrices,
    oracle_max_cut_weight,
    oracle_min_discrepancy,
)
from wrig_lab import cuts
from wrig_lab.core import InputError, RepresentationMatrix, cut_weight, discrepancy
from wrig_lab.experiment import ExperimentSpec, run_experiment
from wrig_lab.sampling import ModelParams, derive_rng, sample_matrix
from wrig_lab.cuts import (
    beta_lower_bound,
    brute_force_max_cut,
    brute_force_min_discrepancy,
    majority_cut,
    random_cut,
)

TWO_PATH = RepresentationMatrix.from_label_sets(3, [[0, 1], [1, 2]])
WEAK_TRIANGLE = RepresentationMatrix.from_label_sets(3, [[0, 1], [1, 2], [0, 2]])
TRIANGLE = RepresentationMatrix.from_label_sets(3, [[0, 1, 2]])
EDGE_FREE = RepresentationMatrix.from_label_sets(4, [[], [0]])
OVER_CAP = RepresentationMatrix.from_label_sets(25, [[0, 1]])


# --- random cut ---


def test_random_cut_edge_free_is_zero():
    assert random_cut(EDGE_FREE, seed=3).weight == 0


def test_random_cut_mean_matches_quarter_offdiag():
    # E[weight] = offdiag/4 = 1 for the two-label path.
    weights = np.array([random_cut(TWO_PATH, s).weight for s in range(10_000)], dtype=float)
    se = weights.std(ddof=1) / math.sqrt(len(weights))
    assert abs(weights.mean() - 1.0) <= 4 * se


def test_random_cut_triangle_distribution():
    # Unit triangle: weight 2 unless the coloring is monochromatic (prob 1/4).
    weights = [random_cut(TRIANGLE, s).weight for s in range(8_000)]
    assert set(weights) <= {0, 2}
    freq2 = weights.count(2) / len(weights)
    se = math.sqrt(0.75 * 0.25 / len(weights))
    assert abs(freq2 - 0.75) <= 4 * se


def test_random_cut_deterministic_per_seed():
    assert random_cut(TWO_PATH, 11) == random_cut(TWO_PATH, 11)


# sha256 of the random-cut colorings over RANDOM_CUT_SEEDS, captured from
# the int64 `integers(0, 2) * 2 - 1` build.  The experiment CSVs pin only
# weights; these pin the colorings themselves.  Odd n matters because numpy
# draws the bits from paired 32-bit words.
RANDOM_CUT_SEEDS = (0, 1, 2009, 2**64 - 1)
PINNED_RANDOM_CUTS = {
    1: "ad95131bc0b799c0b1af477fb14fcf26a6a9f76079e48bf090acb7e8367bfd0e",
    2: "68dde90126126441f601c4b4d49d0e9f7b6c2a557887d46a09b71b98d26c8bb5",
    3: "3964483194776f0e4b0781b97ec57fda3c1d56187303d9031ac75bde5db4fb9f",
    100: "afae854b86db09c77593e4b50ef7921bcc5c7476cb4dd53c227ab4c010a48155",
    2**18 + 1: "19159bdfb02d07c425607eb0eaf1ced07c4e589f0f0ecedb75c3eb92d1da4ec0",
}


@pytest.mark.parametrize("n", sorted(PINNED_RANDOM_CUTS))
def test_random_cut_colorings_are_pinned(n):
    R = RepresentationMatrix.from_label_sets(n, [])
    digest = hashlib.sha256()
    for seed in RANDOM_CUT_SEEDS:
        digest.update(random_cut(R, seed).coloring.values.tobytes())
    assert digest.hexdigest() == PINNED_RANDOM_CUTS[n]


# --- majority cut ---


def test_majority_hand_trace():
    res = majority_cut(TWO_PATH, 0.0, seed=1)
    assert tuple(res.coloring.values) == (-1, 1, -1)
    assert res.weight == 2


def test_majority_edge_free_all_minus():
    res = majority_cut(EDGE_FREE, 0.0, seed=0)
    assert tuple(res.coloring.values) == (-1, -1, -1, -1)
    assert res.weight == 0


def test_majority_deterministic_per_seed():
    assert majority_cut(WEAK_TRIANGLE, 0.5, seed=9) == majority_cut(WEAK_TRIANGLE, 0.5, seed=9)


def test_majority_epsilon_one_matches_random_in_distribution():
    # At epsilon = 1 the whole coloring is the random prefix, drawn as
    # random_cut draws its signs: the same coloring for every seed.
    matrices = [
        RepresentationMatrix.from_label_sets(
            8, [[0, 1, 4], [2, 3], [1, 5, 6], [0, 7], [3, 4, 6], [2, 5]]
        ),
        RepresentationMatrix.from_label_sets(7, [[0, 1, 2], [2, 3], [4, 5, 6], [0, 6]]),
        RepresentationMatrix.from_label_sets(1, [[0]]),
        sample_matrix(ModelParams.fixed(10_001, 100, 0.002), 7),
    ]
    for R in matrices:
        for seed in [*range(100 if R.n < 1000 else 10), *RANDOM_CUT_SEEDS]:
            maj, rnd = majority_cut(R, 1.0, seed), random_cut(R, seed)
            assert maj.coloring == rnd.coloring
            assert maj.weight == rnd.weight


# majority_cut either colors single-label runs in closed form or visits
# every labelled vertex, as ``_runs_pay`` decides from R; these force each.
SWEEPS = {"runs": lambda n_single, n_multi: True, "vertices": lambda n_single, n_multi: False}


def majority_colors(R, epsilon, seed, sweep):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cuts, "_runs_pay", SWEEPS[sweep])
        res = majority_cut(R, epsilon, seed)
    assert res.weight == cut_weight(R, res.coloring)
    return tuple(res.coloring.values.tolist())


def test_majority_skips_unlabelled_vertices_like_the_full_loop():
    # Vertices 1 and 3 lie inside the random prefix of 4, vertices 6, 9 and
    # 10 past it; none of them has a label.
    R = RepresentationMatrix.from_label_sets(
        11, [[0, 2, 5], [2, 4, 7], [5, 8], [0, 4, 8]]
    )
    assert [v for v in range(R.n) if not any(v in L for L in R.label_sets)] == [1, 3, 6, 9, 10]
    for seed in range(40):
        res = majority_cut(R, 4 / 11, seed)
        assert tuple(res.coloring.values) == majority_reference(R, 4 / 11, seed)
        for sweep in SWEEPS:
            assert majority_colors(R, 4 / 11, seed, sweep) == majority_reference(R, 4 / 11, seed)


@settings(deadline=None, max_examples=80)
@given(matrices(max_n=12, max_m=8), st.sampled_from([0.0, 0.25, 0.5, 1.0]))
def test_majority_matches_the_full_loop(R, epsilon):
    res = majority_cut(R, epsilon, 17)
    assert tuple(res.coloring.values) == majority_reference(R, epsilon, 17)
    for sweep in SWEEPS:
        assert majority_colors(R, epsilon, 17, sweep) == majority_reference(R, epsilon, 17)


@st.composite
def run_matrices(draw):
    """Few labels; most vertices in exactly one, a handful in several."""
    n = draw(st.integers(min_value=1, max_value=300))
    m = draw(st.integers(min_value=1, max_value=4))
    own = draw(st.lists(st.integers(-1, m - 1), min_size=n, max_size=n))
    label_sets = [{v for v in range(n) if own[v] == l} for l in range(m)]
    extra = st.tuples(st.integers(0, n - 1), st.sets(st.integers(0, m - 1), min_size=1))
    for v, labels in draw(st.lists(extra, max_size=8)):
        for l in labels:
            label_sets[l].add(v)
    return RepresentationMatrix.from_label_sets(n, label_sets)


@pytest.mark.parametrize("sweep", SWEEPS)
@settings(deadline=None, max_examples=60)
@given(run_matrices(), st.sampled_from([0.0, 0.01, 0.1, 0.3, 1.0]), st.integers(0, 2**32))
def test_majority_runs_match_the_full_loop(sweep, R, epsilon, seed):
    assert majority_colors(R, epsilon, seed, sweep) == majority_reference(R, epsilon, seed)


# Label 0 holds every vertex; every 7th vertex also has label 1, so label 0
# alternates 28 times between a run and a multi-label vertex.
ALTERNATING = RepresentationMatrix.from_label_sets(200, [range(200), range(3, 200, 7)])


@pytest.mark.parametrize("sweep", SWEEPS)
@pytest.mark.parametrize(
    "R, epsilon",
    [
        (ALTERNATING, 0.0),
        (ALTERNATING, 0.1),
        # The prefix of 25 ends inside label 0's run between vertices 10 and 40.
        (RepresentationMatrix.from_label_sets(50, [range(50), [10, 40]]), 0.5),
        # Label 0's vertices all lie in the prefix of 10; vertex 2 also has
        # label 1, whose run follows.
        (RepresentationMatrix.from_label_sets(50, [[0, 2, 5], [2, *range(12, 50)]]), 0.2),
        (RepresentationMatrix.from_label_sets(9, []), 0.0),
        (RepresentationMatrix.from_label_sets(9, []), 0.5),
    ],
    ids=[
        "alternating",
        "alternating_prefix",
        "prefix_ends_in_run",
        "label_in_prefix",
        "no_labels",
        "no_labels_prefix",
    ],
)
def test_majority_run_cases_match_the_full_loop(sweep, R, epsilon):
    for seed in range(20):
        assert majority_colors(R, epsilon, seed, sweep) == majority_reference(R, epsilon, seed)


@pytest.mark.parametrize("sweep", SWEEPS)
def test_majority_runs_from_positive_zero_and_negative_sums(sweep):
    # A prefix of 20 fixes label 0's sum where its run of 60 single-label
    # vertices starts; label 1 joins label 0 at vertex 50, mid-run.
    R = RepresentationMatrix.from_label_sets(80, [range(80), [3, 50, 51]])
    starts = set()
    for seed in range(60):
        prefix_sum = int((derive_rng(seed).integers(0, 2, size=20) * 2 - 1).sum())
        starts.add((prefix_sum > 0) - (prefix_sum < 0))
        assert majority_colors(R, 0.25, seed, sweep) == majority_reference(R, 0.25, seed)
    assert starts == {-1, 0, 1}


def test_majority_config_validation():
    for epsilon in (1.5, -0.1):
        with pytest.raises(ValueError, match=r"epsilon must lie in \[0, 1\]"):
            majority_cut(WEAK_TRIANGLE, epsilon, 0)


@settings(deadline=None, max_examples=60)
@given(matrices(max_n=8))
def test_heuristic_weights_match_their_colorings(R):
    rnd = random_cut(R, 5)
    assert rnd.weight == cut_weight(R, rnd.coloring)
    maj = majority_cut(R, 0.25, 6)
    assert maj.weight == cut_weight(R, maj.coloring)


def test_solve_passes_the_cap_and_rejects_unknown_names():
    for algo in ("exact", "mindisc"):
        with pytest.raises(ValueError, match="^n=25 exceeds the brute-force cap 24$"):
            cuts.solve(OVER_CAP, algo, None)
    with pytest.raises(ValueError, match="unknown cut algorithm 'bipartize'"):
        cuts.solve(TRIANGLE, "bipartize", 3)


# --- beta lower bound ---


def test_beta_values():
    assert beta_lower_bound(2) == pytest.approx(math.sqrt(16 / (27 * math.pi * 8)), abs=1e-12)
    assert beta_lower_bound(2) == pytest.approx(0.15355, abs=5e-6)
    assert beta_lower_bound(10) == pytest.approx(math.sqrt(16 / (27 * math.pi * 1000)), abs=1e-12)


def test_beta_decreasing():
    grid = [0.5, 1.0, 2.0, 5.0, 10.0, 100.0]
    values = [beta_lower_bound(c) for c in grid]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_beta_rejects_nonpositive():
    with pytest.raises(ValueError):
        beta_lower_bound(0.0)
    with pytest.raises(ValueError):
        beta_lower_bound(-3.0)


@pytest.mark.parametrize("c", [math.nan, math.inf])
def test_beta_rejects_a_non_finite_c(c):
    with pytest.raises(InputError, match=f"^c must be positive and finite, got {c}$"):
        beta_lower_bound(c)


# --- exact oracles ---


def test_brute_force_examples():
    assert brute_force_max_cut(TWO_PATH).weight == 2
    assert brute_force_max_cut(WEAK_TRIANGLE).weight == 2
    assert brute_force_max_cut(EDGE_FREE).weight == 0


def test_min_discrepancy_examples():
    assert brute_force_min_discrepancy(TWO_PATH)[1] == 0
    assert brute_force_min_discrepancy(WEAK_TRIANGLE)[1] == 2
    assert brute_force_min_discrepancy(TRIANGLE)[1] == 1


def test_cap_enforced():
    for oracle in (brute_force_max_cut, brute_force_min_discrepancy):
        with pytest.raises(ValueError, match="^n=25 exceeds the brute-force cap 24$"):
            oracle(OVER_CAP)


def test_oracles_refuse_tables_over_the_bound_before_allocating_them():
    # At n = 24 the half tables hold (2^11 + 2^12) float64 per label.
    per_label = (2**11 + 2**12) * 8
    fits = cuts.ORACLE_TABLE_BYTES // per_label
    cuts.check_oracle_input(24, fits)
    m = 1 << 16
    R = RepresentationMatrix.from_csr(24, np.zeros(m + 1, dtype=np.int64), [])
    message = (
        f"n=24, m={m} needs {per_label * m} bytes of oracle tables, "
        f"over the bound {cuts.ORACLE_TABLE_BYTES}"
    )
    for oracle in (brute_force_max_cut, brute_force_min_discrepancy):
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match=f"^{message}$"):
                oracle(R)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the dense matrix alone would take 12 MiB
    with pytest.raises(InputError, match=f"^n=24, m={fits + 1} needs "):
        cuts.check_oracle_input(24, fits + 1)


def test_oracles_at_the_cap_walk_every_coloring():
    # One label on all 24 vertices, so half sums reach 12, the largest, and
    # a weak triangle across both halves.  Every label is even, so both
    # parity floors are 0, but some triangle pair is monochromatic under
    # every coloring: |Rx|^2 >= 4 and the discrepancy is >= 2, and neither
    # oracle stops early.  A balanced big label with two triangle pairs cut
    # meets both bounds: the weight is (24^2 + 3 * 2^2 - 4) / 4 = 146.
    R = RepresentationMatrix.from_label_sets(24, [range(24), [0, 12], [12, 23], [0, 23]])
    result = brute_force_max_cut(R)
    assert result.weight == 146 == cut_weight(R, result.coloring)
    coloring, best_disc = brute_force_min_discrepancy(R)
    assert best_disc == 2 == discrepancy(R, coloring)


@st.composite
def even_labels_with_weak_odd_cycle(draw, max_n: int = 14, max_m: int = 8):
    """Even-sized labels only, among them pair labels closing an odd cycle.

    The parity floors are 0, yet every coloring puts both ends of some
    pair label on one side, so |Rx|^2 >= 4 and the discrepancy is >= 2:
    no coloring reaches the floor.
    """
    n = draw(st.integers(min_value=3, max_value=max_n))
    k = draw(st.sampled_from([k for k in (3, 5, 7) if k <= n]))
    cycle = draw(st.permutations(range(n)))[:k]
    label_sets = [[cycle[i], cycle[(i + 1) % k]] for i in range(k)]
    for _ in range(draw(st.integers(min_value=0, max_value=max_m - k))):
        L = sorted(draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n)))
        label_sets.append(L[: len(L) - len(L) % 2])
    return RepresentationMatrix.from_label_sets(n, draw(st.permutations(label_sets)))


# The module's block size, and blocks of one score each, so that the
# tie-break between optima in different blocks, within a row of A or
# across rows, and an optimum that reaches the parity floor only in a later
# block, are exercised too.  Random matrices mostly have odd labels and
# reach the floor; the even-label matrices with a weak odd cycle never do.
# Up to 40 labels at n <= 10 check scores summed over many labels.
@pytest.mark.parametrize(
    "block_cells", [cuts._BLOCK_CELLS, 1], ids=["module_block", "one_score_blocks"]
)
@settings(deadline=None, max_examples=80)
@given(
    R=st.one_of(
        matrices(max_n=14, max_m=8),
        matrices(max_n=10, max_m=40),
        even_labels_with_weak_odd_cycle(),
    )
)
@example(R=WEAK_TRIANGLE)
@example(R=TRIANGLE)
@example(R=RepresentationMatrix.from_label_sets(5, []))
def test_brute_force_matches_enumeration_oracle(block_cells, R):
    X, normsq, disc = enumeration_oracle(R)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cuts, "_BLOCK_CELLS", block_cells)
        result = brute_force_max_cut(R)
        coloring, best_disc = brute_force_min_discrepancy(R)

    assert result.weight == (R.entry_sum() - int(normsq.min())) // 4
    assert cut_weight(R, result.coloring) == result.weight
    # Reported coloring is the lexicographically smallest optimum (x_0 = +1).
    optima = X[normsq == normsq.min()]
    assert tuple(result.coloring.values) == min(map(tuple, optima))

    assert best_disc == int(disc.min())
    assert discrepancy(R, coloring) == best_disc
    disc_optima = X[disc == disc.min()]
    assert tuple(coloring.values) == min(map(tuple, disc_optima))


# sha256 of the exact_* and mindisc_* CSV columns of the benchmark's
# exact-oracles config at its first four experiment seeds, captured while
# the oracles still walked every coloring: the optima and their tie-break
# must not move.
PINNED_ORACLE_COLUMNS = {
    2009: "ad98373676cf27e945b3c7a075875f86a6757bbad1e25ac7daec1343231c206c",
    1002012: "6cf6040d72777a1e5fed5152b721524027b8afd4e8c7a4a11f4323d320c4d633",
    2002015: "055388537f47b97e3ad220fd7f67c4487381fe365078206146dcbad4259c510e",
    3002018: "db0f713a00010f15491dddee7c1dba677d0877aa5025b1689b743f2d2aa709be",
}
ORACLE_COLUMNS = ("exact_weight", "exact_disc", "mindisc_weight", "mindisc_disc")


@pytest.mark.parametrize("seed", sorted(PINNED_ORACLE_COLUMNS))
def test_oracle_columns_are_pinned(seed):
    spec = ExperimentSpec.from_dict(
        {"regime": "fixed", "n": 16, "m": 16, "p": 0.2, "trials": 10,
         "algorithms": ["exact", "mindisc"], "seed": seed}
    )
    records, _ = run_experiment(spec, workers=1)
    text = "".join(
        ",".join(str(getattr(r, column)) for column in ORACLE_COLUMNS) + "\n" for r in records
    )
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_ORACLE_COLUMNS[seed]


@settings(deadline=None, max_examples=60)
@given(matrices(max_n=9, max_m=7))
def test_heuristics_never_beat_the_oracle(R):
    best = brute_force_max_cut(R).weight
    assert random_cut(R, 7).weight <= best
    assert majority_cut(R, 0.0, 8).weight <= best
    offdiag = R.entry_sum() - R.diagonal_sum()
    assert offdiag / 4 <= best <= offdiag / 2


@settings(deadline=None, max_examples=60)
@given(matrices(max_n=8, max_m=5, min_n=2))
def test_low_discrepancy_instances_tie_norm_and_disc_minimizers(R):
    # When the best discrepancy is at most 1, minimizing |Rx|^2 and
    # minimizing |Rx|_inf select exactly the same colorings.
    assume(brute_force_min_discrepancy(R)[1] <= 1)
    _, normsq, disc = enumeration_oracle(R)
    assert np.array_equal(normsq == normsq.min(), disc == disc.min())


def test_oracle_helpers_agree_on_examples():
    assert oracle_max_cut_weight(WEAK_TRIANGLE) == 2
    assert oracle_min_discrepancy(WEAK_TRIANGLE) == 2
