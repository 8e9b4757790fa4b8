import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import matrices, oracle_max_cut_weight, oracle_min_discrepancy
from wrig_lab.bipartization import (
    BipartizationState,
    VertexLabelSequence,
    count_sequences_exact,
    default_max_rematch,
    expected_sequence_count,
    extract_coloring,
    find_codd_member,
    random_maximal_matching,
    weak_bipartization,
)
from wrig_lab.core import RepresentationMatrix, cut_weight, discrepancy, norm_sq, row_sums
from wrig_lab.sampling import ModelParams, derive_rng, derive_seed, sample_matrix

WEAK_TRIANGLE = RepresentationMatrix.from_label_sets(3, [[0, 1], [1, 2], [0, 2]])
# One strong label over {0, 1, 3} plus two weak ones closing a triangle.
STRONG_MIX = RepresentationMatrix.from_label_sets(4, [[0, 1, 3], [1, 2], [0, 2]])
K4 = RepresentationMatrix.from_label_sets(4, [[0, 1, 2, 3]])
EDGE_FREE = RepresentationMatrix.from_label_sets(4, [[], [], []])


# --- random maximal matching ---


def test_matching_of_a_pair_is_forced():
    for s in range(5):
        assert random_maximal_matching([4, 9], derive_rng(s)) == ((4, 9),)


def test_matching_of_tiny_sets_is_empty():
    assert random_maximal_matching([], derive_rng(0)) == ()
    assert random_maximal_matching([3], derive_rng(0)) == ()


def test_matching_of_three_is_uniform():
    counts = Counter(
        random_maximal_matching([0, 1, 2], derive_rng(s))[0] for s in range(10_000)
    )
    assert set(counts) == {(0, 1), (0, 2), (1, 2)}
    se = math.sqrt((1 / 3) * (2 / 3) / 10_000)
    for pair in counts:
        assert abs(counts[pair] / 10_000 - 1 / 3) <= 4 * se


@settings(deadline=None, max_examples=50)
@given(st.sets(st.integers(min_value=0, max_value=40), max_size=15), st.integers(0, 1000))
def test_matching_pairs_are_disjoint_and_maximal(members, seed):
    members = sorted(members)
    pairs = random_maximal_matching(members, derive_rng(seed))
    assert len(pairs) == len(members) // 2
    used = [v for pair in pairs for v in pair]
    assert len(used) == len(set(used))
    assert set(used) <= set(members)


# --- sequences and state validation ---


def test_sequence_canonical_rotation_preserves_direction():
    seq = VertexLabelSequence.from_cycle(WEAK_TRIANGLE, [2, 0, 1], [2, 0, 1])
    assert seq.vertices == (0, 1, 2)
    assert seq.labels == (0, 1, 2)
    assert seq.strength == 0
    reflected = VertexLabelSequence.from_cycle(WEAK_TRIANGLE, [2, 1, 0], [1, 0, 2])
    assert reflected.vertices == (0, 2, 1)
    assert reflected != seq


def test_sequence_rejects_uncovered_pair():
    with pytest.raises(ValueError):
        VertexLabelSequence.from_cycle(WEAK_TRIANGLE, [0, 1, 2], [0, 0, 2])


def test_state_validation():
    with pytest.raises(ValueError):  # not maximal
        BipartizationState(K4, [[(0, 1)]])
    with pytest.raises(ValueError):  # vertex reuse
        BipartizationState(K4, [[(0, 1), (1, 2)]])
    with pytest.raises(ValueError):  # endpoint outside the label set
        BipartizationState(STRONG_MIX, [[(0, 2)], [(1, 2)], [(0, 2)]])
    with pytest.raises(ValueError):  # wrong matching count
        BipartizationState(WEAK_TRIANGLE, [[(0, 1)]])
    with pytest.raises(ValueError):  # excluded edge missing from skeleton
        BipartizationState(
            WEAK_TRIANGLE, [[(0, 1)], [(1, 2)], [(0, 2)]], excluded=[(1, 2, 0)]
        )
    with pytest.raises(ValueError):  # excluded label must be weak
        BipartizationState(K4, [[(0, 1), (2, 3)]], excluded=[(0, 1, 0)])


# --- detector ---


def test_detector_records_weak_triangle_and_reports_absent():
    state = BipartizationState(WEAK_TRIANGLE, [[(0, 1)], [(1, 2)], [(0, 2)]])
    assert find_codd_member(state) is None
    assert len(state.zero_strong) == 1
    assert state.zero_strong[0].vertices == (0, 1, 2)
    assert state.zero_strong[0].strength == 0
    assert state.excluded == {(0, 1, 0)}  # edge of the smallest weak label
    assert state.label_disjoint


def test_detector_returns_strong_cycle():
    state = BipartizationState(STRONG_MIX, [[(0, 1)], [(1, 2)], [(0, 2)]])
    member = find_codd_member(state)
    assert member is not None
    assert member.vertices == (0, 1, 2)
    assert member.labels == (0, 1, 2)
    assert member.strength == 1
    assert not state.zero_strong


def test_detector_absent_on_bipartite_skeleton():
    state = BipartizationState(STRONG_MIX, [[(0, 3)], [(1, 2)], [(0, 2)]])
    assert find_codd_member(state) is None
    assert not state.excluded


def test_detector_handles_repeated_strong_label():
    # A dense strong label can contribute two matching edges to one shortest
    # odd cycle; the cycle is still a repair member (strength counts both).
    R = RepresentationMatrix.from_label_sets(5, [[0, 1, 2, 3], [1, 2], [3, 4], [0, 4]])
    state = BipartizationState(R, [[(0, 1), (2, 3)], [(1, 2)], [(3, 4)], [(0, 4)]])
    member = find_codd_member(state)
    assert member.vertices == (0, 1, 2, 3, 4)
    assert member.labels == (0, 1, 0, 2, 3)
    assert member.strength == 2
    # Every matching of label 0 leaves an odd cycle through it, so the loop
    # can never finish: the budget abort is the reported outcome.
    out = weak_bipartization(R, seed=2, max_rematch=60)
    assert not out.terminated
    assert out.iterations == 60
    assert out.codd_encounters == 3  # the three matchings' distinct cycles


def test_detector_flags_label_sharing():
    # Triangles (0,1,2) and (1,2,3) share weak label 1 (the edge {1, 2});
    # excluding the first cycle's smallest-label edge {0, 1} leaves the
    # second cycle intact, so the sharing is observed.
    R = RepresentationMatrix.from_label_sets(
        4, [[0, 1], [1, 2], [0, 2], [2, 3], [1, 3]]
    )
    state = BipartizationState(R, [[(0, 1)], [(1, 2)], [(0, 2)], [(2, 3)], [(1, 3)]])
    assert find_codd_member(state) is None
    assert len(state.zero_strong) == 2
    assert not state.label_disjoint


# --- full runs ---


def test_weak_triangle_terminates_without_rematching():
    out = weak_bipartization(WEAK_TRIANGLE, seed=5)
    assert out.terminated
    assert out.iterations == 0
    assert out.codd_encounters == 0
    assert len(out.zero_strong_cycles) == 1
    assert out.label_disjoint


def test_strong_mix_rematches_until_matching_leaves_the_triangle():
    saw_rematch = False
    for seed in range(40):
        out = weak_bipartization(STRONG_MIX, seed=seed)
        assert out.terminated
        assert out.state.matchings[0] in (((0, 3),), ((1, 3),))
        if out.iterations:
            saw_rematch = True
            assert out.codd_encounters >= 1
    assert saw_rematch  # a third of the seeds start with the bad pair (0, 1)


def test_run_is_deterministic():
    a = weak_bipartization(STRONG_MIX, seed=17)
    b = weak_bipartization(STRONG_MIX, seed=17)
    assert a.iterations == b.iterations
    assert a.state.matchings == b.state.matchings
    assert a.zero_strong_cycles == b.zero_strong_cycles


def test_budget_exhaustion_is_reported_not_raised():
    # With a zero budget the first repairable cycle aborts the run.
    state_seed = next(
        s
        for s in range(100)
        if weak_bipartization(STRONG_MIX, seed=s).iterations > 0
    )
    out = weak_bipartization(STRONG_MIX, seed=state_seed, max_rematch=0)
    assert not out.terminated
    assert out.iterations == 0
    assert out.codd_encounters == 1
    with pytest.raises(ValueError):
        extract_coloring(out)


# --- coloring extraction ---


def test_extracted_coloring_weak_triangle_is_optimal():
    out = weak_bipartization(WEAK_TRIANGLE, seed=5)
    x = extract_coloring(out)
    sums = row_sums(WEAK_TRIANGLE, x)
    excluded_labels = {l for _, _, l in out.state.excluded}
    for l, s in enumerate(sums):
        assert abs(s) == (2 if l in excluded_labels else 0)
    assert cut_weight(WEAK_TRIANGLE, x) == 2 == oracle_max_cut_weight(WEAK_TRIANGLE)


def test_extracted_coloring_balances_single_strong_label():
    out = weak_bipartization(K4, seed=3)
    x = extract_coloring(out)
    assert discrepancy(K4, x) == 0
    assert cut_weight(K4, x) == 4 == oracle_max_cut_weight(K4)


def test_extracted_coloring_edge_free_all_plus():
    out = weak_bipartization(EDGE_FREE, seed=0)
    assert tuple(extract_coloring(out).values) == (1, 1, 1, 1)


def _assert_h_bipartite(state):
    # Independent parity check of skeleton minus excluded via fresh BFS.
    adj = {}
    for (u, v), _labels in state.available_edges().items():
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    color = {}
    for start in adj:
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in color:
                    color[w] = color[u] ^ 1
                    stack.append(w)
                else:
                    assert color[w] != color[u]


@pytest.mark.parametrize("trial", range(60))
def test_terminated_runs_satisfy_structure_invariants(trial):
    n = 8 + trial % 5
    R = sample_matrix(ModelParams.from_c(n, 0.6), derive_seed(7000, trial))
    out = weak_bipartization(R, derive_seed(7001, trial))
    assert out.terminated  # c < 1 keeps this overwhelmingly likely at this size
    state = out.state
    for l, matching in enumerate(state.matchings):
        assert len(matching) == len(R.label_sets[l]) // 2
    for _, _, l in state.excluded:
        assert len(R.label_sets[l]) == 2
    _assert_h_bipartite(state)

    x = extract_coloring(out)
    sums = row_sums(R, x)
    excluded_labels = {l for _, _, l in state.excluded}
    for l, s in enumerate(sums):
        if l not in excluded_labels:
            assert abs(s) <= 1
    if out.label_disjoint:
        for l in excluded_labels:
            assert abs(sums[l]) == 2
        # Conditional optimality: best cut weight and best discrepancy.
        assert cut_weight(R, x) == oracle_max_cut_weight(R)
        assert discrepancy(R, x) == oracle_min_discrepancy(R)
        assert norm_sq(R, x) == R.entry_sum() - 4 * oracle_max_cut_weight(R)


# --- sequence counting ---


def test_count_examples():
    assert count_sequences_exact(WEAK_TRIANGLE, 3) == 2
    assert count_sequences_exact(WEAK_TRIANGLE, 4) == 0  # pigeonhole
    assert count_sequences_exact(WEAK_TRIANGLE, 1) == WEAK_TRIANGLE.diagonal_sum()


def test_count_k2_counts_ordered_label_pairs():
    R = RepresentationMatrix.from_label_sets(2, [[0, 1], [0, 1], [0, 1]])
    # Three parallel labels: 3 * 2 ordered distinct label pairs.
    assert count_sequences_exact(R, 2) == 6


def test_count_caps():
    with pytest.raises(ValueError):
        count_sequences_exact(WEAK_TRIANGLE, 5)
    with pytest.raises(ValueError):
        count_sequences_exact(WEAK_TRIANGLE, 0)
    big = RepresentationMatrix.from_label_sets(13, [[0, 1]])
    with pytest.raises(ValueError):
        count_sequences_exact(big, 3)


@settings(deadline=None, max_examples=40)
@given(matrices(max_n=7, max_m=7), st.data())
def test_count_invariant_under_relabeling(R, data):
    vperm = data.draw(st.permutations(range(R.n)), label="vertex permutation")
    lperm = data.draw(st.permutations(range(R.m)), label="label permutation")
    new_sets: list = [None] * R.m
    for l, L in enumerate(R.label_sets):
        new_sets[lperm[l]] = [vperm[v] for v in L]
    shuffled = RepresentationMatrix.from_label_sets(R.n, new_sets)
    for k in (1, 2, 3):
        if R.m and k <= min(R.n, R.m):
            assert count_sequences_exact(R, k) == count_sequences_exact(shuffled, k)


def test_expected_sequence_count_values():
    assert expected_sequence_count(5, 5, 0.2, 3) == pytest.approx(0.0768, abs=1e-12)
    assert expected_sequence_count(8, 8, 0.25, 1) == pytest.approx(8 * 8 * 0.25**2, rel=1e-12)
    assert expected_sequence_count(5, 5, 0.0, 2) == 0.0
    with pytest.raises(ValueError):
        expected_sequence_count(5, 5, 0.2, 0)
    with pytest.raises(ValueError):
        expected_sequence_count(5, 5, 0.2, 6)


def test_monte_carlo_count_tracks_expectation_small():
    params = ModelParams.fixed(6, 6, 0.3)
    trials = 3_000
    values = [
        count_sequences_exact(sample_matrix(params, derive_seed(31, t)), 3)
        for t in range(trials)
    ]
    mean = sum(values) / trials
    var = sum((v - mean) ** 2 for v in values) / (trials - 1)
    se = math.sqrt(var / trials)
    assert abs(mean - expected_sequence_count(6, 6, 0.3, 3)) <= 4 * se


def test_default_max_rematch():
    assert default_max_rematch(1000) == 100_000
    assert default_max_rematch(1) == 1000
