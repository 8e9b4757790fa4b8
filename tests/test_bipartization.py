import hashlib
import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    count_sequences_reference,
    derive_seed,
    matrices,
    oracle_max_cut_weight,
    oracle_min_discrepancy,
    shortest_odd_cycle_reference,
    simple_graphs,
)
from wrig_lab.bipartization import (
    EXPECTED_MAX_K,
    VertexLabelSequence,
    _shortest_odd_cycle,
    _two_color,
    _two_core,
    count_sequences_exact,
    default_max_rematch,
    expected_sequence_count,
    extract_coloring,
    find_codd_member,
    random_maximal_matching,
    weak_bipartization,
)
from wrig_lab.core import (
    InputError,
    RepresentationMatrix,
    cut_weight,
    discrepancy,
    norm_sq,
    row_sums,
)
from wrig_lab.experiment import ExperimentSpec, _trial_streams
from wrig_lab.sampling import ModelParams, derive_rng, sample_matrix

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


# --- sequences ---


def test_sequence_canonical_rotation_preserves_direction():
    seq = VertexLabelSequence.from_cycle(WEAK_TRIANGLE, [2, 0, 1], [2, 0, 1])
    assert seq.vertices == (0, 1, 2)
    assert seq.labels == (0, 1, 2)
    assert seq.strength == 0
    reflected = VertexLabelSequence.from_cycle(WEAK_TRIANGLE, [2, 1, 0], [1, 0, 2])
    assert reflected.vertices == (0, 2, 1)
    assert reflected != seq


# --- detector ---


def _adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(nbrs) for nbrs in adj]


def _path(*vs):
    return list(zip(vs, vs[1:]))


@settings(deadline=None, max_examples=300)
@given(simple_graphs())
def test_pruned_search_matches_search_from_every_vertex(adj):
    assert _shortest_odd_cycle(adj, _two_color(adj)[1]) == shortest_odd_cycle_reference(adj)


@settings(deadline=None, max_examples=300)
@given(simple_graphs())
def test_odd_core_vertices_are_the_odd_vertices_of_the_core(adj):
    # The 2-core of a component is connected, and bipartite exactly when the
    # component is: the odd start set can be read off the whole graph's colouring.
    core = _two_core(adj)
    assert sorted(v for v in _two_color(adj)[1] if core[v]) == sorted(_two_color(core)[1])


ODD_CYCLE_CASES = {
    # A 5-cycle on 5..9 under a tail 0-1-2-3-4-5 that numbers first.
    "long_tail": (
        _adjacency(10, _path(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 5)),
        [5, 6, 7, 8, 9],
    ),
    # The component of vertex 0 (a 5-cycle, a path, then triangle 20-21-22)
    # comes first; the equal triangle 1-2-3 of a later component wins,
    # since its start vertex is smaller.
    "tie_in_later_component": (
        _adjacency(
            23,
            _path(0, 10, 11, 12, 13, 0) + _path(13, 14, 20, 21, 22, 20) + _path(1, 2, 3, 1),
        ),
        [1, 2, 3],
    ),
    # An even cycle and K_{2,3} with pendant trees, a tree component and
    # isolated vertices.
    "bipartite_with_trees": (
        _adjacency(
            16,
            _path(0, 1, 2, 3, 0)
            + _path(3, 4, 5)
            + _path(1, 6)
            + [(7, 9), (7, 10), (7, 11), (8, 9), (8, 10), (8, 11)]
            + _path(11, 12)
            + _path(13, 14),
        ),
        None,
    ),
}


@pytest.mark.parametrize("case", sorted(ODD_CYCLE_CASES))
def test_shortest_odd_cycle_cases(case):
    adj, expected = ODD_CYCLE_CASES[case]
    assert _shortest_odd_cycle(adj, _two_color(adj)[1]) == expected
    assert shortest_odd_cycle_reference(adj) == expected


def test_detector_records_weak_triangle_and_reports_absent():
    member, zero_strong, excluded, coloring = find_codd_member(
        WEAK_TRIANGLE, [[(0, 1)], [(1, 2)], [(0, 2)]]
    )
    assert member is None
    assert tuple(coloring.values) == (1, 1, -1)  # the path 0 - 2 - 1 left over
    assert len(zero_strong) == 1
    assert zero_strong[0].vertices == (0, 1, 2)
    assert zero_strong[0].strength == 0
    assert excluded == {(0, 1, 0)}  # edge of the smallest weak label
    assert weak_bipartization(WEAK_TRIANGLE, seed=0).label_disjoint


def test_detector_returns_strong_cycle():
    member, zero_strong, excluded, coloring = find_codd_member(
        STRONG_MIX, [[(0, 1)], [(1, 2)], [(0, 2)]]
    )
    assert member is not None
    assert coloring is None
    assert member.vertices == (0, 1, 2)
    assert member.labels == (0, 1, 2)
    assert member.strength == 1
    assert not zero_strong
    assert not excluded
    assert weak_bipartization(STRONG_MIX, seed=0).label_disjoint


def test_detector_absent_on_bipartite_skeleton():
    member, zero_strong, excluded, coloring = find_codd_member(
        STRONG_MIX, [[(0, 3)], [(1, 2)], [(0, 2)]]
    )
    assert member is None
    assert tuple(coloring.values) == (1, 1, -1, -1)  # the path 3 - 0 - 2 - 1
    assert not zero_strong
    assert not excluded


def test_detector_handles_repeated_strong_label():
    # A dense strong label can contribute two matching edges to one shortest
    # odd cycle; the cycle is still a repair member (strength counts both).
    R = RepresentationMatrix.from_label_sets(5, [[0, 1, 2, 3], [1, 2], [3, 4], [0, 4]])
    member, _, _, _ = find_codd_member(R, [[(0, 1), (2, 3)], [(1, 2)], [(3, 4)], [(0, 4)]])
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
    member, zero_strong, excluded, _ = find_codd_member(
        R, [[(0, 1)], [(1, 2)], [(0, 2)], [(2, 3)], [(1, 3)]]
    )
    assert member is None
    assert [s.vertices for s in zero_strong] == [(0, 1, 2), (1, 2, 3)]
    assert excluded == {(0, 1, 0), (1, 2, 1)}
    # Every label has two vertices, so the run draws the matchings above.
    assert not weak_bipartization(R, seed=0).label_disjoint


def test_detector_keeps_a_pair_another_label_covers():
    # Weak labels 0 and 1 both cover {0, 1}: excluding label 0's edge there
    # leaves label 1's, so the triangle is found again and label 1 goes too.
    R = RepresentationMatrix.from_label_sets(3, [[0, 1], [0, 1], [1, 2], [0, 2]])
    member, zero_strong, excluded, _ = find_codd_member(
        R, [[(0, 1)], [(0, 1)], [(1, 2)], [(0, 2)]]
    )
    assert member is None
    assert [s.labels for s in zero_strong] == [(0, 2, 3), (1, 2, 3)]
    assert excluded == {(0, 1, 0), (0, 1, 1)}
    assert not weak_bipartization(R, seed=0).label_disjoint


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
        assert out.matchings[0] in (((0, 3),), ((1, 3),))
        if out.iterations:
            saw_rematch = True
            assert out.codd_encounters >= 1
    assert saw_rematch  # a third of the seeds start with the bad pair (0, 1)


def test_run_is_deterministic():
    a = weak_bipartization(STRONG_MIX, seed=17)
    b = weak_bipartization(STRONG_MIX, seed=17)
    assert a.iterations == b.iterations
    assert a.matchings == b.matchings
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


# --- pinned runs ---


def _run_line(out) -> str:
    """Canonical text of one run: everything the loop decides, in fixed order."""
    cycles = " ".join(
        ",".join(map(str, s.vertices)) + "/" + ",".join(map(str, s.labels))
        for s in out.zero_strong_cycles
    )
    excluded = " ".join(f"{u}-{v}-{l}" for u, v, l in sorted(out.excluded))
    matchings = ";".join(
        " ".join(f"{u}-{v}" for u, v in matching) for matching in out.matchings
    )
    coloring = (
        "".join("+" if x > 0 else "-" for x in extract_coloring(out).values.tolist())
        if out.terminated
        else ""
    )
    return (
        f"{int(out.terminated)} {out.iterations} {int(out.label_disjoint)} "
        f"{out.codd_encounters}|{cycles}|{excluded}|{matchings}|{coloring}"
    )


PINNED_RUNS = {
    # The bipartize-mixed benchmark sweep: many c = 2 runs exhaust the budget.
    "mixed_c": (
        {"regime": "c-sweep", "n": 100, "c": [0.75, 1.5, 2.0], "max_rematch": 10, "trials": 40},
        "ea873358cd38a05c9aba5a064b71f8f3987db5244d1fc7d51e44f15646444fae",
        {"terminated": 99},
    ),
    # Many weak labels: no run terminates, but weak cycles, shared labels and
    # weak edges whose pair another label also covers all occur.
    "weak_heavy": (
        {"regime": "fixed", "n": 20, "m": 60, "p": 0.1, "max_rematch": 50, "trials": 100},
        "a5281bb227671aa2f6b9ad16a34e16a3a5797db0f1ad190bc76792b7c864fe4b",
        {"terminated": 0, "weak_cycles": 20, "not_disjoint": 4, "shared_pair_excluded": 2},
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_RUNS))
def test_bipartization_runs_are_pinned(case):
    # Streams as in run_experiment with seed 0: one matrix and one
    # bipartization seed per (grid point, trial).
    config, digest, coverage = PINNED_RUNS[case]
    spec = ExperimentSpec.from_dict({**config, "algorithms": ["bipartize"]})
    lines = []
    seen = Counter()
    for grid_id, params in enumerate(spec.grid):
        for trial in range(spec.trials):
            matrix_seed, _, _, run_seed = _trial_streams(spec.seed, grid_id, trial)
            R = sample_matrix(params, matrix_seed)
            out = weak_bipartization(R, run_seed, max_rematch=spec.max_rematch)
            lines.append(_run_line(out))
            if out.terminated:
                _assert_h_bipartite(out, extract_coloring(out))
            pair_labels = Counter(p for m in out.matchings for p in m)
            seen["terminated"] += out.terminated
            seen["weak_cycles"] += bool(out.zero_strong_cycles)
            seen["not_disjoint"] += not out.label_disjoint
            seen["shared_pair_excluded"] += any(
                pair_labels[(u, v)] > 1 for u, v, _ in out.excluded
            )
    for key, count in coverage.items():
        assert seen[key] == count, key
    text = "\n".join(lines) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest, dict(seen)


# --- coloring extraction ---


def test_extracted_coloring_weak_triangle_is_optimal():
    out = weak_bipartization(WEAK_TRIANGLE, seed=5)
    x = extract_coloring(out)
    sums = row_sums(WEAK_TRIANGLE, x)
    excluded_labels = {l for _, _, l in out.excluded}
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
    x = extract_coloring(out)
    assert tuple(x.values) == (1, 1, 1, 1)
    _assert_h_bipartite(out, x)


def _assert_h_bipartite(out, x):
    # Independent check that x 2-colours skeleton minus excluded: every kept
    # matching edge joins opposite colours, and each component's smallest
    # vertex (an isolated vertex included) is +1.
    signs = x.values.tolist()
    adj = [[] for _ in signs]
    for l, matching in enumerate(out.matchings):
        for u, v in matching:
            if (u, v, l) not in out.excluded:
                assert signs[u] == -signs[v], (u, v, l)
                adj[u].append(v)
                adj[v].append(u)
    seen = set()
    for start in range(len(signs)):
        if start in seen:
            continue
        assert signs[start] == 1, start
        seen.add(start)
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)


@pytest.mark.parametrize("trial", range(60))
def test_terminated_runs_satisfy_structure_invariants(trial):
    n = 8 + trial % 5
    R = sample_matrix(ModelParams.from_c(n, 0.6), derive_seed(7000, trial))
    out = weak_bipartization(R, derive_seed(7001, trial))
    assert out.terminated  # c < 1 keeps this overwhelmingly likely at this size
    for l, matching in enumerate(out.matchings):
        assert len(matching) == len(R.label_sets[l]) // 2
    for _, _, l in out.excluded:
        assert len(R.label_sets[l]) == 2
    x = extract_coloring(out)
    _assert_h_bipartite(out, x)
    sums = row_sums(R, x)
    excluded_labels = {l for _, _, l in out.excluded}
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


@settings(deadline=None, max_examples=60)
@given(matrices(max_n=6, max_m=5))
# Random draws rarely close a 4-cycle; these two do, sparsely and densely.
@example(RepresentationMatrix.from_label_sets(5, [[0, 1], [1, 2, 4], [2, 3], [0, 3, 4]]))
@example(RepresentationMatrix.from_label_sets(6, [range(6)] * 5))
def test_count_matches_enumeration(R):
    for k in range(1, 5):
        assert count_sequences_exact(R, k) == count_sequences_reference(R, k)


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
    # n or m far above k: each falling-factorial log is summed, so nothing
    # cancels (log-factorial differences gave 1.0 and 0.33726 here).
    assert expected_sequence_count(5, 10**20, 1.0, 5) == pytest.approx(24e100, rel=1e-12)
    assert expected_sequence_count(10**12, 10**12, 1e-12, 3) == pytest.approx(
        (1 - 1e-12) ** 2 * (1 - 2e-12) ** 2 / 3, rel=1e-12
    )
    with pytest.raises(ValueError):
        expected_sequence_count(5, 5, 0.2, 0)
    with pytest.raises(ValueError):
        expected_sequence_count(5, 5, 0.2, 6)
    with pytest.raises(InputError, match=f"k={EXPECTED_MAX_K + 1} exceeds the cap"):
        expected_sequence_count(10**7, 10**7, 1e-7, EXPECTED_MAX_K + 1)
    for p in (2.0, -0.5, math.nan):
        with pytest.raises(InputError, match=f"got p={p}"):
            expected_sequence_count(5, 5, p, 3)
    # (1/k) n!/(n-k)! m!/(m-k)! is about e^22000 here, and n = 10^400 has no
    # float at all.
    for n, m, k in ((100_000, 100_000, 1000), (10**400, 5, 2)):
        with pytest.raises(InputError, match=f"n={n}, m={m}, p=1.0, k={k} exceeds the float range"):
            expected_sequence_count(n, m, 1.0, k)


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
