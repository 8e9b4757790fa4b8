import re

import numpy as np
import pytest
from hypothesis import example, given, settings

from helpers import (
    WeightedIntersectionGraph,
    build_graph,
    cut_weight_direct,
    matrices_with_colorings,
    vertex_label_sets,
)
from wrig_lab import cuts, textio
from wrig_lab.bipartization import weak_bipartization
from wrig_lab.core import (
    Coloring,
    InputError,
    RepresentationMatrix,
    cut_weight,
    discrepancy,
    norm_sq,
    row_sums,
)
from wrig_lab.sampling import ModelParams, sample_matrix

TWO_PATH = RepresentationMatrix.from_label_sets(3, [[0, 1], [1, 2]])
TRIANGLE = RepresentationMatrix.from_label_sets(3, [[0, 1, 2]])
ZEROS = RepresentationMatrix.from_label_sets(4, [[], [], []])
X_ALT = Coloring((1, -1, 1))
X_PLUS = Coloring((1, 1, 1))
X_SPLIT = Coloring((1, 1, -1))


def test_build_graph_two_labels():
    G = build_graph(TWO_PATH)
    assert G.edges == ((0, 1, 1), (1, 2, 1))
    assert G.total_offdiag == 4


def test_build_graph_zero_matrix():
    G = build_graph(ZEROS)
    assert G.edges == ()
    assert G.total_offdiag == 0


def test_build_graph_single_label_triangle():
    G = build_graph(TRIANGLE)
    assert G.edges == ((0, 1, 1), (0, 2, 1), (1, 2, 1))
    assert G.total_offdiag == 6


@pytest.mark.parametrize(
    "R,x,expected",
    [
        (TWO_PATH, X_ALT, 2),
        (TWO_PATH, X_PLUS, 0),
        (TRIANGLE, X_SPLIT, 2),
    ],
)
def test_cut_weight_examples(R, x, expected):
    assert cut_weight(R, x) == expected
    assert cut_weight_direct(build_graph(R), x) == expected


@pytest.mark.parametrize(
    "R,x,expected",
    [
        (TWO_PATH, X_ALT, 0),
        (TWO_PATH, X_PLUS, 2),
        (TRIANGLE, X_SPLIT, 1),
    ],
)
def test_discrepancy_examples(R, x, expected):
    assert discrepancy(R, x) == expected


@pytest.mark.parametrize(
    "R,x,expected",
    [
        (TWO_PATH, X_ALT, 0),
        (TWO_PATH, X_PLUS, 8),
        (TRIANGLE, X_SPLIT, 1),
    ],
)
def test_norm_sq_examples(R, x, expected):
    assert norm_sq(R, x) == expected


def test_discrepancy_empty_label_family():
    assert discrepancy(RepresentationMatrix.from_label_sets(2, []), Coloring((1, -1))) == 0


def test_length_mismatch_raises():
    short = Coloring((1, -1))
    with pytest.raises(ValueError):
        cut_weight(TWO_PATH, short)
    with pytest.raises(ValueError):
        cut_weight_direct(build_graph(TWO_PATH), short)
    with pytest.raises(ValueError):
        discrepancy(TWO_PATH, short)
    with pytest.raises(ValueError):
        norm_sq(TWO_PATH, short)


def test_constructor_validation():
    with pytest.raises(ValueError):
        RepresentationMatrix.from_label_sets(3, [[0, 0]])
    with pytest.raises(ValueError):
        RepresentationMatrix.from_label_sets(3, [[3]])
    with pytest.raises(ValueError):
        RepresentationMatrix.from_label_sets(3, [[-1]])
    with pytest.raises(ValueError):
        RepresentationMatrix.from_label_sets(0, [])
    with pytest.raises(ValueError):
        Coloring((1, 0, -1))
    with pytest.raises(ValueError):
        WeightedIntersectionGraph(n=2, edges=((0, 1, 2),), total_offdiag=3)


@pytest.mark.parametrize(
    "indptr, indices, message",
    [
        ([0, 1, 3], [0, 2, 3], r"^label 1 has a vertex outside \[0, 3\)$"),
        ([0, 1], [-1], r"^label 0 has a vertex outside \[0, 3\)$"),
        ([0, 1, 3], [2, 1, 1], r"^label 1 lists vertex 1 twice$"),
        ([0, 3, 3], [0, 2, 1], r"^label 0 vertices are not sorted ascending$"),
        # a repeat in label 0 outranks a later range fault
        ([0, 2, 3], [1, 1, 5], r"^label 0 lists vertex 1 twice$"),
    ],
    ids=["out_of_range", "negative", "duplicate", "unsorted", "first_label_wins"],
)
def test_from_csr_rejects_bad_vertices(indptr, indices, message):
    with pytest.raises(ValueError, match=message):
        RepresentationMatrix.from_csr(3, indptr, indices)


@pytest.mark.parametrize(
    "indptr, indices",
    [([1, 2], [0]), ([0, 2], [0]), ([0, 2, 1], [0, 1]), ([], [])],
    ids=["nonzero_start", "wrong_end", "decreasing", "empty_indptr"],
)
def test_from_csr_rejects_bad_pointers(indptr, indices):
    with pytest.raises(ValueError):
        RepresentationMatrix.from_csr(3, indptr, indices)


def test_from_csr_matches_from_label_sets_and_is_read_only():
    R = RepresentationMatrix.from_csr(5, [0, 3, 5, 5, 6], [0, 2, 4, 1, 2, 4])
    assert R == RepresentationMatrix.from_label_sets(5, [[4, 0, 2], {1, 2}, [], [4]])
    assert (R.m, R.n, R.entry_sum(), R.diagonal_sum()) == (4, 5, 14, 6)
    with pytest.raises(ValueError):
        R.indices[0] = 1
    assert R.sizes.tolist() == [3, 2, 0, 1]
    with pytest.raises(ValueError):
        R.sizes[0] = 1


@pytest.mark.parametrize("bad", [0, 2])
def test_coloring_rejects_values_other_than_plus_minus_one(bad):
    with pytest.raises(ValueError, match=rf"^coloring entries must be \+1 or -1, got {bad}$"):
        Coloring((1, -1, bad, 1))


@pytest.mark.parametrize("values", [np.array([[1], [-1]]), np.array(1)], ids=["2d", "0d"])
def test_coloring_rejects_values_that_are_not_one_dimensional(values):
    message = f"coloring values must be one-dimensional, got shape {values.shape}"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        Coloring(values)


def test_coloring_is_a_read_only_int8_array():
    x = Coloring((1, -1, 1))
    assert x.values.dtype == np.int8
    assert x == Coloring(np.array([1, -1, 1])) != Coloring(-x.values)
    with pytest.raises(ValueError):
        x.values[0] = -1


def test_transpose_views_agree():
    R = RepresentationMatrix.from_label_sets(5, [[0, 2, 4], [1, 2], [], [4]])
    vertex_sets = vertex_label_sets(R)
    assert vertex_sets == ((0,), (1,), (0, 1), (), (0, 3))
    # The majority sweep's view: entries grouped by vertex, lone labels marked.
    view = cuts._ColumnView(R)
    bounds = view.starts.tolist() + [R.diagonal_sum()]
    labels = view.rows[view.order]
    groups = {
        int(view.by_vertex[a]): tuple(sorted(labels[a:b])) for a, b in zip(bounds, bounds[1:])
    }
    assert groups == {v: S for v, S in enumerate(vertex_sets) if S}
    assert view.by_vertex[view.alone].tolist() == [0, 1]
    assert R.label_sets == ((0, 2, 4), (1, 2), (), (4,))
    for l, L in enumerate(R.label_sets):
        for v in L:
            assert l in vertex_sets[v]
    for v, S in enumerate(vertex_sets):
        for l in S:
            assert v in R.label_sets[l]


@settings(deadline=None)
@given(matrices_with_colorings(max_n=12, max_m=8))
def test_cut_identity_matches_direct_sum(case):
    R, x = case
    assert cut_weight(R, x) == cut_weight_direct(build_graph(R), x)


@settings(deadline=None)
@given(matrices_with_colorings(max_n=12, max_m=8))
def test_norm_identity_accounts_for_every_entry(case):
    R, x = case
    total = R.entry_sum()
    assert 4 * cut_weight(R, x) + norm_sq(R, x) == total
    assert total == build_graph(R).total_offdiag + R.diagonal_sum()


@settings(deadline=None)
@given(matrices_with_colorings())
def test_discrepancy_bounds_and_parity(case):
    R, x = case
    d = discrepancy(R, x)
    sizes = [len(L) for L in R.label_sets]
    assert d <= max(sizes, default=0)
    if R.m:
        achieving = [l for l, s in enumerate(row_sums(R, x)) if abs(s) == d]
        assert achieving
        assert any(len(R.label_sets[l]) % 2 == d % 2 for l in achieving)


@settings(deadline=None)
@given(matrices_with_colorings(max_n=12, max_m=8))
@example((RepresentationMatrix.from_label_sets(3, []), X_PLUS))
@example((RepresentationMatrix.from_label_sets(4, [[], [0, 2], [], [1], []]), Coloring((1, -1, 1, 1))))
@example(  # sums past the int8 range of the colors
    (
        RepresentationMatrix.from_label_sets(300, [range(300), [], range(0, 300, 2)]),
        Coloring(np.ones(300, dtype=np.int8)),
    )
)
def test_row_sums_add_each_labels_colors(case):
    R, x = case
    sums = row_sums(R, x)
    assert sums.dtype == np.int64
    assert sums.tolist() == [sum(int(x.values[v]) for v in L) for L in R.label_sets]


@settings(deadline=None)
@given(matrices_with_colorings())
def test_negation_symmetry(case):
    R, x = case
    neg = Coloring(-x.values)
    assert cut_weight(R, x) == cut_weight(R, neg)
    assert norm_sq(R, x) == norm_sq(R, neg)
    assert discrepancy(R, x) == discrepancy(R, neg)


def test_library_colorings_are_read_only_int8_signs():
    # Colorings the library builds itself skip Coloring's checks and copy.
    R = sample_matrix(ModelParams(n=301, m=301, p=0.002), 4)
    small = sample_matrix(ModelParams(n=12, m=12, p=0.15), 4)
    colorings = [
        (R, cuts.random_cut(R, 1).coloring),
        *[(R, cuts.majority_cut(R, eps, 2).coloring) for eps in (0.0, 0.01, 1.0)],
        (small, cuts.brute_force_max_cut(small).coloring),
        (small, cuts.brute_force_min_discrepancy(small)[0]),
        (R, weak_bipartization(R, 3).coloring),
        (R, textio.parse_coloring("+1 -1\n" * 150 + "-1\n")),
        (R, textio.parse_coloring("-1 " * 300 + "+1\n")),
    ]
    for matrix, x in colorings:
        values = x.values
        assert values.dtype == np.int8 and values.shape == (matrix.n,)
        assert np.isin(values, (-1, 1)).all()
        assert not values.flags.writeable
