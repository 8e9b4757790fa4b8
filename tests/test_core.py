import pytest
from hypothesis import given, settings

from helpers import matrices_with_colorings
from wrig_lab.core import (
    Coloring,
    RepresentationMatrix,
    WeightedIntersectionGraph,
    build_graph,
    cut_weight,
    cut_weight_direct,
    discrepancy,
    norm_sq,
    row_sums,
)

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


def test_transpose_views_agree():
    R = RepresentationMatrix.from_label_sets(5, [[0, 2, 4], [1, 2], [], [4]])
    assert sum(len(L) for L in R.label_sets) == sum(len(S) for S in R.vertex_sets)
    for l, L in enumerate(R.label_sets):
        for v in L:
            assert l in R.vertex_sets[v]
    for v, S in enumerate(R.vertex_sets):
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
@given(matrices_with_colorings())
def test_negation_symmetry(case):
    R, x = case
    neg = x.negated()
    assert cut_weight(R, x) == cut_weight(R, neg)
    assert norm_sq(R, x) == norm_sq(R, neg)
    assert discrepancy(R, x) == discrepancy(R, neg)
