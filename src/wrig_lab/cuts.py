"""Randomized cut heuristics and exact exponential oracles.

The two heuristics (uniform random cut, majority cut) are cheap and seeded.
The two oracles share one meet-in-the-middle enumeration of the 2^(n-1)
bipartitions with x_0 fixed to +1 (negating a coloring never changes a cut
weight or a discrepancy), which stops once a coloring reaches the parity
floor no coloring can beat, and are capped at a vertex count where a desk
run still finishes in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Coloring, InputError, RepresentationMatrix, cut_weight, offsets
from .sampling import Seed, derive_rng

BRUTE_FORCE_CAP = 24

# Scores the oracles evaluate per block.  Max-cut's temporaries hold a few
# int64 per score and min-discrepancy's two buffers one byte each, so a
# block stays under a quarter MiB.  Smaller blocks stop sooner once the
# parity floor is reached but pay numpy's per-call cost more often (min-
# discrepancy makes three calls per label and block); larger ones slow
# max-cut.  Per call over 200 matrices at n = m = 16, p = 0.2 on 2 CPUs,
# median of 7: 2^11 took 0.34 ms (max-cut) and 0.49 ms (min-discrepancy),
# 2^13 0.32 and 0.26 ms, 2^15 0.55 and 0.27 ms.
_BLOCK_SCORES = 1 << 13


CUT_ALGORITHMS = ("random", "majority", "exact", "mindisc")


@dataclass(frozen=True)
class CutResult:
    """A coloring and its cut weight."""

    coloring: Coloring
    weight: int


def random_cut(R: RepresentationMatrix, seed: Seed) -> CutResult:
    """Color every vertex independently and equiprobably, then score the cut."""
    signs = derive_rng(seed).integers(0, 2, size=R.n).astype(np.int8)
    signs *= 2
    signs -= 1
    x = Coloring(signs)
    return CutResult(coloring=x, weight=cut_weight(R, x))


def majority_cut(R: RepresentationMatrix, epsilon: float, seed: Seed) -> CutResult:
    """Greedy majority coloring.

    After a random prefix of floor(epsilon*n) vertices (epsilon in [0, 1];
    at 1 the whole coloring is random), each vertex v in turn gets the color
    opposing the signed weight of its already-colored neighborhood,
    z = sum over colored u of |S_u cap S_v| * x_u, with ties (z == 0) going
    to -1.  z is the sum of v's label sums, each label's color sum over its
    vertices colored so far.  A vertex without labels keeps its prefix color
    or gets -1 (z = 0).

    A vertex past the prefix with one label l takes -1 if l's sum s >= 0,
    else +1.  So a run of such vertices of l has closed-form colors: from
    s >= 0 they take -1 until the sum reaches -1, from s < 0 they take +1
    until it reaches 0, and from there they alternate.  The run's j-th
    vertex (from 0) takes +1 exactly when j + s < 0, or when j > s and
    j + s is odd.  When ``_runs_pay`` finds enough single-label vertices
    against multi-label ones in R, ``_sweep_runs`` visits only the
    multi-label vertices past the prefix, in order, and colors the runs
    between them by array arithmetic.  Otherwise ``_sweep_vertices`` visits
    every labelled vertex.  Both give the same coloring.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise InputError(f"epsilon must lie in [0, 1], got {epsilon}")
    rng = derive_rng(seed)
    n = R.n
    prefix = math.floor(epsilon * n + 1e-9)
    signs = np.full(n, -1, dtype=np.int8)
    if prefix:
        signs[:prefix] = rng.integers(0, 2, size=prefix) * 2 - 1
    if len(R.indices):
        view = _ColumnView(R)
        n_single = int(np.count_nonzero(view.alone))
        n_multi = len(view.starts) - n_single
        sweep = _sweep_runs if _runs_pay(n_single, n_multi) else _sweep_vertices
        sweep(R, view, signs, prefix)
    x = Coloring(signs)
    return CutResult(coloring=x, weight=cut_weight(R, x))


def _runs_pay(n_single: int, n_multi: int) -> bool:
    """Whether coloring runs in closed form beats visiting every vertex.

    Timed on sampled matrices with n from 100 to 5000: the closed form's
    array work costs about as much as 128 single-label steps of the vertex
    loop, and each multi-label vertex costs it about two such steps more
    than the loop pays for it.
    """
    return n_single > 2 * n_multi + 128


class _ColumnView:
    """The entries of R grouped by vertex.  ``rows[p]`` is the label of CSR
    position p.  ``order`` holds the CSR positions sorted by vertex,
    ``by_vertex`` their vertices; ``first`` marks the first entry of each
    vertex and ``alone`` the entries of vertices with one label; ``starts``
    indexes the first entries."""

    def __init__(self, R: RepresentationMatrix):
        vertices = R.indices
        self.rows = np.repeat(np.arange(R.m), R.sizes)
        self.order = np.argsort(vertices)
        self.by_vertex = by_vertex = vertices[self.order]
        self.first = first = np.empty(len(by_vertex), dtype=bool)
        first[0] = True
        np.not_equal(by_vertex[1:], by_vertex[:-1], out=first[1:])
        self.alone = alone = first.copy()
        alone[:-1] &= first[1:]
        self.starts = np.flatnonzero(first)


def _sweep_vertices(
    R: RepresentationMatrix, view: _ColumnView, signs: np.ndarray, prefix: int
) -> None:
    """Visit every labelled vertex in order, prefix included."""
    labels = view.rows[view.order].tolist()
    bounds = view.starts.tolist() + [len(labels)]
    labelled = view.by_vertex[view.starts]
    colors = signs[labelled].tolist()
    label_sums = [0] * R.m
    for i, (v, a, b) in enumerate(zip(labelled.tolist(), bounds, bounds[1:])):
        vertex_labels = labels[a:b]
        if v >= prefix:
            z = 0
            for l in vertex_labels:
                z += label_sums[l]
            colors[i] = -1 if z >= 0 else 1
        xv = colors[i]
        for l in vertex_labels:
            label_sums[l] += xv
    signs[labelled] = colors


def _sweep_runs(
    R: RepresentationMatrix, view: _ColumnView, signs: np.ndarray, prefix: int
) -> None:
    """Visit the multi-label vertices past the prefix; color runs in bulk."""
    indptr, vertices = R.indptr, R.indices
    past = vertices >= prefix
    # A label's prefix vertices head its row: start from their color sum.
    pre = np.flatnonzero(~past)
    heads = offsets(signs[vertices[pre]])[np.searchsorted(pre, indptr)]
    start = heads[1:] - heads[:-1]
    single = np.empty(len(vertices), dtype=bool)
    single[view.order] = view.alone
    single &= past
    # singles_before[p]: single-label entries past the prefix at CSR
    # positions before p.
    singles_before = offsets(single)

    visit = ~view.alone & (view.by_vertex >= prefix)
    steps = view.order[visit]
    step_vertices = view.by_vertex[visit]
    firsts = np.flatnonzero(view.first[visit])
    bounds = firsts.tolist() + [len(steps)]
    labels = view.rows[steps].tolist()
    seen = singles_before[steps].tolist()
    # advanced[l]: label l's single-label entries already in label_sums[l]
    advanced = singles_before[indptr[:-1]].tolist()
    label_sums = start.tolist()
    after = []
    colors = []
    for a, b in zip(bounds, bounds[1:]):
        vertex_labels = labels[a:b]
        z = 0
        for l, c in zip(vertex_labels, seen[a:b]):
            s = label_sums[l]
            k = c - advanced[l]
            if k:  # l's run since its last visit: k single-label vertices
                if s >= 0:
                    s = s - k if k <= s else -((s + k) & 1)
                else:
                    s = s + k if k <= -s else -((s + k) & 1)
                label_sums[l] = s
                advanced[l] = c
            z += s
        xv = -1 if z >= 0 else 1
        colors.append(xv)
        for l in vertex_labels:
            label_sums[l] += xv
            after.append(label_sums[l])
    signs[step_vertices[firsts]] = colors

    # A single-label entry's run starts at its anchor: its row's head or
    # its label's last visited vertex before it.  s is the label sum there,
    # j the number of the run's vertices before this one.
    filled = np.flatnonzero(R.sizes)
    row_heads = indptr[filled]
    anchor = np.zeros(len(vertices), dtype=np.int64)
    anchor[row_heads] = row_heads
    anchor[steps] = steps
    np.maximum.accumulate(anchor, out=anchor)
    anchor_sums = np.empty(len(vertices), dtype=np.int64)
    anchor_sums[row_heads] = start[filled]
    anchor_sums[steps] = after
    q = np.flatnonzero(single)
    a = anchor[q]
    s = anchor_sums[a]
    j = singles_before[q] - singles_before[a]
    t = j + s
    signs[vertices[q]] = np.where((t < 0) | ((t % 2 == 1) & (j > s)), 1, -1)


def beta_lower_bound(c: float) -> float:
    """Asymptotic lower bound sqrt(16 / (27 pi c^3)) on the majority gain.

    This is the constant by which the majority heuristic beats the expected
    random-cut weight (multiplicatively, minus vanishing terms) at m = n,
    p = c/n for large c; it decreases in c.  A c that is not a positive
    finite number is an InputError.
    """
    if not 0 < c < math.inf:
        raise InputError(f"c must be positive and finite, got {c}")
    return math.sqrt(16.0 / (27.0 * math.pi * c**3))


def _coloring_from_mask(mask: int, n: int) -> Coloring:
    # Bit (n-1-v) encodes x_v (+1 when set), so integer order on masks is
    # lexicographic order on colorings with -1 sorting first.
    bits = (mask >> np.arange(n - 1, -1, -1)) & 1
    return Coloring(2 * bits - 1)


def _half_row_sums(D: np.ndarray) -> np.ndarray:
    """Row sums D x for every coloring x of D's columns, one row per mask."""
    k = D.shape[1]
    bits = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    return (2 * bits - 1) @ D.T


def _argmin_over_colorings(
    R: RepresentationMatrix,
    scorer: Callable[[np.ndarray], Callable[[np.ndarray], np.ndarray]],
    floor: int,
) -> tuple[int, Coloring]:
    """Smallest score over all colorings with x_0 = +1 (meet in the middle).

    The first ceil(n/2) vertices give the row-sum vectors A (x_0 = +1), the
    rest give B, so every coloring's Rx is a + b for one row a of A and one
    row b of B.  ``scorer(B)`` returns a function mapping a block of A's
    rows to their (len(block), len(B)) scores against all of B, so work
    that depends on B alone is done once.  Row-major flat index
    i*len(B) + j is the coloring's mask minus 2^(n-1), so argmin within a
    block and a strict < across blocks return the lexicographically
    smallest optimum.  Row sums and scores are exact integers.

    ``floor`` is a lower bound on every score.  Blocks run in increasing
    mask order and only a strictly smaller score replaces the best, so once
    the best reaches the floor no later block can replace it: the loop
    stops there and returns the same optimum as the full walk.
    """
    n = R.n
    if n > BRUTE_FORCE_CAP:
        raise InputError(f"n={n} exceeds the brute-force cap {BRUTE_FORCE_CAP}")
    D = np.zeros((R.m, n), dtype=np.int64)
    D[np.repeat(np.arange(R.m), R.sizes), R.indices] = 1
    h = (n + 1) // 2
    A = D[:, 0] + _half_row_sums(D[:, 1:h])
    B = _half_row_sums(D[:, h:])
    score = scorer(B)
    rows = max(1, _BLOCK_SCORES // len(B))
    best, best_index = None, 0
    for start in range(0, len(A), rows):
        scores = score(A[start : start + rows])
        i = int(scores.argmin())
        if best is None or scores.flat[i] < best:
            best, best_index = int(scores.flat[i]), start * len(B) + i
            if best <= floor:
                break
    return best, _coloring_from_mask(best_index + (1 << (n - 1)), n)


def _odd_labels(R: RepresentationMatrix) -> int:
    """Labels of odd size.  (Rx)_l has the parity of |S_l|, so each of them
    adds at least 1 to |Rx|^2 and to max_l |(Rx)_l|, under every coloring."""
    return int(np.count_nonzero(R.sizes & 1))


def brute_force_max_cut(R: RepresentationMatrix) -> CutResult:
    """Exact maximum cut: the coloring minimising |Rx|^2 = |a|^2 + |b|^2 + 2 a.b.

    Among optimal colorings the lexicographically smallest with x_0 = +1 is
    returned.  The search stops early once |Rx|^2 reaches the number of
    odd-sized labels, the parity floor.
    """

    def norm_sq(B: np.ndarray):
        b_sq = (B * B).sum(axis=1)
        return lambda a: (a * a).sum(axis=1)[:, None] + b_sq + 2 * (a @ B.T)

    best_norm, coloring = _argmin_over_colorings(R, norm_sq, _odd_labels(R))
    quad = R.entry_sum() - best_norm
    assert quad % 4 == 0
    return CutResult(coloring=coloring, weight=quad // 4)


def brute_force_min_discrepancy(R: RepresentationMatrix) -> tuple[Coloring, int]:
    """Exact minimum discrepancy: the coloring minimising max_l |a_l + b_l|.

    Among optimal colorings the lexicographically smallest with x_0 = +1 is
    returned.  The search stops early once the discrepancy reaches 1 when
    some label has odd size, or 0 when none has, the parity floor.
    """
    # |a_l|, |b_l| and |a_l + b_l| are at most |S_l| <= n, so label sums,
    # their absolute values and their running maximum are exact in the
    # narrowest signed dtype that holds -n-1..n (int8 up to n = 127).
    dtype = np.min_scalar_type(-R.n - 1)

    def disc(B: np.ndarray):
        B_labels = np.ascontiguousarray(B.T, dtype=dtype)

        def score(a: np.ndarray) -> np.ndarray:
            # One label at a time into two block-sized buffers, instead of a
            # (block, len(B), m) temporary reduced over its short last axis.
            worst = np.zeros((len(a), len(B)), dtype=dtype)
            sums = np.empty_like(worst)
            for a_l, b_l in zip(a.T.astype(dtype), B_labels):
                np.add(a_l[:, None], b_l, out=sums)
                np.abs(sums, out=sums)
                np.maximum(worst, sums, out=worst)
            return worst

        return score

    best_disc, coloring = _argmin_over_colorings(R, disc, int(_odd_labels(R) > 0))
    return coloring, best_disc


def solve(
    R: RepresentationMatrix,
    algo: str,
    seed: Optional[Seed],
    *,
    epsilon: float = 0.0,
) -> CutResult:
    """Run the cut algorithm named ``algo`` (one of ``CUT_ALGORITHMS``).

    ``seed`` and ``epsilon`` reach only the heuristics.  The functions are
    looked up when called, so wrappers set on this module's attributes see
    every call.
    """
    if algo == "random":
        return random_cut(R, seed)
    if algo == "majority":
        return majority_cut(R, epsilon, seed)
    if algo == "exact":
        return brute_force_max_cut(R)
    if algo == "mindisc":
        coloring, _ = brute_force_min_discrepancy(R)
        return CutResult(coloring=coloring, weight=cut_weight(R, coloring))
    raise InputError(f"unknown cut algorithm {algo!r}, expected one of {CUT_ALGORITHMS}")
