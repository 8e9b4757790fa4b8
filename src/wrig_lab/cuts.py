"""Randomized cut heuristics and exact exponential oracles.

The two heuristics (uniform random cut, majority cut) are cheap and seeded.
The two oracles share one meet-in-the-middle enumeration of the 2^(n-1)
bipartitions with x_0 fixed to +1 (negating a coloring never changes a cut
weight or a discrepancy), which stops once a coloring reaches the parity
floor no coloring can beat, and are capped at a vertex count where a desk
run still finishes in seconds.  They score on float64 BLAS products of
small integers, exact below 2^53.  On a shared 2-vCPU host a call took
0.12 ms (max-cut) and 0.10 ms (min-discrepancy) at n = m = 16, p = 0.2,
and 61 and 36 ms at n = m = 24, p = 0.3 (medians of 5 and 3 runs over
200 and 8 matrices).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Coloring, InputError, RepresentationMatrix, cut_weight, offsets
from .sampling import Seed, derive_rng

BRUTE_FORCE_CAP = 24

# Bytes the oracles' two half tables may hold: A's 2^(ceil(n/2)-1) and B's
# 2^floor(n/2) rows of m float64 row sums, about 48 KiB per label at n = 24.
# The dense m-by-n matrix they are built from is no larger, and min-
# discrepancy's int8 copies of them are an eighth as large.
ORACLE_TABLE_BYTES = 1 << 28

# Score x label cells the oracles evaluate per block.  A score counts m + 2
# cells, the m of max-cut's GEMM and two for its norm terms, so each GEMM
# stays under 2^17 multiply-adds (or one score's), below the 2^18 up to
# which OpenBLAS runs a dgemm on one thread, and pool workers do not
# oversubscribe the CPUs; min-discrepancy's int8 temporary holds fewer
# bytes.  Smaller blocks stop sooner once the parity floor is reached but
# pay numpy's per-call cost more often.  Per call (max-cut,
# min-discrepancy) on 2 CPUs, median of 11 alternating passes over 200
# matrices at n = m = 16, p = 0.2: 2^15 took 0.22 and 0.20 ms, 2^16 0.18
# and 0.16, 2^17 0.16 and 0.15, 2^18 0.17 and 0.16.  At n = m = 24,
# p = 0.3 (8 matrices, median of 3): 2^16 took 94 and 73 ms, 2^17 76 and
# 42, 2^18 99 and 32.
_BLOCK_CELLS = 1 << 17


CUT_ALGORITHMS = ("random", "majority", "exact", "mindisc")


@dataclass(frozen=True)
class CutResult:
    """A coloring and its cut weight."""

    coloring: Coloring
    weight: int


def _random_signs(rng: np.random.Generator, k: int) -> np.ndarray:
    """k independent equiprobable signs as int8 ±1."""
    signs = rng.integers(0, 2, size=k).astype(np.int8)
    signs *= 2
    signs -= 1
    return signs


def random_cut(R: RepresentationMatrix, seed: Seed) -> CutResult:
    """Color every vertex independently and equiprobably, then score the cut."""
    x = Coloring._fresh(_random_signs(derive_rng(seed), R.n))
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
        signs[:prefix] = _random_signs(rng, prefix)
    if len(R.indices):
        view = _ColumnView(R)
        n_single = int(np.count_nonzero(view.alone))
        n_multi = len(view.starts) - n_single
        sweep = _sweep_runs if _runs_pay(n_single, n_multi) else _sweep_vertices
        sweep(R, view, signs, prefix)
    x = Coloring._fresh(signs)
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
    up = (t & 1) & (j > s)
    up |= t < 0
    signs[vertices[q]] = np.where(up, np.int8(1), np.int8(-1))


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


def check_oracle_input(n: int, m: int) -> None:
    """InputError naming n and m unless the exact oracles can take them:
    n at most ``BRUTE_FORCE_CAP`` and the half tables within
    ``ORACLE_TABLE_BYTES``."""
    n, m = int(n), int(m)
    if n > BRUTE_FORCE_CAP:
        raise InputError(f"n={n} exceeds the brute-force cap {BRUTE_FORCE_CAP}")
    h = (n + 1) // 2
    table_bytes = 8 * m * ((1 << (h - 1)) + (1 << (n - h)))
    if table_bytes > ORACLE_TABLE_BYTES:
        raise InputError(
            f"n={n}, m={m} needs {table_bytes} bytes of oracle tables, "
            f"over the bound {ORACLE_TABLE_BYTES}"
        )


@functools.cache
def _sign_table(k: int) -> np.ndarray:
    """Every coloring of k vertices as a read-only float64 row, in mask order."""
    bits = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    table = 2.0 * bits - 1.0
    table.flags.writeable = False
    return table


def _half_row_sums(D: np.ndarray) -> np.ndarray:
    """Row sums D x for every coloring x of D's columns, one row per mask,
    in GEMMs of at most ``_BLOCK_CELLS`` multiply-adds each."""
    table = _sign_table(D.shape[1])
    sums = np.empty((len(table), len(D)))
    step = max(1, _BLOCK_CELLS // max(D.size, 1))
    for start in range(0, len(table), step):
        np.matmul(table[start : start + step], D.T, out=sums[start : start + step])
    return sums


def _argmin_over_colorings(
    R: RepresentationMatrix,
    scorer: Callable[[np.ndarray, np.ndarray], Callable[[slice, slice], np.ndarray]],
    floor: Callable[[int], int],
) -> tuple[int, Coloring]:
    """Smallest score over all colorings with x_0 = +1 (meet in the middle).

    The first ceil(n/2) vertices give the row-sum vectors A (x_0 = +1), the
    rest give B, so every coloring's Rx is a + b for one row a of A and one
    row b of B.  ``scorer(A, B)`` returns a function mapping a slice of A's
    rows and one of B's to their (rows, cols) scores, so work that depends
    on A or B alone is done once; it may overwrite A and B, which are not
    read again here.  A block is some rows of A against all of B, or one
    row against part of B when that row alone exceeds ``_BLOCK_CELLS``;
    either way blocks run in order of the row-major flat index
    i*len(B) + j, which is the coloring's mask minus 2^(n-1).  So argmin
    within a block and a strict < across blocks return the
    lexicographically smallest optimum.

    ``floor(k)`` is a lower bound on every score when k labels have odd
    size; it is read only once R has passed ``check_oracle_input``.  Blocks
    run in increasing mask order and only a strictly smaller score replaces
    the best, so once the best reaches the floor no later block can replace
    it: the loop stops there and returns the same optimum as the full walk.
    """
    n, m = R.n, R.m
    check_oracle_input(n, m)
    stop = floor(_odd_labels(R))
    # Row sums and scores are float64 for BLAS, and exact: every entry of
    # A and B is an integer with |.| <= 12 (n <= 24) and |a_l| + |b_l| <=
    # |S_l| <= 24, so every partial sum of a score, in any order and with
    # max-cut's doubled B and norm terms, is an integer of size <= 24^2 =
    # 576 per label and stays below 2^53 while m < 2^43.  The table bound
    # keeps m below 2^25.
    D = np.zeros((m, n))
    D[np.repeat(np.arange(m), R.sizes), R.indices] = 1
    h = (n + 1) // 2
    A = _half_row_sums(D[:, 1:h])
    A += D[:, 0]
    B = _half_row_sums(D[:, h:])
    score = scorer(A, B)
    per_score = m + 2
    cols = min(len(B), max(1, _BLOCK_CELLS // per_score))
    rows = max(1, _BLOCK_CELLS // (cols * per_score))
    best, best_index = None, 0
    for start, first in itertools.product(range(0, len(A), rows), range(0, len(B), cols)):
        scores = score(slice(start, start + rows), slice(first, first + cols))
        i, j = divmod(int(scores.argmin()), scores.shape[1])
        if best is None or scores[i, j] < best:
            best, best_index = int(scores[i, j]), (start + i) * len(B) + first + j
            if best <= stop:
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

    def norm_sq(A: np.ndarray, B: np.ndarray):
        a_sq = np.einsum("ij,ij->i", A, A)[:, None]
        b_sq = np.einsum("ij,ij->i", B, B)
        B *= 2  # in place: a copy would double the tables

        def score(rows: slice, cols: slice) -> np.ndarray:
            scores = A[rows] @ B[cols].T
            scores += a_sq[rows]
            scores += b_sq[cols]
            return scores

        return score

    best_norm, coloring = _argmin_over_colorings(R, norm_sq, lambda odd: odd)
    quad = R.entry_sum() - best_norm
    assert quad % 4 == 0
    return CutResult(coloring=coloring, weight=quad // 4)


def brute_force_min_discrepancy(R: RepresentationMatrix) -> tuple[Coloring, int]:
    """Exact minimum discrepancy: the coloring minimising max_l |a_l + b_l|.

    Among optimal colorings the lexicographically smallest with x_0 = +1 is
    returned.  The search stops early once the discrepancy reaches 1 when
    some label has odd size, or 0 when none has, the parity floor.
    """

    def disc(A: np.ndarray, B: np.ndarray):
        # |a_l + b_l| <= |S_l| <= n <= 24, so label sums fit int8.  A block
        # is one (m, rows, cols) temporary, reduced over labels; the
        # initial 0 scores every coloring 0 when m = 0.
        A_labels = A.T.astype(np.int8, order="C")[:, :, None]
        B_labels = B.T.astype(np.int8, order="C")[:, None, :]

        def score(rows: slice, cols: slice) -> np.ndarray:
            sums = A_labels[:, rows] + B_labels[:, :, cols]
            np.abs(sums, out=sums)
            return sums.max(axis=0, initial=0)

        return score

    best_disc, coloring = _argmin_over_colorings(R, disc, lambda odd: int(odd > 0))
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
