"""Shared test utilities: independent oracles, reference loops and strategies.

The enumeration here deliberately avoids the library's meet-in-the-middle
oracles: it materializes every coloring with x_0 = +1 as a matrix and
evaluates |Rx|^2 and |Rx|_inf by plain numpy arithmetic, so library bugs
cannot hide behind themselves.  Likewise the weighted intersection graph
scores a cut by summing crossing edges instead of the norm identity, and
the majority reference visits every vertex in plain Python, the odd-cycle
reference searches from every vertex of the whole graph, and the sequence
count enumerates every vertex tuple and every label tuple, and the coloring
parser reads every text token by token.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations, product
from typing import Optional

import numpy as np
from hypothesis import strategies as st

from wrig_lab.bipartization import _odd_cycle_through
from wrig_lab.core import Coloring, InputError, RepresentationMatrix
from wrig_lab.sampling import Seed, derive_rng


@dataclass(frozen=True)
class WeightedIntersectionGraph:
    """Weighted simple graph with w(u,v) = number of labels shared by u, v.

    Only pairs with at least one common label are stored; the diagonal of
    R^T R never appears here (it cancels in every cut weight).
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]
    total_offdiag: int

    def __post_init__(self):
        if self.total_offdiag != 2 * sum(w for _, _, w in self.edges):
            raise ValueError("total_offdiag does not match stored edge weights")


def build_graph(R: RepresentationMatrix) -> WeightedIntersectionGraph:
    """Derive the weighted intersection graph whose weights count shared labels."""
    weights: dict[tuple[int, int], int] = {}
    for L in R.label_sets:
        for i, u in enumerate(L):
            for v in L[i + 1 :]:
                key = (u, v)
                weights[key] = weights.get(key, 0) + 1
    edges = tuple((u, v, w) for (u, v), w in sorted(weights.items()))
    return WeightedIntersectionGraph(
        n=R.n, edges=edges, total_offdiag=2 * sum(weights.values())
    )


def cut_weight_direct(G: WeightedIntersectionGraph, x: Coloring) -> int:
    """Weight of the cut induced by ``x``, by summing crossing edges."""
    if len(x) != G.n:
        raise ValueError(f"coloring has length {len(x)}, expected {G.n}")
    vals = x.values.tolist()
    return sum(w for u, v, w in G.edges if vals[u] != vals[v])


def vertex_label_sets(R: RepresentationMatrix) -> tuple[tuple[int, ...], ...]:
    """Per-vertex ascending label tuples: the transpose of ``R.label_sets``."""
    vertex_sets: list[list[int]] = [[] for _ in range(R.n)]
    for l, L in enumerate(R.label_sets):
        for v in L:
            vertex_sets[v].append(l)
    return tuple(map(tuple, vertex_sets))


def derive_seed(seed: Seed, *stream: int) -> int:
    """Collapse a (seed, stream) address into a fresh 64-bit seed for a test draw."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return int(ss.generate_state(1, np.uint64)[0])


def majority_reference(R: RepresentationMatrix, epsilon: float, seed: Seed) -> tuple[int, ...]:
    """Majority coloring by a plain loop over every vertex, labelled or not.

    Same random prefix draw and tie rule as ``wrig_lab.cuts.majority_cut``.
    """
    rng = derive_rng(seed)
    n = R.n
    prefix = math.floor(epsilon * n + 1e-9)
    random_colors = (rng.integers(0, 2, size=prefix) * 2 - 1).tolist() if prefix else []
    vertex_sets = vertex_label_sets(R)
    signs = [0] * n
    label_sums = [0] * R.m
    for v in range(n):
        if v < prefix:
            xv = random_colors[v]
        else:
            z = sum(label_sums[l] for l in vertex_sets[v])
            xv = -1 if z >= 0 else 1
        signs[v] = xv
        for l in vertex_sets[v]:
            label_sums[l] += xv
    return tuple(signs)


def shortest_odd_cycle_reference(adj: list[list[int]]) -> Optional[list[int]]:
    """Shortest odd cycle by a double-cover BFS from every vertex in turn.

    Same cutoff and tie rule as ``wrig_lab.bipartization._shortest_odd_cycle``
    (the smallest start vertex wins), but no pruning of start vertices.
    """
    best: Optional[list[int]] = None
    for s in range(len(adj)):
        cycle = _odd_cycle_through(adj, s, None if best is None else len(best))
        if cycle is not None:
            best = cycle
            if len(best) == 3:
                break
    return best


def count_sequences_reference(R: RepresentationMatrix, k: int) -> int:
    """Closed vertex-label cycles of size k by plain enumeration.

    Counts ordered tuples of k distinct vertices led by their smallest
    vertex, each with every tuple of k distinct labels where label i holds
    vertices i and i+1 mod k; the canonical form of
    ``wrig_lab.bipartization.count_sequences_exact``.
    """
    members = [set(L) for L in R.label_sets]
    total = 0
    for vs in permutations(range(R.n), k):
        if vs[0] != min(vs):
            continue
        holders = [
            [l for l, L in enumerate(members) if vs[i] in L and vs[(i + 1) % k] in L]
            for i in range(k)
        ]
        total += sum(len(set(ls)) == k for ls in product(*holders))
    return total


def parse_coloring_reference(text: str) -> Coloring:
    """Coloring text read token by token, with the library parser's messages."""
    tokens = text.split()
    for token in tokens:
        if token not in ("+1", "-1"):
            raise InputError(f"coloring token must be +1 or -1, got {token!r}")
    if not tokens:
        raise InputError("empty coloring file")
    return Coloring([1 if token == "+1" else -1 for token in tokens])


def dense_matrix(R: RepresentationMatrix) -> np.ndarray:
    out = np.zeros((R.m, R.n), dtype=np.int64)
    for l, L in enumerate(R.label_sets):
        out[l, list(L)] = 1
    return out


def enumerate_half_colorings(n: int) -> np.ndarray:
    """All 2^(n-1) sign vectors with x_0 fixed to +1, one per row."""
    states = np.arange(1 << (n - 1), dtype=np.uint64)
    bits = ((states[:, None] >> np.arange(n - 1, dtype=np.uint64)[None, :]) & 1).astype(
        np.int64
    )
    return np.hstack([np.ones((len(states), 1), dtype=np.int64), 1 - 2 * bits])


def enumeration_oracle(R: RepresentationMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(colorings, |Rx|^2 per row, |Rx|_inf per row) over the half cube."""
    X = enumerate_half_colorings(R.n)
    S = X @ dense_matrix(R).T
    normsq = (S * S).sum(axis=1)
    if R.m:
        disc = np.abs(S).max(axis=1)
    else:
        disc = np.zeros(len(X), dtype=np.int64)
    return X, normsq, disc


def oracle_max_cut_weight(R: RepresentationMatrix) -> int:
    _, normsq, _ = enumeration_oracle(R)
    return (R.entry_sum() - int(normsq.min())) // 4


def oracle_min_discrepancy(R: RepresentationMatrix) -> int:
    _, _, disc = enumeration_oracle(R)
    return int(disc.min())


@st.composite
def matrices(draw, max_n: int = 8, max_m: int = 6, min_n: int = 1, allow_empty_m: bool = True):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    m = draw(st.integers(min_value=0 if allow_empty_m else 1, max_value=max_m))
    label_sets = [
        draw(st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n))
        for _ in range(m)
    ]
    return RepresentationMatrix.from_label_sets(n, label_sets)


@st.composite
def matrices_with_colorings(draw, max_n: int = 8, max_m: int = 6):
    R = draw(matrices(max_n=max_n, max_m=max_m))
    values = tuple(draw(st.sampled_from((-1, 1))) for _ in range(R.n))
    return R, Coloring(values)


@st.composite
def simple_graphs(draw, max_parts: int = 5, max_size: int = 8):
    """Sorted adjacency lists of a simple graph built from parts.

    Each part adds vertices as a random graph, a bipartite graph, a cycle,
    isolated vertices, or a tree whose every vertex hangs off an earlier
    vertex (so a pendant tree on an earlier part, or a new tree component).
    A few extra random edges may then join parts, and a random relabelling
    interleaves the components' vertex numbers.
    """
    edges: set[tuple[int, int]] = set()
    n = 0
    kinds = ("random", "bipartite", "cycle", "isolated", "tree")
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=max_parts)):
        size = draw(st.integers(min_value=1, max_value=max_size))
        vs = list(range(n, n + size))
        if kind in ("random", "bipartite"):
            sides = draw(st.lists(st.booleans(), min_size=size, max_size=size))
            pairs = [
                (u, v)
                for i, u in enumerate(vs)
                for v in vs[i + 1 :]
                if kind == "random" or sides[u - n] != sides[v - n]
            ]
            keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
            edges.update(pair for pair, kept in zip(pairs, keep) if kept)
        elif kind == "cycle" and size >= 3:
            edges.update((vs[i - 1], vs[i]) if i else (vs[0], vs[-1]) for i in range(size))
        elif kind == "tree":
            for v in vs:
                if v:
                    edges.add((draw(st.integers(min_value=0, max_value=v - 1)), v))
        n += size
    vertex = st.integers(min_value=0, max_value=n - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=3)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    label = draw(st.permutations(range(n)))
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[label[u]].append(label[v])
        adj[label[v]].append(label[u])
    for nbrs in adj:
        nbrs.sort()
    return adj
