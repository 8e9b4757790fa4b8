"""Weak bipartization of an intersection graph viewed as overlapping cliques.

Each label's clique is replaced by a random maximal matching; the union of
those matchings (the skeleton) is then repeatedly repaired: whenever an odd
cycle survives that involves at least one strong label (a label chosen by
three or more vertices), that label is re-matched.  Odd cycles made solely
of weak labels (labels with exactly two vertices) cannot be destroyed this
way; the detector instead sets one of their edges aside and keeps going.
On termination the skeleton minus the set-aside edges is bipartite, and
BFS-parity coloring of it balances every label set as well as possible.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import Coloring, RepresentationMatrix
from .sampling import Seed, derive_rng

Pair = tuple[int, int]
ExcludedEdge = tuple[int, int, int]  # (u, v, label) with u < v

STRONG_MIN_SIZE = 3

# Largest cycle size and vertex count that count_sequences_exact enumerates.
SEQUENCE_MAX_K = 4
SEQUENCE_MAX_N = 12


def default_max_rematch(n: int) -> int:
    """Generous re-matching budget: max(1000, 10 n ceil(log2(n+2)))."""
    return max(1000, 10 * n * math.ceil(math.log2(n + 2)))


def random_maximal_matching(
    members: Sequence[int], rng: np.random.Generator
) -> tuple[Pair, ...]:
    """Uniform near-perfect matching of a clique: shuffle, pair consecutive.

    Yields floor(len/2) disjoint pairs; with fewer than two members the
    matching is empty and no randomness is consumed.
    """
    if len(members) < 2:
        return ()
    shuffled = rng.permutation(np.asarray(members, dtype=np.int64)).tolist()
    pairs = []
    for i in range(0, len(shuffled) - 1, 2):
        u, v = shuffled[i], shuffled[i + 1]
        pairs.append((u, v) if u < v else (v, u))
    return tuple(sorted(pairs))


@dataclass(frozen=True)
class VertexLabelSequence:
    """A closed alternating cycle v_1, l_1, v_2, ..., v_k, l_k back to v_1.

    Canonical form: rotated so the smallest vertex comes first; traversal
    direction is preserved, so a cycle and its reflection are distinct.
    ``strength`` counts how many of the labels are strong.
    """

    vertices: tuple[int, ...]
    labels: tuple[int, ...]
    strength: int

    @classmethod
    def from_cycle(
        cls,
        R: RepresentationMatrix,
        vertices: Sequence[int],
        labels: Sequence[int],
    ) -> "VertexLabelSequence":
        if len(vertices) != len(labels):
            raise ValueError("need one label per consecutive vertex pair")
        k = len(vertices)
        for i in range(k):
            u, w = vertices[i], vertices[(i + 1) % k]
            L = R.label_sets[labels[i]]
            if u not in L or w not in L:
                raise ValueError(
                    f"label {labels[i]} does not cover the pair ({u}, {w})"
                )
        j = min(range(k), key=lambda i: vertices[i])
        return cls(
            vertices=tuple(vertices[j:]) + tuple(vertices[:j]),
            labels=tuple(labels[j:]) + tuple(labels[:j]),
            strength=sum(
                1 for l in labels if len(R.label_sets[l]) >= STRONG_MIN_SIZE
            ),
        )

    def __len__(self) -> int:
        return len(self.labels)


class BipartizationState:
    """Mutable working state: per-label matchings plus detection bookkeeping.

    The skeleton is the multigraph union of all matchings, each edge tagged
    by its originating label.  ``excluded`` collects one weak-label edge per
    odd cycle the detector could not repair; ``zero_strong`` records those
    cycles and ``label_disjoint`` stays true while no two of them share a
    label.
    """

    def __init__(
        self,
        R: RepresentationMatrix,
        matchings: Sequence[Sequence[Pair]],
        excluded: Iterable[ExcludedEdge] = (),
    ):
        if len(matchings) != R.m:
            raise ValueError(f"need one matching per label, got {len(matchings)}")
        self.R = R
        self.matchings: list[tuple[Pair, ...]] = []
        for l, matching in enumerate(matchings):
            self.matchings.append(self._checked_matching(l, matching))
        self.excluded: set[ExcludedEdge] = set()
        self.zero_strong: list[VertexLabelSequence] = []
        self.label_disjoint: bool = True
        for edge in excluded:
            self._check_excluded(edge)
            self.excluded.add(edge)

    @classmethod
    def initial(
        cls, R: RepresentationMatrix, rng: np.random.Generator
    ) -> "BipartizationState":
        return cls(R, [random_maximal_matching(L, rng) for L in R.label_sets])

    def _checked_matching(self, label: int, matching: Sequence[Pair]) -> tuple[Pair, ...]:
        L = self.R.label_sets[label]
        pairs = tuple(tuple(sorted(p)) for p in matching)
        seen: set[int] = set()
        for u, v in pairs:
            if u == v or u not in L or v not in L:
                raise ValueError(f"pair ({u}, {v}) is not a valid edge of label {label}")
            if u in seen or v in seen:
                raise ValueError(f"matching of label {label} reuses a vertex")
            seen.update((u, v))
        if len(pairs) != len(L) // 2:
            raise ValueError(
                f"matching of label {label} is not maximal: "
                f"{len(pairs)} pairs for {len(L)} vertices"
            )
        return pairs

    def _check_excluded(self, edge: ExcludedEdge) -> None:
        u, v, l = edge
        if (u, v) not in self.matchings[l]:
            raise ValueError(f"excluded edge {edge} is not in the skeleton")
        if len(self.R.label_sets[l]) != 2:
            raise ValueError(f"excluded edge {edge} must carry a weak label")

    def rematch(self, label: int, rng: np.random.Generator) -> None:
        self.matchings[label] = random_maximal_matching(self.R.label_sets[label], rng)

    def reset_detection(self) -> None:
        self.excluded.clear()
        self.zero_strong.clear()
        self.label_disjoint = True

    def available_edges(self) -> dict[Pair, tuple[int, ...]]:
        """Simple-graph view of skeleton minus excluded: pair -> labels."""
        table: dict[Pair, list[int]] = {}
        for l, matching in enumerate(self.matchings):
            for pair in matching:
                if (pair[0], pair[1], l) not in self.excluded:
                    table.setdefault(pair, []).append(l)
        return {pair: tuple(labels) for pair, labels in table.items()}


@dataclass(frozen=True)
class BipartizationOutcome:
    """Result of a full bipartization run.

    ``codd_encounters`` counts the distinct repairable odd cycles the
    detector returned over the whole run (re-findings of the same cycle
    after an unlucky re-match are not double counted).
    """

    terminated: bool
    iterations: int
    state: BipartizationState
    zero_strong_cycles: tuple[VertexLabelSequence, ...]
    label_disjoint: bool
    codd_encounters: int = 0


def _adjacency(edges: dict[Pair, tuple[int, ...]]) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for nbrs in adj.values():
        nbrs.sort()
    return adj


def _shortest_odd_cycle(adj: dict[int, list[int]]) -> Optional[list[int]]:
    """Vertices of a minimum-length odd cycle, or None if the graph is bipartite.

    Runs a BFS on the bipartite double cover from every vertex s: the
    distance from (s, even) to (s, odd) is the length of the shortest odd
    closed walk through s, and at the global minimum that walk is a simple
    cycle.  Ties go to the smallest start vertex.
    """
    best_len: Optional[int] = None
    best_start = -1
    for s in sorted(adj):
        reached = _double_cover_distance(adj, s, best_len)
        if reached is not None and (best_len is None or reached < best_len):
            best_len, best_start = reached, s
            if best_len == 3:
                break
    if best_len is None:
        return None

    parent: dict[tuple[int, int], tuple[int, int]] = {}
    start = (best_start, 0)
    goal = (best_start, 1)
    dist = {start: 0}
    queue = deque([start])
    while goal not in dist:
        u, par = queue.popleft()
        for w in adj[u]:
            node = (w, par ^ 1)
            if node not in dist:
                dist[node] = dist[(u, par)] + 1
                parent[node] = (u, par)
                queue.append(node)
    walk = [goal]
    while walk[-1] != start:
        walk.append(parent[walk[-1]])
    cycle = [v for v, _ in reversed(walk)][:-1]
    return cycle


def _double_cover_distance(
    adj: dict[int, list[int]], s: int, cutoff: Optional[int]
) -> Optional[int]:
    start = (s, 0)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u, par = queue.popleft()
        du = dist[(u, par)]
        if cutoff is not None and du + 1 >= cutoff:
            continue
        for w in adj[u]:
            node = (w, par ^ 1)
            if node not in dist:
                if node == (s, 1):
                    return du + 1
                dist[node] = du + 1
                queue.append(node)
    return None


def _cycle_labels(
    state: BipartizationState,
    edges: dict[Pair, tuple[int, ...]],
    cycle: Sequence[int],
) -> list[int]:
    """One label per cycle edge, preferring the smallest strong one."""
    label_sets = state.R.label_sets
    chosen = []
    for i in range(len(cycle)):
        u, w = cycle[i], cycle[(i + 1) % len(cycle)]
        avail = edges[(u, w) if u < w else (w, u)]
        strong = [l for l in avail if len(label_sets[l]) >= STRONG_MIN_SIZE]
        chosen.append(min(strong) if strong else min(avail))
    return chosen


def find_codd_member(state: BipartizationState) -> Optional[VertexLabelSequence]:
    """Search skeleton minus excluded for a repairable odd cycle.

    Returns a shortest odd cycle that carries at least one strong label.
    Odd cycles made purely of weak labels are recorded instead: one edge of
    each (the one with the smallest label) moves to the excluded set and the
    search continues.  Recording a cycle that shares a label with an earlier
    recorded one clears ``state.label_disjoint``.

    Minimality makes the returned cycle simple in its vertices, and a weak
    label can never repeat along it (each contributes a single edge).  A
    dense strong label, however, may contribute two matching edges to one
    shortest odd cycle; such a cycle is still returned as a repair member,
    since re-matching that label is the only available fix.
    """
    while True:
        edges = state.available_edges()
        cycle = _shortest_odd_cycle(_adjacency(edges))
        if cycle is None:
            return None
        labels = _cycle_labels(state, edges, cycle)
        assert len(set(cycle)) == len(cycle), "detector returned repeated vertices"
        seq = VertexLabelSequence.from_cycle(state.R, cycle, labels)
        if seq.strength > 0:
            return seq

        known = set().union(*(s.labels for s in state.zero_strong)) if state.zero_strong else set()
        if known.intersection(seq.labels):
            state.label_disjoint = False
        state.zero_strong.append(seq)
        k = min(range(len(labels)), key=lambda i: labels[i])
        u, w = cycle[k], cycle[(k + 1) % len(cycle)]
        state.excluded.add((min(u, w), max(u, w), labels[k]))


def weak_bipartization(
    R: RepresentationMatrix,
    seed: Seed,
    max_rematch: Optional[int] = None,
) -> BipartizationOutcome:
    """Run the full matching / repair loop on a representation matrix.

    Draws the initial matchings, then alternates detection and re-matching
    of one strong label (the smallest in the found cycle) until no
    repairable odd cycle remains, or the re-match budget runs out, in which
    case the outcome reports ``terminated=False`` rather than raising.
    Excluded edges and recorded weak cycles are rebuilt from scratch after
    every re-match, since a new matching can change the cycle structure.
    """
    if max_rematch is None:
        max_rematch = default_max_rematch(R.n)
    rng = derive_rng(seed)
    state = BipartizationState.initial(R, rng)
    iterations = 0
    encountered: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    while True:
        state.reset_detection()
        member = find_codd_member(state)
        if member is None:
            terminated = True
            break
        encountered.add((member.vertices, member.labels))
        if iterations >= max_rematch:
            terminated = False
            break
        strong = [
            l for l in member.labels if len(R.label_sets[l]) >= STRONG_MIN_SIZE
        ]
        state.rematch(min(strong), rng)
        iterations += 1
    return BipartizationOutcome(
        terminated=terminated,
        iterations=iterations,
        state=state,
        zero_strong_cycles=tuple(state.zero_strong),
        label_disjoint=state.label_disjoint,
        codd_encounters=len(encountered),
    )


def extract_coloring(outcome: BipartizationOutcome) -> Coloring:
    """BFS-parity 2-coloring of the bipartite graph skeleton minus excluded.

    Each connected component is colored from its smallest vertex (+1 on even
    layers, -1 on odd); isolated vertices get +1.  Every label whose edges
    all survived ends up balanced to within its size parity, and each
    excluded weak label ends up monochromatic.
    """
    if not outcome.terminated:
        raise ValueError("cannot extract a coloring from a non-terminated run")
    state = outcome.state
    n = state.R.n
    adj = _adjacency(state.available_edges())
    signs = [0] * n
    for start in range(n):
        if signs[start] != 0:
            continue
        signs[start] = 1
        if start not in adj:
            continue
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if signs[w] == 0:
                    signs[w] = -signs[u]
                    queue.append(w)
                else:
                    assert signs[w] == -signs[u], "skeleton minus excluded is not bipartite"
    return Coloring(tuple(signs))


def expected_sequence_count(n: int, m: int, p: float, k: int) -> float:
    """Expected number of distinct closed vertex-label cycles of size k.

    Evaluates (1/k) * n!/(n-k)! * m!/(m-k)! * p^(2k) through log-factorials;
    rotations of a cycle are identified, reflections are not.
    """
    if not 1 <= k <= min(n, m):
        raise ValueError(f"need 1 <= k <= min(n, m) = {min(n, m)}, got {k}")
    if p == 0.0:
        return 0.0
    log_value = (
        -math.log(k)
        + math.lgamma(n + 1)
        - math.lgamma(n - k + 1)
        + math.lgamma(m + 1)
        - math.lgamma(m - k + 1)
        + 2 * k * math.log(p)
    )
    return math.exp(log_value)


def count_sequences_exact(R: RepresentationMatrix, k: int) -> int:
    """Count closed vertex-label cycles of size k on a concrete matrix.

    Counts sequences with distinct vertices and distinct labels in the same
    canonical form as ``VertexLabelSequence``: the smallest vertex leads,
    reflections count separately.  Exponential in k, hence the caps
    ``SEQUENCE_MAX_K`` and ``SEQUENCE_MAX_N``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > SEQUENCE_MAX_K:
        raise ValueError(f"k={k} exceeds the cap {SEQUENCE_MAX_K}")
    if R.n > SEQUENCE_MAX_N:
        raise ValueError(f"n={R.n} exceeds the cap {SEQUENCE_MAX_N}")
    if k > R.n or k > R.m:
        return 0
    if k == 1:
        return R.diagonal_sum()

    common: dict[Pair, list[int]] = {}
    for l, L in enumerate(R.label_sets):
        for i, u in enumerate(L):
            for v in L[i + 1 :]:
                common.setdefault((u, v), []).append(l)
    neighbors: dict[int, list[tuple[int, list[int]]]] = {v: [] for v in range(R.n)}
    for (u, v), labels in common.items():
        neighbors[u].append((v, labels))
        neighbors[v].append((u, labels))

    total = 0

    def extend(first: int, last: int, visited: set[int], used: set[int], depth: int):
        nonlocal total
        if depth == k:
            key = (first, last) if first < last else (last, first)
            for l in common.get(key, ()):
                if l not in used:
                    total += 1
            return
        for w, labels in neighbors[last]:
            if w <= first or w in visited:
                continue
            for l in labels:
                if l in used:
                    continue
                visited.add(w)
                used.add(l)
                extend(first, w, visited, used, depth + 1)
                used.discard(l)
                visited.discard(w)

    for v1 in range(R.n):
        extend(v1, v1, {v1}, set(), 1)
    return total
