"""Weak bipartization of an intersection graph viewed as overlapping cliques.

Each label's clique is replaced by a random maximal matching; the union of
those matchings (the skeleton) is then repeatedly repaired: whenever an odd
cycle survives that involves at least one strong label (a label chosen by
three or more vertices), that label is re-matched.  Odd cycles made solely
of weak labels (labels with exactly two vertices) cannot be destroyed this
way; the detector instead sets one of their edges aside and keeps going.
On termination the skeleton minus the set-aside edges is bipartite, and
BFS-parity coloring of it balances every label set as well as possible.

Every graph pass builds its graph with ``_skeleton`` (the pair -> labels
table and sorted adjacency, of the matchings or of all pairs a label holds)
and 2-colours it with the one BFS of ``_two_color``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import Coloring, InputError, RepresentationMatrix
from .sampling import Seed, derive_rng

Pair = tuple[int, int]
ExcludedEdge = tuple[int, int, int]  # (u, v, label) with u < v

STRONG_MIN_SIZE = 3

# Largest cycle size and vertex count that count_sequences_exact enumerates,
# and largest cycle size whose expected count is summed (a pair of logs per step).
SEQUENCE_MAX_K = 4
SEQUENCE_MAX_N = 12
EXPECTED_MAX_K = 2**20


def default_max_rematch(n: int) -> int:
    """Generous re-matching budget: max(1000, 10 n ceil(log2(n+2)))."""
    return max(1000, 10 * n * math.ceil(math.log2(n + 2)))


def _strong_labels(R: RepresentationMatrix) -> list[bool]:
    """Per label: is it strong, i.e. chosen by at least STRONG_MIN_SIZE vertices?"""
    return (R.sizes >= STRONG_MIN_SIZE).tolist()


def _members(R: RepresentationMatrix, label: int) -> np.ndarray:
    """The sorted vertices of ``label``: its slice of the CSR indices."""
    return R.indices[R.indptr[label] : R.indptr[label + 1]]


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
        """Canonical sequence of a cycle whose i-th label covers the pair
        (vertices[i], vertices[i+1]); the caller guarantees the coverage."""
        if len(vertices) != len(labels):
            raise InputError("need one label per consecutive vertex pair")
        j = min(range(len(vertices)), key=vertices.__getitem__)
        return cls(
            vertices=tuple(vertices[j:]) + tuple(vertices[:j]),
            labels=tuple(labels[j:]) + tuple(labels[:j]),
            strength=int((R.sizes[list(labels)] >= STRONG_MIN_SIZE).sum()),
        )


@dataclass(frozen=True)
class BipartizationOutcome:
    """Result of a full bipartization run.

    ``matchings`` holds each label's final matching and ``excluded`` the
    weak edges (u, v, label) the last detection pass set aside; the
    skeleton is the union of the matchings.  ``coloring`` is that pass's
    2-coloring of the skeleton minus ``excluded``, None if the run did not
    terminate.  ``label_disjoint`` holds when no label lies on two of that
    pass's ``zero_strong_cycles``.  ``codd_encounters`` counts the distinct
    repairable odd cycles the detector returned over the whole run
    (re-findings of the same cycle after an unlucky re-match are not double
    counted).
    """

    terminated: bool
    iterations: int
    matchings: tuple[tuple[Pair, ...], ...]
    excluded: frozenset[ExcludedEdge]
    zero_strong_cycles: tuple[VertexLabelSequence, ...]
    label_disjoint: bool
    coloring: Optional[Coloring]
    codd_encounters: int = 0


def _skeleton(
    n: int, matchings: Sequence[Iterable[Pair]]
) -> tuple[dict[Pair, list[int]], list[list[int]]]:
    """Union of per-label pair lists (each pair u < v) as a simple graph:
    the labels of each pair in ascending order, and each vertex's sorted
    neighbours."""
    pairs: dict[Pair, list[int]] = {}
    for l, matching in enumerate(matchings):
        for u, v in matching:
            pairs.setdefault((u, v), []).append(l)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    for nbrs in adj:
        nbrs.sort()
    return pairs, adj


def _shortest_odd_cycle(adj: list[list[int]], odd: Sequence[int]) -> Optional[list[int]]:
    """Vertices of a minimum-length odd cycle, or None if ``odd`` is empty.

    ``odd`` lists the vertices of the non-bipartite components, as
    ``_two_color(adj)`` gives them.  The shortest odd closed walk through
    each start vertex comes from a BFS on the bipartite double cover; at
    the global minimum that walk is a simple cycle.  Ties go to the
    smallest start vertex.

    The search runs on the 2-core from the core vertices in ``odd``, and
    returns the cycle a search from every vertex returns.  A component's
    core is connected, and bipartite exactly when the component is.  A
    vertex peeled off the core sits on a tree hanging off it (or on a tree
    component), so its shortest odd closed walk is at least g + 2 long, g
    the global minimum: it never reaches g first, and its cutoff prunes no
    walk of length g.  A hanging tree leads back only to its core vertex,
    with that vertex's parity, so it never sets a core node's BFS parent
    nor reorders the core nodes of a BFS level.
    """
    core = _two_core(adj)
    best: Optional[list[int]] = None
    for s in sorted(v for v in odd if core[v]):
        cycle = _odd_cycle_through(core, s, None if best is None else len(best))
        if cycle is not None:
            best = cycle
            if len(best) == 3:
                break
    return best


def _two_core(adj: list[list[int]]) -> list[list[int]]:
    """The 2-core's adjacency: vertices of degree <= 1 are peeled until none
    is left; a peeled vertex keeps no neighbours, a core vertex its core
    neighbours in their order.  O(n + e)."""
    degree = [len(nbrs) for nbrs in adj]
    in_core = [d > 1 for d in degree]
    peel = [v for v, kept in enumerate(in_core) if not kept]
    while peel:
        for w in adj[peel.pop()]:
            if in_core[w]:
                degree[w] -= 1
                if degree[w] <= 1:
                    in_core[w] = False
                    peel.append(w)
    return [[w for w in nbrs if in_core[w]] if kept else [] for nbrs, kept in zip(adj, in_core)]


def _two_color(adj: list[list[int]]) -> tuple[list[int], list[int]]:
    """BFS-parity signs, +1 at each component's smallest vertex, and the
    vertices of the components that are not bipartite.  O(n + e)."""
    signs = [0 if nbrs else 1 for nbrs in adj]  # an isolated vertex is done
    odd: list[int] = []
    for s in range(len(adj)):
        if signs[s]:
            continue
        signs[s] = 1
        component = [s]
        bipartite = True
        for u in component:  # grows while it is walked: a BFS queue
            for w in adj[u]:
                if not signs[w]:
                    signs[w] = -signs[u]
                    component.append(w)
                elif signs[w] == signs[u]:
                    bipartite = False
        if not bipartite:
            odd += component
    return signs, odd


def _odd_cycle_through(
    adj: list[list[int]], s: int, cutoff: Optional[int]
) -> Optional[list[int]]:
    """Shortest odd closed walk from s, if one is shorter than ``cutoff``.

    BFS over the double cover, level by level, where node 2v + parity is
    vertex v reached after a walk of that parity; the walk ends at node
    2s + 1.  Levels from cutoff - 1 on are not expanded, since every walk
    they would lead to is at least ``cutoff`` long.
    """
    start, goal = 2 * s, 2 * s + 1
    parent = {start: start}
    frontier = [start]
    depth = 0
    while frontier and (cutoff is None or depth + 1 < cutoff):
        following = []
        for node in frontier:
            flip = 1 - (node & 1)
            for w in adj[node >> 1]:
                nxt = 2 * w + flip
                if nxt in parent:
                    continue
                parent[nxt] = node
                if nxt == goal:
                    walk = []
                    while node != start:
                        walk.append(node >> 1)
                        node = parent[node]
                    walk.append(s)
                    return walk[::-1]
                following.append(nxt)
        frontier = following
        depth += 1
    return None


def _cycle_labels(
    pairs: dict[Pair, list[int]], strong: Sequence[bool], cycle: Sequence[int]
) -> list[int]:
    """One label per cycle edge, preferring the smallest strong one."""
    chosen = []
    for i in range(len(cycle)):
        u, w = cycle[i], cycle[(i + 1) % len(cycle)]
        avail = pairs[(u, w) if u < w else (w, u)]
        chosen.append(next((l for l in avail if strong[l]), avail[0]))
    return chosen


def find_codd_member(
    R: RepresentationMatrix, matchings: Sequence[Sequence[Pair]]
) -> tuple[
    Optional[VertexLabelSequence],
    list[VertexLabelSequence],
    set[ExcludedEdge],
    Optional[Coloring],
]:
    """Search the skeleton of ``matchings`` for a repairable odd cycle.

    Returns ``(member, zero_strong, excluded, coloring)``.  Each search
    step 2-colours the skeleton minus ``excluded``; once that graph is
    bipartite, ``member`` is None and ``coloring`` is that 2-coloring.
    Until then ``member`` is a shortest odd cycle with a strong label, and
    ``coloring`` is None.  Odd cycles made purely of weak labels go to
    ``zero_strong`` instead: one edge of each (the one with the smallest
    label) moves to ``excluded`` and the search continues.

    Minimality makes the returned cycle simple in its vertices, and a weak
    label can never repeat along it (each contributes a single edge).  A
    dense strong label, however, may contribute two matching edges to one
    shortest odd cycle; such a cycle is still returned as a repair member,
    since re-matching that label is the only available fix.
    """
    pairs, adj = _skeleton(R.n, matchings)
    strong = _strong_labels(R)
    zero_strong: list[VertexLabelSequence] = []
    excluded: set[ExcludedEdge] = set()
    while True:
        signs, odd = _two_color(adj)
        if not odd:
            return None, zero_strong, excluded, Coloring(tuple(signs))
        cycle = _shortest_odd_cycle(adj, odd)
        labels = _cycle_labels(pairs, strong, cycle)
        assert len(set(cycle)) == len(cycle), "detector returned repeated vertices"
        seq = VertexLabelSequence.from_cycle(R, cycle, labels)
        if seq.strength > 0:
            return seq, zero_strong, excluded, None

        zero_strong.append(seq)
        k = min(range(len(labels)), key=labels.__getitem__)
        u, w = sorted((cycle[k], cycle[(k + 1) % len(cycle)]))
        excluded.add((u, w, labels[k]))
        pair_labels = pairs[(u, w)]
        pair_labels.remove(labels[k])
        if not pair_labels:
            del pairs[(u, w)]
            adj[u].remove(w)
            adj[w].remove(u)


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
    Every detection pass starts from the whole skeleton, since a new
    matching can change the cycle structure.
    """
    if max_rematch is None:
        max_rematch = default_max_rematch(R.n)
    elif max_rematch < 0:
        raise InputError(f"max_rematch must be >= 0, got {max_rematch}")
    rng = derive_rng(seed)
    strong = _strong_labels(R)
    matchings = [random_maximal_matching(_members(R, l), rng) for l in range(R.m)]
    iterations = 0
    encountered: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    while True:
        # Looked up at call time, so a wrapper at the module attribute sees
        # every pass.
        member, zero_strong, excluded, coloring = find_codd_member(R, matchings)
        if member is None:
            break
        encountered.add((member.vertices, member.labels))
        if iterations >= max_rematch:
            break
        label = min(l for l in member.labels if strong[l])
        matchings[label] = random_maximal_matching(_members(R, label), rng)
        iterations += 1
    # A zero-strong cycle is simple and all its labels are weak, each covering
    # one pair, so no label repeats within one: a repeat lies on two cycles.
    labels = [l for seq in zero_strong for l in seq.labels]
    return BipartizationOutcome(
        terminated=coloring is not None,
        iterations=iterations,
        matchings=tuple(matchings),
        excluded=frozenset(excluded),
        zero_strong_cycles=tuple(zero_strong),
        label_disjoint=len(set(labels)) == len(labels),
        coloring=coloring,
        codd_encounters=len(encountered),
    )


def extract_coloring(outcome: BipartizationOutcome) -> Coloring:
    """``outcome.coloring`` of a terminated run; an InputError otherwise.

    No library code calls this: callers read ``outcome.coloring``, which is
    None exactly when the run did not terminate.  It stays because the
    benchmark's tracer (``bench/tracing.py``) wraps it by name.
    """
    if not outcome.terminated:
        raise InputError("cannot extract a coloring from a non-terminated run")
    return outcome.coloring


def expected_sequence_count(n: int, m: int, p: float, k: int) -> float:
    """Expected number of distinct closed vertex-label cycles of size k.

    Evaluates (1/k) * n!/(n-k)! * m!/(m-k)! * p^(2k) as the sum of the k
    falling-factorial logs log((n-i) p) + log((m-i) p), which stays exact
    when n or m is far above k; rotations of a cycle are identified,
    reflections are not.  k is capped at ``EXPECTED_MAX_K``, and a value
    beyond the float range is an InputError.
    """
    if not 1 <= k <= min(n, m):
        raise InputError(f"need 1 <= k <= min(n, m) = {min(n, m)}, got {k}")
    if k > EXPECTED_MAX_K:
        raise InputError(f"k={k} exceeds the cap {EXPECTED_MAX_K}")
    if not 0.0 <= p <= 1.0:
        raise InputError(f"need 0 <= p <= 1, got p={p}")
    if p == 0.0:
        return 0.0
    try:
        terms = (math.log((n - i) * p) + math.log((m - i) * p) for i in range(k))
        return math.exp(math.fsum(terms) - math.log(k))
    except OverflowError:
        raise InputError(
            f"the expected count for n={n}, m={m}, p={p}, k={k} exceeds the float range"
        ) from None


def count_sequences_exact(R: RepresentationMatrix, k: int) -> int:
    """Count closed vertex-label cycles of size k on a concrete matrix.

    Counts sequences with distinct vertices and distinct labels in the same
    canonical form as ``VertexLabelSequence``: the smallest vertex leads,
    reflections count separately.  Exponential in k, hence the caps
    ``SEQUENCE_MAX_K`` and ``SEQUENCE_MAX_N``.
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if k > SEQUENCE_MAX_K:
        raise InputError(f"k={k} exceeds the cap {SEQUENCE_MAX_K}")
    if R.n > SEQUENCE_MAX_N:
        raise InputError(f"n={R.n} exceeds the cap {SEQUENCE_MAX_N}")
    if k > R.n or k > R.m:
        return 0
    if k == 1:
        return R.diagonal_sum()

    pairs, adj = _skeleton(R.n, [combinations(_members(R, l).tolist(), 2) for l in range(R.m)])

    def closings(path: tuple[int, ...], used: tuple[int, ...]) -> int:
        """Cycles that extend ``path`` (its first vertex the smallest) with
        distinct labels not in ``used``, one per remaining consecutive pair."""
        last = path[-1]
        if len(path) == k:
            return len([l for l in pairs.get((path[0], last), ()) if l not in used])
        total = 0
        for w in adj[last]:
            if w > path[0] and w not in path:
                for l in pairs[(last, w) if last < w else (w, last)]:
                    if l not in used:
                        total += closings(path + (w,), used + (l,))
        return total

    return sum(closings((v,), ()) for v in range(R.n))
