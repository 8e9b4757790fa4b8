"""Weak bipartization of an intersection graph viewed as overlapping cliques.

Each label's clique is replaced by a random maximal matching; the union of
those matchings (the skeleton) is then repeatedly repaired: whenever an odd
cycle survives that involves at least one strong label (a label chosen by
three or more vertices), that label is re-matched.  Odd cycles made solely
of weak labels (labels with exactly two vertices) cannot be destroyed this
way; the detector instead sets one of their edges aside and keeps going.
On termination the skeleton minus the set-aside edges is bipartite, and
BFS-parity coloring of it balances every label set as well as possible.

A run builds its skeleton once with ``_skeleton`` (the pair -> labels table
and sorted adjacency) and edits it in place: a re-match swaps one label's
pairs, and a detection pass sets weak edges aside and puts them back before
it returns.  Each search step 2-colours the skeleton with the one BFS of
``_two_color``.  A shortest odd cycle comes from one walk of start-vertex
bitsets over the 2-core of the odd components, which stops at the odd
girth, and one double-cover BFS from the smallest start on such a cycle
(``_shortest_odd_cycle``).  ``count_sequences_exact`` builds the same table
of all pairs a label holds.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import Coloring, InputError, RepresentationMatrix
from .sampling import Seed, derive_rng

Pair = tuple[int, int]
ExcludedEdge = tuple[int, int, int]  # (u, v, label) with u < v
# The pair -> ascending labels table and each vertex's sorted neighbours.
Skeleton = tuple[dict[Pair, list[int]], list[list[int]]]

STRONG_MIN_SIZE = 3

# Largest cycle size that count_sequences_exact enumerates (its recursion
# depth), and the work it may do at any n: its vertices plus the vertex pairs
# its labels hold, then its DFS calls plus the entries they scan.  Largest
# cycle size whose expected count is summed (a pair of logs per step).
SEQUENCE_MAX_K = 4
SEQUENCE_WORK_BUDGET = 2**25
EXPECTED_MAX_K = 2**20


def default_max_rematch(n: int) -> int:
    """Generous re-matching budget: max(1000, 10 n ceil(log2(n+2)))."""
    return max(1000, 10 * n * math.ceil(math.log2(n + 2)))


def _strong_labels(R: RepresentationMatrix) -> list[bool]:
    """Per label: is it strong, i.e. chosen by at least STRONG_MIN_SIZE vertices?"""
    return (R.sizes >= STRONG_MIN_SIZE).tolist()


def _member_lists(R: RepresentationMatrix) -> list[list[int]]:
    """Each label's sorted vertices as Python ints, from one ``tolist`` of
    the CSR arrays."""
    indices, bounds = R.indices.tolist(), R.indptr.tolist()
    return [indices[a:b] for a, b in zip(bounds, bounds[1:])]


def random_maximal_matching(
    members: Sequence[int], rng: np.random.Generator
) -> tuple[Pair, ...]:
    """Uniform near-perfect matching of a clique: shuffle, pair consecutive.

    Yields floor(len/2) disjoint pairs; with fewer than two members the
    matching is empty and no randomness is consumed.  ``members`` are
    Python ints.  ``rng.shuffle`` of a list makes the same swaps from the
    same draws as ``rng.permutation`` of an int64 array, without the array.
    """
    if len(members) < 2:
        return ()
    shuffled = list(members)
    rng.shuffle(shuffled)
    pairs = []
    for i in range(0, len(shuffled) - 1, 2):
        u, v = shuffled[i], shuffled[i + 1]
        pairs.append((u, v) if u < v else (v, u))
    return tuple(sorted(pairs))


@dataclass(frozen=True)
class VertexLabelSequence:
    """A closed alternating cycle v_1, l_1, v_2, ..., v_k, l_k back to v_1.

    Label l_i covers the pair (v_i, v_{i+1}).  The detector finds each cycle
    with its smallest vertex first and keeps its traversal direction, so a
    cycle and its reflection are distinct.  ``strength`` counts how many of
    the labels are strong.
    """

    vertices: tuple[int, ...]
    labels: tuple[int, ...]
    strength: int


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
    codd_encounters: int


def _skeleton(n: int, matchings: Sequence[Iterable[Pair]]) -> Skeleton:
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


def _add_label(skeleton: Skeleton, pair: Pair, label: int) -> None:
    """Put ``label`` on ``pair`` as ``_skeleton`` would: label lists stay
    ascending and neighbour lists sorted."""
    pairs, adj = skeleton
    labels = pairs.get(pair)
    if labels is None:
        pairs[pair] = [label]
        u, v = pair
        insort(adj[u], v)
        insort(adj[v], u)
    else:
        insort(labels, label)


def _drop_label(skeleton: Skeleton, pair: Pair, label: int) -> None:
    """Take ``label`` off ``pair``, and the pair off the skeleton when no
    label is left on it."""
    pairs, adj = skeleton
    labels = pairs[pair]
    labels.remove(label)
    if not labels:
        del pairs[pair]
        u, v = pair
        adj[u].remove(v)
        adj[v].remove(u)


def _shortest_odd_cycle(adj: list[list[int]], odd: Sequence[int]) -> Optional[list[int]]:
    """Vertices of a minimum-length odd cycle, or None if ``odd`` is empty.

    ``odd`` lists the vertices of the non-bipartite components, as
    ``_two_color(adj)`` gives them.  Vertices of degree at most 1 are
    peeled from it first, until its 2-core is left: a cycle runs through
    none of them, and a walk into a pendant tree only adds even length.
    ``walks[v]`` is a bitset over the core, bit i set when a walk of the
    current length within it joins the i-th smallest start to v; one step
    ORs each core vertex's neighbours' bitsets.  A walk may go back and
    forth along an edge, so the first odd length g at which some start lies
    on a closed walk is the odd girth, and each start found there lies on a
    shortest odd cycle.  Ties go to the smallest such start, and its
    double-cover BFS over all of ``adj`` gives the cycle.  A shortest odd
    cycle is simple, so g is at most the core's size.  Each of the g steps
    costs O((n' + e') n' / w) for the n' vertices and e' edges of the core
    and machine words of w bits.
    """
    degree = [0] * len(adj)
    for v in odd:
        degree[v] = len(adj[v])
    leaves = [v for v in odd if degree[v] == 1]
    for v in leaves:  # grows while it is walked
        degree[v] = 0
        for w in adj[v]:
            if degree[w] > 1:
                degree[w] -= 1
                if degree[w] == 1:
                    leaves.append(w)
    starts = sorted(v for v in odd if degree[v])
    walks = [0] * len(adj)
    for i, s in enumerate(starts):
        walks[s] = 1 << i
    following = [0] * len(adj)
    for length in range(1, len(starts) + 1):
        for v in starts:
            reach = 0
            for w in adj[v]:
                reach |= walks[w]
            following[v] = reach
        walks, following = following, walks
        if length % 2:
            for i, s in enumerate(starts):
                if walks[s] >> i & 1:
                    return _odd_cycle_through(adj, s)
    return None


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


def _odd_cycle_through(adj: list[list[int]], s: int) -> list[int]:
    """Shortest odd closed walk from s, which must lie on an odd cycle:
    ``_shortest_odd_cycle`` calls it only for such a start.

    BFS over the double cover, level by level, where node 2v + parity is
    vertex v reached after a walk of that parity; the walk ends at node
    2s + 1.
    """
    start, goal = 2 * s, 2 * s + 1
    parent = {start: start}
    frontier = [start]
    while frontier:
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
    skeleton: Skeleton, strong: Sequence[bool]
) -> tuple[
    Optional[VertexLabelSequence],
    list[VertexLabelSequence],
    set[ExcludedEdge],
    Optional[Coloring],
]:
    """Search ``skeleton``, the ``_skeleton`` of the current matchings, for
    a repairable odd cycle.  ``strong[l]`` tells whether label l is strong
    (``_strong_labels``).

    Returns ``(member, zero_strong, excluded, coloring)``.  Each search
    step 2-colours the skeleton minus ``excluded``; once that graph is
    bipartite, ``member`` is None and ``coloring`` is that 2-coloring.
    Until then ``member`` is a shortest odd cycle with a strong label, and
    ``coloring`` is None.  Odd cycles made purely of weak labels go to
    ``zero_strong`` instead: one edge of each (the one with the smallest
    label) moves to ``excluded`` and the search continues.  The search
    takes each excluded edge off ``skeleton`` and puts it back before it
    returns, so the caller's skeleton ends as it was given.

    Minimality makes the returned cycle simple in its vertices, and a weak
    label can never repeat along it (each contributes a single edge).  A
    dense strong label, however, may contribute two matching edges to one
    shortest odd cycle; such a cycle is still returned as a repair member,
    since re-matching that label is the only available fix.
    """
    pairs, adj = skeleton
    zero_strong: list[VertexLabelSequence] = []
    excluded: set[ExcludedEdge] = set()
    try:
        while True:
            signs, odd = _two_color(adj)
            if not odd:
                return None, zero_strong, excluded, Coloring(signs)
            cycle = _shortest_odd_cycle(adj, odd)
            labels = _cycle_labels(pairs, strong, cycle)
            assert len(set(cycle)) == len(cycle), "detector returned repeated vertices"
            # The walk's smallest start leads its cycle: canonical as found.
            seq = VertexLabelSequence(tuple(cycle), tuple(labels), sum(strong[l] for l in labels))
            if seq.strength > 0:
                return seq, zero_strong, excluded, None

            zero_strong.append(seq)
            k = min(range(len(labels)), key=labels.__getitem__)
            u, w = sorted((cycle[k], cycle[(k + 1) % len(cycle)]))
            excluded.add((u, w, labels[k]))
            _drop_label(skeleton, (u, w), labels[k])
    finally:
        for u, w, l in excluded:
            _add_label(skeleton, (u, w), l)


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
    The skeleton is built once; a re-match takes the label off its old
    pairs and puts it on its new ones, and every detection pass searches
    the whole skeleton, since a new matching can change the cycle
    structure.
    """
    if max_rematch is None:
        max_rematch = default_max_rematch(R.n)
    elif max_rematch < 0:
        raise InputError(f"max_rematch must be >= 0, got {max_rematch}")
    rng = derive_rng(seed)
    strong = _strong_labels(R)
    members = _member_lists(R)
    matchings = [random_maximal_matching(vertices, rng) for vertices in members]
    skeleton = _skeleton(R.n, matchings)
    iterations = 0
    encountered: set[VertexLabelSequence] = set()
    while True:
        # Looked up at call time, so a wrapper at the module attribute sees
        # every pass.
        member, zero_strong, excluded, coloring = find_codd_member(skeleton, strong)
        if member is None:
            break
        encountered.add(member)
        if iterations >= max_rematch:
            break
        label = min(l for l in member.labels if strong[l])
        for pair in matchings[label]:
            _drop_label(skeleton, pair, label)
        matchings[label] = random_maximal_matching(members[label], rng)
        for pair in matchings[label]:
            _add_label(skeleton, pair, label)
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
    reflections count separately.  Exponential in k, hence the cap
    ``SEQUENCE_MAX_K``.  At any n, a matrix whose pair table or search would
    take more than ``SEQUENCE_WORK_BUDGET`` steps is an InputError.
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if k > SEQUENCE_MAX_K:
        raise InputError(f"k={k} exceeds the cap {SEQUENCE_MAX_K}")
    if k > R.n or k > R.m:
        return 0
    if k == 1:
        return R.diagonal_sum()

    over_budget = f"counting cycles of size k={k} exceeds the work budget {SEQUENCE_WORK_BUDGET}"
    pair_entries = (R.entry_sum() - R.diagonal_sum()) // 2  # sum of C(|L_l|, 2)
    if R.n + pair_entries > SEQUENCE_WORK_BUDGET:
        raise InputError(over_budget)
    pairs, adj = _skeleton(R.n, [combinations(vertices, 2) for vertices in _member_lists(R)])
    work = 0

    def closings(path: tuple[int, ...], used: tuple[int, ...]) -> int:
        """Cycles that extend ``path`` (its first vertex the smallest) with
        distinct labels not in ``used``, one per remaining consecutive pair."""
        nonlocal work
        last = path[-1]
        closing = len(path) == k
        scanned = pairs.get((path[0], last), ()) if closing else adj[last]
        work += 1 + len(scanned)
        if work > SEQUENCE_WORK_BUDGET:
            raise InputError(over_budget)
        if closing:
            return len([l for l in scanned if l not in used])
        total = 0
        for w in scanned:
            if w > path[0] and w not in path:
                for l in pairs[(last, w) if last < w else (w, last)]:
                    if l not in used:
                        total += closings(path + (w,), used + (l,))
        return total

    return sum(closings((v,), ()) for v in range(R.n))
