"""Representation matrices, derived weighted intersection graphs, and the
exact integer evaluators for cut weight, squared norm, and discrepancy.

Everything in this module is immutable after construction and all evaluators
are pure integer arithmetic: the cut identity 4*cut + |Rx|^2 == sum(R^T R)
must hold bit-exactly, so no floating point is used anywhere here.
Vertices and labels are 0-based internally; 1-based indices appear only in
the text formats (see ``wrig_lab.textio``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


@dataclass(frozen=True)
class RepresentationMatrix:
    """Sparse 0/1 label-by-vertex matrix stored as both row and column sets.

    ``label_sets[l]`` lists the vertices that chose label ``l`` (sorted,
    duplicate-free) and ``vertex_sets[v]`` lists the labels chosen by
    vertex ``v``.  The two views are transposes of each other.
    """

    m: int
    n: int
    label_sets: tuple[tuple[int, ...], ...]
    vertex_sets: tuple[tuple[int, ...], ...] = field(compare=False)

    @classmethod
    def from_label_sets(
        cls, n: int, label_sets: Sequence[Iterable[int]]
    ) -> "RepresentationMatrix":
        """Build and validate a matrix from per-label vertex collections."""
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        rows: list[tuple[int, ...]] = []
        columns: list[list[int]] = [[] for _ in range(n)]
        for l, raw in enumerate(label_sets):
            vertices = tuple(sorted(raw))
            for prev, cur in zip(vertices, vertices[1:]):
                if prev == cur:
                    raise ValueError(f"label {l} lists vertex {cur} twice")
            if vertices and (vertices[0] < 0 or vertices[-1] >= n):
                raise ValueError(f"label {l} has a vertex outside [0, {n})")
            rows.append(vertices)
            for v in vertices:
                columns[v].append(l)
        return cls(
            m=len(rows),
            n=n,
            label_sets=tuple(rows),
            vertex_sets=tuple(tuple(c) for c in columns),
        )

    def entry_sum(self) -> int:
        """Sum of all entries of R^T R (diagonal included): sum of |L_l|^2."""
        return sum(len(L) ** 2 for L in self.label_sets)

    def diagonal_sum(self) -> int:
        """Sum of the diagonal of R^T R, i.e. the number of ones in R."""
        return sum(len(L) for L in self.label_sets)


@dataclass(frozen=True)
class WeightedIntersectionGraph:
    """Weighted simple graph with w(u,v) = number of labels shared by u, v.

    Only pairs with at least one common label are stored; the diagonal of
    R^T R never appears here (it cancels in every cut weight) but remains
    recoverable from the matrix's vertex sets.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]
    total_offdiag: int

    def __post_init__(self):
        if self.total_offdiag != 2 * sum(w for _, _, w in self.edges):
            raise ValueError("total_offdiag does not match stored edge weights")


@dataclass(frozen=True)
class Coloring:
    """A 2-coloring of the vertices: one value in {-1, +1} per vertex."""

    values: tuple[int, ...]

    def __post_init__(self):
        for x in self.values:
            if x != 1 and x != -1:
                raise ValueError(f"coloring entries must be +1 or -1, got {x}")

    def __len__(self) -> int:
        return len(self.values)

    def negated(self) -> "Coloring":
        return Coloring(tuple(-x for x in self.values))


def _check_length(R: RepresentationMatrix, x: Coloring) -> None:
    if len(x) != R.n:
        raise ValueError(f"coloring has length {len(x)}, expected {R.n}")


def row_sums(R: RepresentationMatrix, x: Coloring) -> list[int]:
    """Per-label signed color sums: (Rx)_l = sum of x_v over v in L_l."""
    _check_length(R, x)
    vals = x.values
    return [sum(vals[v] for v in L) for L in R.label_sets]


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


def norm_sq(R: RepresentationMatrix, x: Coloring) -> int:
    """Squared 2-norm |Rx|^2 = sum over labels of the squared color sum."""
    return sum(s * s for s in row_sums(R, x))


def cut_weight(R: RepresentationMatrix, x: Coloring) -> int:
    """Weight of the cut induced by ``x``, via the norm identity.

    Equals (sum of all entries of R^T R - |Rx|^2) / 4, which is always a
    nonnegative integer and matches the direct crossing-edge sum.
    """
    quad = R.entry_sum() - norm_sq(R, x)
    assert quad % 4 == 0 and quad >= 0
    return quad // 4


def cut_weight_direct(G: WeightedIntersectionGraph, x: Coloring) -> int:
    """Weight of the cut induced by ``x``, by summing crossing edges."""
    if len(x) != G.n:
        raise ValueError(f"coloring has length {len(x)}, expected {G.n}")
    vals = x.values
    return sum(w for u, v, w in G.edges if vals[u] != vals[v])


def discrepancy(R: RepresentationMatrix, x: Coloring) -> int:
    """Largest absolute color imbalance over all label sets, |Rx|_inf.

    Zero when the matrix has no labels.
    """
    sums = row_sums(R, x)
    return max((abs(s) for s in sums), default=0)
