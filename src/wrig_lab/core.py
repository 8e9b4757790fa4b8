"""Representation matrices, colorings, and the exact integer evaluators for
cut weight, squared norm, and discrepancy.

A representation matrix is a sparse 0/1 label-by-vertex matrix R held as
read-only int64 CSR arrays (``indptr``, ``indices``); the per-label vertex
tuples are derived from them on first use.  A coloring is a read-only int8
array of +1/-1 entries.  All evaluators are exact integer arithmetic in
int64: the cut identity 4*cut + |Rx|^2 == sum(R^T R) must hold bit-exactly,
so no floating point is used anywhere here.
Vertices and labels are 0-based internally; 1-based indices appear only in
the text formats (see ``wrig_lab.textio``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


class InputError(ValueError):
    """Invalid input: a bad argument, config value or file content."""


def offsets(counts: np.ndarray) -> np.ndarray:
    """CSR-style pointers: 0 followed by the running totals of ``counts``."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.add.accumulate(counts, out=out[1:])
    return out


def check_grid_size(n: int, m: int) -> None:
    """Reject n*m >= 2^63: cells are addressed by the int64 grid position l*n + v."""
    if int(n) * int(m) >= 1 << 63:
        raise InputError(f"need n*m < 2^63, got n={n}, m={m}")


def _raise_first_fault(n: int, labels: np.ndarray, indices: np.ndarray) -> None:
    """Name the first label whose vertices repeat, fall out of order or
    leave [0, n); within one label a repeat is reported first."""
    same_label = labels[1:] == labels[:-1]
    step = np.diff(indices)
    repeated = np.flatnonzero(same_label & (step == 0))
    unsorted = np.flatnonzero(same_label & (step < 0))
    outside = np.flatnonzero((indices < 0) | (indices >= n))
    faults = []
    if len(repeated):
        v = indices[repeated[0]]
        faults.append((labels[repeated[0]], 0, f"lists vertex {v} twice"))
    if len(unsorted):
        faults.append((labels[unsorted[0]], 1, "vertices are not sorted ascending"))
    if len(outside):
        faults.append((labels[outside[0]], 2, f"has a vertex outside [0, {n})"))
    l, _, what = min(faults)
    raise InputError(f"label {l} {what}")


@dataclass(frozen=True, eq=False)
class RepresentationMatrix:
    """Sparse 0/1 label-by-vertex matrix in CSR form.

    The vertices that chose label ``l`` are ``indices[indptr[l]:indptr[l+1]]``,
    sorted and duplicate-free.  ``from_csr`` and ``from_label_sets`` validate
    their input; the plain constructor trusts its int64 arrays and makes
    them read-only.
    """

    m: int
    n: int
    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

    @classmethod
    def from_csr(
        cls, n: int, indptr: Sequence[int], indices: Sequence[int]
    ) -> "RepresentationMatrix":
        """Build and validate a matrix from CSR row pointers and vertex indices."""
        if n < 1:
            raise InputError(f"vertex count must be >= 1, got {n}")
        indptr = np.array(indptr, dtype=np.int64)
        indices = np.array(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1 or len(indptr) < 1:
            raise InputError("indptr and indices must be 1-d, indptr nonempty")
        sizes = indptr[1:] - indptr[:-1]
        if indptr[0] != 0 or indptr[-1] != len(indices) or sizes.min(initial=0) < 0:
            raise InputError("indptr must rise from 0 to len(indices)")
        m = len(sizes)
        check_grid_size(n, m)
        if len(indices):
            labels = np.repeat(np.arange(m), sizes)
            # With every vertex in [0, n), the grid position l*n + v rises
            # strictly exactly when each label's vertices do.
            grid = labels * n + indices
            if indices.min() < 0 or indices.max() >= n or not (grid[1:] > grid[:-1]).all():
                _raise_first_fault(n, labels, indices)
        return cls(m=m, n=n, indptr=indptr, indices=indices)

    @classmethod
    def from_label_sets(
        cls, n: int, label_sets: Sequence[Iterable[int]]
    ) -> "RepresentationMatrix":
        """Build and validate a matrix from per-label vertex collections."""
        rows = [sorted(raw) for raw in label_sets]
        indptr = offsets(np.array([len(r) for r in rows], dtype=np.int64))
        flat = [v for r in rows for v in r]
        return cls.from_csr(n, indptr, np.array(flat, dtype=np.int64))

    @cached_property
    def label_sets(self) -> tuple[tuple[int, ...], ...]:
        """Per-label sorted vertex tuples, derived from the CSR arrays."""
        flat = self.indices.tolist()
        bounds = self.indptr.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RepresentationMatrix):
            return NotImplemented
        return (
            self.m == other.m
            and self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((self.m, self.n, self.indptr.tobytes(), self.indices.tobytes()))

    @property
    def sizes(self) -> np.ndarray:
        """Number of vertices per label."""
        return self.indptr[1:] - self.indptr[:-1]

    def entry_sum(self) -> int:
        """Sum of all entries of R^T R (diagonal included): sum of |L_l|^2."""
        return int(self.sizes @ self.sizes)

    def diagonal_sum(self) -> int:
        """Sum of the diagonal of R^T R, i.e. the number of ones in R."""
        return int(self.indptr[-1])


@dataclass(frozen=True, eq=False)
class Coloring:
    """A 2-coloring of the vertices: a read-only int8 array of +1/-1 values."""

    values: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.values)
        ok = (raw == 1) | (raw == -1)
        if not ok.all():
            bad = raw[~ok][0]
            raise InputError(f"coloring entries must be +1 or -1, got {bad}")
        values = raw.astype(np.int8)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coloring):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash(self.values.tobytes())


def _check_length(R: RepresentationMatrix, x: Coloring) -> None:
    if len(x) != R.n:
        raise InputError(f"coloring has length {len(x)}, expected {R.n}")


def row_sums(R: RepresentationMatrix, x: Coloring) -> np.ndarray:
    """Per-label signed color sums: (Rx)_l = sum of x_v over v in L_l (int64)."""
    _check_length(R, x)
    prefix = offsets(x.values[R.indices])[R.indptr]
    return prefix[1:] - prefix[:-1]


def norm_sq(R: RepresentationMatrix, x: Coloring) -> int:
    """Squared 2-norm |Rx|^2 = sum over labels of the squared color sum."""
    sums = row_sums(R, x)
    return int(sums @ sums)


def cut_weight(R: RepresentationMatrix, x: Coloring) -> int:
    """Weight of the cut induced by ``x``, via the norm identity.

    Equals (sum of all entries of R^T R - |Rx|^2) / 4, which is always a
    nonnegative integer and matches the direct crossing-edge sum.
    """
    quad = R.entry_sum() - norm_sq(R, x)
    assert quad % 4 == 0 and quad >= 0
    return quad // 4


def discrepancy(R: RepresentationMatrix, x: Coloring) -> int:
    """Largest absolute color imbalance over all label sets, |Rx|_inf.

    Zero when the matrix has no labels.
    """
    return int(np.abs(row_sums(R, x)).max(initial=0))
