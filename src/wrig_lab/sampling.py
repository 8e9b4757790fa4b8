"""Seeded generation of random representation matrices.

Every entry of the m-by-n matrix is an independent Bernoulli(p) variable.
Randomness comes from counter-based Philox streams derived through
``numpy.random.SeedSequence`` so that distinct (seed, stream) pairs give
statistically independent, bitwise-reproducible draws regardless of how
work is scheduled across processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import InputError, RepresentationMatrix, check_grid_size, offsets

# Seeds are 64-bit unsigned values; derived streams are addressed by
# (seed, *stream) tuples.
Seed = int

# Below this success probability the sampler walks the entry grid with
# geometric skips instead of drawing one uniform per cell.
_SPARSE_THRESHOLD = 0.1

# The dense path draws its uniforms in whole rows, about this many cells at
# a time; Philox yields the same stream whatever the split.
_DENSE_CHUNK_CELLS = 1 << 16

# Bound on the expected number of ones n*m*p of one draw.  A one costs
# about 42 bytes at the sparse path's peak (gaps, positions and their
# label/vertex split, all int64) and 24 at the dense path's, against 8 in
# the finished matrix, so 2^25 ones keep a draw near 1.4 GiB.  The dense
# path runs only for p >= 0.1, so it visits at most 10 * 2^25 cells.  The
# same constant bounds m: each label costs an int64 row pointer, and on the
# sparse path an int64 count, whatever p is.
_MAX_EXPECTED_ONES = 1 << 25


def _seed_sequence(seed: Seed, *stream: int) -> np.random.SeedSequence:
    """The SeedSequence of a (seed, *stream) address; a negative seed is an InputError."""
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))


def derive_rng(seed: Seed, *stream: int) -> np.random.Generator:
    """Independent Philox generator for the given seed and stream address."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, *stream)))


@dataclass(frozen=True)
class ModelParams:
    """Parameters (n, m, p) of the random model; ``check_grid_size`` bounds n*m."""

    n: int
    m: int
    p: float

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise InputError(f"need n, m >= 1, got n={self.n}, m={self.m}")
        check_grid_size(self.n, self.m)
        if not 0.0 <= self.p <= 1.0:
            raise InputError(f"need 0 <= p <= 1, got p={self.p}")

    @classmethod
    def fixed(cls, n: int, m: int, p: float) -> "ModelParams":
        return cls(n=n, m=m, p=p)

    @classmethod
    def from_alpha(cls, n: int, alpha: float, p: float) -> "ModelParams":
        """m = floor(n**alpha)."""
        return cls(n=n, m=label_count_for_alpha(n, alpha), p=p)

    @classmethod
    def from_c(cls, n: int, c: float) -> "ModelParams":
        """m = n and p = c/n, for 0 <= c <= n."""
        if n < 1:
            raise InputError(f"need n >= 1, got n={n}")
        if not 0 <= c <= n:
            raise InputError(f"need 0 <= c <= n, got c={c}, n={n}")
        return cls(n=n, m=n, p=c / n)

    def regime_warning(self) -> Optional[str]:
        """Message when p leaves the studied window [sqrt(1/nm), 1/sqrt(m)].

        Outside this window instances degenerate (essentially sequence-free
        below, almost complete above); sampling still works, callers merely
        get a heads-up.
        """
        lo = math.sqrt(1.0 / (self.n * self.m))
        hi = 1.0 / math.sqrt(self.m)
        slack = 1e-9  # keep p == bound (up to float dust) inside the window
        if self.p < lo * (1.0 - slack) or self.p > hi * (1.0 + slack):
            return (
                f"p={self.p:g} is outside the studied window "
                f"[{lo:.3g}, {hi:.3g}] for n={self.n}, m={self.m}"
            )
        return None


def label_count_for_alpha(n: int, alpha: float) -> int:
    """floor(n**alpha), with a tiny nudge so exact powers survive float dust.

    An n below 1, or an alpha whose power overflows or is NaN, is an
    InputError.
    """
    if n < 1:
        raise InputError(f"need n >= 1, got n={n}")
    try:
        return max(1, math.floor(n**alpha + 1e-9))
    except (OverflowError, ValueError):
        raise InputError(f"n**alpha is no finite label count for n={n}, alpha={alpha}") from None


def sample_matrix(params: ModelParams, seed: Seed) -> RepresentationMatrix:
    """Draw a representation matrix with iid Bernoulli(p) entries.

    Deterministic given (params, seed).  For p below 0.1 the sampler skips
    through the row-major entry grid with geometric gaps, costing time
    proportional to the number of ones instead of n*m; both code paths
    sample the same distribution.  More than ``_MAX_EXPECTED_ONES`` expected
    ones, or more labels than that, is an InputError, raised before anything
    is drawn.
    """
    ones = params.n * params.m * params.p
    if ones > _MAX_EXPECTED_ONES:
        raise InputError(
            f"expected n*m*p = {ones:.4g} ones exceeds the sampler's bound "
            f"{_MAX_EXPECTED_ONES} for n={params.n}, m={params.m}, p={params.p}"
        )
    if params.m > _MAX_EXPECTED_ONES:
        raise InputError(
            f"m={params.m} exceeds the sampler's label bound {_MAX_EXPECTED_ONES} "
            f"for n={params.n}, p={params.p}"
        )
    if params.p < _SPARSE_THRESHOLD:
        return _sample_sparse(params, derive_rng(seed))
    return _sample_dense(params, derive_rng(seed))


def _sample_dense(params: ModelParams, rng: np.random.Generator) -> RepresentationMatrix:
    m, n, p = params.m, params.n, params.p
    rows = max(1, _DENSE_CHUNK_CELLS // n)
    counts, indices = [], []
    for start in range(0, m, rows):
        hits = rng.random((min(rows, m - start), n)) < p
        counts.append(hits.sum(axis=1))
        indices.append(np.nonzero(hits)[1])
    # nonzero walks the chunk row-major, so each label's vertices are sorted.
    return RepresentationMatrix(
        m=m, n=n, indptr=offsets(np.concatenate(counts)), indices=np.concatenate(indices)
    )


def _sample_sparse(params: ModelParams, rng: np.random.Generator) -> RepresentationMatrix:
    m, n, p = params.m, params.n, params.p
    chunks = [np.zeros(0, dtype=np.uint64)]
    if p > 0.0:
        total = m * n
        expected = total * p
        batch = max(256, int(expected + 10.0 * math.sqrt(expected) + 16.0))
        # ends are the running gap sums, one past each drawn cell.  They are
        # summed in uint64: every end before the first one past the grid is
        # at most total and each gap is a positive int64, so no end up to
        # that one wraps.
        end = 0
        while True:
            ends = end + np.cumsum(rng.geometric(p, size=batch).view(np.uint64))
            past = np.flatnonzero(ends > total)
            if len(past):
                chunks.append(ends[: past[0]])
                break
            chunks.append(ends)
            end = int(ends[-1])
            batch = 256
    # Cells rise strictly, so each label's vertices come out sorted.
    q = np.concatenate(chunks).astype(np.int64) - 1
    return RepresentationMatrix(
        m=m, n=n, indptr=offsets(np.bincount(q // n, minlength=m)), indices=q % n
    )
