"""Shared test utilities: independent enumeration oracles and strategies.

The enumeration here deliberately avoids the library's meet-in-the-middle
oracles: it materializes every coloring with x_0 = +1 as a matrix and
evaluates |Rx|^2 and |Rx|_inf by plain numpy arithmetic, so library bugs
cannot hide behind themselves.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from wrig_lab.core import Coloring, RepresentationMatrix


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
