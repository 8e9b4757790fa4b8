"""Seeded generation of random representation matrices.

Every entry of the m-by-n matrix is an independent Bernoulli(p) variable.
Randomness comes from counter-based Philox streams derived through
``numpy.random.SeedSequence`` so that distinct (seed, stream) pairs give
statistically independent, bitwise-reproducible draws regardless of how
work is scheduled across processes.

``_seed_states`` evaluates SeedSequence's integer hash (O'Neill's
``seed_seq_fe``: mix the entropy words into a pool of 4, then hash the pool
into output words) over the rows of a uint32 array at once, bit for bit.
The experiment harness uses it to derive a whole share of trials' stream
words and Philox keys in one pass; ``derive_rng`` then builds a primed
seed's generator from its key without a SeedSequence.  Every other call
goes through ``numpy.random.SeedSequence``, which stays the reference.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

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


# SeedSequence's hash (numpy/random/bit_generator.pyx): the pool size, the
# constants of its two hash-constant sequences, its mixing multipliers and
# its xorshift.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = 16

# Philox keys of primed seeds, for the seeds' next derive_rng(seed) calls.
_primed: dict[int, list[int]] = {}


def _check_seed(seed: Seed, *stream: int) -> None:
    """InputError unless the seed and every stream entry are >= 0."""
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    for entry in stream:
        if entry < 0:
            raise InputError(f"stream entries must be >= 0, got {entry} in stream {stream}")


def _seed_sequence(seed: Seed, *stream: int) -> np.random.SeedSequence:
    """The SeedSequence of a (seed, *stream) address; a negative entry is an InputError."""
    _check_seed(seed, *stream)
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))


@functools.lru_cache(maxsize=None)
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**k mod 2^32 for k <= count, as a uint32 column.

    These are the constants of ``count`` hash steps: step k xors its value
    with entry k and multiplies it by entry k + 1.
    """
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & 0xFFFFFFFF)
    out = np.array(constants, dtype=np.uint32)[:, None]
    out.setflags(write=False)
    return out


# The hash step at which pool word s is hashed into pool word d != s while
# the pool is mixed (steps 4 to 15, s-major); entry [s][s] is a placeholder
# whose result is dropped.
_CROSS_STEPS = np.array(
    [[_POOL_SIZE + 3 * s + d - (d >= s) for d in range(_POOL_SIZE)] for s in range(_POOL_SIZE)]
)
_CROSS_XOR = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)[_CROSS_STEPS]
_CROSS_MUL = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)[_CROSS_STEPS + 1]


def _hash(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of ``values`` with each (xor, mul) step; a new array."""
    h = values ^ xor
    h *= mul
    h ^= h >> _XSHIFT
    return h


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of x with y; a new array, and y is overwritten."""
    r = x * _MIX_MULT_L
    y *= _MIX_MULT_R
    r -= y
    r ^= r >> _XSHIFT
    return r


def _mix_pool(words: np.ndarray) -> np.ndarray:
    """The pools SeedSequence mixes from the first 4 entropy words.

    ``words`` is a (k, R) uint32 array, column j the first k <= 4 words of
    entropy j; missing words are hashed from 0, as SeedSequence hashes
    them.  Returns the (4, R) pools.
    """
    head = np.zeros((_POOL_SIZE, words.shape[1]), dtype=np.uint32)
    head[: len(words)] = words
    a = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE)
    pool = _hash(head, a[:-1], a[1:])
    for src in range(_POOL_SIZE):
        mixed = _mix(pool, _hash(pool[src], _CROSS_XOR[src], _CROSS_MUL[src]))
        mixed[src] = pool[src]
        pool = mixed
    return pool


def _mix_words(pool: np.ndarray, words: np.ndarray, first: int) -> np.ndarray:
    """``pool`` with the entropy words ``words`` mixed in, word ``first`` >= 4 in row 0."""
    a = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (first + len(words)))
    step = _POOL_SIZE * first
    for word in words:
        pool = _mix(pool, _hash(word, a[step : step + 4], a[step + 1 : step + 5]))
        step += _POOL_SIZE
    return pool


@functools.lru_cache(maxsize=16)
def _mixed_head(head: tuple[int, ...]) -> np.ndarray:
    """The (4, 1) pool of the entropy words ``head``, 4 or more of them."""
    words = np.array(head, dtype=np.uint32)[:, None]
    pool = _mix_words(_mix_pool(words[:_POOL_SIZE]), words[_POOL_SIZE:], _POOL_SIZE)
    pool.setflags(write=False)
    return pool


def _seed_states(head: Sequence[int], rows: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(n_words, np.uint64)`` for each row, bit for bit.

    Row i's entropy words are ``head`` (uint32 values every row starts
    with) followed by ``rows[i]``, as SeedSequence assembles them: a caller
    passing a spawn key pads the seed's words in ``head`` to 4, as
    SeedSequence does.  A head of 4 or more words is mixed once per head,
    not once per row.  Returns an (R, n_words) uint64 array.
    """
    rows = np.asarray(rows, dtype=np.uint32).T
    if len(head) >= _POOL_SIZE:
        pool = np.broadcast_to(_mixed_head(tuple(head)), (_POOL_SIZE, rows.shape[1]))
        pool = _mix_words(pool, rows, len(head))
    else:
        column = np.array(head, dtype=np.uint32)[:, None]
        rows = np.concatenate([np.repeat(column, rows.shape[1], axis=1), rows])
        pool = _mix_words(_mix_pool(rows[:_POOL_SIZE]), rows[_POOL_SIZE:], _POOL_SIZE)
    b = _hash_constants(_INIT_B, _MULT_B, 2 * n_words)
    state = _hash(pool[np.arange(2 * n_words) % _POOL_SIZE], b[:-1], b[1:])
    # Word pairs join low word first, as generate_state joins them.
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


def _spawn_states(seed: Seed, spawn_keys: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=key).generate_state(n_words, np.uint64)`` for each row.

    ``spawn_keys`` is an (R, k) array of uint32 values, a key per row; the
    result is (R, n_words), from one pass.  A negative seed is an InputError.
    """
    _check_seed(seed)
    value, run = int(seed), []
    while value or not run:  # lowest word first; 0 is one word
        run.append(value & 0xFFFFFFFF)
        value >>= 32
    # SeedSequence pads the seed's words to 4 before a spawn key.
    return _seed_states(run + [0] * (_POOL_SIZE - len(run)), spawn_keys, n_words)


@contextmanager
def _primed_keys(words: np.ndarray) -> Iterator[None]:
    """Prime the seeds ``words``, a uint64 array, with their Philox keys, for the block.

    Within it ``derive_rng(w)`` for a primed ``w`` pops its key and builds
    the generator without a SeedSequence; the table is empty again after.
    """
    pairs = np.ascontiguousarray(words, dtype="<u8").view("<u4").reshape(-1, 2)
    _primed.update(zip(words.ravel().tolist(), _seed_states([], pairs, 2).tolist()))
    try:
        yield
    finally:
        _primed.clear()


@functools.cache
def _key_type() -> type:
    """``_Key``, defined on first use: importing ``numpy.random`` costs about 10 ms."""
    from numpy.random.bit_generator import ISeedSequence

    class _Key(ISeedSequence):
        """A Philox key already derived: what ``generate_state(2, np.uint64)`` returns."""

        __slots__ = ("key",)

        def __init__(self, key: list[int]):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key  # Philox asks for (2, np.uint64) only

    return _Key


def derive_rng(seed: Seed, *stream: int) -> np.random.Generator:
    """Independent Philox generator for the given seed and stream address.

    A negative seed or stream entry is an InputError.
    """
    key = None if stream else _primed.pop(seed, None)
    if key is None:
        return np.random.Generator(np.random.Philox(_seed_sequence(seed, *stream)))
    return np.random.Generator(np.random.Philox(_key_type()(key)))


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
