"""Text formats for representation matrices and colorings.

The matrix format is bit-exact and line oriented (UTF-8, LF):

    WRIG 1 <m> <n>
    <label> <size> <v1> ... <vk>     (one line per label, m lines total)

Label and vertex indices are 1-based on disk and 0-based in memory; vertex
lists are sorted ascending.  A coloring file holds n whitespace-separated
tokens, each ``+1`` or ``-1``.
"""

from __future__ import annotations

import io
import os
from pathlib import Path
from typing import Union

import numpy as np

from .core import Coloring, InputError, RepresentationMatrix, check_grid_size

MAGIC = "WRIG"
FORMAT_VERSION = 1
_COLORING_TOKENS = ("+1", "-1")

PathLike = Union[str, Path]


def format_matrix(R: RepresentationMatrix) -> str:
    flat = R.indices.tolist()
    bounds = R.indptr.tolist()
    lines = [f"{MAGIC} {FORMAT_VERSION} {R.m} {R.n}"]
    for l, (a, b) in enumerate(zip(bounds, bounds[1:]), 1):
        lines.append(" ".join([str(l), str(b - a), *[str(v + 1) for v in flat[a:b]]]))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> RepresentationMatrix:
    stream = io.StringIO(text)
    header = stream.readline().split()
    if len(header) != 4 or header[0] != MAGIC:
        raise InputError("not a WRIG matrix file (bad header)")
    try:
        version, m, n = int(header[1]), int(header[2]), int(header[3])
    except ValueError:
        raise InputError("not a WRIG matrix file (non-numeric header)") from None
    if version != FORMAT_VERSION:
        raise InputError(f"unsupported WRIG format version {version}")
    if m < 0 or n < 1:
        raise InputError(f"bad dimensions m={m}, n={n}")

    indptr, indices = [0], []
    for expected in range(1, m + 1):
        line = stream.readline()
        if not line:
            raise InputError(f"expected {m} label lines, found {expected - 1}")
        fields = line.split()
        if len(fields) < 2:
            raise InputError(f"label line {expected} is too short")
        try:
            idx, size, *listed = map(int, fields)
        except ValueError:
            raise InputError(f"label line {expected} has a non-integer field") from None
        if idx != expected:
            raise InputError(f"label line {expected} carries index {idx}")
        if len(listed) != size:
            raise InputError(f"label {idx} declares {size} vertices but lists {len(listed)}")
        if any(v < 1 or v > n for v in listed):
            raise InputError(f"label {idx} has a vertex outside [1, {n}]")
        if any(a >= b for a, b in zip(listed, listed[1:])):
            raise InputError(f"label {idx} vertices are not sorted ascending")
        indices.extend(listed)
        indptr.append(len(indices))
    for line in stream:
        if line.strip():
            raise InputError("trailing content after the last label line")
    check_grid_size(n, m)  # so every vertex, at most n, fits int64
    return RepresentationMatrix.from_csr(n, indptr, np.array(indices, dtype=np.int64) - 1)


def check_destination(role: str, path: str) -> None:
    """An InputError naming ``path`` unless it can be written as a file: it is
    not empty, its directory exists, it is not a directory itself, and it
    (or, if it does not exist yet, its directory) is writable."""
    if not path:
        raise InputError(f"{role} must name a file, got ''")
    target = Path(path)
    if not target.parent.is_dir():
        raise InputError(f"the directory of {role} {path!r} does not exist")
    if target.is_dir():
        raise InputError(f"{role} {path!r} is a directory")
    if not os.access(target if target.exists() else target.parent, os.W_OK):
        raise InputError(f"{role} {path!r} is not writable")


def write_matrix(R: RepresentationMatrix, path: PathLike) -> None:
    Path(path).write_text(format_matrix(R), encoding="utf-8", newline="\n")


def read_matrix(path: PathLike) -> RepresentationMatrix:
    return parse_matrix(Path(path).read_text(encoding="utf-8"))


def format_coloring(x: Coloring) -> str:
    # Decoded straight off the array's buffer, with no bytes copy between.
    return str(_coloring_text(x.values), "ascii")


def parse_coloring(text: str) -> Coloring:
    data = text.encode("utf-8")
    values = _signs(data)
    # Canonical text, as format_coloring writes it, is read straight off
    # its sign bytes; any other text is split into tokens.
    if not (np.abs(values) == 1).all() or not _is_canonical(data):
        tokens = text.split()
        if not set(tokens) <= set(_COLORING_TOKENS):
            token = next(t for t in tokens if t not in _COLORING_TOKENS)
            raise InputError(f"coloring token must be +1 or -1, got {token!r}")
        if not tokens:
            raise InputError("empty coloring file")
        values = _signs(" ".join(tokens).encode("ascii"))
    return Coloring._fresh(values)


def _signs(data: bytes) -> np.ndarray:
    """Every third byte of ``data``, from the first, read as a sign.

    A byte b reads as the int8 value "," - b: "+" is +1 and "-" is -1.  The
    map is one to one in int8, so no other byte reads as +1 or -1.
    """
    signs = np.frombuffer(data, dtype=np.uint8)[::3]
    return np.subtract(ord(","), signs, dtype=np.int8, casting="unsafe")


def _coloring_text(values: np.ndarray) -> np.ndarray:
    """Canonical text of +1/-1 ``values`` as uint8, as ``format_coloring`` writes it."""
    if not len(values):
        return np.frombuffer(b"\n", dtype=np.uint8)
    # Three bytes per vertex: sign, "1", then a space, or the final newline.
    # The sign byte is "," - x, the inverse of _signs.
    out = np.empty((len(values), 3), dtype=np.uint8)
    np.subtract(ord(","), values, out=out[:, 0], casting="unsafe")
    out[:, 1] = ord("1")
    out[:, 2] = ord(" ")
    out[-1, 2] = ord("\n")
    return out


def _is_canonical(data: bytes) -> bool:
    """Whether ``data``, whose every third byte from the first is a sign, is
    the text ``format_coloring`` writes: "1" after each sign, then a space,
    or a newline after the last.  Checked in place, with no copy of the text."""
    text = np.frombuffer(data, dtype=np.uint8)
    return (
        len(text) > 0
        and len(text) % 3 == 0
        and bool((text[1::3] == ord("1")).all())
        and bool((text[2:-1:3] == ord(" ")).all())
        and text[-1] == ord("\n")
    )


def write_coloring(x: Coloring, path: PathLike) -> None:
    Path(path).write_text(format_coloring(x), encoding="utf-8", newline="\n")
