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
from pathlib import Path
from typing import Union

import numpy as np

from .core import Coloring, InputError, RepresentationMatrix

MAGIC = "WRIG"
FORMAT_VERSION = 1
_COLORING_TOKENS = ("+1", "-1")

PathLike = Union[str, Path]


def format_matrix(R: RepresentationMatrix) -> str:
    lines = [f"{MAGIC} {FORMAT_VERSION} {R.m} {R.n}"]
    for l, L in enumerate(R.label_sets):
        parts = [str(l + 1), str(len(L))]
        parts.extend(str(v + 1) for v in L)
        lines.append(" ".join(parts))
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

    label_sets: list[tuple[int, ...]] = []
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
        vertices = tuple(v - 1 for v in listed)
        if any(v < 0 or v >= n for v in vertices):
            raise InputError(f"label {idx} has a vertex outside [1, {n}]")
        if any(a >= b for a, b in zip(vertices, vertices[1:])):
            raise InputError(f"label {idx} vertices are not sorted ascending")
        label_sets.append(vertices)
    for line in stream:
        if line.strip():
            raise InputError("trailing content after the last label line")
    return RepresentationMatrix.from_label_sets(n, label_sets)


def write_matrix(R: RepresentationMatrix, path: PathLike) -> None:
    Path(path).write_text(format_matrix(R), encoding="utf-8", newline="\n")


def read_matrix(path: PathLike) -> RepresentationMatrix:
    return parse_matrix(Path(path).read_text(encoding="utf-8"))


def format_coloring(x: Coloring) -> str:
    if not len(x):
        return "\n"
    # Three bytes per vertex: sign, "1", then a space, or the final newline.
    out = np.empty((len(x), 3), dtype=np.uint8)
    out[:, 0] = np.where(x.values == 1, ord("+"), ord("-"))
    out[:, 1] = ord("1")
    out[:, 2] = ord(" ")
    out[-1, 2] = ord("\n")
    return out.tobytes().decode("ascii")


def parse_coloring(text: str) -> Coloring:
    data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    if not _is_canonical(data):
        tokens = text.split()
        if not set(tokens) <= set(_COLORING_TOKENS):
            token = next(t for t in tokens if t not in _COLORING_TOKENS)
            raise InputError(f"coloring token must be +1 or -1, got {token!r}")
        if not tokens:
            raise InputError("empty coloring file")
        data = np.frombuffer((" ".join(tokens) + "\n").encode("ascii"), dtype=np.uint8)
    return Coloring(np.where(data[::3] == ord("+"), 1, -1))


def _is_canonical(data: np.ndarray) -> bool:
    """True when ``data`` reads exactly as ``format_coloring`` writes."""
    if len(data) == 0 or len(data) % 3:
        return False
    signs = data[::3]
    return bool(
        ((signs == ord("+")) | (signs == ord("-"))).all()
        and (data[1::3] == ord("1")).all()
        and (data[2:-1:3] == ord(" ")).all()
        and data[-1] == ord("\n")
    )


def write_coloring(x: Coloring, path: PathLike) -> None:
    Path(path).write_text(format_coloring(x), encoding="utf-8", newline="\n")


def read_coloring(path: PathLike) -> Coloring:
    return parse_coloring(Path(path).read_text(encoding="utf-8"))
