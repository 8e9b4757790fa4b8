"""Output checks on experiment CSVs, run outside the timed region.

Each check maps a CSV's rows to the indices of the rows it rejects, with a
reason, so that a failed check counts against ``failed_frac`` row by row.
The exact-oracle check re-derives optima by plain numpy enumeration of
every coloring, not by the library's Gray-code walk, so a change of the
oracles' tie-break does not trip it.
"""

from __future__ import annotations

import csv
import hashlib
import io

import numpy as np

Rows = list[dict[str, str]]
Rejects = dict[int, str]

# Colorings per block of the numpy enumeration (a few MiB of float64).
ENUM_BLOCK = 1 << 15


def parse_csv(text: str) -> Rows:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#"):
        raise ValueError("CSV lacks its schema line")
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _int(value: str):
    return int(value) if value != "" else None


def check_shape(rows: Rows, grid_size: int, trials: int) -> Rejects:
    """Rows come in (grid, trial) order, none is missing, and every weight
    lies in [0, total_offdiag/2]."""
    rejects: Rejects = {}
    expected = [(g, t) for g in range(grid_size) for t in range(trials)]
    for i, row in enumerate(rows):
        key = (_int(row["grid_id"]), _int(row["trial"]))
        if i >= len(expected) or key != expected[i]:
            rejects[i] = f"row {i} is {key}, expected (grid, trial) order"
            continue
        half = _int(row["total_offdiag"]) / 2
        for name, value in row.items():
            if name.endswith("_weight") and value != "":
                if not 0 <= int(value) <= half:
                    rejects[i] = f"{name}={value} outside [0, total_offdiag/2]"
            elif name.endswith("_disc") and value != "" and int(value) < 0:
                rejects[i] = f"{name}={value} is negative"
    for i in range(len(rows), len(expected)):
        rejects[i] = "row missing"
    return rejects


def compare(reference: Rows, other: Rows) -> Rejects:
    """Rows of ``reference`` that ``other`` lacks or reports differently."""
    rejects: Rejects = {}
    for i, row in enumerate(reference):
        if i >= len(other) or other[i] != row:
            rejects[i] = "differs from the serial CSV"
    for i in range(len(reference), len(other)):
        rejects[i] = "extra row"
    return rejects


def check_digest(rows: Rows, text: str, expected: str) -> Rejects:
    """All rows, when the CSV bytes differ from the pinned digest."""
    if sha256(text) == expected:
        return {}
    return {i: "CSV digest differs from the pinned one" for i in range(len(rows))}


def check_bipartize(rows: Rows, max_rematch: int) -> Rejects:
    rejects: Rejects = {}
    for i, row in enumerate(rows):
        iterations = _int(row["bipartize_iterations"])
        if iterations is None or iterations > max_rematch:
            rejects[i] = f"iterations={iterations} exceeds max_rematch={max_rematch}"
            continue
        if row["bipartize_terminated"] != "1":
            continue
        weight = _int(row["bipartize_weight"])
        disc = _int(row["bipartize_disc"])
        if weight is None or disc is None:
            rejects[i] = "terminated row lacks a weight or a disc"
        elif disc > 2:
            rejects[i] = f"bipartize_disc={disc} exceeds 2"
        elif not 0 <= weight <= _int(row["total_offdiag"]) / 2:
            rejects[i] = f"bipartize_weight={weight} outside [0, total_offdiag/2]"
    return rejects


def _dense(R) -> np.ndarray:
    dense = np.zeros((R.m, R.n), dtype=np.float64)
    for label, vertices in enumerate(R.label_sets):
        dense[label, list(vertices)] = 1.0
    return dense


def enumerate_optima(R) -> tuple[int, int]:
    """(max cut weight, min discrepancy) over every coloring with x_0 = +1.

    Row sums are products of small integers, exact in float64.
    """
    n = R.n
    dense = _dense(R)
    entry_sum = int(dense.sum(axis=1).dot(dense.sum(axis=1)))
    bits = np.arange(n - 1, dtype=np.int64)
    best_norm = None
    best_disc = None
    for lo in range(0, 1 << (n - 1), ENUM_BLOCK):
        masks = np.arange(lo, min(lo + ENUM_BLOCK, 1 << (n - 1)), dtype=np.int64)
        signs = np.ones((len(masks), n), dtype=np.float64)
        signs[:, 1:] = ((masks[:, None] >> bits) & 1) * 2.0 - 1.0
        sums = signs @ dense.T
        norm = int(np.einsum("ij,ij->i", sums, sums).min())
        disc = int(np.abs(sums).max(axis=1, initial=0.0).min())
        best_norm = norm if best_norm is None else min(best_norm, norm)
        best_disc = disc if best_disc is None else min(best_disc, disc)
    return (entry_sum - best_norm) // 4, best_disc


def check_oracles(rows: Rows) -> Rejects:
    """Rebuild each row's matrix from its seed and confirm both optima."""
    from wrig_lab.sampling import ModelParams, sample_matrix

    rejects: Rejects = {}
    for i, row in enumerate(rows):
        params = ModelParams.fixed(int(row["n"]), int(row["m"]), float(row["p"]))
        R = sample_matrix(params, int(row["seed"]))
        if R.entry_sum() - R.diagonal_sum() != _int(row["total_offdiag"]):
            rejects[i] = "total_offdiag disagrees with the rebuilt matrix"
            continue
        weight, disc = enumerate_optima(R)
        if _int(row["exact_weight"]) != weight:
            rejects[i] = f"exact_weight={row['exact_weight']}, enumeration gives {weight}"
        elif _int(row["mindisc_disc"]) != disc:
            rejects[i] = f"mindisc_disc={row['mindisc_disc']}, enumeration gives {disc}"
        elif _int(row["exact_disc"]) < disc or _int(row["mindisc_weight"]) > weight:
            rejects[i] = "an oracle's secondary value beats the other oracle's optimum"
    return rejects
