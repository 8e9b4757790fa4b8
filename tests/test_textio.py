import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import format_matrix_reference, matrices, parse_coloring_reference
from wrig_lab.core import Coloring, InputError, RepresentationMatrix
from wrig_lab.textio import (
    format_coloring,
    format_matrix,
    parse_coloring,
    parse_matrix,
    read_matrix,
    write_coloring,
    write_matrix,
)

SAMPLE = RepresentationMatrix.from_label_sets(3, [[0, 1], [1, 2]])


def test_format_is_bit_exact():
    assert format_matrix(SAMPLE) == "WRIG 1 2 3\n1 2 1 2\n2 2 2 3\n"


def test_empty_label_and_zero_m():
    R = RepresentationMatrix.from_label_sets(2, [[]])
    assert format_matrix(R) == "WRIG 1 1 2\n1 0\n"
    assert parse_matrix(format_matrix(R)) == R
    zero = RepresentationMatrix.from_label_sets(5, [])
    assert parse_matrix(format_matrix(zero)) == zero


@settings(deadline=None)
@given(matrices(max_n=10, max_m=8))
def test_matrix_roundtrip(R):
    assert parse_matrix(format_matrix(R)) == R


@settings(deadline=None)
@given(matrices(max_n=12, max_m=8))
@example(RepresentationMatrix.from_label_sets(2, [[]]))
@example(RepresentationMatrix.from_label_sets(5, []))
@example(RepresentationMatrix.from_label_sets(10**12, [[], [0, 10**12 - 1], []]))
def test_format_matrix_matches_the_per_label_reference(R):
    assert format_matrix(R) == format_matrix_reference(R)


# Each bad text with the message it raises; a fault in an earlier label wins.
BAD_MATRIX_TEXTS = [
    ("", "not a WRIG matrix file (bad header)"),
    ("WRIG 2 1 3\n1 0\n", "unsupported WRIG format version 2"),
    ("NOPE 1 1 3\n1 0\n", "not a WRIG matrix file (bad header)"),
    ("WRIG 1 x 3\n1 0\n", "not a WRIG matrix file (non-numeric header)"),
    ("WRIG 1 2 3\n1 0\n", "expected 2 label lines, found 1"),
    ("WRIG 1 1 3\n2 0\n", "label line 1 carries index 2"),
    ("WRIG 1 1 3\n1 2 1\n", "label 1 declares 2 vertices but lists 1"),
    ("WRIG 1 1 3\n1 2 2 1\n", "label 1 vertices are not sorted ascending"),
    ("WRIG 1 1 3\n1 1 4\n", "label 1 has a vertex outside [1, 3]"),
    ("WRIG 1 1 3\n1 2 1 1\n", "label 1 vertices are not sorted ascending"),  # a repeat
    ("WRIG 1 1 3\n1 0\ntrailing\n", "trailing content after the last label line"),
    ("WRIG 1 1 0\n1 0\n", "bad dimensions m=1, n=0"),
    ("WRIG 1 -1 3\n", "bad dimensions m=-1, n=3"),
    ("WRIG 1 1 3\n1\n", "label line 1 is too short"),
    ("WRIG 1 1 3\n1 1 a\n", "label line 1 has a non-integer field"),
    ("WRIG 1 1 3\n1 1 0\n", "label 1 has a vertex outside [1, 3]"),
    ("WRIG 1 1 3\n1 2 3 0\n", "label 1 has a vertex outside [1, 3]"),
    ("WRIG 1 2 3\n1 2 1 3\n2 2 3 2\n", "label 2 vertices are not sorted ascending"),
    ("WRIG 1 2 3\n1 1 9\n3 0\n", "label 1 has a vertex outside [1, 3]"),
]


@pytest.mark.parametrize(
    "text, message", BAD_MATRIX_TEXTS, ids=[text for text, _ in BAD_MATRIX_TEXTS]
)
def test_parse_matrix_rejects(text, message):
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        parse_matrix(text)


# 12 one-vertex labels over 10^18 vertices: 1.2e19 cells, past the int64 grid.
HUGE_GRID = "WRIG 1 12 1000000000000000000\n" + "".join(f"{l} 1 1\n" for l in range(1, 13))


def test_parse_matrix_rejects_a_grid_past_int64():
    with pytest.raises(InputError, match=rf"^need n\*m < 2\^63, got n={10**18}, m=12$"):
        parse_matrix(HUGE_GRID)
    # A vertex of 2^63 is within [1, n] here, but the grid is not.
    with pytest.raises(InputError, match=rf"^need n\*m < 2\^63, got n={2**63}, m=1$"):
        parse_matrix(f"WRIG 1 1 {2**63}\n1 1 {2**63}\n")


def test_matrix_file_io(tmp_path):
    path = tmp_path / "m.wrig"
    write_matrix(SAMPLE, path)
    assert path.read_bytes() == b"WRIG 1 2 3\n1 2 1 2\n2 2 2 3\n"
    assert read_matrix(path) == SAMPLE


def test_coloring_roundtrip(tmp_path):
    x = Coloring((1, -1, -1, 1))
    assert format_coloring(x) == "+1 -1 -1 +1\n"
    assert parse_coloring(format_coloring(x)) == x
    path = tmp_path / "x.txt"
    write_coloring(x, path)
    assert parse_coloring(path.read_text()) == x


COLORING_REJECTS = [
    ("", "^empty coloring file$"),
    ("1 -1", "^coloring token must be \\+1 or -1, got '1'$"),
    ("+1 0", "^coloring token must be \\+1 or -1, got '0'$"),
    ("plus one", "^coloring token must be \\+1 or -1, got 'plus'$"),
    (" \n\t", "^empty coloring file$"),
    ("+1 -1 +2\n", "^coloring token must be \\+1 or -1, got '\\+2'$"),
    ("+1 \u22121\n", "^coloring token must be \\+1 or -1, got '\u22121'$"),
]


@pytest.mark.parametrize(
    "text, message", COLORING_REJECTS, ids=[text for text, _ in COLORING_REJECTS]
)
def test_parse_coloring_rejects(text, message):
    with pytest.raises(ValueError, match=message):
        parse_coloring(text)


@pytest.mark.parametrize(
    "text",
    ["+1 -1 -1 +1", "+1\n-1\n-1\n+1\n", "  +1\t-1  -1\r\n+1 \n\n", "+1\u3000-1 -1 +1\n"],
    ids=["no_newline", "one_per_line", "mixed_ascii_space", "unicode_space"],
)
def test_parse_coloring_accepts_any_whitespace(text):
    assert parse_coloring(text) == Coloring((1, -1, -1, 1))


def test_format_coloring_of_many_vertices_matches_token_join():
    values = [1 if (v * v) % 7 < 3 else -1 for v in range(1000)]
    text = format_coloring(Coloring(values))
    assert text == " ".join("+1" if v == 1 else "-1" for v in values) + "\n"
    assert tuple(parse_coloring(text).values) == tuple(values)


def _parsed(parse, text):
    try:
        return parse(text)
    except InputError as error:
        return str(error)


EDIT_ALPHABET = "+-10 \n\tx\u2212"


@settings(deadline=None, max_examples=400)
@given(
    values=st.lists(st.sampled_from((1, -1)), min_size=1, max_size=300),
    edit=st.sampled_from(("none", "replace", "insert", "delete")),
    position=st.integers(min_value=0),
    char=st.sampled_from(EDIT_ALPHABET),
)
@example(values=[1, -1], edit="replace", position=3, char="\u2212")
@example(values=[1, -1], edit="replace", position=5, char="\t")
@example(values=[1], edit="delete", position=2, char="x")
def test_parse_coloring_matches_the_token_reference(values, edit, position, char):
    text = format_coloring(Coloring(values))
    assert text == " ".join("+1" if v == 1 else "-1" for v in values) + "\n"
    if edit == "insert":
        i = position % (len(text) + 1)
        text = text[:i] + char + text[i:]
    elif edit != "none":
        i = position % len(text)
        text = text[:i] + (char if edit == "replace" else "") + text[i + 1 :]
    assert _parsed(parse_coloring, text) == _parsed(parse_coloring_reference, text)
