import json
from pathlib import Path

import pytest

from wrig_lab import cli, cuts
from wrig_lab.bipartization import weak_bipartization
from wrig_lab.cli import main
from wrig_lab.core import RepresentationMatrix, cut_weight, discrepancy
from wrig_lab.sampling import ModelParams, sample_matrix
from wrig_lab.textio import format_matrix, read_coloring, read_matrix, write_matrix

STRONG_MIX = RepresentationMatrix.from_label_sets(4, [[0, 1, 3], [1, 2], [0, 2]])


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "weak.wrig"
    path.write_text("WRIG 1 3 3\n1 2 1 2\n2 2 2 3\n3 2 1 3\n")
    return path


def test_sample_writes_reproducible_matrix(tmp_path, capsys):
    out = tmp_path / "R.wrig"
    args = ["sample", "--n", "8", "--m", "5", "--p", "0.3", "--seed", "4"]
    assert main(args + ["--out", str(out)]) == 0
    R = read_matrix(out)
    assert (R.m, R.n) == (5, 8)
    assert main(args) == 0
    assert capsys.readouterr().out == format_matrix(R)


def test_sample_alpha_and_c_modes(tmp_path, capsys):
    out = tmp_path / "R.wrig"
    assert main(["sample", "--n", "256", "--alpha", "0.5", "--p", "0.02",
                 "--seed", "1", "--out", str(out)]) == 0
    assert read_matrix(out).m == 16
    assert main(["sample", "--n", "50", "--c", "0.5", "--seed", "1", "--out", str(out)]) == 0
    assert read_matrix(out).m == 50
    # --p conflicts with --c
    assert main(["sample", "--n", "50", "--c", "0.5", "--p", "0.1", "--out", str(out)]) == 1
    # --alpha, like --m, needs --p
    assert main(["sample", "--n", "256", "--alpha", "0.5", "--out", str(out)]) == 1
    # floor(n**alpha) must be a finite label count, and n at least 1
    for n, alpha in (("10", "1000"), ("10", "inf"), ("10", "nan"), ("0", "-1")):
        assert main(["sample", "--n", n, "--alpha", alpha, "--p", "0.1", "--out", str(out)]) == 1
    capsys.readouterr()
    # p = c/n needs n >= 1
    assert main(["sample", "--n", "0", "--c", "0.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: need n >= 1") and "Traceback" not in err
    # c = np cannot exceed n, and the error names c
    assert main(["sample", "--n", "100", "--c", "200"]) == 1
    assert capsys.readouterr().err == "error: need 0 <= c <= n, got c=200.0, n=100\n"
    # 10^12 cells at p = 0.1 fail at once, before any cell is drawn
    assert main(["sample", "--n", "10", "--m", "1000000000000", "--p", "0.1"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("error: expected n*m*p = 1e+12 ones exceeds")
    # and so do 2^40 labels with no ones expected
    assert main(["sample", "--n", "1", "--m", str(2**40), "--p", "0"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == (
        f"error: m={2**40} exceeds the sampler's label bound 33554432 for n=1, p=0.0"
    )


def test_solve_exact_above_the_cap_exits_one(tmp_path, capsys):
    path = tmp_path / "wide.wrig"
    write_matrix(RepresentationMatrix.from_label_sets(25, [[0, 1]]), path)
    for algo in ("exact", "mindisc"):
        assert main(["solve", "--algo", algo, "--in", str(path)]) == 1
        assert capsys.readouterr().err == "error: n=25 exceeds the brute-force cap 24\n"


def test_solve_json_and_coloring_file(matrix_file, tmp_path, capsys):
    coloring_path = tmp_path / "x.txt"
    assert main([
        "solve", "--algo", "exact", "--in", str(matrix_file),
        "--coloring-out", str(coloring_path), "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "algorithm": "exact", "weight": 2, "discrepancy": 2, "n": 3, "m": 3, "seed": 0,
    }
    assert len(read_coloring(coloring_path)) == 3


def test_solve_all_algorithms_run(matrix_file, capsys):
    for algo in ("random", "majority", "exact", "mindisc"):
        assert main(["solve", "--algo", algo, "--in", str(matrix_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == algo
        assert payload["weight"] <= 2


# The coloring the library gives for each --algo on the same matrix and seed.
LIBRARY_COLORINGS = {
    "random": lambda R: cuts.random_cut(R, 5).coloring,
    "majority": lambda R: cuts.majority_cut(R, 0.25, 5).coloring,
    "exact": lambda R: cuts.brute_force_max_cut(R).coloring,
    "mindisc": lambda R: cuts.brute_force_min_discrepancy(R)[0],
}


@pytest.mark.parametrize("algo", sorted(LIBRARY_COLORINGS))
def test_solve_agrees_with_the_library(algo, tmp_path, capsys):
    R = sample_matrix(ModelParams.fixed(12, 10, 0.3), 7)
    matrix_path, coloring_path = tmp_path / "R.wrig", tmp_path / "x.txt"
    write_matrix(R, matrix_path)
    assert main([
        "solve", "--algo", algo, "--in", str(matrix_path), "--seed", "5",
        "--epsilon", "0.25", "--coloring-out", str(coloring_path), "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    coloring = LIBRARY_COLORINGS[algo](R)
    assert read_coloring(coloring_path) == coloring
    assert payload["weight"] == cut_weight(R, coloring)
    assert payload["discrepancy"] == discrepancy(R, coloring)


def test_out_of_memory_exits_two(matrix_file, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli.cuts, "solve", exhausted)
    assert main(["solve", "--algo", "exact", "--in", str(matrix_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


def test_internal_value_error_exits_two(matrix_file, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli.cuts, "random_cut", broken)
    assert main(["solve", "--algo", "random", "--in", str(matrix_file)]) == 2
    assert capsys.readouterr().err == "error: internal fault\n"


def test_bipartize_json(matrix_file, capsys):
    assert main(["bipartize", "--in", str(matrix_file), "--seed", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["terminated"] is True
    assert payload["iterations"] == 0
    assert payload["cut_weight"] == 2
    [cycle] = payload["zero_strong_cycles"]
    assert cycle["vertices"] == [1, 2, 3]
    assert cycle["labels"] == [1, 2, 3]


def test_bipartize_strict_exit_code(tmp_path, capsys):
    # Pick a seed whose first matching closes the odd triangle, then forbid
    # re-matching: the run cannot terminate and --strict must exit 3.
    stuck_seed = next(
        s for s in range(100) if weak_bipartization(STRONG_MIX, seed=s).iterations > 0
    )
    path = tmp_path / "strong.wrig"
    path.write_text(format_matrix(STRONG_MIX))
    base = ["bipartize", "--in", str(path), "--seed", str(stuck_seed),
            "--max-rematch", "0", "--json"]
    assert main(base) == 0
    assert json.loads(capsys.readouterr().out)["terminated"] is False
    assert main(base + ["--strict"]) == 3


def test_count_sequences_exact_and_expected(matrix_file, capsys):
    assert main(["count-sequences", "--in", str(matrix_file), "--k", "3"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["count-sequences", "--expect", "--n", "5", "--m", "5",
                 "--p", "0.2", "--k", "3"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(0.0768, abs=1e-12)
    assert main(["count-sequences", "--k", "3"]) == 1  # neither --in nor --expect
    capsys.readouterr()
    # Flags the chosen count would ignore are rejected.
    assert main(["count-sequences", "--in", str(matrix_file), "--k", "3", "--n", "99"]) == 1
    assert capsys.readouterr().err.startswith("error: --n, --m and --p go only with --expect")
    assert main(["count-sequences", "--in", str(matrix_file), "--expect", "--n", "6",
                 "--m", "4", "--p", "0.5", "--k", "3"]) == 1
    assert "not allowed with argument" in capsys.readouterr().err
    for p in ("2", "-0.5", "nan"):
        assert main(["count-sequences", "--expect", "--n", "5", "--m", "5",
                     "--p", p, "--k", "3"]) == 1
        assert capsys.readouterr().err.startswith("error: need 0 <= p <= 1")
    assert main(["count-sequences", "--expect", "--n", "100000", "--m", "100000",
                 "--p", "1", "--k", "1000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the expected count for n=100000") and "Traceback" not in err
    # m far above k: (1/5) 5! (10^20)^5, which log-factorial differences
    # lost to cancellation (they gave 1.0).
    assert main(["count-sequences", "--expect", "--n", "5", "--m", str(10**20),
                 "--p", "1", "--k", "5"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(2.4e101, rel=1e-12)
    assert main(["count-sequences", "--expect", "--n", "10000000", "--m", "10000000",
                 "--p", "1e-7", "--k", str(2**20 + 1)]) == 1
    assert capsys.readouterr().err.startswith(f"error: k={2**20 + 1} exceeds the cap")


def test_experiment_subcommand(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "name": "cli", "regime": "fixed", "n": 8, "m": 8, "p": 0.2,
        "trials": 2, "algorithms": ["random", "bipartize"], "seed": 5,
    }))
    csv_path = tmp_path / "out.csv"
    summary_path = tmp_path / "sum.json"
    assert main(["experiment", "--spec", str(spec_path), "--workers", "1",
                 "--out", str(csv_path), "--summary", str(summary_path)]) == 0
    assert csv_path.read_text().startswith("# wrig-lab schema 1\n")
    assert json.loads(summary_path.read_text())["grid"][0]["trials"] == 2
    assert "grid 0" in capsys.readouterr().out


def test_experiment_strict_exit_code(tmp_path, capsys):
    spec_path = tmp_path / "strict.json"
    spec_path.write_text(json.dumps({
        "name": "strict", "regime": "fixed", "n": 10, "m": 10, "p": 0.2,
        "trials": 3, "algorithms": ["bipartize"], "seed": 42, "max_rematch": 0,
    }))
    base = ["experiment", "--spec", str(spec_path), "--workers", "1",
            "--out", str(tmp_path / "o.csv")]
    assert main(base) == 0  # non-termination is an outcome, not an error
    assert main(base + ["--strict"]) == 3
    capsys.readouterr()


def test_experiment_prints_out_of_window_warnings_as_sample_does(tmp_path, capsys):
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps({
        "regime": "c-sweep", "n": 100, "c": [0.5, 1.0, 0.5], "trials": 1,
    }))
    assert main(["experiment", "--spec", str(spec_path), "--workers", "1",
                 "--out", str(tmp_path / "o.csv")]) == 0
    warning = "warning: p=0.005 is outside the studied window [0.01, 0.1] for n=100, m=100\n"
    assert capsys.readouterr().err == 2 * warning
    assert main(["sample", "--n", "100", "--c", "0.5"]) == 0
    assert capsys.readouterr().err == warning
    # A bad override is refused before any warning, as the spec's own values are.
    assert main(["experiment", "--spec", str(spec_path), "--workers", "-1"]) == 1
    assert capsys.readouterr().err == "error: workers must be >= 0, got -1\n"
    # Above the window too, from the one check both commands call.
    above = "warning: p=0.5 is outside the studied window [0.01, 0.1] for n=100, m=100\n"
    spec_path.write_text(json.dumps({"n": 100, "m": 100, "p": 0.5}))
    assert main(["experiment", "--spec", str(spec_path), "--workers", "1"]) == 0
    assert capsys.readouterr().err == above
    assert main(["sample", "--n", "100", "--m", "100", "--p", "0.5"]) == 0
    assert capsys.readouterr().err == above


def test_experiment_refuses_one_file_for_csv_and_summary(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"n": 3, "m": 3, "p": 0.5}))
    out = tmp_path / "out.csv"
    assert main(["experiment", "--spec", str(spec_path), "--workers", "1",
                 "--out", str(out), "--summary", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: output {str(out)!r} and summary {str(out)!r} name the same file\n"
    )
    spec_path.write_text(json.dumps({"n": 3, "m": 3, "p": 0.5, "output": "x.csv",
                                     "summary": "x.csv"}))
    assert main(["experiment", "--spec", str(spec_path), "--workers", "1"]) == 1
    capsys.readouterr()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["spec.json"]


def test_experiment_refuses_a_summary_it_cannot_write_before_any_trial(
    tmp_path, monkeypatch, capsys
):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"regime": "c-sweep", "n": 100, "c": 1.0, "trials": 200}))
    summary = str(tmp_path / "nodir" / "summary.json")
    assert main(["experiment", "--spec", str(spec_path), "--out", str(tmp_path / "out.csv"),
                 "--summary", summary]) == 1
    assert capsys.readouterr().err == (
        f"error: the directory of summary {summary!r} does not exist\n"
    )
    adir = tmp_path / "adir"
    adir.mkdir()
    assert main(["experiment", "--spec", str(spec_path), "--out", str(tmp_path / "out.csv"),
                 "--summary", str(adir)]) == 1
    assert capsys.readouterr().err == f"error: summary {str(adir)!r} is a directory\n"
    # Tests run as root, who may write anywhere, so the access check itself
    # is what refuses the directory here.
    readonly = tmp_path / "readonly"
    readonly.mkdir()
    monkeypatch.setattr(cli.textio.os, "access", lambda path, mode: Path(path) != readonly)
    summary = str(readonly / "summary.json")
    assert main(["experiment", "--spec", str(spec_path), "--out", str(tmp_path / "out.csv"),
                 "--summary", summary]) == 1
    assert capsys.readouterr().err == f"error: summary {summary!r} is not writable\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["adir", "readonly", "spec.json"]
    assert list(adir.iterdir()) == list(readonly.iterdir()) == []


def test_experiment_refuses_an_empty_path(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"n": 3, "m": 3, "p": 0.5, "output": "cfg.csv"}))
    assert main(["experiment", "--spec", str(spec_path), "--out", ""]) == 1
    assert capsys.readouterr().err == "error: output must name a file, got ''\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["spec.json"]


@pytest.mark.parametrize(
    "where, message",
    [
        ("nodir/out", "the directory of {role} {path!r} does not exist"),
        ("adir", "{role} {path!r} is a directory"),
        ("", "{role} must name a file, got ''"),
    ],
    ids=["without_dir", "is_dir", "empty"],
)
@pytest.mark.parametrize("command", ["sample", "solve"])
def test_destination_refused_before_any_work(
    command, where, message, matrix_file, tmp_path, monkeypatch, capsys
):
    (tmp_path / "adir").mkdir()
    path = str(tmp_path / where) if where else ""

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the destination was checked")

    monkeypatch.setattr(cli, "sample_matrix", no_work)
    monkeypatch.setattr(cli.cuts, "solve", no_work)
    monkeypatch.setattr(cli.textio, "read_matrix", no_work)
    role, argv = {
        "sample": ("output", ["sample", "--n", "5", "--m", "5", "--p", "0.3", "--out", path]),
        "solve": (
            "coloring output",
            ["solve", "--algo", "random", "--in", str(matrix_file), "--coloring-out", path],
        ),
    }[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.format(role=role, path=path)}\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "weak.wrig"]
    assert list((tmp_path / "adir").iterdir()) == []


def test_count_sequences_over_the_work_budget_exits_one(tmp_path, capsys):
    # One label of 8193 vertices holds more than 2^25 vertex pairs.
    path = tmp_path / "wide.wrig"
    write_matrix(RepresentationMatrix.from_label_sets(8193, [range(8193), [0, 1]]), path)
    assert main(["count-sequences", "--in", str(path), "--k", "2"]) == 1
    assert capsys.readouterr().err == (
        f"error: counting cycles of size k=2 exceeds the work budget {2**25}\n"
    )


def test_sample_at_p_1e_17_exits_zero(capsys):
    assert main(["sample", "--n", "10", "--m", "10", "--p", "1e-17"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "WRIG 1 10 10\n" + "".join(f"{l} 0\n" for l in range(1, 11))
    assert captured.err.startswith("warning: p=1e-17 is outside the studied window")


def test_invalid_inputs_exit_one(matrix_file, tmp_path, capsys):
    assert main(["solve", "--algo", "exact", "--in", str(tmp_path / "missing")]) == 1
    bad = tmp_path / "bad.wrig"
    bad.write_text("BOGUS\n")
    assert main(["solve", "--algo", "exact", "--in", str(bad)]) == 1
    bad.write_text("WRIG 1 1 3\n1 x\n")
    assert main(["solve", "--algo", "exact", "--in", str(bad)]) == 1
    bad.write_bytes(b"\xff\xfe")
    assert main(["solve", "--algo", "exact", "--in", str(bad)]) == 1
    assert main(["solve", "--algo", "warp", "--in", str(bad)]) == 1
    assert main(["experiment", "--spec", str(tmp_path / "missing.json")]) == 1
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": 3, "m": 3, "p": 0.5}))
    assert main(["experiment", "--spec", str(spec), "--workers", "-1"]) == 1
    spec.write_text(json.dumps({"n": 3, "m": 3, "p": 0.5, "output": 5}))
    assert main(["experiment", "--spec", str(spec)]) == 1
    assert main(["bipartize", "--in", str(matrix_file), "--max-rematch", "-7"]) == 1
    capsys.readouterr()
    # n*m >= 2^63 is bad input, named as such, not an int64 wrap-around
    bad.write_text("WRIG 1 12 1000000000000000000\n" + "".join(f"{l} 1 1\n" for l in range(1, 13)))
    assert main(["solve", "--algo", "random", "--in", str(bad)]) == 1
    assert capsys.readouterr().err == f"error: need n*m < 2^63, got n={10**18}, m=12\n"


@pytest.mark.parametrize(
    "where, errno",
    [("adir", "[Errno 21] Is a directory"), ("weak.wrig/x", "[Errno 20] Not a directory")],
    ids=["is_dir", "under_a_file"],
)
@pytest.mark.parametrize(
    "command",
    [["solve", "--algo", "random"], ["bipartize"], ["count-sequences", "--k", "3"]],
    ids=["solve", "bipartize", "count-sequences"],
)
def test_input_path_that_is_no_file_exits_one(command, where, errno, matrix_file, tmp_path, capsys):
    (tmp_path / "adir").mkdir()
    path = tmp_path / where
    assert main([*command, "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {errno}: {str(path)!r}\n"
    assert captured.out == ""


def test_spec_that_is_a_directory_exits_one(tmp_path, capsys):
    assert main(["experiment", "--spec", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["sample", "solve", "bipartize"])
def test_negative_seed_exits_one_and_names_it(command, matrix_file, capsys):
    given = {
        "sample": ["--n", "5", "--m", "5", "--p", "0.3"],
        "solve": ["--algo", "random", "--in", str(matrix_file)],
        "bipartize": ["--in", str(matrix_file)],
    }[command]
    assert main([command, *given, "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
