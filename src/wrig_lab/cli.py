"""Command-line interface.

Subcommands: ``sample`` (draw a random matrix), ``solve`` (run a cut
algorithm on a matrix file), ``bipartize`` (run weak bipartization),
``count-sequences`` (exact or expected closed-cycle counts), and
``experiment`` (run a config-driven Monte Carlo sweep).

Exit codes: 0 on success, 1 on invalid input (an ``InputError``, a missing
or non-UTF-8 file), 2 on runtime failure (any other ``ValueError``, an
``OSError``, a ``RuntimeError``, out of memory), 3 when bipartization failed
to terminate and --strict was given.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional, Sequence

from . import bipartization, cuts, experiment, textio
from .core import InputError, cut_weight, discrepancy
from .sampling import ModelParams, sample_matrix

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_RUNTIME = 2
EXIT_NONTERMINATION = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we want exit code 1
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wrig-lab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="draw a random representation matrix")
    p_sample.add_argument("--n", type=int, required=True, help="vertex count")
    group = p_sample.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=int, help="label count")
    group.add_argument("--alpha", type=float, help="label count = floor(n**alpha)")
    group.add_argument("--c", type=float, help="m = n, p = c/n")
    p_sample.add_argument("--p", type=float, help="entry probability (not with --c)")
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--out", help="output path (default: stdout)")

    p_solve = sub.add_parser("solve", help="run a cut algorithm on a matrix file")
    p_solve.add_argument("--algo", required=True, choices=cuts.CUT_ALGORITHMS)
    p_solve.add_argument("--epsilon", type=float, default=0.0)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--in", dest="infile", required=True, help="matrix file")
    p_solve.add_argument("--coloring-out", help="write the coloring here")
    p_solve.add_argument("--json", action="store_true", help="emit a JSON result")

    p_bip = sub.add_parser("bipartize", help="run weak bipartization on a matrix file")
    p_bip.add_argument("--in", dest="infile", required=True)
    p_bip.add_argument("--seed", type=int, default=0)
    p_bip.add_argument("--max-rematch", type=int, default=None)
    p_bip.add_argument("--json", action="store_true")
    p_bip.add_argument(
        "--strict", action="store_true", help="exit 3 if the run does not terminate"
    )

    p_count = sub.add_parser("count-sequences", help="closed vertex-label cycle counts")
    source = p_count.add_mutually_exclusive_group(required=True)
    source.add_argument("--in", dest="infile", help="matrix file for the exact count")
    source.add_argument(
        "--expect", action="store_true", help="evaluate the expectation formula instead"
    )
    p_count.add_argument("--k", type=int, required=True, help="cycle size")
    p_count.add_argument("--n", type=int, help="vertex count (with --expect)")
    p_count.add_argument("--m", type=int, help="label count (with --expect)")
    p_count.add_argument("--p", type=float, help="entry probability (with --expect)")

    p_exp = sub.add_parser("experiment", help="run a JSON-configured experiment")
    p_exp.add_argument("--spec", required=True, help="JSON config file")
    p_exp.add_argument("--workers", type=int, default=None, help="override worker count")
    p_exp.add_argument("--out", dest="output", help="override the CSV output path")
    p_exp.add_argument("--summary", default=None, help="override the JSON summary path")
    p_exp.add_argument(
        "--strict",
        action="store_true",
        help="exit 3 if any bipartization trial does not terminate",
    )
    return parser


def cmd_sample(args) -> int:
    given = {
        key: getattr(args, key)
        for key in ("n", "m", "p", "alpha", "c")
        if getattr(args, key) is not None
    }
    # Whichever of --m, --alpha and --c is given names the regime.
    regime = next(r for r, reads in experiment.REGIME_KEYS.items() if reads[0] in given)
    [params] = experiment.expand_grid(dict(given, regime=regime))
    _print_regime_warnings([params])
    if args.out is not None:
        textio.check_destination("output", args.out)
    R = sample_matrix(params, args.seed)
    if args.out is not None:
        textio.write_matrix(R, args.out)
    else:
        sys.stdout.write(textio.format_matrix(R))
    return EXIT_OK


def cmd_solve(args) -> int:
    if args.coloring_out is not None:
        textio.check_destination("coloring output", args.coloring_out)
    R = textio.read_matrix(args.infile)
    result = cuts.solve(R, args.algo, args.seed, epsilon=args.epsilon)
    if args.coloring_out is not None:
        textio.write_coloring(result.coloring, args.coloring_out)
    payload = {
        "algorithm": args.algo,
        "weight": result.weight,
        "discrepancy": discrepancy(R, result.coloring),
        "n": R.n,
        "m": R.m,
        "seed": args.seed,
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"{args.algo}: weight={payload['weight']} discrepancy={payload['discrepancy']}")
    return EXIT_OK


def cmd_bipartize(args) -> int:
    R = textio.read_matrix(args.infile)
    outcome = bipartization.weak_bipartization(R, args.seed, max_rematch=args.max_rematch)
    payload = {
        "terminated": outcome.terminated,
        "iterations": outcome.iterations,
        "zero_strong_cycles": [
            {
                "vertices": [v + 1 for v in seq.vertices],
                "labels": [l + 1 for l in seq.labels],
            }
            for seq in outcome.zero_strong_cycles
        ],
        "label_disjoint": outcome.label_disjoint,
        "cut_weight": None,
        "discrepancy": None,
    }
    if outcome.coloring is not None:
        payload["cut_weight"] = cut_weight(R, outcome.coloring)
        payload["discrepancy"] = discrepancy(R, outcome.coloring)
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(
            f"terminated={payload['terminated']} iterations={payload['iterations']} "
            f"zero_strong={len(outcome.zero_strong_cycles)} "
            f"cut_weight={payload['cut_weight']} discrepancy={payload['discrepancy']}"
        )
    if args.strict and not outcome.terminated:
        return EXIT_NONTERMINATION
    return EXIT_OK


def cmd_count_sequences(args) -> int:
    if args.expect:
        if args.n is None or args.m is None or args.p is None:
            raise InputError("--expect needs --n, --m and --p")
        value = bipartization.expected_sequence_count(args.n, args.m, args.p, args.k)
        print(repr(value))
    else:
        if (args.n, args.m, args.p) != (None, None, None):
            raise InputError("--n, --m and --p go only with --expect")
        R = textio.read_matrix(args.infile)
        print(bipartization.count_sequences_exact(R, args.k))
    return EXIT_OK


def cmd_experiment(args) -> int:
    overrides = {
        key: getattr(args, key)
        for key in ("output", "summary", "workers")
        if getattr(args, key) is not None
    }
    spec = dataclasses.replace(experiment.ExperimentSpec.from_file(args.spec), **overrides)
    _print_regime_warnings(spec.grid)
    records, stats = experiment.run_experiment(spec)
    for grid in stats.grid:
        fraction = grid.termination_fraction
        print(
            f"grid {grid.grid_id}: n={grid.n} m={grid.m} p={grid.p:g} "
            f"trials={grid.trials}"
            + (f" termination={fraction:.3f}" if fraction is not None else "")
        )
    if args.strict and any(r.bipartize_terminated is False for r in records):
        return EXIT_NONTERMINATION
    return EXIT_OK


def _print_regime_warnings(grid: Sequence[ModelParams]) -> None:
    """One ``warning: <message>`` line on stderr per point outside the studied window."""
    for params in grid:
        message = params.regime_warning()
        if message is not None:
            print(f"warning: {message}", file=sys.stderr)


_COMMANDS = {
    "sample": cmd_sample,
    "solve": cmd_solve,
    "bipartize": cmd_bipartize,
    "count-sequences": cmd_count_sequences,
    "experiment": cmd_experiment,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (
        InputError,
        FileNotFoundError,
        IsADirectoryError,
        NotADirectoryError,
        UnicodeDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
