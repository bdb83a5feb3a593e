"""Command-line front end for factorizing graded matrices.

Subcommands cover the whole workflow: discretize raw measurements, run the
greedy decomposition (whose coverage curve the coverage experiment reads
from `factorize --max-factors 50`) or the exact small-instance oracle, and
rerun the synthetic factorizability experiment.
The parser checks every number on the command line against its option's
bound, so a command line that is wrong alone ends with one `error:` line
and exit status 2 before anything is read or written; a bad input or a
failed run ends with one `error:` line and exit status 1.
All artifacts are written deterministically, so identical configurations
produce byte-identical files; timings go to the console only.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .concepts import BudgetExceededError
from .data import (
    MAX_FIMI_CELLS,
    ColumnRange,
    discretize,
    random_factorizable,
    read_csv,
    read_fimi,
    read_ranges_csv,
    read_raw_csv,
    write_csv,
)
from .data import _join_texts, _level_blocks
from .factorization import (
    DEFAULT_TIE_BREAK,
    TIE_BREAK_POLICIES,
    FactorSet,
    coverage_curve,
    find_factors,
    optimal_factorization,
)
from .matrix import GradedMatrix
from .scale import MAX_LEVELS, Scale, TNORM_KINDS, _require_count


@dataclass(frozen=True)
class ExperimentStats:
    """Factor-count statistics for one inner dimension k."""

    k: int
    mean_factors: float
    std_dev: float
    trials: int


def factorizability_stats(k: int, trials: int, rows: int, cols: int, scale: Scale,
                          distribution=None, seed: int = 0,
                          tie_break=DEFAULT_TIE_BREAK) -> ExperimentStats:
    """Decompose `trials` random rank-k products and summarize factor counts.

    Every trial draws from its own generator stream derived from
    (seed, k, trial index), so results do not depend on execution order.
    The four counts are integers of at least 1, and a run that would draw
    more than MAX_FIMI_CELLS product cells in all is refused before the first.
    """
    trials, rows, cols, k = (_require_count(name, value, 1) for name, value in
                             zip(("trials", "rows", "cols", "k"), (trials, rows, cols, k)))
    if trials * rows * cols > MAX_FIMI_CELLS:
        raise ValueError(f"{trials} trials of a {rows}x{cols} product draw more than "
                         f"{MAX_FIMI_CELLS} cells")
    counts = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, k, trial])
        matrix = random_factorizable(rows, cols, k, scale, distribution, rng)
        counts.append(len(find_factors(matrix, tie_break)))
    return ExperimentStats(
        k=k,
        mean_factors=statistics.fmean(counts),
        std_dev=statistics.pstdev(counts),
        trials=trials,
    )


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------


def _scale(args: argparse.Namespace) -> Scale:
    return Scale(args.levels, args.tnorm, args.rounded)


def _load_matrix(args: argparse.Namespace) -> GradedMatrix:
    scale = _scale(args)
    if args.data_format != "fimi" and args.num_items is not None:
        raise ValueError("--num-items applies to --format fimi only")
    if args.data_format == "fimi":
        if args.levels != 2:
            raise ValueError("transaction input is Boolean; pass --levels 2")
        return read_fimi(args.input, args.num_items, scale=scale)
    return read_csv(args.input, scale, mode=args.mode)


def _factor_report(args: argparse.Namespace, factor_set: FactorSet, curve, nonzero, *,
                   optimal: bool = False) -> dict:
    return {
        "command": args.command,
        "input": str(args.input),
        "scale": {
            "levels": args.levels,
            "tnorm": args.tnorm,
            "rounded": args.rounded,
        },
        "tie_break": args.tie_break,
        "seed": None,
        "optimal": optimal,
        "shape": list(factor_set.context_shape),
        "complete": factor_set.complete,
        "factor_count": len(factor_set),
        "factors": factor_set,
        "coverage_equal": [float(f) for f in curve],
        "coverage_equal_exact": [str(f) for f in curve],
        "coverage_nonzero": [float(f) for f in nonzero],
    }


def _factors_text(factors: FactorSet, indent: str) -> str:
    """The text of a report's factors: every extent printed by one
    `_json_rows` call and every intent by another."""
    if not len(factors):
        return "[]"
    inner, member = indent + "  ", indent + "    "
    pairs = zip(_json_rows(factors.a.entries.T, member), _json_rows(factors.b.entries, member))
    items = (f'{{\n{member}"extent": {extent},\n{member}"intent": {intent}\n{inner}}}'
             for extent, intent in pairs)
    return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"


def _json_rows(rows: np.ndarray, indent: str) -> list[str]:
    """The text of each row of a 2-D int array as a list of
    ``json.dumps(..., indent=2)``, with its lines after the first indented
    by `indent`.  Every int's text is followed by the separator, so the
    texts are printed through one byte table of the ints that occur; each
    row's text is cut at the cumulative lengths, less its last separator."""
    if not rows.shape[1]:
        return ["[]"] * len(rows)
    inner = indent + "  "
    sep = ",\n" + inner
    lists = []
    for keys, table in _level_blocks(rows, None, (sep,)):
        text = _join_texts(keys, table).decode("ascii")
        ends = np.cumsum(table.lens[keys].sum(axis=1)).tolist()
        lists += [f"[\n{inner}{text[start:end - len(sep)]}\n{indent}]"
                  for start, end in zip([0] + ends, ends)]
    return lists


def _write_json(path: Path, payload: dict) -> None:
    """Write exactly ``json.dumps(payload, indent=2, sort_keys=True)`` and a
    line break, with the FactorSet ``payload["factors"]`` as its list of
    factors, ``[{"extent": [...], "intent": [...]}, ...]``."""
    text = json.dumps({**payload, "factors": []}, indent=2, sort_keys=True)
    # json.dumps escapes a line break inside a string: this is the top-level member
    member = '\n  "factors": '
    text = text.replace(member + "[]", member + _factors_text(payload["factors"], "  "), 1)
    path.write_text(text + "\n", encoding="utf-8", newline="\n")


def _write_coverage_tsv(path: Path, curve, nonzero) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("factor\tequal_fraction\tcovered_nonzero\n")
        for l, (eq, nz) in enumerate(zip(curve, nonzero), start=1):
            handle.write(f"{l}\t{float(eq):.6f}\t{float(nz):.6f}\n")


def _factorize(args: argparse.Namespace, run, *, optimal: bool = False) -> tuple[FactorSet, float]:
    """Load the input, time `run` on it and write its artifacts, each name
    looked up per call, where a tracer may wrap it; the factors and seconds."""
    matrix = _load_matrix(args)
    start = time.perf_counter()
    factor_set = run(matrix)
    elapsed = time.perf_counter() - start
    curve = coverage_curve(factor_set, matrix)
    nonzero = factor_set.covered_nonzero_curve()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(factor_set.a, args.out_dir / "A.csv")
    write_csv(factor_set.b, args.out_dir / "B.csv")
    _write_json(args.out_dir / "factors.json",
                _factor_report(args, factor_set, curve, nonzero, optimal=optimal))
    _write_coverage_tsv(args.out_dir / "coverage.tsv", curve, nonzero)
    return factor_set, elapsed


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def cmd_factorize(args: argparse.Namespace) -> int:
    factor_set, elapsed = _factorize(
        args, lambda matrix: find_factors(matrix, args.tie_break, max_factors=args.max_factors))
    initial, left = factor_set.uncovered_counts[0], factor_set.uncovered_counts[-1]
    covered = (initial - left) / initial if initial else 1.0
    note = "run complete" if factor_set.complete else "run truncated, not exact"
    print(
        f"{len(factor_set)} factors cover {covered:.4f} of the nonzero cells "
        f"({note}); artifacts in {args.out_dir} ({elapsed:.2f}s)"
    )
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    factor_set, elapsed = _factorize(
        args, lambda matrix: optimal_factorization(matrix, budget=args.budget), optimal=True)
    print(
        f"optimal decomposition uses {len(factor_set)} factors; "
        f"artifacts in {args.out_dir} ({elapsed:.2f}s)"
    )
    return 0


def cmd_discretize(args: argparse.Namespace) -> int:
    table = read_raw_csv(args.input)
    ranges = read_ranges_csv(args.ranges) if args.ranges else ColumnRange.from_table(table)
    # snapping onto the chain takes no t-norm, so only --levels applies
    graded = discretize(table, ranges, Scale(args.levels), mode=args.mode)
    args.out_file.parent.mkdir(parents=True, exist_ok=True)
    write_csv(graded, args.out_file)
    print(
        f"discretized {graded.n_rows}x{graded.n_cols} table onto {args.levels} grades "
        f"into {args.out_file}"
    )
    return 0


def cmd_experiment_factorizability(args: argparse.Namespace) -> int:
    scale = _scale(args)
    start = time.perf_counter()
    results = [
        factorizability_stats(
            k, args.trials, args.rows, args.cols, scale,
            distribution=args.distribution, seed=args.seed, tie_break=args.tie_break,
        )
        for k in args.ks
    ]
    elapsed = time.perf_counter() - start
    args.out_dir.mkdir(parents=True, exist_ok=True)
    dist_text = "uniform" if args.distribution is None else ",".join(f"{w:g}" for w in args.distribution)
    with open(args.out_dir / "stats.tsv", "w", encoding="utf-8", newline="\n") as handle:
        handle.write(
            f"# size={args.rows}x{args.cols} levels={args.levels} tnorm={args.tnorm} "
            f"tie_break={args.tie_break} seed={args.seed} dist={dist_text}\n"
        )
        handle.write("k\tmean_factors\tstd_dev\ttrials\n")
        for s in results:
            handle.write(f"{s.k}\t{s.mean_factors:.3f}\t{s.std_dev:.3f}\t{s.trials}\n")
    for s in results:
        print(f"k={s.k}: {s.mean_factors:.3f} +- {s.std_dev:.3f} factors over {s.trials} trials")
    print(f"artifacts in {args.out_dir} ({elapsed:.2f}s)")
    return 0


COMMANDS = {
    "factorize": cmd_factorize,
    "oracle": cmd_oracle,
    "discretize": cmd_discretize,
    "experiment-factorizability": cmd_experiment_factorizability,
}


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are one stderr line and exit status 2;
    subparsers take its class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _at_least(low: int, high: int | None = None):
    """The argparse type of an integer option bounded by [low, high]."""
    def bounded(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return bounded


def _list_of(item):
    """The argparse type of a comma-separated list, each part parsed by `item`."""
    def parts(text: str) -> tuple:
        try:
            return tuple(map(item, text.split(",")))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None
    return parts


def _add_levels_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--levels", type=_at_least(2, MAX_LEVELS), default=5,
                        help="grades on the chain, counting 0 and 1 (default 5)")


def _add_scale_args(parser: argparse.ArgumentParser) -> None:
    _add_levels_arg(parser)
    parser.add_argument("--tnorm", choices=TNORM_KINDS, default="lukasiewicz")
    parser.add_argument("--rounded", action="store_true",
                        help="opt in to the rounded goguen t-norm; goguen only")


def _add_mode_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--strict", dest="mode", action="store_const", const="strict",
                       default="strict", help="reject off-scale values (default)")
    group.add_argument("--lenient", dest="mode", action="store_const", const="lenient",
                       help="clamp and round off-scale values")


def _add_input_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", type=Path, required=True)
    parser.add_argument("--format", dest="data_format", choices=("csv", "fimi"),
                        default="csv", help="input layout (default csv)")
    parser.add_argument("--num-items", type=_at_least(1), default=None,
                        help="column count for transaction files; inferred when omitted")


def _add_tie_break_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tie-break", dest="tie_break",
                        choices=TIE_BREAK_POLICIES, default=DEFAULT_TIE_BREAK)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gradefactor",
        description="Decompose matrices of ordinal grades into concept factors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factorize", help="greedy exact decomposition and its coverage curve")
    _add_input_args(p)
    _add_scale_args(p)
    _add_mode_args(p)
    _add_tie_break_arg(p)
    p.add_argument("--max-factors", dest="max_factors", type=_at_least(0), default=None,
                   help="stop after this many factors (marks the run incomplete)")
    p.add_argument("--out-dir", dest="out_dir", type=Path, required=True)

    p = sub.add_parser("oracle", help="exact minimum decomposition for small inputs")
    _add_input_args(p)
    _add_scale_args(p)
    _add_mode_args(p)
    p.add_argument("--budget", type=_at_least(1), default=10**6,
                   help="cap on closure computations and search nodes")
    p.add_argument("--out-dir", dest="out_dir", type=Path, required=True)
    # factors.json records a tie-break policy; the oracle's search has none
    p.set_defaults(tie_break=DEFAULT_TIE_BREAK)

    p = sub.add_parser("discretize", help="snap a raw table onto a grade chain")
    p.add_argument("--input", type=Path, required=True, help="raw measurement CSV")
    p.add_argument("--ranges", type=Path, default=None,
                   help="two-row CSV of per-column lows and highs; observed when omitted")
    _add_levels_arg(p)
    _add_mode_args(p)
    p.add_argument("--out", dest="out_file", type=Path, required=True,
                   help="where to write the graded CSV")

    p = sub.add_parser("experiment-factorizability",
                       help="factor counts of random rank-k products")
    _add_scale_args(p)
    _add_tie_break_arg(p)
    p.add_argument("--k", dest="ks", type=_list_of(_at_least(1)), default=(5,),
                   help="comma-separated inner dimensions (default 5)")
    p.add_argument("--trials", type=_at_least(1), default=200)
    p.add_argument("--rows", type=_at_least(1), default=20)
    p.add_argument("--cols", type=_at_least(1), default=20)
    p.add_argument("--dist", dest="distribution", type=_list_of(float), default=None,
                   help="comma-separated grade weights; uniform when omitted")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--out-dir", dest="out_dir", type=Path, required=True)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reuses, built on its first call rather than at
    import: building one takes about 1.2 ms, ten times a parse, and an
    in-process caller such as a test or the benchmark calls `main` many
    times.  A parse keeps no state in the parser, so every call parses as
    a fresh parser would."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (ValueError, OSError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
