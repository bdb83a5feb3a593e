"""The four workloads: seeded inputs, the operations that run them, their checks.

An operation ("op") is one CLI invocation, run in-process through
`gradefactor.cli.main`, or one library instance.  `build` makes every
input of a run before any timing starts and returns its ops in order; the
runner runs a probe after every `per_probe` ops.  The amount of work is
fixed by the sizes and the round count alone, never by a clock.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen
from checker import (
    Chain,
    CheckFailed,
    OpFailed,
    check_cli_factorization,
    check_discretized,
    check_factors,
    check_rejected,
)

WORKLOADS = ("graded-sweep", "boolean-tall", "many-small", "ingest")

# Sizes of one round; the nominal seconds one round takes at reference
# speed (a run of S seconds does max(1, round(S / round_s)) rounds); the
# probe components that resemble the workload's own work; how many ops run
# between two probes (0.1 s of work or more); and how many probe samples
# are taken there, more where ops are long and few.
FULL = {
    "graded-sweep": dict(rows=40, cols=30, rank=4, round_s=0.55, probe=("interp", "small"),
                         per_probe=1, samples=1),
    "boolean-tall": dict(rows=3196, items=75, density=0.49, max_factors=10, round_s=5.0,
                         probe=("tall",), per_probe=1, samples=8),
    "many-small": dict(rows=20, cols=20, rank=5, greedy=16, optimal=4, max_side=5,
                       round_s=0.35, probe=("interp", "small"), per_probe=5, samples=1),
    "ingest": dict(rows=4000, cols=8, rank=3, levels=5, round_s=1.1, probe=("interp", "parse"),
                   per_probe=1, samples=2),
}
TOY = {
    "graded-sweep": dict(rows=12, cols=10, rank=3, round_s=1.0, probe=("interp", "small"),
                         per_probe=1, samples=1),
    "boolean-tall": dict(rows=200, items=20, density=0.49, max_factors=3, round_s=1.0,
                         probe=("tall",), per_probe=1, samples=1),
    "many-small": dict(rows=8, cols=8, rank=3, greedy=4, optimal=2, max_side=4,
                       round_s=1.0, probe=("interp", "small"), per_probe=2, samples=1),
    "ingest": dict(rows=60, cols=5, rank=2, levels=5, round_s=1.0, probe=("interp", "parse"),
                   per_probe=1, samples=1),
}

SWEEP_CHAINS = [(levels, kind) for levels in (5, 11) for kind in ("lukasiewicz", "godel", "goguen")]
WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}


@dataclass
class Outcome:
    """What the independent check of one op found."""

    factors: int = 0
    cells_covered: int = 0
    # for closure timing: (context levels, chain, intents the op emitted)
    closure: tuple[np.ndarray, Chain, list[np.ndarray]] | None = None


@dataclass
class Op:
    kind: str
    run: Callable[[Path], object]  # the timed call into the program
    check: Callable[[object, Path], Outcome]  # raises CheckFailed or OpFailed
    # False for an op whose correct outcome is an early rejection: its few
    # milliseconds would drag op_p50_ms to a low order statistic of the rest
    latency: bool = True


def run_cli(package, args: list[str]) -> tuple[int, str, str]:
    """One in-process CLI invocation: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = package.cli.main(args)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _require_success(result: tuple[int, str, str]) -> None:
    code, _, err = result
    if code != 0:
        raise OpFailed(f"exit code {code}: {err.strip()}")


def _factorize_op(package, kind: str, path: Path, chain: Chain, context: np.ndarray,
                  extra: list[str], *, complete: bool) -> Op:
    def run(out: Path):
        return run_cli(package, ["factorize", "--input", str(path), *extra,
                                 "--out-dir", str(out)])

    def check(result, out: Path) -> Outcome:
        _require_success(result)
        k, covered, intents = check_cli_factorization(out, chain, context, complete=complete)
        return Outcome(k, covered, (context, chain, list(intents)))

    return Op(kind, run, check)


def _graded_sweep(package, rng_for, sizes: dict, rounds: int, work: Path) -> list[Op]:
    ops = []
    for r in range(rounds):
        for c, (levels, kind) in enumerate(SWEEP_CHAINS):
            chain = Chain(levels, kind)
            context = gen.planted_product(rng_for(r, c), chain, sizes["rows"], sizes["cols"],
                                          sizes["rank"])
            path = work / f"sweep-{r}-{c}.csv"
            gen.write_grades(path, context, levels)
            extra = ["--levels", str(levels), "--tnorm", kind]
            if kind == "goguen":
                extra.append("--rounded")
            ops.append(_factorize_op(package, f"factorize-{levels}-{kind}", path, chain,
                                     context, extra, complete=True))
    return ops


def _boolean_tall(package, rng_for, sizes: dict, rounds: int, work: Path) -> list[Op]:
    chain = Chain(2, "lukasiewicz")
    ops = []
    for r in range(rounds):
        grid = gen.transactions(rng_for(r, 0), sizes["rows"], sizes["items"], sizes["density"])
        path = work / f"tall-{r}.dat"
        gen.write_fimi(path, grid)
        extra = ["--format", "fimi", "--levels", "2", "--max-factors", str(sizes["max_factors"])]
        ops.append(_factorize_op(package, "factorize-fimi-truncated", path, chain, grid,
                                 extra, complete=False))
    return ops


def _greedy_op(package, scale, chain: Chain, levels: np.ndarray) -> Op:
    context = package.GradedMatrix(scale, levels)

    def run(out: Path):
        factor_set = package.find_factors(context)
        a, b = package.factor_matrices(factor_set)
        if package.compose(a, b) != context:
            raise OpFailed("find_factors result does not compose to its input")
        return a.entries, b.entries

    def check(result, out: Path) -> Outcome:
        extents, intents = result
        covered = check_factors(chain, levels, extents, intents, complete=True)
        return Outcome(extents.shape[1], covered, (levels, chain, list(intents)))

    return Op("find_factors", run, check)


def _optimal_op(package, scale, chain: Chain, levels: np.ndarray) -> Op:
    context = package.GradedMatrix(scale, levels)

    def run(out: Path):
        optimal = package.optimal_factorization(context)
        greedy = package.find_factors(context)
        a, b = package.factor_matrices(optimal)
        if package.compose(a, b) != context:
            raise OpFailed("optimal_factorization result does not compose to its input")
        ga, gb = package.factor_matrices(greedy)
        return a.entries, b.entries, ga.entries, gb.entries

    def check(result, out: Path) -> Outcome:
        extents, intents, greedy_extents, greedy_intents = result
        covered = check_factors(chain, levels, extents, intents, complete=True)
        check_factors(chain, levels, greedy_extents, greedy_intents, complete=True)
        if extents.shape[1] > greedy_extents.shape[1]:
            raise CheckFailed(
                f"optimal uses {extents.shape[1]} factors, greedy only {greedy_extents.shape[1]}"
            )
        return Outcome(extents.shape[1], covered, (levels, chain, list(intents)))

    return Op("optimal_factorization", run, check)


def _many_small(package, rng_for, sizes: dict, rounds: int, work: Path) -> list[Op]:
    kinds = ("lukasiewicz", "godel")
    ops = []
    for r in range(rounds):
        for i in range(sizes["greedy"]):
            kind = kinds[i % 2]
            chain = Chain(5, kind)
            levels = gen.planted_product(rng_for(r, i), chain, sizes["rows"], sizes["cols"],
                                         sizes["rank"])
            ops.append(_greedy_op(package, package.Scale(5, kind), chain, levels))
        for i in range(sizes["optimal"]):
            kind = kinds[i % 2]
            rng = rng_for(r, 1000 + i)
            n, m = rng.integers(1, sizes["max_side"] + 1, size=2)
            levels = rng.integers(0, 3, size=(n, m))
            ops.append(_optimal_op(package, package.Scale(3, kind), Chain(3, kind), levels))
    return ops


def _ingest(package, rng_for, sizes: dict, rounds: int, work: Path) -> list[Op]:
    levels = sizes["levels"]
    chain = Chain(levels, "lukasiewicz")
    malformed = work / "malformed.csv"
    malformed.write_text(gen.MALFORMED_CSV, encoding="utf-8")
    ops = []
    for r in range(rounds):
        rng = rng_for(r, 0)
        grades = gen.planted_loadings(rng, chain, sizes["rows"], sizes["cols"], sizes["rank"])
        raw, ranges = work / f"raw-{r}.csv", work / f"ranges-{r}.csv"
        gen.raw_measurements(rng, grades, levels, raw, ranges)
        graded = work / f"graded-{r}.csv"

        def discretize_run(out: Path, raw=raw, ranges=ranges, graded=graded):
            return run_cli(package, ["discretize", "--input", str(raw), "--ranges", str(ranges),
                                     "--levels", str(levels), "--out", str(graded)])

        def discretize_check(result, out: Path, graded=graded, grades=grades) -> Outcome:
            _require_success(result)
            check_discretized(graded, levels, grades)
            return Outcome()

        def malformed_run(out: Path):
            return run_cli(package, ["factorize", "--input", str(malformed),
                                     "--levels", str(levels), "--out-dir", str(out)])

        def malformed_check(result, out: Path) -> Outcome:
            check_rejected(result[0], result[2], *gen.MALFORMED_CELL)
            return Outcome()

        ops += [
            Op("discretize", discretize_run, discretize_check),
            _factorize_op(package, "factorize-discretized", graded, chain, grades,
                          ["--levels", str(levels)], complete=True),
            Op("factorize-malformed", malformed_run, malformed_check, latency=False),
        ]
    return ops


MAKE_OPS = {
    "graded-sweep": _graded_sweep,
    "boolean-tall": _boolean_tall,
    "many-small": _many_small,
    "ingest": _ingest,
}


def rounds_for(name: str, seconds: float, sizes: dict) -> int:
    return max(1, round(seconds / sizes[name]["round_s"]))


def build(package, name: str, seed: int, seconds: float, work: Path,
          sizes: dict = FULL) -> list[Op]:
    """Every input of one run, written under `work`, and its ops in order."""

    def rng_for(round_index: int, item: int) -> np.random.Generator:
        return np.random.default_rng([seed, WORKLOAD_IDS[name], round_index, item])

    rounds = rounds_for(name, seconds, sizes)
    return MAKE_OPS[name](package, rng_for, sizes[name], rounds, work)
