"""Independent checks of the program's outputs.

Nothing here imports the program.  Grades are integer levels 0..n on a
chain with n + 1 grades.  The t-norms are written out from their
definitions, and the residuum is found by brute force as the largest c
with tnorm(a, c) <= b, so a fault in the program's closed forms cannot
hide behind the same fault here.  Output files are parsed with this
module's own reader.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    """An output of the program is wrong."""


class OpFailed(Exception):
    """The program reported failure, or did not reject an input it must reject."""


class Chain:
    """The grades 0..n with one t-norm, as lookup tables."""

    def __init__(self, levels: int, kind: str) -> None:
        n = levels - 1
        a = np.arange(levels)[:, None]
        b = np.arange(levels)[None, :]
        if kind == "lukasiewicz":
            table = np.maximum(a + b - n, 0)
        elif kind == "godel":
            table = np.minimum(a, b)
        elif kind == "goguen":
            # the product a/n * b/n, rounded half-up to the nearest level
            table = (2 * a * b + n) // (2 * n)
        else:
            raise ValueError(f"unknown t-norm {kind!r}")
        self.levels = levels
        self.kind = kind
        self.tnorm = table
        grades = np.arange(levels)
        fits = table[:, None, :] <= grades[None, :, None]  # fits[a, b, c]
        self.residuum = np.where(fits, grades[None, None, :], -1).max(axis=2)

    def compose(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Sup-t-norm product; a Boolean matrix product on two grades."""
        if self.levels == 2:
            return (left.astype(np.int64) @ right.astype(np.int64) > 0).astype(np.int64)
        out = np.zeros((left.shape[0], right.shape[1]), dtype=np.int64)
        for l in range(left.shape[1]):
            np.maximum(out, self.tnorm[left[:, l][:, None], right[l, :][None, :]], out=out)
        return out

    def up(self, context: np.ndarray, extent: np.ndarray) -> np.ndarray:
        return self.residuum[extent[:, None], context].min(axis=0)

    def down(self, context: np.ndarray, intent: np.ndarray) -> np.ndarray:
        return self.residuum[intent[None, :], context].min(axis=1)


def parse_grade(text: str, levels: int) -> int:
    """A CSV cell, written as a decimal in [0, 1] or as a level L<k>."""
    n = levels - 1
    if text.startswith("L"):
        level = int(text[1:])
    else:
        scaled = Fraction(text) * n
        if scaled.denominator != 1:
            raise CheckFailed(f"cell {text!r} is not a grade of a {levels}-level chain")
        level = int(scaled)
    if not 0 <= level <= n:
        raise CheckFailed(f"cell {text!r} lies outside the chain")
    return level


def read_grades(path: Path, levels: int, n_cols: int | None = None) -> np.ndarray:
    """A headerless grade CSV as a level array; `n_cols` fixes the width of
    a file whose rows may be empty (a factor matrix with no columns)."""
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    rows = [[parse_grade(cell, levels) for cell in line.split(",")] if line else []
            for line in lines]
    width = len(rows[0]) if rows and n_cols is None else (n_cols or 0)
    if any(len(row) != width for row in rows):
        raise CheckFailed(f"{path.name}: ragged rows")
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


def check_concepts(chain: Chain, context: np.ndarray, extents: np.ndarray,
                   intents: np.ndarray) -> None:
    """Every (extent column, intent row) pair must be a formal concept."""
    for l in range(extents.shape[1]):
        extent, intent = extents[:, l], intents[l, :]
        if not np.array_equal(chain.up(context, extent), intent):
            raise CheckFailed(f"factor {l + 1}: intent is not up(extent)")
        if not np.array_equal(chain.down(context, intent), extent):
            raise CheckFailed(f"factor {l + 1}: extent is not down(intent)")


def check_factors(chain: Chain, context: np.ndarray, extents: np.ndarray,
                  intents: np.ndarray, *, complete: bool) -> int:
    """Check a factor list against its input; returns the nonzero input cells
    the factors reproduce exactly.

    A complete list must compose to the input; a truncated one must stay
    entrywise below it.  Every factor must be a formal concept.
    """
    if extents.shape != (context.shape[0], intents.shape[0]) or intents.shape[1] != context.shape[1]:
        raise CheckFailed(
            f"factor matrices {extents.shape} and {intents.shape} do not fit a {context.shape} input"
        )
    product = chain.compose(extents, intents)
    if complete and not np.array_equal(product, context):
        raise CheckFailed("factors do not reproduce the input exactly")
    if not complete and not np.all(product <= context):
        raise CheckFailed("truncated factors exceed the input")
    check_concepts(chain, context, extents, intents)
    return int(np.count_nonzero((context != 0) & (product == context)))


def coverage_lines(chain: Chain, context: np.ndarray, extents: np.ndarray,
                   intents: np.ndarray) -> list[str]:
    """The coverage.tsv body, counted here: after each factor, the share of
    all cells the prefix reproduces and the share of nonzero cells it covers."""
    nonzero = context != 0
    total_nonzero = int(np.count_nonzero(nonzero))
    acc = np.zeros_like(context)
    lines = []
    for l in range(extents.shape[1]):
        np.maximum(acc, chain.tnorm[extents[:, l][:, None], intents[l, :][None, :]], out=acc)
        equal = acc == context
        share_equal = int(np.count_nonzero(equal)) / context.size
        share_nonzero = (int(np.count_nonzero(equal & nonzero)) / total_nonzero
                         if total_nonzero else 1.0)
        lines.append(f"{l + 1}\t{share_equal:.6f}\t{share_nonzero:.6f}")
    return lines


def check_cli_factorization(out_dir: Path, chain: Chain, context: np.ndarray, *,
                            complete: bool) -> tuple[int, int, np.ndarray]:
    """Check A.csv, B.csv, factors.json and coverage.tsv of one factorize run.

    Returns the factor count, the nonzero cells covered, and the intents.
    """
    factors_json = json.loads((out_dir / "factors.json").read_text(encoding="utf-8"))
    k = factors_json["factor_count"]
    extents = read_grades(out_dir / "A.csv", chain.levels, n_cols=k)
    intents = read_grades(out_dir / "B.csv", chain.levels)
    if intents.shape[0] != k:
        raise CheckFailed(f"B.csv has {intents.shape[0]} rows for {k} factors")
    covered = check_factors(chain, context, extents, intents, complete=complete)
    if factors_json["complete"] is not complete:
        raise CheckFailed(f"factors.json says complete={factors_json['complete']}")
    if factors_json["shape"] != list(context.shape):
        raise CheckFailed(f"factors.json shape {factors_json['shape']} != {list(context.shape)}")
    listed = factors_json["factors"]
    if (len(listed) != k
            or any(f["extent"] != extents[:, l].tolist() or f["intent"] != intents[l, :].tolist()
                   for l, f in enumerate(listed))):
        raise CheckFailed("factors.json disagrees with A.csv and B.csv")
    tsv = (out_dir / "coverage.tsv").read_text(encoding="utf-8").splitlines()
    expected = ["factor\tequal_fraction\tcovered_nonzero"]
    expected += coverage_lines(chain, context, extents, intents)
    if tsv != expected:
        raise CheckFailed("coverage.tsv disagrees with an independent count")
    return k, covered, intents


def check_discretized(path: Path, levels: int, planted: np.ndarray) -> None:
    """A discretized table must equal the planted grades cell for cell."""
    got = read_grades(path, levels)
    if got.shape != planted.shape:
        raise CheckFailed(f"discretized shape {got.shape} != planted {planted.shape}")
    wrong = np.argwhere(got != planted)
    if len(wrong):
        i, j = wrong[0]
        raise CheckFailed(
            f"{len(wrong)} discretized cells differ, first at row {i + 1}, column {j + 1}: "
            f"{got[i, j]} instead of {planted[i, j]}"
        )


def check_rejected(code: int, stderr: str, cell_text: str, row: int, column: int) -> None:
    """A malformed input must end with exit code 1 and a message naming the
    bad cell, by its text or by its row and column."""
    names_cell = cell_text in stderr or (f"row {row}" in stderr and f"column {column}" in stderr)
    if code != 1 or not names_cell:
        raise OpFailed(
            f"malformed input not rejected: exit code {code}, stderr {stderr.strip()!r}"
        )
