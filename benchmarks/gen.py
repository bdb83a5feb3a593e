"""Seeded inputs for the benchmark, made without the program.

Every generator takes a numpy Generator derived from (seed, workload,
round, item), so one seed always yields the same files and matrices.
Planted products are composed with the checker's own t-norm tables.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from checker import Chain

# The malformed op's input does not depend on the seed: the first data row
# mixes a valid grade with a cell that is no grade at all.
MALFORMED_CSV = "0.5,nan\n1,0\n"
MALFORMED_CELL = ("nan", 1, 2)  # text, 1-based row, 1-based column


def planted_product(rng: np.random.Generator, chain: Chain, rows: int, cols: int,
                    rank: int) -> np.ndarray:
    """The sup-t-norm product of two uniformly random factor matrices."""
    left = rng.integers(0, chain.levels, size=(rows, rank))
    right = rng.integers(0, chain.levels, size=(rank, cols))
    return chain.compose(left, right)


def planted_loadings(rng: np.random.Generator, chain: Chain, rows: int, cols: int,
                     rank: int) -> np.ndarray:
    """A product in which column j loads on factor j mod rank alone, as when
    each measured attribute reflects one latent factor.  The loadings
    alternate between the top grade and the one below it from one block of
    `rank` columns to the next; only the factor levels are random.  Unlike
    a product of two random matrices, whose greedy factor count and nonzero
    count vary from seed to seed, this one keeps both steady."""
    n = chain.levels - 1
    left = rng.integers(0, chain.levels, size=(rows, rank))
    right = np.zeros((rank, cols), dtype=np.int64)
    columns = np.arange(cols)
    right[columns % rank, columns] = n - (columns // rank) % 2
    return chain.compose(left, right)


def grade_text(level: int, levels: int) -> str:
    """A grade as the shortest decimal that round-trips (5 and 11 levels)."""
    value = level / (levels - 1)
    return "1" if value == 1 else "0" if value == 0 else repr(value)


def write_grades(path: Path, grades: np.ndarray, levels: int) -> None:
    texts = [grade_text(v, levels) for v in range(levels)]
    path.write_text("".join(",".join(texts[v] for v in row) + "\n" for row in grades.tolist()),
                    encoding="utf-8")


def transactions(rng: np.random.Generator, rows: int, items: int, density: float) -> np.ndarray:
    """A random 0/1 matrix in which every item occurs at least once, so the
    program's compaction of unused item ids leaves every column in place."""
    grid = (rng.random((rows, items)) < density).astype(np.int64)
    for j in np.flatnonzero(grid.sum(axis=0) == 0):
        grid[rng.integers(rows), j] = 1
    return grid


def write_fimi(path: Path, grid: np.ndarray) -> None:
    """One line per row, listing the 1-based ids of its items."""
    path.write_text(
        "".join(" ".join(str(j + 1) for j in np.flatnonzero(row)) + "\n" for row in grid),
        encoding="utf-8",
    )


def _hundredths(value: int) -> str:
    sign = "-" if value < 0 else ""
    whole, frac = divmod(abs(value), 100)
    return f"{sign}{whole}.{frac:02d}"


def raw_measurements(rng: np.random.Generator, grades: np.ndarray, levels: int,
                     raw_path: Path, ranges_path: Path) -> None:
    """A labeled table of measurements that discretizes to `grades` exactly.

    Column c has the declared range [low_c, low_c + n * step_c].  A cell of
    grade g holds low_c + g * step_c plus an offset strictly inside half a
    step, written in hundredths, so normalizing and rounding half-up gives
    back g with no tie and no value outside the range.
    """
    n = levels - 1
    rows, cols = grades.shape
    steps = rng.integers(20, 400, size=cols)
    lows = rng.integers(-500, 500, size=cols)
    reach = 50 * steps - 1  # largest offset in hundredths, below half a step
    offsets = rng.integers(-reach, reach + 1, size=(rows, cols))
    offsets = np.where(grades == 0, np.abs(offsets), offsets)
    offsets = np.where(grades == n, -np.abs(offsets), offsets)
    values = 100 * (lows + grades * steps) + offsets
    names = [f"m{j}" for j in range(cols)]
    lines = ["id," + ",".join(names)]
    lines += [f"s{i:05d}," + ",".join(_hundredths(v) for v in row)
              for i, row in enumerate(values.tolist())]
    raw_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ranges_path.write_text(
        "bound," + ",".join(names) + "\n"
        + "low," + ",".join(str(v) for v in lows.tolist()) + "\n"
        + "high," + ",".join(str(v) for v in (lows + n * steps).tolist()) + "\n",
        encoding="utf-8",
    )
