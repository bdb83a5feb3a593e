"""Slow reference implementations the fast kernels are checked against.

Everything here is written with explicit Python loops, exact rationals,
or brute-force search, deliberately sharing no code with the numpy
kernels under test.  The one exception is `greedy_factors`, the original
one-candidate-at-a-time greedy: it closes each candidate with the plain
`down`/`up` operators, which have their own loop oracles above, and is the
reference the batched candidate sweep of `find_factors` must match.
`full_coverage_curve` builds one full rectangle per factor, where
`coverage_curve` raises a factor's support block alone when it can.
`closed_columns` is the plain bitset closure test, one AND over every
(extent, column, word) triple, that the two-grade sweep's probed test
must match.
The per-cell `read_csv`, `write_csv`, `read_raw_csv` and `discretize` at
the end are the original grade I/O, which parses, formats and rounds every
cell through Fractions; the memoized readers and writer and the
column-wide integer raw-table code must match them.  They read rows with
`read_located_rows`, the original row reader, which streams the file
through csv.reader, strips every cell and notes the file line each cell
starts on; the whole-file split of `gradefactor.data._read_rows` must
match its rows, `read_rows`.  `read_raw_csv` parses with
Fraction itself; the others share the cell helpers of `gradefactor.data`,
taken without the per-chain caches the fast code looks them up through,
except that `read_csv` reads its layout with `cell_kind`, which parses a
cell twice where `gradefactor.data._cell_kind` parses it once.
`fixed_point_column` is the original regex check of a fixed-point
column.  `raw_table` and `table_values` convert between a RawTable's integer
columns and rows of Fractions.  `read_fimi`, last, is the original
transaction reader, which reads line by line and sets the grid one item
at a time.
"""

from __future__ import annotations

import csv
import math
import re
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from gradefactor import FactorSet, FormalConcept, FuzzySet, GradedMatrix, Scale
from gradefactor.concepts import _down_levels, _up_levels
from gradefactor import data
from gradefactor.data import (
    ColumnRange,
    RawTable,
    _MAX_EXPONENT_DIGITS,
    _check_mode,
    _parse_grade_cell,
)
from gradefactor.matrix import LEVEL_DTYPE

# the grade cell parser, without the cache it is looked up through
parse_grade_cell = _parse_grade_cell.__wrapped__


def value_tnorm(scale: Scale, a: int, b: int) -> int:
    """The t-norm computed in value space with Fractions."""
    n = scale.max_level
    x, y = Fraction(a, n), Fraction(b, n)
    if scale.tnorm_kind == "lukasiewicz":
        v = max(Fraction(0), x + y - 1) * n
        assert v.denominator == 1
        return int(v)
    if scale.tnorm_kind == "godel":
        return min(a, b)
    # rounded goguen: nearest level to the true product, ties up
    return math.floor(x * y * n + Fraction(1, 2))


def brute_residuum(scale: Scale, a: int, b: int) -> int:
    """Largest c with tnorm(a, c) <= b, found by scanning the chain."""
    return max(c for c in range(scale.levels) if int(scale.tnorm(a, c)) <= b)


def loop_up(context: GradedMatrix, extent) -> list[int]:
    scale, entries = context.scale, context.entries
    return [
        min(int(scale.residuum(int(extent[i]), int(entries[i, j])))
            for i in range(context.n_rows))
        for j in range(context.n_cols)
    ]


def loop_down(context: GradedMatrix, intent) -> list[int]:
    scale, entries = context.scale, context.entries
    return [
        min(int(scale.residuum(int(intent[j]), int(entries[i, j])))
            for j in range(context.n_cols))
        for i in range(context.n_rows)
    ]


def loop_compose(a: GradedMatrix, b: GradedMatrix) -> list[list[int]]:
    """Triple-loop sup-t-norm product."""
    scale = a.scale
    return [
        [
            max(
                (int(scale.tnorm(int(a.entries[i, l]), int(b.entries[l, j])))
                 for l in range(a.n_cols)),
                default=0,
            )
            for j in range(b.n_cols)
        ]
        for i in range(a.n_rows)
    ]


def full_coverage_curve(factor_set: FactorSet, context: GradedMatrix) -> list[Fraction]:
    """`coverage_curve` from one full n x m rectangle per factor, each cell
    aggregated with `value_tnorm`: the fraction of cells each prefix
    superposition matches, after the same three checks in the same order,
    with the uncovered cells of every prefix counted one by one."""
    scale, a, b = context.scale, factor_set.a.entries, factor_set.b.entries
    cells = context.entries.tolist()
    n, m = len(cells), len(cells[0])
    grid = [[0] * m for _ in range(n)]
    prefixes = [grid]
    for l in range(factor_set.a.n_cols):
        rect = [[value_tnorm(scale, int(a[i, l]), int(b[l, j])) for j in range(m)]
                for i in range(n)]
        grid = [[max(g, r) for g, r in zip(grow, rrow)] for grow, rrow in zip(grid, rect)]
        prefixes.append(grid)
    if factor_set.uncovered_counts[-1] == 0 and grid != cells:
        raise ValueError("factors do not reproduce the input exactly")
    if any(g > c for grow, crow in zip(grid, cells) for g, c in zip(grow, crow)):
        raise ValueError("factors exceed the input")
    trace = tuple(
        sum(c != 0 and p != c for prow, crow in zip(prefix, cells) for p, c in zip(prow, crow))
        for prefix in prefixes
    )
    if trace != tuple(factor_set.uncovered_counts):
        raise ValueError("factors do not cover the cells their uncovered counts claim")
    return [
        Fraction(sum(p == c for prow, crow in zip(prefix, cells) for p, c in zip(prow, crow)),
                 n * m)
        for prefix in prefixes[1:]
    ]


def bool_compose(a: GradedMatrix, b: GradedMatrix) -> np.ndarray:
    """Ordinary Boolean matrix product."""
    return (a.entries.astype(bool) @ b.entries.astype(bool)).astype(int)


def sweep_concepts(context: GradedMatrix) -> set[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every concept as an (intent, extent) pair, found by closing every
    possible intent.  Exponential in the column count; tiny inputs only."""
    found = {}
    for intent in product(range(context.scale.levels), repeat=context.n_cols):
        extent = loop_down(context, intent)
        closed = tuple(loop_up(context, extent))
        if closed not in found:
            found[closed] = tuple(loop_down(context, closed))
    return {(intent, extent) for intent, extent in found.items()}


def min_cover_size(context: GradedMatrix, concepts) -> int:
    """Smallest number of concepts whose rectangles cover every nonzero
    cell, by trying all subsets in increasing size."""
    scale, entries = context.scale, context.entries
    cells = [
        (i, j)
        for i in range(context.n_rows)
        for j in range(context.n_cols)
        if entries[i, j]
    ]
    if not cells:
        return 0
    hit_sets = []
    for c in concepts:
        hits = frozenset(
            (i, j) for i, j in cells
            if int(scale.tnorm(int(c.extent.membership[i]), int(c.intent.membership[j])))
            == int(entries[i, j])
        )
        hit_sets.append(hits)
    universe = frozenset(cells)
    for k in range(1, len(concepts) + 1):
        for combo in combinations(hit_sets, k):
            if frozenset().union(*combo) == universe:
                return k
    raise AssertionError("the full concept set always covers the context")


def covered_count(scale: Scale, entries: np.ndarray, mask: np.ndarray,
                   extent: np.ndarray, intent: np.ndarray) -> int:
    rect = scale.tnorm(extent[:, None], intent[None, :])
    return int(np.count_nonzero(mask & (rect >= entries)))


def closed_columns(ext: np.ndarray, holes: np.ndarray) -> np.ndarray:
    """Which of m columns each of c packed extents closes, c x m: those
    whose holes, m x w row words, it misses in every word."""
    return ~(ext[:, None] & holes).any(-1)


def candidate_closure(scale: Scale, entries: np.ndarray, intent: np.ndarray,
                       j: int, a: int) -> tuple[np.ndarray, np.ndarray]:
    grown = intent.copy()
    if a > grown[j]:
        grown[j] = a
    extent = _down_levels(scale, entries, grown)
    closed = _up_levels(scale, entries, extent)
    return extent, closed


# Each tie-break policy as a sort key on (attribute index, grade level):
# among equal-gain candidates the one with the largest key wins, and equal
# keys go to the first candidate in (j, a) order.
TIE_BREAK_KEYS = {
    "grade-then-index": lambda j, a: (-a, -j),
    "index-then-grade": lambda j, a: (-j, -a),
}


def select_candidate(scale: Scale, entries: np.ndarray, mask: np.ndarray,
                      intent: np.ndarray, key, skip_dominated: bool):
    """Best (gain, j, a) over all candidate extensions, with closure arrays.

    Candidates with a <= intent[j] leave the intent unchanged, so their gain
    equals the current concept's own cover count; skipping them cannot alter
    which strictly-improving candidate wins.
    """
    top = scale.max_level
    best = None
    for j in range(entries.shape[1]):
        start = int(intent[j]) + 1 if skip_dominated else 1
        for a in range(start, top + 1):
            extent, closed = candidate_closure(scale, entries, intent, j, a)
            g = covered_count(scale, entries, mask, extent, closed)
            rank = (g, key(j, a))
            if best is None or rank > best[0]:
                best = (rank, j, a, extent, closed)
    if best is None:
        return None
    rank, j, a, extent, closed = best
    return rank[0], j, a, extent, closed


def greedy_factors(context: GradedMatrix, tie_break="grade-then-index", *,
                   max_factors: int | None = None,
                   skip_dominated: bool = True) -> FactorSet:
    """The greedy decomposition, one full closure per candidate.

    `skip_dominated=False` also evaluates the candidates that leave the
    intent unchanged; the factors must come out the same either way.
    """
    key = TIE_BREAK_KEYS[tie_break]
    scale, entries = context.scale, context.entries
    n_rows, n_cols = entries.shape
    mask = entries != 0
    uncovered = [int(mask.sum())]
    factors: list[FormalConcept] = []

    while mask.any():
        if max_factors is not None and len(factors) >= max_factors:
            break
        intent = np.zeros(n_cols, dtype=LEVEL_DTYPE)
        extent = _down_levels(scale, entries, intent)
        best_so_far = 0
        selected = select_candidate(scale, entries, mask, intent, key, skip_dominated)
        while selected is not None and selected[0] > best_so_far:
            best_so_far, _, _, extent, intent = selected
            selected = select_candidate(scale, entries, mask, intent, key, skip_dominated)
        concept = FormalConcept(FuzzySet(scale, extent), FuzzySet(scale, intent))
        factors.append(concept)
        rect = scale.tnorm(extent[:, None], intent[None, :])
        mask &= ~(rect >= entries)
        uncovered.append(int(mask.sum()))

    return FactorSet(
        GradedMatrix(scale, np.reshape([c.extent.membership for c in factors], (-1, n_rows)).T),
        GradedMatrix(scale, np.reshape([c.intent.membership for c in factors], (-1, n_cols))),
        tuple(uncovered),
    )


# ----------------------------------------------------------------------
# per-cell grade I/O
# ----------------------------------------------------------------------


def raw_table(row_labels, col_labels, rows) -> RawTable:
    """The RawTable of rationals given row by row: int64 over the least
    common multiple of its denominators where that fits, and each cell over
    its own denominator otherwise."""
    columns, dens = [], []
    for column in zip(*rows):
        column = [Fraction(v) for v in column]
        den = math.lcm(*(v.denominator for v in column))
        if den < 2**63:
            numerators = [int(v * den) for v in column]
            if all(-2**63 <= v < 2**63 for v in numerators):
                columns.append(np.array(numerators, dtype=np.int64))
                dens.append(den)
                continue
        columns.append(np.array([v.numerator for v in column], dtype=object))
        dens.append(np.array([v.denominator for v in column], dtype=object))
    return RawTable(tuple(row_labels), tuple(col_labels), tuple(columns), tuple(dens))


def table_values(table: RawTable) -> tuple[tuple[Fraction, ...], ...]:
    """The cells of a RawTable as rows of Fractions."""
    columns = []
    for column, den in zip(table.columns, table.denominators):
        dens = den if np.ndim(den) else [den] * len(column)
        columns.append([Fraction(int(v), int(d)) for v, d in zip(column, dens)])
    return tuple(zip(*columns))


def column_range(table: RawTable) -> ColumnRange:
    """Observed minimum and maximum per column, cell by cell; a constant
    column is named by its label."""
    cols = list(zip(*table_values(table)))
    for label, col in zip(table.col_labels, cols):
        if min(col) == max(col):
            raise ValueError(f"column {label!r} has an empty or constant range [{min(col)}, {max(col)}]")
    return ColumnRange(tuple(min(c) for c in cols), tuple(max(c) for c in cols))


def discretize(table: RawTable, ranges: ColumnRange, scale: Scale, *,
               mode: str = "strict") -> GradedMatrix:
    """Normalize each column to [0, 1] and snap to the nearest grade.

    Ties round half-up.  Strict mode rejects values outside the declared
    range; lenient mode clamps them to the endpoints.  The mapping is
    monotone within every column either way.
    """
    _check_mode(mode)
    n_cols = len(table.col_labels)
    if len(ranges.lows) != n_cols:
        raise ValueError(
            f"{len(ranges.lows)} column ranges for a table with {n_cols} columns"
        )
    n = scale.max_level
    half = Fraction(1, 2)
    rows = []
    for r, row in enumerate(table_values(table)):
        out = []
        for c, x in enumerate(row):
            lo, hi = ranges.lows[c], ranges.highs[c]
            ratio = (x - lo) / (hi - lo)
            if ratio < 0 or ratio > 1:
                if mode == "strict":
                    raise ValueError(
                        f"{table.row_labels[r]!r} has {x} in column "
                        f"{table.col_labels[c]!r}, outside [{lo}, {hi}]"
                    )
                ratio = min(max(ratio, Fraction(0)), Fraction(1))
            out.append(math.floor(ratio * n + half))
        rows.append(out)
    return GradedMatrix(scale, rows)


_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")

# the first line of a column, one cell per line, that is not a plain decimal
# with F places and at most 18 digits, for F = 0..18
NOT_FIXED_POINT = tuple(
    rf"(?m)^(?!{cell}$)"
    for cell in [r"[-+]?[0-9]{1,18}"]
    + [rf"[-+]?[0-9]{{0,{18 - places}}}\.[0-9]{{{places}}}" for places in range(1, 19)]
)


def fixed_point_column(cells: tuple[str, ...]) -> tuple[np.ndarray, int] | None:
    """The original one-pass column parser, which finds an off-pattern cell
    by a regex search of the joined column: the twin of
    `gradefactor.data._fixed_point_column`."""
    point = cells[0].find(".")
    places = 0 if point < 0 else len(cells[0]) - point - 1
    if places >= len(NOT_FIXED_POINT):
        return None
    text = "\n".join(cells)
    if text.count("\n") != len(cells) - 1 or re.search(NOT_FIXED_POINT[places], text):
        return None
    return np.array([int(cell.replace(".", "")) for cell in cells], dtype=np.int64), 10**places


def parse_fraction(text: str) -> Fraction:
    """A number cell through Fraction alone, refusing long exponents first."""
    match = _EXPONENT.search(text)
    if match and len(match[1].replace("_", "").lstrip("0")) > _MAX_EXPONENT_DIGITS:
        raise ValueError(f"exponent too large in {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot read {text!r} as a number") from None


def _is_fraction(text: str) -> bool:
    try:
        parse_fraction(text)
    except (ValueError, ZeroDivisionError):
        return False
    return True


def cell_kind(scale: Scale, text: str) -> str:
    """How layout detection reads a graded cell: "name" unless the lenient
    grade parser takes it, then "grade" for a level or a value in [0, 1]
    and "number" for any other value."""
    try:
        parse_grade_cell(scale.levels, text, False)
    except (ValueError, ZeroDivisionError):
        return "name"
    if text.startswith("L") or 0 <= parse_fraction(text) <= 1:
        return "grade"
    return "number"


def read_located_rows(path) -> tuple[list[list[str]], list[list[int]]]:
    """The rows of a CSV file through csv.reader, each cell stripped of
    surrounding whitespace and empty lines dropped; every row must be as
    wide as the first.  Beside them, the 1-based file line each cell
    starts on: its row's first line, plus the line breaks in the cells
    before it."""
    rows, lines = [], []
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        start = 1
        try:
            for row in reader:
                if row:
                    rows.append([cell.strip() for cell in row])
                    lines.append([start + sum(len(re.findall(r"\r\n|\r|\n", cell))
                                              for cell in row[:c]) for c in range(len(row))])
                start = reader.line_num + 1
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: empty file")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: row {i + 1} has {len(row)} cells, expected {width}")
    return rows, lines


def read_rows(path) -> list[list[str]]:
    """The rows of `read_located_rows` alone."""
    return read_located_rows(path)[0]


def read_raw_csv(path) -> RawTable:
    """Read a labeled table of rational measurements from CSV.

    Layout detection mirrors read_csv: a non-numeric cell in the first row
    marks it as a header, and a non-numeric first body cell marks the first
    column as labels; missing labels are synthesized from 1-based positions.
    """
    rows, lines = read_located_rows(path)
    has_header = not all(_is_fraction(c) for c in rows[0])
    body = rows[1:] if has_header else rows
    if not body:
        raise ValueError(f"{path}: no data rows")
    has_labels = not _is_fraction(body[0][0])

    col_labels = (rows[0][1:] if has_labels else rows[0]) if has_header else None
    row_labels = []
    values = []
    for r, row in enumerate(body):
        cells = row[1:] if has_labels else row
        if not cells:
            raise ValueError(f"{path}: no data columns")
        row_labels.append(row[0] if has_labels else str(r + 1))
        parsed = []
        for c, cell in enumerate(cells, has_labels):
            try:
                parsed.append(parse_fraction(cell))
            except ValueError as exc:
                line = lines[r + has_header][c]
                raise ValueError(f"{path}: bad number in row {r + 1}: {exc} (line {line})") from exc
        values.append(tuple(parsed))
    if col_labels is None:
        col_labels = [str(c) for c in range(1, len(values[0]) + 1)] if values else []
    return raw_table(row_labels, col_labels, values)


def read_csv(path, scale: Scale, *, mode: str = "strict") -> GradedMatrix:
    """Read a matrix of grades from CSV.

    Cells are decimals in [0, 1] or levels written ``L<k>``.  A header row
    and a label column are auto-detected and stripped: a cell of the first
    row that is neither a grade nor a number marks a header, and a first
    body cell that is neither marks the first column as labels, so a later
    one in that column is a bad cell.  A first row that holds grades
    outside the label column, and no number outside [0, 1], is data, so a
    bad cell in it is reported rather than taken for a header; numbers
    outside [0, 1] there are column names.  A file of line breaks alone
    holds a row of no cells per break.
    """
    _check_mode(mode)
    strict = mode == "strict"
    with open(path, newline="", encoding="utf-8-sig") as handle:
        text = handle.read()
    if text and not text.strip("\r\n"):
        rows = len(re.findall(r"\r\n|\r|\n", text))
        return GradedMatrix(scale, np.zeros((rows, 0), dtype=np.int64))
    rows, lines = read_located_rows(path)

    first = [cell_kind(scale, c) for c in rows[0]]
    has_header = "name" in first
    body = rows[1:] if has_header else rows
    has_labels = bool(body) and cell_kind(scale, body[0][0]) == "name"
    names = first[1 if has_labels else 0:]
    if has_header and "grade" in names and "number" not in names:
        # grades beside non-grade cells make a data row with a bad cell,
        # not a header: parse it and report that cell
        has_header, body = False, rows
    if not body:
        raise ValueError(f"{path}: no data rows")

    levels = []
    for r, row in enumerate(body):
        cells = row[1:] if has_labels else row
        if not cells:
            raise ValueError(f"{path}: no data columns")
        parsed = []
        for c, cell in enumerate(cells, has_labels):
            try:
                parsed.append(parse_grade_cell(scale.levels, cell, strict))
            except ValueError as exc:
                line = lines[r + has_header][c]
                raise ValueError(f"{path}: bad grade at row {r + 1}, column {c - has_labels + 1}: "
                                 f"{exc} (line {line})") from exc
        levels.append(parsed)
    return GradedMatrix(scale, levels)


def write_csv(matrix: GradedMatrix, path) -> None:
    """Write a grade matrix as plain CSV, one canonical cell per grade."""
    scale = matrix.scale
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        for row in matrix.entries:
            writer.writerow([scale.format_level(v) for v in row])


def read_fimi(path, num_items: int | None = None) -> GradedMatrix:
    """Read a transaction file onto the two-grade chain, one item at a time."""
    if num_items is not None and num_items < 1:
        raise ValueError(f"num_items must be positive, got {num_items}")
    transactions: list[list[int]] = []
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, start=1):
            items = []
            for token in line.split():
                try:
                    item = int(token)
                except ValueError:
                    raise ValueError(f"{path}: bad item id {token!r} on line {lineno}") from None
                if item < 0:
                    raise ValueError(f"{path}: negative item id {item} on line {lineno}")
                if num_items is not None and item >= num_items:
                    raise ValueError(
                        f"{path}: item id {item} on line {lineno} exceeds num_items={num_items}"
                    )
                items.append(item)
            transactions.append(items)
    if not transactions:
        raise ValueError(f"{path}: empty file")
    if num_items is None:
        distinct = sorted({i for t in transactions for i in t})
        if not distinct:
            raise ValueError(f"{path}: no items in any transaction")
        column = {item: c for c, item in enumerate(distinct)}
        width = len(distinct)
    else:
        column = None
        width = num_items
    if len(transactions) * width > data.MAX_FIMI_CELLS:
        raise ValueError(
            f"{path}: cannot allocate a grid of {len(transactions)} rows x "
            f"num_items={width} columns"
        )
    grid = np.zeros((len(transactions), width), dtype=LEVEL_DTYPE)
    for r, items in enumerate(transactions):
        for item in items:
            grid[r, item if column is None else column[item]] = 1
    return GradedMatrix(Scale.boolean(), grid)
