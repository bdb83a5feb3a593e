"""Reading, writing, discretizing, and generating graded matrices.

CSV cells carry either decimals in [0, 1] or explicit levels written as
``L<k>``; transaction files use the whitespace-separated item-id format
common for frequent-itemset benchmarks and always land on the two-grade
chain.  Raw tables of measurements hold each column as exact integer
numerators, over one common denominator when the column fits int64, until
they are discretized onto a scale.  A raw table is parsed a column at a
time: a fixed-point column (one number of decimals F in every cell, at
most 18 digits) in one pass, as int64 numerators over 10**F; every other
column cell by cell, which would give a fixed-point column the same result.
"""

from __future__ import annotations

import csv
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from .matrix import LEVEL_DTYPE, GradedMatrix, compose
from .scale import Scale

MODES = ("strict", "lenient")

# int64 holds exactly the integers in [-_INT64_LIMIT, _INT64_LIMIT)
_INT64_LIMIT = 2**63


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of: {', '.join(MODES)}")


@dataclass(frozen=True, eq=False)
class RawTable:
    """A labeled rectangular table of exact rational measurements.

    Each column is a numpy array of integer numerators.  An int64 column
    is over one positive common denominator, an int; a dtype=object column
    of Python ints is over one positive denominator per cell, a dtype=object
    array of the same shape.  Either way ``columns[c] / denominators[c]``
    broadcasts to the cells, and `cell` gives one of them exactly.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    columns: tuple[np.ndarray, ...]
    denominators: tuple[int | np.ndarray, ...]

    def __post_init__(self) -> None:
        if not self.row_labels or not self.col_labels:
            raise ValueError("a raw table needs at least one row and one column")
        if len(self.columns) != len(self.col_labels) or len(self.denominators) != len(self.col_labels):
            raise ValueError("one column of numerators and one denominator per column label required")
        for column, den in zip(self.columns, self.denominators):
            if column.shape != (len(self.row_labels),):
                raise ValueError("every column needs one numerator per row label")
            if column.dtype not in (np.int64, object):
                raise ValueError(f"column numerators must be int64 or object, got {column.dtype}")
            if np.shape(den) != (() if column.dtype == np.int64 else column.shape):
                raise ValueError(
                    "an int64 column takes one denominator, an object column one per cell"
                )
            if np.any(den < 1):
                raise ValueError("column denominators must be positive")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_labels), len(self.col_labels))

    def cell(self, r: int, c: int) -> Fraction:
        """The exact value of cell (r, c)."""
        den = self.denominators[c]
        return Fraction(int(self.columns[c][r]), int(den if np.ndim(den) == 0 else den[r]))


@dataclass(frozen=True)
class ColumnRange:
    """Per-column scaling bounds used to normalize a raw table."""

    lows: tuple[Fraction, ...]
    highs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.lows) != len(self.highs):
            raise ValueError("one low and one high per column required")
        if not self.lows:
            raise ValueError("a column range needs at least one column")
        for c, (lo, hi) in enumerate(zip(self.lows, self.highs)):
            if lo >= hi:
                raise ValueError(
                    f"column {c} has an empty or constant range [{lo}, {hi}]"
                )

    @classmethod
    def from_table(cls, table: RawTable) -> "ColumnRange":
        """Observed minimum and maximum per column."""
        lows, highs = [], []
        for p, q in zip(table.columns, table.denominators):
            if p.dtype == object:  # one denominator per cell
                values = list(map(Fraction, p, q))
                lows.append(min(values))
                highs.append(max(values))
            else:
                lows.append(Fraction(int(p.min()), q))
                highs.append(Fraction(int(p.max()), q))
        return cls(tuple(lows), tuple(highs))


def discretize(table: RawTable, ranges: ColumnRange, scale: Scale, *,
               mode: str = "strict") -> GradedMatrix:
    """Normalize each column to [0, 1] and snap to the nearest grade.

    Ties round half-up.  Strict mode rejects values outside the declared
    range, naming the first in row-major order; lenient mode clamps them to
    the endpoints.  The mapping is monotone within every column either way.
    """
    _check_mode(mode)
    n_cols = len(table.col_labels)
    if len(ranges.lows) != n_cols:
        raise ValueError(
            f"{len(ranges.lows)} column ranges for a table with {n_cols} columns"
        )
    two_n = 2 * scale.max_level
    levels = np.empty(table.shape, dtype=LEVEL_DTYPE)
    first_bad = None
    for c, (p, q) in enumerate(zip(table.columns, table.denominators)):
        # with lo = a/b and hi - lo = e/f, a cell x = p/q sits at the ratio
        # (x - lo) / (hi - lo) = num/den, num = p(bf) - aqf and den = eqb > 0,
        # so range checks and half-up rounding need integers only; with one
        # q per cell (object columns) aqf and den are per cell too
        lo, width = ranges.lows[c], ranges.highs[c] - ranges.lows[c]
        a, b = lo.numerator, lo.denominator
        e, f = width.numerator, width.denominator
        bf, aqf, den = b * f, a * q * f, e * q * b
        if p.dtype == np.int64:
            # reach >= |p·bf - aqf| and bf, and (2n + 1)·den, bound every
            # intermediate; past int64 the column is done in Python ints
            reach = max(-int(p.min()), int(p.max()), 1) * bf + abs(aqf)
            if reach >= _INT64_LIMIT or (two_n + 1) * den >= _INT64_LIMIT:
                p = p.astype(object)
        num = p * bf - aqf
        bad = (num < 0) | (num > den)
        if bad.any():
            r = int(np.argmax(bad))
            if first_bad is None or r < first_bad[0]:
                first_bad = (r, c)
            num = np.minimum(np.maximum(num, 0), den)
        levels[:, c] = (two_n * num + den) // (2 * den)
    if first_bad is not None and mode == "strict":
        r, c = first_bad
        raise ValueError(
            f"{table.row_labels[r]!r} has {table.cell(r, c)} in column "
            f"{table.col_labels[c]!r}, outside "
            f"[{ranges.lows[c]}, {ranges.highs[c]}]"
        )
    return GradedMatrix(scale, levels)


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------


class _Memo(dict):
    """`fn(key)` for each distinct key, computed on its first lookup.  A
    call that raises caches nothing, so the same key raises again."""

    def __init__(self, fn) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


@contextmanager
def _naming_decode_errors(path):
    """Turn a file's UnicodeDecodeError, raised by the reads in the block,
    into a one-line ValueError that names the file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _read_rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle, _naming_decode_errors(path):
        reader = csv.reader(handle)
        try:
            rows = [row for row in reader]
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    rows = [list(map(str.strip, row)) for row in rows if row]
    if not rows:
        raise ValueError(f"{path}: empty file")
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: row {i + 1} has {len(row)} cells, expected {width}")
    return rows


# Fraction expands a decimal exponent into an integer of that many digits,
# so a cell such as "1e10000000" alone would take seconds to parse.  No grade
# or measurement needs an exponent of five digits or more.
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")
_MAX_EXPONENT_DIGITS = 4

# a plain ASCII decimal: sign, digits with at most one point and at least
# one digit, optional exponent; a subset of what Fraction(text) accepts
_DECIMAL = re.compile(r"([-+]?(?=\.?[0-9])[0-9]*)\.?([0-9]*)(?:[eE]([-+]?[0-9]+))?")

# the first line of a column, one cell per line, that is not a plain decimal
# with F places and at most 18 digits, for F = 0..18: these decimals are a
# strict subset of _DECIMAL, and over 10**F every one fits int64.  A search
# keeps no state per line, where a fullmatch of the repeated cell would.
# The patterns are compiled on first use, into the re module's cache.
_NOT_FIXED_POINT = tuple(
    rf"(?m)^(?!{cell}$)"
    for cell in [r"[-+]?[0-9]{1,18}"]
    + [rf"[-+]?[0-9]{{0,{18 - places}}}\.[0-9]{{{places}}}" for places in range(1, 19)]
)


def _exponent_too_large(digits: str) -> bool:
    return len(digits.replace("_", "").lstrip("0")) > _MAX_EXPONENT_DIGITS


def _parse_number(text: str) -> tuple[int, int]:
    """The exact value of a number cell as ``(numerator, denominator)``.

    The denominator is positive.  A plain decimal gives its digits over a
    power of ten, unreduced, without building a Fraction.  Every other form
    Fraction(text) accepts (``3/4``, underscores, non-ASCII digits,
    surrounding whitespace, digit strings past int's conversion limit)
    gives that Fraction's parts; what it rejects raises its ValueError or
    ZeroDivisionError.  Exponents past _MAX_EXPONENT_DIGITS digits are
    refused before any arithmetic.
    """
    match = _DECIMAL.fullmatch(text)
    if match is None:
        exponent = _EXPONENT.search(text)
        if exponent and _exponent_too_large(exponent[1]):
            raise ValueError(f"exponent too large in {text!r}")
        return Fraction(text).as_integer_ratio()
    whole, frac, exponent = match.groups()  # `whole` carries the sign
    if exponent is not None and _exponent_too_large(exponent.lstrip("+-")):
        raise ValueError(f"exponent too large in {text!r}")
    try:
        significand = int(whole + frac)
    except ValueError:  # past int's digit limit, which Fraction applies per part
        return Fraction(text).as_integer_ratio()
    shift = (int(exponent) if exponent else 0) - len(frac)
    if shift >= 0:
        return significand * 10**shift, 1
    return significand, 10**-shift


def _parse_fraction(text: str) -> Fraction:
    return Fraction(*_parse_number(text))


def _parse_grade_cell(scale: Scale, text: str, *, strict: bool) -> int:
    if text.startswith("L"):
        body = text[1:]
        if not body.isdigit():
            raise ValueError(f"bad level syntax {text!r}")
        return scale.check_level(int(body))
    return scale.level_from_value(_parse_fraction(text), strict=strict)


def _cell_kind(scale: Scale, text: str) -> str:
    """How layout detection reads a cell: "grade" for a level of the chain
    or a number in [0, 1], "number" for any other number (a column named
    2019, say), "name" for what no mode can parse as a grade."""
    try:
        _parse_grade_cell(scale, text, strict=False)
    except (ValueError, ZeroDivisionError):
        return "name"
    if text.startswith("L") or 0 <= _parse_fraction(text) <= 1:
        return "grade"
    return "number"


def read_csv(path, scale: Scale, *, mode: str = "strict",
             labeled: bool | None = None) -> GradedMatrix:
    """Read a matrix of grades from CSV.

    Cells are decimals in [0, 1] or levels written ``L<k>``.  With
    ``labeled=None`` a header row and a label column are auto-detected (any
    cell that fails to parse as a grade marks its row or column as labels)
    and stripped; pass True or False to force the layout.  A first row that
    holds grades outside the label column, and no number outside [0, 1],
    is data, so a bad cell in it is reported rather than taken for a
    header; numbers outside [0, 1] there are column names.
    """
    _check_mode(mode)
    strict = mode == "strict"
    rows = _read_rows(path)

    if labeled is None:
        kind = _Memo(lambda text: _cell_kind(scale, text))
        first = [kind[c] for c in rows[0]]
        has_header = "name" in first
        body = rows[1:] if has_header else rows
        has_labels = any(kind[r[0]] == "name" for r in body)
        names = first[1 if has_labels else 0:]
        if has_header and "grade" in names and "number" not in names:
            # grades beside non-grade cells make a data row with a bad cell,
            # not a header: parse it and report that cell
            has_header, body = False, rows
    else:
        has_header = has_labels = labeled
        body = rows[1:] if has_header else rows
    if not body:
        raise ValueError(f"{path}: no data rows")

    # each distinct cell text is parsed once; a bad one is never cached, so
    # the first bad cell in row-major order is the one reported
    level = _Memo(lambda text: _parse_grade_cell(scale, text, strict=strict))
    levels = []
    for r, row in enumerate(body):
        cells = row[1:] if has_labels else row
        if not cells:
            raise ValueError(f"{path}: no data columns")
        try:
            levels.append(list(map(level.__getitem__, cells)))
        except (ValueError, ZeroDivisionError) as exc:
            c = next(c for c, cell in enumerate(cells) if cell not in level)
            raise ValueError(f"{path}: bad grade at row {r + 1}, column {c + 1}: {exc}") from exc
    return GradedMatrix(scale, levels)


def write_csv(matrix: GradedMatrix, path) -> None:
    """Write a grade matrix as plain CSV, one canonical cell per grade.

    Each distinct level is formatted once.  Cells hold only digits, ``.``
    and ``L``, so no field ever needs quoting.
    """
    text = _Memo(matrix.scale.format_level)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        for row in matrix.entries:
            handle.write(",".join(map(text.__getitem__, row.tolist())) + "\n")


def _raw_column(cells: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, int | np.ndarray]:
    """A column of parsed ``(numerator, denominator)`` cells for RawTable.

    When the least common multiple of the denominators, and every numerator
    over it, fit int64, the column is int64 over that one denominator.
    Otherwise each cell keeps its own numerator and denominator in dtype=object
    arrays, so one unusual cell (``1e-9999``, or one more prime denominator)
    cannot widen every other cell of its column.
    """
    numerators, denominators = zip(*cells)
    den = 1
    for d in set(denominators):
        den = math.lcm(den, d)
        if den >= _INT64_LIMIT:
            break
    else:
        scaled = [n * (den // d) for n, d in cells]
        if -_INT64_LIMIT <= min(scaled) and max(scaled) < _INT64_LIMIT:
            return np.array(scaled, dtype=np.int64), den
    return np.array(numerators, dtype=object), np.array(denominators, dtype=object)


def _fixed_point_column(cells: tuple[str, ...]) -> tuple[np.ndarray, int] | None:
    """A column of fixed-point cells parsed in one pass, or None.

    Every cell must have the first cell's number of decimals F and at most
    18 digits: an optional sign, then digits with no point when F = 0, or
    digits and a point before exactly F digits.  Then every numerator over
    10**F fits int64, and the result is what `_raw_column` builds from
    `_parse_number`'s cells, which are over that same power of ten.
    """
    point = cells[0].find(".")
    places = 0 if point < 0 else len(cells[0]) - point - 1
    if places >= len(_NOT_FIXED_POINT):
        return None
    text = "\n".join(cells)
    # a quoted cell may hold a line break, which would split it in two
    if text.count("\n") != len(cells) - 1 or re.search(_NOT_FIXED_POINT[places], text):
        return None
    # the pattern admits only what fromstring parses, and no value past int64
    return np.fromstring(text.replace(".", ""), dtype=np.int64, sep="\n"), 10**places


def read_raw_csv(path, *, labeled: bool | None = None) -> RawTable:
    """Read a labeled table of rational measurements from CSV.

    Layout detection mirrors read_csv: non-numeric cells in the first row
    or column mark them as labels; missing labels are synthesized from
    positions.  A bad cell is reported by the first row that holds one.
    """
    rows = _read_rows(path)

    def is_number(text: str) -> bool:
        try:
            _parse_number(text)
        except (ValueError, ZeroDivisionError):
            return False
        return True

    if labeled is None:
        has_header = not all(map(is_number, rows[0]))
        body = rows[1:] if has_header else rows
        has_labels = not all(is_number(r[0]) for r in body)
    else:
        has_header = has_labels = labeled
        body = rows[1:] if has_header else rows
    if not body:
        raise ValueError(f"{path}: no data rows")

    texts = list(zip(*body))  # one tuple of cell texts per column
    row_labels = texts.pop(0) if has_labels else tuple(map(str, range(len(body))))
    if not texts:
        raise ValueError(f"{path}: no data columns")
    if has_header:
        col_labels = rows[0][1:] if has_labels else rows[0]
    else:
        col_labels = map(str, range(len(texts)))
    try:
        columns = [_fixed_point_column(cells) or _raw_column(tuple(map(_parse_number, cells)))
                   for cells in texts]
    except (ValueError, ZeroDivisionError):
        for r, row in enumerate(body):  # name the first bad cell in row-major order
            try:
                list(map(_parse_number, row[1:] if has_labels else row))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"{path}: bad number in row {r + 1}: {exc}") from exc
        raise
    return RawTable(
        row_labels,
        tuple(col_labels),
        tuple(column for column, _ in columns),
        tuple(den for _, den in columns),
    )


def read_ranges_csv(path) -> ColumnRange:
    """Read per-column low and high bounds: a two-row table, lows first."""
    table = read_raw_csv(path)
    if table.shape[0] != 2:
        raise ValueError(f"{path}: expected exactly two rows (lows, highs), got {table.shape[0]}")
    columns = range(table.shape[1])
    return ColumnRange(tuple(table.cell(0, c) for c in columns),
                       tuple(table.cell(1, c) for c in columns))


# ----------------------------------------------------------------------
# transaction (itemset) files
# ----------------------------------------------------------------------


# A transaction file becomes a dense grid of int64 levels, rows x items; past
# this many cells (800 MB) it is refused before anything is allocated.
MAX_FIMI_CELLS = 10**8


def read_fimi(path, num_items: int | None = None, *,
              scale: Scale | None = None) -> GradedMatrix:
    """Read a transaction file onto the two-grade chain.

    Each line lists the item ids of one transaction, whitespace separated;
    an empty line is an empty transaction.  With `num_items` given, ids
    index columns directly and must stay below it.  Without it, the
    distinct ids that occur are mapped onto columns in sorted order, so
    datasets whose ids start at 1 do not drag along an unused column.
    A grid of more than MAX_FIMI_CELLS cells is refused.
    """
    if scale is None:
        scale = Scale.boolean()
    elif scale.levels != 2:
        raise ValueError(f"transaction data is Boolean, got a {scale.levels}-level scale")
    if num_items is not None and num_items < 1:
        raise ValueError(f"num_items must be positive, got {num_items}")
    transactions: list[list[int]] = []
    with open(path, encoding="utf-8") as handle, _naming_decode_errors(path):
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

    too_large = (
        f"{path}: cannot allocate a grid of {len(transactions)} rows x "
        f"num_items={width} columns"
    )
    if len(transactions) * width > MAX_FIMI_CELLS:
        raise ValueError(too_large)
    try:
        grid = np.zeros((len(transactions), width), dtype=LEVEL_DTYPE)
    except MemoryError:
        raise ValueError(too_large) from None
    # one store from flat index arrays, freed before GradedMatrix copies the grid
    lengths = [len(items) for items in transactions]
    items = chain.from_iterable(transactions)
    grid[np.repeat(np.arange(len(transactions)), lengths),
         np.fromiter(items if column is None else map(column.__getitem__, items),
                     dtype=np.intp, count=sum(lengths))] = 1
    return GradedMatrix(scale, grid)


# ----------------------------------------------------------------------
# random instances
# ----------------------------------------------------------------------


def random_factorizable(n_rows: int, n_cols: int, k: int, scale: Scale,
                        grade_distribution=None, seed=0) -> GradedMatrix:
    """Compose two i.i.d. random factor matrices into an n x m product.

    The result decomposes into at most k concept factors by construction.
    `grade_distribution` weights the levels 0..n uniformly when omitted;
    `seed` may be an int, a seed sequence, or a numpy Generator.
    """
    if n_rows < 1 or n_cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got {n_rows}x{n_cols}")
    if k < 1:
        raise ValueError(f"inner dimension must be positive, got {k}")
    if grade_distribution is None:
        p = np.full(scale.levels, 1.0 / scale.levels)
    else:
        p = np.asarray(grade_distribution, dtype=float)
        if p.shape != (scale.levels,):
            raise ValueError(
                f"distribution needs one weight per grade ({scale.levels}), got shape {p.shape}"
            )
        if (p < 0).any() or not math.isclose(p.sum(), 1.0, abs_tol=1e-9):
            raise ValueError("distribution weights must be nonnegative and sum to 1")
        p = p / p.sum()
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    levels = np.arange(scale.levels)
    left = GradedMatrix(scale, rng.choice(levels, size=(n_rows, k), p=p))
    right = GradedMatrix(scale, rng.choice(levels, size=(k, n_cols), p=p))
    return compose(left, right)
