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

Every file is read and decoded whole, so an undecodable byte is named by
its line and its offset in the file.  An ASCII CSV text with no quote, no
NUL, no whitespace at either end of a cell and no line past csv's field size
limit is split on line breaks and commas with str.split; any other goes
through csv.reader, which quotes and refuses long fields as it always
has, and both give the same rows.  Blank lines are skipped.  A bad cell
is named by its row and column below any header, its text, and the file
line it starts on, found by reading the file again on that error path
alone.  A transaction file of digits, blanks and LF alone, with ids of
at most 18 digits, is parsed in one pass, its ids read from the token
bounds digit position by digit position; any other is read line by
line, so a bad id is named by its line.  `write_csv` prints its cells
through a byte table of level texts that follows the levels that occur,
by one gather per block of rows, and writes the file in one call.

A grade text means the same on every file of one chain, so its work is
done once per process: the level a cell text parses to, strictly or
leniently, and how layout detection reads it, each keyed on the chain's
length and not on the Scale, since the t-norm changes no text.  Each is
an lru_cache of _TEXT_CACHE entries, so what it holds is bounded whatever
the data; texts longer than _CACHED_TEXT characters are parsed afresh on
every call.  The byte tables levels are printed through are kept the
same way, per chain, suffixes and largest level, and only for largest
levels below _CACHED_LEVELS.  Errors are not cached, since an lru_cache
stores no raised error: a bad cell raises afresh, so a reader finds the
first bad cell and its file line as it always has, and no error outlives
the read that raised it with the frames its traceback holds.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from pathlib import Path
from typing import NamedTuple

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
        _require_widths(range(1, len(self.lows) + 1), self.lows, self.highs)

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
        _require_widths(map(repr, table.col_labels), lows, highs)
        return cls(tuple(lows), tuple(highs))


def _require_widths(names, lows, highs) -> None:
    """Refuse the first column, named by `names`, whose low is not below
    its high."""
    for name, lo, hi in zip(names, lows, highs):
        if lo >= hi:
            raise ValueError(f"column {name} has an empty or constant range [{lo}, {hi}]")


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


# the ASCII whitespace str.strip removes, except the line breaks \r and \n
_ASCII_SPACES = "\t\x0b\x0c\x1c\x1d\x1e\x1f "


def _decode(path, data: bytes) -> str:
    """A file's bytes decoded as UTF-8 in one call, without a leading
    byte-order mark.  A byte that does not decode is named by its 1-based
    line, counting CR LF, CR and LF as breaks, and by its 0-based offset in
    the file."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        bad = data[exc.start:exc.end]
        raise ValueError(
            f"{path}: line {line}, byte {exc.start}: 'utf-8' codec can't decode "
            f"{'byte' if len(bad) == 1 else 'bytes'} {' '.join(f'0x{b:02x}' for b in bad)}: "
            f"{exc.reason}"
        ) from None


def _has_padded_cell(text: str) -> bool:
    """Whether a cell of an ASCII text starts or ends with whitespace other
    than a line break."""
    spaces = [space for space in _ASCII_SPACES if space in text]
    if not spaces:
        return False
    framed = f"\n{text}\n"
    return any(edge in framed for space in spaces
               for edge in (space + ",", "," + space, space + "\n", "\n" + space,
                            space + "\r", "\r" + space))


def _split_rows(text: str) -> list[list[str]] | None:
    """The rows of a CSV text split on line breaks and commas alone, or None
    when that could differ from what csv.reader and str.strip make of it: a
    non-ASCII character, a quote, a NUL, a cell with whitespace at an end,
    or a line longer than csv's field size limit."""
    if not text.isascii() or '"' in text or "\0" in text or _has_padded_cell(text):
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if len(text) > csv.field_size_limit() and max(map(len, lines)) > csv.field_size_limit():
        return None
    return [line.split(",") for line in lines if line]


def _read_rows(path, text: str | None = None) -> list[list[str]]:
    """The rows of a CSV file, each cell stripped of surrounding whitespace
    and empty lines dropped; every row must be as wide as the first.  The
    file is read and decoded whole, unless its decoded `text` is given;
    what a plain split could misread goes through csv.reader."""
    if text is None:
        text = _decode(path, Path(path).read_bytes())
    rows = _split_rows(text)
    if rows is None:
        reader = csv.reader(io.StringIO(text, newline=""))
        try:
            rows = [row for row in reader]
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
        rows = [list(map(str.strip, row)) for row in rows if row]
    if not rows:
        raise ValueError(f"{path}: empty file")
    width = len(rows[0])
    widths = list(map(len, rows))
    if widths.count(width) != len(widths):
        i = next(i for i, w in enumerate(widths) if w != width)
        raise ValueError(f"{path}: row {i + 1} has {widths[i]} cells, expected {width}")
    return rows


def _cell_line(path, row: int, column: int) -> int:
    """The 1-based file line on which cell `column` of row `row`, both
    from 0, of the rows `_read_rows` keeps starts, counting the blank lines
    it drops and CR LF, CR and LF as breaks.  The file is read again
    through csv.reader, which gives the same rows."""
    reader = csv.reader(io.StringIO(_decode(path, Path(path).read_bytes()), newline=""))

    def starts():
        line = 1
        for cells in reader:
            if cells:
                yield line, cells
            line = reader.line_num + 1

    line, cells = next(islice(starts(), row, None))
    return line + sum(c.count("\n") + c.count("\r") - c.count("\r\n") for c in cells[:column])


# Fraction expands a decimal exponent into an integer of that many digits,
# so a cell such as "1e10000000" alone would take seconds to parse.  No grade
# or measurement needs an exponent of five digits or more.
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")
_MAX_EXPONENT_DIGITS = 4

# a plain ASCII decimal: sign, digits with at most one point and at least
# one digit, optional exponent; a subset of what Fraction(text) accepts
_DECIMAL = re.compile(r"([-+]?(?=\.?[0-9])[0-9]*)\.?([0-9]*)(?:[eE]([-+]?[0-9]+))?")

# A column's text, one cell per line, as its shape: every ASCII digit as 0,
# either sign as -, the point and the line break as they are, and every
# other character as x, so that `_fixed_point_column` checks the shape of
# every cell with a few counts and substring tests.
_SHAPE = bytes(ord("0") if chr(b) in "0123456789" else ord("-") if chr(b) in "+-"
               else b if chr(b) in ".\n" else ord("x") for b in range(256))


def _exponent_too_large(digits: str) -> bool:
    return len(digits.replace("_", "").lstrip("0")) > _MAX_EXPONENT_DIGITS


def _parse_number(text: str) -> tuple[int, int]:
    """The exact value of a number cell as ``(numerator, denominator)``.

    The denominator is positive.  A plain decimal gives its digits over a
    power of ten, unreduced, without building a Fraction.  Every other form
    Fraction(text) accepts (``3/4``, underscores, non-ASCII digits,
    surrounding whitespace, digit strings past int's conversion limit)
    gives that Fraction's parts; what it rejects raises a ValueError that
    names the text.  Exponents past _MAX_EXPONENT_DIGITS digits are
    refused before any arithmetic.
    """
    match = _DECIMAL.fullmatch(text)
    if match is None:
        exponent = _EXPONENT.search(text)
        if exponent and _exponent_too_large(exponent[1]):
            raise ValueError(f"exponent too large in {text!r}")
        return _fraction_parts(text)
    whole, frac, exponent = match.groups()  # `whole` carries the sign
    if exponent is not None and _exponent_too_large(exponent.lstrip("+-")):
        raise ValueError(f"exponent too large in {text!r}")
    try:
        significand = int(whole + frac)
    except ValueError:  # past int's digit limit, which Fraction applies per part
        return _fraction_parts(text)
    shift = (int(exponent) if exponent else 0) - len(frac)
    if shift >= 0:
        return significand * 10**shift, 1
    return significand, 10**-shift


def _fraction_parts(text: str) -> tuple[int, int]:
    try:
        return Fraction(text).as_integer_ratio()
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot read {text!r} as a number") from None


def _parse_fraction(text: str) -> Fraction:
    return Fraction(*_parse_number(text))


# Entries of each grade-text cache, and the longest text one keeps: a grade
# text is a few characters, and a longer one, valid or not, is parsed on
# each call rather than held for the life of the process.
_TEXT_CACHE = 4096
_CACHED_TEXT = 64


def _text_cache(fn):
    """`fn(levels, text, ...)`, its results for texts of at most
    _CACHED_TEXT characters kept in an lru_cache; `fn` itself is
    `__wrapped__`."""
    cached = functools.lru_cache(maxsize=_TEXT_CACHE)(fn)

    @functools.wraps(fn)
    def lookup(levels: int, text: str, *args):
        return (cached if len(text) <= _CACHED_TEXT else fn)(levels, text, *args)

    return lookup


@_text_cache
def _parse_grade_cell(levels: int, text: str, strict: bool) -> int:
    """The level a grade cell's text names on a chain of `levels` grades."""
    scale = Scale(levels)
    if text.startswith("L"):
        body = text[1:]
        if not body.isdigit():
            raise ValueError(f"bad level syntax {text!r}")
        return scale.check_level(int(body))
    value = _parse_fraction(text)
    try:
        return scale.level_from_value(value, strict=strict)
    except ValueError:
        # its message names the parsed value; name the cell's text instead
        reason = "outside [0, 1]" if not 0 <= value <= 1 else \
            f"not a grade on a {levels}-level chain"
        raise ValueError(f"{text!r} is {reason}") from None


@_text_cache
def _cell_kind(levels: int, text: str) -> str:
    """How layout detection reads a graded cell on a chain of `levels`
    grades: "grade" for a level of the chain or a number in [0, 1],
    "number" for any other number (a column named 2019, say), "name" for
    what no mode can parse as a grade."""
    try:
        if text.startswith("L"):
            _parse_grade_cell(levels, text, False)
            return "grade"
        numerator, denominator = _parse_number(text)
    except ValueError:
        return "name"
    return "grade" if 0 <= numerator <= denominator else "number"


def _raw_cell_kind(text: str) -> str:
    """How layout detection reads a raw cell: "number" or "name"."""
    try:
        _parse_number(text)
    except ValueError:
        return "name"
    return "number"


def _layout(path, rows: list[list[str]], kind) -> tuple[bool, list[list[str]]]:
    """Whether the first column holds row labels, and the rows below the
    header, if there is one, of a CSV file; `kind` names a cell "grade",
    "number" or "name".

    A name in the first row marks it as a header, and a name as the first
    body cell marks the first column as labels, so a later name in that
    column is a bad cell.  A first row that holds grades outside the label
    column, and no number, is data, so a bad cell in it is reported rather
    than taken for a header; numbers there are column names.
    """
    first = [kind(text) for text in rows[0]]
    body = rows[1:] if "name" in first else rows
    has_labels = bool(body) and kind(body[0][0]) == "name"
    names = first[has_labels:]
    if body is not rows and "grade" in names and "number" not in names:
        body = rows
    if not body:
        raise ValueError(f"{path}: no data rows")
    if len(body[0]) == has_labels:
        raise ValueError(f"{path}: no data columns")
    return has_labels, body


def read_csv(path, scale: Scale, *, mode: str = "strict") -> GradedMatrix:
    """Read a matrix of grades from CSV.

    Cells are decimals in [0, 1] or levels written ``L<k>``.  A header row
    and a label column are detected by `_layout` and stripped, a number
    being a grade when it lies in [0, 1].  A file of n line breaks alone,
    CR LF, CR or LF, is the n x 0 matrix, as `write_csv` writes it.
    """
    _check_mode(mode)
    strict = mode == "strict"
    text = _decode(path, Path(path).read_bytes())
    if text[:1] in ("\r", "\n") and not text.strip("\r\n"):
        n_rows = text.count("\n") + text.count("\r") - text.count("\r\n")
        return GradedMatrix(scale, np.zeros((n_rows, 0), dtype=LEVEL_DTYPE))
    rows = _read_rows(path, text)
    has_labels, body = _layout(path, rows, functools.partial(_cell_kind, scale.levels))
    width = len(body[0]) - has_labels

    # each distinct cell text is looked up once a call; a bad one is never
    # cached, so the first cell missing from the memo is the first bad one
    # in row-major order
    level = _Memo(lambda text: _parse_grade_cell(scale.levels, text, strict))
    cells = chain.from_iterable([row[1:] for row in body] if has_labels else body)
    try:
        levels = np.fromiter(map(level.__getitem__, cells), dtype=LEVEL_DTYPE,
                             count=len(body) * width)
    except ValueError as exc:
        r, c = next((r, c) for r, row in enumerate(body)
                    for c, cell in enumerate(row[has_labels:]) if cell not in level)
        line = _cell_line(path, len(rows) - len(body) + r, has_labels + c)
        raise ValueError(f"{path}: bad grade at row {r + 1}, column {c + 1}: {exc} "
                         f"(line {line})") from exc
    return GradedMatrix(scale, levels.reshape(len(body), width))


def write_csv(matrix: GradedMatrix, path) -> None:
    """Write a grade matrix as plain CSV, one canonical cell per grade.

    Each cell is the text of its level in canonical form, then a comma, or
    a line break in the last column.  The texts are printed by one gather
    per block of rows from a byte table of level texts that follows the
    levels that occur (`_level_blocks`).  The file is written in one call.
    Cells hold only digits, ``.`` and ``L``, so no field ever needs
    quoting.
    """
    if not matrix.entries.size:
        text = b"\n" * matrix.n_rows
    else:
        blocks = _level_blocks(matrix.entries, matrix.scale.levels, (",", "\n"))
        text = b"".join(_join_texts(keys, table) for keys, table in blocks)
    with open(path, "wb") as handle:
        handle.write(text)


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
    if places > 18:
        return None
    text = "\n".join(cells)
    # each cell between two line breaks; a non-ASCII character becomes "?"
    # and so x, and a quoted cell that holds a line break adds a line
    shape = f"\n{text}\n".encode("ascii", "replace").translate(_SHAPE)
    lines = len(cells)
    # a sign only at the start of a cell; `in` finds a byte faster than
    # `count` counts it
    if (b"x" in shape or shape.count(b"\n") != lines + 1
            or b"-" in shape and shape.count(b"-") != shape.count(b"\n-")):
        return None
    if places:
        # one point a line, each before exactly F digits, after at most
        # 18 - F digits
        fixed = (shape.count(b".") == lines
                 and shape.count(b"." + b"0" * places + b"\n") == lines
                 and b"0" * (19 - places) + b"." not in shape)
    else:
        # no point, and 1 to 18 digits after the sign
        fixed = (b"." not in shape and b"\n\n" not in shape and b"-\n" not in shape
                 and b"0" * 19 not in shape)
    if not fixed:
        return None
    # the shape admits only what fromstring parses, and no value past int64
    return np.fromstring(text.replace(".", ""), dtype=np.int64, sep="\n"), 10**places


def read_raw_csv(path) -> RawTable:
    """Read a labeled table of rational measurements from CSV.

    A header row and a label column are detected by `_layout`, every cell
    that parses being a number; missing labels are synthesized from
    1-based positions, as graded CSV errors count rows and columns.  The
    first bad cell in row-major order is named.
    """
    rows = _read_rows(path)
    has_labels, body = _layout(path, rows, _raw_cell_kind)
    texts = list(zip(*body))  # one tuple of cell texts per column
    row_labels = texts.pop(0) if has_labels else tuple(map(str, range(1, len(body) + 1)))
    if body is rows:
        col_labels = map(str, range(1, len(texts) + 1))
    else:
        col_labels = rows[0][has_labels:]
    try:
        columns = [_fixed_point_column(cells) or _raw_column(tuple(map(_parse_number, cells)))
                   for cells in texts]
    except ValueError:
        for r, row in enumerate(body):  # name the first bad cell in row-major order
            for c in range(has_labels, len(row)):
                try:
                    _parse_number(row[c])
                except ValueError as exc:
                    line = _cell_line(path, len(rows) - len(body) + r, c)
                    raise ValueError(f"{path}: bad number in row {r + 1}: {exc} "
                                     f"(line {line})") from exc
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
    lows, highs = ([table.cell(r, c) for c in range(table.shape[1])] for r in (0, 1))
    _require_widths(map(repr, table.col_labels), lows, highs)
    return ColumnRange(tuple(lows), tuple(highs))


# ----------------------------------------------------------------------
# printing levels through byte tables
# ----------------------------------------------------------------------


class _TextTable(NamedTuple):
    """Texts as the rows of a uint8 table padded with NULs.  `keep` marks
    each row's own bytes, or is None when every text fills its row, and
    `lens` holds the texts' lengths."""

    pad: np.ndarray
    keep: np.ndarray | None
    lens: np.ndarray


def _text_table(texts: list[bytes]) -> _TextTable:
    """The byte table of `texts`, one row each, as wide as the longest."""
    lens = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
    width = int(lens.max(initial=0))
    padded = b"".join(text.ljust(width, b"\0") for text in texts)
    pad = np.frombuffer(padded, dtype=np.uint8).reshape(len(texts), width)
    keep = None if (lens == width).all() else np.arange(width) < lens[:, None]
    return _TextTable(pad, keep, lens)


def _join_texts(keys: np.ndarray, table: _TextTable) -> bytes:
    """The texts a 2-D array of keys picks from `table`, joined in
    row-major order by one gather: the rows picked, and where the texts'
    lengths differ, only the bytes each row keeps."""
    cells = table.pad.take(keys, axis=0)
    if table.keep is None:
        return cells.tobytes()
    return cells[table.keep.take(keys, axis=0)].tobytes()


# Tables over every level up to a top below this are kept, this many of
# them, which bounds what the cache holds whatever the data; any other is
# built on each call from the texts of the levels that occur.
_CACHED_LEVELS = 64
_TABLE_CACHE = 256

# A gather takes the rows of at most about this many cells at a time, which
# bounds the keys, bytes and masks one builds whatever the array; larger
# blocks print no faster.
_GATHER_CELLS = 4096


def _level_table(chain: int | None, suffixes: tuple[str, ...], used) -> _TextTable:
    """The table of the text of each level of `used`, then each suffix in
    turn: row ``s * len(used) + i`` is level ``used[i]`` and suffix s.  A
    level's text is its canonical form on a chain of `chain` grades, or
    its integer when `chain` is None."""
    texts = [str(level) if chain is None else _grade_text(chain, level) for level in used]
    return _text_table([(t + suffix).encode() for suffix in suffixes for t in texts])


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _top_table(chain: int | None, suffixes: tuple[str, ...], top: int) -> _TextTable:
    """`_level_table` of every level up to `top`, kept per chain, suffixes
    and top."""
    return _level_table(chain, suffixes, range(top + 1))


@functools.lru_cache(maxsize=_TEXT_CACHE)
def _grade_text(levels: int, level: int) -> str:
    """The canonical text of a level of a chain of `levels` grades."""
    return Scale(levels).format_level(level)


def _level_blocks(entries: np.ndarray, chain: int | None, suffixes: tuple[str, ...]):
    """The keys of a nonempty 2-D array of levels into one table of their
    texts, a block of rows at a time, each with that table: `_join_texts`
    of a block is each level's text then suffixes[0], or suffixes[-1] in
    the last column; see `_level_table`.  The table follows the levels
    that occur, never the chain: when the largest is below _CACHED_LEVELS,
    it holds every level up to the largest, each its own row, the keys
    are the levels and the table is kept; otherwise it holds the distinct
    levels, and the keys are the inverse of the np.unique that finds them."""
    n_rows, n_cols = entries.shape
    top = int(entries.max())
    if top < _CACHED_LEVELS:
        size, keys = top + 1, entries
        table = _top_table(chain, suffixes, top)
    else:
        used, keys = np.unique(entries, return_inverse=True)
        # numpy 2.0 returns the inverse flat
        size, keys = len(used), keys.reshape(entries.shape)
        table = _level_table(chain, suffixes, used.tolist())
    shift = np.zeros(n_cols, dtype=np.intp)
    shift[-1] = (len(suffixes) - 1) * size
    step = max(1, _GATHER_CELLS // n_cols)
    for lo in range(0, n_rows, step):
        yield keys[lo:lo + step] + shift, table


# ----------------------------------------------------------------------
# transaction (itemset) files
# ----------------------------------------------------------------------


# A dense grid of int64 levels past this many cells (800 MB) is refused
# before anything is allocated: a transaction file's rows x items, and each
# factor matrix and the product of a random instance.
MAX_FIMI_CELLS = 10**8


def read_fimi(path, num_items: int | None = None, *,
              scale: Scale | None = None) -> GradedMatrix:
    """Read a transaction file onto the two-grade chain.

    Each line lists the item ids of one transaction, whitespace separated;
    an empty line is an empty transaction.  With `num_items` given, ids
    index columns directly and must stay below it.  Without it, the
    distinct ids that occur are mapped onto columns in sorted order, so
    datasets whose ids start at 1 do not drag along an unused column: by a
    table of the ids present when the file is read in one pass and they are
    all below its byte count, by a sort otherwise, so memory follows the
    file and not the largest id.  A grid of more than MAX_FIMI_CELLS cells
    is refused.
    """
    if scale is None:
        scale = Scale.boolean()
    elif scale.levels != 2:
        raise ValueError(f"transaction data is Boolean, got a {scale.levels}-level scale")
    if num_items is not None and num_items < 1:
        raise ValueError(f"num_items must be positive, got {num_items}")
    data = Path(path).read_bytes()
    tokens = _fimi_tokens(data)
    if tokens is None:
        lines, rows, ids = _fimi_lines(path, _decode(path, data), num_items)
    else:
        lines, rows, ids = tokens
        if num_items is not None and len(ids) and int(ids.max()) >= num_items:
            t = int(np.argmax(ids >= num_items))
            raise ValueError(f"{path}: item id {ids[t]} on line {rows[t] + 1} "
                             f"exceeds num_items={num_items}")
    if not lines:
        raise ValueError(f"{path}: empty file")

    if num_items is None:
        if not len(ids):
            raise ValueError(f"{path}: no items in any transaction")
        if tokens is not None and (top := int(ids.max())) < len(data):
            present = np.zeros(top + 1, dtype=bool)
            present[ids] = True
            distinct = np.flatnonzero(present)
            cols = (np.cumsum(present, dtype=np.intp) - 1)[ids]
        else:
            distinct, cols = np.unique(ids, return_inverse=True)
        width = len(distinct)
    else:
        cols = ids
        width = num_items

    too_large = (
        f"{path}: cannot allocate a grid of {lines} rows x "
        f"num_items={width} columns"
    )
    if lines * width > MAX_FIMI_CELLS:
        raise ValueError(too_large)
    try:
        grid = np.zeros((lines, width), dtype=LEVEL_DTYPE)
    except MemoryError:
        raise ValueError(too_large) from None
    # one store from flat index arrays, freed before GradedMatrix copies the grid
    grid[rows, np.asarray(cols, dtype=np.intp)] = 1
    return GradedMatrix(scale, grid)


# the only bytes of a transaction file read in one pass
_FIMI_BYTES = b"0123456789 \t\n"


def _fimi_tokens(data: bytes) -> tuple[int, np.ndarray, np.ndarray] | None:
    """Lines, and each item id with its 0-based line, of a transaction file
    of ASCII digits, spaces, tabs and LF only, parsed in one pass; None for
    any other file, or one with an id of 19 digits or more, which may not
    fit int64.  A token starts at a digit after a non-digit and ends before
    the next non-digit.  Each LF is placed among the sorted token starts,
    which counts the tokens of each line, and each line's number is
    repeated that many times.  The ids are read from the token bounds by
    one Horner step per digit position: every token takes its first digit,
    then each token longer than k digits takes its digit k, for each k
    below the longest token's length."""
    if data.translate(None, _FIMI_BYTES):
        return None
    lines = data.count(b"\n") + (bool(data) and not data.endswith(b"\n"))
    codes = np.frombuffer(data, dtype=np.uint8)
    values = codes - np.uint8(ord("0"))  # a digit's value; 10 or more for any other byte
    digit = np.concatenate(([False], values < 10, [False]))
    edges = np.flatnonzero(digit[1:] != digit[:-1])
    starts, ends = edges[0::2], edges[1::2]
    widths = ends - starts
    if len(starts) and widths.max() >= 19:
        return None
    widths = widths.astype(np.uint8)
    before = np.searchsorted(starts, np.flatnonzero(codes == ord("\n")))
    per_line = np.diff(before, prepend=0, append=len(starts))
    rows = np.repeat(np.arange(len(per_line)), per_line)
    ids = values[starts].astype(np.int64)
    for k in range(1, int(widths.max(initial=0))):
        # in place, so each step allocates two bytes per token, its mask and
        # its digit; the byte k past the start of a shorter token, the
        # file's last past its end, is read but never added
        longer = widths > k
        np.multiply(ids, 10, out=ids, where=longer)
        np.add(ids, values[k:].take(starts, mode="clip"), out=ids, where=longer)
    return lines, rows, ids


def _fimi_lines(path, text: str, num_items: int | None) -> tuple[int, np.ndarray, np.ndarray]:
    """Lines, and each item id with its 0-based line, of a transaction file
    read line by line; a bad, negative or too-large id is named by its line.
    Lines end at CR LF, CR or LF.  The ids are Python ints of any size in an
    object array, which keeps them exact where int64 or float64 would not."""
    transactions: list[list[int]] = []
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
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
    rows = np.repeat(np.arange(len(transactions)), [len(items) for items in transactions])
    ids = np.array(list(chain.from_iterable(transactions)), dtype=object)
    return len(transactions), rows, ids


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
    if max(n_rows * k, k * n_cols, n_rows * n_cols) > MAX_FIMI_CELLS:
        raise ValueError(f"a {n_rows}x{k} by {k}x{n_cols} product has a matrix of more "
                         f"than {MAX_FIMI_CELLS} cells")
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
    left = GradedMatrix(scale, rng.choice(scale.levels, size=(n_rows, k), p=p))
    right = GradedMatrix(scale, rng.choice(scale.levels, size=(k, n_cols), p=p))
    return compose(left, right)
