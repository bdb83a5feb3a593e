"""Reading, writing, discretizing, and generating graded matrices.

CSV cells carry either decimals in [0, 1] or explicit levels written as
``L<k>``; transaction files use the whitespace-separated item-id format
common for frequent-itemset benchmarks and always land on the two-grade
chain.  Raw tables of measurements hold each column as exact integer
numerators, over one common denominator when the column fits int64, until
they are discretized onto a scale.

Every file is read whole, so an undecodable byte is named by its line and
its offset in the file.  A CSV file reaches one cell interpreter through
one of two splitters.  A UTF-8 file with no quote, NUL or whitespace past
ASCII whose rows all have one width is split into per-cell byte bounds in
one numpy pass over its bytes, its cells stripped of ASCII blanks and its
empty lines dropped.  Any other is decoded and split by csv.reader, which
quotes and refuses long fields, and its stripped cells are joined by LF
into the same bounds.  The header and the label column are decided
once, from the first row and the cell below its first, and a row of the
wrong width, no data row or no data column is refused there.  The
interpreter reads a table from the bounds and the eight-byte words at
them: a graded cell, keyed by its first eight bytes, is looked up in a
collision-free hash of the chain's canonical texts, and only the cells
that miss are decoded and parsed; a raw table's fixed-point columns (one
number of decimals F in every cell, at most 18 digits) are parsed by word
arithmetic as int64 numerators over 10**F, and only the other columns'
cells are decoded and parsed.  Each distinct text is parsed once, in
row-major order of first occurrence, so the first text refused is the
first bad cell.  A bad cell or a row of the wrong width is named by its
row below any header, a cell also by its column, and by the file line it
starts on, counted in the file's bytes or in csv.reader's records.

A transaction file of digits, blanks and LF alone, with ids of at most
18 digits, is parsed in one pass, its ids read from the token bounds
digit position by digit position; any other is read line by line, so a
bad id is named by its line.  `write_csv` prints
its cells through a byte table of level texts that follows the levels that
occur, by one gather per block of rows, and writes the file in one call.

A chain's canonical texts, the ones `write_csv` prints, are keyed and
hashed beside their levels and widths once per chain of at most
_CACHED_LEVELS grades, for _TABLE_CACHE chains; any other cell text is
parsed once per read, and no cell text outlives the read that met it.
The byte tables levels are printed through are kept per chain, suffixes
and largest level, and only for largest levels below _CACHED_LEVELS.  A
bad cell raises afresh on each read, so a reader finds the first bad
cell and its file line as it always has, and no error outlives the read
that raised it with the frames its traceback holds.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, count
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .matrix import LEVEL_DTYPE, GradedMatrix, compose
from .scale import Scale, _require_count

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


# the ASCII whitespace str.strip removes, except the line breaks \r and \n
_ASCII_SPACES = "\t\x0b\x0c\x1c\x1d\x1e\x1f "
_IS_SPACE = np.zeros(256, dtype=bool)
_IS_SPACE[list(_ASCII_SPACES.encode())] = True
# the whitespace past ASCII that str.strip removes
_WIDE_SPACE = re.compile("[\x85\xa0\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000]")

_BOM = b"\xef\xbb\xbf"


def _line_breaks(text: bytes) -> int:
    """The line breaks in `text`, each of CR LF, CR and LF one."""
    return text.count(b"\n") + text.count(b"\r") - text.count(b"\r\n")


def _decode(path, data: bytes) -> str:
    """A file's bytes decoded as UTF-8 in one call, without a leading
    byte-order mark.  A byte that does not decode is named by its 1-based
    line, counting CR LF, CR and LF as breaks, and by its 0-based offset in
    the file."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = _line_breaks(data[:exc.start]) + 1
        bad = data[exc.start:exc.end]
        raise ValueError(
            f"{path}: line {line}, byte {exc.start}: 'utf-8' codec can't decode "
            f"{'byte' if len(bad) == 1 else 'bytes'} {' '.join(f'0x{b:02x}' for b in bad)}: "
            f"{exc.reason}"
        ) from None


class _Cells(NamedTuple):
    """The cells of a rectangular CSV table as byte bounds: cell (r, c) is
    ``codes[starts[r, c]:ends[r, c]]``, stripped.  `codes` holds _LEAD
    NULs, the file's bytes, a line break if they do not end in one, and
    eight NULs, so that a word can be read at any cell's start, and three
    before any cell's end.  Whether the first row is a header and the
    first column labels is decided by `_layout_flags`.  Split by
    csv.reader, a table keeps the reader's records, `records`; split by
    bytes, it has None there."""

    codes: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    has_header: bool
    has_labels: bool
    records: list[list[str]] | None

    def line(self, row: int, column: int) -> int:
        """The 1-based file line on which cell (row, column) starts: 1
        plus the line breaks in `codes` before it, or `_record_line`."""
        if self.records is None:
            return 1 + _line_breaks(self.codes[_LEAD:self.starts[row, column]].tobytes())
        return _record_line(self.records, row, column)


_LEAD = 24


def _split_bytes(data: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The codes and bounds of the `_Cells` of a CSV file's UTF-8 bytes
    without a byte-order mark, split in one numpy pass over its bytes, or
    None when csv.reader must split it or would refuse it: a byte that
    does not decode, a quote, a NUL, whitespace past ASCII, a field longer
    than csv's field size limit, no rows, or rows of different widths.

    A cell ends at each comma, CR and LF, bytes UTF-8 uses for those
    characters alone, so CR LF ends a line and then an empty one; an empty
    cell that starts and ends its line is an empty line, dropped as
    csv.reader drops them.  Each cell is then stripped of the ASCII blanks
    str.strip removes, found by placing its bounds among the other bytes."""
    if not data or b'"' in data or b"\0" in data:
        return None
    if not data.isascii():
        try:
            if _WIDE_SPACE.search(data.decode("utf-8")):
                return None
        except UnicodeDecodeError:
            return None
    end = b"" if data.endswith((b"\n", b"\r")) else b"\n"
    codes = np.frombuffer(bytes(_LEAD) + data + end + bytes(8), dtype=np.uint8)
    is_break = codes == ord("\n")
    if b"\r" in data:
        is_break |= codes == ord("\r")
    ends = np.flatnonzero(is_break | (codes == ord(",")))
    last = is_break[ends]  # the cell ends its line
    starts = np.concatenate(([_LEAD], ends[:-1] + 1))
    empty = (starts == ends) & last
    empty[1:] &= last[:-1]
    if empty.any():
        starts, ends, last = starts[~empty], ends[~empty], last[~empty]
    if not len(last):
        return None
    # as many cells as the first line on every line
    width = int(np.argmax(last)) + 1
    if len(last) % width or (last.reshape(-1, width) != (np.arange(width) == width - 1)).any():
        return None
    starts, ends = starts.reshape(-1, width), ends.reshape(-1, width)
    # a field is no longer than its line
    limit = csv.field_size_limit()
    if len(data) > limit and (ends[:, -1] - starts[:, 0]).max() > limit and (
            (ends - starts).max() > limit):
        return None
    if any(space in data for space in _ASCII_SPACES.encode()):
        # a cell runs from the first byte at or after its start that is no
        # blank to the last before its end; the separators around it, and
        # the NULs around the file, are no blanks
        solid = np.flatnonzero(~_IS_SPACE.take(codes))
        starts = np.minimum(solid[np.searchsorted(solid, starts)], ends)
        ends = np.maximum(solid[np.searchsorted(solid, ends) - 1] + 1, starts)
    return codes, starts, ends


def _spans(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The positions ``starts[i] + k`` for each k below ``lens[i]``, for
    every i in order."""
    offsets = np.repeat(starts - (np.cumsum(lens) - lens), lens)
    return offsets + np.arange(len(offsets))


def _texts(codes: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    """The texts of the cells ``codes[starts:ends]``, in row-major order,
    gathered with one take, each with the byte after it made a line break,
    and decoded and split once; cell by cell when a cell, quoted, holds a
    line break itself."""
    starts, ends = starts.ravel(), ends.ravel()
    lens = ends - starts + 1
    joined = codes[_spans(starts, lens)]
    joined[np.cumsum(lens) - 1] = ord("\n")
    texts = joined.tobytes().decode("utf-8").split("\n")[:-1]
    if len(texts) != len(starts):
        texts = [codes[s:e].tobytes().decode("utf-8") for s, e in zip(starts, ends)]
    return texts


def _read_rows(path, text: str) -> list[list[str]]:
    """The records of a CSV file's decoded `text` through csv.reader, its
    rows, unstripped, and an empty record for each blank line."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        records = list(reader)
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if not any(records):
        raise ValueError(f"{path}: empty file")
    return records


def _record_line(records: list[list[str]], row: int, column: int) -> int:
    """The 1-based line on which cell `column` of the `row`th nonblank
    record of csv.reader's `records`, both from 0, starts: 1, plus 1 per
    record before its own, plus the line breaks in the cells before it,
    joined by commas so that no two merge.  A record spans more than one
    line only where a quoted cell keeps the breaks between them."""
    i = [k for k, record in enumerate(records) if record][row]
    before = chain.from_iterable(records[:i] + [records[i][:column]])
    return 1 + i + _line_breaks(",".join(before).encode())


def _cells(path, data: bytes, kind) -> _Cells:
    """The cells of a CSV file's bytes `data`: split by `_split_bytes`, or,
    where it declines the file, csv.reader's stripped rows joined by LF,
    padded as `_Cells.codes` is, beside the reader's records.  A cell ends
    at each LF, or, when a quoted cell holds one, at the cumulative byte
    lengths of the cells.  The header and labels are decided by
    `_layout_flags` from the texts of the first row and the cell below its
    first, `kind` naming a cell.  The first row of another width than the
    first is named by its row below any header and its line; a table with
    no data row or no data column is refused."""
    split = _split_bytes(data.removeprefix(_BOM))
    if split is not None:
        codes, starts, ends = split
        records = None
        first = _texts(codes, starts[0], ends[0])
        lead = _texts(codes, starts[1, :1], ends[1, :1])[0] if len(starts) > 1 else None
    else:
        records = _read_rows(path, _decode(path, data))
        rows = list(filter(None, records))
        first = list(map(str.strip, rows[0]))
        lead = rows[1][0].strip() if len(rows) > 1 else None
    has_header, has_labels = _layout_flags(first, lead, kind)
    if split is None:
        width = len(first)
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(f"{path}: row {i + 1 - has_header} has {len(row)} cells, "
                                 f"expected {width} (line {_record_line(records, i, 0)})")
        texts = list(map(str.strip, chain.from_iterable(rows)))
        joined = ("\n".join(texts) + "\n").encode()
        codes = np.frombuffer(bytes(_LEAD) + joined + bytes(8), dtype=np.uint8)
        ends = np.flatnonzero(codes == ord("\n"))
        if len(ends) != len(texts):
            lens = np.fromiter(map(len, map(str.encode, texts)), dtype=np.intp, count=len(texts))
            ends = _LEAD + np.cumsum(lens + 1) - 1
        starts = np.concatenate(([_LEAD], ends[:-1] + 1))
        starts, ends = starts.reshape(-1, width), ends.reshape(-1, width)
    if len(starts) == has_header:
        raise ValueError(f"{path}: no data rows")
    if starts.shape[1] == has_labels:
        raise ValueError(f"{path}: no data columns")
    return _Cells(codes, starts, ends, has_header, has_labels, records)


def _parse_texts(path, cells: _Cells, texts: list[str], parse, what: str, columns, at) -> list:
    """What `parse` gives each of `texts`, each distinct text parsed once,
    in order of first occurrence.  Text i is cell ``at[i]``, in row-major
    order, of the data columns `columns`, counted after any label column.
    The first text `parse` refuses is named by its first cell: its row
    below any header, its column, the reason and its file line."""
    parsed = {}
    for text in dict.fromkeys(texts):
        try:
            parsed[text] = parse(text)
        except ValueError as exc:
            r, k = divmod(int(at[texts.index(text)]), len(columns))
            c = columns[k]
            line = cells.line(cells.has_header + r, cells.has_labels + c)
            raise ValueError(f"{path}: bad {what} at row {r + 1}, column {c + 1}: {exc} "
                             f"(line {line})") from exc
    return list(map(parsed.__getitem__, texts))


# Fraction expands a decimal exponent into an integer of that many digits,
# so a cell such as "1e10000000" alone would take seconds to parse.  No grade
# or measurement needs an exponent of five digits or more.
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")
_MAX_EXPONENT_DIGITS = 4

# a plain ASCII decimal: sign, digits with at most one point and at least
# one digit, optional exponent; a subset of what Fraction(text) accepts
_DECIMAL = re.compile(r"([-+]?(?=\.?[0-9])[0-9]*)\.?([0-9]*)(?:[eE]([-+]?[0-9]+))?")

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


def _parse_grade_cell(scale: Scale, text: str, strict: bool) -> int:
    """The level a grade cell's text names on `scale`'s chain."""
    if text.startswith("L"):
        body = text[1:]
        if not body.isdecimal():
            raise ValueError(f"bad level syntax {text!r}")
        return scale.check_level(int(body))
    value = _parse_fraction(text)
    try:
        return scale.level_from_value(value, strict=strict)
    except ValueError:
        # its message names the parsed value; name the cell's text instead
        reason = "outside [0, 1]" if not 0 <= value <= 1 else \
            f"not a grade on a {scale.levels}-level chain"
        raise ValueError(f"{text!r} is {reason}") from None


def _cell_kind(text: str) -> str:
    """How layout detection reads a graded cell, by its shape alone:
    "grade" for ``L`` and decimal digits, the level syntax, on any chain,
    or a number in [0, 1]; "number" for any other number (a column named
    2019, say); "name" for anything else (``Lx``, ``L²``, a word)."""
    if text.startswith("L"):
        return "grade" if text[1:].isdecimal() else "name"
    try:
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


def _layout_flags(first: list[str], lead: str | None, kind) -> tuple[bool, bool]:
    """Whether a CSV table has a header and a label column, from the texts
    of its `first` row and the first cell of the next, `lead`, or None
    when there is no next row; `kind` names a cell "grade", "number" or
    "name".

    A name in the first row marks it as a header, and a name as the first
    body cell marks the first column as labels, so a later name in that
    column is a bad cell.  A first row that holds grades outside the label
    column, and no number, is data, so a bad cell in it is reported rather
    than taken for a header; numbers there are column names.
    """
    kinds = [kind(cell) for cell in first]
    has_header = "name" in kinds
    if has_header:
        has_labels = lead is not None and kind(lead) == "name"
    else:
        has_labels = kinds[0] == "name"
    names = kinds[has_labels:]
    if has_header and "grade" in names and "number" not in names:
        has_header = False
    return has_header, has_labels


def read_csv(path, scale: Scale, *, mode: str = "strict") -> GradedMatrix:
    """Read a matrix of grades from CSV.

    Cells are decimals in [0, 1] or levels written ``L<k>``.  A header row
    and a label column are detected by `_layout_flags` and stripped, a
    number being a grade when it lies in [0, 1].  A file of n line breaks
    alone, CR LF, CR or LF, is the n x 0 matrix, as `write_csv` writes it.

    The cells, split by `_split_bytes` or csv.reader (`_cells`), are read
    by `_byte_levels`, which names the first bad cell in row-major order.
    """
    _check_mode(mode)
    data = Path(path).read_bytes()
    plain = data.removeprefix(_BOM)
    if plain[:1] in (b"\r", b"\n") and not plain.strip(b"\r\n"):
        return GradedMatrix(scale, np.zeros((_line_breaks(plain), 0), dtype=LEVEL_DTYPE))
    cells = _cells(path, data, _cell_kind)
    return GradedMatrix(scale, _byte_levels(path, cells, scale, mode == "strict"))


# a key keeps a cell's first k bytes, little-endian, and zeros the rest
_KEY_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def _byte_levels(path, cells: _Cells, scale: Scale, strict: bool) -> np.ndarray:
    """The levels of a table's data cells.

    Each cell is keyed by its first eight bytes as a little-endian uint64,
    those past its end zeroed, and takes the level of the slot it hashes
    to among the chain's canonical texts (`_canonical_keys`) when it has
    the slot's key and width.  Such a cell is canonical, so never bad.
    Only the cells that miss, other spellings, longer texts and every
    cell on a chain of more than _CACHED_LEVELS grades, are decoded and
    parsed by `_parse_texts`, which names the first that is bad."""
    codes, starts, ends, has_header, has_labels, *_ = cells
    width = starts.shape[1] - has_labels
    starts, ends = starts[has_header:, has_labels:].ravel(), ends[has_header:, has_labels:].ravel()
    lens = ends - starts
    if scale.levels <= _CACHED_LEVELS:
        factor, shift, keys, known, widths = _canonical_keys(scale.levels)
        # the word at each byte; `take` copies it whole, faster for dense cells
        words = np.ndarray((len(codes) - 7,), dtype="<u8", buffer=codes, strides=(1,))
        key = words.take(starts)
        key &= _KEY_MASKS.take(lens, mode="clip")
        at = (key * factor >> shift).view(np.intp)
        levels = known.take(at)
        misses = np.flatnonzero((keys.take(at) != key) | (lens != widths.take(at)))
    else:
        levels = np.empty(len(starts), dtype=LEVEL_DTYPE)
        misses = np.arange(len(starts))
    if len(misses):
        texts = _texts(codes, starts[misses], ends[misses])
        levels[misses] = _parse_texts(path, cells, texts, functools.partial(
            _parse_grade_cell, scale, strict=strict), "grade", range(width), misses)
    return levels.reshape(-1, width)


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


def _fixed_point_columns(codes: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                         has_labels: bool) -> list[tuple[np.ndarray, int] | None]:
    """Each data column of a split table's body as int64 numerators over
    10**F, when it is a fixed-point column, or None.

    A fixed-point column's cells all have its first cell's number of
    decimals F and at most 18 digits: an optional sign, then digits with no
    point when F = 0, or digits and a point before exactly F digits.  Then
    every numerator over 10**F fits int64, and the column is what
    `_raw_column` builds from `_parse_number`'s cells.  The columns of one
    F are read a block of rows at a time, each cell right-aligned in the
    at most three eight-byte words that end at its end, so that the point
    sits in one byte of one word: bytes checked as digits by one test per
    word, the point moved out, each word's digits joined into its value by
    three multiply-shift steps, and the words' values summed."""
    first = [codes[s:e].tobytes() for s, e in zip(starts[0, has_labels:], ends[0, has_labels:])]
    places = [len(cell) - cell.find(b".") - 1 if b"." in cell else 0 for cell in first]
    columns: list[tuple[np.ndarray, int] | None] = [None] * len(places)
    words = np.ndarray((len(codes) - 7,), dtype="<u8", buffer=codes, strides=(1,))
    for f in sorted(set(places) & set(range(19))):
        group = [c for c, p in enumerate(places) if p == f]
        cols = has_labels + np.array(group)
        point = [0xFF << 8 * (7 - f % 8) if f and k == f // 8 else 0 for k in range(3)]
        least, spread = f + 1, np.uint64(17 - f + bool(f))  # sizes F + 1 to 18 + (F > 0)
        fixed = np.ones(len(group), dtype=bool)
        values = np.empty((len(group), len(starts)), dtype=np.int64)
        step = max(1, _GATHER_CELLS // len(group))
        for lo in range(0, len(starts), step):
            # a row per column: an index array's gather is column-major
            s, e = starts[lo:lo + step, cols].T, ends[lo:lo + step, cols].T
            lead = codes[s]
            minus = lead == ord("-")
            size = e - s - (minus | (lead == ord("+"))).astype(np.int64)  # after any sign
            over = (size - least).view(np.uint64)
            if over.max() > spread:
                fixed &= over.max(axis=1) <= spread
                if not fixed.any():
                    break
            for k in range(-(-min(int(size.max()), 19) // 8)):
                # xor'd with "0", "." at the point, digits take their values and
                # the point 0; plus 0x76, 0x7F at the point, only they stay < 0x80
                x = words[e - 8 * (k + 1)]
                x ^= np.uint64(0x3030303030303030 ^ point[k] & 0x1E1E1E1E1E1E1E1E)
                x &= _HIGH_BYTES.take(size - 8 * k if k else size, mode="clip")
                test = x + np.uint64(0x7676767676767676 + (point[k] & 0x0909090909090909))
                test |= x
                bad = bad | test if k else test
                if point[k]:  # the bytes before it, 256 times themselves
                    x += (x & np.uint64((point[k] & -point[k]) - 1)) * _BYTE_MAX
                for factor, shift, mask in _JOINS:
                    x *= factor
                    x >>= shift
                    x &= mask
                # a word's value is worth one digit less past the point
                value = value + x * np.uint64(10 ** (8 * k - (0 < f < 8 * k))) if k else x
            if np.bitwise_or.reduce(bad, axis=None) & _HIGH_BITS:
                fixed &= np.bitwise_or.reduce(bad, axis=1) & _HIGH_BITS == 0
            negative = np.negative(minus.astype(np.int64))  # -v = (v ^ -1) - -1
            np.subtract(value.view(np.int64) ^ negative, negative, out=values[:, lo:lo + step])
        for c in np.flatnonzero(fixed):
            columns[group[c]] = values[c], 10**f
    return columns


# as np.uint64, so that numpy 2.0 promotes as later numpy does: the top k
# bytes, each byte's top bit, 255, and the joins of digit fields one, two
# and four bytes wide, (a, b), into fields twice as wide of 10**w a + b
_HIGH_BYTES = ~_KEY_MASKS[::-1]
_HIGH_BITS = np.uint64(0x8080808080808080)
_BYTE_MAX = np.uint64(255)
_JOINS = tuple((np.uint64(10**w << 8 * w | 1), np.uint64(8 * w), np.uint64(mask)) for w, mask in
               ((1, 0x00FF00FF00FF00FF), (2, 0x0000FFFF0000FFFF), (4, 0x00000000FFFFFFFF)))


def _byte_table(path, cells: _Cells) -> RawTable:
    """The RawTable of a table's cells.  Only the labels, the layout cells
    and the cells of the columns not fixed-point (`_fixed_point_columns`)
    are decoded, and the last parsed by `_parse_texts`."""
    codes, starts, ends, has_header, has_labels, *_ = cells
    starts, ends = starts[has_header:], ends[has_header:]
    n_rows, width = starts.shape
    if has_labels:
        row_labels = tuple(_texts(codes, starts[:, 0], ends[:, 0]))
    else:
        row_labels = tuple(map(str, range(1, n_rows + 1)))
    if has_header:
        col_labels = _texts(codes, cells.starts[0, has_labels:], cells.ends[0, has_labels:])
    else:
        col_labels = map(str, range(1, width - has_labels + 1))
    columns = _fixed_point_columns(codes, starts, ends, has_labels)
    loose = [i for i, column in enumerate(columns) if column is None]
    if loose:
        cols = has_labels + np.array(loose)
        texts = _texts(codes, starts[:, cols], ends[:, cols])
        parsed = _parse_texts(path, cells, texts, _parse_number, "number", loose,
                              range(len(texts)))
        for k, i in enumerate(loose):
            columns[i] = _raw_column(tuple(parsed[k::len(loose)]))
    return RawTable(row_labels, tuple(col_labels), *zip(*columns))


def read_raw_csv(path) -> RawTable:
    """Read a labeled table of rational measurements from CSV.

    A header row and a label column are detected by `_layout_flags`, every
    cell that parses being a number; missing labels are synthesized from
    1-based positions, as graded CSV errors count rows and columns.  The
    cells, split by `_split_bytes` or csv.reader (`_cells`), are read by
    `_byte_table`, which names the first bad cell in row-major order.
    """
    return _byte_table(path, _cells(path, Path(path).read_bytes(), _raw_cell_kind))


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
# built on each call from the texts of the levels that occur.  The
# canonical texts of chains of at most this many grades are kept the same
# way, for as many chains.
_CACHED_LEVELS = 64
_TABLE_CACHE = 256

# A gather of printed texts, and a block of a fixed-point parse, takes at
# most about this many cells at a time, which bounds the keys, bytes and
# masks one builds whatever the array; larger blocks print no faster.
_GATHER_CELLS = 4096


def _level_table(chain: int | None, suffixes: tuple[str, ...], used) -> _TextTable:
    """The table of the text of each level of `used`, then each suffix in
    turn: row ``s * len(used) + i`` is level ``used[i]`` and suffix s.  A
    level's text is its canonical form on a chain of `chain` grades, or
    its integer when `chain` is None."""
    format_level = str if chain is None else Scale(chain).format_level
    texts = [format_level(level) for level in used]
    return _text_table([(t + suffix).encode() for suffix in suffixes for t in texts])


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _top_table(chain: int | None, suffixes: tuple[str, ...], top: int) -> _TextTable:
    """`_level_table` of every level up to `top`, kept per chain, suffixes
    and top."""
    return _level_table(chain, suffixes, range(top + 1))


_FACTORS = np.arange(1, 1024, 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)


@functools.lru_cache(maxsize=_TABLE_CACHE)
def _canonical_keys(levels: int) -> tuple:
    """A collision-free multiplicative hash of a chain's canonical texts,
    kept per chain: factor, shift, and slots of keys, levels and byte
    widths, key k, a text's bytes as a little-endian integer, in slot
    ``k * factor >> shift`` mod 2**64, an empty slot of width -1.  The
    slots are the fewest, a power of two, that one of the odd _FACTORS
    sends no two keys to one of, and the factor is the first such."""
    scale = Scale(levels)
    texts = [scale.format_level(level).encode() for level in range(levels)]
    keys = np.array([int.from_bytes(text, "little") for text in texts], dtype=np.uint64)
    for bits in count((levels - 1).bit_length()):
        shift = np.uint64(64 - bits)
        slots = np.sort(keys * _FACTORS[:, None] >> shift, axis=1)
        distinct = (slots[:, 1:] != slots[:, :-1]).all(axis=1)
        if distinct.any():
            break
    factor = _FACTORS[np.argmax(distinct)]
    table = np.zeros(2**bits, np.uint64), np.zeros(2**bits, LEVEL_DTYPE), np.full(2**bits, -1)
    for column, values in zip(table, (keys, range(levels), list(map(len, texts)))):
        column[(keys * factor >> shift).view(np.intp)] = values
    return factor, shift, *table


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
# before anything is allocated: a transaction file's rows x items, a random
# instance's matrices, a uniform draw's weights and an experiment's draws.
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
    if num_items is not None:
        num_items = _require_count("num_items", num_items, 1)
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
    n_rows = _require_count("n_rows", n_rows, 1)
    n_cols = _require_count("n_cols", n_cols, 1)
    k = _require_count("k", k, 1)
    if max(n_rows * k, k * n_cols, n_rows * n_cols) > MAX_FIMI_CELLS:
        raise ValueError(f"a {n_rows}x{k} by {k}x{n_cols} product has a matrix of more "
                         f"than {MAX_FIMI_CELLS} cells")
    if grade_distribution is None:
        if scale.levels > MAX_FIMI_CELLS:
            raise ValueError(f"a uniform draw weights {scale.levels} grades, more than "
                             f"{MAX_FIMI_CELLS}")
        p = np.full(scale.levels, 1.0 / scale.levels)
    else:
        p = np.asarray(grade_distribution, dtype=float)
        if p.shape != (scale.levels,):
            raise ValueError(
                f"distribution needs one weight per grade ({scale.levels}), got shape {p.shape}"
            )
        # a weight past [0, 1], NaN included, is refused before the sum,
        # which would overflow on weights near the float maximum
        if not ((p >= 0) & (p <= 1)).all() or not math.isclose(p.sum(), 1.0, abs_tol=1e-9):
            raise ValueError("distribution weights must be nonnegative and sum to 1")
        p = p / p.sum()
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    left = GradedMatrix(scale, rng.choice(scale.levels, size=(n_rows, k), p=p))
    right = GradedMatrix(scale, rng.choice(scale.levels, size=(k, n_cols), p=p))
    return compose(left, right)
