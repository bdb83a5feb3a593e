"""Discretization, CSV and transaction-file IO, and random instances."""

import re
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
import oracles
import strategies
from gradefactor import (
    ColumnRange,
    GradedMatrix,
    RawTable,
    Scale,
    compose,
    discretize,
    find_factors,
    optimal_factorization,
    random_factorizable,
    read_csv,
    read_fimi,
    read_ranges_csv,
    read_raw_csv,
    write_csv,
)
from gradefactor import data

FIVE = Scale(5)


# ---------------------------------------------------------------- discretize


def test_decathlon_discretization_matches_all_cells(decathlon):
    got = discretize(golden.raw_table(), golden.ranges(), FIVE)
    assert got == decathlon


def test_discretize_rounds_half_up():
    table = oracles.raw_table(("r",), ("c",), ((Fraction(1, 8),),))
    ranges = ColumnRange((Fraction(0),), (Fraction(1),))
    assert discretize(table, ranges, FIVE).entries[0, 0] == 1


def test_discretize_strict_rejects_out_of_range():
    table = oracles.raw_table(("r",), ("c",), ((Fraction(2),),))
    ranges = ColumnRange((Fraction(0),), (Fraction(1),))
    with pytest.raises(ValueError, match="outside"):
        discretize(table, ranges, FIVE)
    lenient = discretize(table, ranges, FIVE, mode="lenient")
    assert lenient.entries[0, 0] == FIVE.max_level


def test_discretize_validates_mode_and_width():
    table = golden.raw_table()
    with pytest.raises(ValueError, match="unknown mode"):
        discretize(table, golden.ranges(), FIVE, mode="fuzzy")
    narrow = ColumnRange((Fraction(0),), (Fraction(1),))
    with pytest.raises(ValueError, match="column ranges"):
        discretize(table, narrow, FIVE)


def test_discretize_is_monotone_within_a_column():
    lo, hi = Fraction(0), Fraction(10)
    column = [Fraction(v, 3) for v in range(31)]
    table = oracles.raw_table(
        tuple(str(i) for i in range(len(column))),
        ("c",),
        tuple((v,) for v in column),
    )
    graded = discretize(table, ColumnRange((lo,), (hi,)), FIVE)
    levels = graded.entries[:, 0]
    assert all(a <= b for a, b in zip(levels, levels[1:]))


def test_column_range_validation():
    with pytest.raises(ValueError, match="empty or constant"):
        ColumnRange((Fraction(1),), (Fraction(1),))
    with pytest.raises(ValueError, match="one low and one high"):
        ColumnRange((Fraction(0),), (Fraction(1), Fraction(2)))
    with pytest.raises(ValueError, match="at least one column"):
        ColumnRange((), ())


def test_column_range_from_table():
    observed = ColumnRange.from_table(golden.raw_table())
    assert observed.lows == tuple(min(col) for col in zip(*golden.SCORES))
    assert observed.highs == tuple(max(col) for col in zip(*golden.SCORES))


def test_raw_table_validation():
    one = (np.array([1]),)
    with pytest.raises(ValueError, match="at least one row"):
        RawTable((), ("c",), (np.array([], dtype=np.int64),), (1,))
    with pytest.raises(ValueError, match="one denominator per column label"):
        RawTable(("r",), ("c",), (), ())
    with pytest.raises(ValueError, match="one denominator per column label"):
        RawTable(("r",), ("c", "d"), one * 2, (1,))
    with pytest.raises(ValueError, match="one numerator per row label"):
        RawTable(("r", "s"), ("c",), one, (1,))
    with pytest.raises(ValueError, match="int64 or object"):
        RawTable(("r",), ("c",), (np.array([0.5]),), (1,))
    with pytest.raises(ValueError, match="denominators must be positive"):
        RawTable(("r",), ("c",), one, (0,))
    shape = "^an int64 column takes one denominator, an object column one per cell$"
    with pytest.raises(ValueError, match=shape):
        RawTable(("r", "s"), ("c",), (np.array([1, 2], dtype=np.int64),), (np.array([3, 3]),))
    with pytest.raises(ValueError, match=shape):
        RawTable(("r", "s"), ("c",), (np.array([1, 2], dtype=object),), (3,))


# ---------------------------------------------------------------- CSV


def test_read_graded_csv_fixture(graded_csv, decathlon):
    assert read_csv(graded_csv, FIVE) == decathlon


def test_csv_round_trip(tmp_path, decathlon):
    path = tmp_path / "m.csv"
    write_csv(decathlon, path)
    assert read_csv(path, FIVE) == decathlon


@given(strategies.contexts(max_rows=4, max_cols=4, kinds=("lukasiewicz",)))
@settings(max_examples=40)
def test_csv_round_trip_any_chain(tmp_path_factory, ctx):
    path = strategies.example_dir(tmp_path_factory, "round-trip") / "m.csv"
    write_csv(ctx, path)
    assert read_csv(path, ctx.scale) == ctx


def test_write_csv_uses_level_syntax_when_needed(tmp_path):
    seven = Scale(7)
    m = GradedMatrix(seven, [[0, 1, 3, 6]])
    path = tmp_path / "m.csv"
    write_csv(m, path)
    assert path.read_text() == "0,L1,0.5,1\n"
    assert read_csv(path, seven) == m


def test_read_csv_accepts_level_syntax(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("L0,L2\nL4,0.5\n")
    assert read_csv(path, FIVE).entries.tolist() == [[0, 2], [4, 2]]


def test_level_syntax_takes_the_digits_int_takes(tmp_path):
    # Arabic-Indic three is a decimal digit; a superscript two is a digit
    # that int() refuses, so its cell is a bad level and, alone, a name
    path = tmp_path / "m.csv"
    path.write_text("L1,L2\nL3,L٣\n", encoding="utf-8")
    assert read_csv(path, FIVE).entries.tolist() == [[1, 2], [3, 3]]
    path.write_text("L1,L2\nL3,L²\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape("column 2: bad level syntax 'L²' (line 2)")):
        read_csv(path, FIVE)
    assert data._cell_kind("L²") == "name"


@pytest.mark.parametrize("text", ["L9,L10\nL1,L2\nL3,L4\n", "L9,0.5\nL7,0.25\n"],
                         ids=["header", "labels"])
@pytest.mark.parametrize("mode", ["strict", "lenient"])
def test_a_level_past_the_chain_is_a_bad_cell(tmp_path, text, mode):
    # L and digits are a grade by their shape on every chain, so a level
    # past the chain is a bad cell, never a header or a label column whose
    # row or column is dropped
    path = tmp_path / "m.csv"
    path.write_text(text)
    message = f"{path}: bad grade at row 1, column 1: grade level must be at most 4, got 9 (line 1)"
    for read in (read_csv, oracles.read_csv):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            read(path, FIVE, mode=mode)


def test_read_csv_autodetects_labels(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("name,a,b\nx,0.25,0.5\ny,1,0\n")
    m = read_csv(path, FIVE)
    assert m.entries.tolist() == [[1, 2], [4, 0]]


def test_read_csv_mixed_first_row_is_data_not_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("0.5,nan\n1,0\n")
    with pytest.raises(ValueError, match="row 1, column 2.*'nan'"):
        read_csv(path, FIVE)
    path.write_text("0.5,nan\n")
    with pytest.raises(ValueError, match="row 1, column 2.*'nan'"):
        read_csv(path, FIVE)
    # a labeled first row without a header keeps its grades
    path.write_text("x,0.25,0.5\ny,1,0\n")
    assert read_csv(path, FIVE).entries.tolist() == [[1, 2], [4, 0]]


@pytest.mark.parametrize("mode", ["strict", "lenient"])
@pytest.mark.parametrize("header", ["id,2019,2020", "name,1,2", "id,0.5,-1"])
def test_read_csv_numeric_column_names_mark_a_header(tmp_path, mode, header):
    path = tmp_path / "m.csv"
    path.write_text(f"{header}\nx,0.25,0.5\ny,1,0\n")
    assert read_csv(path, FIVE, mode=mode).entries.tolist() == [[1, 2], [4, 0]]


def test_read_csv_strict_vs_lenient(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("0.3\n")
    with pytest.raises(ValueError, match="bad grade at row 1, column 1"):
        read_csv(path, FIVE)
    assert read_csv(path, FIVE, mode="lenient").entries[0, 0] == 1


def test_read_csv_garbage_and_shape_errors(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty file"):
        read_csv(path, FIVE)
    path.write_text("0.5,1\n0.25\n")
    with pytest.raises(ValueError, match="row 2 has 1 cells"):
        read_csv(path, FIVE)
    path.write_text("a,b\nc,d\n")
    with pytest.raises(ValueError):
        read_csv(path, FIVE)


@pytest.mark.parametrize("read", [lambda path: read_csv(path, FIVE), read_raw_csv],
                         ids=["read_csv", "read_raw_csv"])
def test_header_only_file_has_no_data_rows(tmp_path, read):
    path = tmp_path / "h.csv"
    path.write_text("id,a,b\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no data rows$"):
        read(path)


@pytest.mark.parametrize("read", [lambda path: read_csv(path, FIVE), read_raw_csv],
                         ids=["read_csv", "read_raw_csv"])
def test_label_only_file_has_no_data_columns(tmp_path, read):
    path = tmp_path / "l.csv"
    path.write_text("id\nr1\nr2\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no data columns$"):
        read(path)


@pytest.mark.parametrize("read", [lambda path: read_csv(path, FIVE), read_raw_csv,
                                  read_ranges_csv, read_fimi],
                         ids=["read_csv", "read_raw_csv", "read_ranges_csv", "read_fimi"])
def test_undecodable_file_is_named(tmp_path, read):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"1,2\n3,\xff\n")
    with pytest.raises(ValueError) as info:
        read(path)
    assert str(info.value) == (f"{path}: line 2, byte 6: 'utf-8' codec can't decode byte 0xff: "
                               "invalid start byte")
    # past the decoder's first chunk the offset is still the file's: a
    # 30,009-byte file whose last byte is the bad one
    path.write_bytes(b"1,2\n" * 7502 + b"\xff")
    assert path.stat().st_size == 30_009
    with pytest.raises(ValueError) as info:
        read(path)
    assert str(info.value) == (f"{path}: line 7503, byte 30008: 'utf-8' codec can't decode "
                               "byte 0xff: invalid start byte")
    # a sequence cut short names all of its bytes; CR LF is one line break
    path.write_bytes(b"1,2\r\n3,\xe2\x82")
    with pytest.raises(ValueError) as info:
        read(path)
    assert str(info.value) == (f"{path}: line 2, byte 7: 'utf-8' codec can't decode "
                               "bytes 0xe2 0x82: unexpected end of data")


# the calls a read makes of `_split_bytes`, `_read_rows`, csv.reader and
# `_decode`: the byte pass alone, or csv.reader on the decoded text
BYTES, READER = (1, 0, 0, 0), (0, 1, 1, 1)


@pytest.mark.parametrize("read", [lambda path: read_csv(path, FIVE), read_raw_csv,
                                  read_ranges_csv],
                         ids=["read_csv", "read_raw_csv", "read_ranges_csv"])
@pytest.mark.parametrize("text, error, calls", [
    ("a,b\n0,0.5\n1,1\n", None, BYTES),
    ("a,b\n0,0.5\n1,x\n", "at row 2, column 2: cannot read 'x' as a number (line 3)", BYTES),
    ('a,b\n0,0.5\n"1",x\n', "at row 2, column 2: cannot read 'x' as a number (line 3)", READER),
    ("a,b\n0,0.5\n1,1,1\n", "row 2 has 3 cells, expected 2 (line 3)", BYTES),
    ('a,b\n0,0.5\n"1",1,1\n', "row 2 has 3 cells, expected 2 (line 3)", READER),
], ids=["good", "bad-cell", "quoted-bad-cell", "ragged", "quoted-ragged"])
def test_a_csv_file_is_read_once(tmp_path, read, text, error, calls):
    # a bad cell's line is found in the text already read, so a pipe,
    # which can be read only once, is named as a file is; a refused table,
    # ragged rows included, is split once and its line found from that
    # split, so csv.reader runs, and the file is decoded, only for a quote
    assert_read_once(tmp_path, read, text.encode(), error, calls)


@pytest.mark.parametrize("read", [read_raw_csv, read_ranges_csv],
                         ids=["read_raw_csv", "read_ranges_csv"])
def test_a_blank_csv_file_is_read_once(tmp_path, read):
    # blank lines alone leave no row: the byte pass splits them, and the
    # table is refused as empty from that split
    assert_read_once(tmp_path, read, b"\n\n", "empty file", BYTES)


LIMIT = 131072  # csv.field_size_limit() at its default, 128 KiB


@pytest.mark.parametrize("read, oracle", [
    (lambda path: read_csv(path, FIVE).entries.tolist(),
     lambda path: oracles.read_csv(path, FIVE).entries.tolist()),
    (lambda path: oracles.table_values(read_raw_csv(path)),
     lambda path: oracles.table_values(oracles.read_raw_csv(path))),
], ids=["read_csv", "read_raw_csv"])
@pytest.mark.parametrize("content, error, calls", [
    (b"a,b\n0,1\n1," + b"7" * (LIMIT + 1) + b"\n",
     f"line 3: field larger than field limit ({LIMIT})", BYTES),
    (("a,b\n" + "\u00e9" * 70_000 + ",1\n").encode(), None, (1, 0, 0, 1)),
    ("a,b\n0.5,\u00a01\n1,0\n".encode(), None, READER),
    (b"a,b\n0.5,1\n1,\xff\n",
     "line 3, byte 12: 'utf-8' codec can't decode byte 0xff: invalid start byte", (0, 0, 0, 1)),
], ids=["long-field", "long-non-ascii-field", "nbsp", "bad-byte"])
def test_a_csv_file_is_decoded_and_split_once(tmp_path, read, oracle, content, error, calls):
    # one rule picks the splitter from the bytes and from the one text
    # `_decode` gives a file past ASCII: a field past csv's limit in
    # characters is refused by the byte pass itself, with csv.reader's text
    # and line, a field under it in characters but over it in bytes is read
    # by the byte pass, a file padded with U+00A0 is decoded once for
    # csv.reader, and a bad byte is named by `_decode` before any split
    result = assert_read_once(tmp_path, read, content, error, calls)
    if error is None:
        assert result == oracle(tmp_path / "t.csv")


def assert_read_once(tmp_path, read, content, error, calls):
    """`read` of a file of bytes `content` reads them once, raises a
    ValueError whose message ends in `error`, unless that is None, and
    makes `calls`: its numbers of calls of `_split_bytes`, `_read_rows`,
    csv.reader and `_decode`.  Returns what `read` returns."""
    path = tmp_path / "t.csv"
    path.write_bytes(content)
    result = None
    with mock.patch.object(Path, "read_bytes", autospec=True,
                           side_effect=Path.read_bytes) as read_bytes, \
            mock.patch.object(data, "_split_bytes", side_effect=data._split_bytes) as split, \
            mock.patch.object(data, "_read_rows", side_effect=data._read_rows) as read_rows, \
            mock.patch.object(data.csv, "reader", side_effect=data.csv.reader) as reader, \
            mock.patch.object(data, "_decode", side_effect=data._decode) as decode:
        if error is None:
            result = read(path)
        else:
            with pytest.raises(ValueError, match=re.escape(error) + "$"):
                read(path)
    assert read_bytes.call_count == 1
    assert tuple(m.call_count for m in (split, read_rows, reader, decode)) == calls
    return result


def test_a_byte_order_mark_is_dropped(tmp_path):
    path = tmp_path / "t.csv"
    # kept, the mark made "894" a name: a header row, and one row lost
    path.write_text("\ufeff894,1020\n989,1050\n800,900\n", encoding="utf-8")
    table = read_raw_csv(path)
    assert table.row_labels == ("1", "2", "3") and table.col_labels == ("1", "2")
    assert [column.tolist() for column in table.columns] == [[894, 989, 800], [1020, 1050, 900]]
    path.write_text("\ufeff0.5\n1\n0.25\n", encoding="utf-8")
    assert read_csv(path, FIVE).entries.tolist() == [[2], [4], [1]]
    path.write_text("\ufeff0.5,1\n0,0.25\n", encoding="utf-8")
    assert read_csv(path, FIVE).entries.tolist() == [[2, 4], [0, 1]]
    path.write_text("\ufeff0 1\n1 2\n", encoding="utf-8")
    assert read_fimi(path).entries.tolist() == [[1, 1, 0], [0, 1, 1]]
    # an undecodable byte's offset still counts the mark's three bytes
    path.write_bytes("\ufeff1,2\n3,".encode() + b"\xff\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2, byte 9: "):
        read_raw_csv(path)


def test_read_raw_csv_fixture(scores_csv):
    table = read_raw_csv(scores_csv)
    assert table.row_labels == golden.ATHLETES
    assert table.col_labels == golden.EVENTS
    assert table.denominators == (1,) * len(golden.EVENTS)
    assert all(column.dtype == np.int64 for column in table.columns)
    assert [column.tolist() for column in table.columns] == [list(c) for c in zip(*golden.SCORES)]


def test_read_raw_csv_synthesizes_labels(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("1,2\n3,4\n")
    table = read_raw_csv(path)
    # from 1, as graded CSV errors count rows and columns
    assert table.row_labels == ("1", "2")
    assert table.col_labels == ("1", "2")
    assert oracles.table_values(table) == ((Fraction(1), Fraction(2)), (Fraction(3), Fraction(4)))


def test_read_raw_csv_rejects_bad_number(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("h1,h2\n1,x\n")
    with pytest.raises(ValueError, match="bad number at row 1, column 2: "):
        read_raw_csv(path)


def test_read_raw_csv_names_the_first_bad_row(tmp_path):
    # the later column's bad cell is in the earlier row: rows are searched
    # in order, not columns
    path = tmp_path / "t.csv"
    path.write_text("id,a,b\nr1,1.50,2.25\nr2,2.50,x\nr3,1/0,3.25\n")
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(path))}: bad number at row 2, column 2: "):
        read_raw_csv(path)
    path.write_text("id,a,b\nr1,1.50,2.25\nr2,y,x\n")
    with pytest.raises(ValueError, match="bad number at row 2, column 1: .*'y'"):
        read_raw_csv(path)
    # a quoted cell holding a line break is one bad cell, not two good ones
    path.write_text('id,a\nr1,3.50\nr2,"1.50\n2.50"\n')
    with pytest.raises(ValueError, match="bad number at row 2, column 1: "):
        read_raw_csv(path)


@pytest.mark.parametrize("read, text, error", [
    (read_raw_csv, "a,b\n1,2\n3,4\n3..5,6\n", "bad number at row 3, column 1: "),
    (lambda path: read_csv(path, FIVE), "a,b\n1,0.5\n0,1\n0..5,1\n",
     "bad grade at row 3, column 1: "),
], ids=["read_raw_csv", "read_csv"])
def test_a_typo_in_the_first_column_is_a_bad_cell(tmp_path, read, text, error):
    # a number or grade first in the column makes it data, not labels
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {error}")):
        read(path)
    oracle = oracles.read_raw_csv if read is read_raw_csv else (
        lambda path: oracles.read_csv(path, FIVE))
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {error}")):
        oracle(path)
    # a name first in the column still makes it labels, and then the
    # later cells of that column are labels too
    path.write_text(text.replace("\n1,", "\nr1,"))
    assert read(path).shape == (3, 1)


def test_read_ranges_csv_fixture(ranges_csv):
    assert read_ranges_csv(ranges_csv) == golden.ranges()


def test_read_ranges_csv_needs_two_rows(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("c\n1\n2\n3\n")
    with pytest.raises(ValueError, match="exactly two rows"):
        read_ranges_csv(path)


def test_end_to_end_discretize_from_files(scores_csv, ranges_csv, decathlon):
    table = read_raw_csv(scores_csv)
    ranges = read_ranges_csv(ranges_csv)
    assert discretize(table, ranges, FIVE) == decathlon


# ---------------------------------------------------------------- transactions


def test_read_fimi_with_explicit_width(tmp_path):
    path = tmp_path / "t.dat"
    path.write_text("0 2\n1\n\n2 2 0\n")
    m = read_fimi(path, num_items=4)
    assert m.scale.levels == 2
    assert m.entries.tolist() == [
        [1, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 0],
        [1, 0, 1, 0],
    ]


def test_read_fimi_compacts_sparse_ids(tmp_path):
    path = tmp_path / "t.dat"
    path.write_text("3 9\n7\n")
    m = read_fimi(path)
    assert m.shape == (2, 3)
    assert m.entries.tolist() == [[1, 0, 1], [0, 1, 0]]


def test_read_fimi_validation(tmp_path):
    path = tmp_path / "t.dat"
    path.write_text("0 5\n")
    with pytest.raises(ValueError, match="exceeds num_items"):
        read_fimi(path, num_items=3)
    with pytest.raises(ValueError, match="^num_items must be at least 1, got 0$"):
        read_fimi(path, num_items=0)
    with pytest.raises(ValueError, match="Boolean"):
        read_fimi(path, scale=FIVE)
    path.write_text("1 x\n")
    with pytest.raises(ValueError, match="bad item id 'x' on line 1"):
        read_fimi(path)
    path.write_text("-1\n")
    with pytest.raises(ValueError, match="negative item id"):
        read_fimi(path)
    path.write_text("")
    with pytest.raises(ValueError, match="empty file"):
        read_fimi(path)
    path.write_text("\n\n")
    with pytest.raises(ValueError, match="no items"):
        read_fimi(path)


def test_read_fimi_refuses_grids_past_the_cell_limit(tmp_path, monkeypatch):
    path = tmp_path / "t.dat"
    path.write_text("0 2\n1\n")
    monkeypatch.setattr(data, "MAX_FIMI_CELLS", 6)
    assert read_fimi(path, num_items=3).shape == (2, 3)
    with pytest.raises(ValueError, match="cannot allocate a grid of 2 rows x num_items=4 columns"):
        read_fimi(path, num_items=4)


def test_read_fimi_accepts_boolean_scale(tmp_path):
    path = tmp_path / "t.dat"
    path.write_text("0\n")
    m = read_fimi(path, num_items=1, scale=Scale.boolean("godel"))
    assert m.scale.tnorm_kind == "godel"


# ---------------------------------------------------------------- random


def test_random_factorizable_is_deterministic():
    a = random_factorizable(6, 7, 3, FIVE, seed=42)
    b = random_factorizable(6, 7, 3, FIVE, seed=42)
    c = random_factorizable(6, 7, 3, FIVE, seed=43)
    assert a == b
    assert a.shape == (6, 7)
    assert a != c


def test_random_factorizable_accepts_generator():
    rng = np.random.default_rng(1)
    a = random_factorizable(3, 3, 2, FIVE, seed=rng)
    b = random_factorizable(3, 3, 2, FIVE, seed=np.random.default_rng(1))
    assert a == b


def test_random_factorizable_has_bounded_optimum():
    # the product of n x k and k x m factors never needs more than k concepts
    for seed in range(5):
        m = random_factorizable(4, 4, 2, FIVE, seed=seed)
        assert len(optimal_factorization(m).factors) <= 2
        assert find_factors(m).complete


def test_random_factorizable_respects_distribution():
    # factors drawn from {0.5, 0.75} compose to at most 0.5 under lukasiewicz
    mid_only = (0.0, 0.0, 0.5, 0.5, 0.0)
    m = random_factorizable(10, 10, 3, FIVE, grade_distribution=mid_only, seed=0)
    assert 0 < m.entries.max() <= 2


@pytest.mark.parametrize("shape", [(4, 4, 3), (3, 4, 4), (4, 1, 4)],
                         ids=["left", "right", "product"])
def test_random_factorizable_refuses_a_matrix_past_the_grid_bound(monkeypatch, shape):
    # each of n x k, k x m and n x m is bounded before anything is drawn
    monkeypatch.setattr(data, "MAX_FIMI_CELLS", 12)
    n_rows, k, n_cols = shape
    assert random_factorizable(3, 3, 4, FIVE).shape == (3, 3)
    with pytest.raises(ValueError, match=f"a {n_rows}x{k} by {k}x{n_cols} product has a "
                                         "matrix of more than 12 cells"):
        random_factorizable(n_rows, n_cols, k, FIVE)


def test_a_uniform_draw_refuses_a_chain_past_the_grid_bound(monkeypatch):
    # the uniform draw weights each grade with a float, 16 GiB at
    # MAX_LEVELS; a given distribution already holds a weight per grade
    monkeypatch.setattr(data, "MAX_FIMI_CELLS", 10)
    assert random_factorizable(2, 2, 1, Scale(10)).shape == (2, 2)
    with pytest.raises(ValueError, match="^a uniform draw weights 12 grades, more than 10$"):
        random_factorizable(2, 2, 1, Scale(12))
    assert random_factorizable(2, 2, 1, Scale(12), grade_distribution=[1 / 12] * 12).shape == (2, 2)


def test_random_factorizable_validation():
    with pytest.raises(ValueError, match="^n_rows must be at least 1, got 0$"):
        random_factorizable(0, 3, 1, FIVE)
    with pytest.raises(ValueError, match="^n_cols must be at least 1, got 0$"):
        random_factorizable(3, 0, 1, FIVE)
    with pytest.raises(ValueError, match="^k must be at least 1, got 0$"):
        random_factorizable(3, 3, 0, FIVE)
    with pytest.raises(ValueError, match="one weight per grade"):
        random_factorizable(3, 3, 1, FIVE, grade_distribution=(0.5, 0.5))
    with pytest.raises(ValueError, match="sum to 1"):
        random_factorizable(3, 3, 1, FIVE, grade_distribution=(0.9, 0.2, 0, 0, 0))
    with pytest.raises(ValueError, match="sum to 1"):
        random_factorizable(3, 3, 1, FIVE, grade_distribution=(1.2, -0.2, 0, 0, 0))
