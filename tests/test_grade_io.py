"""Grade I/O against the per-cell reference in `oracles`, and reader fuzzing.

`read_csv` looks a chain's canonical texts up by their bytes in a hash
kept per chain and parses each other distinct cell once per read,
`write_csv` prints levels by one gather from a byte table that follows
the levels that occur, kept per chain, `read_raw_csv` stores integer
columns and `discretize` rounds them column-wide; each must match the
per-cell Fraction code level for level (byte for byte when writing), or
raise the same error.  The gather must join the texts its keys pick as a
loop over the keys does.  The byte pass must split each file one rule
sends it into csv.reader's rows, or raise csv.reader's error, and read
its cells, split either way, without decoding what it can key or parse
from bytes, and the one-pass transaction parser the reference reader's
grid, or the same error.  The decimal parser must agree with Fraction(text) on every text.
The readers must turn any input into a result or a ValueError.
"""

import io
import json
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from gradefactor import (
    MAX_LEVELS,
    TNORM_KINDS,
    ColumnRange,
    FactorSet,
    GradedMatrix,
    RawTable,
    Scale,
    discretize,
    read_csv,
    read_fimi,
    read_raw_csv,
    write_csv,
)
from gradefactor import cli, data
from gradefactor.data import (_decode, _parse_fraction, _parse_number, _raw_column, _read_rows,
                              _split_bytes, _texts)

MODES = ("strict", "lenient")
# cells no mode reads as a grade on any chain up to 101 levels
JUNK = ("x", "nan", "inf", "", "1/0", "L", "Lx", "L-1", "L102", "0.5.5", "--1", "1e99999")


def outcome(fn, *args, **kwargs):
    """The levels a call returns, or the text of the ValueError it raises."""
    try:
        return fn(*args, **kwargs).entries.tolist()
    except ValueError as exc:
        return f"ValueError: {exc}"


def scales():
    return st.builds(
        lambda levels, kind: Scale(levels, kind, rounded=kind == "goguen"),
        st.integers(2, 101),
        st.sampled_from(TNORM_KINDS),
    )


# ---------------------------------------------------------------- write_csv


@st.composite
def matrices(draw):
    scale = draw(scales())
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(0, 5))
    level = st.integers(0, scale.max_level)
    cells = draw(st.lists(level, min_size=rows * cols, max_size=rows * cols))
    return GradedMatrix(scale, np.array(cells, dtype=np.int64).reshape(rows, cols))


@given(matrices())
@settings(max_examples=150)
def test_write_csv_matches_oracle_byte_for_byte(tmp_path_factory, matrix):
    folder = strategies.example_dir(tmp_path_factory, "write")
    write_csv(matrix, folder / "fast.csv")
    oracles.write_csv(matrix, folder / "oracle.csv")
    assert (folder / "fast.csv").read_bytes() == (folder / "oracle.csv").read_bytes()
    if matrix.n_cols:
        assert read_csv(folder / "fast.csv", matrix.scale) == matrix


@pytest.mark.parametrize("levels", [2, 11, 65, 4097, 262145, MAX_LEVELS])
def test_write_csv_matches_oracle_on_long_chains_and_tall_inputs(tmp_path, levels):
    # the last column's cells take the table's second half, and 3,000 rows
    # of 3 cells are printed in three blocks.  The table holds every level
    # up to the top on 2 and 11 levels, and the levels that occur, found by
    # np.unique, on the others: all of them on 65, most of them on 4097
    # and a few of them on the long chains
    scale = Scale(levels)
    n = scale.max_level
    rng = np.random.default_rng(levels)
    entries = rng.integers(0, n + 1, size=(3000, 3))
    entries[:3] = [[0, n, n // 2], [n, 1, n], [n // 3, 0, 0]]
    matrix = GradedMatrix(scale, entries)
    write_csv(matrix, tmp_path / "fast.csv")
    oracles.write_csv(matrix, tmp_path / "oracle.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_write_csv_zero_width_rows(tmp_path):
    path = tmp_path / "a.csv"
    write_csv(GradedMatrix(Scale(5), np.zeros((3, 0), dtype=np.int64)), path)
    assert path.read_bytes() == b"\n\n\n"


# level texts as the writers print them: canonical grades, up to the
# longest text of a MAX_LEVELS chain, and the ints of factors.json, each
# with a CSV or a JSON separator, or none, as the last int of a JSON list
LEVEL_TEXTS = st.one_of(
    st.builds(lambda levels, level: Scale(levels).format_level(level % levels),
              st.integers(2, 101), st.integers(0, 100)),
    st.just(Scale(MAX_LEVELS).format_level(MAX_LEVELS - 2)),
    st.integers(0, 10**6).map(str),
)
SEPARATORS = (",", "\n", ",\n        ", "")
KEY_SHAPES = st.one_of(st.sampled_from([(0, 4), (3, 0), (0, 0), (1, 1)]),
                       st.tuples(st.integers(1, 5), st.integers(1, 5)))


@pytest.mark.deep
@given(st.lists(st.tuples(LEVEL_TEXTS, st.sampled_from(SEPARATORS)), min_size=1, max_size=8),
       st.booleans(), KEY_SHAPES, st.data())
@settings(max_examples=strategies.examples(300))
def test_join_texts_matches_oracle(pairs, equal, shape, draws):
    # texts of unequal lengths are gathered through a padded table and its
    # mask, texts of one length (here padded with zeros) without one
    texts = [(text + sep).encode() for text, sep in pairs]
    if equal:
        texts = [text.rjust(max(map(len, texts)), b"0") for text in texts]
    cells = draws.draw(st.lists(st.integers(0, len(texts) - 1), min_size=shape[0] * shape[1],
                                max_size=shape[0] * shape[1]))
    keys = np.array(cells, dtype=np.intp).reshape(shape)
    assert data._join_texts(keys, data._text_table(texts)) == oracles.join_texts(texts, keys)


def test_printing_on_the_longest_chain_builds_no_table_over_it(tmp_path):
    # a 2x2 matrix of a MAX_LEVELS chain, written as CSV and as the factors
    # of a report, prints through tables over its four levels alone
    n = MAX_LEVELS - 1
    matrix = GradedMatrix(Scale(MAX_LEVELS), np.array([[0, n], [n - 1, 12345]]))
    report = {"factors": FactorSet(matrix, matrix, (2, 1, 0))}

    def write():
        write_csv(matrix, tmp_path / "fast.csv")
        cli._write_json(tmp_path / "fast.json", report)

    write()  # fills the per-process cache of grade texts the traced write reads
    tracemalloc.start()
    try:
        write()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    oracles.write_csv(matrix, tmp_path / "oracle.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    lists = {"factors": [{"extent": column.tolist(), "intent": row.tolist()}
                         for column, row in zip(matrix.entries.T, matrix.entries)]}
    assert (tmp_path / "fast.json").read_text() == json.dumps(lists, indent=2, sort_keys=True) + "\n"
    assert peak < 10**6


LONG_CHAIN_PRINTS = """
import sys
from pathlib import Path

import numpy as np

from gradefactor import FactorSet, GradedMatrix, Scale, cli, write_csv

folder = Path(sys.argv[1])
scale = Scale(201)
a = GradedMatrix(scale, np.arange(600).reshape(300, 2) % 201)
b = GradedMatrix(scale, [[200, 64, 0], [1, 2, 3]])
write_csv(a, folder / "A.csv")
cli._write_json(folder / "factors.json", {"factors": FactorSet(a, b, (9, 1, 0))})
print("numpy.ma" in sys.modules)
"""


def test_printing_past_the_kept_tables_leaves_numpy_ma_unimported(tmp_path):
    # a plain np.unique imports numpy.ma on its first call in a process,
    # about 6 ms; the levels of 64 or more, in A.csv and in the report's
    # extents and intents, go through the np.unique that keys the table
    result = subprocess.run([sys.executable, "-c", LONG_CHAIN_PRINTS, str(tmp_path)],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


# ---------------------------------------------------------------- read_csv


@st.composite
def grade_text(draw, scale: Scale, bad: bool):
    """One cell: a grade in a canonical or non-canonical spelling, or, with
    `bad`, also off-grid, out-of-range and unparsable cells."""
    n = scale.max_level
    k = draw(st.integers(0, n))
    kinds = ["canonical", "level", "fraction", "decimal", "float"]
    if bad:
        kinds += ["between", "outside", "junk"]
    kind = draw(st.sampled_from(kinds))
    canonical = scale.format_level(k)
    if kind == "canonical":
        return canonical
    if kind == "level":
        return f"L{k:0{draw(st.integers(1, 4))}d}"
    if kind == "fraction":
        m = draw(st.integers(1, 3))
        return f"{k * m}/{n * m}"
    if kind == "decimal" and not canonical.startswith("L"):
        # 0.50, .5, 1.0, +0.5 and 5e-1 name the same grade as 0.5
        whole, _, frac = canonical.partition(".")
        frac += "0" * draw(st.integers(0 if frac else 1, 2))
        sign = draw(st.sampled_from(["", "+"]))
        if draw(st.booleans()) and whole == "0" and frac:
            return f"{sign}.{frac}"
        if draw(st.booleans()) and frac.strip("0"):
            digits = frac.rstrip("0")
            return f"{sign}{int(whole + digits)}e-{len(digits)}"
        return f"{sign}{whole}.{frac}"
    if kind == "between":
        # an exact half step between two grades, or any point between them
        if draw(st.booleans()) or k == n:
            return f"{2 * k - 1 if k else 1}/{2 * n}"
        q = draw(st.integers(2, 9))
        return str(Fraction(k, n) + Fraction(draw(st.integers(1, q - 1)), q * n))
    if kind == "outside":
        return draw(st.sampled_from(["1.5", "-0.25", "2", "-1/3", "4/3", "1.0000001"]))
    if kind == "junk":
        return draw(st.sampled_from(JUNK))
    # "float", and "decimal" for a grade with no short decimal: the float's
    # shortest repr lies within the parse tolerance of the grade
    return repr(k / n)


@st.composite
def grade_files(draw):
    """A graded table on a chain of up to 101 grades, canonical texts among
    other spellings, ``L<k>``, off-chain values and bad cells, a canonical
    text with a NUL after it among them, with an optional label column
    (`add_labels`), header row of names or of years, and ragged row, in a
    `csv_layout`."""
    kind = draw(st.sampled_from(TNORM_KINDS))
    scale = Scale(draw(st.sampled_from([2, 3, 5, 11, 64, 65, 101])), kind,
                  rounded=kind == "goguen")
    bad = draw(st.booleans())
    cell = grade_text(scale, bad)
    width = draw(st.integers(1, 5))
    grid = [[draw(cell) for _ in range(width)] for _ in range(draw(st.integers(1, 5)))]
    if bad and draw(st.booleans()):
        grid[draw(st.integers(0, len(grid) - 1))][draw(st.integers(0, width - 1))] = \
            scale.format_level(draw(st.integers(0, scale.max_level))) + "\0"
    grid = add_labels(draw, grid)
    header = draw(st.sampled_from(["none", "names", "years"]))
    width = len(grid[0])
    if header == "names":
        grid.insert(0, [f"c.{j}" for j in range(width)])
    elif header == "years":
        grid.insert(0, ["id"] + [str(2019 + j) for j in range(width - 1)])
    add_ragged_row(draw, grid, cell)
    return scale, draw(csv_layout(grid))


def add_ragged_row(draw, grid, cell):
    """Sometimes put one row a cell wider or narrower than the first
    anywhere in `grid`, so a reader names a ragged row."""
    if draw(st.integers(0, 4)) == 0:
        cells = draw(st.sampled_from([len(grid[0]) - 1, len(grid[0]) + 1]).filter(bool))
        grid.insert(draw(st.integers(0, len(grid))), [draw(cell) for _ in range(cells)])


@pytest.mark.deep
@given(grade_files(), st.sampled_from(MODES))
@settings(max_examples=strategies.examples(400))
def test_read_csv_matches_oracle(tmp_path_factory, case, mode):
    # split by bytes or, quoted, by csv.reader, and read by one interpreter
    scale, text = case
    path = strategies.example_dir(tmp_path_factory, "read") / "m.csv"
    path.write_bytes(text)
    got = outcome(read_csv, path, scale, mode=mode)
    assert got == outcome(oracles.read_csv, path, scale, mode=mode)


@pytest.mark.parametrize("text, where", [
    ("0.5,1\n0.25,x\n1,x\n", "row 2, column 2"),
    ("0.5,1\n0.25,0\n1,x\n", "row 3, column 2"),
    ("0.5,x,x\n1,0,0\n", "row 1, column 2"),
    ("x,0.5\n0.25,1\n", "row 1, column 1"),
    ("name,a,b\nr1,0.5,1\nr2,1/0,0\nr3,1/0,1\n", "row 2, column 1"),
    ("0.5,1\n0.25,0.3\n0.3,1\n", "row 2, column 2"),
])
def test_read_csv_names_the_first_bad_cell(tmp_path, text, where):
    path = tmp_path / "m.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=where):
        read_csv(path, Scale(5))
    assert outcome(read_csv, path, Scale(5)) == outcome(oracles.read_csv, path, Scale(5))


@pytest.mark.parametrize("text, rows", [
    ("", None), ("\ufeff", None), ("\n", 1), ("\r\n\r", 2), ("\r\r\n\n", 3),
    ("\ufeff\n\n", 2), (" \n", None), ("\n,\n", None),
])
def test_line_breaks_alone_read_as_rows_without_columns(tmp_path, text, rows):
    # what write_csv writes for an n x 0 matrix reads back, with CR LF, CR
    # and LF each one break; a zero-byte file, or one that holds anything
    # but breaks, is refused as before
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    got = outcome(read_csv, path, Scale(5))
    assert got == outcome(oracles.read_csv, path, Scale(5))
    if rows is None:
        assert got.startswith("ValueError: ")
    else:
        assert got == [[]] * rows


def read_five(path):
    return read_csv(path, Scale(5))


def oracle_five(path):
    return oracles.read_csv(path, Scale(5))


@pytest.mark.parametrize("read, oracle, text, message", [
    # blank lines and a header count as lines; the cell keeps its text
    (read_five, oracle_five, "0.5,1\n\n1,x\n",
     "bad grade at row 2, column 2: cannot read 'x' as a number (line 3)"),
    (read_five, oracle_five, "a,b\n\n\n0.5,1\n1,nan\n",
     "bad grade at row 2, column 2: cannot read 'nan' as a number (line 5)"),
    (read_five, oracle_five, "a,b\r\n0.5,1\r\r\n1,1.5\r\n",
     "bad grade at row 2, column 2: '1.5' is outside [0, 1] (line 4)"),
    (read_five, oracle_five, "id,a\nr1,0.3\n",
     "bad grade at row 1, column 1: '0.3' is not a grade on a 5-level chain (line 2)"),
    # a quoted cell holding a line break moves the cells after it down a line
    (read_five, oracle_five, 'id,a,b\nr1,"1\n",x\n',
     "bad grade at row 1, column 2: cannot read 'x' as a number (line 3)"),
    (read_five, oracle_five, '"0\n",1/0\n',
     "bad grade at row 1, column 2: cannot read '1/0' as a number (line 2)"),
    (read_raw_csv, oracles.read_raw_csv, "a,b\n1,2\n\n3,x\n",
     "bad number at row 2, column 2: cannot read 'x' as a number (line 4)"),
    (read_raw_csv, oracles.read_raw_csv, 'id,a,b\r\nr1,"2\r\n",3/0\r\n',
     "bad number at row 1, column 2: cannot read '3/0' as a number (line 3)"),
    # lone CR breaks and a blank line, split by bytes; a byte-order mark,
    # CR LF, a blank line and a quote, split by csv.reader; and line breaks
    # that strip removes from a quoted cell before the bad one
    (read_five, oracle_five, "a,b\r\r0.5,1\r1,x\r",
     "bad grade at row 2, column 2: cannot read 'x' as a number (line 4)"),
    (read_raw_csv, oracles.read_raw_csv, "a,b\r\r0.5,1\r1,x\r",
     "bad number at row 2, column 2: cannot read 'x' as a number (line 4)"),
    (read_five, oracle_five, '\ufeffa,b\r\n\r\n"0.5",1\r\n1,x\r\n',
     "bad grade at row 2, column 2: cannot read 'x' as a number (line 4)"),
    (read_raw_csv, oracles.read_raw_csv, '\ufeffa,b\r\n\r\n"0.5",1\r\n1,x\r\n',
     "bad number at row 2, column 2: cannot read 'x' as a number (line 4)"),
    (read_five, oracle_five, 'id,a,b\nr1,"\n\n1",x\n',
     "bad grade at row 1, column 2: cannot read 'x' as a number (line 4)"),
    (read_raw_csv, oracles.read_raw_csv, 'id,a,b\nr1,"\n\n1",x\n',
     "bad number at row 1, column 2: cannot read 'x' as a number (line 4)"),
    # a ragged row is named by its row below the header and the line it
    # starts on, past the header, the blank lines and the line breaks quoted
    # in the rows before it
    (read_five, oracle_five, "a,b\n0.5,1\n\n1,0,1\n", "row 2 has 3 cells, expected 2 (line 4)"),
    # a ragged row is named before a bad cell above it, split by either
    # splitter
    (read_five, oracle_five, "a,b\n0.5,x\n1,0,1\n", "row 2 has 3 cells, expected 2 (line 3)"),
    (read_five, oracle_five, 'a,b\n"0.5",x\n1,0,1\n', "row 2 has 3 cells, expected 2 (line 3)"),
    (read_raw_csv, oracles.read_raw_csv, 'a,b\r\n"1\r\n",2\r\n\r\n3\r\n',
     "row 2 has 1 cells, expected 2 (line 5)"),
])
def test_a_bad_cell_is_named_by_its_file_line(tmp_path, read, oracle, text, message):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode())
    for reader in (read, oracle):
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}") + "$"):
            reader(path)


@given(scales(), st.data())
@settings(max_examples=100)
def test_cell_kind_matches_oracle(scale, draws):
    # the shape of a cell classifies it as the oracle's regex and Fraction do
    text = draws.draw(st.one_of(
        grade_text(scale, bad=True), number_text(), st.sampled_from(EDGE_NUMBERS),
        st.text(max_size=8), st.integers(0, 200).map(lambda k: f"L{k}"),
    ))
    assert data._cell_kind(text) == oracles.cell_kind(text)


# texts whose meaning depends on the chain: 0.5 is level 1 on 3 grades and
# level 2 on 5, 0.25 is refused strictly on 3 grades and rounded leniently,
# L4 is a level on 5 grades and past the chain on 3, 0.2 is a grade of
# none of the chains drawn, and two long spellings of 0.5 and 0.25 are
# never canonical
CHAIN_TEXTS = ("0", "0.5", "0.25", "0.75", "1", "L1", "L2", "L4", "1/3", "0.2", "x",
               "0.50000000000000000000000000000000000000000000000000000000000000000",
               "0.250000000000000000000000000000000000000000000000000000000000000000")


@st.composite
def chain_steps(draw):
    """One read and one write on a drawn chain: the chain, a mode, a grid of
    CHAIN_TEXTS to read and a grid of levels to write."""
    scale = Scale(draw(st.sampled_from([2, 3, 5, 7, 64, 65])))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    texts = draw(st.lists(st.lists(st.sampled_from(CHAIN_TEXTS), min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))
    levels = draw(st.lists(st.integers(0, scale.max_level), min_size=rows * cols,
                           max_size=rows * cols))
    matrix = GradedMatrix(scale, np.array(levels, dtype=np.int64).reshape(rows, cols))
    return scale, draw(st.sampled_from(MODES)), texts, matrix


@pytest.mark.deep
@given(st.lists(chain_steps(), min_size=2, max_size=6))
@settings(max_examples=strategies.examples(200))
def test_grade_texts_keep_their_meaning_across_interleaved_chains(tmp_path_factory, steps):
    # the canonical texts of chains of up to 64 grades are kept per chain
    # and seed every read of the process on that chain, and the byte
    # tables are kept for every write, in both modes; reads on chains of
    # 65 grades keep no text: each read, layout and write matches the
    # per-cell oracle, and a file read again gives the same levels, or a
    # bad cell the same message and line
    folder = strategies.example_dir(tmp_path_factory, "chains")
    for i, (scale, mode, texts, matrix) in enumerate(steps):
        path = folder / f"{i}.csv"
        path.write_text("".join(",".join(row) + "\n" for row in texts))
        got = outcome(read_csv, path, scale, mode=mode)
        assert got == outcome(oracles.read_csv, path, scale, mode=mode)
        assert outcome(read_csv, path, scale, mode=mode) == got
        for text in {text for row in texts for text in row}:
            assert data._cell_kind(text) == oracles.cell_kind(text)
        write_csv(matrix, folder / f"{i}-fast.csv")
        oracles.write_csv(matrix, folder / f"{i}-oracle.csv")
        assert (folder / f"{i}-fast.csv").read_bytes() == (folder / f"{i}-oracle.csv").read_bytes()


def test_a_bad_cell_raises_afresh_on_every_read(tmp_path):
    # no error is cached: each read of a bad cell raises a new error, with
    # the same message and file line, and keeps none from an earlier read
    path = tmp_path / "m.csv"
    path.write_text("0.5,1\n\n1,0.25\n")
    errors = []
    for _ in range(2):
        with pytest.raises(ValueError) as info:
            read_csv(path, Scale(3))
        errors.append(info.value)
    assert str(errors[0]) == str(errors[1]) == (
        f"{path}: bad grade at row 2, column 2: '0.25' is not a grade on a 3-level chain (line 3)")
    assert errors[0].__cause__ is not errors[1].__cause__
    assert read_csv(path, Scale(3), mode="lenient").entries.tolist() == [[1, 2], [2, 1]]


@pytest.mark.parametrize("cell", ["0.5\0", "0\0"])
def test_a_cell_with_a_nul_after_a_canonical_text_is_bad(tmp_path, cell):
    # a key zero-pads a cell's bytes, so a quoted canonical text with a NUL
    # after it keys as that text; it matches only a cell as long as it is
    path = tmp_path / "m.csv"
    path.write_bytes(f'"{cell}",1\n'.encode())
    if sys.version_info >= (3, 11):  # csv.reader keeps a NUL since 3.11
        message = f"bad grade at row 1, column 1: cannot read {cell!r} as a number (line 1)"
    else:
        message = "line 1: line contains NUL"
    for mode in MODES:
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}") + "$"):
            read_csv(path, Scale(5), mode=mode)


def counted_parses(monkeypatch) -> list[str]:
    """The texts `data._parse_grade_cell` is called on from now on."""
    texts = []
    parse = data._parse_grade_cell

    def counting(scale, text, strict):
        texts.append(text)
        return parse(scale, text, strict)

    monkeypatch.setattr(data, "_parse_grade_cell", counting)
    return texts


@pytest.mark.parametrize("levels", [2, 5, 11, 64, 65, 101])
def test_canonical_texts_are_read_without_a_parse_on_chains_up_to_64(tmp_path, monkeypatch,
                                                                      levels):
    # every canonical text of a chain of up to 64 grades, as write_csv
    # prints it, is found in the chain's map in both modes; on a longer
    # chain each distinct text is parsed once per read, and again on the
    # next, since no cell text outlives its read
    scale = Scale(levels)
    matrix = GradedMatrix(scale, np.tile(np.arange(levels), (2, 1)))
    path = tmp_path / "m.csv"
    write_csv(matrix, path)
    parsed = counted_parses(monkeypatch)
    for mode in MODES:
        assert read_csv(path, scale, mode=mode) == matrix
    texts = [] if levels <= 64 else [scale.format_level(k) for k in range(levels)] * 2
    assert sorted(parsed) == sorted(texts)


def near_misses(text: str) -> set[str]:
    """Cells a key of a canonical text could be mistaken for: the text with
    one byte changed, each prefix, the text with a NUL after it, and a
    longer cell whose first eight bytes key as the text does."""
    changed = {text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1:] for i in range(len(text))}
    prefixes = {text[:i] for i in range(1, len(text))}
    return changed | prefixes | {text + "\0", text.ljust(8, "\0") + "5"}


@pytest.mark.parametrize("levels", range(2, 65))
def test_the_canonical_hash_finds_each_text_and_parses_each_near_miss(tmp_path, monkeypatch,
                                                                     levels):
    # every canonical text of a chain of up to 64 grades takes its own
    # level from the chain's hash, and every near miss of one goes to the
    # parser, split by the byte pass or, quoted, by csv.reader; the file
    # reads as the oracle reads it, and so does the file of the near misses
    # that are grades
    scale = Scale(levels)
    texts = [scale.format_level(k) for k in range(levels)]
    misses = sorted(set().union(*map(near_misses, texts)) - set(texts))
    if sys.version_info < (3, 11):  # csv.reader refuses a NUL before 3.11
        misses = [cell for cell in misses if "\0" not in cell]
    recorded = []
    parse = data._parse_grade_cell
    grades = [cell for cell in misses
              if not isinstance(parsed(lambda text: parse(scale, text, True), cell), str)]

    def recording(scale, text, strict):
        recorded.append(text)
        try:
            return parse(scale, text, strict)
        except ValueError:
            return 0

    for quote, cells in [("", [cell for cell in misses if "\0" not in cell]), ('"', misses)]:
        path = tmp_path / "m.csv"
        path.write_text("id,c\n" + "".join(f"r{i},{quote}{cell}{quote}\n"
                                          for i, cell in enumerate(texts + cells)))
        monkeypatch.setattr(data, "_parse_grade_cell", recording)
        recorded.clear()
        levels_read = read_csv(path, scale, mode="lenient").entries[:, 0].tolist()
        assert levels_read[:levels] == list(range(levels))
        assert sorted(recorded) == sorted(cells)
        monkeypatch.undo()
        for mode in MODES:
            assert outcome(read_csv, path, scale, mode=mode) == outcome(oracles.read_csv, path,
                                                                       scale, mode=mode)
    path.write_text("id,c\n" + "".join(f"r{i},{cell}\n" for i, cell in enumerate(texts + grades)))
    for mode in MODES:
        assert outcome(read_csv, path, scale, mode=mode) == outcome(oracles.read_csv, path, scale,
                                                                   mode=mode)


def test_other_spellings_are_parsed_once_per_read(tmp_path, monkeypatch):
    path = tmp_path / "m.csv"
    path.write_text("0.50,L2,0.5\nL2,0.50,1\n")
    parsed = counted_parses(monkeypatch)
    for reads in (1, 2):
        assert read_csv(path, Scale(5)).entries.tolist() == [[2, 2, 2], [2, 2, 4]]
        assert sorted(parsed) == sorted(["0.50", "L2"] * reads)


def test_read_csv_accepts_every_spelling_of_a_grade(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("0.50,.5,1/2,2/4,L2,5e-1,+0.5,0.5000000001\n")
    assert read_csv(path, Scale(5)).entries.tolist() == [[2] * 8]


# ---------------------------------------------------------------- discretize


DENOMINATORS = (1, 2, 3, 4, 7, 9, 10, 12)


@st.composite
def discretize_cases(draw):
    scale = draw(scales())
    n = scale.max_level
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 4))
    lows, highs = [], []
    for _ in range(cols):
        lo = Fraction(draw(st.integers(-20, 20)), draw(st.sampled_from(DENOMINATORS)))
        width = Fraction(draw(st.integers(1, 40)), draw(st.sampled_from(DENOMINATORS)))
        lows.append(lo)
        highs.append(lo + width)
    outside = draw(st.booleans())

    def cell(c):
        lo, width = lows[c], highs[c] - lows[c]
        kinds = ["grade", "tie", "any"] + (["below", "above"] if outside else [])
        kind = draw(st.sampled_from(kinds))
        k = draw(st.integers(0, n))
        if kind == "grade":
            return lo + width * Fraction(k, n)
        if kind == "tie":
            # exactly half a step above a grade
            return lo + width * Fraction(2 * min(k, n - 1) + 1, 2 * n)
        if kind == "any":
            q = draw(st.sampled_from(DENOMINATORS + (1000, 999_983)))
            return lo + width * Fraction(draw(st.integers(0, q)), q)
        step = Fraction(draw(st.integers(1, 50)), draw(st.sampled_from(DENOMINATORS)))
        return lo - step if kind == "below" else highs[c] + step

    values = tuple(tuple(cell(c) for c in range(cols)) for _ in range(rows))
    table = oracles.raw_table(
        tuple(f"r{i}" for i in range(rows)), tuple(f"c{j}" for j in range(cols)), values
    )
    return scale, table, ColumnRange(tuple(lows), tuple(highs))


@given(discretize_cases(), st.sampled_from(MODES))
@settings(max_examples=300)
def test_discretize_matches_oracle(case, mode):
    scale, table, ranges = case
    got = outcome(discretize, table, ranges, scale, mode=mode)
    assert got == outcome(oracles.discretize, table, ranges, scale, mode=mode)


def test_discretize_ties_round_up_on_non_decimal_bounds():
    # ranges [1/3, 2/3] on five levels: a step is 1/12 of the range's unit
    third = Fraction(1, 3)
    ranges = ColumnRange((third,), (2 * third,))
    values = [third + third * Fraction(k, 8) for k in range(9)]
    table = oracles.raw_table(tuple(str(i) for i in range(9)), ("c",), tuple((v,) for v in values))
    levels = discretize(table, ranges, Scale(5)).entries[:, 0].tolist()
    assert levels == [0, 1, 1, 2, 2, 3, 3, 4, 4]


def test_discretize_out_of_range_in_both_modes():
    ranges = ColumnRange((Fraction(1, 3),), (Fraction(2, 3),))
    table = oracles.raw_table(("lo", "hi"), ("c",), ((Fraction(1, 4),), (Fraction(7, 9),)))
    with pytest.raises(ValueError, match=r"'lo' has 1/4 in column 'c', outside \[1/3, 2/3\]"):
        discretize(table, ranges, Scale(5))
    assert discretize(table, ranges, Scale(5), mode="lenient").entries.tolist() == [[0], [4]]


# ---------------------------------------------------------------- number parser


def parsed(parse, text):
    """The value a parser gives, or the type and text of what it raises."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return f"{type(exc).__name__}: {exc}"


@st.composite
def number_text(draw):
    """Decimal spellings, with and without the extras only Fraction reads."""
    sign = draw(st.sampled_from(["", "+", "-"]))
    whole = draw(st.text("0123456789", max_size=6))
    point = draw(st.sampled_from(["", "."]))
    frac = draw(st.text("0123456789", max_size=6))
    text = sign + whole + point + frac
    if draw(st.booleans()):
        digits = draw(st.text("0123456789", min_size=1, max_size=6))
        text += draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"])) + digits
    extra = draw(st.sampled_from(["none", "none", "slash", "underscore", "space", "digit"]))
    if extra == "slash":
        text += "/" + draw(st.text("0123456789", min_size=1, max_size=3))
    elif extra == "underscore" and text:
        i = draw(st.integers(0, len(text)))
        text = text[:i] + "_" + text[i:]
    elif extra == "space":
        text = draw(st.sampled_from([" ", "\t", "　"])) + text + " "
    elif extra == "digit":
        text += draw(st.sampled_from(["٣", "²", "７"]))
    return text


EDGE_NUMBERS = (
    ".5", "5.", "+.5", "-.5", "1E3", "1e+3", "1_000.5", "1__0", "_1", "٣", "٣.٥",
    "3/4", "-3/4", " 3 / 4 ", "3/0", "1.d", ".", "+", "e3", ".e3", "5.e3", "1e", "1e+",
    "", " ", "1.5 ", "0x10", "inf", "nan", "1e9999", "1e-9999", "1e+0009999", "1e10000",
    "1e-10000", "1e1_0000", "3/4e99999", "1" * 5000, "1" * 3000 + "." + "1" * 3000,
)


@given(st.one_of(number_text(), st.text(max_size=12)))
@settings(max_examples=600)
def test_number_parser_agrees_with_fraction(text):
    # oracles.parse_fraction is Fraction(text) behind the same exponent limit
    value = parsed(_parse_fraction, text)
    assert value == parsed(oracles.parse_fraction, text)
    if isinstance(value, Fraction):
        assert _parse_number(text)[1] > 0


@pytest.mark.parametrize("text", EDGE_NUMBERS,
                         ids=lambda text: text if len(text) < 20 else f"{len(text)} chars")
def test_number_parser_agrees_with_fraction_on_edge_cases(text):
    assert parsed(_parse_fraction, text) == parsed(oracles.parse_fraction, text)


@pytest.mark.parametrize("text, value", [
    ("12.50", (1250, 100)), ("-.5", (-5, 10)), ("+7.", (7, 1)), ("1E3", (1000, 1)),
    ("2.5e-3", (25, 10000)), ("1e-9999", (1, 10**9999)), ("0", (0, 1)), ("-0.0", (0, 10)),
])
def test_plain_decimals_skip_fraction(text, value):
    assert _parse_number(text) == value


def test_exponent_limit_applies_on_both_paths():
    for text in ("1e10000", "1_0e10000", " 1e10000", "x1e10000"):
        with pytest.raises(ValueError, match="exponent too large"):
            _parse_number(text)
    assert _parse_number("1e0009999") == (10**9999, 1)


# ---------------------------------------------------------------- raw ingest


RANGE_DENOMINATORS = (1, 3, 7, 9, 10)


@st.composite
def raw_cell(draw, bad: bool):
    kinds = ["int", "decimal", "decimal", "fraction", "exponent"] + (["junk"] if bad else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "int":
        return str(draw(st.integers(-40, 40)))
    if kind == "decimal":
        digits = draw(st.integers(1, 3))
        value = draw(st.integers(-4000, 4000))
        sign = "-" if value < 0 else draw(st.sampled_from(["", "+"]))
        whole, frac = divmod(abs(value), 10**digits)
        return f"{sign}{whole if whole or draw(st.booleans()) else ''}.{frac:0{digits}d}"
    if kind == "fraction":
        return f"{draw(st.integers(-90, 90))}/{draw(st.sampled_from((3, 7, 9, 12)))}"
    if kind == "exponent":
        return f"{draw(st.integers(-99, 99))}e{draw(st.integers(-3, 2))}"
    return draw(st.sampled_from(["x", "1/0", "1e99999", "", "nan"]))


@st.composite
def fixed_point_cell(draw, places: int, top: int):
    """A plain decimal with `places` decimals (none and no point for 0) and
    digits below `top`: signs, ``+``, a leading ``.``, ``-0.00`` and
    leading zeros."""
    magnitude = draw(st.integers(0, top - 1))
    sign = draw(st.sampled_from(["", "", "-", "+"]))
    whole, frac = divmod(magnitude, 10**places)
    whole = str(whole) if whole or draw(st.booleans()) else ""  # "" leads with "."
    if draw(st.integers(0, 4)) == 0:
        whole = "0" + whole
    if places == 0:
        return sign + (whole or "0")
    return f"{sign}{whole}.{frac:0{places}d}"


@st.composite
def raw_column(draw, rows: int, bad: bool):
    """A column of any cells, or of fixed-point cells with one number of
    decimals and values of up to 5, 7, 8, 9, 16, 17, 18 or 19 digits (one
    past the column path's bound), so that a cell's digits and point fill
    one, two or three of the words the column path reads, in which one
    off-pattern cell may sit at a random row."""
    if draw(st.integers(0, 3)) == 0:
        return [draw(raw_cell(bad)) for _ in range(rows)]
    places = draw(st.sampled_from([0, 0, 1, 2, 2, 3, 4, 5, 6, 7, 8, 9, 17, 18, 19]))
    top = 10 ** draw(st.sampled_from([5, 5, 7, 8, 9, 16, 17, 18, 19]))
    column = [draw(fixed_point_cell(places, top)) for _ in range(rows)]
    if draw(st.integers(0, 2)) == 0:
        other = draw(st.sampled_from([places - 1, places + 1]).filter(lambda f: f >= 0))
        column[draw(st.integers(0, rows - 1))] = draw(st.one_of(
            raw_cell(bad), fixed_point_cell(other, 10**5),
            fixed_point_cell(0, 10**5).map(lambda text: text + "."),
        ))
    return column


@st.composite
def raw_files(draw):
    """A raw CSV with an optional header and label column, and declared
    per-column bounds for up to one more column than it holds."""
    bad = draw(st.integers(0, 4)) == 0
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 4))
    grid = [list(row) for row in zip(*(draw(raw_column(rows, bad)) for _ in range(cols)))]
    if draw(st.booleans()):
        grid = [[f"r{i}"] + row for i, row in enumerate(grid)]
    if draw(st.booleans()):
        grid.insert(0, [f"c{j}" for j in range(len(grid[0]))])
    add_ragged_row(draw, grid, raw_cell(bad))
    text = "".join(",".join(row) + "\n" for row in grid)
    lows, highs = [], []
    for _ in range(cols + 1):
        lo = Fraction(draw(st.integers(-60, 20)), draw(st.sampled_from(RANGE_DENOMINATORS)))
        width = Fraction(draw(st.integers(1, 90)), draw(st.sampled_from(RANGE_DENOMINATORS)))
        lows.append(lo)
        highs.append(lo + width)
    return text, lows, highs


def ingest(read, observe, discretize_, path, scale, mode, declared):
    """Read, range and discretize a raw file with one implementation; each
    stage's result, or the error that stops the run."""
    stages = []
    try:
        table = read(path)
        stages.append((table.row_labels, table.col_labels, oracles.table_values(table)))
        if declared is None:
            ranges = observe(table)
        else:
            n = table.shape[1]
            ranges = ColumnRange(tuple(declared[0][:n]), tuple(declared[1][:n]))
        stages.append((ranges.lows, ranges.highs))
        stages.append(discretize_(table, ranges, scale, mode=mode).entries.tolist())
    except ValueError as exc:
        stages.append(f"ValueError: {exc}")
    return stages


@pytest.mark.deep
@given(raw_files(), scales(), st.sampled_from(MODES), st.booleans())
@settings(max_examples=strategies.examples(300))
def test_raw_ingest_matches_oracle(tmp_path_factory, case, scale, mode, observed):
    text, lows, highs = case
    path = strategies.example_dir(tmp_path_factory, "raw") / "t.csv"
    path.write_text(text)
    declared = None if observed else (lows, highs)
    got = ingest(read_raw_csv, ColumnRange.from_table, discretize,
                 path, scale, mode, declared)
    want = ingest(oracles.read_raw_csv, oracles.column_range, oracles.discretize,
                  path, scale, mode, declared)
    assert got == want
    if not isinstance(got[0], str):
        assert_columns_built_per_cell(read_raw_csv(path), path)


def assert_columns_built_per_cell(table, path):
    """Each stored column is what `_raw_column` builds from the column's
    cells parsed one by one: the same dtype, numerators and denominator."""
    n, m = table.shape
    body = [row[-m:] for row in read_rows(path)[-n:]]
    for stored, den, cells in zip(table.columns, table.denominators, zip(*body)):
        want, want_den = _raw_column(tuple(map(_parse_number, cells)))
        assert stored.dtype == want.dtype
        assert stored.tolist() == want.tolist()
        assert type(den) is type(want_den)
        assert np.asarray(den).tolist() == np.asarray(want_den).tolist()


# characters a fixed-point column's check must see: line breaks, signs and
# points out of place, blanks, non-ASCII digits and other non-digits
ODD_CHARACTERS = ("\n", "\r", "\r\n", "+", "-", ".", " ", "\t", "0", "9", "_", "e", "x",
                  "\u0663", "\u00b2", "\uff11")


@st.composite
def fixed_point_columns(draw):
    """A `raw_column`, whose cells may then have odd characters put in,
    swapped in or cut out."""
    column = draw(st.integers(1, 6).flatmap(lambda rows: raw_column(rows, bad=True)))
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.integers(0, len(column) - 1))
        cell = column[row]
        at = draw(st.integers(0, len(cell)))
        odd = draw(st.sampled_from(ODD_CHARACTERS + ("",)))
        column[row] = cell[:at] + odd + cell[at + draw(st.integers(0, 1)):]
    return tuple(column)


@pytest.mark.deep
@given(fixed_point_columns(), st.booleans(), st.booleans())
@settings(max_examples=strategies.examples(300))
def test_fixed_point_columns_match_the_pattern_twin(tmp_path_factory, cells, labels, quoted):
    # the word parse accepts exactly the columns the regex search of
    # oracles.fixed_point_column does, with the same numerators, on the
    # cells as the file splits them, or as csv.reader reads them when each
    # cell is quoted, line breaks and all; a label column beside them is
    # left out of the parse
    path = strategies.example_dir(tmp_path_factory, "fixed") / "t.csv"
    quote = '"' if quoted else ""
    path.write_bytes("".join((f"r.{i}," if labels else "") + quote + cell + quote + "\n"
                             for i, cell in enumerate(cells)).encode())
    assert_rows_match_csv_reader(path)
    try:
        # every cell read as data: no header row, no label column
        split = data._cells(path, path.read_bytes(), lambda text: "grade")
    except ValueError:  # no rows, or ragged rows
        return
    column = tuple(row[-1] for row in read_rows(path))
    got = data._fixed_point_columns(*split[:3], labels)[0]
    want = oracles.fixed_point_column(column)
    assert (got is None) == (want is None)
    if got is not None:
        assert got[0].dtype == want[0].dtype == np.int64
        assert (got[0].tolist(), got[1]) == (want[0].tolist(), want[1])


DIGITS = "123456789012345678"
# a cell of 18 digits and a sign and a point, which fills three words
LONGEST = "-1234567890123456.78"


def word_bound_cells() -> list[tuple[str, str]]:
    """Pairs of a column's first cell, which fixes its decimals, and a cell
    below it: cells of 8, 9, 16, 17 and 18 digits, which end and start
    the words the column path reads, with and without a sign and a point;
    short forms of a sign and a point; empty cells; and `LONGEST` with a
    byte next to the digits, or a point, at each of its positions."""
    cells = [sign + DIGITS[:n - f] + ("." + DIGITS[n - f:n] if f else "")
             for n in (8, 9, 16, 17, 18) for sign in ("", "-", "+") for f in (0, 2, n)]
    pairs = [(cell, cell) for cell in cells + ["+5", "-0.00", ".5", "5.", "-.5", "+0"]]
    pairs += [("1.5", "5."), ("1", "+"), ("1", "-"), ("1.5", "."), ("1.5", "-."), ("1.50", ".5"),
              ("", ""), ("", "5")]
    pairs += [(LONGEST, LONGEST[:i] + odd + LONGEST[i + 1:])
              for i in range(len(LONGEST)) for odd in "/:." if odd != LONGEST[i]]
    return pairs


@pytest.mark.parametrize("first, cell", word_bound_cells())
def test_fixed_point_cells_at_word_bounds_read_as_the_oracle(tmp_path, first, cell):
    # the word parse accepts and reads exactly the cells the per-cell
    # reader does, and stores each column as `_raw_column` would
    path = tmp_path / "t.csv"
    path.write_text(f"id,a,b\nr1,{first},{first}\nr2,{cell},{first}\nr3,{first},{cell}\n")

    def read(reader):
        try:
            table = reader(path)
        except ValueError as exc:
            return str(exc)
        return table.row_labels, table.col_labels, oracles.table_values(table)

    got = read(read_raw_csv)
    assert got == read(oracles.read_raw_csv)
    if not isinstance(got, str):
        assert_columns_built_per_cell(read_raw_csv(path), path)


OVERFLOW_TABLES = {
    # numerators past int64 in the table itself
    "twenty digits": "id,a,b,c\nr1,12345678901234567890123,1,0\nr2,5,-98765432109876543210,1\n"
                     "r3,-3,2.5,2\n",
    "1e-9999": "id,a,b\nr1,1e-9999,1\nr2,1,2\nr3,0.5,3\n",
    # int64 numerators whose p·bf - aqf does not fit
    "int64 edges": f"id,a,b\nr1,{2**63 - 1},1\nr2,{-2**63},2\nr3,0,3\n",
    # int64 all the way at small chains, but 2n·num leaves it at MAX_LEVELS
    "fine decimals": "id,a,b\nr1,0.000000000001,1\nr2,0.999999999999,2\nr3,0.5,3\n",
    "hundredths": "id,a,b\nr1,-1.25,1\nr2,868.40,2\nr3,12.07,3\n",
}


@pytest.mark.parametrize("levels", [2, 5, 11, MAX_LEVELS])
@pytest.mark.parametrize("name", sorted(OVERFLOW_TABLES))
def test_raw_ingest_past_int64_matches_oracle(tmp_path, name, levels):
    path = tmp_path / "t.csv"
    path.write_text(OVERFLOW_TABLES[name])
    scale = Scale(levels)
    declared = ([Fraction(-1, 3), Fraction(-10**30, 7), Fraction(0)],
                [Fraction(10**30, 9), Fraction(3), Fraction(2)])
    for mode in MODES:
        for ranges in (None, declared):
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                got = ingest(read_raw_csv, ColumnRange.from_table, discretize,
                             path, scale, mode, ranges)
            want = ingest(oracles.read_raw_csv, oracles.column_range, oracles.discretize,
                          path, scale, mode, ranges)
            assert got == want
            # read and ranged; only strict mode may refuse a declared bound
            assert len(got) == 3
            assert isinstance(got[2], list) or (mode == "strict" and ranges is declared)


@pytest.mark.parametrize("text", ['"0.5",1\n2,3\n', "0.5,1\n2,3\n", '0.5,1\n"2",3\n'])
def test_a_table_without_a_header_numbers_its_columns(tmp_path, text):
    # csv.reader's rows, for a quoted cell, give the labels the byte pass
    # gives: no first data row taken for column labels
    path = tmp_path / "t.csv"
    path.write_text(text)
    table = read_raw_csv(path)
    assert table.col_labels == oracles.read_raw_csv(path).col_labels == ("1", "2")
    assert table.row_labels == ("1", "2")
    assert oracles.table_values(table) == ((Fraction(1, 2), 1), (2, 3))


def test_raw_columns_leave_int64_only_when_they_must(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(OVERFLOW_TABLES["twenty digits"])
    table = read_raw_csv(path)
    assert [c.dtype for c in table.columns] == [np.dtype(object), np.dtype(object), np.dtype(np.int64)]
    assert table.denominators[1].tolist() == [1, 1, 10]
    assert table.denominators[2] == 1
    path.write_text(OVERFLOW_TABLES["1e-9999"])
    table = read_raw_csv(path)
    assert table.columns[0].tolist() == [1, 1, 5]
    assert table.denominators[0].tolist() == [10**9999, 1, 10]
    assert table.columns[1].dtype == np.int64
    path.write_text(OVERFLOW_TABLES["int64 edges"])
    assert read_raw_csv(path).columns[0].dtype == np.int64
    path.write_text("id,a\nr1,1/3\nr2,0.25\nr3,2e3\n")
    table = read_raw_csv(path)
    assert table.columns[0].tolist() == [100, 75, 600000] and table.denominators == (300,)


def stored_bits(table: RawTable) -> int:
    """The bits of every integer a RawTable stores."""
    arrays = [*table.columns, *(d for d in table.denominators if np.ndim(d))]
    scalars = [d for d in table.denominators if not np.ndim(d)]
    return sum(int(v).bit_length() for v in [*scalars, *(v for a in arrays for v in a)])


def test_one_unusual_cell_does_not_widen_its_column(tmp_path):
    # a column over the lcm of its denominators would store every cell at
    # the size of that lcm: 10**9999 for the outlier, 600 primes for the
    # second column, so bits grow with rows times the lcm
    primes = [p for p in range(2, 5000) if all(p % k for k in range(2, int(p**0.5) + 1))][:600]
    rows = [f"r{i},{i % 97}.{i % 10},{i}/{primes[i]}" for i in range(600)]
    rows[300] = "r300,1e-9999,1/2"
    path = tmp_path / "t.csv"
    path.write_text("id,outlier,primes\n" + "\n".join(rows) + "\n")
    table = read_raw_csv(path)
    assert [c.dtype for c in table.columns] == [np.dtype(object)] * 2
    # per cell: about 33,220 bits for 10**-9999, under 64 bits for the rest
    assert stored_bits(table) < 34_000 + 2 * 600 * 64
    declared = ([Fraction(0), Fraction(0)], [Fraction(97), Fraction(1)])
    for levels in (2, 11, MAX_LEVELS):
        for mode in MODES:
            for ranges in (None, declared):
                got = ingest(read_raw_csv, ColumnRange.from_table, discretize,
                             path, Scale(levels), mode, ranges)
                want = ingest(oracles.read_raw_csv, oracles.column_range, oracles.discretize,
                              path, Scale(levels), mode, ranges)
                assert got == want


# ---------------------------------------------------------------- fuzzing


CSV_CHARS = st.sampled_from(list("0123456789.,/-+eEL_ \"'\t\n\r;x"))
FUZZ_BYTES = st.one_of(
    st.text(st.one_of(CSV_CHARS, st.characters()), max_size=80).map(
        lambda text: text.encode("utf-8", "surrogatepass")
    ),
    st.binary(max_size=40),
)


@given(FUZZ_BYTES, st.sampled_from(MODES), st.integers(2, 7))
@settings(max_examples=300)
def test_readers_return_or_raise_value_error(tmp_path_factory, data, mode, levels):
    path = strategies.example_dir(tmp_path_factory, "fuzz") / "in"
    path.write_bytes(data)
    calls = [
        (lambda: read_csv(path, Scale(levels), mode=mode), GradedMatrix),
        (lambda: read_raw_csv(path), RawTable),
        (lambda: read_fimi(path), GradedMatrix),
        (lambda: read_fimi(path, num_items=levels), GradedMatrix),
    ]
    for call, kind in calls:
        try:
            result = call()
        except ValueError:
            continue
        assert isinstance(result, kind)


# item ids, mostly small ones, and tokens that are odd or bad ids
FIMI_TOKENS = st.one_of(
    st.integers(0, 12).map(str),
    st.integers(0, 12).map(str),
    st.sampled_from(["-1", "x", "1.5", "007", "+3", "99", "10" * 12, "٣"]),
)
# the ASCII blanks str.split splits on within a line
FIMI_BLANKS = (" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f")


@given(
    st.lists(st.lists(FIMI_TOKENS, max_size=8), max_size=8),
    st.sampled_from([None, 1, 5, 13]),
    st.sampled_from(FIMI_BLANKS),
    st.sampled_from(["\n", "\r\n", "\r", "\t\n", "\x0c\r"]),
    st.sampled_from(["", "", "", "\ufeff"]),
)
@settings(max_examples=200)
def test_read_fimi_matches_oracle(tmp_path_factory, lines, num_items, sep, end, mark):
    # the same grid or the same error, naming the same first bad token; a
    # leading byte-order mark is dropped by both
    path = strategies.example_dir(tmp_path_factory, "fimi") / "t.dat"
    text = mark + "".join(sep.join(tokens) + end for tokens in lines)
    path.write_bytes(text.encode())
    assert outcome(read_fimi, path, num_items) == outcome(oracles.read_fimi, path, num_items)


@pytest.mark.parametrize("text, num_items, message", [
    # a run of digits past num_items before a bad id, on one line and on two
    ("0 1\r\n\r2 7 x\r\n", 5, "item id 7 on line 3 exceeds num_items=5"),
    ("0 1\r\n\r2 7\rx\n", 5, "item id 7 on line 3 exceeds num_items=5"),
    # and the other way round
    ("0 1\r\n\r2 x 7\r\n", 5, "bad item id 'x' on line 3"),
    ("0 1\r\n\rx\r2 7\n", 5, "bad item id 'x' on line 3"),
    # ids int() reads, past num_items, before a bad id and a fast id past it
    ("0 1\r\n\r+9 7 x\r\n", 5, "item id 9 on line 3 exceeds num_items=5"),
    ("1\r\r\n" + "1" + "0" * 20 + " x\n", 10**20,
     "item id 100000000000000000000 on line 3 exceeds num_items=100000000000000000000"),
    # a negative id before an id past num_items and a bad id
    ("1\r\n\r\n2\r-3 9 x\n", 5, "negative item id -3 on line 4"),
    ("1\r\n\r\n2\r-3 9 x\n", None, "negative item id -3 on line 4"),
])
def test_read_fimi_names_the_first_problem_in_file_order(tmp_path, text, num_items, message):
    # the lines count CR LF and a lone CR as one break each
    path = tmp_path / "t.dat"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError) as info:
        read_fimi(path, num_items)
    assert str(info.value) == f"{path}: {message}"
    assert outcome(oracles.read_fimi, path, num_items) == f"ValueError: {path}: {message}"


# ids int() reads: digits alone, with leading zeros too; ids of 18, 18,
# 18, 19, 19 and 22 digits (runs of up to 18 digits are read by Horner
# steps and longer ones by int(), 19 nines past int64); ids one below, at
# and one past the file's byte count, written BYTES-1, BYTES+0 and BYTES+1
# (ids below that count are mapped through a presence table, and others by
# a sort); and tokens that are no run of digits
FIMI_IDS = st.one_of(
    st.integers(0, 12).map(str),
    st.integers(0, 12).map(lambda i: f"{i:03d}"),
    st.sampled_from(["007", "0", "00"]),
    st.sampled_from(["9" * 18, "1" + "0" * 17, "0" * 17 + "7", "1" + "0" * 18, "9" * 19,
                     "0" * 21 + "7"]),
    st.sampled_from(["BYTES-1", "BYTES+0", "BYTES+1"]),
    st.sampled_from(["+3", "-0", "1_0", "٣"]),
)
BYTES = re.compile(r"BYTES([-+]\d)")
# the blanks str.split splits on within a line, past ASCII too
FIMI_SEPARATORS = FIMI_BLANKS + ("\xa0", "\x85", "  ", " \t")


@pytest.mark.deep
@given(
    st.lists(st.one_of(st.tuples(st.lists(FIMI_IDS, max_size=6),
                                 st.sampled_from(FIMI_SEPARATORS),
                                 st.sampled_from(["", " ", "\t", "\x0b", "\xa0"])),
                       st.just(([], "", "\t"))), max_size=8),
    st.sampled_from([None, 1, 5, 13, 10**18, 10**20]),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.integers(0, 2),
    st.booleans(),
)
@settings(max_examples=strategies.examples(300))
def test_read_fimi_in_one_pass_matches_oracle(tmp_path_factory, lines, num_items, end, empty,
                                              last):
    # every file is parsed in one pass, its ids those int() reads from its
    # tokens, with the line each is on, and none for a file of blanks; the
    # ids are int64 unless one is past it.  Leading empty lines, lines of
    # blanks alone and a missing last line break shift the line that a
    # num_items error names
    text = end * empty + end.join(pad + sep.join(tokens) + pad for tokens, sep, pad in lines)
    if last and text:
        text += end
    # every BYTES token becomes seven digits, so the file's size is known first
    size = len(BYTES.sub("0" * 7, text).encode())
    text = BYTES.sub(lambda match: f"{size + int(match[1]):07d}", text)
    path = strategies.example_dir(tmp_path_factory, "fimi-one-pass") / "t.dat"
    path.write_bytes(text.encode())
    assert path.stat().st_size == size
    lines_read, rows, ids = data._fimi_tokens(path, text.encode(), None)
    records = list(io.StringIO(text, newline=None))
    assert lines_read == len(records)
    assert rows.tolist() == [r for r, record in enumerate(records) for _ in record.split()]
    assert ids.tolist() == list(map(int, text.split()))
    assert (ids.dtype == np.int64) == all(int(token) < 2**63 for token in text.split())
    assert outcome(read_fimi, path, num_items) == outcome(oracles.read_fimi, path, num_items)


@pytest.mark.parametrize("largest", [10**7, 10**18 - 1])
def test_read_fimi_memory_follows_the_file_not_the_largest_id(tmp_path, largest):
    # ids far past the file's byte count are mapped by a sort, not through
    # a table as long as the largest id
    path = tmp_path / "t.dat"
    path.write_text(f"1 {largest}\n12\n")
    tracemalloc.start()
    try:
        matrix = read_fimi(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert matrix.entries.tolist() == [[1, 0, 1], [0, 1, 0]]
    assert peak < 10**6


CSV_BREAKS = ("\n", "\r\n", "\r")
# whitespace str.strip removes from a cell, and csv.reader keeps
CELL_SPACES = (" ", "\t", "\x0b", "\xa0", "\u2028", "\x1c")
LIMIT = 131072  # csv.field_size_limit() at its default, 128 KiB


@st.composite
def csv_cell(draw):
    kind = draw(st.sampled_from(["plain"] * 6 + ["padded", "quoted", "empty", "long", "odd"]))
    plain = draw(st.text("0123456789.-abL", min_size=1, max_size=4))
    if kind == "plain":
        return plain
    if kind == "padded":
        before, after = (draw(st.sampled_from(("",) + CELL_SPACES)) for _ in range(2))
        return before + plain + after
    if kind == "quoted":
        inner = draw(st.sampled_from([plain, "a,b", "1\n2", "1\r\n2", "x\ry", '""', " 1 "]))
        return f'"{inner}"'
    if kind == "empty":
        return ""
    if kind == "long":
        # a field of up to the limit is read, one past it is refused
        return "7" * (LIMIT + draw(st.sampled_from([-1, 0, 1])))
    # characters the row split must leave where csv.reader leaves them
    inside = draw(st.sampled_from(["a b", "a\tb", "a\x0cb", "é", "a\x85b", "a\u2028b", "1\x002",
                                   'a"b']))
    return inside


@st.composite
def csv_texts(draw):
    """CSV texts with any of the three line breaks, blank and blank-looking
    lines, whitespace around cells, quoted cells holding commas or line
    breaks, ragged rows and fields near csv's size limit."""
    width = draw(st.integers(1, 4))
    out = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["row"] * 5 + ["ragged", "blank", "spaces"]))
        if kind == "blank":
            line = ""
        elif kind == "spaces":
            line = draw(st.sampled_from(CELL_SPACES)) * draw(st.integers(1, 2))
        else:
            cells = width if kind == "row" else draw(st.integers(1, 5))
            line = ",".join(draw(csv_cell()) for _ in range(cells))
        out.append(line + draw(st.sampled_from(CSV_BREAKS)))
    text = "".join(out)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")
    if draw(st.integers(0, 7)) == 0:
        text = "\ufeff" + text  # a byte-order mark, which neither reader keeps
    return text


def read_rows(path):
    """The records `_read_rows` splits a file's decoded text into, as the
    CSV readers call it, blank ones dropped and cells stripped, as
    `data._cells` does."""
    records = _read_rows(path, _decode(path, path.read_bytes()))
    return [list(map(str.strip, record)) for record in records if record]


def split_rows(path):
    """The rows `_split_bytes` splits a file into, without any leading
    byte-order mark, as `data._cells` calls it, each ending at a cell it
    flags as last; it raises csv.reader's error for a field past the
    limit."""
    codes, starts, ends, last = _split_bytes(path, path.read_bytes().removeprefix(b"\xef\xbb\xbf"))
    texts = iter(_texts(codes, starts, ends))
    widths = np.diff(np.flatnonzero(last), prepend=-1)
    return [[next(texts) for _ in range(width)] for width in widths]


def rows_or_error(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return f"ValueError: {exc}"


def wide_spaces(text: str) -> bool:
    """Whether a text holds a character past ASCII that str.strip
    removes."""
    return any(c.isspace() and not c.isascii() for c in text)


def splitters(path):
    """How many times `data._cells` runs `_split_bytes` and `_read_rows`
    on a file, whatever it then refuses."""
    with mock.patch.object(data, "_split_bytes", side_effect=_split_bytes) as split, \
            mock.patch.object(data, "_read_rows", side_effect=_read_rows) as read:
        rows_or_error(lambda path: data._cells(path, path.read_bytes(), lambda text: "grade"), path)
    return split.call_count, read.call_count


def assert_rows_match_csv_reader(path):
    """One rule sends a file that decodes and holds no quote, NUL or
    whitespace past ASCII to the byte pass, any other that decodes to
    csv.reader, and one that does not decode to neither.  The byte pass
    splits a file into csv.reader's rows, ragged ones as they are and none
    for a file of blank lines, or refuses it with csv.reader's field-limit
    error; the general path gives csv.reader's rows or its error."""
    want = rows_or_error(oracles.read_rows, path)
    if want == f"ValueError: {path}: empty file":
        want = []  # csv.reader's rows, which the oracle refuses as a table
    try:
        text = path.read_bytes().removeprefix(b"\xef\xbb\xbf").decode("utf-8")
    except UnicodeDecodeError:
        assert splitters(path) == (0, 0)
        return
    plain = not ('"' in text or "\0" in text or wide_spaces(text))
    assert splitters(path) == (plain, not plain)
    if plain:
        assert rows_or_error(split_rows, path) == want
    assert rows_or_error(read_rows, path) == want


@pytest.mark.deep
@given(csv_texts())
@settings(max_examples=strategies.examples(300))
def test_row_split_matches_csv_reader(tmp_path_factory, text):
    path = strategies.example_dir(tmp_path_factory, "rows") / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_rows_match_csv_reader(path)


@pytest.mark.parametrize("text", [
    "a,b\r\n1,2\r\n", "a,b\r1,2\r", "a,b\n\n\r\n1,2", "a, b\n1,2\n", "a,b \n1,2\n",
    "\ta,b\n1,2\n", "a,b\n 1,2\n", "a,b\n1,\xa02\n", '"a",b\n1,2\n', "a,b\n1,2,3\n",
    "Roman Sebrle,1\nx y,2\n", "a,b\n\x0c\n1,2\n", "1\x002,3\n",
    "\ufeff1,2\n", "\ufeff\ufeffa,b\n1,2\n",
    # blank lines first, in the middle and last, alone, and CR LF ones, and
    # last lines without a break
    "\na,b\n1,2\n", "a,b\n\n1,2\n", "a,b\n1,2\n\n", "\n\n\n", "\r\n\r\na,b\r\n\r\n1,2\r\n\r\n",
    "a,b\n1,2", "\ufeff0,0,0\n0,0,0", "a,b\n\n1,2", "\n1\n\n2",
    # a ragged row past csv's field size limit, which csv.reader refuses
    pytest.param("a,b\n" + "1" * 140_000 + ",2,3\n", id="ragged-long-field"),
])
def test_row_split_matches_csv_reader_on_edge_cases(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    assert_rows_match_csv_reader(path)


def test_row_split_space_set_is_what_strip_removes():
    spaces = {c for c in map(chr, range(128)) if c.isspace()} - {"\r", "\n"}
    assert set(data._ASCII_SPACES) == spaces
    # the blanks past ASCII, which send a file to csv.reader
    wide = "".join(map(chr, range(128, sys.maxunicode + 1)))
    assert data._WIDE_SPACE.findall(wide) == [c for c in wide if c.isspace()]


@pytest.mark.parametrize("text, split", [
    ("a, b\n1,2\n", True), ("\ufeff a ,b\r\n\r\n1,\x1c2\t\r\n", True), (" , \n\t,\x0b\n", True),
    ("é,b\n1,2\n", True), ("a,b\n1, 2é\u2027\n", True),
    ("a,b\n1,\xa02\n", False), ("a,b\n1\u2028,2\n", False), ("a,b\n1,2\x85\n", False),
])
def test_row_split_takes_padded_and_non_ascii_text(tmp_path, text, split):
    # the byte pass strips padded cells of ASCII blanks itself, as
    # csv.reader and str.strip would, and splits non-ASCII text; a text
    # holding a blank past ASCII goes through csv.reader
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    assert splitters(path) == (split, not split)
    assert_rows_match_csv_reader(path)


def test_readers_reject_oversized_fields_and_exponents(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("0," + "1" * 200_000 + "\n")
    with pytest.raises(ValueError, match="field larger than field limit"):
        read_csv(path, Scale(5))
    with pytest.raises(ValueError, match="field larger than field limit"):
        read_raw_csv(path)
    # Fraction would build a ten-million-digit integer for this cell
    path.write_text("a,b\nr,1e10000000\n")
    with pytest.raises(ValueError, match="exponent too large"):
        read_csv(path, Scale(5))
    with pytest.raises(ValueError, match="exponent too large"):
        read_raw_csv(path)
    path.write_text("a,b\nr,1e-9999\n")
    assert oracles.table_values(read_raw_csv(path)) == ((Fraction(1, 10**9999),),)


# ---------------------------------------------------------------- byte pass


def recorded_parses(monkeypatch, reader: bool = False) -> dict[str, list[str]]:
    """The texts `_parse_grade_cell` and `_parse_number` are called on,
    recorded by name, with csv.reader made to fail if it is built, unless
    `reader`."""
    calls = {"_parse_grade_cell": [], "_parse_number": []}
    parse_grade_cell, parse_number = data._parse_grade_cell, data._parse_number

    def grade_cell(scale, text, strict):
        calls["_parse_grade_cell"].append(text)
        return parse_grade_cell(scale, text, strict)

    def number(text):
        calls["_parse_number"].append(text)
        return parse_number(text)

    def no_reader(*args, **kwargs):
        raise AssertionError("csv.reader was built")

    monkeypatch.setattr(data, "_parse_grade_cell", grade_cell)
    monkeypatch.setattr(data, "_parse_number", number)
    if not reader:
        monkeypatch.setattr(data.csv, "reader", no_reader)
    return calls


@pytest.mark.parametrize("quoted", [False, True])
def test_a_canonical_graded_file_is_read_without_a_parse(tmp_path, monkeypatch, quoted):
    # the shape discretize writes and factorize reads: canonical texts on 5
    # grades, no header; only the first row is parsed, by layout detection,
    # whether the byte pass splits the file or, for a quoted cell,
    # csv.reader does
    matrix = GradedMatrix(Scale(5), np.random.default_rng(1).integers(0, 5, size=(40, 8)))
    path = tmp_path / "graded.csv"
    write_csv(matrix, path)
    if quoted:  # the second row's first cell
        lines = path.read_text().split("\n")
        lines[1] = '"{}",{}'.format(*lines[1].split(",", 1))
        path.write_text("\n".join(lines))
    calls = recorded_parses(monkeypatch, reader=quoted)
    for mode in MODES:
        assert read_csv(path, Scale(5), mode=mode) == matrix
    first = path.read_text().split("\n")[0].split(",")
    assert calls == {"_parse_grade_cell": [], "_parse_number": first * 2}
    monkeypatch.undo()
    assert read_csv(path, Scale(5)) == oracles.read_csv(path, Scale(5))


@pytest.mark.parametrize("quoted", [False, True])
def test_a_labelled_table_in_hundredths_is_read_without_a_parse(tmp_path, monkeypatch, quoted):
    # the shape discretize reads: a header, a label column and fixed-point
    # cells in hundredths with signs; only the header and the first label
    # are parsed, by layout detection, whether the byte pass splits the
    # file or, for a quoted label, csv.reader does
    values = np.random.default_rng(2).integers(-150000, 150000, size=(30, 8)).tolist()
    cells = [[f"{'-' if v < 0 else ''}{abs(v) // 100}.{abs(v) % 100:02d}" for v in row]
             for row in values]
    values[0][0], cells[0][0] = 0, "-0.00"
    labels = [f"s{i:05d}" for i in range(30)]
    if quoted:
        labels[3] = '"Sebrle, R."'
    path = tmp_path / "raw.csv"
    path.write_text("id," + ",".join(f"m{j}" for j in range(8)) + "\n"
                    + "".join(f"{label}," + ",".join(row) + "\n" for label, row in zip(labels, cells)))
    calls = recorded_parses(monkeypatch, reader=quoted)
    table = read_raw_csv(path)
    assert calls == {"_parse_grade_cell": [],
                     "_parse_number": ["id"] + [f"m{j}" for j in range(8)] + ["s00000"]}
    assert table.row_labels[3] == ("Sebrle, R." if quoted else "s00003")
    monkeypatch.undo()
    assert table.denominators == (100,) * 8
    assert [column.tolist() for column in table.columns] == [list(c) for c in zip(*values)]
    assert ingest(read_raw_csv, ColumnRange.from_table, discretize, path, Scale(5), "strict",
                  None) == ingest(oracles.read_raw_csv, oracles.column_range, oracles.discretize,
                                  path, Scale(5), "strict", None)
    assert_columns_built_per_cell(table, path)


@st.composite
def csv_layout(draw, grid: list[list[str]]) -> bytes:
    """`grid` as a CSV file: any of the three line breaks on each line,
    blank lines, cells padded with ASCII blanks, a byte-order mark, and a
    last line with or without its break.  A cell holding a comma, a line
    break or a NUL is quoted, and in half the files any cell may be, so the
    byte pass splits a file of plain cells and csv.reader any other."""
    lines = []
    quoting = draw(st.booleans())
    for row in grid:
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(CSV_BREAKS)))
        if draw(st.integers(0, 3)) == 0:
            row = [draw(st.sampled_from(("", " ", "\t"))) + cell
                   + draw(st.sampled_from(("", " ", "\x1c", "\x0b"))) for cell in row]
        row = [f'"{cell}"' if re.search("[,\r\n\0]", cell) or quoting and draw(st.booleans())
               else cell for cell in row]
        lines.append(",".join(row) + draw(st.sampled_from(CSV_BREAKS)))
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return (b"\xef\xbb\xbf" if draw(st.integers(0, 3)) == 0 else b"") + text.encode()


# labels a byte pass must not parse as part of a number column
LABELS = ("s.01", "r1", "a.b", "x2.5", "1a", ".x", "-y", "+3q")
# labels only csv.reader splits: quoted with a comma, a line break or a
# NUL, or padded with a blank past ASCII
READER_LABELS = ("Sebrle, R.", "r\r\n1", "a\nb", "s\x00t", "\xa0r2\xa0")


def add_labels(draw, grid: list[list[str]]) -> list[list[str]]:
    """`grid`, in half the draws behind a label column drawn from LABELS,
    and in half of those from READER_LABELS too."""
    if draw(st.booleans()):
        pool = LABELS + READER_LABELS if draw(st.booleans()) else LABELS
        grid = [[draw(st.sampled_from(pool))] + row for row in grid]
    return grid


@st.composite
def mixed_raw_tables(draw):
    """A raw table of fixed-point columns (signs, ``-0.00``, up to 18 and
    19 digits, now and then one off-pattern cell) beside columns that mix
    ``3/4``, ``2.5e-3`` and other forms, with labels holding points and
    digits, or labels only csv.reader splits, in a `csv_layout`."""
    rows = draw(st.integers(1, 6))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["fixed", "fixed", "mixed", "raw"]))
        if kind == "raw":
            columns.append(draw(raw_column(rows, bad=False)))
            continue
        places = draw(st.sampled_from([0, 1, 2, 2, 17, 18]))
        top = draw(st.sampled_from([10**4, 10**18, 10**19]))
        column = [draw(fixed_point_cell(places, top)) for _ in range(rows)]
        if kind == "mixed":
            column[draw(st.integers(0, rows - 1))] = draw(st.sampled_from(
                ["3/4", "2.5e-3", "-0.00", "1_0", "7.", "+.5", "0x1"]))
        columns.append(column)
    grid = [list(row) for row in zip(*columns)]
    grid = add_labels(draw, grid)
    if draw(st.booleans()):
        grid.insert(0, [f"c.{j}" for j in range(len(grid[0]))])
    return draw(csv_layout(grid))


@pytest.mark.deep
@given(mixed_raw_tables(), st.sampled_from(MODES))
@settings(max_examples=strategies.examples(300))
def test_byte_pass_reads_mixed_raw_tables_as_the_oracle(tmp_path_factory, text, mode):
    path = strategies.example_dir(tmp_path_factory, "mixed") / "t.csv"
    path.write_bytes(text)
    got = ingest(read_raw_csv, ColumnRange.from_table, discretize, path, Scale(5), mode, None)
    want = ingest(oracles.read_raw_csv, oracles.column_range, oracles.discretize,
                  path, Scale(5), mode, None)
    assert got == want
    if not isinstance(got[0], str):
        # no cell is bad, so the byte pass read the table, split by itself
        # or by csv.reader
        assert isinstance(data._byte_table(path, data._cells(path, text, data._raw_cell_kind)),
                          RawTable)
        assert_columns_built_per_cell(read_raw_csv(path), path)
