"""Command lines drawn from the options the parser declares.

Every number on the command line is checked once, by the parser: a command
line wrong in itself ends with exit status 2 and one `error:` line before
anything is read or written, a bad input or a failed run with exit status 1
and one `error:` line, and any other run with artifacts that read back.
A command line that parses gives the parser `main` reuses across calls the
Namespace a fresh parser gives it.
"""

import argparse
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradefactor import Scale, compose, read_csv, read_fimi
from gradefactor import cli
from gradefactor.cli import build_parser, main

SUBPARSERS = next(action for action in build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)).choices

INPUTS = {
    "valid.csv": "0,0.5,1\n1,1,0\n0.5,0,0.5\n",
    "malformed.csv": "0.5,x\n1,0\n",
    "transactions.dat": "0 1 2\n1 3\n0 3\n",
}
RANGES = "0,0,0\n1,1,1\n"

# small valid texts, and lists, zero, negative, huge, empty and non-numeric ones
VALID = ("1", "2", "3", "5")
TEXTS = (*VALID, "2,3", "0.5,0.5", "0", "-1", "-7", str(10**30), "", "x")
# a huge value of these starts a run that follows the number, not the data
# (ROADMAP item 2), so they are drawn without it
LONG_RUN = {"--trials", "--rows", "--cols", "--k"}
# drawn always, so that the defaults of 200 trials on 20 x 20 products stay
# out of the draw too
PINNED = {"--trials", "--rows", "--cols"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    for name, text in {**INPUTS, "ranges.csv": RANGES}.items():
        (root / name).write_text(text)
    return root


def _option_values(action, valid_only: bool) -> st.SearchStrategy:
    """Draws of one option's argv parts: the flag, and a value if it takes one."""
    flag = action.option_strings[0]
    if action.nargs == 0:
        return st.just((flag,))
    if action.choices is not None:
        valid, texts = action.choices, (*action.choices, "bogus")
    elif flag in LONG_RUN:
        valid, texts = VALID, [t for t in TEXTS if t != str(10**30)]
    else:
        valid, texts = VALID, TEXTS
    return st.sampled_from(valid if valid_only else texts).map(lambda value: (flag, value))


def _options(command: str, valid_only: bool) -> st.SearchStrategy:
    """Draws of a command's argv parts for options other than the paths: any
    of them with any text, or at most two with small valid values, so that
    some command lines get through to the artifacts."""
    actions = [a for a in SUBPARSERS[command]._actions
               if a.option_strings and a.type is not Path
               and not isinstance(a, argparse._HelpAction)]
    pinned = [a for a in actions if a.option_strings[0] in PINNED]
    chosen = st.lists(st.sampled_from(actions), unique=True,
                      max_size=2 if valid_only else len(actions))
    return chosen.flatmap(lambda drawn: st.tuples(*(
        _option_values(a, valid_only) for a in actions if a in pinned or a in drawn))).map(
        lambda parts: [text for part in parts for text in part])


def _paths(command: str, inputs: Path, out: Path, valid_only: bool) -> st.SearchStrategy:
    """Draws of a command's path options: an input file and where to write."""
    names = ["valid.csv"] if valid_only else sorted(INPUTS)
    source = st.sampled_from(names).map(lambda name: ["--input", str(inputs / name)])
    if command == "experiment-factorizability":
        return st.just(["--out-dir", str(out)])
    if command == "discretize":
        ranges = st.sampled_from([[], ["--ranges", str(inputs / "ranges.csv")]])
        return st.tuples(source, ranges).map(
            lambda parts: [*parts[0], *parts[1], "--out", str(out / "graded.csv")])
    return source.map(lambda part: [*part, "--out-dir", str(out)])


def check_outcome(argv: list[str], out: Path) -> int:
    """Run one command line, check how it ended, and return its exit status."""
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = stderr.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    if code != 2:
        # the parser main keeps from call to call parses as a fresh one
        args = build_parser().parse_args(argv)
        assert vars(cli._parser().parse_args(argv)) == vars(args), argv
    if code != 0:
        assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n"), err
        assert "Traceback" not in err
        if code == 2:
            assert not out.exists()
        return code
    assert err == ""
    if args.command == "discretize":
        graded = read_csv(args.out_file, Scale(args.levels))
        assert graded.entries.size
    elif args.command == "experiment-factorizability":
        rows = (args.out_dir / "stats.tsv").read_text().splitlines()[2:]
        assert [int(row.split("\t")[0]) for row in rows] == list(args.ks)
    else:
        scale = Scale(args.levels, args.tnorm, args.rounded)
        if args.data_format == "fimi":
            matrix = read_fimi(args.input, args.num_items, scale=scale)
        else:
            matrix = read_csv(args.input, scale, mode=args.mode)
        report = json.loads((args.out_dir / "factors.json").read_text())
        if report["factor_count"]:
            product = compose(read_csv(args.out_dir / "A.csv", scale),
                              read_csv(args.out_dir / "B.csv", scale))
            assert (product.entries <= matrix.entries).all()
            assert (product.entries == matrix.entries).all() == report["complete"]
        else:
            # no factor: A.csv holds a line break per row, which reads back
            # as rows x 0, and B.csv nothing, as 0 x m has no CSV form
            assert read_csv(args.out_dir / "A.csv", scale).shape == (matrix.n_rows, 0)
            assert (args.out_dir / "B.csv").read_bytes() == b""
            assert report["complete"] == (not matrix.entries.any())
    return code


@pytest.mark.parametrize("command", sorted(SUBPARSERS))
def test_every_command_line_ends_in_artifacts_or_one_error_line(inputs, command):
    codes = set()

    @settings(max_examples=120, database=None)
    @given(data=st.data())
    def draw(data):
        with tempfile.TemporaryDirectory() as scratch:
            out = Path(scratch) / "out"
            valid_only = data.draw(st.booleans())
            argv = [command, *data.draw(_paths(command, inputs, out, valid_only)),
                    *data.draw(_options(command, valid_only))]
            codes.add(check_outcome(argv, out))

    draw()
    # the draw reaches each way a command line can end
    assert codes == {0, 1, 2}


ITEM_2 = pytest.mark.xfail(run=False, reason="ROADMAP item 2")


@pytest.mark.parametrize("argv", [
    pytest.param(("factorize", "--input", "two.csv", "--levels", "2147483648",
                  "--tnorm", "godel"), id="levels", marks=ITEM_2),
    pytest.param(("experiment-factorizability", "--trials", str(10**30)), id="trials"),
    pytest.param(("experiment-factorizability", "--rows", str(10**30)), id="rows"),
    pytest.param(("experiment-factorizability", "--cols", str(10**30)), id="cols"),
    pytest.param(("experiment-factorizability", "--k", str(10**30)), id="k"),
])
def test_a_huge_number_ends_within_seconds(tmp_path, argv):
    # about an hour on a 2 x 2 input at this many grades; a random instance,
    # or an experiment's trials in all, past the dense-grid bound is refused
    # before any draw
    (tmp_path / "two.csv").write_text("1,0\n1,1\n")
    out = tmp_path / "out"
    check_outcome([str(tmp_path / a) if a == "two.csv" else a for a in argv]
                  + ["--out-dir", str(out)], out)


def test_a_run_without_factors_reads_back(inputs, tmp_path):
    # A.csv, 3 x 0, is a line break per row, and reads back whether its
    # breaks are LF, CR LF or CR, each counted once; B.csv, 0 x m, has no
    # CSV form, so it stays empty and a zero-byte file is still refused
    out = tmp_path / "out"
    assert main(["factorize", "--input", str(inputs / "valid.csv"), "--max-factors", "0",
                 "--out-dir", str(out)]) == 0
    assert (out / "A.csv").read_bytes() == b"\n" * 3
    assert read_csv(out / "A.csv", Scale(5)).entries.shape == (3, 0)
    for breaks in (b"\r\n" * 3, b"\r" * 3, b"\r\r\n\n", b"\n\r\r\n"):
        (out / "A.csv").write_bytes(breaks)
        assert read_csv(out / "A.csv", Scale(5)).entries.shape == (3, 0), breaks
    assert (out / "B.csv").read_bytes() == b""
    with pytest.raises(ValueError, match="empty file"):
        read_csv(out / "B.csv", Scale(5))


def test_no_option_takes_a_bare_int():
    # an integer option takes a bounded type, so the parser checks its value
    for command, parser in SUBPARSERS.items():
        for action in parser._actions:
            assert action.type is not int, f"{command} {action.option_strings}"


REQUIRED = {
    "factorize": ("--input", "in.csv", "--out-dir", "out"),
    "oracle": ("--input", "in.csv", "--out-dir", "out"),
    "discretize": ("--input", "in.csv", "--out", "out/graded.csv"),
    "experiment-factorizability": ("--out-dir", "out"),
}
# --max-factors -1, --budget 0, --trials 0, --k 2,0 and --seed -1 are in
# test_cli.py
BOUNDS = [
    ("factorize", "--max-factors", "x", "expected an integer, got 'x'"),
    ("factorize", "--num-items", "0", "must be at least 1, got 0"),
    ("oracle", "--num-items", "0", "must be at least 1, got 0"),
    *[(command, "--levels", "1", "must be at least 2, got 1") for command in REQUIRED],
    *[(command, "--levels", "3000000000", "must be at most 2147483648, got 3000000000")
      for command in REQUIRED],
    ("experiment-factorizability", "--k", "2,", "expected an integer, got ''"),
    ("experiment-factorizability", "--rows", "0", "must be at least 1, got 0"),
    ("experiment-factorizability", "--cols", "-3", "must be at least 1, got -3"),
    ("experiment-factorizability", "--dist", "0.5,y",
     "expected comma-separated numbers, got '0.5,y'"),
]


@pytest.mark.parametrize("command, option, value, message", BOUNDS,
                         ids=[f"{c}{o}={v}" for c, o, v, _ in BOUNDS])
def test_a_number_out_of_bounds_is_refused_by_the_parser(tmp_path, monkeypatch, capsys,
                                                         command, option, value, message):
    # the input does not exist, so a parse that let the value through
    # would end with exit status 1
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main([command, *REQUIRED[command], option, value])
    assert info.value.code == 2
    assert capsys.readouterr().err == f"error: argument {option}: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["factorize", "--input", "in.csv"], "the following arguments are required: --out-dir"),
    (["factorize", *REQUIRED["factorize"], "--strict", "--lenient"],
     "argument --lenient: not allowed with argument --strict"),
    (["factorize", *REQUIRED["factorize"], "--levels"], "argument --levels: expected one argument"),
    (["factorize", *REQUIRED["factorize"], "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    ([], "the following arguments are required: command"),
], ids=["missing", "exclusive", "no-value", "unrecognized", "no-command"])
def test_every_usage_error_is_one_line(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()
