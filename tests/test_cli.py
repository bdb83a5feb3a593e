"""Command-line interface: artifacts, determinism, and error handling."""

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golden
import strategies
from gradefactor import (
    MAX_LEVELS,
    FactorSet,
    GradedMatrix,
    Scale,
    compose,
    read_csv,
    write_csv,
)
from gradefactor import cli, data, factorization
from gradefactor.cli import build_parser, main
from gradefactor.data import MAX_FIMI_CELLS

FIVE = Scale(5)
TRANSACTIONS = "0 1 2\n1 2 3\n0 3 4\n2 4\n0 1 4\n1 3\n"


def run(*argv):
    return main([str(a) for a in argv])


def usage_error(capsys, *argv) -> str:
    """The one stderr line of a command line refused with exit status 2."""
    with pytest.raises(SystemExit) as info:
        run(*argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


def artifact_bytes(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


# ---------------------------------------------------------------- factorize


def test_factorize_decathlon(tmp_path, graded_csv, decathlon, capsys):
    out = tmp_path / "out"
    assert run("factorize", "--input", graded_csv, "--out-dir", out) == 0
    assert (out / "A.csv").exists() and (out / "B.csv").exists()

    a = read_csv(out / "A.csv", FIVE)
    b = read_csv(out / "B.csv", FIVE)
    assert compose(a, b) == decathlon

    report = json.loads((out / "factors.json").read_text())
    assert report["command"] == "factorize"
    assert report["factor_count"] == 7
    assert report["complete"] is True
    assert report["optimal"] is False
    assert report["tie_break"] == "grade-then-index"
    assert report["scale"] == {"levels": 5, "tnorm": "lukasiewicz", "rounded": False}
    assert report["shape"] == [5, 10]
    assert len(report["factors"]) == 7
    assert report["coverage_equal_exact"][-1] == "1"
    assert report["coverage_equal"] == [float(f) for f in golden.CURVE]

    lines = (out / "coverage.tsv").read_text().splitlines()
    assert lines[0] == "factor\tequal_fraction\tcovered_nonzero"
    assert len(lines) == 8
    assert lines[1].startswith("1\t0.460000\t")

    assert "7 factors" in capsys.readouterr().out


def test_factorize_truncated(tmp_path, graded_csv):
    out = tmp_path / "out"
    assert run("factorize", "--input", graded_csv, "--max-factors", 2, "--out-dir", out) == 0
    report = json.loads((out / "factors.json").read_text())
    assert report["factor_count"] == 2
    assert report["complete"] is False


def test_factorize_tie_break_flag(tmp_path, graded_csv):
    out = tmp_path / "out"
    assert run("factorize", "--input", graded_csv, "--tie-break", "index-then-grade",
               "--out-dir", out) == 0
    report = json.loads((out / "factors.json").read_text())
    assert report["tie_break"] == "index-then-grade"
    assert report["factor_count"] == 7


def test_factorize_missing_input(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("factorize", "--input", tmp_path / "nope.csv", "--out-dir", out) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_truncated_run_that_exceeds_the_input_is_rejected(tmp_path, graded_csv, monkeypatch,
                                                          capsys):
    # a full rectangle exceeds every cell of the decathlon input below 1
    def too_large(context, tie_break, *, max_factors=None):
        # the trace of a truncated run: the 17 cells that are 1 are matched
        return FactorSet(GradedMatrix(FIVE, [[4]] * 5), GradedMatrix(FIVE, [[4] * 10]), (50, 33))

    monkeypatch.setattr(cli, "find_factors", too_large)
    out = tmp_path / "out"
    assert run("factorize", "--input", graded_csv, "--max-factors", 1, "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert err == "error: factors exceed the input\n"
    assert not out.exists()


def test_factors_that_cover_less_than_their_trace_claims_are_rejected(
        tmp_path, graded_csv, monkeypatch, capsys):
    # two true factors of the decathlon input leave 14 cells uncovered;
    # the trace claims only 10
    a, b = golden.printed_factor_matrices()

    def overclaiming(context, tie_break, *, max_factors=None):
        return FactorSet(GradedMatrix(FIVE, a.entries[:, :2]), GradedMatrix(FIVE, b.entries[:2]),
                         uncovered_counts=(50, 27, 10))

    monkeypatch.setattr(cli, "find_factors", overclaiming)
    out = tmp_path / "out"
    assert run("factorize", "--input", graded_csv, "--max-factors", 2, "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert err == "error: factors do not cover the cells their uncovered counts claim\n"
    assert not out.exists()


def test_factorize_rejects_a_bad_cell_in_the_first_row(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("0.5,nan\n1,0\n")
    assert run("factorize", "--input", path, "--out-dir", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert "row 1, column 2" in err
    assert err.count("\n") == 1


def test_factorize_rejects_a_chain_beyond_the_maximum(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("0.5,1\n1,0\n")
    out = tmp_path / "out"
    err = usage_error(capsys, "factorize", "--input", path, "--levels", 1000000000001,
                      "--out-dir", out)
    assert err == f"error: argument --levels: must be at most {MAX_LEVELS}, got 1000000000001\n"
    assert not out.exists()


# ---------------------------------------------------------------- oracle


def test_oracle_small_boolean(tmp_path, capsys):
    src = tmp_path / "eye.csv"
    write_csv(GradedMatrix(Scale.boolean(), [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), src)
    out = tmp_path / "out"
    assert run("oracle", "--input", src, "--levels", 2, "--out-dir", out) == 0
    report = json.loads((out / "factors.json").read_text())
    assert report["optimal"] is True
    assert report["factor_count"] == 3
    assert "optimal decomposition uses 3 factors" in capsys.readouterr().out


def test_oracle_budget_exhaustion(tmp_path, graded_csv, capsys):
    out = tmp_path / "out"
    assert run("oracle", "--input", graded_csv, "--budget", 50, "--out-dir", out) == 1
    assert "budget" in capsys.readouterr().err


def test_oracle_budget_stops_the_cover_search(tmp_path, capsys):
    # its concepts take five closures to enumerate, its cover search six nodes
    src = tmp_path / "two.csv"
    write_csv(GradedMatrix(Scale.boolean(), [[1, 1, 0], [0, 1, 1]]), src)
    out = tmp_path / "out"
    assert run("oracle", "--input", src, "--levels", 2, "--budget", 5, "--out-dir", out) == 1
    assert capsys.readouterr().err == "error: cover search exceeded the budget of 5 nodes\n"
    assert run("oracle", "--input", src, "--levels", 2, "--budget", 6, "--out-dir", out) == 0


@pytest.mark.parametrize("budget", [0, -5])
def test_oracle_rejects_budget_below_one(tmp_path, graded_csv, capsys, budget):
    out = tmp_path / "out"
    err = usage_error(capsys, "oracle", "--input", graded_csv, "--budget", budget, "--out-dir", out)
    assert err == f"error: argument --budget: must be at least 1, got {budget}\n"
    assert not out.exists()


def test_factorize_rejects_a_negative_max_factors(tmp_path, graded_csv, capsys):
    out = tmp_path / "out"
    err = usage_error(capsys, "factorize", "--input", graded_csv, "--max-factors", -1,
                      "--out-dir", out)
    assert err == "error: argument --max-factors: must be at least 0, got -1\n"
    assert not out.exists()


# ---------------------------------------------------------------- coverage


def test_experiment_coverage_command(tmp_path, graded_csv, capsys):
    # the coverage experiment's greedy run stops at 50 factors; the
    # decathlon input needs 7
    out = tmp_path / "out"
    assert run("factorize", "--input", graded_csv, "--max-factors", 50, "--out-dir", out) == 0
    assert len((out / "coverage.tsv").read_text().splitlines()) == 8
    assert "run complete" in capsys.readouterr().out
    assert run("factorize", "--input", graded_csv, "--max-factors", 3, "--out-dir", out) == 0
    assert len((out / "coverage.tsv").read_text().splitlines()) == 4
    assert "run truncated" in capsys.readouterr().out


def test_coverage_console_line_counts_covered_cells(tmp_path, graded_csv, capsys):
    out = tmp_path / "out"
    assert run("factorize", "--input", graded_csv, "--max-factors", 0, "--out-dir", out) == 0
    assert capsys.readouterr().out.startswith("0 factors cover 0.0000 of the nonzero cells")
    zeros = tmp_path / "zeros.csv"
    zeros.write_text("0,0\n0,0\n")
    assert run("factorize", "--input", zeros, "--max-factors", 50, "--out-dir", out) == 0
    assert capsys.readouterr().out.startswith(
        "0 factors cover 1.0000 of the nonzero cells (run complete)"
    )


def test_coverage_tsv_of_a_cap_past_the_run_is_the_full_run(tmp_path, graded_csv):
    def coverage_tsv(*args):
        out = tmp_path / "-".join(map(str, args or ("full",)))
        assert run("factorize", *args, "--input", graded_csv, "--out-dir", out) == 0
        return (out / "coverage.tsv").read_bytes()

    full = coverage_tsv()
    assert coverage_tsv("--max-factors", 50) == full
    # a truncated run's curve is the full run's first rows
    assert full.startswith(coverage_tsv("--max-factors", 3))


# ---------------------------------------------------------------- discretize


def test_discretize_command(tmp_path, scores_csv, ranges_csv, graded_csv):
    out = tmp_path / "graded.csv"
    assert run("discretize", "--input", scores_csv, "--ranges", ranges_csv,
               "--out", out) == 0
    assert out.read_bytes() == graded_csv.read_bytes()


def test_discretize_reads_byte_order_marked_copies_alike(tmp_path, scores_csv, ranges_csv,
                                                         graded_csv):
    for src in (scores_csv, ranges_csv):
        (tmp_path / src.name).write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
    out = tmp_path / "graded.csv"
    assert run("discretize", "--input", tmp_path / scores_csv.name,
               "--ranges", tmp_path / ranges_csv.name, "--out", out) == 0
    assert out.read_bytes() == graded_csv.read_bytes()


@pytest.mark.parametrize("table", [
    "id,a,b\nr1,-1.25,+3.50\nr2,0.75,2.50\nr3,2.00,-0.50\n",
    "id,a,b\nr1,-1.25,+3.50\nr2,0.75,5/2\nr3,2.00,-0.50\n",
], ids=["fixed-point", "cell-by-cell"])
def test_discretize_reads_fixed_point_columns_as_cell_by_cell_ones(tmp_path, table):
    # hundredths are read a column at a time; a cell written as a fraction
    # sends its column cell by cell
    src, ranges, out = tmp_path / "t.csv", tmp_path / "ranges.csv", tmp_path / "graded.csv"
    src.write_text(table)
    ranges.write_text("bound,a,b\nlow,-2,-1\nhigh,2,4\n")
    assert run("discretize", "--input", src, "--ranges", ranges, "--out", out) == 0
    assert out.read_text() == "0.25,1\n0.75,0.75\n1,0\n"


@pytest.mark.parametrize("flag", [("--tnorm", "goguen"), ("--tnorm", "godel"), ("--rounded",)])
def test_discretize_takes_no_tnorm(tmp_path, scores_csv, ranges_csv, graded_csv, capsys, flag):
    # snapping onto the chain uses no t-norm: of the scale options it
    # takes --levels alone, and the bytes it writes are those of --levels 5
    out = tmp_path / "graded.csv"
    err = usage_error(capsys, "discretize", "--input", scores_csv, "--ranges", ranges_csv,
                      *flag, "--out", out)
    assert "unrecognized arguments" in err
    assert not out.exists()
    assert run("discretize", "--input", scores_csv, "--ranges", ranges_csv, "--levels", 5,
               "--out", out) == 0
    assert out.read_bytes() == graded_csv.read_bytes()


def test_discretize_with_observed_ranges(tmp_path, scores_csv):
    out = tmp_path / "graded.csv"
    assert run("discretize", "--input", scores_csv, "--out", out) == 0
    m = read_csv(out, FIVE)
    assert m.shape == (5, 10)
    # observed bounds put every column's extremes at the endpoints
    assert (m.entries.max(axis=0) == 4).all()
    assert (m.entries.min(axis=0) == 0).all()


@pytest.mark.parametrize("header, label, ranges, bounds", [
    ("a,b\n", "b", None, "[2, 2]"), ("a,b\n", "b", "a,b\n0,5\n5,5\n", "[5, 5]"),
    ("", "2", None, "[2, 2]"), ("", "2", "0,5\n5,5\n", "[5, 5]"),
], ids=["observed", "declared", "headerless-observed", "headerless-declared"])
def test_discretize_rejects_constant_column(tmp_path, capsys, header, label, ranges, bounds):
    # the second column holds one value, or its declared range one point:
    # the one error line names the column by its label, or with no header
    # row by its position from 1, as graded CSV errors count columns
    src = tmp_path / "t.csv"
    src.write_text(header + "1,2\n3,2\n")
    argv = ["discretize", "--input", src, "--out", tmp_path / "o.csv"]
    if ranges is not None:
        (tmp_path / "r.csv").write_text(ranges)
        argv += ["--ranges", tmp_path / "r.csv"]
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"error: column '{label}' has an empty or constant range {bounds}\n"
    assert not (tmp_path / "o.csv").exists()


def test_discretize_names_an_undecodable_ranges_file(tmp_path, scores_csv, capsys):
    ranges = tmp_path / "bad.csv"
    ranges.write_bytes(b"low,high\n\xff,1\n")
    assert run("discretize", "--input", scores_csv, "--ranges", ranges,
               "--out", tmp_path / "o.csv") == 1
    assert capsys.readouterr().err == (
        f"error: {ranges}: line 2, byte 9: 'utf-8' codec can't decode byte 0xff: "
        "invalid start byte\n"
    )


def test_discretize_refuses_a_typo_in_a_data_column(tmp_path, capsys):
    # a number first in the column makes it data, so the typo is a bad cell
    # rather than a row label that drops the column
    raw = tmp_path / "t.csv"
    raw.write_text("a,b\n1,2\n3,4\n3..5,6\n")
    assert run("discretize", "--input", raw, "--out", tmp_path / "o.csv") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {raw}: bad number at row 3, column 1: ")
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("text", ["L9,L10\nL1,L2\nL3,L4\n", "L9,0.5\nL7,0.25\n"],
                         ids=["header", "labels"])
def test_factorize_refuses_a_level_past_the_chain(tmp_path, capsys, text):
    # a level past the chain is a bad cell, not a header or a label whose
    # row or column the run would leave out
    src = tmp_path / "lv.csv"
    src.write_text(text)
    out = tmp_path / "o"
    assert run("factorize", "--input", src, "--levels", 5, "--out-dir", out) == 1
    assert capsys.readouterr().err == (f"error: {src}: bad grade at row 1, column 1: "
                                       "grade level must be at most 4, got 9 (line 1)\n")
    assert not out.exists()


# ---------------------------------------------------------------- report


# what a report may hold beside its factors: nested dicts, empty and
# integer lists, negative numbers, floats, non-ASCII text and None
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10**20, 10**20), st.floats(),
    st.text(st.characters(), max_size=6),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(st.integers(-10**6, 10**6), max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(st.characters(), max_size=4), children, max_size=4),
        st.dictionaries(st.integers(-5, 5), children, max_size=3),
    ),
    max_leaves=24,
)
# factor sets of up to ten factors, whose extents and intents are short or
# long enough that the factors' lists span several gather blocks, on chains
# a table over every level up to the top covers and chains of a table over
# the levels that occur
LENGTHS = st.one_of(st.integers(0, 5),
                    st.sampled_from([data._GATHER_CELLS // 10 + 1, data._GATHER_CELLS // 3 + 1]))


def factor_set(seed, k, n, m, levels):
    rng, scale = np.random.default_rng(seed), Scale(levels)
    return FactorSet(GradedMatrix(scale, rng.integers(0, levels, size=(n, k))),
                     GradedMatrix(scale, rng.integers(0, levels, size=(k, m))),
                     tuple(range(k, -1, -1)))


FACTORS = st.builds(factor_set, st.integers(0, 2**32), st.integers(0, 10), LENGTHS, LENGTHS,
                    st.sampled_from([2, 5, 201, MAX_LEVELS]))


def as_lists(value):
    """A payload with its factor sets as the lists of dicts they stand for."""
    if isinstance(value, FactorSet):
        return [{"extent": extent, "intent": intent}
                for extent, intent in zip(value.a.entries.T.tolist(), value.b.entries.tolist())]
    if isinstance(value, dict):
        return {key: as_lists(item) for key, item in value.items()}
    return value


@given(st.dictionaries(st.text(st.characters(), max_size=6), JSON_VALUES, max_size=6), FACTORS)
@example({}, factor_set(0, 0, 3, 4, 5))
@example({"shape": [0, 0]}, factor_set(1, 3, 0, 0, 201))
@example({"input": '\n  "factors": []'}, factor_set(2, 2, 3, 4, 5))
@settings(max_examples=300)
def test_report_text_is_json_dumps(tmp_path_factory, payload, factors):
    # the text of the factors is spliced into json.dumps of the rest, so a
    # string member that looks like the spliced one must stay as it is
    path = strategies.example_dir(tmp_path_factory, "report") / "factors.json"
    payload = {**payload, "factors": factors}
    cli._write_json(path, payload)
    text = json.dumps(as_lists(payload), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == text.encode()


# ---------------------------------------------------------------- experiments


def test_experiment_factorizability(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("experiment-factorizability", "--k", "2,3", "--trials", 3,
               "--rows", 6, "--cols", 6, "--seed", 1, "--out-dir", out) == 0
    lines = (out / "stats.tsv").read_text().splitlines()
    assert lines[0].startswith("# size=6x6 levels=5 tnorm=lukasiewicz")
    assert lines[1] == "k\tmean_factors\tstd_dev\ttrials"
    assert len(lines) == 4
    assert lines[2].startswith("2\t") and lines[3].startswith("3\t")
    assert "k=2:" in capsys.readouterr().out


def test_experiment_distribution_flag(tmp_path):
    out = tmp_path / "out"
    assert run("experiment-factorizability", "--k", "2", "--trials", 2,
               "--rows", 4, "--cols", 4, "--dist", "0.2,0.2,0.2,0.2,0.2",
               "--out-dir", out) == 0
    header = (out / "stats.tsv").read_text().splitlines()[0]
    assert "dist=0.2,0.2,0.2,0.2,0.2" in header


def test_experiment_rejects_bad_distribution(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("experiment-factorizability", "--k", "2", "--trials", 2,
               "--dist", "0.5,0.5", "--out-dir", out) == 1
    assert "one weight per grade" in capsys.readouterr().err


@pytest.mark.parametrize("dist", ["1e308,1e308,0,0,0", "nan,0,0,0,1"])
def test_experiment_refuses_weights_outside_the_unit_interval(tmp_path, capsys, dist):
    # refused before the weights are summed, whose overflow would warn
    assert run("experiment-factorizability", "--k", "2", "--trials", 2,
               "--dist", dist, "--out-dir", tmp_path / "out") == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: distribution weights must be nonnegative and sum to 1"]


@pytest.mark.parametrize("trials", [0, -3])
def test_experiment_rejects_trials_below_one(tmp_path, capsys, trials):
    out = tmp_path / "out"
    err = usage_error(capsys, "experiment-factorizability", "--k", "2", "--trials", trials,
                      "--out-dir", out)
    assert err == f"error: argument --trials: must be at least 1, got {trials}\n"
    assert not out.exists()


def test_experiment_refuses_trials_past_the_grid_bound(tmp_path, monkeypatch, capsys):
    # trials x rows x cols cells are drawn in all, refused before the first
    # draw; the default run draws 200 x 20 x 20 = 80k
    def no_trial(*_, **__):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "random_factorizable", no_trial)
    trials = MAX_FIMI_CELLS // 100 + 1
    out = tmp_path / "out"
    assert run("experiment-factorizability", "--trials", trials, "--rows", 10, "--cols", 10,
               "--out-dir", out) == 1
    assert capsys.readouterr().err == (f"error: {trials} trials of a 10x10 product draw "
                                       f"more than {MAX_FIMI_CELLS} cells\n")
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (("--k", "-3"), "argument --k: must be at least 1, got -3"),
    (("--k", "2,0"), "argument --k: must be at least 1, got 0"),
    (("--seed", "-1"), "argument --seed: must be at least 0, got -1"),
], ids=["k-negative", "k-zero", "seed-negative"])
def test_experiment_rejects_a_negative_k_or_seed_before_any_trial(tmp_path, monkeypatch,
                                                                  capsys, args, message):
    def no_trial(*_, **__):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "random_factorizable", no_trial)
    out = tmp_path / "out"
    err = usage_error(capsys, "experiment-factorizability", *args, "--trials", 1,
                      "--out-dir", out)
    assert err == f"error: {message}\n"
    assert not out.exists()


# ---------------------------------------------------------------- determinism


def test_artifacts_are_byte_identical_across_runs(tmp_path, graded_csv):
    first, second = tmp_path / "one", tmp_path / "two"
    for out in (first, second):
        assert run("factorize", "--input", graded_csv, "--out-dir", out) == 0
    assert artifact_bytes(first) == artifact_bytes(second)

    first, second = tmp_path / "e1", tmp_path / "e2"
    for out in (first, second):
        assert run("experiment-factorizability", "--k", "2", "--trials", 4,
                   "--rows", 5, "--cols", 5, "--seed", 7, "--out-dir", out) == 0
    assert artifact_bytes(first) == artifact_bytes(second)


@pytest.mark.parametrize("command", ["factorize", "oracle"])
def test_artifacts_match_the_golden_bytes(tmp_path, data_dir, monkeypatch, command):
    # run from the data directory, so that factors.json records the same
    # relative input path as the golden copy
    monkeypatch.chdir(data_dir)
    out = tmp_path / command
    assert run(command, "--input", "decathlon_graded.csv", "--out-dir", out) == 0
    assert artifact_bytes(out) == artifact_bytes(data_dir / "golden" / command)


def test_a_tall_transaction_run_gives_the_pinned_artifacts(tmp_path, monkeypatch):
    # each of the ten factors spans under 1% of the 3196 x 75 grid, so the
    # coverage pass raises support blocks alone; the artifacts must be
    # those of the whole-grid pass, pinned in golden.TALL_SHA256
    monkeypatch.chdir(tmp_path)
    Path("tall.dat").write_text(golden.tall_transactions())
    assert run("factorize", "--input", "tall.dat", "--format", "fimi", "--levels", 2,
               "--max-factors", 10, "--out-dir", "out") == 0
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in artifact_bytes(Path("out")).items()}
    assert digests == golden.TALL_SHA256


GRADED_COPIES = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "quoted": lambda text: "".join(",".join(f'"{cell}"' for cell in line.split(",")) + "\n"
                                   for line in text.splitlines()),
    "byte-order-mark": lambda text: "\ufeff" + text,
}


@pytest.mark.parametrize("copy", sorted(GRADED_COPIES))
def test_copies_of_the_golden_input_give_the_golden_artifacts(tmp_path, data_dir, monkeypatch,
                                                              copy):
    # a quoted copy goes through csv.reader, the others are split with
    # str.split; under the input's name, factors.json records the golden path
    text = (data_dir / "decathlon_graded.csv").read_text()
    (tmp_path / "decathlon_graded.csv").write_bytes(GRADED_COPIES[copy](text).encode())
    monkeypatch.chdir(tmp_path)
    assert run("factorize", "--input", "decathlon_graded.csv", "--out-dir", tmp_path / "out") == 0
    assert artifact_bytes(tmp_path / "out") == artifact_bytes(data_dir / "golden" / "factorize")


@pytest.mark.parametrize("copy", ["crlf", "byte-order-mark"])
def test_copies_of_a_transaction_file_give_its_artifacts(tmp_path, monkeypatch, copy):
    # the one pass reads the plain file and its copy, decoded or with CR LF, alike
    texts = {"plain": TRANSACTIONS, "crlf": TRANSACTIONS.replace("\n", "\r\n"),
             "byte-order-mark": "\ufeff" + TRANSACTIONS}
    artifacts = []
    for name in ("plain", copy):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        Path("t.dat").write_bytes(texts[name].encode())
        assert run("factorize", "--input", "t.dat", "--format", "fimi", "--levels", 2,
                   "--out-dir", "out") == 0
        artifacts.append(artifact_bytes(Path("out")))
    assert artifacts[0] == artifacts[1]


@pytest.mark.parametrize("case", ["godel", "goguen", "past-the-level-table-cap", "fimi",
                                  "fimi-truncated"])
def test_reruns_are_byte_identical(tmp_path, graded_csv, monkeypatch, case):
    transactions = tmp_path / "t.dat"
    transactions.write_text(TRANSACTIONS)
    fimi = (transactions, "--format", "fimi", "--levels", 2)
    argv = {
        "godel": (graded_csv, "--tnorm", "godel"),
        "goguen": (graded_csv, "--tnorm", "goguen", "--rounded"),
        "past-the-level-table-cap": (graded_csv,),
        "fimi": fimi,
        "fimi-truncated": fimi + ("--max-factors", 1),
    }[case]
    if case == "past-the-level-table-cap":
        # the sweep computes its residua by t-norm arithmetic, as it does
        # for this input on a chain of 262,145 grades
        monkeypatch.setattr(factorization, "_LEVEL_TABLE_BYTES", 0)
    first, second = tmp_path / "one", tmp_path / "two"
    for out in (first, second):
        assert run("factorize", "--input", *argv, "--out-dir", out) == 0
    assert artifact_bytes(first) == artifact_bytes(second)


# ---------------------------------------------------------------- plumbing


def test_fimi_input(tmp_path):
    src = tmp_path / "t.dat"
    src.write_text("0 1\n1 2\n")
    out = tmp_path / "out"
    assert run("factorize", "--input", src, "--format", "fimi", "--levels", 2,
               "--out-dir", out) == 0
    report = json.loads((out / "factors.json").read_text())
    assert report["shape"] == [2, 3]


def test_fimi_requires_boolean_levels(tmp_path, capsys):
    src = tmp_path / "t.dat"
    src.write_text("0\n")
    assert run("factorize", "--input", src, "--format", "fimi",
               "--out-dir", tmp_path / "out") == 1
    assert "--levels 2" in capsys.readouterr().err


def test_fimi_grid_too_large_to_allocate(tmp_path, capsys):
    src = tmp_path / "t.dat"
    src.write_text("0 1\n2\n")
    # 2 x 10**14 levels need 1.6 PB, far past the cell limit
    assert run("factorize", "--input", src, "--format", "fimi", "--levels", 2,
               "--num-items", 10**14, "--out-dir", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "2 rows x num_items=100000000000000" in err
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("exc, message", [
    (MemoryError(), "error: out of memory\n"),
    (MemoryError("Unable to allocate 8.00 GiB"), "error: out of memory: Unable to allocate 8.00 GiB\n"),
])
def test_allocation_failure_is_one_line(tmp_path, graded_csv, capsys, monkeypatch, exc, message):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "find_factors", fail)
    out = tmp_path / "out"
    assert run("factorize", "--input", graded_csv, "--out-dir", out) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("command", ["factorize", "oracle"])
def test_num_items_without_fimi_is_refused(tmp_path, graded_csv, capsys, command):
    out = tmp_path / "out"
    assert run(command, "--input", graded_csv, "--num-items", 7, "--out-dir", out) == 1
    assert capsys.readouterr().err == "error: --num-items applies to --format fimi only\n"
    assert not out.exists()


def test_fimi_grid_past_the_cell_limit_is_refused(tmp_path, capsys):
    src = tmp_path / "t.dat"
    src.write_text("0 1\n2\n")
    # ids stop at 2, yet the grid would be 2 x (MAX_FIMI_CELLS // 2 + 1) int64
    # levels, 800 MB: overcommit may grant that, the cell limit does not
    width = MAX_FIMI_CELLS // 2 + 1
    assert run("factorize", "--input", src, "--format", "fimi", "--levels", 2,
               "--num-items", width, "--out-dir", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err == f"error: {src}: cannot allocate a grid of 2 rows x num_items={width} columns\n"
    assert not (tmp_path / "out").exists()


def test_goguen_needs_rounded_flag(tmp_path, graded_csv, capsys):
    out = tmp_path / "out"
    assert run("factorize", "--input", graded_csv, "--tnorm", "goguen",
               "--out-dir", out) == 1
    assert "rounded" in capsys.readouterr().err
    assert run("factorize", "--input", graded_csv, "--tnorm", "goguen", "--rounded",
               "--out-dir", out) == 0


@pytest.mark.parametrize("tnorm", ["lukasiewicz", "godel"])
def test_rounded_flag_is_refused_on_a_closed_tnorm(tmp_path, graded_csv, capsys, tnorm):
    out = tmp_path / "out"
    assert run("factorize", "--input", graded_csv, "--tnorm", tnorm, "--rounded",
               "--out-dir", out) == 1
    assert capsys.readouterr().err == (
        f"error: rounded=True applies to the goguen t-norm only; {tnorm} is closed\n"
    )
    assert not out.exists()


def test_lenient_flag(tmp_path):
    src = tmp_path / "m.csv"
    src.write_text("0.3,1\n0,0.6\n")
    out = tmp_path / "out"
    assert run("factorize", "--input", src, "--out-dir", out) == 1
    assert run("factorize", "--input", src, "--lenient", "--out-dir", out) == 0


def test_unknown_tie_break_is_a_parse_error(tmp_path, graded_csv, capsys):
    err = usage_error(capsys, "factorize", "--input", graded_csv, "--tie-break", "random",
                      "--out-dir", tmp_path)
    assert "argument --tie-break: invalid choice: 'random'" in err


def test_parser_help_lists_all_commands():
    # usage names the subcommands as {a,b,...}; help holds substrings of
    # them, such as "coverage" in factorize's line
    parser = build_parser()
    names = re.search(r"\{([^}]*)\}", parser.format_usage()).group(1).split(",")
    assert set(names) == {"factorize", "oracle", "discretize", "experiment-factorizability"}
    text = parser.format_help()
    for name in names:
        assert name in text


def test_experiment_coverage_is_not_a_command(tmp_path, graded_csv, capsys):
    # `factorize --max-factors 50` runs the coverage experiment
    assert "experiment-coverage" not in build_parser().format_help()
    for name in ("experiment-coverage", "coverage"):
        err = usage_error(capsys, name, "--input", graded_csv, "--out-dir", tmp_path / "out")
        assert f"invalid choice: '{name}'" in err
    assert not (tmp_path / "out").exists()


def test_module_entry_point(tmp_path, graded_csv):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "gradefactor", "factorize",
         "--input", str(graded_csv), "--out-dir", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert (out / "factors.json").exists()


def test_module_entry_point_refuses_a_bad_number_in_one_line(tmp_path):
    # the parser refuses the number before the missing input is opened
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "gradefactor", "factorize", "--max-factors", "-1",
         "--input", str(tmp_path / "nope.csv"), "--out-dir", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "--max-factors" in proc.stderr
    assert not out.exists()


@pytest.mark.skipif(not Path("/dev/stdin").exists(), reason="no /dev/stdin")
@pytest.mark.parametrize("command, text, message", [
    (["factorize", "--input", "/dev/stdin", "--out-dir"], "0.5,x\n1,0\n",
     "bad grade at row 1, column 2: cannot read 'x' as a number (line 1)"),
    (["factorize", "--input", "/dev/stdin", "--out-dir"], "0.5,1\n1,0,1\n",
     "row 2 has 3 cells, expected 2 (line 2)"),
    (["discretize", "--input", "/dev/stdin", "--out"], "a,b\n1,2\n3,x\n",
     "bad number at row 2, column 2: cannot read 'x' as a number (line 3)"),
    (["discretize", "--input", "good.csv", "--ranges", "/dev/stdin", "--out"], "a,b\n0,x\n5,5\n",
     "bad number at row 1, column 2: cannot read 'x' as a number (line 2)"),
], ids=["grade", "ragged", "raw", "ranges"])
def test_a_bad_piped_file_is_refused_in_one_line(tmp_path, command, text, message):
    # a pipe can be read only once, so the line of a bad cell or row is
    # found in the text already read
    good = tmp_path / "good.csv"
    good.write_text("a,b\n1,2\n3,4\n")
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "gradefactor",
         *(str(good) if arg == "good.csv" else arg for arg in command), str(out)],
        input=text, capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"error: /dev/stdin: {message}\n"
    assert not out.exists()


# ---------------------------------------------------------------- one parser per process


# a mixed sequence of command lines over all four commands, each one's
# exit status noted: options set by one call and left to their defaults by
# a later call of the same command, usage errors and --help between them
SEQUENCE = [
    (0, ("factorize", "--input", "graded.csv", "--max-factors", "3", "--tnorm", "godel",
         "--tie-break", "index-then-grade", "--out-dir", "f1")),
    (0, ("factorize", "--input", "graded.csv", "--out-dir", "f2")),
    (0, ("oracle", "--input", "small.csv", "--levels", "3", "--lenient", "--out-dir", "o1")),
    (2, ("oracle", "--input", "small.csv", "--strict", "--lenient", "--out-dir", "o2")),
    (1, ("oracle", "--input", "small.csv", "--levels", "3", "--out-dir", "o3")),
    (0, ("factorize", "--help")),
    (0, ("discretize", "--input", "scores.csv", "--ranges", "ranges.csv", "--levels", "3",
         "--out", "d1/graded.csv")),
    (0, ("discretize", "--input", "scores.csv", "--out", "d2/graded.csv")),
    (1, ("factorize", "--input", "missing.csv", "--out-dir", "f3")),
    (0, ("experiment-factorizability", "--k", "2,3", "--trials", "3", "--rows", "4",
         "--cols", "4", "--tnorm", "goguen", "--rounded", "--seed", "5", "--out-dir", "e1")),
    (0, ("experiment-factorizability", "--trials", "2", "--rows", "3", "--cols", "3",
         "--out-dir", "e2")),
    (2, ("experiment-factorizability", "--trials", "0", "--out-dir", "e3")),
    (0, ("--help",)),
    (0, ("factorize", "--input", "graded.csv", "--out-dir", "f4")),
    (0, ("oracle", "--input", "small.csv", "--levels", "5", "--budget", "1000",
         "--out-dir", "o4")),
]


def run_sequence(folder: Path, data_dir, monkeypatch, capsys) -> list:
    """Each command line's exit status, stdout without its timings, and
    stderr, run in `folder`, then every file the sequence wrote there."""
    folder.mkdir()
    monkeypatch.chdir(folder)
    for name, source in (("graded.csv", "decathlon_graded.csv"),
                         ("scores.csv", "decathlon_scores.csv"),
                         ("ranges.csv", "decathlon_ranges.csv")):
        (folder / name).write_bytes((data_dir / source).read_bytes())
    # 0.25 is a grade on 5 levels and refused strictly on 3
    (folder / "small.csv").write_text("0.5,1,0\n1,0.25,0.5\n0,1,1\n")
    outcomes = []
    for expected, argv in SEQUENCE:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code == expected, (argv, code, err)
        outcomes.append((code, re.sub(r"\(\d+\.\d+s\)", "(s)", out), err))
    written = {str(path.relative_to(folder)): path.read_bytes()
               for path in sorted(folder.rglob("*")) if path.is_file()}
    return outcomes + [written]


@pytest.mark.deep
def test_in_process_calls_write_what_fresh_parsers_write(tmp_path, data_dir, monkeypatch,
                                                          capsys):
    # main keeps one parser for the process; a sequence run through it gives
    # the exit statuses, console lines and artifacts of the same sequence
    # with a new parser for every call
    runs = []
    for name, parser in (("kept", cli._parser), ("fresh", build_parser)):
        monkeypatch.setattr(cli, "_parser", parser)
        runs.append(run_sequence(tmp_path / name, data_dir, monkeypatch, capsys))
    assert runs[0] == runs[1]


def test_importing_the_cli_builds_no_parser():
    # a process that imports the CLI builds no parser; main builds its
    # parser and subparsers on its first call, and no more on a second
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import gradefactor, gradefactor.cli as cli\n"
        "assert built == [] and cli._parser.cache_info().currsize == 0, built\n"
        "for argv in (['--help'], ['factorize', '--help']):\n"
        "    try:\n"
        "        cli.main(argv)\n"
        "    except SystemExit:\n"
        "        pass\n"
        "    if argv == ['--help']:\n"
        "        once = list(built)\n"
        "assert once and built == once, built\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
