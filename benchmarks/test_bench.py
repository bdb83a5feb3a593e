"""Fast tests of the benchmark: every workload at toy size, and the checker.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import gen
import run
import workloads
from checker import (
    Chain,
    CheckFailed,
    OpFailed,
    check_cli_factorization,
    check_discretized,
    check_factors,
    check_rejected,
    read_grades,
)

PACKAGE = run.import_program()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def toy(workload: str, trace: bool, seed: int = 3) -> dict:
    result, _ = run.measure(PACKAGE, workload, seed, 1, trace, workloads.TOY)
    return result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_at_toy_size(workload):
    result = toy(workload, trace=False)
    assert result["correct"]
    assert result["attempted"] >= 1
    # only the malformed-file op of ingest may fail, once per round
    rounds = workloads.rounds_for(workload, 1, workloads.TOY)
    assert result["failed"] <= (rounds if workload == "ingest" else 0)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert result["metrics"]["factors"]["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_for_one_seed(workload):
    first, second = toy(workload, trace=True), toy(workload, trace=True)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [name for name, m in first["metrics"].items() if m["unit"] == "count"]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_residuum_is_adjoint_to_the_tnorm():
    for levels in (2, 3, 5, 11):
        for kind in ("lukasiewicz", "godel", "goguen"):
            chain = Chain(levels, kind)
            a, b, c = np.meshgrid(*[np.arange(levels)] * 3, indexing="ij")
            assert np.array_equal(chain.tnorm[a, c] <= b, c <= chain.residuum[a, b])


def _factorized(tmp_path, levels=5, kind="lukasiewicz"):
    chain = Chain(levels, kind)
    context = gen.planted_product(np.random.default_rng(7), chain, 9, 7, 3)
    path = tmp_path / "in.csv"
    gen.write_grades(path, context, levels)
    out = tmp_path / "out"
    code, _, err = workloads.run_cli(PACKAGE, ["factorize", "--input", str(path), "--levels",
                                               str(levels), "--tnorm", kind, "--out-dir", str(out)])
    assert code == 0, err
    check_cli_factorization(out, chain, context, complete=True)
    return out, chain, context


def _rewrite(out, extents, intents):
    """Write A.csv, B.csv and factors.json so that they agree with each other."""
    levels_text = {v: gen.grade_text(v, 5) for v in range(5)}
    for name, grid in (("A.csv", extents), ("B.csv", intents)):
        (out / name).write_text("".join(",".join(levels_text[v] for v in row) + "\n"
                                        for row in grid.tolist()), encoding="utf-8")
    report = json.loads((out / "factors.json").read_text(encoding="utf-8"))
    report["factors"] = [{"extent": extents[:, l].tolist(), "intent": intents[l, :].tolist()}
                         for l in range(intents.shape[0])]
    (out / "factors.json").write_text(json.dumps(report), encoding="utf-8")


def test_checker_rejects_a_lowered_cell_of_b(tmp_path):
    out, chain, context = _factorized(tmp_path)
    k = json.loads((out / "factors.json").read_text())["factor_count"]
    extents = read_grades(out / "A.csv", 5, n_cols=k)
    intents = read_grades(out / "B.csv", 5)
    l, j = np.argwhere(intents > 0)[0]
    intents[l, j] -= 1
    _rewrite(out, extents, intents)
    with pytest.raises(CheckFailed):
        check_cli_factorization(out, chain, context, complete=True)


def test_checker_rejects_a_factor_that_is_not_a_concept():
    chain = Chain(2, "lukasiewicz")
    context = np.ones((2, 2), dtype=np.int64)
    # two rows each with every column: the product is exact, but the
    # extent {row 0} is not down({col 0, col 1}) = {row 0, row 1}
    extents = np.eye(2, dtype=np.int64)
    intents = np.ones((2, 2), dtype=np.int64)
    assert np.array_equal(chain.compose(extents, intents), context)
    with pytest.raises(CheckFailed, match="extent is not down"):
        check_factors(chain, context, extents, intents, complete=True)


def test_checker_rejects_truncated_factors_above_the_input():
    chain = Chain(5, "godel")
    context = np.array([[2, 1], [1, 1]])
    with pytest.raises(CheckFailed, match="exceed"):
        check_factors(chain, context, np.array([[2], [1]]), np.array([[2, 2]]), complete=False)


def test_checker_rejects_a_discretized_cell_one_grade_off(tmp_path):
    chain = Chain(5, "lukasiewicz")
    grades = gen.planted_product(np.random.default_rng(11), chain, 30, 4, 2)
    raw, ranges, graded = tmp_path / "raw.csv", tmp_path / "ranges.csv", tmp_path / "g.csv"
    gen.raw_measurements(np.random.default_rng(12), grades, 5, raw, ranges)
    code, _, err = workloads.run_cli(PACKAGE, ["discretize", "--input", str(raw), "--ranges",
                                               str(ranges), "--levels", "5", "--out", str(graded)])
    assert code == 0, err
    check_discretized(graded, 5, grades)
    off = read_grades(graded, 5)
    off[4, 2] = off[4, 2] + 1 if off[4, 2] < 4 else 3
    gen.write_grades(graded, off, 5)
    with pytest.raises(CheckFailed, match="row 5, column 3"):
        check_discretized(graded, 5, grades)


def test_malformed_op_needs_exit_code_one_and_the_cell():
    check_rejected(1, "error: bad grade at row 1, column 2: 'nan'\n", *gen.MALFORMED_CELL)
    with pytest.raises(OpFailed):
        check_rejected(0, "", *gen.MALFORMED_CELL)
    with pytest.raises(OpFailed):
        check_rejected(1, "error: something else\n", *gen.MALFORMED_CELL)
