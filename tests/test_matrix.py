"""Graded sets, matrices, and sup-t-norm composition."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

import golden
import oracles
import strategies
from gradefactor import (
    FactorSet,
    FuzzySet,
    GradedMatrix,
    Scale,
    compose,
    factor_matrices,
)
from gradefactor.matrix import _rectangle

FIVE = Scale(5)


# ---------------------------------------------------------------- validation


def test_float_entries_rejected():
    with pytest.raises(TypeError, match="from_values"):
        GradedMatrix(FIVE, [[0.5, 1.0]])
    with pytest.raises(TypeError):
        FuzzySet(FIVE, np.array([0.5]))


def test_out_of_range_levels_rejected():
    with pytest.raises(ValueError, match="grade levels"):
        GradedMatrix(FIVE, [[5]])
    with pytest.raises(ValueError):
        FuzzySet(FIVE, [-1])


def test_wrong_rank_rejected():
    with pytest.raises(ValueError, match="2-d"):
        GradedMatrix(FIVE, [1, 2])
    with pytest.raises(ValueError, match="1-d"):
        FuzzySet(FIVE, [[1]])


def test_entries_are_write_locked():
    m = GradedMatrix(FIVE, [[1, 2]])
    with pytest.raises(ValueError):
        m.entries[0, 0] = 3
    s = FuzzySet(FIVE, [1])
    with pytest.raises(ValueError):
        s.membership[0] = 2


def test_construction_copies_input():
    src = np.array([[1, 2]])
    m = GradedMatrix(FIVE, src)
    src[0, 0] = 4
    assert m.entries[0, 0] == 1


# ---------------------------------------------------------------- basics


def test_from_values_round_trip():
    m = GradedMatrix.from_values(FIVE, [(0, 0.25), (1, 0.5)])
    assert m.entries.tolist() == [[0, 1], [4, 2]]
    s = FuzzySet.from_values(FIVE, (0.75, 1))
    assert s.values() == [Fraction(3, 4), Fraction(1)]


def test_rows_columns_shape():
    m = GradedMatrix(FIVE, [[1, 2, 3], [0, 4, 0]])
    assert m.shape == (2, 3)
    assert m.n_rows == 2 and m.n_cols == 3


def test_zeros():
    assert not GradedMatrix(FIVE, np.zeros((2, 3), dtype=int)).entries.any()
    assert FuzzySet(FIVE, np.zeros(4, dtype=np.int64)).size == 4


def test_fuzzyset_eq_hash():
    a = FuzzySet(FIVE, [1, 3])
    assert a != FuzzySet(FIVE, [2, 2])
    assert a == FuzzySet(FIVE, [1, 3])
    assert hash(a) == hash(FuzzySet(FIVE, [1, 3]))
    assert a != FuzzySet(Scale(5, "godel"), [1, 3])
    assert a != "not a set"


def test_scale_mismatch():
    godel = Scale(5, "godel")
    with pytest.raises(ValueError, match="scale mismatch"):
        compose(GradedMatrix(FIVE, [[1]]), GradedMatrix(godel, [[1]]))


def test_repr_smoke():
    assert "2x3" in repr(GradedMatrix(FIVE, np.zeros((2, 3), dtype=int)))
    assert "0.25" in repr(FuzzySet(FIVE, [1]))


# ---------------------------------------------------------------- compose


def test_compose_known_example():
    eleven = Scale(11)
    a = GradedMatrix.from_values(eleven, golden.ELEVEN_A)
    b = GradedMatrix.from_values(eleven, golden.ELEVEN_B)
    want = GradedMatrix.from_values(eleven, golden.ELEVEN_PRODUCT)
    assert compose(a, b) == want


@given(strategies.composable_pairs())
@settings(max_examples=80)
def test_compose_matches_triple_loop(pair):
    a, b = pair
    assert compose(a, b).entries.tolist() == oracles.loop_compose(a, b)


def test_compose_inner_dimension_mismatch():
    with pytest.raises(ValueError, match="inner dimensions"):
        compose(GradedMatrix(FIVE, [[1, 2]]), GradedMatrix(FIVE, [[1, 2]]))


def test_compose_zero_inner_dimension_is_zero_matrix():
    a = GradedMatrix(FIVE, np.zeros((2, 0), dtype=int))
    b = GradedMatrix(FIVE, np.zeros((0, 3), dtype=int))
    assert compose(a, b) == GradedMatrix(FIVE, np.zeros((2, 3), dtype=int))


def test_boolean_compose_is_boolean_product():
    rng = np.random.default_rng(0)
    scale = Scale.boolean()
    for _ in range(25):
        a = GradedMatrix(scale, rng.integers(0, 2, size=(3, 4)))
        b = GradedMatrix(scale, rng.integers(0, 2, size=(4, 2)))
        assert np.array_equal(compose(a, b).entries, oracles.bool_compose(a, b))


# ---------------------------------------------------------------- rectangles
#
# A factor's rectangle is the composition of its extent as one column with
# its intent as one row; several factors superpose by composing their
# stacked columns and rows.


def one_factor(ext, intent):
    return (GradedMatrix(FIVE, np.array(ext)[:, None]),
            GradedMatrix(FIVE, np.array(intent)[None, :]))


def test_rectangle_is_outer_product():
    ext, intent = [4, 2], [3, 4]
    r = compose(*one_factor(ext, intent))
    for i in range(2):
        for j in range(2):
            assert r.entries[i, j] == int(FIVE.tnorm(ext[i], intent[j]))
    assert _rectangle(FIVE, np.array(ext), np.array(intent)).tolist() == r.entries.tolist()


def test_rectangle_batches_along_leading_axes():
    exts, intents = np.array([[4, 2], [1, 4]]), np.array([[2, 3, 4], [4, 1, 0]])
    batch = _rectangle(FIVE, exts, intents)
    assert batch.shape == (2, 2, 3)
    for e, d, rect in zip(exts, intents, batch):
        assert rect.tolist() == _rectangle(FIVE, e, d).tolist()


def test_rectangle_equals_single_factor_compose():
    a, b = one_factor([4, 2, 1], [3, 0])
    assert compose(a, b).entries.tolist() == oracles.loop_compose(a, b)
    assert compose(a, b).entries.tolist() == [[3, 0], [1, 0], [0, 0]]


def test_superpose_is_entrywise_max():
    exts, intents = [[4, 2], [1, 4]], [[2, 3], [4, 1]]
    a = GradedMatrix(FIVE, np.array(exts).T)
    b = GradedMatrix(FIVE, intents)
    rects = [compose(*one_factor(e, d)).entries for e, d in zip(exts, intents)]
    assert compose(a, b).entries.tolist() == np.maximum(*rects).tolist() == [[2, 3], [4, 1]]


def test_superpose_empty_needs_scale_and_shape():
    # no factors superpose to the zero matrix of the factor set's shape
    a, b = factor_matrices(
        FactorSet(GradedMatrix(FIVE, np.zeros((2, 0), dtype=int)),
                  GradedMatrix(FIVE, np.zeros((0, 3), dtype=int)), (0,)))
    assert (a.shape, b.shape) == ((2, 0), (0, 3))
    assert compose(a, b) == GradedMatrix(FIVE, np.zeros((2, 3), dtype=int))


def test_superpose_shape_mismatch():
    # two extents of two rows, three intents
    a = GradedMatrix(FIVE, [[1, 1], [2, 2]])
    b = GradedMatrix(FIVE, [[3, 4], [3, 4], [3, 4]])
    with pytest.raises(ValueError, match="inner dimensions disagree"):
        FactorSet(a, b, (4, 1, 0))
