"""Scale construction, t-norm/residuum laws, and grade conversions."""

import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from gradefactor import (
    MAX_LEVELS,
    PARSE_TOLERANCE,
    TNORM_KINDS,
    GradedMatrix,
    Scale,
    enumerate_concepts,
    find_factors,
    optimal_factorization,
    random_factorizable,
    read_fimi,
)
from gradefactor.cli import factorizability_stats

ALL_SCALES = [
    Scale(2, "lukasiewicz"),
    Scale(2, "godel"),
    Scale(5, "lukasiewicz"),
    Scale(5, "godel"),
    Scale(5, "goguen", rounded=True),
    Scale(7, "lukasiewicz"),
    Scale(7, "goguen", rounded=True),
]


def all_pairs(scale):
    return product(range(scale.levels), repeat=2)


# ---------------------------------------------------------------- validation


def test_scale_needs_two_levels():
    # a chain holds at least the grades 0 and 1
    with pytest.raises(ValueError, match="^levels must be at least 2, got 1$"):
        Scale(1)
    with pytest.raises(ValueError, match="^levels must be at least 2, got 0$"):
        Scale(0)
    with pytest.raises(ValueError, match="^levels must be an integer, got '5'$"):
        Scale("5")


@pytest.mark.parametrize("levels", [5.0, "5", None, Fraction(5)])
def test_scale_levels_must_be_an_integer(levels):
    with pytest.raises(ValueError, match="^" + re.escape(f"levels must be an integer, got {levels!r}") + "$"):
        Scale(levels)


@pytest.mark.parametrize("levels", [np.int64(5), np.int16(5), np.uint8(5)])
def test_scale_takes_a_numpy_integer_as_an_int(levels):
    scale = Scale(levels)
    assert type(scale.levels) is int
    assert scale == Scale(5) and hash(scale) == hash(Scale(5))


def test_chain_length_is_bounded_by_int64():
    # 2n(n + 1) bounds every t-norm and residuum intermediate on an n-step chain
    n = MAX_LEVELS - 1
    top = np.iinfo(np.int64).max
    assert 2 * n * (n + 1) <= top < 2 * (n + 1) * (n + 2)
    Scale(MAX_LEVELS)
    with pytest.raises(ValueError, match=f"^levels must be at most {MAX_LEVELS}, got {MAX_LEVELS + 1}$"):
        Scale(MAX_LEVELS + 1)
    # tnorm(n, n) of this chain used to overflow to 0
    with pytest.raises(ValueError, match=f"^levels must be at most {MAX_LEVELS}, got {2**32 + 1}$"):
        Scale(2**32 + 1, "goguen", rounded=True)


# Every caller-supplied count, its least value, and a call that passes it
# on and returns what the count decides; read_fimi reads a file of one
# transaction holding item 0.  The oracle's cover search of TOP takes a
# budget of 2, so each call is made with one more than the least.
DIAGONAL = GradedMatrix(Scale(5), np.diag([4] * 3))
TOP = GradedMatrix(Scale(5), [[4]])
COUNTS = [
    ("levels", 2, lambda v, path: Scale(v).levels),
    ("grade level", 0, lambda v, path: Scale(5).check_level(v)),
    ("max_factors", 0, lambda v, path: len(find_factors(DIAGONAL, max_factors=v))),
    ("budget", 1, lambda v, path: enumerate_concepts(TOP, budget=v)),
    ("budget", 1, lambda v, path: optimal_factorization(TOP, budget=v).a.entries.tolist()),
    ("num_items", 1, lambda v, path: read_fimi(path, v).entries.tolist()),
    ("n_rows", 1, lambda v, path: random_factorizable(v, 2, 1, Scale(5)).entries.tolist()),
    ("n_cols", 1, lambda v, path: random_factorizable(2, v, 1, Scale(5)).entries.tolist()),
    ("k", 1, lambda v, path: random_factorizable(2, 2, v, Scale(5)).entries.tolist()),
    ("trials", 1, lambda v, path: factorizability_stats(1, v, 2, 2, Scale(5)).trials),
    ("rows", 1, lambda v, path: factorizability_stats(1, 1, v, 2, Scale(5)).mean_factors),
    ("cols", 1, lambda v, path: factorizability_stats(1, 1, 2, v, Scale(5)).mean_factors),
]


@pytest.mark.parametrize("name, low, call", COUNTS,
                         ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(COUNTS)])
def test_every_count_follows_one_rule(tmp_path, name, low, call):
    # a bool is refused although Python counts it an int, a value below the
    # least is refused in the same words, and a numpy integer counts as the
    # int it stands for
    path = tmp_path / "t.dat"
    path.write_text("0\n")
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got True$"):
        call(True, path)
    with pytest.raises(ValueError, match=f"^{name} must be at least {low}, got {low - 1}$"):
        call(low - 1, path)
    expected = call(low + 1, path)
    result = call(np.int16(low + 1), path)
    assert result == expected and type(result) is type(expected)


def test_experiment_sizes_are_checked_before_they_are_multiplied():
    with pytest.raises(ValueError, match="^rows must be an integer, got '3'$"):
        factorizability_stats(1, 2, "3", 3, Scale(5))


@pytest.mark.parametrize("kind", TNORM_KINDS)
def test_longest_chain_computes_exactly(kind):
    scale = Scale(MAX_LEVELS, kind, rounded=kind == "goguen")
    n = scale.max_level
    levels = np.array([0, 1, 2, n // 2, n // 2 + 1, n - 1, n], dtype=np.int64)
    tn = scale.tnorm(levels[:, None], levels[None, :])
    res = scale.residuum(levels[:, None], levels[None, :])
    for i, a in enumerate(levels.tolist()):
        for j, b in enumerate(levels.tolist()):
            assert int(tn[i, j]) == oracles.value_tnorm(scale, a, b)
            r = int(res[i, j])
            # the residuum is the largest adjoint, checked in Python integers
            assert oracles.value_tnorm(scale, a, r) <= b
            assert r == n or oracles.value_tnorm(scale, a, r + 1) > b


def test_unknown_tnorm_rejected():
    with pytest.raises(ValueError, match="unknown t-norm"):
        Scale(5, "product")


def test_goguen_requires_rounding_opt_in():
    with pytest.raises(ValueError, match="rounded=True"):
        Scale(5, "goguen")
    Scale(5, "goguen", rounded=True)


@pytest.mark.parametrize("kind", ["lukasiewicz", "godel"])
def test_rounding_is_refused_on_a_closed_tnorm(kind):
    # rounding a closed t-norm changes nothing, and a rounded chain would
    # compare unequal to its plain twin
    with pytest.raises(ValueError, match=f"^rounded=True applies to the goguen t-norm only; "
                                         f"{kind} is closed$"):
        Scale(5, kind, rounded=True)
    with pytest.raises(ValueError, match="goguen t-norm only"):
        Scale(2, kind, True)


def test_boolean_constructor():
    b = Scale.boolean()
    assert b.levels == 2
    assert b.max_level == 1
    assert Scale.boolean("godel").tnorm_kind == "godel"


def test_kinds_tuple_is_exhaustive():
    assert set(TNORM_KINDS) == {"lukasiewicz", "godel", "goguen"}


# ---------------------------------------------------------------- t-norms


@pytest.mark.parametrize("scale", ALL_SCALES, ids=str)
def test_tnorm_matches_value_arithmetic(scale):
    for a, b in all_pairs(scale):
        assert int(scale.tnorm(a, b)) == oracles.value_tnorm(scale, a, b)


@pytest.mark.parametrize("scale", ALL_SCALES, ids=str)
def test_residuum_is_largest_adjoint(scale):
    for a, b in all_pairs(scale):
        assert int(scale.residuum(a, b)) == oracles.brute_residuum(scale, a, b)


@pytest.mark.parametrize("scale", ALL_SCALES, ids=str)
def test_adjointness(scale):
    for a, b, c in product(range(scale.levels), repeat=3):
        assert (int(scale.tnorm(a, b)) <= c) == (a <= int(scale.residuum(b, c)))


# The greedy sweep's cover test: tnorm(e, c) >= b holds exactly when
# c > residuum(e, b - 1), for every grade b >= 1.


@pytest.mark.parametrize("kind", TNORM_KINDS)
@pytest.mark.parametrize("levels", range(2, 10))
def test_cover_threshold_is_the_residuum_below(kind, levels):
    scale = Scale(levels, kind, rounded=kind == "goguen")
    for e, c, b in product(range(levels), range(levels), range(1, levels)):
        assert oracles.value_tnorm(scale, e, c) == int(scale.tnorm(e, c))
        below = oracles.brute_residuum(scale, e, b - 1)
        assert int(scale.residuum(e, b - 1)) == below
        assert (int(scale.tnorm(e, c)) >= b) == (c > below)


@given(st.sampled_from(TNORM_KINDS), st.integers(2, MAX_LEVELS), st.data())
@settings(max_examples=300)
def test_cover_threshold_is_the_residuum_below_on_long_chains(kind, levels, data):
    scale = Scale(levels, kind, rounded=kind == "goguen")
    n = scale.max_level
    grade = st.integers(0, n) | st.sampled_from([0, 1, n - 1, n])
    e, c = data.draw(grade), data.draw(grade)
    b = data.draw(st.integers(1, n) | st.sampled_from([1, n]))
    tnorm = oracles.value_tnorm(scale, e, c)
    assert int(scale.tnorm(e, c)) == tnorm
    below = int(scale.residuum(e, b - 1))
    if levels <= 64:
        assert below == oracles.brute_residuum(scale, e, b - 1)
    else:
        # the largest adjoint, checked in Python integers
        assert oracles.value_tnorm(scale, e, below) <= b - 1
        assert below == n or oracles.value_tnorm(scale, e, below + 1) > b - 1
    assert (tnorm >= b) == (c > below)


@pytest.mark.parametrize("scale", ALL_SCALES, ids=str)
def test_tnorm_is_commutative_and_monotone_with_units(scale):
    top = scale.max_level
    for a, b in all_pairs(scale):
        assert int(scale.tnorm(a, b)) == int(scale.tnorm(b, a))
        assert int(scale.tnorm(a, top)) == a
        assert int(scale.tnorm(a, 0)) == 0
        for b2 in range(b, scale.levels):
            assert int(scale.tnorm(a, b2)) >= int(scale.tnorm(a, b))


@pytest.mark.parametrize("kind", ["lukasiewicz", "godel"])
def test_exact_tnorms_are_associative(kind):
    scale = Scale(5, kind)
    for a, b, c in product(range(scale.levels), repeat=3):
        assert int(scale.tnorm(scale.tnorm(a, b), c)) == int(scale.tnorm(a, scale.tnorm(b, c)))


def test_rounded_goguen_gives_up_associativity():
    # the price of closing the product t-norm on a finite chain; the
    # adjointness tests above show the residuum still pairs correctly
    scale = Scale(5, "goguen", rounded=True)
    assert int(scale.tnorm(scale.tnorm(1, 2), 2)) != int(scale.tnorm(1, scale.tnorm(2, 2)))


@pytest.mark.parametrize("scale", ALL_SCALES, ids=str)
def test_vectorized_ops_match_scalar_loops(scale):
    rng = np.random.default_rng(7)
    a = rng.integers(0, scale.levels, size=40)
    b = rng.integers(0, scale.levels, size=40)
    got_t = scale.tnorm(a, b)
    got_r = scale.residuum(a, b)
    for i in range(a.size):
        assert got_t[i] == int(scale.tnorm(int(a[i]), int(b[i])))
        assert got_r[i] == int(scale.residuum(int(a[i]), int(b[i])))


def test_scalar_ops_return_plain_integers():
    scale = Scale(5)
    assert int(scale.tnorm(3, 3)) == 2
    assert int(scale.residuum(3, 2)) == 3


@pytest.mark.parametrize("kind", TNORM_KINDS)
@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
def test_selecting_residua_keep_the_operands_dtype(kind, dtype):
    # the Gödel and Goguen residua select the top grade by a maximum, which
    # must neither widen narrow levels nor turn scalars into arrays; a
    # Python int beside an array takes the array's type, as on Łukasiewicz
    scale = Scale(7, kind, rounded=kind == "goguen")
    n = scale.max_level
    a = np.arange(n + 1, dtype=dtype)[:, None, None]
    b = np.arange(n + 1, dtype=dtype)[None, :, None]
    res = scale.residuum(a, b)
    assert res.dtype == dtype
    assert res.shape == (n + 1, n + 1, 1)
    for x, y in product(range(n + 1), repeat=2):
        assert res[x, y, 0] == oracles.brute_residuum(scale, x, y)
    for x, y in ((0, 0), (3, 2), (2, 3), (n, 0)):
        got = scale.residuum(x, y)
        assert np.ndim(got) == 0 and not isinstance(got, np.ndarray)
        assert got == oracles.brute_residuum(scale, x, y)
        narrow = scale.residuum(dtype(x), dtype(y))
        assert np.ndim(narrow) == 0 and narrow.dtype == dtype
    column = np.arange(n + 1, dtype=dtype)
    for x in (0, 2, n):
        for res, pairs in ((scale.residuum(x, column), ((x, y) for y in range(n + 1))),
                           (scale.residuum(column, x), ((y, x) for y in range(n + 1)))):
            assert res.dtype == dtype
            assert res.tolist() == [oracles.brute_residuum(scale, *p) for p in pairs]


# ---------------------------------------------------------------- conversion


def test_check_level_bounds():
    scale = Scale(5)
    assert scale.check_level(0) == 0
    assert scale.check_level(4) == 4
    with pytest.raises(ValueError, match="^grade level must be at most 4, got 5$"):
        scale.check_level(5)
    with pytest.raises(ValueError, match="^grade level must be at least 0, got -1$"):
        scale.check_level(-1)
    with pytest.raises(ValueError, match=r"^grade level must be an integer, got 1\.5$"):
        scale.check_level(1.5)


def test_value_round_trip():
    scale = Scale(5)
    for lv in range(scale.levels):
        assert scale.level_from_value(scale.value(lv)) == lv
    assert scale.value(3) == Fraction(3, 4)


def test_level_from_value_rounds_half_up():
    scale = Scale(5)
    assert scale.level_from_value(Fraction(1, 8), strict=False) == 1
    assert scale.level_from_value(Fraction(3, 8), strict=False) == 2
    assert scale.level_from_value(0.3, strict=False) == 1


def test_level_from_value_strict_rejects_off_scale():
    scale = Scale(5)
    with pytest.raises(ValueError, match="does not denote a grade"):
        scale.level_from_value(Fraction(3, 10))
    with pytest.raises(ValueError, match="outside"):
        scale.level_from_value(Fraction(11, 10))
    assert scale.level_from_value(Fraction(11, 10), strict=False) == 4
    assert scale.level_from_value(Fraction(-1, 2), strict=False) == 0


def test_level_from_value_tolerates_float_noise():
    scale = Scale(5)
    assert scale.level_from_value(0.75) == 3
    noisy = Fraction(3, 4) + PARSE_TOLERANCE / 2
    assert scale.level_from_value(noisy) == 3


def test_level_from_value_rejects_garbage():
    scale = Scale(5)
    with pytest.raises(ValueError, match="cannot interpret"):
        scale.level_from_value(None)
    with pytest.raises(ValueError):
        scale.level_from_value(float("nan"))


def test_format_level_minimal_decimals():
    five = Scale(5)
    assert [five.format_level(v) for v in range(5)] == ["0", "0.25", "0.5", "0.75", "1"]
    three = Scale(3)
    assert [three.format_level(v) for v in range(3)] == ["0", "0.5", "1"]


def test_format_level_falls_back_to_level_syntax():
    seven = Scale(7)
    assert seven.format_level(1) == "L1"
    assert seven.format_level(3) == "0.5"
    assert seven.format_level(6) == "1"


# chains of up to MAX_LEVELS grades, many of them with a step of 2**a * 5**b,
# whose every grade has a short decimal
FORMAT_CHAINS = st.one_of(
    st.integers(2, MAX_LEVELS),
    st.builds(lambda a, b, k: min(2**a * 5**b * k + 1, MAX_LEVELS),
              st.integers(0, 8), st.integers(0, 8), st.integers(1, 3)),
)


@pytest.mark.deep
@given(FORMAT_CHAINS, st.data())
@settings(max_examples=strategies.examples(300))
def test_format_level_matches_the_fraction_search(levels, data):
    # the integer test n | lv * 10**d gives the texts the Fraction search
    # of oracles.format_level does, on the longest chains too
    scale = Scale(levels)
    n = scale.max_level
    lv = data.draw(st.one_of(st.integers(0, n), st.sampled_from([0, 1, n // 2, n - 1, n]),
                             st.integers(0, 10**6).map(lambda j: n * j // 10**6)))
    assert scale.format_level(lv) == oracles.format_level(scale, lv)


@given(st.integers(2, 9), st.data())
@settings(max_examples=60)
def test_format_level_parses_back(levels, data):
    scale = Scale(levels)
    lv = data.draw(st.integers(0, scale.max_level))
    text = scale.format_level(lv)
    if text.startswith("L"):
        assert text == f"L{lv}"
    else:
        assert scale.level_from_value(Fraction(text)) == lv
