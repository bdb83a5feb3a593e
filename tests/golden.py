"""Reference data shared across the test suite.

The running example is the top five of the 2004 Olympic decathlon: raw
event points, per-event scaling bounds, the 5-grade matrix they
discretize to, and that matrix's known seven-concept exact decomposition
with its coverage curve.  Derived quantities (concept count, optimal
factor count) were computed independently with the exhaustive tools and
are frozen here.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import numpy as np

from gradefactor import (
    ColumnRange,
    FactorSet,
    FormalConcept,
    FuzzySet,
    GradedMatrix,
    RawTable,
    Scale,
)

ATHLETES = ("Sebrle", "Clay", "Karpov", "Macey", "Warners")
EVENTS = ("100m", "lj", "sp", "hj", "400m", "110mh", "di", "pv", "ja", "1500m")

# Event points scored by each athlete.
SCORES = (
    (894, 1020, 873, 915, 892, 968, 844, 910, 897, 680),
    (989, 1050, 804, 859, 852, 958, 873, 880, 885, 668),
    (975, 1012, 847, 887, 968, 978, 905, 790, 671, 692),
    (885, 927, 835, 944, 863, 903, 836, 731, 715, 775),
    (947, 995, 758, 776, 911, 973, 741, 880, 669, 693),
)

# Scaling bounds: points mapping to grade 0 and grade 1 per event.
LOWEST = (782, 723, 672, 670, 673, 803, 661, 673, 598, 466)
HIGHEST = (989, 1050, 873, 944, 968, 978, 905, 1035, 897, 791)

# The scores above discretized onto the 5-grade chain.
GRADED = (
    (0.50, 1.00, 1.00, 1.00, 0.75, 1.00, 0.75, 0.75, 1.00, 0.75),
    (1.00, 1.00, 0.75, 0.75, 0.50, 1.00, 0.75, 0.50, 1.00, 0.50),
    (1.00, 1.00, 0.75, 0.75, 1.00, 1.00, 1.00, 0.25, 0.25, 0.75),
    (0.50, 0.50, 0.75, 1.00, 0.75, 0.50, 0.75, 0.25, 0.50, 1.00),
    (0.75, 0.75, 0.50, 0.50, 0.75, 1.00, 0.25, 0.50, 0.25, 0.75),
)

# The seven factor concepts of GRADED, in the order the default greedy
# run emits them.
EXTENTS = (
    (0.50, 1.00, 1.00, 0.50, 0.75),
    (1.00, 0.75, 0.25, 0.50, 0.25),
    (0.75, 0.50, 0.75, 1.00, 0.50),
    (1.00, 0.75, 0.75, 0.50, 1.00),
    (0.75, 0.75, 1.00, 0.75, 0.25),
    (0.75, 0.50, 1.00, 0.75, 0.75),
    (1.00, 1.00, 0.25, 0.50, 0.25),
)
INTENTS = (
    (1.00, 1.00, 0.75, 0.75, 0.50, 1.00, 0.50, 0.25, 0.25, 0.50),
    (0.50, 1.00, 1.00, 1.00, 0.75, 1.00, 0.75, 0.75, 1.00, 0.75),
    (0.50, 0.50, 0.75, 1.00, 0.75, 0.50, 0.75, 0.25, 0.50, 1.00),
    (0.50, 0.75, 0.50, 0.50, 0.75, 1.00, 0.25, 0.50, 0.25, 0.75),
    (0.75, 0.75, 0.75, 0.75, 0.75, 0.75, 1.00, 0.25, 0.25, 0.75),
    (0.75, 0.75, 0.75, 0.75, 1.00, 0.75, 0.50, 0.25, 0.25, 0.75),
    (0.50, 1.00, 0.75, 0.75, 0.50, 1.00, 0.75, 0.50, 1.00, 0.50),
)

# Object-factor and factor-attribute matrices of the seven factors.
A_F = (
    (0.50, 1.00, 0.75, 1.00, 0.75, 0.75, 1.00),
    (1.00, 0.75, 0.50, 0.75, 0.75, 0.50, 1.00),
    (1.00, 0.25, 0.75, 0.75, 1.00, 1.00, 0.25),
    (0.50, 0.50, 1.00, 0.50, 0.75, 0.75, 0.50),
    (0.75, 0.25, 0.50, 1.00, 0.25, 0.75, 0.25),
)
B_F = INTENTS

# Nonzero cells left uncovered before and after each successive factor:
# every cell of GRADED is nonzero, so entry l is 50 minus the cells CURVE
# matches after l factors.
UNCOVERED = (50, 27, 14, 8, 4, 2, 1, 0)

# Fraction of cells matched after each successive factor.
CURVE = (
    Fraction(23, 50),
    Fraction(18, 25),
    Fraction(21, 25),
    Fraction(23, 25),
    Fraction(24, 25),
    Fraction(49, 50),
    Fraction(1),
)

# Frozen from the exhaustive enumerator and the exact-cover oracle.
CONCEPT_COUNT = 128
OPTIMAL_FACTOR_COUNT = 5

# A small exact-composition example on the 11-grade chain, and the
# matching demonstration that composition is not additive: composing the
# componentwise sum of the two query sets differs from summing their
# separate compositions.
ELEVEN_A = ((0.2, 0.8), (0.9, 0.8), (1.0, 1.0))
ELEVEN_B = ((0.4, 0.8, 0.6), (0.5, 0.2, 0.3))
ELEVEN_PRODUCT = ((0.3, 0.0, 0.1), (0.3, 0.7, 0.5), (0.5, 0.8, 0.6))
QUERY_1 = (0.6, 0.2)
QUERY_2 = (0.4, 0.3)
JOINT_RESULT = (0.4, 0.8, 0.6)
SEPARATE_SUM = (0.0, 0.6, 0.2)


# A transaction file shaped like the chess dataset: 3196 transactions over
# 75 items, each item present with probability 0.49, drawn by
# `tall_transactions`.  The ten factors that `factorize --format fimi
# --levels 2 --max-factors 10` finds in it each span a small block of the
# grid.  The sha256 of each artifact that run writes, from an input named
# tall.dat:
TALL_SHA256 = {
    "A.csv": "4971e92ed73efd78df8854cc6d5eae10e0758ffa1186da400bbb63c1364f0bf7",
    "B.csv": "80088347980fa3923f98ee1d61731ec5b27bcba49f0fd2c7dda321d828c57cde",
    "coverage.tsv": "f2ff982f0c5cc91031fb8d55d683d3213ec47bfccdb2685cee8f789aab13edad",
    "factors.json": "3ad5e1aa60c41dd1551031efb154704e1d4750a710c74e5909d7a91d382f43e2",
}


# The factor set, as `factor_set_sha256` writes it, that a complete
# `find_factors` run returns on the tall transaction file as `read_fimi`
# reads it, under each tie-break policy: 228 factors, computed before the
# two-grade sweep probed one row word per candidate and column.  On two
# grades every candidate raises its attribute to the top grade, so the
# policies agree.
TALL_COMPLETE_SHA256 = {
    "grade-then-index": "9ae11dab8d302d72601395901fb1170325408e35b617308183593201e3daa693",
    "index-then-grade": "9ae11dab8d302d72601395901fb1170325408e35b617308183593201e3daa693",
}


# A graded input of the same tall shape: 3196 x 75 on 5 levels, each cell
# nonzero with probability 0.49 and then of a grade drawn uniformly from
# 1..4, by `graded_tall`.  The sha256 of the factor set, as
# `factor_set_sha256` writes it, that `find_factors(..., max_factors=3)`
# returns on each t-norm, with the level tables and without them.  The
# three agree: each factor is one column at the top grade, whose extent is
# that column, since residuum(n, b) = b on every t-norm, and every other
# column holds 0 in some row where the extent is n.
GRADED_TALL_SHA256 = {
    "lukasiewicz": "27491bb1b291dbafd4053e128052b278998fac524cc930e10457f3a9716dfe7c",
    "godel": "27491bb1b291dbafd4053e128052b278998fac524cc930e10457f3a9716dfe7c",
    "goguen": "27491bb1b291dbafd4053e128052b278998fac524cc930e10457f3a9716dfe7c",
}


# A planted-loadings input shaped like a discretized survey: 4000 x 8 on 5
# levels, by `planted_loadings`, with only 125 distinct rows; columns 6 and
# 7 repeat columns 0 and 1.  The sha256 of the factor set, as
# `factor_set_sha256` writes it, that `find_factors` returns on each t-norm,
# under both tie-break policies, with the level tables and without them,
# computed before the sweep ran on clarified contexts.
LOADINGS_SHA256 = {
    "lukasiewicz": "2a76af2b353759b96170cbacfd86fee6d13d0df711d7a5cbc57580b68206b6bb",
    "godel": "229831130e725b199b2574585bdf2aea6ef20931931be575e628d0383896b122",
    "goguen": "117f51813a5a4c5482090674e6f6675a9719fa6b99a55ef47fe41a89129fd737",
}


def scale() -> Scale:
    return Scale(5, "lukasiewicz")


def raw_table() -> RawTable:
    columns = tuple(np.array(column, dtype=np.int64) for column in zip(*SCORES))
    return RawTable(ATHLETES, EVENTS, columns, (1,) * len(EVENTS))


def ranges() -> ColumnRange:
    return ColumnRange(
        tuple(Fraction(v) for v in LOWEST),
        tuple(Fraction(v) for v in HIGHEST),
    )


def graded_matrix() -> GradedMatrix:
    return GradedMatrix.from_values(scale(), GRADED)


def reference_factors() -> tuple[FormalConcept, ...]:
    s = scale()
    return tuple(
        FormalConcept(FuzzySet.from_values(s, e), FuzzySet.from_values(s, i))
        for e, i in zip(EXTENTS, INTENTS)
    )


def reference_factor_set() -> FactorSet:
    return FactorSet(*printed_factor_matrices(), UNCOVERED)


def printed_factor_matrices() -> tuple[GradedMatrix, GradedMatrix]:
    s = scale()
    return GradedMatrix.from_values(s, A_F), GradedMatrix.from_values(s, B_F)


def tall_transactions() -> str:
    """The text of the chess-shaped transaction file, ids from 1, drawn with
    `random.Random`, whose `random()` sequence for a seed is fixed across
    Python versions."""
    rng = random.Random(3196)
    return "".join(
        " ".join(str(j + 1) for j in range(75) if rng.random() < 0.49) + "\n"
        for _ in range(3196)
    )


def graded_tall(kind: str) -> GradedMatrix:
    """The graded tall input on one t-norm, drawn with `random.Random` as
    `tall_transactions` is."""
    rng = random.Random(75)
    entries = [[1 + int(4 * rng.random()) if rng.random() < 0.49 else 0 for _ in range(75)]
               for _ in range(3196)]
    return GradedMatrix(Scale(5, kind, rounded=kind == "goguen"), entries)


def planted_loadings(kind: str) -> GradedMatrix:
    """The planted-loadings input on one t-norm: 4000 x 8 on 5 levels, the
    t-norm product of random factor levels, 4000 x 3 drawn with
    `random.Random` as `tall_transactions` is, with loadings in which
    column j loads on factor j mod 3 alone, at the top grade or the one
    below it from one block of 3 columns to the next."""
    n = 4
    rng = random.Random(4000)
    left = [[int(5 * rng.random()) for _ in range(3)] for _ in range(4000)]
    loadings = [(j % 3, n - (j // 3) % 2) for j in range(8)]

    def tnorm(a: int, b: int) -> int:
        if kind == "lukasiewicz":
            return max(a + b - n, 0)
        if kind == "godel":
            return min(a, b)
        return (2 * a * b + n) // (2 * n)

    entries = [[tnorm(row[f], b) for f, b in loadings] for row in left]
    return GradedMatrix(Scale(5, kind, rounded=kind == "goguen"), entries)


def factor_set_sha256(factor_set: FactorSet) -> str:
    """The sha256 of a factor set's two matrices, as little-endian int64
    levels, and its trace."""
    digest = hashlib.sha256()
    for matrix in (factor_set.a, factor_set.b):
        digest.update(repr(matrix.shape).encode())
        digest.update(np.ascontiguousarray(matrix.entries, dtype="<i8").tobytes())
    digest.update(repr(tuple(factor_set.uncovered_counts)).encode())
    return digest.hexdigest()
