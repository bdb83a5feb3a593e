"""Reference data shared across the test suite.

The running example is the top five of the 2004 Olympic decathlon: raw
event points, per-event scaling bounds, the 5-grade matrix they
discretize to, and that matrix's known seven-concept exact decomposition
with its coverage curve.  Derived quantities (concept count, optimal
factor count) were computed independently with the exhaustive tools and
are frozen here.
"""

from __future__ import annotations

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
