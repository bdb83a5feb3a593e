"""Decompose matrices of ordinal grades into formal-concept factors.

The library works on finite equidistant chains of grades with a residuated
t-norm, represents matrices exactly as integer levels, and factors them as
the sup-t-norm product of an object-factor and a factor-attribute matrix
whose factors are formal concepts of the input.
"""

from .concepts import (
    BudgetExceededError,
    FormalConcept,
    concept_from_intent,
    down,
    enumerate_concepts,
    up,
)
from .data import (
    ColumnRange,
    RawTable,
    discretize,
    random_factorizable,
    read_csv,
    read_fimi,
    read_ranges_csv,
    read_raw_csv,
    write_csv,
)
from .factorization import (
    DEFAULT_TIE_BREAK,
    TIE_BREAK_POLICIES,
    FactorSet,
    coverage_curve,
    factor_matrices,
    find_factors,
    optimal_factorization,
)
from .matrix import LEVEL_DTYPE, FuzzySet, GradedMatrix, compose
from .scale import MAX_LEVELS, PARSE_TOLERANCE, Scale, TNORM_KINDS

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ColumnRange",
    "DEFAULT_TIE_BREAK",
    "FactorSet",
    "FormalConcept",
    "FuzzySet",
    "GradedMatrix",
    "LEVEL_DTYPE",
    "MAX_LEVELS",
    "PARSE_TOLERANCE",
    "RawTable",
    "Scale",
    "TIE_BREAK_POLICIES",
    "TNORM_KINDS",
    "compose",
    "concept_from_intent",
    "coverage_curve",
    "discretize",
    "down",
    "enumerate_concepts",
    "factor_matrices",
    "find_factors",
    "optimal_factorization",
    "random_factorizable",
    "read_csv",
    "read_fimi",
    "read_ranges_csv",
    "read_raw_csv",
    "up",
    "write_csv",
]
