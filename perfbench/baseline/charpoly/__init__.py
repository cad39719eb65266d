"""Exact character polynomials of symmetric groups on cycles.

Character values of the stable shapes (n - k, lam) are integer-valued
polynomials in n; this package computes their coefficient vectors in
shifted binomial bases from signed skew-tableau counts, and cross-checks
them against independent brute-force evaluators.
"""

from .binom_poly import BinomPoly, binomial, eval_poly, interpolate, reshift
from .characters import (
    CycleType,
    OutOfStableRange,
    SizeMismatch,
    TooSmall,
    centralizer_order,
    character_frobenius_transposition,
    character_mn,
    character_recpart,
)
from .partitions import (
    Cell,
    EmptyPartition,
    NotACorner,
    NotWeaklyDecreasing,
    Partition,
    SkewHook,
    contains,
    hook_lengths,
    internal_corners,
    make_partition,
    partitions_of,
    remove_corner,
    skew_hooks,
    subpartitions,
    transpose,
    vertical_strip_inners,
)
from .stability import (
    CaseNotDefined,
    CharPolyExpansion,
    Family,
    SignedPartition,
    basis2_closed_form,
    basis2_closed_forms,
    basis2_partition,
    char_poly,
    coeff_b,
    coeff_b_transposition_split,
    constant_coeff,
    constant_coeff_vertical_strip,
    dim_poly,
    dim_poly_alt,
    r_primary,
)
from .tableaux import SkewShape, a_coeff, dim_syt, skew_syt_count

__version__ = "0.1.0"
