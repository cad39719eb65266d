"""Exact character polynomials of symmetric groups on cycles.

Character values of the stable shapes (n - k, lam) are integer-valued
polynomials in n; this package computes their coefficient vectors in
shifted binomial bases from signed skew-tableau counts, and cross-checks
them against independent brute-force evaluators.
"""

from .binom_poly import BinomPoly
from .characters import CycleType, SizeMismatch, character_mn
from .partitions import NotWeaklyDecreasing, Partition
from .stability import char_poly, dim_poly, r_primary
from .tableaux import dim_syt, skew_syt_count

__version__ = "0.1.0"
