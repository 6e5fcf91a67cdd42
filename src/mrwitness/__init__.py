"""Strong-compositeness witness distributions and their exponential sums.

The package classifies every residue mod an odd n by the evidence it gives
against primality, evaluates the Weyl / Ramanujan / Gauss / power-residue
sums attached to the resulting partition by both brute force and closed
forms, and measures how uniformly the normalized witnesses fill the unit
interval.
"""

from .arith import (
    Factorization,
    euler_phi,
    factorize,
    is_prime,
    primitive_root,
    sigma,
)
from .characters import CharacterGroup, DirichletCharacter, character_group
from .equidist import (
    HistogramReport,
    ScanRow,
    histogram,
    interval_fraction,
    least_odd_composite_at_least,
    scan,
    star_discrepancy,
    star_discrepancy_points,
    weyl_battery,
)
from .errors import DomainError
from .expsums import (
    CancellationSum,
    ComplexSum,
    DecompositionReport,
    GaussReduction,
    RamanujanSum,
    cancellation_sum,
    cancellation_sum_dual,
    decomposition_reports,
    gauss_sum_brute,
    gauss_sum_reduced,
    ramanujan,
)
from .witness import (
    BoundReport,
    ClassCounts,
    MRDecomposition,
    ResidueScan,
    WitnessClass,
    WitnessClassification,
    bound_report,
    classify,
    classify_all,
    least_witness,
    mr_decompose,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CancellationSum",
    "CharacterGroup",
    "ClassCounts",
    "ComplexSum",
    "DecompositionReport",
    "DirichletCharacter",
    "DomainError",
    "Factorization",
    "GaussReduction",
    "HistogramReport",
    "MRDecomposition",
    "RamanujanSum",
    "ResidueScan",
    "ScanRow",
    "WitnessClass",
    "WitnessClassification",
    "bound_report",
    "cancellation_sum",
    "cancellation_sum_dual",
    "character_group",
    "classify",
    "classify_all",
    "decomposition_reports",
    "euler_phi",
    "factorize",
    "gauss_sum_brute",
    "gauss_sum_reduced",
    "histogram",
    "interval_fraction",
    "is_prime",
    "least_odd_composite_at_least",
    "least_witness",
    "mr_decompose",
    "primitive_root",
    "ramanujan",
    "scan",
    "sigma",
    "star_discrepancy",
    "star_discrepancy_points",
    "weyl_battery",
]
