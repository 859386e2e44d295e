"""Exact computational engine for Frobenius/Hopf structure on finite-dimensional
algebras, Hochschild cohomology with its Batalin-Vilkovisky operator, cyclic
cohomology with the string bracket, and the two-dimensional cobordism prop
with its TQFT evaluation and determinant-line twisting.
"""

__version__ = "0.1.0"

from .fields import QQ, GF, field_by_name
from .groups import FiniteGroup, preset
from .algebra import (
    FDAlgebra,
    FrobeniusStructure,
    class_algebra,
    exterior_algebra,
    find_integrals,
    frobenius_from_integral,
    group_algebra,
    group_frobenius,
    lambda_L,
    lie_pairing,
    sweedler_algebra,
)
from .hochschild import (
    BarComplex,
    BVStructure,
    Cochain,
    HochschildCohomology,
    bv_check,
    centralizer_oracle,
    connes_b_dual,
    cup,
    gerstenhaber_bracket,
    hochschild_dims,
)
from .cyclic import (
    CyclicCohomology,
    StringBracket,
    connes_maps,
    cyclic_cohomology,
)
from .cobordism import (
    Cobordism,
    DetLine,
    FrobeniusTQFT,
    TQFTMap,
    det_compose,
    det_line,
    preset_cobordism,
    tqft_evaluate,
)

__all__ = [
    "QQ",
    "GF",
    "field_by_name",
    "FiniteGroup",
    "preset",
    "FDAlgebra",
    "FrobeniusStructure",
    "class_algebra",
    "exterior_algebra",
    "find_integrals",
    "frobenius_from_integral",
    "group_algebra",
    "group_frobenius",
    "lambda_L",
    "lie_pairing",
    "sweedler_algebra",
    "BarComplex",
    "BVStructure",
    "Cochain",
    "HochschildCohomology",
    "bv_check",
    "centralizer_oracle",
    "connes_b_dual",
    "cup",
    "gerstenhaber_bracket",
    "hochschild_dims",
    "CyclicCohomology",
    "StringBracket",
    "connes_maps",
    "cyclic_cohomology",
    "Cobordism",
    "DetLine",
    "FrobeniusTQFT",
    "TQFTMap",
    "det_compose",
    "det_line",
    "preset_cobordism",
    "tqft_evaluate",
]
