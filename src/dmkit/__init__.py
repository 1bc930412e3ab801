"""Delta-matroids and proper set systems on small ground sets.

Everything is built on immutable values and pure functions: twists,
minors, Higgs lifts, lattice-path regions, GF(2) representations, stack
classification, and the excluded-minor classifiers with their census
verification machinery.
"""

from .catalog import CatalogEntry, ExminorClassId, excluded_minor_set, make_named, twist_classes
from .errors import (
    AmbientHypothesisError,
    CapacityError,
    DmkitError,
    FormatError,
    GroundSetMismatchError,
    ImproperSystemError,
    InvalidIndexSetError,
    InvalidMinorError,
    InvalidRegionError,
    NotADeltaMatroidError,
    NotAMatroidError,
    NotAQuotientError,
    UnknownElementError,
    UnknownNameError,
)
from .gf2 import SkewSymMatrixGF2, d_of_c, is_binary_dm, principal_nonsingular, representation_twist
from .higgs import HiggsClassification, build_higgs_dm, classify_higgs, full_higgs_dm, higgs_lift
from .latticepath import (
    LatticePath,
    Region,
    enumerate_paths,
    lpdm,
    region_dual,
    region_minor,
)
from .matroid import Matroid, is_matroid, is_quotient, min_max_matroids, paving_flags, uniform_matroid
from .minorscan import MinorWitness, classify_by_exminors, enumerate_minors, has_minor_from
from .setsystem import ElementStatus, SetSystem, parse_set_system, serialize_set_system
from .stacks import Stack, StackClassification, check_speven, classify_stack, is_matroid_stack, stack_of

__version__ = "0.1.0"

__all__ = [
    "AmbientHypothesisError",
    "CapacityError",
    "CatalogEntry",
    "DmkitError",
    "ElementStatus",
    "ExminorClassId",
    "FormatError",
    "GroundSetMismatchError",
    "HiggsClassification",
    "ImproperSystemError",
    "InvalidIndexSetError",
    "InvalidMinorError",
    "InvalidRegionError",
    "LatticePath",
    "Matroid",
    "MinorWitness",
    "NotADeltaMatroidError",
    "NotAMatroidError",
    "NotAQuotientError",
    "Region",
    "SetSystem",
    "SkewSymMatrixGF2",
    "Stack",
    "StackClassification",
    "UnknownElementError",
    "UnknownNameError",
    "build_higgs_dm",
    "check_speven",
    "classify_by_exminors",
    "classify_higgs",
    "classify_stack",
    "d_of_c",
    "enumerate_minors",
    "enumerate_paths",
    "excluded_minor_set",
    "full_higgs_dm",
    "has_minor_from",
    "higgs_lift",
    "is_binary_dm",
    "is_matroid",
    "is_matroid_stack",
    "is_quotient",
    "lpdm",
    "make_named",
    "min_max_matroids",
    "paving_flags",
    "parse_set_system",
    "principal_nonsingular",
    "region_dual",
    "region_minor",
    "representation_twist",
    "serialize_set_system",
    "stack_of",
    "twist_classes",
    "uniform_matroid",
]
