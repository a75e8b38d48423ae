"""Verification engine for the finite computations behind r-isogenies of
elliptic curves with rational j-invariant over r-th cyclotomic fields.

Subgroup analysis in GL2 over prime fields, exhaustive searches for the
subgroup shapes that admit such isogenies, exact invariant arithmetic for
rational curves, cyclotomic square-class rules, and reduction-based
torsion bounds, each exposed both as a library and through the claim
registry driving the `isogate` command.
"""

from .claims import (
    CLAIM_IDS,
    CRITERION_CLAIMS,
    ClaimReport,
    Config,
    run_all,
    run_claim,
)
from .cyclo import (
    cm_field_discriminant,
    cm_isogeny_over_cyclotomic,
    cm_table,
    full_two_torsion_over_cyclotomic,
    is_square_in_cyclotomic,
    quadratic_subfield,
)
from .errors import IsogateError
from .gatefinder import find_gate_groups
from .linaction import acts_freely, fixed_lines, orbits, projective_image
from .matgroup import MatrixGroup, are_conjugate, is_applicable
from .modcurve import (
    image_bound,
    named_curve,
    named_curves,
    rational_torsion,
    torsion_bound_cyclotomic,
    two_division_shape,
)
from .ratcurves import (
    CurveModel,
    curve_from_j,
    disc_square_class_of_j,
    family_membership,
    g3_family_j,
    squarefree_part,
    surjectivity_certificate,
    surjectivity_certificates,
    two_division_cubic,
    two_torsion_family_j,
)
from .stdgroups import standard_group
from .subgroup_enum import subgroup_classes

__version__ = "0.1.0"

__all__ = [
    "CLAIM_IDS",
    "CRITERION_CLAIMS",
    "ClaimReport",
    "Config",
    "CurveModel",
    "IsogateError",
    "MatrixGroup",
    "acts_freely",
    "are_conjugate",
    "cm_field_discriminant",
    "cm_isogeny_over_cyclotomic",
    "cm_table",
    "curve_from_j",
    "disc_square_class_of_j",
    "family_membership",
    "find_gate_groups",
    "fixed_lines",
    "full_two_torsion_over_cyclotomic",
    "g3_family_j",
    "image_bound",
    "is_applicable",
    "is_square_in_cyclotomic",
    "named_curve",
    "named_curves",
    "orbits",
    "projective_image",
    "quadratic_subfield",
    "rational_torsion",
    "run_all",
    "run_claim",
    "squarefree_part",
    "standard_group",
    "subgroup_classes",
    "surjectivity_certificate",
    "surjectivity_certificates",
    "torsion_bound_cyclotomic",
    "two_division_cubic",
    "two_division_shape",
    "two_torsion_family_j",
    "__version__",
]
