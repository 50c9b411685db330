"""lenscert: polynomial-size certificates that a 3-manifold is not a lens space."""

from .certificate import (
    Certificate,
    VerificationReport,
    parse,
    pipeline,
    serialize,
    triangle_certificate,
    verify,
)
from .galois import FieldElement, FieldSpec, smallest_prime_in_progression
from .intlinalg import (
    AbelianGroup,
    IntMatrix,
    SNFResult,
    abelianization,
    hadamard_torsion_bound,
    is_cyclic,
    smith_normal_form,
)
from .presentation import GroupPresentation, Word, fundamental_group
from .projmat import ProjMatrix, evaluate_word, projective_order
from .trianglerep import (
    TriangleType,
    bound_report,
    build_hyperbolic_rep,
    build_nonhyperbolic_cert,
    classify,
    cosine_norm,
    cyclotomic_eval,
    field_degree_report,
)
from .triangulation import (
    OrientationResult,
    Triangulation,
    ValidationReport,
    orientation_check,
    parse_triangulation,
    validate,
)

__version__ = "0.1.0"
