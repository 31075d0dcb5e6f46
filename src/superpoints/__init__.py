"""superpoints: exact arithmetic in the points of affine supergroups.

The package realizes supergroups from super Harish-Chandra pairs as groups
of points over Grassmann-type coefficient algebras: exact coefficient
arithmetic, sign-twisted supermatrices, Lie superalgebras with the
characteristic-free 2-operation, PBW straightening on the exterior module,
and canonical normal forms computed by independent routes that must agree.
"""

from .coeff import (
    GF2,
    GF3,
    GF5,
    QQ,
    GrassmannAlgebra,
    PrimeField,
    RationalField,
    SuperNumbers,
    dual_numbers,
    field_by_name,
    parse_element,
)
from .errors import (
    ClosureViolation,
    MembershipViolation,
    NonTermination,
    NotInvertible,
    SchemaError,
    SpanViolation,
    StructuralError,
)
from .gp import (
    EvenTok,
    GroupWord,
    InducedModule,
    NormalForm,
    OddTok,
    PairMorphism,
    defining_module,
    gp_commutator,
    gp_inv,
    gp_mul,
    normal_form,
    psi_on_morphism,
    reorder_symbolic,
    roundtrip_phi_psi,
    roundtrip_psi_phi,
    strip_matrix_factorization,
)
from .liesuper import (
    CheckReport,
    LieSuperalgebraData,
    check_axioms,
    from_matrices,
    gl_lie,
    straighten_action,
    wedge_ad_action,
    word_action,
)
from .shcp import (
    HarishChandraPair,
    LinearSupergroupFixture,
    char2_pair,
    gl_fixture,
    gl_pair,
    phi_of_group,
    q2_pair,
    validate_pair,
)
from .smat import (
    GroupDescriptor,
    SuperMatrix,
    diagonal_torus,
    dual_probe,
    gl_2op,
    gl_block_diag,
    gl_bracket,
    gl_full,
    gl_split,
    is_invertible,
    is_odd_unipotent,
    scalar_torus,
    semidirect_split,
    smat_inv,
)

__version__ = "0.1.0"
