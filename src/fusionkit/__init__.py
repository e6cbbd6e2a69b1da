"""fusionkit: exact structure theory and pentagon data for fusion rules over GF(p).

The library classifies fusion rules whose simple-current subgroup has index 2
through group homomorphism data, and classifies the pentagon-equation
coefficient tables (fusion systems) living on them through uberderivation
triples, all in exact prime-field arithmetic.
"""

from .ambient import Ambi
from .cohomology import (
    Cochain,
    H3Report,
    coboundary,
    cocycle_to_fusion_system,
    cohomologous3,
    fusion_system_to_cocycle,
    h3,
    h3_via_uber,
    is_cocycle,
    normalize_cocycle3,
)
from .errors import (
    DomainError,
    FusionkitError,
    ResourceError,
    UnsupportedFieldError,
    ValidationError,
)
from .fields import Field, nth_roots_of, roots_of_unity
from .feudal import (
    FeudalRule,
    HomDatum,
    detect_feudal,
    enumerate_feudal,
    gamma,
    graded_group,
    graded_isomorphic,
    group_rule,
    hom_datum_isomorphic,
    moore_read,
    phi,
    round_trip_check,
    tambara_yamagami,
)
from .groups import (
    FiniteGroup,
    automorphisms as group_automorphisms,
    cyclic,
    dihedral,
    direct_product,
    homomorphisms,
    isomorphisms,
    klein_four,
    named_group,
    quaternion,
    standard_catalog,
    trivial_group,
)
from .rules import (
    FusionRule,
    RuleReport,
    adjoint_subrule,
    automorphisms,
    fuse_multisets,
    is_homomorphism,
    left_cosets,
    nilpotency_class,
    simple_currents,
    subrule_generated,
    universal_grading,
    verify_fusion_rule,
)
from .systems import (
    FusionSystem,
    GaugeXi,
    admissible_sextuples,
    apply_gauge,
    enumerate_fusion_systems_bruteforce,
    identity_gauge,
    pentagon_instances,
    random_gauge,
    recoupling_matrix,
    verify_fusion_system,
)
from .uber import (
    GaugeTriple,
    Uberderivation,
    UberClassification,
    apply_gauge_uber,
    canonicalize_tau,
    check_existence_obstructions,
    decompose,
    enumerate_uber,
    gauge_equivalent_uber,
    gauge_xi_from_triple,
    is_normal,
    normalize,
    psi,
    psi_gauge,
    reconstruct,
)

__version__ = "0.1.0"
