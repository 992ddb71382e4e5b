"""Exact search and certification engine for isospectral spherical space
forms with Type I (metacyclic) fundamental groups."""

from .errors import (
    BadPrime,
    CertificationFailed,
    CoprimalityViolation,
    DegreeMismatch,
    EvenM,
    GroupMismatch,
    InvalidAutomorphism,
    InvalidRepresentation,
    NotFixedPointFree,
    OrderViolation,
    ParameterOutOfRange,
    SingularPoint,
    SizeLimitExceeded,
    SpaceformError,
)
from .groups import (
    Automorphism,
    GroupElement,
    TypeIParams,
    apply_automorphism,
    canonical_r,
    element_order,
    is_fixed_point_free,
    is_isomorphic,
    multiply,
    order_set_bruteforce,
    order_set_formula,
    power,
    validate_type1,
)
from .search import (
    PairCertificate,
    SearchConfig,
    certify_pair,
    construct_theorem42_pairs,
    crosscheck_table,
    enumerate_canonical,
    negative_d2_check,
    run_search,
)
from .spectra import (
    EigenExponentMultiset,
    MolienSeries,
    RepParams,
    SpectrumFingerprint,
    SumRep,
    almost_conjugate,
    char_poly_exponents,
    fingerprint,
    isometric_irreducible,
    molien_coefficients,
    reps_equivalent,
)

__version__ = "0.1.0"
