"""Certificates, SOS decompositions and rank bounds for biquadratic forms."""

from .errors import (
    CannotReduce,
    InvalidInput,
    NoPSDPointFound,
    NotPSD,
    NumericalError,
)
from .forms import (
    BiquadraticForm,
    MonomialTerm,
    SOSDecomposition,
    evaluate,
    evaluate_sos,
    load_form,
    save_form,
    symmetrize,
    transpose_xy,
    verify_sos,
)
from .gram import (
    GramFamily,
    GramPoint,
    build_family,
    factor_gram,
    gram_at,
    min_rank_search,
    psd_point,
    reduce_to_boundary,
)
from .linalg import (
    DEFAULT_TOL,
    SpectralDecomposition,
    Tolerances,
    is_psd,
    numerical_rank,
    psd_factor,
    sym_eig,
)
from .meig import MEigenpair, contract_x, contract_y, meig_solve, psd_sample_check
from .partsym import (
    PSDCertificate,
    QRPair,
    XSymmetricData,
    check_psd_monic,
    detect_x_symmetric,
    rank_bound,
    reconstruct,
    reduce_general,
    sos_decompose_general,
    sos_decompose_naive,
    sos_decompose_structured,
)
from .simple import (
    LowerBoundCertificate,
    SupportSet,
    UpperBoundOnly,
    exact_sos_rank_simple,
    gen_simple,
    lower_bound_certificate,
    to_form,
)

__version__ = "0.1.0"
