"""jsrkit: joint spectral radius bounds, extremal norms, growth-maximising
sequence analysis, stability classification and optimal symbol ratios for
finite sets of square matrices."""

from .bounds import JsrBounds, estimate, lower_bound_periodic, upper_bound_at_depth
from .cocycle import CocycleValue, cocycle_check, evaluate, prefix_values
from .errors import (
    InconsistencyError,
    InputError,
    JsrkitError,
    NumericalError,
    ResourceCapError,
)
from .matrices import (
    MatrixSet,
    as_matrix,
    exterior_square,
    max_entry_norm,
    operator_norm,
    spectral_radius,
)
from .norms import (
    BarabanovCertificate,
    NormModel,
    barabanov_iterate,
    check_extremal,
    extremal_norm_2d,
    classify_extremality,
    kozyakin_extremal_witness,
)
from .mather import (
    CertifiedApprox,
    MatherApprox,
    MinimalSetDiagnostic,
    build_mather_approx,
    certified_approx,
    find_extremal_prefix,
    mean_distance_to_core,
    minimal_set_diagnostic,
    recurrent_ratio_check,
)
from .oneratio import (
    RatioEstimate,
    optimal_periodic_ratio,
    ratio_curve,
    ratio_equivalence_check,
)
from .reducibility import (
    BoundednessVerdict,
    Triangularisation,
    find_common_invariant_subspace,
    product_boundedness,
    triangularise,
)
from .stability import MarkovChainSpec, MarkovEstimate, classify, markov_lyapunov
from .subadditive import (
    SubadditiveObservable,
    beta_sandwich,
    fekete_limit,
    matrix_observable,
    subordination_survivors,
)
from .words import (
    WordGraph,
    cylinder_metric,
    enumerate_words,
    is_primitive,
    least_rotation,
    normalize_periodic,
    primitive_necklaces,
    shift,
    strongly_connected_components,
    symbol_frequency,
)

__version__ = "0.1.0"
