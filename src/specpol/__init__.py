"""specpol: exact spectra of isolated hypersurface singularities.

Exact-rational computation of singularity spectra for the A/D/E/J catalog and
diagonal germs, polar degrees of singular projective hypersurfaces,
spectrum-semicontinuity feasibility checks, exhaustive configuration
searches, and the finiteness bounds that make those searches terminate.
"""

from .bounds import (
    Region,
    alpha1_threshold,
    candidate_region,
    degree_bound,
    dimension_excluded,
    ell,
    lemma1_region_k2,
)
from .catalog import (
    GermClass,
    InvalidGermError,
    corank_curve,
    curve_spectrum,
    fermat_spectrum,
    germ_spectrum,
    multiplicity_curve,
    parse_germ,
)
from .polar import (
    Configuration,
    InfeasibleConfigurationError,
    diagonal_milnor,
    huh_inequality_holds,
    polar_degree,
)
from .search import (
    SearchFilters,
    SearchReport,
    enumerate_configurations,
    germ_pool,
    germ_pool_size,
    load_huh_lists,
    verify_huh_lists,
)
from .semicontinuity import (
    SemicontinuityReport,
    Violation,
    candidate_spectrum,
    check,
    check_configuration,
)
from .spectrum import (
    NEG_INF,
    POS_INF,
    EmptySpectrumError,
    Spectrum,
    add,
    deg_window,
    from_numerators,
    join,
    make_spectrum,
)

__version__ = "0.1.0"
