"""Exact-arithmetic Horn volume functions and tensor multiplicities for so(5).

The public surface re-exports the main operations of each module; see the
module docstrings for conventions (bases, normalizations).
"""

from .rootsys import (
    RootSystem,
    WeylElement,
    apply_weyl,
    build_root_system,
    delta_g,
    is_compatible,
    kappa_constants,
    weyl_dimension,
)
from .multiplicity import (
    freudenthal_weights,
    kostant_partition,
    lr_klimyk,
    lr_steinberg,
    lr_triple,
    tensor_decompose,
)
from .bzpolytope import (
    RationalPolygon,
    boundary_interior_counts,
    bz_polygon_b2,
    degeneracy_info,
    lattice_point_count,
    pick_relation_check,
    reciprocity_check,
)
from .ehrhart import (
    QuasiPolynomial,
    fit_quasi_polynomial,
    leading_coefficient,
    stretching_quasi_polynomial,
)
from .volume import (
    PiecewiseQuadratic,
    SingularLine,
    c_kappa_via_kissinger,
    horn_contains_b2,
    j_b2,
    j_lr_shifted,
    j_lr_unshifted,
    j_so2_symmetric,
    pdf_b2,
    pdf_normalization_integral,
    piecewise_analyze_b2,
    singular_lines_b2,
    volume_routes,
)
from .covolume import CovolumeReport, covolume_report, formula_delta, gram_delta

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
