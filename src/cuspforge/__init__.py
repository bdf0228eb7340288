"""cuspforge: exact combinatorics of right-angled polytope Dehn fillings,
real moment-angle complexes, and spin certificates."""

from .characteristic import (
    BOUNDING,
    LIE,
    UNDETERMINED,
    CuspType,
    LieCertificate,
    OrientabilityResult,
    SpinReport,
    SpinStructureSet,
    SummandCertificate,
    WuReport,
    bounding_filling_certificate,
    dirac_label,
    lie_cusp_certificate,
    orientability,
    spin_obstruction,
    spin_report,
    spin_structures,
    summand_certificate,
)
from .chains import (
    ChainComplexData,
    HomologyResult,
    Z2QuotientBasis,
    chain_complex_of,
    coboundary,
    cohomology_z2_basis,
    homology,
    integral_homology_basis,
    subcomplex_selection,
)
from .cubical import CubicalComplex
from .errors import BudgetError, CertificateError, CuspforgeError, ValidationError
from .filling import (
    DehnFilling,
    DiagonalChoice,
    FillingChoice,
    dehn_fill,
    diagonals_from_filling,
    duality_check,
    enumerate_filling_choices,
    subdivide_cross_facets,
)
from .isomorphism import cubical_isomorphism, find_isomorphism
from .lattice import (
    FaceLattice,
    cube_lattice,
    dualize,
    polygon_lattice,
)
from .moment_angle import (
    Colouring,
    CuspCensus,
    CuspedComplex,
    ManifoldReport,
    PreimageReport,
    QuotientCellComplex,
    colour_manifold,
    cusp_census,
    manifold_check,
    preimage_components,
    real_moment_angle,
    truncated_quotient,
)
from .pipeline import PipelineConfig, PipelineResult, run_pipeline, verify
from .polytopes import (
    GossetPolytope,
    IdealPolytope,
    RACGData,
    abelianization_rank,
    gosset,
    ideal_dual,
    ideal_polytope_from_lattice,
    ingest_gosset,
    racg_data,
)
from .simplicial import (
    SimplicialComplex,
    boundary_of_simplex,
    build_simplicial,
    cross_polytope_boundary,
    cycle_complex,
    octahedron_boundary,
    two_points,
)
from .snf import SNFResult, smith_normal_form

__version__ = "0.1.0"
