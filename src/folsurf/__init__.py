"""folsurf: exact-arithmetic invariants of foliated rational surfaces.

Surface models are Picard lattices of the plane and of Hirzebruch surfaces
with blow-up towers; foliations are scenarios of declared curves and
singularities.  On top of that the package computes Zariski decompositions,
the three Chern numbers, slope, volume, geometric genus where a closed form
exists, modular invariants of fibrations, and rule-cited integrability
verdicts, with every structural identity enforced as an exact consistency
check.
"""

from .blowup import (
    BlowupOutcome,
    ResolutionResult,
    blow_up_singularity,
    reduction_step_bound,
    seidenberg_reduce,
    transform_canonical,
)
from .chern import (
    ChernNumbers,
    FiredRule,
    Verdict,
    chern_numbers,
    decide,
    genus_bound,
    noether_bounds,
    slope,
)
from .errors import (
    DomainError,
    FolsurfError,
    InconsistentScenario,
    ParseError,
    ShapeError,
)
from .fibration import (
    FiberModel,
    FiberNode,
    FibrationModel,
    crosscheck_with_chern,
    fiber_euler,
    fiber_local_chern,
    modular_invariants,
    slope_inequality_check,
)
from .foliation import (
    CheckResult,
    CurveRecord,
    FoliatedScenario,
    ScenarioMetadata,
    ValidationReport,
    singularity_count_check,
    validate,
)
from .local_invariants import (
    EigenvalueClass,
    NonDegenerate,
    SaddleNode,
    SingularityRecord,
    baum_bott,
    beta,
    beta_p,
    chi_local,
    chi_p,
)
from .scenario_io import (
    InvariantReport,
    ScenarioDocument,
    fmt_rational,
    parse_scenario,
    run_pipeline,
    serialize_document,
)
from .surface import (
    DivisorClass,
    SurfaceModel,
    canonical_class,
    chi_structure,
    chi_top,
    h0_line_bundle,
    intersect,
)
from .zariski import (
    FChain,
    ZariskiDecomposition,
    chain_coefficients,
    chain_eigenvalues,
    chain_negative_square,
    coefficient_bounds_check,
    decompose_against_curves,
    detect_chains_with_flags,
    volume,
    zariski_decompose,
)

__version__ = "0.1.0"
