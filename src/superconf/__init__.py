"""Exact computer algebra for supertranslation algebras.

Given an odd space, an even space, and a symmetric bracket, the package
computes nilpotence varieties, superconformal and Kähler multiplets with
their component fields, homological dimension, Gorenstein flags, square-zero
twists, and Tanaka prolongations - all over exact rationals.
"""

from .rings import GradedRing, FreeModule, ModuleElement, ModuleOrder, poly_ring
from .groebner import (
    GroebnerBasis,
    HilbertSeries,
    StepBudgetExceeded,
    buchberger,
    hilbert_series,
    ideal_gb,
    krull_dim,
    syzygy_module,
)
from .resolutions import (
    BettiTable,
    GradedDims,
    PresentedModule,
    VerificationFailed,
    ce_cohomology,
    is_gorenstein,
    koszul_tor,
    minimal_free_resolution,
    syzygetic_defect,
)
from .algebras import (
    AutomorphismAlgebra,
    SupertranslationAlgebra,
    build_standard,
    check_conformal_type,
    derivations_deg0,
    is_square_zero,
    jacobian,
)
from .multiplets import (
    MultipletModule,
    MultipletTable,
    canonical_module,
    component_fields,
    conf_module,
    form_module,
    hdim,
    kaehler_module,
    multiplet_module,
    universal_checks,
)
from .twisting import TwistResult, catalog_twist_vector, twist, twist_pipeline
from .prolongation import (
    ProlongationBrackets,
    ProlongationResult,
    derivation_complex_h0,
    tanaka_prolongation,
)
from .specfile import AlgebraSpec, SpecError, parse_spec, render_spec

__version__ = "0.1.0"
