"""Jet-level gauge transformation machinery on grid patches.

Fiber algebra for compact matrix groups, first- and second-order gauge
jets with their group laws, the local action laws on matter fields,
gauge potentials, and curvature, gauge-invariant densities with the
covariant derivative and curvature factorization, and a config-driven
verification harness.
"""

from .lie_core import (
    AlgebraElement,
    DimensionError,
    GroupElement,
    GroupFamily,
    GroupSpec,
    InvariantError,
    RepVector,
    algebra_basis,
    algebra_coords,
    algebra_from_coords,
    bracket,
    exp,
    fundamental_vector_field,
    group_spec,
    multiply,
    rep_act,
    structure_constants,
    tangent_act,
)
from .patch import Field, Patch, Region, RegionError, default_patch, integrate
from .jets import (
    Curvature,
    Jet1Gauge,
    Jet2Gauge,
    JetConnection,
    JetMatter,
    curvature,
    jet1_inv,
    jet1_mul,
    jet1_of,
    jet2_inv,
    jet2_mul,
    jet2_of,
    jet_connection_of,
    jet_matter_of,
    maurer_cartan_defect,
    sym,
)
from .actions import (
    TransitivityWitness,
    act_connection,
    act_curvature,
    act_jet_connection,
    act_jet_matter,
    gauge_to_zero_jet1,
    gauge_to_zero_jet2,
)
from .lagrangians import covariant_derivative, gauge_density, matter_density, utiyama_factor
from .harness import Report, SuiteConfig, convergence_study, run

__version__ = "0.1.0"
