"""Exact-arithmetic certification for a two-tower diagonal direct system.

The package tabulates the system's integer sequences, certifies the
inequalities its governing constants must satisfy, propagates ranks and
classes through the stages, reproduces the cohomological embedding
obstruction, and emits machine-checkable certificates separating the
radii of comparison of the two distinguished corners while the order-two
flip exchanges their classes.  All certified claims are exact rational
comparisons, and the trace-side grid simulations are exact as well: the
package uses no floating point and has no runtime dependency.
"""

from .chern import (
    EmbeddingRankBound,
    MultilinearClass,
    invert_unit,
    min_trivial_embedding_rank,
    multiply,
    total_chern_product_bundle,
)
from .errors import ConsistencyError, InconclusiveAtHorizon, InputError
from .params import (
    ConstraintReport,
    ParamFamily,
    SequenceTable,
    check_constraints,
    make_explicit_family,
    make_geometric_family,
    sequences,
)
from .pipeline import TheoremReport, certify_theorem
from .ranks import (
    BottShape,
    K0Class,
    RankState,
    StageMapLayout,
    cuntz_threshold,
    initial_bott_shape,
    push_bott,
    push_k0,
    q_class,
    q_perp_ranks,
    q_ranks,
    stage_layout,
)
from .rcbounds import (
    RcLowerCertificate,
    RcUpperResult,
    SeparationReport,
    certify_rc_lower,
    rc_upper,
    separation,
)
from .telescope import TelescopeResult, WeierstrassResult, telescope, weierstrass_check
from .tracesim import (
    FlipReport,
    GapSeries,
    GridFunction,
    IntertwiningResult,
    PiecewiseLinearMap,
    RoundingPlan,
    StageEntries,
    averaged_composition,
    constant_map,
    contraction_map,
    density_check,
    flip_compatibility,
    gap_series,
    identity_map,
    induced_gap,
    round_convex_weights,
    simulate_intertwining,
    synthetic_system_pair,
    van_der_corput,
)

__version__ = "0.1.0"

__all__ = [
    "BottShape",
    "ConsistencyError",
    "ConstraintReport",
    "EmbeddingRankBound",
    "FlipReport",
    "GapSeries",
    "GridFunction",
    "InconclusiveAtHorizon",
    "InputError",
    "IntertwiningResult",
    "K0Class",
    "MultilinearClass",
    "ParamFamily",
    "PiecewiseLinearMap",
    "RankState",
    "RcLowerCertificate",
    "RcUpperResult",
    "RoundingPlan",
    "SeparationReport",
    "SequenceTable",
    "StageEntries",
    "StageMapLayout",
    "TelescopeResult",
    "TheoremReport",
    "WeierstrassResult",
    "averaged_composition",
    "certify_rc_lower",
    "certify_theorem",
    "check_constraints",
    "constant_map",
    "contraction_map",
    "cuntz_threshold",
    "density_check",
    "flip_compatibility",
    "gap_series",
    "identity_map",
    "induced_gap",
    "initial_bott_shape",
    "invert_unit",
    "make_explicit_family",
    "make_geometric_family",
    "min_trivial_embedding_rank",
    "multiply",
    "push_bott",
    "push_k0",
    "q_class",
    "q_perp_ranks",
    "q_ranks",
    "rc_upper",
    "round_convex_weights",
    "separation",
    "sequences",
    "simulate_intertwining",
    "stage_layout",
    "synthetic_system_pair",
    "telescope",
    "total_chern_product_bundle",
    "van_der_corput",
    "weierstrass_check",
]
