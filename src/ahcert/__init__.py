"""Exact-arithmetic certification for a two-tower diagonal direct system.

The package tabulates the system's integer sequences, certifies the
inequalities its governing constants must satisfy, propagates ranks and
classes through the stages, reproduces the cohomological embedding
obstruction, and emits machine-checkable certificates separating the
radii of comparison of the two distinguished corners while the order-two
flip exchanges their classes.  All certified claims are exact rational
comparisons, and the trace-side affine simulations are exact as well: the
package uses no floating point and has no runtime dependency.
``from ahcert import X`` imports X's home module on first use (PEP 562).
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"
_EXPORTS = {  # home module -> the public names it defines
    "chern": "EmbeddingRankBound MultilinearClass invert_unit min_trivial_embedding_rank multiply"
    " total_chern_product_bundle",
    "errors": "ConsistencyError InconclusiveAtHorizon InputError",
    "params": "ConstraintReport ParamFamily SequenceTable check_constraints make_explicit_family"
    " make_geometric_family sequences",
    "pipeline": "TheoremReport certify_theorem",
    "ranks": "BottShape K0Class RankState StageMapLayout cuntz_threshold initial_bott_shape"
    " push_bott push_k0 q_class q_perp_ranks q_ranks stage_layout",
    "rcbounds": "RcLowerCertificate RcUpperResult SeparationReport certify_rc_lower rc_upper"
    " separation",
    "telescope": "TelescopeResult WeierstrassResult telescope weierstrass_check",
    "tracesim": "FlipReport GapSeries GridFunction IntertwiningResult PiecewiseLinearMap"
    " RoundingPlan StageEntries averaged_composition constant_map contraction_map density_check"
    " flip_compatibility gap_series identity_map induced_gap round_convex_weights"
    " simulate_intertwining synthetic_system_pair van_der_corput",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_MODULES = {*_EXPORTS, "rationals"}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        return globals().setdefault(name, getattr(import_module(f".{_HOME[name]}", __name__), name))
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(ModuleType):  # importing module ``telescope`` binds it here; keep the export
    def __setattr__(self, name, value):
        if isinstance(value, ModuleType) and name in _HOME:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
