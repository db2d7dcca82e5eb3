"""Exact tools for surface monodromy, branched covers, square-tiled
surfaces, and the transverse dynamics of foliated torus bundles.

`import minfol` loads no submodule: each name below is imported from its
submodule on first use (PEP 562), so a process pays only for the layers
it touches.  `from minfol import X` and `from minfol import *` work as
with eager imports, and `minfol.X` is always the submodule's own `X`.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("DomainError", "InternalError"),
    "sl2z": ("IntMatrix2", "QuadraticIrrational", "Periodic", "Parabolic",
             "Anosov", "classify", "parabolic_normal_form",
             "periodic_points", "GenToken", "word_matrix", "decompose_st"),
    "cover": ("BranchPoint", "RamificationProfile", "riemann_hurwitz_chi",
              "CoverSpec", "build_double_cover", "pillowcase_genus",
              "pillowcase_sphere_profile", "leaf_genus_growth",
              "leaf_genus_growth_fibres", "GrowthCertificate"),
    "origami": ("Origami", "named_origami", "TORUS", "WOLLMILCHSAU",
                "sl2z_act", "act_word", "canonical_form", "LiftWitness",
                "lift_automorphism", "pillowcase_origami"),
    "homology": ("HomologyBasis", "homology_basis", "homology_rank",
                 "HomologyAction", "induced_action", "torelli_order"),
    "torus3": ("MonodromyClass", "MonodromySummary", "summary_from_matrix",
               "GeometryResult", "geometry_classify", "BundleData",
               "BundleSource", "EulerReport", "euler_report", "PeriodRank",
               "period_group_rank"),
    "holonomy": ("Rotation", "Doubling", "Mobius", "AffineLine",
                 "parse_generator", "OrbitStats", "orbit_density",
                 "PseudogroupWord", "StabilizerReport", "stabilizer_search",
                 "RotationNumberReport", "rotation_number",
                 "CommutatorCheck", "verify_commutator_product",
                 "circular_distance"),
}
_SUBMODULES = (*_EXPORTS, "intlinalg", "permutations")
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = sorted([*_HOME, *_SUBMODULES])


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module("." + name, __name__)
    if name in _HOME:
        return getattr(importlib.import_module("." + _HOME[name], __name__),
                       name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted({*globals(), *__all__})
