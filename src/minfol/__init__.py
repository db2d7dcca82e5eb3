"""Exact tools for surface monodromy, branched covers, square-tiled
surfaces, and the transverse dynamics of foliated torus bundles."""

__version__ = "0.1.0"

from .errors import DomainError, InternalError
from .sl2z import (IntMatrix2, QuadraticIrrational, Periodic, Parabolic,
                   Anosov, classify, parabolic_normal_form, periodic_points,
                   GenToken, word_matrix, decompose_st)
from .cover import (BranchPoint, RamificationProfile, riemann_hurwitz_chi,
                    CoverSpec, build_double_cover, pillowcase_genus,
                    pillowcase_sphere_profile, leaf_genus_growth,
                    leaf_genus_growth_fibres, GrowthCertificate)
from .origami import (Origami, named_origami, TORUS, WOLLMILCHSAU,
                      sl2z_act, act_word, canonical_form, LiftWitness,
                      lift_automorphism, pillowcase_origami)
from .homology import (HomologyBasis, homology_basis, homology_rank,
                       HomologyAction, induced_action, torelli_order)
from .torus3 import (MonodromyClass, MonodromySummary, summary_from_matrix,
                     GeometryResult, geometry_classify, BundleData,
                     BundleSource, EulerReport, euler_report, PeriodRank,
                     period_group_rank)
from .holonomy import (Rotation, Doubling, Mobius, AffineLine,
                       parse_generator, OrbitStats, orbit_density,
                       PseudogroupWord, StabilizerReport, stabilizer_search,
                       RotationNumberReport, rotation_number,
                       CommutatorCheck, verify_commutator_product,
                       circular_distance)

__all__ = [name for name in dir() if not name.startswith("_")]
