"""quivertilt: exact-arithmetic workbench for finite-dimensional path
algebras — Ext/Tor, tilting modules and their certificates, perpendicular
categories, reflections, universal localization and recollement reports.
"""

from .algebra import (Algebra, Quiver, RelationPoly, build_algebra, injective,
                      opposite_algebra, projective, regular_module, simple,
                      zero_module)
from .complexes import (ChainMap, PerfectComplex, cohomology, derived_hom,
                        direct_sum_complexes, hom_window, is_exceptional,
                        mapping_cone, resolve_to_complex, shift,
                        triangle_from_map, universal_triangle, zero_complex)
from .errors import (BoundExceeded, ConsistencyError, DimensionMismatch,
                     InputError, QuivertiltError)
from .homology import (ExtClass, ExtSpace, LeftModule, Resolution, ShortExact,
                       connecting_class, ext, ext_dim, global_dimension,
                       left_add_approximation, left_module_from_op_rep,
                       left_regular_module, min_resolution, proj_dim,
                       projective_cover, realize_extension, tor_dim,
                       universal_extension)
from .linalg import (GF, QQ, FieldSpec, Matrix, intersect_subspaces,
                     quotient_basis, rank, solve_linear_system,
                     solve_right_kernel, sum_subspaces)
from .modules import (HomSpace, ModuleMap, Representation, cokernel,
                      decompose, direct_sum, hom_space, image, in_add_of,
                      is_isomorphic, kernel, quotient, radical,
                      right_add_approximation, socle, top, trace_submodule)
from .recollement import (HomEpiReport, LocalizationReport, RecollementReport,
                          StratifyingReport, homological_epi_check,
                          perp_complex_membership, perp_membership,
                          recollement_report, reflection_brick,
                          reflection_iterative, stratifying_ideal_check,
                          universal_localization)
from .tilting import (ExceptionalPair, TiltingCertificate, TiltingFailure,
                      bongartz_complement, check_A1_A2, cone_exceptionality,
                      construct_tilting, tilting_module_check)
from .verify import run_example

__version__ = "0.1.0"
