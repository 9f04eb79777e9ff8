"""quivertilt: exact-arithmetic workbench for finite-dimensional path
algebras — Ext/Tor, tilting modules and their certificates, perpendicular
categories, reflections, universal localization and recollement reports.

The names imported below are the library surface: the constructors and the
calls behind the CLI verbs and reports.  ``tests/test_hygiene.py`` keeps it
so: every public function is called by another package module or named
there as an entry point, and every entry point is exported here.
"""

from .algebra import (Algebra, Quiver, RelationPoly, build_algebra, injective,
                      opposite_algebra, projective, regular_module, simple,
                      zero_module)
from .complexes import (ChainMap, PerfectComplex, cohomology, derived_hom,
                        direct_sum_complexes, hom_window, is_exceptional,
                        mapping_cone, resolve_to_complex, shift,
                        universal_triangle, zero_complex)
from .errors import (BoundExceeded, ConsistencyError, DimensionMismatch,
                     InputError, QuivertiltError)
from .homology import (ExtClass, ExtSpace, LeftModule, Resolution, ShortExact,
                       ext, ext_dim, global_dimension, left_add_approximation,
                       min_resolution, proj_dim, realize_extension,
                       tor_dims_range, universal_extension)
from .linalg import (GF, QQ, FieldSpec, Matrix, intersect_subspaces,
                     quotient_basis, rank, solve_linear_system,
                     solve_right_kernel, sum_subspaces)
from .modules import (HomSpace, ModuleMap, Representation, cokernel,
                      decompose, direct_sum, hom_space, image, is_isomorphic,
                      kernel, quotient, radical, right_add_approximation,
                      socle, top)
from .recollement import (HomEpiReport, LocalizationReport, RecollementReport,
                          StratifyingReport, homological_epi_check,
                          perp_membership, recollement_report,
                          reflection_brick, reflection_iterative,
                          stratifying_ideal_check, universal_localization)
from .tilting import (ExceptionalPair, TiltingCertificate, TiltingFailure,
                      bongartz_complement, check_A1_A2, construct_tilting,
                      tilting_module_check)
from .verify import run_example

__version__ = "0.1.0"
