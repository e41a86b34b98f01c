"""amlab: a computational laboratory for symmetric approximate diagonals.

Finite-dimensional weighted-l1 algebras are presented by structure
constants; the library builds the classical exact diagonals (matrix-unit
algebras, finite group algebras, l1 direct sums), measures how far any
two-leg tensor is from being a symmetric approximate diagonal, decides
trace-witness feasibility exactly, and runs the Jordan/Lie derivation
decompositions that such diagonals make possible.  Everything defaults to
exact rational arithmetic, so "defect zero" means literally zero.
"""

from .algebra import (AlgebraError, AlgebraPresentation, Element,
                      PresentationError, center, commutator,
                      commutator_subspace, multiply, norm, opposite, unitize)
from .catalog import (abelian_product_table, cyclic_group_table,
                      direct_sum_algebra, group_algebra, matrix_algebra,
                      matrix_unit_index, matrix_unit_label, block_embedding,
                      block_projection, symmetric_group_table,
                      upper_triangular_algebra)
from .derivations import (BimodulePresentation, CentralDerivationReport,
                          central_derivation_space, central_jordan_decompose,
                          centrality_defect, classify_maps, derivation_defect,
                          direct_sum_bimodule, image_action, inner_derivation,
                          jordan_decompose, jordan_defect, lie_decompose,
                          lie_defect, net_boundedness, quotient_bimodule,
                          regular_bimodule, sandwich_action, trace_defect)
from .diagonals import (DefectReport, DiagonalNet, basis_test_set, defect_report,
                        defects, direct_sum_diagonal, group_diagonal,
                        ideal_diagonal, matrix_diagonal, max_defect,
                        pushforward_diagonal, support_block, tail_mass,
                        trace_form_diagonal, truncated_matrix_diagonal,
                        unitized_diagonal)
from .maps import LinearMap, check_epimorphism, hom_defect, is_surjective
from .scalars import DEFAULT_FLOAT_TOL, FLOAT, RATIONAL, SchemaError
from .tensor import (Tensor2, contract, contract_swapped, elementary, flip,
                     left_action, opposite_left_action, opposite_right_action,
                     proj_norm, right_action, zero_tensor)
from .witness import (FeasibilityResult, Functional, trace_feasibility,
                      witness_from_diagonal)

__version__ = "0.1.0"
