"""Verification kit for the correspondence between chain-level modules on
a simply connected group and representations satisfying the Cartan
relations: builds the structures from structure constants, integrates
representation forms over word simplices by series and quadrature, and
checks every lemma-level identity as an executable residual."""

from .graded import (CochainComplex, GradedOperator, GradedVectorSpace,
                     compose, graded_commutator, tensor_complex, tensor_operator)
from .lie import LieAlgebra, abelian, heisenberg3, sl2, su2
from .linalg import EXACT, FLOAT, ModeError
from .reps import (CartanRep, LieRep, adjoint_rep, adjunction_check,
                   cartan_dgla, cartan_residuals, chain_rep, cochain_rep, dual_rep,
                   hom_space, restrict, tensor_rep, trivial_cartan_rep,
                   trivial_lie_rep)
from .ce import ce_chain, ce_cochain, cohomology_dims
from .evaluators import (ChainCombination, FlatRep, PointEvaluator,
                         WordEvaluator, boundary, ez_product, thinness_check)
from .integrate import (ChainModule, differentiate_module, dg_module_exact,
                        dg_module_residual, integrate_quadrature, integrate_series,
                        mu_p_residual, point_value, roundtrip_errors)

__version__ = "0.1.0"
