"""Exact symbolic tools for dynamical r-matrices, quantum dynamical twists,
star-products on SL(2) orbits and twist projection."""

from .scalars import Context, ContextMismatchError, FieldElement, PoleError
from .rootsystems import (RootSystem, RootSystemError, StructureTable,
                          build_root_system, check_parabolic,
                          check_reductive_subset, chevalley_constants,
                          positive_systems, simple_roots_of)
from .lie import (LieAlgebraData, LieAlgebraError, Tensor2, Tensor3, alt,
                  build_casimir_tensor, check_invariance, cyb,
                  realize_lie_algebra, sl2, tensor2_from_names, tensor_to_json)
from .classify import (CoefficientFamily, DynrSpec, LagrangianData,
                       QuasiUnitarityError, SpecError, build_coefficients,
                       build_lagrangian, check_coefficient_conditions,
                       check_in_M_Omega, check_shift_form,
                       coefficients_to_tensor, make_spec,
                       recover_classification)
from .enveloping import (EnvelopingError, PBWAlgebra, TensorUEA, UEAElement,
                         change_generators, project_drop_right)
from .twist import (TwistError, TwistSeries, abrr_twist, check_cdybe,
                    check_dynamical_twist, check_h_invariance,
                    classical_limit_r, shift_twist)
from .orbits import (OrbitError, OrbitFunction, generator_derivative,
                     group_action_derivative, invariant_derivative,
                     is_h_invariant, orbit_function, star_product,
                     verify_orbit_identities)
from .verma import (FiniteModule, Intertwiner, VermaData, VermaError,
                    build_verma, compose_and_extract, solve_intertwiner,
                    twist_action_on_pair)
from .projection import (ProjectedTwist, ProjectionError, SplittingData,
                         check_nondynamical_twist, closed_form_jv,
                         project_twist, rising_factorial, split_basis_sl2)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "1.0.0"
