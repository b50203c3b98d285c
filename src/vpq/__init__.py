"""Exact-arithmetic tools for a two-parameter deformed Witt/Virasoro algebra
and its intermediate-series weight modules.

Everything runs over exact scalars: Fractions at rational (p, q), or
multivariate rational functions when parameters stay formal.  Residuals of
every checked identity are exact; a check passes only at literal zero.
"""

from .algebra import (AlgebraElement, central_coefficient, eta,
                      generation_check, hom_jacobi_residual, skew_residual,
                      verify_algebra)
from .caseaudit import (CaseConstants, CaseTag, annihilator_spectrum,
                        case_constants_audit, case_tag, case1_constants,
                        case2_constants, case3_constants, case4_constants,
                        constraint_residuals, family_consistency,
                        find_j0_all, quadratic_in_x_check)
from .classify import (PAIR_ORDER, DegeneracyProfile, XPolynomial,
                       condition_scalar, degeneracy_profile,
                       degeneracy_table_audit,
                       fg_recurrence_audit, identity_audit,
                       l2_display_audit, quadratic_roots_audit,
                       second_solution, x_factors)
from .modules import (CoefficientRule, ExcAlpha, ExcAlphaPrime, ExcBeta,
                      ExcBetaPrime, Mab, MemoRule, find_intertwiner,
                      find_submodules, find_submodules_ex,
                      is_reducible_closed_form, parse_family,
                      relation_residual, shift_params, verify_module)
from .report import ResidualReport
from .scalar import (GuardError, Poly, RationalFunction, ScalarContext,
                     is_zero, parse_rational, pascal_residual,
                     reflection_residual, scalar_str)
from .suite import (JsonReport, SuiteConfig, SuiteConfigError, run_suite,
                    VERSION)
from .uqsl2 import (Uqsl2Rep, ef_coefficient, fe_coefficient, k_eigenvalue,
                    one_param_qint, quadratic_in_x_fit, rep_relation_audit)

__version__ = VERSION

__all__ = [
    "AlgebraElement", "CaseConstants", "CaseTag", "CoefficientRule",
    "DegeneracyProfile", "ExcAlpha", "ExcAlphaPrime", "ExcBeta",
    "ExcBetaPrime", "GuardError", "JsonReport", "Mab", "MemoRule",
    "PAIR_ORDER", "Poly", "RationalFunction", "ResidualReport",
    "ScalarContext", "SuiteConfig", "SuiteConfigError", "Uqsl2Rep",
    "VERSION", "XPolynomial", "annihilator_spectrum", "case1_constants",
    "case2_constants", "case3_constants", "case4_constants",
    "case_constants_audit", "case_tag", "central_coefficient",
    "condition_scalar", "constraint_residuals", "degeneracy_profile",
    "degeneracy_table_audit", "ef_coefficient", "eta",
    "family_consistency", "fe_coefficient", "fg_recurrence_audit",
    "find_intertwiner", "find_j0_all", "find_submodules",
    "find_submodules_ex", "generation_check", "hom_jacobi_residual",
    "identity_audit", "is_reducible_closed_form", "is_zero",
    "k_eigenvalue", "l2_display_audit", "one_param_qint", "parse_family",
    "parse_rational", "pascal_residual", "quadratic_in_x_check",
    "quadratic_in_x_fit", "quadratic_roots_audit", "reflection_residual",
    "relation_residual", "rep_relation_audit", "run_suite", "scalar_str",
    "second_solution", "shift_params", "skew_residual", "verify_algebra",
    "verify_module", "x_factors",
]
