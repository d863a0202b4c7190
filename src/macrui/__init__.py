"""Exact symbolic computation with Macdonald-type polynomials.

Everything is computed over the field of rational functions in the two
parameters q and t with integer coefficients; there is no floating point
anywhere.  The main objects:

* Macdonald polynomials constructed as triangular eigenfunctions of a
  q-difference operator, with branching coefficients and tableau formulas;
* their restrictions to a two-alphabet algebra (super polynomials), the
  deformed difference operator acting there, and the fat-hook kernel
  description;
* interpolation (shifted) polynomials defined by vanishing conditions,
  their branching and tableau formulas, evaluation duality, and shifted
  two-alphabet versions;
* Hecke operators and the commuting difference operators they generate.
"""

from .errors import (InvalidPartitionError, MacruiError, MalformedInputError,
                     NonDivisibleError, NotSymmetricError, ScalarDivisionError,
                     SingularSystemError, SpaceMismatchError,
                     SpecialParameterError)
from .scalar import (P_ONE, P_Q, P_T, P_ZERO, QTPolynomial, QTScalar, S_ONE,
                     S_Q, S_T, S_ZERO, one_minus_q, one_minus_t, q_pow,
                     qt_eval, qt_gcd, qt_monomial, qt_ratio, t_pow)
from .partitions import (arm_leg, as_partition, conjugate,
                         conjugation_sum_identity, contains, dominance_leq,
                         hook_product, in_fat_hook, n_stat,
                         normalization_alignment, partitions_of,
                         partitions_up_to, subpartitions, weight)
from .polyring import MultiPoly, VarSpace, linear_combination
from .symfun import (SymExpansion, deformed_newton_sum, expansion_value,
                     from_monomial_expansion, from_shifted_power_expansion,
                     in_deformed_algebra, is_shifted_symmetric,
                     monomial_symmetric, monomial_to_power_expansion,
                     power_sum, power_sum_product, qt_ratio_automorphism,
                     restrict_p_expansion, restrict_shifted_expansion,
                     shifted_power_sum,
                     to_monomial_expansion, to_shifted_power_expansion)
from .operators import (OperatorResult, apply_deformed_mr,
                        apply_deformed_mr_detailed, apply_mr,
                        apply_mr_detailed, cherednik_dunkl, cycle_shift,
                        coefficient_sum_identity, hecke_T, hecke_T_inv,
                        mr_eigenvalue, operator_from_shifted_symmetric)
from .macdonald import (branching_coefficients, macdonald_m_expansion,
                        macdonald_p_expansion, macdonald_polynomial,
                        macdonald_tableau_sum, parameter_duality_sign,
                        skew_tableau_sum, super_macdonald, super_tableau_sum)

# The interpolation layer and the verify suites construct nothing the other
# layers need, so ``import macrui`` leaves them out: each of these names loads
# its module on first access (PEP 562) and is then bound here like the rest;
# the two module names load their modules too.
_LAZY = {
    **dict.fromkeys(("duality_check", "evaluate_at_partition", "fat_hook_point",
                     "interpolation_by_branching", "interpolation_polynomial",
                     "interpolation_pstar_expansion", "interpolation_value",
                     "partition_point", "shifted_super_macdonald",
                     "shifted_super_tableau_sum", "shifted"), "shifted"),
    **dict.fromkeys(("SUITES", "run_suite", "verify"), "verify"),
}

__version__ = "0.1.0"


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
