"""Jacobi sums of odd prime order, their quadratic-form solution systems,
and the MDS error-correcting codes built from them.

The pipeline, end to end:

1. ``fields`` builds F_q = F_{p^alpha} with a canonical generator and a
   discrete-log table.
2. ``jacobi`` computes the Jacobi sum, a cyclotomic integer in Z[zeta_l],
   and checks the six arithmetic conditions that pin it down.  For l = 3
   and 5 it comes from the prime above p (Euclid in ``cyclotomic``,
   Stickelberger's theorem, the Hasse-Davenport lift) with no pass over
   F_q; otherwise the log table is histogrammed.
3. ``diophantine`` solves the quadratic-form systems (order 3 and 5) whose
   integer solutions are exactly the conjugates of the Jacobi sum, reading
   them off those conjugates, then selects the one belonging to the chosen
   generator.
4. ``codes`` turns the solution into a linear congruence system mod p and
   from it an MDS code with single-error correction for order 5.
5. ``scanner`` sweeps prime ranges looking for generator matrices whose
   row-subset independence fails.
"""

from .cyclotomic import (
    CycInt,
    abs_square,
    conjugate,
    divide_by_one_minus_zeta,
    divisible_by_int,
    divisible_by_lambda_power,
    residue_mod_lambda,
)
from .codes import (
    CongruenceSystem,
    DeterminantSuite,
    LinearCode,
    MdsResult,
    build_code,
    build_congruence_system,
    build_generator_matrix,
    check_row_subsets,
    decode_single_error,
    determinant_suite,
    encode,
    is_mds,
    min_distance,
    syndrome,
    to_standard_form,
)
from .diophantine import (
    DicksonSolution,
    GaussSolution,
    OrientationReport,
    SelectionResult,
    a_to_dickson,
    a_to_gauss,
    dickson_to_a,
    gauss_to_a,
    select_solution,
    solve_dickson,
    solve_gauss,
)
from .errors import BudgetError, InputError, IntegrityError, JacobiCodesError
from .fields import (
    DEFAULT_TABLE_BUDGET,
    FieldElement,
    FieldSpec,
    LogTable,
    build_log_table,
    character_exponent,
    find_irreducible_poly,
    find_primitive_element,
    is_prime,
    poly_is_irreducible,
    subfield_residue,
)
from .jacobi import (
    ConditionReport,
    JacobiSum,
    condition_index_set,
    conjugate_solutions,
    jacobi_sum,
    verify_conditions,
)
from .scanner import ScanRecord, ScanSummary, report, scan, summarize, write_report

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CongruenceSystem",
    "ConditionReport",
    "CycInt",
    "DEFAULT_TABLE_BUDGET",
    "DeterminantSuite",
    "DicksonSolution",
    "FieldElement",
    "FieldSpec",
    "GaussSolution",
    "InputError",
    "IntegrityError",
    "JacobiCodesError",
    "JacobiSum",
    "LinearCode",
    "LogTable",
    "MdsResult",
    "OrientationReport",
    "ScanRecord",
    "ScanSummary",
    "SelectionResult",
    "a_to_dickson",
    "a_to_gauss",
    "abs_square",
    "build_code",
    "build_congruence_system",
    "build_generator_matrix",
    "build_log_table",
    "character_exponent",
    "check_row_subsets",
    "condition_index_set",
    "conjugate",
    "conjugate_solutions",
    "decode_single_error",
    "determinant_suite",
    "dickson_to_a",
    "divide_by_one_minus_zeta",
    "divisible_by_int",
    "divisible_by_lambda_power",
    "encode",
    "find_irreducible_poly",
    "find_primitive_element",
    "gauss_to_a",
    "is_mds",
    "is_prime",
    "jacobi_sum",
    "min_distance",
    "poly_is_irreducible",
    "report",
    "residue_mod_lambda",
    "scan",
    "select_solution",
    "solve_dickson",
    "solve_gauss",
    "subfield_residue",
    "summarize",
    "syndrome",
    "to_standard_form",
    "verify_conditions",
    "write_report",
]
