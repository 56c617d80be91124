"""Exact and floating-point cross-checks for the tangent and cotangent sums
over quadratic residues, the class number h(-p), and the residue statistics
that tie them together.

For an odd prime p = 3 (mod 4):

    T(p) = sqrt(p) * sum_{n=1}^{(p-1)/2} tan(pi n^2 / p)
    C(p) = sqrt(p) * sum_{n=1}^{(p-1)/2} cot(pi n^2 / p)

are integers with exact closed forms in residue counts, and C(p) carries
the class number.  Every identity here is computed by at least two
independent routes (integer formulas, brute-force enumeration, correctly
rounded floating-point evaluation) and the routes are compared.
"""

from .arith import InvariantError, OddPrime, is_prime, legendre, primes_in_range
from .residues import ResidueProfile, residue_profile
from .sums import (
    ERRATA,
    Erratum,
    SumRecord,
    c_exact,
    published_t3,
    published_t5,
    published_t_from_m,
    sum_record,
    t_exact,
    t_expressions,
    t_from_m,
)
from .classnum import (
    ReducedForm,
    h_from_forms,
    h_from_residues,
    reduced_forms,
)
from .analytic import (
    FloatCheckResult,
    angle_tables,
    berndt_m_float,
    bound_harmonic,
    bound_pv,
    c_float,
    gauss_sum_checks,
    gauss_tolerance,
    lebesgue_float,
    t_float,
    whiteman_sum,
)
from .scan import CSV_HEADER, compute_row, row_as_dict, scan_rows
from .verify import ErratumConfirmation, Failure, VerifyReport, confirm_errata, run_verify

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER",
    "ERRATA",
    "Erratum",
    "ErratumConfirmation",
    "Failure",
    "FloatCheckResult",
    "InvariantError",
    "OddPrime",
    "ReducedForm",
    "ResidueProfile",
    "SumRecord",
    "VerifyReport",
    "angle_tables",
    "berndt_m_float",
    "bound_harmonic",
    "bound_pv",
    "c_exact",
    "c_float",
    "compute_row",
    "confirm_errata",
    "gauss_sum_checks",
    "gauss_tolerance",
    "h_from_forms",
    "h_from_residues",
    "is_prime",
    "legendre",
    "lebesgue_float",
    "primes_in_range",
    "published_t3",
    "published_t5",
    "published_t_from_m",
    "reduced_forms",
    "residue_profile",
    "row_as_dict",
    "run_verify",
    "scan_rows",
    "sum_record",
    "t_exact",
    "t_expressions",
    "t_float",
    "t_from_m",
    "whiteman_sum",
]
