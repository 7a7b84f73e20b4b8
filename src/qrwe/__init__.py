"""Exact quadratic-residue weight enumerators of Reed-Solomon codes.

The refined weight enumerator counts, per codeword, the coordinates that
are zero, nonzero squares, and non-squares.  For the 5-dimensional
projective Reed-Solomon code this distribution is governed by weighted
counts of elliptic curves over F_q bucketed by trace of Frobenius and
2-torsion structure; through the MacWilliams transform the dual code's
coefficients involve traces of Hecke operators on cusp forms for the
congruence groups of level 1, 2 and 4.  Every closed form in the package
is backed by an independent brute-force oracle and all arithmetic is
exact.
"""

from .curve_census import (Census, census_json, empirical_moment,
                           j_special_census, legendre_family_sum,
                           quartic_census, weierstrass_census)
from .enumerators import (QREnumerator, mds_weight_distribution,
                          qr_dual_coefficients, qr_macwilliams_dual)
from .errors import BudgetExceededError, ConsistencyError
from .eta_products import (QSeries, eta_product, hecke_eigenvalue_prime_power,
                           ramanujan_tau)
from .finite_field import FieldContext, field
from .hecke_traces import (TraceTable, min_power_sum, moment_formula, trace,
                           trace_level1, trace_level2, trace_level4)
from .isogeny_counts import (IsogenyProfile, isogeny_profile, weighted_count,
                             weighted_count_full_2tors)
from .qr_pipeline import (classical_dual_weight7_check,
                          classical_quartic_code_enumerator, dual_code_report,
                          quartic_code_enumerator, singular_quartic_part,
                          smooth_quartic_part)
from .quadratic_forms import (class_number, hurwitz_class_number, hurwitz_row,
                              kronecker, weighted_class_number)
from .rs_codes import (LinearCode, brute_force_enumerator,
                       puncture_enumerator, reed_solomon_code)

__version__ = "0.1.0"
