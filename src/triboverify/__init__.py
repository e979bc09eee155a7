"""Desk-scale verification of the finiteness argument for Tribonacci
Diophantine triples: certified interval arithmetic, exact splitting-field
computations, gcd and norm certificates, two independent triple searches,
and a truncation-error decay check, with machine-readable records.
"""

from .constants import (Cmp, DEFAULT_PRECISION, MAX_PRECISION, alpha_power,
                        beta_power, cmp_alpha_power, constants, verify_growth,
                        verify_numeric_window)
from .enclosure import (ComplexEnclosure, Enclosure, PrecisionFailure,
                        round_down, round_up, sqrt_split)
from .expansion import (DecayReport, ExpansionParams, ExpansionTerm,
                        decay_report, expansion_error, expansion_terms)
from .gcdbound import (FactorBoundsReport, GcdWitness, IntegrityError,
                       factor_bounds, factor_sweep, gcd_shifted, in_regime,
                       index_pairs, norm_witness, norm_witnesses,
                       prop1_holds, prop1_results, regime_pairs,
                       regime_sample)
from .records import (RecordFormatError, VerificationRecord, check_record,
                      emit_records, read_records)
from .splitfield import (ALPHA_C, ALPHA_K, EPS, CubicElement, FieldElement,
                         InconclusiveSquareTest, SquareCertificate,
                         binet_constants, embed_field, field_identity_report,
                         is_root_of_unity, is_square_in_K, monomial, norm3,
                         norm6, sqrt_minus_11)
from .tribonacci import (TribTable, alpha_power_trace, cmp_alpha_power_trace,
                         default_table, is_tribonacci, trib, trib_fast,
                         verify_growth_trace)
from .triples import (TripleCandidate, admissible, brute_force, search,
                      uvw_from_xyz, verify_triple)

__version__ = "0.1.0"

__all__ = [
    "ALPHA_C", "ALPHA_K", "Cmp", "ComplexEnclosure", "CubicElement",
    "DEFAULT_PRECISION", "DecayReport", "EPS", "Enclosure",
    "ExpansionParams", "ExpansionTerm", "FactorBoundsReport", "FieldElement",
    "GcdWitness", "InconclusiveSquareTest", "IntegrityError",
    "MAX_PRECISION", "PrecisionFailure", "RecordFormatError",
    "SquareCertificate", "TribTable", "TripleCandidate",
    "VerificationRecord", "admissible", "alpha_power", "alpha_power_trace",
    "beta_power", "binet_constants", "brute_force", "check_record",
    "cmp_alpha_power", "cmp_alpha_power_trace", "constants", "decay_report",
    "default_table", "embed_field", "emit_records", "expansion_error",
    "expansion_terms", "factor_bounds", "factor_sweep",
    "field_identity_report", "gcd_shifted", "in_regime", "index_pairs",
    "is_root_of_unity", "is_square_in_K", "is_tribonacci", "monomial",
    "norm3", "norm6", "norm_witness", "norm_witnesses", "prop1_holds",
    "prop1_results", "read_records", "regime_pairs", "regime_sample",
    "round_down", "round_up", "search", "sqrt_minus_11", "sqrt_split",
    "trib", "trib_fast", "uvw_from_xyz", "verify_growth",
    "verify_growth_trace", "verify_numeric_window", "verify_triple",
]
