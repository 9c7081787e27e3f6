"""Exact Ramanujan tau computation with verifiable additive-representation
certificates over the integers and over Z/p."""

from .divisor_arith import (
    SigmaTable,
    build_sigma_table,
    coprime_to_23_factorial,
    primes_in,
    sieve_spf,
)
from .identity_suite import (
    ZERO_SUM_SEVEN,
    ZERO_SUM_SIX,
    check_mod256_odd,
    check_mod691,
    verify_zero_sums,
)
from .modp_basis import (
    AbcContext,
    ModpCertificate,
    ModpContext,
    WindowPolicy,
    WitnessedResidue,
    basis_order_scan,
    build_abc_context,
    build_context,
    product_set_cover,
    represent_pm32,
    represent_sum16,
    represent_sum96,
    verify_modp_certificate,
)
from .tau_core import (
    TauTable,
    build_prime_tau_map,
    build_tau_table_series,
    load_table,
    save_table,
    tau_multiplicative,
    tau_niebur,
    tau_prime_power,
    tau_sigma_formula,
)
from .waring_int import (
    AdmissibleSet,
    DigitVector,
    RepresentationParams,
    SumCertificate,
    digits_mod_370944,
    find_dyadic_tau_primes,
    grow_admissible,
    is_admissible,
    pad_count_6x7y,
    represent_integer,
    represent_residue_198,
    solve_prime_power_sum,
    verify_integer_certificate,
)

__version__ = "0.1.0"
