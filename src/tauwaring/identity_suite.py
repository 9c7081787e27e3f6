"""Verification sweeps for the arithmetic identities the constructions rely on.

Checks collect violations into line-oriented reports instead of failing fast:
a systematic offset is much easier to diagnose from the full violation pattern
than from the first bad index. An empty report means success.
"""

from __future__ import annotations

from math import gcd, isqrt

from .divisor_arith import sieve_spf
from .errors import InternalCheckError
from .verify import TauTable, primes_in, primes_upto, tau_prime_power

# Index multisets whose tau values sum to exactly zero; used as padding blocks.
ZERO_SUM_SIX = (12, 27, 55, 69, 90, 105)
ZERO_SUM_SEVEN = (6, 14, 29, 41, 42, 44, 48)


def _violation(name: str, n: int, expected, got) -> str:
    return f"CHECK {name} n={n} expected={expected} got={got}"


def _sigma11_sweep(name: str, mod: int, stride: int, table: TauTable, lo: int,
                   hi: int | None, spf: list[int] | None) -> list[str]:
    """tau(n) = sigma_11(n) (mod `mod`) for n = 1 (mod stride) in [lo, hi].

    sigma_11 mod `mod` comes from one pass over every n = 1 (mod stride) up to
    hi, whatever lo is. With q = spf[n] and m = n / q: sigma(n) =
    sigma(q) sigma(m) when q does not divide m; otherwise sigma(q^e) =
    1 + q^11 sigma(q^(e-1)) gives sigma(n) = sigma(q) sigma(m) -
    q^11 sigma(m / q), with q^11 = sigma(q) - 1. Every factor is a smaller n
    of the same residue (stride 2 sweeps odd n, whose divisors are odd).
    """
    hi = hi if hi is not None else table.limit
    if hi > table.limit:
        raise ValueError(f"table covers {table.limit}, sweep asks for {hi}")
    spf = spf if spf is not None else sieve_spf(max(hi, 2))
    if len(spf) <= hi:
        raise ValueError(f"sieve covers {len(spf) - 1}, sweep asks for {hi}")
    values = table.values
    sigma = [1] * (hi + 1)
    out = []
    for n in range(1, hi + 1, stride):
        q = spf[n]
        m = n // q
        if m == 1:  # n = 1 or n prime
            s = (1 + pow(n, 11, mod)) % mod if n > 1 else 1
        elif spf[m] != q:
            s = sigma[q] * sigma[m] % mod
        else:
            s = (sigma[q] * sigma[m] - (sigma[q] - 1) * sigma[m // q]) % mod
        sigma[n] = s
        if n >= lo and values[n] % mod != s:
            out.append(_violation(name, n, s, values[n] % mod))
    return out


def check_mod691(table: TauTable, lo: int = 1, hi: int | None = None,
                 spf: list[int] | None = None) -> list[str]:
    """tau(n) = sigma_11(n) (mod 691) for every n in (lo-1, hi].

    sigma_11 is sieved over all of 1..hi, also when lo > 1.
    """
    return _sigma11_sweep("mod691", 691, 1, table, lo, hi, spf)


def check_mod256_odd(table: TauTable, lo: int = 1, hi: int | None = None,
                     spf: list[int] | None = None) -> list[str]:
    """tau(n) = sigma_11(n) (mod 2^8) for every odd n in the range.

    sigma_11 is sieved over every odd n in 1..hi, also when lo > 1.
    """
    return _sigma11_sweep("mod256", 256, 2, table, lo, hi, spf)


def check_deligne_all(table: TauTable, hi: int | None = None) -> list[str]:
    hi = hi if hi is not None else table.limit
    out = []
    for q in primes_in(1, min(hi, table.limit)):
        t2 = table.values[q] ** 2
        bound = 4 * q**11
        if t2 > bound:
            out.append(_violation("deligne", q, f"<= {bound}", t2))
    return out


def check_hecke_all(table: TauTable, hi: int | None = None) -> list[str]:
    """Hecke recurrence at every prime power q^a <= hi with a >= 2."""
    hi = hi if hi is not None else table.limit
    hi = min(hi, table.limit)
    out = []
    for q in primes_upto(isqrt(hi)):
        tq = table.values[q]
        power, alpha = q * q, 2
        while power <= hi:
            want = tau_prime_power(tq, q, alpha)
            if table.values[power] != want:
                out.append(_violation("hecke", power, want, table.values[power]))
            power, alpha = power * q, alpha + 1
    return out


def check_multiplicativity(table: TauTable, hi: int | None = None) -> list[str]:
    """tau(mn) = tau(m) tau(n) over all coprime pairs with mn <= hi."""
    hi = hi if hi is not None else table.limit
    hi = min(hi, table.limit)
    vals = table.values
    out = []
    m = 2
    while m * (m + 1) <= hi:
        tm = vals[m]
        for n in range(m + 1, hi // m + 1):
            if gcd(m, n) == 1 and vals[m * n] != tm * vals[n]:
                out.append(_violation("multiplicativity", m * n, tm * vals[n], vals[m * n]))
        m += 1
    return out


def verify_zero_sums(table: TauTable) -> None:
    """Check the six-term and seven-term zero sums against the table; raises
    InternalCheckError naming the first block whose tau values do not sum to 0."""
    if table.limit < 105:
        raise ValueError(f"table covers {table.limit}, zero sums need 105")
    for indices in (ZERO_SUM_SIX, ZERO_SUM_SEVEN):
        total = sum(table.tau(n) for n in indices)
        if total != 0:
            raise InternalCheckError(
                f"indices {indices} sum to {total}, not zero; table is wrong or claim false"
            )
