"""Integer substrate: the smallest-factor sieve, divisor-power sums, roots.

Everything here is exact integer arithmetic; divisor-power sums grow like n^s
and are kept as Python big integers throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np


def sieve_spf(limit: int) -> list[int]:
    """Smallest-prime-factor table for 0..limit.

    spf[0] = 0 and spf[1] = 1 are sentinels; spf[n] for n >= 2 is the least
    prime dividing n (so spf[p] = p exactly when p is prime).
    """
    if limit < 2:
        raise ValueError(f"sieve limit must be >= 2, got {limit}")
    spf = np.arange(limit + 1, dtype=np.int64)
    spf[0] = 0
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:
            block = spf[p * p :: p]
            np.minimum(block, p, out=block)
    # Python ints on the way out: callers raise these to the 11th power.
    return spf.tolist()


def iter_factor_pairs(n: int, spf: list[int]):
    """Yield (prime, exponent) pairs of n using a precomputed spf table."""
    if n < 1 or n >= len(spf):
        raise ValueError(f"n={n} outside sieve range [1, {len(spf) - 1}]")
    while n > 1:
        q = spf[n]
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        yield q, e


@dataclass(frozen=True)
class SigmaTable:
    """Exact sigma_s values for 1..limit; values[0] is a zero sentinel."""

    s: int
    limit: int
    values: list[int]

    def __post_init__(self):
        if len(self.values) != self.limit + 1:
            raise ValueError(
                f"sigma table of limit {self.limit} needs {self.limit + 1} values,"
                f" got {len(self.values)}"
            )


def build_sigma_table(s: int, limit: int) -> SigmaTable:
    """Tabulate sigma_s(1..limit) by direct divisor accumulation."""
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    vals = [0] * (limit + 1)
    for d in range(1, limit + 1):
        ds = d**s
        for m in range(d, limit + 1, d):
            vals[m] += ds
    return SigmaTable(s, limit, vals)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def integer_nth_root(x: int, k: int) -> int:
    """Floor of the k-th root of x >= 0, exact Newton iteration on integers."""
    if x < 0 or k < 1:
        raise ValueError(f"need x >= 0 and k >= 1, got ({x}, {k})")
    if x == 0:
        return 0
    r = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            return r
        r = nr
