"""Exact Ramanujan tau values by four independent routes.

Routes:
  * series        -- truncated product expansion of X * prod(1 - X^n)^24: the
                     Jacobi cube squared as a sparse int64 convolution, then
                     two exact decimal squarings
  * niebur        -- sigma_1 convolution identity (quadratic; cross-check oracle)
  * sigma_formula -- scaled sigma_5 / sigma_11 identity (quadratic; oracle)
  * multiplicative -- Hecke recurrence at prime powers times multiplicativity

The series route is the production path; the two convolution identities are
O(n) per value and serve as independent oracles at small n. Their terms
t_k = s(k) s(n-k) satisfy t_k = t_(n-k), so both evaluate each sum over
k <= n/2 only, as a few C-level sum(map(mul, ...)) passes: a sum over
k = 1..n-1 is twice the sum over k = 1..n//2, less the k = n/2 term once
when n is even. Niebur's weight P(k) = 35k^4 - 52k^3 n + 18k^2 n^2 is not
symmetric, but P(k) + P(n-k) = n^4 - 20n^2 u + 70u^2 with u = k(n-k) is.
"""

from __future__ import annotations

import decimal
from operator import mul

import numpy as np

from .divisor_arith import SigmaTable, iter_factor_pairs
from .errors import CapacityError, InternalCheckError
from .verify import TauTable, primes_in, tau_from_factors

# The benchmark reads the table file format here; ROADMAP item 2b drops these.
from .verify import load_table, save_table  # noqa: F401

# Big-integer type of the library; the series build runs on decimal.Decimal.
# The benchmark's environment record reads this name.
mpz = int

# Exact integer arithmetic on Decimal: any rounding raises instead.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.InvalidOperation, decimal.Overflow],
)

# Largest series build accepted, read at each call. A 1e6 build takes about
# 5 s and peaks near 210 MB.
DEFAULT_SERIES_CAP = 2_000_000


def _cube_terms(n_coeffs: int) -> list[tuple[int, int]]:
    """Nonzero terms (position, coefficient) of prod(1 - X^m)^3 below n_coeffs.

    Jacobi: prod(1 - X^m)^3 = sum_{k>=0} (-1)^k (2k+1) X^{k(k+1)/2}, so the
    cube is sparse with O(sqrt(n)) terms.
    """
    terms = []
    k = 0
    while True:
        pos = k * (k + 1) // 2
        if pos >= n_coeffs:
            return terms
        c = 2 * k + 1
        terms.append((pos, -c if k & 1 else c))
        k += 1


def _eta6_coeffs(n_coeffs: int) -> np.ndarray:
    """Coefficients of prod(1 - X^m)^6 below n_coeffs, as an int64 array.

    The Jacobi cube squared as a sparse convolution of its T = O(sqrt(n))
    terms, one numpy pass per term. A coefficient sums at most T products of
    absolute value below (2T)^2, so int64 holds every sum exactly at any limit
    up to DEFAULT_SERIES_CAP.
    """
    terms = _cube_terms(n_coeffs)
    pos = np.array([p for p, _ in terms], dtype=np.int64)
    coef = np.array([c for _, c in terms], dtype=np.int64)
    out = np.zeros(n_coeffs, dtype=np.int64)
    for p, c in terms:
        m = np.searchsorted(pos, n_coeffs - p)  # the terms landing below n_coeffs
        out[p + pos[:m]] += c * coef[:m]
    return out


def _slot_width_digits(limit: int) -> int:
    # Balanced base-10^w slots hold [-10^w / 2, 10^w / 2), and 2 |tau(n)|
    # <= 4 n^6 < 10^w for every n <= limit.
    return len(str(4 * limit**6))


def _pack_balanced(coeffs: np.ndarray, width: int) -> decimal.Decimal:
    """A Decimal D >= 0 with D = sum_k coeffs[k] 10^(width k) modulo
    10^(width len(coeffs)), all that a product truncated to those slots reads.

    Slot k holds (coeffs[k] - b_k) mod 10^width, where the borrow b_k is 1
    when the nearest nonzero coefficient below k is negative, so one digit
    string, most significant slot first, carries the value. The digits of
    max |coeffs[k]| + 1 must fit the slot and int64.
    """
    top = int(np.abs(coeffs).max())
    digits = len(str(top + 1))
    if digits > min(width, 18):
        raise ValueError(f"coefficient {top} does not fit a {width}-digit slot")
    n = len(coeffs)
    last = np.where(coeffs != 0, np.arange(n), -1)
    np.maximum.accumulate(last, out=last)  # the nearest nonzero coefficient at or below k
    slot = coeffs.copy()
    slot[1:] -= (last[:-1] >= 0) & (coeffs[last[:-1]] < 0)
    del last
    slot = slot[::-1]  # most significant first, as the digit string reads
    neg = slot < 0
    slot[neg] += 10**digits  # then the slot reads 9...9 followed by these digits
    buf = np.full((n, width), ord("0"), dtype=np.uint8)
    buf[neg, : width - digits] = ord("9")
    for col in range(width - 1, width - 1 - digits, -1):
        buf[:, col] += (slot % 10).astype(np.uint8)
        slot //= 10
    text = str(buf, "ascii")
    del buf, slot, neg  # Decimal() copies the text once more while it parses
    return decimal.Decimal(text)


def _square_truncated(acc: decimal.Decimal, n_digits: int) -> decimal.Decimal:
    """acc^2 mod 10^n_digits, exactly; a square is >= 0, so this is the least residue."""
    with decimal.localcontext(_EXACT):
        acc = acc * acc
        return acc - acc.scaleb(-n_digits).to_integral_value(decimal.ROUND_DOWN).scaleb(n_digits)


# Slots that _unpack_balanced turns into Python ints at a time.
_UNPACK_CHUNK = 1 << 12


def _unpack_balanced(acc: decimal.Decimal, width: int, count: int) -> list[int]:
    """The signed coefficients in the `count` lowest base-10^width slots of
    acc >= 0, least significant first; see _decode_balanced.

    The digit text is cut into chunks of _UNPACK_CHUNK slots, each viewed as a
    fixed-width S{width} numpy array and parsed by map(int, ...), so only one
    chunk's bytes objects are alive at a time.
    """
    size = count * width
    text = str(acc).rjust(size, "0")
    end = len(text)

    def slots():
        for hi in range(end, end - size, -_UNPACK_CHUNK * width):
            chunk = text[max(hi - _UNPACK_CHUNK * width, end - size) : hi].encode("ascii")
            yield from map(int, np.frombuffer(chunk, dtype=f"S{width}")[::-1].tolist())

    return _decode_balanced(slots(), 10**width)


def _decode_balanced(slot_values, base: int) -> list[int]:
    """Recover signed coefficients from the base-`base` digits of a packed value.

    `slot_values` yields the digits, least significant first. Slots hold
    balanced residues: a digit v >= base/2 encodes v - base with a carry into
    the next slot. The caller stops before the top (guard) slot.
    """
    half = base >> 1
    out = []
    carry = 0
    for v in slot_values:
        v += carry
        carry = v >= half
        out.append(v - base if carry else v)
    return out


def build_tau_table_series(limit: int) -> TauTable:
    """Compute tau(1..limit) from the truncated 24th-power Euler product.

    The Jacobi cube is squared once as a sparse int64 convolution into eta^6
    = prod(1 - X^m)^6. That is packed into one big number (Kronecker
    substitution, one balanced base-10^w slot per coefficient) and squared
    twice, eta^6 -> eta^12 -> eta^24, truncating mod 10^(w*slots) after each
    squaring. Substitution is a ring map from Z[X]/(X^slots) onto
    Z/10^(w*slots), so only the final coefficients need to fit a slot. The
    packed values are decimal.Decimal integers: libmpdec multiplies large
    operands with a number-theoretic transform, far faster than CPython's
    Karatsuba at these sizes. numpy digit arrays do the packing and decoding.
    """
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if limit > DEFAULT_SERIES_CAP:
        raise CapacityError(
            f"series build for limit={limit} refused;"
            f" largest feasible limit is {DEFAULT_SERIES_CAP}"
        )
    width = _slot_width_digits(limit)
    slots = limit + 1  # one guard slot on top; it absorbs wraparound
    acc = _pack_balanced(_eta6_coeffs(slots), width)
    for _ in range(2):
        acc = _square_truncated(acc, width * slots)
    # tau(n) is the coefficient of X^(n-1) in the 24th power.
    values = [0]
    values.extend(_unpack_balanced(acc, width, limit))
    return TauTable(limit=limit, values=values)


def _require_order(sigma: SigmaTable, s: int) -> None:
    if sigma.s != s:
        raise ValueError(f"need a sigma_{s} table, got sigma_{sigma.s}")


def _half_products(s: list[int], n: int) -> list[int]:
    """s[k] * s[n - k] for k = 1..n//2, the distinct terms of the convolution."""
    h = n // 2
    return list(map(mul, s[1 : h + 1], reversed(s[n - h : n])))


def tau_niebur(n: int, sigma1: SigmaTable) -> int:
    """Niebur's convolution identity for tau(n), using sigma_1 throughout.

    tau(n) = n^4 sigma(n) - 24 sum_{k=1}^{n-1} P(k) t_k with
    P(k) = 35k^4 - 52k^3 n + 18k^2 n^2 and t_k = sigma(k) sigma(n-k). Since
    t_k = t_(n-k) and P(k) + P(n-k) = n^4 - 20n^2 u_k + 70u_k^2 with
    u_k = k(n-k), 24 sum P(k) t_k = 12 sum (n^4 - 20n^2 u_k + 70u_k^2) t_k,
    whose terms are symmetric in k and n-k and are summed over k <= n/2 only
    (see the module docstring).

    Some printed statements of this identity carry sigma_0 in the convolution;
    that reading fails already at n = 2 (giving -40, not -24), so sigma_1 is
    used for both the leading term and the convolution.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    _require_order(sigma1, 1)
    if sigma1.limit < n:
        raise ValueError(f"sigma table covers {sigma1.limit}, need {n}")
    s = sigma1.values
    h = n // 2
    t = _half_products(s, n)
    u = list(map(mul, range(1, h + 1), range(n - 1, n - h - 1, -1)))  # k (n - k)
    ut = list(map(mul, u, t))
    n2 = n * n
    n4 = n2 * n2
    acc = 2 * (n4 * sum(t) - 20 * n2 * sum(ut) + 70 * sum(map(mul, u, ut)))
    if n % 2 == 0:  # the k = n/2 term is its own mirror: count it once
        acc -= (n4 - 20 * n2 * u[-1] + 70 * u[-1] * u[-1]) * t[-1]
    return n4 * s[n] - 12 * acc


def tau_sigma_formula(n: int, sigma5: SigmaTable, sigma11: SigmaTable) -> int:
    """tau(n) from the scaled sigma_5 / sigma_11 identity.

    Evaluates T = 65*sigma_11(n) + 691*sigma_5(n) - 691*252 * conv(sigma_5)
    and returns T / 756; divisibility by 756 is asserted, a failure means the
    identity was transcribed wrong or the sigma tables are corrupt. The
    convolution sum_{k=1}^{n-1} sigma_5(k) sigma_5(n-k) is summed over
    k <= n/2 only (see the module docstring).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    _require_order(sigma5, 5)
    _require_order(sigma11, 11)
    if sigma5.limit < n or sigma11.limit < n:
        raise ValueError("sigma tables do not cover n")
    s5 = sigma5.values
    prods = _half_products(s5, n)
    conv = 2 * sum(prods)
    if n % 2 == 0:  # the k = n/2 term is its own mirror: count it once
        conv -= prods[-1]
    t = 65 * sigma11.values[n] + 691 * s5[n] - 174132 * conv
    if t % 756:
        raise InternalCheckError(f"756 does not divide scaled identity at n={n}: {t}")
    return t // 756


def tau_multiplicative(n: int, prime_tau: dict[int, int], spf: list[int]) -> int:
    """tau(n) assembled from prime values by multiplicativity plus the Hecke rule."""
    try:
        return tau_from_factors(iter_factor_pairs(n, spf), prime_tau)
    except KeyError as exc:
        raise ValueError(f"tau map has no entry for prime {exc.args[0]}") from None


def build_prime_tau_map(table: TauTable) -> dict[int, int]:
    """Map prime q -> tau(q) for every prime within the table."""
    return {q: table.values[q] for q in primes_in(1, table.limit)}
