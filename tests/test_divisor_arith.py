from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tauwaring.divisor_arith import (
    FLOAT_MAX_BITS,
    FLOAT_ROOT_BITS,
    build_sigma_table,
    integer_nth_root,
    iter_factor_pairs,
    sieve_spf,
)
from tauwaring.verify import coprime_to_23_factorial, factor_within, primes_in


def brute_sigma(s, n):
    return sum(d**s for d in range(1, n + 1) if n % d == 0)


def test_spf_examples():
    spf = sieve_spf(49)
    assert spf[9] == 3
    assert spf[10] == 2
    assert spf[2] == 2
    assert spf[49] == 7


def test_spf_rejects_tiny_limit():
    with pytest.raises(ValueError):
        sieve_spf(1)


def test_spf_matches_least_divisor_brute_force():
    spf = sieve_spf(1000)
    for n in range(2, 1001):
        least = next(d for d in range(2, n + 1) if n % d == 0)
        assert spf[n] == least


def test_iter_factor_pairs_out_of_range():
    spf = sieve_spf(10)
    with pytest.raises(ValueError):
        list(iter_factor_pairs(11, spf))
    with pytest.raises(ValueError):
        list(iter_factor_pairs(0, spf))


@pytest.mark.parametrize("s", [0, 1, 5, 11])
def test_sigma_table_matches_divisor_enumeration(s):
    tab = build_sigma_table(s, 1000)
    for n in range(1, 1001):
        assert tab.values[n] == brute_sigma(s, n)


def test_primes_in_examples():
    assert primes_in(23, 31) == [29, 31]
    assert primes_in(1, 1) == []
    assert primes_in(29 // 2, 29) == [17, 19, 23, 29]


def test_primes_in_excludes_lower_endpoint():
    assert 23 not in primes_in(23, 100)
    assert primes_in(28, 29) == [29]


def sieve_primes_in(lo, hi):
    """Primes in (lo, hi] from a plain list sieve: the reference for primes_in."""
    if hi < 2:
        return []
    is_p = [False, False] + [True] * (hi - 1)
    for p in range(2, isqrt(hi) + 1):
        if is_p[p]:
            is_p[p * p :: p] = [False] * len(range(p * p, hi + 1, p))
    return [q for q in range(max(lo + 1, 2), hi + 1) if is_p[q]]


@pytest.mark.parametrize("lo, hi", [
    (-10, -3), (-5, 1), (-5, 2), (-100_000, 30), (-1, 100_000), (0, 0), (0, 1), (1, 2), (2, 2),
    (3, 3), (7, 7), (6, 7), (13, 20), (0, 1000), (997, 1000), (1000, 1009), (99_990, 100_000),
    (50_000, 100_000), (1, 100_000), (100_000, 100_000),
])
def test_primes_in_matches_list_sieve(lo, hi):
    got = primes_in(lo, hi)
    assert got == sieve_primes_in(lo, hi)
    assert all(type(q) is int for q in got)
    assert got == sorted(got)


def test_primes_in_refuses_an_empty_range():
    for lo, hi in [(5, 4), (2, 1), (0, -1), (100_000, 99_999)]:
        with pytest.raises(ValueError, match=f"need hi >= lo, got \\({lo}, {hi}\\)"):
            primes_in(lo, hi)


def test_coprime_to_23_factorial():
    assert coprime_to_23_factorial(29 * 31)
    assert not coprime_to_23_factorial(12)
    assert coprime_to_23_factorial(1)
    assert not coprime_to_23_factorial(23)
    assert coprime_to_23_factorial(29**3)
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23)
    for n in [*range(1, 5000), 2**64 + 1, 29**40, 23 * 10**30 + 23]:
        assert coprime_to_23_factorial(n) == all(n % q for q in small), n


@given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=1, max_value=11))
def test_integer_nth_root_brackets(x, k):
    r = integer_nth_root(x, k)
    assert r**k <= x < (r + 1) ** k


def newton_nth_root(x, k):
    """Floor of the k-th root by integer Newton iteration alone (reference for
    the float-seeded path of integer_nth_root)."""
    if x == 0:
        return 0
    r = 1 << ((x.bit_length() + k - 1) // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            return r
        r = nr


def nth_root_boundaries():
    """(x, k) where the floor root steps (x = s^k and its neighbours) or where
    integer_nth_root leaves its float seed (x near 2^(FLOAT_ROOT_BITS k) and
    2^FLOAT_MAX_BITS)."""
    ks = st.integers(min_value=1, max_value=40)
    step = st.integers(min_value=-1, max_value=1)
    powers = st.tuples(st.integers(min_value=1, max_value=2**60), ks, step).map(
        lambda t: (t[0] ** t[1] + t[2], t[1]))
    edges = st.tuples(ks, st.sampled_from((FLOAT_MAX_BITS, None)), step).map(
        lambda t: (2 ** (t[1] or FLOAT_ROOT_BITS * t[0]) + t[2], t[0]))
    return st.one_of(powers, edges)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.tuples(st.integers(min_value=0, max_value=10**800),
                           st.integers(min_value=1, max_value=40)),
                 nth_root_boundaries()))
@example((2**550 - 1, 11))
@example((2**550, 11))
@example((2**FLOAT_MAX_BITS - 1, 21))
@example((2**FLOAT_MAX_BITS, 21))
@example((2**50 - 1, 1))
def test_integer_nth_root_matches_newton(case):
    x, k = case
    r = integer_nth_root(x, k)
    assert r == newton_nth_root(x, k)
    assert r**k <= x < (r + 1) ** k


FACTOR_MAX = 10**7


@pytest.fixture(scope="module")
def spf_1e7():
    # Kept as an int32 array: the list sieve_spf returns would take ~400 MB here.
    spf = np.arange(FACTOR_MAX + 1, dtype=np.int32)
    for p in range(2, isqrt(FACTOR_MAX) + 1):
        if spf[p] == p:
            block = spf[p * p :: p]
            np.minimum(block, p, out=block)
    return spf


@settings(max_examples=400, deadline=None)
@given(
    st.integers(min_value=-3, max_value=FACTOR_MAX),
    st.sampled_from([1, 2, 3, 10, 97, 2000, 10**4, FACTOR_MAX]),
)
def test_factor_within_matches_spf(spf_1e7, n, limit):
    got = factor_within(n, limit)
    if n < 1:
        assert got is None
        return
    want = [(int(q), e) for q, e in iter_factor_pairs(n, spf_1e7)]
    if any(q > limit for q, _ in want):
        assert got is None
        return
    assert got == want
    primes = [q for q, _ in got]
    assert primes == sorted(set(primes))
    assert prod(q**e for q, e in got) == n


def test_factor_within_bounded_on_huge_input():
    # a prime near 1e20 costs at most pi(2000) = 303 divisions
    assert factor_within(10**20 + 39, 2000) is None
    assert factor_within(2**64 * 3**40, 3) == [(2, 64), (3, 40)]
    assert factor_within(1, 1) == []
    assert factor_within(2, 1) is None
    # exponents come out by q, q^2, q^4, ...: O(log^2 e) divisions, not e
    assert factor_within(2**14000 * 3**5, 2000) == [(2, 14000), (3, 5)]
    assert factor_within(3**8800 * 7, 2000) == [(3, 8800), (7, 1)]


def factor_one_unit_at_a_time(n, limit):
    """factor_within with one division per unit of each exponent."""
    pairs = []
    for q in primes_in(1, min(limit, isqrt(n))):
        if q * q > n:
            break
        e = 0
        while n % q == 0:
            n //= q
            e += 1
        if e:
            pairs.append((q, e))
    if n > 1:
        if n > limit:
            return None
        pairs.append((n, 1))
    return pairs


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 97, 1999]),
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=1, max_value=10**6),
    st.sampled_from([3, 97, 2000]),
)
def test_factor_within_huge_exponents_match_unit_steps(q, e, m, limit):
    n = q**e * m
    assert factor_within(n, limit) == factor_one_unit_at_a_time(n, limit)
