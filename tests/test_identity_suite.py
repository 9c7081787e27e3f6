import re

import pytest
from hypothesis import given, settings, strategies as st

from tauwaring.divisor_arith import iter_factor_pairs, sieve_spf
from tauwaring.errors import InternalCheckError
from tauwaring.identity_suite import (
    ZERO_SUM_SEVEN,
    ZERO_SUM_SIX,
    _violation,
    check_deligne_all,
    check_hecke_all,
    check_mod256_odd,
    check_mod691,
    check_multiplicativity,
    verify_zero_sums,
)
from tauwaring.verify import TauTable


def brute_sigma11(n):
    return sum(d**11 for d in range(1, n + 1) if n % d == 0)


def test_mod691_single_values(table_2k):
    assert (table_2k.tau(1) - 1) % 691 == 0
    # 2049 - 691*3 = -24
    assert (2049 - (-24)) % 691 == 0
    assert (table_2k.tau(2) - brute_sigma11(2)) % 691 == 0


def test_mod691_sweep_clean(table_2k):
    assert check_mod691(table_2k) == []


def test_mod691_matches_brute_force(table_2k):
    for n in range(1, 200):
        assert (table_2k.tau(n) - brute_sigma11(n)) % 691 == 0


def test_mod256_odd_values(table_2k):
    assert (table_2k.tau(3) - (1 + 3**11)) % 256 == 0
    for n in range(1, 200, 2):
        assert (table_2k.tau(n) - brute_sigma11(n)) % 256 == 0


def test_mod256_sweep_clean(table_2k):
    assert check_mod256_odd(table_2k) == []


def test_violation_report_format(table_2k):
    broken = TauTable(table_2k.limit, list(table_2k.values))
    broken.values[10] += 1
    lines = check_mod691(broken, 1, 50)
    assert len(lines) == 1
    assert re.fullmatch(r"CHECK mod691 n=10 expected=\d+ got=\d+", lines[0])
    odd_broken = TauTable(table_2k.limit, list(table_2k.values))
    odd_broken.values[9] += 1
    lines = check_mod256_odd(odd_broken, 1, 50)
    assert len(lines) == 1 and lines[0].startswith("CHECK mod256 n=9 ")


def sigma_pow_mod(n, s, mod, spf):
    """sigma_s(n) mod `mod` from the factor pairs of n alone: the per-n loop
    that the one-pass sieve of identity_suite._sigma11_sweep replaced."""
    total = 1
    for q, e in iter_factor_pairs(n, spf):
        qs = pow(q, s, mod)
        power = 1
        term = 1
        for _ in range(e):
            power = power * qs % mod
            term = (term + power) % mod
        total = total * term % mod
    return total


def loop_sigma11_sweep(name, mod, stride, table, lo, hi, spf):
    hi = hi if hi is not None else table.limit
    spf = spf if spf is not None else sieve_spf(max(hi, 2))
    out = []
    for n in range(lo + (1 - lo) % stride, hi + 1, stride):
        want = sigma_pow_mod(n, 11, mod, spf)
        got = table.values[n] % mod
        if want != got:
            out.append(_violation(name, n, want, got))
    return out


# 1, primes, prime powers and composites, each of which the sieve reaches by a
# different branch.
CORRUPTIBLE = (1, 2, 3, 691, 1999, 4, 8, 9, 27, 243, 256, 1024, 1331, 1849,
               6, 12, 15, 100, 105, 210, 1000, 1998, 2000)


@settings(max_examples=80, deadline=None)
@given(
    edits=st.lists(st.tuples(st.one_of(st.sampled_from(CORRUPTIBLE), st.integers(1, 2000)),
                             st.sampled_from([1, -1, 5, 256, 691, 691 * 256, 10**30])),
                   max_size=12),
    lo_half=st.integers(0, 1000),
    lo_odd=st.booleans(),
    hi=st.one_of(st.none(), st.integers(0, 2000)),
    pass_spf=st.booleans(),
)
def test_sigma11_sweeps_match_the_per_n_loop(table_2k, spf_2k, edits, lo_half, lo_odd, hi,
                                             pass_spf):
    broken = TauTable(table_2k.limit, list(table_2k.values))
    for n, delta in edits:
        broken.values[n] += delta
    lo = max(1, 2 * lo_half + lo_odd)
    spf = spf_2k if pass_spf else None
    for check, name, mod, stride in ((check_mod691, "mod691", 691, 1),
                                     (check_mod256_odd, "mod256", 256, 2)):
        assert check(broken, lo, hi, spf) == loop_sigma11_sweep(name, mod, stride, broken,
                                                                lo, hi, spf)


def test_sigma11_sweeps_refuse_a_short_sieve(table_2k):
    for check in (check_mod691, check_mod256_odd):
        with pytest.raises(ValueError, match="sieve covers 100, sweep asks for 300"):
            check(table_2k, 1, 300, sieve_spf(100))


def test_deligne_examples(table_2k):
    assert table_2k.tau(2) ** 2 == 576 and 4 * 2**11 == 8192
    assert table_2k.tau(29) == 128406630


def test_deligne_sweep_clean(table_2k):
    assert check_deligne_all(table_2k) == []


def test_deligne_catches_violation(table_2k):
    broken = TauTable(table_2k.limit, list(table_2k.values))
    broken.values[2] = 10**9
    assert any("n=2" in line for line in check_deligne_all(broken, 10))


def test_hecke_q11_examples(table_2k):
    assert table_2k.tau(2) ** 2 - table_2k.tau(4) == 2**11
    assert table_2k.tau(3) ** 2 - table_2k.tau(9) == 3**11


def test_hecke_sweep_clean(table_2k):
    assert check_hecke_all(table_2k) == []


def test_hecke_catches_violation(table_2k):
    broken = TauTable(table_2k.limit, list(table_2k.values))
    corrupted = (4, 8, 9, 27, 49, 343)  # q^2 and q^3 for q = 2, 3, 7
    for n in corrupted:
        broken.values[n] += 1
    assert check_hecke_all(broken) == [
        f"CHECK hecke n={n} expected={table_2k.values[n]} got={table_2k.values[n] + 1}"
        for n in corrupted
    ]
    assert check_hecke_all(broken, 26) == [
        f"CHECK hecke n={n} expected={table_2k.values[n]} got={table_2k.values[n] + 1}"
        for n in (4, 8, 9)
    ]


def test_multiplicativity_sweep_clean(table_2k):
    assert check_multiplicativity(table_2k) == []


def test_multiplicativity_catches_violation(table_2k):
    broken = TauTable(table_2k.limit, list(table_2k.values))
    broken.values[6] += 7
    assert any("n=6" in line for line in check_multiplicativity(broken, 50))


def test_zero_sums(table_2k):
    assert sum(table_2k.tau(n) for n in ZERO_SUM_SIX) == 0
    assert sum(table_2k.tau(n) for n in ZERO_SUM_SEVEN) == 0
    assert verify_zero_sums(table_2k) is None


def test_zero_sum_rejects_nonzero(table_2k):
    broken = TauTable(table_2k.limit, list(table_2k.values))
    broken.values[105] += 1
    with pytest.raises(InternalCheckError,
                       match=r"^indices \(12, 27, 55, 69, 90, 105\) sum to 1, not zero;"):
        verify_zero_sums(broken)


def test_zero_sums_need_coverage():
    tiny = TauTable(10, [0] + [1] * 10)
    with pytest.raises(ValueError):
        verify_zero_sums(tiny)
