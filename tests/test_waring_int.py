import bisect
import hashlib
import json
import math
import pickle
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tauwaring import waring_int
from tauwaring.divisor_arith import integer_nth_root, is_prime
from tauwaring.errors import CapacityError, InfeasibleError, InternalCheckError
from tauwaring.identity_suite import ZERO_SUM_SEVEN, ZERO_SUM_SIX
from tauwaring.tau_core import build_tau_table_series
from tauwaring.verify import (
    Certificate,
    TauTable,
    check,
    decode,
    primes_in,
    tau_factored,
    verdict,
)
from tauwaring.waring_int import (
    DP_THRESHOLD,
    RESIDUE_MODULUS,
    TAU_SMALL,
    AdmissibleSet,
    RepresentationParams,
    digits_mod_370944,
    find_dyadic_tau_primes,
    grow_admissible,
    index_budget,
    is_admissible,
    pad_count_6x7y,
    represent_integer,
    represent_residue_198,
    solve_prime_power_sum,
)


def test_tau_small_constants_match_series(table_2k):
    for n, v in TAU_SMALL.items():
        assert table_2k.tau(n) == v


# ---------------------------------------------------------------- digits


def test_digit_examples():
    assert digits_mod_370944(0) == digits_mod_370944(0).__class__(0, 0, 0, 0, 0)
    v = digits_mod_370944(84480)
    assert (v.r5, v.r4, v.r3, v.r2, v.r1) == (1, 0, 0, 0, 0)
    v = digits_mod_370944(370943)
    assert (v.r5, v.r4, v.r3, v.r2, v.r1) == (4, 6, 17, 11, 23)
    assert 337920 + 28980 + 4284 - 264 + 23 == 370943


def test_digit_range_errors():
    with pytest.raises(ValueError):
        digits_mod_370944(-1)
    with pytest.raises(ValueError):
        digits_mod_370944(RESIDUE_MODULUS)


@given(st.integers(min_value=0, max_value=RESIDUE_MODULUS - 1))
def test_digit_cascade_roundtrip(r):
    v = digits_mod_370944(r)
    assert 84480 * v.r5 + 4830 * v.r4 + 252 * v.r3 - 24 * v.r2 + v.r1 == r
    assert v.r5 <= 4 and v.r4 <= 17 and v.r3 <= 20 and v.r2 <= 11 and v.r1 <= 23
    assert v.total() <= 75


# ---------------------------------------------------------------- padding


def brute_6x7y(gap):
    for y in range(gap // 7 + 1):
        if (gap - 7 * y) % 6 == 0:
            return True
    return False


def test_pad_examples():
    assert pad_count_6x7y(198) == (33, 0)
    x, y = pad_count_6x7y(137)
    assert 6 * x + 7 * y == 137
    with pytest.raises(InfeasibleError):
        pad_count_6x7y(29)


def test_pad_matches_brute_force_semigroup():
    unreachable = []
    for gap in range(0, 301):
        if brute_6x7y(gap):
            x, y = pad_count_6x7y(gap)
            assert 6 * x + 7 * y == gap and x >= 0 and y >= 0
        else:
            unreachable.append(gap)
            with pytest.raises(InfeasibleError):
                pad_count_6x7y(gap)
    # the Frobenius number of 6 and 7 is 6 * 7 - 6 - 7 = 29
    assert unreachable == [1, 2, 3, 4, 5, 8, 9, 10, 11, 15, 16, 17, 22, 23, 29]


# ---------------------------------------------------------------- residues


def test_residue_zero_is_pure_blocks():
    cert = represent_residue_198(0)
    assert Counter(cert.plus) == Counter({n: 33 for n in ZERO_SUM_SIX})


def test_residue_84480(table_2k):
    cert = represent_residue_198(84480)
    assert len(cert.plus) == 198
    assert cert.plus.count(8) == 1
    assert verdict(cert, table_2k)


def test_residue_370943(table_2k):
    cert = represent_residue_198(370943)
    assert len(cert.plus) == 198
    assert max(cert.plus) <= 105
    assert verdict(cert, table_2k)


@settings(max_examples=80)
@given(st.integers(min_value=0, max_value=RESIDUE_MODULUS - 1))
@example(0)
@example(RESIDUE_MODULUS - 1)
def test_residue_certificates_sum_correctly(r):
    cert = represent_residue_198(r)
    assert len(cert.plus) == 198
    assert max(cert.plus) <= 105
    assert sum(TAU_SMALL[n] for n in cert.plus) == r
    assert cert.meta["max_index"] == max(cert.plus)
    assert cert.meta["max_abs_tau"] == max(abs(TAU_SMALL[n]) for n in set(cert.plus))


def test_residue_certificate_tamper_detected(table_2k):
    cert = represent_residue_198(12345)
    cert.plus[0] = 4 if cert.plus[0] != 4 else 9
    assert not verdict(cert, table_2k)


# ---------------------------------------------------------------- admissible sets


def test_is_admissible_vacuous(table_2k):
    ok, witness = is_admissible([29, 31], table_2k)
    assert ok and witness is None


def test_is_admissible_real_primes(table_2k):
    ok, witness = is_admissible(primes_in(23, 200)[:12], table_2k)
    assert ok and witness is None


def test_is_admissible_rejects_repeats(table_2k):
    with pytest.raises(ValueError):
        is_admissible([29, 29, 31], table_2k)


def test_is_admissible_rejects_small_primes(table_2k):
    with pytest.raises(ValueError):
        is_admissible([19, 29], table_2k)


def test_is_admissible_capacity(table_2k):
    with pytest.raises(CapacityError):
        is_admissible(primes_in(23, 400)[:17], table_2k)


def test_is_admissible_detects_collision():
    # synthetic table where two 6-subsets share a sum: tau == 1 on all primes
    fake = TauTable(200, [0] + [1] * 200)
    ok, witness = is_admissible(primes_in(23, 200)[:7], fake)
    assert not ok
    a, b = witness
    assert a != b and len(a) == len(b) == 6


def grow_admissible_incremental(candidates, cap, table):
    """The greedy growth as it once ran on its own (test reference): candidate
    q joins unless a 6-subset through q repeats a sum already held or another
    new one; the result is then certified by is_admissible."""
    if cap > 16:
        raise CapacityError(f"cap must be <= 16, got {cap}")
    chosen, sums = [], {}
    for q in sorted(candidates):
        if len(chosen) >= cap:
            break
        if q <= 23 or q > table.limit:
            raise ValueError(f"candidate {q} out of range")
        new_sums = {}
        for combo5 in combinations(chosen, 5):
            s = sum(table.values[t] for t in combo5 + (q,))
            if s in sums or s in new_sums:
                break
            new_sums[s] = combo5 + (q,)
        else:
            chosen.append(q)
            sums.update(new_sums)
    certified, _ = is_admissible(chosen, table) if chosen else (True, None)
    return AdmissibleSet(tuple(chosen), certified)


def test_grow_admissible(table_2k):
    grown = grow_admissible(primes_in(23, 200), 12, table_2k)
    assert grown.certified
    assert len(grown.primes) == 12
    assert grown.primes == tuple(sorted(grown.primes))


def test_grow_admissible_trivial_cases(table_2k):
    assert grow_admissible([], 5, table_2k).primes == ()
    assert grow_admissible(primes_in(23, 100), 0, table_2k).primes == ()


def test_grow_admissible_skips_colliding_candidates():
    fake = TauTable(300, [0] + [1] * 300)
    grown = grow_admissible(primes_in(23, 300), 12, fake)
    # with constant tau every 6-subset collides, so growth stalls at 6 picks
    assert grown == AdmissibleSet((29, 31, 37, 41, 43, 47), True)
    assert grown == grow_admissible_incremental(primes_in(23, 300), 12, fake)


@pytest.mark.parametrize("cap", range(17))
def test_grow_admissible_matches_the_incremental_loop(table_2k, cap):
    candidates = primes_in(23, 2000)
    want = grow_admissible_incremental(candidates, cap, table_2k)
    assert grow_admissible(candidates, cap, table_2k) == want
    assert len(want.primes) == cap


@pytest.mark.parametrize("candidates", [[23, 29], [29, 31, 2003], [29, 29, 31]],
                         ids=["at-23", "past-the-table", "repeated"])
def test_grow_admissible_refuses_what_the_incremental_loop_refuses(table_2k, candidates):
    for grow in (grow_admissible, grow_admissible_incremental):
        with pytest.raises(ValueError):
            grow(candidates, 5, table_2k)


# ---------------------------------------------------------------- dyadic scan


def test_find_dyadic_matches_direct_scan(table_2k):
    found = find_dyadic_tau_primes(2000, table_2k)
    targets = {pow(2, j, 5528): j for j in range(1, 13)}
    expected = {}
    for q in primes_in(1, 2000):
        j = targets.get(table_2k.tau(q) % 5528)
        if j is not None and j not in expected:
            expected[j] = q
    assert found == dict(sorted(expected.items()))
    for j, q in found.items():
        assert table_2k.tau(q) % 5528 == pow(2, j, 5528)


def test_find_dyadic_small_bound(table_2k):
    found = find_dyadic_tau_primes(30, table_2k)
    assert isinstance(found, dict)
    assert all(q <= 30 for q in found.values())


# ---------------------------------------------------------------- prime-power sums


def test_solve_prime_power_examples():
    assert solve_prime_power_sum(29**11 + 31**11, 2, [29, 31, 37]) == [29, 31]
    assert solve_prime_power_sum(29**11, 1, [29, 31, 37]) == [29]
    assert solve_prime_power_sum(29**11 + 1, 1, [29, 31, 37]) is None


def test_solve_prime_power_with_repeats():
    assert solve_prime_power_sum(2 * 29**11, 2, [29, 31]) == [29, 29]
    sol = solve_prime_power_sum(3 * 31**11, 3, [29, 31, 37])
    assert sol == [31, 31, 31]


def test_solve_prime_power_s4():
    pool = primes_in(23, 120)
    target = pool[0] ** 11 + pool[3] ** 11 + pool[5] ** 11 + pool[5] ** 11
    sol = solve_prime_power_sum(target, 4, pool)
    assert sol is not None and len(sol) == 4
    assert sum(q**11 for q in sol) == target


def four_branch_prime_power_sum(target, s, pool):
    """solve_prime_power_sum as it was with one branch per s (test reference
    for the library's single meet-in-the-middle loop)."""
    pool = sorted(set(pool))
    if not 1 <= s <= 4:
        raise ValueError(f"term count must be in 1..4, got {s}")
    if len(pool) > 200:
        raise CapacityError(f"pool capped at 200 primes, got {len(pool)}")
    if not all(is_prime(q) for q in pool):
        raise ValueError("pool must consist of primes")
    power = {q: q**11 for q in pool}
    if s == 1:
        for q in pool:
            if power[q] == target:
                return [q]
        return None
    pair_sums = {}
    for a, b in combinations_with_replacement(pool, 2):
        pair_sums.setdefault(power[a] + power[b], (a, b))
    if s == 2:
        hit = pair_sums.get(target)
        return sorted(hit) if hit else None
    if s == 3:
        for q in pool:
            hit = pair_sums.get(target - power[q])
            if hit:
                return sorted((q,) + hit)
        return None
    for t, (a, b) in pair_sums.items():
        hit = pair_sums.get(target - t)
        if hit:
            return sorted((a, b) + hit)
    return None


PRIMES_TO_400 = primes_in(1, 400)


@st.composite
def prime_power_cases(draw):
    """(target, s, pool): a pool of primes below 400, with repeats, and either a
    sum of s of its primes' 11th powers, that sum nudged, or a random target."""
    pool = draw(st.lists(st.sampled_from(PRIMES_TO_400), min_size=1, max_size=40))
    s = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["feasible", "nudged", "random"]))
    if kind == "random":
        return draw(st.integers(-(10**30), 4 * 400**11)), s, pool
    picks = draw(st.lists(st.sampled_from(pool), min_size=s, max_size=s))
    target = sum(q**11 for q in picks)
    return target + (draw(st.integers(-5, 5)) if kind == "nudged" else 0), s, pool


@settings(max_examples=400, deadline=None)
@given(prime_power_cases())
@example((3 * 31**11, 3, [29, 31, 37]))
@example((2 * 29**11, 2, [29, 29, 31]))
@example((0, 1, [2]))
def test_solve_prime_power_matches_four_branch_reference(case):
    target, s, pool = case
    assert solve_prime_power_sum(target, s, pool) == four_branch_prime_power_sum(target, s, pool)


def test_solve_prime_power_guards():
    with pytest.raises(ValueError):
        solve_prime_power_sum(1, 5, [29])
    with pytest.raises(CapacityError):
        solve_prime_power_sum(1, 2, primes_in(1, 2000)[:201])
    with pytest.raises(ValueError):
        solve_prime_power_sum(1, 1, [30])


# ---------------------------------------------------------------- represent_integer


def test_params_validation():
    with pytest.raises(ValueError):
        RepresentationParams(c_bound=0)
    with pytest.raises(ValueError):
        RepresentationParams(max_terms=100)


def test_represent_zero(table_2k):
    cert = represent_integer(0, RepresentationParams(), table_2k)
    assert Counter(cert.plus) == Counter({n: 33 for n in ZERO_SUM_SIX})
    assert verdict(cert, table_2k)


def test_represent_one(table_2k):
    cert = represent_integer(1, RepresentationParams(), table_2k)
    assert cert.plus == [1]
    assert verdict(cert, table_2k)


def test_represent_respects_index_budget(table_2k):
    params = RepresentationParams()
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randint(-(10**4), 10**4)
        cert = represent_integer(n, params, table_2k)
        assert verdict(cert, table_2k), n
        assert cert.meta["max_index"] <= index_budget(n, params.c_bound)
        assert cert.meta["term_count"] <= params.max_terms


def test_represent_greedy_stage(table_2k):
    cert = represent_integer(5_000_000_000, RepresentationParams(), table_2k)
    assert verdict(cert, table_2k)
    assert cert.meta["max_index"] <= index_budget(5_000_000_000, 15)


def near_root_boundaries():
    """Targets where floor(|t|^(2/11)) steps: t = +-s^11 and t^2 just past or
    short of r^11, each with its neighbours, up to |t| near 10^400."""
    powers = st.integers(min_value=0, max_value=10**36).map(lambda s: s**11)
    straddles = st.integers(min_value=1, max_value=10**72).map(lambda r: math.isqrt(r**11))
    near = st.tuples(st.one_of(powers, straddles), st.integers(min_value=-1, max_value=1),
                     st.sampled_from((1, -1)))
    return near.map(lambda t: t[2] * (t[0] + t[1]))


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.integers(min_value=-(10**400), max_value=10**400), near_root_boundaries()))
@example(0)
@example(1)
@example(-1)
@example(2**275 - 1)
@example(2**275)
@example(-(2**275))
@example(2**50)
@example(10**400)
def test_index_budget_root_matches_integer_nth_root(target):
    root = integer_nth_root(target * target, 11)
    assert root**11 <= target * target < (root + 1) ** 11
    assert index_budget(target, 1) == root + 1
    assert index_budget(target, 15) == 15 * (root + 1)


def test_represent_table_too_small(table_2k):
    with pytest.raises(ValueError, match="budget"):
        represent_integer(10**40, RepresentationParams(), table_2k)


def test_represent_tight_c_bound_is_infeasible(table_2k):
    # budget 2 but the minimum-term path for 26 uses index 3 (252 - 9*24 + ...)
    with pytest.raises(InfeasibleError, match="c_bound"):
        represent_integer(26, RepresentationParams(c_bound=1), table_2k)


def test_represent_zero_budget_is_infeasible():
    # c_bound 1/100 gives 2e6 an index budget of 0, so the greedy walk has no rung
    with pytest.raises(InfeasibleError, match="index budget 0"):
        represent_integer(2 * 10**6, RepresentationParams(c_bound=Fraction(1, 100)),
                          build_tau_table_series(100))


def test_certificate_json_roundtrip(table_2k):
    cert = represent_integer(-98765, RepresentationParams(), table_2k)
    back = decode(cert.to_json_dict())
    assert back.target == cert.target
    assert back.plus == cert.plus
    assert back.meta == cert.meta
    assert verdict(back, table_2k)


def test_check_integer_certificate_recomputes(table_2k):
    cert = represent_integer(-98765, RepresentationParams(), table_2k)
    assert check(cert, table_2k) == (-98765, True)
    # indices outside [1, limit] are skipped, never wrapped around the table
    padded = Certificate("integer_sum", target=0, plus=[0, -3, 2001, *cert.plus], meta={})
    assert check(padded, table_2k) == (-98765, False)


def test_verify_rejects_tampering(table_2k):
    cert = represent_integer(777, RepresentationParams(), table_2k)
    cert.plus[0] += 1
    cert.meta["max_index"] = max(cert.plus)
    assert not verdict(cert, table_2k)


def test_verify_rejects_meta_tampering(table_2k):
    cert = represent_integer(777, RepresentationParams(), table_2k)
    cert.meta["term_count"] += 1
    assert not verdict(cert, table_2k)


def filtered_count_check(cert, table):
    """The integer verifier counting a filtered generator of in-table indices
    (test reference for the library's one check). A kind the verifier does
    not know gives (None, False), as it does for every certificate kind."""
    if cert.kind != "integer_sum":
        return None, False
    counts = Counter(n for n in cert.plus if 1 <= n <= table.limit)
    tau_of = {n: tau_factored(n, table) for n in counts}
    total = sum(c * tau_of[n] for n, c in counts.items())
    if not cert.plus or len(counts) < len(set(cert.plus)):
        return total, False
    n_terms = len(cert.plus)
    top = max(counts)
    max_abs = max(abs(t) for t in tau_of.values())
    meta = cert.meta
    ok = (
        total == cert.target
        and meta.get("term_count") == n_terms
        and meta.get("max_index") == top
        and meta.get("max_abs_tau", max_abs) == max_abs
        and top <= meta.get("index_bound", top)
        and meta.get("exact_terms", n_terms) == n_terms
        and n_terms <= meta.get("max_terms", n_terms)
    )
    return total, ok


META_FIELDS = ("term_count", "max_index", "max_abs_tau", "index_bound", "exact_terms",
               "max_terms")
position = st.integers(0, 10**6)
certificate_mutation = st.one_of(
    st.tuples(st.just("duplicate"), position, position),
    st.tuples(st.just("insert"), st.sampled_from([0, -5, 2001, 10**400]), position),
    st.tuples(st.just("empty")),
    st.tuples(st.just("kind"), st.sampled_from(["", "modp_pm32", "Integer_sum"])),
    st.tuples(st.just("meta"), st.sampled_from(META_FIELDS),
              st.one_of(st.none(), st.integers(-3, 3), st.just(10**400))),
    st.tuples(st.just("target"), st.integers(-3, 3)),
)


def mutate(cert, mutation):
    kind, *args = mutation
    plus = cert.plus
    if kind == "duplicate" and plus:
        plus.insert(args[1] % (len(plus) + 1), plus[args[0] % len(plus)])
    elif kind == "insert":
        plus.insert(args[1] % (len(plus) + 1), args[0])
    elif kind == "empty":
        plus.clear()
    elif kind == "kind":
        cert.kind = args[0]
    elif kind == "meta" and args[1] is None:
        cert.meta.pop(args[0], None)
    elif kind == "meta":
        old = cert.meta.get(args[0], 0)
        cert.meta[args[0]] = args[1] if args[1] == 10**400 else old + args[1]
    elif kind == "target":
        cert.target += args[0]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(-(10**11), 10**11).map(lambda n: ("integer", n)),
                 st.integers(0, RESIDUE_MODULUS - 1).map(lambda r: ("residue", r))),
       st.lists(certificate_mutation, max_size=4))
def test_check_matches_filtered_count_on_mutated_certificates(table_2k, source, mutations):
    kind, n = source
    if kind == "integer":
        cert = represent_integer(n, RepresentationParams(), table_2k)
    else:
        cert = represent_residue_198(n)
    for mutation in mutations:
        mutate(cert, mutation)
    assert check(cert, table_2k) == filtered_count_check(cert, table_2k)


# ---------------------------------------------------------------- greedy ladder


# id(table) -> (table, its (tau, index) tuples sorted, their indices as an
# array); holding the table keeps its id from being reused while the entry lives.
_TAU_ORDER: dict[int, tuple] = {}


def within_budget(table, budget):
    """The table's (tau(n), n) with n <= budget in sorted order: the tuples are
    sorted once per table object and filtered per call (test reference,
    independent of waring_int's ladder)."""
    if id(table) not in _TAU_ORDER:
        pairs = sorted((table.values[n], n) for n in range(1, table.limit + 1))
        _TAU_ORDER[id(table)] = (table, pairs, np.array([n for _, n in pairs]))
    _, pairs, index = _TAU_ORDER[id(table)]
    return [pairs[i] for i in np.nonzero(index <= budget)[0].tolist()]


def per_call_greedy(target, budget, max_terms, table):
    """The greedy descent as it was before the ladder was kept on the table
    (test reference): the sorted (tau, index) tuples with index <= budget,
    the same list in the same order as a sort of those tuples per call."""
    terms, remainder = [], target
    if abs(remainder) > DP_THRESHOLD:
        ladder = within_budget(table, budget)
        ladder_vals = [v for v, _ in ladder]
        while abs(remainder) > DP_THRESHOLD:
            if len(terms) >= max_terms:
                raise InfeasibleError(
                    f"term budget {max_terms} exhausted at remainder {remainder};"
                    " raise c_bound or max_terms"
                )
            pos = bisect.bisect_left(ladder_vals, remainder)
            best = None
            for cand in (pos - 1, pos, pos + 1):
                if 0 <= cand < len(ladder):
                    v, idx = ladder[cand]
                    key = (abs(remainder - v), idx)
                    if best is None or key < best[0]:
                        best = (key, v, idx)
            _, v, idx = best
            if abs(remainder - v) >= abs(remainder):
                raise InfeasibleError(
                    f"greedy descent stalled at remainder {remainder} with budget {budget}"
                )
            terms.append(idx)
            remainder -= v
    return terms, remainder


def greedy_outcome(walk, target, budget, max_terms, table):
    try:
        return walk(target, budget, max_terms, table)
    except InfeasibleError as exc:
        return type(exc), str(exc)


def assert_same_greedy(cases, table):
    """Both walks agree on every (target, budget, max_terms); returns the outcomes."""
    outcomes = []
    for target, budget, max_terms in cases:
        ref = greedy_outcome(per_call_greedy, target, budget, max_terms, table)
        got = greedy_outcome(waring_int._greedy_descent, target, budget, max_terms, table)
        assert got == ref, (target, budget, max_terms)
        outcomes.append(got)
    return outcomes


def fresh_copy(table):
    return TauTable(table.limit, list(table.values))


def budget_as_c_bound(target, budget):
    """A Fraction c_bound whose index_budget for target is exactly budget."""
    c_bound = Fraction(budget, integer_nth_root(target * target, 11) + 1)
    assert index_budget(target, c_bound) == budget
    return c_bound


def test_greedy_matches_per_call_sort_on_integer_workload(table_20k):
    # The targets of perfbench/workloads.integer_inputs(1, FULL), default params.
    rng = random.Random("integer:1")
    targets = [rng.choice((-1, 1)) * int(10 ** rng.uniform(3, 17)) for _ in range(600)]
    cases = [(n, index_budget(n, 15), 74000) for n in targets]
    assert sum(abs(n) > DP_THRESHOLD for n in targets) == 470
    table = fresh_copy(table_20k)
    outcomes = assert_same_greedy(cases, table)
    assert all(isinstance(o[0], list) for o in outcomes)
    assert len(table.ladder[1]) >= max(b for _, b, _ in cases)


def test_greedy_matches_per_call_sort_on_large_targets(table_20k):
    rng = random.Random("greedy ladder: large targets")
    table = fresh_copy(table_20k)
    cases = []
    for _ in range(2000):
        target = rng.choice((-1, 1)) * int(10 ** rng.uniform(6, 22))
        budget = int(10 ** rng.uniform(0, math.log10(table.limit)))
        cases.append((target, index_budget(target, budget_as_c_bound(target, budget)), 2000))
    outcomes = assert_same_greedy(cases, table)
    kinds = Counter(o[1].split()[1] if o[0] is InfeasibleError else "ok" for o in outcomes)
    assert set(kinds) == {"ok", "budget", "descent"}, kinds


@pytest.mark.parametrize("limit", [10, 11, 50, 333, 2000])
def test_greedy_matches_per_call_sort_on_small_tables(limit):
    rng = random.Random(f"greedy ladder: table {limit}")
    table = build_tau_table_series(limit)
    cases = []
    for _ in range(300):
        target = rng.choice((-1, 1)) * int(10 ** rng.uniform(6, 22))
        budget = int(10 ** rng.uniform(0, math.log10(limit)))
        cases.append((target, index_budget(target, budget_as_c_bound(target, budget)),
                      rng.choice((198, 500, 2000))))
    outcomes = assert_same_greedy(cases, table)
    assert any(o[0] is InfeasibleError and "stalled" in o[1] for o in outcomes)
    assert any(o[0] is InfeasibleError and "exhausted" in o[1] for o in outcomes)


def test_greedy_matches_per_call_sort_on_tied_values():
    # Real tau values do not repeat here, so ties between equal values (broken
    # by index) only show on a fake table.
    rng = random.Random("greedy ladder: ties")
    steps = (-(10**7), -(10**6), -24, 1, 5, 10**6, 3 * 10**6)
    table = TauTable(300, [0] + [rng.choice(steps) for _ in range(300)])
    cases = [(rng.choice((-1, 1)) * rng.randint(DP_THRESHOLD + 1, 10**9),
              rng.randint(1, table.limit), 500) for _ in range(300)]
    outcomes = assert_same_greedy(cases, table)
    assert sum(isinstance(o[0], list) for o in outcomes) > 200


def count_flatnonzero(monkeypatch):
    """Calls of np.flatnonzero from here on: one for each greedy call that
    lists every ladder position within its budget."""
    calls = []
    real = np.flatnonzero

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "flatnonzero", counting)
    return calls


def test_greedy_probes_suffice_on_integer_workload(table_20k, monkeypatch):
    rng = random.Random("integer:1")
    targets = [rng.choice((-1, 1)) * int(10 ** rng.uniform(3, 17)) for _ in range(600)]
    table = fresh_copy(table_20k)
    calls = count_flatnonzero(monkeypatch)
    for n in targets:
        waring_int._greedy_descent(n, index_budget(n, 15), 74000, table)
    assert calls == []


def test_greedy_lists_the_budget_once_when_probes_fail(table_20k, monkeypatch):
    # The first 40 cases with a budget below 10 among the large targets above.
    rng = random.Random("greedy ladder: large targets")
    table = fresh_copy(table_20k)
    cases = []
    for _ in range(2000):
        target = rng.choice((-1, 1)) * int(10 ** rng.uniform(6, 22))
        budget = int(10 ** rng.uniform(0, math.log10(table.limit)))
        if budget < 10:
            cases.append((target, index_budget(target, budget_as_c_bound(target, budget)), 2000))
    # A fresh ladder only covers the budgets seen so far, and probes reach
    # across a short one; grow it to the whole table first.
    waring_int._greedy_descent(10**7, table.limit, 74000, table)
    calls = count_flatnonzero(monkeypatch)
    for case in cases[:40]:
        before = len(calls)
        assert_same_greedy([case], table)
        assert len(calls) == before + 1, case


# sha256 of the JSON of these 50 certificates, as emitted by the per-call sort.
REPRESENT_DIGEST = "9b9fbb433a5ed6cc54bdcd81b041d61795c9cd29ac82f69689d2ddf7bbc74427"


def test_represent_integer_certificates_pinned(table_20k):
    rng = random.Random("represent_integer pin")
    targets = [rng.choice((-1, 1)) * int(10 ** rng.uniform(0, 17)) for _ in range(50)]
    table = fresh_copy(table_20k)
    certs = [represent_integer(n, RepresentationParams(), table).to_json_dict()
             for n in targets]
    digest = hashlib.sha256(json.dumps(certs, sort_keys=True).encode()).hexdigest()
    assert digest == REPRESENT_DIGEST


def test_ladder_sorted_about_log2_times(table_20k, monkeypatch):
    sorts = []

    def counting_sorted(*args, **kwargs):
        sorts.append(1)
        return sorted(*args, **kwargs)

    monkeypatch.setattr(waring_int, "sorted", counting_sorted, raising=False)
    table = fresh_copy(table_20k)
    b0 = 13
    for i in range(200):
        budget = int(b0 * (table.limit / b0) ** (i / 199))
        target = 10**7 + i
        assert waring_int._greedy_descent(target, budget, 74000, table) == \
            per_call_greedy(target, budget, 74000, table)
    assert len(table.ladder[1]) == table.limit
    assert 1 <= len(sorts) <= math.ceil(math.log2(table.limit / b0)) + 1


def test_ladder_cache_is_per_table(table_20k):
    table = fresh_copy(table_20k)
    represent_integer(10**12, RepresentationParams(), table)
    copied = fresh_copy(table)
    assert table.ladder is not None and copied.ladder is None
    represent_integer(10**12, RepresentationParams(), copied)
    assert copied.ladder is not table.ladder


def test_ladder_cache_leaves_eq_repr_pickle_alone():
    table = build_tau_table_series(500)
    before = (repr(table), pickle.dumps(table))
    cert = represent_integer(-(10**8), RepresentationParams(), table)
    assert check(cert, table) == (-(10**8), True)  # fills the tau memo
    assert table.ladder is not None and table.tau_memo
    assert (repr(table), pickle.dumps(table)) == before
    assert table == fresh_copy(table)
    restored = pickle.loads(pickle.dumps(table))
    assert restored.ladder is None and restored.tau_memo is None


def frontier_bfs(coins, radius):
    """The finisher's distance table as a frontier BFS with np.unique per
    layer: the reference for the bitset version."""
    coin_arr = np.array(coins, dtype=np.int64)
    dist = np.full(2 * radius + 1, -1, dtype=np.int16)
    dist[radius] = 0
    frontier = np.array([0], dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        nxt = (frontier[:, None] + coin_arr[None, :]).ravel()
        nxt = nxt[(nxt >= -radius) & (nxt <= radius)]
        idx = nxt + radius
        idx = np.unique(idx[dist[idx] == -1])
        if idx.size == 0:
            break
        dist[idx] = depth
        frontier = idx - radius
    if (dist < 0).any():
        raise InternalCheckError("finisher table has unreachable remainders")
    return dist


@pytest.fixture(scope="module")
def finisher_reference():
    """(coin order, distances, radius) of the exact finisher, rebuilt here:
    the coins tau(1..10) by (-|tau|, index) and frontier_bfs's distances."""
    coins = tuple(TAU_SMALL[n] for n in range(1, 11))
    order = tuple(sorted(zip(coins, range(1, 11)), key=lambda t: (-abs(t[0]), t[1])))
    radius = DP_THRESHOLD + max(abs(c) for c in coins)
    return order, frontier_bfs(coins, radius), radius


def steps_from_distances(dist, order):
    """The walk's rule over whole arrays: at each position the first coin in
    order whose remainder is one closer to zero, 0 where none is (zero)."""
    size = dist.size
    step = np.zeros(size, dtype=np.uint8)
    for value, idx in reversed(order):  # the first coin in order writes last
        lo, hi = max(0, value), min(size, size + value)
        closer = dist[lo - value : hi - value] == dist[lo:hi] - 1
        step[lo:hi][closer] = idx
    return step


def test_finisher_steps_match_frontier_bfs(table_2k, finisher_reference):
    coins = tuple(table_2k.values[1:11])
    assert coins == tuple(TAU_SMALL[n] for n in range(1, 11))
    order, dist, radius = finisher_reference
    view, lib_radius = waring_int._finisher()
    assert lib_radius == radius == DP_THRESHOLD + max(abs(c) for c in coins)
    step = view.obj
    assert step.dtype == np.uint8 and step.size == 2 * radius + 1
    assert dist.max() == 33
    assert step[radius] == 0 and np.count_nonzero(step) == step.size - 1
    assert np.array_equal(step, steps_from_distances(dist, order))


def test_finisher_steps_are_read_only_and_cached():
    view, radius = waring_int._finisher()
    assert view.readonly and not view.obj.flags.writeable
    assert view.obj.base is None  # it owns its 2.2 MB; no distance array stays behind it
    with pytest.raises(ValueError, match="read-only"):
        view.obj[radius + 1] = 0
    assert waring_int._finisher()[0].obj is view.obj


def numpy_scalar_finish(r, coins, dist, radius):
    """The finisher's walk reading the numpy distance table one scalar at a
    time (test reference for the library's memoryview walk)."""
    out = []
    while r != 0:
        d = int(dist[r + radius])
        for value, idx in coins:
            rr = r - value
            if -radius <= rr <= radius and dist[rr + radius] == d - 1:
                out.append(idx)
                r = rr
                break
        else:
            raise InternalCheckError(f"finisher table inconsistent at remainder {r}")
    return out


def test_finish_exact_matches_numpy_scalar_walk(table_2k, finisher_reference):
    order, dist, radius = finisher_reference
    coins = tuple(table_2k.values[1:11])
    assert order == tuple(sorted(zip(coins, range(1, 11)), key=lambda t: (-abs(t[0]), t[1])))
    step, _ = waring_int._finisher()
    remainders = [*range(-DP_THRESHOLD, DP_THRESHOLD + 1, 499), DP_THRESHOLD, -1, 1]
    for r in remainders:
        got = waring_int._finish_exact(r, step, radius)
        assert got == numpy_scalar_finish(r, order, dist, radius), r
        assert sum(table_2k.values[n] for n in got) == r
    farthest = int(np.argmax(dist)) - radius
    assert len(waring_int._finish_exact(farthest, step, radius)) == 33


class CountingView:
    """A step table that counts its reads."""

    def __init__(self, step):
        self.step, self.reads = step, 0

    def __getitem__(self, i):
        self.reads += 1
        return self.step[i]


def test_finish_exact_reads_the_step_table_once_per_term():
    step, radius = waring_int._finisher()
    for r in [*range(-DP_THRESHOLD, DP_THRESHOLD + 1, 9973), 0, 1, -1]:
        counting = CountingView(step)
        assert len(waring_int._finish_exact(r, counting, radius)) == counting.reads, r


def test_finish_exact_refuses_a_zeroed_step_entry():
    step, radius = waring_int._finisher()
    r = 123457
    first = waring_int._finish_exact(r, step, radius)[0]
    damaged = bytearray(step)
    damaged[r - TAU_SMALL[first] + radius] = 0
    with pytest.raises(InternalCheckError,
                       match=f"inconsistent at remainder {r - TAU_SMALL[first]}$"):
        waring_int._finish_exact(r, damaged, radius)
