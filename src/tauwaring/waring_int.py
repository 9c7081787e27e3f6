"""Integer-side representation machinery.

Covers: the digit decomposition of residues mod 370944 over the tau values at
{8, 5, 3, 2, 1}, exact-count padding with zero-sum blocks, admissible-set
search, a meet-in-the-middle solver for small sums of prime 11th powers, and
a desk-scale solver that writes any integer as a bounded sum of tau values
with a verifiable certificate.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement

import numpy as np

from .divisor_arith import integer_nth_root, is_prime
from .errors import CapacityError, InfeasibleError, InternalCheckError
from .identity_suite import ZERO_SUM_SEVEN, ZERO_SUM_SIX
from .verify import Certificate, TauTable, primes_in

# The benchmark reads the codec and the verdict here; ROADMAP item 2b drops these.
from .verify import decode as sum_certificate_from_json  # noqa: F401
from .verify import verdict as verify_integer_certificate  # noqa: F401

# Everything used to assemble residue certificates stays at index <= 105.
RESIDUE_MODULUS = 370944
RESIDUE_TERM_COUNT = 198
MAX_RESIDUE_INDEX = 105

# tau at 1..10, the exact finisher's coins, and at the small indices the
# residue construction needs; cross-checked against the series table in the
# test suite.
TAU_SMALL = {
    1: 1,
    2: -24,
    3: 252,
    4: -1472,
    5: 4830,
    6: -6048,
    7: -16744,
    8: 84480,
    9: -113643,
    10: -115920,
    12: -370944,
    14: 401856,
    27: -73279080,
    29: 128406630,
    41: 308120442,
    42: 101267712,
    44: -786948864,
    48: 248758272,
    55: 2582175960,
    69: 4698104544,
    90: 13173496560,
    105: -20380127040,
}

# Below this remainder the exact finisher over tau(1..10) takes over from
# the greedy descent.
DP_THRESHOLD = 10**6

# Ladder positions a greedy step looks at on each side of its bisection point
# for an index within the budget, before the call lists every such position.
LADDER_PROBES = 8


@dataclass(frozen=True)
class DigitVector:
    """Digit counts for r = 84480 r5 + 4830 r4 + 252 r3 - 24 r2 + r1."""

    r5: int
    r4: int
    r3: int
    r2: int
    r1: int

    def total(self) -> int:
        return self.r5 + self.r4 + self.r3 + self.r2 + self.r1


@dataclass(frozen=True)
class AdmissibleSet:
    """Primes certified to admit no nontrivial equal pair of 6-term tau sums."""

    primes: tuple[int, ...]
    certified: bool


@dataclass(frozen=True)
class RepresentationParams:
    """Knobs for the integer representation solver.

    c_bound scales the index budget c_bound * (|N|^{2/11} + 1); 15 is the
    constant the construction yields, kept configurable upward because the
    hidden asymptotics can pinch for small targets.
    """

    c_bound: int | Fraction = 15
    max_terms: int = 74000

    def __post_init__(self):
        if self.c_bound <= 0:
            raise ValueError("c_bound must be positive")
        if self.max_terms < RESIDUE_TERM_COUNT:
            raise ValueError(f"max_terms must be >= {RESIDUE_TERM_COUNT}")


def digits_mod_370944(r: int) -> DigitVector:
    """Cascade r in [0, 370944) into bounded digits over tau(8,5,3,2,1).

    The last two steps run over-and-correct: r3' = 252 r3 - r2' and
    r2' = 24 r2 - r1, which is what keeps every digit within its cap.
    """
    if not 0 <= r < RESIDUE_MODULUS:
        raise ValueError(f"r={r} outside [0, {RESIDUE_MODULUS})")
    r5, rest4 = divmod(r, 84480)
    r4, rest3 = divmod(rest4, 4830)
    r3 = -(-rest3 // 252)
    rest2 = 252 * r3 - rest3
    r2 = -(-rest2 // 24)
    r1 = 24 * r2 - rest2
    return DigitVector(r5, r4, r3, r2, r1)


def pad_count_6x7y(gap: int) -> tuple[int, int]:
    """Nonnegative (x, y) with 6x + 7y = gap, canonical minimal-y solution."""
    if gap < 0:
        raise ValueError(f"gap must be nonnegative, got {gap}")
    y = gap % 6
    if 7 * y > gap:
        raise InfeasibleError(f"{gap} is not representable as 6x + 7y")
    return (gap - 7 * y) // 6, y


def represent_residue_198(r: int) -> Certificate:
    """Exactly 198 indices <= 105 whose tau values sum to r in [0, 370944).

    Digits give at most 75 terms; the remaining count (always >= 123, hence
    representable as 6x + 7y) is filled with zero-sum blocks.
    """
    vec = digits_mod_370944(r)
    indices = (
        [8] * vec.r5 + [5] * vec.r4 + [3] * vec.r3 + [2] * vec.r2 + [1] * vec.r1
    )
    x, y = pad_count_6x7y(RESIDUE_TERM_COUNT - len(indices))
    indices += list(ZERO_SUM_SIX) * x + list(ZERO_SUM_SEVEN) * y
    # x >= 15 since the digits take at most 75 terms, so the six-term block is
    # always there, and its index 105 is the largest and has the largest |tau|.
    meta = {
        "term_count": len(indices),
        "max_index": MAX_RESIDUE_INDEX,
        "max_abs_tau": abs(TAU_SMALL[MAX_RESIDUE_INDEX]),
        "index_bound": MAX_RESIDUE_INDEX,
        "exact_terms": RESIDUE_TERM_COUNT,
    }
    return Certificate("integer_sum", target=r, plus=indices, meta=meta)


def is_admissible(primes, table: TauTable) -> tuple[bool, tuple | None]:
    """Check that all increasing 6-tuple tau sums over the set are distinct.

    Returns (True, None) or (False, (tuple_a, tuple_b)) with the colliding
    6-tuples. Vacuously true below 6 elements.
    """
    ps = sorted(primes)
    if len(set(ps)) != len(ps):
        raise ValueError("prime set contains repeats")
    if any(q <= 23 for q in ps):
        raise ValueError("admissible sets live above 23")
    if any(q > table.limit for q in ps):
        raise ValueError("prime outside table range")
    if len(ps) > 16:
        raise CapacityError(f"admissibility check capped at 16 primes, got {len(ps)}")
    seen: dict[int, tuple] = {}
    for combo in combinations(ps, 6):
        s = sum(table.values[q] for q in combo)
        if s in seen:
            return False, (seen[s], combo)
        seen[s] = combo
    return True, None


def grow_admissible(candidates, cap: int, table: TauTable) -> AdmissibleSet:
    """Greedily extend an admissible set from ascending candidates up to cap.

    A candidate joins when is_admissible certifies the set with it, so the
    result is certified by the check that admitted its last prime; a candidate
    that is_admissible refuses (a repeat, <= 23 or past the table) raises.
    """
    if cap > 16:
        raise CapacityError(f"cap must be <= 16, got {cap}")
    chosen: list[int] = []
    for q in sorted(candidates):
        if len(chosen) >= cap:
            break
        if is_admissible(chosen + [q], table)[0]:
            chosen.append(q)
    return AdmissibleSet(tuple(chosen), True)


def find_dyadic_tau_primes(bound: int, table: TauTable) -> dict[int, int]:
    """Least prime l <= bound with tau(l) = 2^j (mod 5528), for each j in 1..12.

    The map may be partial: existence is only guaranteed asymptotically, so
    absent entries simply mean no witness below the scan bound.
    """
    bound = min(bound, table.limit)
    targets = {pow(2, j, 5528): j for j in range(1, 13)}
    found: dict[int, int] = {}
    for q in primes_in(1, bound):
        j = targets.get(table.values[q] % 5528)
        if j is not None and j not in found:
            found[j] = q
            if len(found) == 12:
                break
    return dict(sorted(found.items()))


def solve_prime_power_sum(target: int, s: int, pool) -> list[int] | None:
    """Primes q_1..q_s from the pool (repeats allowed) with sum q_i^11 = target.

    Meet in the middle: the sums of (s + 1) // 2 pool primes' 11th powers map
    to the first combination giving each, and the combinations of s // 2
    primes are scanned in order for a complement. s is capped at 4 and the
    pool at 200, which keeps that dictionary around 20k entries. Returns None
    when no solution exists (infeasibility is an answer, not an error).
    """
    pool = sorted(set(pool))
    if not 1 <= s <= 4:
        raise ValueError(f"term count must be in 1..4, got {s}")
    if len(pool) > 200:
        raise CapacityError(f"pool capped at 200 primes, got {len(pool)}")
    if not all(is_prime(q) for q in pool):
        raise ValueError("pool must consist of primes")
    power = {q: q**11 for q in pool}
    half: dict[int, tuple[int, ...]] = {}
    for combo in combinations_with_replacement(pool, (s + 1) // 2):
        half.setdefault(sum(power[q] for q in combo), combo)
    for combo in combinations_with_replacement(pool, s // 2):
        hit = half.get(target - sum(power[q] for q in combo))
        if hit:
            return sorted(combo + hit)
    return None


@cache
def _finisher():
    """(step table, radius) for the exact finisher.

    The coins are tau(1..10), tried by (-|tau|, index). step[v + radius] is
    the index of the first coin in that order that takes remainder v one coin
    closer to zero, and 0 at v = 0, for every v in [-radius, radius]; the
    mixed signs and tau(1) = 1 make the whole window reachable, within 33
    coins.

    The distances come from a breadth-first search on Python ints used as
    bitsets, bit v + radius standing for remainder v: shifting the frontier
    by a coin c marks v + c for every frontier v, and the bits still unseen
    after a layer are those at least one layer deeper. So dist[v] is the
    number of layers v stays unseen, and each layer adds `unseen` into
    bit-sliced counters (plane i holds bit i of every distance) with a ripple
    carry. Every int stays non-negative: `a & ~b` on an int this long costs
    some 20 times a plain `&`. The planes are unpacked into a uint8 distance
    array (_unpack_planes), the steps are derived from it (_first_steps), and
    the distances are dropped, so the process keeps one 2.2 MB table. It is
    read-only and handed out as a zero-copy memoryview that reads Python ints.
    """
    coins = [TAU_SMALL[n] for n in range(1, 11)]
    radius = DP_THRESHOLD + max(abs(c) for c in coins)
    size = 2 * radius + 1
    frontier = 1 << radius
    unseen = ((1 << size) - 1) ^ frontier
    planes: list[int] = []
    while unseen:
        carry = unseen
        for i, plane in enumerate(planes):
            planes[i] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            planes.append(carry)
        nxt = 0
        for c in coins:
            nxt |= frontier << c if c >= 0 else frontier >> -c
        frontier = nxt & unseen
        unseen ^= frontier
    order = sorted(zip(coins, range(1, 11)), key=lambda t: (-abs(t[0]), t[1]))
    step = _first_steps(_unpack_planes(planes, size), order)
    step.flags.writeable = False
    return memoryview(step), radius


# Positions per block of the distance unpacking and the step derivation, and
# the coins (first in the order) tested on whole blocks: tau(10), tau(9) and
# tau(8) settle 98% of the window, and the rest are tested position by
# position.
STEP_BLOCK = 1 << 17
STEP_WIDE_COINS = 3


def _unpack_planes(planes: list[int], size: int) -> np.ndarray:
    """dist[v] = sum over i of bit v of planes[i] times 2^i, as uint8, built
    STEP_BLOCK positions at a time so each plane's unpacked bits stay in
    cache. The bits are weighted by a multiply, which numpy vectorises for
    uint8 and a shift it does not."""
    nbytes = (size + 7) // 8
    raw = [np.frombuffer(plane.to_bytes(nbytes, "little"), np.uint8) for plane in planes]
    dist = np.zeros(8 * nbytes, dtype=np.uint8)
    block = STEP_BLOCK // 8
    for lo in range(0, nbytes, block):
        part = dist[8 * lo : 8 * (lo + block)]
        for i, plane_bytes in enumerate(raw):
            bits = np.unpackbits(plane_bytes[lo : lo + block], bitorder="little")
            part |= np.multiply(bits, np.uint8(1 << i), out=bits)
    return dist[:size]


def _first_steps(dist: np.ndarray, order) -> np.ndarray:
    """step[i] = index of the first (coin, index) in order with dist[i - coin]
    = dist[i] - 1, else 0, computed STEP_BLOCK positions at a time.

    Within a block the first STEP_WIDE_COINS coins are compared on slices,
    each claiming the positions still free; the later coins are tried only at
    the positions left, by a gather. dist[i] - 1 wraps to 255 at distance 0,
    which no position holds, so step stays 0 there.
    """
    size = dist.size
    step = np.zeros(size, dtype=np.uint8)
    hit = np.empty(STEP_BLOCK, dtype=bool)
    free = np.empty(STEP_BLOCK, dtype=bool)
    claim = np.empty(STEP_BLOCK, dtype=np.uint8)
    for lo in range(0, size, STEP_BLOCK):
        hi = min(lo + STEP_BLOCK, size)
        want = dist[lo:hi] - np.uint8(1)
        block = step[lo:hi]
        for c, idx in order[:STEP_WIDE_COINS]:
            a, b = max(lo, c), min(hi, size + c)  # the positions i with 0 <= i - c < size
            if a >= b:
                continue
            n, part = b - a, block[a - lo : b - lo]
            np.equal(dist[a - c : b - c], want[a - lo : b - lo], out=hit[:n])
            hit[:n] &= np.equal(part, 0, out=free[:n])
            np.multiply(hit[:n], np.uint8(idx), out=claim[:n])
            part |= claim[:n]
        left = np.flatnonzero(block == 0)
        for c, idx in order[STEP_WIDE_COINS:]:
            if not left.size:
                break
            j = left + (lo - c)
            found = (j >= 0) & (j < size) & (dist.take(j, mode="clip") == want[left])
            block[left[found]] = idx
            left = left[~found]
    return step


def _finish_exact(r: int, step, radius: int) -> list[int]:
    """The indices that the step table leads through from remainder r to zero.

    One step-table read per term: the entry at r + radius names the coin to
    take next. step is read one entry at a time, so a memoryview (as
    _finisher gives) costs no numpy scalar. A zero entry at r != 0 means the
    table does not lead to zero from there.
    """
    out = []
    while r:
        idx = step[r + radius]
        if not idx:
            raise InternalCheckError(f"finisher table inconsistent at remainder {r}")
        out.append(idx)
        r -= TAU_SMALL[idx]
    return out


def index_budget(target: int, c_bound: int | Fraction) -> int:
    """Concrete index cap floor(c_bound * (|target|^{2/11} + 1))."""
    root = integer_nth_root(target * target, 11)
    return int(c_bound * (root + 1))


def _neighbours_within(order: list[int], at: int, budget: int):
    """Ladder positions (lo, hi) of the nearest indices within budget around at.

    lo is the last position before at and hi the first from at on whose
    index is at most budget; either is None where the ladder ends first. The
    result is None when LADDER_PROBES positions on one side hold no such
    index and the ladder goes on.
    """
    lo = None
    for j in range(at - 1, max(at - 1 - LADDER_PROBES, -1), -1):
        if order[j] <= budget:
            lo = j
            break
    else:
        if at > LADDER_PROBES:
            return None
    for j in range(at, min(at + LADDER_PROBES, len(order))):
        if order[j] <= budget:
            return lo, j
    return (lo, None) if at + LADDER_PROBES >= len(order) else None


def _greedy_descent(target: int, budget: int, max_terms: int,
                    table: TauTable) -> tuple[list[int], int]:
    """Greedy steps until |remainder| <= DP_THRESHOLD; returns (indices, remainder).

    Each step takes the tau value within the budget closest to the remainder,
    ties to the smaller index. The ladder of indices sorted by (tau, index) is
    kept in `table.ladder` and regrown to at least twice its size when a
    budget passes its end. A step bisects the whole ladder for the remainder
    and takes the nearest index within the budget on each side: the one just
    below and the one at or above (an equal value further up has a larger
    index, so it never wins). Those are looked up among LADDER_PROBES
    positions per side; only when the probes fail does the call list every
    ladder position within its budget, once, and bisect that list for the
    rest of its steps. The probes fail where the budget is small against the
    ladder, whose far ends then hold only indices past the budget.
    """
    if abs(target) <= DP_THRESHOLD:
        return [], target
    if budget < 1:
        raise InfeasibleError(
            f"index budget {budget} leaves no tau value to descend from {target}"
        )
    terms: list[int] = []
    remainder = target
    ladder = table.ladder
    if ladder is None or len(ladder[1]) < budget:
        size = min(table.limit, max(budget, 2 * len(ladder[1]) if ladder else 0))
        order = sorted(range(1, size + 1), key=table.values.__getitem__)
        ladder = table.ladder = (np.array(order), order, [table.values[n] for n in order])
    order_arr, order, ladder_vals = ladder
    kept = None  # positions in the full ladder of the indices within this budget
    while abs(remainder) > DP_THRESHOLD:
        if len(terms) >= max_terms:
            raise InfeasibleError(
                f"term budget {max_terms} exhausted at remainder {remainder};"
                " raise c_bound or max_terms"
            )
        at = bisect.bisect_left(ladder_vals, remainder)
        near = None if kept else _neighbours_within(order, at, budget)
        if near is None:  # the probes failed, in this step or an earlier one
            if kept is None:
                kept = np.flatnonzero(order_arr <= budget).tolist()
            pos = bisect.bisect_left(kept, at)
            near = kept[pos - 1] if pos else None, kept[pos] if pos < len(kept) else None
        lo, pick = near
        if pick is None or lo is not None and (
                (remainder - ladder_vals[lo], order[lo])
                < (ladder_vals[pick] - remainder, order[pick])):
            pick = lo  # the nearer value, ties to the smaller index
        idx, v = order[pick], ladder_vals[pick]
        if abs(remainder - v) >= abs(remainder):
            raise InfeasibleError(
                f"greedy descent stalled at remainder {remainder} with budget {budget}"
            )
        terms.append(idx)
        remainder -= v
    return terms, remainder


def represent_integer(target: int, params: RepresentationParams,
                      table: TauTable) -> Certificate:
    """Write target as a sum of tau values at indices within the budget.

    Strategy: greedy descent on the remainder using the closest tau value
    within the index budget while |remainder| is large, then an exact
    minimum-term finish over tau(1..10) once it drops below DP_THRESHOLD.
    The finisher's coins are the constants TAU_SMALL[1..10], never the
    table's entries, so a damaged table cannot steer or stall it; the
    verifier then judges the result. The descent's sorted ladder is built
    once per table, not per target.
    Zero gets the canonical 33-block certificate so the result is never an
    empty sum.
    """
    budget = index_budget(target, params.c_bound)
    if table.limit < budget:
        raise ValueError(
            f"table covers {table.limit}, index budget for {target} needs {budget}"
        )
    if table.limit < 10:
        raise ValueError("the exact finisher needs tau(1..10); table too small")
    if target == 0:
        # Canonical 33-block zero certificate: a positive term count is kept
        # at the cost of indices up to 105, which the meta bound records.
        indices = list(ZERO_SUM_SIX) * 33
        meta = {
            "term_count": len(indices),
            "max_index": max(indices),
            "max_abs_tau": max(abs(TAU_SMALL[i]) for i in ZERO_SUM_SIX),
            "index_bound": max(budget, MAX_RESIDUE_INDEX),
            "max_terms": params.max_terms,
        }
        return Certificate("integer_sum", target=0, plus=indices, meta=meta)

    terms, remainder = _greedy_descent(target, budget, params.max_terms, table)

    terms.extend(_finish_exact(remainder, *_finisher()))

    if len(terms) > params.max_terms:
        raise InfeasibleError(
            f"representation needs {len(terms)} terms, budget is {params.max_terms}"
        )
    # Finisher indices stay below 11, so this only fires for c_bound choices
    # tight enough to squeeze the budget under the finisher alphabet.
    if max(terms) > budget:
        raise InfeasibleError(
            f"representation uses index {max(terms)} above budget {budget};"
            " raise c_bound"
        )
    meta = {
        "term_count": len(terms),
        "max_index": max(terms),
        "max_abs_tau": max(abs(table.values[n]) for n in set(terms)),
        "index_bound": budget,
        "max_terms": params.max_terms,
    }
    return Certificate("integer_sum", target=target, plus=terms, meta=meta)
