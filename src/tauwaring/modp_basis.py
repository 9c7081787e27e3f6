"""Residue-ring representation machinery for primes p > 23.

Builds witnessed residue sets from prime windows, covers Z_p with eight-fold
sums of pairwise products (Glibichuk-style coverage, realized as a dynamic
program filled in numpy arrays with int32 back-pointers; each level stops
filling once it holds all of Z_p, and the levels stop at the first such one),
and emits three certificate kinds:

  pm32   -- up to 16 plus and 16 minus indices, all coprime to 23!
  sum96  -- a pure sum of at most 96 indices (pm32 pushed through the
            six-term zero-sum identity at index 12)
  sum16  -- a pure sum of at most 16 indices from the half-window sets

Each ModpContext (from build_context for pm32 and sum96, from
build_abc_context for sum16) settles its covering branch once and keeps the
cover of its chosen witnesses and the index bound of its branch; every
emitter walks that cover and finishes through one cap check against
MODP_CAPS. A witness is a residue with its origin, the signed integers whose
tau values give it, so certificates are assembled from witnesses only and
can be re-verified from prime tau values alone.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from .divisor_arith import coprime_to_23_factorial, factor_within, primes_in, primes_upto
from .errors import InfeasibleContextError, InternalCheckError, LemmaViolationError
from .identity_suite import ZERO_SUM_SIX
from .tau_core import TauTable, json_int, json_ints, json_meta, tau_factored

# Largest (plus, minus) term counts of each mod-p certificate kind.
MODP_CAPS = {"pm32": (16, 16), "sum96": (96, 0), "sum16": (16, 0)}

# build_context starts its prime window at WINDOW_START * sqrt(p) and widens it
# by WINDOW_GROWTH until a branch qualifies or the table runs out.
WINDOW_START = 4
WINDOW_GROWTH = 1.6
# sum16 draws its C set from the primes up to min(EPS_CAP, (p - 1) // 2).
EPS_CAP = 50
# ProductSumCover forms its level-1 products this many at a time, which bounds
# the int64 temporaries of that fill (512 kB a chunk) whatever |X||Y| is.
COVER_CHUNK = 1 << 16


def _table_prime(p: int, table: TauTable) -> bool:
    """True iff p is a prime in (23, table.limit^2], settled by trial division
    by the primes up to sqrt(p) <= table.limit, so the table bounds the work;
    the verdict is cached per (p, table.limit)."""
    return _prime_within(p, table.limit)


@lru_cache(maxsize=256)
def _prime_within(p: int, limit: int) -> bool:
    return 23 < p <= limit**2 and factor_within(p, p) == [(p, 1)]


@dataclass(frozen=True)
class WitnessedResidue:
    """A residue with the signed integers whose tau values produce it: origin
    is a tuple of (sign, n) pairs with sum(sign * tau(n)) = residue (mod p)."""

    residue: int
    origin: tuple[tuple[int, int], ...]


def _residue_of(x) -> int:
    return x.residue if isinstance(x, WitnessedResidue) else int(x)


class ProductSumCover:
    """Coverage table for k-fold sums of pairwise products, k = 1..8.

    levels[k-1] is an array of the residues reachable as a sum of exactly k
    products, in the order the fill first reached them. Level 1 takes the
    products x*y row by row (x in xs, y in ys) and keeps the first pair of
    each residue; level k+1 walks level k in that order, and each a claims
    the residues a + t not yet reached, t over level 1 in its order. The
    back-pointers are int32 arrays indexed by residue: for level 1 the flat
    index i*|ys| + j of the pair (xs[i], ys[j]), for each later level the
    last product t, so that a = r - t. A level stops filling as soon as it
    holds all p residues, and the levels stop at the first one equal to Z_p
    (at most 8): from there on every level is Z_p, since r = (r - t0) + t0
    for the fixed product t0 = levels[0][0], so S_8 = Z_p. A residue's walk
    starts at the least level k that holds it and recovers exactly k (x, y)
    pairs whose products sum to it, with no padding: on a 2e4 table the pm32
    cover at p = 499 needs one pair for 490 residues and two for the other 9.
    """

    def __init__(self, p: int, xs, ys):
        if p >= 2**31 or len(xs) * len(ys) >= 2**31:
            raise ValueError(f"cover indices are int32: need p and |X||Y| below 2^31, got p={p}")
        self.p, self.xs, self.ys = p, list(xs), list(ys)
        rx = np.array([_residue_of(x) % p for x in self.xs], dtype=np.int64)
        ry = np.array([_residue_of(y) % p for y in self.ys], dtype=np.int64)
        pair = np.full(p, -1, dtype=np.int32)
        rows, reached = max(1, COVER_CHUNK // max(1, len(ry))), 0
        for i in range(0, len(rx), rows):
            products = (rx[i : i + rows, None] * ry % p).ravel()
            fresh = np.flatnonzero(pair[products] < 0)
            res, first = np.unique(products[fresh], return_index=True)
            pair[res] = fresh[first] + i * len(ry)
            reached += len(res)
            if reached == p:
                break
        # unreached residues (pointer -1) sort first; the rest by first pair
        levels, pointers = [np.argsort(pair)[p - reached :].astype(np.int32)], [pair]
        while len(levels[-1]) < p and len(levels) < 8:
            step = np.full(p, -1, dtype=np.int32)
            claimed, reached = [levels[0][:0]], 0
            for a in levels[-1]:
                r = np.add(levels[0], a, dtype=np.int64)
                r %= p
                new = step[r] < 0
                claimed.append(r[new].astype(np.int32))
                step[claimed[-1]] = levels[0][new]
                reached += len(claimed[-1])
                if reached == p:
                    break
            levels.append(np.concatenate(claimed))
            pointers.append(step)
        self.levels, self._pointers = levels, pointers

    @property
    def covered(self) -> bool:
        return len(self.levels[-1]) == self.p

    def covered_at(self, k: int) -> set[int]:
        """Residues reachable as a sum of exactly k products, 1 <= k <= 8."""
        return set(self.levels[min(k, len(self.levels)) - 1].tolist())

    def _pair(self, t: int) -> tuple:
        i, j = divmod(self._pointers[0].item(t), len(self.ys))
        return self.xs[i], self.ys[j]

    def pairs_for(self, lam: int) -> list[tuple]:
        """The k (x, y) pairs whose products sum to lam, for the least level k
        that holds lam mod p: the products t named by levels k down to 2,
        then the level-1 pair of what is left."""
        p, r = self.p, lam % self.p
        k = next((k for k, step in enumerate(self._pointers, 1) if step.item(r) >= 0), 0)
        if not k:
            raise InfeasibleContextError(f"residue {r} not covered at depth 8")
        out = []
        for step in reversed(self._pointers[1:k]):
            t = step.item(r)
            r = (r - t) % p
            out.append(self._pair(t))
        out.append(self._pair(r))
        return out


def _first_by_residue(items, p: int) -> list:
    """The items with distinct residues mod p, keeping the first of each."""
    first: dict[int, object] = {}
    for x in items:
        first.setdefault(_residue_of(x) % p, x)
    return list(first.values())


def product_set_cover(xs, ys, p: int) -> ProductSumCover:
    """Coverage DP under the |X||Y| > 2p guarantee; raises if S_8 != Z_p.

    Inputs may be witnessed residues or plain integers (synthetic sets);
    duplicates are collapsed before the cardinality precondition is checked.
    """
    uniq_x, uniq_y = _first_by_residue(xs, p), _first_by_residue(ys, p)
    if len(uniq_x) * len(uniq_y) <= 2 * p:
        raise ValueError(
            f"need |X||Y| > 2p, got {len(uniq_x)} * {len(uniq_y)} <= {2 * p}"
        )
    cover = ProductSumCover(p, uniq_x, uniq_y)
    if not cover.covered:
        raise LemmaViolationError(
            f"S_8 covers {len(cover.levels[-1])} of {p} residues despite |X||Y| > 2p"
        )
    return cover


@dataclass(frozen=True)
class WindowPolicy:
    """Branch policy for the prime window (23, hi] used by build_context."""

    branch: str = "auto"  # auto (direct once it qualifies, else pairs) | pairs

    def __post_init__(self):
        if self.branch not in ("auto", "pairs"):
            raise ValueError(f"unknown branch policy {self.branch!r}")


@dataclass
class ModpContext:
    """The witnessed sets of one prime p and the cover they settle.

    window is the prime window the witnesses come from: for build_context the
    (23, hi] that first gave |X||Y| > 2p on the chosen branch, for
    build_abc_context the half window (p // 2, p]. x_set and y_set are that
    branch's witnesses, cover reaches Z_p within eight levels, and every index
    a walk of it emits is at most index_bound.
    """

    p: int
    window: tuple[int, int]
    branch: str  # "direct" or "pairs"; "A-split" or "BxC" for sum16
    x_set: list[WitnessedResidue]
    y_set: list[WitnessedResidue]
    cover: ProductSumCover
    index_bound: int


def _classes_by_tau(classes: dict[int, list[int]], qs, p: int,
                    table: TauTable) -> dict[int, list[int]]:
    """Add the primes qs, ascending, to `classes` (tau(q) mod p -> primes), so
    each class stays sorted; the keys stay in first-seen order."""
    for q in qs:
        classes.setdefault(table.values[q] % p, []).append(q)
    return classes


def _class_witnesses(classes) -> list[WitnessedResidue]:
    """One witness per tau class, its least prime, in residue order."""
    return [WitnessedResidue(r, ((1, classes[r][0]),)) for r in sorted(classes)]


def _direct_sets(classes):
    wits = _class_witnesses(classes)
    half = (len(wits) + 1) // 2
    return wits[:half], wits[half:]


def _pair_sets(classes, p):
    """(X, Y) from the primes of each tau class, taken four at a time in class
    order: (q1, q2) joins J1 and (q3, q4) joins J2, and a class's last
    len % 4 primes are left out. Since tau(q) = tau(q') (mod p) within a
    class, tau(q q') - tau(q^2) = q^11 (mod p); X (from J1) and Y (from J2)
    keep the first pair of each residue q^11, witnessed as q q' minus q^2."""
    xs: dict[int, WitnessedResidue] = {}
    ys: dict[int, WitnessedResidue] = {}
    for r in sorted(classes):
        qs = classes[r]
        for i in range(0, len(qs) - 3, 4):
            for side, q, q2 in ((xs, qs[i], qs[i + 1]), (ys, qs[i + 2], qs[i + 3])):
                res = pow(q, 11, p)
                if res not in side:
                    side[res] = WitnessedResidue(res, ((1, q * q2), (-1, q * q)))
    return list(xs.values()), list(ys.values())


def build_context(p: int, table: TauTable, policy: WindowPolicy | None = None) -> ModpContext:
    """Grow the prime window (23, hi] until one branch reaches |X||Y| > 2p.

    With the class count above 3*sqrt(p) the direct split of tau-value
    classes suffices; otherwise primes are paired within classes and the
    pair images are used. The finished context always carries a coverage
    table that reaches Z_p within eight levels.
    """
    if not _table_prime(p, table):
        raise ValueError(f"p must be a prime in (23, {table.limit}^2], got {p}")
    policy = policy or WindowPolicy()
    cap_hi = table.limit
    hi = min(max(29, WINDOW_START * isqrt(p) + 1), cap_hi)
    primes = primes_upto(cap_hi)  # sieved once; each window is a slice
    seen = bisect_right(primes, 23)
    classes: dict[int, list[int]] = {}
    best = (0, 0)
    while True:
        top = bisect_right(primes, hi)
        _classes_by_tau(classes, primes[seen:top], p, table)
        seen = top
        if policy.branch != "pairs" and len(classes) ** 2 > 9 * p:
            branch, (xs, ys) = "direct", _direct_sets(classes)
        else:
            branch, (xs, ys) = "pairs", _pair_sets(classes, p)
        best = max(best, (len(xs), len(ys)))
        if len(xs) * len(ys) > 2 * p:
            return ModpContext(p=p, window=(23, hi), branch=branch, x_set=xs, y_set=ys,
                               cover=product_set_cover(xs, ys, p),
                               index_bound=hi**4 if branch == "pairs" else hi * hi)
        if hi >= cap_hi:
            raise InfeasibleContextError(
                f"window exhausted at hi={hi} for p={p}; best |X|,|Y| = {best}"
            )
        hi = min(cap_hi, max(hi + 1, int(hi * WINDOW_GROWTH)))


@dataclass
class ModpCertificate:
    """Claimed congruence sum(tau(plus)) - sum(tau(minus)) = lambda (mod p)."""

    kind: str  # a key of MODP_CAPS
    p: int
    lam: int
    plus: list[int]
    minus: list[int]
    meta: dict

    def to_json_dict(self) -> dict:
        def enc(v: int):
            return v if abs(v) < 2**53 else str(v)

        meta = {k: (enc(v) if isinstance(v, int) else v) for k, v in self.meta.items()}
        return {
            "kind": self.kind,
            "p": self.p,
            "lambda": self.lam,
            "plus": [enc(n) for n in self.plus],
            "minus": [enc(n) for n in self.minus],
            "meta": meta,
        }


def modp_certificate_from_json(obj: dict) -> ModpCertificate:
    kind = obj.get("kind")
    if not (isinstance(kind, str) and kind in MODP_CAPS):
        raise ValueError(f"not a mod-p certificate: {kind!r}")
    for field in ("p", "lambda", "plus", "minus"):
        if field not in obj:
            raise ValueError(f"{kind} certificate has no {field!r} field")
    meta = json_meta(obj, ("max_index", "index_bound"))
    if not isinstance(meta.get("counts", {}), dict):
        raise ValueError("certificate field 'meta.counts' must be an object")
    return ModpCertificate(
        kind=kind,
        p=json_int(obj["p"], "p"),
        lam=json_int(obj["lambda"], "lambda"),
        plus=json_ints(obj["plus"], "plus"),
        minus=json_ints(obj["minus"], "minus"),
        meta=meta,
    )


def _walk(kind: str, ctx: ModpContext, lam: int) -> ModpCertificate:
    """The certificate of the given kind for lambda mod p: signed tau indices
    from the pairs the context's cover walk gives, held to its index bound.

    (sum_i s_i tau(n_i)) * (sum_j t_j tau(m_j)) = sum_ij s_i t_j tau(n_i m_j)
    requires gcd(n_i, m_j) = 1 throughout; the context constructions
    guarantee this and it is asserted here.
    """
    lam %= ctx.p
    plus, minus = [], []
    for wx, wy in ctx.cover.pairs_for(lam):
        for s1, n1 in wx.origin:
            for s2, n2 in wy.origin:
                if gcd(n1, n2) != 1:
                    raise InternalCheckError(
                        f"witness indices {n1} and {n2} share a prime factor"
                    )
                (plus if s1 * s2 > 0 else minus).append(n1 * n2)
    return _certificate(kind, ctx.p, lam, plus, minus, ctx.index_bound)


def _certificate(kind: str, p: int, lam: int, plus: list[int], minus: list[int],
                 index_bound: int) -> ModpCertificate:
    """Finish a certificate of any kind: hold its term counts to MODP_CAPS[kind],
    the caps the verifier reads, and record in the meta exactly the fields the
    verifier checks: max_index, counts and index_bound."""
    cap_plus, cap_minus = MODP_CAPS[kind]
    if len(plus) > cap_plus or len(minus) > cap_minus:
        raise InternalCheckError(
            f"{kind} expansion has {len(plus)}+{len(minus)} terms,"
            f" over the {cap_plus}+{cap_minus} cap"
        )
    meta = {"max_index": max(plus + minus),
            "counts": {"plus": len(plus), "minus": len(minus)}, "index_bound": index_bound}
    return ModpCertificate(kind, p, lam, plus, minus, meta)


def represent_pm32(lam: int, ctx: ModpContext, table: TauTable) -> ModpCertificate:
    """Mixed-sign certificate for lambda mod p from at most eight coverage pairs."""
    return _walk("pm32", ctx, lam)


def represent_sum96(lam: int, ctx: ModpContext, table: TauTable) -> ModpCertificate:
    """Pure-sum certificate of at most 96 terms via the index-12 zero-sum block.

    Solves pm32 for lambda * tau(12)^{-1}, then maps plus indices n -> 12n and
    minus indices m -> {27m, 55m, 69m, 90m, 105m}: by the six-term identity
    the five-fold block contributes -tau(12) tau(m), flipping every minus
    term into plus territory. tau(12) = -2^8 3^2 7 23 is invertible mod every
    prime p > 23, the only primes a context admits.
    """
    p = ctx.p
    lam %= p
    tau12 = table.values[12] % p
    base = represent_pm32(lam * pow(tau12, -1, p) % p, ctx, table)
    plus = [12 * n for n in base.plus]
    for m in base.minus:
        plus.extend(k * m for k in ZERO_SUM_SIX[1:])
    return _certificate("sum96", p, lam, plus, [], 105 * ctx.index_bound)


def build_abc_context(p: int, table: TauTable) -> ModpContext:
    """Build the A, B, C sets for p and settle the covering branch once.

    A holds one prime per tau class over (p/2, p] but the most frequent, a0; B
    the squares tau(q^2) = a0^2 - q^11 of its primes q, and C the tau values
    of the primes up to cap and of their squares; the indices are coprime
    across the three sets.
    Two branches are tried in order: A split against itself (when A has two
    witnesses), then B against C. The cardinality bound |X||Y| > 2p
    guarantees coverage when it holds, but at desk scale the small windows
    rarely reach it, so the first branch whose coverage table reaches Z_p
    within eight levels is kept, with its index bound: p^2 for A-split and
    p^2 cap^2 for BxC. On a 2000 table A-split covers every prime in
    (23, 2000] but 29, where BxC does.
    """
    if not _table_prime(p, table):
        raise ValueError(f"p must be a prime in (23, {table.limit}^2], got {p}")
    if table.limit < p:
        raise ValueError(f"table covers {table.limit}, need {p}")
    # C indices are powers of primes below p/2, so they share no prime with
    # the half-window witnesses of A and B.
    cap = min(EPS_CAP, (p - 1) // 2)
    classes = _classes_by_tau({}, primes_in(p // 2, p), p, table)
    a0 = max(classes, key=lambda r: (len(classes[r]), -r))
    a_set = _class_witnesses({r: qs for r, qs in classes.items() if r != a0})
    b_set = _first_by_residue(
        [WitnessedResidue((a0 * a0 - pow(q, 11, p)) % p, ((1, q * q),))
         for q in classes[a0]], p)
    c_set = _first_by_residue(
        [WitnessedResidue(res, ((1, r**e),))
         for r in primes_in(1, cap)
         for e, res in ((1, table.values[r] % p), (2, (table.values[r] ** 2 - r**11) % p))], p)
    half = (len(a_set) + 1) // 2
    sizes = []
    for branch, xs, ys, bound in (("A-split", a_set[:half], a_set[half:], p * p),
                                  ("BxC", b_set, c_set, p * p * cap * cap)):
        if not (xs and ys):  # A-split needs two A witnesses, BxC both sets
            continue
        sizes.append((branch, len(xs), len(ys)))
        cover = ProductSumCover(p, xs, ys)
        if cover.covered:
            return ModpContext(p=p, window=(p // 2, p), branch=branch, x_set=xs, y_set=ys,
                               cover=cover, index_bound=bound)
    raise InfeasibleContextError(f"no branch covered Z_{p}; branch sizes were {sizes}")


def represent_sum16(lam: int, p: int, table: TauTable, *, ctx: ModpContext) -> ModpCertificate:
    """Pure-sum certificate of at most 16 terms for lambda mod p, walked from
    the cover that build_abc_context settled for p."""
    if ctx.p != p:
        raise ValueError(f"context is for p={ctx.p}, not {p}")
    return _walk("sum16", ctx, lam)


def check_modp_certificate(cert: ModpCertificate, table: TauTable) -> tuple[int | None, bool]:
    """Independent re-check: rebuild every tau(n) exactly from prime entries
    (tau_core.tau_factored) and test the congruence mod p plus every cap in the meta.

    Returns (signed tau sum mod p, verdict); the sum is None when the kind or
    term counts are out of bounds, p is not a prime in (23, table.limit^2]
    (settled by the table's primes), or an index exceeds table.limit^5 or has
    a prime factor beyond the table. Emitted indices stay within limit^5: pm32
    within hi^4 <= limit^4, sum96 within 105 hi^4 (no context builds below
    limit 127) and sum16 within p^2 50^2 with p <= limit."""
    p = cert.p
    caps = MODP_CAPS.get(cert.kind)
    if (caps is None or len(cert.plus) > caps[0] or len(cert.minus) > caps[1]
            or not _table_prime(p, table)):
        return None, False
    indices = cert.plus + cert.minus
    taus = [tau_factored(n, table) for n in indices]
    if None in taus:
        return None, False
    recomputed = (sum(taus[: len(cert.plus)]) - sum(taus[len(cert.plus) :])) % p
    meta = cert.meta
    counts = meta.get("counts", {})
    ok = (
        recomputed == cert.lam
        and bool(indices)
        and (cert.kind != "pm32" or all(coprime_to_23_factorial(n) for n in indices))
        and max(indices) <= meta.get("index_bound", 0)
        and meta.get("max_index") == max(indices)
        and counts.get("plus") == len(cert.plus)
        and counts.get("minus") == len(cert.minus)
    )
    return recomputed, ok


def verify_modp_certificate(cert: ModpCertificate, table: TauTable) -> bool:
    """The verdict of check_modp_certificate."""
    return check_modp_certificate(cert, table)[1]


def basis_order_scan(p: int, n_bound: int, table: TauTable) -> int | None:
    """Least k <= 96 with every residue a sum of at most k values tau(n), n <= n_bound."""
    if n_bound > table.limit:
        raise ValueError(f"table covers {table.limit}, need {n_bound}")
    base = sorted({table.values[n] % p for n in range(1, n_bound + 1)})
    # bit r of reach is set iff r is a sum of at most k of the values mod p;
    # adding v rotates the p-bit mask left by v
    full = (1 << p) - 1
    reach = sum(1 << v for v in base)
    for k in range(1, 97):
        if reach == full:
            return k
        grown = reach
        for v in base:
            grown |= (reach << v | reach >> (p - v)) & full
            if grown == full:
                break
        reach = grown
    return None
