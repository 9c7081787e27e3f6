import contextlib
import hashlib
import json
import random
import time
from collections import Counter
from itertools import combinations_with_replacement
from math import gcd, isqrt

import pytest

from tauwaring.divisor_arith import coprime_to_23_factorial, factor_within, primes_in
from tauwaring.errors import InfeasibleContextError, InternalCheckError, LemmaViolationError
from tauwaring import cli, modp_basis, tau_core
from tauwaring.modp_basis import (
    EPS_CAP,
    ModpCertificate,
    ProductSumCover,
    WindowPolicy,
    WitnessedResidue,
    basis_order_scan,
    build_abc_context,
    build_context,
    check_modp_certificate,
    modp_certificate_from_json,
    product_set_cover,
    represent_pm32,
    represent_sum16,
    represent_sum96,
    verify_modp_certificate,
)
from tauwaring.tau_core import TauTable, build_tau_table_series, save_table, tau_prime_power


def recompute_witnessed(w, table, p):
    total = sum(s * tau_of(n, table) for s, n in w.origin)
    return total % p


def tau_of(n, table):
    """Recompute tau(n) from scratch by trial factorization (test oracle)."""
    out = 1
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out *= tau_prime_power(table.tau(d), d, e)
        d += 1
    if m > 1:
        out *= tau_prime_power(table.tau(m), m, 1)
    return out


# ---------------------------------------------------------------- coverage DP


def test_cover_matches_bruteforce_p7():
    p = 7
    xs, ys = [1, 2, 3, 4], [1, 2, 3, 5]
    cover = product_set_cover(xs, ys, p)
    products = sorted({x * y % p for x in xs for y in ys})
    brute = {sum(c) % p for c in combinations_with_replacement(products, 8)}
    assert cover.covered
    assert set(cover.covered_at(8)) == brute == set(range(p))
    # intermediate depths agree with exact-k brute force too
    for k in (1, 2, 3):
        exact = {sum(c) % p for c in combinations_with_replacement(products, k)}
        assert cover.covered_at(k) == exact


def least_level(lam, exact):
    """Least k with lam in exact[k-1], the brute-force sums of exactly k products."""
    return next(k for k, level in enumerate(exact, 1) if lam in level)


def test_cover_witnesses_sum_correctly():
    p, xs, ys = 7, [1, 2, 3, 4], [1, 2, 3, 5]
    cover = product_set_cover(xs, ys, p)
    exact = exact_sumsets({x * y % p for x in xs for y in ys}, p)
    for lam in range(p):
        pairs = cover.pairs_for(lam)
        assert len(pairs) == least_level(lam, exact)
        assert sum(x * y for x, y in pairs) % p == lam


def test_cover_constant_tuple():
    # eight copies of one product: 8xy must be covered for any fixed x, y
    p = 7
    cover = product_set_cover([1, 2, 3, 4], [1, 2, 3, 5], p)
    for x in (1, 2, 3, 4):
        for y in (1, 2, 3, 5):
            assert (8 * x * y) % p in cover.covered_at(8)


def test_cover_precondition():
    with pytest.raises(ValueError, match="2p"):
        product_set_cover([1, 2], [1, 2], 7)


def test_cover_duplicates_collapse():
    with pytest.raises(ValueError):
        product_set_cover([1, 1, 2, 2, 3, 3], [1, 2], 7)


def test_cover_always_complete_when_precondition_holds():
    # the coverage guarantee, exercised over every qualifying split of small
    # synthetic sets: no |X||Y| > 2p input may leave S_8 short of Z_p
    import itertools

    for p in (5, 7, 11):
        universe = list(range(p))
        for xsz in range(1, p + 1):
            ysz = 2 * p // xsz + 1
            if ysz > p:
                continue
            xs = universe[:xsz]
            ys = universe[-ysz:]
            assert product_set_cover(xs, ys, p).covered


def exact_sumsets(products, p):
    """Residues that are sums of exactly k products, k = 1..8 (test oracle)."""
    out = [set(products)]
    for _ in range(7):
        out.append({(a + t) % p for a in out[-1] for t in products})
    return out


def check_shallow_cover(cover, p, products, product_of):
    """Levels stop at the first full one, and each walk is exact and starts at
    the least level that holds its residue."""
    assert cover.covered
    assert all(len(level) < p for level in cover.levels[:-1])
    exact = exact_sumsets(products, p)
    for k in range(1, 9):
        assert cover.covered_at(k) == exact[k - 1], k
    for lam in range(p):
        pairs = cover.pairs_for(lam)
        assert len(pairs) == least_level(lam, exact)
        assert sum(product_of(x, y) for x, y in pairs) % p == lam


@pytest.mark.parametrize("p", [29, 101, 499])
def test_context_cover_stops_at_first_full_level(table_2k, p):
    ctx = build_context(p, table_2k)
    assert len(ctx.cover.levels) < 8
    products = {wx.residue * wy.residue % p for wx in ctx.x_set for wy in ctx.y_set}
    check_shallow_cover(ctx.cover, p, products, lambda wx, wy: wx.residue * wy.residue)


def test_synthetic_cover_fills_at_a_middle_level():
    # exact-k sums of 1..30 span k..30k, which first wraps Z_101 at k = 4
    p, xs, ys = 101, [1], list(range(1, 31))
    cover = ProductSumCover(p, xs, ys)
    assert len(cover.levels) == 4
    check_shallow_cover(cover, p, {x * y % p for x in xs for y in ys}, lambda x, y: x * y)


class DictCover:
    """The dict-of-tuples fill that the array fill replaced (test reference):
    first claim wins, each level walks the previous one in claim order."""

    def __init__(self, p, xs, ys):
        self.p = p
        self.s1 = {}
        for wx in xs:
            for wy in ys:
                self.s1.setdefault(modp_basis._residue_of(wx) * modp_basis._residue_of(wy) % p,
                                   (wx, wy))
        self.levels = [{r: None for r in self.s1}]
        while len(self.levels[-1]) < p and len(self.levels) < 8:
            cur = {}
            for a in self.levels[-1]:
                for t in self.s1:
                    cur.setdefault((a + t) % p, (a, t))
            self.levels.append(cur)

    def covered_at(self, k):
        return set(self.levels[min(k, len(self.levels)) - 1])

    def pairs_for(self, lam):
        r = lam % self.p
        k = next(k for k, level in enumerate(self.levels, 1) if r in level)
        out = []
        for level in reversed(self.levels[1:k]):
            r, step = level[r]
            out.append(self.s1[step])
        return out + [self.s1[r]]


def assert_same_cover(cover, p, xs, ys):
    ref = DictCover(p, xs, ys)
    assert [len(level) for level in cover.levels] == [len(level) for level in ref.levels]
    assert [level.tolist() for level in cover.levels] == [list(level) for level in ref.levels]
    for k in range(1, 9):
        assert cover.covered_at(k) == ref.covered_at(k), k
    for lam in range(p):
        assert cover.pairs_for(lam) == ref.pairs_for(lam), lam


@pytest.mark.parametrize("p,branch", [(29, "auto"), (101, "auto"), (499, "auto"),
                                      (941, "auto"), (389, "pairs")])
def test_array_cover_matches_dict_fill(table_20k, p, branch):
    ctx = build_context(p, table_20k, WindowPolicy(branch=branch))
    assert ctx.branch == ("pairs" if branch == "pairs" else "direct")
    assert_same_cover(ctx.cover, p, ctx.x_set, ctx.y_set)
    if branch == "auto":
        abc = build_abc_context(p, table_20k)
        assert_same_cover(abc.cover, p, abc.cover.xs, abc.cover.ys)


def test_array_cover_matches_dict_fill_at_a_middle_level():
    p, xs, ys = 101, [1], list(range(1, 31))
    assert_same_cover(ProductSumCover(p, xs, ys), p, xs, ys)


def test_array_cover_level_one_spans_chunks(monkeypatch):
    # chunks of 64 products hold three rows of ys; rows that add nothing new
    # and the break once level 1 equals Z_p both come up
    monkeypatch.setattr(modp_basis, "COVER_CHUNK", 64)
    for p, xs, ys in ((101, range(1, 40), range(3, 24)), (29, range(29), range(29))):
        assert_same_cover(ProductSumCover(p, list(xs), list(ys)), p, list(xs), list(ys))


def test_walk_starts_at_the_least_level_of_a_partial_cover():
    # exact-k sums of {1, 2} are {k..2k}: eight levels that miss Z_101
    p = 101
    cover = ProductSumCover(p, [1], [1, 2])
    assert len(cover.levels) == 8 and not cover.covered
    assert cover.pairs_for(3) == [(1, 2), (1, 1)]  # level 2 claims 3 from a = 1 with t = 2
    assert cover.pairs_for(16) == [(1, 2)] * 8
    exact = exact_sumsets({1, 2}, p)
    missed = {lam for lam in range(p) if not any(lam in level for level in exact)}
    assert {17, 50} <= missed
    for lam in range(p):
        if lam in missed:
            with pytest.raises(InfeasibleContextError,
                               match=f"^residue {lam} not covered at depth 8$"):
                cover.pairs_for(lam)
        else:
            pairs = cover.pairs_for(lam)
            assert len(pairs) == least_level(lam, exact)
            assert sum(x * y for x, y in pairs) % p == lam


def test_cover_refuses_what_int32_cannot_index():
    with pytest.raises(ValueError, match="int32"):
        ProductSumCover(2**31 + 11, [1], [1])


@pytest.mark.parametrize("p,table", [(10007, "table_20k"), (99991, "table_100k")])
def test_cover_levels_stop_filling_at_z_p(request, p, table):
    # level 1 holds ~97% of Z_p, so level 2 is full after a few a's; the dict
    # fill walked all of level 1 (~10 s at 10007), and so does the array fill
    # without its in-level stop (far over 1 s at 99991)
    table = request.getfixturevalue(table)
    t0 = time.perf_counter()
    ctx = build_context(p, table)
    assert time.perf_counter() - t0 < 1
    assert len(ctx.cover.levels[-1]) == p


def test_cover_lemma_violation_is_reported(monkeypatch):
    # unreachable with honest inputs; force the defensive path
    monkeypatch.setattr(ProductSumCover, "covered", property(lambda self: False))
    with pytest.raises(LemmaViolationError):
        product_set_cover([1, 2, 3, 4], [1, 2, 3, 5], 7)


# ---------------------------------------------------------------- contexts


def test_build_context_rejects_bad_p(table_2k):
    with pytest.raises(ValueError):
        build_context(2, table_2k)
    with pytest.raises(ValueError):
        build_context(24, table_2k)
    with pytest.raises(ValueError):
        build_context(23, table_2k)


def test_context_builders_settle_p_with_table_primes(table_2k):
    # trial division up to sqrt(2^61 - 1) would not finish; the table bound answers at once
    for build in (build_context, build_abc_context):
        t0 = time.perf_counter()
        with pytest.raises(ValueError):
            build(2**61 - 1, table_2k)
        assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize("limit", [5, 6, 23, 200])
def test_table_prime_matches_trial_division(table_2k, limit):
    table = TauTable(limit, table_2k.values[: limit + 1])
    primes = primes_in(1, limit)
    for p in range(-3, limit * limit + 50):
        want = 23 < p <= limit * limit and all(p % q for q in primes if q * q <= p)
        assert modp_basis._table_prime(p, table) == want, p


def test_build_context_direct(table_2k):
    ctx = build_context(29, table_2k)
    assert ctx.branch == "direct"
    assert len(ctx.x_set) * len(ctx.y_set) > 58
    assert ctx.cover.covered
    for w in ctx.x_set + ctx.y_set:
        assert recompute_witnessed(w, table_2k, 29) == w.residue
    x_res = {w.residue for w in ctx.x_set}
    y_res = {w.residue for w in ctx.y_set}
    assert not x_res & y_res


def test_build_context_pairs_forced(table_2k):
    p = 29
    ctx = build_context(p, table_2k, WindowPolicy(branch="pairs"))
    assert ctx.branch == "pairs"
    used = set()
    for w in ctx.x_set + ctx.y_set:
        q = isqrt(w.origin[1][1])
        q2 = w.origin[0][1] // q
        assert w.origin == ((1, q * q2), (-1, q * q))
        assert q != q2
        assert q not in used and q2 not in used
        used.update((q, q2))
        assert table_2k.tau(q) % p == table_2k.tau(q2) % p
        assert w.residue == pow(q, 11, p)
        assert recompute_witnessed(w, table_2k, p) == w.residue
    assert len(ctx.x_set) * len(ctx.y_set) > 2 * p


@pytest.mark.parametrize("branch", ["direct", "Pairs", ""])
def test_window_policy_takes_auto_or_pairs(branch):
    with pytest.raises(ValueError, match="unknown branch policy"):
        WindowPolicy(branch=branch)


def test_build_context_window_exhaustion():
    with pytest.raises(InfeasibleContextError):
        build_context(29, build_tau_table_series(60), WindowPolicy(branch="pairs"))


# ---------------------------------------------------------------- pm32 / sum96


def test_pm32_full_sweep_p29(table_2k):
    ctx = build_context(29, table_2k)
    for lam in range(29):
        cert = represent_pm32(lam, ctx, table_2k)
        assert verify_modp_certificate(cert, table_2k), lam
        assert len(cert.plus) <= 16 and len(cert.minus) <= 16
        assert all(coprime_to_23_factorial(n) for n in cert.plus + cert.minus)


def test_pm32_direct_branch_is_pure(table_2k):
    ctx = build_context(29, table_2k)
    assert ctx.branch == "direct"
    cert = represent_pm32(7, ctx, table_2k)
    assert cert.minus == []
    assert len(cert.plus) <= 8
    hi = ctx.window[1]
    assert max(cert.plus) <= hi * hi


def test_pm32_pairs_branch_expansion(table_2k):
    p = 29
    ctx = build_context(p, table_2k, WindowPolicy(branch="pairs"))
    products = {wx.residue * wy.residue % p for wx in ctx.x_set for wy in ctx.y_set}
    k = least_level(11, exact_sumsets(products, p))
    cert = represent_pm32(11, ctx, table_2k)
    # each pair of (q q' - q^2) witnesses expands to two plus and two minus terms
    assert len(cert.plus) == len(cert.minus) == 2 * k
    assert verify_modp_certificate(cert, table_2k)
    assert max(cert.plus + cert.minus) <= ctx.window[1] ** 4


def test_pm32_tamper_detected(table_2k):
    ctx = build_context(29, table_2k)
    cert = represent_pm32(3, ctx, table_2k)
    cert.lam = (cert.lam + 1) % 29
    assert not verify_modp_certificate(cert, table_2k)


def test_pm32_index_tamper_detected(table_2k):
    ctx = build_context(29, table_2k)
    cert = represent_pm32(3, ctx, table_2k)
    cert.plus[0] *= 5  # violates the 23! coprimality condition
    cert.meta["max_index"] = max(cert.plus + cert.minus)
    assert not verify_modp_certificate(cert, table_2k)


def test_sum96_sweep_p29(table_2k):
    ctx = build_context(29, table_2k)
    for lam in range(29):
        cert = represent_sum96(lam, ctx, table_2k)
        assert verify_modp_certificate(cert, table_2k), lam
        assert cert.minus == [] and len(cert.plus) <= 96


def test_sum96_block_identity(table_2k):
    # five-fold block at a minus index m contributes -tau(12) tau(m)
    m = 29 * 31
    block = sum(tau_of(k * m, table_2k) for k in (27, 55, 69, 90, 105))
    assert block == -table_2k.tau(12) * tau_of(m, table_2k)


def test_sum96_unsupported_modulus(table_2k):
    # tau(12) = -2^8 3^2 7 23 is invertible mod every prime a context admits
    for p in (2, 3, 7, 23):
        with pytest.raises(ValueError):
            build_context(p, table_2k)


# ---------------------------------------------------------------- abc / sum16


def test_abc_context_p29(table_2k):
    p = 29
    ctx = build_abc_context(p, table_2k)
    assert ctx.branch == "BxC" and ctx.cover.xs and ctx.cover.ys
    assert ctx.window == (p // 2, p)
    assert (ctx.x_set, ctx.y_set) == (ctx.cover.xs, ctx.cover.ys)
    # X = B: squares of primes q in (p/2, p] that share one tau class a0
    qs = [isqrt(w.origin[0][1]) for w in ctx.cover.xs]
    a0s = {table_2k.tau(q) % p for q in qs}
    assert len(a0s) == 1
    a0 = a0s.pop()
    for w, q in zip(ctx.cover.xs, qs):
        assert w.origin == ((1, q * q),) and q in primes_in(p // 2, p)
        assert w.residue == (a0 * a0 - pow(q, 11, p)) % p
        assert recompute_witnessed(w, table_2k, p) == w.residue
    # Y = C: small primes r <= cap < p/2 and their squares
    cap = min(EPS_CAP, (p - 1) // 2)
    assert cap < p / 2
    assert ctx.index_bound == p * p * cap * cap
    small = primes_in(1, cap)
    for w in ctx.cover.ys:
        assert any(w.origin == ((1, r**e),) for r in small for e in (1, 2))
        assert recompute_witnessed(w, table_2k, p) == w.residue


def test_abc_context_a_split_p101(table_2k):
    p = 101
    ctx = build_abc_context(p, table_2k)
    assert ctx.branch == "A-split"
    assert ctx.window == (p // 2, p)
    assert (ctx.x_set, ctx.y_set) == (ctx.cover.xs, ctx.cover.ys)
    window = primes_in(p // 2, p)
    classes = Counter(table_2k.tau(q) % p for q in window)
    a0 = max(classes, key=lambda r: (classes[r], -r))
    residues = []
    for w in ctx.cover.xs + ctx.cover.ys:
        ((sign, q),) = w.origin
        assert sign == 1 and q in window
        assert recompute_witnessed(w, table_2k, p) == w.residue
        residues.append(w.residue)
    # one witness per tau class of the window, except the most frequent class
    assert sorted(residues) == sorted(set(classes) - {a0})


def test_sum16_sweep_p29(table_2k):
    ctx = build_abc_context(29, table_2k)
    assert ctx.branch in ("A-split", "BxC")
    for lam in range(29):
        cert = represent_sum16(lam, 29, table_2k, ctx=ctx)
        assert verify_modp_certificate(cert, table_2k), lam
        assert cert.minus == [] and len(cert.plus) <= 16
        assert max(cert.plus) <= cert.meta["index_bound"] == ctx.index_bound
        assert set(cert.meta) == {"max_index", "counts", "index_bound"}


def test_sum16_bad_p(table_2k):
    # the refusal comes from the context build, which represent_sum16 needs
    with pytest.raises(ValueError):
        build_abc_context(21, table_2k)


def test_sum16_refuses_a_context_for_another_prime(table_2k):
    with pytest.raises(ValueError, match="p=29"):
        represent_sum16(50, 101, table_2k, ctx=build_abc_context(29, table_2k))


def test_sum16_walks_the_context_cover(table_2k, monkeypatch):
    ctx = build_abc_context(101, table_2k)
    built = []

    class CountingCover(ProductSumCover):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(modp_basis, "ProductSumCover", CountingCover)
    for lam in range(101):
        assert represent_sum16(lam, 101, table_2k, ctx=ctx).lam == lam
    assert built == []


def test_abc_context_branch_at_every_prime_below_2000(table_2k):
    # A-split at every prime in (23, 2000] but 29, where BxC covers; a prime
    # that ever needed a third branch would fail here first.
    branches = {p: build_abc_context(p, table_2k).branch for p in primes_in(24, 2000)}
    assert len(branches) == 294
    assert {p: b for p, b in branches.items() if b != "A-split"} == {29: "BxC"}


def test_abc_context_reports_uncovered_branches(table_2k, monkeypatch):
    monkeypatch.setattr(ProductSumCover, "covered", property(lambda self: False))
    with pytest.raises(InfeasibleContextError, match="no branch covered Z_29; branch sizes"):
        build_abc_context(29, table_2k)


def test_abc_context_skips_a_split_with_one_a_witness(monkeypatch):
    # tau classes over the primes in (14, 29] are {1: [17, 19, 23], 2: [29]},
    # so A keeps the one witness 29 and only BxC is tried.
    values = [0] + [1] * 200
    values[29] = 2
    fake = TauTable(200, values, "series")
    assert build_abc_context(29, fake).branch == "BxC"
    monkeypatch.setattr(ProductSumCover, "covered", property(lambda self: False))
    with pytest.raises(InfeasibleContextError, match=r"sizes were \[\('BxC', 3, 7\)\]$"):
        build_abc_context(29, fake)


def test_abc_degenerate_context(monkeypatch):
    # With tau = 1 throughout there is one tau class over (14, 29], so A has
    # no witness and B four; the context settles on BxC instead of refusing.
    fake = TauTable(200, [0] + [1] * 200, "series")
    assert build_abc_context(29, fake).branch == "BxC"
    monkeypatch.setattr(ProductSumCover, "covered", property(lambda self: False))
    with pytest.raises(InfeasibleContextError, match=r"sizes were \[\('BxC', 4, 7\)\]$"):
        build_abc_context(29, fake)


def test_certificate_finisher_holds_every_cap():
    for kind, (cap_plus, cap_minus) in modp_basis.MODP_CAPS.items():
        with pytest.raises(InternalCheckError):
            modp_basis._certificate(kind, 29, 0, [31] * (cap_plus + 1), [], 10**6)
        with pytest.raises(InternalCheckError):
            modp_basis._certificate(kind, 29, 0, [31], [37] * (cap_minus + 1), 10**6)
        cert = modp_basis._certificate(kind, 29, 0, [31] * cap_plus, [37] * cap_minus, 10**6)
        assert cert.meta == {"max_index": 37 if cap_minus else 31,
                             "counts": {"plus": cap_plus, "minus": cap_minus},
                             "index_bound": 10**6}


def certificates_29_101(table, branch, finish=lambda cert, ctx: cert):
    """pm32, sum96 and (on the auto branch) sum16 for every lambda at p = 29 and
    101, in a fixed order, each passed with its context through finish."""
    for p in (29, 101):
        ctx = build_context(p, table, WindowPolicy(branch=branch))
        abc = build_abc_context(p, table) if branch == "auto" else None
        for lam in range(p):
            yield finish(represent_pm32(lam, ctx, table), ctx)
            yield finish(represent_sum96(lam, ctx, table), ctx)
            if abc:
                yield finish(represent_sum16(lam, p, table, ctx=abc), abc)


TAU_12 = -370944  # tau(12) = -2^8 3^2 7 23


def with_old_meta(cert, ctx):
    """The certificate with the meta fields that no verifier reads written back
    as the emitters once wrote them (test reference): pm32 and sum96 carried
    the branch, the window and glibichuk=True, sum96 also lambda_star =
    lambda * tau(12)^-1 mod p; sum16 carried the branch, its bound formula,
    eps_cap and whether |X||Y| > 2p guaranteed its cover."""
    old = {"branch": ctx.branch}
    if cert.kind == "sum16":
        p, xs, ys = ctx.p, ctx.cover.xs, ctx.cover.ys
        old.update(bound_formula="p^2" if ctx.branch == "A-split" else "p^(2+eps)",
                   eps_cap=min(EPS_CAP, (p - 1) // 2), glibichuk=len(xs) * len(ys) > 2 * p)
    else:
        old.update(window=list(ctx.window), glibichuk=True)
    if cert.kind == "sum96":
        old["lambda_star"] = cert.lam * pow(TAU_12, -1, cert.p) % cert.p
    return ModpCertificate(cert.kind, cert.p, cert.lam, cert.plus, cert.minus,
                           {**cert.meta, **old})


def certificate_digest(certs):
    """sha256 over the sorted-key JSON lines of the certificates."""
    digest = hashlib.sha256()
    for cert in certs:
        digest.update((json.dumps(cert.to_json_dict(), sort_keys=True) + "\n").encode())
    return digest.hexdigest()


# Certificate bytes of every lambda at p = 29 and 101 on the 2000-entry table,
# each walked from the least cover level that holds it, with the meta holding
# max_index, counts and index_bound only. The auto branch is direct at 29 and
# 101, so the pairs branch needs its own pin.
CERT_DIGEST_29_101 = "6a1e06557d67e7f4a4571fb64cdd0fa93e8041fe483fa6dc6ab1fa6485366f19"
CERT_DIGEST_PAIRS_29_101 = "16d2ca585edc5f378de5b0d00d9d986b62967af4f8e56663d8cefdc420dfdc5e"
# The same certificates as the walk emitted them when it padded every residue
# to eight pairs with copies of t0 = levels[0][0] (see padded_pairs).
PADDED_DIGEST_29_101 = "394d40e87d3c59a215d467a507ff98cc112143baa7e3ec8fd78cd0619fa27212"
PADDED_DIGEST_PAIRS_29_101 = "b7bd6ad5e49b7c6d4ea2a5f5327fde7419cf50fa9b0974fc1b17eeb4326a7db0"
# The bytes of each set above with the meta of with_old_meta, as emitted before
# the meta was cut to the fields the verifier checks.
OLD_META_DIGEST_29_101 = "899f9eab9b658fbb65a1a76d33791ad93d3b1b64562b035fff42bebdaf52cab3"
OLD_META_DIGEST_PAIRS_29_101 = "c3f810ca95b4191704795e324c84f47701d55b0c12d3190e7bf527768181b6a9"
OLD_META_PADDED_DIGEST_29_101 = "82a70353ae099a6349032d53c027e16a0aa23434430f87d21a6726c89cccc7c5"
OLD_META_PADDED_DIGEST_PAIRS_29_101 = (
    "5f1e8cee90711a51f6f65681845b5b24a3841d73d64ba2d9774b4c707fd2cf32")


def test_modp_certificates_are_byte_identical(table_2k):
    assert certificate_digest(certificates_29_101(table_2k, "auto")) == CERT_DIGEST_29_101


def test_pairs_branch_certificates_are_byte_identical(table_2k):
    assert certificate_digest(certificates_29_101(table_2k, "pairs")) == CERT_DIGEST_PAIRS_29_101


def check_lines(capsys, paths, table_path):
    """`tauwaring check` over the files in one call: (exit code, stdout lines)."""
    code = cli.main(["check", *map(str, paths), "--table", str(table_path)])
    return code, capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("branch,new,old", [
    ("auto", CERT_DIGEST_29_101, OLD_META_DIGEST_29_101),
    ("pairs", CERT_DIGEST_PAIRS_29_101, OLD_META_DIGEST_PAIRS_29_101)])
def test_old_meta_certificates_check_the_same(table_2k, tmp_path, capsys, branch, new, old):
    certs = list(certificates_29_101(table_2k, branch))
    twins = list(certificates_29_101(table_2k, branch, with_old_meta))
    assert certificate_digest(certs) == new
    # with_old_meta reproduces the bytes emitted before the meta was cut
    assert certificate_digest(twins) == old
    table_path = tmp_path / "table.txt"
    save_table(table_path, table_2k)
    files = {"new": [], "old": []}
    for i, (cert, twin) in enumerate(zip(certs, twins, strict=True)):
        assert set(twin.meta) - set(cert.meta) and twin.meta.items() >= cert.meta.items()
        back = modp_certificate_from_json(json.loads(json.dumps(twin.to_json_dict())))
        assert back.meta == twin.meta
        assert check_modp_certificate(back, table_2k) == check_modp_certificate(
            cert, table_2k) == (cert.lam, True)
        for side, c in (("new", cert), ("old", twin)):
            for moved in (0, 1):  # as emitted, and with lambda moved by one
                obj = {**c.to_json_dict(), "lambda": (c.lam + moved) % c.p}
                files[side].append(tmp_path / f"{side}-{i}-{moved}.json")
                files[side][-1].write_text(json.dumps(obj))
    new_code, new_lines = check_lines(capsys, files["new"], table_path)
    assert check_lines(capsys, files["old"], table_path) == (new_code, new_lines)
    n = len(certs)
    assert new_code == 1
    assert [line.endswith("ok=True") for line in new_lines[:-1]] == [True, False] * n
    assert new_lines[-1] == f"CHECKED files={2 * n} ok={n} failed={n} invalid=0"


def padded_pairs(cover, lam):
    """The eight-pair walk (test reference): copies of the pair of t0 =
    levels[0][0], then the walk from the last level down."""
    p, pad = cover.p, 8 - len(cover.levels)
    t0 = cover.levels[0].item(0)
    r = (lam - pad * t0) % p
    out = [cover._pair(t0)] * pad
    for step in reversed(cover._pointers[1:]):
        t = step.item(r)
        r = (r - t) % p
        out.append(cover._pair(t))
    return out + [cover._pair(r)]


@pytest.mark.parametrize("branch,digest", [("auto", OLD_META_PADDED_DIGEST_29_101),
                                           ("pairs", OLD_META_PADDED_DIGEST_PAIRS_29_101)])
def test_padded_walk_certificates_still_verify(table_2k, monkeypatch, branch, digest):
    certs = list(certificates_29_101(table_2k, branch))
    monkeypatch.setattr(ProductSumCover, "pairs_for", padded_pairs)
    padded = list(certificates_29_101(table_2k, branch))
    assert certificate_digest(padded) == {"auto": PADDED_DIGEST_29_101,
                                          "pairs": PADDED_DIGEST_PAIRS_29_101}[branch]
    # with the old meta, the reference reproduces the padded walk's bytes exactly
    assert certificate_digest(certificates_29_101(table_2k, branch, with_old_meta)) == digest
    for cert, twin in zip(certs, padded, strict=True):
        assert (cert.kind, cert.p, cert.lam) == (twin.kind, twin.p, twin.lam)
        assert verify_modp_certificate(twin, table_2k), (twin.kind, twin.p, twin.lam)
        assert verify_modp_certificate(cert, table_2k), (cert.kind, cert.p, cert.lam)
        assert len(cert.plus) + len(cert.minus) <= len(twin.plus) + len(twin.minus)


# ---------------------------------------------------------------- verifier


@pytest.mark.parametrize("p,branch", [(389, "pairs"), (499, "auto")])
def test_verifier_factors_each_index_once_per_table(table_20k, monkeypatch, p, branch):
    table = TauTable(table_20k.limit, list(table_20k.values))
    ctx = build_context(p, table, WindowPolicy(branch=branch))
    certs = [represent(lam, ctx, table) for lam in range(p)
             for represent in (represent_pm32, represent_sum96)]
    factored = Counter()

    def counting_factor_within(n, limit):
        factored[n] += 1
        return factor_within(n, limit)

    monkeypatch.setattr(tau_core, "factor_within", counting_factor_within)
    assert all(verify_modp_certificate(cert, table) for cert in certs)
    distinct = {n for cert in certs for n in cert.plus + cert.minus}
    assert factored.keys() == distinct
    assert set(factored.values()) == {1}


def test_verifier_rejects_wrong_kind(table_2k):
    cert = ModpCertificate("pm99", 29, 0, [29 * 31], [], {"index_bound": 10**6})
    assert not verify_modp_certificate(cert, table_2k)


def test_verifier_rejects_cap_overflow(table_2k):
    cert = ModpCertificate(
        "sum16", 29, 0, [29] * 17, [],
        {"index_bound": 10**6, "max_index": 29, "counts": {"plus": 17, "minus": 0}},
    )
    assert not verify_modp_certificate(cert, table_2k)


def test_verifier_rejects_index_above_bound(table_2k):
    ctx = build_context(29, table_2k)
    cert = represent_pm32(3, ctx, table_2k)
    cert.meta["index_bound"] = 1
    assert not verify_modp_certificate(cert, table_2k)


def test_verifier_settles_p_with_table_primes(table_2k):
    def cert(p):
        counts = {"plus": 1, "minus": 0}
        return ModpCertificate("sum16", p, 1, [1], [],
                               {"index_bound": 1, "max_index": 1, "counts": counts})

    def head(limit):
        return TauTable(limit, table_2k.values[: limit + 1])

    assert verify_modp_certificate(cert(29), head(6))  # 29 <= 6^2
    assert not verify_modp_certificate(cert(29), head(5))  # 29 > 5^2
    assert verify_modp_certificate(cert(1_000_003), table_2k)  # prime above the table
    assert not verify_modp_certificate(cert(31 * 37), table_2k)
    t0 = time.perf_counter()
    # trial division up to sqrt(p) would not finish; the table bound answers at once
    assert not verify_modp_certificate(cert(2**61 - 1), table_2k)
    assert time.perf_counter() - t0 < 0.1


def test_emitted_indices_stay_within_limit_to_the_fifth(table_2k):
    # The verifier refuses any index above limit^5, so no emitter may write
    # one. Every context that builds at a prime in (23, min(limit^2, 3000)]
    # emits once; the forced-pairs branch first builds near limit 473.
    kinds = set()
    for limit in (127, 150, 200, 400, 600):
        table = TauTable(limit, table_2k.values[: limit + 1])
        for p in primes_in(23, min(limit**2, 3000)):
            emitted = []
            for branch in ("auto", "pairs"):
                with contextlib.suppress(InfeasibleContextError):
                    ctx = build_context(p, table, WindowPolicy(branch=branch))
                    emitted += [(ctx.branch, represent(0, ctx, table))
                                for represent in (represent_pm32, represent_sum96)]
            if p <= limit:
                with contextlib.suppress(InfeasibleContextError):
                    abc = build_abc_context(p, table)
                    emitted.append((abc.branch, represent_sum16(0, p, table, ctx=abc)))
            for branch, cert in emitted:
                kinds.add((cert.kind, branch))
                assert max(cert.plus + cert.minus) <= cert.meta["index_bound"] <= limit**5
    assert kinds == {(kind, branch) for kind in ("pm32", "sum96")
                     for branch in ("direct", "pairs")} | {("sum16", "A-split"),
                                                           ("sum16", "BxC")}


def test_no_pm32_context_builds_below_limit_127(table_2k):
    # Below 127 the window (23, limit] holds at most 21 primes, too few for
    # either branch at any prime; sum96's bound 105 hi^4 <= limit^5 needs
    # limit >= 105.
    for limit in range(6, 127):
        table = TauTable(limit, table_2k.values[: limit + 1])
        for p in primes_in(23, min(limit**2, 3000)):
            for branch in ("auto", "pairs"):
                with pytest.raises(InfeasibleContextError):
                    build_context(p, table, WindowPolicy(branch=branch))


def test_check_refuses_non_smooth_indices_above_limit_to_the_fifth(table_100k):
    # 96 random odd 14000-bit indices: each is refused before any trial
    # division, so the check costs nothing that grows with the index.
    rng = random.Random(26)
    indices = [rng.getrandbits(14000) | 1 << 13999 | 1 for _ in range(96)]
    cert = ModpCertificate("sum96", 99991, 5, indices, [],
                           {"index_bound": max(indices), "max_index": max(indices),
                            "counts": {"plus": 96, "minus": 0}})
    fresh = TauTable(table_100k.limit, table_100k.values)
    t0 = time.perf_counter()
    assert check_modp_certificate(cert, fresh) == (None, False)
    assert time.perf_counter() - t0 < 0.5


def test_modp_json_roundtrip(table_2k):
    ctx = build_context(31, table_2k)
    cert = represent_sum96(17, ctx, table_2k)
    back = modp_certificate_from_json(cert.to_json_dict())
    assert back.p == cert.p and back.lam == cert.lam
    assert back.plus == cert.plus and back.minus == cert.minus
    assert verify_modp_certificate(back, table_2k)


@pytest.mark.parametrize("kind", ["pm99", None, ["pm32"], {"pm32": 1}])
def test_modp_codec_takes_only_the_kinds_of_modp_caps(kind):
    with pytest.raises(ValueError, match="not a mod-p certificate"):
        modp_certificate_from_json({"kind": kind, "p": 29, "lambda": 0, "plus": [1],
                                    "minus": [], "meta": {}})


def test_modp_json_big_ints_become_strings():
    cert = ModpCertificate(
        "pm32", 29, 0, [2**60], [], {"index_bound": 2**61, "max_index": 2**60}
    )
    enc = cert.to_json_dict()
    assert enc["plus"][0] == str(2**60)
    assert enc["meta"]["index_bound"] == str(2**61)
    back = modp_certificate_from_json(enc)
    assert back.plus == [2**60]
    assert back.meta["index_bound"] == 2**61


# ---------------------------------------------------------------- basis scan


def test_basis_order_scan_tau_of_one(table_2k):
    # only tau(1) = 1 available: residue k needs k ones, so Z_29 closes at 29
    assert basis_order_scan(29, 1, table_2k) == 29


def test_basis_order_scan_full_cover_is_one():
    fake = TauTable(50, [0] + list(range(1, 51)), "series")
    assert basis_order_scan(29, 29, fake) == 1


def set_order_scan(p, n_bound, table):
    """The set fill that the bitset fill replaced (test reference)."""
    base = sorted({table.values[n] % p for n in range(1, n_bound + 1)})
    reach = set(base)
    for k in range(1, 97):
        if len(reach) == p:
            return k
        reach |= {(a + v) % p for a in reach for v in base}
    return None


def test_basis_order_scan_matches_set_fill(table_2k):
    for p in primes_in(24, 200):
        for n_bound in (1, 2, p):
            assert basis_order_scan(p, n_bound, table_2k) == set_order_scan(p, n_bound, table_2k), (
                p, n_bound)


def test_basis_order_scan_modest_bound(table_2k):
    k = basis_order_scan(29, 29, table_2k)
    assert k is not None and 1 <= k <= 96
    # independent replay of the at-most-k semantics
    base = {table_2k.tau(n) % 29 for n in range(1, 30)}
    reach = set(base)
    for step in range(1, k):
        reach |= {(a + v) % 29 for a in reach for v in base}
    if k > 1:
        assert len(reach) == 29  # k layers reach everything
        # and k-1 layers must not have
        reach2 = set(base)
        for step in range(1, k - 1):
            reach2 |= {(a + v) % 29 for a in reach2 for v in base}
        assert len(reach2) < 29
