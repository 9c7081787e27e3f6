"""Acceptance gate: one test per criterion, exact tolerances, printed verdicts.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
The heavyweight shared objects (the 10^5 table, mod-p contexts, certificate
sweeps) are module fixtures so each is built exactly once.
"""

import hashlib
import json
import random
from itertools import combinations_with_replacement

import pytest

from tauwaring import verify
from tauwaring.cli import main as cli_main
from tauwaring.divisor_arith import build_sigma_table
from tauwaring.identity_suite import (
    ZERO_SUM_SEVEN,
    ZERO_SUM_SIX,
    check_deligne_all,
    check_mod256_odd,
    check_mod691,
    verify_zero_sums,
)
from tauwaring.modp_basis import (
    EPS_CAP,
    build_abc_context,
    build_context,
    product_set_cover,
    represent_pm32,
    represent_sum16,
    represent_sum96,
)
from tauwaring.tau_core import (
    build_prime_tau_map,
    build_tau_table_series,
    tau_multiplicative,
    tau_niebur,
    tau_sigma_formula,
)
from tauwaring.verify import (
    Certificate,
    TauTable,
    check,
    decode,
    factor_within,
    load_table,
    primes_in,
    save_table,
    verdict,
)
from tauwaring.waring_int import (
    RESIDUE_MODULUS,
    RepresentationParams,
    digits_mod_370944,
    index_budget,
    represent_integer,
    represent_residue_198,
    solve_prime_power_sum,
)

PM32_PRIMES = (29, 31, 101, 499)
SUM16_PRIMES = (29, 31, 101, 499)

PAPER_TAU = {
    1: 1, 2: -24, 3: 252, 5: 4830, 8: 84480,
    12: -370944, 27: -73279080, 55: 2582175960, 69: 4698104544,
    90: 13173496560, 105: -20380127040,
    6: -6048, 14: 401856, 29: 128406630, 41: 308120442,
    42: 101267712, 44: -786948864, 48: 248758272,
}


def report(num, name):
    line = f"ACCEPTANCE {num:>2} {name}: PASS"
    print(line)
    from conftest import acceptance_verdicts

    acceptance_verdicts.append(line)


@pytest.fixture(scope="module")
def contexts(table_100k):
    return {p: build_context(p, table_100k) for p in PM32_PRIMES}


@pytest.fixture(scope="module")
def modp_sweeps(contexts, table_100k):
    certs = {"pm32": {}, "sum96": {}}
    for p, ctx in contexts.items():
        certs["pm32"][p] = [represent_pm32(lam, ctx, table_100k) for lam in range(p)]
        certs["sum96"][p] = [represent_sum96(lam, ctx, table_100k) for lam in range(p)]
    return certs


@pytest.fixture(scope="module")
def sum16_sweeps(table_100k):
    out = {}
    for p in SUM16_PRIMES:
        ctx = build_abc_context(p, table_100k)
        out[p] = [represent_sum16(lam, p, table_100k, ctx=ctx) for lam in range(p)]
    return out


@pytest.fixture(scope="module")
def integer_certs(table_2k):
    rng = random.Random(20240229)
    params = RepresentationParams()
    out = []
    for _ in range(200):
        n = rng.randint(1, 10**4) * rng.choice((-1, 1))
        out.append((n, represent_integer(n, params, table_2k)))
    return out


def test_criterion_1_four_way_agreement(table_2k, table_100k, spf_100k,
                                        sigma1_2k, sigma5_2k, sigma11_2k):
    for n in range(1, 2001):
        expected = table_2k.tau(n)
        assert tau_niebur(n, sigma1_2k) == expected, f"niebur at {n}"
        assert tau_sigma_formula(n, sigma5_2k, sigma11_2k) == expected, f"sigma at {n}"
    prime_tau = build_prime_tau_map(table_100k)
    vals = table_100k.values
    for n in range(1, 100_001):
        assert tau_multiplicative(n, prime_tau, spf_100k) == vals[n], f"mult at {n}"
    report(1, "four-way agreement (2000) and series=multiplicative (1e5)")


def test_criterion_2_paper_constants(table_2k):
    for n, v in PAPER_TAU.items():
        assert table_2k.tau(n) == v, n
    assert sum(table_2k.tau(n) for n in ZERO_SUM_SIX) == 0
    assert sum(table_2k.tau(n) for n in ZERO_SUM_SEVEN) == 0
    verify_zero_sums(table_2k)
    report(2, "quoted tau values and both zero sums exact")


def test_criterion_3_congruence_sweeps(table_100k, spf_100k):
    assert check_mod691(table_100k, 1, 100_000, spf_100k) == []
    assert check_mod256_odd(table_100k, 1, 100_000, spf_100k) == []
    report(3, "mod 691 and odd mod 256 sweeps clean to 1e5")


def test_criterion_4_deligne_sweep(table_100k):
    assert check_deligne_all(table_100k) == []
    report(4, "tau(q)^2 <= 4q^11 for all primes to 1e5")


def test_criterion_5_exhaustive_residues(table_100k):
    vals = table_100k.values
    lookup = vals.__getitem__
    for r in range(RESIDUE_MODULUS):
        cert = represent_residue_198(r)
        idx = cert.plus
        assert len(idx) == 198
        assert max(idx) <= 105
        assert sum(map(lookup, idx)) == r
        vec = digits_mod_370944(r)
        assert vec.r5 <= 4 and vec.r4 <= 17 and vec.r3 <= 20
        assert vec.r2 <= 11 and vec.r1 <= 23 and vec.total() <= 75
    report(5, "all 370944 residues: 198 terms, indices <= 105, exact sums")


def test_criterion_6_pm32_and_sum96(modp_sweeps, table_100k):
    for p in PM32_PRIMES:
        assert p % 2 and 370944 % p != 0
        for lam, cert in enumerate(modp_sweeps["pm32"][p]):
            assert cert.lam == lam
            assert len(cert.plus) <= 16 and len(cert.minus) <= 16
            assert verdict(cert, table_100k), (p, lam)
        for lam, cert in enumerate(modp_sweeps["sum96"][p]):
            assert cert.lam == lam
            assert cert.minus == [] and len(cert.plus) <= 96
            assert verdict(cert, table_100k), (p, lam)
    report(6, "pm32 and sum96 sweeps verified for p in {29, 31, 101, 499}")


def test_criterion_7_sum16(sum16_sweeps, table_100k):
    for p in SUM16_PRIMES:
        cap = min(EPS_CAP, (p - 1) // 2)
        branch = build_abc_context(p, table_100k).branch
        bound = {"A-split": p * p, "BxC": p * p * cap * cap}[branch]
        for lam, cert in enumerate(sum16_sweeps[p]):
            assert cert.lam == lam
            assert cert.minus == [] and len(cert.plus) <= 16
            assert cert.meta["index_bound"] == bound
            assert max(cert.plus) <= cert.meta["index_bound"]
            assert verdict(cert, table_100k), (p, lam)
    report(7, "sum16 sweeps verified with recorded branch bounds for p in {29, 31, 101, 499}")


def test_criterion_8_glibichuk_realization(contexts):
    for p, ctx in contexts.items():
        assert ctx.cover.covered, p
        assert set(ctx.cover.covered_at(8)) == set(range(p))
    xs, ys = [1, 2, 3, 4], [1, 2, 3, 5]
    cover = product_set_cover(xs, ys, 7)
    products = sorted({x * y % 7 for x in xs for y in ys})
    brute = {sum(c) % 7 for c in combinations_with_replacement(products, 8)}
    assert set(cover.covered_at(8)) == brute == set(range(7))
    report(8, "S_8 = Z_p for every context; p=7 DP matches brute force")


def test_criterion_9_waring_goldbach(table_2k):
    pool = primes_in(23, 180)
    assert len(pool) >= 30
    pool = pool[:30]
    rng = random.Random(1109)
    for trial in range(20):
        s = rng.choice((1, 2, 3))
        picks = [rng.choice(pool) for _ in range(s)]
        target = sum(q**11 for q in picks)
        sol = solve_prime_power_sum(target, s, pool)
        assert sol is not None, (trial, picks)
        assert len(sol) == s
        assert sum(q**11 for q in sol) == target
    for trial in range(5):
        s = rng.choice((1, 2, 3))
        picks = [rng.choice(pool) for _ in range(s)]
        target = sum(q**11 for q in picks) + 1
        assert solve_prime_power_sum(target, s, pool) is None, trial
    report(9, "20 synthetic prime-power sums recovered; 5 perturbed infeasible")


def test_criterion_10_integer_representation(integer_certs, table_2k):
    params = RepresentationParams()
    failures = []
    for n, cert in integer_certs:
        if not verdict(cert, table_2k):
            failures.append((n, "verify"))
            continue
        if cert.meta["term_count"] > params.max_terms:
            failures.append((n, "terms"))
        if cert.meta["max_index"] > index_budget(n, params.c_bound):
            failures.append((n, "index"))
    assert not failures, f"failures at c_bound=15: {failures[:5]}"
    report(10, "200 sampled targets representable within 74000 terms and 15(|N|^(2/11)+1)")


def criterion_11_certificates(modp_sweeps, sum16_sweeps, integer_certs):
    """Criterion 11's certificates as (JSON object, expected exit code):
    137 good ones, then 4 with a single index tampered."""
    rng = random.Random(5)
    out = [(represent_residue_198(r).to_json_dict(), 0)
           for r in rng.sample(range(RESIDUE_MODULUS), 40)]
    out += [(cert.to_json_dict(), 0) for _, cert in rng.sample(integer_certs, 25)]
    for p in PM32_PRIMES:
        for kind in ("pm32", "sum96"):
            out += [(cert.to_json_dict(), 0) for cert in rng.sample(modp_sweeps[kind][p], 6)]
    for p in SUM16_PRIMES:
        out += [(cert.to_json_dict(), 0) for cert in rng.sample(sum16_sweeps[p], 6)]

    res = represent_residue_198(1234).to_json_dict()
    res["plus"][0] = 4 if res["plus"][0] != 4 else 9
    intc = integer_certs[0][1].to_json_dict()
    intc["plus"][0] += 1
    pm = modp_sweeps["pm32"][29][5].to_json_dict()
    pm["plus"][0] = int(pm["plus"][0]) * 29
    s16 = sum16_sweeps[29][3].to_json_dict()
    s16["plus"][0] = int(s16["plus"][0]) + 1
    return out + [(res, 1), (intc, 1), (pm, 1), (s16, 1)]


def test_criterion_11_persistence_and_check(tmp_path, table_2k, modp_sweeps,
                                            sum16_sweeps, integer_certs, capsys):
    table = build_tau_table_series(10**4)
    path_a = tmp_path / "a.txt"
    path_b = tmp_path / "b.txt"
    save_table(path_a, table)
    save_table(path_b, load_table(path_a))
    assert path_a.read_bytes() == path_b.read_bytes()

    table_path = tmp_path / "check_table.txt"
    save_table(table_path, table_2k)
    checked = 0
    for obj, expect in criterion_11_certificates(modp_sweeps, sum16_sweeps, integer_certs):
        cert_path = tmp_path / f"cert_{checked}.json"
        cert_path.write_text(json.dumps(obj))
        code = cli_main(["check", str(cert_path), "--table", str(table_path)])
        capsys.readouterr()
        assert code == expect, (obj.get("kind"), expect, code)
        checked += 1
    report(11, f"bit-exact round trip at 1e4; cmd_check accepted {checked - 4} certificates"
               " and rejected 4 tampered ones")


def test_tau_memo_gives_the_verdicts_of_an_empty_one(table_2k, table_100k, modp_sweeps,
                                                    sum16_sweeps, integer_certs, monkeypatch):
    # Full-lambda pm32, sum96 and sum16 sweeps, then criterion 11's certificates.
    cases = [(cert, table_100k) for p in (29, 101, 499)
             for cert in modp_sweeps["pm32"][p] + modp_sweeps["sum96"][p] + sum16_sweeps[p]]
    expected = [True] * len(cases)
    for obj, code in criterion_11_certificates(modp_sweeps, sum16_sweeps, integer_certs):
        cases.append((decode(obj), table_2k))
        expected.append(code == 0)

    def copy(table):
        return TauTable(table.limit, list(table.values))

    cold = {t.limit: copy(t) for t in (table_2k, table_100k)}

    def cold_check(cert, table):
        fresh = cold[table.limit]
        fresh.tau_memo = None
        return check(cert, fresh)

    reference = [cold_check(cert, table) for cert, table in cases]
    assert [ok for _, ok in reference] == expected
    for _ in range(2):  # the second pass finds every index in the memo
        assert [check(cert, table) for cert, table in cases] == reference
    assert 0 < len(table_100k.tau_memo) <= verify.TAU_MEMO_CAP

    monkeypatch.setattr(verify, "TAU_MEMO_CAP", 8)
    small = {t.limit: copy(t) for t in (table_2k, table_100k)}
    for (cert, table), want in zip(cases, reference):
        assert check(cert, small[table.limit]) == want
        assert len(small[table.limit].tau_memo) <= 8


def test_tau_memo_keeps_no_index_past_limit_to_the_fifth(table_2k):
    # sum96 certificates of 96 indices near 2^500 * 3^k * 5^j, all above
    # 2000^5, where even lambdas hold and odd ones are off by one. The
    # verifier refuses every such index before factoring it, so each check
    # gives (None, False) and nothing enters the memo.
    p, limit = 101, table_2k.limit
    certs = []
    for c in range(4):
        indices = [2**(500 + c) * 3**k * 5**j for k in range(12) for j in range(8)]
        taus = [verify.tau_from_factors(factor_within(n, limit), table_2k.values)
                for n in indices]
        meta = {"index_bound": max(indices), "max_index": max(indices),
                "counts": {"plus": len(indices), "minus": 0}}
        certs.append(Certificate("sum96", p, (sum(taus) + c % 2) % p, indices, [], meta))
    certs += certs  # the second pass would hit a memo that kept them
    assert min(min(cert.plus) for cert in certs) > limit**5

    table = TauTable(limit, list(table_2k.values))
    for cert in certs:
        assert check(cert, table) == (None, False)
        assert table.tau_memo == {}

    # limit^5 itself is in the verifiers' domain and is kept; twice it is not.
    tau = verify.tau_factored(limit**5, table)
    assert tau == (verify.tau_prime_power(table.tau(2), 2, 20)
                   * verify.tau_prime_power(table.tau(5), 5, 15))
    assert table.tau_memo == {limit**5: tau}
    assert verify.tau_factored(2 * limit**5, table) is None
    assert table.tau_memo == {limit**5: tau}


def test_tau_memo_is_not_shared_by_copies(table_100k, modp_sweeps):
    cert = modp_sweeps["pm32"][101][7]
    assert check(cert, table_100k)[1]
    bent = TauTable(table_100k.limit, list(table_100k.values))
    q = factor_within(cert.plus[0], table_100k.limit)[0][0]
    bent.values[q] += 1
    assert table_100k.tau_memo and bent.tau_memo is None
    assert not check(cert, bent)[1]
    assert check(cert, table_100k)[1]


def check_output(paths, table, workdir, capsys):
    """Stdout of one `tauwaring check` over the files of `paths` (JSON objects)
    against `table` saved under workdir: every CHECK line, then CHECKED."""
    table_path = workdir / f"table_{table.limit}.txt"
    save_table(table_path, table)
    files = []
    for i, obj in enumerate(paths):
        files.append(workdir / f"{table.limit}_{i}.json")
        files[-1].write_text(json.dumps(obj))
    capsys.readouterr()
    cli_main(["check", *map(str, files), "--table", str(table_path)])
    return capsys.readouterr().out


# sha256 of the `tauwaring check` lines, verdict and recomputed value, over
# criterion 11's 141 certificates on the 2000 table, then the full-lambda pm32,
# sum96 and sum16 sweeps at p = 29, 101 and 499 and the 50 integer
# certificates behind REPRESENT_DIGEST (test_waring_int.py) on a 2e4 table.
CHECK_LINES_DIGEST = "d680ac4b07ed9ca3abd8701ba66b98b9497a41b00a192d433e9b125551e3dea5"


def test_check_lines_are_pinned(tmp_path, table_2k, table_20k, modp_sweeps, sum16_sweeps,
                                integer_certs, capsys):
    criterion_11 = [obj for obj, _ in criterion_11_certificates(modp_sweeps, sum16_sweeps,
                                                                 integer_certs)]
    table = TauTable(table_20k.limit, list(table_20k.values))
    sweeps = []
    for p in (29, 101, 499):
        ctx, abc = build_context(p, table), build_abc_context(p, table)
        for lam in range(p):
            sweeps += [represent_pm32(lam, ctx, table), represent_sum96(lam, ctx, table),
                       represent_sum16(lam, p, table, ctx=abc)]
    rng = random.Random("represent_integer pin")
    targets = [rng.choice((-1, 1)) * int(10 ** rng.uniform(0, 17)) for _ in range(50)]
    sweeps += [represent_integer(n, RepresentationParams(), table) for n in targets]
    out = (check_output(criterion_11, table_2k, tmp_path, capsys)
           + check_output([cert.to_json_dict() for cert in sweeps], table, tmp_path, capsys))
    lines = out.splitlines()
    assert len(lines) == 141 + 1 + 3 * (29 + 101 + 499) + 50 + 1
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_LINES_DIGEST
