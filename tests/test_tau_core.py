import hashlib
import re
import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tauwaring import tau_core, verify
from tauwaring.errors import CapacityError, InternalCheckError, TableFormatError
from tauwaring.divisor_arith import SigmaTable, build_sigma_table
from tauwaring.tau_core import (
    _cube_terms,
    _eta6_coeffs,
    _pack_balanced,
    _unpack_balanced,
    build_tau_table_series,
    tau_multiplicative,
    tau_niebur,
    tau_sigma_formula,
)
from tauwaring.verify import TABLE_HEADER_RE, TauTable, load_table, save_table, tau_prime_power

# Exact values quoted in the source tables; every one is re-derived from the
# series expansion in test_series_matches_quoted_values.
QUOTED_TAU = {
    1: 1,
    2: -24,
    3: 252,
    5: 4830,
    6: -6048,
    8: 84480,
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


def dense_euler_power(n, k):
    """The first n coefficients of prod(1 - X^m)^k by dense multiplication."""
    coeffs = [0] * n
    coeffs[0] = 1
    for m in range(1, n):
        for _ in range(k):
            for i in range(n - 1, m - 1, -1):
                coeffs[i] -= coeffs[i - m]
    return coeffs


def dense_delta_prefix(n):
    """Brute-force oracle: expand prod(1 - X^m)^24 by dense polynomial
    multiplication and read tau(1..n) off the shifted coefficients."""
    return {k + 1: c for k, c in enumerate(dense_euler_power(n, 24))}


def test_cube_terms_match_dense_cube():
    n = 120
    coeffs = dense_euler_power(n, 3)
    sparse = dict(_cube_terms(n))
    for pos in range(n):
        assert coeffs[pos] == sparse.get(pos, 0)


def test_sparse_eta6_matches_dense_cube_squared():
    n = 300
    cube = dense_euler_power(n, 3)
    square = [sum(cube[i] * cube[k - i] for i in range(k + 1)) for k in range(n)]
    for size in range(1, n + 1):
        eta6 = _eta6_coeffs(size)
        assert eta6.dtype == np.int64
        assert eta6.tolist() == square[:size], size


def test_eta6_convolution_stays_inside_int64_at_the_cap():
    # A coefficient of eta^6 takes at most one product c_i c_j per cube term
    # c_i, so the sum of |c_i c_j| at any position is at most the term count
    # times the largest |c|^2.
    terms = _cube_terms(tau_core.DEFAULT_SERIES_CAP + 1)
    largest = max(abs(c) for _, c in terms)
    assert len(terms) * largest * largest < 2**62


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_unpack_inverts_pack(width, data):
    half = 10**width // 2
    coeffs = data.draw(st.lists(st.integers(-half, half - 1), min_size=1, max_size=40))
    chunk = data.draw(st.integers(min_value=1, max_value=50))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tau_core, "_UNPACK_CHUNK", chunk)
        packed = _pack_balanced(np.array(coeffs, dtype=np.int64), width)
        assert 0 <= packed < 10 ** (width * len(coeffs))
        want = sum(c * 10 ** (width * k) for k, c in enumerate(coeffs))
        assert (int(packed) - want) % 10 ** (width * len(coeffs)) == 0
        assert _unpack_balanced(packed, width, len(coeffs)) == coeffs


def test_pack_refuses_a_coefficient_wider_than_its_slot():
    _pack_balanced(np.array([1, -98, 7], dtype=np.int64), 2)
    with pytest.raises(ValueError, match="coefficient 99 does not fit a 2-digit slot"):
        _pack_balanced(np.array([1, -99, 7], dtype=np.int64), 2)
    with pytest.raises(ValueError, match="coefficient 999999999999999999 does not fit"):
        _pack_balanced(np.array([10**18 - 1], dtype=np.int64), 40)


# sha256 of save_table(build_tau_table_series(N)), taken from the seven-product
# build; every later series build must reproduce them.
TABLE_SHA256 = {
    2000: "5fe01649cd70cd1ed7e5e3ffdda9ef1382fb0b25d69dbb77f972223166f808da",
    100_000: "cd51f72681b1bbad0493b554aaa1e8791dc621cfc5d895da096a548ce5f4fea9",
}


def test_series_matches_dense_oracle():
    # The slot width and the guard slot both depend on the limit.
    oracle = dense_delta_prefix(150)
    for limit in range(1, 151):
        table = build_tau_table_series(limit)
        for k in range(1, limit + 1):
            assert table.tau(k) == oracle[k], (limit, k)


def _saved_sha256(path, table):
    save_table(path, table)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_series_table_digest_2k(tmp_path, table_2k):
    assert _saved_sha256(tmp_path / "t.txt", table_2k) == TABLE_SHA256[2000]


def test_series_table_digest_100k(tmp_path, table_100k):
    assert _saved_sha256(tmp_path / "t.txt", table_100k) == TABLE_SHA256[100_000]


def test_series_matches_quoted_values(table_2k):
    for n, v in QUOTED_TAU.items():
        assert table_2k.tau(n) == v


def test_values_fit_sanity_envelope(table_2k):
    # |tau(n)| <= 2 n^6 underwrites the packed-slot width of the series engine
    for n in range(1, 2001):
        assert abs(table_2k.tau(n)) <= 2 * n**6


def test_series_rejects_bad_limits(monkeypatch):
    with pytest.raises(ValueError):
        build_tau_table_series(0)
    monkeypatch.setattr(tau_core, "DEFAULT_SERIES_CAP", 500)
    with pytest.raises(CapacityError, match="500"):
        build_tau_table_series(501)


def test_table_tau_bounds(table_2k):
    with pytest.raises(ValueError):
        table_2k.tau(0)
    with pytest.raises(ValueError):
        table_2k.tau(2001)


def test_niebur_base_cases(sigma1_2k, table_2k):
    assert tau_niebur(1, sigma1_2k) == 1
    # 16 * sigma(2) - 24 * (35 - 104 + 72) * sigma(1)^2 = 48 - 72
    assert tau_niebur(2, sigma1_2k) == -24
    assert tau_niebur(3, sigma1_2k) == 252


def test_niebur_agrees_with_series(table_2k, sigma1_2k):
    for n in range(1, 301):
        assert tau_niebur(n, sigma1_2k) == table_2k.tau(n), n


def test_sigma_formula_base_cases(sigma5_2k, sigma11_2k):
    assert tau_sigma_formula(1, sigma5_2k, sigma11_2k) == 1
    assert tau_sigma_formula(2, sigma5_2k, sigma11_2k) == -24
    assert tau_sigma_formula(12, sigma5_2k, sigma11_2k) == -370944


def test_sigma_formula_agrees_with_series(table_2k, sigma5_2k, sigma11_2k):
    for n in range(1, 301):
        assert tau_sigma_formula(n, sigma5_2k, sigma11_2k) == table_2k.tau(n), n


def test_sigma_formula_flags_corrupt_tables():
    s5 = build_sigma_table(5, 10)
    s11 = build_sigma_table(11, 10)
    bad = SigmaTable(11, 10, list(s11.values))
    bad.values[7] += 1
    with pytest.raises(InternalCheckError):
        tau_sigma_formula(7, s5, bad)


def loop_niebur(n, sigma1):
    """Niebur's identity as one Python loop over k = 1..n-1: the reference
    for the library's half-range evaluation."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if sigma1.limit < n:
        raise ValueError(f"sigma table covers {sigma1.limit}, need {n}")
    s = sigma1.values
    acc = 0
    for k in range(1, n):
        acc += (35 * k**4 - 52 * k**3 * n + 18 * k**2 * n * n) * s[k] * s[n - k]
    return n**4 * s[n] - 24 * acc


def loop_sigma_formula(n, sigma5, sigma11):
    """The sigma_5 / sigma_11 identity as one Python loop over k = 1..n-1:
    the reference for the library's half-range evaluation."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if sigma5.limit < n or sigma11.limit < n:
        raise ValueError("sigma tables do not cover n")
    s5 = sigma5.values
    conv = 0
    for k in range(1, n):
        conv += s5[k] * s5[n - k]
    t = 65 * sigma11.values[n] + 691 * s5[n] - 174132 * conv
    if t % 756:
        raise InternalCheckError(f"756 does not divide scaled identity at n={n}: {t}")
    return t // 756


def outcome(fn, *args):
    """fn(*args), or the type and text of what it raised."""
    try:
        return fn(*args)
    except (ValueError, InternalCheckError) as exc:
        return type(exc), str(exc)


def test_oracles_match_loop_references_to_2000(sigma1_2k, sigma5_2k, sigma11_2k):
    for n in range(1, 2001):
        assert tau_niebur(n, sigma1_2k) == loop_niebur(n, sigma1_2k), n
        assert (tau_sigma_formula(n, sigma5_2k, sigma11_2k)
                == loop_sigma_formula(n, sigma5_2k, sigma11_2k)), n


sigma_values = st.lists(
    st.one_of(st.integers(-1000, 1000), st.integers(-(2**80), 2**80)), min_size=1, max_size=60
)


@settings(max_examples=300, deadline=None)
@given(sigma_values, st.data())
def test_niebur_matches_loop_on_any_values(values, data):
    n = data.draw(st.integers(1, len(values)), label="n")  # n = len(values) is past the table
    sigma1 = SigmaTable(1, len(values) - 1, values)
    assert outcome(tau_niebur, n, sigma1) == outcome(loop_niebur, n, sigma1)


@settings(max_examples=300, deadline=None)
@given(sigma_values, sigma_values, st.booleans(), st.data())
def test_sigma_formula_matches_loop_on_any_values(v5, v11, divisible, data):
    n = data.draw(st.integers(1, max(len(v5), len(v11))), label="n")
    if divisible and n < min(len(v5), len(v11)):
        # Shift sigma_11(n) so that 756 divides the scaled identity (65 is a unit mod 756).
        t = 65 * v11[n] + 691 * v5[n] - 174132 * sum(v5[k] * v5[n - k] for k in range(1, n))
        v11 = v11[:n] + [v11[n] - t * pow(65, -1, 756) % 756] + v11[n + 1 :]
    sigma5, sigma11 = SigmaTable(5, len(v5) - 1, v5), SigmaTable(11, len(v11) - 1, v11)
    assert (outcome(tau_sigma_formula, n, sigma5, sigma11)
            == outcome(loop_sigma_formula, n, sigma5, sigma11))


def test_niebur_refuses_a_table_of_the_wrong_order(sigma5_2k):
    with pytest.raises(ValueError, match=r"^need a sigma_1 table, got sigma_5$"):
        tau_niebur(7, build_sigma_table(5, 50))
    with pytest.raises(ValueError, match=r"^need a sigma_1 table, got sigma_5$"):
        tau_niebur(7, sigma5_2k)


def test_sigma_formula_refuses_tables_of_the_wrong_order(sigma1_2k, sigma5_2k, sigma11_2k):
    with pytest.raises(ValueError, match=r"^need a sigma_5 table, got sigma_11$"):
        tau_sigma_formula(7, sigma11_2k, sigma5_2k)
    with pytest.raises(ValueError, match=r"^need a sigma_11 table, got sigma_1$"):
        tau_sigma_formula(7, sigma5_2k, sigma1_2k)


def test_oracles_keep_their_range_messages(sigma1_2k, sigma5_2k, sigma11_2k):
    with pytest.raises(ValueError, match=r"^n must be positive, got 0$"):
        tau_niebur(0, sigma1_2k)
    with pytest.raises(ValueError, match=r"^n must be positive, got -3$"):
        tau_sigma_formula(-3, sigma5_2k, sigma11_2k)
    with pytest.raises(ValueError, match=r"^sigma table covers 2000, need 2001$"):
        tau_niebur(2001, sigma1_2k)
    with pytest.raises(ValueError, match=r"^sigma tables do not cover n$"):
        tau_sigma_formula(2001, sigma5_2k, sigma11_2k)


# A SigmaTable whose values do not match its limit used to reach the oracles,
# which then raised a bare IndexError.
def test_niebur_cannot_get_a_table_shorter_than_its_limit():
    with pytest.raises(ValueError, match=r"^sigma table of limit 10 needs 11 values, got 3$"):
        tau_niebur(5, SigmaTable(1, 10, [0, 1, 3]))


def test_sigma_formula_cannot_get_tables_unlike_their_limits():
    s11 = build_sigma_table(11, 10)
    with pytest.raises(ValueError, match=r"^sigma table of limit 10 needs 11 values, got 3$"):
        tau_sigma_formula(5, SigmaTable(5, 10, [0, 1, 33]), s11)
    with pytest.raises(ValueError, match=r"^sigma table of limit 2 needs 3 values, got 4$"):
        tau_sigma_formula(2, build_sigma_table(5, 2), SigmaTable(11, 2, s11.values[:4]))


def test_tau_prime_power_recurrence(table_2k):
    assert tau_prime_power(-24, 2, 2) == -1472 == table_2k.tau(4)
    assert tau_prime_power(252, 3, 2) == -113643 == table_2k.tau(9)
    assert tau_prime_power(123456, 7, 0) == 1
    assert tau_prime_power(-24, 2, 1) == -24


@given(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]),
       st.integers(min_value=0, max_value=10))
def test_tau_prime_power_matches_table(table_2k, q, alpha):
    if q**alpha > table_2k.limit:
        return
    expected = table_2k.tau(q**alpha) if alpha else 1
    assert tau_prime_power(table_2k.tau(q), q, alpha) == expected


def test_tau_multiplicative_examples(table_2k, prime_tau_2k, spf_2k):
    assert tau_multiplicative(6, prime_tau_2k, spf_2k) == -6048
    assert tau_multiplicative(14, prime_tau_2k, spf_2k) == 401856
    assert tau_multiplicative(44, prime_tau_2k, spf_2k) == -786948864
    assert tau_multiplicative(1, prime_tau_2k, spf_2k) == 1


def test_tau_multiplicative_missing_prime(spf_2k):
    with pytest.raises(ValueError, match="no entry"):
        tau_multiplicative(6, {2: -24}, spf_2k)


@settings(max_examples=60)
@given(st.integers(min_value=2, max_value=900), st.integers(min_value=2, max_value=900))
def test_multiplicativity_property(table_2k, m, n):
    if gcd(m, n) != 1 or m * n > table_2k.limit:
        return
    assert table_2k.tau(m * n) == table_2k.tau(m) * table_2k.tau(n)


def test_save_load_roundtrip(tmp_path, table_2k):
    path = tmp_path / "t.txt"
    small = build_tau_table_series(100)
    save_table(path, small)
    loaded = load_table(path)
    assert loaded.limit == 100
    assert loaded.values == small.values
    # bit-exact: re-save and compare raw bytes
    path2 = tmp_path / "t2.txt"
    save_table(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


@pytest.mark.parametrize("block", [1, 7, 99, 100, 101])
def test_blocked_save_matches_one_join(tmp_path, monkeypatch, block):
    table = build_tau_table_series(100)
    lines = ["TAU-TABLE v1 limit=100"] + [f"{n}\t{table.values[n]}" for n in range(1, 101)]
    monkeypatch.setattr(verify, "_SAVE_BLOCK", block)
    save_table(tmp_path / "t.txt", table)
    assert (tmp_path / "t.txt").read_text(encoding="ascii") == "\n".join(lines) + "\n"


def test_load_reads_quoted_entry(tmp_path):
    path = tmp_path / "t.txt"
    save_table(path, build_tau_table_series(12))
    assert load_table(path).tau(12) == -370944


def test_load_rejects_truncation(tmp_path):
    path = tmp_path / "t.txt"
    save_table(path, build_tau_table_series(20))
    text = path.read_text()
    path.write_text("".join(text.splitlines(keepends=True)[:-3]))
    with pytest.raises(TableFormatError, match="line"):
        load_table(path)


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("TAU-TABLE v2 limit=1\n1\t1\n")
    with pytest.raises(TableFormatError, match="line 1"):
        load_table(path)


def test_load_rejects_trailing_blank(tmp_path):
    path = tmp_path / "t.txt"
    save_table(path, build_tau_table_series(3))
    path.write_text(path.read_text() + "\n")
    with pytest.raises(TableFormatError, match="blank"):
        load_table(path)


def test_load_rejects_bad_index(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("TAU-TABLE v1 limit=2\n1\t1\n3\t-24\n")
    with pytest.raises(TableFormatError, match="line 3"):
        load_table(path)


def test_load_rejects_bad_value(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("TAU-TABLE v1 limit=1\n1\tx1\n")
    with pytest.raises(TableFormatError, match="line 2"):
        load_table(path)


def test_load_rejects_missing_final_newline(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("TAU-TABLE v1 limit=1\n1\t1")
    with pytest.raises(TableFormatError):
        load_table(path)


VALUE_RE = re.compile(r"^-?[0-9]+$")


@pytest.mark.parametrize("line, message", [
    ("1\t+5", "line 2: malformed entry '1\\t+5'"),
    ("1\t-", "line 2: malformed entry '1\\t-'"),
    ("1\t", "line 2: malformed entry '1\\t'"),
    ("1\t5\t6", "line 2: malformed entry '1\\t5\\t6'"),
    ("15", "line 2: malformed entry '15'"),
    ("1\t5\r", "line 2: malformed entry '1\\t5\\r'"),
    ("1\t1_0", "line 2: malformed entry '1\\t1_0'"),
    ("1\t 5", "line 2: malformed entry '1\\t 5'"),
    ("2\t5", "line 2: expected index 1, found '2'"),
    ("1 \t5", "line 2: expected index 1, found '1 '"),
    ("01\t5", "line 2: expected index 1, found '01'"),
    ("\t5", "line 2: expected index 1, found ''"),
])
def test_load_rejects_malformed_line(tmp_path, line, message):
    path = tmp_path / "t.txt"
    path.write_text(f"TAU-TABLE v1 limit=1\n{line}\n", newline="")
    with pytest.raises(TableFormatError) as info:
        load_table(path)
    assert str(info.value) == message
    with pytest.raises(TableFormatError) as info:
        regex_load_table(path)
    assert str(info.value) == message


def test_load_accepts_signs_and_leading_zeros(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("TAU-TABLE v1 limit=3\n1\t-0\n2\t007\n3\t-12\n")
    assert load_table(path).values == [0, 0, 7, -12]


def regex_load_table(path, upto=None):
    """load_table as it was with one regex match per line (test reference),
    its whole-file checks run first, then cut to the first `upto` lines."""
    with open(path, "r", encoding="ascii", newline="") as fh:
        text = fh.read()
    if not text.endswith("\n"):
        raise TableFormatError("line 1: file is not newline-terminated")
    if text.endswith("\n\n"):
        raise TableFormatError("trailing blank line at end of file")
    lines = text[:-1].split("\n")
    m = TABLE_HEADER_RE.match(lines[0])
    if not m:
        raise TableFormatError(f"line 1: bad header {lines[0]!r}")
    limit = int(m.group(1))
    if limit < 1:
        raise TableFormatError("line 1: limit must be >= 1")
    if len(lines) - 1 != limit:
        raise TableFormatError(
            f"line {len(lines)}: expected {limit} value lines, found {len(lines) - 1}"
        )
    last = limit if upto is None else min(upto, limit)
    values = [0]
    for i, line in enumerate(lines[1:last + 1], start=2):
        parts = line.split("\t")
        if len(parts) != 2 or not VALUE_RE.match(parts[1]):
            raise TableFormatError(f"line {i}: malformed entry {line!r}")
        n = i - 1
        if parts[0] != str(n):
            raise TableFormatError(f"line {i}: expected index {n}, found {parts[0]!r}")
        values.append(int(parts[1]))
    return TauTable(limit=last, values=values)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_peak_memory_within_regex_loader(tmp_path, table_20k):
    path = tmp_path / "t.txt"
    save_table(path, table_20k)
    ref, ref_peak = traced_peak(regex_load_table, path)
    got, peak = traced_peak(load_table, path)
    assert got.values == ref.values == table_20k.values
    assert peak <= ref_peak


# ------------------------------------- blocked parse against the line loader


@pytest.fixture(scope="module")
def saved_200(tmp_path_factory):
    """The bytes of a saved 200-line table, and a file for edited copies."""
    path = tmp_path_factory.mktemp("load") / "t.txt"
    save_table(path, build_tau_table_series(200))
    return path.read_bytes(), path.with_name("edited.txt")


def load_outcome(loader, path, upto=None):
    """((limit, values), None) from loader(path, upto), or (None, (exception
    type, text))."""
    try:
        table = loader(path, upto)
        return (table.limit, table.values), None
    except (TableFormatError, ValueError) as exc:  # ValueError: non-ASCII, int()'s digit limit
        return None, (type(exc), str(exc))


def block_starts(data, block):
    """Index of the first value line of each block that load_table cuts `data` into."""
    starts, start, n = [], data.index(b"\n") + 1, 1
    while start < len(data):
        end = data.find(b"\n", start + block) + 1 or len(data)
        starts.append(n)
        start, n = end, n + data.count(b"\n", start, end)
    return starts


@pytest.fixture
def fallback_blocks(monkeypatch):
    """(first, last) index of each block that load_table hands to its line loop."""
    calls = []
    real = verify._load_lines

    def spy(lines, n, values):
        calls.append((n, n + len(lines) - 1))
        return real(lines, n, values)

    monkeypatch.setattr(verify, "_load_lines", spy)
    return calls


FUZZ_BYTES = b"0123456789-\t\n +_\r0"


@settings(max_examples=300, deadline=None)
@given(
    edits=st.lists(st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                             st.integers(min_value=0), st.sampled_from(FUZZ_BYTES)),
                   min_size=1, max_size=4),
    block=st.integers(min_value=1, max_value=48),
    upto=st.none() | st.integers(min_value=1, max_value=210),
)
def test_blocked_load_matches_regex_loader(saved_200, edits, block, upto):
    data, path = saved_200
    buf = bytearray(data)
    for op, pos, byte in edits:
        if op == "insert":
            buf.insert(pos % (len(buf) + 1), byte)
        elif op == "replace":
            buf[pos % len(buf)] = byte
        else:
            del buf[pos % len(buf)]
    path.write_bytes(buf)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_LOAD_BLOCK", block)
        got = load_outcome(load_table, path, upto)
    assert got == load_outcome(regex_load_table, path, upto)


def test_load_takes_leading_zeros_in_a_later_block(saved_200, monkeypatch, fallback_blocks):
    data, path = saved_200
    lines = data.split(b"\n")
    lines[150], lines[151] = b"150\t-0", b"151\t007"
    path.write_bytes(b"\n".join(lines))
    monkeypatch.setattr(verify, "_LOAD_BLOCK", 40)
    expected = build_tau_table_series(200).values
    expected[150], expected[151] = 0, 7
    assert load_table(path).values == expected == regex_load_table(path).values
    # 007 is not a JSON number, so its block, not the first, went through the line loop.
    assert [lo for lo, hi in fallback_blocks if lo <= 151 <= hi] == [lo for lo, _ in fallback_blocks]
    assert all(lo > 1 for lo, _ in fallback_blocks)


@pytest.mark.parametrize("edge", ["first", "last"])
def test_load_names_a_bad_line_at_a_block_edge(saved_200, monkeypatch, fallback_blocks, edge):
    data, path = saved_200
    starts = block_starts(data, 40)
    n = starts[5] if edge == "first" else starts[6] - 1
    lines = data.split(b"\n")  # lines[n] holds index n, on line n + 1 of the file
    # Same-length edits, so the block edges do not move.
    if edge == "first":
        lines[n] = b"x" + lines[n][1:]
        message = f"line {n + 1}: expected index {n}, found {'x' + str(n)[1:]!r}"
    else:
        tab = lines[n].index(b"\t")
        lines[n] = lines[n][: tab + 1] + b"+" + lines[n][tab + 2:]
        message = f"line {n + 1}: malformed entry {lines[n].decode()!r}"
    path.write_bytes(b"\n".join(lines))
    monkeypatch.setattr(verify, "_LOAD_BLOCK", 40)
    assert load_outcome(load_table, path) == (None, (TableFormatError, message))
    assert load_outcome(regex_load_table, path) == (None, (TableFormatError, message))
    first, last = fallback_blocks[0]
    assert (first if edge == "first" else last) == n


def test_load_block_edges_at_the_end_of_the_file(saved_200, monkeypatch):
    data, path = saved_200
    path.write_bytes(data)
    body = len(data) - data.index(b"\n") - 1
    multiples = [d for d in range(2, len(data) + 1) if len(data) % d == 0 or body % d == 0]
    expected = regex_load_table(path).values
    for block in [*range(1, 100), *multiples, body - 1, body + 1]:
        monkeypatch.setattr(verify, "_LOAD_BLOCK", block)
        assert load_table(path).values == expected, block



# ------------------------------------------------------------- prefix loads


def test_load_prefix_at_block_edges(saved_200, monkeypatch, parsed_lines):
    data, path = saved_200
    path.write_bytes(data)
    monkeypatch.setattr(verify, "_LOAD_BLOCK", 40)
    starts = block_starts(data, 40)
    full = build_tau_table_series(200).values
    # a block's first line, its last line, limit - 1, limit, limit + 1, everything
    for upto in (starts[3], starts[4] - 1, 199, 200, 201, None):
        parsed_lines.clear()
        last = 200 if upto is None else min(upto, 200)
        table = load_table(path, upto)
        assert (table.limit, table.values) == (last, full[: last + 1]), upto
        assert sum(parsed_lines) == last, upto  # no line past the prefix is parsed


@pytest.mark.parametrize("upto", [1, 149, 150, 151, 200, None])
def test_load_prefix_reads_damage_only_within_it(saved_200, monkeypatch, upto):
    data, path = saved_200
    lines = data.split(b"\n")
    lines[150] = b"150\t+1"  # value line 150, line 151 of the file
    path.write_bytes(b"\n".join(lines))
    monkeypatch.setattr(verify, "_LOAD_BLOCK", 40)
    got = load_outcome(load_table, path, upto)
    if upto is not None and upto < 150:
        assert got == ((upto, build_tau_table_series(200).values[: upto + 1]), None)
    else:
        assert got == (None, (TableFormatError, "line 151: malformed entry '150\\t+1'"))
    assert got == load_outcome(regex_load_table, path, upto)


WHOLE_FILE_DAMAGE = {
    "header": (lambda d: d.replace(b"v1", b"v2", 1),
               "line 1: bad header 'TAU-TABLE v2 limit=200'"),
    "limit": (lambda d: d.replace(b"limit=200", b"limit=0", 1), "line 1: limit must be >= 1"),
    "line-count": (lambda d: d[: d.rindex(b"\n", 0, -1) + 1],
                   "line 200: expected 200 value lines, found 199"),
    "blank-line": (lambda d: d + b"\n", "trailing blank line at end of file"),
    "no-newline": (lambda d: d[:-1], "line 1: file is not newline-terminated"),
}


@pytest.mark.parametrize("upto", [1, 105, None])
@pytest.mark.parametrize("damage", WHOLE_FILE_DAMAGE)
def test_load_prefix_keeps_the_whole_file_checks(saved_200, damage, upto):
    data, path = saved_200
    edit, message = WHOLE_FILE_DAMAGE[damage]
    path.write_bytes(edit(data))
    assert load_outcome(load_table, path, upto) == (None, (TableFormatError, message))
    assert load_outcome(regex_load_table, path, upto) == (None, (TableFormatError, message))

def test_load_reports_a_late_non_ascii_byte_as_before(tmp_path, table_20k):
    path = tmp_path / "t.txt"
    save_table(path, table_20k)
    data = bytearray(path.read_bytes())
    data[len(data) // 2] = 0xE9  # far past the first 8 KiB that a text read decodes
    path.write_bytes(data)
    got = load_outcome(load_table, path)
    assert got[1][0] is UnicodeDecodeError
    assert got == load_outcome(regex_load_table, path)


def test_load_refuses_a_value_past_the_int_digit_limit(saved_200):
    data, path = saved_200
    lines = data.split(b"\n")
    lines[199] = b"199\t" + b"9" * 5000
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ValueError) as limit:
        int("9" * 5000)
    assert load_outcome(load_table, path) == (None, (ValueError, str(limit.value)))
    assert load_outcome(regex_load_table, path) == (None, (ValueError, str(limit.value)))
