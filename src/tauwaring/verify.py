"""The independent verifier, on the standard library alone: the tau table file
format, one certificate model with one JSON codec, and one check that rebuilds
every tau value from the table's prime entries. The emitters (waring_int,
modp_basis) build their certificates here; nothing here imports an emitter.
"""

from __future__ import annotations

import json
import re
from contextlib import suppress
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress
from math import gcd, inf, isqrt

from .errors import TableFormatError

# Entries that the tau memo holds before tau_factored clears it.
TAU_MEMO_CAP = 1 << 18

# Largest (plus, minus) term counts of each mod-p certificate kind.
MODP_CAPS = {"pm32": (16, 16), "sum96": (96, 0), "sum16": (16, 0)}

# The product of the primes up to 23: n is coprime to 23! iff it is coprime to this.
PRIMORIAL_23 = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23

TABLE_HEADER_RE = re.compile(r"^TAU-TABLE v1 limit=([0-9]+)$")
_VALUE_RE = re.compile(r"^-?[0-9]+$")

# Bytes of value lines that load_table parses, and value lines that save_table
# formats, at once; a whole file at once would hold every line's copy.
_LOAD_BLOCK = 1 << 16
_SAVE_BLOCK = 1 << 12


@dataclass
class TauTable:
    """Exact tau(1..limit); values[0] is a zero sentinel, entries are exact ints.

    Two caches ride on the table, outside ==, repr and pickling: `ladder`, the
    integer solver's sorted greedy ladder (see waring_int._greedy_descent),
    and `tau_memo`, the tau values tau_factored built from the prime entries.
    Both assume `values` is not mutated once they are filled: a changed table
    needs a new TauTable, whose caches start empty.
    """

    limit: int
    values: list[int]
    ladder: tuple | None = field(default=None, init=False, repr=False, compare=False)
    tau_memo: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self):
        return {**self.__dict__, "ladder": None, "tau_memo": None}

    def tau(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise ValueError(f"n={n} outside table range [1, {self.limit}]")
        return self.values[n]


def save_table(path, table: TauTable) -> None:
    """Write the line-oriented cache format (header + one value per line),
    _SAVE_BLOCK value lines at a time."""
    values = table.values
    with open(path, "w", encoding="ascii", newline="") as fh:
        fh.write(f"TAU-TABLE v1 limit={table.limit}\n")
        for lo in range(1, table.limit + 1, _SAVE_BLOCK):
            fh.write("".join([f"{n}\t{values[n]}\n"
                              for n in range(lo, min(lo + _SAVE_BLOCK, table.limit + 1))]))


def load_table(path) -> TauTable:
    """Parse a saved table; raises TableFormatError with a line number on damage.

    Value lines are parsed a block of about _LOAD_BLOCK bytes at a time: one
    translate() proves the block is digits and '-' with one tab and one
    newline per line, and one json.loads turns every field into an int. A
    block that fails either step, or whose indices are not the next ones,
    goes through _load_lines, which accepts a superset of what JSON does
    (leading zeros, say) with equal values, and names the first bad line.
    """
    # A text read, so a non-ASCII byte raises the text decoder's error; a
    # bytes read would report its position differently.
    with open(path, "r", encoding="ascii", newline="") as fh:
        data = fh.read().encode("ascii")
    if not data.endswith(b"\n"):
        raise TableFormatError("line 1: file is not newline-terminated")
    if data.endswith(b"\n\n"):
        raise TableFormatError("trailing blank line at end of file")
    start = data.index(b"\n") + 1
    header = data[: start - 1].decode("ascii")
    m = TABLE_HEADER_RE.match(header)
    if not m:
        raise TableFormatError(f"line 1: bad header {header!r}")
    limit = int(m.group(1))
    if limit < 1:
        raise TableFormatError("line 1: limit must be >= 1")
    n_lines = data.count(b"\n")
    if n_lines - 1 != limit:
        raise TableFormatError(
            f"line {n_lines}: expected {limit} value lines, found {n_lines - 1}"
        )
    values = [0]
    n = 1  # index of the block's first line
    while start < len(data):
        end = data.find(b"\n", start + _LOAD_BLOCK) + 1 or len(data)
        block = data[start:end]
        k = block.count(b"\n")
        nums = None
        if block.translate(None, b"0123456789-") == b"\t\n" * k:
            with suppress(ValueError):  # not JSON integers, or past int()'s digit limit
                nums = json.loads(b"[" + block[:-1].replace(b"\t", b",").replace(b"\n", b",")
                                  + b"]")
        if nums is not None and nums[0::2] == list(range(n, n + k)):
            values.extend(nums[1::2])
        else:
            _load_lines(block.decode("ascii").split("\n")[:-1], n, values)
        start, n = end, n + k
    return TauTable(limit=limit, values=values)


def _load_lines(lines, n, values) -> None:
    """Append the values of `lines`, which hold indices n, n+1, ..., to `values`."""
    for n, line in enumerate(lines, start=n):
        # The text is ASCII, so isdigit() accepts exactly _VALUE_RE's digits.
        index, tab, value = line.partition("\t")
        if not tab or not (value[1:] if value[:1] == "-" else value).isdigit():
            raise TableFormatError(f"line {n + 1}: malformed entry {line!r}")
        if index != str(n):
            raise TableFormatError(f"line {n + 1}: expected index {n}, found {index!r}")
        values.append(int(value))


def primes_in(lo: int, hi: int) -> list[int]:
    """All primes q with lo < q <= hi, ascending. Empty list when none.

    An odd-only bytearray sieve of 0..hi: byte i stands for 2i + 1.
    """
    if hi < lo:
        raise ValueError(f"need hi >= lo, got ({lo}, {hi})")
    if hi < 2:
        return []
    n = (hi + 1) // 2
    odd = bytearray([1]) * n
    odd[0] = 0  # 1 is not prime
    for i in range(1, (isqrt(hi) + 1) // 2):
        if odd[i]:
            q = 2 * i + 1
            first = q * q // 2
            odd[first::q] = bytes(len(range(first, n, q)))
    start = max(lo + 1, 0) // 2  # the first odd number above lo is 2 start + 1
    return [2] * (lo < 2) + list(compress(range(2 * start + 1, hi + 1, 2), odd[start:]))


@lru_cache(maxsize=32)
def primes_upto(limit: int) -> tuple[int, ...]:
    """All primes <= limit, ascending; sieved once per limit."""
    return tuple(primes_in(1, limit)) if limit > 1 else ()


def factor_within(n: int, limit: int) -> list[tuple[int, int]] | None:
    """(prime, exponent) pairs of n, primes ascending; None when n < 1 or a
    prime factor of n exceeds limit. Trial division by the primes up to
    min(limit, sqrt(n)), at most pi(limit) divisions however large n is, plus
    O(log^2 e) for an exponent e, taken out by q, q^2, q^4, ... while they
    divide; the sieve is cached per power of two above min(limit, sqrt(n))."""
    if n < 1:
        return None
    pairs = []
    for q in primes_upto(1 << isqrt(min(n, limit * limit)).bit_length()):
        if q * q > n or q > limit:
            break
        if n % q == 0:
            e = 0
            while n % q == 0:
                qk, k = q, 1
                while n % qk == 0:
                    n, e, qk, k = n // qk, e + k, qk * qk, 2 * k
            pairs.append((q, e))
    if n > 1:
        if n > limit:
            return None
        pairs.append((n, 1))
    return pairs


@lru_cache(maxsize=256)
def table_prime(p: int, limit: int) -> bool:
    """True iff p is a prime in (23, limit^2], settled by trial division by
    the primes up to sqrt(p) <= limit, so the table bounds the work."""
    return 23 < p <= limit**2 and factor_within(p, p) == [(p, 1)]


def coprime_to_23_factorial(n: int) -> bool:
    """True iff n has no prime factor <= 23 (i.e. gcd(n, 23!) = 1)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return gcd(n, PRIMORIAL_23) == 1


def tau_prime_power(tau_q: int, q: int, alpha: int) -> int:
    """tau(q^alpha) via tau(q^(a+2)) = tau(q^(a+1)) tau(q) - q^11 tau(q^a)."""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if alpha == 0:
        return 1
    prev, cur = 1, tau_q
    q11 = q**11
    for _ in range(alpha - 1):
        prev, cur = cur, cur * tau_q - q11 * prev
    return cur


def tau_from_factors(pairs, prime_tau) -> int:
    """tau(prod q^e) from prime values prime_tau[q] by multiplicativity plus the Hecke rule."""
    out = 1
    for q, e in pairs:
        out *= tau_prime_power(prime_tau[q], q, e)
    return out


def tau_factored(n: int, table: TauTable) -> int | None:
    """Exact tau(n) from the table's prime entries; None for n < 1, a prime
    factor past the table, or n > limit^5, which is refused unfactored (no
    emitter writes one). Each index is factored once per table: its tau is
    kept in table.tau_memo, cleared at TAU_MEMO_CAP entries."""
    memo = table.tau_memo
    if memo is None:
        memo = table.tau_memo = {}
    tau = memo.get(n)
    if tau is None:
        if n > table.limit**5:
            return None
        pairs = factor_within(n, table.limit)
        if pairs is None:
            return None
        tau = tau_from_factors(pairs, table.values)
        if len(memo) >= TAU_MEMO_CAP:
            memo.clear()
        memo[n] = tau
    return tau


def json_int(value, field: str) -> int:
    """An integer certificate field: a JSON integer or a decimal string."""
    if type(value) is int:
        return value
    if isinstance(value, str) and _VALUE_RE.match(value):
        with suppress(ValueError):  # a digit string past int()'s length limit
            return int(value)
    raise ValueError(f"certificate field {field!r} must be an integer, got {value!r:.40}")


def json_ints(value, field: str) -> list[int]:
    if not isinstance(value, list):
        raise ValueError(f"certificate field {field!r} must be a list, got {value!r:.40}")
    if set(map(type, value)) <= {int}:  # the common case, kept as fast as int()
        return list(value)
    return [json_int(v, f"{field}[{i}]") for i, v in enumerate(value)]


def json_object(value, ints: dict, field: str) -> dict:
    """A copy of a JSON object field; each key of `ints` present is decoded by
    json_int, or as an object by json_object where `ints` maps it to a dict."""
    if not isinstance(value, dict):
        raise ValueError(f"certificate field {field!r} must be an object, got {value!r:.40}")
    out = dict(value)
    for key, inner in ints.items():
        if key in out:
            name = f"{field}.{key}"
            out[key] = json_object(out[key], inner, name) if inner else json_int(out[key], name)
    return out


@dataclass(frozen=True, slots=True)
class Kind:
    """How one certificate kind is written and checked: its required JSON
    fields as (attribute, key, decoder), the meta fields decoded as integers
    (see json_object), and per JSON key, "meta.<name>" or "meta" (any meta
    field), the |value| from which an integer is written as a string. caps
    bounds the (plus, minus) term counts; a modular kind claims a residue."""

    fields: tuple
    meta_ints: dict
    texts: dict
    caps: tuple[int, int]
    modular: bool
    coprime: bool


# JSON doubles hold every integer below 2^53 exactly; mod-p kinds write larger
# ones as strings. integer_sum writes target and max_abs_tau as strings.
KINDS = {
    "integer_sum": Kind(
        fields=(("target", "target", json_int), ("plus", "plus", json_ints)),
        meta_ints=dict.fromkeys(("term_count", "max_index", "max_abs_tau", "index_bound",
                                 "exact_terms", "max_terms")),
        texts={"target": 0, "meta.max_abs_tau": 0},
        caps=(inf, 0), modular=False, coprime=False,
    ),
    **{kind: Kind(
        fields=(("p", "p", json_int), ("lam", "lambda", json_int),
                ("plus", "plus", json_ints), ("minus", "minus", json_ints)),
        meta_ints={"max_index": None, "index_bound": None,
                   "counts": {"plus": None, "minus": None}},
        texts={"plus": 2**53, "minus": 2**53, "meta": 2**53},
        caps=caps, modular=True, coprime=kind == "pm32",
    ) for kind, caps in MODP_CAPS.items()},
}


def _text(value, since: int | None):
    """value, or its decimal string when it is an int with |value| >= since."""
    if since is not None and isinstance(value, int) and abs(value) >= since:
        return str(value)
    return value


@dataclass(slots=True)
class Certificate:
    """A claim of one of the KINDS: integer_sum claims target = sum of tau(n)
    over plus; a mod-p kind claims lam = sum tau(plus) - sum tau(minus) mod p."""

    kind: str
    p: int | None = None
    lam: int | None = None
    plus: list[int] = field(default_factory=list)
    minus: list[int] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    target: int | None = None

    def to_json_dict(self) -> dict:
        rules = KINDS[self.kind]
        texts = rules.texts
        out = {"kind": self.kind}
        for attr, key, _ in rules.fields:
            value, since = getattr(self, attr), texts.get(key)
            if isinstance(value, list):  # plus and minus, lists of ints
                value = list(value) if since is None else [_text(v, since) for v in value]
            out[key] = _text(value, since)
        every = texts.get("meta")
        out["meta"] = {k: _text(v, texts.get(f"meta.{k}", every)) for k, v in self.meta.items()}
        return out


def decode(obj) -> Certificate:
    """The certificate a JSON object encodes. A ValueError names the unknown
    kind, or the first missing or wrongly typed field."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    rules = KINDS.get(kind) if isinstance(kind, str) else None
    if rules is None:
        raise ValueError(f"unknown certificate kind {kind!r:.40}")
    for _, key, _ in rules.fields:
        if key not in obj:
            raise ValueError(f"{kind} certificate has no {key!r} field")
    fields = {attr: decoder(obj[key], key) for attr, key, decoder in rules.fields}
    return Certificate(kind, meta=json_object(obj.get("meta", {}), rules.meta_ints, "meta"),
                       **fields)


def check(cert: Certificate, table: TauTable) -> tuple[int | None, bool]:
    """(recomputed, verdict) of a certificate, from the table's prime entries.

    recomputed is the signed sum of tau over the indices, mod p for a modular
    kind, each tau rebuilt by tau_factored, never read off the table. Then the
    rules of the kind: an unknown kind, counts past the caps, or a p that is
    not a prime in (23, limit^2] give (None, False). An index outside [1,
    limit] (integer_sum) or [1, limit^5] (modular), or with a prime factor
    past the table, fails; integer_sum leaves it out of the sum, a modular
    kind gives (None, False). The sum matches the claim, there is a term, the
    meta's max_index is the largest index, and pm32's indices are coprime to
    23!. A modular meta gives index_bound and counts; integer_sum's gives
    term_count and may give max_abs_tau, exact_terms, index_bound, max_terms.
    """
    rules = KINDS.get(cert.kind)
    if rules is None:
        return None, False
    plus, minus, modular = cert.plus, cert.minus, rules.modular
    if (len(plus) > rules.caps[0] or len(minus) > rules.caps[1]
            or modular and not table_prime(cert.p, table.limit)):
        return None, False
    # tau_factored refuses n > limit^5; integer sums repeat few indices many times
    bound, indices = (inf, plus + minus) if modular else (table.limit, set(plus))
    tau_of = {n: tau_factored(n, table) if n <= bound else None for n in indices}
    if None in tau_of.values():
        if modular:
            return None, False
        return sum(tau for n in plus if (tau := tau_of[n]) is not None), False
    get = tau_of.__getitem__
    recomputed = sum(map(get, plus)) - sum(map(get, minus)) if minus else sum(map(get, plus))
    if modular:
        recomputed %= cert.p
    if not tau_of or recomputed != (cert.lam if modular else cert.target):
        return recomputed, False
    top = max(tau_of)
    meta = cert.meta
    if (meta.get("max_index") != top
            or rules.coprime and not all(map(coprime_to_23_factorial, tau_of))):
        return recomputed, False
    if modular:
        counts = meta.get("counts", {})
        return recomputed, (top <= meta.get("index_bound", 0)
                            and counts.get("plus") == len(plus)
                            and counts.get("minus") == len(minus))
    n_terms = len(plus)
    max_abs = max(map(abs, tau_of.values()))
    return recomputed, (meta.get("term_count") == n_terms
                        and meta.get("max_abs_tau", max_abs) == max_abs
                        and top <= meta.get("index_bound", top)
                        and meta.get("exact_terms", n_terms) == n_terms
                        and n_terms <= meta.get("max_terms", n_terms))


def verdict(cert: Certificate, table: TauTable) -> bool:
    """The verdict of check."""
    return check(cert, table)[1]
