"""Seeded inputs, set-up and one measured round for each benchmark workload.

Every workload is a closed loop with one client: each library or CLI call is
issued after the previous one has returned. Inputs come from the seed alone,
and the library only ever receives the generated values.

table    builds tau(1..N) with the series engine, saves and reloads it, and
         sweeps every identity and oracle over it. The series build dominates;
         no certificate code runs, so mod-p and integer changes must not move it.
modp     three primes per run, two on the direct branch and one forced onto the
         pairs branch. Costs land in the coverage DP (build_context), in the
         coverage rebuild inside every sum16 call, and in the verifier's trial
         factorization of the large pairs-branch indices. The series build is
         set-up only.
integer  log-uniform integer targets, 198-term residues and CLI round trips
         against a saved table. The greedy ladder, the finisher and the integer
         verifier run; the series build and the coverage DP do not.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace

from spans import Tracer

# sha256 of save_table(build_tau_table_series(N)); the saved file must match.
TABLE_SHA256 = {
    2000: "5fe01649cd70cd1ed7e5e3ffdda9ef1382fb0b25d69dbb77f972223166f808da",
    10000: "bb30e9d1f522b355735d1491ed2ad86e6ee8013cca6d58ec8cc71c885b6121b1",
    20000: "e7ec796317a85482ca40b72dd4b0bec2e75f5814ce4425da0e22f0bf0604a59f",
}

RESIDUE_MODULUS = 370944


@dataclass(frozen=True)
class Sizes:
    table_limit: int  # table: tau(1..N) built in every round
    oracle_limit: int  # table: Niebur and sigma-formula indices stay <= this
    oracle_samples: int  # table: one sampled index per equal stratum
    context_limit: int  # modp, integer: table built and saved in set-up
    direct_primes: tuple  # modp: two primes on the direct branch
    pairs_prime: int  # modp: prime forced onto the pairs branch
    lambdas: tuple  # modp: pm32 and sum96 lambdas per prime, None for all of Z_p
    sum16_lambdas: tuple  # modp: sum16 lambdas per prime, in slot order
    targets: int  # integer: targets per round
    target_digits: tuple  # integer: log10 range of |target|
    residues: int  # integer: residues per round
    cli_round_trips: int  # integer: represent --out then check, per round


# The primes are fixed and the seed draws the lambdas. Between neighbouring
# primes (same window) the context build, the sum16 call and the median
# certificate differ by up to 3x, so a seeded prime would swamp the
# run-to-run spread. The sum16 counts put twelve sum16 certificates (p = 941
# and p = 499) above every pm32 and sum96 one, so op_tail_ms, the eleventh
# slowest certificate, falls among sum16 calls of one prime.
FULL = Sizes(
    table_limit=10000,
    oracle_limit=2000,
    oracle_samples=200,
    context_limit=20000,
    direct_primes=(499, 941),
    pairs_prime=389,
    lambdas=(None, 300, 12),
    sum16_lambdas=(11, 1, 2),
    targets=600,
    target_digits=(3, 17),
    residues=400,
    cli_round_trips=8,
)

# Rounds of well under a second, for tests of the harness itself.
TINY = Sizes(
    table_limit=2000,
    oracle_limit=300,
    oracle_samples=20,
    context_limit=2000,
    direct_primes=(113, 163),
    pairs_prime=41,
    lambdas=(None, 20, 4),
    sum16_lambdas=(1, 1, 1),
    targets=40,
    target_digits=(3, 9),
    residues=40,
    cli_round_trips=2,
)

SIZES = {"full": FULL, "tiny": TINY}
SLOTS = ("direct1", "direct2", "pairs")


def _log_uniform(rng: random.Random, lo_digits: float, hi_digits: float) -> int:
    return int(10 ** rng.uniform(lo_digits, hi_digits))


def table_inputs(seed: int, sizes: Sizes) -> dict:
    rng = random.Random(f"table:{seed}")
    width = sizes.oracle_limit / sizes.oracle_samples
    # One index per stratum keeps the latency mix the same from seed to seed.
    oracle = [rng.randint(int(i * width) + 1, int((i + 1) * width))
              for i in range(sizes.oracle_samples)]
    return {"limit": sizes.table_limit, "oracle_indices": oracle}


def modp_inputs(seed: int, sizes: Sizes) -> dict:
    rng = random.Random(f"modp:{seed}")
    primes = []
    for slot, p, n_lambdas, n_sum16 in zip(SLOTS, (*sizes.direct_primes, sizes.pairs_prime),
                                           sizes.lambdas, sizes.sum16_lambdas):
        branch = "pairs" if slot == "pairs" else "direct"
        lambdas = list(range(p)) if n_lambdas is None else sorted(rng.sample(range(p), n_lambdas))
        primes.append({"slot": slot, "p": p, "branch": branch, "lambdas": lambdas,
                       "sum16": sorted(rng.sample(range(p), n_sum16))})
    p1 = primes[0]["p"]
    cli = [(mode, rng.randrange(p1)) for mode in ("pm32", "sum96", "sum16")]
    return {"primes": primes, "cli": cli}


def integer_inputs(seed: int, sizes: Sizes) -> dict:
    rng = random.Random(f"integer:{seed}")

    def target():
        return rng.choice((-1, 1)) * _log_uniform(rng, *sizes.target_digits)

    return {
        "targets": [target() for _ in range(sizes.targets)],
        "residues": [rng.randrange(RESIDUE_MODULUS) for _ in range(sizes.residues)],
        "cli_targets": [target() for _ in range(sizes.cli_round_trips)],
    }


MODULES = ("cli", "divisor_arith", "identity_suite", "modp_basis", "tau_core", "waring_int")


def load_library(package: str) -> SimpleNamespace:
    """Import the package (`tauwaring`, or the frozen `tauwaring_seed`); inside
    set-up, so a cold import is part of setup_s."""
    return SimpleNamespace(**{m: importlib.import_module(f"{package}.{m}") for m in MODULES})


def file_sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Stats:
    """What one set-up or round did: checks, latencies, work done and counters."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        # Time from the previous check to the end of this one, so that the
        # steps of a round add up to the round and line up across rounds.
        self.steps: list[float] = []
        self._last = perf_counter()
        self.op_s: list[float] = []  # one checked operation each
        self.cli_s: list[float] = []  # one cli.main call each
        self.items = 0  # coefficients (table) or certificates (modp, integer)
        self.first_result_s = 0.0
        self.counts: dict[str, int] = {}

    def lap(self) -> None:
        now = perf_counter()
        self.steps.append(now - self._last)
        self._last = now

    def resume(self) -> None:
        """Restart the step clock when a round resumes after a `yield`, so that
        whatever ran while it was suspended is in none of its steps."""
        self._last = perf_counter()

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        self.lap()
        return ok

    def attempt(self, what: str, body):
        """Run one checked operation. body() returns (ok, value); an exception
        is a failure like any other. Nothing is skipped or retried."""
        self.attempted += 1
        try:
            ok, value = body()
        except Exception as exc:  # every failure is counted and the run goes on
            ok, value = False, None
            what = f"{what}: {type(exc).__name__}: {exc}"
        if not ok:
            self.failures.append(what)
        self.lap()
        return value

    def bump(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by


class Workload:
    """One workload on one library. `round` is a generator that yields after
    each operation, so that two libraries can run the same round op by op."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, workdir, tracer: Tracer,
                 package: str = "tauwaring"):
        self.sizes = sizes
        self.workdir = workdir
        self.tracer = tracer
        self.package = package
        self.inputs = INPUTS[self.name](seed, sizes)
        self.lib = None

    def call(self, name: str, fn, *args, op=None, **kwargs):
        return self.tracer.call(name, fn, *args, op=op, **kwargs)

    def setup(self, stats: Stats) -> None:
        self.lib = load_library(self.package)

    def round(self, stats: Stats):
        raise NotImplementedError

    def run_round(self, stats: Stats) -> None:
        """One whole round, on its own."""
        for _ in self.round(stats):
            stats.resume()
        stats.lap()

    def _save_checked(self, stats: Stats, table, path) -> None:
        self.call("tau_core.save_table", self.lib.tau_core.save_table, path, table)
        stats.check(file_sha256(path) == TABLE_SHA256.get(table.limit),
                    f"saved table {table.limit} has an unpinned sha256")

    def _setup_table(self, stats: Stats) -> None:
        tc = self.lib.tau_core
        n = self.sizes.context_limit
        self.table = self.call("tau_core.build_tau_table_series", tc.build_tau_table_series, n,
                               op=n)
        self.table_path = str(self.workdir / "context_table.txt")
        self._save_checked(stats, self.table, self.table_path)

    def cli(self, stats: Stats, command: str, *argv: str) -> None:
        """One in-process `tauwaring` call; anything but exit 0 is a failure."""
        def body():
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = perf_counter()
                code = self.call(f"cli.{command}", self.lib.cli.main, [command, *argv])
                stats.cli_s.append(perf_counter() - t0)
            if code != 0:
                stats.bump("cli.nonzero_exit")
            return code == 0, sink.getvalue()

        stats.attempt(f"tauwaring {command} {' '.join(argv)}", body)

    def certificate(self, stats: Stats, op, emit, verify, decode, expect):
        """Emit and verify one certificate, then round-trip it through JSON and
        verify the decoded copy. The latency sample is emit plus verify."""
        def body():
            with self.tracer.span("certificate", op):
                t0 = perf_counter()
                cert = emit()
                ok = verify(cert)
                stats.op_s.append(perf_counter() - t0)
                encoded = cert.to_json_dict()
                again = decode(json.loads(json.dumps(encoded)))
                ok = verify(again) and ok
            stats.items += 1
            return ok and again.to_json_dict() == encoded and expect(cert), cert

        return stats.attempt(f"certificate {op}", body)


class TableWorkload(Workload):
    name = "table"

    def round(self, stats: Stats):
        tc, da, ids = self.lib.tau_core, self.lib.divisor_arith, self.lib.identity_suite
        n = self.inputs["limit"]
        table = self.call("tau_core.build_tau_table_series", tc.build_tau_table_series, n, op=n)
        stats.items += n
        stats.lap()
        yield
        path = self.workdir / "table.txt"
        self._save_checked(stats, table, path)
        yield
        loaded = self.call("tau_core.load_table", tc.load_table, path)
        stats.check(loaded.limit == n and loaded.values == table.values,
                    "reloaded table differs from the built one")
        yield

        spf = self.call("divisor_arith.sieve_spf", da.sieve_spf, n)
        stats.lap()
        yield
        sweeps = (
            ("check_mod691", (table, 1, n, spf)),
            ("check_mod256_odd", (table, 1, n, spf)),
            ("check_deligne_all", (table,)),
            ("check_hecke_all", (table,)),
            ("check_multiplicativity", (table,)),
        )
        def sweep(name, args):
            report = self.call(f"identity_suite.{name}", getattr(ids, name), *args)
            return not report, report

        violations = 0
        for name, args in sweeps:
            report = stats.attempt(name, lambda: sweep(name, args))
            violations += len(report) if report is not None else 0
            yield
        stats.counts["identity_suite.violations"] = violations
        stats.attempt("verify_zero_sums", lambda: (True, self.call(
            "identity_suite.verify_zero_sums", ids.verify_zero_sums, table)))
        yield

        prime_tau = self.call("tau_core.build_prime_tau_map", tc.build_prime_tau_map, table)
        values = table.values
        for k in range(1, n + 1):
            stats.check(self.call("tau_core.tau_multiplicative", tc.tau_multiplicative,
                                  k, prime_tau, spf) == values[k],
                        f"multiplicative route differs at n={k}")
        yield

        limit = self.sizes.oracle_limit
        s1, s5, s11 = (self.call("divisor_arith.build_sigma_table", da.build_sigma_table, s, limit)
                       for s in (1, 5, 11))
        stats.lap()
        yield

        def oracle(k):
            with self.tracer.span("oracle", k):
                t0 = perf_counter()
                a = self.call("tau_core.tau_niebur", tc.tau_niebur, k, s1)
                b = self.call("tau_core.tau_sigma_formula", tc.tau_sigma_formula, k, s5, s11)
                stats.op_s.append(perf_counter() - t0)
            return a == b == values[k], None

        for k in self.inputs["oracle_indices"]:
            stats.attempt(f"oracles at n={k}", lambda: oracle(k))
            yield

        for suite in ("hecke", "deligne", "zero-sums"):
            self.cli(stats, "verify", "--suite", suite, "--table", str(path))
            yield


class ModpWorkload(Workload):
    name = "modp"

    def setup(self, stats: Stats) -> None:
        super().setup(stats)
        self._setup_table(stats)

    def _context(self, slot):
        mb = self.lib.modp_basis
        policy = mb.WindowPolicy(branch="pairs") if slot["branch"] == "pairs" else None
        ctx = self.call("modp_basis.build_context", mb.build_context, slot["p"], self.table, policy)
        return ctx.branch == slot["branch"], ctx

    def _emit(self, stats: Stats, kind: str, p: int, lam: int, emit):
        mb = self.lib.modp_basis
        return self.certificate(
            stats, f"p={p}:{kind}:{lam}",
            emit=emit,
            verify=lambda c: self.call("modp_basis.verify_modp_certificate",
                                       mb.verify_modp_certificate, c, self.table),
            decode=mb.modp_certificate_from_json,
            expect=lambda c: (c.kind, c.p, c.lam) == (kind, p, lam % p),
        )

    def round(self, stats: Stats):
        mb, table = self.lib.modp_basis, self.table
        by_cli: list = []  # library certificates that `tauwaring check` re-checks
        for slot in self.inputs["primes"]:
            p, name = slot["p"], slot["slot"]
            t0 = perf_counter()
            with self.tracer.span("prime", p):
                ctx = stats.attempt(f"build_context p={p}", lambda: self._context(slot))
                yield
                if ctx is None:
                    continue
                top = 0
                first = True
                for kind, fn in (("pm32", mb.represent_pm32), ("sum96", mb.represent_sum96)):
                    for lam in slot["lambdas"]:
                        cert = self._emit(stats, kind, p, lam, lambda: self.call(
                            f"modp_basis.represent_{kind}", fn, lam, ctx, table))
                        if first:  # context build plus the first verified pm32
                            stats.first_result_s += perf_counter() - t0
                            first = False
                        if cert is not None:
                            top = max(top, *cert.plus, *cert.minus)
                            if name == "direct1" and lam == slot["lambdas"][0]:
                                by_cli.append(cert)
                        yield
                abc = self.call("modp_basis.build_abc_context", mb.build_abc_context, p, table)
                stats.lap()
                yield
                for lam in slot["sum16"]:
                    cert = self._emit(stats, "sum16", p, lam, lambda: self.call(
                        "modp_basis.represent_sum16", mb.represent_sum16, lam, p, table, ctx=abc))
                    if cert is not None:
                        top = max(top, *cert.plus)
                    yield
            stats.counts[f"modp_basis.window_hi.{name}"] = ctx.window[1]
            stats.counts[f"modp_basis.xy_size.{name}"] = len(ctx.x_set) * len(ctx.y_set)
            stats.counts[f"modp_basis.max_index_digits.{name}"] = len(str(top))

        p1 = self.inputs["primes"][0]["p"]
        for mode, lam in self.inputs["cli"]:
            out = str(self.workdir / f"modp-{mode}.json")
            self.cli(stats, "modp", "--p", str(p1), "--lambda", str(lam), "--mode", mode,
                     "--table", self.table_path, "--out", out)
            yield
            self.cli(stats, "check", out, "--table", self.table_path)
            yield
        for cert in by_cli:
            out = str(self.workdir / f"library-{cert.kind}.json")
            with open(out, "w", encoding="ascii") as fh:
                json.dump(cert.to_json_dict(), fh)
            self.cli(stats, "check", out, "--table", self.table_path)
            yield


class IntegerWorkload(Workload):
    name = "integer"

    def setup(self, stats: Stats) -> None:
        super().setup(stats)
        self._setup_table(stats)
        self.params = self.lib.waring_int.RepresentationParams()
        # The first call fills the finisher's distance table; later calls reuse it.
        self._emit(stats, 1, lambda: self.call(
            "waring_int.represent_integer", self.lib.waring_int.represent_integer,
            1, self.params, self.table))

    def _emit(self, stats: Stats, target: int, emit):
        wi = self.lib.waring_int
        return self.certificate(
            stats, target,
            emit=emit,
            verify=lambda c: self.call("waring_int.verify_integer_certificate",
                                       wi.verify_integer_certificate, c, self.table),
            decode=wi.sum_certificate_from_json,
            expect=lambda c: c.target == target,
        )

    def round(self, stats: Stats):
        wi, table, params = self.lib.waring_int, self.table, self.params
        terms = finisher_terms = top = 0
        for target in self.inputs["targets"]:
            cert = self._emit(stats, target, lambda: self.call(
                "waring_int.represent_integer", wi.represent_integer, target, params, table))
            yield
            if cert is None:
                continue
            terms += len(cert.plus)
            top = max(top, *cert.plus)
            tail = 0
            for n in reversed(cert.plus):
                if n > 10:
                    break
                tail += 1
            finisher_terms += tail
        stats.counts["waring_int.terms"] = terms
        stats.counts["waring_int.finisher_terms"] = finisher_terms
        stats.counts["waring_int.max_index"] = top

        for r in self.inputs["residues"]:
            self._emit(stats, r, lambda: self.call(
                "waring_int.represent_residue_198", wi.represent_residue_198, r))
            yield

        out = str(self.workdir / "integer.json")
        for target in self.inputs["cli_targets"]:
            self.cli(stats, "represent", f"--target={target}", "--table", self.table_path,
                     "--out", out)
            yield
            self.cli(stats, "check", out, "--table", self.table_path)
            yield


INPUTS = {"table": table_inputs, "modp": modp_inputs, "integer": integer_inputs}
WORKLOADS = {w.name: w for w in (TableWorkload, ModpWorkload, IntegerWorkload)}
