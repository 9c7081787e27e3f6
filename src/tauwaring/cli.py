"""Command-line surface: table building, verification sweeps, representation
solvers and certificate checking.

Exit codes are part of the contract so shell harnesses can tell failure modes
apart: 0 success, 1 verification failure, 2 infeasible / search exhausted,
3 invalid input or unsupported modulus. Every certificate-writing command
re-verifies its output through the independent verifier before exiting 0.
Only the verifier is imported up front, so `check --table` never loads numpy.

A table file comes from --table, else TAU_TABLE_PATH. `represent` and `modp`
parse only its first lines, as many as they would build without a file;
`modp` parses the whole file too where that prefix may have cut its window
or its error short. `check` and `verify` parse and check all of it, so only
they see damage past the prefix.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from math import isqrt

from . import verify
from .errors import InfeasibleError, TableFormatError, TauwaringError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INFEASIBLE = 2
EXIT_INVALID = 3

TABLE_ENV = "TAU_TABLE_PATH"


class CliInputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; our contract reserves 2 for
    # infeasibility, so parse errors are rerouted to exit 3.
    def error(self, message):
        raise CliInputError(message)


def _table_file(table_path):
    """The table file a command reads: --table, else TAU_TABLE_PATH, else None."""
    return table_path or os.environ.get(TABLE_ENV) or None


def _resolve_table(path, limit, fallback_limit, upto=None) -> verify.TauTable:
    """The table file `path` read to value line `upto`, else a table built to
    --limit, else to fallback_limit."""
    if limit is not None and limit < 1:
        raise CliInputError("--limit must be >= 1")
    if path:
        return verify.load_table(path, upto)
    from .tau_core import build_tau_table_series
    return build_tau_table_series(limit or fallback_limit)


def _emit(out, cert, table, summary: str) -> int:
    """Self-check the certificate, write it (to `out`, else stdout), then the summary line."""
    if not verify.check(cert, table)[1]:
        print("SELF-CHECK FAILED: certificate did not re-verify", file=sys.stderr)
        return EXIT_VERIFY_FAIL
    payload = json.dumps(cert.to_json_dict(), indent=None, sort_keys=True)
    if out:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    print(summary)
    return EXIT_OK


def cmd_table(args) -> int:
    from .tau_core import build_tau_table_series
    if args.limit < 1:
        raise CliInputError("--limit must be >= 1")
    out = args.out if args.out is not None else os.environ.get(TABLE_ENV, "tau_table.txt")
    table = build_tau_table_series(args.limit)
    verify.save_table(out, table)
    with open(out, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    print(f"TAU-TABLE v1 limit={table.limit} sha256={digest}")
    return EXIT_OK


# Each suite's sweep in identity_suite over (table, hi), returning its violation
# lines; verify_zero_sums takes the table alone and raises InternalCheckError,
# which names the bad block.
SUITES = {"mod691": "check_mod691", "mod256": "check_mod256_odd", "deligne": "check_deligne_all",
          "hecke": "check_hecke_all", "zero-sums": "verify_zero_sums",
          "multiplicativity": "check_multiplicativity"}


def cmd_verify(args) -> int:
    from . import identity_suite
    table = _resolve_table(_table_file(args.table), args.limit, fallback_limit=2000)
    hi = min(args.limit or table.limit, table.limit)
    sweep = getattr(identity_suite, SUITES[args.suite])
    violations = (sweep(table) or []) if args.suite == "zero-sums" else sweep(table, hi=hi)
    for line in violations:
        print(line)
    print(f"VERIFY {args.suite} violations={len(violations)}")
    return EXIT_OK if not violations else EXIT_VERIFY_FAIL


def cmd_represent(args) -> int:
    from . import waring_int
    target = int(args.target)
    if args.residue:
        if not 0 <= target < waring_int.RESIDUE_MODULUS:
            raise CliInputError(f"residue targets live in [0, {waring_int.RESIDUE_MODULUS})")
        if args.max_terms < waring_int.RESIDUE_TERM_COUNT:
            raise CliInputError(
                f"residue mode emits exactly {waring_int.RESIDUE_TERM_COUNT} terms,"
                f" which exceeds --max-terms {args.max_terms}")
        cert = waring_int.represent_residue_198(target)
        table = _resolve_table(_table_file(args.table), args.limit, 105, upto=105)
    else:
        params = waring_int.RepresentationParams(
            c_bound=args.c_bound, max_terms=args.max_terms
        )
        budget = waring_int.index_budget(target, params.c_bound)
        # the zero certificate's six-term blocks reach index MAX_RESIDUE_INDEX;
        # the solver reads no index past its budget, so a file's prefix serves
        need = max(budget, waring_int.MAX_RESIDUE_INDEX)
        table = _resolve_table(_table_file(args.table), args.limit, need, upto=need)
        cert = waring_int.represent_integer(target, params, table)
    if max(cert.plus) > table.limit:
        raise ValueError(f"table covers {table.limit}, certificate needs index {max(cert.plus)}")
    return _emit(args.out, cert, table,
                 f"REPRESENT target={target} terms={cert.meta['term_count']}"
                 f" max_index={cert.meta['max_index']}")


def cmd_modp(args) -> int:
    from . import modp_basis
    p = args.p
    # sum16 needs the table to reach p. The pm32 window of every sampled prime
    # up to 1e7 settled at 26.2 or 41.9 sqrt(p); 67 sqrt(p) is one growth step more.
    reach = p if args.mode == "sum16" or p < 2000 else min(p, 67 * isqrt(p))
    need = max(2000, reach)

    def solve(table):
        """The certificate on table, and whether a longer table leaves it as is."""
        if args.mode == "sum16":
            ctx = modp_basis.build_abc_context(p, table)
            return modp_basis.represent_sum16(args.lam, p, table, ctx=ctx), True
        represent = (modp_basis.represent_pm32 if args.mode == "pm32"
                     else modp_basis.represent_sum96)
        ctx = modp_basis.build_context(p, table)
        # a window held at the table's end may settle further on a longer table
        return represent(args.lam, ctx, table), ctx.window[1] < table.limit

    path = _table_file(args.table)
    table = _resolve_table(path, args.limit, need, upto=need)
    # A prefix of `need` lines may stop short of the file. Where it leaves the
    # window unsettled, or raises an error that a table's size can decide, the
    # whole file is read, so the outcome and error line are a full load's.
    prefix = path and table.limit == need
    try:
        cert, settled = solve(table)
    except (ValueError, InfeasibleError):
        if not prefix:
            raise
        settled = False
    if prefix and not settled:
        table = verify.load_table(path)
        cert = solve(table)[0]
    return _emit(args.out, cert, table,
                 f"MODP p={p} lambda={cert.lam} mode={cert.kind}"
                 f" terms={len(cert.plus)}+{len(cert.minus)} max_index={cert.meta['max_index']}")


def _check_file(path, table_of) -> int:
    """Check one certificate file against table_of(), print its CHECK or
    error line, and return the exit code of a one-file check."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            obj = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: unreadable certificate: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        cert = verify.decode(obj)
    except ValueError as exc:  # an unknown kind, or a missing or wrongly typed field
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    recomputed, ok = verify.check(cert, table_of())
    head = (f"target={cert.target}" if cert.kind == "integer_sum"
            else f"p={cert.p} lambda={cert.lam}")
    print(f"CHECK {cert.kind} {head} recomputed={recomputed} ok={ok}")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_check(args) -> int:
    # Loaded at the first certificate that decodes, then shared, with its tau
    # memo, by the rest. Never sized from a certificate, so its claims cannot
    # set the work.
    table_of = functools.cache(
        lambda: _resolve_table(_table_file(args.table), args.limit, fallback_limit=2000))
    codes = [_check_file(path, table_of) for path in args.certificate]
    if len(codes) > 1:
        print(f"CHECKED files={len(codes)} ok={codes.count(EXIT_OK)}"
              f" failed={codes.count(EXIT_VERIFY_FAIL)} invalid={codes.count(EXIT_INVALID)}")
    # invalid (3) outranks a false verdict (1), which outranks success (0)
    return max(codes)


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process; it holds no state of
    the environment, which the commands read when they run."""
    parser = _Parser(prog="tauwaring", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="build and save a tau table")
    p_table.add_argument("--limit", type=int, required=True)
    p_table.add_argument("--out")
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="run an identity sweep")
    p_verify.add_argument("--suite", required=True, choices=SUITES)
    p_verify.add_argument("--limit", type=int)
    p_verify.add_argument("--table")
    p_verify.set_defaults(func=cmd_verify)

    p_rep = sub.add_parser("represent", help="represent an integer as a tau sum")
    p_rep.add_argument("--target", required=True)
    p_rep.add_argument("--residue", action="store_true",
                       help="198-term residue mode, target in [0, 370944)")
    p_rep.add_argument("--c-bound", type=int, default=15, dest="c_bound")
    p_rep.add_argument("--max-terms", type=int, default=74000, dest="max_terms")
    p_rep.add_argument("--out")
    p_rep.add_argument("--table")
    p_rep.add_argument("--limit", type=int)
    p_rep.set_defaults(func=cmd_represent)

    p_modp = sub.add_parser("modp", help="represent a residue class mod p")
    p_modp.add_argument("--p", type=int, required=True)
    p_modp.add_argument("--lambda", type=int, required=True, dest="lam")
    p_modp.add_argument("--mode", required=True, choices=list(verify.MODP_CAPS))
    p_modp.add_argument("--out")
    p_modp.add_argument("--table")
    p_modp.add_argument("--limit", type=int)
    p_modp.set_defaults(func=cmd_modp)

    p_check = sub.add_parser("check", help="verify certificate files")
    p_check.add_argument("certificate", nargs="+")
    p_check.add_argument("--table")
    p_check.add_argument("--limit", type=int)
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliInputError, TableFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except TauwaringError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
