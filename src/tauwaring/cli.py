"""Command-line surface: table building, verification sweeps, representation
solvers and certificate checking.

Exit codes are part of the contract so shell harnesses can tell failure modes
apart: 0 success, 1 verification failure, 2 infeasible / search exhausted,
3 invalid input or unsupported modulus. Every certificate-writing command
re-verifies its output through the independent verifier before exiting 0.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from math import isqrt

from . import identity_suite, modp_basis, waring_int
from .errors import (
    CapacityError,
    InfeasibleError,
    TableFormatError,
    TauwaringError,
)
from .tau_core import TauTable, build_tau_table_series, load_table, save_table

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


def _resolve_table(table_path, limit, fallback_limit) -> TauTable:
    if limit is not None and limit < 1:
        raise CliInputError("--limit must be >= 1")
    if table_path:
        return load_table(table_path)
    env_path = os.environ.get(TABLE_ENV)
    if env_path:
        return load_table(env_path)
    return build_tau_table_series(limit or fallback_limit)


def _emit(out, cert, verified: bool, summary: str) -> int:
    """Write a self-checked certificate (to `out`, else stdout), then the summary line."""
    if not verified:
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
    if args.limit < 1:
        raise CliInputError("--limit must be >= 1")
    table = build_tau_table_series(args.limit)
    save_table(args.out, table)
    with open(args.out, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    print(f"TAU-TABLE v1 limit={table.limit} sha256={digest}")
    return EXIT_OK


# Each suite's sweep over (table, hi), returning its violation lines.
SUITES = {
    "mod691": identity_suite.check_mod691,
    "mod256": identity_suite.check_mod256_odd,
    "deligne": identity_suite.check_deligne_all,
    "hecke": identity_suite.check_hecke_all,
    # a bad block raises InternalCheckError, which names it
    "zero-sums": lambda table, hi: identity_suite.verify_zero_sums(table) or [],
    "multiplicativity": identity_suite.check_multiplicativity,
}


def cmd_verify(args) -> int:
    table = _resolve_table(args.table, args.limit, fallback_limit=2000)
    hi = min(args.limit or table.limit, table.limit)
    violations = SUITES[args.suite](table, hi=hi)
    for line in violations:
        print(line)
    print(f"VERIFY {args.suite} violations={len(violations)}")
    return EXIT_OK if not violations else EXIT_VERIFY_FAIL


def cmd_represent(args) -> int:
    target = int(args.target)
    if args.residue:
        if not 0 <= target < waring_int.RESIDUE_MODULUS:
            raise CliInputError(f"residue targets live in [0, {waring_int.RESIDUE_MODULUS})")
        if args.max_terms < waring_int.RESIDUE_TERM_COUNT:
            raise CliInputError(
                f"residue mode emits exactly {waring_int.RESIDUE_TERM_COUNT} terms,"
                f" which exceeds --max-terms {args.max_terms}")
        cert = waring_int.represent_residue_198(target)
        table = _resolve_table(args.table, args.limit, fallback_limit=105)
    else:
        params = waring_int.RepresentationParams(
            c_bound=args.c_bound, max_terms=args.max_terms
        )
        budget = waring_int.index_budget(target, params.c_bound)
        # the zero certificate's six-term blocks reach index MAX_RESIDUE_INDEX
        table = _resolve_table(args.table, args.limit,
                               fallback_limit=max(budget, waring_int.MAX_RESIDUE_INDEX))
        cert = waring_int.represent_integer(target, params, table)
    if max(cert.plus) > table.limit:
        raise ValueError(f"table covers {table.limit}, certificate needs index {max(cert.plus)}")
    return _emit(args.out, cert, waring_int.verify_integer_certificate(cert, table),
                 f"REPRESENT target={target} terms={cert.meta['term_count']}"
                 f" max_index={cert.meta['max_index']}")


def cmd_modp(args) -> int:
    p = args.p
    # sum16 needs the table to reach p. The pm32 window of every sampled prime
    # up to 1e7 settled at 26.2 or 41.9 sqrt(p); 67 sqrt(p) is one growth step more.
    reach = p if args.mode == "sum16" or p < 2000 else min(p, 67 * isqrt(p))
    table = _resolve_table(args.table, args.limit, fallback_limit=max(2000, reach))
    if args.mode == "sum16":
        ctx = modp_basis.build_abc_context(p, table)
        cert = modp_basis.represent_sum16(args.lam, p, table, ctx=ctx)
    else:
        represent = (modp_basis.represent_pm32 if args.mode == "pm32"
                     else modp_basis.represent_sum96)
        cert = represent(args.lam, modp_basis.build_context(p, table), table)
    return _emit(args.out, cert, modp_basis.verify_modp_certificate(cert, table),
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
    kind = obj.get("kind") if isinstance(obj, dict) else None
    try:
        if kind == "integer_sum":
            cert = waring_int.sum_certificate_from_json(obj)
            check, head = waring_int.check_integer_certificate, f"target={cert.target}"
        elif isinstance(kind, str) and kind in modp_basis.MODP_CAPS:
            cert = modp_basis.modp_certificate_from_json(obj)
            check, head = modp_basis.check_modp_certificate, f"p={cert.p} lambda={cert.lam}"
        else:
            print(f"error: unknown certificate kind {kind!r:.40}", file=sys.stderr)
            return EXIT_INVALID
    except ValueError as exc:  # a missing or wrongly typed field
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    recomputed, ok = check(cert, table_of())
    print(f"CHECK {kind} {head} recomputed={recomputed} ok={ok}")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_check(args) -> int:
    # Loaded at the first certificate that decodes, then shared, with its tau
    # memo, by the rest. Never sized from a certificate, so its claims cannot
    # set the work.
    table_of = functools.cache(
        lambda: _resolve_table(args.table, args.limit, fallback_limit=2000))
    codes = [_check_file(path, table_of) for path in args.certificate]
    if len(codes) > 1:
        print(f"CHECKED files={len(codes)} ok={codes.count(EXIT_OK)}"
              f" failed={codes.count(EXIT_VERIFY_FAIL)} invalid={codes.count(EXIT_INVALID)}")
    # invalid (3) outranks a false verdict (1), which outranks success (0)
    return max(codes)


def build_parser() -> _Parser:
    parser = _Parser(prog="tauwaring", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="build and save a tau table")
    p_table.add_argument("--limit", type=int, required=True)
    p_table.add_argument("--out", default=os.environ.get(TABLE_ENV, "tau_table.txt"))
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
    p_modp.add_argument("--mode", required=True, choices=list(modp_basis.MODP_CAPS))
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
    except (CliInputError, CapacityError, TableFormatError, ValueError, OSError) as exc:
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
