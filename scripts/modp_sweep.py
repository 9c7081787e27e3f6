#!/usr/bin/env python3
"""Full-lambda certificate sweeps over Z_p with summary statistics.

For each prime the script builds the witnessed context, emits and verifies a
certificate for every residue class in every requested mode, and prints the
branch taken, the window (for sum16, the index bound), term-count ranges, the
largest index used, and the empirical additive basis order of
{tau(n) mod p : n <= p} for comparison.

Usage: python3 scripts/modp_sweep.py --primes 29 31 101 499 [--modes pm32 sum96 sum16]
"""

import argparse
import time

from tauwaring.modp_basis import (
    basis_order_scan,
    build_abc_context,
    build_context,
    represent_pm32,
    represent_sum16,
    represent_sum96,
)
from tauwaring.tau_core import build_tau_table_series
from tauwaring.verify import MODP_CAPS, verdict


def sweep(p, mode, table):
    t0 = time.perf_counter()
    if mode == "sum16":
        ctx = build_abc_context(p, table)
        certs = [represent_sum16(lam, p, table, ctx=ctx) for lam in range(p)]
        detail = f"branch={ctx.branch} index_bound={ctx.index_bound}"
    else:
        ctx = build_context(p, table)
        emit = represent_pm32 if mode == "pm32" else represent_sum96
        certs = [emit(lam, ctx, table) for lam in range(p)]
        detail = f"branch={ctx.branch} window={ctx.window}"
    bad = [c.lam for c in certs if not verdict(c, table)]
    sizes = [len(c.plus) + len(c.minus) for c in certs]
    top = max(max(c.plus + c.minus) for c in certs)
    dt = time.perf_counter() - t0
    status = "all-verified" if not bad else f"FAILED at {bad[:5]}"
    print(f"p={p:<4d} {mode:<6s} {detail:<34s} terms={min(sizes)}..{max(sizes)}"
          f" max_index={top} {status} ({dt:.2f}s)")
    return not bad


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--primes", type=int, nargs="+", default=[29, 31, 101, 499])
    ap.add_argument("--modes", nargs="+", default=list(MODP_CAPS), choices=list(MODP_CAPS))
    ap.add_argument("--limit", type=int, default=20_000)
    args = ap.parse_args()

    t0 = time.perf_counter()
    table = build_tau_table_series(args.limit)
    print(f"# table built to {args.limit} in {time.perf_counter() - t0:.2f}s")

    ok = True
    for p in args.primes:
        for mode in args.modes:
            ok &= sweep(p, mode, table)
        k = basis_order_scan(p, min(p, table.limit), table)
        print(f"p={p:<4d} empirical basis order of tau(n), n <= {p}: {k}")
    raise SystemExit(0 if ok else 1)


if __name__ == "__main__":
    main()
