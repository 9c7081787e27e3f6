#!/usr/bin/env python3
"""Scan a tau table for dyadic congruence witnesses and admissible sets.

For each j in 1..12 the scan looks for the least prime l with
tau(l) = 2^j (mod 8*691); such primes certify that large admissible sets
exist. The second half greedily grows an admissible set (all 6-element
tau sums distinct) from the primes above 23 and certifies it.

Usage: python3 scripts/scan_dyadic_primes.py [--limit 100000] [--cap 12]
"""

import argparse
import time

from tauwaring.tau_core import build_tau_table_series
from tauwaring.verify import primes_in
from tauwaring.waring_int import find_dyadic_tau_primes, grow_admissible


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--limit", type=int, default=100_000)
    ap.add_argument("--cap", type=int, default=12, help="admissible set size target")
    args = ap.parse_args()

    t0 = time.perf_counter()
    table = build_tau_table_series(args.limit)
    print(f"# table built to {args.limit} in {time.perf_counter() - t0:.2f}s")

    found = find_dyadic_tau_primes(args.limit, table)
    print("# dyadic witnesses tau(l) = 2^j (mod 5528)")
    for j in range(1, 13):
        if j in found:
            q = found[j]
            print(f"j={j:<2d} l={q:<8d} tau(l) mod 5528 = {table.tau(q) % 5528}")
        else:
            print(f"j={j:<2d} l=-        (none below {args.limit})")
    print(f"# found {len(found)} of 12 below {args.limit}")

    t0 = time.perf_counter()
    grown = grow_admissible(primes_in(23, min(2000, args.limit)), args.cap, table)
    print(f"# greedy admissible set (cap {args.cap}), certified={grown.certified},"
          f" {time.perf_counter() - t0:.2f}s")
    print(" ".join(str(q) for q in grown.primes))


if __name__ == "__main__":
    main()
