#!/usr/bin/env python3
"""Run the polar-degree-2 searches at desk scale.

Enumerates all catalog germ multisets with the right total Milnor number for
each requested (n, d) pair and prints the survivors.  The pairs (4,3), (5,3),
(3,4), (2,6), (2,7) and (2,8) come out empty; the low ones reproduce the known
candidate lists.

The default pair set is every pair of the k=2 region that finishes in
seconds.  On a 2-core machine with Python 3.11 (five runs, search time as
printed, interpreter start not included), (3,4) and (2,6) take 0.01-0.02 s,
(2,7) 0.11-0.22 s and (2,8) 2.0-3.0 s; the whole default run takes 2.5-3.5 s
with interpreter start.  The shared host's speed drifts: on another occasion
two runs took 0.22-0.38 s at (2,7) and 3.1-3.8 s at (2,8).
The plane curves of degree 9 and up are left out: the search has no lookahead
bound yet, so it visits every node whose partial window counts fit, and (2,9)
takes about a minute (it comes out empty).  Pass explicit pairs to try one
anyway.
"""

from __future__ import annotations

import argparse
import time

from specpol import enumerate_configurations

DEFAULT_PAIRS = [(2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 3), (3, 4), (4, 3), (5, 3)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("pairs", nargs="*", metavar="n,d",
                        help="pairs to search, e.g. 5,3 (default: the pairs that finish in seconds)")
    parser.add_argument("-k", type=int, default=2, help="polar degree (default 2)")
    args = parser.parse_args()

    if args.pairs:
        pairs = [tuple(int(x) for x in p.split(",")) for p in args.pairs]
    else:
        pairs = DEFAULT_PAIRS
    for n, d in pairs:
        t0 = time.time()
        report = enumerate_configurations(n, d, args.k)
        elapsed = time.time() - t0
        print(f"(n={n}, d={d}, k={args.k})  target mu = {report.target_mu}  "
              f"[{elapsed:.2f}s]")
        print(f"  examined {report.examined}, pruned "
              + ", ".join(f"{name}={count}" for name, count in report.pruned_by))
        for label, deg in report.diagnostic_windows:
            print(f"  target degree over {label}: {deg}")
        if report.survivors:
            print(f"  {len(report.survivors)} candidate configurations:")
            for config in report.survivors:
                print(f"    {config}")
        else:
            print("  no candidate configurations (eliminated)")
        print()


if __name__ == "__main__":
    main()
