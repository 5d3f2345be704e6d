#!/usr/bin/env python3
"""Run the polar-degree-2 searches at desk scale.

Enumerates all catalog germ multisets with the right total Milnor number for
each requested (n, d) pair and prints the survivors.  The low pairs (2,3),
(2,4), (2,5) and (3,3) reproduce the known candidate lists; every other pair
comes out empty.

The default pair set is the whole k=2 region, `candidate_region(2)`.  On a
2-core machine with Python 3.11 (six runs each, interpreter start
included), the whole default run takes 0.16-0.22 s, `-k 3 7,3` 0.12-0.27 s
and `-k 3 3,8 2,19` 0.12-0.17 s: the centred-window lemma decides (7,3,3),
(3,8,3) and (2,19,3) before their pools (1,487, 10,141 and 9,066 classes)
are listed.  `-k 3 2,5 2,6 4,3` (three k=3 pairs with survivors, where the
search goes below the root) takes 0.12-0.19 s, `-k 4 2,6 2,7 3,4` (k=4
pairs cut below the root) 0.13-0.19 s, `-k 5 2,9` (376 classes: of the
pairs of k = 2..5 with pools of at most 12,000 classes, the largest pool
whose root is not cut) 0.13-0.14 s, and `-k 5` over the default pairs
0.18-0.22 s.  Pass explicit pairs and `-k` to search elsewhere.

A pair with polar degree k > (d-1)^n, such as (2,3) from k = 5 on, is
reported as infeasible on one line and the run goes on.  A malformed pair,
or one the search refuses (n < 2, a pool over the budget), exits 2 with one
``error:`` line.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from specpol import InfeasibleConfigurationError, candidate_region, enumerate_configurations


def pair(text: str) -> tuple[int, int]:
    """An ``n,d`` argument as two ints."""
    try:
        n, d = map(int, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a pair n,d of integers, got {text!r}") from None
    return n, d


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    # a usage error is one line, without the usage block
    parser.error = lambda message: parser.exit(2, f"error: {message}\n")
    parser.add_argument("pairs", nargs="*", type=pair, metavar="n,d",
                        help="pairs to search, e.g. 5,3 (default: every pair of the k=2 region)")
    parser.add_argument("-k", type=int, default=2, help="polar degree (default 2)")
    args = parser.parse_args()

    pairs = args.pairs or sorted(candidate_region(2).pairs)
    for n, d in pairs:
        t0 = time.time()
        try:
            report = enumerate_configurations(n, d, args.k)
        except InfeasibleConfigurationError as exc:
            # (2,3) is in the default list and has (d-1)^n = 4 < k from k = 5 on
            print(f"(n={n}, d={d}, k={args.k})  infeasible: {exc}\n")
            continue
        except ValueError as exc:
            parser.error(f"(n={n}, d={d}, k={args.k}): {exc}")
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
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`| head`): point stdout at devnull so the
        # flush at interpreter exit does not raise again, and stop quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
