"""A fixed reference workload that measures how fast the host runs right now.

The host this benchmark is meant for is a share of a busy machine: the same
pass can take 4 s in one minute and 6.5 s a few minutes later, with CPU time
equal to wall time, so no statistic inside a run removes the drift.  The
benchmark therefore runs short bursts of this probe between its timed ops
and reports each time scaled by how slow the probe ran around it (see
`Probe`).  The probe imports nothing from specpol, so a change to the library
cannot change it; it exercises what the library's hot code does: Fraction
comparisons and bisection over sorted rationals, small Fraction sums, a
bounded integer DFS over tuples, and dict counting.
"""

from __future__ import annotations

import gc
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

# Time one probe unit takes on the reference host (the 2-vCPU machine the
# baseline was recorded on, near its median speed).  Scaled times are reported
# as if every op had run at that speed.
REFERENCE_UNIT_S = 0.0007
# Fewest probe units in a burst, however short the op time it follows.
MIN_UNITS = 8

_PARTS = (7, 5, 4, 3, 2, 1)


def _dfs(rest: int, start: int, chosen: tuple, seen: dict) -> int:
    if rest == 0:
        seen[chosen] = seen.get(chosen, 0) + 1
        return 1
    found = 0
    for i in range(start, len(_PARTS)):
        part = _PARTS[i]
        if part <= rest:
            found += _dfs(rest - part, i, chosen + (part,), seen)
    return found


def tables() -> tuple[list, list]:
    """Sorted rationals and query points for `unit`; built once per probe, not at import."""
    keys = sorted({Fraction(p, q) for q in range(2, 13) for p in range(-q, 3 * q)})
    return keys, [Fraction(p, 6) for p in range(-6, 12)]


def unit(keys: list, queries: list) -> int:
    """One probe unit: fixed work, about a millisecond on the reference host."""
    total = 0
    for x in queries:
        total += bisect_left(keys, x + 1) - bisect_right(keys, x)
    acc = Fraction(0)
    for key in keys[::9]:
        acc += key
        if acc > 3:
            acc -= 3
    seen: dict = {}
    total += _dfs(17, 0, (), seen) + len(seen)
    return total + acc.denominator


class Probe:
    """Runs probe bursts and turns raw op times into reference-speed times.

    A burst runs probe units for a share of the time spent in ops since the
    last burst, so the probes sample the host about as often as the ops do.
    The host speed over an interval between two bursts is taken from the
    mean unit time of the two; a time measured in that interval is scaled by
    REFERENCE_UNIT_S over that mean.
    """

    def __init__(self, share: float = 0.25) -> None:
        self.share = share
        self.tables = tables()
        self.expected = unit(*self.tables)
        self.unit_s: list[float] = []  # mean unit time of each burst so far

    def burst(self, busy_s: float) -> None:
        """Run one burst sized to `busy_s` of op time and record its mean unit time.

        The collector is off during a burst, so the probe's speed does not
        depend on how large a heap the ops before it left behind (the probe
        makes no reference cycles).
        """
        budget = self.share * busy_s
        units = 0
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            elapsed = 0.0
            while units < MIN_UNITS or elapsed < budget:
                if unit(*self.tables) != self.expected:
                    raise RuntimeError("host probe computed a wrong result")
                units += 1
                elapsed = time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        self.unit_s.append(elapsed / units)

    def scale(self) -> float:
        """Factor for times measured since the burst before the last one."""
        before, after = self.unit_s[-2], self.unit_s[-1]
        return REFERENCE_UNIT_S / ((before + after) / 2)
