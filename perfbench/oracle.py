"""Brute-force window counts for the benchmark's correctness gates.

The library counts a window by bisecting a sorted key list (`deg_window`)
and finds the semicontinuity test points in `window_test_points`.  The gates
recount every window here by a linear scan over (value, multiplicity) pairs,
with their own test-point set, so a wrong count or a wrong verdict from the
library shows up as a failed op.  The rationals of one comparison are scaled
to integers over a common denominator first; that is exact and keeps the
scan fast enough to run before every measurement.

The spectra fed in come from the catalog; the test suite pins those.

Every window here is open on the left.  A window is ``(lo, hi, right_open)``
with ``lo`` None for the ray ]-inf, hi.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def test_points(support) -> list[Fraction]:
    """Every a at which a unit-window count can change, plus one a per gap and beyond each end."""
    breakpoints = sorted(set(support) | {v - 1 for v in support})
    points = breakpoints + [(x + y) / 2 for x, y in zip(breakpoints, breakpoints[1:])]
    points += [breakpoints[0] - 1, breakpoints[-1] + 1]
    return sorted(points)


def search_windows(points) -> list[tuple]:
    """The windows the search prunes with: ]a,a+1], ]-inf,a], ]a,a+1[ and ]-inf,a[ per point."""
    windows = []
    for a in points:
        windows += [(a, a + 1, False), (None, a, False), (a, a + 1, True), (None, a, True)]
    return windows


def count(pairs, lo, hi, right_open: bool) -> int:
    """Multiplicity-weighted number of values v with lo < v < hi (or <= hi)."""
    if lo is None:
        if right_open:
            return sum(m for v, m in pairs if v < hi)
        return sum(m for v, m in pairs if v <= hi)
    if right_open:
        return sum(m for v, m in pairs if lo < v < hi)
    return sum(m for v, m in pairs if lo < v <= hi)


def _den(values) -> int:
    return lcm(1, *(Fraction(v).denominator for v in values))


def _scale(x, den: int):
    return None if x is None else x.numerator * (den // x.denominator)


class WindowCounter:
    """Counts many spectra over one fixed window list."""

    def __init__(self, windows):
        self.windows = windows
        self.den = _den(hi for _lo, hi, _ro in windows)
        self._scaled = [(_scale(lo, self.den), _scale(hi, self.den), ro) for lo, hi, ro in windows]

    def counts(self, pairs) -> list[int]:
        den = lcm(self.den, _den(v for v, _m in pairs))
        f = den // self.den
        ipairs = [(_scale(v, den), m) for v, m in pairs]
        return [
            count(ipairs, None if lo is None else lo * f, hi * f, ro)
            for lo, hi, ro in self._scaled
        ]


def semicontinuity_holds(candidate, target) -> bool:
    """True when no unit window ]a,a+1] or ]a,a+1[ holds more candidate than target values."""
    values = {v for v, _m in candidate} | {v for v, _m in target}
    points = test_points(values)
    den = 2 * _den(values)
    cand = [(_scale(v, den), m) for v, m in candidate]
    targ = [(_scale(v, den), m) for v, m in target]
    for a in points:
        lo = _scale(a, den)
        hi = lo + den
        for right_open in (False, True):
            if count(cand, lo, hi, right_open) > count(targ, lo, hi, right_open):
                return False
    return True


def add_pairs(spectra) -> list[tuple[Fraction, int]]:
    """The multiset sum of several (value, multiplicity) lists."""
    acc: dict[Fraction, int] = {}
    for pairs in spectra:
        for v, m in pairs:
            acc[v] = acc.get(v, 0) + m
    return sorted(acc.items())
