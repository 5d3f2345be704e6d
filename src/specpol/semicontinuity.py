"""Window-count semicontinuity checks against the diagonal-germ spectrum.

A configuration of germs on a degree-d hypersurface in P^n induces, over a
generic affine chart, a deformation of the diagonal germ x_1^d + ... + x_n^d;
semicontinuity of the spectrum then bounds, for every real a, the number of
candidate spectral values in the unit window above a by the corresponding
count for the diagonal germ.  The half-open windows ]a, a+1] always apply;
the open windows ]a, a+1[ apply because the deformation is of lower weight of
a quasi-homogeneous germ (a flag can restrict the check to the half-open
variant only).

Both spectra are finite, so the quantifier over all real a reduces to a
finite test-point set: the window count, as a function of a, can only change
when a or a+1 crosses a support point.  We therefore test every breakpoint
(support values and support values minus one), one midpoint inside each
constancy interval, and one point beyond each end.  Over D = 2*lcm of the two
denominators every breakpoint is an even integer, so every test point is an
integer t, and a window is a pair (t, closed): ]t/D, t/D + 1], or
]t/D, t/D + 1[ when not closed.  `check_windows` lists the windows a check
tests, and `window_counts` counts a spectrum in them with two integer
thresholds and two bisects per window; the search takes its lanes from the
same list, and the check builds a `Fraction` only for the a of a violation.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable

from .catalog import curve_spectrum, fermat_spectrum
from .polar import Configuration
from .spectrum import Spectrum, add

__all__ = [
    "SemicontinuityReport",
    "Violation",
    "candidate_spectrum",
    "check",
    "check_configuration",
    "check_windows",
    "integer_test_points",
    "window_counts",
    "window_test_points",
]


@dataclass(frozen=True)
class Violation:
    """One failed window, ]a, a+1] if closed, else ]a, a+1[: candidate count lhs > target rhs."""

    a: Fraction
    lhs: int
    rhs: int
    closed: bool

    def to_json_obj(self) -> dict:
        return {
            "a": {"num": self.a.numerator, "den": self.a.denominator},
            "lhs": self.lhs,
            "rhs": self.rhs,
            "kind": "half" if self.closed else "open",
        }


@dataclass(frozen=True)
class SemicontinuityReport:
    violations: tuple[Violation, ...]
    breakpoints_checked: int

    @property
    def holds(self) -> bool:
        return not self.violations

    def to_json_obj(self) -> dict:
        return {
            "holds": self.holds,
            "violations": [v.to_json_obj() for v in self.violations],
            "breakpoints_checked": self.breakpoints_checked,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))


def integer_test_points(candidate: Spectrum, target: Spectrum) -> tuple[int, list[int]]:
    """(D, points): the test points of `window_test_points` as numerators over D.

    D = 2*lcm(candidate.den, target.den), so every breakpoint is even over D
    and every midpoint an integer.
    """
    den = 2 * math.lcm(candidate.den, target.den)
    support = {x * (den // s.den) for s in (candidate, target) for x in s.nums}
    if not support:
        return den, [0]
    breakpoints = sorted(support | {x - den for x in support})
    points = [breakpoints[0] - den]
    for x, y in zip(breakpoints, breakpoints[1:]):
        points += (x, (x + y) // 2)
    points += (breakpoints[-1], breakpoints[-1] + den)
    return den, points


def window_test_points(candidate: Spectrum, target: Spectrum) -> list[Fraction]:
    """Finite set of a-values whose unit windows decide all real a.

    Breakpoints are alpha and alpha-1 over the union of both supports; one
    midpoint per gap captures the generic value of each constancy interval,
    and one point below and above everything covers the unbounded tails.
    """
    den, points = integer_test_points(candidate, target)
    return [Fraction(t, den) for t in points]


def check_windows(
    candidate: Spectrum, target: Spectrum, open_variant: bool
) -> tuple[int, list[tuple[int, bool]]]:
    """(D, windows): at each test point t over D, (t, True), then with the open variant (t, False)."""
    den, points = integer_test_points(candidate, target)
    return den, list(product(points, (True, False) if open_variant else (True,)))


def window_counts(spec: Spectrum, den: int, windows: Iterable[tuple[int, bool]]) -> list[int]:
    """Counts of ``spec`` in the unit windows ``(t, closed)`` over ``den``, in order.

    A window is ]t/den, t/den + 1] when ``closed`` is true, else
    ]t/den, t/den + 1[.  As in `deg_window`, each endpoint p/den is one
    integer threshold on the numerators x of ``spec`` over its own
    denominator s: x/s > p/den exactly when x > floor(p*s/den), x/s <= p/den
    when x <= floor(p*s/den), and x/s < p/den when x < ceil(p*s/den); a
    bisect on the numerators counts them.
    """
    nums, cum, s = spec.nums, spec._cum, spec.den
    counts, last = [], None
    for t, closed in windows:
        if t != last:  # both windows at one t share the left end
            last, left = t, cum[bisect_right(nums, t * s // den)]
        right = (t + den) * s
        if closed:
            counts.append(cum[bisect_right(nums, right // den)] - left)
        else:
            counts.append(cum[bisect_left(nums, -(-right // den))] - left)
    return counts


def check(candidate: Spectrum, target: Spectrum, open_variant: bool = True) -> SemicontinuityReport:
    """Verify candidate unit-window counts never exceed the target's.

    Counts both spectra in the windows of `check_windows` and reports each
    failed window with both side values, ordered by a, the half-open window
    ]a, a+1] before the open ]a, a+1[ (tested unless ``open_variant`` is False).
    """
    den, windows = check_windows(candidate, target, open_variant)
    lhs = window_counts(candidate, den, windows)
    rhs = window_counts(target, den, windows)
    violations = [
        Violation(Fraction(t, den), x, y, closed)
        for (t, closed), x, y in zip(windows, lhs, rhs)
        if x > y
    ]
    return SemicontinuityReport(violations=tuple(violations), breakpoints_checked=len(lhs))


def candidate_spectrum(c: Configuration) -> Spectrum:
    """Sum of the germ spectra of a configuration (ambient n convention).

    Every germ of ``c`` has ambient n, and each germ spectrum is its curve
    spectrum suspended n-2 times, so the curve spectra are merged once and
    the sum is suspended once.
    """
    return add(*map(curve_spectrum, c.germs)).suspend(c.n - 2)


# The most distinct spectral numbers a configuration check may count, bounded
# by the sum of mu over the configuration's distinct classes plus the n(d-2)+1
# numbers of the diagonal germ.  On a 2-core machine with Python 3.11, `check`
# with A1..A625 at (2, 1000) (a bound of 197,622) takes 7.5 s at 271 MB peak
# RSS, and the empty configuration at (2, 100001) (199,999) 2.0 s at 212 MB.
MAX_CHECK_SUPPORT = 200_000


def check_configuration(c: Configuration, open_variant: bool = True) -> SemicontinuityReport:
    """Run the semicontinuity check of a configuration against its target.

    The target is always the diagonal-germ spectrum for (n, d), from
    `fermat_spectrum`, which keeps the last one built.  The half-open windows are
    always checked; the open windows are added unless ``open_variant`` is
    False.  A configuration whose bound on the union support is over
    ``MAX_CHECK_SUPPORT`` is refused with a ValueError before any spectrum
    is built.
    """
    support = sum(g.milnor for g in set(c.germs)) + c.n * (c.d - 2) + 1
    if support > MAX_CHECK_SUPPORT:
        shown = support if support < 10**18 else "more than 10^18"  # int-to-str has a digit limit
        raise ValueError(
            f"the check could count {shown} distinct spectral numbers, over the budget of {MAX_CHECK_SUPPORT}"
        )
    return check(candidate_spectrum(c), fermat_spectrum(c.n, c.d), open_variant)
