"""Independent oracles used by the test suite.

Everything here is deliberately written against different formulas or a
different algorithm than the library:

* the generating-function expansion of a weighted-homogeneous curve
  spectrum, by exact polynomial division, against the closed-form
  progressions of the catalog;
* the explicit per-family curve-spectrum sums (A, D, E(6r), E(6r+2), J(k,0)),
  against both;
* a Newton-diagram lattice count for convenient nondegenerate curve germs,
  against the parity construction of the J(k, i>0) negative part;
* brute-force interval counts over raw (value, multiplicity) pairs, against
  the bisect-based window degree;
* a dense-sampling semicontinuity verdict, against the breakpoint scan;
* the breakpoint scan on `Fraction` test points, one `deg_window` call per
  point, window shape and spectrum, against the integer scan;
* the candidate spectrum as a running sum of suspended germ spectra, one
  `add` per germ, against the single merge of the curve spectra.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import lcm

from specpol import (
    Configuration,
    GermClass,
    SemicontinuityReport,
    Spectrum,
    Violation,
    add,
    deg_window,
    fermat_spectrum,
    germ_spectrum,
    make_spectrum,
)
from specpol.catalog import MAX_EXPANSION_LENGTH
from specpol.spectrum import EMPTY


class NotWeightedHomogeneousError(ValueError):
    """Raised when weights are requested for a J(k, i>0) germ."""


def weights(g: GermClass) -> tuple[Fraction, Fraction]:
    """The weight pair (w1, w2) of a weighted-homogeneous catalog class."""
    fam, k = g.family, g.k
    if fam == "A":
        return Fraction(1, k + 1), Fraction(1, 2)
    if fam == "D":
        return Fraction(k - 2, 2 * k - 2), Fraction(1, k - 1)
    if fam == "E":
        r, res = divmod(k, 6)
        if res == 0:
            return Fraction(1, 3), Fraction(1, 3 * r + 1)
        if res == 1:
            return Fraction(1, 3), Fraction(2, 6 * r + 3)
        return Fraction(1, 3), Fraction(1, 3 * r + 2)
    if g.i == 0:
        return Fraction(1, 3), Fraction(1, 3 * k)
    raise NotWeightedHomogeneousError(f"{g} is not weighted homogeneous (i > 0)")


def _divide_by_one_minus_power(coeffs: list[int], p: int) -> list[int]:
    # exact division by (1 - s^p); quotient q satisfies q[e] = coeffs[e] + q[e-p]
    n = len(coeffs)
    q = [0] * n
    for e in range(n):
        q[e] = coeffs[e] + (q[e - p] if e >= p else 0)
    if any(q[e] != 0 for e in range(n - p, n)):
        raise ValueError("weight expansion is not exact")
    return q[: n - p]


def spectrum_from_weights(w1: Fraction, w2: Fraction) -> Spectrum:
    """Expand (t^w1 - t)(t^w2 - t) / ((1 - t^w1)(1 - t^w2)) exactly.

    Both weights are written over their common denominator D and the
    substitution s = t^(1/D) turns the expansion into two exact divisions of
    integer polynomials by (1 - s^p).  The exponent e of s contributes the
    spectral number e/D - 1.  The total is (1/w1 - 1)(1/w2 - 1).  An
    expansion longer than MAX_EXPANSION_LENGTH is refused with a ValueError.
    """
    w1, w2 = Fraction(w1), Fraction(w2)
    if not (0 < w1 < 1 and 0 < w2 < 1):
        raise ValueError(f"weights must lie strictly between 0 and 1, got {w1}, {w2}")
    D = lcm(w1.denominator, w2.denominator)
    if 2 * D + 1 > MAX_EXPANSION_LENGTH:
        raise ValueError(f"the weight expansion needs more than {MAX_EXPANSION_LENGTH} coefficients")
    p1 = w1.numerator * (D // w1.denominator)
    p2 = w2.numerator * (D // w2.denominator)
    # numerator (s^p1 - s^D)(s^p2 - s^D)
    coeffs = [0] * (2 * D + 1)
    coeffs[p1 + p2] += 1
    coeffs[2 * D] += 1
    coeffs[p1 + D] -= 1
    coeffs[p2 + D] -= 1
    coeffs = _divide_by_one_minus_power(coeffs, p1)
    coeffs = _divide_by_one_minus_power(coeffs, p2)
    if any(c < 0 for c in coeffs):
        raise ValueError("weight expansion has a negative coefficient")
    # the exponents with a non-zero coefficient, already increasing
    nums = tuple(compress(range(-D, len(coeffs) - D), coeffs))
    return Spectrum(D, nums, tuple(filter(None, coeffs)))


def summed_candidate_spectrum(c: Configuration) -> Spectrum:
    """Sum of the germ spectra of a configuration, one suspension and one add per germ."""
    out = EMPTY
    for g in c.germs:
        out = add(out, germ_spectrum(g))
    return out


def a_row(k: int) -> Spectrum:
    """sum_{j=1..k} (-1/2 + j/(k+1))"""
    return make_spectrum(
        (Fraction(-1, 2) + Fraction(j, k + 1), 1) for j in range(1, k + 1)
    )


def d_row(k: int) -> Spectrum:
    """(0) + sum_{j=1..k-1} (-1/2 + (2j-1)/(2k-2))"""
    pairs = [(Fraction(0), 1)]
    pairs += [
        (Fraction(-1, 2) + Fraction(2 * j - 1, 2 * k - 2), 1) for j in range(1, k)
    ]
    return make_spectrum(pairs)


def e0_row(r: int) -> Spectrum:
    """E(6r): sum_{j=1..3r} (-2/3 + j/(3r+1)) + sum_{j=1..3r} (-1/3 + j/(3r+1))"""
    pairs = [(Fraction(-2, 3) + Fraction(j, 3 * r + 1), 1) for j in range(1, 3 * r + 1)]
    pairs += [(Fraction(-1, 3) + Fraction(j, 3 * r + 1), 1) for j in range(1, 3 * r + 1)]
    return make_spectrum(pairs)


def e1_row(r: int) -> Spectrum:
    """E(6r+1) as tabulated: (0) + sum_{i=1,2} sum_{j=1..3r} (-i/3 + 2j/(6r+3)).

    Kept only to document that this sum is NOT symmetric about 0 (the library
    sums the weight product over a Milnor-algebra basis instead).
    """
    pairs = [(Fraction(0), 1)]
    for i in (1, 2):
        pairs += [
            (Fraction(-i, 3) + Fraction(2 * j, 6 * r + 3), 1)
            for j in range(1, 3 * r + 1)
        ]
    return make_spectrum(pairs)


def e2_row(r: int) -> Spectrum:
    """E(6r+2): sum_{j=1..3r+1} (-2/3 + j/(3r+2)) + sum_{j=1..3r+1} (-1/3 + j/(3r+2))"""
    pairs = [(Fraction(-2, 3) + Fraction(j, 3 * r + 2), 1) for j in range(1, 3 * r + 2)]
    pairs += [(Fraction(-1, 3) + Fraction(j, 3 * r + 2), 1) for j in range(1, 3 * r + 2)]
    return make_spectrum(pairs)


def j0_row(k: int) -> Spectrum:
    """J(k,0): sum_{j=1..3k-1} (-2/3 + j/(3k)) + sum_{j=1..3k-1} (-1/3 + j/(3k))"""
    pairs = [(Fraction(-2, 3) + Fraction(j, 3 * k), 1) for j in range(1, 3 * k)]
    pairs += [(Fraction(-1, 3) + Fraction(j, 3 * k), 1) for j in range(1, 3 * k)]
    return make_spectrum(pairs)


def newton_diagram_negatives(
    vertices: list[tuple[int, int]], box: int = 40
) -> tuple[list[Fraction], int]:
    """Negative spectral numbers and 0-multiplicity of a convenient
    nondegenerate curve germ from its Newton diagram.

    ``vertices`` are the diagram's lattice vertices ordered by decreasing x,
    starting on the x-axis and ending on the y-axis.  Each face gets the
    covector with value 1 on the face; the Newton filtration of a positive
    lattice point p is the minimum of the covector values, the spectral
    number is that value minus 1, and the points with filtration exactly 1
    carry the spectral number 0.
    """
    covectors = []
    for (x1, y1), (x2, y2) in zip(vertices, vertices[1:]):
        det = x1 * y2 - x2 * y1
        covectors.append((Fraction(y2 - y1, det), Fraction(x1 - x2, det)))
    negatives: list[Fraction] = []
    zero_mult = 0
    for x in range(1, box + 1):
        for y in range(1, box + 1):
            value = min(a * x + b * y for a, b in covectors)
            if value < 1:
                negatives.append(value - 1)
            elif value == 1:
                zero_mult += 1
    return sorted(negatives), zero_mult


def brute_deg(
    pairs: list[tuple[Fraction, int]],
    a,
    b,
    left_open: bool = True,
    right_open: bool = True,
) -> int:
    total = 0
    for value, mult in pairs:
        left_ok = value > a if left_open else value >= a
        right_ok = value < b if right_open else value <= b
        if left_ok and right_ok:
            total += mult
    return total


def dense_check(candidate: Spectrum, target: Spectrum, closed: bool) -> bool:
    """Semicontinuity verdict by sampling a on a grid finer than every gap.

    The windows are ]a, a+1] when ``closed``, else ]a, a+1[.
    """
    support = sorted(set(candidate.support) | set(target.support))
    if not support:
        return True
    breakpoints = sorted(set(support) | {v - 1 for v in support})
    gaps = [y - x for x, y in zip(breakpoints, breakpoints[1:])]
    step = min(gaps) / 3 if gaps else Fraction(1, 3)
    a = breakpoints[0] - 2
    stop = breakpoints[-1] + 2
    cpairs = list(candidate.entries)
    tpairs = list(target.entries)
    while a <= stop:
        lhs = brute_deg(cpairs, a, a + 1, True, not closed)
        rhs = brute_deg(tpairs, a, a + 1, True, not closed)
        if lhs > rhs:
            return False
        a += step
    return True


def fraction_test_points(candidate: Spectrum, target: Spectrum) -> list[Fraction]:
    """Breakpoints alpha and alpha-1, one midpoint per gap and one point beyond each end."""
    support = set(candidate.support) | set(target.support)
    if not support:
        return [Fraction(0)]
    breakpoints = sorted(support | {alpha - 1 for alpha in support})
    points = list(breakpoints)
    for x, y in zip(breakpoints, breakpoints[1:]):
        points.append(Fraction(x + y, 2))
    points.append(breakpoints[0] - 1)
    points.append(breakpoints[-1] + 1)
    return sorted(points)


def fraction_check(candidate: Spectrum, target: Spectrum, closed: bool) -> SemicontinuityReport:
    """The scan of one window shape with Fraction test points and window bounds.

    The windows are ]a, a+1] when ``closed``, else ]a, a+1[.
    """
    points = fraction_test_points(candidate, target)
    violations = []
    for a in points:
        lhs = deg_window(candidate, a, a + 1, True, not closed)
        rhs = deg_window(target, a, a + 1, True, not closed)
        if lhs > rhs:
            violations.append(Violation(a, lhs, rhs, closed))
    return SemicontinuityReport(
        violations=tuple(violations),
        breakpoints_checked=len(points),
    )


def fraction_check_merged(candidate: Spectrum, target: Spectrum, open_variant: bool = True) -> SemicontinuityReport:
    """The half-open scan, merged with the open one when it applies: half before open at each a."""
    reports = [fraction_check(candidate, target, True)]
    if open_variant:
        reports.append(fraction_check(candidate, target, False))
    violations = sorted(
        (v for r in reports for v in r.violations), key=lambda v: (v.a, not v.closed)
    )
    return SemicontinuityReport(
        violations=tuple(violations),
        breakpoints_checked=sum(r.breakpoints_checked for r in reports),
    )


def fraction_check_configuration(c: Configuration, open_variant: bool = True) -> SemicontinuityReport:
    """`fraction_check_merged` of the per-germ candidate sum against the diagonal germ."""
    return fraction_check_merged(summed_candidate_spectrum(c), fermat_spectrum(c.n, c.d), open_variant)
