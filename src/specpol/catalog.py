"""Closed-form spectra and invariants of the catalog singularity classes.

Four families of isolated hypersurface germs are supported, each given by the
usual two-variable normal form plus a sum of squares in the remaining
variables:

=========  =======================================  =============
family     curve normal form                        Milnor number
=========  =======================================  =============
A(k)       x^(k+1) + y^2                 (k >= 1)   k
D(k)       x^2 y + y^(k-1)               (k >= 4)   k
E(m)       x^3 + y^(m/3+1)-type          (m >= 6,   m
           with m in {6r, 6r+1, 6r+2}    r >= 1)
J(k, i)    x^3 + x^2 y^k + y^(3k+i)      (k >= 2,   6k - 2 + i
                                          i >= 0)
=========  =======================================  =============

plus the diagonal germ x_1^d + ... + x_n^d handled by
:func:`fermat_spectrum`.

Every class except J(k, i) with i > 0 is weighted homogeneous, and its curve
spectrum is the expansion of

    (t^w1 - t)/(1 - t^w1) * (t^w2 - t)/(1 - t^w2)

in fractional powers of t: one spectral number (a+1) w1 + (b+1) w2 - 1 per
monomial x^a y^b of a basis of the Milnor algebra.  `_curve_progressions`
writes these sums in closed form, as one or two arithmetic progressions of
numerators per family (J(k, i>0) takes six, and numbers at 0), and
:func:`curve_spectrum` builds its spectrum from them; a search reads the
progressions alone.  The test suite keeps the generating-function expansion
itself as an independent oracle.  Spectra are stored in the
convention where a curve spectrum is symmetric about 0 and contained in
]-1, 1[; an ambient-n germ spectrum is the (n-2)-fold suspension of its curve
spectrum.

Each function here that returns a spectrum makes the integer form of
:class:`Spectrum` directly: numerators over one denominator, the common
denominator of the weights, lcm(3k, 6k+2i) for J(k, i>0) and d for the
diagonal germ.  No spectral number is formed or sorted as a `Fraction`.

Note on the E(6r+1) family: expanding the per-family tabulated sum
(0) + sum_{i=1,2} sum_{j=1..3r} (-i/3 + 2j/(6r+3)) breaks the symmetry of the
spectrum about 0 already at r = 1 (it yields 1/3 and a doubled 0 instead of
the +-2/9, +-4/9 required by symmetry and by the Weyl-exponent cross-check).
The weight product above is authoritative for this family, over the basis
y^b (b <= 4r), x y^b (b < 2r) of x^3 + x y^(2r+1); E(7) comes out as
{-4/9, -2/9, -1/9, 0, 1/9, 2/9, 4/9}.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import lcm
from operator import neg
from typing import Sequence

from .spectrum import Spectrum, _suspended, from_numerators

__all__ = [
    "FAMILIES",
    "GermClass",
    "InvalidGermError",
    "corank_curve",
    "curve_spectrum",
    "fermat_spectrum",
    "germ_spectrum",
    "multiplicity_curve",
    "parse_germ",
]

FAMILIES = ("A", "D", "E", "J")

_FAMILY_RANK = {f: r for r, f in enumerate(FAMILIES)}

_GERM_RE = re.compile(r"^([ADE])(\d+)$|^J(\d+)_(\d+)$")


class InvalidGermError(ValueError):
    """Raised for parameters outside the catalog or malformed class strings."""


@dataclass(frozen=True)
class GermClass:
    """One catalog singularity class in a given number of ambient variables.

    ``k`` is the family index (for the E family it is the full subscript m,
    which coincides with the Milnor number); ``i`` is used by J only.
    """

    family: str
    k: int
    i: int = 0
    ambient_vars: int = 2

    def __post_init__(self) -> None:
        fam = self.family
        if fam == "A":
            ok = self.k >= 1 and self.i == 0
        elif fam == "D":
            ok = self.k >= 4 and self.i == 0
        elif fam == "E":
            ok = self.k >= 6 and self.k % 6 in (0, 1, 2) and self.i == 0
        elif fam == "J":
            ok = self.k >= 2 and self.i >= 0
        else:
            ok = False
        if not ok:
            raise InvalidGermError(f"invalid germ class {fam}, k={self.k}, i={self.i}")
        if self.ambient_vars < 2:
            raise ValueError(f"ambient_vars must be >= 2, got {self.ambient_vars}")

    @property
    def milnor(self) -> int:
        if self.family == "J":
            return 6 * self.k - 2 + self.i
        return self.k

    def sort_key(self) -> tuple[int, int, int]:
        return (_FAMILY_RANK[self.family], self.k, self.i)

    def in_ambient(self, n: int) -> "GermClass":
        if n == self.ambient_vars:
            return self  # frozen, so the same class serves
        return GermClass(self.family, self.k, self.i, n)

    def __str__(self) -> str:
        if self.family == "J":
            return f"J{self.k}_{self.i}"
        return f"{self.family}{self.k}"


def parse_germ(text: str, ambient_vars: int = 2) -> GermClass:
    """Parse a compact class string: A<k>, D<k>, E<m>, J<k>_<i>."""
    m = _GERM_RE.match(text.strip())
    if m is None:
        raise InvalidGermError(f"unrecognised germ class string {text!r}")
    if m.group(1) is not None:
        return GermClass(m.group(1), int(m.group(2)), 0, ambient_vars)
    return GermClass("J", int(m.group(3)), int(m.group(4)), ambient_vars)


def corank_curve(g: GermClass) -> int:
    """Corank of the two-variable normal form: 0 for A(1), 1 for A(k>=2), 2 else."""
    if g.family == "A":
        return 0 if g.k == 1 else 1
    return 2


# Plane multiplicity of each family's normal form.  The search's huh filter
# keeps or drops whole families by it, so a family whose multiplicity varies
# by class cannot join this table as it is.
_MULTIPLICITY = {"A": 2, "D": 3, "E": 3, "J": 3}


def multiplicity_curve(g: GermClass) -> int:
    """Order of the two-variable normal form at the origin: 2 for A, 3 for D/E/J."""
    return _MULTIPLICITY[g.family]


# The most spectral numbers a catalog curve spectrum is built with: a class
# of larger Milnor number is refused before anything is allocated.  On a
# 2-core machine with Python 3.11, in a fresh interpreter, the largest
# classes within it build in 0.11-0.41 s at 63-101 MB peak RSS: the curve
# spectra of A500000 in 0.11-0.12 s at 63 MB, D500000 0.15-0.16 s at 66 MB,
# J2_499990 0.20-0.24 s at 89 MB and J83333_4 0.29-0.32 s at 90 MB; in three
# variables A500000 in 0.17-0.25 s at 101 MB (a doubled denominator) and
# J83333_4 in 0.29-0.41 s at 89 MB.  A search pool within MAX_POOL_CLASSES
# has mu at most 1,540.
MAX_EXPANSION_LENGTH = 500_000


#: (den, numerators, multiplicities): a spectrum before the Spectrum constructor
_Parts = tuple[int, Sequence[int], Sequence[int]]

#: (den, ranges, zero): a curve spectrum as the multiset sum of the ranges of
#: numerators over den, plus ``zero`` more numbers at 0
_Progressions = tuple[int, tuple[range, ...], int]


def _disjoint(den: int, *progressions: range) -> _Parts:
    # progressions of numerators over den that share no number, each once
    nums = tuple(sorted(chain(*progressions)))
    return den, nums, (1,) * len(nums)


def _j_negative_part(k: int, i: int) -> tuple[int, tuple[range, range, range]]:
    # Negative spectral numbers of the J(k, i>0) curve germ as numerators over
    # their common denominator den: group 1, -2k+1 .. floor(-3k/2) and
    # -k+1 .. -1 over 3k, then group 2, the numerators above -(3k+i) with the
    # parity of i over 6k+2i.  Each is a progression, scaled to den.
    den2 = 6 * k + 2 * i
    den = lcm(3 * k, den2)
    f1, f2 = den // (3 * k), den // den2
    low2 = -(3 * k + i) + 1
    low2 += (low2 - i) % 2
    assert 2 * low2 > -den2, "second-group value not above -1/2"
    return den, (
        range((-2 * k + 1) * f1, ((-3 * k) // 2 + 1) * f1, f1),
        range((-k + 1) * f1, 0, f1),
        range(low2 * f2, 0, 2 * f2),
    )


def _curve_progressions(fam: str, k: int, i: int) -> _Progressions:
    """The curve spectrum of the class (fam, k, i) as progressions of numerators.

    Returns (den, ranges, zero): the spectrum is the multiset sum of the
    members of ``ranges``, each a number over den, plus ``zero`` numbers at
    0 that no range lists.  The ranges are those of `curve_spectrum`'s
    docstring: one for A, two for D (their overlap is the double 0 of even
    k), two for E, 1-2k .. k-1 and 1-k .. 2k-1 over 3k for J(k,0) (their
    overlap is the doubled middle), and for J(k, i>0) the three negative
    ranges of `_j_negative_part` and their mirror images, with the rest of
    the Milnor number at 0.  A class with Milnor number over
    MAX_EXPANSION_LENGTH is refused with a ValueError before any range is
    made.  Taken from the class's fields, so that no GermClass is built.
    """
    mu = 6 * k - 2 + i if fam == "J" else k  # GermClass.milnor
    if mu > MAX_EXPANSION_LENGTH:
        raise ValueError(f"the spectrum of {GermClass(fam, k, i)} has more than {MAX_EXPANSION_LENGTH} spectral numbers")
    if fam == "A":
        return 2 * k + 2, (range(1 - k, k, 2),), 0
    if fam == "D":
        return 2 * k - 2, (range(2 - k, k - 1, 2), range(0, 1)), 0
    if fam == "E":
        r, res = divmod(k, 6)
        if res == 1:
            return 6 * r + 3, (range(-4 * r, 4 * r + 1, 2), range(1 - 2 * r, 2 * r, 2)), 0
        m = 3 * r + 1 + res // 2
        return 3 * m, (range(3 - 2 * m, m, 3), range(3 - m, 2 * m, 3)), 0
    if i == 0:
        return 3 * k, (range(1 - 2 * k, k), range(1 - k, 2 * k)), 0
    den, negatives = _j_negative_part(k, i)
    zero = mu - 2 * sum(map(len, negatives))
    assert zero >= 0, f"negative multiplicity at 0 for J{k}_{i}"
    # each negative range is non-empty; its mirror holds the negatives of its members
    mirrors = tuple(range(-r[-1], 1 - r[0], r.step) for r in negatives)
    return den, negatives + mirrors, zero


# The cache serves `check` (one spectrum per distinct class of the
# configuration), `verify-huh`, whose 15 checks read 10 classes (17 hits),
# and the command line's `spectrum germ`, `deg` and `check`.  A search reads
# no curve spectrum: it reads each pool class as its progressions
# (`_curve_progressions`).  1,024 entries keep every class of the largest
# pool of k = 2, the 946 classes of (2,11,2).
CURVE_CACHE_SIZE = 1024

# The largest Milnor number whose curve spectrum the cache keeps, so that the
# cache holds at most CURVE_CACHE_SIZE * CURVE_CACHE_MAX_MILNOR spectral
# numbers (1,024 A, D and J classes of mu 1,707 to 2,048 take 148 MB); a
# larger class is built on each call.  Every class that a search pool within
# MAX_POOL_CLASSES over all four families lists is kept (such a pool has mu
# at most 1,540), so a `check` of a configuration drawn from one is cached.
CURVE_CACHE_MAX_MILNOR = 2048


def curve_spectrum(g: GermClass) -> Spectrum:
    """Spectrum of the two-variable germ of the class (symmetric about 0).

    A weighted-homogeneous class with weights (w1, w2) has one spectral
    number (a+1) w1 + (b+1) w2 - 1 per monomial x^a y^b of a Milnor-algebra
    basis; over the common denominator these are one or two arithmetic
    progressions of numerators:

    * A(k), basis x^a (a < k): 1-k, 3-k, ..., k-1 over 2(k+1);
    * D(k), basis y^b (b <= k-2) and x: 2-k, 4-k, ..., k-2 over 2k-2, plus 0
      (for even k, 0 is then a double number);
    * E(6r), E(6r+2) = x^3 + y^m with m = 3r+1, 3r+2, basis x^a y^b (a < 2,
      b < m-1): 3-2m, 6-2m, ..., m-3 and 3-m, 6-m, ..., 2m-3 over 3m;
    * E(6r+1) = x^3 + x y^(2r+1), basis y^b (b <= 4r) and x y^b (b < 2r):
      -4r, 2-4r, ..., 4r and 1-2r, 3-2r, ..., 2r-1 over 6r+3;
    * J(k,0) = x^3 + y^(3k), basis x^a y^b (a < 2, b < 3k-1): 1-2k .. k-1 and
      1-k .. 2k-1 over 3k, which overlap, so 1-k .. k-1 are double numbers.

    J(k, i>0) is assembled from its negative part (`_j_negative_part`) by
    symmetry.  A class with Milnor number over MAX_EXPANSION_LENGTH is
    refused with a ValueError before anything is built.  Spectra of Milnor
    number up to CURVE_CACHE_MAX_MILNOR are cached once per curve class,
    whatever the ambient count (``cache_info`` and ``cache_clear`` act on
    that cache).
    """
    if g.milnor > CURVE_CACHE_MAX_MILNOR:
        return Spectrum(*_curve_parts(g.family, g.k, g.i))
    return _cached_curve_spectrum(g.family, g.k, g.i)


# keyed on the curve class alone: the ambient count does not change the curve
@lru_cache(maxsize=CURVE_CACHE_SIZE)
def _cached_curve_spectrum(family: str, k: int, i: int) -> Spectrum:
    return Spectrum(*_curve_parts(family, k, i))


curve_spectrum.cache_info = _cached_curve_spectrum.cache_info
curve_spectrum.cache_clear = _cached_curve_spectrum.cache_clear


def _curve_parts(fam: str, k: int, i: int) -> _Parts:
    # den, increasing numerators and their multiplicities: the curve spectrum
    # of the class (fam, k, i) before the Spectrum constructor checks and
    # reduces them, from the ranges of `_curve_progressions`
    den, ranges, at_zero = _curve_progressions(fam, k, i)
    if fam == "D" and k % 2 == 0:
        mults = [1] * (k - 1)
        mults[k // 2 - 1] = 2
        return den, ranges[0], mults
    if fam != "J":
        return _disjoint(den, *ranges)
    if i == 0:
        return den, range(1 - 2 * k, 2 * k), (1,) * k + (2,) * (2 * k - 1) + (1,) * k
    # the two negative groups can share a number, so merge them; then mirror
    # about 0
    merged = Counter(chain(*ranges[:3]))
    nums = sorted(merged)
    mults = list(map(merged.__getitem__, nums))
    middle_nums, middle_mults = ([0], [at_zero]) if at_zero else ([], [])
    return den, nums + middle_nums + list(map(neg, reversed(nums))), mults + middle_mults + mults[::-1]


def germ_spectrum(g: GermClass) -> Spectrum:
    """Spectrum of the class in its ambient variable count.

    Equals the curve spectrum suspended n-2 times, hence symmetric about
    (n-2)/2 and contained in ]-1, n-1[.  For n > 2 the curve's unbuilt parts
    go through the rule of `Spectrum.suspend`, so one Spectrum is built, and
    none is cached.
    """
    n = g.ambient_vars
    if n == 2:
        return curve_spectrum(g)
    return _suspended(*_curve_parts(g.family, g.k, g.i), n - 2)


# The most window-sum steps fermat_spectrum takes: n passes over a support of
# n(d-2)+1.  On a 2-core machine with Python 3.11, (1, 1000001) at this bound
# takes 0.9 s at 171 MB peak RSS, and (999, 3) 0.15 s; `spectrum fermat 2
# 20000` takes 80,000 steps.
MAX_FERMAT_WORK = 1_000_000


def fermat_spectrum(n: int, d: int) -> Spectrum:
    """Spectrum of the diagonal germ x_1^d + ... + x_n^d.

    The multiplicity of k/d is the number of integer tuples (a_1, ..., a_n)
    with 1 <= a_j <= d-1 and sum a_j = k + d, counted by convolving the
    length-(d-1) all-ones vector n times (never by tuple enumeration); the
    total is (d-1)^n.  Each convolution is a running sum over a window of
    width d-1, so it is linear in the support.  More than MAX_FERMAT_WORK
    steps in all is refused with a ValueError before the first pass.  The
    last pair's spectrum is kept, and a repeated call returns it.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if n * (n * (d - 2) + 1) > MAX_FERMAT_WORK:
        raise ValueError(
            f"the diagonal-germ spectrum for n={n}, d={d} takes more than {MAX_FERMAT_WORK} steps"
        )
    return _diagonal(n, d)


# One entry suffices: callers ask for one (n, d) several times in a row (a
# search, a sweep pair, the bundled lists, whose entries come in runs of one
# (n, d)), and MAX_FERMAT_WORK bounds its size.  typed, so that
# fermat_spectrum(2.0, 3) raises as it would uncached, not served the (2, 3)
# entry (2.0 == 2).
@lru_cache(maxsize=1, typed=True)
def _diagonal(n: int, d: int) -> Spectrum:
    counts = [1]  # counts[m] = ways to reach sum m + (#parts so far)
    for _ in range(n):
        padded = counts + [0] * (d - 2)
        step, window = [], 0
        for m, c in enumerate(padded):
            # window = counts[m-d+2] + ... + counts[m]
            window += c
            if m >= d - 1:
                window -= padded[m - d + 1]
            step.append(window)
        counts = step
    # sum of parts = n + m, spectral number (n + m)/d - 1
    return from_numerators(d, ((n + m - d, c) for m, c in enumerate(counts) if c > 0))
