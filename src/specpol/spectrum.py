"""Exact arithmetic on singularity spectra.

A spectrum is a finite multiset of rational numbers: formally an element of
the group ring Z[Q] with non-negative coefficients.  It is stored over one
positive denominator D as strictly increasing integer numerators x (the
spectral number x/D) with their multiplicities and cumulative counts.  D is
reduced against the numerators, so equal multisets are equal (and hash
equal) however they were built.  `fractions.Fraction` values appear only at
the interface: ``entries``, ``support``, the extreme spectral numbers, JSON,
text and the arguments of the operations.  A window count turns each
rational endpoint p/q into one integer threshold on the numerators, so every
comparison below is an exact integer comparison.

The operations here are pure combinatorics: pointwise sum, shift by a
rational, suspension (shift by 1/2 per added square), the join (product of the
generating sums written in t^(alpha+1)), and interval degree counts with
explicit open/closed endpoints.  Interpretation of the numbers (which germ a
spectrum belongs to, which normalisation convention is in force) lives in
`specpol.catalog`, not here.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain
from operator import lt
from typing import Iterable, Sequence, Union

__all__ = [
    "NEG_INF",
    "POS_INF",
    "Bound",
    "EmptySpectrumError",
    "Spectrum",
    "add",
    "deg_window",
    "from_numerators",
    "join",
    "make_spectrum",
]

NEG_INF = -math.inf
POS_INF = math.inf

#: An interval endpoint: an exact rational, or +-infinity for rays.
Bound = Union[Fraction, float]


# The most bits of the common denominator of a spectrum read from JSON, refused
# as the entries are read, before any gcd over it.  Catalog spectra need at most
# 37 bits (J83333_4), so a join of two at most 74.  On a 2-core machine
# with Python 3.11, at this bound `deg` reads 100,000 entries (5.5 MB) in 1.2 s
# at 97 MB peak RSS; `spectrum join --json` of two 1,000-entry files (10^6
# distinct sums) takes 6.8 s at 610 MB, against 464 MB at 40 bits and 817 MB at
# 256.  200 entries of 1,000 digits took 35 s unbounded, and now 0.2 s.
MAX_DENOMINATOR_BITS = 128


class EmptySpectrumError(ValueError):
    """Raised when an operation needs at least one spectral number."""


@dataclass(frozen=True)
class Spectrum:
    """Immutable multiset of spectral numbers with positive multiplicities.

    The spectral numbers are ``nums[i] / den``: ``den`` is positive,
    ``nums`` strictly increasing and every multiplicity positive.  The
    constructor divides ``den`` and ``nums`` by their gcd.  Use
    :func:`make_spectrum` to build one from unsorted rational pairs, or
    :func:`from_numerators` from unsorted integer pairs over one denominator.
    """

    den: int
    nums: tuple[int, ...]
    mults: tuple[int, ...]
    _cum: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        den, nums, mults = self.den, tuple(self.nums), tuple(self.mults)
        if den <= 0 or len(nums) != len(mults):
            raise ValueError(f"need den > 0 and one multiplicity per numerator, got den {den}")
        if not all(map(lt, nums, nums[1:])) or (mults and min(mults) <= 0):
            raise ValueError("numerators must increase and multiplicities be positive")
        g = math.gcd(den, *nums)
        if g > 1:
            den, nums = den // g, tuple([x // g for x in nums])
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "mults", mults)
        object.__setattr__(self, "_cum", (0, *accumulate(mults)))

    @property
    def entries(self) -> tuple[tuple[Fraction, int], ...]:
        """(spectral number, multiplicity) pairs, increasing; built on each access."""
        den = self.den
        return tuple((Fraction(x, den), m) for x, m in zip(self.nums, self.mults))

    def __iter__(self):
        return iter(self.entries)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __add__(self, other: "Spectrum") -> "Spectrum":
        return add(self, other)

    @property
    def support(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def multiplicity(self, alpha: Fraction) -> int:
        alpha = Fraction(alpha)
        x, r = divmod(alpha.numerator * self.den, alpha.denominator)
        i = bisect_left(self.nums, x)
        if r == 0 and i < len(self.nums) and self.nums[i] == x:
            return self.mults[i]
        return 0

    def total(self) -> int:
        """Sum of all multiplicities (the Milnor number for a germ spectrum)."""
        return self._cum[-1]

    def min_spectral(self) -> Fraction:
        if not self.nums:
            raise EmptySpectrumError("empty spectrum has no smallest spectral number")
        return Fraction(self.nums[0], self.den)

    def max_spectral(self) -> Fraction:
        if not self.nums:
            raise EmptySpectrumError("empty spectrum has no largest spectral number")
        return Fraction(self.nums[-1], self.den)

    def shift(self, q: Fraction) -> "Spectrum":
        """Translate every spectral number by q, keeping multiplicities."""
        q = Fraction(q)
        if not q:
            return self
        den = math.lcm(self.den, q.denominator)
        scale, offset = den // self.den, q.numerator * (den // q.denominator)
        return Spectrum(den, tuple(x * scale + offset for x in self.nums), self.mults)

    def suspend(self, m: int) -> "Spectrum":
        """Add m squares: every spectral number moves up by m/2."""
        if m < 0:
            raise ValueError(f"suspension count must be >= 0, got {m}")
        return _suspended(self.den, self.nums, self.mults, m) if m else self

    def is_symmetric(self, center: Fraction) -> bool:
        # a -> 2c - a reverses the order, so it maps entry i onto entry -1-i
        two_c = 2 * Fraction(center)
        t, r = divmod(two_c.numerator * self.den, two_c.denominator)
        nums = self.nums
        if r:
            return not nums
        return self.mults == self.mults[::-1] and all(
            x + y == t for x, y in zip(nums, reversed(nums))
        )

    def deg(self, a: Bound, b: Bound, left_open: bool = True, right_open: bool = True) -> int:
        return deg_window(self, a, b, left_open, right_open)

    def to_json_obj(self) -> list[dict[str, int]]:
        out = []
        for x, m in zip(self.nums, self.mults):
            g = math.gcd(x, self.den)
            out.append({"num": x // g, "den": self.den // g, "mult": m})
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj: list[dict[str, int]]) -> "Spectrum":
        if not isinstance(obj, list):
            raise ValueError(f"a spectrum is a JSON list of entries, got {obj!r}")
        # each entry is read once, as its lowest terms p/q, and moved over the
        # lcm of the q once every q is known
        entries, den = [], 1
        for e in obj:
            # type() is int rejects JSON floats and booleans alike
            if not isinstance(e, dict) or not all(
                type(e.get(key)) is int for key in ("num", "den", "mult")
            ):
                raise ValueError(f"spectrum entry {e!r} needs integer num, den and mult")
            p, q = e["num"], e["den"]
            if q == 0:
                raise ValueError(f"spectrum entry {e!r} has den 0")
            g = math.gcd(p, q) if q > 0 else -math.gcd(p, q)
            q //= g
            den = math.lcm(den, q)
            if den.bit_length() > MAX_DENOMINATOR_BITS:
                raise ValueError(f"the spectrum's common denominator has more than {MAX_DENOMINATOR_BITS} bits")
            entries.append((p // g, q, e["mult"]))
        return from_numerators(den, ((p * (den // q), m) for p, q, m in entries))

    @classmethod
    def from_json(cls, text: str) -> "Spectrum":
        try:
            obj = json.loads(text)
        except RecursionError:  # the C decoder recurses once per nested array
            raise ValueError("spectrum JSON is nested too deeply") from None
        return cls.from_json_obj(obj)

    def __str__(self) -> str:
        if not self.nums:
            return "(empty)"
        return " + ".join(
            f"{m}({a})" if m > 1 else f"({a})" for a, m in self.entries
        )


EMPTY = Spectrum(1, (), ())


def from_numerators(den: int, pairs: Iterable[tuple[int, int]]) -> Spectrum:
    """Build a spectrum from (numerator, multiplicity) pairs over one denominator.

    The pair (x, m) stands for the spectral number x/den with multiplicity m;
    duplicate numerators are merged and every multiplicity must be positive.
    """
    counts: dict[int, int] = {}
    for x, m in pairs:
        if m <= 0:
            raise ValueError(f"multiplicity must be positive, got {m} at {x}/{den}")
        counts[x] = counts.get(x, 0) + m
    nums = sorted(counts)
    return Spectrum(den, tuple(nums), tuple(counts[x] for x in nums))


def _over(s: Spectrum, den: int) -> Iterable[tuple[int, int]]:
    # (numerator, multiplicity) pairs of s over den, a multiple of s.den
    scale = den // s.den
    return ((x * scale, m) for x, m in zip(s.nums, s.mults))


def make_spectrum(pairs: Iterable[tuple[Fraction, int]]) -> Spectrum:
    """Build a spectrum from (spectral number, multiplicity) pairs.

    Duplicate spectral numbers are merged by adding multiplicities; every
    multiplicity must be positive.
    """
    pairs = [(Fraction(alpha), m) for alpha, m in pairs]
    den = math.lcm(*(alpha.denominator for alpha, _ in pairs))
    return from_numerators(
        den, ((alpha.numerator * (den // alpha.denominator), m) for alpha, m in pairs)
    )


def add(*spectra: Spectrum) -> Spectrum:
    """Pointwise sum of multiplicities; the total is the sum of the totals.

    All the spectra are merged at once, over the lcm of their denominators.
    """
    spectra = [s for s in spectra if s.nums]
    if len(spectra) < 2:
        return spectra[0] if spectra else EMPTY
    den = math.lcm(*(s.den for s in spectra))
    return from_numerators(den, chain.from_iterable(_over(s, den) for s in spectra))


def _suspended(den: int, nums: Iterable[int], mults: Sequence[int], m: int) -> Spectrum:
    # The numerators over den moved up by m/2 = (m*den/2)/den, built as one
    # Spectrum with no Fraction: den and the numerators are doubled first
    # only when m and den are both odd.  Used by Spectrum.suspend, and by
    # catalog.germ_spectrum on a curve spectrum's parts before any Spectrum
    # of the curve is built.
    scale = 1 + (m & den & 1)
    den *= scale
    offset = m * den // 2
    return Spectrum(den, tuple([x * scale + offset for x in nums]), mults)


# The most (alpha, beta) pairs a join sums.  On a 2-core machine with Python
# 3.11, joining fermat:1:1001 with itself (10^6 pairs, 1,999 sums) takes 0.3 s
# at 16 MB peak RSS, and 10^6 pairs with distinct sums 0.9 s at 156 MB.  The
# command line costs more: `spectrum join --json` of two 1,000-entry files
# over one 40-bit denominator (10^6 distinct sums) takes 3.5-4.6 s at 466 MB,
# and 7.0 s at 309 MB with the text output (MAX_DENOMINATOR_BITS gives
# larger denominators).
MAX_JOIN_PAIRS = 1_000_000


def _check_join_size(m: int, n: int) -> None:
    # the pair budget of a join of spectra with m and n distinct numbers
    pairs = m * n
    if pairs > MAX_JOIN_PAIRS:
        shown = pairs if pairs < 10**18 else "more than 10^18"  # int-to-str has a digit limit
        raise ValueError(f"the join would sum {shown} pairs of spectral numbers, over the budget of {MAX_JOIN_PAIRS}")


def join(s1: Spectrum, s2: Spectrum) -> Spectrum:
    """Multiplicative join of two spectra.

    Writing each spectrum as the generating sum sum_alpha n_alpha t^(alpha+1),
    the join is the spectrum of the product: spectral numbers alpha+beta+1
    with convolved multiplicities.  Totals multiply, and joining with the
    one-variable Morse spectrum {-1/2} equals a single suspension.  More than
    MAX_JOIN_PAIRS pairs of spectral numbers is refused with a ValueError
    before the first is summed.
    """
    _check_join_size(len(s1.nums), len(s2.nums))
    if not s1.nums or not s2.nums:
        return EMPTY
    den = math.lcm(s1.den, s2.den)
    right = [(y + den, mb) for y, mb in _over(s2, den)]
    return from_numerators(
        den, ((x + y, ma * mb) for x, ma in _over(s1, den) for y, mb in right)
    )


def _check_bound(x: Bound, name: str) -> Bound:
    if isinstance(x, float):
        if not math.isinf(x):
            raise ValueError(f"{name} must be an exact rational or +-inf, got {x!r}")
        return POS_INF if x > 0 else NEG_INF
    return Fraction(x)


def deg_window(
    s: Spectrum,
    a: Bound,
    b: Bound,
    left_open: bool = True,
    right_open: bool = True,
) -> int:
    """Number of spectral numbers (with multiplicity) in the given interval.

    Endpoints are exact rationals or +-infinity; each side is open or closed
    independently, so unit windows ]a,a+1], rays ]-inf,t] and any mixed
    interval all go through this one code path.  The only floats accepted
    are +-inf, which mark a ray and enter no arithmetic.  A rational endpoint
    p/q becomes an integer threshold on the numerators x over ``s.den``,
    inline: x/den <= p/q exactly when x <= floor(p*den/q), and x/den < p/q
    when x < ceil(p*den/q).  Bounds with a > b are rejected, infinite ones
    included.
    """
    if type(a) is not Fraction and a is not NEG_INF:
        a = _check_bound(a, "left endpoint")
    if type(b) is not Fraction and b is not POS_INF:
        b = _check_bound(b, "right endpoint")
    nums, cum, den = s.nums, s._cum, s.den
    # a float is now NEG_INF or POS_INF: nothing lies below -inf, all below +inf
    if type(a) is float:
        lo = 0 if a is NEG_INF else cum[-1]
    else:
        p, q = a.as_integer_ratio()
        t = p * den
        lo = cum[bisect_right(nums, t // q)] if left_open else cum[bisect_left(nums, -(-t // q))]
    if type(b) is float:
        hi = 0 if b is NEG_INF else cum[-1]
    else:
        r, u = b.as_integer_ratio()
        t = r * den
        hi = cum[bisect_left(nums, -(-t // u))] if right_open else cum[bisect_right(nums, t // u)]
    if a is NEG_INF or b is POS_INF or type(a) is type(b) is Fraction and p * u <= r * q:
        return hi - lo if hi > lo else 0
    raise ValueError(f"empty interval bounds: {a} > {b}")
