"""Exact arithmetic on singularity spectra.

A spectrum is a finite multiset of rational numbers: formally an element of
the group ring Z[Q] with non-negative coefficients, stored as an ordered map
from spectral number to multiplicity.  All coordinates are `fractions.Fraction`
values, so every comparison and every window count below is exact.

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
from enum import Enum
from fractions import Fraction
from typing import Iterable, Union

__all__ = [
    "NEG_INF",
    "POS_INF",
    "Bound",
    "EmptySpectrumError",
    "Spectrum",
    "WindowKind",
    "add",
    "deg_window",
    "is_symmetric",
    "join",
    "make_spectrum",
    "min_spectral",
    "shift",
    "suspend",
    "total",
    "unit_window_degree",
]

NEG_INF = -math.inf
POS_INF = math.inf

#: An interval endpoint: an exact rational, or +-infinity for rays.
Bound = Union[Fraction, float]


class EmptySpectrumError(ValueError):
    """Raised when an operation needs at least one spectral number."""


class WindowKind(Enum):
    """The two length-one window shapes used by semicontinuity.

    OPEN_OPEN is the interval ]a, a+1[, OPEN_CLOSED is ]a, a+1].
    """

    OPEN_OPEN = "open"
    OPEN_CLOSED = "half"


@dataclass(frozen=True)
class Spectrum:
    """Immutable multiset of spectral numbers with positive multiplicities.

    ``entries`` is strictly increasing in the spectral number; use
    :func:`make_spectrum` to build one from unsorted pairs.
    """

    entries: tuple[tuple[Fraction, int], ...]
    _keys: tuple[Fraction, ...] = field(init=False, repr=False, compare=False)
    _cum: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        keys = tuple(a for a, _ in self.entries)
        cum = [0]
        for _, m in self.entries:
            cum.append(cum[-1] + m)
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_cum", tuple(cum))

    def __iter__(self):
        return iter(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __add__(self, other: "Spectrum") -> "Spectrum":
        return add(self, other)

    @property
    def support(self) -> tuple[Fraction, ...]:
        return self._keys

    def multiplicity(self, alpha: Fraction) -> int:
        i = bisect_left(self._keys, alpha)
        if i < len(self._keys) and self._keys[i] == alpha:
            return self.entries[i][1]
        return 0

    def total(self) -> int:
        """Sum of all multiplicities (the Milnor number for a germ spectrum)."""
        return self._cum[-1]

    def min_spectral(self) -> Fraction:
        if not self.entries:
            raise EmptySpectrumError("empty spectrum has no smallest spectral number")
        return self._keys[0]

    def max_spectral(self) -> Fraction:
        if not self.entries:
            raise EmptySpectrumError("empty spectrum has no largest spectral number")
        return self._keys[-1]

    def shift(self, q: Fraction) -> "Spectrum":
        q = Fraction(q)
        return Spectrum(tuple((a + q, m) for a, m in self.entries))

    def suspend(self, m: int) -> "Spectrum":
        if m < 0:
            raise ValueError(f"suspension count must be >= 0, got {m}")
        return self.shift(Fraction(m, 2))

    def is_symmetric(self, center: Fraction) -> bool:
        two_c = 2 * Fraction(center)
        return all(self.multiplicity(two_c - a) == m for a, m in self.entries)

    def deg(self, a: Bound, b: Bound, left_open: bool = True, right_open: bool = True) -> int:
        return deg_window(self, a, b, left_open, right_open)

    def to_json_obj(self) -> list[dict[str, int]]:
        return [
            {"num": a.numerator, "den": a.denominator, "mult": m}
            for a, m in self.entries
        ]

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj: list[dict[str, int]]) -> "Spectrum":
        if not isinstance(obj, list):
            raise ValueError(f"a spectrum is a JSON list of entries, got {obj!r}")
        pairs = []
        for e in obj:
            # type() is int rejects JSON floats and booleans alike
            if not isinstance(e, dict) or not all(
                type(e.get(key)) is int for key in ("num", "den", "mult")
            ):
                raise ValueError(f"spectrum entry {e!r} needs integer num, den and mult")
            if e["den"] == 0:
                raise ValueError(f"spectrum entry {e!r} has den 0")
            pairs.append((Fraction(e["num"], e["den"]), e["mult"]))
        return make_spectrum(pairs)

    @classmethod
    def from_json(cls, text: str) -> "Spectrum":
        return cls.from_json_obj(json.loads(text))

    def __str__(self) -> str:
        if not self.entries:
            return "(empty)"
        return " + ".join(
            f"{m}({a})" if m > 1 else f"({a})" for a, m in self.entries
        )


EMPTY = Spectrum(())


def make_spectrum(pairs: Iterable[tuple[Fraction, int]]) -> Spectrum:
    """Build a spectrum from (spectral number, multiplicity) pairs.

    Duplicate spectral numbers are merged by adding multiplicities; every
    multiplicity must be positive.
    """
    acc: dict[Fraction, int] = {}
    for alpha, m in pairs:
        if m <= 0:
            raise ValueError(f"multiplicity must be positive, got {m} at {alpha}")
        alpha = Fraction(alpha)
        acc[alpha] = acc.get(alpha, 0) + m
    return Spectrum(tuple(sorted(acc.items())))


def add(s1: Spectrum, s2: Spectrum) -> Spectrum:
    """Pointwise sum of multiplicities; total(add) = total(s1) + total(s2)."""
    if not s1.entries:
        return s2
    if not s2.entries:
        return s1
    acc = dict(s1.entries)
    for alpha, m in s2.entries:
        acc[alpha] = acc.get(alpha, 0) + m
    return Spectrum(tuple(sorted(acc.items())))


def shift(s: Spectrum, q: Fraction) -> Spectrum:
    """Translate every spectral number by q, keeping multiplicities."""
    return s.shift(q)


def suspend(s: Spectrum, m: int) -> Spectrum:
    """Add m squares: every spectral number moves up by m/2."""
    return s.suspend(m)


def join(s1: Spectrum, s2: Spectrum) -> Spectrum:
    """Multiplicative join of two spectra.

    Writing each spectrum as the generating sum sum_alpha n_alpha t^(alpha+1),
    the join is the spectrum of the product: spectral numbers alpha+beta+1
    with convolved multiplicities.  Totals multiply, and joining with the
    one-variable Morse spectrum {-1/2} equals a single suspension.
    """
    if not s1.entries or not s2.entries:
        return EMPTY
    acc: dict[Fraction, int] = {}
    for a, ma in s1.entries:
        for b, mb in s2.entries:
            key = a + b + 1
            acc[key] = acc.get(key, 0) + ma * mb
    return Spectrum(tuple(sorted(acc.items())))


def _check_bound(x: Bound, name: str) -> Bound:
    if isinstance(x, float):
        if not math.isinf(x):
            raise ValueError(f"{name} must be an exact rational or +-inf, got {x!r}")
        return x
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
    interval all go through this one code path.
    """
    a = _check_bound(a, "left endpoint")
    b = _check_bound(b, "right endpoint")
    if not isinstance(a, float) and not isinstance(b, float) and a > b:
        raise ValueError(f"empty interval bounds: {a} > {b}")
    keys = s._keys
    if isinstance(a, float):
        lo = 0 if a < 0 else len(keys)
    else:
        lo = bisect_right(keys, a) if left_open else bisect_left(keys, a)
    if isinstance(b, float):
        hi = len(keys) if b > 0 else 0
    else:
        hi = bisect_left(keys, b) if right_open else bisect_right(keys, b)
    if hi <= lo:
        return 0
    return s._cum[hi] - s._cum[lo]


def unit_window_degree(s: Spectrum, a: Fraction, kind: WindowKind) -> int:
    """Degree of s over ]a, a+1[ or ]a, a+1] depending on kind."""
    a = Fraction(a)
    return deg_window(s, a, a + 1, True, kind is WindowKind.OPEN_OPEN)


def total(s: Spectrum) -> int:
    return s.total()


def min_spectral(s: Spectrum) -> Fraction:
    return s.min_spectral()


def is_symmetric(s: Spectrum, center: Fraction) -> bool:
    return s.is_symmetric(center)
