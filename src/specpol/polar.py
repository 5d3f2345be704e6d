"""Polar degree of a projective hypersurface with isolated singularities.

For a degree-d hypersurface in P^n whose singular locus is the multiset of
catalog germs in a :class:`Configuration`, the polar degree is

    (d - 1)^n  -  sum of the Milnor numbers,

which is non-negative for every configuration that an actual hypersurface can
carry.  The gradient-map lower bound (polar degree >= sectional Milnor number
at every singular point) is exact in the plane, where the search applies it to
its germ pool.  In higher dimension it is only a catalog-membership condition,
which every catalog germ meets, so the search does not call it there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .catalog import GermClass, multiplicity_curve, parse_germ

__all__ = [
    "Configuration",
    "InfeasibleConfigurationError",
    "UnsupportedDimensionError",
    "diagonal_milnor",
    "huh_inequality_holds",
    "polar_degree",
    "sectional_milnor_plane",
]


# `pol` prints (d-1)^n in decimal, and turning an int into decimal digits is
# quadratic in its length: on a 2-core machine with Python 3.11, 10^5 bits
# print in 0.02 s and 10^6 bits in 1.7 s.
MAX_POWER_BITS = 100_000


class InfeasibleConfigurationError(ValueError):
    """Total Milnor number exceeds (d-1)^n: no hypersurface carries it."""


class UnsupportedDimensionError(ValueError):
    """Raised when an exact sectional Milnor number is only known for curves."""


@dataclass(frozen=True)
class Configuration:
    """(n, d, multiset of germs): a candidate singular locus.

    Germs are stored canonically sorted and all share ambient_vars = n.
    """

    n: int
    d: int
    germs: tuple[GermClass, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if self.d < 2:
            raise ValueError(f"need d >= 2, got {self.d}")
        fixed = tuple(
            sorted((g.in_ambient(self.n) for g in self.germs), key=GermClass.sort_key)
        )
        object.__setattr__(self, "germs", fixed)

    @property
    def total_milnor(self) -> int:
        return sum(g.milnor for g in self.germs)

    @property
    def smooth_milnor(self) -> int:
        return diagonal_milnor(self.n, self.d)

    def germ_strings(self) -> list[str]:
        return [str(g) for g in self.germs]

    def to_json_obj(self) -> dict:
        return {"n": self.n, "d": self.d, "germs": self.germ_strings()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Configuration":
        if not isinstance(obj, dict):
            raise ValueError(f"a configuration is a JSON object, got {obj!r}")
        n, d, germs = obj.get("n"), obj.get("d"), obj.get("germs")
        for name, value in (("n", n), ("d", d)):
            if type(value) is not int:  # rejects floats (2.5, 1e400) and booleans
                raise ValueError(f"configuration {name} must be an integer, got {value!r}")
        if not isinstance(germs, list) or not all(isinstance(s, str) for s in germs):
            raise ValueError(f"configuration germs must be a list of class strings, got {germs!r}")
        return cls(n, d, tuple(parse_germ(s, n) for s in germs))

    @classmethod
    def from_json(cls, text: str) -> "Configuration":
        try:
            obj = json.loads(text)
        except RecursionError:  # the C decoder recurses once per nested array
            raise ValueError("configuration JSON is nested too deeply") from None
        return cls.from_json_obj(obj)

    def __str__(self) -> str:
        inner = ", ".join(self.germ_strings()) or "smooth"
        return f"(n={self.n}, d={self.d}; {inner})"


def diagonal_milnor(n: int, d: int) -> int:
    """(d-1)^n, the Milnor number of the diagonal germ x_1^d + ... + x_n^d.

    It has more than n * (bit_length(d-1) - 1) bits; when that is already
    MAX_POWER_BITS or more, it is refused with a ValueError before it is
    computed.
    """
    if n * ((d - 1).bit_length() - 1) >= MAX_POWER_BITS:
        raise ValueError(f"(d-1)^n for n={n}, d={d} has more than {MAX_POWER_BITS} bits")
    return (d - 1) ** n


def polar_degree(c: Configuration) -> int:
    """(d-1)^n minus the total Milnor number; errors instead of going negative."""
    value = c.smooth_milnor - c.total_milnor
    if value < 0:
        raise InfeasibleConfigurationError(
            f"total Milnor number {c.total_milnor} exceeds (d-1)^n = {c.smooth_milnor}"
        )
    return value


def sectional_milnor_plane(g: GermClass) -> int:
    """Milnor number of a generic point section of a plane-curve germ.

    For a curve this is multiplicity - 1: 1 for the A family, 2 for D/E/J.
    """
    if g.ambient_vars != 2:
        raise UnsupportedDimensionError(
            f"exact sectional Milnor number only implemented for curves, got n={g.ambient_vars}"
        )
    return multiplicity_curve(g) - 1


def huh_inequality_holds(c: Configuration, k: int) -> bool:
    """Gradient-degree lower bound, as far as it is exactly computable.

    In the plane the sectional Milnor number is multiplicity - 1 and must not
    exceed k at any singular point.  For n >= 3 and k <= 2 the bound forces
    every germ into the A/D/E/J catalog, which is a membership condition on
    our germ type that every `GermClass` meets (it rejects any other family);
    for k >= 3 no exact criterion is available and the check passes
    vacuously.  So only the plane can fail.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return c.n != 2 or all(sectional_milnor_plane(g) <= k for g in c.germs)
