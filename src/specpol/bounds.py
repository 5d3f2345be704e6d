"""Finiteness bounds for the (dimension, degree) pairs of a given polar degree.

For polar degree k the candidate (n, d) pairs form a finite set, produced here
as an explicit region with a per-pair audit trail:

* degree bound: d < max(2 + ell(n,k), (n + ell(n,k))(k+2)/(n-1)), where
  ell(n,k) is the least ell with binomial(n+ell, n) > k;
* dimension bound (k >= 3): no pair with n >= k and n >= 5 + 3*log2(k),
  the logarithmic condition implemented as the exact power comparison
  2^(n-5) >= k^3;
* k = 2 refinement: for n >= 3 only the pairs with (3(n-1)-1)(d-2) < 14
  survive, which is exactly {(3,3), (3,4), (4,3), (5,3)};
* d = 2 is always excluded (the polar degree of a quadric is at most 1).

All comparisons are exact integer or rational arithmetic; no logarithms are
ever evaluated in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

__all__ = [
    "EXCLUDED_BY_DEGREE",
    "EXCLUDED_BY_DIMENSION",
    "EXCLUDED_BY_K2_REFINEMENT",
    "EXCLUDED_BY_QUADRIC",
    "Region",
    "alpha1_threshold",
    "candidate_region",
    "degree_bound",
    "dimension_excluded",
    "ell",
    "lemma1_region_k2",
]

# Exclusion tags used in the region JSON contract.
EXCLUDED_BY_DIMENSION = "t:h0"
EXCLUDED_BY_DEGREE = "t:Huh2"
EXCLUDED_BY_K2_REFINEMENT = "l:1"
EXCLUDED_BY_QUADRIC = "d=2"

# The dimension bound is the exponent-3 power comparison 2^(n-5) >= k^3; the
# sharper exponent-1 variant (2^(n-5) >= k) would exclude more pairs but is
# not established, so no pair is ever rejected on it.
DIMENSION_BOUND_NOTE = (
    "dimension bound uses the power comparison 2^(n-5) >= k^3 "
    "(the conservative 5 + 3*log2(k) form, not 5 + log2(k))"
)

# candidate_region logs every cell of its scanned rectangle; `region 200`
# has 844k cells and takes about 1.3 s.
MAX_REGION_CELLS = 2_000_000


@dataclass(frozen=True)
class Region:
    """Finite candidate (n, d) set for one k, with per-pair exclusion log."""

    k: int
    pairs: frozenset[tuple[int, int]]
    exclusion_log: tuple[tuple[int, int, str], ...]
    notes: tuple[str, ...] = ()

    def to_json_obj(self) -> dict:
        return {
            "k": self.k,
            "pairs": [[n, d] for n, d in sorted(self.pairs)],
            "excluded": [
                {"n": n, "d": d, "by": by}
                for n, d, by in sorted(self.exclusion_log)
            ],
            "notes": list(self.notes),
        }


def ell(n: int, k: int) -> int:
    """Least ell >= 0 with binomial(n + ell, n) > k."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    # comb(n + ell, n) grows with ell: double an upper end, then bisect
    lo, hi = 0, 1
    while comb(n + hi, n) <= k:
        lo, hi = hi + 1, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        if comb(n + mid, n) > k:
            hi = mid
        else:
            lo = mid + 1
    return lo


def degree_bound(n: int, k: int) -> Fraction:
    """Exact strict upper bound for the degree at polar degree k.

    Any hypersurface in P^n with polar degree k has
    d < max(2 + ell, (n + ell)(k + 2)/(n - 1)) with ell = ell(n, k).
    """
    if n < 2 or k < 2:
        raise ValueError(f"need n >= 2 and k >= 2, got n={n}, k={k}")
    lv = ell(n, k)
    return max(Fraction(2 + lv), Fraction((n + lv) * (k + 2), n - 1))


def dimension_excluded(n: int, k: int) -> bool:
    """True when no polar-degree-k hypersurface with d >= 3 exists in P^n.

    Exact-integer form of n >= max(k, 5 + 3*log2(k)); only valid for k >= 3.
    """
    if k < 3:
        raise ValueError(f"dimension bound needs k >= 3, got {k}")
    return n >= k and n >= 5 and 2 ** (n - 5) >= k**3


def lemma1_region_k2() -> frozenset[tuple[int, int]]:
    """Surviving (n, d) with n >= 3, d >= 3 of (3(n-1)-1)(d-2) < 14 at k = 2."""
    pairs = set()
    n = 3
    while (3 * (n - 1) - 1) * (3 - 2) < 14:  # smallest degree d = 3
        d = 3
        while (3 * (n - 1) - 1) * (d - 2) < 14:
            pairs.add((n, d))
            d += 1
        n += 1
    return frozenset(pairs)


def alpha1_threshold(n: int, k: int) -> Fraction:
    """Strict lower bound -1 + (n-1)/(k+2) for every germ's smallest spectral number."""
    if n < 2 or k < 1:
        raise ValueError(f"need n >= 2 and k >= 1, got n={n}, k={k}")
    return Fraction(n - 1, k + 2) - 1


def _ceil_fraction(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def candidate_region(k: int) -> Region:
    """Finite superset of the (n, d) pairs admitting polar degree k.

    Scans the rectangle n in [2, N_max], d in [2, D_max], where N_max is the
    least dimension excluded outright and D_max the ceiling of the largest
    degree bound over the scanned dimensions; every rejected pair is logged
    with the bound that killed it.  A rectangle of more than
    ``MAX_REGION_CELLS`` cells is refused with a ValueError before the scan.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    notes = [DIMENSION_BOUND_NOTE]
    if k == 2:
        refined = lemma1_region_k2()
        n_max = max(n for n, _ in refined) + 1
    else:
        # the least n >= max(k, 5) with 2^(n-5) >= k^3 (see dimension_excluded)
        n_max = max(k, 5 + (k**3 - 1).bit_length())
    # The plane bound is the largest: ell(n, k) <= ell(2, k) = l, and
    # (n + l)/(n - 1) <= 2 + l for n >= 2.
    d_max = _ceil_fraction(degree_bound(2, k))
    cells = (n_max - 1) * (d_max - 1)
    if cells > MAX_REGION_CELLS:
        shown = cells if cells < 10**18 else "more than 10^18"  # int-to-str has a digit limit
        raise ValueError(f"the region scan would cover {shown} (n, d) cells, over the budget of {MAX_REGION_CELLS}")
    d_bounds = {n: degree_bound(n, k) for n in range(2, n_max + 1)}

    pairs: set[tuple[int, int]] = set()
    log: list[tuple[int, int, str]] = []
    for n in range(2, n_max + 1):
        for d in range(2, d_max + 1):
            if d == 2:
                log.append((n, d, EXCLUDED_BY_QUADRIC))
                continue
            if k == 2:
                if n >= 3:
                    if (n, d) in refined:
                        pairs.add((n, d))
                    else:
                        log.append((n, d, EXCLUDED_BY_K2_REFINEMENT))
                    continue
            elif dimension_excluded(n, k):
                log.append((n, d, EXCLUDED_BY_DIMENSION))
                continue
            if d < d_bounds[n]:
                pairs.add((n, d))
            else:
                log.append((n, d, EXCLUDED_BY_DEGREE))
    return Region(
        k=k,
        pairs=frozenset(pairs),
        exclusion_log=tuple(sorted(log)),
        notes=tuple(notes),
    )
