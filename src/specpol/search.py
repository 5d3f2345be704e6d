"""Exhaustive enumeration of singular-locus configurations with a given polar degree.

For parameters (n, d, k) the target total Milnor number is (d-1)^n - k, and a
configuration is any multiset of catalog germs in ambient n whose Milnor
numbers add up to it.  Enumeration is a depth-first partition search over
the germ pool, heaviest germ first (pool indices never decrease along a
branch, so each multiset is produced exactly once); since every family's
Milnor number grows strictly with its parameters, the pool of admissible
classes is finite.

Filters:

* ``alpha1`` (germ minimum > -1 + (n-1)/(k+2)) is implied by the catalog for
  k >= 1: every curve spectral number exceeds -2/3 (w1 + w2 - 1 > -2/3 from
  the weights, (-2k+1)/(3k) for J), so a germ minimum exceeds
  -2/3 + (n-2)/2 >= -1 + (n-1)/3.  ``corank`` (2^max(corank_curve - 1, 0)
  <= k) is implied for k >= 2, as corank_curve <= 2.  Each is listed as
  applied from that k on and prunes nothing (checked by
  ``test_implied_pool_filters_are_vacuous``); below it, it is not listed.
* ``huh`` (k >= 1, plane only): multiplicity - 1 <= k for every pool germ.
  The multiplicity is one per family, read from the table behind
  `catalog.multiplicity_curve` (2 for A, 3 for D/E/J), so for every k >= 1
  `enumerate_configurations` keeps the families with multiplicity - 1 <= k
  and counts what it removes in closed form (`germ_pool_size`), before any
  class is listed: every D/E/J class at k = 1, nothing from k = 2 on.  For
  n >= 3 the gradient-degree bound is catalog membership, which the pool has
  by construction.
* ``semicontinuity``: window counts of the summed spectrum must not exceed
  the diagonal-germ target's anywhere; applied to every complete
  configuration, and incrementally during the search (window counts only grow
  when germs are added, so a partial sum that already exceeds a target window
  prunes its whole subtree without changing the survivor set).  The partial
  counts live in one int, a lane of B bits per window, with B wide enough that
  no lane carries into the next; a child adds its germ's packed counts, and
  a node is cut if any lane's top bit is set (SWAR, SIMD within a register).  The
  lanes are the windows (t, closed) of `semicontinuity.check_windows`, those
  that `check(candidate, target, open_variant)` tests: ]a,a+1] and with the
  open variant ]a,a+1[, at every test point a of the target, less those that
  can never cut: a window that misses ]-1, 1[ in the frame below (the two end
  windows do), a bound of at least the target Milnor number, and an open
  window whose half-open twin has the same bound (`_SearchContext` has the
  proofs).  A configuration that passes the check fits every lane.  The
  converse fails, as the lanes test the target's test points only (A13 +
  E7 + E12 at (2,7) fits every half-open lane, not ]a,a+1] at a = -5/9),
  so each leaf is tested once more, first by the target's cells.  Between
  consecutive breakpoints b < c of the target (its numbers y and y - 1)
  the target's count in ]a, a+1] is a constant h for a in [b, c), and the
  window lies in the cell ]b, c+1[; below the first breakpoint and from
  the last on the count is 0, and the windows lie in the two end cells.  A
  cell is one more lane of the same packed counts, with the bound h, but
  no node tests it and no lookahead reaches it, so it never cuts; a leaf
  that fits every cell fits every window ]a, a+1] and passes at once.  A
  leaf that overflows a cell goes to the exact test, ]x-1, x] at each of
  its own spectral numbers x, the only windows that can still fail, and
  a leaf the cells pass passes it too (`_SearchContext` has both proofs).
  The exact test sums no spectrum: it sorts its germs' numbers over one
  integer frame and reads the target's counts from a table
  (`_SearchContext.leaf_passes`).  It runs at no leaf of a default search
  of `candidate_region(2)`.
* Lookahead (part of ``semicontinuity``): a node with ``remaining`` Milnor
  number still to place is completed by pool germs whose Milnor numbers sum
  to ``remaining``.  Such a completion adds sum_g vec_g[j] = sum_g mu_g *
  (vec_g[j]/mu_g) >= remaining * rho_j to lane j, where rho_j is the least
  density vec_g[j]/mu_g over the whole pool (a fractional-knapsack
  relaxation), and, counts being integers, at least ceil(remaining * rho_j).
  The germs a node may still take are a subset of the pool, so the
  whole-pool rho_j bounds them too.  The packed bounds are a table by
  ``remaining``, built once after the vectors: lane j's bound rises by one
  at each r = floor(v / rho_j) + 1, so the table adds one lane bit at each
  such r and is summed once.  The node adds these bounds to its own counts
  and is cut if a lane's top bit is set.  Then every
  completion overflows that lane, so the cut drops only configurations
  that the lanes would reject at their last germ: survivors and
  ``examined`` are those of the search without it; only cuts change.
* Centred window (part of ``semicontinuity``): before any pool is counted
  or listed, `centred_window_certificate` tries the lemma that every
  catalog germ puts at least 4/5 of its spectral numbers in the open unit
  window centred on its spectrum, ]c-1/2, c+1/2[ with c = (n-2)/2 (the
  proof is in its docstring), and so at least as many in the half-open
  ]c-1/2, c+1/2].  If ceil(4T/5), T the target Milnor number, exceeds the
  target spectrum's count in the open window (with the open variant) or
  the half-open one (without it), no configuration passes, and the search
  reports what the DFS reports for a cut root: one cut and nothing
  examined.  With the open variant this decides 4 of the 13 pairs of
  `candidate_region(2)` and 39 of the 51 of `candidate_region(3)`, among
  them all 14 whose pools are over the budget; without it, 33 of the 51.
* Root walk (part of ``semicontinuity``): at the root the bound is a
  single-window certificate, and it is decided before any window vector is
  built.  The walk takes one lane at a time and counts the pool in it
  lightest germ first; the lane dies at the first germ whose density is too
  low, and the first lane that outlives the whole pool cuts the root
  (`_SearchContext._root_is_cut` has the proof that this is exactly the
  lookahead's test at the root).  Then the search reports a cut root and
  builds, packs and visits nothing more: of the pairs the lemma leaves,
  (2,7), (2,9), (2,11) and (4,3) at k = 2 and 6 of the 12 at k = 3 end
  there.  Otherwise the vectors are built from one table of packed ints
  by place (`_SearchContext.build`) and the DFS runs as above.  No
  `Spectrum` of a pool class is built, and a `GermClass` only for a class
  that a survivor holds: the pool is listed once, as (family, k, i) fields
  (`_pool_fields`), and the walk, the vectors and the leaves read each
  class as the arithmetic progressions of numerators that its curve
  spectrum is (`catalog._curve_progressions`), the walk counting a
  progression in a window in closed form.  They count curve spectra
  against the target moved down once by (n-2)/2, the amount a germ
  spectrum (the (n-2)-fold suspension) lies above its curve spectrum:
  moving both spectra moves every test point along and changes no count.

Reported counts: ``examined`` is the number of complete configurations that
reached the target Milnor sum and entered per-configuration checking;
``pruned_by`` records, for the pool filters, how many germ classes they
removed and, for semicontinuity, how many subtrees and complete
configurations it cut.  Survivors are returned canonically sorted: the
canonical order of classes is `germ_pool`'s (family in ``FAMILIES`` order,
then k, then i, which is ``GermClass.sort_key``), each survivor lists its
germs in it, and the survivors are in lexicographic order of those lists.
The DFS keeps each survivor as its pool indices and sorts them once, as
tuples of canonical places; only then is one `GermClass` made per distinct
place the survivors hold, from the context's fields.  The centred
window, the search context and the diagnostic windows read the diagonal
germ's spectrum from `fermat_spectrum`, which keeps the last (n, d) it
built, so a search builds it at most once.  Every
search runs in this process; the ``workers`` argument is checked but selects
nothing, so any worker count gives the same report.  Survivors satisfy a
necessary criterion only: they are candidates, not certified hypersurfaces.

Budget: a search that the centred window does not decide and whose pool
would list more than ``MAX_POOL_CLASSES`` classes is refused with a ValueError
before the pool is listed; `germ_pool_size` counts the pool in closed form.
With semicontinuity off every configuration survives, and a search with more
than ``MAX_UNPRUNED_CONFIGURATIONS`` of them is refused with a ValueError
before the pool is listed: they are counted by Milnor number, with the classes
of each counted in closed form.  The pool budget is checked first.  Before
anything else, `diagonal_milnor` refuses a (d-1)^n of more than ``MAX_POWER_BITS`` bits
without computing it.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from itertools import accumulate, chain
from math import lcm
from typing import AbstractSet, Iterable, Optional

from .catalog import _MULTIPLICITY, FAMILIES, GermClass, _curve_progressions, _Progressions, fermat_spectrum
from .polar import Configuration, InfeasibleConfigurationError, diagonal_milnor, polar_degree
from .semicontinuity import check_configuration, check_windows, window_counts
from .spectrum import EMPTY, NEG_INF, deg_window

__all__ = [
    "CentredWindowCertificate",
    "HuhEntryResult",
    "HuhVerification",
    "SearchFilters",
    "SearchReport",
    "centred_window_certificate",
    "enumerate_configurations",
    "germ_pool",
    "germ_pool_size",
    "load_huh_lists",
    "verify_huh_lists",
]

FILTER_NAMES = ("alpha1", "corank", "huh", "semicontinuity")
# About 20 times the largest pool a search with semicontinuity still lists
# for k = 2..12: 10,732 classes at (2,20,11) without the open variant, 8,739
# at (2,19,9) with it, each a root cut in about 1.5 s at a 36-39 MB peak.
MAX_POOL_CLASSES = 200_000
# With semicontinuity off every configuration survives and is held in memory:
# unpruned (2,7,2) lists 231,263 in 7.0 s at a 225 MB peak (305 MB through
# `search --json`), so this budget bounds a search near 0.5-0.7 GB.
MAX_UNPRUNED_CONFIGURATIONS = 500_000
# implied by the catalog from the k given on (see the module docstring)
_IMPLIED_FILTERS = (("alpha1", 1), ("corank", 2))

# Window labels whose target degrees are embedded in reports for the two
# elimination cases, for cross-reading against the hand argument.
_DIAGNOSTIC_CASES = {(5, 3), (4, 3)}
_DIAGNOSTIC_WINDOWS = (
    ("]1,2[", (Fraction(1), Fraction(2), True, True)),
    ("]-inf,1[", (NEG_INF, Fraction(1), True, True)),
    ("]-inf,-1/3]", (NEG_INF, Fraction(-1, 3), True, False)),
    ("]2/3,5/3[", (Fraction(2, 3), Fraction(5, 3), True, True)),
)


@dataclass(frozen=True)
class SearchFilters:
    """Which switchable filters a search applies; all on by default."""

    huh: bool = True
    semicontinuity: bool = True
    open_variant: bool = True

    def applied_names(self, k: int) -> tuple[str, ...]:
        names = [name for name, least_k in _IMPLIED_FILTERS if k >= least_k]
        if self.huh and k >= 1:
            names.append("huh")
        if self.semicontinuity:
            names.append("semicontinuity")
        if self.semicontinuity and self.open_variant:
            names.append("semicontinuity_open_variant")
        return tuple(names)


@dataclass(frozen=True)
class SearchReport:
    n: int
    d: int
    k: int
    target_mu: int
    whitelist: tuple[str, ...]
    filters_applied: tuple[str, ...]
    survivors: tuple[Configuration, ...]
    examined: int
    pruned_by: tuple[tuple[str, int], ...]
    diagnostic_windows: tuple[tuple[str, int], ...] = ()

    def pruned_by_dict(self) -> dict[str, int]:
        return dict(self.pruned_by)

    def to_json_obj(self) -> dict:
        return {
            "params": {"n": self.n, "d": self.d, "k": self.k},
            "target_mu": self.target_mu,
            "whitelist": list(self.whitelist),
            "filters_applied": list(self.filters_applied),
            "survivors": [c.to_json_obj() for c in self.survivors],
            "examined": self.examined,
            "pruned_by": {name: count for name, count in self.pruned_by},
            "diagnostic_windows": {label: deg for label, deg in self.diagnostic_windows},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))


def _families(whitelist: Iterable[str]) -> set[str]:
    families = set(whitelist)
    unknown = families.difference(FAMILIES)
    if unknown:
        raise ValueError(f"unknown families in whitelist: {sorted(unknown)}")
    return families


def germ_pool_size(mu_max: int, whitelist: Iterable[str] = FAMILIES) -> int:
    """Number of catalog classes with Milnor number <= mu_max, in closed form.

    A gives mu_max classes, D mu_max - 3, E the m <= mu_max with m mod 6 in
    {0, 1, 2} (m >= 6), and J the sum over k >= 2 of mu_max - 6k + 3.
    """
    families = _families(whitelist)
    t = max(mu_max, 0)
    size = 0
    if "A" in families:
        size += t
    if "D" in families:
        size += max(t - 3, 0)
    if "E" in families:
        q, r = divmod(t + 1, 6)  # m in [0, t]: 3 per full period, then min(r, 3)
        size += max(3 * q + min(r, 3) - 3, 0)
    if "J" in families:
        top = (t + 2) // 6  # largest k with 6k - 2 <= t
        if top >= 2:
            size += (top - 1) * (t + 3) - 3 * top * (top + 1) + 6
    return size


def _pool_fields(mu_max: int, families: AbstractSet[str]) -> list[tuple[str, int, int]]:
    """(family, k, i) of every class of ``families`` with Milnor number <= mu_max, in canonical order.

    The order is family by family in ``FAMILIES`` order, each by k and then
    i: ascending ``GermClass.sort_key``, as the classes are listed, so
    nothing is sorted.  Raises ValueError, before listing any class, if
    there are more than ``MAX_POOL_CLASSES``.
    """
    size = germ_pool_size(mu_max, families)
    if size > MAX_POOL_CLASSES:
        shown = size if size < 10**18 else "more than 10^18"  # int-to-str has a digit limit
        raise ValueError(f"the germ pool would list {shown} classes, over the budget of {MAX_POOL_CLASSES}")
    fields: list[tuple[str, int, int]] = []
    if "A" in families:
        fields += [("A", k, 0) for k in range(1, mu_max + 1)]
    if "D" in families:
        fields += [("D", k, 0) for k in range(4, mu_max + 1)]
    if "E" in families:
        fields += [("E", m, 0) for m in range(6, mu_max + 1) if m % 6 in (0, 1, 2)]
    if "J" in families:
        k = 2
        while 6 * k - 2 <= mu_max:
            fields += [("J", k, i) for i in range(0, mu_max - (6 * k - 2) + 1)]
            k += 1
    return fields


def germ_pool(n: int, mu_max: int, whitelist: Iterable[str] = FAMILIES) -> list[GermClass]:
    """All catalog classes in ambient n with Milnor number <= mu_max, in canonical order.

    The classes of `_pool_fields`, in its order and under its budget.  A
    search lists its pool as those fields and makes a class only for each
    one that its survivors hold (`_run_search`), so it does not call this.
    """
    return [GermClass(f, k, i, n) for f, k, i in _pool_fields(mu_max, _families(whitelist))]


# The least share of a catalog curve spectrum inside ]-1/2, 1/2[, and a class
# that attains it (see `centred_window_certificate`).
CENTRED_DENSITY = Fraction(4, 5)
CENTRED_DENSITY_ATTAINED_BY = "J2_0"


@dataclass(frozen=True)
class CentredWindowCertificate:
    """An elimination by the centred-window lemma, checkable from the spectra alone.

    Every configuration of the pair puts at least ``forced`` spectral numbers
    in ``window``, half-open ]low, high] when ``closed``, else open (each germ
    at least ``density`` of its Milnor number, attained by ``attained_by``),
    and the diagonal germ has only ``target`` there.
    """

    window: tuple[Fraction, Fraction]
    closed: bool
    density: Fraction
    attained_by: str
    forced: int
    target: int


def centred_window_certificate(
    n: int, d: int, k: int, open_variant: bool = True
) -> Optional[CentredWindowCertificate]:
    """Eliminate (n, d, k) by the unit window centred on the spectra, or return None.

    The lemma: every A/D/E/J curve germ has at least 4/5 of its spectral
    numbers, with multiplicity, in W = ]-1/2, 1/2[.  Per family, from the
    numerators of `curve_spectrum` (the spectrum is symmetric about 0, so the
    numbers outside W are twice those at or below -1/2):

    * A(k): |x| <= k-1 < k+1 over 2(k+1), and D(k): |x| <= k-2 < k-1 over
      2k-2.  Every number lies in W.
    * E(6r), E(6r+2), with m = 3r+1 or 3r+2 and mu = 2(m-1): the progression
      3-2m, 6-2m, ... over 3m has floor(m/6) terms at or below -3m/2, so
      2 floor(m/6) numbers lie outside, and 2 floor(m/6) <= m/3 <= 2(m-1)/5
      once m >= 6 (none lie outside below that).  The least share is 10/12,
      at E12.
    * E(6r+1), mu = 6r+1: of -4r, 2-4r, ... over 6r+3, the terms at or below
      -(3r+2) are floor(r/2) in number, and 1-2r, ..., 2r-1 stays inside, so
      at most r < mu/5 numbers lie outside.
    * J(k,0), mu = 6k-2: 1-2k, ..., -ceil(3k/2) over 3k are the numbers at or
      below -1/2, floor(k/2) of them.
    * J(k,i>0), mu = 6k-2+i: `_j_negative_part` asserts that group 2 lies
      above -1/2, and of group 1 only -2k+1, ..., floor(-3k/2) over 3k lie at
      or below it, again floor(k/2) numbers.

    So a J germ has at most 2 floor(k/2) <= k <= mu/5 numbers outside W, as
    6k-2 >= 5k for k >= 2, with equality exactly at J2_0 (mu = 10, 2 numbers
    outside).  An ambient-n germ spectrum is its curve spectrum moved up by
    c = (n-2)/2, so every germ puts at least ceil(4 mu_g / 5) numbers in the
    open window ]c-1/2, c+1/2[, and a configuration of total Milnor number
    T = (d-1)^n - k at least sum_g ceil(4 mu_g / 5) >= ceil(4T/5).  The open
    variant of semicontinuity bounds that count by the diagonal germ's count
    in the same window; when ceil(4T/5) exceeds it, no configuration passes,
    and the certificate is returned.  A germ's count in the half-open
    ]c-1/2, c+1/2] is at least its open count, so without ``open_variant``
    the same ceil(4T/5) is set against the diagonal germ's half-open count,
    which the check without the open variant bounds.  Nothing depends on the
    whitelist: any subset of the catalog has the density.
    """
    total = diagonal_milnor(n, d) - k
    centre = Fraction(n - 2, 2)
    low, high = centre - Fraction(1, 2), centre + Fraction(1, 2)
    # ceil(total * 4/5), in integers
    forced = -(-total * CENTRED_DENSITY.numerator // CENTRED_DENSITY.denominator)
    target = deg_window(fermat_spectrum(n, d), low, high, right_open=open_variant)
    if forced <= target:
        return None
    return CentredWindowCertificate(
        (low, high), not open_variant, CENTRED_DENSITY, CENTRED_DENSITY_ATTAINED_BY, forced, target
    )


def _pack(values: list[int], width: int) -> int:
    """Non-negative ints below 2^width, one per lane, the first in the lowest bits."""
    return sum(v << (j * width) for j, v in enumerate(values))


def _lanes(rhs: list[int], bound: int) -> tuple[int, int, int]:
    """Lane width B, start state and top-bit mask for the window bounds ``rhs``.

    Lane j starts at 2^(B-1) - 1 - rhs[j]; its top bit is set exactly when the
    counts added to it exceed rhs[j], if no single add exceeds ``bound``.
    """
    width = max((bound, *rhs)).bit_length() + 1
    half = 1 << (width - 1)
    return width, _pack([half - 1 - r for r in rhs], width), _pack([half] * len(rhs), width)


def _window_count(progressions: _Progressions, den: int, t: int, closed: bool) -> int:
    """The count of a class's progressions in ]t/den, t/den + 1], or ]t/den, t/den + 1[.

    ``progressions`` is (s, ranges, zero) of `catalog._curve_progressions`.
    The thresholds are those of `window_counts` on the numerators x over s:
    x > floor(t*s/den) on the left, and x <= floor((t+den)*s/den) on the
    right of a closed window, x <= ceil((t+den)*s/den) - 1 of an open one.
    The members of range(a, b, step) up to v number
    min(len, (v - a)//step + 1) when v >= a, and none below a.
    """
    s, ranges, zero = progressions
    low, right = t * s // den, (t + den) * s
    high = right // den if closed else -(-right // den) - 1
    count = zero if low < 0 <= high else 0
    for r in ranges:
        a = r.start
        if high >= a:
            count += min(len(r), (high - a) // r.step + 1)
            if low >= a:
                count -= min(len(r), (low - a) // r.step + 1)
    return count


def _count_configurations(total: int, families: Iterable[str], cap: int) -> int:
    """How many multisets of classes of ``families`` have Milnor sum ``total``, up to ``cap``.

    A coin-change count, one class at a time in increasing Milnor number m,
    with every count capped at ``cap``; the classes of Milnor number m are
    counted in closed form, germ_pool_size(m) - germ_pool_size(m - 1), so
    no pool is listed.  Adding a class never lowers the count at ``total``,
    so it stops once that count reaches ``cap``.
    """
    ways = [1] + [0] * total
    for mu in range(1, total + 1):
        for _ in range(germ_pool_size(mu, families) - germ_pool_size(mu - 1, families)):
            for v in range(mu, total + 1):
                ways[v] = min(ways[v] + ways[v - mu], cap)
        if ways[total] == cap:
            break
    return ways[total]


class _SearchContext:
    """Prepared pool and packed window vectors for one search over the given families.

    ``lanes`` lists the pruning windows once, as the (t, closed) windows
    that `check_windows` gives `check` at the target's test points:
    ]t/den, t/den + 1] and, with the open variant, ]t/den, t/den + 1[.
    ``rhs`` holds their bounds, the target's counts there.  The windows
    that can never cut a node are left out; they are of three kinds:

    * a window that misses ]-1, 1[, where every catalog curve spectrum
      lies: no germ counts in it, so with a pool its least density is 0 and
      it never overflows (the target being symmetric about 0, the end
      windows ]min y - 2, min y - 1] and ]max y + 1, max y + 2] miss it);
    * a bound of at least T = target_mu: a node's count in a window is at
      most the Milnor number it has placed, and the lookahead adds at most
      the Milnor number left, as a density is at most 1, so the lane never
      exceeds T;
    * an open window whose half-open twin at the same t has the same bound
      (the target has no spectral number at t/den + 1): in the twin every
      germ counts at least as many numbers, so the twin's vector, least
      density and lookahead are at least the open lane's, and the open lane
      overflows only where the twin, itself a lane, does, at the root too.

    So the lanes cut exactly the nodes that all the windows cut.  A leaf, a
    complete configuration C, that fits every lane can still fail `check`,
    which also tests C's own breakpoints, but only in a window ]x-1, x] with
    x a number of C, so the leaf tests those windows alone (`leaf_passes`,
    over one integer frame in which the target's bound at each x is tabled
    once per search).  Let D be the target:

    * h_S(a), the count of a spectrum S in ]a, a+1], is a right-continuous
      step function of a that rises only at a = x-1 and falls only at a = x,
      x a number of S.  So f = h_C - h_D rises only at a = x-1 (x in C) or
      at a = y (y in D), and is 0 far to the left: its maximum is taken at
      one of those points.
    * Each y is a breakpoint of D, hence a test point, and C fits the
      half-open window there: it is a lane, or its bound is at least T,
      which no count exceeds, or C counts 0 in it.  So f <= 0 everywhere
      exactly when h_C(x-1) <= h_D(x-1) for every number x of C.
    * The open count at a is h_S(a) less the multiplicity of a+1 in S.  It
      exceeds D's only where f does, or where D has a number y at a+1;
      then a = y-1 is a test point, and its open window is a lane, has a
      bound of at least T (its half-open twin's bound is larger) or misses
      ]-1, 1[.

    This holds with or without the open variant.  Most leaves are decided
    before it, by the target's cells.  Let b_0 < ... < b_m be the
    breakpoints of D, its numbers y and y - 1.  h_D is constant on each
    [b_i, b_{i+1}), so for a there ]a, a+1] lies in the cell
    ]b_i, b_{i+1} + 1[, and D counts h_D(b_i) in it; for a < b_0 the window
    lies in ]-inf, b_0 + 1[ and for a >= b_m in ]b_m, inf[, and D counts 0
    in it.  So a leaf C that counts at most the bound in every cell has
    h_C(a) <= h_D(a) for every a, at each a = x - 1 too, and the exact test
    would pass it: the cells pass no leaf that it rejects.  A cell with a
    bound of at least T, or whose places miss ]-1, 1[, never overflows, and
    is left out.  The cells are lanes of the same packed state, but no bit
    of ``high`` and no lookahead entry is theirs, so they cut no node and
    reject no leaf: cuts, ``examined`` and survivors are those of the
    exact test alone.  The root is decided first
    (`_root_is_cut`); the tables of `build` are made only if it is not cut.
    The DFS of every default search reads all T + 1 lookahead entries (at
    (2,3,2), (3,3,2), (2,4,2), (2,5,2), (2,6,2), (2,7,7), (2,9,8), (2,12,11)
    and (5,3,7)), so `build` makes them all.  ``fields`` lists the classes
    in canonical order as (family, k, i), and the DFS takes them heaviest
    first: pool index i is the class ``fields[rank[i]]``.  No `GermClass`
    is made (`_run_search` makes one per class its survivors hold).  The
    walk, `build` and the leaves read pool class i as ``progressions[i]``,
    (den, ranges, zero) of `catalog._curve_progressions`; no class's
    `Spectrum` is built.  The exact leaf test's frame and tables are made at
    the first leaf the cells do not pass, so a search without one makes
    none.
    """

    def __init__(
        self,
        n: int,
        d: int,
        k: int,
        families: frozenset[str],
        filters: SearchFilters,
    ):
        self.n, self.d, self.k = n, d, k
        self.filters = filters
        self.target_mu = T = diagonal_milnor(n, d) - k
        # over the pool budget `_pool_fields` refuses first, which also bounds
        # the count's T + 1 ints
        if not filters.semicontinuity and germ_pool_size(T, families) <= MAX_POOL_CLASSES:
            cap = MAX_UNPRUNED_CONFIGURATIONS + 1
            if _count_configurations(T, families, cap) == cap:
                raise ValueError(
                    f"the unpruned search would list more than {MAX_UNPRUNED_CONFIGURATIONS} configurations"
                )
        # the pool as (family, k, i) fields in canonical order: no GermClass is
        # made for it.  The DFS goes heaviest germ first: pool index i is the
        # class at canonical place rank[i], a stable sort, so germs of one
        # Milnor number keep the canonical order
        self.fields = fields = _pool_fields(T, families)
        mus = [6 * k - 2 + i if f == "J" else k for f, k, i in fields]  # GermClass.milnor
        self.rank = sorted(range(len(fields)), key=mus.__getitem__, reverse=True)
        self.mus = [mus[r] for r in self.rank]
        # each class's curve spectrum as progressions of numerators; no
        # Spectrum of a pool class is built
        self.progressions = [_curve_progressions(*fields[r]) for r in self.rank]
        # in the frame of the curve spectra (see the module docstring)
        self.target = fermat_spectrum(n, d).shift(Fraction(2 - n, 2))
        # the lanes, at -2 < t/den < 1 (see the class docstring); none and high == 0 without semicontinuity
        den, windows = check_windows(EMPTY, self.target, filters.open_variant) if filters.semicontinuity else (1, [])
        windows = [(t, closed) for t, closed in windows if -2 * den < t < den]
        bounds = dict(zip(windows, window_counts(self.target, den, windows)))
        self.den = den
        self.bounds = bounds  # the cells of `build` read theirs here
        self.lanes = [
            (t, closed) for (t, closed), r in bounds.items() if r < T and (closed or r < bounds[t, True])
        ]
        self.rhs = [bounds[w] for w in self.lanes]
        self.width, self.start, self.high = _lanes(self.rhs, T)
        self.root_cut = self._root_is_cut()
        if not self.root_cut:
            self.build()

    def _root_is_cut(self) -> bool:
        """Whether the lookahead cuts the root, found before any vector is built.

        The root is cut exactly when some lane j has T * x_j/m_j > rhs_j,
        with T = target_mu and x_j/m_j the least density of lane j over the
        whole pool (see `build`; rhs_j is an integer, so the ceiling
        changes nothing).  The walk takes one lane at a time and counts the
        pool's classes in it lightest first, each in closed form from its
        progressions (`_window_count`); the order decides only how soon a
        lane dies (with A in the whitelist A1 comes first, whose one
        spectral number is the centre, and kills every lane whose window
        misses it).  A lane dies at the first class g with
        T * count_j(g) <= rhs_j * mu_g: the least density is at most that
        class's, so the lane cannot certify the root.  (No window with
        rhs_j >= T is a lane: a density is at most 1, so such a window
        would die at the first class.)  A lane that outlives the whole pool has
        every density above rhs_j/T, its least one included, so it
        certifies the root, and the walk stops there; the lanes that would
        outlive the pool are exactly those whose bit is set in
        (start + lookahead[T]) & high.  Each lane's test is the one of a
        walk over all live lanes at once, so the verdict is too.
        """
        T, den = self.target_mu, self.den
        lightest_first = list(zip(reversed(self.mus), reversed(self.progressions)))
        for (t, closed), r in zip(self.lanes, self.rhs):
            if all(T * _window_count(p, den, t, closed) > r * mu for mu, p in lightest_first):
                return True
        return False

    def build(self) -> None:
        """Every table the DFS reads: packed window and cell vectors, lookahead.

        The vectors come from one table by place.  A spectral number y/s
        has place 2q + (r > 0) over den, with q, r = divmod(y*den, s): place
        2q is the point q/den, and place 2q + 1 the open gap between q/den
        and (q + 1)/den.  So the window ]t/den, t/den + 1] holds exactly the
        places 2t + 1 .. 2(t + den), and the open ]t/den, t/den + 1[ the same
        less 2(t + den).  Every curve number lies in ]-1, 1[, so its place
        is in [-2 den, 2 den), and each such place gets the packed int with
        a 1 in every lane that holds it, once (4 den entries, a difference
        array over the lanes' place ranges clamped to that interval, summed
        once), so that each member costs one divmod and one index.  A
        class's packed vector is its places' ints summed over the members of
        its progressions, once per member (a number that two ranges list is
        counted twice, as its multiplicity says), plus ``zero`` times the
        int of place 0: the counts `window_counts(s, den, lanes)` gives on
        its curve spectrum s, which is never built.

        The target's cells (see the class docstring) are more lanes of the
        same table, above the window lanes: the cell ]b/den, c/den + 1[, b < c
        consecutive breakpoints of the target, holds the places 2b + 1 ..
        2(c + den) - 1, and its bound h_D(b) is the target's count in
        ]b/den, b/den + 1], read from ``bounds`` (every breakpoint is a test
        point) or, for b <= -2 den, counted.  ``cells`` lists them as
        (b, c, bound), with b = None for ]-inf, c/den + 1[ and c = None for
        ]b/den, inf[, both of bound 0.  A cell whose clamped place range is
        empty holds no curve number and is skipped before its bound is read,
        and one whose bound is at least T is dropped, as no count exceeds T.
        ``start`` gains the cells' start states, and ``cell_high`` holds their
        top bits; no lookahead entry and no bit of ``high`` is theirs.
        """
        width, den, high, T = self.width, self.den, self.high, self.target_mu
        # No carry between lanes: a node tests acc + lookahead, where acc is its
        # parent's state (every lane at most 2^(B-1) - 1, or the parent was cut)
        # plus germ g's vector.  g adds at most mu_g to a lane and the lookahead
        # at most the r - mu_g left after it, so a lane gains at most
        # r <= target_mu < 2^(B-1) and stays below 2^B.  A cell lane is never
        # tested before the leaf; it starts at most 2^(B-1) - 1 and gains at
        # most the target_mu placed on the whole branch, so it stays below 2^B.
        assert max(self.mus, default=0) <= T < 1 << (width - 1)
        # at[p + off] is the packed int of place p; lane j adds its bit from
        # place 2t + 1 and removes it after 2(t + den), or at it when open
        off = 2 * den
        diff = [0] * (2 * off + 1)
        for j, (t, closed) in enumerate(self.lanes):
            diff[max(2 * t + 1 + off, 0)] += 1 << (j * width)
            diff[min(2 * (t + den) + closed + off, 2 * off)] -= 1 << (j * width)
        # the cells, from the target's breakpoints y and y - 1 over den; none
        # without semicontinuity, as no leaf is tested then
        target, bounds = self.target, self.bounds
        scale = den // target.den
        ys = [y * scale for y in target.nums]
        breaks = sorted({*ys, *(y - den for y in ys)})
        edges = zip([None, *breaks], [*breaks, None]) if self.filters.semicontinuity else ()
        self.cells: list[tuple[Optional[int], Optional[int], int]] = []
        bit = 1 << (len(self.lanes) * width)
        for b, c in edges:
            first = 0 if b is None else max(2 * b + 1 + off, 0)
            end = 2 * off if c is None else min(2 * (c + den) + off, 2 * off)
            if first >= end:
                continue
            if b is None:
                bound = 0
            elif b > -2 * den:  # and b < den, as the cell holds a place
                bound = bounds[b, True]
            else:
                bound = window_counts(target, den, [(b, True)])[0]
            if bound < T:
                self.cells.append((b, c, bound))
                diff[first] += bit
                diff[end] -= bit
                bit <<= width
        at = list(accumulate(diff))
        self.packed = []
        for s, ranges, zero in self.progressions:
            vec = zero * at[off]
            for members in ranges:
                assert -s < members[0] and members[-1] < s
                for y in members:
                    q, r = divmod(y * den, s)
                    vec += at[2 * q + (r > 0) + off]
            self.packed.append(vec)
        shift = len(self.lanes) * width
        cell_width, cell_start, cell_high = _lanes([bound for _b, _c, bound in self.cells], T)
        assert cell_width == width
        self.start += cell_start << shift
        self.cell_high = cell_high << shift
        # Per lane, the least density vec_g[j]/mu_g over the whole pool as
        # xs[j]/ms[j]; it starts at 1/1, the largest density (a germ has mu_g
        # spectral numbers), which also bounds an empty pool: that has no
        # completion unless remaining is 0.  Within one mu the least density
        # is the least count, taken lane-wise on the packed vectors: every
        # lane is below 2^(B-1), so in (vec | high) - low lane j keeps its top
        # bit exactly when vec_j >= low_j, and no lane borrows from the next.
        # The cell lanes are masked off first: they take no part in it.
        least: dict[int, int] = {}
        lane_mask = (1 << shift) - 1
        for mu, vec in zip(self.mus, self.packed):
            vec &= lane_mask
            low = least.setdefault(mu, vec)
            keep = ((vec | high) - low) & high
            take_low = (keep << 1) - (keep >> (width - 1))  # all ones in those lanes
            least[mu] = vec ^ ((vec ^ low) & take_low)
        lanes, mask = len(self.rhs), (1 << width) - 1
        xs, ms = [1] * lanes, [1] * lanes
        for mu, low in least.items():
            for j in range(lanes):
                x = (low >> (j * width)) & mask
                if x * ms[j] < xs[j] * mu:
                    xs[j], ms[j] = x, mu
        # lookahead[r]: a completion of r adds at least ceil(r * xs[j]/ms[j])
        # to lane j; no carry, as a density is at most 1 and r <= target_mu.
        # That ceiling rises by one at each r = floor(v * m/x) + 1, the least
        # r with r * x/m > v, for v = 0 .. ceil(T * x/m) - 1: one step per
        # rise, summed once.
        assert all(x <= m for x, m in zip(xs, ms))
        steps = [0] * (T + 1)
        for j, (x, m) in enumerate(zip(xs, ms)):
            for v in range(-(-T * x // m)):
                steps[v * m // x + 1] += 1 << (j * width)
        self.lookahead = list(accumulate(steps))
        # the exact leaf test's frame and tables, made at the first leaf that
        # the cells do not certify (`leaf_passes`)
        self.frame_numbers: Optional[list[Optional[list[int]]]] = None

    def _frame_numbers_of(self, i: int) -> list[int]:
        # pool class i's numbers over the frame, sorted and repeated by
        # multiplicity, and the target's count in ]x - L, x] at each new
        # number x
        (s, ranges, zero), L, bound = self.progressions[i], self.frame, self.frame_bound
        scale = L // s
        nums = [x * scale for x in sorted(chain([0] * zero, *ranges))]
        new = [x for x in dict.fromkeys(nums) if x not in bound]
        bound.update(zip(new, window_counts(self.target, L, [(x - L, True) for x in new])))
        return nums

    def leaf_passes(self, germs: list[int], acc: int) -> bool:
        """Whether the complete configuration of pool indices ``germs`` passes the check.

        ``acc`` is the leaf's packed state.  It fits every lane, so if it
        also fits every cell, no bit of ``cell_high`` set, it passes (see the
        class docstring).  Otherwise only ]x-1, x] at its own numbers x can
        still fail.  Over L = ``frame``, the lcm of every pool spectrum's
        denominator, such a window is ]x - L, x]: the leaf sorts its germs'
        numbers over L and counts them there with two bisects, against the
        target's count at x, tabled once per search.  Integers only; no
        spectrum is summed.
        """
        if not acc & self.cell_high:
            return True
        numbers = self.frame_numbers
        if numbers is None:
            # the frame, where every pool number is an integer, and its tables,
            # filled per class at its first leaf here; the target needs no
            # place in it, as `window_counts` counts in windows over any den
            self.frame = lcm(*(s for s, _, _ in self.progressions))
            self.frame_numbers = numbers = [None] * len(self.rank)
            self.frame_bound: dict[int, int] = {}
        for i in germs:
            if numbers[i] is None:
                numbers[i] = self._frame_numbers_of(i)
        xs = sorted(chain.from_iterable(numbers[i] for i in germs))
        assert len(xs) == self.target_mu
        L, bound = self.frame, self.frame_bound
        return all(bisect_right(xs, x) - bisect_right(xs, x - L) <= bound[x] for x in xs)


def _run_search(ctx: _SearchContext) -> tuple[list[Configuration], int, int]:
    """DFS over the whole pool.

    Returns (survivors, examined, cuts), where cuts counts the subtrees the
    lanes cut and the complete configurations the leaf test rejects.  The
    packed window state ``acc`` is passed down by value, so nothing is undone.
    A leaf that passes keeps its pool indices; once the DFS is done they
    become canonical places (``rank``), each survivor's sorted, and the
    survivors are sorted as those int tuples, which is the canonical order
    of the module docstring.  Only then is each made a `Configuration`,
    over one `GermClass` per distinct place, made from ``fields``.
    Every survivor has polar degree k by construction: its Milnor numbers
    sum to T, as ``remaining`` reached 0.
    """
    if ctx.root_cut:
        # what the DFS returns when its first lookahead test cuts the root
        return [], 0, 1
    mus, packed, high = ctx.mus, ctx.packed, ctx.high
    lookahead, semicontinuity, leaf_passes = ctx.lookahead, ctx.filters.semicontinuity, ctx.leaf_passes
    found: list[tuple[int, ...]] = []
    examined = cuts = 0
    stack: list[int] = []

    def dfs(first: int, remaining: int, acc: int) -> None:
        nonlocal examined, cuts
        if (acc + lookahead[remaining]) & high:
            cuts += 1
            return
        if remaining == 0:
            examined += 1
            if semicontinuity and not leaf_passes(stack, acc):
                cuts += 1
                return
            found.append(tuple(stack))
            return
        for idx in range(first, len(mus)):
            if mus[idx] > remaining:
                continue
            stack.append(idx)
            dfs(idx, remaining - mus[idx], acc + packed[idx])
            stack.pop()

    # target_mu == 0 gives an empty pool: the DFS examines the smooth
    # configuration once and runs it through the same leaf test
    dfs(0, ctx.target_mu, ctx.start)
    if not found:
        return [], examined, cuts
    rank, fields = ctx.rank, ctx.fields
    places = sorted(tuple(sorted(rank[i] for i in s)) for s in found)
    classes = {r: GermClass(*fields[r], ctx.n) for r in set(chain.from_iterable(places))}
    return [Configuration(ctx.n, ctx.d, tuple(classes[r] for r in t)) for t in places], examined, cuts


def enumerate_configurations(
    n: int,
    d: int,
    k: int,
    whitelist: Iterable[str] = FAMILIES,
    filters: SearchFilters = SearchFilters(),
    workers: int = 1,
) -> SearchReport:
    """Enumerate and filter all germ multisets with total Milnor (d-1)^n - k.

    The search runs in this process whatever ``workers`` says; it must be at
    least 1 and is otherwise ignored.  With semicontinuity on, a pair that
    `centred_window_certificate` eliminates, in the open window with the
    open variant and in the half-open one without it, is answered without a
    pool; otherwise a pool over ``MAX_POOL_CLASSES`` classes is refused with
    a ValueError before any spectrum is built, and with semicontinuity off
    so is a search of more than ``MAX_UNPRUNED_CONFIGURATIONS``
    configurations, before the pool is listed.  ``huh`` and the budgets see
    the families that ``huh`` keeps; the report names the whitelist given.

    For k <= 2 restricting to the A/D/E/J catalog is forced by the
    gradient-degree bound; for k >= 3 the whitelist is an input assumption,
    and the report records what was searched.
    """
    if n < 2 or d < 2 or k < 0:
        raise ValueError(f"need n >= 2, d >= 2, k >= 0, got {(n, d, k)}")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    smooth = diagonal_milnor(n, d)
    if smooth < k:
        raise InfeasibleConfigurationError(f"polar degree {k} exceeds (d-1)^n = {smooth}")
    whitelist = frozenset(_families(whitelist))
    # every pool filter, decided per family before any class is listed
    families, pruned = whitelist, dict.fromkeys(FILTER_NAMES, 0)
    if filters.huh and n == 2 and k >= 1:
        families = frozenset(f for f in whitelist if _MULTIPLICITY[f] - 1 <= k)
        pruned["huh"] = germ_pool_size(smooth - k, whitelist - families)
    if filters.semicontinuity and centred_window_certificate(n, d, k, filters.open_variant):
        # what a cut root reports, without listing the pool
        survivors, examined, cuts = [], 0, 1
    elif smooth > k and not germ_pool_size(smooth - k, families):
        # an empty pool completes no T > 0: reported as a cut root with
        # semicontinuity, as nothing cut without it, and no table is built
        survivors, examined, cuts = [], 0, int(filters.semicontinuity)
    else:
        survivors, examined, cuts = _run_search(_SearchContext(n, d, k, families, filters))
    pruned["semicontinuity"] = cuts

    diagnostics = ()
    if (n, d) in _DIAGNOSTIC_CASES:
        diagnostics = tuple(
            (label, deg_window(fermat_spectrum(n, d), *bounds))
            for label, bounds in _DIAGNOSTIC_WINDOWS
        )
    return SearchReport(
        n=n,
        d=d,
        k=k,
        target_mu=smooth - k,
        whitelist=tuple(sorted(whitelist)),
        filters_applied=filters.applied_names(k),
        survivors=tuple(survivors),
        examined=examined,
        pruned_by=tuple(sorted(pruned.items())),
        diagnostic_windows=diagnostics,
    )


# --- bundled reference lists ------------------------------------------------


@dataclass(frozen=True)
class HuhEntryResult:
    """One bundled entry and its verdict: the problems found, in the order checked.

    ``computed_pol`` is None for an entry whose total Milnor number exceeds
    (d-1)^n; an entry with no problems is ok.
    """

    key: str
    configuration: Configuration
    expected_pol: int
    computed_pol: Optional[int]
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems

    def diagnosis(self) -> str:
        return "; ".join(self.problems) or "ok"

    def to_json_obj(self) -> dict:
        return {
            "key": self.key,
            "configuration": self.configuration.to_json_obj(),
            "expected_pol": self.expected_pol,
            "computed_pol": self.computed_pol,
            "ok": self.ok,
            "diagnosis": self.diagnosis(),
        }


@dataclass(frozen=True)
class HuhVerification:
    entries: tuple[HuhEntryResult, ...]

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def to_json_obj(self) -> dict:
        return {
            "all_ok": self.all_ok,
            "entries": [e.to_json_obj() for e in self.entries],
        }


def load_huh_lists() -> list[tuple[str, Configuration, int]]:
    """The 15 bundled reference configurations with their stated polar degrees."""
    text = resources.files("specpol").joinpath("data/huh_lists.json").read_text()
    data = json.loads(text)
    entries: list[tuple[str, Configuration, int]] = []
    for section in ("pol2", "pol1"):
        for key in sorted(data[section], key=lambda s: (len(s), s)):
            obj = data[section][key]
            config = Configuration.from_json_obj(obj)
            entries.append((f"{section}:{key}", config, int(obj["pol"])))
    return entries


def verify_huh_lists(workers: int = 1) -> HuhVerification:
    """Check every bundled entry: stated polar degree, semicontinuity, search membership.

    Each failed check adds its problem to the entry's ``problems``, in that
    order: ``polar degree <computed> != expected <stated>``, ``fails
    semicontinuity`` and ``missing from search survivors``.  ``workers`` is
    passed to `enumerate_configurations`, which ignores it.  The searches
    and the checks share the diagonal-germ spectrum that `fermat_spectrum`
    keeps for the last (n, d), so it is built once per run of entries with
    one (n, d).
    """
    search_cache: dict[tuple[int, int, int], SearchReport] = {}
    results = []
    for key, config, expected in load_huh_lists():
        try:
            computed: Optional[int] = polar_degree(config)
        except InfeasibleConfigurationError:
            computed = None
        params = (config.n, config.d, expected)
        if params not in search_cache:
            search_cache[params] = enumerate_configurations(*params, workers=workers)
        problems = [] if computed == expected else [f"polar degree {computed} != expected {expected}"]
        if not check_configuration(config).holds:
            problems.append("fails semicontinuity")
        if config not in search_cache[params].survivors:
            problems.append("missing from search survivors")
        results.append(HuhEntryResult(key, config, expected, computed, tuple(problems)))
    return HuhVerification(tuple(results))
