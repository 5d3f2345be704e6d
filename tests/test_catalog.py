"""Catalog classes: invariants, parsing, and spectra against independent oracles."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction
from itertools import chain, product
from math import comb, lcm

import pytest

from specpol import (
    GermClass,
    InvalidGermError,
    corank_curve,
    curve_spectrum,
    deg_window,
    fermat_spectrum,
    from_numerators,
    germ_spectrum,
    join,
    make_spectrum,
    multiplicity_curve,
    parse_germ,
    germ_pool,
)
from specpol.catalog import CURVE_CACHE_MAX_MILNOR, MAX_EXPANSION_LENGTH, _curve_progressions
from specpol.spectrum import NEG_INF
from oracles import (
    NotWeightedHomogeneousError,
    a_row,
    d_row,
    e0_row,
    e1_row,
    e2_row,
    j0_row,
    newton_diagram_negatives,
    spectrum_from_weights,
    weights,
)

F = Fraction

MU_CAP = 200


def weighted_homogeneous_classes(mu_cap=MU_CAP):
    for k in range(1, mu_cap + 1):
        yield GermClass("A", k)
    for k in range(4, mu_cap + 1):
        yield GermClass("D", k)
    for m in range(6, mu_cap + 1):
        if m % 6 in (0, 1, 2):
            yield GermClass("E", m)
    k = 2
    while 6 * k - 2 <= mu_cap:
        yield GermClass("J", k, 0)
        k += 1


def all_j_classes(mu_cap=MU_CAP):
    k = 2
    while 6 * k - 2 <= mu_cap:
        for i in range(0, mu_cap - (6 * k - 2) + 1):
            yield GermClass("J", k, i)
        k += 1


# --- class bookkeeping -------------------------------------------------------


def test_milnor_numbers():
    assert GermClass("A", 7).milnor == 7
    assert GermClass("D", 5).milnor == 5
    assert GermClass("E", 6).milnor == 6
    assert GermClass("E", 13).milnor == 13
    assert GermClass("J", 2, 0).milnor == 10
    assert GermClass("J", 4, 0).milnor == 22
    assert GermClass("J", 2, 4).milnor == 14


def test_parameter_validation():
    for bad in [("A", 0), ("D", 3), ("E", 5), ("E", 9), ("E", 11), ("J", 1)]:
        with pytest.raises(InvalidGermError):
            GermClass(bad[0], bad[1])
    with pytest.raises(InvalidGermError):
        GermClass("J", 2, -1)
    with pytest.raises(InvalidGermError):
        GermClass("X", 1)
    with pytest.raises(ValueError):
        GermClass("A", 1, 0, 1)


def test_parse_and_print_round_trip():
    for text in ["A7", "D5", "E6", "E7", "E8", "E12", "J2_0", "J2_4", "A1", "D4"]:
        assert str(parse_germ(text)) == text
    for bad in ["A0", "D3", "E5", "E9", "J1_0", "B2", "A", "J2", "J2_", "e6", "A-1"]:
        with pytest.raises(InvalidGermError):
            parse_germ(bad)


def test_corank_curve():
    assert corank_curve(GermClass("A", 1)) == 0
    assert corank_curve(GermClass("A", 5)) == 1
    assert corank_curve(GermClass("D", 4)) == 2
    assert corank_curve(GermClass("E", 7)) == 2
    assert corank_curve(GermClass("J", 3, 2)) == 2


def test_multiplicity_curve():
    assert multiplicity_curve(GermClass("A", 3)) == 2
    assert multiplicity_curve(GermClass("D", 5)) == 3
    assert multiplicity_curve(GermClass("J", 2, 1)) == 3


def test_weights_table():
    assert weights(GermClass("A", 2)) == (F(1, 3), F(1, 2))
    assert weights(GermClass("A", 7)) == (F(1, 8), F(1, 2))
    assert weights(GermClass("D", 4)) == (F(1, 3), F(1, 3))
    assert weights(GermClass("E", 7)) == (F(1, 3), F(2, 9))
    assert weights(GermClass("E", 13)) == (F(1, 3), F(2, 15))
    assert weights(GermClass("J", 3, 0)) == (F(1, 3), F(1, 9))
    with pytest.raises(NotWeightedHomogeneousError):
        weights(GermClass("J", 2, 4))


# --- the weight expansion ----------------------------------------------------


def test_spectrum_from_weights_base_cases():
    assert spectrum_from_weights(F(1, 2), F(1, 2)) == make_spectrum([(F(0), 1)])
    d4 = make_spectrum([(F(-1, 3), 1), (F(0), 2), (F(1, 3), 1)])
    assert spectrum_from_weights(F(1, 3), F(1, 3)) == d4


def test_spectrum_from_weights_e7():
    expected = make_spectrum(
        (F(n, 9), 1) for n in (-4, -2, -1, 0, 1, 2, 4)
    )
    assert spectrum_from_weights(F(1, 3), F(2, 9)) == expected
    assert curve_spectrum(GermClass("E", 7)).min_spectral() == F(-4, 9)


def test_spectrum_from_weights_total():
    for w1, w2 in [(F(1, 4), F(1, 2)), (F(1, 5), F(2, 5)), (F(1, 3), F(2, 15))]:
        s = spectrum_from_weights(w1, w2)
        assert s.total() == (1 / w1 - 1) * (1 / w2 - 1)


def test_spectrum_from_weights_rejects_bad_input():
    with pytest.raises(ValueError):
        spectrum_from_weights(F(0), F(1, 2))
    with pytest.raises(ValueError):
        spectrum_from_weights(F(3, 2), F(1, 2))
    with pytest.raises(ValueError):
        spectrum_from_weights(F(2, 5), F(2, 5))  # fractional total: not exact


def test_oversized_classes_are_refused_before_allocating():
    # per family, the class of least Milnor number above the cap
    cap = MAX_EXPANSION_LENGTH
    e = next(m for m in range(cap + 1, cap + 7) if m % 6 in (0, 1, 2))
    classes = [
        GermClass("A", cap + 1),
        GermClass("D", cap + 1),
        GermClass("E", e),
        GermClass("J", (cap + 2) // 6 + 1, 0),
        GermClass("J", 2, cap - 9),
    ]
    assert [g.milnor - cap for g in classes] == [1, 1, 4, 2, 1]
    for g in classes:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="spectral numbers"):
                curve_spectrum(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (g, peak)


# --- curve spectra against the explicit rows ---------------------------------


def test_a2_curve():
    assert curve_spectrum(GermClass("A", 2)) == make_spectrum(
        [(F(-1, 6), 1), (F(1, 6), 1)]
    )


def test_j20_curve_is_double_indexed_sum():
    expected = make_spectrum(
        (F(i, 3) + F(j, 6) - 1, 1) for i in (1, 2) for j in range(1, 6)
    )
    assert curve_spectrum(GermClass("J", 2, 0)) == expected


def test_rows_match_weight_expansion_up_to_mu_cap():
    for g in weighted_homogeneous_classes():
        fam, k = g.family, g.k
        if fam == "A":
            row = a_row(k)
        elif fam == "D":
            row = d_row(k)
        elif fam == "E" and k % 6 == 0:
            row = e0_row(k // 6)
        elif fam == "E" and k % 6 == 2:
            row = e2_row(k // 6)
        elif fam == "E":
            continue  # documented exception, covered below
        else:
            row = j0_row(k)
        assert curve_spectrum(g) == row, f"row mismatch for {g}"


def test_e_6r_plus_1_row_is_the_documented_discrepancy():
    # The tabulated sum for this family is not symmetric about 0; the weight
    # expansion is, and is what the library returns.
    g = GermClass("E", 7)
    assert not e1_row(1).is_symmetric(F(0))
    assert curve_spectrum(g).is_symmetric(F(0))
    assert curve_spectrum(g) != e1_row(1)
    assert curve_spectrum(g) == make_spectrum(
        (F(n, 9), 1) for n in (-4, -2, -1, 0, 1, 2, 4)
    )
    for r in range(1, 34):
        gr = GermClass("E", 6 * r + 1)
        s = curve_spectrum(gr)
        assert s.is_symmetric(F(0)) and s.total() == 6 * r + 1


def test_curve_spectra_shape_up_to_mu_cap():
    for g in weighted_homogeneous_classes():
        s = curve_spectrum(g)
        assert s.total() == g.milnor, g
        assert s.is_symmetric(F(0)), g
        assert s.min_spectral() > -1 and s.max_spectral() < 1, g


# --- the J family with i > 0 --------------------------------------------------


def test_j24_curve_negative_part_and_zero():
    s = curve_spectrum(GermClass("J", 2, 4))
    negatives = [v for v in s.support if v < 0]
    assert negatives == [F(-1, 2), F(-2, 5), F(-3, 10), F(-1, 5), F(-1, 6), F(-1, 10)]
    assert all(s.multiplicity(v) == 1 for v in negatives)
    assert s.multiplicity(F(0)) == 2
    assert s.total() == 14


def test_j24_against_newton_diagram_count():
    # x^3 + x^2 y^2 + y^10 is convenient and nondegenerate; its diagram has
    # vertices (3,0), (2,2), (0,10).
    negatives, zero_mult = newton_diagram_negatives([(3, 0), (2, 2), (0, 10)])
    s = curve_spectrum(GermClass("J", 2, 4))
    assert sorted(v for v in s.support if v < 0) == negatives
    assert s.multiplicity(F(0)) == zero_mult


def test_j_family_shape_up_to_mu_cap():
    half = F(-1, 2)
    for g in all_j_classes():
        s = curve_spectrum(g)
        assert s.total() == 6 * g.k - 2 + g.i, g
        assert s.is_symmetric(F(0)), g
        assert s.min_spectral() > -1 and s.max_spectral() < 1, g
        if g.i > 0:
            # second-group values sit strictly above -1/2
            den = 6 * g.k + 2 * g.i
            group2 = [v for v in s.support if v < 0 and v.denominator > 3 * g.k
                      and den % v.denominator == 0]
            assert all(v > half for v in group2), g


# --- properties feeding the elimination arguments ----------------------------


def test_curve_minimum_and_quarter_bound_up_to_mu_cap():
    third = F(-1, 3)
    for g in list(weighted_homogeneous_classes()) + list(all_j_classes()):
        s = curve_spectrum(g)
        assert s.min_spectral() > F(-2, 3), g
        assert deg_window(s, NEG_INF, third, True, False) * 4 <= g.milnor, g


def test_suspended_minimum_bound():
    for g in [GermClass("A", 5), GermClass("D", 6), GermClass("J", 3, 1)]:
        for n in range(2, 7):
            gs = germ_spectrum(g.in_ambient(n))
            assert gs.min_spectral() > F(n - 1, 2) - F(7, 6)


# --- suspension ----------------------------------------------------------------


def test_germ_spectrum_suspends():
    assert germ_spectrum(GermClass("A", 1, 0, 4)) == make_spectrum([(F(1), 1)])
    e6_surface = germ_spectrum(GermClass("E", 6, 0, 3))
    assert e6_surface == curve_spectrum(GermClass("E", 6)).shift(F(1, 2))
    g = GermClass("D", 5)
    assert germ_spectrum(g) == curve_spectrum(g)


def test_germ_spectrum_is_the_suspended_curve_spectrum():
    # germ_spectrum builds one Spectrum in the ambient frame from the curve's
    # unbuilt parts; suspend on the built curve spectrum, and shift by the
    # Fraction (n-2)/2, are the oracles.  An odd n over an odd curve
    # denominator (E7 over 9 at n = 3) doubles the denominator.
    doubled = 0
    for n in range(2, 9):
        for g in germ_pool(n, 60):
            curve = curve_spectrum(g)
            assert germ_spectrum(g) == curve.suspend(n - 2) == curve.shift(F(n - 2, 2)), g
            doubled += n % 2 * curve.den % 2
    assert doubled == 3 * 105  # n = 3, 5, 7 over the 105 odd-denominator classes


def test_large_classes_are_built_uncached():
    # the curve-spectrum cache keeps classes of Milnor number up to
    # CURVE_CACHE_MAX_MILNOR; larger ones are built on every call
    classes = [GermClass("J", 2, MAX_EXPANSION_LENGTH - 10 - i) for i in range(3)]
    assert min(g.milnor for g in classes) > CURVE_CACHE_MAX_MILNOR
    before = curve_spectrum.cache_info()
    for g in classes:
        assert curve_spectrum(g).total() == g.milnor
    after = curve_spectrum.cache_info()
    assert (after.currsize, after.misses) == (before.currsize, before.misses)


def test_germ_spectrum_symmetry_and_range():
    for text in ["A4", "D6", "E8", "J2_3"]:
        for n in range(2, 7):
            g = parse_germ(text, n)
            s = germ_spectrum(g)
            assert s.is_symmetric(F(n - 2, 2))
            assert s.min_spectral() > -1 and s.max_spectral() < n - 1


# --- the diagonal germ ---------------------------------------------------------


def test_fermat_cubic_germs_exact():
    assert fermat_spectrum(4, 3) == make_spectrum(
        [(F(1, 3), 1), (F(2, 3), 4), (F(1), 6), (F(4, 3), 4), (F(5, 3), 1)]
    )
    assert fermat_spectrum(5, 3) == make_spectrum(
        [(F(2, 3), 1), (F(1), 5), (F(4, 3), 10), (F(5, 3), 10), (F(2), 5), (F(7, 3), 1)]
    )


def test_fermat_single_variable():
    for d in range(2, 9):
        assert fermat_spectrum(1, d) == make_spectrum(
            (F(j, d) - 1, 1) for j in range(1, d)
        )


def test_fermat_total_and_symmetry():
    for n in range(1, 7):
        for d in range(2, 7):
            s = fermat_spectrum(n, d)
            assert s.total() == (d - 1) ** n
            assert s.is_symmetric(F(n - 2, 2))


def test_fermat_equals_iterated_join():
    for d in range(2, 7):
        s = fermat_spectrum(1, d)
        for n in range(2, 7):
            s = join(s, fermat_spectrum(1, d))
            assert s == fermat_spectrum(n, d)


def test_fermat_low_multiplicities_are_binomials():
    # multiplicity of -1 + (n+j)/d is C(n+j-1, n-1) while j <= d-2
    for n in range(1, 9):
        for d in range(2, 9):
            s = fermat_spectrum(n, d)
            for j in range(0, d - 1):
                assert s.multiplicity(F(n + j, d) - 1) == comb(n + j - 1, n - 1)


def _fermat_by_nested_convolution(n, d):
    # the direct convolution: one inner loop over the d-1 part sizes
    counts = [1]
    for _ in range(n):
        step = [0] * (len(counts) + d - 2)
        for m, c in enumerate(counts):
            for a in range(d - 1):
                step[m + a] += c
        counts = step
    return make_spectrum((F(n + m - d, d), c) for m, c in enumerate(counts) if c > 0)


def test_fermat_running_sum_equals_nested_convolution():
    for n in range(1, 5):
        for d in range(2, 13):
            assert fermat_spectrum(n, d) == _fermat_by_nested_convolution(n, d)


def test_fermat_is_fast_at_moderate_size():
    s = fermat_spectrum(12, 12)
    assert s.total() == 11**12


def test_fermat_spectrum_keeps_the_last_pair_only():
    # a repeat returns the kept object, another pair replaces it, and the
    # key is typed: 2.0 == 2, but (2.0, 3) is not served the (2, 3) entry
    first = fermat_spectrum(2, 3)
    assert fermat_spectrum(2, 3) is first
    other = fermat_spectrum(3, 3)
    assert fermat_spectrum(3, 3) is other
    again = fermat_spectrum(2, 3)
    assert again == first and again is not first
    with pytest.raises(TypeError):
        fermat_spectrum(2.0, 3)
    assert fermat_spectrum(True, 3) == fermat_spectrum(1, 3)
    # an over-budget pair is refused before the kept entry changes
    kept = fermat_spectrum(2, 5)
    with pytest.raises(ValueError, match="takes more than"):
        fermat_spectrum(2, 10**7)
    assert fermat_spectrum(2, 5) is kept


# --- the integer form against Fraction arithmetic ------------------------------


def _curve_numerators(g):
    """Curve spectral numbers of g as (den, numerators), one per basis element.

    Weighted-homogeneous classes: (a+1) w1 + (b+1) w2 - 1 over a monomial basis
    x^a y^b of the Milnor algebra.  J(k, i>0): the tabulated two groups of
    negative values, their negatives and 0 for the rest of the Milnor number.
    """
    fam, k, i = g.family, g.k, g.i
    if fam == "A":  # (a+1)/(k+1) - 1/2
        return 2 * k + 2, [2 * a - k + 1 for a in range(k)]
    if fam == "D":  # x^2 y + y^(k-1), w1 = (k-2)/(2k-2), w2 = 2/(2k-2): basis y^b (b <= k-2) and x
        return 2 * k - 2, [2 * b - k + 2 for b in range(k - 1)] + [0]
    if fam == "J" and i > 0:
        den = lcm(3 * k, 6 * k + 2 * i)
        f1, f2 = den // (3 * k), den // (6 * k + 2 * i)
        if k % 2 == 0:
            group1 = range(-2 * k + 1, -3 * k // 2 + 1)
        else:
            group1 = range(-2 * k + 1, (-3 * k - 1) // 2 + 1)
        negatives = [x * f1 for x in group1] + [x * f1 for x in range(-k + 1, 0)]
        negatives += [x * f2 for x in range(-(3 * k + i) + 1, 0) if (x - i) % 2 == 0]
        return den, negatives + [-x for x in negatives] + [0] * (g.milnor - 2 * len(negatives))
    # x^3 + ...: w1 = 1/3, w2 = p/q, basis x^a y^b with a < 2 and b below the
    # row length of a; over 3q the value is (a+1) q + 3 (b+1) p - 3q
    r, res = divmod(k, 6)
    if fam == "J":  # J(k,0), weights (1/3, 1/(3k))
        p, q, rows = 1, 3 * k, (3 * k - 1, 3 * k - 1)
    elif res == 0:  # E(6r) = x^3 + y^(3r+1)
        p, q, rows = 1, 3 * r + 1, (3 * r, 3 * r)
    elif res == 2:  # E(6r+2) = x^3 + y^(3r+2)
        p, q, rows = 1, 3 * r + 2, (3 * r + 1, 3 * r + 1)
    else:  # E(6r+1) = x^3 + x y^(2r+1): y^b (b <= 4r) and x y^b (b < 2r)
        p, q, rows = 2, 6 * r + 3, (4 * r + 1, 2 * r)
    return 3 * q, [
        (a + 1) * q + 3 * (b + 1) * p - 3 * q for a, length in enumerate(rows) for b in range(length)
    ]


def _fraction_curve_values(g):
    """The spectral numbers of `_curve_numerators` as Fractions."""
    den, nums = _curve_numerators(g)
    return [F(x, den) for x in nums]


def test_curve_spectra_equal_from_numerators_up_to_mu_400():
    # curve_spectrum builds its sorted tuples directly; from_numerators sorts
    # and merges (numerator, 1) pairs, one per basis element, through a dict.
    # A weighted-homogeneous class is also equal to the generating-function
    # expansion, which divides by (1 - s^p) instead of listing a basis.
    expanded = 0
    for g in germ_pool(2, 400):
        den, nums = _curve_numerators(g)
        s = curve_spectrum(g)
        assert s == from_numerators(den, ((x, 1) for x in nums)), g
        if g.family != "J" or g.i == 0:
            _assert_same(s, spectrum_from_weights(*weights(g)))
            expanded += 1
    assert expanded == 400 + 397 + 198 + 66


def test_progressions_equal_the_curve_spectra_up_to_mu_400():
    # A search reads each class as its progressions and builds no spectrum:
    # the members of the ranges, with the extra numbers at 0, must be the
    # curve spectrum, multiplicities included, and the numbers of
    # `_curve_numerators`, one per basis element (cross-multiplied, as the
    # denominators can differ), which curve_spectrum does not share.  Every
    # J(k, i) with 6k - 2 + i <= 400 is among the classes, at both parities
    # of i; the ranges of even D and J(k, 0) overlap, and so do some
    # J(k, i>0) groups.
    j_parities, overlapping = set(), 0
    for g in germ_pool(2, 400):
        den, ranges, zero = _curve_progressions(g.family, g.k, g.i)
        members = [*chain(*ranges), *[0] * zero]
        assert from_numerators(den, ((x, 1) for x in members)) == curve_spectrum(g), g
        basis_den, basis = _curve_numerators(g)
        assert sorted(x * basis_den for x in members) == sorted(x * den for x in basis), g
        overlapping += len(set(chain(*ranges))) < sum(map(len, ranges))
        if g.family == "J" and g.i > 0:
            j_parities.add(g.i % 2)
            # three negative ranges, then their mirror images
            assert len(ranges) == 6 and all(max(r) < 0 for r in ranges[:3]), g
            assert [sorted(-x for x in r) for r in ranges[:3]] == [list(r) for r in ranges[3:]], g
        else:
            assert zero == 0, g
    assert j_parities == {0, 1} and overlapping >= 199 + 66, (j_parities, overlapping)


def _assert_same(x, y):
    assert x == y
    assert hash(x) == hash(y)
    assert x.to_json() == y.to_json()


def test_catalog_equals_fraction_reference():
    # every class with mu <= 60, in ambient 2..5, and every diagonal germ with
    # (d-1)^n <= 60, against spectra built from Fractions with make_spectrum
    for g in germ_pool(2, 60):
        values = _fraction_curve_values(g)
        assert len(values) == g.milnor, g
        for n in range(2, 6):
            reference = make_spectrum((v + F(n - 2, 2), 1) for v in values)
            _assert_same(germ_spectrum(g.in_ambient(n)), reference)
    for n in range(1, 7):
        for d in range(2, 62):
            if (d - 1) ** n > 60:
                break
            reference = make_spectrum(
                (F(sum(parts), d) - 1, 1) for parts in product(range(1, d), repeat=n)
            )
            _assert_same(fermat_spectrum(n, d), reference)
