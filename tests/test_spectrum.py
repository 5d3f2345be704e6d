"""Spectrum arithmetic: construction, windows, shift/suspend/join laws."""

from __future__ import annotations

import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specpol import (
    NEG_INF,
    POS_INF,
    EmptySpectrumError,
    Spectrum,
    add,
    deg_window,
    fermat_spectrum,
    from_numerators,
    germ_spectrum,
    join,
    make_spectrum,
    parse_germ,
)
from specpol.spectrum import EMPTY
from oracles import brute_deg

F = Fraction

rationals = st.builds(F, st.integers(-24, 24), st.integers(1, 12))
spectra = st.builds(
    make_spectrum,
    st.lists(st.tuples(rationals, st.integers(1, 4)), max_size=6),
)
nonempty_spectra = st.builds(
    make_spectrum,
    st.lists(st.tuples(rationals, st.integers(1, 4)), min_size=1, max_size=6),
)
# numerators over one denominator, often not reduced against it
integer_spectra = st.builds(
    from_numerators,
    st.integers(1, 12),
    st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 4)), max_size=6),
)


def test_make_spectrum_empty():
    s = make_spectrum([])
    assert s.total() == 0
    assert not s


def test_make_spectrum_merges_duplicates():
    s = make_spectrum([(F(0), 1), (F(0), 1)])
    assert s.entries == ((F(0), 2),)


def test_make_spectrum_sorts():
    s = make_spectrum([(F(1, 6), 1), (F(-1, 6), 1)])
    assert s.support == (F(-1, 6), F(1, 6))


def test_make_spectrum_rejects_nonpositive_multiplicity():
    with pytest.raises(ValueError):
        make_spectrum([(F(0), 0)])
    with pytest.raises(ValueError):
        make_spectrum([(F(0), -2)])


def test_add_identity_and_merge():
    s = make_spectrum([(F(1, 2), 3)])
    assert add(make_spectrum([]), s) == s
    assert add(make_spectrum([(F(0), 1)]), make_spectrum([(F(0), 1)])).entries == ((F(0), 2),)


@given(st.lists(spectra | integer_spectra, max_size=5))
def test_add_merges_any_number_at_once(ss):
    # one merge over the lcm of the denominators equals the running pairwise sum
    pairwise = make_spectrum([])
    for s in ss:
        pairwise = add(pairwise, s)
    merged = add(*ss)
    assert merged == pairwise and hash(merged) == hash(pairwise)
    assert merged.to_json() == pairwise.to_json()
    assert merged.total() == sum(s.total() for s in ss)


def test_shift_and_suspend():
    one = make_spectrum([(F(0), 1)])
    assert one.shift(F(1, 2)).support == (F(1, 2),)
    assert one.shift(F(0)) == one
    assert one.suspend(2).support == (F(1),)
    assert one.suspend(0) == one
    with pytest.raises(ValueError, match="suspension count must be >= 0"):
        one.suspend(-1)
    a2 = make_spectrum([(F(-1, 6), 1), (F(1, 6), 1)])
    assert a2.shift(F(1)).support == (F(5, 6), F(7, 6))


def test_join_annihilates_on_empty():
    s = make_spectrum([(F(1, 3), 2)])
    assert join(make_spectrum([]), s).total() == 0
    assert join(s, make_spectrum([])).total() == 0


def test_join_of_one_variable_cube_spectra():
    # {-2/3, -1/3} joined with itself is the two-variable diagonal cubic
    one_var = make_spectrum([(F(-2, 3), 1), (F(-1, 3), 1)])
    expected = make_spectrum([(F(-1, 3), 1), (F(0), 2), (F(1, 3), 1)])
    assert join(one_var, one_var) == expected
    assert join(one_var, one_var) == fermat_spectrum(2, 3)


@given(spectra)
def test_join_with_morse_point_is_suspension(s):
    morse_one_var = make_spectrum([(F(-1, 2), 1)])
    assert join(s, morse_one_var) == s.suspend(1)


@given(spectra, spectra)
def test_totals_add_and_multiply(s1, s2):
    assert add(s1, s2).total() == s1.total() + s2.total()
    assert join(s1, s2).total() == s1.total() * s2.total()


@given(spectra, rationals, rationals)
def test_shift_composes(s, p, q):
    assert s.shift(p).shift(q) == s.shift(p + q)


@given(spectra, st.integers(0, 6))
def test_suspend_is_half_integer_shift(s, m):
    assert s.suspend(m) == s.shift(F(m, 2))


@given(spectra, spectra)
def test_join_commutes(s1, s2):
    assert join(s1, s2) == join(s2, s1)


@given(spectra, spectra, spectra)
@settings(max_examples=50)
def test_join_associates(s1, s2, s3):
    assert join(join(s1, s2), s3) == join(s1, join(s2, s3))


def test_deg_window_on_quintic_diagonal():
    f53 = fermat_spectrum(5, 3)
    assert deg_window(f53, F(1), F(2)) == 20
    assert deg_window(f53, NEG_INF, F(1)) == 1
    assert deg_window(f53, F(1), F(1)) == 0


def test_deg_window_endpoints():
    s = make_spectrum([(F(0), 1), (F(1), 2), (F(2), 3)])
    assert deg_window(s, F(0), F(2)) == 2
    assert deg_window(s, F(0), F(2), left_open=False, right_open=False) == 6
    assert deg_window(s, NEG_INF, POS_INF) == 6
    assert deg_window(s, F(1), F(1), left_open=False, right_open=False) == 2


def test_deg_window_rejects_bad_bounds():
    s = make_spectrum([(F(0), 1)])
    # every reversed pair, infinite bounds ordered as usual
    for a, b in [(F(1), F(0)), (POS_INF, F(0)), (F(0), NEG_INF), (POS_INF, NEG_INF)]:
        with pytest.raises(ValueError):
            deg_window(s, a, b)
    with pytest.raises(ValueError):
        deg_window(s, 0.5, F(1))
    assert deg_window(s, POS_INF, POS_INF) == deg_window(s, NEG_INF, NEG_INF) == 0


@pytest.mark.parametrize("s", [germ_spectrum(parse_germ("J2_3")), EMPTY], ids=["J2_3", "empty"])
def test_deg_window_endpoint_types(s):
    # every pair of endpoint types under every open/closed choice: the exact
    # count, or the ValueError of a finite float, a NaN or reversed bounds.
    # A freshly made infinity is not the NEG_INF or POS_INF object and must
    # count as a ray all the same.
    pairs = list(s.entries)
    ends = [F(-1, 6), F(1, 2), 0, 1, NEG_INF, POS_INF, float("-inf"), float("inf"), 0.5, math.nan]
    assert ends[6] is not NEG_INF and ends[7] is not POS_INF
    for a, b in itertools.product(ends, repeat=2):
        for left_open, right_open in itertools.product((True, False), repeat=2):
            args = (s, a, b, left_open, right_open)
            floats = [side for side, x in (("left", a), ("right", b))
                      if type(x) is float and not math.isinf(x)]
            if floats:
                message = f"^{floats[0]} endpoint must be an exact rational or \\+-inf, got "
                with pytest.raises(ValueError, match=message):
                    deg_window(*args)
            elif a > b:
                with pytest.raises(ValueError, match="^empty interval bounds: "):
                    deg_window(*args)
            else:
                exact = [F(x) if type(x) is int else x for x in (a, b)]
                assert deg_window(*args) == brute_deg(pairs, *exact, left_open, right_open), args


class _FractionSubclass(Fraction):
    pass


@pytest.mark.parametrize("s", [germ_spectrum(parse_germ("J2_3")), EMPTY], ids=["J2_3", "empty"])
def test_deg_window_normalises_other_endpoints(s):
    # an int, a str, a Decimal or a Fraction subclass counts as the equal
    # Fraction, or fails with the same error text; a malformed endpoint fails
    # on the left before the right
    spellings = {
        F(-1): [-1, "-1", Decimal("-1"), _FractionSubclass(-1)],
        F(-1, 3): ["-1/3", _FractionSubclass(-1, 3)],
        F(0): [0, False, "0", Decimal("0.0"), _FractionSubclass(0)],
        F(1, 3): ["1/3", " 2/6 ", _FractionSubclass(1, 3)],
        F(1, 2): ["1/2", "0.5", Decimal("0.5"), _FractionSubclass(1, 2)],
        F(2): [2, "2", Decimal("2.00"), _FractionSubclass(4, 2)],
    }

    def outcome(a, b, left_open, right_open):
        try:
            return deg_window(s, a, b, left_open, right_open)
        except ValueError as e:
            return str(e)

    for (a, a_spelt), (b, b_spelt) in itertools.product(spellings.items(), repeat=2):
        for left_open, right_open in itertools.product((True, False), repeat=2):
            expected = outcome(a, b, left_open, right_open)
            for x, y in itertools.product([a, *a_spelt], [b, *b_spelt]):
                assert outcome(x, y, left_open, right_open) == expected, (x, y)
    assert outcome("x", 0.5, True, True) == "Invalid literal for Fraction: 'x'"
    assert outcome(0.5, "x", True, True).startswith("left endpoint must be")
    assert outcome(F(1), "x", True, True) == "Invalid literal for Fraction: 'x'"


@given(spectra, rationals, rationals, st.booleans(), st.booleans())
def test_deg_window_matches_brute_force(s, a, b, left_open, right_open):
    if a > b:
        a, b = b, a
    expected = brute_deg(list(s.entries), a, b, left_open, right_open)
    assert deg_window(s, a, b, left_open, right_open) == expected


@given(spectra, rationals, rationals)
def test_deg_window_additive_over_adjacent_intervals(s, a, b):
    if a > b:
        a, b = b, a
    left = deg_window(s, NEG_INF, a, True, False)
    middle = deg_window(s, a, b, True, False)
    assert left + middle == deg_window(s, NEG_INF, b, True, False)


@given(nonempty_spectra, rationals)
def test_ray_decomposes_into_unit_windows(s, a):
    ray = deg_window(s, a, POS_INF)
    span = s.max_spectral() - a
    windows = 0
    j = 0
    while a + j < s.max_spectral():
        windows += deg_window(s, a + j, a + j + 1, True, False)
        j += 1
    assert ray == windows
    assert span > 0 or ray == 0


def test_min_spectral():
    assert fermat_spectrum(5, 3).min_spectral() == F(2, 3)
    assert make_spectrum([(F(0), 1)]).min_spectral() == F(0)
    with pytest.raises(EmptySpectrumError):
        make_spectrum([]).min_spectral()


@given(st.integers(1, 6), st.integers(2, 6))
def test_min_spectral_of_diagonal_germ(n, d):
    assert fermat_spectrum(n, d).min_spectral() == F(n, d) - 1


def test_is_symmetric():
    assert fermat_spectrum(4, 3).is_symmetric(F(1))
    assert fermat_spectrum(5, 3).is_symmetric(F(3, 2))
    assert not make_spectrum([(F(0), 1), (F(1), 2)]).is_symmetric(F(1, 2))
    assert make_spectrum([]).is_symmetric(F(0))
    # 1/7 is no spectral number of the plane cubic, nor its centre: twice
    # 1/7 is not a multiple of 1/3, the step of its spectral numbers
    cubic = fermat_spectrum(2, 3)
    assert cubic.multiplicity(F(1, 7)) == 0
    assert cubic.is_symmetric(F(1, 7)) is False


def test_unit_window_degree_kinds():
    s = make_spectrum([(F(0), 1), (F(1), 5)])
    assert deg_window(s, F(0), F(1), True, True) == 0
    assert deg_window(s, F(0), F(1), True, False) == 5


def test_json_round_trip():
    s = fermat_spectrum(4, 3)
    assert Spectrum.from_json(s.to_json()) == s
    assert s.to_json() == (
        '[{"den":3,"mult":1,"num":1},{"den":3,"mult":4,"num":2},'
        '{"den":1,"mult":6,"num":1},{"den":3,"mult":4,"num":4},'
        '{"den":3,"mult":1,"num":5}]'
    )


def test_spectra_are_hashable_and_immutable():
    s = fermat_spectrum(3, 3)
    assert hash(s) == hash(fermat_spectrum(3, 3))
    with pytest.raises(AttributeError):
        s.entries = ()


def test_random_shuffle_invariance():
    rng = random.Random(17)
    pairs = [(F(rng.randint(-20, 20), rng.randint(1, 9)), rng.randint(1, 3)) for _ in range(12)]
    reference = make_spectrum(pairs)
    for _ in range(10):
        rng.shuffle(pairs)
        assert make_spectrum(pairs) == reference


# --- the integer form --------------------------------------------------------


def test_constructor_reduces_and_validates():
    s = Spectrum(6, (-3, 2, 4), (1, 2, 1))
    assert (s.den, s.nums, s.mults) == (6, (-3, 2, 4), (1, 2, 1))
    assert Spectrum(12, (-6, 4, 8), (1, 2, 1)) == make_spectrum(
        [(F(-1, 2), 1), (F(1, 3), 2), (F(2, 3), 1)]
    )
    assert Spectrum(7, (), ()) == make_spectrum([]) and Spectrum(7, (), ()).den == 1
    for den, nums, mults in [(0, (1,), (1,)), (-2, (1,), (1,)), (2, (1, 1), (1, 1)),
                             (2, (2, 1), (1, 1)), (2, (1,), (0,)), (2, (1, 3), (1,))]:
        with pytest.raises(ValueError):
            Spectrum(den, nums, mults)


def test_spectrum_holds_integers_only():
    # entries and support are built on access, never kept on the object
    for s in (fermat_spectrum(3, 5), make_spectrum([(F(-7, 6), 2), (F(1, 4), 1)])):
        assert set(vars(s)) == {"den", "nums", "mults", "_cum"}
        assert all(type(v) is int for v in (s.den, *s.nums, *s.mults, *s._cum))


def _probe_bounds(s: Spectrum) -> list[Fraction]:
    # on, just below and just above every support point: its gaps are >= 1/den
    eps = F(1, 3 * s.den)
    bounds = {F(0)}
    for v in s.support:
        bounds |= {v - eps, v, v + eps}
    return sorted(bounds)


@given(integer_spectra | spectra, st.lists(rationals, max_size=3))
@settings(max_examples=60)
def test_integer_ranks_match_brute_force(s, extra):
    pairs = list(s.entries)
    bounds = sorted(set(_probe_bounds(s) + extra))
    for x in bounds:
        for inclusive in (False, True):
            expected = brute_deg(pairs, NEG_INF, x, True, not inclusive)
            assert deg_window(s, NEG_INF, x, True, not inclusive) == expected
    ends = [NEG_INF] + bounds + [POS_INF]
    for i, a in enumerate(ends):
        for b in ends[i:]:
            for left_open in (True, False):
                for right_open in (True, False):
                    assert deg_window(s, a, b, left_open, right_open) == brute_deg(
                        pairs, a, b, left_open, right_open
                    ), (a, b, left_open, right_open)


def _same(x: Spectrum, y: Spectrum) -> None:
    assert x == y
    assert hash(x) == hash(y)
    assert (x.den, x.to_json(), str(x)) == (y.den, y.to_json(), str(y))


@given(spectra, integer_spectra, rationals, st.integers(0, 5))
def test_construction_path_does_not_matter(s1, s2, q, m):
    p1, p2 = list(s1.entries), list(s2.entries)
    _same(s1.shift(q), make_spectrum((a + q, k) for a, k in p1))
    _same(s2.suspend(m), make_spectrum((a + F(m, 2), k) for a, k in p2))
    _same(add(s1, s2), make_spectrum(p1 + p2))
    _same(join(s1, s2), make_spectrum((a + b + 1, k * l) for a, k in p1 for b, l in p2))
    _same(s1.shift(q).shift(-q), s1)
    _same(from_numerators(5 * s2.den, ((5 * x, k) for x, k in zip(s2.nums, s2.mults))), s2)
    _same(Spectrum.from_json(s1.to_json()), s1)
