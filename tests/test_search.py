"""Configuration enumeration: pools, filters, eliminations, reference lists."""

from __future__ import annotations

import functools
import json
import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, product
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from specpol import (
    Configuration,
    InfeasibleConfigurationError,
    SearchFilters,
    alpha1_threshold,
    candidate_region,
    candidate_spectrum,
    check_configuration,
    corank_curve,
    curve_spectrum,
    deg_window,
    enumerate_configurations,
    fermat_spectrum,
    germ_pool,
    germ_pool_size,
    germ_spectrum,
    huh_inequality_holds,
    load_huh_lists,
    multiplicity_curve,
    parse_germ,
    polar_degree,
    verify_huh_lists,
)
from specpol.search import (
    CENTRED_DENSITY,
    CENTRED_DENSITY_ATTAINED_BY,
    MAX_POOL_CLASSES,
    MAX_UNPRUNED_CONFIGURATIONS,
    _count_configurations,
    _lanes,
    _pack,
    _run_search,
    _SearchContext,
    _window_count,
    centred_window_certificate,
)
from specpol.semicontinuity import (
    integer_test_points,
    window_counts,
    window_test_points,
)
from specpol import catalog
from specpol.catalog import CURVE_CACHE_MAX_MILNOR, GermClass, _curve_progressions
from specpol.spectrum import EMPTY, NEG_INF, POS_INF
from oracles import brute_deg, newton_diagram_negatives, spectrum_from_weights, weights


SURVIVORS_JSON = Path(__file__).resolve().parents[1] / "perfbench" / "survivors.json"


def config(n, d, *names):
    return Configuration(n, d, tuple(parse_germ(s, n) for s in names))


def test_germ_pool_contents():
    pool = germ_pool(2, 10)
    strings = {str(g) for g in pool}
    assert {"A1", "A10", "D4", "D10", "E6", "E7", "E8", "J2_0"} <= strings
    assert "A11" not in strings and "J2_1" not in strings and "E12" not in strings
    assert all(g.milnor <= 10 for g in pool)
    assert all(g.ambient_vars == 2 for g in pool)


def test_germ_pool_whitelist():
    pool = germ_pool(3, 12, whitelist=("A", "E"))
    families = {g.family for g in pool}
    assert families == {"A", "E"}
    with pytest.raises(ValueError):
        germ_pool(2, 5, whitelist=("A", "Q"))


def test_pool_size_closed_form_equals_germ_pool():
    # germ_pool(n, T) is the part of germ_pool(n, 300) with Milnor number <= T;
    # that is checked by direct calls for small T, the count for every T <= 300.
    # Each pool is listed in canonical order, ascending sort_key, as the
    # search's ranks and survivor order take it without sorting it.
    whitelists = [wl for r in range(1, 5) for wl in combinations("ADEJ", r)]
    for n in (2, 3):
        for wl in whitelists:
            pool = germ_pool(n, 300, wl)
            assert pool == sorted(pool, key=lambda g: g.sort_key()), (n, wl)
            mus = sorted(g.milnor for g in pool)
            for t in range(-2, 301):
                assert germ_pool_size(t, wl) == bisect_right(mus, t), (n, wl, t)
            for t in range(-2, 41):
                pool = germ_pool(n, t, wl)
                assert len(pool) == germ_pool_size(t, wl), (n, wl, t)
                assert pool == sorted(pool, key=lambda g: g.sort_key()), (n, wl, t)


def _refuse(*args):
    raise AssertionError("the search went on past its budget")


def test_out_of_budget_pool_is_refused_before_listing(monkeypatch):
    too_big = 2**100 - 2
    assert germ_pool_size(too_big) > MAX_POOL_CLASSES
    with pytest.raises(ValueError, match="budget"):
        germ_pool(2, too_big)
    # the centred-window lemma decides (100,3,2) without a pool, with the open
    # variant or without; with semicontinuity off it does not apply, and the
    # pool budget refuses the search before the configurations are counted
    monkeypatch.setattr("specpol.search._count_configurations", _refuse)
    with pytest.raises(ValueError, match=f"germ pool would list .* over the budget of {MAX_POOL_CLASSES}$"):
        enumerate_configurations(100, 3, 2, filters=SearchFilters(semicontinuity=False))
    # the largest pool searched so far, (4,6,3), is well inside the budget
    assert germ_pool_size(5**4 - 3) == 33_171 < MAX_POOL_CLASSES


def _oracle_curve_entries(g):
    # (spectral number, multiplicity) pairs from the oracles: the weight
    # expansion, or for J(k, i>0) the Newton-diagram count of x^3 + x^2 y^k +
    # y^(3k+i), mirrored about 0 (no lattice point beyond y = 3k+i counts)
    if g.family != "J" or g.i == 0:
        return list(spectrum_from_weights(*weights(g)).entries)
    negatives, zero = newton_diagram_negatives([(3, 0), (2, g.k), (0, 3 * g.k + g.i)], 3 * g.k + g.i)
    return [(v, 1) for v in negatives] + [(-v, 1) for v in negatives] + [(Fraction(0), zero)]


def test_centred_window_density_holds_for_every_catalog_class():
    # Every class with mu <= 40 has at least CENTRED_DENSITY of its curve
    # spectral numbers in ]-1/2, 1/2[, and only J2_0 has exactly that share.
    least, attained = Fraction(1), set()
    for g in germ_pool(2, 40):
        entries = _oracle_curve_entries(g)
        assert sum(m for _, m in entries) == g.milnor, g
        share = Fraction(brute_deg(entries, Fraction(-1, 2), Fraction(1, 2)), g.milnor)
        assert share >= CENTRED_DENSITY, g
        if share < least:
            least, attained = share, set()
        if share == least:
            attained.add(str(g))
    assert least == CENTRED_DENSITY
    assert attained == {CENTRED_DENSITY_ATTAINED_BY}


def _certified_cases(pool_cap, open_variant=True):
    # the pairs of k = 1..5 that the lemma decides, in the open window with
    # the open variant and in the half-open one without it, with a pool of
    # at most pool_cap classes: (2, d, 1) for every d of the k = 2 region's
    # range, then candidate_region(k) for k = 2..5
    for k in range(1, 6):
        pairs = [(2, d) for d in range(2, 20)] if k == 1 else sorted(candidate_region(k).pairs)
        for n, d in pairs:
            if germ_pool_size((d - 1) ** n - k) <= pool_cap and centred_window_certificate(n, d, k, open_variant):
                yield n, d, k


def test_centred_window_certificate_of_the_cubic_fourfold():
    cert = centred_window_certificate(5, 3, 2)
    assert cert.window == (Fraction(1), Fraction(2))
    assert (cert.density, cert.attained_by) == (Fraction(4, 5), "J2_0")
    # T = 30 forces ceil(4 * 30 / 5) = 24 numbers into ]1,2[, where the target has 20
    assert (cert.forced, cert.target) == (24, 20)
    assert cert.target == deg_window(fermat_spectrum(5, 3), Fraction(1), Fraction(2))
    assert centred_window_certificate(3, 3, 2) is None


def test_half_open_centred_window_certificate():
    # Without the open variant the lemma counts ]c-1/2, c+1/2]: a germ has
    # there at least its open count, the target its half-open count.  That
    # leaves (5,3,2) (its target has 20 + 10 numbers in ]1,2]) and decides
    # (4,6,3), which it answers without listing its 33,171 classes.
    assert centred_window_certificate(5, 3, 2, open_variant=False) is None
    cert = centred_window_certificate(4, 6, 3, open_variant=False)
    assert (cert.window, cert.closed) == ((Fraction(1, 2), Fraction(3, 2)), True)
    assert (cert.forced, cert.target) == (498, 433)
    assert cert.target == deg_window(fermat_spectrum(4, 6), Fraction(1, 2), Fraction(3, 2), right_open=False)
    assert centred_window_certificate(4, 6, 3).closed is False
    report = enumerate_configurations(4, 6, 3, filters=SearchFilters(open_variant=False))
    assert (report.examined, report.pruned_by_dict()["semicontinuity"]) == (0, 1)


def test_centred_window_certificates_agree_with_the_explicit_search(monkeypatch):
    # On every certified pair with a pool of at most 1,500 classes, the
    # explicit search (the lemma switched off) cuts the root, before any
    # vector is built, and reports the same bytes, the huh count of (2, d, 1)
    # with and without huh included: the open certificates with the open
    # variant, the half-open ones without it.  Larger pools were compared
    # once outside the suite.
    open_cases = list(_certified_cases(1_500))
    half_open_cases = list(_certified_cases(1_500, open_variant=False))
    assert len(open_cases) >= 25 and any(k == 1 for _, _, k in open_cases)
    assert len(half_open_cases) >= 8
    lemma = {}
    for open_variant, cases in ((True, open_cases), (False, half_open_cases)):
        for n, d, k in cases:
            for wl in ("ADEJ", "DEJ", "J"):
                for huh in (True, False) if k == 1 else (True,):
                    filters = SearchFilters(huh=huh, open_variant=open_variant)
                    lemma[n, d, k, wl, filters] = enumerate_configurations(n, d, k, wl, filters).to_json()

    def refuse(self):
        raise AssertionError("the explicit search did not cut the root")

    monkeypatch.setattr("specpol.search.centred_window_certificate", lambda n, d, k, kind: None)
    monkeypatch.setattr(_SearchContext, "build", refuse)
    for (n, d, k, wl, filters), expected in lemma.items():
        explicit = enumerate_configurations(n, d, k, wl, filters)
        assert explicit.to_json() == expected, (n, d, k, wl, filters)
        assert explicit.survivors == () and explicit.examined == 0


def test_curve_spectrum_cache_is_bounded():
    maxsize = curve_spectrum.cache_info().maxsize
    assert maxsize is not None
    # no search reads the cache (see `test_a_search_builds_no_spectrum`); it
    # keeps every class of the largest pool of the k=2 region, (2,11,2), for
    # the checks of configurations drawn from it
    assert maxsize >= germ_pool_size((11 - 1) ** 2 - 2)
    # a pool within the pool budget has no class the cache would not keep
    assert germ_pool_size(CURVE_CACHE_MAX_MILNOR + 1) > MAX_POOL_CLASSES


def test_curve_spectrum_cache_keeps_one_entry_per_curve_class(monkeypatch):
    # the curve spectrum does not depend on the ambient count, so J3_4 in 2
    # and in 7 variables is one entry
    curve_spectrum.cache_clear()
    assert curve_spectrum(parse_germ("J3_4", 2)) is curve_spectrum(parse_germ("J3_4", 7))
    info = curve_spectrum.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    # verify-huh checks configurations of n = 2..5 (its searches read no
    # curve spectrum): every class it reads is built once, and the cache
    # holds one entry per distinct curve class
    built = []
    real_parts = catalog._curve_parts

    def parts(*curve_class):
        built.append(curve_class)
        return real_parts(*curve_class)

    monkeypatch.setattr(catalog, "_curve_parts", parts)
    curve_spectrum.cache_clear()
    assert verify_huh_lists().all_ok
    info = curve_spectrum.cache_info()
    assert info.misses == info.currsize == len(built) == len(set(built)) < info.maxsize


def test_infeasible_parameters_error():
    with pytest.raises(InfeasibleConfigurationError):
        enumerate_configurations(2, 2, 5)


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_rejected(workers):
    with pytest.raises(ValueError):
        enumerate_configurations(2, 3, 2, workers=workers)


def test_implied_pool_filters_are_vacuous():
    # The search has no alpha1 or corank pass and applies huh in the plane
    # only; these are the inequalities that make the other cases prune nothing.
    curves = germ_pool(2, 200)
    # alpha1: every curve spectral number exceeds -2/3, so a germ minimum in
    # ambient n exceeds -2/3 + (n-2)/2, which is at least the threshold
    assert all(curve_spectrum(g).min_spectral() > Fraction(-2, 3) for g in curves)
    for n in range(2, 41):
        for k in range(1, 41):
            assert Fraction(-2, 3) + Fraction(n - 2, 2) >= alpha1_threshold(n, k)
    # corank: the generic slice has corank at most 1, and 2 <= k
    assert all(2 ** max(corank_curve(g) - 1, 0) <= 2 for g in curves)
    # huh for n >= 3 only asks for catalog membership
    for n in (3, 4, 5):
        for k in (1, 2, 3):
            assert all(
                huh_inequality_holds(Configuration(n, 3, (g,)), k)
                for g in germ_pool(n, 200)
            )


def _up_to(bound):
    # a value in [0, bound], drawn often at the ends
    return st.sampled_from([0, bound]) | st.integers(0, bound)


@given(st.data())
def test_packed_lanes_flag_exactly_the_exceeded_windows(data):
    bound = data.draw(_up_to(300))
    rhs = data.draw(st.lists(_up_to(300), max_size=12))
    width, start, high = _lanes(rhs, bound)
    # a state the search can hold: every window count so far within its bound
    acc = [data.draw(_up_to(r)) for r in rhs]
    vec = [data.draw(_up_to(bound)) for _ in rhs]
    nxt = start + _pack(acc, width) + _pack(vec, width)
    assert bool(nxt & high) == any(a + v > r for a, v, r in zip(acc, vec, rhs))
    # no lane carried into its neighbour
    half = 1 << (width - 1)
    lanes = [(nxt >> (j * width)) & ((1 << width) - 1) for j in range(len(rhs))]
    assert lanes == [half - 1 - r + a + v for a, v, r in zip(acc, vec, rhs)]
    assert nxt >> (width * len(rhs)) == 0


@pytest.mark.parametrize("open_variant", [True, False])
def test_window_counts_equal_deg_window(open_variant):
    # reference: one deg_window call per unit window, on Fraction bounds.  The
    # spectra include J(k, i>0) curve spectra, whose denominators do not
    # divide the points' (at (3,4) the points are over 8, J2_1 is over 42),
    # and the points include the search's points moved down by (n-2)/2 and
    # every integer in [-2, 2] over den, negative ones among them.  With the
    # open variant the windows are one shuffled list of both kinds at each
    # t, so a count of the wrong kind fails; some t must tell them apart.
    rng = random.Random(2018)
    off_grid = told_apart = 0
    for n, d in [(2, 5), (3, 3), (5, 3), (3, 4)]:
        target = fermat_spectrum(n, d)
        den, points = integer_test_points(EMPTY, target)
        assert [Fraction(t, den) for t in points] == window_test_points(EMPTY, target)
        shift = (n - 2) * den // 2
        points = sorted({*points, *(t - shift for t in points), *range(-2 * den, 2 * den + 1)})
        assert points[0] < 0
        windows = list(product(points, (True, False) if open_variant else (True,)))
        rng.shuffle(windows)
        pool = germ_pool(n, (d - 1) ** n)
        spectra = [target] + [germ_spectrum(g) for g in pool]
        spectra += [curve_spectrum(g) for g in pool if g.family == "J" and g.i > 0]
        # ]a,a+1] when closed, else ]a,a+1[
        bounds = [(Fraction(t, den), Fraction(t, den) + 1, True, not closed) for t, closed in windows]
        for spec in spectra:
            off_grid += den % spec.den != 0
            expected = [deg_window(spec, *b) for b in bounds]
            assert window_counts(spec, den, windows) == expected
            told_apart += expected != [deg_window(spec, a, b) for a, b, _, _ in bounds]
    assert off_grid >= 10 and told_apart >= 10 * open_variant


_POOL_120 = germ_pool(2, 120)


@given(st.sampled_from(_POOL_120), st.data())
def test_closed_form_counts_equal_window_counts(g, data):
    # The root walk counts a class in a window from its progressions, in
    # closed form; over any denominator and window (t, closed) that is the
    # count of its curve spectrum.  Half the draws put an end of the window
    # on one of the class's numbers, or one step beside it.
    progressions = _curve_progressions(g.family, g.k, g.i)
    s, ranges, zero = progressions
    if data.draw(st.booleans()):
        den = data.draw(st.integers(1, 400))
        t = data.draw(st.integers(-3 * den, 2 * den))
    else:
        den = s * data.draw(st.integers(1, 3))
        x = data.draw(st.sampled_from([*chain(*ranges), *[0] * zero])) * (den // s)
        t = x - data.draw(st.sampled_from([0, den])) + data.draw(st.sampled_from([-1, 0, 1]))
    closed = data.draw(st.booleans())
    assert _window_count(progressions, den, t, closed) == window_counts(curve_spectrum(g), den, [(t, closed)])[0]


@pytest.mark.parametrize("open_variant", [True, False])
def test_lanes_never_prune_a_configuration_the_check_passes(open_variant):
    # The lanes are the check's own unit windows at the target's test points,
    # so a configuration that passes the check, partial ones included, fits
    # every lane of the target.
    rng = random.Random(2018)
    passed = failed = 0
    for _ in range(600):
        n, d = rng.choice([(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (4, 3), (5, 3)])
        target = fermat_spectrum(n, d)
        pool = germ_pool(n, target.total())
        c = Configuration(n, d, tuple(rng.choice(pool) for _ in range(rng.randint(0, 4))))
        if not check_configuration(c, open_variant).holds:
            failed += 1
            continue
        passed += 1
        den, points = integer_test_points(EMPTY, target)
        windows = list(product(points, (True, False) if open_variant else (True,)))
        lanes = window_counts(candidate_spectrum(c), den, windows)
        bounds = window_counts(target, den, windows)
        assert all(x <= y for x, y in zip(lanes, bounds)), c
    assert passed >= 100 and failed >= 100, (passed, failed)


@functools.lru_cache(maxsize=None)
def _context(n, d, k, open_variant):
    # fully built, also where the root walk cut the root and skipped the build
    ctx = _SearchContext(n, d, k, frozenset("ADEJ"), SearchFilters(open_variant=open_variant))
    if ctx.root_cut:
        ctx.build()
    return ctx


def _pool(ctx, whitelist="ADEJ"):
    # the context's classes in its DFS order, pool index i at canonical place rank[i]
    canonical = germ_pool(ctx.n, ctx.target_mu, whitelist)
    return [canonical[r] for r in ctx.rank]


def _completions(mus, s, remaining):
    # every multiset of pool[s:] with Milnor sum ``remaining``, as index tuples
    if remaining == 0:
        yield ()
        return
    for i in range(s, len(mus)):
        if mus[i] <= remaining:
            for rest in _completions(mus, i, remaining - mus[i]):
                yield (i,) + rest


def _unpack(packed, width, count):
    mask = (1 << width) - 1
    return [(packed >> (j * width)) & mask for j in range(count)]


def _lane_bits(ctx, packed):
    # the window lanes of a packed int, without the cell lanes above them
    return packed & ((1 << (len(ctx.lanes) * ctx.width)) - 1)


@given(st.data())
def test_lookahead_bounds_every_completion(data):
    # Each packed bound lane is at most the smallest count that lane reaches
    # over every completion from pool[s:], found by brute force.  The bound
    # does not depend on s, so every s of the pool is drawn.
    n, d, k, open_variant = data.draw(
        st.sampled_from([(2, 4, 2, True), (2, 5, 2, False), (2, 6, 2, True), (3, 3, 2, True),
                         (4, 3, 2, False), (2, 4, 1, True), (3, 3, 3, True), (2, 6, 3, True),
                         (2, 6, 2, False)])
    )
    ctx = _context(n, d, k, open_variant)
    remaining = data.draw(_up_to(min(ctx.target_mu, 12)))
    s = data.draw(st.integers(0, len(ctx.rank)))
    lanes = len(ctx.lanes)
    bound = _unpack(ctx.lookahead[remaining], ctx.width, lanes)
    for completion in _completions(ctx.mus, s, remaining):
        # lane sums stay below 2^(B-1), so the packed sum does not carry
        counts = _unpack(sum(ctx.packed[i] for i in completion), ctx.width, lanes)
        assert all(b <= x for b, x in zip(bound, counts)), (s, remaining, completion)


def _root_cases():
    # every pair of candidate_region(k), k = 2..4, whose pool has at most 400
    # classes, and the k = 0 and 1 cases of the unpruned-search oracle
    for k in (2, 3, 4):
        for n, d in sorted(candidate_region(k).pairs):
            if germ_pool_size((d - 1) ** n - k) <= 400:
                yield n, d, k
    yield from ((n, d, k) for n, d, k in _ORACLE_CASES if k < 2)


def test_root_walk_equals_the_full_lookahead():
    # The walk decides the root before any vector is built; the full build's
    # lookahead over the whole pool must cut the root exactly when it does.
    cut = kept = 0
    for n, d, k in _root_cases():
        for whitelist in ("ADEJ", "DEJ", "AD", "J"):
            for open_variant in (True, False):
                ctx = _SearchContext(
                    n, d, k, frozenset(whitelist), SearchFilters(open_variant=open_variant)
                )
                root_cut = ctx.root_cut
                if root_cut:
                    ctx.build()
                full = bool((ctx.start + ctx.lookahead[ctx.target_mu]) & ctx.high)
                assert root_cut == full, (n, d, k, whitelist, open_variant)
                cut += root_cut
                kept += not root_cut
    assert cut >= 100 and kept >= 100, (cut, kept)


@pytest.mark.parametrize("n, d, k", [(3, 3, 2), (5, 3, 2), (4, 3, 3), (7, 3, 3)])
def test_vectors_count_the_curve_spectrum_at_shifted_points(n, d, k):
    # the context counts each curve spectrum at the test points of the target
    # moved down by (n-2)/2; that is the count of the suspended germ spectrum
    # at the unmoved target's test points (the two denominators may differ:
    # for odd n the moved target is over 2d)
    ctx = _context(n, d, k, True)
    target = fermat_spectrum(n, d)
    den, points = integer_test_points(EMPTY, target)
    unmoved = []
    for t, closed in ctx.lanes:
        a = (Fraction(t, ctx.den) + Fraction(n - 2, 2)) * den
        assert a.denominator == 1 and a in points
        unmoved.append((int(a), closed))
    assert ctx.rhs == window_counts(target, den, unmoved)
    for g, packed in zip(_pool(ctx), ctx.packed):
        assert _lane_bits(ctx, packed) == _pack(window_counts(germ_spectrum(g), den, unmoved), ctx.width), g


def _small_pairs():
    # every pair of k = 2..5 with a pool of at most 400 classes (and that is
    # feasible: (2,3) has k > (d-1)^n from k = 5 on), with each whitelist
    # and variant
    for k in range(2, 6):
        for n, d in sorted(candidate_region(k).pairs):
            if (d - 1) ** n < k or germ_pool_size((d - 1) ** n - k) > 400:
                continue
            for whitelist in ("ADEJ", "DEJ", "J"):
                for open_variant in (True, False):
                    yield n, d, k, whitelist, open_variant


def test_lanes_are_the_windows_that_can_cut():
    # The lanes are the windows of `check` at the target's test points, less
    # those that cannot cut: a window that misses ]-1, 1[, and so every
    # catalog curve spectrum, among them the two end windows, a bound of at
    # least T, and an open window whose half-open twin at the same point has
    # the same bound.  Each rule drops windows somewhere, also a window
    # between the end points that misses ]-1, 1[ (the (6,3) target has -1
    # and 1 as numbers).
    at_end = outside = by_bound = as_twin = 0
    for n, d, k, whitelist, open_variant in _small_pairs():
        ctx = _SearchContext(n, d, k, frozenset(whitelist), SearchFilters(open_variant=open_variant))
        T, (den, points) = ctx.target_mu, integer_test_points(EMPTY, ctx.target)
        assert den == ctx.den
        windows = list(product(points, (True, False) if open_variant else (True,)))
        bounds = dict(zip(windows, window_counts(ctx.target, den, windows)))
        lanes = dict(zip(ctx.lanes, ctx.rhs))
        assert len(lanes) == len(ctx.lanes) == len(ctx.rhs)
        for (t, closed), r in lanes.items():
            assert bounds[t, closed] == r < T, (n, d, k, t, closed)
            # ]t/den, t/den + 1] meets ]-1, 1[
            assert -2 * den < t < den, (n, d, k, t)
        # ]a, a+1] at the first point lies in ]-inf, -1], at the last in ]1, inf[
        assert points[0] <= -2 * den and points[-1] >= den
        for (t, closed), r in bounds.items():
            if (t, closed) in lanes:
                continue
            if not -2 * den < t < den:
                at_end += t in (points[0], points[-1])
                outside += t not in (points[0], points[-1])
                continue
            assert r >= T or (not closed and lanes.get((t, True)) == r), (n, d, k, t, closed)
            by_bound += r >= T
            as_twin += r < T
    assert at_end >= 100 and outside >= 1, (at_end, outside)
    assert by_bound >= 100 and as_twin >= 100, (by_bound, as_twin)


def test_cell_table_vectors_and_least_densities_equal_the_lane_counts():
    # The packed vectors, read from the table by place, against
    # `window_counts` at each lane's own window, and every entry of the
    # lookahead table against the ceiling of r times a Fraction minimum per
    # lane, on every pair of `_small_pairs` whose root is not cut.  Some mu
    # must have two classes whose lane counts cross, so the lane-wise minimum
    # differs from both vectors.
    built = crossed = 0
    for n, d, k, whitelist, open_variant in _small_pairs():
        ctx = _SearchContext(n, d, k, frozenset(whitelist), SearchFilters(open_variant=open_variant))
        if ctx.root_cut:
            continue
        built += 1
        counts = [window_counts(curve_spectrum(g), ctx.den, ctx.lanes) for g in _pool(ctx, whitelist)]
        assert [_lane_bits(ctx, p) for p in ctx.packed] == [_pack(c, ctx.width) for c in counts], (n, d, k, whitelist)
        least = [
            min([Fraction(1)] + [Fraction(c[j], mu) for c, mu in zip(counts, ctx.mus)])
            for j in range(len(ctx.rhs))
        ]
        assert len(ctx.lookahead) == ctx.target_mu + 1
        for r, bound in enumerate(ctx.lookahead):
            ceilings = [-(-r * x.numerator // x.denominator) for x in least]
            assert bound == _pack(ceilings, ctx.width), (n, d, k, whitelist, r)
        by_mu = {}
        for c, mu in zip(counts, ctx.mus):
            by_mu.setdefault(mu, []).append(c)
        crossed += any(
            any(x < y for x, y in zip(a, b)) and any(x > y for x, y in zip(a, b))
            for group in by_mu.values()
            for a, b in combinations(group, 2)
        )
    assert built >= 20 and crossed >= 5, (built, crossed)


# pruned_by["semicontinuity"] and examined, pinned so that a change to the
# pruning shows up here: the k=2 pairs (ids name the pair only), then the
# searches that go deepest below the root at k=2 and 3, then deeper ones at
# k = 5..8, with and without the open variant.  (2,9,8) catches a lane rule
# that leaves out a window which can cut where the other cases may not;
# (2,7,4), (5,3,5) and (2,8,5) without the open variant have leaves that fit
# every lane and fail the check, so they pin the leaf test.
@pytest.mark.parametrize(
    "n, d, k, open_variant, pruned, examined",
    [
        pytest.param(4, 3, 2, True, 1, 0, id="4-3"),
        pytest.param(2, 5, 2, True, 78, 8, id="2-5"),
        pytest.param(2, 6, 2, True, 118, 0, id="2-6"),
        pytest.param(3, 4, 2, True, 1, 0, id="3-4"),
        pytest.param(5, 3, 2, True, 1, 0, id="5-3"),
        pytest.param(2, 7, 2, True, 1, 0, id="2-7"),
        pytest.param(2, 5, 3, True, 99, 79, id="2-5-3"),
        pytest.param(2, 6, 3, True, 469, 6, id="2-6-3"),
        pytest.param(4, 3, 3, True, 52, 3, id="4-3-3"),
        pytest.param(3, 3, 2, True, 9, 7, id="3-3-2"),
        pytest.param(2, 9, 7, True, 11353, 4, id="2-9-7"),
        pytest.param(2, 8, 7, True, 40392, 490, id="2-8-7"),
        pytest.param(2, 9, 8, True, 61019, 677, id="2-9-8"),
        pytest.param(2, 7, 6, True, 7403, 1029, id="2-7-6"),
        pytest.param(2, 6, 2, False, 911, 11, id="2-6-2-no-open"),
        pytest.param(4, 3, 2, False, 101, 11, id="4-3-2-no-open"),
        pytest.param(2, 6, 3, False, 2160, 449, id="2-6-3-no-open"),
        pytest.param(2, 7, 4, False, 10624, 141, id="2-7-4-no-open"),
        pytest.param(2, 6, 5, False, 459, 2921, id="2-6-5-no-open"),
        pytest.param(5, 3, 5, False, 2214, 12, id="5-3-5-no-open"),
        pytest.param(2, 8, 5, False, 55647, 668, id="2-8-5-no-open"),
    ],
)
def test_dfs_counts_are_pinned(n, d, k, open_variant, pruned, examined):
    report = enumerate_configurations(n, d, k, filters=SearchFilters(open_variant=open_variant))
    assert report.pruned_by_dict()["semicontinuity"] == pruned
    assert report.examined == examined


def test_a_search_builds_no_spectrum(monkeypatch):
    # The root walk, `build` and the leaves read each pool class as its
    # progressions: no curve spectrum is built, from a cleared cache, for a
    # root cut, (2,7,2), a pool over the cache size, the 1,172 classes of
    # (2,12,11), searches that reach leaves, and one whose leaves fail the
    # check.  (cuts, examined, survivors) stay pinned.
    from specpol import search

    assert "curve_spectrum" not in vars(search)

    def refuse(*curve_class):
        raise AssertionError(f"the spectrum of {curve_class} was built by a search")

    curve_spectrum.cache_clear()
    monkeypatch.setattr(catalog, "_curve_parts", refuse)
    for (n, d, k), open_variant, counts in [
        ((2, 7, 2), True, (1, 0, 0)),
        ((2, 12, 11), True, (1370, 0, 0)),
        ((2, 4, 2), True, (4, 20, 20)),
        ((3, 3, 2), True, (9, 7, 7)),
        ((2, 7, 4), False, (10624, 141, 128)),
    ]:
        report = enumerate_configurations(n, d, k, filters=SearchFilters(open_variant=open_variant))
        assert (report.pruned_by_dict()["semicontinuity"], report.examined, len(report.survivors)) == counts
    assert germ_pool_size(11**2 - 11) == 1172 > curve_spectrum.cache_info().maxsize
    assert curve_spectrum.cache_info().currsize == 0


@pytest.mark.parametrize(
    "n, d, k, open_variant, pruned, examined",
    [(2, 4, 2, True, 4, 20), (2, 7, 4, False, 10624, 141)],
)
def test_dfs_reads_no_spectrum_once_the_context_is_built(n, d, k, open_variant, pruned, examined, monkeypatch):
    # The DFS and the leaves read the progressions the context listed;
    # nothing after it lists a class's progressions or builds its spectrum.
    filters = SearchFilters(open_variant=open_variant)
    expected = set(enumerate_configurations(n, d, k, filters=filters).survivors)
    ctx = _SearchContext(n, d, k, frozenset("ADEJ"), filters)

    def refuse(*curve_class):
        raise AssertionError(f"{curve_class} read by the DFS")

    monkeypatch.setattr("specpol.search._curve_progressions", refuse)
    monkeypatch.setattr(catalog, "_curve_progressions", refuse)
    monkeypatch.setattr(catalog, "_curve_parts", refuse)
    survivors, dfs_examined, cuts = _run_search(ctx)
    assert (cuts, dfs_examined) == (pruned, examined)
    assert set(survivors) == expected


def test_leaf_tables_are_built_for_the_classes_a_leaf_reads():
    # Every pool number is an integer over the frame.  The frame and its
    # tables are made at the first leaf the cells do not certify: (2,6,2)
    # reaches no leaf, and the cells certify every leaf of (2,4,2) and
    # (3,3,2), so those table nothing.  (2,7,4) without the open variant
    # tables the classes of its 86 other leaves alone: each class's spectral
    # numbers over the frame, repeated by multiplicity, and at each number x
    # the target's count in ]x-1, x]
    for (n, d, k), open_variant, leaves, exact in [
        ((2, 6, 2), True, 0, 0),
        ((2, 4, 2), True, 20, 0),
        ((3, 3, 2), True, 7, 0),
        ((2, 7, 4), False, 141, 86),
    ]:
        ctx = _SearchContext(n, d, k, frozenset("ADEJ"), SearchFilters(open_variant=open_variant))
        tested = []

        def leaf(germs, acc, ctx=ctx, real=ctx.leaf_passes, tested=tested):
            if acc & ctx.cell_high:
                tested.append(tuple(germs))
            return real(germs, acc)

        ctx.leaf_passes = leaf
        _survivors, examined, _cuts = _run_search(ctx)
        assert (examined, len(tested)) == (leaves, exact), (n, d, k)
        if not tested:
            assert ctx.frame_numbers is None, (n, d, k)
            continue
        pool = _pool(ctx)
        read = set(chain.from_iterable(tested))
        tabled = {i for i, numbers in enumerate(ctx.frame_numbers) if numbers is not None}
        assert tabled == read
        L = ctx.frame
        assert all(L % curve_spectrum(g).den == 0 for g in pool)
        for i in read:
            spectrum = curve_spectrum(pool[i])
            assert [Fraction(x, L) for x in ctx.frame_numbers[i]] == [a for a, m in spectrum for _ in range(m)]
        assert set(ctx.frame_bound) == {x for i in read for x in ctx.frame_numbers[i]}
        for x, bound in ctx.frame_bound.items():
            assert bound == deg_window(ctx.target, Fraction(x - L, L), Fraction(x, L), right_open=False)


def test_cells_are_the_target_cells():
    # Each cell against its definition from the target spectrum alone.  The
    # breakpoints b_0 < ... < b_m are the target's numbers y and y - 1;
    # consecutive b < c give ]b, c+1[ with bound deg_window(target, b, b+1,
    # right_open=False), and the two ends ]-inf, b_0+1[ and ]b_m, inf[ have
    # bound 0.  A cell is kept when it meets ]-1, 1[ and its bound is below
    # T.  Each rule drops cells somewhere, and some kept cell starts at or
    # below -2, where the bound is counted, not read from the lanes' table.
    # The cell lanes of each packed vector count the class's curve spectrum
    # in the cell, and the start state and ``cell_high`` hold each cell's
    # bound and top bit there.
    kept = outside = by_bound = far = 0
    for n, d, k, whitelist, open_variant in _small_pairs():
        ctx = _SearchContext(n, d, k, frozenset(whitelist), SearchFilters(open_variant=open_variant))
        if ctx.root_cut:
            ctx.build()
        target, T = ctx.target, ctx.target_mu
        ys = [y for y, _m in target]
        breaks = sorted({*ys, *(y - 1 for y in ys)})
        expected = []
        for b, c in zip([NEG_INF, *breaks], [*breaks, POS_INF]):
            right = POS_INF if c is POS_INF else c + 1
            if b >= 1 or right <= -1:
                outside += 1
                continue
            bound = 0 if b is NEG_INF else deg_window(target, b, b + 1, right_open=False)
            if bound >= T:
                by_bound += 1
                continue
            expected.append((b, right, bound))
            far += b is not NEG_INF and b <= -2
        cells = [
            (NEG_INF if b is None else Fraction(b, ctx.den), POS_INF if c is None else Fraction(c, ctx.den) + 1, bound)
            for b, c, bound in ctx.cells
        ]
        assert cells == expected, (n, d, k, whitelist, open_variant)
        kept += len(cells)
        lanes, width, count = len(ctx.lanes), ctx.width, len(cells)
        half = 1 << (width - 1)
        assert _unpack(ctx.start >> (lanes * width), width, count + 1) == [half - 1 - r for *_w, r in cells] + [0]
        assert ctx.cell_high == _pack([half] * count, width) << (lanes * width)
        for g, packed in zip(_pool(ctx, whitelist), ctx.packed):
            counts = [deg_window(curve_spectrum(g), low, high) for low, high, _r in cells]
            assert packed >> (lanes * width) == _pack(counts, width), g
    assert kept >= 1000 and outside >= 10 and by_bound >= 100 and far >= 10, (kept, outside, by_bound, far)


# the searches whose leaves the cell tests draw from: the k = 2 sweep, the
# searches of `verify_huh_lists`, and two pairs without the open variant
# whose leaves the exact test rejects
_LEAF_SEARCHES = {
    "k2-sweep": [(n, d, 2, True) for n, d in [(2, 3), (3, 3), (2, 4), (4, 3), (2, 5), (2, 6), (3, 4), (5, 3), (2, 7)]],
    "huh-lists": sorted({(c.n, c.d, pol, True) for _key, c, pol in load_huh_lists()}),
    "2-7-4-no-open": [(2, 7, 4, False)],
    "5-3-5-no-open": [(5, 3, 5, False)],
}


@functools.lru_cache(maxsize=None)
def _leaf_verdicts(name):
    # (configuration, open variant, certified by the cells, verdict) at
    # every leaf of the searches named, read through the leaf test
    seen = []
    real_leaf = _SearchContext.leaf_passes

    def leaf(ctx, germs, acc):
        passed = real_leaf(ctx, germs, acc)
        c = Configuration(ctx.n, ctx.d, tuple(GermClass(*ctx.fields[ctx.rank[i]], ctx.n) for i in germs))
        seen.append((c, ctx.filters.open_variant, not acc & ctx.cell_high, passed))
        return passed

    with pytest.MonkeyPatch.context() as m:
        m.setattr(_SearchContext, "leaf_passes", leaf)
        for n, d, k, open_variant in _LEAF_SEARCHES[name]:
            enumerate_configurations(n, d, k, filters=SearchFilters(open_variant=open_variant))
    return tuple(seen)


@given(st.data())
def test_a_leaf_the_cells_certify_passes_the_check(data):
    name = data.draw(st.sampled_from(sorted(_LEAF_SEARCHES)))
    certified = [(c, open_variant) for c, open_variant, cells, _passed in _leaf_verdicts(name) if cells]
    c, open_variant = data.draw(st.sampled_from(certified))
    assert check_configuration(c, open_variant).holds, c


@pytest.mark.parametrize(
    "name, leaves, exact, rejected",
    [("k2-sweep", 37, 0, 0), ("huh-lists", 41, 0, 0), ("2-7-4-no-open", 141, 86, 13), ("5-3-5-no-open", 12, 7, 7)],
)
def test_exact_leaf_test_runs_where_a_cell_overflows(name, leaves, exact, rejected):
    # The cells certify every leaf of the k = 2 sweep and of the bundled
    # lists' searches, so the exact test runs at none of them.  Without the
    # open variant it runs at 86 leaves of (2,7,4) and rejects 13, and at 7
    # of (5,3,5) and rejects all 7; each rejected leaf is one it tested.
    verdicts = _leaf_verdicts(name)
    assert len(verdicts) == leaves
    assert sum(not cells for _c, _o, cells, _p in verdicts) == exact
    assert sum(not cells and not passed for _c, _o, cells, passed in verdicts) == rejected
    assert sum(not passed for _c, _o, _cells, passed in verdicts) == rejected


def test_a_pool_over_the_cache_size_builds_each_spectrum_once(monkeypatch):
    # (2,12,11) lists 1,172 classes, more than the curve-spectrum cache
    # holds; the search lists each class's progressions once, when its
    # context is built, and leaves the cache empty.
    from specpol import search

    listed = Counter()

    def counted(family, k, i):
        listed[family, k, i] += 1
        return catalog._curve_progressions(family, k, i)

    curve_spectrum.cache_clear()
    monkeypatch.setattr(search, "_curve_progressions", counted)
    report = enumerate_configurations(2, 12, 11)
    ctx = _SearchContext(2, 12, 11, frozenset("ADEJ"), SearchFilters())
    assert not ctx.root_cut and report.examined == 0
    pool = _pool(ctx)
    assert set(listed) == {(g.family, g.k, g.i) for g in pool}
    assert set(listed.values()) == {2}  # the search's context and this one
    assert len(pool) == 1172 > curve_spectrum.cache_info().maxsize
    assert curve_spectrum.cache_info().misses == 0


def test_a_search_without_survivors_makes_no_germ_class(monkeypatch):
    # The context lists its pool as (family, k, i) fields; a GermClass is
    # made only for a search that keeps a survivor.  Root cuts at (2,7,2),
    # (4,3,2) and (2,19,9) (8,739 classes) and the cuts below the root at
    # (2,6,2) report what they report with the classes listed.
    cases = [(2, 6, 2), (2, 7, 2), (4, 3, 2), (2, 19, 9)]
    expected = {case: enumerate_configurations(*case).to_json() for case in cases}

    def refuse(*args, **kwargs):
        raise AssertionError("a search without survivors made a germ class")

    monkeypatch.setattr("specpol.search.germ_pool", refuse)
    monkeypatch.setattr(catalog.GermClass, "__post_init__", refuse)
    for case in cases:
        report = enumerate_configurations(*case)
        assert report.survivors == () and report.to_json() == expected[case], case


def test_refused_and_certified_searches_list_no_pool_fields(monkeypatch):
    # A search lists its pool through `_pool_fields`, not `germ_pool`: the
    # unpruned budget refuses before it, and the centred window decides
    # (9,6,3) and (100,3,2) without it (both pools are over the budget).
    monkeypatch.setattr("specpol.search._pool_fields", _refuse)
    for n, d, k in [(2, 9, 2), (4, 4, 0), (2, 40, 2)]:
        with pytest.raises(ValueError, match=f"more than {MAX_UNPRUNED_CONFIGURATIONS} configurations"):
            enumerate_configurations(n, d, k, filters=SearchFilters(semicontinuity=False))
    for n, d, k in [(9, 6, 3), (100, 3, 2)]:
        report = enumerate_configurations(n, d, k)
        assert (report.examined, report.pruned_by_dict()["semicontinuity"]) == (0, 1)


# searches that keep survivors: (2,3,2) 2, (2,4,2) 20, (2,5,2) 8, (3,3,2) 7
# and (2,3,1) 3, whose pool huh cuts down to A
_SURVIVOR_SEARCHES = [(2, 3, 2), (2, 4, 2), (2, 5, 2), (3, 3, 2), (2, 3, 1)]


def test_a_search_lists_its_pool_once(monkeypatch):
    # The context lists the fields, and the survivors' classes are made from
    # them, not from a second listing.
    from specpol import search

    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    real = search._pool_fields
    monkeypatch.setattr(search, "_pool_fields", counted)
    for case in _SURVIVOR_SEARCHES:
        calls.clear()
        assert enumerate_configurations(*case).survivors, case
        assert len(calls) == 1, case


def test_searches_with_survivors_do_not_call_germ_pool(monkeypatch):
    expected = [enumerate_configurations(*case).to_json() for case in _SURVIVOR_SEARCHES]
    verified = verify_huh_lists().to_json_obj()

    def refuse(*args, **kwargs):
        raise AssertionError("a search called germ_pool")

    monkeypatch.setattr("specpol.search.germ_pool", refuse)
    assert [enumerate_configurations(*case).to_json() for case in _SURVIVOR_SEARCHES] == expected
    assert verify_huh_lists().to_json_obj() == verified


def test_a_search_makes_one_germ_class_per_class_its_survivors_hold(monkeypatch):
    # (2,5,2) keeps 8 survivors over 9 distinct classes of its 36-class pool
    report = enumerate_configurations(2, 5, 2)
    held = {g for c in report.survivors for g in c.germs}
    assert (len(report.survivors), len(held)) == (8, 9)
    made = []
    real = catalog.GermClass.__post_init__

    def counted(self):
        made.append((self.family, self.k, self.i))
        real(self)

    monkeypatch.setattr(catalog.GermClass, "__post_init__", counted)
    assert enumerate_configurations(2, 5, 2) == report
    assert sorted(made) == sorted((g.family, g.k, g.i) for g in held)


def _count_diagonal_builds():
    # the diagonal-germ spectra built from here on: fermat_spectrum's misses
    catalog._diagonal.cache_clear()
    return lambda: catalog._diagonal.cache_info().misses


def test_a_search_builds_the_diagonal_spectrum_once():
    # The centred certificate, the context and the diagnostics read one
    # diagonal-germ spectrum: (2,5,2) tries the certificate and searches,
    # (4,3,2) also reports diagnostics, and (5,3,2) is decided by the
    # certificate and reports diagnostics.  Without semicontinuity and with
    # no pool, nothing reads it, even at a d whose spectrum is over its budget.
    for n, d, k in [(2, 5, 2), (4, 3, 2), (5, 3, 2)]:
        built = _count_diagonal_builds()
        report = enumerate_configurations(n, d, k)
        assert built() == 1, (n, d, k)
        fermat_spectrum(n, d)  # the kept entry is (n, d)'s
        assert built() == 1, (n, d, k)
        assert bool(report.diagnostic_windows) == ((n, d) != (2, 5))
    built = _count_diagonal_builds()
    enumerate_configurations(2, 10**20, 2, (), SearchFilters(semicontinuity=False))
    assert built() == 0


def test_verify_huh_lists_builds_one_diagonal_spectrum_per_search_and_pair():
    # the searches and the checks share one spectrum per run of entries with
    # one (n, d): (3,3), (2,5), (2,4), (2,3), (2,2), (2,3), 6 builds where
    # one per search and one per distinct (n, d) would be 11
    built = _count_diagonal_builds()
    assert verify_huh_lists().all_ok
    runs = [(c.n, c.d) for _key, c, _pol in load_huh_lists()]
    runs = [p for i, p in enumerate(runs) if i == 0 or p != runs[i - 1]]
    assert runs == [(3, 3), (2, 5), (2, 4), (2, 3), (2, 2), (2, 3)]
    assert built() == len(runs) == 6
    fermat_spectrum(2, 3)  # the kept entry is the last run's
    assert built() == 6


@pytest.mark.parametrize("n, d, k", [(2, 9, 2), (4, 4, 0), (2, 40, 2)])
def test_an_unpruned_search_over_the_budget_is_refused_before_the_dfs(n, d, k, monkeypatch):
    # (2,9,2) would list 242,356,576 configurations, (4,4,0) 14,363,276,034;
    # (2,40,2) has 194,557 classes, inside the pool budget
    monkeypatch.setattr("specpol.search.germ_pool", _refuse)
    monkeypatch.setattr("specpol.search._run_search", _refuse)
    monkeypatch.setattr(_SearchContext, "build", _refuse)
    with pytest.raises(ValueError, match=f"more than {MAX_UNPRUNED_CONFIGURATIONS} configurations"):
        enumerate_configurations(n, d, k, filters=SearchFilters(semicontinuity=False))


def test_configuration_count_equals_the_unpruned_search():
    # The count the unpruned budget reads, over the families of the classes
    # huh keeps (found by a scan), against the configurations the unpruned
    # DFS lists, with huh on and off; (5,3,5) is left out for time.  Counts stop at the cap: A1..A4 and D4
    # make 6 multisets of Milnor sum 4, capped at 2.
    for n, d, k in [case for case in _ORACLE_CASES if case != (5, 3, 5)] + [(2, 6, 3)]:
        total = (d - 1) ** n - k
        for huh in (True, False):
            report = enumerate_configurations(n, d, k, filters=SearchFilters(huh=huh, semicontinuity=False))
            kept = [g for g in germ_pool(n, total) if not huh or n > 2 or k < 1 or multiplicity_curve(g) - 1 <= k]
            families = {g.family for g in kept}
            assert _count_configurations(total, families, MAX_UNPRUNED_CONFIGURATIONS) == report.examined
    assert _count_configurations(4, {"A", "D"}, 10) == 6
    assert _count_configurations(4, {"A", "D"}, 2) == 2


def test_configuration_count_per_milnor_number_equals_a_count_over_the_pool():
    # The closed-form count reads the classes of each Milnor number from
    # germ_pool_size; a coin-change count over the listed pool's Milnor
    # numbers must give the same at every total up to 60, for each whitelist.
    top = 60
    for wl in (wl for r in range(1, 5) for wl in combinations("ADEJ", r)):
        ways = [1] + [0] * top
        for mu in (g.milnor for g in germ_pool(2, top, wl)):
            for v in range(mu, top + 1):
                ways[v] += ways[v - mu]
        for total in range(top + 1):
            assert _count_configurations(total, set(wl), 10**30) == ways[total], (wl, total)
        assert ways[top] > 1, wl


def test_an_empty_family_set_lists_no_pool(monkeypatch):
    # With no family left, nothing completes a positive Milnor number, and
    # the answer needs neither a pool nor a table of T + 1 entries, even
    # where T has 40 digits (with semicontinuity on, the target spectrum of
    # so large a d is over its work budget)
    monkeypatch.setattr("specpol.search._SearchContext", _refuse)
    for wl, k in [((), 2), ("DEJ", 1)]:
        for d, semicontinuity in [(50, True), (10**20, False)]:
            filters = SearchFilters(semicontinuity=semicontinuity)
            report = enumerate_configurations(2, d, k, wl, filters)
            assert (report.survivors, report.examined) == ((), 0)
            assert report.pruned_by_dict()["semicontinuity"] == semicontinuity


def test_an_empty_pool_is_a_cut_root(monkeypatch):
    # Nothing completes a positive Milnor number from an empty pool, and the
    # search reports a cut root, also at (6,3,63), where every window that
    # meets ]-1, 1[ has a bound of at least T = 1, so there is no lane.
    # Without semicontinuity nothing is cut.  The pool is found empty in
    # closed form, so no search context is made.
    monkeypatch.setattr("specpol.search._SearchContext", _refuse)
    for n, d, k, whitelist in [(6, 3, 63, "J"), (2, 3, 2, "J"), (3, 3, 5, "DE")]:
        for semicontinuity in (True, False):
            report = enumerate_configurations(n, d, k, whitelist, SearchFilters(semicontinuity=semicontinuity))
            assert report.examined == 0, (n, d, k)
            assert report.pruned_by_dict()["semicontinuity"] == semicontinuity, (n, d, k)


def test_final_check_rejects_a_configuration_that_fits_every_lane():
    # The lanes test the target's test points only.  A13 + E7 + E12 at (2,7)
    # fits every half-open lane, yet the check, which also tests the
    # candidate's breakpoints, fails it at a = -5/9: the leaf test rejects
    # it.  With the open variant a lane cuts it already.
    c = config(2, 7, "A13", "E7", "E12")
    assert polar_degree(c) == 4
    target = fermat_spectrum(2, 7)
    den, points = integer_test_points(EMPTY, target)
    windows = [(t, True) for t in points]
    lanes = window_counts(candidate_spectrum(c), den, windows)
    assert all(x <= r for x, r in zip(lanes, window_counts(target, den, windows)))
    first = check_configuration(c, open_variant=False).violations[0]
    assert (first.a, first.lhs, first.rhs) == (Fraction(-5, 9), 31, 30)
    # ]-5/9, 4/9] is ]x-1, x] at x = 4/9, a number of E7: one of the windows
    # at the leaf's own numbers, which are all that the leaf tests
    assert first.closed is True
    assert first.a == Fraction(4, 9) - 1 and Fraction(4, 9) in dict(curve_spectrum(parse_germ("E7")))
    report = enumerate_configurations(2, 7, 4, filters=SearchFilters(open_variant=False))
    assert c not in report.survivors


def test_k2_region_survivors_equal_the_pinned_sets():
    # Every pair of candidate_region(2), (2,8) to (2,11) included, against the
    # survivor sets the benchmark pins; a pair it does not list has none.
    pinned = json.loads(SURVIVORS_JSON.read_text())
    pairs = sorted(candidate_region(2).pairs)
    assert len(pairs) == 13 and {f"{n},{d}" for n, d in pairs} >= set(pinned)
    for n, d in pairs:
        report = enumerate_configurations(n, d, 2)
        names = sorted(sorted(str(g) for g in c.germs) for c in report.survivors)
        assert names == sorted(pinned.get(f"{n},{d}", [])), (n, d)
        if not names and (n, d) != (2, 6):
            # decided at the root: the lookahead over the whole pool cuts it
            assert report.pruned_by_dict()["semicontinuity"] == 1, (n, d)


def test_cubic_fourfold_elimination():
    report = enumerate_configurations(5, 3, 2)
    assert report.target_mu == 30
    assert report.survivors == ()
    diag = dict(report.diagnostic_windows)
    assert diag["]1,2["] == 20
    assert diag["]-inf,1["] == 1


def test_cubic_threefold_elimination():
    report = enumerate_configurations(4, 3, 2)
    assert report.target_mu == 14
    assert report.survivors == ()
    diag = dict(report.diagnostic_windows)
    assert diag["]2/3,5/3["] == 10


def test_cubic_surface_survivors():
    report = enumerate_configurations(3, 3, 2)
    survivors = set(report.survivors)
    assert config(3, 3, "E6") in survivors
    assert config(3, 3, "A5", "A1") in survivors
    assert config(3, 3, "A2", "A2", "A2") in survivors
    assert config(3, 3, "A1", "A1", "A1", "A1", "A1", "A1") not in survivors


def test_plane_cubic_survivors():
    report = enumerate_configurations(2, 3, 2)
    assert set(report.survivors) == {config(2, 3, "A2"), config(2, 3, "A1", "A1")}


def test_every_survivor_has_polar_degree_k():
    # the DFS asserts nothing per survivor: a leaf is reached when the Milnor
    # numbers left to place are 0, with or without semicontinuity
    unpruned = SearchFilters(semicontinuity=False)
    for n, d, k, whitelist, filters in [
        (2, 4, 2, "ADEJ", SearchFilters()),
        (3, 3, 2, "ADEJ", SearchFilters()),
        (2, 3, 1, "ADEJ", SearchFilters()),
        (2, 5, 3, "ADEJ", unpruned),
        (3, 3, 3, "ADEJ", unpruned),
        (2, 5, 3, "AE", SearchFilters()),
        (2, 6, 3, "DJ", unpruned),
    ]:
        report = enumerate_configurations(n, d, k, whitelist, filters)
        assert report.survivors, (n, d, k, whitelist)
        for c in report.survivors:
            assert polar_degree(c) == k
            assert candidate_spectrum(c).total() == report.target_mu
            assert {g.family for g in c.germs} <= set(whitelist)


def test_survivors_are_sorted_canonically():
    # each survivor lists its germs by sort_key, and the survivors are in
    # lexicographic order of those lists, whatever order the DFS found them in
    for n, d, k, whitelist, filters, count in [
        (2, 4, 2, "ADEJ", SearchFilters(), 20),
        (2, 7, 7, "ADEJ", SearchFilters(), 8012),
        (2, 6, 3, "ADEJ", SearchFilters(semicontinuity=False), 6520),
        (2, 7, 4, "ADEJ", SearchFilters(open_variant=False), 128),
        (2, 5, 3, "AE", SearchFilters(), 25),
        (2, 5, 3, "DJ", SearchFilters(), 4),
    ]:
        report = enumerate_configurations(n, d, k, whitelist, filters)
        assert len(report.survivors) == count, (n, d, k, whitelist)
        keys = [tuple(g.sort_key() for g in c.germs) for c in report.survivors]
        assert all(list(key) == sorted(key) for key in keys), (n, d, k, whitelist)
        assert keys == sorted(keys), (n, d, k, whitelist)
        assert len(set(keys)) == len(keys), (n, d, k, whitelist)


def test_disabling_semicontinuity_enlarges_survivors():
    for n, d, k in [(2, 3, 2), (3, 3, 2), (2, 4, 2)]:
        filtered = enumerate_configurations(n, d, k)
        unfiltered = enumerate_configurations(
            n, d, k, filters=SearchFilters(semicontinuity=False)
        )
        assert set(filtered.survivors) <= set(unfiltered.survivors)
        assert "semicontinuity" not in unfiltered.filters_applied


# (n, d, k) with k = 0..3 whose unpruned search finishes in well under a
# second, and (5,3,5): its unpruned search lists 30,670 configurations in about
# a second, and without the open variant the leaf test rejects 7 of its 12
_ORACLE_CASES = [
    (2, 2, 0), (2, 3, 0), (3, 2, 0),
    (2, 2, 1), (2, 3, 1), (2, 4, 1), (3, 3, 1), (4, 2, 1),
    (2, 3, 2), (2, 4, 2), (3, 3, 2), (2, 5, 2), (4, 3, 2),
    (2, 4, 3), (3, 3, 3), (2, 5, 3), (4, 3, 3),
    (5, 3, 5),
]


def test_incremental_pruning_never_drops_a_survivor():
    # The in-search pruning, lookahead included, must yield exactly the
    # configurations of the unpruned enumeration that pass the final check,
    # with huh and the open variant on and off.  The check with the open
    # variant tests every half-open window too, so it rechecks only what
    # passes without it; each configuration is checked once per variant.
    holds = functools.cache(lambda c, open_variant: check_configuration(c, open_variant).holds)
    for n, d, k in _ORACLE_CASES:
        for huh in (True, False):
            unpruned = enumerate_configurations(
                n, d, k, filters=SearchFilters(huh=huh, semicontinuity=False)
            )
            recheck = list(unpruned.survivors)
            for open_variant in (False, True):
                pruned = enumerate_configurations(
                    n, d, k, filters=SearchFilters(huh=huh, open_variant=open_variant)
                )
                recheck = [c for c in recheck if holds(c, open_variant)]
                assert list(pruned.survivors) == recheck, (n, d, k, huh, open_variant)


def test_unpruned_search_builds_no_spectrum_at_a_leaf(monkeypatch):
    # With semicontinuity off nothing reads a leaf's spectral numbers: every
    # complete configuration survives, and the leaf test is never called.
    def refuse(ctx, germs, acc):
        raise AssertionError("a leaf was tested with semicontinuity off")

    monkeypatch.setattr(_SearchContext, "leaf_passes", refuse)
    report = enumerate_configurations(2, 6, 3, filters=SearchFilters(semicontinuity=False))
    assert report.examined == len(report.survivors) == 6520


def test_open_variant_only_tightens():
    open_on = enumerate_configurations(2, 5, 2)
    open_off = enumerate_configurations(
        2, 5, 2, filters=SearchFilters(open_variant=False)
    )
    assert set(open_on.survivors) <= set(open_off.survivors)
    assert config(2, 5, "J2_4") in set(open_on.survivors)


def test_huh_per_family_equals_the_per_class_scan():
    # huh removes whole families, so the search applies it per family, in
    # closed form; a scan of every listed class must count the same removals,
    # and the survivors must be those of the search without huh that pass
    # huh_inequality_holds; on (2, d, 1) for d = 2..12, the plane pairs of
    # candidate_region(2) and those of candidate_region(3) with d <= 8, and
    # three pairs off the plane, where huh removes nothing
    plane_k2 = [(n, d, 2) for n, d in sorted(candidate_region(2).pairs) if n == 2]
    plane_k3 = [(n, d, 3) for n, d in sorted(candidate_region(3).pairs) if n == 2 and d <= 8]
    off_plane = [(3, 3, 1), (4, 3, 1), (3, 4, 1)]
    for n, d, k in [(2, d, 1) for d in range(2, 13)] + plane_k2 + plane_k3 + off_plane:
        total = (d - 1) ** n - k
        for wl in ("ADEJ", "DEJ", "AJ", "J"):
            report = enumerate_configurations(n, d, k, wl)
            scan = sum(n == 2 and multiplicity_curve(g) - 1 > k for g in germ_pool(n, total, wl))
            assert report.pruned_by_dict()["huh"] == scan, (n, d, k, wl)
            without = enumerate_configurations(n, d, k, wl, SearchFilters(huh=False))
            kept = [c for c in without.survivors if huh_inequality_holds(c, k)]
            assert list(report.survivors) == kept, (n, d, k, wl)


def test_the_search_and_huh_inequality_holds_read_one_multiplicity(monkeypatch):
    # Give D multiplicity 4 in the catalog's table: at k = 2 the search must
    # then remove every D class, counted in closed form, and keep exactly the
    # survivors without huh that huh_inequality_holds passes
    monkeypatch.setitem(catalog._MULTIPLICITY, "D", 4)
    for d, pruned, kept in [(4, 4, 13), (5, 11, 2)]:
        report = enumerate_configurations(2, d, 2)
        total = (d - 1) ** 2 - 2
        assert report.pruned_by_dict()["huh"] == germ_pool_size(total, {"D"}) == pruned
        without = enumerate_configurations(2, d, 2, filters=SearchFilters(huh=False))
        assert list(report.survivors) == [c for c in without.survivors if huh_inequality_holds(c, 2)]
        assert len(report.survivors) == kept
    assert not huh_inequality_holds(config(2, 4, "D4"), 2)


def test_huh_filter_prunes_plane_germs_at_k1():
    report = enumerate_configurations(2, 4, 1)
    assert report.pruned_by_dict()["huh"] > 0
    for c in report.survivors:
        assert all(g.family == "A" for g in c.germs)


def test_whitelist_restricts_enumeration():
    report = enumerate_configurations(3, 3, 2, whitelist=("A",))
    for c in report.survivors:
        assert all(g.family == "A" for g in c.germs)
    assert config(3, 3, "A5", "A1") in set(report.survivors)


def test_smooth_target_search():
    report = enumerate_configurations(2, 2, 1)
    assert report.target_mu == 0
    assert report.survivors == (Configuration(2, 2, ()),)


def test_parallel_run_is_identical():
    for n, d, k in [(3, 3, 2), (2, 4, 2), (5, 3, 2)]:
        serial = enumerate_configurations(n, d, k)
        parallel = enumerate_configurations(n, d, k, workers=3)
        assert serial == parallel
        assert serial.to_json() == parallel.to_json()


def test_report_json_shape():
    obj = enumerate_configurations(2, 3, 2).to_json_obj()
    assert obj["params"] == {"n": 2, "d": 3, "k": 2}
    assert obj["target_mu"] == 2
    assert obj["survivors"] == [
        {"d": 3, "germs": ["A1", "A1"], "n": 2},
        {"d": 3, "germs": ["A2"], "n": 2},
    ]
    assert set(obj["pruned_by"]) == {"alpha1", "corank", "huh", "semicontinuity"}
    assert obj["pruned_by"]["alpha1"] == obj["pruned_by"]["corank"] == 0
    assert obj["filters_applied"][:2] == ["alpha1", "corank"]


def test_bundled_lists_load():
    entries = load_huh_lists()
    assert len(entries) == 15
    keys = [key for key, _, _ in entries]
    assert len(set(keys)) == 15
    assert sum(1 for _, _, pol in entries if pol == 2) == 12
    assert sum(1 for _, _, pol in entries if pol == 1) == 3


def test_verify_huh_lists_all_pass():
    verification = verify_huh_lists()
    assert len(verification.entries) == 15
    failures = [e.key for e in verification.entries if not e.ok]
    assert verification.all_ok, failures
    assert all(e.diagnosis() == "ok" for e in verification.entries)
