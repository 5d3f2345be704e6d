"""Acceptance suite: one test per exit criterion, printing a pass line each.

Every assertion here is exact (integer or Fraction equality); there are no
tolerances anywhere in the package.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from specpol import (
    Configuration,
    GermClass,
    candidate_region,
    check,
    curve_spectrum,
    deg_window,
    degree_bound,
    ell,
    enumerate_configurations,
    fermat_spectrum,
    germ_spectrum,
    join,
    lemma1_region_k2,
    load_huh_lists,
    make_spectrum,
    parse_germ,
    polar_degree,
)
from specpol.cli import run
from specpol.semicontinuity import window_test_points
from specpol.spectrum import NEG_INF, POS_INF
from oracles import a_row, d_row, e0_row, e2_row, j0_row, dense_check, spectrum_from_weights, weights

F = Fraction


def _passed(capsys, n: int, message: str) -> None:
    # bypass capture so the line is visible in a plain `pytest -v` run
    with capsys.disabled():
        print(f"criterion {n}: PASS - {message}")


def test_criterion_1_fermat_spectra_exact(capsys):
    f53 = fermat_spectrum(5, 3)
    assert f53 == make_spectrum(
        [(F(2, 3), 1), (F(1), 5), (F(4, 3), 10), (F(5, 3), 10), (F(2), 5), (F(7, 3), 1)]
    )
    f43 = fermat_spectrum(4, 3)
    assert f43 == make_spectrum(
        [(F(1, 3), 1), (F(2, 3), 4), (F(1), 6), (F(4, 3), 4), (F(5, 3), 1)]
    )
    assert deg_window(f53, F(1), F(2)) == 20
    assert deg_window(f53, NEG_INF, F(1)) == 1
    _passed(capsys, 1, "diagonal-germ spectra and their window degrees, exactly")


def test_criterion_2_weighted_homogeneous_catalog(capsys):
    checked = 0
    for g, row in _weighted_homogeneous_with_rows():
        s = curve_spectrum(g)
        assert s == spectrum_from_weights(*weights(g)), g
        assert s == row, g
        assert s.total() == g.milnor, g
        assert s.is_symmetric(F(0)), g
        assert s.min_spectral() > -1 and s.max_spectral() < 1, g
        checked += 1
    # documented exception: the explicit listing for the 6r+1 subfamily is
    # replaced by the weight expansion
    e7 = curve_spectrum(GermClass("E", 7))
    assert e7 == make_spectrum((F(v, 9), 1) for v in (-4, -2, -1, 0, 1, 2, 4))
    for r in range(1, 34):
        s = curve_spectrum(GermClass("E", 6 * r + 1))
        assert s.is_symmetric(F(0)) and s.total() == 6 * r + 1
    _passed(capsys, 2, f"{checked} weighted-homogeneous classes match their row sums; "
               "E(6r+1) documented exception verified")


def _weighted_homogeneous_with_rows():
    for k in range(1, 201):
        yield GermClass("A", k), a_row(k)
    for k in range(4, 201):
        yield GermClass("D", k), d_row(k)
    for r in range(1, 34):
        if 6 * r <= 200:
            yield GermClass("E", 6 * r), e0_row(r)
        if 6 * r + 2 <= 200:
            yield GermClass("E", 6 * r + 2), e2_row(r)
    k = 2
    while 6 * k - 2 <= 200:
        yield GermClass("J", k, 0), j0_row(k)
        k += 1


def test_criterion_3_j_family(capsys):
    checked = 0
    k = 2
    while 6 * k - 2 <= 200:
        for i in range(0, 200 - (6 * k - 2) + 1):
            g = GermClass("J", k, i)
            s = curve_spectrum(g)
            assert s.total() == 6 * k - 2 + i, g
            assert s.is_symmetric(F(0)), g
            if i > 0:
                den = 6 * k + 2 * i
                group2 = [
                    F(num, den) for num in range(-(3 * k + i) + 1, 0)
                    if (num - i) % 2 == 0
                ]
                assert all(v > F(-1, 2) for v in group2), g
            checked += 1
        k += 1
    j24 = curve_spectrum(GermClass("J", 2, 4))
    assert sum(1 for v in j24.support if v < 0) == 6
    assert all(j24.multiplicity(v) == 1 for v in j24.support if v < 0)
    assert j24.multiplicity(F(0)) == 2
    _passed(capsys, 3, f"{checked} J classes: totals, symmetry, second-group bound; "
               "J(2,4) has 6 negative values and a double 0")


def test_criterion_4_reference_list_polar_degrees(capsys):
    entries = load_huh_lists()
    assert len(entries) == 15
    for key, config, expected in entries:
        assert polar_degree(config) == expected, key
    _passed(capsys, 4, "all 15 bundled configurations have their stated polar degree")


def test_criterion_5_emptiness_and_survivors(capsys):
    assert enumerate_configurations(5, 3, 2).survivors == ()
    assert enumerate_configurations(4, 3, 2).survivors == ()
    cubic_surfaces = set(enumerate_configurations(3, 3, 2).survivors)
    for names in [("E6",), ("A5", "A1"), ("A2", "A2", "A2")]:
        assert Configuration(3, 3, tuple(parse_germ(s, 3) for s in names)) in cubic_surfaces
    plane_cubics = set(enumerate_configurations(2, 3, 2).survivors)
    for names in [("A2",), ("A1", "A1")]:
        assert Configuration(2, 3, tuple(parse_germ(s, 2) for s in names)) in plane_cubics
    _passed(capsys, 5, "(5,3,2) and (4,3,2) empty; (3,3,2) and (2,3,2) contain the "
               "expected candidates")


def test_criterion_6_bounds(capsys):
    assert ell(2, 2) == 1 and ell(2, 5) == 2 and ell(3, 2) == 1
    assert degree_bound(2, 2) == 12
    assert degree_bound(3, 2) == 8
    assert degree_bound(2, 5) == 28
    assert lemma1_region_k2() == {(3, 3), (3, 4), (4, 3), (5, 3)}
    region2 = candidate_region(2)
    assert {(2, 3), (2, 4), (2, 5), (3, 3)} <= region2.pairs
    assert len(region2.pairs) < 100
    for k in range(2, 11):
        assert len(candidate_region(k).pairs) < 10_000
    _passed(capsys, 6, "degree/dimension bounds, the k=2 refined region, and finite "
               "candidate regions for k <= 10")


def test_criterion_7_property_suites(capsys):
    # join/diagonal-germ equivalence
    for d in range(2, 7):
        s = fermat_spectrum(1, d)
        for n in range(2, 7):
            s = join(s, fermat_spectrum(1, d))
            assert s == fermat_spectrum(n, d)

    # unit windows imply ray inequalities on 100 random catalog configurations
    rng = random.Random(4171)
    names = ["A1", "A2", "A3", "A5", "A7", "D4", "D6", "E6", "E7", "E8", "J2_0", "J2_2"]
    ray_checked = 0
    attempts = 0
    while ray_checked < 100 and attempts < 3000:
        attempts += 1
        n = rng.choice([2, 2, 3, 4])
        d = rng.choice([3, 4, 5])
        config = Configuration(
            n, d, tuple(parse_germ(rng.choice(names), n) for _ in range(rng.randint(1, 4)))
        )
        candidate = sum(
            (germ_spectrum(g) for g in config.germs), make_spectrum([])
        )
        target = fermat_spectrum(n, d)
        if not check(candidate, target, open_variant=False).holds:
            continue
        for a in window_test_points(candidate, target):
            assert deg_window(candidate, a, POS_INF) <= deg_window(target, a, POS_INF)
        ray_checked += 1
    assert ray_checked == 100

    # breakpoint scan agrees with dense sampling on 100 random small spectra
    rng = random.Random(515)
    for _ in range(100):
        s1 = make_spectrum(
            (F(rng.randint(-18, 18), rng.randint(1, 9)), rng.randint(1, 3))
            for _ in range(rng.randint(0, 5))
        )
        s2 = make_spectrum(
            (F(rng.randint(-18, 18), rng.randint(1, 9)), rng.randint(1, 3))
            for _ in range(rng.randint(0, 5))
        )
        assert check(s1, s2, open_variant=False).holds == dense_check(s1, s2, True)
        # with the open variant, the verdict of each window shape on its own
        report = check(s1, s2)
        for closed in (True, False):
            assert (closed not in {v.closed for v in report.violations}) == dense_check(s1, s2, closed)

    # low diagonal-germ multiplicities are binomial coefficients
    for n in range(1, 9):
        for d in range(2, 9):
            s = fermat_spectrum(n, d)
            for j in range(0, d - 1):
                assert s.multiplicity(F(n + j, d) - 1) == comb(n + j - 1, n - 1)
    _passed(capsys, 7, "join equivalence, 100 ray-inequality configurations, 100 "
               "dense-sampling comparisons, binomial multiplicities")


def test_criterion_8_search_determinism(capsys):
    outputs = []
    for argv in (
        ["search", "3", "3", "2", "--json"],
        ["search", "3", "3", "2", "--json", "--workers", "4"],
        ["search", "2", "4", "2", "--json"],
        ["search", "2", "4", "2", "--json", "--workers", "3"],
    ):
        assert run(argv) == 0
        outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1]
    assert outputs[2] == outputs[3]
    _passed(capsys, 8, "search --json is byte-identical between single-threaded "
               "and parallel runs")
