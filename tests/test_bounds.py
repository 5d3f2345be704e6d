"""Finiteness machinery: ell, degree/dimension bounds, candidate regions."""

from __future__ import annotations

from fractions import Fraction
from math import comb

import pytest

from specpol import (
    alpha1_threshold,
    candidate_region,
    degree_bound,
    dimension_excluded,
    ell,
    fermat_spectrum,
    lemma1_region_k2,
)

F = Fraction


def test_ell_values():
    assert ell(2, 2) == 1
    assert ell(2, 5) == 2
    assert ell(3, 2) == 1
    assert ell(2, 0) == 0
    assert ell(5, 0) == 0
    assert ell(2, 1) == 1
    with pytest.raises(ValueError, match="need n >= 1"):
        ell(0, 1)
    with pytest.raises(ValueError, match="need k >= 0"):
        ell(1, -1)


def test_ell_definition_is_tight():
    for n in range(1, 8):
        for k in [*range(0, 40), 10**12, 10**40]:
            lv = ell(n, k)
            assert comb(n + lv, n) > k
            assert lv == 0 or comb(n + lv - 1, n) <= k


def test_degree_bound_values():
    assert degree_bound(2, 2) == 12
    assert degree_bound(3, 2) == 8
    assert degree_bound(2, 5) == 28


def test_degree_bound_is_exact_rational():
    assert degree_bound(4, 2) == F(20, 3)
    with pytest.raises(ValueError):
        degree_bound(1, 2)
    with pytest.raises(ValueError):
        degree_bound(3, 1)


def test_dimension_excluded():
    assert dimension_excluded(20, 3)
    assert not dimension_excluded(5, 3)
    assert not dimension_excluded(4, 8)
    assert not dimension_excluded(9, 3)  # 2^4 = 16 < 27
    assert dimension_excluded(10, 3)  # 2^5 = 32 >= 27
    with pytest.raises(ValueError):
        dimension_excluded(10, 2)


def test_dimension_excluded_monotone_in_n():
    for k in range(3, 12):
        excluded = [dimension_excluded(n, k) for n in range(2, 40)]
        assert excluded == sorted(excluded)
        assert excluded[-1]


def test_lemma1_region():
    assert lemma1_region_k2() == {(3, 3), (3, 4), (4, 3), (5, 3)}
    # boundary pairs sit exactly on the failing side of the inequality
    assert (3 * (3 - 1) - 1) * (5 - 2) >= 14  # (3,5)
    assert (3 * (6 - 1) - 1) * (3 - 2) >= 14  # (6,3)


def test_alpha1_threshold():
    assert alpha1_threshold(2, 2) == F(-3, 4)
    assert alpha1_threshold(4, 2) == F(-1, 4)
    assert alpha1_threshold(5, 2) == F(0)
    assert alpha1_threshold(2, 1) == F(-2, 3)
    with pytest.raises(ValueError):
        alpha1_threshold(2, 0)


def test_binomial_column_sum_identity():
    for n in range(1, 13):
        for lv in range(0, 13):
            assert sum(comb(n + j - 1, n - 1) for j in range(lv + 1)) == comb(n + lv, n)


def test_diagonal_germ_low_multiplicities():
    # v_0 = 1 and v_1 = n for every d >= 3
    for n in range(2, 9):
        for d in range(3, 9):
            s = fermat_spectrum(n, d)
            assert s.multiplicity(F(n, d) - 1) == 1
            assert s.multiplicity(F(n + 1, d) - 1) == n


def test_candidate_region_k2():
    region = candidate_region(2)
    assert {(2, 3), (2, 4), (2, 5), (3, 3)} <= region.pairs
    allowed = {(2, d) for d in range(3, 12)} | {(3, 3), (3, 4), (4, 3), (5, 3)}
    assert region.pairs <= allowed
    assert region.pairs == allowed  # the scan is exactly the two bounds
    assert region.notes


def test_candidate_region_k2_exclusion_log():
    region = candidate_region(2)
    log = {(n, d): by for n, d, by in region.exclusion_log}
    assert log[(2, 2)] == "d=2"
    assert log[(2, 12)] == "t:Huh2"
    assert log[(3, 5)] == "l:1"
    assert log[(6, 3)] == "l:1"
    # every scanned pair is either kept or logged
    all_n = {n for n, _ in region.pairs} | {n for n, _, _ in region.exclusion_log}
    all_d = {d for _, d in region.pairs} | {d for _, d, _ in region.exclusion_log}
    for n in range(2, max(all_n) + 1):
        for d in range(2, max(all_d) + 1):
            assert ((n, d) in region.pairs) != ((n, d) in log)


def test_candidate_region_finite_for_small_k():
    for k in range(2, 11):
        region = candidate_region(k)
        assert 0 < len(region.pairs) < 10_000
        for n, d in region.pairs:
            assert n >= 2 and d >= 3


def test_candidate_region_scans_the_whole_rectangle():
    # the rectangle ends at the first excluded dimension and at the largest
    # degree bound over the scanned dimensions
    for k in range(3, 31):
        region = candidate_region(k)
        cells = {(n, d) for n, d, _ in region.exclusion_log} | region.pairs
        n_max = next(n for n in range(2, 100) if dimension_excluded(n, k))
        d_max = max(-(-degree_bound(n, k) // 1) for n in range(2, n_max + 1))
        assert cells == {(n, d) for n in range(2, n_max + 1) for d in range(2, d_max + 1)}


def test_out_of_budget_region_is_refused():
    # far beyond any loop over n or ell: the rectangle is counted in closed form
    with pytest.raises(ValueError, match="budget"):
        candidate_region(10**30)


def test_candidate_region_k3_respects_both_bounds():
    region = candidate_region(3)
    for n, d in region.pairs:
        assert not dimension_excluded(n, 3)
        assert d < degree_bound(n, 3)
    log = {(n, d): by for n, d, by in region.exclusion_log}
    assert log[(10, 3)] == "t:h0"
    assert log[(2, 20)] == "t:Huh2"


def test_candidate_region_rejects_k_below_two():
    with pytest.raises(ValueError):
        candidate_region(1)


def test_region_json_is_sorted():
    obj = candidate_region(2).to_json_obj()
    assert obj["pairs"] == sorted(obj["pairs"])
    assert obj["k"] == 2
    assert all(set(e) == {"n", "d", "by"} for e in obj["excluded"])
