"""Window-count checks: breakpoint reduction, verdicts, reports."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from specpol import (
    Configuration,
    candidate_spectrum,
    check,
    check_configuration,
    deg_window,
    enumerate_configurations,
    fermat_spectrum,
    from_numerators,
    germ_pool,
    make_spectrum,
    parse_germ,
    search,
    semicontinuity,
)
from specpol.catalog import GermClass
from specpol.search import SearchFilters
from specpol.semicontinuity import window_test_points
from specpol.spectrum import EMPTY, POS_INF
from oracles import (
    dense_check,
    fraction_check_configuration,
    fraction_check_merged,
    fraction_test_points,
    summed_candidate_spectrum,
)

F = Fraction


def config(n, d, *names):
    return Configuration(n, d, tuple(parse_germ(s, n) for s in names))


def random_spectrum(rng, max_entries=5):
    return make_spectrum(
        (F(rng.randint(-18, 18), rng.randint(1, 9)), rng.randint(1, 3))
        for _ in range(rng.randint(0, max_entries))
    )


@st.composite
def spectra(draw):
    # negative numerators; either mixed denominators, or one denominator that
    # the numerators may share a factor with (reduced by the constructor)
    entries = draw(
        st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 12), st.integers(1, 3)), max_size=6)
    )
    if draw(st.booleans()):
        scale = draw(st.integers(1, 4))
        den = draw(st.integers(1, 12)) * scale
        return from_numerators(den, [(p * scale, m) for p, _q, m in entries])
    return make_spectrum((F(p, q), m) for p, q, m in entries)


def test_candidate_spectrum_examples():
    assert candidate_spectrum(config(2, 3, "A2")) == make_spectrum(
        [(F(-1, 6), 1), (F(1, 6), 1)]
    )
    assert candidate_spectrum(config(2, 3, "A1", "A1")) == make_spectrum([(F(0), 2)])
    c = candidate_spectrum(config(2, 4, "A1", "A3", "A3"))
    assert c.total() == 7
    assert c == make_spectrum([(F(-1, 4), 2), (F(0), 3), (F(1, 4), 2)])
    assert candidate_spectrum(Configuration(3, 3, ())).total() == 0


def test_check_holds_on_equal_spectra():
    target = fermat_spectrum(3, 4)
    for open_variant in (True, False):
        report = check(target, target, open_variant)
        assert report.holds and not report.violations
        assert report.breakpoints_checked > 0


def test_check_reports_violation_values():
    candidate = make_spectrum([(F(0), 3)])
    target = make_spectrum([(F(0), 1)])
    report = check(candidate, target, open_variant=False)
    assert not report.holds
    worst = max(v.lhs - v.rhs for v in report.violations)
    assert worst == 2
    assert all(v.closed for v in report.violations)


def test_cuspidal_cubic_candidate_holds():
    report = check(
        candidate_spectrum(config(2, 3, "A2")),
        fermat_spectrum(2, 3),
        open_variant=False,
    )
    assert report.holds


def test_check_configuration_small_cases():
    assert check_configuration(config(2, 3, "A1", "A1")).holds
    assert check_configuration(config(2, 3, "A2")).holds
    assert check_configuration(config(2, 3, "A3")).holds  # conic plus tangent
    assert not check_configuration(config(2, 3, "A4")).holds


def test_check_configuration_rejects_heavy_cubic_fourfold_locus():
    report = check_configuration(config(5, 3, "J2_0", "J2_0", "J2_0"))
    assert not report.holds
    assert report.violations


def test_report_merging_records_kinds():
    c = config(5, 3, "J2_0", "J2_0", "J2_0")
    report = check_configuration(c)
    # with the open variant on both window shapes witness, the open ]1,2[
    # with the centred lemma's 24 > 20 among them
    assert {v.closed for v in report.violations} == {True, False}
    assert (F(1), 24, 20, False) in {(v.a, v.lhs, v.rhs, v.closed) for v in report.violations}
    # without it only the half-open windows are tested, and they fail alike
    closed_only = check_configuration(c, open_variant=False)
    assert closed_only.violations and all(v.closed for v in closed_only.violations)
    assert closed_only.violations == tuple(v for v in report.violations if v.closed)


def test_report_json_shape():
    report = check_configuration(config(2, 3, "A4"))
    obj = report.to_json_obj()
    assert obj["holds"] is False
    v = obj["violations"][0]
    assert set(v) == {"a", "lhs", "rhs", "kind"}
    assert v["kind"] in ("open", "half")
    assert set(v["a"]) == {"num", "den"}


def test_breakpoint_scan_matches_dense_sampling():
    rng = random.Random(2024)
    disagreements = 0
    for _ in range(100):
        candidate = random_spectrum(rng)
        target = random_spectrum(rng)
        for open_variant in (True, False):
            report = check(candidate, target, open_variant)
            # with the open variant, the verdict of each window shape on its own
            for closed in (True, False) if open_variant else (True,):
                fast = not any(v.closed == closed for v in report.violations)
                slow = dense_check(candidate, target, closed)
                if fast != slow:
                    disagreements += 1
    assert disagreements == 0


def test_window_count_constancy_between_test_points():
    #
    # the scan's test points cut the line into pieces on which both window
    # counts are constant; spot-check by dense sampling inside random gaps
    rng = random.Random(7)
    for _ in range(25):
        s = random_spectrum(rng, max_entries=4)
        t = random_spectrum(rng, max_entries=4)
        points = window_test_points(s, t)
        for x, y in zip(points, points[1:]):
            probes = [x + (y - x) * F(p, 7) for p in range(1, 7)]
            for right_open in (False, True):
                values = {
                    tuple(deg_window(u, a, a + 1, True, right_open) for u in (s, t))
                    for a in probes
                }
                assert len(values) == 1


def test_unit_windows_imply_ray_inequalities():
    # wherever the half-open window check holds, every upper ray obeys the
    # same inequality; 100 random catalog configurations
    rng = random.Random(99)
    families = ["A1", "A2", "A3", "A5", "A7", "D4", "D5", "E6", "E7", "E8", "J2_0", "J2_1"]
    checked_holds = 0
    for _ in range(100):
        n = rng.choice([2, 2, 3, 4])
        d = rng.choice([3, 4, 5])
        germs = tuple(
            parse_germ(rng.choice(families), n) for _ in range(rng.randint(1, 4))
        )
        cfg = Configuration(n, d, germs)
        if cfg.total_milnor > cfg.smooth_milnor:
            continue
        candidate = candidate_spectrum(cfg)
        target = fermat_spectrum(n, d)
        if not check(candidate, target, open_variant=False).holds:
            continue
        checked_holds += 1
        for a in window_test_points(candidate, target):
            assert deg_window(candidate, a, POS_INF) <= deg_window(target, a, POS_INF)
    assert checked_holds > 10


def test_existing_curves_pass_both_variants():
    # every bundled plane-curve configuration corresponds to an actual curve,
    # so both window variants must hold for it
    for cfg in [
        config(2, 4, "A7"),
        config(2, 4, "D6", "A1"),
        config(2, 4, "E7"),
        config(2, 5, "J2_4"),
        config(3, 3, "A2", "A2", "A2"),
    ]:
        assert check_configuration(cfg, open_variant=True).holds


def test_empty_candidate_always_holds():
    for n, d in [(2, 3), (3, 3), (4, 2)]:
        assert check_configuration(Configuration(n, d, ())).holds


def test_check_over_its_support_budget_is_refused_before_any_spectrum(monkeypatch):
    # the bound, sum of mu over the distinct classes plus the diagonal germ's
    # n(d-2)+1 distinct numbers, is at least the union support that the
    # check counts; a configuration over the budget builds no spectrum
    cases = [config(2, 3, "A1", "A1"), config(2, 8, "A7", "A7", "E7", "J2_3"), config(5, 3, "J2_0", "J2_0", "J2_0")]
    for c in cases:
        bound = sum(g.milnor for g in set(c.germs)) + c.n * (c.d - 2) + 1
        union = {y for s in (candidate_spectrum(c), fermat_spectrum(c.n, c.d)) for y in s.support}
        assert len(union) <= bound, c
        monkeypatch.setattr(semicontinuity, "MAX_CHECK_SUPPORT", bound)
        assert check_configuration(c) == check(candidate_spectrum(c), fermat_spectrum(c.n, c.d))
        monkeypatch.setattr(semicontinuity, "MAX_CHECK_SUPPORT", bound - 1)
        with monkeypatch.context() as m:
            m.setattr(semicontinuity, "curve_spectrum", _refuse_spectrum)
            m.setattr(semicontinuity, "fermat_spectrum", _refuse_spectrum)
            with pytest.raises(ValueError, match=f"could count {bound} distinct spectral numbers"):
                check_configuration(c)


def _refuse_spectrum(*args):
    raise AssertionError("a spectrum was built past the check's budget")


@given(st.just(EMPTY) | spectra(), st.just(EMPTY) | spectra(), st.booleans())
def test_integer_check_equals_fraction_reference(candidate, target, open_variant):
    # same test points, and the same report: violations in the same order
    # (by a, half-open before open) with the same a, lhs, rhs and window
    # shape, the same breakpoints_checked
    assert window_test_points(candidate, target) == fraction_test_points(candidate, target)
    fast = check(candidate, target, open_variant)
    slow = fraction_check_merged(candidate, target, open_variant)
    assert fast == slow
    assert fast.to_json() == slow.to_json()


def _search_leaves(monkeypatch, searches):
    # (configuration, verdict) at every leaf of the given searches, read
    # through the leaf test, which gets the leaf's pool indices
    seen = []
    real_leaf = search._SearchContext.leaf_passes

    def leaf(ctx, germs):
        passed = real_leaf(ctx, germs)
        germ_classes = tuple(GermClass(*ctx.fields[ctx.rank[i]], ctx.n) for i in germs)
        seen.append((Configuration(ctx.n, ctx.d, germ_classes), passed))
        return passed

    monkeypatch.setattr(search._SearchContext, "leaf_passes", leaf)
    for n, d, k, open_variant in searches:
        enumerate_configurations(n, d, k, filters=SearchFilters(open_variant=open_variant))
    return seen


# the k=2 sweep, and the searches the bundled lists are checked against
_K2_SWEEP = sorted(
    {(n, d, 2, True) for n, d in [(2, 3), (3, 3), (2, 4), (4, 3), (2, 5), (2, 6), (3, 4), (5, 3), (2, 7)]}
    | {(c.n, c.d, pol, True) for _key, c, pol in search.load_huh_lists()}
)


def test_leaf_verdict_equals_the_check(monkeypatch):
    # Without the open variant the leaf rejects configurations at (2,7,4)
    # (13 of 141) and at (5,3,5), whose target, moved down by 3/2 into the
    # curve frame, has its denominator doubled from 3 to 6 (7 of 12): each
    # rejected leaf fails the check, and each passed one holds.
    leaves = _search_leaves(monkeypatch, [(2, 7, 4, False), (5, 3, 5, False)])
    assert len(leaves) == 141 + 12
    assert sum(not passed for _c, passed in leaves) == 13 + 7
    for c, passed in leaves:
        assert check_configuration(c, open_variant=False).holds == passed, c


def test_check_configuration_equals_fraction_reference_on_the_k2_sweep(monkeypatch):
    # every configuration the k=2 sweep and the bundled lists send to the
    # check: the leaves of their searches, and the bundled entries
    leaves = _search_leaves(monkeypatch, _K2_SWEEP)
    configs = {c for c, _passed in leaves} | {c for _key, c, _pol in search.load_huh_lists()}
    assert len(configs) > 15
    for c in configs:
        for open_variant in (True, False):
            fast = check_configuration(c, open_variant)
            slow = fraction_check_configuration(c, open_variant)
            assert fast == slow
            assert fast.to_json() == slow.to_json()


def test_candidate_spectrum_equals_the_per_germ_sum(monkeypatch):
    # the single merge of the curve spectra, suspended once, against one
    # suspension and one add per germ: on every configuration the k=2 sweep
    # and (2,6,3) without the open variant (449) examine, the bundled lists,
    # and random mixed-family configurations for n = 2..5
    leaves = _search_leaves(monkeypatch, _K2_SWEEP + [(2, 6, 3, False)])
    configs = {c for c, _passed in leaves} | {c for _key, c, _pol in search.load_huh_lists()}
    assert len(configs) > 480
    rng = random.Random(13)
    pool = germ_pool(2, 40)
    for _ in range(300):
        n = rng.randint(2, 5)
        configs.add(Configuration(n, 3, tuple(g.in_ambient(n) for g in rng.sample(pool, rng.randint(1, 5)))))
    assert {c.n for c in configs} == {2, 3, 4, 5}
    for c in configs:
        single, summed = candidate_spectrum(c), summed_candidate_spectrum(c)
        assert single == summed, c
        assert hash(single) == hash(summed)
        assert single.to_json() == summed.to_json()
