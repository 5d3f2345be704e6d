"""Polar degree from (n, d) and the germ multiset; feasibility and filters."""

from __future__ import annotations

import random

import pytest

from specpol import (
    Configuration,
    GermClass,
    InfeasibleConfigurationError,
    huh_inequality_holds,
    load_huh_lists,
    parse_germ,
    polar_degree,
)


def config(n, d, *names):
    return Configuration(n, d, tuple(parse_germ(s, n) for s in names))


def test_smooth_quadric_is_homaloidal():
    for n in range(2, 8):
        assert polar_degree(Configuration(n, 2, ())) == 1


def test_polar_degree_examples():
    assert polar_degree(config(2, 3, "A2")) == 2
    assert polar_degree(config(3, 3, "E6")) == 2
    assert polar_degree(config(2, 5, "J2_4")) == 2
    assert polar_degree(config(2, 4, "A7")) == 2
    assert polar_degree(config(2, 3, "A3")) == 1
    assert polar_degree(config(2, 3, "A1", "A1", "A1")) == 1


def test_polar_degree_rejects_overloaded_configuration():
    with pytest.raises(InfeasibleConfigurationError):
        polar_degree(config(2, 3, "A5"))


def test_degree_two_is_never_above_one():
    # any feasible singular locus on a quadric leaves polar degree <= 1
    for n in range(2, 6):
        budget = 1  # (d-1)^n with d = 2
        assert polar_degree(Configuration(n, 2, ())) == 1
        assert polar_degree(
            Configuration(n, 2, (GermClass("A", 1, 0, n),))
        ) == 0
        assert budget == 1


def test_bundled_lists_have_stated_polar_degrees():
    entries = load_huh_lists()
    assert len(entries) == 15
    for key, cfg, expected in entries:
        assert polar_degree(cfg) == expected, key


def test_polar_degree_is_multiset_invariant():
    rng = random.Random(5)
    names = ["A2", "A5", "D4", "E6", "J2_0"]
    reference = polar_degree(config(3, 4, *names))
    for _ in range(8):
        rng.shuffle(names)
        assert polar_degree(config(3, 4, *names)) == reference


def test_configuration_validation_and_json():
    c = config(2, 4, "A3", "A1", "A3")
    assert c.germ_strings() == ["A1", "A3", "A3"]
    assert Configuration.from_json(c.to_json()) == c
    assert c.to_json() == '{"d":4,"germs":["A1","A3","A3"],"n":2}'
    with pytest.raises(ValueError):
        Configuration(1, 3, ())
    with pytest.raises(ValueError):
        Configuration(2, 1, ())


def test_configuration_normalises_ambient():
    c = Configuration(4, 3, (GermClass("A", 2),))
    assert all(g.ambient_vars == 4 for g in c.germs)


def test_huh_inequality_plane():
    assert huh_inequality_holds(config(2, 4, "A7"), 2)
    assert not huh_inequality_holds(config(2, 4, "D4"), 1)
    assert huh_inequality_holds(config(2, 4, "A1", "A1"), 1)


def test_huh_inequality_higher_dimension():
    assert huh_inequality_holds(config(3, 3, "E6"), 2)
    assert huh_inequality_holds(config(4, 3, "J2_0"), 2)
    assert huh_inequality_holds(config(3, 3, "D4"), 5)
    with pytest.raises(ValueError):
        huh_inequality_holds(config(3, 3, "E6"), 0)
