"""Command-line interface: dispatch, formats, stability, coverage."""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from io import BytesIO, StringIO, TextIOWrapper
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specpol
from specpol.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_fermat_json(capsys):
    code, out, _ = invoke(capsys, "spectrum", "fermat", "4", "3", "--json")
    assert code == 0
    assert json.loads(out) == [
        {"num": 1, "den": 3, "mult": 1},
        {"num": 2, "den": 3, "mult": 4},
        {"num": 1, "den": 1, "mult": 6},
        {"num": 4, "den": 3, "mult": 4},
        {"num": 5, "den": 3, "mult": 1},
    ]


def test_spectrum_germ_human(capsys):
    code, out, _ = invoke(capsys, "spectrum", "germ", "A2")
    assert code == 0
    assert out.splitlines() == [
        "-1/6\t1",
        "1/6\t1",
        "total\t2",
        "min\t-1/6",
        "symmetric about 0\tTrue",
    ]


def test_spectrum_join(capsys):
    code, out, _ = invoke(capsys, "spectrum", "join", "fermat:1:3", "fermat:1:3", "--json")
    assert code == 0
    assert json.loads(out) == [
        {"num": -1, "den": 3, "mult": 1},
        {"num": 0, "den": 1, "mult": 2},
        {"num": 1, "den": 3, "mult": 1},
    ]


def test_spectrum_germ_vars(capsys):
    code, out, _ = invoke(capsys, "spectrum", "germ", "A1", "--vars", "4", "--json")
    assert json.loads(out) == [{"num": 1, "den": 1, "mult": 1}]


def test_deg_window(capsys):
    code, out, _ = invoke(capsys, "deg", "fermat:5:3", "--from", "1", "--to", "2")
    assert code == 0 and out.strip() == "20"
    code, out, _ = invoke(
        capsys, "deg", "fermat:5:3", "--from=-inf", "--to", "1", "--json"
    )
    assert json.loads(out) == {"degree": 1}
    code, out, _ = invoke(
        capsys, "deg", "germ:J2_4", "--from=-inf", "--to=-1/2", "--right", "closed"
    )
    assert out.strip() == "1"


def test_pol(capsys):
    code, out, _ = invoke(
        capsys, "pol", "--config", '{"n":2,"d":5,"germs":["J2_4"]}', "--json"
    )
    assert code == 0
    assert json.loads(out) == {
        "polar_degree": 2,
        "total_milnor": 14,
        "smooth_milnor": 16,
    }


def test_pol_prints_values_beyond_the_int_digit_limit(capsys):
    # (3-1)^20000 has 6021 digits, more than Python turns into text by default
    limit = sys.get_int_max_str_digits()
    config = '{"n":20000,"d":3,"germs":[]}'
    code, plain, _ = invoke(capsys, "pol", "--config", config)
    assert code == 0
    code, as_json, _ = invoke(capsys, "pol", "--config", config, "--json")
    assert code == 0
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        assert int(plain) == 2**20000
        assert json.loads(as_json) == {
            "polar_degree": 2**20000, "total_milnor": 0, "smooth_milnor": 2**20000,
        }
    finally:
        sys.set_int_max_str_digits(limit)


def test_spectrum_fermat_of_large_degree_returns(capsys):
    code, out, _ = invoke(capsys, "spectrum", "fermat", "2", "20000")
    assert code == 0
    assert f"total\t{19999**2}" in out.splitlines()


def test_check_verdict_is_data_not_exit_code(capsys):
    code, out, _ = invoke(
        capsys, "check", "--config", '{"n":2,"d":3,"germs":["A4"]}', "--json"
    )
    assert code == 0
    assert json.loads(out)["holds"] is False
    code, out, _ = invoke(
        capsys, "check", "--config", '{"n":2,"d":3,"germs":["A2"]}', "--json"
    )
    assert json.loads(out)["holds"] is True


def test_check_no_open_variant(capsys):
    code, out, _ = invoke(
        capsys, "check", "--config", '{"n":2,"d":3,"germs":["A2"]}',
        "--no-open-variant", "--json",
    )
    assert json.loads(out)["holds"] is True


# Exact `check --json` bytes of violating configurations, so that the a of a
# violation cannot drift when the denominator of the test points changes.
# The A4 line is written out; the long ones are pinned by length and SHA-256.
A4_HALF_OPEN = (
    '{"breakpoints_checked":29,"holds":false,"violations":['
    '{"a":{"den":10,"num":-11},"kind":"half","lhs":2,"rhs":1},'
    '{"a":{"den":20,"num":-21},"kind":"half","lhs":2,"rhs":1},'
    '{"a":{"den":10,"num":-7},"kind":"half","lhs":4,"rhs":3},'
    '{"a":{"den":60,"num":-41},"kind":"half","lhs":4,"rhs":3},'
    '{"a":{"den":3,"num":-1},"kind":"half","lhs":4,"rhs":3},'
    '{"a":{"den":60,"num":-19},"kind":"half","lhs":4,"rhs":3},'
    '{"a":{"den":1,"num":0},"kind":"half","lhs":2,"rhs":1},'
    '{"a":{"den":20,"num":1},"kind":"half","lhs":2,"rhs":1}]}\n'
)


@pytest.mark.parametrize(
    "config, extra, length, digest",
    [
        ('{"n":2,"d":3,"germs":["A4"]}', [], 949,
         "0876f7ca6df6758917847afc39786a5c24a5bbf34165c6df2f09a368504f2a46"),
        ('{"n":2,"d":3,"germs":["A4"]}', ["--no-open-variant"], 504,
         "cd5c48b84c2410d7cfd5c059634d64794fe561564d69133885bb004a69a61a72"),
        ('{"n":5,"d":3,"germs":["J2_0","J2_0","J2_0"]}', [], 910,
         "434d4c039657acc5d492ff60058465408109b7ea3dc7941a10e6adcdeb915b50"),
        ('{"n":5,"d":3,"germs":["J2_0","J2_0","J2_0"]}', ["--no-open-variant"], 511,
         "3879ecd47094b1dba6a9450fc150234b533c6a2aa7885dc648ff08ccb80fc907"),
        ('{"n":2,"d":3,"germs":["A99"]}', [], 46813,
         "c53ba282662bcab811e4c572b0c075d4072498943dbe54695c02cd0978731153"),
        ('{"n":2,"d":3,"germs":["A99"]}', ["--no-open-variant"], 23465,
         "a9df03830f3e5c64b6c83445d327aae4848d878d149861063ce7cb4571c5d9c4"),
    ],
)
def test_check_json_bytes_are_pinned(config, extra, length, digest, capsys):
    # the library's report bytes; `check --json` prints them for a configuration
    # within (d-1)^n and refuses one over it (A99 at (2,3)) as `pol` does
    c = specpol.Configuration.from_json(config)
    out = specpol.check_configuration(c, not extra).to_json() + "\n"
    if config == '{"n":2,"d":3,"germs":["A4"]}' and extra:
        assert out == A4_HALF_OPEN
    assert len(out) == length
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    code, cli_out, err = invoke(capsys, "check", "--config", config, *extra, "--json")
    if c.total_milnor <= c.smooth_milnor:
        assert (code, cli_out, err) == (0, out, "")
    else:
        assert (code, cli_out) == (2, "")
        assert err == f"error: total Milnor number {c.total_milnor} exceeds (d-1)^n = {c.smooth_milnor}\n"


def test_search_json(capsys):
    code, out, _ = invoke(capsys, "search", "5", "3", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["survivors"] == []
    assert report["diagnostic_windows"]["]1,2["] == 20
    assert report["diagnostic_windows"]["]-inf,1["] == 1


def test_search_k3_cubic_sixfold_is_eliminated(capsys):
    # (7,3,3): 1,487 pool classes, decided by the centred-window lemma
    code, out, _ = invoke(capsys, "search", "7", "3", "3", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["target_mu"] == 125
    assert report["survivors"] == []
    assert report["pruned_by"]["semicontinuity"] == 1


@pytest.mark.parametrize("n, d, k", [(9, 6, 3), (100, 3, 2)])
def test_search_decided_by_the_centred_window_lists_no_pool(n, d, k, monkeypatch, capsys):
    # Both pools are over the budget ((9,6,3) would list 317,893,391,922
    # classes); the centred-window lemma decides each pair before any pool is
    # counted or listed, and it reports what a cut root reports.
    def refuse(*args):
        raise AssertionError("a pool was listed")

    monkeypatch.setattr("specpol.search.germ_pool", refuse)
    code, out, err = invoke(capsys, "search", str(n), str(d), str(k), "--json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["examined"] == 0 and report["survivors"] == []
    assert report["pruned_by"] == {"alpha1": 0, "corank": 0, "huh": 0, "semicontinuity": 1}


@pytest.mark.parametrize(
    "argv", [["--help"], ["search", "--help"], ["spectrum", "germ", "--help"], ["sweep", "--help"]]
)
def test_help_exits_zero(argv, capsys):
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: specpol")


def test_search_no_filter(capsys):
    code, out, _ = invoke(
        capsys, "search", "2", "3", "2", "--no-filter", "semicontinuity", "--json"
    )
    report = json.loads(out)
    assert "semicontinuity" not in report["filters_applied"]


@pytest.mark.parametrize(
    "k, out",
    [
        # D4 survives: the corank bound 2^1 <= 0 would exclude it, so neither
        # implied filter is listed at k = 0, and neither is huh, which applies
        # from k = 1 on (multiplicity - 1 <= 0 would exclude D4 too)
        (0, '{"diagnostic_windows":{},"examined":1,'
            '"filters_applied":["semicontinuity","semicontinuity_open_variant"],'
            '"params":{"d":3,"k":0,"n":2},'
            '"pruned_by":{"alpha1":0,"corank":0,"huh":0,"semicontinuity":4},'
            '"survivors":[{"d":3,"germs":["D4"],"n":2}],'
            '"target_mu":4,"whitelist":["A","D","E","J"]}\n'),
        # alpha1 is implied from k = 1 on, corank from k = 2
        (1, '{"diagnostic_windows":{},"examined":3,'
            '"filters_applied":["alpha1","huh","semicontinuity","semicontinuity_open_variant"],'
            '"params":{"d":3,"k":1,"n":2},'
            '"pruned_by":{"alpha1":0,"corank":0,"huh":0,"semicontinuity":0},'
            '"survivors":[{"d":3,"germs":["A1","A1","A1"],"n":2},'
            '{"d":3,"germs":["A1","A2"],"n":2},{"d":3,"germs":["A3"],"n":2}],'
            '"target_mu":3,"whitelist":["A","D","E","J"]}\n'),
    ],
)
def test_search_json_below_k2_lists_only_the_implied_filters(k, out, capsys):
    assert invoke(capsys, "search", "2", "3", str(k), "--json") == (0, out, "")


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["2", "4", "2"], "cfa9da5a139b9d2d301bf17b4542a1f0a20a273ec58470f1a6fa19383da66631"),
        (["2", "7", "4", "--no-filter", "open-variant"],
         "56e2e2eee82e4aa49eb3a557fe266b755b1d48ac23305df3d74e31dc7c23212d"),
        (["2", "6", "3", "--no-filter", "semicontinuity"],
         "882f53e5ac12cfa1d730831c4cfd31a3c8398ed1da5f4306d15763a4fcb5233a"),
        (["2", "5", "3", "--whitelist", "A,E"],
         "3da129aa543f37520485f494dbbb1d9870932429f92494b0c1ba94f7673635ed"),
    ],
)
def test_search_json_bytes_are_pinned(argv, digest, capsys):
    # survivors in canonical order, with the counts and filters around them:
    # a search with many survivors, one whose leaves the leaf test rejects,
    # an unpruned one and a whitelisted one
    code, out, err = invoke(capsys, "search", *argv, "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_search_json_is_byte_stable_across_runs_and_workers(capsys):
    outputs = []
    for argv in (
        ["search", "3", "3", "2", "--json"],
        ["search", "3", "3", "2", "--json"],
        ["search", "3", "3", "2", "--json", "--workers", "4"],
    ):
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_region(capsys):
    code, out, _ = invoke(capsys, "region", "2", "--json")
    region = json.loads(out)
    assert [3, 3] in region["pairs"]
    assert region["pairs"] == sorted(region["pairs"])
    code, out, _ = invoke(capsys, "region", "2")
    lines = out.splitlines()
    assert lines[0] == "candidate (n, d) region for polar degree 2: 13 pairs"
    assert lines[14] == "excluded pairs in scanned rectangle: 42 (d=2: 5, l:1: 36, t:Huh2: 1)"


def _sweep_blocks(capsys, *argv):
    # the blocks of a sweep's stdout, each ending in a newline
    code, out, err = invoke(capsys, "sweep", *argv)
    assert (code, err) == (0, "")
    assert out.endswith("\n\n")
    return [block + "\n" for block in out[:-2].split("\n\n")]


@pytest.mark.parametrize("k", [2, 3])
def test_sweep_prints_the_search_block_of_every_pair(k, capsys):
    pairs = sorted(specpol.candidate_region(k).pairs)
    blocks = _sweep_blocks(capsys, str(k))
    assert len(blocks) == len(pairs)
    for (n, d), block in zip(pairs, blocks):
        assert invoke(capsys, "search", str(n), str(d), str(k)) == (0, block, "")
    if k == 2:
        survivors = [int(re.search(r"^survivors \((\d+) candidates\):$", b, re.M).group(1)) for b in blocks]
        assert survivors == [2, 20, 8, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0]


def test_sweep_reports_an_infeasible_pair_and_goes_on(capsys):
    # (2,3) is the first pair of the k=5 region and has (d-1)^n = 4 < 5; the
    # 96 pairs after it are still searched
    blocks = _sweep_blocks(capsys, "5")
    assert len(blocks) == len(specpol.candidate_region(5).pairs) == 97
    assert blocks[0] == "search n=2 d=3 k=5  infeasible: polar degree 5 exceeds (d-1)^n = 4\n"
    assert sum("infeasible" in block for block in blocks) == 1
    assert _sweep_blocks(capsys, "5", "2,4", "2,3") == blocks[1:2] + blocks[:1]


def test_sweep_stops_at_a_pair_the_search_refuses(capsys):
    # (2,300000) is refused by the diagonal-germ budget: the block of (5,3)
    # before it is printed, then one error line and status 2
    _, block, _ = invoke(capsys, "search", "5", "3", "2")
    assert invoke(capsys, "sweep", "2", "5,3", "2,300000") == (
        2,
        block + "\n",
        "error: (n=2, d=300000, k=2): the diagonal-germ spectrum for n=2, d=300000 takes more than 1000000 steps\n",
    )


def test_verify_huh(capsys):
    code, out, _ = invoke(capsys, "verify-huh")
    assert code == 0
    assert "15/15 entries pass" in out
    code, out, _ = invoke(capsys, "verify-huh", "--json")
    assert json.loads(out)["all_ok"] is True


def test_verify_huh_reports_each_failing_entry(monkeypatch, capsys):
    # four entries that fail: a wrong stated polar degree, a configuration
    # that fails semicontinuity, one missing from its search's survivors and
    # an infeasible one (total Milnor number 5 > (3-1)^2).  The search keeps
    # exactly the configurations that pass the other two checks, so the third
    # entry is taken out of the report by hand to fail on that count alone.
    def config(n, d, *germs):
        return specpol.Configuration.from_json_obj({"n": n, "d": d, "germs": list(germs)})

    entries = [
        ("bad:pol", config(2, 3, "A2"), 1),
        ("bad:semi", config(2, 4, "A1", "A2", "A2", "A2"), 2),
        ("bad:miss", config(2, 4, "A7"), 2),
        ("bad:infs", config(2, 3, "A5"), 2),
    ]
    search_all = specpol.search.enumerate_configurations

    def search_without_the_third(*args, **kwargs):
        report = search_all(*args, **kwargs)
        return replace(report, survivors=tuple(c for c in report.survivors if c != entries[2][1]))

    monkeypatch.setattr(specpol.search, "load_huh_lists", lambda: entries)
    monkeypatch.setattr(specpol.search, "enumerate_configurations", search_without_the_third)
    missing = "missing from search survivors"
    expected = [
        ("bad:pol", [3, ["A2"]], 1, 2, f"polar degree 2 != expected 1; {missing}"),
        ("bad:semi", [4, ["A1", "A2", "A2", "A2"]], 2, 2, f"fails semicontinuity; {missing}"),
        ("bad:miss", [4, ["A7"]], 2, 2, missing),
        ("bad:infs", [3, ["A5"]], 2, None, f"polar degree None != expected 2; fails semicontinuity; {missing}"),
    ]
    objs = [
        {
            "key": key,
            "configuration": {"n": 2, "d": d, "germs": germs},
            "expected_pol": expected_pol,
            "computed_pol": computed_pol,
            "ok": False,
            "diagnosis": diagnosis,
        }
        for key, (d, germs), expected_pol, computed_pol, diagnosis in expected
    ]
    verification = specpol.verify_huh_lists()
    assert not verification.all_ok
    assert [(e.ok, e.diagnosis()) for e in verification.entries] == [(False, obj["diagnosis"]) for obj in objs]
    assert [e.to_json_obj() for e in verification.entries] == objs

    assert invoke(capsys, "verify-huh") == (
        0,
        f"bad:pol    (n=2, d=3; A2)  pol=1  FAIL (polar degree 2 != expected 1; {missing})\n"
        f"bad:semi   (n=2, d=4; A1, A2, A2, A2)  pol=2  FAIL (fails semicontinuity; {missing})\n"
        f"bad:miss   (n=2, d=4; A7)  pol=2  FAIL ({missing})\n"
        f"bad:infs   (n=2, d=3; A5)  pol=2  FAIL (polar degree None != expected 2; fails semicontinuity; {missing})\n"
        "0/4 entries pass\n",
        "",
    )
    out = json.dumps({"all_ok": False, "entries": objs}, sort_keys=True, separators=(",", ":")) + "\n"
    assert invoke(capsys, "verify-huh", "--json") == (0, out, "")


def test_usage_errors_exit_two(tmp_path, capsys):
    assert invoke(capsys, "spectrum", "germ", "Q9")[0] == 2
    assert invoke(capsys, "deg", "germ:A2:3:4", "--from=0", "--to=1") == (
        2, "", "error: bad germ source 'germ:A2:3:4'; use germ:<class>[:<vars>]\n"
    )
    assert invoke(capsys, "deg", "fermat:2", "--from=0", "--to=1") == (
        2, "", "error: bad fermat source 'fermat:2'; use fermat:<n>:<d>\n"
    )
    config_file = tmp_path / "config.json"
    config_file.write_text("[1]")
    assert invoke(capsys, "check", "--config", str(config_file)) == (
        2, "", "error: a configuration is a JSON object, got [1]\n"
    )
    assert invoke(capsys, "deg", "fermat:5:3", "--from", "x", "--to", "2")[0] == 2
    assert invoke(capsys, "deg", "fermat:5:3", "--from=1/0", "--to", "2")[0] == 2
    assert invoke(capsys, "pol", "--config", '{"n":2,"d":3,"germs":["A9"]}')[0] == 2
    assert invoke(capsys, "search", "2", "3", "2", "--no-filter", "bogus")[0] == 2
    assert invoke(capsys, "nonsense")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--config", '{"n":2,"d":3,"germs":5}'],
        ["check", "--config", '{"n":2,"d":3,"germs":[5]}'],
        ["check", "--config", '{"n":1e400,"d":3,"germs":[]}'],
        ["check", "--config", '{"n":2.5,"d":3,"germs":[]}'],
        ["check", "--config", '{"n":2,"d":true,"germs":[]}'],
        ["check", "--config", "[2,3]"],
        ["deg", "{spectrum_file}", "--from=-inf", "--to=+inf"],
        # reversed bounds, infinite ones too
        ["deg", "fermat:2:3", "--from=1", "--to=0"],
        ["deg", "fermat:2:3", "--from=+inf", "--to=0"],
        ["deg", "fermat:2:3", "--from=0", "--to=-inf"],
        ["deg", "fermat:2:3", "--from=+inf", "--to=-inf"],
        # an exponent, which Fraction would expand to 10^999999999 first
        ["deg", "fermat:2:3", "--from=1e999999999", "--to=1"],
        ["search", "2", "3", "2", "--workers", "0"],
        ["search", "2", "3", "2", "--workers", "-3"],
        ["verify-huh", "--workers", "0"],
        ["verify-huh", "--workers", "-3"],
        ["search", "2", "3", "2", "--no-filter", "alpha1"],
        ["search", "2", "3", "2", "--no-filter", "corank"],
        # over the int digit limit, which the output lifts but the input keeps
        ["pol", "--config", '{"n":1' + "0" * 5000 + ',"d":3,"germs":[]}'],
        # a non-integer field of a spectrum source
        ["deg", "germ:A2:abc", "--from=-inf", "--to=+inf"],
        ["deg", "fermat:2:x", "--from=-inf", "--to=+inf"],
        # over the work budget: refused before the pool or the scan is built
        # (with semicontinuity the centred-window lemma decides both pairs)
        ["search", "100", "3", "2", "--no-filter", "semicontinuity"],
        ["search", "2", "100000", "2", "--no-filter", "semicontinuity"],
        ["region", "1000000"],
        # a pool count past the int-to-str digit limit
        ["search", "20000", "3", "2", "--no-filter", "semicontinuity"],
        # unpruned searches over the configuration budget, refused before the DFS
        ["search", "2", "9", "2", "--no-filter", "semicontinuity"],
        ["search", "2", "11", "2", "--no-filter", "semicontinuity"],
        ["search", "4", "4", "0", "--no-filter", "semicontinuity"],
        # oversized spectra and powers: refused before they are allocated
        ["spectrum", "germ", "A1000000000"],
        ["spectrum", "fermat", "2", "1000000000"],
        ["deg", "fermat:1000000:1000000", "--from=0", "--to=1"],
        ["check", "--config", '{"n":1000000000,"d":1000000000,"germs":[]}'],
        ["search", "1000000000", "1000000000", "2"],
        ["pol", "--config", '{"n":1000000000,"d":1000000000,"germs":[]}'],
        # JSON nested past the decoder's recursion limit
        ["check", "--config", "{deep_file}"],
        ["deg", "{deep_file}", "--from=0", "--to=1"],
        ["check", "--config", '{"n":' + "[" * 100_000],
        # a join over its pair budget: each side is within MAX_FERMAT_WORK
        ["spectrum", "join", "fermat:1:1000001", "fermat:1:1000001"],
        # a total Milnor number over (d-1)^n, refused by check as by pol
        ["check", "--config", json.dumps({"n": 2, "d": 3, "germs": [f"A{k}" for k in range(1, 121)]})],
        # over the check's support budget, refused before any spectrum is
        # built: 40 large classes, and a diagonal germ alone
        ["check", "--config", json.dumps({"n": 2, "d": 100000, "germs": [f"A{400000 + i}" for i in range(40)]})],
        ["check", "--config", '{"n":2,"d":100002,"germs":[]}'],
        # usage errors that argparse finds: a non-integer argument, and a
        # negative value after a space, read as an option
        ["search", "2", "x", "2"],
        ["deg", "germ:A2", "--from", "-1/3", "--to", "1"],
        # a whitelist that names no family: no search, not an elimination
        ["search", "2", "3", "2", "--whitelist", ","],
        ["search", "2", "3", "2", "--whitelist", ""],
        # 200 distinct odd 1,000-digit denominators: refused as their lcm
        # passes MAX_DENOMINATOR_BITS, before any gcd over it
        ["deg", "{over_budget_file}", "--from=0", "--to=1"],
        # malformed sweep pairs, each refused before any pair is searched
        ["sweep", "2", "5"],
        ["sweep", "2", "2,x"],
        ["sweep", "2", "5,3", "2,3,4"],
        ["sweep", "2", "1,3"],
        # a sweep over no region: k below 2, and a scan over its budget
        ["sweep", "1"],
        ["sweep", "300"],
        # a usage error that quotes an argument with a newline in it
        ["search", "2", "3", "2", "-x\ny"],
    ],
)
def test_malformed_input_exits_two_with_one_line(argv, tmp_path, capsys):
    spectrum_file = tmp_path / "spec.json"
    spectrum_file.write_text('[{"num":1,"den":0,"mult":1}]')
    deep_file = tmp_path / "deep.json"
    deep_file.write_text("[" * 100_000)
    over_budget_file = tmp_path / "over_budget.json"
    over_budget_file.write_text(json.dumps([{"num": 1, "den": 10**999 + 2 * i + 1, "mult": 1} for i in range(200)]))
    files = {"{spectrum_file}": spectrum_file, "{deep_file}": deep_file, "{over_budget_file}": over_budget_file}
    argv = [str(files.get(a, a)) for a in argv]
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


# Fuzzed command lines: inline configurations (JSON objects, or text that
# starts like one, so that it is never read as a path) and spectrum sources
# with rational or malformed bounds.  Small values run the real computation;
# large ones reach the budget refusals.
_numbers = st.integers(-3, 40) | st.integers(-(10**30), 10**30)
_words = st.text(max_size=12)
_germs = st.from_regex(r"[ADEJ][0-9]{1,3}(_[0-9]{1,2})?", fullmatch=True) | _words
_json = st.recursive(
    st.none() | st.booleans() | _numbers | st.floats() | _germs,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_words, inner, max_size=3),
    max_leaves=8,
)
_configs = st.one_of(
    st.fixed_dictionaries(
        {
            "n": st.integers(1, 5),
            "d": st.integers(1, 8),
            "germs": st.lists(st.sampled_from(["A1", "A2", "A5", "D4", "E6", "J2_1"]), max_size=4),
        }
    ).map(json.dumps),
    st.fixed_dictionaries(
        {},
        optional={
            "n": _numbers | _json,
            "d": _numbers | _json,
            "germs": st.lists(_germs, max_size=5) | _json,
        },
    ).map(json.dumps),
    st.dictionaries(_words, _json, max_size=4).map(json.dumps),
    _words.map(lambda text: "{" + text),
)
_sources = st.one_of(
    st.builds("germ:{}".format, _germs),
    st.builds("germ:{}:{}".format, _germs, _numbers | _words),
    st.builds("fermat:{}:{}".format, _numbers | _words, _numbers | _words),
)
_bounds = st.one_of(
    st.sampled_from(["-inf", "+inf", "inf", "-oo", "+oo"]),
    _numbers.map(str),
    st.builds("{}/{}".format, _numbers, _numbers),
    st.builds("{}e{}".format, _numbers, _numbers),
    _words,
)
_sides = st.sampled_from(["open", "closed"])
_command_lines = st.one_of(
    st.tuples(st.just("pol"), _configs.map("--config={}".format), st.just("--json")),
    st.tuples(
        st.just("check"),
        _configs.map("--config={}".format),
        st.sampled_from(["--json", "--no-open-variant"]),
    ),
    st.tuples(st.just("spectrum"), st.just("join"), _sources, _sources, st.just("--json")),
    st.tuples(
        st.just("deg"),
        _sources,
        _bounds.map("--from={}".format),
        _bounds.map("--to={}".format),
        _sides.map("--left={}".format),
        _sides.map("--right={}".format),
    ),
)


def _exits_zero_or_two_with_one_line(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        assert err == "", argv
    else:
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


@settings(max_examples=300, deadline=None)
@given(_command_lines)
def test_fuzzed_input_exits_zero_or_two_with_one_line(argv):
    _exits_zero_or_two_with_one_line(argv)


# Fuzzed search and region arguments: small or invalid n, d, k, random
# whitelist text, and filters to switch off drawn from the real names and
# random text.  Semicontinuity may be off too: an unpruned search that would
# list too many configurations is refused before it starts.
_small = st.integers(-1, 4).map(str)
_json_flag = st.sampled_from([(), ("--json",)])
_whitelists = st.lists(st.sampled_from("ADEJ") | _words, max_size=5).map(",".join)
_filter_names = st.sampled_from(["huh", "open-variant", "semicontinuity"]) | _words
_search_lines = st.builds(
    lambda n, d, k, whitelist, names, json_flag: (
        "search", n, d, k, *whitelist, *(f"--no-filter={name}" for name in names), *json_flag
    ),
    _small,
    _small,
    st.integers(-1, 3).map(str),
    st.just(()) | _whitelists.map(lambda text: (f"--whitelist={text}",)),
    st.lists(_filter_names, max_size=3),
    _json_flag,
)
_region_lines = st.builds(lambda k, json_flag: ("region", k, *json_flag), st.integers(-3, 60).map(str), _json_flag)
_sweep_lines = st.builds(
    lambda k, pairs: ("sweep", k, *pairs),
    st.integers(-1, 3).map(str),
    st.lists(st.builds("{},{}".format, _small, _small) | _words, max_size=2),
)


@settings(max_examples=200, deadline=None)
@given(_search_lines | _region_lines | _sweep_lines)
def test_fuzzed_search_and_region_exit_zero_or_two_with_one_line(argv):
    _exits_zero_or_two_with_one_line(argv)


@pytest.mark.parametrize(
    "source, field, bad",
    [("germ:A2:abc", "<vars>", "abc"), ("fermat:2:x", "<d>", "x"), ("fermat:y:3", "<n>", "y")],
)
def test_bad_spectrum_source_names_the_source_and_field(source, field, bad, capsys):
    code, _, err = invoke(capsys, "deg", source, "--from=-inf", "--to=+inf")
    assert code == 2
    assert err == f"error: bad spectrum source {source!r}: {field} must be an integer, got {bad!r}\n"


@pytest.mark.parametrize(
    "left, right",
    [("fermat:1:1000001", "fermat:1:1000001"), ("germ:A2", "fermat:1:1000001"), ("fermat:1:1001", "fermat:2:1002")],
)
def test_join_over_budget_builds_no_diagonal_germ(left, right, monkeypatch, capsys):
    # a fermat:n:d source has n(d-2)+1 distinct numbers: the pair budget is
    # checked on that count, so no diagonal-germ spectrum is ever built
    def refuse(n, d):
        raise AssertionError(f"fermat_spectrum({n}, {d}) built for an over-budget join")

    monkeypatch.setattr(specpol.catalog, "fermat_spectrum", refuse)
    code, out, err = invoke(capsys, "spectrum", "join", left, right)
    assert code == 2
    assert out == ""
    assert err.startswith("error: the join would sum ") and err.count("\n") == 1, err


def test_spectrum_file_and_stdin_sources(tmp_path, capsys):
    # the --json output of each catalog source, read back from a file and
    # from stdin (-): the join has the largest denominator, 97 * 23550
    path = tmp_path / "spec.json"
    for argv, total in [
        (("spectrum", "fermat", "2", "4"), 9),
        (("spectrum", "germ", "J50_7", "--vars=3"), 305),
        (("spectrum", "join", "germ:J50_7", "fermat:1:97"), 305 * 96),
    ]:
        code, text, _ = invoke(capsys, *argv, "--json")
        assert code == 0
        path.write_text(text)
        for source, stdin in ((str(path), sys.stdin), ("-", StringIO(text))):
            with mock.patch("sys.stdin", stdin):
                code, out, err = invoke(capsys, "deg", source, "--from=-inf", "--to=+inf")
            assert (code, out, err) == (0, f"{total}\n", ""), (argv, source)
    assert specpol.Spectrum.from_json(text).den == 97 * 23550


# Fuzzed spectrum files and stdin: drawn JSON, spectrum-like entry lists, and
# random bytes, through deg and join.
_entries = st.lists(
    st.fixed_dictionaries({}, optional={key: _numbers | _json for key in ("num", "den", "mult")}),
    max_size=4,
)
_spectrum_bytes = (_json | _entries).map(lambda obj: json.dumps(obj).encode()) | st.binary(max_size=64)


@settings(max_examples=150, deadline=None)
@given(_spectrum_bytes, _bounds, _bounds)
def test_fuzzed_spectrum_file_and_stdin_exit_zero_or_two_with_one_line(data, low, high):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_bytes(data)
        for source in (str(path), "-"):
            for argv in (
                ("deg", source, f"--from={low}", f"--to={high}"),
                ("spectrum", "join", source, "germ:A2", "--json"),
            ):
                with mock.patch("sys.stdin", TextIOWrapper(BytesIO(data), encoding="utf-8")):
                    _exits_zero_or_two_with_one_line(argv)


def test_python_dash_m_runs_from_a_checkout(capsys):
    # README's commands work as `python -m specpol ...` with only src on the path
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "specpol", "region", "2", "--json"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, out, _ = invoke(capsys, "region", "2", "--json")
    assert proc.stdout == out


def _into_a_closed_pipe(*argv):
    # stdout is a pipe whose reader is gone, as under `| head` once head exits
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "specpol", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        )
    finally:
        os.close(write_end)


def test_output_into_a_closed_pipe_stops_quietly():
    proc = _into_a_closed_pipe("search", "2", "5", "3")
    assert proc.stderr == ""
    assert proc.returncode not in (0, 2)


def test_sweep_into_a_closed_pipe_prints_no_traceback():
    proc = _into_a_closed_pipe("sweep", "2", "5,3")
    assert proc.stderr == ""
    assert proc.returncode not in (0, 2)


def test_unpruned_plane_search_at_k1_is_refused_by_the_configuration_budget(capsys):
    # huh keeps only the A classes at (2, d, 1), and the pool budget counts
    # those: 2,400 at (2,50,1), where the whole pool would have 483,598.
    # The configuration budget refuses the search instead.
    code, out, err = invoke(capsys, "search", "2", "50", "1", "--no-filter", "semicontinuity")
    assert (code, out) == (2, "")
    assert err == "error: the unpruned search would list more than 500000 configurations\n"


def test_readme_command_block_runs(capsys):
    # every `specpol ...` line of the README's command block, comment stripped;
    # a `# -> N` comment is the output the line must print
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("specpol ")]
    assert len(lines) >= 10
    for line in lines:
        code, out, err = invoke(capsys, *shlex.split(line, comments=True)[1:])
        assert code == 0 and err == "", (line, err)
        expected = re.search(r"# -> (\d+)$", line)
        if expected:
            assert out.strip() == expected.group(1), line


# One command line per path into the library: `region 2` is the only one that
# reaches lemma1_region_k2, and `region k` with k >= 3 the one that reaches
# dimension_excluded.
REACH_COMMANDS = [
    ["spectrum", "germ", "A2", "--vars", "4"],
    ["spectrum", "germ", "J2_4"],
    ["spectrum", "fermat", "5", "3"],
    ["spectrum", "join", "fermat:1:3", "{spectrum_file}"],
    ["deg", "germ:D5", "--from=-inf", "--to", "1"],
    ["pol", "--config", '{"n":3,"d":3,"germs":["E6"]}'],
    ["check", "--config", '{"n":2,"d":4,"germs":["A2","E6"]}'],
    ["search", "3", "3", "2"],
    ["region", "2"],
    ["region", "3"],
    ["verify-huh"],
]

# Exported functions that no subcommand calls, each kept for a reason.
LIBRARY_ONLY = {
    "huh_inequality_holds": "perfbench/spans.py traces it by name",
    "alpha1_threshold": "perfbench/spans.py traces it by name",
    "corank_curve": "test_implied_pool_filters_are_vacuous uses it",
    "sectional_milnor_plane": "huh_inequality_holds calls it; the search applies huh per family",
    "multiplicity_curve": "huh_inequality_holds calls it; the search applies huh per family",
    "make_spectrum": "a spectrum file is read over integer numerators; the tests build spectra with it",
    "germ_pool": "perfbench's pool_windows and check_batch list their pools with it; a search lists fields",
}


def _exported_functions() -> dict[str, object]:
    # curve_spectrum is an lru_cache wrapper: its code is the wrapped body
    functions = {}
    for name in dir(specpol):
        body = inspect.unwrap(getattr(specpol, name))
        if not name.startswith("_") and inspect.isfunction(body):
            functions[name] = body.__code__
    return functions


def test_every_operation_is_reachable(tmp_path, capsys):
    # Measured, not declared: every code object entered while the command
    # lines run.  A cached curve_spectrum would skip its body, so the cache
    # is cleared first.
    spectrum_file = tmp_path / "spec.json"
    spectrum_file.write_text(specpol.fermat_spectrum(1, 3).to_json())
    specpol.curve_spectrum.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    sys.setprofile(profile)
    try:
        for argv in REACH_COMMANDS:
            codes.append(run([a.replace("{spectrum_file}", str(spectrum_file)) for a in argv]))
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(REACH_COMMANDS)

    exported = _exported_functions()
    assert set(LIBRARY_ONLY) <= set(exported), "library-only names that specpol does not export"
    missing = sorted(
        name for name, code in exported.items() if code not in entered and name not in LIBRARY_ONLY
    )
    assert not missing, f"operations unreachable from any subcommand: {missing}"
    reached = sorted(name for name in LIBRARY_ONLY if exported[name] in entered)
    assert not reached, f"library-only operations reached by a subcommand: {reached}"
