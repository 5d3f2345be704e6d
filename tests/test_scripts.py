"""The scripts under scripts/, run as a user runs them."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_run_eliminations_into_a_closed_pipe_prints_no_traceback():
    # stdout is a pipe whose reader is gone, as under `| head` once head exits
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "run_eliminations.py"), "5,3"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
    finally:
        os.close(write_end)
    # no traceback, nor anything else
    assert proc.stderr == "", proc.stderr


def _run_eliminations(*args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_eliminations.py"), *args],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )


def test_run_eliminations_reports_an_infeasible_pair_and_goes_on():
    # the default pairs are those of the k=2 region, (2,3) among them, which
    # is infeasible from k = 5 on ((d-1)^n = 4)
    proc = _run_eliminations("-k", "5")
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    lines = proc.stdout.splitlines()
    assert "(n=2, d=3, k=5)  infeasible: polar degree 5 exceeds (d-1)^n = 4" in lines
    # (2,3) comes first; the twelve pairs after it are still searched
    assert lines[0].startswith("(n=2, d=3, k=5)  infeasible")
    assert sum(line.startswith("(n=") for line in lines) == 13


def test_run_eliminations_malformed_pair_is_one_error_line():
    for args in (["5"], ["2,x"], ["5,3", "2,3,4"], ["1,3"]):
        proc = _run_eliminations(*args)
        assert proc.returncode == 2, args
        assert proc.stdout == "" and proc.stderr.count("\n") == 1, (args, proc.stderr)
        assert proc.stderr.startswith("error: "), (args, proc.stderr)
