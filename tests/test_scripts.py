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
