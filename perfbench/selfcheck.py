#!/usr/bin/env python3
"""Self-check of the benchmark; run from the root of a checkout.

    python3 perfbench/selfcheck.py

1. The brute-force counter of the gates agrees with `Spectrum.deg` on
   catalog and diagonal spectra, over every window shape the gates use.
2. The tracer rebinds every traced function and `restore` puts every
   original back.
3. The metric names and units that run.py prints, untraced and traced,
   match BENCHMARK.json.
4. An injected wrong result makes a pass's failed-op count non-zero: a
   dropped survivor (k2_sweep), a miscounted window (pool_windows) and a
   flipped verdict (check_batch).
5. Every op of a pass is scaled by the host probe, and no factor is absurd.

Prints one line per check and exits 1 if any fails.  Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

sys.path.insert(0, str(run.SRC))

import oracle  # noqa: E402
import spans  # noqa: E402
from specpol import GermClass, catalog, fermat_spectrum, germ_spectrum  # noqa: E402
from specpol.spectrum import NEG_INF  # noqa: E402

FAILURES: list[str] = []


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ok   {name}" if ok else f"FAIL {name}: {detail}")
    if not ok:
        FAILURES.append(name)


def check_counter() -> None:
    spectra = [fermat_spectrum(3, 4), fermat_spectrum(2, 11)]
    spectra += [germ_spectrum(GermClass(f, k, i, n)) for f, k, i, n in
                (("A", 7, 0, 2), ("D", 9, 0, 3), ("E", 13, 0, 2), ("J", 3, 4, 2), ("J", 2, 0, 7))]
    mismatches = 0
    for s in spectra:
        windows = oracle.search_windows(oracle.test_points(s.support))
        counted = oracle.WindowCounter(windows).counts(s.entries)
        for (lo, hi, right_open), n in zip(windows, counted):
            mismatches += n != s.deg(NEG_INF if lo is None else lo, hi, True, right_open)
            mismatches += n != oracle.count(s.entries, lo, hi, right_open)
    report("brute-force counts equal Spectrum.deg", mismatches == 0, f"{mismatches} mismatches")


def check_restore() -> None:
    tracer = spans.Tracer()
    tracer.install()
    wrapped = set(spans.wrapped_names())
    missing = [f"{m}.{f}" for m, f in spans.TRACED if f"{m}.{f}" not in wrapped]
    catalog.germ_spectrum(GermClass("A", 3, 0, 2))
    restored = tracer.restore()
    report("tracer rebinds every traced function", not missing, ", ".join(missing))
    report("tracer restores every rebound function", restored and not spans.wrapped_names(),
            ", ".join(spans.wrapped_names()))
    report("tracer saw the call made while installed", tracer.spans["catalog.germ_spectrum"][0] == 1)


def check_metric_names() -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "check_batch",
             "--seed", "1", "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, cwd=run.ROOT, check=True,
        ).stdout
        result = json.loads(out.strip().splitlines()[-1])
        printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
        wanted = [(m["name"], m["unit"]) for m in declared[key]]
        report(f"--trace {trace} prints the {key} metrics of BENCHMARK.json",
               sorted(printed) == sorted(wanted), f"printed {printed}")
        report(f"--trace {trace} run is correct", result["correct"] and result["failed"] == 0)
    report("run.py declares the per-layer directions of BENCHMARK.json",
           [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == list(run.PER_LAYER))
    report("BENCHMARK.json lists workloads run.py runs",
           {w["name"] for w in declared["workloads"]} <= set(run.WORKLOADS))


def check_injected_faults() -> None:
    for name in ("k2_sweep", "pool_windows", "check_batch"):
        workload = run.WORKLOADS[name](1)
        result = run.run_pass(workload, 0, False, run.PASS_LIMIT_S, inject=True)
        report(f"an injected wrong result fails {result['failed']} of {result['attempted']} ops of {name}",
               result["failed"] >= 1, "no op failed")


def check_scaling() -> None:
    workload = run.WORKLOADS["check_batch"](1)
    result = run.run_pass(workload, 0, False, run.PASS_LIMIT_S)
    report("every op of a pass is scaled by a probe burst", len(result["latencies"]) == result["attempted"],
           f"{len(result['latencies'])} of {result['attempted']} ops")
    factor = result["pass_s"] / result["raw_pass_s"]
    report("the pass's probe factor lies between 0.2 and 5", 0.2 < factor < 5, f"factor {factor:.3g}")


def main() -> int:
    check_counter()
    check_restore()
    check_metric_names()
    check_injected_faults()
    check_scaling()
    print(f"{len(FAILURES)} checks failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
