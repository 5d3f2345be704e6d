#!/usr/bin/env python3
"""The specpol benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The library is used from the checkout's
``src`` directory; nothing is installed or built.  Each pass of a workload
runs in a fresh interpreter (one_pass.py), one pass at a time, because a
command-line user pays the cold ``curve_spectrum`` cache on every run.  The
seed draws the inputs and the op order; the same seed gives the same inputs.

Passes repeat until the next one would end after ``--seconds``, with a
workload-specific minimum number of passes.  Correctness gates are computed
before the first pass and checked after each one, outside every timed region:
an op that raises, returns a wrong result, or is not reached before the
pass's wall-clock limit counts as failed.

Every time is reported at the reference host speed: each pass runs bursts of
a fixed probe (hostspeed.py) between its ops and scales the ops' times by
how slow the probe ran around them, because the shared host's speed drifts
by more than the regression bounds over minutes.  The unscaled medians are
printed on the lines before the last.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics of the traced passes plus the tracing overhead.  Lines
before it give every metric by name and unit, the error rate, and how the
tail percentile was taken.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A pass cut off here counts its unreached ops as failed: a pruning regression
# that blows up (2,7) shows as failures instead of hanging the run.
PASS_LIMIT_S = 60.0
# No pass starts after this much of a run; keeps every run under three minutes.
RUN_LIMIT_S = 120.0
# Set-up-only interpreters started per run; setup_s is their median.
SETUP_PROBES = 10

K2_SWEEP_PAIRS = ((2, 3), (3, 3), (2, 4), (4, 3), (2, 5), (2, 6), (3, 4), (5, 3), (2, 7))
POOL_WINDOW_CASES = ((2, 11, 2), (7, 3, 3))
CHECKS_PER_PAIR = 20

END_TO_END = (
    ("pass_s", "s"),
    ("cpu_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("search.enumerate_configurations.self_s", "s", "lower"),
    ("search.examined", "count", "lower"),
    ("search.prunes", "count", "lower"),
    ("search.survivors", "count", "lower"),
    ("search.survivor_ratio", "ratio", "higher"),
    ("catalog.curve_spectrum.calls", "count", "lower"),
    ("catalog.curve_spectrum.built", "count", "lower"),
    ("catalog.curve_spectrum.self_s", "s", "lower"),
    ("catalog.germ_spectrum.calls", "count", "lower"),
    ("catalog.germ_spectrum.self_s", "s", "lower"),
    ("catalog.fermat_spectrum.self_s", "s", "lower"),
    ("spectrum.deg_window.calls", "count", "lower"),
    ("spectrum.deg_window.self_s", "s", "lower"),
    ("spectrum.add.calls", "count", "lower"),
    ("spectrum.add.self_s", "s", "lower"),
    ("semicontinuity.check_configuration.calls", "count", "lower"),
    ("semicontinuity.check_configuration.self_s", "s", "lower"),
    ("semicontinuity.window_test_points.self_s", "s", "lower"),
    ("semicontinuity.test_points", "count", "lower"),
    ("semicontinuity.holds_ratio", "ratio", "higher"),
    ("search.germ_pool.self_s", "s", "lower"),
    ("search.pool_classes", "count", "lower"),
    ("search.pool_pruned", "count", "higher"),
    ("polar.huh_inequality_holds.calls", "count", "lower"),
    ("polar.huh_inequality_holds.self_s", "s", "lower"),
    ("polar.polar_degree.calls", "count", "lower"),
    ("bounds.candidate_region.self_s", "s", "lower"),
    ("bounds.alpha1_threshold.calls", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class Workload:
    """Inputs and expected results of one workload for one seed.

    `ops` and `expected` are in a canonical order; each pass runs the ops in
    its own order, drawn from the seed and the pass number, so the cold
    caches that the first ops of a pass fill are not always paid by the same op.
    """

    kind: str
    min_passes: int
    regions: dict[int, tuple]  # k -> pairs that must lie in candidate_region(k)
    ops: list
    expected: list

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def job(self, pass_no: int) -> tuple[dict, list[int]]:
        """The child's job for one pass, and the canonical index of each op it runs."""
        order = list(range(len(self.ops)))
        random.Random(f"{self.seed}/{pass_no}").shuffle(order)
        job = {"kind": self.kind, "ops": [self.ops[j] for j in order], "region_ks": sorted(self.regions)}
        return job, order

    def failed_ops(self, records: dict, preludes: dict, order: list[int]) -> int:
        return sum(
            1 for i, j in enumerate(order)
            if "r" not in records.get(i, {}) or not self.correct(j, records[i]["r"], preludes)
        )

    def correct(self, j: int, result, preludes: dict) -> bool:
        return result == self.expected[j]

    # The tail is taken over each op's median latency across the passes, so a
    # stall of the shared host that hits one op sample cannot land in it.
    # With this many ops, ten op medians can lie beyond the tail; with fewer,
    # each op's median stands for each of its samples in a run of the minimum
    # pass count.
    TAIL_OVER_OP_MEDIANS = 100

    def tail_samples(self, per_op: dict[int, list[float]]) -> tuple[list[float], float, str]:
        """The tail's samples, and the highest percentile with at least ten of them beyond it.

        The percentile is fixed by the op count and the minimum pass count, so
        it does not move with the number of passes a run fits in.
        """
        medians = [statistics.median(v) for v in per_op.values()]
        if len(self.ops) >= self.TAIL_OVER_OP_MEDIANS:
            return medians, 1 - 10 / len(self.ops), "op medians"
        repeated = [m for m in medians for _ in range(self.min_passes)]
        return repeated, 1 - 10 / len(repeated), f"op medians, each counted {self.min_passes} times,"


class K2Sweep(Workload):
    kind = "sweep"
    min_passes = 3
    workers = 1

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.regions = {2: K2_SWEEP_PAIRS}
        pinned = json.loads((HERE / "survivors.json").read_text())
        self.ops = [["search", n, d, self.workers] for n, d in K2_SWEEP_PAIRS]
        self.ops.append(["verify", self.workers])
        self.expected = [pinned.get(f"{n},{d}", []) for n, d in K2_SWEEP_PAIRS] + [True]


class K2SweepPar(K2Sweep):
    workers = 2


class PoolWindows(Workload):
    kind = "pool_windows"
    min_passes = 3

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        import oracle
        from specpol import catalog, search

        self.regions = {}
        self.ops = []  # [case index, pool index]
        self.expected = []  # window counts
        self.preludes = {}  # (n, d, k) -> what the per-case set-up must report
        for case, (n, d, k) in enumerate(POOL_WINDOW_CASES):
            self.regions[k] = self.regions.get(k, ()) + ((n, d),)
            target = catalog.fermat_spectrum(n, d)
            windows = oracle.search_windows(oracle.test_points(target.support))
            pool = search.germ_pool(n, (d - 1) ** n - k)
            self.preludes[(n, d, k)] = {
                "windows": [[None if lo is None else str(lo), str(hi), ro] for lo, hi, ro in windows],
                "rhs": oracle.WindowCounter(windows).counts(target.entries),
                "pool": [str(g) for g in pool],
            }
            # a germ spectrum is its curve spectrum shifted up by (n-2)/2, so the
            # curve spectra (shared by both cases) are counted over shifted windows
            h = Fraction(n - 2, 2)
            counter = oracle.WindowCounter(
                [(None if lo is None else lo - h, hi - h, ro) for lo, hi, ro in windows]
            )
            for index, g in enumerate(pool):
                self.ops.append([case, index])
                self.expected.append(counter.counts(catalog.curve_spectrum(g.in_ambient(2)).entries))

    def job(self, pass_no: int) -> tuple[dict, list[int]]:
        job, order = super().job(pass_no)
        job["cases"] = POOL_WINDOW_CASES
        return job, order

    def correct(self, j: int, result, preludes: dict) -> bool:
        case = tuple(POOL_WINDOW_CASES[self.ops[j][0]])
        prelude = preludes.get(case, {})
        if any(prelude.get(field) != value for field, value in self.preludes[case].items()):
            return False
        return result == self.expected[j]


class CheckBatch(Workload):
    kind = "check_batch"
    min_passes = 3

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        import oracle
        from specpol import Configuration, bounds, catalog, search

        rng = random.Random(seed)
        pairs = sorted(bounds.candidate_region(2).pairs)
        self.regions = {2: tuple(pairs)}
        configs = []
        for n, d in pairs:
            target_mu = (d - 1) ** n - 2
            pool = sorted(search.germ_pool(n, target_mu), key=lambda g: (g.milnor, g.sort_key()))
            mus = [g.milnor for g in pool]
            for _ in range(CHECKS_PER_PAIR):
                germs, rest = [], target_mu
                while rest:
                    g = pool[rng.randrange(bisect_right(mus, rest))]
                    germs.append(g)
                    rest -= g.milnor
                configs.append(Configuration(n, d, tuple(germs)))
        configs += [config for _key, config, _pol in search.load_huh_lists()]
        self.ops = [c.to_json_obj() for c in configs]
        self.expected = [
            oracle.semicontinuity_holds(
                oracle.add_pairs(catalog.germ_spectrum(g).entries for g in c.germs),
                catalog.fermat_spectrum(c.n, c.d).entries,
            )
            for c in configs
        ]


WORKLOADS = {
    "k2_sweep": K2Sweep,
    "k2_sweep_par": K2SweepPar,
    "pool_windows": PoolWindows,
    "check_batch": CheckBatch,
}


def _stop_group(pgid: int) -> None:
    """Kill whatever is left of a pass's process group and give it time to go.

    Killed processes that nobody has reaped yet still answer signal 0, so
    the wait is bounded.
    """
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        time.sleep(0.05)
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return


def spawn_pass(payload: dict | None, limit_s: float) -> tuple[float, list[dict], bool, str]:
    """Run one_pass.py; returns (spawn time, its JSON lines, whether it was cut off, stderr).

    With no payload the interpreter only sets up and exits.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "one_pass.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, cwd=ROOT, text=True, start_new_session=True,
    )
    cut_off = False
    try:
        out, err = proc.communicate("" if payload is None else json.dumps(payload), timeout=limit_s)
    except subprocess.TimeoutExpired:
        cut_off = True
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    finally:
        _stop_group(proc.pid)
    lines = []
    for line in out.splitlines():
        try:
            lines.append(json.loads(line))
        except json.JSONDecodeError:  # the last line of a pass that was killed
            pass
    return spawned, lines, cut_off, err


def setup_probes(count: int) -> tuple[list[float], list[float]]:
    """Start `count` set-up-only interpreters; their set-up times, scaled and unscaled.

    Probe bursts as long as a set-up run in this process before and after
    each one: a set-up is short, and a shorter burst gauges the host too
    coarsely for it.
    """
    probe = hostspeed.Probe(share=1.0)
    probe.burst(0.2)
    scaled, raw = [], []
    for _ in range(count):
        spawned, lines, _cut, err = spawn_pass(None, PASS_LIMIT_S)
        if not lines or "setup_done" not in lines[0]:
            raise RuntimeError(f"set-up failed: {err.strip()[-2000:]}")
        raw.append(lines[0]["setup_done"] - spawned)
        probe.burst(raw[-1])
        scaled.append(probe.scale() * raw[-1])
    return scaled, raw


def run_pass(workload: Workload, pass_no: int, trace: bool, limit_s: float, inject: bool = False) -> dict:
    job, order = workload.job(pass_no)
    payload = dict(job, trace=trace, inject=inject)
    spawned, lines, cut_off, err = spawn_pass(payload, limit_s)
    ended = time.monotonic()
    if not lines or "setup_done" not in lines[0]:
        raise RuntimeError(f"pass failed to start: {err.strip()[-2000:]}")
    setup_done = lines[0]["setup_done"]
    records = {rec["i"]: rec for rec in lines if "i" in rec}
    factors = {i: rec["f"] for rec in lines if "seg" in rec for i in rec["seg"]}
    preludes = {tuple(rec["pair"]): rec for rec in lines if "pair" in rec}
    summary = next((rec for rec in lines if "pass_s" in rec), None)
    n_ops = len(order)
    failed = workload.failed_ops(records, preludes, order)
    problems = []
    if cut_off:
        problems.append(f"cut off after {limit_s:.0f} s")
    if summary is None:
        problems.append("no pass summary: " + err.strip()[-500:])
    else:
        for k, pairs in workload.regions.items():
            region = {tuple(p) for p in summary["regions"][str(k)]}
            if not region.issuperset(pairs):
                problems.append(f"candidate_region({k}) lost a benchmarked pair")
                failed = n_ops
        if trace and not summary.get("restored"):
            problems.append("traced functions were not all restored")
            failed = n_ops
    # an op whose segment never got its probe burst (a cut-off pass) takes the
    # pass's last factor, or none
    last_factor = next((rec["f"] for rec in reversed(lines) if "seg" in rec), 1.0)
    timed = {i: rec["s"] for i, rec in records.items() if "s" in rec}
    return {
        "pass_s": summary["ref_pass_s"] if summary else ended - setup_done,
        "cpu_s": summary and summary["ref_cpu_s"],
        "raw_pass_s": summary["pass_s"] if summary else ended - setup_done,
        "raw_cpu_s": summary and summary["cpu_s"],
        "probe_unit_s": summary["probe_unit_s"] if summary else [],
        "peak_rss_mb": summary and summary["peak_rss_mb"],
        "latencies": {order[i]: factors.get(i, last_factor) * s for i, s in timed.items()},
        "attempted": n_ops,
        "failed": failed,
        "problems": problems,
        "trace": summary if trace and summary else None,
    }


def run_passes(workload: Workload, seconds: float, traced: bool) -> list[dict]:
    """Passes until the next would end after `seconds`, at least the workload's minimum.

    With `traced`, untraced and traced passes alternate, starting untraced.
    """
    start = time.monotonic()
    passes: list[dict] = []
    last_wall = 0.0
    min_passes = 2 if traced else workload.min_passes
    while True:
        elapsed = time.monotonic() - start
        if passes and elapsed + last_wall > (seconds if len(passes) >= min_passes else RUN_LIMIT_S):
            break
        t0 = time.monotonic()
        trace = traced and len(passes) % 2 == 1
        passes.append(run_pass(workload, len(passes), trace, min(PASS_LIMIT_S, RUN_LIMIT_S + 30 - elapsed)))
        passes[-1]["traced"] = trace
        last_wall = time.monotonic() - t0
    return passes


def nearest_rank(values: list[float], p: float) -> tuple[float, int]:
    """Value at percentile p (0..1) by nearest rank, and the number of samples above that rank."""
    ordered = sorted(values)
    # rounded first, so that p = 1 - 10/30 of 30 samples is rank 20, not 21
    index = max(0, math.ceil(round(p * len(ordered), 9)) - 1)
    return ordered[index], len(ordered) - index - 1


def end_to_end(workload: Workload, passes: list[dict], setups: tuple[list, list]) -> tuple[dict, list[str]]:
    per_op: dict[int, list[float]] = {}
    for x in passes:
        for j, s in x["latencies"].items():
            per_op.setdefault(j, []).append(s)
    if not per_op:  # no op finished: the op that blew up took at least the cut-off pass
        per_op = {0: [x["pass_s"] for x in passes]}
    samples, pct, kind = workload.tail_samples(per_op)
    tail, beyond = nearest_rank(samples, pct)
    # passes cut off at the wall-clock limit report no CPU time, memory or probe
    # speed; if every pass was cut off the run still reports (and fails)
    done = [x for x in passes if x["cpu_s"] is not None] or [
        dict(x, cpu_s=x["pass_s"], raw_cpu_s=x["raw_pass_s"], peak_rss_mb=0.0) for x in passes
    ]
    values = {
        "pass_s": statistics.median(x["pass_s"] for x in passes),
        "cpu_s": statistics.median(x["cpu_s"] for x in done),
        # the sweeps' 10 ops form separate clusters; a median over all samples
        # would land on the slowest copy of one op, a median of op medians does not
        "op_p50_ms": 1000 * statistics.median(statistics.median(v) for v in per_op.values()),
        "op_tail_ms": 1000 * tail,
        "peak_rss_mb": statistics.median(x["peak_rss_mb"] for x in done),
        "setup_s": statistics.median(setups[0]),
    }
    units = [u for x in passes for u in x["probe_unit_s"]] or [hostspeed.REFERENCE_UNIT_S]
    notes = [
        f"op_tail_ms is p{100 * pct:.2f} by nearest rank: {beyond} of {len(samples)} {kind} lie beyond it",
        f"setup_s is the median of {len(setups[0])} fresh interpreters",
        f"times are scaled to a probe unit of {1000 * hostspeed.REFERENCE_UNIT_S:g} ms; the median unit "
        f"took {1000 * statistics.median(units):.4g} ms over {len(units)} bursts",
        "unscaled: pass_s {:.6g} s, cpu_s {:.6g} s, setup_s {:.6g} s".format(
            statistics.median(x["raw_pass_s"] for x in passes),
            statistics.median(x["raw_cpu_s"] for x in done),
            statistics.median(setups[1]),
        ),
    ]
    return values, notes


def per_layer(passes: list[dict]) -> tuple[dict, list[str]]:
    traced = [p for p in passes if p["traced"] and p["trace"]]
    plain = [p for p in passes if not p["traced"]]
    samples: dict[str, list[float]] = {name: [] for name, _u, _b in PER_LAYER}
    for p in traced:
        spans, counts = p["trace"]["spans"], p["trace"]["counts"]
        checks = spans["semicontinuity.check_configuration"][0]
        derived = dict(counts)
        derived["search.survivor_ratio"] = (
            counts["search.survivors"] / counts["search.examined"] if counts["search.examined"] else 0.0
        )
        derived["semicontinuity.holds_ratio"] = counts["semicontinuity.holds"] / checks if checks else 0.0
        # self times are scaled by the pass's own factor, like its pass_s
        factor = p["pass_s"] / p["raw_pass_s"]
        for label, (calls, self_s) in spans.items():
            derived[f"{label}.calls"] = calls
            derived[f"{label}.self_s"] = factor * self_s
        for name in samples:
            if name != "trace.overhead_frac":
                samples[name].append(derived[name])
    values = {name: statistics.median(v) for name, v in samples.items() if v}
    traced_s = statistics.median(p["pass_s"] for p in traced)
    plain_s = statistics.median(p["pass_s"] for p in plain)
    values["trace.overhead_frac"] = traced_s / plain_s - 1
    notes = [
        f"{len(traced)} traced and {len(plain)} untraced passes; "
        f"median pass_s {traced_s:.6g} s traced, {plain_s:.6g} s untraced"
    ]
    return values, notes


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = WORKLOADS[name](seed)
    setups = setup_probes(SETUP_PROBES)
    passes = run_passes(workload, seconds, traced)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if traced:
        values, notes = per_layer(passes)
        units = {n: u for n, u, _b in PER_LAYER}
        if name == "k2_sweep_par":
            notes.append("the trace covers the pass process only; its two search workers are not traced")
    else:
        values, notes = end_to_end(workload, passes, setups)
        units = dict(END_TO_END)
    print(f"# workload {name}, seed {seed}: {len(passes)} passes of {len(workload.ops)} ops")
    for metric, value in values.items():
        print(f"{metric} {value:.6g} {units[metric]}")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} ops failed)")
    for note in notes + [pr for p in passes for pr in p["problems"]]:
        print(f"# {note}")
    result = {
        "correct": failed == 0 and not any(p["problems"] for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
    print(json.dumps(result))
    sys.stdout.flush()
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "specpol" / "__init__.py").is_file():
        print(f"error: no specpol sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run_workload(name, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
