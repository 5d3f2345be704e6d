"""One benchmark pass, run by run.py in a fresh interpreter.

The interpreter starts with the checkout's ``src`` on PYTHONPATH, imports
specpol and loads the bundled reference lists: the set-up a command-line
user pays on every run.  It prints the monotonic time at which that
finished, then reads its job from stdin: the workload, its ops in seeded
order, and whether to trace or to inject a fault.  Each op's latency and
result go to stdout as one JSON line as soon as the op ends, so a pass cut
off at its wall-clock limit still reports the ops it reached.  The last line
carries the pass's wall time, CPU time (workers included), peak memory and,
for a traced pass, the spans.

Between ops the pass runs bursts of the host probe (hostspeed.py), and after
each burst it emits the factor that scales the ops timed since the burst
before to the reference host speed.  Only the calls are timed, never the
bursts or the output.

Library functions are always looked up on their module at call time, so the
tracer's and the fault injector's rebindings take effect.
"""

import json
import resource
import sys
import time
import types

import hostspeed
import specpol
import spans
from specpol import bounds, catalog, search, semicontinuity, spectrum


# Op time after which the pass runs a probe burst.
SEGMENT_S = 0.2


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def cpu_s() -> float:
    """CPU time of this process and of its reaped children (a pool's workers)."""
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + workers.ru_utime + workers.ru_stime


class Meter:
    """Times the pass's calls and scales them by the host probe.

    Calls are grouped into segments of at least SEGMENT_S; after each
    segment a probe burst runs, and the segment's times are scaled by the
    mean probe speed of the bursts on either side of it.
    """

    def __init__(self) -> None:
        self.probe = hostspeed.Probe()
        self.probe.burst(SEGMENT_S)
        self.segment: list[int] = []  # ops timed since the last burst
        self.busy_s = self.busy_cpu_s = 0.0
        self.totals = {"pass_s": 0.0, "cpu_s": 0.0, "ref_pass_s": 0.0, "ref_cpu_s": 0.0}

    def work(self, call, i=None):
        """Time call(); with an op index, an exception is returned, not raised."""
        cpu0 = cpu_s()
        start = time.perf_counter()
        try:
            value = call()
        except Exception as exc:  # an op that raises is a failed op, not a failed pass
            if i is None:
                raise
            value = exc
        elapsed = time.perf_counter() - start
        self.busy_cpu_s += cpu_s() - cpu0
        self.busy_s += elapsed
        if i is not None:
            self.segment.append(i)
        return value, elapsed

    def op(self, i: int, call, present) -> None:
        """Time op i; emit its latency and present(result), or the error it raised."""
        value, elapsed = self.work(call, i)
        if isinstance(value, Exception):
            emit({"i": i, "error": repr(value)})
        else:
            emit({"i": i, "s": elapsed, "r": present(value)})
        if self.busy_s >= SEGMENT_S:
            self.flush()

    def flush(self) -> None:
        self.probe.burst(self.busy_s)
        factor = self.probe.scale()
        emit({"seg": self.segment, "f": factor})
        for key, raw in (("pass_s", self.busy_s), ("cpu_s", self.busy_cpu_s)):
            self.totals[key] += raw
            self.totals["ref_" + key] += factor * raw
        self.segment = []
        self.busy_s = self.busy_cpu_s = 0.0


def curve_cache():
    """The cached `curve_spectrum`, under the tracer's wrapper if there is one."""
    cached = catalog.curve_spectrum
    while hasattr(cached, "perfbench_traced"):
        cached = cached.__wrapped__
    return cached


def run_sweep(job, meter: Meter) -> None:
    # Each op stands for one `specpol search` or `specpol verify-huh` run, so it
    # starts from a cold catalog cache; that also keeps an op's latency
    # independent of the ops the pass ran before it.
    cached = curve_cache()
    for i, op in enumerate(job["ops"]):
        cached.cache_clear()
        if op[0] == "search":
            _, n, d, workers = op
            meter.op(i, lambda: search.enumerate_configurations(n, d, 2, workers=workers),
                     lambda report: sorted(c.germ_strings() for c in report.survivors))
        else:
            meter.op(i, lambda: search.verify_huh_lists(workers=op[1]), lambda v: v.all_ok)


def pool_windows_case(n: int, d: int, k: int):
    """The set-up every search of (n, d, k) does before its first node: target windows and pool."""
    target = catalog.fermat_spectrum(n, d)
    windows = []
    for a in semicontinuity.window_test_points(spectrum.EMPTY, target):
        windows += [
            (a, a + 1, True, False),
            (spectrum.NEG_INF, a, True, False),
            (a, a + 1, True, True),
            (spectrum.NEG_INF, a, True, True),
        ]
    rhs = [spectrum.deg_window(target, *w) for w in windows]
    pool = search.germ_pool(n, (d - 1) ** n - k)
    emit({
        "pair": [n, d, k],
        "windows": [[None if lo == spectrum.NEG_INF else str(lo), str(hi), ro]
                    for lo, hi, _left_open, ro in windows],
        "rhs": rhs,
        "pool": [str(g) for g in pool],
    })
    return pool, windows


def run_pool_windows(job, meter: Meter) -> None:
    # A search builds each pool class's spectrum once, from a cold cache: the
    # classes of one pool have distinct curve spectra.  The two cases share
    # some, so every op starts from a cold cache, or an op's latency would
    # depend on whether the other case's op for the same curve came first.
    cases = [meter.work(lambda: pool_windows_case(*case))[0] for case in job["cases"]]
    cached = curve_cache()
    for i, (case, index) in enumerate(job["ops"]):
        pool, windows = cases[case]
        cached.cache_clear()

        def window_counts():
            s = catalog.germ_spectrum(pool[index])
            return [spectrum.deg_window(s, *w) for w in windows]

        meter.op(i, window_counts, lambda counts: counts)


def run_check_batch(job, meter: Meter) -> None:
    for i, config in enumerate(job["configs"]):
        meter.op(i, lambda: semicontinuity.check_configuration(config), lambda report: report.holds)


def inject_fault(kind: str) -> None:
    """Make the library return a wrong result, so the gates must see a failed op.

    The sweeps lose one survivor of every (2,4,2) search; the other workloads
    get one miscounted germ spectrum or one flipped verdict.
    """
    module, name = {
        "sweep": (search, "enumerate_configurations"),
        "pool_windows": (catalog, "germ_spectrum"),
        "check_batch": (semicontinuity, "check_configuration"),
    }[kind]
    original = getattr(module, name)
    calls = []

    def faulty(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(args)
        if kind == "sweep":
            if args[:3] == (2, 4, 2):
                return types.SimpleNamespace(survivors=result.survivors[1:])
        elif len(calls) == 1 and kind == "pool_windows":
            return result + spectrum.make_spectrum([(result.min_spectral(), 1)])
        elif len(calls) == 1:
            return types.SimpleNamespace(holds=not result.holds)
        return result

    setattr(module, name, faulty)


def main() -> None:
    search.load_huh_lists()
    emit({"setup_done": time.monotonic()})
    text = sys.stdin.read()
    if not text:  # a set-up probe
        return
    job = json.loads(text)
    kind = job["kind"]
    if kind == "check_batch":
        job["configs"] = [specpol.Configuration.from_json_obj(obj) for obj in job["ops"]]
    if job.get("inject"):
        inject_fault(kind)
    tracer = spans.Tracer() if job["trace"] else None
    if tracer:
        tracer.install()

    meter = Meter()
    regions, _s = meter.work(lambda: {k: sorted(bounds.candidate_region(k).pairs) for k in job["region_ks"]})
    {"sweep": run_sweep, "pool_windows": run_pool_windows, "check_batch": run_check_batch}[kind](job, meter)
    if meter.busy_s or meter.segment:
        meter.flush()
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)

    summary = dict(
        meter.totals,
        # ru_maxrss is in KiB on Linux; a pool's workers add the largest worker's peak
        peak_rss_mb=(own.ru_maxrss + workers.ru_maxrss) / 1024,
        probe_unit_s=meter.probe.unit_s,
        regions={str(k): v for k, v in regions.items()},
    )
    if tracer:
        summary["restored"] = tracer.restore()
        summary["spans"] = tracer.spans
        summary["counts"] = tracer.counts
    emit(summary)


if __name__ == "__main__":
    main()
