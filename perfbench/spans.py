"""Layer tracing for the benchmark's traced passes.

`Tracer.install` wraps the public layer functions in `TRACED` and rebinds
each wrapper under every name in every loaded ``specpol`` module that held
the original, so calls made inside the library (``specpol.search`` calling
``deg_window``, ``Spectrum.__add__`` calling ``add``) are seen as well as the
benchmark's own.  Nothing under ``src/`` is edited; `Tracer.restore` puts the
originals back.

Spans are aggregated in memory per function (calls and self time) rather
than stored per call: `deg_window` alone runs about 400k times in one
``pool_windows`` pass.  Self time comes from span nesting: a span's duration
minus the durations of the traced spans it directly encloses.  Counts taken
from return values (configurations examined, pool sizes, test points,
verdicts) are kept next to the spans.

Only the process that installs the tracer is covered.  Search workers forked
by a process pool inherit the wrappers but their spans are never collected.
"""

from __future__ import annotations

import sys
import time

# (defining module, function) pairs the traced pass wraps.
TRACED = (
    ("specpol.search", "enumerate_configurations"),
    ("specpol.search", "germ_pool"),
    ("specpol.catalog", "curve_spectrum"),
    ("specpol.catalog", "germ_spectrum"),
    ("specpol.catalog", "fermat_spectrum"),
    ("specpol.spectrum", "deg_window"),
    ("specpol.spectrum", "add"),
    ("specpol.semicontinuity", "check_configuration"),
    ("specpol.semicontinuity", "window_test_points"),
    ("specpol.polar", "huh_inequality_holds"),
    ("specpol.polar", "polar_degree"),
    ("specpol.bounds", "candidate_region"),
    ("specpol.bounds", "alpha1_threshold"),
)

POOL_FILTERS = ("alpha1", "corank", "huh")


def _label(module: str, name: str) -> str:
    return f"{module.split('.')[-1]}.{name}"


class Tracer:
    def __init__(self) -> None:
        # label -> [calls, self seconds]
        self.spans: dict[str, list] = {_label(m, f): [0, 0.0] for m, f in TRACED}
        self.counts = {
            "search.examined": 0,
            "search.prunes": 0,
            "search.survivors": 0,
            "search.pool_pruned": 0,
            "search.pool_classes": 0,
            "semicontinuity.test_points": 0,
            "semicontinuity.holds": 0,
            "catalog.curve_spectrum.built": 0,
        }
        self._child_time = [0.0]
        self._bindings: list[tuple[object, str, object]] = []

    def _count_result(self, label: str, result) -> None:
        counts = self.counts
        if label == "search.enumerate_configurations":
            pruned = result.pruned_by_dict()
            counts["search.examined"] += result.examined
            counts["search.prunes"] += pruned["semicontinuity"]
            counts["search.survivors"] += len(result.survivors)
            counts["search.pool_pruned"] += sum(pruned[f] for f in POOL_FILTERS)
        elif label == "search.germ_pool":
            counts["search.pool_classes"] += len(result)
        elif label == "semicontinuity.window_test_points":
            counts["semicontinuity.test_points"] += len(result)
        elif label == "semicontinuity.check_configuration":
            counts["semicontinuity.holds"] += result.holds

    def _wrap(self, label: str, fn):
        span = self.spans[label]
        stack = self._child_time
        clock = time.perf_counter
        counted = label in (
            "search.enumerate_configurations",
            "search.germ_pool",
            "semicontinuity.window_test_points",
            "semicontinuity.check_configuration",
        )

        # an lru_cache'd function (curve_spectrum): count the calls that missed
        cache_info = getattr(fn, "cache_info", None)
        built = "catalog.curve_spectrum.built"

        def traced(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                span[0] += 1
                span[1] += elapsed - inner
            if counted:
                self._count_result(label, result)
            if cache_info:
                self.counts[built] += cache_info().misses - misses
            return result

        traced.perfbench_traced = True
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "specpol" or name.startswith("specpol."))
        ]
        for module_name, name in TRACED:
            original = getattr(sys.modules[module_name], name)
            wrapper = self._wrap(_label(module_name, name), original)
            for module in modules:
                if module.__dict__.get(name) is original:
                    setattr(module, name, wrapper)
                    self._bindings.append((module, name, original))

    def restore(self) -> bool:
        """Put every original back; True when no specpol module still holds a wrapper."""
        for module, name, original in reversed(self._bindings):
            setattr(module, name, original)
        self._bindings.clear()
        return not wrapped_names()


def wrapped_names() -> list[str]:
    """Names in loaded specpol modules that are bound to a tracing wrapper."""
    return [
        f"{module_name}.{name}"
        for module_name, module in list(sys.modules.items())
        if module is not None and (module_name == "specpol" or module_name.startswith("specpol."))
        for name, value in vars(module).items()
        if getattr(value, "perfbench_traced", False)
    ]
