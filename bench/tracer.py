"""Spans around the library's layer functions, for the traced runs only.

Each target function is replaced by a wrapper in every module of the
package that holds it under any name, so calls are seen where the calling
module looks them up (`verification.zeta`, `inverse.zeta`, `bounce.zeta`, as
well as `rational_dyck.zeta`).  A wrapper opens a span (id, parent span,
operation id, name, start, end); self time is a span's duration minus the
durations of its child spans.  Totals per function are kept as the spans
close, and the first spans of a round are kept whole for the trace file.

A target that a later version of the library no longer has is skipped, and
its metrics read 0.
"""

from __future__ import annotations

import gc
import json
import sys
from time import perf_counter_ns

# (metric prefix, module that defines it) per function name.
TARGETS = {
    "enumerate_paths": "paths",
    "make_path": "paths",
    "zeta": "zeta",
    "eta": "zeta",
    "lambda_partition": "zeta",
    "mu_partition": "zeta",
    "anderson": "cores",
    "area": "stats",
    "coarea": "stats",
    "skew_length": "stats",
    "dinv": "stats",
    "statistics_summary": "stats",
    "iota": "inverse",
    "zeta_inverse_detailed": "inverse",
    "search_delta_traces": "bounce",
    "zeta_inverse_fuss": "bounce",
    "zeta_predecessor": "bounce",
    "bijectivity_report": "verification",
    "sl_rank_generating": "verification",
    "qt_symmetry_check": "verification",
    "rational_q_catalan": "verification",
}

SPAN_CAP = 20_000


def _package_modules(package):
    prefix = package.__name__ + "."
    return [package] + [m for n, m in sorted(sys.modules.items()) if n.startswith(prefix)]


def _count_result(counters, name, result):
    if name == "enumerate_paths":
        counters["paths.enumerate_paths.paths"] += len(result)
    elif name == "search_delta_traces":
        found, attempts = result
        counters["bounce.search_delta_traces.leaf_decodes"] += attempts
        counters["bounce.search_delta_traces.preimages"] += len(found)


class Tracer:
    def __init__(self, package):
        modules = _package_modules(package)
        # every functools cache on the package's module functions, found
        # before any of them is wrapped
        self.caches = {
            id(v): v
            for m in modules
            for v in vars(m).values()
            if callable(getattr(v, "cache_info", None))
        }
        self.totals = {}  # name -> [calls, inclusive ns, self ns]
        self.counters = {
            "paths.enumerate_paths.paths": 0,
            "bounce.search_delta_traces.leaf_decodes": 0,
            "bounce.search_delta_traces.preimages": 0,
        }
        self.spans = []
        self._next_id = 1
        self._op = -1
        # frames of open spans: [span id, child ns]; the bottom one is a root
        self._stack = [[0, 0]]
        self.gc_collections = 0
        self.gc_pause_ns = 0
        self._gc_start = 0
        for name, module in TARGETS.items():
            fn = getattr(package, name, None)
            if fn is None:
                fn = getattr(sys.modules.get(f"{package.__name__}.{module}"), name, None)
            if fn is None:
                continue
            wrapper = self._wrap(f"{module}.{name}", name, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
        gc.callbacks.append(self._on_gc)

    def _wrap(self, key, name, fn):
        totals = self.totals.setdefault(key, [0, 0, 0])
        stack = self._stack
        spans = self.spans
        counters = self.counters
        counted = name in ("enumerate_paths", "search_delta_traces")

        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][0]
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                stack[-1][1] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, parent, self._op, key, start, end))
            if counted:
                _count_result(counters, name, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _on_gc(self, phase, info):
        if self._op < 0:
            return  # a collection between operations, such as in a reference pass
        if phase == "start":
            self._gc_start = perf_counter_ns()
        else:
            self.gc_collections += 1
            self.gc_pause_ns += perf_counter_ns() - self._gc_start

    def begin_op(self, index: int) -> None:
        self._op = index

    def end_op(self) -> None:
        self._op = -1

    def close(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def summary(self) -> dict:
        infos = [c.cache_info() for c in self.caches.values()]
        return {
            "functions": self.totals,
            "counters": self.counters,
            "caches": {
                "count": len(infos),
                "entries": sum(i.currsize for i in infos),
                "hits": sum(i.hits for i in infos),
                "misses": sum(i.misses for i in infos),
            },
            "gc": {"collections": self.gc_collections, "pause_ns": self.gc_pause_ns},
        }

    def write_spans(self, path: str) -> None:
        """One JSON object per span, in the order the spans closed."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, op, name, start, end in self.spans:
                out.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "op": op, "name": name,
                         "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )
