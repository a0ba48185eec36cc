"""One round of a benchmark workload, in a fresh single-threaded interpreter.

Reads a JSON job on stdin, imports `rational_dyck` from the checkout's
`src`, parses the inputs through the public API and prints `ready`; that
moment ends set-up.  It then runs the round's operations, timing each, and
prints one JSON line with the latencies, their sum (the timed phase),
the peak resident set and the outputs as plain data.  Between operations,
after every PASS_EVERY_S of operation time, it times the benchmark's
reference pass (workloads.reference_pass), which tells run.py how fast the
host ran during the round; the report lists those times too.  A set-up
probe times only reference passes after `ready`.  With `"trace": true`
it first wraps the library's layer functions (see tracer.py) and also
reports the per-layer figures.

Run by run.py; not meant to be started by hand.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PASS_EVERY_S = 0.015
WARM_PASSES = 3  # the first passes in a fresh interpreter run slower
PROBE_PASSES = 10


def _verify_op(rd, item):
    """The battery of `dyck verify --check all` on one pair, in the verb's order;
    the unique-pair scan only when `full`."""
    a, b, full = item
    return {
        "count": len(rd.enumerate_paths(a, b)),
        "catalan": rd.rational_catalan_number(a, b),
        "report": rd.bijectivity_report(a, b, unique_pair_scan=full),
        "qcat": rd.rational_q_catalan(a, b),
        "slrank": rd.sl_rank_generating(a, b),
        "qt": rd.qt_symmetry_check(a, b),
    }


def _verify_plain(out):
    return {
        **out,
        "report": out["report"].to_json(),
        "qcat": list(out["qcat"].coeffs),
        "slrank": list(out["slrank"].coeffs),
    }


def operations(rd, workload):
    """(operation, conversion of its result to plain data) of a workload."""
    if workload == "verify-sweep":
        return (lambda item: _verify_op(rd, item)), _verify_plain
    if workload == "map-large":
        return (lambda p: (rd.zeta(p), rd.eta(p))), (lambda r: [r[0].steps, r[1].steps])
    if workload == "invert-mixed":
        return rd.zeta_inverse_detailed, (lambda r: [r.path.steps, r.strategy])
    if workload == "stats-large":
        return rd.statistics_summary, dict
    raise ValueError(f"unknown workload {workload!r}")


def main() -> int:
    job = json.loads(sys.stdin.read())
    sys.path.insert(0, str(ROOT / "src"))
    import rational_dyck as rd

    if Path(rd.__file__).resolve().parent != ROOT / "src" / "rational_dyck":
        print(f"imported {rd.__file__}, not the checkout's copy", file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer(rd)
    workload = job["workload"]
    if workload == "verify-sweep":
        items = [tuple(x) for x in job["inputs"]]
    else:
        items = [rd.make_path(a, b, steps) for a, b, steps in job["inputs"]]
    op, plain = operations(rd, workload)
    print("ready", flush=True)
    # imported after `ready`, so that set-up is the library's alone
    from workloads import reference_pass

    clock = time.perf_counter

    def timed_pass() -> float:
        t = clock()
        reference_pass()
        return clock() - t

    for _ in range(WARM_PASSES):
        reference_pass()
    if job["setup_only"]:
        print(json.dumps({"pass_s": [timed_pass() for _ in range(PROBE_PASSES)]}))
        return 0

    results, latency = [], []
    passes = [timed_pass()]
    since = 0.0  # operation time since the last pass
    for i, item in enumerate(items):
        if tracer:
            tracer.begin_op(i)
        t = clock()
        try:
            results.append(op(item))
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append(exc)
        latency.append(clock() - t)
        if tracer:
            tracer.end_op()
        since += latency[-1]
        # one pass per PASS_EVERY_S of operation time, at most 20 after one
        # long operation
        due = int(since / PASS_EVERY_S)
        passes += [timed_pass() for _ in range(min(due, 20))]
        since -= due * PASS_EVERY_S
    wall = sum(latency)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outputs = [
        {"error": repr(r)} if isinstance(r, Exception) else plain(r) for r in results
    ]
    report = {
        "wall_s": wall,
        "latency_s": latency,
        "pass_s": passes,
        "rss_mb": rss_mb,
        "outputs": outputs,
    }
    if tracer:
        tracer.close()
        report["trace"] = tracer.summary()
        if job["spans_file"]:
            tracer.write_spans(job["spans_file"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
