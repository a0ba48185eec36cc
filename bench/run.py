"""Benchmark of rational_dyck: four workloads, five end-to-end metrics, and a
traced run for the per-layer figures.

    python3 bench/run.py --workload map-large --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --quick

A run builds each round's inputs here (this file never imports the
library), hands the step strings to a fresh worker process per round
(worker.py), and checks every output against the definitions in
workloads.py once the round is over.  Set-up time is the median over
several fresh interpreters that import the library and parse the inputs.
Rounds are started until --seconds have passed.  With --trace 1 every
round is run twice, plain and traced, and the per-layer metrics are printed
instead of the end-to-end ones.  The last line of standard output is the
result as one JSON object; details go to bench/out/.

Every time is scaled to the reference speed of the host: a round's times
are multiplied by REF_PASS_S over the mean time of the reference passes the
worker ran between its operations (workloads.reference_pass, which never
calls the library).  A shared host's speed drifts by a third within minutes,
and library and reference pass drift together, so the scaled times hold
still while a change to the library still moves them in full.  The result
file keeps the unscaled figures as well.

--quick runs every workload at toy sizes, plain and traced, and then checks
that a deliberately wrong expected output is counted as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from workloads import TAIL, TAIL_SAMPLES, WORKLOADS, RoundMaker, check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 21
# The mean time of workloads.reference_pass on the reference machine (see
# README.md), so that scaled times read as times on that machine.
REF_PASS_S = 0.00125
RUN_LIMIT_S = 170  # a worker still running then is killed

END_TO_END = {
    "paths_per_s": "paths/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    # bytecode is written once and then read, so set-up time does not
    # include compiling the package
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(job: dict, deadline: float) -> tuple[float, dict | None, str]:
    """(set-up seconds, the worker's report or None, its stderr)."""
    with tempfile.TemporaryFile("w+", dir=OUT) as err:
        start = time.perf_counter()
        # -S: the machine's site-packages are not part of the library's set-up
        proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "worker.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=err,
            cwd=ROOT,
            env=worker_env(),
            text=True,
        )
        timer = threading.Timer(max(0.0, deadline - start), proc.kill)
        timer.start()
        try:
            try:
                proc.stdin.write(json.dumps(job))
                proc.stdin.close()
            except BrokenPipeError:
                pass  # the worker died early; its exit code and stderr say why
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest = proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        stderr = err.read()
    if ready.strip() != "ready" or proc.returncode != 0:
        return setup, None, stderr or f"worker exited with {proc.returncode}"
    return setup, (json.loads(rest) if rest.strip() else {}), stderr


def job(workload, inputs, *, trace=False, setup_only=False, spans_file=None) -> dict:
    return {
        "workload": workload,
        "inputs": inputs,
        "trace": trace,
        "setup_only": setup_only,
        "spans_file": spans_file,
    }


class Tally:
    """Operations attempted and failed, and the latency and throughput samples
    of the operations that did not fail."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.wrong = []  # outputs that disagree with the checks
        self.errors = []  # operations that raised
        self.broken = []  # rounds whose worker died: their outputs are unknown
        self.latency_ms = []
        self.paths = 0
        self.wall_s = 0.0
        self.raw_wall_s = 0.0
        self.scales = []  # per round: REF_PASS_S / mean reference pass
        self.rss_mb = []

    def add(self, report, stderr, expected, inputs, weights) -> list:
        """Check a round's report; returns the index of each failed operation."""
        self.attempted += len(inputs)
        if report is None:
            self.broken.append(stderr)
            self.failed += len(inputs)
            return list(range(len(inputs)))
        bad = []
        scale = host_scale(report["pass_s"])
        self.scales.append(scale)
        for i, out in enumerate(report["outputs"]):
            if "error" in out:
                self.errors.append(out["error"])
                bad.append(i)
                continue
            reason = check(self.workload, out, expected[i])
            if reason:
                self.wrong.append(reason)
                bad.append(i)
                continue
            self.latency_ms.append(report["latency_s"][i] * 1e3 * scale)
            self.paths += weights[i]
        self.failed += len(bad)
        self.wall_s += report["wall_s"] * scale
        self.raw_wall_s += report["wall_s"]
        self.rss_mb.append(report["rss_mb"])
        return bad

    @property
    def correct(self) -> bool:
        return not (self.wrong or self.broken)


def host_scale(pass_s: list[float]) -> float:
    """How much faster than usual the host ran while these passes did."""
    return REF_PASS_S * len(pass_s) / sum(pass_s)


def percentile(values, p: int) -> float:
    """Nearest-rank percentile: a measured value, not an interpolation."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def end_to_end(tally: Tally, setups: list[float]) -> dict:
    values = {
        "paths_per_s": tally.paths / tally.wall_s if tally.wall_s else 0.0,
        "latency_p50_ms": statistics.median(tally.latency_ms) if tally.latency_ms else 0.0,
        "latency_tail_ms": percentile(tally.latency_ms, TAIL) if tally.latency_ms else 0.0,
        "peak_rss_mb": statistics.median(tally.rss_mb) if tally.rss_mb else 0.0,
        "setup_s": statistics.median(setups),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


# ---------------------------------------------------------------------------
# Per-layer metrics, from the traced rounds


def per_layer(traces: list[dict], strategies: dict, plain_wall: float, traced_wall: float) -> dict:
    """Per round means of the traced rounds' counts and times, and ratios
    over all of them."""
    rounds = len(traces) or 1
    fn: dict[str, list[int]] = {}
    for t in traces:
        for name, (calls, total_ns, self_ns) in t["functions"].items():
            acc = fn.setdefault(name, [0, 0, 0])
            acc[0] += calls
            acc[1] += total_ns
            acc[2] += self_ns

    def calls(name):
        return fn.get(name, [0, 0, 0])[0] / rounds

    def self_ms(name):
        return fn.get(name, [0, 0, 0])[2] / 1e6 / rounds

    def us_per_call(name):
        c, total, _ = fn.get(name, [0, 0, 0])
        return total / 1e3 / c if c else 0.0

    def counter(name):
        return sum(t["counters"].get(name, 0) for t in traces)

    m = {}
    for name in ("paths.enumerate_paths", "zeta.zeta", "zeta.eta", "cores.anderson",
                 "inverse.iota", "inverse.zeta_inverse_detailed",
                 "bounce.search_delta_traces", "bounce.zeta_predecessor"):
        m[f"{name}.calls"] = (calls(name), "count", "lower")
    for name in ("paths.enumerate_paths", "paths.make_path", "zeta.zeta", "zeta.eta",
                 "zeta.lambda_partition", "zeta.mu_partition", "cores.anderson",
                 "stats.dinv", "stats.skew_length", "stats.area", "stats.coarea",
                 "inverse.iota", "inverse.zeta_inverse_detailed",
                 "bounce.search_delta_traces", "bounce.zeta_inverse_fuss",
                 "verification.bijectivity_report", "verification.sl_rank_generating",
                 "verification.qt_symmetry_check", "verification.rational_q_catalan"):
        m[f"{name}.self_ms"] = (self_ms(name), "ms", "lower")
    for name in ("zeta.zeta", "zeta.eta", "stats.dinv", "stats.statistics_summary",
                 "inverse.iota"):
        m[f"{name}.us_per_call"] = (us_per_call(name), "us", "lower")

    listed = counter("paths.enumerate_paths.paths")
    m["paths.enumerate_paths.us_per_path"] = (
        fn.get("paths.enumerate_paths", [0, 0, 0])[2] / 1e3 / listed if listed else 0.0,
        "us", "lower")
    decodes = counter("bounce.search_delta_traces.leaf_decodes")
    found = counter("bounce.search_delta_traces.preimages")
    m["bounce.search_delta_traces.leaf_decodes"] = (decodes / rounds, "count", "lower")
    m["bounce.search.decodes_per_preimage"] = (decodes / found if found else 0.0, "ratio", "lower")
    for s in ("square", "level1", "fuss", "search"):
        count, seconds = strategies.get(s, (0, 0.0))
        # a closed form used in place of the search is a gain
        m[f"inverse.strategy.{s}.count"] = (
            count / rounds, "count", "lower" if s == "search" else "higher")
        m[f"inverse.strategy.{s}.ms"] = (seconds * 1e3 / rounds, "ms", "lower")

    hits = sum(t["caches"]["hits"] for t in traces)
    lookups = hits + sum(t["caches"]["misses"] for t in traces)
    m["caches.entries"] = (sum(t["caches"]["entries"] for t in traces) / rounds, "count", "lower")
    m["caches.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio", "higher")
    m["gc.collections"] = (sum(t["gc"]["collections"] for t in traces) / rounds, "count", "lower")
    m["gc.pause_ms"] = (sum(t["gc"]["pause_ns"] for t in traces) / 1e6 / rounds, "ms", "lower")
    m["trace.overhead_ratio"] = (traced_wall / plain_wall if plain_wall else 0.0, "ratio", "lower")
    return m


# ---------------------------------------------------------------------------
# A run


def run(workload: str, seed: int, seconds: float, trace: bool, quick: bool = False,
        corrupt: bool = False) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    maker = RoundMaker(workload, seed, quick)
    first = maker.make(0)

    setups, raw_setups = [], []

    def probe() -> None:
        setup, report, stderr = run_worker(job(workload, first[0], setup_only=True), deadline)
        if report is None:
            raise SystemExit(f"set-up failed:\n{stderr}")
        raw_setups.append(setup)
        setups.append(setup * host_scale(report["pass_s"]))

    if not trace:
        probe()  # writes the bytecode; not timed

    tally = Tally(workload)
    traces, strategies = [], {}
    plain_wall = traced_wall = 0.0
    min_rounds = 1 if quick else -(-TAIL_SAMPLES // len(first[0]))
    start = time.perf_counter()
    index = 0
    while index < min_rounds or time.perf_counter() - start < seconds:
        if not trace:
            # set-up probes are spread over the run, so that their median
            # does not hang on one moment's load on the machine
            share = (time.perf_counter() - start) / seconds if seconds else 1
            while len(setups) < min(SETUP_PROBES, 1 + int(share * SETUP_PROBES)):
                probe()
        inputs, expected, weights = first if index == 0 else maker.make(index)
        if corrupt and index == 0:
            # map-large: a reversed zeta image starts with E, so it is never right
            expected = [[expected[0][0][::-1], expected[0][1]], *expected[1:]]
        _, report, stderr = run_worker(job(workload, inputs), deadline)
        tally.add(report, stderr, expected, inputs, weights)
        if trace and report is not None:
            spans = str(OUT / f"spans-{workload}-seed{seed}.jsonl") if index == 0 else None
            _, traced, stderr = run_worker(
                job(workload, inputs, trace=True, spans_file=spans), deadline)
            bad = tally.add(traced, stderr, expected, inputs, weights)
            if traced is not None:
                # scaled, since the two rounds ran at different moments
                plain_wall += report["wall_s"] * host_scale(report["pass_s"])
                traced_wall += traced["wall_s"] * host_scale(traced["pass_s"])
                traces.append(traced["trace"])
                if workload == "invert-mixed":
                    for i, out in enumerate(traced["outputs"]):
                        if i not in bad and "error" not in out:
                            count, secs = strategies.get(out[1], (0, 0.0))
                            strategies[out[1]] = (count + 1, secs + traced["latency_s"][i])
        index += 1
    while not trace and len(setups) < SETUP_PROBES:
        probe()

    if trace:
        layers = per_layer(traces, strategies, plain_wall, traced_wall)
        metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in layers.items()}
    else:
        metrics = end_to_end(tally, setups)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    for line in (tally.wrong + tally.errors + tally.broken)[:5]:
        print(f"{workload}: {line[:2000]}", file=sys.stderr)
    details = {
        **result,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "rounds": index,
        "tail_percentile": TAIL,
        "latency_samples": len(tally.latency_ms),
        "setup_samples_s": setups,
        "unscaled": {
            "paths_per_s": tally.paths / tally.raw_wall_s if tally.raw_wall_s else 0.0,
            "setup_s": statistics.median(raw_setups) if raw_setups else 0.0,
            "setup_samples_s": raw_setups,
        },
        "host_scale_per_round": tally.scales,
    }
    if not quick:
        name = f"result-{workload}-seed{seed}-trace{int(trace)}.json"
        (OUT / name).write_text(json.dumps(details, indent=1))
    return details


def quick() -> int:
    """Every workload at toy sizes, plain and traced, then the self-test."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            r = run(workload, 1, 0, trace, quick=True)
            good = r["correct"] and r["failed"] == 0 and r["metrics"]
            ok &= bool(good)
            print(f"{workload:13} trace={int(trace)} attempted={r['attempted']} "
                  f"failed={r['failed']} correct={r['correct']} "
                  f"metrics={len(r['metrics'])} {'ok' if good else 'FAIL'}")
    r = run("map-large", 1, 0, False, quick=True, corrupt=True)
    caught = r["failed"] == 1 and not r["correct"]
    print(f"self-test: a wrong expected path counted as failed={r['failed']}, "
          f"correct={r['correct']} {'ok' if caught else 'FAIL'}")
    return 0 if ok and caught else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="toy sizes and a self-test")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rational_dyck" / "__init__.py").is_file():
        print(f"no rational_dyck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.quick:
        return quick()
    if args.workload is None:
        parser.error("--workload is required unless --quick is given")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
