"""Inputs, reference computations and output checks for the benchmark.

Nothing here imports `rational_dyck`: the inputs are plain step strings and
every expected value is computed from the definitions, so a check never
compares the library against itself or against a stored copy of its output.

Each workload is a sequence of rounds.  A round is a fixed make-up of
operations (the same pairs and counts every time) whose random parts are
drawn from `random.Random(f"{workload}/{seed}/{round}")`.
"""

from __future__ import annotations

import math
import random

# ---------------------------------------------------------------------------
# Paths, from the definitions


def levels(a: int, b: int, steps: str) -> list[int]:
    """Level y*b - x*a of every lattice point, in path order."""
    out = [0]
    for s in steps:
        out.append(out[-1] + (b if s == "N" else -a))
    return out


def cycle_lemma_path(rng: random.Random, a: int, b: int) -> str:
    """A uniformly random (a,b)-Dyck path.

    Of the a+b rotations of a random word with a norths and b easts, exactly
    one stays weakly above the diagonal when gcd(a, b) = 1: the one that
    starts at the unique lowest point.
    """
    word = ["N"] * a + ["E"] * b
    rng.shuffle(word)
    lv = levels(a, b, word)
    start = lv.index(min(lv))
    return "".join(word[start:] + word[:start])


def all_paths(a: int, b: int) -> list[str]:
    """Every (a,b)-Dyck path, by depth-first extension of the step word."""
    out = []

    def extend(word: str, x: int, y: int) -> None:
        if x == b and y == a:
            out.append(word)
            return
        if y < a:
            extend(word + "N", x, y + 1)
        if x < b and a * (x + 1) <= b * y:
            extend(word + "E", x + 1, y)

    extend("", 0, 0)
    return out


def sweep_zeta(a: int, b: int, steps: str) -> str:
    """zeta: the steps re-ordered by the level of their start point, rising."""
    lv = levels(a, b, steps)
    return "".join(s for _, s in sorted(zip(lv, steps)))


def sweep_eta(a: int, b: int, steps: str) -> str:
    """eta: the steps re-ordered by the level of their end point, falling."""
    lv = levels(a, b, steps)
    return "".join(s for _, s in sorted(zip(lv[1:], steps), reverse=True))


def north_columns(steps: str) -> list[int]:
    cols, x = [], 0
    for s in steps:
        if s == "N":
            cols.append(x)
        else:
            x += 1
    return cols


def area(a: int, b: int, steps: str) -> int:
    """Boxes below the path and above the diagonal.

    In the row of the north step at column c0, the boxes are the columns
    col >= c0 with (col + 1) * a < row * b.
    """
    return sum(
        max(0, (row * b - 1) // a - col0) for row, col0 in enumerate(north_columns(steps))
    )


def coarea(steps: str) -> int:
    """Boxes above the path: one row of x boxes per north step at column x."""
    return sum(north_columns(steps))


def rank(steps: str) -> int:
    """Rows of the bounded partition, i.e. north steps not in column 0."""
    return sum(1 for c in north_columns(steps) if c > 0)


def delta(a: int, b: int, steps: str) -> int:
    """Reading-word levels (start points of steps) below a + b."""
    return sum(1 for v in levels(a, b, steps)[:-1] if v < a + b)


def catalan(a: int, b: int) -> int:
    return math.comb(a + b, a) // (a + b)


# ---------------------------------------------------------------------------
# The reference pass


PASS_PATHS = all_paths(5, 7)


def reference_pass() -> int:
    """About a millisecond of fixed pure-Python work, built from the
    definitions above: both reference images and four statistics of every
    (5,7)-Dyck path.

    The worker times it between operations.  It never calls the library, so
    its time moves only with the speed of the host, and the benchmark
    divides that speed out of its times (see run.py).
    """
    n = 0
    for p in PASS_PATHS:
        n += len(sweep_zeta(5, 7, p)) + len(sweep_eta(5, 7, p))
        n += area(5, 7, p) + coarea(p) + rank(p) + delta(5, 7, p)
    return n


# ---------------------------------------------------------------------------
# Workload definitions


WORKLOADS = ("verify-sweep", "map-large", "invert-mixed", "stats-large")

# latency_tail_ms is this percentile; a run holds at least TAIL_SAMPLES
# operations, so that ten or more lie beyond it.
TAIL = 95
TAIL_SAMPLES = 200

# Full sizes and the toy sizes of --quick.
SIZES = {
    False: {
        "verify_full": 13,  # every check, unique-pair scan included
        "verify_top": 16,  # counts, zeta-bijective, qcatalan, qt-symmetry
        "map_pairs": ((13, 21), (15, 23), (17, 25), (19, 28), (21, 31),
                      (23, 34), (25, 37), (27, 40), (29, 41)),
        "invert_general": ((4, 7), (5, 7), (5, 8)),
        "invert_special": tuple((n, n + 1) for n in range(9, 16))
        + tuple((a, 2 * a + 1) for a in range(5, 10)),
        "invert_per_pair": 8,
        # an odd number of pairs, so that the median latency falls inside
        # the middle pair's costs and not in the gap between two pairs
        "stats_pairs": ((61, 89), (67, 97), (73, 107), (83, 119), (89, 127),
                        (97, 139), (103, 149), (113, 163), (121, 173)),
        "stats_per_pair": 8,
    },
    True: {
        "verify_full": 8,
        "verify_top": 10,
        "map_pairs": ((5, 8), (7, 10)),
        "invert_general": ((3, 5), (4, 5)),
        "invert_special": ((4, 5), (3, 7)),
        "invert_per_pair": 2,
        "stats_pairs": ((11, 16), (13, 21)),
        "stats_per_pair": 2,
    },
}


def core_size(a: int, b: int, steps: str) -> int:
    """Boxes of the path's simultaneous core.

    The positive hooks are the levels of the boxes below the path and above
    the diagonal; the row with the i-th smallest hook h has h - i boxes.
    """
    hooks = sorted(
        row * b - (col + 1) * a
        for row, col0 in enumerate(north_columns(steps))
        for col in range(col0, (row * b - 1) // a)
    )
    return sum(h - i for i, h in enumerate(hooks))


# map-large draws, per pair and round, one path near each of these quantiles
# of the core size of a uniformly random path; each path lies within
# _WINDOW of quantile mass of its target.
CORE_QUANTILES = (0.125, 0.375, 0.625, 0.875)
_WINDOW = 0.05
_PILOT = 400


def _core_windows(a: int, b: int) -> list[tuple[int, int]]:
    """Core-size ranges around CORE_QUANTILES, from a fixed-seed pilot."""
    rng = random.Random(f"core-size/{a}/{b}")
    sample = sorted(core_size(a, b, cycle_lemma_path(rng, a, b)) for _ in range(_PILOT))
    return [
        (sample[int((q - _WINDOW) * _PILOT)], sample[int((q + _WINDOW) * _PILOT)])
        for q in CORE_QUANTILES
    ]


def _paths_by_core_size(rng, a, b, windows, seen) -> list[str]:
    """One new uniformly random path per core-size window, by rejection.

    The canonical zeta's cost follows the core size, which has a long tail:
    drawing freely, a few paths set the time of a whole run.  Drawing a path
    at each fixed quantile keeps the work of every round nearly the same
    while the paths themselves still change with the seed.
    """
    out = []
    for lo, hi in windows:
        while True:
            steps = cycle_lemma_path(rng, a, b)
            if steps not in seen and lo <= core_size(a, b, steps) <= hi:
                seen.add(steps)
                out.append(steps)
                break
    return out


class RoundMaker:
    """Builds the inputs and expected outputs of each round of a workload."""

    def __init__(self, workload: str, seed: int, quick: bool = False):
        self.workload = workload
        self.seed = seed
        self.size = SIZES[quick]
        if workload == "map-large":
            self.windows = {p: _core_windows(*p) for p in self.size["map_pairs"]}
        if workload == "invert-mixed":
            self.general = [
                (a, b, p) for a, b in self.size["invert_general"] for p in all_paths(a, b)
            ]

    def make(self, index: int) -> tuple[list, list, list[int]]:
        """(inputs for the worker, expected outputs, paths handled per op)."""
        rng = random.Random(f"{self.workload}/{self.seed}/{index}")
        return getattr(self, "_" + self.workload.replace("-", "_"))(rng)

    def _verify_sweep(self, rng):
        # the sweep is the same for every seed and round, like `dyck verify`
        full, top = self.size["verify_full"], self.size["verify_top"]
        pairs = [
            (a, s - a) for s in range(3, top + 1) for a in range(1, s) if math.gcd(a, s - a) == 1
        ]
        inputs = [[a, b, a + b <= full] for a, b in pairs]
        return inputs, inputs, [catalan(a, b) for a, b in pairs]

    def _map_large(self, rng):
        seen: set[str] = set()
        inputs = []
        for a, b in self.size["map_pairs"]:
            for steps in _paths_by_core_size(rng, a, b, self.windows[(a, b)], seen):
                inputs.append([a, b, steps])
        rng.shuffle(inputs)
        expected = [[sweep_zeta(a, b, s), sweep_eta(a, b, s)] for a, b, s in inputs]
        return inputs, expected, [1] * len(inputs)

    def _invert_mixed(self, rng):
        items = list(self.general)
        for a, b in self.size["invert_special"]:
            seen: set[str] = set()
            while len(seen) < min(self.size["invert_per_pair"], catalan(a, b)):
                seen.add(cycle_lemma_path(rng, a, b))
            items += [(a, b, p) for p in sorted(seen)]
        rng.shuffle(items)
        inputs = [[a, b, sweep_zeta(a, b, p)] for a, b, p in items]
        return inputs, [p for _, _, p in items], [1] * len(items)

    def _stats_large(self, rng):
        inputs = [
            [a, b, cycle_lemma_path(rng, a, b)]
            for a, b in self.size["stats_pairs"]
            for _ in range(self.size["stats_per_pair"])
        ]
        rng.shuffle(inputs)
        expected = [expected_stats(a, b, s) for a, b, s in inputs]
        return inputs, expected, [1] * len(inputs)


def expected_stats(a: int, b: int, steps: str) -> dict:
    image = sweep_zeta(a, b, steps)
    return {
        "area": area(a, b, steps),
        "coarea": coarea(steps),
        "rank": rank(steps),
        "delta": delta(a, b, steps),
        "dinv": area(a, b, image),
        "sl": coarea(image),
        "sl+slp": (a - 1) * (b - 1) // 2,
    }


# ---------------------------------------------------------------------------
# Checks: each returns None when the output is right, else a reason.


def check(workload: str, output, expected) -> str | None:
    if workload == "map-large":
        return None if output == expected else f"(zeta, eta) {output} != {expected}"
    if workload == "invert-mixed":
        return None if output[0] == expected else f"preimage {output[0]} != {expected}"
    if workload == "stats-large":
        got = {k: output[k] for k in ("area", "coarea", "rank", "delta", "dinv", "sl")}
        got["sl+slp"] = output["sl"] + output["slp"]
        return None if got == expected else f"statistics {got} != {expected}"
    return _check_verify(output, *expected)


def _check_verify(out: dict, a: int, b: int, full: bool) -> str | None:
    n = catalan(a, b)
    report = out["report"]
    if not (report["injective"] and report["sl_transport_ok"] and report["dinv_transport_ok"]):
        return f"({a},{b}) bijectivity report {report}"
    if (out["count"], out["catalan"], report["paths"], report["images"]) != (n, n, n, n):
        return f"({a},{b}) counts {out['count']}, {out['catalan']}, {report['paths']}, {report['images']} != {n}"
    if full:
        images = {sweep_zeta(a, b, p) for p in all_paths(a, b)}
        uniq = report.get("pair_uniqueness") or {}
        if set(uniq) != images or any(v != 1 for v in uniq.values()):
            return f"({a},{b}) pair uniqueness {uniq}"
    if out["qcat"] != out["slrank"] or sum(out["qcat"]) != n:
        return f"({a},{b}) q-Catalan {out['qcat']} vs {out['slrank']}"
    if out["qt"] is not True:
        return f"({a},{b}) q,t-symmetry fails"
    return None
