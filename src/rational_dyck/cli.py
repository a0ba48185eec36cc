"""Command-line interface: stats, map, invert, verify, render.

Exit codes: 0 success, 1 usage or parse error, 2 conjecture violation
(with a JSON witness on stdout), 3 internal cross-check disagreement or
any other internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bounce import conj_predecessor
from .errors import (
    DyckError,
    InternalInvariantError,
    MethodDisagreement,
    NoBoxToAdd,
    PathParseError,
)
from .inverse import chi, zeta_inverse_detailed
from .maps import _CONSTRUCTIONS, cross_check
from .paths import (
    DyckPath,
    conjugate,
    enumerate_paths,
    flip,
    make_path,
    rational_catalan_number,
    reverse,
)
from .render import OVERLAYS, RenderSpec, render
from .stats import delta, statistics_summary
from .verification import (
    bijectivity_report,
    qt_symmetry_check,
    rational_q_catalan,
    sl_rank_generating,
)

# the checks of `dyck verify`, in the order of its --check choices
_VERIFY_CHECKS = ("counts", "zeta-bijective", "qcatalan", "qt-symmetry", "unique-pair")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_DISAGREEMENT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad usage instead of argparse's 2
        raise _UsageError(message)


def _add_path_arguments(sub) -> None:
    sub.add_argument("--a", type=int, help="grid height")
    sub.add_argument("--b", type=int, help="grid width")
    sub.add_argument("--path", help="step string over N and E")
    sub.add_argument("--file", help="file with one 'a b steps' spec per line")
    sub.add_argument("--json", action="store_true", help="emit JSON output")


def _paths_from_args(args) -> list[DyckPath]:
    if args.file:
        if (args.a, args.b, args.path) != (None, None, None):
            raise _UsageError("--file cannot be combined with --a, --b or --path")
        out = []
        with open(args.file, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                fields = line.split()
                if len(fields) != 3:
                    raise _UsageError(f"{args.file}:{lineno}: expected 'a b steps'")
                try:
                    out.append(make_path(int(fields[0]), int(fields[1]), fields[2]))
                except (ValueError, DyckError) as exc:
                    raise _UsageError(f"{args.file}:{lineno}: {exc}")
        if not out:
            raise _UsageError(f"{args.file}: no path specs found")
        return out
    if args.a is None or args.b is None or args.path is None:
        raise _UsageError("need --a, --b and --path (or --file)")
    return [make_path(args.a, args.b, args.path)]


def _emit(records: list, as_json: bool, text_lines: list[str]) -> None:
    if as_json:
        payload = records[0] if len(records) == 1 else records
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_stats(args) -> int:
    records = []
    for path in _paths_from_args(args):
        records.append(statistics_summary(path))
    # stats output is the documented JSON schema regardless of --json
    _emit(records, True, [])
    return EXIT_OK


def _cmd_map(args) -> int:
    records = []
    lines = []
    for path in _paths_from_args(args):
        if args.map in ("zeta", "eta"):
            build = cross_check if args.method == "all" else _CONSTRUCTIONS[args.method]
            image = build(path)[("zeta", "eta").index(args.map)]
            record = image.to_json()
            if args.method == "all":
                record["methods_agree"] = True
            # lambda and mu are read off the image: lambda bounds zeta(P),
            # and mu is the conjugate of the partition that bounds eta(P)
            bounded = image.bounded_partition()
            if args.map == "zeta":
                record["lambda"] = list(bounded.padded(path.a).parts)
            else:
                record["mu"] = list(bounded.conjugate().padded(path.b).parts)
        else:
            fn = {"chi": chi, "conjugate": conjugate, "flip": flip, "reverse": reverse}[
                args.map
            ]
            record = fn(path).to_json()
        records.append(record)
        lines.append(record["steps"])
    _emit(records, args.json, lines)
    return EXIT_OK


def _delta_trace(path: DyckPath) -> list[int]:
    """delta of each path down the conjugate-predecessor chain from P, the
    trace the delta recursion decodes P from."""
    deltas = []
    while True:
        try:
            below = conj_predecessor(path)
        except NoBoxToAdd:
            return deltas
        deltas.append(delta(path))
        path = below


def _cmd_invert(args) -> int:
    records = []
    lines = []
    for path in _paths_from_args(args):
        result = zeta_inverse_detailed(path)
        record = result.path.to_json()
        record["strategy"] = result.strategy
        if args.trace:
            record["deltas"] = _delta_trace(result.path)
        records.append(record)
        line = f"{result.path.steps} (strategy={result.strategy})"
        if args.trace:
            line += f" deltas={json.dumps(record['deltas'])}"
        lines.append(line)
    _emit(records, args.json, lines)
    return EXIT_OK


def _coprime_pairs(max_sum: int):
    for total in range(3, max_sum + 1):
        for a in range(1, total):
            b = total - a
            if math.gcd(a, b) == 1:
                yield a, b


def _verify_pair(pair, checks, rank_variant):
    a, b = pair
    failures = []
    if "counts" in checks:
        if len(enumerate_paths(a, b)) != rational_catalan_number(a, b):
            failures.append({"check": "counts", "a": a, "b": b})
    if "zeta-bijective" in checks or "unique-pair" in checks:
        report = bijectivity_report(a, b, unique_pair_scan="unique-pair" in checks)
        if "zeta-bijective" in checks and not (
            report.injective and report.sl_transport_ok and report.dinv_transport_ok
        ):
            failures.append({"check": "zeta-bijective", **report.to_json()})
        if "unique-pair" in checks and any(
            v != 1 for v in (report.pair_uniqueness or {}).values()
        ):
            failures.append({"check": "unique-pair", **report.to_json()})
    if "qcatalan" in checks:
        f = rational_q_catalan(a, b)
        g = sl_rank_generating(a, b, rank_variant=rank_variant)
        if f != g:
            failures.append(
                {"check": "qcatalan", "a": a, "b": b, "f": list(f.coeffs), "g": list(g.coeffs)}
            )
    if "qt-symmetry" in checks:
        if not qt_symmetry_check(a, b, rank_variant=rank_variant):
            failures.append({"check": "qt-symmetry", "a": a, "b": b})
    return a, b, failures


def _cmd_verify(args) -> int:
    if args.max_sum < 3:  # (1,2) and (2,1) are the first pairs; (1,1) is never checked
        raise _UsageError(f"--max-sum must be at least 3, got {args.max_sum}")
    checks = set(_VERIFY_CHECKS) if args.check == "all" else {args.check}
    pairs = 0
    violations = []
    for pair in _coprime_pairs(args.max_sum):
        a, b, failures = _verify_pair(pair, checks, args.rank_variant)
        pairs += 1
        violations.extend(failures)
        if not args.json:  # each pair's line as it finishes, so a long run shows progress
            print(f"({a},{b}) {'FAIL' if failures else 'ok'}", flush=True)
    if violations:
        print(json.dumps({"violations": violations}))
        return EXIT_VIOLATION
    if args.json:
        print(json.dumps({"pairs": pairs, "checks": sorted(checks), "violations": []}))
    return EXIT_OK


def _cmd_render(args) -> int:
    overlays = tuple(s for s in (args.overlays or "").split(",") if s)
    spec = RenderSpec(format=args.format, overlays=overlays)
    for path in _paths_from_args(args):
        sys.stdout.write(render(path, spec))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="dyck", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="all statistics of a path, as JSON")
    _add_path_arguments(p_stats)
    p_stats.set_defaults(fn=_cmd_stats)

    p_map = sub.add_parser("map", help="apply zeta/eta/chi/conjugate/flip/reverse")
    _add_path_arguments(p_map)
    p_map.add_argument(
        "--map",
        required=True,
        choices=("zeta", "eta", "chi", "conjugate", "flip", "reverse"),
    )
    p_map.add_argument(
        "--method",
        default="sweep",
        choices=(*_CONSTRUCTIONS, "all"),
        help="construction to use for zeta/eta (default: the canonical sweep)",
    )
    p_map.set_defaults(fn=_cmd_map)

    p_inv = sub.add_parser("invert", help="find the zeta preimage of a path")
    _add_path_arguments(p_inv)
    p_inv.add_argument(
        "--trace",
        action="store_true",
        help="include the delta sequence of the preimage's predecessor chain",
    )
    p_inv.set_defaults(fn=_cmd_invert)

    p_ver = sub.add_parser("verify", help="run exhaustive desk-scale checks")
    p_ver.add_argument("--check", default="all", choices=(*_VERIFY_CHECKS, "all"))
    p_ver.add_argument("--max-sum", type=int, default=10, help="check all coprime a+b <= N, from a+b = 3")
    p_ver.add_argument("--rank-variant", default="core", choices=("core", "path"))
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(fn=_cmd_verify)

    p_ren = sub.add_parser("render", help="draw a path as ASCII or SVG")
    _add_path_arguments(p_ren)
    p_ren.add_argument("--format", default="ascii", choices=("ascii", "svg"))
    p_ren.add_argument(
        "--overlays",
        default="",
        help="comma-separated subset of " + ",".join(OVERLAYS),
    )
    p_ren.set_defaults(fn=_cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(f"dyck: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PathParseError as exc:
        print(f"dyck: parse error at offset {exc.offset}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (MethodDisagreement, InternalInvariantError) as exc:
        print(f"dyck: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    except (DyckError, ValueError, OSError) as exc:
        print(f"dyck: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
