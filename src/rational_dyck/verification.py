"""Exact q- and q,t-polynomial arithmetic and the conjecture checkers.

Everything is integer arithmetic.  The rational q-Catalan polynomial
comes from the product formula: multiplying by 1 - q^m is one shifted
subtraction, and dividing by it exactly is a prefix sum along each
residue class mod m, whose remainder is checked to be zero.  Gaussian
binomials by the standard Pascal recurrence and long division by
[a+b]_q stay public as the route the tests hold it against.  The
checkers enumerate paths outright and report findings as data rather
than raising.

The statistics of each path are computed once per pair: a private table
keyed by (a, b), bounded like `enumerate_paths`, holds every path's skew
length and its rank under both variants, in enumeration order.
`bijectivity_report` reads the skew lengths off it, `sl_rank_generating`
counts sl + rank and `qt_catalan` counts (rank, (a-1)(b-1)/2 - sl).  The
table is keyed by the pair, never by a path, and only the last pair's is
kept.  `bijectivity_report` keeps image words, never image paths.  On a
2-vCPU host, `dyck verify --check all` runs every coprime pair with
a+b <= 18 in 0.7 s and 19.5 MB peak RSS, a+b <= 20 in 3.2 s and 24 MB,
and a+b <= 22 in 9.3 s and 38 MB (medians of three to six runs); the
largest pairs alone, (11,9) and (13,9), peak at 20 and 29 MB.  The enumerated
paths keep no view: `bijectivity_report` drops each path's sweep once
its checks are done, and the statistics sort into lists that each call
drops.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate
from operator import add, sub

from .errors import (
    InconsistentPair,
    InexactDivision,
    InternalInvariantError,
    NotACycle,
    NotADyckPath,
)
from .inverse import iota
from .maps import eta, zeta
from .paths import (
    _TABLE_CACHE_SIZE,
    _Value,
    _check_coprime,
    _drop_sweep,
    enumerate_paths,
    rational_catalan_number,
)
from .stats import coarea, core_rank, dinv, path_rank, skew_length

__all__ = [
    "QPolynomial",
    "QTPolynomial",
    "q_bracket",
    "gaussian_binomial",
    "rational_q_catalan",
    "sl_rank_generating",
    "qt_catalan",
    "qt_symmetry_check",
    "BijectivityReport",
    "bijectivity_report",
]


class QPolynomial(_Value):
    """Dense integer-coefficient polynomial in q, trailing zeros stripped."""

    __match_args__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        coeffs = tuple(coeffs)
        if not set(map(type, coeffs)) <= {int}:
            raise ValueError(f"coefficients must be integers: {coeffs}")
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        self.__dict__.update(coeffs=coeffs)

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls((1,))

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> "QPolynomial":
        if type(power) is not int:
            raise ValueError(f"power must be an integer: {power!r}")
        if power < 0:
            raise ValueError(f"negative power {power}")
        return cls((0,) * power + (coeff,))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return QPolynomial(
            tuple(
                (self.coeffs[i] if i < len(self.coeffs) else 0)
                + (other.coeffs[i] if i < len(other.coeffs) else 0)
                for i in range(n)
            )
        )

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        if not self or not other:
            return QPolynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci:
                for j, cj in enumerate(other.coeffs):
                    out[i + j] += ci * cj
        return QPolynomial(tuple(out))

    def evaluate(self, x: int) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def divide_exact(self, divisor: "QPolynomial") -> "QPolynomial":
        """Long division that must leave remainder zero."""
        if not divisor:
            raise ZeroDivisionError("division by the zero polynomial")
        rem = list(self.coeffs)
        lead = divisor.coeffs[-1]
        dn = len(divisor.coeffs)
        quot = [0] * max(len(rem) - dn + 1, 0)
        for i in range(len(rem) - dn, -1, -1):
            head = rem[i + dn - 1]
            if head % lead != 0:
                raise InexactDivision(f"{self.coeffs} not divisible by {divisor.coeffs}")
            q = head // lead
            quot[i] = q
            if q:
                for j, c in enumerate(divisor.coeffs):
                    rem[i + j] -= q * c
        if any(rem):
            raise InexactDivision(f"{self.coeffs} not divisible by {divisor.coeffs}")
        return QPolynomial(tuple(quot))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*q" if c != 1 else "q")
            else:
                terms.append(f"{c}*q^{i}" if c != 1 else f"q^{i}")
        return " + ".join(terms)


def q_bracket(n: int) -> QPolynomial:
    """[n]_q = 1 + q + ... + q^(n-1), zero for n = 0."""
    if type(n) is not int:
        raise ValueError(f"bracket index must be an integer: {n!r}")
    if n < 0:
        raise ValueError(f"negative bracket [{n}]_q")
    return QPolynomial((1,) * n)


def gaussian_binomial(n: int, k: int) -> QPolynomial:
    """q-binomial coefficient via the Pascal recurrence, on coefficient lists.

    Each pass sets row[j] to row[j-1] + q^j * row[j], from the right, so
    that row[j-1] is still the previous pass's.
    """
    if type(n) is not int or type(k) is not int:
        raise ValueError(f"n and k must be integers: {n!r}, {k!r}")
    if not 0 <= k <= n:
        return QPolynomial.zero()
    row: list[list[int]] = [[1]] + [[] for _ in range(k)]
    for _ in range(n):
        for j in range(k, 0, -1):
            low, high = row[j - 1], row[j]
            if high:
                low = low + [0] * (j + len(high) - len(low))
                for i, c in enumerate(high, start=j):
                    low[i] += c
            row[j] = low
    return QPolynomial(tuple(row[k]))


def _times_one_minus(coeffs: list[int], m: int) -> list[int]:
    """The coefficients of the polynomial times 1 - q^m."""
    out = coeffs + [0] * m
    out[m:] = map(sub, out[m:], coeffs)
    return out


def _over_one_minus(coeffs: list[int], m: int) -> list[int]:
    """The exact quotient by 1 - q^m: a prefix sum along each residue class
    mod m, whose top m entries are the remainder and must vanish."""
    out = list(coeffs)
    for r in range(m):
        out[r::m] = accumulate(out[r::m])
    if any(out[-m:]):
        raise InexactDivision(f"a degree-{len(coeffs) - 1} polynomial not divisible by 1 - q^{m}")
    return out[:-m]


def rational_q_catalan(a: int, b: int) -> QPolynomial:
    """qbinom(a+b, a) / [a+b]_q, exact when gcd(a, b) = 1.

    Built by the product formula: with n = a+b and k = min(a, b), qbinom(n,
    k) is the product over i = 1..k of (1 - q^(n-k+i)) / (1 - q^i), each
    partial product a polynomial, and [n]_q = (1 - q^n) / (1 - q).  Every
    division is exact and checked.
    """
    _check_coprime(a, b)
    n, k = a + b, min(a, b)
    coeffs = [1]
    for i in range(1, k + 1):
        coeffs = _over_one_minus(_times_one_minus(coeffs, n - k + i), i)
    return QPolynomial(tuple(_over_one_minus(_times_one_minus(coeffs, 1), n)))


_RANKS = {"core": core_rank, "path": path_rank}


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _path_statistics(a: int, b: int) -> tuple[tuple[int, ...], dict[str, tuple[int, ...]]]:
    """The skew length of every (a,b)-path, in enumeration order, and its
    rank under each variant: the one pass of statistics that the checks of
    a pair share.  Always called as `_path_statistics(a, b)`, so that each
    pair has one cache key."""
    paths = enumerate_paths(a, b)
    return (
        tuple(map(skew_length, paths)),
        {variant: tuple(map(fn, paths)) for variant, fn in _RANKS.items()},
    )


def _sl_and_rank(a: int, b: int, rank_variant: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if rank_variant not in _RANKS:
        raise ValueError(f"rank_variant must be one of {sorted(_RANKS)}: {rank_variant!r}")
    sls, ranks = _path_statistics(a, b)
    return sls, ranks[rank_variant]


def sl_rank_generating(a: int, b: int, *, rank_variant: str = "core") -> QPolynomial:
    """Sum of q^(sl + rank) over all paths; rank is the core rank (= area)
    by default, the bounded-partition row count with rank_variant='path'."""
    counts = Counter(map(add, *_sl_and_rank(a, b, rank_variant)))
    return QPolynomial(tuple(counts[e] for e in range(max(counts) + 1)))


class QTPolynomial(_Value):
    """Sparse integer polynomial in q and t, keyed by (q-power, t-power):
    one term per key, sorted, each with a nonzero coefficient."""

    __match_args__ = ("terms",)

    def __init__(self, terms: tuple[tuple[tuple[int, int], int], ...]):
        sums: dict[tuple[int, int], int] = {}
        for (i, j), c in terms:
            if not type(i) is type(j) is type(c) is int:  # checked before a sum hides a bool
                raise ValueError(f"powers and coefficients must be integers: {terms}")
            sums[i, j] = sums.get((i, j), 0) + c
        self.__dict__.update(terms=tuple(sorted((k, c) for k, c in sums.items() if c)))

    @classmethod
    def from_exponent_pairs(cls, pairs) -> "QTPolynomial":
        return cls(tuple(Counter(pairs).items()))

    def swapped(self) -> "QTPolynomial":
        """Exchange the roles of q and t."""
        return QTPolynomial(tuple(((j, i), c) for (i, j), c in self.terms))

    def evaluate(self, q: int, t: int) -> int:
        return sum(c * q**i * t**j for (i, j), c in self.terms)


def qt_catalan(a: int, b: int, *, rank_variant: str = "core") -> QTPolynomial:
    """Sum of q^rank t^(co-skew-length) over all paths."""
    sls, ranks = _sl_and_rank(a, b, rank_variant)
    half = (a - 1) * (b - 1) // 2
    return QTPolynomial.from_exponent_pairs(zip(ranks, [half - sl for sl in sls]))


def qt_symmetry_check(a: int, b: int, *, rank_variant: str = "core") -> bool:
    """Whether qt_catalan is symmetric in q and t: its exponent pairs,
    counted, equal their swaps counted."""
    sls, ranks = _sl_and_rank(a, b, rank_variant)
    half = (a - 1) * (b - 1) // 2
    cos = [half - sl for sl in sls]
    return Counter(zip(ranks, cos)) == Counter(zip(cos, ranks))


# ---------------------------------------------------------------------------
# Bijectivity telemetry


class BijectivityReport(_Value):
    """Findings of the exhaustive zeta scan on one dimension pair.

    The one mutable value type: fields can be assigned, and it has no hash.
    """

    __match_args__ = (
        "a",
        "b",
        "path_count",
        "image_count",
        "injective",
        "sl_transport_ok",
        "dinv_transport_ok",
        "collisions",
        "pair_uniqueness",
    )
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(
        self,
        a: int,
        b: int,
        path_count: int,
        image_count: int,
        injective: bool,
        sl_transport_ok: bool,
        dinv_transport_ok: bool,
        collisions: tuple[tuple[str, str], ...] = (),
        pair_uniqueness: dict[str, int] | None = None,
    ):
        self.a, self.b = a, b
        self.path_count, self.image_count = path_count, image_count
        self.injective = injective
        self.sl_transport_ok, self.dinv_transport_ok = sl_transport_ok, dinv_transport_ok
        self.collisions, self.pair_uniqueness = collisions, pair_uniqueness

    @property
    def ok(self) -> bool:
        if not (self.injective and self.sl_transport_ok and self.dinv_transport_ok):
            return False
        if self.pair_uniqueness is not None:
            return all(v == 1 for v in self.pair_uniqueness.values())
        return True

    def to_json(self) -> dict:
        data = {
            "a": self.a,
            "b": self.b,
            "paths": self.path_count,
            "images": self.image_count,
            "injective": self.injective,
            "sl_transport_ok": self.sl_transport_ok,
            "dinv_transport_ok": self.dinv_transport_ok,
            "collisions": [list(c) for c in self.collisions],
        }
        if self.pair_uniqueness is not None:
            data["pair_uniqueness"] = self.pair_uniqueness
        return data


def bijectivity_report(a: int, b: int, *, unique_pair_scan: bool = False) -> BijectivityReport:
    """Scan zeta over every path: injectivity, statistic transport, and
    optionally the per-image count of partners R accepted by iota.

    One pass over the paths keeps the word of the first path sent to each
    image word, never an image path.  A partner R of an image Q decodes
    under iota to the one path P'' with images (Q, R), and the enumeration
    (checked complete against the Catalan count) holds P''; so counting
    the paths P with iota(zeta(P), eta(P)) == P counts each partner of
    each image once, and the counts equal those of a scan over all pairs
    (Q, R), even where fibres merge.
    """
    paths = enumerate_paths(a, b)
    if len(paths) != rational_catalan_number(a, b):
        raise InternalInvariantError(
            f"enumerated {len(paths)} ({a},{b})-paths, expected "
            f"{rational_catalan_number(a, b)}"
        )
    sls, _ = _path_statistics(a, b)
    half = (a - 1) * (b - 1) // 2
    first: dict[str, str] = {}
    collisions = []
    uniqueness: dict[str, int] | None = {} if unique_pair_scan else None
    sl_ok = True
    dinv_ok = True
    for p, sl in zip(paths, sls):
        q = zeta(p)
        if q.steps in first:
            collisions.append((first[q.steps], p.steps))
        else:
            first[q.steps] = p.steps
        co = coarea(q)  # area(q) is half - co: one sum of q's north levels
        if sl != co:
            sl_ok = False
        if dinv(p) != half - co:
            dinv_ok = False
        if uniqueness is not None:
            try:
                found = iota(q, eta(p)) == p
            except (NotACycle, NotADyckPath, InconsistentPair):
                found = False  # eta(p) is not a partner of q
            uniqueness[q.steps] = uniqueness.get(q.steps, 0) + found
        _drop_sweep(p)  # the cached table keeps p, and nothing reads its sweep again

    return BijectivityReport(
        a=a,
        b=b,
        path_count=len(paths),
        image_count=len(first),
        injective=len(first) == len(paths),
        sl_transport_ok=sl_ok,
        dinv_transport_ok=dinv_ok,
        collisions=tuple(collisions),
        pair_uniqueness=uniqueness,
    )
