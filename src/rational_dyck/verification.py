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
length, its rank under both variants and its dinv, in enumeration order.
It is built by `statistics_summary`'s one pass, the helper in `stats`
that returns plain values: one dinv pass, whose sorted east levels the
skew inversions bisect into, and one pick of the north levels, which
gives both sl and the coarea, so the core rank (the area).
`bijectivity_report` finds each zeta and eta image in the pair's own
enumeration by its swept word, so it builds no image path, and compares
each path's skew length and dinv with its image's coarea and area, both
read off the table's area column; `sl_rank_generating` counts sl + rank
and `qt_catalan` counts (rank, (a-1)(b-1)/2 - sl).  The table is keyed
by the pair, never by a path, and only the last pair's is kept, so
memory grows with the largest pair's path count.  The enumerated paths
hold nothing past their words and levels: the maps keep only the last
sweep, and the statistics sort into lists that each call drops.  The
scan sweeps each path once for its zeta word and its eta word, and
iota's round trips read that same sweep.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate
from operator import add, sub

from . import maps
from .errors import (
    InconsistentPair,
    InexactDivision,
    InternalInvariantError,
    NotACycle,
    NotADyckPath,
)
from .inverse import iota
from .paths import (
    _TABLE_CACHE_SIZE,
    _Value,
    _check_coprime,
    _check_int,
    enumerate_paths,
    rational_catalan_number,
)
from .stats import _sl_coarea_dinv, path_rank

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
        _check_int("power", power, 0)
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
        _check_int("x", x)
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
    _check_int("n", n, 0)
    return QPolynomial((1,) * n)


def gaussian_binomial(n: int, k: int) -> QPolynomial:
    """q-binomial coefficient via the Pascal recurrence, on coefficient
    lists; zero for k outside 0..n.

    Each pass sets row[j] to row[j-1] + q^j * row[j], from the right, so
    that row[j-1] is still the previous pass's.
    """
    _check_int("n", n, 0)
    _check_int("k", k)
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


_RANK_VARIANTS = ("core", "path")


@lru_cache(maxsize=_TABLE_CACHE_SIZE, typed=True)  # as enumerate_paths: (2.0, 3) is not (2, 3)
def _path_statistics(a: int, b: int) -> tuple[list[int], dict[str, list[int]], list[int]]:
    """The skew length of every (a,b)-path, in enumeration order, its rank
    under each variant (the core rank is the area) and its dinv: the one
    pass of statistics that the checks of a pair share, off
    `statistics_summary`'s helper.  The columns are the lists they are
    built in, since a tuple copy would double them at the peak; the checks
    only read them.  Always called as `_path_statistics(a, b)`, so that
    each pair has one cache key."""
    paths = enumerate_paths(a, b)
    half = (a - 1) * (b - 1) // 2
    sls, areas, dinvs = [], [], []
    for path in paths:  # each triple is dropped at once: no table of triples
        sl, co, dv = _sl_coarea_dinv(path)
        sls.append(sl)
        areas.append(half - co)
        dinvs.append(dv)
    return sls, {"core": areas, "path": list(map(path_rank, paths))}, dinvs


def _sl_and_rank(a: int, b: int, rank_variant: str) -> tuple[list[int], list[int]]:
    if rank_variant not in _RANK_VARIANTS:
        raise ValueError(f"rank_variant must be one of {sorted(_RANK_VARIANTS)}: {rank_variant!r}")
    sls, ranks, _ = _path_statistics(a, b)
    return sls, ranks[rank_variant]


def sl_rank_generating(a: int, b: int, *, rank_variant: str = "core") -> QPolynomial:
    """Sum of q^(sl + rank) over all paths; rank is the core rank (= area)
    by default, the bounded-partition row count with rank_variant='path'."""
    counts = Counter(map(add, *_sl_and_rank(a, b, rank_variant)))
    return QPolynomial(tuple(counts[e] for e in range(max(counts) + 1)))


class QTPolynomial(_Value):
    """Sparse integer polynomial in q and t, keyed by (q-power, t-power),
    both non-negative: one term per key, sorted, each with a nonzero
    coefficient."""

    __match_args__ = ("terms",)

    def __init__(self, terms: tuple[tuple[tuple[int, int], int], ...]):
        sums: dict[tuple[int, int], int] = {}
        for (i, j), c in terms:
            if not type(i) is type(j) is type(c) is int:  # checked before a sum hides a bool
                raise ValueError(f"powers and coefficients must be integers: {terms}")
            if min(i, j) < 0:
                raise ValueError(f"powers must be non-negative: {terms}")
            sums[i, j] = sums.get((i, j), 0) + c
        self.__dict__.update(terms=tuple(sorted((k, c) for k, c in sums.items() if c)))

    @classmethod
    def from_exponent_pairs(cls, pairs) -> "QTPolynomial":
        return cls(tuple(Counter(pairs).items()))

    def swapped(self) -> "QTPolynomial":
        """Exchange the roles of q and t."""
        return QTPolynomial(tuple(((j, i), c) for (i, j), c in self.terms))

    def evaluate(self, q: int, t: int) -> int:
        _check_int("q", q)
        _check_int("t", t)
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
        _check_coprime(a, b)
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

    The enumeration, checked complete against the Catalan count, holds
    every image, so each image is found there by its swept word and no
    image path is built; its area is read off the pair's table.  One list
    keeps, for each image index, the word of the first path sent there.
    A word the enumeration lacks is a bug: InternalInvariantError.  A
    partner R of an image Q decodes under iota to the one path P'' with
    images (Q, R), and the enumeration holds P''; so counting the paths P
    with iota(zeta(P), eta(P)) == P counts each partner of each image
    once, and the counts equal those of a scan over all pairs (Q, R), even
    where fibres merge.
    """
    paths = enumerate_paths(a, b)
    if len(paths) != rational_catalan_number(a, b):
        raise InternalInvariantError(
            f"enumerated {len(paths)} ({a},{b})-paths, expected "
            f"{rational_catalan_number(a, b)}"
        )
    sls, ranks, dinvs = _path_statistics(a, b)
    areas = ranks["core"]
    half = (a - 1) * (b - 1) // 2
    index = {p.steps: i for i, p in enumerate(paths)}

    def image_index(word: str) -> int:
        i = index.get(word)
        if i is None:
            maps._image(a, b, word)  # a word that is not a path raises here
            raise InternalInvariantError(
                f"image {word} is an ({a},{b})-path the enumeration lacks"
            )
        return i

    first: list[str | None] = [None] * len(paths)
    collisions = []
    uniqueness: dict[str, int] | None = {} if unique_pair_scan else None
    sl_ok = True
    dinv_ok = True
    for p, sl, dv in zip(paths, sls, dinvs):
        i = image_index(maps._swept_word(p))
        if first[i] is None:
            first[i] = p.steps
        else:
            collisions.append((first[i], p.steps))
        if sl != half - areas[i]:  # the image's coarea
            sl_ok = False
        if dv != areas[i]:
            dinv_ok = False
        if uniqueness is not None:
            q = paths[i]
            try:
                found = iota(q, paths[image_index(maps._swept_word(p, True))]) == p
            except (NotACycle, NotADyckPath, InconsistentPair):
                found = False  # eta(p) is not a partner of q
            uniqueness[q.steps] = uniqueness.get(q.steps, 0) + found

    image_count = len(paths) - first.count(None)
    return BijectivityReport(
        a=a,
        b=b,
        path_count=len(paths),
        image_count=image_count,
        injective=image_count == len(paths),
        sl_transport_ok=sl_ok,
        dinv_transport_ok=dinv_ok,
        collisions=tuple(collisions),
        pair_uniqueness=uniqueness,
    )
