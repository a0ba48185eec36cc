"""One rule on integer arguments, found by walking the public surface.

Every parameter annotated ``int`` or ``int | None`` of a name in a module's
``__all__``, or of a public method of a class listed there, takes an int (a
bool is not one) inside its range, and raises ValueError or a DyckError for
anything else.  Under ``from __future__ import annotations`` each
annotation is its string, so the walk reads it off ``inspect.signature``.

CALLS holds one valid call per callable, and the walk must find exactly its
rows, so a new public callable with an int parameter fails here until it
has one.  Each int parameter then gets True, 2.0 and a value past its
range, one at a time, each right after the valid call, so that a cache
keyed on equal values cannot answer it.  A return fails, and so does any
other error: TypeError, IndexError, KeyError, ZeroDivisionError.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import rational_dyck as rd
from rational_dyck.errors import DyckError
from rational_dyck.paths import Partition, Permutation
from rational_dyck.verification import QPolynomial, QTPolynomial

RUNNING = rd.DyckPath(5, 8, "NNNENEEENEEEE")
KAPPA = rd.anderson(RUNNING)
PAIR, PAST_PAIR = {"a": 2, "b": 3}, {"a": 0, "b": 0}

# name -> (callable, a valid call's keywords, a value past the range of each
# int parameter that has one); a valid 2 meets the 2.0 that replaces it, so
# a cache keyed by equal values would answer the bad call
CALLS = {
    "bounce.zeta_predecessor": (
        lambda **kw: rd.zeta_predecessor(rd.full_path(2, 3), **kw),
        {"delta_value": 3},
        {"delta_value": 6},
    ),
    "cores.HookFilling": (rd.HookFilling, {"a": 3, "b": 5}, PAST_PAIR),
    "cores.HookFilling.value": (
        rd.hook_filling(3, 5).value, {"col": 2, "row": 2}, {"col": 5, "row": 3}
    ),
    "cores.CorePartition": (rd.CorePartition, {"parts": (), "a": 3, "b": 5}, PAST_PAIR),
    "cores.RowLengthFilling.value": (
        rd.row_length_filling(RUNNING).value, {"col": 2, "row": 2}, {"col": -1, "row": -1}
    ),
    "cores.hook_filling": (rd.hook_filling, {"a": 3, "b": 5}, PAST_PAIR),
    "cores.a_rows": (lambda **kw: rd.a_rows(KAPPA, **kw), {"m": 5}, {"m": 0}),
    "cores.a_columns": (lambda **kw: rd.a_columns(KAPPA, **kw), {"m": 5}, {"m": 0}),
    "cores.boundary_boxes": (lambda **kw: rd.boundary_boxes(KAPPA, **kw), {"m": 5}, {"m": 0}),
    "inverse.split_dims": (rd.split_dims, PAIR, PAST_PAIR),
    "inverse.level_point": (rd.level_point, {**PAIR, "level": 2}, {**PAST_PAIR, "level": 7}),
    "inverse.kth_valley_path": (rd.kth_valley_path, {**PAIR, "k": 1}, {**PAST_PAIR, "k": 2}),
    "inverse.chi_kth_valley": (rd.chi_kth_valley, {**PAIR, "k": 1}, {**PAST_PAIR, "k": 2}),
    "inverse.justified": (rd.justified, {"a": 3, "b": 5, "n": 2}, {**PAST_PAIR, "n": 5}),
    "maps.LaserFilling.value": (
        rd.laser_filling(RUNNING).value, {"col": 2, "row": 2}, {"col": -1, "row": -1}
    ),
    "paths.DyckPath": (rd.DyckPath, {**PAIR, "steps": "NENEE"}, PAST_PAIR),
    "paths.DyckPath.visits": (RUNNING.visits, {"x": 2, "y": 2}, {}),
    "paths.Partition.padded": (Partition((3, 1)).padded, {"length": 2}, {"length": 1}),
    "paths.Partition.arm": (Partition((3, 1)).arm, {"i": 0, "j": 2}, {"i": 2, "j": 3}),
    "paths.Partition.leg": (Partition((3, 1)).leg, {"i": 0, "j": 2}, {"i": 2, "j": 3}),
    "paths.Partition.hook": (Partition((3, 1)).hook, {"i": 0, "j": 2}, {"i": 2, "j": 3}),
    "paths.Permutation.__call__": (Permutation((2, 3, 1)), {"i": 2}, {"i": 4}),
    "paths.Permutation.from_cycle": (
        lambda **kw: Permutation.from_cycle((1, 2), **kw), {"n": 2}, {"n": 0}
    ),
    "paths.Permutation.cycle_from": (Permutation((2, 3, 1)).cycle_from, {"start": 2}, {"start": 4}),
    "paths.make_path": (rd.make_path, {**PAIR, "steps": "NENEE"}, PAST_PAIR),
    "paths.lowest_path": (rd.lowest_path, PAIR, PAST_PAIR),
    "paths.full_path": (rd.full_path, PAIR, PAST_PAIR),
    "paths.path_from_bounded_partition": (
        rd.path_from_bounded_partition, {**PAIR, "parts": (1,)}, PAST_PAIR
    ),
    "paths.path_from_hooks": (rd.path_from_hooks, {**PAIR, "hooks": (1,)}, PAST_PAIR),
    "paths.enumerate_paths": (rd.enumerate_paths, PAIR, PAST_PAIR),
    "paths.rational_catalan_number": (rd.rational_catalan_number, PAIR, PAST_PAIR),
    "verification.QPolynomial.monomial": (
        QPolynomial.monomial, {"power": 2, "coeff": 2}, {"power": -1}
    ),
    "verification.QPolynomial.evaluate": (QPolynomial((1, 1)).evaluate, {"x": 2}, {}),
    "verification.QTPolynomial.evaluate": (
        QTPolynomial((((1, 2), 1),)).evaluate, {"q": 2, "t": 3}, {}
    ),
    "verification.q_bracket": (rd.q_bracket, {"n": 2}, {"n": -1}),
    "verification.gaussian_binomial": (rd.gaussian_binomial, {"n": 2, "k": 1}, {"n": -1}),
    "verification.rational_q_catalan": (rd.rational_q_catalan, PAIR, PAST_PAIR),
    "verification.sl_rank_generating": (rd.sl_rank_generating, PAIR, PAST_PAIR),
    "verification.qt_catalan": (rd.qt_catalan, PAIR, PAST_PAIR),
    "verification.qt_symmetry_check": (rd.qt_symmetry_check, PAIR, PAST_PAIR),
    "verification.BijectivityReport": (
        rd.BijectivityReport,
        {
            **PAIR,
            "path_count": 2,
            "image_count": 2,
            "injective": True,
            "sl_transport_ok": True,
            "dinv_transport_ok": True,
        },
        PAST_PAIR,
    ),
    "verification.bijectivity_report": (rd.bijectivity_report, PAIR, PAST_PAIR),
}

# int parameters with no value past their range, each with its reason
NO_END = {
    ("paths.DyckPath.visits", "x"): "a point off the grid is not visited: False, not an error",
    ("paths.DyckPath.visits", "y"): "a point off the grid is not visited: False, not an error",
    ("verification.gaussian_binomial", "k"): "a k outside 0..n gives zero by convention",
    ("verification.QPolynomial.monomial", "coeff"): "every int is a coefficient",
    ("verification.QPolynomial.evaluate", "x"): "a polynomial takes every int",
    ("verification.QTPolynomial.evaluate", "q"): "a polynomial takes every int",
    ("verification.QTPolynomial.evaluate", "t"): "a polynomial takes every int",
}

# int parameters the rule does not cover at all, each with its reason
EXEMPT = {
    ("verification.BijectivityReport", "path_count"): "data the scan fills in, not an argument",
    ("verification.BijectivityReport", "image_count"): "data the scan fills in, not an argument",
}


def _public_callables():
    """(name, callable) for each name in a module's __all__, and each public
    method, or __call__, of a class listed there."""
    for info in pkgutil.iter_modules(rd.__path__):
        module = importlib.import_module(f"rational_dyck.{info.name}")
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            yield f"{info.name}.{name}", obj
            if inspect.isclass(obj):
                for member in vars(obj):
                    if not member.startswith("_") or member == "__call__":
                        yield f"{info.name}.{name}.{member}", getattr(obj, member)


def _int_parameters():
    """{name: its int-annotated parameter names} over the public surface."""
    found = {}
    for name, obj in _public_callables():
        if not callable(obj):  # a property
            continue
        params = inspect.signature(obj).parameters.values()
        ints = [p.name for p in params if p.annotation in ("int", "int | None")]
        if ints:
            found[name] = ints
    return found


INT_PARAMETERS = _int_parameters()
CASES = [
    (name, param)
    for name, params in INT_PARAMETERS.items()
    for param in params
    if (name, param) not in EXEMPT
]


def _refused(call, kwargs):
    """Fail unless the call raises ValueError or a DyckError."""
    try:
        result = call(**kwargs)
    except (ValueError, DyckError):
        return
    except Exception as exc:
        pytest.fail(f"{kwargs} raised {type(exc).__name__}: {exc}")
    pytest.fail(f"{kwargs} returned {result!r}")


def test_every_callable_with_an_int_parameter_has_a_row():
    assert sorted(INT_PARAMETERS) == sorted(CALLS)


def test_every_int_parameter_has_a_past_value_or_a_reason():
    for name, param in CASES:
        assert (param in CALLS[name][2]) != ((name, param) in NO_END), (name, param)
    assert set(NO_END) <= set(CASES)
    assert set(EXEMPT) <= {(name, p) for name, params in INT_PARAMETERS.items() for p in params}


@pytest.mark.parametrize("name, param", CASES, ids=[f"{n}:{p}" for n, p in CASES])
def test_a_bool_a_float_and_a_value_past_the_range_are_refused(name, param):
    call, valid, past = CALLS[name]
    assert set(INT_PARAMETERS[name]) <= set(valid)
    for value in (True, 2.0, past[param]) if param in past else (True, 2.0):
        call(**valid)  # a cache keyed by equal values would now hold this call
        _refused(call, {**valid, param: value})


def test_a_cached_pair_answers_no_bool_or_float():
    # the statistics table was cached untyped, so these calls returned the
    # answers for (2, 3), (1, 2) and (2, 3)
    for check, good, bad in (
        (rd.sl_rank_generating, (2, 3), (2.0, 3)),
        (rd.qt_catalan, (1, 2), (True, 2)),
        (rd.qt_symmetry_check, (2, 3), (2.0, 3)),
    ):
        check(*good)
        with pytest.raises(ValueError, match="a must be an int >= 1"):
            check(*bad)
