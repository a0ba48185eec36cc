"""The value types: dataclass-style repr, equality, hash and immutability,
copies and pickles; an import that loads no heavy stdlib module, and a
package namespace that is exactly what its modules declare."""

from __future__ import annotations

import copy
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys

import pytest

import rational_dyck as rd
from rational_dyck.paths import Partition, Permutation
from rational_dyck.verification import QPolynomial, QTPolynomial

RUNNING = "NNNENEEENEEEE"

# (factory, fields in order, repr as a frozen dataclass printed it)
VALUES = {
    "Partition": (
        lambda: Partition((4, 2, 1, 0)),
        ("parts",),
        "Partition(parts=(4, 2, 1, 0))",
    ),
    "Permutation": (
        lambda: Permutation((2, 3, 1)),
        ("one_line",),
        "Permutation(one_line=(2, 3, 1))",
    ),
    "DyckPath": (
        lambda: rd.DyckPath(5, 8, RUNNING),
        ("a", "b", "steps"),
        "DyckPath(a=5, b=8, steps='NNNENEEENEEEE')",
    ),
    "HookFilling": (
        lambda: rd.hook_filling(2, 3),
        ("a", "b"),
        "HookFilling(a=2, b=3)",
    ),
    "CorePartition": (
        lambda: rd.anderson(rd.DyckPath(5, 8, RUNNING)),
        ("parts", "a", "b"),
        "CorePartition(parts=(6, 4, 3, 2, 2, 1, 1, 1, 1), a=5, b=8)",
    ),
    "InversionResult": (
        lambda: rd.zeta_inverse_detailed(rd.zeta(rd.DyckPath(5, 8, RUNNING))),
        ("path", "strategy"),
        "InversionResult(path=DyckPath(a=5, b=8, steps='NNNENEEENEEEE'), strategy='levels')",
    ),
    "IntervalGrid": (
        lambda: rd.interval_grid(rd.DyckPath(2, 3, "NENEE")),
        ("north_intervals", "east_intervals", "shaded"),
        "IntervalGrid(north_intervals=((0, 3), (1, 4)), "
        "east_intervals=((0, 2), (1, 3), (2, 4)), "
        "shaded=((False, False, False), (False, False, False)))",
    ),
    "BouncePath": (
        lambda: rd.initial_bounce(rd.DyckPath(2, 3, "NENEE")),
        ("v", "h"),
        "BouncePath(v=(1, 1), h=(1,))",
    ),
    "RenderSpec": (
        lambda: rd.RenderSpec("ascii", ["hooks", "levels"]),
        ("format", "overlays"),
        "RenderSpec(format='ascii', overlays=('hooks', 'levels'))",
    ),
    "QPolynomial": (
        lambda: QPolynomial((1, 0, 2, 0)),
        ("coeffs",),
        "QPolynomial(coeffs=(1, 0, 2))",
    ),
    "QTPolynomial": (
        lambda: QTPolynomial((((1, 0), 2), ((0, 1), 1))),
        ("terms",),
        "QTPolynomial(terms=(((0, 1), 1), ((1, 0), 2)))",
    ),
    "BijectivityReport": (
        lambda: rd.bijectivity_report(2, 3, unique_pair_scan=True),
        (
            "a",
            "b",
            "path_count",
            "image_count",
            "injective",
            "sl_transport_ok",
            "dinv_transport_ok",
            "collisions",
            "pair_uniqueness",
        ),
        "BijectivityReport(a=2, b=3, path_count=2, image_count=2, injective=True, "
        "sl_transport_ok=True, dinv_transport_ok=True, collisions=(), "
        "pair_uniqueness={'NENEE': 1, 'NNEEE': 1})",
    ),
}
FROZEN = [name for name in VALUES if name != "BijectivityReport"]


@pytest.mark.parametrize("name", VALUES)
class TestValueTypes:
    def test_repr_matches_the_dataclass_repr(self, name):
        make, _, golden = VALUES[name]
        value = make()
        assert type(value).__name__ == name and repr(value) == golden

    def test_match_args_keep_the_field_order(self, name):
        make, fields, _ = VALUES[name]
        value = make()
        cls = type(value)
        assert cls.__match_args__ == fields
        match value:
            case cls(first):
                assert first == getattr(value, fields[0])
            case _:
                pytest.fail("positional pattern did not match")

    def test_equal_fields_are_equal(self, name):
        make = VALUES[name][0]
        first, second = make(), make()
        assert first is not second and first == second and not first != second
        if name in FROZEN:
            assert hash(first) == hash(second)
        else:
            with pytest.raises(TypeError):
                hash(first)

    def test_other_classes_are_never_equal(self, name):
        value = VALUES[name][0]()
        for other_name, (make, _, _) in VALUES.items():
            if other_name != name:
                other = make()
                assert value != other and not value == other
                assert value.__eq__(other) is NotImplemented
        assert value.__eq__(object()) is NotImplemented

    def test_copy_and_pickle_give_an_equal_value(self, name):
        value = VALUES[name][0]()
        for twin in (copy.copy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)

    def test_fields_cannot_be_assigned_or_deleted(self, name):
        make, fields, golden = VALUES[name]
        value = make()
        if name not in FROZEN:
            setattr(value, fields[0], 99)
            assert getattr(value, fields[0]) == 99
            return
        for field in (*fields, "other"):
            with pytest.raises(AttributeError):
                setattr(value, field, 1)
            with pytest.raises(AttributeError):
                delattr(value, field)
        assert repr(value) == golden


def test_a_difference_in_any_field_is_unequal():
    assert rd.DyckPath(5, 8, RUNNING) != rd.DyckPath(5, 8, "NNNNNEEEEEEEE")
    assert Partition((2, 1)) != Partition((2, 1, 0))
    assert rd.hook_filling(2, 3) != rd.hook_filling(2, 5)
    assert rd.RenderSpec("ascii", ("hooks",)) != rd.RenderSpec("ascii")


def test_import_loads_no_heavy_stdlib_module():
    # dataclasses pulls in inspect, ast, dis and tokenize; typing is as slow
    heavy = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize")
    script = (
        "import sys\n"
        "import rational_dyck\n"
        "print(' '.join(sorted(sys.modules)))\n"
        "import rational_dyck.cli\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    src = os.path.dirname(os.path.dirname(rd.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    package, cli = (set(line.split()) for line in out.splitlines())
    assert "rational_dyck.cli" in cli
    assert not package & set(heavy) and not cli & set(heavy)


def test_the_package_exports_exactly_what_its_modules_declare():
    modules = {
        info.name: importlib.import_module(f"rational_dyck.{info.name}")
        for info in pkgutil.iter_modules(rd.__path__)
    }
    declared = [name for module in modules.values() for name in getattr(module, "__all__", ())]
    assert len(declared) == len(set(declared)), "two modules declare one name"
    public = {name for name in vars(rd) if not name.startswith("_")}
    submodules = {name for name in public if getattr(rd, name) is modules.get(name)}
    assert public - submodules == {*declared, "DyckError"}
    assert rd.__version__ == "0.1.0"
    for name, module in modules.items():
        for exported in getattr(module, "__all__", ()):
            assert getattr(rd, exported) is getattr(module, exported), (name, exported)
    # the function, not the module of the same name, is the package's `render`
    assert rd.render is modules["render"].render
    # the names the package once left out of its own list
    assert {"a_columns", "fuss_delta_trace", "search_delta_traces"} <= public
