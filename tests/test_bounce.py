"""Predecessor chains, bounce paths, and the chain-based inverses."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import random
import re

import pytest

import rational_dyck as rd
from rational_dyck import bounce
from rational_dyck.bounce import fuss_delta_trace, search_delta_traces
from rational_dyck.cli import main
from rational_dyck.errors import (
    AreaZero,
    DimensionTooSmall,
    InternalInvariantError,
    NoEastInPrefix,
    NotFussCase,
)
from rational_dyck.paths import EAST

from conftest import (
    conjugated_by,
    coprime_pairs,
    cycle_lemma_path,
    rotation_cycle,
    search_preimage,
    zeta_predecessor_by_swap,
)


def delta_tilde(path):
    """Levels at most a*(k+1), the bounce-pinned lower bound for delta."""
    k = path.b // path.a
    bound = path.a * (k + 1)
    return sum(1 for v in path.reading_word() if v <= bound)


class TestConjPredecessor:
    def test_running_example_gamma_rotation(self, running):
        succ = rd.conj_predecessor(running)
        rho = rotation_cycle(13, 1, rd.delta(running))
        expected = conjugated_by(rd.gamma(running), rho.inverse())
        assert rd.gamma(succ) == expected

    def test_bottom_raises(self):
        # the area-0 path is its own conjugate, with no box to remove
        for a, b in [(3, 5), (1, 4), (5, 2)]:
            with pytest.raises(AreaZero):
                rd.conj_predecessor(rd.lowest_path(a, b))

    def test_a_bad_decode_is_a_bug(self, running, monkeypatch, capsys):
        # the cycle 1 -> 2 -> ... -> 13 -> 1 decodes to one east step; the
        # path is valid, so the failure is the algebraic route's, exit 3
        image = rd.zeta(running).steps
        monkeypatch.setattr(bounce, "_conjugate_by_head_inverse", lambda g, d: (*range(2, 14), 1))
        with pytest.raises(InternalInvariantError):
            rd.conj_predecessor(running)
        code = main(["invert", "--a", "5", "--b", "8", "--path", image, "--trace"])
        assert code == 3
        assert "decodes no path" in capsys.readouterr().err

    def test_chains_reach_lowest(self):
        for a, b in [(3, 5), (4, 5), (2, 7)]:
            for p in rd.enumerate_paths(a, b):
                current = p
                hops = 0
                while rd.area(current) > 0:
                    nxt = rd.conj_predecessor(current)
                    assert rd.skew_length(nxt) < rd.skew_length(current)
                    current = nxt
                    hops += 1
                    assert hops <= (a - 1) * (b - 1)
                assert current == rd.lowest_path(a, b)


class TestZetaPredecessor:
    def test_running_example(self, running):
        q = rd.zeta(running)
        assert rd.zeta_predecessor(q, rd.delta(running)).steps == "NNENEENENEEEE"

    def test_commuting_square(self):
        for a, b in coprime_pairs(12):
            for p in rd.enumerate_paths(a, b):
                if rd.area(p) == 0:
                    continue
                expected = rd.zeta(rd.conj_predecessor(p))
                assert rd.zeta_predecessor(rd.zeta(p), rd.delta(p)) == expected

    def test_moves_the_first_east_as_the_paper_swaps_and_rotates(self):
        # every path starts with N, so the swap-and-rotate moves the first
        # east of the prefix to its end; a prefix with no east is refused
        for a, b in coprime_pairs(12):
            for q in rd.enumerate_paths(a, b):
                first_east = q.steps.index(EAST)
                for d in range(1, first_east + 1):
                    with pytest.raises(NoEastInPrefix):
                        rd.zeta_predecessor(q, d)
                for d in range(first_east + 1, a + b + 1):
                    assert rd.zeta_predecessor(q, d) == zeta_predecessor_by_swap(q, d)

    def test_prefix_errors(self):
        q = rd.full_path(3, 4)  # NNNEEEE
        with pytest.raises(NoEastInPrefix):
            rd.zeta_predecessor(q, 2)
        # an all-east prefix cannot occur: every Dyck path starts with N,
        # so the all-north case is the only reachable prefix failure
        with pytest.raises(NoEastInPrefix):
            rd.zeta_predecessor(rd.DyckPath(1, 4, "NEEEE"), 1)

    def test_delta_range(self):
        q = rd.full_path(2, 3)
        with pytest.raises(ValueError):
            rd.zeta_predecessor(q, 0)
        with pytest.raises(ValueError):
            rd.zeta_predecessor(q, 6)

    @pytest.mark.parametrize("delta_value", (True, 2.0))
    def test_delta_that_is_not_an_int(self, delta_value):
        # True would run as 1 and 2.0 would slice; both are refused up front
        message = f"delta_value must be an int in 1..5, got {delta_value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            rd.zeta_predecessor(rd.full_path(2, 3), delta_value)


class TestInitialBounce:
    def test_needs_a_at_least_two(self):
        with pytest.raises(DimensionTooSmall):
            rd.initial_bounce(rd.lowest_path(1, 4))

    def test_23_values(self):
        b1 = rd.initial_bounce(rd.make_path(2, 3, "NENEE"))
        assert (b1.v, b1.h) == ((1, 1), (1,))
        b2 = rd.initial_bounce(rd.make_path(2, 3, "NNEEE"))
        assert (b2.v, b2.h) == ((2, 0), (2,))

    def test_vertex_walk_shape(self):
        bounce = rd.initial_bounce(rd.full_path(5, 8))
        assert bounce.vertices()[0] == (0, 0)
        assert len(bounce.v) == 5 // 5 + 1 or len(bounce.v) == 8 // 5 + 1

    def test_delta_tilde_equality(self):
        # the bounce length pins the count of levels at most a*(k+1)
        for a, b in coprime_pairs(12, min_dim=2):
            for p in rd.enumerate_paths(a, b):
                bounce = rd.initial_bounce(rd.zeta(p))
                assert delta_tilde(p) == bounce.v_total + bounce.h_total + 1

    def test_delta_window(self):
        for a, b in coprime_pairs(12, min_dim=2):
            r = b % a
            for p in rd.enumerate_paths(a, b):
                bounce = rd.initial_bounce(rd.zeta(p))
                low = bounce.v_total + bounce.h_total + 1
                assert low <= rd.delta(p) <= low + r - 1

    def test_fuss_window_is_tight(self):
        for a, b in [(2, 5), (3, 7), (4, 9), (2, 9)]:
            for p in rd.enumerate_paths(a, b):
                bounce = rd.initial_bounce(rd.zeta(p))
                assert rd.delta(p) == bounce.v_total + bounce.h_total + 1


class TestFussInverse:
    def test_not_fuss_rejected(self):
        with pytest.raises(NotFussCase):
            rd.zeta_inverse_fuss(rd.lowest_path(5, 8))

    def test_single_path_families(self):
        assert rd.zeta_inverse_fuss(rd.lowest_path(1, 6)) == rd.lowest_path(1, 6)
        assert rd.zeta_inverse_fuss(rd.lowest_path(4, 1)) == rd.lowest_path(4, 1)

    def test_round_trip_small(self):
        for a, b in [(2, 3), (2, 5), (3, 4), (3, 7), (4, 5), (4, 9), (5, 6)]:
            for p in rd.enumerate_paths(a, b):
                assert rd.zeta_inverse_fuss(rd.zeta(p)) == p

    def test_traces_each_image_once(self, monkeypatch):
        # the chain inverse walks each image's predecessor chain once
        calls = []

        def counted(path):
            calls.append(path)
            return fuss_delta_trace(path)

        monkeypatch.setattr(bounce, "fuss_delta_trace", counted)
        paths = [p for ab in [(3, 7), (4, 9)] for p in rd.enumerate_paths(*ab)]
        images = [rd.zeta(p) for p in paths]
        assert [rd.zeta_inverse_fuss(q) for q in images] == paths
        assert calls == images

    def test_a_failed_round_trip_is_a_bug(self, monkeypatch):
        # the bounce pins every delta, so a preimage that zeta does not send
        # to the image is the inverse's fault
        q = rd.zeta(rd.make_path(3, 7, "NNENEEEEEE"))
        monkeypatch.setattr(bounce, "_sends", lambda path, image: False)
        with pytest.raises(InternalInvariantError, match="round trip failed"):
            rd.zeta_inverse_fuss(q)

    def test_trace_of_lowest_image(self):
        # zeta(lowest) is the full path: the chain is already at its end
        assert fuss_delta_trace(rd.full_path(3, 4)) == ()
        assert rd.zeta_inverse_fuss(rd.full_path(3, 4)) == rd.lowest_path(3, 4)


class TestSearchInverse:
    def test_round_trip_desk_scale(self):
        # includes the wide-window b < a pairs; this is the slow test
        for a, b in coprime_pairs(13):
            for p in rd.enumerate_paths(a, b):
                assert search_preimage(rd.zeta(p))[0] == p

    def test_fuss_inputs_have_width_one_window(self):
        for p in rd.enumerate_paths(3, 7):
            q = rd.zeta(p)
            found, _ = search_delta_traces(q)
            assert [path for path, _ in found] == [p]
            assert found[0][1] == fuss_delta_trace(q)

    def test_accepted_traces_all_decode_to_the_preimage(self):
        # zeta is a bijection, so the scan of each window stops at the
        # first d whose decode verifies: every image yields exactly one
        # trace, and it decodes to the preimage
        for a, b in [(3, 5), (4, 5), (5, 4)]:
            for p in rd.enumerate_paths(a, b):
                found, _ = search_delta_traces(rd.zeta(p))
                assert len(found) == 1
                assert found[0][0] == p

    def test_bounce_off_the_grid_is_a_bug(self, running, monkeypatch):
        # on a valid path the bounce stays in the grid, so a walk that
        # leaves it is an internal error, not an image without preimage
        q = rd.zeta(running)
        monkeypatch.setattr(rd.DyckPath, "east_rows", lambda self: (self.a + 1,) * self.b)
        with pytest.raises(InternalInvariantError, match="bounce climb"):
            search_delta_traces(q)

    def test_a_window_where_no_d_verifies_is_a_bug(self, running, monkeypatch):
        # zeta is a bijection, so some d of every window verifies; with delta
        # patched to miss every d, the search reports a bug, not no preimage
        q = rd.zeta(running)
        monkeypatch.setattr(bounce, "delta", lambda path: 0)
        with pytest.raises(InternalInvariantError, match="no d in the bounce window"):
            search_delta_traces(q)

    def test_running_example(self, running):
        deltas = (5, 8, 10, 11, 12, 12)
        assert search_preimage(rd.zeta(running)) == (running, deltas)

    def test_long_chain_needs_no_interpreter_recursion(self):
        # the predecessor chain of a (120,241) image has over a thousand
        # steps, more than the interpreter's default recursion limit
        p = cycle_lemma_path(random.Random("search/120/241"), 120, 241)
        q = rd.zeta(p)
        found, _ = search_delta_traces(q)
        assert [path for path, _ in found] == [p]
        assert found[0][1] == fuss_delta_trace(q)

    def test_decodes_one_candidate_per_chain_step_when_fuss(self):
        for p in rd.enumerate_paths(4, 9):
            q = rd.zeta(p)
            found, attempts = search_delta_traces(q)
            assert attempts == len(found[0][1]) == len(fuss_delta_trace(q))


class TestPerCallSearchMemo:
    def test_every_call_starts_cold(self):
        # the memo lasts one call: a wide-window image (the first (17,13)
        # draw of Random(3), bounce window of width 13) costs the same
        # decodes every time it is inverted
        p = cycle_lemma_path(random.Random(3), 17, 13)
        q = rd.zeta(p)
        for _ in range(2):
            found, attempts = search_delta_traces(q)
            assert [path for path, _ in found] == [p]
            assert attempts == 4754


class TestCaches:
    def test_path_keyed_caches_are_bounded(self):
        # every cache of every module of the package, found where it is
        # defined and not where it is imported: a long-lived process must
        # keep neither every path nor every (a, b) table it was asked for.
        # A path keeps its own level data, so no cache is keyed by a path.
        caches = {}
        for info in pkgutil.iter_modules(rd.__path__):
            module = importlib.import_module(f"rational_dyck.{info.name}")
            caches.update(
                (f"{info.name}.{name}", fn)
                for name, fn in vars(module).items()
                if callable(getattr(fn, "cache_info", None))
                and fn.__module__ == module.__name__
            )
        path_keyed = {
            name
            for name, fn in caches.items()
            for param in inspect.signature(fn).parameters.values()
            if param.annotation in (rd.DyckPath, "DyckPath")
        }
        assert path_keyed == set()
        assert {"paths.enumerate_paths", "verification._path_statistics"} <= set(caches)
        for name, fn in caches.items():
            maxsize = fn.cache_parameters()["maxsize"]
            assert maxsize is not None and maxsize > 0, name
