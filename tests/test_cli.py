"""The dyck command line: verbs, exit codes, JSON schemas, file input."""

from __future__ import annotations

import json

import pytest

import rational_dyck as rd
from rational_dyck import cli, inverse, verification
from rational_dyck.bounce import fuss_delta_trace
from rational_dyck.cli import main
from rational_dyck.errors import InternalInvariantError, NotACycle

from conftest import coprime_pairs, search_preimage


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestStats:
    def test_running_example(self, capsys):
        code, out, _ = run(capsys, "stats", "--a", "5", "--b", "8", "--path", "NNNENEEENEEEE")
        assert code == 0
        assert json.loads(out) == {
            "area": 9, "coarea": 5, "rank": 2, "sl": 10, "slp": 4, "dinv": 4, "delta": 5,
        }

    def test_lowest_path(self, capsys):
        code, out, _ = run(capsys, "stats", "--a", "3", "--b", "4", "--path", "NENENEE")
        assert code == 0 and json.loads(out)["area"] == 0

    def test_parse_error_exit_1(self, capsys):
        code, _, err = run(capsys, "stats", "--a", "2", "--b", "3", "--path", "NNX")
        assert code == 1 and "offset 2" in err

    def test_missing_arguments(self, capsys):
        code, _, err = run(capsys, "stats", "--a", "2")
        assert code == 1

    def test_file_input(self, capsys, tmp_path):
        spec_file = tmp_path / "paths.txt"
        spec_file.write_text("5 8 NNNENEEENEEEE\n2 3 NENEE\n")
        code, out, _ = run(capsys, "stats", "--file", str(spec_file))
        records = json.loads(out)
        assert code == 0 and len(records) == 2
        assert records[0]["sl"] == 10 and records[1]["area"] == 0


class TestMap:
    def test_zeta(self, capsys):
        code, out, _ = run(
            capsys, "map", "--a", "5", "--b", "8", "--path", "NNNENEEENEEEE",
            "--map", "zeta",
        )
        assert code == 0 and out.strip() == "NENENENENEEEE"

    def test_eta_json(self, capsys):
        code, out, _ = run(
            capsys, "map", "--a", "5", "--b", "8", "--path", "NNNENEEENEEEE",
            "--map", "eta", "--method", "all", "--json",
        )
        record = json.loads(out)
        assert code == 0
        assert record["steps"] == "NNENEENEEENEE"
        assert record["mu"] == [3, 2, 2, 1, 1, 1, 0, 0]

    @pytest.mark.parametrize("method", ("cores", "sweep", "laser", "intervals", "all"))
    def test_lambda_mu_fields_match_the_core_route(self, capsys, tmp_path, method):
        paths = rd.enumerate_paths(5, 8) + rd.enumerate_paths(4, 7)
        spec_file = tmp_path / "paths.txt"
        spec_file.write_text("".join(f"{p.a} {p.b} {p.steps}\n" for p in paths))
        for name, field, oracle in (
            ("zeta", "lambda", rd.lambda_partition),
            ("eta", "mu", rd.mu_partition),
        ):
            code, out, _ = run(
                capsys, "map", "--file", str(spec_file), "--map", name,
                "--method", method, "--json",
            )
            records = json.loads(out)
            assert code == 0 and len(records) == len(paths)
            for p, record in zip(paths, records):
                assert record[field] == list(oracle(p).parts)

    def test_zeta_of_full_40_61_is_lowest(self, capsys):
        code, out, _ = run(
            capsys, "map", "--a", "40", "--b", "61", "--path", "N" * 40 + "E" * 61,
            "--map", "zeta",
        )
        assert code == 0 and out.strip() == rd.lowest_path(40, 61).steps

    def test_conjugate_twice_is_identity(self, capsys):
        code, out, _ = run(
            capsys, "map", "--a", "5", "--b", "8", "--path", "NNNENEEENEEEE",
            "--map", "conjugate",
        )
        word = out.strip()
        code2, out2, _ = run(
            capsys, "map", "--a", "5", "--b", "8", "--path", word, "--map", "conjugate"
        )
        assert code == code2 == 0 and out2.strip() == "NNNENEEENEEEE"

    def test_flip_changes_dims(self, capsys):
        code, out, _ = run(
            capsys, "map", "--a", "5", "--b", "8", "--path", "NNNENEEENEEEE",
            "--map", "flip", "--json",
        )
        record = json.loads(out)
        assert code == 0 and (record["a"], record["b"]) == (8, 5)


class TestInvert:
    def test_running_example(self, capsys):
        code, out, _ = run(
            capsys, "invert", "--a", "5", "--b", "8", "--path", "NENENENENEEEE",
            "--json", "--trace",
        )
        record = json.loads(out)
        assert code == 0
        assert record["steps"] == "NNNENEEENEEEE"
        assert record["strategy"] == "levels"
        assert isinstance(record["deltas"], list)

    def test_trace_is_the_search_trace(self, capsys, tmp_path):
        # value iteration reports no deltas, so --trace walks the chain down
        # from the preimage; the delta search decodes from that trace
        images = [rd.zeta(p) for ab in ((5, 8), (8, 5)) for p in rd.enumerate_paths(*ab)]
        spec_file = tmp_path / "images.txt"
        spec_file.write_text("".join(f"{q.a} {q.b} {q.steps}\n" for q in images))
        code, out, _ = run(capsys, "invert", "--file", str(spec_file), "--trace", "--json")
        assert code == 0
        records = json.loads(out)
        assert {r["strategy"] for r in records} == {"levels"}
        for q, record in zip(images, records):
            path, deltas = search_preimage(q)
            assert record["steps"] == path.steps
            assert record["deltas"] == list(deltas)

    def test_strategy_flag_is_rejected(self, capsys):
        # there is one inverse, so --strategy is a usage error
        code, out, _ = run(capsys, "invert", "--a", "2", "--b", "3", "--path", "NENEE")
        assert (code, out) == (0, "NNEEE (strategy=levels)\n")
        code, out, err = run(
            capsys, "invert", "--a", "2", "--b", "3", "--path", "NENEE",
            "--strategy", "search",
        )
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --strategy search" in err

    def test_fuss_trace_text(self, capsys):
        # on a Fuss image the trace is the bounce-pinned chain's
        q = rd.make_path(3, 7, "NENENEEEEE")
        code, out, _ = run(
            capsys, "invert", "--a", "3", "--b", "7", "--path", q.steps, "--trace",
        )
        deltas = list(fuss_delta_trace(q))
        assert code == 0
        assert out == f"{rd.zeta_inverse_fuss(q).steps} (strategy=levels) deltas={deltas}\n"

    def test_file_batch_matches_one_call_per_path(self, capsys, tmp_path):
        # one --path call per image prints the records of one batch
        images = [rd.zeta(p) for p in rd.enumerate_paths(5, 8)]
        spec_file = tmp_path / "images.txt"
        spec_file.write_text("".join(f"5 8 {q.steps}\n" for q in images))
        code, out, _ = run(capsys, "invert", "--file", str(spec_file), "--trace", "--json")
        assert code == 0
        singles = []
        for q in images:
            code, one, _ = run(
                capsys, "invert", "--a", "5", "--b", "8", "--path", q.steps,
                "--trace", "--json",
            )
            assert code == 0
            singles.append(json.loads(one))
        assert json.loads(out) == singles

    def test_a_level_scan_fault_is_exit_3(self, capsys, monkeypatch, running):
        # a wrong answer from value iteration is a bug, not bad input (exit 1)
        monkeypatch.setattr(inverse, "_preimage_by_iteration", lambda q: running)
        code, out, err = run(capsys, "invert", "--a", "5", "--b", "8", "--path", "N" * 5 + "E" * 8)
        assert (code, out) == (3, "") and "non-preimage" in err


class TestVerify:
    def test_counts_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "counts", "--max-sum", "8")
        assert code == 0 and "(2,3) ok" in out

    @pytest.mark.parametrize("max_sum", ("2", "0", "-4"))
    def test_max_sum_below_3_is_a_usage_error(self, capsys, max_sum):
        # the pairs start at a+b = 3, so a smaller bound would check none
        for extra in ((), ("--json",)):
            code, out, err = run(capsys, "verify", "--max-sum", max_sum, *extra)
            assert (code, out) == (1, "") and "--max-sum" in err

    def test_max_sum_3_checks_the_first_pairs(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-sum", "3")
        assert (code, out) == (0, "(1,2) ok\n(2,1) ok\n")

    def test_each_pair_prints_as_it_finishes(self, capsys, monkeypatch):
        # a bug on the third pair leaves the first two pairs' lines on stdout
        done = []
        check = cli._verify_pair

        def third_pair_breaks(pair, checks, rank_variant):
            if len(done) == 2:
                raise InternalInvariantError("demo")
            done.append(pair)
            return check(pair, checks, rank_variant)

        monkeypatch.setattr(cli, "_verify_pair", third_pair_breaks)
        code, out, err = run(capsys, "verify", "--max-sum", "5")
        assert (code, out) == (3, "(1,2) ok\n(2,1) ok\n") and "demo" in err

    def test_all_checks_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--check", "all", "--max-sum", "7", "--json")
        record = json.loads(out)
        assert code == 0 and record["violations"] == []

    def test_rank_variant_path_yields_violation_witness(self, capsys):
        # with the bounded-partition rank the polynomial identity fails, so
        # this doubles as a live test of the exit-2 witness contract
        code, out, _ = run(
            capsys, "verify", "--check", "qcatalan", "--max-sum", "5",
            "--rank-variant", "path", "--json",
        )
        assert code == 2
        witness = json.loads(out.splitlines()[-1])
        assert witness["violations"] and witness["violations"][0]["check"] == "qcatalan"

    def test_battery_keeps_one_table_per_cache(self):
        # each pair's checks finish before the next pair's start, so the
        # pair-keyed caches need not keep a pair that the sweep has left
        checks = {"counts", "zeta-bijective", "qcatalan", "qt-symmetry", "unique-pair"}
        caches = (rd.enumerate_paths, verification._path_statistics)
        for a, b in [(3, 5), (5, 3), (4, 5), (5, 4), (2, 7), (7, 2)]:
            assert cli._verify_pair((a, b), checks, "core") == (a, b, [])
            assert all(c.cache_info().currsize <= 1 for c in caches)

    def test_method_disagreement_exit_3(self, capsys, monkeypatch):
        import rational_dyck.cli as cli
        from rational_dyck.errors import MethodDisagreement

        def broken(path):
            raise MethodDisagreement("zeta(demo)", {"cores": "x", "sweep": "y"})

        monkeypatch.setattr(cli, "cross_check", broken)
        code, _, err = run(
            capsys, "map", "--a", "2", "--b", "3", "--path", "NENEE",
            "--map", "zeta", "--method", "all",
        )
        assert code == 3 and "cores" in err and "sweep" in err

    def test_internal_invariant_error_exit_3(self, capsys, monkeypatch):
        import rational_dyck.cli as cli
        from rational_dyck.errors import InternalInvariantError

        def broken(path):
            raise InternalInvariantError("demo invariant")

        monkeypatch.setattr(cli, "cross_check", broken)
        code, _, err = run(
            capsys, "map", "--a", "2", "--b", "3", "--path", "NENEE",
            "--map", "zeta", "--method", "all",
        )
        assert code == 3 and "demo invariant" in err


class TestVerifyWitnesses:
    """Each check's failure exits 2 with a witness per failing pair; the
    inputs are broken one at a time to make every check fail."""

    PAIRS = [(a, b) for a, b in coprime_pairs(5) if a + b >= 3]

    def verify(self, capsys, check):
        code, out, _ = run(capsys, "verify", "--check", check, "--max-sum", "5", "--json")
        assert code == 2
        return json.loads(out)["violations"]

    def test_counts(self, capsys, monkeypatch):
        def off_by_one(a, b):
            return len(rd.enumerate_paths(a, b)) + 1

        monkeypatch.setattr(cli, "rational_catalan_number", off_by_one)
        assert self.verify(capsys, "counts") == [
            {"check": "counts", "a": a, "b": b} for a, b in self.PAIRS
        ]

    @pytest.mark.parametrize(
        "stat,flag", [("coarea", "sl_transport_ok"), ("dinv", "dinv_transport_ok")]
    )
    def test_zeta_bijective(self, capsys, monkeypatch, stat, flag):
        # the path's dinv and the image's coarea (its area, read as half
        # less it) both come off the pair's table
        true_pass = verification._sl_coarea_dinv

        def off_by_one(p):
            sl, co, dv = true_pass(p)
            return (sl, co + 1, dv) if stat == "coarea" else (sl, co, dv + 1)

        monkeypatch.setattr(verification, "_sl_coarea_dinv", off_by_one)
        verification._path_statistics.cache_clear()
        try:
            violations = self.verify(capsys, "zeta-bijective")
            reports = [rd.bijectivity_report(a, b) for a, b in self.PAIRS]
        finally:
            verification._path_statistics.cache_clear()  # drop a broken table
        assert violations == [{"check": "zeta-bijective", **r.to_json()} for r in reports]
        assert all(not r.ok and not getattr(r, flag) and r.injective for r in reports)

    def test_unique_pair(self, capsys, monkeypatch):
        def no_cycle(q, r):
            raise NotACycle("demo")

        monkeypatch.setattr(verification, "iota", no_cycle)
        violations = self.verify(capsys, "unique-pair")
        reports = [rd.bijectivity_report(a, b, unique_pair_scan=True) for a, b in self.PAIRS]
        assert violations == [{"check": "unique-pair", **r.to_json()} for r in reports]
        for r in reports:
            assert not r.ok and set(r.pair_uniqueness.values()) == {0}

    def test_qt_symmetry(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "qt_symmetry_check", lambda a, b, rank_variant: False)
        assert self.verify(capsys, "qt-symmetry") == [
            {"check": "qt-symmetry", "a": a, "b": b} for a, b in self.PAIRS
        ]


class TestRender:
    def test_ascii(self, capsys):
        code, out, _ = run(
            capsys, "render", "--a", "5", "--b", "8", "--path", "NNNENEEENEEEE",
            "--overlays", "hooks,lasers",
        )
        assert code == 0 and "laser total: 10" in out and "27" in out

    def test_svg(self, capsys):
        code, out, _ = run(
            capsys, "render", "--a", "2", "--b", "3", "--path", "NENEE",
            "--format", "svg",
        )
        assert code == 0 and out.startswith("<svg")

    def test_bad_overlay_exit_1(self, capsys):
        code, _, err = run(
            capsys, "render", "--a", "2", "--b", "3", "--path", "NENEE",
            "--overlays", "glitter",
        )
        assert code == 1

    def test_bounce_off_the_grid_exit_3(self, capsys, monkeypatch):
        # a bounce that leaves the grid of a valid path is a bug, not input
        monkeypatch.setattr(rd.DyckPath, "east_rows", lambda self: (self.a + 1,) * self.b)
        code, _, err = run(
            capsys, "render", "--a", "5", "--b", "8", "--path", "NNNENEEENEEEE",
            "--overlays", "bounce",
        )
        assert code == 3 and "bounce climb" in err


class TestUsageErrors:
    def test_unknown_map_choice(self, capsys):
        code, _, err = run(
            capsys, "map", "--a", "2", "--b", "3", "--path", "NENEE", "--map", "sweep",
        )
        assert code == 1 and "invalid choice" in err

    def test_file_line_without_three_fields(self, capsys, tmp_path):
        spec_file = tmp_path / "paths.txt"
        spec_file.write_text("5 8\n")
        code, _, err = run(capsys, "stats", "--file", str(spec_file))
        assert code == 1 and err.startswith(f"dyck: {spec_file}:1: expected 'a b steps'")

    def test_bad_path_names_its_line(self, capsys, tmp_path):
        spec_file = tmp_path / "paths.txt"
        spec_file.write_text("2 3 NENEE\n2 3 EENEN\n")
        code, _, err = run(capsys, "stats", "--file", str(spec_file))
        assert code == 1 and err.startswith(f"dyck: {spec_file}:2: ")

    @pytest.mark.parametrize(
        "verb", [["stats"], ["map", "--map", "zeta"], ["invert"]], ids=["stats", "map", "invert"]
    )
    @pytest.mark.parametrize(
        "given",
        [
            ["--a", "3"],
            ["--b", "5"],
            ["--path", "NNNEEEEE"],
            ["--a", "3", "--b", "5", "--path", "NNNEEEEE"],
        ],
        ids=["a", "b", "path", "all"],
    )
    def test_file_with_a_path_argument(self, capsys, tmp_path, verb, given):
        # the file was read and the other arguments silently dropped
        spec_file = tmp_path / "paths.txt"
        spec_file.write_text("2 3 NENEE\n")
        code, out, err = run(capsys, *verb, *given, "--file", str(spec_file))
        assert code == 1 and out == ""
        assert "--file cannot be combined with --a, --b or --path" in err

    def test_empty_file(self, capsys, tmp_path):
        spec_file = tmp_path / "paths.txt"
        spec_file.write_text("\n\n")
        code, _, err = run(capsys, "stats", "--file", str(spec_file))
        assert code == 1 and "no path specs found" in err
