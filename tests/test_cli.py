"""Command-line surface: reports, exit codes, reproducibility."""

import argparse
import json
import random
from fractions import Fraction

import pytest

from tcclasses import cli, generators
from tcclasses.cli import main
from tcclasses.polyring import (
    MAX_FILE_DEGREE,
    Polynomial,
    polynomial_from_dict,
    polynomial_to_dict,
    power_sum,
    two_var_power_sum,
)
from tcclasses.weyl import GroupSpec, symmetrize


def run(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def comparable(report):
    return {k: v for k, v in report.items() if k != "elapsed_seconds"}


# Wrong symmetrizations the verify mu law must catch.
def keeps_odd(p, spec):
    return symmetrize(p, GroupSpec("U", spec.rank))


def to_zero(p, spec):
    return Polynomial.zero(p.rank)


def perturbed(p, spec):
    sym = symmetrize(p, spec)
    return sym if sym.is_zero() else sym + Polynomial(p.rank, {min(sym.terms): 1})


ENVELOPE = ["command", "argv", "tool_version", "inputs", "outputs", "ok", "elapsed_seconds"]


def polynomial_file(tmp_path):
    src = tmp_path / "p.json"
    src.write_text(json.dumps(polynomial_to_dict(two_var_power_sum(1, 1, 2))))
    return str(src)


def always_failing_laws(spec, max_degree, cases):
    return [{"name": "ring_laws", "cases": cases, "ok": False}]


class TestReportFrame:
    """main builds the one report envelope and the exit code of every subcommand."""

    @pytest.mark.parametrize("argv, ok", [
        (["decompose", "--group", "U", "--rank", "2", "--a", "1", "--b", "1"], True),
        (["verify", "--group", "U", "--rank", "2", "--max-degree", "2", "--cases", "5"], True),
        (["verify", "--group", "U", "--rank", "2", "--max-degree", "2", "--cases", "5"], False),
        (["chern2", "--example", "constant", "--grid", "16"], True),
        (["chern2", "--example", "qpow:40", "--grid", "16"], False),
        (["powermap", "--k", "2", "--in", "FILE"], True),
        (["normalform", "--group", "U", "--rank", "2", "--in", "FILE"], True),
    ], ids=["decompose", "verify", "verify-failing-law", "chern2", "chern2-unconverged",
            "powermap", "normalform"])
    def test_envelope_and_exit_code(self, tmp_path, monkeypatch, argv, ok):
        if not ok and argv[0] == "verify":
            monkeypatch.setattr(cli, "_verify_properties", always_failing_laws)
        argv = [polynomial_file(tmp_path) if a == "FILE" else a for a in argv]
        code, report = run(argv, tmp_path)
        assert list(report) == ENVELOPE
        assert report["command"] == argv[0]
        assert report["argv"] == argv + ["--out", str(tmp_path / "out.json")]
        assert report["ok"] is ok
        assert code == (0 if report["ok"] else 1)


DECOMPOSE_U2 = ["decompose", "--group", "U", "--rank", "2", "--a", "1", "--b", "1"]


class TestParserReuse:
    """main parses with one parser per process; no job leaks into the next."""

    def test_second_call_constructs_no_parser(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(type(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        assert run(DECOMPOSE_U2, tmp_path)[0] == 0
        assert len(built) == 6  # the top-level parser and five subcommands
        assert run(DECOMPOSE_U2, tmp_path)[0] == 0
        assert len(built) == 6

    def test_omitted_grid_is_the_default(self, tmp_path):
        assert run(["chern2", "--example", "constant", "--grid", "16"], tmp_path)[0] == 0
        code, report = run(["chern2", "--example", "constant"], tmp_path)
        assert code == 0
        assert report["inputs"]["grid"] == {"alpha": 96, "beta": 96, "r": 96}

    def test_omitted_cases_is_the_default(self, tmp_path):
        argv = ["verify", "--group", "U", "--rank", "2", "--max-degree", "2"]
        assert run(argv + ["--cases", "20"], tmp_path)[1]["inputs"]["cases"] == 20
        code, report = run(argv, tmp_path)
        assert code == 0
        assert report["inputs"]["cases"] == 200
        assert {p["cases"] for p in report["outputs"]["properties"][:3]} == {200}

    def test_rejected_argv_twice(self, capsys):
        argv = ["decompose", "--group", "X", "--rank", "2", "--a", "1", "--b", "1"]
        errors = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "invalid choice: 'X'" in captured.err
            errors.append(captured.err)
        assert errors[0] == errors[1]

    def test_rebound_handler_runs(self, tmp_path, monkeypatch):
        assert run(DECOMPOSE_U2, tmp_path)[0] == 0
        monkeypatch.setattr(cli, "cmd_decompose", lambda args: ({"a": args.a}, {"stub": True}, True))
        code, report = run(DECOMPOSE_U2, tmp_path)
        assert code == 0
        assert report["inputs"] == {"a": 1} and report["outputs"] == {"stub": True}


class TestDecomposeCommand:
    def test_certified_run(self, tmp_path):
        code, report = run(["decompose", "--group", "U", "--rank", "3", "--a", "1", "--b", "2"],
                           tmp_path)
        assert code == 0
        assert report["ok"] is True
        assert report["outputs"]["certified"] is True
        assert report["outputs"]["target"] == {"group": "U", "rank": 3, "a": 1, "b": 2}

    def test_zero_class(self, tmp_path):
        code, report = run(["decompose", "--group", "U", "--rank", "2", "--a", "1", "--b", "0"],
                           tmp_path)
        assert code == 0
        assert report["outputs"]["terms"] == []
        assert report["outputs"]["certified"] is True

    def test_odd_sp_degree_fails(self, tmp_path, capsys):
        code = main(["decompose", "--group", "Sp", "--rank", "2", "--a", "1", "--b", "2"])
        assert code == 1
        assert "signed-invariant" in capsys.readouterr().err

    def test_rank_cap(self, tmp_path, capsys):
        code = main(["decompose", "--group", "Sp", "--rank", "9", "--a", "0", "--b", "2"])
        assert code == 1
        assert "cap" in capsys.readouterr().err

    def test_unwritable_out_is_one_error_line(self, tmp_path, capsys):
        code = main(["decompose", "--group", "U", "--rank", "2", "--a", "1", "--b", "1",
                     "--out", str(tmp_path)])
        assert code == 1
        assert_one_error_line(capsys)

    def test_out_directory_rejected_before_the_job_runs(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("decompose ran although --out is a directory")

        monkeypatch.setattr(cli, "decompose", fail)
        code = main(["decompose", "--group", "U", "--rank", "2", "--a", "1", "--b", "1",
                     "--out", str(tmp_path)])
        assert code == 1
        assert_one_error_line(capsys)

    def test_out_in_missing_directory_rejected(self, tmp_path, capsys):
        out = tmp_path / "absent" / "report.json"
        code = main(["decompose", "--group", "U", "--rank", "2", "--a", "1", "--b", "1",
                     "--out", str(out)])
        assert code == 1
        assert_one_error_line(capsys)
        assert not out.parent.exists()

    def test_failed_job_keeps_existing_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        out.write_text("previous report\n")
        code = main(["powermap", "--k", "2", "--in", str(tmp_path / "absent.json"),
                     "--out", str(out)])
        assert code == 1
        assert_one_error_line(capsys)
        assert out.read_text() == "previous report\n"

    def test_reproducible_reports(self, tmp_path):
        # The identical command line, run twice, must reproduce the report
        # byte-identically once the timing line is stripped.
        out = tmp_path / "report.json"
        argv = ["decompose", "--group", "SU", "--rank", "2", "--a", "0", "--b", "2",
                "--out", str(out)]

        def comparable_bytes():
            return b"\n".join(line for line in out.read_bytes().splitlines()
                              if b"elapsed_seconds" not in line)

        assert main(argv) == 0
        first = comparable_bytes()
        assert main(argv) == 0
        assert comparable_bytes() == first


class TestVerifyCommand:
    def test_u2_small_scale(self, tmp_path):
        code, report = run(["verify", "--group", "U", "--rank", "2", "--max-degree", "2",
                            "--cases", "25"], tmp_path)
        assert code == 0
        names = {p["name"] for p in report["outputs"]["properties"]}
        assert {"ring_laws", "homomorphism_laws", "power_map_composition",
                "binomial_identity", "certification_sweep"} <= names
        assert all(p["ok"] for p in report["outputs"]["properties"])

    def test_sp2_includes_mu_vanishing(self, tmp_path):
        code, report = run(["verify", "--group", "Sp", "--rank", "2", "--max-degree", "4",
                            "--cases", "10"], tmp_path)
        assert code == 0
        names = {p["name"] for p in report["outputs"]["properties"]}
        assert "mu_vanishing_and_positivity" in names

    def test_su2_p01_dies(self, tmp_path):
        # P_{0,1} reduces to zero mod the SU ideal, so the certification
        # sweep must still pass (the zero expression certifies).
        code, report = run(["verify", "--group", "SU", "--rank", "2", "--max-degree", "2",
                            "--cases", "10"], tmp_path)
        assert code == 0

    @pytest.mark.parametrize("option", [["--cases", "-5"], ["--cases", "0"],
                                        ["--max-degree", "0"], ["--max-degree", "-1"]])
    def test_vacuous_scale_rejected(self, option, capsys):
        argv = ["verify", "--group", "U", "--rank", "2", "--max-degree", "2", "--cases", "5"]
        argv[argv.index(option[0]) + 1] = option[1]
        assert main(argv) == 1
        assert_one_error_line(capsys)

    def test_empty_out_rejected_before_the_job_runs(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("verify ran although --out is empty")

        monkeypatch.setattr(cli, "cmd_verify", fail)
        assert main(["verify", "--group", "Sp", "--rank", "3", "--max-degree", "6",
                     "--out", ""]) == 1
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_sp_degree_one_rejected_before_work(self, rank, capsys, monkeypatch):
        # At degree 1 the Sp binomial identity and certification sweep have
        # no case, so a pass would check nothing.
        def fail(*args, **kwargs):
            raise AssertionError("the laws ran although the degree is below the minimum")

        monkeypatch.setattr(cli, "_verify_properties", fail)
        assert main(["verify", "--group", "Sp", "--rank", str(rank), "--max-degree", "1"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "[2, 12]" in err

    def test_sp4_rank_cap(self, tmp_path):
        code, report = run(["verify", "--group", "Sp", "--rank", "4", "--max-degree", "6"],
                           tmp_path)
        assert code == 0 and report["ok"] is True
        # mu: multi-indices in 8 slots with 1 <= total degree <= 6, C(14, 8) - 1 of them.
        laws = [("ring_laws", 200), ("homomorphism_laws", 200), ("power_map_composition", 200),
                ("power_map_eigenvalue", 108), ("binomial_identity", 3),
                ("mu_vanishing_and_positivity", 3002), ("certification_sweep", 15)]
        assert report["outputs"] == {
            "properties": [{"name": name, "cases": cases, "ok": True} for name, cases in laws]}

    @pytest.mark.parametrize("mutant", [keeps_odd, to_zero, perturbed],
                             ids=lambda f: f.__name__)
    def test_mu_law_catches_a_wrong_symmetrize(self, mutant, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "symmetrize", mutant)
        code, report = run(["verify", "--group", "Sp", "--rank", "2", "--max-degree", "4",
                            "--cases", "10"], tmp_path)
        assert code == 1 and report["ok"] is False
        failed = [p["name"] for p in report["outputs"]["properties"] if not p["ok"]]
        assert failed == ["mu_vanishing_and_positivity"]

    @pytest.mark.parametrize("target", [((2, 0), (2, 0)), ((1, 1), (1, 1), (1, 1))])
    def test_a_wrong_pattern_expansion_fails_at_its_first_case(self, target, monkeypatch):
        # The expansion of the mu recursion is shared by every multi-index of
        # one support pattern; each case must still compare its own
        # symmetrization with it, so a wrong expansion fails the first case
        # that has the pattern.
        n, max_degree = 3, 6

        def mu_law():
            laws = cli._verify_properties(GroupSpec("Sp", n), max_degree, 1)
            return next(p for p in laws if p["name"] == "mu_vanishing_and_positivity")

        assert mu_law() == {"name": "mu_vanishing_and_positivity", "cases": 923, "ok": True}
        original = generators._expand_mu_pattern

        def wrong_for_target(pattern, rank):
            result = original(pattern, rank)
            return result + Polynomial.one(rank) if pattern == target else result

        monkeypatch.setattr(generators, "_expand_mu_pattern", wrong_for_target)
        indices = [e for e in cli._multi_indices(2 * n, max_degree) if any(e)]

        def pattern(exps):
            columns = list(zip(exps[:n], exps[n:]))
            if any((i + j) % 2 for i, j in columns):
                return None
            return tuple(sorted((c for c in columns if any(c)), reverse=True))

        first = 1 + [pattern(e) for e in indices].index(target)
        assert first > 1
        assert mu_law() == {"name": "mu_vanishing_and_positivity", "cases": first, "ok": False}

    def test_law_reads_its_cases_up_to_the_first_failure(self):
        results = iter([True, True, False, True])
        assert cli._law("law", results) == {"name": "law", "cases": 3, "ok": False}
        assert list(results) == [True]  # the case after the failure never ran
        assert cli._law("law", iter([True] * 4)) == {"name": "law", "cases": 4, "ok": True}

    def test_failing_law_stops_at_its_first_failing_case(self, tmp_path, monkeypatch):
        # Only composition reaches |k| >= 5 (as k * l); the other laws draw
        # k from -4..4 or (-3, -1, 2, 3).
        original = cli.power_map

        def wrong_for_large_k(k, p):
            result = original(k, p)
            return result + Polynomial.one(p.rank) if abs(k) >= 5 else result

        monkeypatch.setattr(cli, "power_map", wrong_for_large_k)
        code, report = run(["verify", "--group", "U", "--rank", "2", "--max-degree", "2"],
                           tmp_path)
        assert code == 1 and report["ok"] is False
        failed = [p for p in report["outputs"]["properties"] if not p["ok"]]
        assert [p["name"] for p in failed] == ["power_map_composition"]
        assert 1 <= failed[0]["cases"] < 200

    @pytest.mark.parametrize("out", ["-", "report.json"])
    def test_failed_certificate_is_one_error_line(self, out, tmp_path, capsys, monkeypatch):
        original = generators.vandermonde_weights
        monkeypatch.setattr(generators, "vandermonde_weights",
                            lambda m, b: {k: c + 1 for k, c in original(m, b).items()})
        path = tmp_path / out
        if out != "-":
            path.write_text("previous report\n")
        assert main(["verify", "--group", "U", "--rank", "2", "--max-degree", "2",
                     "--out", out if out == "-" else str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: ") and "P_{0,1}(2) for U(2)" in captured.err
        if out != "-":
            assert path.read_text() == "previous report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ([] if out == "-" else [out])

    @pytest.mark.parametrize("kind", ["U", "SU", "Sp"])
    def test_golden_outputs(self, kind, tmp_path):
        code, report = run(["verify", "--group", kind, "--rank", "3", "--max-degree", "6"],
                           tmp_path)
        laws = [("ring_laws", 200), ("homomorphism_laws", 200), ("power_map_composition", 200),
                ("power_map_eigenvalue", 108), ("binomial_identity", 3)]
        if kind == "Sp":
            laws += [("mu_vanishing_and_positivity", 923), ("certification_sweep", 15)]
        else:
            laws += [("certification_sweep", 9)]
        assert code == 0
        assert report["outputs"] == {
            "properties": [{"name": name, "cases": cases, "ok": True} for name, cases in laws]}



def reference_rand_poly(rng, rank, families="xy"):
    """verify's random test polynomial built with public ``random`` calls and Fractions."""
    family_block = {"x": 0, "y": 1, "z": 2}
    out = {}
    for _ in range(3):
        exps = [0] * (3 * rank)
        for _ in range(3):
            fam = rng.choice(families)
            idx = rng.randrange(rank)
            slot = family_block[fam] * rank + idx
            if rng.random() < 0.7:
                exps[slot] += 1
        out[tuple(exps)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Polynomial(rank, out)


class TestVerifyTestData:
    """verify's goldens record only verdicts, so this pins the polynomials it checks."""

    @pytest.mark.parametrize("rank", range(1, 7))
    def test_draws_match_the_reference(self, rank):
        fast, ref = random.Random(cli.VERIFY_SEED), random.Random(cli.VERIFY_SEED)
        for i in range(400):
            families = "z" if i % 3 == 2 else "xy"
            assert cli._rand_poly(fast, rank, families) == reference_rand_poly(ref, rank, families)
        assert fast.getstate() == ref.getstate()


class TestChernCommand:
    def test_constant_example(self, tmp_path):
        code, report = run(["chern2", "--example", "constant", "--grid", "16"], tmp_path)
        assert code == 0
        out = report["outputs"]
        assert abs(out["c2"]) < 1e-6
        assert out["reference"] == 0.0
        assert out["converged"] is True
        assert out["grid"] == {"alpha": 16, "beta": 16, "r": 16}
        assert report["ok"] is True

    def test_paper_small_grid_passes(self, tmp_path):
        code, report = run(["chern2", "--example", "paper", "--grid", "16"], tmp_path)
        assert code == 0 and report["ok"] is True
        out = report["outputs"]
        assert out["c2"] == pytest.approx(-1.0, abs=1e-9)
        assert 0 <= out["error_estimate"] < 1e-3
        assert out["converged"] is True

    def test_unconverged_high_power_fails(self, tmp_path):
        # qpow:40 needs far more than 16 nodes per axis: c2 lands near 54.2
        # and the halved grid disagrees, so the verdict must be a failure.
        code, report = run(["chern2", "--example", "qpow:40", "--grid", "16"], tmp_path)
        assert code == 1
        assert report["ok"] is False
        out = report["outputs"]
        assert out["converged"] is False
        assert out["error_estimate"] > 1e-3
        assert abs(out["c2"] - 40) > 1

    def test_very_high_power_is_rejected(self, tmp_path, capsys, monkeypatch):
        # The largest r axis resolves q^d up to |d| = 250 (chernweil.MAX_QPOW_DEGREE);
        # qpow:600 is one error: line before any work and writes no report.
        def no_work(d):
            raise AssertionError("the example was built")
        monkeypatch.setattr(cli.chernweil, "quaternion_power_clutching", no_work)
        code, report = run(["chern2", "--example", "qpow:600", "--grid", "16"], tmp_path)
        assert code == 1 and report is None
        assert capsys.readouterr().err == (
            "error: quaternion power 600 exceeds the cap |d| <= 250\n")

    def test_quadrature_counters(self, tmp_path):
        code, report = run(["chern2", "--example", "constant", "--grid", "192", "--degree"],
                           tmp_path)
        assert code == 0
        # The lower chart mirrors the upper one, so one chart pass on the 192
        # grid (c2 and the degree oracle share it) and one on the halved 96
        # grid.  The constant chart has alpha degree 0, so each pass takes
        # one alpha sample.  A chunk is a block of beta rows: 2**14 // 192 =
        # 85 rows per chunk (3 chunks) and 2**14 // 96 = 170 (1 chunk).
        assert report["outputs"]["quadrature"] == {"nodes": 192 ** 2 + 96 ** 2,
                                                   "chunks": 3 + 1}
        code, report = run(["chern2", "--example", "constant", "--grid", "16"], tmp_path)
        assert report["outputs"]["quadrature"] == {"nodes": 16 ** 2 + 8 ** 2, "chunks": 2}

    @pytest.mark.parametrize("d, grid, chunks", [(2, 96, 2), (3, 64, 2), (-3, 24, 2), (250, 256, 5)])
    def test_every_power_takes_one_alpha_sample(self, d, grid, chunks, tmp_path):
        # q^d of the unit pole chart has forms free of alpha: one alpha
        # sample on the grid and on the halved grid, whatever d.
        code, report = run(["chern2", "--example", f"qpow:{d}", "--grid", str(grid), "--degree"],
                           tmp_path)
        out = report["outputs"]
        assert out["quadrature"] == {"nodes": grid ** 2 + (grid // 2) ** 2, "chunks": chunks}
        assert out["reference"] == d and abs(out["c2"] - d) <= 1e-12
        if grid < 256:  # the halved grid of 128 r nodes does not resolve d = 250
            assert code == 0 and report["ok"] is True

    @pytest.mark.parametrize("example", ["paper", "qpow:2"])
    def test_degree_oracle_changes_no_other_output(self, example, tmp_path):
        # --degree adds the volume-form integral and nothing else: c2 comes
        # from the same formula with and without it, bit for bit.
        keys = ("c2", "integral_J1_plus_J2", "error_estimate")
        plain, with_degree = (
            run(["chern2", "--example", example, "--grid", "32", *extra], tmp_path)[1]["outputs"]
            for extra in ([], ["--degree"]))
        assert [repr(plain[k]) for k in keys] == [repr(with_degree[k]) for k in keys]
        assert "mapping_degree" not in plain and "mapping_degree" in with_degree

    def test_reports_reproducible(self, tmp_path):
        argv = ["chern2", "--example", "qpow:2", "--grid", "24", "--degree"]
        _, first = run(argv, tmp_path, "first.json")
        _, second = run(argv, tmp_path, "second.json")
        first.pop("argv"), second.pop("argv")
        assert comparable(first) == comparable(second)

    @pytest.mark.parametrize("example", ["paper", "constant", "qpow:2", "qpow:-3"])
    def test_the_alpha_size_changes_only_its_echo(self, example, tmp_path):
        # Every registered chart has F <= 1 and takes min(F + 1, n_alpha)
        # alpha samples, so --grid-alpha from 16 up changes no value and no
        # counter, on the grid or on the halved grid: only the echoed sizes,
        # argv and elapsed_seconds differ.
        texts = []
        for n in (16, 17, 96, 256):
            code, report = run(["chern2", "--example", example, "--grid", "32",
                                "--grid-alpha", str(n)], tmp_path)
            assert code == 0
            for part in ("inputs", "outputs"):
                assert report[part]["grid"].pop("alpha") == n
            del report["argv"], report["elapsed_seconds"]
            texts.append(json.dumps(report, sort_keys=True))
        assert texts == texts[:1] * 4

    def test_per_axis_sizes_are_echoed_and_counted(self, tmp_path):
        # paper takes 1 alpha sample on the 20 x 24 (beta, r) grid and on the
        # halved 10 x 12 one, in one chunk each.
        code, report = run(["chern2", "--example", "paper", "--grid", "32", "--grid-beta", "20",
                            "--grid-r", "24"], tmp_path)
        assert code == 0
        grid = {"alpha": 32, "beta": 20, "r": 24}
        assert report["inputs"]["grid"] == report["outputs"]["grid"] == grid
        assert report["outputs"]["quadrature"] == {"nodes": 20 * 24 + 10 * 12, "chunks": 2}

    def test_grid_bounds(self, tmp_path, capsys):
        assert main(["chern2", "--example", "constant", "--grid", "8"]) == 1
        assert "grid size" in capsys.readouterr().err

    @pytest.mark.parametrize("axis", ["alpha", "beta", "r"])
    def test_zero_axis_grid_rejected(self, axis, capsys):
        assert main(["chern2", "--example", "constant", "--grid", "16",
                     f"--grid-{axis}", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {axis}-axis grid size 0 outside the supported "
                                f"range [16, 256]\n")

    @pytest.mark.parametrize("option", ["--grid", "--grid-beta"])
    def test_odd_beta_grid_rejected(self, option, capsys, monkeypatch):
        def no_work(name):
            raise AssertionError("the example was built")
        monkeypatch.setattr(cli.chernweil, "clutching_example", no_work)
        argv = ["chern2", "--example", "constant", "--grid", "16", option, "17"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: beta-axis grid size 17 must be even\n"

    def test_unknown_example(self, tmp_path, capsys):
        assert main(["chern2", "--example", "nope", "--grid", "16"]) == 1

    @pytest.mark.parametrize("example", ["qpow: 3", "qpow:1_0", "qpow:+2", "qpow:٣",
                                         "qpow:", "qpow:3 ", "qpow:2.0", "qpow:--2",
                                         "qpow:007", "qpow:00", "qpow:-0"])
    def test_qpow_takes_only_an_ascii_integer(self, example, capsys, monkeypatch):
        def no_work(d):
            raise AssertionError("the example was built")
        monkeypatch.setattr(cli.chernweil, "quaternion_power_clutching", no_work)
        assert main(["chern2", "--example", example, "--grid", "16"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: malformed quaternion power example {example!r}\n"

    def test_degree_flag(self, tmp_path):
        code, report = run(["chern2", "--example", "qpow:1", "--grid", "24", "--degree"],
                           tmp_path)
        assert code == 0
        assert report["outputs"]["mapping_degree"] == pytest.approx(1.0, rel=0.02)


class TestPolynomialFileCommands:
    def test_powermap(self, tmp_path):
        src = tmp_path / "p.json"
        src.write_text(json.dumps(polynomial_to_dict(two_var_power_sum(1, 1, 2))))
        code, report = run(["powermap", "--k", "-3", "--in", str(src)], tmp_path)
        assert code == 0
        result = polynomial_from_dict(report["outputs"])
        assert result == two_var_power_sum(1, 1, 2).scale(-3)

    def test_normalform(self, tmp_path):
        src = tmp_path / "p.json"
        src.write_text(json.dumps(polynomial_to_dict(power_sum(1, 2, "x"))))
        code, report = run(["normalform", "--group", "U", "--rank", "2", "--in", str(src)],
                           tmp_path)
        assert code == 0
        assert report["outputs"]["terms"] == []

    @pytest.mark.parametrize("rank", [10 ** 12, 7, 0, -2])
    @pytest.mark.parametrize("command", [["powermap", "--k", "2"],
                                         ["normalform", "--group", "U", "--rank", "2"]],
                             ids=["powermap", "normalform"])
    def test_rank_out_of_range_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                                 command, rank):
        from_dict = cli.polynomial_from_dict

        def checked_from_dict(data):
            assert data["rank"] <= cli.MAX_FILE_RANK, "terms built for a rank above the cap"
            return from_dict(data)

        monkeypatch.setattr(cli, "polynomial_from_dict", checked_from_dict)
        src = tmp_path / "p.json"
        src.write_text(json.dumps({"rank": rank, "terms": [{"coeff": "1"}]}))
        assert main(command + ["--in", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "rank" in err

    @pytest.mark.parametrize("exponent", [10000, 10 ** 12])
    @pytest.mark.parametrize("command", [["powermap", "--k", "3"],
                                         ["normalform", "--group", "U", "--rank", "1"]],
                             ids=["powermap", "normalform"])
    def test_degree_above_cap_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                                command, exponent):
        def fail(*args, **kwargs):
            raise AssertionError("a polynomial above the degree cap reached the job")

        monkeypatch.setattr(cli, "power_map", fail)
        monkeypatch.setattr(cli, "normal_form", fail)
        src = tmp_path / "p.json"
        src.write_text(json.dumps({"rank": 1, "terms": [{"coeff": "1", "y": [exponent]}]}))
        assert main(command + ["--in", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert str(exponent) in err and str(MAX_FILE_DEGREE) in err

    @pytest.mark.parametrize("coeff", ["1e5000", "1.5", 1.5, "0x10", " 1", "1_0", True, "1/00"])
    def test_coefficient_format_checked_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                       coeff):
        def fail(*args, **kwargs):
            raise AssertionError("a malformed coefficient reached the job")

        monkeypatch.setattr(cli, "power_map", fail)
        src = tmp_path / "p.json"
        src.write_text(json.dumps({"rank": 1, "terms": [{"coeff": coeff, "x": [1]}]}))
        assert main(["powermap", "--k", "2", "--in", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and repr(coeff) in err

    def test_exponent_block_of_the_wrong_length_is_one_error_line(self, tmp_path, capsys):
        src = tmp_path / "p.json"
        src.write_text(json.dumps({"rank": 2, "terms": [{"coeff": 1, "x": [1]}]}))
        assert main(["powermap", "--k", "2", "--in", str(src)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "block 'x' has length 1; expected 2" in err

    @pytest.mark.parametrize("coeff, expected", [(-3, "-3/1"), ("4", "4/1"), ("-6/4", "-3/2")])
    def test_integer_and_fraction_coefficients(self, tmp_path, coeff, expected):
        src = tmp_path / "p.json"
        src.write_text(json.dumps({"rank": 1, "terms": [{"coeff": coeff, "x": [1]}]}))
        code, report = run(["powermap", "--k", "2", "--in", str(src)], tmp_path)
        assert code == 0 and report["outputs"]["terms"] == [{"coeff": expected, "x": [1]}]

    @pytest.mark.parametrize("command, inputs, terms", [
        (["powermap", "--k", "-3"], {"k": -3},
         [{"coeff": "1/1", "x": [3, 0], "y": [0, 1]}, {"coeff": "-9/2", "x": [2, 1], "y": [1, 0]},
          {"coeff": "-5/1", "x": [1, 1]}, {"coeff": "18/1", "y": [0, 2]}]),
        (["normalform", "--group", "Sp", "--rank", "2"], {"group": "Sp", "rank": 2},
         [{"coeff": "1/3", "x": [1, 2], "y": [0, 1]}, {"coeff": "-3/2", "x": [0, 3], "y": [1, 0]},
          {"coeff": "-5/1", "x": [1, 1]}, {"coeff": "2/1", "y": [0, 2]}]),
    ], ids=["powermap", "normalform"])
    def test_golden_mixed_denominators(self, tmp_path, command, inputs, terms):
        """Terms over different denominators keep their per-term coefficient strings."""
        src = tmp_path / "p.json"
        src.write_text(json.dumps({"rank": 2, "terms": [
            {"coeff": "6/4", "x": [2, 1], "y": [1, 0]}, {"coeff": "2", "y": [0, 2]},
            {"coeff": "-1/3", "x": [3, 0], "y": [0, 1]}, {"coeff": -5, "x": [1, 1]}]}))
        argv = command + ["--in", str(src)]
        code, report = run(argv, tmp_path)
        assert code == 0
        assert comparable(report) == {
            "command": command[0], "argv": argv + ["--out", str(tmp_path / "out.json")],
            "tool_version": cli.__version__, "inputs": {**inputs, "in": str(src)},
            "outputs": {"rank": 2, "terms": terms}, "ok": True}

    def test_missing_file(self, tmp_path, capsys):
        assert main(["powermap", "--k", "2", "--in", str(tmp_path / "absent.json")]) == 1

    @pytest.mark.parametrize("payload", [
        [{"rank": 2, "terms": []}],
        {"terms": [{"coeff": "1/1", "x": [1, 0]}]},
        {"rank": 2, "terms": [{"x": [1, 0]}]},
        {"rank": 2, "terms": [{"coeff": "1/0", "x": [1, 0]}]},
        {"rank": 2, "terms": ["1/1"]},
        {"rank": None, "terms": []},
        {"rank": 2.5, "terms": []},
        {"rank": 2, "terms": {"coeff": "1/1"}},
        {"rank": 2, "terms": [{"coeff": "1/1", "x": [1.5, 0]}]},
        {"rank": 2, "terms": [{"coeff": "1", "w": [1, 0]}]},
        {"rank": 2, "term": [{"coeff": "1/1", "x": [1, 0]}]},
        {"rank": 2, "terms": [{"coeff": "1e100000000", "x": [1, 0]}]},
        {"rank": 2, "terms": [{"coeff": "1e5000", "x": [1, 0]}]},
    ], ids=["top_level_array", "missing_rank", "missing_coeff", "zero_denominator",
            "term_not_object", "null_rank", "non_integer_rank", "terms_not_list",
            "non_integer_exponent", "unknown_family_key", "misspelt_terms_key",
            "huge_exponent_notation", "exponent_notation"])
    @pytest.mark.parametrize("command", [["powermap", "--k", "2"],
                                         ["normalform", "--group", "U", "--rank", "2"]],
                             ids=["powermap", "normalform"])
    def test_malformed_polynomial_is_one_error_line(self, tmp_path, capsys, command, payload):
        src = tmp_path / "p.json"
        src.write_text(json.dumps(payload))
        assert main(command + ["--in", str(src)]) == 1
        assert_one_error_line(capsys)
