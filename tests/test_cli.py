"""Command-line surface: reports, exit codes, reproducibility."""

import json

import pytest

from tcclasses.cli import main
from tcclasses.polyring import polynomial_to_dict, polynomial_from_dict, power_sum, two_var_power_sum


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


class TestChernCommand:
    def test_constant_example(self, tmp_path):
        code, report = run(["chern2", "--example", "constant", "--grid", "16"], tmp_path)
        assert code == 0
        out = report["outputs"]
        assert abs(out["c2"]) < 1e-6
        assert out["reference"] == 0.0
        assert out["converged"] is True
        assert out["grid"] == {"alpha": 16, "beta": 16, "r": 16}

    def test_grid_bounds(self, tmp_path, capsys):
        assert main(["chern2", "--example", "constant", "--grid", "8"]) == 1
        assert "grid size" in capsys.readouterr().err

    def test_unknown_example(self, tmp_path, capsys):
        assert main(["chern2", "--example", "nope", "--grid", "16"]) == 1

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

    def test_missing_file(self, tmp_path, capsys):
        assert main(["powermap", "--k", "2", "--in", str(tmp_path / "absent.json")]) == 1

    @pytest.mark.parametrize("payload", [
        [{"rank": 2, "terms": []}],
        {"terms": [{"coeff": "1/1", "x": [1, 0]}]},
        {"rank": 2, "terms": [{"x": [1, 0]}]},
        {"rank": 2, "terms": [{"coeff": "1/0", "x": [1, 0]}]},
    ], ids=["top_level_array", "missing_rank", "missing_coeff", "zero_denominator"])
    @pytest.mark.parametrize("command", [["powermap", "--k", "2"],
                                         ["normalform", "--group", "U", "--rank", "2"]],
                             ids=["powermap", "normalform"])
    def test_malformed_polynomial_is_one_error_line(self, tmp_path, capsys, command, payload):
        src = tmp_path / "p.json"
        src.write_text(json.dumps(payload))
        assert main(command + ["--in", str(src)]) == 1
        assert_one_error_line(capsys)
