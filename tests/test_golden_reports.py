"""The reproducibility contract: every job of the golden manifest gives its pinned report.

``tests/golden/reports.txt`` pins each report by hash (elapsed_seconds
masked), and each ``chern2`` report field by field; see
``tests/golden/regenerate.py``.
"""

import pytest

from golden.regenerate import FLOAT_TOL, JOBS, matches, read_manifest, record

MANIFEST = read_manifest()
COMMANDS = ["decompose", "verify", "powermap", "normalform", "chern2"]


def command_of(argv: list[str]) -> str:
    return argv[0] if argv and argv[0] in COMMANDS else "other"


@pytest.mark.parametrize("got, want, same", [
    (0.0, 0.0, True),
    (-1.0, -1.0 - FLOAT_TOL / 2, True),
    (-0.0, 0.0, False),
    (0.0, -0.0, False),
    ({"c2": -0.0}, {"c2": 0.0}, False),
    (-1.0, -1.0 - 2 * FLOAT_TOL, False),
])
def test_floats_match_within_the_tolerance_and_by_sign(got, want, same):
    assert matches(got, want) is same


def test_manifest_lists_every_job():
    assert [entry["argv"] for entry in MANIFEST] == JOBS
    assert sum(argv[:1] == ["decompose"] and entry["exit"] == 0
               for argv, entry in zip(JOBS, MANIFEST)) == 204


@pytest.mark.parametrize("command", COMMANDS + ["other"])
def test_reports_match_the_manifest(command):
    entries = [e for e in MANIFEST if command_of(e["argv"]) == command]
    assert entries
    moved = [e["argv"] for e in entries if not matches(record(e["argv"]), e)]
    assert not moved, f"reports differ from tests/golden/reports.txt: {moved}"
