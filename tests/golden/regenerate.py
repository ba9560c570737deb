"""The golden report manifest: which jobs it pins, and how each job is recorded.

``reports.txt`` holds one JSON object per line, one per argv of ``JOBS``,
with the job's exit code and:

- ``stdout``/``stderr``: the sha256 of each stream the job wrote to, with
  the value of ``elapsed_seconds`` masked in stdout;
- for a ``chern2`` report, the report itself instead of its hash.  Its
  floats come from numpy's ``sin``, ``exp`` and ``sum``, whose last bits may
  depend on the numpy build and CPU dispatch, so the test compares them
  within ``FLOAT_TOL`` and everything else exactly.

Jobs run in-process through ``tcclasses.cli.main``, from this directory
(the polynomial files are named relative to it) and with an 80-column
terminal for argparse's messages.  After a deliberate change of a report,
rewrite the manifest from the repository root with

    PYTHONPATH=src python tests/golden/regenerate.py

It keeps every line that the new report still ``matches`` (the test's own
comparison), so it rewrites and prints to stderr only the argv of every
entry that moved past it (new and dropped entries included); say in the
change which these are and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import sys
from math import copysign
from pathlib import Path
from unittest import mock

from tcclasses import cli

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "reports.txt"
FLOAT_TOL = 1e-12

#: The decompose rank caps of the CLI, fixed here so the job list does not
#: follow a change of the caps silently.
DECOMPOSE_CAPS = {"U": 6, "SU": 6, "Sp": 4}


def _decompose_jobs() -> list[list[str]]:
    """Every target P_{a,b} the CLI accepts at the rank caps: 204 jobs."""
    jobs = []
    for kind, top in DECOMPOSE_CAPS.items():
        for n in range(1, top + 1):
            degrees = range(2, 2 * n + 1, 2) if kind == "Sp" else range(1, n + 1)
            jobs.extend(["decompose", "--group", kind, "--rank", str(n),
                         "--a", str(m - b), "--b", str(b)]
                        for m in degrees for b in range(m + 1))
    return jobs


JOBS: list[list[str]] = [
    *_decompose_jobs(),
    *(["verify", "--group", kind, "--rank", str(n), "--max-degree", "6"]
      for kind, n in (("U", 3), ("SU", 3), ("Sp", 3), ("Sp", 4))),
    *(["powermap", "--k", k, "--in", name]
      for name in ("mixed.json", "rank3.json") for k in ("-3", "2", "5")),
    *(["normalform", "--group", kind, "--rank", rank, "--in", name]
      for name, rank in (("mixed.json", "2"), ("rank3.json", "3"), ("zterm.json", "2"))
      for kind in ("U", "SU", "Sp")),
    ["chern2", "--example", "paper", "--grid", "16"],
    ["chern2", "--example", "paper", "--grid", "32", "--degree"],
    ["chern2", "--example", "qpow:2", "--grid", "32", "--degree"],
    ["chern2", "--example", "qpow:-3", "--grid", "24", "--grid-beta", "16", "--degree"],
    ["chern2", "--example", "qpow:4", "--grid", "24"],
    ["chern2", "--example", "constant", "--grid", "16"],
    # Rejected by argparse: exit 2.
    [],
    ["frobnicate"],
    ["decompose", "--group", "X", "--rank", "2", "--a", "1", "--b", "1"],
    ["powermap", "--k", "2"],
    # Rejected by the job: one error line, exit 1.
    ["decompose", "--group", "Sp", "--rank", "9", "--a", "0", "--b", "2"],
    ["decompose", "--group", "Sp", "--rank", "2", "--a", "1", "--b", "2"],
    ["verify", "--group", "Sp", "--rank", "2", "--max-degree", "1"],
    ["verify", "--group", "U", "--rank", "2", "--max-degree", "2", "--cases", "0"],
    ["verify", "--group", "U", "--rank", "2", "--max-degree", "2", "--cases", "100001"],
    ["chern2", "--example", "constant", "--grid", "8"],
    ["chern2", "--example", "constant", "--grid", "16", "--grid-beta", "17"],
    ["chern2", "--example", "nope", "--grid", "16"],
    ["chern2", "--example", "qpow: 3", "--grid", "16"],
    ["chern2", "--example", "qpow:+2", "--grid", "16"],
    ["chern2", "--example", "qpow:007", "--grid", "16"],
    ["chern2", "--example", "qpow:1001", "--grid", "16"],
    ["powermap", "--k", "2", "--in", "zterm.json"],
    ["powermap", "--k", "2", "--in", "absent.json"],
]

_ELAPSED = re.compile(r'"elapsed_seconds": [^,\n}]+')


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record(argv: list[str]) -> dict:
    """Run one job and return its manifest entry."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(HERE)
    try:
        with (mock.patch.dict(os.environ, {"COLUMNS": "80"}),
              contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    entry: dict = {"argv": argv, "exit": code}
    stdout = _ELAPSED.sub('"elapsed_seconds": 0', out.getvalue())
    if stdout and argv[0] == "chern2":
        entry["report"] = json.loads(stdout)
    elif stdout:
        entry["stdout"] = _sha256(stdout)
    if err.getvalue():
        entry["stderr"] = _sha256(err.getvalue())
    return entry


def matches(got, want) -> bool:
    """Equal JSON values, with floats equal within FLOAT_TOL and of equal sign (-0.0 is not 0.0)."""
    if type(want) is float and type(got) is float:
        return abs(got - want) <= FLOAT_TOL and copysign(1, got) == copysign(1, want)
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(matches(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(matches(g, w) for g, w in zip(got, want)))
    return type(got) is type(want) and got == want


def read_manifest() -> list[dict]:
    return [json.loads(line) for line in MANIFEST.read_text().splitlines()]


def moved(old_lines: list[str], new_lines: list[str]) -> list[list[str]]:
    """The argv of every entry whose line differs between two manifests, in
    the new job order, then those only the old manifest has."""
    old = {json.dumps(json.loads(line)["argv"]): line for line in old_lines}
    new = {json.dumps(json.loads(line)["argv"]): line for line in new_lines}
    return [json.loads(key) for key in [*new, *(k for k in old if k not in new)]
            if old.get(key) != new.get(key)]


def main() -> int:
    old_lines = MANIFEST.read_text().splitlines() if MANIFEST.exists() else []
    old_by_argv = {json.dumps(json.loads(line)["argv"]): line for line in old_lines}
    lines = []
    for argv in JOBS:
        entry, old = record(argv), old_by_argv.get(json.dumps(argv))
        lines.append(old if old and matches(entry, json.loads(old)) else json.dumps(entry))
    MANIFEST.write_text("\n".join(lines) + "\n")
    for argv in moved(old_lines, lines):
        print("moved:", shlex.join(argv), file=sys.stderr)
    print(f"wrote {len(lines)} entries to {MANIFEST}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
