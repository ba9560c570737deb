"""The CI workflow's console-script jobs, run in-process.

The last step of ``.github/workflows/tier1.yml`` installs the package and
runs one job per subcommand through the ``tcclasses`` console script, with
``python -c`` assertions on the counters of some reports.  This test reads
that step as plain text (no YAML parser), runs each ``tcclasses`` line
through ``cli.main`` and each assertion in a new interpreter, as CI does,
all in one temporary directory, so a job or a counter that moves fails
here as well as in CI.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

from tcclasses import cli

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
STEP = "- name: Install the package and run each subcommand through its console script"


def console_step_lines() -> list[str]:
    """The shell lines of the step's ``run: |`` block, stripped, blank lines dropped."""
    lines = WORKFLOW.read_text().splitlines()
    start = [line.strip() for line in lines].index(STEP)
    run = next(i for i in range(start, len(lines)) if lines[i].strip() == "run: |")
    indent = len(lines[run]) - len(lines[run].lstrip())
    block = []
    for line in lines[run + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        block.append(line.strip())
    return [line for line in block if line]


def test_the_console_script_jobs_pass(tmp_path, monkeypatch):
    # The checkout is GITHUB_WORKSPACE; the package is imported from src/,
    # so the install line is the one line not run.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GITHUB_WORKSPACE", str(ROOT))
    ran = {"tcclasses": 0, "python -c": 0}
    for line in console_step_lines():
        words = [os.path.expandvars(word) for word in shlex.split(line)]
        if words[:4] == ["python", "-m", "pip", "install"]:
            continue
        if words[0] == "tcclasses":
            assert cli.main(words[1:]) == 0, line
            ran["tcclasses"] += 1
        elif words[:2] == ["python", "-c"] and len(words) == 3:
            done = subprocess.run([sys.executable, *words[1:]], capture_output=True, text=True,
                                  timeout=60)
            assert done.returncode == 0, done.stderr
            ran["python -c"] += 1
        else:  # an assignment, name=value
            name, _, value = words[0].partition("=")
            assert len(words) == 1 and name.isidentifier(), f"unrecognised line: {line}"
            monkeypatch.setenv(name, value)
    assert os.environ["poly"] == str(ROOT / "tests" / "golden" / "mixed.json")
    assert ran == {"tcclasses": 9, "python -c": 4}
