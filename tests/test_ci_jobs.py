"""The CI workflow's console-script jobs, run in-process.

The last step of ``.github/workflows/tier1.yml`` installs the package and
runs one job per subcommand through the ``tcclasses`` console script, with
``python -c`` assertions on the counters of some reports.  This test reads
that step as plain text (no YAML parser), runs each ``tcclasses`` line
through ``cli.main`` and each assertion in a new interpreter, as CI does,
all in one temporary directory, so a job or a counter that moves fails
here as well as in CI.  It also runs the ``python -`` heredoc of the step
that writes the line counts of ``src/`` to the run summary.
"""

import os
import re
import shlex
import subprocess
import textwrap
import sys
from pathlib import Path

from tcclasses import cli

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
STEP = "- name: Install the package and run each subcommand through its console script"
LINES_STEP = "- name: Lines of src/ in the run summary"


def run_block(step: str) -> list[str]:
    """The lines of the ``run: |`` block of the step named ``step``, as written."""
    lines = WORKFLOW.read_text().splitlines()
    start = [line.strip() for line in lines].index(step)
    run = next(i for i in range(start, len(lines)) if lines[i].strip() == "run: |")
    indent = len(lines[run]) - len(lines[run].lstrip())
    block = []
    for line in lines[run + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        block.append(line)
    return block


def console_step_lines() -> list[str]:
    """The shell lines of the console step's block, stripped, blank lines dropped."""
    return [line.strip() for line in run_block(STEP) if line.strip()]


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


def test_the_src_line_counts_add_up():
    # The heredoc of ``python - src/tcclasses/*.py ... <<'EOF'``, run on the
    # same files from the checkout: one row per module and a total.
    block = run_block(LINES_STEP)
    stripped = [line.strip() for line in block]
    start = next(i for i, line in enumerate(stripped)
                 if line.startswith("python - src/tcclasses/*.py") and line.endswith("<<'EOF'"))
    script = textwrap.dedent("\n".join(block[start + 1:stripped.index("EOF", start)]))
    paths = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "src" / "tcclasses").glob("*.py"))
    done = subprocess.run([sys.executable, "-", *paths], input=script, capture_output=True,
                          text=True, cwd=ROOT, timeout=60)
    assert done.returncode == 0, done.stderr
    row = re.compile(r"(\S+) +(\d+) code +(\d+) docstring +(\d+) comment")
    rows = [row.fullmatch(line) for line in done.stdout.splitlines()]
    assert all(rows), done.stdout
    counts = {m[1]: tuple(map(int, m.groups()[1:])) for m in rows}
    assert list(counts) == paths + ["total"]
    total = counts.pop("total")
    assert total == tuple(sum(c[i] for c in counts.values()) for i in range(3))
    for path, (code, doc, comment) in counts.items():
        assert 0 < code + doc + comment <= (ROOT / path).read_text().count("\n"), path
