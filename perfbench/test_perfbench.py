"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest -q perfbench

- The tracer replaces every binding of a wrapped function, also the
  copies ``from .x import y`` made, and restores them afterwards.
- On the small instance of each workload, every layer metric mapped to
  that workload reads nonzero, and every layer predicted idle reads zero.
- A failed job is reported by name.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from tracer import IDLE_LAYERS, LAYER_METRICS, Tracer, mapped_metrics  # noqa: E402
from workloads import WORKLOADS, check_job  # noqa: E402


def test_tracer_rebinds_every_imported_copy():
    import io
    import contextlib
    import tcclasses
    import tcclasses.cli as cli
    import tcclasses.generators as generators

    original = generators.decompose
    tracer = Tracer()
    with tracer.installed():
        assert cli.decompose is generators.decompose is tcclasses.decompose
        assert generators.decompose is not original
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["decompose", "--group", "U", "--rank", "2",
                             "--a", "1", "--b", "1"]) == 0
    assert cli.decompose is generators.decompose is tcclasses.decompose is original
    assert tracer.stats["generators.decompose"][0] == 1
    assert tracer.stats["cli.main"][0] == 1
    names = {span["name"] for span in tracer.spans}
    assert {"cli.main", "generators.decompose", "generators.DecompositionResult.create",
            "generators.GeneratorExpr.evaluate"} <= names
    by_id = {span["id"]: span for span in tracer.spans}
    evaluate = next(s for s in tracer.spans if s["name"].endswith("evaluate"))
    assert by_id[evaluate["parent"]]["name"].endswith("create")
    assert by_id[evaluate["job"]]["name"] == "cli.main"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_follow_the_prediction(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1", "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(LAYER_METRICS) <= set(metrics)
    for name in mapped_metrics(workload):
        assert metrics[name] > 0, name
    for name in LAYER_METRICS:
        if name.startswith(IDLE_LAYERS[workload]):
            assert metrics[name] == 0, name


def test_failed_job_is_named():
    argv = ["chern2", "--example", "paper", "--grid", "16", "--out", "-"]
    report = {"command": "chern2", "argv": argv, "ok": True,
              "inputs": {"example": "paper", "grid": {"alpha": 16, "beta": 16, "r": 16}},
              "outputs": {"example": "paper", "grid": {"alpha": 16, "beta": 16, "r": 16},
                          "c2": -0.9, "converged": False}}
    problems = check_job(argv, 0, json.dumps(report))
    assert any("0.02" in p for p in problems) and any("converged" in p for p in problems)
    assert check_job(argv, 1, "") == ["exit code 1"]
