"""Job lists of the benchmark workloads and the checks applied to each job report.

A job is one argv list for ``tcclasses.cli.main``.  Every workload has a
full job list, used by the benchmark, and a small one, used by the
benchmark's own test.  ``check_job`` applies the acceptance-suite
tolerances to a job's exit code and JSON report and returns the reasons it
failed (an empty list when the job passed).
"""

from __future__ import annotations

import json

WORKLOADS = ("decompose-sweep", "verify-suite", "chern2-quadrature")

#: Largest decompose rank per group kind (the CLI caps).
DECOMPOSE_RANKS = {"U": 6, "SU": 6, "Sp": 4}

#: Sp(4) degree-8 targets left out of decompose-sweep.  Certifying them
#: takes about 31 s of the full 44 s sweep, which does not fit a run.
#: (8,0), (1,7) and (0,8) stay in, so the degree-8 path is still measured.
DROPPED_TARGETS = frozenset(("Sp", 4, 8 - b, b) for b in range(1, 7))

VERIFY_CASES = 200  # the CLI default of --cases, echoed in the report


def decompose_targets(max_ranks: dict[str, int]) -> list[tuple[str, int, int, int]]:
    """Every (group, rank, a, b) the CLI accepts up to the given ranks."""
    targets = []
    for kind, top in max_ranks.items():
        for n in range(1, top + 1):
            if kind == "Sp":
                degrees = range(2, 2 * n + 1, 2)
            else:
                degrees = range(1, n + 1)
            for m in degrees:
                targets.extend((kind, n, m - b, b) for b in range(m + 1))
    return targets


def decompose_argv(kind: str, n: int, a: int, b: int) -> list[str]:
    return ["decompose", "--group", kind, "--rank", str(n), "--a", str(a), "--b", str(b),
            "--out", "-"]


def job_list(workload: str, small: bool = False) -> list[list[str]]:
    """The workload's jobs, in a fixed order (the seed permutes them later)."""
    if workload == "decompose-sweep":
        ranks = {"U": 3, "SU": 3, "Sp": 2} if small else DECOMPOSE_RANKS
        return [decompose_argv(*t) for t in decompose_targets(ranks)
                if t not in DROPPED_TARGETS]
    if workload == "verify-suite":
        size = ["--rank", "2", "--max-degree", "4", "--cases", "20"] if small else \
            ["--rank", "3", "--max-degree", "6"]
        return [["verify", "--group", kind, *size, "--out", "-"] for kind in ("U", "SU", "Sp")]
    if workload == "chern2-quadrature":
        if small:
            return [["chern2", "--example", "paper", "--grid", "32", "--out", "-"],
                    ["chern2", "--example", "qpow:2", "--grid", "32", "--degree", "--out", "-"],
                    ["chern2", "--example", "constant", "--grid", "16", "--out", "-"]]
        return [["chern2", "--example", "paper", "--grid", "192", "--out", "-"],
                ["chern2", "--example", "qpow:2", "--grid", "96", "--degree", "--out", "-"],
                ["chern2", "--example", "qpow:3", "--grid", "64", "--degree", "--out", "-"],
                ["chern2", "--example", "constant", "--grid", "64", "--out", "-"]]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def _option(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def check_job(argv: list[str], code: int, stdout: str) -> list[str]:
    """Reasons the job failed; empty when its report passes every check."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON ({exc})"]
    problems = []
    if report.get("ok") is not True:
        problems.append("ok is not true")
    if report.get("command") != argv[0] or report.get("argv") != argv:
        problems.append("command or argv not echoed")
    inputs, out = report.get("inputs", {}), report.get("outputs", {})
    if argv[0] == "decompose":
        target = {"group": _option(argv, "--group"), "rank": int(_option(argv, "--rank")),
                  "a": int(_option(argv, "--a")), "b": int(_option(argv, "--b"))}
        if inputs != target or out.get("target") != target:
            problems.append("target or inputs not echoed")
        if out.get("certified") is not True:
            problems.append("certified is not true")
    elif argv[0] == "verify":
        echo = {"group": _option(argv, "--group"), "rank": int(_option(argv, "--rank")),
                "max_degree": int(_option(argv, "--max-degree")),
                "cases": int(_option(argv, "--cases") or VERIFY_CASES)}
        if inputs != echo:
            problems.append("inputs not echoed")
        props = out.get("properties") or []
        failing = [p.get("name") for p in props if p.get("ok") is not True]
        if not props or failing:
            problems.append(f"properties not ok: {failing}")
    elif argv[0] == "chern2":
        problems.extend(_check_chern2(argv, inputs, out))
    return problems


def _check_chern2(argv: list[str], inputs: dict, out: dict) -> list[str]:
    example, size = _option(argv, "--example"), int(_option(argv, "--grid"))
    grid = {"alpha": size, "beta": size, "r": size}
    problems = []
    if inputs != {"example": example, "grid": grid} or out.get("grid") != grid \
            or out.get("example") != example:
        problems.append("example or grid not echoed")
    c2 = out.get("c2")
    if not isinstance(c2, float):
        return problems + ["c2 missing"]
    if example == "paper":
        if abs(c2 + 1.0) > 0.02:
            problems.append(f"paper c2 = {c2} is not -1 within 0.02")
        if out.get("converged") is not True:
            problems.append("paper quadrature not converged")
    elif example == "constant":
        if abs(c2) > 1e-6:
            problems.append(f"constant c2 = {c2} exceeds 1e-6")
    elif example.startswith("qpow:"):
        d = int(example.split(":", 1)[1])
        if abs(abs(c2) - d) > 0.02 * d:
            problems.append(f"qpow c2 = {c2} is off {d} by more than 2%")
        if "--degree" in argv:
            degree = out.get("mapping_degree")
            if not isinstance(degree, float) or abs(abs(degree) - d) > 0.02 * d:
                problems.append(f"qpow degree = {degree} is off {d} by more than 2%")
    return problems
