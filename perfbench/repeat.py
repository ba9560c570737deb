"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/repeat.py --workload verify-suite --seeds 1-10 [--trace 1] [--save FILE]

For every metric it prints the median and quartiles of the runs
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median.  For an end-to-end metric
it also prints the bound from BENCHMARK.json and whether the spread stays
under a third of it.  ``--save`` writes the runs' results as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(runs: list[dict], bounds: dict[str, float]) -> dict:
    rows = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else 0.0
        row = {"median": median, "q1": q1, "q3": q3, "spread": spread,
               "unit": runs[0]["metrics"][name]["unit"]}
        if name in bounds:
            row["bound"] = bounds[name]
            row["steady"] = spread < bounds[name] / 3
        rows[name] = row
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in seed_range(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct {result['correct']}  failed {result['failed']}"
              f" of {result['attempted']}", flush=True)

    rows = summarize(runs, bounds)
    print(f"{'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}  bound")
    for name, row in rows.items():
        tail = f"  {row['bound']}  {'ok' if row['steady'] else 'WIDE'}" if "bound" in row else ""
        print(f"{name:36s} {row['median']:12.6g} {row['q1']:12.6g} {row['q3']:12.6g}"
              f" {row['spread']:8.4f}{tail}")
    if args.save:
        Path(args.save).write_text(json.dumps({"workload": args.workload, "runs": runs,
                                               "summary": rows}, indent=1))
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
