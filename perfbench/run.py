"""The tcclasses benchmark: one workload, closed loop, one client.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload decompose-sweep --seed 1 --seconds 40 --trace 0

A run spawns fresh interpreters one after another (``batch.py``), each
running the workload's whole job list through ``tcclasses.cli.main`` with
cold caches, as a CLI user would.  All batches of a run are pinned to one
CPU: the one a short probe (``probe.py``) finds fastest at the start of
the run.  Before the batches it starts a few interpreters that only
import the package and build the job list, to time set-up.  It keeps
starting batches while the next one is expected to end within
``--seconds``, and always runs at least two untraced batches.

Workloads (job lists in ``workloads.py``):

- ``decompose-sweep``: every decompose target the CLI accepts at its rank
  caps except six Sp(4) degree-8 ones (see ``workloads.DROPPED_TARGETS``).
- ``verify-suite``: ``verify --max-degree 6`` for U(3), SU(3) and Sp(3).
- ``chern2-quadrature``: ``chern2`` for paper (grid 192), qpow:2 (96,
  with the degree oracle), qpow:3 (64, with the degree oracle) and
  constant (64).

The seed and the batch index permute the job order of each batch; the
program sees only its argv.  ``TC_CACHE_DIR`` is removed from the
batches' environment so no Groebner basis comes from disk.  Every job
report is checked (``workloads.check_job``); failed jobs are listed by
name.

``--trace 0`` reports the end-to-end metrics.  The host's speed drifts by
tens of percent over seconds to minutes, so every job time is scaled to
nominal host speed by the loop times ``batch.SpeedSampler`` takes during
the job (the unscaled batch wall time is printed too):

- ``setup_s``: median over 9 set-up-only interpreters of the time from
  interpreter start until the package is imported and the job list built,
  scaled by the loop time each one measures right after;
- ``batch_s`` and ``batch_cpu_s``: wall and CPU time of the job list,
  medians over batches;
- ``job_p50_s`` and ``job_p90_s``: percentiles over the jobs of each
  job's fastest wall time among the batches, which ran it in different
  orders (198 jobs on decompose-sweep, 3 on verify-suite and 4 on
  chern2-quadrature);
- ``peak_rss_mb``: median over batches of the batch process's peak RSS.

``--trace 1`` runs one untraced batch, then traced ones, and reports the
per-layer metrics of ``tracer.py`` (medians over the traced batches) and
``trace.overhead_s``, traced minus untraced batch time (scaled).  Spans of the
last traced batch are written to ``perfbench/out/``.  A failed job also
prints ``job_fail_ratio`` and the job's name and reasons.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BATCH = HERE / "batch.py"
PROBE = HERE / "probe.py"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from batch import NOMINAL_LOOP_S  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 9  # set-up-only interpreters per run
MIN_BATCHES = 2  # untraced batches per run, so each job has a best of two
RUN_LIMIT_S = 170  # a run must end within 180 s
END_TO_END_UNITS = {"setup_s": "s", "batch_s": "s", "batch_cpu_s": "s",
                    "job_p50_s": "s", "job_p90_s": "s", "peak_rss_mb": "MB"}


class BatchError(RuntimeError):
    pass


def batch_env() -> dict:
    env = dict(os.environ)
    env.pop("TC_CACHE_DIR", None)
    return env


def spawn(args: list[str], cpu: int, timeout: float) -> tuple[float, dict]:
    """Run batch.py with ``args`` on one CPU; return its start time and parsed output."""
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BATCH), *args], cwd=ROOT, env=batch_env(),
                              capture_output=True, text=True, timeout=timeout,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        raise BatchError(f"batch {args} did not end within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BatchError(f"batch {args} exited with code {proc.returncode}:\n{proc.stderr[-3000:]}")
    try:
        return started, json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BatchError(f"batch {args} printed no result:\n{proc.stderr[-3000:]}") from None


def quietest_cpu(cpus: list[int]) -> tuple[int, dict[int, float]]:
    """Probe every CPU at once and return the fastest with all probe times."""
    procs = {cpu: subprocess.Popen([sys.executable, str(PROBE)], stdout=subprocess.PIPE, text=True,
                                   preexec_fn=lambda cpu=cpu: os.sched_setaffinity(0, {cpu}))
             for cpu in cpus}
    times = {}
    for cpu, proc in procs.items():
        out, _ = proc.communicate(timeout=30)
        if proc.returncode != 0:
            raise BatchError(f"CPU probe on CPU {cpu} exited with code {proc.returncode}")
        times[cpu] = float(out)
    return min(times, key=times.get), times


def scaled(batch: dict, key: str) -> list[float]:
    """The batch's per-job times at nominal host speed.

    A time is scaled by ``NOMINAL_LOOP_S`` over the loop time sampled
    around the job: the time the job takes on a host as fast as a quiet
    core of a 2-core Xeon VM.
    """
    return [t * NOMINAL_LOOP_S / loop for t, loop in zip(batch[key], batch["job_loop_s"])]


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run(workload: str, seed: int, seconds: int, trace: bool, small: bool) -> int:
    begun = time.monotonic()
    deadline = begun + seconds
    base = ["--workload", workload, "--seed", str(seed)] + (["--small"] if small else [])

    def remaining() -> float:
        return max(10.0, begun + RUN_LIMIT_S - time.monotonic())

    cpu, probes = quietest_cpu(sorted(os.sched_getaffinity(0)))
    spawn(base + ["--setup-only"], cpu, remaining())  # writes bytecode caches; not timed
    setups = []
    for _ in range(SETUP_PROBES):
        started, out = spawn(base + ["--setup-only"], cpu, remaining())
        setups.append((out["ready"] - started) * NOMINAL_LOOP_S / out["loop_s"])

    batches, traced, walls = [], [], []
    while True:
        with_trace = trace and bool(batches)
        extra = ["--batch", str(len(batches) + len(traced))]
        if with_trace:
            extra += ["--trace", "--spans", str(OUT / f"spans-{workload}-seed{seed}.json")]
        started, out = spawn(base + extra, cpu, remaining())
        walls.append(time.monotonic() - started)
        (traced if with_trace else batches).append(out)
        enough = bool(traced) if trace else len(batches) >= MIN_BATCHES
        if enough and time.monotonic() + statistics.median(walls) > deadline:
            break

    every = batches + traced
    attempted = sum(b["jobs"] for b in every)
    failures = [f for b in every for f in b["failures"]]
    # Each job's fastest time over batches that ran it in different orders,
    # so a cache fill paid for the jobs after it weighs less on one job.
    job_s = [min(times) for times in zip(*(scaled(b, "job_s") for b in batches))]
    machine = every[0]["machine"]

    print(f"workload {workload}  seed {seed}  batches {len(batches)} untraced"
          f" + {len(traced)} traced  jobs/batch {every[0]['jobs']}")
    print(f"machine nproc {os.cpu_count()}  python {machine['python']}"
          f"  numpy {machine['numpy']}  blas {machine['blas']}")
    print("CPU probe (s per loop): " + "  ".join(f"cpu{c} {t:.6f}" for c, t in probes.items())
          + f"; batches ran on cpu{cpu}")
    print(f"job_fail_ratio {len(failures) / attempted:.6f} ({len(failures)} of {attempted} jobs)")
    for f in failures:
        print(f"FAILED {f['job']}: {'; '.join(f['reasons'])}")
        if f["stderr"]:
            print("  " + f["stderr"].strip().replace("\n", "\n  "))

    if trace:
        untraced = sum(scaled(batches[0], "job_s"))
        batch_s = statistics.median(sum(scaled(b, "job_s")) for b in traced)
        print(f"trace overhead: traced batch_s {batch_s:.4f} s - untraced {untraced:.4f} s")
        metrics = {name: {"value": statistics.median(b["layers"][name] for b in traced),
                          "unit": LAYER_METRICS[name][0]} for name in LAYER_METRICS}
        metrics["trace.overhead_s"] = {"value": batch_s - untraced, "unit": "s"}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "batch_s": statistics.median(sum(scaled(b, "job_s")) for b in batches),
            "batch_cpu_s": statistics.median(sum(scaled(b, "job_cpu_s")) for b in batches),
            "job_p50_s": statistics.median(job_s),
            "job_p90_s": p90(job_s),
            "peak_rss_mb": statistics.median(b["peak_rss_mb"] for b in batches),
        }
        slowdown = statistics.median(loop for b in batches for loop in b["job_loop_s"]) / NOMINAL_LOOP_S
        print(f"setup samples {len(setups)}  job latency samples {len(job_s)},"
              f" each a job's best of {len(batches)} batches")
        print(f"unscaled batch wall {statistics.median(b['batch_s'] for b in batches):.4f} s"
              f" (median over batches); host ran {slowdown:.3f}x slower than nominal")
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="small job lists, for the benchmark's own test")
    args = parser.parse_args()
    if not (ROOT / "src" / "tcclasses" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package source at {ROOT / 'src' / 'tcclasses'}\n")
        return 2
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace), args.small)
    except BatchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
