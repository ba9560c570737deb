"""One batch: a fresh interpreter runs a workload's whole job list.

Usage: python3 perfbench/batch.py --workload W --seed S --batch I
       [--trace] [--small] [--setup-only] [--spans PATH]

The package is imported from ``src/`` of the checkout holding this file.
Jobs run one at a time through ``tcclasses.cli.main`` in this process, in
the order the seed and batch index give.  The batch prints one JSON object on stdout: the
monotonic time at which set-up ended (the package imported and the job
list built), the batch's wall and CPU time, each job's wall and CPU time
and the host's speed during the job (``SpeedSampler``), the failed jobs
with their reasons, peak RSS, and with ``--trace`` the per-layer metrics
(in a traced batch the sampler's time lands in the self time of the
function it interrupts, about 1%).  Per-job lists follow
the workload's job list, not the order the jobs ran in.
"""

import argparse
import contextlib
import io
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SAMPLE_EVERY_S = 0.05
WINDOW_S = 0.5
#: The sampler loop's time on a quiet core of a 2-core Xeon VM under
#: Python 3.11; scaled times are seconds at this host speed.
NOMINAL_LOOP_S = 3.4e-4


def reference_loop() -> float:
    """Time a fixed pure-Python loop: about 0.34 ms on a quiet core."""
    t0 = time.perf_counter()
    total = 0
    for i in range(5_000):
        total += i * i % 7
    return time.perf_counter() - t0


class SpeedSampler:
    """Times ``reference_loop`` every 50 ms from a SIGALRM handler.

    Sampling costs about 1% of the batch.  The host's speed drifts by
    tens of percent over seconds to minutes; the loop time sampled around
    a job against ``NOMINAL_LOOP_S`` measures how much slower the host ran
    during it.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _sample(self, signum, frame):
        self.samples.append((time.perf_counter(), reference_loop()))

    @contextlib.contextmanager
    def running(self):
        self._sample(None, None)  # so a batch shorter than one period has a sample
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def loop_time(self, start: float, end: float) -> float:
        """Median loop time of the samples taken within WINDOW_S of [start, end]."""
        near = [d for t, d in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return statistics.median(near or [min(self.samples, key=lambda s: abs(s[0] - start))[1]])


def run_job(cli, argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI job, capturing its report and error output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crashing job fails; the batch goes on
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--batch", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import tcclasses.cli as cli
    import workloads

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"tcclasses was imported from {cli.__file__}, not from {SRC}")
    jobs = workloads.job_list(args.workload, args.small)
    order = random.Random(f"{args.seed}/{args.batch}").sample(range(len(jobs)), len(jobs))
    ready = time.monotonic()
    if args.setup_only:
        loop_s = statistics.median(reference_loop() for _ in range(21))
        print(json.dumps({"ready": ready, "loop_s": loop_s}))
        return 0

    sampler = SpeedSampler()
    context = contextlib.ExitStack()
    context.enter_context(sampler.running())
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        context.enter_context(tracer.installed())

    spans, job_s, job_cpu_s = [None] * len(jobs), [None] * len(jobs), [None] * len(jobs)
    failures, reports = [], []
    with context:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        for i in order:
            argv = jobs[i]
            t0, c0 = time.perf_counter(), time.process_time()
            code, out, err = run_job(cli, argv)
            t1 = time.perf_counter()
            spans[i] = (t0, t1)
            job_s[i] = t1 - t0
            job_cpu_s[i] = time.process_time() - c0
            problems = workloads.check_job(argv, code, out)
            if problems:
                failures.append({"job": " ".join(argv), "reasons": problems,
                                 "stderr": err[-2000:]})
            elif args.trace:
                reports.append(json.loads(out))
        batch_s = time.perf_counter() - wall0
        batch_cpu_s = time.process_time() - cpu0

    result = {
        "ready": ready,
        "jobs": len(jobs),
        "batch_s": batch_s,
        "batch_cpu_s": batch_cpu_s,
        "job_s": job_s,
        "job_cpu_s": job_cpu_s,
        "job_loop_s": [sampler.loop_time(*span) for span in spans],
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "machine": machine_info(),
    }
    if args.trace:
        result["layers"] = tracer.layer_metrics(reports)
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            Path(args.spans).write_text(json.dumps(tracer.spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
