"""Time the reference loop on the CPU this process is pinned to.

Prints the median time of ``batch.reference_loop``, in seconds, over half
a second of repeats.  ``run.py`` starts one probe per CPU at the same
moment and runs its batches on the CPU whose probe was fastest: on a
shared host one CPU can be slowed by tens of percent for minutes while
another is not.
"""

import statistics
import time

from batch import reference_loop

if __name__ == "__main__":
    times = []
    end = time.perf_counter() + 0.5
    while time.perf_counter() < end:
        times.append(reference_loop())
    print(statistics.median(times))
