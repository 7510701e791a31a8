"""Probe the third-machine memory cliff (a known finding, see BASELINE.md).

Builds 1024-cell EP machines (``log2_pairs=20``) one after another in
this process and prints the resident set after each.  A watchdog thread
ends the process with exit code 3 as soon as the RSS passes the cap, so
the probe cannot run the host out of memory.  Run from the root of a
checkout::

    PYTHONPATH=src python3 perfbench/cliff.py [CAP_MB]
"""

from __future__ import annotations

import os
import sys
import threading
import time

MACHINES = 3


def rss_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    raise LookupError("no VmRSS in /proc/self/status")


def main(cap_mb: float) -> int:
    peak = [0.0]

    def guard() -> None:
        while True:
            rss = rss_mb()
            peak[0] = max(peak[0], rss)
            if rss > cap_mb:
                print(f"RSS {rss:.0f} MB passed the {cap_mb:.0f} MB cap",
                      flush=True)
                os._exit(3)
            time.sleep(0.01)

    threading.Thread(target=guard, daemon=True).start()
    from repro.apps.workloads import workload

    for i in range(1, MACHINES + 1):
        start = time.perf_counter()
        run = workload("EP").runner(num_cells=1024, log2_pairs=20)
        print(f"machine {i}: {time.perf_counter() - start:.2f} s, "
              f"verified={run.verified}, peak RSS {peak[0]:.0f} MB",
              flush=True)
        del run
    return 0


if __name__ == "__main__":
    sys.exit(main(float(sys.argv[1]) if len(sys.argv) > 1 else 1500.0))
