"""Weak-scaling study: Figure 8 extended to 256-4096 cells.

The paper evaluates 64 cells (Table 1 tops out at 1024).  This study
re-runs the Figure 8 methodology — functional trace, MLSim replay under
all three machine models, normalized time breakdown — at P in
{256, 1024, 4096} cells with the per-cell problem held constant (weak
scaling):

* **EP** generates a fixed 128 pairs per cell (the NPB class-scaling
  convention), the pure-computation end of Figure 8;
* **RingShift** circulates one token a full lap (one hop per cell),
  the latency-bound end — its breakdown is almost entirely idle time,
  which is the figure's point at scale.

Each point runs once on the batched scheduler; the row records the
functional run's host CPU and wall time beside the replayed model
results.  The 4096-cell row is also the standing proof that the
``extended=True`` configuration escape hatch works end to end (4096
cells exceeds the official ceiling; the config stays strict otherwise).

The committed artifact at the repo root (``BENCH_weak_scaling.json``)
is refreshed with ``repro bench weak`` (see EXPERIMENTS.md).
"""

from __future__ import annotations

import gc
import os
import platform
import time
from typing import Any, Callable

from repro.apps import ep
from repro.apps.latency import ring_shift_program
from repro.machine.config import MAX_CELLS, MachineConfig
from repro.machine.machine import Machine
from repro.mlsim import simulate_models

WEAK_SCHEMA = "repro-bench-weak-v2"

#: Machine sizes of the study.  256 and 1024 are official Table 1
#: configurations; 4096 requires ``extended=True``.
WEAK_POINTS = (256, 1024, 4096)

#: EP pairs generated per cell (held constant across machine sizes).
LOG2_PAIRS_PER_CELL = 7

Log = Callable[[str], None]


def _pin_mmap_threshold() -> None:
    """Keep multi-megabyte cell buffers on the mmap path.

    glibc's dynamic mmap threshold grows as 16 MB cell buffers are
    freed, after which fresh machines are served from the arena and
    ``calloc`` must really memset them — ~64 GB of writes per
    4096-cell machine.  Pinning the threshold keeps ``np.zeros`` on
    fresh demand-zero mappings, so untouched cell DRAM stays free.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.mallopt(ctypes.c_int(-3),          # M_MMAP_THRESHOLD
                     ctypes.c_int(1 << 20))
    except (OSError, AttributeError):  # non-glibc platforms
        pass


def weak_configs(cells: int) -> dict[str, dict[str, Any]]:
    """Per-app parameters at ``cells``, per-cell work held constant."""
    return {
        "EP": {"log2_pairs": cells.bit_length() - 1 + LOG2_PAIRS_PER_CELL},
        "RingShift": {"hops": cells},
    }


_PROGRAMS = {"EP": ep.program, "RingShift": ring_shift_program}


def _run_point(app: str, cells: int, params: dict[str, Any],
               log: Log) -> dict[str, Any]:
    # Machines are cycle-heavy (machine <-> cells <-> contexts) and
    # hold gigabytes of virtual cell DRAM, so prior rows linger until a
    # cyclic-GC pass.  Collect before building the next machine so a
    # bloated heap does not slow every GC pass inside the timed run.
    gc.collect()
    machine = Machine(MachineConfig(
        num_cells=cells,
        extended=cells > MAX_CELLS,
        allow_nonstandard=False,
        scheduler="batched",
    ))
    w0, c0 = time.perf_counter(), time.process_time()
    machine.run(_PROGRAMS[app], **params)
    serial_cpu = time.process_time() - c0
    serial_wall = time.perf_counter() - w0

    models = simulate_models(machine.trace)
    plus, fast = models.table2_row()
    log(f"{app} P={cells}: functional run {serial_wall:.2f}s wall "
        f"({serial_cpu:.2f}s CPU); AP1000+ {plus:.1f}x over AP1000")
    return {
        "app": app,
        "num_cells": cells,
        "params": params,
        "extended": cells > MAX_CELLS,
        "events": machine.trace.total_events,
        "serial_cpu_s": serial_cpu,
        "serial_wall_s": serial_wall,
        "mlsim": {
            "elapsed_us": {
                "ap1000": models.ap1000.elapsed_us,
                "ap1000-fast": models.ap1000_fast.elapsed_us,
                "ap1000+": models.ap1000_plus.elapsed_us,
            },
            "speedup_over_ap1000": {"ap1000+": plus, "ap1000-fast": fast},
            "figure8": models.figure8_bars(),
        },
    }


def run_weak(
    *,
    points: tuple[int, ...] = WEAK_POINTS,
    apps: tuple[str, ...] | None = None,
    log: Log | None = None,
) -> dict[str, Any]:
    """Run the study and return the artifact document."""
    from repro.bench.perf import _utc_now

    log = log or (lambda message: None)
    _pin_mmap_threshold()
    rows = []
    for cells in points:
        configs = weak_configs(cells)
        for app, params in configs.items():
            if apps is not None and app not in apps:
                continue
            rows.append(_run_point(app, cells, params, log))
    return {
        "schema": WEAK_SCHEMA,
        "created_utc": _utc_now(),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "study": {
            "points": list(points),
            "log2_pairs_per_cell": LOG2_PAIRS_PER_CELL,
        },
        "rows": rows,
    }
