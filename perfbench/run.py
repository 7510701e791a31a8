"""Repository benchmark: record -> cache -> replay -> inspect.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each is there):

* ``table2-cold`` -- the eight Table 2 rows through ``run_bench`` into an
  empty trace cache under the three Figure 6 presets, then Tables 2 and 3
  and Figure 8; seeded preset order.  One cold process per pass.
* ``inspect``     -- check, Perfetto export, ``top``, link-contention
  replay and a v1 save/load round trip over seven cached default-size
  traces, and check and ``top`` on one long SP trace, all recorded
  during set-up.

Every phase runs in a child process (``worker.py``), so the peak
resident memory is read from outside, from the child's ``wait4`` usage.
A run repeats passes while another fits in ``--seconds``; ``wall_s`` is
built from each operation's fastest time over them (``pass_seconds``).
With ``--trace 0`` the end-to-end metrics are printed; with ``--trace
1`` the per-layer ones, from spans recorded around the program's public
entry points, plus the tracing overhead against an untraced run of the
same length.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
#: Where runs keep their scratch inputs (removed at exit) and spans.
OUT_DIR = ROOT / ".perfbench"
#: One BLAS thread (the host has few cores, and a second thread would
#: measure the scheduler) and a fixed string hash, so that set and dict
#: layouts repeat from run to run.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: Workers still running this long after the start are killed, so a
#: run ends within three minutes.
RUN_BUDGET_S = 170.0


@dataclass(frozen=True)
class Workload:
    name: str
    #: One fresh process per pass (else one process loops passes).
    cold: bool
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats: int
    #: Checked operations of one pass (full and tiny sizes), counted as
    #: failed when the process carrying them dies.
    ops_per_pass: int
    tiny_ops_per_pass: int


WORKLOADS = {w.name: w for w in (
    # 8 rows x (verified + 3 replays) + tables + 8 warm identities.
    Workload("table2-cold", True, 5, 41, 11),
    # 8 traces cached + 7 x 5 operations + 2 on the long trace.
    Workload("inspect", False, 3, 45, 15),
)}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

#: Rows of ``apps.run_s.<row>``.
ROWS = ("ep", "cg", "ft", "sp", "tc-st", "tc-no-st", "matmul", "scg")

PER_LAYER_UNITS = {
    "apps.run_s": "s",
    **{f"apps.run_s.{row}": "s" for row in ROWS},
    "apps.events": "count",
    "apps.events_per_s": "1/s",
    "core.puts": "count",
    "core.gets": "count",
    "core.sends": "count",
    "core.syncs": "count",
    "core.bytes": "bytes",
    "network.tnet_frames": "count",
    "hardware.queue_spills": "count",
    "trace.stats_s": "s",
    "cache.put_s": "s",
    "cache.put_bytes": "bytes",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.decode_s": "s",
    "bench.runner_other_s": "s",
    "mlsim.replay_s": "s",
    "mlsim.replays": "count",
    "mlsim.events_per_s": "1/s",
    "mlsim.small_replay_ms": "ms",
    "mlsim_ref.replay_s": "s",
    "mlsim_ref.events_per_s": "1/s",
    "obs.export_s": "s",
    "obs.export_bytes": "bytes",
    "obs.top_s": "s",
    "check.check_s": "s",
    "check.events_per_s": "1/s",
    "check.long_events_per_s": "1/s",
    "check.diagnostics": "count",
    "trace.v1_save_s": "s",
    "trace.v1_load_s": "s",
    "analysis.report_s": "s",
    "paper_err": "ln-ratio",
    "tracing_overhead_s": "s",
    "ops.p50_ms": "ms",
    "ops.tail_ms": "ms",
    "ops.samples": "count",
    "ops.tail_pct": "%",
}

#: Replays of traces shorter than this count as small.
SMALL_REPLAY_EVENTS = 1000


@dataclass
class Child:
    """Outcome of one worker process."""

    doc: dict | None
    wall_s: float
    rss_mb: float
    status: str


class Run:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.started = time.perf_counter()
        self.workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
        self.serial = 0

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.started)

    def child(self, phase: str, workdir: Path, *, trace: bool = False,
              seconds: float = 0.0, pass_index: int = 0) -> Child:
        """Run one worker phase; its wall time and peak RSS are measured
        here, from outside it."""
        self.serial += 1
        out = self.workdir / f"result-{self.serial}.json"
        argv = [sys.executable, str(WORKER), phase, self.args.workload,
                str(workdir), str(out), "--seed", str(self.args.seed),
                "--seconds", repr(seconds), "--pass-index", str(pass_index)]
        if trace:
            argv.append("--trace")
        if self.args.tiny:
            argv.append("--tiny")
        if self.args.inject_failure and phase == "measure":
            argv.append("--inject-failure")
        env = dict(os.environ, **CHILD_ENV)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdout=sys.stderr, stderr=sys.stderr)
        timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss_mb = usage.ru_maxrss / 1024.0
        if proc.returncode < 0:
            state = f"killed by {signal.Signals(-proc.returncode).name}"
        elif proc.returncode:
            state = f"exit {proc.returncode}"
        else:
            state = "ok"
        doc = json.loads(out.read_text()) if out.exists() else None
        if doc is None and state == "ok":
            state = "no result"
        if state != "ok":
            print(f"perfbench: {phase} process {state}", file=sys.stderr)
        return Child(doc, wall, rss_mb, state)

    def setup(self, index: int, trace: bool) -> Child:
        return self.child("setup", self.workdir / f"setup-{index}",
                          trace=trace)

    def measure(self, trace: bool, seconds: float) -> list[Child]:
        """Passes while another fits in ``seconds`` (at least one) on the
        first set-up's inputs.  Cold workloads start one process per pass;
        the others loop passes in one process."""
        children: list[Child] = []
        begin = time.perf_counter()
        while True:
            left = seconds - (time.perf_counter() - begin)
            if children and (not self.workload.cold
                             or left < children[-1].wall_s):
                break
            children.append(self.child(
                "measure", self.workdir / "setup-0", trace=trace,
                seconds=max(left, 0.0), pass_index=len(children)))
        return children


def tally(children: list[Child], ops_per_pass: int) -> tuple[int, int, list]:
    """Attempted and failed operations; a dead process fails its pass."""
    attempted = failed = 0
    failures = []
    for c in children:
        if c.doc is None:
            attempted += ops_per_pass
            failed += ops_per_pass
            failures.append(f"process {c.status}")
            continue
        attempted += c.doc["attempted"]
        failed += c.doc["failed"]
        failures += c.doc["failures"]
        if c.status != "ok":
            failed += 1
            attempted += 1
            failures.append(f"process {c.status}")
    return attempted, failed, failures


def passes_of(children: list[Child]) -> list[dict]:
    return [p for c in children if c.doc for p in c.doc["passes"]]


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond).  With 21 samples or fewer that
    percentile would not lie above the median, so the maximum is used."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 21:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def op_latencies(children: list[Child]) -> dict:
    """Median and tail of the operations of all passes.  They are not
    bounded: they pool operations of very different sizes, so a few
    passes more or less move them."""
    ops = [ms for p in passes_of(children) for ms in p["ops_ms"].values()]
    if not ops:
        return {"ops.p50_ms": 0.0, "ops.tail_ms": 0.0, "ops.samples": 0,
                "ops.tail_pct": 0.0}
    value, pct, _ = tail(ops)
    return {"ops.p50_ms": statistics.median(ops), "ops.tail_ms": value,
            "ops.samples": len(ops), "ops.tail_pct": pct}


def pass_seconds(children: list[Child]) -> float:
    """Seconds of one pass on an undisturbed host: the sum over the
    pass's operations of each one's fastest time in the run's passes.

    The measuring host runs the same code at two speeds: its usual one
    and, in phases of a few seconds to over a minute, 1.3-1.7 times
    slower, on each CPU and not always on both at once.  A pass's wall
    time, or a median of a few, takes in however much of the run those
    phases covered.  An operation lasts seconds at most, and passes
    alternate CPUs, so in some pass it misses them."""
    fastest: dict[str, float] = {}
    for p in passes_of(children):
        for name, ms in p["ops_ms"].items():
            fastest[name] = min(ms, fastest.get(name, math.inf))
    return sum(fastest.values()) / 1e3 if fastest else math.nan


def end_to_end(setups: list[Child], measured: list[Child]) -> dict:
    return {
        "setup_s": statistics.median(c.wall_s for c in setups),
        "wall_s": pass_seconds(measured),
        "peak_rss_mb": statistics.median(c.rss_mb for c in measured),
    }


def span_sums(spans: list[list]) -> tuple[dict[str, float], list[float]]:
    """Additive per-layer sums of one process's spans (self time is a
    span's duration minus its children's), and small-replay durations."""
    sums: dict[str, float] = {}
    small: list[float] = []

    def add(key: str, value: float) -> None:
        sums[key] = sums.get(key, 0.0) + value

    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    for i, (name, start, end, _, info) in enumerate(spans):
        duration = end - start
        own = duration - covered[i]
        add(f"{name}|self", own)
        add(f"{name}|n", 1)
        for key, value in info.items():
            if isinstance(value, (int, float)):
                add(f"{name}|{key}", float(value))
        if name == "apps":
            add(f"apps|row:{info['row']}", own)
            add("apps|incl", duration)
        if info.get("replay"):
            add(f"{name}|replay_incl", duration)
            if name == "mlsim" and info["events"] < SMALL_REPLAY_EVENTS:
                small.append(duration)
        if name == "check":
            kind = "long" if info["long"] else "short"
            add(f"check|{kind}_events", info["events"])
            add(f"check|{kind}_incl", duration)
    return sums, small


def combine(parts: list[tuple[list[dict], int]]) -> dict[str, float]:
    """Sum additive documents, each scaled down by its pass count."""
    out: dict[str, float] = {}
    for docs, divisor in parts:
        for doc in docs:
            for key, value in doc.items():
                out[key] = out.get(key, 0.0) + value / max(divisor, 1)
    return out


def per_layer(setup: Child, untraced: list[Child],
              traced: list[Child]) -> dict:
    """Per-layer metrics: one traced set-up plus the traced measure
    phase per pass."""
    n_passes = len(passes_of(traced))
    setup_sums, small = span_sums(setup.doc["spans"] if setup.doc else [])
    measure_sums = []
    for c in traced:
        if c.doc:
            sums, more = span_sums(c.doc["spans"])
            measure_sums.append(sums)
            small += more
    s = combine([([setup_sums], 1), (measure_sums, n_passes)])
    counts = combine([([setup.doc["counts"]] if setup.doc else [], 1),
                      ([c.doc["counts"] for c in traced if c.doc],
                       n_passes)])

    def get(key: str) -> float:
        return s.get(key, 0.0)

    def rate(events: str, seconds: str) -> float:
        return get(events) / get(seconds) if get(seconds) else 0.0

    info = [c.doc["info"] for c in traced if c.doc and c.doc["info"]]
    return {
        "apps.run_s": get("apps|self"),
        **{f"apps.run_s.{row}": get(f"apps|row:{row}") for row in ROWS},
        "apps.events": get("apps|events"),
        "apps.events_per_s": rate("apps|events", "apps|incl"),
        **{key: counts.get(key, 0) for key in (
            "core.puts", "core.gets", "core.sends", "core.syncs",
            "core.bytes", "network.tnet_frames", "hardware.queue_spills")},
        "trace.stats_s": get("trace.stats|self"),
        "cache.put_s": get("cache.put|self"),
        "cache.put_bytes": get("cache.put|bytes"),
        "cache.hits": get("cache.get|hit"),
        "cache.misses": get("cache.get|n") - get("cache.get|hit"),
        "cache.decode_s": get("cache.decode|self") + get("cache.load|self"),
        "bench.runner_other_s": get("bench.runner|self"),
        "mlsim.replay_s": get("mlsim|self"),
        "mlsim.replays": get("mlsim|replay"),
        "mlsim.events_per_s": rate("mlsim|events", "mlsim|replay_incl"),
        "mlsim.small_replay_ms":
            statistics.median(small) * 1e3 if small else 0.0,
        "mlsim_ref.replay_s": get("mlsim_ref|self"),
        "mlsim_ref.events_per_s":
            rate("mlsim_ref|events", "mlsim_ref|replay_incl"),
        "obs.export_s": get("obs.export|self"),
        "obs.export_bytes": get("obs.export|bytes"),
        "obs.top_s": get("obs.top|self"),
        "check.check_s": get("check|self"),
        "check.events_per_s": rate("check|short_events", "check|short_incl"),
        "check.long_events_per_s":
            rate("check|long_events", "check|long_incl"),
        "check.diagnostics": get("check|diagnostics"),
        "trace.v1_save_s": get("trace.v1_save|self"),
        "trace.v1_load_s": get("trace.v1_load|self"),
        "analysis.report_s": get("analysis|self"),
        "paper_err": statistics.median(i["paper_err"] for i in info)
        if info else 0.0,
        "tracing_overhead_s": pass_seconds(traced) - pass_seconds(untraced),
        **op_latencies(untraced),
    }


def write_spans(run: Run, setup: Child, traced: list[Child]) -> Path:
    """Write the run's spans, one list per process, when the run ends."""
    path = OUT_DIR / "spans" / (
        f"{run.args.workload}-seed{run.args.seed}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "format": "[name, start_s, end_s, parent_index, info]",
        "setup": setup.doc["spans"] if setup.doc else [],
        "measure": [c.doc["spans"] for c in traced if c.doc],
    }
    path.write_text(json.dumps(doc))
    return path


def report(args, metrics: dict, units: dict, attempted: int, failed: int,
           failures: list[str], notes: list[str]) -> None:
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {units[name]}")
    print(f"  {'fail_frac':28s} {failed / max(attempted, 1):>16.6g} "
          f"({failed}/{attempted} operations)")
    for note in notes:
        print(f"  {note}")
    for failure in failures[:20]:
        print(f"  FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny problem sizes (harness self-test)")
    parser.add_argument("--inject-failure", action="store_true",
                        help="fail one checked operation (self-test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    run = Run(args)
    run.workdir.mkdir(parents=True, exist_ok=True)
    workload = run.workload
    ops_per_pass = (workload.tiny_ops_per_pass if args.tiny
                    else workload.ops_per_pass)
    notes: list[str] = []
    try:
        if args.trace:
            setups = [run.setup(0, trace=True)]
            # Half the run untraced, half traced, for the overhead.
            untraced = run.measure(trace=False, seconds=args.seconds / 2)
            traced = run.measure(trace=True, seconds=args.seconds / 2)
            measured = untraced + traced
            metrics = per_layer(setups[0], untraced, traced)
            units = PER_LAYER_UNITS
            notes.append(f"spans: {write_spans(run, setups[0], traced)}")
        else:
            setups = [run.setup(i, trace=False)
                      for i in range(workload.setup_repeats)]
            measured = run.measure(trace=False, seconds=args.seconds)
            metrics = end_to_end(setups, measured)
            units = END_TO_END_UNITS
            ops = op_latencies(measured)
            notes.append(f"op_p50_ms {ops['ops.p50_ms']:.6g} ms, "
                         f"op_tail_ms {ops['ops.tail_ms']:.6g} ms "
                         f"(p{ops['ops.tail_pct']:.1f} of "
                         f"{ops['ops.samples']} operations)")
            notes.append(f"passes: {len(passes_of(measured))}, set-ups: "
                         f"{len(setups)} (setup_s is their median)")
            info = [c.doc["info"] for c in measured if c.doc
                    and "paper_err" in c.doc["info"]]
            if info:
                notes.append(f"paper_err (simulated): "
                             f"{info[0]['paper_err']:.6f}")
        attempted, failed, failures = tally(setups + measured,
                                            ops_per_pass)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)

    report(args, metrics, units, attempted, failed, failures, notes)
    correct = failed == 0 and all(math.isfinite(v) for v in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
