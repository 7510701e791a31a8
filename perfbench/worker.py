"""One phase of one benchmark workload, run in a process of its own.

``run.py`` starts this file with ``src`` on ``PYTHONPATH``; it never
runs in run.py's own process, so peak memory is measured from
outside and a cold workload really starts cold.  Phases:

* ``setup``   -- derive the workload's inputs from the seed and prepare
  them in WORKDIR (for ``inspect``: record and cache the traces).
* ``measure`` -- run timed passes over the prepared inputs, check every
  output, and write the result document to OUT.

Usage: ``worker.py PHASE WORKLOAD WORKDIR OUT [options]`` (see
``--help``).  The result is JSON: ``passes`` (``wall_s`` and per-op
milliseconds each), ``attempted``/``failed``/``failures``, exact
simulated ``counts``, ``info`` and, with ``--trace``, the recorded
``spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import shutil
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402

from repro.analysis.figures import figure8_bars, render_figure8  # noqa: E402
from repro.analysis.tables import (  # noqa: E402
    format_table2,
    format_table3,
    table2_rows,
    table3_rows,
)
from repro.apps.workloads import ORDER  # noqa: E402
from repro.bench import (  # noqa: E402
    ALL_PRESETS,
    BENCH_CONFIGS,
    BenchSpec,
    TraceCache,
    results_bytes,
    run_bench,
    workload_specs,
)
from repro.check.runner import check_trace  # noqa: E402
from repro.core.errors import ReproError  # noqa: E402
from repro.mlsim.params import preset  # noqa: E402
from repro.mlsim.simulator import simulate  # noqa: E402
from repro.obs.export import export_trace  # noqa: E402
from repro.obs.top import replay_for_top  # noqa: E402
from repro.trace.io import load_trace, save_trace  # noqa: E402

#: Table 2 rows at BENCH_CONFIGS cell counts and shapes, with iteration
#: counts cut so five or more cold passes fit a run (SCG's tolerance is
#: loosened for the same reason: it iterates to convergence).
TABLE2_TRIM = {
    "CG": dict(outer=2),
    "FT": dict(iters=1),
    "SP": dict(iters=2),
    "TC st": dict(iters=1),
    "TC no st": dict(iters=1),
    "SCG": dict(tol=1e-1),
}
TINY_TABLE2 = {
    "EP": dict(num_cells=4, log2_pairs=8),
    "MatMul": dict(num_cells=4, n=32),
}
TINY_APPS = ("EP", "MatMul")
#: The default-size rows ``inspect`` works on: all but TC without
#: stride, whose 60k-event trace took half of every pass and left room
#: for only three passes in a run, too few for a steady figure.
INSPECT_APPS = tuple(a for a in ORDER if a != "TC no st")
#: The long trace of ``inspect``: SP at its Table 2 shape on 32 cells,
#: with the fewest iterations SP verifies (two: it checks convergence).
LONG_SUBJECT = "SP-long"
LONG_SP = BenchSpec("SP", 32, dict(shape=(64, 64, 64), iters=2))
TINY_LONG_SP = BenchSpec("SP", 8, dict(shape=(32, 12, 12), iters=2))
#: Seeded orders drawn per run (of the presets each ``table2-cold`` row
#: is replayed under, of the traces of an ``inspect`` pass); pass ``i``
#: uses order ``i % ORDERS``.
ORDERS = 64
#: Operations of one ``inspect`` pass, each over every trace, in run order
#: (check and the v1 round trip come first: the replays coalesce the
#: trace's compute events in place).
INSPECT_OPS = ("check", "v1", "top", "contention", "export")
#: Operations applied to the long trace: the checker, whose rate falls
#: with trace length, and one event-object replay.  The others cost
#: seconds on it and would leave room for too few passes in a run.
LONG_OPS = ("check", "top")
INSPECT_PRESET = "ap1000+"
#: The CPUs this process may run on, taken before any pass pins it.
CPUS = sorted(os.sched_getaffinity(0))


def slug(app: str) -> str:
    return app.lower().replace(" ", "-")


def spec_from(app: str, config: dict) -> BenchSpec:
    config = dict(config)
    return BenchSpec(app=app, num_cells=config.pop("num_cells"),
                     params=config)


def table2_specs(tiny: bool) -> dict[str, BenchSpec]:
    if tiny:
        return {a: spec_from(a, c) for a, c in TINY_TABLE2.items()}
    return {a: spec_from(a, {**BENCH_CONFIGS[a], **TABLE2_TRIM.get(a, {})})
            for a in ORDER}


def inspect_specs(tiny: bool) -> list[BenchSpec]:
    """The default-size (``repro report``) rows, then the long SP trace."""
    if tiny:
        return workload_specs(names=TINY_APPS) + [TINY_LONG_SP]
    return workload_specs(names=INSPECT_APPS) + [LONG_SP]


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def install_tracer() -> Tracer:
    """Wrap the program's public entry points, one span name per layer."""
    from repro.bench import cache, grid, runner
    from repro.check import runner as check_runner
    from repro.mlsim import engine, engine_soa, simulator
    from repro.obs import export, top
    from repro.trace import stats

    tracer = Tracer()
    tracer.wrap(grid.BenchSpec, "run", "apps", lambda a, k, r: {
        "row": slug(a[0].app), "events": r.trace.total_events})
    tracer.wrap(runner, "run_bench", "bench.runner")
    tracer.wrap(stats, "collect_statistics", "trace.stats")
    tracer.wrap(cache.TraceCache, "put", "cache.put", lambda a, k, r: {
        "bytes": dir_bytes(r.trace_path.parent)})
    tracer.wrap(cache.TraceCache, "get", "cache.get", lambda a, k, r: {
        "hit": r is not None})
    tracer.wrap(cache, "load_cached_columns", "cache.decode",
                lambda a, k, r: {"events": r.total_events})
    tracer.wrap(engine_soa, "replay_columns", "mlsim", lambda a, k, r: {
        "replay": 1, "events": a[0].total_events})
    tracer.wrap(simulator, "simulate", lambda a, k: (
        "mlsim_ref" if k.get("link_contention") else "mlsim"))
    tracer.wrap(engine.MLSimEngine, "run", "mlsim_ref", lambda a, k, r: {
        "replay": 1, "events": a[0].trace.total_events})
    tracer.wrap(check_runner, "check_trace", "check", lambda a, k, r: {
        "events": a[0].total_events, "diagnostics": len(r.diagnostics),
        "long": a[1] == LONG_SUBJECT})
    tracer.wrap(export, "export_trace", "obs.export", lambda a, k, r: {
        "bytes": len(r)})
    tracer.wrap(top, "replay_for_top", "obs.top")
    return tracer


class Recorder:
    """Pass walls, op latencies, failures and exact counts of a phase."""

    def __init__(self, tracer: Tracer | None, inject_failure: bool) -> None:
        self.tracer = tracer
        self.inject_failure = inject_failure
        self.passes: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counts: dict[str, int] = {}
        self.info: dict = {}

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext({})
        return self.tracer.span(name)

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; a failed check is recorded."""
        if self.inject_failure:
            ok, self.inject_failure = False, False
            what += " (injected)"
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def error(self, what: str, exc: BaseException, lost: int = 1) -> None:
        """An operation raised: it and the ``lost`` - 1 checks it would
        have carried count as failed."""
        self.attempted += lost
        self.failed += lost
        self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
        if not isinstance(exc, ReproError):
            traceback.print_exc(file=sys.stderr)

    def add_counts(self, statistics: dict, machine: dict) -> None:
        """Exact simulated counts of one recorded trace."""
        n = statistics["num_pes"]
        puts = round((statistics["put_per_pe"]
                      + statistics["puts_per_pe"]) * n)
        gets = round((statistics["get_per_pe"]
                      + statistics["gets_per_pe"]) * n)
        new = {
            "core.puts": puts,
            "core.gets": gets,
            "core.sends": round(statistics["send_per_pe"] * n),
            "core.syncs": round(statistics["sync_per_pe"] * n),
            "core.bytes": round(statistics["avg_message_bytes"]
                                * (puts + gets)),
            "network.tnet_frames": machine["network"]["tnet_injected"],
            "hardware.queue_spills": machine["queues"]["spilled"],
        }
        for key, value in new.items():
            self.counts[key] = self.counts.get(key, 0) + int(value)

    def add_artifact_counts(self, artifact) -> None:
        for row in artifact.results()["apps"].values():
            self.add_counts(row["statistics"], row["metrics"]["machine"])

    def document(self) -> dict:
        return {
            "passes": self.passes,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "counts": self.counts,
            "info": self.info,
            "spans": self.tracer.spans if self.tracer else [],
        }


def finite_positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


def pin_pass(pass_index: int) -> None:
    """Run pass ``i`` on the ``i``-th CPU in turn.  The host slows each
    of its CPUs for seconds to minutes at a time, not always together,
    so alternating lets an operation's fastest time come from whichever
    CPU was not slowed.  One process runs at a time either way."""
    os.sched_setaffinity(0, {CPUS[pass_index % len(CPUS)]})


# ---------------------------------------------------------------- set-up


def setup(workload_name: str, workdir: Path, seed: int, tiny: bool,
          rec: Recorder) -> None:
    """Write the seeded inputs; for ``inspect`` also record and cache
    the traces, checking that every row verifies.

    ``table2-cold`` keeps the Table 2 row order and permutes each row's
    presets: a process's peak memory depends on the row order (see the
    known findings in BASELINE.md), so a seeded row order would make
    ``peak_rss_mb`` measure the order drawn."""
    rng = random.Random(seed)
    if workload_name == "table2-cold":
        inputs = {"presets": [rng.sample(ALL_PRESETS, len(ALL_PRESETS))
                              for _ in range(ORDERS)]}
    else:
        specs = inspect_specs(tiny)
        cache_dir = workdir / "cache"
        # run_bench refuses a grid naming one app twice, so the long SP
        # trace is recorded by a second call into the same cache.
        for grid in (specs[:-1], specs[-1:]):
            try:
                outcome = run_bench(grid, preset_names=(),
                                    cache_dir=cache_dir, grid_name="setup")
            except ReproError as exc:
                rec.error("record", exc, lost=len(grid))
                continue
            for spec in grid:
                rec.check(outcome.artifact.apps[spec.app].verified,
                          f"{spec.app} unverified")
            rec.add_artifact_counts(outcome.artifact)
        inputs = {"specs": [[s.app, s.config()] for s in specs],
                  "orders": [rng.sample(range(len(specs)), len(specs))
                             for _ in range(ORDERS)]}
    (workdir / "inputs.json").write_text(json.dumps(inputs))


def load_specs(inputs: dict) -> list[BenchSpec]:
    return [spec_from(app, {k: tuple(v) if isinstance(v, list) else v
                            for k, v in config.items()})
            for app, config in inputs["specs"]]


# --------------------------------------------------------------- measure


def measure_table2(workdir: Path, inputs: dict, tiny: bool,
                   rec: Recorder, pass_index: int) -> None:
    """One cold pass: every row through run_bench into an empty cache,
    then Tables 2 and 3 and Figure 8; then the same rows again from the
    now-warm cache, whose results must be byte-identical."""
    pin_pass(pass_index)
    specs = table2_specs(tiny)
    presets = tuple(inputs["presets"][pass_index % ORDERS])
    cache_dir = workdir / f"cache-{pass_index}"
    cold: dict[str, bytes] = {}
    comparisons: dict = {}
    runs: dict = {}
    ops: dict[str, float] = {}
    start = time.perf_counter()
    for app, spec in specs.items():
        t0 = time.perf_counter()
        try:
            outcome = run_bench([spec], presets, cache_dir=cache_dir,
                                grid_name="table2-cold")
        except ReproError as exc:
            rec.error(app, exc, lost=1 + len(ALL_PRESETS))
            continue
        ops[slug(app)] = (time.perf_counter() - t0) * 1e3
        rec.check(outcome.all_verified, f"{app} unverified")
        for name, result in outcome.replays[app].items():
            rec.check(finite_positive(result.elapsed_us),
                      f"{app}/{name} elapsed {result.elapsed_us}")
        cold[app] = results_bytes(outcome.artifact)
        comparisons.update(outcome.comparisons)
        runs.update(outcome.runs)
        rec.add_artifact_counts(outcome.artifact)
    t0 = time.perf_counter()
    with rec.span("analysis"):
        rows = table2_rows(comparisons)
        report = "\n\n".join([
            format_table2(rows),
            format_table3(table3_rows(runs)),
            render_figure8(figure8_bars(comparisons)),
        ])
    wall = time.perf_counter() - start
    ops["analysis"] = (time.perf_counter() - t0) * 1e3
    errors = [abs(math.log(got / paper))
              for r in rows
              for got, paper in ((r.ap1000_plus, r.paper_plus),
                                 (r.ap1000_fast, r.paper_fast))]
    paper_err = sum(errors) / len(errors) if errors else math.nan
    rec.check(math.isfinite(paper_err) and bool(report),
              f"paper_err {paper_err}")
    rec.info["paper_err"] = paper_err
    rec.passes.append({"wall_s": wall, "ops_ms": ops})
    # Free the machines before the warm check, which is not part of the
    # pass and should not add to its peak memory.
    del runs
    for app, expected in cold.items():
        try:
            warm = run_bench([specs[app]], presets, cache_dir=cache_dir,
                             grid_name="table2-cold")
        except ReproError as exc:
            rec.error(f"{app} warm", exc)
            continue
        rec.check(results_bytes(warm.artifact) == expected,
                  f"{app}: cache-hit results differ from the cold run")
    shutil.rmtree(cache_dir, ignore_errors=True)


def inspect_trace(op: str, trace, subject: str, scratch: Path,
                  rec: Recorder, params) -> bool:
    """Run one inspection operation; True when its output is right."""
    if op == "check":
        report = check_trace(trace, subject)
        return report.clean
    if op == "v1":
        with rec.span("trace.v1_save"):
            save_trace(trace, scratch)
        with rec.span("trace.v1_load"):
            loaded = load_trace(scratch)
        scratch.unlink()
        return (loaded.num_pes == trace.num_pes
                and loaded.total_events == trace.total_events)
    if op == "top":
        return finite_positive(replay_for_top(trace, params).elapsed_us)
    if op == "contention":
        result = simulate(trace, params, link_contention=True)
        return finite_positive(result.elapsed_us)
    text = export_trace(trace, params)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return False
    return bool(doc.get("traceEvents"))


def measure_inspect(workdir: Path, inputs: dict, rec: Recorder,
                    seconds: float) -> None:
    """Passes while another fits in ``seconds``: every cached trace
    loaded, then each inspection operation applied to all of them,
    traces in seeded order.  Each load and each operation on one trace
    is timed on its own."""
    cache = TraceCache(workdir / "cache")
    specs = load_specs(inputs)
    params = preset(INSPECT_PRESET)
    scratch = workdir / "v1.jsonl"
    begin = time.perf_counter()
    while not rec.passes or (time.perf_counter() - begin
                             + rec.passes[-1]["wall_s"] <= seconds):
        pin_pass(len(rec.passes))
        ops: dict[str, float] = {}
        start = time.perf_counter()
        traces = []
        for index in inputs["orders"][len(rec.passes) % ORDERS]:
            spec = specs[index]
            subject = LONG_SUBJECT if index == len(specs) - 1 else spec.app
            t0 = time.perf_counter()
            with rec.span("cache.load"):
                record = cache.get(spec.app, spec.config())
                trace = record.trace if record is not None else None
            ops[f"load/{subject}"] = (time.perf_counter() - t0) * 1e3
            if rec.check(trace is not None, f"{subject} not cached"):
                traces.append((subject, trace))
        for op in INSPECT_OPS:
            for subject, trace in traces:
                if subject == LONG_SUBJECT and op not in LONG_OPS:
                    continue
                t0 = time.perf_counter()
                try:
                    ok = inspect_trace(op, trace, subject, scratch, rec,
                                       params)
                except ReproError as exc:
                    rec.error(f"{subject} {op}", exc)
                    continue
                ops[f"{op}/{subject}"] = (time.perf_counter() - t0) * 1e3
                rec.check(ok, f"{subject} {op}: wrong output")
        rec.passes.append({"wall_s": time.perf_counter() - start,
                           "ops_ms": ops})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("setup", "measure"))
    parser.add_argument("workload")
    parser.add_argument("workdir", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--inject-failure", action="store_true")
    args = parser.parse_args(argv)
    tracer = install_tracer() if args.trace else None
    rec = Recorder(tracer, args.inject_failure)
    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.phase == "setup":
            setup(args.workload, args.workdir, args.seed, args.tiny, rec)
        else:
            inputs = json.loads((args.workdir / "inputs.json").read_text())
            if args.workload == "table2-cold":
                measure_table2(args.workdir, inputs, args.tiny, rec,
                               args.pass_index)
            else:
                measure_inspect(args.workdir, inputs, rec, args.seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
    args.out.write_text(json.dumps(rec.document()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
