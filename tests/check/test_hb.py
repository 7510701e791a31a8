"""Unit tests for the happens-before reconstruction: barrier and flag
edges, collective mismatch detection, flag deadlocks, and the cost of
the cumulative flag-wait idiom."""

import pytest

from repro.check import hb as hb_mod
from repro.core.errors import DeadlockError
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.trace.buffer import TraceBuffer
from repro.trace.events import EventKind, TraceEvent
from repro.check.hb import build_happens_before, hb_report


def run(program, cells, expect_deadlock=False):
    machine = Machine(MachineConfig(
        num_cells=cells, memory_per_cell=1 << 20, sanitize=True))
    if expect_deadlock:
        with pytest.raises(DeadlockError):
            machine.run(program)
    else:
        machine.run(program)
    return machine.trace


def keys_of_kind(hb, kind):
    return [
        (pe, i)
        for pe in range(hb.num_pes)
        for i, ev in enumerate(hb.events[pe])
        if ev.kind is kind
    ]


class TestBarrierEdges:
    def test_barrier_orders_across_cells(self):
        def program(ctx):
            ctx.compute(1.0)
            yield from ctx.barrier()
            ctx.compute(1.0)

        hb = build_happens_before(run(program, 3))
        before = keys_of_kind(hb, EventKind.COMPUTE)
        # Each pe: compute at index 0, barrier at 1, compute at 2.
        for pe_a in range(3):
            for pe_b in range(3):
                assert hb.happens_before((pe_a, 0), (pe_b, 2))

    def test_no_order_without_sync(self):
        def program(ctx):
            ctx.compute(1.0)
            if False:
                yield

        hb = build_happens_before(run(program, 2))
        assert not hb.happens_before((0, 0), (1, 0))
        assert not hb.happens_before((1, 0), (0, 0))

    def test_program_order_always_holds(self):
        def program(ctx):
            ctx.compute(1.0)
            ctx.compute(1.0)
            if False:
                yield

        hb = build_happens_before(run(program, 1))
        assert hb.happens_before((0, 0), (0, 1))
        assert not hb.happens_before((0, 1), (0, 0))


class TestFlagEdges:
    def test_flag_wait_orders_put_before_reader(self):
        def program(ctx):
            buf = ctx.alloc(8)
            src = ctx.alloc(8)
            flag = ctx.alloc_flag()
            yield from ctx.barrier()
            if ctx.pe == 1:
                ctx.put(0, buf, src, recv_flag=flag)
                ctx.compute(1.0)
            if ctx.pe == 0:
                yield from ctx.flag_wait(flag, 1)
                ctx.compute(1.0)

        hb = build_happens_before(run(program, 2))
        puts = keys_of_kind(hb, EventKind.PUT)
        waits = keys_of_kind(hb, EventKind.FLAG_WAIT)
        assert len(puts) == 1 and len(waits) == 1
        assert hb.happens_before(puts[0], waits[0])
        # The PUT orders before everything after the wait on pe 0 ...
        pe0_compute = [k for k in keys_of_kind(hb, EventKind.COMPUTE)
                       if k[0] == 0]
        assert hb.happens_before(puts[0], pe0_compute[0])
        # ... but the waiter is NOT ordered before the sender's later
        # work (one-sided: only the flag edge exists).
        pe1_compute = [k for k in keys_of_kind(hb, EventKind.COMPUTE)
                       if k[0] == 1]
        assert not hb.happens_before(waits[0], pe1_compute[0])


class TestDiagnostics:
    def test_flag_deadlock_reported(self):
        def program(ctx):
            buf = ctx.alloc(8)
            src = ctx.alloc(8)
            flag = ctx.alloc_flag()
            yield from ctx.barrier()
            if ctx.pe == 1:
                ctx.put(0, buf, src, recv_flag=flag)
            if ctx.pe == 0:
                yield from ctx.flag_wait(flag, 2)

        trace = run(program, 2, expect_deadlock=True)
        _, report = hb_report(trace, "t")
        assert "FLAG-DEADLOCK" in report.codes()

    def test_barrier_mismatch_reported(self):
        def program(ctx):
            yield from ctx.barrier()
            if ctx.pe != 0:
                yield from ctx.barrier()

        trace = run(program, 3, expect_deadlock=True)
        _, report = hb_report(trace, "t")
        assert "BARRIER-MISMATCH" in report.codes()
        [diag] = [d for d in report.diagnostics
                  if d.code == "BARRIER-MISMATCH"]
        assert "cells [0]" in diag.message

    def test_reduction_mismatch_on_kind_mix(self):
        import numpy as np

        def program(ctx):
            if ctx.pe == 0:
                yield from ctx.gop(1.0)
            else:
                yield from ctx.vgop(np.ones(4))

        trace = run(program, 2)
        _, report = hb_report(trace, "t")
        assert "REDUCTION-MISMATCH" in report.codes()

    def test_clean_program_clean_report(self):
        def program(ctx):
            yield from ctx.barrier()
            total = yield from ctx.gop(float(ctx.pe))
            yield from ctx.barrier()
            return total

        _, report = hb_report(run(program, 4), "t")
        assert report.clean


class TestIncrementBookkeeping:
    def test_covering_wait_found(self):
        def program(ctx):
            buf = ctx.alloc(8)
            src = ctx.alloc(8)
            flag = ctx.alloc_flag()
            yield from ctx.barrier()
            if ctx.pe == 1:
                ctx.put(0, buf, src, recv_flag=flag)
            if ctx.pe == 0:
                yield from ctx.flag_wait(flag, 1)

        hb = build_happens_before(run(program, 2))
        [put] = keys_of_kind(hb, EventKind.PUT)
        ev = hb.events[put[0]][put[1]]
        k = hb.increment_index(ev.recv_flag, put)
        wait = hb.covering_wait(ev.recv_flag, k)
        assert wait is not None and wait[0] == 0

    def test_unsatisfied_wait_is_not_covering(self):
        def program(ctx):
            buf = ctx.alloc(8)
            src = ctx.alloc(8)
            flag = ctx.alloc_flag()
            yield from ctx.barrier()
            if ctx.pe == 1:
                ctx.put(0, buf, src, recv_flag=flag)
            if ctx.pe == 0:
                yield from ctx.flag_wait(flag, 5)

        trace = run(program, 2, expect_deadlock=True)
        hb = build_happens_before(trace)
        [put] = keys_of_kind(hb, EventKind.PUT)
        ev = hb.events[put[0]][put[1]]
        k = hb.increment_index(ev.recv_flag, put)
        assert hb.covering_wait(ev.recv_flag, k) is None


def synth(num_pes, events):
    """A trace holding ``events`` in issue order (seq = list position)."""
    trace = TraceBuffer(num_pes, attach_sink=False)
    for ev in events:
        trace.record(ev)
    return trace


def put(pe, dst, flag):
    return TraceEvent(EventKind.PUT, pe, partner=dst, size=8,
                      recv_flag=flag)


def wait(pe, flag, target):
    return TraceEvent(EventKind.FLAG_WAIT, pe, flag=flag, target=target)


class TestCumulativeWaitCost:
    """Waits for targets 1, 2, ..., N on one flag — the MSC+ cumulative
    counter idiom — must join each increment once, not N(N+1)/2 times."""

    N = 2000
    FLAG = 1

    def trace(self):
        events = []
        for k in range(1, self.N + 1):
            events.append(put(1, 0, self.FLAG))
            events.append(wait(0, self.FLAG, k))
        return synth(2, events)

    def test_join_count_is_linear(self, monkeypatch):
        joined = []
        original = hb_mod._Replay._join

        def counting(self, pe, keys):
            keys = list(keys)
            joined.append(len(keys))
            original(self, pe, keys)

        monkeypatch.setattr(hb_mod._Replay, "_join", counting)
        hb = build_happens_before(self.trace())
        waits = self.N
        assert sum(joined) <= self.N + waits
        assert not hb.diagnostics
        # Still exact: the k-th wait is ordered after the k-th PUT and
        # not after the (k+1)-th.
        for k in (1, self.N // 2, self.N - 1):
            assert hb.happens_before((1, k - 1), (0, k - 1))
            assert not hb.happens_before((1, k), (0, k - 1))

    def test_covering_wait_is_first_covering_target(self):
        # Targets 2, 1, 3: the first satisfied wait whose target covers
        # k, in program order, with a falling target in between.
        hb = build_happens_before(synth(2, [
            put(1, 0, 1), put(1, 0, 1), put(1, 0, 1),
            wait(0, 1, 2), wait(0, 1, 1), wait(0, 1, 3),
        ]))
        assert hb.covering_wait(1, 1) == (0, 0)
        assert hb.covering_wait(1, 2) == (0, 0)
        assert hb.covering_wait(1, 3) == (0, 2)
        assert hb.covering_wait(1, 4) is None
        assert hb.covering_wait(2, 1) is None


class TestStallRelease:
    def test_forced_release_does_not_count_as_joined(self):
        # Cell 0 waits for two increments of F, but the second PUT comes
        # from cell 1 only after cell 1 sees G, which cell 0 increments
        # after its wait: a cycle.  The replay force-releases cell 0
        # with only the first increment joined; cell 0's next wait on F
        # must still join the second.
        f, g = 1, 2
        trace = synth(2, [
            put(1, 0, f),       # (1, 0): increment 1 of F
            wait(0, f, 2),      # (0, 0): stalls
            wait(1, g, 1),      # (1, 1): stalls
            put(0, 1, g),       # (0, 1): increment of G
            put(1, 0, f),       # (1, 2): increment 2 of F
            wait(0, f, 2),      # (0, 2)
        ])
        hb, report = hb_report(trace, "stall")
        assert "SYNC-STALL" in report.codes()
        assert hb.happens_before((1, 0), (0, 0))
        assert not hb.happens_before((1, 2), (0, 0))
        assert hb.happens_before((1, 2), (0, 2))
