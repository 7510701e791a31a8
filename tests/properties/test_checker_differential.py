"""Differential properties of the dynamic checker on generated traces.

The happens-before replay joins, on each flag wait, only the increments
its cell has not joined before, and the race sweep tests only pairs
with a write.  Both must give exactly what the direct rules give:

* clocks, covering waits and whole reports equal those of an oracle
  replay that re-joins every needed increment on every wait;
* ``covering_wait`` equals a linear scan of the satisfied waits;
* ``find_races`` equals a sweep over all pairs of accesses.

Schedules stress the cumulative-flag idiom — ramps of rising targets,
repeated and falling targets, several cells waiting on one flag — mixed
with barriers, reductions, SEND/RECV and unsatisfiable waits, so the
stall path runs too.
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check import hb as hb_mod
from repro.check.hb import build_happens_before
from repro.check.races import _conflict, extract_accesses, find_races
from repro.check.runner import check_trace
from repro.core.flags import MAX_FLAGS_PER_PE
from repro.trace.buffer import TraceBuffer
from repro.trace.events import EventKind, TraceEvent

#: Flag instances: two slots on cell 0 and one on cell 1.
FLAGS = (1, 2, MAX_FLAGS_PER_PE + 1)


class _RejoinAll(hb_mod._Replay):
    """Oracle: forget what each cell joined before every wait, so each
    wait joins (and checks) every increment its target needs."""

    def _process_wait(self, pe, i, ev):
        self.joined[pe].clear()
        return super()._process_wait(pe, i, ev)


def footprints():
    return st.tuples(
        st.sampled_from((0, 16, 32)),
        st.sampled_from((8, 16)),
        st.integers(1, 3),
        st.integers(1, 2),
    ).map(lambda t: (t[0], t[1], t[2], t[1] * t[3]))


def steps(n):
    pe = st.integers(0, n - 1)
    flag = st.sampled_from(FLAGS)
    return st.one_of(
        st.tuples(st.sampled_from(("put", "get")), pe, pe, flag,
                  footprints()),
        st.tuples(st.just("wait"), pe, flag, st.integers(0, 6)),
        st.tuples(st.just("ramp"), pe, flag, st.integers(1, 6)),
        st.tuples(st.just("barrier"), st.permutations(range(n))),
        st.tuples(st.just("gop"), st.permutations(range(n)),
                  st.booleans()),
        st.tuples(st.just("lone-barrier"), pe),
        st.tuples(st.just("send"), pe, pe, st.booleans()),
        st.tuples(st.just("store"), pe, pe, footprints()),
        st.tuples(st.just("compute"), pe),
    )


@st.composite
def traces(draw):
    n = draw(st.integers(2, 4))
    plan = draw(st.lists(steps(n), min_size=1, max_size=30))
    trace = TraceBuffer(n, attach_sink=False)
    rec = trace.record
    msg = 0
    for step in plan:
        op = step[0]
        if op in ("put", "get"):
            _, src, dst, iid, (base, chunk, count, stride) = step
            rec(TraceEvent(
                EventKind.PUT if op == "put" else EventKind.GET, src,
                partner=dst, size=chunk * count, recv_flag=iid,
                raddr=base, rchunk=chunk, rcount=count, rstep=stride,
                laddr=base + 64, lchunk=chunk, lcount=count,
                lstep=stride))
        elif op == "wait":
            _, p, iid, target = step
            rec(TraceEvent(EventKind.FLAG_WAIT, p, flag=iid,
                           target=target))
        elif op == "ramp":
            _, p, iid, top = step
            for target in range(1, top + 1):
                rec(TraceEvent(EventKind.FLAG_WAIT, p, flag=iid,
                               target=target))
        elif op == "barrier":
            for p in step[1]:
                rec(TraceEvent(EventKind.BARRIER, p, group_size=n))
        elif op == "gop":
            _, order, mixed = step
            for p in order:
                kind = (EventKind.VGOP if mixed and p == order[0]
                        else EventKind.GOP)
                rec(TraceEvent(kind, p, size=8, group_size=n))
        elif op == "lone-barrier":
            rec(TraceEvent(EventKind.BARRIER, step[1], group_size=n))
        elif op == "send":
            _, src, dst, recv_first = step
            msg += 1
            send = TraceEvent(EventKind.SEND, src, partner=dst, size=8,
                              msg_id=msg)
            recv = TraceEvent(EventKind.RECV, dst, partner=src, size=8,
                              msg_id=msg)
            for ev in ((recv, send) if recv_first else (send, recv)):
                rec(ev)
        elif op == "store":
            _, src, dst, (base, chunk, count, stride) = step
            rec(TraceEvent(EventKind.REMOTE_STORE, src, partner=dst,
                           size=chunk, raddr=base, rchunk=chunk,
                           rcount=count, rstep=stride))
        else:
            rec(TraceEvent(EventKind.COMPUTE, step[1], work=1.0))
    return trace


def linear_covering_wait(hb, iid, k):
    for target, key in hb._covering.get(iid, []):
        if target >= k:
            return key
    return None


def all_pairs_races(hb, accesses):
    """Every pair on one home with a write, oriented as the sweep does
    (the later access in (lo, seq) order first)."""
    found = []
    for home in sorted({a.home for a in accesses}):
        group = sorted((a for a in accesses if a.home == home),
                       key=lambda a: (a.fp.lo, a.ev.seq))
        for j, acc in enumerate(group):
            for other in group[:j]:
                if acc.is_write or other.is_write:
                    diag = _conflict(hb, home, acc, other)
                    if diag is not None:
                        found.append(diag)
    return found


def canonical(diagnostics):
    return sorted((d.to_dict() for d in diagnostics), key=repr)


SETTINGS = settings(max_examples=200, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(traces())
def test_replay_matches_rejoin_all_oracle(trace):
    fast = build_happens_before(trace)
    oracle = _RejoinAll(trace).run()
    assert fast.clock == oracle.clock
    assert fast._covering == oracle._covering
    assert ([d.to_dict() for d in fast.diagnostics]
            == [d.to_dict() for d in oracle.diagnostics])


@SETTINGS
@given(traces())
def test_check_report_matches_rejoin_all_oracle(trace):
    fast = check_trace(trace, "generated").to_dict()
    with mock.patch.object(hb_mod, "_Replay", _RejoinAll):
        oracle = check_trace(trace, "generated").to_dict()
    assert fast == oracle


@SETTINGS
@given(traces())
def test_covering_wait_matches_linear_scan(trace):
    hb = build_happens_before(trace)
    for iid in FLAGS:
        top = len(hb.flag_increments.get(iid, ())) + 2
        for k in range(1, top):
            assert hb.covering_wait(iid, k) == linear_covering_wait(
                hb, iid, k)


@SETTINGS
@given(traces())
def test_race_sweep_matches_all_pairs(trace):
    hb = build_happens_before(trace)
    accesses = extract_accesses(hb)
    assert canonical(find_races(hb, accesses)) == canonical(
        all_pairs_races(hb, accesses))
