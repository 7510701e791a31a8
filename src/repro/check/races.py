"""One-sided data-race detection over sanitized traces.

Every annotated PUT/GET contributes *accesses*: byte footprints touched
on some cell's memory, each with an **issue** event and a **completion**
event.  Two accesses to overlapping bytes on the same cell, at least one
a write, race unless one *completes* before the other *issues* in the
happens-before order — the definition matching the AP1000+ memory
model, where a PUT is globally visible only once a covering flag wait
(or an acknowledge on the same T-net channel) has returned.

Completion rules:

* **PUT remote write** — the first flag wait on the destination whose
  target covers this PUT's increment of its receive flag; or, via the
  per-(source, destination) T-net FIFO, the completion of any *later*
  transfer on the same channel (the acknowledge idiom: an acked or
  flagged successor proves every predecessor arrived).
* **GET remote read / local write** — the wait covering the GET's
  receive-flag increment (the reply cannot land before the remote read
  happened), with the same FIFO inheritance among one requester's GETs
  to one target.
* **PUT local source read** — completes at issue.  The functional
  machine consumes the source synchronously; modeling the hardware's
  asynchronous send DMA would need send-flag discipline no shipped
  kernel (or the paper's runtime) uses for sources it immediately
  reuses.
* **REMOTE_LOAD / REMOTE_STORE** — complete at issue.  These are
  single-word processor accesses to shared space; the MSC+ generates
  and retires them synchronously (section 4.2).

Accesses on the same channel never race each other: the T-net delivers
in order per (source, destination) pair.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.trace.events import EventKind, TraceEvent
from repro.check.diagnostics import CheckReport, Diagnostic, EventRef
from repro.check.hb import EventKey, HBResult

Channel = tuple[str, int, int]


@dataclass(frozen=True)
class Footprint:
    """``count`` chunks of ``chunk`` bytes; chunk i starts at
    ``base + i * step``."""

    base: int
    chunk: int
    count: int
    step: int

    @property
    def lo(self) -> int:
        return self.base

    @property
    def hi(self) -> int:
        if self.count == 0 or self.chunk == 0:
            return self.base
        return self.base + self.step * (self.count - 1) + self.chunk

    def is_empty(self) -> bool:
        return self.count == 0 or self.chunk == 0

    def _hits_interval(self, lo: int, hi: int) -> bool:
        """Does any chunk intersect the byte interval [lo, hi)?"""
        if self.is_empty() or hi <= lo:
            return False
        if self.count == 1 or self.step <= 0:
            return self.base < hi and self.base + self.chunk > lo
        # Chunk i intersects iff  base + i*step < hi  and
        # base + i*step + chunk > lo.
        i_hi = (hi - self.base - 1) // self.step
        i_lo = -((self.base + self.chunk - lo - 1) // self.step)
        return max(i_lo, 0) <= min(i_hi, self.count - 1)

    def overlaps(self, other: "Footprint") -> bool:
        """Precise chunk-level intersection (span overlap is necessary
        but not sufficient: interleaved strided columns are disjoint)."""
        if self.lo >= other.hi or other.lo >= self.hi:
            return False
        a, b = (self, other) if self.count <= other.count else (other, self)
        for i in range(a.count):
            lo = a.base + i * a.step
            if b._hits_interval(lo, lo + a.chunk):
                return True
        return False

    def intersection_span(self, other: "Footprint") -> tuple[int, int]:
        return max(self.lo, other.lo), min(self.hi, other.hi)


@dataclass
class Access:
    """One side of a transfer: bytes touched on ``home``'s memory."""

    key: EventKey
    ev: TraceEvent
    home: int
    fp: Footprint
    is_write: bool
    #: T-net FIFO this access rides, or None (no ordering channel).
    channel: Channel | None = None
    #: True when the access is complete at its own issue event.
    sync: bool = False
    #: Earliest known completion wait per PE (after FIFO inheritance).
    completions: dict[int, EventKey] = field(default_factory=dict)


def _remote_fp(ev: TraceEvent) -> Footprint | None:
    if ev.raddr < 0:
        return None
    return Footprint(ev.raddr, ev.rchunk, ev.rcount, ev.rstep)


def _local_fp(ev: TraceEvent) -> Footprint | None:
    if ev.laddr < 0:
        return None
    return Footprint(ev.laddr, ev.lchunk, ev.lcount, ev.lstep)


def extract_accesses(hb: HBResult) -> list[Access]:
    """All memory accesses of the trace, with completions assigned."""
    accesses: list[Access] = []
    # Channel members in issue order: (seq, access-or-None, completions)
    # — acks contribute completions without being accesses themselves.
    channels: dict[Channel, list[tuple[int, Access | None,
                                       dict[int, EventKey]]]] = {}

    def own_completion(ev: TraceEvent, key: EventKey) -> dict[int, EventKey]:
        if not ev.recv_flag:
            return {}
        k = hb.increment_index(ev.recv_flag, key)
        wait = hb.covering_wait(ev.recv_flag, k)
        if wait is None:
            return {}
        return {wait[0]: wait}

    for pe in range(hb.num_pes):
        for i, ev in enumerate(hb.events[pe]):
            key = (pe, i)
            if ev.kind is EventKind.PUT:
                comp = own_completion(ev, key)
                fwd: Channel = ("fwd", pe, ev.partner)
                rfp = _remote_fp(ev)
                if rfp is not None and not rfp.is_empty():
                    acc = Access(key=key, ev=ev, home=ev.partner, fp=rfp,
                                 is_write=True, channel=fwd,
                                 completions=dict(comp))
                    accesses.append(acc)
                    channels.setdefault(fwd, []).append((ev.seq, acc, comp))
                else:
                    channels.setdefault(fwd, []).append((ev.seq, None, comp))
                lfp = _local_fp(ev)
                if lfp is not None and not lfp.is_empty():
                    accesses.append(Access(
                        key=key, ev=ev, home=pe, fp=lfp,
                        is_write=False, sync=True))
            elif ev.kind is EventKind.GET:
                comp = own_completion(ev, key)
                fwd = ("fwd", pe, ev.partner)
                rep: Channel = ("rep", pe, ev.partner)
                rfp = _remote_fp(ev)
                if rfp is not None and not rfp.is_empty():
                    acc = Access(key=key, ev=ev, home=ev.partner, fp=rfp,
                                 is_write=False, channel=fwd,
                                 completions=dict(comp))
                    accesses.append(acc)
                    channels.setdefault(fwd, []).append((ev.seq, acc, comp))
                else:
                    # The acknowledge idiom: no bytes, but its completion
                    # proves delivery of everything earlier on the channel.
                    channels.setdefault(fwd, []).append((ev.seq, None, comp))
                lfp = _local_fp(ev)
                if lfp is not None and not lfp.is_empty():
                    acc = Access(key=key, ev=ev, home=pe, fp=lfp,
                                 is_write=True, channel=rep,
                                 completions=dict(comp))
                    accesses.append(acc)
                    channels.setdefault(rep, []).append((ev.seq, acc, comp))
            elif ev.kind in (EventKind.REMOTE_STORE, EventKind.REMOTE_LOAD):
                rfp = _remote_fp(ev)
                if rfp is not None and not rfp.is_empty():
                    accesses.append(Access(
                        key=key, ev=ev, home=ev.partner, fp=rfp,
                        is_write=ev.kind is EventKind.REMOTE_STORE,
                        sync=True))
    # FIFO inheritance: walking each channel backward, every element is
    # proven delivered by any later element's completion — keep the
    # earliest known wait per PE.
    for members in channels.values():
        members.sort(key=lambda m: m[0])
        best: dict[int, EventKey] = {}
        for _seq, acc, comp in reversed(members):
            for wpe, wkey in comp.items():
                cur = best.get(wpe)
                if cur is None or wkey[1] < cur[1]:
                    best[wpe] = wkey
            if acc is not None:
                for wpe, wkey in best.items():
                    cur = acc.completions.get(wpe)
                    if cur is None or wkey[1] < cur[1]:
                        acc.completions[wpe] = wkey
    return accesses


def _completes_before(hb: HBResult, a: Access, b: Access) -> bool:
    """Does ``a`` complete before ``b`` issues (so they cannot race)?"""
    if a.sync:
        return hb.happens_before(a.key, b.key)
    return any(
        hb.happens_before(wkey, b.key) for wkey in a.completions.values()
    )


def find_races(hb: HBResult, accesses: list[Access]) -> list[Diagnostic]:
    """Report every unordered conflicting pair, one diagnostic each.

    Per home cell, a span sweep in (lo, seq) order keeps the accesses
    whose spans are still open in two heaps, writes and reads.  A new
    write is tested against both, a new read against the writes only:
    two reads never race, and on bulk-transfer traces they are nearly
    every overlapping pair.  The order of the returned diagnostics is
    the sweep's; :meth:`CheckReport.finalize` sorts them."""
    diagnostics: list[Diagnostic] = []
    by_home: dict[int, list[Access]] = {}
    for acc in accesses:
        by_home.setdefault(acc.home, []).append(acc)
    for home in sorted(by_home):
        group = sorted(
            by_home[home], key=lambda a: (a.fp.lo, a.ev.seq)
        )
        # Heaps of (span_hi, index) of the open writes and reads.
        writes: list[tuple[int, int]] = []
        reads: list[tuple[int, int]] = []
        for j, acc in enumerate(group):
            lo = acc.fp.lo
            while writes and writes[0][0] <= lo:
                heapq.heappop(writes)
            while reads and reads[0][0] <= lo:
                heapq.heappop(reads)
            for active in (writes, reads) if acc.is_write else (writes,):
                for _hi, k in active:
                    diag = _conflict(hb, home, acc, group[k])
                    if diag is not None:
                        diagnostics.append(diag)
            heapq.heappush(writes if acc.is_write else reads,
                           (acc.fp.hi, j))
    return diagnostics


def _conflict(
    hb: HBResult, home: int, acc: Access, other: Access
) -> Diagnostic | None:
    """The race between two span-overlapping accesses, at least one a
    write, on ``home`` — or None when they cannot race."""
    if other.key == acc.key:
        return None  # two sides of one event cannot race
    if acc.channel is not None and acc.channel == other.channel:
        return None
    if (_completes_before(hb, acc, other)
            or _completes_before(hb, other, acc)):
        return None
    if not acc.fp.overlaps(other.fp):
        return None
    first, second = sorted((other, acc), key=lambda a: a.ev.seq)
    lo, hi = acc.fp.intersection_span(other.fp)
    both_writes = acc.is_write and other.is_write
    code = "RACE-PUT-PUT" if both_writes else "RACE-PUT-GET"
    verb = ("both write" if both_writes
            else "write and read the same bytes")
    return Diagnostic(
        code=code,
        message=(
            f"{_describe(first)} and {_describe(second)} "
            f"{verb} on cell {home} with no ordering between them"
        ),
        events=(
            EventRef(first.ev.pe, first.ev.seq,
                     EventKind(first.ev.kind).name),
            EventRef(second.ev.pe, second.ev.seq,
                     EventKind(second.ev.kind).name),
        ),
        home=home,
        addr_lo=lo,
        addr_hi=hi,
    )


def _describe(acc: Access) -> str:
    kind = EventKind(acc.ev.kind).name
    side = "write" if acc.is_write else "read"
    return f"cell {acc.ev.pe}'s {kind} (seq {acc.ev.seq}, remote {side})"


def race_report(hb: HBResult, subject: str) -> CheckReport:
    """Run race detection; diagnostics land in a fresh report."""
    report = CheckReport(subject=subject)
    accesses = extract_accesses(hb)
    report.stats.update(access_stats(accesses))
    report.extend(find_races(hb, accesses))
    return report


def access_stats(accesses: list[Access]) -> dict[str, int]:
    """The report statistics of an access set: accesses and the
    distinct events carrying them."""
    return {
        "accesses": len(accesses),
        "annotated_events": len({a.key for a in accesses}),
    }
