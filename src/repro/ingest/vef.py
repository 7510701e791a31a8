"""VEF/TraceLIB-style text reader.

The format follows the VEF trace family (and the Fujitsu TraceLIB dumps
the paper's probes produced): a one-line header naming the rank count,
then one whitespace-separated record per line, each starting with a
timestamp and a rank::

    VEFT 4
    # time  rank  op      [peer] [bytes] [tag]
    0.0     0     compute 12.5
    12.5    0     put     1      4096
    30.0    0     barrier

Record layouts per verb (fields after ``op``):

=========  ==============================================
verb       operands
=========  ==============================================
compute    ``work`` (duration, source time units)
send/recv  ``peer [bytes] [tag]``
put/get    ``peer [bytes]``
wait       (none)
barrier    (none)
reduce     ``[bytes]``
=========  ==============================================

Blank lines and ``#`` comments are skipped.  Every malformed record
raises a structured :class:`~repro.core.errors.IngestError` naming the
file and line.
"""

from __future__ import annotations

from collections.abc import Iterator
from pathlib import Path

from repro.core.errors import IngestError
from repro.ingest.events import (
    PARTNER_OPS,
    ForeignEvent,
    ForeignOp,
    parse_op,
)
from repro.ingest.readers import decoded_lines, register_reader

#: Accepted header magics (``VEFT`` is the trace variant; plain ``VEF``
#: is tolerated for hand-written samples).
_MAGICS = ("VEFT", "VEF")


def _int_field(token: str, name: str, *, source: str,
               line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise IngestError(
            f"{name} must be an integer, got {token!r}",
            source=source, line=line) from None


def _float_field(token: str, name: str, *, source: str,
                 line: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise IngestError(
            f"{name} must be a number, got {token!r}",
            source=source, line=line) from None


@register_reader("vef")
def read_vef(path: Path) -> Iterator[ForeignEvent]:
    """Yield the foreign events of a VEF-style text trace."""
    source = str(path)
    lines = decoded_lines(path)
    _, header = next(lines, (1, ""))
    tokens = header.split()
    if not tokens or tokens[0].upper() not in _MAGICS:
        raise IngestError(
            "not a VEF-style trace (expected a 'VEFT <ranks>' "
            "header line)", source=source, line=1)
    if len(tokens) < 2:
        raise IngestError(
            "header names no rank count ('VEFT <ranks>')",
            source=source, line=1)
    num_ranks = _int_field(tokens[1], "rank count",
                           source=source, line=1)
    if num_ranks <= 0:
        raise IngestError(
            f"rank count must be positive, got {num_ranks}",
            source=source, line=1)
    yield from _read_records(lines, num_ranks, source)


def _read_records(lines: Iterator[tuple[int, str]], num_ranks: int,
                  source: str) -> Iterator[ForeignEvent]:
    for lineno, raw in lines:
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        fields = text.split()
        if len(fields) < 3:
            raise IngestError(
                f"record needs at least '<time> <rank> <op>', got "
                f"{text!r}", source=source, line=lineno)
        timestamp = _float_field(fields[0], "timestamp",
                                 source=source, line=lineno)
        rank = _int_field(fields[1], "rank", source=source, line=lineno)
        if not 0 <= rank < num_ranks:
            raise IngestError(
                f"rank {rank} outside the header's 0..{num_ranks - 1}",
                source=source, line=lineno)
        op = parse_op(fields[2], source=source, line=lineno)
        rest = fields[3:]
        peer = -1
        size = 0
        tag = 0
        work = 0.0
        if op is ForeignOp.COMPUTE:
            if not rest:
                raise IngestError(
                    "compute record needs a duration",
                    source=source, line=lineno)
            work = _float_field(rest[0], "duration",
                                source=source, line=lineno)
        elif op in PARTNER_OPS:
            if not rest:
                raise IngestError(
                    f"{op.value} record needs a peer rank",
                    source=source, line=lineno)
            peer = _int_field(rest[0], "peer", source=source,
                              line=lineno)
            if len(rest) > 1:
                size = _int_field(rest[1], "bytes", source=source,
                                  line=lineno)
            if len(rest) > 2:
                tag = _int_field(rest[2], "tag", source=source,
                                 line=lineno)
        elif op is ForeignOp.REDUCE and rest:
            size = _int_field(rest[0], "bytes", source=source,
                              line=lineno)
        yield ForeignEvent(op=op, rank=rank, timestamp=timestamp,
                           peer=peer, size=size, tag=tag, work=work,
                           line=lineno)
