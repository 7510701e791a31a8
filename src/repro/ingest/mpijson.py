"""Generic MPI-ish JSON-lines reader.

One JSON object per line, in the shape profiling wrappers around MPI or
OpenSHMEM typically dump::

    {"t": 0.0,  "rank": 0, "op": "compute", "work": 12.5}
    {"t": 12.5, "rank": 0, "op": "isend", "peer": 1, "bytes": 4096,
     "tag": 7}
    {"t": 30.0, "rank": 1, "op": "mpi_recv", "peer": 0, "bytes": 4096,
     "tag": 7}
    {"t": 31.0, "rank": 0, "op": "barrier"}

Accepted keys (aliases in parentheses): ``t`` (``time``, ``ts``,
``timestamp``), ``rank`` (``pe``, ``src``), ``op`` (``event``,
``type``), ``peer`` (``dst``, ``dest``, ``partner``, ``target``),
``bytes`` (``size``, ``len``), ``tag`` (``comm_tag``), ``work``
(``duration``, ``dt``).  Verb spellings go through
:data:`repro.ingest.events.OP_ALIASES`, so ``mpi_isend`` and
``shmem_put`` both resolve.  Blank lines and ``//`` comment lines are
skipped; anything else malformed raises a structured
:class:`~repro.core.errors.IngestError`.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from pathlib import Path
from typing import Any

from repro.core.errors import IngestError
from repro.ingest.events import ForeignEvent, parse_op
from repro.ingest.readers import decoded_lines, register_reader

_KEY_ALIASES: dict[str, tuple[str, ...]] = {
    "t": ("t", "time", "ts", "timestamp"),
    "rank": ("rank", "pe", "src"),
    "op": ("op", "event", "type"),
    "peer": ("peer", "dst", "dest", "partner", "target"),
    "bytes": ("bytes", "size", "len"),
    "tag": ("tag", "comm_tag"),
    "work": ("work", "duration", "dt"),
}


def _pick(record: dict[str, Any], key: str) -> Any:
    for alias in _KEY_ALIASES[key]:
        if alias in record:
            return record[alias]
    return None


def _number(value: Any, name: str, *, source: str,
            line: int) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise IngestError(
            f"{name} must be a number, got {value!r}",
            source=source, line=line)
    return float(value)


def _integer(value: Any, name: str, *, source: str, line: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise IngestError(
            f"{name} must be an integer, got {value!r}",
            source=source, line=line)
    return value


@register_reader("mpijson")
def read_mpijson(path: Path) -> Iterator[ForeignEvent]:
    """Yield the foreign events of an MPI-ish JSON-lines trace."""
    source = str(path)
    for lineno, raw in decoded_lines(path):
        text = raw.strip()
        if not text or text.startswith("//"):
            continue
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            raise IngestError(
                f"invalid JSON: {exc.msg}",
                source=source, line=lineno) from exc
        if not isinstance(record, dict):
            raise IngestError(
                "each line must be a JSON object",
                source=source, line=lineno)
        op_token = _pick(record, "op")
        if not isinstance(op_token, str):
            raise IngestError(
                "record has no 'op' field",
                source=source, line=lineno)
        op = parse_op(op_token, source=source, line=lineno)
        rank_raw = _pick(record, "rank")
        if rank_raw is None:
            raise IngestError(
                "record has no 'rank' field",
                source=source, line=lineno)
        rank = _integer(rank_raw, "rank", source=source,
                        line=lineno)
        t_raw = _pick(record, "t")
        if t_raw is None:
            raise IngestError(
                "record has no timestamp ('t') field",
                source=source, line=lineno)
        timestamp = _number(t_raw, "timestamp", source=source,
                            line=lineno)
        peer_raw = _pick(record, "peer")
        peer = (-1 if peer_raw is None
                else _integer(peer_raw, "peer", source=source,
                              line=lineno))
        size_raw = _pick(record, "bytes")
        size = (0 if size_raw is None
                else _integer(size_raw, "bytes", source=source,
                              line=lineno))
        tag_raw = _pick(record, "tag")
        tag = (0 if tag_raw is None
               else _integer(tag_raw, "tag", source=source,
                             line=lineno))
        work_raw = _pick(record, "work")
        work = (0.0 if work_raw is None
                else _number(work_raw, "work", source=source,
                             line=lineno))
        yield ForeignEvent(op=op, rank=rank, timestamp=timestamp,
                           peer=peer, size=size, tag=tag,
                           work=work, line=lineno)
