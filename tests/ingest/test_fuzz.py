"""Fuzzing the ingest readers: mangled copies of the shipped samples.

Foreign traces come from other people's tools, so any byte sequence may
arrive.  Starting from ``examples/ingest/pingpong.jsonl`` and
``ring4.vef``, truncations, byte flips and line shuffles must either
ingest or raise a structured :class:`IngestError` — never another
exception.
"""

from __future__ import annotations

import contextlib
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import IngestError
from repro.ingest import ingest_file

EXAMPLES = Path(__file__).parents[2] / "examples" / "ingest"
SAMPLES = ("pingpong.jsonl", "ring4.vef")


@st.composite
def mangled(draw):
    """(sample name, mangled bytes): lines shuffled, bytes flipped, then
    the file cut short — each step independently optional."""
    name = draw(st.sampled_from(SAMPLES))
    data = (EXAMPLES / name).read_bytes()
    if draw(st.booleans()):
        lines = data.splitlines(keepends=True)
        data = b"".join(draw(st.permutations(lines)))
    flips = draw(st.lists(
        st.tuples(st.integers(0, len(data) - 1), st.integers(0, 255)),
        max_size=4,
    ))
    buf = bytearray(data)
    for pos, value in flips:
        buf[pos] = value
    cut = draw(st.integers(0, len(buf)))
    return name, bytes(buf[:cut])


def ingest_bytes(name: str, data: bytes) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        ingest_file(path)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(mangled())
def test_mangled_samples_ingest_or_raise_ingest_error(case):
    name, data = case
    with contextlib.suppress(IngestError):
        ingest_bytes(name, data)
