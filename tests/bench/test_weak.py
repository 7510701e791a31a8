"""Weak-scaling study: a fresh 256-cell pass reproduces the artifact.

``BENCH_weak_scaling.json`` is committed at the repo root and refreshed
with ``repro bench weak``.  Its simulated content (event counts and the
replayed model results) is deterministic per code version, so the
smallest point re-run here must match the committed rows exactly; host
timings are never compared.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.weak import WEAK_SCHEMA, run_weak

ARTIFACT = Path(__file__).resolve().parents[2] / "BENCH_weak_scaling.json"


@pytest.fixture(scope="module")
def committed():
    return json.loads(ARTIFACT.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def fresh():
    # Round-trip through JSON so tuples and floats compare exactly as
    # they were written to the artifact.
    return json.loads(json.dumps(run_weak(points=(256,))))


def test_schema_matches_committed_artifact(committed, fresh):
    assert fresh["schema"] == committed["schema"] == WEAK_SCHEMA


def test_256_cell_rows_match_committed_artifact(committed, fresh):
    expected = {(row["app"], row["num_cells"]): row
                for row in committed["rows"]}
    assert [row["app"] for row in fresh["rows"]] == ["EP", "RingShift"]
    for row in fresh["rows"]:
        want = expected[(row["app"], 256)]
        assert row["params"] == want["params"]
        assert row["events"] == want["events"]
        assert row["mlsim"] == want["mlsim"]
