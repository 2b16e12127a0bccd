"""The committed benchmark records, ``BENCH_<n>.json`` at the repository root.

Each record says what was measured and how, so that its figures can be
rerun: the command, a description of the change, the host, the pairing
method and the pairs themselves.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_parses_and_says_how_it_was_measured(path):
    assert path.stem.split("_", 1)[1].isdigit()
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    for key in ("command", "description", "host", "method", "pairs"):
        assert key in record, key
    assert record["pairs"]
