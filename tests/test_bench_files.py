"""Every committed benchmark record says what it measured and on what machine."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_records_what_and_machine(path):
    record = json.loads(path.read_text())
    assert isinstance(record.get("what"), str) and record["what"].strip()
    machine = record.get("machine")
    assert isinstance(machine, dict)
    assert isinstance(machine.get("cores"), int) and machine["cores"] >= 1
    for key in ("python", "numpy"):
        assert isinstance(machine.get(key), str) and machine[key].strip(), key
