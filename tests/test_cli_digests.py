"""``tools/cli_digests.py`` digests the command-line runs of one matrix stably.

The tool runs every ``solve`` of a matrix (4 solvers x 5 precision sets),
its ``sweep`` and the three ``table`` runs in process.  Here it runs twice
on ``colscale_80``, whose LU factors need pivoting: both runs must give the
committed ``cli_digests.json``, key for key, so a change of the
command-line output shows up in Tier-1.

The file is regenerated, only for a deliberate and documented change of the
output, with
``PYTHONPATH=src python tools/cli_digests.py --matrix colscale_80 > tests/cli_digests.json``.
"""

import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("cli_digests.json")


def load_tool():
    spec = importlib.util.spec_from_file_location("cli_digests", ROOT / "tools" / "cli_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_cli_digests_are_stable_on_one_matrix():
    tool = load_tool()
    first = tool.digests(["colscale_80"])
    assert len(first) == len(tool.SOLVERS) * len(tool.PRECISION_SETS) + 1 + len(tool.TABLES)
    assert set(first) == set(tool.runs(["colscale_80"]))
    for run in first.values():
        assert isinstance(run["exit"], int)
        assert re.fullmatch("[0-9a-f]{64}", run["stdout"]) and re.fullmatch("[0-9a-f]{64}", run["stderr"])
    assert tool.digests(["colscale_80"]) == first
    assert first == json.loads(DIGESTS.read_text())
