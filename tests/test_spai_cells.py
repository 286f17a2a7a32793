"""The SPAI guard table ``spai_cells.json`` matches a rebuild of its small cells.

``tools/spai_cells.py`` writes the table over every shipped matrix; here the
cells of ``ident_32`` and ``dd_rand_64`` are rebuilt and compared entry for
entry (the residual as the exact double the table stores).
"""

import importlib.util
import json
from pathlib import Path

import pytest

from spai_ir.reference import SYNTHETIC

ROOT = Path(__file__).resolve().parents[1]
TABLE = json.loads((ROOT / "tests" / "spai_cells.json").read_text())


def load_tool():
    spec = importlib.util.spec_from_file_location("spai_cells", ROOT / "tools" / "spai_cells.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_table_covers_the_grid():
    tool = load_tool()
    want = {tool.cell_key(name, uf, eps) for name in SYNTHETIC for uf in tool.UFS for eps in tool.EPS}
    assert set(TABLE) == want


@pytest.mark.parametrize("name", ["ident_32", "dd_rand_64"])
def test_cells_match_the_table(name):
    got = load_tool().matrix_cells(name)
    assert got == {key: TABLE[key] for key in got}
