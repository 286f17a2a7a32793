"""``tools/gen_matrices.py`` regenerates the shipped ``matrices/*.mtx`` byte for byte.

The tool's docstring promises that a rerun is a no-op on the committed
files; this runs it into a temporary directory and compares.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_gen_matrices_reproduces_the_shipped_files(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("gen_matrices", ROOT / "tools" / "gen_matrices.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    monkeypatch.setattr(gen, "OUT", tmp_path)
    gen.main()
    shipped = sorted(p.name for p in (ROOT / "matrices").glob("*.mtx"))
    assert sorted(p.name for p in tmp_path.glob("*.mtx")) == shipped
    assert len(shipped) == 6
    for name in shipped:
        assert (tmp_path / name).read_bytes() == (ROOT / "matrices" / name).read_bytes(), name
