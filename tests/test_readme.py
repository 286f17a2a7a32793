"""The README's library quick start runs as written.

The block is the only ``python`` code block in the README.  It is run
verbatim from the repository root, where its relative matrix path
(``matrices/band_asym_120.mtx``) resolves, so a renamed or removed field of
``IrConfig`` or ``SpaiParams`` breaks this test as it would break a reader.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs_verbatim(monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)
    exec(compile(blocks[0], "README.md", "exec"), {})
    # it prints total GMRES iterations, the per-step counts and whether it converged
    assert capsys.readouterr().out.split()[-1] == "True"
