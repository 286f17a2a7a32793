"""The README's library quick start runs as written, two of its claims
hold (the output schemas and the cond2 accuracy figures), and its module
map has one short row per module of the package.

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


def test_readme_output_schemas_are_the_cli_fields():
    from spai_ir.cli import SOLVE_FIELDS, SWEEP_FIELDS, TABLE_FIELDS

    text = (ROOT / "README.md").read_text()
    section = text.split("## Output schemas", 1)[1].split("\n## ", 1)[0]
    sweep = re.search(r"Sweep CSV: `([^`]*)`", section).group(1)
    table = "".join(re.findall(r"`([^`]*)`", re.search(r"Table CSV: ((?:`[^`]*`\s*)+);", section).group(1)))
    appended = re.search(r"solve CSV appends `([^`]*)` to the\s+same columns", section).group(1)
    assert sweep.split(",") == SWEEP_FIELDS
    assert table.split(",") == TABLE_FIELDS
    assert table.split(",") + appended.split(",") == SOLVE_FIELDS


def test_readme_cond2_accuracy_sentence():
    # the power iteration holds about three digits; the figures are printed
    # to 4 decimals and 2 digits, far coarser than their 2.2e-16 drift across BLAS kernels
    import numpy as np

    from spai_ir.analysis import cond2_transpose
    from spai_ir.sparse import load_matrix_market

    text = " ".join((ROOT / "README.md").read_text().split())
    m = re.search(r"on `colscale_80` it reads (\S+) against the SVD's (\S+), (\S+) relative", text)
    assert m, "the cond2 accuracy sentence is gone from the README"
    As = load_matrix_market(ROOT / "matrices" / "colscale_80.mtx")
    A = As.to_dense()
    estimate = cond2_transpose(As)
    svd = np.linalg.norm(np.abs(np.linalg.inv(A).T) @ np.abs(A.T), 2)
    gap = abs(estimate - svd) / svd
    assert f"{estimate:.4f}" == m.group(1) == "26.5063"
    assert f"{svd:.4f}" == m.group(2) == "26.5235"
    assert f"{gap:.1e}" == f"{float(m.group(3)):.1e}" == "6.5e-04"


def test_readme_module_map_has_one_short_row_per_module():
    import pkgutil

    import spai_ir

    section = (ROOT / "README.md").read_text().split("## Module map", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `spai_ir\.(\w+)` \|.*$", section, re.M)
    modules = sorted(m.name for m in pkgutil.iter_modules(spai_ir.__path__))
    assert sorted(rows) == modules
    assert all(len(line) <= 250 for line in section.splitlines() if line.startswith("| `spai_ir."))
    assert len(section.split()) <= 250
