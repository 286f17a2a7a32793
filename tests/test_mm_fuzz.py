"""Fuzzing of the Matrix Market loader with one mutated line.

A valid coordinate file (general or symmetric, real or integer) has one of
its lines mutated: fields truncated or added, a token replaced by a
non-numeric one, an index moved out of range, a value made NaN or infinite,
the header or size line damaged, or the line dropped, doubled or blanked.
The loader must either return a matrix or raise ``MatrixMarketParseError``
(never another exception, and never a matrix with an index outside its
shape).  ``spai-ir solve`` must turn every file that does not load into
exit code 1 and exactly one ``error:`` line, and may end a solve of one that
loads only with exit code 0 or 2 or such an error.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spai_ir.cli import main
from spai_ir.sparse import MatrixMarketParseError, SparseMatrix, load_matrix_market

WORDS = ["x", "", "1.2.3", "0x10", "--1", "1e", "+", "nan", "inf", "-inf", "1e400", "NaN", "Infinity",
         "1.5", "-0", "0", "-1", "7", "2147483648", "9223372036854775808", "1" + "0" * 30]


@st.composite
def valid_files(draw):
    """Lines of a valid file: header, a comment, size line and entries of a
    random matrix with a full diagonal."""
    n = draw(st.integers(1, 6))
    symmetric = draw(st.booleans())
    field = draw(st.sampled_from(["real", "integer"]))
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    A = np.where(rng.rand(n, n) < 0.4, rng.randint(-9, 10, (n, n)), 0) + np.diag(rng.randint(10, 20, n))
    if symmetric:
        A = np.tril(A)
    if field == "real":
        A = A * rng.uniform(0.5, 2.0, (n, n))
    i, j = np.nonzero(A)
    entries = [f"{a + 1} {b + 1} {A[a, b].item()!r}" for a, b in zip(i.tolist(), j.tolist())]
    head = f"%%MatrixMarket matrix coordinate {field} {'symmetric' if symmetric else 'general'}"
    return [head, "% generated", f"{n} {n} {len(entries)}"] + entries


def mutate(draw, lines):
    k = draw(st.integers(0, len(lines) - 1))
    toks = lines[k].split()
    how = draw(st.sampled_from(["truncate", "extra", "replace", "drop", "double", "blank"]))
    if how == "truncate" and toks:
        toks = toks[: draw(st.integers(0, len(toks) - 1))]
    elif how == "extra":
        toks = toks + [draw(st.sampled_from(WORDS))]
    elif how == "replace" and toks:
        toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(WORDS + ["matrix", "array", "complex",
                                                                           "pattern", "hermitian"]))
    elif how == "drop":
        return lines[:k] + lines[k + 1 :]
    elif how == "double":
        return lines[: k + 1] + lines[k:]
    elif how == "blank":
        toks = []
    return lines[:k] + [" ".join(toks)] + lines[k + 1 :]


@st.composite
def mutated_files(draw):
    return "\n".join(mutate(draw, draw(valid_files()))) + "\n"


def run_cli(path: Path):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["solve", "--matrix", str(path), "--solver", "none", "--precisions", "d,d,d"])
    return code, err.getvalue()


@settings(max_examples=300, deadline=None)
@given(mutated_files())
def test_mutated_file_loads_or_fails_in_one_line(text):
    try:
        A = load_matrix_market(text.encode())
    except MatrixMarketParseError:
        loaded = False
    else:
        loaded = True
        assert isinstance(A, SparseMatrix)
        assert A.indices.size == 0 or (A.indices.min() >= 0 and A.indices.max() < A.n_rows)
        assert A.indptr[-1] == A.nnz and np.all(np.diff(A.indptr) >= 0)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.mtx"
        path.write_text(text)
        code, err = run_cli(path)
    if loaded and code != 1:
        assert code in (0, 2) and err == "", (code, err)
    else:
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
