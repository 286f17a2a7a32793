"""Property tests for the batch kernels of ``spai_ir.sparse`` against dense numpy.

A batch of N sorted index sets is ``(ptr, idx)``, set i being
``idx[ptr[i]:ptr[i + 1]]``.  The drawn batches hold empty sets, batches of
one, and sets that share indices.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spai_ir.sparse import (
    SparseMatrix,
    batch_keys,
    extract_blocks,
    keys_to_batch,
    owners,
    shadows,
    take_sets,
)


def as_batch(sets):
    sizes = [len(s) for s in sets]
    idx = np.concatenate([np.empty(0, np.int64), *sets]).astype(np.int64)
    return np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)]), idx


def as_sets(batch):
    ptr, idx = batch
    return [idx[ptr[i] : ptr[i + 1]] for i in range(ptr.size - 1)]


@st.composite
def index_sets(draw, n, count):
    """``count`` sorted subsets of range(n): empty, full or random, often alike."""
    sets = []
    for _ in range(count):
        kind = draw(st.sampled_from(["random", "random", "empty", "full", "repeat"]))
        if kind == "empty":
            s = []
        elif kind == "full":
            s = range(n)
        elif kind == "repeat" and sets:
            s = draw(st.sampled_from(sets))
        else:
            s = draw(st.sets(st.integers(0, n - 1), max_size=n))
        sets.append(np.array(sorted(s), dtype=np.int64))
    return sets


@st.composite
def matrices_and_batches(draw):
    n_rows, n_cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    dense = rng.randn(n_rows, n_cols) * (rng.rand(n_rows, n_cols) < draw(st.sampled_from([0.0, 0.2, 0.5, 1.0])))
    count = draw(st.integers(1, 6))
    return dense, draw(index_sets(n_rows, count)), draw(index_sets(n_cols, count))


@settings(max_examples=200, deadline=None)
@given(matrices_and_batches())
def test_shadows_match_dense(case):
    dense, _, col_sets = case
    got = shadows(SparseMatrix.from_dense(dense), as_batch(col_sets))
    assert got[0].size == len(col_sets) + 1 and got[0][0] == 0
    for J, I in zip(col_sets, as_sets(got)):
        assert np.array_equal(I, np.flatnonzero(dense[:, J].any(axis=1)))


@settings(max_examples=200, deadline=None)
@given(matrices_and_batches())
def test_extract_blocks_match_dense(case):
    dense, row_sets, col_sets = case
    got = extract_blocks(SparseMatrix.from_dense(dense), as_batch(row_sets), as_batch(col_sets))
    M = max(len(I) for I in row_sets)
    P = max(len(J) for J in col_sets)
    assert got.shape == (len(col_sets), M, P)
    for i, (I, J) in enumerate(zip(row_sets, col_sets)):
        want = np.zeros((M, P))
        want[: I.size, : J.size] = dense[np.ix_(I, J)]
        assert np.array_equal(got[i], want)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_take_sets_and_keys_round_trip(data):
    n = data.draw(st.integers(1, 12))
    sets = data.draw(index_sets(n, data.draw(st.integers(1, 6))))
    batch = as_batch(sets)
    assert owners(batch[0]).tolist() == [i for i, s in enumerate(sets) for _ in s]
    keys = batch_keys(batch, n)
    assert np.all(np.diff(keys) > 0)
    back = keys_to_batch(keys, len(sets), n)
    assert back[0].tolist() == batch[0].tolist() and back[1].tolist() == batch[1].tolist()
    sel = np.array(data.draw(st.lists(st.integers(0, len(sets) - 1), max_size=8)), dtype=np.int64)
    taken = take_sets(batch, sel)
    assert taken[0].size == sel.size + 1
    assert [s.tolist() for s in as_sets(taken)] == [sets[i].tolist() for i in sel]
