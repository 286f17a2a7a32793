"""Property tests for the padding argument behind the lockstep SPAI build.

A batch pads every item to a common shape.  That is bit-exact only if a
length-limited ``fl_sum`` equals the sum of each line alone, and if an item
solved inside a batch of other blocks equals the same block solved on its
own; both are compared here as raw bytes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_rho_scores, reference_solve_ls
from spai_ir.precision import DOUBLE, HALF, SINGLE, fl_sum
from spai_ir.spai import RankDeficiencySignal, rho_scores, solve_column_ls, solve_ls_batch

FORMATS = {"half": (HALF, np.uint16), "single": (SINGLE, np.uint32)}
# signed zeros, the subnormal edges and the overflow edge of both formats
SPECIAL = np.array([0.0, -0.0, 2.0**-24, -(2.0**-24), 2.0**-149, -(2.0**-149), 2.0**-14, 65504.0,
                    -65504.0, 32768.0, 3.4028234663852886e38, -3.4028234663852886e38,
                    1.7014118346046923e38, np.inf, -np.inf])


@st.composite
def ragged_columns(draw):
    """Columns of values representable in half or single, each with a length.

    Values are random bit patterns of the format (NaN replaced by -0) mixed
    with the special values above that the format can hold; entries past a
    column's length are garbage the sum must ignore.
    """
    p, bits = FORMATS[draw(st.sampled_from(sorted(FORMATS)))]
    lengths = draw(st.lists(st.integers(0, 70), min_size=1, max_size=5))
    shape = (max(lengths) + draw(st.integers(0, 3)), len(lengths))
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    with np.errstate(over="ignore", invalid="ignore"):
        special = SPECIAL[p.dtype(SPECIAL).astype(np.float64) == SPECIAL]
        V = rng.randint(0, np.iinfo(bits).max + 1, size=shape).astype(bits).view(p.dtype).astype(np.float64)
    V[np.isnan(V)] = -0.0
    V = np.where(rng.rand(*shape) < draw(st.sampled_from([0.0, 0.3, 0.9])), rng.choice(special, shape), V)
    for c, n in enumerate(lengths):
        V[n:, c] = draw(st.sampled_from([np.nan, np.inf, -0.0, 1.0]))
    return p, V, np.array(lengths)


@settings(max_examples=300, deadline=None)
@given(ragged_columns())
def test_fl_sum_lengths_equal_each_column_alone(case):
    p, V, lengths = case
    with np.errstate(over="ignore", invalid="ignore"):
        batched = fl_sum(V, p, axis=0, lengths=lengths)
        transposed = fl_sum(V.T, p, axis=1, lengths=lengths)
        for c, n in enumerate(lengths):
            alone = np.float64(fl_sum(V[:n, c], p))
            assert batched[c].tobytes() == alone.tobytes(), (c, n, batched[c], alone)
            assert transposed[c].tobytes() == alone.tobytes()


@st.composite
def ragged_blocks(draw):
    """A 3-d array of values of half or single, stored in float64 or in the
    format's own dtype, with a reduction axis and line lengths shaped like
    the reduced shape, like its last axis, like its first axis with a
    trailing 1, or as a scalar; entries past a line's length are garbage."""
    p, bits = FORMATS[draw(st.sampled_from(sorted(FORMATS)))]
    shape = tuple(draw(st.lists(st.integers(1, 9), min_size=3, max_size=3)))
    axis = draw(st.integers(0, 2))
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    with np.errstate(over="ignore", invalid="ignore"):
        special = SPECIAL[p.dtype(SPECIAL).astype(np.float64) == SPECIAL]
        V = rng.randint(0, np.iinfo(bits).max + 1, size=shape).astype(bits).view(p.dtype).astype(np.float64)
    V[np.isnan(V)] = -0.0
    V = np.where(rng.rand(*shape) < 0.3, rng.choice(special, shape), V)
    rest = shape[:axis] + shape[axis + 1 :]
    lshape = draw(st.sampled_from([rest, rest[-1:], (rest[0], 1), ()]))
    lengths = rng.randint(0, shape[axis] + 1, size=lshape)
    lines = np.moveaxis(V, axis, 0)
    past = np.broadcast_to(np.arange(shape[axis]).reshape(-1, 1, 1) >= lengths, lines.shape)
    lines[past] = draw(st.sampled_from([np.nan, np.inf, 1.0]))
    if draw(st.booleans()):
        V = V.astype(p.dtype)
    return p, V, axis, lengths


@settings(max_examples=300, deadline=None)
@given(ragged_blocks())
def test_fl_sum_lengths_on_3d_equal_each_line_alone(case):
    p, V, axis, lengths = case
    with np.errstate(over="ignore", invalid="ignore"):
        got = fl_sum(V, p, axis=axis, lengths=lengths)
        lines = np.moveaxis(V, axis, 0).astype(np.float64)
        full = np.broadcast_to(lengths, got.shape)
        for idx in np.ndindex(got.shape):
            alone = np.float64(fl_sum(lines[(slice(None, full[idx]),) + idx], p))
            assert np.float64(got[idx]).tobytes() == alone.tobytes(), (idx, full[idx], got[idx], alone)


@pytest.mark.parametrize("bad", [-1, 6])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_fl_sum_lengths_out_of_range_raise(axis, bad):
    V = np.ones((5, 5, 5))
    lengths = np.full((5, 5), 2)
    lengths[1, 3] = bad
    with pytest.raises(ValueError, match="lengths must lie in"):
        fl_sum(V, SINGLE, axis=axis, lengths=lengths)
    with pytest.raises(ValueError, match="lengths must lie in"):
        fl_sum(V, SINGLE, axis=axis, lengths=bad)


@pytest.mark.parametrize("p", [HALF, SINGLE, DOUBLE])
def test_fl_sum_of_negative_zeros_is_negative_zero_at_every_length(p):
    """A sum whose terms are all -0 is -0, alone and batched with ``lengths``,
    in float64 and in the format's own dtype; a sum of no terms is +0."""
    for dtype in {np.float64, p.dtype or np.float64}:
        for n in range(71):
            got = fl_sum(np.full(n, -0.0, dtype), p)
            assert got == 0.0 and np.signbit(got) == (n > 0), n
            V = np.full((70, 2), -0.0, dtype)
            V[n:] = 1.0  # past the length
            got = fl_sum(V, p, axis=0, lengths=[n, 0])
            assert not np.any(got) and np.signbit(got).tolist() == [n > 0, False], n


@st.composite
def block_batches(draw):
    p = draw(st.sampled_from([HALF, SINGLE, DOUBLE]))
    seed = draw(st.integers(0, 2**32 - 1))
    count = draw(st.integers(1, 6))
    rng = np.random.RandomState(seed)
    blocks = []
    for _ in range(count):
        m = int(rng.randint(1, 9))
        kind = draw(st.sampled_from(["tall", "wide", "zero_column", "repeated_column", "huge"]))
        cols = int(rng.randint(m + 1, m + 3)) if kind == "wide" else int(rng.randint(1, m + 1))
        A = rng.randn(m, cols) * (rng.rand(m, cols) < 0.8)
        if kind == "zero_column":
            A[:, rng.randint(cols)] = 0.0
        elif kind == "repeated_column" and cols > 1:
            A[:, -1] = A[:, 0]
        elif kind == "huge":
            A *= 10.0 ** rng.randint(2, 40)  # overflows half or single inside the solve
        with np.errstate(over="ignore"):
            A = A.astype(p.dtype).astype(np.float64) if p.dtype else A
        e = np.zeros(m)
        e[rng.randint(m)] = 1.0
        blocks.append((A, e))
    return p, blocks


@settings(max_examples=150, deadline=None)
@given(block_batches())
def test_block_solved_in_a_batch_equals_block_alone(case):
    p, blocks = case
    m = np.array([A.shape[0] for A, _ in blocks])
    q = np.array([A.shape[1] for A, _ in blocks])
    Abar = np.zeros((len(blocks), m.max(), q.max()))
    ebar = np.zeros((len(blocks), m.max()))
    for i, (A, e) in enumerate(blocks):
        Abar[i, : m[i], : q[i]] = A
        ebar[i, : m[i]] = e
    mbar, sbar, deficient = solve_ls_batch(Abar, ebar, m, q, p)
    for i, (A, e) in enumerate(blocks):
        try:
            x, s = solve_column_ls(A, e, p)
        except RankDeficiencySignal:
            assert deficient[i]
            continue
        assert not deficient[i]
        assert mbar[i, : q[i]].tobytes() == x.tobytes()
        assert sbar[i, : m[i]].tobytes() == s.tobytes()
        assert not np.any(mbar[i, q[i]:]) and not np.any(sbar[i, m[i]:])


@settings(max_examples=150, deadline=None)
@given(block_batches())
def test_batched_solve_and_scores_equal_the_float64_reference(case):
    """``solve_ls_batch`` and ``rho_scores`` give the bytes of the loop that
    computes every format in float64 and rounds each operation by ``fl``,
    whatever dtype they compute in; the block's columns serve as the
    candidates and its residual (or e, for a deficient item) as sbar."""
    p, blocks = case
    m = np.array([A.shape[0] for A, _ in blocks])
    q = np.array([A.shape[1] for A, _ in blocks])
    Abar = np.zeros((len(blocks), m.max(), q.max()))
    ebar = np.zeros((len(blocks), m.max()))
    for i, (A, e) in enumerate(blocks):
        Abar[i, : m[i], : q[i]] = A
        ebar[i, : m[i]] = e
    mbar, sbar, deficient = solve_ls_batch(Abar, ebar, m, q, p)
    want_m, want_s, want_d = reference_solve_ls(Abar, ebar, m, q, p)
    assert mbar.dtype == sbar.dtype == np.float64
    assert deficient.tolist() == want_d.tolist()
    # a deficient item's outputs mean nothing, but they keep their bits too
    assert mbar.tobytes() == want_m.tobytes() and sbar.tobytes() == want_s.tobytes()
    s = np.where(deficient[:, None], ebar, sbar)
    rho = rho_scores(s, Abar, p)
    assert rho.dtype == np.float64
    assert rho.tobytes() == reference_rho_scores(s, Abar, m, p).tobytes()
