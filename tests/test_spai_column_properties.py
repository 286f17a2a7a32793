"""Property test of the per-column statistics that ``build_spai`` reports.

For every column k that finished normally (status ``ok``) the statistics
must agree with the column itself, recomputed through a separate code path,
the rounded :func:`matvec`, rather than the batched least-squares solver:

- ``col_resnorm[k]`` is, bit for bit, ``fl_norm2`` over the shadow I_k of
  ``fl(matvec(B, m_k) - e_k)``;
- ``satisfied[k]`` is ``col_resnorm[k] <= eps``;
- every j in J_k other than k was a candidate when it joined: it has a
  nonzero in B(I_k, j), and indeed in a row of the shadow of J_k without j,
  since the pattern it joined lay inside J_k without j.

``P`` is assembled by ``SparseMatrix.from_coo``, which drops values that are
exactly zero, and about 2 % of finished columns of random builds hold one.
The pattern J_k read back from ``P`` can then miss an index and its shadow
a row, which shifts ``fl_sum``'s pairwise order.  So the solved patterns are
taken from the triplets ``build_spai`` assembles, and ``P`` is checked to be
those triplets with the exact zeros dropped.
"""

from collections import Counter
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spai_ir.precision import HALF, SINGLE, fl, fl_norm2
from spai_ir.spai import SpaiParams, build_spai
from spai_ir.sparse import SparseMatrix, index_set, matvec, shadow


@st.composite
def spai_inputs(draw):
    """A random sparse B with n in 1..20, entries over 1e-8..1e4 (in half,
    the smallest round to zero and the largest overflow a norm), a nonzero
    diagonal, and eps, beta and the build precision."""
    n = draw(st.integers(1, 20))
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    B = rng.standard_normal((n, n)) * (rng.rand(n, n) < draw(st.sampled_from([0.1, 0.3, 0.6])))
    B *= 10.0 ** rng.uniform(-draw(st.integers(0, 8)), draw(st.integers(0, 4)), (n, n))
    np.fill_diagonal(B, np.sign(rng.standard_normal(n)) * 10.0 ** rng.uniform(-2.0, 2.0, n))
    params = SpaiParams(eps=draw(st.sampled_from([0.05, 0.2, 0.4])), beta=draw(st.integers(1, 4)),
                        uf=draw(st.sampled_from([HALF, SINGLE])))
    return SparseMatrix.from_dense(B), params


def build_with_patterns(At: SparseMatrix, params: SpaiParams):
    """``build_spai`` and the (rows, cols, vals) it assembles ``P`` from,
    recorded before ``from_coo`` drops the exact zeros."""
    assembled = []
    from_coo = SparseMatrix.from_coo

    def record(n_rows, n_cols, rows, cols, vals):
        assembled.append((np.asarray(rows), np.asarray(cols), np.asarray(vals, dtype=np.float64)))
        return from_coo(n_rows, n_cols, rows, cols, vals)

    with mock.patch.object(SparseMatrix, "from_coo", record):
        pre = build_spai(At, params)
    return pre, assembled[-1]


def check_columns(At: SparseMatrix, params: SpaiParams) -> list[bool]:
    """Check every ``ok`` column; return their ``satisfied`` flags."""
    pre, (rows, cols, vals) = build_with_patterns(At, params)
    uf, n = params.uf, At.n_rows
    B = At.rounded(uf)
    dense = B.to_dense()
    flags = []
    for k in range(n):
        Jk, mk = rows[cols == k], vals[cols == k]
        got_rows, got_vals = pre.P.col(k)
        assert np.array_equal(got_rows, Jk[mk != 0.0]) and np.array_equal(got_vals, mk[mk != 0.0])
        if pre.col_status[k] != "ok":
            continue
        Ik = shadow(B, Jk)
        x = np.zeros(n)
        x[Jk] = mk
        e = np.zeros(n)
        e[k] = 1.0
        want = np.float64(fl_norm2(fl(matvec(B, x, uf) - e, uf)[Ik], uf))
        assert np.float64(pre.col_resnorm[k]).tobytes() == want.tobytes(), (k, pre.col_resnorm[k], want)
        assert pre.satisfied[k] == (pre.col_resnorm[k] <= params.eps)
        for j in Jk[Jk != k]:
            assert np.any(dense[shadow(B, index_set(Jk[Jk != j])), j] != 0.0), (k, j)
        flags.append(bool(pre.satisfied[k]))
    return flags


def test_reported_column_statistics_match_the_columns():
    seen = Counter()

    @settings(max_examples=200, deadline=None)
    @given(spai_inputs())
    def every_case(case):
        seen.update(check_columns(*case))

    every_case()
    # both outcomes of the tolerance test are reached
    assert seen[True] and seen[False], seen
