"""Property test of the reusable pairwise plan that GMRES reduces through.

``PairwisePlan(m, p)`` keeps one buffer and the views of ``fl_sum``'s tree
for vectors of at most ``m`` terms stored in ``p``'s own dtype.  Its
``dot`` and ``norm2`` of a drawn prefix of 0 to ``m`` terms must give the
bits of ``fl_dot`` and ``fl_norm2`` over that prefix: on the same native
arrays, on their float64 copies (the emulated path), and against
``reference_dot``, an independent pairwise sum that allocates every level.
GMRES's modified Gram-Schmidt step, ``mgs_step(v, w, t)``, must return the
coefficient ``fl_dot(v, w)`` with those bits, as a Python float in double
and a scalar of the format's dtype otherwise, and leave in ``w`` the
emulated ``fl(w - fl(h v))``.  One plan and one scratch vector serve
several draws of its length, so nothing left in the buffer or the scratch
by one call may reach the next.  Lengths run over 0..70 and both sides of
128 and 1024, where the padding grows by a whole level; the values mix
random bit patterns of the format with signed zeros, subnormals, values
whose products or sums overflow it, infinities and NaN, and some draws
make every product -0.

``fl_sum`` keeps no plan: a 1-d line, stored in the format's own dtype or
in float64, is summed in a buffer made per call, compared with
``reference_sum``, and must leave no memory behind once it returns.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_sum, same_bits
from spai_ir.precision import DOUBLE, HALF, SINGLE, PairwisePlan, fl, fl_dot, fl_norm2, fl_sum

FORMATS = {"half": (HALF, np.uint16), "single": (SINGLE, np.uint32), "double": (DOUBLE, np.uint64)}
LENGTHS = list(range(71)) + [127, 128, 129, 1023, 1024, 1025]
# signed zeros, subnormal and normal edges, overflow edges of every format
SPECIAL = np.array([0.0, -0.0, 2.0**-24, -(2.0**-24), 2.0**-14, 2.0**-149, -(2.0**-149), 2.0**-126,
                    5e-324, -5e-324, 2.2250738585072014e-308, 255.9, 65504.0, -65504.0, 3.4028234663852886e38,
                    -3.4028234663852886e38, 1.7976931348623157e308, -1.3407807929942596e154, 1.0, -1.0,
                    np.inf, -np.inf, np.nan])


def reference_dot(u: np.ndarray, v: np.ndarray, p) -> float:
    """Each product rounded to ``p``, then the pairwise tree over the terms
    padded with -0 (+0 for no terms), each level a new array rounded to ``p``."""
    s = fl(u.astype(np.float64) * v.astype(np.float64), p)
    size = 1 << max(len(s) - 1, 0).bit_length()
    s = np.concatenate([s, np.full(size - len(s), -0.0 if len(s) else 0.0)])
    while len(s) > 1:
        s = fl(s[0::2] + s[1::2], p)
    return float(s[0])


@st.composite
def vectors(draw, p, bits, m):
    """A vector of length ``m`` stored in ``p``'s dtype."""
    rng = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    dtype = p.dtype or np.float64
    with np.errstate(over="ignore", invalid="ignore"):
        special = SPECIAL[np.isnan(SPECIAL) | (dtype(SPECIAL).astype(np.float64) == SPECIAL)]
        x = rng.randint(0, np.iinfo(bits).max, size=m, dtype=bits).view(dtype)
        x = np.where(np.isnan(x), dtype(-0.0), x)
        mix = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
        x = np.where(rng.rand(m) < mix, special[rng.randint(len(special), size=m)].astype(dtype), x)
    return x


@st.composite
def plan_cases(draw):
    """A format, a length and several (u, v, k) of that length, ``k`` the
    prefix length a plan call takes; in some pairs ``u`` is all -0 and
    ``v`` positive, so every product is -0."""
    name = draw(st.sampled_from(sorted(FORMATS)))
    p, bits = FORMATS[name]
    m = draw(st.sampled_from(LENGTHS))
    pairs = []
    for _ in range(draw(st.integers(2, 4))):
        u, v = draw(vectors(p, bits, m)), draw(vectors(p, bits, m))
        if draw(st.integers(0, 3)) == 0:
            u = np.full(m, -0.0, u.dtype)
            v = np.where(np.isfinite(v) & (v > 0), v, v.dtype.type(1.0))
        pairs.append((u, v, draw(st.one_of(st.just(m), st.integers(0, m)))))
    return p, m, pairs


@settings(max_examples=400, deadline=None)
@given(plan_cases())
def test_plan_equals_fl_dot_and_fl_norm2_bit_for_bit(case):
    p, m, pairs = case
    plan = PairwisePlan(m, p)
    dtype = p.dtype or np.float64
    t = np.full(m, np.nan, dtype)  # the scratch starts and stays dirty
    kept = []
    with np.errstate(over="ignore", invalid="ignore"):
        for u, v, k in pairs:
            uk, vk = u[:k], v[:k]
            got = plan.dot(uk, vk)
            assert got.dtype == dtype
            for want in (fl_dot(uk, vk, p), fl_dot(uk.astype(np.float64), vk.astype(np.float64), p),
                         reference_dot(uk, vk, p)):
                assert same_bits(got, want), (m, k, got, want)
            got = plan.norm2(vk)
            for want in (fl_norm2(vk, p), fl_norm2(vk.astype(np.float64), p)):
                assert same_bits(got, want), (m, k, got, want)

            w = v.copy()
            h = plan.mgs_step(u, w, t)
            assert type(h) is (float if p.dtype is None else p.dtype)
            assert same_bits(h, fl_dot(u, v, p)), (m, h)
            want = fl(v.astype(np.float64) - fl(float(h) * u.astype(np.float64), p), p)
            assert w.dtype == dtype and same_bits(w, want), m
            kept.append((h, fl_dot(u, v, p)))
    for h, want in kept:
        assert same_bits(h, want)


def test_plan_edge_sums():
    """No terms sum to +0, all -0 terms to -0, and inf and NaN pass through."""
    for p in (HALF, SINGLE, DOUBLE):
        dtype = p.dtype or np.float64
        assert same_bits(PairwisePlan(0, p).dot(np.empty(0, dtype), np.empty(0, dtype)), 0.0)
        for m in (1, 2, 3, 17, 129):
            plan = PairwisePlan(m, p)
            ones = np.ones(m, dtype)
            assert same_bits(plan.dot(np.full(m, -0.0, dtype), ones), -0.0), m
            assert same_bits(plan.dot(ones[:0], ones[:0]), 0.0), m  # no terms of the m
            terms = ones.copy()
            terms[-1] = np.inf
            assert same_bits(plan.dot(terms, ones), np.inf), m
            terms[0] = -np.inf
            with np.errstate(invalid="ignore"):
                assert np.isnan(plan.dot(terms, ones)) == (m > 1), m
            assert same_bits(plan.dot(ones, ones), m), m


@settings(max_examples=300, deadline=None)
@given(plan_cases())
def test_1d_sums_equal_the_reference_and_keep_their_results(case):
    """A 1-d ``fl_sum`` of a native array and of its float64 copy both
    equal ``reference_sum``, come back as scalars, and do not change when
    later calls of the same length run."""
    p, m, pairs = case
    kept = []
    with np.errstate(over="ignore", invalid="ignore"):
        for u, v, _ in pairs:
            terms = fl(u.astype(np.float64) * v.astype(np.float64), p)
            want = reference_sum(terms, p)
            native = terms.astype(p.dtype or np.float64)
            for got in (fl_sum(native, p), fl_sum(terms, p)):
                assert np.ndim(got) == 0 and same_bits(got, want), (m, got, want)
                kept.append((got, want))
    for got, want in kept:
        assert same_bits(got, want)


def test_long_1d_sums_agree_in_float64_and_float16():
    """Long half lines stored in float64 and their float16 copies, summed
    natively, give the same bits."""
    rng = np.random.RandomState(3)
    for m in (2**16, 2**16 + 1):
        terms = fl(rng.standard_normal(m), HALF)
        want = reference_sum(terms, HALF)
        assert same_bits(fl_sum(terms, HALF), want) and same_bits(fl_sum(terms.astype(np.float16), HALF), want), m


def test_1d_sums_leave_no_buffer_behind():
    """``fl_sum`` of 2**20 double and single terms keeps no buffer once it
    returns: under 1 MiB stays traced, where a tree kept for either
    length would hold 8 MiB or more."""
    terms = [np.ones(2**20), np.ones(2**20, np.float32)]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for v, p in zip(terms, (DOUBLE, SINGLE)):
            assert fl_sum(v, p) == 2**20
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert held < 2**20, held
