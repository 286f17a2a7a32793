import math

import numpy as np
import pytest

from conftest import load_synthetic, reference_dd_lu_solve
from spai_ir.precision import (
    DOUBLE,
    HALF,
    QUAD,
    SINGLE,
    DenseLu,
    DomainError,
    PrecisionOverflowSignal,
    SingularMatrixError,
    dd_residual,
    dd_solve,
    dense_lu,
    fl_dot,
    fl_norm2,
    fl_op,
    fl_sum,
    fl,
    parse_precision,
    quiet,
)
from spai_ir.reference import SYNTHETIC, rhs_for
from spai_ir.sparse import SparseMatrix


def test_format_constants():
    assert HALF.unit_roundoff == 2.0**-11
    assert SINGLE.unit_roundoff == 2.0**-24
    assert DOUBLE.unit_roundoff == 2.0**-53
    assert QUAD.unit_roundoff <= 2.0**-106
    assert HALF.max_finite == 65504.0


def test_parse_precision():
    assert parse_precision("h") is HALF
    assert parse_precision("q") is QUAD
    assert parse_precision("single") is SINGLE
    with pytest.raises(ValueError):
        parse_precision("x")


def test_round_scalar_half_oracle_cases():
    # halfway below the spacing at 1 collapses; spacing at 1 is 2^-10
    assert fl(1 + 2.0**-12, HALF) == 1.0
    assert fl(1 + 2.0**-11, HALF) == 1.0  # exact tie, even
    assert fl(1 + 3 * 2.0**-12, HALF) == 1 + 2.0**-10
    # overflow threshold: anything at or above 65520 becomes infinity
    assert quiet(fl)(70000.0, HALF) == math.inf
    assert quiet(fl)(65520.0, HALF) == math.inf
    assert fl(65519.9, HALF) == 65504.0
    assert quiet(fl)(-70000.0, HALF) == -math.inf


def test_round_scalar_double_identity(rng):
    for x in rng.randn(50) * 10.0 ** rng.randint(-300, 300, 50):
        assert fl(x, DOUBLE) == x
        assert fl(x, QUAD) == x


def test_round_idempotent(rng):
    xs = rng.randn(200) * 10.0 ** rng.uniform(-6, 4, 200)
    for p in (HALF, SINGLE):
        once = fl(xs, p)
        assert np.array_equal(fl(once, p), once)


def test_round_monotonicity_bound(rng):
    # relative error at most the unit roundoff inside the normal range
    for p in (HALF, SINGLE):
        mags = 10.0 ** rng.uniform(np.log10(p.min_normal), np.log10(p.max_finite), 500)
        signs = rng.choice([-1.0, 1.0], 500)
        xs = signs * np.clip(mags, p.min_normal, p.max_finite)
        r = fl(xs, p)
        assert np.all(np.abs(r - xs) <= p.unit_roundoff * np.abs(xs))


def test_half_small_integers_exact():
    ints = np.arange(-2048, 2049, dtype=np.float64)
    assert np.array_equal(fl(ints, HALF), ints)


def test_half_subnormals_supported():
    tiny = 2.0**-24  # smallest half subnormal
    assert fl(tiny, HALF) == tiny
    assert fl(tiny / 2, HALF) in (0.0, tiny)  # tie to even -> 0
    assert fl(tiny / 2, HALF) == 0.0
    assert fl(1.5 * tiny, HALF) == 2.0 * tiny or fl(1.5 * tiny, HALF) == tiny


# ---- the rounding kernel against an integer reference ----------------------

# significant bits and minimum normal exponent of each storage format
BIT_FORMATS = {"half": (HALF, 11, -14), "single": (SINGLE, 24, -126)}


def reference_round(x: np.ndarray, t: int, emin: int, max_finite: float) -> np.ndarray:
    """Round-to-nearest-even of float64 ``x`` to ``t`` significant bits with
    minimum normal exponent ``emin`` and overflow past ``max_finite``, done
    on the float64 bit pattern in integers, without numpy's casts."""
    bits = x.view(np.uint64)
    E = ((bits >> np.uint64(52)) & np.uint64(0x7FF)).astype(np.int64)
    M = (bits & np.uint64((1 << 52) - 1)).astype(np.int64)
    M = np.where(E > 0, M | (1 << 52), M)
    e = np.where(E > 0, E - 1075, -1074)  # |x| = M * 2**e
    # keep the bits down to the target's ulp at |x|; past 55 nothing is kept
    shift = np.clip(np.maximum(E - 1023, emin) - (t - 1) - e, 1, 55)
    kept = M >> shift
    rem = M - (kept << shift)
    half = np.left_shift(np.int64(1), shift - 1)
    kept += (rem > half) | ((rem == half) & (kept % 2 == 1))
    with np.errstate(over="ignore"):  # inf, NaN and a carry past 2**1023
        v = np.ldexp(kept.astype(np.float64), e + shift)
    v = np.where(v > max_finite, np.inf, v)
    v = np.where(bits >> np.uint64(63) == 1, -v, v)
    return np.where(E == 0x7FF, x, v)


def _with_midpoints(values: np.ndarray) -> np.ndarray:
    """``values``, the midpoints of neighbours, and the float64 neighbours of
    each midpoint."""
    grid = np.unique(values[np.isfinite(values)])
    mid = (grid[:-1] + grid[1:]) / 2
    return np.concatenate([values, mid, np.nextafter(mid, -np.inf), np.nextafter(mid, np.inf)])


def kernel_inputs(name: str) -> np.ndarray:
    rng = np.random.RandomState(2019)
    edges = [0.0, 2.0**-1074, 2.0**-1022, 2.0**-200, 1.0, 2.0**127, 2.0**1023, np.inf, np.nan]
    if name == "half":
        finite = np.arange(2**16, dtype=np.uint32).astype(np.uint16).view(np.float16)
        grid = finite[np.isfinite(finite)].astype(np.float64)  # every finite half value
        edges += [2.0**-24, 2.0**-25, 2.0**-14 - 2.0**-24, 2.0**-14, 65504.0,
                  np.nextafter(65520.0, 0.0), 65520.0, 65536.0]
    else:
        patterns = rng.randint(0, 2**32, size=200_000, dtype=np.uint64).astype(np.uint32)
        grid = patterns.view(np.float32)
        grid = grid[np.isfinite(grid)]
        grid = np.concatenate([grid, np.nextafter(grid, np.float32(np.inf))]).astype(np.float64)
        max_finite = float(np.finfo(np.float32).max)
        top = 2.0**128 * (1 - 2.0**-25)  # the tie between max_finite and 2**128
        edges += [2.0**-149, 2.0**-150, 2.0**-126 - 2.0**-149, 2.0**-126, max_finite,
                  np.nextafter(top, 0.0), top, np.nextafter(top, np.inf), 2.0**128]
    wide = np.ldexp(rng.uniform(1.0, 2.0, 100_000), rng.randint(-160, 140, 100_000))
    xs = np.concatenate([_with_midpoints(grid), np.array(edges), wide])
    return np.concatenate([xs, -xs])


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    keep = ~np.isnan(want)
    bad = np.flatnonzero(got[keep].view(np.uint64) != want[keep].view(np.uint64))
    assert bad.size == 0, (want[keep][bad[:5]], got[keep][bad[:5]])


@pytest.mark.parametrize("name", sorted(BIT_FORMATS))
def test_fl_matches_integer_reference_bit_for_bit(name):
    p, t, emin = BIT_FORMATS[name]
    xs = kernel_inputs(name)
    want = reference_round(xs, t, emin, p.max_finite)
    assert_same_bits(quiet(fl)(xs, p), want)
    buf = xs.copy()
    assert quiet(fl)(buf, p, inplace=True) is buf
    assert_same_bits(buf, want)
    # the scalar path on every half input and on a sample of the single ones
    sample = xs if name == "half" else xs[:: max(1, xs.size // 50_000)]
    got = quiet(lambda: [fl(x, p) for x in sample.tolist()])()
    assert all(type(g) is float for g in got[:10])
    assert_same_bits(got, reference_round(sample, t, emin, p.max_finite))


NATIVE_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "sqrt": lambda a, b: np.sqrt(a),
}


def native_operands(name: str):
    """Pairs of values of the format: the kernel inputs rounded to it, each
    paired with a shuffled partner moved to within 2**-26 .. 2**2 of its
    magnitude (so additions round and cancel) and with a far one, and the
    cross product of the edge values."""
    p = BIT_FORMATS[name][0]
    rng = np.random.RandomState(1995)
    xs = np.unique(quiet(fl)(kernel_inputs(name), p))
    mant, exp = np.frexp(rng.permutation(xs))
    near = np.ldexp(mant, exp + rng.randint(-26, 3, xs.size))
    with np.errstate(invalid="ignore"):
        near = np.where(np.isfinite(xs), near, rng.permutation(xs))
    edges = np.array([0.0, 2.0**-24, 2.0**-14, 1.0, 1.5, 3.0, 65504.0, 65520.0, 2.0**-149, 2.0**-126,
                      float(np.finfo(np.float32).max), np.inf, np.nan])
    edges = np.unique(quiet(fl)(np.concatenate([edges, -edges]), p))
    a = np.concatenate([xs, xs, np.repeat(edges, edges.size)])
    b = np.concatenate([quiet(fl)(near, p), rng.permutation(xs), np.tile(edges, edges.size)])
    return a.astype(p.dtype), b.astype(p.dtype)


@pytest.mark.parametrize("name", sorted(BIT_FORMATS))
@pytest.mark.parametrize("op", sorted(NATIVE_OPS))
def test_native_ops_equal_the_rounded_double_op(name, op):
    # the premise of computing in float16 / float32 directly: on this
    # platform each native IEEE operation, on arrays and on scalars, gives
    # the exact result rounded once, as fl of the float64 operation does
    # (no flush to zero, no double rounding through a wrong path)
    p = BIT_FORMATS[name][0]
    a, b = native_operands(name)
    f = NATIVE_OPS[op]
    want = quiet(lambda: fl(f(a.astype(np.float64), b.astype(np.float64)), p))()
    got = quiet(f)(a, b)
    assert got.dtype == p.dtype
    assert_same_bits(got, want)
    step = max(1, a.size // 20_000)
    scalars = quiet(lambda: [f(x, y) for x, y in zip(a[::step], b[::step])])()
    assert all(type(s) is p.dtype for s in scalars[:10])
    assert_same_bits(np.array(scalars, dtype=p.dtype), want[::step])


def test_fl_keeps_the_double_word(rng):
    xs = rng.randn(20) * 10.0 ** rng.randint(-300, 300, 20)
    for p in (DOUBLE, QUAD):
        assert fl(xs, p) is xs and fl(xs, p, inplace=True) is xs
        assert fl(np.float64(xs[0]), p) == xs[0]


@pytest.mark.parametrize("p", [HALF, SINGLE])
def test_fl_returns_an_array_in_its_format_as_itself(rng, p):
    xs = rng.randn(20).astype(p.dtype)
    assert fl(xs, p) is xs and fl(xs, p, inplace=True) is xs
    assert fl(xs, HALF if p is SINGLE else SINGLE).dtype == np.float64


def test_fl_op_examples():
    for p in (HALF, SINGLE):
        assert fl_op("add", 1.0, p.unit_roundoff / 2, p=p) == 1.0
    assert fl_op("mul", 3.0, 4.0, p=HALF) == 12.0
    # spacing at 4096 in half is 2, so adding 1 is lost
    assert fl_op("add", 4096.0, 1.0, p=HALF) == 4096.0
    assert fl_op("sub", 1.0, 2.0, p=HALF) == -1.0
    # division by zero is IEEE, and silent under the package's error-state policy
    assert quiet(fl_op)("div", 1.0, 0.0, p=SINGLE) == math.inf
    assert quiet(fl_op)("div", -1.0, 0.0, p=SINGLE) == -math.inf
    with pytest.warns(RuntimeWarning):
        fl_op("div", 1.0, 0.0, p=SINGLE)
    assert fl_op("sqrt", 2.0, p=DOUBLE) == math.sqrt(2.0)
    with pytest.raises(DomainError):
        fl_op("sqrt", -1.0, p=SINGLE)
    with pytest.raises(ValueError):
        fl_op("pow", 1.0, 2.0, p=SINGLE)


def test_fl_sum_dot_double_deterministic(rng):
    v = rng.randn(1000)
    w = rng.randn(1000)
    s1 = fl_sum(v, DOUBLE)
    s2 = fl_sum(v, DOUBLE)
    assert s1 == s2
    assert abs(s1 - math.fsum(v)) <= 1e-12 * np.abs(v).sum()
    d1 = fl_dot(v, w, DOUBLE)
    assert abs(d1 - float(np.dot(v, w))) <= 1e-10 * np.abs(v * w).sum()


def test_fl_sum_axis(rng):
    M = rng.randn(33, 7)
    out = fl_sum(M, DOUBLE, axis=0)
    assert out.shape == (7,)
    assert np.allclose(out, M.sum(axis=0))
    out1 = fl_sum(M, DOUBLE, axis=1)
    assert out1.shape == (33,)
    assert np.allclose(out1, M.sum(axis=1))


def test_fl_norm2_half_bound(rng):
    v = rng.randn(64)
    exact = np.linalg.norm(v)
    got = fl_norm2(v, HALF)
    assert abs(got - exact) <= 64 * HALF.unit_roundoff * exact * 4


def test_fl_sum_empty():
    assert fl_sum(np.array([]), SINGLE) == 0.0


# ---- double-double paths ---------------------------------------------------


def test_dd_residual_identity_exact(rng):
    x = rng.randn(9)
    I = SparseMatrix.identity(9)
    assert np.array_equal(dd_residual(I, x, x), np.zeros(9))


def test_dd_solve_diagonal():
    A = SparseMatrix.from_dense(np.diag([2.0, 4.0]))
    xh, xl = dd_solve(A, np.array([2.0, 4.0]))
    assert np.array_equal(xh, np.array([1.0, 1.0]))
    assert np.array_equal(xl, np.zeros(2))


def test_dd_solve_residual_at_dd_level(rng):
    A = rng.randn(30, 30) + 30 * np.eye(30)
    As = SparseMatrix.from_dense(A)
    b = rng.randn(30)
    pair = dd_solve(As, b)
    r = dd_residual(As, pair, b)
    bound = 2.0**-100 * np.abs(A).sum(axis=1).max() * np.abs(pair[0]).max()
    assert np.abs(r).max() <= bound


def test_dd_solve_matches_full_dd_factorization(rng):
    A = rng.randn(40, 40) + 15 * np.eye(40)
    b = rng.randn(40)
    xh, xl = dd_solve(SparseMatrix.from_dense(A), b)
    yh, yl = reference_dd_lu_solve(A, b)
    # both accurate to ~2^-106 * cond; compare against each other loosely
    num = np.abs((xh - yh) + (xl - yl)).max()
    assert num <= 1e-25 * np.abs(xh).max()


def test_dd_solve_singular():
    A = SparseMatrix.from_dense(np.zeros((3, 3)))
    with pytest.raises(SingularMatrixError):
        dd_solve(A, np.ones(3))


@pytest.mark.parametrize("name", SYNTHETIC)
def test_dd_solve_returns_the_pair_of_the_smallest_residual_seen(monkeypatch, name):
    # the refinement stops when a residual fails to improve; the pair it
    # returns is the one before, not the one that made it stop
    import spai_ir.precision as precision

    A = load_synthetic(name)
    b = rhs_for(A.n_rows)
    seen = []

    def spy(A, x, b):
        r = dd_residual(A, x, b)
        seen.append(float(np.max(np.abs(r))))
        return r

    monkeypatch.setattr(precision, "dd_residual", spy)
    pair = dd_solve(A, b)
    assert float(np.max(np.abs(dd_residual(A, pair, b)))) == min(seen)


def test_dd_solve_overflowing_solution_is_an_overflow():
    # the pivot 1e-310 is not zero, but 1 / 1e-310 overflows: the residual is not finite
    A = SparseMatrix.from_dense(np.diag([1.0, 1e-310]))
    with pytest.raises(PrecisionOverflowSignal, match="^overflow in the reference solve in double$"):
        dd_solve(A, np.ones(2))


def test_lu_solve_reports_an_illegal_lapack_argument(capfd):
    # kl and ku swapped: dgbtrs would get the upper bandwidth ku - kl = -1, its argument 4
    f = dense_lu(SparseMatrix.from_dense(np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])), DOUBLE)
    assert (f.kl, f.ku) == (1, 2)
    bad = DenseLu(f.store, f.ku, f.kl, f.piv)
    with pytest.raises(ValueError, match="^dgbtrs: illegal value in argument 4$"):
        bad.solve(np.eye(3))
    assert capfd.readouterr().out == ""  # LAPACK's xerbla writes to file descriptor 1


def test_dd_solve_rejects_a_non_finite_right_hand_side():
    with pytest.raises(ValueError, match="right-hand side b has a NaN or infinite entry"):
        dd_solve(SparseMatrix.identity(3), np.array([1.0, np.nan, 1.0]))


def test_dd_solve_rejects_a_non_finite_matrix_entry():
    A = SparseMatrix.from_dense(np.diag([1.0, np.inf, 1.0]))
    with pytest.raises(ValueError, match="matrix A has a NaN or infinite entry"):
        dd_solve(A, np.ones(3))


def test_dd_residual_reproducible(rng):
    A = rng.randn(25, 25) * (rng.rand(25, 25) < 0.3) + 10 * np.eye(25)
    As = SparseMatrix.from_dense(A)
    b = rng.randn(25)
    xh, xl = dd_solve(As, b)
    r1 = dd_residual(As, (xh, xl), b)
    r2 = dd_residual(As, (xh, xl), b)
    assert np.array_equal(r1, r2)
    x2 = dd_solve(As, b)
    assert np.array_equal(xh, x2[0]) and np.array_equal(xl, x2[1])
