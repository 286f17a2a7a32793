"""The float16 products of the half-precision elimination.

``dense_lu`` in half forms each step's rank-1 products in float32 and
rounds those below 2**-14 onto half's subnormal grid before the one cast
to float16 (``precision._half_products``).  Here the kernel is run over all
65,536 half bit patterns against a fixed set of multipliers and compared
with numpy's float16 ``col[None, :] * row[:, None]``, bit for bit, signed
zeros and infinities included, and its cast to float16 must not signal
underflow, which numpy does once per inexact subnormal result.  A NaN
result is compared as a NaN only: numpy's float16 loop returns the
payload of its second NaN operand and its vectorized float32 loop that of
the first, so a payload is not a property of the values, and any NaN in
the store makes ``dense_lu`` raise before a factor is returned.
"""

import numpy as np

from spai_ir.precision import _half_products

EVERY_HALF = np.arange(2**16, dtype=np.uint16).view(np.float16)

MULTIPLIERS = np.concatenate([
    np.array([
        2.0**-14, -(2.0**-14), 2.0**-24, -(2.0**-24),  # half's smallest normal and subnormal
        0.5, -0.5, 1.5, -1.5,  # times an odd subnormal: ties
        0.0, -0.0, np.inf, -np.inf, np.nan,
        65504.0, -65504.0, 1.0, 2.0**-10, 1.0 - 2.0**-11, 3.0 * 2.0**-11,
    ], np.float16),
    np.random.default_rng(20260427).choice(EVERY_HALF[np.isfinite(EVERY_HALF)], 64),
])


def test_half_products_equal_native_float16_products():
    # 16 multipliers at a time: the last block is smaller
    subnormal = 0
    for start in range(0, MULTIPLIERS.size, 16):
        col = MULTIPLIERS[start : start + 16]
        out = np.empty((EVERY_HALF.size, col.size), np.float16)
        # numpy signals underflow where its cast rounds to an inexact
        # subnormal, its slow path; the kernel's cast must never meet one
        with np.errstate(all="ignore", under="raise"):
            _half_products(col, EVERY_HALF, out)
        with np.errstate(all="ignore"):
            native = col[None, :] * EVERY_HALF[:, None]
            wide = col.astype(np.float32)[None, :] * EVERY_HALF.astype(np.float32)[:, None]
        nan = np.isnan(native)
        assert (np.isnan(out) == nan).all()
        assert (out.view(np.uint16)[~nan] == native.view(np.uint16)[~nan]).all()
        subnormal += int(((np.abs(wide) < 2.0**-14) & (wide != native)).sum())
    # the case the kernel is for: many products are inexact subnormals
    assert subnormal > 0.1 * EVERY_HALF.size * MULTIPLIERS.size
