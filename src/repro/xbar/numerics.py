"""Row-stable numerical primitives shared by the analog backends.

The functional simulator's fast paths — stream stacking, zero-row
compaction with cached currents, the engine cache — all rest on one
assumption: a predictor backend evaluates each input row independently,
so the same row produces the same bits no matter which batch it rides
in.  A plain ``a @ b`` silently breaks that assumption: BLAS dispatches
different micro-kernels (gemv vs. gemm, different SIMD accumulation
splits) depending on the batch's row count, so the *same row* can round
differently inside different batches.  The drift is a single ULP on the
raw currents, but the dequantization divide by ``g_step * v_step``
amplifies it to ~1e6 ULP on the recovered dot products (surfaced by the
differential oracle harness in :mod:`repro.verify`).

Every batch matmul on the engines' per-row numerical contract therefore
goes through :func:`row_stable_matmul`, whose summation order is part
of the spec rather than left to a library.
"""

from __future__ import annotations

import numpy as np

from repro.xbar import _ckernels


def row_stable_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` whose per-row results do not depend on the batch.

    The spec is the ascending-K sum: ``out[i, j] = sum_k a[i, k] *
    b[k, j]``, starting at +0 and adding one rounded product per ``k``
    in ascending order, in ``result_type(a, b)``.  A zero drive
    (``a[i, k] == 0``, either sign) contributes nothing — not even the
    NaN of ``0 * inf`` — the per-cell form of "no drive, no current".
    Row ``i`` of the result is a fixed operation sequence of ``a[i]``
    and ``b`` alone.  The compiled kernel skips the zero drives and
    vectorizes across columns only; the numpy loop below runs the same
    order and agrees with it bit for bit.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"expected 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    dtype = np.result_type(a, b)
    out = np.empty((a.shape[0], b.shape[1]), dtype=dtype)
    if _ckernels.row_matmul(
        np.ascontiguousarray(a, dtype=dtype), np.ascontiguousarray(b, dtype=dtype), out
    ):
        return out
    out.fill(0)
    with np.errstate(invalid="ignore"):  # 0 * inf under a zero drive is masked
        for k in range(a.shape[1]):
            drive = a[:, k, None]
            out += np.where(drive != 0, drive * b[k], 0)
    return out
