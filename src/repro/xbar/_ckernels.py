"""Optional compiled kernels for the analog hot path.

NumPy pays its ufunc dispatch and a full temporary per elementwise
step, which caps the hottest per-element chains of the crossbar model
at a fraction of memory speed.  The kernels here replace those chains
with tiny C loops compiled at first use with the system compiler (no
third-party dependency: ctypes + ``cc``), under strict IEEE semantics:

* ``row_matmul_f32`` / ``row_matmul_f64`` — the predictors' row-stable
  matmul, ``out[i,j] = sum_k a[i,k] * b[k,j]`` summed from +0 over
  ascending ``k`` with zero drives skipped, vectorized across columns
  only in register-held 32-column blocks (one C body for both dtypes);
* ``fused_deviation`` — the GENIEx hidden->output layer,
  ``out[i,c] = sum_h w2[h] * relu(hv[i,h] + bias_t[h,c]) + b2``, summed
  over ``h`` in ascending order and vectorized across columns only, so
  each output is a fixed float32 operation sequence;
* ``poly_backbone`` — the five-term GENIEx polynomial backbone with the
  exact association order of the numpy expression, in one pass and
  without the chain of float64 temporaries;
* ``geniex_tail`` — the post-MLP GENIEx chain (denormalize, add the
  backbone, subtract from the ideal current) in one vectorized pass;
* ``dequant_dots`` — the float path's ADC quantization, dummy-column
  subtraction and column weighting, fused with the guard's health probe;
* ``adc_codes`` — the int8 path's ADC read-out to int32 codes, fused
  with the same health probe, branch-free so it vectorizes;
* ``axpy2d`` / ``int_axpy`` — shift-and-add of one stream or plane
  block into the float or int64 accumulator;
* ``int_dot`` — exact int32 x int32 -> int64 GEMM for guard fallbacks.

Bit-identity is the contract: compilation uses ``-ffp-contract=off``
and ``-fno-fast-math`` so every add/multiply rounds exactly like the
corresponding numpy ufunc, the ReLU reproduces ``np.maximum``'s
``-0.0``/NaN behavior, and the golden regression tests compare the
compiled and pure-numpy paths bit for bit.  The vectorized kernels
(marked ``CLONES``) get an AVX2 clone picked at load time on x86-64
(``target_clones``); it runs the same per-element operation sequence.

If no compiler is present (or ``REPRO_XBAR_CKERNELS=0``), everything
transparently falls back to the numpy implementations — the kernels are
an accelerator, never a requirement.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

_SOURCE = r"""
/* IEEE-strict helpers for the analog hot path.  Compiled with
 * -ffp-contract=off so no multiply-add is fused; every operation
 * rounds exactly once, like the numpy ufunc chain it replaces. */

#include <math.h>
#include <float.h>
#include <stdint.h>
#include <string.h>

/* Portable ISA dispatch: the loader picks the AVX2 clone where the CPU
 * has it.  Every output is the same ordered IEEE operation sequence in
 * either clone, so the clones agree bit for bit.  (The macro expands
 * right before a function definition: an attribute written before a
 * typedef would attach to the typedef and silently drop the clones.) */
#if defined(__x86_64__) && defined(__GNUC__)
#define CLONES __attribute__((target_clones("avx2", "default")))
#else
#define CLONES
#endif

/* 32-byte generic vectors: one AVX2 register each, two SSE2 halves in
 * the default clone.  Explicit vector types keep the accumulators in
 * registers, where GCC leaves a plain array-of-floats block scalar. */
typedef float vec_f32 __attribute__((vector_size(32)));
typedef double vec_f64 __attribute__((vector_size(32)));

/* Columns per register-held accumulator block of row_matmul. */
#define MATMUL_BLOCK 32

/* out[i,j] = sum_k a[i,k] * b[k,j], the sum starting at +0 and running
 * over k in ascending order; a zero drive a[i,k] == 0 (either sign)
 * contributes nothing, so inf/NaN in b behind it never reaches the
 * sum.  The driven k of each row go into a branch-free index list
 * (``idx`` holds k entries), then only the column loop is vectorized:
 * MATMUL_BLOCK columns in independent vector accumulators, then single
 * vectors, then scalars.  Every output is one fixed operation sequence
 * of its own row, whichever loop computes it, so the product is
 * row-stable and ISA-independent. */
#define ROW_MATMUL(NAME, T, V, U)                                             \
CLONES void NAME(const T *restrict a, const T *restrict b, T *restrict out,   \
                 long *restrict idx, long n, long k, long cols)               \
{                                                                             \
    enum { LANES = sizeof(V) / sizeof(T), NV = MATMUL_BLOCK / LANES };        \
    for (long i = 0; i < n; ++i) {                                            \
        const T *ai = a + i * k;                                              \
        T *o = out + i * cols;                                                \
        long m = 0;                                                           \
        for (long p = 0; p < k; ++p) {                                        \
            /* a != 0 as an integer test (+-0 are the only values with */     \
            /* every bit but the sign clear): cheaper than ucomiss     */     \
            U bits;                                                           \
            memcpy(&bits, ai + p, sizeof bits);                               \
            idx[m] = p;                                                       \
            m += (U)(bits << 1) != 0;                                         \
        }                                                                     \
        long j = 0;                                                           \
        for (; j + MATMUL_BLOCK <= cols; j += MATMUL_BLOCK) {                 \
            V acc[NV];                                                        \
            for (int v = 0; v < NV; ++v)                                      \
                acc[v] = (V){0};                                              \
            for (long q = 0; q < m; ++q) {                                    \
                const T x = ai[idx[q]];                                       \
                const T *bp = b + idx[q] * cols + j;                          \
                for (int v = 0; v < NV; ++v) {                                \
                    V bv;                                                     \
                    memcpy(&bv, bp + v * LANES, sizeof bv);                   \
                    acc[v] = acc[v] + x * bv;                                 \
                }                                                             \
            }                                                                 \
            for (int v = 0; v < NV; ++v)                                      \
                memcpy(o + j + v * LANES, &acc[v], sizeof acc[v]);            \
        }                                                                     \
        for (; j + LANES <= cols; j += LANES) {                               \
            V acc = (V){0};                                                   \
            for (long q = 0; q < m; ++q) {                                    \
                V bv;                                                         \
                memcpy(&bv, b + idx[q] * cols + j, sizeof bv);                \
                acc = acc + ai[idx[q]] * bv;                                  \
            }                                                                 \
            memcpy(o + j, &acc, sizeof acc);                                  \
        }                                                                     \
        for (; j < cols; ++j) {                                               \
            T acc = 0;                                                        \
            for (long q = 0; q < m; ++q)                                      \
                acc = acc + ai[idx[q]] * b[idx[q] * cols + j];                \
            o[j] = acc;                                                       \
        }                                                                     \
    }                                                                         \
}

ROW_MATMUL(row_matmul_f32, float, vec_f32, uint32_t)
ROW_MATMUL(row_matmul_f64, double, vec_f64, uint64_t)

CLONES
void fused_deviation(const float *restrict hv, const float *restrict bias_t,
                     const float *restrict w2, float b2, float *restrict out,
                     long n, long cols, long hidden)
{
    /* out[i,c] = sum_h w2[h] * relu(hv[i,h] + bias_t[h,c]) + b2, the sum
     * starting from 0 and running over h in ascending order; only the
     * column loop is vectorized, so every output is a fixed sequence
     * of float32 operations (row-stable, ISA-independent). */
    for (long i = 0; i < n; ++i) {
        const float *row = hv + i * hidden;
        float *restrict o = out + i * cols;
        for (long c = 0; c < cols; ++c)
            o[c] = 0.0f;
        for (long h = 0; h < hidden; ++h) {
            const float x = row[h];
            const float w = w2[h];
            const float *restrict b = bias_t + h * cols;
            for (long c = 0; c < cols; ++c) {
                float t = x + b[c];
                /* np.maximum(t, 0.0): NaN fails the test and propagates,
                 * -0.0 passes it and becomes +0.0 */
                t = t <= 0.0f ? 0.0f : t;
                o[c] = o[c] + w * t;
            }
        }
        for (long c = 0; c < cols; ++c)
            o[c] = o[c] + b2;
    }
}

void poly_backbone(const float *i_frac, const float *v_frac,
                   const double *c, double *out, long n, long cols)
{
    /* ((((c0 + c1*x) + (c2*x)*x) + c3*v) + (c4*x)*v) — the exact
     * association order of the numpy expression, term by term. */
    for (long i = 0; i < n; ++i) {
        double v = (double)v_frac[i];
        double c3v = c[3] * v;
        const float *xi = i_frac + i * cols;
        double *o = out + i * cols;
        for (long j = 0; j < cols; ++j) {
            double x = (double)xi[j];
            double acc = c[0] + c[1] * x;
            acc = acc + (c[2] * x) * x;
            acc = acc + c3v;
            acc = acc + (c[4] * x) * v;
            o[j] = acc;
        }
    }
}

CLONES
void geniex_tail(const float *ideal, const float *dev, const float *v_frac,
                 const double *c, double *out, long n, long cols,
                 float inorm32, float std32, float mean32, double inorm)
{
    /* Fuses the numpy chain after the deviation MLP:
     *   i_frac    = ideal / float32(i_norm)
     *   deviation = dev * target_std + target_mean           (float32)
     *   deviation = deviation + poly(i_frac, v_frac)         (float64)
     *   currents  = ideal - deviation * i_norm               (float64)
     * in the same per-element operation order and precisions. */
    for (long i = 0; i < n; ++i) {
        double v = (double)v_frac[i];
        double c3v = c[3] * v;
        long base = i * cols;
        for (long j = 0; j < cols; ++j) {
            long idx = base + j;
            float x32 = ideal[idx] / inorm32;
            double x = (double)x32;
            double poly = c[0] + c[1] * x;
            poly = poly + (c[2] * x) * x;
            poly = poly + c3v;
            poly = poly + (c[4] * x) * v;
            float d = dev[idx] * std32;
            d = d + mean32;
            double dd = (double)d + poly;
            out[idx] = (double)ideal[idx] - dd * inorm;
        }
    }
}

int dequant_dots(const double *cur, const double *v_sum, const double *colw,
                 double *out, long n, long cols, int adc_on,
                 double hi, double lsb, double g_min, double denom,
                 int check, double sat_limit)
{
    /* Fuses the engine's per-bank dequantization chain (float64, the
     * dtype predictor currents arrive in):
     *   q    = rint(clip(cur, 0, full_scale) / lsb) * lsb
     *   dots = (q - g_min * v_sum) / (g_step * v_step)
     *   out  = dots * col_weight
     * np.clip semantics: NaN propagates and -0.0 survives the lower
     * bound (clip tests x < lo, unlike np.maximum).
     *
     * The same pass doubles as the tile-health probe: with check set,
     * a raw current is sick when non-finite or above sat_limit.
     * Returns nonzero when anything is sick — the caller then discards
     * ``out`` and reruns the bank through the per-stream guard chain. */
    int sick = 0;
    for (long i = 0; i < n; ++i) {
        double gv = g_min * v_sum[i];
        long base = i * cols;
        for (long j = 0; j < cols; ++j) {
            double q = cur[base + j];
            if (check && (!isfinite(q) || fabs(q) > sat_limit))
                sick = 1;
            if (adc_on && q == q) {
                double t = q < 0.0 ? 0.0 : q;
                t = t > hi ? hi : t;
                q = rint(t / lsb) * lsb;
            }
            double d = (q - gv) / denom;
            out[base + j] = d * colw[j];
        }
        if (sick)
            return 1;
    }
    return 0;
}

void axpy2d(double *dst, const double *src, double a, long n, long w,
            long dst_stride, long src_stride)
{
    /* dst += a * src over 2-D row-strided views: multiply then add,
     * each rounding once, exactly like the numpy temporary it avoids. */
    for (long i = 0; i < n; ++i) {
        double *d = dst + i * dst_stride;
        const double *s = src + i * src_stride;
        for (long j = 0; j < w; ++j)
            d[j] = d[j] + a * s[j];
    }
}

CLONES
int adc_codes(const double *restrict cur, int *restrict out, long total,
              double hi, double lsb, int check, double sat_limit)
{
    /* Integer ADC read-out: out = rint(clip(cur, 0, full_scale) / lsb)
     * as int32 codes.  A non-finite current reads back as code 0 — a
     * real converter always emits *some* code, and NaN/Inf must never
     * reach the integer accumulators (the guard handles sick tiles).
     *
     * With check set, the same pass is the tile-health probe of
     * dequant_dots: the result is 1 when any current is sick
     * (non-finite or above sat_limit) — the caller then discards
     * ``out`` and reruns the bank through the per-plane guard chain.
     * The flag is an OR over the whole pass, not an early exit, so the
     * loop has no branch and vectorizes. */
    int sick = 0;
    for (long i = 0; i < total; ++i) {
        double q = cur[i];
        double mag = fabs(q);
        int finite = mag <= DBL_MAX;
        sick |= !finite | (mag > sat_limit);
        double t = q < 0.0 ? 0.0 : q;
        t = t > hi ? hi : t;
        t = finite ? t : 0.0;
        out[i] = (int)rint(t / lsb);
    }
    return check && sick;
}

void int_axpy(long long *dst, const int *src, long long a, long n, long w,
              long dst_stride, long src_stride)
{
    /* dst += a * src for int64 dst / int32 src row-strided views.
     * Integer arithmetic is exact, so this is identical (not merely
     * bit-identical) to the numpy fallback. */
    for (long i = 0; i < n; ++i) {
        long long *d = dst + i * dst_stride;
        const int *s = src + i * src_stride;
        for (long j = 0; j < w; ++j)
            d[j] += a * (long long)s[j];
    }
}

void int_dot(const int *a, const int *b, long long *out,
             long n, long k, long m)
{
    /* Exact integer GEMM with int64 accumulation; rows of ``a`` are
     * DAC pulse planes, so the zero-skip pays off on sparse codes. */
    for (long i = 0; i < n; ++i) {
        const int *ai = a + i * k;
        long long *oi = out + i * m;
        for (long j = 0; j < m; ++j)
            oi[j] = 0;
        for (long p = 0; p < k; ++p) {
            long long av = (long long)ai[p];
            if (av == 0)
                continue;
            const int *bp = b + p * m;
            for (long j = 0; j < m; ++j)
                oi[j] += av * (long long)bp[j];
        }
    }
}
"""

_CFLAGS = [
    "-O3",
    "-shared",
    "-fPIC",
    "-fno-fast-math",
    "-ffp-contract=off",
    "-fno-unsafe-math-optimizations",
]

_lib: ctypes.CDLL | None = None
_tried = False


def _build_dir() -> Path:
    override = os.environ.get("REPRO_ARTIFACTS")
    if override:
        return Path(override)
    repo_root = Path(__file__).resolve().parents[3]
    if (repo_root / "pyproject.toml").exists():
        return repo_root / "artifacts"
    return Path(tempfile.gettempdir())


def _compile() -> ctypes.CDLL | None:
    digest = hashlib.sha256((_SOURCE + " ".join(_CFLAGS)).encode()).hexdigest()[:16]
    build_dir = _build_dir()
    build_dir.mkdir(parents=True, exist_ok=True)
    so_path = build_dir / f"repro-ckernels-{digest}.so"
    if not so_path.exists():
        src_path = so_path.with_suffix(".c")
        src_path.write_text(_SOURCE)
        tmp = so_path.with_suffix(f".tmp{os.getpid()}.so")
        cmd = ["cc", *_CFLAGS, "-o", str(tmp), str(src_path)]
        result = subprocess.run(cmd, capture_output=True, timeout=120)
        if result.returncode != 0:
            return None
        os.replace(tmp, so_path)  # atomic vs. concurrent builders
    lib = ctypes.CDLL(str(so_path))
    for name in ("row_matmul_f32", "row_matmul_f64"):
        getattr(lib, name).argtypes = [
            ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
            ctypes.c_long, ctypes.c_long, ctypes.c_long,
        ]
    lib.fused_deviation.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_float,
        ctypes.c_void_p, ctypes.c_long, ctypes.c_long, ctypes.c_long,
    ]
    lib.poly_backbone.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_long, ctypes.c_long,
    ]
    lib.geniex_tail.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_long, ctypes.c_long,
        ctypes.c_float, ctypes.c_float, ctypes.c_float, ctypes.c_double,
    ]
    lib.dequant_dots.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_long, ctypes.c_long, ctypes.c_int,
        ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_double,
        ctypes.c_int, ctypes.c_double,
    ]
    lib.dequant_dots.restype = ctypes.c_int
    lib.axpy2d.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_double,
        ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_long,
    ]
    lib.adc_codes.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long,
        ctypes.c_double, ctypes.c_double, ctypes.c_int, ctypes.c_double,
    ]
    lib.adc_codes.restype = ctypes.c_int
    lib.int_axpy.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_longlong,
        ctypes.c_long, ctypes.c_long, ctypes.c_long, ctypes.c_long,
    ]
    lib.int_dot.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_long, ctypes.c_long, ctypes.c_long,
    ]
    return lib


def available() -> bool:
    """Whether the compiled kernels are usable in this environment."""
    global _lib, _tried
    if not _tried:
        _tried = True
        if os.environ.get("REPRO_XBAR_CKERNELS", "1") != "0":
            try:
                _lib = _compile()
            except Exception:
                _lib = None
    return _lib is not None


_ROW_MATMUL = {np.dtype(np.float32): "row_matmul_f32", np.dtype(np.float64): "row_matmul_f64"}


def row_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> bool:
    """``out = a @ b`` in the row-stable order, straight into ``out``.

    ``out[i, j] = sum_k a[i, k] * b[k, j]`` with the sum starting at +0
    over ascending ``k`` and zero-drive entries (``a[i, k] == 0``)
    skipped — the order of the numpy fallback in
    :func:`repro.xbar.numerics.row_stable_matmul`.  Returns False
    (without touching ``out``) when the compiled library is unavailable
    or the operands are not same-dtype float32/float64 C-contiguous.
    """
    if not available():
        return False
    name = _ROW_MATMUL.get(out.dtype)
    n, k = a.shape
    cols = b.shape[1]
    if not (
        name is not None and a.dtype == out.dtype and b.dtype == out.dtype
        and b.shape[0] == k and out.shape == (n, cols)
        and a.flags.c_contiguous and b.flags.c_contiguous
        and out.flags.c_contiguous
    ):
        return False
    idx = np.empty(k, dtype=np.int64)
    getattr(_lib, name)(
        a.ctypes.data, b.ctypes.data, out.ctypes.data, idx.ctypes.data,
        n, k, cols,
    )
    return True


def fused_deviation(
    hv: np.ndarray, bias_t: np.ndarray, w2: np.ndarray, b2: float, out: np.ndarray
) -> bool:
    """GENIEx hidden->output layer in one pass, straight into ``out``.

    ``out[i, c] = sum_h w2[h] * max(hv[i, h] + bias_t[h, c], 0) + b2``
    with the sum over ``h`` in ascending order from 0, all in float32 —
    the order of the numpy fallback in
    :meth:`repro.xbar.geniex.GENIEx._deviation`.  Returns False
    (without touching ``out``) when the compiled library is unavailable
    or the layouts don't qualify.
    """
    if not available():
        return False
    n, hidden = hv.shape
    cols = bias_t.shape[1]
    if not (
        hv.dtype == np.float32 and bias_t.dtype == np.float32
        and w2.dtype == np.float32 and out.dtype == np.float32
        and bias_t.shape[0] == hidden and w2.shape == (hidden,)
        and out.shape == (n, cols)
        and hv.flags.c_contiguous and bias_t.flags.c_contiguous
        and w2.flags.c_contiguous and out.flags.c_contiguous
    ):
        return False
    _lib.fused_deviation(
        hv.ctypes.data, bias_t.ctypes.data, w2.ctypes.data, b2,
        out.ctypes.data, n, cols, hidden,
    )
    return True


def poly_backbone(
    i_frac: np.ndarray, v_frac: np.ndarray, coef: np.ndarray
) -> np.ndarray | None:
    """The GENIEx polynomial backbone, or None to use the numpy path."""
    if not available():
        return None
    if not (
        i_frac.dtype == np.float32 and v_frac.dtype == np.float32
        and coef.dtype == np.float64 and i_frac.ndim == 2
        and v_frac.shape == (i_frac.shape[0], 1) and coef.size == 5
        and i_frac.flags.c_contiguous and v_frac.flags.c_contiguous
        and coef.flags.c_contiguous
    ):
        return None
    out = np.empty(i_frac.shape, dtype=np.float64)
    _lib.poly_backbone(
        i_frac.ctypes.data, v_frac.ctypes.data, coef.ctypes.data,
        out.ctypes.data, i_frac.shape[0], i_frac.shape[1],
    )
    return out


def geniex_tail(
    ideal: np.ndarray,
    deviation: np.ndarray,
    v_frac: np.ndarray,
    coef: np.ndarray,
    i_norm: float,
    target_std: float,
    target_mean: float,
) -> np.ndarray | None:
    """The post-MLP GENIEx chain fused into one pass, or None.

    Equivalent to::

        i_frac = ideal / np.float32(i_norm)
        dev = deviation * target_std + target_mean + poly(i_frac, v_frac)
        return ideal - dev * i_norm
    """
    if not available():
        return None
    if not (
        ideal.dtype == np.float32 and deviation.dtype == np.float32
        and v_frac.dtype == np.float32 and coef.dtype == np.float64
        and ideal.ndim == 2 and deviation.shape == ideal.shape
        and v_frac.shape == (ideal.shape[0], 1) and coef.size == 5
        and ideal.flags.c_contiguous and deviation.flags.c_contiguous
        and v_frac.flags.c_contiguous and coef.flags.c_contiguous
    ):
        return None
    out = np.empty(ideal.shape, dtype=np.float64)
    _lib.geniex_tail(
        ideal.ctypes.data, deviation.ctypes.data, v_frac.ctypes.data,
        coef.ctypes.data, out.ctypes.data, ideal.shape[0], ideal.shape[1],
        i_norm, target_std, target_mean, i_norm,
    )
    return out


def dequant_dots(
    currents: np.ndarray,
    v_sum: np.ndarray,
    col_weight: np.ndarray,
    *,
    adc_bits: int | None,
    full_scale: float,
    lsb: float,
    g_min: float,
    denom: float,
    sat_limit: float | None = None,
) -> tuple[np.ndarray, bool] | None:
    """ADC quantization + dot recovery + column weighting in one pass.

    Equivalent to::

        q = np.rint(np.clip(currents, 0.0, full_scale) / lsb) * lsb
        dots = (q - g_min * v_sum) / denom
        return dots * col_weight

    with ``adc_bits is None`` skipping the quantization step, matching
    :func:`repro.xbar.adc.quantize_current`.  The same pass can probe
    tile health on the raw currents: a ``sat_limit`` (``inf`` for none)
    flags non-finite values and ``|I| > sat_limit``.

    Returns ``(weighted, sick)`` — the output is only valid when
    ``sick`` is False — or None to signal the caller to take the numpy
    path.
    """
    if not available():
        return None
    n, cols = currents.shape
    if not (
        currents.dtype == np.float64 and v_sum.dtype == np.float64
        and col_weight.dtype == np.float64 and v_sum.shape == (n, 1)
        and col_weight.shape == (cols,)
        and currents.flags.c_contiguous and v_sum.flags.c_contiguous
        and col_weight.flags.c_contiguous
    ):
        return None
    out = np.empty((n, cols), dtype=np.float64)
    sick = _lib.dequant_dots(
        currents.ctypes.data, v_sum.ctypes.data, col_weight.ctypes.data,
        out.ctypes.data, n, cols, 0 if adc_bits is None else 1,
        full_scale, lsb, g_min, denom,
        sat_limit is not None, 0.0 if sat_limit is None else sat_limit,
    )
    return out, bool(sick)


def axpy_block(dst: np.ndarray, src: np.ndarray, a: float) -> bool:
    """``dst += a * src`` for 2-D float64 row-strided views.

    Avoids the ``a * src`` temporary of the numpy expression while
    keeping its two-roundings-per-element arithmetic.  Returns False
    (dst untouched) when the layouts don't qualify.
    """
    if not available():
        return False
    itemsize = 8
    if not (
        dst.dtype == np.float64 and src.dtype == np.float64
        and dst.ndim == 2 and dst.shape == src.shape
        and dst.strides[1] == itemsize and src.strides[1] == itemsize
        and dst.strides[0] % itemsize == 0 and src.strides[0] % itemsize == 0
    ):
        return False
    _lib.axpy2d(
        dst.ctypes.data, src.ctypes.data, a, dst.shape[0], dst.shape[1],
        dst.strides[0] // itemsize, src.strides[0] // itemsize,
    )
    return True


def adc_codes(
    currents: np.ndarray,
    out: np.ndarray,
    *,
    full_scale: float,
    lsb: float,
    sat_limit: float | None = None,
) -> bool | None:
    """Integer ADC read-out: ``out = rint(clip(I, 0, fs) / lsb)`` (int32).

    Non-finite currents read back as code 0 (see the C comment); the
    numpy fallback in the engine implements the identical rule.  A
    ``sat_limit`` (``inf`` for none) probes tile health in the same
    pass, with :func:`dequant_dots`' rule.

    Returns ``sick`` — ``out`` is only valid when it is False — or None
    (out untouched) to signal the caller to take the numpy path.
    """
    if not available():
        return None
    if not (
        currents.dtype == np.float64 and out.dtype == np.int32
        and out.shape == currents.shape
        and currents.flags.c_contiguous and out.flags.c_contiguous
    ):
        return None
    sick = _lib.adc_codes(
        currents.ctypes.data, out.ctypes.data, currents.size, full_scale, lsb,
        sat_limit is not None, 0.0 if sat_limit is None else sat_limit,
    )
    return bool(sick)


def int_axpy(dst: np.ndarray, src: np.ndarray, a: int) -> bool:
    """``dst += a * src`` for int64 dst / int32 src 2-D row-strided views.

    Exact integer arithmetic — identical to the numpy fallback by
    construction.  Returns False (dst untouched) when the layouts
    don't qualify.
    """
    if not available():
        return False
    if not (
        dst.dtype == np.int64 and src.dtype == np.int32
        and dst.ndim == 2 and dst.shape == src.shape
        and dst.strides[1] == 8 and src.strides[1] == 4
        and dst.strides[0] % 8 == 0 and src.strides[0] % 4 == 0
    ):
        return False
    _lib.int_axpy(
        dst.ctypes.data, src.ctypes.data, int(a), dst.shape[0], dst.shape[1],
        dst.strides[0] // 8, src.strides[0] // 4,
    )
    return True


def int_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Exact integer GEMM ``a @ b`` (int32 × int32 → int64), or None."""
    if not available():
        return None
    if not (
        a.dtype == np.int32 and b.dtype == np.int32
        and a.ndim == 2 and b.ndim == 2 and a.shape[1] == b.shape[0]
        and a.flags.c_contiguous and b.flags.c_contiguous
    ):
        return None
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.int64)
    _lib.int_dot(
        a.ctypes.data, b.ctypes.data, out.ctypes.data,
        a.shape[0], a.shape[1], b.shape[1],
    )
    return out
