"""The numpy accumulation kernels against a deliberately naive loop.

The real path is bitwise identical to the loop (same multiplication and
summation order).  The phase path uses numpy's vectorized cos/sin, which
may differ from the loop's scalar ``math.cos``/``math.sin`` by an ulp or
two, so it is checked to a tight tolerance instead.  Zero phases are
exact.
"""
import math

import numpy as np

from sparseborn import _kernels


def reference_real(col_ptr, rows, amp, qcols, qvals, acc):
    for c, v in zip(qcols, qvals):
        for k in range(col_ptr[c], col_ptr[c + 1]):
            acc[rows[k]] += amp[k] * v


def reference_complex(col_ptr, rows, amp, phi, qcols, qvals, qtheta, acc_re, acc_im):
    for c, v, th in zip(qcols, qvals, qtheta):
        for k in range(col_ptr[c], col_ptr[c + 1]):
            a = amp[k] * v
            ang = th - phi[k]
            acc_re[rows[k]] += a * math.cos(ang)
            acc_im[rows[k]] += a * math.sin(ang)


def random_instance(rng, n_targets=8, n_feats=30):
    cols = []
    rows = []
    for j in range(n_feats):
        occupants = rng.choice(n_targets, size=rng.integers(1, n_targets + 1), replace=False)
        for t in sorted(int(x) for x in occupants):
            cols.append(j)
            rows.append(t)
    cols = np.array(cols, dtype=np.int64)
    rows = np.array(rows, dtype=np.int32)
    amp = rng.uniform(0.01, 2.0, size=len(rows))
    phi = rng.uniform(0, 2 * np.pi, size=len(rows))
    col_ptr = np.zeros(n_feats + 1, dtype=np.int64)
    np.add.at(col_ptr, cols + 1, 1)
    np.cumsum(col_ptr, out=col_ptr)
    nq = rng.integers(1, n_feats + 1)
    qcols = np.sort(rng.choice(n_feats, size=nq, replace=False)).astype(np.int64)
    qvals = rng.uniform(0.1, 3.0, size=nq)
    qtheta = rng.uniform(0, 2 * np.pi, size=nq)
    return n_targets, col_ptr, rows, amp, phi, qcols, qvals, qtheta


def test_real_matches_reference_bitwise():
    rng = np.random.default_rng(61)
    for _ in range(25):
        n, col_ptr, rows, amp, _, qcols, qvals, _ = random_instance(rng)
        expected = np.zeros(n)
        reference_real(col_ptr, rows, amp, qcols, qvals, expected)
        acc = np.zeros(n)
        _kernels.accum_real(col_ptr, rows, amp, qcols, qvals, acc)
        assert np.array_equal(acc, expected)


def test_complex_matches_reference():
    rng = np.random.default_rng(62)
    for _ in range(25):
        n, col_ptr, rows, amp, phi, qcols, qvals, qtheta = random_instance(rng)
        exp_re = np.zeros(n)
        exp_im = np.zeros(n)
        reference_complex(col_ptr, rows, amp, phi, qcols, qvals, qtheta, exp_re, exp_im)
        acc_re = np.zeros(n)
        acc_im = np.zeros(n)
        _kernels.accum_complex(col_ptr, rows, amp, phi, qcols, qvals, qtheta, acc_re, acc_im)
        np.testing.assert_allclose(acc_re, exp_re, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(acc_im, exp_im, rtol=1e-12, atol=1e-12)


def test_zero_phase_complex_equals_real_bitwise():
    rng = np.random.default_rng(63)
    for _ in range(25):
        n, col_ptr, rows, amp, _, qcols, qvals, _ = random_instance(rng)
        real = np.zeros(n)
        _kernels.accum_real(col_ptr, rows, amp, qcols, qvals, real)
        acc_re = np.zeros(n)
        acc_im = np.zeros(n)
        _kernels.accum_complex(
            col_ptr, rows, amp, np.zeros_like(amp), qcols, qvals,
            np.zeros_like(qvals), acc_re, acc_im,
        )
        assert np.array_equal(acc_re, real)
        assert not acc_im.any()
        # the modulus path is also exact: hypot(x, 0) == |x|
        assert np.array_equal(np.hypot(acc_re, acc_im), np.abs(real))

