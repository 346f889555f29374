"""The batched numpy accumulation kernels against a deliberately naive loop.

One kernel call sums a batch of queries laid out flat: each query's columns
in ascending order, consecutive queries separated by the table's last,
empty column.  The reference runs the naive nested loop query by query.
The real path is bitwise identical to it (same multiplication and summation
order).  The phase path uses numpy's vectorized cos/sin, which may differ
from the loop's scalar ``math.cos``/``math.sin`` by an ulp or two, so it is
checked to a tight tolerance instead.  Zero phases are exact.
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


def random_instance(rng, n_targets=8, n_feats=30, n_queries=6):
    """A column-grouped table plus a batch of queries.

    The last column of ``col_ptr`` is empty and separates the queries.  The
    batch has ragged queries, one with no known column, and a column that
    several queries share.  ``queries`` lists each query's (columns,
    values, phases); ``qcols``, ``qvals`` and ``qtheta`` are the flat batch.
    """
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
    col_ptr = np.zeros(n_feats + 2, dtype=np.int64)
    np.add.at(col_ptr, cols + 1, 1)
    np.cumsum(col_ptr, out=col_ptr)
    lengths = rng.integers(1, n_feats // 2, size=n_queries)
    lengths[rng.integers(n_queries)] = 0
    common = int(rng.integers(n_feats))
    others = np.delete(np.arange(n_feats), common)
    queries = []
    for m in lengths:
        qc = np.sort(np.append(rng.choice(others, size=m - 1, replace=False), common)) if m else []
        qc = np.array(qc, dtype=np.int64)
        queries.append((qc, rng.uniform(0.1, 3.0, m), rng.uniform(0, 2 * np.pi, m)))
    qcols = flat([qc for qc, _, _ in queries], n_feats)
    qvals = flat([qv for _, qv, _ in queries], 0.0)
    qtheta = flat([qt for _, _, qt in queries], 0.0)
    return n_targets, col_ptr, rows, amp, phi, queries, qcols, qvals, qtheta


def flat(parts, gap):
    """The parts concatenated with ``gap`` between consecutive ones."""
    out = []
    for part in parts:
        out += [part, [gap]]
    return np.concatenate(out[:-1])


def summed(n, queries, lengths, entry, modulus, rows):
    """Re-add the returned addends one by one into (query, row) cells."""
    query = np.arange(len(queries)).repeat([len(q[0]) + 1 for q in queries])[:-1]
    out = np.zeros((len(queries), n))
    np.add.at(out, (query.repeat(lengths), rows[entry]), modulus)
    return out


def test_real_matches_reference_bitwise():
    rng = np.random.default_rng(61)
    for _ in range(25):
        n, col_ptr, rows, amp, _, queries, qcols, qvals, _ = random_instance(rng)
        expected = np.zeros((len(queries), n))
        for q, (qc, qv, _) in enumerate(queries):
            reference_real(col_ptr, rows, amp, qc, qv, expected[q])
        acc = np.zeros((len(queries), n))
        lengths, entry, modulus, angle = _kernels.accum_real(col_ptr, rows, amp, qcols, qvals, acc)
        assert np.array_equal(acc, expected)
        assert not acc[[len(q[0]) == 0 for q in queries]].any()
        # the returned addends are the ones summed, cell by cell
        assert angle is None
        assert np.array_equal(lengths, col_ptr[qcols + 1] - col_ptr[qcols])
        assert len(entry) == lengths.sum() and not lengths[qcols == len(col_ptr) - 2].any()
        assert np.array_equal(modulus, amp[entry] * qvals.repeat(lengths))
        assert np.array_equal(summed(n, queries, lengths, entry, modulus, rows), acc)


def test_complex_matches_reference():
    rng = np.random.default_rng(62)
    for _ in range(25):
        n, col_ptr, rows, amp, phi, queries, qcols, qvals, qtheta = random_instance(rng)
        exp_re = np.zeros((len(queries), n))
        exp_im = np.zeros((len(queries), n))
        for q, (qc, qv, qt) in enumerate(queries):
            reference_complex(col_ptr, rows, amp, phi, qc, qv, qt, exp_re[q], exp_im[q])
        acc_re = np.zeros_like(exp_re)
        acc_im = np.zeros_like(exp_im)
        lengths, entry, modulus, angle = _kernels.accum_complex(
            col_ptr, rows, amp, phi, qcols, qvals, qtheta, acc_re, acc_im
        )
        np.testing.assert_allclose(acc_re, exp_re, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(acc_im, exp_im, rtol=1e-12, atol=1e-12)
        assert np.array_equal(angle, qtheta.repeat(lengths) - phi[entry])
        assert np.array_equal(modulus, amp[entry] * qvals.repeat(lengths))


def test_zero_phase_complex_equals_real_bitwise():
    rng = np.random.default_rng(63)
    for _ in range(25):
        n, col_ptr, rows, amp, _, queries, qcols, qvals, _ = random_instance(rng)
        real = np.zeros((len(queries), n))
        _kernels.accum_real(col_ptr, rows, amp, qcols, qvals, real)
        acc_re = np.zeros_like(real)
        acc_im = np.zeros_like(real)
        _kernels.accum_complex(
            col_ptr, rows, amp, np.zeros_like(amp), qcols, qvals,
            np.zeros_like(qvals), acc_re, acc_im,
        )
        assert np.array_equal(acc_re, real)
        assert not acc_im.any()
        # the modulus path is also exact: hypot(x, 0) == |x|
        assert np.array_equal(np.hypot(acc_re, acc_im), np.abs(real))


def test_one_query_batch_equals_its_row_of_a_larger_batch():
    rng = np.random.default_rng(64)
    n, col_ptr, rows, amp, _, queries, qcols, qvals, _ = random_instance(rng)
    batch = np.zeros((len(queries), n))
    _kernels.accum_real(col_ptr, rows, amp, qcols, qvals, batch)
    for q, (qc, qv, _) in enumerate(queries):
        one = np.zeros((1, n))
        _kernels.accum_real(col_ptr, rows, amp, qc, qv, one)
        assert np.array_equal(one[0], batch[q])
