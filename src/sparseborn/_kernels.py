"""The accumulation kernels: numpy, one implementation, a batch of queries per call.

``qcols`` lists each query's columns in ascending order, consecutive queries
separated by the table's last column, ``len(col_ptr) - 2``, which is empty;
``qvals`` (``qtheta``) holds each cell's value (phase), and row q of the
accumulators is query q's.  All addends are gathered at once and summed by
one ``np.bincount`` over ``q * n_targets + row`` per part, which adds each
bin's weights in column order: the real path is bitwise the naive nested
loop run query by query.  The phase path's vectorized cos/sin may differ
from libm's by an ulp; zero phases are exact.

Both return the addends: how many each cell has, then each one's table
entry, modulus ``amp[entry] * qvals[cell]`` and angle
``qtheta[cell] - phi[entry]`` (None on the real path, where it is 0).
"""
from __future__ import annotations

import numpy as np

# Reported by benchmarks; there is no other backend.
BACKEND = "python"


def _gather(col_ptr, rows, amp, qcols, qvals, acc):
    """Addends per cell, entry, modulus and bin ``query * n_targets + row`` of every addend.

    Array methods and ufuncs, not ``np.`` wrappers: the calls cost more than
    the work on one tabular query.
    """
    lo, hi = col_ptr[qcols], col_ptr[1:][qcols]
    lengths = hi - lo
    entry = (hi - np.add.accumulate(lengths)).repeat(lengths)
    entry += np.arange(len(entry))
    bins = rows[entry]
    if len(acc) > 1:  # a cell's query is the number of separators before it
        bins = bins + acc.shape[1] * (qcols == len(col_ptr) - 2).cumsum().repeat(lengths)
    return lengths, entry, amp[entry] * qvals.repeat(lengths), bins


def accum_real(col_ptr, rows, amp, qcols, qvals, acc):
    lengths, entry, modulus, bins = _gather(col_ptr, rows, amp, qcols, qvals, acc)
    acc += np.bincount(bins, modulus, acc.size).reshape(acc.shape)
    return lengths, entry, modulus, None


def accum_complex(col_ptr, rows, amp, phi, qcols, qvals, qtheta, acc_re, acc_im):
    lengths, entry, modulus, bins = _gather(col_ptr, rows, amp, qcols, qvals, acc_re)
    angle = qtheta.repeat(lengths) - phi[entry]
    acc_re += np.bincount(bins, modulus * np.cos(angle), acc_re.size).reshape(acc_re.shape)
    acc_im += np.bincount(bins, modulus * np.sin(angle), acc_im.size).reshape(acc_im.shape)
    return lengths, entry, modulus, angle
