"""The accumulation kernels: numpy, one implementation.

Both kernels add the addends of the query's columns into per-target
accumulators, column by column in query order and row by row within a
column.  ``np.add.at`` is unbuffered and applies updates in index order,
so the real path is bitwise identical to the naive nested loop.  The phase
path uses numpy's vectorized cos/sin, which may differ from libm's scalar
functions by an ulp or two on some inputs; results are still fully
deterministic, and zero phases are exact (cos(0)=1, sin(0)=0).
"""
from __future__ import annotations

import numpy as np

# Reported by benchmarks; there is no other backend.
BACKEND = "python"


def accum_real(col_ptr, rows, amp, qcols, qvals, acc):
    if len(qcols) == 0:
        return
    idx = np.concatenate([rows[col_ptr[c] : col_ptr[c + 1]] for c in qcols])
    vals = np.concatenate(
        [amp[col_ptr[c] : col_ptr[c + 1]] * v for c, v in zip(qcols, qvals)]
    )
    np.add.at(acc, idx, vals)


def accum_complex(col_ptr, rows, amp, phi, qcols, qvals, qtheta, acc_re, acc_im):
    if len(qcols) == 0:
        return
    idx_parts = []
    re_parts = []
    im_parts = []
    for c, v, th in zip(qcols, qvals, qtheta):
        lo, hi = col_ptr[c], col_ptr[c + 1]
        a = amp[lo:hi] * v
        ang = th - phi[lo:hi]
        idx_parts.append(rows[lo:hi])
        re_parts.append(a * np.cos(ang))
        im_parts.append(a * np.sin(ang))
    idx = np.concatenate(idx_parts)
    np.add.at(acc_re, idx, np.concatenate(re_parts))
    np.add.at(acc_im, idx, np.concatenate(im_parts))
