"""Reduction kernels with a fixed operation order.

The cascade is a fixed perfect binary tree: the input is zero-padded to the
next power of two and adjacent pairs are added level by level. Padding with
zeros does not perturb IEEE-754 sums, and the tree fixes the operand order,
so repeated runs return the same double.
"""

from __future__ import annotations

import numpy as np


def cascade_sum(values: np.ndarray, rows: bool = False) -> float | np.ndarray:
    """The cascade sum of values (any shape); with rows, of each row of a
    2-D values on its own, as an array: each the bits of cascade_sum(row)."""
    buf = np.ascontiguousarray(values, dtype=np.float64)
    count = len(buf) if rows else 1
    buf = buf.reshape(count, -1)
    n = buf.shape[1]
    if n == 0:
        return np.zeros(count) if rows else 0.0
    m = 1 << (n - 1).bit_length()
    if m != n:
        buf = np.concatenate([buf, np.zeros((count, m - n))], axis=1)
    buf = buf.ravel()  # the rows' trees are aligned subtrees of the flat array's
    while buf.size > count:
        buf = buf[0::2] + buf[1::2]
    return buf if rows else float(buf[0])


def prefix_count(masses: np.ndarray, threshold: float, carried: float = 0.0) -> int:
    """First prefix length whose running sum, started at carried, reaches
    threshold, or -1.

    The running sum is the plain left-to-right accumulation (np.cumsum),
    taken in place: a contiguous float64 masses, which the caller gives up,
    is overwritten with it, so its last entry is the sum to carry into the
    next block of masses. carried is added to the first mass before the
    accumulation, which is the first addition np.cumsum would make over the
    blocks together, so a split into blocks changes no bit of the sums.
    """
    if threshold <= 0.0:
        return 0
    csum = np.ascontiguousarray(masses, dtype=np.float64)
    csum[:1] += carried
    np.cumsum(csum, out=csum)
    idx = int(np.searchsorted(csum, threshold, side="left"))
    if idx >= csum.size:
        return -1
    return idx + 1
