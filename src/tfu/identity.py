"""Numerical checks of the two fundamental STFT identities.

First: the plane Fourier transform of V_{g1}f1 * conj(V_{g2}f2) equals
(V_{f2}f1 * conj(V_{g2}g1)) evaluated at the quarter-rotated point
(-xi, x). Second: the auxiliary field

    F_Z(x, xi) = exp(2 pi i x xi) V(x, xi) V(-x, -xi),
    V = V_g(M_zeta T_z f),

is invariant under the plane Fourier transform composed with that same
rotation, for every shift Z = (z, zeta).

Both checks realize the rotation as an exact index permutation that lands on
the lattice of the plane transform, which requires the grid to be the plane
of a self-dual layout (count * step^2 == 1). The one home of that rule is
_require_rotatable, which every function here applies, and tfu.cli at load.
On the half-open lattice the boundary row/column has no reflected partner
and wraps to itself; all admitted fields have decayed to rounding level
there.

No rotated or reflected copy is made. The plane transform is taken with its
axes swapped (tfu.core._fourier_2d_swapped), so its row k holds the values
at xi-node k; the rotated field at (x_j, xi_k) is row -k mod N of the field
at x-node j, and the two are compared row by row through views. F_Z's point
reflection is read through views as well. The product identity computes
each distinct (signal, window) pair's STFT rows once, matching signals by
object identity: the command line passes one SampledSignal per function
spec, so a repeated spec is one object.
"""

from __future__ import annotations

import math

import numpy as np

from tfu.core import (
    _FFT_BLOCK_BYTES,
    _STEP_RTOL,
    SampledSignal,
    SignalLayout,
    TFArray,
    TFGrid,
    _chirp,
    _fourier_2d_swapped,
    _max_abs,
    _require_finite,
    require_plane,
)
from tfu.reference import translate_modulate
from tfu.stft import _stft_rows, compute_stft


def _require_rotatable(grid: TFGrid) -> None:
    """Refuse a grid that is not the plane of a self-dual layout, on which
    self-dual (count * step^2 == 1) means x_step == xi_step, to _STEP_RTOL."""
    require_plane(grid, SignalLayout(grid.x_count, grid.x_step))
    if not math.isclose(grid.x_step, grid.xi_step, rel_tol=_STEP_RTOL):
        raise ValueError("asymmetric grid: the quarter rotation needs x_step == xi_step (count * step^2 == 1)")


def point_reflection(values: np.ndarray, axes: int | tuple[int, ...] = (0, 1)) -> np.ndarray:
    """Field at (-x, -xi), or reflected on the given axes only: index (N - i) mod N."""
    return np.roll(np.flip(values, axes), 1, axes)


def build_auxiliary(f: SampledSignal, g: SampledSignal, grid: TFGrid, z: float, zeta: float) -> TFArray:
    """F_Z for the shift Z = (z, zeta), from a single STFT evaluation and its
    point reflection, read through views. The grid must be the plane of a
    self-dual layout (other grids raise ValueError before the STFT is
    computed); the phase exp(2 pi i x xi) comes from a table of roots of
    unity (tfu.core._chirp)."""
    _require_rotatable(grid)
    field = _chirp(grid, 1)
    v = compute_stft(translate_modulate(f, z, zeta), g, grid).values
    field *= v
    # v(-x, -xi) at node (j, k) is v[-j mod N, -k mod N]: index 0 maps to
    # itself and 1 ... N-1 to N-1 ... 1, so rows 1 ... N-1 are read through
    # views. Row 0 takes a reflected copy, which keeps node (0, 0) in a
    # vector product: numpy rounds a lone complex product differently.
    field[0] *= point_reflection(v[0], 0)
    field[1:, 0] *= v[:0:-1, 0]
    field[1:, 1:] *= v[:0:-1, :0:-1]
    return TFArray._fresh(grid, field)


def _rotation_gap(swapped: np.ndarray, v: np.ndarray) -> float:
    """max |FT(w) - v((-xi, x))| for swapped = core._fourier_2d_swapped(w),
    whose row k holds FT(w) at xi-node k. Rotated, v at (x_j, xi_k) is
    v[-k mod N, j], so the comparison is row k of swapped with row -k mod N
    of v: row 0 with row 0 and the others in reverse order, through views.
    swapped is overwritten with the difference, whose moduli are taken in
    its own row order."""
    np.subtract(swapped[0], v[0], out=swapped[0])
    np.subtract(swapped[1:], v[:0:-1], out=swapped[1:])
    return _max_abs(swapped)


def rotation_invariance_defect(a: TFArray) -> float:
    """max |FT(F_Z) - F_Z((-xi, x))| / max |F_Z| for the field a = F_Z,
    transformed in one fresh array, as its values are read-only; the decay
    check before the transform takes max |F_Z| from here."""
    _require_rotatable(a.grid)
    scale = _max_abs(a.values)
    if scale == 0.0:
        raise ValueError("field is identically zero")
    return _rotation_gap(_fourier_2d_swapped(a.grid, a.values, scale), a.values) / scale


def fundamental_identity_defect(
    f1: SampledSignal,
    f2: SampledSignal,
    g1: SampledSignal,
    g2: SampledSignal,
    grid: TFGrid,
) -> float:
    """Normalized max-abs gap between the two sides of the product identity.

    The sides are products conj(b) * a of the STFTs of four (signal,
    window) pairs, both formed in one pass over blocks of whole rows. In
    each block, the rows of every distinct pair (matched by identity) are
    computed once by tfu.stft._stft_rows into the pair's own buffer, the
    buffers together about _FFT_BLOCK_BYTES; each product's rows take
    conj(b), then are multiplied by a in place, in that fixed order, as the
    complex multiply rounds a * b and b * a differently. The first product
    is then transformed in place: two fields and about one block are held."""
    _require_rotatable(grid)
    n = grid.x_count
    # (b, a) of each product conj(b) * a:
    # FT(V_{g1}f1 conj V_{g2}f2) against (V_{f2}f1 conj V_{g2}g1)(-xi, x)
    sides = (((f2, g2), (f1, g1)), ((g1, g2), (f1, f2)))
    distinct = dict.fromkeys(pair for side in sides for pair in side)
    block = min(n, max(1, _FFT_BLOCK_BYTES // (16 * n * len(distinct))))
    pairs = [(pair, _stft_rows(*pair, grid), np.empty((block, n), dtype=np.complex128)) for pair in distinct]
    products = [np.empty((n, n), dtype=np.complex128) for _ in sides]
    for start in range(0, n, block):
        stop = min(start + block, n)
        rows = {}
        for pair, stft_rows, buffer in pairs:
            out = buffer[: stop - start]
            out[...] = 0
            rows[pair] = stft_rows(out, start)
        for (b, a), product in zip(sides, products):
            out = np.conjugate(rows[b], out=product[start:stop])
            np.multiply(out, rows[a], out=out)
    for product in products:
        _require_finite(product, "field")
    lhs, rhs = products
    swapped = _fourier_2d_swapped(grid, lhs)
    scale = max(_max_abs(swapped), _max_abs(rhs))
    if scale == 0.0:
        return 0.0
    return _rotation_gap(swapped, rhs) / scale
