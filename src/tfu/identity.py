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
reflection is read through views as well.

The product identity holds one field: the left product, which the plane
transform needs whole. The right product is formed one block of rows at a
time in a second pass and compared with the transform block by block. Each
side computes the STFT rows of each of its distinct (signal, window) pairs
once, matching signals by object identity (the command line passes one
SampledSignal per function spec, so a repeated spec is one object); a pair
that both sides use is computed once per side.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

from tfu.core import (
    _STEP_RTOL,
    SampledSignal,
    SignalLayout,
    TFArray,
    TFGrid,
    _chirp_rows,
    _fill,
    _finite_peak,
    _fourier_2d_swapped,
    _max_abs,
    _require_finite,
    _row_blocks,
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
    """F_Z for the shift Z = (z, zeta), from a single STFT evaluation
    (compute_stft) and its point reflection, read through views. The grid
    must be the plane of a self-dual layout (other grids raise ValueError
    before the STFT is computed); the phase exp(2 pi i x xi) is filled
    from a table of roots of unity (tfu.core._chirp_rows), and the STFT is
    then multiplied into it in place."""
    _require_rotatable(grid)
    field = _fill(grid, _chirp_rows(grid, 1))
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


def _rotation_gap(swapped: np.ndarray, blocks: Iterable[tuple[int, np.ndarray]]) -> float:
    """max |FT(w) - v((-xi, x))| for swapped = core._fourier_2d_swapped(w),
    whose row k holds FT(w) at xi-node k, and v given as blocks (start,
    rows) of its rows in ascending order, together all of them. Rotated, v
    at (x_j, xi_k) is v[-k mod N, j], so row r of v is compared with row
    -r mod N of swapped: row 0 with row 0, and rows r >= 1 with rows N - r,
    through a reversed view of the block. Each block is subtracted from its
    rows of swapped as it arrives, and the moduli of the difference are
    taken there, in swapped's own row order; row 0's difference is taken
    with the last block, whose rows of swapped it adjoins."""
    n = len(swapped)
    gap = 0.0
    for start, rows in blocks:
        stop = start + len(rows)
        if start == 0:
            np.subtract(swapped[0], rows[0], out=swapped[0])
        first = max(start, 1)
        part = swapped[n - stop + 1 : n - first + 1]
        np.subtract(part, rows[first - start :][::-1], out=part)
        if stop > first:  # else the block is row 0 alone, whose difference the last block takes
            gap = max(gap, _max_abs(swapped[0 if stop == n else n - stop + 1 : n - first + 1]))
    return gap


def rotation_invariance_defect(a: TFArray) -> float:
    """max |FT(F_Z) - F_Z((-xi, x))| / max |F_Z| for the field a = F_Z,
    transformed in one fresh array, as its values are read-only; the decay
    check before the transform takes max |F_Z| from here."""
    _require_rotatable(a.grid)
    scale = _max_abs(a.values)
    if scale == 0.0:
        raise ValueError("field is identically zero")
    swapped = _fourier_2d_swapped(a.grid, a.values, scale)
    _require_finite(swapped.T, "field")
    return _rotation_gap(swapped, [(0, a.values)]) / scale


Pair = tuple[SampledSignal, SampledSignal]


def _product_rows(grid: TFGrid, b: Pair, a: Pair, out: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """Blocks (start, rows) of the product conj(V_b) * V_a of the STFTs of
    the (signal, window) pairs b and a, in ascending order, each checked
    finite (a non-finite node is named in the field's coordinates). The
    rows go into out[start:], a field, if given, or else into a spare block
    of the pass, valid until the next block is made.

    The rows of each distinct pair (matched by identity) are computed by
    tfu.stft._stft_rows in one pass of tfu.core._row_blocks. The product
    takes conj(b), then is multiplied by a in place, in that fixed order,
    as the complex multiply rounds a * b and b * a differently.
    """
    distinct = {pair: i for i, pair in enumerate(dict.fromkeys((b, a)))}
    sources = [_stft_rows(*pair, grid) for pair in distinct]
    for start, rows in _row_blocks(grid, sources, spares=out is None):
        product = rows[-1] if out is None else out[start : start + len(rows[0])]
        np.multiply(np.conjugate(rows[distinct[b]], out=product), rows[distinct[a]], out=product)
        _require_finite(product, "field", (start, 0))
        yield start, product


def fundamental_identity_defect(
    f1: SampledSignal,
    f2: SampledSignal,
    g1: SampledSignal,
    g2: SampledSignal,
    grid: TFGrid,
) -> float:
    """Normalized max-abs gap between the two sides of the product identity.

    Each side is a product conj(b) * a of the STFTs of two (signal, window)
    pairs, formed in a pass over blocks of whole rows (_product_rows). The
    left side is formed whole, its peak taken block by block for the decay
    check, and transformed in place; one pass over the transform takes its
    peak, the scale, and checks it finite (_finite_peak). The right side is
    only compared, row by row, with the transform's rows, so its second
    pass streams it: each block's peak joins the scale and its gap is taken
    while the block is in cache (_rotation_gap). One field and about one block are held; a
    pair that both sides use is computed once per side.

    The checks therefore run in this order: the left product's finiteness,
    its decay, the transform's, then the right product's finiteness. An
    input whose left product is not decayed and whose right product is not
    finite is refused as unsound truncation.
    """
    _require_rotatable(grid)
    # FT(V_{g1}f1 conj V_{g2}f2) against (V_{f2}f1 conj V_{g2}g1)(-xi, x)
    lhs = np.empty(grid.shape, dtype=np.complex128)
    peak = max(_max_abs(rows) for _, rows in _product_rows(grid, (f2, g2), (f1, g1), out=lhs))
    swapped = _fourier_2d_swapped(grid, lhs, peak)
    scale = _finite_peak(swapped)

    def compared() -> Iterator[tuple[int, np.ndarray]]:
        nonlocal scale
        for start, rows in _product_rows(grid, (g1, g2), (f1, f2)):
            scale = max(scale, _max_abs(rows))
            yield start, rows

    gap = _rotation_gap(swapped, compared())
    return 0.0 if scale == 0.0 else gap / scale
