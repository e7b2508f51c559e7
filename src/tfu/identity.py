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

No rotated copy of a field is made. The plane transform is taken with its
axes swapped (tfu.core._fourier_2d_swapped), so its row k holds the values
at xi-node k; the rotated field at (x_j, xi_k) is row -k mod N of the field
at x-node j, and the two are compared row by row through views. F_Z's point
reflection pairs row j with row -j mod N: F_Z is formed in place of V one
mirrored pair of row blocks at a time (tfu.core._mirrored_blocks), each
block reflected into a spare block.

Each check holds one field, the one the plane transform needs whole, and
a few blocks of rows. The product identity's is its left product; the right
product is formed one block of rows at a time in a second pass and
compared with the transform block by block. Each side computes the STFT
rows of each of its distinct (signal, window) pairs once, matching
signals by object identity (the command line passes one SampledSignal per
function spec, so a repeated spec is one object); a pair that both sides
use is computed once per side. The rotation check's field is F_Z; its
second pass computes V's rows again and forms F_Z's rows again, with the
same bits, to compare them with the transform, from the centre out, and
skips the pairs of blocks that cannot reach the largest gap found so far
(_streamed_rotation_defect); a field of the default layout's size is held
twice instead (_rotation_defect).
build_auxiliary gives F_Z as a TFArray, and rotation_invariance_defect
transforms a caller's read-only F_Z in one fresh array.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator

import numpy as np

from tfu.core import (
    _STEP_RTOL,
    SampledSignal,
    SignalLayout,
    TFArray,
    TFGrid,
    _chirp_rows,
    _finite_peak,
    _fourier_2d_swapped,
    _max_abs,
    _mirrored_blocks,
    _require_finite,
    _row_blocks,
    require_plane,
)
from tfu.reference import translate_modulate
from tfu.stft import _stft_rows


def _require_rotatable(grid: TFGrid) -> None:
    """Refuse a grid that is not the plane of a self-dual layout, on which
    self-dual (count * step^2 == 1) means x_step == xi_step, to _STEP_RTOL."""
    require_plane(grid, SignalLayout(grid.x_count, grid.x_step))
    if not math.isclose(grid.x_step, grid.xi_step, rel_tol=_STEP_RTOL):
        raise ValueError("asymmetric grid: the quarter rotation needs x_step == xi_step (count * step^2 == 1)")


def point_reflection(values: np.ndarray, axes: int | tuple[int, ...] = (0, 1)) -> np.ndarray:
    """Field at (-x, -xi), or reflected on the given axes only: index (N - i) mod N."""
    return np.roll(np.flip(values, axes), 1, axes)


def _reflected(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """rows point-reflected into out, a block of rows' shape whose rows,
    in reverse order, are the reflections of rows' rows: out[i, k] is
    rows[-1 - i, -k mod N]. The values are only moved."""
    out[:, 0] = rows[::-1, 0]
    out[:, 1:] = rows[::-1, :0:-1]
    return out


def _auxiliary_rows(
    grid: TFGrid,
    f: SampledSignal,
    g: SampledSignal,
    z: float,
    zeta: float,
    out: np.ndarray | None = None,
    wanted: Callable[..., bool] | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """Blocks (start, rows) of F_Z for the shift Z = (z, zeta) on grid, a
    rotatable plane, in the order of tfu.core._mirrored_blocks: row N/2,
    then each upper block and its mirrored lower block, from the centre
    out, then row 0; a pair that wanted refuses, if given, is skipped. The
    rows go into out[start:], a field, if given, or else into a reused
    block of the pass, valid until the next.

    V = V_g(M_zeta T_z f) comes from tfu.stft._stft_rows, each row computed
    once, and each mirrored pair of its blocks becomes F_Z in place: the
    chirp exp(2 pi i x xi) (tfu.core._chirp_rows), times V, times V at
    (-x, -xi), in that order. Each product runs over whole contiguous
    blocks, the reflections copied into spare blocks: numpy rounds a
    product of length one in place differently, and a block can be one
    row. The chirp takes the same value at (x, xi) and (-x, -xi), one
    table entry, so the lower block's chirp is the upper's, reflected, and
    is not gathered.
    """
    chirp = _chirp_rows(grid, 1)
    source = _stft_rows(translate_modulate(f, z, zeta), g, grid)
    for start, (*v, a, b, c) in _mirrored_blocks(grid, source, 3, out, wanted):
        chirp(a, start)
        if len(v) == 1:  # row N/2 or 0, its own reflection
            (row,) = v
            np.multiply(a, row, out=a)
            np.multiply(a, _reflected(row, c), out=row)
            yield start, row
            continue
        upper, lower = v
        _reflected(a, b)  # the lower block's chirp
        np.multiply(a, upper, out=a)
        np.multiply(b, lower, out=b)
        _reflected(lower, c)  # V at (-x, -xi) on the upper rows
        _reflected(upper, lower)  # and on the lower rows, over V, which b and c now hold
        np.multiply(a, c, out=upper)
        np.multiply(b, lower, out=lower)
        yield start, upper
        yield grid.x_count - start - len(upper) + 1, lower


def build_auxiliary(f: SampledSignal, g: SampledSignal, grid: TFGrid, z: float, zeta: float) -> TFArray:
    """F_Z for the shift Z = (z, zeta), in one fresh field: V is filled
    into it one mirrored pair of row blocks at a time and F_Z formed there
    in place (_auxiliary_rows), so no other field is held. The grid must be
    the plane of a self-dual layout (other grids raise ValueError before
    the STFT is computed). A non-finite node of F_Z, as a non-finite V
    gives, is named at the first such node in row-major order."""
    _require_rotatable(grid)
    field = np.empty(grid.shape, dtype=np.complex128)
    for _ in _auxiliary_rows(grid, f, g, z, zeta, field):
        pass
    return TFArray._fresh(grid, field)


def _rotation_gap(swapped: np.ndarray, blocks: Iterable[tuple[int, np.ndarray]]) -> float:
    """max |FT(w) - v((-xi, x))| for swapped = core._fourier_2d_swapped(w),
    whose row k holds FT(w) at xi-node k, and v given as blocks (start,
    rows) of its rows in any order, together all of them. Rotated, v at
    (x_j, xi_k) is v[-k mod N, j], so row r of v is compared with row
    -r mod N of swapped: row 0 with row 0, and rows r >= 1 with rows N - r,
    through a reversed view of the block. Each block is subtracted from its
    rows of swapped as it arrives, and the moduli of the difference are
    taken there, in swapped's own row order; row 0's difference is taken
    with the block's other rows if they end at row N - 1, whose rows of
    swapped it then adjoins, and alone otherwise."""
    n = len(swapped)
    gap = 0.0
    for start, rows in blocks:
        first, stop = max(start, 1), start + len(rows)
        lo, hi = n - stop + 1, n - first + 1  # the rows of swapped that rows first ... stop - 1 meet
        np.subtract(swapped[lo:hi], rows[first - start :][::-1], out=swapped[lo:hi])
        if start == 0:
            np.subtract(swapped[0], rows[0], out=swapped[0])
            if lo == 1:
                lo = 0
            else:
                gap = max(gap, _max_abs(swapped[0]))
        if hi > lo:
            gap = max(gap, _max_abs(swapped[lo:hi]))
    return gap


def _nonzero_transform(grid: TFGrid, field: np.ndarray, scale: float) -> np.ndarray:
    """_fourier_2d_swapped of field = F_Z, whose peak modulus is scale, in
    place if field is writable, after the checks that F_Z is not zero and
    has decayed; the transform is then checked finite."""
    if scale == 0.0:
        raise ValueError("field is identically zero")
    swapped = _fourier_2d_swapped(grid, field, scale)
    _require_finite(swapped.T, "field")
    return swapped


def rotation_invariance_defect(a: TFArray) -> float:
    """max |FT(F_Z) - F_Z((-xi, x))| / max |F_Z| for the field a = F_Z,
    transformed in one fresh array, as its values are read-only; the decay
    check before the transform takes max |F_Z| from here."""
    _require_rotatable(a.grid)
    scale = _max_abs(a.values)
    return _rotation_gap(_nonzero_transform(a.grid, a.values, scale), [(0, a.values)]) / scale


#: F_Z of at most this many bytes, count <= 256 (the default layout's
#: plane), is checked by rotation_invariance_defect(build_auxiliary(...)):
#: two fields and no second pass. Streaming so small a field saves 1 MiB,
#: and under tfu run's thread pool the second pass's many small numpy calls
#: cost paper-suite about a tenth of its in-process time.
_COPIED_FIELD_BYTES = 1 << 20


def _rotation_defect(f: SampledSignal, g: SampledSignal, grid: TFGrid, z: float, zeta: float) -> float:
    """rotation_invariance_defect(build_auxiliary(f, g, grid, z, zeta)),
    bit for bit: computed so for F_Z of at most _COPIED_FIELD_BYTES, and
    otherwise in one field (_streamed_rotation_defect)."""
    _require_rotatable(grid)
    if 16 * grid.x_count * grid.xi_count <= _COPIED_FIELD_BYTES:
        return rotation_invariance_defect(build_auxiliary(f, g, grid, z, zeta))
    return _streamed_rotation_defect(f, g, grid, z, zeta)


def _streamed_rotation_defect(f: SampledSignal, g: SampledSignal, grid: TFGrid, z: float, zeta: float) -> float:
    """rotation_invariance_defect(build_auxiliary(f, g, grid, z, zeta)),
    bit for bit, holding one field and a few blocks of rows.

    The first pass of _auxiliary_rows forms F_Z in a fresh field and takes
    the peak modulus of each block; the field is transformed in place. The
    second pass, from the centre out, computes V's rows again, forms F_Z's
    rows again with the same bits, and compares each block with the
    transform's rows as it comes (_rotation_gap). It skips a mirrored pair
    of blocks, without computing its rows, when no node of it can reach
    the largest gap found so far. A node's |FT - F_Z|, as computed, is at
    most (|FT| + |F_Z|)(1 + 8u), u = 2^-53, plus a few ulps of the
    smallest subnormal; the pair is skipped when the sum of its peaks,
    times 1 + 2^-40 and plus 2^-1000, is below the gap, so it could not
    have changed the maximum. Fields that decay, as every admitted field
    does, have their largest gap near the centre, and most pairs far from
    it are skipped (three in four at N = 1024 for the unit Gaussian).

    The checks run in this order: the grid (_require_rotatable), the
    shift's lattice rule (translate_modulate), the layouts of f and g;
    then F_Z's finiteness (the first non-finite node in row-major order
    is named, in F_Z's coordinates); a zero F_Z ("field is identically
    zero"); its decay; the transform's finiteness.
    """
    _require_rotatable(grid)
    field = np.empty(grid.shape, dtype=np.complex128)
    peaks = {start: _max_abs(rows) for start, rows in _auxiliary_rows(grid, f, g, z, zeta, field)}
    if not all(map(math.isfinite, peaks.values())):
        _require_finite(field, "field")
    scale = max(peaks.values())
    swapped = _nonzero_transform(grid, field, scale)
    gap = 0.0

    def wanted(*spans: tuple[int, int]) -> bool:
        # the pair's rows of swapped are those of its spans (row r meets row -r)
        bound = max(peaks[a] for a, _ in spans) + max(_max_abs(swapped[a:b]) for a, b in spans)
        return not bound * (1 + 2**-40) + 2**-1000 < gap

    for start, rows in _auxiliary_rows(grid, f, g, z, zeta, wanted=wanted):
        gap = max(gap, _rotation_gap(swapped, [(start, rows)]))
    return gap / scale


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
