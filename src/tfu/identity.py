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
a few blocks of rows. The product identity's is its left product; a
second pass forms the right product one block of rows at a time and
compares it with the transform as it goes. Each side computes each row of
each of its distinct (signal, window) pairs at most once, matching signals by
object identity (the command line passes one SampledSignal per function
spec, so a repeated spec is one object); a pair that both sides use is
computed once per side. The rotation check's field is F_Z; its second
pass computes V's rows again and forms F_Z's rows again, with the same
bits, to compare them with the transform; a field of the default layout's
size is held twice instead (_rotation_defect). Both second passes go from
the centre out in mirrored pairs of blocks and skip each pair that cannot
reach the largest gap found so far: one rule, in _centre_out_gap. A
pair's bound comes from the rotation check's first pass, and for the
product identity, which has no first pass over its right product, from
the samples (tfu.stft._stft_row_bounds): a skipped pair provably could
not have changed the gap or the scale, and its rows are provably finite,
so the defect keeps every bit and the order of the checks is unchanged.
build_auxiliary gives F_Z as a TFArray, and rotation_invariance_defect
transforms a caller's read-only F_Z in one fresh array.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Iterable, Iterator

import numpy as np

from tfu.core import (
    _STEP_RTOL,
    Rows,
    SampledSignal,
    SignalLayout,
    TFArray,
    TFGrid,
    _chirp_rows,
    _fill,
    _finite_peak,
    _fourier_2d_swapped,
    _max_abs,
    _mirrored_blocks,
    _mirrored_spans,
    _require_finite,
    _row_blocks,
    require_plane,
)
from tfu.reference import translate_modulate
from tfu.stft import _stft_row_bounds, _stft_rows


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
    for starts, (*v, a, b, c) in _mirrored_blocks(grid, source, 3, out, wanted):
        chirp(a, starts[0])
        if len(v) == 1:  # row N/2 or 0, its own reflection
            (row,) = v
            np.multiply(a, row, out=a)
            np.multiply(a, _reflected(row, c), out=row)
            yield starts[0], row
            continue
        upper, lower = v
        _reflected(a, b)  # the lower block's chirp
        np.multiply(a, upper, out=a)
        np.multiply(b, lower, out=b)
        _reflected(lower, c)  # V at (-x, -xi) on the upper rows
        _reflected(upper, lower)  # and on the lower rows, over V, which b and c now hold
        np.multiply(a, c, out=upper)
        np.multiply(b, lower, out=lower)
        yield from zip(starts, (upper, lower))


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


def _nonzero_transform(grid: TFGrid, field: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """_fourier_2d_swapped of field = F_Z, whose peak modulus is scale, in
    place if field is writable, after the checks that F_Z is not zero and
    has decayed, and the peak of each of its rows, taken in the pass that
    checks it finite (_finite_peak)."""
    if scale == 0.0:
        raise ValueError("field is identically zero")
    swapped = _fourier_2d_swapped(grid, field, scale)
    return swapped, _finite_peak(swapped)


def rotation_invariance_defect(a: TFArray) -> float:
    """max |FT(F_Z) - F_Z((-xi, x))| / max |F_Z| for the field a = F_Z,
    transformed in one fresh array, as its values are read-only; the decay
    check before the transform takes max |F_Z| from here."""
    _require_rotatable(a.grid)
    scale = _max_abs(a.values)
    swapped, _ = _nonzero_transform(a.grid, a.values, scale)
    return _rotation_gap(swapped, [(0, a.values)]) / scale


#: F_Z of at most this many bytes, count <= 256 (the default layout's
#: plane), is checked by rotation_invariance_defect(build_auxiliary(...)):
#: two fields and no second pass. At count 256 the streamed second pass
#: computes 129 of the 256 rows of V again, 385 STFT rows a shift against
#: 256, and took about 6 ms a shift against 5 (medians of 41 calls, one
#: thread, 2 vCPUs); streaming every rotation made paper-suite about 4-5%
#: slower in process, serially. Streaming so small a field would save only
#: 1 MiB.
_COPIED_FIELD_BYTES = 1 << 20


def _rotation_defect(f: SampledSignal, g: SampledSignal, grid: TFGrid, z: float, zeta: float) -> float:
    """rotation_invariance_defect(build_auxiliary(f, g, grid, z, zeta)),
    bit for bit: computed so for F_Z of at most _COPIED_FIELD_BYTES, and
    otherwise in one field (_streamed_rotation_defect)."""
    if 16 * grid.x_count * grid.xi_count <= _COPIED_FIELD_BYTES:
        return rotation_invariance_defect(build_auxiliary(f, g, grid, z, zeta))
    return _streamed_rotation_defect(f, g, grid, z, zeta)


def _centre_out_gap(
    swapped: np.ndarray,
    row_peaks: np.ndarray,
    bounds: np.ndarray,
    blocks: Callable[[Callable[..., bool]], Iterable[tuple[int, np.ndarray, float]]],
    scale: float,
) -> tuple[float, float]:
    """The largest gap |FT(w) - v((-xi, x))| (_rotation_gap) between
    swapped = tfu.core._fourier_2d_swapped(w), whose rows peak at
    row_peaks (tfu.core._finite_peak), and a field v; and the larger of
    scale, at least max |FT(w)|, and v's peak modulus.

    blocks(wanted) gives v's blocks (start, rows, peak), peak being the
    rows' finite peak modulus, in the mirrored pairs of spans of
    tfu.core._mirrored_spans, from the centre out, and skips each pair
    that wanted refuses without computing its rows. bounds[j] bounds every modulus of v's row
    j as computed. The pair is refused when its bound is at most the
    running scale and its bound plus the peak of the rows of swapped that
    it meets (those of its spans: row r meets row -r mod N), times
    1 + 2^-40 and plus 2^-1000, is below the largest gap found so far. A
    node's |FT - v|, as computed, is at most (|FT| + |v|)(1 + 8u),
    u = 2^-53, plus a few ulps of the smallest subnormal, so a refused pair
    could not have changed the gap; its rows are at most the scale, so
    they could not have raised it; and a bound at most a finite scale is
    finite, so its rows are finite too. Fields that decay have their
    largest gap near the centre, and most pairs far from it are skipped.
    """
    gap = 0.0

    def wanted(*spans: tuple[int, int]) -> bool:
        bound = max(bounds[a:b].max() for a, b in spans)
        near = max(row_peaks[a:b].max() for a, b in spans)
        return not (bound <= scale and (bound + near) * (1 + 2**-40) + 2**-1000 < gap)

    for start, rows, peak in blocks(wanted):
        scale = max(scale, peak)
        gap = max(gap, _rotation_gap(swapped, [(start, rows)]))
    return gap, scale


def _streamed_rotation_defect(f: SampledSignal, g: SampledSignal, grid: TFGrid, z: float, zeta: float) -> float:
    """rotation_invariance_defect(build_auxiliary(f, g, grid, z, zeta)),
    bit for bit, holding one field and a few blocks of rows.

    The first pass of _auxiliary_rows forms F_Z in a fresh field and takes
    the peak modulus of each block, which bounds its rows; the field is
    transformed in place. The second pass computes V's rows again, forms
    F_Z's rows again with the same bits, and compares them with the
    transform's rows from the centre out, skipping the mirrored pairs of
    blocks that cannot reach the largest gap found so far
    (_centre_out_gap): three in four at N = 1024 for the unit Gaussian.

    The checks run in this order: the grid (_require_rotatable), the
    shift's lattice rule (translate_modulate), the layouts of f and g;
    then F_Z's finiteness (the first non-finite node in row-major order
    is named, in F_Z's coordinates); a zero F_Z ("field is identically
    zero"); its decay; the transform's finiteness.
    """
    _require_rotatable(grid)
    field = np.empty(grid.shape, dtype=np.complex128)
    bounds = np.empty(grid.x_count)
    for start, rows in _auxiliary_rows(grid, f, g, z, zeta, field):
        bounds[start : start + len(rows)] = _max_abs(rows)
    if not np.isfinite(bounds).all():
        _require_finite(field, "field")
    scale = float(bounds.max())
    swapped, row_peaks = _nonzero_transform(grid, field, scale)

    def blocks(wanted: Callable[..., bool]) -> Iterator[tuple[int, np.ndarray, float]]:
        for start, rows in _auxiliary_rows(grid, f, g, z, zeta, wanted=wanted):
            yield start, rows, bounds[start]

    return _centre_out_gap(swapped, row_peaks, bounds, blocks, scale)[0] / scale


Pair = tuple[SampledSignal, SampledSignal]


def _product_rows(grid: TFGrid, b: Pair, a: Pair) -> Rows:
    """The row source (tfu.core.Rows) of the product conj(V_b) * V_a of the
    STFTs of the (signal, window) pairs b and a on grid.

    Each block's rows of V_a are computed (tfu.stft._stft_rows) into a
    fresh block, and those of V_b into out, once if b and a are one pair
    (matched by identity); out is conjugated in place and multiplied by
    V_a in place, in that fixed order, as the complex multiply rounds
    a * b and b * a differently.
    """
    shared = all(map(operator.is_, b, a))
    stft_b = _stft_rows(*b, grid)
    stft_a = stft_b if shared else _stft_rows(*a, grid)

    def rows(out: np.ndarray, start: int) -> np.ndarray:
        va = stft_a(np.empty_like(out), start)
        np.conjugate(va if shared else stft_b(out, start), out=out)
        return np.multiply(out, va, out=out)

    return rows


def fundamental_identity_defect(
    f1: SampledSignal,
    f2: SampledSignal,
    g1: SampledSignal,
    g2: SampledSignal,
    grid: TFGrid,
) -> float:
    """Normalized max-abs gap between the two sides of the product identity.

    Each side is a product conj(b) * a of the STFTs of two (signal, window)
    pairs, whose rows _product_rows computes. The left side is filled into
    one field (tfu.core._fill), each block checked finite and its peak
    taken for the decay check, and transformed in place; one pass over the
    transform takes the peak of each of its rows and checks it finite
    (_finite_peak), and their maximum starts the scale. The right side is
    only compared with the transform's rows, so a second pass streams it
    one block at a time from the centre out, in the mirrored pairs of
    tfu.core._mirrored_spans: each block's peak joins the scale, and its
    gap is taken while it is in cache. One field and about one block are
    held.

    The second pass skips each pair that cannot reach the largest gap
    found so far, by the rule that the rotation check shares
    (_centre_out_gap), with a bound taken from the samples:
    tfu.stft._stft_row_bounds bounds every computed modulus of row j of
    each of the right side's two STFTs, by R_j and R'_j, and the product's
    row j is bounded by R_j R'_j times 1 + 2^-20, plus 2^-1000. A computed
    product of two entries is at most the product of their moduli times
    1 + sqrt(5) u, u = 2^-53, plus a few ulps of the smallest subnormal,
    and the rounded R_j R'_j is low by at most a relative u and half such
    an ulp: the factor and the floor cover both. The bound falls off away
    from the centre as the signals decay: for (h1, G, h1, h1) the pass
    computes 257 of the 1024 rows of each of its STFTs at count 1024, and
    129 of the 256 at count 256.

    The checks run in this order: the left product's finiteness, its
    decay, the transform's finiteness, then the right product's
    finiteness, naming its first non-finite node in row-major order. A
    skipped pair leaves none unchecked: its bound is at most the finite
    scale, so its rows are finite. An input whose left product is not
    decayed and whose right product is not finite is refused as unsound
    truncation.
    """
    _require_rotatable(grid)
    # FT(V_{g1}f1 conj V_{g2}f2) against (V_{f2}f1 conj V_{g2}g1)(-xi, x)
    left, peaks = _product_rows(grid, (f2, g2), (f1, g1)), []

    def checked(out: np.ndarray, start: int) -> np.ndarray:
        _require_finite(left(out, start), "field", (start, 0))
        peaks.append(_max_abs(out))
        return out

    swapped = _fourier_2d_swapped(grid, _fill(grid, checked, held=2), max(peaks))
    row_peaks = _finite_peak(swapped)
    pairs = (g1, g2), (f1, f2)
    right = _product_rows(grid, *pairs)
    bounds = np.multiply(*(_stft_row_bounds(*pair) for pair in pairs)) * (1 + 2**-20) + 2**-1000

    def blocks(wanted: Callable[..., bool]) -> Iterator[tuple[int, np.ndarray, float]]:
        mirrored = _mirrored_spans(grid)
        buffer = np.empty((max(b - a for spans in mirrored for a, b in spans), grid.xi_count), dtype=np.complex128)
        for start, stop in (span for spans in mirrored if wanted(*spans) for span in spans):
            rows = right(buffer[: stop - start], start)
            peak = _max_abs(rows)
            if not math.isfinite(peak):  # name the first non-finite node in row-major order
                for first, (ascending,) in _row_blocks(grid, [right]):
                    _require_finite(ascending, "field", (first, 0))
            yield start, rows, peak

    gap, scale = _centre_out_gap(swapped, row_peaks, bounds, blocks, float(row_peaks.max()))
    return 0.0 if scale == 0.0 else gap / scale
