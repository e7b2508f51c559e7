"""Grids, sampled signals, deterministic quadrature, and centered Fourier transforms.

Conventions used throughout the package:

* Signals are uniformly sampled on an origin-centered, half-open window:
  sample k of an N-point signal with step d lives at t_k = (k - N/2) d,
  so the window is [-N d/2, N d/2). N is even.
* The Fourier transform is F(xi) = integral f(x) exp(-2 pi i x xi) dx.
  Its discrete realization is the Riemann sum over the sample lattice,
  evaluated on the dual lattice (step 1/(N d)) by an FFT with centering
  shifts. The signal is treated as identically zero outside its window,
  and a boundary-decay check guards that truncation.
* The STFT family samples one plane per layout, TFGrid.from_layout: x on
  the sample lattice, xi on its dual; require_plane refuses any other grid.
* Every double integral over the time-frequency plane is a Riemann sum
  weighted by the grid's cell measure (_plane_sum). Reductions use a fixed
  pairwise cascade (see tfu._kernels): results reproduce bit for bit. Plane
  integrands are formed in aligned blocks of _SUM_BLOCK row-major nodes,
  each a subtree of that same cascade, so no N^2 integrand array is held.
* Work that cannot change a reported bit is skipped, by bounds widened to
  cover every rounding. A sum of |V| or of its scaled powers skips
  each subtree whose sum is below half an ulp of its sibling's, as adding
  it could not change the sibling's bits: the field's peak |V| per run of
  _RUN nodes bounds each subtree's sum from above and, by its largest
  leaf, from below (_live_runs). The 2-D transform's second pass computes
  a row only when asked for (_transform_rows), and bounds each row by the
  l1 norm of what it transforms, so that a caller can skip the rows that
  cannot change its result (tfu.identity's checks).
* A field is computed by its row source (Rows), which writes every node of
  the block of whole rows it is given. Three functions split sources into
  blocks: _row_blocks, one pass over reused buffers (a field read only
  through |V| is held as a TFModulus filled this way); _mirrored_blocks,
  one pass over the pairs of blocks that the point reflection (-x, -xi)
  maps onto each other (_mirrored_spans), into reused buffers or a field;
  and _fill, the whole field in one fresh array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from tfu import _kernels

#: Relative boundary magnitude above which a 1-D signal is considered
#: unsafe to treat as compactly supported.
BOUNDARY_DECAY_TOL_1D = 1e-12
#: Same guard for 2-D fields.
BOUNDARY_DECAY_TOL_2D = 1e-10

_STEP_RTOL = 1e-12

#: Bytes of an N^2 array that one step of a blockwise pass works on, shared
#: by every such pass: the row blocks of _max_abs, _row_blocks and _fill and
#: the float64 leaves of a _plane_sum block; _centered_fft transforms half a
#: block of rows at a time (16 rows at N = 1024). A block stays in cache,
#: and a pass holds about one block of temporaries whatever N.
_FFT_BLOCK_BYTES = 1 << 19
#: Leaves per _plane_sum block: 2^16, a power of two, so that each block is
#: an aligned subtree of the cascade's tree.
_SUM_BLOCK = _FFT_BLOCK_BYTES // 8
#: Leaves per run whose peak plans a pruned _plane_sum: 2^8, a power of
#: two, so that each run is an aligned subtree of a block.
_RUN = 256


def pairwise_sum(values: np.ndarray) -> float:
    """Deterministic cascade sum of a real array (any shape)."""
    return _kernels.cascade_sum(values)


def layout_count(count: int) -> int:
    """count, if a SignalLayout can have it: an even integer >= 16."""
    if count < 16 or count % 2 != 0:
        raise ValueError(f"signal count must be an even integer >= 16, got {count}")
    return count


def layout_step(step: float) -> float:
    """step, if a SignalLayout can have it: positive and finite."""
    if not (step > 0 and math.isfinite(step)):
        raise ValueError(f"signal step must be positive and finite, got {step}")
    return step


@dataclass(frozen=True)
class SignalLayout:
    """Sampling lattice of a signal: count points, spacing step."""

    count: int
    step: float

    def __post_init__(self) -> None:
        layout_count(self.count)
        layout_step(self.step)

    @property
    def dual_step(self) -> float:
        return 1.0 / (self.count * self.step)

    def times(self) -> np.ndarray:
        return (np.arange(self.count) - self.count // 2) * self.step

    def dual(self) -> "SignalLayout":
        return SignalLayout(self.count, self.dual_step)


#: 256 samples on [-8, 8) with step 1/16, both in time and frequency.
#: Self-dual, and Gaussian tails at the boundary are ~1e-87.
DEFAULT_LAYOUT = SignalLayout(count=256, step=1.0 / 16)


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """Uniformly sampled complex signal on an origin-centered window."""

    samples: np.ndarray
    step: float

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples, dtype=np.complex128)
        SignalLayout(arr.size, self.step)  # validates count and step
        if not np.all(np.isfinite(arr)):
            raise ValueError("signal samples must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def count(self) -> int:
        return self.samples.size

    @property
    def layout(self) -> SignalLayout:
        return SignalLayout(self.count, self.step)

    def l2_norm(self) -> float:
        """sqrt(step * sum |samples|^2), via the deterministic cascade.

        The moduli are squared scaled by 2^-e, e the binary exponent of the
        largest, and the root is scaled back: exact, and safe from under- and
        overflow."""
        mag = np.abs(self.samples)
        e = math.frexp(float(np.max(mag)))[1]
        return math.ldexp(math.sqrt(self.step * pairwise_sum(np.ldexp(mag, -e) ** 2)), e)


@dataclass(frozen=True)
class TFGrid:
    """The discrete (x, xi) lattice all plane quadrature runs on.

    Node (j, k) sits at ((j - x_count/2) x_step, (k - xi_count/2) xi_step);
    both axes are origin-centered and half-open, like SignalLayout.
    """

    x_step: float
    xi_step: float
    x_count: int
    xi_count: int

    def __post_init__(self) -> None:
        for name, count in (("x_count", self.x_count), ("xi_count", self.xi_count)):
            if count <= 0 or count % 2 != 0:
                raise ValueError(f"{name} must be a positive even integer, got {count}")
        for name, step in (("x_step", self.x_step), ("xi_step", self.xi_step)):
            if not (step > 0 and math.isfinite(step)):
                raise ValueError(f"{name} must be positive and finite, got {step}")

    @property
    def cell_measure(self) -> float:
        return self.x_step * self.xi_step

    @property
    def shape(self) -> tuple[int, int]:
        return (self.x_count, self.xi_count)

    def x_nodes(self) -> np.ndarray:
        return (np.arange(self.x_count) - self.x_count // 2) * self.x_step

    def xi_nodes(self) -> np.ndarray:
        return (np.arange(self.xi_count) - self.xi_count // 2) * self.xi_step

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.x_nodes(), self.xi_nodes(), indexing="ij")

    def dual(self) -> "TFGrid":
        return TFGrid(
            x_step=1.0 / (self.x_count * self.x_step),
            xi_step=1.0 / (self.xi_count * self.xi_step),
            x_count=self.x_count,
            xi_count=self.xi_count,
        )

    @classmethod
    def from_layout(cls, layout: SignalLayout) -> "TFGrid":
        """STFT grid for a signal layout: x on the sample lattice, xi on its dual."""
        return cls(
            x_step=layout.step,
            xi_step=layout.dual_step,
            x_count=layout.count,
            xi_count=layout.count,
        )


def require_plane(grid: TFGrid, layout: SignalLayout) -> None:
    """Refuse a grid other than TFGrid.from_layout(layout), steps to _STEP_RTOL:
    the one plane the STFT samples, x on the signal's lattice and xi on its dual."""
    plane = TFGrid.from_layout(layout)
    steps = zip((grid.x_step, grid.xi_step), (plane.x_step, plane.xi_step))
    if grid.shape != plane.shape or not all(math.isclose(a, b, rel_tol=_STEP_RTOL) for a, b in steps):
        raise ValueError(f"off-plane grid: {grid} is not the plane of {layout}, {plane}; resampling is refused")


def lattice_multiple(length: float, step: float, what: str) -> int:
    """length / step, if it is an integer to 1e-9 (a shift by length is then an index shift)."""
    ratio = length / step  # inf if it overflows
    if not (math.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9):
        raise ValueError(f"{what} {length} is not a lattice multiple of step {step}")
    return round(ratio)


class _cached:
    """functools.cached_property without its class-wide lock (Python < 3.12),
    which would make threads computing on different instances wait for each
    other. The value is stored in the instance's __dict__, so frozen
    dataclasses can use it too."""

    def __init__(self, compute: Callable) -> None:
        self.compute = compute

    def __get__(self, obj: object, owner: type | None = None):
        if obj is None:
            return self
        value = obj.__dict__[self.compute.__name__] = self.compute(obj)
        return value


def _descending(magnitude: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """magnitude flattened and sorted descending, written into out (default:
    a fresh array; magnitude's own flat view sorts it in place): the
    negated values are sorted in place and negated back, which gives the
    bits of -np.sort(-magnitude) in one contiguous array (a reversed view
    of np.sort can change the last bits of a power)."""
    desc = np.negative(magnitude.ravel(), out=out)
    desc.sort()
    return np.negative(desc, out=desc)


def _run_peaks(flat: np.ndarray) -> np.ndarray:
    """max of each run of _RUN consecutive values of flat (the last run may
    be short)."""
    whole = flat.size - flat.size % _RUN
    peaks = np.max(flat[:whole].reshape(-1, _RUN), axis=1)
    return np.append(peaks, np.max(flat[whole:])) if whole < flat.size else peaks


class _Sorted:
    """What the functionals of a field's |V| (its magnitude) share, each
    computed once, on first use: the descending sort, which the greedy
    support of every mode reads, and the run peaks, which plan every pruned
    plane sum of the field (_plane_sum)."""

    @_cached
    def descending(self) -> np.ndarray:
        """|V| of all nodes, flattened and sorted descending (_descending),
        in a second array."""
        desc = _descending(self.magnitude)
        desc.setflags(write=False)
        return desc

    @_cached
    def peaks(self) -> np.ndarray:
        """max |V| over each run of _RUN row-major nodes (_run_peaks)."""
        return _run_peaks(self.magnitude.reshape(-1))


@dataclass(frozen=True, eq=False)
class TFArray(_Sorted):
    """Complex field sampled on a TFGrid; entries are validated finite.

    The constructor copies values into C order, so later changes to the
    caller's array change nothing. |V|, its descending sort and its run
    peaks are computed once per field, on first use, and shared by the
    functionals that read every |V|: Lp sums, weighted masses and greedy
    support. Maxima of |V|
    (_max_abs) and the 2-D transform take |.| one row block at a time and
    cache nothing.
    """

    grid: TFGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self._seal(np.array(self.values, dtype=np.complex128, order="C"))

    @classmethod
    def _fresh(cls, grid: TFGrid, values: np.ndarray) -> "TFArray":
        """A TFArray that takes over values, an array the library has just
        computed and keeps no other reference to; complex128 is not copied."""
        a = object.__new__(cls)
        object.__setattr__(a, "grid", grid)
        a._seal(np.asarray(values, dtype=np.complex128))
        return a

    def _seal(self, values: np.ndarray) -> None:
        """Check values against the grid, finite, and hold them read-only."""
        _check_field(self.grid, values)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @_cached
    def magnitude(self) -> np.ndarray:
        """|V| at every node."""
        mag = np.abs(self.values)
        mag.setflags(write=False)
        return mag


@dataclass(frozen=True, eq=False)
class TFModulus(_Sorted):
    """|V| of a complex field on a TFGrid, as float64 values, for the
    functionals that read only |V|: Lp sums, weighted masses and greedy
    support read its grid, magnitude and descending as they read a
    TFArray's. Made by _moduli from the field's rows, so the complex field
    (16 count^2 bytes) is never held, only |V| (8 count^2 bytes) and, once
    sorted, its descending sort (as many again).

    The values are read-only while the modulus may be shared. Its one
    holder, which reads its |V| no more after, may release it (_release)
    to a functional that then overwrites it (_owned): greedy support sorts
    |V| in values' own array instead of a second one, and a growth scan
    forms its integrand there instead of in a fresh array.
    """

    grid: TFGrid
    values: np.ndarray

    @property
    def magnitude(self) -> np.ndarray:
        """|V| at every node: values itself."""
        return self.values

    def _release(self) -> "TFModulus":
        """This modulus, its values made writable, for a holder that reads
        its |V| no more: the functionals it is then given may overwrite it."""
        self.values.setflags(write=True)
        return self

    def _sort_in_place(self) -> np.ndarray:
        """descending, for an owned modulus: |V| sorted in values' own array
        (_descending), which no longer holds |V| in row-major order."""
        flat = self.values.reshape(-1)
        self.__dict__.pop("peaks", None)  # of the row-major |V|, now gone
        desc = self.__dict__["descending"] = _descending(flat, out=flat)
        return desc


def _owned(v: TFArray | TFModulus) -> bool:
    """Whether v's |V| may be overwritten: v is a released TFModulus."""
    return isinstance(v, TFModulus) and v.values.flags.writeable


#: A row source: rows(out, start) writes rows start ... start + len(out) - 1
#: of a complex field into out, a complex128 C-contiguous block of whole
#: rows, every node of it, and returns it (tfu.stft._stft_rows is one). Each
#: row is computed on its own, so any split of the rows gives the bits of
#: one call over all of them. Sources are split by _row_blocks,
#: _mirrored_blocks and _fill, and in the spans of _mirrored_spans.
Rows = Callable[[np.ndarray, int], np.ndarray]


def _row_blocks(grid: TFGrid, sources: Sequence[Rows]) -> Iterator[tuple[int, list[np.ndarray]]]:
    """One pass over blocks of whole rows of the fields the sources give on
    grid: (start, blocks) in ascending start, blocks holding each source's
    rows start ... start + len - 1. The blocks are views of buffers that
    share about _FFT_BLOCK_BYTES and are reused: each is valid until the
    next."""
    n, m = grid.shape
    block = min(n, max(1, _FFT_BLOCK_BYTES // (16 * m * len(sources))))
    buffers = [np.empty((block, m), dtype=np.complex128) for _ in sources]
    for start in range(0, n, block):
        yield start, [rows(buffer[: min(block, n - start)], start) for rows, buffer in zip(sources, buffers)]


def _mirrored_spans(grid: TFGrid) -> list[tuple[tuple[int, int], ...]]:
    """The spans (start, stop) of whole rows on grid, paired as the point
    reflection (-x, -xi) pairs them (row j with row -j mod N), from the
    centre out: row N/2 alone; then, in descending start, rows start ...
    stop - 1 within [1, N/2) with their reflections' rows N - stop + 1 ...
    N - start; then row 0 alone. A span of a pair takes about half
    _FFT_BLOCK_BYTES, so the pair about one (16 rows a span at N = 1024):
    fewer, larger blocks keep a pass from handing the interpreter lock to
    other threads at every small numpy call."""
    n, m = grid.shape
    h = n // 2
    block = max(1, min(h - 1, _FFT_BLOCK_BYTES // (32 * m)))
    pairs = [((h, h + 1),)]
    for stop in range(h, 1, -block):
        start = max(1, stop - block)
        pairs.append(((start, stop), (n - stop + 1, n - start + 1)))
    pairs.append(((0, 1),))
    return pairs


def _mirrored_blocks(
    grid: TFGrid,
    rows: Rows,
    spares: int,
    out: np.ndarray | None = None,
    wanted: Callable[..., bool] | None = None,
) -> Iterator[tuple[list[int], list[np.ndarray]]]:
    """One pass over the blocks of whole rows of the field that rows gives
    on grid, in the pairs of spans of _mirrored_spans. Each pair comes as
    (starts, blocks), the first row of each block and the blocks, followed
    by spares more blocks of the first block's shape for the caller to
    write. If wanted is given, it is asked first with the pair's spans, and
    a pair it refuses is skipped: its rows are not computed. The rows go
    into out, a field, if given, or else into buffers, which are reused,
    each block valid until the next."""
    pairs = _mirrored_spans(grid)
    block = max(b - a for spans in pairs for a, b in spans)
    buffers = [np.empty((block, grid.xi_count), dtype=np.complex128) for _ in range((2 if out is None else 0) + spares)]
    spare = buffers[len(buffers) - spares :]
    for spans in pairs:
        if wanted is not None and not wanted(*spans):
            continue
        if out is None:
            held = [buf[: b - a] for buf, (a, b) in zip(buffers, spans)]
        else:
            held = [out[a:b] for a, b in spans]
        computed = [rows(part, a) for part, (a, _) in zip(held, spans)]
        yield [a for a, _ in spans], computed + [buf[: len(held[0])] for buf in spare]


def _fill(grid: TFGrid, rows: Rows, held: int = 1) -> np.ndarray:
    """The field that rows gives on grid, written one block of whole rows
    at a time into one fresh, writable array. A block takes about
    _FFT_BLOCK_BYTES / held: a source that holds held - 1 blocks of its
    own while it writes one keeps the pass at about _FFT_BLOCK_BYTES."""
    field = np.empty(grid.shape, dtype=np.complex128)
    block = max(1, _FFT_BLOCK_BYTES // (16 * held * grid.xi_count))
    for start in range(0, grid.x_count, block):
        rows(field[start : start + block], start)
    return field


def _moduli(grid: TFGrid, *sources: Rows) -> tuple[list[TFModulus], float]:
    """The TFModulus of the field that each source gives on grid, filled in
    one pass of _row_blocks, and, for two sources a and b, max |a - b| over
    the pass (0.0 for one).

    Each source's rows are checked finite, the first non-finite node named
    in the grid's coordinates as TFArray names it, and their moduli are
    written into the source's float64 array; as |.| and the difference are
    elementwise and the blocks are whole rows, the moduli and the maximum
    have the bits of |.| and _max_abs of the whole fields.
    """
    moduli = [np.empty(grid.shape) for _ in sources]
    gap = 0.0
    for start, rows in _row_blocks(grid, sources):
        for out, mag in zip(rows, moduli):
            _require_finite(out, "field", origin=(start, 0))
            np.abs(out, out=mag[start : start + len(out)])
        if len(rows) == 2:
            gap = max(gap, _max_abs(*rows))
    for mag in moduli:
        mag.setflags(write=False)
    return [TFModulus(grid, mag) for mag in moduli], gap


def _modulus(grid: TFGrid, rows: Rows) -> TFModulus:
    """The TFModulus of the field whose rows the source gives (see _moduli)."""
    return _moduli(grid, rows)[0][0]


def _check_field(grid: TFGrid, arr: np.ndarray) -> None:
    if arr.shape != grid.shape:
        raise ValueError(f"values shape {arr.shape} does not match grid shape {grid.shape}")
    _require_finite(arr, "field")


def _require_finite(arr: np.ndarray, what: str, origin: tuple[int, ...] | None = None) -> None:
    """Raise naming the first node, in row-major order, where a float64 or
    complex128 array is not finite. arr may be a block of a larger array
    whose index origin is at origin; the node is then named in the larger
    array's coordinates. The values are tested in memory order, one block of
    _FFT_BLOCK_BYTES at a time, so no mask of the whole array is held."""
    floats = arr.ravel("K").view(np.float64)  # for complex, the real view is the faster test
    step = _FFT_BLOCK_BYTES // 8
    if not all(np.isfinite(floats[i : i + step]).all() for i in range(0, floats.size, step)):
        idx = np.argwhere(~np.isfinite(arr))[0] + (origin or 0)
        raise ValueError(f"non-finite {what} value at node {tuple(int(v) for v in idx)}")


def _chirp_rows(grid: TFGrid, sign: int, half: bool = False) -> Rows:
    """The row source (Rows) of exp(sign 2 pi i x xi) on grid, or of
    exp(sign pi i x xi) if half. The grid is checked, and the table built,
    when the source is made.

    The grid must satisfy the lattice rule, or ValueError: 1/(x_step xi_step)
    is a positive integer M (to _STEP_RTOL). Then x_j xi_k = j'k'/M for the
    signed node indices j', k', and the phase is a P-th root of unity,
    P = M (2M if half): one np.exp over a table of turns t, |t| <= P/2,
    gathered by the exact integer index j'k' mod P. The table holds no more
    turns than the 2Q + 1 values of j'k', |j'k'| <= Q, so its size is
    bounded by the grid's, whatever M; and as no angle exceeds pi in
    magnitude, every entry is within a few ulps, whatever the size of x xi.
    Each block's int64 index is gathered straight into the block
    (mode="clip", which the index never needs, lets np.take write out
    without a buffer). A table of 2^m entries, as on every plane (P is the
    count, or twice it), reduces the index by a mask, which gives the
    residue of the modulo, negative indices included, at a tenth of its
    cost.
    """
    ratio = 1.0 / grid.x_step / grid.xi_step  # inf if it overflows
    if not 0.5 <= ratio < math.inf or abs(ratio - round(ratio)) > _STEP_RTOL * ratio:
        raise ValueError(
            "chirp needs a grid whose 1/(x_step * xi_step) is a positive integer, "
            f"got {ratio!r}"
        )
    period = round(ratio) * (2 if half else 1)
    reach = (grid.x_count // 2) * (grid.xi_count // 2)  # Q
    offset = min(reach, period // 2)  # table entry i holds turn i - offset
    size = min(period, 2 * reach + 1)
    table = np.exp((sign * 2j * np.pi / period) * (np.arange(size) - offset))
    k = np.arange(grid.xi_count, dtype=np.int64) - grid.xi_count // 2
    mask = size - 1 if size & (size - 1) == 0 else None

    def rows(out: np.ndarray, start: int) -> np.ndarray:
        index = np.multiply.outer(np.arange(start, start + len(out), dtype=np.int64) - grid.x_count // 2, k)
        index += offset
        # the residue mod P; when P > 2Q, index is already below size
        if mask is None:
            index %= size
        else:
            index &= mask
        return np.take(table, index, out=out, mode="clip")

    return rows


def _abs_power(a: np.ndarray, p: float) -> np.ndarray:
    """a ** p for magnitudes a >= 0, bit for bit, without glibc's slow path
    for results that underflow.

    For p > 2 the power is taken only where a >= 2^(-1080/p); below that
    a^p < 2^-1080, under half the smallest subnormal, so a ** p rounds to
    +0, which is written instead. At p <= 2 the gate costs more than it
    saves, and this is plain a ** p.
    """
    if p <= 2:
        return a**p
    out = np.zeros(a.shape)
    return np.power(a, p, out=out, where=a >= 2.0 ** (-1080 / p))


def _live_runs(size: int, peaks: np.ndarray, leaf: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Which runs of _RUN leaves can change the cascade sum of leaf(a), for
    a nonnegative a of size values whose runs peak at peaks (_run_peaks)
    and a leaf that is nondecreasing with leaf(+0) = +0.

    In the cascade's tree fl(s + t) = s when 0 <= t < ulp(s)/2, so a
    subtree is skipped when an upper bound on its computed sum is below
    2^-54 times a lower bound on its sibling's, which is under half the
    sibling's ulp. A run's bounds come from leaf(peak), which the computed
    leaf of a node at most the peak exceeds by no more than 2^-40 relative
    or 2^-1000 (a leaf that rounds in the subnormals). The upper bound is
    the run's leaf count times that; a parent's is the sum of its
    children's, summed directly, bottom up, so that no bound cancels, and
    widened by 1 + 2^-39 a level where it is compared. The lower bound is
    the largest leaf, which a cascade of nonnegative leaves never falls
    below. Of two siblings at most one is skipped, and a run is live when
    no subtree it lies in is. A peak whose leaf is not finite gives bounds
    that skip nothing but a finite sibling of an inf, whose sum stays inf.
    """
    runs = peaks.size
    width = 1 << (runs - 1).bit_length()
    upper, lower = np.zeros(width), np.zeros(width)
    dead = np.zeros(width, dtype=bool)
    with np.errstate(over="ignore"):  # a bound that overflows skips nothing
        top = leaf(peaks)
        np.multiply(top, 1 - 2**-40, out=lower[:runs])
        np.multiply(top * (1 + 2**-40) + 2**-1000, _RUN, out=upper[:runs])
        upper[runs - 1] *= (size - (runs - 1) * _RUN) / _RUN  # the last run may be short
        span = 1
        while upper.size > 1:
            pairs, floors = upper.reshape(-1, 2), lower.reshape(-1, 2)
            # a bound is the computed sum of its children's: span levels of
            # sums each round up by at most (1 + 2^-53)^2 < 1 + 2^-40
            skip = pairs < floors[:, ::-1] * (2**-54 / (1 + 2**-39) ** span.bit_length())  # (left, right)
            if skip.any():
                dead.reshape(-1, span)[...] |= skip.reshape(-1, 1)
            upper, lower = np.add(pairs[:, 0], pairs[:, 1]), np.maximum(floors[:, 0], floors[:, 1])
            span *= 2
    return ~dead[:runs]


def _pruned_sum(flat: np.ndarray, leaf: Callable[[np.ndarray], np.ndarray], live: np.ndarray) -> float:
    """The cascade sum of leaf(flat), live marking the runs of _RUN leaves
    that can change it (_live_runs): the cascade of the runs' sums, which a
    run that is not live adds as +0, and leaf is taken on live runs only,
    _SUM_BLOCK leaves at a time, each run reduced by the cascade on its own.

    Every run lies in a subtree that was skipped beside a sibling it cannot
    change, or in none, and a subtree whose runs all lie in skipped ones was
    itself skipped (of two siblings at most one is): so each maximal subtree
    of dead runs adds +0 beside a sibling whose sum keeps its bits, and the
    total keeps every bit of the full cascade."""
    sums = np.zeros(live.size)
    whole = flat.size // _RUN
    kept = np.flatnonzero(live[:whole])
    runs = flat[: whole * _RUN].reshape(whole, _RUN)
    chunk = _SUM_BLOCK // _RUN
    for i in range(0, kept.size, chunk):
        part = kept[i : i + chunk]
        sums[part] = _kernels.cascade_sum(leaf(runs[part]), rows=True)
    if whole < live.size and live[whole]:  # the short last run
        sums[whole] = _kernels.cascade_sum(leaf(flat[whole * _RUN :]))
    return _kernels.cascade_sum(sums)


def _plane_sum(
    grid: TFGrid,
    real_field: np.ndarray,
    leaf: Callable[[np.ndarray], np.ndarray] | None = None,
    peaks: np.ndarray | None = None,
) -> float:
    """cell_measure * the cascade sum of leaf(real_field) on the grid, for an
    elementwise leaf (default: real_field itself): the one plane quadrature.

    The leaves are formed one block of _SUM_BLOCK row-major nodes at a time,
    and each block is reduced by the cascade; the cascade of the block sums
    then gives the bits of one cascade over all leaves, as each block is an
    aligned subtree of its fixed tree (the last block's zero padding and the
    blocks that would be all padding add +0). The fixed row-major leaf order
    makes repeated sums bit-identical. A non-finite leaf aborts naming its
    node; as any inf or nan leaf makes the total inf or nan, the leaves are
    searched only when the total is not finite.

    peaks, if given, are the run peaks (_run_peaks) of a nonnegative
    real_field, for a leaf that is nondecreasing with leaf(+0) = +0, as |V|
    and its scaled powers are. On a plane of more than one block the runs
    that cannot change the sum are then planned first (_live_runs), and if
    there are any, only the others are summed (_pruned_sum), with the same
    bits. A non-finite leaf lies in a run whose bound is not finite, which
    is kept. A plane of one block (count <= 256) is summed whole: there
    the plan's hundred or so small numpy calls cost about what they save,
    and under tfu run's thread pool each can hand the interpreter lock to
    another scenario, which made paper-suite slower in process.
    """
    flat = np.asarray(real_field).reshape(-1)
    blocks = range(0, flat.size, _SUM_BLOCK)
    form = leaf or np.asarray

    def leaves(i: int) -> np.ndarray:
        return form(flat[i : i + _SUM_BLOCK])

    live = None if peaks is None or flat.size <= _SUM_BLOCK else _live_runs(flat.size, peaks, form)
    if live is None or live.all():
        sums = [_kernels.cascade_sum(leaves(i)) for i in blocks]
        total = sums[0] if len(sums) == 1 else _kernels.cascade_sum(np.array(sums))
    else:
        total = _pruned_sum(flat, form, live)
    if not math.isfinite(total):
        for i in blocks:
            bad = np.flatnonzero(~np.isfinite(leaves(i)))
            if bad.size:
                node = np.unravel_index(i + bad[0], np.shape(real_field))
                raise ValueError(f"non-finite integrand value at node {tuple(int(v) for v in node)}")
    return grid.cell_measure * total


def _norm_scale(fn: float, gn: float) -> tuple[int, float]:
    """k = round(log2 fn + log2 gn) and fn gn 2^-k, for L2 norms fn, gn > 0.

    Functionals that compare |V_g f|^p with (fn gn)^p do not change when
    both are scaled by 2^-k, which is exact and keeps every power in range
    for tiny or huge norms; k is 0 for unit-norm pairs. fn and gn are
    scaled apart, so their product never under- or overflows.
    """
    if fn <= 0 or gn <= 0:
        raise ValueError("degenerate pair: zero L2 norm")
    k = round(math.log2(fn) + math.log2(gn))
    kf = round(math.log2(fn))
    return k, math.ldexp(fn, -kf) * math.ldexp(gn, kf - k)


def _scaled(a: np.ndarray, k: int) -> np.ndarray:
    """a 2^-k, exactly; a itself when k is 0."""
    return np.ldexp(a, -k) if k else a


def _scaled_power_sum(v: TFArray | TFModulus, p: float, fn: float, gn: float) -> tuple[float, float]:
    """cell_measure * sum of (|V| 2^-k)^p and (fn gn 2^-k)^p, with k from
    _norm_scale: the two sides of an Lp comparison, in range."""
    k, norm = _norm_scale(fn, gn)
    return _plane_sum(v.grid, v.magnitude, lambda m: _abs_power(_scaled(m, k), p), v.peaks), norm**p


def _max_abs(a: np.ndarray, b: np.ndarray | None = None) -> float:
    """max |a|, or max |a - b| for b of a's shape, taken one block of about
    _FFT_BLOCK_BYTES of rows at a time (a 1-D array is one row), so no
    N^2 difference or modulus is held. Rows are sliced with positive
    strides only: np.abs read through a reversed view can differ in the
    last bit. A nan anywhere gives nan, as np.max does."""
    rows = np.atleast_2d(a)
    others = None if b is None else np.atleast_2d(b)
    block = max(1, _FFT_BLOCK_BYTES // rows[0].nbytes)
    peaks = []
    for i in range(0, len(rows), block):
        part = rows[i : i + block]
        if others is not None:
            part = part - others[i : i + block]
        peaks.append(np.max(np.abs(part)))
    return float(np.max(peaks))


def _centered_fft(values: np.ndarray, step: float, out: np.ndarray | None = None) -> np.ndarray:
    """Riemann-sum Fourier transform on an origin-centered lattice along the
    last axis of values (one signal, or one per row, in lattice order),
    written into out (default: values itself, in place) and returned.

    For even N the result is step * sum_k v_k exp(-2 pi i (k - N/2)(m - N/2) / N),
    continuous-FT samples on the dual lattice, with the bits of
    step * fftshift(fft(ifftshift(v))). The rows go in blocks of about half
    _FFT_BLOCK_BYTES: each is read into one reused spare with its halves
    swapped, transformed there, and scaled by step into out with its halves
    swapped back. pocketfft transforms each row on its own, so the blocks
    give the bits of one whole-array call.
    """
    out = values if out is None else out
    rows, dest = np.atleast_2d(values, out)
    h = rows.shape[1] // 2
    block = max(1, _FFT_BLOCK_BYTES // (2 * rows.itemsize * rows.shape[1]))
    spare = np.empty((min(block, len(rows)), 2 * h), dtype=np.complex128)
    for i in range(0, len(rows), block):
        part = spare[: len(rows[i : i + block])]
        part[:, :h], part[:, h:] = rows[i : i + block, h:], rows[i : i + block, :h]
        np.fft.fft(part, out=part)
        np.multiply(part[:, h:], step, out=dest[i : i + block, :h])
        np.multiply(part[:, :h], step, out=dest[i : i + block, h:])
    return out


def _require_decayed(values: np.ndarray, tol: float, peak: float | None = None) -> None:
    """Refuse 1-D or 2-D values whose largest modulus on the boundary (the
    first and last index along each axis) exceeds tol times their peak
    modulus: the implicit zero extension would misrepresent the transform.
    The peak is taken by _max_abs unless the caller has it already, and
    the edges are contiguous copies."""
    if peak is None:
        peak = _max_abs(values)
    edge = max(
        float(np.max(np.abs(np.take(values, i, axis=axis))))
        for axis in range(values.ndim)
        for i in (0, -1)
    )
    if peak != 0.0 and edge > tol * peak:
        raise ValueError(
            f"truncation unsound: boundary magnitude {edge:.3e} exceeds {tol:g} of peak {peak:.3e}"
        )


def discrete_fourier(s: SampledSignal) -> SampledSignal:
    """Samples of the continuous Fourier transform on the dual lattice.

    Requires the signal to have decayed at its window boundary.
    """
    _require_decayed(s.samples, BOUNDARY_DECAY_TOL_1D)
    return SampledSignal(_centered_fft(s.samples, s.step, np.empty_like(s.samples)), s.layout.dual_step)


#: Side of the square tiles _transposed swaps.
_TILE = 64


def _transposed(values: np.ndarray) -> np.ndarray:
    """values.T as a C-contiguous array: for a square array, values itself,
    transposed in place one pair of square tiles at a time (the values are
    only moved, so every bit is kept); otherwise a transposed copy."""
    n, m = values.shape
    if n != m:
        return np.ascontiguousarray(values.T)
    spare = np.empty((_TILE, _TILE), dtype=values.dtype)
    for i in range(0, n, _TILE):
        diagonal = values[i : i + _TILE, i : i + _TILE]
        held = spare[: diagonal.shape[0], : diagonal.shape[0]]
        np.copyto(held, diagonal.T)
        diagonal[...] = held
        for j in range(i + _TILE, n, _TILE):
            upper = values[i : i + _TILE, j : j + _TILE]
            lower = values[j : j + _TILE, i : i + _TILE]
            held = spare[: upper.shape[1], : upper.shape[0]]
            np.copyto(held, upper.T)
            upper[...] = lower.T
            lower[...] = held
    return values


def _fourier_2d_swapped(grid: TFGrid, values: np.ndarray, peak: float | None = None) -> np.ndarray:
    """The transform fourier_2d gives of the finite complex128 field values
    on grid, with its axes swapped: row k holds the transform at the dual
    xi-node k. peak, if given, is _max_abs(values), which the decay check
    then does not take again. The transform is not checked finite: the
    caller checks it, by _require_finite(swapped.T, ...).

    values must be C-contiguous. Writable values are transformed in place
    and returned; read-only ones, as a TFArray's, into one fresh array. The
    axis-1 transform is transposed in place, so that the axis-0 transform
    runs along contiguous rows: numpy copies each strided line into a
    contiguous buffer before pocketfft runs on it, so only the memory order
    changes, not the bits. A non-square field, which only fourier_2d can
    pass, is transposed through a copy.
    """
    _require_decayed(values, BOUNDARY_DECAY_TOL_2D, peak)
    inner = _centered_fft(values, grid.xi_step, None if values.flags.writeable else np.empty_like(values))
    return _centered_fft(_transposed(inner), grid.x_step)


def _transform_rows(grid: TFGrid, values: np.ndarray, peak: float | None = None) -> tuple[Rows, np.ndarray]:
    """The rows of the transform that _fourier_2d_swapped gives of the
    finite complex128 field values on grid, on demand: a row source (Rows)
    whose row k is the transform at the dual xi-node k, and a bound on the
    modulus of every entry of each row. peak, if given, is _max_abs(values),
    which the decay check then does not take again.

    The first, axis-1 pass runs here, in place if values is writable and
    into one fresh array if not, one block of rows at a time; row k of the
    second pass is then the centered transform of column k of the first
    pass's result, read through a transposed view, and computed only when
    asked for, with the bits of _fourier_2d_swapped's row k. Its bound is
    x_step times the l1 norm of that column, |z|_1 = |Re z| + |Im z| summed
    in the first pass while each block is in cache, widened as
    tfu.stft._stft_row_bounds widens its sums: no entry of a Fourier
    transform exceeds the l1 norm of what it transforms, and the factor
    1 + 2^-20 and the floor 2^-1000 cover the rounding of the FFT, the
    scaling and the sum. A row whose bound is finite is finite. Rows whose
    bound is not are computed here, and the first non-finite node among
    them, which is the transform's first, is named in the field's (x, xi)
    coordinates, as _require_finite(swapped.T, "field") names it.
    """
    _require_decayed(values, BOUNDARY_DECAY_TOL_2D, peak)
    inner = values if values.flags.writeable else np.empty_like(values)
    n, m = grid.shape
    l1 = np.zeros(m)
    block = max(1, _FFT_BLOCK_BYTES // (32 * m))  # _centered_fft's block of rows
    for i in range(0, n, block):
        part = _centered_fft(values[i : i + block], grid.xi_step, inner[i : i + block])
        with np.errstate(over="ignore"):  # a bound that overflows is inf, and its row computed here
            for floats in (part.real, part.imag):  # a quarter block of moduli at a time
                l1 += np.abs(floats).sum(axis=0)
    with np.errstate(over="ignore"):
        bounds = grid.x_step * (l1 * (1 + 2**-20)) + 2**-1000

    def rows(out: np.ndarray, start: int) -> np.ndarray:
        return _centered_fft(inner[:, start : start + len(out)].T, grid.x_step, out)

    unbounded, first = np.flatnonzero(~np.isfinite(bounds)), None
    for i in range(0, unbounded.size, block):
        ks = unbounded[i : i + block]
        bad = np.argwhere(~np.isfinite(_centered_fft(inner[:, ks].T, grid.x_step, np.empty((len(ks), n), np.complex128)).T))
        if bad.size:
            node = (int(bad[0][0]), int(ks[bad[0][1]]))
            first = node if first is None else min(first, node)
    if first is not None:
        raise ValueError(f"non-finite field value at node {first}")
    return rows, bounds


def fourier_2d(a: TFArray) -> TFArray:
    """Continuous 2-D Fourier transform of the field, on the dual TFGrid.

    The transform comes from _fourier_2d_swapped, which reads the field's
    read-only values into one fresh array, and its axes are swapped back
    in place. The identity checks (tfu.identity) use the swapped array
    directly: the quarter rotation (-xi, x) they compare with is then a
    reflection of rows, which they read through views.
    """
    swapped = _fourier_2d_swapped(a.grid, a.values)
    _require_finite(swapped.T, "field")
    return TFArray._fresh(a.grid.dual(), _transposed(swapped))
