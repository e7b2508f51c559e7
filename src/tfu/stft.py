"""Discrete STFT engine.

V_g f(x, xi) = integral f(t) conj(g(t - x)) exp(-2 pi i xi t) dt is computed
one x-column at a time: form f * (T_x g)conj on the sample lattice and apply
the centered Fourier transform, so the frequency axis is the dual lattice of
the signal layout. The returned field approximates the continuous STFT with
quadrature error only (superalgebraically small for the Schwartz-class test
bank).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from tfu.core import (
    _STEP_RTOL,
    SampledSignal,
    TFArray,
    TFGrid,
    _centered_fft,
    _scaled_power_sum,
    lattice_multiple,
)


def _column_shifts(f: SampledSignal, g: SampledSignal, grid: TFGrid) -> np.ndarray:
    if f.count != g.count or not math.isclose(f.step, g.step, rel_tol=_STEP_RTOL):
        raise ValueError(
            f"window layout ({g.count}, {g.step}) does not match signal layout ({f.count}, {f.step})"
        )
    layout = f.layout
    if grid.xi_count != layout.count or not math.isclose(
        grid.xi_step, layout.dual_step, rel_tol=_STEP_RTOL
    ):
        raise ValueError(
            "frequency grid mismatch: the STFT frequency axis is the dual lattice "
            f"(count {layout.count}, step {layout.dual_step:g}); "
            f"got count {grid.xi_count}, step {grid.xi_step:g}. Resampling is refused."
        )
    stride = lattice_multiple(grid.x_step, layout.step, "x nodes are off-lattice: x_step")
    if stride < 1:
        raise ValueError(f"x nodes are off-lattice: x_step {grid.x_step} is below the signal step {layout.step}")
    return (np.arange(grid.x_count) - grid.x_count // 2) * stride


def compute_stft(f: SampledSignal, g: SampledSignal, grid: TFGrid) -> TFArray:
    """Sampled V_g f on the grid; row j is the x_j column, column k is xi_k.

    Row j's column product f_i conj(g_{i - s_j}) is written straight into
    ifftshift order (sample i at index (i + n/2) mod n), which the in-place
    centered FFT takes. The shifted windows are rows of a sliding view of
    the zero-padded conj(g), so the products are two masked multiplies; the
    nodes outside the window stay +0, as do rows whose window is shifted out.
    """
    shifts = _column_shifts(f, g, grid)
    n, h = f.count, f.count // 2
    product = np.zeros((grid.x_count, n), dtype=np.complex128)
    rows = np.nonzero(np.abs(shifts) < n)[0]  # the others' windows are shifted out
    j0, j1 = int(rows[0]), int(rows[-1]) + 1
    padded = np.zeros(3 * n, dtype=np.complex128)
    padded[n : 2 * n] = np.conj(g.samples)
    inside = np.zeros(3 * n, dtype=bool)
    inside[n : 2 * n] = True
    # the view's row m is padded[m : m + n]; row j of the block needs m = n - s_j
    stride = int(shifts[1] - shifts[0])
    start = n - int(shifts[j0])
    stop = start - stride * (j1 - j0)
    windows = slice(start, stop if stop >= 0 else None, -stride)
    gconj = sliding_window_view(padded, n)[windows]
    mask = sliding_window_view(inside, n)[windows]
    block, fs = product[j0:j1], f.samples
    np.multiply(fs[h:], gconj[:, h:], out=block[:, :h], where=mask[:, h:])
    np.multiply(fs[:h], gconj[:, :h], out=block[:, h:], where=mask[:, :h])
    return TFArray._fresh(grid, _centered_fft(product, f.step, axis=1))


def energy_defect(v: TFArray, fn: float, gn: float) -> float:
    """Relative gap between the plane energy of a computed field V_g f and
    fn^2 gn^2, with fn = |f|_2 and gn = |g|_2.

    The continuous identity makes the two sides equal; the returned defect
    is pure discretization plus rounding. Both sides are scaled by the same
    power of two (see tfu.core._norm_scale), so tiny or huge norms give the
    same defect.
    """
    energy, norms_sq = _scaled_power_sum(v, 2, fn, gn)
    return abs(energy - norms_sq) / norms_sq
