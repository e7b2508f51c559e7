"""Discrete STFT engine.

V_g f(x, xi) = integral f(t) conj(g(t - x)) exp(-2 pi i xi t) dt is sampled
on one plane, TFGrid.from_layout of the signal layout: x on the sample
lattice, xi on its dual. Each x-column forms f * (T_x g)conj on the sample
lattice and applies the centered Fourier transform. The returned field
approximates the continuous STFT with quadrature error only
(superalgebraically small for the Schwartz-class test bank).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from tfu.core import _STEP_RTOL, Rows, SampledSignal, TFArray, TFGrid, TFModulus, _centered_fft, _fill, _scaled_power_sum, require_plane


def compute_stft(f: SampledSignal, g: SampledSignal, grid: TFGrid) -> TFArray:
    """Sampled V_g f on grid, TFGrid.from_layout of the layout that f and g
    share (else ValueError); row j is the x_j column, column k is xi_k: the
    rows of _stft_rows, filled over the whole plane (tfu.core._fill)."""
    return TFArray._fresh(grid, _fill(grid, _stft_rows(f, g, grid)))


def _stft_rows(f: SampledSignal, g: SampledSignal, grid: TFGrid) -> Rows:
    """The row source (tfu.core.Rows) of the sampled V_g f on grid:
    rows(out, start) writes rows start ... start + len(out) - 1 into out, a
    complex128 C-contiguous block, and returns it. f, g and grid are
    checked, and the shifted windows set up, once, when rows is made.

    Row j's column product f_i conj(g_{i - s_j}), s_j = j - n/2, takes the
    shifted window from a sliding view of the zero-padded conj(g): the block
    is zeroed, then one masked multiply leaves +0 outside the window.
    The centered FFT then transforms out in place. Each row is computed on
    its own, so any split of the rows gives the bits of one call over all.
    """
    if f.count != g.count or not math.isclose(f.step, g.step, rel_tol=_STEP_RTOL):
        raise ValueError(f"window layout ({g.count}, {g.step}) does not match signal layout ({f.count}, {f.step})")
    require_plane(grid, f.layout)
    n, h = f.count, f.count // 2
    padded = np.zeros(3 * n, dtype=np.complex128)
    padded[n : 2 * n] = np.conj(g.samples)
    inside = np.zeros(3 * n, dtype=bool)
    inside[n : 2 * n] = True
    windows = slice(n + h, h, -1)  # the view's row m is padded[m : m + n]; row j needs m = n - s_j
    gconj = sliding_window_view(padded, n)[windows]
    mask = sliding_window_view(inside, n)[windows]

    def rows(out: np.ndarray, start: int) -> np.ndarray:
        js = slice(start, start + len(out))
        out[...] = 0
        np.multiply(f.samples, gconj[js], out=out, where=mask[js])
        return _centered_fft(out, f.step)

    return rows


def energy_defect(v: TFArray | TFModulus, fn: float, gn: float) -> float:
    """Relative gap between the plane energy of a computed field V_g f and
    fn^2 gn^2, with fn = |f|_2 and gn = |g|_2.

    The continuous identity makes the two sides equal; the returned defect
    is pure discretization plus rounding. Both sides are scaled by the same
    power of two (see tfu.core._norm_scale), so tiny or huge norms give the
    same defect.
    """
    energy, norms_sq = _scaled_power_sum(v, 2, fn, gn)
    return abs(energy - norms_sq) / norms_sq
