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

from tfu.core import _STEP_RTOL, SampledSignal, TFArray, TFGrid, _centered_fft, quadrature_sum


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
    ratio = grid.x_step / layout.step
    stride = round(ratio)
    if abs(ratio - stride) > 1e-9 or stride < 1:
        raise ValueError(
            f"x nodes are off-lattice: x_step {grid.x_step} is not a positive integer "
            f"multiple of the signal step {layout.step}"
        )
    return (np.arange(grid.x_count) - grid.x_count // 2) * stride


def compute_stft(f: SampledSignal, g: SampledSignal, grid: TFGrid) -> TFArray:
    """Sampled V_g f on the grid; row j is the x_j column, column k is xi_k."""
    shifts = _column_shifts(f, g, grid)
    n = f.count
    product = np.zeros((grid.x_count, n), dtype=np.complex128)
    gconj = np.conj(g.samples)
    for j, s in enumerate(shifts):
        s = int(s)
        if s >= n or s <= -n:
            continue  # window fully shifted out: column is zero
        if s >= 0:
            product[j, s:] = f.samples[s:] * gconj[: n - s]
        else:
            product[j, : n + s] = f.samples[: n + s] * gconj[-s:]
    return TFArray(grid=grid, values=_centered_fft(product, f.step, axis=1))


def isometry_defect(f: SampledSignal, g: SampledSignal, grid: TFGrid) -> float:
    """Relative gap between the plane energy of V_g f and |f|_2^2 |g|_2^2.

    The continuous identity makes the two sides equal; the returned defect
    is pure discretization plus rounding.
    """
    return energy_defect(compute_stft(f, g, grid), f.l2_norm(), g.l2_norm())


def energy_defect(v: TFArray, fn: float, gn: float) -> float:
    """isometry_defect for an already computed field V_g f and the L2 norms
    fn = |f|_2, gn = |g|_2."""
    norms_sq = (fn * gn) ** 2
    if norms_sq == 0.0:
        raise ValueError("degenerate pair: zero L2 norm")
    energy = quadrature_sum(v, lambda z: np.abs(z) ** 2)
    return abs(energy - norms_sq) / norms_sq
