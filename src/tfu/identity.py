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
"""

from __future__ import annotations

import math

import numpy as np

from tfu.core import _STEP_RTOL, SampledSignal, SignalLayout, TFArray, TFGrid, _chirp, fourier_2d, require_plane
from tfu.reference import translate_modulate
from tfu.stft import compute_stft


def _require_rotatable(grid: TFGrid) -> None:
    """Refuse a grid that is not the plane of a self-dual layout, on which
    self-dual (count * step^2 == 1) means x_step == xi_step, to _STEP_RTOL."""
    require_plane(grid, SignalLayout(grid.x_count, grid.x_step))
    if not math.isclose(grid.x_step, grid.xi_step, rel_tol=_STEP_RTOL):
        raise ValueError("asymmetric grid: the quarter rotation needs x_step == xi_step (count * step^2 == 1)")


def point_reflection(values: np.ndarray, axes: int | tuple[int, ...] = (0, 1)) -> np.ndarray:
    """Field at (-x, -xi), or reflected on the given axes only: index (N - i) mod N."""
    return np.roll(np.flip(values, axes), 1, axes)


def quarter_rotation(values: np.ndarray) -> np.ndarray:
    """Field at (-xi, x) on a square grid."""
    return point_reflection(values, 0).T


def build_auxiliary(f: SampledSignal, g: SampledSignal, grid: TFGrid, z: float, zeta: float) -> TFArray:
    """F_Z for the shift Z = (z, zeta), from a single STFT evaluation and its
    point reflection. The grid must be the plane of a self-dual layout (other
    grids raise ValueError before the STFT is computed); the phase
    exp(2 pi i x xi) comes from a table of roots of unity (tfu.core._chirp)."""
    _require_rotatable(grid)
    field = _chirp(grid, 1)
    v = compute_stft(translate_modulate(f, z, zeta), g, grid).values
    field *= v
    field *= point_reflection(v)
    return TFArray._fresh(grid, field)


def rotation_invariance_defect(a: TFArray) -> float:
    """max |FT(F_Z) - F_Z((-xi, x))| / max |F_Z| for the field a = F_Z."""
    _require_rotatable(a.grid)
    scale = float(np.max(a.magnitude))
    if scale == 0.0:
        raise ValueError("field is identically zero")
    transformed = fourier_2d(a).values
    rotated = quarter_rotation(a.values)
    return float(np.max(np.abs(transformed - rotated))) / scale


def fundamental_identity_defect(
    f1: SampledSignal,
    f2: SampledSignal,
    g1: SampledSignal,
    g2: SampledSignal,
    grid: TFGrid,
) -> float:
    """Normalized max-abs gap between the two sides of the product identity."""
    _require_rotatable(grid)

    def product(f: SampledSignal, g: SampledSignal, h: SampledSignal, k: SampledSignal) -> np.ndarray:
        """V_g f * conj(V_k h), computed as conj(V_k h) * V_g f in place; neither
        field outlives the product. The operand order is fixed: the complex
        multiply rounds a * b and b * a differently."""
        conj_b = np.conj(compute_stft(h, k, grid).values)
        return np.multiply(conj_b, compute_stft(f, g, grid).values, out=conj_b)

    lhs = fourier_2d(TFArray._fresh(grid, product(f1, g1, f2, g2))).values
    rhs = quarter_rotation(product(f1, f2, g1, g2))
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(lhs - rhs))) / scale
