"""Closed-form test functions: Gaussians, Hermite functions, their
translates/modulates and Fourier transforms, and the exact Gaussian-pair STFT.

Hermite functions use the normalization that makes them an orthonormal
L2(R) basis of Fourier eigenfunctions under the exp(-2 pi i x xi) transform
convention: h_n(t) = 2^{1/4} (n! 2^n)^{-1/2} H_n(sqrt(2 pi) t) exp(-pi t^2),
where H_n is the physicists' Hermite polynomial. In particular h_0 is the
unit-norm Gaussian 2^{1/4} exp(-pi t^2) and the transform of h_n is
(-i)^n h_n. Hermite coefficients are kept explicit up to order 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from tfu.core import Rows, SampledSignal, SignalLayout, TFArray, TFGrid, _chirp_rows, _fill, lattice_multiple

GAUSSIAN = "gaussian"
HERMITE = "hermite"

MAX_HERMITE_ORDER = 8

# Physicists' Hermite polynomials H_0..H_8, power-basis coefficients.
_HERMITE_COEFFS: dict[int, tuple[float, ...]] = {
    0: (1,),
    1: (0, 2),
    2: (-2, 0, 4),
    3: (0, -12, 0, 8),
    4: (12, 0, -48, 0, 16),
    5: (0, 120, 0, -160, 0, 32),
    6: (-120, 0, 720, 0, -480, 0, 64),
    7: (0, -1680, 0, 3360, 0, -1344, 0, 128),
    8: (1680, 0, -13440, 0, 13440, 0, -3584, 0, 256),
}


@dataclass(frozen=True)
class AnalyticFunction:
    """A closed-form function C * base(t - z) * exp(2 pi i w t).

    base is exp(-a pi t^2) (gaussian) or the orthonormal Hermite function
    h_n (hermite).
    """

    kind: str
    width: float = 1.0  # the Gaussian decay constant a
    amplitude: complex = 1.0
    order: int = 0  # Hermite order n
    translation: float = 0.0  # z, time units
    modulation: float = 0.0  # w, frequency units

    def __post_init__(self) -> None:
        if self.kind not in (GAUSSIAN, HERMITE):
            raise ValueError(f"unknown analytic function kind {self.kind!r}")
        if self.kind == GAUSSIAN and not self.width > 0:
            raise ValueError(f"gaussian width must be positive, got {self.width}")
        if self.kind == HERMITE and not 0 <= self.order <= MAX_HERMITE_ORDER:
            raise ValueError(f"hermite order must lie in [0, {MAX_HERMITE_ORDER}], got {self.order}")

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        """Exact pointwise evaluation, any real t."""
        t = np.asarray(t, dtype=np.float64)
        u = t - self.translation
        if self.kind == GAUSSIAN:
            rate = -self.width * np.pi  # -inf for a > ~5.7e307; a (pi u^2) is then still finite near u = 0
            exponent = rate * u**2 if math.isfinite(rate) else -self.width * (np.pi * u**2)
            base = np.exp(exponent).astype(np.complex128)
        else:
            n = self.order
            poly = np.polynomial.polynomial.polyval(math.sqrt(2 * math.pi) * u, np.asarray(_HERMITE_COEFFS[n], float))
            norm = 2**0.25 / math.sqrt(math.factorial(n) * 2.0**n)
            base = (norm * poly * np.exp(-np.pi * u**2)).astype(np.complex128)
        if self.modulation != 0.0:
            base = base * np.exp(2j * np.pi * self.modulation * t)
        return self.amplitude * base


def gaussian(a: float = 1.0, amplitude: complex = 1.0, z: float = 0.0, w: float = 0.0) -> AnalyticFunction:
    return AnalyticFunction(GAUSSIAN, width=a, amplitude=amplitude, translation=z, modulation=w)


def unit_gaussian(a: float = 1.0, z: float = 0.0, w: float = 0.0) -> AnalyticFunction:
    """Gaussian with unit L2 norm: (2a)^{1/4} exp(-a pi t^2), as 2 (a/8)^{1/4} where 2a overflows."""
    return gaussian(a, amplitude=(2 * a) ** 0.25 if 2 * a < math.inf else 2 * (a / 8) ** 0.25, z=z, w=w)


def hermite(n: int, z: float = 0.0, w: float = 0.0) -> AnalyticFunction:
    return AnalyticFunction(HERMITE, order=n, translation=z, modulation=w)


def sample(fn: AnalyticFunction, layout: SignalLayout) -> SampledSignal:
    """Exact samples on the layout lattice; no interpolation anywhere."""
    return SampledSignal(fn.evaluate(layout.times()), layout.step)


def translate_modulate(s: SampledSignal, z: float, zeta: float) -> SampledSignal:
    """Modulate-after-translate: t -> exp(2 pi i zeta t) s(t - z).

    z must be a lattice multiple of the signal step so the translation is an
    exact index shift (shifted-in samples are zero-filled); zeta is free.
    """
    shift, n = lattice_multiple(z, s.step, "translation"), s.count
    out = np.zeros(n, dtype=np.complex128)
    if abs(shift) < n:
        out[max(shift, 0) : n + min(shift, 0)] = s.samples[max(-shift, 0) : n - max(shift, 0)]
    if zeta != 0.0:
        out *= np.exp(2j * np.pi * zeta * s.layout.times())
    return SampledSignal(out, s.step)


def gaussian_stft_field(grid: TFGrid) -> TFArray:
    """The exact STFT of the unit Gaussian pair f = g = 2^{1/4} exp(-pi t^2),

        V(x, xi) = exp(-pi i x xi) exp(-pi (x^2 + xi^2) / 2),

    sampled on a grid: the rows of _gaussian_rows, filled over the whole
    plane (tfu.core._fill), so the envelope is formed one block at a time.
    Exact sampling keeps far-tail values accurate to relative rounding
    error, which the heavily weighted integrals need; an FFT-computed field
    bottoms out at the double-precision noise floor instead.

    The phase comes from a table of roots of unity (tfu.core._chirp_rows),
    so the grid must satisfy the lattice rule: 1/(x_step xi_step) is a
    positive integer, as on every TFGrid.from_layout grid; other grids
    raise ValueError. The envelope is the outer product of exp(-pi x^2 / 2) and
    exp(-pi xi^2 / 2).
    """
    return TFArray._fresh(grid, _fill(grid, _gaussian_rows(grid)))


def _gaussian_rows(grid: TFGrid) -> Rows:
    """The row source (tfu.core.Rows) of gaussian_stft_field(grid): each
    block is written whole by the chirp's source (tfu.core._chirp_rows),
    then multiplied in place by the envelope's rows. A grid off the lattice
    rule is refused when the source is made."""
    chirp = _chirp_rows(grid, -1, half=True)
    envelope_x = np.exp(-np.pi * grid.x_nodes() ** 2 / 2)
    envelope_xi = np.exp(-np.pi * grid.xi_nodes() ** 2 / 2)

    def rows(out: np.ndarray, start: int) -> np.ndarray:
        chirp(out, start)
        out *= np.multiply.outer(envelope_x[start : start + len(out)], envelope_xi)
        return out

    return rows


def fourier_closed_form(fn: AnalyticFunction) -> AnalyticFunction:
    """Exact Fourier transform of an analytic function.

    Gaussian: C exp(2 pi i w t) G_a(t - z) maps to
    C a^{-1/2} exp(2 pi i z w) exp(-2 pi i z xi') G_{1/a}(xi' - w) with
    xi' the output variable; the translation/modulation roles swap. The
    Hermite function h_n is an eigenfunction with eigenvalue (-i)^n.
    """
    phase = complex(np.exp(2j * np.pi * fn.translation * fn.modulation))
    if fn.kind == GAUSSIAN:
        fn = replace(fn, width=1.0 / fn.width, amplitude=fn.amplitude * phase / math.sqrt(fn.width))
    else:
        fn = replace(fn, amplitude=fn.amplitude * phase * (-1j) ** fn.order)
    return replace(fn, translation=fn.modulation, modulation=-fn.translation)
