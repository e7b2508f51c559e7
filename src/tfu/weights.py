"""Weighted-mass functionals, divergence scans, and decay-constant fitting.

Each weight family multiplies |field|^p before plane quadrature:

    radial_half          exp(pi p (x^2 + xi^2) / 2)
    radial_full          exp(pi p (x^2 + xi^2))
    hyperbolic           exp(pi p |x xi|)
    pair_hyperbolic      exp(2 pi p |x xi|)
    bonami_denominator   exp(2 pi |x xi|) / (1 + |x| + |xi|)^N
    demange_denominator  exp(pi |x xi|)   / (1 + |x| + |xi|)^N

The integrand is exp(p log|field| + log w): a weight beyond the float range
meets the field's decay before anything is exponentiated, and a zero of the
field contributes 0. A signal's product f(x) fhat(xi) is pair_field(f).

Truncation is the half-open square -R <= x < R, -R <= xi < R, mirroring the
grid's own half-open convention; when R is a lattice multiple the square's
discrete measure is exactly (2R)^2. A growth scan evaluates the truncated
mass at increasing radii from one integrand, fits the tail slope of log I
against log R, and classifies the integral as convergent only when both the
terminal relative increment and the fitted slope are small. The scan radii
therefore shape the test's sensitivity: divergence detection works on
coarse radii, while convergence detection needs the tail sampled finely
near the grid edge (see DIVERGENCE_RADII and CONVERGENCE_RADII).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from tfu.core import SampledSignal, TFArray, TFGrid, _checked_cascade, discrete_fourier


class WeightFamily(enum.Enum):
    RADIAL_HALF = "radial_half"
    RADIAL_FULL = "radial_full"
    HYPERBOLIC = "hyperbolic"
    PAIR_HYPERBOLIC = "pair_hyperbolic"
    BONAMI_DENOMINATOR = "bonami_denominator"
    DEMANGE_DENOMINATOR = "demange_denominator"


_DENOMINATOR_FAMILIES = (WeightFamily.BONAMI_DENOMINATOR, WeightFamily.DEMANGE_DENOMINATOR)


@dataclass(frozen=True)
class WeightSpec:
    """A weight family with its exponent p (>= 1) and denominator power N."""

    family: WeightFamily
    p: float = 1.0
    N: float = 0.0

    def __post_init__(self) -> None:
        if not self.p >= 1.0:
            raise ValueError(f"weight exponent p must be >= 1, got {self.p}")
        if not self.N >= 0.0:
            raise ValueError(f"denominator power N must be >= 0, got {self.N}")

    def log_weight(self, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """The logarithm of the weight at (x, xi), broadcast."""
        fam = self.family
        if fam is WeightFamily.RADIAL_HALF:
            return np.pi * self.p * (x**2 + xi**2) / 2
        if fam is WeightFamily.RADIAL_FULL:
            return np.pi * self.p * (x**2 + xi**2)
        if fam is WeightFamily.HYPERBOLIC:
            return np.pi * self.p * np.abs(x * xi)
        if fam is WeightFamily.PAIR_HYPERBOLIC:
            return 2 * np.pi * self.p * np.abs(x * xi)
        expo = 2 * np.pi if fam is WeightFamily.BONAMI_DENOMINATOR else np.pi
        return expo * np.abs(x * xi) - self.N * np.log1p(np.abs(x) + np.abs(xi))


@dataclass(frozen=True)
class GrowthReport:
    """Truncated-mass growth curve with its divergence classification."""

    radii: tuple[float, ...]
    masses: tuple[float, ...]
    fitted_exponent: float
    verdict: str  # "convergent" | "divergent"
    note: str = ""

    def __post_init__(self) -> None:
        if any(b < a for a, b in zip(self.masses, self.masses[1:])):
            raise ValueError("masses must be nondecreasing in R")


#: Terminal relative increment below which a scan may be called convergent.
CONVERGENCE_INCREMENT_TOL = 1e-3
#: Fitted tail slope below which a scan may be called convergent.
CONVERGENCE_SLOPE_TOL = 0.1
#: Divergent scans with tail slope under this are flagged borderline
#: (log-type divergence: slope flattens but increments stay large).
BORDERLINE_SLOPE = 0.3

#: Coarse radii for divergence-rate fits on the default grid.
DIVERGENCE_RADII = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
#: Fine-tailed radii for convergence detection: the increment test needs a
#: small terminal step, and the slope test needs the fit window pushed to
#: the grid edge where a convergent tail has flattened enough.
CONVERGENCE_RADII = (4.0, 5.0, 6.0, 7.0, 7.4, 7.7, 7.95, 8.0)


def _masses(field: TFArray, w: WeightSpec, radii: tuple[float, ...]) -> tuple[float, ...]:
    """Truncated masses of exp(p log|field| + log w) at the increasing radii.

    The integrand is exponentiated once, inside the largest square (corner
    values can overflow outside it), and each radius reduces the full-grid
    array with the outside of its square zeroed, so every radius shares one
    reduction tree and monotonicity in R is exact.
    """
    grid = field.grid
    top = radii[-1]
    if top > grid.half_extent * (1 + 1e-12):
        raise ValueError(f"R={top} exceeds grid half-extent {grid.half_extent}")
    x, xi = grid.x_nodes()[:, None], grid.xi_nodes()[None, :]

    def square(r: float) -> np.ndarray:  # the half-open square -r <= x, xi < r
        return (x >= -r) & (x < r) & (xi >= -r) & (xi < r)

    with np.errstate(divide="ignore", over="ignore"):  # log 0 = -inf adds 0; inf fails the check
        log_integrand = w.p * np.log(np.abs(field.values)) + w.log_weight(x, xi)
        integrand = np.exp(log_integrand, out=np.zeros(grid.shape), where=square(top))
    return tuple(grid.cell_measure * _checked_cascade(np.where(square(r), integrand, 0.0)) for r in radii)


def weighted_mass(field: TFArray, w: WeightSpec, R: float) -> float:
    """Quadrature of |field|^p * weight over the half-open square of radius R."""
    return _masses(field, w, (R,))[0]


def pair_field(f: SampledSignal, fhat: SampledSignal | None = None) -> TFArray:
    """The rank-one field f(x) fhat(xi) on the signal-by-dual grid.

    fhat defaults to discrete_fourier(f). Exact closed-form samples can be
    passed instead when far-tail fidelity matters: the FFT's absolute noise
    floor (~1e-16 of the signal scale) is amplified beyond recovery by the
    exp(2 pi |x xi|)-type weights once |xi| exceeds about 3.4 on the
    default grid.
    """
    if fhat is None:
        fhat = discrete_fourier(f)
    grid = TFGrid(
        x_step=f.step, xi_step=fhat.step, x_count=f.count, xi_count=fhat.count
    )
    return TFArray(grid=grid, values=np.outer(f.samples, fhat.samples))


def growth_scan(field: TFArray, w: WeightSpec, radii: tuple[float, ...]) -> GrowthReport:
    """Classify the weighted integral of |field|^p as convergent/divergent;
    a signal's product f(x) fhat(xi) is scanned as pair_field(f, fhat)."""
    radii = tuple(float(r) for r in radii)
    if len(radii) < 4:
        raise ValueError(f"growth scan needs at least 4 radii, got {len(radii)}")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    masses = _masses(field, w, radii)

    tail = len(radii) // 2
    ftail = [(r, m) for r, m in zip(radii[tail:], masses[tail:]) if m > 0]
    if len(ftail) >= 2:
        lr = np.log([r for r, _ in ftail])
        lm = np.log([m for _, m in ftail])
        slope = float(np.polyfit(lr, lm, 1)[0])
    else:
        slope = 0.0
    increment = (masses[-1] - masses[-2]) / masses[-1] if masses[-1] > 0 else 0.0
    convergent = increment < CONVERGENCE_INCREMENT_TOL and slope < CONVERGENCE_SLOPE_TOL
    verdict = "convergent" if convergent else "divergent"
    note = "borderline" if verdict == "divergent" and slope < BORDERLINE_SLOPE else ""
    return GrowthReport(
        radii=radii, masses=masses, fitted_exponent=slope, verdict=verdict, note=note
    )


#: Samples below max(1e-250, 1e-12 * peak) are excluded from decay fits.
#: The absolute floor avoids log-of-underflow; the relative floor keeps the
#: fit window above the FFT rounding floor of transformed signals.
DECAY_ABS_FLOOR = 1e-250
DECAY_REL_FLOOR = 1e-12


def decay_fit(s: SampledSignal, tail_fraction: float = 0.25) -> float:
    """Fitted Gaussian decay constant: slope of -ln|s| / pi against t^2.

    The regression runs over the outermost tail_fraction of the samples
    that sit above the magnitude floor.
    """
    if not 0 < tail_fraction < 0.5:
        raise ValueError(f"tail_fraction must lie in (0, 0.5), got {tail_fraction}")
    mag = np.abs(s.samples)
    peak = float(np.max(mag))
    floor = max(DECAY_ABS_FLOOR, DECAY_REL_FLOOR * peak)
    eligible = np.nonzero(mag > floor)[0]
    if eligible.size < 4:
        raise ValueError("tail underflow: too few samples above the magnitude floor")
    t = s.times()
    k = max(4, math.ceil(tail_fraction * eligible.size))
    sel = eligible[np.argsort(np.abs(t[eligible]), kind="stable")][-k:]
    y = -np.log(mag[sel]) / np.pi
    return float(np.polyfit(t[sel] ** 2, y, 1)[0])
