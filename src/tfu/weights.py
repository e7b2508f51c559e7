"""Weighted-mass functionals, divergence scans, and decay-constant fitting.

Each weight family multiplies |field|^p before plane quadrature:

    radial_half          exp(pi p (x^2 + xi^2) / 2)
    radial_full          exp(pi p (x^2 + xi^2))
    hyperbolic           exp(pi p |x xi|)
    pair_hyperbolic      exp(2 pi p |x xi|)
    bonami               exp(2 pi |x xi|) / (1 + |x| + |xi|)^N
    demange              exp(pi |x xi|)   / (1 + |x| + |xi|)^N

The integrand is exp(p log|field| + log w): a weight beyond the float range
meets the field's decay before anything is exponentiated, and a zero of the
field contributes 0. A signal's product f(x) fhat(xi) is pair_field(f).

Truncation is the half-open square -R <= x < R, -R <= xi < R, mirroring the
grid's own half-open convention; when R is a lattice multiple the square's
discrete measure is exactly (2R)^2. A growth scan forms the integrand once,
inside its largest square, and evaluates the truncated mass at increasing
radii by adding each radius's ring to the previous mass. It fits the tail
slope of log I against log R, and classifies the integral as convergent
only when both the terminal relative increment and the fitted slope are
small. The scan radii therefore shape the test's sensitivity: divergence
detection works on coarse radii, while convergence detection needs the tail
sampled finely near the grid edge (see DIVERGENCE_RADII and CONVERGENCE_RADII).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from tfu.core import (
    Rows,
    SampledSignal,
    TFArray,
    TFGrid,
    TFModulus,
    _fill,
    _owned,
    _require_finite,
    discrete_fourier,
    pairwise_sum,
)


class WeightFamily(enum.Enum):
    RADIAL_HALF = "radial_half"
    RADIAL_FULL = "radial_full"
    HYPERBOLIC = "hyperbolic"
    PAIR_HYPERBOLIC = "pair_hyperbolic"
    BONAMI_DENOMINATOR = "bonami"
    DEMANGE_DENOMINATOR = "demange"


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
        """The logarithm of the weight at (x, xi), broadcast.

        A radial weight is a product of a factor in x and one in xi, and its
        log is summed from the two per-axis terms: one pass over the plane,
        rounded like the separable envelope of gaussian_stft_field."""
        fam = self.family
        if fam is WeightFamily.RADIAL_HALF:
            return np.pi * self.p * x**2 / 2 + np.pi * self.p * xi**2 / 2
        if fam is WeightFamily.RADIAL_FULL:
            return np.pi * self.p * x**2 + np.pi * self.p * xi**2
        rate = {
            WeightFamily.HYPERBOLIC: np.pi * self.p,
            WeightFamily.PAIR_HYPERBOLIC: 2 * np.pi * self.p,
            WeightFamily.BONAMI_DENOMINATOR: 2 * np.pi,
            WeightFamily.DEMANGE_DENOMINATOR: np.pi,
        }[fam]
        plane = np.multiply(x, xi)
        np.multiply(np.abs(plane, out=plane), rate, out=plane)  # rate |x xi|, in one array
        if fam is WeightFamily.HYPERBOLIC or fam is WeightFamily.PAIR_HYPERBOLIC:
            return plane
        # less N log1p(|x| + |xi|), formed in a second array
        denominator = np.add(np.abs(x), np.abs(xi))
        np.multiply(np.log1p(denominator, out=denominator), self.N, out=denominator)
        return np.subtract(plane, denominator, out=plane)


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


def _span(nodes: np.ndarray, r: float) -> tuple[int, int]:
    """Index range [lo, hi) of the ascending nodes t with -r <= t < r."""
    lo, hi = (int(i) for i in np.searchsorted(nodes, (-r, r)))
    return lo, max(lo, hi)


def _masses(field: TFArray | TFModulus, w: WeightSpec, radii: tuple[float, ...]) -> tuple[float, ...]:
    """Truncated masses of exp(p log|field| + log w) at the increasing radii.

    The integrand is formed and exponentiated only on the index block of
    the largest square (corner values can overflow outside it), from the
    field's magnitude on that block: in that block of the magnitude itself
    if the field is owned (a released TFModulus, see tfu.core._owned),
    whose |V| is then overwritten, else in a fresh array. Each
    radius adds its ring to the previous mass: mass i is cell_measure *
    total_i, with total_i = total_{i-1} + ring_i and ring_i the integrand
    summed over the nodes of square i outside square i - 1, as four
    rectangular slices reduced by the cascade and added exactly rounded.
    Rings are >= 0, so the masses are nondecreasing in R exactly. The rings
    cover the block, so a non-finite integrand value makes the last total
    non-finite; only then is the block searched, and the first non-finite
    value named by its full-grid node.
    """
    grid, top = field.grid, radii[-1]
    require_inside(grid, top)
    x, xi = grid.x_nodes(), grid.xi_nodes()
    (j0, j1), (k0, k1) = _span(x, top), _span(xi, top)
    block = field.magnitude[j0:j1, k0:k1]
    with np.errstate(divide="ignore", over="ignore"):  # log 0 = -inf adds 0; inf fails the check
        integrand = np.log(block, out=block if _owned(field) else None)
        integrand *= w.p
        integrand += w.log_weight(x[j0:j1, None], xi[None, k0:k1])
        np.exp(integrand, out=integrand)
    total, masses = 0.0, []
    c0 = c1 = d0 = d1 = 0  # the previous square's rows c0:c1 and columns d0:d1 in the block
    for r in radii:
        a0, a1 = (i - j0 for i in _span(x, r))
        b0, b1 = (i - k0 for i in _span(xi, r))
        if c0 == c1 or d0 == d1:  # the previous square holds no node
            ring = [integrand[a0:a1, b0:b1]]
        else:
            ring = [
                integrand[a0:c0, b0:b1],
                integrand[c1:a1, b0:b1],
                integrand[c0:c1, b0:d0],
                integrand[c0:c1, d1:b1],
            ]
        total += math.fsum(pairwise_sum(piece) for piece in ring)
        masses.append(grid.cell_measure * total)
        c0, c1, d0, d1 = a0, a1, b0, b1
    if not math.isfinite(total):
        _require_finite(integrand, "integrand", origin=(j0, k0))
    return tuple(masses)


def weighted_mass(field: TFArray | TFModulus, w: WeightSpec, R: float) -> float:
    """Quadrature of |field|^p * weight over the half-open square of radius R."""
    return _masses(field, w, (R,))[0]


def pair_field(f: SampledSignal, fhat: SampledSignal | None = None) -> TFArray:
    """The rank-one field f(x) fhat(xi) on the signal-by-dual grid: the rows
    of _pair_rows, filled over the whole plane (tfu.core._fill).

    fhat defaults to discrete_fourier(f). Exact closed-form samples can be
    passed instead when far-tail fidelity matters: the FFT's absolute noise
    floor (~1e-16 of the signal scale) is amplified beyond recovery by the
    exp(2 pi |x xi|)-type weights once |xi| exceeds about 3.4 on the
    default grid.
    """
    grid, rows = _pair_rows(f, fhat)
    return TFArray._fresh(grid, _fill(grid, rows))


def _pair_rows(f: SampledSignal, fhat: SampledSignal | None = None) -> tuple[TFGrid, Rows]:
    """The grid of pair_field(f, fhat) and its row source (tfu.core.Rows):
    row j is f_j times the samples of fhat, the rows of np.outer."""
    if fhat is None:
        fhat = discrete_fourier(f)
    grid = TFGrid(x_step=f.step, xi_step=fhat.step, x_count=f.count, xi_count=fhat.count)

    def rows(out: np.ndarray, start: int) -> np.ndarray:
        return np.multiply(f.samples[start : start + len(out), None], fhat.samples, out=out)

    return grid, rows


def scan_radii(radii: Iterable[float]) -> tuple[float, ...]:
    """radii as floats, if a growth scan can fit them: at least 4, strictly increasing."""
    radii = tuple(float(r) for r in radii)
    if len(radii) < 4:
        raise ValueError(f"growth scan needs at least 4 radii, got {len(radii)}")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    return radii


def require_inside(grid: TFGrid, radius: float) -> None:
    """Refuse a radius whose square does not fit inside the grid (to a relative 1e-12)."""
    half_extent = min((grid.x_count // 2) * grid.x_step, (grid.xi_count // 2) * grid.xi_step)
    if radius > half_extent * (1 + 1e-12):
        raise ValueError(f"R={radius} exceeds grid half-extent {half_extent}")


def growth_scan(field: TFArray | TFModulus, w: WeightSpec, radii: tuple[float, ...]) -> GrowthReport:
    """Classify the weighted integral of |field|^p as convergent/divergent;
    a signal's product f(x) fhat(xi) is scanned as pair_field(f, fhat).
    The caller's field is read only; an owned modulus (tfu.core._owned) is
    overwritten by the scan's integrand (_masses)."""
    radii = scan_radii(radii)
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
#: Share of the samples above the floor, outermost first, that a decay fit uses.
DECAY_TAIL_FRACTION = 0.25


def decay_fit(s: SampledSignal) -> float:
    """Fitted Gaussian decay constant: slope of -ln|s| / pi against t^2.

    The regression runs over the outermost DECAY_TAIL_FRACTION of the
    samples that sit above the magnitude floor.
    """
    mag = np.abs(s.samples)
    peak = float(np.max(mag))
    floor = max(DECAY_ABS_FLOOR, DECAY_REL_FLOOR * peak)
    eligible = np.nonzero(mag > floor)[0]
    if eligible.size < 4:
        raise ValueError("tail underflow: too few samples above the magnitude floor")
    t = s.layout.times()
    k = max(4, math.ceil(DECAY_TAIL_FRACTION * eligible.size))
    sel = eligible[np.argsort(np.abs(t[eligible]), kind="stable")][-k:]
    y = -np.log(mag[sel]) / np.pi
    return float(np.polyfit(t[sel] ** 2, y, 1)[0])
