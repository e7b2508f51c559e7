"""Concentration checks: Lp plane-norm ratios and essential-support bounds.

The ratio check compares quadrature of |V|^p against (2/p)^d (|f| |g|)^p;
the ratio is 1 at p = 2 for every pair, at most 1 for p > 2, at least 1
for p < 2, with Gaussian pairs extremal at every p.

Essential-support estimation is greedy: cells are sorted by |V| descending
(ties broken by row-major index, so the output is deterministic) and
accumulated until the requested mass threshold is met. Because the
integrand per unit area is maximal along that order, the greedy prefix has
minimal area among all cell sets meeting the threshold. The measured area
is compared against the closed-form lower bound of the matching mode; a
threshold that even the full grid cannot meet yields an explicit
satisfiable=False report rather than an error.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from tfu import _kernels
from tfu.core import SampledSignal, TFArray, TFGrid, quadrature_sum
from tfu.stft import compute_stft


class SupportVariant(enum.Enum):
    #: threshold on the plane L1 mass against (1-eps) |f| |g|; bound needs p >= 2
    L1_FRACTION = "l1_fraction"
    #: threshold on the Lp mass against (1-eps) |V|_1^p; bound needs 1 <= p < 2
    LP_VS_L1P = "lp_vs_l1p"
    #: threshold on the Lp mass against (1-eps) (|f| |g|)^p; any p >= 1
    LP_VS_ENERGY = "lp_vs_energy"


@dataclass(frozen=True)
class SupportMode:
    variant: SupportVariant
    p: float
    epsilon: float

    def __post_init__(self) -> None:
        if not 0 <= self.epsilon < 1:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        if self.variant is SupportVariant.L1_FRACTION and not self.p >= 2:
            raise ValueError(
                f"p out of range for the L1-fraction support bound (requires p >= 2, got {self.p})"
            )
        if self.variant is SupportVariant.LP_VS_L1P and not 1 <= self.p < 2:
            raise ValueError(
                f"p out of range for the Lp-vs-L1 support bound (requires 1 <= p < 2, got {self.p})"
            )
        if self.variant is SupportVariant.LP_VS_ENERGY and not self.p >= 1:
            raise ValueError(
                f"p out of range for the Lp-vs-energy support bound (requires p >= 1, got {self.p})"
            )


@dataclass(frozen=True)
class SupportReport:
    mode: SupportMode
    measured_area: float | None  # None when the threshold is unattainable
    lower_bound: float
    satisfiable: bool
    cells: int
    bound_holds: bool | None = None  # None when unsatisfiable
    note: str = ""


def lieb_ratio(v: TFArray, p: float, fn: float, gn: float) -> float:
    """quadrature(|V|^p) / ((2/p)^d (fn gn)^p), d = 1 for these grids.

    |V| and fn gn are both scaled by s = 2^-round(log2 fn + log2 gn), so no
    power under- or overflows for tiny or huge norms; s is exact, and 1 for
    unit-norm pairs.
    """
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if fn <= 0 or gn <= 0:
        raise ValueError("degenerate pair: zero L2 norm")
    k = round(math.log2(fn) + math.log2(gn))
    kf = round(math.log2(fn))  # fn and gn are scaled apart, so fn gn never underflows
    total = quadrature_sum(v, lambda z: np.ldexp(np.abs(z), -k) ** p)
    return total / ((2.0 / p) * (math.ldexp(fn, -kf) * math.ldexp(gn, kf - k)) ** p)


def lower_bound(mode: SupportMode, d: int = 1) -> float:
    """Closed-form area lower bound for the mode, in dimension d."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    p, eps = mode.p, mode.epsilon
    if mode.variant is SupportVariant.L1_FRACTION:
        return (1 - eps) ** (p / (p - 1)) * (p / 2) ** (d / (p - 1))
    if mode.variant is SupportVariant.LP_VS_L1P:
        return 2 ** (2 * p * d / (2 - p)) * (1 - eps) ** (2 / (2 - p))
    return 1 - eps


def sorted_cell_masses(v: TFArray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Cells ordered by |V| descending (row-major tie-break) and their
    cell_measure-weighted |V|^p masses in that canonical order."""
    flat = np.abs(v.values).ravel()
    order = np.argsort(-flat, kind="stable")
    masses = v.grid.cell_measure * flat[order] ** p
    return order, masses


def greedy_essential_support(
    v: TFArray, mode: SupportMode, fn: float, gn: float
) -> SupportReport:
    """Minimal greedy cell set meeting the mode's mass threshold."""
    if fn <= 0 or gn <= 0:
        raise ValueError("degenerate pair: zero L2 norm")
    if not np.any(v.values):
        raise ValueError("field is identically zero")
    if mode.variant is SupportVariant.L1_FRACTION:
        mass_p = 1.0
        threshold = (1 - mode.epsilon) * fn * gn
    elif mode.variant is SupportVariant.LP_VS_L1P:
        mass_p = mode.p
        l1 = quadrature_sum(v, np.abs)
        threshold = (1 - mode.epsilon) * l1**mode.p
    else:
        mass_p = mode.p
        threshold = (1 - mode.epsilon) * (fn * gn) ** mode.p
    _, masses = sorted_cell_masses(v, mass_p)
    count = _kernels.prefix_count(np.ascontiguousarray(masses), threshold)
    bound = lower_bound(mode, d=1)
    if count < 0:
        return SupportReport(
            mode=mode,
            measured_area=None,
            lower_bound=bound,
            satisfiable=False,
            cells=0,
            bound_holds=None,
            note="threshold exceeds the total available mass",
        )
    area = count * v.grid.cell_measure
    holds = area >= bound
    note = ""
    if holds and area - bound < v.grid.cell_measure:
        note = "resolution-limited"
    return SupportReport(
        mode=mode,
        measured_area=area,
        lower_bound=bound,
        satisfiable=True,
        cells=count,
        bound_holds=holds,
        note=note,
    )


def bound_sweep(
    f: SampledSignal, g: SampledSignal, grid: TFGrid, modes: list[SupportMode]
) -> list[SupportReport]:
    """One STFT evaluation, one report per mode; failures are recorded
    in the reports (bound_holds=False), never raised."""
    if not modes:
        return []
    v = compute_stft(f, g, grid)
    fn, gn = f.l2_norm(), g.l2_norm()
    return [greedy_essential_support(v, mode, fn, gn) for mode in modes]
