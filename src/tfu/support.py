"""Concentration checks: Lp plane-norm ratios and essential-support bounds.

The ratio check compares quadrature of |V|^p against (2/p)^d (|f| |g|)^p;
the ratio is 1 at p = 2 for every pair, at most 1 for p > 2, at least 1
for p < 2, with Gaussian pairs extremal at every p.

Essential-support estimation is greedy: the cells' masses are sorted by
|V| descending and accumulated left to right (np.cumsum) until the
requested mass threshold is met. Tied cells have equal masses, so their
order changes no prefix sum. Because the integrand per unit area is maximal
along that order, the greedy prefix has minimal area among all cell sets
meeting the threshold. The measured area is compared against the
closed-form lower bound of the matching mode; a threshold that even the
full grid cannot meet yields an explicit satisfiable=False report rather
than an error, found as soon as no running sum can reach the threshold.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from tfu import _kernels
from tfu.core import (
    _SUM_BLOCK,
    SampledSignal,
    TFArray,
    TFGrid,
    TFModulus,
    _abs_power,
    _modulus,
    _norm_scale,
    _owned,
    _plane_sum,
    _scaled,
    _scaled_power_sum,
)
from tfu.stft import _stft_rows


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


def lieb_exponent(p: float) -> float:
    """p, if the Lp ratio is defined for it: p >= 1."""
    if not p >= 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return p


def lieb_ratio(v: TFArray | TFModulus, p: float, fn: float, gn: float) -> float:
    """quadrature(|V|^p) / ((2/p)^d (fn gn)^p), d = 1 for these grids.

    Both sides are scaled by the same power of two (see
    tfu.core._norm_scale), so no power under- or overflows for tiny or huge
    norms. At a p so large that a side still under- or overflows (a ratio
    of 0 would verify nothing), ValueError names p.
    """
    lieb_exponent(p)
    try:
        with np.errstate(over="ignore"):  # a |V|^p that overflows is refused as a non-finite leaf
            total, norm_p = _scaled_power_sum(v, p, fn, gn)
    except OverflowError:  # the float power (fn gn 2^-k)^p
        raise ValueError(f"p = {p:g}: the reference (2/p) (|f| |g|)^p overflows") from None
    except ValueError as exc:
        raise ValueError(f"p = {p:g}: {exc}") from exc
    reference = (2.0 / p) * norm_p
    if total == 0.0 or reference == 0.0:
        raise ValueError(
            f"p = {p:g}: the |V|^p sum ({total:g}) or its reference (2/p) (|f| |g|)^p ({reference:g}) underflows to 0"
        )
    return total / reference


def lower_bound(mode: SupportMode, d: int = 1) -> float:
    """Closed-form area lower bound for the mode, in dimension d.

    Where a factor of base^a (1 - eps)^b overflows, the bound is the power
    of two 2^(a log2 base + b log2 (1 - eps)), or ValueError beyond the
    float range.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    p, eps = mode.p, mode.epsilon
    if mode.variant is SupportVariant.L1_FRACTION:
        base, a, b = p / 2, d / (p - 1), p / (p - 1)
    elif mode.variant is SupportVariant.LP_VS_L1P:
        base, a, b = 2.0, 2 * p * d / (2 - p), 2 / (2 - p)
    else:
        return 1 - eps
    try:
        return base**a * (1 - eps) ** b
    except OverflowError:
        try:
            return 2.0 ** (a * math.log2(base) + b * math.log2(1 - eps))
        except OverflowError:
            raise ValueError(
                f"{mode.variant.value} bound for p={p:g}, eps={eps:g}, d={d} exceeds the float range"
            ) from None


def sorted_cell_masses(v: TFArray | TFModulus, p: float, k: int = 0) -> Iterator[np.ndarray]:
    """The cells' cell_measure-weighted (2^-k |V|)^p masses, by |V| descending,
    one fresh block of _SUM_BLOCK cells at a time: each block of the sort is
    scaled, powered and weighted when it is reached, so no array of all the
    cells' masses is made."""
    desc = v.descending
    for i in range(0, desc.size, _SUM_BLOCK):
        yield np.multiply(v.grid.cell_measure, _abs_power(_scaled(desc[i : i + _SUM_BLOCK], k), p))


def _prefix_cells(v: TFArray | TFModulus, p: float, k: int, threshold: float) -> int:
    """The fewest cells, by |V| descending, whose (2^-k |V|)^p masses reach
    threshold, or -1: _kernels.prefix_count of all the masses, taken one
    block of sorted_cell_masses at a time. Each block is given the running
    sum of the blocks before it, which prefix_count leaves as the block's
    last entry, so the sums have the bits of one np.cumsum over all cells;
    the scan stops at the first block that reaches threshold.

    It also stops, at -1, before a block that no running sum can reach
    threshold from: with c carried and n masses left, each at most the mass
    b of the next cell (the cells come by |V| descending), times 1 + 2^-40
    for a power that rounds them apart and plus 2^-1000 cell_measure for
    one that rounds in the subnormals, every sum stays c if b is below
    half an ulp of c, c 2^-54, and otherwise stays below (c + n b)
    (1 + n 2^-52 + 2^-40), which covers n roundings up by u = 2^-53 and
    those of the bound itself."""
    desc, measure = v.descending, v.grid.cell_measure
    scanned, carried = 0, 0.0
    for masses in sorted_cell_masses(v, p, k):
        count = _kernels.prefix_count(masses, threshold, carried)
        if count >= 0:
            return scanned + count
        scanned, carried = scanned + masses.size, masses[-1]
        left = desc.size - scanned
        if left:
            bound = measure * (_abs_power(_scaled(desc[scanned : scanned + 1], k), p)[0] * (1 + 2**-40) + 2**-1000)
            if bound < carried * 2**-54 or (carried + left * bound) * (1 + left * 2**-52 + 2**-40) < threshold:
                return -1
    return -1


def greedy_essential_support(
    v: TFArray | TFModulus, mode: SupportMode, fn: float, gn: float
) -> SupportReport:
    """Minimal greedy cell set meeting the mode's mass threshold.

    Masses and threshold are those of the exactly scaled field 2^-k V, k
    from tfu.core._norm_scale, which has the same support and keeps them in
    range for tiny or huge norms. The scaling is applied to the field's
    shared |V| and its descending sort, so the field is sorted once for all
    modes, into a second array: the caller's field is not overwritten. The
    masses are formed and summed one block at a time, up to the block that
    reaches the threshold (_prefix_cells).
    """
    return _greedy_supports(v, [mode], fn, gn)[0]


def _greedy_supports(
    v: TFArray | TFModulus, modes: list[SupportMode], fn: float, gn: float
) -> list[SupportReport]:
    """greedy_essential_support of v for each mode. If v is owned (a
    released TFModulus, see tfu.core._owned), the lp_vs_l1p references are
    first summed from its row-major |V|, and |V| is then sorted descending
    in its own array instead of a second one; v's |V| is overwritten."""
    k, norm = _norm_scale(fn, gn)
    l1 = None  # the plane L1 norm of 2^-k V, the lp_vs_l1p reference
    if any(mode.variant is SupportVariant.LP_VS_L1P for mode in modes):
        l1 = _plane_sum(v.grid, v.magnitude, lambda m: _scaled(m, k), v.peaks)
    desc = v._sort_in_place() if _owned(v) else v.descending
    if desc[0] == 0:  # |z| = 0 only for z = 0
        raise ValueError("field is identically zero")
    reports = []
    for mode in modes:
        # masses (2^-k |V|)^mass_p against (1 - eps) reference^mass_p
        mass_p = 1.0 if mode.variant is SupportVariant.L1_FRACTION else mode.p
        reference = l1 if mode.variant is SupportVariant.LP_VS_L1P else norm
        count = _prefix_cells(v, mass_p, k, (1 - mode.epsilon) * reference**mass_p)
        bound = lower_bound(mode, d=1)
        if count < 0:
            note = "threshold exceeds the total available mass"
            reports.append(SupportReport(mode, measured_area=None, lower_bound=bound, satisfiable=False, cells=0, note=note))
            continue
        area = count * v.grid.cell_measure
        holds = area >= bound
        note = "resolution-limited" if holds and area - bound < v.grid.cell_measure else ""
        reports.append(SupportReport(mode, area, bound, satisfiable=True, cells=count, bound_holds=holds, note=note))
    return reports


def bound_sweep(
    f: SampledSignal, g: SampledSignal, grid: TFGrid, modes: list[SupportMode]
) -> list[SupportReport]:
    """One STFT evaluation, held as its modulus (tfu.core._modulus), one
    report per mode; failures are recorded in the reports
    (bound_holds=False), never raised. The sweep owns the modulus, so the
    modes' greedy support sorts it in place (_greedy_supports)."""
    if not modes:
        return []
    v = _modulus(grid, _stft_rows(f, g, grid))._release()
    return _greedy_supports(v, modes, f.l2_norm(), g.l2_norm())
