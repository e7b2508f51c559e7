"""Parsers for the text values of configs and command lines.

Each parser turns one value into what it means, or raises ConfigError (a
ValueError) saying why it cannot: numbers must be finite, counts must fit
in memory, and the function, weight-scan and support-mode mini-grammars
accept only the parameters they know.

Function specs are colon-separated: "gaussian:a=2", "gaussian:a=1:amp=1",
"hermite:n=2", optionally with "z=" (translation) and "w=" (modulation).
Gaussian amplitude defaults to unit L2 norm. Weight-scan and support-mode
specs are a name followed by space-separated key=value parameters.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from tfu.core import layout_count, layout_step
from tfu.reference import AnalyticFunction, gaussian, hermite, unit_gaussian
from tfu.support import SupportMode, SupportVariant, lieb_exponent, lower_bound
from tfu.weights import DIVERGENCE_RADII, WeightFamily, WeightSpec, scan_radii


class ConfigError(ValueError):
    pass


#: One complex field of count x count cells takes 16 count^2 bytes, and a
#: scenario holds a few at once; 256 MiB a field caps count at 4096.
MAX_FIELD_BYTES = 256 * 2**20
MAX_COUNT = math.isqrt(MAX_FIELD_BYTES // 16)


def finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ConfigError(f"{raw!r} is not a finite number")
    return value


def tolerance(raw: str, name: str = "a tolerance") -> float:
    """A pass tolerance: finite and >= 0, as a negative one fails every check."""
    value = finite_float(raw)
    if value < 0:
        raise ConfigError(f"{name} must be >= 0, got {raw}")
    return value


def positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise ConfigError(f"{raw!r} is not a positive integer")
    return value


def signal_count(raw: str | int) -> int:
    """A SignalLayout's count whose STFT field fits in MAX_FIELD_BYTES."""
    value = layout_count(int(raw))
    if value > MAX_COUNT:
        raise ConfigError(
            f"{value} samples exceed the limit {MAX_COUNT} "
            f"(one field would take {16 * value * value} bytes)"
        )
    return value


def signal_step(raw: str | float) -> float:
    """A SignalLayout's step."""
    return layout_step(finite_float(raw))


def split_list(raw: str) -> list[str]:
    """Items separated by commas or whitespace."""
    return [tok.strip() for tok in raw.replace(",", " ").split() if tok.strip()]


def finite_floats(raw: str) -> tuple[float, ...]:
    return tuple(finite_float(tok) for tok in split_list(raw))


def lieb_exponents(raw: str) -> tuple[float, ...]:
    return tuple(map(lieb_exponent, finite_floats(raw)))


def each(parse: Callable[[str], object]) -> Callable[[str], tuple]:
    """Parser of a ';'-separated list whose items parse; empty items are skipped."""
    return lambda raw: tuple(parse(item) for item in raw.split(";") if item.strip())


def _parse_tokens(spec: str, what: str, sep: str | None = None) -> tuple[str, dict[str, str]]:
    """The lowercased name and the key=value parameters of a spec whose
    tokens are split by sep (None: whitespace); empty tokens are skipped."""
    toks = [tok for tok in spec.strip().split(sep) if tok]
    if not toks:
        raise ConfigError(f"empty {what} spec")
    params = {}
    for tok in toks[1:]:
        if "=" not in tok:
            raise ConfigError(f"malformed {what} parameter {tok!r} in {spec!r}")
        key, val = tok.split("=", 1)
        params[key.strip()] = val.strip()
    return toks[0].lower(), params


def parse_function_spec(spec: str) -> AnalyticFunction:
    kind, params = _parse_tokens(spec, "function", sep=":")
    z = finite_float(params.pop("z", "0"))
    w = finite_float(params.pop("w", "0"))
    if kind == "gaussian":
        a = finite_float(params.pop("a", "1"))
        amp = params.pop("amp", "unit")
        if params:
            raise ConfigError(f"unknown gaussian parameter(s) {sorted(params)} in {spec!r}")
        if amp == "unit":
            return unit_gaussian(a, z=z, w=w)
        if not cmath.isfinite(complex(amp)):
            raise ConfigError(f"{amp!r} is not a finite number")
        return gaussian(a, amplitude=complex(amp), z=z, w=w)
    if kind == "hermite":
        n = int(params.pop("n", 0))
        if params:
            raise ConfigError(f"unknown hermite parameter(s) {sorted(params)} in {spec!r}")
        return hermite(n, z=z, w=w)
    raise ConfigError(f"unknown function kind {kind!r} in {spec!r}")


class FunctionSpec(NamedTuple):
    """A function spec as written, and the function it names."""

    text: str
    fn: AnalyticFunction


def function_spec(raw: str) -> FunctionSpec:
    return FunctionSpec(raw, parse_function_spec(raw))


def identity_tuple(raw: str) -> tuple[FunctionSpec, ...]:
    specs = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if len(specs) != 4:
        raise ConfigError(f"identity tuple needs 4 function specs, got {len(specs)}")
    return tuple(function_spec(spec) for spec in specs)


def shift_pair(raw: str) -> tuple[float, ...]:
    vals = tuple(finite_float(tok) for tok in raw.split())
    if len(vals) != 2:
        raise ConfigError(f"{raw.strip()!r} is not a pair of numbers")
    return vals


_VARIANTS = {variant.value: variant for variant in SupportVariant}

_FAMILIES = {family.value: family for family in WeightFamily}


@dataclass
class WeightScanSpec:
    """One growth-scan request: weight, field source, expectations."""

    weight: WeightSpec
    source: str  # stft | closed | pair | pair_exact
    expect: str  # divergent | convergent
    radii: tuple[float, ...]
    slope: float | None = None
    slope_tol: float = 0.0

    @property
    def family(self) -> str:
        return self.weight.family.value

    @property
    def label(self) -> str:
        return f"{self.family} p={self.weight.p:g} N={self.weight.N:g} field={self.source}"


def parse_weight_scan(spec: str) -> WeightScanSpec:
    name, params = _parse_tokens(spec, "weight scan")
    if name not in _FAMILIES:
        raise ConfigError(f"unknown weight family {name!r} in {spec!r}")
    weight = WeightSpec(
        _FAMILIES[name], p=finite_float(params.pop("p", "1")), N=finite_float(params.pop("N", "0"))
    )
    source = params.pop("field", "stft")
    if source not in ("stft", "closed", "pair", "pair_exact"):
        raise ConfigError(f"unknown field source {source!r} in {spec!r}")
    expect = params.pop("expect", "divergent")
    if expect not in ("divergent", "convergent"):
        raise ConfigError(f"unknown verdict expectation {expect!r} in {spec!r}")
    radii = scan_radii(map(finite_float, params.pop("radii").split(":"))) if "radii" in params else DIVERGENCE_RADII
    slope = finite_float(params.pop("slope")) if "slope" in params else None
    slope_tol = tolerance(params.pop("slope_tol", "0"), "slope_tol")
    if params:
        raise ConfigError(f"unknown weight scan parameter(s) {sorted(params)} in {spec!r}")
    return WeightScanSpec(weight, source, expect, radii, slope, slope_tol)


def parse_support_mode(spec: str) -> tuple[SupportMode, str]:
    name, params = _parse_tokens(spec, "support mode")
    if name not in _VARIANTS:
        raise ConfigError(f"unknown support variant {name!r} in {spec!r}")
    p, eps = finite_float(params.pop("p", "2")), finite_float(params.pop("eps", "0"))
    mode = SupportMode(_VARIANTS[name], p=p, epsilon=eps)
    lower_bound(mode)  # the check's bound (d = 1) depends on p and eps only: refuse one beyond the float range
    expect = params.pop("expect", "holds")
    if expect not in ("holds", "unsatisfiable"):
        raise ConfigError(f"unknown support expectation {expect!r} in {spec!r}")
    if params:
        raise ConfigError(f"unknown support parameter(s) {sorted(params)} in {spec!r}")
    return mode, expect
